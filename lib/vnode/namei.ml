(* Path components, ignoring repeated and leading/trailing slashes:
   ["/a//b/"] is [["a"; "b"]]. *)
let split path =
  String.split_on_char '/' path |> List.filter (fun c -> c <> "")

let walk ~root path =
  let rec go v = function
    | [] -> Ok v
    | name :: rest ->
      (match v.Vnode.lookup name with
       | Error _ as e -> e
       | Ok child -> go child rest)
  in
  go root (split path)

let walk_parent ~root path =
  match List.rev (split path) with
  | [] -> Error Errno.EINVAL
  | final :: rev_dirs ->
    (match walk ~root (String.concat "/" (List.rev rev_dirs)) with
     | Error _ as e -> e
     | Ok parent -> Ok (parent, final))

let mkdir_p ~root path =
  let rec go v = function
    | [] -> Ok v
    | name :: rest ->
      let next =
        match v.Vnode.lookup name with
        | Ok child ->
          (match Vnode.is_dir child with
           | Ok true -> Ok child
           | Ok false -> Error Errno.ENOTDIR
           | Error _ as e -> e)
        | Error Errno.ENOENT -> v.Vnode.mkdir name
        | Error _ as e -> e
      in
      (match next with Error _ as e -> e | Ok child -> go child rest)
  in
  go root (split path)
