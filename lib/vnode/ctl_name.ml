(* No legal Ficus file name may start with this. *)
let prefix = ".#ficus#"

let max_component = 255

let is_ctl name =
  String.length name >= String.length prefix
  && String.sub name 0 (String.length prefix) = prefix

(* Percent-escape '#' and '%' so arguments can carry arbitrary bytes. *)
let escape s =
  let buf = Buffer.create (String.length s) in
  String.iter
    (fun c ->
      match c with
      | '#' | '%' -> Buffer.add_string buf (Printf.sprintf "%%%02x" (Char.code c))
      | c -> Buffer.add_char buf c)
    s;
  Buffer.contents buf

(* Strict hex-digit parsing: [int_of_string_opt "0x.."] would also
   accept underscores ("%_f"), silently decoding malformed sequences. *)
let hex_digit = function
  | '0' .. '9' as c -> Some (Char.code c - Char.code '0')
  | 'a' .. 'f' as c -> Some (Char.code c - Char.code 'a' + 10)
  | 'A' .. 'F' as c -> Some (Char.code c - Char.code 'A' + 10)
  | _ -> None

let unescape s =
  let buf = Buffer.create (String.length s) in
  let n = String.length s in
  let rec go i =
    if i >= n then Some (Buffer.contents buf)
    else
      match s.[i] with
      | '%' ->
        if i + 2 >= n then None
        else
          (match (hex_digit s.[i + 1], hex_digit s.[i + 2]) with
           | Some hi, Some lo ->
             Buffer.add_char buf (Char.chr ((hi * 16) + lo));
             go (i + 3)
           | _ -> None)
      | c ->
        Buffer.add_char buf c;
        go (i + 1)
  in
  go 0

let encode ~op ~args =
  let name = prefix ^ String.concat "#" (op :: List.map escape args) in
  if String.length name > max_component then Error Errno.ENAMETOOLONG else Ok name

let decode name =
  if not (is_ctl name) then None
  else
    let body = String.sub name (String.length prefix) (String.length name - String.length prefix) in
    match String.split_on_char '#' body with
    | [] | [""] -> None
    | op :: raw_args ->
      let rec unescape_all acc = function
        | [] -> Some (List.rev acc)
        | a :: rest ->
          (match unescape a with None -> None | Some a -> unescape_all (a :: acc) rest)
      in
      (match unescape_all [] raw_args with
       | None -> None
       | Some args -> Some (op, args))
