(* The replicated control-plane registry.  Pure data + deterministic
   application; Raft owns ordering and durability.  The same
   length-prefixed encoding as the Raft hard state keeps host names and
   labels safe to embed in log entries and snapshots. *)

type cmd =
  | Register_volume of {
      rv_alloc : int;
      rv_vol : int;
      rv_label : string;
      rv_replicas : (int * string) list;
    }
  | Set_replicas of {
      sr_alloc : int;
      sr_vol : int;
      sr_replicas : (int * string) list;
    }

(* ------------------------------------------------------------------ *)
(* Encoding                                                            *)

let buf_str b s = Printf.bprintf b "%d:%s" (String.length s) s

let buf_replicas b reps =
  Printf.bprintf b "%d" (List.length reps);
  List.iter
    (fun (rid, h) ->
      Printf.bprintf b " %d " rid;
      buf_str b h)
    reps

let encode_cmd cmd =
  let b = Buffer.create 64 in
  (match cmd with
  | Register_volume { rv_alloc; rv_vol; rv_label; rv_replicas } ->
    Printf.bprintf b "regv %d %d " rv_alloc rv_vol;
    buf_str b rv_label;
    Buffer.add_char b ' ';
    buf_replicas b rv_replicas
  | Set_replicas { sr_alloc; sr_vol; sr_replicas } ->
    Printf.bprintf b "setr %d %d " sr_alloc sr_vol;
    buf_replicas b sr_replicas);
  Buffer.contents b

(* A tiny cursor parser shared by command and snapshot decoding. *)
type cursor = { c_s : string; mutable c_pos : int }

exception Bad

let expect c ch =
  if c.c_pos >= String.length c.c_s || c.c_s.[c.c_pos] <> ch then raise Bad;
  c.c_pos <- c.c_pos + 1

let cur_int c =
  let start = c.c_pos in
  if c.c_pos < String.length c.c_s && c.c_s.[c.c_pos] = '-' then
    c.c_pos <- c.c_pos + 1;
  while
    c.c_pos < String.length c.c_s
    && c.c_s.[c.c_pos] >= '0'
    && c.c_s.[c.c_pos] <= '9'
  do
    c.c_pos <- c.c_pos + 1
  done;
  if c.c_pos = start then raise Bad;
  int_of_string (String.sub c.c_s start (c.c_pos - start))

let cur_str c =
  let n = cur_int c in
  expect c ':';
  if n < 0 || c.c_pos + n > String.length c.c_s then raise Bad;
  let r = String.sub c.c_s c.c_pos n in
  c.c_pos <- c.c_pos + n;
  r

let cur_replicas c =
  let n = cur_int c in
  let rec go k acc =
    if k = 0 then List.rev acc
    else begin
      expect c ' ';
      let rid = cur_int c in
      expect c ' ';
      let h = cur_str c in
      go (k - 1) ((rid, h) :: acc)
    end
  in
  go n []

let decode_cmd s =
  if String.length s < 5 then None
  else
    let tag = String.sub s 0 4 in
    let c = { c_s = s; c_pos = 4 } in
    try
      expect c ' ';
      match tag with
      | "regv" ->
        let rv_alloc = cur_int c in
        expect c ' ';
        let rv_vol = cur_int c in
        expect c ' ';
        let rv_label = cur_str c in
        expect c ' ';
        let rv_replicas = cur_replicas c in
        Some (Register_volume { rv_alloc; rv_vol; rv_label; rv_replicas })
      | "setr" ->
        let sr_alloc = cur_int c in
        expect c ' ';
        let sr_vol = cur_int c in
        expect c ' ';
        let sr_replicas = cur_replicas c in
        Some (Set_replicas { sr_alloc; sr_vol; sr_replicas })
      | _ -> None
    with Bad -> None

(* ------------------------------------------------------------------ *)
(* State                                                               *)

type vol_state = {
  vs_label : string;
  vs_replicas : (int * string) list;
  vs_cindex : int;  (* log index of the command that last touched this *)
}

type t = {
  cp_vols : (int * int, vol_state) Hashtbl.t;
  mutable cp_applied : int;
  mutable cp_bad : int;  (* undecodable commands skipped *)
}

let create () =
  {
    cp_vols = Hashtbl.create 8;
    cp_applied = 0;
    cp_bad = 0;
  }

let apply t ~index cmd =
  (match decode_cmd cmd with
  | None -> t.cp_bad <- t.cp_bad + 1
  | Some (Register_volume { rv_alloc; rv_vol; rv_label; rv_replicas }) ->
    if not (Hashtbl.mem t.cp_vols (rv_alloc, rv_vol)) then
      Hashtbl.replace t.cp_vols (rv_alloc, rv_vol)
        {
          vs_label = rv_label;
          vs_replicas = List.sort compare rv_replicas;
          vs_cindex = index;
        }
  | Some (Set_replicas { sr_alloc; sr_vol; sr_replicas }) -> (
    match Hashtbl.find_opt t.cp_vols (sr_alloc, sr_vol) with
    | None -> ()
    | Some vs ->
      Hashtbl.replace t.cp_vols (sr_alloc, sr_vol)
        {
          vs with
          vs_replicas = List.sort compare sr_replicas;
          vs_cindex = index;
        }));
  t.cp_applied <- max t.cp_applied index

let applied_index t = t.cp_applied

let volume t ~alloc ~vol =
  Option.map
    (fun vs -> (vs.vs_replicas, vs.vs_cindex))
    (Hashtbl.find_opt t.cp_vols (alloc, vol))

(* ------------------------------------------------------------------ *)
(* Snapshot: the whole registry in one string, same cursor format.     *)

let snapshot t =
  let b = Buffer.create 128 in
  Printf.bprintf b "cp1 %d %d " t.cp_applied t.cp_bad;
  let vols =
    Hashtbl.fold (fun key vs acc -> (key, vs) :: acc) t.cp_vols []
    |> List.sort compare
  in
  Printf.bprintf b "%d" (List.length vols);
  List.iter
    (fun ((alloc, vol), vs) ->
      Printf.bprintf b " %d %d %d " alloc vol vs.vs_cindex;
      buf_str b vs.vs_label;
      Buffer.add_char b ' ';
      buf_replicas b vs.vs_replicas)
    vols;
  Buffer.contents b

let restore t s =
  Hashtbl.reset t.cp_vols;
  t.cp_applied <- 0;
  t.cp_bad <- 0;
  if not (String.equal s "") then begin
    if String.length s < 4 || not (String.equal (String.sub s 0 4) "cp1 ") then
      failwith "Control_plane: corrupt snapshot";
    let c = { c_s = s; c_pos = 4 } in
    try
      t.cp_applied <- cur_int c;
      expect c ' ';
      t.cp_bad <- cur_int c;
      expect c ' ';
      let nvols = cur_int c in
      for _ = 1 to nvols do
        expect c ' ';
        let alloc = cur_int c in
        expect c ' ';
        let vol = cur_int c in
        expect c ' ';
        let vs_cindex = cur_int c in
        expect c ' ';
        let vs_label = cur_str c in
        expect c ' ';
        let vs_replicas = cur_replicas c in
        Hashtbl.replace t.cp_vols (alloc, vol)
          { vs_label; vs_replicas; vs_cindex }
      done
    with Bad -> failwith "Control_plane: corrupt snapshot"
  end
