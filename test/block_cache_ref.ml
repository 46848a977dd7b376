(* The stamp-scan LRU that {!Block_cache}'s int-array one replaced,
   kept as the test oracle: a hashtable of entries stamped on every
   touch, and an eviction that scans them all for the oldest stamp.  The
   rest of this file is that module as it was. *)

(* LRU as a hashtable of entries holding a recency stamp; eviction scans
   for the minimum stamp.  Capacities here are small (hundreds), and the
   simulation favours obvious correctness over asymptotics. *)

(* [ok] is [Ok buf], made once per cached block, so a hit allocates
   nothing. *)
type entry = { buf : bytes; ok : (bytes, Errno.t) result; mutable stamp : int }

type t = {
  disk : Disk.t;
  capacity : int;
  table : (int, entry) Hashtbl.t;
  mutable tick : int;
  mutable version : int;  (* writes and invalidates so far *)
  mutable hits : int;
  mutable misses : int;
}

let create ?(capacity = 256) disk =
  if capacity < 0 then invalid_arg "Block_cache.create";
  { disk; capacity; table = Hashtbl.create (max 16 capacity); tick = 0; version = 0; hits = 0;
    misses = 0 }

let disk t = t.disk
let capacity t = t.capacity

let touch t e =
  t.tick <- t.tick + 1;
  e.stamp <- t.tick

let evict_if_full t =
  if Hashtbl.length t.table >= t.capacity && t.capacity > 0 then begin
    let victim = ref None in
    let consider i e =
      match !victim with
      | Some (_, best) when best.stamp <= e.stamp -> ()
      | _ -> victim := Some (i, e)
    in
    Hashtbl.iter consider t.table;
    match !victim with
    | Some (i, _) -> Hashtbl.remove t.table i
    | None -> ()
  end

let insert t i buf ok =
  if t.capacity > 0 then begin
    evict_if_full t;
    let e = { buf; ok; stamp = 0 } in
    Hashtbl.replace t.table i e;
    touch t e
  end

let read t i =
  match Hashtbl.find t.table i with
  | e ->
    t.hits <- t.hits + 1;
    touch t e;
    e.ok
  | exception Not_found ->
    t.misses <- t.misses + 1;
    (match Disk.read t.disk i with
     | Error _ as e -> e
     | Ok buf as ok ->
       insert t i buf ok;
       ok)

let read_copy t i =
  match read t i with Error _ as e -> e | Ok buf -> Ok (Bytes.copy buf)

let write t i buf =
  t.version <- t.version + 1;
  match Disk.write t.disk i buf with
  | Error _ as e -> e
  | Ok () ->
    (match Hashtbl.find_opt t.table i with
     | Some e ->
       Bytes.blit buf 0 e.buf 0 (Bytes.length buf);
       touch t e
     | None ->
       let buf = Bytes.copy buf in
       insert t i buf (Ok buf));
    Ok ()

let invalidate t =
  t.version <- t.version + 1;
  Hashtbl.reset t.table

let version t = t.version

let hits t = t.hits
let misses t = t.misses

let reset_stats t =
  t.hits <- 0;
  t.misses <- 0
