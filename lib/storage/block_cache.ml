(* LRU in int arrays, O(1) per access.  [slot_of] maps a block number to
   the slot caching it (or -1), one int per disk block like the disk's
   own block array.  The used slots form a circular doubly-linked list
   in [prev]/[next], most recently touched first, with slot [capacity]
   as the sentinel; the victim is [prev.(capacity)].  Slots fill in order
   0, 1, ... until the cache is full and are then reused by eviction.

   Touch, insert and evict write ints only, so a hit neither hashes nor
   allocates nor pays the write barrier; the one pointer store is the
   new buffer on an insert.  Each slot keeps its block's [Ok buf], made
   once, and a hit returns it. *)

type t = {
  disk : Disk.t;
  capacity : int;
  slot_of : int array;  (* block -> slot, or -1 *)
  block_of : int array;  (* slot -> block *)
  oks : (bytes, Errno.t) result array;  (* slot -> [Ok buf] *)
  prev : int array;  (* capacity + 1 entries; the last is the sentinel *)
  next : int array;
  mutable used : int;  (* slots 0 .. used - 1 hold blocks *)
  mutable version : int;  (* writes and invalidates so far *)
  mutable hits : int;
  mutable misses : int;
}

let empty = Ok Bytes.empty

let create ?(capacity = 256) disk =
  if capacity < 0 then invalid_arg "Block_cache.create";
  {
    disk;
    capacity;
    slot_of = Array.make (Disk.nblocks disk) (-1);
    block_of = Array.make capacity (-1);
    oks = Array.make capacity empty;
    prev = Array.make (capacity + 1) capacity;
    next = Array.make (capacity + 1) capacity;
    used = 0;
    version = 0;
    hits = 0;
    misses = 0;
  }

let disk t = t.disk
let capacity t = t.capacity

let unlink t s =
  let p = t.prev.(s) and n = t.next.(s) in
  t.next.(p) <- n;
  t.prev.(n) <- p

let push_front t s =
  let n = t.next.(t.capacity) in
  t.prev.(s) <- t.capacity;
  t.next.(s) <- n;
  t.prev.(n) <- s;
  t.next.(t.capacity) <- s

let touch t s =
  if t.next.(t.capacity) <> s then begin
    unlink t s;
    push_front t s
  end

(* The slot caching block [i], or -1 (also for a block off the device). *)
let find t i = if i >= 0 && i < Array.length t.slot_of then t.slot_of.(i) else -1

let buf_of t s = match t.oks.(s) with Ok buf -> buf | Error _ -> assert false

let insert t i ok =
  if t.capacity > 0 then begin
    let s =
      if t.used < t.capacity then begin
        let s = t.used in
        t.used <- s + 1;
        s
      end
      else begin
        let s = t.prev.(t.capacity) in
        unlink t s;
        t.slot_of.(t.block_of.(s)) <- -1;
        s
      end
    in
    t.slot_of.(i) <- s;
    t.block_of.(s) <- i;
    t.oks.(s) <- ok;
    push_front t s
  end

let read t i =
  let s = find t i in
  if s >= 0 then begin
    t.hits <- t.hits + 1;
    touch t s;
    t.oks.(s)
  end
  else begin
    t.misses <- t.misses + 1;
    match Disk.read t.disk i with
    | Error _ as e -> e
    | Ok _ as ok ->
      insert t i ok;
      ok
  end

let read_copy t i =
  match read t i with Error _ as e -> e | Ok buf -> Ok (Bytes.copy buf)

let write t i buf =
  t.version <- t.version + 1;
  match Disk.write t.disk i buf with
  | Error _ as e -> e
  | Ok () ->
    let s = find t i in
    if s >= 0 then begin
      Bytes.blit buf 0 (buf_of t s) 0 (Bytes.length buf);
      touch t s
    end
    else insert t i (Ok (Bytes.copy buf));
    Ok ()

let invalidate t =
  t.version <- t.version + 1;
  for s = 0 to t.used - 1 do
    t.slot_of.(t.block_of.(s)) <- -1;
    t.oks.(s) <- empty
  done;
  t.used <- 0;
  t.prev.(t.capacity) <- t.capacity;
  t.next.(t.capacity) <- t.capacity

let version t = t.version

let hits t = t.hits
let misses t = t.misses

let reset_stats t =
  t.hits <- 0;
  t.misses <- 0
