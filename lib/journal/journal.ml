(* Log layout (region [start, start + blocks) of the device):
     block start                journal superblock: tail slot + next seq
     blocks start+1 ..          circular log of record groups
   A record is: header block (seq, count, flags, home block numbers,
   payload checksum), [count] payload blocks, one seal block written
   last.  A group is one or more consecutive records whose last record
   carries the group-end flag; the seal of that record is the commit
   point for the whole group.  Recovery walks records from the tail and
   applies only complete groups, so a crash anywhere leaves a clean
   prefix of committed transactions. *)

type 'a io = ('a, Errno.t) result

let ( let* ) = Result.bind

let log_src = Logs.Src.create "ficus.journal" ~doc:"Ficus write-ahead metadata journal"

module Log = (val Logs.src_log log_src : Logs.LOG)

type device = {
  block_size : int;
  home_read : int -> bytes io;
  home_write : int -> bytes -> unit io;
  log_read : int -> bytes io;
  log_write : int -> bytes -> unit io;
}

type t = {
  dev : device;
  start : int;
  capacity : int;  (* log slots: blocks - 1 *)
  flush_blocks : int;
  flush_age : int;
  now : unit -> int;
  (* Volatile state, lost at a crash. *)
  txn : (int, bytes) Hashtbl.t;  (* open transaction's dirty set *)
  mutable txn_depth : int;
  staged : (int, bytes) Hashtbl.t;  (* committed, not yet in the log *)
  logged : (int, bytes) Hashtbl.t;  (* sealed, not yet checkpointed home *)
  mutable head : int;  (* next free log slot *)
  mutable tail : int;  (* first live log slot (as on the device) *)
  mutable used : int;  (* live log slots *)
  mutable next_seq : int;
  mutable oldest_commit : int option;  (* clock time of oldest staged commit *)
  mutable pending_spans : Span.ctx list;  (* traces awaiting the group seal *)
  (* Lifetime counters. *)
  mutable n_txns : int;
  mutable n_durable : int;
  mutable n_flushes : int;
  mutable n_records : int;
  mutable n_checkpoints : int;
  mutable n_replayed : int;
  mutable n_bypasses : int;
}

let jsb_magic = 0x0F1C4A53 (* "FicJS" *)
let hdr_magic = 0x0F1C4A48
let seal_magic = 0x0F1C4A43

external bytes_get64u : bytes -> int -> int64 = "%caml_bytes_get64u"

(* Starts every checksum chain. *)
let seed0 = 0x811c9dc5

(* The record and header checksum, 32 bits on disk: a 64-bit
   multiply-xorshift step per 8-byte word (then per byte of a short
   tail), folded to 32 bits.  Each step is a bijection of the running
   state for a fixed input, so any one changed word changes the 64-bit
   state; only the fold can collide.  [seed] chains block checksums.
   The state is a local [Int64] ref no closure captures, so the
   compiler keeps it unboxed: nothing is allocated per word. *)
let checksum ~seed b off len =
  if off < 0 || len < 0 || off + len > Bytes.length b then invalid_arg "Journal.checksum";
  let h = ref (Int64.of_int seed) in
  let stop = off + len in
  let i = ref off in
  while !i < stop do
    let w =
      if !i + 8 <= stop then bytes_get64u b !i
      else Int64.of_int (Char.code (Bytes.unsafe_get b !i))
    in
    i := if !i + 8 <= stop then !i + 8 else !i + 1;
    let x = Int64.mul (Int64.logxor !h w) 0x9E3779B97F4A7C15L in
    h := Int64.logxor x (Int64.shift_right_logical x 29)
  done;
  Int64.to_int (Int64.logxor !h (Int64.shift_right_logical !h 32)) land 0xffffffff

let get_u32 b off = Int32.to_int (Bytes.get_int32_le b off) land 0xffffffff
let set_u32 b off v = Bytes.set_int32_le b off (Int32.of_int (v land 0xffffffff))

let create dev ~start ~blocks ?(flush_blocks = 32) ?(flush_age = 8) ~now () =
  if blocks < 4 then invalid_arg "Journal.create: region needs at least 4 blocks";
  {
    dev;
    start;
    capacity = blocks - 1;
    flush_blocks = max 1 flush_blocks;
    flush_age = max 1 flush_age;
    now;
    txn = Hashtbl.create 32;
    txn_depth = 0;
    staged = Hashtbl.create 64;
    logged = Hashtbl.create 64;
    head = 0;
    tail = 0;
    used = 0;
    next_seq = 1;
    oldest_commit = None;
    pending_spans = [];
    n_txns = 0;
    n_durable = 0;
    n_flushes = 0;
    n_records = 0;
    n_checkpoints = 0;
    n_replayed = 0;
    n_bypasses = 0;
  }

let slot_block t slot = t.start + 1 + (slot mod t.capacity)

(* Home block numbers live in the header after a 20-byte prefix, with
   the last 4 bytes reserved for the header checksum. *)
let max_payload t = (t.dev.block_size - 24) / 4

(* ------------------------------------------------------------------ *)
(* Journal superblock                                                  *)

let write_jsb t ~tail ~seq =
  let b = Bytes.make t.dev.block_size '\000' in
  set_u32 b 0 jsb_magic;
  set_u32 b 4 tail;
  set_u32 b 8 seq;
  set_u32 b 12 (checksum ~seed:seed0 b 0 12);
  t.dev.log_write t.start b

let read_jsb t =
  let* b = t.dev.log_read t.start in
  if get_u32 b 0 <> jsb_magic || get_u32 b 12 <> checksum ~seed:seed0 b 0 12 then Error Errno.EINVAL
  else Ok (get_u32 b 4, get_u32 b 8)

let format t = write_jsb t ~tail:0 ~seq:1

(* ------------------------------------------------------------------ *)
(* Checkpoint: logged blocks go home, then the tail jumps to the head  *)

let sorted_bindings tbl =
  Hashtbl.fold (fun k v acc -> (k, v) :: acc) tbl []
  |> List.sort (fun (a, _) (b, _) -> compare a b)

let checkpoint_logged t =
  if t.used = 0 && Hashtbl.length t.logged = 0 then Ok ()
  else begin
    let rec go = function
      | [] -> Ok ()
      | (blk, data) :: rest ->
        let* () = t.dev.home_write blk data in
        go rest
    in
    let* () = go (sorted_bindings t.logged) in
    (* Only after every block is home does the tail advance; a crash
       before this line just replays the same records again. *)
    let* () = write_jsb t ~tail:t.head ~seq:t.next_seq in
    t.tail <- t.head;
    t.used <- 0;
    Hashtbl.reset t.logged;
    t.n_checkpoints <- t.n_checkpoints + 1;
    Ok ()
  end

(* ------------------------------------------------------------------ *)
(* Flush: stage -> one sealed record group in the log                  *)

let write_record t ~pos ~seq ~group_end items =
  let bs = t.dev.block_size in
  let count = List.length items in
  let payload_cksum =
    List.fold_left (fun h (_, data) -> checksum ~seed:h data 0 bs) seed0 items
  in
  let hdr = Bytes.make bs '\000' in
  set_u32 hdr 0 hdr_magic;
  set_u32 hdr 4 seq;
  set_u32 hdr 8 count;
  set_u32 hdr 12 (if group_end then 1 else 0);
  set_u32 hdr 16 payload_cksum;
  List.iteri (fun i (blk, _) -> set_u32 hdr (20 + (4 * i)) blk) items;
  set_u32 hdr (bs - 4) (checksum ~seed:seed0 hdr 0 (bs - 4));
  let* () = t.dev.log_write (slot_block t pos) hdr in
  let rec payloads i = function
    | [] -> Ok ()
    | (_, data) :: rest ->
      let* () = t.dev.log_write (slot_block t (pos + 1 + i)) data in
      payloads (i + 1) rest
  in
  let* () = payloads 0 items in
  let seal = Bytes.make bs '\000' in
  set_u32 seal 0 seal_magic;
  set_u32 seal 4 seq;
  set_u32 seal 8 payload_cksum;
  set_u32 seal 12 (checksum ~seed:seed0 seal 0 12);
  (* The seal is written last: its presence (with matching seq and
     checksum) is what makes the record — and, on the group-end record,
     the whole group — committed. *)
  let* () = t.dev.log_write (slot_block t (pos + count + 1)) seal in
  Ok (pos + count + 2)

let rec take n = function
  | [] -> ([], [])
  | l when n = 0 -> ([], l)
  | x :: rest ->
    let a, b = take (n - 1) rest in
    (x :: a, b)

let flush t =
  if Hashtbl.length t.staged = 0 then Ok ()
  else begin
    let items = sorted_bindings t.staged in
    let total = List.length items in
    let maxp = max_payload t in
    let nrecords = (total + maxp - 1) / maxp in
    let needed = total + (2 * nrecords) in
    let* bypass =
      if needed > t.capacity then begin
        (* The batch can never fit in the log.  Empty the log first so
           recovery cannot replay anything stale over what follows, then
           write the batch straight home (losing only this batch's
           atomicity — the price of an oversized transaction group). *)
        let* () = checkpoint_logged t in
        t.n_bypasses <- t.n_bypasses + 1;
        let rec go = function
          | [] -> Ok ()
          | (blk, data) :: rest ->
            let* () = t.dev.home_write blk data in
            go rest
        in
        let* () = go items in
        Ok true
      end
      else if needed > t.capacity - t.used then
        let* () = checkpoint_logged t in
        Ok false
      else Ok false
    in
    let* () =
      if bypass then Ok ()
      else begin
        (* Head, sequence and the staged/logged tables move only after
           every block of the group is on the device: if any write fails
           the torn group is simply overwritten by the retry. *)
        let rec emit pos seq items =
          match items with
          | [] -> Ok (pos, seq)
          | _ ->
            let batch, rest = take (min maxp (List.length items)) items in
            let* pos = write_record t ~pos ~seq ~group_end:(rest = []) batch in
            emit pos (seq + 1) rest
        in
        let* pos, seq = emit t.head t.next_seq items in
        t.head <- pos mod t.capacity;
        t.used <- t.used + needed;
        t.next_seq <- seq;
        t.n_records <- t.n_records + nrecords;
        List.iter (fun (blk, data) -> Hashtbl.replace t.logged blk data) items;
        Ok ()
      end
    in
    Hashtbl.reset t.staged;
    t.oldest_commit <- None;
    t.n_durable <- t.n_txns;
    t.n_flushes <- t.n_flushes + 1;
    Log.debug (fun m ->
        m "flush: %d block(s) in %d record(s)%s" total nrecords
          (if bypass then " (bypass)" else ""));
    List.iter (fun ctx -> Span.emit_in ctx "journal:commit") (List.rev t.pending_spans);
    t.pending_spans <- [];
    Ok ()
  end

let checkpoint t =
  let* () = flush t in
  checkpoint_logged t

(* ------------------------------------------------------------------ *)
(* Transactions                                                        *)

let begin_txn t = t.txn_depth <- t.txn_depth + 1

let abort_txn t =
  t.txn_depth <- 0;
  Hashtbl.reset t.txn

let stage_txn t =
  if Hashtbl.length t.txn > 0 then begin
    Hashtbl.iter (fun blk data -> Hashtbl.replace t.staged blk data) t.txn;
    Hashtbl.reset t.txn;
    t.n_txns <- t.n_txns + 1;
    (* Group commit defers durability past the caller's return: remember
       the caller's trace context so the eventual seal can be charged to
       the update that staged the blocks. *)
    (match Span.capture () with
     | Some ctx -> t.pending_spans <- ctx :: t.pending_spans
     | None -> ());
    if t.oldest_commit = None then t.oldest_commit <- Some (t.now ())
  end

let commit_txn t =
  if t.txn_depth <= 0 then invalid_arg "Journal.commit_txn: no open transaction";
  t.txn_depth <- t.txn_depth - 1;
  if t.txn_depth > 0 then Ok ()
  else begin
    stage_txn t;
    if Hashtbl.length t.staged >= t.flush_blocks then flush t else Ok ()
  end

let tick t =
  match t.oldest_commit with
  | Some since when t.now () - since >= t.flush_age -> flush t
  | _ -> Ok ()

let pending t = t.oldest_commit <> None

(* ------------------------------------------------------------------ *)
(* Block I/O through the journal                                       *)

let find t blk =
  let in_txn_set = if t.txn_depth > 0 then Hashtbl.find_opt t.txn blk else None in
  match in_txn_set with
  | Some _ as r -> r
  | None -> (
    match Hashtbl.find_opt t.staged blk with
    | Some _ as r -> r
    | None -> Hashtbl.find_opt t.logged blk)

let read t blk =
  match find t blk with Some b -> Ok b | None -> t.dev.home_read blk

let read_copy t blk =
  let* b = read t blk in
  Ok (Bytes.copy b)

let write t blk data =
  let data = Bytes.copy data in
  if t.txn_depth > 0 then begin
    Hashtbl.replace t.txn blk data;
    Ok ()
  end
  else begin
    (* Auto-commit: a lone write is its own one-block transaction. *)
    begin_txn t;
    Hashtbl.replace t.txn blk data;
    commit_txn t
  end

(* ------------------------------------------------------------------ *)
(* Crash and recovery                                                  *)

let crash t =
  abort_txn t;
  Hashtbl.reset t.staged;
  Hashtbl.reset t.logged;
  t.oldest_commit <- None;
  t.pending_spans <- []

let recover t =
  let bs = t.dev.block_size in
  let maxp = max_payload t in
  let* tail, seq0 = read_jsb t in
  if tail < 0 || tail >= t.capacity then Error Errno.EINVAL
  else begin
    (* Walk records forward from the tail.  [group] accumulates the
       records of the group in progress; it is applied home only when
       the group-end record's seal validates, and silently discarded if
       the log ends (or tears) first. *)
    let applied = ref 0 in
    let committed_pos = ref tail and committed_seq = ref seq0 in
    let rec scan pos seq slots_used group =
      if t.capacity - slots_used < 3 then Ok ()
      else
        let* hdr = t.dev.log_read (slot_block t pos) in
        if
          get_u32 hdr 0 <> hdr_magic
          || get_u32 hdr 4 <> seq
          || get_u32 hdr (bs - 4) <> checksum ~seed:seed0 hdr 0 (bs - 4)
        then Ok ()
        else
          let count = get_u32 hdr 8 in
          let group_end = get_u32 hdr 12 land 1 = 1 in
          let hdr_cksum = get_u32 hdr 16 in
          if count < 1 || count > maxp || count + 2 > t.capacity - slots_used then Ok ()
          else
            let rec payloads i acc cksum =
              if i >= count then Ok (List.rev acc, cksum)
              else
                let* data = t.dev.log_read (slot_block t (pos + 1 + i)) in
                let blk = get_u32 hdr (20 + (4 * i)) in
                payloads (i + 1) ((blk, data) :: acc) (checksum ~seed:cksum data 0 bs)
            in
            let* entries, payload_cksum = payloads 0 [] seed0 in
            let* seal = t.dev.log_read (slot_block t (pos + count + 1)) in
            if
              get_u32 seal 0 <> seal_magic
              || get_u32 seal 4 <> seq
              || get_u32 seal 8 <> hdr_cksum
              || get_u32 seal 12 <> checksum ~seed:seed0 seal 0 12
              || payload_cksum <> hdr_cksum
            then Ok () (* torn record: discard it and everything after *)
            else begin
              let group = group @ [ entries ] in
              let pos' = (pos + count + 2) mod t.capacity in
              let slots_used = slots_used + count + 2 in
              if not group_end then scan pos' (seq + 1) slots_used group
              else
                (* Sealed group: re-apply in record order (idempotent —
                   later records overwrite earlier ones, and replaying
                   the whole walk again reproduces the same state). *)
                let rec apply = function
                  | [] -> Ok ()
                  | (blk, data) :: rest ->
                    let* () = t.dev.home_write blk data in
                    apply rest
                in
                let* () = apply (List.concat group) in
                applied := !applied + List.length group;
                committed_pos := pos';
                committed_seq := seq + 1;
                scan pos' (seq + 1) slots_used []
            end
    in
    let* () = scan tail seq0 0 [] in
    (* Everything sealed is now home: empty the log.  A crash before
       this write just repeats the (idempotent) walk next mount. *)
    let* () = write_jsb t ~tail:!committed_pos ~seq:!committed_seq in
    t.tail <- !committed_pos;
    t.head <- !committed_pos;
    t.next_seq <- !committed_seq;
    t.used <- 0;
    t.n_replayed <- t.n_replayed + !applied;
    if !applied > 0 then
      Log.info (fun m -> m "recovery replayed %d record(s)" !applied);
    Ok !applied
  end

(* ------------------------------------------------------------------ *)

let stats t =
  List.sort compare
    [
      ("bypasses", t.n_bypasses);
      ("checkpoints", t.n_checkpoints);
      ("durable", t.n_durable);
      ("flushes", t.n_flushes);
      ("logged", Hashtbl.length t.logged);
      ("records", t.n_records);
      ("replayed", t.n_replayed);
      ("staged", Hashtbl.length t.staged);
      ("txns", t.n_txns);
    ]
