(* On-disk layout:
     block 0            superblock
     ibitmap blocks     inode allocation bitmap (bit 0 reserved)
     bbitmap blocks     block allocation bitmap (metadata pre-marked)
     itable blocks      128-byte inode slots, inum 1.. (slot 0 unused)
     data blocks        file and directory contents
     journal blocks     write-ahead journal region (optional, at the end)
   Inode slot: kind u8, pad, nlink u16, size u32, mtime u32, mode u16,
   uid u16, gen u32, 12 direct u32, 1 single-indirect u32.
   Freed slots keep their gen so reallocation can bump it (NFS staleness). *)

type inum = int

type kind = Reg | Dir

type attrs = {
  kind : kind;
  size : int;
  nlink : int;
  mtime : int;
  mode : int;
  uid : int;
  gen : int;
}

type 'a io = ('a, Errno.t) result

let ( let* ) = Result.bind

let magic = 0x0F1C05F5
let default_inode_size = 128
let ndirect = 12
let max_name = 255

type superblock = {
  nblocks : int;
  ninodes : int;
  inode_size : int;
  ibitmap_start : int;
  ibitmap_blocks : int;
  bbitmap_start : int;
  bbitmap_blocks : int;
  itable_start : int;
  itable_blocks : int;
  data_start : int;
  journal_start : int;  (* = nblocks when there is no journal *)
  journal_blocks : int;  (* 0 = unjournaled *)
}

(* A file or directory as last read or stored: its data bytes and, for a
   directory, their entries in on-disk order and a name index, each
   built when first needed.  A pure function of [bytes]; [checked] is
   the write epoch (see [epoch]) at which [bytes] last equalled the
   inode's data. *)
type view = {
  bytes : string;
  entries : (string * inum * kind) list Lazy.t;
  names : (string, int) Hashtbl.t Lazy.t;  (* each name's record offset *)
  mutable checked : int;
}

type ino = {
  i_kind : int;  (* 0 free, 1 Reg, 2 Dir *)
  i_nlink : int;
  i_size : int;
  i_mtime : int;
  i_mode : int;
  i_uid : int;
  i_gen : int;
  i_direct : int array;
  i_indirect : int;
}

type t = {
  cache : Block_cache.t;
  sb : superblock;
  bs : int;  (* block size *)
  now : unit -> int;
  journal : Journal.t option;
  (* Every [bwrite] (counted before the journal or device sees it, so a
     failed write counts too) and every aborted transaction.  Together
     with {!Block_cache.version} (every write through the cache, journal
     checkpoints and recovery included, and every invalidation, a crash
     reboot's included) it makes the write epoch ([epoch]): while the
     epoch stands, every block reads back as it did. *)
  mutable writes : int;
  (* Decoded inodes, valid for the epoch [cached_at] and dropped as soon
     as it moves.  A hit still reads the inode block, so the buffer
     cache, the journal and the device see exactly the same traffic;
     only the decoding goes.  An inode is kept as its read's result, so
     a hit allocates nothing. *)
  mutable cached_at : int;
  inos : (inum, (ino, Errno.t) result) Hashtbl.t;
  (* One view per inode ([load_view]), for whole-file reads and
     directories alike.  A view checked in the current epoch is reused
     after replaying its block reads; otherwise every data block read is
     compared in place with the view's bytes and the view is reused only
     when all of them are equal, so it can never be stale — not after a
     crash, a journal abort or a failed write — and nothing here changes
     which blocks are read.  Each view is charged the blocks it spans, at
     least one; [view_blocks] is their sum (see [remember]). *)
  views : (inum, view) Hashtbl.t;
  mutable view_blocks : int;
}

(* ------------------------------------------------------------------ *)
(* Superblock                                                          *)

let encode_sb bs sb =
  let b = Bytes.make bs '\000' in
  Codec.set_u32 b 0 magic;
  Codec.set_u32 b 4 sb.nblocks;
  Codec.set_u32 b 8 sb.ninodes;
  Codec.set_u32 b 12 sb.ibitmap_start;
  Codec.set_u32 b 16 sb.ibitmap_blocks;
  Codec.set_u32 b 20 sb.bbitmap_start;
  Codec.set_u32 b 24 sb.bbitmap_blocks;
  Codec.set_u32 b 28 sb.itable_start;
  Codec.set_u32 b 32 sb.itable_blocks;
  Codec.set_u32 b 36 sb.data_start;
  Codec.set_u32 b 40 sb.inode_size;
  Codec.set_u32 b 44 sb.journal_start;
  Codec.set_u32 b 48 sb.journal_blocks;
  b

let decode_sb b =
  if Codec.get_u32 b 0 <> magic then Error Errno.EINVAL
  else
    Ok
      {
        nblocks = Codec.get_u32 b 4;
        ninodes = Codec.get_u32 b 8;
        ibitmap_start = Codec.get_u32 b 12;
        ibitmap_blocks = Codec.get_u32 b 16;
        bbitmap_start = Codec.get_u32 b 20;
        bbitmap_blocks = Codec.get_u32 b 24;
        itable_start = Codec.get_u32 b 28;
        itable_blocks = Codec.get_u32 b 32;
        data_start = Codec.get_u32 b 36;
        inode_size = Codec.get_u32 b 40;
        (* Pre-journal images have zeros here: no journal region. *)
        journal_start =
          (if Codec.get_u32 b 48 = 0 then Codec.get_u32 b 4 else Codec.get_u32 b 44);
        journal_blocks = Codec.get_u32 b 48;
      }

(* ------------------------------------------------------------------ *)
(* Block I/O                                                           *)

(* Every metadata and data access funnels through these three, so the
   journal (when present) sees all of it: reads observe the transaction
   dirty set and any committed-but-not-yet-checkpointed blocks; writes
   buffer in the open transaction instead of hitting the device. *)

let bread t blk =
  match t.journal with
  | Some j -> Journal.read j blk
  | None -> Block_cache.read t.cache blk

let bread_copy t blk =
  match t.journal with
  | Some j -> Journal.read_copy j blk
  | None -> Block_cache.read_copy t.cache blk

let bwrite t blk buf =
  t.writes <- t.writes + 1;
  match t.journal with
  | Some j -> Journal.write j blk buf
  | None -> Block_cache.write t.cache blk buf

(* Run [f] as one journaled transaction: its writes become durable
   together (at the next group-commit flush) or not at all, and an error
   rolls every one of them back.  Unjournaled: plain write-through. *)
let with_txn t f =
  match t.journal with
  | None -> f ()
  | Some j ->
    Journal.begin_txn j;
    (match f () with
     | Ok _ as r ->
       (* Staged: the call has taken effect.  A group-commit flush that
          fails on the device keeps the staged writes for the next flush,
          and [sync] reports it, as fsync reports a writeback error. *)
       (match Journal.commit_txn j with Ok () | Error _ -> r)
     | Error _ as e ->
       t.writes <- t.writes + 1;
       Journal.abort_txn j;
       e)

(* The write epoch: both counts only grow, so an unchanged sum means
   neither moved. *)
let epoch t = t.writes + Block_cache.version t.cache

(* Drop the decoded inodes once the epoch moves. *)
let sync_epoch t =
  let now = epoch t in
  if t.cached_at <> now then begin
    t.cached_at <- now;
    Hashtbl.reset t.inos
  end

(* ------------------------------------------------------------------ *)
(* Bitmaps                                                             *)

(* A bitmap is [limit] bits from block [start] on: the inode bitmap's
   bit per inode number, [ninodes + 1] of them, and the block bitmap's
   bit per block, [nblocks] of them.  These two functions are the only
   code that reads or changes one. *)

(* The [k] lowest clear bits below [limit], in increasing order (what
   [k] successive lowest-first allocations pick), or all of them if
   there are fewer.  Each bitmap block is read at most once. *)
let clear_bits t ~start ~limit k =
  let bits_per_block = t.bs * 8 in
  let found = Array.make (min k limit) 0 in
  let rec scan_block bi count =
    if count >= k || bi * bits_per_block >= limit then Ok count
    else
      match bread t (start + bi) with
      | Error _ as e -> e
      | Ok b ->
        let base = bi * bits_per_block in
        let count = ref count and i = ref 0 in
        while !count < k && !i < t.bs && base + (!i * 8) < limit do
          let byte = Codec.get_u8 b !i in
          if byte <> 0xff then
            for j = 0 to 7 do
              let bit = base + (!i * 8) + j in
              if !count < k && bit < limit && byte land (1 lsl j) = 0 then begin
                found.(!count) <- bit;
                incr count
              end
            done;
          incr i
        done;
        scan_block (bi + 1) !count
  in
  match scan_block 0 0 with
  | Error _ as e -> e
  | Ok n -> Ok (if n = Array.length found then found else Array.sub found 0 n)

(* Set ([value]) or clear [bits] (increasing), one read-modify-write per
   bitmap block, in block order. *)
let set_bits t ~start bits value =
  let bits_per_block = t.bs * 8 in
  let n = Array.length bits in
  let rec edit b bi i =
    if i < n && bits.(i) / bits_per_block = bi then begin
      let bit = bits.(i) mod bits_per_block in
      let byte = Codec.get_u8 b (bit / 8) and mask = 1 lsl (bit mod 8) in
      Codec.set_u8 b (bit / 8) (if value then byte lor mask else byte land lnot mask);
      edit b bi (i + 1)
    end
    else i
  in
  let rec go i =
    if i >= n then Ok ()
    else
      let bi = bits.(i) / bits_per_block in
      match bread_copy t (start + bi) with
      | Error _ as e -> e
      | Ok b ->
        let next = edit b bi i in
        (match bwrite t (start + bi) b with Error _ as e -> e | Ok () -> go next)
  in
  go 0

(* ------------------------------------------------------------------ *)
(* Inode table                                                         *)

let inodes_per_block t = t.bs / t.sb.inode_size

let inode_block t inum = t.sb.itable_start + ((inum - 1) / inodes_per_block t)
let inode_offset t inum = (inum - 1) mod inodes_per_block t * t.sb.inode_size

let decode_ino b off =
  {
    i_kind = Codec.get_u8 b off;
    i_nlink = Codec.get_u16 b (off + 2);
    i_size = Codec.get_u32 b (off + 4);
    i_mtime = Codec.get_u32 b (off + 8);
    i_mode = Codec.get_u16 b (off + 12);
    i_uid = Codec.get_u16 b (off + 14);
    i_gen = Codec.get_u32 b (off + 16);
    i_direct = Array.init ndirect (fun k -> Codec.get_u32 b (off + 20 + (4 * k)));
    i_indirect = Codec.get_u32 b (off + 68);
  }

let encode_ino b off ino =
  Codec.set_u8 b off ino.i_kind;
  Codec.set_u16 b (off + 2) ino.i_nlink;
  Codec.set_u32 b (off + 4) ino.i_size;
  Codec.set_u32 b (off + 8) ino.i_mtime;
  Codec.set_u16 b (off + 12) ino.i_mode;
  Codec.set_u16 b (off + 14) ino.i_uid;
  Codec.set_u32 b (off + 16) ino.i_gen;
  Array.iteri (fun k v -> Codec.set_u32 b (off + 20 + (4 * k)) v) ino.i_direct;
  Codec.set_u32 b (off + 68) ino.i_indirect

let valid_inum t inum = inum >= 1 && inum <= t.sb.ninodes

(* The inode block is read either way; only the decoding is cached. *)
let read_ino t inum =
  if not (valid_inum t inum) then Error Errno.EINVAL
  else begin
    sync_epoch t;
    match bread t (inode_block t inum) with
    | Error _ as e -> e
    | Ok b ->
      match Hashtbl.find t.inos inum with
      | ino -> ino
      | exception Not_found ->
        let ino = Ok (decode_ino b (inode_offset t inum)) in
        Hashtbl.replace t.inos inum ino;
        ino
  end

(* Matches rather than [let*]: this is on every cached walk. *)
let read_live_ino t inum =
  match read_ino t inum with
  | Ok ino when ino.i_kind = 0 -> Error Errno.ESTALE
  | r -> r

let write_ino t inum ino =
  let blk = inode_block t inum in
  let* b = bread_copy t blk in
  encode_ino b (inode_offset t inum) ino;
  bwrite t blk b

(* ------------------------------------------------------------------ *)
(* mkfs / mount                                                        *)

let layout ~bs ~nblocks ~ninodes ~inode_size ~journal_blocks =
  let bits_per_block = bs * 8 in
  let ceil_div a b = (a + b - 1) / b in
  let ibitmap_blocks = ceil_div (ninodes + 1) bits_per_block in
  let bbitmap_blocks = ceil_div nblocks bits_per_block in
  let itable_blocks = ceil_div ninodes (bs / inode_size) in
  let ibitmap_start = 1 in
  let bbitmap_start = ibitmap_start + ibitmap_blocks in
  let itable_start = bbitmap_start + bbitmap_blocks in
  let data_start = itable_start + itable_blocks in
  {
    nblocks;
    ninodes;
    inode_size;
    ibitmap_start;
    ibitmap_blocks;
    bbitmap_start;
    bbitmap_blocks;
    itable_start;
    itable_blocks;
    data_start;
    (* The journal takes the tail of the disk so the data region stays
       contiguous; journal_start = nblocks means no journal. *)
    journal_start = nblocks - journal_blocks;
    journal_blocks;
  }

let empty_ino = {
  i_kind = 0;
  i_nlink = 0;
  i_size = 0;
  i_mtime = 0;
  i_mode = 0;
  i_uid = 0;
  i_gen = 0;
  i_direct = Array.make ndirect 0;
  i_indirect = 0;
}

let root _t = 1
let cache t = t.cache
let disk t = Block_cache.disk t.cache

(* The journal talks to the world through closures: home blocks go
   through the buffer cache (write-through, so checkpoint and replay
   leave cache and media consistent); log-region blocks go straight to
   the device so log traffic never pollutes the LRU.  The flush
   thresholds are options: [None] takes {!Journal.create}'s default. *)
let make_journal ~cache ~sb ~bs ~flush_blocks ~flush_age ~now =
  let disk = Block_cache.disk cache in
  Journal.create
    {
      Journal.block_size = bs;
      home_read = (fun blk -> Block_cache.read cache blk);
      home_write = (fun blk buf -> Block_cache.write cache blk buf);
      log_read = (fun blk -> Disk.read disk blk);
      log_write = (fun blk buf -> Disk.write disk blk buf);
    }
    ~start:sb.journal_start ~blocks:sb.journal_blocks ?flush_blocks ?flush_age ~now ()

let make cache sb ~now journal =
  let bs = Disk.block_size (Block_cache.disk cache) in
  { cache; sb; bs; now; journal; writes = 0; cached_at = 0; inos = Hashtbl.create 64;
    views = Hashtbl.create 64; view_blocks = 0 }

let mkfs ?cache_capacity ?ninodes ?(inode_size = default_inode_size)
    ?(journal_blocks = 0) ?journal_flush_blocks ?journal_flush_age ~now disk =
  let bs = Disk.block_size disk in
  (* A directory record's u16 length must span a block. *)
  if bs < 512 || bs > 0xffff || inode_size < default_inode_size || bs mod inode_size <> 0
     || journal_blocks < 0
     || (journal_blocks > 0 && journal_blocks < 4)
  then Error Errno.EINVAL
  else
    let nblocks = Disk.nblocks disk in
    let ninodes = match ninodes with Some n -> n | None -> max 16 (nblocks / 4) in
    let sb = layout ~bs ~nblocks ~ninodes ~inode_size ~journal_blocks in
    if sb.data_start >= sb.journal_start then Error Errno.ENOSPC
    else begin
      let cache = Block_cache.create ?capacity:cache_capacity disk in
      (* Format with direct write-through; the journal only starts
         intercepting once the image is complete. *)
      let t = make cache sb ~now None in
      let* () = Block_cache.write cache 0 (encode_sb bs sb) in
      (* Zero both bitmaps and the inode table. *)
      let zero = Bytes.make bs '\000' in
      let rec zero_range blk n =
        if n = 0 then Ok ()
        else
          let* () = Block_cache.write cache blk zero in
          zero_range (blk + 1) (n - 1)
      in
      let* () = zero_range sb.ibitmap_start sb.ibitmap_blocks in
      let* () = zero_range sb.bbitmap_start sb.bbitmap_blocks in
      let* () = zero_range sb.itable_start sb.itable_blocks in
      (* Reserve inode 0 and the root's inode 1, every metadata block and
         the journal region, so the allocator never hands them out. *)
      let* () = set_bits t ~start:sb.ibitmap_start [| 0; 1 |] true in
      let reserved =
        Array.init (sb.data_start + journal_blocks) (fun i ->
            if i < sb.data_start then i else sb.journal_start + i - sb.data_start)
      in
      let* () = set_bits t ~start:sb.bbitmap_start reserved true in
      (* Root directory: inode 1, empty. *)
      let root_ino = { empty_ino with i_kind = 2; i_nlink = 1; i_mtime = now (); i_mode = 0o755; i_gen = 1 } in
      let* () = write_ino t 1 root_ino in
      if journal_blocks = 0 then Ok t
      else begin
        let j =
          make_journal ~cache ~sb ~bs ~flush_blocks:journal_flush_blocks
            ~flush_age:journal_flush_age ~now
        in
        let* () = Journal.format j in
        Ok { t with journal = Some j }
      end
    end

let mount ?cache_capacity ?journal_flush_blocks ?journal_flush_age ~now disk =
  let bs = Disk.block_size disk in
  let cache = Block_cache.create ?capacity:cache_capacity disk in
  let* b = Block_cache.read cache 0 in
  let* sb = decode_sb b in
  if sb.nblocks <> Disk.nblocks disk then Error Errno.EINVAL
  else if sb.journal_blocks = 0 then Ok (make cache sb ~now None)
  else begin
    let j =
      make_journal ~cache ~sb ~bs ~flush_blocks:journal_flush_blocks
        ~flush_age:journal_flush_age ~now
    in
    (* Crash recovery: re-apply every sealed record group, discard any
       torn tail, and start with an empty log. *)
    let* (_applied : int) = Journal.recover j in
    Ok (make cache sb ~now (Some j))
  end

let free_block_bits t k = clear_bits t ~start:t.sb.bbitmap_start ~limit:t.sb.nblocks k
let free_inode_bits t k = clear_bits t ~start:t.sb.ibitmap_start ~limit:(t.sb.ninodes + 1) k

let nfree_blocks t =
  let* free = free_block_bits t t.sb.nblocks in
  Ok (Array.length free)

(* ------------------------------------------------------------------ *)
(* Allocation                                                          *)

let alloc_inode t ~kind ~mode ~uid =
  let* found = free_inode_bits t 1 in
  if Array.length found = 0 then Error Errno.ENFILE
  else
    let inum = found.(0) in
    let* () = set_bits t ~start:t.sb.ibitmap_start found true in
    let* old = read_ino t inum in
    let ino =
      {
        empty_ino with
        i_kind = (match kind with Reg -> 1 | Dir -> 2);
        i_nlink = 1;
        i_mtime = t.now ();
        i_mode = mode;
        i_uid = uid;
        i_gen = old.i_gen + 1;
      }
    in
    let* () = write_ino t inum ino in
    Ok inum

(* ------------------------------------------------------------------ *)
(* Block mapping: 12 direct + 1 single indirect                        *)

let max_file_blocks t = ndirect + (t.bs / 4)

(* The block map, in two halves that every reader and writer of a
   file's pointers goes through: [indirect_block] reads what a call over
   file blocks up to [last] needs, once per call, and [block_ptr] decodes
   one file block's pointer from it. *)

let no_indirect = Ok Bytes.empty

(* The indirect block's bytes, shared with the cache (not to be
   mutated), when [last] is past the direct blocks and the inode has
   one; [Bytes.empty] otherwise.  [EFBIG] past the largest file. *)
let indirect_block t ino ~last =
  if last >= max_file_blocks t then Error Errno.EFBIG
  else if last < ndirect || ino.i_indirect = 0 then no_indirect
  else bread t ino.i_indirect

(* File block [n]'s physical block, or 0 if unmapped; [ind] is what
   [indirect_block] returned for a [last] of at least [n]. *)
let block_ptr ino ind n =
  if n < ndirect then ino.i_direct.(n)
  else if Bytes.length ind = 0 then 0
  else Codec.get_u32 ind (4 * (n - ndirect))

(* A call's block-map edits, made by [map_blocks] for the file blocks
   it is about to write.  The crash order is the caller's: [map_blocks]
   has already set the new blocks' bitmap bits; the caller writes the
   data blocks, then [write_indirect], then the inode ([ino]).  A crash
   in between leaks blocks (allocated but unreferenced) and never leaves
   a pointer to a free or unwritten block. *)
type mapping = {
  ino : ino;  (* the inode with the call's new pointers *)
  phys : int array;  (* the physical block of each requested file block *)
  fresh : bool array;  (* allocated by this call: its old bytes are zeros *)
  indirect : (int * bytes) option;  (* the indirect block's new bytes, if they changed *)
}

(* Map file blocks [blocks] (increasing) of [ino], allocating every
   unmapped one.  The new blocks are exactly the ones the per-block
   lowest-free-first loop would pick: one allocation per unmapped block
   in file order, a new indirect block just before the first block it
   maps.  The indirect block is read once and every bitmap block is
   read-modified-written once, whatever the number of blocks. *)
let map_blocks t ino blocks =
  let nb = Array.length blocks in
  let* ind = indirect_block t ino ~last:(if nb = 0 then -1 else blocks.(nb - 1)) in
  let phys = Array.make nb 0 and fresh = Array.make nb false in
  let need = ref 0 and new_ind = ref false in
  for i = 0 to nb - 1 do
    let n = blocks.(i) in
    let p = block_ptr ino ind n in
    phys.(i) <- p;
    if p = 0 then begin
      fresh.(i) <- true;
      incr need;
      (* and one for the indirect block, if this is its first pointer *)
      if n >= ndirect && ino.i_indirect = 0 && not !new_ind then begin
        new_ind := true;
        incr need
      end
    end
  done;
  let need = !need in
  if need = 0 then Ok { ino; phys; fresh; indirect = None }
  else
    let* found = free_block_bits t need in
    if Array.length found < need then Error Errno.ENOSPC
    else
      let* () = set_bits t ~start:t.sb.bbitmap_start found true in
      let next = ref 0 in
      let take () =
        incr next;
        found.(!next - 1)
      in
      let direct = Array.copy ino.i_direct in
      let ind_blk = ref ino.i_indirect and ind_buf = ref None in
      Array.iteri
        (fun i n ->
          if fresh.(i) then
            if n < ndirect then begin
              phys.(i) <- take ();
              direct.(n) <- phys.(i)
            end
            else begin
              let buf =
                match !ind_buf with
                | Some buf -> buf
                | None when ino.i_indirect <> 0 -> Bytes.copy ind
                | None ->
                  ind_blk := take ();
                  Bytes.make t.bs '\000'
              in
              ind_buf := Some buf;
              phys.(i) <- take ();
              Codec.set_u32 buf (4 * (n - ndirect)) phys.(i)
            end)
        blocks;
      Ok
        {
          ino = { ino with i_direct = direct; i_indirect = !ind_blk };
          phys;
          fresh;
          indirect = Option.map (fun buf -> (!ind_blk, buf)) !ind_buf;
        }

let write_indirect t m =
  match m.indirect with None -> Ok () | Some (blk, buf) -> bwrite t blk buf

(* Drop every block at file-block index >= [keep] from [ino]'s pointers:
   rewrites the indirect block if it stays and one of its pointers goes,
   and returns the inode without the dropped pointers and the blocks to
   free, in increasing order.  The caller writes that inode, then
   [free_blocks]: pointers go before bitmap bits, so a crash in between
   leaks blocks and never leaves a live file referencing a free one. *)
let unmap_from t ino ~keep =
  let last = if ino.i_indirect = 0 then ndirect - 1 else max_file_blocks t - 1 in
  let* ind = indirect_block t ino ~last in
  let freed = ref [] and kept_ind = ref false and cleared_ind = ref false in
  for n = last downto min keep ndirect do
    let p = block_ptr ino ind n in
    if p <> 0 then
      if n >= keep then begin
        freed := p :: !freed;
        if n >= ndirect then cleared_ind := true
      end
      else if n >= ndirect then kept_ind := true
  done;
  let unmapped = { ino with i_direct = Array.mapi (fun n p -> if n < keep then p else 0) ino.i_direct } in
  let sorted blocks =
    let a = Array.of_list blocks in
    Array.sort Int.compare a;
    a
  in
  if ino.i_indirect = 0 then Ok (unmapped, sorted !freed)
  else if not !kept_ind then
    Ok ({ unmapped with i_indirect = 0 }, sorted (ino.i_indirect :: !freed))
  else if not !cleared_ind then Ok (unmapped, sorted !freed)
  else begin
    let b = Bytes.copy ind in
    let from = 4 * (keep - ndirect) in
    Bytes.fill b from (t.bs - from) '\000';
    let* () = bwrite t ino.i_indirect b in
    Ok (unmapped, sorted !freed)
  end

let free_blocks t blocks = set_bits t ~start:t.sb.bbitmap_start blocks false

(* ------------------------------------------------------------------ *)
(* Block walks                                                         *)

(* A file block's bytes: the cached block itself, shared, or a fresh
   zero block for a hole. *)
let phys_block t phys = if phys = 0 then Ok (Bytes.make t.bs '\000') else bread t phys

(* Visit the file bytes [off, off+len) block by block, in order, as
   [f pos blk boff chunk]: [chunk] bytes at offset [pos] of the range are
   [blk]'s bytes from [boff].  The chunks tile the range, so a buffer
   they are copied into needs no initialising.  [blk] is the cached block
   itself, shared, so [f] must not mutate it; a hole reads as a fresh
   zero block.  The indirect block is read once, just before the first
   block it maps, and [ind] carries it on.
   Matches rather than [let*], and a top-level loop rather than a local
   one: a bind's continuation would be a closure allocated per block, a
   local loop one per walk. *)
let rec iter_blocks_from t ino ~off ~len f ind pos =
  if pos >= len then Ok ()
  else
    let fblk = (off + pos) / t.bs in
    if fblk >= ndirect && (pos = 0 || fblk = ndirect) then
      match indirect_block t ino ~last:((off + len - 1) / t.bs) with
      | Error e -> Error e
      | Ok ind -> visit_block t ino ~off ~len f ind pos
    else visit_block t ino ~off ~len f ind pos

and visit_block t ino ~off ~len f ind pos =
  let fpos = off + pos in
  let boff = fpos mod t.bs in
  let chunk = min (t.bs - boff) (len - pos) in
  match phys_block t (block_ptr ino ind (fpos / t.bs)) with
  | Error e -> Error e
  | Ok blk ->
    f pos blk boff chunk;
    iter_blocks_from t ino ~off ~len f ind (pos + chunk)

let iter_blocks t ino ~off ~len f = iter_blocks_from t ino ~off ~len f Bytes.empty 0

(* A replay: the block accesses of a read whose bytes are already known. *)
let ignore_block _ _ _ _ = ()

(* ------------------------------------------------------------------ *)
(* Views                                                               *)

(* Directory data is whole blocks, each a chain of records, as in 4.2BSD:
     u32 inum | u16 record length | u8 kind (1 Reg, 2 Dir) | u8 namelen | name
   The record lengths of a block sum to the block size, so no record
   crosses a block boundary and every block parses on its own.  A record
   may be longer than its [header + namelen] bytes: the slack is free
   space a later entry can take.  Inum 0 marks a free record; only a
   block's first record is ever freed, since a record dropped from
   anywhere else merges into the one before it.  No edit moves a
   record, so the name index maps each name to its record's offset. *)

let header = 8

let record_inum data pos = Int32.to_int (String.get_int32_le data pos) land 0xffffffff
let record_len data pos = String.get_uint16_le data (pos + 4)
let record_kind data pos = if String.unsafe_get data (pos + 6) = '\002' then Dir else Reg
let name_len data pos = Char.code (String.unsafe_get data (pos + 7))
let record_name data pos = String.sub data (pos + header) (name_len data pos)

(* Raised by [fold_records] with the first block of a directory whose
   record chain does not end exactly at the block's end. *)
exception Corrupt of int

(* Fold [f] over the offsets of [data]'s live records, in order. *)
let fold_records bs data f acc =
  let n = String.length data in
  if n mod bs <> 0 then raise (Corrupt (n / bs));
  let rec go pos acc =
    if pos = n then acc
    else
      let block_end = pos - (pos mod bs) + bs in
      let len = if pos + header <= block_end then record_len data pos else 0 in
      if len < header || pos + len > block_end then raise (Corrupt (pos / bs))
      else if record_inum data pos = 0 then go (pos + len) acc
      else if header + name_len data pos > len then raise (Corrupt (pos / bs))
      else go (pos + len) (f acc pos)
  in
  go 0 acc

let entries_in bs data =
  List.rev
    (fold_records bs data (fun acc pos -> (record_name data pos, record_inum data pos, record_kind data pos) :: acc) [])

(* The name index of [data]: each name's record offset.  Built from the
   bytes, not from the entry list, which stays unbuilt; a first pass
   counts the records and checks every chain. *)
let index_of bs data =
  let tbl = Hashtbl.create (fold_records bs data (fun n _ -> n + 1) 0) in
  fold_records bs data (fun () pos -> Hashtbl.replace tbl (record_name data pos) pos) ();
  tbl

(* A view of [bytes], which the inode holds in the current epoch; its
   name index is [names], else built on first lookup. *)
let make_view t bytes names =
  { bytes; entries = lazy (entries_in t.bs bytes); names; checked = epoch t }

let view_cost t view = max 1 ((String.length view.bytes + t.bs - 1) / t.bs)

(* The views hold at most twice the blocks the buffer cache holds: a
   working set of files and one of the directories naming them, each as
   large as the cache (at the default capacity, 512 views of a block
   or less).  A full reset when the next view would not fit only costs
   copying the views in use again; a view larger than the bound is not
   kept. *)
let remember t inum view =
  let budget = 2 * Block_cache.capacity t.cache in
  (match Hashtbl.find_opt t.views inum with
   | Some old ->
     Hashtbl.remove t.views inum;
     t.view_blocks <- t.view_blocks - view_cost t old
   | None -> ());
  let cost = view_cost t view in
  if cost <= budget then begin
    if t.view_blocks + cost > budget then begin
      Hashtbl.reset t.views;
      t.view_blocks <- 0
    end;
    Hashtbl.replace t.views inum view;
    t.view_blocks <- t.view_blocks + cost
  end

external string_get64u : string -> int -> int64 = "%caml_string_get64u"
external bytes_get64u : bytes -> int -> int64 = "%caml_bytes_get64u"

(* Top-level loops: local ones would be closures allocated per call. *)
let rec equal_tail s pos b boff n i =
  i >= n
  || (String.unsafe_get s (pos + i) = Bytes.unsafe_get b (boff + i) && equal_tail s pos b boff n (i + 1))

let rec equal_words s pos b boff n i =
  if i + 8 > n then equal_tail s pos b boff n i
  else
    (string_get64u s (pos + i) : int64) = bytes_get64u b (boff + i)
    && equal_words s pos b boff n (i + 8)

(* [s.[pos, pos+n)] equals [b.[boff, boff+n)], compared a word at a time
   without allocating.  The range check up front is what makes the
   unchecked loads safe. *)
let equal_sub s pos b boff n =
  n >= 0 && pos >= 0 && pos + n <= String.length s && boff >= 0 && boff + n <= Bytes.length b
  && equal_words s pos b boff n 0

(* [load_view]'s progress past a view not checked in this epoch: still
   equal to the cached view, or copying. *)
type reading = Same of view | Copy of bytes

(* [inum]'s view, its data read exactly as [read_at] reads it.  A view
   checked in this epoch is the answer as it stands: its walk only
   replays the block accesses, and allocates nothing per block or per
   walk.  Otherwise each block is checked against the cached view in
   place, and only at the first block that differs does it copy: the
   equal prefix from the view, then that block and every later one, so
   a miss reads the same blocks as a hit. *)
let load_view t inum ino =
  let len = ino.i_size in
  match Hashtbl.find_opt t.views inum with
  | Some view when view.checked = epoch t ->
    (match iter_blocks t ino ~off:0 ~len ignore_block with
     | Error e -> Error e
     | Ok () -> Ok view)
  | cached ->
    let state =
      ref
        (match cached with
         | Some view when String.length view.bytes = len -> Same view
         | Some _ | None -> Copy (Bytes.create len))
    in
    let* () =
      iter_blocks t ino ~off:0 ~len (fun pos blk boff chunk ->
          (match !state with
           | Same view when not (equal_sub view.bytes pos blk boff chunk) ->
             let out = Bytes.create len in
             Bytes.blit_string view.bytes 0 out 0 pos;
             state := Copy out
           | Same _ | Copy _ -> ());
          match !state with
          | Copy out -> Bytes.blit blk boff out pos chunk
          | Same _ -> ())
    in
    (match !state with
     | Same view ->
       view.checked <- epoch t;
       Ok view
     | Copy out ->
       let data = Bytes.unsafe_to_string out in
       let view = make_view t data (lazy (index_of t.bs data)) in
       remember t inum view;
       Ok view)

(* What [inum] holds now, as far as it is known without a read: its
   view's bytes when checked in this epoch, else nothing. *)
let known_bytes t inum =
  match Hashtbl.find_opt t.views inum with
  | Some view when view.checked = epoch t -> view.bytes
  | Some _ | None -> ""

(* ------------------------------------------------------------------ *)
(* File read / write / truncate                                        *)

let read_at t ino ~off ~len =
  if off < 0 || len < 0 then Error Errno.EINVAL
  else
    let len = min len (max 0 (ino.i_size - off)) in
    if len = 0 then Ok ""
    else begin
      let out = Bytes.create len in
      let* () =
        iter_blocks t ino ~off ~len (fun pos blk boff chunk -> Bytes.blit blk boff out pos chunk)
      in
      (* [out] is private to this call. *)
      Ok (Bytes.unsafe_to_string out)
    end

(* [b.[off, off+n)] is all zeros. *)
let rec zero_sub b off n = n <= 0 || (Bytes.get b off = '\000' && zero_sub b (off + 1) (n - 1))

(* Before an extension to [upto] makes them part of the file, drop the
   blocks mapped past the end of [ino] and zero the bytes past the end
   in its last block.  There are none unless an unjournaled write cut
   off before its inode write left them (through its indirect block, or
   in the last block), so this reads, and writes only then.  Returns the
   inode without those pointers and the blocks to free once it is
   written. *)
let clear_past_end t ino ~upto =
  let size = ino.i_size in
  if upto <= size then Ok (ino, [||])
  else
    let* ino, freed = unmap_from t ino ~keep:((size + t.bs - 1) / t.bs) in
    let boff = size mod t.bs in
    let n = min (upto - size) (t.bs - boff) in
    let* () =
      if boff = 0 then Ok ()
      else
        let* ind = indirect_block t ino ~last:(size / t.bs) in
        let phys = block_ptr ino ind (size / t.bs) in
        if phys = 0 then Ok ()
        else
          let* b = bread t phys in
          if zero_sub b boff n then Ok ()
          else begin
            let b = Bytes.copy b in
            Bytes.fill b boff n '\000';
            bwrite t phys b
          end
    in
    Ok (ino, freed)

(* The one data writer: the bytes [off, off+len) of [inum], [data] from
   [src] then zeros.  Maps the whole range first ([map_blocks]: bitmap bits set),
   then writes, in file order, every block whose bytes change, then the
   indirect block, and returns the mapping: the caller writes the inode
   last.  Each mapped block is compared in place with what it holds
   now — the view when checked in this epoch, else the block as read —
   and a block that already holds its new bytes is not written.  That
   is safe because the write-through cache mirrors the device (a failed
   write leaves the old bytes cached) and, journaled, reads see the
   staged state, which group commit makes durable in order. *)
let write_blocks t inum ino ~off ~len data ~src =
  let first = off / t.bs in
  let nblocks = if len = 0 then 0 else ((off + len - 1) / t.bs) - first + 1 in
  (* Taken before [map_blocks], whose bitmap writes move the epoch but
     not the file's mapped blocks. *)
  let known = known_bytes t inum in
  let* m = map_blocks t ino (Array.init nblocks (fun i -> first + i)) in
  let rec store i =
    if i >= nblocks then Ok ()
    else
      let fpos = max off ((first + i) * t.bs) in
      let pos = src + fpos - off in
      let boff = fpos mod t.bs in
      let chunk = min (t.bs - boff) (off + len - fpos) in
      let d = max 0 (min chunk (String.length data - pos)) in
      (* [b] holds the chunk's new bytes from [at]: [d] of [data], then zeros. *)
      let holds b at = equal_sub data pos b at d && zero_sub b (at + d) (chunk - d) in
      (* The block's new bytes on [base]: its old bytes for a partial chunk,
         else zeros. *)
      let fill base =
        let buf =
          match base with Some b when chunk < t.bs -> Bytes.copy b | Some _ | None -> Bytes.make t.bs '\000'
        in
        Bytes.blit_string data pos buf boff d;
        Bytes.fill buf (boff + d) (chunk - d) '\000';
        bwrite t m.phys.(i) buf
      in
      let covered = fpos + chunk <= String.length known in
      let* () =
        if m.fresh.(i) then fill None
        else if covered && holds (Bytes.unsafe_of_string known) fpos then Ok ()
        else if covered && chunk = t.bs then fill None
        else
          let* blk = bread t m.phys.(i) in
          if holds blk boff then Ok () else fill (Some blk)
      in
      store (i + 1)
  in
  let* () = store 0 in
  let* () = write_indirect t m in
  Ok m

(* A journaled call is one transaction. *)
let write_at t inum ino ~off data =
  if off < 0 then Error Errno.EINVAL
  else
    let len = String.length data in
    let* ino, freed = clear_past_end t ino ~upto:off in
    let* m = write_blocks t inum ino ~off ~len data ~src:0 in
    let* () = write_ino t inum { m.ino with i_size = max ino.i_size (off + len); i_mtime = t.now () } in
    free_blocks t freed

(* To the current size it changes nothing, not even mtime, as POSIX
   [ftruncate] does: an overwrite that keeps a file's length then costs
   only its data writes and one inode write. *)
let truncate_ino t inum ino len =
  if len < 0 then Error Errno.EINVAL
  else if len = ino.i_size then Ok ()
  else if len > ino.i_size then
    (* Extension: the gap reads back as zeros (sparse or zero-padded). *)
    let* ino, freed = clear_past_end t ino ~upto:len in
    let* () = write_ino t inum { ino with i_size = len; i_mtime = t.now () } in
    free_blocks t freed
  else begin
    let keep = (len + t.bs - 1) / t.bs in
    let* ino, freed = unmap_from t ino ~keep in
    (* Zero the tail of the last kept block so later extension cannot
       resurrect stale bytes. *)
    let* () =
      if len mod t.bs = 0 then Ok ()
      else
        let n = len / t.bs in
        let* ind = indirect_block t ino ~last:n in
        let phys = block_ptr ino ind n in
        if phys = 0 then Ok ()
        else
          let* b = bread_copy t phys in
          Bytes.fill b (len mod t.bs) (t.bs - (len mod t.bs)) '\000';
          bwrite t phys b
    in
    let* () = write_ino t inum { ino with i_size = len; i_mtime = t.now () } in
    free_blocks t freed
  end

let free_inode t inum ino =
  let* _, freed = unmap_from t ino ~keep:0 in
  (* Keep the generation in the dead slot so reallocation bumps it. *)
  let* () = write_ino t inum { empty_ino with i_gen = ino.i_gen } in
  let* () = free_blocks t freed in
  set_bits t ~start:t.sb.ibitmap_start [| inum |] false

(* ------------------------------------------------------------------ *)
(* Directories                                                         *)

let valid_name name =
  let len = String.length name in
  len > 0 && len <= max_name && not (String.contains name '/')

(* A directory's inode and view; [EIO] when a block's record chain does
   not end at its end.  The name index is built here, which checks every
   chain, so [names] below never raises. *)
let load_dir t inum =
  match read_live_ino t inum with
  | Error _ as e -> e
  | Ok ino when ino.i_kind <> 2 -> Error Errno.ENOTDIR
  | Ok ino ->
    (match load_view t inum ino with
     | Error e -> Error e
     | Ok view ->
       (match Lazy.force view.names with
        | _ -> Ok (ino, view)
        | exception Corrupt _ -> Error Errno.EIO))

let names view = Lazy.force view.names
let entries_of view = Lazy.force view.entries
let has_name view name = Hashtbl.mem (names view) name

(* One change to a directory's entries, each naming one record. *)
type edit =
  | Append of string * inum * kind  (* a name the directory lacks *)
  | Drop of string
  | Rename of string * string  (* the first name's record takes the second, a name the directory lacks *)
  | Retarget of string * string * inum * kind
      (* the second name's record takes this inode and kind in place and
         the first name's record goes: a rename over an existing name;
         with both names equal, only the retarget *)

(* Write a record of length [len] at [pos] of [b]. *)
let put_record b pos len name inum kind =
  Codec.set_u32 b pos inum;
  Codec.set_u16 b (pos + 4) len;
  Codec.set_u8 b (pos + 6) (match kind with Reg -> 1 | Dir -> 2);
  Codec.set_u8 b (pos + 7) (String.length name);
  Bytes.blit_string name 0 b (pos + header) (String.length name)

(* The first record of [data] from [pos] on with [need] bytes to spare: a
   free record at least that long, or a live one with that much slack;
   the end of [data] if there is none. *)
let rec find_slot data need pos =
  if pos >= String.length data then pos
  else
    let len = record_len data pos in
    let used = if record_inum data pos = 0 then 0 else header + name_len data pos in
    if len - used >= need then pos else find_slot data need (pos + len)

(* Free the record at [pos] of [b]: a block's first record becomes free
   space, any other merges into the record before it.  Returns the
   offset of the record it changed. *)
let free_record bs b pos =
  if pos mod bs = 0 then begin
    Codec.set_u32 b pos 0;
    pos
  end
  else
    let rec prev p =
      let next = p + Codec.get_u16 b (p + 4) in
      if next = pos then p else prev next
    in
    let p = prev (pos - (pos mod bs)) in
    Codec.set_u16 b (p + 4) (Codec.get_u16 b (p + 4) + Codec.get_u16 b (pos + 4));
    p

(* Apply [edit] to directory [inum], whose inode and view [load_dir] has
   just returned.  The edit changes the records it names where they
   stand, in at most two blocks, and the one data writer writes each
   block that changed, then the inode is written.  An entry that fits
   in no record takes a new block, so a directory grows by whole blocks
   and keeps them until it goes.  Unjournaled, each block write leaves
   whole records, so a cut loses no name, and a name's new record is
   written before its old one goes: a retarget writes the target's
   block before the source's, wherever first fit put the source's
   record, and a rename whose new name does not fit its record appends
   the new name and then drops the old one, two stores.  A cut between
   the two leaves the object under both names.  The bytes written
   are exactly what the next read returns, so they seed the view, which
   takes the old view's name index edited in place: only once the store
   is done, so a failed store leaves the old view as it was, and no
   caller reads the old view again. *)
let rec store_dir t inum ino view edit =
  let data = view.bytes and index = names view in
  match edit with
  | Rename (s, d) when header + String.length d > record_len data (Hashtbl.find index s) ->
    let pos = Hashtbl.find index s in
    let* () = store_dir t inum ino view (Append (d, record_inum data pos, record_kind data pos)) in
    let* ino, view = load_dir t inum in
    store_dir t inum ino view (Drop s)
  | _ ->
    let n = String.length data in
    let slot = match edit with Append (name, _, _) -> find_slot data (header + String.length name) 0 | _ -> -1 in
    let len = if slot = n then n + t.bs else n in
    let b = Bytes.make len '\000' in
    Bytes.blit_string data 0 b 0 n;
    (* A new block is one free record. *)
    if slot = n then Codec.set_u16 b (n + 4) t.bs;
    (* The changed records' offsets, the one a name moves to first, and
       where each name now stands. *)
    let changed, moves =
      match edit with
      | Append (name, child, kind) ->
        let rlen = Codec.get_u16 b (slot + 4) in
        let used = if Codec.get_u32 b slot = 0 then 0 else header + Codec.get_u8 b (slot + 7) in
        if used > 0 then Codec.set_u16 b (slot + 4) used;
        put_record b (slot + used) (rlen - used) name child kind;
        ([ slot ], [ (name, Some (slot + used)) ])
      | Drop name -> ([ free_record t.bs b (Hashtbl.find index name) ], [ (name, None) ])
      | Rename (s, d) ->
        let pos = Hashtbl.find index s in
        put_record b pos (record_len data pos) d (record_inum data pos) (record_kind data pos);
        ([ pos ], [ (s, None); (d, Some pos) ])
      | Retarget (s, d, child, kind) ->
        let pos = Hashtbl.find index d in
        put_record b pos (record_len data pos) d child kind;
        if s = d then ([ pos ], [])
        else ([ pos; free_record t.bs b (Hashtbl.find index s) ], [ (s, None) ])
    in
    let data = Bytes.unsafe_to_string b in
    let rec write_each ino = function
      | [] -> Ok ino
      | pos :: rest ->
        let off = pos / t.bs * t.bs in
        let* m = write_blocks t inum ino ~off ~len:t.bs data ~src:off in
        write_each m.ino rest
    in
    let* ino = write_each ino changed in
    let* () = write_ino t inum { ino with i_size = len; i_mtime = t.now () } in
    List.iter
      (fun (name, pos) -> match pos with Some pos -> Hashtbl.replace index name pos | None -> Hashtbl.remove index name)
      moves;
    remember t inum (make_view t data view.names);
    Ok ()

(* Load directory [dir] and apply [edit]: its callers have just looked
   up the names it changes. *)
let edit_dir t dir edit =
  let* ino, view = load_dir t dir in
  store_dir t dir ino view edit

let dir_entries t inum =
  let* _ino, view = load_dir t inum in
  Ok (entries_of view)

(* Matches rather than [let*], and no option: this is the cached walk
   every name resolution takes. *)
let dir_lookup t inum name =
  match load_dir t inum with
  | Error _ as e -> e
  | Ok (_, view) ->
    (match Hashtbl.find (names view) name with
     | pos -> Ok (record_inum view.bytes pos)
     | exception Not_found -> Error Errno.ENOENT)

let parse_dir t data = match entries_in t.bs data with entries -> Ok entries | exception Corrupt _ -> Error Errno.EIO

let dir_image t inum =
  let* _ino, view = load_dir t inum in
  Ok view.bytes

let dir_index t inum =
  let* _ino, view = load_dir t inum in
  Ok (List.sort compare (Hashtbl.fold (fun name pos acc -> (name, record_inum view.bytes pos) :: acc) (names view) []))

(* ------------------------------------------------------------------ *)
(* Public attribute operations                                         *)

let stat t inum =
  let* ino = read_live_ino t inum in
  Ok
    {
      kind = (if ino.i_kind = 2 then Dir else Reg);
      size = ino.i_size;
      nlink = ino.i_nlink;
      mtime = ino.i_mtime;
      mode = ino.i_mode;
      uid = ino.i_uid;
      gen = ino.i_gen;
    }

let set_mode t inum mode =
  with_txn t @@ fun () ->
  let* ino = read_live_ino t inum in
  write_ino t inum { ino with i_mode = mode land 0xffff }

let set_uid t inum uid =
  with_txn t @@ fun () ->
  let* ino = read_live_ino t inum in
  write_ino t inum { ino with i_uid = uid land 0xffff }

let set_mtime t inum mtime =
  with_txn t @@ fun () ->
  let* ino = read_live_ino t inum in
  write_ino t inum { ino with i_mtime = mtime }

(* A whole-file read returns the inode's view: in an unchanged epoch,
   or when every block still equals it, the very string an earlier read
   returned. *)
let read t inum ~off ~len =
  let* ino = read_live_ino t inum in
  if ino.i_kind = 2 then Error Errno.EISDIR
  else if off <> 0 || len < ino.i_size then read_at t ino ~off ~len
  else
    let* view = load_view t inum ino in
    Ok view.bytes

let write t inum ~off data =
  with_txn t @@ fun () ->
  let* ino = read_live_ino t inum in
  if ino.i_kind = 2 then Error Errno.EISDIR else write_at t inum ino ~off data

let truncate t inum len =
  with_txn t @@ fun () ->
  let* ino = read_live_ino t inum in
  if ino.i_kind = 2 then Error Errno.EISDIR else truncate_ino t inum ino len

(* ------------------------------------------------------------------ *)
(* Namespace operations                                                *)

let add_entry t dir name child kind =
  if not (valid_name name) then
    Error (if String.length name > max_name then Errno.ENAMETOOLONG else Errno.EINVAL)
  else
    let* ino, view = load_dir t dir in
    if has_name view name then Error Errno.EEXIST else store_dir t dir ino view (Append (name, child, kind))

(* [create] and [mkdir]: the name is checked before an inode is
   allocated. *)
let make_node t ~dir name kind ~mode =
  with_txn t @@ fun () ->
  let* _ino, view = load_dir t dir in
  if has_name view name then Error Errno.EEXIST
  else
    let* inum = alloc_inode t ~kind ~mode ~uid:0 in
    let* () = add_entry t dir name inum kind in
    Ok inum

let create t ~dir name = make_node t ~dir name Reg ~mode:0o644
let mkdir t ~dir name = make_node t ~dir name Dir ~mode:0o755

let link t ~dir name target =
  with_txn t @@ fun () ->
  let* ino = read_live_ino t target in
  if ino.i_nlink >= 0xffff then Error Errno.EMLINK
  else
    let* () = add_entry t dir name target (if ino.i_kind = 2 then Dir else Reg) in
    write_ino t target { ino with i_nlink = ino.i_nlink + 1 }

let drop_link t inum =
  let* ino = read_live_ino t inum in
  let nlink = ino.i_nlink - 1 in
  if nlink <= 0 then free_inode t inum ino
  else write_ino t inum { ino with i_nlink = nlink }

let unlink t ~dir name =
  with_txn t @@ fun () ->
  let* child = dir_lookup t dir name in
  let* ino = read_live_ino t child in
  if ino.i_kind = 2 then Error Errno.EISDIR
  else
    let* () = edit_dir t dir (Drop name) in
    drop_link t child

let rmdir t ~dir name =
  with_txn t @@ fun () ->
  let* child = dir_lookup t dir name in
  let* ino = read_live_ino t child in
  if ino.i_kind <> 2 then Error Errno.ENOTDIR
  else
    let* _ino, view = load_dir t child in
    if ino.i_nlink <= 1 && entries_of view <> [] then Error Errno.ENOTEMPTY
    else
      let* () = edit_dir t dir (Drop name) in
      drop_link t child

(* Check that replacing [d] (the existing destination) is legal, without
   yet touching anything. *)
let check_replaceable t ~src_is_dir d =
  let* dst_ino = read_live_ino t d in
  let dst_is_dir = dst_ino.i_kind = 2 in
  match src_is_dir, dst_is_dir with
  | true, false -> Error Errno.ENOTDIR
  | false, true -> Error Errno.EISDIR
  | true, true ->
    let* _ino, view = load_dir t d in
    if dst_ino.i_nlink <= 1 && entries_of view <> [] then Error Errno.ENOTEMPTY else Ok ()
  | false, false -> Ok ()

(* [target] is directory [dir] or lies under it: a walk down the
   subdirectories, each visited once ([seen]; directories may be linked
   into a DAG).  An entry that names no directory leads nowhere. *)
let rec reaches t seen dir target =
  if dir = target then Ok true
  else if Hashtbl.mem seen dir then Ok false
  else begin
    Hashtbl.replace seen dir ();
    match load_dir t dir with
    | Error (Errno.ENOTDIR | Errno.ESTALE | Errno.EINVAL) -> Ok false
    | Error _ as e -> e
    | Ok (_, view) ->
      let rec any = function
        | [] -> Ok false
        | (_, child, Dir) :: rest ->
          let* found = reaches t seen child target in
          if found then Ok true else any rest
        | (_, _, Reg) :: rest -> any rest
      in
      any (entries_of view)
  end

(* Journaled, the whole rename is one transaction.  Unjournaled, its
   writes are ordered so that a cut never loses the object: within one
   directory the name changes in one record, and across directories the
   destination entry is written before the source entry goes.  The
   replaced inode is released last, so a cut before that leaks it (or
   leaves two names on the object) but every name resolves to a
   complete version. *)
let rename t ~sdir ~sname ~ddir ~dname =
  with_txn t @@ fun () ->
  if not (valid_name dname) then Error Errno.EINVAL
  else
    let* src = dir_lookup t sdir sname in
    let* src_ino = read_live_ino t src in
    let src_is_dir = src_ino.i_kind = 2 in
    let src_kind = if src_is_dir then Dir else Reg in
    let* dst_existing =
      match dir_lookup t ddir dname with
      | Ok d -> Ok (Some d)
      | Error Errno.ENOENT -> Ok None
      | Error _ as e -> e
    in
    let replace = dst_existing <> None in
    let release () = match dst_existing with Some d -> drop_link t d | None -> Ok () in
    match dst_existing with
    | Some d when d = src ->
      (* Same object under both names: POSIX says do nothing. *)
      Ok ()
    | _ ->
      let* () = Option.fold ~none:(Ok ()) ~some:(check_replaceable t ~src_is_dir) dst_existing in
      if sdir = ddir then
        (* Over an existing name, this is the commit point of the
           shadow-file protocol: one record retargets the name in place,
           and the source's record (a new shadow's) goes. *)
        let* () =
          edit_dir t sdir (if replace then Retarget (sname, dname, src, src_kind) else Rename (sname, dname))
        in
        release ()
      else
        (* A directory cannot move under itself: its subtree would leave
           the tree. *)
        let* inside = if src_is_dir then reaches t (Hashtbl.create 16) src ddir else Ok false in
        if inside then Error Errno.EINVAL
        else
          let* () =
            if replace then edit_dir t ddir (Retarget (dname, dname, src, src_kind))
            else add_entry t ddir dname src src_kind
          in
          let* () = edit_dir t sdir (Drop sname) in
          release ()

(* ------------------------------------------------------------------ *)
(* Maintenance                                                         *)


let sync t =
  match t.journal with
  | None -> Ok () (* write-through: every completed op is already on disk *)
  | Some j ->
    (* Force the group commit (every committed transaction becomes
       durable) and checkpoint (logged blocks go home, log empties). *)
    Journal.checkpoint j

let journal_tick t =
  match t.journal with None -> Ok () | Some j -> Journal.tick j

let journal_pending t =
  match t.journal with None -> false | Some j -> Journal.pending j

let journal_stats t =
  match t.journal with None -> [] | Some j -> Journal.stats j

let crash_reboot t =
  (* Power-failure semantics: the buffer cache and every journal
     structure that lives in memory are lost; whatever reached the
     device survives.  Replay then restores the last sealed group
     commit, exactly as a fresh [mount] would.  Dropping the cache moves
     the write epoch. *)
  Block_cache.invalidate t.cache;
  match t.journal with
  | None -> Ok ()
  | Some j ->
    Journal.crash j;
    let* (_applied : int) = Journal.recover j in
    Ok ()

(* ------------------------------------------------------------------ *)
(* fsck                                                                *)

let check t =
  (* Walk the namespace from the root, counting references and reachable
     blocks, and compare against the bitmaps and stored link counts. *)
  let refcount = Hashtbl.create 64 in
  let bump inum = Hashtbl.replace refcount inum (1 + Option.value ~default:0 (Hashtbl.find_opt refcount inum)) in
  let reachable_blocks = Hashtbl.create 64 in
  let visited = Hashtbl.create 64 in
  let problems = ref [] in
  let complain fmt = Format.kasprintf (fun s -> problems := s :: !problems) fmt in
  let note_blocks ino =
    let last = max_file_blocks t - 1 in
    if ino.i_indirect <> 0 then Hashtbl.replace reachable_blocks ino.i_indirect ();
    match indirect_block t ino ~last with
    | Error _ -> complain "unreadable indirect block %d" ino.i_indirect
    | Ok ind ->
      for n = 0 to last do
        let p = block_ptr ino ind n in
        if p <> 0 then Hashtbl.replace reachable_blocks p ()
      done
  in
  let rec walk inum =
    if not (Hashtbl.mem visited inum) then begin
      Hashtbl.replace visited inum ();
      match read_ino t inum with
      | Error _ -> complain "unreadable inode %d" inum
      | Ok ino ->
        if ino.i_kind = 0 then complain "reference to free inode %d" inum
        else begin
          note_blocks ino;
          if ino.i_kind = 2 then
            match load_view t inum ino with
            | Error _ -> complain "unreadable directory %d" inum
            | Ok view ->
              (match entries_of view with
               | entries ->
                 List.iter
                   (fun (_, child, _) ->
                     bump child;
                     walk child)
                   entries
               | exception Corrupt blk ->
                 complain "directory %d: the records of its block %d do not end at the block's end" inum blk)
        end
    end
  in
  bump 1;
  walk 1;
  (* Link counts. *)
  Hashtbl.iter
    (fun inum refs ->
      match read_ino t inum with
      | Error _ -> ()
      | Ok ino ->
        if ino.i_kind <> 0 && ino.i_nlink <> refs then
          complain "inode %d: nlink=%d but %d references" inum ino.i_nlink refs)
    refcount;
  (* Each bitmap, read once, against reachability: [used.(i)] is bit [i]. *)
  let bitmap what clear limit =
    match clear limit with
    | Error _ ->
      complain "unreadable %s bitmap" what;
      None
    | Ok clear ->
      let used = Array.make limit true in
      Array.iter (fun i -> used.(i) <- false) clear;
      Some used
  in
  Option.iter
    (fun used ->
      for inum = 1 to t.sb.ninodes do
        let reachable = Hashtbl.mem visited inum in
        if used.(inum) && not reachable then complain "inode %d allocated but unreachable" inum
        else if (not used.(inum)) && reachable then complain "inode %d reachable but free" inum
      done)
    (bitmap "inode" (free_inode_bits t) (t.sb.ninodes + 1));
  (* Metadata blocks are always used, and so is the journal region at
     the tail of the disk. *)
  Option.iter
    (fun used ->
      for blk = t.sb.data_start to t.sb.journal_start - 1 do
        let reachable = Hashtbl.mem reachable_blocks blk in
        if used.(blk) && not reachable then complain "block %d allocated but unreferenced" blk
        else if (not used.(blk)) && reachable then complain "block %d referenced but free" blk
      done)
    (bitmap "block" (free_block_bits t) t.sb.nblocks);
  match !problems with
  | [] -> Ok ()
  | ps -> Error (String.concat "; " (List.rev ps))
