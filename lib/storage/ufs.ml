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

(* A directory as last parsed: the data bytes it was parsed from, its
   entries in on-disk order, and a name index built on first lookup.  A
   pure function of [bytes]; [checked] is the write epoch (see [epoch])
   at which [bytes] last equalled the directory's data. *)
type dir_view = {
  bytes : string;
  entries : (string * inum * kind) list;
  names : (string, inum) Hashtbl.t Lazy.t;  (* first entry of each name *)
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
  (* Decoded inodes and whole-file reads, valid for the epoch [cached_at]
     and dropped as soon as it moves.  A hit still makes every block
     access the uncached read makes, so the buffer cache, the journal
     and the device see exactly the same traffic; only the decoding and
     copying go.  The files' bytes are capped at what the buffer cache
     itself can hold.  An inode is kept as its read's result, so a hit
     allocates nothing. *)
  mutable cached_at : int;
  inos : (inum, (ino, Errno.t) result) Hashtbl.t;
  files : (inum, string) Hashtbl.t;
  mutable file_bytes : int;
  file_budget : int;
  (* Parsed directories by inode.  A view checked in the current epoch
     is reused after replaying its block reads; otherwise every data
     block read is compared in place with the view's bytes and the view
     is reused only when all of them are equal, so it can never be stale
     — not after a crash, a journal abort or a failed write — and
     nothing here changes which blocks are read or written. *)
  dirs : (inum, dir_view) Hashtbl.t;
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
       (match Journal.commit_txn j with
        | Ok () -> r
        | Error _ as e ->
          (* The flush failed on the device; the staged writes stay in
             memory for a later retry, but this caller sees the error. *)
          e)
     | Error _ as e ->
       t.writes <- t.writes + 1;
       Journal.abort_txn j;
       e)

(* The write epoch: both counts only grow, so an unchanged sum means
   neither moved. *)
let epoch t = t.writes + Block_cache.version t.cache

(* Drop the decoded inodes and whole-file reads once the epoch moves. *)
let sync_epoch t =
  let now = epoch t in
  if t.cached_at <> now then begin
    t.cached_at <- now;
    Hashtbl.reset t.inos;
    Hashtbl.reset t.files;
    t.file_bytes <- 0
  end

(* ------------------------------------------------------------------ *)
(* Bitmaps                                                             *)

let bit_test t ~start bit =
  let bits_per_block = t.bs * 8 in
  let* b = bread t (start + (bit / bits_per_block)) in
  let byte = Codec.get_u8 b (bit mod bits_per_block / 8) in
  Ok (byte land (1 lsl (bit mod 8)) <> 0)

let bit_update t ~start bit value =
  let bits_per_block = t.bs * 8 in
  let blk = start + (bit / bits_per_block) in
  let* b = bread_copy t blk in
  let idx = bit mod bits_per_block / 8 in
  let mask = 1 lsl (bit mod 8) in
  let byte = Codec.get_u8 b idx in
  let byte = if value then byte lor mask else byte land lnot mask in
  Codec.set_u8 b idx byte;
  bwrite t blk b

(* First clear bit below [limit], or ENOSPC-style [None]. *)
let bit_find_clear t ~start ~nbitmap_blocks ~limit =
  let bits_per_block = t.bs * 8 in
  let rec scan_block bi =
    if bi >= nbitmap_blocks then Ok None
    else
      let* b = bread t (start + bi) in
      let base = bi * bits_per_block in
      let rec scan_byte i =
        if i >= t.bs then scan_block (bi + 1)
        else
          let byte = Codec.get_u8 b i in
          if byte = 0xff then scan_byte (i + 1)
          else
            let rec scan_bit j =
              if j >= 8 then scan_byte (i + 1)
              else
                let bit = base + (i * 8) + j in
                if bit >= limit then Ok None
                else if byte land (1 lsl j) = 0 then Ok (Some bit)
                else scan_bit (j + 1)
            in
            scan_bit 0
      in
      scan_byte 0
  in
  scan_block 0

let count_clear_bits t ~start ~nbitmap_blocks ~limit =
  let bits_per_block = t.bs * 8 in
  let rec go bi acc =
    if bi >= nbitmap_blocks then Ok acc
    else
      let* b = bread t (start + bi) in
      let base = bi * bits_per_block in
      let acc = ref acc in
      for i = 0 to t.bs - 1 do
        let byte = Codec.get_u8 b i in
        for j = 0 to 7 do
          let bit = base + (i * 8) + j in
          if bit < limit && byte land (1 lsl j) = 0 then incr acc
        done
      done;
      go (bi + 1) !acc
  in
  go 0 0

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
    files = Hashtbl.create 16; file_bytes = 0; file_budget = Block_cache.capacity cache * bs;
    dirs = Hashtbl.create 64 }

let mkfs ?cache_capacity ?ninodes ?(inode_size = default_inode_size)
    ?(journal_blocks = 0) ?journal_flush_blocks ?journal_flush_age ~now disk =
  let bs = Disk.block_size disk in
  if bs < 512 || inode_size < default_inode_size || bs mod inode_size <> 0
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
      (* Reserve inode 0 and all metadata blocks. *)
      let* () = bit_update t ~start:sb.ibitmap_start 0 true in
      let rec mark blk =
        if blk >= sb.data_start then Ok ()
        else
          let* () = bit_update t ~start:sb.bbitmap_start blk true in
          mark (blk + 1)
      in
      let* () = mark 0 in
      (* Reserve the journal region so the allocator never hands it out. *)
      let rec mark_journal blk =
        if blk >= nblocks then Ok ()
        else
          let* () = bit_update t ~start:sb.bbitmap_start blk true in
          mark_journal (blk + 1)
      in
      let* () = mark_journal sb.journal_start in
      (* Root directory: inode 1, empty. *)
      let* () = bit_update t ~start:sb.ibitmap_start 1 true in
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

let nfree_blocks t =
  count_clear_bits t ~start:t.sb.bbitmap_start ~nbitmap_blocks:t.sb.bbitmap_blocks
    ~limit:t.sb.nblocks

(* ------------------------------------------------------------------ *)
(* Allocation                                                          *)

let alloc_block t =
  let* found =
    bit_find_clear t ~start:t.sb.bbitmap_start ~nbitmap_blocks:t.sb.bbitmap_blocks
      ~limit:t.sb.nblocks
  in
  match found with
  | None -> Error Errno.ENOSPC
  | Some blk ->
    let* () = bit_update t ~start:t.sb.bbitmap_start blk true in
    Ok blk

let free_block t blk =
  if blk = 0 then Ok () else bit_update t ~start:t.sb.bbitmap_start blk false

let alloc_inode t ~kind ~mode ~uid =
  let* found =
    bit_find_clear t ~start:t.sb.ibitmap_start ~nbitmap_blocks:t.sb.ibitmap_blocks
      ~limit:(t.sb.ninodes + 1)
  in
  match found with
  | None -> Error Errno.ENFILE
  | Some inum ->
    let* () = bit_update t ~start:t.sb.ibitmap_start inum true in
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

let ptrs_per_block t = t.bs / 4

let max_file_blocks t = ndirect + ptrs_per_block t

(* Physical block for file block [n], or 0 if unmapped. *)
let bmap t ino n =
  if n < ndirect then Ok ino.i_direct.(n)
  else if n >= max_file_blocks t then Error Errno.EFBIG
  else if ino.i_indirect = 0 then Ok 0
  else
    let* b = bread t ino.i_indirect in
    Ok (Codec.get_u32 b (4 * (n - ndirect)))

(* Ensure file block [n] is mapped, allocating as needed.  Returns the
   physical block and the (possibly updated) inode. *)
let bmap_alloc t ino n =
  if n >= max_file_blocks t then Error Errno.EFBIG
  else if n < ndirect then
    if ino.i_direct.(n) <> 0 then Ok (ino.i_direct.(n), ino)
    else
      let* blk = alloc_block t in
      let direct = Array.copy ino.i_direct in
      direct.(n) <- blk;
      Ok (blk, { ino with i_direct = direct })
  else
    let* indirect, ino =
      if ino.i_indirect <> 0 then Ok (ino.i_indirect, ino)
      else
        let* blk = alloc_block t in
        let* () = bwrite t blk (Bytes.make t.bs '\000') in
        Ok (blk, { ino with i_indirect = blk })
    in
    let* b = bread_copy t indirect in
    let slot = 4 * (n - ndirect) in
    let existing = Codec.get_u32 b slot in
    if existing <> 0 then Ok (existing, ino)
    else
      let* blk = alloc_block t in
      Codec.set_u32 b slot blk;
      let* () = bwrite t indirect b in
      Ok (blk, ino)

(* ------------------------------------------------------------------ *)
(* File read / write / truncate                                        *)

(* File block [n]'s bytes: the cached block itself, shared, or a fresh
   zero block for a hole.  The same block reads as [bmap] then [bread],
   without the intermediate result, so a cached block costs no
   allocation. *)
let phys_block t phys = if phys = 0 then Ok (Bytes.make t.bs '\000') else bread t phys

let file_block t ino n =
  if n < ndirect then phys_block t ino.i_direct.(n)
  else if n >= max_file_blocks t then Error Errno.EFBIG
  else if ino.i_indirect = 0 then phys_block t 0
  else
    match bread t ino.i_indirect with
    | Error _ as e -> e
    | Ok b -> phys_block t (Codec.get_u32 b (4 * (n - ndirect)))

(* Visit the file bytes [off, off+len) block by block, in order, as
   [f pos blk boff chunk]: [chunk] bytes at offset [pos] of the range are
   [blk]'s bytes from [boff].  The chunks tile the range, so a buffer
   they are copied into needs no initialising.  [blk] is the cached block
   itself, shared, so [f] must not mutate it; a hole reads as a fresh
   zero block.
   Matches rather than [let*], and a top-level loop rather than a local
   one: a bind's continuation would be a closure allocated per block, a
   local loop one per walk. *)
let rec iter_blocks_from t ino ~off ~len f pos =
  if pos >= len then Ok ()
  else
    let fpos = off + pos in
    let fblk = fpos / t.bs in
    let boff = fpos mod t.bs in
    let chunk = min (t.bs - boff) (len - pos) in
    match file_block t ino fblk with
    | Error e -> Error e
    | Ok blk ->
      f pos blk boff chunk;
      iter_blocks_from t ino ~off ~len f (pos + chunk)

let iter_blocks t ino ~off ~len f = iter_blocks_from t ino ~off ~len f 0

(* A replay: the block accesses of a read whose bytes are already known. *)
let ignore_block _ _ _ _ = ()

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

let write_at t inum ino ~off data =
  if off < 0 then Error Errno.EINVAL
  else begin
    let len = String.length data in
    let rec store ino pos =
      if pos >= len then Ok ino
      else
        let fpos = off + pos in
        let fblk = fpos / t.bs in
        let boff = fpos mod t.bs in
        let chunk = min (t.bs - boff) (len - pos) in
        let* was_mapped = bmap t ino fblk in
        let* phys, ino = bmap_alloc t ino fblk in
        let* buf =
          if chunk = t.bs || was_mapped = 0 then Ok (Bytes.make t.bs '\000')
          else bread_copy t phys
        in
        Bytes.blit_string data pos buf boff chunk;
        let* () = bwrite t phys buf in
        store ino (pos + chunk)
    in
    let* ino = store ino 0 in
    let ino = { ino with i_size = max ino.i_size (off + len); i_mtime = t.now () } in
    let* () = write_ino t inum ino in
    Ok ()
  end

(* Free all blocks at file-block index >= [keep]. *)
let free_blocks_from t ino ~keep =
  let rec free_direct n direct =
    if n >= ndirect then Ok direct
    else if n < keep || direct.(n) = 0 then free_direct (n + 1) direct
    else
      let* () = free_block t direct.(n) in
      direct.(n) <- 0;
      free_direct (n + 1) direct
  in
  let* direct = free_direct 0 (Array.copy ino.i_direct) in
  if ino.i_indirect = 0 then Ok { ino with i_direct = direct }
  else
    let* b = bread_copy t ino.i_indirect in
    let nptrs = ptrs_per_block t in
    let rec free_ind i any_kept =
      if i >= nptrs then Ok any_kept
      else
        let ptr = Codec.get_u32 b (4 * i) in
        if ndirect + i < keep then free_ind (i + 1) (any_kept || ptr <> 0)
        else if ptr = 0 then free_ind (i + 1) any_kept
        else
          let* () = free_block t ptr in
          Codec.set_u32 b (4 * i) 0;
          free_ind (i + 1) any_kept
    in
    let* any_kept = free_ind 0 false in
    if any_kept then
      let* () = bwrite t ino.i_indirect b in
      Ok { ino with i_direct = direct }
    else
      let* () = free_block t ino.i_indirect in
      Ok { ino with i_direct = direct; i_indirect = 0 }

(* To the current size it changes nothing, not even mtime, as POSIX
   [ftruncate] does: an overwrite that keeps a file's length then costs
   only its data writes and one inode write. *)
let truncate_ino t inum ino len =
  if len < 0 then Error Errno.EINVAL
  else if len = ino.i_size then Ok ()
  else if len > ino.i_size then
    (* Extension: the gap reads back as zeros (sparse or zero-padded). *)
    write_ino t inum { ino with i_size = len; i_mtime = t.now () }
  else begin
    let keep = (len + t.bs - 1) / t.bs in
    let* ino = free_blocks_from t ino ~keep in
    (* Zero the tail of the last kept block so later extension cannot
       resurrect stale bytes. *)
    let* () =
      if len mod t.bs = 0 then Ok ()
      else
        let* phys = bmap t ino (len / t.bs) in
        if phys = 0 then Ok ()
        else
          let* b = bread_copy t phys in
          Bytes.fill b (len mod t.bs) (t.bs - (len mod t.bs)) '\000';
          bwrite t phys b
    in
    write_ino t inum { ino with i_size = len; i_mtime = t.now () }
  end

let free_inode t inum ino =
  let* _ino = free_blocks_from t ino ~keep:0 in
  (* Keep the generation in the dead slot so reallocation bumps it. *)
  let* () = write_ino t inum { empty_ino with i_gen = ino.i_gen } in
  bit_update t ~start:t.sb.ibitmap_start inum false

(* ------------------------------------------------------------------ *)
(* Directories                                                         *)

(* Directory data is a packed entry list:
   u32 inum, u8 kind, u8 namelen, name bytes. *)

(* Directory data ends at a zero-inum terminator record (or at the data
   size).  The terminator makes in-place rewrites crash-safe: new content
   plus terminator is written first, and any stale tail bytes or a stale
   (larger) size field are simply never parsed. *)
let parse_dir data =
  let n = String.length data in
  let rec go pos acc =
    if pos + 6 > n then List.rev acc
    else begin
      let inum =
        Char.code data.[pos]
        lor (Char.code data.[pos + 1] lsl 8)
        lor (Char.code data.[pos + 2] lsl 16)
        lor (Char.code data.[pos + 3] lsl 24)
      in
      if inum = 0 then List.rev acc
      else begin
        let kind = if Char.code data.[pos + 4] = 2 then Dir else Reg in
        let namelen = Char.code data.[pos + 5] in
        if pos + 6 + namelen > n then
          (* Torn suffix: a crash cut off a record that was being
             appended.  Everything before it is intact. *)
          List.rev acc
        else
          let name = String.sub data (pos + 6) namelen in
          go (pos + 6 + namelen) ((name, inum, kind) :: acc)
      end
    end
  in
  go 0 []

let serialize_dir entries =
  let size = List.fold_left (fun n (name, _, _) -> n + 6 + String.length name) 6 entries in
  let b = Bytes.make size '\000' in
  let emit pos (name, inum, kind) =
    let len = String.length name in
    Codec.set_u32 b pos inum;
    Codec.set_u8 b (pos + 4) (match kind with Reg -> 1 | Dir -> 2);
    Codec.set_u8 b (pos + 5) len;
    Bytes.blit_string name 0 b (pos + 6) len;
    pos + 6 + len
  in
  (* The last 6 bytes stay zero: the terminator. *)
  ignore (List.fold_left emit 0 entries : int);
  Bytes.unsafe_to_string b

let valid_name name =
  let len = String.length name in
  len > 0 && len <= max_name && not (String.contains name '/')

(* A view of [bytes], which the directory holds in the current epoch;
   its name index is [names] when the caller has it, else built on
   first lookup. *)
let dir_view ?names t bytes entries =
  let names =
    match names with
    | Some tbl -> Lazy.from_val tbl
    | None ->
      lazy
        (let tbl = Hashtbl.create (List.length entries) in
         List.iter
           (fun (n, inum, _) -> if not (Hashtbl.mem tbl n) then Hashtbl.replace tbl n inum)
           entries;
         tbl)
  in
  { bytes; entries; names; checked = epoch t }

(* Bounded: a full reset on overflow only costs re-parsing the
   directories in use. *)
let dirs_cap = 512

let remember_dir t inum view =
  if Hashtbl.length t.dirs >= dirs_cap && not (Hashtbl.mem t.dirs inum) then Hashtbl.reset t.dirs;
  Hashtbl.replace t.dirs inum view

external string_get64u : string -> int -> int64 = "%caml_string_get64u"
external bytes_get64u : bytes -> int -> int64 = "%caml_bytes_get64u"

(* [s.[pos, pos+n)] equals [b.[boff, boff+n)], compared a word at a time
   without allocating.  The range check up front is what makes the
   unchecked loads safe. *)
let equal_sub s pos b boff n =
  n >= 0 && pos >= 0 && pos + n <= String.length s && boff >= 0 && boff + n <= Bytes.length b
  &&
  let rec tail i =
    i >= n || (String.unsafe_get s (pos + i) = Bytes.unsafe_get b (boff + i) && tail (i + 1))
  in
  let rec words i =
    if i + 8 > n then tail i
    else (string_get64u s (pos + i) : int64) = bytes_get64u b (boff + i) && words (i + 8)
  in
  words 0

(* [load_dir]'s progress past a view not checked in this epoch: still
   equal to the cached view, or copying. *)
type reading = Same of dir_view | Copy of bytes

(* Reads the directory's blocks exactly as [read_at] would.  A view
   checked in this epoch is the answer as it stands: its walk only
   replays the block accesses, and allocates nothing per block or per
   walk.  Otherwise each block is checked against the cached view in
   place, and only at the first block that differs does it copy: the
   equal prefix from the view, then that block and every later one, so
   a miss reads the same blocks as a hit. *)
let load_dir t inum =
  match read_live_ino t inum with
  | Error _ as e -> e
  | Ok ino when ino.i_kind <> 2 -> Error Errno.ENOTDIR
  | Ok ino ->
    let len = ino.i_size in
    (match Hashtbl.find_opt t.dirs inum with
     | Some view when view.checked = epoch t ->
       (match iter_blocks t ino ~off:0 ~len ignore_block with
        | Error e -> Error e
        | Ok () -> Ok (ino, view))
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
          Ok (ino, view)
        | Copy out ->
          let data = Bytes.unsafe_to_string out in
          let view = dir_view t data (parse_dir data) in
          remember_dir t inum view;
          Ok (ino, view)))

let dir_find view name = Hashtbl.find_opt (Lazy.force view.names) name

(* Rewrite directory contents in place, writing only the blocks whose
   bytes change.  [view] holds the directory's current data ([load_dir]
   has just checked it against the disk), so each new block is compared
   with it in place: an append writes the last block, and a block whose
   bytes are unchanged is not written, which adds no crash state.  A
   block that changes is written whole, its new bytes then zeros, so a
   shrink leaves no stale tail.  For a directory that fits in one block
   this is a single data-block write followed by bookkeeping: a crash in
   between leaves either the old or the new entry set, never a mixture
   and never an empty directory (see the terminator note above).  The
   entries are encoded once, terminator included, and the bytes written
   are exactly what the next read returns, so they seed the parsed
   view, with [names] as its name index if given. *)
let store_dir ?names t inum ino view entries =
  let data = if entries = [] then "" else serialize_dir entries in
  let len = String.length data in
  let old_len = String.length view.bytes in
  let nblocks = (len + t.bs - 1) / t.bs in
  let rec store ino n =
    if n >= nblocks then Ok ino
    else
      let lo = n * t.bs in
      let chunk = min t.bs (len - lo) in
      if lo + chunk <= old_len
         && (chunk = t.bs || lo + chunk = old_len)
         && equal_sub view.bytes lo (Bytes.unsafe_of_string data) lo chunk
      then store ino (n + 1)
      else
        let* phys, ino = bmap_alloc t ino n in
        let buf = Bytes.make t.bs '\000' in
        Bytes.blit_string data lo buf 0 chunk;
        let* () = bwrite t phys buf in
        store ino (n + 1)
  in
  let* ino = store ino 0 in
  let* ino = if len < old_len then free_blocks_from t ino ~keep:nblocks else Ok ino in
  let* () = write_ino t inum { ino with i_size = len; i_mtime = t.now () } in
  remember_dir t inum (dir_view ?names t data entries);
  Ok ()

let dir_entries t inum =
  let* _ino, view = load_dir t inum in
  Ok view.entries

(* Matches rather than [let*], and no option: this is the cached walk
   every name resolution takes. *)
let dir_lookup t inum name =
  match load_dir t inum with
  | Error _ as e -> e
  | Ok (_, view) ->
    (match Hashtbl.find (Lazy.force view.names) name with
     | child -> Ok child
     | exception Not_found -> Error Errno.ENOENT)

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

(* Capped at what the buffer cache holds: a full reset when the next file
   would not fit. *)
let remember_file t inum data =
  let n = String.length data in
  if n <= t.file_budget then begin
    if t.file_bytes + n > t.file_budget then begin
      Hashtbl.reset t.files;
      t.file_bytes <- 0
    end;
    Hashtbl.replace t.files inum data;
    t.file_bytes <- t.file_bytes + n
  end

(* A whole-file read in an unchanged epoch returns the string the last
   one returned, after making the same block accesses. *)
let read t inum ~off ~len =
  let* ino = read_live_ino t inum in
  if ino.i_kind = 2 then Error Errno.EISDIR
  else if off <> 0 || len < ino.i_size then read_at t ino ~off ~len
  else
    match Hashtbl.find_opt t.files inum with
    | Some data ->
      (match iter_blocks t ino ~off:0 ~len:ino.i_size ignore_block with
       | Error _ as e -> e
       | Ok () -> Ok data)
    | None ->
      let* data = read_at t ino ~off ~len in
      remember_file t inum data;
      Ok data

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
    let names = Lazy.force view.names in
    if Hashtbl.mem names name then Error Errno.EEXIST
    else
      (* The new view takes the old one's name index plus this name,
         rather than rebuilding it: the old view is replaced, and no
         caller reads it again.  Changed only once the store is done, so
         a failed store leaves the old view as it was. *)
      let* () = store_dir ~names t dir ino view (view.entries @ [ (name, child, kind) ]) in
      Hashtbl.replace names name child;
      Ok ()

(* [create] and [mkdir]: the name is checked before an inode is
   allocated.  The directory is read twice before the check; the
   block-cache hit counts include the second read. *)
let make_node t ~dir name kind ~mode =
  with_txn t @@ fun () ->
  let* _ = load_dir t dir in
  let* _ino, view = load_dir t dir in
  if dir_find view name <> None then Error Errno.EEXIST
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

let remove_entry t dir name =
  let* ino, view = load_dir t dir in
  match List.find_opt (fun (n, _, _) -> n = name) view.entries with
  | None -> Error Errno.ENOENT
  | Some (_, child, kind) ->
    let entries = List.filter (fun (n, _, _) -> n <> name) view.entries in
    let* () = store_dir t dir ino view entries in
    Ok (child, kind)

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
    let* _ = remove_entry t dir name in
    drop_link t child

let rmdir t ~dir name =
  with_txn t @@ fun () ->
  let* child = dir_lookup t dir name in
  let* ino = read_live_ino t child in
  if ino.i_kind <> 2 then Error Errno.ENOTDIR
  else
    let* _ino, view = load_dir t child in
    if ino.i_nlink <= 1 && view.entries <> [] then Error Errno.ENOTEMPTY
    else
      let* _ = remove_entry t dir name in
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
    if dst_ino.i_nlink <= 1 && view.entries <> [] then Error Errno.ENOTEMPTY else Ok ()
  | false, false -> Ok ()

(* Journaled, the whole rename — including the shadow-file commit point
   below — is one transaction: the directory rewrite and the dropped
   link become durable together, closing the crash window that
   write-through ordering could only shrink (the "leaks the old inode"
   case in the same-directory-replace arm). *)
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
    match dst_existing with
    | Some d when d = src ->
      (* Same object under both names: POSIX says do nothing. *)
      Ok ()
    | Some d when sdir = ddir ->
      (* The commit point of the shadow-file protocol: one directory
         rewrite retargets the name, and only afterwards is the replaced
         inode released.  A crash in between leaks the old inode but the
         name always resolves to a complete version. *)
      let* () = check_replaceable t ~src_is_dir d in
      let* ino, view = load_dir t sdir in
      let entries =
        List.filter (fun (n, _, _) -> n <> sname && n <> dname) view.entries
        @ [ (dname, src, src_kind) ]
      in
      let* () = store_dir t sdir ino view entries in
      drop_link t d
    | Some d ->
      let* () = check_replaceable t ~src_is_dir d in
      let* _ = remove_entry t ddir dname in
      let* () = drop_link t d in
      let* _ = remove_entry t sdir sname in
      add_entry t ddir dname src src_kind
    | None when sdir = ddir ->
      let* ino, view = load_dir t sdir in
      let entries =
        List.map (fun (n, i, k) -> if n = sname then (dname, i, k) else (n, i, k)) view.entries
      in
      store_dir t sdir ino view entries
    | None ->
      let* _ = remove_entry t sdir sname in
      add_entry t ddir dname src src_kind

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
    Array.iter (fun b -> if b <> 0 then Hashtbl.replace reachable_blocks b ()) ino.i_direct;
    if ino.i_indirect <> 0 then begin
      Hashtbl.replace reachable_blocks ino.i_indirect ();
      match bread t ino.i_indirect with
      | Error _ -> complain "unreadable indirect block %d" ino.i_indirect
      | Ok b ->
        for i = 0 to ptrs_per_block t - 1 do
          let p = Codec.get_u32 b (4 * i) in
          if p <> 0 then Hashtbl.replace reachable_blocks p ()
        done
    end
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
            match load_dir t inum with
            | Error _ -> complain "unreadable directory %d" inum
            | Ok (_, view) ->
              List.iter
                (fun (_, child, _) ->
                  bump child;
                  walk child)
                view.entries
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
  (* Inode bitmap vs. reachability. *)
  for inum = 1 to t.sb.ninodes do
    match bit_test t ~start:t.sb.ibitmap_start inum with
    | Error _ -> complain "unreadable inode bitmap for %d" inum
    | Ok used ->
      let reachable = Hashtbl.mem visited inum in
      if used && not reachable then complain "inode %d allocated but unreachable" inum
      else if (not used) && reachable then complain "inode %d reachable but free" inum
  done;
  (* Block bitmap vs. reachability (metadata blocks are always used,
     and so is the journal region at the tail of the disk). *)
  for blk = t.sb.data_start to t.sb.journal_start - 1 do
    match bit_test t ~start:t.sb.bbitmap_start blk with
    | Error _ -> complain "unreadable block bitmap for %d" blk
    | Ok used ->
      let reachable = Hashtbl.mem reachable_blocks blk in
      if used && not reachable then complain "block %d allocated but unreferenced" blk
      else if (not used) && reachable then complain "block %d referenced but free" blk
  done;
  match !problems with
  | [] -> Ok ()
  | ps -> Error (String.concat "; " (List.rev ps))
