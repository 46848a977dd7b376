type t = {
  label : string;
  block_size : int;
  zero : bytes;  (* shared by every block not yet written; never written through *)
  blocks : bytes array;
  on_io : unit -> unit;
  mutable reads : int;
  mutable writes : int;
  mutable writes_before_failure : int option;
      (* [Some n]: n more writes succeed, then EIO *)
}

let create ?(label = "disk") ?(on_io = fun () -> ()) ~nblocks ~block_size () =
  if nblocks <= 0 || block_size <= 0 then invalid_arg "Disk.create";
  let zero = Bytes.make block_size '\000' in
  {
    label;
    block_size;
    zero;
    blocks = Array.make nblocks zero;
    on_io;
    reads = 0;
    writes = 0;
    writes_before_failure = None;
  }

let label t = t.label
let nblocks t = Array.length t.blocks
let block_size t = t.block_size

let read t i =
  if i < 0 || i >= Array.length t.blocks then Error Errno.EINVAL
  else begin
    t.reads <- t.reads + 1;
    t.on_io ();
    Ok (Bytes.copy t.blocks.(i))
  end

let write t i buf =
  if i < 0 || i >= Array.length t.blocks then Error Errno.EINVAL
  else if Bytes.length buf <> t.block_size then Error Errno.EINVAL
  else
    match t.writes_before_failure with
    | Some 0 -> Error Errno.EIO
    | remaining ->
      (match remaining with
       | Some n -> t.writes_before_failure <- Some (n - 1)
       | None -> ());
      t.writes <- t.writes + 1;
      t.on_io ();
      let b = t.blocks.(i) in
      if b == t.zero then t.blocks.(i) <- Bytes.copy buf
      else Bytes.blit buf 0 b 0 t.block_size;
      Ok ()

let reads t = t.reads
let writes t = t.writes

let reset_stats t =
  t.reads <- 0;
  t.writes <- 0

let fail_writes_after t n =
  if n < 0 then invalid_arg "Disk.fail_writes_after";
  t.writes_before_failure <- Some n

let clear_failures t = t.writes_before_failure <- None

let snapshot t = Array.map (fun b -> if b == t.zero then b else Bytes.copy b) t.blocks

let restore t media =
  if Array.length media <> Array.length t.blocks
     || Array.exists (fun b -> Bytes.length b <> t.block_size) media
  then invalid_arg "Disk.restore";
  Array.iteri (fun i b -> t.blocks.(i) <- (if b == t.zero then t.zero else Bytes.copy b)) media
