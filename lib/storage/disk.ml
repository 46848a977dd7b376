type t = {
  label : string;
  block_size : int;
  blocks : bytes array;
  on_io : unit -> unit;
  mutable reads : int;
  mutable writes : int;
  mutable writes_before_failure : int option;
      (* [Some n]: n more writes succeed, then EIO *)
}

let create ?(label = "disk") ?(on_io = fun () -> ()) ~nblocks ~block_size () =
  if nblocks <= 0 || block_size <= 0 then invalid_arg "Disk.create";
  {
    label;
    block_size;
    blocks = Array.init nblocks (fun _ -> Bytes.make block_size '\000');
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
      Bytes.blit buf 0 t.blocks.(i) 0 t.block_size;
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

let snapshot t = Array.map Bytes.copy t.blocks

let restore t media =
  if Array.length media <> Array.length t.blocks then invalid_arg "Disk.restore";
  Array.iteri (fun i b -> Bytes.blit b 0 t.blocks.(i) 0 t.block_size) media
