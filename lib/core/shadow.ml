let shadow_name fid = Ids.fid_to_hex fid ^ ".shadow"

let ( let* ) = Result.bind

let lookup_or_create ~dir name =
  match dir.Vnode.lookup name with
  | Ok v -> Ok v
  | Error Errno.ENOENT -> dir.Vnode.create name
  | Error _ as e -> e

(* Write the new contents into the shadow file, then substitute it for
   the original by one directory-reference change (the commit point):
   nothing is visible under the real name until the rename. *)
let install ~dir fid ~data =
  let shadow = shadow_name fid in
  let target = Ids.fid_to_hex fid in
  (* A leftover from an interrupted install is reused. *)
  let* shadow_vnode = lookup_or_create ~dir shadow in
  let* () = shadow_vnode.Vnode.setattr { Vnode.setattr_none with Vnode.set_size = Some 0 } in
  let* () = shadow_vnode.Vnode.write ~off:0 data in
  (* Commit point: one low-level directory-reference change. *)
  dir.Vnode.rename shadow dir target

let recover ~dir fid =
  match dir.Vnode.remove (shadow_name fid) with Ok () | Error _ -> ()

(* A record: a header (the MD5 of the rest of the header and of the
   payload, the payload's length and its offset, two u32s), then the
   payload.  One that fits follows its header in the first
   [record_size] bytes, zero-padded to that size; a larger one lives at
   a [record_size]-aligned offset past them.  The digest covers both
   numbers and the payload, so a short file, a zero block or a header
   from another store reads as [EIO]. *)
let record_size = 512
let header = 24

let put_header b ~off payload =
  Codec.set_u32 b 16 (String.length payload);
  Codec.set_u32 b 20 off;
  Bytes.blit_string (Digest.string (Bytes.sub_string b 16 8 ^ payload)) 0 b 0 16

(* The live payload and its offset. *)
let read_record v =
  let* hdr = v.Vnode.read ~off:0 ~len:header in
  if String.length hdr < header then Error Errno.EIO
  else
    let b = Bytes.unsafe_of_string hdr in
    let len = Codec.get_u32 b 16 and off = Codec.get_u32 b 20 in
    if off < header then Error Errno.EIO
    else
      let* payload = v.Vnode.read ~off ~len in
      if String.length payload = len
         && String.equal (String.sub hdr 0 16) (Digest.string (String.sub hdr 16 8 ^ payload))
      then Ok (off, payload)
      else Error Errno.EIO

(* Every store rewrites the same inode, so a record linked into several
   directories stays one record.  One that fits is a single block
   overwritten in place at an unchanged size.  A larger one is written
   where it overlaps no byte of the live payload (at [record_size] if it
   ends before the live one starts, else just past the live one), then
   the header block is rewritten to point at it, then the file is
   trimmed behind it.  Either way the commit is one block write. *)
let store_record ~dir name payload =
  let len = String.length payload in
  let* v = lookup_or_create ~dir name in
  if header + len <= record_size then begin
    let b = Bytes.make record_size '\000' in
    put_header b ~off:header payload;
    Bytes.blit_string payload 0 b header len;
    Vnode.overwrite v (Bytes.unsafe_to_string b)
  end
  else
    let off =
      match read_record v with
      | Ok (live, p) when live >= record_size && record_size + len > live ->
        (live + String.length p + record_size - 1) / record_size * record_size
      | Ok _ | Error _ -> record_size
    in
    let b = Bytes.make header '\000' in
    put_header b ~off payload;
    let* () = v.Vnode.write ~off payload in
    let* () = v.Vnode.write ~off:0 (Bytes.unsafe_to_string b) in
    v.Vnode.setattr { Vnode.setattr_none with Vnode.set_size = Some (off + len) }

let load_record ~dir name =
  let* v = dir.Vnode.lookup name in
  let* _, payload = read_record v in
  Ok payload
