(* The control-reply codec: every reply decodes to what was encoded
   (qcheck), and the bytes a physical replica serves for a fixed state
   are pinned, so a change to the billed wire format fails here before it
   shows up as moved benchmark bytes. *)

open Util
module Vv = Version_vector

(* ---------------- generators ---------------- *)

let vv_gen =
  QCheck.Gen.(
    map
      (List.fold_left (fun v (r, n) -> Vv.merge v (Vv.singleton r n)) Vv.empty)
      (list_size (int_bound 4) (pair (int_range 1 6) (int_range 1 500))))

let kind_gen = QCheck.Gen.oneofl [ Aux_attrs.Freg; Aux_attrs.Fdir; Aux_attrs.Fgraft ]
let fid_gen = QCheck.Gen.(map2 (fun issuer uniq -> { Ids.issuer; uniq }) (int_bound 9) (int_bound 0xffffff))

(* A filtered reply's failed-child list, or an unfiltered reply. *)
let filtered_gen = QCheck.Gen.(opt (list_size (int_bound 3) fid_gen))

let vi_gen =
  QCheck.Gen.(
    map
      (fun ((vi_kind, vi_vv, vi_size, vi_uid), (vi_stored, vi_span, vi_summary)) ->
        { Ctl_wire.vi_kind; vi_vv; vi_size; vi_uid; vi_stored; vi_span; vi_summary })
      (pair
         (quad kind_gen vv_gen nat (int_bound 1000))
         (triple bool nat (opt vv_gen))))

(* Names drawn from an alphabet heavy in the bytes the framings use. *)
let name_gen =
  QCheck.Gen.(string_size ~gen:(oneofl [ 'a'; 'b'; ' '; '\n'; '%'; '='; '-'; ':' ]) (int_range 1 6))

let fdir_gen_of name_gen =
  QCheck.Gen.(
    map
      (fun ops ->
        List.fold_left
          (fun (d, seq) (name, kind, dead) ->
            let birth = { Fdir.b_rid = 1; b_seq = seq } in
            let fid = { Ids.issuer = 1; uniq = seq } in
            let d =
              match Fdir.add d ~rid:1 ~name ~fid ~kind ~birth with
              | Error _ -> d
              | Ok d when dead -> Result.value ~default:d (Fdir.kill d ~rid:1 birth)
              | Ok d -> d
            in
            (d, seq + 1))
          (Fdir.empty 1, 2) ops
        |> fst)
      (list_size (int_bound 8) (triple name_gen kind_gen bool)))

let fdir_gen = fdir_gen_of name_gen

let body_gen = QCheck.Gen.(string_size ~gen:char (int_bound 64))
let digest_gen = QCheck.Gen.map Chunking.digest_hex body_gen

let chunks_gen =
  QCheck.Gen.(
    map
      (fun parts ->
        List.rev
          (snd
             (List.fold_left
                (fun (off, acc) (len, digest) ->
                  (off + len, { Chunking.off; len; digest } :: acc))
                (0, []) parts)))
      (list_size (int_bound 6) (pair (int_range 1 20_000) digest_gen)))

let peers_gen =
  QCheck.Gen.(
    list_size (int_bound 5)
      (map2 (fun r n -> (r, Printf.sprintf "host%d" n)) (int_range 1 64) (int_bound 63)))

(* ---------------- equality ---------------- *)

let vi_equal (a : Ctl_wire.version_info) (b : Ctl_wire.version_info) =
  a.vi_kind = b.vi_kind && Vv.equal a.vi_vv b.vi_vv && a.vi_size = b.vi_size
  && a.vi_uid = b.vi_uid && a.vi_stored = b.vi_stored && a.vi_span = b.vi_span
  && Option.equal Vv.equal a.vi_summary b.vi_summary

let dv_equal (a : Ctl_wire.dir_versions) (b : Ctl_wire.dir_versions) =
  Option.equal Vv.equal a.dv_summary b.dv_summary
  && Option.equal (List.equal Ids.fid_equal) a.dv_filtered b.dv_filtered
  && Fdir.encode a.dv_fdir = Fdir.encode b.dv_fdir
  && List.equal
       (fun (f, v) (g, w) -> Ids.fid_equal f g && vi_equal v w)
       a.dv_children b.dv_children

let roundtrip name gen encode decode equal =
  QCheck.Test.make ~name ~count:200 (QCheck.make gen) (fun x ->
      match decode (encode x) with Ok y -> equal x y | Error _ -> false)

let props =
  [
    roundtrip "getvv" vi_gen Ctl_wire.encode_version_info Ctl_wire.decode_version_info
      vi_equal;
    roundtrip "readfile" (QCheck.Gen.pair vi_gen body_gen)
      (fun (vi, data) -> Ctl_wire.encode_file vi data)
      Ctl_wire.decode_file
      (fun (v, d) (w, e) -> vi_equal v w && d = e);
    roundtrip "getchunkmap" (QCheck.Gen.triple vi_gen digest_gen chunks_gen)
      (fun (vi, digest, chunks) -> Ctl_wire.encode_chunk_map vi ~digest chunks)
      Ctl_wire.decode_chunk_map
      (fun (v, d, c) (w, e, k) -> vi_equal v w && d = e && c = k);
    roundtrip "readchunks"
      QCheck.Gen.(list_size (int_bound 5) (map (fun b -> (Chunking.digest_hex b, b)) body_gen))
      Ctl_wire.encode_chunks Ctl_wire.decode_chunks ( = );
    roundtrip "getdirvvs"
      QCheck.Gen.(
        map4
          (fun dv_summary dv_filtered dv_fdir dv_children ->
            { Ctl_wire.dv_summary; dv_filtered; dv_fdir; dv_children })
          (opt vv_gen) filtered_gen fdir_gen
          (list_size (int_bound 4) (pair fid_gen vi_gen)))
      (fun dv ->
        Ctl_wire.encode_dir_versions ~summary:dv.Ctl_wire.dv_summary
          ~filtered:dv.Ctl_wire.dv_filtered ~fdir:(Fdir.encode dv.Ctl_wire.dv_fdir)
          dv.Ctl_wire.dv_children)
      Ctl_wire.decode_dir_versions dv_equal;
    roundtrip "resolve" (QCheck.Gen.pair fid_gen kind_gen)
      (fun (fid, kind) -> Ctl_wire.encode_resolve fid kind)
      Ctl_wire.decode_resolve
      (fun (f, k) (g, l) -> Ids.fid_equal f g && k = l);
    roundtrip "peers" peers_gen Ctl_wire.encode_peers Ctl_wire.decode_peers ( = );
    roundtrip "meta"
      QCheck.Gen.(triple (int_bound 9) (int_bound 99) (int_range 1 64))
      (fun (alloc, vol, rid) -> Ctl_wire.encode_meta { Ids.alloc; vol } rid)
      Ctl_wire.decode_meta
      (fun (alloc, vol, rid) (vref, rid') ->
        Ids.vref_equal vref { Ids.alloc; vol } && rid = rid');
  ]

(* ---------------- oracle: the line-splitting decoder ---------------- *)

(* Names that spell the reply's framing lines, beside the framing
   alphabet: escaping keeps them inside their entry lines. *)
let marker_name_gen =
  QCheck.Gen.(
    frequency
      [
        ( 1,
          oneofl
            [ "fdir:"; "endfdir:"; "child=00000001.00000002"; "summary=1:1"; "kind=reg";
              "filtered=00000001.00000002" ] );
        (2, name_gen);
      ])

let marker_fdir_gen = fdir_gen_of marker_name_gen

type edit = Keep | Set of int * char | Cut of int | Insert of int * string

let print_edit = function
  | Keep -> "keep"
  | Set (i, c) -> Printf.sprintf "set %d %C" i c
  | Cut i -> Printf.sprintf "cut %d" i
  | Insert (i, l) -> Printf.sprintf "insert %d %S" i l

(* Positions are taken modulo the reply's length.  Edits at line ends
   are drawn as often as anywhere else, since the framing lives there:
   an inserted line goes at the start of the line holding its position. *)
let edit_gen =
  QCheck.Gen.(
    let pos = nat and line_end = map (fun i -> -1 - i) nat in
    let anywhere = frequency [ (1, pos); (1, line_end) ] in
    frequency
      [
        (1, return Keep);
        ( 4,
          map2
            (fun i c -> Set (i, c))
            anywhere
            (frequency [ (3, oneofl [ '\n'; ':'; '='; ' '; 'f'; 'E'; '-'; 'x'; ',' ]); (1, char) ]) );
        (2, map (fun i -> Cut i) anywhere);
        ( 2,
          map2
            (fun i l -> Insert (i, l))
            pos
            (oneofl
               [ "fdir:\n"; "endfdir:\n"; "child=00000001.00000009\n"; "\n"; "summary=2:2\n";
                 "filtered=\n"; "filtered=00000001.00000009\n" ]) );
      ])

(* A negative position [-1 - k] names the end of the line holding
   position [k]: its newline, or the end of the reply. *)
let position reply i =
  let n = String.length reply in
  if i >= 0 then i mod (n + 1)
  else
    let k = (-1 - i) mod (n + 1) in
    Option.value ~default:n (String.index_from_opt reply k '\n')

let apply_edit reply = function
  | Keep -> reply
  | Set (i, c) ->
    let b = Bytes.of_string reply in
    Bytes.set b (min (position reply i) (Bytes.length b - 1)) c;
    Bytes.to_string b
  | Cut i -> String.sub reply 0 (position reply i)
  | Insert (i, line) ->
    let i = position reply i in
    let start =
      if i = 0 then 0
      else match String.rindex_from_opt reply (i - 1) '\n' with Some j -> j + 1 | None -> 0
    in
    String.sub reply 0 start ^ line ^ String.sub reply start (String.length reply - start)

let reply_gen =
  QCheck.Gen.map4
    (fun summary filtered fdir children ->
      Ctl_wire.encode_dir_versions ~summary ~filtered ~fdir:(Fdir.encode fdir) children)
    (QCheck.Gen.opt vv_gen) filtered_gen marker_fdir_gen
    (QCheck.Gen.list_size (QCheck.Gen.int_bound 3) (QCheck.Gen.pair fid_gen vi_gen))

let slice_decoder_law =
  QCheck.Test.make ~name:"getdirvvs: slicing decoder agrees with the line-splitting one"
    ~count:500
    (QCheck.make
       ~print:(fun (reply, e) -> Printf.sprintf "%S after %s" reply (print_edit e))
       (QCheck.Gen.pair reply_gen edit_gen))
    (fun (reply, edit) ->
      let reply = apply_edit reply edit in
      match Ctl_wire.decode_dir_versions reply, Ctl_wire_lines.decode_dir_versions reply with
      | Ok a, Ok b -> dv_equal a b
      | Error a, Error b -> a = b
      | Ok _, Error _ | Error _, Ok _ -> false)

(* ---------------- golden bytes ---------------- *)

(* A fresh replica holding a file "f" = "payload" (fid 1.2) and an
   empty directory "d" (fid 1.5). *)
let golden_replica () =
  let _, fs = fresh_ufs () in
  let container = ok (Namei.mkdir_p ~root:(Ufs_vnode.root fs) "vol") in
  let phys =
    ok
      (Physical.create ~obs:(Obs.create ()) ~container ~clock:(Clock.create ()) ~host:"host0"
         ~vref:{ Ids.alloc = 0; vol = 1 } ~rid:1
         ~peers:[ (1, "host0"); (2, "host1") ]
         ())
  in
  let root = Physical.root phys in
  let f = ok (root.Vnode.create "f") in
  ok (f.Vnode.write ~off:0 "payload");
  let _ = ok (root.Vnode.mkdir "d") in
  root

let f_info = "kind=reg\nvv=1:2\nsize=7\nuid=0\nstored=1\nspan=0\n"
let f_digest = "321c3cf486ed509164edec1e1981fec8"

let golden =
  [
    ("getvv", [ "@00000001.00000002" ], f_info);
    ("readfile", [ "@00000001.00000002" ], f_info ^ "--\npayload");
    ( "getchunkmap",
      [ "@00000001.00000002" ],
      f_info ^ "digest=" ^ f_digest ^ "\n--\nchunk=" ^ f_digest ^ " 7\n" );
    ("readchunks", [ "@00000001.00000002"; f_digest ], "chunk=" ^ f_digest ^ " 7\npayload\n");
    ( "getdirvvs",
      [ "." ],
      "summary=1:6\nfdir:\nV 1:2\nK 1 1:2\nE f 00000001.00000002 1.2 reg L\n\
       E d 00000001.00000005 1.5 dir L\nendfdir:\n\
       child=00000001.00000005\nkind=dir\nvv=\nsize=0\nuid=0\nstored=1\nspan=0\nsummary=\n\
       child=00000001.00000002\n" ^ f_info );
    ("resolve", [ "f" ], "fid=00000001.00000002\nkind=reg\n");
    ("peers", [], "1@host0,2@host1\n");
    ("meta", [], "vref=0.1\nrid=1\n");
  ]

let golden_case (op, args, expected) =
  case ("golden " ^ op) (fun () ->
      let root = golden_replica () in
      let reply = ok (root.Vnode.lookup (ok (Ctl_name.encode ~op ~args))) in
      Alcotest.(check string) op expected (ok (Vnode.read_all reply)))

(* A floor (the argument before the serial) at event 4, the write of
   "f": only "d", made at event 6, is stamped above it. *)
let golden_filtered =
  case "golden getdirvvs with a floor" (fun () ->
      let root = golden_replica () in
      let args = [ "."; "4"; "n1" ] in
      let reply = ok (root.Vnode.lookup (ok (Ctl_name.encode ~op:"getdirvvs" ~args))) in
      Alcotest.(check string) "getdirvvs"
        "summary=1:6\nfiltered=\nfdir:\nV 1:2\nK 1 1:2\nE f 00000001.00000002 1.2 reg L\n\
         E d 00000001.00000005 1.5 dir L\nendfdir:\n\
         child=00000001.00000005\nkind=dir\nvv=\nsize=0\nuid=0\nstored=1\nspan=0\nsummary=\n"
        (ok (Vnode.read_all reply)))

let suite =
  List.map golden_case golden @ [ golden_filtered ]
  @ List.map QCheck_alcotest.to_alcotest (props @ [ slice_decoder_law ])
