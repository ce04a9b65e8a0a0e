module V = Spr_util.Varint
module Fj = Spr_prog.Fj_program

let magic = "SPRTRACE1\n"

let version = 1

(* Tag values are part of the on-disk format; never renumber. *)
let tag_prog = 1

let tag_thread = 2

let tag_read = 3

let tag_write = 4

let tag_read_locked = 5

let tag_write_locked = 6

let tag_spawn = 7

let tag_return = 8

let tag_sync = 9

let tag_prog_end = 10

(* Hint caps: large enough for any workload this repo generates, small
   enough that a corrupted header cannot OOM the decoder. *)
let max_threads = 1 lsl 26

let max_locs = 1 lsl 27

let max_nodes = 1 lsl 28

let max_locks_held = 4096

type error = { offset : int; frame : int; msg : string }

exception Corrupt of error

let corrupt ~offset ~frame fmt =
  Printf.ksprintf (fun msg -> raise (Corrupt { offset; frame; msg })) fmt

let pp_error ppf e =
  Format.fprintf ppf "offset %d (frame %d): %s" e.offset e.frame e.msg

(* Char-by-char so the resident server's per-trace header check stays
   allocation-free (String.sub would box a fresh string every call). *)
let rec magic_matches s pos i =
  i >= String.length magic
  || (String.unsafe_get s (pos + i) = String.unsafe_get magic i
     && magic_matches s pos (i + 1))

let check_header s pos =
  let mlen = String.length magic in
  if String.length s - !pos < mlen || not (magic_matches s !pos 0) then
    corrupt ~offset:!pos ~frame:0 "bad magic (not a .spr-trace file)";
  pos := !pos + mlen;
  let v =
    try V.get s pos
    with V.Truncated -> corrupt ~offset:!pos ~frame:0 "truncated version"
  in
  if v <> version then corrupt ~offset:!pos ~frame:0 "unknown version %d" v

let write_header buf =
  Buffer.add_string buf magic;
  V.put buf version

(* --- Encoding ----------------------------------------------------- *)

(* The body is serialized first (into [body]) so the PROG header can
   carry exact hints.  The node budget is the root plus two ids per
   sync block, per thread and per spawn.  Version 1 of the format fixed
   it so; the decoder sizes nothing by it, but checks it exactly and
   treats any drift as corruption. *)
let encode_program buf (program : Fj.t) =
  let body = Buffer.create 4096 in
  let events = ref 0 in
  let blocks = ref 0 in
  let frame tag =
    V.put body tag;
    incr events
  in
  let access (a : Fj.access) =
    (match a.locks with
    | [] ->
        frame (if a.write then tag_write else tag_read);
        V.put body a.loc
    | locks ->
        frame (if a.write then tag_write_locked else tag_read_locked);
        V.put body a.loc;
        V.put body (List.length locks);
        List.iter (V.put body) locks)
  in
  let rec proc (p : Fj.proc) =
    Array.iteri
      (fun bi blk ->
        if bi > 0 then frame tag_sync;
        incr blocks;
        Array.iter item blk)
      p.Fj.blocks
  and item = function
    | Fj.Run u ->
        frame tag_thread;
        V.put body u.Fj.tid;
        V.put body u.Fj.cost;
        Array.iter access u.Fj.accesses
    | Fj.Spawn child ->
        frame tag_spawn;
        proc child;
        frame tag_return
  in
  proc (Fj.main program);
  let threads = Fj.thread_count program in
  let locs = 1 + Fj.max_loc program in
  let nodes = 1 + (2 * (threads + Fj.spawn_count program + !blocks)) in
  V.put buf tag_prog;
  V.put buf threads;
  V.put buf locs;
  V.put buf nodes;
  Buffer.add_buffer buf body;
  V.put buf tag_prog_end;
  V.put buf !events

let capture programs =
  let buf = Buffer.create 65536 in
  write_header buf;
  List.iter (encode_program buf) programs;
  Buffer.contents buf

let capture_file path programs =
  let s = capture programs in
  let oc = open_out_bin path in
  output_string oc s;
  close_out oc;
  String.length s

let read_file path =
  let ic = open_in_bin path in
  let len = in_channel_length ic in
  let s = really_input_string ic len in
  close_in ic;
  s
