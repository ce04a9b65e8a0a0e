(* The benchmark's five workloads.  Every input is generated from the
   seed inside the benchmark process; the detector only ever sees the
   generated traces (or, for [inproc], the programs). *)

module Fj = Spr_prog.Fj_program
module W = Spr_workloads.Progs
module Rng = Spr_util.Rng
module Codec = Spr_ingest.Codec
module Drivers = Spr_race.Drivers

(* How the one closed-loop client calls the detector.  A request is one
   program, and the client sends the next only when the previous one
   has returned; a pass sends every program once, in order. *)
type client =
  | Drive of int  (** [Server.drive] on the program's trace, with this many shards *)
  | Requests  (** [Server.run_string ~collect:true] on it, as [spingest run] does *)
  | Inproc  (** [Drivers.detect_serial_fused] on the program in memory; no codec *)

type input = {
  programs : Fj.t array;
  traces : string array;  (** each program captured alone *)
  reference : Drivers.serial_result array;  (** boxed [detect_serial], per program *)
  events : int;  (** body frames over all traces *)
}

type t = { name : string; client : client; passes : int; input : input Lazy.t }

(* Body frames [Codec.encode_program] emits for [p]: THREAD plus one per
   access for a thread, SPAWN/RETURN around a child, SYNC between
   blocks. *)
let frames p =
  let rec proc (pr : Fj.proc) =
    Array.fold_left (fun acc blk -> Array.fold_left item (acc + 1) blk) (-1) pr.Fj.blocks
  and item acc = function
    | Fj.Run u -> acc + 1 + Array.length u.Fj.accesses
    | Fj.Spawn c -> acc + 2 + proc c
  in
  proc (Fj.main p)

let reference p =
  Drivers.detect_serial (Spr_prog.Prog_tree.of_program p) Spr_core.Algorithms.sp_order

let input programs =
  let programs = Array.of_list programs in
  {
    programs;
    traces = Array.map (fun p -> Codec.capture [ p ]) programs;
    reference = Array.map reference programs;
    events = Array.fold_left (fun acc p -> acc + frames p) 0 programs;
  }

(* Fork-heavy rotation with no accesses at all: the cost is parse-tree
   maintenance (OM inserts and relabels) and decoding. *)
let forkheavy ~smoke ~seed =
  let rng = Rng.create seed in
  let size full tiny = if smoke then tiny else full in
  let target = size 3_000_000 30_000 in
  let rec go i total acc =
    if total >= target then List.rev acc
    else
      let p =
        match i mod 4 with
        | 0 -> W.fib ~n:(size 16 9) ()
        | 1 -> W.wide ~n:(size 2048 64) ()
        | 2 -> W.deep_spawn ~depth:(size 1024 32) ()
        | _ -> W.random_adversarial ~rng ~threads:(size 2048 64) ~shape:`Spawn_heavy ()
      in
      go (i + 1) (total + frames p) (p :: acc)
  in
  go 0 0 []

let small_kinds =
  [|
    "dcsum-buggy";
    "mergesort-buggy";
    "matmul-buggy";
    "random";
    "adversarial";
    "shared-readers";
    "fib";
    "locked-buggy";
  |]

(* Single-program traces from the registry, kind and size drawn from the
   seed (fib and matmul sizes are exponential and cubic). *)
let small_traces ~count ~seed =
  let rng = Rng.create seed in
  Array.to_list
    (Array.init count (fun _ ->
         let kind = Rng.choose rng small_kinds in
         let size =
           match kind with
           | "fib" -> Rng.int_in rng 8 13
           | "matmul-buggy" -> Rng.int_in rng 8 16
           | _ -> Rng.int_in rng 16 255
         in
         (Option.get (W.find_opt kind)) ~size ~seed:(Rng.int rng 1_000_000)))

let all ~smoke ~seed =
  let passes n = if smoke then 2 else n in
  let spmix =
    lazy
      (input (Spr_ingest.Ingest_bench.spmix ~events:(if smoke then 45_000 else 2_000_000) ~seed))
  in
  [
    { name = "spmix"; client = Drive 1; passes = passes 60; input = spmix };
    {
      name = "forkheavy";
      client = Drive 1;
      passes = passes 30;
      input = lazy (input (forkheavy ~smoke ~seed));
    };
    { name = "spmix-shard2"; client = Drive 2; passes = passes 60; input = spmix };
    {
      name = "small-traces";
      client = Requests;
      passes = passes 10;
      input = lazy (input (small_traces ~count:(if smoke then 40 else 4000) ~seed));
    };
    { name = "inproc"; client = Inproc; passes = passes 40; input = spmix };
  ]
