open Spr_prog
module Sm = Spr_core.Sp_maintainer

type serial_result = {
  races : Detector.race list;
  racy_locs : int list;
  sp_queries : int;
}

(* Shared scaffolding: walk the tree serially, driving the maintainer;
   at each real thread invoke [on_thread] with a tid-level precedes. *)
let serial_walk pt make on_thread =
  let tree = Prog_tree.tree pt in
  let inst = make tree in
  let leaf tid = Prog_tree.leaf_of_thread pt tid in
  let precedes ~executed ~current = Sm.precedes inst (leaf executed) (leaf current) in
  Spr_sptree.Sp_tree.iter_events tree (fun ev ->
      Sm.on_event inst ev;
      match ev with
      | Spr_sptree.Sp_tree.Thread n -> begin
          match Prog_tree.thread_of_leaf pt n with
          | Some u -> on_thread precedes u
          | None -> ()
        end
      | _ -> ())

let detect_serial pt make =
  let program = Prog_tree.program pt in
  let det = ref None in
  serial_walk pt make (fun precedes u ->
      let d =
        match !det with
        | Some d -> d
        | None ->
            let d = Detector.create ~locs:(Fj_program.max_loc program + 1) ~precedes () in
            det := Some d;
            d
      in
      Detector.run_thread d u);
  match !det with
  | Some d ->
      { races = Detector.races d; racy_locs = Detector.racy_locs d; sp_queries = Detector.query_count d }
  | None -> { races = []; racy_locs = []; sp_queries = 0 }

type releasing_result = {
  result : serial_result;
  peak_om_nodes : int;
  final_om_nodes : int;
  released : int;
}

let detect_serial_releasing pt =
  let program = Prog_tree.program pt in
  let tree = Prog_tree.tree pt in
  let sp = Spr_core.Sp_order.create tree in
  let leaf tid = Prog_tree.leaf_of_thread pt tid in
  let precedes ~executed ~current =
    Spr_core.Sp_order.precedes sp (leaf executed) (leaf current)
  in
  let released = ref 0 in
  let on_unreferenced tid =
    incr released;
    Spr_core.Sp_order.release sp (leaf tid)
  in
  let det =
    Detector.create ~on_unreferenced ~locs:(Fj_program.max_loc program + 1) ~precedes ()
  in
  let peak = ref 0 in
  Spr_sptree.Sp_tree.iter_events tree (fun ev ->
      Spr_core.Sp_order.on_event sp ev;
      match ev with
      | Spr_sptree.Sp_tree.Thread n -> begin
          match Prog_tree.thread_of_leaf pt n with
          | Some u ->
              Detector.run_thread det u;
              let size = Spr_core.Sp_order.om_size sp in
              if size > !peak then peak := size
          | None -> ()
        end
      | _ -> ());
  {
    result =
      {
        races = Detector.races det;
        racy_locs = Detector.racy_locs det;
        sp_queries = Detector.query_count det;
      };
    peak_om_nodes = !peak;
    final_om_nodes = Spr_core.Sp_order.om_size sp;
    released = !released;
  }

(* ------------------------------------------------------------------ *)
(* The fully packed pipeline: fused English/Hebrew SP-order + packed
   shadow cells, rewound in place by [run].  The walk reports the
   program's serial execution to Sp_stream — the construction the
   ingestion server drives from frames — and builds no parse tree.  A
   steady-state [run] allocates nothing on a race-free program
   (recording a race pushes a report record); [regress --alloc-gate
   --ingest] pins this. *)
module Fused = struct
  module Sp = Spr_core.Sp_stream

  (* [locs] is the detector's shadow width.  [load] recreates the
     detector only for a wider program, as the server does per trace,
     so a reused pipeline keeps the widest shadow it has needed. *)
  type t = {
    mutable program : Fj_program.t;
    sp : Sp.t;
    mutable det : Detector.t;
    mutable locs : int;
  }

  let create program =
    let sp = Sp.create () in
    let locs = Fj_program.max_loc program + 1 in
    { program; sp; det = Detector.create ~locs ~precedes:(Sp.precedes sp) (); locs }

  let load t program =
    let locs = Fj_program.max_loc program + 1 in
    if locs > t.locs then begin
      t.det <- Detector.create ~locs ~precedes:(Sp.precedes t.sp) ();
      t.locs <- locs
    end;
    t.program <- program

  (* Top-level recursion with explicit arguments — nested closures
     would allocate on every run.  The events are the frames
     [Codec.encode_program] emits: a sync between consecutive blocks,
     a spawn and a return around each child. *)
  let rec proc t (p : Fj_program.proc) = blocks t p.blocks 0

  and blocks t bs bi =
    if bi < Array.length bs then begin
      if bi > 0 then Sp.sync t.sp;
      items t bs.(bi) 0;
      blocks t bs (bi + 1)
    end

  and items t blk i =
    if i < Array.length blk then begin
      (match blk.(i) with
      | Fj_program.Run u ->
          (* Detector.run_thread's sink/metrics bookkeeping is dead
             weight here. *)
          Sp.thread t.sp u.tid;
          let accs = u.accesses in
          for j = 0 to Array.length accs - 1 do
            Detector.access t.det ~current:u.tid accs.(j)
          done
      | Fj_program.Spawn f ->
          Sp.spawn t.sp;
          proc t f;
          Sp.return_ t.sp);
      items t blk (i + 1)
    end

  (* The program touches no cell past its [max_loc], so the stale
     cells a wider program left beyond it are never read. *)
  let run t =
    Sp.reset t.sp ~threads:(Fj_program.thread_count t.program);
    Detector.reset_prefix t.det ~upto:(Fj_program.max_loc t.program + 1);
    proc t (Fj_program.main t.program)

  let detector t = t.det

  let om t = Sp.om t.sp

  let result t =
    {
      races = Detector.races t.det;
      racy_locs = Detector.racy_locs t.det;
      sp_queries = Detector.query_count t.det;
    }
end

(* One resident pipeline per domain.  A call takes it out of the slot
   for the whole run — one exchange, so no systhread switch can fall
   between the read and the clear — and puts it back only once
   [result] has built its fresh lists.  A call that finds the slot
   empty (another systhread of the domain is mid-run, or a run raised
   part-way) builds its own pipeline, so no two calls share state. *)
let resident : Fused.t option Atomic.t Domain.DLS.key =
  Domain.DLS.new_key (fun () -> Atomic.make None)

let detect_serial_fused program =
  let slot = Domain.DLS.get resident in
  let t =
    match Atomic.exchange slot None with
    | Some t ->
        Fused.load t program;
        t
    | None -> Fused.create program
  in
  Fused.run t;
  let r = Fused.result t in
  Atomic.set slot (Some t);
  r

type locked_result = { lock_races : Lockset.race list; racy_locs : int list }

let detect_serial_locked pt make =
  let det = ref None in
  serial_walk pt make (fun precedes u ->
      let d =
        match !det with
        | Some d -> d
        | None ->
            let d = Lockset.create ~precedes in
            det := Some d;
            d
      in
      Lockset.run_thread d u);
  match !det with
  | Some d -> { lock_races = Lockset.races d; racy_locs = Lockset.racy_locs d }
  | None -> { lock_races = []; racy_locs = [] }

type hybrid_result = {
  races : Detector.race list;
  racy_locs : int list;
  sim : Spr_sched.Sim.result;
  hybrid_stats : Spr_hybrid.Sp_hybrid.stats;
}

type hybrid_locked_result = {
  lock_races : Lockset.race list;
  racy_locs : int list;
  sim : Spr_sched.Sim.result;
}

let detect_hybrid_locked ?(seed = 1) ?(procs = 4) program =
  let h = Spr_hybrid.Sp_hybrid.create program in
  let precedes ~executed ~current = Spr_hybrid.Sp_hybrid.precedes h ~executed ~current in
  let det = Lockset.create ~precedes in
  let dlock = Mutex.create () in
  let on_thread_user h ~wid:_ ~now:_ (u : Fj_program.thread) =
    (* The lockset history is the shared resource; updates serialize,
       the SP queries inside stay lock-free. *)
    Mutex.protect dlock (fun () -> Lockset.run_thread det u);
    Spr_hybrid.Sp_hybrid.charge_query h
  in
  let sim =
    Spr_sched.Sim.run
      ~hooks:(Spr_hybrid.Sp_hybrid.hooks ~on_thread_user h)
      ~seed ~procs program
  in
  { lock_races = Lockset.races det; racy_locs = Lockset.racy_locs det; sim }

let detect_hybrid ?(seed = 1) ?(procs = 4) program =
  let h = Spr_hybrid.Sp_hybrid.create program in
  let precedes ~executed ~current = Spr_hybrid.Sp_hybrid.precedes h ~executed ~current in
  let det = Detector.create ~locs:(Fj_program.max_loc program + 1) ~precedes () in
  let on_thread_user h ~wid:_ ~now:_ (u : Fj_program.thread) =
    let before = Detector.query_count det in
    Detector.run_thread det u;
    let queries = Detector.query_count det - before in
    (* Charge virtual time for the SP queries the detector issued. *)
    let cost = ref 0 in
    for _ = 1 to queries do
      cost := !cost + Spr_hybrid.Sp_hybrid.charge_query h
    done;
    !cost
  in
  let sim =
    Spr_sched.Sim.run
      ~hooks:(Spr_hybrid.Sp_hybrid.hooks ~on_thread_user h)
      ~seed ~procs program
  in
  {
    races = Detector.races det;
    racy_locs = Detector.racy_locs det;
    sim;
    hybrid_stats = Spr_hybrid.Sp_hybrid.stats h;
  }
