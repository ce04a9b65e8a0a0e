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
            let d = Detector.create ~locs:(Detector.max_loc program + 1) ~precedes () in
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
    Detector.create ~on_unreferenced ~locs:(Detector.max_loc program + 1) ~precedes ()
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
   shadow cells, rewound in place by [run].  An Enter needs only the
   parent's element (Figure 5, lines 4-7), so the walk splices
   children straight from the program's recursion and never builds
   the parse tree.  A steady-state [run] allocates nothing on a
   race-free program (recording a race pushes a report record);
   [regress --alloc-gate --e2e] pins this. *)
module Fused = struct
  module Om = Spr_om.Om_fused

  type t = {
    program : Fj_program.t;
    om : Om.t;
    handles : Om.elt array;  (* tid -> the thread's fused element *)
    det : Detector.t;
  }

  let create program =
    let om = Om.create () in
    let handles = Array.make (Fj_program.thread_count program) (-1) in
    let precedes ~executed ~current = Om.sp_precedes om handles.(executed) handles.(current) in
    let det = Detector.create ~locs:(Detector.max_loc program + 1) ~precedes () in
    { program; om; handles; det }

  (* One thread at its leaf element: pin it as the later operand of
     every query its accesses make (Detector.run_thread's sink/metrics
     bookkeeping is dead weight here). *)
  let thread t e (u : Fj_program.thread) =
    t.handles.(u.tid) <- e;
    Om.pin t.om e;
    let accs = u.accesses in
    for i = 0 to Array.length accs - 1 do
      Detector.access t.det ~current:u.tid accs.(i)
    done

  (* Top-level recursion with explicit arguments — nested closures
     would allocate on every run.  [e] is the element of the subtree's
     root; each Enter is the canonical shape's: S(block, rest) for a
     block that is not the last, S(thread, rest) for a [Run] that is
     not the last item, P(child, rest) for a [Spawn]. *)
  let rec proc t e (p : Fj_program.proc) = blocks t e p.blocks 0

  and blocks t e bs bi =
    if bi = Array.length bs - 1 then items t e bs.(bi) 0
    else begin
      let lr = Om.insert_children_packed t.om e ~parallel:false in
      items t (Om.packed_left lr) bs.(bi) 0;
      blocks t (Om.packed_right lr) bs (bi + 1)
    end

  and items t e blk i =
    (* Past the end only after a trailing [Spawn]: a synthetic leaf. *)
    if i < Array.length blk then
      match blk.(i) with
      | Fj_program.Run u when i = Array.length blk - 1 -> thread t e u
      | Fj_program.Run u ->
          let lr = Om.insert_children_packed t.om e ~parallel:false in
          thread t (Om.packed_left lr) u;
          items t (Om.packed_right lr) blk (i + 1)
      | Fj_program.Spawn f ->
          let lr = Om.insert_children_packed t.om e ~parallel:true in
          proc t (Om.packed_left lr) f;
          items t (Om.packed_right lr) blk (i + 1)

  let run t =
    Om.reset t.om;
    Detector.reset t.det;
    proc t (Om.base t.om) (Fj_program.main t.program)

  let detector t = t.det

  let om t = t.om

  let result t =
    {
      races = Detector.races t.det;
      racy_locs = Detector.racy_locs t.det;
      sp_queries = Detector.query_count t.det;
    }
end

let detect_serial_fused program =
  let t = Fused.create program in
  Fused.run t;
  Fused.result t

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
  let det = Detector.create ~locs:(Detector.max_loc program + 1) ~precedes () in
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
