type access = { loc : int; write : bool; locks : int list }

type thread = { tid : int; cost : int; accesses : access array }

type item = Run of thread | Spawn of proc

and proc = { pid : int; blocks : item array array }

type t = { main : proc; threads_arr : thread array; nprocs : int; max_loc : int }

module Builder = struct
  type b = {
    mutable next_tid : int;
    mutable next_pid : int;
    mutable max_loc : int;
    thr : thread Spr_util.Vec.t;
    mutable closed : bool;
  }

  let create () =
    { next_tid = 0; next_pid = 0; max_loc = -1; thr = Spr_util.Vec.create (); closed = false }

  let check_open b = if b.closed then invalid_arg "Fj_program.Builder: already finished"

  let thread b ?(accesses = []) ~cost () =
    check_open b;
    if cost < 1 then invalid_arg "Fj_program.Builder.thread: cost must be >= 1";
    let t = { tid = b.next_tid; cost; accesses = Array.of_list accesses } in
    List.iter (fun a -> if a.loc > b.max_loc then b.max_loc <- a.loc) accesses;
    b.next_tid <- b.next_tid + 1;
    Spr_util.Vec.push b.thr t;
    t

  let proc b blocks =
    check_open b;
    if blocks = [] then invalid_arg "Fj_program.Builder.proc: need at least one block";
    if List.exists (fun blk -> blk = []) blocks then
      invalid_arg "Fj_program.Builder.proc: empty sync block";
    let p = { pid = b.next_pid; blocks = Array.of_list (List.map Array.of_list blocks) } in
    b.next_pid <- b.next_pid + 1;
    p

  let finish b main =
    check_open b;
    b.closed <- true;
    { main; threads_arr = Spr_util.Vec.to_array b.thr; nprocs = b.next_pid; max_loc = b.max_loc }
end

let main t = t.main

let thread_count t = Array.length t.threads_arr

let proc_count t = t.nprocs

let threads t = t.threads_arr

let max_loc t = t.max_loc

let work t = Array.fold_left (fun acc u -> acc + u.cost) 0 t.threads_arr

let access_count t =
  Array.fold_left (fun acc u -> acc + Array.length u.accesses) 0 t.threads_arr

(* Critical path: a Spawn runs in parallel with the remainder of its
   block; blocks of a procedure are serial. *)
let rec span_proc p =
  Array.fold_left (fun acc blk -> acc + span_items blk 0) 0 p.blocks

and span_items blk i =
  if i >= Array.length blk then 0
  else begin
    match blk.(i) with
    | Run u -> u.cost + span_items blk (i + 1)
    | Spawn f -> max (span_proc f) (span_items blk (i + 1))
  end

let span t = span_proc t.main

let rec spawns_proc p =
  Array.fold_left
    (fun acc blk ->
      Array.fold_left
        (fun acc it -> match it with Run _ -> acc | Spawn f -> acc + 1 + spawns_proc f)
        acc blk)
    0 p.blocks

let spawn_count t = spawns_proc t.main

let iter_threads t f = Array.iter f t.threads_arr

let pp_stats ppf t =
  let w = work t and s = span t in
  Format.fprintf ppf "threads=%d procs=%d work=%d span=%d parallelism=%.1f" (thread_count t)
    (proc_count t) w s
    (float_of_int w /. float_of_int (max 1 s))
