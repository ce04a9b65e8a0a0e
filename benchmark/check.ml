(* The correctness gate.  A cold pass is compared program by program
   against the boxed reference detector: races in order, racy
   locations, SP query count.  Every later pass must reproduce the
   verified totals exactly.  Anything else counts as failed. *)

module Drivers = Spr_race.Drivers
module Server = Spr_ingest.Server

let same (want : Drivers.serial_result) ~races ~racy_locs ~sp_queries =
  want.races = races && want.racy_locs = racy_locs && want.sp_queries = sp_queries

(* Programs whose result differs from the reference; every request is
   one program, so a decode error or a missing result fails it. *)
let server_failures (want : Drivers.serial_result array) got =
  let n = ref 0 in
  Array.iteri
    (fun i -> function
      | Ok [ (r : Server.program_result) ]
        when same want.(i) ~races:r.races ~racy_locs:r.racy_locs ~sp_queries:r.sp_queries ->
          ()
      | Ok _ | Error _ -> incr n)
    got;
  !n

let inproc_failures (want : Drivers.serial_result array) (got : Drivers.serial_result array) =
  let n = ref 0 in
  Array.iteri
    (fun i (g : Drivers.serial_result) ->
      if not (same want.(i) ~races:g.races ~racy_locs:g.racy_locs ~sp_queries:g.sp_queries)
      then incr n)
    got;
  !n

(* What every pass must reproduce as its [Server.stats] delta, summed
   from the input and the reference rather than from a server. *)
type totals = { programs : int; events : int; accesses : int; races : int; sp_queries : int }

let totals (s : Server.stats) =
  {
    programs = s.programs;
    events = s.events;
    accesses = s.accesses;
    races = s.races;
    sp_queries = s.sp_queries;
  }

let expected (input : Workload.input) =
  Array.fold_left
    (fun acc (r : Drivers.serial_result) ->
      {
        acc with
        races = acc.races + List.length r.races;
        sp_queries = acc.sp_queries + r.sp_queries;
      })
    {
      programs = Array.length input.programs;
      events = input.events;
      accesses =
        Array.fold_left (fun a p -> a + Spr_prog.Fj_program.access_count p) 0 input.programs;
      races = 0;
      sp_queries = 0;
    }
    input.reference

let diff a b =
  {
    programs = a.programs - b.programs;
    events = a.events - b.events;
    accesses = a.accesses - b.accesses;
    races = a.races - b.races;
    sp_queries = a.sp_queries - b.sp_queries;
  }
