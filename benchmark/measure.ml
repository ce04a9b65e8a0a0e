(* The untraced, closed-loop run of one workload: three verified
   set-ups, a warm pass, the memory the warmed detector retains, then
   the timed passes.  Every request and every pass is checked; anything
   that does not reproduce the verified answers counts as failed. *)

module Server = Spr_ingest.Server
module Codec = Spr_ingest.Codec
module Drivers = Spr_race.Drivers

(* Monotonic, nanosecond resolution: per-request latencies are tens of
   microseconds, too close to gettimeofday's microsecond steps. *)
let now () = Int64.to_float (Monotonic_clock.now ()) *. 1e-9

type budget = Passes of int | Seconds of float

let repeat budget f =
  match budget with
  | Passes n ->
      for _ = 1 to n do
        f ()
      done
  | Seconds s ->
      let t0 = now () in
      while now () -. t0 < s do
        f ()
      done

(* Growable float buffer (unboxed stores, so sampling allocates
   nothing). *)
type floats = { mutable a : float array; mutable n : int }

let floats () = { a = Array.make 256 0.0; n = 0 }

let add b x =
  if b.n = Array.length b.a then b.a <- Array.append b.a b.a;
  b.a.(b.n) <- x;
  b.n <- b.n + 1

let contents b = Array.sub b.a 0 b.n

let live_words () =
  Gc.compact ();
  (Gc.stat ()).Gc.live_words

let mb words = float_of_int (words * (Sys.word_size / 8)) /. 1e6

type t = {
  setup_s : float array;
  pass_s : float array;  (** time the detector was busy, per pass *)
  latency_us : float array;  (** per request: its median over the timed passes *)
  totals : Check.totals;  (** what every pass reproduces *)
  resident_mb : float;
  minor_words_per_event : float;  (** on the client's domain *)
  collect_us : float;  (** [run_string ~collect:true] minus [drive], per request *)
  attempted : int;  (** programs *)
  failed : int;
}

type tally = { mutable attempted : int; mutable failed : int }

let record tally ~attempted ~failed =
  tally.attempted <- tally.attempted + attempted;
  tally.failed <- tally.failed + failed

(* What a pass needs from a client. *)
type 'a client = {
  serve : int -> 'a;  (** answer program [i]; the only timed call *)
  ok : int -> 'a -> bool;
  totals : unit -> Check.totals option;  (** running totals, where kept *)
}

(* Every program once, in order; returns the busy time.  A pass whose
   totals differ from [expect] fails every program in it. *)
let pass c (input : Workload.input) ~expect tally ~sample =
  let n = Array.length input.traces in
  let before = c.totals () in
  let busy = ref 0.0 and bad = ref 0 in
  for i = 0 to n - 1 do
    let t0 = now () in
    let r = c.serve i in
    let dt = now () -. t0 in
    busy := !busy +. dt;
    sample dt;
    if not (c.ok i r) then incr bad
  done;
  let bad =
    match (before, c.totals ()) with Some b, Some a when Check.diff a b <> expect -> n | _ -> !bad
  in
  record tally ~attempted:n ~failed:bad;
  !busy

(* The timed passes: busy time per pass, each request's median latency
   over the passes, and minor words per event.  Every pass repeats the
   same requests, so a request's median is its latency with the
   machine's interference filtered out; percentiles are taken across
   requests. *)
let timed c (input : Workload.input) ~expect tally budget =
  let n = Array.length input.traces in
  let latencies = floats () and passes = floats () in
  let sample dt = add latencies (dt *. 1e6) in
  let m0 = Gc.minor_words () in
  repeat budget (fun () -> add passes (pass c input ~expect tally ~sample));
  let minor = Gc.minor_words () -. m0 in
  let request i = Array.init passes.n (fun k -> latencies.a.((k * n) + i)) in
  ( contents passes,
    Array.init n (fun i -> Spr_util.Stats.median (request i)),
    minor /. float_of_int (passes.n * input.events) )

(* Three set-ups, each [create] plus a verified cold pass; the last
   set-up is kept, with the live heap just before it. *)
let setups ~create ~cold ~close =
  let times = Array.make 3 0.0 in
  let rec go i =
    let live0 = live_words () in
    let t0 = now () in
    let x = create () in
    let check = cold x in
    times.(i) <- now () -. t0;
    check x;
    if i = 2 then (x, live0)
    else begin
      close x;
      go (i + 1)
    end
  in
  let x, live0 = go 0 in
  (times, x, live0)

let serve ~shards ~drive (input : Workload.input) budget ~layers =
  let expect = Check.expected input in
  let tally = { attempted = 0; failed = 0 } in
  (* The cold pass returns its check, run outside the timed window. *)
  let cold srv =
    let results = Array.map (Server.run_string ~collect:true srv) input.traces in
    fun srv ->
      let n = Array.length results in
      let bad = if Check.totals (Server.stats srv) = expect then 0 else n in
      record tally ~attempted:n ~failed:(max bad (Check.server_failures input.reference results))
  in
  let setup_s, srv, live0 =
    setups ~create:(fun () -> Server.create ~shards ()) ~cold ~close:Server.close
  in
  let c =
    {
      serve =
        (fun i ->
          let s = input.traces.(i) in
          if not drive then Result.is_ok (Server.run_string ~collect:true srv s)
          else match Server.drive srv s with () -> true | exception Codec.Corrupt _ -> false);
      ok = (fun _ ok -> ok);
      totals = (fun () -> Some (Check.totals (Server.stats srv)));
    }
  in
  ignore (pass c input ~expect tally ~sample:ignore);
  let resident = live_words () - live0 in
  let pass_s, latency_us, minor = timed c input ~expect tally budget in
  (* The price of materializing results: the same requests with and
     without [~collect:true], median of three. *)
  let collect_us =
    if not layers then 0.0
    else
      let time f =
        let t0 = now () in
        Array.iter f input.traces;
        now () -. t0
      in
      Spr_util.Stats.median
        (Array.init 3 (fun _ ->
             let c = time (fun s -> ignore (Server.run_string ~collect:true srv s)) in
             c -. time (Server.drive srv)))
      *. 1e6
      /. float_of_int (Array.length input.traces)
  in
  Server.close srv;
  {
    setup_s;
    pass_s;
    latency_us;
    totals = expect;
    resident_mb = mb resident;
    minor_words_per_event = minor;
    collect_us;
    attempted = tally.attempted;
    failed = tally.failed;
  }

(* [Drivers.detect_serial_fused] on the programs in memory.  Its
   results are checked one by one, so there are no running totals. *)
let inproc (input : Workload.input) budget =
  let expect = Check.expected input in
  let tally = { attempted = 0; failed = 0 } in
  let cold () =
    let got = Array.map Drivers.detect_serial_fused input.programs in
    fun () ->
      record tally ~attempted:(Array.length got)
        ~failed:(Check.inproc_failures input.reference got)
  in
  let setup_s, (), _ = setups ~create:ignore ~cold ~close:ignore in
  let c =
    {
      serve = (fun i -> Drivers.detect_serial_fused input.programs.(i));
      ok =
        (fun i (r : Drivers.serial_result) ->
          let want = input.reference.(i) in
          r.sp_queries = want.sp_queries && List.length r.races = List.length want.races);
      totals = (fun () -> None);
    }
  in
  ignore (pass c input ~expect tally ~sample:ignore);
  (* The detector state of the largest program, after its run. *)
  let largest = ref 0 in
  Array.iteri
    (fun i s -> if String.length s > String.length input.traces.(!largest) then largest := i)
    input.traces;
  let live0 = live_words () in
  let f = Drivers.Fused.create input.programs.(!largest) in
  Drivers.Fused.run f;
  let resident = live_words () - live0 in
  ignore (Sys.opaque_identity (Drivers.Fused.detector f));
  let pass_s, latency_us, minor = timed c input ~expect tally budget in
  {
    setup_s;
    pass_s;
    latency_us;
    totals = expect;
    resident_mb = mb resident;
    minor_words_per_event = minor;
    collect_us = 0.0;
    attempted = tally.attempted;
    failed = tally.failed;
  }

let run (w : Workload.t) budget ~layers =
  let input = Lazy.force w.input in
  match w.client with
  | Drive shards -> serve ~shards ~drive:true input budget ~layers
  | Requests -> serve ~shards:1 ~drive:false input budget ~layers
  | Inproc -> inproc input budget
