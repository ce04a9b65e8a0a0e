module D = Spr_race.Detector
module Hook = Spr_schedhook.Hook

type t = {
  id : int;
  precedes : executed:int -> current:int -> bool;
  mutable det : D.t;
  mutable det_width : int;  (* shadow capacity; grows monotonically *)
  mutable base_ : int;
  mutable buf : int array;  (* 3 ints per entry: loc<<1|write, tid, seq *)
  mutable cap : int;  (* batch capacity, in entries *)
  mutable len : int;
  seqs : int Spr_util.Vec.t;  (* race seq numbers, aligned with det races *)
  mutable drained : int;
}

let create ~id ~precedes () =
  {
    id;
    precedes;
    det = D.create ~locs:1 ~precedes ();
    det_width = 1;
    base_ = 0;
    buf = [||];
    cap = 0;
    len = 0;
    seqs = Spr_util.Vec.create ();
    drained = 0;
  }

let prepare t ~base ~width ~batch =
  if width > t.det_width then begin
    t.det <- D.create ~locs:width ~precedes:t.precedes ();
    t.det_width <- width
  end
  else D.reset_prefix t.det ~upto:width;
  if batch * 3 > Array.length t.buf then t.buf <- Array.make (batch * 3) 0;
  t.cap <- batch;
  t.base_ <- base;
  t.len <- 0;
  Spr_util.Vec.clear t.seqs;
  t.drained <- 0

let base t = t.base_

let push t ~loc ~write ~tid ~seq =
  let k = t.len * 3 in
  t.buf.(k) <- ((loc - t.base_) lsl 1) lor (if write then 1 else 0);
  t.buf.(k + 1) <- tid;
  t.buf.(k + 2) <- seq;
  t.len <- t.len + 1

let is_full t = t.len >= t.cap

let pending t = t.len

let drain t =
  Hook.yield ~layer:"ingest" ~name:"drain-batch" ();
  let n = t.len in
  let buf = t.buf in
  let det = t.det in
  for i = 0 to n - 1 do
    if i > 0 && i land 1023 = 0 then
      Hook.yield ~layer:"ingest" ~name:"drain-step" ();
    let k = i * 3 in
    let lw = buf.(k) in
    let before = D.race_count det in
    D.access_raw det ~current:buf.(k + 1) ~loc:(lw lsr 1) ~write:(lw land 1 = 1);
    (* A single access can expose up to three races (writer + two
       readers); stamp each with the access's sequence number so the
       server can restore global detection order. *)
    for _ = D.race_count det - before downto 1 do
      Spr_util.Vec.push t.seqs buf.(k + 2)
    done
  done;
  t.drained <- t.drained + n;
  t.len <- 0

let detector t = t.det

let race_seqs t = t.seqs

let accesses_drained t = t.drained

(* --- Worker-domain pool ------------------------------------------- *)

module Pool = struct
  type pool = {
    m : Mutex.t;
    work_cv : Condition.t;
    done_cv : Condition.t;
    mutable gen : int;  (* bumped per broadcast *)
    mutable tasks : (unit -> unit) array;
    mutable remaining : int;
    mutable quit : bool;
    mutable domains : unit Domain.t array;
  }

  let worker p slot () =
    let seen = ref 0 in
    let stop = ref false in
    while not !stop do
      Mutex.lock p.m;
      while p.gen = !seen && not p.quit do
        Condition.wait p.work_cv p.m
      done;
      if p.quit then begin
        Mutex.unlock p.m;
        stop := true
      end
      else begin
        seen := p.gen;
        let tasks = p.tasks in
        Mutex.unlock p.m;
        let slot_task = slot + 1 in
        if slot_task < Array.length tasks then tasks.(slot_task) ();
        Mutex.lock p.m;
        p.remaining <- p.remaining - 1;
        if p.remaining = 0 then Condition.signal p.done_cv;
        Mutex.unlock p.m
      end
    done

  let create ~workers =
    let p =
      {
        m = Mutex.create ();
        work_cv = Condition.create ();
        done_cv = Condition.create ();
        gen = 0;
        tasks = [||];
        remaining = 0;
        quit = false;
        domains = [||];
      }
    in
    p.domains <- Array.init (max 0 workers) (fun i -> Domain.spawn (worker p i));
    p

  let run p tasks =
    let workers = Array.length p.domains in
    if Array.length tasks > workers + 1 then
      invalid_arg "Shard.Pool.run: more tasks than domains";
    Mutex.lock p.m;
    p.tasks <- tasks;
    p.gen <- p.gen + 1;
    p.remaining <- workers;
    Condition.broadcast p.work_cv;
    Mutex.unlock p.m;
    if Array.length tasks > 0 then tasks.(0) ();
    Mutex.lock p.m;
    while p.remaining > 0 do
      Condition.wait p.done_cv p.m
    done;
    Mutex.unlock p.m

  let shutdown p =
    Mutex.lock p.m;
    p.quit <- true;
    Condition.broadcast p.work_cv;
    Mutex.unlock p.m;
    Array.iter Domain.join p.domains;
    p.domains <- [||]
end
