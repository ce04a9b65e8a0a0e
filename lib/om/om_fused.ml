(* Fused packed English/Hebrew order maintenance.

   SP-order maintains *two* total orders over the *same* set of
   parse-tree nodes.  Running two independent OM structures (even two
   packed ones) means two allocations' worth of arrays, two handles per
   node, and the English and Hebrew state of a node living on different
   cache lines.  This structure fuses them: one element handle (an
   [int]) denotes the node in both orders, and the per-item state of
   both orders is interleaved in a single struct-of-arrays record of
   stride 8 —

     [e_tag; e_prev; e_next; e_bkt; h_tag; h_prev; h_next; h_bkt]

   — so a fork/join (which touches both orders of three nodes) and an
   SP query (which compares both orders of two nodes) land on the same
   cache lines they would have had to fetch twice from two structures.

   Each order ("plane") runs the exact same two-level algorithm as
   {!Om}/{!Om_packed}: items grouped into buckets of at most [capacity],
   bucket order kept by one-level list labeling over the 60-bit tag
   universe, items inside a bucket carrying evenly spread local tags.
   The per-plane operation sequences are the ones {!Sp_order} issues
   against two separate structures, so the relabel counters are
   bit-identical to running a boxed English {!Om} and Hebrew {!Om} side
   by side (pinned by qcheck).  Item slots are shared between the
   planes and recycled through one intrusive free list; the insert,
   query and delete paths allocate nothing, and {!reset} rewinds to the
   single base element without releasing any array — the property the
   end-to-end alloc-gate leans on. *)

let capacity = 62

let universe = Labeling.universe

let t_param = 1.3

let nil = -1

(* Marks a slot that is not a live member of the orders: deleted (on
   the free list) or never used.  Stored in the English bucket field,
   so liveness checks are one array load. *)
let dead = -2

(* Field offsets inside one stride-8 item record. *)
let stride_bits = 3

let f_tag = 0

let f_prev = 1

let f_next = 2

let f_bkt = 3

let eng_base = 0

let heb_base = 4

type elt = int

type plane = {
  base : int;  (* item-field offset of this plane: 0 English, 4 Hebrew *)
  pname : string;
  (* Buckets, struct-of-arrays, plane-local.  [b_next] doubles as the
     free-list link; [b_first] is [dead] for dead slots. *)
  mutable b_tag : int array;
  mutable b_prev : int array;
  mutable b_next : int array;
  mutable b_first : int array;
  mutable b_size : int array;
  mutable b_top : int;
  mutable b_free : int;
  mutable b_nfree : int;
  mutable nbuckets : int;
  st : Om_intf.stats;
}

type t = {
  (* Items, one interleaved record of 8 ints per slot.  The English
     [f_next] field doubles as the free-list link of dead slots. *)
  mutable items : int array;
  mutable i_top : int;  (* slots ever used *)
  mutable i_free : int;  (* head of the item free list *)
  mutable i_nfree : int;
  mutable size : int;
  eng : plane;
  heb : plane;
  mutable sink : Spr_obs.Sink.t;
  (* The pinned element ([nil] = none) and its labels in both planes:
     bucket, bucket tag, item tag.  Valid until the next mutation, which
     clears [pin]. *)
  mutable pin : int;
  mutable pin_ebkt : int;
  mutable pin_ebtag : int;
  mutable pin_etag : int;
  mutable pin_hbkt : int;
  mutable pin_hbtag : int;
  mutable pin_htag : int;
}

let name = "om-fused"

let set_sink t sink = t.sink <- sink

let make_plane base pname bcap =
  {
    base;
    pname;
    b_tag = Array.make bcap 0;
    b_prev = Array.make bcap nil;
    b_next = Array.make bcap nil;
    b_first = Array.make bcap dead;
    b_size = Array.make bcap 0;
    b_top = 1;
    b_free = nil;
    b_nfree = 0;
    nbuckets = 1;
    st = Om_intf.fresh_stats ();
  }

(* Restore a plane's bucket 0 to the create-time state: one bucket
   holding exactly the base item. *)
let reset_plane items p =
  p.b_top <- 1;
  p.b_free <- nil;
  p.b_nfree <- 0;
  p.nbuckets <- 1;
  p.b_tag.(0) <- 0;
  p.b_prev.(0) <- nil;
  p.b_next.(0) <- nil;
  p.b_first.(0) <- 0;
  p.b_size.(0) <- 1;
  p.st.Om_intf.inserts <- 0;
  p.st.Om_intf.relabel_passes <- 0;
  p.st.Om_intf.items_moved <- 0;
  p.st.Om_intf.max_range <- 0;
  items.(p.base + f_tag) <- universe / 2;
  items.(p.base + f_prev) <- nil;
  items.(p.base + f_next) <- nil;
  items.(p.base + f_bkt) <- 0

let reset t =
  t.pin <- nil;
  t.i_top <- 1;
  t.i_free <- nil;
  t.i_nfree <- 0;
  t.size <- 1;
  reset_plane t.items t.eng;
  reset_plane t.items t.heb

let create () =
  let icap = 64 and bcap = 8 in
  let t =
    {
      items = Array.make (icap lsl stride_bits) nil;
      i_top = 1;
      i_free = nil;
      i_nfree = 0;
      size = 1;
      eng = make_plane eng_base "eng" bcap;
      heb = make_plane heb_base "heb" bcap;
      sink = Spr_obs.Sink.null;
      pin = nil;
      pin_ebkt = nil;
      pin_ebtag = 0;
      pin_etag = 0;
      pin_hbkt = nil;
      pin_hbtag = 0;
      pin_htag = 0;
    }
  in
  reset t;
  t

let base _t = 0

let alive t e =
  e >= 0 && e < t.i_top && t.items.((e lsl stride_bits) + eng_base + f_bkt) >= 0

let check_alive ctx t e = if not (alive t e) then invalid_arg (ctx ^ ": deleted element")

(* ------------------------------------------------------------------ *)
(* Slot allocation.                                                    *)

let grow a init =
  let n = Array.length a in
  let b = Array.make (2 * n) init in
  Array.blit a 0 b 0 n;
  b

let alloc_item t =
  if t.i_free <> nil then begin
    let s = t.i_free in
    t.i_free <- t.items.((s lsl stride_bits) + eng_base + f_next);
    t.i_nfree <- t.i_nfree - 1;
    s
  end
  else begin
    if t.i_top lsl stride_bits = Array.length t.items then t.items <- grow t.items nil;
    let s = t.i_top in
    t.i_top <- t.i_top + 1;
    s
  end

let alloc_bucket p =
  if p.b_free <> nil then begin
    let s = p.b_free in
    p.b_free <- p.b_next.(s);
    p.b_nfree <- p.b_nfree - 1;
    s
  end
  else begin
    if p.b_top = Array.length p.b_tag then begin
      p.b_tag <- grow p.b_tag 0;
      p.b_prev <- grow p.b_prev nil;
      p.b_next <- grow p.b_next nil;
      p.b_first <- grow p.b_first dead;
      p.b_size <- grow p.b_size 0
    end;
    let s = p.b_top in
    p.b_top <- p.b_top + 1;
    s
  end

(* ------------------------------------------------------------------ *)
(* Top level: bucket tags via one-level labeling, per plane.  Same
   Bender et al. range search as {!Om_packed.top_rebalance}, with the
   density thresholds precomputed so no boxed float crosses a call
   boundary (alloc-gate).                                              *)

let top_thresholds =
  Array.init (Labeling.universe_bits + 1) (fun i -> (2.0 /. t_param) ** float_of_int i)

let top_rebalance t p b =
  ignore t;
  let btag = p.b_tag and bprev = p.b_prev and bnext = p.b_next in
  let i = ref 1 in
  let done_ = ref false in
  while not !done_ do
    if !i > Labeling.universe_bits then failwith "Om_fused: tag universe exhausted";
    let width = 1 lsl !i in
    let lo = btag.(b) land lnot (width - 1) in
    let hi = lo + width in
    let first = ref b in
    let p' = ref bprev.(b) in
    while !p' <> nil && btag.(!p') >= lo do
      first := !p';
      p' := bprev.(!p')
    done;
    let count = ref 1 in
    let nx = ref bnext.(!first) in
    while !nx <> nil && btag.(!nx) < hi do
      incr count;
      nx := bnext.(!nx)
    done;
    if float_of_int !count <= top_thresholds.(!i) && width >= 8 * !count then begin
      let count = !count in
      Om_intf.count_pass p.st count;
      Spr_obs.Sink.emit_om_relabel t.sink ~om:name ~moved:count;
      let cell = width / count in
      let bk = ref !first in
      let tag = ref (lo + (cell / 2)) in
      for _ = 1 to count do
        btag.(!bk) <- !tag;
        tag := !tag + cell;
        bk := bnext.(!bk)
      done;
      done_ := true
    end
    else incr i
  done

let top_gap_after p b =
  let nx = p.b_next.(b) in
  let hi = if nx = nil then universe else p.b_tag.(nx) in
  hi - p.b_tag.(b) - 1

(* Fresh empty bucket placed immediately after [b] in the plane's top
   order. *)
let new_bucket_after t p b =
  if top_gap_after p b < 1 then top_rebalance t p b;
  let gap = top_gap_after p b in
  assert (gap >= 1);
  let b' = alloc_bucket p in
  p.b_tag.(b') <- p.b_tag.(b) + 1 + ((gap - 1) / 2);
  p.b_prev.(b') <- b;
  p.b_next.(b') <- p.b_next.(b);
  p.b_first.(b') <- nil;
  p.b_size.(b') <- 0;
  (if p.b_next.(b) <> nil then p.b_prev.(p.b_next.(b)) <- b');
  p.b_next.(b) <- b';
  p.nbuckets <- p.nbuckets + 1;
  b'

(* ------------------------------------------------------------------ *)
(* Bottom level: local tags inside one bucket of one plane.            *)

(* Give the [count] items of plane [p] that start at [first] evenly
   spread local tags and bucket [b]; returns the last of them. *)
let spread t p first count b =
  let items = t.items in
  let base = p.base in
  let cell = universe / count in
  let it = ref first in
  let tag = ref (cell / 2) in
  for i = 1 to count do
    let ir = (!it lsl stride_bits) + base in
    items.(ir + f_tag) <- !tag;
    items.(ir + f_bkt) <- b;
    tag := !tag + cell;
    if i < count then it := items.(ir + f_next)
  done;
  !it

let respace t p b =
  let count = p.b_size.(b) in
  if count > 0 then begin
    Om_intf.count_pass p.st count;
    Spr_obs.Sink.emit_om_relabel t.sink ~om:name ~moved:count;
    ignore (spread t p p.b_first.(b) count b)
  end

(* Split a full bucket: move its upper half into a fresh bucket placed
   right after it in this plane, and respace both halves.  One walk does
   it all: the kept half gets the tags [respace] would give it, and the
   walk goes on from its last item to give the moved half its tags and
   new bucket.  The counter updates and sink events are those of
   [respace] on each half, in the same order. *)
let split t p b =
  let b' = new_bucket_after t p b in
  let items = t.items in
  let base = p.base in
  let keep = p.b_size.(b) / 2 in
  let moved = p.b_size.(b) - keep in
  let kr = (spread t p p.b_first.(b) keep b lsl stride_bits) + base in
  let moved_first = items.(kr + f_next) in
  items.(kr + f_next) <- nil;
  items.((moved_first lsl stride_bits) + base + f_prev) <- nil;
  ignore (spread t p moved_first moved b');
  p.b_first.(b') <- moved_first;
  p.b_size.(b') <- moved;
  p.b_size.(b) <- keep;
  Spr_obs.Sink.emit_om_bucket_split t.sink ~om:name;
  Om_intf.count_pass p.st keep;
  Spr_obs.Sink.emit_om_relabel t.sink ~om:name ~moved:keep;
  Om_intf.count_pass p.st moved;
  Spr_obs.Sink.emit_om_relabel t.sink ~om:name ~moved

let local_gap_after t p x =
  let items = t.items in
  let nx = items.((x lsl stride_bits) + p.base + f_next) in
  let hi = if nx = nil then universe else items.((nx lsl stride_bits) + p.base + f_tag) in
  hi - items.((x lsl stride_bits) + p.base + f_tag) - 1

(* Link the (already allocated) slot [y] immediately after [x] in plane
   [p] — {!Om_packed.insert_after} with the slot allocation factored
   out, so one slot can be linked into both planes.  The split/respace
   decisions and counter accounting are step-for-step those of
   {!Om}/{!Om_packed}, which is what makes the per-plane counters
   bit-identical to boxed structures driven with the same sequence. *)
let link_after t p x y =
  let bx = t.items.((x lsl stride_bits) + p.base + f_bkt) in
  if p.b_size.(bx) >= capacity then split t p bx;
  let items = t.items in
  let base = p.base in
  let b = items.((x lsl stride_bits) + base + f_bkt) in
  if local_gap_after t p x < 1 then respace t p b;
  let gap = local_gap_after t p x in
  assert (gap >= 1);
  let xr = (x lsl stride_bits) + base and yr = (y lsl stride_bits) + base in
  items.(yr + f_tag) <- items.(xr + f_tag) + 1 + ((gap - 1) / 2);
  items.(yr + f_prev) <- x;
  items.(yr + f_next) <- items.(xr + f_next);
  items.(yr + f_bkt) <- b;
  (if items.(xr + f_next) <> nil then
     items.((items.(xr + f_next) lsl stride_bits) + base + f_prev) <- y);
  items.(xr + f_next) <- y;
  p.b_size.(b) <- p.b_size.(b) + 1;
  p.st.Om_intf.inserts <- p.st.Om_intf.inserts + 1

(* Link [a] immediately after [x], then [b] immediately after [a], in
   plane [p] — [link_after t p x a; link_after t p a b] with one bucket,
   tag and gap lookup.  When [x]'s bucket has room for both and the gap
   after [x] holds both, neither step would split or respace, so the
   tags are computed with the same arithmetic the two steps would use:
   [a] halves the gap after [x], [b] halves what is left after [a].
   Anywhere else the two steps run as they are, so the state reached is
   the same one in every case. *)
let link_pair t p x a b =
  let items = t.items in
  let base = p.base in
  let xr = (x lsl stride_bits) + base in
  let bx = items.(xr + f_bkt) in
  let nx = items.(xr + f_next) in
  let hi = if nx = nil then universe else items.((nx lsl stride_bits) + base + f_tag) in
  let xtag = items.(xr + f_tag) in
  let gap = hi - xtag - 1 in
  if p.b_size.(bx) <= capacity - 2 && gap >= 2 then begin
    let ar = (a lsl stride_bits) + base and br = (b lsl stride_bits) + base in
    let atag = xtag + 1 + ((gap - 1) / 2) in
    items.(ar + f_tag) <- atag;
    items.(ar + f_prev) <- x;
    items.(ar + f_next) <- b;
    items.(ar + f_bkt) <- bx;
    items.(br + f_tag) <- atag + 1 + ((hi - atag - 2) / 2);
    items.(br + f_prev) <- a;
    items.(br + f_next) <- nx;
    items.(br + f_bkt) <- bx;
    (if nx <> nil then items.((nx lsl stride_bits) + base + f_prev) <- b);
    items.(xr + f_next) <- a;
    p.b_size.(bx) <- p.b_size.(bx) + 2;
    p.st.Om_intf.inserts <- p.st.Om_intf.inserts + 2
  end
  else begin
    link_after t p x a;
    link_after t p a b
  end

(* ------------------------------------------------------------------ *)
(* The fused ADT.                                                      *)

(* [insert_children t x ~parallel] allocates two fresh elements (the
   parse-tree children of [x]) and places them in both orders at once:
   English always [x; left; right]; Hebrew [x; left; right] at S-nodes
   and [x; right; left] at P-nodes (the direction flip that makes
   Corollary 2 work).  Returned packed as [(left lsl 31) lor right] so
   the hot path allocates no tuple. *)
let insert_children_packed t x ~parallel =
  check_alive "Om_fused.insert_children" t x;
  t.pin <- nil;
  let l = alloc_item t in
  let r = alloc_item t in
  (* English: left right after x, right after left.  Hebrew: flipped
     at P-nodes. *)
  link_pair t t.eng x l r;
  if parallel then link_pair t t.heb x r l else link_pair t t.heb x l r;
  t.size <- t.size + 2;
  (l lsl 31) lor r

(* [insert_after t x] allocates one fresh element and places it
   immediately after [x] in both orders: a lone S-child of [x], for
   walks that only ever append to a region ending at [x]. *)
let insert_after t x =
  check_alive "Om_fused.insert_after" t x;
  t.pin <- nil;
  let y = alloc_item t in
  link_after t t.eng x y;
  link_after t t.heb x y;
  t.size <- t.size + 1;
  y

let packed_left lr = lr lsr 31

let packed_right lr = lr land 0x7FFFFFFF

let insert_children t x ~parallel =
  let lr = insert_children_packed t x ~parallel in
  (packed_left lr, packed_right lr)

let precedes_plane t p x y =
  let items = t.items in
  let bx = items.((x lsl stride_bits) + p.base + f_bkt)
  and by = items.((y lsl stride_bits) + p.base + f_bkt) in
  if bx = by then
    items.((x lsl stride_bits) + p.base + f_tag) < items.((y lsl stride_bits) + p.base + f_tag)
  else p.b_tag.(bx) < p.b_tag.(by)

let precedes_eng t x y =
  check_alive "Om_fused.precedes" t x;
  check_alive "Om_fused.precedes" t y;
  precedes_plane t t.eng x y

let precedes_heb t x y =
  check_alive "Om_fused.precedes" t x;
  check_alive "Om_fused.precedes" t y;
  precedes_plane t t.heb x y

(* English order of two operands with their liveness check folded in:
   the English bucket fields the comparison needs are the ones that
   hold [dead] for a dead slot, so each is loaded once for both. *)
let precedes_eng_checked ctx t x y =
  let top = t.i_top in
  if x < 0 || y < 0 || x >= top || y >= top then invalid_arg (ctx ^ ": deleted element");
  let items = t.items in
  let xr = (x lsl stride_bits) + eng_base and yr = (y lsl stride_bits) + eng_base in
  let bx = items.(xr + f_bkt) and by = items.(yr + f_bkt) in
  if bx < 0 || by < 0 then invalid_arg (ctx ^ ": deleted element");
  if bx = by then items.(xr + f_tag) < items.(yr + f_tag) else t.eng.b_tag.(bx) < t.eng.b_tag.(by)

(* Cache [y]'s labels in both planes.  Every mutator clears the pin,
   so the cache can never go stale; it only saves the loads. *)
let pin t y =
  check_alive "Om_fused.pin" t y;
  let items = t.items in
  let yr = y lsl stride_bits in
  let eb = items.(yr + eng_base + f_bkt) and hb = items.(yr + heb_base + f_bkt) in
  t.pin <- y;
  t.pin_ebkt <- eb;
  t.pin_ebtag <- t.eng.b_tag.(eb);
  t.pin_etag <- items.(yr + eng_base + f_tag);
  t.pin_hbkt <- hb;
  t.pin_hbtag <- t.heb.b_tag.(hb);
  t.pin_htag <- items.(yr + heb_base + f_tag)

(* [sp_precedes t x (pinned element)]: only [x]'s labels are loaded,
   under the same range and liveness checks as the unpinned query. *)
let precedes_pinned t x =
  if x < 0 || x >= t.i_top then invalid_arg "Om_fused.sp_precedes: deleted element";
  let items = t.items in
  let xr = x lsl stride_bits in
  let bx = items.(xr + eng_base + f_bkt) in
  if bx < 0 then invalid_arg "Om_fused.sp_precedes: deleted element";
  (if bx = t.pin_ebkt then items.(xr + eng_base + f_tag) < t.pin_etag
   else t.eng.b_tag.(bx) < t.pin_ebtag)
  &&
  let hx = items.(xr + heb_base + f_bkt) in
  if hx = t.pin_hbkt then items.(xr + heb_base + f_tag) < t.pin_htag
  else t.heb.b_tag.(hx) < t.pin_hbtag

(* Both labels of both operands come out of two stride-8 records — one
   fused query instead of two structure lookups.  An unset pin is
   [nil], which the [y >= 0] test keeps from matching any handle. *)
let sp_precedes t x y =
  if y >= 0 && y = t.pin then precedes_pinned t x
  else precedes_eng_checked "Om_fused.sp_precedes" t x y && precedes_plane t t.heb x y

let sp_parallel t x y =
  (* OCaml evaluates [<>]'s right operand first; the let makes the
     liveness check run before the Hebrew loads. *)
  let eng = precedes_eng_checked "Om_fused.sp_parallel" t x y in
  eng <> precedes_plane t t.heb x y

(* Unlink [e] from plane [p], retiring the plane's bucket if it
   empties. *)
let unlink t p e =
  let items = t.items in
  let base = p.base in
  let er = (e lsl stride_bits) + base in
  let b = items.(er + f_bkt) in
  let pv = items.(er + f_prev) and nx = items.(er + f_next) in
  (if pv <> nil then items.((pv lsl stride_bits) + base + f_next) <- nx
   else p.b_first.(b) <- nx);
  (if nx <> nil then items.((nx lsl stride_bits) + base + f_prev) <- pv);
  items.(er + f_prev) <- nil;
  items.(er + f_next) <- nil;
  p.b_size.(b) <- p.b_size.(b) - 1;
  if p.b_size.(b) = 0 then begin
    let bp = p.b_prev.(b) and bn = p.b_next.(b) in
    (if bp <> nil then p.b_next.(bp) <- bn);
    (if bn <> nil then p.b_prev.(bn) <- bp);
    p.b_first.(b) <- dead;
    p.b_prev.(b) <- nil;
    p.b_next.(b) <- p.b_free;
    p.b_free <- b;
    p.b_nfree <- p.b_nfree + 1;
    p.nbuckets <- p.nbuckets - 1
  end

let delete t e =
  check_alive "Om_fused.delete" t e;
  if e = 0 then invalid_arg "Om_fused.delete: cannot delete base";
  t.pin <- nil;
  unlink t t.heb e;
  unlink t t.eng e;
  (* Retire the slot: mark dead in the English bucket field, chain it
     onto the free list through the English next field. *)
  let er = (e lsl stride_bits) + eng_base in
  t.items.(er + f_bkt) <- dead;
  t.items.(er + f_next) <- t.i_free;
  t.i_free <- e;
  t.i_nfree <- t.i_nfree + 1;
  t.size <- t.size - 1

let size t = t.size

let stats_eng t = t.eng.st

let stats_heb t = t.heb.st

let item_slots t = t.i_top

let free_items t = t.i_nfree

let bucket_counts t = (t.eng.nbuckets, t.heb.nbuckets)

(* ------------------------------------------------------------------ *)
(* O(n) self-check (test hook).                                        *)

let check_plane t p =
  let fail what = failwith ("Om_fused.check_invariants: " ^ p.pname ^ " " ^ what) in
  let items = t.items in
  let base = p.base in
  (* Bucket free list: every listed slot dead, count agrees. *)
  let seen = ref 0 in
  let s = ref p.b_free in
  while !s <> nil do
    if !s < 0 || !s >= p.b_top then fail "bucket free link out of range";
    if p.b_first.(!s) <> dead then fail "live slot on bucket free list";
    incr seen;
    s := p.b_next.(!s)
  done;
  if !seen <> p.b_nfree then fail "bucket free count mismatch";
  if p.b_top - p.b_nfree <> p.nbuckets then fail "bucket slot accounting mismatch";
  (* Walk the bucket list from the head (left of the base's bucket). *)
  let head = ref items.(base + f_bkt) in
  while p.b_prev.(!head) <> nil do
    head := p.b_prev.(!head)
  done;
  let total = ref 0 and nbuckets = ref 0 in
  let b = ref !head and prev_btag = ref min_int and prev_b = ref nil in
  while !b <> nil do
    if p.b_first.(!b) = dead then fail "dead bucket linked";
    if p.b_tag.(!b) <= !prev_btag then fail "bucket tags not increasing";
    if p.b_prev.(!b) <> !prev_b then fail "broken bucket back-link";
    let n = ref 0 in
    let it = ref p.b_first.(!b) and prev_ltag = ref min_int and prev_i = ref nil in
    if !it = nil then fail "empty bucket linked";
    while !it <> nil do
      let ir = (!it lsl stride_bits) + base in
      if items.((!it lsl stride_bits) + eng_base + f_bkt) = dead then fail "dead item linked";
      if items.(ir + f_bkt) <> !b then fail "stale bucket index";
      if items.(ir + f_tag) <= !prev_ltag then fail "local tags not increasing";
      if items.(ir + f_prev) <> !prev_i then fail "broken item back-link";
      incr n;
      prev_ltag := items.(ir + f_tag);
      prev_i := !it;
      it := items.(ir + f_next)
    done;
    if !n <> p.b_size.(!b) then fail "bucket size mismatch";
    total := !total + !n;
    incr nbuckets;
    prev_btag := p.b_tag.(!b);
    prev_b := !b;
    b := p.b_next.(!b)
  done;
  if !total <> t.size then fail "size mismatch";
  if !nbuckets <> p.nbuckets then fail "bucket count mismatch"

let check_invariants t =
  (* Item free list: every listed slot dead, count agrees. *)
  let seen = ref 0 in
  let s = ref t.i_free in
  while !s <> nil do
    if !s < 0 || !s >= t.i_top then failwith "Om_fused.check_invariants: free link out of range";
    if t.items.((!s lsl stride_bits) + eng_base + f_bkt) <> dead then
      failwith "Om_fused.check_invariants: live slot on item free list";
    incr seen;
    s := t.items.((!s lsl stride_bits) + eng_base + f_next)
  done;
  if !seen <> t.i_nfree then failwith "Om_fused.check_invariants: item free count mismatch";
  if t.i_top - t.i_nfree <> t.size then
    failwith "Om_fused.check_invariants: item slot accounting mismatch";
  check_plane t t.eng;
  check_plane t t.heb
