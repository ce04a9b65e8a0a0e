(* Plain vector clocks: one int per thread slot, stored as (array,
   valid length) so a pooled buffer never pays Θ(capacity) zeroing on
   reuse — entries at indices >= [len] are garbage, reads treat them
   as 0 and every extension of [len] zeroes exactly the gap it opens.

   Fork = snapshot (blit of [len] words), join = pointwise max over
   the source's [len] words: both Θ(width), which is the cost EXP-HB
   measures against SP-order's O(1)-amortized labels. *)

type clock = { mutable a : int array; mutable len : int }

type t = {
  mutable pool : clock list;
  mutable copied_words : int;
  mutable joined_words : int;
}

let create () = { pool = []; copied_words = 0; joined_words = 0 }

let alloc t =
  match t.pool with
  | c :: rest ->
      t.pool <- rest;
      c.len <- 0;
      c
  | [] -> { a = [||]; len = 0 }

let release t c = t.pool <- c :: t.pool

let ensure c n =
  if n > Array.length c.a then begin
    let cap = max 16 (max n (2 * Array.length c.a)) in
    let b = Array.make cap 0 in
    Array.blit c.a 0 b 0 c.len;
    c.a <- b
  end

(* Widen the valid prefix to [n] slots, zeroing the newly valid gap. *)
let extend c n =
  if n > c.len then begin
    ensure c n;
    Array.fill c.a c.len (n - c.len) 0;
    c.len <- n
  end

let get c slot = if slot < c.len then c.a.(slot) else 0

let tick c slot =
  extend c (slot + 1);
  let e = c.a.(slot) + 1 in
  c.a.(slot) <- e;
  e

let snapshot t src =
  let dst = alloc t in
  ensure dst src.len;
  Array.blit src.a 0 dst.a 0 src.len;
  dst.len <- src.len;
  t.copied_words <- t.copied_words + src.len;
  dst

let join t ~into src =
  extend into src.len;
  for i = 0 to src.len - 1 do
    let v = src.a.(i) in
    if v > into.a.(i) then into.a.(i) <- v
  done;
  t.joined_words <- t.joined_words + src.len

let live_words c = c.len

let copied_words t = t.copied_words

let joined_words t = t.joined_words
