(* SP-order over the fused packed English/Hebrew structure.

   Same Figure 5 algorithm as {!Sp_order}, but the two orders live in
   one {!Spr_om.Om_fused} and a node's position in both is one [int]
   handle, so Enter is one fused child-pair insertion (no option boxes,
   no tuples) and a query reads both labels of both operands from two
   interleaved records.  The raw-id API ([enter]/[precedes_id]/
   [parallel_id]) plus [reset] is what the benchmark's traced replay
   drives, numbering the nodes it creates; the detectors need no node
   ids — both drive {!Sp_stream}.  The {!Spr_core.Sp_maintainer.S}
   surface on top is for the registry, Figure-3 tables and
   cross-validation. *)

open Spr_sptree
module Om_fused = Spr_om.Om_fused

type t = {
  om : Om_fused.t;
  (* Node id -> fused element; -1 until discovered (or after release). *)
  mutable elt_of : int array;
}

let name = "sp-order-fused"

let unset = -1

let create_raw () = { om = Om_fused.create (); elt_of = Array.make 64 unset }

(* Rewind for a tree of [nodes] node ids rooted at [root] without
   allocating unless the id space outgrew the map. *)
let reset t ~nodes ~root =
  Om_fused.reset t.om;
  if Array.length t.elt_of < nodes then
    t.elt_of <- Array.make (max nodes (2 * Array.length t.elt_of)) unset
  else Array.fill t.elt_of 0 (Array.length t.elt_of) unset;
  t.elt_of.(root) <- Om_fused.base t.om

let create tree =
  let t = create_raw () in
  reset t ~nodes:(Sp_tree.node_count tree) ~root:(Sp_tree.root tree).id;
  t

let handle t id =
  let e = t.elt_of.(id) in
  if e = unset then invalid_arg "Sp_order_fused: node not discovered (or released)";
  e

(* Lines 4-7 of Figure 5, fused: both orders updated by one packed
   child-pair insertion.  Raw ids; allocation-free. *)
let enter t ~parent ~left ~right ~parallel =
  let lr = Om_fused.insert_children_packed t.om (handle t parent) ~parallel in
  t.elt_of.(left) <- Om_fused.packed_left lr;
  t.elt_of.(right) <- Om_fused.packed_right lr

let on_event t ev =
  match ev with
  | Sp_tree.Enter x -> begin
      match x.shape with
      | Leaf -> assert false
      | Internal { kind; left; right } ->
          enter t ~parent:x.id ~left:left.id ~right:right.id
            ~parallel:(kind = Parallel)
    end
  | Sp_tree.Mid _ | Sp_tree.Thread _ | Sp_tree.Exit _ -> ()

(* Lines 10-12 of Figure 5 / Corollary 2, on raw ids. *)
let precedes_id t x y = Om_fused.sp_precedes t.om (handle t x) (handle t y)

let parallel_id t x y = Om_fused.sp_parallel t.om (handle t x) (handle t y)

let precedes t (x : Sp_tree.node) (y : Sp_tree.node) = precedes_id t x.id y.id

let parallel t (x : Sp_tree.node) (y : Sp_tree.node) = parallel_id t x.id y.id

let requires_current_operand = false

let leaves_only = false

(* One fused element per node covers both orders — half of {!Sp_order}'s
   two-handles row in the Figure 3 space column. *)
let avg_label_words _ = 1.0

let om_size t = Om_fused.size t.om

let release t (n : Sp_tree.node) =
  let e = t.elt_of.(n.id) in
  if e = unset then invalid_arg "Sp_order_fused.release: node not discovered (or already released)";
  Om_fused.delete t.om e;
  t.elt_of.(n.id) <- unset

let set_sink t sink = Om_fused.set_sink t.om sink

let om t = t.om
