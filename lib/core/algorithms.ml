let sp_order tree = Sp_maintainer.Instance ((module Sp_order), Sp_order.create tree)

module Sp_order_packed = struct
  include Sp_order_generic.Make (Spr_om.Om_packed)

  let name = "sp-order-packed"
end

let sp_order_packed tree =
  Sp_maintainer.Instance ((module Sp_order_packed), Sp_order_packed.create tree)

let sp_order_implicit tree =
  Sp_maintainer.Instance ((module Sp_order_implicit), Sp_order_implicit.create tree)

let sp_bags tree = Sp_maintainer.Instance ((module Sp_bags), Sp_bags.create tree)

let sp_bags_no_compression tree =
  Sp_maintainer.Instance
    ( (module struct
        include Sp_bags

        let name = "sp-bags-norank"
      end),
      Sp_bags.create_no_compression tree )

let english_hebrew tree =
  Sp_maintainer.Instance ((module English_hebrew), English_hebrew.create tree)

let offset_span tree = Sp_maintainer.Instance ((module Offset_span), Offset_span.create tree)

let sp_depa tree = Sp_maintainer.Instance ((module Sp_depa), Sp_depa.create tree)

let sp_order_fused tree =
  Sp_maintainer.Instance ((module Sp_order_fused), Sp_order_fused.create tree)

let lca_reference tree = Sp_maintainer.Instance ((module Sp_naive), Sp_naive.create tree)

(* The modern competition: the vector-clock happens-before detector
   from lib/hb.  Its maintainer module lives below this library and
   matches {!Sp_maintainer.S} structurally; packing it here is where
   the signature is actually checked. *)
let hb_vector tree =
  Sp_maintainer.Instance ((module Spr_hb.Sp_clock.Vector), Spr_hb.Sp_clock.Vector.create tree)

let figure3 =
  [
    ("english-hebrew", english_hebrew);
    ("offset-span", offset_span);
    ("sp-bags", sp_bags);
    ("sp-order", sp_order);
  ]

let figure3_modern =
  figure3
  @ [
      ("sp-depa", sp_depa);
      ("sp-order-fused", sp_order_fused);
      ("hb-vector", hb_vector);
    ]

let all =
  figure3
  @ [
      ("sp-depa", sp_depa);
      ("sp-order-fused", sp_order_fused);
      ("hb-vector", hb_vector);
      ("sp-order-packed", sp_order_packed);
      ("sp-order-implicit", sp_order_implicit);
      ("sp-bags-norank", sp_bags_no_compression);
      ("lca-reference", lca_reference);
    ]

let names = List.map fst all

let find_opt name = List.assoc_opt name all

let unknown name =
  Printf.sprintf "unknown algorithm %S (valid: %s)" name (String.concat ", " names)

(* The one lookup helper every CLI routes through: an unknown name is a
   user input error with the valid names listed, never a bare
   [Not_found] with a backtrace. *)
let find name tree =
  match find_opt name with
  | Some make -> make tree
  | None -> invalid_arg ("Algorithms.find: " ^ unknown name)
