exception Truncated

(* Both directions avoid [Int64]: its arithmetic boxes, and these run
   inside loops that are gated at zero minor-heap words.  The int-only
   code is byte-equivalent to the Int64 formulation: a non-negative
   [int] has the same 64-bit pattern as its 63-bit one, and a negative
   [int] sign-extends — bits 0..62 come straight from the OCaml int
   (logical shifts) and bit 63 duplicates bit 62, i.e. the final group
   of the 10-byte encoding is the constant [0x01]. *)

let put buf n =
  if n >= 0 then begin
    let n = ref n in
    let fin = ref false in
    while not !fin do
      let b = !n land 0x7f in
      n := !n lsr 7;
      if !n = 0 then begin
        Buffer.add_char buf (Char.unsafe_chr b);
        fin := true
      end
      else Buffer.add_char buf (Char.unsafe_chr (b lor 0x80))
    done
  end
  else begin
    (* Negative: 64-bit two's complement, always 10 bytes.  Groups 0-8
       cover bits 0..62 (with bit 62 repeated upward by sign
       extension — [lsr] on the 63-bit int already yields exactly those
       bits); group 9 is bit 63, which sign extension makes 1. *)
    for i = 0 to 8 do
      Buffer.add_char buf (Char.unsafe_chr (((n lsr (7 * i)) land 0x7f) lor 0x80))
    done;
    Buffer.add_char buf '\x01'
  end

let get_loop s pos =
  let v = ref 0 and shift = ref 0 and fin = ref false in
  let len = String.length s in
  while not !fin do
    if !pos >= len then raise Truncated;
    let b = Char.code (String.unsafe_get s !pos) in
    incr pos;
    (* Groups at shift >= 63 lie beyond OCaml's int range; dropping
       them is the [Int64.to_int] truncation (shift = 56 still
       contributes bits 56..62, the top of which is the sign bit). *)
    if !shift < 63 then v := !v lor ((b land 0x7f) lsl !shift);
    shift := !shift + 7;
    if b land 0x80 = 0 then fin := true
  done;
  !v

(* One- and two-byte encodings (values below 2^14: tags, most ids and
   locations) decode inline; longer ones and truncation go through the
   loop from the first byte, so results and [pos] are the loop's. *)
let[@inline] get s pos =
  let p = !pos in
  let len = String.length s in
  if p >= len then raise Truncated;
  let b0 = Char.code (String.unsafe_get s p) in
  if b0 < 0x80 then begin
    pos := p + 1;
    b0
  end
  else if p + 1 < len then begin
    let b1 = Char.code (String.unsafe_get s (p + 1)) in
    if b1 < 0x80 then begin
      pos := p + 2;
      (b0 land 0x7f) lor (b1 lsl 7)
    end
    else get_loop s pos
  end
  else get_loop s pos
