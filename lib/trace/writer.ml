(* A writer is run twice over the same input: the first pass only
   advances [pos] (sizing), the second blits into a [Bytes] of exactly
   that size.  Every primitive below therefore computes its length the
   same way in both passes. *)
type t = { buf : Bytes.t; mutable pos : int; sizing : bool }

let render emit =
  let size = { buf = Bytes.empty; pos = 0; sizing = true } in
  emit size;
  let w = { buf = Bytes.create size.pos; pos = 0; sizing = false } in
  emit w;
  if w.pos <> size.pos then failwith "Writer.render: passes disagree";
  Bytes.unsafe_to_string w.buf

let string w s =
  let n = String.length s in
  if not w.sizing then Bytes.blit_string s 0 w.buf w.pos n;
  w.pos <- w.pos + n

let char w c =
  if not w.sizing then Bytes.set w.buf w.pos c;
  w.pos <- w.pos + 1

(* Length-preserving per-character rewrite (sanitising, frame escapes)
   fused into the copy. *)
let mapped w f s =
  let n = String.length s in
  if not w.sizing then
    for i = 0 to n - 1 do
      Bytes.set w.buf (w.pos + i) (f (String.unsafe_get s i))
    done;
  w.pos <- w.pos + n

(* [n >= 0] in decimal, [width] digits wide with leading zeros. *)
let digits w n width =
  if not w.sizing then begin
    let n = ref n in
    for i = w.pos + width - 1 downto w.pos do
      Bytes.set w.buf i (Char.unsafe_chr (48 + (!n mod 10)));
      n := !n / 10
    done
  end;
  w.pos <- w.pos + width

let rec width n = if n < 10 then 1 else 1 + width (n / 10)

let int w n = if n >= 0 then digits w n (width n) else string w (string_of_int n)

(* ---------------- fixed-point floats ---------------- *)

(* The primitive [Printf "%.<d>f"] itself calls. *)
external format_float : string -> float -> string = "caml_format_float"

let scale = function 0 -> 1. | 3 -> 1e3 | 6 -> 1e6 | _ -> invalid_arg "Writer.fixed"
let iscale = function 0 -> 1 | 3 -> 1_000 | _ -> 1_000_000
let format = function 0 -> "%.0f" | 3 -> "%.3f" | _ -> "%.6f"

(* [x * 10^d] rounded half-to-even on its exact value, or [-1] when
   the fast path does not apply (negative, -0., NaN, inf, or a scaled
   value at or beyond 2^52).

   [p] is the rounded product and [r] its exact residual, so the exact
   value is [p + r] with [|r| <= ulp(p)/2].  Below 2^52, [ulp(p) <= 0.5]
   divides both the fraction [f = p - floor p] and 0.5, so [f - 0.5]
   (exact) is either zero or at least [ulp(p)] in magnitude: its sign
   is the sign of the exact distance to the midpoint.  Only at [f = 0.5]
   does [r] decide, and only at [r = 0] is it a true tie (k/2^j values
   produce those), which goes to the even neighbour as glibc's printf
   does. *)
let scaled d x =
  let s = scale d in
  let p = x *. s in
  if Float.sign_bit x || not (p < 0x1p52) then -1
  else begin
    let n = int_of_float p in
    let c = p -. float_of_int n -. 0.5 in
    let up =
      if c <> 0. then c > 0.
      else
        let r = Float.fma x s (-.p) in
        if r <> 0. then r > 0. else n land 1 = 1
    in
    if up then n + 1 else n
  end

let fixed w d x =
  let n = scaled d x in
  if n < 0 then string w (format_float (format d) x)
  else if d = 0 then digits w n (width n)
  else begin
    let q = iscale d in
    digits w (n / q) (width (n / q));
    char w '.';
    digits w (n mod q) d
  end
