(* 32 sub-buckets per power of two gives ~2.2% relative precision. *)
let sub_buckets = 32
let n_powers = 48 (* covers [1, 2^48) ~ 2.8e14: ns up to ~3 simulated days *)
let n_buckets = (sub_buckets * n_powers) + 1

type t = {
  buckets : int array;
  mutable count : int;
  mutable sum : float;
}

let create () = { buckets = Array.make n_buckets 0; count = 0; sum = 0. }

let bucket_of_value v =
  if v < 1.0 then 0
  else begin
    let exponent = int_of_float (Float.log2 v) in
    let exponent = if exponent >= n_powers then n_powers - 1 else exponent in
    let base = Float.pow 2. (float_of_int exponent) in
    let frac = (v -. base) /. base in
    let sub = int_of_float (frac *. float_of_int sub_buckets) in
    let sub = if sub >= sub_buckets then sub_buckets - 1 else sub in
    1 + (exponent * sub_buckets) + sub
  end

let value_of_bucket i =
  if i = 0 then 0.5
  else begin
    let i = i - 1 in
    let exponent = i / sub_buckets and sub = i mod sub_buckets in
    let base = Float.pow 2. (float_of_int exponent) in
    base *. (1.0 +. ((float_of_int sub +. 0.5) /. float_of_int sub_buckets))
  end

let add t v =
  let v = Float.max 0. v in
  let i = bucket_of_value v in
  t.buckets.(i) <- t.buckets.(i) + 1;
  t.count <- t.count + 1;
  t.sum <- t.sum +. v

let count t = t.count

let of_samples xs =
  let t = create () in
  List.iter (add t) xs;
  t

let floor_of_bucket i =
  if i = 0 then 0.
  else begin
    let i = i - 1 in
    let exponent = i / sub_buckets and sub = i mod sub_buckets in
    let base = Float.pow 2. (float_of_int exponent) in
    base *. (1.0 +. (float_of_int sub /. float_of_int sub_buckets))
  end

let percentile_bucket t p =
  if t.count = 0 then n_buckets - 1
  else begin
    let rank =
      int_of_float (Float.round (p /. 100. *. float_of_int t.count))
    in
    let rank = Stdlib.max 1 (Stdlib.min t.count rank) in
    let rec scan i seen =
      if i >= n_buckets then n_buckets - 1
      else begin
        let seen = seen + t.buckets.(i) in
        if seen >= rank then i else scan (i + 1) seen
      end
    in
    scan 0 0
  end

let percentile t p =
  if t.count = 0 then 0. else value_of_bucket (percentile_bucket t p)

let percentile_floor t p =
  if t.count = 0 then 0. else floor_of_bucket (percentile_bucket t p)

let median t = percentile t 50.
let mean t = if t.count = 0 then 0. else t.sum /. float_of_int t.count

let merge a b =
  let t = create () in
  for i = 0 to n_buckets - 1 do
    t.buckets.(i) <- a.buckets.(i) + b.buckets.(i)
  done;
  t.count <- a.count + b.count;
  t.sum <- a.sum +. b.sum;
  t

let equal a b =
  (* sum is excluded on purpose: float addition is not associative, so
     two histograms built from the same samples grouped differently
     (e.g. merged across worker domains) can disagree in [sum] while
     agreeing in every bucket.  Percentiles read only buckets/count. *)
  a.count = b.count && Array.for_all2 ( = ) a.buckets b.buckets

let pp_summary fmt t =
  Format.fprintf fmt "p50=%.3g p90=%.3g p99=%.3g (n=%d)" (percentile t 50.)
    (percentile t 90.) (percentile t 99.) t.count
