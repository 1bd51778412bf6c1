(* Order statistics over samples. *)

let sorted xs =
  let a = Array.of_list xs in
  Array.sort Float.compare a;
  a

(* Linear interpolation between order statistics: quantile 0 is the
   minimum, 1 the maximum.  [nan] on no samples. *)
let quantile q xs =
  let a = sorted xs in
  let n = Array.length a in
  if n = 0 then nan
  else
    let h = q *. float_of_int (n - 1) in
    let i = int_of_float h in
    if i >= n - 1 then a.(n - 1) else a.(i) +. ((h -. float_of_int i) *. (a.(i + 1) -. a.(i)))

let median xs = quantile 0.5 xs

(* Harrell-Davis estimate of quantile [q]: every order statistic
   weighted by the Beta((n+1)q, (n+1)(1-q)) mass over its slot of [0,1],
   the weights integrated numerically (midpoints, so a singular end point
   is never evaluated).  With the few samples a 20-second run of a
   seconds-long request allows, it moves far less from run to run than
   the one or two order statistics [quantile] interpolates between. *)
let harrell_davis q xs =
  let a = sorted xs in
  let n = Array.length a in
  if n = 0 then nan
  else begin
    let alpha = q *. float_of_int (n + 1) and beta = (1. -. q) *. float_of_int (n + 1) in
    let steps = 400 * n in
    let w = Array.make n 0. in
    for k = 0 to steps - 1 do
      let x = (float_of_int k +. 0.5) /. float_of_int steps in
      let i = k * n / steps in
      w.(i) <- w.(i) +. exp (((alpha -. 1.) *. log x) +. ((beta -. 1.) *. log (1. -. x)))
    done;
    let total = Array.fold_left ( +. ) 0. w in
    let acc = ref 0. in
    Array.iteri (fun i v -> acc := !acc +. (w.(i) *. v)) a;
    !acc /. total
  end

(* First and third quartile exactly as Python's
   [statistics.quantiles(xs, n=4)] computes them (its default
   "exclusive" method), so spreads printed here match the ones the
   benchmark's acceptance rule is stated in. *)
let quartiles xs =
  let a = sorted xs in
  let ld = Array.length a in
  if ld = 0 then (nan, nan)
  else if ld = 1 then (a.(0), a.(0))
  else
    let m = ld + 1 in
    let q i =
      let j = max 1 (min (ld - 1) (i * m / 4)) in
      let delta = (i * m) - (j * 4) in
      ((a.(j - 1) *. float_of_int (4 - delta)) +. (a.(j) *. float_of_int delta)) /. 4.
    in
    (q 1, q 3)

(* Interquartile range as a share of the median. *)
let spread xs =
  let q1, q3 = quartiles xs in
  let m = median xs in
  if m = 0. then (if q3 = q1 then 0. else infinity) else Float.abs ((q3 -. q1) /. m)
