(* One-dimensional numerical integration.

   The workhorse for this library is [adaptive_simpson]; the
   fixed-order rules serve the property tests. *)

let trapezoid f a b n =
  if n <= 0 then invalid_arg "Quadrature.trapezoid: n must be positive";
  let h = (b -. a) /. float_of_int n in
  let sum = ref (0.5 *. (f a +. f b)) in
  for i = 1 to n - 1 do
    sum := !sum +. f (a +. (float_of_int i *. h))
  done;
  !sum *. h

let simpson f a b n =
  if n <= 0 || n mod 2 <> 0 then
    invalid_arg "Quadrature.simpson: n must be positive and even";
  let h = (b -. a) /. float_of_int n in
  let sum = ref (f a +. f b) in
  for i = 1 to n - 1 do
    let w = if i mod 2 = 1 then 4.0 else 2.0 in
    sum := !sum +. (w *. f (a +. (float_of_int i *. h)))
  done;
  !sum *. h /. 3.0

(* Adaptive Simpson with the classic Lyness error estimate.  Depth is
   bounded to keep pathological integrands from recursing forever; the
   tolerance halves on each side so the total error stays below [tol]. *)
let adaptive_simpson ?(tol = 1e-12) ?(max_depth = 40) f a b =
  let simpson_step fa fm fb a b = (b -. a) /. 6.0 *. (fa +. (4.0 *. fm) +. fb) in
  let rec refine a b fa fm fb whole tol depth =
    let m = 0.5 *. (a +. b) in
    let lm = 0.5 *. (a +. m) and rm = 0.5 *. (m +. b) in
    let flm = f lm and frm = f rm in
    let left = simpson_step fa flm fm a m in
    let right = simpson_step fm frm fb m b in
    let err = left +. right -. whole in
    if depth <= 0 || Float.abs err <= 15.0 *. tol then
      left +. right +. (err /. 15.0)
    else
      refine a m fa flm fm left (0.5 *. tol) (depth - 1)
      +. refine m b fm frm fb right (0.5 *. tol) (depth - 1)
  in
  if a = b then 0.0
  else begin
    let fa = f a and fb = f b and fm = f (0.5 *. (a +. b)) in
    let whole = simpson_step fa fm fb a b in
    refine a b fa fm fb whole tol max_depth
  end
