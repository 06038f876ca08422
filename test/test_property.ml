(* Property layer locking down the closed-form solver and the batched
   evaluation path:

   - the closed-form V_SC root agrees with a bisection oracle on the
     monotone residual to 1e-9, over random (T, E_F, V_GS, V_DS)
     tuples for both paper models;
   - [Cnt_model.eval_batch] is bitwise-equal to the scalar [ids] loop
     for n- and p-type devices;
   - [Cnt_model.charges] reports [solve_vsc]'s V_SC bitwise;
   - every backend's analytic gm/gds ([Device_model.linearise], the
     numbers MNA stamps) agree with Richardson-extrapolated difference
     quotients of [ids], for n- and p-type devices at random
     (T, E_F, V_GS, V_DS) including reverse and zero drain bias, and
     (piecewise) at biases placed next to merged breakpoints. *)

open Cnt_numerics
open Cnt_physics
open Cnt_core

let bits = Int64.bits_of_float

let check_bitwise msg a b =
  if bits a <> bits b then
    Alcotest.failf "%s: %.17g (%Lx) <> %.17g (%Lx)" msg a (bits a) b (bits b)

(* Random operating conditions drawn once, shared by the oracle and
   batch tests.  Conditions group several bias points per fitted model
   so the (expensive) fits stay a small multiple of the condition
   count while the bias tuples cover the full 4-d space. *)
let conditions = 8
let points_per_condition = 25

let sample_condition rng =
  let temp = Prng.uniform_range rng ~lo:150.0 ~hi:450.0 in
  let fermi = Prng.uniform_range rng ~lo:(-0.5) ~hi:0.0 in
  (temp, fermi)

let sample_bias rng =
  let vgs = Prng.uniform_range rng ~lo:0.0 ~hi:0.6 in
  let vds = Prng.uniform_range rng ~lo:0.0 ~hi:0.6 in
  (vgs, vds)

(* ------------------------------------------------------------------ *)
(* Closed-form roots vs a bisection oracle                             *)
(* ------------------------------------------------------------------ *)

(* The residual F is strictly increasing, so bisection on a widening
   bracket is an independent oracle for the unique root the closed-form
   scan-and-solve path claims to find. *)
let oracle_root solver ~qt ~vds =
  let f v = Scv_solver.residual solver ~qt ~vds v in
  let rec bracket w =
    if w > 64.0 then Alcotest.failf "oracle: no sign change within [-64, 64]"
    else if f (-.w) < 0.0 && f w > 0.0 then w
    else bracket (2.0 *. w)
  in
  let w = bracket 1.0 in
  (Rootfind.bisect ~tol:1e-12 ~max_iter:200 f (-.w) w).Rootfind.root

let test_oracle_agreement spec () =
  let rng = Prng.create ~seed:0x5eedL () in
  for _c = 1 to conditions do
    let temp, fermi = sample_condition rng in
    let device = Device.create ~temp ~fermi () in
    let model = Cnt_model.make ~spec device in
    let solver = Cnt_model.solver model in
    for _p = 1 to points_per_condition do
      let vgs, vds = sample_bias rng in
      let qt = Device.terminal_charge device ~vgs ~vds in
      let closed = Scv_solver.solve solver ~qt ~vds in
      let oracle = oracle_root solver ~qt ~vds in
      if Float.abs (closed -. oracle) > 1e-9 then
        Alcotest.failf
          "closed-form root %.15g vs oracle %.15g (T=%g, Ef=%g, vgs=%g, \
           vds=%g)"
          closed oracle temp fermi vgs vds
    done
  done

(* solve_plan must replay solve exactly, point by point *)
let test_plan_bitwise () =
  let rng = Prng.create ~seed:0x9a7eL () in
  let device = Device.default in
  let model = Cnt_model.model2 ~device () in
  let solver = Cnt_model.solver model in
  for _ = 1 to 50 do
    let vgs, vds = sample_bias rng in
    let qt = Device.terminal_charge device ~vgs ~vds in
    let plan = Scv_solver.plan solver ~vds in
    check_bitwise "solve_plan vs solve"
      (Scv_solver.solve solver ~qt ~vds)
      (Scv_solver.solve_plan plan ~qt)
  done

(* ------------------------------------------------------------------ *)
(* eval_batch vs scalar ids                                            *)
(* ------------------------------------------------------------------ *)

let vgs_grid = [| 0.1; 0.2; 0.3; 0.4; 0.5; 0.6; 0.33 |]
let vds_grid = Grid.linspace 0.0 0.6 13

let check_batch_matches_scalar msg model =
  let g = Cnt_model.eval_batch model ~vgs:vgs_grid ~vds:vds_grid in
  Array.iteri
    (fun i vgs ->
      Array.iteri
        (fun j vds ->
          check_bitwise
            (Printf.sprintf "%s (vgs=%g, vds=%g)" msg vgs vds)
            (Cnt_model.ids model ~vgs ~vds)
            (Bigarray.Array2.get g i j))
        vds_grid)
    vgs_grid

let test_batch_bitwise polarity () =
  check_batch_matches_scalar "batch" (Cnt_model.model2 ~polarity ())

let test_family_and_transfer_consistent () =
  let model = Cnt_model.model2 () in
  let vgs_list = [ 0.3; 0.45; 0.6 ] in
  let fam = Cnt_model.output_family model ~vgs_list ~vds_points:vds_grid in
  List.iter
    (fun (vgs, row) ->
      Array.iteri
        (fun j vds ->
          check_bitwise "output_family" (Cnt_model.ids model ~vgs ~vds) row.(j))
        vds_grid)
    fam;
  let tr = Cnt_model.transfer model ~vds:0.5 ~vgs_points:vgs_grid in
  Array.iteri
    (fun i vgs ->
      check_bitwise "transfer" (Cnt_model.ids model ~vgs ~vds:0.5) tr.(i))
    vgs_grid

(* ------------------------------------------------------------------ *)
(* Scalar entry points agree                                           *)
(* ------------------------------------------------------------------ *)

(* [charges] reports the same V_SC as [solve_vsc], bitwise, for both
   polarities at random biases (including reverse drain bias). *)
let test_charges_vsc polarity () =
  let model = Cnt_model.model2 ~polarity () in
  let rng = Prng.create ~seed:0xc4a9L () in
  for _ = 1 to 60 do
    let vgs = Prng.uniform_range rng ~lo:(-0.6) ~hi:0.6 in
    let vds = Prng.uniform_range rng ~lo:(-0.6) ~hi:0.6 in
    let vsc, _, _ = Cnt_model.charges model ~vgs ~vds in
    check_bitwise
      (Printf.sprintf "charges v_sc (vgs=%g, vds=%g)" vgs vds)
      (Cnt_model.solve_vsc model ~vgs ~vds)
      vsc
  done

(* ------------------------------------------------------------------ *)
(* Analytic gm/gds vs Richardson-extrapolated differences              *)
(* ------------------------------------------------------------------ *)

(* The central quotient D(h) = (f(x+h) - f(x-h))/2h has error
   c2 h^2 + c4 h^4 + ..., so (4 D(h/2) - D(h))/3 is accurate to h^4; the
   one-sided quotient's h term cancels in 2 D(h/2) - D(h) (negative [h]
   gives the left derivative).  Each returns its value and the abscissae
   it sampled. *)
let central f x h =
  let d h = (f (x +. h) -. f (x -. h)) /. (2.0 *. h) in
  ( ((4.0 *. d (0.5 *. h)) -. d h) /. 3.0,
    [ x -. h; x -. (0.5 *. h); x +. (0.5 *. h); x +. h ] )

let one_sided f x h =
  let d h = (f (x +. h) -. f x) /. h in
  ((2.0 *. d (0.5 *. h)) -. d h, [ x; x +. (0.5 *. h); x +. h ])

let deriv_step = 1e-6
let deriv_rtol = 1e-6

(* A backend under test: the model plus, for piecewise, the pair of
   charge-curve pieces (source at V_SC, drain at V_SC + V_DS) a bias
   point's solve lands in.  The exact derivative is only defined within
   one piece pair, so every difference stencil must stay inside the
   pair of the point it differentiates. *)
type subject = {
  dm : Device_model.t;
  pieces : (vgs:float -> vds:float -> int * int) option;
}

let piecewise_subject model =
  let approx = Cnt_model.charge_approx model in
  let sign = match Cnt_model.polarity model with
    | Cnt_model.N_type -> 1.0
    | Cnt_model.P_type -> -1.0
  in
  {
    dm = Device_model.of_piecewise model;
    pieces =
      Some
        (fun ~vgs ~vds ->
          let v = Cnt_model.solve_vsc model ~vgs ~vds in
          ( Piecewise.piece_index approx v,
            Piecewise.piece_index approx (v +. (sign *. vds)) ));
  }

let vs_subject ~polarity device =
  { dm = Device_model.of_vs (Vs_model.make ~polarity device); pieces = None }

(* Check gm and gds at one bias against difference quotients of [ids].
   Returns [false] (checking nothing) when a stencil would leave the
   point's piece pair; [swap] selects one-sided quotients from both
   sides for V_DS, for the V_DS = 0 source/drain swap, where the
   current is C^1 but not C^2. *)
let check_point ?(swap = false) label subj ~vgs ~vds =
  let m = subj.dm in
  let i, gm, gds = Device_model.linearise m ~vgs ~vds in
  check_bitwise (label ^ " linearise current = ids") (Device_model.ids m ~vgs ~vds) i;
  let f_vgs v = Device_model.ids m ~vgs:v ~vds in
  let f_vds v = Device_model.ids m ~vgs ~vds:v in
  let h = deriv_step in
  let gm_fd, gm_at = central f_vgs vgs h in
  let gds_fd, gds_at =
    if swap then begin
      let left, l_at = one_sided f_vds vds (-.h) in
      let right, r_at = one_sided f_vds vds h in
      (* the two one-sided derivatives must both be the analytic one;
         report the worse *)
      ( (if Float.abs (left -. gds) > Float.abs (right -. gds) then left
         else right),
        l_at @ r_at )
    end
    else central f_vds vds h
  in
  let inside =
    match subj.pieces with
    | None -> true
    | Some pieces ->
        let here = pieces ~vgs ~vds in
        List.for_all (fun v -> pieces ~vgs:v ~vds = here) gm_at
        && List.for_all (fun v -> pieces ~vgs ~vds:v = here) gds_at
  in
  if inside then begin
    let scale = Float.abs gm +. Float.abs gds in
    let check what analytic numeric =
      if Float.abs (analytic -. numeric) > (deriv_rtol *. scale) +. 1e-20 then
        Alcotest.failf
          "%s (vgs=%.17g, vds=%.17g): analytic %s %.10e vs differences %.10e \
           (scale %.3e)"
          label vgs vds what analytic numeric scale
    in
    check "gm" gm gm_fd;
    check "gds" gds gds_fd
  end;
  inside

let polarity_of k = if k mod 2 = 0 then Cnt_model.N_type else Cnt_model.P_type

(* n-type biases; a p-type device sees their mirror image *)
let orient polarity (vgs, vds) =
  match polarity with
  | Cnt_model.N_type -> (vgs, vds)
  | Cnt_model.P_type -> (-.vgs, -.vds)

let test_derivatives_random backend () =
  let rng = Prng.create ~seed:0xd1ffL () in
  let checked = ref 0 and straddled = ref 0 in
  for c = 1 to 6 do
    let temp, fermi = sample_condition rng in
    let device = Device.create ~temp ~fermi () in
    let polarity = polarity_of c in
    let subj =
      match backend with
      | `Piecewise -> piecewise_subject (Cnt_model.make ~polarity device)
      | `Vs -> vs_subject ~polarity device
    in
    let at label bias ~swap =
      let vgs, vds = orient polarity bias in
      let label =
        Printf.sprintf "%s T=%g Ef=%g %s" (Device_model.backend subj.dm) temp
          fermi label
      in
      if check_point ~swap label subj ~vgs ~vds then incr checked
      else incr straddled
    in
    for _ = 1 to 25 do
      let vgs = Prng.uniform_range rng ~lo:(-0.2) ~hi:0.8 in
      let vds = Prng.uniform_range rng ~lo:(-0.6) ~hi:0.6 in
      at "random" (vgs, vds) ~swap:false
    done;
    (* zero drain bias: the vs source/drain swap *)
    List.iter
      (fun vgs -> at "vds=0" (vgs, 0.0) ~swap:true)
      [ 0.0; 0.25; 0.5 ]
  done;
  (* a stencil crossing a piece boundary is rare at this step; many
     would mean the guard, not the derivative, is being exercised *)
  if !straddled * 10 > !checked then
    Alcotest.failf "%d of %d points straddled a breakpoint" !straddled
      (!checked + !straddled)

(* Biases whose V_SC sits 0.1 mV either side of each merged breakpoint
   that a gate bias in [-1.5, 1.5] V can reach: qt is chosen so the
   residual vanishes there, and V_GS recovered from it.  The stencils
   must not straddle the breakpoint (they move V_SC by about 1 uV). *)
let test_derivatives_breakpoints () =
  let rng = Prng.create ~seed:0xb7eaL () in
  let reached = ref 0 in
  for c = 1 to 4 do
    let temp, fermi = sample_condition rng in
    let device = Device.create ~temp ~fermi () in
    let polarity = polarity_of c in
    let model = Cnt_model.make ~polarity device in
    let subj = piecewise_subject model in
    let solver = Cnt_model.solver model in
    let qs = Cnt_model.charge_approx model in
    let cg = Device.c_gate device and cd = Device.c_drain device in
    List.iter
      (fun ovds ->
        Array.iter
          (fun b ->
            List.iter
              (fun delta ->
                let v = b +. delta in
                let qt =
                  Piecewise.eval qs v +. Piecewise.eval qs (v +. ovds)
                  -. (Scv_solver.c_sigma solver *. v)
                in
                let ovgs = (qt -. (cd *. ovds)) /. cg in
                if Float.abs ovgs <= 1.5 then begin
                  incr reached;
                  let vgs, vds = orient polarity (ovgs, ovds) in
                  let label =
                    Printf.sprintf "piecewise T=%g Ef=%g breakpoint %.6g%+g"
                      temp fermi b delta
                  in
                  if not (check_point label subj ~vgs ~vds) then
                    Alcotest.failf "%s: stencil straddles the breakpoint" label
                end)
              [ -1e-4; 1e-4 ])
          (Scv_solver.merged_breakpoints solver ~vds:ovds))
      [ -0.3; 0.0; 0.17; 0.45 ]
  done;
  if !reached < 20 then
    Alcotest.failf "only %d breakpoint biases within reach" !reached

let () =
  let tc name f = Alcotest.test_case name `Quick f in
  Alcotest.run "cnt_property"
    [
      ( "oracle",
        [
          tc "model1 roots vs bisection" (test_oracle_agreement Charge_fit.model1_spec);
          tc "model2 roots vs bisection" (test_oracle_agreement Charge_fit.model2_spec);
          tc "solve_plan bitwise" test_plan_bitwise;
        ] );
      ( "batch",
        [
          tc "n-type bitwise" (test_batch_bitwise Cnt_model.N_type);
          tc "p-type bitwise" (test_batch_bitwise Cnt_model.P_type);
          tc "family and transfer" test_family_and_transfer_consistent;
        ] );
      ( "scalar",
        [
          tc "n-type charges v_sc" (test_charges_vsc Cnt_model.N_type);
          tc "p-type charges v_sc" (test_charges_vsc Cnt_model.P_type);
        ] );
      ( "derivatives",
        [
          tc "piecewise gm/gds = richardson" (test_derivatives_random `Piecewise);
          tc "vs gm/gds = richardson" (test_derivatives_random `Vs);
          tc "piecewise next to breakpoints" test_derivatives_breakpoints;
        ] );
    ]
