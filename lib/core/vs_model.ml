(* Virtual-source ballistic CNFET compact model (Lee et al., the
   sub-10nm CNFET neighbour named in PAPERS.md).

   The drain current is the charge at the virtual source times the
   injection velocity times an empirical saturation function:

     I_DS = Q_ix0(V_GS, V_DS) * v_x0 * F_sat(V_DS)

     Q_ix0 = C_inv n phi_t ln(1 + exp((V_GS - V_T) / (n phi_t)))
     V_T   = V_T0 - delta V_DS                    (DIBL)
     F_sat = (V_DS / V_dsat) / (1 + (V_DS / V_dsat)^beta)^(1/beta)

   Reverse operation (V_DS < 0) swaps source and drain:
   I(V_GS, V_DS) = -I(V_GD, -V_DS) with V_GD = V_GS - V_DS, which keeps
   the current continuous and monotone in V_DS through the origin.
   P-type devices are the electron-hole mirror, exactly as in
   {!Cnt_model}.

   Unlike the piecewise model there is no fitting step: construction is
   closed-form from the device geometry (C_inv defaults to the coaxial
   gate capacitance, phi_t to kT/q at the device temperature). *)

open Cnt_physics
module Obs = Cnt_obs.Obs

let c_ids_evals = Obs.counter "vs_model.ids_evals"

type polarity = Cnt_model.polarity =
  | N_type
  | P_type

type params = {
  vt0 : float;  (* threshold voltage at V_DS = 0, V *)
  dibl : float;  (* drain-induced barrier lowering, V/V *)
  n_ss : float;  (* subthreshold ideality factor *)
  vxo : float;  (* virtual-source injection velocity, m/s *)
  beta : float;  (* saturation transition exponent *)
  vdsat : float;  (* saturation voltage scale, V *)
  cinv : float;  (* gate-to-channel inversion capacitance, F/m *)
}

type t = {
  device : Device.t;
  polarity : polarity;
  p : params;
  phi_t : float;  (* thermal voltage kT/q at the device temperature, V *)
  identity : string;
}

let identity_of ~polarity ~(device : Device.t) ~(p : params) =
  Printf.sprintf "vs|%s|T=%h|vt0=%h|dibl=%h|n=%h|vxo=%h|beta=%h|vdsat=%h|cinv=%h"
    (match polarity with N_type -> "n" | P_type -> "p")
    device.Device.temp p.vt0 p.dibl p.n_ss p.vxo p.beta p.vdsat p.cinv

let make ?(polarity = N_type) ?(vt0 = 0.3) ?(dibl = 0.05) ?(n_ss = 1.1)
    ?(vxo = 4.0e5) ?(beta = 1.8) ?vdsat ?cinv device =
  let phi_t = Fermi.kt_ev device.Device.temp in
  let vdsat = match vdsat with Some v -> v | None -> 3.0 *. n_ss *. phi_t in
  let cinv = match cinv with Some c -> c | None -> Device.c_gate device in
  let check name v =
    if not (Float.is_finite v && v > 0.0) then
      invalid_arg (Printf.sprintf "Vs_model.make: %s must be positive" name)
  in
  check "n" n_ss;
  check "vxo" vxo;
  check "beta" beta;
  check "vdsat" vdsat;
  check "cinv" cinv;
  let p = { vt0; dibl; n_ss; vxo; beta; vdsat; cinv } in
  let identity = identity_of ~polarity ~device ~p in
  { device; polarity; p; phi_t; identity }

let device t = t.device
let polarity t = t.polarity
let params t = t.p
let identity t = t.identity

(* Numerically safe ln(1 + exp x): for large x the exp overflows but
   the limit is x itself. *)
let softplus x = if x > 40.0 then x else Float.log1p (Float.exp x)

(* One oriented bias point: the virtual-source charge (C/m), the
   current with the n-type sign and its partials in V_GS and V_DS. *)
type point = {
  q : float;
  i : float;
  di_dvgs : float;
  di_dvds : float;
}

(* Forward operation (oriented, non-negative V_DS).  With
   u = (V_GS - V_T)/(n phi_t) and x = V_DS/V_dsat:
     dQ/dV_GS = C_inv sigma(u),  dQ/dV_DS = delta C_inv sigma(u)
   (sigma the logistic function, the softplus derivative; V_T falls
   with V_DS through DIBL), and
     dF_sat/dx = (1 + x^beta)^(-1/beta - 1). *)
let forward t ~vgs ~vds =
  let vt = t.p.vt0 -. (t.p.dibl *. vds) in
  let nphi = t.p.n_ss *. t.phi_t in
  let u = (vgs -. vt) /. nphi in
  let qix0 = t.p.cinv *. nphi *. softplus u in
  let x = vds /. t.p.vdsat in
  let xb = 1.0 +. (x ** t.p.beta) in
  let root = xb ** (1.0 /. t.p.beta) in
  let fsat = x /. root in
  (* the softplus cutoff's own derivative; logistic(40) rounds to 1 *)
  let dq_dvgs =
    t.p.cinv *. if u > 40.0 then 1.0 else Fermi.integral_order0' u
  in
  let dfsat_dvds = 1.0 /. (root *. xb *. t.p.vdsat) in
  let qv = qix0 *. t.p.vxo in
  let di_dvgs = dq_dvgs *. t.p.vxo *. fsat in
  {
    q = qix0;
    i = qv *. fsat;
    di_dvgs;
    di_dvds = (t.p.dibl *. di_dvgs) +. (qv *. dfsat_dvds);
  }

(* The S/D swap handles the reverse region:
   I(V_GS, V_DS) = -I_f(V_GS - V_DS, -V_DS), so by the chain rule
   dI/dV_GS = -dI_f/dV_GS and dI/dV_DS = dI_f/dV_GS + dI_f/dV_DS. *)
let solve_point t ~vgs ~vds =
  if vds >= 0.0 then forward t ~vgs ~vds
  else begin
    let f = forward t ~vgs:(vgs -. vds) ~vds:(-.vds) in
    {
      q = f.q;
      i = -.f.i;
      di_dvgs = -.f.di_dvgs;
      di_dvds = f.di_dvgs +. f.di_dvds;
    }
  end

let oriented t ~vgs ~vds =
  match t.polarity with N_type -> (vgs, vds) | P_type -> (-.vgs, -.vds)

let sign t i = match t.polarity with N_type -> i | P_type -> -.i

let ids t ~vgs ~vds =
  Obs.incr c_ids_evals;
  let ovgs, ovds = oriented t ~vgs ~vds in
  sign t (solve_point t ~vgs:ovgs ~vds:ovds).i

(* The p-type mirror negates the current and both voltages, so the
   derivatives keep their sign. *)
let linearise t ~vgs ~vds =
  Obs.incr c_ids_evals;
  let ovgs, ovds = oriented t ~vgs ~vds in
  let p = solve_point t ~vgs:ovgs ~vds:ovds in
  (sign t p.i, p.di_dvgs, p.di_dvds)

(* Virtual-source charge and its drain-swapped counterpart, playing the
   role of the piecewise model's source/drain mobile charges. *)
let charges t ~vgs ~vds =
  let ovgs, ovds = oriented t ~vgs ~vds in
  let qs = (solve_point t ~vgs:ovgs ~vds:ovds).q in
  let qd = (solve_point t ~vgs:(ovgs -. ovds) ~vds:(-.ovds)).q in
  (0.0, qs, qd)

let pp fmt t =
  Format.fprintf fmt
    "@[<v>%s virtual-source model (%s)@ VT0 %g V, DIBL %g, n %g, vx0 %g m/s, \
     beta %g, Vdsat %g V, Cinv %g F/m@]"
    (match t.polarity with N_type -> "n-type" | P_type -> "p-type")
    t.device.Device.name t.p.vt0 t.p.dibl t.p.n_ss t.p.vxo t.p.beta t.p.vdsat
    t.p.cinv
