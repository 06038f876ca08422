(* Top-level circuit-ready CNFET model: a fitted piecewise charge
   approximation plus the closed-form self-consistent-voltage solver
   and the analytic drain-current expression (paper eq. 14).

   Construction performs the one-off numerical work (equilibrium
   density, charge-curve fit); evaluation afterwards involves no
   integration and no iteration, which is what makes the model >10^3
   faster than the reference. *)

open Cnt_numerics
open Cnt_physics
module Obs = Cnt_obs.Obs

let c_ids_evals = Obs.counter "cnt_model.ids_evals"
let c_fits = Obs.counter "cnt_model.fits"
let c_batch_evals = Obs.counter "cnt_model.batch_evals"

type polarity =
  | N_type
  | P_type

type t = {
  device : Device.t;
  polarity : polarity;
  spec : Charge_fit.spec;
  fit : Charge_fit.fit_result;
  solver : Scv_solver.t;
  kt_ev : float;
  current_scale : float; (* 2 q k T / (pi hbar), Amperes *)
  identity : string;
}

(* Canonical identity of a fitted model: polarity, the full device
   parameter set, and the fitted boundary offsets/degrees (which also
   separate Model 1 from Model 2 and optimised from stock boundaries).
   Floats print as hex so distinct parameter sets can never collide
   through rounding.  This string keys manifests and the server-side
   deck caches — anything where two different models must
   never alias. *)
let identity_of ~polarity ~(device : Device.t) ~(spec : Charge_fit.spec) =
  let buf = Buffer.create 128 in
  Buffer.add_string buf
    (match polarity with N_type -> "pcm|n" | P_type -> "pcm|p");
  Printf.bprintf buf "|d=%h|tox=%h|kap=%h|T=%h|ef=%h|ag=%h|ad=%h|sb=%d"
    device.Device.diameter device.Device.oxide_thickness
    device.Device.dielectric device.Device.temp device.Device.fermi
    device.Device.alpha_g device.Device.alpha_d device.Device.subbands;
  Buffer.add_string buf "|off=";
  Array.iter (fun o -> Printf.bprintf buf "%h," o) spec.Charge_fit.offsets;
  Buffer.add_string buf "|deg=";
  Array.iter (fun d -> Printf.bprintf buf "%d," d) spec.Charge_fit.degrees;
  Buffer.contents buf

let make ?(polarity = N_type) ?(spec = Charge_fit.model2_spec)
    ?(optimise = false) ?theory device =
  Obs.span "cnt_model.make" @@ fun () ->
  Obs.incr c_fits;
  let profile = Device.charge_profile device in
  let spec, fit =
    if optimise then begin
      let refined, fit, _ = Charge_fit.optimise_boundaries profile spec in
      (refined, fit)
    end
    else (spec, Charge_fit.fit ?theory profile spec)
  in
  let solver =
    Scv_solver.create ~qs:fit.Charge_fit.approx ~c_sigma:(Device.c_sigma device)
  in
  let temp = device.Device.temp in
  let identity = identity_of ~polarity ~device ~spec in
  {
    device;
    polarity;
    spec;
    fit;
    solver;
    kt_ev = Fermi.kt_ev temp;
    current_scale =
      2.0 *. Constants.elementary_charge *. Constants.thermal_energy temp
      /. (Float.pi *. Constants.hbar);
    identity;
  }

(* The paper's Model 1 (three pieces) on a device (default: the FETToy
   reference device). *)
(* Rebuild a model from previously fitted parts (deserialisation path):
   no fitting happens; the spec is reconstructed from the approximation
   so the accessors stay meaningful. *)
let of_parts ?(polarity = N_type) ?(charge_rms = nan) ~device ~approx () =
  let bounds = Piecewise.boundaries approx in
  let fermi = device.Device.fermi in
  let pieces = Piecewise.pieces approx in
  let spec =
    Charge_fit.spec
      ~offsets:(Array.map (fun b -> b -. fermi) bounds)
      ~degrees:
        (Array.init (Array.length bounds) (fun i ->
             max 1 (Polynomial.degree pieces.(i))))
      ()
  in
  let fit =
    {
      Charge_fit.approx;
      charge_rms;
      sample_xs = [||];
      sample_ys = [||];
    }
  in
  let solver = Scv_solver.create ~qs:approx ~c_sigma:(Device.c_sigma device) in
  let temp = device.Device.temp in
  let identity = identity_of ~polarity ~device ~spec in
  {
    device;
    polarity;
    spec;
    fit;
    solver;
    kt_ev = Fermi.kt_ev temp;
    current_scale =
      2.0 *. Constants.elementary_charge *. Constants.thermal_energy temp
      /. (Float.pi *. Constants.hbar);
    identity;
  }

let model1 ?polarity ?optimise ?(device = Device.default) () =
  make ?polarity ~spec:Charge_fit.model1_spec ?optimise device

(* The paper's Model 2 (four pieces). *)
let model2 ?polarity ?optimise ?(device = Device.default) () =
  make ?polarity ~spec:Charge_fit.model2_spec ?optimise device

let device t = t.device
let polarity t = t.polarity
let spec t = t.spec
let identity t = t.identity
let charge_approx t = t.fit.Charge_fit.approx
let charge_rms t = t.fit.Charge_fit.charge_rms
let solver t = t.solver

(* Map terminal voltages through the device polarity: a p-type device
   is the electron-hole mirror of the n-type one. *)
let oriented t ~vgs ~vds =
  match t.polarity with N_type -> (vgs, vds) | P_type -> (-.vgs, -.vds)

(* Drain current (n-type sign) from a solved V_SC on oriented
   voltages (paper eq. 14). *)
let current t ~vsc ~vds =
  let eta_s = (t.device.Device.fermi -. vsc) /. t.kt_ev in
  let eta_d = eta_s -. (vds /. t.kt_ev) in
  t.current_scale
  *. (Fermi.integral_order0 eta_s -. Fermi.integral_order0 eta_d)

(* The closed-form V_SC solve on oriented voltages. *)
let oriented_vsc t ~ovgs ~ovds =
  let qt = Device.terminal_charge t.device ~vgs:ovgs ~vds:ovds in
  Scv_solver.solve t.solver ~qt ~vds:ovds

let solve_vsc t ~vgs ~vds =
  let ovgs, ovds = oriented t ~vgs ~vds in
  oriented_vsc t ~ovgs ~ovds

let solve_stats t ~vgs ~vds =
  let vgs, vds = oriented t ~vgs ~vds in
  let qt = Device.terminal_charge t.device ~vgs ~vds in
  Scv_solver.solve_stats t.solver ~qt ~vds

(* Drain current from a solved V_SC (paper eq. 14); sign follows the
   device polarity. *)
let ids t ~vgs ~vds =
  Obs.incr c_ids_evals;
  let ovgs, ovds = oriented t ~vgs ~vds in
  let i = current t ~vsc:(oriented_vsc t ~ovgs ~ovds) ~vds:ovds in
  match t.polarity with N_type -> i | P_type -> -.i

(* Mobile charges at a bias point (for charge-conserving transient
   stamps): total tube charge and its split between source and drain
   (C/m). *)
let charges t ~vgs ~vds =
  let ovgs, ovds = oriented t ~vgs ~vds in
  let vsc = oriented_vsc t ~ovgs ~ovds in
  let qs = Piecewise.eval (charge_approx t) vsc in
  let qd = Piecewise.eval (charge_approx t) (vsc +. ovds) in
  (vsc, qs, qd)

(* -------------------------------------------------------------- *)
(* Batched kernel                                                 *)
(* -------------------------------------------------------------- *)

type grid = (float, Bigarray.float64_elt, Bigarray.c_layout) Bigarray.Array2.t

(* One drain column evaluated through a hoisted Scv_solver plan; the
   per-point program is the same floating-point program as [ids] with
   [Scv_solver.solve] replaced by the bitwise-equal [solve_plan]. *)
let eval_batch t ~vgs ~vds =
  Obs.span "cnt_model.eval_batch" @@ fun () ->
  let ni = Array.length vgs and nj = Array.length vds in
  let out = Bigarray.Array2.create Bigarray.float64 Bigarray.c_layout ni nj in
  let sign = match t.polarity with N_type -> 1.0 | P_type -> -1.0 in
  for j = 0 to nj - 1 do
    let _, ovds = oriented t ~vgs:0.0 ~vds:vds.(j) in
    let plan = Scv_solver.plan t.solver ~vds:ovds in
    for i = 0 to ni - 1 do
      let ovgs, _ = oriented t ~vgs:vgs.(i) ~vds:0.0 in
      let qt = Device.terminal_charge t.device ~vgs:ovgs ~vds:ovds in
      let vsc = Scv_solver.solve_plan plan ~qt in
      Bigarray.Array2.unsafe_set out i j (sign *. current t ~vsc ~vds:ovds)
    done
  done;
  Obs.incr ~by:(ni * nj) c_ids_evals;
  Obs.incr c_batch_evals;
  out

let output_family t ~vgs_list ~vds_points =
  let vgs = Array.of_list vgs_list in
  let g = eval_batch t ~vgs ~vds:vds_points in
  List.mapi
    (fun i vg ->
      (vg, Array.init (Array.length vds_points) (fun j -> Bigarray.Array2.get g i j)))
    vgs_list

let transfer t ~vds ~vgs_points =
  let g = eval_batch t ~vgs:vgs_points ~vds:[| vds |] in
  Array.init (Array.length vgs_points) (fun i -> Bigarray.Array2.get g i 0)

(* Analytic small-signal parameters from one solved V_SC.  On oriented
   voltages the current is I = scale (F0(eta_s) - F0(eta_d)) with
   eta_s = (E_F - V_SC)/kT and eta_d = eta_s - V_DS/kT, so at fixed
   V_DS, dI/dV_SC = (scale/kT) (F0'(eta_d) - F0'(eta_s)).  V_SC is the
   root of F(V) = C_Sigma V + Q_t - Q_S(V) - Q_S(V + V_DS) with
   Q_t = C_G V_GS + C_D V_DS, so by the implicit function theorem
   dV_SC/dV_GS = -C_G/F' and dV_SC/dV_DS = (Q_S'(V_SC + V_DS) - C_D)/F',
   and V_DS also enters eta_d directly.  The p-type mirror
   I_p(v) = -I_n(-v) negates both the current and the voltages, so gm
   and gds keep their sign.  The three results land in [out] (an
   unboxed float array, so the assembly loop allocates nothing). *)
let small_signal t ~cg ~cd ~vsc ~ovds ~slope ~drain_slope out =
  let kt = t.kt_ev in
  let eta_s = (t.device.Device.fermi -. vsc) /. kt in
  let eta_d = eta_s -. (ovds /. kt) in
  let i =
    t.current_scale
    *. (Fermi.integral_order0 eta_s -. Fermi.integral_order0 eta_d)
  in
  let g = t.current_scale /. kt in
  let sd = Fermi.integral_order0' eta_d in
  let di_dvsc = g *. (sd -. Fermi.integral_order0' eta_s) in
  let gm = di_dvsc *. (-.cg /. slope) in
  let gds = (di_dvsc *. ((drain_slope -. cd) /. slope)) +. (g *. sd) in
  out.(0) <- (match t.polarity with N_type -> i | P_type -> -.i);
  out.(1) <- gm;
  out.(2) <- gds

(* The scalar (current, gm, gds) at a bias point, through the scalar
   solve. *)
let linearise t ~vgs ~vds =
  Obs.incr c_ids_evals;
  let ovgs, ovds = oriented t ~vgs ~vds in
  let cg = Device.c_gate t.device and cd = Device.c_drain t.device in
  let s =
    Scv_solver.solve_stats t.solver ~qt:((cg *. ovgs) +. (cd *. ovds)) ~vds:ovds
  in
  let out = Array.make 3 0.0 in
  small_signal t ~cg ~cd ~vsc:s.Scv_solver.vsc ~ovds ~slope:s.Scv_solver.slope
    ~drain_slope:s.Scv_solver.drain_slope out;
  (out.(0), out.(1), out.(2))

type vec = (float, Bigarray.float64_elt, Bigarray.c_layout) Bigarray.Array1.t

(* [linearise] as MNA assembly calls it: one solver plan per evaluator,
   retargeted each call ([replan] is a no-op at an unchanged drain
   bias, which quasi-static waveforms hit often), the device
   capacitances hoisted, and the three results written to slot [k] of
   the output columns.  [solve_plan] and its slopes are bitwise the
   scalar solve's, so each value is bitwise [linearise]'s.

   [fault_i0] is the [Fault.Nan_eval] injection site: the current
   becomes NaN while the solve still runs and gm/gds are written as
   usual — [Fault.fires] is stateless, so hoisting the decision out of
   the assembly loop cannot change it.  One evaluator belongs to one
   domain at a time: assembly keeps one per device per cloned
   system. *)
let evaluator t =
  let cg = Device.c_gate t.device and cd = Device.c_drain t.device in
  let flip = match t.polarity with N_type -> false | P_type -> true in
  let plan = Scv_solver.plan t.solver ~vds:0.0 in
  let out = Array.make 3 0.0 in
  fun ~fault_i0 ~vgs ~vds ~i0 ~gm ~gds ~k ->
    Obs.incr c_ids_evals;
    (* [oriented] without its tuple: the same [-.] flip *)
    let ovgs = if flip then -.vgs else vgs in
    let ovds = if flip then -.vds else vds in
    Scv_solver.replan plan ~vds:ovds;
    let vsc = Scv_solver.solve_plan plan ~qt:((cg *. ovgs) +. (cd *. ovds)) in
    small_signal t ~cg ~cd ~vsc ~ovds ~slope:(Scv_solver.plan_slope plan)
      ~drain_slope:(Scv_solver.plan_drain_slope plan) out;
    Bigarray.Array1.unsafe_set i0 k (if fault_i0 then Float.nan else out.(0));
    Bigarray.Array1.unsafe_set gm k out.(1);
    Bigarray.Array1.unsafe_set gds k out.(2)

let pp fmt t =
  Format.fprintf fmt "@[<v>%s model (%s, %d pieces, charge RMS %.3f%%)@ %a@]"
    (match t.polarity with N_type -> "n-type" | P_type -> "p-type")
    t.device.Device.name
    (Piecewise.piece_count (charge_approx t))
    (100.0 *. charge_rms t)
    Device.pp t.device
