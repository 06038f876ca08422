(** Circuit-ready ballistic CNFET compact model — the paper's
    contribution.  Construction fits the piecewise charge curve once;
    every subsequent bias-point evaluation uses only closed-form
    algebra (no integration, no iteration). *)

open Cnt_physics

type polarity =
  | N_type
  | P_type  (** electron-hole mirror of the n-type device *)

type t

val make :
  ?polarity:polarity ->
  ?spec:Charge_fit.spec ->
  ?optimise:bool ->
  ?theory:Charge_fit.theory_curve ->
  Device.t ->
  t
(** Fit a model to a device.  Default spec is the paper's Model 2;
    [~optimise:true] additionally refines the boundary offsets for the
    device's own operating condition (the paper's numerical boundary
    placement; adds a few hundred ms of one-off fitting work).  Pass a
    precomputed [theory] curve to skip resampling the charge
    integrals. *)

val of_parts :
  ?polarity:polarity ->
  ?charge_rms:float ->
  device:Device.t ->
  approx:Piecewise.t ->
  unit ->
  t
(** Rebuild a model from a previously fitted charge approximation
    without refitting (the {!Model_io} deserialisation path). *)

val model1 : ?polarity:polarity -> ?optimise:bool -> ?device:Device.t -> unit -> t
(** The paper's Model 1 (linear/quadratic/zero pieces). *)

val model2 : ?polarity:polarity -> ?optimise:bool -> ?device:Device.t -> unit -> t
(** The paper's Model 2 (linear/quadratic/cubic/zero pieces). *)

val device : t -> Device.t
val polarity : t -> polarity
val spec : t -> Charge_fit.spec

val identity : t -> string
(** Canonical identity string: polarity, full device parameter set and
    the fitted boundary offsets/degrees, floats in hex.  Two models
    with the same identity are interchangeable; anything keyed on a
    model (manifests, server deck caches) must use it. *)

val charge_approx : t -> Piecewise.t
(** The fitted [Q_S(V_SC)] curve. *)

val charge_rms : t -> float
(** Relative RMS error of the charge fit over its window. *)

val solver : t -> Scv_solver.t

val solve_vsc : t -> vgs:float -> vds:float -> float
(** Self-consistent voltage at a bias point, in closed form. *)

val solve_stats : t -> vgs:float -> vds:float -> Scv_solver.stats

val ids : t -> vgs:float -> vds:float -> float
(** Drain current (A) at a bias point (paper eq. 14).  Negative for
    p-type devices under positive bias. *)

val charges : t -> vgs:float -> vds:float -> float * float * float
(** [(v_sc, q_s, q_d)] at a bias point; charges in C/m.  [v_sc] is
    {!solve_vsc} at the same bias, bitwise. *)

(** {1 Batched kernels}

    [eval_batch] evaluates a whole bias grid in one pass over a
    [Bigarray] result, hoisting the per-drain-bias solver plan
    ({!Scv_solver.plan}) out of the inner loop.  Every element is
    {e bitwise-equal} to the corresponding scalar {!ids} call (pinned
    by [test/test_property.ml]). *)

type grid = (float, Bigarray.float64_elt, Bigarray.c_layout) Bigarray.Array2.t

val eval_batch : t -> vgs:float array -> vds:float array -> grid
(** Drain currents for the bias product grid; element [(i, j)] is
    [ids t ~vgs:vgs.(i) ~vds:vds.(j)], bitwise. *)

val output_family :
  t -> vgs_list:float list -> vds_points:float array -> (float * float array) list
(** Output characteristics, evaluated through {!eval_batch}. *)

val transfer : t -> vds:float -> vgs_points:float array -> float array
(** Transfer characteristic, evaluated through {!eval_batch}. *)

(** {1 Small-signal parameters}

    Exact derivatives from the closed form: the one V_SC solve leaves
    the residual's slope [F'] and the drain curve's slope at the root
    ({!Scv_solver.stats}), and the implicit function theorem turns them
    into [dV_SC/dV_GS = -C_G/F'] and
    [dV_SC/dV_DS = (Q_S'(V_SC + V_DS) - C_D)/F'].  No finite
    differences, no extra solves. *)

val linearise : t -> vgs:float -> vds:float -> float * float * float
(** [(ids, gm, gds)] at a bias point: the drain current ({!ids},
    bitwise) and its analytic derivatives [dI/dV_GS], [dI/dV_DS]
    (S), through one scalar solve. *)

type vec = (float, Bigarray.float64_elt, Bigarray.c_layout) Bigarray.Array1.t

val evaluator :
  t ->
  fault_i0:bool ->
  vgs:float ->
  vds:float ->
  i0:vec ->
  gm:vec ->
  gds:vec ->
  k:int ->
  unit
(** [evaluator t] is a fresh MNA evaluation closure owning one solver
    plan ({!Scv_solver.replan}ned each call, a no-op at an unchanged
    drain bias).  Each call writes slot [k] of the three output
    columns with {!linearise}'s triple, bitwise (pinned per backend by
    [test/test_models.ml]), from one closed-form solve.  [fault_i0] is
    the [Fault.Nan_eval] injection site: the current is written as NaN
    while the solve still runs and gm/gds are written as usual.  An
    evaluator must not be shared between domains evaluating
    concurrently (keep one per device per cloned system). *)

val pp : Format.formatter -> t -> unit
