(** One-dimensional numerical integration.

    All integrators take the integrand as a plain [float -> float]
    function and integrate over a closed interval [[a, b]]. *)

val trapezoid : (float -> float) -> float -> float -> int -> float
(** [trapezoid f a b n] is the composite trapezoid rule with [n]
    uniform panels. *)

val simpson : (float -> float) -> float -> float -> int -> float
(** [simpson f a b n] is the composite Simpson rule; [n] must be even
    and positive. *)

val adaptive_simpson :
  ?tol:float -> ?max_depth:int -> (float -> float) -> float -> float -> float
(** Adaptive Simpson integration with Richardson error control to
    absolute tolerance [tol] (default 1e-12); recursion depth is capped
    at [max_depth] (default 40). *)
