(** Pluggable linear-solver backends for stamp-based system assembly.

    A backend owns a square matrix with a fixed write pattern plus
    whatever factorisation scratch it needs.  Callers drive it through
    the stamp life cycle: resolve each pattern location to a stable
    {e slot} once, then per iteration [clear], accumulate values into
    slots, and [solve] — with no per-iteration matrix allocation in
    either backend.  {!Dense} stores a [Linalg] matrix and refactors it
    in place; {!Sparse_lu} stores a CSR {!Sparse.t} with a reusable
    sparse-LU workspace. *)

exception Singular of string
(** Raised by [solve] in any backend; wraps the backend's own
    singular-matrix exception. *)

module type S = sig
  type t

  val name : string
  (** Short identifier used in solver statistics ("dense", "sparse"). *)

  val create : int -> (int * int) array -> t
  (** [create n pattern] allocates an [n x n] system whose writable
      locations are the (row, col) pairs of [pattern] (duplicates
      allowed).  All symbolic work happens here. *)

  val renew : t -> t
  (** A fresh numeric workspace over the same symbolic analysis: new
      values and factorisation scratch, with the frozen structure (and
      the sparse backend's permutation) shared read-only.  Slots of the
      original stay valid on the result, and the two can be refilled
      and solved concurrently. *)

  val dim : t -> int

  val nnz : t -> int
  (** Stored entries: pattern size for sparse, [n*n] for dense. *)

  val slot : t -> int -> int -> int
  (** Stable handle of a pattern location, for allocation-free refill. *)

  val clear : t -> unit
  (** Zero all values, keeping the structure. *)

  val add_slot : t -> int -> float -> unit
  (** Accumulate into a slot obtained from {!slot}. *)

  val add_to : t -> int -> int -> float -> unit
  (** Accumulate into a location by index pair. *)

  val residual : t -> float array -> float array -> float
  (** [residual m x b] is [||m x - b||_inf] at the current values. *)

  val residual_argmax : t -> float array -> float array -> int * float
  (** [residual_argmax m x b] is the row index carrying the largest
      per-row residual [|m x - b|_i] together with that residual (a row
      whose residual is NaN wins outright).  Diagnostics only — the
      common norm path is {!residual}. *)

  val solve : t -> float array -> float array
  (** Factor the current values and solve.  Raises {!Singular}. *)

  val fill : t -> int
  (** Symbolic factorisation fill of the order in use ([0] for dense,
      which has no fill bookkeeping). *)
end

module Dense : S
(** Dense backend over [Linalg]: O(n^3) in-place LU with partial
    pivoting; right for small systems where fill bookkeeping costs more
    than it saves. *)

module Sparse_lu : S
(** Sparse backend over [Sparse]: CSR storage and Gilbert-Peierls LU
    with partial pivoting and a reused workspace.  The unknowns are
    always permuted by greedy minimum degree ({!Sparse.amd_order}),
    computed once at [create]; slots, residuals and solutions are all
    expressed in the caller's original numbering. *)

type backend =
  | Dense_backend
  | Sparse_backend
  | Auto  (** {!Sparse_backend} at or above {!auto_threshold} unknowns *)

val auto_threshold : int
(** Unknown count at which [Auto] switches to the sparse backend
    (25). *)

(** A backend instance packed behind first-class closures, so MNA code
    is generic over the module actually in use. *)
type instance = {
  backend_name : string;
  dim : int;
  nnz : int;
  fill_applied : int;
      (** symbolic factorisation fill of the applied order (sparse;
          [0] for dense) *)
  slot : int -> int -> int;
  clear : unit -> unit;
  add_slot : int -> float -> unit;
  add_to : int -> int -> float -> unit;
  residual : float array -> float array -> float;
  residual_argmax : float array -> float array -> int * float;
  solve : float array -> float array;
  renew : unit -> instance;
      (** {!S.renew} on the packed backend: a fresh numeric workspace
          sharing this instance's symbolic analysis *)
}

val make : backend -> int -> (int * int) array -> instance
(** [make backend n pattern] builds the requested backend ([Auto]
    resolves on [n]). *)
