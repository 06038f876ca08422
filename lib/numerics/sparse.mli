(** Sparse linear algebra for circuit-sized systems: a pattern-frozen
    compressed-sparse-row matrix refilled in place between solves, and a
    left-looking (Gilbert-Peierls) sparse LU with partial pivoting whose
    workspace is reused across refactorisations.

    The intended life cycle mirrors a Newton loop:

    {[
      let b = Sparse.Builder.create n in
      (* symbolic phase: register every (row, col) that will ever be
         written; duplicates are fine *)
      Sparse.Builder.add b i j;
      ...
      let m = Sparse.Builder.finalize b in
      let lu = Sparse.lu_create m in
      (* numeric phase, once per iteration, no allocation: *)
      Sparse.clear m;
      Sparse.add_slot m (Sparse.slot m i j) v;
      ...
      Sparse.refactor lu m;
      let x = Sparse.lu_solve lu rhs in
      ...
    ]} *)

exception Singular of string

type t
(** A square sparse matrix with a frozen sparsity pattern. *)

(** Pattern accumulation before the structure is frozen. *)
module Builder : sig
  type matrix := t
  type t

  val create : int -> t
  (** [create n] starts an empty pattern for an [n x n] matrix. *)

  val add : t -> int -> int -> unit
  (** Register location [(row, col)].  Duplicates are collapsed.
      Raises [Invalid_argument] on out-of-range indices. *)

  val finalize : t -> matrix
  (** Freeze the pattern into a CSR matrix with all values zero. *)
end

val dim : t -> int
val nnz : t -> int

val slot : t -> int -> int -> int
(** Stable index of a pattern location in the value array; the handle
    used for in-place refill.  Raises [Invalid_argument] when [(i, j)]
    is not part of the pattern. *)

val clear : t -> unit
(** Zero every stored value, keeping the pattern. *)

val share_pattern : t -> t
(** A matrix over the same frozen pattern with its own zeroed values:
    the CSR structure and slot index are shared (read-only after
    {!Builder.finalize}), so slots of [m] are valid on the result and
    the two can be refilled concurrently. *)

val add_slot : t -> int -> float -> unit
(** [add_slot m s v] accumulates [v] into the entry with handle [s]. *)

val add_to : t -> int -> int -> float -> unit
(** [add_to m i j v] accumulates into location [(i, j)]; convenience
    wrapper over {!slot} and {!add_slot}. *)

val get : t -> int -> int -> float
(** Entry value; [0.] for locations outside the pattern. *)

val mul_vec : t -> float array -> float array
(** Sparse matrix-vector product [m x]. *)

val residual_inf : t -> float array -> float array -> float
(** [residual_inf m x b] is [||m x - b||_inf], computed without
    allocating. *)

type lu
(** Reusable factorisation workspace: numeric L/U factors plus the
    scratch arrays of the left-looking factorisation.  Allocated once
    per structure; {!refactor} grows its fill arrays only when needed
    and otherwise runs allocation-free. *)

val lu_create : t -> lu

val refactor : ?orig_col:(int -> int) -> lu -> t -> unit
(** Factor the matrix's current values with partial pivoting,
    overwriting the workspace's previous factors.  Raises {!Singular}
    on a structurally or numerically singular matrix.  [orig_col] maps
    a column of this (possibly permuted) matrix back to the caller's
    original unknown index; when provided and non-identity at the
    failing column, the zero-pivot message also names that original
    unknown. *)

val amd_order : n:int -> (int * int) array -> int array * int
(** Greedy minimum-degree ordering of the symmetrised pattern graph
    (the exact-degree special case of approximate minimum degree),
    with deterministic lowest-index tie-breaking.  Returns
    [(perm, fill)]: [perm.(k)] is the original index eliminated at
    position [k], and [fill] is the symbolic factorisation fill of
    that order — the sum of neighbourhood sizes at elimination time,
    an nnz(L) proxy.  Pivots come off a binary heap keyed by
    (degree, index) with lazy deletion. *)

val lu_solve : lu -> float array -> float array
(** Solve [A x = b] using the factors of the last {!refactor}. *)

val solve : t -> float array -> float array
(** One-shot solve with a throwaway workspace. *)
