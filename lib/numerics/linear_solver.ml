(* Interchangeable linear-solver backends behind one stamp-oriented
   interface.  Both backends freeze their structure at [create] and are
   refilled in place, so a Newton loop allocates no matrices after
   compilation; only solution vectors are fresh per solve.

   The sparse backend always applies a fill-reducing symmetric
   permutation (greedy minimum degree, [Sparse.amd_order]) at create
   time: the pattern is permuted once, slot handles resolve through the
   permutation, and solves gather/scatter the right-hand side and
   solution through it — so stamp-program callers see only their own
   unknown numbering.  [renew] reuses all of that symbolic work for a
   second numeric workspace. *)

exception Singular of string

module type S = sig
  type t

  val name : string
  val create : int -> (int * int) array -> t
  val renew : t -> t
  val dim : t -> int
  val nnz : t -> int
  val slot : t -> int -> int -> int
  val clear : t -> unit
  val add_slot : t -> int -> float -> unit
  val add_to : t -> int -> int -> float -> unit
  val residual : t -> float array -> float array -> float
  val residual_argmax : t -> float array -> float array -> int * float
  val solve : t -> float array -> float array
  val fill : t -> int
end

module Dense : S = struct
  type t = {
    n : int;
    a : Linalg.mat; (* stamped values *)
    scratch : Linalg.mat; (* in-place factorisation target *)
    perm : int array;
  }

  let name = "dense"

  let create n _pattern =
    (* dense storage admits every location; fill ordering is moot *)
    {
      n;
      a = Linalg.Mat.make n n 0.0;
      scratch = Linalg.Mat.make n n 0.0;
      perm = Array.make n 0;
    }

  let renew t = create t.n [||]

  let dim t = t.n
  let nnz t = t.n * t.n

  let slot t i j =
    if i < 0 || j < 0 || i >= t.n || j >= t.n then
      invalid_arg (Printf.sprintf "Dense.slot: (%d, %d) out of range" i j);
    (i * t.n) + j

  let clear t =
    for i = 0 to t.n - 1 do
      for j = 0 to t.n - 1 do
        Linalg.Mat.set t.a i j 0.0
      done
    done

  let add_slot t s v = Linalg.Mat.add_to t.a (s / t.n) (s mod t.n) v
  let add_to t i j v = Linalg.Mat.add_to t.a i j v

  let residual t x b =
    let worst = ref 0.0 in
    for i = 0 to t.n - 1 do
      let acc = ref (-.b.(i)) in
      for j = 0 to t.n - 1 do
        acc := !acc +. (Linalg.Mat.get t.a i j *. x.(j))
      done;
      worst := Float.max !worst (Float.abs !acc)
    done;
    !worst

  let residual_argmax t x b =
    let worst = ref 0.0 and row = ref 0 in
    for i = 0 to t.n - 1 do
      let acc = ref (-.b.(i)) in
      for j = 0 to t.n - 1 do
        acc := !acc +. (Linalg.Mat.get t.a i j *. x.(j))
      done;
      let r = Float.abs !acc in
      (* the first NaN row wins and stays: plain [>] is false for NaN *)
      if (not (Float.is_nan !worst)) && (r > !worst || Float.is_nan r)
      then begin
        worst := r;
        row := i
      end
    done;
    (!row, !worst)

  let solve t b =
    try
      Linalg.lu_factor_into ~src:t.a ~dst:t.scratch t.perm;
      Linalg.lu_solve_packed t.scratch t.perm b
    with Linalg.Singular msg -> raise (Singular msg)

  let fill _t = 0
end

module Sparse_lu : S = struct
  type t = {
    m : Sparse.t; (* the permuted pattern *)
    lu : Sparse.lu;
    n : int;
    perm : int array; (* position -> original unknown *)
    pinv : int array; (* original unknown -> position *)
    xp : float array; (* permuted-vector scratch *)
    bp : float array;
    fill : int; (* symbolic fill of the order in use *)
  }

  let name = "sparse"

  let create n pattern =
    let perm, fill = Sparse.amd_order ~n pattern in
    let pinv = Array.make n 0 in
    Array.iteri (fun k v -> pinv.(v) <- k) perm;
    let b = Sparse.Builder.create n in
    Array.iter (fun (i, j) -> Sparse.Builder.add b pinv.(i) pinv.(j)) pattern;
    let m = Sparse.Builder.finalize b in
    {
      m;
      lu = Sparse.lu_create m;
      n;
      perm;
      pinv;
      xp = Array.make n 0.0;
      bp = Array.make n 0.0;
      fill;
    }

  let renew t =
    let m = Sparse.share_pattern t.m in
    {
      t with
      m;
      lu = Sparse.lu_create m;
      xp = Array.make t.n 0.0;
      bp = Array.make t.n 0.0;
    }

  let dim t = Sparse.dim t.m
  let nnz t = Sparse.nnz t.m
  let slot t i j = Sparse.slot t.m t.pinv.(i) t.pinv.(j)
  let clear t = Sparse.clear t.m
  let add_slot t s v = Sparse.add_slot t.m s v
  let add_to t i j v = Sparse.add_to t.m t.pinv.(i) t.pinv.(j) v

  let permute_into t x b =
    for k = 0 to t.n - 1 do
      t.xp.(k) <- x.(t.perm.(k));
      t.bp.(k) <- b.(t.perm.(k))
    done

  (* The permuted system's residual rows are a permutation of the
     original's, so the inf-norm is the same quantity (summation order
     within a row follows the permuted columns). *)
  let residual t x b =
    permute_into t x b;
    Sparse.residual_inf t.m t.xp t.bp

  let residual_argmax t x b =
    permute_into t x b;
    let ax = Sparse.mul_vec t.m t.xp in
    let worst = ref 0.0 and row = ref 0 in
    Array.iteri
      (fun i v ->
        let r = Float.abs (v -. t.bp.(i)) in
        if (not (Float.is_nan !worst)) && (r > !worst || Float.is_nan r)
        then begin
          worst := r;
          row := i
        end)
      ax;
    (t.perm.(!row), !worst)

  let solve t b =
    try
      for k = 0 to t.n - 1 do
        t.bp.(k) <- b.(t.perm.(k))
      done;
      Sparse.refactor ~orig_col:(fun k -> t.perm.(k)) t.lu t.m;
      let xp = Sparse.lu_solve t.lu t.bp in
      Array.init t.n (fun i -> xp.(t.pinv.(i)))
    with Sparse.Singular msg -> raise (Singular msg)

  let fill t = t.fill
end

type backend =
  | Dense_backend
  | Sparse_backend
  | Auto

let auto_threshold = 25

type instance = {
  backend_name : string;
  dim : int;
  nnz : int;
  fill_applied : int; (* symbolic fill of the order in use (sparse) *)
  slot : int -> int -> int;
  clear : unit -> unit;
  add_slot : int -> float -> unit;
  add_to : int -> int -> float -> unit;
  residual : float array -> float array -> float;
  residual_argmax : float array -> float array -> int * float;
  solve : float array -> float array;
  renew : unit -> instance;
}

let instantiate (module B : S) n pattern =
  let rec wrap t =
    {
      backend_name = B.name;
      dim = B.dim t;
      nnz = B.nnz t;
      fill_applied = B.fill t;
      slot = B.slot t;
      clear = (fun () -> B.clear t);
      add_slot = B.add_slot t;
      add_to = B.add_to t;
      residual = B.residual t;
      residual_argmax = B.residual_argmax t;
      solve = B.solve t;
      renew = (fun () -> wrap (B.renew t));
    }
  in
  wrap (B.create n pattern)

let make backend n pattern =
  let m : (module S) =
    match backend with
    | Dense_backend -> (module Dense)
    | Sparse_backend -> (module Sparse_lu)
    | Auto -> if n >= auto_threshold then (module Sparse_lu) else (module Dense)
  in
  instantiate m n pattern
