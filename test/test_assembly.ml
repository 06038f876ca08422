(* Batched-assembly oracle and ordering tests.

   MNA stamps CNFETs only through the batched gather/eval/scatter
   pipeline.  The scalar per-device path survives here as a test
   oracle ({!Kcl_oracle}): at every solution the batched runs return —
   operating points, DC sweeps at jobs 1 and 4, AMD ordering, the bias
   point AC linearises around — each CNFET is
   evaluated with scalar [Device_model.ids] and KCL must close at every
   node, and one Newton step must solve the scalar linearisation.  Also
   here: the supporting bitwise pins (plan replanning, allocation-free
   shift) and the AMD fill-reducing ordering properties. *)

open Cnt_numerics
open Cnt_spice

let bits = Int64.bits_of_float

(* One fitted model pair shared by every circuit in this file. *)
let fam =
  lazy (Stdcells.family ~length:100e-9 ())

let inverter_circuit ?(vin = 0.27) () =
  let fam = Lazy.force fam in
  Stdcells.bench fam
    ~stimuli:[ Circuit.vdc "vin" "in" "0" vin ]
    ~cells:(Stdcells.inverter fam ~prefix:"x" ~input:"in" ~output:"out" ~vdd_node:"vdd")

let ring_circuit ~stages =
  let fam = Lazy.force fam in
  let cells, _ = Stdcells.ring_oscillator fam ~prefix:"r" ~stages ~vdd_node:"vdd" in
  Stdcells.bench fam ~stimuli:[] ~cells

(* ------------------------------------------------------------------ *)
(* Scalar oracle at batched solutions                                  *)
(* ------------------------------------------------------------------ *)

let test_op_kcl () =
  List.iter
    (fun (label, c) ->
      let r = Dc.operating_point c in
      Kcl_oracle.check_solution label r.Dc.compiled r.Dc.solution)
    [ ("inverter op", inverter_circuit ()); ("ring-5 op", ring_circuit ~stages:5) ]

let test_dc_sweep_kcl () =
  let c = inverter_circuit () in
  List.iter
    (fun jobs ->
      let r = Dc.sweep ~jobs c ~source:"vin" ~start:0.0 ~stop:0.6 ~step:0.05 in
      Array.iteri
        (fun i (p : Dc.op_result) ->
          Kcl_oracle.check_solution
            (Printf.sprintf "sweep point %d (jobs=%d)" i jobs)
            p.Dc.compiled p.Dc.solution)
        r.Dc.points)
    [ 1; 4 ]

let test_ac_bias_kcl () =
  let fam = Lazy.force fam in
  let c =
    Circuit.create
      [
        Circuit.vdc "vdd" "vdd" "0" 0.6;
        Circuit.vsource ~ac:1.0 "vin" "g" "0" (Waveform.dc 0.45);
        Circuit.resistor "rl" "vdd" "d" 50e3;
        Circuit.cnfet "m1" ~drain:"d" ~gate:"g" ~source:"0" fam.Stdcells.n_model;
      ]
  in
  let r = Ac.run c ~freqs:[| 1e3; 1e6; 1e9 |] in
  Kcl_oracle.check_solution "ac bias point" r.Ac.compiled r.Ac.op.Dc.solution

let test_amd_ordering_kcl () =
  let c = inverter_circuit () in
  let nat =
    Dc.operating_point ~backend:Linear_solver.Sparse_backend
      ~ordering:Linear_solver.Natural c
  in
  let amd =
    Dc.operating_point ~backend:Linear_solver.Sparse_backend
      ~ordering:Linear_solver.Amd c
  in
  Kcl_oracle.check_solution "amd op" amd.Dc.compiled amd.Dc.solution;
  (* orderings permute the same linear systems, so they land on the
     same solution to well within the Newton tolerance *)
  Array.iteri
    (fun i v ->
      if Float.abs (v -. amd.Dc.solution.(i)) > 1e-9 then
        Alcotest.failf "ordering changed the solution beyond 1e-9 at %d" i)
    nat.Dc.solution

let test_newton_step_linearisation () =
  (* one undamped step from a point off the solution: the Jacobian the
     scatter pass stamps must be the scalar gm/gds linearisation *)
  List.iter
    (fun (label, c, backend) ->
      let r = Dc.operating_point ~backend c in
      let x0 =
        Array.mapi
          (fun i v ->
            if i < Mna.node_count r.Dc.compiled then
              v +. (0.03 *. float_of_int ((i mod 3) - 1))
            else v)
          r.Dc.solution
      in
      Kcl_oracle.check_newton_step label r.Dc.compiled x0)
    [
      ("inverter (dense)", inverter_circuit (), Linear_solver.Dense_backend);
      ("ring-5 (sparse)", ring_circuit ~stages:5, Linear_solver.Sparse_backend);
    ]

(* ------------------------------------------------------------------ *)
(* Plan replanning and shift_into bitwise pins                         *)
(* ------------------------------------------------------------------ *)

let test_replan_matches_plan () =
  let m = (Lazy.force fam).Stdcells.n_model in
  let s = Cnt_core.Cnt_model.solver m in
  let reused = Cnt_core.Scv_solver.plan s ~vds:0.123 in
  let rng = Random.State.make [| 42 |] in
  for _ = 1 to 200 do
    let vds = Random.State.float rng 0.8 -. 0.1 in
    let qt = -.Random.State.float rng 1e-9 in
    Cnt_core.Scv_solver.replan reused ~vds;
    let fresh = Cnt_core.Scv_solver.plan s ~vds in
    let a = Cnt_core.Scv_solver.solve_plan reused ~qt in
    let b = Cnt_core.Scv_solver.solve_plan fresh ~qt in
    let c = Cnt_core.Scv_solver.solve s ~qt ~vds in
    if not (Int64.equal (bits a) (bits b)) then
      Alcotest.failf "replan vs fresh plan differ: %h vs %h" a b;
    if not (Int64.equal (bits a) (bits c)) then
      Alcotest.failf "plan vs scalar solve differ: %h vs %h" a c;
    (* replanning at the current vds must be a warm no-op with the same
       bitwise results *)
    Cnt_core.Scv_solver.replan reused ~vds;
    let a' = Cnt_core.Scv_solver.solve_plan reused ~qt in
    if not (Int64.equal (bits a) (bits a')) then
      Alcotest.failf "same-vds replan changed the solve: %h vs %h" a a'
  done

let test_shift_into_matches_shift () =
  let rng = Random.State.make [| 7 |] in
  let acc = Array.make 8 0.0 and scr = Array.make 8 0.0 in
  for _ = 1 to 500 do
    let n = 1 + Random.State.int rng 4 in
    let p =
      Array.init n (fun _ ->
          match Random.State.int rng 5 with
          | 0 -> 0.0
          | _ -> Random.State.float rng 2.0 -. 1.0)
    in
    let a = Random.State.float rng 2.0 -. 1.0 in
    let expected = Polynomial.shift p a in
    let len = Polynomial.shift_into p a acc scr in
    Alcotest.(check int) "coefficient count" (Array.length expected) len;
    for i = 0 to len - 1 do
      if not (Int64.equal (bits expected.(i)) (bits acc.(i))) then
        Alcotest.failf "shift_into coefficient %d differs: %h vs %h" i
          expected.(i) acc.(i)
    done
  done

(* ------------------------------------------------------------------ *)
(* AMD ordering properties                                             *)
(* ------------------------------------------------------------------ *)

let random_pattern rng n =
  (* connected-ish random sparse pattern with a full diagonal *)
  let entries = Hashtbl.create 64 in
  for i = 0 to n - 1 do
    Hashtbl.replace entries (i, i) ()
  done;
  let extra = 2 * n in
  for _ = 1 to extra do
    let i = Random.State.int rng n and j = Random.State.int rng n in
    Hashtbl.replace entries (i, j) ()
  done;
  Array.of_seq (Hashtbl.to_seq_keys entries)

let test_amd_permutation_valid () =
  let rng = Random.State.make [| 2024 |] in
  for _ = 1 to 50 do
    let n = 2 + Random.State.int rng 40 in
    let pattern = random_pattern rng n in
    let perm, _fill = Sparse.amd_order ~n pattern in
    Alcotest.(check int) "perm length" n (Array.length perm);
    let seen = Array.make n false in
    Array.iter
      (fun p ->
        if p < 0 || p >= n then Alcotest.failf "perm entry %d out of range" p;
        if seen.(p) then Alcotest.failf "perm entry %d duplicated" p;
        seen.(p) <- true)
      perm
  done

let test_amd_fill_no_worse () =
  let rng = Random.State.make [| 99 |] in
  for _ = 1 to 50 do
    let n = 2 + Random.State.int rng 40 in
    let pattern = random_pattern rng n in
    let _, amd_fill = Sparse.amd_order ~n pattern in
    let nat_fill = Sparse.natural_fill ~n pattern in
    if amd_fill > nat_fill then
      Alcotest.failf "amd fill %d exceeds natural fill %d (n=%d)" amd_fill
        nat_fill n
  done

(* ------------------------------------------------------------------ *)
(* Jobs capping                                                        *)
(* ------------------------------------------------------------------ *)

let test_cap_jobs () =
  let cores = Domain.recommended_domain_count () in
  Alcotest.(check int) "1 stays 1" 1 (Cnt_par.Pool.cap_jobs 1);
  Alcotest.(check int) "cores stay cores" cores (Cnt_par.Pool.cap_jobs cores);
  Alcotest.(check int) "excess capped at cores" cores
    (Cnt_par.Pool.cap_jobs (cores + 37));
  Alcotest.(check int) "zero clamps to 1" 1 (Cnt_par.Pool.cap_jobs 0)

let () =
  Alcotest.run "cnt_assembly"
    [
      ( "oracle",
        [
          Alcotest.test_case "op closes kcl" `Quick test_op_kcl;
          Alcotest.test_case "dc sweep kcl, serial and pooled" `Quick
            test_dc_sweep_kcl;
          Alcotest.test_case "ac bias point closes kcl" `Quick test_ac_bias_kcl;
          Alcotest.test_case "kcl under amd ordering" `Quick
            test_amd_ordering_kcl;
          Alcotest.test_case "newton step = scalar linearisation" `Quick
            test_newton_step_linearisation;
        ] );
      ( "plans",
        [
          Alcotest.test_case "replan bitwise-equals fresh plan" `Quick
            test_replan_matches_plan;
          Alcotest.test_case "shift_into bitwise-equals shift" `Quick
            test_shift_into_matches_shift;
        ] );
      ( "ordering",
        [
          Alcotest.test_case "amd perm is a permutation" `Quick
            test_amd_permutation_valid;
          Alcotest.test_case "amd fill <= natural fill" `Quick
            test_amd_fill_no_worse;
        ] );
      ( "jobs",
        [ Alcotest.test_case "cap_jobs clamps at host cores" `Quick test_cap_jobs ] );
    ]
