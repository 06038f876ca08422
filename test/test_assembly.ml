(* Batched-assembly oracle and ordering tests.

   MNA stamps CNFETs only through the batched gather/eval/scatter
   pipeline.  The scalar per-device path survives here as a test
   oracle ({!Kcl_oracle}): at every solution the batched runs return —
   operating points, DC sweeps at jobs 1 and 4, the sparse backend's
   minimum-degree ordering, the bias point AC linearises around — each
   CNFET is evaluated with scalar [Device_model.ids] and KCL must close
   at every node, and one Newton step must solve the scalar
   linearisation.  Also here: the supporting bitwise pins (clones, plan
   replanning, allocation-free shift) and the ordering's properties
   against scan and natural-order oracles. *)

open Cnt_numerics
open Cnt_spice
module Obs = Cnt_obs.Obs

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

let chain_circuit ~stages =
  let fam = Lazy.force fam in
  let cells, _ =
    Stdcells.inverter_chain fam ~prefix:"c" ~input:"in" ~stages ~vdd_node:"vdd"
  in
  Stdcells.bench fam ~stimuli:[ Circuit.vdc "vin" "in" "0" 0.27 ] ~cells

let test_dense_sparse_agree () =
  (* the sparse backend always permutes by minimum degree; the dense
     backend never permutes, so the two land on the same solution only
     to within the Newton tolerance, not bitwise *)
  List.iter
    (fun (label, c) ->
      let dense = Dc.operating_point ~backend:Linear_solver.Dense_backend c in
      let sparse = Dc.operating_point ~backend:Linear_solver.Sparse_backend c in
      Kcl_oracle.check_solution (label ^ " (sparse)") sparse.Dc.compiled
        sparse.Dc.solution;
      Array.iteri
        (fun i v ->
          if Float.abs (v -. sparse.Dc.solution.(i)) > 1e-9 then
            Alcotest.failf "%s: dense and sparse differ beyond 1e-9 at %d (%s)"
              label i (Mna.unknown_name dense.Dc.compiled i))
        dense.Dc.solution)
    [ ("inverter", inverter_circuit ()); ("chain-100", chain_circuit ~stages:100) ]

let test_clone_bitwise () =
  (* a clone shares the template's symbolic analysis (ordering, frozen
     pattern, slot program), so its Newton run is the same arithmetic *)
  List.iter
    (fun (label, c, backend) ->
      let template = Mna.compile ~backend c in
      let clone = Mna.clone template in
      let grandchild = Mna.clone clone in
      let x = Dc.solve_compiled template in
      List.iter
        (fun (who, compiled) ->
          let y = Dc.solve_compiled compiled in
          Array.iteri
            (fun i v ->
              if not (Int64.equal (bits v) (bits y.(i))) then
                Alcotest.failf "%s: %s differs from the template at %d: %h vs %h"
                  label who i v y.(i))
            x)
        [ ("clone", clone); ("clone of a clone", grandchild) ])
    [
      ("inverter (dense)", inverter_circuit (), Linear_solver.Dense_backend);
      ("chain-100 (sparse)", chain_circuit ~stages:100, Linear_solver.Sparse_backend);
    ]

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

(* Oracles for [Sparse.amd_order]: the same clique elimination on the
   symmetrised pattern graph, with the pivot picked by a caller-given
   rule — a linear scan for minimum degree (lowest index on ties), or
   the identity for the natural order.  Returns [(perm, fill)] with
   fill counted as in [Sparse.amd_order]. *)
let eliminate_by ~n pattern ~next =
  let adj = Array.init n (fun _ -> Hashtbl.create 8) in
  Array.iter
    (fun (i, j) ->
      if i <> j then begin
        Hashtbl.replace adj.(i) j ();
        Hashtbl.replace adj.(j) i ()
      end)
    pattern;
  let eliminated = Array.make n false in
  let perm = Array.make n 0 and fill = ref 0 in
  for k = 0 to n - 1 do
    let v = next ~adj ~eliminated k in
    perm.(k) <- v;
    eliminated.(v) <- true;
    let nbrs = List.of_seq (Hashtbl.to_seq_keys adj.(v)) in
    fill := !fill + List.length nbrs;
    List.iter (fun u -> Hashtbl.remove adj.(u) v) nbrs;
    List.iter
      (fun u ->
        List.iter (fun w -> if u <> w then Hashtbl.replace adj.(u) w ()) nbrs)
      nbrs
  done;
  (perm, !fill)

let scan_amd_order ~n pattern =
  eliminate_by ~n pattern ~next:(fun ~adj ~eliminated _k ->
      let best = ref (-1) and bestd = ref max_int in
      for v = 0 to n - 1 do
        if (not eliminated.(v)) && Hashtbl.length adj.(v) < !bestd then begin
          bestd := Hashtbl.length adj.(v);
          best := v
        end
      done;
      !best)

let natural_fill ~n pattern =
  snd (eliminate_by ~n pattern ~next:(fun ~adj:_ ~eliminated:_ k -> k))

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
    let nat_fill = natural_fill ~n pattern in
    if amd_fill > nat_fill then
      Alcotest.failf "amd fill %d exceeds natural fill %d (n=%d)" amd_fill
        nat_fill n
  done

let check_heap_matches_scan label ~n pattern =
  let perm, fill = Sparse.amd_order ~n pattern in
  let perm', fill' = scan_amd_order ~n pattern in
  Alcotest.(check int) (label ^ " fill") fill' fill;
  Alcotest.(check (array int)) (label ^ " perm") perm' perm

let test_heap_matches_scan () =
  let rng = Random.State.make [| 5150 |] in
  for t = 1 to 500 do
    let n = 1 + Random.State.int rng 60 in
    check_heap_matches_scan (Printf.sprintf "random #%d" t) ~n
      (random_pattern rng n)
  done;
  (* an inverter chain with a supply hub: stage k couples its input,
     output and the shared vdd row, the shape whose natural order
     fills in densely *)
  let stages = 300 in
  let n = stages + 2 in
  let vdd = stages + 1 in
  let pattern =
    Array.concat
      (List.init stages (fun k ->
           [| (k, k); (k + 1, k); (k + 1, k + 1); (k + 1, vdd); (vdd, k + 1) |]))
  in
  check_heap_matches_scan "chain with hub" ~n
    (Array.append pattern [| (vdd, vdd) |])

let test_chain_fill_linear () =
  (* structural, no timing: minimum degree keeps the 1000-stage chain's
     fill linear in its size (the natural order's is ~500 x unknowns) *)
  let c = chain_circuit ~stages:1000 in
  Obs.enable ();
  Obs.reset ();
  let compiled = Mna.compile c in
  let fill = Obs.value (Obs.counter "ordering.fill_applied") in
  Obs.disable ();
  let n = Mna.size compiled in
  if fill > 3 * n then
    Alcotest.failf "1000-stage chain: fill %d exceeds 3 x %d unknowns" fill n

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
          Alcotest.test_case "dense = sparse (inverter, chain)" `Quick
            test_dense_sparse_agree;
          Alcotest.test_case "clone newton bitwise = template" `Quick
            test_clone_bitwise;
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
          Alcotest.test_case "heap order = scan order, bitwise" `Quick
            test_heap_matches_scan;
          Alcotest.test_case "chain-1000 fill <= 3 x unknowns" `Quick
            test_chain_fill_linear;
        ] );
      ( "jobs",
        [ Alcotest.test_case "cap_jobs clamps at host cores" `Quick test_cap_jobs ] );
    ]
