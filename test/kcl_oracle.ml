(* Scalar test oracle for batched CNFET assembly.

   Production MNA stamps every CNFET through the batched
   gather/eval/scatter pipeline; nothing else does.  This oracle
   re-derives, from the netlist alone, the current each element draws
   at a solution the batched runs returned, evaluating every CNFET with
   a scalar [Device_model.ids] call, and checks that Kirchhoff's current
   law closes at every node.  [check_newton_step] applies the same
   bookkeeping to one undamped Newton step, where each CNFET contributes
   its scalar linearisation (ids, gm, gds at the starting point): that
   pins the Jacobian the scatter pass stamps, which a converged solution
   alone cannot see. *)

open Cnt_spice
module DM = Cnt_core.Device_model

(* Net current leaving each node, and the largest single contribution
   there (the scale the residual is judged against).  [cnfet m ~d ~g ~s]
   is the drain-to-source current of the CNFET with model [m] and
   terminal nodes [d], [g], [s]; capacitors are open (DC only). *)
let node_currents ~gmin ~cnfet c x =
  let n = Mna.node_count c in
  let net = Array.make n 0.0 and scale = Array.make n 0.0 in
  let add node i =
    if node >= 0 then begin
      net.(node) <- net.(node) +. i;
      scale.(node) <- Float.max scale.(node) (Float.abs i)
    end
  in
  (* current [i] leaving node [a] and entering node [b] *)
  let through a b i =
    add (Mna.node_id c a) i;
    add (Mna.node_id c b) (-.i)
  in
  let v = Mna.voltage c x in
  for k = 0 to n - 1 do
    add k (gmin *. x.(k))
  done;
  List.iter
    (function
      | Circuit.Resistor { n1; n2; ohms; _ } ->
          through n1 n2 ((v n1 -. v n2) /. ohms)
      | Circuit.Capacitor _ -> ()
      | Circuit.Inductor { name; n1; n2; _ } ->
          through n1 n2 x.(Mna.branch_id c name)
      | Circuit.Vsource { name; npos; nneg; _ } ->
          through npos nneg (Mna.vsource_current c x name)
      | Circuit.Isource { npos; nneg; wave; _ } ->
          through npos nneg (Waveform.dc_value wave)
      | Circuit.Cnfet { drain; gate; source; params; _ } ->
          through drain source
            (cnfet params.Circuit.model ~d:drain ~g:gate ~s:source))
    (Circuit.elements (Mna.circuit c));
  (net, scale)

let check ~rtol label c (net, scale) =
  Array.iteri
    (fun k i ->
      if not (Float.abs i <= (rtol *. scale.(k)) +. 1e-18) then
        Alcotest.failf "%s: KCL open at node %s: %.3e A net against %.3e A"
          label (Mna.node_name c k) i scale.(k))
    net

let bias c x ~d ~g ~s =
  let v = Mna.voltage c x in
  (v g -. v s, v d -. v s)

(* KCL at a converged DC solution [x] of [c], every CNFET evaluated by
   scalar [ids].  The tolerance sits well above what Newton's 1e-9
   update criterion leaves (at most ~3e-7 of the largest branch current
   on the committed circuits, on the vs backend) and far below any
   stamping error. *)
let check_solution ?(gmin = 1e-12) ?(rtol = 1e-5) label c x =
  let cnfet m ~d ~g ~s =
    let vgs, vds = bias c x ~d ~g ~s in
    DM.ids m ~vgs ~vds
  in
  check ~rtol label c (node_currents ~gmin ~cnfet c x)

(* One full, unclamped Newton step from [x0] must solve the circuit
   linearised at [x0] with scalar ids/gm/gds, to rounding. *)
let check_newton_step ?(gmin = 1e-12) ?(rtol = 1e-9) label c x0 =
  let x1 =
    Mna.newton ~gmin ~max_iter:1 ~tol:infinity ~max_step:infinity c
      ~eval_wave:(fun _ w -> Waveform.dc_value w)
      ~cap:Mna.Open_circuit x0
  in
  let cnfet m ~d ~g ~s =
    let vgs0, vds0 = bias c x0 ~d ~g ~s and vgs1, vds1 = bias c x1 ~d ~g ~s in
    let i0, gm, gds = DM.linearise m ~vgs:vgs0 ~vds:vds0 in
    i0 +. (gm *. (vgs1 -. vgs0)) +. (gds *. (vds1 -. vds0))
  in
  check ~rtol label c (node_currents ~gmin ~cnfet c x1)
