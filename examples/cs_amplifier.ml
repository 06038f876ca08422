(* CNT common-source amplifier: bias point, small-signal gain and
   bandwidth from the AC analysis, verified against gm and ro extracted
   from the model.

   Run with:  dune exec examples/cs_amplifier.exe *)

open Cnt_spice
open Cnt_core

let vdd = 0.6
let vbias = 0.4
let r_load = 120e3
let c_load = 5e-15

let () =
  let model = Cnt_model.model2 () in
  let circuit =
    Circuit.create
      [
        Circuit.vdc "vdd" "vdd" "0" vdd;
        (* gate bias with unit AC magnitude riding on it *)
        Circuit.vsource ~ac:1.0 "vin" "g" "0" (Waveform.dc vbias);
        Circuit.resistor "rl" "vdd" "d" r_load;
        Circuit.capacitor "cl" "d" "0" c_load;
        Circuit.cnfet ~length:100e-9 "m1" ~drain:"d" ~gate:"g" ~source:"0" model;
      ]
  in
  (* DC operating point *)
  let op = Dc.operating_point circuit in
  let vd = Dc.voltage op "d" in
  let id = (vdd -. vd) /. r_load in
  Printf.printf "CNT common-source amplifier (VDD=%.1f V, Vbias=%.2f V, RL=%.0f k)\n"
    vdd vbias (r_load /. 1e3);
  Printf.printf "  operating point: V(d) = %.3f V, I_D = %.2f uA\n" vd (id *. 1e6);

  (* model-level small-signal parameters at that bias *)
  let _, gm, gds = Cnt_model.linearise model ~vgs:vbias ~vds:vd in
  let gain_expected = gm /. ((1.0 /. r_load) +. gds) in
  Printf.printf "  extracted gm = %.2f uS, gds = %.2f uS -> |Av| = %.2f expected\n"
    (gm *. 1e6) (gds *. 1e6) gain_expected;

  (* AC sweep *)
  let freqs = Ac.decade_frequencies ~start:1e6 ~stop:1e12 ~per_decade:10 in
  let r = Ac.run circuit ~freqs in
  let vout = Ac.voltage r "d" in
  let gain_measured = Complex.norm vout.(0) in
  Printf.printf "  AC low-frequency |Av| = %.2f (%.1f dB)\n" gain_measured
    (20.0 *. log10 gain_measured);
  (match Ac.corner_frequency r "d" with
  | Some f ->
      Printf.printf "  -3 dB bandwidth = %.2f GHz\n" (f /. 1e9);
      let rout = 1.0 /. ((1.0 /. r_load) +. gds) in
      Printf.printf "  (RC estimate 1/(2 pi Rout CL) = %.2f GHz)\n"
        (1.0 /. (2.0 *. Float.pi *. rout *. c_load) /. 1e9)
  | None -> print_endline "  response flat over the sweep");

  (* render the Bode magnitude *)
  let mags = Ac.magnitude_db vout in
  Cnt_experiments.Ascii_plot.print ~title:"gain magnitude (dB) vs log10 frequency"
    [
      Cnt_experiments.Ascii_plot.series ~marker:'*' ~label:"20 log10 |v(d)/v(in)|"
        (Array.map log10 freqs) mags;
    ]
