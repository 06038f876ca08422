(* The pluggable device-model tier: registry dispatch, deck [model=]
   parsing, per-backend evaluation invariants (the MNA evaluator bitwise
   equal to scalar calls, jobs-count independence, scalar KCL closing
   at batched DC sweep points, I_DS monotone in V_DS), the --model /
   CNT_MODEL run override, the cache-identity contract (two decks
   differing only in model never share entries), and per-backend
   golden CSVs for a DC sweep and a transient.

   To regenerate the golden CSVs after an intentional change, run from
   the project root:

     CNT_BLESS=1 dune exec test/test_models.exe *)

open Cnt_spice
module DM = Cnt_core.Device_model

(* This suite picks its backends explicitly (configs, --model):
   neutralise any ambient CNT_MODEL (the CI model matrix) for this
   process and the cspice child — empty counts as unset. *)
let () = Unix.putenv "CNT_MODEL" ""

let backends_under_test = [ "piecewise"; "vs" ]

let read_file path =
  let ic = open_in_bin path in
  let n = in_channel_length ic in
  let s = really_input_string ic n in
  close_in ic;
  s

let write_file path s =
  let oc = open_out_bin path in
  output_string oc s;
  close_out oc

let contains haystack needle =
  let h = String.length haystack and n = String.length needle in
  let rec go i = i + n <= h && (String.sub haystack i n = needle || go (i + 1)) in
  go 0

(* Resolve build-tree files relative to this executable so the suite
   behaves the same under `dune runtest` and `dune exec`. *)
let test_dir = Filename.dirname Sys.executable_name
let in_test_dir path = Filename.concat test_dir path
let deck_path name = in_test_dir (Filename.concat "decks" (name ^ ".cir"))
let blessing = Sys.getenv_opt "CNT_BLESS" = Some "1"

let run_ok ?config deck =
  match Engine.run_deck_result ?config deck with
  | Ok tables -> tables
  | Error e -> Alcotest.failf "engine error: %s" (Diag.error_message e)

let cnfet_model circuit name =
  match Circuit.find circuit name with
  | Some (Circuit.Cnfet { params; _ }) -> params.Circuit.model
  | _ -> Alcotest.failf "no CNFET %s" name

let parse_mn1 attrs =
  let deck =
    Parser.parse
      (Printf.sprintf "t\nVD d 0 0.4\nVG g 0 0.5\nM1 d g 0 CNFET %s\n.op\n.end"
         attrs)
  in
  cnfet_model deck.Parser.circuit "M1"

let check_bits msg a b =
  if not (Int64.equal (Int64.bits_of_float a) (Int64.bits_of_float b)) then
    Alcotest.failf "%s: %.17g <> %.17g" msg a b

let check_tables_bitwise msg a b =
  Alcotest.(check int) (msg ^ ": table count") (List.length a) (List.length b);
  List.iter2
    (fun (x : Engine.table) (y : Engine.table) ->
      Alcotest.(check (array string)) (msg ^ ": columns") x.columns y.columns;
      Alcotest.(check int)
        (msg ^ ": rows")
        (Array.length x.rows) (Array.length y.rows);
      Array.iteri
        (fun i row ->
          Array.iteri
            (fun j v ->
              check_bits (Printf.sprintf "%s: row %d col %d" msg i j) v
                y.rows.(i).(j))
            row)
        x.rows)
    a b

(* ------------------------------------------------------------------ *)
(* Registry and deck dispatch                                          *)
(* ------------------------------------------------------------------ *)

let test_registry () =
  let names = List.map (fun b -> b.DM.name) (DM.backends ()) in
  List.iter
    (fun b ->
      Alcotest.(check bool) (b ^ " registered") true (List.mem b names);
      Alcotest.(check bool) (b ^ " findable") true (DM.find b <> None))
    backends_under_test;
  Alcotest.(check bool) "unknown not findable" true (DM.find "nope" = None);
  let listing = DM.backend_names () in
  List.iter
    (fun b ->
      Alcotest.(check bool) (b ^ " listed in backend_names") true
        (contains listing b))
    backends_under_test

let test_deck_model_dispatch () =
  Alcotest.(check string) "default" "piecewise" (DM.backend (parse_mn1 ""));
  Alcotest.(check string) "model=1" "piecewise" (DM.backend (parse_mn1 "model=1"));
  Alcotest.(check string) "model=2" "piecewise" (DM.backend (parse_mn1 "model=2"));
  Alcotest.(check string) "model=vs" "vs" (DM.backend (parse_mn1 "model=vs"));
  Alcotest.(check string) "model=vs with params" "vs"
    (DM.backend (parse_mn1 "model=vs vt0=0.25 dibl=0.08"));
  match parse_mn1 "model=nope" with
  | exception Parser.Parse_error err ->
      Alcotest.(check bool) "message names the bad backend" true
        (contains err.Parser.message "nope")
  | _ -> Alcotest.fail "unknown model must not parse"

let test_memoised_construction () =
  let deck =
    Parser.parse
      "t\nVD d 0 0.4\nM1 d d 0 CNFET model=vs\nM2 d d 0 CNFET model=vs\n.op\n.end"
  in
  let m1 = cnfet_model deck.Parser.circuit "M1" in
  let m2 = cnfet_model deck.Parser.circuit "M2" in
  Alcotest.(check bool) "same instance within a deck" true (m1 == m2);
  Alcotest.(check bool) "same instance across parses" true
    (parse_mn1 "model=vs" == parse_mn1 "model=vs");
  Alcotest.(check bool) "different params, different instance" true
    (parse_mn1 "model=vs" != parse_mn1 "model=vs vt0=0.25")

let test_identity () =
  let pcm = parse_mn1 "" and vs = parse_mn1 "model=vs" in
  Alcotest.(check bool) "identities differ across backends" true
    (DM.identity pcm <> DM.identity vs);
  Alcotest.(check bool) "vs params feed identity" true
    (DM.identity vs <> DM.identity (parse_mn1 "model=vs vt0=0.25"));
  Alcotest.(check string) "same card, same identity" (DM.identity vs)
    (DM.identity (parse_mn1 "model=vs"))

let test_remodel () =
  let pcm = parse_mn1 "" in
  (match DM.remodel pcm ~backend:"vs" with
  | Ok vs ->
      Alcotest.(check string) "remodelled backend" "vs" (DM.backend vs);
      Alcotest.(check bool) "current is finite under bias" true
        (Float.is_finite (DM.ids vs ~vgs:0.5 ~vds:0.4))
  | Error msg -> Alcotest.failf "remodel to vs failed: %s" msg);
  (match DM.remodel pcm ~backend:"piecewise" with
  | Ok same ->
      Alcotest.(check bool) "matching remodel is identity" true (same == pcm)
  | Error msg -> Alcotest.failf "identity remodel failed: %s" msg);
  match DM.remodel pcm ~backend:"nope" with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "remodel to unknown backend must fail"

let test_circuit_remodel_noop () =
  let deck = Parser.parse "t\nVD d 0 0.4\nM1 d d 0 CNFET\n.op\n.end" in
  let c = deck.Parser.circuit in
  Alcotest.(check bool) "matching backend: physically unchanged" true
    (Circuit.remodel c ~backend:"piecewise" == c);
  let c' = Circuit.remodel c ~backend:"vs" in
  Alcotest.(check bool) "changed backend: new circuit" true (c' != c);
  Alcotest.(check string) "devices rebuilt" "vs"
    (DM.backend (cnfet_model c' "M1"));
  match Circuit.remodel c ~backend:"nope" with
  | exception Circuit.Bad_circuit _ -> ()
  | _ -> Alcotest.fail "unknown backend must raise Bad_circuit"

(* ------------------------------------------------------------------ *)
(* Per-backend evaluation invariants                                   *)
(* ------------------------------------------------------------------ *)

let model_of_backend backend =
  match DM.of_card ~backend ~polarity:DM.N_type ~number:float_of_string [] with
  | Ok m -> m
  | Error msg -> Alcotest.failf "%s: of_card failed: %s" backend msg

(* Negative and zero V_DS points included deliberately: the vs
   backend swaps source and drain below zero, and the evaluator's one
   plan is retargeted across the sign change. *)
let bias_grid =
  List.concat_map
    (fun vgs ->
      List.map
        (fun vds -> (vgs, vds))
        [ -0.05; 0.0; 0.05; 0.13; 0.3; 0.45; 0.6 ])
    [ 0.0; 0.05; 0.13; 0.3; 0.45; 0.6 ]

(* One evaluator walks the whole grid, so its plan is retargeted (and
   reused warm when V_DS repeats) between points; every output must
   still be bitwise the scalar [linearise] triple, and the current
   bitwise [ids]. *)
let test_eval_matches_scalar backend () =
  List.iter
    (fun polarity ->
      let m =
        match DM.of_card ~backend ~polarity ~number:float_of_string [] with
        | Ok m -> m
        | Error msg -> Alcotest.failf "%s: of_card failed: %s" backend msg
      in
      let eval = DM.evaluator m in
      let vec () = Bigarray.Array1.create Bigarray.float64 Bigarray.c_layout 1 in
      let i0 = vec () and gm = vec () and gds = vec () in
      List.iter
        (fun (vgs, vds) ->
          let vgs, vds =
            match polarity with
            | DM.N_type -> (vgs, vds)
            | DM.P_type -> (-.vgs, -.vds)
          in
          eval ~fault_i0:false ~vgs ~vds ~i0 ~gm ~gds ~k:0;
          let at (v : DM.vec) = Bigarray.Array1.get v 0 in
          let tag p = Printf.sprintf "%s %s vgs=%g vds=%g" backend p vgs vds in
          let i, g, d = DM.linearise m ~vgs ~vds in
          check_bits (tag "ids") (DM.ids m ~vgs ~vds) i;
          check_bits (tag "i0") i (at i0);
          check_bits (tag "gm") g (at gm);
          check_bits (tag "gds") d (at gds))
        bias_grid)
    [ DM.N_type; DM.P_type ]

let test_monotone_ids backend () =
  let m = model_of_backend backend in
  List.iter
    (fun vgs ->
      let prev = ref neg_infinity in
      for k = 0 to 24 do
        let vds = 0.025 *. float_of_int k in
        let i = DM.ids m ~vgs ~vds in
        if i < !prev -. 1e-15 then
          Alcotest.failf "%s: ids not monotone at vgs=%g vds=%g (%g < %g)"
            backend vgs vds i !prev;
        prev := i
      done)
    [ 0.3; 0.45; 0.6 ]

let sweep_deck_text ?(step = 0.05) backend =
  Printf.sprintf
    "t\nVDD vdd 0 0.6\nVIN in 0 0\nMP out in vdd PCNFET model=%s\nMN out in 0 \
     CNFET model=%s\n.dc VIN 0 0.6 %g\n.print v(out) id(MN)\n.end"
    backend backend step

let test_jobs_invariance backend () =
  let run jobs =
    run_ok ~config:(Engine.config ~jobs ()) (Parser.parse (sweep_deck_text backend))
  in
  check_tables_bitwise (backend ^ ": jobs 1 = jobs 4") (run 1) (run 4)

let test_kcl_oracle backend () =
  (* every backend's evaluator, as MNA stamps it, must solve to
     points where scalar [ids] closes KCL *)
  let deck = Parser.parse (sweep_deck_text backend) in
  let r =
    Dc.sweep deck.Parser.circuit ~source:"vin" ~start:0.0 ~stop:0.6 ~step:0.05
  in
  Array.iter
    (fun (p : Dc.op_result) ->
      Kcl_oracle.check_solution backend p.Dc.compiled p.Dc.solution)
    r.Dc.points

(* ------------------------------------------------------------------ *)
(* The run-level override                                              *)
(* ------------------------------------------------------------------ *)

let plain_deck_text =
  "t\nVDD vdd 0 0.6\nVIN in 0 0\nMP out in vdd PCNFET\nMN out in 0 CNFET\n.dc \
   VIN 0 0.6 0.1\n.print v(out) id(MN)\n.end"

let test_override_matching_is_noop () =
  let base = run_ok (Parser.parse plain_deck_text) in
  let forced =
    run_ok
      ~config:(Engine.config ~model:"piecewise" ())
      (Parser.parse plain_deck_text)
  in
  check_tables_bitwise "piecewise override on piecewise deck" base forced

let test_override_equals_deck_attr () =
  (* forcing --model vs over a plain deck is the same computation as
     writing model=vs on every card: both resolve through the same
     card memo, so the waveforms are bitwise equal *)
  let overridden =
    run_ok ~config:(Engine.config ~model:"vs" ()) (Parser.parse plain_deck_text)
  in
  let in_deck = run_ok (Parser.parse (sweep_deck_text ~step:0.1 "vs")) in
  check_tables_bitwise "override = per-card model attr" overridden in_deck

let test_override_changes_result () =
  let last_current tables =
    match tables with
    | (t : Engine.table) :: _ ->
        t.rows.(Array.length t.rows - 1).(Array.length t.columns - 1)
    | [] -> Alcotest.fail "no tables"
  in
  let base = last_current (run_ok (Parser.parse plain_deck_text)) in
  let vs =
    last_current
      (run_ok
         ~config:(Engine.config ~model:"vs" ())
         (Parser.parse plain_deck_text))
  in
  Alcotest.(check bool) "vs override changes the device current" true
    (base <> vs)

let test_override_unknown () =
  match
    Engine.run_deck_result
      ~config:(Engine.config ~model:"nope" ())
      (Parser.parse plain_deck_text)
  with
  | Error (Diag.Bad_deck msg) ->
      Alcotest.(check bool) "names the backend" true (contains msg "nope")
  | Ok _ -> Alcotest.fail "unknown override must fail"
  | Error e -> Alcotest.failf "wrong error kind: %s" (Diag.error_kind e)

let test_default_override () =
  Fun.protect ~finally:(fun () -> DM.set_default_override None) @@ fun () ->
  DM.set_default_override (Some "vs");
  let ambient = run_ok (Parser.parse plain_deck_text) in
  DM.set_default_override None;
  let explicit =
    run_ok ~config:(Engine.config ~model:"vs" ()) (Parser.parse plain_deck_text)
  in
  check_tables_bitwise "ambient default = explicit config" ambient explicit

(* ------------------------------------------------------------------ *)
(* Cache identity                                                      *)
(* ------------------------------------------------------------------ *)

let test_deck_cache_model_keyed () =
  let cache = Cnt_server.Deck_cache.create () in
  let get ?model () =
    match Cnt_server.Deck_cache.find_or_parse ?model cache plain_deck_text with
    | Ok (e, hit) -> (e, hit)
    | Error err -> Alcotest.failf "deck cache: %s" (Diag.error_message err)
  in
  let plain, hit0 = get () in
  let vs, hit1 = get ~model:"vs" () in
  Alcotest.(check bool) "first plain lookup misses" false hit0;
  Alcotest.(check bool) "same text, other model: still a miss" false hit1;
  Alcotest.(check bool) "entries are distinct" true (plain != vs);
  Alcotest.(check string) "vs entry is remodelled" "vs"
    (DM.backend
       (cnfet_model vs.Cnt_server.Deck_cache.deck.Parser.circuit "MN"));
  Alcotest.(check string) "plain entry untouched" "piecewise"
    (DM.backend
       (cnfet_model plain.Cnt_server.Deck_cache.deck.Parser.circuit "MN"));
  let _, hit2 = get () in
  let _, hit3 = get ~model:"vs" () in
  Alcotest.(check bool) "plain re-lookup hits" true hit2;
  Alcotest.(check bool) "vs re-lookup hits" true hit3

let test_remodel_identity () =
  (* same device card under both backends: distinct instances,
     distinct identities — nothing keyed on identity (manifests, deck
     caches) can alias them; remodelling back returns the original *)
  let remodel m backend =
    match DM.remodel m ~backend with
    | Ok m -> m
    | Error msg -> Alcotest.failf "remodel: %s" msg
  in
  let pcm = parse_mn1 "" in
  let vs = remodel pcm "vs" in
  Alcotest.(check bool) "distinct instances" true (pcm != vs);
  Alcotest.(check bool) "distinct identities" true
    (DM.identity pcm <> DM.identity vs);
  Alcotest.(check string) "round trip keeps identity" (DM.identity pcm)
    (DM.identity (remodel vs "piecewise"))

(* ------------------------------------------------------------------ *)
(* Golden CSVs per backend                                             *)
(* ------------------------------------------------------------------ *)

let check_golden ~name actual =
  if blessing then begin
    write_file (Filename.concat "test/golden" (name ^ ".csv")) actual;
    Printf.printf "blessed test/golden/%s.csv (%d bytes)\n%!" name
      (String.length actual)
  end
  else begin
    let path = in_test_dir (Filename.concat "golden" (name ^ ".csv")) in
    let expected =
      try read_file path
      with Sys_error _ ->
        Alcotest.failf
          "missing golden file %s (regenerate with CNT_BLESS=1 dune exec \
           test/test_models.exe from the project root)"
          path
    in
    if expected <> actual then
      Alcotest.failf
        "%s: output differs from golden %s\n--- expected ---\n%s--- actual \
         ---\n%s(regenerate with CNT_BLESS=1 dune exec test/test_models.exe \
         if the change is intentional)"
        name path expected actual
  end

let test_golden_csv backend deck () =
  let tables =
    run_ok
      ~config:(Engine.config ~model:backend ())
      (Parser.parse (read_file (deck_path deck)))
  in
  let csv = String.concat "" (List.map Engine.table_to_csv tables) in
  check_golden ~name:(Printf.sprintf "%s_%s" deck backend) csv

(* ------------------------------------------------------------------ *)
(* The cspice flag, end to end                                         *)
(* ------------------------------------------------------------------ *)

let test_cspice_model_flag () =
  let exe =
    in_test_dir (Filename.concat ".." (Filename.concat "bin" "cspice.exe"))
  in
  List.iter
    (fun (backend, deck) ->
      let out = Filename.temp_file "cnt_models" ".out" in
      let cmd =
        Printf.sprintf "%s --model %s %s > %s 2>&1" exe backend
          (deck_path deck) out
      in
      let code = Sys.command cmd in
      let text = read_file out in
      Sys.remove out;
      if code <> 0 then
        Alcotest.failf "cspice --model %s %s exited %d:\n%s" backend deck code
          text;
      Alcotest.(check bool)
        (Printf.sprintf "--model %s %s prints a table" backend deck)
        true
        (String.length text > 0))
    [ ("piecewise", "models_dc"); ("vs", "models_dc"); ("vs", "models_tran") ]

let () =
  let tc name f = Alcotest.test_case name `Quick f in
  let per_backend name f =
    List.map
      (fun b -> tc (Printf.sprintf "%s (%s)" name b) (f b))
      backends_under_test
  in
  Alcotest.run "cnt_models"
    [
      ( "registry",
        [
          tc "backends registered" test_registry;
          tc "deck model= dispatch" test_deck_model_dispatch;
          tc "memoised construction" test_memoised_construction;
          tc "identity strings" test_identity;
          tc "remodel" test_remodel;
          tc "circuit remodel no-op" test_circuit_remodel_noop;
        ] );
      ( "invariants",
        per_backend "eval = scalar bitwise" test_eval_matches_scalar
        @ per_backend "ids monotone in vds" test_monotone_ids
        @ per_backend "jobs invariance" test_jobs_invariance
        @ per_backend "batched sweep closes kcl" test_kcl_oracle );
      ( "override",
        [
          tc "matching override is a no-op" test_override_matching_is_noop;
          tc "override = per-card attr" test_override_equals_deck_attr;
          tc "override changes the physics" test_override_changes_result;
          tc "unknown override" test_override_unknown;
          tc "ambient default override" test_default_override;
        ] );
      ( "cache identity",
        [
          tc "deck cache is model-keyed" test_deck_cache_model_keyed;
          tc "remodel identity" test_remodel_identity;
        ] );
      ( "golden",
        [
          tc "dc csv (piecewise)" (test_golden_csv "piecewise" "models_dc");
          tc "dc csv (vs)" (test_golden_csv "vs" "models_dc");
          tc "tran csv (piecewise)" (test_golden_csv "piecewise" "models_tran");
          tc "tran csv (vs)" (test_golden_csv "vs" "models_tran");
          tc "cspice --model" test_cspice_model_flag;
        ] );
    ]
