(* In-process half of the perfbench harness.  It links the simulator's
   libraries and times calls into their public functions from outside
   the library, so the benchmark adds nothing under lib/ or bin/.

     layers setup DECK
         Parser.parse + Mna.compile in this (fresh) process; prints the
         seconds taken.  Fitted models are memoised process-wide, so a
         second parse in one process would skip the fits every cspice
         run pays: run.py spawns one process per sample.
     layers deck [--trace] [--jobs N] [--csv DIR] DECK
         Parse, run and render one deck in-process.  With --trace the
         Obs registry is on and every span (the benchmark's own around
         each layer call, plus the library's) is written out with its
         parent once the deck has finished.
     layers accuracy GRID DECK...
         Average-RMS drain-current error of each deck's piecewise
         CNFET models against Fettoy.ids on the bias grid in GRID.
     layers load SOCK PLAN
         Closed-loop cnt-rpc/1 load generator (see [load] below).

   Every subcommand writes one JSON object to stdout. *)

open Cnt_spice
module Obs = Cnt_obs.Obs

let read_file path =
  let ic = open_in_bin path in
  Fun.protect ~finally:(fun () -> close_in_noerr ic) @@ fun () ->
  really_input_string ic (in_channel_length ic)

let write_file path text =
  let oc = open_out_bin path in
  Fun.protect ~finally:(fun () -> close_out_noerr oc) @@ fun () ->
  output_string oc text

let die fmt = Printf.ksprintf (fun s -> prerr_endline s; exit 2) fmt

(* ------------------------------------------------------------------ *)
(* JSON output                                                         *)
(* ------------------------------------------------------------------ *)

let jstr s =
  let b = Buffer.create (String.length s + 2) in
  Buffer.add_char b '"';
  String.iter
    (function
      | '"' -> Buffer.add_string b "\\\""
      | '\\' -> Buffer.add_string b "\\\\"
      | '\n' -> Buffer.add_string b "\\n"
      | c when Char.code c < 0x20 ->
          Buffer.add_string b (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char b c)
    s;
  Buffer.add_char b '"';
  Buffer.contents b

let jnum f = if Float.is_finite f then Printf.sprintf "%.17g" f else "null"
let jobj fields =
  "{" ^ String.concat "," (List.map (fun (k, v) -> jstr k ^ ":" ^ v) fields) ^ "}"
let jarr items = "[" ^ String.concat "," items ^ "]"

(* ------------------------------------------------------------------ *)
(* Rendering, exactly as cspice prints                                 *)
(* ------------------------------------------------------------------ *)

(* cspice's default --max-rows *)
let cspice_max_rows = 50

(* The stdout of an offline [cspice DECK] run that succeeded. *)
let render_stdout ~title tables =
  let b = Buffer.create 4096 in
  Buffer.add_string b (Printf.sprintf "* title: %s\n" title);
  let fmt = Format.formatter_of_buffer b in
  List.iter
    (fun t ->
      Format.fprintf fmt "%a@." (Engine.pp_table ~max_rows:cspice_max_rows ~stats:false) t)
    tables;
  Format.pp_print_flush fmt ();
  Buffer.contents b

(* ------------------------------------------------------------------ *)
(* setup                                                               *)
(* ------------------------------------------------------------------ *)

let setup path =
  let t0 = Unix.gettimeofday () in
  let deck = Parser.parse ~file:path (read_file path) in
  ignore (Mna.compile deck.Parser.circuit : Mna.compiled);
  let dt = Unix.gettimeofday () -. t0 in
  print_endline (jobj [ ("setup_s", jnum dt) ])

(* ------------------------------------------------------------------ *)
(* deck                                                                *)
(* ------------------------------------------------------------------ *)

(* Give every completed Obs event an id and the id of its parent: the
   event one path level up, in the same slot, whose interval holds this
   one's start (worker-slot roots fall back to slot 0, where the pool's
   caller sits). *)
let spans_with_parents events =
  let evs = Array.of_list events in
  let by_key = Hashtbl.create 64 in
  Array.iteri
    (fun i e ->
      let key = (e.Obs.ev_slot, e.Obs.ev_path) in
      Hashtbl.replace by_key key
        (i :: Option.value (Hashtbl.find_opt by_key key) ~default:[]))
    evs;
  let sorted = Hashtbl.create 64 in
  Hashtbl.iter
    (fun key ids ->
      let a = Array.of_list ids in
      Array.sort (fun x y -> compare evs.(x).Obs.ev_start evs.(y).Obs.ev_start) a;
      Hashtbl.replace sorted key a)
    by_key;
  let holder key t =
    match Hashtbl.find_opt sorted key with
    | None -> None
    | Some a ->
        (* last candidate starting at or before t *)
        let lo = ref 0 and hi = ref (Array.length a - 1) and best = ref (-1) in
        while !lo <= !hi do
          let mid = (!lo + !hi) / 2 in
          if evs.(a.(mid)).Obs.ev_start <= t then (best := mid; lo := mid + 1)
          else hi := mid - 1
        done;
        if !best < 0 then None
        else
          let p = evs.(a.(!best)) in
          if t <= p.Obs.ev_start +. p.Obs.ev_dur +. 1e-9 then Some a.(!best)
          else None
  in
  Array.mapi
    (fun i e ->
      let parent =
        match String.rindex_opt e.Obs.ev_path '/' with
        | None -> -1
        | Some k -> (
            let pp = String.sub e.Obs.ev_path 0 k in
            match holder (e.Obs.ev_slot, pp) e.Obs.ev_start with
            | Some p -> p
            | None -> (
                match holder (0, pp) e.Obs.ev_start with
                | Some p -> p
                | None -> -1))
      in
      (i, parent, e))
    evs

let stats_json (s : Mna.stats) =
  jobj
    [
      ("unknowns", string_of_int s.Mna.unknowns);
      ("nonzeros", string_of_int s.Mna.nonzeros);
    ]

let deck ~trace ~jobs ~csv_dir path =
  if trace then Obs.enable ();
  let text = read_file path in
  let t0 = Unix.gettimeofday () in
  let outcome =
    Obs.span "bench.deck" @@ fun () ->
    match Obs.span "bench.parse" (fun () -> Parser.parse ~file:path text) with
    | exception Parser.Parse_error err -> Error (Diag.Parse err)
    | d -> (
        let config = Engine.config ?jobs () in
        match Obs.span "bench.engine" (fun () -> Engine.run_deck_result ~config d) with
        | Error e -> Error e
        | Ok tables ->
            Obs.span "bench.render" (fun () ->
                let out = render_stdout ~title:d.Parser.title tables in
                Option.iter
                  (fun dir ->
                    List.iteri
                      (fun i t ->
                        write_file
                          (Filename.concat dir (Printf.sprintf "table_%d.csv" i))
                          (Engine.table_to_csv t))
                      tables)
                  csv_dir;
                Ok (out, tables)))
  in
  let wall = Unix.gettimeofday () -. t0 in
  let traced =
    if not trace then []
    else
      let spans =
        spans_with_parents (Obs.events ())
        |> Array.to_list
        |> List.map (fun (i, parent, e) ->
               jarr
                 [
                   string_of_int i;
                   string_of_int parent;
                   jstr e.Obs.ev_name;
                   jnum e.Obs.ev_start;
                   jnum (e.Obs.ev_start +. e.Obs.ev_dur);
                   string_of_int e.Obs.ev_slot;
                 ])
      in
      [
        ("spans", jarr spans);
        ( "counters",
          jobj (List.map (fun (k, v) -> (k, string_of_int v)) (Obs.counters ())) );
        ( "hist_means",
          jobj (List.map (fun (k, s) -> (k, jnum s.Obs.mean)) (Obs.histograms ())) );
      ]
  in
  let result, code =
    match outcome with
    | Error e -> ([ ("error", jstr (Diag.error_message e)) ], Diag.exit_code e)
    | Ok (out, tables) ->
        ( [
            ("stdout_md5", jstr (Digest.to_hex (Digest.string out)));
            ("tables", jarr (List.map (fun t -> stats_json t.Engine.stats) tables));
          ],
          0 )
  in
  print_endline (jobj ((("wall_s", jnum wall) :: result) @ traced));
  exit code

(* ------------------------------------------------------------------ *)
(* accuracy                                                            *)
(* ------------------------------------------------------------------ *)

(* GRID holds two lines of comma-separated volts: gate biases, then
   drain biases.  For every distinct n-type piecewise model in the decks
   (p-type devices are their electron-hole mirror), the error is the
   paper's Table II-IV measure: relative RMS over the drain sweep,
   averaged over the gate biases, in percent.  The FETToy references
   fan out over two domains. *)
let accuracy grid_path decks =
  let floats line =
    List.map float_of_string (String.split_on_char ',' (String.trim line))
  in
  let vgs_list, vds =
    match String.split_on_char '\n' (String.trim (read_file grid_path)) with
    | [ g; d ] -> (floats g, Array.of_list (floats d))
    | _ -> die "accuracy: %s must hold two lines" grid_path
  in
  let deck_models =
    List.map
      (fun path ->
        let d = Parser.parse ~file:path (read_file path) in
        ( path,
          List.sort_uniq compare
            (List.filter_map
               (function
                 | Circuit.Cnfet { params = { Circuit.model = m; _ }; _ }
                   when Cnt_core.Device_model.as_piecewise m <> None
                        && Cnt_core.Device_model.polarity m
                           = Cnt_core.Device_model.N_type ->
                     Some (Cnt_core.Device_model.identity m, m)
                 | _ -> None)
               (Circuit.elements d.Parser.circuit)) ))
      decks
  in
  let models =
    Array.of_list
      (List.sort_uniq
         (fun (a, _) (b, _) -> compare a b)
         (List.concat_map snd deck_models))
  in
  let model_error (_, m) =
    let reference = Cnt_physics.Fettoy.create (Cnt_core.Device_model.device m) in
    let errs =
      List.map
        (fun vgs ->
          Cnt_numerics.Stats.relative_rms_error
            (Array.map (fun vds -> Cnt_physics.Fettoy.ids reference ~vgs ~vds) vds)
            (Array.map (fun vds -> Cnt_core.Device_model.ids m ~vgs ~vds) vds))
        vgs_list
    in
    100.0 *. List.fold_left ( +. ) 0.0 errs /. float_of_int (List.length errs)
  in
  let errs =
    Cnt_par.Pool.with_pool ~jobs:2 (fun pool ->
        Cnt_par.Pool.parallel_map pool ~chunk:1 model_error models)
  in
  let err_of = Hashtbl.create 16 in
  Array.iteri (fun i (id, _) -> Hashtbl.replace err_of id errs.(i)) models;
  let per_deck =
    List.map
      (fun (path, ms) ->
        ( path,
          match ms with
          | [] -> "null"
          | _ ->
              jnum
                (List.fold_left (fun acc (id, _) -> acc +. Hashtbl.find err_of id) 0.0 ms
                /. float_of_int (List.length ms)) ))
      deck_models
  in
  print_endline (jobj [ ("iv_rms_pct", jobj per_deck) ])

(* ------------------------------------------------------------------ *)
(* load                                                                *)
(* ------------------------------------------------------------------ *)

(* PLAN is line-oriented:

     conns N              client connections (one thread each)
     seconds S            measure at least this long ...
     min_requests K       ... and until at least K requests completed
     deck I PATH EXPECT   deck I; EXPECT holds the offline cspice
                          outcome: "ok\n" + stdout, or "err C\n" + the
                          stderr line of an exit-C run
     seq I I I ...        request order (wraps around)

   Each connection sends its next request only after the previous
   reply arrived (closed loop).  A reply fails unless it renders
   byte-identically to the offline outcome; replies are kept and
   rendered after the loop, so one connection's checking never delays
   the other's timing.  With conns 1 and seconds 0, every deck of the
   sequence is sent once, alone: the solo latencies the traced run
   needs. *)
type plan_deck = { path : string; text : string; expect : string }

let load sock plan_path =
  let conns = ref 2 and seconds = ref 10.0 and min_requests = ref 1000 in
  let decks = Hashtbl.create 64 and seq = ref [||] in
  List.iter
    (fun line ->
      match String.split_on_char ' ' line with
      | [ "conns"; n ] -> conns := int_of_string n
      | [ "seconds"; s ] -> seconds := float_of_string s
      | [ "min_requests"; k ] -> min_requests := int_of_string k
      | [ "deck"; i; path; expect ] ->
          Hashtbl.replace decks (int_of_string i)
            { path; text = read_file path; expect = read_file expect }
      | "seq" :: ids -> seq := Array.of_list (List.map int_of_string ids)
      | [ "" ] -> ()
      | _ -> die "load: bad plan line %S" line)
    (String.split_on_char '\n' (read_file plan_path));
  let seq = !seq in
  if Array.length seq = 0 then die "load: empty sequence";
  let lock = Mutex.create () in
  let next = ref 0 and completed = ref 0 in
  let replies = ref [] and failures = ref [] in
  let t_start = Unix.gettimeofday () in
  let deadline = t_start +. !seconds in
  let take () =
    Mutex.protect lock (fun () ->
        let n = !next in
        let finished =
          if !seconds <= 0.0 then n >= Array.length seq
          else Unix.gettimeofday () >= deadline && !completed >= !min_requests
        in
        if finished then None
        else (
          incr next;
          Some n))
  in
  let worker c () =
    match Cnt_server.Client.connect sock with
    | Error msg ->
        Mutex.protect lock (fun () ->
            failures := Printf.sprintf "cannot connect to %s: %s" sock msg :: !failures)
    | Ok conn ->
        Fun.protect ~finally:(fun () -> Cnt_server.Client.close conn) @@ fun () ->
        let rec loop () =
          match take () with
          | None -> ()
          | Some n ->
              let d = Hashtbl.find decks seq.(n mod Array.length seq) in
              let title = ref "" in
              let t0 = Unix.gettimeofday () in
              let result =
                Cnt_server.Client.run conn ~id:(string_of_int n) ~file:d.path
                  ~deck_text:d.text ~config:Engine.default_config ~progress:false
                  ~on_title:(fun t -> title := t)
                  ()
              in
              let t1 = Unix.gettimeofday () in
              Mutex.protect lock (fun () ->
                  incr completed;
                  replies := (n, c, t0, t1, !title, result) :: !replies);
              loop ()
        in
        loop ()
  in
  let threads = List.init !conns (fun c -> Thread.create (worker c) ()) in
  List.iter Thread.join threads;
  let elapsed = Unix.gettimeofday () -. t_start in
  if !failures <> [] then die "load: %s" (String.concat "; " !failures);
  let records =
    List.rev_map
      (fun (n, c, t0, t1, title, result) ->
        let d = Hashtbl.find decks seq.(n mod Array.length seq) in
        let got, server =
          match result with
          | Ok (tables, server) ->
              ("ok\n" ^ render_stdout ~title tables, Cnt_server.Json.to_string server)
          | Error { Cnt_server.Client.exit_code; message; _ } ->
              (Printf.sprintf "err %d\n%s\n" exit_code message, "null")
        in
        jarr
          [
            string_of_int n;
            string_of_int seq.(n mod Array.length seq);
            string_of_int c;
            jnum (t0 -. t_start);
            jnum (t1 -. t_start);
            (if String.equal got d.expect then "true" else "false");
            server;
          ])
      !replies
  in
  let ping =
    match Cnt_server.Client.connect sock with
    | Error msg -> die "load: cannot connect to %s: %s" sock msg
    | Ok conn ->
        Fun.protect ~finally:(fun () -> Cnt_server.Client.close conn) @@ fun () ->
        (match Cnt_server.Client.ping conn () with
        | Ok server -> Cnt_server.Json.to_string server
        | Error msg -> die "load: ping failed: %s" msg)
  in
  print_endline
    (jobj
       [
         ("elapsed_s", jnum elapsed);
         ("requests", jarr records);
         ("ping", ping);
       ])

(* ------------------------------------------------------------------ *)

let () =
  match List.tl (Array.to_list Sys.argv) with
  | [ "setup"; path ] -> setup path
  | "deck" :: rest ->
      let rec go ~trace ~jobs ~csv = function
        | [ path ] -> deck ~trace ~jobs ~csv_dir:csv path
        | "--trace" :: r -> go ~trace:true ~jobs ~csv r
        | "--jobs" :: n :: r -> go ~trace ~jobs:(Some (int_of_string n)) ~csv r
        | "--csv" :: dir :: r -> go ~trace ~jobs ~csv:(Some dir) r
        | _ -> die "usage: layers deck [--trace] [--jobs N] [--csv DIR] DECK"
      in
      go ~trace:false ~jobs:None ~csv:None rest
  | "accuracy" :: grid :: (_ :: _ as decks) -> accuracy grid decks
  | [ "load"; sock; plan ] -> load sock plan
  | _ -> die "usage: layers (setup|deck|accuracy|load) ..."
