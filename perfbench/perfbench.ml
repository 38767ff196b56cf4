(* contiver benchmark: four workloads, end-to-end metrics from untraced
   runs, per-layer attribution from a traced run. See README.md in this
   directory; normally run through run.py, which builds this program.

     perfbench.exe --workload NAME --seed N --seconds S --trace 0|1
                   [--commit SHA] [--source-digest HEX]
     perfbench.exe --gen-expected
     perfbench.exe --list-metrics

   The last line of standard output is the result object
   {"correct", "attempted", "failed", "metrics"}; the line before it is
   the full run record (schema contiver-perfbench-v1). *)

open Common

let setups = 5

let setup_every = 4.

(* ---- arguments ---- *)

type args = {
  mutable workload : string;
  mutable seed : int;
  mutable seconds : float;
  mutable trace : bool;
  mutable commit : string;
  mutable digest : string;
  mutable gen_expected : bool;
  mutable list_metrics : bool;
}

let parse_args () =
  let a =
    { workload = "";
      seed = 1;
      seconds = 10.;
      trace = false;
      commit = "unknown";
      digest = "unknown";
      gen_expected = false;
      list_metrics = false }
  in
  let rec go = function
    | "--workload" :: v :: r -> a.workload <- v; go r
    | "--seed" :: v :: r -> a.seed <- int_of_string v; go r
    | "--seconds" :: v :: r -> a.seconds <- float_of_string v; go r
    | "--trace" :: v :: r -> a.trace <- v = "1"; go r
    | "--commit" :: v :: r -> a.commit <- v; go r
    | "--source-digest" :: v :: r -> a.digest <- v; go r
    | "--gen-expected" :: r -> a.gen_expected <- true; go r
    | "--list-metrics" :: r -> a.list_metrics <- true; go r
    | [] -> ()
    | x :: _ -> failwith ("unknown argument " ^ x)
  in
  go (List.tl (Array.to_list Sys.argv));
  a

(* ---- host ---- *)

let read_lines path =
  match open_in path with
  | exception Sys_error _ -> []
  | ic ->
    let rec go acc =
      match input_line ic with
      | l -> go (l :: acc)
      | exception End_of_file -> close_in ic; List.rev acc
    in
    go []

let field_value l =
  match String.index_opt l ':' with
  | Some i -> String.trim (String.sub l (i + 1) (String.length l - i - 1))
  | None -> ""

let cpu_model () =
  match
    List.find_opt
      (fun l -> Attribution.starts_with "model name" l)
      (read_lines "/proc/cpuinfo")
  with
  | Some l -> field_value l
  | None -> "unknown"

(* Peak resident set size of this process, MB. *)
let peak_rss_mb () =
  match
    List.find_opt
      (fun l -> Attribution.starts_with "VmHWM" l)
      (read_lines "/proc/self/status")
  with
  | Some l -> (
    match String.split_on_char ' ' (field_value l) with
    | kb :: _ -> float_of_string kb /. 1024.
    | [] -> Float.nan)
  | None -> Float.nan

(* ---- metric catalogue ---- *)

let counters =
  [ "lp.pivots"; "lp.solves"; "milp.nodes"; "milp.fathomed"; "verify.checks";
    "domains.box.calls"; "domains.symint.calls"; "domains.zonotope.calls";
    "domains.deeppoly.calls"; "domains.star.calls"; "kernel.bytes_alloc";
    "cache.hits"; "cache.misses"; "batch.jobs"; "serve.events.seen";
    "serve.events.dropped"; "serve.rounds"; "serve.commits"; "monitor.ood";
    "supervisor.retries"; "core.attempts"; "core.decisive" ]

let ratios =
  [ ("lp.warmstart.hit_ratio", "lp.warmstart.hits", [ "lp.warmstart.hits"; "lp.warmstart.misses" ]);
    ("verify.falsify.hit_ratio", "verify.falsify.hits", [ "verify.falsify.samples" ]);
    ("cache.hit_ratio", "cache.hits", [ "cache.hits"; "cache.misses" ]);
    ("core.attempts_per_decision", "core.attempts", [ "core.decisive" ]) ]

let routes =
  [ "trivial"; "prop3"; "prop1"; "prop2"; "delta-cover"; "leaf-reuse";
    "fixer"; "prop-diff"; "prop5"; "full"; "abstract-symint"; "other" ]

let route_key r = if List.mem r routes then r else "other"

let timer_shares =
  [ ("lp.seconds_share", [ "lp.seconds" ]);
    ("lp.dual.seconds_share", [ "lp.dual.seconds" ]);
    ("lp.cert.seconds_share", [ "lp.cert.seconds" ]);
    ("milp.seconds_share", [ "milp.seconds" ]);
    ( "domains.chain_share",
      [ "domains.box.seconds"; "domains.symint.seconds";
        "domains.zonotope.seconds"; "domains.deeppoly.seconds";
        "domains.star.seconds" ] );
    ("kernel.gemm.seconds_share", [ "kernel.gemm.seconds" ]);
    ("kernel.gemv.seconds_share", [ "kernel.gemv.seconds" ]) ]

let layer_metric l = "layer." ^ l ^ ".share"

(* (name, unit, better) of every per-layer metric, in output order. *)
let per_layer_specs =
  List.map
      (fun c ->
        (c, "count", if c = "cache.hits" then "higher" else "lower"))
      counters
  @ List.map
      (fun (n, _, _) ->
        (n, "ratio", if n = "core.attempts_per_decision" then "lower" else "higher"))
      ratios
  @ List.map (fun r -> ("core.route." ^ r ^ ".share", "share", "lower")) routes
  @ List.map (fun r -> ("core.route." ^ r ^ ".self_share", "share", "lower")) routes
  @ List.map (fun (n, _) -> (n, "share", "lower")) timer_shares
  @ [ ("containment.check.self_share", "share", "lower");
      ("batch.worker_busy_share", "share", "higher") ]
  @ List.map
      (fun l -> (layer_metric l, "share", "lower"))
      (Attribution.layers @ [ "unattributed" ])
  @ [ ("trace.overhead_share", "share", "lower") ]

let end_to_end_specs =
  [ ("setup_s", "s"); ("peak_rss_mb", "MB"); ("completed_share", "share");
    ("latency_p50_ms", "ms"); ("latency_p90_ms", "ms");
    ("throughput_per_s", "1/s") ]

(* ---- measuring ---- *)

type observed = {
  block : block;
  wall : float;
  counts : (string * int) list;
  timers : (string * float) list;
}

(* Run blocks until [seconds] have passed (at least one block). With
   [attr], each block is traced and attributed. [between] runs after
   every block, outside its timing. *)
let run_phase inst ~seconds ~attr ~between =
  let t0 = now () in
  let rec go acc =
    if acc <> [] && now () -. t0 >= seconds then List.rev acc
    else begin
      Cv_util.Metrics.reset ();
      if attr <> None then Cv_util.Trace.enable ();
      let b0 = now () in
      let block = inst.run_block () in
      let wall = now () -. b0 in
      let o =
        { block;
          wall;
          counts = Cv_util.Metrics.counters ();
          timers = Cv_util.Metrics.timers () }
      in
      (match attr with
      | Some a ->
        Cv_util.Trace.disable ();
        Attribution.add_block a ~trace:(Cv_util.Trace.to_json ())
          ~timers:o.timers ~wall ~lanes:inst.lanes
          ~job_seconds:block.job_seconds
      | None -> ());
      between ();
      go (o :: acc)
    end
  in
  go []

let series name obs =
  List.concat_map
    (fun o -> Option.value (List.assoc_opt name o.block.samples) ~default:[])
    obs

let count name o = Option.value (List.assoc_opt name o.counts) ~default:0

(* Counters that differ between blocks of identical work, with their
   spread; everything else repeats exactly. *)
let varying obs =
  let names =
    List.sort_uniq compare (List.concat_map (fun o -> List.map fst o.counts) obs)
  in
  List.filter_map
    (fun n ->
      let vs = List.map (count n) obs in
      let lo = List.fold_left min max_int vs and hi = List.fold_left max min_int vs in
      if lo = hi then None else Some (n, lo, hi))
    names

let num x = Json.Num x

let metric v u = Json.Obj [ ("value", num v); ("unit", Json.Str u) ]

let ratio a b = if b = 0. then 0. else a /. b

let sum_f f xs = List.fold_left (fun a x -> a +. f x) 0. xs

let sum_i f xs = List.fold_left (fun a x -> a + f x) 0 xs

(* ---- main ---- *)

let guard () =
  List.iter
    (fun v ->
      match Sys.getenv_opt v with
      | Some s when s <> "" ->
        Printf.eprintf "perfbench: refusing to time a run with %s=%s set\n" v s;
        exit 2
      | _ -> ())
    [ "CONTIVER_FAULTS"; "CONTIVER_KERNEL_DOMAINS" ]

let run a =
  guard ();
  let w =
    match List.find_opt (fun w -> w.name = a.workload) Workloads.all with
    | Some w -> w
    | None ->
      Printf.eprintf "perfbench: unknown workload %S (one of: %s)\n" a.workload
        (String.concat ", " (List.map (fun w -> w.name) Workloads.all));
      exit 2
  in
  let nproc = Domain.recommended_domain_count () in
  (* Set-up is timed at least [setups] times: twice before the blocks,
     then once every [setup_every] seconds between blocks, so the
     samples spread over the whole run and the median does not hang on
     the host's speed in the first second; the rest at the end. *)
  Calib.start ();
  let setup_times = ref [] in
  let time_setup () =
    let t0 = now () in
    let i = w.setup ~seed:a.seed in
    setup_times := (now () -. t0) :: !setup_times;
    i
  in
  ignore (time_setup ());
  let inst = time_setup () in
  let domains = Option.value config1.Cv_core.Strategy.domains ~default:1 in
  if inst.lanes * domains > nproc then
    failwith "batch jobs x strategy domains exceeds nproc";
  let last_setup = ref (now ()) in
  let between () =
    if now () -. !last_setup >= setup_every then begin
      ignore (time_setup ());
      last_setup := now ()
    end
  in
  let untraced, traced, attr =
    if a.trace then begin
      let attr = Attribution.create () in
      let u = run_phase inst ~seconds:(a.seconds /. 2.) ~attr:None ~between in
      let t =
        run_phase inst ~seconds:(a.seconds /. 2.) ~attr:(Some attr) ~between
      in
      (u, t, Some attr)
    end
    else (run_phase inst ~seconds:a.seconds ~attr:None ~between, [], None)
  in
  while List.length !setup_times < setups do
    ignore (time_setup ())
  done;
  let setup_times = List.rev !setup_times in
  Calib.stop ();
  let all = untraced @ traced in
  let attempted = sum_i (fun o -> o.block.attempted) all in
  let failed = sum_i (fun o -> o.block.failed) all in
  let checked, refuted =
    match inst.check () with
    | n -> (n, None)
    | exception Contradiction m -> (0, Some m)
  in
  let work = series "work" untraced in
  let units = sum_i (fun o -> o.block.units) untraced in
  let busy = sum_f (fun o -> o.block.busy) untraced in
  (* Times scale by [k], rates by [1/k]: see Calib. *)
  let k = Calib.scale () in
  let p50 = median work *. 1000. and p90 = percentile 90. work *. 1000. in
  let rate = ratio (float units) busy in
  let raw =
    [ ("setup_s", median setup_times); ("latency_p50_ms", p50);
      ("latency_p90_ms", p90); ("throughput_per_s", rate) ]
  in
  let e2e =
    [ ("setup_s", median setup_times *. k); ("peak_rss_mb", peak_rss_mb ());
      ("completed_share", 1. -. ratio (float failed) (float attempted));
      ("latency_p50_ms", p50 *. k); ("latency_p90_ms", p90 *. k);
      ("throughput_per_s", rate /. k) ]
  in
  let named =
    let entry ?(n = List.length work) key unit value =
      ( key,
        Json.Obj
          [ ("value", num (value *. if unit = "1/s" then 1. /. k else k));
            ("raw", num value); ("unit", Json.Str unit); ("n", Json.of_int n) ] )
    in
    let pct name p = percentile p (series name untraced) *. 1000. in
    let ms name key p =
      entry ~n:(List.length (series name untraced)) key "ms" (pct name p)
    in
    match w.name with
    | "table1-exact" ->
      [ entry "exact_solve_s" "s" (median (series "exact_solve" untraced));
        ms "svudc" "svudc_ms" 50.; ms "svbtv" "svbtv_ms" 50. ]
    | "reuse-stream" ->
      [ ms "svudc" "svudc_p50_ms" 50.; ms "svudc" "svudc_p90_ms" 90.;
        ms "svbtv" "svbtv_p50_ms" 50.; ms "svbtv" "svbtv_p90_ms" 90. ]
    | "batch-mixed" ->
      [ entry "batch_queries_per_s" "1/s" rate;
        ms "work" "batch_job_p90_ms" 90. ]
    | _ ->
      [ entry "serve_frames_per_s" "1/s" rate;
        ms "work" "serve_round_p50_ms" 50.; ms "work" "serve_round_p90_ms" 90. ]
  in
  let first = List.hd all in
  let per_layer () =
    let attr = Option.get attr in
    let c n = float (count n first) in
    let counts = List.map (fun n -> (n, c n)) counters in
    let rs =
      List.map
        (fun (n, num, dens) -> (n, ratio (c num) (sum_f c dens)))
        ratios
    in
    let decided = first.block.routes in
    let route_share r =
      ratio
        (float (List.length (List.filter (fun x -> route_key x = r) decided)))
        (float (List.length decided))
    in
    let d = Float.max 1e-12 attr.Attribution.lane_seconds in
    let tsum names =
      sum_f
        (fun o ->
          sum_f
            (fun n -> Option.value (List.assoc_opt n o.timers) ~default:0.)
            names)
        traced
    in
    let route_self r =
      Hashtbl.fold
        (fun k v acc -> if route_key k = r then acc +. v else acc)
        attr.Attribution.route_self 0.
      /. d
    in
    let mean_wall obs = sum_f (fun o -> o.wall) obs /. float (List.length obs) in
    counts @ rs
    @ List.map (fun r -> ("core.route." ^ r ^ ".share", route_share r)) routes
    @ List.map (fun r -> ("core.route." ^ r ^ ".self_share", route_self r)) routes
    @ List.map (fun (n, names) -> (n, tsum names /. d)) timer_shares
    @ [ ("containment.check.self_share", attr.Attribution.containment_self /. d);
        ( "batch.worker_busy_share",
          ratio
            (sum_f (fun o -> o.block.job_seconds) traced)
            (sum_f (fun o -> o.wall) traced *. float inst.lanes) ) ]
    @ List.map (fun (l, s) -> (layer_metric l, s)) (Attribution.shares attr)
    @ [ ("trace.overhead_share", (mean_wall traced /. mean_wall untraced) -. 1.) ]
  in
  let metrics =
    if a.trace then
      let vals = per_layer () in
      List.map
        (fun (n, u, _) -> (n, metric (List.assoc n vals) u))
        per_layer_specs
    else List.map (fun (n, u) -> (n, metric (List.assoc n e2e) u)) end_to_end_specs
  in
  let var = varying all in
  let record =
    Json.Obj
      ([ ("schema", Json.Str "contiver-perfbench-v1");
         ("workload", Json.Str w.name);
         ("seed", Json.of_int a.seed);
         ("seconds", num a.seconds);
         ("trace", Json.Bool a.trace);
         ( "host",
           Json.Obj
             [ ("cpu", Json.Str (cpu_model ())); ("nproc", Json.of_int nproc);
               ("ocaml", Json.Str Sys.ocaml_version);
               ("commit", Json.Str a.commit);
               ("source_digest", Json.Str a.digest) ] );
         ("lanes", Json.of_int inst.lanes);
         ("op", Json.Str w.op);
         ("units", Json.Str w.units_name);
         ("setup_s_samples", Json.List (List.map num setup_times));
         ("latency_samples", Json.of_int (List.length work));
         ( "calibration",
           Json.Obj
             [ ("kernel_mean_s", num (Calib.mean ()));
               ("kernel_nominal_s", num Calib.nominal);
               ("samples", Json.of_int (List.length !Calib.samples));
               ("scale", num k);
               ("raw", Json.Obj (List.map (fun (n, v) -> (n, num v)) raw)) ] );
         ("blocks", Json.of_int (List.length all));
         ("named", Json.Obj named);
         ("failed_share", num (ratio (float failed) (float attempted)));
         ( "known_answers",
           Json.Obj
             [ ("checked", Json.of_int checked);
               ( "contradiction",
                 match refuted with Some m -> Json.Str m | None -> Json.Null ) ] );
         ( "determinism",
           Json.Obj
             [ ( "block_counters",
                 Json.Obj (List.map (fun (n, v) -> (n, Json.of_int v)) first.counts) );
               ( "routes",
                 Json.List
                   (List.map (fun r -> Json.Str r)
                      (List.sort compare first.block.routes)) );
               ( "varying",
                 Json.Obj
                   (List.map
                      (fun (n, lo, hi) ->
                        (n, Json.List [ Json.of_int lo; Json.of_int hi ]))
                      var) ) ] ) ]
      @
      match attr with
      | Some at ->
        [ ( "layer_seconds",
            Json.Obj
              (List.map
                 (fun l -> (l, num (Attribution.get at.Attribution.seconds l)))
                 Attribution.layers
              @ [ ("lane_seconds", num at.Attribution.lane_seconds);
                  ("uncarved", num at.Attribution.uncarved);
                  ("spans", Json.of_int at.Attribution.spans) ]) ) ]
      | None -> [])
  in
  print_endline (Json.to_string record);
  let correct = refuted = None in
  (match refuted with
  | Some m -> Printf.eprintf "perfbench: known-answer contradiction: %s\n" m
  | None -> ());
  print_endline
    (Json.to_string
       (Json.Obj
          [ ("correct", Json.Bool correct);
            ("attempted", Json.of_int attempted);
            ("failed", Json.of_int failed);
            ("metrics", Json.Obj metrics) ]));
  if not correct then exit 1

let () =
  let a = parse_args () in
  if a.gen_expected then Known.generate ()
  else if a.list_metrics then
    print_endline
      (Json.to_string
         (Json.Obj
            [ ( "end_to_end",
                Json.List
                  (List.map
                     (fun (n, u) -> Json.Obj [ ("name", Json.Str n); ("unit", Json.Str u) ])
                     end_to_end_specs) );
              ( "per_layer",
                Json.List
                  (List.map
                     (fun (n, u, b) ->
                       Json.Obj
                         [ ("name", Json.Str n); ("unit", Json.Str u);
                           ("better", Json.Str b) ])
                     per_layer_specs) ) ]))
  else run a
