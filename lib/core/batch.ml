(** Multi-query verification scheduler (see the interface for the
    scheduling, isolation, reuse and checkpointing contract). *)

module Json = Cv_util.Json
module Deadline = Cv_util.Deadline
module Timer = Cv_util.Timer
module Metrics = Cv_util.Metrics
module Checkpoint = Cv_util.Checkpoint
module Supervisor = Cv_util.Supervisor
module Parallel = Cv_util.Parallel
module Box = Cv_interval.Box
module Property = Cv_verify.Property
module Artifacts = Cv_artifacts.Artifacts
module Cache = Cv_artifacts.Cache
module Analyzer = Cv_domains.Analyzer

let src = Logs.Src.create "cv.batch" ~doc:"Batch verification scheduler"

module Log = (val Logs.src_log src : Logs.LOG)

let m_jobs = Metrics.counter "batch.jobs"
let m_crashed = Metrics.counter "batch.crashed"
let m_resumed = Metrics.counter "batch.resumed"

(* The netabs memo below feeds the same effort accounting as the JSON
   cache (counters are interned by name, so these are the cache's own). *)
let m_cache_hits = Metrics.counter "cache.hits"
let m_cache_misses = Metrics.counter "cache.misses"

type spec =
  | Verify of {
      net : Cv_nn.Network.t;
      prop : Cv_verify.Property.t;
      exact : bool;
      artifact_out : string option;
    }
  | Svudc of {
      net : Cv_nn.Network.t;
      artifact : Cv_artifacts.Artifacts.t;
      new_din : Cv_interval.Box.t;
    }
  | Svbtv of {
      old_net : Cv_nn.Network.t;
      new_net : Cv_nn.Network.t;
      artifact : Cv_artifacts.Artifacts.t;
      new_din : Cv_interval.Box.t;
    }

type job = { id : string; spec : spec; timeout : float option }

type config = {
  jobs : int;
  job_timeout : float option;
  strategy : Strategy.config;
  cache : Cv_artifacts.Cache.t option;
  checkpoint_dir : string option;
  checkpoint_every : float;
}

let default_config =
  { jobs = 1;
    job_timeout = None;
    strategy = Strategy.default_config;
    cache = None;
    checkpoint_dir = None;
    checkpoint_every = 5.0 }

type verdict = Safe | Unsafe | Inconclusive | Exhausted | Crashed

let verdict_name = function
  | Safe -> "safe"
  | Unsafe -> "unsafe"
  | Inconclusive -> "inconclusive"
  | Exhausted -> "exhausted"
  | Crashed -> "crashed"

let verdict_of_name = function
  | "safe" -> Safe
  | "unsafe" -> Unsafe
  | "inconclusive" -> Inconclusive
  | "exhausted" -> Exhausted
  | "crashed" -> Crashed
  | s -> raise (Json.Error ("Batch: unknown verdict " ^ s))

type job_result = {
  job_id : string;
  mode : string;
  verdict : verdict;
  decisive : string option;
  attempts : int;
  seconds : float;
  resumed : bool;
  detail : string;
}

type t = {
  results : job_result list;
  wall_seconds : float;
  cache_stats : Cv_artifacts.Cache.stats option;
}

let mode_name = function
  | Verify { exact = false; _ } -> "verify"
  | Verify { exact = true; _ } -> "verify-exact"
  | Svudc _ -> "svudc"
  | Svbtv _ -> "svbtv"

(* ------------------------------------------------------------------ *)
(* Result rows (also the done-file payload)                            *)
(* ------------------------------------------------------------------ *)

let job_result_to_json r =
  Json.Obj
    [ ("id", Json.Str r.job_id);
      ("mode", Json.Str r.mode);
      ("verdict", Json.Str (verdict_name r.verdict));
      ( "decisive",
        match r.decisive with None -> Json.Null | Some s -> Json.Str s );
      ("attempts", Json.of_int r.attempts);
      ("seconds", Json.Num r.seconds);
      ("resumed", Json.Bool r.resumed);
      ("detail", Json.Str r.detail) ]

let job_result_of_json j =
  { job_id = Json.to_str (Json.member "id" j);
    mode = Json.to_str (Json.member "mode" j);
    verdict = verdict_of_name (Json.to_str (Json.member "verdict" j));
    decisive =
      (match Json.member "decisive" j with
      | Json.Null -> None
      | d -> Some (Json.to_str d));
    attempts = Json.to_int (Json.member "attempts" j);
    seconds = Json.to_float (Json.member "seconds" j);
    resumed = Json.to_bool (Json.member "resumed" j);
    detail = Json.to_str (Json.member "detail" j) }

(* ------------------------------------------------------------------ *)
(* Netabs memo                                                         *)
(* ------------------------------------------------------------------ *)

(* Network abstractions carry no JSON codec, so they cannot live in the
   durable cache; instead they are interned in-process under the same
   content-addressed keying and single-flight discipline, feeding the
   same hit/miss accounting. The memoised value is the build {e result}
   — [None] (build budget exhausted or unsupported network) is cached
   too, so a hopeless build is paid for once per batch, not once per
   job. *)
module Memo = struct
  type nonrec t = {
    lock : Mutex.t;
    settled : Condition.t;
    table : (string, Netabs_reuse.t option) Hashtbl.t;
    building : (string, unit) Hashtbl.t;
    hits : int Atomic.t;
    misses : int Atomic.t;
  }

  let create () =
    { lock = Mutex.create ();
      settled = Condition.create ();
      table = Hashtbl.create 8;
      building = Hashtbl.create 4;
      hits = Atomic.make 0;
      misses = Atomic.make 0 }

  let count_hit m =
    Atomic.incr m.hits;
    Metrics.incr m_cache_hits

  let count_miss m =
    Atomic.incr m.misses;
    Metrics.incr m_cache_misses

  let with_lock m f =
    Mutex.lock m.lock;
    Fun.protect ~finally:(fun () -> Mutex.unlock m.lock) f

  let find_or_build m key build =
    let rec claim () =
      match Hashtbl.find_opt m.table key with
      | Some v -> Ok v
      | None ->
        if Hashtbl.mem m.building key then begin
          Condition.wait m.settled m.lock;
          claim ()
        end
        else begin
          Hashtbl.add m.building key ();
          Error ()
        end
    in
    match with_lock m claim with
    | Ok v ->
      count_hit m;
      v
    | Error () -> (
      let release () =
        with_lock m (fun () ->
            Hashtbl.remove m.building key;
            Condition.broadcast m.settled)
      in
      count_miss m;
      match build () with
      | v ->
        with_lock m (fun () -> Hashtbl.replace m.table key v);
        release ();
        v
      | exception e ->
        release ();
        raise e)
end

(* ------------------------------------------------------------------ *)
(* Per-job checkpointing                                               *)
(* ------------------------------------------------------------------ *)

let ensure_dir d =
  try Unix.mkdir d 0o755 with Unix.Unix_error (Unix.EEXIST, _, _) -> ()

(* Job ids name checkpoint files; anything shell-hostile flattens to
   '_'. [validate_ids] rejects manifests in which two distinct ids
   sanitise to the same filename, so distinct jobs never share
   checkpoint or done-file paths. *)
let sanitize id =
  String.map
    (fun c ->
      match c with 'a' .. 'z' | 'A' .. 'Z' | '0' .. '9' | '-' | '_' | '.' -> c | _ -> '_')
    id

let done_format = "contiver-batch-result"

let done_path dir job = Filename.concat dir (sanitize job.id ^ ".done.json")

let ck_path dir job = Filename.concat dir (sanitize job.id ^ ".ck.json")

(* What a job asks, read off [spec] in one place: its checkpoint kind,
   the reference network an svbtv artifact speaks about, and the
   (network, property) question. *)
let ask spec =
  let over din (a : Artifacts.t) = { a.Artifacts.property with Property.din } in
  match spec with
  | Verify { net; prop; _ } -> (Runstate.Verify, None, net, prop)
  | Svudc { net; artifact; new_din } ->
    (Runstate.Svudc, None, net, over new_din artifact)
  | Svbtv { old_net; new_net; artifact; new_din } ->
    (Runstate.Svbtv, Some old_net, new_net, over new_din artifact)

let question spec =
  let _, _, net, prop = ask spec in
  (net, prop)

let spec_kind_fingerprint spec =
  let kind, _, net, _ = ask spec in
  (kind, Artifacts.fingerprint net)

(* Digest of what the job verifies: the property's domains, plus (for
   svbtv) the reference network the artifact speaks about. Together
   with the network fingerprint and the mode this pins a done-file or
   checkpoint to one exact verification question — a retrained network
   or an edited property under a reused --checkpoint-dir must re-run,
   never replay the stale verdict. *)
let spec_scope spec =
  let _, old_net, _, prop = ask spec in
  Runstate.property_scope
    ?old_fingerprint:(Option.map Artifacts.fingerprint old_net)
    prop

(* The done-file wraps the result row with the job's identity
   (fingerprint + property scope); replay validates id, mode,
   fingerprint and scope before trusting the recorded verdict. *)
let done_doc job result =
  let _, fingerprint = spec_kind_fingerprint job.spec in
  Json.Obj
    [ ("fingerprint", Json.Str fingerprint);
      ("scope", Json.Str (spec_scope job.spec));
      ("result", job_result_to_json result) ]

(* A valid done-file short-circuits the whole job: the batch was killed
   after this job completed, so its recorded result is replayed
   (verbatim, seconds included) instead of re-verifying — but only when
   it records the {e same} verification question. A stale file (same id,
   different network/property/mode — e.g. a retrained network under a
   reused --checkpoint-dir) is ignored and the job runs fresh. *)
let replay_done config job =
  match config.checkpoint_dir with
  | None -> None
  | Some dir -> (
    let path = done_path dir job in
    if not (Sys.file_exists path) then None
    else
      match Artifacts.load_doc_result ~format:done_format path with
      | Error e ->
        Log.warn (fun m ->
            m "job %s: ignoring unreadable done-file (%s)" job.id
              (Artifacts.load_error_message e));
        None
      | Ok payload -> (
        let _, fingerprint = spec_kind_fingerprint job.spec in
        match
          ( Json.to_str (Json.member "fingerprint" payload),
            Json.to_str (Json.member "scope" payload),
            job_result_of_json (Json.member "result" payload) )
        with
        | fp, scope, r
          when String.equal r.job_id job.id
               && String.equal r.mode (mode_name job.spec)
               && String.equal fp fingerprint
               && String.equal scope (spec_scope job.spec) ->
          Some { r with resumed = true }
        | _ | (exception Json.Error _) ->
          Log.warn (fun m ->
              m "job %s: ignoring done-file for a different \
                 network/property — re-verifying" job.id);
          None))

(* (checkpoint sink, resume payload, was a checkpoint found). *)
let job_checkpointing config job =
  match config.checkpoint_dir with
  | None -> (None, None, false)
  | Some dir ->
    let kind, fingerprint = spec_kind_fingerprint job.spec in
    let scope = spec_scope job.spec in
    let path = ck_path dir job in
    let resume =
      if not (Sys.file_exists path) then None
      else
        match Runstate.load ~path ~kind ~fingerprint ~scope:(Some scope) with
        | Ok payload ->
          Log.info (fun m -> m "job %s: resuming from %s" job.id path);
          Some payload
        | Error e ->
          Log.warn (fun m ->
              m "job %s: ignoring checkpoint (%s)" job.id
                (Runstate.resume_error_message e));
          None
    in
    let sink =
      Checkpoint.create ~every:config.checkpoint_every (fun payload ->
          Runstate.save ~scope ~path ~kind ~fingerprint payload)
    in
    (Some sink, resume, Option.is_some resume)

let record_done config job result =
  match config.checkpoint_dir with
  | None -> ()
  | Some dir ->
    (try
       Artifacts.save_doc ~format:done_format (done_path dir job)
         (done_doc job result)
     with e ->
       Log.warn (fun m ->
           m "job %s: could not record done-file (%s)" job.id
             (Printexc.to_string e)));
    (try Sys.remove (ck_path dir job) with Sys_error _ -> ())

(* ------------------------------------------------------------------ *)
(* Dispatch                                                            *)
(* ------------------------------------------------------------------ *)

type settled = {
  s_verdict : verdict;
  s_decisive : string option;
  s_attempts : int;
  s_detail : string;
}

let verdict_of_outcome = function
  | Report.Safe -> (Safe, "proved")
  | Report.Unsafe _ -> (Unsafe, "counterexample found")
  | Report.Inconclusive msg -> (Inconclusive, msg)
  | Report.Exhausted msg -> (Exhausted, msg)

let settled_of_report (r : Report.t) =
  let verdict, detail = verdict_of_outcome r.verdict in
  { s_verdict = verdict;
    s_decisive = r.decisive;
    s_attempts = List.length r.attempts;
    s_detail = detail }

(* An exact solve that crashed beyond its retries is a crashed job. *)
let verdict_of_containment = function
  | Cv_verify.Containment.Unknown
      { Cv_verify.Containment.reason = Cv_verify.Containment.Crash; message; _ }
    ->
    (Crashed, message)
  | v -> verdict_of_outcome (Report.of_verdict v)

(* The cached abstract route of a plain verify job: the chain is the
   content-addressed artifact, so the second job on the same
   (net, D_in, domain) skips the analysis entirely. *)
let abstract_attempt ~config ?deadline ~chain net (prop : Property.t) () =
  let name =
    "abstract-" ^ Analyzer.domain_name config.strategy.Strategy.domain
  in
  let boxes, wall =
    Timer.time (fun () ->
        Strategy.build_chain ?deadline ?cache:config.cache
          ~config:config.strategy ~widen:0. net prop.Property.din)
  in
  let proved = Property.chain_proves prop boxes in
  if proved then chain := Some boxes;
  { Report.name;
    outcome =
      (if proved then Report.Safe
       else Report.Inconclusive "abstract chain does not prove containment");
    timing = Report.sequential_timing wall;
    detail = Printf.sprintf "%d layer abstractions" (Array.length boxes) }

let run_verify ~config ?deadline ?checkpoint ?resume ~net ~prop ~exact
    ~artifact_out () =
  if exact then begin
    let r =
      Strategy.solve_original_exact ?deadline ~config:config.strategy
        ?checkpoint ?resume net prop
    in
    let verdict, detail =
      verdict_of_containment r.Strategy.report.Cv_verify.Verifier.verdict
    in
    (match (artifact_out, verdict) with
    | Some path, Safe -> Artifacts.save path r.Strategy.artifact
    | _ -> ());
    { s_verdict = verdict;
      s_decisive = Some "exact";
      s_attempts = 1;
      s_detail = detail }
  end
  else begin
    let chain = ref None in
    let report =
      Strategy.run_until_decisive ?deadline ?checkpoint ?resume
        [ abstract_attempt ~config ?deadline ~chain net prop;
          (fun () ->
            Strategy.full_verify ?deadline ~config:config.strategy net prop) ]
    in
    let settled = settled_of_report report in
    (match (artifact_out, settled.s_verdict) with
    | Some path, Safe ->
      Artifacts.save path
        (Strategy.record ?cache:config.cache ~config:config.strategy
           ~chain:(Strategy.Held !chain)
           ~solver:(Option.value ~default:"batch" report.Report.decisive)
           ~solve_seconds:report.Report.total_wall net prop)
    | _ -> ());
    settled
  end

let svbtv_netabs ~config ~memo ~old_net ~(artifact : Artifacts.t) ~new_din =
  match config.cache with
  | None -> None (* reuse disabled along with the cache *)
  | Some _ ->
    let dout = artifact.Artifacts.property.Property.dout in
    let key =
      String.concat "\x00"
        [ Artifacts.fingerprint old_net;
          Cache.box_hash new_din;
          "netabs:adaptive:dout=" ^ Cache.box_hash dout ]
    in
    Memo.find_or_build memo key (fun () ->
        try
          Netabs_reuse.build_adaptive ~max_refinements:4 old_net ~din:new_din
            ~dout
        with Cv_netabs.Netabs.Unsupported _ -> None)

let dispatch ~config ~memo ?deadline ?checkpoint ?resume job =
  match job.spec with
  | Verify { net; prop; exact; artifact_out } ->
    run_verify ~config ?deadline ?checkpoint ?resume ~net ~prop ~exact
      ~artifact_out ()
  | Svudc { net; artifact; new_din } ->
    let p = Problem.svudc ~net ~artifact ~new_din in
    settled_of_report
      (Strategy.solve_svudc ?deadline ~config:config.strategy ?checkpoint
         ?resume p)
  | Svbtv { old_net; new_net; artifact; new_din } ->
    let p = Problem.svbtv ~old_net ~new_net ~artifact ~new_din in
    let netabs = svbtv_netabs ~config ~memo ~old_net ~artifact ~new_din in
    settled_of_report
      (Strategy.solve_svbtv ?deadline ~config:config.strategy ?netabs
         ?checkpoint ?resume p)

let crashed_settled e =
  { s_verdict = Crashed;
    s_decisive = None;
    s_attempts = 0;
    s_detail = "crashed: " ^ Printexc.to_string e }

let run_job ~config ~memo job =
  Metrics.incr m_jobs;
  let mode = mode_name job.spec in
  match replay_done config job with
  | Some r ->
    Metrics.incr m_resumed;
    Log.info (fun m -> m "job %s: replayed completed result" job.id);
    r
  | None ->
    (* The deadline starts at admission, not at manifest load: a job
       queued behind a full pool gets its whole budget. *)
    let deadline =
      Option.map
        (fun seconds -> Deadline.make ~seconds)
        (match job.timeout with Some _ as t -> t | None -> config.job_timeout)
    in
    let checkpoint, resume, resumed = job_checkpointing config job in
    let settled, seconds =
      Timer.time (fun () ->
          (* Two layers of isolation: supervised retries for transient
             faults, then a catch-all so a hard crash (bad manifest
             entry, shape mismatch, unsupported network) degrades this
             job alone. *)
          try
            Supervisor.protect ~name:("batch.job:" ^ job.id)
              ~fallback:crashed_settled
              (fun () ->
                dispatch ~config ~memo ?deadline ?checkpoint ?resume job)
          with e -> crashed_settled e)
    in
    if settled.s_verdict = Crashed then Metrics.incr m_crashed;
    let result =
      { job_id = job.id;
        mode;
        verdict = settled.s_verdict;
        decisive = settled.s_decisive;
        attempts = settled.s_attempts;
        seconds;
        resumed;
        detail = settled.s_detail }
    in
    record_done config job result;
    result

(* ------------------------------------------------------------------ *)
(* The scheduler                                                       *)
(* ------------------------------------------------------------------ *)

let validate_ids jobs =
  let seen = Hashtbl.create 16 in
  let seen_file = Hashtbl.create 16 in
  List.iter
    (fun j ->
      if String.length j.id = 0 then invalid_arg "Batch.run: empty job id";
      if Hashtbl.mem seen j.id then
        invalid_arg (Printf.sprintf "Batch.run: duplicate job id %S" j.id);
      Hashtbl.add seen j.id ();
      (* Distinct ids must also stay distinct as filenames, or two jobs
         would share checkpoint/done-file paths and clobber each
         other's state in a parallel run. *)
      let file = sanitize j.id in
      (match Hashtbl.find_opt seen_file file with
      | Some other ->
        invalid_arg
          (Printf.sprintf
             "Batch.run: job ids %S and %S collide after filename \
              sanitisation (%S)"
             other j.id file)
      | None -> ());
      Hashtbl.add seen_file file j.id)
    jobs

let run ?(config = default_config) jobs =
  validate_ids jobs;
  Option.iter ensure_dir config.checkpoint_dir;
  let memo = Memo.create () in
  let arr = Array.of_list jobs in
  (* Never run more worker domains than the machine has cores: OCaml's
     minor collections are stop-the-world across domains, so
     oversubscribed CPU-bound domains serialise on GC barriers and run
     far slower than a sequential sweep. *)
  let domains = max 1 (min config.jobs Parallel.default_domains) in
  Log.info (fun m ->
      m "batch: %d jobs on %d worker%s" (Array.length arr) domains
        (if domains > 1 then "s" else ""));
  let outcomes, wall_seconds =
    Timer.time (fun () ->
        (* FIFO admission: workers claim manifest slots in order. *)
        Parallel.map_results ~domains (run_job ~config ~memo) arr)
  in
  let results =
    Array.to_list
      (Array.mapi
         (fun i -> function
           | Ok r -> r
           | Error e ->
             (* Paranoia: run_job already catches everything; a worker
                domain dying outside it still degrades to one crashed
                job. *)
             Metrics.incr m_crashed;
             let s = crashed_settled e in
             { job_id = arr.(i).id;
               mode = mode_name arr.(i).spec;
               verdict = s.s_verdict;
               decisive = s.s_decisive;
               attempts = s.s_attempts;
               seconds = 0.;
               resumed = false;
               detail = s.s_detail })
         outcomes)
  in
  let cache_stats =
    Option.map
      (fun c ->
        let s = Cache.stats c in
        { Cache.hits = s.Cache.hits + Atomic.get memo.Memo.hits;
          misses = s.Cache.misses + Atomic.get memo.Memo.misses;
          evictions = s.Cache.evictions })
      config.cache
  in
  { results; wall_seconds; cache_stats }

(* ------------------------------------------------------------------ *)
(* The consolidated report                                             *)
(* ------------------------------------------------------------------ *)

let count v results =
  List.length (List.filter (fun r -> r.verdict = v) results)

let report_to_json t =
  Json.Obj
    [ ("schema", Json.Str "contiver-batch-report-v1");
      ("jobs", Json.List (List.map job_result_to_json t.results));
      ( "summary",
        Json.Obj
          [ ("total", Json.of_int (List.length t.results));
            ("safe", Json.of_int (count Safe t.results));
            ("unsafe", Json.of_int (count Unsafe t.results));
            ("inconclusive", Json.of_int (count Inconclusive t.results));
            ("exhausted", Json.of_int (count Exhausted t.results));
            ("crashed", Json.of_int (count Crashed t.results)) ] );
      ( "cache",
        match t.cache_stats with
        | None -> Json.Null
        | Some s -> Cache.stats_to_json s );
      ("wall_seconds", Json.Num t.wall_seconds) ]
