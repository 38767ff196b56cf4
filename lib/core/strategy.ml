(** Orchestration: solve the original problem (producing artifacts),
    then settle SVuDC / SVbTV instances by trying the cheap reuse routes
    before falling back to full re-verification.

    The attempt order mirrors the paper's presentation, cheapest first:
    - SVuDC: trivial inclusion → Prop 3 (Lipschitz, O(1)) → Prop 1
      (two-layer exact) → Prop 2 (rebuild + handoffs) → full.
    - SVbTV: Prop 6 (weight domination, no solver) → Prop 4 with §IV-C
      fixing → Prop 5 (anchored multi-layer) → full.

    Each run returns a {!Report.t} with per-attempt timing so the bench
    harness can reproduce Table I's "incremental time / original time"
    ratios. *)

type config = {
  engine : Cv_verify.Containment.engine;  (** exact engine for subproblems *)
  domain : Cv_domains.Analyzer.domain_kind;  (** abstract domain for rebuilds *)
  lipschitz_norm : Cv_lipschitz.Lipschitz.norm;
  anchors : int list option;  (** Prop 5 anchors; [None] = every 2 layers *)
  interval_slack : float option;  (** weight-interval Prop 6 budget *)
  domains : int option;  (** worker domains for parallel subproblems *)
}

(** A sensible default configuration (MILP subproblems, symbolic-interval
    abstractions, ∞-norm Lipschitz). *)
let default_config =
  { engine = Cv_verify.Containment.Milp;
    domain = Cv_domains.Analyzer.Symint;
    lipschitz_norm = Cv_lipschitz.Lipschitz.Linf;
    anchors = None;
    interval_slack = None;
    domains = None }

(* ------------------------------------------------------------------ *)
(* Artifact recording                                                  *)
(* ------------------------------------------------------------------ *)

type chain = Widened of float | Held of Cv_interval.Box.t array option

(* Keep the key format stable: a disk cache holds entries written under
   it by earlier builds. *)
let build_chain ?deadline ?cache ?(config = default_config) ~widen net din =
  let build () =
    Cv_domains.Analyzer.abstractions ?deadline ~widen config.domain net din
  in
  match cache with
  | None -> build ()
  | Some c ->
    Cv_artifacts.Cache.boxes_or_build c
      ~fingerprint:(Cv_artifacts.Artifacts.fingerprint net)
      ~box_hash:(Cv_artifacts.Cache.box_hash din)
      ~kind:
        (Printf.sprintf "abstractions:%s:w=%g"
           (Cv_domains.Analyzer.domain_name config.domain)
           widen)
      build

(* The one builder of proof artifacts (see the interface). A chain that
   crashes beyond supervised retries is simply not recorded. *)
let record ?deadline ?cache ?(config = default_config) ?split_cert ~chain
    ~solver ~solve_seconds net prop =
  let state_abstractions =
    match chain with
    | Held s -> s
    | Widened widen -> (
      match
        Cv_util.Supervisor.run ~name:"strategy.record" (fun () ->
            build_chain ?deadline ?cache ~config ~widen net
              prop.Cv_verify.Property.din)
      with
      | Ok s -> Some s
      | Error _ -> None
      | exception (Cv_util.Deadline.Expired _ as e) -> raise e
      | exception _ -> None)
  in
  let module Lipschitz = Cv_lipschitz.Lipschitz in
  let fingerprint = lazy (Cv_artifacts.Artifacts.fingerprint net) in
  let lipschitz norm =
    let name = Lipschitz.norm_name norm in
    let build () = Lipschitz.global ~norm net in
    ( name,
      match cache with
      | None -> build ()
      | Some c ->
        Cv_artifacts.Cache.float_or_build c
          ~fingerprint:(Lazy.force fingerprint)
          ~box_hash:Cv_artifacts.Cache.no_box ~kind:("lipschitz:" ^ name)
          build )
  in
  Cv_artifacts.Artifacts.make ?state_abstractions
    ~lipschitz:[ lipschitz Lipschitz.Linf; lipschitz Lipschitz.L2 ]
    ?split_cert ~property:prop ~net ~solver ~solve_seconds ()

(* ------------------------------------------------------------------ *)
(* Original problem                                                    *)
(* ------------------------------------------------------------------ *)

(** Result of solving the original verification problem from scratch. *)
type original = {
  artifact : Cv_artifacts.Artifacts.t;
  report : Cv_verify.Verifier.report;
  proved : bool;
}

let is_proved = function Cv_verify.Containment.Proved -> true | _ -> false

(** [solve_original ?deadline ?config net prop] verifies
    [φ(f, D_in, D_out)] from scratch — abstract analysis first, exact
    fallback — and packages the proof artifacts (state abstractions when
    the abstract proof succeeded, Lipschitz constants always). The
    reported time, that of the verification proper, is the denominator
    of the Table I ratios. Deadline expiry degrades the verdict to
    [Unknown {reason = Timeout; _}]. *)
let solve_original ?deadline ?(config = default_config) net prop =
  Cv_util.Trace.with_span "strategy.original" @@ fun () ->
  let pr, wall =
    Cv_util.Timer.time (fun () ->
        Cv_verify.Verifier.verify_with_abstractions ?deadline
          ~domain:config.domain ~fallback:config.engine net prop)
  in
  let report = pr.Cv_verify.Verifier.report in
  { artifact =
      record ~config ~chain:(Held pr.Cv_verify.Verifier.abstractions)
        ~solver:
          (Cv_verify.Containment.engine_name report.Cv_verify.Verifier.engine)
        ~solve_seconds:wall net prop;
    report = { report with Cv_verify.Verifier.seconds = wall };
    proved = is_proved report.Cv_verify.Verifier.verdict }

(** [solve_original_exact ?config ?widen net prop] — the Table I
    "original problem": a sound-and-complete full-network run (exact
    MILP output range, no cutoffs) {e plus} artifact recording: the
    widened inductive abstraction chain (default slack 0.02) and
    Lipschitz constants. The widening leaves slack for later
    fine-tuning, the same practice as the paper's input-bound buffers.
    The reported time covers the verification (and split certificate),
    not the recording. Raises on non-piecewise-linear networks. *)
let solve_original_exact ?deadline ?(config = default_config) ?(widen = 0.02)
    ?(with_split_cert = false) ?checkpoint ?resume net prop =
  Cv_util.Trace.with_span "strategy.original_exact" @@ fun () ->
  let started = Cv_util.Clock.now () in
  let elapsed () = Cv_util.Clock.now () -. started in
  let solver = "milp-exact-range" in
  (* Exactness admits no partial answer: a timeout or a persistent
     crash degrades the whole solve to a structured Unknown with no
     chain (Lipschitz constants are cheap and still recorded). *)
  let degrade reason msg =
    ( Cv_verify.Containment.unknown reason msg,
      record ~config ~chain:(Held None) ~solver ~solve_seconds:(elapsed ())
        net prop )
  in
  let verdict, artifact =
    (* Supervised: transient solver failures (spurious errors,
       allocation faults) are retried. *)
    Cv_util.Supervisor.protect ~name:"strategy.original_exact"
      ~fallback:(fun exn ->
        degrade Cv_verify.Containment.Crash
          ("exact solve crashed: " ^ Printexc.to_string exn))
      (fun () ->
        try
          let verdict, _range =
            Cv_verify.Range.verify_exact ?deadline ?checkpoint ?resume net
              prop
          in
          let split_cert =
            if with_split_cert && is_proved verdict then
              Cv_verify.Split_cert.prove ?deadline net
                ~input_box:prop.Cv_verify.Property.din
                ~target:prop.Cv_verify.Property.dout
            else None
          in
          let solve_seconds = elapsed () in
          ( verdict,
            record ?deadline ~config ?split_cert ~chain:(Widened widen)
              ~solver ~solve_seconds net prop )
        with Cv_util.Deadline.Expired msg ->
          degrade Cv_verify.Containment.Timeout msg)
  in
  { artifact;
    report =
      { Cv_verify.Verifier.verdict;
        engine = Cv_verify.Containment.Milp;
        seconds = artifact.Cv_artifacts.Artifacts.solve_seconds };
    proved = is_proved verdict }

(* ------------------------------------------------------------------ *)
(* Fallback                                                            *)
(* ------------------------------------------------------------------ *)

(** [full_verify ?deadline ?config net prop] — complete re-verification
    of the target property, as a strategy attempt. Without a deadline
    this is the abstract-then-exact solver; with one it runs the
    {!Cv_verify.Verifier.verify_graceful} escalation chain, so the
    attempt degrades to [Exhausted] (with any salvaged bound in the
    message) instead of hanging when the budget runs out. *)
let full_verify ?deadline ?(config = default_config) net prop =
  let report, wall =
    Cv_util.Timer.time (fun () ->
        match deadline with
        | Some _ -> Cv_verify.Verifier.verify_graceful ?deadline net prop
        | None ->
          (Cv_verify.Verifier.verify_with_abstractions ~domain:config.domain
             ~fallback:config.engine net prop)
            .Cv_verify.Verifier.report)
  in
  let outcome =
    match report.Cv_verify.Verifier.verdict with
    | Cv_verify.Containment.Proved -> Report.Safe
    | Cv_verify.Containment.Violated v -> Report.Unsafe v
    | Cv_verify.Containment.Unknown
        { Cv_verify.Containment.reason = Cv_verify.Containment.Timeout;
          message;
          _ } ->
      Report.Exhausted message
    | Cv_verify.Containment.Unknown u ->
      Report.Inconclusive u.Cv_verify.Containment.message
  in
  { Report.name = "full";
    outcome;
    timing = Report.sequential_timing wall;
    detail =
      (match deadline with
      | Some _ -> "graceful escalation chain (budgeted)"
      | None -> "complete re-verification (no reuse)") }

(* Strategy-level accounting: how many reuse attempts ran and how many
   settled their instance (surfaced by `contiver --stats`). *)
let m_attempts = Cv_util.Metrics.counter "core.attempts"

let m_decisive = Cv_util.Metrics.counter "core.decisive"

(* Run attempts lazily in order, stopping at the first decisive one.
   Budget expiry — either observed before launching an attempt or
   escaping one as Deadline.Expired — ends the run with a structured
   Exhausted outcome instead of an exception.

   Checkpointing is attempt-granular: after every inconclusive attempt
   the accumulated (non-decisive) attempts are written through the sink,
   and [resume] replays them — skipping that many thunks — so a killed
   SVuDC/SVbTV run re-enters the chain exactly where it stopped. The
   attempt list is a deterministic function of the problem and config,
   which makes the positional skip sound. Each attempt also runs
   supervised: a crashed attempt (beyond retries) becomes Inconclusive
   and the chain continues with the next, coarser route. *)
let run_until_decisive ?deadline ?checkpoint ?resume attempts =
  let exhausted_attempt msg =
    { Report.name = "budget";
      outcome = Report.Exhausted msg;
      timing = Report.sequential_timing 0.;
      detail = "deadline expired; remaining attempts skipped" }
  in
  let prior =
    match resume with
    | None -> []
    | Some doc ->
      Cv_util.Json.to_list (Cv_util.Json.member "attempts" doc)
      |> List.map Report.attempt_of_json
  in
  (* [acc] is most-recent-first; the written "attempts" list is
     oldest-first. *)
  let progress acc () =
    Cv_util.Json.Obj
      [ ("attempts", Cv_util.Json.List (List.rev_map Report.attempt_to_json acc))
      ]
  in
  let rec drop n l =
    if n <= 0 then l else match l with [] -> [] | _ :: t -> drop (n - 1) t
  in
  let rec go acc = function
    | [] -> Report.conclude (List.rev acc)
    | thunk :: rest ->
      if Cv_util.Deadline.expired_opt deadline then
        Report.conclude
          (List.rev
             (exhausted_attempt "verification budget exhausted" :: acc))
      else begin
        let attempt =
          Cv_util.Trace.with_span "strategy.attempt" @@ fun () ->
          Cv_util.Metrics.incr m_attempts;
          let attempt =
            Cv_util.Supervisor.protect ~name:"strategy.attempt"
              ~fallback:(fun exn ->
                { Report.name = "crashed";
                  outcome =
                    Report.Inconclusive
                      ("attempt crashed: " ^ Printexc.to_string exn);
                  timing = Report.sequential_timing 0.;
                  detail = "supervised retries exhausted; trying next route" })
              (fun () ->
                try thunk ()
                with Cv_util.Deadline.Expired msg -> exhausted_attempt msg)
          in
          Cv_util.Trace.add_attr "name" attempt.Report.name;
          Cv_util.Trace.add_attr "outcome"
            (Report.outcome_string attempt.Report.outcome);
          attempt
        in
        match attempt.Report.outcome with
        | Report.Safe | Report.Unsafe _ | Report.Exhausted _ ->
          Cv_util.Metrics.incr m_decisive;
          Report.conclude (List.rev (attempt :: acc))
        | Report.Inconclusive _ ->
          let acc = attempt :: acc in
          Cv_util.Checkpoint.save_opt checkpoint (progress acc);
          go acc rest
      end
  in
  go (List.rev prior) (drop (List.length prior) attempts)

(* ------------------------------------------------------------------ *)
(* SVuDC                                                               *)
(* ------------------------------------------------------------------ *)

(** [solve_svudc ?deadline ?config p] — the full SVuDC pipeline.
    [checkpoint]/[resume] persist and restore attempt-level progress
    (see {!run_until_decisive}). *)
let solve_svudc ?deadline ?(config = default_config) ?checkpoint ?resume
    (p : Problem.svudc) =
  Cv_util.Trace.with_span "strategy.svudc" @@ fun () ->
  run_until_decisive ?deadline ?checkpoint ?resume
    [ (fun () -> Svudc.trivial p);
      (fun () -> Svudc.prop3 ~norm:config.lipschitz_norm p);
      (fun () -> Svudc.prop1 ?deadline ~engine:config.engine p);
      (fun () ->
        Svudc.prop2 ?deadline ~domain:config.domain ~engine:config.engine
          ?domains:config.domains p);
      (fun () ->
        Svudc.delta_cover ?deadline ~engine:config.engine
          ?domains:config.domains p);
      (fun () ->
        full_verify ?deadline ~config p.Problem.net (Problem.svudc_property p))
    ]

(* ------------------------------------------------------------------ *)
(* SVbTV                                                               *)
(* ------------------------------------------------------------------ *)

(** [solve_svbtv ?deadline ?config ?netabs p] — the full SVbTV pipeline.
    The optional [netabs] is a stored Prop. 6 abstraction pair built for
    the old network. *)
let solve_svbtv ?deadline ?(config = default_config) ?netabs ?checkpoint
    ?resume (p : Problem.svbtv) =
  Cv_util.Trace.with_span "strategy.svbtv" @@ fun () ->
  let prop6_attempts =
    (match netabs with
    | Some t -> [ (fun () -> Netabs_reuse.prop6 t p) ]
    | None -> [])
    @
    match config.interval_slack with
    | Some slack -> [ (fun () -> Netabs_reuse.prop6_interval ~slack p) ]
    | None -> []
  in
  run_until_decisive ?deadline ?checkpoint ?resume
    (prop6_attempts
    @ [ (fun () -> Svbtv.leaf_reuse ?deadline ?domains:config.domains p);
        (fun () ->
          (* The paper's own routes next (Prop 4 with §IV-C fixing);
             the differential extension backs them up below. *)
          Fixer.repair ?deadline ~engine:config.engine ~domain:config.domain
            ?domains:config.domains p);
        (fun () -> Diff_reuse.prop_diff ~norm:config.lipschitz_norm p);
        (fun () ->
          let n = Cv_nn.Network.num_layers p.Problem.new_net in
          let anchors =
            match config.anchors with
            | Some a -> a
            | None -> Svbtv.default_anchors n
          in
          if anchors = [] then
            { Report.name = "prop5";
              outcome = Report.Inconclusive "network too shallow for anchors";
              timing = Report.sequential_timing 0.;
              detail = "" }
          else
            Svbtv.prop5 ?deadline ~engine:config.engine
              ?domains:config.domains ~anchors p);
        (fun () ->
          full_verify ?deadline ~config p.Problem.new_net
            (Problem.svbtv_property p)) ])

(** [ratio ~incremental ~original] is the Table I quantity:
    incremental time as a fraction of the original solve time. *)
let ratio ~incremental ~original =
  if original <= 0. then Float.nan else incremental /. original
