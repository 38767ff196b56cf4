(** Orchestration: solve the original problem (producing artifacts),
    then settle SVuDC / SVbTV instances by trying the cheap reuse routes
    before falling back to full re-verification.

    Attempt order, cheapest first:
    - SVuDC: trivial inclusion → Prop 3 (Lipschitz, O(1)) → Prop 1
      (two-layer exact) → Prop 2 (rebuild + handoffs) → Δ-cover →
      full re-verification;
    - SVbTV: Prop 6 (when an abstraction pair or interval slack is
      configured) → Prop 4 with §IV-C fixing → differential route →
      Prop 5 → full re-verification. *)

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
val default_config : config

(** Where a recorded artifact's state-abstraction chain comes from:
    built over [D_in] with this widening slack, or one the caller
    already holds ([Held None]: no chain). *)
type chain = Widened of float | Held of Cv_interval.Box.t array option

(** [build_chain ?deadline ?cache ?config ~widen net din] is the
    configured domain's chain over [din], widened by [widen], through
    [cache] under the key [abstractions:<domain>:w=<widen>]. *)
val build_chain :
  ?deadline:Cv_util.Deadline.t ->
  ?cache:Cv_artifacts.Cache.t ->
  ?config:config ->
  widen:float ->
  Cv_nn.Network.t ->
  Cv_interval.Box.t ->
  Cv_interval.Box.t array

(** [record ?deadline ?cache ?config ?split_cert ~chain ~solver
    ~solve_seconds net prop] is the one builder of proof artifacts: the
    chain, the Linf/L2 Lipschitz pair (through [cache] under
    [lipschitz:<norm>]) and [split_cert], sealed by
    {!Cv_artifacts.Artifacts.make}, which keeps the chain only when it
    proves [prop]. A chain build that crashes records no chain;
    {!Cv_util.Deadline.Expired} propagates. *)
val record :
  ?deadline:Cv_util.Deadline.t ->
  ?cache:Cv_artifacts.Cache.t ->
  ?config:config ->
  ?split_cert:Cv_verify.Split_cert.t ->
  chain:chain ->
  solver:string ->
  solve_seconds:float ->
  Cv_nn.Network.t ->
  Cv_verify.Property.t ->
  Cv_artifacts.Artifacts.t

(** Result of solving the original verification problem from scratch. *)
type original = {
  artifact : Cv_artifacts.Artifacts.t;
  report : Cv_verify.Verifier.report;
  proved : bool;
}

(** [solve_original ?deadline ?config net prop] verifies
    [φ(f, D_in, D_out)] from scratch — abstract analysis first, exact
    fallback — and packages the proof artifacts through {!record} (state
    abstractions when the abstract proof succeeded, Lipschitz constants
    always). The reported seconds exclude the recording. Deadline expiry
    degrades the verdict to [Unknown {reason = Timeout; _}]. *)
val solve_original :
  ?deadline:Cv_util.Deadline.t ->
  ?config:config ->
  Cv_nn.Network.t ->
  Cv_verify.Property.t ->
  original

(** [solve_original_exact ?deadline ?config ?widen net prop] — the
    Table I "original problem": a sound-and-complete full-network run
    (exact MILP output range, no cutoffs) {e plus} artifact recording
    through {!record}: the widened inductive abstraction chain (default
    slack 0.02) and Lipschitz constants. The reported seconds exclude
    the recording. Raises on non-piecewise-linear networks;
    deadline expiry degrades the verdict to
    [Unknown {reason = Timeout; _}] (no partial artifacts), a
    persistent crash (beyond supervised retries) to
    [Unknown {reason = Crash; _}]. [checkpoint]/[resume] persist and
    restore the range computation's progress (completed query optima
    plus the in-flight branch-and-bound snapshot — see
    {!Cv_verify.Range.exact_range}), so a killed run resumes with the
    identical verdict. *)
val solve_original_exact :
  ?deadline:Cv_util.Deadline.t ->
  ?config:config ->
  ?widen:float ->
  ?with_split_cert:bool ->
  ?checkpoint:Cv_util.Checkpoint.t ->
  ?resume:Cv_util.Json.t ->
  Cv_nn.Network.t ->
  Cv_verify.Property.t ->
  original

(** [full_verify ?deadline ?config net prop] — complete re-verification
    of the target property, as a strategy attempt. With a deadline, runs
    the {!Cv_verify.Verifier.verify_graceful} escalation chain and
    degrades to [Exhausted] on budget expiry. *)
val full_verify :
  ?deadline:Cv_util.Deadline.t ->
  ?config:config ->
  Cv_nn.Network.t ->
  Cv_verify.Property.t ->
  Report.attempt

(** [run_until_decisive ?deadline ?checkpoint ?resume attempts] runs
    attempt thunks lazily in order, stopping at the first decisive one.
    Attempts run supervised (a crash beyond retries becomes
    [Inconclusive] and the chain continues); checkpointing is
    attempt-granular, and [resume] replays the recorded non-decisive
    attempts, skipping that many thunks. *)
val run_until_decisive :
  ?deadline:Cv_util.Deadline.t ->
  ?checkpoint:Cv_util.Checkpoint.t ->
  ?resume:Cv_util.Json.t ->
  (unit -> Report.attempt) list ->
  Report.t

(** [solve_svudc ?deadline ?config p] — the full SVuDC pipeline. On
    budget expiry the run ends with a structured [Exhausted] verdict
    instead of raising. [checkpoint]/[resume] persist and restore
    attempt-level progress (see {!run_until_decisive}). *)
val solve_svudc :
  ?deadline:Cv_util.Deadline.t ->
  ?config:config ->
  ?checkpoint:Cv_util.Checkpoint.t ->
  ?resume:Cv_util.Json.t ->
  Problem.svudc ->
  Report.t

(** [solve_svbtv ?deadline ?config ?netabs p] — the full SVbTV pipeline.
    The optional [netabs] is a stored Prop. 6 abstraction pair built for
    the old network. On budget expiry the run ends with a structured
    [Exhausted] verdict instead of raising. [checkpoint]/[resume]
    persist and restore attempt-level progress (see
    {!run_until_decisive}). *)
val solve_svbtv :
  ?deadline:Cv_util.Deadline.t ->
  ?config:config ->
  ?netabs:Netabs_reuse.t ->
  ?checkpoint:Cv_util.Checkpoint.t ->
  ?resume:Cv_util.Json.t ->
  Problem.svbtv ->
  Report.t

(** [ratio ~incremental ~original] is the Table I quantity: incremental
    time as a fraction of the original solve time ([nan] when the
    original time is not positive). *)
val ratio : incremental:float -> original:float -> float
