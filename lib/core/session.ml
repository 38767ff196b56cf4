(** A continuous-verification session: the stateful object a deployment
    actually keeps around.

    It owns the currently certified network, its proof artifact, and the
    runtime monitor, and exposes the three events of the paper's
    continuous-engineering loop as transitions:

    - {!observe}: feed monitored feature vectors; OOD events accumulate;
    - {!absorb_enlargement}: solve the pending SVuDC instance and, on
      success, commit the enlarged domain and refresh the artifact;
    - {!adopt}: solve the SVbTV instance for a fine-tuned candidate and,
      on success, install it as the certified network;
    - {!retarget}: solve the SVuSC instance for an evolved specification
      and, on success, adopt the new [D_out].

    Every transition appends to an audit {!history}; a rejected
    transition leaves the session unchanged (the old certificate keeps
    standing, which is exactly the safety story of the paper: the
    deployed system only ever runs configurations whose proof is
    current). *)

type event =
  | Certified of string  (** initial certification (solver name) *)
  | Ood_event of int  (** running OOD count after an observation *)
  | Domain_enlarged of Report.t
  | Domain_rejected of Report.t
  | Version_adopted of Report.t
  | Version_rejected of Report.t
  | Spec_changed of Report.t
  | Spec_rejected of Report.t
  | Budget_exhausted of Report.t
      (** a transition ran out of verification budget; the session is
          unchanged and the old certificate keeps standing *)

(* Session-lifecycle accounting: one counter per transition kind, so a
   long-running deployment can report how often each continuous-
   engineering event fired (surfaced by `contiver --stats`). *)
let m_event = function
  | Certified _ -> Cv_util.Metrics.counter "core.session.certified"
  | Ood_event _ -> Cv_util.Metrics.counter "core.session.ood_events"
  | Domain_enlarged _ -> Cv_util.Metrics.counter "core.session.enlargements"
  | Domain_rejected _ ->
    Cv_util.Metrics.counter "core.session.enlargements_rejected"
  | Version_adopted _ -> Cv_util.Metrics.counter "core.session.adoptions"
  | Version_rejected _ ->
    Cv_util.Metrics.counter "core.session.adoptions_rejected"
  | Spec_changed _ -> Cv_util.Metrics.counter "core.session.spec_changes"
  | Spec_rejected _ ->
    Cv_util.Metrics.counter "core.session.spec_changes_rejected"
  | Budget_exhausted _ ->
    Cv_util.Metrics.counter "core.session.budget_exhausted"

let record_event e = Cv_util.Metrics.incr (m_event e)

type t = {
  mutable net : Cv_nn.Network.t;
  mutable artifact : Cv_artifacts.Artifacts.t;
  monitor : Cv_monitor.Monitor.t;
  config : Strategy.config;
  widen : float;
  mutable history : event list;  (** newest first *)
}

let push s e =
  record_event e;
  s.history <- e :: s.history

(** [certify ?deadline ?config ?widen net prop] runs the original
    (exact) verification and opens a session; [Error] with the failure
    report when the property does not hold or the budget expires (the
    report's verdict distinguishes the two). *)
let certify ?deadline ?(config = Strategy.default_config) ?(widen = 0.03) net
    prop =
  let original =
    Strategy.solve_original_exact ?deadline ~config ~widen
      ~with_split_cert:true net prop
  in
  if not original.Strategy.proved then Error original.Strategy.report
  else begin
    let e = Certified original.Strategy.artifact.Cv_artifacts.Artifacts.solver in
    record_event e;
    Ok
      { net;
        artifact = original.Strategy.artifact;
        monitor = Cv_monitor.Monitor.of_box prop.Cv_verify.Property.din;
        config;
        widen;
        history = [ e ] }
  end

(** [resume ?config ?widen net artifact] opens a session from a
    persisted artifact without re-verifying; raises [Invalid_argument]
    when the artifact does not match the network. *)
let resume ?(config = Strategy.default_config) ?(widen = 0.03) net artifact =
  if not (Cv_artifacts.Artifacts.matches artifact net) then
    invalid_arg "Session.resume: artifact/network mismatch";
  let e = Certified artifact.Cv_artifacts.Artifacts.solver in
  record_event e;
  { net;
    artifact;
    monitor =
      Cv_monitor.Monitor.of_box
        artifact.Cv_artifacts.Artifacts.property.Cv_verify.Property.din;
    config;
    widen;
    history = [ e ] }

(** Typed failure of {!resume_file}. *)
type resume_error =
  | Corrupt_artifact of string
      (** the file is unreadable, truncated, fails its checksum, or
          violates the artifact schema *)
  | Artifact_mismatch of string
      (** the artifact was produced for a different network *)

(** [resume_error_message e] renders a one-line diagnosis. *)
let resume_error_message = function
  | Corrupt_artifact msg -> msg
  | Artifact_mismatch msg -> msg

(** [resume_file ?config ?widen net path] opens a session from an
    artifact file, returning a typed error — never an exception — when
    the file is corrupt or was produced for a different network. *)
let resume_file ?config ?widen net path =
  match Cv_artifacts.Artifacts.load_result path with
  | Error e ->
    Error (Corrupt_artifact (Cv_artifacts.Artifacts.load_error_message e))
  | Ok artifact ->
    if not (Cv_artifacts.Artifacts.matches artifact net) then
      Error
        (Artifact_mismatch
           (Printf.sprintf
              "%s: artifact fingerprint does not match this network" path))
    else Ok (resume ?config ?widen net artifact)

(** [network s] is the currently certified network. *)
let network s = s.net

(** [artifact s] is the current proof artifact. *)
let artifact s = s.artifact

(** [property s] is the currently certified property. *)
let property s = s.artifact.Cv_artifacts.Artifacts.property

(** [history s] lists transitions, oldest first. *)
let history s = List.rev s.history

(** [pending_ood s] is the number of OOD events awaiting
    {!absorb_enlargement}. *)
let pending_ood s = Cv_monitor.Monitor.event_count s.monitor

(** [observe s features] feeds one monitored feature vector; returns the
    OOD event when the vector escapes the certified domain. *)
let observe s features =
  let r = Cv_monitor.Monitor.observe s.monitor features in
  (match r with
  | Some _ -> push s (Ood_event (Cv_monitor.Monitor.event_count s.monitor))
  | None -> ());
  r

(* Refresh the stored artifact for a (possibly new) net and domain; the
   D_out is unchanged. Only called after a reuse proof succeeded, so
   only the bisection certificate needs a solver: it is repaired for the
   new network and extended over any domain growth. *)
let refresh_artifact s net din =
  let prop =
    Cv_verify.Property.make ~din ~dout:(property s).Cv_verify.Property.dout
  in
  let split_cert =
    match s.artifact.Cv_artifacts.Artifacts.split_cert with
    | None -> None
    | Some cert -> (
      match
        Cv_verify.Split_cert.repair ?domains:s.config.Strategy.domains cert net
      with
      | Some cert' when
          Cv_interval.Box.subset_tol din cert'.Cv_verify.Split_cert.input_box
        ->
        Some cert'
      | _ ->
        Cv_verify.Split_cert.prove net ~input_box:din
          ~target:prop.Cv_verify.Property.dout)
  in
  Strategy.record ~config:s.config ?split_cert
    ~chain:(Strategy.Widened s.widen) ~solver:"session-refresh"
    ~solve_seconds:s.artifact.Cv_artifacts.Artifacts.solve_seconds net prop

(** [absorb_enlargement ?deadline ?margin s] solves the pending SVuDC
    instance for the monitored enlargement. On success the enlarged
    domain is committed, the artifact refreshed, and the OOD log
    cleared; on failure or budget expiry the session is unchanged.
    Returns the reuse report either way. *)
let absorb_enlargement ?deadline ?(margin = 0.005) s =
  let new_din = Cv_monitor.Monitor.enlarged_box ~margin s.monitor in
  let p = Problem.svudc ~net:s.net ~artifact:s.artifact ~new_din in
  let report = Strategy.solve_svudc ?deadline ~config:s.config p in
  (match report.Report.verdict with
  | Report.Safe ->
    Cv_monitor.Monitor.commit s.monitor new_din;
    s.artifact <- refresh_artifact s s.net new_din;
    push s (Domain_enlarged report)
  | Report.Exhausted _ -> push s (Budget_exhausted report)
  | _ -> push s (Domain_rejected report));
  report

(** [adopt ?deadline ?netabs s candidate] solves the SVbTV instance for
    a fine-tuned candidate network (over the certified domain). On
    success the candidate becomes the certified network and the artifact
    is refreshed; on failure or budget expiry the old version keeps
    running. *)
let adopt ?deadline ?netabs s candidate =
  let din = (property s).Cv_verify.Property.din in
  let p =
    Problem.svbtv ~old_net:s.net ~new_net:candidate ~artifact:s.artifact
      ~new_din:din
  in
  let report = Strategy.solve_svbtv ?deadline ~config:s.config ?netabs p in
  (match report.Report.verdict with
  | Report.Safe ->
    s.net <- candidate;
    s.artifact <- refresh_artifact s candidate din;
    push s (Version_adopted report)
  | Report.Exhausted _ -> push s (Budget_exhausted report)
  | _ -> push s (Version_rejected report));
  report

(** [retarget ?deadline s new_dout] solves the SVuSC instance for an
    evolved specification; on success the artifact is rebuilt against
    the new [D_out]; on budget expiry the session is unchanged. *)
let retarget ?deadline s new_dout =
  let p = Specchange.make ~net:s.net ~artifact:s.artifact ~new_dout () in
  let report = Specchange.solve ?deadline ~config:s.config p in
  (match report.Report.verdict with
  | Report.Safe ->
    (* Same network and domain: a chain already held stays inductive,
       so only a missing one is rebuilt (record re-checks it against the
       new D_out). *)
    let chain =
      match s.artifact.Cv_artifacts.Artifacts.state_abstractions with
      | Some _ as held -> Strategy.Held held
      | None -> Strategy.Widened s.widen
    in
    s.artifact <-
      Strategy.record ~config:s.config ~chain ~solver:"session-retarget"
        ~solve_seconds:s.artifact.Cv_artifacts.Artifacts.solve_seconds s.net
        (Cv_verify.Property.make
           ~din:(property s).Cv_verify.Property.din ~dout:new_dout);
    push s (Spec_changed report)
  | Report.Exhausted _ -> push s (Budget_exhausted report)
  | _ -> push s (Spec_rejected report));
  report

(** [event_string e] is a one-line audit entry. *)
let event_string = function
  | Certified solver -> "certified (" ^ solver ^ ")"
  | Ood_event n -> Printf.sprintf "OOD event (%d pending)" n
  | Domain_enlarged r ->
    Printf.sprintf "domain enlarged via %s"
      (Option.value ~default:"?" r.Report.decisive)
  | Domain_rejected _ -> "domain enlargement rejected"
  | Version_adopted r ->
    Printf.sprintf "new version adopted via %s"
      (Option.value ~default:"?" r.Report.decisive)
  | Version_rejected _ -> "candidate version rejected"
  | Spec_changed r ->
    Printf.sprintf "specification changed via %s"
      (Option.value ~default:"?" r.Report.decisive)
  | Spec_rejected _ -> "specification change rejected"
  | Budget_exhausted r ->
    Printf.sprintf "transition abandoned: %s"
      (Report.outcome_string r.Report.verdict)
