(** Whole-property verification: [φ(f, D_in, D_out)].

    A thin specialisation of {!Containment} to the full network, plus
    the artifact-producing variant that returns the layer-wise state
    abstractions alongside the verdict — the "original problem" solver
    whose outputs the continuous-verification strategies reuse — and
    {!verify_graceful}, the budget-aware escalation chain. *)

type report = {
  verdict : Containment.verdict;
  engine : Containment.engine;
  seconds : float;
}

(** [verify ?deadline engine net prop] decides the safety property with
    the given engine and reports timing. Deadline expiry degrades the
    verdict to [Unknown {reason = Timeout; _}] (see
    {!Containment.check}). *)
let verify ?deadline engine net prop =
  if not (Property.well_formed prop net) then
    invalid_arg "Verifier.verify: property/network dimension mismatch";
  let verdict, seconds =
    Containment.check_timed ?deadline engine net ~input_box:prop.Property.din
      ~target:prop.Property.dout
  in
  { verdict; engine; seconds }

let m_rungs = Cv_util.Metrics.counter "verify.graceful.rungs"

(** [prefer_unknown prev u engine] — which inconclusive answer to keep
    across escalation rungs. An unknown carrying a certified bound beats
    one without, and between two certified bounds the {e tighter}
    (smaller) one wins: a later, coarser rung must never overwrite an
    earlier rung's tighter certificate. Between two bound-less unknowns
    the later one wins (deeper engines leave more informative
    messages). *)
let prefer_unknown prev (u : Containment.unknown) engine =
  match prev with
  | None -> Some (u, engine)
  | Some ((p : Containment.unknown), _) -> (
    match (p.Containment.best_bound, u.Containment.best_bound) with
    | Some _, None -> prev
    | Some pb, Some ub when ub >= pb -> prev
    | (Some _ | None), _ -> Some (u, engine))

(** [verify_graceful ?deadline net prop] — the escalation chain with
    graceful degradation: cheap abstract domains first (symint →
    deeppoly → zonotope), then ReluVal-style splitting, and the exact
    MILP engine only with remaining budget (and only for
    piecewise-linear networks). A decisive verdict short-circuits the
    chain; when the budget runs out the report carries
    [Unknown {reason = Timeout; _}] with the best certified bound any
    rung salvaged — it never hangs and never raises on expiry. *)
let verify_graceful ?deadline net prop =
  if not (Property.well_formed prop net) then
    invalid_arg "Verifier.verify_graceful: property/network dimension mismatch";
  let piecewise_linear =
    Array.for_all
      (fun (l : Cv_nn.Layer.t) ->
        Cv_nn.Activation.is_piecewise_linear l.Cv_nn.Layer.act)
      (Cv_nn.Network.layers net)
  in
  let ladder =
    [ Containment.Abstract Cv_domains.Analyzer.Symint;
      Containment.Abstract Cv_domains.Analyzer.Deeppoly;
      Containment.Abstract Cv_domains.Analyzer.Zonotope;
      Containment.Symint_split 2048 ]
    @ (if piecewise_linear then [ Containment.Milp ] else [])
  in
  Cv_util.Trace.with_span "verify_graceful" @@ fun () ->
  let seconds = ref 0. in
  (* Most informative inconclusive answer seen so far (see
     {!prefer_unknown}): a certified bound beats none, and tighter
     certified bounds are never overwritten by looser ones. *)
  let best_unknown = ref None in
  let note engine (u : Containment.unknown) =
    best_unknown := prefer_unknown !best_unknown u engine
  in
  let degraded engine =
    let best_bound =
      match !best_unknown with
      | Some (u, _) -> u.Containment.best_bound
      | None -> None
    in
    { verdict =
        Containment.Unknown
          { Containment.reason = Containment.Timeout;
            message =
              "verification budget exhausted before the escalation chain \
               completed";
            best_bound };
      engine;
      seconds = !seconds }
  in
  let rec escalate = function
    | [] -> (
      match !best_unknown with
      | Some (u, engine) ->
        { verdict = Containment.Unknown u; engine; seconds = !seconds }
      | None -> assert false (* the ladder is never empty *))
    | engine :: rest ->
      if Cv_util.Deadline.expired_opt deadline then degraded engine
      else begin
        Cv_util.Metrics.incr m_rungs;
        let verdict, s =
          Cv_util.Trace.with_span "verify_graceful.rung"
            ~attrs:[ ("engine", Containment.engine_name engine) ]
          @@ fun () ->
          Containment.check_timed ?deadline engine net
            ~input_box:prop.Property.din ~target:prop.Property.dout
        in
        seconds := !seconds +. s;
        match verdict with
        | Containment.Proved | Containment.Violated _ ->
          { verdict; engine; seconds = !seconds }
        | Containment.Unknown u ->
          note engine u;
          escalate rest
      end
  in
  escalate ladder

(** Result of {!verify_with_abstractions}: the verdict plus, on success,
    inductive state abstractions [S_1..S_n] proving it. *)
type proof_result = {
  report : report;
  abstractions : Cv_interval.Box.t array option;
      (** [Some] only when the abstractions themselves prove safety
          ([S_n ⊆ D_out]) *)
}

(** [verify_with_abstractions ?deadline ?domain ?fallback net prop]
    first tries the layer-wise abstract analysis (default: symbolic
    intervals, as in the paper's use of ReluVal): when the resulting
    [S_n ⊆ D_out], the property is proved {e and} the abstractions form
    a reusable proof artifact. Otherwise falls back to the exact engine
    (default MILP) — in which case no inductive box abstraction is
    produced (the verdict may still be [Proved]). *)
let verify_with_abstractions ?deadline ?(domain = Cv_domains.Analyzer.Symint)
    ?(fallback = Containment.Milp) net prop =
  if not (Property.well_formed prop net) then
    invalid_arg "Verifier.verify_with_abstractions: dimension mismatch";
  let (abstractions, abstract_ok), abs_seconds =
    Cv_util.Timer.time (fun () ->
        (* Supervised: a transiently crashing analyzer is retried, and a
           persistent crash falls through to the exact engine below —
           the proof artifact just loses its inductive abstraction. *)
        Cv_util.Supervisor.protect ~name:"verifier.abstractions"
          ~fallback:(fun _ -> (None, false))
          (fun () ->
            match
              Cv_domains.Analyzer.abstractions ?deadline domain net
                prop.Property.din
            with
            | s -> (Some s, Property.chain_proves prop s)
            | exception Cv_util.Deadline.Expired _ -> (None, false)))
  in
  if abstract_ok then
    { report =
        { verdict = Containment.Proved;
          engine = Containment.Abstract domain;
          seconds = abs_seconds };
      abstractions }
  else begin
    let r = verify ?deadline fallback net prop in
    { report = { r with seconds = r.seconds +. abs_seconds };
      abstractions = None }
  end
