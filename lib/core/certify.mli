(** Certificates for settled verification queries: the one place a
    verdict becomes a standalone {!Cv_cert.Cert.t}.

    A safe verdict gets the interval chain or a bisection split tree
    ({!Cv_cert.Emit.safe_cert}), or one MILP goal per finite output
    bound ({!Cv_milp.Cert_bridge.safe_cert}) when bisection gives up.
    When a reuse route settled the query, that proof is wrapped in a
    {!Cv_cert.Cert.P_reuse} frame naming the route and its
    {!proposition}. An unsafe verdict gets its counterexample. Every
    certificate returned has been replayed by {!Cv_cert.Check}. *)

(** [proposition route] is the reuse-frame label of a {!Strategy}
    attempt name: ["propN"] is ["Proposition N"] for N = 1..5,
    ["fixer"] (Prop 4 with §IV-C fixing) is ["Proposition 4"], ["prop6"]
    and ["prop6-interval"] are ["Proposition 6"]; ["trivial"],
    ["delta-cover"], ["leaf-reuse"] and ["prop-diff"] keep their name.
    [None] for a route that reuses nothing (["full"], any other name):
    its verdict gets the bare proof. *)
val proposition : string -> string option

(** [certify ~mode ?solver ?route net prop outcome] certifies [outcome]
    for [prop] on [net], the network actually verified. [mode] and
    [solver] are recorded labels; [solver] defaults to ["falsify"] for a
    counterexample, else to [route] (["strategy"] without one). [route],
    the decisive attempt, selects the reuse frame, whose slack is
    {!Cv_cert.Check.chain_slack} for a chain inner proof and 0
    otherwise. [None] for an inconclusive or exhausted outcome and for
    a verdict outside the certifiable fragment. *)
val certify :
  mode:string ->
  ?solver:string ->
  ?route:string ->
  Cv_nn.Network.t ->
  Cv_verify.Property.t ->
  Report.outcome ->
  Cv_cert.Cert.t option
