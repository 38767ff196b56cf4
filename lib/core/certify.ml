(** Certificates for settled verification queries (see the interface). *)

module Cert = Cv_cert.Cert
module Property = Cv_verify.Property

let proposition = function
  | "prop1" -> Some "Proposition 1"
  | "prop2" -> Some "Proposition 2"
  | "prop3" -> Some "Proposition 3"
  | ("prop4" | "fixer") -> Some "Proposition 4"
  | "prop5" -> Some "Proposition 5"
  | ("prop6" | "prop6-interval") -> Some "Proposition 6"
  | ("trivial" | "delta-cover" | "leaf-reuse" | "prop-diff") as route ->
    Some route
  | _ -> None

(* The reuse frame records which route fired and by how much the inner
   proof clears D_out. A route that reuses nothing keeps the bare
   proof, as does a frame the checker rejects. *)
let reuse_wrapped ~route ~dout (cert : Cert.t) =
  match proposition route with
  | None -> cert
  | Some proposition ->
    let slack =
      match cert.Cert.proof with
      | Cert.P_chain boxes -> Cv_cert.Check.chain_slack ~dout boxes
      | _ -> 0.
    in
    Option.value ~default:cert
      (Cv_cert.Emit.reuse_cert ~route ~proposition ~slack cert)

let certify ~mode ?solver ?route net (prop : Property.t) outcome =
  let fingerprint = Cv_artifacts.Artifacts.fingerprint net in
  let din = prop.Property.din and dout = prop.Property.dout in
  let solver =
    match (solver, (outcome : Report.outcome)) with
    | Some solver, _ -> solver
    | None, Report.Unsafe _ -> "falsify"
    | None, _ -> Option.value ~default:"strategy" route
  in
  match outcome with
  | Report.Inconclusive _ | Report.Exhausted _ -> None
  | Report.Unsafe v ->
    Cv_cert.Emit.unsafe_cert ~mode ~solver ~fingerprint net ~din ~dout
      ~x:v.Cv_verify.Falsify.input
  | Report.Safe -> (
    (* The safe ladder: the interval chain / split tree first (cheap,
       covers most proved properties), the MILP goals when bisection
       alone cannot close the bound. *)
    let inner =
      match
        Cv_cert.Emit.safe_cert ~mode ~solver ~fingerprint net ~din ~dout
      with
      | Some _ as cert -> cert
      | None ->
        Cv_milp.Cert_bridge.safe_cert ~mode ~solver ~fingerprint net ~din ~dout
    in
    match route with
    | None -> inner
    | Some route -> Option.map (reuse_wrapped ~route ~dout) inner)
