(** LP witness extraction — the untrusted producer of {!Cv_cert}
    LP-level certificates.

    Extraction never inspects the live solver tableau: it snapshots the
    pristine system out of a {!Simplex.state}, re-solves it {e cold} on
    a fresh state, and reads the witness off that solve's final basis by
    solving [Bᵀz = c_B] with its own Gaussian elimination. The witness
    is then validated with outward-rounded arithmetic (the checker's
    obligations) before being handed out — extraction failures degrade
    emission, never soundness. It runs no search: a MILP proof is
    {!Cv_milp.Milp}'s own search, replayed by {!Cv_milp.Cert_bridge}
    with one {!certify_state} witness per leaf. *)

(** One validated witness. [ex_value] is the outward-certified
    standard-form objective lower bound for a {!Cv_cert.Cert.Dual_bound}
    (the Neumaier–Shcherbina-compensated [dn(b·z)]) and [+∞] for a
    {!Cv_cert.Cert.Farkas} (an infeasible system bounds every
    objective). *)
type extraction = { ex_witness : Cv_cert.Cert.lp_witness; ex_value : float }

(** [snapshot_system ~xu st] copies the state's pristine system (with
    its {e current} right-hand side) into certificate form; [xu] is the
    per-column upper bound ({!Lp.compiled_uppers}) the checker
    compensates against. *)
val snapshot_system : xu:float array -> Simplex.state -> Cv_cert.Cert.lp_system

(** [certify_state ~xu st] re-solves [snapshot_system ~xu st] cold and
    extracts a Farkas witness (infeasible) or a dual bound (optimal).
    [None] on stall, unboundedness, a singular basis or a witness that
    fails its outward validation. *)
val certify_state : xu:float array -> Simplex.state -> extraction option

(** [lp_certificate ~mode ~solver ~fingerprint c] wraps
    {!certify_state} on the compiled model as a full self-validated
    certificate: {!Cv_cert.Cert.Lp_infeasible} + {!Cv_cert.Cert.P_farkas}, or
    {!Cv_cert.Cert.Lp_min_at_least} + {!Cv_cert.Cert.P_dual} at the certified bound. *)
val lp_certificate :
  mode:string ->
  solver:string ->
  fingerprint:string ->
  Lp.compiled ->
  Cv_cert.Cert.t option
