(** Network-level MILP certificates: one {!Cv_cert.Cert.milp_goal} per
    finite bound of the safe output set, each backed by the tree that
    {!Milp}'s own search explored — there is no second search.

    A goal searches with {!Relu_encoding.max_output} (or [min_output])
    with the cutoff at the D_out bound. A search that ends in
    {!Milp.Below_cutoff} hands back its leaf fixings; {!replay} rebuilds
    the tree and takes one witness per leaf from a cold re-solve
    ({!Cv_lp.Lp_cert.certify_state}). A resumed search, a crashed dive,
    or leaves that do not cover the binary space yield no certificate.

    The big-M encoding step itself is untrusted (the checker cannot see
    that the MILP models the network); the goal's lowering frame is
    recorded so the checker can replay the bound translation, and the
    checker cross-examines each goal against concrete network
    evaluations. The emitted certificate is replayed through
    {!Cv_cert.Check} before being returned. *)

(** A search replayed as a proof: the standard-form system with every
    binary relaxed to [0, 1], the binaries' bound rows, the rebuilt
    tree, the least leaf bound [target] it proves
    (standard-form objective ≥ [target] for every 0/1 completion) and
    the lowering frame [(sign, shift)] of {!Cv_lp.Lp.compiled_frame}. *)
type replayed = {
  system : Cv_cert.Cert.lp_system;
  binaries : Cv_cert.Cert.milp_binary array;
  tree : Cv_cert.Cert.milp_tree;
  target : float;
  sign : float;
  shift : float;
}

(** [replay p ~maximize terms ~leaves] sets [p]'s objective, lowers it
    once with the binaries fixable, rebuilds the branch tree from
    [leaves] (a {!Milp.Below_cutoff} leaf log, each path newest first)
    and certifies every leaf cold. [None] when the paths do not form a
    tree covering every 0/1 completion (one path per leaf, both sides
    of every branch present), or when a witness fails its validation. *)
val replay :
  Milp.problem ->
  maximize:bool ->
  Cv_lp.Lp.term list ->
  leaves:(int * float) list list ->
  replayed option

(** [safe_cert ~mode ~solver ~fingerprint net ~din ~dout] proves
    [f(din) ⊆ dout] with one MILP goal per finite bound of [dout] — the
    exact-method counterpart of {!Cv_cert.Emit.safe_cert}.
    Self-validated; [None] when any goal fails. *)
val safe_cert :
  mode:string ->
  solver:string ->
  fingerprint:string ->
  Cv_nn.Network.t ->
  din:Cv_interval.Box.t ->
  dout:Cv_interval.Box.t ->
  Cv_cert.Cert.t option
