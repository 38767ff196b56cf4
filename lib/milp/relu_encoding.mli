(** Compact big-M MILP encoding of piecewise-linear network slices —
    the paper's "exact method" (Equation (2)). Stable neurons introduce
    no variables (their values are carried as affine expressions over
    inputs and unstable post-activations); big-M bounds come from a
    symbolic-interval pre-analysis; branch-and-bound is seeded with the
    best sampled concrete value and branches by the BaBSR score (see
    {!max_output}). *)

(** Affine expression over LP variables. *)
type expr = { terms : (float * Cv_lp.Lp.var) list; const : float }

(** An unstable neuron, encoded with one phase binary. *)
type unstable = {
  layer : int;
  row : int;
  y : Cv_lp.Lp.var;  (** post-activation *)
  delta : Cv_lp.Lp.var;  (** phase binary *)
}

type encoding = {
  problem : Milp.problem;
  net : Cv_nn.Network.t;
  input_box : Cv_interval.Box.t;
  input_vars : Cv_lp.Lp.var array;
  outputs : expr array;  (** affine expressions of the output neurons *)
  pre_bounds : Cv_interval.Box.t array;  (** per-layer pre-activation bounds *)
  unstable : unstable array;  (** one per binary, in creation order *)
  seeds : (float * Cv_linalg.Vec.t) array array;
      (** per output: [(max_seed, input); (min_seed, input)] *)
}

(** [encode ~net ~input_box] builds the exact MILP of the slice [net]
    over [input_box]. Raises [Invalid_argument] for non-piecewise-linear
    activations. *)
val encode : net:Cv_nn.Network.t -> input_box:Cv_interval.Box.t -> encoding

(** [max_output ?deadline ?cutoff ?domains enc ~output] maximises one
    output neuron over the encoded set (exactly — the sampling seed only
    accelerates pruning).

    Branching follows BaBSR (Bunel et al., "Branch and Bound for
    Piecewise Linear Neural Network Verification", JMLR 2020). At a
    node's LP point each unstable neuron with a fractional phase binary
    scores [gap × sens]: [gap = y − act(z)] is how far the relaxation
    lifts the post-activation above the true activation (≥ 0), and
    [sens = |∂ output / ∂ y|] comes from one backward pass per query
    through the weights, using slope 1 for stable-active neurons, the
    leaky slope for stable-negative ones and the relaxation's chord
    [(u − s·l)/(u − l)] for unstable ones. The highest score's binary is
    branched on; when no score is positive the search falls back to the
    most fractional binary. Any branching order gives the same optimum,
    so this only changes how many nodes the search takes.

    [domains > 1] runs the branch-and-bound dives
    on parallel domains with deterministic merging. On budget exhaustion
    returns [Milp.Timeout] with the certified incumbent bound.
    [checkpoint]/[resume] snapshot and restore the branch-and-bound
    state (see {!Milp.maximize}); snapshots are in the encoded
    (constant-stripped) objective space, so they only resume the same
    query on the same encoding. *)
val max_output :
  ?deadline:Cv_util.Deadline.t ->
  ?cutoff:float ->
  ?domains:int ->
  ?checkpoint:Cv_util.Checkpoint.t ->
  ?resume:Cv_util.Json.t ->
  encoding ->
  output:int ->
  Milp.result

(** [min_output ?deadline ?cutoff ?domains enc ~output] minimises one
    output neuron, branching as {!max_output} does. *)
val min_output :
  ?deadline:Cv_util.Deadline.t ->
  ?cutoff:float ->
  ?domains:int ->
  ?checkpoint:Cv_util.Checkpoint.t ->
  ?resume:Cv_util.Json.t ->
  encoding ->
  output:int ->
  Milp.result

(** [stats enc] is [(vars, constraints, binaries)]. *)
val stats : encoding -> int * int * int
