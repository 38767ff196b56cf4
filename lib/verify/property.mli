(** Safety properties: [φ(f, D_in, D_out) := ∀x ∈ D_in, f(x) ∈ D_out].

    Both sets are boxes, matching the paper's experimental setup (the
    input box over the flattened feature layer and an output interval on
    the waypoint value [v_out]). *)

type t = {
  din : Cv_interval.Box.t;  (** input set to verify over *)
  dout : Cv_interval.Box.t;  (** safe output set *)
}

(** [make ~din ~dout] builds a property. *)
val make : din:Cv_interval.Box.t -> dout:Cv_interval.Box.t -> t

(** [holds_at prop net x] checks the property at one concrete input. *)
val holds_at : t -> Cv_nn.Network.t -> Cv_linalg.Vec.t -> bool

(** [enlarge prop delta] is the property over [D_in ∪ Δ_in], represented
    by the bounding box [join din delta]. *)
val enlarge : t -> Cv_interval.Box.t -> t

(** [chain_proves prop s] is true when the state-abstraction chain
    [s = S_1..S_n] is non-empty and [S_n ⊆ D_out] (with
    {!Cv_interval.Box.subset_tol}): the chain proves [prop]. *)
val chain_proves : t -> Cv_interval.Box.t array -> bool

(** [well_formed prop net] checks dimensions against a network. *)
val well_formed : t -> Cv_nn.Network.t -> bool

(** [pp ppf prop] prints both boxes. *)
val pp : Format.formatter -> t -> unit

(** [to_json prop] encodes the property. *)
val to_json : t -> Cv_util.Json.t

(** [of_json j] decodes a property written by {!to_json}. *)
val of_json : Cv_util.Json.t -> t

(** [of_json_result j] is {!of_json} with a typed error instead of an
    exception. *)
val of_json_result : Cv_util.Json.t -> (t, string) result
