(** Safety properties: [φ(f, D_in, D_out) := ∀x ∈ D_in, f(x) ∈ D_out].

    Both domains are boxes, matching the paper's experimental setup
    (the input box over the flattened feature layer and an output
    interval on the waypoint value [v_out]). *)

type t = {
  din : Cv_interval.Box.t;  (** input set to verify over *)
  dout : Cv_interval.Box.t;  (** safe output set *)
}

(** [make ~din ~dout] builds a property. *)
let make ~din ~dout = { din; dout }

(** [holds_at prop net x] checks the property at one concrete input. *)
let holds_at prop net x = Cv_interval.Box.mem (Cv_nn.Network.eval net x) prop.dout

(** [enlarge prop delta] is the property over [D_in ∪ Δ_in], where the
    union is represented (as in the paper's monitored-bounds setting) by
    the bounding box [join din delta]. *)
let enlarge prop delta = { prop with din = Cv_interval.Box.join prop.din delta }

(** [chain_proves prop s] is [S_n ⊆ D_out] for a non-empty chain. *)
let chain_proves prop s =
  let n = Array.length s in
  n > 0 && Cv_interval.Box.subset_tol s.(n - 1) prop.dout

(** [well_formed prop net] checks dimensions against a network. *)
let well_formed prop net =
  Cv_interval.Box.dim prop.din = Cv_nn.Network.in_dim net
  && Cv_interval.Box.dim prop.dout = Cv_nn.Network.out_dim net

(** [pp ppf prop] prints both boxes. *)
let pp ppf prop =
  Format.fprintf ppf "@[<v>D_in : %a@,D_out: %a@]" Cv_interval.Box.pp prop.din
    Cv_interval.Box.pp prop.dout

(** [to_json prop] encodes the property. *)
let to_json prop =
  Cv_util.Json.Obj
    [ ("din", Cv_interval.Box.to_json prop.din);
      ("dout", Cv_interval.Box.to_json prop.dout) ]

(** [of_json j] decodes a property written by {!to_json}. *)
let of_json j =
  let open Cv_util.Json in
  { din = Cv_interval.Box.of_json (member "din" j);
    dout = Cv_interval.Box.of_json (member "dout" j) }

(** [of_json_result j] is {!of_json} with a typed error instead of an
    exception. *)
let of_json_result j =
  match of_json j with
  | p -> Ok p
  | exception Cv_util.Json.Error msg -> Error msg
