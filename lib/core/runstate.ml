(** Durable run checkpoints: the on-disk envelope for a suspended
    verification run.

    A checkpoint file pairs a command-specific progress payload (a
    {!Cv_verify.Range} progress document for [verify --exact], a
    {!Strategy.run_until_decisive} attempt log for [svudc]/[svbtv])
    with the run's {e kind}, the verified network's fingerprint and a
    {e scope} digest of the property under verification, all inside the
    checksummed atomic envelope of {!Cv_artifacts.Artifacts.save_doc}.
    Load validates all of them — checksum, kind, fingerprint, scope —
    through typed errors (mirroring {!Session.resume_file}), so a
    checkpoint can never silently resume the wrong run, the wrong
    network, or the wrong property. *)

let format = "contiver-checkpoint"

type kind = Verify | Svudc | Svbtv | Serve

let kind_name = function
  | Verify -> "verify"
  | Svudc -> "svudc"
  | Svbtv -> "svbtv"
  | Serve -> "serve"

type resume_error =
  | Corrupt_checkpoint of string
      (** unreadable file, malformed JSON, checksum mismatch, or schema
          violation *)
  | Checkpoint_mismatch of string
      (** a valid checkpoint for a different command or network *)

(** [resume_error_message e] renders a one-line diagnosis. *)
let resume_error_message = function
  | Corrupt_checkpoint msg -> msg
  | Checkpoint_mismatch msg -> msg

(** [property_scope ?old_fingerprint prop] is an opaque digest of
    {e what} is being verified — the property's input/output domains
    and, for differential (svbtv) runs, the reference network — used as
    the [scope] of {!save}/{!load} so a checkpoint taken for one
    property can never resume a run of another. *)
let property_scope ?old_fingerprint (prop : Cv_verify.Property.t) =
  String.concat ":"
    (Option.to_list old_fingerprint
    @ List.map Cv_artifacts.Cache.box_hash
        [ prop.Cv_verify.Property.din; prop.Cv_verify.Property.dout ])

(** [save ?scope ~path ~kind ~fingerprint payload] writes a checkpoint
    atomically and durably (unique tmp + fsync + rename — see
    {!Cv_artifacts.Artifacts.save_doc}). *)
let save ?scope ~path ~kind ~fingerprint payload =
  Cv_artifacts.Artifacts.save_doc ~format path
    (Cv_util.Json.Obj
       ([ ("kind", Cv_util.Json.Str (kind_name kind));
          ("fingerprint", Cv_util.Json.Str fingerprint) ]
       @ (match scope with
         | None -> []
         | Some s -> [ ("scope", Cv_util.Json.Str s) ])
       @ [ ("payload", payload) ]))

(** [load ~path ~kind ~fingerprint ~scope] reads a checkpoint back,
    validating the envelope checksum, the run kind, the network
    fingerprint and — when the caller expects one — the property scope;
    returns the progress payload. A caller that passes [~scope:(Some _)]
    refuses checkpoints recorded without one: an unscoped file cannot
    prove it belongs to this property. *)
let load ~path ~kind ~fingerprint ~scope =
  match Cv_artifacts.Artifacts.load_doc_result ~format path with
  | Error e ->
    Error
      (Corrupt_checkpoint (Cv_artifacts.Artifacts.load_error_message e))
  | Ok doc -> (
    match
      ( Cv_util.Json.to_str (Cv_util.Json.member "kind" doc),
        Cv_util.Json.to_str (Cv_util.Json.member "fingerprint" doc),
        (match Cv_util.Json.member_opt "scope" doc with
        | None | Some Cv_util.Json.Null -> None
        | Some s -> Some (Cv_util.Json.to_str s)),
        Cv_util.Json.member "payload" doc )
    with
    | exception Cv_util.Json.Error msg ->
      Error (Corrupt_checkpoint (path ^ ": " ^ msg))
    | stored_kind, stored_fp, stored_scope, payload ->
      if not (String.equal stored_kind (kind_name kind)) then
        Error
          (Checkpoint_mismatch
             (Printf.sprintf
                "%s: checkpoint belongs to a %s run, not %s — refusing to \
                 resume"
                path stored_kind (kind_name kind)))
      else if not (String.equal stored_fp fingerprint) then
        Error
          (Checkpoint_mismatch
             (Printf.sprintf
                "%s: checkpoint was taken for a different network \
                 (fingerprint %s, expected %s) — refusing to resume"
                path stored_fp fingerprint))
      else
        match (scope, stored_scope) with
        | None, _ -> Ok payload
        | Some expected, Some stored when String.equal expected stored ->
          Ok payload
        | Some _, Some stored ->
          Error
            (Checkpoint_mismatch
               (Printf.sprintf
                  "%s: checkpoint was taken for a different property \
                   (scope %s) — refusing to resume"
                  path stored))
        | Some _, None ->
          Error
            (Checkpoint_mismatch
               (Printf.sprintf
                  "%s: checkpoint records no property scope — refusing to \
                   resume"
                  path)))
