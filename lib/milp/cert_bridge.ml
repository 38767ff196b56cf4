module Box = Cv_interval.Box
module Interval = Cv_interval.Interval
module Cert = Cv_cert.Cert
module Lp = Cv_lp.Lp
module Lp_cert = Cv_lp.Lp_cert

type replayed = {
  system : Cert.lp_system;
  binaries : Cert.milp_binary array;
  tree : Cert.milp_tree;
  target : float;
  sign : float;
  shift : float;
}

let replay (p : Milp.problem) ~maximize terms ~leaves =
  Lp.set_objective p.lp ~maximize terms;
  let compiled = Lp.compile ~fixable:p.binaries p.lp in
  let xu = Lp.compiled_uppers compiled in
  (* The base system has every binary relaxed to [0, 1]; the checker
     rewrites its rhs per leaf from the path fixings. *)
  let system = Lp_cert.snapshot_system ~xu (Lp.compiled_state compiled) in
  let vars = Array.of_list p.binaries in
  let target = ref Float.infinity in
  (* Paths are root-first here. A leaf is exactly one empty path; a
     branch splits every path on one binary with both sides non-empty,
     so the tree covers every 0/1 completion. The compiled model
     carries the fixings of the node being built. *)
  let rec build paths =
    match paths with
    | [ [] ] ->
      Option.map
        (fun (ex : Lp_cert.extraction) ->
          target := Float.min !target ex.ex_value;
          Cert.Milp_leaf ex.ex_witness)
        (Lp_cert.certify_state ~xu (Lp.compiled_state compiled))
    | ((v, _) :: _) :: _ -> (
      let side x =
        List.filter_map
          (function
            | (v', x') :: rest when v' = v && x' = x -> Some rest | _ -> None)
          paths
      in
      let zero = side 0. and one = side 1. in
      let child x paths =
        Lp.set_bounds_compiled compiled v ~lo:x ~hi:x;
        let t = build paths in
        Lp.set_bounds_compiled compiled v ~lo:0. ~hi:1.;
        t
      in
      match Array.find_index (( = ) v) vars with
      | Some bin
        when zero <> [] && one <> []
             && List.length zero + List.length one = List.length paths ->
        Option.bind (child 0. zero) (fun zero ->
            Option.map
              (fun one -> Cert.Milp_branch { bin; zero; one })
              (child 1. one))
      | _ -> None)
    | _ -> None
  in
  match build (List.map List.rev leaves) with
  | Some tree when Float.is_finite !target ->
    (* Every binary was compiled fixable, so each has its bound rows. *)
    let binary v =
      let ub, lb, shift = Option.get (Lp.compiled_fix_rows compiled v) in
      { Cert.bin_ub_row = ub; bin_lb_row = lb; bin_shift = shift }
    in
    let sign, shift = Lp.compiled_frame compiled in
    Some
      { system; binaries = Array.map binary vars; tree; target = !target;
        sign; shift }
  | _ -> None

(* One output bound, searched with the cutoff at the D_out bound itself:
   the checker compares the proven bound with D_out exactly, so slack
   would only admit trees it then rejects. *)
let goal (enc : Relu_encoding.encoding) ~output ~side ~bound =
  let search =
    if side = `Upper then Relu_encoding.max_output
    else Relu_encoding.min_output
  in
  match search enc ~output ~cutoff:bound with
  | Milp.Below_cutoff { leaves = Some leaves; _ } ->
    let expr = enc.outputs.(output) in
    Option.map
      (fun r ->
        { Cert.mg_lp = r.system;
          mg_binaries = r.binaries;
          mg_target = r.target;
          mg_output = output;
          mg_side = side;
          mg_sign = r.sign;
          mg_shift = r.shift;
          mg_const = expr.const;
          mg_tree = r.tree })
      (replay enc.problem ~maximize:(side = `Upper) expr.terms ~leaves)
  | _ -> None

let safe_cert ~mode ~solver ~fingerprint net ~din ~dout =
  match Relu_encoding.encode ~net ~input_box:din with
  | exception Invalid_argument _ -> None
  | enc ->
    let bounds =
      List.concat_map
        (fun output ->
          let iv = Box.get dout output in
          List.filter
            (fun (_, _, bound) -> Float.is_finite bound)
            [ (output, `Upper, Interval.hi iv); (output, `Lower, Interval.lo iv) ])
        (List.init (Box.dim dout) Fun.id)
    in
    let rec prove goals = function
      | [] -> Some (List.rev goals)
      | (output, side, bound) :: rest ->
        Option.bind (goal enc ~output ~side ~bound) (fun g ->
            prove (g :: goals) rest)
    in
    Option.bind (prove [] bounds) (fun goals ->
        let cert =
          { Cert.mode;
            solver;
            fingerprint;
            claim = Cert.Network_safe { net; din; dout };
            proof = Cert.P_milp_goals goals }
        in
        match Cv_cert.Check.check cert with
        | Cv_cert.Check.Valid -> Some cert
        | Invalid _ -> None)
