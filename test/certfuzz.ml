(* Seeded soundness-fuzzing campaign for the certificate pipeline
   (`make certfuzz`).

   Each round draws a random scenario, emits certificates and attacks
   them. The invariant under fire is the checker's soundness:

   - every honestly emitted certificate must check Valid, and its claim
     must survive concrete sampling (a Valid safety certificate whose
     network has a sampled counterexample is a soundness bug);
   - JSON-level mutations of a valid certificate either fail to decode,
     check Invalid, or — when they happen to stay Valid — must still
     carry a claim that sampling cannot falsify;
   - the targeted per-kind corruptions (the guaranteed-invalid ones)
     must always be rejected.

   After the main rounds, a MILP-goals phase (its own generator and its
   own summary line) certifies small ReLU nets with D_out just above
   their exact range through the replayed branch-and-bound
   ({!Cv_milp.Cert_bridge.safe_cert}) and attacks those certificates the
   same way.

   Usage: certfuzz.exe [-seed N] [-rounds N] [-out DIR]
   Failing certificates are dumped into DIR (default
   _build/certfuzz-failures) for CI artifact upload. *)

module Box = Cv_interval.Box
module Cert = Cv_cert.Cert
module Check = Cv_cert.Check
module Emit = Cv_cert.Emit
module Lp = Cv_lp.Lp
module Lp_cert = Cv_lp.Lp_cert
module Json = Cv_util.Json
module Rng = Cv_util.Rng

let seed = ref 0

let rounds = ref 40

let out_dir = ref "_build/certfuzz-failures"

let failures = ref 0

let checked = ref 0

let mutations_tried = ref 0

let mutations_valid = ref 0

let () =
  let rec parse = function
    | "-seed" :: v :: rest ->
      seed := int_of_string v;
      parse rest
    | "-rounds" :: v :: rest ->
      rounds := int_of_string v;
      parse rest
    | "-out" :: v :: rest ->
      out_dir := v;
      parse rest
    | [] -> ()
    | a :: _ -> failwith ("certfuzz: unknown argument " ^ a)
  in
  parse (List.tl (Array.to_list Sys.argv))

let dump_failure ~why cert_json =
  incr failures;
  (try Unix.mkdir !out_dir 0o755 with Unix.Unix_error (Unix.EEXIST, _, _) -> ());
  let file =
    Filename.concat !out_dir (Printf.sprintf "failure-%d-%d.json" !seed !failures)
  in
  let oc = open_out file in
  output_string oc (Json.to_string (Json.Obj [ ("why", Json.Str why); ("certificate", cert_json) ]));
  close_out oc;
  Printf.eprintf "FAIL: %s (dumped to %s)\n%!" why file

let fail ~why cert = dump_failure ~why (Cert.to_json cert)

(* ------------------------------------------------------------------ *)
(* Ground-truth oracle: sample the claim                               *)
(* ------------------------------------------------------------------ *)

(* For a Valid certificate over a network claim, concrete evaluation is
   ground truth: a Network_safe claim falsified by any sampled input, or
   a Network_unsafe claim over a network that is sampled-safe AND whose
   proof point is inside D_out, is a checker soundness bug. *)
let sample_claim rng (cert : Cert.t) =
  match cert.claim with
  | Cert.Network_safe { din; _ } when Box.is_empty din ->
    true (* a mutation emptied D_in: the claim is vacuously true *)
  | Cert.Network_safe { net; din; dout } ->
    (try
       for _ = 1 to 64 do
         let x = Box.sample rng din in
         let y = Cv_nn.Network.eval net x in
         if not (Box.mem_tol ~tol:1e-9 y dout) then raise Exit
       done;
       true
     with Exit -> false)
  | Cert.Network_unsafe { net; din; dout } -> (
    match cert.proof with
    | Cert.P_counterexample x | Cert.P_reuse { inner = Cert.P_counterexample x; _ }
      ->
      Box.mem x din && not (Box.mem_tol ~tol:1e-6 (Cv_nn.Network.eval net x) dout)
    | _ -> true)
  | Cert.Lp_infeasible _ | Cert.Lp_min_at_least _ | Cert.Milp_min_at_least _
    ->
    (* LP-level claims have no cheap independent oracle here; the unit
       suite cross-checks them against the solver. *)
    true

let assert_valid_and_true rng ~what cert =
  incr checked;
  match Check.check cert with
  | Check.Invalid r -> fail ~why:(what ^ " rejected: " ^ r) cert
  | Check.Valid ->
    if not (sample_claim rng cert) then
      fail ~why:(what ^ ": Valid certificate with falsified claim") cert

(* ------------------------------------------------------------------ *)
(* JSON-level mutation attack                                          *)
(* ------------------------------------------------------------------ *)

(* Enumerate numeric leaves, then rewrite the [k]-th one. *)
let rec count_nums = function
  | Json.Num _ -> 1
  | Json.List l -> List.fold_left (fun a j -> a + count_nums j) 0 l
  | Json.Obj kvs -> List.fold_left (fun a (_, j) -> a + count_nums j) 0 kvs
  | _ -> 0

let mutate_num k f j =
  let n = ref k in
  let rec go j =
    match j with
    | Json.Num v ->
      decr n;
      if !n = -1 then Json.Num (f v) else j
    | Json.List l -> Json.List (List.map go l)
    | Json.Obj kvs -> Json.Obj (List.map (fun (k, v) -> (k, go v)) kvs)
    | _ -> j
  in
  go j

let perturbations =
  [| (fun v -> v +. 1.);
     (fun v -> v -. 1.);
     (fun v -> v *. 10.);
     (fun v -> -.v);
     (fun v -> v +. 1e-6);
     (fun v -> v -. 1e-6);
     (fun v -> v +. 1e9);
     (fun _ -> Float.nan);
     (fun _ -> Float.infinity);
     (fun v -> Float.succ v);
     (fun v -> Float.pred v) |]

let attack rng cert =
  let j = Cert.to_json cert in
  let total = count_nums j in
  if total > 0 then
    for _ = 1 to 12 do
      incr mutations_tried;
      let k = Rng.int rng total in
      let f = perturbations.(Rng.int rng (Array.length perturbations)) in
      let j' = mutate_num k f j in
      match Cert.of_json_result j' with
      | Error _ -> ()
      | Ok cert' -> (
        match Check.check cert' with
        | Check.Invalid _ -> ()
        | Check.Valid ->
          (* Mutations may land on slack — Valid is fine as long as the
             claim still holds against ground truth. *)
          incr mutations_valid;
          if not (sample_claim rng cert') then
            dump_failure ~why:"mutated certificate Valid but claim falsified"
              j')
    done

let expect_invalid ~what cert =
  incr checked;
  match Check.check cert with
  | Check.Invalid _ -> ()
  | Check.Valid -> fail ~why:(what ^ ": guaranteed corruption accepted") cert

(* ------------------------------------------------------------------ *)
(* Scenarios                                                           *)
(* ------------------------------------------------------------------ *)

let random_net rng =
  let widths = [| 2; 3; 4; 5 |] in
  let depth = 1 + Rng.int rng 2 in
  let dims =
    List.init (depth + 2) (fun _ -> widths.(Rng.int rng (Array.length widths)))
  in
  Cv_nn.Network.random ~rng ~dims ~act:Cv_nn.Activation.Relu ()

let meta = ("certfuzz", "certfuzz", "v2:fuzz")

let round_network rng =
  let mode, solver, fingerprint = meta in
  let net = random_net rng in
  let d = Cv_nn.Network.in_dim net in
  let lo = Rng.float rng ~lo:(-2.) ~hi:0. in
  let hi = lo +. Rng.float rng ~lo:0.1 ~hi:2. in
  let din = Box.uniform d ~lo ~hi in
  let chain = Emit.chain_boxes net din in
  let final = chain.(Array.length chain - 1) in
  let margin = Rng.float rng ~lo:1e-3 ~hi:1. in
  let dout = Box.expand margin final in
  (match Emit.safe_cert ~mode ~solver ~fingerprint net ~din ~dout with
  | None -> dump_failure ~why:"safe emission failed on a provable box" (Json.Null)
  | Some cert ->
    assert_valid_and_true rng ~what:"safe" cert;
    attack rng cert;
    (* Targeted corruption: degenerate final chain box. *)
    (match cert.Cert.proof with
    | Cert.P_chain ch ->
      let ch = Array.copy ch in
      ch.(Array.length ch - 1) <- Box.point (Box.center ch.(Array.length ch - 1));
      expect_invalid ~what:"chain" { cert with Cert.proof = Cert.P_chain ch }
    | _ -> ());
    (* Reuse wrap. *)
    (match
       Emit.reuse_cert ~route:"prop3" ~proposition:"Proposition 3"
         ~slack:margin cert
     with
    | Some wrapped ->
      assert_valid_and_true rng ~what:"reuse" wrapped;
      (match wrapped.Cert.proof with
      | Cert.P_reuse { route; proposition; inner; slack = _ } ->
        expect_invalid ~what:"reuse"
          { wrapped with
            Cert.proof = Cert.P_reuse { route; proposition; slack = -1.; inner }
          }
      | _ -> ())
    | None -> dump_failure ~why:"reuse wrap failed" (Cert.to_json cert)));
  (* A falsifiable box: shrink the true sampled range, then certify the
     violation found by sampling. *)
  let rng2 = Rng.create (Rng.int rng 1_000_000) in
  let samples =
    Array.init 128 (fun _ ->
        let x = Box.sample rng2 din in
        (x, Cv_nn.Network.eval net x))
  in
  let outd = Cv_nn.Network.out_dim net in
  let slo = Array.make outd Float.infinity
  and shi = Array.make outd Float.neg_infinity in
  Array.iter
    (fun (_, y) ->
      Array.iteri
        (fun i v ->
          slo.(i) <- Float.min slo.(i) v;
          shi.(i) <- Float.max shi.(i) v)
        y)
    samples;
  let width = Array.mapi (fun i h -> h -. slo.(i)) shi in
  if Array.exists (fun w -> w > 1e-3) width then begin
    let dout =
      Box.of_bounds
        (Array.mapi (fun i l -> l +. (0.4 *. width.(i))) slo)
        (Array.mapi (fun i h -> h -. (0.4 *. width.(i))) shi)
    in
    match
      Array.find_opt
        (fun (_, y) -> not (Box.mem_tol ~tol:1e-9 y dout))
        samples
    with
    | Some (x, _) -> (
      let mode, solver, fingerprint = meta in
      match
        Emit.unsafe_cert ~mode ~solver ~fingerprint net ~din ~dout ~x
      with
      | None ->
        dump_failure ~why:"unsafe emission failed on a sampled violation"
          Json.Null
      | Some cert ->
        assert_valid_and_true rng ~what:"unsafe" cert;
        attack rng cert;
        expect_invalid ~what:"cex"
          { cert with
            Cert.proof =
              Cert.P_counterexample
                (Array.map (fun v -> v +. 1e6) (Box.upper din))
          })
    | None -> ()
  end

let random_lp rng =
  let p = Lp.create () in
  let nv = 2 + Rng.int rng 3 in
  let vars =
    Array.init nv (fun _ ->
        Lp.add_var p ~lo:0. ~hi:(Rng.float rng ~lo:1. ~hi:10.) ())
  in
  let nc = 1 + Rng.int rng 3 in
  for _ = 1 to nc do
    let terms =
      Array.to_list
        (Array.map (fun v -> (Rng.float rng ~lo:(-2.) ~hi:2., v)) vars)
    in
    let op = if Rng.bool rng then Lp.Le else Lp.Ge in
    Lp.add_constraint p terms op (Rng.float rng ~lo:(-3.) ~hi:3.)
  done;
  let obj =
    Array.to_list
      (Array.map (fun v -> (Rng.float rng ~lo:(-1.) ~hi:1., v)) vars)
  in
  Lp.set_objective p ~maximize:false obj;
  p

let round_lp rng =
  let mode, solver, fingerprint = meta in
  let p = random_lp rng in
  let compiled = Lp.compile p in
  match
    Lp_cert.lp_certificate ~mode ~solver ~fingerprint compiled
  with
  | None -> () (* stalled / unbounded / degenerate extraction: allowed *)
  | Some cert -> (
    incr checked;
    (match Check.check cert with
    | Check.Valid -> ()
    | Check.Invalid r -> fail ~why:("lp cert rejected: " ^ r) cert);
    attack rng cert;
    (* Solver cross-check: the certified bound must not exceed the
       solver's optimum by more than float noise. *)
    match (cert.Cert.claim, Lp.solve p) with
    | Cert.Lp_min_at_least (_, t), Lp.Optimal { objective; _ } ->
      if t > objective +. 1e-6 +. (1e-9 *. Float.abs objective) then
        fail ~why:"dual bound exceeds solver optimum" cert
    | Cert.Lp_infeasible _, Lp.Optimal _ ->
      fail ~why:"farkas certificate for a solver-feasible system" cert
    | _ -> ())

(* D_out just above the exact range: bisection rarely closes it, the
   MILP goals must, and every goal's tree is the search's own. *)
let round_milp_goals rng =
  let mode, solver, fingerprint = meta in
  let net = random_net rng in
  let d = Cv_nn.Network.in_dim net in
  let lo = Rng.float rng ~lo:(-2.) ~hi:0. in
  let din = Box.uniform d ~lo ~hi:(lo +. Rng.float rng ~lo:0.1 ~hi:2.) in
  let margin = Rng.float rng ~lo:1e-4 ~hi:1e-2 in
  let dout =
    Box.expand margin (Cv_verify.Range.exact_range net ~din).Cv_verify.Range.range
  in
  match Cv_milp.Cert_bridge.safe_cert ~mode ~solver ~fingerprint net ~din ~dout with
  | None -> dump_failure ~why:"milp-goals emission failed on a proved range" Json.Null
  | Some cert -> (
    assert_valid_and_true rng ~what:"milp-goals" cert;
    attack rng cert;
    match cert.Cert.proof with
    | Cert.P_milp_goals (g :: rest) ->
      (* One corrupted goal must sink the whole certificate: an inflated
         target breaks a leaf's dual bound, a shifted constant escapes
         D_out (upper goal) or the spot check (lower goal). *)
      let corrupt what g' =
        expect_invalid ~what { cert with Cert.proof = Cert.P_milp_goals (g' :: rest) }
      in
      corrupt "milp goal target" { g with Cert.mg_target = g.Cert.mg_target +. 1e9 };
      corrupt "milp goal const" { g with Cert.mg_const = g.Cert.mg_const +. 1e9 }
    | _ -> fail ~why:"milp-goals emission without goals" cert)

let () =
  let rng = Rng.create !seed in
  for _ = 1 to !rounds do
    if Rng.int rng 4 = 0 then round_lp rng else round_network rng
  done;
  Printf.printf
    "certfuzz: seed %d, %d rounds, %d certificates checked, %d/%d mutations stayed valid, %d failures\n%!"
    !seed !rounds !checked !mutations_valid !mutations_tried !failures;
  let failures0 = !failures in
  checked := 0;
  mutations_valid := 0;
  mutations_tried := 0;
  let rng = Rng.create (!seed + 1_000_003) in
  let milp_rounds = max 1 (!rounds / 4) in
  for _ = 1 to milp_rounds do
    round_milp_goals rng
  done;
  Printf.printf
    "certfuzz: seed %d, %d milp-goals rounds, %d certificates checked, %d/%d mutations stayed valid, %d failures\n%!"
    !seed milp_rounds !checked !mutations_valid !mutations_tried
    (!failures - failures0);
  if !failures > 0 then exit 1
