(* Tests for Cv_core: Propositions 1-6, incremental fixing, strategy
   orchestration, reports. The overarching soundness invariant: whenever
   a reuse route answers Safe, heavy sampling of the *target* property
   must find no violation. *)

let sample_check_safe net ~din ~dout ~samples =
  let rng = Cv_util.Rng.create 1717 in
  let ok = ref true in
  for _ = 1 to samples do
    let x = Cv_interval.Box.sample rng din in
    if not (Cv_interval.Box.mem_tol ~tol:1e-7 (Cv_nn.Network.eval net x) dout)
    then ok := false
  done;
  !ok

(* A deterministic small verification scenario: trained-size ReLU head,
   widened symint chain as artifact, D_out = S_n. *)
let scenario ?(widen = 0.05) ?(seed = 3) () =
  let net =
    Cv_nn.Network.random ~rng:(Cv_util.Rng.create seed) ~dims:[ 4; 6; 5; 4; 1 ]
      ~act:Cv_nn.Activation.Relu ()
  in
  let din = Cv_interval.Box.uniform 4 ~lo:0. ~hi:1. in
  let chain =
    Cv_domains.Analyzer.abstractions ~widen Cv_domains.Analyzer.Symint net din
  in
  let dout = chain.(Array.length chain - 1) in
  let prop = Cv_verify.Property.make ~din ~dout in
  let ell = Cv_lipschitz.Lipschitz.global ~norm:Cv_lipschitz.Lipschitz.Linf net in
  let artifact =
    Cv_artifacts.Artifacts.make ~state_abstractions:chain
      ~lipschitz:[ ("Linf", ell) ]
      ~property:prop ~net ~solver:"symint-chain" ~solve_seconds:1. ()
  in
  (net, din, dout, artifact)

let small_enlargement din = Cv_interval.Box.expand 0.002 din

let big_enlargement din = Cv_interval.Box.expand 1.0 din

(* ------------------------------------------------------------------ *)
(* Problem construction                                                *)
(* ------------------------------------------------------------------ *)

let test_problem_validation () =
  let net, din, _, artifact = scenario () in
  (* mismatched artifact *)
  let other =
    Cv_nn.Network.random ~rng:(Cv_util.Rng.create 9) ~dims:[ 4; 6; 5; 4; 1 ]
      ~act:Cv_nn.Activation.Relu ()
  in
  (try
     ignore
       (Cv_core.Problem.svudc ~net:other ~artifact
          ~new_din:(small_enlargement din));
     Alcotest.fail "should reject foreign artifact"
   with Invalid_argument _ -> ());
  (* new domain must contain old *)
  (try
     ignore
       (Cv_core.Problem.svudc ~net ~artifact
          ~new_din:(Cv_interval.Box.uniform 4 ~lo:0.4 ~hi:0.5));
     Alcotest.fail "should reject shrunken domain"
   with Invalid_argument _ -> ());
  let p = Cv_core.Problem.svudc ~net ~artifact ~new_din:(small_enlargement din) in
  Alcotest.(check bool) "target property din enlarged" true
    (Cv_interval.Box.subset din
       (Cv_core.Problem.svudc_property p).Cv_verify.Property.din)

(* ------------------------------------------------------------------ *)
(* SVuDC propositions                                                  *)
(* ------------------------------------------------------------------ *)

let test_trivial_shortcut () =
  let net, din, _, artifact = scenario () in
  let p = Cv_core.Problem.svudc ~net ~artifact ~new_din:din in
  let a = Cv_core.Svudc.trivial p in
  Alcotest.(check bool) "safe" true (Cv_core.Report.is_safe a)

let test_prop1_small_enlargement () =
  let net, din, dout, artifact = scenario () in
  let new_din = small_enlargement din in
  let p = Cv_core.Problem.svudc ~net ~artifact ~new_din in
  let a = Cv_core.Svudc.prop1 p in
  Alcotest.(check bool) ("prop1: " ^ a.Cv_core.Report.detail) true
    (Cv_core.Report.is_safe a);
  Alcotest.(check bool) "target truly safe" true
    (sample_check_safe net ~din:new_din ~dout ~samples:2000)

let test_prop1_huge_enlargement_inconclusive () =
  let net, din, _, artifact = scenario () in
  let p = Cv_core.Problem.svudc ~net ~artifact ~new_din:(big_enlargement din) in
  let a = Cv_core.Svudc.prop1 p in
  Alcotest.(check bool) "inconclusive" true (not (Cv_core.Report.is_safe a))

let test_prop2_small_enlargement () =
  let net, din, _, artifact = scenario () in
  let p = Cv_core.Problem.svudc ~net ~artifact ~new_din:(small_enlargement din) in
  let a = Cv_core.Svudc.prop2 p in
  Alcotest.(check bool) ("prop2: " ^ a.Cv_core.Report.detail) true
    (Cv_core.Report.is_safe a);
  Alcotest.(check bool) "multiple subproblems" true
    (a.Cv_core.Report.timing.Cv_core.Report.subproblems >= 2);
  Alcotest.(check bool) "parallel <= sequential" true
    (a.Cv_core.Report.timing.Cv_core.Report.parallel
    <= a.Cv_core.Report.timing.Cv_core.Report.sequential +. 1e-9)

let test_prop3_lipschitz () =
  (* Engineer a case where prop3 fires: inflate dout far beyond ℓκ. *)
  let net, din, _, artifact = scenario () in
  let chain = Option.get artifact.Cv_artifacts.Artifacts.state_abstractions in
  let s_n = chain.(Array.length chain - 1) in
  let ell =
    Option.get (Cv_artifacts.Artifacts.lipschitz_for artifact "Linf")
  in
  let kappa = 0.001 in
  let dout_wide = Cv_interval.Box.expand (ell *. kappa *. 2.) s_n in
  let prop = Cv_verify.Property.make ~din ~dout:dout_wide in
  let artifact =
    Cv_artifacts.Artifacts.make ~state_abstractions:chain
      ~lipschitz:[ ("Linf", ell) ]
      ~property:prop ~net ~solver:"symint-chain" ~solve_seconds:1. ()
  in
  let p =
    Cv_core.Problem.svudc ~net ~artifact
      ~new_din:(Cv_interval.Box.expand kappa din)
  in
  let a = Cv_core.Svudc.prop3 p in
  Alcotest.(check bool) ("prop3: " ^ a.Cv_core.Report.detail) true
    (Cv_core.Report.is_safe a)

let test_prop3_requires_constant () =
  let net, din, _, artifact = scenario () in
  let artifact =
    Cv_artifacts.Artifacts.make
      ?state_abstractions:artifact.Cv_artifacts.Artifacts.state_abstractions
      ~property:artifact.Cv_artifacts.Artifacts.property ~net
      ~solver:"no-lipschitz" ~solve_seconds:1. ()
  in
  let p = Cv_core.Problem.svudc ~net ~artifact ~new_din:(small_enlargement din) in
  let a = Cv_core.Svudc.prop3 p in
  Alcotest.(check bool) "inconclusive without ell" true
    (not (Cv_core.Report.is_safe a))

let test_props_require_abstractions () =
  let net, din, dout, _ = scenario () in
  let prop = Cv_verify.Property.make ~din ~dout in
  let artifact =
    Cv_artifacts.Artifacts.make ~property:prop ~net ~solver:"none"
      ~solve_seconds:0. ()
  in
  let p = Cv_core.Problem.svudc ~net ~artifact ~new_din:(small_enlargement din) in
  Alcotest.(check bool) "prop1 needs chain" true
    (not (Cv_core.Report.is_safe (Cv_core.Svudc.prop1 p)));
  Alcotest.(check bool) "prop2 needs chain" true
    (not (Cv_core.Report.is_safe (Cv_core.Svudc.prop2 p)))


let test_delta_cover_small_enlargement () =
  let net, din, dout, artifact = scenario () in
  let new_din = small_enlargement din in
  let p = Cv_core.Problem.svudc ~net ~artifact ~new_din in
  let a = Cv_core.Svudc.delta_cover p in
  Alcotest.(check bool) ("delta-cover: " ^ a.Cv_core.Report.detail) true
    (Cv_core.Report.is_safe a);
  (* one slab per face of a uniformly expanded 4-d box *)
  Alcotest.(check int) "8 slabs" 8
    a.Cv_core.Report.timing.Cv_core.Report.subproblems;
  Alcotest.(check bool) "truly safe" true
    (sample_check_safe net ~din:new_din ~dout ~samples:2000)

let test_delta_cover_empty_delta () =
  let net, din, _, artifact = scenario () in
  let p = Cv_core.Problem.svudc ~net ~artifact ~new_din:din in
  let a = Cv_core.Svudc.delta_cover p in
  Alcotest.(check bool) "empty delta safe" true (Cv_core.Report.is_safe a);
  Alcotest.(check int) "no slabs" 1
    a.Cv_core.Report.timing.Cv_core.Report.subproblems

let test_delta_cover_detects_violation () =
  (* Enlarge so far that the slabs genuinely violate D_out: the route
     must return Unsafe with a concrete witness, not merely fail. *)
  let net, din, dout, artifact = scenario () in
  let p = Cv_core.Problem.svudc ~net ~artifact ~new_din:(big_enlargement din) in
  let a = Cv_core.Svudc.delta_cover p in
  match a.Cv_core.Report.outcome with
  | Cv_core.Report.Unsafe v ->
    Alcotest.(check bool) "witness violates" true
      (not (Cv_interval.Box.mem v.Cv_verify.Falsify.output dout))
  | Cv_core.Report.Safe ->
    (* possible if the network saturates; then it must truly be safe *)
    Alcotest.(check bool) "claimed safe must hold" true
      (sample_check_safe net ~din:(big_enlargement din) ~dout ~samples:3000)
  | Cv_core.Report.Inconclusive _ | Cv_core.Report.Exhausted _ -> ()


let test_prop2_other_domains () =
  (* The box rebuild must also succeed (for single layers, the box and
     symint chains coincide: per-neuron box images are exact). DeepPoly
     and zonotope chains are NOT expected to work here — their ReLU
     relaxations can dip below zero, widening the rebuilt chain past the
     stored one; prop2 then honestly reports inconclusive. *)
  let net, din, _, artifact = scenario () in
  let p = Cv_core.Problem.svudc ~net ~artifact ~new_din:(small_enlargement din) in
  let a = Cv_core.Svudc.prop2 ~domain:Cv_domains.Analyzer.Box p in
  Alcotest.(check bool) ("box: " ^ a.Cv_core.Report.detail) true
    (Cv_core.Report.is_safe a);
  (* Whatever the verdict with a looser domain, it must never be Unsafe. *)
  let a' = Cv_core.Svudc.prop2 ~domain:Cv_domains.Analyzer.Deeppoly p in
  (match a'.Cv_core.Report.outcome with
  | Cv_core.Report.Unsafe _ -> Alcotest.fail "prop2 never proves unsafety"
  | _ -> ())

let test_strategy_with_split_engine () =
  let net, din, dout, artifact = scenario () in
  let new_din = small_enlargement din in
  let p = Cv_core.Problem.svudc ~net ~artifact ~new_din in
  let config =
    { Cv_core.Strategy.default_config with
      Cv_core.Strategy.engine = Cv_verify.Containment.Symint_split 1024 }
  in
  let r = Cv_core.Strategy.solve_svudc ~config p in
  (match r.Cv_core.Report.verdict with
  | Cv_core.Report.Safe -> ()
  | v -> Alcotest.failf "expected safe: %s" (Cv_core.Report.outcome_string v));
  Alcotest.(check bool) "truly safe" true
    (sample_check_safe net ~din:new_din ~dout ~samples:1000)

(* ------------------------------------------------------------------ *)
(* SVbTV propositions                                                  *)
(* ------------------------------------------------------------------ *)

let fine_tuned net sigma seed =
  Cv_nn.Network.map_layers
    (Cv_nn.Layer.perturb ~rng:(Cv_util.Rng.create seed) ~sigma)
    net

let test_prop4_small_drift () =
  let net, din, dout, artifact = scenario () in
  let net' = fine_tuned net 0.001 11 in
  let p =
    Cv_core.Problem.svbtv ~old_net:net ~new_net:net' ~artifact
      ~new_din:(small_enlargement din)
  in
  let a = Cv_core.Svbtv.prop4 p in
  Alcotest.(check bool) ("prop4: " ^ a.Cv_core.Report.detail) true
    (Cv_core.Report.is_safe a);
  Alcotest.(check int) "one subproblem per layer" 4
    a.Cv_core.Report.timing.Cv_core.Report.subproblems;
  Alcotest.(check bool) "target truly safe" true
    (sample_check_safe net' ~din:(small_enlargement din) ~dout ~samples:2000)

let test_prop4_large_drift_inconclusive () =
  let net, din, _, artifact = scenario () in
  let net' = fine_tuned net 0.8 13 in
  let p = Cv_core.Problem.svbtv ~old_net:net ~new_net:net' ~artifact ~new_din:din in
  let a = Cv_core.Svbtv.prop4 p in
  Alcotest.(check bool) "inconclusive" true (not (Cv_core.Report.is_safe a))

let test_prop5_anchors () =
  let net, din, dout, artifact = scenario () in
  let net' = fine_tuned net 0.001 17 in
  let p =
    Cv_core.Problem.svbtv ~old_net:net ~new_net:net' ~artifact
      ~new_din:(small_enlargement din)
  in
  let a = Cv_core.Svbtv.prop5 ~anchors:[ 2 ] p in
  Alcotest.(check bool) ("prop5: " ^ a.Cv_core.Report.detail) true
    (Cv_core.Report.is_safe a);
  Alcotest.(check int) "two subproblems for one anchor" 2
    a.Cv_core.Report.timing.Cv_core.Report.subproblems;
  Alcotest.(check bool) "target truly safe" true
    (sample_check_safe net' ~din:(small_enlargement din) ~dout ~samples:2000)

let test_prop5_bad_anchors () =
  let net, din, _, artifact = scenario () in
  let p = Cv_core.Problem.svbtv ~old_net:net ~new_net:net ~artifact ~new_din:din in
  Alcotest.(check bool) "anchor 1 rejected" true
    (not (Cv_core.Report.is_safe (Cv_core.Svbtv.prop5 ~anchors:[ 1 ] p)));
  Alcotest.(check bool) "anchor n rejected" true
    (not (Cv_core.Report.is_safe (Cv_core.Svbtv.prop5 ~anchors:[ 4 ] p)))

let test_default_anchors () =
  Alcotest.(check (list int)) "n=6" [ 2; 4 ] (Cv_core.Svbtv.default_anchors 6);
  Alcotest.(check (list int)) "n=4" [ 2 ] (Cv_core.Svbtv.default_anchors 4);
  Alcotest.(check (list int)) "n=2" [] (Cv_core.Svbtv.default_anchors 2)

(* ------------------------------------------------------------------ *)
(* Prop 6                                                              *)
(* ------------------------------------------------------------------ *)

let test_prop6_structural () =
  let net, din, _, _ = scenario ~seed:21 () in
  (* Build the pair and a dout it certifies. *)
  let pair = Cv_core.Netabs_reuse.build net ~din in
  let lo, hi = Cv_core.Netabs_reuse.output_bounds pair in
  let dout = Cv_interval.Box.of_bounds [| lo -. 0.1 |] [| hi +. 0.1 |] in
  Alcotest.(check bool) "pair proves" true
    (Cv_core.Netabs_reuse.proves pair ~dout);
  Alcotest.(check bool) "reuses self" true
    (Cv_core.Netabs_reuse.reuses pair net);
  let prop = Cv_verify.Property.make ~din ~dout in
  let artifact =
    Cv_artifacts.Artifacts.make ~property:prop ~net ~solver:"netabs"
      ~solve_seconds:1. ()
  in
  let p = Cv_core.Problem.svbtv ~old_net:net ~new_net:net ~artifact ~new_din:din in
  let a = Cv_core.Netabs_reuse.prop6 pair p in
  Alcotest.(check bool) ("prop6: " ^ a.Cv_core.Report.detail) true
    (Cv_core.Report.is_safe a)

let test_prop6_rejects_enlarged_domain () =
  let net, din, _, _ = scenario ~seed:21 () in
  let pair = Cv_core.Netabs_reuse.build net ~din in
  let lo, hi = Cv_core.Netabs_reuse.output_bounds pair in
  let dout = Cv_interval.Box.of_bounds [| lo -. 0.1 |] [| hi +. 0.1 |] in
  let prop = Cv_verify.Property.make ~din ~dout in
  let artifact =
    Cv_artifacts.Artifacts.make ~property:prop ~net ~solver:"netabs"
      ~solve_seconds:1. ()
  in
  let p =
    Cv_core.Problem.svbtv ~old_net:net ~new_net:net ~artifact
      ~new_din:(big_enlargement din)
  in
  let a = Cv_core.Netabs_reuse.prop6 pair p in
  Alcotest.(check bool) "enlargement out of scope" true
    (not (Cv_core.Report.is_safe a))

let test_prop6_interval () =
  let net, din, dout, artifact = scenario () in
  ignore dout;
  let net' = fine_tuned net 0.0005 23 in
  let drift = Cv_nn.Network.param_dist_inf net net' in
  let p = Cv_core.Problem.svbtv ~old_net:net ~new_net:net' ~artifact ~new_din:din in
  (* slack below drift: rejected *)
  let a_small = Cv_core.Netabs_reuse.prop6_interval ~slack:(drift /. 2.) p in
  Alcotest.(check bool) "small slack rejected" true
    (not (Cv_core.Report.is_safe a_small));
  (* generous slack: accepted iff the interval abstraction proves the
     property; either way must not claim Safe falsely *)
  let a_big = Cv_core.Netabs_reuse.prop6_interval ~slack:(drift *. 4.) p in
  if Cv_core.Report.is_safe a_big then
    Alcotest.(check bool) "interval prop6 sound" true
      (sample_check_safe net' ~din
         ~dout:artifact.Cv_artifacts.Artifacts.property.Cv_verify.Property.dout
         ~samples:2000)


let test_prop6_cegar () =
  (* Adaptive refinement: a D_out between the coarsest pair's bounds and
     the finest pair's bounds forces actual CEGAR iterations. *)
  let net, din, _, _ = scenario ~seed:21 () in
  let coarse = Cv_core.Netabs_reuse.build net ~din in
  let clo, chi = Cv_core.Netabs_reuse.output_bounds coarse in
  (* Finest pair = exact function bounds via many refinements. *)
  let fine = Cv_core.Netabs_reuse.build ~refinements:10_000 net ~din in
  let flo, fhi = Cv_core.Netabs_reuse.output_bounds fine in
  Alcotest.(check bool) "finest tighter" true (fhi <= chi +. 1e-9 && flo >= clo -. 1e-9);
  let mid_hi = 0.5 *. (chi +. fhi) and mid_lo = 0.5 *. (clo +. flo) in
  let dout = Cv_interval.Box.of_bounds [| mid_lo |] [| mid_hi |] in
  (match Cv_core.Netabs_reuse.build_adaptive ~max_refinements:10_000 net ~din ~dout with
  | Some pair ->
    Alcotest.(check bool) "adaptive pair proves" true
      (Cv_core.Netabs_reuse.proves pair ~dout)
  | None ->
    (* Acceptable only if even the finest pair cannot prove it. *)
    Alcotest.(check bool) "finest also fails" false
      (fhi <= mid_hi +. 1e-9 && flo >= mid_lo -. 1e-9));
  (* An impossible D_out must return None. *)
  Alcotest.(check bool) "impossible spec -> None" true
    (Cv_core.Netabs_reuse.build_adaptive ~max_refinements:50 net ~din
       ~dout:(Cv_interval.Box.of_bounds [| 0. |] [| 1e-9 |])
    = None)

(* ------------------------------------------------------------------ *)
(* Fixer                                                               *)
(* ------------------------------------------------------------------ *)

let test_diagnose_clean () =
  let net, din, _, artifact = scenario () in
  let p = Cv_core.Problem.svbtv ~old_net:net ~new_net:net ~artifact ~new_din:din in
  match Cv_core.Fixer.diagnose p with
  | Some d ->
    Alcotest.(check (list int)) "no failing layers" [] d.Cv_core.Fixer.failing
  | None -> Alcotest.fail "expected diagnosis"

let bump_layer net idx delta =
  Cv_nn.Network.make
    (Array.mapi
       (fun i (l : Cv_nn.Layer.t) ->
         if i <> idx then l
         else
           Cv_nn.Layer.make l.Cv_nn.Layer.weights
             (Array.map (fun b -> b +. delta) l.Cv_nn.Layer.bias)
             l.Cv_nn.Layer.act)
       (Cv_nn.Network.layers net))

let test_diagnose_localizes_failure () =
  let net, din, _, artifact = scenario ~widen:0.02 () in
  (* Bias bump on layer 2 beyond the widening breaks exactly that
     handoff (downstream handoffs still read the *old* S boxes). *)
  let net' = bump_layer net 1 0.1 in
  let p = Cv_core.Problem.svbtv ~old_net:net ~new_net:net' ~artifact ~new_din:din in
  match Cv_core.Fixer.diagnose p with
  | Some d ->
    Alcotest.(check (list int)) "layer 2 failing" [ 2 ] d.Cv_core.Fixer.failing
  | None -> Alcotest.fail "expected diagnosis"

let test_repair_clean_is_prop4 () =
  let net, din, _, artifact = scenario () in
  let net' = fine_tuned net 0.001 29 in
  let p = Cv_core.Problem.svbtv ~old_net:net ~new_net:net' ~artifact ~new_din:din in
  let a = Cv_core.Fixer.repair p in
  Alcotest.(check bool) "safe" true (Cv_core.Report.is_safe a);
  Alcotest.(check string) "named fixer" "fixer" a.Cv_core.Report.name

let test_repair_soundness () =
  (* Whenever repair claims Safe after an actual fix, the target
     property must hold empirically. *)
  let net, din, dout, artifact = scenario ~widen:0.05 () in
  let candidates = [ 0.02; 0.04; 0.08 ] in
  List.iter
    (fun delta ->
      let net' = bump_layer net 1 delta in
      let p =
        Cv_core.Problem.svbtv ~old_net:net ~new_net:net' ~artifact ~new_din:din
      in
      let a = Cv_core.Fixer.repair p in
      if Cv_core.Report.is_safe a then
        Alcotest.(check bool)
          (Printf.sprintf "delta %.2f sound" delta)
          true
          (sample_check_safe net' ~din ~dout ~samples:3000))
    candidates

let test_repair_multi_failure_inconclusive () =
  let net, din, _, artifact = scenario ~widen:0.01 () in
  let net' = fine_tuned net 0.5 31 in
  let p = Cv_core.Problem.svbtv ~old_net:net ~new_net:net' ~artifact ~new_din:din in
  let a = Cv_core.Fixer.repair p in
  match a.Cv_core.Report.outcome with
  | Cv_core.Report.Inconclusive _ | Cv_core.Report.Exhausted _ -> ()
  | Cv_core.Report.Safe ->
    (* possible if the perturbation happens to stay within widening;
       verify empirically *)
    let dout = artifact.Cv_artifacts.Artifacts.property.Cv_verify.Property.dout in
    Alcotest.(check bool) "safe claim must be true" true
      (sample_check_safe net' ~din ~dout ~samples:3000)
  | Cv_core.Report.Unsafe _ -> Alcotest.fail "fixer never proves unsafety"

(* ------------------------------------------------------------------ *)
(* Strategy                                                            *)
(* ------------------------------------------------------------------ *)

let test_strategy_svudc_end_to_end () =
  let net, din, dout, artifact = scenario () in
  let new_din = small_enlargement din in
  let p = Cv_core.Problem.svudc ~net ~artifact ~new_din in
  let r = Cv_core.Strategy.solve_svudc p in
  (match r.Cv_core.Report.verdict with
  | Cv_core.Report.Safe -> ()
  | v -> Alcotest.failf "expected safe, got %s" (Cv_core.Report.outcome_string v));
  Alcotest.(check bool) "decided by a reuse prop" true
    (match r.Cv_core.Report.decisive with
    | Some ("prop1" | "prop2" | "prop3" | "trivial") -> true
    | _ -> false);
  Alcotest.(check bool) "truly safe" true
    (sample_check_safe net ~din:new_din ~dout ~samples:2000)

let test_strategy_svudc_fallback_on_huge () =
  let net, din, _, artifact = scenario () in
  let p = Cv_core.Problem.svudc ~net ~artifact ~new_din:(big_enlargement din) in
  let r = Cv_core.Strategy.solve_svudc p in
  (* Props 1-3 fail on the huge enlargement; the instance is then
     settled either by the delta-cover route (which can return a
     definitive Unsafe witness) or by the full fallback. *)
  Alcotest.(check bool) "settled by delta-cover or full" true
    (match r.Cv_core.Report.decisive with
    | Some ("delta-cover" | "full") -> true
    | _ -> (
      (* nothing decisive: the last attempt must have been "full" *)
      match List.rev r.Cv_core.Report.attempts with
      | last :: _ -> last.Cv_core.Report.name = "full"
      | [] -> false))

let test_strategy_svbtv_end_to_end () =
  let net, din, dout, artifact = scenario () in
  let net' = fine_tuned net 0.001 37 in
  let p =
    Cv_core.Problem.svbtv ~old_net:net ~new_net:net' ~artifact
      ~new_din:(small_enlargement din)
  in
  let r = Cv_core.Strategy.solve_svbtv p in
  (match r.Cv_core.Report.verdict with
  | Cv_core.Report.Safe -> ()
  | v -> Alcotest.failf "expected safe, got %s" (Cv_core.Report.outcome_string v));
  Alcotest.(check bool) "truly safe" true
    (sample_check_safe net' ~din:(small_enlargement din) ~dout ~samples:2000)

let test_report_conclude () =
  let mk name outcome =
    { Cv_core.Report.name;
      outcome;
      timing = Cv_core.Report.sequential_timing 0.5;
      detail = "" }
  in
  let r =
    Cv_core.Report.conclude
      [ mk "a" (Cv_core.Report.Inconclusive "x"); mk "b" Cv_core.Report.Safe ]
  in
  Alcotest.(check bool) "verdict safe" true
    (r.Cv_core.Report.verdict = Cv_core.Report.Safe);
  Alcotest.(check (option string)) "decisive" (Some "b")
    r.Cv_core.Report.decisive;
  Alcotest.(check (float 1e-9)) "total wall" 1. r.Cv_core.Report.total_wall;
  let r2 = Cv_core.Report.conclude [ mk "a" (Cv_core.Report.Inconclusive "x") ] in
  Alcotest.(check (option string)) "no decisive" None r2.Cv_core.Report.decisive

let test_ratio () =
  Alcotest.(check (float 1e-12)) "ratio" 0.1
    (Cv_core.Strategy.ratio ~incremental:0.5 ~original:5.);
  Alcotest.(check bool) "nan on zero" true
    (Float.is_nan (Cv_core.Strategy.ratio ~incremental:1. ~original:0.))


let slabs_cover_prop =
  QCheck.Test.make ~name:"enlargement slabs exactly cover the delta region"
    ~count:100
    QCheck.(pair (list_of_size (Gen.return 3) (float_range 0. 0.4))
              (list_of_size (Gen.return 3) (float_range 0. 0.4)))
    (fun (los, his) ->
      let old_box = Cv_interval.Box.uniform 3 ~lo:0. ~hi:1. in
      let new_box =
        Cv_interval.Box.of_bounds
          (Array.of_list (List.map (fun d -> -.d) los))
          (Array.of_list (List.map (fun d -> 1. +. d) his))
      in
      let slabs = Cv_core.Svudc.enlargement_slabs ~old_box ~new_box in
      let rng = Cv_util.Rng.create 77 in
      let ok = ref true in
      for _ = 1 to 100 do
        let x = Cv_interval.Box.sample rng new_box in
        let in_some_slab =
          Array.exists (fun (_, s) -> Cv_interval.Box.mem_tol ~tol:1e-9 x s) slabs
        in
        (* coverage: x outside old must be in a slab *)
        if (not (Cv_interval.Box.mem x old_box)) && not in_some_slab then
          ok := false
      done;
      (* every slab stays within the enlarged box *)
      Array.iter
        (fun (_, s) ->
          if not (Cv_interval.Box.subset_tol s new_box) then ok := false)
        slabs;
      !ok)

(* Randomized soundness sweep over the whole strategy. *)
let strategy_soundness_prop =
  QCheck.Test.make ~name:"strategy Safe implies empirically safe" ~count:10
    QCheck.(pair (int_range 1 100) (float_range 0.0005 0.01))
    (fun (seed, sigma) ->
      let net, din, dout, artifact = scenario ~seed () in
      let net' = fine_tuned net sigma (seed + 1) in
      let new_din = Cv_interval.Box.expand 0.001 din in
      let p =
        Cv_core.Problem.svbtv ~old_net:net ~new_net:net' ~artifact ~new_din
      in
      let r = Cv_core.Strategy.solve_svbtv p in
      match r.Cv_core.Report.verdict with
      | Cv_core.Report.Safe ->
        sample_check_safe net' ~din:new_din ~dout ~samples:1000
      | _ -> true)

let () =
  Alcotest.run "cv_core"
    [ ( "problem",
        [ Alcotest.test_case "validation" `Quick test_problem_validation ] );
      ( "svudc",
        [ Alcotest.test_case "trivial" `Quick test_trivial_shortcut;
          Alcotest.test_case "prop1 small enlargement" `Quick
            test_prop1_small_enlargement;
          Alcotest.test_case "prop1 huge enlargement" `Quick
            test_prop1_huge_enlargement_inconclusive;
          Alcotest.test_case "prop2 small enlargement" `Quick
            test_prop2_small_enlargement;
          Alcotest.test_case "prop3 fires" `Quick test_prop3_lipschitz;
          Alcotest.test_case "prop3 needs constant" `Quick
            test_prop3_requires_constant;
          Alcotest.test_case "props need abstractions" `Quick
            test_props_require_abstractions;
          Alcotest.test_case "delta-cover small" `Quick
            test_delta_cover_small_enlargement;
          Alcotest.test_case "delta-cover empty" `Quick
            test_delta_cover_empty_delta;
          Alcotest.test_case "delta-cover violation" `Quick
            test_delta_cover_detects_violation;
          Alcotest.test_case "prop2 other domains" `Quick
            test_prop2_other_domains;
          Alcotest.test_case "strategy with split engine" `Quick
            test_strategy_with_split_engine ] );
      ( "svbtv",
        [ Alcotest.test_case "prop4 small drift" `Quick test_prop4_small_drift;
          Alcotest.test_case "prop4 large drift" `Quick
            test_prop4_large_drift_inconclusive;
          Alcotest.test_case "prop5 anchors" `Quick test_prop5_anchors;
          Alcotest.test_case "prop5 bad anchors" `Quick test_prop5_bad_anchors;
          Alcotest.test_case "default anchors" `Quick test_default_anchors ] );
      ( "prop6",
        [ Alcotest.test_case "structural" `Quick test_prop6_structural;
          Alcotest.test_case "rejects enlargement" `Quick
            test_prop6_rejects_enlarged_domain;
          Alcotest.test_case "interval variant" `Quick test_prop6_interval;
          Alcotest.test_case "cegar driver" `Quick test_prop6_cegar ] );
      ( "fixer",
        [ Alcotest.test_case "diagnose clean" `Quick test_diagnose_clean;
          Alcotest.test_case "diagnose localizes" `Quick
            test_diagnose_localizes_failure;
          Alcotest.test_case "repair clean" `Quick test_repair_clean_is_prop4;
          Alcotest.test_case "repair soundness" `Quick test_repair_soundness;
          Alcotest.test_case "repair multi-failure" `Quick
            test_repair_multi_failure_inconclusive ] );
      ( "strategy",
        [ Alcotest.test_case "svudc end-to-end" `Quick
            test_strategy_svudc_end_to_end;
          Alcotest.test_case "svudc fallback" `Quick
            test_strategy_svudc_fallback_on_huge;
          Alcotest.test_case "svbtv end-to-end" `Quick
            test_strategy_svbtv_end_to_end;
          Alcotest.test_case "report conclude" `Quick test_report_conclude;
          Alcotest.test_case "ratio" `Quick test_ratio;
          QCheck_alcotest.to_alcotest slabs_cover_prop;
          QCheck_alcotest.to_alcotest strategy_soundness_prop ] ) ]
