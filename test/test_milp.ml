(* Tests for Cv_milp: branch-and-bound and the big-M ReLU encoding. *)

let check_float = Alcotest.(check (float 1e-5))

(* ------------------------------------------------------------------ *)
(* Branch & bound on hand-made MILPs                                   *)
(* ------------------------------------------------------------------ *)

let test_knapsack () =
  (* max 10a + 13b + 7c  s.t. 3a + 4b + 2c <= 5, binary: optimum 17
     (a=1, c=1; the 23-profit pair a+b needs weight 7 > 5). *)
  let p = Cv_milp.Milp.create () in
  let a = Cv_milp.Milp.add_binary p () in
  let b = Cv_milp.Milp.add_binary p () in
  let c = Cv_milp.Milp.add_binary p () in
  Cv_milp.Milp.add_constraint p [ (3., a); (4., b); (2., c) ] Cv_lp.Lp.Le 5.;
  match Cv_milp.Milp.maximize p [ (10., a); (13., b); (7., c) ] with
  | Cv_milp.Milp.Optimal s ->
    check_float "objective" 17. s.Cv_milp.Milp.objective;
    check_float "a" 1. s.Cv_milp.Milp.values.(a);
    check_float "b" 0. s.Cv_milp.Milp.values.(b);
    check_float "c" 1. s.Cv_milp.Milp.values.(c)
  | _ -> Alcotest.fail "expected optimal"

let test_mixed_integer () =
  (* max x + 10d s.t. x <= 3 + 2d, x ∈ [0, 10], d binary: optimum x=5,d=1 → 15 *)
  let p = Cv_milp.Milp.create () in
  let x = Cv_milp.Milp.add_var p ~lo:0. ~hi:10. () in
  let d = Cv_milp.Milp.add_binary p () in
  Cv_milp.Milp.add_constraint p [ (1., x); (-2., d) ] Cv_lp.Lp.Le 3.;
  match Cv_milp.Milp.maximize p [ (1., x); (10., d) ] with
  | Cv_milp.Milp.Optimal s -> check_float "objective" 15. s.Cv_milp.Milp.objective
  | _ -> Alcotest.fail "expected optimal"

let test_milp_infeasible () =
  let p = Cv_milp.Milp.create () in
  let d = Cv_milp.Milp.add_binary p () in
  Cv_milp.Milp.add_constraint p [ (1., d) ] Cv_lp.Lp.Ge 2.;
  match Cv_milp.Milp.maximize p [ (1., d) ] with
  | Cv_milp.Milp.Infeasible -> ()
  | _ -> Alcotest.fail "expected infeasible"

let test_cutoff_below () =
  (* optimum 17; cutoff 30 → Below_cutoff with bound in [17, 30]. *)
  let p = Cv_milp.Milp.create () in
  let a = Cv_milp.Milp.add_binary p () in
  let b = Cv_milp.Milp.add_binary p () in
  let c = Cv_milp.Milp.add_binary p () in
  Cv_milp.Milp.add_constraint p [ (3., a); (4., b); (2., c) ] Cv_lp.Lp.Le 5.;
  match
    Cv_milp.Milp.maximize ~cutoff:30. p [ (10., a); (13., b); (7., c) ]
  with
  | Cv_milp.Milp.Below_cutoff { bound = ub; _ } ->
    Alcotest.(check bool) "bound within [17, 30]" true
      (ub >= 17. -. 1e-5 && ub <= 30. +. 1e-6)
  | Cv_milp.Milp.Optimal s when s.Cv_milp.Milp.objective <= 30. -> ()
  | _ -> Alcotest.fail "expected below-cutoff style result"

let test_cutoff_reached () =
  (* optimum 17; cutoff 10 → some integer point above 10 must surface. *)
  let p = Cv_milp.Milp.create () in
  let a = Cv_milp.Milp.add_binary p () in
  let b = Cv_milp.Milp.add_binary p () in
  let c = Cv_milp.Milp.add_binary p () in
  Cv_milp.Milp.add_constraint p [ (3., a); (4., b); (2., c) ] Cv_lp.Lp.Le 5.;
  match
    Cv_milp.Milp.maximize ~cutoff:10. p [ (10., a); (13., b); (7., c) ]
  with
  | Cv_milp.Milp.Cutoff_reached s ->
    Alcotest.(check bool) "above cutoff" true (s.Cv_milp.Milp.objective > 10.)
  | _ -> Alcotest.fail "expected cutoff reached"

let test_minimize_milp () =
  (* min a + b s.t. a + b >= 1, binary: optimum 1. *)
  let p = Cv_milp.Milp.create () in
  let a = Cv_milp.Milp.add_binary p () in
  let b = Cv_milp.Milp.add_binary p () in
  Cv_milp.Milp.add_constraint p [ (1., a); (1., b) ] Cv_lp.Lp.Ge 1.;
  match Cv_milp.Milp.minimize p [ (1., a); (1., b) ] with
  | Cv_milp.Milp.Optimal s -> check_float "objective" 1. s.Cv_milp.Milp.objective
  | _ -> Alcotest.fail "expected optimal"

(* Randomized: MILP optimum equals brute-force enumeration over binaries. *)
let milp_vs_bruteforce_prop =
  QCheck.Test.make ~name:"b&b matches brute force on binary programs"
    ~count:60
    QCheck.(pair (list_of_size (Gen.return 4) (float_range (-5.) 5.))
              (list_of_size (Gen.return 4) (float_range 0.5 3.)))
    (fun (profits, weights) ->
      let capacity = 4. in
      let p = Cv_milp.Milp.create () in
      let vars = List.map (fun _ -> Cv_milp.Milp.add_binary p ()) profits in
      Cv_milp.Milp.add_constraint p
        (List.map2 (fun w v -> (w, v)) weights vars)
        Cv_lp.Lp.Le capacity;
      let terms = List.map2 (fun c v -> (c, v)) profits vars in
      let best = ref Float.neg_infinity in
      for mask = 0 to 15 do
        let bit i = if mask land (1 lsl i) <> 0 then 1. else 0. in
        let w = List.fold_left ( +. ) 0. (List.mapi (fun i wi -> wi *. bit i) weights) in
        if w <= capacity +. 1e-9 then begin
          let v =
            List.fold_left ( +. ) 0. (List.mapi (fun i c -> c *. bit i) profits)
          in
          best := Float.max !best v
        end
      done;
      match Cv_milp.Milp.maximize p terms with
      | Cv_milp.Milp.Optimal s -> Float.abs (s.Cv_milp.Milp.objective -. !best) < 1e-5
      | _ -> false)

(* ------------------------------------------------------------------ *)
(* ReLU encoding                                                       *)
(* ------------------------------------------------------------------ *)

let fig2_net () =
  Cv_nn.Network.of_list
    [ Cv_nn.Layer.make
        (Cv_linalg.Mat.of_rows [ [| 1.; -2. |]; [| -2.; 1. |]; [| 1.; -1. |] ])
        [| 0.; 0.; 0. |] Cv_nn.Activation.Relu;
      Cv_nn.Layer.make
        (Cv_linalg.Mat.of_rows [ [| 2.; 2.; -1. |] ])
        [| 0. |] Cv_nn.Activation.Relu ]

(* The paper's Figure 2 example: exact max of n4 over the enlarged
   domain is 6.2 (< the interval bound 12.4). *)
let test_paper_example_62 () =
  let net = fig2_net () in
  let box = Cv_interval.Box.uniform 2 ~lo:(-1.) ~hi:1.1 in
  let enc = Cv_milp.Relu_encoding.encode ~net ~input_box:box in
  match Cv_milp.Relu_encoding.max_output enc ~output:0 with
  | Cv_milp.Milp.Optimal s -> check_float "max n4 = 6.2" 6.2 s.Cv_milp.Milp.objective
  | _ -> Alcotest.fail "expected optimal"

let test_encoding_exact_vs_sampling () =
  (* Exact bounds must dominate sampled values and be attained nearby. *)
  let rng = Cv_util.Rng.create 77 in
  for seed = 1 to 4 do
    let net =
      Cv_nn.Network.random ~rng:(Cv_util.Rng.create seed) ~dims:[ 3; 6; 4; 1 ]
        ~act:Cv_nn.Activation.Relu ()
    in
    let box = Cv_interval.Box.uniform 3 ~lo:(-1.) ~hi:1. in
    let enc = Cv_milp.Relu_encoding.encode ~net ~input_box:box in
    let hi =
      match Cv_milp.Relu_encoding.max_output enc ~output:0 with
      | Cv_milp.Milp.Optimal s -> s.Cv_milp.Milp.objective
      | _ -> Alcotest.fail "max failed"
    in
    let lo =
      match Cv_milp.Relu_encoding.min_output enc ~output:0 with
      | Cv_milp.Milp.Optimal s -> s.Cv_milp.Milp.objective
      | _ -> Alcotest.fail "min failed"
    in
    let sampled_max = ref Float.neg_infinity and sampled_min = ref Float.infinity in
    for _ = 1 to 2000 do
      let y = (Cv_nn.Network.eval net (Cv_interval.Box.sample rng box)).(0) in
      sampled_max := Float.max !sampled_max y;
      sampled_min := Float.min !sampled_min y
    done;
    Alcotest.(check bool) "exact max >= sampled" true (hi >= !sampled_max -. 1e-6);
    Alcotest.(check bool) "exact min <= sampled" true (lo <= !sampled_min +. 1e-6);
    (* Exact bounds are inside the symint reach. *)
    let reach =
      Cv_domains.Analyzer.output_box Cv_domains.Analyzer.Symint net box
    in
    Alcotest.(check bool) "within symint reach" true
      (Cv_interval.Interval.subset_tol ~tol:1e-6
         (Cv_interval.Interval.make lo hi)
         (Cv_interval.Box.get reach 0))
  done

let test_encoding_identity_and_stable () =
  (* A purely linear network: exact range = interval arithmetic. *)
  let net =
    Cv_nn.Network.of_list
      [ Cv_nn.Layer.make
          (Cv_linalg.Mat.of_rows [ [| 2.; -1. |] ])
          [| 3. |] Cv_nn.Activation.Identity ]
  in
  let box = Cv_interval.Box.uniform 2 ~lo:0. ~hi:1. in
  let enc = Cv_milp.Relu_encoding.encode ~net ~input_box:box in
  let _, _, binaries = Cv_milp.Relu_encoding.stats enc in
  Alcotest.(check int) "no binaries for linear net" 0 binaries;
  (match Cv_milp.Relu_encoding.max_output enc ~output:0 with
  | Cv_milp.Milp.Optimal s -> check_float "max 5" 5. s.Cv_milp.Milp.objective
  | _ -> Alcotest.fail "max failed");
  match Cv_milp.Relu_encoding.min_output enc ~output:0 with
  | Cv_milp.Milp.Optimal s -> check_float "min 2" 2. s.Cv_milp.Milp.objective
  | _ -> Alcotest.fail "min failed"

let test_encoding_leaky_relu () =
  let rng = Cv_util.Rng.create 31 in
  let net =
    Cv_nn.Network.random ~rng:(Cv_util.Rng.create 21) ~dims:[ 2; 5; 1 ]
      ~act:(Cv_nn.Activation.Leaky_relu 0.2) ()
  in
  let box = Cv_interval.Box.uniform 2 ~lo:(-1.) ~hi:1. in
  let enc = Cv_milp.Relu_encoding.encode ~net ~input_box:box in
  let hi =
    match Cv_milp.Relu_encoding.max_output enc ~output:0 with
    | Cv_milp.Milp.Optimal s -> s.Cv_milp.Milp.objective
    | _ -> Alcotest.fail "max failed"
  in
  let sampled = ref Float.neg_infinity in
  for _ = 1 to 3000 do
    let y = (Cv_nn.Network.eval net (Cv_interval.Box.sample rng box)).(0) in
    sampled := Float.max !sampled y
  done;
  Alcotest.(check bool) "leaky exact >= sampled" true (hi >= !sampled -. 1e-6);
  Alcotest.(check bool) "leaky exact close to sampled" true
    (hi <= !sampled +. 0.5)

let test_encoding_rejects_sigmoid () =
  let net =
    Cv_nn.Network.random ~rng:(Cv_util.Rng.create 1) ~dims:[ 2; 3; 1 ]
      ~act:Cv_nn.Activation.Sigmoid ()
  in
  try
    ignore
      (Cv_milp.Relu_encoding.encode ~net
         ~input_box:(Cv_interval.Box.uniform 2 ~lo:0. ~hi:1.));
    Alcotest.fail "should reject sigmoid"
  with Invalid_argument _ -> ()

let test_cutoff_decision_queries () =
  (* Decision-style use as in Containment: max <= theta? *)
  let net = fig2_net () in
  let box = Cv_interval.Box.uniform 2 ~lo:(-1.) ~hi:1.1 in
  let enc = Cv_milp.Relu_encoding.encode ~net ~input_box:box in
  (match Cv_milp.Relu_encoding.max_output enc ~output:0 ~cutoff:12. with
  | Cv_milp.Milp.Below_cutoff { bound = ub; _ } ->
    Alcotest.(check bool) "ub <= 12" true (ub <= 12. +. 1e-6)
  | Cv_milp.Milp.Optimal s ->
    Alcotest.(check bool) "optimal <= 12" true (s.Cv_milp.Milp.objective <= 12.)
  | _ -> Alcotest.fail "expected proof below cutoff");
  match Cv_milp.Relu_encoding.max_output enc ~output:0 ~cutoff:5. with
  | Cv_milp.Milp.Cutoff_reached s ->
    Alcotest.(check bool) "witness above 5" true (s.Cv_milp.Milp.objective > 5.)
  | Cv_milp.Milp.Optimal s ->
    Alcotest.(check bool) "optimum above 5" true (s.Cv_milp.Milp.objective > 5.)
  | _ -> Alcotest.fail "expected cutoff reached"

(* ------------------------------------------------------------------ *)
(* Parallel dives and iteration-limit degradation                      *)
(* ------------------------------------------------------------------ *)

(* The parallel node-batch mode must reproduce the sequential verdicts
   and objectives exactly (deterministic event replay). *)
let test_parallel_matches_sequential () =
  let knapsack () =
    let p = Cv_milp.Milp.create () in
    let vars = Array.init 8 (fun _ -> Cv_milp.Milp.add_binary p ()) in
    let weights = [| 3.; 4.; 2.; 5.; 1.; 6.; 2.; 3. |] in
    let profits = [| 10.; 13.; 7.; 11.; 2.; 15.; 5.; 8. |] in
    Cv_milp.Milp.add_constraint p
      (Array.to_list (Array.mapi (fun i v -> (weights.(i), v)) vars))
      Cv_lp.Lp.Le 12.;
    (p, Array.to_list (Array.mapi (fun i v -> (profits.(i), v)) vars))
  in
  let solve domains =
    let p, terms = knapsack () in
    Cv_milp.Milp.maximize ~domains p terms
  in
  (match (solve 1, solve 3) with
  | Cv_milp.Milp.Optimal s1, Cv_milp.Milp.Optimal s3 ->
    check_float "parallel = sequential optimum" s1.Cv_milp.Milp.objective
      s3.Cv_milp.Milp.objective
  | _ -> Alcotest.fail "expected optimal from both searches");
  (* Figure 2 exact query, sequential vs 2 domains. *)
  let fig2_max domains =
    let net = fig2_net () in
    let box = Cv_interval.Box.uniform 2 ~lo:(-1.) ~hi:1.1 in
    let enc = Cv_milp.Relu_encoding.encode ~net ~input_box:box in
    Cv_milp.Relu_encoding.max_output ~domains enc ~output:0
  in
  match (fig2_max 1, fig2_max 2) with
  | Cv_milp.Milp.Optimal s1, Cv_milp.Milp.Optimal s2 ->
    check_float "fig2 sequential" 6.2 s1.Cv_milp.Milp.objective;
    check_float "fig2 parallel" 6.2 s2.Cv_milp.Milp.objective
  | _ -> Alcotest.fail "expected optimal fig2 maxima"

(* A simplex iteration budget small enough to stall every node must
   degrade to [Timeout] (with an infinite bound — nothing certified),
   never raise. *)
let test_stalled_root_times_out () =
  let p = Cv_milp.Milp.create () in
  let a = Cv_milp.Milp.add_binary p () in
  let b = Cv_milp.Milp.add_binary p () in
  let c = Cv_milp.Milp.add_binary p () in
  Cv_milp.Milp.add_constraint p [ (3., a); (4., b); (2., c) ] Cv_lp.Lp.Le 5.;
  match Cv_milp.Milp.maximize ~max_iters:1 p [ (10., a); (13., b); (7., c) ] with
  | Cv_milp.Milp.Timeout { bound; incumbent } ->
    Alcotest.(check bool) "no certified bound" true (bound = Float.infinity);
    Alcotest.(check bool) "no incumbent" true (incumbent = None)
  | _ -> Alcotest.fail "expected Timeout when the root solve stalls"

(* ------------------------------------------------------------------ *)
(* Search-path pin                                                     *)
(* ------------------------------------------------------------------ *)

(* The exact simplex effort and optimum of one seeded ReLU MILP (24
   binaries), solved with the encoding's BaBSR branching rule. The
   simplex's pivot choices are a deterministic function of its float
   arithmetic, so these counts move whenever a change to the LP layer
   alters any pivot decision, and so does the branching order — a
   speed-up that claims an unchanged search path must leave them alone.
   (Under most-fractional branching the same solve took 509 nodes and
   4 779 pivots, and its optimum differed from this one by 17 ulp.)
   Two domains must give the same counts: the parallel search clones
   its worker states with [Simplex.copy_state], and a clone must pivot
   exactly like the original. (Here the whole search is one dive from
   the root, so the two domains never pivot at the same time; test_lp's
   "parallel copies match sequential" covers concurrent copies.) *)
let test_search_path_pin () =
  let names =
    [ "lp.pivots"; "lp.iterations"; "milp.nodes"; "lp.warmstart.hits";
      "lp.warmstart.misses"; "lp.warmstart.fallbacks" ]
  in
  let counts () =
    List.map (fun n -> Cv_util.Metrics.value (Cv_util.Metrics.counter n)) names
  in
  let net = Gen.net_of 2 [ 4; 12; 12; 1 ] in
  let box = Cv_interval.Box.uniform 4 ~lo:(-1.) ~hi:1. in
  List.iter
    (fun domains ->
      let enc = Cv_milp.Relu_encoding.encode ~net ~input_box:box in
      let before = counts () in
      let r = Cv_milp.Relu_encoding.max_output ~domains enc ~output:0 in
      let effort = List.map2 ( - ) (counts ()) before in
      List.iter2
        (fun name (want, got) ->
          Alcotest.(check int) (Printf.sprintf "%s (domains %d)" name domains) want got)
        names
        (List.combine [ 1098; 1238; 141; 140; 2; 0 ] effort);
      match r with
      | Cv_milp.Milp.Optimal s ->
        Alcotest.(check int64)
          (Printf.sprintf "optimum bits (domains %d)" domains)
          4596736207253034494L
          (Int64.bits_of_float s.Cv_milp.Milp.objective)
      | _ -> Alcotest.fail "expected optimal")
    [ 1; 2 ]

(* ------------------------------------------------------------------ *)
(* Branching rule                                                      *)
(* ------------------------------------------------------------------ *)

let nodes_of f =
  let c = Cv_util.Metrics.counter "milp.nodes" in
  let before = Cv_util.Metrics.value c in
  let r = f () in
  (r, Cv_util.Metrics.value c - before)

let objective = function
  | Cv_milp.Milp.Optimal s -> s.Cv_milp.Milp.objective
  | _ -> Alcotest.fail "expected optimal"

let close a b = Float.abs (a -. b) <= 1e-9 *. (1. +. Float.abs a)

(* The branching order changes the search, never its answer: the
   encoding's optima equal plain most-fractional B&B on the same
   problem, on nets with 2–3 hidden layers and 1–2 outputs. *)
let branching_exact_prop =
  QCheck.Test.make ~name:"encoding branching keeps the exact optima"
    ~count:25
    QCheck.(
      quad (int_range 1 10_000) (int_range 2 3)
        (list_of_size (Gen.int_range 2 3) (int_range 3 6))
        (int_range 1 2))
    (fun (seed, in_dim, hidden, outs) ->
      let net = Gen.net_of seed ((in_dim :: hidden) @ [ outs ]) in
      let box = Cv_interval.Box.uniform in_dim ~lo:(-1.) ~hi:1. in
      let enc = Cv_milp.Relu_encoding.encode ~net ~input_box:box in
      List.for_all
        (fun o ->
          let e = enc.Cv_milp.Relu_encoding.outputs.(o) in
          let c = e.Cv_milp.Relu_encoding.const
          and terms = e.Cv_milp.Relu_encoding.terms in
          let p = enc.Cv_milp.Relu_encoding.problem in
          close
            (objective (Cv_milp.Relu_encoding.max_output enc ~output:o))
            (objective (Cv_milp.Milp.maximize p terms) +. c)
          && close
               (objective (Cv_milp.Relu_encoding.min_output enc ~output:o))
               (objective (Cv_milp.Milp.minimize p terms) +. c))
        (List.init outs Fun.id))

(* A search that proves "max ≤ θ" (or "min ≥ θ") is its own proof: the
   leaves of the [Below_cutoff] search rebuild into a branch tree whose
   certificate the trusted checker accepts, at a target that maps back
   to a bound no looser than θ. *)
let leaf_replay_prop =
  QCheck.Test.make ~name:"below-cutoff leaves replay into a valid tree"
    ~count:25
    QCheck.(
      quad (int_range 1 10_000) (int_range 2 3)
        (list_of_size (Gen.int_range 2 3) (int_range 3 6))
        (float_range 1e-3 0.1))
    (fun (seed, in_dim, hidden, margin) ->
      let net = Gen.net_of seed ((in_dim :: hidden) @ [ 1 ]) in
      let box = Cv_interval.Box.uniform in_dim ~lo:(-1.) ~hi:1. in
      let enc = Cv_milp.Relu_encoding.encode ~net ~input_box:box in
      let e = enc.Cv_milp.Relu_encoding.outputs.(0) in
      let c = e.Cv_milp.Relu_encoding.const in
      List.for_all
        (fun (maximize, search) ->
          let theta =
            if maximize then objective (search None) +. margin
            else objective (search None) -. margin
          in
          match search (Some theta) with
          | Cv_milp.Milp.Below_cutoff { leaves = Some leaves; _ } -> (
            match
              Cv_milp.Cert_bridge.replay enc.Cv_milp.Relu_encoding.problem
                ~maximize e.Cv_milp.Relu_encoding.terms ~leaves
            with
            | None -> false
            | Some r ->
              let cert =
                { Cv_cert.Cert.mode = "test";
                  solver = "test";
                  fingerprint = "test";
                  claim =
                    Cv_cert.Cert.Milp_min_at_least
                      { lp = r.system;
                        binaries = r.binaries;
                        target = r.target };
                  proof = Cv_cert.Cert.P_milp_tree r.tree }
              in
              let bound = (r.sign *. (r.target +. r.shift)) +. c in
              Cv_cert.Check.check cert = Cv_cert.Check.Valid
              && (if maximize then bound <= theta +. 1e-9
                  else bound >= theta -. 1e-9))
          | _ -> false)
        [ ( true,
            fun cutoff ->
              Cv_milp.Relu_encoding.max_output ?cutoff enc ~output:0 );
          ( false,
            fun cutoff ->
              Cv_milp.Relu_encoding.min_output ?cutoff enc ~output:0 ) ])

(* A chooser pick that is not a fractional binary is ignored in favour
   of most-fractional, so each of these searches is the chooser-free
   one, node for node. *)
let test_bad_chooser_ignored () =
  let net = Gen.net_of 2 [ 4; 12; 12; 1 ] in
  let box = Cv_interval.Box.uniform 4 ~lo:(-1.) ~hi:1. in
  let enc = Cv_milp.Relu_encoding.encode ~net ~input_box:box in
  let p = enc.Cv_milp.Relu_encoding.problem in
  let terms =
    enc.Cv_milp.Relu_encoding.outputs.(0).Cv_milp.Relu_encoding.terms
  in
  let input0 = enc.Cv_milp.Relu_encoding.input_vars.(0) in
  let integral_binary values =
    match
      List.find_opt
        (fun v -> not (Cv_milp.Milp.fractional values.(v)))
        p.Cv_milp.Milp.binaries
    with
    | Some v -> Some v
    | None -> Some input0
  in
  let solve branch =
    nodes_of (fun () -> Cv_milp.Milp.maximize ?branch p terms)
  in
  let want, want_nodes = solve None in
  List.iter
    (fun (name, choose) ->
      let got, got_nodes = solve (Some choose) in
      Alcotest.(check int64)
        (name ^ ": optimum")
        (Int64.bits_of_float (objective want))
        (Int64.bits_of_float (objective got));
      Alcotest.(check int) (name ^ ": nodes") want_nodes got_nodes)
    [ ("integral binary", integral_binary);
      ("continuous var", fun _ -> Some input0);
      ("negative index", fun _ -> Some (-1));
      ("past the last var", fun v -> Some (Array.length v + 5));
      ("no pick", fun _ -> None) ]

(* On the pin net the encoding's rule needs fewer nodes than
   most-fractional with the same sampling seed (both counts are
   deterministic: 141 against 509 when written). *)
let test_branching_saves_nodes () =
  let net = Gen.net_of 2 [ 4; 12; 12; 1 ] in
  let box = Cv_interval.Box.uniform 4 ~lo:(-1.) ~hi:1. in
  let enc = Cv_milp.Relu_encoding.encode ~net ~input_box:box in
  let e = enc.Cv_milp.Relu_encoding.outputs.(0) in
  let c = e.Cv_milp.Relu_encoding.const in
  let seed, _ = enc.Cv_milp.Relu_encoding.seeds.(0).(0) in
  let babsr, babsr_nodes =
    nodes_of (fun () -> Cv_milp.Relu_encoding.max_output enc ~output:0)
  in
  let most_frac, most_frac_nodes =
    nodes_of (fun () ->
        Cv_milp.Milp.maximize ~known_feasible:(seed -. c)
          enc.Cv_milp.Relu_encoding.problem e.Cv_milp.Relu_encoding.terms)
  in
  Alcotest.(check bool) "same optimum" true
    (close (objective babsr) (objective most_frac +. c));
  Alcotest.(check bool)
    (Printf.sprintf "fewer nodes (%d < %d)" babsr_nodes most_frac_nodes)
    true
    (babsr_nodes < most_frac_nodes)

let () =
  Alcotest.run "cv_milp"
    [ ( "branch-and-bound",
        [ Alcotest.test_case "knapsack" `Quick test_knapsack;
          Alcotest.test_case "mixed integer" `Quick test_mixed_integer;
          Alcotest.test_case "infeasible" `Quick test_milp_infeasible;
          Alcotest.test_case "cutoff below" `Quick test_cutoff_below;
          Alcotest.test_case "cutoff reached" `Quick test_cutoff_reached;
          Alcotest.test_case "minimize" `Quick test_minimize_milp;
          Alcotest.test_case "parallel matches sequential" `Quick
            test_parallel_matches_sequential;
          Alcotest.test_case "search-path pin" `Quick test_search_path_pin;
          Alcotest.test_case "stalled root times out" `Quick
            test_stalled_root_times_out;
          QCheck_alcotest.to_alcotest milp_vs_bruteforce_prop ] );
      ( "relu-encoding",
        [ Alcotest.test_case "paper fig2: max = 6.2" `Quick
            test_paper_example_62;
          Alcotest.test_case "exact vs sampling" `Quick
            test_encoding_exact_vs_sampling;
          Alcotest.test_case "linear network" `Quick
            test_encoding_identity_and_stable;
          Alcotest.test_case "leaky relu" `Quick test_encoding_leaky_relu;
          Alcotest.test_case "rejects sigmoid" `Quick
            test_encoding_rejects_sigmoid;
          Alcotest.test_case "cutoff decision queries" `Quick
            test_cutoff_decision_queries ] );
      ( "branching",
        [ Alcotest.test_case "bad chooser picks ignored" `Quick
            test_bad_chooser_ignored;
          Alcotest.test_case "fewer nodes than most-fractional" `Quick
            test_branching_saves_nodes;
          QCheck_alcotest.to_alcotest branching_exact_prop;
          QCheck_alcotest.to_alcotest leaf_replay_prop ] ) ]
