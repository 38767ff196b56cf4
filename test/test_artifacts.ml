(* Tests for Cv_artifacts: fingerprints, bundle construction,
   persistence round-trips. *)

let net () =
  Cv_nn.Network.random ~rng:(Cv_util.Rng.create 42) ~dims:[ 3; 5; 4; 1 ]
    ~act:Cv_nn.Activation.Relu ()

let prop () =
  Cv_verify.Property.make
    ~din:(Cv_interval.Box.uniform 3 ~lo:(-1.) ~hi:1.)
    ~dout:(Cv_interval.Box.of_bounds [| -5. |] [| 5. |])

let make_artifact ?(with_abs = true) () =
  let n = net () in
  let s =
    if with_abs then
      Some
        (Cv_domains.Analyzer.abstractions Cv_domains.Analyzer.Symint n
           (prop ()).Cv_verify.Property.din)
    else None
  in
  Cv_artifacts.Artifacts.make ?state_abstractions:s
    ~lipschitz:[ ("Linf", 12.5); ("L2", 8.25) ]
    ~property:(prop ()) ~net:n ~solver:"milp" ~solve_seconds:1.5 ()

let test_fingerprint_stability () =
  let n = net () in
  Alcotest.(check string) "deterministic"
    (Cv_artifacts.Artifacts.fingerprint n)
    (Cv_artifacts.Artifacts.fingerprint n);
  let perturbed =
    Cv_nn.Network.map_layers
      (Cv_nn.Layer.perturb ~rng:(Cv_util.Rng.create 1) ~sigma:0.001)
      n
  in
  Alcotest.(check bool) "sensitive to parameters" true
    (Cv_artifacts.Artifacts.fingerprint n
    <> Cv_artifacts.Artifacts.fingerprint perturbed)

let test_matches () =
  let a = make_artifact () in
  Alcotest.(check bool) "matches source" true
    (Cv_artifacts.Artifacts.matches a (net ()));
  let other =
    Cv_nn.Network.random ~rng:(Cv_util.Rng.create 7) ~dims:[ 3; 5; 4; 1 ]
      ~act:Cv_nn.Activation.Relu ()
  in
  Alcotest.(check bool) "rejects other" false
    (Cv_artifacts.Artifacts.matches a other)

let test_lipschitz_access () =
  let a = make_artifact () in
  Alcotest.(check (option (float 1e-12))) "linf" (Some 12.5)
    (Cv_artifacts.Artifacts.lipschitz_for a "Linf");
  Alcotest.(check (option (float 1e-12))) "missing" None
    (Cv_artifacts.Artifacts.lipschitz_for a "L7")

let test_final_abstraction () =
  let a = make_artifact () in
  (match Cv_artifacts.Artifacts.final_abstraction a with
  | Some b -> Alcotest.(check int) "output dim" 1 (Cv_interval.Box.dim b)
  | None -> Alcotest.fail "expected S_n");
  let a0 = make_artifact ~with_abs:false () in
  Alcotest.(check bool) "none without chain" true
    (Cv_artifacts.Artifacts.final_abstraction a0 = None)

let artifact_equal a b =
  let open Cv_artifacts.Artifacts in
  a.network_fingerprint = b.network_fingerprint
  && a.solver = b.solver
  && Cv_util.Float_utils.approx_eq a.solve_seconds b.solve_seconds
  && List.length a.lipschitz = List.length b.lipschitz
  && (match (a.state_abstractions, b.state_abstractions) with
     | None, None -> true
     | Some x, Some y ->
       Array.length x = Array.length y
       && Array.for_all2 (fun p q -> Cv_interval.Box.equal p q) x y
     | _ -> false)

let test_json_roundtrip () =
  let a = make_artifact () in
  let a' = Cv_artifacts.Artifacts.of_json (Cv_artifacts.Artifacts.to_json a) in
  Alcotest.(check bool) "roundtrip" true (artifact_equal a a')

let test_json_roundtrip_no_abs () =
  let a = make_artifact ~with_abs:false () in
  let a' = Cv_artifacts.Artifacts.of_json (Cv_artifacts.Artifacts.to_json a) in
  Alcotest.(check bool) "roundtrip" true (artifact_equal a a')

let test_file_roundtrip () =
  let a = make_artifact () in
  let path = Filename.temp_file "cv_artifact" ".json" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      Cv_artifacts.Artifacts.save path a;
      let a' = Cv_artifacts.Artifacts.load path in
      Alcotest.(check bool) "file roundtrip" true (artifact_equal a a'))

(* [doc_with a f] is [a]'s document with member [k] replaced by [f k v]. *)
let doc_with a f =
  match Cv_artifacts.Artifacts.to_json a with
  | Cv_util.Json.Obj kvs ->
    Cv_util.Json.Obj (List.map (fun (k, v) -> (k, f k v)) kvs)
  | _ -> Alcotest.fail "artifact document is not an object"

(* Writes [doc] inside the checksummed envelope and loads it back. *)
let load_doc doc =
  let path = Filename.temp_file "cv_artifact" ".json" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      Cv_artifacts.Artifacts.save_doc ~format:"contiver-proof" path doc;
      match Cv_artifacts.Artifacts.load_result path with
      | Ok a -> a
      | Error e ->
        Alcotest.failf "load_result: %s"
          (Cv_artifacts.Artifacts.load_error_message e))

let check_no_chain what a =
  Alcotest.(check bool) (what ^ ": no chain") true
    (a.Cv_artifacts.Artifacts.state_abstractions = None);
  Alcotest.(check bool) (what ^ ": no S_n") true
    (Cv_artifacts.Artifacts.final_abstraction a = None)

let test_empty_chain_loads_as_none () =
  let doc =
    doc_with (make_artifact ()) (fun k v ->
        if k = "state_abstractions" then Cv_util.Json.List [] else v)
  in
  check_no_chain "empty chain" (load_doc doc)

(* D_out = [100, 101] is far from the chain's S_n: the stored chain no
   longer proves the stored property, so neither make nor a load may
   keep it. *)
let test_non_proving_chain_dropped () =
  let a = make_artifact () in
  let far =
    Cv_verify.Property.make ~din:(prop ()).Cv_verify.Property.din
      ~dout:(Cv_interval.Box.of_bounds [| 100. |] [| 101. |])
  in
  check_no_chain "make"
    (Cv_artifacts.Artifacts.make
       ?state_abstractions:a.Cv_artifacts.Artifacts.state_abstractions
       ~property:far ~net:(net ()) ~solver:"milp" ~solve_seconds:1. ());
  let doc =
    doc_with a (fun k v ->
        if k = "property" then Cv_verify.Property.to_json far else v)
  in
  let loaded = load_doc doc in
  check_no_chain "load" loaded;
  Alcotest.(check bool) "rest of the bundle kept" true
    (Cv_artifacts.Artifacts.lipschitz_for loaded "Linf" = Some 12.5)

let test_rejects_wrong_format () =
  try
    ignore (Cv_artifacts.Artifacts.of_json (Cv_util.Json.parse "{\"a\": 1}"));
    Alcotest.fail "should reject"
  with Cv_util.Json.Error _ -> ()

let () =
  Alcotest.run "cv_artifacts"
    [ ( "fingerprint",
        [ Alcotest.test_case "stability" `Quick test_fingerprint_stability;
          Alcotest.test_case "matches" `Quick test_matches ] );
      ( "bundle",
        [ Alcotest.test_case "lipschitz access" `Quick test_lipschitz_access;
          Alcotest.test_case "final abstraction" `Quick test_final_abstraction ] );
      ( "persistence",
        [ Alcotest.test_case "json roundtrip" `Quick test_json_roundtrip;
          Alcotest.test_case "json roundtrip (no chain)" `Quick
            test_json_roundtrip_no_abs;
          Alcotest.test_case "file roundtrip" `Quick test_file_roundtrip;
          Alcotest.test_case "empty chain loads as none" `Quick
            test_empty_chain_loads_as_none;
          Alcotest.test_case "non-proving chain dropped" `Quick
            test_non_proving_chain_dropped;
          Alcotest.test_case "rejects wrong format" `Quick
            test_rejects_wrong_format ] ) ]
