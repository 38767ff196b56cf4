(* The continuous-engineering loop over several iterations, exercising
   every reuse route in the library:

     iteration 1: deploy -> black swans -> SVuDC (domain enlargement)
                  -> commit the enlarged domain
     iteration 2: fine-tune -> SVbTV (prop-diff / prop4)
     iteration 3: tighten the specification -> SVuSC (spec change)
     finale     : backward analysis locates the remaining risk

   Run with: dune exec examples/continuous_loop.exe *)

let section title = Printf.printf "\n=== %s ===\n" title

let ratio_str report original =
  Printf.sprintf "%.3f%% of original"
    (100.
    *. Cv_core.Strategy.ratio
         ~incremental:report.Cv_core.Report.total_wall
         ~original)

let () =
  section "Setup: platform, training, initial certification";
  let exp = Cv_vehicle.Pipeline.build () in
  let head0 = exp.Cv_vehicle.Pipeline.heads.(0) in
  let din0 = exp.Cv_vehicle.Pipeline.din in
  let prop0 = Cv_vehicle.Pipeline.property exp in
  let original = Cv_core.Strategy.solve_original_exact head0 prop0 in
  let orig_t =
    original.Cv_core.Strategy.artifact.Cv_artifacts.Artifacts.solve_seconds
  in
  Printf.printf "original certification: proved=%b in %.2fs\n"
    original.Cv_core.Strategy.proved orig_t;
  let artifact = ref original.Cv_core.Strategy.artifact in
  let monitor = Cv_monitor.Monitor.of_box din0 in

  section "Iteration 1 — deployment hits black swans (SVuDC)";
  let rng = Cv_util.Rng.create 2026 in
  let state = Cv_vehicle.Controller.init exp.Cv_vehicle.Pipeline.track ~s:0. in
  let _, _ =
    Cv_vehicle.Controller.drive ~conditions:Cv_vehicle.Camera.shifted ~rng
      ~track:exp.Cv_vehicle.Pipeline.track
      ~perception:exp.Cv_vehicle.Pipeline.perception ~monitor ~steps:250 state
  in
  Printf.printf "monitor: %d OOD events, kappa = %.4f\n"
    (Cv_monitor.Monitor.event_count monitor)
    (Cv_monitor.Monitor.kappa monitor);
  let enlarged = Cv_monitor.Monitor.enlarged_box ~margin:0.005 monitor in
  let svudc = Cv_core.Problem.svudc ~net:head0 ~artifact:!artifact ~new_din:enlarged in
  let r1 = Cv_core.Strategy.solve_svudc svudc in
  Printf.printf "SVuDC: %s (%s)\n"
    (Cv_core.Report.outcome_string r1.Cv_core.Report.verdict)
    (ratio_str r1 orig_t);
  (match r1.Cv_core.Report.verdict with
  | Cv_core.Report.Safe ->
    (* Proof transferred: commit the enlarged domain and refresh the
       stored artifact for the next iteration. The artifact keeps the
       chain only if it proves D_out, so the widening stays as small as
       the original solve's. *)
    Cv_monitor.Monitor.commit monitor enlarged;
    let prop1 =
      Cv_verify.Property.make ~din:enlarged
        ~dout:prop0.Cv_verify.Property.dout
    in
    artifact :=
      Cv_core.Strategy.record ~chain:(Cv_core.Strategy.Widened 0.02)
        ~solver:"svudc-transfer" ~solve_seconds:orig_t head0 prop1;
    Printf.printf "committed D_in ∪ Δ_in; artifact refreshed\n"
  | _ -> Printf.printf "transfer failed; a full re-verification would be scheduled\n");

  section "Iteration 2 — fine-tuning (SVbTV with the differential route)";
  let head1 = exp.Cv_vehicle.Pipeline.heads.(1) in
  Printf.printf "parameter drift: %.5f\n" (Cv_vehicle.Pipeline.drift exp 1);
  let svbtv =
    Cv_core.Problem.svbtv ~old_net:head0 ~new_net:head1 ~artifact:!artifact
      ~new_din:enlarged
  in
  (* Show the differential route on its own first. *)
  let pdiff = Cv_core.Diff_reuse.prop_diff svbtv in
  Printf.printf "prop-diff alone: %s (%s)\n"
    (match pdiff.Cv_core.Report.outcome with
    | Cv_core.Report.Safe -> "safe"
    | Cv_core.Report.Unsafe _ -> "unsafe"
    | Cv_core.Report.Inconclusive m -> "inconclusive: " ^ m
    | Cv_core.Report.Exhausted m -> "exhausted: " ^ m)
    pdiff.Cv_core.Report.detail;
  let r2 = Cv_core.Strategy.solve_svbtv svbtv in
  Printf.printf "SVbTV strategy: %s, decided by %s (%s)\n"
    (Cv_core.Report.outcome_string r2.Cv_core.Report.verdict)
    (match r2.Cv_core.Report.decisive with Some n -> n | None -> "-")
    (ratio_str r2 orig_t);

  section "Iteration 3 — the specification evolves (SVuSC)";
  (* Safety engineers tighten the certified output envelope to the
     chain reach + a smaller margin. *)
  (match Cv_artifacts.Artifacts.final_abstraction !artifact with
  | None -> Printf.printf "artifact holds no chain; no tightened D_out to try\n"
  | Some s_n ->
    let tightened = Cv_interval.Box.expand 0.02 s_n in
    let sc =
      Cv_core.Specchange.make ~net:head0 ~artifact:!artifact
        ~new_dout:tightened ()
    in
    let r3 = Cv_core.Specchange.solve sc in
    Printf.printf "SVuSC (tightened D_out): %s, decided by %s (%s)\n"
      (Cv_core.Report.outcome_string r3.Cv_core.Report.verdict)
      (match r3.Cv_core.Report.decisive with Some n -> n | None -> "-")
      (ratio_str r3 orig_t));
  let relaxed =
    Cv_interval.Box.expand 1.0 !artifact.Cv_artifacts.Artifacts.property.Cv_verify.Property.dout
  in
  let sc2 =
    Cv_core.Specchange.make ~net:head0 ~artifact:!artifact ~new_dout:relaxed ()
  in
  let r3b = Cv_core.Specchange.solve sc2 in
  Printf.printf "SVuSC (relaxed D_out): %s, decided by %s\n"
    (Cv_core.Report.outcome_string r3b.Cv_core.Report.verdict)
    (match r3b.Cv_core.Report.decisive with Some n -> n | None -> "-");

  section "Finale — backward analysis of the remaining risk";
  let dout = !artifact.Cv_artifacts.Artifacts.property.Cv_verify.Property.dout in
  let suspects =
    Cv_verify.Backward.suspect_regions head0 ~din:enlarged ~dout
  in
  List.iter
    (fun s -> Format.printf "%a@." Cv_verify.Backward.pp_suspect s)
    suspects;
  Printf.printf
    "suspect coverage: %.1f%% of the domain width%s\n"
    (100. *. Cv_verify.Backward.total_suspect_volume ~din:enlarged suspects)
    (if Cv_verify.Backward.all_safe suspects then
       " — the LP relaxation alone certifies the property"
     else "")
