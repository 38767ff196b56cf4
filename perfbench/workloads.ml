(* The four workloads. Each [setup] builds its inputs from the seed and
   returns an instance whose [run_block] performs one fixed unit of
   work; the measuring loop in [Perfbench] repeats blocks for the run's
   duration. Verdicts are recorded during the timed blocks and judged
   against known answers afterwards, in [check], so the independent
   checks never count towards a timing. *)

open Common
module Pipeline = Cv_vehicle.Pipeline
module Strategy = Cv_core.Strategy
module Problem = Cv_core.Problem
module Report = Cv_core.Report

let span = Cv_util.Trace.with_span

let timed f =
  let t0 = now () in
  let r = f () in
  (r, now () -. t0)

(* Verdict of one query, as recorded for the known-answer pass. *)
type outcome = O_safe | O_unsafe of float array | O_failed of string

let outcome_of_report (r : Report.t) =
  match r.Report.verdict with
  | Report.Safe -> O_safe
  | Report.Unsafe v -> O_unsafe v.Cv_verify.Falsify.input
  | Report.Inconclusive m -> O_failed ("inconclusive: " ^ m)
  | Report.Exhausted m -> O_failed ("exhausted: " ^ m)

let failed = function O_failed _ -> 1 | O_safe | O_unsafe _ -> 0

(* Distinct outcomes seen per query id. *)
let recorder () =
  let tbl = Hashtbl.create 64 in
  let record id o =
    let seen = Option.value (Hashtbl.find_opt tbl id) ~default:[] in
    if not (List.mem o seen) then Hashtbl.replace tbl id (o :: seen)
  in
  (tbl, record)

(* [judge ~what ~known ~net ~din ~dout o] refutes [o] against the known
   answer; an unsafe verdict's own witness is re-evaluated too. Failed
   outcomes are not verdicts and are left to [failed_share]. *)
let judge ~what ~known ~net ~din ~dout = function
  | O_safe ->
    if known = Known.Unsafe then
      contradiction "%s: reported safe, known answer unsafe" what
  | O_unsafe x ->
    check_witness ~what net ~din ~dout x;
    if known = Known.Safe then
      contradiction "%s: reported unsafe, known answer safe" what
  | O_failed _ -> ()

let routes_of (r : Report.t) = Option.to_list r.Report.decisive

(* ------------------------------------------------------------------ *)
(* table1-exact                                                         *)
(* ------------------------------------------------------------------ *)

let table1 ~seed:_ =
  let exp = Pipeline.build () in
  let known = Known.load exp in
  let heads = exp.Pipeline.heads in
  let prop = Pipeline.property exp in
  let din = exp.Pipeline.din and enl = exp.Pipeline.enlarged_din in
  let dout = exp.Pipeline.dout in
  let tbl, record = recorder () in
  let run_block () =
    let orig, t_exact =
      timed (fun () ->
          span "bench.core.solve_original_exact" (fun () ->
              Strategy.solve_original_exact ~config:config1 heads.(0) prop))
    in
    let o_orig =
      match orig.Strategy.report.Cv_verify.Verifier.verdict with
      | Cv_verify.Containment.Proved -> O_safe
      | Cv_verify.Containment.Violated v -> O_unsafe v.Cv_verify.Falsify.input
      | Cv_verify.Containment.Unknown u ->
        O_failed u.Cv_verify.Containment.message
    in
    record "original" o_orig;
    let artifact = orig.Strategy.artifact in
    let svudc, t_u =
      timed (fun () ->
          span "bench.core.solve_svudc" (fun () ->
              Strategy.solve_svudc ~config:config1
                (Problem.svudc ~net:heads.(0) ~artifact ~new_din:enl)))
    in
    let svbtv, t_b =
      timed (fun () ->
          span "bench.core.solve_svbtv" (fun () ->
              Strategy.solve_svbtv ~config:config1
                (Problem.svbtv ~old_net:heads.(0) ~new_net:heads.(1) ~artifact
                   ~new_din:enl)))
    in
    let o_u = outcome_of_report svudc and o_b = outcome_of_report svbtv in
    record "svudc" o_u;
    record "svbtv" o_b;
    { samples =
        [ ("work", [ t_exact ]); ("exact_solve", [ t_exact ]);
          ("svudc", [ t_u ]); ("svbtv", [ t_b ]) ];
      units = 1;
      busy = t_exact;
      attempted = 3;
      failed = failed o_orig + failed o_u + failed o_b;
      routes = routes_of svudc @ routes_of svbtv;
      job_seconds = 0. }
  in
  let check () =
    let cases =
      [ ("original", 0, "din", din); ("svudc", 0, "enl", enl);
        ("svbtv", 1, "enl", enl) ]
    in
    List.iter
      (fun (id, head, box, b) ->
        let k = Known.answer known exp ~head ~box ~dout in
        List.iter
          (judge ~what:("table1 " ^ id) ~known:k ~net:heads.(head) ~din:b ~dout)
          (Option.value (Hashtbl.find_opt tbl id) ~default:[]))
      cases;
    List.length cases
  in
  { lanes = 1; run_block; check }

(* ------------------------------------------------------------------ *)
(* reuse-stream                                                         *)
(* ------------------------------------------------------------------ *)

type query = {
  qid : string;
  svudc : bool;  (** else svbtv *)
  head : int;  (** the verified network f *)
  target : int;  (** the network the query is about (f or f') *)
  box : string;
  dout : Box.t;
  artifact : Cv_artifacts.Artifacts.t;
}

(* The three D_out strata. [loose] is Table I's D_out, which Prop 3 or
   Prop 1 settles in one step. [tight] sits 0.005 outside head 0's
   one-shot symbolic-interval reach on D_in: the reach over any
   enlargement crosses it, so the cheap propositions fail and a later
   route (Δ-cover, differential, full) does the work, though the exact
   range is far inside. [unsafe] is star-set reach on D_in plus 0.05 —
   provable on D_in, violated on the far box [x4]. *)
let strata (exp : Pipeline.experiment) =
  let h0 = exp.Pipeline.heads.(0) and din = exp.Pipeline.din in
  let sym = Cv_domains.Analyzer.output_box Cv_domains.Analyzer.Symint h0 din in
  let star = Cv_domains.Analyzer.output_box Cv_domains.Analyzer.Star h0 din in
  [ ("loose", exp.Pipeline.dout, [ "half"; "enl" ]);
    ("tight", Box.expand 0.005 sym, [ "half"; "enl" ]);
    ("unsafe", Box.expand 0.05 star, [ "x4" ]) ]

let reuse ~seed =
  let exp = Pipeline.build () in
  let known = Known.load exp in
  let heads = exp.Pipeline.heads in
  let din = exp.Pipeline.din in
  let pairs = Array.length heads - 1 in
  let queries =
    List.concat_map
      (fun (stratum, dout, boxes) ->
        List.concat_map
          (fun head ->
            let prop = Cv_verify.Property.make ~din ~dout in
            let o = Strategy.solve_original ~config:config1 heads.(head) prop in
            if not o.Strategy.proved then
              failwith
                (Printf.sprintf "reuse-stream: head %d not proved on %s D_out"
                   head stratum);
            List.concat_map
              (fun box ->
                List.map
                  (fun svudc ->
                    { qid =
                        Printf.sprintf "%s-h%d-%s-%s"
                          (if svudc then "svudc" else "svbtv")
                          head stratum box;
                      svudc;
                      head;
                      target = (if svudc then head else head + 1);
                      box;
                      dout;
                      artifact = o.Strategy.artifact })
                  [ true; false ])
              boxes)
          (List.init pairs Fun.id))
      (strata exp)
  in
  let order = Array.of_list queries in
  Cv_util.Rng.shuffle (Cv_util.Rng.create seed) order;
  let tbl, record = recorder () in
  let run_block () =
    let u = ref [] and b = ref [] and routes = ref [] and fails = ref 0 in
    Array.iter
      (fun q ->
        let new_din = List.assoc q.box known.Known.box_table in
        let report, t =
          timed (fun () ->
              if q.svudc then
                span "bench.core.solve_svudc" (fun () ->
                    Strategy.solve_svudc ~config:config1
                      (Problem.svudc ~net:heads.(q.head) ~artifact:q.artifact
                         ~new_din))
              else
                span "bench.core.solve_svbtv" (fun () ->
                    Strategy.solve_svbtv ~config:config1
                      (Problem.svbtv ~old_net:heads.(q.head)
                         ~new_net:heads.(q.target) ~artifact:q.artifact ~new_din)))
        in
        let o = outcome_of_report report in
        record q.qid o;
        fails := !fails + failed o;
        routes := routes_of report @ !routes;
        if q.svudc then u := t :: !u else b := t :: !b)
      order;
    { samples = [ ("work", !u @ !b); ("svudc", !u); ("svbtv", !b) ];
      units = Array.length order;
      busy = List.fold_left ( +. ) 0. (!u @ !b);
      attempted = Array.length order;
      failed = !fails;
      routes = !routes;
      job_seconds = 0. }
  in
  let check () =
    Array.iter
      (fun q ->
        let k = Known.answer known exp ~head:q.target ~box:q.box ~dout:q.dout in
        List.iter
          (judge ~what:("reuse " ^ q.qid) ~known:k ~net:heads.(q.target)
             ~din:(List.assoc q.box known.Known.box_table)
             ~dout:q.dout)
          (Option.value (Hashtbl.find_opt tbl q.qid) ~default:[]))
      order;
    Array.length order
  in
  { lanes = 1; run_block; check }

(* ------------------------------------------------------------------ *)
(* batch-mixed                                                          *)
(* ------------------------------------------------------------------ *)

type bprop = {
  bid : string;
  net : Cv_nn.Network.t;
  bdout : Box.t;
  witness : float array option;  (** carried for the violated ones *)
}

let batch_nets = 3

let batch_safe = 10

(* One worker domain. On the 2-vCPU development host two workers
   roughly doubled the throughput, but the p90 and throughput spread
   about twice as far between runs; the harness accounts per lane, so a
   larger [batch_jobs] needs no other change. *)
let batch_jobs = 1

let batch ~seed =
  let rng = Cv_util.Rng.create seed in
  let din = Box.uniform 32 ~lo:(-1.) ~hi:1. in
  let props =
    List.concat
      (List.init batch_nets (fun n ->
           let net =
             Cv_nn.Network.random ~rng ~dims:[ 32; 256; 256; 256; 1 ]
               ~act:Cv_nn.Activation.Relu ()
           in
           let chain = Cv_cert.Emit.chain_boxes net din in
           let reach = chain.(Array.length chain - 1) in
           (* Violated properties cut D_out at sampled output quantiles;
              the best sample is the carried witness. *)
           let xs = List.init 64 (fun _ -> Box.sample rng din) in
           let ys =
             List.sort compare
               (List.map (fun x -> (Cv_nn.Network.eval net x).(0)) xs)
           in
           let top =
             List.fold_left
               (fun (bx, by) x ->
                 let y = (Cv_nn.Network.eval net x).(0) in
                 if y > by then (x, y) else (bx, by))
               (List.hd xs, neg_infinity) xs
           in
           let cut q = List.nth ys (q * List.length ys / 4) in
           let safe =
             List.init batch_safe (fun i ->
                 { bid = Printf.sprintf "n%dq%02d" n i;
                   net;
                   bdout = Box.expand (0.05 +. (0.01 *. float_of_int i)) reach;
                   witness = None })
           in
           let unsafe =
             List.mapi
               (fun j q ->
                 { bid = Printf.sprintf "n%du%d" n j;
                   net;
                   bdout =
                     Box.of_bounds
                       [| Interval.lo (Box.get reach 0) -. 1. |]
                       [| cut q |];
                   witness = Some (fst top) })
               [ 2; 3 ]
           in
           safe @ unsafe))
  in
  let order = Array.of_list props in
  Cv_util.Rng.shuffle rng order;
  let jobs =
    Array.to_list
      (Array.map
         (fun p ->
           { Cv_core.Batch.id = p.bid;
             spec =
               Cv_core.Batch.Verify
                 { net = p.net;
                   prop = Cv_verify.Property.make ~din ~dout:p.bdout;
                   exact = false;
                   artifact_out = None };
             timeout = None })
         order)
  in
  let lanes = min batch_jobs (Domain.recommended_domain_count ()) in
  let tbl, record = recorder () in
  let run_block () =
    (* A fresh cache per manifest: each net's first query misses and
       builds, the rest hit. *)
    let config =
      { Cv_core.Batch.default_config with
        Cv_core.Batch.jobs = lanes;
        cache = Some (Cv_artifacts.Cache.create ());
        strategy = config1 }
    in
    let t =
      span "bench.batch.run" (fun () -> Cv_core.Batch.run ~config jobs)
    in
    let fails = ref 0 and secs = ref [] and routes = ref [] in
    List.iter
      (fun (r : Cv_core.Batch.job_result) ->
        let o =
          match r.Cv_core.Batch.verdict with
          | Cv_core.Batch.Safe -> O_safe
          | Cv_core.Batch.Unsafe -> O_unsafe [||]
          | v -> O_failed (Cv_core.Batch.verdict_name v)
        in
        record r.Cv_core.Batch.job_id o;
        fails := !fails + failed o;
        secs := r.Cv_core.Batch.seconds :: !secs;
        routes := Option.to_list r.Cv_core.Batch.decisive @ !routes)
      t.Cv_core.Batch.results;
    { samples = [ ("work", !secs) ];
      units = List.length jobs;
      busy = t.Cv_core.Batch.wall_seconds;
      attempted = List.length jobs;
      failed = !fails;
      routes = !routes;
      job_seconds = List.fold_left ( +. ) 0. !secs }
  in
  let check () =
    Array.iter
      (fun p ->
        let what = "batch " ^ p.bid in
        let known =
          match p.witness with
          | Some x ->
            check_witness ~what p.net ~din ~dout:p.bdout x;
            Known.Unsafe
          | None -> (
            match
              Cv_cert.Emit.safe_cert ~mode:"verify" ~solver:"perfbench"
                ~fingerprint:(Cv_artifacts.Artifacts.fingerprint p.net)
                p.net ~din ~dout:p.bdout
            with
            | Some c when Cv_cert.Check.check c = Cv_cert.Check.Valid ->
              Known.Safe
            | _ -> failwith (what ^ ": no certificate for a safe property"))
        in
        List.iter
          (function
            | O_safe when known = Known.Unsafe ->
              contradiction "%s: reported safe, carried witness refutes it" what
            | O_unsafe _ when known = Known.Safe ->
              contradiction "%s: reported unsafe, certificate proves it" what
            | _ -> ())
          (Option.value (Hashtbl.find_opt tbl p.bid) ~default:[]))
      order;
    Array.length order
  in
  { lanes; run_block; check }

(* ------------------------------------------------------------------ *)
(* serve-drive                                                          *)
(* ------------------------------------------------------------------ *)

let serve_traces = 16

let serve_frames = 150

let serve_burst = 8

let serve ~seed =
  let exp = Pipeline.build () in
  let head = exp.Pipeline.heads.(0) in
  let prop = Pipeline.property exp in
  let original = Strategy.solve_original ~config:config1 head prop in
  if not original.Strategy.proved then
    failwith "serve-drive: original property not proved";
  let artifact = original.Strategy.artifact in
  (* Render the camera traces once; the timed loop replays them. Several
     short drives per block, each from its own sub-seed, keep one
     seed's luck with OOD rounds from setting the whole run. *)
  let render k =
    let stream =
      Cv_vehicle.Stream.create ~ramp:0.002
        ~rng:(Cv_util.Rng.create ((seed * serve_traces) + k))
        ~track:exp.Pipeline.track ~perception:exp.Pipeline.perception
        ~steps:serve_frames ()
    in
    let rec bursts acc cur =
      let flush () = if cur = [] then acc else List.rev cur :: acc in
      match Cv_vehicle.Stream.next stream with
      | None -> List.rev (flush ())
      | Some v ->
        if List.length cur = serve_burst then bursts (flush ()) [ v ]
        else bursts acc (v :: cur)
    in
    bursts [] []
  in
  let traces = List.init serve_traces render in
  let boxes = ref [] in
  let drive trace =
    let inner = Cv_serve.Source.of_bursts trace in
    let last_poll = ref (now ()) in
    let source () =
      let p = inner () in
      (match p with Cv_serve.Source.Burst _ -> last_poll := now () | _ -> ());
      p
    in
    let lat = ref [] and fails = ref 0 and job_s = ref 0. in
    let on_round (r : Cv_serve.Serve.round) =
      lat := (now () -. !last_poll) :: !lat;
      job_s := !job_s +. r.Cv_serve.Serve.seconds;
      if
        not
          (r.Cv_serve.Serve.committed
          && r.Cv_serve.Serve.verdict = Cv_core.Batch.Safe)
      then incr fails
    in
    let config =
      { Cv_serve.Serve.default_config with
        Cv_serve.Serve.strategy = config1;
        cache = Some (Cv_artifacts.Cache.create ());
        on_round }
    in
    let t, wall =
      timed (fun () ->
          span "bench.serve.run" (fun () ->
              Cv_serve.Serve.run ~config ~net:head ~artifact ~source ()))
    in
    if not (List.exists (Box.equal ~tol:0. t.Cv_serve.Serve.box) !boxes) then
      boxes := t.Cv_serve.Serve.box :: !boxes;
    { samples = [ ("work", !lat) ];
      units = t.Cv_serve.Serve.consumed;
      busy = wall;
      attempted = t.Cv_serve.Serve.round_count;
      failed = !fails;
      routes = [];
      job_seconds = !job_s }
  in
  let run_block () =
    let bs = List.map drive traces in
    { samples = [ ("work", List.concat_map (fun b -> List.assoc "work" b.samples) bs) ];
      units = List.fold_left (fun a b -> a + b.units) 0 bs;
      busy = List.fold_left (fun a b -> a +. b.busy) 0. bs;
      attempted = List.fold_left (fun a b -> a + b.attempted) 0 bs;
      failed = List.fold_left (fun a b -> a + b.failed) 0 bs;
      routes = [];
      job_seconds = List.fold_left (fun a b -> a +. b.job_seconds) 0. bs }
  in
  (* Committed boxes only grow (each commit joins the new events into
     the box), so certifying every drive's final box re-proves every box
     it committed on the way. *)
  let check () =
    List.iter
      (fun box ->
        if not (Box.subset exp.Pipeline.din box) then
          contradiction "serve: committed box does not contain D_in";
        match
          Cv_cert.Emit.safe_cert ~mode:"svudc" ~solver:"perfbench"
            ~fingerprint:(Cv_artifacts.Artifacts.fingerprint head)
            head ~din:box ~dout:prop.Cv_verify.Property.dout
        with
        | Some c when Cv_cert.Check.check c = Cv_cert.Check.Valid -> ()
        | _ -> contradiction "serve: committed box could not be re-proved")
      !boxes;
    List.length !boxes
  in
  { lanes = 1; run_block; check }

let all =
  [ { name = "table1-exact";
      op = "exact solve of head 0 over D_in";
      units_name = "exact solves";
      setup = table1 };
    { name = "reuse-stream";
      op = "one SVuDC or SVbTV query";
      units_name = "reuse queries";
      setup = reuse };
    { name = "batch-mixed";
      op = "one batch job";
      units_name = "batch jobs";
      setup = batch };
    { name = "serve-drive";
      op = "poll of the triggering burst to on_round";
      units_name = "frames";
      setup = serve } ]
