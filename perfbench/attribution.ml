(* Attribution of a traced block's time to the library layers, measured
   from outside the library.

   Two sources are combined. Spans — the library's own
   ([strategy.*], [containment.check], [verify_graceful*]) and the
   benchmark's spans around the public calls it makes ([bench.core.*],
   [bench.batch.run], [bench.serve.run]) — give each span-level layer
   its self time: duration minus the time its child spans cover. The
   cumulative [Cv_util.Metrics] timers give the layers without spans:
   [lp.seconds], [milp.seconds] (which contains its LPs),
   [domains.<kind>.seconds] and the [kernel.*] timers (which run inside
   the domains). Timer time necessarily ran inside some span's self
   time, so it is carved out of the innermost plausible span layer:
   solver time from [verify] first, then [core], [batch], [serve];
   domain and kernel time from [core] first, then [verify], [batch],
   [serve]; last from time outside every span.

   The denominator is the block's wall time times its lanes (worker
   domains), so on [batch-mixed] a share is busy-seconds over
   wall × jobs. Whatever no layer claims — time outside spans, spans
   of unknown names, idle lanes — is reported as [unattributed], so
   the layer shares sum to one.

   Layers with no public boundary reachable from outside on these
   workloads stay inside their caller's self time and read zero:
   [lipschitz] (inside [core] attempts), [artifacts] (cache lookups
   inside [core] attempts and batch jobs) and [monitor] (inside
   [serve]). Inside [serve], batch-round time not covered by strategy
   spans is moved from [serve] to [batch]. *)

let layers =
  [ "linalg"; "domains"; "lp"; "milp"; "verify"; "lipschitz"; "core";
    "artifacts"; "batch"; "monitor"; "serve" ]

let starts_with prefix s =
  String.length s >= String.length prefix
  && String.sub s 0 (String.length prefix) = prefix

let layer_of_span name =
  if name = "bench.serve.run" then "serve"
  else if name = "bench.batch.run" then "batch"
  else if starts_with "bench.core." name || starts_with "strategy." name then
    "core"
  else if name = "containment.check" || starts_with "verify_graceful" name then
    "verify"
  else "unknown"

type t = {
  seconds : (string, float) Hashtbl.t;  (** layer -> self seconds *)
  route_self : (string, float) Hashtbl.t;  (** strategy.attempt by route *)
  mutable containment_self : float;
  mutable lane_seconds : float;  (** the denominator *)
  mutable uncarved : float;  (** timer time no pool could hold *)
  mutable spans : int;
}

let create () =
  { seconds = Hashtbl.create 16;
    route_self = Hashtbl.create 16;
    containment_self = 0.;
    lane_seconds = 0.;
    uncarved = 0.;
    spans = 0 }

let add tbl k v =
  Hashtbl.replace tbl k (v +. Option.value (Hashtbl.find_opt tbl k) ~default:0.)

let get tbl k = Option.value (Hashtbl.find_opt tbl k) ~default:0.

module Json = Cv_util.Json

let children j =
  match Json.member_opt "children" j with
  | Some c -> Json.to_list c
  | None -> []

let dur j = Json.to_float (Json.member "dur_s" j)

let attr j k =
  match Json.member_opt "attrs" j with
  | Some a -> (
    match Json.member_opt k a with Some v -> Some (Json.to_str v) | None -> None)
  | None -> None

(* [add_block t ~trace ~timers ~wall ~lanes ~job_seconds] attributes one
   traced block. [trace] is {!Cv_util.Trace.to_json}, [timers] the
   block's {!Cv_util.Metrics.timers} snapshot. *)
let add_block t ~trace ~timers ~wall ~lanes ~job_seconds =
  let d = wall *. float_of_int lanes in
  let pool = Hashtbl.create 8 in
  let covered = ref 0. and strategy_in_serve = ref 0. in
  let rec walk parent j =
    let name = Json.to_str (Json.member "name" j) in
    let kids = children j in
    let self = dur j -. List.fold_left (fun a c -> a +. dur c) 0. kids in
    t.spans <- t.spans + 1;
    add pool (layer_of_span name) self;
    covered := !covered +. self;
    if name = "strategy.attempt" then
      add t.route_self (Option.value (attr j "name") ~default:"?") self;
    if name = "containment.check" then
      t.containment_self <- t.containment_self +. self;
    if parent = "bench.serve.run" && starts_with "strategy." name then
      strategy_in_serve := !strategy_in_serve +. dur j;
    List.iter (walk name) kids
  in
  List.iter (walk "") (Json.to_list (Json.member "trace" trace));
  add pool "outside" (Float.max 0. (d -. !covered));
  (* Serve rounds run as batch jobs: their time outside strategy spans
     is batch-layer time. *)
  (if Hashtbl.mem pool "serve" then
     let b =
       Float.min (get pool "serve")
         (Float.max 0. (job_seconds -. !strategy_in_serve))
     in
     add pool "serve" (-.b);
     add pool "batch" b);
  let timer name = Option.value (List.assoc_opt name timers) ~default:0. in
  let sum_timers pred =
    List.fold_left (fun a (n, s) -> if pred n then a +. s else a) 0. timers
  in
  let linalg =
    timer "kernel.gemm.seconds" +. timer "kernel.gemv.seconds"
    +. timer "kernel.posneg.seconds"
  in
  let domains =
    sum_timers (fun n ->
        starts_with "domains." n && Filename.check_suffix n ".seconds")
  in
  let lp = timer "lp.seconds" and milp = timer "milp.seconds" in
  let carve layer need order =
    let left = ref need in
    List.iter
      (fun p ->
        let take = Float.min !left (get pool p) in
        if take > 0. then begin
          add pool p (-.take);
          left := !left -. take
        end)
      order;
    add t.seconds layer (need -. !left);
    t.uncarved <- t.uncarved +. !left
  in
  let solver_order = [ "verify"; "core"; "batch"; "serve"; "unknown"; "outside" ] in
  let domain_order = [ "core"; "verify"; "batch"; "serve"; "unknown"; "outside" ] in
  carve "lp" lp solver_order;
  carve "milp" (Float.max 0. (milp -. lp)) solver_order;
  carve "linalg" linalg domain_order;
  carve "domains" (Float.max 0. (domains -. linalg)) domain_order;
  Hashtbl.iter
    (fun l s -> if List.mem l layers then add t.seconds l s)
    pool;
  t.lane_seconds <- t.lane_seconds +. d

(* [shares t] is every layer's share of the lane seconds plus the
   [unattributed] remainder; they sum to one. *)
let shares t =
  let d = Float.max 1e-12 t.lane_seconds in
  let named = List.map (fun l -> (l, get t.seconds l /. d)) layers in
  let claimed = List.fold_left (fun a (_, s) -> a +. s) 0. named in
  named @ [ ("unattributed", 1. -. claimed) ]
