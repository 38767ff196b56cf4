(* Shared types and helpers of the benchmark harness. *)

module Box = Cv_interval.Box
module Interval = Cv_interval.Interval
module Json = Cv_util.Json

let now = Cv_util.Clock.now

(* A known-answer contradiction: a verdict the system under test
   reported that an independent check refutes. It aborts the run. *)
exception Contradiction of string

let contradiction fmt = Printf.ksprintf (fun s -> raise (Contradiction s)) fmt

(* What one block — the workload's fixed repeating unit of work —
   reports back to the measuring loop. *)
type block = {
  samples : (string * float list) list;
      (** latency series, seconds, keyed by series name *)
  units : int;  (** work units for throughput (solves/queries/jobs/frames) *)
  busy : float;  (** seconds the units took, the throughput denominator *)
  attempted : int;
  failed : int;  (** crashed, timed out, Inconclusive or Exhausted *)
  routes : string list;  (** decisive strategy route per decided query *)
  job_seconds : float;
      (** summed batch-job seconds (batch rounds included), for the
          batch-layer attribution *)
}

(* One workload instance: its set-up is done, blocks can be run. *)
type instance = {
  lanes : int;  (** concurrent worker domains *)
  run_block : unit -> block;
  check : unit -> int;
      (** known-answer pass over every verdict recorded so far; returns
          the number of distinct answers checked, raises
          [Contradiction] *)
}

type workload = {
  name : string;
  op : string;  (** what one latency sample times *)
  units_name : string;  (** what throughput counts *)
  setup : seed:int -> instance;
}

(* ---- statistics ---- *)

let percentile p xs =
  match xs with
  | [] -> Float.nan
  | _ -> Cv_util.Stats.percentile p (Array.of_list xs)

let median xs = percentile 50. xs

(* ---- boxes ---- *)

(* [lerp_box a b t] moves every bound of [a] a fraction [t] of the way
   to the matching bound of [b]. *)
let lerp_box a b t =
  Box.make
    (Array.init (Box.dim a) (fun i ->
         let x = Box.get a i and y = Box.get b i in
         let mix u v = u +. (t *. (v -. u)) in
         Interval.make
           (mix (Interval.lo x) (Interval.lo y))
           (mix (Interval.hi x) (Interval.hi y))))

(* [scale_box k b] scales every side of [b] by [k] about its center. *)
let scale_box k b =
  Box.make
    (Array.map
       (fun iv ->
         let lo = Interval.lo iv and hi = Interval.hi iv in
         let c = 0.5 *. (lo +. hi) and r = 0.5 *. (hi -. lo) in
         Interval.make (c -. (k *. r)) (c +. (k *. r)))
       b)

(* [outside dout y] is true when the output vector [y] leaves [dout]
   by more than [tol] on some coordinate. *)
let outside ?(tol = 1e-9) dout (y : Cv_linalg.Vec.t) =
  let out = ref false in
  Array.iteri
    (fun i v ->
      let iv = Box.get dout i in
      if v > Interval.hi iv +. tol || v < Interval.lo iv -. tol then out := true)
    y;
  !out

(* [check_witness ~what net ~din ~dout x] confirms, by concrete
   evaluation, that [x] lies in [din] and maps outside [dout]. *)
let check_witness ~what net ~din ~dout x =
  if not (Box.mem_tol ~tol:1e-9 x din) then
    contradiction "%s: witness lies outside the input box" what;
  if not (outside dout (Cv_nn.Network.eval net x)) then
    contradiction "%s: witness output lies inside D_out" what

(* Every strategy call runs on one domain, so that batch jobs × strategy
   domains stays within nproc. *)
let config1 =
  { Cv_core.Strategy.default_config with Cv_core.Strategy.domains = Some 1 }
