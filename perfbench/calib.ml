(* Host-speed calibration.

   On a shared host the CPU's speed drifts by tens of percent between
   and within runs: a fixed loop measured 0.17–0.31 s over one minute,
   with CPU time tracking wall time. Repeating more work inside one run
   does not average that out, so every run also measures the host: a
   fixed, allocation-free 256×256 matrix–vector kernel (benchmark code,
   not library code, so no change to the library moves it) is timed
   from a SIGALRM handler every [period] seconds for the whole run.
   Time metrics are reported scaled by [nominal / mean kernel time]:
   the time the run would have taken with the kernel at its nominal
   speed. The raw values and the kernel mean are kept in the run
   record. On the development host this cut the six-seed quartile
   spread of reuse-stream's median latency from 0.25 to 0.09. *)

let period = 0.05

(* Kernel time at the development host's usual speed, seconds. *)
let nominal = 0.00075

let n = 256

let m = Array.init (n * n) (fun i -> float_of_int (i mod 17) *. 0.01)

let v = Array.init n (fun i -> float_of_int (i mod 5))

let out = Array.make n 0.

let kernel () =
  let t0 = Cv_util.Clock.now () in
  for _ = 1 to 8 do
    for i = 0 to n - 1 do
      let s = ref 0. in
      let base = i * n in
      for j = 0 to n - 1 do
        s := !s +. (Array.unsafe_get m (base + j) *. Array.unsafe_get v j)
      done;
      Array.unsafe_set out i !s
    done
  done;
  Cv_util.Clock.now () -. t0

let samples = ref []

let start () =
  samples := [];
  Sys.set_signal Sys.sigalrm
    (Sys.Signal_handle (fun _ -> samples := kernel () :: !samples));
  ignore
    (Unix.setitimer Unix.ITIMER_REAL
       { Unix.it_interval = period; it_value = period })

let stop () =
  ignore
    (Unix.setitimer Unix.ITIMER_REAL { Unix.it_interval = 0.; it_value = 0. });
  Sys.set_signal Sys.sigalrm Sys.Signal_default

let mean () =
  match !samples with
  | [] -> nominal
  | s -> List.fold_left ( +. ) 0. s /. float_of_int (List.length s)

(* [scale ()] turns measured seconds into nominal seconds. *)
let scale () = nominal /. mean ()
