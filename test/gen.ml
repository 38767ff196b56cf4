(* Shared test fixtures and QCheck generators (library [cv_testgen]).
   One home for the random-network helpers and the adversarial float
   entry generators that used to be copy-pasted across test modules. *)

(* ------------------------------------------------------------------ *)
(* Deterministic random networks                                       *)
(* ------------------------------------------------------------------ *)

let net_of seed dims =
  Cv_nn.Network.random ~rng:(Cv_util.Rng.create seed) ~dims
    ~act:Cv_nn.Activation.Relu ()

(* The paper's Fig. 2 network: y = relu(2 h1 + 2 h2 - h3) over three
   ReLUs, exact maximum 6 on [-1, 1]^2 (at x = (-1, 1)). *)
let fig2_net () =
  Cv_nn.Network.of_list
    [ Cv_nn.Layer.make
        (Cv_linalg.Mat.of_rows [ [| 1.; -2. |]; [| -2.; 1. |]; [| 1.; -1. |] ])
        [| 0.; 0.; 0. |] Cv_nn.Activation.Relu;
      Cv_nn.Layer.make
        (Cv_linalg.Mat.of_rows [ [| 2.; 2.; -1. |] ])
        [| 0. |] Cv_nn.Activation.Relu ]

(* The 3→6→5→1 ReLU net used by the query/batch suites. *)
let net3 seed = net_of seed [ 3; 6; 5; 1 ]

(* A provable property: the symbolic-interval over-approximation of the
   reach set, widened — every engine must prove it. *)
let safe_prop ?(margin = 0.1) net din =
  let out =
    Cv_domains.Analyzer.output_box Cv_domains.Analyzer.Symint net din
  in
  Cv_verify.Property.make ~din ~dout:(Cv_interval.Box.expand margin out)

(* A falsifiable property: the exact output range shrunk around its
   center (width divided by [shrink]) misses some outputs. Single-output
   networks only. *)
let unsafe_prop ?(shrink = 8.) net din =
  let r = (Cv_verify.Range.exact_range net ~din).Cv_verify.Range.range in
  let lo = (Cv_interval.Box.lower r).(0)
  and hi = (Cv_interval.Box.upper r).(0) in
  let c = (lo +. hi) /. 2. and w = (hi -. lo) /. shrink in
  Cv_verify.Property.make ~din
    ~dout:(Cv_interval.Box.of_bounds [| c -. w |] [| c +. w |])

(* ------------------------------------------------------------------ *)
(* Kernel-hostile float generators                                     *)
(* ------------------------------------------------------------------ *)

(* Shapes off the block boundaries, including degenerate ones. *)
let shape_gen = QCheck.Gen.oneofl [ 0; 1; 2; 3; 5; 7; 8; 9; 17; 33; 64; 65; 70 ]

(* Entries with exact zeros, signed zeros and subnormals mixed into
   ordinary magnitudes. *)
let entry_gen =
  QCheck.Gen.frequency
    [ (6, QCheck.Gen.float_range (-10.) 10.);
      (1, QCheck.Gen.return 0.);
      (1, QCheck.Gen.return (-0.));
      (1, QCheck.Gen.return 4.9e-324);
      (1, QCheck.Gen.return (-2.2250738585072014e-308)) ]

let mat_gen rows cols =
  QCheck.Gen.map
    (fun l -> Cv_linalg.Mat.of_array ~rows ~cols (Array.of_list l))
    (QCheck.Gen.list_size (QCheck.Gen.return (rows * cols)) entry_gen)

let vec_gen n =
  QCheck.Gen.map Array.of_list
    (QCheck.Gen.list_size (QCheck.Gen.return n) entry_gen)

(* ------------------------------------------------------------------ *)
(* Sparse big-M LPs                                                    *)
(* ------------------------------------------------------------------ *)

(* The LP relaxation of a seeded two-hidden-layer ReLU net's big-M
   encoding (cf. Cv_milp.Relu_encoding): inputs in [-1, 1], each hidden
   neuron reads two or three units of the previous layer, and every
   unstable neuron gets a post-activation [y ∈ [0, u]], a relaxed
   binary [d ∈ [0, 1]] and the rows [y ≥ z], [y ≤ z − l(1 − d)],
   [y ≤ u·d]. Rows touch at most five of ~100 columns, the
   mostly-zero shape of the verifier's MILP relaxations. The objective
   maximises a seeded combination of the last layer. Equal seeds give
   identical models, so a compiled instance can be compared against
   fresh lowerings. *)
type bigm = {
  lp : Cv_lp.Lp.problem;
  binaries : Cv_lp.Lp.var array;  (** the relaxed [d] of each unstable neuron *)
}

let bigm_lp seed =
  let rng = Cv_util.Rng.create seed in
  let lp = Cv_lp.Lp.create () in
  let inputs =
    Array.init 4 (fun _ -> (Cv_lp.Lp.add_var lp ~lo:(-1.) ~hi:1. (), -1., 1.))
  in
  let binaries = ref [] in
  let layer prev width =
    Array.init width (fun _ ->
        let fan = 2 + Cv_util.Rng.int rng 2 in
        let reads =
          List.init fan (fun _ ->
              (Cv_util.Rng.float rng ~lo:(-1.) ~hi:1.,
               prev.(Cv_util.Rng.int rng (Array.length prev))))
        in
        let b = Cv_util.Rng.float rng ~lo:(-0.2) ~hi:0.2 in
        (* Interval bounds of z = Σ w·v + b over the readers' boxes. *)
        let l, u =
          List.fold_left
            (fun (l, u) (w, (_, vl, vu)) ->
              ( l +. Float.min (w *. vl) (w *. vu),
                u +. Float.max (w *. vl) (w *. vu) ))
            (b, b) reads
        in
        let zterms = List.map (fun (w, (v, _, _)) -> (-.w, v)) reads in
        if l >= 0. then begin
          let y = Cv_lp.Lp.add_var lp ~lo:0. ~hi:u () in
          Cv_lp.Lp.add_constraint lp ((1., y) :: zterms) Cv_lp.Lp.Eq b;
          (y, 0., u)
        end
        else if u <= 0. then (Cv_lp.Lp.add_var lp ~lo:0. ~hi:0. (), 0., 0.)
        else begin
          let y = Cv_lp.Lp.add_var lp ~lo:0. ~hi:u () in
          let d = Cv_lp.Lp.add_var lp ~lo:0. ~hi:1. () in
          binaries := d :: !binaries;
          Cv_lp.Lp.add_constraint lp ((1., y) :: zterms) Cv_lp.Lp.Ge b;
          Cv_lp.Lp.add_constraint lp
            ((1., y) :: (-.l, d) :: zterms)
            Cv_lp.Lp.Le (b -. l);
          Cv_lp.Lp.add_constraint lp [ (1., y); (-.u, d) ] Cv_lp.Lp.Le 0.;
          (y, 0., u)
        end)
  in
  let h2 = layer (layer inputs 7) 6 in
  Cv_lp.Lp.set_objective lp ~maximize:true
    (Array.to_list
       (Array.map (fun (y, _, _) -> (Cv_util.Rng.float rng ~lo:(-1.) ~hi:1., y)) h2));
  { lp; binaries = Array.of_list (List.rev !binaries) }
