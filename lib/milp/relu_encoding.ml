(** Big-M MILP encoding of piecewise-linear network slices.

    This is the paper's "exact method" (cf. Equation (2)): the
    nonlinearity of each unstable ReLU is encoded with one binary
    variable and big-M constraints, with the big-M values taken from a
    sound symbolic-interval pre-analysis (tight Ms keep branch-and-bound
    shallow).

    The encoding is {e compact}: stable neurons introduce no variables at
    all — every neuron's value is carried as an affine expression over
    the base variables (network inputs plus the post-activation variables
    of unstable neurons), so the LP relaxations solved inside
    branch-and-bound stay small and contain only inequality rows (whose
    slacks give the simplex a ready-made feasible basis). Branch-and-bound
    is additionally seeded with the best concrete network value found by
    sampling, which prunes early, and branches on the phase whose
    relaxation gap most moves the queried output ({!chooser}).

    Only piecewise-linear activations (ReLU, Leaky ReLU, Identity) are
    supported; sigmoid/tanh slices must go through the abstract domains
    instead. *)

(** Affine expression over LP variables. *)
type expr = { terms : (float * Cv_lp.Lp.var) list; const : float }

type unstable = {
  layer : int;
  row : int;
  y : Cv_lp.Lp.var;  (** post-activation *)
  delta : Cv_lp.Lp.var;  (** phase binary *)
}

type encoding = {
  problem : Milp.problem;
  net : Cv_nn.Network.t;
  input_box : Cv_interval.Box.t;
  input_vars : Cv_lp.Lp.var array;
  outputs : expr array;  (** affine expressions of the output neurons *)
  pre_bounds : Cv_interval.Box.t array;  (** per-layer pre-activation bounds *)
  unstable : unstable array;  (** one per binary, in creation order *)
  seeds : (float * Cv_linalg.Vec.t) array array;
      (** per output: [(max_seed, input); (min_seed, input)] from sampling *)
}

let check_encodable net =
  Array.iter
    (fun (l : Cv_nn.Layer.t) ->
      if not (Cv_nn.Activation.is_piecewise_linear l.Cv_nn.Layer.act) then
        invalid_arg
          ("Relu_encoding: activation not piecewise linear: "
          ^ Cv_nn.Activation.to_string l.Cv_nn.Layer.act))
    (Cv_nn.Network.layers net)

(* Combine [Σ_j w_j · expr_j + bias] into one expression, merging
   duplicate variables. *)
let affine_combine row exprs bias =
  let acc = Hashtbl.create 16 in
  let const = ref bias in
  Array.iteri
    (fun j w ->
      if w <> 0. then begin
        let e = exprs.(j) in
        const := !const +. (w *. e.const);
        List.iter
          (fun (c, v) ->
            let cur = try Hashtbl.find acc v with Not_found -> 0. in
            Hashtbl.replace acc v (cur +. (w *. c)))
          e.terms
      end)
    row;
  let terms = Hashtbl.fold (fun v c l -> if c = 0. then l else (c, v) :: l) acc [] in
  { terms; const = !const }

let scale_expr s e =
  { terms = List.map (fun (c, v) -> (s *. c, v)) e.terms; const = s *. e.const }


(* y (op) e + shift  ⟺  y − e.terms (op) e.const + shift *)
let constrain problem ~y_terms op e ~shift =
  Milp.add_constraint problem
    (y_terms @ List.map (fun (c, v) -> (-.c, v)) e.terms)
    op (e.const +. shift)

(* Negative-side slope of a piecewise-linear activation. *)
let neg_slope (layer : Cv_nn.Layer.t) =
  match layer.Cv_nn.Layer.act with
  | Cv_nn.Activation.Relu -> 0.
  | Cv_nn.Activation.Leaky_relu s -> s
  | Cv_nn.Activation.Identity -> 1.
  | _ -> assert false

(* The slope of a neuron that is linear over its pre-activation bounds
   [l, u]: 1 when active (or the activation is linear), the
   negative-side slope [s] when inactive; [None] when it is unstable. *)
let stable_slope s l u =
  if s = 1. || l >= 0. then Some 1. else if u <= 0. then Some s else None

(* Encode y = act(z) for an unstable piecewise-linear neuron:
   z ∈ [l, u] with l < 0 < u, slope = negative-side slope. Returns the
   post-activation and phase variables. *)
let encode_unstable problem ~slope ~z_expr ~l ~u ~name =
  let open Cv_lp.Lp in
  let y = Milp.add_var problem ~lo:(slope *. l) ~hi:u ~name () in
  let delta = Milp.add_binary problem ~name:(name ^ "_d") () in
  (* y ≥ z  and  y ≥ slope·z *)
  constrain problem ~y_terms:[ (1., y) ] Ge z_expr ~shift:0.;
  constrain problem ~y_terms:[ (1., y) ] Ge (scale_expr slope z_expr) ~shift:0.;
  (* y ≤ z − (1−slope)·l·(1−δ) *)
  let oml = (1. -. slope) *. l in
  constrain problem
    ~y_terms:[ (1., y); (-.oml, delta) ]
    Le z_expr ~shift:(-.oml);
  (* y ≤ slope·z + (1−slope)·u·δ *)
  let omu = (1. -. slope) *. u in
  constrain problem
    ~y_terms:[ (1., y); (-.omu, delta) ]
    Le (scale_expr slope z_expr) ~shift:0.;
  (y, delta)

(** [encode ~net ~input_box] builds the exact MILP of the slice [net]
    over [input_box]. *)
let encode ~net ~input_box =
  check_encodable net;
  let problem = Milp.create () in
  let in_dim = Cv_nn.Network.in_dim net in
  if Cv_interval.Box.dim input_box <> in_dim then
    invalid_arg "Relu_encoding.encode: input box dimension";
  let input_vars =
    Array.init in_dim (fun j ->
        let iv = Cv_interval.Box.get input_box j in
        Milp.add_var problem
          ~lo:(Cv_interval.Interval.lo iv)
          ~hi:(Cv_interval.Interval.hi iv)
          ~name:(Printf.sprintf "in%d" j) ())
  in
  let n = Cv_nn.Network.num_layers net in
  let pre_bounds = Array.make n [||] in
  let unstable = ref [] in
  let sym = ref (Cv_domains.Symint.of_box input_box) in
  let exprs =
    ref (Array.map (fun v -> { terms = [ (1., v) ]; const = 0. }) input_vars)
  in
  for i = 0 to n - 1 do
    let layer = Cv_nn.Network.layer net i in
    let w = layer.Cv_nn.Layer.weights and bias = layer.Cv_nn.Layer.bias in
    let pre_sym = Cv_domains.Symint.affine w bias !sym in
    let pre_box = Cv_domains.Symint.to_box pre_sym in
    pre_bounds.(i) <- pre_box;
    let slope = neg_slope layer in
    let out_dim = Cv_nn.Layer.out_dim layer in
    exprs :=
      Array.init out_dim (fun r ->
          let z_expr = affine_combine (Cv_linalg.Mat.row w r) !exprs bias.(r) in
          let iv = Cv_interval.Box.get pre_box r in
          let l = Cv_interval.Interval.lo iv
          and u = Cv_interval.Interval.hi iv in
          match stable_slope slope l u with
          | Some 1. -> z_expr
          | Some d -> scale_expr d z_expr
          | None ->
            let y, delta =
              encode_unstable problem ~slope ~z_expr ~l ~u
                ~name:(Printf.sprintf "y%d_%d" i r)
            in
            unstable := { layer = i; row = r; y; delta } :: !unstable;
            { terms = [ (1., y) ]; const = 0. });
    sym := Cv_domains.Symint.apply_layer layer !sym
  done;
  (* Concrete sampling seeds: best/worst observed value per output. *)
  let rng = Cv_util.Rng.create 61 in
  let out_dim = Cv_nn.Network.out_dim net in
  let seeds =
    let center = Cv_interval.Box.center input_box in
    let points =
      center :: List.init 32 (fun _ -> Cv_interval.Box.sample rng input_box)
    in
    let best = Array.map (fun _ -> ((Float.neg_infinity, [||]), (Float.infinity, [||])))
        (Array.make out_dim ()) in
    List.iter
      (fun x ->
        let y = Cv_nn.Network.eval net x in
        Array.iteri
          (fun o yo ->
            let (hi, hx), (lo, lx) = best.(o) in
            let hi' = if yo > hi then (yo, x) else (hi, hx) in
            let lo' = if yo < lo then (yo, x) else (lo, lx) in
            best.(o) <- (hi', lo'))
          y)
      points;
    Array.map (fun ((hi, hx), (lo, lx)) -> [| (hi, hx); (lo, lx) |]) best
  in
  { problem;
    net;
    input_box;
    input_vars;
    outputs = !exprs;
    pre_bounds;
    unstable = Array.of_list (List.rev !unstable);
    seeds }

(* Per layer and neuron, the slope the encoding implies from
   pre-activation to post-activation: 1 for stable-active (and linear)
   neurons, the leaky slope for stable-negative ones, and the chord
   (u − s·l)/(u − l) of the relaxation for unstable ones. *)
let implied_slopes enc =
  Array.mapi
    (fun i layer ->
      let s = neg_slope layer in
      Array.init (Cv_interval.Box.dim enc.pre_bounds.(i)) (fun r ->
          let iv = Cv_interval.Box.get enc.pre_bounds.(i) r in
          let l = Cv_interval.Interval.lo iv
          and u = Cv_interval.Interval.hi iv in
          match stable_slope s l u with
          | Some d -> d
          | None -> (u -. (s *. l)) /. (u -. l)))
    (Cv_nn.Network.layers enc.net)

(* |∂ output / ∂ y| for every unstable neuron's post-activation [y]:
   one backward pass from e_output through each layer's Wᵀ, scaled by
   the implied slopes. *)
let sensitivities enc slopes ~output =
  let n = Array.length slopes in
  let grads = Array.make n [||] in
  let g =
    ref
      (Array.init (Array.length slopes.(n - 1)) (fun k ->
           if k = output then 1. else 0.))
  in
  for i = n - 1 downto 0 do
    grads.(i) <- !g;
    if i > 0 then begin
      let w = (Cv_nn.Network.layer enc.net i).Cv_nn.Layer.weights in
      let scaled = Array.mapi (fun r gr -> slopes.(i).(r) *. gr) !g in
      g := Cv_linalg.Mat.matvec (Cv_linalg.Mat.transpose w) scaled
    end
  done;
  Array.map (fun u -> Float.abs grads.(u.layer).(u.row)) enc.unstable

(* The BaBSR branching rule (Bunel et al., JMLR 2020) for one queried
   output. At a node's LP point, a forward pass through the weights
   recovers each pre-activation z (unstable neurons pass their LP
   post-activation on, stable ones their implied linear value); each
   unstable neuron with a fractional phase then scores gap × sens, where
   gap = y − act(z) is how far the relaxation lifts the post-activation
   above the true activation and sens its {!sensitivities} weight.
   Picks the highest score's binary; [None] (so most-fractional) when
   no score is positive. Everything it captures is immutable, as
   parallel dives share it. *)
let chooser enc ~output =
  let slopes = implied_slopes enc in
  let sens = sensitivities enc slopes ~output in
  (* index.(i).(r): position of neuron r of layer i in [enc.unstable],
     or -1 when it is stable *)
  let index = Array.map (fun sl -> Array.make (Array.length sl) (-1)) slopes in
  Array.iteri (fun k u -> index.(u.layer).(u.row) <- k) enc.unstable;
  fun (values : float array) ->
    let best = ref None and best_score = ref 0. in
    let a = ref (Array.map (fun v -> values.(v)) enc.input_vars) in
    Array.iteri
      (fun i (layer : Cv_nn.Layer.t) ->
        let s = neg_slope layer in
        let z =
          Cv_linalg.Mat.matvec_add layer.Cv_nn.Layer.weights !a
            layer.Cv_nn.Layer.bias
        in
        a :=
          Array.mapi
            (fun r zr ->
              let k = index.(i).(r) in
              if k < 0 then slopes.(i).(r) *. zr
              else begin
                let u = enc.unstable.(k) in
                let y = values.(u.y) in
                if Milp.fractional values.(u.delta) then begin
                  let score = (y -. Float.max zr (s *. zr)) *. sens.(k) in
                  if score > !best_score then begin
                    best_score := score;
                    best := Some u.delta
                  end
                end;
                y
              end)
            z)
      (Cv_nn.Network.layers enc.net);
    !best

(* Lift a Milp result over [terms] back to the expression [e] (adds the
   constant) and substitute seeded values when branch-and-bound never
   produced an explicit incumbent. *)
let lift_result e ~seed_input ~in_dim = function
  | Milp.Optimal s when Array.length s.Milp.values = 0 ->
    (* Branch-and-bound closed on the sampling seed: the optimum equals
       the seed value and the seed input is its witness. *)
    if Array.length seed_input = in_dim then
      Milp.Optimal
        { Milp.objective = s.Milp.objective +. e.const;
          values = Array.copy seed_input }
    else Milp.Optimal { s with Milp.objective = s.Milp.objective +. e.const }
  | Milp.Optimal s ->
    Milp.Optimal { s with Milp.objective = s.Milp.objective +. e.const }
  | Milp.Cutoff_reached s ->
    Milp.Cutoff_reached { s with Milp.objective = s.Milp.objective +. e.const }
  | Milp.Below_cutoff { bound; leaves } ->
    Milp.Below_cutoff { bound = bound +. e.const; leaves }
  | Milp.Infeasible -> Milp.Infeasible
  | Milp.Unbounded -> Milp.Unbounded
  | Milp.Timeout { bound; incumbent } ->
    Milp.Timeout
      { bound = bound +. e.const;
        incumbent =
          Option.map
            (fun s -> { s with Milp.objective = s.Milp.objective +. e.const })
            incumbent }

(** [max_output ?deadline ?cutoff ?domains enc ~output] maximises one
    output neuron over the encoded set (exactly — the sampling seed only
    accelerates pruning). [domains > 1] parallelises the
    branch-and-bound dives. *)
let max_output ?deadline ?cutoff ?domains ?checkpoint ?resume enc ~output =
  let e = enc.outputs.(output) in
  let seed_val, seed_input = enc.seeds.(output).(0) in
  let cutoff' = Option.map (fun t -> t -. e.const) cutoff in
  (* The seed is a feasible value, so the optimum is ≥ seed: prune with
     it via the cutoff mechanism only when it does not weaken the
     caller's query semantics (no user cutoff → use seed as a pruning
     floor through known_feasible). *)
  Milp.maximize ?deadline ?cutoff:cutoff' ?domains ?checkpoint ?resume
    ~branch:(chooser enc ~output) ~known_feasible:(seed_val -. e.const)
    enc.problem e.terms
  |> lift_result e ~seed_input ~in_dim:(Array.length enc.input_vars)

(** [min_output ?deadline ?cutoff ?domains enc ~output] minimises one
    output neuron. *)
let min_output ?deadline ?cutoff ?domains ?checkpoint ?resume enc ~output =
  let e = enc.outputs.(output) in
  let seed_val, seed_input = enc.seeds.(output).(1) in
  let cutoff' = Option.map (fun t -> t -. e.const) cutoff in
  Milp.minimize ?deadline ?cutoff:cutoff' ?domains ?checkpoint ?resume
    ~branch:(chooser enc ~output) ~known_feasible:(seed_val -. e.const)
    enc.problem e.terms
  |> lift_result e ~seed_input ~in_dim:(Array.length enc.input_vars)

(** [stats enc] is [(vars, constraints, binaries)] for reports. *)
let stats enc =
  ( Milp.var_count enc.problem,
    Milp.constraint_count enc.problem,
    Milp.binary_count enc.problem )
