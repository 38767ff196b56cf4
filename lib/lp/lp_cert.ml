module Ival = Cv_cert.Ival
module Cert = Cv_cert.Cert

type extraction = { ex_witness : Cert.lp_witness; ex_value : float }

let snapshot_system ~xu st =
  {
    Cert.lp_a = Simplex.system_rows st;
    lp_b = Simplex.system_rhs st;
    lp_c = Simplex.system_obj st;
    lp_xu = Array.copy xu;
  }

(* Solve the dense m×m system [M z = rhs] by Gaussian elimination with
   partial pivoting; [None] when a pivot degenerates. Destroys [mat]. *)
let solve_dense mat rhs =
  let m = Array.length rhs in
  let z = Array.copy rhs in
  let ok = ref true in
  (try
     for k = 0 to m - 1 do
       let piv = ref k in
       for i = k + 1 to m - 1 do
         if Float.abs mat.(i).(k) > Float.abs mat.(!piv).(k) then piv := i
       done;
       if Float.abs mat.(!piv).(k) < 1e-12 then raise Exit;
       if !piv <> k then begin
         let t = mat.(k) in
         mat.(k) <- mat.(!piv);
         mat.(!piv) <- t;
         let t = z.(k) in
         z.(k) <- z.(!piv);
         z.(!piv) <- t
       end;
       for i = k + 1 to m - 1 do
         let f = mat.(i).(k) /. mat.(k).(k) in
         if f <> 0. then begin
           for j = k to m - 1 do
             mat.(i).(j) <- mat.(i).(j) -. (f *. mat.(k).(j))
           done;
           z.(i) <- z.(i) -. (f *. z.(k))
         end
       done
     done;
     for k = m - 1 downto 0 do
       let s = ref z.(k) in
       for j = k + 1 to m - 1 do
         s := !s -. (mat.(k).(j) *. z.(j))
       done;
       z.(k) <- !s /. mat.(k).(k)
     done
   with Exit -> ok := false);
  if !ok && Ival.all_finite z then Some z else None

(* Outward validation — the same obligations {!Cv_cert.Check} replays. *)
let column_dot_up (a : float array array) j z =
  let s = ref 0. in
  Array.iteri
    (fun i row ->
      if row.(j) <> 0. then s := Ival.up (!s +. Ival.up (row.(j) *. z.(i))))
    a;
  !s

(* Neumaier–Shcherbina compensation, mirroring {!Cv_cert.Check}: a
   basic column binds its dual inequality exactly, so outward rounding
   leaves a few-ulp residual of the wrong sign; charge it its worst
   case over the column's [0, xu] range instead of rejecting. *)
let valid_farkas (sys : Cert.lp_system) z =
  let n = Array.length sys.lp_c in
  let s = ref 0. in
  let ok = ref (Ival.all_finite z) in
  for j = 0 to n - 1 do
    let cu = column_dot_up sys.lp_a j z in
    if cu > 0. then
      if sys.lp_xu.(j) < Float.infinity then
        s := Ival.up (!s +. Ival.up (cu *. sys.lp_xu.(j)))
      else ok := false
  done;
  !ok && Ival.dot_dn sys.lp_b z > !s

(* The compensated weak-duality bound — exactly the value the checker
   recomputes, so using it as the claim target is replay-stable. *)
let dual_bound (sys : Cert.lp_system) z =
  let n = Array.length sys.lp_c in
  let ok = ref (Ival.all_finite z) in
  let bound = ref (Ival.dot_dn sys.lp_b z) in
  for j = 0 to n - 1 do
    let r_lo = Ival.dn (sys.lp_c.(j) -. column_dot_up sys.lp_a j z) in
    if r_lo < 0. then
      if sys.lp_xu.(j) < Float.infinity then
        bound := Ival.dn (!bound +. Ival.dn (r_lo *. sys.lp_xu.(j)))
      else ok := false
  done;
  if !ok && Float.is_finite !bound then Some !bound else None

(* Multipliers off a final basis: solve [B_origᵀ z = cost_B] in the
   {e original} row space. Because the working rows are
   [S·(pristine rows)] with [S = diag (row_signs)] diagonal,
   [B̂ᵀy = c_B] in the sign-fixed space is exactly
   [B_origᵀ(Sy) = c_B] — so this solve directly yields the witness
   [Sy], no sign fix-up needed. Artificial column [n + k] is
   [row_signs.(r)·e_r] in original space, [r] its creation row. *)
let multipliers st cost_b =
  let m = Simplex.num_rows st in
  let n = Simplex.num_cols st in
  let rows = Simplex.system_rows st in
  let signs = Simplex.row_signs st in
  let art = Simplex.artificial_rows st in
  let basis = Simplex.final_basis st in
  match
    Array.map
      (fun j ->
        if j < n then Array.init m (fun i -> rows.(i).(j))
        else begin
          let k = j - n in
          if k >= Array.length art || art.(k) < 0 then raise Exit;
          let v = Array.make m 0. in
          v.(art.(k)) <- signs.(art.(k));
          v
        end)
      basis
  with
  | mat -> solve_dense mat (Array.map cost_b basis)
  | exception Exit -> None

let certify_state ~xu st =
  let sys = snapshot_system ~xu st in
  (* Fresh cold solve on the snapshot: its final basis is the one the
     multipliers are read from, so the live state's warm-path history is
     irrelevant. *)
  let fresh =
    Simplex.make ~a:sys.Cert.lp_a ~b:sys.lp_b ~c:sys.lp_c
      ~basis0:(Simplex.initial_basis st)
  in
  match Simplex.resolve fresh with
  | Simplex.Infeasible ->
    let n = Simplex.num_cols fresh in
    Option.bind (multipliers fresh (fun j -> if j >= n then 1. else 0.))
      (fun z ->
        if valid_farkas sys z then
          Some { ex_witness = Cert.Farkas z; ex_value = Float.infinity }
        else None)
  | Simplex.Optimal _ ->
    let n = Simplex.num_cols fresh in
    Option.bind
      (multipliers fresh (fun j -> if j < n then sys.Cert.lp_c.(j) else 0.))
      (fun z ->
        Option.map
          (fun b -> { ex_witness = Cert.Dual_bound z; ex_value = b })
          (dual_bound sys z))
  | Simplex.Unbounded | Simplex.Stalled -> None

let lp_certificate ~mode ~solver ~fingerprint compiled =
  let st = Lp.compiled_state compiled in
  let xu = Lp.compiled_uppers compiled in
  Option.bind (certify_state ~xu st) (fun ex ->
      let sys = snapshot_system ~xu st in
      let claim, proof =
        match ex.ex_witness with
        | Cert.Farkas z -> (Cert.Lp_infeasible sys, Cert.P_farkas z)
        | Cert.Dual_bound z ->
          ( Cert.Lp_min_at_least (sys, ex.ex_value),
            Cert.P_dual { dual = z; bound = ex.ex_value } )
      in
      let cert = { Cert.mode; solver; fingerprint; claim; proof } in
      match Cv_cert.Check.check cert with
      | Cv_cert.Check.Valid -> Some cert
      | Invalid _ -> None)
