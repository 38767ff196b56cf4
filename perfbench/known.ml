(* Known answers for the vehicle heads, computed outside the paths the
   benchmark times: exact output ranges per (head, input box) from
   [Cv_verify.Range.exact_range], and one concrete high-output input per
   head on the far box. They live in [perfbench/expected.json], keyed by
   network fingerprint, so a changed generator fails loudly instead of
   comparing against stale answers. Regenerate with
   [perfbench.exe --gen-expected] (about three minutes). *)

open Common

let path = Filename.concat "perfbench" "expected.json"

let schema = "contiver-perfbench-expected-v1"

(* The input boxes the vehicle workloads query. [half] and [enl] lie
   between D_in and the monitored enlargement of Table I; [x4] is D_in
   scaled four times, far enough out that the unsafe stratum's D_out
   is violated. *)
let boxes (exp : Cv_vehicle.Pipeline.experiment) =
  let din = exp.Cv_vehicle.Pipeline.din
  and enl = exp.Cv_vehicle.Pipeline.enlarged_din in
  [ ("din", din); ("half", lerp_box din enl 0.5); ("enl", enl);
    ("x4", scale_box 4. din) ]

let exact_boxes = [ "din"; "half"; "enl" ]

type head = {
  fingerprint : string;
  exact : (string * Box.t) list;  (** box name -> exact output range *)
  witness_x4 : float array;  (** argmax-output sample on [x4] *)
}

type t = { heads : head array; box_table : (string * Box.t) list }

type answer = Safe | Unsafe

(* ---- generation ---- *)

let generate () =
  let exp = Cv_vehicle.Pipeline.build () in
  let bs = boxes exp in
  let rng = Cv_util.Rng.create 2024 in
  let heads =
    Array.mapi
      (fun i net ->
        let exact =
          List.map
            (fun name ->
              let t0 = now () in
              let r = Cv_verify.Range.exact_range net ~din:(List.assoc name bs) in
              Printf.eprintf "head %d %s: %s (%.1fs)\n%!" i name
                (Box.to_string r.Cv_verify.Range.range)
                (now () -. t0);
              (name, r.Cv_verify.Range.range))
            exact_boxes
        in
        let x4 = List.assoc "x4" bs in
        let best = ref (Box.center x4) in
        let best_y = ref (Cv_nn.Network.eval net !best).(0) in
        for _ = 1 to 4000 do
          let x = Box.sample rng x4 in
          let y = (Cv_nn.Network.eval net x).(0) in
          if y > !best_y then begin
            best := x;
            best_y := y
          end
        done;
        { fingerprint = Cv_artifacts.Artifacts.fingerprint net;
          exact;
          witness_x4 = !best })
      exp.Cv_vehicle.Pipeline.heads
  in
  let json =
    Json.Obj
      [ ("schema", Json.Str schema);
        ( "boxes",
          Json.Obj (List.map (fun (n, b) -> (n, Box.to_json b)) bs) );
        ( "heads",
          Json.List
            (Array.to_list
               (Array.mapi
                  (fun i h ->
                    Json.Obj
                      [ ("index", Json.of_int i);
                        ("fingerprint", Json.Str h.fingerprint);
                        ( "exact",
                          Json.Obj
                            (List.map (fun (n, b) -> (n, Box.to_json b)) h.exact)
                        );
                        ("witness_x4", Json.of_float_array h.witness_x4) ])
                  heads)) ) ]
  in
  let oc = open_out path in
  output_string oc (Json.to_string json);
  output_char oc '\n';
  close_out oc;
  Printf.eprintf "wrote %s\n%!" path

(* ---- loading ---- *)

let read_file p =
  let ic = open_in_bin p in
  Fun.protect
    ~finally:(fun () -> close_in ic)
    (fun () -> really_input_string ic (in_channel_length ic))

(* [load exp] reads the expected file and fails unless it was computed
   for exactly these networks and boxes. *)
let load (exp : Cv_vehicle.Pipeline.experiment) =
  let j = Json.parse (read_file path) in
  if Json.to_str (Json.member "schema" j) <> schema then
    failwith (path ^ ": unexpected schema");
  let bs = boxes exp in
  let stored = Json.member "boxes" j in
  List.iter
    (fun (n, b) ->
      let s = Box.of_json (Json.member n stored) in
      if not (Box.equal ~tol:1e-12 s b) then
        failwith
          (Printf.sprintf
             "%s: box %s differs from the generator's; regenerate it" path n))
    bs;
  let heads =
    Array.of_list
      (List.map
         (fun h ->
           { fingerprint = Json.to_str (Json.member "fingerprint" h);
             exact =
               List.map
                 (fun n -> (n, Box.of_json (Json.member n (Json.member "exact" h))))
                 exact_boxes;
             witness_x4 = Json.float_array (Json.member "witness_x4" h) })
         (Json.to_list (Json.member "heads" j)))
  in
  let nets = exp.Cv_vehicle.Pipeline.heads in
  if Array.length heads <> Array.length nets then
    failwith (path ^ ": head count differs from the generator's");
  Array.iteri
    (fun i net ->
      if Cv_artifacts.Artifacts.fingerprint net <> heads.(i).fingerprint then
        failwith
          (Printf.sprintf
             "%s: head %d fingerprint differs from the generator's; \
              regenerate it"
             path i))
    nets;
  { heads; box_table = bs }

(* [answer t exp ~head ~box ~dout] is the known verdict of
   [head(box) ⊆ dout]. Safe/unsafe must be clear by a margin; a D_out
   that cuts through the exact range within 1e-6 has no trustworthy
   answer and fails the run. *)
let answer t (exp : Cv_vehicle.Pipeline.experiment) ~head ~box ~dout =
  let h = t.heads.(head) in
  match List.assoc_opt box h.exact with
  | Some range ->
    let margin = 1e-6 in
    let lo = Interval.lo (Box.get range 0) and hi = Interval.hi (Box.get range 0) in
    let dlo = Interval.lo (Box.get dout 0) and dhi = Interval.hi (Box.get dout 0) in
    if lo >= dlo +. margin && hi <= dhi -. margin then Safe
    else if lo < dlo -. margin || hi > dhi +. margin then Unsafe
    else
      failwith
        (Printf.sprintf "no clear known answer for head %d on %s" head box)
  | None ->
    let net = exp.Cv_vehicle.Pipeline.heads.(head) in
    let x = h.witness_x4 in
    if outside dout (Cv_nn.Network.eval net x) then begin
      check_witness
        ~what:(Printf.sprintf "stored witness of head %d" head)
        net ~din:(List.assoc box t.box_table) ~dout x;
      Unsafe
    end
    else
      failwith
        (Printf.sprintf "no known answer for head %d on %s" head box)
