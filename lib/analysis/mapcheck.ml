module Rat = Pmi_numeric.Rat
module Portset = Pmi_portmap.Portset
module Mapping = Pmi_portmap.Mapping
module Experiment = Pmi_portmap.Experiment
module Throughput = Pmi_portmap.Throughput
module Oracle = Pmi_portmap.Oracle
module Lp_model = Pmi_portmap.Lp_model
module Scheme = Pmi_isa.Scheme
module Catalog = Pmi_isa.Catalog
module Profile = Pmi_machine.Profile
module Diag = Pmi_diag.Diag

type severity = Diag.severity =
  | Error
  | Warning

type diag = Diag.t = {
  rule : string;
  severity : severity;
  subject : string;
  message : string;
}

let errors = Diag.errors
let diag = Diag.make

(* [pmi_analysis] sits below [pmi_measure], so the harness tolerance
   (Harness.Compare.default_epsilon = 0.02) is mirrored here as an exact
   rational rather than imported. *)
let epsilon = Rat.of_ints 1 50

(* [value] lies outside [expected ± ε·length]: the harness' [cpi_equal]
   tolerance, so no value the CEGIS loop would accept is flagged. *)
let excludes ~epsilon ~length expected value =
  let slack = Rat.mul epsilon (Rat.of_int length) in
  Rat.compare value (Rat.sub expected slack) < 0
  || Rat.compare value (Rat.add expected slack) > 0

(* ------------------------------------------------------------------ *)
(* Dominance analysis                                                  *)
(* ------------------------------------------------------------------ *)

let swap_port p q ports =
  let has_p = Portset.mem p ports and has_q = Portset.mem q ports in
  if has_p = has_q then ports
  else if has_p then Portset.add q (Portset.diff ports (Portset.singleton p))
  else Portset.add p (Portset.diff ports (Portset.singleton q))

let interchangeable_ports m =
  let num_ports = Mapping.num_ports m in
  let schemes = Mapping.schemes m in
  let invariant p q =
    List.for_all
      (fun s ->
         let usage = Mapping.usage m s in
         let swapped =
           List.map (fun (ports, n) -> (swap_port p q ports, n)) usage
         in
         Mapping.equal_usage
           (Mapping.normalize_usage usage)
           (Mapping.normalize_usage swapped))
      schemes
  in
  let out = ref [] in
  for p = 0 to num_ports - 1 do
    for q = p + 1 to num_ports - 1 do
      if invariant p q then out := (p, q) :: !out
    done
  done;
  List.rev !out

let dominated_ports m =
  let num_ports = Mapping.num_ports m in
  let used = Mapping.ports_used m in
  let schemes = Mapping.schemes m in
  (* dominates q p: every port set containing p also contains q. *)
  let dominates q p =
    List.for_all
      (fun s ->
         List.for_all
           (fun (ports, _) -> (not (Portset.mem p ports)) || Portset.mem q ports)
           (Mapping.usage m s))
      schemes
  in
  let out = ref [] in
  for p = 0 to num_ports - 1 do
    for q = 0 to num_ports - 1 do
      if p <> q && Portset.mem p used && Portset.mem q used
         && dominates q p
         && not (dominates p q)
      then out := (p, q) :: !out
    done
  done;
  List.rev !out

(* ------------------------------------------------------------------ *)
(* Auditor                                                             *)
(* ------------------------------------------------------------------ *)

let pair_list_to_string pairs =
  let shown = List.filteri (fun i _ -> i < 8) pairs in
  let rendered =
    List.map (fun (p, q) -> Printf.sprintf "(%d,%d)" p q) shown
  in
  let suffix = if List.length pairs > 8 then ", …" else "" in
  String.concat ", " rendered ^ suffix

(* Experiments exercising the mapping: [samples] singletons plus
   (1,2)-weighted pairs of neighbouring schemes, capped so auditing the
   2,980-scheme ground truth stays cheap.  The first [lp_samples] of them
   are also solved as the §2.2 LP. *)
let samples = 12
let lp_samples = 3

let sample_experiments m =
  let schemes = Array.of_list (Mapping.schemes m) in
  let n = Array.length schemes in
  let singles =
    List.init (min n samples) (fun i -> Experiment.singleton schemes.(i))
  in
  let pairs =
    if n < 2 then []
    else
      List.init
        (min (n - 1) (samples / 2))
        (fun i ->
           Experiment.of_counts [ (schemes.(i), 1); (schemes.(i + 1), 2) ])
  in
  singles @ pairs

let audit_mapping ?(against = []) ~r_max ~subject m =
  let out = ref [] in
  let push d = out := d :: !out in
  if Mapping.size m > 0 then begin
    let oracle = Oracle.create m in
    let sampled = sample_experiments m in
    (* The sparse kernel the search uses vs the naive bottleneck formula. *)
    List.iter
      (fun e ->
         let sparse = Oracle.inverse_bounded ~r_max oracle e in
         let naive = Throughput.inverse_bounded ~r_max m e in
         if not (Rat.equal sparse naive) then
           push
             (diag "oracle-mismatch" Error subject
                "experiment %s: the sparse oracle gives %s but the naive \
                 bottleneck formula gives %s"
                (Experiment.to_string e) (Rat.to_string sparse)
                (Rat.to_string naive)))
      sampled;
    (* Exact-rational cross-check against the §2.2 linear program. *)
    List.iteri
      (fun i e ->
         if i < lp_samples then
           match (Lp_model.inverse m e, Throughput.inverse m e) with
           | lp, exact ->
             if not (Rat.equal lp exact) then
               push
                 (diag "lp-mismatch" Error subject
                    "experiment %s: LP optimum %s but bottleneck formula \
                     gives %s"
                    (Experiment.to_string e) (Rat.to_string lp)
                    (Rat.to_string exact))
           | exception Failure msg ->
             push
               (diag "lp-infeasible" Error subject
                  "experiment %s: LP solve failed: %s"
                  (Experiment.to_string e) msg)
           | exception Throughput.Unsupported s ->
             push
               (diag "lp-infeasible" Error subject
                  "experiment %s: scheme %s unsupported"
                  (Experiment.to_string e) (Scheme.name s)))
      sampled;
    (* Counter-consistency: replay recorded observations. *)
    List.iter
      (fun (e, observed) ->
         match Oracle.inverse_bounded ~r_max oracle e with
         | expected ->
           if excludes ~epsilon ~length:(Experiment.length e) expected observed
           then
             push
               (diag "counter-inconsistent" Error subject
                  "observation %s = %s cycles contradicts the mapping: it \
                   predicts %s ± ε·|e|"
                  (Experiment.to_string e) (Rat.to_string observed)
                  (Rat.to_string expected))
         | exception Throughput.Unsupported s ->
           push
             (diag "observation-unmapped-scheme" Error subject
                "observation %s mentions scheme %s, which the mapping does \
                 not map"
                (Experiment.to_string e) (Scheme.name s)))
      against;
    (* Schemes that can never bottleneck: their solo throughput is at or
       below the frontend rate, so pure experiments never constrain them. *)
    if r_max > 0 then
      List.iter
        (fun s ->
           let usage = Mapping.usage m s in
           if usage <> [] then begin
             let tp = Throughput.of_masses usage in
             if Rat.compare tp (Rat.of_ints 1 r_max) <= 0 then
               push
                 (diag "frontend-masked" Warning
                    (Printf.sprintf "%s, scheme %s" subject (Scheme.name s))
                    "usage %s never bottlenecks: solo throughput %s ≤ \
                     frontend 1/%d, so the row is under-determined by \
                     throughput measurements"
                    (Mapping.usage_to_string usage) (Rat.to_string tp) r_max)
           end)
        (Mapping.schemes m);
    (* Dominance analysis. *)
    (match interchangeable_ports m with
     | [] -> ()
     | pairs ->
       push
         (diag "interchangeable-ports" Warning subject
            "port pairs %s are interchangeable (swapping them leaves every \
             usage invariant); any inferred mapping is only unique up to \
             these swaps" (pair_list_to_string pairs)));
    (match dominated_ports m with
     | [] -> ()
     | pairs ->
       push
         (diag "dominated-port" Warning subject
            "dominated port pairs %s: the first port's µops always admit \
             the second, so blocking the second alone can never isolate \
             the first" (pair_list_to_string pairs)))
  end;
  List.rev !out

let audit_profile cat (p : Profile.t) =
  let subject = Printf.sprintf "ground truth (%s)" p.name in
  let gt = Pmi_machine.Ground_truth.mapping_for p cat in
  let arity =
    if Mapping.num_ports gt <> p.num_ports then
      [ diag "arity-drift" Error subject
          "mapping declares %d ports but profile %s has %d"
          (Mapping.num_ports gt) p.name p.num_ports ]
    else []
  in
  arity @ audit_mapping ~r_max:p.r_max ~subject gt

let builtin ?catalog () =
  let cat = match catalog with Some c -> c | None -> Catalog.zen_plus () in
  List.concat_map (audit_profile cat) Profile.all
