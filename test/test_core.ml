open Pmi_isa
open Pmi_portmap
open Pmi_core
module Rat = Pmi_numeric.Rat

let rat = Alcotest.testable Rat.pp Rat.equal

(* ------------------------------------------------------------------ *)
(* Uop_count (§3.1, §4.1.1)                                            *)
(* ------------------------------------------------------------------ *)

let zen = Catalog.zen_plus ()
let machine = Pmi_machine.Machine.create ~config:Pmi_machine.Machine.quiet_config zen
let harness = Pmi_measure.Harness.create machine

let first bucket = List.hd (Catalog.bucket zen bucket)

let test_memory_adjustment () =
  let check bucket expected =
    Alcotest.(check int) bucket expected
      (Uop_count.memory_uop_adjustment (first bucket))
  in
  check "blocking/alu" 0;
  check "regular/scalar-load" 1;   (* one ≤128-bit memory read *)
  check "regular/rmw" 1;           (* one read-written operand *)
  check "regular/ymm-load" 2;      (* 256-bit memory operand *)
  check "store/scalar" 1;          (* the paper's storing-mov correction *)
  check "blocking/load" 0;         (* loading movs excluded *)
  Alcotest.(check int) "lea excluded" 0
    (Uop_count.memory_uop_adjustment
       (List.find (fun s -> Scheme.is_lea s) (Catalog.bucket zen "blocking/alu")))

let test_postulated_uops () =
  let check bucket expected =
    Alcotest.(check int) bucket expected
      (Uop_count.postulated_uops harness (first bucket))
  in
  check "blocking/alu" 1;
  check "regular/scalar-load" 2;
  check "regular/ymm" 2;
  check "regular/ymm-load" 4;
  check "store/vec" 2

let test_uops_on_blocked_ports () =
  (* The §3.1 example: fma's u2 cannot evade the flooded port; with the
     Figure 2 mapping, 3 blocking muls measure 3 cycles alone and 4 with
     the fma. *)
  let vpslld = first "blocking/vec-shift" in
  let add = first "blocking/alu" in
  let imul = first "blocking/scalar-mul" in
  (* imul's µop lives on an ALU port: flooding all four ALU ports with adds
     must reveal one µop (the anomaly's phantom pressure adds another). *)
  let blocked = Experiment.replicate 16 add in
  let with_i = Experiment.add imul blocked in
  let uops =
    Uop_count.uops_on_blocked_ports harness ~blocked ~with_i ~port_set_size:4
  in
  Alcotest.(check bool) "imul leaves µops on the ALU cluster" true
    (Rat.compare uops Rat.one >= 0);
  (* A vector shift evades the ALU ports entirely. *)
  let with_shift = Experiment.add vpslld blocked in
  Alcotest.check rat "vpslld evades" Rat.zero
    (Uop_count.uops_on_blocked_ports harness ~blocked ~with_i:with_shift
       ~port_set_size:4)

let test_round_uops () =
  Alcotest.(check (option int)) "exact" (Some 2)
    (Uop_count.round_uops ~tolerance:0.1 (Rat.of_int 2));
  Alcotest.(check (option int)) "near" (Some 2)
    (Uop_count.round_uops ~tolerance:0.1 (Rat.of_ints 195 100));
  Alcotest.(check (option int)) "too far" None
    (Uop_count.round_uops ~tolerance:0.1 (Rat.of_ints 15 10));
  Alcotest.(check (option int)) "negative noise is zero" (Some 0)
    (Uop_count.round_uops ~tolerance:0.1 (Rat.of_ints (-2) 100))

(* ------------------------------------------------------------------ *)
(* Blocking: stage-1 classification (§4.1)                             *)
(* ------------------------------------------------------------------ *)

let noisy_machine = Pmi_machine.Machine.create zen
let noisy_harness = Pmi_measure.Harness.create noisy_machine

let test_classify_individual () =
  let classify bucket =
    Blocking.classify_individual noisy_harness (first bucket)
  in
  let check bucket expected = Alcotest.(check bool) bucket true (classify bucket = expected) in
  check "blocking/alu" (Blocking.Candidate 4);
  check "blocking/vec-int" (Blocking.Candidate 3);
  check "blocking/fp-add" (Blocking.Candidate 2);
  check "blocking/vec-shift" (Blocking.Candidate 1);
  check "blocking/scalar-mul" (Blocking.Candidate 1);
  check "blocking/vec-mul-hard" (Blocking.Candidate 1);
  check "excluded/zero-uop" Blocking.Zero_uop;
  check "regular/ymm" (Blocking.Multi_uop 2);
  check "microcoded" (Blocking.Multi_uop 8);
  (match classify "excluded/fp-slow" with
   | Blocking.Outside_model -> ()
   | Blocking.Hardwired | Blocking.Unreliable | Blocking.Zero_uop
   | Blocking.Candidate _ | Blocking.Multi_uop _ ->
     Alcotest.fail "divider should be outside the model");
  (match classify "excluded/mov64-imm" with
   | Blocking.Unreliable -> ()
   | Blocking.Hardwired | Blocking.Zero_uop | Blocking.Outside_model
   | Blocking.Candidate _ | Blocking.Multi_uop _ ->
     Alcotest.fail "mov64-imm should be unreliable");
  (match classify "excluded/high-byte" with
   | Blocking.Hardwired -> ()
   | Blocking.Unreliable | Blocking.Zero_uop | Blocking.Outside_model
   | Blocking.Candidate _ | Blocking.Multi_uop _ ->
     Alcotest.fail "high-byte operands cannot be measured dependency-free")

let test_additivity () =
  let vpslld = first "blocking/vec-shift" in
  let vroundps = first "blocking/fp-round" in
  let imul = first "blocking/scalar-mul" in
  let imul2 = List.nth (Catalog.bucket zen "blocking/scalar-mul") 1 in
  Alcotest.(check bool) "same class additive" true
    (Blocking.additive noisy_harness imul imul2);
  Alcotest.(check bool) "disjoint 1-port classes not additive" false
    (Blocking.additive noisy_harness vpslld vroundps);
  Alcotest.(check bool) "imul vs vpslld not additive" false
    (Blocking.additive noisy_harness imul vpslld)

(* Stage 2 decides additivity on ticks; the verdict is the one the [Rat]
   values give: unstable pairs are never additive, stable ones compare
   cycles(i, j) with cycles(i) + cycles(j) up to 2ε.  Half the cases put
   2ε exactly at the pair's measured gap (additive) or one tick below it
   (not additive). *)
let prop_additive_matches_rat =
  let pool =
    Array.of_list
      (List.concat_map
         (fun b -> List.filteri (fun i _ -> i < 6) (Catalog.bucket zen b))
         [ "blocking/alu"; "blocking/vec-logic"; "blocking/fp-add";
           "blocking/scalar-mul"; "blocking/vec-shift"; "unstable-pair/fma-rr";
           "unstable-pair/cmov-rr" ])
  in
  let gen =
    QCheck2.Gen.(
      let scheme = int_bound (Array.length pool - 1) in
      let epsilon =
        oneof
          [ map (fun e -> `Ticks e) (int_bound 600);
            oneofl [ `At_gap; `Below_gap ] ]
      in
      triple scheme scheme epsilon)
  in
  QCheck2.Test.make ~name:"tick pair verdict = Rat verdict" ~count:500 gen
    (fun (a, b, epsilon) ->
       let module H = Pmi_measure.Harness in
       let h = noisy_harness in
       let i = pool.(a) and j = pool.(b) in
       let sample = H.run h (Experiment.of_list [ i; j ]) in
       let ticks e = (H.run h (Experiment.singleton e)).H.ticks in
       let gap = abs (sample.H.ticks - (ticks i + ticks j)) in
       (* The pair's ε-bound in ticks is 2ε·precision. *)
       let bound, boundary =
         match epsilon with
         | `Ticks e -> (e, None)
         | `At_gap -> (gap, Some true)
         | `Below_gap -> (max 0 (gap - 1), Some (gap = 0))
       in
       let epsilon = Rat.of_ints bound (2 * H.precision) in
       let config = { Blocking.default_config with Blocking.epsilon } in
       let stable = sample.H.spread_cpi <= Blocking.spread_threshold in
       let expected =
         stable
         && H.Compare.cpi_equal ~epsilon ~length:2 (H.sample_cycles sample)
              (Rat.add
                 (H.cycles h (Experiment.singleton i))
                 (H.cycles h (Experiment.singleton j)))
       in
       let verdict = Blocking.additive ~config h i j in
       verdict = expected
       && match boundary with
       | Some v when stable -> verdict = v
       | _ -> true)

let test_filter_candidates_small () =
  (* A reduced catalog keeps the pairing stage fast while retaining the
     class structure, the unstable cmovs and the contradictory fmas. *)
  let small = Catalog.reduced ~per_bucket:4 () in
  let m = Pmi_machine.Machine.create small in
  let h = Pmi_measure.Harness.create m in
  let candidates =
    Array.to_list (Catalog.schemes small)
    |> List.filter_map (fun s ->
        match Blocking.classify_individual h s with
        | Blocking.Candidate n -> Some (s, n)
        | Blocking.Hardwired | Blocking.Unreliable | Blocking.Zero_uop
        | Blocking.Outside_model | Blocking.Multi_uop _ -> None)
  in
  let result = Blocking.filter_candidates h candidates in
  (* 13 classes as in Table 1. *)
  Alcotest.(check int) "13 classes" 13 (List.length result.Blocking.classes);
  (* cmov and friends are dropped as unstable, fma as contradictory. *)
  Alcotest.(check bool) "cmov dropped" true
    (List.exists (fun s -> Scheme.quirk s = Some Iclass.Pair_unstable)
       result.Blocking.unstable);
  Alcotest.(check bool) "fma dropped as contradictory" true
    (result.Blocking.contradictory <> []
     && List.for_all (fun s -> Scheme.quirk s = Some Iclass.Fma_lines)
          result.Blocking.contradictory);
  (* Port counts per class follow Table 1's column. *)
  let counts =
    List.map (fun c -> c.Blocking.port_count) result.Blocking.classes
    |> List.sort compare
  in
  Alcotest.(check (list int)) "port counts"
    [ 1; 1; 1; 1; 1; 2; 2; 2; 2; 2; 3; 4; 4 ] counts;
  (* Every class must be quirk-homogeneous enough that its members share
     ground-truth structure. *)
  List.iter
    (fun c ->
       let repr_usage =
         Pmi_machine.Ground_truth.usage_of_structure
           (Scheme.klass c.Blocking.representative).Iclass.structure
       in
       List.iter
         (fun s ->
            let u =
              Pmi_machine.Ground_truth.usage_of_structure
                (Scheme.klass s).Iclass.structure
            in
            Alcotest.(check bool)
              (Printf.sprintf "class of %s is homogeneous"
                 (Scheme.name c.Blocking.representative))
              true
              (Mapping.equal_usage u repr_usage))
         c.Blocking.members)
    result.Blocking.classes

(* The pairing stage measures every pair of a size group once and keeps
   none of them: after stage 1 has cached the singletons, it runs
   Σ n(n-1)/2 benchmarks over the size groups, reads each candidate's
   singleton from the cache once, and a later [run] of any pair misses. *)
let test_pairing_measures_once () =
  let module H = Pmi_measure.Harness in
  let small = Catalog.reduced ~per_bucket:2 () in
  let h = H.create (Pmi_machine.Machine.create small) in
  let candidates =
    Array.to_list (Catalog.schemes small)
    |> List.filter_map (fun s ->
        match Blocking.classify_individual h s with
        | Blocking.Candidate n -> Some (s, n)
        | Blocking.Hardwired | Blocking.Unreliable | Blocking.Zero_uop
        | Blocking.Outside_model | Blocking.Multi_uop _ -> None)
  in
  let groups =
    List.sort_uniq compare (List.map snd candidates)
    |> List.map (fun n -> List.filter (fun (_, m) -> m = n) candidates)
  in
  let rec pairs = function
    | [] -> []
    | (a, _) :: rest ->
      List.map (fun (b, _) -> Experiment.of_list [ a; b ]) rest @ pairs rest
  in
  let all_pairs = List.concat_map pairs groups in
  Alcotest.(check bool) "several size groups" true (List.length groups > 1);
  let benchmarks = H.benchmarks_run h and hits = H.cache_hits h in
  ignore (Blocking.filter_candidates h candidates);
  Alcotest.(check int) "one benchmark per pair"
    (List.fold_left
       (fun acc g -> let n = List.length g in acc + (n * (n - 1) / 2))
       0 groups)
    (H.benchmarks_run h - benchmarks);
  Alcotest.(check int) "one singleton read per candidate"
    (List.length candidates) (H.cache_hits h - hits);
  let misses = H.cache_misses h and hits = H.cache_hits h in
  List.iter (fun e -> ignore (H.run h e)) all_pairs;
  Alcotest.(check int) "no pair was cached" (List.length all_pairs)
    (H.cache_misses h - misses);
  Alcotest.(check int) "no hit" hits (H.cache_hits h)

(* ------------------------------------------------------------------ *)
(* CEGIS on toy architectures (§3.3, Figure 4)                         *)
(* ------------------------------------------------------------------ *)

let toy_catalog n =
  Catalog.of_list
    (List.init n (fun i ->
         (Printf.sprintf "i%c" (Char.chr (Char.code 'A' + i)),
          [ Operand.gpr 32 ], Iclass.plain (Iclass.Single Iclass.Alu))))

let cegis_config num_ports =
  { Cegis.default_config with
    Cegis.num_ports;
    r_max = num_ports + 1;
    max_experiment_size = 4 }

(* Infer with perfect measurements from a hidden mapping and check the
   result is throughput-equivalent to the truth on all small experiments. *)
let run_cegis ?(num_ports = 2) truth_usage =
  let catalog = toy_catalog (List.length truth_usage) in
  let truth = Mapping.create ~num_ports in
  List.iteri
    (fun i usage -> Mapping.set truth (Catalog.find catalog i) usage)
    truth_usage;
  let config = cegis_config num_ports in
  let measure e = Cegis.modeled_inverse config truth e in
  let specs =
    List.mapi
      (fun i usage ->
         let ports =
           List.fold_left (fun acc (p, _) -> acc + Portset.cardinal p) 0 usage
         in
         (Catalog.find catalog i, Encoding.Proper ports))
      truth_usage
  in
  (truth, config, Cegis.infer ~config ~measure ~specs ())

let check_equivalent config truth inferred schemes =
  let exception Different of Experiment.t in
  let scheme_list = schemes in
  match
    List.iter
      (fun size ->
         let rec enum acc remaining size =
           match (remaining, size) with
           | _, 0 ->
             let e = Experiment.of_counts acc in
             if not (Experiment.is_empty e) then begin
               let t1 = Cegis.modeled_inverse config truth e in
               let t2 = Cegis.modeled_inverse config inferred e in
               if not (Rat.equal t1 t2) then raise (Different e)
             end
           | [], _ -> ()
           | s :: rest, _ ->
             for c = 0 to size do
               enum (if c = 0 then acc else (s, c) :: acc) rest (size - c)
             done
         in
         ignore (enum [] scheme_list size))
      [ 1; 2; 3; 4 ]
  with
  | () -> ()
  | exception Different e ->
    Alcotest.failf "inferred mapping differs from truth on %s"
      (Experiment.to_string e)

let test_cegis_figure4 () =
  (* Two 1-port instructions sharing a port: Figure 4(b).  The paper's
     distinguishing experiment for the competing hypothesis (disjoint
     ports, Figure 4(a)) is [iA, iB]. *)
  let p0 = Portset.singleton 0 in
  let truth, config, outcome = run_cegis [ [ (p0, 1) ]; [ (p0, 1) ] ] in
  match outcome with
  | Cegis.Converged (m, stats) ->
    check_equivalent config truth m
      (List.map fst (Mapping.schemes m |> List.map (fun s -> (s, ()))));
    Alcotest.(check bool) "needed a distinguishing experiment" true
      (List.length stats.Cegis.observations > 2)
  | Cegis.No_consistent_mapping _ -> Alcotest.fail "unexpected UNSAT"
  | Cegis.Iteration_limit _ -> Alcotest.fail "iteration limit"

let test_cegis_disjoint () =
  let p0 = Portset.singleton 0 and p1 = Portset.singleton 1 in
  let truth, config, outcome = run_cegis [ [ (p0, 1) ]; [ (p1, 1) ] ] in
  match outcome with
  | Cegis.Converged (m, _) ->
    check_equivalent config truth m (Mapping.schemes m)
  | Cegis.No_consistent_mapping _ -> Alcotest.fail "unexpected UNSAT"
  | Cegis.Iteration_limit _ -> Alcotest.fail "iteration limit"

let test_cegis_three_instructions () =
  (* A 3-port universe with overlapping sets. *)
  let s01 = Portset.of_list [ 0; 1 ] in
  let s12 = Portset.of_list [ 1; 2 ] in
  let s2 = Portset.singleton 2 in
  let truth, config, outcome =
    run_cegis ~num_ports:3 [ [ (s01, 1) ]; [ (s12, 1) ]; [ (s2, 1) ] ]
  in
  match outcome with
  | Cegis.Converged (m, _) -> check_equivalent config truth m (Mapping.schemes m)
  | Cegis.No_consistent_mapping _ -> Alcotest.fail "unexpected UNSAT"
  | Cegis.Iteration_limit _ -> Alcotest.fail "iteration limit"

let test_cegis_incremental_matches_fresh () =
  (* The incremental solver path (one persistent encoding, activation
     literals, sparse oracle) must converge on the 3-port toy to a
     mapping throughput-equivalent to the truth.  The fresh-encoding path
     it was once compared against no longer exists; the name is kept. *)
  let s01 = Portset.of_list [ 0; 1 ] in
  let s12 = Portset.of_list [ 1; 2 ] in
  let s2 = Portset.singleton 2 in
  let truth_usage = [ [ (s01, 1) ]; [ (s12, 1) ]; [ (s2, 1) ] ] in
  let catalog = toy_catalog 3 in
  let truth = Mapping.create ~num_ports:3 in
  List.iteri
    (fun i usage -> Mapping.set truth (Catalog.find catalog i) usage)
    truth_usage;
  let config = cegis_config 3 in
  let measure e = Cegis.modeled_inverse config truth e in
  let specs =
    List.mapi
      (fun i usage ->
         let ports =
           List.fold_left (fun acc (p, _) -> acc + Portset.cardinal p) 0 usage
         in
         (Catalog.find catalog i, Encoding.Proper ports))
      truth_usage
  in
  match Cegis.infer ~config ~measure ~specs () with
  | Cegis.Converged (m, _) -> check_equivalent config truth m (Mapping.schemes m)
  | Cegis.No_consistent_mapping _ -> Alcotest.fail "unexpected UNSAT"
  | Cegis.Iteration_limit _ -> Alcotest.fail "iteration limit"

let test_cegis_unsat_on_anomaly () =
  (* Measurements that violate the port-mapping model (the §4.3 imul
     anomaly: 4 four-port adds plus a one-port imul at 1.5 cycles) must
     drive findMapping to UNSAT. *)
  let catalog = toy_catalog 2 in
  let i_add = Catalog.find catalog 0 in
  let i_mul = Catalog.find catalog 1 in
  (* Five ports keep "imul disjoint from add's ports" as a live hypothesis,
     so the CEGIS loop generates the 4-add-plus-imul experiment (size 5)
     that exposes the anomaly. *)
  let config =
    { (cegis_config 5) with Cegis.r_max = 6; max_experiment_size = 5 }
  in
  let measure e =
    let n_add = Experiment.count e i_add in
    let n_mul = Experiment.count e i_mul in
    if n_add = 4 && n_mul = 1 then Rat.of_ints 3 2
    else
      (* Otherwise behave like add on 4 ports, imul on 1 of them. *)
      Rat.max
        (Rat.of_ints (Experiment.length e) config.Cegis.r_max)
        (Rat.max (Rat.of_int n_mul) (Rat.of_ints (n_add + n_mul) 4))
  in
  let specs = [ (i_add, Encoding.Proper 4); (i_mul, Encoding.Proper 1) ] in
  match Cegis.infer ~config ~measure ~specs () with
  | Cegis.No_consistent_mapping _ -> ()
  | Cegis.Converged (m, _) ->
    (* Acceptable only if the anomalous experiment was never generated;
       in that case the mapping must at least explain everything else.
       We treat this as failure to keep the reproduction honest. *)
    Alcotest.failf "expected UNSAT, converged to:\n%s"
      (Format.asprintf "%a" Mapping.pp m)
  | Cegis.Iteration_limit _ -> Alcotest.fail "iteration limit"

(* Soundness property: for random hidden mappings with perfect
   measurements, the inferred mapping is throughput-equivalent to the truth
   on every experiment up to the stratification bound. *)
let prop_cegis_sound =
  let gen =
    let open QCheck2.Gen in
    let num_ports = 3 in
    let portset =
      map
        (fun bits ->
           Portset.of_list
             (List.filter (fun p -> bits land (1 lsl p) <> 0)
                (List.init num_ports Fun.id)))
        (int_range 1 ((1 lsl num_ports) - 1))
    in
    list_size (int_range 2 4) portset
  in
  QCheck2.Test.make ~name:"CEGIS equivalent to hidden truth" ~count:15 gen
    (fun portsets ->
       let truth, config, outcome =
         run_cegis ~num_ports:3 (List.map (fun p -> [ (p, 1) ]) portsets)
       in
       match outcome with
       | Cegis.Converged (m, _) ->
         (try
            check_equivalent config truth m (Mapping.schemes m);
            true
          with Failure _ -> false)
       | Cegis.No_consistent_mapping _ | Cegis.Iteration_limit _ -> false)

(* ------------------------------------------------------------------ *)
(* Bottleneck-set lemmas and the explain verdict                       *)
(* ------------------------------------------------------------------ *)

(* A random spec list over [toy_catalog]: the first row is proper (an
   improper row needs a partner), the others improper one time in three.
   Port counts are drawn in [1, num_ports]. *)
let gen_specs ~num_ports ~max_schemes =
  let open QCheck2.Gen in
  let* n = int_range 1 max_schemes in
  let+ rows = list_repeat n (pair (int_range 0 2) (int_range 1 num_ports)) in
  let catalog = toy_catalog n in
  List.mapi
    (fun i (kind, c) ->
       let spec =
         if i > 0 && kind = 0 then Encoding.Improper { own_ports = c }
         else Encoding.Proper c
       in
       (Catalog.find catalog i, spec))
    rows

let port_sets num_ports size =
  List.init (1 lsl num_ports) Portset.of_mask
  |> List.filter (fun s -> Portset.cardinal s = size)

let rec product = function
  | [] -> [ [] ]
  | choices :: rest ->
    let tails = product rest in
    List.concat_map (fun c -> List.map (fun tail -> c :: tail) tails) choices

(* Every row assignment the encoding of [specs] admits, by brute force:
   one (own, shared) pair of port sets per row, own rows of the declared
   size, and each improper row's shared µop equal to the own µop of some
   other row (proper rows have no shared µop). *)
let all_rows num_ports specs =
  let own_size = function
    | Encoding.Proper c -> c
    | Encoding.Improper { own_ports } -> own_ports
  in
  product (List.map (fun (_, spec) -> port_sets num_ports (own_size spec)) specs)
  |> List.concat_map (fun owns ->
      product
        (List.mapi
           (fun i ((_, spec), own) ->
              match spec with
              | Encoding.Proper _ -> [ (own, None) ]
              | Encoding.Improper _ ->
                List.filteri (fun j _ -> j <> i) owns
                |> List.map (fun shared -> (own, Some shared)))
           (List.combine specs owns)))

let mapping_of_rows num_ports specs rows =
  let m = Mapping.create ~num_ports in
  List.iter2
    (fun (s, _) (own, shared) ->
       Mapping.set m s
         ((own, 1) :: Option.fold ~none:[] ~some:(fun p -> [ (p, 1) ]) shared))
    specs rows;
  m

(* Every mapping the encoding of [specs] admits. *)
let all_mappings num_ports specs =
  List.map (mapping_of_rows num_ports specs) (all_rows num_ports specs)

(* Soundness of [Encoding.block_bottleneck]: take the k-th model of a
   throwaway encoding, measure its experiment [gap] away from the naive
   oracle's value (too slow or too fast), and build the lemma the way the
   theory check does.  The model must falsify the lemma, and every model of
   the encoding that also falsifies it — all of them, enumerated by
   blocking — must fail the observation under [Throughput] and
   [Harness.Compare.cpi_equal]. *)
let prop_bottleneck_lemma_sound =
  let gen =
    let open QCheck2.Gen in
    let* num_ports = int_range 2 6 in
    let* specs = gen_specs ~num_ports ~max_schemes:3 in
    let* counts = list_repeat (List.length specs) (int_range 1 3) in
    let* nth_model = int_range 0 20 in
    let* too_slow = bool in
    let* off = int_range 1 8 in
    let+ r_max = int_range 1 6 in
    (num_ports, specs, counts, nth_model, too_slow, off, r_max)
  in
  let print (num_ports, specs, counts, nth_model, too_slow, off, r_max) =
    Printf.sprintf "ports=%d rows=[%s] counts=[%s] model=%d %s off=%d/16 r_max=%d"
      num_ports
      (String.concat "; "
         (List.map
            (fun (_, spec) ->
               match spec with
               | Encoding.Proper c -> Printf.sprintf "proper %d" c
               | Encoding.Improper { own_ports } ->
                 Printf.sprintf "improper %d" own_ports)
            specs))
      (String.concat "; " (List.map string_of_int counts))
      nth_model
      (if too_slow then "too-slow" else "too-fast")
      off r_max
  in
  QCheck2.Test.make ~name:"bottleneck lemmas are sound"
    ~count:300 ~print gen
    (fun (num_ports, specs, counts, nth_model, too_slow, off, r_max) ->
       let create () =
         Encoding.create ~num_ports ~symmetry_breaking:false specs
       in
       let model =
         let enc = create () in
         let sat = Encoding.sat enc in
         let rec go k last =
           match Pmi_smt.Sat.solve sat with
           | Pmi_smt.Sat.Unsat -> last
           | Pmi_smt.Sat.Sat model ->
             if k = 0 then Some model
             else begin
               Pmi_smt.Sat.add_clause sat (Encoding.block_model enc model);
               go (k - 1) (Some model)
             end
         in
         match go nth_model None with
         | Some m -> m
         | None -> Alcotest.fail "the encoding has no model"
       in
       let enc = create () in
       let mapping = Encoding.decode enc model in
       let e =
         Experiment.of_counts (List.map2 (fun (s, _) c -> (s, c)) specs counts)
       in
       let length = Experiment.length e in
       let epsilon = Pmi_measure.Harness.Compare.default_epsilon in
       let modeled = Throughput.inverse_bounded ~r_max mapping e in
       let gap = Rat.add (Rat.mul epsilon (Rat.of_int length)) (Rat.of_ints off 16) in
       let measured =
         if too_slow then Rat.sub modeled gap else Rat.add modeled gap
       in
       QCheck2.assume (Rat.compare measured Rat.zero > 0);
       let fails m =
         not
           (Pmi_measure.Harness.Compare.cpi_equal ~epsilon ~length
              (Throughput.inverse_bounded ~r_max m e) measured)
       in
       let violation =
         if too_slow then
           Encoding.Too_slow
             (Pmi_portmap.Oracle.bottleneck_set
                (Pmi_portmap.Oracle.create mapping) e)
         else Encoding.Too_fast
       in
       let lemma =
         Encoding.block_bottleneck enc model (Experiment.schemes e) violation
       in
       let falsified_by_model =
         List.for_all
           (fun l ->
              let v = Pmi_smt.Lit.var l in
              if Pmi_smt.Lit.is_pos l then not model.(v) else model.(v))
           lemma
       in
       let sat = Encoding.sat enc in
       List.iter
         (fun l -> Pmi_smt.Sat.add_clause sat [ Pmi_smt.Lit.negate l ])
         lemma;
       let rec all_fail () =
         match Pmi_smt.Sat.solve sat with
         | Pmi_smt.Sat.Unsat -> true
         | Pmi_smt.Sat.Sat m ->
           fails (Encoding.decode enc m)
           && begin
             Pmi_smt.Sat.add_clause sat (Encoding.block_model enc m);
             all_fail ()
           end
       in
       fails mapping && falsified_by_model && all_fail ())

(* One observation per non-empty experiment (a count per spec): the
   hidden mapping's value, or an arbitrary quarter-cycle value when its
   noise draw is 0. *)
let noisy_observations config specs truth experiments noise =
  List.concat
    (List.map2
       (fun counts (replace, k) ->
          let e =
            Experiment.of_counts
              (List.map2 (fun (s, _) c -> (s, c)) specs counts)
          in
          if Experiment.is_empty e then []
          else
            let cycles =
              if replace = 0 then Rat.of_ints k 4
              else Cegis.modeled_inverse config truth e
            in
            [ { Cegis.experiment = e; cycles } ])
       experiments noise)

(* One probe session answers many questions on one guarded encoding.
   The first question keeps every spec and every observation, so it is a
   fresh session's one question.  Each later one keeps a random subset of
   the specs (with at least one proper row) and a random subset of the
   observations that name only kept schemes.  The observations come from
   one pool, so lemmas learned for them by earlier questions are live in
   later ones, and an experiment may recur with different cycles.
   Observations are a hidden mapping's values, some replaced by arbitrary
   quarter-cycle values, so both verdicts occur.  Every answer must be
   brute force's over the question's own rows. *)
let prop_session_verdicts =
  let num_ports = 4 in
  let gen =
    let open QCheck2.Gen in
    let* specs = gen_specs ~num_ports ~max_schemes:4 in
    let n = List.length specs in
    let* experiments =
      list_size (int_range 1 6) (list_repeat n (int_range 0 3))
    in
    let* noise =
      list_repeat (List.length experiments)
        (pair (int_range 0 2) (int_range 1 16))
    in
    let* truth = nat in
    let+ questions = list_size (int_range 5 8) (pair nat nat) in
    (specs, experiments, noise, truth, questions)
  in
  QCheck2.Test.make ~name:"session verdicts match brute force" ~count:400 gen
    (fun (specs, experiments, noise, truth, questions) ->
       let config = cegis_config num_ports in
       let mappings = all_mappings num_ports specs in
       let truth = List.nth mappings (truth mod List.length mappings) in
       let observations =
         noisy_observations config specs truth experiments noise
       in
       let session = Cegis.Session.create ~config specs in
       List.for_all
         (fun (row_bits, obs_bits) ->
            let chosen i = row_bits land (1 lsl i) <> 0 in
            let proper_chosen =
              List.exists
                (fun (i, (_, spec)) ->
                   chosen i
                   && match spec with
                   | Encoding.Proper _ -> true
                   | Encoding.Improper _ -> false)
                (List.mapi (fun i r -> (i, r)) specs)
            in
            (* Row 0 is proper, so it stands in when no proper row was
               drawn. *)
            let specs' =
              List.filteri
                (fun i _ -> chosen i || (i = 0 && not proper_chosen))
                specs
            in
            let kept s = List.exists (fun (s', _) -> Scheme.equal s s') specs' in
            let observations' =
              List.filteri
                (fun j o ->
                   obs_bits land (1 lsl j) <> 0
                   && List.for_all kept (Experiment.schemes o.Cegis.experiment))
                observations
            in
            let brute =
              List.exists
                (fun m -> List.for_all (Cegis.consistent config m) observations')
                (all_mappings num_ports specs')
            in
            Cegis.Session.explains session ~specs:specs'
              ~observations:observations'
            = brute)
         ((-1, -1) :: questions))

(* A question whose rows hold an improper row but no proper one is
   refused as {!Encoding.create} refuses such specs, and the same
   experiment measured at other cycles is another observation. *)
let test_session_edges () =
  let catalog = toy_catalog 2 in
  let a = Catalog.find catalog 0 and b = Catalog.find catalog 1 in
  let specs = [ (a, Encoding.Proper 1); (b, Encoding.Improper { own_ports = 1 }) ] in
  let config = cegis_config 2 in
  let session = Cegis.Session.create ~config specs in
  let improper_only = [ (b, Encoding.Improper { own_ports = 1 }) ] in
  let cold_error =
    match Encoding.create ~num_ports:2 improper_only with
    | _ -> Alcotest.fail "Encoding.create accepted an improper-only spec list"
    | exception (Invalid_argument _ as e) -> e
  in
  Alcotest.check_raises "improper without proper" cold_error (fun () ->
      ignore
        (Cegis.Session.explains session ~specs:improper_only
           ~observations:[]));
  let at cycles = { Cegis.experiment = Experiment.singleton a; cycles } in
  let explains cycles =
    Cegis.Session.explains session ~specs:[ List.hd specs ]
      ~observations:[ at cycles ]
  in
  Alcotest.(check bool) "one cycle" true (explains Rat.one);
  Alcotest.(check bool) "ten cycles" false (explains (Rat.of_int 10));
  Alcotest.(check bool) "one cycle again" true (explains Rat.one)

(* The incremental theory check re-evaluates an observation only when a
   row of its schemes changed since the encoding's previous check.  Over a
   random run of models (each a random admissible row assignment, often
   the previous one again or sharing rows with it) and a growing observation
   list, every round must learn exactly the lemmas a check from scratch
   learns, in the same order. *)
let prop_theory_incremental_matches_scratch =
  let num_ports = 4 in
  let gen =
    let open QCheck2.Gen in
    let* specs = gen_specs ~num_ports ~max_schemes:3 in
    let n = List.length specs in
    let* experiments =
      list_size (int_range 1 6) (list_repeat n (int_range 0 3))
    in
    let* noise =
      list_repeat (List.length experiments)
        (pair (int_range 0 2) (int_range 1 16))
    in
    let* truth = nat in
    let+ rounds =
      list_size (int_range 1 12) (triple (int_range 0 2) nat bool)
    in
    (specs, experiments, noise, truth, rounds)
  in
  QCheck2.Test.make ~name:"incremental theory check = check from scratch"
    ~count:200 gen
    (fun (specs, experiments, noise, truth, rounds) ->
       let config = cegis_config num_ports in
       let encoding = Encoding.create ~num_ports specs in
       let rows = Array.of_list (all_rows num_ports specs) in
       let pick k = rows.(k mod Array.length rows) in
       let truth = mapping_of_rows num_ports specs (pick truth) in
       let observations =
         noisy_observations config specs truth experiments noise
       in
       (* [mapping_vars] lists each row's own µop by ascending port, then
          its shared µop; a model sets exactly the rows' port sets. *)
       let vars = Encoding.mapping_vars encoding in
       let model_of rows =
         let model =
           Array.make (Pmi_smt.Sat.num_vars (Encoding.sat encoding)) false
         in
         let next = ref 0 in
         let fill ports =
           for k = 0 to num_ports - 1 do
             model.(vars.(!next)) <- Portset.mem k ports;
             incr next
           done
         in
         List.iter (fun (own, shared) -> fill own; Option.iter fill shared) rows;
         model
       in
       (* Each round keeps the previous rows (repeat = 0) or draws new
          ones, and may reveal one more observation. *)
       let steps =
         let _, _, steps =
           List.fold_left
             (fun (cur, seen, acc) (repeat, k, grow) ->
                let cur = if repeat = 0 then cur else pick k in
                let seen =
                  if grow then min (seen + 1) (List.length observations)
                  else seen
                in
                let obs = List.filteri (fun i _ -> i < seen) observations in
                (cur, seen, (obs, model_of cur) :: acc))
             (pick 0, 1, []) rounds
         in
         List.rev steps
       in
       Cegis.theory_rounds ~config encoding steps
       = List.map
           (fun step -> List.hd (Cegis.theory_rounds ~config encoding [ step ]))
           steps)

(* ------------------------------------------------------------------ *)
(* CEGIS at scale: the solver trajectory                                *)
(* ------------------------------------------------------------------ *)

(* One blocking representative per bucket of a reduced Zen+ catalog on
   the quiet machine, each declared with its ground-truth port count,
   leaving out the buckets in [drop]. *)
let bucket_specs ~drop =
  let catalog = Catalog.reduced ~per_bucket:1 () in
  let machine =
    Pmi_machine.Machine.create ~config:Pmi_machine.Machine.quiet_config catalog
  in
  let truth = Pmi_machine.Machine.ground_truth machine in
  let specs =
    Catalog.bucket_names catalog
    |> List.filter (fun b ->
        String.starts_with ~prefix:"blocking/" b && not (List.mem b drop))
    |> List.map (fun b ->
        let s = List.hd (Catalog.bucket catalog b) in
        let ports =
          List.fold_left (fun acc (p, _) -> acc + Portset.cardinal p) 0
            (Mapping.usage truth s)
        in
        (s, Encoding.Proper ports))
  in
  (specs, Pmi_measure.Harness.cycles (Pmi_measure.Harness.create machine))

(* Minus the three buckets whose anomalies make the class set UNSAT
   (§4.3), [Cegis.infer] converges after 32 iterations, 41 experiments and
   some 1,800 conflicts: enough search to exercise learning, the theory
   loop and the canonical step.  It reaches no restart and no
   clause-database reduction; [test_smt]'s pinned runs and sanitizer cases
   cover those. *)
let trajectory_specs, trajectory_measure =
  bucket_specs
    ~drop:
      [ "blocking/scalar-mul"; "blocking/vec-to-gpr"; "blocking/vec-mul-hard" ]

let trajectory_run () =
  match Cegis.infer ~measure:trajectory_measure ~specs:trajectory_specs () with
  | Cegis.Converged (mapping, stats) -> (mapping, stats)
  | Cegis.No_consistent_mapping _ -> Alcotest.fail "unexpected UNSAT"
  | Cegis.Iteration_limit _ -> Alcotest.fail "iteration limit"

let trajectory = lazy (trajectory_run ())

(* The search-path pin at CEGIS scale.  Every counter below is the exact
   SAT trajectory: a change that means to keep each decision, conflict and
   lemma must repeat them all.  Only a deliberate trajectory change (such
   as checking the theory inside the search) may re-record them, and must
   say so.  Re-recorded when [infer] moved from footprint lemmas to
   bottleneck-set lemmas and gained the canonical step: 48,333 decisions,
   7,732 conflicts, 3 restarts, 3,561 deletions, 92 episodes and 4,917
   lemmas before.  Last re-recorded when the canonical step stopped
   probing own-µop variables that a full port count already forces false:
   those probes were UNSAT by propagation alone, so only the propagations
   (264,077 before) and the episodes (155 before) moved. *)
let check_trajectory_pin (stats : Cegis.stats) =
  let sat = stats.Cegis.sat in
  List.iter
    (fun (name, expected, got) -> Alcotest.(check int) name expected got)
    [ ("decisions", 23_660, sat.Pmi_smt.Sat.decisions);
      ("propagations", 258_170, sat.Pmi_smt.Sat.propagations);
      ("conflicts", 1_778, sat.Pmi_smt.Sat.conflicts);
      ("restarts", 0, sat.Pmi_smt.Sat.restarts);
      ("learned", 1_759, sat.Pmi_smt.Sat.learned);
      ("deleted", 0, sat.Pmi_smt.Sat.deleted);
      ("sat episodes", 118, stats.Cegis.sat_episodes);
      ("theory lemmas", 2_165, stats.Cegis.theory_lemmas) ]

let test_cegis_trajectory_pin () =
  check_trajectory_pin (snd (Lazy.force trajectory))

(* With the imul and vmovd buckets kept the class set is UNSAT (§4.3),
   though no singleton shows it (vpmuldq's does, so its bucket stays out).
   In the paper's order the loop first converges and only the convergence
   sweep refutes the mapping, so UNSAT needs a hard proof; checking the
   sweep on every iteration's model observes a refuting experiment as soon
   as the model fails it (2 iterations and 28 conflicts, against 41 and
   1,196). *)
let test_cegis_refute_early () =
  let specs, measure = bucket_specs ~drop:[ "blocking/vec-mul-hard" ] in
  let unsat ~refute_early =
    match Cegis.infer ~refute_early ~measure ~specs () with
    | Cegis.No_consistent_mapping stats -> stats
    | Cegis.Converged _ -> Alcotest.fail "expected UNSAT, converged"
    | Cegis.Iteration_limit _ -> Alcotest.fail "iteration limit"
  in
  let paper = unsat ~refute_early:false in
  let early = unsat ~refute_early:true in
  let fewer name count =
    if count early >= count paper then
      Alcotest.failf "%s: %d early, %d in the paper's order" name
        (count early) (count paper)
  in
  fewer "iterations" (fun s -> s.Cegis.iterations);
  fewer "conflicts" (fun s -> s.Cegis.sat.Pmi_smt.Sat.conflicts)

(* [Pipeline.run] refutes every round early, then re-runs the round that
   converged in the paper's order and reports that run.  So its final-round
   stats are those of a paper-order [Cegis.infer] on the final specs: the
   same iterations, experiments and solver counters. *)
let test_pipeline_final_round_in_paper_order () =
  let catalog = Catalog.reduced ~per_bucket:2 () in
  let harness =
    Pmi_measure.Harness.create (Pmi_machine.Machine.create catalog)
  in
  let measure = Pmi_measure.Harness.cycles harness in
  let result = Pipeline.run harness in
  let removed k =
    List.exists
      (fun r -> Scheme.equal r.Blocking.representative k.Blocking.representative)
      result.Pipeline.removed_classes
  in
  let own_ports s =
    let tp = Rat.to_float (measure (Experiment.singleton s)) in
    max 1 (int_of_float (Float.round (1.0 /. tp)))
  in
  (* The final round's specs, built as the pipeline builds them: the
     surviving classes, then the improper store blockers. *)
  let specs =
    List.filter_map
      (fun k ->
         if removed k then None
         else
           Some
             (k.Blocking.representative, Encoding.Proper k.Blocking.port_count))
      result.Pipeline.filtering.Blocking.classes
    @ List.map
        (fun s -> (s, Encoding.Improper { own_ports = own_ports s }))
        result.Pipeline.improper
  in
  Alcotest.(check bool) "a culprit round ran first" true
    (result.Pipeline.removed_classes <> []);
  let machine = Pmi_measure.Harness.machine harness in
  let config =
    { Cegis.default_config with
      Cegis.num_ports = Pmi_machine.Machine.num_ports machine;
      r_max = Pmi_machine.Machine.r_max machine }
  in
  let paper =
    match Cegis.infer ~config ~measure ~specs () with
    | Cegis.Converged (_, stats) -> stats
    | Cegis.No_consistent_mapping _ -> Alcotest.fail "unexpected UNSAT"
    | Cegis.Iteration_limit _ -> Alcotest.fail "iteration limit"
  in
  let reported = result.Pipeline.cegis_stats in
  let experiments (stats : Cegis.stats) =
    List.map
      (fun o ->
         Experiment.to_string o.Cegis.experiment ^ " @ "
         ^ Rat.to_string o.Cegis.cycles)
      stats.Cegis.observations
  in
  Alcotest.(check (list string)) "observations" (experiments paper)
    (experiments reported);
  let counters (stats : Cegis.stats) =
    let sat = stats.Cegis.sat in
    [ ("iterations", stats.Cegis.iterations);
      ("candidates", stats.Cegis.candidates_tried);
      ("theory lemmas", stats.Cegis.theory_lemmas);
      ("sat episodes", stats.Cegis.sat_episodes);
      ("decisions", sat.Pmi_smt.Sat.decisions);
      ("propagations", sat.Pmi_smt.Sat.propagations);
      ("conflicts", sat.Pmi_smt.Sat.conflicts);
      ("restarts", sat.Pmi_smt.Sat.restarts);
      ("learned", sat.Pmi_smt.Sat.learned);
      ("deleted", sat.Pmi_smt.Sat.deleted);
      ("max glue", sat.Pmi_smt.Sat.max_lbd) ]
  in
  List.iter2
    (fun (name, expected) (_, got) -> Alcotest.(check int) name expected got)
    (counters paper) (counters reported)

(* A reduced pipeline's [cegis.infer] spans, read back from the trace:
   each culprit round (0 for the first) runs early first, a round that
   converges early runs again in the paper's order, every other round
   moves on to the next, and the last run converged in the paper's
   order. *)
let test_pipeline_infer_spans () =
  let catalog = Catalog.reduced ~per_bucket:2 () in
  let harness =
    Pmi_measure.Harness.create (Pmi_machine.Machine.create catalog)
  in
  let module Obs = Pmi_obs.Obs in
  Obs.enable ();
  Fun.protect ~finally:Obs.disable (fun () -> ignore (Pipeline.run harness));
  Alcotest.(check int) "no event dropped" 0 (Obs.dropped ());
  let suffix = "pipeline.cegis/cegis.infer" in
  let runs =
    List.filter_map
      (fun (e : Obs.event) ->
         let n = String.length e.path and k = String.length suffix in
         if e.name <> "cegis.infer" then None
         else begin
           Alcotest.(check string) "under pipeline.cegis" suffix
             (String.sub e.path (max 0 (n - k)) (min n k));
           let str key =
             match List.assoc_opt key e.args with
             | Some (Obs.Str v) -> v
             | Some (Obs.Int v) -> string_of_int v
             | None -> "-"
           in
           Some (str "round", str "order", str "verdict")
         end)
      (Obs.events ())
  in
  let rec check = function
    | (r, "early", "converged") :: ((r', order, _) :: _ as rest) ->
      Alcotest.(check (pair string string)) "converged early, then paper"
        (r, "paper") (r', order);
      check rest
    | (r, _, _) :: ((r', order, _) :: _ as rest) ->
      Alcotest.(check (pair string string)) "next round, early"
        (string_of_int (int_of_string r + 1), "early") (r', order);
      check rest
    | [ last ] ->
      let unsat = List.filter (fun (_, _, v) -> v = "unsat") runs in
      Alcotest.(check (triple string string string)) "last run"
        (string_of_int (List.length unsat), "paper", "converged")
        last
    | [] -> Alcotest.fail "no cegis.infer span"
  in
  Alcotest.(check (pair string string)) "first run" ("0", "early")
    (match runs with (r, order, _) :: _ -> (r, order) | [] -> ("-", "-"));
  check runs;
  Alcotest.(check bool) "a culprit round ran first" true (List.length runs > 2)

(* The same run with the CDCL invariant sanitizer on in both of its
   solvers: the invariants hold at every level-0 boundary, including the
   exit after each complete model, where the decision heap is emptied in
   one pass.  Checking changes nothing, so the run repeats the pin. *)
let test_cegis_sanitized () =
  Pmi_smt.Sat.set_sanitize_default true;
  let sanitized =
    Fun.protect
      ~finally:(fun () -> Pmi_smt.Sat.set_sanitize_default false)
      trajectory_run
  in
  check_trajectory_pin (snd sanitized)

(* [infer] returns the canonical mapping of what it measured, so the same
   observations canonicalised on a cold encoding (no learned clauses, no
   lemmas, fresh activities) give back the same mapping. *)
let test_cegis_canonical () =
  let mapping, stats = Lazy.force trajectory in
  let rows m =
    List.map
      (fun (s, _) ->
         (Scheme.name s, Mapping.usage_to_string (Mapping.usage m s)))
      trajectory_specs
  in
  match
    Cegis.canonical ~specs:trajectory_specs
      ~observations:stats.Cegis.observations ()
  with
  | None -> Alcotest.fail "the converged observations have no mapping"
  | Some cold ->
    Alcotest.(check (list (pair string string)))
      "infer's mapping = cold canonical mapping" (rows mapping) (rows cold)

(* ------------------------------------------------------------------ *)
(* Relabel                                                             *)
(* ------------------------------------------------------------------ *)

let test_relabel_perfect () =
  let catalog = toy_catalog 3 in
  let s0 = Catalog.find catalog 0 in
  let s1 = Catalog.find catalog 1 in
  let s2 = Catalog.find catalog 2 in
  (* Truth uses ports {0},{0,1},{2}; inferred is the same up to the
     permutation 0->2, 1->0, 2->1. *)
  let docs =
    [ (s0, [ (Portset.singleton 0, 1) ]);
      (s1, [ (Portset.of_list [ 0; 1 ], 1) ]);
      (s2, [ (Portset.singleton 2, 1) ]) ]
  in
  let inferred = Mapping.create ~num_ports:3 in
  Mapping.set inferred s0 [ (Portset.singleton 2, 1) ];
  Mapping.set inferred s1 [ (Portset.of_list [ 2; 0 ], 1) ];
  Mapping.set inferred s2 [ (Portset.singleton 1, 1) ];
  match Relabel.align ~docs inferred with
  | None -> Alcotest.fail "alignment must exist"
  | Some a ->
    Alcotest.(check int) "nothing dropped" 0 (List.length a.Relabel.dropped);
    let renamed = Relabel.apply a.Relabel.permutation inferred in
    List.iter
      (fun (s, doc) ->
         Alcotest.(check bool) "matches docs" true
           (Mapping.equal_usage (Mapping.usage renamed s) doc))
      docs

let test_relabel_drops_ambiguous () =
  let catalog = toy_catalog 2 in
  let s0 = Catalog.find catalog 0 in
  let s1 = Catalog.find catalog 1 in
  (* The documented usage of s1 is impossible for the inferred structure
     (different cardinality), so it must be dropped while s0 aligns. *)
  let docs =
    [ (s0, [ (Portset.singleton 0, 1) ]);
      (s1, [ (Portset.of_list [ 0; 1 ], 1) ]) ]
  in
  let inferred = Mapping.create ~num_ports:2 in
  Mapping.set inferred s0 [ (Portset.singleton 1, 1) ];
  Mapping.set inferred s1 [ (Portset.singleton 1, 1) ];
  match Relabel.align ~docs inferred with
  | None -> Alcotest.fail "partial alignment must exist"
  | Some a ->
    Alcotest.(check int) "one dropped" 1 (List.length a.Relabel.dropped);
    Alcotest.(check bool) "s1 dropped" true
      (List.exists (Scheme.equal s1) a.Relabel.dropped);
    let renamed = Relabel.apply a.Relabel.permutation inferred in
    Alcotest.(check bool) "s0 aligned" true
      (Mapping.equal_usage (Mapping.usage renamed s0) [ (Portset.singleton 0, 1) ])

let test_relabel_improper_pairing () =
  (* Two-µop usages pair µops by cardinality, trying both orientations. *)
  let catalog = toy_catalog 1 in
  let s0 = Catalog.find catalog 0 in
  let docs =
    [ (s0, [ (Portset.singleton 0, 1); (Portset.of_list [ 1; 2 ], 1) ]) ]
  in
  let inferred = Mapping.create ~num_ports:3 in
  Mapping.set inferred s0
    [ (Portset.singleton 2, 1); (Portset.of_list [ 0; 1 ], 1) ];
  match Relabel.align ~docs inferred with
  | None -> Alcotest.fail "alignment must exist"
  | Some a ->
    let renamed = Relabel.apply a.Relabel.permutation inferred in
    Alcotest.(check bool) "two-µop usage aligned" true
      (Mapping.equal_usage (Mapping.usage renamed s0) (List.assoc s0 docs))

(* ------------------------------------------------------------------ *)
(* Port_usage (Algorithm 1 adapted)                                    *)
(* ------------------------------------------------------------------ *)

let test_blocking_count_formula () =
  (* k = min(100, max(10, |pu|·µops, 2·|pu|·max(1, ⌊tp⁻¹⌋))). *)
  let add = first "blocking/alu" in
  Alcotest.(check int) "1-µop scheme, small sets" 10
    (Port_usage.blocking_count harness ~port_set_size:1 add);
  let bsf = first "microcoded" in
  (* bsf: 8 postulated µops, tp⁻¹ = 4: max(10, 4*8, 2*4*4) = 32. *)
  Alcotest.(check int) "microcoded scheme" 32
    (Port_usage.blocking_count harness ~port_set_size:4 bsf)

let test_characterize_regular () =
  let add_load = first "regular/scalar-load" in
  let blockers =
    List.map
      (fun (bucket, ports) ->
         { Port_usage.scheme = first bucket; ports = Portset.of_list ports })
      [ ("blocking/alu", [ 6; 7; 8; 9 ]); ("blocking/load", [ 4; 5 ]);
        ("blocking/vec-shift", [ 2 ]) ]
  in
  match Port_usage.characterize harness ~blockers add_load with
  | Port_usage.Usage { usage; spurious; postulated; witnesses } ->
    Alcotest.(check bool) "one witness per blocker" true
      (List.length witnesses = 3);
    Alcotest.(check bool) "witness evidence renders" true
      (String.length
         (Format.asprintf "%a" Port_usage.pp_witnesses (add_load, witnesses))
       > 0);
    Alcotest.(check bool) "not spurious" false spurious;
    Alcotest.(check int) "postulate" 2 postulated;
    Alcotest.(check bool) "ALU + load µop" true
      (Mapping.equal_usage usage
         [ (Portset.of_list [ 6; 7; 8; 9 ], 1); (Portset.of_list [ 4; 5 ], 1) ])
  | Port_usage.Failed _ -> Alcotest.fail "characterisation failed"

(* ------------------------------------------------------------------ *)
(* Bottleneck (§3.4)                                                   *)
(* ------------------------------------------------------------------ *)

let test_bottleneck_gap () =
  Alcotest.(check bool) "Zen+ gap holds" true
    (Bottleneck.gap_ok ~r_max:5 ~max_port_set:4);
  Alcotest.(check bool) "no gap" false (Bottleneck.gap_ok ~r_max:4 ~max_port_set:4);
  Alcotest.check_raises "check raises"
    (Invalid_argument
       "Bottleneck.check: frontend rate 4 does not exceed the widest µop \
        port set 4; blocking-based counting would be unsound (§3.4)")
    (fun () -> Bottleneck.check ~r_max:4 ~max_port_set:4)

(* ------------------------------------------------------------------ *)
(* Encoding details                                                    *)
(* ------------------------------------------------------------------ *)

let test_encoding_cardinality () =
  let catalog = toy_catalog 2 in
  let specs =
    [ (Catalog.find catalog 0, Encoding.Proper 2);
      (Catalog.find catalog 1, Encoding.Proper 1) ]
  in
  let enc = Encoding.create ~num_ports:3 specs in
  match Pmi_smt.Sat.solve (Encoding.sat enc) with
  | Pmi_smt.Sat.Sat model ->
    let m = Encoding.decode enc model in
    Alcotest.(check int) "2 ports" 2
      (Portset.cardinal (fst (List.hd (Mapping.usage m (Catalog.find catalog 0)))));
    Alcotest.(check int) "1 port" 1
      (Portset.cardinal (fst (List.hd (Mapping.usage m (Catalog.find catalog 1)))))
  | Pmi_smt.Sat.Unsat -> Alcotest.fail "encoding should be satisfiable"

let test_encoding_improper () =
  let catalog = toy_catalog 2 in
  let proper = Catalog.find catalog 0 in
  let improper = Catalog.find catalog 1 in
  let specs =
    [ (proper, Encoding.Proper 2);
      (improper, Encoding.Improper { own_ports = 1 }) ]
  in
  let enc = Encoding.create ~num_ports:3 specs in
  match Pmi_smt.Sat.solve (Encoding.sat enc) with
  | Pmi_smt.Sat.Sat model ->
    let m = Encoding.decode enc model in
    let proper_ports = fst (List.hd (Mapping.usage m proper)) in
    let usage = Mapping.usage m improper in
    Alcotest.(check int) "two µops" 2 (Mapping.uop_count m improper);
    (* One of the improper µops equals the proper instruction's µop. *)
    Alcotest.(check bool) "shares the proper µop" true
      (List.exists (fun (p, _) -> Portset.equal p proper_ports) usage)
  | Pmi_smt.Sat.Unsat -> Alcotest.fail "improper encoding should be satisfiable"

let test_block_model_progress () =
  let catalog = toy_catalog 1 in
  let scheme = Catalog.find catalog 0 in
  let enc = Encoding.create ~num_ports:2 ~symmetry_breaking:false
      [ (scheme, Encoding.Proper 1) ] in
  let sat = Encoding.sat enc in
  (* Two models exist ({0} and {1}); blocking each in turn exhausts them. *)
  let rec count n =
    match Pmi_smt.Sat.solve sat with
    | Pmi_smt.Sat.Sat model ->
      Pmi_smt.Sat.add_clause sat (Encoding.block_model enc model);
      count (n + 1)
    | Pmi_smt.Sat.Unsat -> n
  in
  Alcotest.(check int) "exactly two 1-port mappings" 2 (count 0)

let test_symmetry_breaking_reduces_models () =
  let catalog = toy_catalog 1 in
  let scheme = Catalog.find catalog 0 in
  let count_models symmetry_breaking =
    let enc =
      Encoding.create ~num_ports:4 ~symmetry_breaking
        [ (scheme, Encoding.Proper 2) ]
    in
    let sat = Encoding.sat enc in
    let seen = Hashtbl.create 8 in
    let rec go () =
      match Pmi_smt.Sat.solve sat with
      | Pmi_smt.Sat.Sat model ->
        let m = Encoding.decode enc model in
        let key = Mapping.usage_to_string (Mapping.usage m scheme) in
        Hashtbl.replace seen key ();
        Pmi_smt.Sat.add_clause sat (Encoding.block_model enc model);
        go ()
      | Pmi_smt.Sat.Unsat -> Hashtbl.length seen
    in
    go ()
  in
  Alcotest.(check int) "without symmetry breaking: C(4,2)" 6 (count_models false);
  Alcotest.(check int) "with symmetry breaking: canonical only" 1
    (count_models true)

(* ------------------------------------------------------------------ *)
(* The distinguishing-experiment search (§3.3.4)                       *)
(* ------------------------------------------------------------------ *)

(* The search without its table or its prune: every multiset in the same
   order, each evaluated from scratch. *)
let naive_distinguish config schemes m1 m2 =
  let o1 = Oracle.create m1 and o2 = Oracle.create m2 in
  let schemes = Array.of_list schemes in
  let exception Hit of Experiment.t in
  let rec fill size rem start acc =
    if rem = 0 then begin
      let e = Experiment.of_counts acc in
      let t1 = Oracle.inverse_bounded_frac ~r_max:config.Cegis.r_max o1 e in
      let t2 = Oracle.inverse_bounded_frac ~r_max:config.r_max o2 e in
      if Pmi_measure.Harness.Compare.well_separated_frac ~length:size t1 t2
      then raise (Hit e)
    end
    else
      for i = start to Array.length schemes - 1 do
        for c = 1 to rem do
          fill size (rem - c) (i + 1) ((schemes.(i), c) :: acc)
        done
      done
  in
  let rec stratum size =
    if size > config.max_experiment_size then None
    else
      match fill size size 0 [] with
      | () -> stratum (size + 1)
      | exception Hit e -> Some e
  in
  stratum 1

(* A mapping of the toy schemes, one row of (mask, count) pairs each. *)
let rows_mapping ~num_ports schemes rows =
  let m = Mapping.create ~num_ports in
  List.iter2
    (fun s row ->
       Mapping.set m s
         (Mapping.normalize_usage
            (List.map (fun (mask, c) -> (Portset.of_mask mask, c)) row)))
    schemes rows;
  m

(* The mask with port p moved to [List.nth renaming p]. *)
let rename_mask renaming mask =
  let renamed = ref 0 in
  List.iteri
    (fun p q ->
       if mask land (1 lsl p) <> 0 then renamed := !renamed lor (1 lsl q))
    renaming;
  !renamed

(* Two reference mappings in turn on one search state, then the first
   again, each against a run of candidates that differ from it in no row,
   in one row, in every row, or by a port renaming (every row differs, no
   experiment separates them), and from the candidate before in one row or
   in all.  The search keeps leaf values across all of it, so a value
   kept for the first reference must be checked, not trusted, when it
   comes back.  Each answer must be the naive search's. *)
let prop_distinguish_matches_naive =
  let gen =
    let open QCheck2.Gen in
    let* num_ports = int_range 2 4 in
    let* n = int_range 1 5 in
    let usage =
      list_size (int_range 1 2)
        (pair (int_range 1 ((1 lsl num_ports) - 1)) (int_range 1 2))
    in
    let reference =
      let* rows = list_repeat n usage in
      let* changed = pair (int_range 0 (n - 1)) usage in
      let* others = list_repeat n usage in
      let+ renaming = shuffle_l (List.init num_ports Fun.id) in
      (rows, changed, others, renaming)
    in
    let+ references = list_repeat 2 reference in
    (num_ports, n, references)
  in
  QCheck2.Test.make ~name:"distinguishing search = naive search" ~count:300
    gen
    (fun (num_ports, n, references) ->
       let config = cegis_config num_ports in
       let schemes = Array.to_list (Catalog.schemes (toy_catalog n)) in
       let mapping = rows_mapping ~num_ports schemes in
       let search = Cegis.Distinguish.create config schemes in
       List.for_all
         (fun (rows, (j, row), others, renaming) ->
            let rename (mask, c) = (rename_mask renaming mask, c) in
            let m1 = mapping rows in
            let change = List.mapi (fun i r -> if i = j then row else r) in
            let renamed = List.map (List.map rename) rows in
            let candidates =
              [ mapping rows; mapping (change rows); mapping renamed;
                mapping (change renamed); mapping others; mapping rows ]
            in
            Cegis.Distinguish.start search m1;
            List.for_all
              (fun m2 ->
                 Option.equal Experiment.equal
                   (Cegis.Distinguish.find search m2)
                   (naive_distinguish config schemes m1 m2))
              candidates)
         (references @ [ List.hd references ]))

(* More distinct rows than a key can hold: at experiment size 4 a key
   packs four row ids of 11 bits, so the search names 2,047 rows at most,
   and here it meets 2,079 (every one- and two-µop row on 6 ports with
   unit counts, and the one-µop rows twice over), so the last leaves it
   meets go without slots.  One search throughout, a new reference every
   hundred candidates; each answer must be the naive search's. *)
let test_distinguish_many_rows () =
  let num_ports = 6 in
  let config = cegis_config num_ports in
  let schemes = Array.to_list (Catalog.schemes (toy_catalog 2)) in
  let mapping = rows_mapping ~num_ports schemes in
  let masks = List.init 63 (fun m -> m + 1) in
  let rows =
    Array.of_list
      (List.concat_map (fun a -> [ [ (a, 1) ]; [ (a, 2) ] ]) masks
       @ List.concat_map
           (fun a ->
              List.filter_map
                (fun b -> if b > a then Some [ (a, 1); (b, 1) ] else None)
                masks)
           masks)
  in
  let total = Array.length rows in
  Alcotest.(check int) "distinct rows" 2079 total;
  let search = Cegis.Distinguish.create config schemes in
  let m1 = ref (mapping [ rows.(0); rows.(1) ]) in
  for i = 0 to total - 1 do
    if i mod 100 = 0 then begin
      m1 := mapping [ rows.(i); rows.(0) ];
      Cegis.Distinguish.start search !m1
    end;
    let m2 = mapping [ rows.((i * 7) mod total); rows.(i) ] in
    Alcotest.(check (option string))
      (Printf.sprintf "candidate %d" i)
      (Option.map Experiment.to_string
         (naive_distinguish config schemes !m1 m2))
      (Option.map Experiment.to_string (Cegis.Distinguish.find search m2))
  done

(* Every count list of 1 up to [size] instructions over [schemes]. *)
let rec multisets size = function
  | [] -> if size >= 0 then [ [] ] else []
  | s :: rest ->
    List.concat_map
      (fun c ->
         List.map
           (fun tail -> if c = 0 then tail else (s, c) :: tail)
           (multisets (size - c) rest))
      (List.init (size + 1) Fun.id)

(* The schemes the search treats as agreeing can never tell the mappings
   apart.  m2 is m1 with its ports renamed on some schemes (and one µop's
   count raised on some of those), with random rows on the others.  Every
   multiset of up to 3 agreeing instructions has the same bounded
   throughput under both mappings, and the agreeing schemes are never
   fewer than those whose two rows are equal. *)
let prop_relabel_sound =
  let gen =
    let open QCheck2.Gen in
    let* num_ports = int_range 1 12 in
    let* n = int_range 1 6 in
    let usage =
      list_size (int_range 1 3)
        (pair (int_range 1 ((1 lsl num_ports) - 1)) (int_range 1 2))
    in
    let* rows = list_repeat n usage in
    let* kinds = list_repeat n (int_range 0 2) in
    let* others = list_repeat n usage in
    let+ renaming = shuffle_l (List.init num_ports Fun.id) in
    (num_ports, rows, kinds, others, renaming)
  in
  QCheck2.Test.make ~name:"relabel agreement is sound" ~count:500 gen
    (fun (num_ports, rows, kinds, others, renaming) ->
       let config = cegis_config num_ports in
       let schemes =
         Array.to_list (Catalog.schemes (toy_catalog (List.length rows)))
       in
       let mapping = rows_mapping ~num_ports schemes in
       let renamed =
         List.map2
           (fun (row, kind) other ->
              match kind with
              | 0 -> List.map (fun (m, c) -> (rename_mask renaming m, c)) row
              | 1 ->
                List.mapi
                  (fun j (m, c) ->
                     (rename_mask renaming m, if j = 0 then c + 1 else c))
                  row
              | _ -> other)
           (List.combine rows kinds) others
       in
       let m1 = mapping rows and m2 = mapping renamed in
       let search = Cegis.Distinguish.create config schemes in
       Cegis.Distinguish.start search m1;
       let agreeing = Cegis.Distinguish.agreeing search m2 in
       let equal =
         List.filter
           (fun s ->
              Mapping.equal_usage (Mapping.usage m1 s) (Mapping.usage m2 s))
           schemes
       in
       let r_max = config.Cegis.r_max in
       List.length agreeing >= List.length equal
       && List.for_all
            (fun counts ->
               counts = []
               ||
               let e = Experiment.of_counts counts in
               Rat.equal
                 (Throughput.inverse_bounded ~r_max m1 e)
                 (Throughput.inverse_bounded ~r_max m2 e))
            (multisets 3 agreeing))

(* The prune's triangle count on bit rows against the nested loops it
   replaced, on random graphs across word boundaries (a bit row word holds
   [Sys.int_size] bits). *)
let triangle_counts_reference adjacency alive =
  let n = Array.length adjacency in
  Array.init n (fun s ->
      if not alive.(s) then 0
      else begin
        let neighbours =
          List.filter
            (fun k -> k <> s && alive.(k) && adjacency.(s).(k))
            (List.init n Fun.id)
        in
        let rec count = function
          | [] -> 0
          | a :: rest ->
            List.length (List.filter (fun b -> not adjacency.(a).(b)) rest)
            + count rest
        in
        count neighbours
      end)

let prop_triangle_counts =
  let gen =
    QCheck2.Gen.(
      let* n =
        oneof [ int_range 1 200; oneofl [ 62; 63; 64; 124; 125; 126; 189 ] ]
      in
      let* density = float_range 0.0 1.0 and* live = float_range 0.0 1.0 in
      let* seed = int in
      return (n, density, live, seed))
  in
  QCheck2.Test.make ~name:"bitset triangle counts = nested loops" ~count:200
    ~print:(fun (n, d, l, seed) ->
        Printf.sprintf "n=%d density=%g live=%g seed=%d" n d l seed)
    gen
    (fun (n, density, live, seed) ->
       let rng = Random.State.make [| seed |] in
       let adjacency = Array.make_matrix n n false in
       for i = 0 to n - 1 do
         for j = i + 1 to n - 1 do
           if Random.State.float rng 1.0 < density then begin
             adjacency.(i).(j) <- true;
             adjacency.(j).(i) <- true
           end
         done
       done;
       let alive = Array.init n (fun _ -> Random.State.float rng 1.0 < live) in
       Blocking.triangle_counts adjacency alive
       = triangle_counts_reference adjacency alive)

let () =
  Alcotest.run "core"
    [ ("uop-count",
       [ Alcotest.test_case "memory adjustment (§4.1.1)" `Quick test_memory_adjustment;
         Alcotest.test_case "postulated µops" `Quick test_postulated_uops;
         Alcotest.test_case "µops on blocked ports (§3.1)" `Quick
           test_uops_on_blocked_ports;
         Alcotest.test_case "rounding" `Quick test_round_uops ]);
      ("blocking",
       [ Alcotest.test_case "individual classification (§4.1)" `Quick
           test_classify_individual;
         Alcotest.test_case "additivity (§3.2)" `Quick test_additivity;
         Alcotest.test_case "candidate filtering (§4.2)" `Slow
           test_filter_candidates_small;
         Alcotest.test_case "pairing measures each pair once" `Quick
           test_pairing_measures_once;
         QCheck_alcotest.to_alcotest prop_additive_matches_rat;
         QCheck_alcotest.to_alcotest prop_triangle_counts ]);
      ("encoding",
       [ Alcotest.test_case "cardinality" `Quick test_encoding_cardinality;
         Alcotest.test_case "improper blockers (§4.3)" `Quick test_encoding_improper;
         Alcotest.test_case "model blocking" `Quick test_block_model_progress;
         Alcotest.test_case "symmetry breaking" `Quick
           test_symmetry_breaking_reduces_models ]);
      ("cegis",
       [ Alcotest.test_case "Figure 4 example" `Quick test_cegis_figure4;
         Alcotest.test_case "disjoint ports" `Quick test_cegis_disjoint;
         Alcotest.test_case "three instructions" `Quick test_cegis_three_instructions;
         Alcotest.test_case "incremental matches fresh encodings" `Quick
           test_cegis_incremental_matches_fresh;
         Alcotest.test_case "UNSAT on the imul anomaly (§4.3)" `Quick
           test_cegis_unsat_on_anomaly;
         QCheck_alcotest.to_alcotest prop_cegis_sound;
         Alcotest.test_case "solver trajectory pin" `Quick
           test_cegis_trajectory_pin;
         Alcotest.test_case "early refutation" `Quick test_cegis_refute_early;
         Alcotest.test_case "final round in the paper's order" `Quick
           test_pipeline_final_round_in_paper_order;
         Alcotest.test_case "cegis.infer spans per round" `Quick
           test_pipeline_infer_spans;
         Alcotest.test_case "sanitized run" `Quick test_cegis_sanitized;
         QCheck_alcotest.to_alcotest prop_distinguish_matches_naive;
         Alcotest.test_case "distinguishing search past the row ids" `Quick
           test_distinguish_many_rows;
         QCheck_alcotest.to_alcotest prop_relabel_sound;
         Alcotest.test_case "canonical mapping from a cold encoding" `Quick
           test_cegis_canonical ]);
      ("lemmas",
       [ QCheck_alcotest.to_alcotest prop_bottleneck_lemma_sound;
         QCheck_alcotest.to_alcotest prop_session_verdicts;
         Alcotest.test_case "session edge cases" `Quick test_session_edges;
         QCheck_alcotest.to_alcotest prop_theory_incremental_matches_scratch ]);
      ("relabel",
       [ Alcotest.test_case "perfect alignment" `Quick test_relabel_perfect;
         Alcotest.test_case "drops ambiguous schemes" `Quick
           test_relabel_drops_ambiguous;
         Alcotest.test_case "two-µop pairing" `Quick test_relabel_improper_pairing ]);
      ("port-usage",
       [ Alcotest.test_case "k heuristic" `Quick test_blocking_count_formula;
         Alcotest.test_case "regular characterisation" `Quick
           test_characterize_regular ]);
      ("bottleneck",
       [ Alcotest.test_case "§3.4 gap requirement" `Quick test_bottleneck_gap ]) ]
