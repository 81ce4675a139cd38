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
     literals, memoized oracle) must converge on the 3-port toy to a
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

(* ------------------------------------------------------------------ *)
(* Delta mode: online incremental re-inference                         *)
(* ------------------------------------------------------------------ *)

let delta_toy () =
  (* 3 ports, 5 single-µop schemes: rich enough that every arrival
     interacts with several frozen rows. *)
  let usages =
    [ [ (Portset.of_list [ 0; 1 ], 1) ];
      [ (Portset.of_list [ 1; 2 ], 1) ];
      [ (Portset.singleton 2, 1) ];
      [ (Portset.of_list [ 0; 2 ], 1) ];
      [ (Portset.singleton 0, 1) ] ]
  in
  let catalog = toy_catalog (List.length usages) in
  let truth = Mapping.create ~num_ports:3 in
  List.iteri (fun i u -> Mapping.set truth (Catalog.find catalog i) u) usages;
  let specs =
    List.mapi
      (fun i u ->
         let ports =
           List.fold_left (fun a (p, _) -> a + Portset.cardinal p) 0 u
         in
         (Catalog.find catalog i, Encoding.Proper ports))
      usages
  in
  (truth, cegis_config 3, specs)

(* Infer a base mapping over all but the last [arrivals] specs, then feed
   the held-out specs through a delta session one flush at a time, in
   shuffled (here: reversed) arrival order. *)
let run_delta_stream ?(certify = false) ~arrivals () =
  let truth, config, specs = delta_toy () in
  let config = { config with Cegis.certify } in
  let measure e = Cegis.modeled_inverse config truth e in
  let n = List.length specs in
  let base = List.filteri (fun i _ -> i < n - arrivals) specs in
  let stream = List.rev (List.filteri (fun i _ -> i >= n - arrivals) specs) in
  let mapping =
    match Cegis.infer ~config ~measure ~specs:base () with
    | Cegis.Converged (m, _) -> m
    | Cegis.No_consistent_mapping _ | Cegis.Iteration_limit _ ->
      Alcotest.fail "base inference did not converge"
  in
  let session = Cegis.Delta.start ~config ~measure ~mapping ~specs:base () in
  List.iter
    (fun (s, spec) ->
       Cegis.Delta.enqueue session s spec;
       match Cegis.Delta.flush session with
       | Cegis.Delta_applied (Cegis.Converged _) -> ()
       | Cegis.Delta_fallback _ ->
         Alcotest.failf "unexpected fallback on %s" (Scheme.name s)
       | Cegis.Delta_applied _ ->
         Alcotest.failf "delta flush did not converge on %s" (Scheme.name s))
    stream;
  Alcotest.(check int) "no fallbacks" 0 (Cegis.Delta.fallbacks session);
  Alcotest.(check int) "one batch per arrival" arrivals
    (Cegis.Delta.batches session);
  (truth, config, Cegis.Delta.mapping session)

let test_delta_matches_full () =
  (* A shuffled arrival stream must converge to a mapping throughput-
     equivalent to both the hidden truth and a batch inference over the
     same final spec set: the delta path changes latency, never answers. *)
  let truth, config, m_delta = run_delta_stream ~arrivals:2 () in
  check_equivalent config truth m_delta (Mapping.schemes truth);
  let _, _, specs = delta_toy () in
  let measure e = Cegis.modeled_inverse config truth e in
  match Cegis.infer ~config ~measure ~specs () with
  | Cegis.Converged (m_full, _) ->
    check_equivalent config m_full m_delta (Mapping.schemes truth)
  | Cegis.No_consistent_mapping _ | Cegis.Iteration_limit _ ->
    Alcotest.fail "batch inference did not converge"

let test_delta_certified () =
  (* Under [certify] every delta verdict carries a checked certificate:
     assumption-scoped UNSAT answers re-derive through the DRAT checker,
     SAT models replay against the CNF and the exact oracle.  Any
     certificate failure raises, so converging at all is the assertion. *)
  let truth, config, m_delta = run_delta_stream ~certify:true ~arrivals:1 () in
  check_equivalent config truth m_delta (Mapping.schemes truth)

let test_delta_changed_scheme () =
  (* The machine changes under the session: iB's usage moves to a
     different (smaller) port set.  Re-enqueueing iB retires its stale row
     and observations; the session re-converges on the new truth with iA
     and iC still frozen. *)
  let s01 = Portset.of_list [ 0; 1 ] in
  let s12 = Portset.of_list [ 1; 2 ] in
  let s2 = Portset.singleton 2 in
  let catalog = toy_catalog 3 in
  let scheme i = Catalog.find catalog i in
  let make usages =
    let m = Mapping.create ~num_ports:3 in
    List.iteri (fun i u -> Mapping.set m (scheme i) u) usages;
    m
  in
  let truth1 = make [ [ (s01, 1) ]; [ (s12, 1) ]; [ (s2, 1) ] ] in
  let truth2 =
    make [ [ (s01, 1) ]; [ (Portset.singleton 1, 1) ]; [ (s2, 1) ] ]
  in
  let config = cegis_config 3 in
  let current = ref truth1 in
  let measure e = Cegis.modeled_inverse config !current e in
  let specs =
    [ (scheme 0, Encoding.Proper 2); (scheme 1, Encoding.Proper 2);
      (scheme 2, Encoding.Proper 1) ]
  in
  let mapping =
    match Cegis.infer ~config ~measure ~specs () with
    | Cegis.Converged (m, _) -> m
    | _ -> Alcotest.fail "base inference did not converge"
  in
  let session = Cegis.Delta.start ~config ~measure ~mapping ~specs () in
  current := truth2;
  Cegis.Delta.enqueue session (scheme 1) (Encoding.Proper 1);
  (match Cegis.Delta.flush session with
   | Cegis.Delta_applied (Cegis.Converged _) -> ()
   | Cegis.Delta_fallback _ -> Alcotest.fail "unexpected fallback"
   | Cegis.Delta_applied _ -> Alcotest.fail "re-inference did not converge");
  check_equivalent config truth2 (Cegis.Delta.mapping session)
    (Mapping.schemes truth2)

let test_delta_fallback_on_inconsistency () =
  (* Measurements no port assignment can explain: iB floods to 1 CPI alone
     but a mixed experiment with frozen iA measures 3 cycles, far beyond
     any 2-port schedule.  The delta solve must go UNSAT against the
     frozen rows and fall back to full re-inference — which is equally
     unsatisfiable, so the session keeps its pre-flush mapping. *)
  let catalog = toy_catalog 2 in
  let ia = Catalog.find catalog 0 and ib = Catalog.find catalog 1 in
  let truth = Mapping.create ~num_ports:2 in
  Mapping.set truth ia [ (Portset.of_list [ 0; 1 ], 1) ];
  let config = cegis_config 2 in
  let measure e =
    let has s = List.exists (Scheme.equal s) (Experiment.schemes e) in
    if has ib && has ia then Rat.of_int 3
    else if has ib then Rat.one
    else Cegis.modeled_inverse config truth e
  in
  let specs = [ (ia, Encoding.Proper 2) ] in
  let mapping =
    match Cegis.infer ~config ~measure ~specs () with
    | Cegis.Converged (m, _) -> m
    | _ -> Alcotest.fail "base inference did not converge"
  in
  let session = Cegis.Delta.start ~config ~measure ~mapping ~specs () in
  Cegis.Delta.enqueue session ib (Encoding.Proper 1);
  (match Cegis.Delta.flush session with
   | Cegis.Delta_fallback (Cegis.No_consistent_mapping _) -> ()
   | Cegis.Delta_fallback _ -> Alcotest.fail "fallback unexpectedly converged"
   | Cegis.Delta_applied _ ->
     Alcotest.fail "expected a fallback to full re-inference");
  Alcotest.(check int) "one fallback" 1 (Cegis.Delta.fallbacks session);
  Alcotest.(check bool) "pre-flush mapping kept" true
    (Mapping.find_opt (Cegis.Delta.mapping session) ia <> None);
  Alcotest.(check bool) "failed arrival not accepted" true
    (Mapping.find_opt (Cegis.Delta.mapping session) ib = None)

let test_delta_rejects_improper () =
  let truth, config, specs = delta_toy () in
  let measure e = Cegis.modeled_inverse config truth e in
  let mapping =
    match Cegis.infer ~config ~measure ~specs () with
    | Cegis.Converged (m, _) -> m
    | _ -> Alcotest.fail "base inference did not converge"
  in
  let session = Cegis.Delta.start ~config ~measure ~mapping ~specs () in
  Alcotest.check_raises "improper enqueue rejected"
    (Invalid_argument
       "Cegis.Delta: improper (store-blocker) schemes are not streamable; \
        run full re-inference")
    (fun () ->
       Cegis.Delta.enqueue session (List.hd (List.map fst specs))
         (Encoding.Improper { own_ports = 1 }))

let test_cegis_domain_count_invariant () =
  (* With [domains > 1] only the stratified distinguishing search and the
     validation sweep fan out, and both pick the sequential winner, so the
     run must be the same one: a mapping equivalent to the truth, identical
     scheme by scheme, learnt from the identical observation sequence. *)
  let s01 = Portset.of_list [ 0; 1 ] in
  let s12 = Portset.of_list [ 1; 2 ] in
  let s2 = Portset.singleton 2 in
  let truth_usage = [ [ (s01, 1) ]; [ (s12, 1) ]; [ (s2, 1) ] ] in
  let catalog = toy_catalog 3 in
  let truth = Mapping.create ~num_ports:3 in
  List.iteri
    (fun i usage -> Mapping.set truth (Catalog.find catalog i) usage)
    truth_usage;
  let base = cegis_config 3 in
  let measure e = Cegis.modeled_inverse base truth e in
  let specs =
    List.mapi
      (fun i usage ->
         let ports =
           List.fold_left (fun acc (p, _) -> acc + Portset.cardinal p) 0 usage
         in
         (Catalog.find catalog i, Encoding.Proper ports))
      truth_usage
  in
  let run domains =
    match
      Cegis.infer ~config:{ base with Cegis.domains } ~measure ~specs ()
    with
    | Cegis.Converged (m, stats) -> (m, stats)
    | Cegis.No_consistent_mapping _ ->
      Alcotest.failf "domains %d: unexpected UNSAT" domains
    | Cegis.Iteration_limit _ ->
      Alcotest.failf "domains %d: iteration limit" domains
  in
  let m1, st1 = run 1 in
  let m3, st3 = run 3 in
  check_equivalent base truth m1 (Mapping.schemes m1);
  List.iter
    (fun (s, _) ->
       Alcotest.(check bool) (Scheme.name s) true
         (Mapping.equal_usage (Mapping.usage m1 s) (Mapping.usage m3 s)))
    specs;
  let show (o : Cegis.observation) =
    Experiment.to_string o.experiment ^ " = " ^ Rat.to_string o.cycles
  in
  Alcotest.(check (list string)) "observations"
    (List.map show st1.Cegis.observations)
    (List.map show st3.Cegis.observations)

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

let test_block_footprint_progress () =
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
           test_filter_candidates_small ]);
      ("encoding",
       [ Alcotest.test_case "cardinality" `Quick test_encoding_cardinality;
         Alcotest.test_case "improper blockers (§4.3)" `Quick test_encoding_improper;
         Alcotest.test_case "model blocking" `Quick test_block_footprint_progress;
         Alcotest.test_case "symmetry breaking" `Quick
           test_symmetry_breaking_reduces_models ]);
      ("cegis",
       [ Alcotest.test_case "Figure 4 example" `Quick test_cegis_figure4;
         Alcotest.test_case "disjoint ports" `Quick test_cegis_disjoint;
         Alcotest.test_case "three instructions" `Quick test_cegis_three_instructions;
         Alcotest.test_case "delta stream matches batch inference" `Quick
           test_delta_matches_full;
         Alcotest.test_case "delta under certification" `Slow
           test_delta_certified;
         Alcotest.test_case "delta re-infers a changed scheme" `Quick
           test_delta_changed_scheme;
         Alcotest.test_case "delta falls back on inconsistency" `Quick
           test_delta_fallback_on_inconsistency;
         Alcotest.test_case "delta rejects improper specs" `Quick
           test_delta_rejects_improper;
         Alcotest.test_case "incremental matches fresh encodings" `Quick
           test_cegis_incremental_matches_fresh;
         Alcotest.test_case "domain count does not change the result" `Slow
           test_cegis_domain_count_invariant;
         Alcotest.test_case "UNSAT on the imul anomaly (§4.3)" `Quick
           test_cegis_unsat_on_anomaly;
         QCheck_alcotest.to_alcotest prop_cegis_sound ]);
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
