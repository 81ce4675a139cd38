(* The @mapcheck gate: the abstract interpreter over partial port mappings
   must be sound (every completion's exact throughput lies in the computed
   interval), exact on determined mappings, loud on seeded corruption, and
   silent on everything the repo ships.  The CEGIS hook must be a pure
   optimisation: --mapcheck never changes the inferred mapping, only the
   number of harness measurements paid for it. *)

open Pmi_isa
open Pmi_portmap
module Rat = Pmi_numeric.Rat
module Mapcheck = Pmi_analysis.Mapcheck
module Bounds = Oracle.Bounds
module Cegis = Pmi_core.Cegis
module Encoding = Pmi_core.Encoding

let rat = Alcotest.testable Rat.pp Rat.equal

(* ------------------------------------------------------------------ *)
(* Fixtures                                                            *)
(* ------------------------------------------------------------------ *)

let toy_catalog =
  Catalog.of_list
    [ ("add", [ Operand.gpr 64; Operand.gpr ~access:Operand.Read 64 ],
       Iclass.plain (Iclass.Single Iclass.Alu));
      ("mul", [ Operand.gpr 64; Operand.gpr ~access:Operand.Read 64 ],
       Iclass.plain (Iclass.Single Iclass.Alu));
      ("fma", [ Operand.gpr 64; Operand.gpr ~access:Operand.Read 64 ],
       Iclass.plain (Iclass.Single Iclass.Alu)) ]

let add = Catalog.find toy_catalog 0
let mul = Catalog.find toy_catalog 1
let fma = Catalog.find toy_catalog 2

let toy_r_max = 4

let toy_truth () =
  let m = Mapping.create ~num_ports:3 in
  Mapping.set m add [ (Portset.of_list [ 0; 1 ], 1) ];
  Mapping.set m mul [ (Portset.of_list [ 1; 2 ], 1) ];
  Mapping.set m fma [ (Portset.singleton 2, 1) ];
  m

let toy_specs =
  [ (add, Encoding.Proper 2); (mul, Encoding.Proper 2);
    (fma, Encoding.Proper 1) ]

let toy_config ?(mapcheck = false) ?(certify = false) () =
  { Cegis.default_config with
    Cegis.num_ports = 3; r_max = toy_r_max; max_experiment_size = 4;
    symmetry_breaking = true; mapcheck; certify }

(* ------------------------------------------------------------------ *)
(* Interval soundness (QCheck)                                         *)
(* ------------------------------------------------------------------ *)

let num_random_schemes = 3
let random_ports = 3

let random_catalog =
  Catalog.of_list
    (List.init num_random_schemes (fun i ->
         (Printf.sprintf "i%d" i, [ Operand.gpr 32 ],
          Iclass.plain (Iclass.Single Iclass.Alu))))

let scheme i = Catalog.find random_catalog i

(* (candidate lists, experiment counts, r_max): each scheme ranges over
   1-3 candidate usages of 1-2 µops each, over 3 ports. *)
let partial_gen =
  let open QCheck2.Gen in
  let portset =
    map
      (fun bits ->
         Portset.of_list
           (List.filter (fun p -> bits land (1 lsl p) <> 0)
              (List.init random_ports Fun.id)))
      (int_range 1 ((1 lsl random_ports) - 1))
  in
  let usage = list_size (int_range 1 2) (pair portset (int_range 1 2)) in
  let candidates = list_size (int_range 1 3) usage in
  triple
    (list_repeat num_random_schemes candidates)
    (list_repeat num_random_schemes (int_range 0 3))
    (int_range 1 5)

let build_bounds candidate_lists =
  let b = Bounds.create ~num_ports:random_ports in
  List.iteri (fun i cands -> Bounds.set_candidates b (scheme i) cands)
    candidate_lists;
  b

let build_experiment counts =
  Experiment.of_counts (List.mapi (fun i n -> (scheme i, n)) counts)

(* Every completion: one candidate per scheme, as a concrete mapping. *)
let completions candidate_lists =
  List.fold_left
    (fun acc (i, cands) ->
       List.concat_map
         (fun partial -> List.map (fun c -> (i, c) :: partial) cands)
         acc)
    [ [] ]
    (List.mapi (fun i c -> (i, c)) candidate_lists)
  |> List.map (fun rows ->
      let m = Mapping.create ~num_ports:random_ports in
      List.iter (fun (i, usage) -> Mapping.set m (scheme i) usage) rows;
      m)

let prop_interval_sound =
  QCheck2.Test.make
    ~name:"every completion's exact tp lies in the interval" ~count:200
    partial_gen
    (fun (candidate_lists, counts, r_max) ->
       let e = build_experiment counts in
       QCheck2.assume (not (Experiment.is_empty e));
       let b = build_bounds candidate_lists in
       let iv = Bounds.inverse_bounded ~r_max b e in
       Rat.compare iv.Bounds.lo iv.Bounds.hi <= 0
       && List.for_all
            (fun m ->
               let v = Throughput.inverse_bounded ~r_max m e in
               Rat.compare iv.Bounds.lo v <= 0
               && Rat.compare v iv.Bounds.hi <= 0)
            (completions candidate_lists))

let prop_point_equals_exact =
  QCheck2.Test.make
    ~name:"singleton candidates give the exact oracle as a point" ~count:200
    partial_gen
    (fun (candidate_lists, counts, r_max) ->
       let e = build_experiment counts in
       QCheck2.assume (not (Experiment.is_empty e));
       let m = Mapping.create ~num_ports:random_ports in
       List.iteri (fun i cands -> Mapping.set m (scheme i) (List.hd cands))
         candidate_lists;
       let iv = Bounds.inverse_bounded ~r_max (Bounds.of_mapping m) e in
       Bounds.is_point iv
       && Rat.equal iv.Bounds.lo (Throughput.inverse_bounded ~r_max m e))

let prop_matches_naive_reference =
  QCheck2.Test.make
    ~name:"memoized interval = naive subset-enumeration interval" ~count:200
    partial_gen
    (fun (candidate_lists, counts, _) ->
       let e = build_experiment counts in
       QCheck2.assume (not (Experiment.is_empty e));
       let b = build_bounds candidate_lists in
       let iv = Bounds.inverse b e in
       let candidates s =
         let rec find i =
           if i >= num_random_schemes then raise Not_found
           else if Scheme.equal (scheme i) s then List.nth candidate_lists i
           else find (i + 1)
         in
         find 0
       in
       let lo, hi = Throughput.inverse_interval ~candidates e in
       Rat.equal iv.Bounds.lo lo && Rat.equal iv.Bounds.hi hi)

(* ------------------------------------------------------------------ *)
(* Refuter                                                             *)
(* ------------------------------------------------------------------ *)

let toy_refuter () =
  Mapcheck.Refuter.create ~num_ports:3 ~r_max:toy_r_max
    (List.map
       (fun (s, spec) ->
          match spec with
          | Encoding.Proper c ->
            (s, Mapcheck.proper_candidates ~num_ports:3 c)
          | Encoding.Improper _ -> assert false)
       toy_specs)

let test_statically_determined () =
  let r = toy_refuter () in
  (* Every c-port candidate of a Proper-c singleton benchmark gives the
     same 1/c, so the measurement is statically determined... *)
  Alcotest.(check (option rat)) "add singleton" (Some (Rat.of_ints 1 2))
    (Mapcheck.Refuter.statically_determined r (Experiment.singleton add));
  Alcotest.(check (option rat)) "fma singleton" (Some (Rat.of_int 1))
    (Mapcheck.Refuter.statically_determined r (Experiment.singleton fma));
  (* ... while a pair depends on whether the two port sets overlap. *)
  Alcotest.(check (option rat)) "pair undetermined" None
    (Mapcheck.Refuter.statically_determined r
       (Experiment.of_list [ add; mul ]))

let test_observe_refutes_soundly () =
  let truth = toy_truth () in
  let config = toy_config () in
  let r = toy_refuter () in
  let observe e =
    ignore (Mapcheck.Refuter.observe r e (Cegis.modeled_inverse config truth e))
  in
  observe (Experiment.of_counts [ (add, 2); (fma, 1) ]);
  observe (Experiment.of_list [ add; mul ]);
  observe (Experiment.of_counts [ (mul, 2); (fma, 1) ]);
  (* Whatever was refuted, the ground-truth rows must survive. *)
  List.iter
    (fun s ->
       match Mapcheck.Refuter.surviving r s with
       | None -> Alcotest.failf "%s lost all candidates" (Scheme.name s)
       | Some cands ->
         Alcotest.(check bool)
           (Scheme.name s ^ " truth survives")
           true
           (List.exists
              (fun u -> Mapping.equal_usage u (Mapping.usage truth s))
              cands))
    [ add; mul; fma ]

let test_observe_refutes_determined () =
  (* With both schemes free the intervals stay wide and nothing is
     refutable; once add and mul are pinned to known rows, an observation
     of [2 fma + 4 mul] = 3 pins fma off port 0: fma={0} yields exactly 2
     there. *)
  let truth = toy_truth () in
  let r =
    Mapcheck.Refuter.create ~num_ports:3 ~r_max:toy_r_max
      [ (add, [ Mapping.usage truth add ]); (mul, [ Mapping.usage truth mul ]);
        (fma, Mapcheck.proper_candidates ~num_ports:3 1) ]
  in
  let e = Experiment.of_counts [ (fma, 2); (mul, 4) ] in
  let v = Throughput.inverse_bounded ~r_max:toy_r_max truth e in
  Alcotest.check rat "observed value" (Rat.of_int 3) v;
  let refuted = Mapcheck.Refuter.observe r e v in
  Alcotest.(check bool) "fma={0} refuted" true
    (List.exists
       (fun (s, u) ->
          Scheme.equal s fma
          && Mapping.equal_usage u [ (Portset.singleton 0, 1) ])
       refuted);
  Alcotest.(check int) "refuted count" 1 (Mapcheck.Refuter.refuted_count r);
  match Mapcheck.Refuter.surviving r fma with
  | Some cands ->
    Alcotest.(check int) "two fma candidates left" 2 (List.length cands);
    Alcotest.(check bool) "truth survives" true
      (List.exists
         (fun u -> Mapping.equal_usage u (Mapping.usage truth fma))
         cands)
  | None -> Alcotest.fail "fma untracked"

(* ------------------------------------------------------------------ *)
(* Auditor                                                             *)
(* ------------------------------------------------------------------ *)

let show diags =
  String.concat "\n" (List.map Pmi_diag.Diag.to_string diags)

let check_no_errors label diags =
  match Mapcheck.errors diags with
  | [] -> ()
  | errors -> Alcotest.failf "%s:\n%s" label (show errors)

let test_builtin_clean () =
  let diags = Mapcheck.builtin () in
  check_no_errors "shipped ground-truth mappings" diags;
  List.iter (fun d -> Printf.printf "%s\n" (Pmi_diag.Diag.to_string d)) diags

(* Observations of the true mapping over singletons and weighted pairs —
   rich enough that each seeded mutation below shifts at least one
   value beyond the ε tolerance. *)
let truth_observations truth =
  let schemes = [ add; mul; fma ] in
  let experiments =
    List.concat_map
      (fun s ->
         [ Experiment.singleton s; Experiment.of_counts [ (s, 2) ];
           Experiment.of_counts [ (s, 4) ] ])
      schemes
    @ List.concat_map
        (fun a ->
           List.concat_map
             (fun b ->
                if Scheme.id a < Scheme.id b then
                  [ Experiment.of_list [ a; b ];
                    Experiment.of_counts [ (a, 2); (b, 1) ];
                    Experiment.of_counts [ (a, 1); (b, 2) ] ]
                else [])
             schemes)
        schemes
  in
  List.map
    (fun e -> (e, Throughput.inverse_bounded ~r_max:toy_r_max truth e))
    experiments

let audit_against observations m =
  Mapcheck.audit_mapping ~against:observations ~r_max:toy_r_max
    ~subject:"mutant" m

let test_truth_consistent () =
  let truth = toy_truth () in
  check_no_errors "truth vs its own observations"
    (audit_against (truth_observations truth) truth)

let test_mutations_flagged () =
  let truth = toy_truth () in
  let observations = truth_observations truth in
  let mutate label scheme usage =
    let m = toy_truth () in
    Mapping.set m scheme usage;
    let diags = audit_against observations m in
    if
      not
        (List.exists
           (fun d -> d.Mapcheck.rule = "counter-inconsistent")
           (Mapcheck.errors diags))
    then
      Alcotest.failf "mutation %s not flagged as counter-inconsistent:\n%s"
        label (show diags)
  in
  (* Port identity: fma on the wrong (but same-arity) port. *)
  mutate "fma {2}->{0}" fma [ (Portset.singleton 0, 1) ];
  (* Cardinality: add loses a port. *)
  mutate "add {0,1}->{0}" add [ (Portset.singleton 0, 1) ];
  (* Multiplicity: fma doubles its µop. *)
  mutate "fma x1->x2" fma [ (Portset.singleton 2, 2) ];
  (* Port-set shift that is not a permutation of the whole mapping. *)
  mutate "mul {1,2}->{0,1}" mul [ (Portset.of_list [ 0; 1 ], 1) ]

let test_dominance () =
  let truth = toy_truth () in
  Alcotest.(check (list (pair int int))) "toy has no interchangeable pair"
    [] (Mapcheck.interchangeable_ports truth);
  let m = Mapping.create ~num_ports:4 in
  Mapping.set m add [ (Portset.of_list [ 0; 1 ], 1) ];
  Mapping.set m mul [ (Portset.of_list [ 0; 1 ], 1) ];
  Alcotest.(check (list (pair int int))) "unconstrained pairs"
    [ (0, 1); (2, 3) ]
    (Mapcheck.interchangeable_ports m);
  (* fma confined to port 1 while add spans {0,1}: port 1's µops always
     admit port 1... dominance is about confinement: everything that can
     run confined to 0 can also run on 1 and not conversely. *)
  let d = Mapping.create ~num_ports:2 in
  Mapping.set d add [ (Portset.of_list [ 0; 1 ], 1) ];
  Mapping.set d fma [ (Portset.singleton 1, 1) ];
  Alcotest.(check (list (pair int int))) "dominated pair" [ (0, 1) ]
    (Mapcheck.dominated_ports d)

(* ------------------------------------------------------------------ *)
(* CEGIS equivalence: --mapcheck is a pure optimisation                *)
(* ------------------------------------------------------------------ *)

let infer_toy config =
  let truth = toy_truth () in
  let measure e = Cegis.modeled_inverse config truth e in
  match Cegis.infer ~config ~measure ~specs:toy_specs () with
  | Cegis.Converged (m, stats) -> (m, stats)
  | Cegis.No_consistent_mapping _ | Cegis.Iteration_limit _ ->
    Alcotest.fail "toy CEGIS failed to converge"

let check_same_mapping label m1 m2 =
  List.iter
    (fun s ->
       Alcotest.(check string)
         (Printf.sprintf "%s: %s" label (Scheme.name s))
         (Mapping.usage_to_string (Mapping.usage m1 s))
         (Mapping.usage_to_string (Mapping.usage m2 s)))
    [ add; mul; fma ]

let test_cegis_equivalence () =
  let m_off, s_off = infer_toy (toy_config ()) in
  let m_on, s_on = infer_toy (toy_config ~mapcheck:true ()) in
  check_same_mapping "plain" m_off m_on;
  let n_off = List.length s_off.Cegis.observations in
  let n_on = List.length s_on.Cegis.observations in
  if n_on >= n_off then
    Alcotest.failf "mapcheck did not save measurements: %d -> %d" n_off n_on;
  Alcotest.(check bool) "episodes counted" true (s_on.Cegis.sat_episodes > 0)

let test_cegis_equivalence_certified () =
  let m_off, _ = infer_toy (toy_config ~certify:true ()) in
  let m_on, s_on = infer_toy (toy_config ~mapcheck:true ~certify:true ()) in
  check_same_mapping "certified" m_off m_on;
  Alcotest.(check bool) "still saves measurements" true
    (List.length s_on.Cegis.observations > 0)

(* ------------------------------------------------------------------ *)
(* Hardening pins: Mapping_io and Diff                                 *)
(* ------------------------------------------------------------------ *)

let test_duplicate_row_rejected () =
  let resolve = Mapping_io.resolver toy_catalog in
  let text =
    "ports 3\n\
     scheme \"add <GPR[64]>, <GPR[64]>\" 1x[0,1]\n\
     scheme \"add <GPR[64]>, <GPR[64]>\" 1x[2]\n"
  in
  match Mapping_io.of_string ~resolve text with
  | Error e ->
    Alcotest.(check int) "points at the second row" 3 e.Mapping_io.line
  | Ok _ -> Alcotest.fail "duplicate scheme row accepted"

let test_out_of_range_port_is_error () =
  let resolve = Mapping_io.resolver toy_catalog in
  let text = "ports 3\nscheme \"add <GPR[64]>, <GPR[64]>\" 1x[7]\n" in
  match Mapping_io.of_string ~resolve text with
  | Error (_ : Mapping_io.error) -> ()
  | Ok _ -> Alcotest.fail "out-of-range port accepted"

let test_diff_empty_agreement () =
  let empty () = Mapping.create ~num_ports:3 in
  let d = Diff.compute ~left:(empty ()) ~right:(empty ()) in
  Alcotest.(check (float 0.0)) "vacuous agreement is total" 1.0
    (Diff.agreement_ratio d)

(* ------------------------------------------------------------------ *)

let qsuite tests = List.map QCheck_alcotest.to_alcotest tests

let () =
  Alcotest.run "mapcheck"
    [ ("intervals",
       qsuite
         [ prop_interval_sound; prop_point_equals_exact;
           prop_matches_naive_reference ]);
      ("refuter",
       [ Alcotest.test_case "statically determined singletons" `Quick
           test_statically_determined;
         Alcotest.test_case "observe refutes soundly" `Quick
           test_observe_refutes_soundly;
         Alcotest.test_case "observe refutes in determined context" `Quick
           test_observe_refutes_determined ]);
      ("auditor",
       [ Alcotest.test_case "shipped mappings clean" `Quick test_builtin_clean;
         Alcotest.test_case "truth consistent with itself" `Quick
           test_truth_consistent;
         Alcotest.test_case "seeded mutations flagged" `Quick
           test_mutations_flagged;
         Alcotest.test_case "dominance analysis" `Quick test_dominance ]);
      ("cegis",
       [ Alcotest.test_case "mapcheck preserves the mapping" `Quick
           test_cegis_equivalence;
         Alcotest.test_case "certified run unchanged" `Quick
           test_cegis_equivalence_certified ]);
      ("hardening",
       [ Alcotest.test_case "duplicate scheme row rejected" `Quick
           test_duplicate_row_rejected;
         Alcotest.test_case "out-of-range port is a parse error" `Quick
           test_out_of_range_port_is_error;
         Alcotest.test_case "empty diff agreement ratio" `Quick
           test_diff_empty_agreement ]) ]
