(* The @mapcheck gate: the semantic auditor must stay silent on everything
   the repo ships and on a mapping replayed against its own observations,
   loud on seeded corruption, and usable at any port count, since it runs
   on the sparse throughput kernel. *)

open Pmi_isa
open Pmi_portmap
module Rat = Pmi_numeric.Rat
module Mapcheck = Pmi_analysis.Mapcheck

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

(* MapCheck copies the harness's ε, because [pmi_analysis] sits below
   [pmi_measure].  The copy must agree with the harness at the edge: an
   observation exactly ε·|e| from the model is accepted by both, and one a
   millicycle beyond is refused by both, on either side of the model. *)
let test_epsilon_matches_harness () =
  let module Compare = Pmi_measure.Harness.Compare in
  let truth = toy_truth () in
  List.iter
    (fun e ->
       let length = Experiment.length e in
       let expected = Throughput.inverse_bounded ~r_max:toy_r_max truth e in
       let edge = Rat.mul Compare.default_epsilon (Rat.of_int length) in
       List.iter
         (fun (what, offset, accepted) ->
            List.iter
              (fun observed ->
                 let label =
                   Printf.sprintf "%s = %s (%s)" (Experiment.to_string e)
                     (Rat.to_string observed) what
                 in
                 let flagged =
                   List.exists
                     (fun d -> d.Mapcheck.rule = "counter-inconsistent")
                     (audit_against [ (e, observed) ] truth)
                 in
                 Alcotest.(check bool) (label ^ ": harness") accepted
                   (Compare.cpi_equal ~length observed expected);
                 Alcotest.(check bool) (label ^ ": MapCheck") accepted
                   (not flagged))
              [ Rat.add expected offset; Rat.sub expected offset ])
         [ ("at ε·|e|", edge, true);
           ("a millicycle beyond", Rat.add edge (Rat.of_ints 1 1000), false) ])
    [ Experiment.singleton add;
      Experiment.of_counts [ (add, 2); (fma, 1) ];
      Experiment.of_counts [ (mul, 3); (fma, 2) ] ]

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

(* No port limit: on a 24-port mapping, one observation the mapping
   explains and one it contradicts give exactly one error. *)
let test_wide_mapping () =
  let m = Mapping.create ~num_ports:24 in
  Mapping.set m add [ (Portset.of_list [ 0; 23 ], 1) ];
  Mapping.set m fma [ (Portset.singleton 20, 1) ];
  let e = Experiment.of_counts [ (add, 2); (fma, 2) ] in
  let against =
    [ (e, Throughput.inverse_bounded ~r_max:toy_r_max m e);
      (Experiment.singleton add, Rat.of_int 2) ]
  in
  let diags =
    Mapcheck.audit_mapping ~against ~r_max:toy_r_max ~subject:"wide" m
  in
  match Mapcheck.errors diags with
  | [ d ] when d.Mapcheck.rule = "counter-inconsistent" -> ()
  | errors ->
    Alcotest.failf "expected one counter-inconsistent error:\n%s"
      (show errors)

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

let () =
  Alcotest.run "mapcheck"
    [ ("auditor",
       [ Alcotest.test_case "shipped mappings clean" `Quick test_builtin_clean;
         Alcotest.test_case "truth consistent with itself" `Quick
           test_truth_consistent;
         Alcotest.test_case "seeded mutations flagged" `Quick
           test_mutations_flagged;
         Alcotest.test_case "epsilon edge agrees with the harness" `Quick
           test_epsilon_matches_harness;
         Alcotest.test_case "dominance analysis" `Quick test_dominance;
         Alcotest.test_case "24-port mapping audited" `Quick
           test_wide_mapping ]);
      ("hardening",
       [ Alcotest.test_case "duplicate scheme row rejected" `Quick
           test_duplicate_row_rejected;
         Alcotest.test_case "out-of-range port is a parse error" `Quick
           test_out_of_range_port_is_error;
         Alcotest.test_case "empty diff agreement ratio" `Quick
           test_diff_empty_agreement ]) ]
