(* The trust-but-verify layer: the independent DRAT checker against the
   CDCL engine's proof traces, SAT-model validation, certified CEGIS runs,
   and the lint pass on deliberately broken data. *)

open Pmi_smt
module Drat = Pmi_analysis.Drat
module Lint = Pmi_analysis.Lint
module Cegis = Pmi_core.Cegis
module Encoding = Pmi_core.Encoding
module Catalog = Pmi_isa.Catalog
module Operand = Pmi_isa.Operand
module Iclass = Pmi_isa.Iclass
module Scheme = Pmi_isa.Scheme
module Portset = Pmi_portmap.Portset
module Mapping = Pmi_portmap.Mapping
module Experiment = Pmi_portmap.Experiment
module Profile = Pmi_machine.Profile
module Rat = Pmi_numeric.Rat

let is_sat = function Sat.Sat _ -> true | Sat.Unsat -> false

let check_ok label = function
  | Ok () -> ()
  | Error e ->
    Alcotest.failf "%s: certificate rejected: %s" label
      (Format.asprintf "%a" Drat.pp_error e)

let expect_reject label = function
  | Ok () -> Alcotest.failf "%s: bogus certificate accepted" label
  | Error (_ : Drat.error) -> ()

let pigeonhole s ~pigeons ~holes =
  let v =
    Array.init pigeons (fun _ -> Array.init holes (fun _ -> Sat.fresh_var s))
  in
  for p = 0 to pigeons - 1 do
    Sat.add_clause s (Array.to_list (Array.map Lit.pos v.(p)))
  done;
  for h = 0 to holes - 1 do
    for p1 = 0 to pigeons - 1 do
      for p2 = p1 + 1 to pigeons - 1 do
        Sat.add_clause s [ Lit.neg_of_var v.(p1).(h); Lit.neg_of_var v.(p2).(h) ]
      done
    done
  done

(* ------------------------------------------------------------------ *)
(* DRAT certificates for solver verdicts                               *)
(* ------------------------------------------------------------------ *)

let test_drat_pigeonhole () =
  let s = Sat.create () in
  Sat.set_proof_logging s true;
  pigeonhole s ~pigeons:5 ~holes:4;
  Alcotest.(check bool) "unsat" false (is_sat (Sat.solve s));
  let proof = Sat.proof s in
  Alcotest.(check bool) "trace has derivations" true
    (List.exists (function Sat.Derive _ -> true | _ -> false) proof);
  check_ok "php 5/4" (Drat.check proof)

let test_drat_assumptions () =
  (* UNSAT under assumptions: the goal clause is the negated assumption
     set, and the same trace later certifies an unconditional SAT model. *)
  let s = Sat.create () in
  Sat.set_proof_logging s true;
  let a = Sat.fresh_var s in
  let b = Sat.fresh_var s in
  Sat.add_clause s [ Lit.neg_of_var a; Lit.pos b ];
  let assumptions = [ Lit.pos a; Lit.neg_of_var b ] in
  (match Sat.solve ~assumptions s with
   | Sat.Unsat -> ()
   | Sat.Sat _ -> Alcotest.fail "assumptions should conflict");
  check_ok "assumption goal"
    (Drat.check ~goal:(List.map Lit.negate assumptions) (Sat.proof s));
  match Sat.solve s with
  | Sat.Sat model ->
    check_ok "model validates" (Drat.validate_model ~model (Sat.proof s))
  | Sat.Unsat -> Alcotest.fail "should be sat without assumptions"

let test_drat_rejects_stripped_proof () =
  (* The pigeonhole axioms alone have no unit clauses, so without the
     learnt derivations nothing propagates and the empty clause is not
     RUP: a trace with every [Derive] removed must be rejected. *)
  let s = Sat.create () in
  Sat.set_proof_logging s true;
  pigeonhole s ~pigeons:5 ~holes:4;
  Alcotest.(check bool) "unsat" false (is_sat (Sat.solve s));
  let inputs_only =
    List.filter (function Sat.Input _ -> true | _ -> false) (Sat.proof s)
  in
  expect_reject "inputs alone" (Drat.check inputs_only)

let test_drat_rejects_non_rup () =
  (* a -> b -> c constrains nothing about ¬c: deriving [¬c] is not RUP. *)
  let a = Lit.pos 0 and b = Lit.pos 1 and c = Lit.pos 2 in
  let steps =
    [ Sat.Input [ Lit.negate a; b ];
      Sat.Input [ Lit.negate b; c ];
      Sat.Derive [ Lit.negate c ] ]
  in
  (match Drat.check steps with
   | Ok () -> Alcotest.fail "non-RUP derivation accepted"
   | Error e -> Alcotest.(check int) "offending step" 2 e.Drat.step);
  (* A derivation over a completely unconstrained literal. *)
  expect_reject "unconstrained literal"
    (Drat.check [ Sat.Input [ a; b ]; Sat.Derive [ c ] ])

let test_drat_deletions () =
  let a = Lit.pos 0 and b = Lit.pos 1 in
  (* Deletion of a clause the rest of the proof no longer needs, plus an
     unmatched deletion (ignored, drat-trim style). *)
  let steps =
    [ Sat.Input [ a; b ];
      Sat.Input [ Lit.negate a; b ];
      Sat.Input [ a; Lit.negate b ];
      Sat.Derive [ b ];
      Sat.Delete [ a; b ];
      Sat.Delete [ Lit.negate a; Lit.negate b ];  (* never added *)
      Sat.Derive [ a ] ]
  in
  check_ok "delete then derive" (Drat.check ~goal:[ a ] steps);
  (* Deleting the only clause that powers a later derivation must make
     that derivation fail. *)
  (match
     Drat.check [ Sat.Input [ a; b ]; Sat.Delete [ a; b ]; Sat.Derive [ b ] ]
   with
   | Ok () -> Alcotest.fail "derivation from a deleted clause accepted"
   | Error e -> Alcotest.(check int) "offending step" 2 e.Drat.step)

let test_drat_model_rejects_violation () =
  let a = Lit.pos 0 and b = Lit.pos 1 in
  let steps = [ Sat.Input [ a; b ]; Sat.Input [ Lit.negate a; b ] ] in
  check_ok "good model" (Drat.validate_model ~model:[| false; true |] steps);
  expect_reject "bad model" (Drat.validate_model ~model:[| true; false |] steps);
  (* Variables beyond the model are false. *)
  expect_reject "short model" (Drat.validate_model ~model:[| true |] steps)

(* Property: on random 3-SAT, every verdict the engine produces is
   independently certifiable — UNSAT traces pass the DRAT check, SAT
   models satisfy every input clause — including across incremental
   solves. *)

let cnf3_gen =
  let open QCheck2.Gen in
  int_range 6 14 >>= fun n ->
  let lit = map2 (fun v pos -> Lit.make v pos) (int_range 0 (n - 1)) bool in
  let clause = map (fun (a, b, c) -> [ a; b; c ]) (triple lit lit lit) in
  int_range 20 70 >>= fun m ->
  map (fun clauses -> (n, clauses)) (list_repeat m clause)

let certify_verdict label s = function
  | Sat.Sat model ->
    (match Drat.validate_model ~model (Sat.proof s) with
     | Ok () -> true
     | Error e ->
       QCheck2.Test.fail_reportf "%s: model rejected: %s" label
         (Format.asprintf "%a" Drat.pp_error e))
  | Sat.Unsat ->
    (match Drat.check (Sat.proof s) with
     | Ok () -> true
     | Error e ->
       QCheck2.Test.fail_reportf "%s: proof rejected: %s" label
         (Format.asprintf "%a" Drat.pp_error e))

let prop_drat_random =
  QCheck2.Test.make ~name:"random 3-SAT verdicts are certifiable" ~count:80
    cnf3_gen
    (fun (n, clauses) ->
       let s = Sat.create () in
       Sat.set_proof_logging s true;
       for _ = 1 to n do
         ignore (Sat.fresh_var s)
       done;
       let half = List.length clauses / 2 in
       List.iteri (fun i c -> if i < half then Sat.add_clause s c) clauses;
       let first = certify_verdict "first solve" s (Sat.solve s) in
       (* Incremental continuation: the trace keeps growing and must still
          certify the second verdict. *)
       if Sat.okay s then
         List.iteri (fun i c -> if i >= half then Sat.add_clause s c) clauses;
       first && certify_verdict "second solve" s (Sat.solve s))

(* ------------------------------------------------------------------ *)
(* Certified CEGIS                                                     *)
(* ------------------------------------------------------------------ *)

let toy_catalog n =
  Catalog.of_list
    (List.init n (fun i ->
         (Printf.sprintf "i%c" (Char.chr (Char.code 'A' + i)),
          [ Operand.gpr 32 ], Iclass.plain (Iclass.Single Iclass.Alu))))

let certified_config ?(domains = 1) num_ports =
  { Cegis.default_config with
    Cegis.num_ports;
    r_max = num_ports + 1;
    max_experiment_size = 4;
    certify = true;
    domains }

(* Infer from perfect measurements of a hidden mapping with [certify] on:
   every UNSAT along the way must check as DRAT, every model must
   validate, or [Certification_failure] aborts the run. *)
let certified_cegis ?domains truth_usage =
  let catalog = toy_catalog (List.length truth_usage) in
  let num_ports = 2 in
  let truth = Mapping.create ~num_ports in
  List.iteri
    (fun i usage -> Mapping.set truth (Catalog.find catalog i) usage)
    truth_usage;
  let config = certified_config ?domains num_ports in
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
  Cegis.infer ~config ~measure ~specs ()

let figure4b =
  let p0 = Portset.singleton 0 in
  [ [ (p0, 1) ]; [ (p0, 1) ] ]

let expect_converged label = function
  | Cegis.Converged (_, _) -> ()
  | Cegis.No_consistent_mapping _ -> Alcotest.failf "%s: unexpected UNSAT" label
  | Cegis.Iteration_limit _ -> Alcotest.failf "%s: iteration limit" label

let test_certified_cegis_incremental () =
  expect_converged "incremental" (certified_cegis figure4b)

let test_certified_cegis_parallel () =
  (* Parallel stratified search and validation sweep under certification:
     every verdict still flows through the checker. *)
  expect_converged "parallel" (certified_cegis ~domains:3 figure4b)

let test_certified_explain_unsat () =
  (* A single 1-port instruction cannot take 10 cycles: the certified
     find_mapping call must reach a checker-accepted UNSAT and report no
     consistent mapping rather than raise. *)
  let catalog = toy_catalog 1 in
  let config = certified_config 1 in
  let scheme = Catalog.find catalog 0 in
  let specs = [ (scheme, Encoding.Proper 1) ] in
  let observations =
    [ { Cegis.experiment = Experiment.singleton scheme;
        cycles = Rat.of_int 10 } ]
  in
  match Cegis.explain ~config ~specs ~observations () with
  | None -> ()
  | Some _ -> Alcotest.fail "no mapping can explain 10 cycles"

(* ------------------------------------------------------------------ *)
(* Lint on seeded-bad data                                             *)
(* ------------------------------------------------------------------ *)

let rules diags = List.map (fun d -> d.Lint.rule) diags

let test_lint_bad_usage () =
  let diags =
    Lint.lint_usage ~num_ports:4 ~subject:"seeded"
      [ (Portset.empty, 1);
        (Portset.singleton 5, 0);
        (Portset.singleton 1, 1);
        (Portset.singleton 1, 2) ]
  in
  let rs = rules diags in
  List.iter
    (fun r -> Alcotest.(check bool) r true (List.mem r rs))
    [ "empty-port-set"; "port-out-of-range"; "non-positive-multiplicity";
      "duplicate-port-set" ];
  Alcotest.(check int) "errors" 3 (List.length (Lint.errors diags))

let test_lint_clean_usage () =
  Alcotest.(check int) "no diagnostics" 0
    (List.length
       (Lint.lint_usage ~num_ports:4 ~subject:"ok"
          [ (Portset.of_list [ 0; 1 ], 1); (Portset.singleton 3, 2) ]))

let test_lint_bad_profile () =
  let gap = { Profile.zen_plus with Profile.name = "seeded-gap"; r_max = 1 } in
  Alcotest.(check bool) "throughput gap flagged" true
    (List.mem "profile-throughput-gap" (rules (Lint.errors (Lint.lint_profile gap))));
  let neg =
    { Profile.zen_plus with Profile.name = "seeded-neg"; div_occupancy = 0 }
  in
  Alcotest.(check bool) "non-positive constant flagged" true
    (List.mem "profile-nonpositive-constant"
       (rules (Lint.errors (Lint.lint_profile neg))));
  List.iter
    (fun p ->
       Alcotest.(check int)
         (Printf.sprintf "shipped profile %s lints clean" p.Profile.name)
         0
         (List.length (Lint.lint_profile p)))
    Profile.all

let test_lint_mapping_negatives () =
  let catalog = toy_catalog 2 in
  let m = Mapping.create ~num_ports:4 in
  Mapping.set m (Catalog.find catalog 0) [ (Portset.singleton 0, 1) ];
  Mapping.set m (Catalog.find catalog 1) [ (Portset.singleton 0, 2) ];
  let reference = Mapping.create ~num_ports:4 in
  Mapping.set reference (Catalog.find catalog 0)
    [ (Portset.singleton 0, 1); (Portset.singleton 1, 1) ];
  let diags = Lint.lint_mapping ~reference ~subject:"seeded" m in
  let rs = rules diags in
  Alcotest.(check bool) "uop-count-mismatch" true
    (List.mem "uop-count-mismatch" rs);
  Alcotest.(check bool) "unreachable-port" true
    (List.mem "unreachable-port" rs);
  (* Both findings are advisory: the mapping is still usable. *)
  Alcotest.(check int) "no errors" 0 (List.length (Lint.errors diags))

let test_lint_catalog_toy () =
  Alcotest.(check int) "toy catalog lints clean" 0
    (List.length (Lint.errors (Lint.lint_catalog (toy_catalog 4))))

let test_lint_json () =
  let d =
    { Lint.rule = "demo"; severity = Lint.Error; subject = {|scheme "add"|};
      message = "line\nbreak" }
  in
  Alcotest.(check string) "json escaping"
    {|{"rule": "demo", "severity": "error", "subject": "scheme \"add\"", "message": "line\nbreak"}|}
    (Lint.to_json d);
  Alcotest.(check string) "text rendering"
    "error[demo] scheme \"add\": line\nbreak" (Lint.to_string d)

let qsuite tests = List.map QCheck_alcotest.to_alcotest tests

let () =
  Alcotest.run "analysis"
    [ ("drat",
       [ Alcotest.test_case "pigeonhole certificate" `Quick test_drat_pigeonhole;
         Alcotest.test_case "assumption goal" `Quick test_drat_assumptions;
         Alcotest.test_case "rejects stripped proof" `Quick
           test_drat_rejects_stripped_proof;
         Alcotest.test_case "rejects non-RUP derivation" `Quick
           test_drat_rejects_non_rup;
         Alcotest.test_case "deletions" `Quick test_drat_deletions;
         Alcotest.test_case "model validation" `Quick
           test_drat_model_rejects_violation ]
       @ qsuite [ prop_drat_random ]);
      ("certified-cegis",
       [ Alcotest.test_case "incremental" `Quick test_certified_cegis_incremental;
         Alcotest.test_case "parallel" `Slow test_certified_cegis_parallel;
         Alcotest.test_case "certified UNSAT" `Quick
           test_certified_explain_unsat ]);
      ("lint",
       [ Alcotest.test_case "bad usage" `Quick test_lint_bad_usage;
         Alcotest.test_case "clean usage" `Quick test_lint_clean_usage;
         Alcotest.test_case "bad profile" `Quick test_lint_bad_profile;
         Alcotest.test_case "mapping negatives" `Quick
           test_lint_mapping_negatives;
         Alcotest.test_case "toy catalog" `Quick test_lint_catalog_toy;
         Alcotest.test_case "json rendering" `Quick test_lint_json ]) ]
