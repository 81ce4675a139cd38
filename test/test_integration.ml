(* End-to-end pipeline integration tests on a reduced catalog: the §4 case
   study in miniature, with assertions against the simulated ground truth
   that the algorithm itself never sees. *)

open Pmi_isa
open Pmi_portmap
open Pmi_core
module Machine = Pmi_machine.Machine
module Harness = Pmi_measure.Harness

let catalog = Catalog.reduced ~per_bucket:3 ()
let machine = Machine.create catalog
let harness = Harness.create machine
let result = Pipeline.run harness
let truth = Machine.ground_truth machine

let test_thirteen_classes () =
  Alcotest.(check int) "Table 1: 13 classes" 13
    (List.length result.Pipeline.filtering.Blocking.classes)

let test_culprits () =
  (* Exactly the paper's three anomalies are excluded during CEGIS. *)
  let culprit_mnemonics =
    List.map
      (fun k -> Scheme.mnemonic k.Blocking.representative)
      result.Pipeline.removed_classes
    |> List.sort compare
  in
  Alcotest.(check (list string)) "§4.3 culprits"
    [ "imul"; "vmovd"; "vpmuldq" ] culprit_mnemonics

let test_blocker_mapping_matches_truth () =
  (* Table 2: every surviving blocking class (and the improper store
     blockers) must match the documented = ground-truth port usage after
     renaming; the frontend-masked add ambiguity is resolved towards the
     documentation, as in the paper. *)
  List.iter
    (fun k ->
       let rep = k.Blocking.representative in
       if
         not
           (List.exists
              (fun r -> Scheme.equal r.Blocking.representative rep)
              result.Pipeline.removed_classes)
       then begin
         let inferred = Mapping.usage result.Pipeline.blocker_mapping rep in
         let documented = Mapping.usage truth rep in
         Alcotest.(check bool)
           (Printf.sprintf "Table 2 row: %s" (Scheme.name rep))
           true
           (Mapping.equal_usage inferred documented)
       end)
    result.Pipeline.filtering.Blocking.classes;
  List.iter
    (fun s ->
       let inferred = Mapping.usage result.Pipeline.blocker_mapping s in
       let documented = Mapping.usage truth s in
       Alcotest.(check bool)
         (Printf.sprintf "improper blocker: %s" (Scheme.name s))
         true
         (Mapping.equal_usage inferred documented))
    result.Pipeline.improper

let test_class_members_correct () =
  (* Every class member's true usage equals its representative's. *)
  List.iter
    (fun k ->
       let rep_usage = Mapping.usage truth k.Blocking.representative in
       List.iter
         (fun s ->
            Alcotest.(check bool)
              (Printf.sprintf "class member %s" (Scheme.name s))
              true
              (Mapping.equal_usage (Mapping.usage truth s) rep_usage))
         k.Blocking.members)
    result.Pipeline.filtering.Blocking.classes

let test_characterized_against_truth () =
  (* Algorithm 1's results for regular multi-µop schemes must equal the
     ground truth exactly (quiet quirk-free schemes). *)
  let check_bucket bucket =
    List.iter
      (fun s ->
         match Pipeline.verdict result s with
         | Pipeline.Characterized { usage; spurious } ->
           Alcotest.(check bool)
             (Printf.sprintf "%s not spurious" (Scheme.name s))
             false spurious;
           Alcotest.(check bool)
             (Printf.sprintf "usage of %s" (Scheme.name s))
             true
             (Mapping.equal_usage usage (Mapping.usage truth s))
         | Pipeline.Excluded_individual _ | Pipeline.Excluded_pairing
         | Pipeline.Excluded_mnemonic | Pipeline.Blocking_class _
         | Pipeline.Unstable_result _ ->
           Alcotest.failf "%s should have been characterised" (Scheme.name s))
      (Catalog.bucket catalog bucket)
  in
  List.iter check_bucket
    [ "regular/ymm"; "regular/vec-load"; "regular/ymm-load";
      "regular/scalar-load"; "regular/rmw"; "store/vec" ]

let test_microcoded_flagged () =
  List.iter
    (fun s ->
       match Pipeline.verdict result s with
       | Pipeline.Characterized { spurious; _ } ->
         Alcotest.(check bool)
           (Printf.sprintf "%s flagged spurious" (Scheme.name s))
           true spurious
       | Pipeline.Unstable_result _ -> ()
       | Pipeline.Excluded_individual _ | Pipeline.Excluded_pairing
       | Pipeline.Excluded_mnemonic | Pipeline.Blocking_class _ ->
         Alcotest.failf "%s: unexpected verdict" (Scheme.name s))
    (Catalog.bucket catalog "microcoded")

let test_unstable_flagged () =
  List.iter
    (fun s ->
       match Pipeline.verdict result s with
       | Pipeline.Unstable_result _ -> ()
       | Pipeline.Characterized _ | Pipeline.Excluded_individual _
       | Pipeline.Excluded_pairing | Pipeline.Excluded_mnemonic
       | Pipeline.Blocking_class _ ->
         Alcotest.failf "%s should be unstable" (Scheme.name s))
    (Catalog.bucket catalog "unstable-tp")

let test_funnel_consistency () =
  let f = result.Pipeline.funnel in
  Alcotest.(check int) "total" (Catalog.size catalog) f.Pipeline.total;
  Alcotest.(check int) "stage-1 split" f.Pipeline.total
    (f.Pipeline.excluded_individual + f.Pipeline.after_stage1);
  Alcotest.(check int) "stage-2 split" f.Pipeline.after_stage1
    (f.Pipeline.excluded_pairing + f.Pipeline.after_stage2);
  Alcotest.(check int) "considered split" f.Pipeline.after_stage2
    (f.Pipeline.excluded_mnemonic + f.Pipeline.considered);
  Alcotest.(check int) "inferred + unstable = considered" f.Pipeline.considered
    (f.Pipeline.inferred + f.Pipeline.unstable);
  Alcotest.(check bool) "inferred mapping size" true
    (Mapping.size result.Pipeline.mapping = f.Pipeline.inferred)

let test_counter_free_matches_uops_info () =
  (* The paper's central claim, checked experimentally: on schemes inside
     the port-mapping model, the counter-free characterisation equals what
     the original uops.info algorithm reads off per-port µop counters. *)
  let quirk_free s = Scheme.quirk s = None in
  let blocker_pool =
    List.concat_map (Catalog.bucket catalog)
      [ "blocking/alu"; "blocking/vec-logic"; "blocking/vec-int";
        "blocking/fp-mul-cmp"; "blocking/shuffle"; "blocking/vec-sat";
        "blocking/fp-add"; "blocking/load"; "blocking/vec-shift";
        "blocking/fp-round" ]
    |> List.filter quirk_free
  in
  let blockers =
    (* Like the paper (and uops.info on Intel), the store µop has no proper
       blocking instruction: add the storing mov manually. *)
    Uops_info.blocking_instructions machine blocker_pool
    @ [ (List.find
           (fun s ->
              Scheme.mnemonic s = "mov" && Scheme.memory_writes s = [ 32 ]
              && Scheme.memory_reads s = [])
           (Array.to_list (Catalog.schemes catalog)),
         Portset.singleton 5) ]
  in
  (* Every ground-truth port set of the pool must be discovered. *)
  List.iter
    (fun s ->
       let expected = fst (List.hd (Mapping.usage truth s)) in
       Alcotest.(check bool)
         (Printf.sprintf "port set of %s discovered" (Scheme.name s))
         true
         (List.exists (fun (_, pu) -> Portset.equal pu expected) blockers))
    blocker_pool;
  (* Characterisations agree with the counter-free pipeline (and with the
     ground truth) on regular multi-µop schemes. *)
  List.iter
    (fun bucket ->
       List.iter
         (fun s ->
            let reference = Uops_info.characterize machine ~blockers s in
            Alcotest.(check bool)
              (Printf.sprintf "uops.info reference for %s" (Scheme.name s))
              true
              (Mapping.equal_usage reference (Mapping.usage truth s));
            match Pipeline.verdict result s with
            | Pipeline.Characterized { usage; _ } ->
              Alcotest.(check bool)
                (Printf.sprintf "counter-free agrees for %s" (Scheme.name s))
                true
                (Mapping.equal_usage usage reference)
            | Pipeline.Excluded_individual _ | Pipeline.Excluded_pairing
            | Pipeline.Excluded_mnemonic | Pipeline.Blocking_class _
            | Pipeline.Unstable_result _ ->
              Alcotest.failf "%s not characterised" (Scheme.name s))
         (Catalog.bucket catalog bucket))
    [ "regular/vec-load"; "regular/ymm"; "regular/rmw"; "store/vec" ]

let test_prediction_quality_of_result () =
  (* The final mapping must predict mixed blocks of inferred schemes well
     (this is what Figure 5 quantifies at scale). *)
  let covered =
    List.filter
      (Mapping.supports result.Pipeline.mapping)
      (Array.to_list (Catalog.schemes catalog))
  in
  let blocks = Pmi_eval.Blocks.generate ~count:60 ~block_size:4 covered in
  let pairs =
    List.map
      (fun e ->
         let measured =
           Pmi_numeric.Rat.to_float (Harness.cycles harness e)
         in
         let predicted =
           Pmi_numeric.Rat.to_float
             (Throughput.inverse_bounded ~r_max:5 result.Pipeline.mapping e)
         in
         (predicted, measured))
      blocks
  in
  let mape = Pmi_eval.Metrics.mape pairs in
  Alcotest.(check bool)
    (Printf.sprintf "MAPE %.1f%% below 12%%" mape)
    true (mape < 12.0)

let test_markdown_report () =
  let text = Pmi_eval.Report.render ~harness result in
  let contains fragment =
    let n = String.length text and m = String.length fragment in
    let rec go i =
      if i + m > n then false
      else if String.sub text i m = fragment then true
      else go (i + 1)
    in
    go 0
  in
  Alcotest.(check bool) "has funnel section" true (contains "## Case-study funnel");
  Alcotest.(check bool) "has Table 1" true
    (contains "## Blocking-instruction classes");
  Alcotest.(check bool) "has Table 2" true (contains "(Table 2)");
  Alcotest.(check bool) "has diff section" true
    (contains "## Agreement with the documented mapping");
  Alcotest.(check bool) "mentions the culprits" true (contains "`imul");
  Alcotest.(check bool) "renders class rows" true (contains "| 4 | `add")

let () =
  Alcotest.run "integration"
    [ ("pipeline",
       [ Alcotest.test_case "13 blocking classes" `Quick test_thirteen_classes;
         Alcotest.test_case "§4.3 culprits" `Quick test_culprits;
         Alcotest.test_case "Table 2 vs ground truth" `Quick
           test_blocker_mapping_matches_truth;
         Alcotest.test_case "class members homogeneous" `Quick
           test_class_members_correct;
         Alcotest.test_case "Algorithm 1 vs ground truth" `Quick
           test_characterized_against_truth;
         Alcotest.test_case "microcoded flagged spurious" `Quick
           test_microcoded_flagged;
         Alcotest.test_case "variable shifts unstable" `Quick
           test_unstable_flagged;
         Alcotest.test_case "funnel arithmetic" `Quick test_funnel_consistency;
         Alcotest.test_case "counter-free = uops.info reference" `Quick
           test_counter_free_matches_uops_info;
         Alcotest.test_case "prediction quality" `Quick
           test_prediction_quality_of_result;
         Alcotest.test_case "markdown report" `Quick test_markdown_report ]) ]
