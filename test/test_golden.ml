(* Golden paper gate: one full-catalog Pipeline.run on the default
   simulated Zen+ machine (measurement seed 42, as `pmi_repro` runs it),
   pinning the paper-facing outputs EXPERIMENTS.md reports — the funnel,
   Tables 1 and 2, the §4.3 culprits and the final CEGIS round's
   experiment count.  `dune build @golden` runs this suite alone.

   The experiment count depends on the solver's model order, so it is
   pinned to the paper's band of 55–59 rather than to one value.  The
   Figure 5 ordering is not checked here: its evaluation takes far longer
   than the pipeline itself. *)

open Pmi_isa
open Pmi_core
module Mapping = Pmi_portmap.Mapping

let result =
  lazy
    (let machine = Pmi_machine.Machine.create (Catalog.zen_plus ()) in
     Pipeline.run (Pmi_measure.Harness.create machine))

let funnel_lines =
  [ "instruction schemes                          2980   (paper: 2,980)";
    "excluded when benchmarked alone (§4.1.2)     657   (paper: 657)";
    "remaining after stage 1                      2323   (paper: 2,323)";
    "single-µop candidates                        691   (paper: 691)";
    "excluded in pairing experiments (§4.2)       436   (paper: 436)";
    "remaining after stage 2                      1887   (paper: 1,887)";
    "blocking candidates                           563   (paper: 563)";
    "blocking classes (Table 1)                     13   (paper: 13)";
    "excluded with culprit mnemonics (§4.3)        68   (paper: 68)";
    "considered in the final stage                1819   (paper: 1,819)";
    "regular decomposition patterns (§4.4)       1242   (paper: ~70%)";
    "microcode-sequencer artefacts                 146   (paper: ~8%)";
    "unstable / outside the model                  119   (paper: ~7%)";
    "schemes with an inferred port mapping        1700   (paper: 1,700)" ]

(* (port count, representative, class size) in Table 1 order. *)
let table1 =
  [ (4, "add <GPR[32]>, <GPR[32]>", 234);
    (4, "vpor <XMM>, <XMM>, <XMM>", 21);
    (3, "vpaddd <XMM>, <XMM>, <XMM>", 30);
    (2, "vminps <XMM>, <XMM>, <XMM>", 143);
    (2, "vbroadcastss <XMM>, <XMM>", 50);
    (2, "vpaddsw <XMM>, <XMM>, <XMM>", 17);
    (2, "vaddps <XMM>, <XMM>, <XMM>", 10);
    (2, "mov <GPR[32]>, <MEM[32]>", 6);
    (1, "vpslld <XMM>, <XMM>, <XMM>", 27);
    (1, "vpmuldq <XMM>, <XMM>, <XMM>", 10);
    (1, "imul <GPR[32]>, <GPR[32]>", 9);
    (1, "vroundps <XMM>, <XMM>, <IMM[8]>", 4);
    (1, "vmovd <XMM>, <GPR[32]>", 2) ]

(* Inferred port usage after renaming, in Table 2 order: the surviving
   classes, then the improper store blockers. *)
let table2 =
  [ ("add <GPR[32]>, <GPR[32]>", "[6,7,8,9]");
    ("vpor <XMM>, <XMM>, <XMM>", "[0,1,2,3]");
    ("vpaddd <XMM>, <XMM>, <XMM>", "[0,1,3]");
    ("vminps <XMM>, <XMM>, <XMM>", "[0,1]");
    ("vbroadcastss <XMM>, <XMM>", "[1,2]");
    ("vpaddsw <XMM>, <XMM>, <XMM>", "[0,3]");
    ("vaddps <XMM>, <XMM>, <XMM>", "[2,3]");
    ("mov <GPR[32]>, <MEM[32]>", "[4,5]");
    ("vpslld <XMM>, <XMM>, <XMM>", "[2]");
    ("vroundps <XMM>, <XMM>, <IMM[8]>", "[3]");
    ("mov <MEM[32]>, <GPR[32]>", "[5] + [6,7,8,9]");
    ("vmovaps <MEM[128]>, <XMM>", "[2] + [5]") ]

let test_funnel () =
  let r = Lazy.force result in
  let printed =
    Format.asprintf "%a" Pipeline.pp_funnel r.Pipeline.funnel
    |> String.split_on_char '\n'
    |> List.filter (fun l -> l <> "")
  in
  Alcotest.(check (list string)) "funnel lines" funnel_lines printed

let test_table1 () =
  let r = Lazy.force result in
  let rows =
    List.map
      (fun k ->
         (k.Blocking.port_count, Scheme.name k.Blocking.representative,
          List.length k.Blocking.members))
      r.Pipeline.filtering.Blocking.classes
  in
  Alcotest.(check (list (triple int string int))) "Table 1" table1 rows

let test_table2 () =
  let r = Lazy.force result in
  let removed k =
    List.exists
      (fun c ->
         Scheme.equal c.Blocking.representative k.Blocking.representative)
      r.Pipeline.removed_classes
  in
  let schemes =
    List.filter_map
      (fun k -> if removed k then None else Some k.Blocking.representative)
      r.Pipeline.filtering.Blocking.classes
    @ r.Pipeline.improper
  in
  let rows =
    List.map
      (fun s ->
         ( Scheme.name s,
           match Mapping.find_opt r.Pipeline.blocker_mapping s with
           | Some u -> Mapping.usage_to_string u
           | None -> "(unmapped)" ))
      schemes
  in
  Alcotest.(check (list (pair string string))) "Table 2" table2 rows;
  (* The renaming leaves the frontend-masked rows ambiguous, as in the
     paper; which rows those are moves with the raw CEGIS mapping. *)
  match r.Pipeline.alignment with
  | None -> Alcotest.fail "no port renaming found"
  | Some a ->
    Alcotest.(check int) "renamed schemes" 10 (List.length a.Relabel.matched);
    Alcotest.(check (list string)) "ambiguous after renaming"
      [ "add <GPR[32]>, <GPR[32]>"; "mov <MEM[32]>, <GPR[32]>" ]
      (List.map Scheme.name a.Relabel.dropped)

let test_culprits () =
  let r = Lazy.force result in
  let culprits =
    List.map
      (fun k -> Scheme.mnemonic k.Blocking.representative)
      r.Pipeline.removed_classes
    |> List.sort compare
  in
  Alcotest.(check (list string)) "§4.3 culprits" [ "imul"; "vmovd"; "vpmuldq" ]
    culprits;
  Alcotest.(check int) "schemes excluded with the culprits' mnemonics" 68
    r.Pipeline.funnel.Pipeline.excluded_mnemonic

let test_final_round () =
  let r = Lazy.force result in
  match r.Pipeline.cegis_stats with
  | None -> Alcotest.fail "no CEGIS statistics"
  | Some stats ->
    let experiments = List.length stats.Cegis.observations in
    if experiments < 55 || experiments > 59 then
      Alcotest.failf "final round measured %d experiments, outside the \
                      paper's 55-59" experiments

let () =
  Alcotest.run "golden"
    [ ("zen-plus",
       [ Alcotest.test_case "funnel (§4.1-§4.4)" `Quick test_funnel;
         Alcotest.test_case "Table 1 classes" `Quick test_table1;
         Alcotest.test_case "Table 2 rows" `Quick test_table2;
         Alcotest.test_case "§4.3 culprits and exclusions" `Quick test_culprits;
         Alcotest.test_case "final-round experiment count" `Quick
           test_final_round ]) ]
