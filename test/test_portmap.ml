open Pmi_isa
open Pmi_portmap
module Rat = Pmi_numeric.Rat

let rat = Alcotest.testable Rat.pp Rat.equal

(* The Figure 2 toy architecture: add = 1×u1 on {p1,p2}, mul = 1×u2 on {p2},
   fma = 2×u1 + 1×u2. *)
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

let both = Portset.of_list [ 0; 1 ]
let p2 = Portset.singleton 1

let toy_mapping () =
  let m = Mapping.create ~num_ports:2 in
  Mapping.set m add [ (both, 1) ];
  Mapping.set m mul [ (p2, 1) ];
  Mapping.set m fma [ (both, 2); (p2, 1) ];
  m

(* ------------------------------------------------------------------ *)
(* Portset                                                             *)
(* ------------------------------------------------------------------ *)

let test_portset_basic () =
  let s = Portset.of_list [ 0; 5; 3 ] in
  Alcotest.(check (list int)) "sorted" [ 0; 3; 5 ] (Portset.to_list s);
  Alcotest.(check int) "cardinal" 3 (Portset.cardinal s);
  Alcotest.(check bool) "mem" true (Portset.mem 5 s);
  Alcotest.(check bool) "not mem" false (Portset.mem 4 s);
  Alcotest.(check string) "render" "[0,3,5]" (Portset.to_string s);
  Alcotest.(check bool) "subset" true
    (Portset.subset (Portset.of_list [ 0; 3 ]) s);
  Alcotest.(check bool) "proper" true
    (Portset.proper_subset (Portset.of_list [ 0; 3 ]) s);
  Alcotest.(check bool) "not proper of itself" false (Portset.proper_subset s s)

let test_portset_subset_enum () =
  let s = Portset.of_list [ 1; 4 ] in
  let seen = ref [] in
  Portset.iter_subsets s (fun q -> seen := Portset.to_list q :: !seen);
  let sorted = List.sort compare !seen in
  Alcotest.(check (list (list int))) "all subsets"
    [ []; [ 1 ]; [ 1; 4 ]; [ 4 ] ] sorted

let prop_portset_ops =
  QCheck2.Test.make ~name:"portset mirrors int-set ops" ~count:300
    QCheck2.Gen.(pair (list_size (int_range 0 8) (int_range 0 9))
                   (list_size (int_range 0 8) (int_range 0 9)))
    (fun (xs, ys) ->
       let module IS = Set.Make (Int) in
       let a = Portset.of_list xs and b = Portset.of_list ys in
       let sa = IS.of_list xs and sb = IS.of_list ys in
       Portset.to_list (Portset.union a b) = IS.elements (IS.union sa sb)
       && Portset.to_list (Portset.inter a b) = IS.elements (IS.inter sa sb)
       && Portset.to_list (Portset.diff a b) = IS.elements (IS.diff sa sb)
       && Portset.subset a b = IS.subset sa sb
       && Portset.cardinal a = IS.cardinal sa)

(* ------------------------------------------------------------------ *)
(* Experiment                                                          *)
(* ------------------------------------------------------------------ *)

let test_experiment_multiset () =
  let e = Experiment.of_list [ mul; fma; mul ] in
  Alcotest.(check int) "length" 3 (Experiment.length e);
  Alcotest.(check int) "distinct" 2 (Experiment.distinct e);
  Alcotest.(check int) "count mul" 2 (Experiment.count e mul);
  Alcotest.(check int) "count add" 0 (Experiment.count e add);
  let e' = Experiment.of_counts [ (fma, 1); (mul, 2) ] in
  Alcotest.(check bool) "order-insensitive equality" true (Experiment.equal e e')

let test_experiment_union_add () =
  let e = Experiment.add ~count:3 add (Experiment.singleton mul) in
  Alcotest.(check int) "after add" 4 (Experiment.length e);
  let u = Experiment.union e (Experiment.replicate 2 mul) in
  Alcotest.(check int) "union count" 3 (Experiment.count u mul);
  Alcotest.(check bool) "drop non-positive" true
    (Experiment.is_empty (Experiment.of_counts [ (add, 0); (mul, -2) ]))

(* ------------------------------------------------------------------ *)
(* Throughput: the paper's running examples                            *)
(* ------------------------------------------------------------------ *)

let test_figure2_throughput () =
  let m = toy_mapping () in
  (* Figure 2(b): [mul, mul, fma] has inverse throughput 3. *)
  let e = Experiment.of_counts [ (mul, 2); (fma, 1) ] in
  Alcotest.check rat "tp⁻¹ [2×mul, fma]" (Rat.of_int 3) (Throughput.inverse m e);
  Alcotest.(check (list int)) "bottleneck is p2" [ 1 ]
    (Portset.to_list (Throughput.bottleneck_set m e))

let test_figure3_throughputs () =
  let m = toy_mapping () in
  (* Figure 3(a): fma with 3 blocking muls -> 4 cycles. *)
  let e1 = Experiment.of_counts [ (mul, 3); (fma, 1) ] in
  Alcotest.check rat "fma + 3 mul" (Rat.of_int 4) (Throughput.inverse m e1);
  (* Figure 3(b): fma with 6 blocking adds -> 4.5 cycles. *)
  let e2 = Experiment.of_counts [ (add, 6); (fma, 1) ] in
  Alcotest.check rat "fma + 6 add" (Rat.of_ints 9 2) (Throughput.inverse m e2)

let test_singletons () =
  let m = toy_mapping () in
  Alcotest.check rat "add alone" (Rat.of_ints 1 2)
    (Throughput.inverse m (Experiment.singleton add));
  Alcotest.check rat "mul alone" Rat.one
    (Throughput.inverse m (Experiment.singleton mul));
  Alcotest.check rat "fma alone" (Rat.of_ints 3 2)
    (Throughput.inverse m (Experiment.singleton fma))

let test_unsupported () =
  let m = Mapping.create ~num_ports:2 in
  Alcotest.check_raises "unsupported scheme"
    (Throughput.Unsupported add)
    (fun () -> ignore (Throughput.inverse m (Experiment.singleton add)))

let test_empty_experiment () =
  let m = toy_mapping () in
  Alcotest.check rat "empty" Rat.zero (Throughput.inverse m Experiment.empty)

let test_frontend_bound () =
  let m = toy_mapping () in
  (* 8 adds on 2 ports need 4 cycles; a frontend of 5/cycle is no bound,
     a frontend of 1/cycle is. *)
  let e = Experiment.replicate 8 add in
  Alcotest.check rat "unbounded" (Rat.of_int 4)
    (Throughput.inverse_bounded ~r_max:5 m e);
  Alcotest.check rat "bounded" (Rat.of_int 8)
    (Throughput.inverse_bounded ~r_max:1 m e);
  Alcotest.check rat "ipc" (Rat.of_int 2) (Throughput.ipc ~r_max:5 m e)

let test_uop_masses () =
  let m = toy_mapping () in
  let e = Experiment.of_counts [ (mul, 2); (fma, 1) ] in
  Alcotest.(check (list (pair (list int) int))) "masses"
    [ ([ 1 ], 3); ([ 0; 1 ], 2) ]
    (List.map (fun (p, n) -> (Portset.to_list p, n)) (Throughput.uop_masses m e))

(* ------------------------------------------------------------------ *)
(* Mapping                                                             *)
(* ------------------------------------------------------------------ *)

let test_mapping_normalisation () =
  let m = Mapping.create ~num_ports:4 in
  Mapping.set m add [ (both, 1); (both, 2); (p2, 0) ];
  Alcotest.(check string) "merged" "3 x [0,1]"
    (Mapping.usage_to_string (Mapping.usage m add));
  Alcotest.(check int) "uop count" 3 (Mapping.uop_count m add)

let test_mapping_validation () =
  let m = Mapping.create ~num_ports:2 in
  Alcotest.check_raises "port out of range"
    (Invalid_argument "Mapping.set: port out of range")
    (fun () -> Mapping.set m add [ (Portset.singleton 5, 1) ]);
  Alcotest.check_raises "empty port set"
    (Invalid_argument "Mapping.set: empty port set")
    (fun () -> Mapping.set m add [ (Portset.empty, 1) ])

let test_mapping_copy_independent () =
  let m = toy_mapping () in
  let m' = Mapping.copy m in
  Mapping.set m' add [ (p2, 1) ];
  Alcotest.(check bool) "original unchanged" true
    (Mapping.equal_usage (Mapping.usage m add) [ (both, 1) ])

(* A mapping stores each row once, as the compiled arrays; [usage] and
   [find_opt] decode them.  On 1 to 12 ports, with repeated port sets and
   zero counts, every view of a set row is [normalize_usage] of what was
   set. *)
let prop_mapping_row_views =
  let gen =
    QCheck2.Gen.(
      int_range 1 12 >>= fun ports ->
      map
        (fun u -> (ports, u))
        (list_size (int_range 0 6)
           (pair (int_range 1 ((1 lsl ports) - 1)) (int_range 0 3))))
  in
  QCheck2.Test.make ~name:"row arrays, usage and find_opt agree" ~count:300 gen
    (fun (ports, u) ->
       let u = List.map (fun (mask, n) -> (Portset.of_mask mask, n)) u in
       let m = Mapping.create ~num_ports:ports in
       Mapping.set m add u;
       let expected = Mapping.normalize_usage u in
       let r = Mapping.row m add in
       let masks = List.map (fun (p, _) -> Portset.to_mask p) expected in
       let counts = List.map snd expected in
       Mapping.usage m add = expected
       && Mapping.find_opt m add = Some expected
       && Mapping.uop_count m add = List.fold_left ( + ) 0 counts
       && r.Mapping.scheme == add
       && r.masks = Array.of_list masks
       && r.counts = Array.of_list counts)

(* ------------------------------------------------------------------ *)
(* LP cross-check                                                      *)
(* ------------------------------------------------------------------ *)

let test_lp_matches_formula_toy () =
  let m = toy_mapping () in
  List.iter
    (fun e ->
       Alcotest.check rat
         ("lp vs formula: " ^ Experiment.to_string e)
         (Throughput.inverse m e) (Lp_model.inverse m e))
    [ Experiment.singleton add;
      Experiment.singleton fma;
      Experiment.of_counts [ (mul, 2); (fma, 1) ];
      Experiment.of_counts [ (add, 6); (fma, 1) ];
      Experiment.of_counts [ (add, 3); (mul, 2); (fma, 2) ] ]

(* Random mappings and experiments: formula and LP must agree. *)
let random_schemes =
  let templates =
    List.init 5 (fun i ->
        (Printf.sprintf "i%d" i, [ Operand.gpr 32 ],
         Iclass.plain (Iclass.Single Iclass.Alu)))
  in
  Catalog.of_list templates

let prop_lp_equals_formula =
  let gen =
    let open QCheck2.Gen in
    let num_ports = 4 in
    let portset =
      map
        (fun bits -> if bits land ((1 lsl num_ports) - 1) = 0 then Portset.singleton 0
          else Portset.of_list
              (List.filter (fun p -> bits land (1 lsl p) <> 0)
                 (List.init num_ports Fun.id)))
        (int_range 1 15)
    in
    let usage = list_size (int_range 1 3) (pair portset (int_range 1 2)) in
    let usages = list_repeat 5 usage in
    let counts = list_repeat 5 (int_range 0 3) in
    pair usages counts
  in
  QCheck2.Test.make ~name:"simplex LP equals bottleneck formula" ~count:60 gen
    (fun (usages, counts) ->
       let m = Mapping.create ~num_ports:4 in
       List.iteri
         (fun i usage -> Mapping.set m (Catalog.find random_schemes i) usage)
         usages;
       let e =
         Experiment.of_counts
           (List.mapi (fun i n -> (Catalog.find random_schemes i, n)) counts)
       in
       Rat.equal (Throughput.inverse m e) (Lp_model.inverse m e))

let prop_throughput_monotone =
  QCheck2.Test.make ~name:"adding instructions never lowers tp⁻¹" ~count:100
    QCheck2.Gen.(pair (list_repeat 3 (int_range 0 3)) (int_range 0 2))
    (fun (counts, extra_idx) ->
       let m = toy_mapping () in
       let items = [ add; mul; fma ] in
       let e =
         Experiment.of_counts (List.mapi (fun i n -> (List.nth items i, n)) counts)
       in
       let e' = Experiment.add (List.nth items extra_idx) e in
       Rat.compare (Throughput.inverse m e') (Throughput.inverse m e) >= 0)

let prop_throughput_scales =
  QCheck2.Test.make ~name:"k×e scales tp⁻¹ by k" ~count:100
    QCheck2.Gen.(pair (list_repeat 3 (int_range 0 3)) (int_range 1 5))
    (fun (counts, k) ->
       let m = toy_mapping () in
       let items = [ add; mul; fma ] in
       let pairs = List.mapi (fun i n -> (List.nth items i, n)) counts in
       let e = Experiment.of_counts pairs in
       let ke =
         Experiment.of_counts (List.map (fun (s, n) -> (s, k * n)) pairs)
       in
       Rat.equal (Throughput.inverse m ke)
         (Rat.mul (Rat.of_int k) (Throughput.inverse m e)))

(* ------------------------------------------------------------------ *)
(* Mapping_io                                                          *)
(* ------------------------------------------------------------------ *)

let toy_resolver name =
  List.find_opt
    (fun s -> Scheme.name s = name)
    [ add; mul; fma ]

let test_io_roundtrip () =
  let m = toy_mapping () in
  let text = Mapping_io.to_string m in
  match Mapping_io.of_string ~resolve:toy_resolver text with
  | Error e -> Alcotest.failf "parse error line %d: %s" e.Mapping_io.line e.message
  | Ok m' ->
    Alcotest.(check int) "ports preserved" (Mapping.num_ports m)
      (Mapping.num_ports m');
    List.iter
      (fun s ->
         Alcotest.(check bool) (Scheme.name s) true
           (Mapping.equal_usage (Mapping.usage m s) (Mapping.usage m' s)))
      (Mapping.schemes m)

let test_io_errors () =
  let expect_error text fragment =
    match Mapping_io.of_string ~resolve:toy_resolver text with
    | Ok _ -> Alcotest.failf "expected parse error for %S" text
    | Error e ->
      Alcotest.(check bool)
        (Printf.sprintf "error mentions %S (got %S)" fragment e.Mapping_io.message)
        true
        (String.length e.Mapping_io.message >= String.length fragment)
  in
  expect_error "scheme \"add <GPR[64]>, <GPR[64]>\" 1x[0]" "header";
  expect_error "ports 2\nscheme \"nonsense\" 1x[0]" "unknown";
  expect_error "ports 2\nwhatever" "unrecognised";
  expect_error "ports 2\nscheme \"add <GPR[64]>, <GPR[64]>\" 1x[9]" "range";
  expect_error "" "header"

let test_io_comments_and_blanks () =
  let text = "# comment\n\nports 2\n# more\nscheme \"mul <GPR[64]>, <GPR[64]>\" 1x[1]\n" in
  match Mapping_io.of_string ~resolve:toy_resolver text with
  | Error e -> Alcotest.failf "parse error: %s" e.Mapping_io.message
  | Ok m -> Alcotest.(check int) "one scheme" 1 (Mapping.size m)

let zen_catalog = Catalog.zen_plus ()

let prop_io_roundtrip_random =
  let gen =
    let open QCheck2.Gen in
    let scheme_id = int_range 0 (Catalog.size zen_catalog - 1) in
    let portset =
      map
        (fun bits ->
           Portset.of_list
             (List.filter (fun p -> bits land (1 lsl p) <> 0) (List.init 10 Fun.id)))
        (int_range 1 1023)
    in
    let usage = list_size (int_range 1 3) (pair portset (int_range 1 2)) in
    list_size (int_range 1 10) (pair scheme_id usage)
  in
  QCheck2.Test.make ~name:"mapping_io roundtrips random mappings" ~count:100 gen
    (fun entries ->
       let m = Mapping.create ~num_ports:10 in
       List.iter
         (fun (id, usage) -> Mapping.set m (Catalog.find zen_catalog id) usage)
         entries;
       let resolve = Mapping_io.resolver zen_catalog in
       match Mapping_io.of_string ~resolve (Mapping_io.to_string m) with
       | Error _ -> false
       | Ok m' ->
         List.for_all
           (fun s ->
              match (Mapping.find_opt m s, Mapping.find_opt m' s) with
              | Some a, Some b -> Mapping.equal_usage a b
              | (None | Some _), _ -> false)
           (Mapping.schemes m))

(* ------------------------------------------------------------------ *)
(* Analysis                                                            *)
(* ------------------------------------------------------------------ *)

let test_analysis_figure2 () =
  let m = toy_mapping () in
  let e = Experiment.of_counts [ (mul, 2); (fma, 1) ] in
  let report = Analysis.analyze ~r_max:5 m e in
  Alcotest.check rat "tp" (Rat.of_int 3) report.Analysis.inverse_throughput;
  Alcotest.(check bool) "not frontend bound" false report.Analysis.frontend_bound;
  Alcotest.(check (list int)) "bottleneck p2" [ 1 ]
    (Portset.to_list report.Analysis.bottleneck);
  (* The optimal distribution fills p2 for the full 3 cycles. *)
  Alcotest.check rat "pressure p2" (Rat.of_int 3) report.Analysis.port_pressure.(1);
  (* Total pressure equals the total µop mass (5 µops). *)
  let total =
    Array.fold_left Rat.add Rat.zero report.Analysis.port_pressure
  in
  Alcotest.check rat "mass conserved" (Rat.of_int 5) total

let test_analysis_frontend () =
  let m = toy_mapping () in
  let e = Experiment.replicate 4 add in
  (* Ports would allow 2 cycles (4 adds over 2 ports); a 1-wide frontend
     stretches the block to 4 cycles. *)
  let report = Analysis.analyze ~r_max:1 m e in
  Alcotest.(check bool) "frontend bound" true report.Analysis.frontend_bound;
  Alcotest.check rat "bounded cycles" (Rat.of_int 4) report.Analysis.bounded_cycles;
  Alcotest.check rat "ipc" Rat.one report.Analysis.ipc

let prop_analysis_pressure_bounded =
  QCheck2.Test.make ~name:"max port pressure = inverse throughput" ~count:100
    QCheck2.Gen.(list_repeat 3 (int_range 0 4))
    (fun counts ->
       QCheck2.assume (List.exists (fun c -> c > 0) counts);
       let m = toy_mapping () in
       let items = [ add; mul; fma ] in
       let e =
         Experiment.of_counts (List.mapi (fun i n -> (List.nth items i, n)) counts)
       in
       let report = Analysis.analyze ~r_max:100 m e in
       let max_pressure =
         Array.fold_left Rat.max Rat.zero report.Analysis.port_pressure
       in
       Rat.equal max_pressure report.Analysis.inverse_throughput)

(* ------------------------------------------------------------------ *)
(* Diff                                                                *)
(* ------------------------------------------------------------------ *)

let test_diff_classification () =
  let left = Mapping.create ~num_ports:2 in
  let right = Mapping.create ~num_ports:2 in
  Mapping.set left add [ (both, 1) ];
  Mapping.set right add [ (both, 1) ];
  Mapping.set left mul [ (p2, 1) ];
  Mapping.set right mul [ (both, 1) ];
  Mapping.set left fma [ (both, 2); (p2, 1) ];
  let d = Diff.compute ~left ~right in
  Alcotest.(check int) "agreements" 1 (Diff.agreements d);
  Alcotest.(check int) "disagreements" 1 (List.length (Diff.disagreements d));
  Alcotest.(check (list string)) "only left" [ Scheme.name fma ]
    (List.map Scheme.name (Diff.only_left d));
  Alcotest.(check (list string)) "only right" []
    (List.map Scheme.name (Diff.only_right d));
  Alcotest.(check (float 1e-9)) "ratio" 0.5 (Diff.agreement_ratio d);
  (match Diff.entry d mul with
   | Some (Diff.Disagree _) -> ()
   | Some (Diff.Agree _ | Diff.Only_left _ | Diff.Only_right _) | None ->
     Alcotest.fail "mul should disagree");
  Alcotest.(check bool) "report renders" true
    (String.length (Format.asprintf "%a" (Diff.pp ()) d) > 0)

let test_diff_self () =
  let m = toy_mapping () in
  let d = Diff.compute ~left:m ~right:m in
  Alcotest.(check int) "all agree" 3 (Diff.agreements d);
  Alcotest.(check (float 1e-9)) "ratio 1" 1.0 (Diff.agreement_ratio d);
  Alcotest.(check int) "no disagreements" 0 (List.length (Diff.disagreements d))

let qsuite tests = List.map QCheck_alcotest.to_alcotest tests

let () =
  Alcotest.run "portmap"
    [ ("portset",
       [ Alcotest.test_case "basics" `Quick test_portset_basic;
         Alcotest.test_case "subset enumeration" `Quick test_portset_subset_enum ]
       @ qsuite [ prop_portset_ops ]);
      ("experiment",
       [ Alcotest.test_case "multiset semantics" `Quick test_experiment_multiset;
         Alcotest.test_case "union/add" `Quick test_experiment_union_add ]);
      ("throughput",
       [ Alcotest.test_case "Figure 2" `Quick test_figure2_throughput;
         Alcotest.test_case "Figure 3" `Quick test_figure3_throughputs;
         Alcotest.test_case "singletons" `Quick test_singletons;
         Alcotest.test_case "unsupported scheme" `Quick test_unsupported;
         Alcotest.test_case "empty experiment" `Quick test_empty_experiment;
         Alcotest.test_case "frontend bound (§3.4)" `Quick test_frontend_bound;
         Alcotest.test_case "µop masses" `Quick test_uop_masses ]
       @ qsuite [ prop_throughput_monotone; prop_throughput_scales ]);
      ("mapping",
       [ Alcotest.test_case "normalisation" `Quick test_mapping_normalisation;
         Alcotest.test_case "validation" `Quick test_mapping_validation;
         Alcotest.test_case "copy independence" `Quick test_mapping_copy_independent ]
       @ qsuite [ prop_mapping_row_views ]);
      ("lp",
       [ Alcotest.test_case "toy agreement" `Quick test_lp_matches_formula_toy ]
       @ qsuite [ prop_lp_equals_formula ]);
      ("io",
       [ Alcotest.test_case "roundtrip" `Quick test_io_roundtrip;
         Alcotest.test_case "error reporting" `Quick test_io_errors;
         Alcotest.test_case "comments and blanks" `Quick test_io_comments_and_blanks ]
       @ qsuite [ prop_io_roundtrip_random ]);
      ("analysis",
       [ Alcotest.test_case "Figure 2 report" `Quick test_analysis_figure2;
         Alcotest.test_case "frontend bound" `Quick test_analysis_frontend ]
       @ qsuite [ prop_analysis_pressure_bounded ]);
      ("diff",
       [ Alcotest.test_case "classification" `Quick test_diff_classification;
         Alcotest.test_case "self comparison" `Quick test_diff_self ]) ]
