open Pmi_isa
open Pmi_portmap
open Pmi_baselines
module Rat = Pmi_numeric.Rat
module Machine = Pmi_machine.Machine
module Harness = Pmi_measure.Harness

(* ------------------------------------------------------------------ *)
(* Rng                                                                 *)
(* ------------------------------------------------------------------ *)

let test_rng_deterministic () =
  let a = Rng.create ~seed:5 and b = Rng.create ~seed:5 in
  for _ = 1 to 50 do
    Alcotest.(check int) "same stream" (Rng.int a 1000) (Rng.int b 1000)
  done;
  let c = Rng.create ~seed:6 in
  let differs = ref false in
  for _ = 1 to 20 do
    if Rng.int a 1000 <> Rng.int c 1000 then differs := true
  done;
  Alcotest.(check bool) "different seeds differ" true !differs

let test_rng_bounds () =
  let rng = Rng.create ~seed:1 in
  for _ = 1 to 1000 do
    let v = Rng.int rng 7 in
    Alcotest.(check bool) "in range" true (v >= 0 && v < 7);
    let f = Rng.float rng in
    Alcotest.(check bool) "float in [0,1)" true (f >= 0.0 && f < 1.0)
  done

let test_rng_shuffle_permutes () =
  let rng = Rng.create ~seed:2 in
  let arr = Array.init 20 Fun.id in
  Rng.shuffle rng arr;
  let sorted = Array.copy arr in
  Array.sort compare sorted;
  Alcotest.(check (array int)) "permutation" (Array.init 20 Fun.id) sorted

let prop_rng_uniformish =
  QCheck2.Test.make ~name:"rng roughly uniform" ~count:20
    (QCheck2.Gen.int_range 1 1000)
    (fun seed ->
       let rng = Rng.create ~seed in
       let buckets = Array.make 4 0 in
       for _ = 1 to 400 do
         let v = Rng.int rng 4 in
         buckets.(v) <- buckets.(v) + 1
       done;
       Array.for_all (fun c -> c > 40) buckets)

(* ------------------------------------------------------------------ *)
(* Shared fixtures                                                     *)
(* ------------------------------------------------------------------ *)

let catalog = Catalog.reduced ~per_bucket:3 ()
let machine = Machine.create catalog
let harness = Harness.create machine
let num_ports = Machine.num_ports machine

let schemes =
  List.concat_map (Catalog.bucket catalog)
    [ "blocking/alu"; "blocking/vec-logic"; "blocking/fp-add";
      "blocking/shuffle"; "blocking/vec-shift"; "blocking/load" ]

(* ------------------------------------------------------------------ *)
(* PMEvo                                                               *)
(* ------------------------------------------------------------------ *)

let test_pmevo_training_set () =
  let training = Pmevo.training_set ~pairs:30 ~blocks:10 harness schemes in
  Alcotest.(check bool) "contains all singletons" true
    (List.for_all
       (fun s ->
          List.exists
            (fun b -> Experiment.equal b.Pmevo.experiment (Experiment.singleton s))
            training)
       schemes);
  Alcotest.(check bool) "cycles positive" true
    (List.for_all (fun b -> Rat.sign b.Pmevo.cycles > 0) training)

let test_pmevo_learns_singletons () =
  let config = { Pmevo.population = 16; generations = 15 } in
  let training = Pmevo.training_set ~pairs:40 ~blocks:20 harness schemes in
  let mapping = Pmevo.infer ~config ~num_ports training schemes in
  (* Every scheme must be mapped and most singleton predictions should be
     within 30% (the seeded population nails them at generation zero). *)
  Alcotest.(check bool) "all mapped" true
    (List.for_all (Mapping.supports mapping) schemes);
  let close =
    List.filter
      (fun s ->
         let e = Experiment.singleton s in
         let predicted = Rat.to_float (Throughput.inverse mapping e) in
         let measured = Rat.to_float (Harness.cycles harness e) in
         Float.abs (predicted -. measured) /. measured < 0.3)
      schemes
  in
  Alcotest.(check bool) "most singletons close" true
    (2 * List.length close >= List.length schemes)

let test_pmevo_deterministic () =
  let config = { Pmevo.population = 8; generations = 3 } in
  let training = Pmevo.training_set ~pairs:10 ~blocks:5 harness schemes in
  let m1 = Pmevo.infer ~config ~num_ports training schemes in
  let m2 = Pmevo.infer ~config ~num_ports training schemes in
  List.iter
    (fun s ->
       Alcotest.(check bool) "same usage" true
         (Mapping.equal_usage (Mapping.usage m1 s) (Mapping.usage m2 s)))
    schemes

(* PMEvo evolves over the port count it is given: the machine's, 12 on
   the golden-cove profile rather than Zen+'s 10. *)
let test_pmevo_machine_ports () =
  let golden =
    Machine.create ~config:Machine.quiet_config
      ~profile:Pmi_machine.Profile.golden_cove catalog
  in
  let training =
    Pmevo.training_set ~pairs:10 ~blocks:5 (Harness.create golden) schemes
  in
  let mapping =
    Pmevo.infer ~config:{ Pmevo.population = 8; generations = 3 }
      ~num_ports:(Machine.num_ports golden) training schemes
  in
  Alcotest.(check int) "machine's port count" (Machine.num_ports golden)
    (Mapping.num_ports mapping)

let test_pmevo_fitness_perfect_mapping () =
  (* The machine's own ground truth must score better than a random one. *)
  let truth = Machine.ground_truth machine in
  let training = Pmevo.training_set ~pairs:40 ~blocks:20 harness schemes in
  let truth_fitness = Pmevo.fitness truth training in
  let random = Mapping.create ~num_ports:10 in
  List.iter
    (fun s -> Mapping.set random s [ (Portset.singleton 9, 1) ])
    schemes;
  let random_fitness = Pmevo.fitness random training in
  Alcotest.(check bool) "truth beats everything-on-one-port" true
    (truth_fitness < random_fitness);
  Alcotest.(check bool) "truth error small" true (truth_fitness < 10.0)

(* ------------------------------------------------------------------ *)
(* Palmed                                                              *)
(* ------------------------------------------------------------------ *)

let unbiased = { Palmed.default_config with Palmed.measurement_bias = 0.0 }

let test_palmed_resources_discovered () =
  let model = Palmed.infer ~config:unbiased harness schemes in
  (* The scheme set spans several throughput classes; at least a handful of
     abstract resources must emerge. *)
  Alcotest.(check bool) "several resources" true (Palmed.resources model >= 3);
  Alcotest.(check bool) "supports all" true
    (List.for_all (Palmed.supports model) schemes)

let test_palmed_singleton_accuracy () =
  let model = Palmed.infer ~config:unbiased harness schemes in
  List.iter
    (fun s ->
       let e = Experiment.singleton s in
       let predicted = Rat.to_float (Palmed.predict model e) in
       let measured = Rat.to_float (Harness.cycles harness e) in
       Alcotest.(check bool)
         (Printf.sprintf "singleton %s" (Scheme.name s))
         true
         (Float.abs (predicted -. measured) /. measured < 0.1))
    schemes

let test_palmed_conjunctive_monotone () =
  let model = Palmed.infer ~config:unbiased harness schemes in
  let s1 = List.nth schemes 0 and s2 = List.nth schemes 4 in
  let small = Experiment.of_list [ s1 ] in
  let large = Experiment.of_counts [ (s1, 2); (s2, 1) ] in
  Alcotest.(check bool) "monotone" true
    (Rat.compare (Palmed.predict model large) (Palmed.predict model small) >= 0)

let test_palmed_bias_slows_predictions () =
  let fair = Palmed.infer ~config:unbiased harness schemes in
  let biased =
    Palmed.infer ~config:{ unbiased with Palmed.measurement_bias = 1.0 }
      harness schemes
  in
  let e = Experiment.of_list [ List.nth schemes 0; List.nth schemes 5 ] in
  Alcotest.(check bool) "bias predicts slower" true
    (Rat.compare (Palmed.predict biased e) (Palmed.predict fair e) >= 0)

(* Palmed's frontend resource has the harness machine's width.  On the
   golden-cove profile (6 instructions per cycle) 60 nops take 10 cycles;
   a frontend of Zen+'s width 5 would predict 12.  The prediction is 10.02:
   the nop's own pressure is fitted from a millicycle-quantised
   measurement (0.167 cycles). *)
let test_palmed_machine_frontend () =
  let nops = Catalog.of_list [ ("nop", [], Iclass.plain Iclass.Nullary) ] in
  let nop = Catalog.find nops 0 in
  let golden =
    Harness.create
      (Machine.create ~config:Machine.quiet_config
         ~profile:Pmi_machine.Profile.golden_cove nops)
  in
  let model = Palmed.infer ~config:unbiased golden [ nop ] in
  let block = Experiment.replicate 60 nop in
  Alcotest.(check string) "measured" "10"
    (Rat.to_string (Harness.cycles golden block));
  Alcotest.(check (float 0.1)) "predicted" 10.0
    (Rat.to_float (Palmed.predict model block))

let test_palmed_unknown_scheme () =
  let model = Palmed.infer ~config:unbiased harness [ List.hd schemes ] in
  let foreign = List.hd (Catalog.bucket catalog "blocking/fp-mul-cmp") in
  Alcotest.check_raises "unknown scheme" Not_found (fun () ->
      ignore (Palmed.predict model (Experiment.singleton foreign)))

let qsuite tests = List.map QCheck_alcotest.to_alcotest tests

let () =
  Alcotest.run "baselines"
    [ ("rng",
       [ Alcotest.test_case "deterministic" `Quick test_rng_deterministic;
         Alcotest.test_case "bounds" `Quick test_rng_bounds;
         Alcotest.test_case "shuffle permutes" `Quick test_rng_shuffle_permutes ]
       @ qsuite [ prop_rng_uniformish ]);
      ("pmevo",
       [ Alcotest.test_case "training set" `Quick test_pmevo_training_set;
         Alcotest.test_case "learns singletons" `Slow test_pmevo_learns_singletons;
         Alcotest.test_case "deterministic" `Quick test_pmevo_deterministic;
         Alcotest.test_case "machine's port count" `Quick
           test_pmevo_machine_ports;
         Alcotest.test_case "fitness sanity" `Quick test_pmevo_fitness_perfect_mapping ]);
      ("palmed",
       [ Alcotest.test_case "resource discovery" `Quick test_palmed_resources_discovered;
         Alcotest.test_case "singleton accuracy" `Quick test_palmed_singleton_accuracy;
         Alcotest.test_case "conjunctive monotonicity" `Quick
           test_palmed_conjunctive_monotone;
         Alcotest.test_case "infrastructure bias" `Quick
           test_palmed_bias_slows_predictions;
         Alcotest.test_case "machine's frontend" `Quick
           test_palmed_machine_frontend;
         Alcotest.test_case "unknown scheme" `Quick test_palmed_unknown_scheme ]) ]
