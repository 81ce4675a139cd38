open Pmi_isa
open Pmi_portmap
module Rat = Pmi_numeric.Rat
module Pool = Pmi_parallel.Pool

let rat = Alcotest.testable Rat.pp Rat.equal

(* ------------------------------------------------------------------ *)
(* Fixtures: the Figure 2 toy plus a randomised 6-port catalog         *)
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

let toy_mapping () =
  let both = Portset.of_list [ 0; 1 ] in
  let p2 = Portset.singleton 1 in
  let m = Mapping.create ~num_ports:2 in
  Mapping.set m add [ (both, 1) ];
  Mapping.set m mul [ (p2, 1) ];
  Mapping.set m fma [ (both, 2); (p2, 1) ];
  m

let num_random_schemes = 6
let random_ports = 6

let random_catalog =
  Catalog.of_list
    (List.init num_random_schemes (fun i ->
         (Printf.sprintf "i%d" i, [ Operand.gpr 32 ],
          Iclass.plain (Iclass.Single Iclass.Alu))))

(* Generates (usages, counts): a full random mapping whose port sets draw
   on the [live] ports, and an experiment over the same schemes.  Keeping
   [live] short bounds the naive reference's subset enumeration however
   wide the mapping is. *)
let gen_over ?(usage_len = QCheck2.Gen.int_range 1 3) live =
  let open QCheck2.Gen in
  let live = Array.of_list live in
  let n = Array.length live in
  let portset =
    map
      (fun bits ->
         Portset.of_list
           (List.filter_map
              (fun i ->
                 if bits land (1 lsl i) <> 0 then Some live.(i) else None)
              (List.init n Fun.id)))
      (int_range 1 ((1 lsl n) - 1))
  in
  let usage = list_size usage_len (pair portset (int_range 1 3)) in
  let usages = list_repeat num_random_schemes usage in
  let counts = list_repeat num_random_schemes (int_range 0 4) in
  pair usages counts

let mapping_experiment_gen = gen_over (List.init random_ports Fun.id)

let build_mapping ?(num_ports = random_ports) usages =
  let m = Mapping.create ~num_ports in
  List.iteri
    (fun i usage -> Mapping.set m (Catalog.find random_catalog i) usage)
    usages;
  m

let build_experiment counts =
  Experiment.of_counts
    (List.mapi (fun i n -> (Catalog.find random_catalog i, n)) counts)

(* ------------------------------------------------------------------ *)
(* Known values on the toy                                             *)
(* ------------------------------------------------------------------ *)

let test_toy_known_values () =
  let m = toy_mapping () in
  let o = Oracle.create m in
  let e = Experiment.of_counts [ (mul, 2); (fma, 1) ] in
  Alcotest.check rat "Figure 2" (Rat.of_int 3) (Oracle.inverse o e);
  Alcotest.(check (list int)) "bottleneck p2" [ 1 ]
    (Portset.to_list (Oracle.bottleneck_set o e));
  Alcotest.check rat "Figure 3(b)" (Rat.of_ints 9 2)
    (Oracle.inverse o (Experiment.of_counts [ (add, 6); (fma, 1) ]));
  Alcotest.check rat "empty" Rat.zero (Oracle.inverse o Experiment.empty);
  Alcotest.(check bool) "empty bottleneck" true
    (Portset.is_empty (Oracle.bottleneck_set o Experiment.empty));
  (* Frontend bound: 8 adds over 2 ports. *)
  let e8 = Experiment.replicate 8 add in
  Alcotest.check rat "unbounded" (Rat.of_int 4)
    (Oracle.inverse_bounded ~r_max:5 o e8);
  Alcotest.check rat "bounded" (Rat.of_int 8)
    (Oracle.inverse_bounded ~r_max:1 o e8)

let test_unsupported () =
  let m = Mapping.create ~num_ports:2 in
  let o = Oracle.create m in
  Alcotest.check_raises "unsupported scheme" (Throughput.Unsupported add)
    (fun () -> ignore (Oracle.inverse o (Experiment.singleton add)));
  Alcotest.check_raises "unsupported in prepare" (Throughput.Unsupported add)
    (fun () -> Oracle.prepare o [ add ])

(* The only port limit is the bit-set width of [Portset]: the oracle agrees
   with the naive formula at the widest port count, and a mapping rejects
   ports beyond its own count. *)
let test_port_limit () =
  let widest = Sys.int_size - 2 in
  let m = Mapping.create ~num_ports:widest in
  Mapping.set m add [ (Portset.of_list [ 0; widest - 1 ], 1) ];
  Mapping.set m mul [ (Portset.singleton (widest - 1), 1) ];
  let o = Oracle.create m in
  Alcotest.(check int) "num_ports" widest (Oracle.num_ports o);
  let e = Experiment.of_counts [ (add, 3); (mul, 2) ] in
  Alcotest.check rat "widest" (Throughput.inverse m e) (Oracle.inverse o e);
  Alcotest.check_raises "port out of range"
    (Invalid_argument "Mapping.set: port out of range")
    (fun () ->
       Mapping.set (Mapping.create ~num_ports:4) add
         [ (Portset.singleton 4, 1) ])

(* No port-count limit below the bit-set width: 21 ports are accepted. *)
let test_21_ports () =
  let m = Mapping.create ~num_ports:21 in
  Mapping.set m add [ (Portset.of_list [ 0; 20 ], 1) ];
  Mapping.set m mul [ (Portset.singleton 20, 1) ];
  Mapping.set m fma
    [ (Portset.of_list [ 3; 20 ], 2); (Portset.singleton 7, 1) ];
  let o = Oracle.create m in
  List.iter
    (fun e ->
       Alcotest.check rat (Experiment.to_string e) (Throughput.inverse m e)
         (Oracle.inverse o e))
    [ Experiment.of_counts [ (add, 3); (mul, 2) ];
      Experiment.of_counts [ (add, 1); (mul, 1); (fma, 4) ];
      Experiment.replicate 5 fma ]

(* ------------------------------------------------------------------ *)
(* Exact agreement with the naive oracle                               *)
(* ------------------------------------------------------------------ *)

let prop_inverse_agrees =
  QCheck2.Test.make ~name:"memoized inverse = naive inverse (exact)" ~count:300
    mapping_experiment_gen
    (fun (usages, counts) ->
       let m = build_mapping usages in
       let e = build_experiment counts in
       Rat.equal (Oracle.inverse (Oracle.create m) e) (Throughput.inverse m e))

let prop_inverse_bounded_agrees =
  QCheck2.Test.make
    ~name:"memoized inverse_bounded = naive inverse_bounded (exact)" ~count:300
    QCheck2.Gen.(pair mapping_experiment_gen (int_range 1 6))
    (fun ((usages, counts), r_max) ->
       let m = build_mapping usages in
       let e = build_experiment counts in
       Rat.equal
         (Oracle.inverse_bounded ~r_max (Oracle.create m) e)
         (Throughput.inverse_bounded ~r_max m e))

let prop_bottleneck_optimal =
  QCheck2.Test.make ~name:"bottleneck_set attains the optimum" ~count:300
    mapping_experiment_gen
    (fun (usages, counts) ->
       let m = build_mapping usages in
       let e = build_experiment counts in
       QCheck2.assume (not (Experiment.is_empty e));
       let o = Oracle.create m in
       let q = Oracle.bottleneck_set o e in
       let mass =
         List.fold_left
           (fun acc (ports, n) ->
              if Portset.subset ports q then acc + n else acc)
           0 (Throughput.uop_masses m e)
       in
       (not (Portset.is_empty q))
       && Rat.equal (Oracle.inverse o e)
            (Rat.of_ints mass (Portset.cardinal q)))

(* The accumulator must agree with the naive oracle after any add/remove
   walk.  Each scheme is added in unit steps plus [extra] copies that are
   removed again, exercising both profile-update directions. *)
let acc_walk_agrees m counts extras r_max =
  let e = build_experiment counts in
  let acc = Oracle.Acc.create (Oracle.create m) in
  List.iteri
    (fun i n ->
       let s = Catalog.find random_catalog i in
       let extra = List.nth extras i in
       Oracle.Acc.add acc s extra;
       for _ = 1 to n do Oracle.Acc.add acc s 1 done;
       Oracle.Acc.remove acc s extra)
    counts;
  Oracle.Acc.length acc = Experiment.length e
  && Rat.equal (Oracle.Acc.inverse acc) (Throughput.inverse m e)
  && Rat.equal
       (Oracle.Acc.inverse_bounded ~r_max acc)
       (Throughput.inverse_bounded ~r_max m e)

let extras_gen =
  QCheck2.Gen.(list_repeat num_random_schemes (int_range 0 2))

let prop_acc_agrees =
  QCheck2.Test.make ~name:"Acc add/remove path = naive on the result" ~count:300
    QCheck2.Gen.(triple mapping_experiment_gen extras_gen (int_range 1 6))
    (fun ((usages, counts), extras, r_max) ->
       acc_walk_agrees (build_mapping usages) counts extras r_max)

(* The kernel against the naive oracle on shapes the 6-port generator does
   not reach: mappings wider than the old 20-port dense limit, and many
   masks on few ports, where k > |U| selects the submask branch.  Each
   case checks [inverse], [inverse_bounded] and an [Acc] walk. *)
let prop_kernel_shape ~name ~num_ports ?usage_len live =
  QCheck2.Test.make ~name ~count:200
    QCheck2.Gen.(triple (gen_over ?usage_len live) extras_gen (int_range 1 6))
    (fun ((usages, counts), extras, r_max) ->
       let m = build_mapping ~num_ports usages in
       let e = build_experiment counts in
       let o = Oracle.create m in
       Rat.equal (Oracle.inverse o e) (Throughput.inverse m e)
       && Rat.equal
            (Oracle.inverse_bounded ~r_max o e)
            (Throughput.inverse_bounded ~r_max m e)
       && acc_walk_agrees m counts extras r_max)

let kernel_shapes =
  [ prop_kernel_shape ~name:"kernel = naive, 24 ports" ~num_ports:24
      [ 0; 5; 11; 19; 20; 23 ];
    prop_kernel_shape ~name:"kernel = naive, 40 ports" ~num_ports:40
      [ 2; 13; 21; 30; 38; 39 ];
    prop_kernel_shape ~name:"kernel = naive, many masks on 3 ports"
      ~num_ports:8 ~usage_len:(QCheck2.Gen.int_range 2 4) [ 1; 4; 6 ] ]

(* The submask branch really runs in the last shape: k exceeds |U|. *)
let test_submask_branch () =
  let m = Mapping.create ~num_ports:3 in
  let p = Portset.of_list in
  Mapping.set m add [ (p [ 0 ], 1); (p [ 0; 1 ], 1) ];
  Mapping.set m mul [ (p [ 1 ], 2); (p [ 1; 2 ], 1) ];
  Mapping.set m fma [ (p [ 0; 2 ], 1); (p [ 0; 1; 2 ], 3) ];
  let acc = Oracle.Acc.create (Oracle.create m) in
  List.iter (fun s -> Oracle.Acc.add acc s 2) [ add; mul; fma ];
  Alcotest.(check int) "k = 6 > |U| = 3" 6 (Oracle.Acc.distinct_masks acc);
  let e = Experiment.of_counts [ (add, 2); (mul, 2); (fma, 2) ] in
  Alcotest.check rat "= naive" (Throughput.inverse m e) (Oracle.Acc.inverse acc)

(* A seeded Figure 5 style fixture on the 12-port golden-cove ground
   truth, against the simplex LP of §2.2, which shares no code with the
   kernel. *)
let test_golden_cove_lp () =
  let catalog = Catalog.zen_plus () in
  let machine =
    Pmi_machine.Machine.create ~profile:Pmi_machine.Profile.golden_cove catalog
  in
  let m = Pmi_machine.Machine.ground_truth machine in
  Alcotest.(check int) "ports" 12 (Mapping.num_ports m);
  let covered =
    List.filter (Mapping.supports m) (Array.to_list (Catalog.schemes catalog))
  in
  let o = Oracle.create m in
  List.iteri
    (fun i e ->
       Alcotest.check rat (Printf.sprintf "block %d" i) (Lp_model.inverse m e)
         (Oracle.inverse o e))
    (Pmi_eval.Blocks.generate ~seed:15 ~count:40 ~block_size:5 covered)

(* Removing what was never added is refused and leaves the accumulator
   unchanged; a mask whose mass reaches zero leaves the profile. *)
let test_acc_remove_checked () =
  let m = toy_mapping () in
  let acc = Oracle.Acc.create (Oracle.create m) in
  let refused what f =
    Alcotest.check_raises what (Invalid_argument "Oracle.Acc.remove") f
  in
  Oracle.Acc.add acc add 2;
  refused "never added" (fun () -> Oracle.Acc.remove acc mul 1);
  refused "partly never added" (fun () -> Oracle.Acc.remove acc fma 1);
  refused "beyond the length" (fun () -> Oracle.Acc.remove acc add 3);
  refused "negative count" (fun () -> Oracle.Acc.remove acc add (-1));
  Alcotest.(check int) "length kept" 2 (Oracle.Acc.length acc);
  Alcotest.check rat "value kept" Rat.one (Oracle.Acc.inverse acc);
  Oracle.Acc.add acc mul 1;
  Alcotest.(check int) "two masks" 2 (Oracle.Acc.distinct_masks acc);
  Oracle.Acc.remove acc mul 1;
  Alcotest.(check int) "zero-mass mask dropped" 1
    (Oracle.Acc.distinct_masks acc);
  refused "dropped mask" (fun () -> Oracle.Acc.remove acc mul 1);
  Oracle.Acc.remove acc add 2;
  Alcotest.(check int) "empty" 0 (Oracle.Acc.distinct_masks acc);
  Alcotest.check rat "empty value" Rat.zero (Oracle.Acc.inverse acc)

let test_acc_reset () =
  let m = toy_mapping () in
  let acc = Oracle.Acc.create (Oracle.create m) in
  Oracle.Acc.add acc fma 3;
  Oracle.Acc.reset acc;
  Alcotest.(check int) "length" 0 (Oracle.Acc.length acc);
  Alcotest.check rat "inverse" Rat.zero (Oracle.Acc.inverse acc)

(* ------------------------------------------------------------------ *)
(* Domain pool                                                         *)
(* ------------------------------------------------------------------ *)

let test_pool_parallel_for () =
  let n = 1000 in
  let hits = Array.init n (fun _ -> Atomic.make 0) in
  Pool.parallel_for ~domains:4 ~n (fun i -> Atomic.incr hits.(i));
  Alcotest.(check bool) "each index exactly once" true
    (Array.for_all (fun a -> Atomic.get a = 1) hits);
  (* n = 0 is a no-op, not an error. *)
  Pool.parallel_for ~domains:4 ~n:0 (fun _ -> assert false)

let test_pool_map_order () =
  let xs = List.init 500 Fun.id in
  Alcotest.(check (list int)) "map_list preserves order"
    (List.map (fun x -> x * x) xs)
    (Pool.map_list ~domains:4 (fun x -> x * x) xs);
  let arr = Array.init 500 Fun.id in
  Alcotest.(check (array int)) "map_array preserves order"
    (Array.map succ arr)
    (Pool.map_array ~domains:4 succ arr)

let test_pool_exception () =
  Alcotest.check_raises "first exception re-raised" (Failure "boom")
    (fun () ->
       Pool.parallel_for ~domains:4 ~n:100 (fun i ->
           if i = 57 then failwith "boom"))

let prop_pool_find_first_minimal =
  QCheck2.Test.make ~name:"find_first_index returns the minimal hit" ~count:100
    QCheck2.Gen.(list_size (int_range 0 200) bool)
    (fun bits ->
       let arr = Array.of_list bits in
       let expected =
         let rec scan i =
           if i >= Array.length arr then None
           else if arr.(i) then Some i
           else scan (i + 1)
         in
         scan 0
       in
       Pool.find_first_index ~domains:4 Fun.id arr = expected)

let test_pool_oracle_sweep () =
  (* Figure 5's fan-out: one oracle shared by domains, with no warm-up. *)
  let m = toy_mapping () in
  let o = Oracle.create m in
  let blocks =
    Array.init 64 (fun i ->
        Experiment.of_counts [ (add, (i mod 5) + 1); (mul, i mod 3); (fma, 1) ])
  in
  let par = Pool.map_array ~domains:4 (Oracle.inverse o) blocks in
  Array.iteri
    (fun i e ->
       Alcotest.check rat
         (Printf.sprintf "block %d" i)
         (Throughput.inverse m e) par.(i))
    blocks

let qsuite tests = List.map QCheck_alcotest.to_alcotest tests

let () =
  Alcotest.run "oracle"
    [ ("oracle",
       [ Alcotest.test_case "toy known values" `Quick test_toy_known_values;
         Alcotest.test_case "unsupported scheme" `Quick test_unsupported;
         Alcotest.test_case "port limit" `Quick test_port_limit;
         Alcotest.test_case "21 ports accepted" `Quick test_21_ports;
         Alcotest.test_case "golden-cove = LP" `Quick test_golden_cove_lp ]
       @ qsuite
           [ prop_inverse_agrees; prop_inverse_bounded_agrees;
             prop_bottleneck_optimal ]);
      ("kernel",
       [ Alcotest.test_case "submask branch" `Quick test_submask_branch ]
       @ qsuite kernel_shapes);
      ("acc",
       [ Alcotest.test_case "reset" `Quick test_acc_reset;
         Alcotest.test_case "remove checked" `Quick test_acc_remove_checked ]
       @ qsuite [ prop_acc_agrees ]);
      ("pool",
       [ Alcotest.test_case "parallel_for covers indices" `Quick
           test_pool_parallel_for;
         Alcotest.test_case "map order" `Quick test_pool_map_order;
         Alcotest.test_case "exception propagation" `Quick test_pool_exception;
         Alcotest.test_case "shared oracle sweep" `Quick test_pool_oracle_sweep ]
       @ qsuite [ prop_pool_find_first_minimal ]) ]
