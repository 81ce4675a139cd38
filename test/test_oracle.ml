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

let rat_of (num, den) = Rat.of_ints num den
let acc_value acc = rat_of (Oracle.Acc.inverse_frac acc)

(* The accumulator must agree with the naive oracle after any add/reset
   walk.  [extra] copies of each scheme's row go in first and are cleared
   by a reset; then each row is added in unit steps. *)
let acc_walk_agrees m counts extras r_max =
  let e = build_experiment counts in
  let acc = Oracle.Acc.create () in
  let row i = Mapping.row m (Catalog.find random_catalog i) in
  List.iteri (fun i extra -> Oracle.Acc.add_row acc (row i) extra) extras;
  Oracle.Acc.reset acc;
  List.iteri
    (fun i n -> for _ = 1 to n do Oracle.Acc.add_row acc (row i) 1 done)
    counts;
  Oracle.Acc.length acc = Experiment.length e
  && Rat.equal (acc_value acc) (Throughput.inverse m e)
  && Rat.equal
       (rat_of (Oracle.Acc.inverse_bounded_frac ~r_max acc))
       (Throughput.inverse_bounded ~r_max m e)

let extras_gen =
  QCheck2.Gen.(list_repeat num_random_schemes (int_range 0 2))

let prop_acc_agrees =
  QCheck2.Test.make ~name:"Acc add/reset path = naive on the result" ~count:300
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
  let acc = Oracle.Acc.create () in
  List.iter
    (fun s -> Oracle.Acc.add_row acc (Mapping.row m s) 2) [ add; mul; fma ];
  Alcotest.(check int) "k = 6 > |U| = 3" 6 (Oracle.Acc.distinct_masks acc);
  let e = Experiment.of_counts [ (add, 2); (mul, 2); (fma, 2) ] in
  Alcotest.check rat "= naive" (Throughput.inverse m e) (acc_value acc)

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

(* A negative count is refused and leaves the accumulator unchanged, and
   a zero count adds nothing; equal masks of different rows merge ([fma]
   holds both [add]'s mask {0,1} and [mul]'s {1}). *)
let test_acc_add_checked () =
  let m = toy_mapping () in
  let row = Mapping.row m in
  let acc = Oracle.Acc.create () in
  Oracle.Acc.add_row acc (row add) 2;
  Alcotest.check_raises "add_row negative count"
    (Invalid_argument "Oracle.Acc.add_row") (fun () ->
        Oracle.Acc.add_row acc (row add) (-1));
  Oracle.Acc.add_row acc (row mul) 0;
  Alcotest.(check int) "length kept" 2 (Oracle.Acc.length acc);
  Alcotest.(check int) "one mask" 1 (Oracle.Acc.distinct_masks acc);
  Alcotest.check rat "value kept" Rat.one (acc_value acc);
  Oracle.Acc.add_row acc (row mul) 1;
  Alcotest.(check int) "two masks" 2 (Oracle.Acc.distinct_masks acc);
  Oracle.Acc.add_row acc (row fma) 1;
  Alcotest.(check int) "merged" 2 (Oracle.Acc.distinct_masks acc);
  Alcotest.(check int) "length" 4 (Oracle.Acc.length acc);
  (* mass({0,1}) = 2 + 2 + 1 + 1 over two ports. *)
  Alcotest.(check (pair int int)) "value" (6, 2) (Oracle.Acc.inverse_frac acc)

let test_acc_reset () =
  let m = toy_mapping () in
  let acc = Oracle.Acc.create () in
  Oracle.Acc.add_row acc (Mapping.row m fma) 3;
  Oracle.Acc.reset acc;
  Alcotest.(check int) "length" 0 (Oracle.Acc.length acc);
  Alcotest.(check (pair int int)) "inverse" (0, 1) (Oracle.Acc.inverse_frac acc)

(* ------------------------------------------------------------------ *)
(* The exact kernel triple against a brute-force lattice scan          *)
(* ------------------------------------------------------------------ *)

(* The smallest-mask maximiser q* of mass(Q)/|Q| over every non-empty
   Q ⊆ [0, ports), with its unreduced (mass q*, |q*|): an ascending scan
   that only moves on a strictly better fraction.  (0, 0, 1) when no Q has
   positive mass. *)
let brute_force ~ports masses =
  let best = ref (0, 0, 1) in
  for q = 1 to (1 lsl ports) - 1 do
    let m =
      List.fold_left
        (fun acc (mask, n) -> if mask land q = mask then acc + n else acc)
        0 masses
    in
    let card = Portset.cardinal (Portset.of_mask q) in
    let _, bn, bd = !best in
    if m * bd > bn * card then best := (q, m, card)
  done;
  !best

(* A random mapping on 1 to 12 ports and an experiment over it. *)
let small_mapping_gen =
  QCheck2.Gen.(
    int_range 1 12 >>= fun ports ->
    map (fun ue -> (ports, ue)) (gen_over (List.init ports Fun.id)))

let prop_exact_triple =
  QCheck2.Test.make
    ~name:"inverse_bounded_frac and bottleneck_set = brute-force q*" ~count:300
    QCheck2.Gen.(pair small_mapping_gen (int_range 1 6))
    (fun ((ports, (usages, counts)), r_max) ->
       let m = build_mapping ~num_ports:ports usages in
       let e = build_experiment counts in
       let o = Oracle.create m in
       let masses =
         List.map (fun (p, n) -> (Portset.to_mask p, n)) (Throughput.uop_masses m e)
       in
       let q, num, den = brute_force ~ports masses in
       (* A frontend rate no experiment here reaches leaves the kernel's
          own pair; a small one must give the larger of the two pairs. *)
       let len = Experiment.length e in
       let bounded =
         if num * r_max >= len * den then (num, den) else (len, r_max)
       in
       Oracle.inverse_bounded_frac ~r_max:1_000_000 o e = (num, den)
       && Oracle.inverse_bounded_frac ~r_max o e = bounded
       && Portset.to_mask (Oracle.bottleneck_set o e) = q)

(* A random walk of adds and resets leaves the same profile as adding
   what was added since the last reset to a fresh accumulator: the same
   mask count, length and unreduced pair. *)
let prop_acc_walk_fresh =
  QCheck2.Test.make ~name:"Acc walk = fresh profile of the same multiset"
    ~count:300
    QCheck2.Gen.(
      pair mapping_experiment_gen
        (list_size (int_range 0 40)
           (triple (int_range 0 (num_random_schemes - 1)) (int_range 1 3)
              (frequencyl [ (4, true); (1, false) ]))))
    (fun ((usages, _), steps) ->
       let row = Mapping.row (build_mapping usages) in
       let walked = Oracle.Acc.create () in
       let held = Array.make num_random_schemes 0 in
       List.iter
         (fun (i, n, add) ->
            let r = row (Catalog.find random_catalog i) in
            if add then begin
              Oracle.Acc.add_row walked r n;
              held.(i) <- held.(i) + n
            end
            else begin
              Oracle.Acc.reset walked;
              Array.fill held 0 num_random_schemes 0
            end)
         steps;
       let fresh = Oracle.Acc.create () in
       Array.iteri
         (fun i n ->
            Oracle.Acc.add_row fresh (row (Catalog.find random_catalog i)) n)
         held;
       let view acc =
         ( Oracle.Acc.distinct_masks acc,
           Oracle.Acc.length acc,
           Oracle.Acc.inverse_bounded_frac ~r_max:4 acc )
       in
       view walked = view fresh)

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
  (* One oracle shared by domains, with no warm-up: each query owns its
     scratch profile. *)
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
             prop_bottleneck_optimal; prop_exact_triple ]);
      ("kernel",
       [ Alcotest.test_case "submask branch" `Quick test_submask_branch ]
       @ qsuite kernel_shapes);
      ("acc",
       [ Alcotest.test_case "reset" `Quick test_acc_reset;
         Alcotest.test_case "add checked" `Quick test_acc_add_checked ]
       @ qsuite [ prop_acc_agrees; prop_acc_walk_fresh ]);
      ("pool",
       [ Alcotest.test_case "parallel_for covers indices" `Quick
           test_pool_parallel_for;
         Alcotest.test_case "map order" `Quick test_pool_map_order;
         Alcotest.test_case "exception propagation" `Quick test_pool_exception;
         Alcotest.test_case "shared oracle sweep" `Quick test_pool_oracle_sweep ]
       @ qsuite [ prop_pool_find_first_minimal ]) ]
