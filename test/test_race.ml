(* The concurrency sanitizer: detector soundness on planted races,
   cleanliness of the instrumented primitives under every small schedule
   permutation, the parallel harness sweep, Figure 5's parallel prediction
   sweep, and the shared diagnostics schema.

   Every test runs with the detector enabled and (mostly) in deterministic
   replay mode: the pool serializes tasks in seeded permutation order while
   the vector clocks see only fork/join structure, so races are found — or
   proven absent — schedule by schedule, without trusting the OS
   scheduler.  This suite is also wired as `dune build @sanitize`. *)

module Race = Pmi_diag.Race
module Diag = Pmi_diag.Diag
module Pool = Pmi_parallel.Pool
module Harness = Pmi_measure.Harness
module Machine = Pmi_machine.Machine
module Catalog = Pmi_isa.Catalog
module Operand = Pmi_isa.Operand
module Iclass = Pmi_isa.Iclass
module Experiment = Pmi_portmap.Experiment

(* Run [f] with the detector on and the given replay schedule, restore
   everything, and return the reports it accumulated. *)
let with_detector ?schedule f =
  Race.enable ();
  (match schedule with
   | Some seed -> Pool.set_schedule (Pool.Replay seed)
   | None -> Pool.set_schedule Pool.Os);
  let finish () =
    Pool.set_schedule Pool.Os;
    Race.disable ()
  in
  (match f () with
   | () -> ()
   | exception e -> finish (); raise e);
  finish ();
  Race.reports ()

let expect_clean label reports =
  if reports <> [] then
    Alcotest.failf "%s: unexpected race: %s" label
      (Diag.to_string (List.hd (Race.to_diags reports)))

(* ------------------------------------------------------------------ *)
(* Permutation machinery                                               *)

let test_permutations () =
  Alcotest.(check int) "3! schedules" 6 (Pool.permutations 3);
  let seen = Hashtbl.create 16 in
  for seed = 0 to 5 do
    let p = Pool.permutation ~seed 3 in
    Alcotest.(check int) "length" 3 (Array.length p);
    let sorted = Array.copy p in
    Array.sort compare sorted;
    Alcotest.(check (array int)) "is a permutation" [| 0; 1; 2 |] sorted;
    Hashtbl.replace seen (Array.to_list p) ()
  done;
  Alcotest.(check int) "all 6 orders distinct" 6 (Hashtbl.length seen);
  (* The shuffle branch for unenumerable task counts still permutes. *)
  let big = Pool.permutation ~seed:3 25 in
  let sorted = Array.copy big in
  Array.sort compare sorted;
  Alcotest.(check (array int)) "25-element permutation"
    (Array.init 25 (fun i -> i)) sorted

(* ------------------------------------------------------------------ *)
(* Detector soundness: planted races must be reported                  *)

let test_planted_write_write () =
  (* Every schedule of the two writers must report: vector clocks make the
     verdict order-independent. *)
  for seed = 0 to 1 do
    let reports =
      with_detector ~schedule:seed (fun () ->
          let cell = Race.tracked_ref ~name:"planted.cell" 0 in
          Pool.parallel_for ~domains:2 ~n:2 (fun i -> Race.write cell i))
    in
    match reports with
    | [ r ] ->
      Alcotest.(check string) "kind" "write-write"
        (Race.kind_to_string r.Race.kind);
      Alcotest.(check bool) "not lockset-saved" false r.Race.lockset_saved;
      (match Race.to_diags reports with
       | [ d ] ->
         Alcotest.(check bool) "error severity" true
           (d.Diag.severity = Diag.Error);
         Alcotest.(check string) "rule" "data-race" d.Diag.rule
       | ds -> Alcotest.failf "expected one diag, got %d" (List.length ds))
    | rs ->
      Alcotest.failf "schedule %d: expected exactly one report, got %d" seed
        (List.length rs)
  done

let test_planted_read_write () =
  let reports =
    with_detector ~schedule:0 (fun () ->
        let cell = Race.tracked_ref ~name:"planted.rw" 0 in
        Pool.parallel_for ~domains:2 ~n:2 (fun i ->
            if i = 0 then ignore (Race.read cell) else Race.write cell 1))
  in
  Alcotest.(check int) "one report" 1 (List.length reports)

let test_report_dedup () =
  (* A racy counter bumped many times reports once per (location, kind). *)
  let reports =
    with_detector ~schedule:0 (fun () ->
        let cell = Race.tracked_ref ~name:"planted.loop" 0 in
        Pool.parallel_for ~domains:4 ~n:4 (fun _ ->
            for _ = 1 to 25 do
              Race.write cell (Race.read cell + 1)
            done))
  in
  Alcotest.(check bool) "at most one report per kind" true
    (List.length reports <= 3 && reports <> [])

(* ------------------------------------------------------------------ *)
(* Synchronization must silence the detector                           *)

let test_with_lock_clean () =
  for seed = 0 to 1 do
    expect_clean "locked counter"
      (with_detector ~schedule:seed (fun () ->
           let l = Race.create_lock "test.lock" in
           let cell = Race.tracked_ref ~name:"locked.cell" 0 in
           Pool.parallel_for ~domains:2 ~n:2 (fun _ ->
               Race.with_lock l (fun () ->
                   Race.write cell (Race.read cell + 1)))))
  done

let test_tracked_atomic_clean () =
  for seed = 0 to 5 do
    let counter = ref None in
    expect_clean "atomic counter"
      (with_detector ~schedule:seed (fun () ->
           let c = Race.tracked_atomic ~name:"atomic.counter" 0 in
           counter := Some c;
           Pool.parallel_for ~domains:3 ~n:3 (fun _ ->
               ignore (Race.afetch_add c 1))));
    match !counter with
    | Some c -> Alcotest.(check int) "no lost updates" 3 (Race.aget c)
    | None -> assert false
  done

let test_disjoint_slots_clean () =
  expect_clean "disjoint map_array"
    (with_detector ~schedule:2 (fun () ->
         let out = Pool.map_array ~domains:4 (fun x -> x * x) (Array.init 8 Fun.id) in
         Alcotest.(check (array int)) "squares"
           (Array.init 8 (fun i -> i * i)) out))

let test_lockset_fallback_warning () =
  (* Synchronization outside the detector's view: [holding] declares the
     lockset without a happens-before edge, so the pair downgrades to a
     discipline warning instead of a race error. *)
  let reports =
    with_detector ~schedule:0 (fun () ->
        let l = Race.create_lock "external.lock" in
        let cell = Race.tracked_ref ~name:"disciplined.cell" 0 in
        Pool.parallel_for ~domains:2 ~n:2 (fun i ->
            Race.holding l (fun () -> Race.write cell i)))
  in
  match reports with
  | [ r ] ->
    Alcotest.(check bool) "lockset saved" true r.Race.lockset_saved;
    (match Race.to_diags reports with
     | [ d ] ->
       Alcotest.(check string) "rule" "lock-discipline" d.Diag.rule;
       Alcotest.(check bool) "warning severity" true
         (d.Diag.severity = Diag.Warning)
     | _ -> Alcotest.fail "expected one diag")
  | rs -> Alcotest.failf "expected one report, got %d" (List.length rs)

(* ------------------------------------------------------------------ *)
(* Schedule sensitivity: replay finds order-dependent races            *)

let test_fence_order_dependent () =
  (* fence() only orders fence-before-fence: writer-then-reader is clean,
     reader-then-writer races.  This is exactly the class of bug replay
     exists for — one schedule is fine, the other is not. *)
  let run seed =
    with_detector ~schedule:seed (fun () ->
        let cell = Race.tracked_ref ~name:"fenced.cell" 0 in
        let tasks =
          [| (fun () -> Race.write cell 1; Race.fence ());
             (fun () -> Race.fence (); ignore (Race.read cell)) |]
        in
        Pool.parallel_for ~domains:2 ~n:2 (fun i -> tasks.(i) ()))
  in
  expect_clean "writer scheduled first" (run 0);
  Alcotest.(check int) "reader scheduled first races" 1
    (List.length (run 1))

(* ------------------------------------------------------------------ *)
(* Pool primitives under all small permutations                        *)

let test_find_first_index_minimal () =
  (* 4 elements, hits at 1 and 3: every one of the 24 schedules must agree
     on the minimal index, with a clean best-slot protocol. *)
  let arr = [| 10; 7; 12; 7 |] in
  for seed = 0 to Pool.permutations 4 - 1 do
    let result = ref None in
    expect_clean "find_first_index"
      (with_detector ~schedule:seed (fun () ->
           result := Pool.find_first_index ~domains:4 (fun x -> x = 7) arr));
    Alcotest.(check (option int)) "minimal index" (Some 1) !result
  done

let test_parallel_for_exception () =
  (* Exceptions propagate out of replay mode like they do from domains. *)
  Race.enable ();
  Pool.set_schedule (Pool.Replay 1);
  let raised =
    match Pool.parallel_for ~domains:2 ~n:2 (fun i ->
        if i = 0 then failwith "boom")
    with
    | () -> false
    | exception Failure m -> m = "boom"
  in
  Pool.set_schedule Pool.Os;
  Race.disable ();
  Alcotest.(check bool) "exception propagated" true raised

(* ------------------------------------------------------------------ *)
(* Harness and CEGIS shared state                                      *)

let toy_catalog =
  Catalog.of_list
    [ ("add", [ Operand.gpr 64; Operand.gpr ~access:Operand.Read 64 ],
       Iclass.plain (Iclass.Single Iclass.Alu));
      ("mul", [ Operand.gpr 64; Operand.gpr ~access:Operand.Read 64 ],
       Iclass.plain (Iclass.Single Iclass.Alu));
      ("fma", [ Operand.gpr 64; Operand.gpr ~access:Operand.Read 64 ],
       Iclass.plain (Iclass.Single Iclass.Alu)) ]

let test_harness_parallel_sweep () =
  (* The harness cache is lock-protected shared state: a 4-way sweep with
     repeated experiments must be race-free with exact counters. *)
  for seed = 0 to 2 do
    let stats = ref (0, 0, 0) in
    expect_clean "harness sweep"
      (with_detector ~schedule:seed (fun () ->
           let harness = Harness.create (Machine.create toy_catalog) in
           let schemes = Catalog.schemes toy_catalog in
           let exps =
             List.init 12 (fun i ->
                 Experiment.singleton schemes.(i mod Array.length schemes))
           in
           ignore (Pool.map_list ~domains:4 (Harness.cycles harness) exps);
           stats :=
             ( Harness.cache_hits harness,
               Harness.cache_misses harness,
               Harness.benchmarks_run harness )));
    let hits, misses, distinct = !stats in
    Alcotest.(check int) "queries accounted" 12 (hits + misses);
    Alcotest.(check int) "misses = distinct benchmarks" distinct misses;
    Alcotest.(check int) "three distinct experiments" 3 distinct
  done

let test_prediction_replay_clean () =
  (* Figure 5's fan-out: one prepared oracle shared by every worker of a
     pure per-block prediction sweep.  The sweep must be race-free, and
     every schedule must return the sequential predictions. *)
  let machine = Machine.create (Catalog.reduced ~per_bucket:1 ()) in
  let truth = Machine.ground_truth machine in
  let schemes =
    List.filter
      (Pmi_portmap.Mapping.supports truth)
      (Array.to_list (Catalog.schemes (Machine.catalog machine)))
  in
  let blocks =
    Pmi_eval.Blocks.generate ~seed:7 ~count:24 ~block_size:5 schemes
  in
  let oracle = Pmi_portmap.Oracle.create truth in
  Pmi_portmap.Oracle.prepare oracle schemes;
  let predict =
    Pmi_portmap.Oracle.inverse_bounded ~r_max:(Machine.r_max machine) oracle
  in
  let reference = List.map predict blocks in
  for seed = 0 to 5 do
    let result = ref [] in
    expect_clean "parallel prediction"
      (with_detector ~schedule:seed (fun () ->
           result := Pool.map_list ~domains:4 predict blocks));
    Alcotest.(check bool)
      (Printf.sprintf "schedule %d: the sequential predictions" seed)
      true
      (List.equal Pmi_numeric.Rat.equal reference !result)
  done

(* ------------------------------------------------------------------ *)
(* Off-mode and the shared diagnostics schema                          *)

let test_disabled_is_noop () =
  (* With the detector off nothing is recorded and the primitives behave
     like their plain counterparts. *)
  Race.clear_reports ();
  Alcotest.(check bool) "disabled" false (Race.enabled ());
  let cell = Race.tracked_ref ~name:"off.cell" 0 in
  Race.write cell 7;
  Alcotest.(check int) "ref" 7 (Race.read cell);
  let a = Race.tracked_atomic ~name:"off.atomic" 1 in
  ignore (Race.afetch_add a 2);
  Alcotest.(check int) "atomic" 3 (Race.aget a);
  Pool.parallel_for ~domains:2 ~n:4 (fun _ -> ());
  Alcotest.(check int) "no reports" 0 (List.length (Race.reports ()))

let test_diag_schema_shared () =
  (* The lint and race passes render through one module: same record type,
     same JSON schema. *)
  let d =
    Diag.make "data-race" Pmi_analysis.Lint.Error "x" "write-write race"
  in
  Alcotest.(check string) "lint renders via Diag" (Diag.to_json d)
    (Pmi_analysis.Lint.to_json d);
  let reports =
    with_detector ~schedule:0 (fun () ->
        let cell = Race.tracked_ref ~name:"x" 0 in
        Pool.parallel_for ~domains:2 ~n:2 (fun i -> Race.write cell i))
  in
  let contains s sub =
    let n = String.length s and m = String.length sub in
    let rec go i = i + m <= n && (String.sub s i m = sub || go (i + 1)) in
    go 0
  in
  match Race.to_diags reports with
  | [ r ] ->
    let json = Diag.to_json r in
    List.iter
      (fun k ->
         Alcotest.(check bool) (k ^ " field present") true
           (contains json (Printf.sprintf "\"%s\":" k)))
      [ "rule"; "severity"; "subject"; "message" ];
    Alcotest.(check string) "summary line" "sanitize: 1 error(s), 0 warning(s)"
      (Diag.summary ~pass:"sanitize" [ r ])
  | _ -> Alcotest.fail "expected one diag"

let () =
  Alcotest.run "race"
    [ ("schedule",
       [ Alcotest.test_case "permutation decode" `Quick test_permutations;
         Alcotest.test_case "exception propagation" `Quick
           test_parallel_for_exception ]);
      ("detector",
       [ Alcotest.test_case "planted write-write" `Quick
           test_planted_write_write;
         Alcotest.test_case "planted read-write" `Quick
           test_planted_read_write;
         Alcotest.test_case "report dedup" `Quick test_report_dedup;
         Alcotest.test_case "with_lock clean" `Quick test_with_lock_clean;
         Alcotest.test_case "tracked atomic clean" `Quick
           test_tracked_atomic_clean;
         Alcotest.test_case "disjoint slots clean" `Quick
           test_disjoint_slots_clean;
         Alcotest.test_case "lockset fallback" `Quick
           test_lockset_fallback_warning;
         Alcotest.test_case "fence order-dependence" `Quick
           test_fence_order_dependent;
         Alcotest.test_case "disabled is a no-op" `Quick
           test_disabled_is_noop ]);
      ("pool",
       [ Alcotest.test_case "find_first_index minimal" `Quick
           test_find_first_index_minimal ]);
      ("stack",
       [ Alcotest.test_case "harness sweep" `Quick
           test_harness_parallel_sweep;
         Alcotest.test_case "parallel prediction" `Quick
           test_prediction_replay_clean;
         Alcotest.test_case "diag schema shared" `Quick
           test_diag_schema_shared ]) ]
