(* Benchmark harness: one bechamel test per reproduced table/figure (on
   reduced catalogs so a run stays in the minutes) plus the ablation
   micro-benchmarks called out in DESIGN.md.

   Flags:
     --smoke        run every benchmark body exactly once (no bechamel)
     --only SUBSTR  keep only benchmarks whose name contains SUBSTR
                    (also skips the SAT-stat records in --json output)
     --skip SUBSTR  drop benchmarks whose name contains SUBSTR (repeatable;
                    applied after --only)
     --json FILE    write the measured results as a schema-versioned JSON
                    object: {schema_version; results; obs_counters} where
                    results holds {name, ns_per_run} timing records and
                    {name, count} SAT-solver statistics of one toy CEGIS
                    inference, and obs_counters the telemetry counters of
                    the same inference run traced
     --check-regression HISTORY
                    compare this run's timing records against the newest
                    entry of the HISTORY file (BENCH_sat.json layout) and
                    exit 1 if any bench regressed by more than 25%, 2 if
                    the records are incomparable (schema_version mismatch)
     --against FILE with --check-regression: gate the bench --json record
                    in FILE instead of running any benchmarks (repeatable:
                    each bench is gated on its fastest record across the
                    files)

   A filter that selects no benchmark, and --against without
   --check-regression, exit 2 with the usage line. *)

open Bechamel
open Toolkit
open Pmi_isa
open Pmi_portmap
open Pmi_core
module Rat = Pmi_numeric.Rat
module Machine = Pmi_machine.Machine
module Harness = Pmi_measure.Harness
module Pool = Pmi_parallel.Pool

(* ------------------------------------------------------------------ *)
(* Shared fixtures (built once, outside the timed region)              *)
(* ------------------------------------------------------------------ *)

let toy_catalog =
  Catalog.of_list
    [ ("add", [ Operand.gpr 64; Operand.gpr ~access:Operand.Read 64 ],
       Iclass.plain (Iclass.Single Iclass.Alu));
      ("mul", [ Operand.gpr 64; Operand.gpr ~access:Operand.Read 64 ],
       Iclass.plain (Iclass.Single Iclass.Alu));
      ("fma", [ Operand.gpr 64; Operand.gpr ~access:Operand.Read 64 ],
       Iclass.plain (Iclass.Single Iclass.Alu)) ]

let toy_add = Catalog.find toy_catalog 0
let toy_mul = Catalog.find toy_catalog 1
let toy_fma = Catalog.find toy_catalog 2

let toy_mapping =
  let both = Portset.of_list [ 0; 1 ] in
  let p2 = Portset.singleton 1 in
  let m = Mapping.create ~num_ports:2 in
  Mapping.set m toy_add [ (both, 1) ];
  Mapping.set m toy_mul [ (p2, 1) ];
  Mapping.set m toy_fma [ (both, 2); (p2, 1) ];
  m

let toy_experiment = Experiment.of_counts [ (toy_mul, 2); (toy_fma, 1) ]

let zen = Catalog.zen_plus ()
let zen_machine = Machine.create zen
let zen_harness = Harness.create zen_machine
let zen_block =
  Experiment.of_list
    (List.filteri (fun i _ -> i < 5)
       (List.map (fun b -> List.hd (Catalog.bucket zen b))
          [ "blocking/alu"; "blocking/vec-logic"; "blocking/fp-add";
            "blocking/shuffle"; "blocking/load" ]))

(* A pipeline-sized fixture: reduced catalog with fresh harness per run so
   caching does not hide the work. *)
let reduced_harness () =
  Harness.create (Machine.create (Catalog.reduced ~per_bucket:2 ()))

(* Stage 2 on a reduced catalog: its blocking candidates, found once, and
   a harness that has already answered every pair the stage asks for. *)
let stage2_catalog = Catalog.reduced ~per_bucket:4 ()

let stage2_candidates =
  let harness = Harness.create (Machine.create stage2_catalog) in
  Array.to_list (Catalog.schemes stage2_catalog)
  |> List.filter_map (fun s ->
      match Blocking.classify_individual harness s with
      | Blocking.Candidate n -> Some (s, n)
      | Blocking.Hardwired | Blocking.Unreliable | Blocking.Zero_uop
      | Blocking.Outside_model | Blocking.Multi_uop _ -> None)

(* A pair of candidates, measured by the warm harness below. *)
let harness_pair =
  match stage2_candidates with
  | (a, _) :: (b, _) :: _ -> Experiment.of_list [ a; b ]
  | _ -> failwith "bench: too few stage-2 candidates"

let stage2_warm =
  let harness = Harness.create (Machine.create stage2_catalog) in
  ignore (Blocking.filter_candidates harness stage2_candidates);
  ignore (Harness.run harness harness_pair);
  harness

(* Every pair of stage-2 candidates, asked in turn of one harness that is
   replaced after each full cycle: every run is a miss, and the cost of
   creating the harness is spread over the cycle. *)
let miss_pairs =
  let schemes = Array.of_list (List.map fst stage2_candidates) in
  let n = Array.length schemes in
  Array.concat
    (List.init n (fun i ->
         Array.init (n - i - 1) (fun k ->
             Experiment.of_list [ schemes.(i); schemes.(i + k + 1) ])))

let miss_harness = ref (Harness.create (Harness.machine stage2_warm))
let miss_next = ref 0

let harness_miss () =
  if !miss_next = 0 then
    miss_harness := Harness.create (Harness.machine stage2_warm);
  ignore (Harness.run !miss_harness miss_pairs.(!miss_next));
  miss_next := (!miss_next + 1) mod Array.length miss_pairs

let cegis_toy ?(certify = false) ~max_size () =
  let truth = Mapping.create ~num_ports:3 in
  Mapping.set truth toy_add [ (Portset.of_list [ 0; 1 ], 1) ];
  Mapping.set truth toy_mul [ (Portset.of_list [ 1; 2 ], 1) ];
  Mapping.set truth toy_fma [ (Portset.singleton 2, 1) ];
  let config =
    { Cegis.default_config with
      Cegis.num_ports = 3; r_max = 4; max_experiment_size = max_size;
      certify }
  in
  let measure e = Cegis.modeled_inverse config truth e in
  let specs =
    [ (toy_add, Encoding.Proper 2); (toy_mul, Encoding.Proper 2);
      (toy_fma, Encoding.Proper 1) ]
  in
  match Cegis.infer ~config ~measure ~specs () with
  | Cegis.Converged (_, stats) -> stats
  | Cegis.No_consistent_mapping _ | Cegis.Iteration_limit _ ->
    failwith "bench: toy CEGIS failed"

let pigeonhole_cnf ~proof ~pigeons ~holes =
  let open Pmi_smt in
  let s = Sat.create () in
  if proof then Sat.set_proof_logging s true;
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
  done;
  s

let solve_pigeonhole_sub ~proof ~pigeons ~holes =
  let open Pmi_smt in
  let s = pigeonhole_cnf ~proof ~pigeons ~holes in
  match Sat.solve s with
  | Sat.Unsat -> s
  | Sat.Sat _ -> failwith "bench: pigeonhole must be unsat"

let solve_pigeonhole ~pigeons ~holes =
  ignore (solve_pigeonhole_sub ~proof:false ~pigeons ~holes)

let certify_pigeonhole ~pigeons ~holes =
  let s = solve_pigeonhole_sub ~proof:true ~pigeons ~holes in
  match Pmi_analysis.Drat.check (Pmi_smt.Sat.proof s) with
  | Ok () -> ()
  | Error _ -> failwith "bench: pigeonhole certificate rejected"

(* A fixed random 3-SAT instance near the phase transition (120 vars,
   510 clauses), generated by a deterministic LCG so every run and every
   engine version solves the same formula. *)
let random_3sat_clauses =
  let state = ref 0x12345 in
  let next bound =
    state := ((!state * 1103515245) + 12345) land 0x3FFFFFFF;
    !state mod bound
  in
  let n = 120 in
  List.init 510 (fun _ ->
      let rec pick acc =
        if List.length acc = 3 then acc
        else
          let v = next n in
          if List.exists (fun l -> Pmi_smt.Lit.var l = v) acc then pick acc
          else pick (Pmi_smt.Lit.make v (next 2 = 0) :: acc)
      in
      pick [])

(* The expected verdict, established once at fixture time; the benchmark
   body asserts against it, so a verdict flip in a future engine shows up
   as a bench failure rather than a silent timing change. *)
let random_3sat_expected =
  let open Pmi_smt in
  let s = Sat.create () in
  for _ = 1 to 120 do
    ignore (Sat.fresh_var s)
  done;
  List.iter (Sat.add_clause s) random_3sat_clauses;
  match Sat.solve s with Sat.Sat _ -> true | Sat.Unsat -> false

let solve_random_3sat () =
  let open Pmi_smt in
  let s = Sat.create () in
  for _ = 1 to 120 do
    ignore (Sat.fresh_var s)
  done;
  List.iter (Sat.add_clause s) random_3sat_clauses;
  match Sat.solve s with
  | Sat.Sat model ->
    if not random_3sat_expected then failwith "bench: 3-SAT verdict flipped";
    if
      not
        (List.for_all
           (List.exists (fun l ->
                if Lit.is_pos l then model.(Lit.var l)
                else not model.(Lit.var l)))
           random_3sat_clauses)
    then failwith "bench: 3-SAT model violates a clause"
  | Sat.Unsat ->
    if random_3sat_expected then failwith "bench: 3-SAT verdict flipped"

let eval_schemes =
  Pmi_eval.Blocks.spec_subset ~size:40
    (List.concat_map (Catalog.bucket zen)
       [ "blocking/alu"; "blocking/vec-logic"; "blocking/vec-int";
         "blocking/fp-mul-cmp"; "blocking/shuffle"; "blocking/fp-add" ])

let eval_blocks =
  Pmi_eval.Blocks.generate ~count:50 ~block_size:5 eval_schemes

(* A larger sweep for the domain-pool benchmarks, so the per-item work
   amortises the domain spawns. *)
let sweep_blocks =
  Pmi_eval.Blocks.generate ~seed:7 ~count:800 ~block_size:5 eval_schemes

let ground_truth = Machine.ground_truth zen_machine

let zen_oracle = Oracle.create ground_truth

(* [zen_block]'s rows, and one accumulator that is rebuilt from them:
   what the distinguishing search does for each leaf value it has not
   kept. *)
let zen_rows =
  List.map
    (fun (s, n) -> (Mapping.row ground_truth s, n))
    (Experiment.to_counts zen_block)

let zen_acc = Oracle.Acc.create ()

(* An inseparable pair over real Zen+ schemes: the ground truth's rows of
   one scheme per blocking bucket, and the same rows with the port numbers
   reversed.  A renaming changes no throughput, and the search's
   relabeling sees that every scheme agrees under this one, so a run
   times the relabeling and evaluates no multiset.  The search keeps its
   slots from run to run. *)
let inseparable_search, inseparable_m1, inseparable_m2 =
  let schemes =
    List.filter
      (String.starts_with ~prefix:"blocking/")
      (Catalog.bucket_names zen)
    |> List.map (fun b -> List.hd (Catalog.bucket zen b))
  in
  let num_ports = Mapping.num_ports ground_truth in
  let mapping f =
    let m = Mapping.create ~num_ports in
    List.iter (fun s -> Mapping.set m s (f (Mapping.usage ground_truth s)))
      schemes;
    m
  in
  let reverse (ports, count) =
    ( Portset.of_list
        (List.map (fun p -> num_ports - 1 - p) (Portset.to_list ports)),
      count )
  in
  ( Cegis.Distinguish.create Cegis.default_config schemes,
    mapping Fun.id,
    mapping (fun u -> Mapping.normalize_usage (List.map reverse u)) )

let distinguish_inseparable () =
  Cegis.Distinguish.start inseparable_search inseparable_m1;
  match Cegis.Distinguish.find inseparable_search inseparable_m2 with
  | None -> ()
  | Some _ -> failwith "bench: a port renaming was told apart"

(* A pair that no renaming explains, from a round of the full Zen+ run:
   that round's reference mapping over its 12 schemes, in its own port
   numbering, and the same with the store's [0,1,2,3]+[8] replaced by
   [2]+[8].  No experiment of up to 5 instructions separates them, so a
   run on a fresh search evaluates every multiset holding the store. *)
let dominated_schemes, dominated_m1, dominated_m2 =
  let store = "mov <MEM[32]>, <GPR[32]>" in
  let rows =
    [ ("add <GPR[32]>, <GPR[32]>", [ [ 0; 1; 2; 3 ] ]);
      ("vpor <XMM>, <XMM>, <XMM>", [ [ 0; 4; 5; 6 ] ]);
      ("vpaddd <XMM>, <XMM>, <XMM>", [ [ 0; 4; 5 ] ]);
      ("vminps <XMM>, <XMM>, <XMM>", [ [ 0; 4 ] ]);
      ("vbroadcastss <XMM>, <XMM>", [ [ 4; 6 ] ]);
      ("vpaddsw <XMM>, <XMM>, <XMM>", [ [ 0; 5 ] ]);
      ("vaddps <XMM>, <XMM>, <XMM>", [ [ 5; 6 ] ]);
      ("mov <GPR[32]>, <MEM[32]>", [ [ 7; 8 ] ]);
      ("vpslld <XMM>, <XMM>, <XMM>", [ [ 6 ] ]);
      ("vroundps <XMM>, <XMM>, <IMM[8]>", [ [ 5 ] ]);
      (store, [ [ 0; 1; 2; 3 ]; [ 8 ] ]);
      ("vmovaps <MEM[128]>, <XMM>", [ [ 6 ]; [ 8 ] ]) ]
  in
  let scheme name =
    match
      Array.find_opt (fun s -> Scheme.name s = name) (Catalog.schemes zen)
    with
    | Some s -> s
    | None -> failwith ("bench: no scheme " ^ name)
  in
  let schemes = List.map (fun (name, _) -> scheme name) rows in
  let mapping rows =
    let m = Mapping.create ~num_ports:10 in
    List.iter2
      (fun s (_, sets) ->
         Mapping.set m s
           (List.map (fun ports -> (Portset.of_list ports, 1)) sets))
      schemes rows;
    m
  in
  let dominated =
    List.map
      (fun (name, sets) ->
         (name, if name = store then [ [ 2 ]; [ 8 ] ] else sets))
      rows
  in
  (schemes, mapping rows, mapping dominated)

let distinguish_dominated () =
  let search =
    Cegis.Distinguish.create Cegis.default_config dominated_schemes
  in
  Cegis.Distinguish.start search dominated_m1;
  match Cegis.Distinguish.find search dominated_m2 with
  | None -> ()
  | Some _ -> failwith "bench: the dominated store was told apart"

let predict_sweep domains =
  ignore
    (Pool.map_list ~domains
       (fun e -> Oracle.inverse_bounded ~r_max:5 zen_oracle e)
       sweep_blocks)

(* ------------------------------------------------------------------ *)
(* Tests: (name, body) pairs, shared by bechamel and the smoke mode    *)
(* ------------------------------------------------------------------ *)

let micro_tests =
  [ (* Ablation: the bottleneck-set formula vs the explicit simplex LP. *)
    ("oracle/bottleneck-formula", fun () ->
        ignore (Throughput.inverse toy_mapping toy_experiment));
    ("oracle/simplex-lp", fun () ->
        ignore (Lp_model.inverse toy_mapping toy_experiment));
    (* Naive baseline vs the sparse oracle on the same Zen block.  The
       [oracle/memoized*] names predate the sparse kernel; they are kept so
       the regression gate still pairs them across bench records. *)
    ("oracle/zen-block", fun () ->
        ignore (Throughput.inverse_bounded ~r_max:5 ground_truth zen_block));
    ("oracle/memoized-full", fun () ->
        ignore (Oracle.inverse_bounded ~r_max:5 zen_oracle zen_block));
    ("oracle/memoized", fun () ->
        (* Reset, add the block's rows, native query: the inner step of
           the stratified CEGIS search on a value it has not kept. *)
        Oracle.Acc.reset zen_acc;
        List.iter (fun (r, n) -> Oracle.Acc.add_row zen_acc r n) zen_rows;
        ignore (Oracle.Acc.inverse_bounded_frac ~r_max:5 zen_acc));
    (* Machine and harness costs per measurement. *)
    ("machine/samples-11", fun () ->
        ignore (Machine.samples zen_machine ~reps:11 zen_block));
    ("harness/median-of-11", fun () ->
        ignore (Harness.cycles (Harness.create zen_machine) zen_block));
    ("harness/run-hit", fun () ->
        ignore (Harness.run stage2_warm harness_pair));
    ("harness/run-miss", harness_miss);
    (* SAT solver on classic instances. *)
    ("sat/pigeonhole-7-6", fun () -> solve_pigeonhole ~pigeons:7 ~holes:6);
    ("sat/pigeonhole-8-7", fun () -> solve_pigeonhole ~pigeons:8 ~holes:7);
    ("sat/pigeonhole-9-8", fun () -> solve_pigeonhole ~pigeons:9 ~holes:8);
    ("sat/random-3sat", fun () -> solve_random_3sat ()) ]

let characterize_fixture =
  let blockers_ports =
    [ ("blocking/alu", [ 6; 7; 8; 9 ]); ("blocking/vec-logic", [ 0; 1; 2; 3 ]);
      ("blocking/load", [ 4; 5 ]); ("blocking/vec-shift", [ 2 ]) ]
  in
  let counter_free =
    List.map
      (fun (bucket, ports) ->
         { Port_usage.scheme = List.hd (Catalog.bucket zen bucket);
           ports = Portset.of_list ports })
      blockers_ports
  in
  let with_counters =
    List.map
      (fun (bucket, ports) ->
         (List.hd (Catalog.bucket zen bucket), Portset.of_list ports))
      blockers_ports
  in
  let target = List.hd (Catalog.bucket zen "regular/scalar-load") in
  (counter_free, with_counters, target)

let ablation_tests =
  [ (* The paper's headline trade: Algorithm 1 with per-port counters vs
       the counter-free throughput-difference replacement. *)
    ("ablation/characterize-counter-free", fun () ->
        let counter_free, _, target = characterize_fixture in
        match Port_usage.characterize zen_harness ~blockers:counter_free target with
        | Port_usage.Usage _ -> ()
        | Port_usage.Failed _ -> failwith "bench: characterisation failed");
    ("ablation/characterize-uops-info", fun () ->
        let _, with_counters, target = characterize_fixture in
        ignore (Uops_info.characterize zen_machine ~blockers:with_counters target));
    (* The toy CEGIS baseline the other cegis ablations compare against
       (the name predates the removal of the symmetry-breaking switch). *)
    ("ablation/cegis-with-symmetry", fun () ->
        ignore (cegis_toy ~max_size:4 ()));
    (* Stratification bound of the distinguishing-experiment search. *)
    ("ablation/cegis-bound-3", fun () ->
        ignore (cegis_toy ~max_size:3 ()));
    ("ablation/cegis-bound-6", fun () ->
        ignore (cegis_toy ~max_size:6 ()));
    (* Distinguishing searches (§3.3.4): a port renaming, told apart from
       nothing by the relabeling alone, and a pair that no renaming
       explains, walked cold. *)
    ("cegis/distinguish-inseparable", distinguish_inseparable);
    ("cegis/distinguish-dominated", distinguish_dominated);
    (* Proof logging (trust-but-verify): the trace-recording overhead on an
       UNSAT workhorse, the independent checker on top of it, and a fully
       certified CEGIS run (its baseline is ablation/cegis-with-symmetry
       above).  Compare proof-off vs proof-log for the logging tax, and
       proof-log vs proof-check for the checker's own cost. *)
    ("ablation/proof-off-pigeonhole-7-6", fun () ->
        solve_pigeonhole ~pigeons:7 ~holes:6);
    ("ablation/proof-log-pigeonhole-7-6", fun () ->
        ignore (solve_pigeonhole_sub ~proof:true ~pigeons:7 ~holes:6));
    ("ablation/proof-check-pigeonhole-7-6", fun () ->
        certify_pigeonhole ~pigeons:7 ~holes:6);
    ("ablation/cegis-certified", fun () ->
        ignore (cegis_toy ~certify:true ~max_size:4 ()));
    (* Telemetry: the same toy CEGIS inference with tracing off (the
       shipping default — one predicted branch per instrumentation point,
       so this must stay within noise of ablation/cegis-with-symmetry)
       and on (spans into the per-domain rings, counters on atomics). *)
    ("ablation/obs-off-cegis", fun () ->
        ignore (cegis_toy ~max_size:4 ()));
    ("ablation/obs-on-cegis", fun () ->
        Pmi_obs.Obs.enable ();
        Fun.protect
          ~finally:Pmi_obs.Obs.disable
          (fun () ->
             ignore (cegis_toy ~max_size:4 ()))) ]

let parallel_tests =
  [ (* Figure 5's prediction sweep, sequential vs the domain pool. *)
    ("parallel/predict-seq", fun () -> predict_sweep 1);
    ("parallel/predict-domains", fun () ->
        predict_sweep (Pool.default_domains ())) ]

let table_figure_tests =
  [ (* Table 1: stage-1 classification + candidate filtering. *)
    ("table1/blocking-classes", fun () ->
        let harness = reduced_harness () in
        let catalog = Machine.catalog (Harness.machine harness) in
        let candidates =
          Array.to_list (Catalog.schemes catalog)
          |> List.filter_map (fun s ->
              match Blocking.classify_individual harness s with
              | Blocking.Candidate n -> Some (s, n)
              | Blocking.Hardwired | Blocking.Unreliable | Blocking.Zero_uop
              | Blocking.Outside_model | Blocking.Multi_uop _ -> None)
        in
        let result = Blocking.filter_candidates harness candidates in
        assert (List.length result.Blocking.classes = 13));
    (* Stage 2 alone (§4.2's pair sweep): every pair measured afresh, and
       every pair answered from the harness's cache. *)
    ("stage2/filter-fresh", fun () ->
        let harness = Harness.create (Harness.machine stage2_warm) in
        ignore (Blocking.filter_candidates harness stage2_candidates));
    ("stage2/filter-warm", fun () ->
        ignore (Blocking.filter_candidates stage2_warm stage2_candidates));
    (* Table 2 + funnel: the whole pipeline on the reduced catalog. *)
    ("table2+funnel/pipeline", fun () ->
        let harness = reduced_harness () in
        let result = Pipeline.run harness in
        assert (result.Pipeline.funnel.Pipeline.blocking_classes = 13));
    (* Figure 5: per-model prediction cost over 50 blocks. *)
    ("figure5/ours-predictions", fun () ->
        List.iter
          (fun e -> ignore (Oracle.inverse_bounded ~r_max:5 zen_oracle e))
          eval_blocks);
    ("figure5/pmevo-inference", fun () ->
        let config =
          { Pmi_baselines.Pmevo.population = 12; generations = 5 }
        in
        let training =
          Pmi_baselines.Pmevo.training_set ~pairs:40 ~blocks:20 zen_harness
            eval_schemes
        in
        ignore
          (Pmi_baselines.Pmevo.infer ~config
             ~num_ports:(Machine.num_ports zen_machine) training eval_schemes));
    ("figure5/palmed-inference", fun () ->
        let config =
          { Pmi_baselines.Palmed.default_config with
            Pmi_baselines.Palmed.throughput_classes = 16 }
        in
        ignore (Pmi_baselines.Palmed.infer ~config zen_harness eval_schemes)) ]

let sections =
  [ ("micro-benchmarks", micro_tests);
    ("ablations (DESIGN.md)", ablation_tests);
    ("parallel sweeps", parallel_tests);
    ("table/figure regeneration", table_figure_tests) ]

(* ------------------------------------------------------------------ *)
(* Drivers                                                             *)
(* ------------------------------------------------------------------ *)

let benchmark tests =
  let ols =
    Analyze.ols ~bootstrap:0 ~r_square:true ~predictors:[| Measure.run |]
  in
  let instances = Instance.[ monotonic_clock ] in
  let cfg =
    Benchmark.cfg ~limit:40 ~quota:(Time.second 1.0) ~kde:(Some 10) ()
  in
  List.concat_map
    (fun (name, fn) ->
       let t = Test.make ~name (Staged.stage fn) in
       let raw = Benchmark.all cfg instances t in
       List.concat_map
         (fun instance ->
            let results = Analyze.all ols instance raw in
            Hashtbl.fold
              (fun name ols_result acc ->
                 match Analyze.OLS.estimates ols_result with
                 | Some [ per_run ] ->
                   Format.printf "%-36s %12.1f ns/run@." name per_run;
                   (name, per_run) :: acc
                 | Some _ | None ->
                   Format.printf "%-36s (no estimate)@." name;
                   acc)
              results [])
         instances)
    tests

let smoke tests =
  List.map
    (fun (name, fn) ->
       let t0 = Sys.time () in
       fn ();
       let ns = (Sys.time () -. t0) *. 1e9 in
       Format.printf "smoke %-36s ok@." name;
       (name, ns))
    tests

(* Aggregated SAT counters of one toy CEGIS inference: a cheap canary for
   solver-behaviour drift (a policy change moves these long before it moves
   wall-clock noise). *)
let solver_stat_records () =
  let stats = cegis_toy ~max_size:4 () in
  let s = stats.Cegis.sat in
  let open Pmi_smt in
  [ ("cegis-toy/sat-decisions", s.Sat.decisions);
    ("cegis-toy/sat-propagations", s.Sat.propagations);
    ("cegis-toy/sat-conflicts", s.Sat.conflicts);
    ("cegis-toy/sat-restarts", s.Sat.restarts);
    ("cegis-toy/sat-learned", s.Sat.learned);
    ("cegis-toy/sat-deleted", s.Sat.deleted);
    ("cegis-toy/sat-max-lbd", s.Sat.max_lbd) ]

(* Telemetry counters of the same toy inference run with tracing on: the
   obs_counters section of the JSON record, a second canary family
   (question-asking volume rather than solver policy). *)
let obs_counter_records () =
  Pmi_obs.Obs.enable ();
  Fun.protect
    ~finally:Pmi_obs.Obs.disable
    (fun () -> ignore (cegis_toy ~max_size:4 ()));
  Pmi_obs.Obs.counters ()

module Gj = Pmi_obs.Json

(* The schema-versioned bench record (see Pmi_obs.Gate): bumping the layout
   means bumping [Gate.schema_version], which makes old and new records
   incomparable rather than silently misread. *)
let bench_record ?(with_stats = true) results =
  let stats = if with_stats then solver_stat_records () else [] in
  let obs = if with_stats then obs_counter_records () else [] in
  let timing (name, ns) =
    Gj.Obj [ ("name", Gj.Str name); ("ns_per_run", Gj.Num ns) ]
  in
  let count (name, c) =
    Gj.Obj [ ("name", Gj.Str name); ("count", Gj.Num (float_of_int c)) ]
  in
  Gj.to_string
    (Gj.Obj
       [ ("schema_version", Gj.Num (float_of_int Pmi_obs.Gate.schema_version));
         ("results", Gj.List (List.map timing results @ List.map count stats));
         ("obs_counters", Gj.List (List.map count obs)) ])

let emit_json record path =
  let oc = open_out path in
  output_string oc record;
  output_string oc "\n";
  close_out oc

let read_file path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in_noerr ic)
    (fun () -> really_input_string ic (in_channel_length ic))

(* The regression gate: this run (or [--against FILE]) vs the newest entry
   of a BENCH_sat.json-style history file.  Exit codes: 0 clean, 1
   regressed, 2 incomparable or unreadable. *)
let check_regression ~history ~against results =
  let module Gate = Pmi_obs.Gate in
  let baseline =
    try Gate.latest_history_entry (read_file history)
    with Sys_error msg -> Error msg
  in
  let current =
    match against with
    | _ :: _ ->
      let parse file =
        try Gate.parse_run (read_file file) with Sys_error msg -> Error msg
      in
      List.fold_left
        (fun acc file ->
           match (acc, parse file) with
           | Ok runs, Ok run -> Ok (run :: runs)
           | (Error _ as e), _ | _, (Error _ as e) -> e)
        (Ok []) against
      |> Fun.flip Result.bind (fun runs -> Gate.fastest (List.rev runs))
    | [] ->
      Ok
        { Gate.version = Some Gate.schema_version;
          records =
            List.map
              (fun (name, ns) ->
                 { Gate.name; ns_per_run = Some ns; count = None })
              results }
  in
  match (baseline, current) with
  | Error msg, _ ->
    Printf.eprintf "check-regression: cannot read baseline %s: %s\n" history
      msg;
    exit 2
  | _, Error msg ->
    Printf.eprintf "check-regression: cannot read current run: %s\n" msg;
    exit 2
  | Ok baseline, Ok current ->
    (match Gate.compare_runs ~baseline ~current with
     | Error msg ->
       Printf.eprintf "check-regression: %s\n" msg;
       exit 2
     | Ok verdicts ->
       print_string (Gate.report verdicts);
       if Gate.regressions verdicts <> [] then exit 1)

let () =
  let smoke_mode = ref false in
  let json = ref None in
  let only = ref None in
  let skips = ref [] in
  let regression = ref None in
  let against = ref [] in
  let usage fmt =
    Printf.ksprintf
      (fun msg ->
         Printf.eprintf
           "usage: %s [--smoke] [--only SUBSTR] [--skip SUBSTR]... [--json FILE] \
            [--check-regression HISTORY [--against FILE]...]\n%s\n"
           Sys.argv.(0) msg;
         exit 2)
      fmt
  in
  let rec parse = function
    | [] -> ()
    | "--smoke" :: rest -> smoke_mode := true; parse rest
    | "--json" :: file :: rest -> json := Some file; parse rest
    | "--only" :: substr :: rest -> only := Some substr; parse rest
    | "--skip" :: substr :: rest -> skips := substr :: !skips; parse rest
    | "--check-regression" :: file :: rest -> regression := Some file; parse rest
    | "--against" :: file :: rest -> against := file :: !against; parse rest
    | arg :: _ -> usage "unknown argument %s" arg
  in
  parse (List.tl (Array.to_list Sys.argv));
  match (!regression, List.rev !against) with
  | Some history, (_ :: _ as against) ->
    (* Pure gate mode: both sides come from files, nothing runs. *)
    check_regression ~history ~against []
  | None, _ :: _ -> usage "--against needs --check-regression"
  | regression, [] ->
    let driver = if !smoke_mode then smoke else benchmark in
    let contains hay needle =
      let nh = String.length hay and nn = String.length needle in
      let rec at i =
        i + nn <= nh && (String.sub hay i nn = needle || at (i + 1))
      in
      at 0
    in
    let keep name =
      (match !only with None -> true | Some s -> contains name s)
      && not (List.exists (contains name) !skips)
    in
    let selected =
      List.filter_map
        (fun (title, tests) ->
           match List.filter (fun (name, _) -> keep name) tests with
           | [] -> None
           | tests -> Some (title, tests))
        sections
    in
    (* A filter that matches nothing (say, after its bench was deleted)
       must fail loudly, not pass with an empty record. *)
    if selected = [] then usage "no benchmark matches --only/--skip";
    let results =
      List.concat_map
        (fun (title, tests) ->
           Format.printf "== %s ==@." title;
           let rs = driver tests in
           Format.printf "@.";
           rs)
        selected
    in
    Option.iter
      (fun file ->
         emit_json
           (bench_record ~with_stats:(!only = None && !skips = []) results)
           file)
      !json;
    Format.printf "done.@.";
    Option.iter
      (fun history -> check_regression ~history ~against:[] results)
      regression
