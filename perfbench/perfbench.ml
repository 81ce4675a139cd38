(* The repository's benchmark: end-to-end metrics of two workloads and a
   traced per-layer breakdown of the same work.

     perfbench --workload NAME --seed N --seconds S --trace 0|1
     perfbench --describe
     perfbench --manifest

   Workloads (see [describe] for the reason each one was chosen):
   - zenplus-full: [Pipeline.run] on the 2,980-scheme Zen+ catalog;
   - predict-gc12: [Oracle.inverse_bounded] on random 5-instruction blocks
     against the 12-port Golden-Cove-like ground truth.

   An untraced run ([--trace 0]) times the work with telemetry off and
   prints the end-to-end metrics.  Its times are reported in units of a
   reference kernel timed alongside them in the same process (see
   [Reference]), because on a shared host the raw times of runs minutes
   apart differ by up to 1.7x.  A traced run ([--trace 1]) performs a
   layered variant of the work with telemetry on, puts the benchmark's own
   spans around the library's public entry points, and splits the traced
   wall time by layer from [Obs.events].

   Every run compares its outputs with independent references: the
   paper-facing Zen+ numbers written below and the simplex LP for
   predictions.  The last line of standard output is one JSON
   object {correct, attempted, failed, metrics}; [attempted] counts the
   outputs compared, [failed] the ones that disagreed.  The lines before it
   name every metric with its unit, layer and the end-to-end metric it is
   meant to move.

   The metric catalog below is the one source of the workloads and metrics:
   [--manifest] prints BENCHMARK.json from it, and every run first checks
   that the BENCHMARK.json of the current directory still matches. *)

open Pmi_isa
module Rat = Pmi_numeric.Rat
module Mapping = Pmi_portmap.Mapping
module Experiment = Pmi_portmap.Experiment
module Oracle = Pmi_portmap.Oracle
module Lp_model = Pmi_portmap.Lp_model
module Machine = Pmi_machine.Machine
module Profile = Pmi_machine.Profile
module Harness = Pmi_measure.Harness
module Blocking = Pmi_core.Blocking
module Port_usage = Pmi_core.Port_usage
module Pipeline = Pmi_core.Pipeline
module Blocks = Pmi_eval.Blocks
module Obs = Pmi_obs.Obs
module Json = Pmi_obs.Json

(* ------------------------------------------------------------------ *)
(* Metric catalog                                                      *)
(* ------------------------------------------------------------------ *)

(* An end-to-end metric carries its bound: the share of the parent's median
   by which it may get worse before a change is rejected. *)
type kind = End_to_end of float | Per_layer

type metric = {
  name : string;
  unit_ : string;
  better : string;  (** "lower" or "higher" *)
  kind : kind;
  layer : string;
  moves : string;  (** the end-to-end metric and workload it should move *)
  doc : string;
}

let e2e name unit_ ~bound doc =
  { name; unit_; better = "lower"; kind = End_to_end bound; layer = "end-to-end";
    moves = "-"; doc }

let layer ?(better = "lower") name unit_ layer moves doc =
  { name; unit_; better; kind = Per_layer; layer; moves; doc }

let wall_zen = "wall_rel on zenplus-full"
let wall_gc12 = "wall_rel on predict-gc12"

let catalog_metrics =
  [ e2e "setup_s" "s" ~bound:0.25
      "set-up time at the reference's nominal speed: median over 21 \
       constructions of the workload's fixture, spread over the run, of the \
       construction's time in reference queries sampled right after it, times \
       the nominal query time; the fixture is catalog, machine and harness, \
       or catalog, ground truth, oracle tables and block pool";
    e2e "wall_rel" "ref" ~bound:0.25
      "median over the run's operations of the operation's wall time in \
       reference queries timed alongside it: one operation is Pipeline.run, \
       or one prediction pass over the block pool";
    e2e "peak_heap_mb" "MB" ~bound:0.2
      "the GC's top major-heap size over the fixture and the first operation";
    layer "blocking.classify_s" "s" "Blocking" wall_zen
      "self time of Blocking.classify_individual over every scheme (stage 1)";
    layer "blocking.filter_s" "s" "Blocking" wall_zen
      "self time of Blocking.filter_candidates (stage 2)";
    layer "port_usage.characterize_s" "s" "Port_usage" wall_zen
      "self time of Port_usage.characterize over the characterised rows, on the warm harness";
    layer "port_usage.calls" "count" "Port_usage" wall_zen "Port_usage.characterize calls";
    layer "cegis.infer_s" "s" "Cegis" wall_zen
      "inclusive time of Cegis.infer (outermost spans)";
    layer "cegis.infer_calls" "count" "Cegis" wall_zen "Cegis.infer calls";
    layer "cegis.self_s" "s" "Cegis" wall_zen
      "self time of every cegis.* span except the distinguishing search";
    layer "cegis.explain_s" "s" "Cegis" wall_zen
      "inclusive time of the culprit search's Cegis.explain calls";
    layer "cegis.explain_calls" "count" "Cegis" wall_zen "Cegis.explain calls";
    layer "cegis.distinguish_self_s" "s" "Cegis" wall_zen
      "self time of the distinguishing-experiment search";
    layer "cegis.observations" "count" "Cegis" "harness.benchmarks on zenplus-full"
      "experiments CEGIS measured";
    layer "cegis.candidates_tried" "count" "Cegis" "harness.benchmarks on zenplus-full"
      "candidate mappings CEGIS examined";
    layer "theory.check_s" "s" "theory" "wall_rel and peak_heap_mb on zenplus-full"
      "self time of the throughput-oracle theory checks under the solver";
    layer "theory.check_calls" "count" "theory" "wall_rel and peak_heap_mb on zenplus-full"
      "theory checks";
    layer "cegis.theory_lemmas" "count" "theory" "wall_rel and peak_heap_mb on zenplus-full"
      "lemmas the theory pushed back to SAT";
    layer "sat.solve_s" "s" "Sat/Solver" wall_zen "self time of CDCL calls";
    layer "sat.solve_calls" "count" "Sat/Solver" wall_zen "CDCL calls";
    layer "cegis.sat_episodes" "count" "Sat/Solver" wall_zen "solver episodes";
    layer "harness.measure_s" "s" "Harness" wall_zen
      "self time of fresh measurements (reps, median, quantisation, machine)";
    layer "harness.benchmarks" "count" "Harness" wall_zen
      "distinct microbenchmarks run (the unit that costs real time on hardware)";
    layer ~better:"higher" "harness.mem_hit_ratio" "ratio" "Harness" wall_zen
      "harness queries answered by the in-memory cache / all queries";
    layer "machine.measurements" "count" "Machine" wall_zen
      "simulated machine measurements";
    layer "oracle.prepare_s" "s" "Oracle" "setup_s on predict-gc12"
      "prediction fixture: spec subset, block pool, Oracle.create and prepare";
    layer "oracle.query_s" "s" "Oracle" wall_gc12
      "Oracle.inverse_bounded over the block pool";
    layer "oracle.queries" "count" "Oracle" wall_gc12 "blocks predicted";
    layer "oracle.query_p50_us" "us" "Oracle" wall_gc12
      "median per-block latency of Oracle.inverse_bounded";
    layer "oracle.query_p99_us" "us" "Oracle" wall_gc12
      "99th-percentile per-block latency of Oracle.inverse_bounded";
    layer "pipeline.self_s" "s" "Pipeline" wall_zen
      "part of Pipeline.run not covered by the spans above (cached stages 1-2, \
       relabel, Algorithm 1 compute, bookkeeping)";
    layer "bench.glue_s" "s" "benchmark" "-"
      "traced wall time outside every layer span (checked below 1% of trace.wall_s)";
    layer "trace.wall_s" "s" "benchmark" "-" "wall time of the traced layered operation";
    layer "trace.overhead_s" "s" "benchmark" "-"
      "tracing cost inside trace.wall_s: spans recorded times the cost of one \
       span, measured in the same run";
    layer ~better:"higher" "trace.accounted_share" "ratio" "benchmark" "-"
      "layer self times, pipeline.self_s included, over trace.wall_s";
    layer "trace.events" "count" "benchmark" "-" "span events retained";
    layer "trace.dropped" "count" "benchmark" "-" "events lost by the ring (must be 0)" ]

type workload = Zenplus_full | Predict_gc12

let workloads =
  [ ("zenplus-full", Zenplus_full,
     "the paper's own run: Pipeline.run on the full 2,980-scheme Zen+ catalog, where \
      theory checks, the search, SAT and the culprit search dominate");
    ("predict-gc12", Predict_gc12,
     "one-shot 12-port throughput queries on the Oracle alone, no SAT or measurement: \
      shows kernel changes and the 2^P port-count cost") ]

(* Sets the number of prediction passes on predict-gc12; a zenplus-full
   run is one operation of about a minute whatever the setting. *)
let run_seconds = 30

(* BENCHMARK.json as the catalog above defines it. *)
let manifest =
  let open Json in
  let metrics select =
    List.filter_map
      (fun m ->
         Option.map
           (fun bound ->
              Obj ([ ("name", Str m.name); ("unit", Str m.unit_); ("better", Str m.better) ]
                   @ Option.fold ~none:[] ~some:(fun b -> [ ("bound", Num b) ]) bound))
           (select m.kind))
      catalog_metrics
  in
  Obj
    [ ("command", List [ Str "python3"; Str "perfbench/run.py" ]);
      ("paths", List [ Str "perfbench" ]);
      ("run_seconds", Num (float_of_int run_seconds));
      ("workloads",
       List (List.map (fun (name, _, why) -> Obj [ ("name", Str name); ("why", Str why) ])
               workloads));
      ("end_to_end",
       List (metrics (function End_to_end b -> Some (Some b) | Per_layer -> None)));
      ("per_layer", List (metrics (function Per_layer -> Some None | End_to_end _ -> None))) ]

(* One top-level key per line, one list element per line. *)
let manifest_text () =
  match manifest with
  | Json.Obj fields ->
    let field (k, v) =
      Printf.sprintf "  %s: %s" (Json.to_string (Json.Str k))
        (match v with
         | Json.List (Json.Obj _ :: _ as xs) ->
           "[\n    " ^ String.concat ",\n    " (List.map Json.to_string xs) ^ "\n  ]"
         | v -> Json.to_string v)
    in
    "{\n" ^ String.concat ",\n" (List.map field fields) ^ "\n}\n"
  | _ -> assert false

let check_manifest () =
  let parsed =
    match In_channel.with_open_bin "BENCHMARK.json" In_channel.input_all with
    | text -> Json.parse text
    | exception Sys_error e -> Error e
  in
  if parsed <> Ok manifest then begin
    prerr_endline
      "perfbench: BENCHMARK.json does not match the metric catalog in \
       perfbench/perfbench.ml; regenerate it with `perfbench --manifest`";
    exit 1
  end

(* ------------------------------------------------------------------ *)
(* Clock, samples, checks                                              *)
(* ------------------------------------------------------------------ *)

let now () = float_of_int (Obs.clock_ns ()) *. 1e-9

let timed f =
  let t0 = now () in
  let r = f () in
  (r, now () -. t0)

(* Growable float sample buffer. *)
module Samples = struct
  type t = { mutable data : float array; mutable n : int }

  let create () = { data = Array.make 4096 0.0; n = 0 }

  let push t x =
    if t.n = Array.length t.data then begin
      let d = Array.make (2 * t.n) 0.0 in
      Array.blit t.data 0 d 0 t.n;
      t.data <- d
    end;
    t.data.(t.n) <- x;
    t.n <- t.n + 1

  (* Linear interpolation between order statistics; 0 when empty. *)
  let quantile t q =
    if t.n = 0 then 0.0
    else begin
      let a = Array.sub t.data 0 t.n in
      Array.sort Float.compare a;
      let pos = q *. float_of_int (t.n - 1) in
      let lo = int_of_float pos in
      let hi = min (lo + 1) (t.n - 1) in
      a.(lo) +. ((pos -. float_of_int lo) *. (a.(hi) -. a.(lo)))
    end

  let mean t =
    let sum = ref 0.0 in
    for i = 0 to t.n - 1 do
      sum := !sum +. t.data.(i)
    done;
    !sum /. float_of_int t.n
end

(* ------------------------------------------------------------------ *)
(* Reference kernel                                                    *)
(* ------------------------------------------------------------------ *)

(* The host's speed at the moment, so that runs minutes apart compare.  On
   a shared host the same operation runs up to 1.7x slower for minutes at
   a time, while plain arithmetic and pointer-chasing probes slow by only
   about 1.1x, so the reference does what the program does: it is a frozen
   copy of the oracle's query loop (cumulative-mass tables over the 2^P
   port lattice, the pointwise sum of five of them, a best-bottleneck
   scan) on 12 ports over as many tables as the prediction fixture
   prepares.  It lives in the benchmark, so a change to the library does
   not move it.  Its tables are one Bigarray and a sample allocates nothing
   on the OCaml heap, so it changes neither the program's GC pacing nor the
   heap figures.  Every sample runs the same queries.  Times are reported
   in reference queries: a time over one query's time in the same run. *)
module Reference = struct
  module A = Bigarray.Array1

  type t = {
    size : int;  (** 2^ports *)
    card : int array;  (** popcount per mask *)
    count : int;  (** tables *)
    tables : (int, Bigarray.int_elt, Bigarray.c_layout) A.t;  (** count * size *)
    cum : (int, Bigarray.int_elt, Bigarray.c_layout) A.t;
  }

  (* A query's time at the nominal speed, a round figure near the median
     on a 2-vCPU Xeon (Sapphire Rapids) VM, where it swings from 40 to
     80 us; it only fixes the scale of [setup_s]. *)
  let nominal_query_s = 5e-5

  let next x = ((x * 1103515245) + 12345) land 0x3fffffff
  let sink = ref 0

  (* [count] tables of three random point masses each, zeta-transformed. *)
  let create () =
    let ports = 12 and count = 577 in
    let size = 1 lsl ports in
    let card = Array.make size 0 in
    for q = 1 to size - 1 do
      card.(q) <- card.(q lsr 1) + (q land 1)
    done;
    let tables = A.create Bigarray.int Bigarray.c_layout (count * size) in
    A.fill tables 0;
    let x = ref 1 in
    for i = 0 to count - 1 do
      let base = i * size in
      for _ = 1 to 3 do
        x := next !x;
        let q = base + 1 + ((!x lsr 4) mod (size - 1)) in
        A.set tables q (A.get tables q + 1)
      done;
      for k = 0 to ports - 1 do
        let bit = 1 lsl k in
        for q = 0 to size - 1 do
          if q land bit <> 0 then
            A.set tables (base + q) (A.get tables (base + q) + A.get tables (base + (q lxor bit)))
        done
      done
    done;
    { size; card; count; tables; cum = A.create Bigarray.int Bigarray.c_layout size }

  (* Seconds per query over [queries] queries. *)
  let sample t ~queries =
    let t0 = Obs.clock_ns () in
    let x = ref 7 in
    for _ = 1 to queries do
      A.fill t.cum 0;
      for _ = 1 to 5 do
        x := next !x;
        let base = (!x lsr 4) mod t.count * t.size in
        for q = 0 to t.size - 1 do
          A.unsafe_set t.cum q (A.unsafe_get t.cum q + A.unsafe_get t.tables (base + q))
        done
      done;
      let num = ref 0 and den = ref 1 in
      for q = 1 to t.size - 1 do
        let mass = A.unsafe_get t.cum q in
        if mass * !den > !num * t.card.(q) then begin
          num := mass;
          den := t.card.(q)
        end
      done;
      sink := !sink + !num + !den
    done;
    float_of_int (Obs.clock_ns () - t0) *. 1e-9 /. float_of_int queries
end

(* Runs [f] while a timer signal takes a reference sample of [queries]
   queries every [period] seconds.  Returns f's result, its time without
   the samples' and the mean sample: f's time is the integral of the
   host's speed over it, which the mean follows and the median does not
   (over five pipeline runs, the time over the median sample ranged over
   0.3 of its median, over the mean sample 0.09). *)
let with_reference r ~period ~queries f =
  let samples = Samples.create () and spent = ref 0 in
  let tick _ =
    let t0 = Obs.clock_ns () in
    Samples.push samples (Reference.sample r ~queries);
    spent := !spent + (Obs.clock_ns () - t0)
  in
  let timer interval =
    ignore
      (Unix.setitimer Unix.ITIMER_REAL { Unix.it_interval = interval; it_value = interval })
  in
  Sys.set_signal Sys.sigalrm (Sys.Signal_handle tick);
  timer period;
  let t0 = Obs.clock_ns () in
  let result, t1, ticks =
    Fun.protect
      ~finally:(fun () ->
          timer 0.0;
          Sys.set_signal Sys.sigalrm Sys.Signal_default)
      (fun () ->
         let result = f () in
         (result, Obs.clock_ns (), !spent))
  in
  (* An operation shorter than the period still gets one sample. *)
  if samples.n = 0 then Samples.push samples (Reference.sample r ~queries);
  (result, float_of_int (t1 - t0 - ticks) *. 1e-9, Samples.mean samples)

let attempted = ref 0
let failures = ref []

let expect label ok =
  incr attempted;
  if not ok then failures := label :: !failures

let expect_int label ~expected actual =
  expect (Printf.sprintf "%s: expected %d, got %d" label expected actual)
    (expected = actual)

let expect_str label ~expected actual =
  expect (Printf.sprintf "%s: expected %S, got %S" label expected actual)
    (expected = actual)

(* ------------------------------------------------------------------ *)
(* References                                                          *)
(* ------------------------------------------------------------------ *)

(* The paper-facing Zen+ numbers (EXPERIMENTS.md's funnel, Table 1 and
   Table 2), written out by hand so that the library cannot drift them. *)
let zen_funnel (f : Pipeline.funnel) =
  [ ("total", 2980, f.total);
    ("excluded_individual", 657, f.excluded_individual);
    ("after_stage1", 2323, f.after_stage1);
    ("candidates_initial", 691, f.candidates_initial);
    ("excluded_pairing", 436, f.excluded_pairing);
    ("after_stage2", 1887, f.after_stage2);
    ("candidates_final", 563, f.candidates_final);
    ("blocking_classes", 13, f.blocking_classes);
    ("excluded_mnemonic", 68, f.excluded_mnemonic);
    ("considered", 1819, f.considered);
    ("inferred", 1700, f.inferred) ]

let zen_culprits = [ "imul"; "vmovd"; "vpmuldq" ]

let zen_table1 =
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

let zen_table2 =
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

let check_zen_plus (r : Pipeline.t) =
  List.iter
    (fun (label, expected, actual) -> expect_int ("funnel " ^ label) ~expected actual)
    (zen_funnel r.funnel);
  let culprits =
    List.sort compare
      (List.map (fun k -> Scheme.mnemonic k.Blocking.representative) r.removed_classes)
  in
  expect_str "culprits" ~expected:(String.concat "," zen_culprits)
    (String.concat "," culprits);
  let classes = r.filtering.Blocking.classes in
  expect_int "Table 1 rows" ~expected:(List.length zen_table1) (List.length classes);
  List.iteri
    (fun i (ports, rep, size) ->
       match List.nth_opt classes i with
       | None -> ()
       | Some k ->
         expect_str (Printf.sprintf "Table 1 row %d" (i + 1))
           ~expected:(Printf.sprintf "%d %s %d" ports rep size)
           (Printf.sprintf "%d %s %d" k.Blocking.port_count
              (Scheme.name k.Blocking.representative) (List.length k.Blocking.members)))
    zen_table1;
  let kept =
    List.filter
      (fun k ->
         not (List.exists (fun c -> Scheme.equal c.Blocking.representative
                                       k.Blocking.representative) r.removed_classes))
      classes
  in
  let rows = List.map (fun k -> k.Blocking.representative) kept @ r.improper in
  expect_int "Table 2 rows" ~expected:(List.length zen_table2) (List.length rows);
  List.iter
    (fun (name, expected) ->
       let inferred =
         match List.find_opt (fun s -> Scheme.name s = name) rows with
         | None -> "(missing)"
         | Some s ->
           (match Mapping.find_opt r.blocker_mapping s with
            | Some u -> Mapping.usage_to_string u
            | None -> "(unmapped)")
       in
       expect_str ("Table 2 " ^ name) ~expected inferred)
    zen_table2

(* ------------------------------------------------------------------ *)
(* Throughput prediction                                               *)
(* ------------------------------------------------------------------ *)

let block_size = 5

(* Blocks per prediction pass, about a tenth of a second a pass, so that a
   run's wall_rel is taken over hundreds of passes. *)
let predict_blocks = 2_000
let spec_schemes = 577

(* The spec subset stands in for the schemes of a fixed set of SPEC
   binaries, so it does not vary with the workload seed (Figure 5's seed);
   the blocks drawn over it do. *)
let spec_seed = Pmi_eval.Figure5.default_options.Pmi_eval.Figure5.seed
let lp_sample = 24

type predictor = {
  oracle : Oracle.t;
  mapping : Mapping.t;
  r_max : int;
  blocks : Experiment.t array;
}

(* The Figure 5 fixture on the 12-port ground truth: a seeded spec subset
   of the covered schemes, seeded blocks over it, and the oracle's tables
   for the subset. *)
let make_predictor ~seed (catalog, r_max, mapping) =
  let covered =
    List.filter (Mapping.supports mapping) (Array.to_list (Catalog.schemes catalog))
  in
  let schemes = Blocks.spec_subset ~seed:spec_seed ~size:spec_schemes covered in
  let blocks =
    Array.of_list (Blocks.generate ~seed ~count:predict_blocks ~block_size schemes)
  in
  let oracle = Oracle.create mapping in
  Oracle.prepare oracle schemes;
  { oracle; mapping; r_max; blocks }

let golden_cove_truth () =
  let catalog = Catalog.zen_plus () in
  let machine = Machine.create ~profile:Profile.golden_cove catalog in
  (catalog, Machine.r_max machine, Machine.ground_truth machine)

(* Predict every block and record each call's latency in ns. *)
let predict_all p latencies =
  Array.map
    (fun e ->
       let t0 = Obs.clock_ns () in
       let v = Oracle.inverse_bounded ~r_max:p.r_max p.oracle e in
       Samples.push latencies (float_of_int (Obs.clock_ns () - t0));
       v)
    p.blocks

(* The simplex LP of §2.2 shares no code with the oracle's tables. *)
let check_against_lp p results =
  for i = 0 to min lp_sample (Array.length results) - 1 do
    let e = p.blocks.(i) in
    let expected =
      Rat.max (Lp_model.inverse p.mapping e)
        (Rat.of_ints (Experiment.length e) p.r_max)
    in
    expect (Printf.sprintf "block %d vs LP" i) (Rat.equal expected results.(i))
  done

(* ------------------------------------------------------------------ *)
(* Trace aggregation                                                   *)
(* ------------------------------------------------------------------ *)

(* The layer bucket of each span name.  A span the table does not know
   (one added to the library later) inherits its parent's bucket; an
   unknown top-level span is [unattributed], which the layers do not
   account for. *)
let unattributed = "unattributed"

let bucket_of_name = function
  | "bench.blocking.classify" -> Some "blocking.classify_s"
  | "bench.blocking.filter" -> Some "blocking.filter_s"
  | "bench.pipeline" -> Some "pipeline.self_s"
  | "bench.port_usage.characterize" -> Some "port_usage.characterize_s"
  | "bench.oracle.prepare" -> Some "oracle.prepare_s"
  | "bench.oracle.query" -> Some "oracle.query_s"
  | "cegis.distinguish" -> Some "cegis.distinguish_self_s"
  | "theory.check" -> Some "theory.check_s"
  | "sat.solve" -> Some "sat.solve_s"
  | "harness.measure" -> Some "harness.measure_s"
  | name when String.starts_with ~prefix:"cegis." name -> Some "cegis.self_s"
  | _ -> None

let layer_buckets =
  [ "blocking.classify_s"; "blocking.filter_s"; "pipeline.self_s";
    "port_usage.characterize_s"; "oracle.prepare_s"; "oracle.query_s";
    "cegis.self_s"; "cegis.distinguish_self_s"; "theory.check_s"; "sat.solve_s";
    "harness.measure_s" ]

type span_stats = {
  calls : (string, int) Hashtbl.t;      (* spans per name *)
  outer_ns : (string, int) Hashtbl.t;   (* inclusive time, outermost only *)
  self_ns : (string, int) Hashtbl.t;    (* self time per bucket *)
  mutable spans : int;
}

let bump tbl key n =
  Hashtbl.replace tbl key (n + Option.value ~default:0 (Hashtbl.find_opt tbl key))

(* Self time of a span = its duration minus its direct children's.  With
   one recording domain, sorting by (start, depth) puts every parent
   before its children, so the latest span seen at depth d - 1 is the
   parent of a span at depth d. *)
let aggregate events =
  let spans =
    Array.of_list (List.filter (fun (e : Obs.event) -> e.kind = Obs.Span) events)
  in
  Array.sort
    (fun (a : Obs.event) (b : Obs.event) -> compare (a.tid, a.ts_ns, a.depth) (b.tid, b.ts_ns, b.depth))
    spans;
  let st =
    { calls = Hashtbl.create 32; outer_ns = Hashtbl.create 32;
      self_ns = Hashtbl.create 32; spans = Array.length spans }
  in
  let max_depth = 1 + Array.fold_left (fun m (e : Obs.event) -> max m e.depth) 0 spans in
  let stack = Array.make max_depth (-1) in
  let bucket = Array.make (Array.length spans) unattributed in
  let self = Array.map (fun (e : Obs.event) -> e.dur_ns) spans in
  Array.iteri
    (fun i (e : Obs.event) ->
       let parent = if e.depth = 0 then -1 else stack.(e.depth - 1) in
       if parent >= 0 then self.(parent) <- self.(parent) - e.dur_ns;
       bucket.(i) <-
         (match bucket_of_name e.name with
          | Some b -> b
          | None -> if parent >= 0 then bucket.(parent) else unattributed);
       stack.(e.depth) <- i;
       bump st.calls e.name 1;
       let nested =
         let rec up d = d >= 0 && (spans.(stack.(d)).name = e.name || up (d - 1)) in
         up (e.depth - 1)
       in
       if not nested then bump st.outer_ns e.name e.dur_ns)
    spans;
  Array.iteri (fun i b -> bump st.self_ns b self.(i)) bucket;
  st

(* ------------------------------------------------------------------ *)
(* Workloads                                                           *)
(* ------------------------------------------------------------------ *)

(* Noise seed of the i-th pipeline of a run: the workload seed first, then
   seeds derived from it. *)
let noise_seed seed i = if i = 0 then seed else Hashtbl.hash (seed, i)

let make_harness catalog seed =
  let config = { Machine.default_config with Machine.seed } in
  Harness.create (Machine.create ~config ~profile:Profile.zen_plus catalog)

let span = Obs.span

(* The traced run's variant of a pipeline operation, on a fresh harness:
   stages 1-2, [Pipeline.run] on the now warm harness, then Algorithm 1
   again over the rows the result characterised, each inside a span.
   Returns the result, the characterize calls and the time of the four
   spans together. *)
let layered_pipeline harness catalog =
  let r_max = Machine.r_max (Harness.machine harness) in
  let config = { Blocking.default_config with Blocking.r_max; max_ports = r_max - 1 } in
  let schemes = Catalog.schemes catalog in
  timed (fun () ->
      let stage1 =
        span "bench.blocking.classify" (fun () ->
            Array.map (Blocking.classify_individual ~config harness) schemes)
      in
      span "bench.blocking.filter" (fun () ->
          let candidates =
            List.concat
              (Array.to_list
                 (Array.mapi
                    (fun i v ->
                       match v with
                       | Blocking.Candidate ports -> [ (schemes.(i), ports) ]
                       | _ -> [])
                    stage1))
          in
          ignore (Blocking.filter_candidates ~config harness candidates));
      let result = span "bench.pipeline" (fun () -> Pipeline.run harness) in
      let calls =
        span "bench.port_usage.characterize" (fun () ->
            Array.fold_left
              (fun n s ->
                 match Pipeline.verdict result s with
                 | Pipeline.Characterized _ | Pipeline.Unstable_result _ ->
                   ignore
                     (Port_usage.characterize harness ~blockers:result.Pipeline.blockers s);
                   n + 1
                 | _ -> n)
              0 schemes)
      in
      (result, calls))

(* ------------------------------------------------------------------ *)
(* Runs                                                                *)
(* ------------------------------------------------------------------ *)

type value = Float of float | Int of int

(* A pipeline operation is sampled every [tick_s] seconds while it runs,
   [tick_queries] queries (about 1.5 ms, under 1% of the operation) a
   sample; a prediction pass and a fixture construction are each followed
   by a sample of [pass_queries] queries. *)
let tick_s = 0.2
let tick_queries = 25
let pass_queries = 200

let peak_heap_mb () =
  float_of_int ((Gc.quick_stat ()).Gc.top_heap_words * (Sys.word_size / 8)) /. 1e6

let setup_reps = 21

(* Runs [op i] for i = 0, 1, ... until [seconds] have passed (at least one
   operation) and returns the operation times, [peak_heap_mb] after the
   first operation (later ones repeat its work), and a function giving
   [setup_s] and the raw median set-up time.  [setup_s] is the median over
   [setup_reps] constructions of the fixture of the construction's time in
   reference queries, sampled right after it, times the nominal query
   time: set-up time at the reference's nominal speed.  [first]
   timed the construction the run uses.  The copies are spread over the
   run, between operations, so that they do not all see one moment of the
   host; the ones left when the time is up are built when [setup_s] is
   asked for.  Each copy is built on a collected heap and discarded. *)
let run_ops ~seconds ~reference ~build ~first op =
  let walls = Samples.create () and setups = Samples.create () in
  let raw = Samples.create () in
  let record dt =
    Samples.push raw dt;
    Samples.push setups (dt /. Reference.sample reference ~queries:pass_queries)
  in
  record first;
  let rebuild () =
    Gc.full_major ();
    record (snd (timed build))
  in
  let start = now () in
  let every = ref 1 and peak_heap = ref 0.0 in
  let rec loop i =
    if i = 0 || now () -. start < seconds then begin
      let dt = op i in
      Samples.push walls dt;
      if i = 0 then begin
        peak_heap := peak_heap_mb ();
        every := max 1 (int_of_float (seconds /. dt) / setup_reps)
      end;
      if setups.n < setup_reps && (i + 1) mod !every = 0 then rebuild ();
      loop (i + 1)
    end
  in
  loop 0;
  let setup_s () =
    while setups.n < setup_reps do rebuild () done;
    (Samples.quantile setups 0.5 *. Reference.nominal_query_s, Samples.quantile raw 0.5)
  in
  (walls, !peak_heap, setup_s)

(* Untraced run: operations until [seconds] have passed (at least one). *)
let untraced_run workload ~seed ~seconds =
  let log = ref [] in
  (* Operation time over reference time, one per operation. *)
  let rels = Samples.create () in
  let reference = Reference.create () in
  let _walls, peak_heap, setup_s =
    match workload with
    | Zenplus_full ->
      let build () =
        let catalog = Catalog.zen_plus () in
        (catalog, make_harness catalog seed)
      in
      let (catalog, harness0), first = timed build in
      run_ops ~seconds ~reference ~build ~first (fun i ->
          let noise = noise_seed seed i in
          let harness = if i = 0 then harness0 else make_harness catalog noise in
          (* The previous pipeline's garbage is not collected on this
             one's time. *)
          Gc.full_major ();
          let result, dt, ref_s =
            with_reference reference ~period:tick_s ~queries:tick_queries (fun () ->
                Pipeline.run harness)
          in
          Samples.push rels (dt /. ref_s);
          check_zen_plus result;
          log :=
            Printf.sprintf
              "op %d: noise seed %d, %.3f s, reference query %.2f us, %d benchmarks, \
               %d inferred rows"
              i noise dt (ref_s *. 1e6) (Harness.benchmarks_run harness)
              result.Pipeline.funnel.inferred
            :: !log;
          dt)
    | Predict_gc12 ->
      let build () = make_predictor ~seed (golden_cove_truth ()) in
      let p, first = timed build in
      let latencies = Samples.create () and refs = Samples.create () in
      let first_pass = ref [||] in
      let (walls, _, _) as ops =
        run_ops ~seconds ~reference ~build ~first (fun i ->
            let results, dt = timed (fun () -> predict_all p latencies) in
            let ref_s = Reference.sample reference ~queries:pass_queries in
            Samples.push refs ref_s;
            Samples.push rels (dt /. ref_s);
            if i = 0 then first_pass := results;
            dt)
      in
      check_against_lp p !first_pass;
      log :=
        [ Printf.sprintf
            "%d passes over %d blocks: p10 %.4f s, median %.4f s, max %.4f s; \
             reference query median %.2f us; in reference queries: p10 %.0f, \
             median %.0f, max %.0f"
            walls.n predict_blocks (Samples.quantile walls 0.1)
            (Samples.quantile walls 0.5) (Samples.quantile walls 1.0)
            (Samples.quantile refs 0.5 *. 1e6)
            (Samples.quantile rels 0.1) (Samples.quantile rels 0.5)
            (Samples.quantile rels 1.0) ];
      ops
  in
  let setup_s, raw_setup_s = setup_s () in
  log := Printf.sprintf "set-up: raw median %.4f s" raw_setup_s :: !log;
  let metrics =
    [ ("setup_s", Float setup_s);
      ("wall_rel", Float (Samples.quantile rels 0.5));
      ("peak_heap_mb", Float peak_heap) ]
  in
  (metrics, List.rev !log)

(* Per-domain event ring for the traced operation: a zenplus-full
   operation records about 175k spans, so 2M leaves room for growth; a
   dropped event fails the run. *)
let ring_capacity = 1 lsl 21

let counter name =
  Option.value ~default:0 (List.assoc_opt name (Obs.counters ()))

(* Cost of one span with telemetry on, from [n] empty spans nested three
   deep like the library's.  It prices the tracing overhead: on a shared
   host, traced minus untraced wall time of a 50 s operation is mostly the
   host's own drift. *)
let span_cost_s () =
  let n = 100_000 in
  Obs.set_ring_capacity (2 * n);
  Obs.enable ();
  let outer = Obs.enter "bench.probe" in
  let inner = Obs.enter "bench.probe" in
  let (), dt =
    timed (fun () ->
        for _ = 1 to n do
          Obs.leave (Obs.enter "bench.probe")
        done)
  in
  Obs.leave inner;
  Obs.leave outer;
  Obs.disable ();
  dt /. float_of_int n

(* Traced run: traced layered operations until [seconds] have passed (at
   least one).  Per-layer values are per-operation means. *)
let traced_run workload ~seed ~seconds =
  let catalog = Catalog.zen_plus () in
  let truth = lazy (golden_cove_truth ()) in
  let latencies = Samples.create () in
  (* One layered operation, checked against the references.  Everything
     but the layer spans (harness creation, the checks) happens outside
     the timed part.  Returns its time and the count metrics the benchmark
     itself observes. *)
  let layered i =
    match workload with
    | Zenplus_full ->
      let harness = make_harness catalog (noise_seed seed i) in
      let machine = Harness.machine harness in
      let (result, characterized), dt = layered_pipeline harness catalog in
      check_zen_plus result;
      ( dt,
        [ ("port_usage.calls", characterized);
          ("harness.benchmarks", Harness.benchmarks_run harness);
          ("machine.measurements", Machine.measurement_count machine);
          ("oracle.queries", 0) ] )
    | Predict_gc12 ->
      let truth = Lazy.force truth in
      let (p, predictions), dt =
        timed (fun () ->
            let p = span "bench.oracle.prepare" (fun () -> make_predictor ~seed truth) in
            (p, span "bench.oracle.query" (fun () -> predict_all p latencies)))
      in
      (* The LP costs about 0.1 s a block on 12 ports, so only the first
         operation's sample is compared. *)
      if i = 0 then check_against_lp p predictions;
      ( dt,
        [ ("port_usage.calls", 0); ("harness.benchmarks", 0);
          ("machine.measurements", 0); ("oracle.queries", Array.length predictions) ] )
  in
  let start = now () in
  let sums : (string, float) Hashtbl.t = Hashtbl.create 64 in
  let add k v = Hashtbl.replace sums k (v +. Option.value ~default:0.0 (Hashtbl.find_opt sums k)) in
  let log = ref [] in
  let rec loop i =
    if i = 0 || now () -. start < seconds then begin
      Obs.set_ring_capacity ring_capacity;
      Obs.enable ();
      (* The first span after [enable] allocates the ring; pay for that
         outside the timed operation. *)
      Obs.leave (Obs.enter "bench.ring");
      let traced_dt, counts = layered i in
      Obs.disable ();
      let events = Obs.events () in
      let dropped = Obs.dropped () in
      let st = aggregate events in
      let calls name = Option.value ~default:0 (Hashtbl.find_opt st.calls name) in
      let outer name =
        float_of_int (Option.value ~default:0 (Hashtbl.find_opt st.outer_ns name)) *. 1e-9
      in
      let self b =
        float_of_int (Option.value ~default:0 (Hashtbl.find_opt st.self_ns b)) *. 1e-9
      in
      (* Cross-checks: spans against counters, counters against the
         harness and machine, nothing lost, and the layers account for the
         traced wall time. *)
      expect_int "trace dropped events" ~expected:0 dropped;
      let benchmarks = List.assoc "harness.benchmarks" counts in
      expect_int "harness.measure spans vs harness.cache.mem.miss"
        ~expected:(counter "harness.cache.mem.miss") (calls "harness.measure");
      expect_int "harness.measure spans vs Harness.benchmarks_run"
        ~expected:benchmarks (calls "harness.measure");
      expect_int "cegis.observe spans vs cegis.observations"
        ~expected:(counter "cegis.observations") (calls "cegis.observe");
      expect_int "machine.measurements counter vs Machine.measurement_count"
        ~expected:(List.assoc "machine.measurements" counts)
        (counter "machine.measurements");
      let accounted = List.fold_left (fun acc b -> acc +. self b) 0.0 layer_buckets in
      expect
        (Printf.sprintf "layer self times cover the traced wall (%.4f of %.4f s)"
           accounted traced_dt)
        (accounted <= traced_dt && accounted >= 0.99 *. traced_dt);
      List.iter (fun b -> add b (self b)) layer_buckets;
      add "bench.glue_s" (traced_dt -. accounted);
      add "cegis.infer_s" (outer "cegis.infer");
      add "cegis.explain_s" (outer "cegis.explain");
      List.iter
        (fun (k, n) -> add k (float_of_int (calls n)))
        [ ("cegis.infer_calls", "cegis.infer"); ("cegis.explain_calls", "cegis.explain");
          ("theory.check_calls", "theory.check"); ("sat.solve_calls", "sat.solve") ];
      List.iter
        (fun k -> add k (float_of_int (counter k)))
        [ "cegis.observations"; "cegis.candidates_tried"; "cegis.theory_lemmas";
          "cegis.sat_episodes" ];
      List.iter (fun (k, n) -> add k (float_of_int n)) counts;
      let hits = counter "harness.cache.mem.hit" and misses = counter "harness.cache.mem.miss" in
      add "harness.mem_hit_ratio"
        (if hits + misses = 0 then 0.0
         else float_of_int hits /. float_of_int (hits + misses));
      add "trace.wall_s" traced_dt;
      add "trace.accounted_share" (accounted /. traced_dt);
      add "trace.events" (float_of_int st.spans);
      add "trace.dropped" (float_of_int dropped);
      log := Printf.sprintf "op %d: traced %.3f s, %d spans" i traced_dt st.spans :: !log;
      loop (i + 1)
    end
    else i
  in
  let ops = loop 0 in
  let span_cost = span_cost_s () in
  let per_layer = List.filter (fun m -> m.kind = Per_layer) catalog_metrics in
  let metrics =
    List.map
      (fun m ->
         let v =
           match m.name with
           | "oracle.query_p50_us" -> Samples.quantile latencies 0.5 *. 1e-3
           | "oracle.query_p99_us" -> Samples.quantile latencies 0.99 *. 1e-3
           | "trace.overhead_s" ->
             span_cost *. Option.get (Hashtbl.find_opt sums "trace.events") /. float_of_int ops
           | _ -> Option.value ~default:0.0 (Hashtbl.find_opt sums m.name) /. float_of_int ops
         in
         ( m.name,
           if m.unit_ = "count" && Float.is_integer v then Int (int_of_float v)
           else Float v ))
      per_layer
  in
  (metrics, List.rev !log)

(* ------------------------------------------------------------------ *)
(* Output                                                              *)
(* ------------------------------------------------------------------ *)

let json_number = function
  | Int n -> string_of_int n
  | Float f -> if Float.is_finite f then Printf.sprintf "%.17g" f else "null"

let human = function
  | Int n -> string_of_int n
  | Float f -> Printf.sprintf "%.6g" f

let kind_name = function End_to_end _ -> "end_to_end" | Per_layer -> "per_layer"

let not_measured =
  [ "a64fx-full, Pipeline.run on the 7-port A64FX profile, where measurement \
     dominates: a third workload's runs do not fit the time allowed for all \
     runs next to the minute-long zenplus-full operation, and its raw \
     ten-run wall-time spread reached 0.27-0.42 on a 2-vCPU VM; its layers \
     are all measured on zenplus-full";
    "the 12-port golden-cove pipeline: one run takes minutes even at one \
     scheme per bucket; it becomes a workload once the oracle kernel makes \
     it cheap";
    "--store warm starts: they replace measurement by durable-store reads, \
     so they time the disk, and a second run measures nothing";
    "Cegis.Delta sessions: off by default and not on the Pipeline.run path";
    "--cubes and the SAT portfolio with domains > 1: the default is one \
     domain, and on a two-core machine a second one competes with the \
     machine's other load";
    "--certify, --mapcheck and --enclint: opt-in audit passes, off by default";
    "BENCH_sat.json's table2+funnel/pipeline entry is a single bechamel \
     sample on a reduced catalog with no layer breakdown; it is not the \
     end-to-end figure of record, this benchmark is" ]

let describe () =
  Printf.printf "workloads:\n";
  List.iter (fun (name, _, why) -> Printf.printf "  %-13s %s\n" name why) workloads;
  Printf.printf "\n%-26s %-6s %-10s %-12s %-42s %s\n" "metric" "unit" "kind" "layer"
    "meant to move" "what it is";
  List.iter
    (fun m ->
       Printf.printf "%-26s %-6s %-10s %-12s %-42s %s\n" m.name m.unit_ (kind_name m.kind)
         m.layer m.moves m.doc)
    catalog_metrics;
  Printf.printf "\ndeliberately not measured:\n";
  List.iter (Printf.printf "  - %s\n") not_measured

let usage () =
  prerr_endline
    "usage: perfbench --workload (zenplus-full|predict-gc12) --seed N \
     --seconds S --trace 0|1\n       perfbench --describe\n       perfbench --manifest";
  exit 2

let () =
  let args = Array.to_list Sys.argv |> List.tl in
  if args = [ "--describe" ] then (describe (); exit 0);
  if args = [ "--manifest" ] then (print_string (manifest_text ()); exit 0);
  let rec parse acc = function
    | [] -> acc
    | key :: v :: rest when String.starts_with ~prefix:"--" key ->
      parse ((String.sub key 2 (String.length key - 2), v) :: acc) rest
    | _ -> usage ()
  in
  let opts = parse [] args in
  let get k = match List.assoc_opt k opts with Some v -> v | None -> usage () in
  let workload_name = get "workload" in
  let workload =
    match List.find_opt (fun (n, _, _) -> n = workload_name) workloads with
    | Some (_, w, _) -> w
    | None -> usage ()
  in
  let num conv k = match conv (get k) with Some v -> v | None -> usage () in
  let seed = num int_of_string_opt "seed" in
  let seconds = num float_of_string_opt "seconds" in
  let trace =
    match get "trace" with "0" -> false | "1" -> true | _ -> usage ()
  in
  check_manifest ();
  let is_kind m = (m.kind = Per_layer) = trace in
  let metrics, log =
    try
      if trace then traced_run workload ~seed ~seconds
      else untraced_run workload ~seed ~seconds
    with e ->
      Printf.eprintf "perfbench: %s failed: %s\n" workload_name (Printexc.to_string e);
      exit 1
  in
  let failed = List.length !failures in
  Printf.printf "workload %s, seed %d, seconds %g, trace %d\n" workload_name seed seconds
    (if trace then 1 else 0);
  List.iter (Printf.printf "  %s\n") log;
  List.iter
    (fun m ->
       if is_kind m then
         Printf.printf "%-26s %14s %-6s %-12s moves %s\n" m.name
           (human (List.assoc m.name metrics)) m.unit_ m.layer m.moves)
    catalog_metrics;
  Printf.printf "checks: %d outputs compared with references, %d mismatched \
                 (ops_failed_share %g)\n"
    !attempted failed
    (if !attempted = 0 then 0.0 else float_of_int failed /. float_of_int !attempted);
  List.iter (Printf.printf "  MISMATCH %s\n") (List.rev !failures);
  let correct = failed = 0 && !attempted > 0 in
  Printf.printf "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}\n"
    correct !attempted failed
    (String.concat ", "
       (List.filter_map
          (fun m ->
             if not (is_kind m) then None
             else
               Some
                 (Printf.sprintf "%S: {\"value\": %s, \"unit\": %S}" m.name
                    (json_number (List.assoc m.name metrics)) m.unit_))
          catalog_metrics));
  exit (if correct then 0 else 1)
