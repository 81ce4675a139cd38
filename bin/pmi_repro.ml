(* Reproduction driver: regenerates the paper's tables and figures on the
   simulated Zen+ machine.  See EXPERIMENTS.md for the index. *)

open Pmi_isa
module Mapping = Pmi_portmap.Mapping
module Machine = Pmi_machine.Machine
module Harness = Pmi_measure.Harness
module Pipeline = Pmi_core.Pipeline
module Blocking = Pmi_core.Blocking

module Store = Pmi_store.Store

let setup_logs level =
  Fmt_tty.setup_std_outputs ();
  Logs.set_reporter (Logs_fmt.reporter ());
  Logs.set_level level

(* The options every inference command shares, parsed once by [opts_term]
   at the bottom of this file. *)
type opts = {
  reduced : int;              (* [--reduced N]: schemes per bucket, 0 = all *)
  seed : int;                 (* [--seed]: measurement-noise seed *)
  certify : bool;             (* [--certify]: checked certificate per verdict *)
  store : Store.t option Lazy.t;
      (* [--store DIR]: the durable certificate store, opened on first use
         and closed at exit; one handle per process *)
}

let open_store dir =
  let s = Store.open_ dir in
  at_exit (fun () -> Store.close s);
  s

let catalog_of ~reduced =
  if reduced > 0 then Catalog.reduced ~per_bucket:reduced ()
  else Catalog.zen_plus ()

let make_machine ~reduced ~seed =
  let config = { Machine.default_config with Machine.seed } in
  Machine.create ~config (catalog_of ~reduced)

let make_harness opts =
  Harness.create (make_machine ~reduced:opts.reduced ~seed:opts.seed)

module Obs = Pmi_obs.Obs

(* [--trace FILE] / [--metrics]: switch the telemetry layer on before the
   command body runs and flush the exporters at exit.  The flush is an
   [at_exit] hook because several subcommands (lint, sanitize) leave via
   [exit] rather than by returning. *)
let setup_obs ~trace ~metrics =
  if trace <> None || metrics then begin
    Obs.enable ();
    at_exit (fun () ->
        Obs.disable ();
        (match trace with
         | Some file ->
           Obs.write_chrome_trace file;
           Format.eprintf "pmi_repro: wrote %d trace events to %s@."
             (List.length (Obs.events ()))
             file
         | None -> ());
        if metrics then prerr_string (Obs.summary ()))
  end

let run_pipeline opts =
  let harness = make_harness opts in
  let t0 = Unix.gettimeofday () in
  let result =
    Pipeline.run ~certify:opts.certify ?store:(Lazy.force opts.store) harness
  in
  let dt = Unix.gettimeofday () -. t0 in
  (* Benchmarks measured: the cached experiments and the §4.2 pairs, which
     are measured once and not cached. *)
  Format.printf "pipeline finished in %.1f s (%d benchmarks)@." dt
    (Harness.benchmarks_run harness);
  (harness, result)

(* ------------------------------------------------------------------ *)
(* Funnel (§4.1-§4.4 numbers)                                          *)
(* ------------------------------------------------------------------ *)

let print_funnel (_, result) =
  Format.printf "@.== Case-study funnel ==@.%a" Pipeline.pp_funnel
    result.Pipeline.funnel

let funnel opts = print_funnel (run_pipeline opts)

(* ------------------------------------------------------------------ *)
(* Table 1: blocking-instruction classes                               *)
(* ------------------------------------------------------------------ *)

let paper_table1 =
  [ ("add", 4, 242); ("vpor", 4, 21); ("vpaddd", 3, 30); ("vminps", 2, 143);
    ("vbroadcastss", 2, 50); ("vpaddsw", 2, 17); ("vaddps", 2, 10);
    ("mov", 2, 6); ("vpslld", 1, 27); ("vpmuldq", 1, 10); ("imul", 1, 9);
    ("vroundps", 1, 4); ("vmovd", 1, 2) ]

let print_table1 (_, result) =
  Format.printf "@.== Table 1: blocking instruction classes ==@.";
  Format.printf "%-8s %-44s %8s %10s@." "# Ports" "Representative" "# Equiv."
    "(paper)";
  List.iter
    (fun k ->
       let mnemonic = Scheme.mnemonic k.Blocking.representative in
       let paper =
         match
           List.find_opt
             (fun (m, p, _) -> m = mnemonic && p = k.Blocking.port_count)
             paper_table1
         with
         | Some (_, _, n) -> string_of_int n
         | None -> "-"
       in
       Format.printf "%-8d %-44s %8d %10s@." k.Blocking.port_count
         (Scheme.name k.Blocking.representative)
         (List.length k.Blocking.members)
         paper)
    result.Pipeline.filtering.Blocking.classes;
  Format.printf "@.dropped as unstable: %d, as contradictory: %d@."
    (List.length result.Pipeline.filtering.Blocking.unstable)
    (List.length result.Pipeline.filtering.Blocking.contradictory)

let table1 opts = print_table1 (run_pipeline opts)

(* ------------------------------------------------------------------ *)
(* Table 2: inferred port usage of the blocking instructions           *)
(* ------------------------------------------------------------------ *)

(* The final CEGIS round's statistics and its SAT counters, two lines. *)
let pp_cegis_digest ppf (stats : Pmi_core.Cegis.stats) =
  Format.fprintf ppf
    "CEGIS: %d iterations, %d experiments, %d candidate mappings, %d lemmas@."
    stats.iterations (List.length stats.observations) stats.candidates_tried
    stats.theory_lemmas;
  let s = stats.sat in
  Format.fprintf ppf
    "SAT:   %d decisions, %d propagations, %d conflicts, %d restarts, %d \
     learned (max glue %d), %d deleted by reduction@."
    s.decisions s.propagations s.conflicts s.restarts s.learned s.max_lbd
    s.deleted

let print_table2 (harness, result) =
  let machine = Harness.machine harness in
  let docs = Machine.ground_truth machine in
  Format.printf "@.== Table 2: documented vs inferred port usage ==@.";
  Format.printf "%-44s %-24s %s@." "Instruction scheme" "Doc. ports"
    "Inferred ports";
  let show scheme =
    let doc =
      match Mapping.find_opt docs scheme with
      | Some usage -> Mapping.usage_to_string usage
      | None -> "-"
    in
    let inferred =
      match Mapping.find_opt result.Pipeline.blocker_mapping scheme with
      | Some usage -> Mapping.usage_to_string usage
      | None -> "-"
    in
    Format.printf "%-44s %-24s %s@." (Scheme.name scheme) doc inferred
  in
  List.iter
    (fun k -> show k.Blocking.representative)
    (List.filter
       (fun k ->
          not
            (List.exists
               (fun r ->
                  Scheme.equal r.Blocking.representative k.Blocking.representative)
               result.Pipeline.removed_classes))
       result.Pipeline.filtering.Blocking.classes);
  List.iter show result.Pipeline.improper;
  (match result.Pipeline.alignment with
   | Some a ->
     Format.printf "@.port renaming matched %d schemes%s@."
       (List.length a.Pmi_core.Relabel.matched)
       (match a.Pmi_core.Relabel.dropped with
        | [] -> ""
        | dropped ->
          Printf.sprintf " (ambiguous, as in the paper: %s)"
            (String.concat ", " (List.map Scheme.name dropped)))
   | None -> Format.printf "@.no port renaming found@.");
  List.iter
    (fun k ->
       Format.printf "excluded during inference (§4.3): %s@."
         (Scheme.name k.Blocking.representative))
    result.Pipeline.removed_classes;
  Format.printf "@.%a" pp_cegis_digest result.Pipeline.cegis_stats

let table2 opts = print_table2 (run_pipeline opts)

(* ------------------------------------------------------------------ *)
(* Figure 5: prediction accuracy vs PMEvo and Palmed                   *)
(* ------------------------------------------------------------------ *)

let print_figure5 reduced (harness, result) =
  let options =
    if reduced > 0 then Pmi_eval.Figure5.quick_options
    else Pmi_eval.Figure5.default_options
  in
  let t0 = Unix.gettimeofday () in
  let fig =
    Pmi_eval.Figure5.run ~options harness ~mapping:result.Pipeline.mapping
  in
  Format.printf "evaluation finished in %.1f s@.@."
    (Unix.gettimeofday () -. t0);
  Format.printf "%a@." Pmi_eval.Figure5.pp fig

let figure5 opts = print_figure5 opts.reduced (run_pipeline opts)

(* ------------------------------------------------------------------ *)
(* Infer: the CEGIS loop itself, front and center                      *)
(* ------------------------------------------------------------------ *)

(* The subcommand exists mostly for telemetry: [pmi_repro infer --trace
   out.json] yields a Perfetto-loadable timeline whose cegis.iteration
   spans show the findMapping / findOtherMapping / distinguish / observe
   cadence of the whole dialogue.  The textual output is the CEGIS digest
   the other reproduction commands only print in passing. *)
let infer opts =
  let _, result = run_pipeline opts in
  Format.printf "@.== CEGIS inference ==@.";
  Format.printf "inferred port usage for %d schemes@."
    (Mapping.size result.Pipeline.mapping);
  pp_cegis_digest Format.std_formatter result.Pipeline.cegis_stats;
  if Obs.enabled () then
    Format.printf
      "telemetry: %d events recorded so far (%d dropped); see --trace / \
       --metrics@."
      (List.length (Obs.events ()))
      (Obs.dropped ())

(* ------------------------------------------------------------------ *)
(* Export / analyze: the downstream-tool workflow                      *)
(* ------------------------------------------------------------------ *)

module Mapping_io = Pmi_portmap.Mapping_io
module Diag = Pmi_diag.Diag

let export_path = "zenplus_portmap.txt"

(* A mapping file, its scheme names resolved against [catalog]. *)
let read_mapping_file catalog path =
  if not (Sys.file_exists path) then Error `Missing
  else
    In_channel.with_open_text path
      (Mapping_io.read ~resolve:(Mapping_io.resolver catalog))
    |> Result.map_error (fun e -> `Malformed e)

(* The error [lint] and [mapcheck] report for a file they cannot read. *)
let mapping_file_diag path = function
  | `Missing -> Diag.make "mapping-file-missing" Diag.Error path "no such file"
  | `Malformed (e : Mapping_io.error) ->
    Diag.make "mapping-parse-error" Diag.Error path "line %d: %s" e.line
      e.message

let export opts =
  let _, result = run_pipeline opts in
  Out_channel.with_open_text export_path (fun oc ->
      Mapping_io.write oc result.Pipeline.mapping);
  Format.printf "wrote %d scheme mappings to %s@."
    (Mapping.size result.Pipeline.mapping) export_path

let resolve_fuzzy catalog text =
  let exact = Mapping_io.resolver catalog in
  match exact text with
  | Some s -> Some s
  | None ->
    (* Fall back to the first scheme whose rendering starts with the
       given prefix, e.g. "vpaddd" or "add <GPR[32]". *)
    Array.find_opt
      (fun s ->
         let name = Scheme.name s in
         String.length name >= String.length text
         && String.sub name 0 (String.length text) = text)
      (Catalog.schemes catalog)

let analyze_block insns opts =
  let harness = make_harness opts in
  let machine = Harness.machine harness in
  let catalog = Machine.catalog machine in
  let mapping =
    match read_mapping_file catalog export_path with
    | Ok m ->
      Format.printf "using the inferred mapping from %s@." export_path;
      m
    | Error (`Malformed e) ->
      Format.eprintf "%s:%d: %s; falling back to documented mapping@."
        export_path e.Mapping_io.line e.Mapping_io.message;
      Machine.ground_truth machine
    | Error `Missing ->
      Format.printf
        "no %s (run `pmi_repro export` first); using the documented mapping@."
        export_path;
      Machine.ground_truth machine
  in
  let insns =
    if insns <> [] then insns
    else [ "add <GPR[32]>, <GPR[32]>"; "add <GPR[32]>, <GPR[32]>";
           "vpaddd"; "vminps"; "mov <GPR[32]>, <MEM[32]>" ]
  in
  let schemes =
    List.map
      (fun text ->
         match resolve_fuzzy catalog text with
         | Some s -> s
         | None ->
           Format.eprintf "unknown instruction scheme: %s@." text;
           exit 2)
      insns
  in
  let block = Pmi_portmap.Experiment.of_list schemes in
  match Pmi_portmap.Analysis.analyze ~r_max:(Machine.r_max machine) mapping block with
  | report -> Format.printf "@.%a@." Pmi_portmap.Analysis.pp report
  | exception Pmi_portmap.Throughput.Unsupported s ->
    Format.eprintf "the mapping does not cover %s@." (Scheme.name s);
    exit 2

(* ------------------------------------------------------------------ *)
(* Report: a markdown summary of the whole study                        *)
(* ------------------------------------------------------------------ *)

let report opts =
  let harness, result = run_pipeline opts in
  let options =
    if opts.reduced > 0 then Pmi_eval.Figure5.quick_options
    else Pmi_eval.Figure5.default_options
  in
  let fig =
    Pmi_eval.Figure5.run ~options harness ~mapping:result.Pipeline.mapping
  in
  let path = "REPORT.md" in
  Pmi_eval.Report.write ~figure5:fig ~harness ~path result;
  Format.printf "wrote %s@." path

(* ------------------------------------------------------------------ *)
(* Diff: inferred mapping vs the documented ground truth               *)
(* ------------------------------------------------------------------ *)

let diff opts =
  let harness, result = run_pipeline opts in
  let docs = Machine.ground_truth (Harness.machine harness) in
  let d = Pmi_portmap.Diff.compute ~left:result.Pipeline.mapping ~right:docs in
  Format.printf "@.== Inferred mapping vs documented ground truth ==@.";
  Format.printf "%a" (Pmi_portmap.Diff.pp ~max_rows:25 ()) d;
  Format.printf
    "@.(schemes only in the documentation are those the algorithm excluded \
     or found unstable)@."

(* ------------------------------------------------------------------ *)
(* Explain: the witness chain behind one scheme's inferred usage        *)
(* ------------------------------------------------------------------ *)

let explain_scheme insns opts =
  let harness, result = run_pipeline opts in
  let catalog = Machine.catalog (Harness.machine harness) in
  let blockers = result.Pipeline.blockers in
  let insns = if insns <> [] then insns else [ "add <GPR[32]>, <MEM[32]>" ] in
  List.iter
    (fun text ->
       match resolve_fuzzy catalog text with
       | None -> Format.eprintf "unknown instruction scheme: %s@." text
       | Some scheme ->
         (match Pmi_core.Port_usage.characterize harness ~blockers scheme with
          | Pmi_core.Port_usage.Usage { usage; witnesses; postulated; spurious } ->
            Format.printf "@.%a" Pmi_core.Port_usage.pp_witnesses
              (scheme, witnesses);
            Format.printf
              "conclusion: %s  (counter postulates %d µop%s)%s@."
              (Mapping.usage_to_string usage) postulated
              (if postulated = 1 then "" else "s")
              (if spurious then
                 "  [microcode-sequencer artefact: counts exceed the counter]"
               else "")
          | Pmi_core.Port_usage.Failed f ->
            Format.printf "%s: outside the port-mapping model (%s)@."
              (Scheme.name scheme)
              (match f with
               | Pmi_core.Port_usage.Unstable e -> "unstable: " ^ e
               | Pmi_core.Port_usage.Non_integral (p, v) ->
                 Printf.sprintf "non-integral µop count %.2f on %s" v
                   (Pmi_portmap.Portset.to_string p))))
    insns

(* ------------------------------------------------------------------ *)
(* Lint: the static sanity pass over everything the repo ships          *)
(* ------------------------------------------------------------------ *)

module Lint = Pmi_analysis.Lint

let lint_files files json opts =
  let catalog = catalog_of ~reduced:opts.reduced in
  let lint_file path =
    match read_mapping_file catalog path with
    | Ok m -> Lint.lint_mapping ~subject:("mapping " ^ path) m
    | Error e -> [ mapping_file_diag path e ]
  in
  let diags =
    Lint.builtin ~catalog ()
    @ Pmi_analysis.Mapcheck.builtin ~catalog ()
    @ List.concat_map lint_file files
  in
  Diag.print_all ~json diags;
  prerr_endline (Diag.summary ~pass:"lint" diags);
  if Diag.errors diags <> [] then exit 1

(* ------------------------------------------------------------------ *)
(* MapCheck: the semantic analysis pass over port mappings              *)
(* ------------------------------------------------------------------ *)

module Mapcheck = Pmi_analysis.Mapcheck

(* [pmi_repro mapcheck] audits the built-in ground-truth mappings, plus
   every mapping file given on the command line, on the sparse throughput
   kernel: its agreement with the naive bottleneck formula and the LP
   model, frontend-masked rows, and dominated and interchangeable ports.
   Any port count is accepted. *)
let mapcheck_run files json opts =
  let catalog = catalog_of ~reduced:opts.reduced in
  let r_max = Pmi_machine.Profile.zen_plus.Pmi_machine.Profile.r_max in
  let from_file path =
    match read_mapping_file catalog path with
    | Ok m -> Mapcheck.audit_mapping ~r_max ~subject:("mapping " ^ path) m
    | Error e -> [ mapping_file_diag path e ]
  in
  let diags = Mapcheck.builtin ~catalog () @ List.concat_map from_file files in
  Diag.print_all ~json diags;
  prerr_endline (Diag.summary ~pass:"mapcheck" diags);
  if Diag.errors diags <> [] then exit 1

(* ------------------------------------------------------------------ *)
(* Sanitize: the dynamic concurrency pass over the parallel stack       *)
(* ------------------------------------------------------------------ *)

module Race = Pmi_diag.Race
module Pool = Pmi_parallel.Pool

(* Each workload runs once under the OS scheduler (real domains) and then
   under [--schedules N] deterministic replay interleavings; the detector
   accumulates reports across all of them.  A workload whose *result*
   changes between schedules is itself a bug, so results are asserted. *)

exception Sanitize_broken of string

let check_invariant cond fmt =
  Printf.ksprintf (fun msg -> if not cond then raise (Sanitize_broken msg)) fmt

let replay_seeds schedules n_tasks =
  (* Exhaustive when the permutation space is small, capped otherwise. *)
  let distinct = Pool.permutations n_tasks in
  List.init (min schedules distinct) (fun s -> s)

let sanitize_pool_primitives ~schedules =
  let run_once () =
    let counter = Race.tracked_atomic ~name:"sanitize.counter" 0 in
    Pool.parallel_for ~domains:3 ~n:12 (fun _ ->
        ignore (Race.afetch_add counter 1));
    check_invariant (Race.aget counter = 12) "parallel_for lost updates";
    let arr = Array.init 8 (fun i -> i) in
    (match Pool.find_first_index ~domains:3 (fun x -> x >= 5) arr with
     | Some 5 -> ()
     | _ -> raise (Sanitize_broken "find_first_index not minimal"))
  in
  Pool.set_schedule Pool.Os;
  run_once ();
  List.iter
    (fun seed ->
       Pool.set_schedule (Pool.Replay seed);
       run_once ())
    (replay_seeds schedules 3)

(* A Figure 5 style per-block prediction sweep fanned out over the pool:
   one prepared oracle shared by every worker, each query on its own
   scratch profile; every schedule must return the sequential
   predictions. *)
let sanitize_prediction ~schedules opts =
  let reduced = if opts.reduced > 0 then opts.reduced else 2 in
  let machine = make_machine ~reduced ~seed:42 in
  let truth = Machine.ground_truth machine in
  let schemes =
    List.filter (Mapping.supports truth)
      (Array.to_list (Catalog.schemes (Machine.catalog machine)))
  in
  let blocks = Pmi_eval.Blocks.generate ~seed:7 ~count:24 ~block_size:5 schemes in
  let oracle = Pmi_portmap.Oracle.create truth in
  Pmi_portmap.Oracle.prepare oracle schemes;
  let predict =
    Pmi_portmap.Oracle.inverse_bounded ~r_max:(Machine.r_max machine) oracle
  in
  let reference = List.map predict blocks in
  let sweep schedule =
    Pool.set_schedule schedule;
    check_invariant
      (List.equal Pmi_numeric.Rat.equal reference
         (Pool.map_list ~domains:4 predict blocks))
      "prediction sweep differs from the sequential one"
  in
  sweep Pool.Os;
  List.iter
    (fun seed -> sweep (Pool.Replay seed))
    (replay_seeds schedules (List.length blocks))

let sanitize_harness_sweep ~schedules opts =
  let reduced = if opts.reduced > 0 then opts.reduced else 2 in
  let experiments catalog =
    let schemes = Catalog.schemes catalog in
    let n = min 12 (Array.length schemes) in
    (* Repeat every experiment so the sweep exercises cache hits too. *)
    List.init (2 * n) (fun i ->
        Pmi_portmap.Experiment.singleton schemes.(i mod n))
  in
  let sweep () =
    let harness = make_harness { opts with reduced; seed = 42 } in
    let exps = experiments (Machine.catalog (Harness.machine harness)) in
    let cycles = Pool.map_list ~domains:4 (Harness.cycles harness) exps in
    check_invariant
      (Harness.cache_hits harness + Harness.cache_misses harness
       = List.length exps)
      "harness hit/miss counters lost updates";
    (* Every experiment is asked twice: the first ask measures it, the
       second is a hit. *)
    check_invariant
      (Harness.benchmarks_run harness = List.length exps / 2)
      "harness measured a repeated experiment again";
    cycles
  in
  Pool.set_schedule Pool.Os;
  let reference = sweep () in
  List.iter
    (fun seed ->
       Pool.set_schedule (Pool.Replay seed);
       check_invariant (sweep () = reference)
         "harness sweep results changed under schedule %d" seed)
    (replay_seeds (min schedules 6) 4)

(* The soundness check: an intentionally unsynchronized write pair that
   every schedule must report ([--plant-race], used by the regression
   test to cover the exit-1 path). *)
let sanitize_planted () =
  Pool.set_schedule (Pool.Replay 0);
  let cell = Race.tracked_ref ~name:"sanitize.planted" 0 in
  Pool.parallel_for ~domains:2 ~n:2 (fun i -> Race.write cell i)

let sanitize schedules plant json opts =
  let schedules = max 1 schedules in
  Race.enable ();
  let outcome =
    try
      sanitize_pool_primitives ~schedules;
      sanitize_prediction ~schedules opts;
      sanitize_harness_sweep ~schedules opts;
      if plant then sanitize_planted ();
      Ok ()
    with
    | Sanitize_broken msg -> Error msg
  in
  Pool.set_schedule Pool.Os;
  Race.disable ();
  let diags = Race.to_diags (Race.reports ()) in
  Diag.print_all ~json diags;
  prerr_endline (Diag.summary ~pass:"sanitize" diags);
  (match outcome with
   | Error msg ->
     Format.eprintf "sanitize: workload invariant broken: %s@." msg;
     exit 2
   | Ok () -> ());
  if Diag.errors diags <> [] then exit 1

(* ------------------------------------------------------------------ *)
(* Everything                                                          *)
(* ------------------------------------------------------------------ *)

let all opts =
  (* One pipeline run shared by every table and figure. *)
  let run = run_pipeline opts in
  print_funnel run;
  print_table1 run;
  print_table2 run;
  print_figure5 opts.reduced run

(* ------------------------------------------------------------------ *)
(* Store maintenance (`pmi_repro store {stats,verify}`)                *)
(* ------------------------------------------------------------------ *)

module Json = Pmi_obs.Json

let store_stats dir json =
  let s = open_store dir in
  let st = Store.stats s in
  if json then begin
    let n i = Json.Num (float_of_int i) in
    print_endline
      (Json.to_string
         (Json.Obj
            [ ("dir", Json.Str dir);
              ("live",
               Json.Obj [ ("certificates", n st.Store.live_certificates) ]);
              ("journal",
               Json.Obj
                 [ ("records", n st.Store.journal_records);
                   ("bytes", n st.Store.journal_bytes) ]);
              ("recovery",
               Json.Obj
                 [ ("replayed", n st.Store.replayed);
                   ("corrupt", n st.Store.corrupt);
                   ("truncated_bytes", n st.Store.truncated_bytes) ]) ]))
  end
  else begin
    Format.printf "store: %s@." dir;
    Format.printf "live: %d certificate(s)@." st.Store.live_certificates;
    Format.printf "journal: %d record(s), %d bytes@." st.Store.journal_records
      st.Store.journal_bytes;
    Format.printf "recovery: %d replayed, %d corrupt, %d torn byte(s) \
                   truncated@."
      st.Store.replayed st.Store.corrupt st.Store.truncated_bytes
  end

let store_verify dir json =
  let r = Store.verify dir in
  if json then
    print_endline
      (Json.to_string
         (Json.Obj
            [ ("dir", Json.Str dir);
              ("journal_records", Json.Num (float_of_int r.Store.r_journal_records));
              ("corrupt", Json.Num (float_of_int r.Store.r_corrupt));
              ("torn_bytes", Json.Num (float_of_int r.Store.r_torn_bytes)) ]))
  else
    Format.printf
      "verify %s: %d journal record(s), %d corrupt, %d torn byte(s)@." dir
      r.Store.r_journal_records r.Store.r_corrupt r.Store.r_torn_bytes;
  if r.Store.r_corrupt > 0 then exit 1

(* ------------------------------------------------------------------ *)
(* Command line                                                        *)
(* ------------------------------------------------------------------ *)

open Cmdliner

let reduced =
  let doc = "Use a reduced catalog with at most $(docv) schemes per bucket \
             (0 = the full 2,980-scheme catalog)." in
  Arg.(value & opt int 0 & info [ "reduced" ] ~docv:"N" ~doc)

let seed =
  let doc = "Measurement-noise seed." in
  Arg.(value & opt int 42 & info [ "seed" ] ~docv:"SEED" ~doc)

let verbose =
  let doc = "Enable informational logging." in
  Arg.(value & flag & info [ "v"; "verbose" ] ~doc)

let certify_flag =
  let doc = "Trust-but-verify: log DRAT proof traces in every CEGIS solver \
             and have an independent checker certify each UNSAT verdict and \
             re-validate each SAT model against the CNF and the exact \
             throughput oracle.  A certificate failure aborts the run." in
  Arg.(value & flag & info [ "certify" ] ~doc)

let store_flag =
  let doc = "Durable crash-safe certificate store directory.  With \
             $(b,--certify), UNSAT certificates the checker accepted are \
             written through, and a later run that meets the same proof \
             skips re-checking it.  Measurements are never stored: every \
             run measures afresh.  The directory is created on first use \
             and recovers automatically from a crashed writer." in
  Arg.(value & opt (some string) None & info [ "store" ] ~docv:"DIR" ~doc)

let trace_out =
  let doc = "Record a telemetry trace of the run (CEGIS iterations, solver \
             calls, oracle searches, harness measurements) and write it to \
             $(docv) in Chrome trace format, loadable in Perfetto or \
             chrome://tracing." in
  Arg.(value & opt (some string) None & info [ "trace" ] ~docv:"FILE" ~doc)

let metrics =
  let doc = "Print a telemetry summary (span tree with call counts and \
             self times, counters) to stderr when the command \
             finishes." in
  Arg.(value & flag & info [ "metrics" ] ~doc)

(* Every inference flag in one term: parsing it also configures logging
   and telemetry, so the command body runs with both already in place. *)
let opts_term =
  let make reduced seed verbose certify store trace metrics =
    setup_logs (Some (if verbose then Logs.Info else Logs.Warning));
    setup_obs ~trace ~metrics;
    { reduced; seed; certify; store = lazy (Option.map open_store store) }
  in
  Term.(const make $ reduced $ seed $ verbose $ certify_flag $ store_flag
        $ trace_out $ metrics)

(* A subcommand: [body] parses the command's own arguments into a
   function that runs with the shared options. *)
let cmd name doc body = Cmd.v (Cmd.info name ~doc) Term.(body $ opts_term)

let json_flag doc = Arg.(value & flag & info [ "json" ] ~doc)

let diag_json =
  json_flag
    "Emit one JSON object per diagnostic instead of human-readable text \
     (same schema as `lint --json`)."

let insns =
  let doc = "Instruction scheme (name or unique prefix); repeatable." in
  Arg.(value & opt_all string [] & info [ "i"; "insn" ] ~docv:"SCHEME" ~doc)

let files doc = Arg.(value & pos_all string [] & info [] ~docv:"FILE" ~doc)

(* [store] subcommands take only [--store] (required), and only maintain
   a store that exists: unlike an inference command, they never create
   one. *)
let store_cmd name doc body =
  let run store f =
    setup_logs (Some Logs.Warning);
    match store with
    | Some dir when Sys.file_exists dir && Sys.is_directory dir -> f dir
    | Some dir ->
      Format.eprintf "pmi_repro store: no store at %s@." dir;
      exit 2
    | None ->
      Format.eprintf "pmi_repro store: --store DIR is required@.";
      exit 2
  in
  Cmd.v (Cmd.info name ~doc) Term.(const run $ store_flag $ body)

let () =
  let default = Term.(ret (const (`Help (`Pager, None)))) in
  let info = Cmd.info "pmi_repro" ~doc:"Port-mapping inference reproduction" in
  exit
    (Cmd.eval
       (Cmd.group ~default info
          [ cmd "funnel" "Reproduce the §4 case-study funnel"
              (Term.const funnel);
            cmd "table1" "Reproduce Table 1 (blocking classes)"
              (Term.const table1);
            cmd "table2" "Reproduce Table 2 (inferred port usage)"
              (Term.const table2);
            cmd "figure5" "Reproduce Figure 5 (prediction accuracy)"
              (Term.const figure5);
            cmd "all" "Reproduce every table and figure" (Term.const all);
            cmd "infer"
              "Run the CEGIS inference and print its statistics (pair with \
               --trace/--metrics for a full telemetry timeline)"
              (Term.const infer);
            cmd "export" "Infer the port mapping and write it to a file"
              (Term.const export);
            cmd "diff" "Compare the inferred mapping with the documentation"
              (Term.const diff);
            cmd "report" "Write a markdown report of the whole study"
              (Term.const report);
            cmd "analyze"
              "Port-pressure analysis of a basic block (llvm-mca style)"
              Term.(const analyze_block $ insns);
            cmd "explain"
              "Show the explanatory microbenchmarks behind a scheme's \
               inferred port usage"
              Term.(const explain_scheme $ insns);
            cmd "lint"
              "Lint the built-in machine profiles, catalog and ground-truth \
               mappings (plus optional mapping files); exits non-zero on any \
               error-severity diagnostic"
              Term.(const lint_files
                    $ files
                        "Port-mapping file(s) in the export format, linted in \
                         addition to the built-in profiles, catalog and \
                         ground truth; repeatable."
                    $ json_flag
                        "Emit one JSON object per diagnostic instead of \
                         human-readable text.");
            cmd "mapcheck"
              "Semantically audit port mappings on the sparse throughput \
               kernel (agreement with the naive bottleneck formula and the \
               LP model, frontend-masked rows, dominated and \
               interchangeable ports); exits non-zero on any \
               error-severity diagnostic"
              Term.(const mapcheck_run
                    $ files
                        "Port-mapping file(s) in the export format, audited \
                         in addition to the built-in ground-truth mappings; \
                         repeatable."
                    $ diag_json);
            (let schedules =
               let doc = "Number of deterministic replay schedules to shake \
                          each parallel workload through (capped at the \
                          factorial of the task count, where coverage is \
                          exhaustive)." in
               Arg.(value & opt int 50 & info [ "schedules" ] ~docv:"N" ~doc)
             in
             let plant =
               let doc = "Plant a deliberately unsynchronized write pair \
                          (detector soundness check; forces exit code 1)." in
               Arg.(value & flag & info [ "plant-race" ] ~doc)
             in
             cmd "sanitize"
               "Run the parallel workloads (pool primitives, a shared-oracle \
                prediction sweep, harness cache) under the vector-clock race \
                detector, across OS scheduling and deterministic schedule \
                replay; exits non-zero on any data race"
               Term.(const sanitize $ schedules $ plant $ diag_json));
            (let json =
               json_flag "Emit a JSON object instead of human-readable text."
             in
             Cmd.group
               (Cmd.info "store"
                  ~doc:"Maintain a durable certificate store directory \
                        (see --store)")
               [ store_cmd "stats"
                   "Open the store (running recovery) and report live \
                    records, journal size and recovery counts"
                   Term.(const (fun json dir -> store_stats dir json) $ json);
                 store_cmd "verify"
                   "Read-only integrity scan: nothing is truncated or \
                    repaired; exits non-zero when any record fails its \
                    checksum"
                   Term.(const (fun json dir -> store_verify dir json)
                         $ json) ]) ]))
