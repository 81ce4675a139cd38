module Rat = Pmi_numeric.Rat
module Mapping = Pmi_portmap.Mapping
module Experiment = Pmi_portmap.Experiment
module Oracle = Pmi_portmap.Oracle
module Harness = Pmi_measure.Harness
module Pmevo = Pmi_baselines.Pmevo
module Palmed = Pmi_baselines.Palmed

type options = {
  scheme_subset : int;
  block_count : int;
  seed : int;
  pmevo : Pmevo.config;
  palmed : Palmed.config;
}

let default_options =
  { scheme_subset = 577;
    block_count = 5000;
    seed = 5;
    pmevo = Pmevo.default_config;
    palmed = Palmed.default_config }

let quick_options =
  { scheme_subset = 60;
    block_count = 300;
    seed = 5;
    pmevo = { Pmevo.population = 24; generations = 30 };
    palmed = { Palmed.default_config with Palmed.throughput_classes = 32 } }

type model_result = {
  model : string;
  pairs : (float * float) list;
  summary : Metrics.summary;
}

type t = {
  schemes_used : int;
  blocks_used : int;
  ours : model_result;
  pmevo : model_result;
  palmed : model_result;
}

(* Five instructions per basic block, as in the paper. *)
let block_size = 5

let result name pairs =
  { model = name; pairs; summary = Metrics.summarize pairs }

let run ?(options = default_options) harness ~mapping =
  let machine = Harness.machine harness in
  let r_max = Pmi_machine.Machine.r_max machine in
  let num_ports = Pmi_machine.Machine.num_ports machine in
  let covered =
    List.filter (Mapping.supports mapping)
      (Array.to_list (Pmi_isa.Catalog.schemes (Pmi_machine.Machine.catalog machine)))
  in
  let schemes =
    Blocks.spec_subset ~seed:options.seed ~size:options.scheme_subset covered
  in
  let blocks =
    Blocks.generate ~seed:(options.seed + 1) ~count:options.block_count
      ~block_size schemes
  in
  let measured_ipc =
    List.map
      (fun e ->
         let cycles = Rat.to_float (Harness.cycles harness e) in
         (e, float_of_int (Experiment.length e) /. cycles))
      blocks
  in
  let predict model_inverse =
    List.map
      (fun (e, ipc) ->
         let t = model_inverse e in
         (float_of_int (Experiment.length e) /. Float.max 1e-9 t, ipc))
      measured_ipc
  in
  let oracle_inverse m =
    let oracle = Oracle.create m in
    Oracle.prepare oracle schemes;
    fun bounded e ->
      Rat.to_float
        (if bounded then Oracle.inverse_bounded ~r_max oracle e
         else Oracle.inverse oracle e)
  in
  (* Our model: the §2.2 LP optimum capped at the frontend rate (§4.5). *)
  let ours = result "Ours" (predict (oracle_inverse mapping true)) in
  (* PMEvo: trained on its own benchmark suite; predictions not adjusted
     for the IPC bottleneck (the paper's footnote 10). *)
  let pmevo_mapping =
    let training =
      Pmevo.training_set ~seed:(options.seed + 2) harness schemes
    in
    Pmevo.infer ~config:options.pmevo ~num_ports training schemes
  in
  let pmevo = result "PMEvo" (predict (oracle_inverse pmevo_mapping false)) in
  (* Palmed: conjunctive resource model inferred on the same machine. *)
  let palmed_model = Palmed.infer ~config:options.palmed harness schemes in
  let palmed =
    result "Palmed"
      (List.map
         (fun (e, ipc) ->
            let t = Rat.to_float (Palmed.predict palmed_model e) in
            (float_of_int (Experiment.length e) /. Float.max 1e-9 t, ipc))
         measured_ipc)
  in
  { schemes_used = List.length schemes;
    blocks_used = List.length blocks;
    ours;
    pmevo;
    palmed }

let pp ppf t =
  Format.fprintf ppf
    "== Figure 5: IPC prediction accuracy (%d blocks over %d schemes) ==@.@."
    t.blocks_used t.schemes_used;
  Format.fprintf ppf "%-8s %-14s %-10s %s@." "" "MAPE (paper)" "PCC" "Kendall τ";
  let paper = [ ("PMEvo", "28.0%"); ("Palmed", "35.2%"); ("Ours", "6.6%") ] in
  List.iter
    (fun r ->
       let p = try List.assoc r.model paper with Not_found -> "-" in
       Format.fprintf ppf "%-8s %5.1f%% (%s)   %5.2f     %5.2f@." r.model
         r.summary.Metrics.mape p r.summary.Metrics.pearson
         r.summary.Metrics.kendall)
    [ t.pmevo; t.palmed; t.ours ];
  List.iter
    (fun r ->
       Format.fprintf ppf "@.-- %s --@.%a" r.model Heatmap.pp
         (Heatmap.make r.pairs))
    [ t.pmevo; t.palmed; t.ours ]
