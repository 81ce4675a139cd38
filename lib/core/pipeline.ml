open Pmi_isa
module Rat = Pmi_numeric.Rat
module Portset = Pmi_portmap.Portset
module Mapping = Pmi_portmap.Mapping
module Experiment = Pmi_portmap.Experiment
module Harness = Pmi_measure.Harness
module Machine = Pmi_machine.Machine

let log = Logs.Src.create "pmi.pipeline" ~doc:"end-to-end case study"

module Log = (val Logs.src_log log : Logs.LOG)

type config = {
  blocking : Blocking.config;
  cegis : Cegis.config;
  port_usage : Port_usage.config;
}

let default_config =
  { blocking = Blocking.default_config;
    cegis = Cegis.default_config;
    port_usage = Port_usage.default_config }

type verdict =
  | Excluded_individual of Blocking.individual
  | Excluded_pairing
  | Excluded_mnemonic
  | Blocking_class of Scheme.t
  | Characterized of { usage : Mapping.usage; spurious : bool }
  | Unstable_result of Port_usage.failure

type funnel = {
  total : int;
  excluded_individual : int;
  after_stage1 : int;
  candidates_initial : int;
  excluded_pairing : int;
  after_stage2 : int;
  candidates_final : int;
  blocking_classes : int;
  excluded_mnemonic : int;
  considered : int;
  regular_pattern : int;
  spurious_ms : int;
  unstable : int;
  inferred : int;
}

type t = {
  catalog : Catalog.t;
  verdicts : verdict array;
  filtering : Blocking.filtering;
  removed_classes : Blocking.klass list;
  blocker_mapping : Mapping.t;
  alignment : Relabel.alignment option;
  improper : Scheme.t list;
  blockers : Port_usage.blocker list;
  cegis_stats : Cegis.stats option;
  mapping : Mapping.t;
  funnel : funnel;
}

let verdict t scheme = t.verdicts.(Scheme.id scheme)

(* ------------------------------------------------------------------ *)
(* Improper store blockers (§4.3)                                      *)
(* ------------------------------------------------------------------ *)

let is_scalar_store scheme =
  Scheme.mnemonic scheme = "mov"
  && (match Scheme.memory_writes scheme with [ _ ] -> true | [] | _ :: _ -> false)
  && Scheme.memory_reads scheme = []
  && List.exists
       (fun op ->
          match op.Operand.kind with
          | Operand.Gpr _ -> true
          | Operand.Gpr_high | Operand.Vec _ | Operand.Mem _ | Operand.Imm _ ->
            false)
       (Scheme.operands scheme)

let is_vector_store scheme =
  Scheme.memory_writes scheme = [ 128 ]
  && Scheme.memory_reads scheme = []
  && List.exists
       (fun op ->
          match op.Operand.kind with
          | Operand.Vec 128 -> true
          | Operand.Vec _ | Operand.Gpr _ | Operand.Gpr_high | Operand.Mem _
          | Operand.Imm _ -> false)
       (Scheme.operands scheme)

let find_improper catalog =
  let schemes = Array.to_list (Catalog.schemes catalog) in
  let pick pred = List.find_opt pred schemes in
  let scalar =
    (* The paper uses the 32-bit storing mov; fall back to any width. *)
    match
      pick (fun s -> is_scalar_store s && Scheme.memory_writes s = [ 32 ])
    with
    | Some s -> Some s
    | None -> pick is_scalar_store
  in
  List.filter_map Fun.id [ scalar; pick is_vector_store ]

(* ------------------------------------------------------------------ *)
(* CEGIS over the blocking classes, with §4.3 culprit removal          *)
(* ------------------------------------------------------------------ *)

let own_port_count harness scheme =
  let tp = Rat.to_float (Harness.cycles harness (Experiment.singleton scheme)) in
  max 1 (int_of_float (Float.round (1.0 /. tp)))

let specs_of harness classes improper =
  List.map
    (fun k -> (k.Blocking.representative, Encoding.Proper k.Blocking.port_count))
    classes
  @ List.map
      (fun s ->
         (s, Encoding.Improper { own_ports = own_port_count harness s }))
      improper

(* When findMapping is UNSAT, find the scheme(s) whose removal (together
   with the observations naming them) restores consistency.

   One criterion, applied to every spec.  A scheme is a culprit when
   (a) removing it, with every observation that names it, lets some
   mapping explain the rest, and (b) its probe certificate flags it.
   (a) alone does not decide: the refuting observation usually names an
   innocent flooding instruction alongside the real anomaly, and removing
   either restores SAT.  (b) grounds the choice in fresh evidence: pair
   the scheme with kernels of every other class and ask whether {e any}
   mapping explains its own behaviour.  Cross-observation contradictions
   (the vmovd case) and saturation anomalies (the imul case, which needs
   its flood partner present) both reappear in this focused set.

   A probe that clashes with exactly one kernel is attributed by a
   mirrored probe: if the partner also clashes with others once the
   suspect is out of the way, the partner owns the anomaly and the suspect
   is exonerated (vpslld paired with vmovd); a partner that is clean on
   its own convicts the suspect (imul against its saturated add
   partner). *)
let find_culprit config harness specs observations =
  let observe e =
    { Cegis.experiment = e; cycles = Harness.cycles harness e }
  in
  let explains specs' observations =
    Cegis.explain ~config ~specs:specs' ~observations () <> None
  in
  let specs_without s =
    List.filter (fun (s', _) -> not (Scheme.equal s s')) specs
  in
  let restores_consistency suspect =
    explains (specs_without suspect)
      (List.filter
         (fun obs -> Experiment.count obs.Cegis.experiment suspect = 0)
         observations)
  in
  let kernels_of specs' suspect =
    List.filter_map
      (fun (s, spec) ->
         match spec with
         | Encoding.Proper c when not (Scheme.equal s suspect) -> Some (s, c)
         | Encoding.Proper _ | Encoding.Improper _ -> None)
      specs'
  in
  let singletons_of specs' =
    List.map (fun (s, _) -> observe (Experiment.singleton s)) specs'
  in
  let pair_probes suspect (kernel, c) =
    List.map
      (fun copies ->
         observe (Experiment.add suspect (Experiment.replicate copies kernel)))
      [ 1; c; 2 * c ]
  in
  (* Which kernels does [suspect] clash with pairwise?  Stops counting at
     two partners — the caller only distinguishes zero, one, and many. *)
  let clash_partners specs' suspect =
    let singletons = singletons_of specs' in
    let rec go acc = function
      | [] -> acc
      | k :: rest ->
        if List.length acc >= 2 then acc
        else if explains specs' (singletons @ pair_probes suspect k) then
          go acc rest
        else go (fst k :: acc) rest
    in
    go [] (kernels_of specs' suspect)
  in
  let singletons = singletons_of specs in
  (* Degenerate: the per-class baselines alone are inconsistent, so every
     probe inherits the contradiction and pair attribution is
     meaningless.  Every scheme is flagged and (a) arbitrates. *)
  let baselines_inconsistent = not (explains specs singletons) in
  let probe_flags suspect =
    if baselines_inconsistent then true
    else
      let probes =
        List.concat_map (pair_probes suspect) (kernels_of specs suspect)
      in
      if explains specs (singletons @ probes) then false
      else
        match clash_partners specs suspect with
        | [ k ] ->
          (* Single clashing partner: mirror the question (see the header
             comment). *)
          List.length (clash_partners (specs_without suspect) k) < 2
        | _ -> true
  in
  match
    List.filter (fun (s, _) -> restores_consistency s && probe_flags s) specs
  with
  | [] -> None
  | flagged -> Some (List.map fst flagged)

let run_cegis config harness classes improper =
  let measure e = Harness.cycles harness e in
  let rec attempt classes improper removed =
    let specs = specs_of harness classes improper in
    let infer ~refute_early =
      Cegis.infer ~config:config.cegis ~refute_early ~measure ~specs ()
    in
    (* Every round checks the sweep early, so a round that holds a §4.3
       anomaly reaches UNSAT without converging first.  A round that
       converges anyway is re-run in the paper's order, and that run's
       result is the one reported: its final mapping and experiment count
       are the paper's.  The harness caches every measurement, so the
       re-run measures almost nothing new. *)
    let outcome =
      match infer ~refute_early:true with
      | Cegis.Converged _ -> infer ~refute_early:false
      | (Cegis.No_consistent_mapping _ | Cegis.Iteration_limit _) as early ->
        early
    in
    match outcome with
    | Cegis.Converged (m, stats) -> (m, stats, classes, improper, removed)
    | Cegis.Iteration_limit _ ->
      failwith "Pipeline: CEGIS iteration limit exceeded"
    | Cegis.No_consistent_mapping stats ->
      (match find_culprit config.cegis harness specs stats.Cegis.observations with
       | None -> failwith "Pipeline: observations admit no mapping and no culprit"
       | Some victims ->
         Log.info (fun m ->
             m "UNSAT (newest: %s): removing culprit blocking instruction(s) %s"
               (match List.rev stats.Cegis.observations with
                | [] -> "-"
                | o :: _ -> Experiment.to_string o.Cegis.experiment)
               (String.concat ", " (List.map Scheme.name victims)));
         let is_victim s = List.exists (Scheme.equal s) victims in
         let removed_classes, classes' =
           List.partition (fun k -> is_victim k.Blocking.representative) classes
         in
         let improper' = List.filter (fun s -> not (is_victim s)) improper in
         attempt classes' improper' (removed @ removed_classes))
  in
  attempt classes improper []

(* ------------------------------------------------------------------ *)
(* Regular-pattern detection (§4.4)                                    *)
(* ------------------------------------------------------------------ *)

type shape = Sh_gpr of int | Sh_high | Sh_vec of int | Sh_mem of int | Sh_imm of int

let shape_of scheme =
  List.map
    (fun op ->
       match op.Operand.kind with
       | Operand.Gpr w -> Sh_gpr w
       | Operand.Gpr_high -> Sh_high
       | Operand.Vec w -> Sh_vec w
       | Operand.Mem w -> Sh_mem w
       | Operand.Imm w -> Sh_imm w)
    (Scheme.operands scheme)

let sibling_index catalog =
  let tbl = Hashtbl.create 4096 in
  Array.iter
    (fun s ->
       let key = (Scheme.mnemonic s, shape_of s) in
       if not (Hashtbl.mem tbl key) then Hashtbl.add tbl key s)
    (Catalog.schemes catalog);
  tbl

let load_ports = Portset.of_list [ 4; 5 ]

let usage_plus usage extra = Mapping.normalize_usage (usage @ extra)
let usage_times n usage = List.map (fun (p, m) -> (p, n * m)) usage

(* Does [usage] relate to a register-form sibling by one of the §4.4
   patterns?  [lookup] returns the final usage of a scheme if inferred. *)
let regular_pattern siblings lookup scheme usage =
  let find key = Hashtbl.find_opt siblings key in
  let mnemonic = Scheme.mnemonic scheme in
  let shape = shape_of scheme in
  let demote_mem to_reg =
    List.map
      (function
        | Sh_mem w -> to_reg w
        | (Sh_gpr _ | Sh_high | Sh_vec _ | Sh_imm _) as s -> s)
      shape
  in
  let halve =
    List.map
      (function
        | Sh_vec 256 -> Sh_vec 128
        | Sh_mem 256 -> Sh_mem 128
        | (Sh_vec _ | Sh_mem _ | Sh_gpr _ | Sh_high | Sh_imm _) as s -> s)
      shape
  in
  let matches sibling transform =
    match find (mnemonic, sibling) with
    | None -> None
    | Some sib ->
      if Scheme.equal sib scheme then None
      else (
        match lookup sib with
        | None -> None
        | Some sib_usage ->
          if Mapping.equal_usage usage (transform sib_usage) then Some ()
          else None)
  in
  let has_mem = List.exists (function Sh_mem _ -> true | _ -> false) shape in
  let mem_width =
    List.fold_left
      (fun acc s -> match s with Sh_mem w -> max acc w | _ -> acc)
      0 shape
  in
  let is_ymm = List.exists (function Sh_vec 256 -> true | _ -> false) shape in
  let reads = Scheme.memory_reads scheme <> [] in
  let writes = Scheme.memory_writes scheme <> [] in
  let candidates =
    (* read-memory form: register sibling + load µop(s) *)
    (if has_mem && reads && not writes then
       [ (demote_mem (fun w -> if w > 128 then Sh_vec 128 else if w >= 128 then Sh_vec w else Sh_gpr w),
          fun u -> usage_plus u [ (load_ports, if mem_width > 128 then 2 else 1) ]) ]
     else [])
    (* double-pumped 256-bit form: 2 x the 128-bit sibling *)
    @ (if is_ymm then [ (halve, fun u -> usage_times 2 u) ] else [])
    (* read-modify-write form: register sibling + store µop (+ AGU) *)
    @ (if has_mem && reads && writes then
         [ (demote_mem (fun w -> Sh_gpr w),
            fun u -> usage_plus u [ (Portset.singleton 5, 1) ]);
           (demote_mem (fun w -> Sh_gpr w),
            fun u ->
              usage_plus u [ (Portset.singleton 5, 1); (load_ports, 1) ]) ]
       else [])
  in
  List.exists (fun (sibling, transform) -> matches sibling transform <> None)
    candidates

(* ------------------------------------------------------------------ *)
(* The study                                                           *)
(* ------------------------------------------------------------------ *)

let run ?(config = default_config) harness =
  let machine = Harness.machine harness in
  (* Machine-level constants come from the profile under test; the caller's
     config chooses the measurement tolerances, the experiment-size bound
     and certification (§3.5). *)
  let r_max = Machine.r_max machine in
  let num_ports = Machine.num_ports machine in
  let config =
    { config with
      blocking =
        { config.blocking with Blocking.r_max; max_ports = r_max - 1 };
      cegis = { config.cegis with Cegis.r_max; num_ports } }
  in
  let catalog = Machine.catalog machine in
  let schemes = Catalog.schemes catalog in
  let n = Array.length schemes in
  (* [None] = still pending a verdict. *)
  let pending : verdict option array = Array.make n None in
  let decide i v = pending.(i) <- Some v in
  (* Stage 1 (§4.1): benchmark every scheme individually. *)
  let stage1 =
    Array.map (Blocking.classify_individual ~config:config.blocking harness)
      schemes
  in
  let candidates = ref [] in
  Array.iteri
    (fun i s ->
       match stage1.(i) with
       | (Blocking.Hardwired | Blocking.Unreliable | Blocking.Zero_uop
         | Blocking.Outside_model) as v ->
         decide i (Excluded_individual v)
       | Blocking.Candidate ports -> candidates := (s, ports) :: !candidates
       | Blocking.Multi_uop _ -> ())
    schemes;
  let candidates = List.rev !candidates in
  let max_port_set =
    List.fold_left (fun acc (_, p) -> max acc p) 1 candidates
  in
  Bottleneck.check ~r_max:config.blocking.Blocking.r_max ~max_port_set;
  (* Stage 2 (§4.2): pair candidates, drop unstable and contradictory ones
     and everything sharing their mnemonics. *)
  let filtering =
    Blocking.filter_candidates ~config:config.blocking harness candidates
  in
  let bad_mnemonics = Hashtbl.create 16 in
  List.iter
    (fun s -> Hashtbl.replace bad_mnemonics (Scheme.mnemonic s) ())
    (filtering.Blocking.unstable @ filtering.Blocking.contradictory);
  Array.iteri
    (fun i s ->
       if pending.(i) = None && Hashtbl.mem bad_mnemonics (Scheme.mnemonic s)
       then decide i Excluded_pairing)
    schemes;
  let count_decided pred =
    Array.fold_left
      (fun acc v -> match v with Some v when pred v -> acc + 1 | _ -> acc)
      0 pending
  in
  let excluded_pairing_count =
    count_decided (function Excluded_pairing -> true | _ -> false)
  in
  (* Stage 3 (§4.3): infer the blocking-instruction mapping. *)
  let improper = find_improper catalog in
  let blocker_mapping_raw, stats, kept_classes, kept_improper, removed_classes =
    run_cegis config harness filtering.Blocking.classes improper
  in
  (* Exclude schemes sharing a mnemonic with a culprit class member. *)
  let culprit_mnemonics = Hashtbl.create 8 in
  List.iter
    (fun k ->
       List.iter
         (fun s -> Hashtbl.replace culprit_mnemonics (Scheme.mnemonic s) ())
         k.Blocking.members)
    removed_classes;
  Array.iteri
    (fun i s ->
       if pending.(i) = None && Hashtbl.mem culprit_mnemonics (Scheme.mnemonic s)
       then decide i Excluded_mnemonic)
    schemes;
  (* Stage 4: rename ports against the documented layout (Table 2). *)
  let docs_mapping = Machine.ground_truth machine in
  let docs =
    List.filter_map
      (fun s ->
         match Mapping.find_opt docs_mapping s with
         | Some u -> Some (s, u)
         | None -> None)
      (List.map (fun k -> k.Blocking.representative) kept_classes
       @ kept_improper)
  in
  let alignment = Relabel.align ~docs blocker_mapping_raw in
  let blocker_mapping =
    match alignment with
    | Some a ->
      let renamed = Relabel.apply a.Relabel.permutation blocker_mapping_raw in
      (* Schemes the renaming had to drop are the frontend-masked
         ambiguities ("[0,6,7,8]"-style add variants); like the paper, we
         resolve them in favour of the documented port set (§4.3: "We use
         [6,7,8,9] in the rest of the algorithm as it is consistent with
         the documentation"). *)
      List.iter
        (fun s ->
           match List.assoc_opt s docs with
           | Some doc_usage ->
             Log.info (fun m ->
                 m "resolving masked ambiguity of %s to the documented %s"
                   (Scheme.name s)
                   (Mapping.usage_to_string doc_usage));
             Mapping.set renamed s doc_usage
           | None -> ())
        a.Relabel.dropped;
      renamed
    | None -> blocker_mapping_raw
  in
  (* Stage 5 (§4.4): characterise everything else against the suite. *)
  let class_ports k =
    match Mapping.find_opt blocker_mapping k.Blocking.representative with
    | Some [ (ports, 1) ] -> ports
    | Some _ | None ->
      failwith "Pipeline: blocking representative has unexpected usage"
  in
  let blockers =
    List.map
      (fun k -> { Port_usage.scheme = k.Blocking.representative; ports = class_ports k })
      kept_classes
    @ List.filter_map
        (fun s ->
           if not (is_scalar_store s) then None
           else
             (* The store blocker floods the store µop: the µop of the
                improper instruction that does not coincide with any proper
                class (its other µop is the shared one, covered by that
                class's own blocker). *)
             match Mapping.find_opt blocker_mapping s with
             | Some usage ->
               let class_sets =
                 List.map class_ports kept_classes
               in
               let own =
                 List.filter
                   (fun (p, _) ->
                      not (List.exists (Portset.equal p) class_sets))
                   usage
               in
               (match own with
                | [ (ports, _) ] -> Some { Port_usage.scheme = s; ports }
                | [] -> None
                | _ :: _ ->
                  (* Both µops unmatched (no surviving partner class):
                     flood the narrower one, which is the store. *)
                  let ports, _ =
                    List.fold_left
                      (fun (bp, bc) (p, _) ->
                         let c = Portset.cardinal p in
                         if c < bc then (p, c) else (bp, bc))
                      (Portset.full (Mapping.num_ports blocker_mapping),
                       max_int)
                      usage
                  in
                  Some { Port_usage.scheme = s; ports })
             | None -> None)
        kept_improper
  in
  (* Blocking candidates inherit their class's port set. *)
  List.iter
    (fun k ->
       List.iter
         (fun s -> decide (Scheme.id s) (Blocking_class k.Blocking.representative))
         k.Blocking.members)
    kept_classes;
  (* Remaining schemes: the adapted Algorithm 1. *)
  Array.iteri
    (fun i s ->
       if pending.(i) = None then begin
         match
           Port_usage.characterize ~config:config.port_usage harness ~blockers s
         with
         | Port_usage.Usage { usage; spurious; _ } ->
           decide i (Characterized { usage; spurious })
         | Port_usage.Failed f -> decide i (Unstable_result f)
       end)
    schemes;
  let verdicts =
    Array.map
      (function
        | Some v -> v
        | None -> assert false (* every scheme is decided by now *))
      pending
  in
  (* Final mapping. *)
  let mapping = Mapping.create ~num_ports:config.cegis.Cegis.num_ports in
  let class_ports_by_rep = Hashtbl.create 16 in
  List.iter
    (fun k ->
       Hashtbl.replace class_ports_by_rep
         (Scheme.id k.Blocking.representative) (class_ports k))
    kept_classes;
  Array.iteri
    (fun i s ->
       match verdicts.(i) with
       | Blocking_class rep ->
         let ports = Hashtbl.find class_ports_by_rep (Scheme.id rep) in
         Mapping.set mapping s [ (ports, 1) ]
       | Characterized { usage; _ } -> if usage <> [] then Mapping.set mapping s usage
       | Excluded_individual _ | Excluded_pairing | Excluded_mnemonic
       | Unstable_result _ -> ())
    schemes;
  (* Funnel bookkeeping. *)
  let count pred = Array.fold_left (fun acc v -> if pred v then acc + 1 else acc) 0 verdicts in
  let excluded_individual =
    count (function Excluded_individual _ -> true | _ -> false)
  in
  let excluded_mnemonic_count =
    count (function Excluded_mnemonic -> true | _ -> false)
  in
  let unstable_count = count (function Unstable_result _ -> true | _ -> false) in
  let spurious_count =
    count (function Characterized { spurious; _ } -> spurious | _ -> false)
  in
  let siblings = sibling_index catalog in
  let lookup s = Mapping.find_opt mapping s in
  let regular_characterized =
    Array.to_list schemes
    |> List.filter (fun s ->
        match verdicts.(Scheme.id s) with
        | Characterized { usage; spurious = false } ->
          regular_pattern siblings lookup s usage
        | Characterized _ | Excluded_individual _ | Excluded_pairing
        | Excluded_mnemonic | Blocking_class _ | Unstable_result _ -> false)
    |> List.length
  in
  let class_member_count =
    count (function Blocking_class _ -> true | _ -> false)
  in
  let considered =
    count (function
        | Blocking_class _ | Characterized _ | Unstable_result _ -> true
        | Excluded_individual _ | Excluded_pairing | Excluded_mnemonic -> false)
  in
  let funnel =
    { total = n;
      excluded_individual;
      after_stage1 = n - excluded_individual;
      candidates_initial = List.length candidates;
      excluded_pairing = excluded_pairing_count;
      after_stage2 = n - excluded_individual - excluded_pairing_count;
      candidates_final =
        List.fold_left
          (fun acc k -> acc + List.length k.Blocking.members)
          0 filtering.Blocking.classes;
      blocking_classes = List.length filtering.Blocking.classes;
      excluded_mnemonic = excluded_mnemonic_count;
      considered;
      regular_pattern = class_member_count + regular_characterized;
      spurious_ms = spurious_count;
      unstable = unstable_count;
      inferred = Mapping.size mapping }
  in
  { catalog;
    verdicts;
    filtering;
    removed_classes;
    blocker_mapping;
    alignment;
    improper = kept_improper;
    blockers;
    cegis_stats = Some stats;
    mapping;
    funnel }

let pp_funnel ppf f =
  let line label value paper =
    Format.fprintf ppf "%-42s %6d   (paper: %s)@." label value paper
  in
  line "instruction schemes" f.total "2,980";
  line "excluded when benchmarked alone (§4.1.2)" f.excluded_individual "657";
  line "remaining after stage 1" f.after_stage1 "2,323";
  line "single-µop candidates" f.candidates_initial "691";
  line "excluded in pairing experiments (§4.2)" f.excluded_pairing "436";
  line "remaining after stage 2" f.after_stage2 "1,887";
  line "blocking candidates" f.candidates_final "563";
  line "blocking classes (Table 1)" f.blocking_classes "13";
  line "excluded with culprit mnemonics (§4.3)" f.excluded_mnemonic "68";
  line "considered in the final stage" f.considered "1,819";
  line "regular decomposition patterns (§4.4)" f.regular_pattern "~70%";
  line "microcode-sequencer artefacts" f.spurious_ms "~8%";
  line "unstable / outside the model" f.unstable "~7%";
  line "schemes with an inferred port mapping" f.inferred "1,700"
