module Rat = Pmi_numeric.Rat
module Scheme = Pmi_isa.Scheme
module Experiment = Pmi_portmap.Experiment
module Mapping = Pmi_portmap.Mapping
module Throughput = Pmi_portmap.Throughput
module Oracle = Pmi_portmap.Oracle
module Pool = Pmi_parallel.Pool
module Solver = Pmi_smt.Solver
module Race = Pmi_diag.Race
module Obs = Pmi_obs.Obs

(* Telemetry counters: the CEGIS-level tallies a [--metrics] run reports
   next to the per-iteration spans.  All process-wide; [stats] keeps the
   per-run numbers. *)
let c_lemmas = Obs.counter "cegis.theory_lemmas"
let c_certificates = Obs.counter "cegis.certificates_checked"
let c_candidates = Obs.counter "cegis.candidates_tried"
let c_observations = Obs.counter "cegis.observations"
let c_enclint_findings = Obs.counter "cegis.enclint.findings"
let c_sat_episodes = Obs.counter "cegis.sat_episodes"
let c_mapcheck_refuted = Obs.counter "cegis.mapcheck.refuted_rows"
let c_mapcheck_saved = Obs.counter "cegis.mapcheck.measurements_saved"
let c_mapcheck_symmetries = Obs.counter "cegis.mapcheck.symmetry_facts"
let c_cert_cached = Obs.counter "cegis.certificates_cached"
let c_warm_obs = Obs.counter "cegis.warm_observations"

module Mapcheck = Pmi_analysis.Mapcheck
module IntSet = Set.Make (Int)

(* Process-wide episode tally; per-run numbers are snapshots around one
   inference (the repo never runs two inferences concurrently). *)
let episode_count = Atomic.make 0

(* Sanitizer shadow locations for the two Vecs every CEGIS phase shares:
   the observation log (read by parallel validation sweeps, written only
   between fan-outs) and the theory-lemma pool (caller-thread only).  One
   location per role is enough — the sanitizer runs one inference at a
   time. *)
let obs_loc = Race.location "cegis.observations"
let lemma_loc = Race.location "cegis.lemma-pool"

let log = Logs.Src.create "pmi.cegis" ~doc:"counter-example-guided inference"

module Log = (val Logs.src_log log : Logs.LOG)

type config = {
  num_ports : int;
  r_max : int;
  epsilon : Rat.t;
  max_experiment_size : int;
  max_other_candidates : int;
  max_iterations : int;
  symmetry_breaking : bool;
  domains : int;
  cube_conquer : int;
  dump_cnf : string option;
  certify : bool;
  enclint : bool;
  mapcheck : bool;
  store : Pmi_store.Store.t option;
}

exception Certification_failure of string
exception Enclint_failure of string

let default_config =
  { num_ports = 10;
    r_max = 5;
    epsilon = Rat.of_ints 2 100;
    max_experiment_size = 5;
    max_other_candidates = 400;
    max_iterations = 400;
    symmetry_breaking = true;
    domains = 1;
    cube_conquer = 0;
    dump_cnf = None;
    certify = false;
    enclint = false;
    mapcheck = false;
    store = None }

type observation = {
  experiment : Experiment.t;
  cycles : Rat.t;
}

type stats = {
  iterations : int;
  observations : observation list;
  candidates_tried : int;
  theory_lemmas : int;
  sat_episodes : int;
  sat : Pmi_smt.Sat.stats;
}

type outcome =
  | Converged of Mapping.t * stats
  | No_consistent_mapping of stats
  | Iteration_limit of stats

let modeled_inverse config mapping experiment =
  Throughput.inverse_bounded ~r_max:config.r_max mapping experiment

(* The memoized oracle is a drop-in replacement for the naive throughput
   computation (same exact rationals); it only declines when the port count
   exceeds its dense-table bound, in which case we keep the naive path.
   The oracle itself is returned too, so parallel callers can warm its
   tables before fanning out. *)
let oracle_fn config mapping =
  match Oracle.create mapping with
  | o -> ((fun e -> Oracle.inverse_bounded ~r_max:config.r_max o e), Some o)
  | exception Invalid_argument _ -> (modeled_inverse config mapping, None)

let consistent config mapping obs =
  let modeled = modeled_inverse config mapping obs.experiment in
  Pmi_measure.Harness.Compare.cpi_equal ~epsilon:config.epsilon
    ~length:(Experiment.length obs.experiment) modeled obs.cycles

(* Theory check: decode the SAT model, evaluate every observation, and
   learn a footprint lemma for each violated one.  Lemmas are collected in
   [pool] so that later encodings (deterministic variable numbering) can be
   seeded with everything already learned. *)
let theory_check config encoding observations pool model =
  let mapping = Encoding.decode encoding model in
  let inv, _ = oracle_fn config mapping in
  let lemmas = ref [] in
  Race.touch_read obs_loc;
  Vec.iter
    (fun obs ->
       let explained =
         Pmi_measure.Harness.Compare.cpi_equal ~epsilon:config.epsilon
           ~length:(Experiment.length obs.experiment) (inv obs.experiment)
           obs.cycles
       in
       if not explained then
         lemmas :=
           Encoding.block_footprint encoding model
             (Experiment.schemes obs.experiment)
           :: !lemmas)
    observations;
  let lemmas = List.rev !lemmas in
  if lemmas <> [] then begin
    Race.touch_write lemma_loc;
    Obs.add c_lemmas (List.length lemmas)
  end;
  List.iter (Vec.push pool) lemmas;
  lemmas

let fresh_encoding config specs pool =
  let encoding =
    Encoding.create ~num_ports:config.num_ports
      ~symmetry_breaking:config.symmetry_breaking ~certify:config.certify
      specs
  in
  Race.touch_read lemma_loc;
  Vec.iter (Pmi_smt.Sat.add_clause (Encoding.sat encoding)) pool;
  encoding

(* Static gate on a constructed encoding (behind [config.enclint]): run
   the EncLint analysis once per solver episode, before the episode's first
   solve.  Two caches keep the gate sub-linear over a CEGIS run:

   - [enclint_cone_memo] is handed to the analyzer, which memoizes clean
     exhaustive cardinality-cone enumerations by network shape (the
     [Card] builder is deterministic), so shapes verified once are not
     re-enumerated — neither on later episodes of the same solver nor
     when a fresh same-spec encoding rebuilds them, as the §4.3 culprit
     search does once per [explain] call.
   - [enclint_db_seen] maps [Sat.id] to the retired-row signature under
     which the clause-database passes (dead vars, duplicates, retired
     reachability, frozen-unused) last ran.  Those passes only change
     when the database does structurally: a new solver or a retirement;
     episodes in between run the view-layer checks only. *)
let enclint_cone_memo : (string, unit) Hashtbl.t = Hashtbl.create 64
let enclint_db_seen : (int, string) Hashtbl.t = Hashtbl.create 16

(* [lemmas] is a thunk so the (possibly large) pool-to-list conversion
   is only paid when the gate is actually on. *)
let enclint_gate config ?lemmas ?frozen encoding =
  if config.enclint then
    Obs.span "cegis.enclint" @@ fun () ->
    let sat = Encoding.sat encoding in
    let lemmas = Option.map (fun f -> f ()) lemmas in
    let view = Encoding.enclint_view ?lemmas ?frozen encoding in
    let retired_sig =
      String.concat ";"
        (List.filter_map
           (fun (r : Pmi_analysis.Enclint.row) ->
              if r.Pmi_analysis.Enclint.live then None
              else Some r.Pmi_analysis.Enclint.subject)
           view.Pmi_analysis.Enclint.rows)
    in
    let db =
      match Hashtbl.find_opt enclint_db_seen (Pmi_smt.Sat.id sat) with
      | Some s when s = retired_sig -> false
      | _ -> true
    in
    if db then
      Hashtbl.replace enclint_db_seen (Pmi_smt.Sat.id sat) retired_sig;
    let diags =
      Obs.span "cegis.enclint.analyze" (fun () ->
          Pmi_analysis.Enclint.analyze ~cone_memo:enclint_cone_memo ~db sat
            view)
    in
    Obs.add c_enclint_findings (List.length diags);
    List.iter
      (fun d -> Log.debug (fun m -> m "%s" (Pmi_diag.Diag.to_string d)))
      diags;
    match Pmi_diag.Diag.errors diags with
    | [] -> ()
    | errs ->
      raise
        (Enclint_failure
           (Printf.sprintf "encoding rejected by enclint (%d error(s)): %s"
              (List.length errs)
              (String.concat "; "
                 (List.map Pmi_diag.Diag.to_string errs))))

(* Theory-level solving: cube-and-conquer when [cube_conquer] grants split
   variables and the config grants more than one domain, the sequential
   lazy-SMT loop otherwise. *)
let solve_sub config encoding ?assumptions ~check sat =
  if config.cube_conquer > 0 && config.domains > 1 then
    Obs.span
      ~args:[ ("k", Obs.Int config.cube_conquer) ]
      "cegis.cubes"
      (fun () ->
         Solver.solve_cubes ?assumptions ~domains:config.domains
           ~cubes:config.cube_conquer
           ~hint:(fun () -> Encoding.split_hint encoding)
           ~check sat)
  else Solver.solve ?assumptions ~check sat

(* ------------------------------------------------------------------ *)
(* Trust-but-verify layer                                              *)
(* ------------------------------------------------------------------ *)

(* An UNSAT verdict under assumptions [a1; …; an] is certified by checking
   the DRAT trace against the goal clause [¬a1 ∨ … ∨ ¬an] (the empty clause
   when there are no assumptions): the independent checker replays every
   derivation and finally requires the goal itself to be RUP. *)
let certify_unsat config ?(assumptions = []) sat =
  if config.certify then begin
    Obs.incr c_certificates;
    if not (Pmi_smt.Sat.proof_logging sat) then
      raise
        (Certification_failure
           "certify is on but the solver carries no proof trace");
    let goal = List.map Pmi_smt.Lit.negate assumptions in
    let proof = Pmi_smt.Sat.proof sat in
    let run_checker () =
      match Pmi_analysis.Drat.check ~goal proof with
      | Ok () ->
        Log.debug (fun m ->
            m "UNSAT certificate accepted (%d proof steps)"
              (Pmi_smt.Sat.proof_length sat))
      | Error e ->
        raise
          (Certification_failure
             (Format.asprintf "UNSAT certificate rejected: %a"
                Pmi_analysis.Drat.pp_error e))
    in
    (* The durable certificate store short-circuits the checker only when
       this exact proof of this exact goal (same axioms) was accepted by a
       previous run: the key is the claim's digest, the stored value the
       full proof's.  A different proof of a known goal is re-checked and
       the record refreshed. *)
    match config.store with
    | None -> run_checker ()
    | Some store ->
      let key = "unsat:" ^ Pmi_analysis.Drat.goal_digest ~goal proof in
      let digest = Pmi_analysis.Drat.proof_digest ~goal proof in
      (match Pmi_store.Store.get store Pmi_store.Store.Certificate ~key with
       | Some stored when String.equal stored digest ->
         Obs.incr c_cert_cached;
         Log.debug (fun m ->
             m "UNSAT certificate found in store; re-check skipped")
       | _ ->
         run_checker ();
         Pmi_store.Store.put store Pmi_store.Store.Certificate ~key digest)
  end

(* A SAT verdict is certified against the axioms, not the solver: the model
   must satisfy every input clause of the trace (problem CNF, cardinality
   chains, theory lemmas), and the decoded mapping must explain every
   observation under the naive exact-rational oracle — deliberately not the
   memoized fast path the search itself uses. *)
let certify_sat config encoding observations model =
  if config.certify then begin
    Obs.incr c_certificates;
    let sat = Encoding.sat encoding in
    (match Pmi_analysis.Drat.validate_model ~model (Pmi_smt.Sat.proof sat) with
     | Ok () -> ()
     | Error e ->
       raise
         (Certification_failure
            (Format.asprintf "SAT model rejected: %a"
               Pmi_analysis.Drat.pp_error e)));
    let mapping = Encoding.decode encoding model in
    Vec.iter
      (fun obs ->
         let modeled = modeled_inverse config mapping obs.experiment in
         if
           not
             (Pmi_measure.Harness.Compare.cpi_equal ~epsilon:config.epsilon
                ~length:(Experiment.length obs.experiment) modeled obs.cycles)
         then
           raise
             (Certification_failure
                (Printf.sprintf
                   "SAT model rejected: decoded mapping does not explain %s \
                    (modeled %s, observed %s)"
                   (Experiment.to_string obs.experiment)
                   (Rat.to_string modeled)
                   (Rat.to_string obs.cycles))))
      observations
  end

(* Every solver verdict the CEGIS loop consumes flows through here, so the
   sequential and cube-and-conquer paths are both certified when the knob
   is on. *)
let certified_solve config encoding observations ?assumptions ~check () =
  let sat = Encoding.sat encoding in
  Atomic.incr episode_count;
  Obs.incr c_sat_episodes;
  let verdict = solve_sub config encoding ?assumptions ~check sat in
  (match verdict with
   | Solver.Unsat -> certify_unsat config ?assumptions sat
   | Solver.Sat model -> certify_sat config encoding observations model);
  verdict

(* Candidate-row tracker behind [config.mapcheck]: every proper scheme
   starts from all C(num_ports, c) cardinality-c rows; observations then
   refute candidates whose throughput interval excludes the measured value.
   Wide layouts opt out (the tracker enumerates dense candidate tables), and
   improper schemes are simply untracked — the refuter ignores experiments
   that mention them. *)
let mapcheck_refuter config specs =
  if (not config.mapcheck) || config.num_ports > 12 then None
  else
    let rows =
      List.filter_map
        (fun (s, spec) ->
           match spec with
           | Encoding.Proper c ->
             Some (s, Mapcheck.proper_candidates ~num_ports:config.num_ports c)
           | Encoding.Improper _ -> None)
        specs
    in
    if rows = [] then None
    else
      Some
        (Mapcheck.Refuter.create ~epsilon:config.epsilon
           ~num_ports:config.num_ports ~r_max:config.r_max rows)

let find_mapping config encoding observations pool =
  Obs.span "cegis.find_mapping" (fun () ->
      enclint_gate config ~lemmas:(fun () -> Vec.to_list pool) encoding;
      let check = theory_check config encoding observations pool in
      match certified_solve config encoding observations ~check () with
      | Solver.Sat model -> Some (Encoding.decode encoding model)
      | Solver.Unsat -> None)

(* Multisets of the given schemes, enumerated in order of increasing size
   (the stratified search of §3.3.4), smallest first. *)
let iter_experiments schemes ~max_size f =
  let schemes = Array.of_list schemes in
  let n = Array.length schemes in
  let rec fill size start acc =
    if size = 0 then f (Experiment.of_counts acc)
    else
      for i = start to n - 1 do
        (* Give scheme i between 1 and [size] copies, then recurse on the
           remaining schemes with the remaining size budget. *)
        let rec with_count c =
          if c <= size then begin
            fill (size - c) (i + 1) ((schemes.(i), c) :: acc);
            with_count (c + 1)
          end
        in
        with_count 1
      done
  in
  let rec sizes s =
    if s <= max_size then begin
      fill s 0 [];
      sizes (s + 1)
    end
  in
  sizes 1

exception Found of Experiment.t

exception Found_counts of (Scheme.t * int) list

(* One size stratum of the distinguishing-experiment search, walked with
   incremental oracle accumulators: entering/leaving a recursion level is a
   ±one-scheme mass delta, and each leaf is an O(2^P) scan per mapping
   instead of a from-scratch throughput computation.  Enumeration order is
   identical to [iter_experiments], so the first hit is deterministic.
   [abort] is polled at every node (used by the parallel search to stop a
   stratum once a smaller one has found a hit). *)
let search_stratum config o1 o2 schemes ~size ~abort =
  let sep = Pmi_measure.Harness.Compare.well_separated ~epsilon:config.epsilon in
  let a1 = Oracle.Acc.create o1 and a2 = Oracle.Acc.create o2 in
  let n = Array.length schemes in
  let rec fill size start acc =
    if abort () then raise_notrace Exit;
    if size = 0 then begin
      let length = Oracle.Acc.length a1 in
      let t1 = Oracle.Acc.inverse_bounded ~r_max:config.r_max a1 in
      let t2 = Oracle.Acc.inverse_bounded ~r_max:config.r_max a2 in
      if sep ~length t1 t2 then raise_notrace (Found_counts acc)
    end
    else
      for i = start to n - 1 do
        let s = schemes.(i) in
        let rec with_count c =
          if c <= size then begin
            Oracle.Acc.add a1 s 1;
            Oracle.Acc.add a2 s 1;
            fill (size - c) (i + 1) ((s, c) :: acc);
            with_count (c + 1)
          end
          else begin
            (* All [c - 1] copies of scheme i are standing; retract them. *)
            Oracle.Acc.remove a1 s (c - 1);
            Oracle.Acc.remove a2 s (c - 1)
          end
        in
        with_count 1
      done
  in
  match fill size 0 [] with
  | () -> None
  | exception Found_counts acc -> Some (Experiment.of_counts acc)
  | exception Exit -> None

let distinguishing_memoized config o1 o2 schemes =
  let arr = Array.of_list schemes in
  Obs.span "oracle.prepare" (fun () ->
      Oracle.prepare o1 schemes;
      Oracle.prepare o2 schemes);
  if config.domains > 1 && config.max_experiment_size > 1 then begin
    (* One domain per size stratum; every stratum reports its first hit in
       enumeration order and the smallest stratum wins, so the result is
       the same experiment the sequential search returns. *)
    let strata = config.max_experiment_size in
    let hits = Array.make (strata + 1) None in
    let best = Race.tracked_atomic ~name:"cegis.distinguishing.best" max_int in
    let rec shrink size =
      let b = Race.aget best in
      if size < b && not (Race.acas best b size) then shrink size
    in
    Pool.parallel_for ~domains:config.domains ~n:strata (fun idx ->
        let size = idx + 1 in
        let abort () = Race.aget best < size in
        if not (abort ()) then
          match search_stratum config o1 o2 arr ~size ~abort with
          | Some e ->
            hits.(size) <- Some e;
            shrink size
          | None -> ());
    let rec first size =
      if size > strata then None
      else match hits.(size) with Some e -> Some e | None -> first (size + 1)
    in
    first 1
  end
  else begin
    let rec go size =
      if size > config.max_experiment_size then None
      else
        match
          search_stratum config o1 o2 arr ~size ~abort:(fun () -> false)
        with
        | Some e -> Some e
        | None -> go (size + 1)
    in
    go 1
  end

let distinguishing_experiment config m1 m2 schemes =
  Obs.span "cegis.distinguish" (fun () ->
      let oracles =
        match (Oracle.create m1, Oracle.create m2) with
        | o1, o2 -> Some (o1, o2)
        | exception Invalid_argument _ -> None
      in
      match oracles with
      | Some (o1, o2) -> distinguishing_memoized config o1 o2 schemes
      | None ->
        let sep =
          Pmi_measure.Harness.Compare.well_separated ~epsilon:config.epsilon
        in
        (match
           iter_experiments schemes ~max_size:config.max_experiment_size
             (fun e ->
                let t1 = modeled_inverse config m1 e in
                let t2 = modeled_inverse config m2 e in
                if sep ~length:(Experiment.length e) t1 t2 then raise (Found e))
         with
         | () -> None
         | exception Found e -> Some e))

let same_mapping specs m1 m2 =
  List.for_all
    (fun (scheme, _) ->
       match (Mapping.find_opt m1 scheme, Mapping.find_opt m2 scheme) with
       | Some a, Some b -> Mapping.equal_usage a b
       | (None | Some _), _ -> false)
    specs

(* State of the persistent findOtherMapping solver: one encoding per specs
   set, kept across CEGIS iterations so learned clauses, variable
   activities and theory lemmas survive.  [synced] counts the pool lemmas
   already present in the solver (both encodings number their variables
   deterministically, so lemmas learned on one transfer verbatim). *)
type other_state = {
  o_encoding : Encoding.t;
  mutable o_synced : int;
}

let sync_lemmas state pool =
  Race.touch_read lemma_loc;
  let sat = Encoding.sat state.o_encoding in
  Vec.iter_from state.o_synced (Pmi_smt.Sat.add_clause sat) pool;
  state.o_synced <- Vec.length pool

(* Incremental findOtherMapping: block_model clauses are only valid for the
   duration of one call (a candidate that cannot be distinguished under the
   current experiment bound must be reconsidered once new observations
   arrive), so each call guards them behind a fresh activation literal that
   is assumed during the call and retired with a unit clause afterwards. *)
let find_other_mapping config state specs observations pool m1 tried_counter =
  Obs.span "cegis.find_other_mapping" @@ fun () ->
  sync_lemmas state pool;
  let encoding = state.o_encoding in
  (* Gate before the per-call activation variable exists: it would read as
     an allocated-but-unconstrained (dead) variable until first assumed. *)
  enclint_gate config ~lemmas:(fun () -> Vec.to_list pool) encoding;
  let sat = Encoding.sat encoding in
  let act = Pmi_smt.Sat.fresh_var sat in
  let assumptions = [ Pmi_smt.Lit.pos act ] in
  let retract = Pmi_smt.Lit.neg_of_var act in
  let check = theory_check config encoding observations pool in
  let schemes = List.map fst specs in
  let rec search budget =
    if budget = 0 then begin
      Log.warn (fun m ->
          m "findOtherMapping: candidate budget exhausted; treating as converged");
      None
    end
    else begin
      match certified_solve config encoding observations ~assumptions ~check () with
      | Solver.Unsat -> None
      | Solver.Sat model ->
        incr tried_counter;
        Obs.incr c_candidates;
        let m2 = Encoding.decode encoding model in
        if same_mapping specs m1 m2 then begin
          Pmi_smt.Sat.add_clause sat
            (retract :: Encoding.block_model encoding model);
          search (budget - 1)
        end
        else begin
          match distinguishing_experiment config m1 m2 schemes with
          | Some e -> Some (m2, e)
          | None ->
            (* Indistinguishable within the experiment bound: block this
               candidate for the remainder of the call (§3.3.4). *)
            Pmi_smt.Sat.add_clause sat
              (retract :: Encoding.block_model encoding model);
            search (budget - 1)
        end
    end
  in
  let result = search config.max_other_candidates in
  (* Retire this call's blocking clauses; lemmas the solver added for us
     during [check] are already in, so fast-forward the sync mark. *)
  Pmi_smt.Sat.add_clause sat [ retract ];
  state.o_synced <- Vec.length pool;
  result

(* Canonical flooding experiments used to validate a converged mapping:
   [c×j, i] and [2c×j, i] for every c-port blocking instruction j and every
   instruction i.  The distinguishing-experiment search only measures what
   separates two {e consistent} mappings, so measurements that refute the
   whole model class (the §4.3 anomalies) can stay unobserved; sweeping the
   canonical experiments before declaring convergence closes that gap. *)
let validation_experiments specs =
  let proper =
    List.filter_map
      (fun (s, spec) ->
         match spec with
         | Encoding.Proper c -> Some (s, c)
         | Encoding.Improper _ -> None)
      specs
  in
  let all = List.map fst specs in
  List.concat_map
    (fun (j, c) ->
       List.concat_map
         (fun i ->
            [ Experiment.add i (Experiment.replicate c j);
              Experiment.add i (Experiment.replicate (2 * c) j) ])
         all)
    proper
  |> List.sort_uniq Experiment.compare

(* Write the current clause set of an encoding's solver to [file] in DIMACS
   format, for offline triage of hard instances. *)
let dump_cnf_file sat file =
  try
    let oc = open_out file in
    Fun.protect
      ~finally:(fun () -> close_out_noerr oc)
      (fun () ->
         let buf = Buffer.create 65536 in
         Pmi_smt.Sat.to_dimacs sat buf;
         Buffer.output_buffer oc buf);
    Log.info (fun m -> m "wrote CNF to %s" file)
  with Sys_error msg ->
    Log.warn (fun m -> m "could not dump CNF: %s" msg)

let explain ?(config = default_config) ~specs ~observations () =
  Obs.span "cegis.explain" @@ fun () ->
  let pool = Vec.create () in
  let obs = Vec.create () in
  List.iter (Vec.push obs) observations;
  let encoding = fresh_encoding config specs pool in
  let result = find_mapping config encoding obs pool in
  (match config.dump_cnf with
   | Some prefix -> dump_cnf_file (Encoding.sat encoding) (prefix ^ "-explain.cnf")
   | None -> ());
  result

let infer ?(config = default_config) ?(warm_start = []) ~measure ~specs () =
  Obs.span "cegis.infer" @@ fun () ->
  let pool = Vec.create () in
  let observations = Vec.create () in
  let episodes_before = Atomic.get episode_count in
  (* Static refutation (MapCheck): the refuter tracks every proper scheme's
     surviving candidate rows.  Refuted rows become clauses in every
     standing encoding ([refutation_targets]) and are replayed into any
     encoding built later ([refuted_log]) — all before those encodings pay
     a SAT episode for rediscovering the contradiction. *)
  let refuter = mapcheck_refuter config specs in
  let refuted_log = ref [] in
  let refutation_targets = ref [] in
  let add_refuted scheme ports =
    refuted_log := (scheme, ports) :: !refuted_log;
    List.iter
      (fun enc ->
         Pmi_smt.Sat.add_clause (Encoding.sat enc)
           (Encoding.refute_row enc scheme ports))
      !refutation_targets
  in
  let register_target enc =
    refutation_targets := enc :: !refutation_targets;
    List.iter
      (fun (scheme, ports) ->
         Pmi_smt.Sat.add_clause (Encoding.sat enc)
           (Encoding.refute_row enc scheme ports))
      (List.rev !refuted_log)
  in
  let record obs =
    Race.touch_write obs_loc;
    Vec.push observations obs;
    (match refuter with
     | None -> ()
     | Some r ->
       let dropped =
         Obs.span "cegis.mapcheck" (fun () ->
             Mapcheck.Refuter.observe r obs.experiment obs.cycles)
       in
       if dropped <> [] then begin
         Obs.add c_mapcheck_refuted (List.length dropped);
         Log.debug (fun m ->
             m "mapcheck: observation %s refutes %d candidate row(s)"
               (Experiment.to_string obs.experiment) (List.length dropped));
         List.iter
           (fun (scheme, usage) ->
              match usage with
              | [ (ports, _) ] -> add_refuted scheme ports
              | _ -> ())
           dropped
       end);
    obs
  in
  let observe experiment =
    let cycles =
      Obs.span "cegis.observe" (fun () -> measure experiment)
    in
    Obs.incr c_observations;
    record { experiment; cycles }
  in
  let already_observed e =
    Vec.exists (fun o -> Experiment.equal o.experiment e) observations
  in
  (* Warm start: replay durable observations from a previous run as if
     they had just been measured — they enter the observation log and the
     MapCheck refuter before any encoding exists, so replayed refutations
     land in every encoding via [register_target].  Observations naming
     schemes outside [specs] (another stage's floods, a retry after a
     culprit removal) are skipped. *)
  (match warm_start with
   | [] -> ()
   | warm ->
     let spec_ids =
       List.fold_left
         (fun acc (s, _) -> IntSet.add (Scheme.id s) acc)
         IntSet.empty specs
     in
     let in_specs e =
       List.for_all
         (fun s -> IntSet.mem (Scheme.id s) spec_ids)
         (Experiment.schemes e)
     in
     let replayed = ref 0 in
     List.iter
       (fun obs ->
          if in_specs obs.experiment && not (already_observed obs.experiment)
          then begin
            incr replayed;
            Obs.incr c_warm_obs;
            ignore (record obs)
          end)
       warm;
     if !replayed > 0 then
       Log.info (fun m ->
           m "warm start: replayed %d stored observation(s)" !replayed));
  List.iter
    (fun (s, _) ->
       let e = Experiment.singleton s in
       let statically_known =
         match refuter with
         | Some r -> Mapcheck.Refuter.statically_determined r e <> None
         | None -> false
       in
       if statically_known then begin
         (* A point interval: under the port-mapping model every candidate
            completion predicts the same value, so the measurement can
            refute nothing.  The convergence-time validation sweep still
            floods every scheme against the live machine. *)
         Obs.incr c_mapcheck_saved;
         Log.debug (fun m ->
             m "mapcheck: %s statically determined; measurement skipped"
               (Experiment.to_string e))
       end
       else if already_observed e then
         (* Warm-started: the durable store already answered this one. *)
         Log.debug (fun m ->
             m "warm start: %s already observed; measurement skipped"
               (Experiment.to_string e))
       else ignore (observe e))
    specs;
  let fm_encoding = fresh_encoding config specs pool in
  register_target fm_encoding;
  let other_state =
    let o_encoding =
      Encoding.create ~num_ports:config.num_ports
        ~symmetry_breaking:config.symmetry_breaking ~certify:config.certify
        specs
    in
    register_target o_encoding;
    { o_encoding; o_synced = 0 }
  in
  let tried = ref 0 in
  let finish mk =
    let sat =
      Pmi_smt.Sat.add_stats
        (Pmi_smt.Sat.stats (Encoding.sat fm_encoding))
        (Pmi_smt.Sat.stats (Encoding.sat other_state.o_encoding))
    in
    Log.info (fun m ->
        m "solver: %d decisions, %d propagations, %d conflicts, %d restarts, \
           %d learned (max glue %d), %d deleted by reduction"
          sat.Pmi_smt.Sat.decisions sat.Pmi_smt.Sat.propagations
          sat.Pmi_smt.Sat.conflicts sat.Pmi_smt.Sat.restarts
          sat.Pmi_smt.Sat.learned sat.Pmi_smt.Sat.max_lbd
          sat.Pmi_smt.Sat.deleted);
    (match config.dump_cnf with
     | Some prefix ->
       dump_cnf_file (Encoding.sat fm_encoding) (prefix ^ "-findmapping.cnf");
       dump_cnf_file
         (Encoding.sat other_state.o_encoding)
         (prefix ^ "-findothermapping.cnf")
     | None -> ());
    mk
      { iterations = 0;
        observations = Vec.to_list observations;
        candidates_tried = !tried;
        theory_lemmas = Vec.length pool;
        sat_episodes = Atomic.get episode_count - episodes_before;
        sat }
  in
  let sweep = Array.of_list (validation_experiments specs) in
  let validate m1 =
    Obs.span ~args:[ ("sweep", Obs.Int (Array.length sweep)) ] "cegis.validate"
    @@ fun () ->
    (* The first sweep experiment the converged mapping fails to explain;
       [None] means the convergence is confirmed.  Only one refutation is
       reported per round so that an UNSAT can be traced to a single
       observation (the §4.3 culprit search depends on that). *)
    let inv, oracle = oracle_fn config m1 in
    let failing e =
      Race.touch_read obs_loc;
      if
        Vec.exists (fun o -> Experiment.equal o.experiment e) observations
      then false
      else begin
        let cycles = measure e in
        not
          (Pmi_measure.Harness.Compare.cpi_equal ~epsilon:config.epsilon
             ~length:(Experiment.length e) (inv e) cycles)
      end
    in
    if config.domains > 1 then begin
      (* Warm the oracle tables before fanning out: the sweep only reads
         shared state afterwards.  [measure] must be thread-safe here. *)
      (match oracle with
       | Some o -> Oracle.prepare o (List.map fst specs)
       | None -> ());
      match Pool.find_first_index ~domains:config.domains failing sweep with
      | Some i -> Some sweep.(i)
      | None -> None
    end
    else Array.find_opt failing sweep
  in
  (* One CEGIS iteration under its own span; [None] means "not settled,
     go around again".  Keeping the iteration body out of the recursion
     makes the spans siblings in the trace — iteration 57 is a peer of
     iteration 1, not buried 56 frames deep. *)
  let step iteration =
    Obs.span
      ~args:[ ("iteration", Obs.Int iteration) ]
      "cegis.iteration"
      (fun () ->
         match find_mapping config fm_encoding observations pool with
         | None ->
           Some
             (finish (fun s ->
                  No_consistent_mapping { s with iterations = iteration }))
         | Some m1 ->
           (match
              find_other_mapping config other_state specs observations pool
                m1 tried
            with
            | None ->
              (match validate m1 with
               | None ->
                 Some
                   (finish (fun s ->
                        Converged (m1, { s with iterations = iteration })))
               | Some failure ->
                 Log.info (fun m ->
                     m "iteration %d: validation experiment %s refutes the \
                        converged mapping" iteration
                       (Experiment.to_string failure));
                 ignore (observe failure);
                 None)
            | Some (_, new_exp) ->
              let obs = observe new_exp in
              Log.info (fun m ->
                  m "iteration %d: new experiment %s measured at %s cycles"
                    iteration
                    (Experiment.to_string new_exp)
                    (Rat.to_string obs.cycles));
              None))
  in
  let rec loop iteration =
    if iteration > config.max_iterations then
      finish (fun s -> Iteration_limit { s with iterations = iteration - 1 })
    else
      match step iteration with
      | Some outcome -> outcome
      | None -> loop (iteration + 1)
  in
  loop 1

(* ------------------------------------------------------------------ *)
(* Delta mode: online incremental re-inference                         *)
(* ------------------------------------------------------------------ *)

(* Batch counters of the streaming path: flushes, schemes per flush,
   retired (changed-scheme) rows, and falls back to full re-inference. *)
let c_delta_batches = Obs.counter "cegis.delta.batches"
let c_delta_schemes = Obs.counter "cegis.delta.schemes"
let c_delta_retired = Obs.counter "cegis.delta.retired_rows"
let c_delta_fallbacks = Obs.counter "cegis.delta.fallbacks"

type delta_outcome =
  | Delta_applied of outcome
  | Delta_fallback of outcome

(* findOtherMapping against a delta encoding: same per-call activation
   discipline as the incremental path, with the session's standing
   assumptions (frozen-row pins + row activation literals) underneath.
   Any second consistent mapping necessarily differs on the delta rows
   only, so a distinguishing experiment always involves a batch scheme. *)
let find_other_mapping_delta config encoding observations pool
    base_assumptions m1 tried_counter =
  Obs.span ~args:[ ("mode", Obs.Str "delta") ] "cegis.find_other_mapping"
  @@ fun () ->
  enclint_gate config
    ~lemmas:(fun () -> Vec.to_list pool)
    ~frozen:base_assumptions
    encoding;
  let sat = Encoding.sat encoding in
  let act = Pmi_smt.Sat.fresh_var sat in
  let assumptions = Pmi_smt.Lit.pos act :: base_assumptions in
  let retract = Pmi_smt.Lit.neg_of_var act in
  let check = theory_check config encoding observations pool in
  let specs = Encoding.schemes encoding in
  let schemes = List.map fst specs in
  let rec search budget =
    if budget = 0 then begin
      Log.warn (fun m ->
          m "findOtherMapping: candidate budget exhausted; treating as converged");
      None
    end
    else begin
      match certified_solve config encoding observations ~assumptions ~check () with
      | Solver.Unsat -> None
      | Solver.Sat model ->
        incr tried_counter;
        Obs.incr c_candidates;
        let m2 = Encoding.decode encoding model in
        if same_mapping specs m1 m2 then begin
          Pmi_smt.Sat.add_clause sat
            (retract :: Encoding.block_model encoding model);
          search (budget - 1)
        end
        else begin
          match distinguishing_experiment config m1 m2 schemes with
          | Some e -> Some (m2, e)
          | None ->
            Pmi_smt.Sat.add_clause sat
              (retract :: Encoding.block_model encoding model);
            search (budget - 1)
        end
    end
  in
  let result = search config.max_other_candidates in
  Pmi_smt.Sat.add_clause sat [ retract ];
  result

(* The delta-scoped convergence sweep: the canonical flooding experiments
   restricted to pairs that involve at least one batch scheme — the
   frozen×frozen pairs were already validated when the base mapping was
   accepted, so re-measuring them would defeat the latency story. *)
let validation_experiments_delta specs batch_schemes =
  let in_batch s = List.exists (Scheme.equal s) batch_schemes in
  validation_experiments specs
  |> List.filter (fun e -> List.exists in_batch (Experiment.schemes e))

module Delta = struct
  type session = {
    d_config : config;
    d_measure : Experiment.t -> Rat.t;
    d_measure_batch : Experiment.t list -> Rat.t list;
    mutable d_encoding : Encoding.t;
    mutable d_mapping : Mapping.t;
    mutable d_observations : observation Vec.t;
    mutable d_pool : Pmi_smt.Lit.t list Vec.t;
    mutable d_pending : (Scheme.t * Encoding.instr_spec) list; (* newest first *)
    mutable d_batches : int;
    mutable d_fallbacks : int;
  }

  let reject_improper = function
    | Encoding.Proper _ -> ()
    | Encoding.Improper _ ->
      invalid_arg
        "Cegis.Delta: improper (store-blocker) schemes are not streamable; \
         run full re-inference"

  (* Delta encodings always disable symmetry breaking: the frozen rows are
     pinned to the accepted mapping as-is, which need not be the
     lex-minimal column representative, so the lex clauses could wrongly
     refute it.  The pins break the port symmetry far more strongly than
     the lex ordering anyway. *)
  let build_encoding config specs =
    let encoding =
      Encoding.create ~num_ports:config.num_ports ~symmetry_breaking:false
        ~certify:config.certify []
    in
    List.iter (fun (s, spec) -> Encoding.append_row encoding s spec) specs;
    encoding

  let start ?(config = default_config) ~measure ?measure_batch ~mapping
      ~specs ?(observations = []) () =
    List.iter (fun (_, spec) -> reject_improper spec) specs;
    List.iter
      (fun (s, _) ->
         if Mapping.find_opt mapping s = None then
           invalid_arg "Cegis.Delta.start: mapping does not cover the specs")
      specs;
    let obs = Vec.create () in
    List.iter (Vec.push obs) observations;
    { d_config = config;
      d_measure = measure;
      d_measure_batch =
        (match measure_batch with
         | Some f -> f
         | None -> fun es -> List.map measure es);
      d_encoding = build_encoding config specs;
      d_mapping = mapping;
      d_observations = obs;
      d_pool = Vec.create ();
      d_pending = [];
      d_batches = 0;
      d_fallbacks = 0 }

  let enqueue session scheme spec =
    reject_improper spec;
    (* Last enqueue wins when a scheme is queued twice before a flush. *)
    session.d_pending <-
      (scheme, spec)
      :: List.filter
           (fun (s, _) -> not (Scheme.equal s scheme))
           session.d_pending

  let pending session = List.length session.d_pending
  let mapping session = session.d_mapping
  let batches session = session.d_batches
  let fallbacks session = session.d_fallbacks

  let empty_stats session =
    { iterations = 0;
      observations = Vec.to_list session.d_observations;
      candidates_tried = 0;
      theory_lemmas = Vec.length session.d_pool;
      sat_episodes = 0;
      sat = Pmi_smt.Sat.stats (Encoding.sat session.d_encoding) }

  let flush session =
    match List.rev session.d_pending with
    | [] -> Delta_applied (Converged (session.d_mapping, empty_stats session))
    | batch ->
      session.d_pending <- [];
      let config = session.d_config in
      let episodes_before = Atomic.get episode_count in
      Obs.span
        ~args:[ ("batch", Obs.Int (List.length batch)) ]
        "cegis.delta"
      @@ fun () ->
      session.d_batches <- session.d_batches + 1;
      Obs.incr c_delta_batches;
      Obs.add c_delta_schemes (List.length batch);
      let encoding = session.d_encoding in
      let batch_schemes = List.map fst batch in
      (* Retire the stale rows of changed schemes — one unit clause each,
         which also deactivates every lemma scoped to them — and drop the
         observations that mention a changed scheme: the measurements that
         motivated the change are presumed stale too.  The accepted mapping
         sheds {e every} batch scheme, changed or merely over-covered by the
         seed mapping, so no freshly appended row can be frozen to a stale
         port usage. *)
      let in_batch s = List.exists (Scheme.equal s) batch_schemes in
      let changed =
        List.filter (fun s -> Encoding.has_scheme encoding s) batch_schemes
      in
      List.iter
        (fun s ->
           Encoding.retire_row encoding s;
           Obs.incr c_delta_retired)
        changed;
      if changed <> [] then begin
        let keep = Vec.create () in
        Race.touch_write obs_loc;
        Vec.iter
          (fun o ->
             let stale =
               List.exists
                 (fun s -> List.exists (Scheme.equal s) changed)
                 (Experiment.schemes o.experiment)
             in
             if not stale then Vec.push keep o)
          session.d_observations;
        session.d_observations <- keep
      end;
      if List.exists in_batch (Mapping.schemes session.d_mapping) then begin
        let m = Mapping.create ~num_ports:config.num_ports in
        List.iter
          (fun s ->
             if not (in_batch s) then
               Mapping.set m s (Mapping.usage session.d_mapping s))
          (Mapping.schemes session.d_mapping);
        session.d_mapping <- m
      end;
      List.iter (fun (s, spec) -> Encoding.append_row encoding s spec) batch;
      (* MapCheck symmetry restoration: delta encodings are built without
         symmetry breaking (frozen rows pin port identities), but any port
         pair whose swap leaves the accepted mapping invariant is still
         interchangeable over the batch rows.  Feed those pairs back as
         ordering facts scoped to the fresh rows. *)
      if config.mapcheck then begin
        let pairs = Mapcheck.interchangeable_ports session.d_mapping in
        List.iter
          (fun (p, q) ->
             Encoding.order_ports ~schemes:batch_schemes encoding p q;
             Obs.incr c_mapcheck_symmetries)
          pairs
      end;
      (* One batched harness sweep over every queued scheme's singleton
         before the solver episode starts, so measurement round-trips
         amortise across the batch.  Under MapCheck, singletons whose
         throughput is statically determined by the model class (point
         interval over all candidate rows) are excluded — the measurement
         could never refute anything. *)
      let refuter = mapcheck_refuter config batch in
      let statically_determined e =
        match refuter with
        | None -> false
        | Some r ->
          (match Mapcheck.Refuter.statically_determined r e with
           | Some _ ->
             Obs.incr c_mapcheck_saved;
             Log.debug (fun m ->
                 m "mapcheck: skipping statically determined %s"
                   (Experiment.to_string e));
             true
           | None -> false)
      in
      let singletons =
        List.filter
          (fun e -> not (statically_determined e))
          (List.map Experiment.singleton batch_schemes)
      in
      let sweep_cycles =
        Obs.span
          ~args:[ ("experiments", Obs.Int (List.length singletons)) ]
          "cegis.delta.sweep"
          (fun () -> session.d_measure_batch singletons)
      in
      Race.touch_write obs_loc;
      List.iter2
        (fun experiment cycles ->
           Obs.incr c_observations;
           Vec.push session.d_observations { experiment; cycles })
        singletons sweep_cycles;
      (* Standing assumptions of every solve in this flush: activation
         literals of all live rows plus the frozen-row pins.  The batch
         rows are live but unmapped, so only their activation literals
         appear — their port sets are exactly what the solve determines. *)
      let assumptions =
        Encoding.row_assumptions encoding
        @ Encoding.freeze_lits encoding session.d_mapping
      in
      let tried = ref 0 in
      let finish iterations =
        { iterations;
          observations = Vec.to_list session.d_observations;
          candidates_tried = !tried;
          theory_lemmas = Vec.length session.d_pool;
          sat_episodes = Atomic.get episode_count - episodes_before;
          sat = Pmi_smt.Sat.stats (Encoding.sat encoding) }
      in
      let observe experiment =
        let cycles =
          Obs.span "cegis.observe" (fun () -> session.d_measure experiment)
        in
        Obs.incr c_observations;
        let obs = { experiment; cycles } in
        Race.touch_write obs_loc;
        Vec.push session.d_observations obs;
        obs
      in
      let find_mapping_assumed () =
        Obs.span "cegis.find_mapping" (fun () ->
            enclint_gate config
              ~lemmas:(fun () -> Vec.to_list session.d_pool)
              ~frozen:assumptions encoding;
            let check =
              theory_check config encoding session.d_observations
                session.d_pool
            in
            match
              certified_solve config encoding session.d_observations
                ~assumptions ~check ()
            with
            | Solver.Sat model -> Some (Encoding.decode encoding model)
            | Solver.Unsat -> None)
      in
      let sweep =
        Array.of_list
          (validation_experiments_delta (Encoding.schemes encoding)
             batch_schemes)
      in
      let validate m1 =
        Obs.span
          ~args:[ ("sweep", Obs.Int (Array.length sweep)) ]
          "cegis.validate"
        @@ fun () ->
        let inv, oracle = oracle_fn config m1 in
        let failing e =
          Race.touch_read obs_loc;
          if
            Vec.exists
              (fun o -> Experiment.equal o.experiment e)
              session.d_observations
          then false
          else begin
            let cycles = session.d_measure e in
            not
              (Pmi_measure.Harness.Compare.cpi_equal ~epsilon:config.epsilon
                 ~length:(Experiment.length e) (inv e) cycles)
          end
        in
        if config.domains > 1 then begin
          (match oracle with
           | Some o ->
             Oracle.prepare o (List.map fst (Encoding.schemes encoding))
           | None -> ());
          match Pool.find_first_index ~domains:config.domains failing sweep with
          | Some i -> Some sweep.(i)
          | None -> None
        end
        else Array.find_opt failing sweep
      in
      (* Falling back: the delta solver proved the batch inconsistent with
         the frozen rows (or a validation failure drove it there), so the
         whole live spec set is re-inferred from scratch and the session
         is rebuilt around the accepted result.  If even the full
         inference fails, the session keeps its pre-flush mapping and the
         batch rows stay live but unaccepted. *)
      let fallback () =
        session.d_fallbacks <- session.d_fallbacks + 1;
        Obs.incr c_delta_fallbacks;
        let specs = Encoding.schemes encoding in
        Log.info (fun m ->
            m "delta batch inconsistent with frozen rows; full re-inference \
               over %d schemes" (List.length specs));
        let outcome = infer ~config ~measure:session.d_measure ~specs () in
        (match outcome with
         | Converged (m, stats) ->
           session.d_encoding <- build_encoding config specs;
           session.d_mapping <- m;
           let obs = Vec.create () in
           List.iter (Vec.push obs) stats.observations;
           session.d_observations <- obs;
           session.d_pool <- Vec.create ()
         | No_consistent_mapping _ | Iteration_limit _ -> ());
        Delta_fallback outcome
      in
      let step iteration =
        Obs.span
          ~args:[ ("iteration", Obs.Int iteration) ]
          "cegis.delta.iteration"
          (fun () ->
             match find_mapping_assumed () with
             | None -> `Fallback
             | Some m1 ->
               (match
                  find_other_mapping_delta config encoding
                    session.d_observations session.d_pool assumptions m1
                    tried
                with
                | None ->
                  (match validate m1 with
                   | None -> `Converged m1
                   | Some failure ->
                     Log.info (fun m ->
                         m "delta iteration %d: validation experiment %s \
                            refutes the converged mapping" iteration
                           (Experiment.to_string failure));
                     ignore (observe failure);
                     `Continue)
                | Some (_, new_exp) ->
                  ignore (observe new_exp);
                  `Continue))
      in
      let rec loop iteration =
        if iteration > config.max_iterations then
          Delta_applied (Iteration_limit (finish (iteration - 1)))
        else
          match step iteration with
          | `Converged m1 ->
            session.d_mapping <- m1;
            Delta_applied (Converged (m1, finish iteration))
          | `Continue -> loop (iteration + 1)
          | `Fallback -> fallback ()
      in
      loop 1
end

let infer_delta ?config ~measure ?measure_batch ~mapping ~specs
    ?observations ~updates () =
  let session =
    Delta.start ?config ~measure ?measure_batch ~mapping ~specs
      ?observations ()
  in
  List.iter (fun (s, spec) -> Delta.enqueue session s spec) updates;
  Delta.flush session
