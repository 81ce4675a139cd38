module Rat = Pmi_numeric.Rat
module Scheme = Pmi_isa.Scheme
module Experiment = Pmi_portmap.Experiment
module Mapping = Pmi_portmap.Mapping
module Throughput = Pmi_portmap.Throughput
module Oracle = Pmi_portmap.Oracle
module Solver = Pmi_smt.Solver
module Obs = Pmi_obs.Obs

(* Telemetry counters: the CEGIS-level tallies a [--metrics] run reports
   next to the per-iteration spans.  All process-wide; [stats] keeps the
   per-run numbers. *)
let c_lemmas = Obs.counter "cegis.theory_lemmas"
let c_certificates = Obs.counter "cegis.certificates_checked"
let c_candidates = Obs.counter "cegis.candidates_tried"
let c_observations = Obs.counter "cegis.observations"
let c_sat_episodes = Obs.counter "cegis.sat_episodes"
let c_cert_cached = Obs.counter "cegis.certificates_cached"
let c_distinguish_memo = Obs.counter "cegis.distinguish.memo_hits"

(* Process-wide episode tally; per-run numbers are snapshots around one
   inference (the repo never runs two inferences concurrently). *)
let episode_count = Atomic.make 0

let log = Logs.Src.create "pmi.cegis" ~doc:"counter-example-guided inference"

module Log = (val Logs.src_log log : Logs.LOG)

type config = {
  num_ports : int;
  r_max : int;
  epsilon : Rat.t;
  max_experiment_size : int;
  max_other_candidates : int;
  max_iterations : int;
  certify : bool;
  store : Pmi_store.Store.t option;
}

exception Certification_failure of string

let default_config =
  { num_ports = 10;
    r_max = 5;
    epsilon = Rat.of_ints 2 100;
    max_experiment_size = 5;
    max_other_candidates = 400;
    max_iterations = 400;
    certify = false;
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

(* Does the oracle explain a measured value within ε·|e|?  The modeled
   (num, den) is compared on native ints; a measurement whose parts do not
   fit one falls back to the exact-rational test. *)
let explains config o experiment cycles =
  let length = Experiment.length experiment in
  let modeled = Oracle.inverse_bounded_frac ~r_max:config.r_max o experiment in
  match
    ( Pmi_numeric.Bigint.to_int_opt (Rat.num cycles),
      Pmi_numeric.Bigint.to_int_opt (Rat.den cycles) )
  with
  | Some n, Some d ->
    Pmi_measure.Harness.Compare.cpi_equal_frac ~epsilon:config.epsilon
      ~length modeled (n, d)
  | _ ->
    Pmi_measure.Harness.Compare.cpi_equal ~epsilon:config.epsilon ~length
      (Rat.of_ints (fst modeled) (snd modeled))
      cycles

let consistent config mapping obs =
  let modeled = modeled_inverse config mapping obs.experiment in
  Pmi_measure.Harness.Compare.cpi_equal ~epsilon:config.epsilon
    ~length:(Experiment.length obs.experiment) modeled obs.cycles

(* The two lemma shapes of the theory check.  [Footprint] refutes the
   violated experiment's rows exactly as the model assigns them; it is what
   Algorithm 2 ([infer]) learns from, and its trajectory (experiment count,
   inferred mapping) is pinned by the golden test.  [Bottleneck] refutes
   every mapping that keeps the model's bottleneck shape (§2.2) and is used
   where only the SAT/UNSAT verdict is read: [explain]. *)
type lemma_shape = Footprint | Bottleneck

let lemma config shape encoding o model obs =
  let schemes = Experiment.schemes obs.experiment in
  match shape with
  | Footprint -> Encoding.block_footprint encoding model schemes
  | Bottleneck ->
    let modeled = Oracle.inverse_bounded ~r_max:config.r_max o obs.experiment in
    let violation =
      if Rat.compare modeled obs.cycles > 0 then
        Encoding.Too_slow (Oracle.bottleneck_set o obs.experiment)
      else Encoding.Too_fast
    in
    Encoding.block_bottleneck encoding model schemes violation

(* Theory check: decode the SAT model, evaluate every observation, and
   learn a lemma of the given shape for each violated one.  Lemmas are
   collected in [pool] so that later encodings (deterministic variable
   numbering) can be seeded with everything already learned. *)
let theory_check config ~shape encoding observations pool model =
  let o = Oracle.create (Encoding.decode encoding model) in
  let lemmas = ref [] in
  Vec.iter
    (fun obs ->
       if not (explains config o obs.experiment obs.cycles) then
         lemmas := lemma config shape encoding o model obs :: !lemmas)
    observations;
  let lemmas = List.rev !lemmas in
  Obs.add c_lemmas (List.length lemmas);
  List.iter (Vec.push pool) lemmas;
  lemmas

let fresh_encoding config specs pool =
  let encoding =
    Encoding.create ~num_ports:config.num_ports ~certify:config.certify specs
  in
  Vec.iter (Pmi_smt.Sat.add_clause (Encoding.sat encoding)) pool;
  encoding

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
      (match Pmi_store.Store.get store ~key with
       | Some stored when String.equal stored digest ->
         Obs.incr c_cert_cached;
         Log.debug (fun m ->
             m "UNSAT certificate found in store; re-check skipped")
       | _ ->
         run_checker ();
         Pmi_store.Store.put store ~key digest)
  end

(* A SAT verdict is certified against the axioms, not the solver: the model
   must satisfy every input clause of the trace (problem CNF, cardinality
   chains, theory lemmas), and the decoded mapping must explain every
   observation under the naive exact-rational oracle — deliberately not the
   sparse native-int path the search itself uses. *)
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

(* Every solver verdict the CEGIS loop consumes flows through here, so
   each one is certified when the knob is on. *)
let certified_solve config encoding observations ?assumptions ~check () =
  let sat = Encoding.sat encoding in
  Atomic.incr episode_count;
  Obs.incr c_sat_episodes;
  let verdict = Solver.solve ?assumptions ~check sat in
  (match verdict with
   | Solver.Unsat -> certify_unsat config ?assumptions sat
   | Solver.Sat model -> certify_sat config encoding observations model);
  verdict

let find_mapping config ~shape encoding observations pool =
  Obs.span "cegis.find_mapping" (fun () ->
      let check = theory_check config ~shape encoding observations pool in
      match certified_solve config encoding observations ~check () with
      | Solver.Sat model -> Some (Encoding.decode encoding model)
      | Solver.Unsat -> None)

exception Found_counts of (Scheme.t * int) list

(* One size stratum of the distinguishing-experiment search (§3.3.4):
   every multiset of [size] instructions over the given schemes, in a
   fixed order (scheme by scheme, each taking 1 up to the remaining budget
   of copies), so the first hit is deterministic.  The walk keeps one
   oracle accumulator per mapping: entering/leaving a recursion level is a
   ±one-scheme mass delta, and each leaf runs the sparse kernel once per
   mapping. *)
let search_stratum config o1 o2 schemes ~size =
  let sep =
    Pmi_measure.Harness.Compare.well_separated_frac ~epsilon:config.epsilon
  in
  let a1 = Oracle.Acc.create o1 and a2 = Oracle.Acc.create o2 in
  let n = Array.length schemes in
  let rec fill size start acc =
    if size = 0 then begin
      let length = Oracle.Acc.length a1 in
      let t1 = Oracle.Acc.inverse_bounded_frac ~r_max:config.r_max a1 in
      let t2 = Oracle.Acc.inverse_bounded_frac ~r_max:config.r_max a2 in
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

(* Smallest stratum first, so the experiment found is a smallest one. *)
let distinguishing_experiment config m1 m2 schemes =
  Obs.span "cegis.distinguish" @@ fun () ->
  let o1 = Oracle.create m1 and o2 = Oracle.create m2 in
  let arr = Array.of_list schemes in
  let rec go size =
    if size > config.max_experiment_size then None
    else
      match search_stratum config o1 o2 arr ~size with
      | Some e -> Some e
      | None -> go (size + 1)
  in
  go 1

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
   deterministically, so lemmas learned on one transfer verbatim).
   [inseparable] holds the {!pair_key}s of the (m1, m2) pairs whose
   distinguishing search came back empty: the search is a pure function of
   the config, the two mappings and the spec schemes, so a repeat of the
   pair needs no second search. *)
type other_state = {
  o_encoding : Encoding.t;
  mutable o_synced : int;
  o_inseparable : (string, unit) Hashtbl.t;
}

(* The rows of [m1] and [m2] over the spec schemes, as one string. *)
let pair_key schemes m1 m2 =
  let rows m =
    List.map
      (fun s ->
         match Mapping.find_opt m s with
         | Some usage -> Mapping.usage_to_string usage
         | None -> "-")
      schemes
  in
  String.concat ";" (rows m1 @ ("|" :: rows m2))

let sync_lemmas state pool =
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
  let sat = Encoding.sat encoding in
  let act = Pmi_smt.Sat.fresh_var sat in
  let assumptions = [ Pmi_smt.Lit.pos act ] in
  let retract = Pmi_smt.Lit.neg_of_var act in
  let check = theory_check config ~shape:Footprint encoding observations pool in
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
          let key = pair_key schemes m1 m2 in
          let found =
            if Hashtbl.mem state.o_inseparable key then begin
              Obs.incr c_distinguish_memo;
              None
            end
            else begin
              let found = distinguishing_experiment config m1 m2 schemes in
              if Option.is_none found then
                Hashtbl.replace state.o_inseparable key ();
              found
            end
          in
          match found with
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

let explain ?(config = default_config) ~specs ~observations () =
  Obs.span "cegis.explain" @@ fun () ->
  let pool = Vec.create () in
  let obs = Vec.create () in
  List.iter (Vec.push obs) observations;
  let encoding = fresh_encoding config specs pool in
  find_mapping config ~shape:Bottleneck encoding obs pool

let infer ?(config = default_config) ~measure ~specs () =
  Obs.span "cegis.infer" @@ fun () ->
  let pool = Vec.create () in
  let observations = Vec.create () in
  let episodes_before = Atomic.get episode_count in
  let observe experiment =
    let cycles =
      Obs.span "cegis.observe" (fun () -> measure experiment)
    in
    Obs.incr c_observations;
    let obs = { experiment; cycles } in
    Vec.push observations obs;
    obs
  in
  List.iter (fun (s, _) -> ignore (observe (Experiment.singleton s))) specs;
  let fm_encoding = fresh_encoding config specs pool in
  let other_state =
    let o_encoding =
      Encoding.create ~num_ports:config.num_ports ~certify:config.certify specs
    in
    { o_encoding; o_synced = 0; o_inseparable = Hashtbl.create 16 }
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
       reported per round, so an UNSAT the §4.3 culprit search sees
       follows from a single new observation. *)
    let oracle = Oracle.create m1 in
    let failing e =
      if
        Vec.exists (fun o -> Experiment.equal o.experiment e) observations
      then false
      else not (explains config oracle e (measure e))
    in
    Array.find_opt failing sweep
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
         match
           find_mapping config ~shape:Footprint fm_encoding observations pool
         with
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
