module Rat = Pmi_numeric.Rat
module Scheme = Pmi_isa.Scheme
module Experiment = Pmi_portmap.Experiment
module Mapping = Pmi_portmap.Mapping
module Throughput = Pmi_portmap.Throughput
module Oracle = Pmi_portmap.Oracle
module Solver = Pmi_smt.Solver
module Obs = Pmi_obs.Obs
module Compare = Pmi_measure.Harness.Compare

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
let c_distinguish_leaves = Obs.counter "cegis.distinguish.leaves"
let c_distinguish_kernels = Obs.counter "cegis.distinguish.kernels"
let c_distinguish_relabeled = Obs.counter "cegis.distinguish.relabeled"

(* Process-wide episode tally; per-run numbers are snapshots around one
   inference (the repo never runs two inferences concurrently). *)
let episode_count = Atomic.make 0

let log = Logs.Src.create "pmi.cegis" ~doc:"counter-example-guided inference"

module Log = (val Logs.src_log log : Logs.LOG)

type config = {
  num_ports : int;
  r_max : int;
  max_experiment_size : int;
  certify : bool;
  store : Pmi_store.Store.t option;
}

exception Certification_failure of string

let default_config =
  { num_ports = 10;
    r_max = 5;
    max_experiment_size = 5;
    certify = false;
    store = None }

(* Consistent-mapping candidates one [find_other_mapping] call examines
   before it declares convergence, and the Algorithm-2 iteration budget. *)
let max_other_candidates = 400
let max_iterations = 400

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

(* An observation as the theory check reads it, worked out once when it is
   measured: the experiment's length, and the cycles as a native
   (num, den) when both parts fit an int. *)
type measured = {
  obs : observation;
  length : int;
  frac : (int * int) option;
}

let measured obs =
  let frac =
    match
      ( Pmi_numeric.Bigint.to_int_opt (Rat.num obs.cycles),
        Pmi_numeric.Bigint.to_int_opt (Rat.den obs.cycles) )
    with
    | Some n, Some d -> Some (n, d)
    | _ -> None
  in
  { obs; length = Experiment.length obs.experiment; frac }

(* Does the oracle explain a measured value within ε·|e|, with ε
   [Compare.default_epsilon]?  The modeled (num, den) is compared on
   native ints; a measurement whose parts do not fit one falls back to
   the exact-rational test. *)
let explains config o m =
  let modeled =
    Oracle.inverse_bounded_frac ~r_max:config.r_max o m.obs.experiment
  in
  match m.frac with
  | Some frac -> Compare.cpi_equal_frac ~length:m.length modeled frac
  | None ->
    Compare.cpi_equal ~length:m.length
      (Rat.of_ints (fst modeled) (snd modeled))
      m.obs.cycles

let consistent config mapping obs =
  let modeled = modeled_inverse config mapping obs.experiment in
  Compare.cpi_equal ~length:(Experiment.length obs.experiment) modeled
    obs.cycles

(* The lemma of a violated observation: refute every mapping that keeps
   the model's bottleneck shape (§2.2), not only the model's own rows. *)
let lemma config encoding o model obs =
  let modeled = Oracle.inverse_bounded ~r_max:config.r_max o obs.experiment in
  let violation =
    if Rat.compare modeled obs.cycles > 0 then
      Encoding.Too_slow (Oracle.bottleneck_set o obs.experiment)
    else Encoding.Too_fast
  in
  Encoding.block_bottleneck encoding model
    (Experiment.schemes obs.experiment) violation

(* The theory check of one encoding, kept across all of its solves.  An
   observation's verdict is a pure function of the rows of its schemes, so
   it is re-evaluated only when one of those rows changed since the check
   that last evaluated it; every other observation keeps its verdict.
   Checks are numbered, and each row carries the number of the check at
   which its decoded rows last changed.  The lemmas are those a check from
   scratch learns, in the same order.  The mapping is decoded in place,
   changed rows only. *)
type verdict = {
  rows : int array;
  mutable explained : bool;
  mutable at : int;              (* the check that evaluated it; -1 before *)
}

type theory = {
  encoding : Encoding.t;
  decoder : Encoding.decoder;
  oracle : Oracle.t;             (* over the decoder's mapping *)
  verdicts : verdict Vec.t;      (* one per observation tracked so far *)
  changed_at : int array;        (* per row, the check it last changed at *)
  mutable checks : int;
}

let theory encoding =
  let decoder = Encoding.decoder encoding in
  { encoding; decoder;
    oracle = Oracle.create (Encoding.decoded decoder);
    verdicts = Vec.create ();
    changed_at = Array.make (List.length (Encoding.schemes encoding)) 0;
    checks = 0 }

(* Give the next observation a verdict slot. *)
let track th m =
  let rows =
    Experiment.schemes m.obs.experiment
    |> List.filter_map (fun s ->
        let r = Encoding.row_index th.encoding s in
        if r >= 0 then Some r else None)
    |> Array.of_list
  in
  Vec.push th.verdicts { rows; explained = false; at = -1 }

(* Start a check: decode the model and stamp the rows it changed. *)
let decode_model th model =
  th.checks <- th.checks + 1;
  Array.iteri
    (fun r changed -> if changed then th.changed_at.(r) <- th.checks)
    (Encoding.redecode th.decoder model)

(* Does the decoded mapping explain tracked observation [i]? *)
let evaluate config th i m =
  let v = Vec.get th.verdicts i in
  if v.at < 0 || Array.exists (fun r -> th.changed_at.(r) > v.at) v.rows
  then begin
    v.explained <- explains config th.oracle m;
    v.at <- th.checks
  end;
  v.explained

(* Theory check: decode the SAT model, evaluate the observations, and learn
   a lemma for each violated one.  Lemmas are also collected in [pool],
   from which {!sync_lemmas} copies them into the findOtherMapping
   encoding (both number their variables alike). *)
let theory_check config th observations pool model =
  decode_model th model;
  let lemmas = ref [] in
  for i = 0 to Vec.length observations - 1 do
    let m = Vec.get observations i in
    if i = Vec.length th.verdicts then track th m;
    if not (evaluate config th i m) then
      lemmas :=
        lemma config th.encoding th.oracle model m.obs :: !lemmas
  done;
  let lemmas = List.rev !lemmas in
  Obs.add c_lemmas (List.length lemmas);
  List.iter (Vec.push pool) lemmas;
  lemmas

let theory_rounds ?(config = default_config) encoding steps =
  let th = theory encoding in
  let pool = Vec.create () in
  let observations = Vec.create () in
  List.map
    (fun (obs, model) ->
       List.iteri
         (fun i o ->
            if i >= Vec.length observations then
              Vec.push observations (measured o))
         obs;
       theory_check config th observations pool model)
    steps

let fresh_encoding config specs =
  Encoding.create ~num_ports:config.num_ports ~certify:config.certify specs

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
      (fun { obs; _ } ->
         let modeled = modeled_inverse config mapping obs.experiment in
         if
           not
             (Compare.cpi_equal ~length:(Experiment.length obs.experiment)
                modeled obs.cycles)
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

(* A model consistent with every observation, if there is one. *)
let find_mapping config th observations pool =
  Obs.span "cegis.find_mapping" (fun () ->
      let check = theory_check config th observations pool in
      match certified_solve config th.encoding observations ~check () with
      | Solver.Sat model -> Some model
      | Solver.Unsat -> None)

(* The canonical consistent mapping: over the [m\[u,k\]] variables in
   row order and ascending port order, each one true whenever some mapping
   consistent with every observation and with the choices before it has it
   true.  That is a function of the observations alone, not of the solver's
   learned clauses or model order.  [model] is a consistent model to start
   from.  A variable the current model already sets true is fixed without
   a solve, and so is an own-µop variable once the prefix holds that µop's
   port count of true literals: the exactly-c constraint forces it false,
   and the model always agrees with the prefix.  Otherwise one
   theory-checked solve under the fixed prefix plus the variable decides
   it. *)
let canonical_model config th observations pool model =
  Obs.span "cegis.canonical" @@ fun () ->
  let check = theory_check config th observations pool in
  let vars = Encoding.mapping_vars th.encoding in
  let ports = Encoding.num_ports th.encoding in
  let model = ref model and fixed = ref [] and next = ref 0 in
  (* Fix the next variable of [vars]; [full] says its µop's port count is
     already met.  Returns whether it was fixed true. *)
  let fix ~full =
    let v = vars.(!next) in
    incr next;
    let value =
      if full then false
      else if !model.(v) then true
      else
        let assumptions = List.rev (Pmi_smt.Lit.pos v :: !fixed) in
        match
          certified_solve config th.encoding observations ~assumptions ~check
            ()
        with
        | Solver.Sat m ->
          model := m;
          true
        | Solver.Unsat -> false
    in
    fixed := Pmi_smt.Lit.make v value :: !fixed;
    value
  in
  List.iter
    (fun (_, spec) ->
       let own, shared =
         match spec with
         | Encoding.Proper c -> (c, false)
         | Encoding.Improper { own_ports } -> (own_ports, true)
       in
       let trues = ref 0 in
       for _ = 1 to ports do
         if fix ~full:(!trues = own) then incr trues
       done;
       if shared then
         for _ = 1 to ports do
           ignore (fix ~full:false)
         done)
    (Encoding.schemes th.encoding);
  !model

(* The distinguishing-experiment search (§3.3.4): every multiset of 1 up
   to [max_experiment_size] instructions over the spec schemes, smallest
   size first and within a size in a fixed order (scheme by scheme, each
   taking 1 up to the remaining budget of copies), for the first one whose
   bounded throughputs under m1 and m2 are well separated.  The first hit
   is deterministic, so it is a smallest experiment.

   Two things keep the walk cheap without moving that hit:
   - Bottleneck-set throughput does not change when ports are renamed.
     Each [find] builds a port bijection π greedily, scheme by scheme,
     under which as many schemes as it can have m2's row equal to π of
     m1's; π is the identity unless it agrees on more schemes than the
     identity does.  A leaf made of agreeing schemes only has m2's mass
     profile equal to π of m1's, so equal throughputs, and cannot separate
     the two.  The walk counts the disagreeing schemes chosen so far and
     skips a subtree as soon as none is chosen and none remains.
   - Leaves are numbered in walk order across the strata (a skipped
     subtree advances the ordinal by its leaf count), so an ordinal fixes
     the leaf's schemes and copies.  Rows are interned to small ids, once
     per search, and a leaf's key under a mapping packs the ids of its
     schemes' rows.  Each ordinal has one slot per side (m1, m2) holding
     the last key evaluated there with its value.  A slot is checked
     against the key and never cleared, so values carry over to later
     candidates and reference mappings with the same rows.  A miss
     rebuilds the profile from the leaf's rows on one accumulator. *)
module Distinguish = struct
  (* A partial port renaming π: the ports of [from.(c)] go onto the ports
     of [onto.(c)], for the [k] classes c, which partition every port.
     Constraints π(A) = B can all be met exactly when each class meets A
     and B in equally many ports, that is when the ports' membership
     vectors over the A's and over the B's are equal multisets;
     [refine] splits every class by one more constraint. *)
  type renaming = { from : int array; onto : int array; mutable k : int }

  (* The reference mapping m1: its rows, their ids, and the order in
     which π tries the schemes, fewest ports first (small port sets pin π
     down soonest, so a row that no renaming explains is less likely to
     steer π away from the rest). *)
  type reference = {
    rows : Mapping.row array;
    ids : int array;
    order : int array;
  }

  type t = {
    config : config;
    schemes : Scheme.t array;
    counts : int array array;   (* [counts.(m).(size)]: multisets of
                                   exactly [size] over [m] schemes *)
    offsets : int array;        (* ordinal of each stratum's first leaf *)
    bits : int;                 (* bits of one row id in a key *)
    ids : (int array * int array, int) Hashtbl.t;
                                (* interned rows' masks and counts, ids
                                   from 1 *)
    mutable slots : int array;  (* [2·ord + side]: [key lsl 16 lor value],
                                   0 when empty *)
    renaming : renaming;
    agrees : bool array;        (* the scheme's m2 row is π of its m1 row *)
    remains : bool array;       (* some scheme at index >= i disagrees *)
    picked : int array;         (* the leaf's schemes, by index, *)
    copies : int array;         (* and their copy counts *)
    acc : Oracle.Acc.t;
    mutable m1 : reference option;
  }

  exception Found

  (* Past this many leaves, the larger strata go without slots. *)
  let cap = 1 lsl 18

  (* Every port a row can name (bits 0 to 61). *)
  let all_ports = max_int

  let create config schemes =
    let schemes = Array.of_list schemes in
    let n = Array.length schemes and top = max 0 config.max_experiment_size in
    (* C(m + size - 1, size), by Pascal's rule on (m, size). *)
    let counts = Array.make_matrix (n + 1) (top + 1) 0 in
    for m = 0 to n do
      counts.(m).(0) <- 1;
      if m > 0 then
        for size = 1 to top do
          counts.(m).(size) <- counts.(m - 1).(size) + counts.(m).(size - 1)
        done
    done;
    let offsets = Array.make (top + 2) 0 in
    for size = 1 to top do
      offsets.(size + 1) <- offsets.(size) + counts.(n).(size)
    done;
    let classes = Sys.int_size - 1 in
    { config; schemes; counts; offsets;
      (* A key of [top] ids and a 16-bit value fill at most 62 bits. *)
      bits = 46 / max 1 top;
      ids = Hashtbl.create 64; slots = [||];
      renaming =
        { from = Array.make classes 0; onto = Array.make classes 0; k = 0 };
      agrees = Array.make n false; remains = Array.make (n + 1) false;
      picked = Array.make top 0; copies = Array.make top 0;
      acc = Oracle.Acc.create (); m1 = None }

  (* A value packs as [num lsl 6 lor den]; 0, an empty slot, stands for
     one too large to pack, which is then recomputed at every visit. *)
  let pack (num, den) =
    if num >= 0 && num < 1024 && den > 0 && den < 64 then (num lsl 6) lor den
    else 0

  let unpack packed = (packed lsr 6, packed land 63)

  let row m s =
    try Mapping.row m s with Not_found -> raise (Throughput.Unsupported s)

  (* The row's id, or 0 once the ids a key can hold run out. *)
  let intern t (r : Mapping.row) =
    let content = (r.masks, r.counts) in
    match Hashtbl.find_opt t.ids content with
    | Some id -> id
    | None ->
      let id = Hashtbl.length t.ids + 1 in
      if id >= 1 lsl t.bits then 0
      else begin
        Hashtbl.add t.ids content id;
        id
      end

  let popcount x =
    let x = x - ((x lsr 1) land 0x1555555555555555) in
    let x = (x land 0x3333333333333333) + ((x lsr 2) land 0x3333333333333333) in
    let x = (x + (x lsr 4)) land 0x0f0f0f0f0f0f0f0f in
    let x = x + (x lsr 8) in
    let x = x + (x lsr 16) in
    (x + (x lsr 32)) land 0x7f

  (* Add the constraint π(a) = b; false when π can no longer meet it, in
     which case [pi] is left part-refined. *)
  let refine pi a b =
    let ok = ref true and c = ref 0 and k = pi.k in
    while !ok && !c < k do
      let f = pi.from.(!c) and o = pi.onto.(!c) in
      let fa = f land a and ob = o land b in
      if popcount fa <> popcount ob then ok := false
      else if fa <> 0 && fa <> f then begin
        pi.from.(!c) <- fa;
        pi.onto.(!c) <- ob;
        pi.from.(pi.k) <- f land lnot a;
        pi.onto.(pi.k) <- o land lnot b;
        pi.k <- pi.k + 1
      end;
      incr c
    done;
    !ok

  (* Refine [pi] so that it renames r1 into r2, if it can: r1's µops
     [j..] are paired in turn with unused µops of r2 of the same count,
     backtracking over the choices.  On failure [pi] is as it was. *)
  let rec renames pi (r1 : Mapping.row) (r2 : Mapping.row) used j =
    j = Array.length r1.masks
    || begin
      let k = pi.k in
      let from = Array.sub pi.from 0 k and onto = Array.sub pi.onto 0 k in
      let pairs i =
        (not used.(i))
        && r1.counts.(j) = r2.counts.(i)
        && begin
          used.(i) <- true;
          let ok =
            refine pi r1.masks.(j) r2.masks.(i)
            && renames pi r1 r2 used (j + 1)
          in
          if not ok then begin
            used.(i) <- false;
            Array.blit from 0 pi.from 0 k;
            Array.blit onto 0 pi.onto 0 k;
            pi.k <- k
          end;
          ok
        end
      in
      let rec any i = i < Array.length r2.masks && (pairs i || any (i + 1)) in
      any 0
    end

  let start t m1 =
    let rows = Array.map (row m1) t.schemes in
    let weight (r : Mapping.row) =
      Array.fold_left (fun w mask -> w + popcount mask) 0 r.masks
    in
    let order = Array.init (Array.length rows) Fun.id in
    Array.stable_sort
      (fun a b -> compare (weight rows.(a)) (weight rows.(b)))
      order;
    t.m1 <- Some { rows; ids = Array.map (intern t) rows; order }

  (* Fill [agrees] for the greedy π, or for the identity when π agrees
     on no more schemes than it; true for π. *)
  let relabel t { rows = rows1; order; _ } rows2 =
    let same (r1 : Mapping.row) (r2 : Mapping.row) =
      r1 == r2 || (r1.masks = r2.masks && r1.counts = r2.counts)
    in
    let n = Array.length rows1 in
    let identity = ref 0 in
    for i = 0 to n - 1 do
      if same rows1.(i) rows2.(i) then incr identity
    done;
    let renamed = ref 0 in
    if !identity < n then begin
      let pi = t.renaming in
      pi.from.(0) <- all_ports;
      pi.onto.(0) <- all_ports;
      pi.k <- 1;
      Array.iter
        (fun i ->
           let r1 = rows1.(i) and r2 = rows2.(i) in
           let len = Array.length r1.masks in
           t.agrees.(i) <-
             len = Array.length r2.masks
             && renames pi r1 r2 (Array.make len false) 0;
           if t.agrees.(i) then incr renamed)
        order
    end;
    !renamed > !identity
    || begin
      for i = 0 to n - 1 do
        t.agrees.(i) <- same rows1.(i) rows2.(i)
      done;
      false
    end

  let reference t =
    match t.m1 with
    | Some m1 -> m1
    | None -> invalid_arg "Cegis.Distinguish.find"

  let agreeing t m2 =
    ignore (relabel t (reference t) (Array.map (row m2) t.schemes));
    List.filteri (fun i _ -> t.agrees.(i)) (Array.to_list t.schemes)

  let find t m2 =
    Obs.span "cegis.distinguish" @@ fun () ->
    let m1 = reference t in
    let rows1 = m1.rows and ids1 = m1.ids in
    let n = Array.length t.schemes and r_max = t.config.r_max in
    let rows2 = Array.map (row m2) t.schemes in
    let ids2 = Array.map (intern t) rows2 in
    if relabel t m1 rows2 then Obs.incr c_distinguish_relabeled;
    for i = n - 1 downto 0 do
      t.remains.(i) <- (not t.agrees.(i)) || t.remains.(i + 1)
    done;
    if Array.length t.slots = 0 then begin
      let leaves = t.offsets.(Array.length t.offsets - 1) in
      t.slots <- Array.make (2 * min leaves cap) 0
    end;
    let ord = ref 0 and depth = ref 0 in
    let leaves = ref 0 and kernels = ref 0 in
    (* The leaf's value under the rows whose key is [key] (-1 when the key
       does not pack), from the [side]'s slot when it holds that key. *)
    let value rows side key =
      let i = (2 * !ord) + side in
      let slotted = key > 0 && i < Array.length t.slots in
      let slot = if slotted then t.slots.(i) else 0 in
      if slotted && slot lsr 16 = key then unpack (slot land 0xffff)
      else begin
        Oracle.Acc.reset t.acc;
        for d = 0 to !depth - 1 do
          Oracle.Acc.add_row t.acc rows.(t.picked.(d)) t.copies.(d)
        done;
        incr kernels;
        let v = Oracle.Acc.inverse_bounded_frac ~r_max t.acc in
        let packed = pack v in
        if slotted && packed <> 0 then t.slots.(i) <- (key lsl 16) lor packed;
        v
      end
    in
    let extend key id =
      if key < 0 || id = 0 then -1 else (key lsl t.bits) lor id
    in
    (* [rem] instructions still to place on schemes [start..]; [differing]
       of the schemes chosen so far disagree; [key1] and [key2] are the
       chosen rows' keys under m1 and m2. *)
    let rec fill size rem start differing key1 key2 =
      if rem = 0 then begin
        if differing > 0 then begin
          incr leaves;
          let t1 = value rows1 0 key1 in
          let t2 = value rows2 1 key2 in
          if Compare.well_separated_frac ~length:size t1 t2
          then raise_notrace Found
        end;
        incr ord
      end
      else begin
        let i = ref start in
        while !i < n do
          let s = !i in
          if differing = 0 && not t.remains.(s) then begin
            ord := !ord + t.counts.(n - s).(rem);
            i := n
          end
          else begin
            let differing' =
              if t.agrees.(s) then differing else differing + 1
            in
            let key1' = extend key1 ids1.(s)
            and key2' = extend key2 ids2.(s) in
            t.picked.(!depth) <- s;
            incr depth;
            for c = 1 to rem do
              t.copies.(!depth - 1) <- c;
              fill size (rem - c) (s + 1) differing' key1' key2'
            done;
            decr depth;
            incr i
          end
        done
      end
    in
    let rec stratum size =
      if size > t.config.max_experiment_size then None
      else begin
        ord := t.offsets.(size);
        match fill size size 0 0 0 0 with
        | () -> stratum (size + 1)
        | exception Found ->
          Some
            (Experiment.of_counts
               (List.init !depth (fun d ->
                    (t.schemes.(t.picked.(d)), t.copies.(d)))))
      end
    in
    let found = stratum 1 in
    Obs.add c_distinguish_leaves !leaves;
    Obs.add c_distinguish_kernels !kernels;
    found
end

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
   pair needs no second search.  [o_search] is the one search state, with
   its kept leaf values, that every call shares. *)
type other_state = {
  o_theory : theory;
  mutable o_synced : int;
  o_inseparable : (string, unit) Hashtbl.t;
  o_search : Distinguish.t;
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
  let sat = Encoding.sat state.o_theory.encoding in
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
  let th = state.o_theory in
  let encoding = th.encoding in
  let sat = Encoding.sat encoding in
  let act = Pmi_smt.Sat.fresh_var sat in
  let assumptions = [ Pmi_smt.Lit.pos act ] in
  let retract = Pmi_smt.Lit.neg_of_var act in
  let check = theory_check config th observations pool in
  let schemes = List.map fst specs in
  Distinguish.start state.o_search m1;
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
              let found = Distinguish.find state.o_search m2 in
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
  let result = search max_other_candidates in
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

(* A cold theory state over [specs] and [observations]: a fresh encoding,
   no lemmas. *)
let cold config specs observations =
  let pool = Vec.create () in
  let obs = Vec.create () in
  List.iter (fun o -> Vec.push obs (measured o)) observations;
  (theory (fresh_encoding config specs), obs, pool)

(* A probe session: one guarded encoding over a round's specs answers
   every "does some mapping over these rows explain these observations?"
   question as one solve under assumptions (see {!Encoding.activation}).
   Each distinct observation, keyed by its experiment and cycles, gets an
   activation variable and a verdict slot when it first appears; a lemma
   learned for it is guarded by that variable, so it binds only the
   questions that switch the observation on.  The encoding is built by the
   first question. *)
module Session = struct
  type state = {
    th : theory;
    interned : ((int * int) list, (Rat.t * int) list) Hashtbl.t;
    tracked : (measured * int) Vec.t;  (* per observation, with its guard *)
  }

  type t = {
    config : config;
    specs : (Scheme.t * Encoding.instr_spec) list;
    mutable state : state option;
  }

  let create ?(config = default_config) specs =
    { config; specs; state = None }

  let state t =
    match t.state with
    | Some st -> st
    | None ->
      let encoding =
        Encoding.create ~num_ports:t.config.num_ports
          ~certify:t.config.certify ~guards:true t.specs
      in
      let st =
        { th = theory encoding; interned = Hashtbl.create 64;
          tracked = Vec.create () }
      in
      t.state <- Some st;
      st

  (* The observation's index, tracking it first if it is new. *)
  let intern st obs =
    let key = Experiment.key obs.experiment in
    let seen = Option.value ~default:[] (Hashtbl.find_opt st.interned key) in
    match List.find_opt (fun (c, _) -> Rat.equal c obs.cycles) seen with
    | Some (_, i) -> i
    | None ->
      let i = Vec.length st.tracked in
      let m = measured obs in
      Vec.push st.tracked
        (m, Pmi_smt.Sat.fresh_var (Encoding.sat st.th.encoding));
      track st.th m;
      Hashtbl.replace st.interned key ((obs.cycles, i) :: seen);
      i

  let explains t ~specs ~observations =
    Obs.span "cegis.explain" @@ fun () ->
    let st = state t in
    let th = st.th in
    let rows = Encoding.activation th.encoding specs in
    let kept s = List.exists (fun (s', _) -> Scheme.equal s s') specs in
    let ids =
      List.map
        (fun obs ->
           if not (List.for_all kept (Experiment.schemes obs.experiment)) then
             invalid_arg "Cegis.Session: observation of a switched-off row";
           intern st obs)
        observations
    in
    let on = Array.make (Vec.length st.tracked) false in
    let ids =
      List.filter
        (fun i ->
           let first = not on.(i) in
           on.(i) <- true;
           first)
        ids
    in
    let assumptions =
      rows
      @ List.init (Vec.length st.tracked) (fun i ->
          Pmi_smt.Lit.make (snd (Vec.get st.tracked i)) on.(i))
    in
    let question = Vec.create () in
    List.iter (fun i -> Vec.push question (fst (Vec.get st.tracked i))) ids;
    let check model =
      decode_model th model;
      let lemmas =
        List.filter_map
          (fun i ->
             let m, guard = Vec.get st.tracked i in
             if evaluate t.config th i m then None
             else
               Some
                 (Pmi_smt.Lit.neg_of_var guard
                  :: lemma t.config th.encoding th.oracle model m.obs))
          ids
      in
      Obs.add c_lemmas (List.length lemmas);
      lemmas
    in
    match
      certified_solve t.config th.encoding question ~assumptions ~check ()
    with
    | Solver.Sat _ -> true
    | Solver.Unsat -> false
end

let canonical ?(config = default_config) ~specs ~observations () =
  let th, obs, pool = cold config specs observations in
  Option.map
    (fun model ->
       Encoding.decode th.encoding (canonical_model config th obs pool model))
    (find_mapping config th obs pool)

let infer ?(config = default_config) ?(refute_early = false) ~measure ~specs () =
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
    Vec.push observations (measured obs);
    obs
  in
  List.iter (fun (s, _) -> ignore (observe (Experiment.singleton s))) specs;
  let fm_theory = theory (fresh_encoding config specs) in
  let fm_encoding = fm_theory.encoding in
  let other_state =
    { o_theory = theory (fresh_encoding config specs); o_synced = 0;
      o_inseparable = Hashtbl.create 16;
      o_search = Distinguish.create config (List.map fst specs) }
  in
  let tried = ref 0 in
  let finish mk =
    let sat =
      Pmi_smt.Sat.add_stats
        (Pmi_smt.Sat.stats (Encoding.sat fm_encoding))
        (Pmi_smt.Sat.stats (Encoding.sat other_state.o_theory.encoding))
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
        observations = List.map (fun m -> m.obs) (Vec.to_list observations);
        candidates_tried = !tried;
        theory_lemmas = Vec.length pool;
        sat_episodes = Atomic.get episode_count - episodes_before;
        sat }
  in
  let sweep = Array.of_list (validation_experiments specs) in
  let validate m1 =
    Obs.span ~args:[ ("sweep", Obs.Int (Array.length sweep)) ] "cegis.validate"
    @@ fun () ->
    (* The first sweep experiment [m1] fails to explain; [None] means
       [m1] explains the whole sweep.  Only one refutation is reported
       per check, so an UNSAT the §4.3 culprit search sees follows from
       a single new observation. *)
    let oracle = Oracle.create m1 in
    let failing e =
      if
        Vec.exists (fun m -> Experiment.equal m.obs.experiment e) observations
      then false
      else
        not
          (explains config oracle
             (measured { experiment = e; cycles = measure e }))
    in
    Array.find_opt failing sweep
  in
  (* Observe the sweep experiment that refutes [m1], if any, and go
     around again; otherwise go on with [k]. *)
  let refute iteration m1 k =
    match validate m1 with
    | Some failure ->
      Log.info (fun m ->
          m "iteration %d: validation experiment %s refutes the \
             current mapping" iteration (Experiment.to_string failure));
      ignore (observe failure);
      None
    | None -> k ()
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
           find_mapping config fm_theory observations pool
         with
         | None ->
           Some
             (finish (fun s ->
                  No_consistent_mapping { s with iterations = iteration }))
         | Some model ->
           let m1 = Encoding.decode fm_encoding model in
           (* Converged: return the canonical representative, unless an
              experiment tells it apart from m1, which shows the
              convergence was premature. *)
           let converge () =
             let canonical =
               Encoding.decode fm_encoding
                 (canonical_model config fm_theory observations pool model)
             in
             Distinguish.start other_state.o_search m1;
             match Distinguish.find other_state.o_search canonical with
             | None ->
               Some
                 (finish (fun s ->
                      Converged (canonical, { s with iterations = iteration })))
             | Some e ->
               Log.info (fun m ->
                   m "iteration %d: experiment %s tells the canonical \
                      mapping apart from the converged one" iteration
                     (Experiment.to_string e));
               ignore (observe e);
               None
           in
           let distinguish () =
             match
               find_other_mapping config other_state specs observations pool
                 m1 tried
             with
             | None ->
               if refute_early then converge ()
               else refute iteration m1 converge
             | Some (_, new_exp) ->
               let obs = observe new_exp in
               Log.info (fun m ->
                   m "iteration %d: new experiment %s measured at %s cycles"
                     iteration
                     (Experiment.to_string new_exp)
                     (Rat.to_string obs.cycles));
               None
           in
           if refute_early then refute iteration m1 distinguish
           else distinguish ())
  in
  let rec loop iteration =
    if iteration > max_iterations then
      finish (fun s -> Iteration_limit { s with iterations = iteration - 1 })
    else
      match step iteration with
      | Some outcome -> outcome
      | None -> loop (iteration + 1)
  in
  loop 1
