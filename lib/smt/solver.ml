module Race = Pmi_diag.Race
module Obs = Pmi_obs.Obs

type result =
  | Sat of bool array
  | Unsat

(* Span args summarizing what a solver did between two [Sat.stats]
   snapshots — the "what did this call cost" payload on every sat.solve
   span in a trace. *)
let stats_args ?(extra = []) (before : Sat.stats) (after : Sat.stats) =
  [ ("decisions", Obs.Int (after.Sat.decisions - before.Sat.decisions));
    ("propagations",
     Obs.Int (after.Sat.propagations - before.Sat.propagations));
    ("conflicts", Obs.Int (after.Sat.conflicts - before.Sat.conflicts));
    ("restarts", Obs.Int (after.Sat.restarts - before.Sat.restarts));
    ("learned", Obs.Int (after.Sat.learned - before.Sat.learned)) ]
  @ extra

(* [sat_span name sat f]: a span around one CDCL call whose closing args
   carry the stats delta on [sat].  One atomic-load branch when tracing is
   off. *)
let sat_span ?args name sat f =
  if not (Obs.enabled ()) then f ()
  else begin
    let before = Sat.stats sat in
    let frame = Obs.enter ?args name in
    match f () with
    | r ->
      Obs.leave ~args:(stats_args before (Sat.stats sat)) frame;
      r
    | exception e ->
      Obs.leave ~args:[ ("exn", Obs.Str (Printexc.to_string e)) ] frame;
      raise e
  end

(* A span around one theory-check callback, closing with the number of
   lemmas the theory pushed back. *)
let theory_span check model =
  if not (Obs.enabled ()) then check model
  else begin
    let frame = Obs.enter "theory.check" in
    match check model with
    | lemmas ->
      Obs.leave ~args:[ ("lemmas", Obs.Int (List.length lemmas)) ] frame;
      lemmas
    | exception e ->
      Obs.leave ~args:[ ("exn", Obs.Str (Printexc.to_string e)) ] frame;
      raise e
  end

let falsified_by model lits =
  List.for_all
    (fun l ->
       let v = Lit.var l in
       v < Array.length model && (if Lit.is_pos l then not model.(v) else model.(v)))
    lits

let solve ?(assumptions = []) ?(max_rounds = 100_000) ~check sat =
  let rec loop round =
    if round > max_rounds then failwith "Smt.Solver.solve: theory loop diverges"
    else begin
      match sat_span "sat.solve" sat (fun () -> Sat.solve ~assumptions sat) with
      | Sat.Unsat -> Unsat
      | Sat.Sat model ->
        (match theory_span check model with
         | [] -> Sat model
         | lemmas ->
           (* Progress guard: the rejected model must violate some lemma.
              Lemmas may mention variables allocated after the model was
              produced (e.g. fresh cardinality registers), which
              [falsified_by] treats as unassigned-false. *)
           assert (List.exists (falsified_by model) lemmas);
           List.iter (Sat.add_clause sat) lemmas;
           loop (round + 1))
    end
  in
  loop 1

(* Diversification table for cube workers.  Worker 0 keeps the reference
   configuration; the others vary seed, polarity, random-decision rate, and
   restart policy, the classic axes along which CDCL runtimes diverge. *)
let diversify i member =
  if i > 0 then begin
    Sat.set_seed member (0x9E3779B9 * i);
    match i mod 4 with
    | 1 ->
      Sat.invert_phases member;
      Sat.set_restart member (`Luby 64)
    | 2 ->
      Sat.set_random_var_freq member 0.02;
      Sat.set_restart member (`Geometric 100)
    | 3 ->
      Sat.randomize_phases member;
      Sat.set_random_var_freq member 0.05
    | _ ->
      Sat.set_random_var_freq member 0.01;
      Sat.set_restart member (`Luby 1024)
  end

(* Glue bound for sharing a cube worker's learnt clauses with its peers
   and the persistent solver.  Low-LBD clauses are the ones worth keeping
   across solves (Audemard & Simon 2009); sharing everything would bloat
   the clause database faster than reduction can prune it. *)
let import_lbd_limit = 8

(* ------------------------------------------------------------------ *)
(* Cube-and-conquer                                                    *)
(* ------------------------------------------------------------------ *)

(* Shared-clause-pool telemetry: clauses continuously exported by live
   workers (glue <= [import_lbd_limit]) and clauses pulled in by peers at
   their restart points. *)
let c_cube_export = Obs.counter "sat.cube.pool.exported"
let c_cube_import = Obs.counter "sat.cube.pool.imported"
let c_cube_solved = Obs.counter "sat.cube.solved"
let c_cube_resplit = Obs.counter "sat.cube.resplit"
let c_cube_requeue = Obs.counter "sat.cube.requeued"

(* Adaptive re-split policy: exhausting a conflict budget no longer forces
   a split.  A cube is deepened only when its conflict spend marks the
   subspace as hard — at least [cube_hard_factor] times the average spend
   of the cubes already resolved this round (the budget itself while none
   has resolved yet); an easy-but-unlucky cube is requeued whole with a
   doubled budget instead, so the split tree only grows where the
   conflicts are.  [cube_split_cap] bounds the depth as a safety net. *)
let cube_split_cap = 16
let cube_hard_factor = 2

let cube_cover ?(hint = []) ?(assumptions = []) ~k sat =
  let k = max 0 k in
  let seen = Hashtbl.create 16 in
  (* Assumption variables are pinned for the whole call — in delta-mode
     CEGIS these are the frozen µop pins and the rows' activation
     literals — so splitting on one would produce a dead half-cube.
     Pre-seeding [seen] excludes them from hint and ranking alike. *)
  List.iter (fun l -> Hashtbl.replace seen (Lit.var l) ()) assumptions;
  let picked = ref [] in
  let n = ref 0 in
  let consider v =
    if
      !n < k && v >= 0 && (not (Hashtbl.mem seen v))
      && Sat.root_value sat v = 0
    then begin
      Hashtbl.add seen v ();
      picked := v :: !picked;
      incr n
    end
  in
  (* Caller-supplied split hint first (for CEGIS: port-set variables of the
     most-constrained instruction classes), then the solver's own
     activity/occurrence ranking tops the selection up to [k]. *)
  List.iter consider hint;
  if !n < k then
    List.iter consider
      (Sat.most_constrained_vars sat (k + !n + List.length assumptions));
  let vars = List.rev !picked in
  List.map List.rev
    (List.fold_left
       (fun cubes v ->
          List.concat_map
            (fun c -> [ Lit.pos v :: c; Lit.neg_of_var v :: c ])
            cubes)
       [ [] ] vars)

(* Certificate stitching for an all-cubes-refuted round: each leaf's clause
   [goal ∨ ¬cube] is already derived; walk the split tree bottom-up and
   derive every internal node's clause by resolving its two children on the
   node's split literal.  Each step is RUP — asserting the negation of the
   node clause reduces both children to opposite units of the split
   variable — and the root step derives [goal] itself (the empty clause
   when there are no assumptions). *)
let stitch_cube_tree sat goal leaves =
  let ragged () = invalid_arg "Smt.Solver.solve_cubes: ragged cube tree" in
  let rec go prefix_rev suffixes =
    match suffixes with
    | [ [] ] -> () (* leaf: already derived *)
    | (l :: _) :: _ ->
      let v = Lit.var l in
      let pos, neg =
        List.partition
          (fun c ->
             match c with
             | l :: _ when Lit.var l = v -> Lit.is_pos l
             | _ -> ragged ())
          suffixes
      in
      if pos = [] || neg = [] then ragged ();
      go (Lit.pos v :: prefix_rev) (List.map List.tl pos);
      go (Lit.neg_of_var v :: prefix_rev) (List.map List.tl neg);
      Sat.proof_derive sat (goal @ List.rev_map Lit.negate prefix_rev)
    | _ -> ragged ()
  in
  go [] leaves

let solve_cubes ?(assumptions = []) ?(max_rounds = 100_000) ?domains
    ?(cubes = 3) ?(conflict_budget = 4_000) ?(hint = fun () -> []) ~check sat
  =
  let domains =
    match domains with
    | Some d -> max 1 d
    | None -> Pmi_parallel.Pool.default_domains ()
  in
  if domains <= 1 then solve ~assumptions ~max_rounds ~check sat
  else begin
    let members = min domains 8 in
    let certify = Sat.proof_logging sat in
    (* Sanitizer shadow state: the parent solver, each worker's private
       clone, and the two lock-protected shared structures (cube queue and
       clause pool).  Queue and pool are only ever touched inside their
       [Race.lock] regions, so [@sanitize] sees every access ordered. *)
    let parent_loc = Race.location "cubes.parent-solver" in
    let clone_locs =
      Array.init members (fun i ->
          Race.location (Printf.sprintf "cubes.clone-%d" i))
    in
    let queue_loc = Race.location "cubes.queue" in
    let pool_loc = Race.location "cubes.clause-pool" in
    let queue_lock = Race.create_lock "cubes.queue" in
    let pool_lock = Race.create_lock "cubes.clause-pool" in
    let solve_round round =
      let round_frame =
        if not (Obs.enabled ()) then None
        else
          Some
            (Obs.enter
               ~args:
                 [ ("round", Obs.Int round); ("members", Obs.Int members) ]
               "sat.cubes")
      in
      let close_round args =
        match round_frame with
        | None -> ()
        | Some frame -> Obs.leave ~args frame
      in
      match
        let conclude ~round_args verdict =
          match verdict with
          | Sat.Unsat ->
            close_round (round_args 0);
            Some Unsat
          | Sat.Sat model ->
            (match theory_span check model with
             | [] ->
               close_round (round_args 0);
               Some (Sat model)
             | lemmas ->
               assert (List.exists (falsified_by model) lemmas);
               List.iter (Sat.add_clause sat) lemmas;
               close_round (round_args (List.length lemmas));
               None)
        in
        Race.touch_read parent_loc;
        let cover = cube_cover ~hint:(hint ()) ~assumptions ~k:cubes sat in
        let n_cubes = List.length cover in
        if n_cubes <= 1 then begin
          (* No free split variable (tiny or root-decided instance): the
             round degenerates to a sequential solve on the parent. *)
          Race.touch_write parent_loc;
          let verdict =
            sat_span "sat.solve" sat (fun () -> Sat.solve ~assumptions sat)
          in
          conclude
            ~round_args:(fun lemmas ->
              [ ("cubes", Obs.Int n_cubes);
                ("learnt_imported", Obs.Int 0);
                ("lemmas", Obs.Int lemmas) ])
            verdict
        end
        else begin
          (* Shared cube queue (work stealing: any worker may claim or
             re-split any cube) and shared clause pool (continuous low-glue
             export/import between live workers). *)
          let queue = Queue.create () in
          List.iter (fun c -> Queue.add (0, conflict_budget, c) queue) cover;
          let outstanding = ref n_cubes in
          let unsat_leaves = ref [] in
          (* Running spend of resolved cubes, the baseline the adaptive
             re-split policy compares an exhausted cube against. *)
          let solved_spend = ref 0 in
          let solved_count = ref 0 in
          let pool = ref [] in (* (owner, lbd, lits), newest first *)
          let pool_len = ref 0 in
          let stamp = Race.tracked_atomic ~name:"cubes.stamp" 0 in
          let logs = Array.make members [] in (* (stamp, lits), newest first *)
          let watermarks = Array.make members 0 in
          let clones =
            Array.init members (fun i ->
                let c = Sat.copy sat in
                diversify i c;
                Race.touch_write clone_locs.(i);
                c)
          in
          let importers =
            Array.mapi
              (fun w c ->
                 (* Export: every clause worker [w] learns is stamped with a
                    global sequence number (certification: the stamps give
                    the one total order in which all workers' learnt logs
                    can be replayed as a valid DRAT suffix, since a clause
                    is always stamped before it becomes visible to any
                    importer), and low-glue clauses are published to the
                    pool while the worker keeps searching. *)
                 let on_learnt lbd lits =
                   if certify then begin
                     let t = Race.afetch_add stamp 1 in
                     logs.(w) <- (t, lits) :: logs.(w)
                   end;
                   if lbd <= import_lbd_limit then begin
                     Race.with_lock pool_lock (fun () ->
                         Race.touch_write pool_loc;
                         pool := (w, lbd, lits) :: !pool;
                         incr pool_len);
                     if Obs.enabled () then Obs.incr c_cube_export
                   end
                 in
                 (* Import: pull every pool clause published since this
                    worker's last look (skipping its own), called at each
                    restart (level-0 boundary) and before each cube. *)
                 let import () =
                   let fresh =
                     Race.with_lock pool_lock (fun () ->
                         Race.touch_read pool_loc;
                         let n = !pool_len in
                         if n = watermarks.(w) then []
                         else begin
                           let take = n - watermarks.(w) in
                           watermarks.(w) <- n;
                           List.filteri (fun i _ -> i < take) !pool
                         end)
                   in
                   List.iter
                     (fun (owner, lbd, lits) ->
                        if owner <> w then begin
                          Sat.add_learnt c ~lbd lits;
                          if Obs.enabled () then Obs.incr c_cube_import
                        end)
                     (List.rev fresh)
                 in
                 Sat.set_on_learnt c (Some on_learnt);
                 Sat.set_on_restart c (Some import);
                 import)
              clones
          in
          let tasks =
            Array.init members (fun w ->
                fun stop ->
                  if stop () then None
                  else begin
                    let c = clones.(w) in
                    Race.touch_write clone_locs.(w);
                    let pop () =
                      Race.with_lock queue_lock (fun () ->
                          Race.touch_write queue_loc;
                          if Queue.is_empty queue then
                            if !outstanding = 0 then `Done else `Wait
                          else `Cube (Queue.pop queue))
                    in
                    let resolve_unsat spent cube =
                      Race.with_lock queue_lock (fun () ->
                          Race.touch_write queue_loc;
                          unsat_leaves := cube :: !unsat_leaves;
                          solved_spend := !solved_spend + spent;
                          incr solved_count;
                          decr outstanding)
                    in
                    (* Adaptive deepening: an exhausted cube is split only
                       when its spend says the subspace is hard relative to
                       the cubes already resolved; otherwise (or at the
                       split cap) the same cube is requeued whole with a
                       doubled budget. *)
                    let resplit_or_requeue splits budget spent cube =
                      let hard =
                        Race.with_lock queue_lock (fun () ->
                            Race.touch_read queue_loc;
                            let avg =
                              if !solved_count = 0 then conflict_budget
                              else !solved_spend / !solved_count
                            in
                            spent >= cube_hard_factor * max 1 avg)
                      in
                      if hard && splits < cube_split_cap then begin
                        if Obs.enabled () then Obs.incr c_cube_resplit;
                        let used = List.map Lit.var (assumptions @ cube) in
                        let fresh =
                          List.find_opt
                            (fun v -> not (List.mem v used))
                            (Sat.most_constrained_vars c
                               (List.length used + 1))
                        in
                        Race.with_lock queue_lock (fun () ->
                            Race.touch_write queue_loc;
                            match fresh with
                            | Some v ->
                              Queue.add
                                (splits + 1, conflict_budget,
                                 cube @ [ Lit.pos v ])
                                queue;
                              Queue.add
                                (splits + 1, conflict_budget,
                                 cube @ [ Lit.neg_of_var v ])
                                queue;
                              incr outstanding
                            | None ->
                              (* No unassigned variable outside the cube:
                                 requeue for an unbudgeted solve. *)
                              Queue.add (splits, max_int, cube) queue)
                      end
                      else begin
                        if Obs.enabled () then Obs.incr c_cube_requeue;
                        let budget' =
                          if budget >= max_int / 2 then max_int
                          else 2 * budget
                        in
                        Race.with_lock queue_lock (fun () ->
                            Race.touch_write queue_loc;
                            Queue.add (splits, budget', cube) queue)
                      end
                    in
                    let rec work () =
                      if stop () then None
                      else
                        match pop () with
                        | `Done -> None
                        | `Wait ->
                          Domain.cpu_relax ();
                          work ()
                        | `Cube (splits, budget, cube) ->
                          importers.(w) ();
                          let budgeted = budget < max_int in
                          let start = Sat.num_conflicts c in
                          let exceeded = ref false in
                          let stop' () =
                            stop ()
                            || budgeted
                               && Sat.num_conflicts c - start >= budget
                               && begin
                                 exceeded := true;
                                 true
                               end
                          in
                          let verdict =
                            sat_span
                              ~args:
                                [ ("member", Obs.Int w);
                                  ("splits", Obs.Int splits) ]
                              "sat.cube" c
                              (fun () ->
                                 Sat.solve_opt
                                   ~assumptions:(assumptions @ cube)
                                   ~stop:stop' c)
                          in
                          let spent = Sat.num_conflicts c - start in
                          (match verdict with
                           | Some (Sat.Sat model) ->
                             if Obs.enabled () then Obs.incr c_cube_solved;
                             Some (w, model)
                           | Some Sat.Unsat ->
                             if Obs.enabled () then Obs.incr c_cube_solved;
                             resolve_unsat spent cube;
                             work ()
                           | None ->
                             if !exceeded && not (stop ()) then begin
                               resplit_or_requeue splits budget spent cube;
                               work ()
                             end
                             else None)
                    in
                    let r = work () in
                    Race.touch_write clone_locs.(w);
                    r
                  end)
          in
          let outcome = Pmi_parallel.Pool.race ~domains:members tasks in
          (* Join edge established: fold every worker's counters back (all
             of them did real work on their cubes, not just a winner). *)
          Race.touch_write parent_loc;
          Array.iteri
            (fun i c ->
               Race.touch_read clone_locs.(i);
               Sat.absorb_stats sat c)
            clones;
          (* Certification: replay all workers' learnt logs into the parent
             trace in global stamp order.  Every clause is then RUP w.r.t.
             the shared database plus the earlier-stamped clauses — a
             worker's own earlier learnts and its imports are always
             earlier-stamped — so the merged sequence is a valid DRAT
             suffix. *)
          let replay_logs () =
            if certify then begin
              let merged =
                Array.to_list logs |> List.concat
                |> List.sort (fun (a, _) (b, _) -> compare (a : int) b)
              in
              List.iter (fun (_, lits) -> Sat.proof_derive sat lits) merged
            end
          in
          (* Fold the pool back into the persistent encoding: every entry
             is low-glue and implied by the clause database alone. *)
          let import_pool () =
            let imported = ref 0 in
            List.iter
              (fun (_, lbd, lits) ->
                 incr imported;
                 Sat.add_learnt sat ~lbd lits)
              (List.rev !pool);
            !imported
          in
          let cube_args ~winner ~imported lemmas =
            [ ("winner", Obs.Int winner);
              ("cubes", Obs.Int n_cubes);
              ("learnt_imported", Obs.Int imported);
              ("lemmas", Obs.Int lemmas) ]
          in
          match outcome with
          | Some (wi, model) ->
            (* SAT short-circuited the race; the cube literals were mere
               assumptions, so the model is a model of the full problem. *)
            replay_logs ();
            let imported = import_pool () in
            conclude
              ~round_args:(cube_args ~winner:wi ~imported)
              (Sat.Sat model)
          | None ->
            let remaining =
              Race.with_lock queue_lock (fun () ->
                  Race.touch_read queue_loc;
                  !outstanding)
            in
            if remaining = 0 then begin
              (* Every cube refuted: the round is UNSAT.  Stitch the
                 certificate — merged learnt logs, one [goal ∨ ¬cube]
                 clause per refuted leaf, then the split tautology up the
                 tree, ending at [goal] itself. *)
              replay_logs ();
              if certify then begin
                let goal = List.map Lit.negate assumptions in
                List.iter
                  (fun cube ->
                     Sat.proof_derive sat
                       (goal @ List.map Lit.negate cube))
                  !unsat_leaves;
                stitch_cube_tree sat goal !unsat_leaves
              end;
              let imported = import_pool () in
              conclude
                ~round_args:(cube_args ~winner:(-1) ~imported)
                Sat.Unsat
            end
            else begin
              (* Defensive fallback: a worker anomaly left cubes
                 unresolved — finish the round sequentially on the parent
                 rather than aborting. *)
              Race.touch_write parent_loc;
              let verdict =
                sat_span "sat.solve" sat (fun () ->
                    Sat.solve ~assumptions sat)
              in
              conclude
                ~round_args:(cube_args ~winner:(-1) ~imported:0)
                verdict
            end
        end
      with
      | outcome -> outcome
      | exception e ->
        close_round [ ("exn", Obs.Str (Printexc.to_string e)) ];
        raise e
    in
    let rec loop round =
      if round > max_rounds then
        failwith "Smt.Solver.solve_cubes: theory loop diverges"
      else
        match solve_round round with
        | Some verdict -> verdict
        | None -> loop (round + 1)
    in
    loop 1
  end
