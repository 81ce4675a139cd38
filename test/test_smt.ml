open Pmi_smt

(* ------------------------------------------------------------------ *)
(* Literals                                                            *)
(* ------------------------------------------------------------------ *)

let test_lit_encoding () =
  let l = Lit.pos 5 in
  Alcotest.(check int) "var" 5 (Lit.var l);
  Alcotest.(check bool) "pos" true (Lit.is_pos l);
  let n = Lit.negate l in
  Alcotest.(check int) "neg var" 5 (Lit.var n);
  Alcotest.(check bool) "neg polarity" false (Lit.is_pos n);
  Alcotest.(check int) "double negate" l (Lit.negate n);
  Alcotest.(check int) "make" (Lit.neg_of_var 3) (Lit.make 3 false)

(* ------------------------------------------------------------------ *)
(* SAT solver unit tests                                               *)
(* ------------------------------------------------------------------ *)

let is_sat = function Sat.Sat _ -> true | Sat.Unsat -> false

let test_sat_trivial () =
  let s = Sat.create () in
  let a = Sat.fresh_var s in
  Sat.add_clause s [ Lit.pos a ];
  (match Sat.solve s with
   | Sat.Sat model -> Alcotest.(check bool) "a true" true model.(a)
   | Sat.Unsat -> Alcotest.fail "unexpected unsat")

let test_sat_contradiction () =
  let s = Sat.create () in
  let a = Sat.fresh_var s in
  Sat.add_clause s [ Lit.pos a ];
  Sat.add_clause s [ Lit.neg_of_var a ];
  Alcotest.(check bool) "unsat" false (is_sat (Sat.solve s));
  Alcotest.(check bool) "not okay" false (Sat.okay s)

let test_sat_implication_chain () =
  (* a & (a -> b) & (b -> c) & (c -> d): all forced true. *)
  let s = Sat.create () in
  let vars = Array.init 4 (fun _ -> Sat.fresh_var s) in
  Sat.add_clause s [ Lit.pos vars.(0) ];
  for i = 0 to 2 do
    Sat.add_clause s [ Lit.neg_of_var vars.(i); Lit.pos vars.(i + 1) ]
  done;
  match Sat.solve s with
  | Sat.Sat model ->
    Array.iter (fun v -> Alcotest.(check bool) "forced" true model.(v)) vars
  | Sat.Unsat -> Alcotest.fail "unexpected unsat"

let test_sat_pigeonhole_3_2 () =
  (* 3 pigeons, 2 holes: classic small UNSAT instance. *)
  let s = Sat.create () in
  let v = Array.init 3 (fun _ -> Array.init 2 (fun _ -> Sat.fresh_var s)) in
  for p = 0 to 2 do
    Sat.add_clause s [ Lit.pos v.(p).(0); Lit.pos v.(p).(1) ]
  done;
  for h = 0 to 1 do
    for p1 = 0 to 2 do
      for p2 = p1 + 1 to 2 do
        Sat.add_clause s [ Lit.neg_of_var v.(p1).(h); Lit.neg_of_var v.(p2).(h) ]
      done
    done
  done;
  Alcotest.(check bool) "unsat" false (is_sat (Sat.solve s))

let test_sat_assumptions () =
  let s = Sat.create () in
  let a = Sat.fresh_var s in
  let b = Sat.fresh_var s in
  Sat.add_clause s [ Lit.neg_of_var a; Lit.pos b ];
  (match Sat.solve ~assumptions:[ Lit.pos a; Lit.neg_of_var b ] s with
   | Sat.Unsat -> ()
   | Sat.Sat _ -> Alcotest.fail "assumptions should conflict");
  (* The solver must remain usable and satisfiable without assumptions. *)
  Alcotest.(check bool) "still sat" true (is_sat (Sat.solve s));
  match Sat.solve ~assumptions:[ Lit.pos a ] s with
  | Sat.Sat model -> Alcotest.(check bool) "b forced" true model.(b)
  | Sat.Unsat -> Alcotest.fail "should be sat under a"

let test_sat_incremental () =
  let s = Sat.create () in
  let a = Sat.fresh_var s in
  let b = Sat.fresh_var s in
  Sat.add_clause s [ Lit.pos a; Lit.pos b ];
  Alcotest.(check bool) "sat" true (is_sat (Sat.solve s));
  Sat.add_clause s [ Lit.neg_of_var a ];
  (match Sat.solve s with
   | Sat.Sat model -> Alcotest.(check bool) "b" true model.(b)
   | Sat.Unsat -> Alcotest.fail "unexpected unsat");
  Sat.add_clause s [ Lit.neg_of_var b ];
  Alcotest.(check bool) "unsat after both" false (is_sat (Sat.solve s))

(* Property: agreement with brute force on random small CNFs. *)

let brute_force_sat num_vars clauses =
  let rec go assignment v =
    if v = num_vars then
      List.for_all
        (fun clause ->
           List.exists
             (fun l ->
                let value = assignment.(Lit.var l) in
                if Lit.is_pos l then value else not value)
             clause)
        clauses
    else begin
      assignment.(v) <- true;
      go assignment (v + 1)
      ||
      (assignment.(v) <- false;
       go assignment (v + 1))
    end
  in
  go (Array.make num_vars false) 0

let cnf_gen =
  let open QCheck2.Gen in
  let num_vars = int_range 1 8 in
  num_vars >>= fun n ->
  let lit = map2 (fun v pos -> Lit.make v pos) (int_range 0 (n - 1)) bool in
  let clause = list_size (int_range 1 4) lit in
  map (fun clauses -> (n, clauses)) (list_size (int_range 1 25) clause)

let prop_sat_matches_brute_force =
  QCheck2.Test.make ~name:"CDCL matches brute force" ~count:300 cnf_gen
    (fun (n, clauses) ->
       let s = Sat.create () in
       for _ = 1 to n do
         ignore (Sat.fresh_var s)
       done;
       List.iter (Sat.add_clause s) clauses;
       let expected = brute_force_sat n clauses in
       match Sat.solve s with
       | Sat.Sat model ->
         (* The model must actually satisfy all clauses. *)
         expected
         && List.for_all
              (List.exists (fun l ->
                   if Lit.is_pos l then model.(Lit.var l)
                   else not model.(Lit.var l)))
              clauses
       | Sat.Unsat -> not expected)

(* Stress: random 3-SAT near the phase transition.  Whatever the verdict,
   a returned model must satisfy every clause, and the solver must finish
   (no watched-literal corruption, no lost clauses across restarts). *)
let prop_sat_3sat_stress =
  let gen =
    let open QCheck2.Gen in
    let n = 40 in
    let lit = map2 (fun v pos -> Lit.make v pos) (int_range 0 (n - 1)) bool in
    let clause =
      map (fun (a, b, c) -> [ a; b; c ]) (triple lit lit lit)
    in
    map (fun clauses -> (n, clauses)) (list_repeat 170 clause)
  in
  QCheck2.Test.make ~name:"3-SAT stress: models verify" ~count:50 gen
    (fun (n, clauses) ->
       let s = Sat.create () in
       for _ = 1 to n do
         ignore (Sat.fresh_var s)
       done;
       List.iter (Sat.add_clause s) clauses;
       match Sat.solve s with
       | Sat.Sat model ->
         List.for_all
           (List.exists (fun l ->
                if Lit.is_pos l then model.(Lit.var l) else not model.(Lit.var l)))
           clauses
       | Sat.Unsat -> true)

let pigeonhole s ~pigeons ~holes =
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
  done

let test_sat_pigeonhole_6_5 () =
  (* A harder UNSAT instance exercising clause learning and restarts. *)
  let s = Sat.create () in
  pigeonhole s ~pigeons:6 ~holes:5;
  Alcotest.(check bool) "unsat" false (is_sat (Sat.solve s));
  Alcotest.(check bool) "learned something" true
    ((Sat.stats s).Sat.conflicts > 0)

let test_sat_pigeonhole_family () =
  (* n+1 pigeons never fit n holes; n pigeons always do.  The UNSAT side
     scales exponentially for resolution, so this walks the engine through
     progressively heavier clause learning. *)
  for holes = 2 to 6 do
    let u = Sat.create () in
    pigeonhole u ~pigeons:(holes + 1) ~holes;
    Alcotest.(check bool)
      (Printf.sprintf "php %d/%d unsat" (holes + 1) holes)
      false (is_sat (Sat.solve u));
    let f = Sat.create () in
    pigeonhole f ~pigeons:holes ~holes;
    Alcotest.(check bool)
      (Printf.sprintf "php %d/%d sat" holes holes)
      true (is_sat (Sat.solve f))
  done

let test_sat_reduction_parity_pigeonhole () =
  (* php 8/7 crosses the first clause-database-reduction budget, so learnt
     clauses really are deleted; the verdict must not change. *)
  let run reduce =
    let s = Sat.create () in
    Sat.set_reduce_enabled s reduce;
    pigeonhole s ~pigeons:8 ~holes:7;
    let verdict = is_sat (Sat.solve s) in
    (verdict, Sat.stats s)
  in
  let verdict_on, stats_on = run true in
  let verdict_off, stats_off = run false in
  Alcotest.(check bool) "unsat with reduction" false verdict_on;
  Alcotest.(check bool) "unsat without reduction" false verdict_off;
  Alcotest.(check bool) "reduction fired" true (stats_on.Sat.deleted > 0);
  Alcotest.(check int) "no deletions when disabled" 0 stats_off.Sat.deleted

let test_sat_stats () =
  let s = Sat.create () in
  pigeonhole s ~pigeons:5 ~holes:4;
  ignore (Sat.solve s);
  let st = Sat.stats s in
  Alcotest.(check bool) "decisions" true (st.Sat.decisions > 0);
  Alcotest.(check bool) "propagations" true (st.Sat.propagations > 0);
  Alcotest.(check bool) "conflicts" true (st.Sat.conflicts > 0);
  Alcotest.(check bool) "learned" true (st.Sat.learned > 0);
  Alcotest.(check bool) "glue recorded" true (st.Sat.max_lbd > 0);
  Alcotest.(check bool) "zero is neutral" true
    (Sat.add_stats Sat.zero_stats st = st);
  let doubled = Sat.add_stats st st in
  Alcotest.(check int) "sums conflicts" (2 * st.Sat.conflicts)
    doubled.Sat.conflicts;
  Alcotest.(check int) "maxes glue" st.Sat.max_lbd doubled.Sat.max_lbd

(* A fixed random 3-SAT formula: a 32-bit xorshift stream, so the clauses
   never depend on the stdlib's [Random] implementation. *)
let fixed_3sat ~vars ~clauses =
  let state = ref 0x2545F491 in
  let next n =
    let x = !state in
    let x = x lxor ((x lsl 13) land 0xFFFFFFFF) in
    let x = x lxor (x lsr 17) in
    let x = x lxor ((x lsl 5) land 0xFFFFFFFF) in
    state := x;
    x mod n
  in
  List.init clauses (fun _ ->
      List.init 3 (fun _ -> Lit.make (next vars) (next 2 = 0)))

(* The default decision and restart sequence is pinned: the culprit search
   and the funnel depend on which model the solver returns first, so any
   change to the search path must show up here.  The counts were recorded
   from the solver as shipped; the 3-SAT run crosses seven restarts and the
   first clause-database reduction. *)
let test_sat_default_search_path () =
  let check name s ~decisions ~conflicts ~restarts ~learned =
    ignore (Sat.solve s);
    let st = Sat.stats s in
    Alcotest.(check (list int)) name
      [ decisions; conflicts; restarts; learned ]
      [ st.Sat.decisions; st.Sat.conflicts; st.Sat.restarts; st.Sat.learned ]
  in
  let php = Sat.create () in
  pigeonhole php ~pigeons:7 ~holes:6;
  check "php 7/6" php ~decisions:777 ~conflicts:647 ~restarts:1 ~learned:646;
  let rnd = Sat.create () in
  for _ = 1 to 200 do
    ignore (Sat.fresh_var rnd)
  done;
  List.iter (Sat.add_clause rnd) (fixed_3sat ~vars:200 ~clauses:852);
  check "3-SAT 200/852" rnd ~decisions:11219 ~conflicts:9642 ~restarts:7
    ~learned:9641

(* Reference DPLL (unit propagation + splitting) for differential fuzzing
   on instances too large to enumerate. *)

let dpll_assign l clauses =
  let neg = Lit.negate l in
  List.filter_map
    (fun c ->
       if List.mem l c then None
       else Some (List.filter (fun l' -> l' <> neg) c))
    clauses

let rec dpll clauses =
  if List.exists (( = ) []) clauses then false
  else
    match List.find_opt (fun c -> List.compare_length_with c 1 = 0) clauses with
    | Some [ l ] -> dpll (dpll_assign l clauses)
    | Some _ -> assert false
    | None ->
      (match clauses with
       | [] -> true
       | (l :: _) :: _ ->
         dpll (dpll_assign l clauses) || dpll (dpll_assign (Lit.negate l) clauses)
       | [] :: _ -> assert false)

let prop_sat_matches_dpll =
  let gen =
    let open QCheck2.Gen in
    let n = 20 in
    let lit = map2 (fun v pos -> Lit.make v pos) (int_range 0 (n - 1)) bool in
    let clause = map (fun (a, b, c) -> [ a; b; c ]) (triple lit lit lit) in
    (* ~4.3 clauses per variable sits at the random-3-SAT phase transition,
       where both verdicts occur and the search is hardest. *)
    map (fun clauses -> (n, clauses)) (list_repeat 86 clause)
  in
  QCheck2.Test.make ~name:"CDCL matches reference DPLL on random 3-SAT"
    ~count:40 gen
    (fun (n, clauses) ->
       let s = Sat.create () in
       for _ = 1 to n do
         ignore (Sat.fresh_var s)
       done;
       List.iter (Sat.add_clause s) clauses;
       let expected = dpll clauses in
       match Sat.solve s with
       | Sat.Sat model ->
         expected
         && List.for_all
              (List.exists (fun l ->
                   if Lit.is_pos l then model.(Lit.var l)
                   else not model.(Lit.var l)))
              clauses
       | Sat.Unsat -> not expected)

(* Property: incremental sequences of add_clause / solve ~assumptions give
   the same verdicts whether clause-database reduction is on or off. *)

let script_gen =
  let open QCheck2.Gen in
  int_range 6 12 >>= fun n ->
  let lit = map2 (fun v pos -> Lit.make v pos) (int_range 0 (n - 1)) bool in
  let clause = list_size (int_range 1 3) lit in
  let step =
    pair (list_size (int_range 0 6) clause) (list_size (int_range 0 2) lit)
  in
  map (fun steps -> (n, steps)) (list_size (int_range 2 5) step)

let prop_reduction_parity =
  QCheck2.Test.make
    ~name:"reduction never changes incremental verdicts" ~count:40
    script_gen
    (fun (n, steps) ->
       let mk reduce =
         let s = Sat.create () in
         Sat.set_reduce_enabled s reduce;
         for _ = 1 to n do
           ignore (Sat.fresh_var s)
         done;
         s
       in
       let with_reduction = mk true in
       let without_reduction = mk false in
       List.for_all
         (fun (clauses, assumptions) ->
            List.iter
              (fun c ->
                 Sat.add_clause with_reduction c;
                 Sat.add_clause without_reduction c)
              clauses;
            is_sat (Sat.solve ~assumptions with_reduction)
            = is_sat (Sat.solve ~assumptions without_reduction))
         steps)

(* ------------------------------------------------------------------ *)
(* CDCL invariant sanitizer                                            *)
(* ------------------------------------------------------------------ *)

let test_sanitize_pigeonhole () =
  (* Walk the engine through learning, restarts and clause-database
     reduction with the internal invariant checks enabled: any watcher,
     trail, reason or heap corruption raises [Invariant_violation]. *)
  let s = Sat.create () in
  Sat.set_sanitize s true;
  pigeonhole s ~pigeons:6 ~holes:5;
  Alcotest.(check bool) "unsat" false (is_sat (Sat.solve s));
  match Sat.Invariants.check s with
  | Ok () -> ()
  | Error msg -> Alcotest.failf "invariant violated after solve: %s" msg

let test_sanitize_incremental () =
  (* The CEGIS pattern on one sanitized solver: clauses arrive between
     solves, every solve runs under activation assumptions, and a retired
     activation literal is unit-negated.  Pigeons join one at a time, each
     one's "some hole" clause guarded by its own activation literal; the
     eighth overflows the seven holes, which takes enough conflicts to
     cross restarts and a clause-database reduction.  The invariants must
     hold at every level-0 boundary inside each solve and between them. *)
  let holes = 7 and pigeons = 8 in
  let s = Sat.create () in
  Sat.set_sanitize s true;
  let check what =
    match Sat.Invariants.check s with
    | Ok () -> ()
    | Error msg -> Alcotest.failf "invariant violated %s: %s" what msg
  in
  let seat =
    Array.init pigeons (fun _ -> Array.init holes (fun _ -> Sat.fresh_var s))
  in
  let act = Array.init pigeons (fun _ -> Sat.fresh_var s) in
  let active n = List.init n (fun p -> Lit.pos act.(p)) in
  for p = 0 to pigeons - 1 do
    Sat.add_clause s
      (Lit.neg_of_var act.(p) :: Array.to_list (Array.map Lit.pos seat.(p)));
    for q = 0 to p - 1 do
      for h = 0 to holes - 1 do
        Sat.add_clause s
          [ Lit.neg_of_var seat.(q).(h); Lit.neg_of_var seat.(p).(h) ]
      done
    done;
    check (Printf.sprintf "after adding pigeon %d" (p + 1));
    Alcotest.(check bool)
      (Printf.sprintf "%d pigeons in %d holes" (p + 1) holes)
      (p < holes)
      (is_sat (Sat.solve ~assumptions:(active (p + 1)) s));
    check (Printf.sprintf "after solving with %d pigeons" (p + 1))
  done;
  Sat.add_clause s [ Lit.neg_of_var act.(pigeons - 1) ];
  Alcotest.(check bool) "the retired pigeon frees the holes" true
    (is_sat (Sat.solve ~assumptions:(active holes) s));
  check "after the retired solve";
  let st = Sat.stats s in
  Alcotest.(check bool) "crossed a restart" true (st.Sat.restarts > 0);
  Alcotest.(check bool) "crossed a reduction" true (st.Sat.deleted > 0)

let prop_sanitize_random =
  QCheck2.Test.make ~name:"sanitizer accepts random solving" ~count:120
    cnf_gen
    (fun (n, clauses) ->
       let s = Sat.create () in
       Sat.set_sanitize s true;
       for _ = 1 to n do
         ignore (Sat.fresh_var s)
       done;
       List.iter (Sat.add_clause s) clauses;
       let verdict = is_sat (Sat.solve s) in
       (match Sat.Invariants.check s with
        | Ok () -> ()
        | Error msg -> QCheck2.Test.fail_reportf "invariant: %s" msg);
       verdict = brute_force_sat n clauses)

(* ------------------------------------------------------------------ *)
(* Cardinality constraints                                             *)
(* ------------------------------------------------------------------ *)

let count_true model vars =
  List.length (List.filter (fun v -> model.(v)) vars)

let solve_card build =
  let s = Sat.create () in
  let vars = List.init 6 (fun _ -> Sat.fresh_var s) in
  build s (List.map Lit.pos vars);
  (s, vars)

let test_card_exactly () =
  let s, vars = solve_card (fun s lits -> Card.exactly s lits 3) in
  match Sat.solve s with
  | Sat.Sat model -> Alcotest.(check int) "exactly 3" 3 (count_true model vars)
  | Sat.Unsat -> Alcotest.fail "exactly 3 of 6 is satisfiable"

let test_card_edge_cases () =
  (* k = 0 forbids everything. *)
  let s = Sat.create () in
  let a = Sat.fresh_var s in
  Card.exactly s [ Lit.pos a ] 0;
  (match Sat.solve s with
   | Sat.Sat model -> Alcotest.(check bool) "a false" false model.(a)
   | Sat.Unsat -> Alcotest.fail "sat expected");
  (* k = n forces everything. *)
  let s2 = Sat.create () in
  let b = Sat.fresh_var s2 in
  Card.exactly s2 [ Lit.pos b ] 1;
  (match Sat.solve s2 with
   | Sat.Sat model -> Alcotest.(check bool) "b true" true model.(b)
   | Sat.Unsat -> Alcotest.fail "sat expected");
  (* A bound outside 0..n is unsatisfiable. *)
  List.iter
    (fun k ->
       let s3 = Sat.create () in
       let c = Sat.fresh_var s3 in
       Card.exactly s3 [ Lit.pos c ] k;
       Alcotest.(check bool) (Printf.sprintf "impossible k=%d" k) false
         (is_sat (Sat.solve s3)))
    [ -1; 2 ]

let test_card_exactly_shares_registers () =
  (* [exactly] builds one shared Sinz counter chain: (n-1)·k auxiliary
     registers, not a separate chain per bound. *)
  let s = Sat.create () in
  let vars = List.init 6 (fun _ -> Sat.fresh_var s) in
  Card.exactly s (List.map Lit.pos vars) 2;
  Alcotest.(check int) "aux registers" (6 + (5 * 2)) (Sat.num_vars s)

let popcount mask =
  let rec go acc m = if m = 0 then acc else go (acc + (m land 1)) (m lsr 1) in
  go 0 mask

(* The sweep covers every n up to 12, the widest port count of any
   profile, every k in 0..n and every input assignment, forced via
   assumptions: soundness and completeness of the network. *)
let card_sweep () =
  for n = 0 to 12 do
    for k = 0 to n do
      let s = Sat.create () in
      let vars = List.init n (fun _ -> Sat.fresh_var s) in
      Card.exactly s (List.map Lit.pos vars) k;
      for mask = 0 to (1 lsl n) - 1 do
        let assumptions =
          List.mapi (fun i v -> Lit.make v (mask land (1 lsl i) <> 0)) vars
        in
        let expected = popcount mask = k in
        if is_sat (Sat.solve ~assumptions s) <> expected then
          Alcotest.failf "n=%d k=%d mask=%d: expected %s" n k mask
            (if expected then "SAT" else "UNSAT")
      done
    done
  done

let prop_card_exactly_counts =
  QCheck2.Test.make ~name:"exactly-k models have k true vars" ~count:100
    QCheck2.Gen.(pair (int_range 1 7) (int_range 0 7))
    (fun (n, k) ->
       QCheck2.assume (k <= n);
       let s = Sat.create () in
       let vars = List.init n (fun _ -> Sat.fresh_var s) in
       Card.exactly s (List.map Lit.pos vars) k;
       match Sat.solve s with
       | Sat.Sat model -> count_true model vars = k
       | Sat.Unsat -> false)

(* ------------------------------------------------------------------ *)
(* Theory (CEGAR) driver                                               *)
(* ------------------------------------------------------------------ *)

let test_theory_loop () =
  (* Boolean skeleton: any subset of 4 vars.  Theory: "exactly the set
     {1,3} is allowed", communicated only through refutation lemmas. *)
  let s = Sat.create () in
  let vars = Array.init 4 (fun _ -> Sat.fresh_var s) in
  let target = [ false; true; false; true ] in
  let check model =
    let lemmas = ref [] in
    List.iteri
      (fun i want ->
         if model.(vars.(i)) <> want then
           lemmas := [ Lit.make vars.(i) want ] :: !lemmas)
      target;
    !lemmas
  in
  match Solver.solve ~check s with
  | Solver.Sat model ->
    List.iteri
      (fun i want -> Alcotest.(check bool) "theory model" want model.(vars.(i)))
      target
  | Solver.Unsat -> Alcotest.fail "theory-consistent model exists"

let test_theory_unsat () =
  (* The theory rejects every model of a 1-variable skeleton. *)
  let s = Sat.create () in
  let v = Sat.fresh_var s in
  let check model =
    [ [ Lit.make v (not model.(v)) ] ]
  in
  match Solver.solve ~check s with
  | Solver.Unsat -> ()
  | Solver.Sat _ -> Alcotest.fail "theory rejects everything"

(* Clause intake: after every [add_clause] the solver must be
   well-formed, and its clause database must mean exactly the reference
   simplification of what was added — sorted, deduplicated, no tautology,
   not satisfied at the root, root-false literals filtered.  The root
   assignment comes from unit clauses over distinct variables; the clause
   under test mixes duplicates, complementary pairs and literals already
   true or false there. *)
let prop_add_clause_intake =
  let n = 8 in
  let gen =
    let open QCheck2.Gen in
    let units =
      map
        (fun (vars, signs) ->
           List.mapi
             (fun i v -> Lit.make v (List.nth signs i))
             (List.sort_uniq Int.compare vars))
        (pair
           (list_size (int_range 0 4) (int_range 0 (n - 1)))
           (list_repeat n bool))
    in
    let clause =
      (* Half the clauses draw polarities from one fixed sign per variable,
         so they are never tautologies and reach the solver's store. *)
      bool >>= fun consistent ->
      list_repeat n bool >>= fun signs ->
      list_size (int_range 0 10)
        (map2
           (fun v pos -> Lit.make v (if consistent then List.nth signs v else pos))
           (int_range 0 (n - 1)) bool)
    in
    pair units clause
  in
  let print (units, clause) =
    let lits ls = String.concat " " (List.map Lit.to_string ls) in
    Printf.sprintf "units [%s] clause [%s]" (lits units) (lits clause)
  in
  QCheck2.Test.make ~name:"add_clause stores the reference simplification"
    ~count:500 ~print gen
    (fun (units, clause) ->
       let s = Sat.create () in
       for _ = 1 to n do
         ignore (Sat.fresh_var s)
       done;
       let root l =
         let v = Sat.root_value s (Lit.var l) in
         if Lit.is_pos l then v else -v
       in
       let holds mask l = (mask land (1 lsl Lit.var l) <> 0) = Lit.is_pos l in
       let added = ref [] in
       let intake c =
         let sorted = List.sort_uniq Int.compare c in
         let dropped =
           List.exists (fun l -> List.mem (Lit.negate l) sorted) sorted
           || List.exists (fun l -> root l = 1) sorted
         in
         let expected = List.filter (fun l -> root l = 0) sorted in
         Sat.add_clause s c;
         added := c :: !added;
         (match Sat.Invariants.check s with
          | Ok () -> ()
          | Error msg -> QCheck2.Test.fail_reportf "invariant: %s" msg);
         if Sat.okay s = (expected = [] && not dropped) then
           QCheck2.Test.fail_reportf "okay is %b" (Sat.okay s);
         (match expected with
          | [ l ] when (not dropped) && root l <> 1 ->
            QCheck2.Test.fail_reportf "unit %s not assigned at the root"
              (Lit.to_string l)
          | _ -> ());
         (* Under each full assignment the solver answers what the clauses
            added so far evaluate to. *)
         for mask = 0 to (1 lsl n) - 1 do
           let assumptions =
             List.init n (fun v -> Lit.make v (mask land (1 lsl v) <> 0))
           in
           if
             is_sat (Sat.solve ~assumptions s)
             <> List.for_all (List.exists (holds mask)) !added
           then QCheck2.Test.fail_reportf "verdict differs on mask %d" mask
         done
       in
       List.iter (fun l -> intake [ l ]) units;
       intake clause;
       true)

let qsuite tests = List.map QCheck_alcotest.to_alcotest tests

let () =
  Alcotest.run "smt"
    [ ("lit", [ Alcotest.test_case "encoding" `Quick test_lit_encoding ]);
      ("sat",
       [ Alcotest.test_case "trivial" `Quick test_sat_trivial;
         Alcotest.test_case "contradiction" `Quick test_sat_contradiction;
         Alcotest.test_case "implication chain" `Quick test_sat_implication_chain;
         Alcotest.test_case "pigeonhole 3/2" `Quick test_sat_pigeonhole_3_2;
         Alcotest.test_case "assumptions" `Quick test_sat_assumptions;
         Alcotest.test_case "incremental" `Quick test_sat_incremental;
         Alcotest.test_case "pigeonhole 6/5" `Slow test_sat_pigeonhole_6_5;
         Alcotest.test_case "pigeonhole family" `Slow test_sat_pigeonhole_family;
         Alcotest.test_case "reduction parity on pigeonhole 8/7" `Slow
           test_sat_reduction_parity_pigeonhole;
         Alcotest.test_case "solver statistics" `Quick test_sat_stats;
         Alcotest.test_case "default search path is pinned" `Quick
           test_sat_default_search_path;
         Alcotest.test_case "sanitizer on pigeonhole 6/5" `Slow
           test_sanitize_pigeonhole;
         Alcotest.test_case "sanitizer across incremental solves" `Quick
           test_sanitize_incremental ]
       @ qsuite
           [ prop_sat_matches_brute_force; prop_sat_3sat_stress;
             prop_sat_matches_dpll; prop_reduction_parity;
             prop_sanitize_random; prop_add_clause_intake ]);
      ("card",
       [ Alcotest.test_case "exactly" `Quick test_card_exactly;
         Alcotest.test_case "edge cases" `Quick test_card_edge_cases;
         Alcotest.test_case "shared registers" `Quick
           test_card_exactly_shares_registers;
         Alcotest.test_case "exactly is exact (exhaustive)" `Slow
           card_sweep ]
       @ qsuite [ prop_card_exactly_counts ]);
      ("theory",
       [ Alcotest.test_case "cegar loop" `Quick test_theory_loop;
         Alcotest.test_case "theory unsat" `Quick test_theory_unsat ]) ]
