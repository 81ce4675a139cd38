(* EncLint: solver-off static analysis of a constructed CEGIS encoding.

   The encoding layer hands us a [view] — rows with their activation
   literals and recorded cardinality networks, theory lemmas, frozen
   assumption literals, the cube-split hint — and the solver exposes its
   problem-clause database read-only.  Everything here runs without a
   single [Sat.solve] call:

   - structural checks walk the clause database and the guard layer
     (dead variables, duplicate/tautological clauses, networks missing
     their guard literal, retired-row literals still reachable, split
     hints over dead variables, frozen literals that no longer occur);
   - semantic checks re-verify every cardinality network against its
     declared bound by exhaustive enumeration of the input cone (a
     mini-DPLL decides each of the 2^n input assignments over the
     recorded clauses), and vet theory lemmas against an accepted
     assignment and against each other. *)

module Diag = Pmi_diag.Diag
module Lit = Pmi_smt.Lit
module Sat = Pmi_smt.Sat
module Card = Pmi_smt.Card

type severity = Diag.severity =
  | Error
  | Warning

let diag = Diag.make

type row = {
  subject : string;
  vars : int list;
  act : int;                          (* -1 when unguarded *)
  live : bool;
  networks : (int * Card.network) list;  (* (declared bound, network) *)
}

type view = {
  rows : row list;
  lemmas : Lit.t list list;
  frozen : Lit.t list;
  accepted : (int * bool) list;
  hint : int list;
}

let empty_view =
  { rows = []; lemmas = []; frozen = []; accepted = []; hint = [] }

(* ------------------------------------------------------------------ *)
(* A mini-DPLL for tiny cones                                          *)
(* ------------------------------------------------------------------ *)

(* Complete satisfiability check over a small clause list with some
   variables pre-assigned: unit propagation plus chronological branching.
   Cardinality networks are mostly unit-decided once their inputs are
   fixed, so branching depth is negligible; completeness is what matters
   (an approximation here would turn encoding bugs into false passes). *)
let rec dpll clauses assign =
  let value l =
    match Hashtbl.find_opt assign (Lit.var l) with
    | None -> 0
    | Some b -> if b = Lit.is_pos l then 1 else -1
  in
  let conflict = ref false in
  let unit_lit = ref (-1) in
  let branch_lit = ref (-1) in
  List.iter
    (fun c ->
       if not !conflict && not (List.exists (fun l -> value l = 1) c) then
         match List.filter (fun l -> value l = 0) c with
         | [] -> conflict := true
         | [ l ] -> if !unit_lit < 0 then unit_lit := l
         | l :: _ -> if !branch_lit < 0 then branch_lit := l)
    clauses;
  if !conflict then false
  else if !unit_lit >= 0 then begin
    let l = !unit_lit in
    Hashtbl.add assign (Lit.var l) (Lit.is_pos l);
    let r = dpll clauses assign in
    Hashtbl.remove assign (Lit.var l);
    r
  end
  else if !branch_lit < 0 then true
  else begin
    let v = Lit.var !branch_lit in
    Hashtbl.add assign v false;
    let r = dpll clauses assign in
    Hashtbl.remove assign v;
    r
    ||
    begin
      Hashtbl.add assign v true;
      let r = dpll clauses assign in
      Hashtbl.remove assign v;
      r
    end
  end

(* ------------------------------------------------------------------ *)
(* Semantic verification of one cardinality network                    *)
(* ------------------------------------------------------------------ *)

let popcount m =
  let c = ref 0 and m = ref m in
  while !m <> 0 do
    c := !c + (!m land 1);
    m := !m lsr 1
  done;
  !c

let check_network ~max_cone ~cone_memo ~subject ~declared push
    (net : Card.network) =
  if net.bound <> declared then
    push
      (diag "bound-mismatch" Error subject
         "%s network declares bound %d but the encoding asked for %d"
         (Card.kind_to_string net.kind) net.bound declared);
  List.iter
    (fun c ->
       if List.exists (fun l -> List.mem (Lit.negate l) c) c then
         push
           (diag "tautology" Warning subject
              "%s network emitted a tautological clause"
              (Card.kind_to_string net.kind)))
    net.clauses;
  let n = List.length net.inputs in
  let input_vars = List.map Lit.var net.inputs in
  let distinct = List.length (List.sort_uniq compare input_vars) = n in
  (* The exhaustive 2^n enumeration is memoizable on the network's shape:
     the [Card] builder is deterministic, so two networks with the same
     kind, bound, declared bound, input count and guardedness are
     identical up to variable renaming, and the dpll verdicts are
     renaming-invariant.  Only clean results are cached — a network that
     produced findings is re-checked (and re-reported) every time. *)
  let memo_key () =
    Printf.sprintf "%s/%d/%d/%d/%b"
      (Card.kind_to_string net.kind) net.bound declared n (net.guard <> None)
  in
  let memoized =
    match cone_memo with
    | Some m -> n <= max_cone && distinct && Hashtbl.mem m (memo_key ())
    | None -> false
  in
  if n <= max_cone && distinct && not memoized then begin
    let clean = ref true in
    let push d =
      clean := false;
      push d
    in
    let expected count =
      match net.kind with
      | Card.At_most -> count <= net.bound
      | Card.At_least -> count >= net.bound
      | Card.Exactly -> count = net.bound
    in
    (* Vacuity: with the guard literal satisfied the whole network must be
       satisfiable regardless of the inputs — this is the semantic face of
       the dropped-guard mutation (a clause missing its guard can force
       registers even when the row is retired). *)
    (match net.guard with
     | None -> ()
     | Some g ->
       let vacuous = ref true in
       let m = ref 0 in
       while !vacuous && !m < 1 lsl n do
         let assign = Hashtbl.create 16 in
         Hashtbl.add assign (Lit.var g) (Lit.is_pos g);
         List.iteri
           (fun i l ->
              let bit = !m land (1 lsl i) <> 0 in
              Hashtbl.replace assign (Lit.var l)
                (if Lit.is_pos l then bit else not bit))
           net.inputs;
         if not (dpll net.clauses assign) then vacuous := false;
         incr m
       done;
       if not !vacuous then
         push
           (diag "card-guard" Error subject
              "%s-%d network stays binding with its guard satisfied: some \
               clause is missing the guard literal"
              (Card.kind_to_string net.kind) net.bound));
    (* Active semantics: with the guard falsified (constraint live), the
       network must be satisfiable exactly on the input assignments whose
       true-count meets the declared bound. *)
    let bad = ref None in
    let m = ref 0 in
    while !bad = None && !m < 1 lsl n do
      let assign = Hashtbl.create 16 in
      (match net.guard with
       | None -> ()
       | Some g -> Hashtbl.add assign (Lit.var g) (not (Lit.is_pos g)));
      List.iteri
        (fun i l ->
           let bit = !m land (1 lsl i) <> 0 in
           Hashtbl.replace assign (Lit.var l)
             (if Lit.is_pos l then bit else not bit))
        net.inputs;
      let count = popcount !m in
      if dpll net.clauses assign <> expected count then
        bad := Some count;
      incr m
    done;
    (match !bad with
     | None -> ()
     | Some count ->
       push
         (diag "card-bound" Error subject
            "%s-%d network over %d inputs %s an assignment with %d true \
             inputs: encoded bound disagrees with the declared one"
            (Card.kind_to_string net.kind) net.bound n
            (if expected count then "rejects" else "accepts")
            count));
    match cone_memo with
    | Some m when !clean -> Hashtbl.replace m (memo_key ()) ()
    | _ -> ()
  end

(* ------------------------------------------------------------------ *)
(* Full analysis                                                       *)
(* ------------------------------------------------------------------ *)
let analyze ?(max_cone = 12) ?cone_memo ?(db = true) sat view =
  let out = ref [] in
  let push d = out := d :: !out in
  let nv = Sat.num_vars sat in
  let lit_root l =
    let v = Sat.root_value sat (Lit.var l) in
    if v = 0 then 0 else if (v = 1) = Lit.is_pos l then 1 else -1
  in
  let root_satisfied c = List.exists (fun l -> lit_root l = 1) c in
  (* Retired-row bookkeeping, shared by several passes below. *)
  let retired = Hashtbl.create 16 in
  let retired_owned = Hashtbl.create 16 in
  List.iter
    (fun r ->
       if not r.live then begin
         List.iter
           (fun v ->
              Hashtbl.replace retired v r.subject;
              Hashtbl.replace retired_owned v ())
           r.vars;
         if r.act >= 0 then begin
           Hashtbl.replace retired r.act r.subject;
           Hashtbl.replace retired_owned r.act ()
         end;
         List.iter
           (fun (_, (net : Card.network)) ->
              List.iter (fun v -> Hashtbl.replace retired_owned v ()) net.aux)
           r.networks
       end)
    view.rows;
  (* Database passes.  One fused walk over the problem clauses computes
     literal occurrence, the duplicate-detection fingerprint buckets and
     the materialized long-clause lists (reused by the retired-reachable
     scan) in a single traversal; [db = false] skips all of it — the CEGIS
     gate analyzes a solver's database once and re-checks only the view
     layer on later episodes of the same solver. *)
  if db then begin
    let occurs = Array.make (max 1 nv) false in
    let mark l =
      let v = Lit.var l in
      if v >= 0 && v < nv then occurs.(v) <- true
    in
    (* Duplicate clauses (binary + long): bucket by a cheap
       order-insensitive fingerprint mixed into one int; only clauses in a
       colliding bucket pay the canonical sort, so a database of thousands
       of distinct lemmas stays near-linear. *)
    let buckets : (int, Lit.t list list) Hashtbl.t = Hashtbl.create 64 in
    let visit c =
      let len = ref 0 and sum = ref 0 and x = ref 0 in
      List.iter
        (fun l ->
           mark l;
           incr len;
           sum := !sum + l;
           x := !x lxor l)
        c;
      let key = (!len * 0x9e3779b1) lxor !sum lxor (!x * 31) in
      Hashtbl.replace buckets key
        (c :: Option.value ~default:[] (Hashtbl.find_opt buckets key))
    in
    (* The long-clause list is only re-read by the retired-reachable scan;
       without retired rows, visiting is enough. *)
    let keep_longs = Hashtbl.length retired > 0 in
    let longs = ref [] in
    Sat.iter_long_problem_clauses sat (fun _ lits ->
        if keep_longs then longs := lits :: !longs;
        visit lits);
    let bins = Sat.binary_problem_clauses sat in
    List.iter (fun (a, b) -> visit [ a; b ]) bins;
    List.iter mark (Sat.root_units sat);
    (* Dead variables: allocated, never constrained, never assigned.  The
       solver will branch on them and double the model count for nothing.
       Retired rows are exempt: once the guard is forced off their
       variables carry no meaning. *)
    for v = 0 to nv - 1 do
      if
        (not occurs.(v))
        && Sat.root_value sat v = 0
        && not (Hashtbl.mem retired_owned v)
      then
        push
          (diag "dead-var" Warning
             (match Sat.var_name sat v with
              | Some n -> n
              | None -> Printf.sprintf "var %d" (v + 1))
             "variable occurs in no problem clause and is not root-assigned")
    done;
    Hashtbl.iter
      (fun _ cs ->
         match cs with
         | [] | [ _ ] -> ()
         | cs ->
           let canon_counts = Hashtbl.create 4 in
           List.iter
             (fun c ->
                let key = List.sort_uniq (fun (a : int) b -> compare a b) c in
                Hashtbl.replace canon_counts key
                  (1
                   + Option.value ~default:0
                       (Hashtbl.find_opt canon_counts key)))
             cs;
           Hashtbl.iter
             (fun key n ->
                if n > 1 then
                  push
                    (diag "duplicate-clause" Warning "clause database"
                       "a %d-literal clause appears %d times"
                       (List.length key) n))
             canon_counts)
      buckets;
    (* Retired rows: their literals must be unreachable from live clauses.
       Every clause that mentions one must be root-satisfied (by the ¬act
       retirement unit or otherwise) — anything else re-animates a dead
       delta row. *)
    if Hashtbl.length retired > 0 then begin
      let flagged = Hashtbl.create 8 in
      let scan c =
        if not (root_satisfied c) then
          List.iter
            (fun l ->
               match Hashtbl.find_opt retired (Lit.var l) with
               | Some subject when not (Hashtbl.mem flagged subject) ->
                 Hashtbl.replace flagged subject ();
                 push
                   (diag "retired-reachable" Error subject
                      "retired row literal occurs in a live clause that \
                       is not root-satisfied")
               | _ -> ())
            c
      in
      List.iter scan !longs;
      List.iter (fun (a, b) -> scan [ a; b ]) bins
    end;
    (* Frozen assumption literals must still occur somewhere, or the
       freeze pins a variable nothing reads. *)
    List.iter
      (fun l ->
         let v = Lit.var l in
         if v >= 0 && v < nv && not occurs.(v) then
           push
             (diag "frozen-unused" Warning
                (Printf.sprintf "frozen var %d" (v + 1))
                "frozen assumption literal occurs in no problem clause"))
      view.frozen
  end;
  (* Guard layer. *)
  let guarded = List.exists (fun r -> r.act >= 0) view.rows in
  List.iter
    (fun r ->
       if guarded && r.live && r.act < 0 then
         push
           (diag "unguarded-row" Error r.subject
              "row has no activation literal in an encoding where other \
               rows are guarded: it can never be retired");
       if r.act >= 0 then begin
         let g = Lit.neg_of_var r.act in
         List.iter
           (fun (_, (net : Card.network)) ->
              (match net.guard with
               | Some g' when g' = g -> ()
               | Some _ ->
                 push
                   (diag "missing-guard" Error r.subject
                      "%s network is guarded by a different literal than \
                       the row's activation"
                      (Card.kind_to_string net.kind))
               | None ->
                 push
                   (diag "missing-guard" Error r.subject
                      "%s network of a guarded row carries no guard literal"
                      (Card.kind_to_string net.kind)));
              List.iter
                (fun c ->
                   if not (List.mem g c) then
                     push
                       (diag "missing-guard" Error r.subject
                          "network clause is missing the row's ¬act guard \
                           literal"))
                net.clauses)
           r.networks
       end)
    view.rows;
  (* Retired activation literals must be false at the root regardless of
     [db] — this is the view-layer face of retirement. *)
  List.iter
    (fun r ->
       if (not r.live) && r.act >= 0 && Sat.root_value sat r.act <> -1 then
         push
           (diag "retired-reachable" Error r.subject
              "retired row's activation literal is not false at the \
               root: its constraints are still in force"))
    view.rows;
  (* Split hint: cube-and-conquer must never split on a decided or retired
     variable — each such cube halves the search space on paper only. *)
  List.iter
    (fun v ->
       if Sat.root_value sat v <> 0 then
         push
           (diag "split-dead" Error
              (Printf.sprintf "split_hint var %d" (v + 1))
              "cube-split hint proposes a root-assigned variable")
       else
         match Hashtbl.find_opt retired v with
         | Some subject ->
           push
             (diag "split-dead" Error subject
                "cube-split hint proposes a variable of a retired row")
         | None -> ())
    view.hint;
  (* Semantic cardinality verification. *)
  List.iter
    (fun r ->
       List.iter
         (fun (declared, net) ->
            check_network ~max_cone ~cone_memo ~subject:r.subject ~declared
              push net)
         r.networks)
    view.rows;
  (* Theory lemmas: consistency with the accepted assignment (under active
     guards) and mutual redundancy. *)
  let accepted = Hashtbl.create 16 in
  List.iter (fun (v, b) -> Hashtbl.replace accepted v b) view.accepted;
  let live_acts = Hashtbl.create 16 in
  List.iter
    (fun r -> if r.live && r.act >= 0 then Hashtbl.replace live_acts r.act ())
    view.rows;
  let lemma_lit_false l =
    let v = Lit.var l in
    if Hashtbl.mem live_acts v then
      (* Guard active: act true, so the ¬act disjunct is false. *)
      not (Lit.is_pos l)
    else
      match Hashtbl.find_opt accepted v with
      | Some b -> b <> Lit.is_pos l
      | None -> lit_root l = -1
  in
  if view.accepted <> [] then
    List.iteri
      (fun i lemma ->
         if lemma <> [] && List.for_all lemma_lit_false lemma then
           push
             (diag "lemma-conflict" Error
                (Printf.sprintf "lemma %d" i)
                "theory lemma contradicts the accepted assignment with \
                 every guard active"))
      view.lemmas;
  (* Pairwise lemma subsumption is quadratic, so it is capped: count with
     early exit BEFORE any per-lemma work, then compare sorted int arrays
     with a two-pointer subset walk. *)
  let rec length_at_most k = function
    | [] -> true
    | _ :: t -> k > 0 && length_at_most (k - 1) t
  in
  if view.lemmas <> [] && length_at_most 256 view.lemmas then begin
    let lemmas =
      Array.of_list
        (List.map
           (fun c ->
              let a = Array.of_list c in
              Array.sort (fun (a : int) b -> compare a b) a;
              a)
           view.lemmas)
    in
    let subset (d : int array) (c : int array) =
      (* Both sorted; duplicates within a lemma are harmless. *)
      let nd = Array.length d and nc = Array.length c in
      let i = ref 0 and j = ref 0 in
      while !i < nd && !j < nc do
        if d.(!i) = c.(!j) then incr i
        else if d.(!i) > c.(!j) then incr j
        else j := nc + 1 (* d.(i) missing from c *)
      done;
      !i = nd
    in
    Array.iteri
      (fun j c ->
         let lc = Array.length c in
         let subsumed = ref false in
         Array.iteri
           (fun i d ->
              if
                (not !subsumed)
                && i <> j
                && (Array.length d < lc || (Array.length d = lc && i < j))
                && subset d c
              then subsumed := true)
           lemmas;
         if !subsumed then
           push
             (diag "lemma-subsumed" Warning
                (Printf.sprintf "lemma %d" j)
                "theory lemma is subsumed by another lemma"))
      lemmas
  end;
  List.rev !out
