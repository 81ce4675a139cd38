open Pmi_smt
module Scheme = Pmi_isa.Scheme
module Portset = Pmi_portmap.Portset
module Mapping = Pmi_portmap.Mapping

type instr_spec =
  | Proper of int
  | Improper of { own_ports : int }

type row = {
  scheme : Scheme.t;
  spec : instr_spec;
  own : int array;             (* own µop variables, one per port *)
  shared : int array;          (* improper only: shared µop variables *)
  act : int;                   (* activation variable; -1 = unguarded *)
  mutable live : bool;         (* false once the row has been retired *)
}

type t = {
  solver : Sat.t;
  num_ports : int;
  mutable rows : row array;
}

let sat t = t.solver
let num_ports t = t.num_ports

(* Every observable view of the encoding ranges over the live rows only:
   a retired row's variables stay in the solver (its guarded clauses are
   inert once the activation literal is unit-negated) but it no longer
   takes part in decode/freeze/lemma construction. *)
let live_rows t = Array.to_list t.rows |> List.filter (fun r -> r.live)

let schemes t = List.map (fun r -> (r.scheme, r.spec)) (live_rows t)

let has_scheme t scheme =
  List.exists (fun r -> Scheme.equal r.scheme scheme) (live_rows t)

let check_count num_ports c =
  if c < 1 || c > num_ports then
    invalid_arg "Encoding: port count out of range"

let create ~num_ports ?(symmetry_breaking = true) ?(certify = false) specs =
  if num_ports <= 0 then invalid_arg "Encoding.create: num_ports";
  let solver = Sat.create () in
  (* Proof logging must precede every clause, otherwise the trace lacks the
     axioms later derivations resolve against. *)
  if certify then Sat.set_proof_logging solver true;
  let fresh_row () = Array.init num_ports (fun _ -> Sat.fresh_var solver) in
  let proper_indices =
    List.filteri (fun _ (_, spec) -> match spec with Proper _ -> true | Improper _ -> false)
      specs
    |> List.length
  in
  if
    proper_indices = 0
    && List.exists (fun (_, s) -> match s with Improper _ -> true | Proper _ -> false) specs
  then invalid_arg "Encoding.create: improper instruction without proper ones";
  let rows =
    Array.of_list
      (List.map
         (fun (scheme, spec) ->
            (match spec with
             | Proper c -> check_count num_ports c
             | Improper { own_ports } -> check_count num_ports own_ports);
            { scheme; spec; own = fresh_row (); shared = [||]; act = -1;
              live = true })
         specs)
  in
  (* Cardinality of every own µop. *)
  Array.iter
    (fun row ->
       let count =
         match row.spec with Proper c -> c | Improper { own_ports } -> own_ports
       in
       Card.exactly solver (Array.to_list (Array.map Lit.pos row.own)) count)
    rows;
  (* Shared µops of improper instructions.  The partner may be any proper
     blocking instruction's µop, or the own µop of another improper one:
     on layouts where the store µop is wider than one port, the store
     blockers share that µop among themselves rather than with a proper
     class. *)
  let rows =
    Array.map
      (fun row ->
         match row.spec with
         | Proper _ -> row
         | Improper _ ->
           let partners =
             Array.to_list rows
             |> List.filter (fun r -> not (Scheme.equal r.scheme row.scheme))
           in
           let shared = fresh_row () in
           let selectors =
             Array.of_list (List.map (fun _ -> Sat.fresh_var solver) partners)
           in
           Card.exactly solver (Array.to_list (Array.map Lit.pos selectors)) 1;
           List.iteri
             (fun j partner ->
                for k = 0 to num_ports - 1 do
                  (* selectors.(j) -> (shared.(k) <-> partner.own.(k)) *)
                  Sat.add_clause solver
                    [ Lit.neg_of_var selectors.(j);
                      Lit.neg_of_var shared.(k);
                      Lit.pos partner.own.(k) ];
                  Sat.add_clause solver
                    [ Lit.neg_of_var selectors.(j);
                      Lit.pos shared.(k);
                      Lit.neg_of_var partner.own.(k) ]
                done)
             partners;
           { row with shared })
      rows
  in
  let t = { solver; num_ports; rows } in
  if symmetry_breaking then begin
    (* Columns (ports), read along the proper rows, are lexicographically
       non-increasing: col k >= col k+1. *)
    let proper_bits k =
      Array.to_list rows
      |> List.filter_map
           (fun r ->
              match r.spec with
              | Proper _ -> Some r.own.(k)
              | Improper _ -> None)
    in
    for k = 0 to num_ports - 2 do
      let xs = proper_bits k and ys = proper_bits (k + 1) in
      (* a_r: rows 0..r-1 of the two columns are equal.  a_0 is true. *)
      let rec go prefix_equal xs ys =
        match (xs, ys) with
        | [], [] -> ()
        | x :: xs', y :: ys' ->
          (* prefix equal -> x >= y *)
          (match prefix_equal with
           | None -> Sat.add_clause solver [ Lit.pos x; Lit.neg_of_var y ]
           | Some a ->
             Sat.add_clause solver
               [ Lit.neg_of_var a; Lit.pos x; Lit.neg_of_var y ]);
          if xs' <> [] then begin
            let a' = Sat.fresh_var solver in
            (* a' <-> prefix_equal /\ (x <-> y) *)
            let prefix_lits =
              match prefix_equal with
              | None -> []
              | Some a -> [ a ]
            in
            List.iter
              (fun a ->
                 Sat.add_clause solver [ Lit.neg_of_var a'; Lit.pos a ])
              prefix_lits;
            Sat.add_clause solver
              [ Lit.neg_of_var a'; Lit.neg_of_var x; Lit.pos y ];
            Sat.add_clause solver
              [ Lit.neg_of_var a'; Lit.pos x; Lit.neg_of_var y ];
            (* reverse: prefix_equal /\ (x <-> y) -> a'. *)
            let base = List.map Lit.neg_of_var prefix_lits in
            Sat.add_clause solver
              (Lit.pos a' :: Lit.pos x :: Lit.pos y :: base);
            Sat.add_clause solver
              (Lit.pos a' :: Lit.neg_of_var x :: Lit.neg_of_var y :: base);
            go (Some a') xs' ys'
          end
        | _, _ -> assert false
      in
      go None xs ys
    done
  end;
  t

(* ------------------------------------------------------------------ *)
(* Guarded rows: append and activation-literal retirement             *)
(* ------------------------------------------------------------------ *)

let append_row t scheme spec =
  let count =
    match spec with
    | Proper c -> c
    | Improper _ ->
      (* Improper rows need the selector machinery over a partner set that
         would itself have to follow appends/retirements. *)
      invalid_arg "Encoding.append_row: improper rows are not appendable"
  in
  check_count t.num_ports count;
  if has_scheme t scheme then
    invalid_arg "Encoding.append_row: scheme already has a live row";
  let own = Array.init t.num_ports (fun _ -> Sat.fresh_var t.solver) in
  let act = Sat.fresh_var t.solver in
  (* The cardinality chain binds only while [act] is assumed: retiring the
     row is one unit clause, no encoding rebuild. *)
  Card.exactly ~guard:(Lit.neg_of_var act) t.solver
    (Array.to_list (Array.map Lit.pos own))
    count;
  let row = { scheme; spec; own; shared = [||]; act; live = true } in
  t.rows <- Array.append t.rows [| row |]

let retire_row t scheme =
  match
    List.find_opt
      (fun r -> r.live && Scheme.equal r.scheme scheme)
      (Array.to_list t.rows)
  with
  | None -> invalid_arg "Encoding.retire_row: no live row for scheme"
  | Some row ->
    if row.act < 0 then
      invalid_arg "Encoding.retire_row: row has no activation literal";
    (* Dropping the activation literal permanently deactivates the row's
       cardinality chain and every lemma that mentions the row (lemmas are
       guarded by the activation literals of the rows they touch). *)
    Sat.add_clause t.solver [ Lit.neg_of_var row.act ];
    row.live <- false

let row_assumptions t =
  List.filter_map
    (fun r -> if r.act >= 0 then Some (Lit.pos r.act) else None)
    (live_rows t)

let row_mask model vars =
  let m = ref 0 in
  Array.iteri (fun k v -> if model.(v) then m := !m lor (1 lsl k)) vars;
  !m

let ports_of_row model vars = Portset.of_mask (row_mask model vars)

let row_usage row ~own ~shared =
  match row.spec with
  | Proper _ -> [ (Portset.of_mask own, 1) ]
  | Improper _ -> [ (Portset.of_mask own, 1); (Portset.of_mask shared, 1) ]

let decode t model =
  let mapping = Mapping.create ~num_ports:t.num_ports in
  List.iter
    (fun row ->
       Mapping.set mapping row.scheme
         (row_usage row ~own:(row_mask model row.own)
            ~shared:(row_mask model row.shared)))
    (live_rows t);
  mapping

let mapping_vars t =
  Array.concat
    (List.concat_map (fun r -> [ r.own; r.shared ]) (live_rows t))

let row_index t scheme =
  let rec find i =
    if i = Array.length t.rows then -1
    else if t.rows.(i).live && Scheme.equal t.rows.(i).scheme scheme then i
    else find (i + 1)
  in
  find 0

(* ------------------------------------------------------------------ *)
(* Incremental decoding                                                *)
(* ------------------------------------------------------------------ *)

type decoder = {
  enc : t;
  mapping : Mapping.t;
  masks : int array;  (* per row: own and shared port masks as last
                         decoded; -1, which no model yields, before *)
}

let decoder t =
  { enc = t;
    mapping = Mapping.create ~num_ports:t.num_ports;
    masks = Array.make (2 * Array.length t.rows) (-1) }

let decoded d = d.mapping

let redecode d model =
  let rows = d.enc.rows and masks = d.masks in
  if 2 * Array.length rows <> Array.length masks then
    invalid_arg "Encoding.redecode: the encoding's rows changed";
  Array.mapi
    (fun i row ->
       row.live
       &&
       let own = row_mask model row.own and shared = row_mask model row.shared in
       let changed = own <> masks.(2 * i) || shared <> masks.((2 * i) + 1) in
       if changed then begin
         masks.(2 * i) <- own;
         masks.((2 * i) + 1) <- shared;
         Mapping.set d.mapping row.scheme (row_usage row ~own ~shared)
       end;
       changed)
    rows

let pin_row lits row usage =
  let assert_row vars ports =
    Array.iteri
      (fun k v ->
         lits := (if Portset.mem k ports then Lit.pos v else Lit.neg_of_var v) :: !lits)
      vars
  in
  match (row.spec, usage) with
  | Proper _, [ (ports, 1) ] -> assert_row row.own ports
  | Improper _, [ (a, 1); (b, 1) ] ->
    (* The improper usage is stored canonically (sorted by port set);
       try both orientations of (own, shared). *)
    let own_count =
      match row.spec with
      | Improper { own_ports } -> own_ports
      | Proper _ -> assert false
    in
    let own, shared =
      if Portset.cardinal a = own_count then (a, b) else (b, a)
    in
    assert_row row.own own;
    assert_row row.shared shared
  | (Proper _ | Improper _), _ ->
    invalid_arg "Encoding: µop structure mismatch"

let freeze_lits t mapping =
  let lits = ref [] in
  List.iter
    (fun row ->
       match Mapping.find_opt mapping row.scheme with
       | Some usage -> pin_row lits row usage
       | None -> ())
    (live_rows t);
  !lits

(* A lemma over the live rows of [schemes]: [refute] turns each µop row's
   variables (own, then shared) into literals.  Guarded rows scope the
   lemma to their own lifetime: once the row is retired (act unit-negated)
   the clause is satisfied and inert, exactly like the cardinality chain
   it refutes. *)
let row_lemma t schemes refute =
  let interesting s = List.exists (Scheme.equal s) schemes in
  List.concat_map
    (fun row ->
       if not (interesting row.scheme) then []
       else
         (if row.act >= 0 then [ Lit.neg_of_var row.act ] else [])
         @ refute row.own @ refute row.shared)
    (live_rows t)

let block_model t model =
  row_lemma t
    (List.map (fun r -> r.scheme) (live_rows t))
    (fun vars ->
       Array.to_list vars
       |> List.map (fun v -> if model.(v) then Lit.neg_of_var v else Lit.pos v))

type violation =
  | Too_slow of Portset.t
  | Too_fast

(* Bottleneck-set lemmas (§2.2).  Too slow: every mapping that keeps the
   µops lying inside the bottleneck Q inside Q has at least the model's
   mass on Q, so it is at least as slow; the clause demands that one of
   them leaves Q.  Too fast: every mapping whose µop port sets contain the
   model's is at least as fast, so one true literal must go.  Each µop
   row — own and shared alike — is judged on its own. *)
let block_bottleneck t model schemes violation =
  row_lemma t schemes (fun vars ->
      let lits = ref [] in
      (match violation with
       | Too_slow q ->
         if Portset.subset (ports_of_row model vars) q then
           Array.iteri
             (fun k v ->
                if not (Portset.mem k q) then lits := Lit.pos v :: !lits)
             vars
       | Too_fast ->
         Array.iter
           (fun v -> if model.(v) then lits := Lit.neg_of_var v :: !lits)
           vars);
      !lits)
