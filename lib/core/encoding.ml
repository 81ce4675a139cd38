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
}

type t = {
  solver : Sat.t;
  num_ports : int;
  rows : row array;
}

let sat t = t.solver
let num_ports t = t.num_ports

let schemes t = Array.to_list (Array.map (fun r -> (r.scheme, r.spec)) t.rows)

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
            { scheme; spec; own = fresh_row (); shared = [||] })
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
  Array.iter
    (fun row ->
       Mapping.set mapping row.scheme
         (row_usage row ~own:(row_mask model row.own)
            ~shared:(row_mask model row.shared)))
    t.rows;
  mapping

let mapping_vars t =
  Array.concat
    (List.concat_map (fun r -> [ r.own; r.shared ]) (Array.to_list t.rows))

let row_index t scheme =
  let rec find i =
    if i = Array.length t.rows then -1
    else if Scheme.equal t.rows.(i).scheme scheme then i
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
  let masks = d.masks in
  Array.mapi
    (fun i row ->
       let own = row_mask model row.own and shared = row_mask model row.shared in
       let changed = own <> masks.(2 * i) || shared <> masks.((2 * i) + 1) in
       if changed then begin
         masks.(2 * i) <- own;
         masks.((2 * i) + 1) <- shared;
         Mapping.set d.mapping row.scheme (row_usage row ~own ~shared)
       end;
       changed)
    d.enc.rows

(* A lemma over the rows of [schemes]: [refute] turns each µop row's
   variables (own, then shared) into literals. *)
let row_lemma t schemes refute =
  let interesting s = List.exists (Scheme.equal s) schemes in
  List.concat_map
    (fun row ->
       if not (interesting row.scheme) then []
       else refute row.own @ refute row.shared)
    (Array.to_list t.rows)

let block_model t model =
  let refute vars =
    Array.to_list vars
    |> List.map (fun v -> if model.(v) then Lit.neg_of_var v else Lit.pos v)
  in
  List.concat_map (fun row -> refute row.own @ refute row.shared)
    (Array.to_list t.rows)

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
