(* EncLint: the solver-off static analyzer over CEGIS encodings.

   Two families of tests:
   - clean built-in encodings (creation-time, guarded append/retire, and a
     creation-time encoding after rounds of theory lemmas) must produce
     no findings, or no errors once lemmas are in — no false positives;
   - seeded mutations (dropped guard, wrong cardinality bound, unguarded
     appended row, duplicate clause, reachable retired rows) must each be
     flagged with the right rule. *)

open Pmi_smt
module Enclint = Pmi_analysis.Enclint
module Diag = Pmi_diag.Diag
module Encoding = Pmi_core.Encoding
module Catalog = Pmi_isa.Catalog
module Operand = Pmi_isa.Operand
module Iclass = Pmi_isa.Iclass
module Portset = Pmi_portmap.Portset

let has_rule rule diags = List.exists (fun d -> d.Diag.rule = rule) diags

let show diags = String.concat "; " (List.map Diag.to_string diags)

let check_clean label diags =
  if diags <> [] then
    Alcotest.failf "%s: expected no findings, got %s" label (show diags)

let expect_error rule diags =
  if not (List.exists (fun d -> d.Diag.rule = rule) (Diag.errors diags)) then
    Alcotest.failf "expected an %s error, got %s" rule (show diags)

let toy_catalog n =
  Catalog.of_list
    (List.init n (fun i ->
         (Printf.sprintf "i%c" (Char.chr (Char.code 'A' + i)),
          [ Operand.gpr 32 ], Iclass.plain (Iclass.Single Iclass.Alu))))

(* ------------------------------------------------------------------ *)
(* Clean encodings: no false positives                                 *)
(* ------------------------------------------------------------------ *)

let test_clean_creation () =
  let catalog = toy_catalog 3 in
  let encoding =
    Encoding.create ~num_ports:3 ~symmetry_breaking:true
      [ (Catalog.find catalog 0, Encoding.Proper 2);
        (Catalog.find catalog 1, Encoding.Proper 2);
        (Catalog.find catalog 2, Encoding.Proper 1) ]
  in
  check_clean "creation"
    (Enclint.analyze (Encoding.sat encoding) (Encoding.enclint_view encoding))

let test_clean_improper () =
  (* Store-blocker machinery: shared µops and selector networks. *)
  let catalog = toy_catalog 3 in
  let encoding =
    Encoding.create ~num_ports:3 ~symmetry_breaking:true
      [ (Catalog.find catalog 0, Encoding.Proper 2);
        (Catalog.find catalog 1, Encoding.Proper 1);
        (Catalog.find catalog 2, Encoding.Improper { own_ports = 1 }) ]
  in
  check_clean "improper"
    (Enclint.analyze (Encoding.sat encoding) (Encoding.enclint_view encoding))

let test_clean_with_lemmas () =
  (* The lemma-heavy database a CEGIS solver carries: rounds of footprint
     and bottleneck lemmas (both violation directions) over a
     creation-time encoding with a store-blocker row.  Lemmas may repeat
     or subsume one another, which is waste at most, never an error. *)
  let catalog = toy_catalog 3 in
  let schemes = List.init 3 (Catalog.find catalog) in
  let encoding =
    Encoding.create ~num_ports:3 ~symmetry_breaking:true
      (List.combine schemes
         [ Encoding.Proper 2; Encoding.Proper 1;
           Encoding.Improper { own_ports = 1 } ])
  in
  let sat = Encoding.sat encoding in
  let rec rounds n =
    if n > 0 then
      match Sat.solve sat with
      | Sat.Unsat -> ()
      | Sat.Sat model ->
        let some = [ List.nth schemes (n mod 3) ] in
        List.iter (Sat.add_clause sat)
          [ Encoding.block_bottleneck encoding model schemes
              (Encoding.Too_slow (Portset.of_list [ 0; 1 ]));
            Encoding.block_bottleneck encoding model some Encoding.Too_fast;
            Encoding.block_footprint encoding model some;
            Encoding.block_model encoding model ];
        rounds (n - 1)
  in
  rounds 8;
  let diags = Enclint.analyze sat (Encoding.enclint_view encoding) in
  if Diag.errors diags <> [] then
    Alcotest.failf "lemmas: expected no errors, got %s" (show diags)

let guarded_encoding () =
  let catalog = toy_catalog 3 in
  let encoding = Encoding.create ~num_ports:3 ~symmetry_breaking:false [] in
  Encoding.append_row encoding (Catalog.find catalog 0) (Encoding.Proper 2);
  Encoding.append_row encoding (Catalog.find catalog 1) (Encoding.Proper 2);
  Encoding.append_row encoding (Catalog.find catalog 2) (Encoding.Proper 1);
  (catalog, encoding)

let test_clean_guarded () =
  let catalog, encoding = guarded_encoding () in
  Encoding.retire_row encoding (Catalog.find catalog 1);
  Encoding.append_row encoding (Catalog.find catalog 1) (Encoding.Proper 3);
  check_clean "guarded"
    (Enclint.analyze (Encoding.sat encoding)
       (Encoding.enclint_view
          ~frozen:(Encoding.row_assumptions encoding)
          encoding))

(* ------------------------------------------------------------------ *)
(* Seeded mutations                                                    *)
(* ------------------------------------------------------------------ *)

let row ?(subject = "row mut") ?(act = -1) ?(live = true) ~vars networks =
  { Enclint.subject; vars; act; live; networks }

let view ~rows () = { Enclint.empty_view with Enclint.rows }

let test_flags_dropped_guard () =
  (* The row claims activation variable [act], but its network was built
     without the guard: both the metadata check and the per-clause ¬act
     scan must fire. *)
  let s = Sat.create () in
  let act = Sat.fresh_var s in
  let vars = List.init 3 (fun _ -> Sat.fresh_var s) in
  let net = Card.exactly s (List.map Lit.pos vars) 1 in
  let diags =
    Enclint.analyze s (view ~rows:[ row ~act ~vars [ (1, net) ] ] ())
  in
  expect_error "missing-guard" diags

let test_flags_dropped_guard_semantic () =
  (* The subtler bug: the network records a guard, but some clause lost
     the literal — with the guard satisfied the network must be vacuously
     satisfiable, and a stripped clause can still bind.  Caught by the
     exhaustive vacuity sweep, not by metadata. *)
  let s = Sat.create () in
  let act = Sat.fresh_var s in
  let g = Lit.neg_of_var act in
  let vars = List.init 3 (fun _ -> Sat.fresh_var s) in
  let net = Card.exactly ~guard:g s (List.map Lit.pos vars) 1 in
  let forged =
    { net with
      Card.clauses = List.map (List.filter (fun l -> l <> g)) net.Card.clauses }
  in
  let diags =
    Enclint.analyze s (view ~rows:[ row ~act ~vars [ (1, forged) ] ] ())
  in
  expect_error "card-guard" diags

let test_flags_wrong_bound () =
  (* Declared bound 2, encoded bound 1: the record disagrees with what the
     encoding asked for (bound-mismatch), and forging the record to agree
     still trips the exhaustive enumeration (card-bound). *)
  let s = Sat.create () in
  let vars = List.init 4 (fun _ -> Sat.fresh_var s) in
  let net = Card.exactly s (List.map Lit.pos vars) 1 in
  expect_error "bound-mismatch"
    (Enclint.analyze s (view ~rows:[ row ~vars [ (2, net) ] ] ()));
  let forged = { net with Card.bound = 2 } in
  expect_error "card-bound"
    (Enclint.analyze s (view ~rows:[ row ~vars [ (2, forged) ] ] ()))

let test_flags_unguarded_row () =
  (* A live row without an activation literal in an encoding where other
     rows are guarded can never be retired. *)
  let s = Sat.create () in
  let act = Sat.fresh_var s in
  let g = Lit.neg_of_var act in
  let vars1 = List.init 2 (fun _ -> Sat.fresh_var s) in
  let net1 = Card.exactly ~guard:g s (List.map Lit.pos vars1) 1 in
  let vars2 = List.init 2 (fun _ -> Sat.fresh_var s) in
  let net2 = Card.exactly s (List.map Lit.pos vars2) 1 in
  let diags =
    Enclint.analyze s
      (view
         ~rows:
           [ row ~subject:"guarded" ~act ~vars:vars1 [ (1, net1) ];
             row ~subject:"unguarded" ~vars:vars2 [ (1, net2) ] ]
         ())
  in
  expect_error "unguarded-row" diags

let test_flags_duplicate_clause () =
  let s = Sat.create () in
  let vars = List.init 3 (fun _ -> Sat.fresh_var s) in
  let c = List.map Lit.pos vars in
  Sat.add_clause s c;
  Sat.add_clause s c;
  let diags = Enclint.analyze s Enclint.empty_view in
  Alcotest.(check bool) "duplicate flagged" true
    (has_rule "duplicate-clause" diags)

let test_flags_retired_reachable () =
  (* A retired row whose activation was never unit-negated is still in
     force, and so is any live clause that mentions its variables. *)
  let s = Sat.create () in
  let act = Sat.fresh_var s in
  let g = Lit.neg_of_var act in
  let vars = List.init 2 (fun _ -> Sat.fresh_var s) in
  let net = Card.exactly ~guard:g s (List.map Lit.pos vars) 1 in
  let outside = Sat.fresh_var s in
  Sat.add_clause s [ Lit.pos (List.hd vars); Lit.pos outside ];
  let diags =
    Enclint.analyze s
      (view ~rows:[ row ~act ~live:false ~vars [ (1, net) ] ] ())
  in
  expect_error "retired-reachable" diags

let test_flags_frozen_unused () =
  let s = Sat.create () in
  let a = Sat.fresh_var s in
  let b = Sat.fresh_var s in
  Sat.add_clause s [ Lit.pos a; Lit.pos b ];
  let diags =
    Enclint.analyze s
      { Enclint.empty_view with Enclint.frozen = [ Lit.pos b ] }
  in
  (* [b] occurs in a live clause, so the freeze is meaningful. *)
  Alcotest.(check bool) "b occurs" false (has_rule "frozen-unused" diags);
  let s2 = Sat.create () in
  let c = Sat.fresh_var s2 in
  Sat.name_var s2 c "own(iA,p0)";
  let diags2 =
    Enclint.analyze s2
      { Enclint.empty_view with Enclint.frozen = [ Lit.pos c ] }
  in
  Alcotest.(check bool) "unused flagged" true (has_rule "frozen-unused" diags2);
  (* [c] is also dead, and the finding names it by its solver name. *)
  Alcotest.(check (list string)) "dead var named" [ "own(iA,p0)" ]
    (List.filter_map
       (fun d ->
          if d.Diag.rule = "dead-var" then Some d.Diag.subject else None)
       diags2)

let () =
  Alcotest.run "enclint"
    [ ("clean",
       [ Alcotest.test_case "creation-time encoding" `Quick
           test_clean_creation;
         Alcotest.test_case "improper (store-blocker) encoding" `Quick
           test_clean_improper;
         Alcotest.test_case "creation-time encoding with lemmas" `Quick
           test_clean_with_lemmas;
         Alcotest.test_case "delta append/retire" `Quick test_clean_guarded ]);
      ("mutations",
       [ Alcotest.test_case "dropped guard (metadata)" `Quick
           test_flags_dropped_guard;
         Alcotest.test_case "dropped guard (semantic)" `Quick
           test_flags_dropped_guard_semantic;
         Alcotest.test_case "wrong cardinality bound" `Quick
           test_flags_wrong_bound;
         Alcotest.test_case "unguarded delta row" `Quick
           test_flags_unguarded_row;
         Alcotest.test_case "duplicate clause" `Quick
           test_flags_duplicate_clause;
         Alcotest.test_case "reachable retired row" `Quick
           test_flags_retired_reachable;
         Alcotest.test_case "frozen literal unused" `Quick
           test_flags_frozen_unused ]) ]
