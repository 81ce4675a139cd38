(* Sequential-counter encoding: registers s_{i,j} mean "at least j of the
   first i+1 literals are true".  Linear in n*k clauses and variables.

   The optional [?guard] literal is prepended to every emitted clause, so
   the whole constraint is conditional on the guard: pass [guard = ¬act]
   and the cardinality chain only binds while [act] is assumed true.  The
   encoding's guarded rows use this to make a row's constraints retirable
   with one unit clause instead of a rebuild.

   Every constructor returns a [network] record describing exactly what was
   emitted — declared kind/bound, input literals, guard, auxiliary register
   variables, and the clause list (guard included).  The static encoding
   analyzer ({!Pmi_analysis.Enclint}) replays these records with the solver
   off: structural checks (is the guard on every clause?) and semantic
   checks (does exhaustive unit propagation over the input cone enforce the
   declared bound?) both run against this metadata, so a constructor bug
   surfaces at analysis time instead of as a wrong certified mapping. *)

type kind =
  | At_most
  | At_least
  | Exactly

type network = {
  kind : kind;
  bound : int;
  inputs : Lit.t list;
  guard : Lit.t option;
  aux : int list;
  clauses : Lit.t list list;
}

let kind_to_string = function
  | At_most -> "at-most"
  | At_least -> "at-least"
  | Exactly -> "exactly"

(* Recorder threading the solver, the guard, and the emitted metadata
   through the constructor bodies. *)
type recorder = {
  solver : Sat.t;
  rguard : Lit.t option;
  mutable raux : int list;       (* newest first *)
  mutable rclauses : Lit.t list list;  (* newest first *)
}

let recorder ?guard solver = { solver; rguard = guard; raux = []; rclauses = [] }

let emit r c =
  let c = match r.rguard with None -> c | Some g -> g :: c in
  r.rclauses <- c :: r.rclauses;
  Sat.add_clause r.solver c

let fresh r =
  let v = Sat.fresh_var r.solver in
  r.raux <- v :: r.raux;
  v

let finish r ~kind ~bound ~inputs =
  { kind; bound; inputs; guard = r.rguard; aux = List.rev r.raux;
    clauses = List.rev r.rclauses }

let at_most_body r lits k =
  let lits = Array.of_list lits in
  let n = Array.length lits in
  if k < 0 then emit r []
  else if k = 0 then Array.iter (fun l -> emit r [ Lit.negate l ]) lits
  else if n > k then begin
    (* regs.(i).(j) = s_{i+1, j+1} of the classical presentation. *)
    let regs =
      Array.init (n - 1) (fun _ -> Array.init k (fun _ -> fresh r))
    in
    let s i j = Lit.pos regs.(i).(j) in
    let not_s i j = Lit.neg_of_var regs.(i).(j) in
    emit r [ Lit.negate lits.(0); s 0 0 ];
    for j = 1 to k - 1 do
      emit r [ not_s 0 j ]
    done;
    for i = 1 to n - 2 do
      emit r [ Lit.negate lits.(i); s i 0 ];
      emit r [ not_s (i - 1) 0; s i 0 ];
      for j = 1 to k - 1 do
        emit r [ Lit.negate lits.(i); not_s (i - 1) (j - 1); s i j ];
        emit r [ not_s (i - 1) j; s i j ]
      done;
      emit r [ Lit.negate lits.(i); not_s (i - 1) (k - 1) ]
    done;
    emit r [ Lit.negate lits.(n - 1); not_s (n - 2) (k - 1) ]
  end

let at_most ?guard solver lits k =
  let r = recorder ?guard solver in
  at_most_body r lits k;
  finish r ~kind:At_most ~bound:k ~inputs:lits

let at_least ?guard solver lits k =
  let r = recorder ?guard solver in
  let n = List.length lits in
  if k > n then emit r []
  else if k = n then List.iter (fun l -> emit r [ l ]) lits
  else if k = 1 then emit r lits
  else if k > 0 then at_most_body r (List.map Lit.negate lits) (n - k);
  finish r ~kind:At_least ~bound:k ~inputs:lits

(* One register bank carrying both bounds.  The naive [at_most] + [at_least]
   pairing builds two independent counters ((n-1)*n aux variables for the
   usual k << n); sharing the chain needs only (n-1)*k.  The register
   semantics is two-sided: the U clauses force s_{i,j} once > j of the first
   i+1 literals are true (counting direction), and the L clauses only allow
   s_{i,j} when that is the case (so the final register row can assert the
   lower bound). *)
let exactly ?guard solver lits k =
  let r = recorder ?guard solver in
  let arr = Array.of_list lits in
  let n = Array.length arr in
  (if k < 0 || k > n then emit r []
   else if k = 0 then Array.iter (fun l -> emit r [ Lit.negate l ]) arr
   else if k = n then Array.iter (fun l -> emit r [ l ]) arr
   else begin
     (* 1 <= k < n, hence n >= 2. *)
     let regs =
       Array.init (n - 1) (fun _ -> Array.init k (fun _ -> fresh r))
     in
     let s i j = Lit.pos regs.(i).(j) in
     let not_s i j = Lit.neg_of_var regs.(i).(j) in
     (* Row 0: s_{0,0} <-> x_0, higher registers off. *)
     emit r [ Lit.negate arr.(0); s 0 0 ];
     emit r [ not_s 0 0; arr.(0) ];
     for j = 1 to k - 1 do
       emit r [ not_s 0 j ]
     done;
     for i = 1 to n - 2 do
       (* Counting direction (upper bound): the register row is at least the
          previous row, plus one if x_i is true. *)
       emit r [ Lit.negate arr.(i); s i 0 ];
       emit r [ not_s (i - 1) 0; s i 0 ];
       (* Support direction (lower bound): a register only holds when the
          previous row or the current literal accounts for it. *)
       emit r [ not_s i 0; s (i - 1) 0; arr.(i) ];
       for j = 1 to k - 1 do
         emit r [ Lit.negate arr.(i); not_s (i - 1) (j - 1); s i j ];
         emit r [ not_s (i - 1) j; s i j ];
         emit r [ not_s i j; s (i - 1) j; arr.(i) ];
         emit r [ not_s i j; s (i - 1) j; s (i - 1) (j - 1) ]
       done;
       (* Overflow: a true literal on a saturated row would exceed k. *)
       emit r [ Lit.negate arr.(i); not_s (i - 1) (k - 1) ]
     done;
     (* Last literal: cannot overflow, and must close the k-th register. *)
     emit r [ Lit.negate arr.(n - 1); not_s (n - 2) (k - 1) ];
     emit r [ s (n - 2) (k - 1); arr.(n - 1) ];
     if k >= 2 then
       emit r [ s (n - 2) (k - 1); s (n - 2) (k - 2) ]
   end);
  finish r ~kind:Exactly ~bound:k ~inputs:lits
