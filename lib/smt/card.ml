(* Sequential-counter encoding: registers s_{i,j} mean "at least j of the
   first i+1 literals are true".  Linear in n*k clauses and variables.

   One register bank carries both bounds, needing (n-1)*k aux variables
   where an at-most plus an at-least counter would need (n-1)*n for the
   usual k << n.  The register semantics is two-sided: the U clauses force
   s_{i,j} once > j of the first i+1 literals are true (counting
   direction), and the L clauses only allow s_{i,j} when that is the case
   (so the final register row can assert the lower bound). *)

let exactly solver lits k =
  let emit c = Sat.add_clause solver c in
  let arr = Array.of_list lits in
  let n = Array.length arr in
  if k < 0 || k > n then emit []
  else if k = 0 then Array.iter (fun l -> emit [ Lit.negate l ]) arr
  else if k = n then Array.iter (fun l -> emit [ l ]) arr
  else begin
    (* 1 <= k < n, hence n >= 2. *)
    let regs =
      Array.init (n - 1) (fun _ ->
          Array.init k (fun _ -> Sat.fresh_var solver))
    in
    let s i j = Lit.pos regs.(i).(j) in
    let not_s i j = Lit.neg_of_var regs.(i).(j) in
    (* Row 0: s_{0,0} <-> x_0, higher registers off. *)
    emit [ Lit.negate arr.(0); s 0 0 ];
    emit [ not_s 0 0; arr.(0) ];
    for j = 1 to k - 1 do
      emit [ not_s 0 j ]
    done;
    for i = 1 to n - 2 do
      (* Counting direction (upper bound): the register row is at least the
         previous row, plus one if x_i is true. *)
      emit [ Lit.negate arr.(i); s i 0 ];
      emit [ not_s (i - 1) 0; s i 0 ];
      (* Support direction (lower bound): a register only holds when the
         previous row or the current literal accounts for it. *)
      emit [ not_s i 0; s (i - 1) 0; arr.(i) ];
      for j = 1 to k - 1 do
        emit [ Lit.negate arr.(i); not_s (i - 1) (j - 1); s i j ];
        emit [ not_s (i - 1) j; s i j ];
        emit [ not_s i j; s (i - 1) j; arr.(i) ];
        emit [ not_s i j; s (i - 1) j; s (i - 1) (j - 1) ]
      done;
      (* Overflow: a true literal on a saturated row would exceed k. *)
      emit [ Lit.negate arr.(i); not_s (i - 1) (k - 1) ]
    done;
    (* Last literal: cannot overflow, and must close the k-th register. *)
    emit [ Lit.negate arr.(n - 1); not_s (n - 2) (k - 1) ];
    emit [ s (n - 2) (k - 1); arr.(n - 1) ];
    if k >= 2 then emit [ s (n - 2) (k - 1); s (n - 2) (k - 2) ]
  end
