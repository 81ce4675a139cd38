(* A MiniSat/Glucose-class CDCL engine.  See sat.mli for the feature list.

   Conventions:
   - [assigns] is per *literal*: 1 true, -1 false, 0 unassigned; the two
     slots of a variable are kept consistent by [enqueue]/[cancel_until].
   - Long clauses (>= 3 literals) live in a flat int-array arena as
     [len; info; lit0; ...; lit_{len-1}] at a clause reference (cref); [info]
     packs [(lbd lsl 2) lor (deleted lsl 1) lor learned].
   - Binary clauses never enter the arena: they live in per-literal
     implication lists keyed by the *asserted* literal, so propagating one
     reads a flat array and never touches clause memory.
   - Watch lists are flat int arrays of (cref, blocker) pairs; the blocker is
     some other literal of the clause whose truth lets propagation skip the
     clause without touching the arena.  Propagation allocates nothing.
   - Watch invariant: every arena clause is watched by its first two
     literals, and whenever a clause propagates, the propagated literal is at
     index 0 (conflict analysis relies on this to skip the asserting literal
     of reason clauses).
   - [reason] per variable is encoded: [-1] for decisions and assumptions,
     [cref lsl 1] for an arena clause, [(lit lsl 1) lor 1] for the other
     literal of a binary clause.  Conflicts returned by [propagate] use the
     same encoding, where odd means "binary conflict, both literals in
     [bin_confl]". *)

(* Dune's dev profile compiles with [-opaque], so a call into another
   module is never inlined.  The literal arithmetic sits on every hot path
   here; these local copies make it inline. *)
module Lit = struct
  include Lit

  let[@inline] make v positive = (v lsl 1) lor (if positive then 0 else 1)
  let[@inline] var l = l lsr 1
  let[@inline] negate l = l lxor 1
  let[@inline] is_pos l = l land 1 = 0
end

type stats = {
  decisions : int;
  propagations : int;
  conflicts : int;
  restarts : int;
  learned : int;
  deleted : int;
  max_lbd : int;
}

let zero_stats =
  { decisions = 0; propagations = 0; conflicts = 0; restarts = 0;
    learned = 0; deleted = 0; max_lbd = 0 }

let add_stats a b =
  { decisions = a.decisions + b.decisions;
    propagations = a.propagations + b.propagations;
    conflicts = a.conflicts + b.conflicts;
    restarts = a.restarts + b.restarts;
    learned = a.learned + b.learned;
    deleted = a.deleted + b.deleted;
    max_lbd = max a.max_lbd b.max_lbd }

(* DRAT-style proof trace.  [Input] clauses are axioms (problem clauses,
   cardinality chains, theory lemmas); [Derive] clauses must have the RUP
   property with respect to everything logged before them; [Delete] removes
   one instance of a clause from the checker's database.  Clauses are logged
   exactly as the caller/learner produced them — the independent checker
   (Pmi_analysis.Drat) canonicalizes on its side. *)
type proof_step =
  | Input of Lit.t list
  | Derive of Lit.t list
  | Delete of Lit.t list

type t = {
  (* Clause arena (long clauses only). *)
  mutable arena : int array;
  mutable arena_top : int;
  mutable clauses : int array;       (* crefs of problem clauses *)
  mutable n_problem : int;
  mutable learnts : int array;       (* crefs of learned clauses *)
  mutable n_learnts : int;
  (* Binary clauses. *)
  mutable bins : int array array;    (* implied literals, keyed by asserted literal *)
  mutable bin_size : int array;
  (* Watches. *)
  mutable watch : int array array;   (* flat (cref, blocker) pairs per literal *)
  mutable watch_size : int array;
  (* Assignment. *)
  mutable assigns : int array;       (* per *literal*: 1 true, -1 false, 0 unset *)
  mutable level : int array;
  mutable reason : int array;        (* encoded, see above *)
  mutable activity : float array;
  mutable phase : bool array;
  mutable seen : bool array;
  mutable trail : int array;         (* literals, in assignment order *)
  mutable trail_size : int;
  mutable trail_lim : int array;
  mutable n_levels : int;
  mutable qhead : int;
  mutable nvars : int;
  mutable var_inc : float;
  mutable ok : bool;
  (* VSIDS decision heap (indexed binary max-heap over [activity]). *)
  mutable heap : int array;
  mutable heap_index : int array;    (* -1 when not in the heap *)
  mutable heap_size : int;
  (* Scratch buffers. *)
  bin_confl : int array;             (* the two literals of a binary conflict *)
  mutable learnt_buf : int array;
  mutable an_path : int;             (* [analyze]: current-level lits left *)
  mutable an_learnt : int;           (* [analyze]: literals in [learnt_buf] *)
  mutable an_clear : int array;      (* variables whose [seen] mark is set *)
  mutable n_clear : int;
  mutable an_stack : int array;      (* [lit_redundant]'s walk *)
  mutable an_sp : int;
  mutable an_backjump : int;         (* [analyze]'s other two results *)
  mutable an_lbd : int;
  mutable lbd_mark : int array;      (* keyed by decision level *)
  mutable lbd_stamp : int;
  (* Clause-database reduction policy. *)
  mutable reduce_enabled : bool;
  mutable reduce_budget : int;       (* conflicts until the next reduction *)
  mutable reduce_step : int;
  (* DRAT proof trace (certification support).  Stored internally as one
     flat growable int buffer of [tag; len; lits...] records with tag
     0 = Input, 1 = Derive, 2 = Delete; logging a step on the learning hot
     path is a bounds check plus a blit, with no per-step allocation.
     [proof] converts to the public [proof_step] view. *)
  mutable proof_enabled : bool;
  mutable proof_buf : int array;
  mutable proof_pos : int;
  mutable proof_len : int;
  (* Invariant sanitizer (debug): checked at decision-level-0 boundaries. *)
  mutable sanitize : bool;
  (* Statistics. *)
  mutable st_decisions : int;
  mutable st_propagations : int;
  mutable st_conflicts : int;
  mutable st_restarts : int;
  mutable st_learned : int;
  mutable st_deleted : int;
  mutable st_max_lbd : int;
}

type result =
  | Sat of bool array
  | Unsat

(* Debug: solvers created while this is set start with [sanitize] on, so a
   test can sanitize the solvers a library call creates internally. *)
let sanitize_default = Atomic.make false

let create () =
  { arena = Array.make 256 0;
    arena_top = 0;
    clauses = Array.make 64 0;
    n_problem = 0;
    learnts = Array.make 64 0;
    n_learnts = 0;
    bins = Array.make 16 [||];
    bin_size = Array.make 16 0;
    watch = Array.make 16 [||];
    watch_size = Array.make 16 0;
    assigns = Array.make 16 0;
    level = Array.make 8 0;
    reason = Array.make 8 (-1);
    activity = Array.make 8 0.0;
    phase = Array.make 8 false;
    seen = Array.make 8 false;
    trail = Array.make 8 0;
    trail_size = 0;
    trail_lim = Array.make 8 0;
    n_levels = 0;
    qhead = 0;
    nvars = 0;
    var_inc = 1.0;
    ok = true;
    heap = Array.make 8 0;
    heap_index = Array.make 8 (-1);
    heap_size = 0;
    bin_confl = Array.make 2 0;
    learnt_buf = Array.make 8 0;
    an_path = 0;
    an_learnt = 0;
    an_clear = Array.make 8 0;
    n_clear = 0;
    an_stack = Array.make 8 0;
    an_sp = 0;
    an_backjump = 0;
    an_lbd = 0;
    lbd_mark = Array.make 8 0;
    lbd_stamp = 0;
    reduce_enabled = true;
    reduce_budget = 2000;
    reduce_step = 2000;
    proof_enabled = false;
    proof_buf = [||];
    proof_pos = 0;
    proof_len = 0;
    sanitize = Atomic.get sanitize_default;
    st_decisions = 0;
    st_propagations = 0;
    st_conflicts = 0;
    st_restarts = 0;
    st_learned = 0;
    st_deleted = 0;
    st_max_lbd = 0 }

let grow_array arr len fill =
  if Array.length arr >= len then arr
  else begin
    let out = Array.make (max len (2 * Array.length arr)) fill in
    Array.blit arr 0 out 0 (Array.length arr);
    out
  end

let fresh_var s =
  let v = s.nvars in
  s.nvars <- v + 1;
  s.assigns <- grow_array s.assigns (2 * s.nvars) 0;
  s.level <- grow_array s.level s.nvars 0;
  s.reason <- grow_array s.reason s.nvars (-1);
  s.activity <- grow_array s.activity s.nvars 0.0;
  s.phase <- grow_array s.phase s.nvars false;
  s.seen <- grow_array s.seen s.nvars false;
  s.trail <- grow_array s.trail s.nvars 0;
  s.heap <- grow_array s.heap s.nvars 0;
  s.heap_index <- grow_array s.heap_index s.nvars (-1);
  s.lbd_mark <- grow_array s.lbd_mark (s.nvars + 2) 0;
  s.learnt_buf <- grow_array s.learnt_buf (s.nvars + 1) 0;
  s.watch <- grow_array s.watch (2 * s.nvars) [||];
  s.watch_size <- grow_array s.watch_size (2 * s.nvars) 0;
  s.bins <- grow_array s.bins (2 * s.nvars) [||];
  s.bin_size <- grow_array s.bin_size (2 * s.nvars) 0;
  s.assigns.(2 * v) <- 0;
  s.assigns.(2 * v + 1) <- 0;
  s.level.(v) <- 0;
  s.reason.(v) <- -1;
  s.activity.(v) <- 0.0;
  (* Branch false-first until phase saving takes over: the port-usage and
     cardinality encodings are mostly at-most-k, so sparse assignments
     satisfy far more clauses than dense ones. *)
  s.phase.(v) <- false;
  s.seen.(v) <- false;
  s.heap_index.(v) <- -1;
  s.watch.(2 * v) <- [||];
  s.watch.(2 * v + 1) <- [||];
  s.watch_size.(2 * v) <- 0;
  s.watch_size.(2 * v + 1) <- 0;
  s.bins.(2 * v) <- [||];
  s.bins.(2 * v + 1) <- [||];
  s.bin_size.(2 * v) <- 0;
  s.bin_size.(2 * v + 1) <- 0;
  (* New variables enter the decision heap. *)
  let i = s.heap_size in
  s.heap.(i) <- v;
  s.heap_index.(v) <- i;
  s.heap_size <- i + 1;
  v

let num_vars s = s.nvars
let okay s = s.ok

let stats s =
  { decisions = s.st_decisions;
    propagations = s.st_propagations;
    conflicts = s.st_conflicts;
    restarts = s.st_restarts;
    learned = s.st_learned;
    deleted = s.st_deleted;
    max_lbd = s.st_max_lbd }

(* ------------------------------------------------------------------ *)
(* Proof trace                                                         *)
(* ------------------------------------------------------------------ *)

let proof_reserve s extra =
  let need = s.proof_pos + extra in
  if need > Array.length s.proof_buf then begin
    let cap = max 1024 (max need (2 * Array.length s.proof_buf)) in
    let fresh = Array.make cap 0 in
    Array.blit s.proof_buf 0 fresh 0 s.proof_pos;
    s.proof_buf <- fresh
  end

(* Append a [tag; n; lits...] record, blitting the literals out of [src]
   (the learnt scratch buffer or the clause arena). *)
let[@inline] proof_push_sub s tag src off n =
  if s.proof_enabled then begin
    proof_reserve s (n + 2);
    let b = s.proof_buf and p = s.proof_pos in
    b.(p) <- tag;
    b.(p + 1) <- n;
    Array.blit src off b (p + 2) n;
    s.proof_pos <- p + n + 2;
    s.proof_len <- s.proof_len + 1
  end

let proof_push_list s tag lits =
  if s.proof_enabled then begin
    let n = List.length lits in
    proof_reserve s (n + 2);
    let b = s.proof_buf and p = s.proof_pos in
    b.(p) <- tag;
    b.(p + 1) <- n;
    let i = ref (p + 2) in
    List.iter (fun l -> b.(!i) <- l; incr i) lits;
    s.proof_pos <- p + n + 2;
    s.proof_len <- s.proof_len + 1
  end

let set_proof_logging s b = s.proof_enabled <- b
let proof_logging s = s.proof_enabled

let proof s =
  let b = s.proof_buf in
  let rec steps p acc =
    if p >= s.proof_pos then List.rev acc
    else begin
      let tag = b.(p) and n = b.(p + 1) in
      let lits = ref [] in
      for j = p + 1 + n downto p + 2 do lits := b.(j) :: !lits done;
      let step =
        match tag with
        | 0 -> Input !lits
        | 1 -> Derive !lits
        | _ -> Delete !lits
      in
      steps (p + n + 2) (step :: acc)
    end
  in
  steps 0 []

let proof_length s = s.proof_len

let set_reduce_enabled s b = s.reduce_enabled <- b

(* ------------------------------------------------------------------ *)
(* Values, heap, trail                                                 *)
(* ------------------------------------------------------------------ *)

let[@inline] lit_value s l = s.assigns.(l)
let[@inline] var_value s v = s.assigns.(2 * v)

(* The heap, [enqueue] and [cancel_until] index without bounds checks:
   heap slots stay below [heap_size <= nvars], variables below [nvars],
   literals below [2 * nvars], and a variable is enqueued only while
   unassigned, so [trail_size < nvars] there. *)
let[@inline] heap_swap s i j =
  let heap = s.heap and index = s.heap_index in
  let u = Array.unsafe_get heap i and v = Array.unsafe_get heap j in
  Array.unsafe_set heap i v;
  Array.unsafe_set heap j u;
  Array.unsafe_set index v i;
  Array.unsafe_set index u j

let[@inline] heap_act s i =
  Array.unsafe_get s.activity (Array.unsafe_get s.heap i)

let rec sift_up s i =
  if i > 0 then begin
    let parent = (i - 1) / 2 in
    if heap_act s i > heap_act s parent then begin
      heap_swap s i parent;
      sift_up s parent
    end
  end

let rec sift_down s i =
  let l = (2 * i) + 1 in
  if l < s.heap_size then begin
    let r = l + 1 in
    let best =
      if r < s.heap_size && heap_act s r > heap_act s l then r else l
    in
    if heap_act s best > heap_act s i then begin
      heap_swap s i best;
      sift_down s best
    end
  end

let heap_insert s v =
  if Array.unsafe_get s.heap_index v < 0 then begin
    let i = s.heap_size in
    Array.unsafe_set s.heap i v;
    Array.unsafe_set s.heap_index v i;
    s.heap_size <- i + 1;
    sift_up s i
  end

let heap_pop s =
  let heap = s.heap and index = s.heap_index in
  let v = Array.unsafe_get heap 0 in
  s.heap_size <- s.heap_size - 1;
  let last = Array.unsafe_get heap s.heap_size in
  Array.unsafe_set heap 0 last;
  Array.unsafe_set index last 0;
  Array.unsafe_set index v (-1);
  if s.heap_size > 1 then sift_down s 0;
  v

(* Empty the heap in one pass: the state popping every entry leaves. *)
let heap_clear s =
  for i = 0 to s.heap_size - 1 do
    Array.unsafe_set s.heap_index (Array.unsafe_get s.heap i) (-1)
  done;
  s.heap_size <- 0

let rescale_activities s =
  for v = 0 to s.nvars - 1 do
    s.activity.(v) <- s.activity.(v) *. 1e-100
  done;
  s.var_inc <- s.var_inc *. 1e-100

let bump s v =
  let act = Array.unsafe_get s.activity v +. s.var_inc in
  Array.unsafe_set s.activity v act;
  if act > 1e100 then rescale_activities s;
  let i = Array.unsafe_get s.heap_index v in
  if i >= 0 then sift_up s i

(* A slow decay (0.99, vs MiniSat's 0.95) keeps activities closer to
   conflict *counts* than to recency.  On the symmetric instances this
   solver actually faces — cardinality registers, pigeonhole-style
   blocking — a recency-heavy order relitigates interchangeable variables
   after every restart; measured on pigeonhole 7/6 and 8/7 the slow decay
   roughly halves the conflicts. *)
let decay s = s.var_inc <- s.var_inc /. 0.99

let[@inline] enqueue s lit reason =
  let v = Lit.var lit in
  Array.unsafe_set s.assigns lit 1;
  Array.unsafe_set s.assigns (lit lxor 1) (-1);
  Array.unsafe_set s.level v s.n_levels;
  Array.unsafe_set s.reason v reason;
  Array.unsafe_set s.trail s.trail_size lit;
  s.trail_size <- s.trail_size + 1

let new_decision_level s =
  s.trail_lim <- grow_array s.trail_lim (s.n_levels + 1) 0;
  s.trail_lim.(s.n_levels) <- s.trail_size;
  s.n_levels <- s.n_levels + 1

let cancel_until s lvl =
  if s.n_levels > lvl then begin
    let bound = Array.unsafe_get s.trail_lim lvl in
    let trail = s.trail and assigns = s.assigns in
    for i = s.trail_size - 1 downto bound do
      let lit = Array.unsafe_get trail i in
      let v = Lit.var lit in
      Array.unsafe_set s.phase v (Lit.is_pos lit);
      Array.unsafe_set assigns lit 0;
      Array.unsafe_set assigns (lit lxor 1) 0;
      Array.unsafe_set s.reason v (-1);
      heap_insert s v
    done;
    s.trail_size <- bound;
    s.qhead <- bound;
    s.n_levels <- lvl
  end

(* ------------------------------------------------------------------ *)
(* Clause arena                                                        *)
(* ------------------------------------------------------------------ *)

let c_len s cr = s.arena.(cr)
let c_lit s cr i = s.arena.(cr + 2 + i)
let c_learned s cr = s.arena.(cr + 1) land 1 = 1
let c_deleted s cr = s.arena.(cr + 1) land 2 <> 0
let c_delete s cr = s.arena.(cr + 1) <- s.arena.(cr + 1) lor 2
let c_lbd s cr = s.arena.(cr + 1) lsr 2

(* Copy a problem clause into the arena; learnt clauses are written
   straight from the scratch buffer by [record_learnt]. *)
let alloc_clause s lits =
  let len = Array.length lits in
  let need = s.arena_top + len + 2 in
  if need > Array.length s.arena then begin
    let a = Array.make (max need (2 * Array.length s.arena)) 0 in
    Array.blit s.arena 0 a 0 s.arena_top;
    s.arena <- a
  end;
  let cr = s.arena_top in
  s.arena.(cr) <- len;
  s.arena.(cr + 1) <- 0;
  Array.blit lits 0 s.arena (cr + 2) len;
  s.arena_top <- need;
  cr

let push_watch s l cr blocker =
  let n = s.watch_size.(l) in
  let d = s.watch.(l) in
  let d =
    if n + 2 > Array.length d then begin
      let d' = Array.make (max 8 (2 * Array.length d)) 0 in
      Array.blit d 0 d' 0 n;
      s.watch.(l) <- d';
      d'
    end
    else d
  in
  d.(n) <- cr;
  d.(n + 1) <- blocker;
  s.watch_size.(l) <- n + 2

let push_bin s l implied =
  let n = s.bin_size.(l) in
  let d = s.bins.(l) in
  let d =
    if n >= Array.length d then begin
      let d' = Array.make (max 4 (2 * Array.length d)) 0 in
      Array.blit d 0 d' 0 n;
      s.bins.(l) <- d';
      d'
    end
    else d
  in
  d.(n) <- implied;
  s.bin_size.(l) <- n + 1

let attach_clause s cr =
  let l0 = c_lit s cr 0 and l1 = c_lit s cr 1 in
  push_watch s l0 cr l1;
  push_watch s l1 cr l0

(* Register a binary clause {a, b} in the implication lists. *)
let attach_binary s a b =
  push_bin s (Lit.negate a) b;
  push_bin s (Lit.negate b) a

let push_cref s ~learned cr =
  if learned then begin
    s.learnts <- grow_array s.learnts (s.n_learnts + 1) 0;
    s.learnts.(s.n_learnts) <- cr;
    s.n_learnts <- s.n_learnts + 1
  end
  else begin
    s.clauses <- grow_array s.clauses (s.n_problem + 1) 0;
    s.clauses.(s.n_problem) <- cr;
    s.n_problem <- s.n_problem + 1
  end

(* ------------------------------------------------------------------ *)
(* Propagation                                                         *)
(* ------------------------------------------------------------------ *)

(* Two-watched-literal unit propagation with blocking literals plus binary
   implication lists.  Allocation-free.  Returns an encoded conflict
   (see the header comment) or -1.

   This is the solver's innermost loop, so it uses unsafe array accesses on
   indices the watch/trail invariants already bound: [qhead < trail_size <=
   nvars], watch and bins cursors stay below the recorded sizes, and arena
   offsets come from attached crefs.  [assigns] is hoisted into a local —
   nothing below reallocates it ([enqueue] only writes) — while [wd] is
   re-read per literal because [push_watch] may reallocate other lists. *)
let propagate s =
  let assigns = s.assigns in
  let trail = s.trail in
  let conflict = ref (-1) in
  while !conflict < 0 && s.qhead < s.trail_size do
    let p = Array.unsafe_get trail s.qhead in
    s.qhead <- s.qhead + 1;
    s.st_propagations <- s.st_propagations + 1;
    (* Binary implications of p first: cheapest, and they seed the queue
       before any clause memory is touched. *)
    let bd = Array.unsafe_get s.bins p in
    let bn = Array.unsafe_get s.bin_size p in
    let i = ref 0 in
    while !conflict < 0 && !i < bn do
      let q = Array.unsafe_get bd !i in
      let vq = Array.unsafe_get assigns q in
      if vq < 0 then begin
        s.bin_confl.(0) <- Lit.negate p;
        s.bin_confl.(1) <- q;
        s.qhead <- s.trail_size;
        conflict := 1
      end
      else if vq = 0 then enqueue s q ((Lit.negate p lsl 1) lor 1);
      incr i
    done;
    if !conflict < 0 then begin
      let false_lit = Lit.negate p in
      let arena = s.arena in
      let wd = Array.unsafe_get s.watch false_lit in
      let wn = Array.unsafe_get s.watch_size false_lit in
      let i = ref 0 in
      let j = ref 0 in
      while !i < wn do
        if !conflict >= 0 then begin
          (* Conflict already found: keep the unprocessed suffix. *)
          Array.unsafe_set wd !j (Array.unsafe_get wd !i);
          Array.unsafe_set wd (!j + 1) (Array.unsafe_get wd (!i + 1));
          i := !i + 2;
          j := !j + 2
        end
        else begin
          let cr = Array.unsafe_get wd !i in
          let blocker = Array.unsafe_get wd (!i + 1) in
          if Array.unsafe_get assigns blocker = 1 then begin
            (* Blocking literal satisfied: skip without touching the arena. *)
            Array.unsafe_set wd !j cr;
            Array.unsafe_set wd (!j + 1) blocker;
            i := !i + 2;
            j := !j + 2
          end
          else begin
            let base = cr + 2 in
            (* Make sure the false literal is at index 1. *)
            if Array.unsafe_get arena base = false_lit then begin
              Array.unsafe_set arena base (Array.unsafe_get arena (base + 1));
              Array.unsafe_set arena (base + 1) false_lit
            end;
            let first = Array.unsafe_get arena base in
            if first <> blocker && Array.unsafe_get assigns first = 1
            then begin
              (* Clause satisfied by its other watch; make it the blocker. *)
              Array.unsafe_set wd !j cr;
              Array.unsafe_set wd (!j + 1) first;
              i := !i + 2;
              j := !j + 2
            end
            else begin
              let len = Array.unsafe_get arena cr in
              let k = ref (base + 2) in
              let stop = base + len in
              while
                !k < stop
                && Array.unsafe_get assigns (Array.unsafe_get arena !k) < 0
              do
                incr k
              done;
              if !k < stop then begin
                (* Found a new watch: move the clause to its list. *)
                Array.unsafe_set arena (base + 1) (Array.unsafe_get arena !k);
                Array.unsafe_set arena !k false_lit;
                push_watch s (Array.unsafe_get arena (base + 1)) cr first;
                i := !i + 2
              end
              else begin
                (* Unit or conflicting: the watch stays here. *)
                Array.unsafe_set wd !j cr;
                Array.unsafe_set wd (!j + 1) first;
                i := !i + 2;
                j := !j + 2;
                if Array.unsafe_get assigns first < 0 then begin
                  s.qhead <- s.trail_size;
                  conflict := cr lsl 1
                end
                else enqueue s first (cr lsl 1)
              end
            end
          end
        end
      done;
      s.watch_size.(false_lit) <- !j
    end
  done;
  !conflict

(* ------------------------------------------------------------------ *)
(* Conflict analysis                                                   *)
(* ------------------------------------------------------------------ *)

let[@inline] abstract_level s v = 1 lsl (Array.unsafe_get s.level v land 62)

(* Set [v]'s [seen] mark and record it for [analyze]'s final sweep.  The
   scratch stacks grow on demand: a conflict touches few variables. *)
let[@inline] mark_seen s v =
  Array.unsafe_set s.seen v true;
  let n = s.n_clear in
  if n = Array.length s.an_clear then
    s.an_clear <- grow_array s.an_clear (n + 1) 0;
  Array.unsafe_set s.an_clear n v;
  s.n_clear <- n + 1

(* One literal below the one [lit_redundant] is walking: [false] when it
   ends the walk as not redundant, otherwise marked and pushed if it still
   needs a visit. *)
let[@inline] redundant_visit s abstract_levels q =
  let w = Lit.var q in
  if Array.unsafe_get s.seen w || Array.unsafe_get s.level w = 0 then true
  else if
    Array.unsafe_get s.reason w >= 0
    && abstract_level s w land abstract_levels <> 0
  then begin
    mark_seen s w;
    let sp = s.an_sp in
    if sp = Array.length s.an_stack then
      s.an_stack <- grow_array s.an_stack (sp + 1) 0;
    Array.unsafe_set s.an_stack sp q;
    s.an_sp <- sp + 1;
    true
  end
  else false

(* Is [lit] implied by the rest of the (marked) learnt clause?  MiniSat's
   check on an explicit stack: walk the implication graph below [lit];
   every path must end in marked literals without leaving the clause's
   decision levels.  Marks added by a successful walk stay (the variables
   are redundant too); on failure they are rolled back.  Either way the
   outcome depends only on which variables are reachable, not on the order
   of the walk. *)
let lit_redundant s abstract_levels lit =
  let top = s.n_clear in
  s.an_stack.(0) <- lit;
  s.an_sp <- 1;
  let ok = ref true in
  while !ok && s.an_sp > 0 do
    s.an_sp <- s.an_sp - 1;
    let q = Array.unsafe_get s.an_stack s.an_sp in
    let r = Array.unsafe_get s.reason (Lit.var q) in
    if r land 1 = 1 then ok := redundant_visit s abstract_levels (r lsr 1)
    else begin
      let arena = s.arena and cr = r lsr 1 in
      let stop = cr + 2 + Array.unsafe_get arena cr in
      let j = ref (cr + 3) in
      while !ok && !j < stop do
        ok := redundant_visit s abstract_levels (Array.unsafe_get arena !j);
        incr j
      done
    end
  done;
  if not !ok then begin
    for i = top to s.n_clear - 1 do
      Array.unsafe_set s.seen (Array.unsafe_get s.an_clear i) false
    done;
    s.n_clear <- top
  end;
  !ok

(* Distinct decision levels among the first [n] literals of [lits] (the
   "glue" of a learnt clause). *)
let compute_lbd s lits n =
  s.lbd_stamp <- s.lbd_stamp + 1;
  let stamp = s.lbd_stamp in
  let count = ref 0 in
  for i = 0 to n - 1 do
    let lvl = s.level.(Lit.var lits.(i)) in
    if lvl > 0 && s.lbd_mark.(lvl) <> stamp then begin
      s.lbd_mark.(lvl) <- stamp;
      incr count
    end
  done;
  !count

(* One literal of a clause being resolved: a current-level variable joins
   the resolution frontier, a lower-level one goes into the learnt
   clause. *)
let[@inline] analyze_mark s q =
  let v = Lit.var q in
  if
    (not (Array.unsafe_get s.seen v)) && Array.unsafe_get s.level v > 0
  then begin
    mark_seen s v;
    bump s v;
    if Array.unsafe_get s.level v >= s.n_levels then s.an_path <- s.an_path + 1
    else begin
      Array.unsafe_set s.learnt_buf s.an_learnt q;
      s.an_learnt <- s.an_learnt + 1
    end
  end

(* First-UIP conflict analysis with recursive clause minimization.  Fills
   [s.learnt_buf] (asserting literal first) and returns the number of
   literals; the backjump level and the lbd are left in [an_backjump] and
   [an_lbd].  Allocates nothing. *)
let analyze s confl =
  let buf = s.learnt_buf in
  s.n_clear <- 0;
  s.an_learnt <- 1;            (* slot 0 reserved for the asserting literal *)
  s.an_path <- 0;
  let p = ref (-1) in
  let index = ref (s.trail_size - 1) in
  let confl = ref confl in
  let continue = ref true in
  let seen = s.seen in
  let trail = s.trail in
  while !continue do
    (if !confl land 1 = 1 then begin
       if !p < 0 then begin
         analyze_mark s s.bin_confl.(0);
         analyze_mark s s.bin_confl.(1)
       end
       else analyze_mark s (!confl lsr 1)
     end
     else begin
       let cr = !confl lsr 1 in
       let arena = s.arena in
       let stop = cr + 2 + Array.unsafe_get arena cr in
       let j = ref (if !p < 0 then cr + 2 else cr + 3) in
       while !j < stop do
         analyze_mark s (Array.unsafe_get arena !j);
         incr j
       done
     end);
    (* Walk the trail back to the most recently assigned marked literal. *)
    while
      not (Array.unsafe_get seen (Array.unsafe_get trail !index lsr 1))
    do
      decr index
    done;
    p := Array.unsafe_get trail !index;
    decr index;
    Array.unsafe_set seen (!p lsr 1) false;
    s.an_path <- s.an_path - 1;
    if s.an_path = 0 then continue := false
    else confl := Array.unsafe_get s.reason (!p lsr 1)
  done;
  buf.(0) <- Lit.negate !p;
  let n_learnt = s.an_learnt in
  (* Minimize: drop tail literals implied by the rest of the clause. *)
  let abstract_levels = ref 0 in
  for i = 1 to n_learnt - 1 do
    abstract_levels := !abstract_levels lor abstract_level s (Lit.var buf.(i))
  done;
  let kept = ref 1 in
  for i = 1 to n_learnt - 1 do
    let q = buf.(i) in
    if
      s.reason.(Lit.var q) < 0
      || not (lit_redundant s !abstract_levels q)
    then begin
      buf.(!kept) <- q;
      incr kept
    end
  done;
  let n = !kept in
  (* Move (one of) the highest-level tail literals to slot 1 so it can be
     watched: it is falsified last on backjump. *)
  s.an_backjump <-
    (if n <= 1 then 0
     else begin
       let best = ref 1 in
       for i = 2 to n - 1 do
         if s.level.(Lit.var buf.(i)) > s.level.(Lit.var buf.(!best)) then
           best := i
       done;
       let tmp = buf.(1) in
       buf.(1) <- buf.(!best);
       buf.(!best) <- tmp;
       s.level.(Lit.var buf.(1))
     end);
  s.an_lbd <- compute_lbd s buf n;
  for i = 0 to s.n_clear - 1 do
    Array.unsafe_set seen (Array.unsafe_get s.an_clear i) false
  done;
  s.n_clear <- 0;
  n

(* Install the learnt clause sitting in [s.learnt_buf] after the backjump
   and assert its first literal. *)
let record_learnt s n lbd =
  s.st_learned <- s.st_learned + 1;
  if lbd > s.st_max_lbd then s.st_max_lbd <- lbd;
  (* The minimized first-UIP clause has the RUP property w.r.t. the clauses
     logged so far, so it is a legal DRAT derivation step. *)
  proof_push_sub s 1 s.learnt_buf 0 n;
  if n = 1 then enqueue s s.learnt_buf.(0) (-1)
  else if n = 2 then begin
    let a = s.learnt_buf.(0) and b = s.learnt_buf.(1) in
    attach_binary s a b;
    enqueue s a ((b lsl 1) lor 1)
  end
  else begin
    (* Copy straight from the scratch buffer; no intermediate array. *)
    let need = s.arena_top + n + 2 in
    if need > Array.length s.arena then begin
      let a = Array.make (max need (2 * Array.length s.arena)) 0 in
      Array.blit s.arena 0 a 0 s.arena_top;
      s.arena <- a
    end;
    let cr = s.arena_top in
    s.arena.(cr) <- n;
    s.arena.(cr + 1) <- (lbd lsl 2) lor 1;
    Array.blit s.learnt_buf 0 s.arena (cr + 2) n;
    s.arena_top <- need;
    push_cref s ~learned:true cr;
    attach_clause s cr;
    enqueue s s.learnt_buf.(0) (cr lsl 1)
  end

(* ------------------------------------------------------------------ *)
(* Adding clauses                                                      *)
(* ------------------------------------------------------------------ *)

let add_clause s lits =
  assert (s.n_levels = 0);
  (* Log the clause exactly as given, before simplification: the checker's
     database must mirror what the caller asserted. *)
  proof_push_list s 0 lits;
  if s.ok then begin
    (* Simplify: drop duplicates and root-level-false literals, detect
       tautologies and root-level-satisfied clauses.  Sorted, a variable's
       two literals 2v and 2v+1 are neighbours, so one pass finds a
       tautology.  The sorted order is the stored order: its first two
       literals become the watched pair. *)
    let lits = List.sort_uniq Int.compare lits in
    let rec tautology = function
      | a :: (b :: _ as rest) -> b = Lit.negate a || tautology rest
      | [] | [ _ ] -> false
    in
    let tautology = tautology lits in
    let satisfied = List.exists (fun l -> lit_value s l = 1) lits in
    if not (tautology || satisfied) then begin
      let lits = List.filter (fun l -> lit_value s l = 0) lits in
      match lits with
      | [] -> s.ok <- false
      | [ l ] ->
        enqueue s l (-1);
        if propagate s >= 0 then s.ok <- false
      | [ a; b ] -> attach_binary s a b
      | l0 :: l1 :: rest ->
        let cr = alloc_clause s (Array.of_list (l0 :: l1 :: rest)) in
        push_cref s ~learned:false cr;
        attach_clause s cr
    end
  end

let root_value s v =
  if v >= 0 && v < s.nvars then var_value s v else 0

(* ------------------------------------------------------------------ *)
(* Clause-database reduction                                           *)
(* ------------------------------------------------------------------ *)

(* Put the two best literals of the clause at [cr] (in the *new* arena) into
   the watch slots: non-false under the current (level-0) assignment when
   possible.  Clauses left with a false watch are satisfied at level 0 (all
   level-0 literals are fully propagated), so the invariant holds. *)
let reorder_watch_slots s cr =
  let base = cr + 2 in
  let len = s.arena.(cr) in
  let pick slot =
    if lit_value s s.arena.(base + slot) < 0 then begin
      let k = ref (slot + 1) in
      while !k < len && lit_value s s.arena.(base + !k) < 0 do incr k done;
      if !k < len then begin
        let tmp = s.arena.(base + slot) in
        s.arena.(base + slot) <- s.arena.(base + !k);
        s.arena.(base + !k) <- tmp
      end
    end
  in
  pick 0;
  pick 1

(* Compact the arena, dropping clauses marked deleted from both clause
   lists, and rebuild every watch list from scratch.  The caller must have
   cleared level-0 trail reasons first (crefs move), and must be at a fully
   propagated decision-level-0 boundary. *)
let rebuild_clause_db s =
  let old = s.arena in
  let fresh = Array.make (Array.length old) 0 in
  let top = ref 0 in
  let move cr =
    let len = old.(cr) in
    let dst = !top in
    Array.blit old cr fresh dst (len + 2);
    top := dst + len + 2;
    dst
  in
  let keep arr n =
    let kept = ref 0 in
    for i = 0 to n - 1 do
      let cr = arr.(i) in
      if not (c_deleted s cr) then begin
        arr.(!kept) <- move cr;
        incr kept
      end
    done;
    !kept
  in
  s.n_problem <- keep s.clauses s.n_problem;
  s.n_learnts <- keep s.learnts s.n_learnts;
  s.arena <- fresh;
  s.arena_top <- !top;
  Array.fill s.watch_size 0 (Array.length s.watch_size) 0;
  for i = 0 to s.n_problem - 1 do
    reorder_watch_slots s s.clauses.(i);
    attach_clause s s.clauses.(i)
  done;
  for i = 0 to s.n_learnts - 1 do
    reorder_watch_slots s s.learnts.(i);
    attach_clause s s.learnts.(i)
  done

(* Glucose-style reduction, run at decision level 0 (restart points): delete
   the worst half of the deletable learnt clauses — high LBD first, ties by
   size — keeping "glue" clauses (LBD <= 2) forever.  Binary and unit learnt
   clauses never enter the arena and are likewise permanent.  Problem
   clauses (including the activation-literal clauses of the incremental
   CEGIS encoding) are never candidates.  The surviving clauses are
   compacted into a fresh arena and all watch lists are rebuilt. *)
let reduce_db s =
  assert (s.n_levels = 0);
  (* Level-0 reasons are never followed by [analyze]; clearing them keeps
     every learnt clause unlocked and lets the arena move. *)
  for i = 0 to s.trail_size - 1 do
    s.reason.(Lit.var s.trail.(i)) <- -1
  done;
  let deletable =
    Array.of_seq
      (Seq.filter
         (fun cr -> c_lbd s cr > 2)
         (Seq.init s.n_learnts (fun i -> s.learnts.(i))))
  in
  Array.sort
    (fun a b ->
       let c = compare (c_lbd s b) (c_lbd s a) in
       if c <> 0 then c else compare (c_len s b) (c_len s a))
    deletable;
  let victims = Array.length deletable / 2 in
  for i = 0 to victims - 1 do
    let cr = deletable.(i) in
    proof_push_sub s 2 s.arena (cr + 2) (c_len s cr);
    c_delete s cr
  done;
  s.st_deleted <- s.st_deleted + victims;
  rebuild_clause_db s;
  (* Glucose-style schedule: the interval to the next reduction grows each
     time, so reductions get rarer as the search matures. *)
  s.reduce_step <- s.reduce_step + 300;
  s.reduce_budget <- s.st_conflicts + s.reduce_step

(* ------------------------------------------------------------------ *)
(* Invariant sanitizer                                                 *)
(* ------------------------------------------------------------------ *)

exception Invariant_violation of string

(* Structural well-formedness checks over the whole solver state.  These are
   meaningful at decision-level boundaries (between [propagate] fixpoints),
   which is where [solve] calls them when [set_sanitize] is on: at entry,
   after every restart/reduction, and at exit.  The checks are deliberately
   exhaustive rather than fast — they exist to catch engine bugs, not to run
   in production. *)
module Invariants = struct
  exception Bad of string

  let failf fmt = Printf.ksprintf (fun m -> raise (Bad m)) fmt

  let check_assigns s =
    for v = 0 to s.nvars - 1 do
      let a = s.assigns.(2 * v) and b = s.assigns.((2 * v) + 1) in
      if a <> -b then
        failf "var %d: literal slots disagree (%d vs %d)" v a b
    done

  let check_trail s =
    if s.trail_size > s.nvars then
      failf "trail size %d exceeds variable count %d" s.trail_size s.nvars;
    if s.qhead > s.trail_size then
      failf "propagation queue head %d beyond trail size %d" s.qhead
        s.trail_size;
    for d = 0 to s.n_levels - 1 do
      if s.trail_lim.(d) > s.trail_size then
        failf "trail_lim[%d] = %d beyond trail size %d" d s.trail_lim.(d)
          s.trail_size;
      if d > 0 && s.trail_lim.(d) < s.trail_lim.(d - 1) then
        failf "trail_lim not monotone at level %d" d
    done;
    let on_trail = Array.make (max 1 s.nvars) false in
    for i = 0 to s.trail_size - 1 do
      let l = s.trail.(i) in
      let v = Lit.var l in
      if v < 0 || v >= s.nvars then
        failf "trail[%d]: literal %d out of range" i l;
      if on_trail.(v) then failf "var %d appears twice on the trail" v;
      on_trail.(v) <- true;
      if s.assigns.(l) <> 1 then
        failf "trail[%d]: literal %d is not assigned true" i l;
      let lvl = s.level.(v) in
      if lvl < 0 || lvl > s.n_levels then
        failf "trail[%d]: var %d has out-of-range level %d" i v lvl;
      let seg_lo = if lvl = 0 then 0 else s.trail_lim.(lvl - 1) in
      let seg_hi =
        if lvl >= s.n_levels then s.trail_size else s.trail_lim.(lvl)
      in
      if i < seg_lo || i >= seg_hi then
        failf "trail[%d]: var %d at level %d lies outside that segment" i v lvl
    done;
    for v = 0 to s.nvars - 1 do
      if var_value s v <> 0 && not on_trail.(v) then
        failf "var %d is assigned but missing from the trail" v
    done

  let check_reasons s =
    for i = 0 to s.trail_size - 1 do
      let l = s.trail.(i) in
      let v = Lit.var l in
      let r = s.reason.(v) in
      if r >= 0 then
        if r land 1 = 1 then begin
          let other = r lsr 1 in
          if Lit.var other >= s.nvars then
            failf "var %d: binary reason literal %d out of range" v other;
          if s.assigns.(other) <> -1 then
            failf "var %d: binary reason literal %d is not false" v other
        end
        else begin
          let cr = r lsr 1 in
          if cr < 0 || cr + 2 > s.arena_top then
            failf "var %d: reason cref %d outside the arena" v cr;
          let len = c_len s cr in
          if len < 3 || cr + 2 + len > s.arena_top then
            failf "var %d: reason cref %d malformed" v cr;
          if c_deleted s cr then
            failf "var %d: deleted clause %d used as a reason" v cr;
          if c_lit s cr 0 <> l then
            failf "var %d: reason clause %d does not carry the propagated \
                   literal in slot 0" v cr;
          for j = 1 to len - 1 do
            if s.assigns.(c_lit s cr j) <> -1 then
              failf "var %d: reason clause %d has a non-false tail literal"
                v cr
          done
        end
    done

  (* Per-clause bookkeeping on one flat byte per cref: bit 7 marks a
     clause some clause list registers, bits 0-1 count the watch entries
     naming it (saturating at 3), and bits 2 and 3 record a watch by its
     first and by its second literal. *)
  let check_clauses_and_watches s =
    let top = s.arena_top in
    let marks = Bytes.make (max 1 top) '\000' in
    let mark cr = Char.code (Bytes.unsafe_get marks cr) in
    let scan_list name arr n ~learned =
      for i = 0 to n - 1 do
        let cr = arr.(i) in
        if cr < 0 || cr + 2 > top then
          failf "%s[%d]: cref %d outside the arena" name i cr;
        let len = c_len s cr in
        if len < 3 || cr + 2 + len > top then
          failf "%s[%d]: clause %d malformed (len %d)" name i cr len;
        if c_deleted s cr then
          failf "%s[%d]: deleted clause %d still registered" name i cr;
        if c_learned s cr <> learned then
          failf "%s[%d]: clause %d learned-flag mismatch" name i cr;
        for j = 0 to len - 1 do
          let l = c_lit s cr j in
          if l < 0 || Lit.var l >= s.nvars then
            failf "clause %d: literal %d out of range" cr l
        done;
        if mark cr <> 0 then
          failf "clause %d registered in two clause lists" cr;
        Bytes.unsafe_set marks cr '\128'
      done
    in
    scan_list "clauses" s.clauses s.n_problem ~learned:false;
    scan_list "learnts" s.learnts s.n_learnts ~learned:true;
    let watched_wrongly cr =
      let ws = ref [] in
      for l = (2 * s.nvars) - 1 downto 0 do
        let wd = s.watch.(l) in
        let j = ref (s.watch_size.(l) - 2) in
        while !j >= 0 do
          if wd.(!j) = cr then ws := l :: !ws;
          j := !j - 2
        done
      done;
      failf "clause %d: watched by {%s}, expected its first two \
             literals {%d, %d}" cr
        (String.concat "," (List.map string_of_int !ws))
        (c_lit s cr 0) (c_lit s cr 1)
    in
    for l = 0 to (2 * s.nvars) - 1 do
      let wd = s.watch.(l) and wn = s.watch_size.(l) in
      if wn > Array.length wd then
        failf "watch list of literal %d overruns its array" l;
      let i = ref 0 in
      while !i < wn do
        let cr = wd.(!i) and blocker = wd.(!i + 1) in
        if cr < 0 || cr >= top || mark cr = 0 then
          failf "literal %d watches an unknown or deleted clause %d" l cr;
        let len = c_len s cr in
        let j = ref 0 in
        while !j < len && c_lit s cr !j <> blocker do incr j done;
        if !j = len then
          failf "literal %d: blocker %d is not in clause %d" l blocker cr;
        let m = mark cr in
        let by =
          if l = c_lit s cr 0 then 4
          else if l = c_lit s cr 1 then 8
          else watched_wrongly cr
        in
        let count = min 3 ((m land 3) + 1) in
        Bytes.unsafe_set marks cr
          (Char.unsafe_chr (((m lor by) land lnot 3) lor count));
        i := !i + 2
      done
    done;
    let check_watched arr n =
      for i = 0 to n - 1 do
        let cr = arr.(i) in
        (* Registered, watched by both literals, twice in all. *)
        if mark cr <> 128 lor 8 lor 4 lor 2 then watched_wrongly cr
      done
    in
    check_watched s.clauses s.n_problem;
    check_watched s.learnts s.n_learnts

  let check_heap s =
    if s.heap_size > s.nvars then
      failf "heap size %d exceeds variable count %d" s.heap_size s.nvars;
    for i = 0 to s.heap_size - 1 do
      let v = s.heap.(i) in
      if v < 0 || v >= s.nvars then
        failf "heap[%d]: variable %d out of range" i v;
      if s.heap_index.(v) <> i then
        failf "heap[%d]: heap_index inverse broken for var %d" i v;
      if i > 0 then begin
        let parent = (i - 1) / 2 in
        if s.activity.(s.heap.(parent)) < s.activity.(v) then
          failf "max-heap property violated at index %d" i
      end
    done;
    for v = 0 to s.nvars - 1 do
      let hi = s.heap_index.(v) in
      if hi >= 0 && (hi >= s.heap_size || s.heap.(hi) <> v) then
        failf "var %d: stale heap_index %d" v hi;
      (* Only at fully propagated boundaries is every unassigned variable
         guaranteed to sit in the decision heap. *)
      if hi < 0 && var_value s v = 0 && s.qhead = s.trail_size then
        failf "unassigned var %d missing from the decision heap" v
    done

  let check_bins s =
    for l = 0 to (2 * s.nvars) - 1 do
      let bn = s.bin_size.(l) in
      if bn > Array.length s.bins.(l) then
        failf "binary list of literal %d overruns its array" l;
      for i = 0 to bn - 1 do
        let q = s.bins.(l).(i) in
        if q < 0 || Lit.var q >= s.nvars then
          failf "binary list of literal %d holds out-of-range literal %d" l q
      done
    done

  let check s =
    match
      check_assigns s;
      check_trail s;
      check_reasons s;
      check_clauses_and_watches s;
      check_heap s;
      check_bins s
    with
    | () -> Ok ()
    | exception Bad msg -> Error msg
end

let set_sanitize s b = s.sanitize <- b
let set_sanitize_default b = Atomic.set sanitize_default b

let sanitize_check s =
  if s.sanitize then
    match Invariants.check s with
    | Ok () -> ()
    | Error msg -> raise (Invariant_violation msg)

(* ------------------------------------------------------------------ *)
(* Search                                                              *)
(* ------------------------------------------------------------------ *)

(* Geometric restarts, growing by 3/2, with a large first interval: under
   the slow activity decay (see [decay]) short bursts relitigate the same
   prefix on the symmetric CEGIS/cardinality encodings. *)
let first_restart = 300

(* The next unassigned variable by activity, or -1 when the model is
   complete.  Once the trail covers every variable, every remaining heap
   entry would be popped and discarded, so the heap is emptied in one pass
   instead. *)
let pick_branch_var s =
  if s.trail_size = s.nvars then begin
    heap_clear s;
    -1
  end
  else begin
    let v = ref (-1) in
    while !v < 0 && s.heap_size > 0 do
      let cand = heap_pop s in
      if var_value s cand = 0 then v := cand
    done;
    !v
  end

let solve ?(assumptions = []) s =
  if not s.ok then Unsat
  else begin
    cancel_until s 0;
    sanitize_check s;
    let assumptions = Array.of_list assumptions in
    let n_assumptions = Array.length assumptions in
    let restart_limit = ref first_restart in
    let conflicts_here = ref 0 in
    let result = ref Unsat in
    let finished = ref false in
    while not !finished do
      let confl = propagate s in
      if confl >= 0 then begin
        s.st_conflicts <- s.st_conflicts + 1;
        incr conflicts_here;
        if s.n_levels = 0 then begin
          s.ok <- false;
          finished := true
        end
        else if s.n_levels <= n_assumptions then begin
          (* The conflict only depends on assumptions and root clauses. *)
          finished := true
        end
        else begin
          let n = analyze s confl in
          let backjump = s.an_backjump and lbd = s.an_lbd in
          (* Never backjump into the middle of the assumption prefix with a
             pending asserting literal that contradicts an assumption: the
             learnt clause is still sound, and if it conflicts again we end
             up in one of the terminating branches above. *)
          cancel_until s backjump;
          record_learnt s n lbd;
          decay s
        end
      end
      else if
        !conflicts_here >= !restart_limit
        || (s.reduce_enabled && s.st_conflicts >= s.reduce_budget)
      then begin
        s.st_restarts <- s.st_restarts + 1;
        restart_limit := !restart_limit * 3 / 2;
        conflicts_here := 0;
        cancel_until s 0;
        if s.reduce_enabled && s.st_conflicts >= s.reduce_budget then
          reduce_db s;
        sanitize_check s
      end
      else if s.n_levels < n_assumptions then begin
        let a = assumptions.(s.n_levels) in
        match lit_value s a with
        | -1 -> finished := true
        | 1 -> new_decision_level s (* vacuous level to keep indices aligned *)
        | _ ->
          new_decision_level s;
          enqueue s a (-1)
      end
      else begin
        match pick_branch_var s with
        | -1 ->
          let model = Array.init s.nvars (fun v -> var_value s v = 1) in
          result := Sat model;
          finished := true
        | v ->
          s.st_decisions <- s.st_decisions + 1;
          new_decision_level s;
          enqueue s (Lit.make v s.phase.(v)) (-1)
      end
    done;
    cancel_until s 0;
    sanitize_check s;
    !result
  end
