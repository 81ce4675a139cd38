module Rat = Pmi_numeric.Rat
module Scheme = Pmi_isa.Scheme

(* Sparse throughput oracle.

   By the bottleneck-set theorem (§2.2), tp⁻¹(e) = max over ∅ ≠ Q of
   mass_e(Q) / |Q| is attained at a union of the experiment's µop port
   sets: shrinking any Q to the union of the masks inside it keeps the mass
   and cannot grow |Q|.  So a query only needs the experiment's distinct
   non-empty port masks and the µop mass on each (a [profile]), never the
   2^P port lattice.  With k masks over the union U, the kernel enumerates
   the unions of subsets of the masks (2^k leaves, each carrying its mass
   down the recursion) or, when k > |U|, the submasks of U (2^|U| leaves,
   each summing the masks it contains); both visit every candidate
   bottleneck.  k is at most a handful for CEGIS experiments, independent
   of the port count.

   Ties are broken towards the numerically smallest mask, the same set a
   scan of the lattice in mask order returns.  Fractions stay native
   (num, den) ints until the public [Rat] API.  Each query or accumulator
   owns its scratch profile, so domains share only the read-only mapping. *)

type t = { mapping : Mapping.t; num_ports : int }

let create mapping = { mapping; num_ports = Mapping.num_ports mapping }
let num_ports t = t.num_ports

let row t scheme =
  try Mapping.row t.mapping scheme
  with Not_found -> raise (Throughput.Unsupported scheme)

let prepare t schemes = List.iter (fun s -> ignore (row t s)) schemes

(* Mass profile: distinct masks in slots [0, k) with their masses, and the
   best bottleneck (mask, num, den) the last [best] found. *)
type profile = {
  mutable k : int;
  mutable masks : int array;
  mutable mass : int array;
  mutable best_q : int;
  mutable best_num : int;
  mutable best_den : int;
}

(* Array literals are allocated inline, without a runtime call; [credit]
   doubles them when a query has more masks. *)
let profile () =
  let masks = [| 0; 0; 0; 0; 0; 0; 0; 0 |] in
  let mass = [| 0; 0; 0; 0; 0; 0; 0; 0 |] in
  { k = 0; masks; mass; best_q = 0; best_num = 0; best_den = 1 }

let slot p mask =
  let i = ref 0 in
  while !i < p.k && p.masks.(!i) <> mask do incr i done;
  if !i < p.k then !i else -1

let credit p mask m =
  let i = slot p mask in
  if i >= 0 then p.mass.(i) <- p.mass.(i) + m
  else begin
    let k = p.k in
    if k = Array.length p.masks then begin
      p.masks <- Array.append p.masks p.masks;
      p.mass <- Array.append p.mass p.mass
    end;
    p.masks.(k) <- mask;
    p.mass.(k) <- m;
    p.k <- k + 1
  end

(* Bits set in a mask below 2^62 (every port set is), by summing bit
   fields of doubling width. *)
let popcount x =
  let x = x - ((x lsr 1) land 0x1555555555555555) in
  let x = (x land 0x3333333333333333) + ((x lsr 2) land 0x3333333333333333) in
  let x = (x + (x lsr 4)) land 0x0f0f0f0f0f0f0f0f in
  let x = x + (x lsr 8) in
  let x = x + (x lsr 16) in
  (x + (x lsr 32)) land 0x7f

(* One candidate bottleneck q of mass m, compared with the best so far by
   exact cross-multiplication (masses and cardinalities are far from
   native-int overflow). *)
let consider p q m =
  let card = popcount q in
  let lhs = m * p.best_den and rhs = p.best_num * card in
  if lhs > rhs || (lhs = rhs && q < p.best_q) then begin
    p.best_q <- q;
    p.best_num <- m;
    p.best_den <- card
  end

(* Unions of q with subsets of masks [i, k), where m is the mass of the
   masks taken so far.  A mask already inside q is always taken, so the
   leaf of the closed subset {i | mask i ⊆ Q} of every union Q carries
   mass(Q) exactly; any other leaf of Q undercounts, so it can neither
   beat nor tie the optimum with a different (num, den). *)
let rec unions p i q m =
  if i = p.k then (if q <> 0 then consider p q m)
  else begin
    let mi = p.masks.(i) and mass = p.mass.(i) in
    if mi land q = mi then unions p (i + 1) q (m + mass)
    else begin
      unions p (i + 1) q m;
      unions p (i + 1) (q lor mi) (m + mass)
    end
  end

(* The kernel: a best bottleneck of the profile into [best_*];
   (0, 0, 1) for the empty profile. *)
let best p =
  p.best_q <- 0;
  p.best_num <- 0;
  p.best_den <- 1;
  let u = ref 0 in
  for i = 0 to p.k - 1 do u := !u lor p.masks.(i) done;
  let u = !u in
  if p.k <= popcount u then unions p 0 0 0
  else begin
    let q = ref u in
    while !q <> 0 do
      let m = ref 0 in
      for i = 0 to p.k - 1 do
        if p.masks.(i) land !q = p.masks.(i) then m := !m + p.mass.(i)
      done;
      consider p !q !m;
      q := (!q - 1) land u
    done
  end

let credit_row p (r : Mapping.row) count =
  for j = 0 to Array.length r.masks - 1 do
    credit p r.masks.(j) (r.counts.(j) * count)
  done

let rec assemble t p = function
  | [] -> ()
  | (s, count) :: rest ->
    credit_row p (row t s) count;
    assemble t p rest

let query t experiment =
  let p = profile () in
  assemble t p (Experiment.to_counts experiment);
  best p;
  p

let inverse t experiment =
  let p = query t experiment in
  Rat.of_ints p.best_num p.best_den

let bottleneck_set t experiment = Portset.of_mask (query t experiment).best_q

(* max (num/den) (len/r_max) without building the loser. *)
let bounded ~r_max len num den =
  if r_max <= 0 then invalid_arg "Oracle.inverse_bounded";
  if num * r_max >= len * den then (num, den) else (len, r_max)

let inverse_bounded_frac ~r_max t experiment =
  let p = query t experiment in
  bounded ~r_max (Experiment.length experiment) p.best_num p.best_den

let inverse_bounded ~r_max t experiment =
  let num, den = inverse_bounded_frac ~r_max t experiment in
  Rat.of_ints num den

module Acc = struct
  type t = { profile : profile; mutable len : int }

  let create () = { profile = profile (); len = 0 }
  let length acc = acc.len
  let distinct_masks acc = acc.profile.k

  let add_row acc (r : Mapping.row) count =
    if count < 0 then invalid_arg "Oracle.Acc.add_row";
    if count > 0 then begin
      credit_row acc.profile r count;
      acc.len <- acc.len + count
    end

  let reset acc =
    acc.profile.k <- 0;
    acc.len <- 0

  let inverse_frac acc =
    let p = acc.profile in
    best p;
    (p.best_num, p.best_den)

  let inverse_bounded_frac ~r_max acc =
    let p = acc.profile in
    best p;
    bounded ~r_max acc.len p.best_num p.best_den
end
