module Rat = Pmi_numeric.Rat
module Scheme = Pmi_isa.Scheme

(* Sparse throughput oracle.

   By the bottleneck-set theorem (§2.2), tp⁻¹(e) = max over ∅ ≠ Q of
   mass_e(Q) / |Q| is attained at a union of the experiment's µop port
   sets: shrinking any Q to the union of the masks inside it keeps the mass
   and cannot grow |Q|.  So a query only needs the experiment's distinct
   non-empty port masks and the µop mass on each (a [profile]), never the
   2^P port lattice.  With k masks over the union U, the kernel enumerates
   the unions of subsets of the masks (2^k leaves) or, when k > |U|, the
   submasks of U (2^|U| leaves); both visit every candidate bottleneck, and
   each leaf sums the masses of the masks it contains.  k is at most a
   handful for CEGIS experiments, independent of the port count.

   Ties are broken towards the numerically smallest mask, the same set a
   scan of the lattice in mask order returns.  Fractions stay native
   (num, den) ints until the public [Rat] API. *)

type t = { mapping : Mapping.t; num_ports : int }

let create mapping = { mapping; num_ports = Mapping.num_ports mapping }
let mapping t = t.mapping
let num_ports t = t.num_ports

let row t scheme =
  match Mapping.find_opt t.mapping scheme with
  | Some usage -> usage
  | None -> raise (Throughput.Unsupported scheme)

let prepare t schemes = List.iter (fun s -> ignore (row t s)) schemes

(* Mass profile: distinct masks in slots [0, k) with positive masses. *)
type profile = {
  mutable k : int;
  mutable masks : int array;
  mutable mass : int array;
}

let profile () = { k = 0; masks = Array.make 8 0; mass = Array.make 8 0 }

let slot p mask =
  let rec find i =
    if i = p.k then -1 else if p.masks.(i) = mask then i else find (i + 1)
  in
  find 0

let credit p mask m =
  let i = slot p mask in
  if i >= 0 then p.mass.(i) <- p.mass.(i) + m
  else begin
    if p.k = Array.length p.masks then begin
      let grow a = Array.append a (Array.make p.k 0) in
      p.masks <- grow p.masks;
      p.mass <- grow p.mass
    end;
    p.masks.(p.k) <- mask;
    p.mass.(p.k) <- m;
    p.k <- p.k + 1
  end

let popcount x =
  let rec go acc x = if x = 0 then acc else go (acc + 1) (x land (x - 1)) in
  go 0 x

(* The kernel: a best bottleneck (mask, num, den) of a profile, compared
   by exact cross-multiplication (masses and cardinalities are far from
   native-int overflow).  (0, 0, 1) for the empty profile. *)
let best p =
  let k = p.k and masks = p.masks and mass = p.mass in
  let best_q = ref 0 and best_num = ref 0 and best_den = ref 1 in
  let consider q =
    let m = ref 0 in
    for i = 0 to k - 1 do
      let mi = masks.(i) in
      if mi land q = mi then m := !m + mass.(i)
    done;
    let card = popcount q in
    let lhs = !m * !best_den and rhs = !best_num * card in
    if lhs > rhs || (lhs = rhs && q < !best_q) then begin
      best_q := q;
      best_num := !m;
      best_den := card
    end
  in
  let u = ref 0 in
  for i = 0 to k - 1 do u := !u lor masks.(i) done;
  let u = !u in
  if k <= popcount u then begin
    (* Unions of subsets; a mask already inside the running union would
       not change it, so only the branch without it is taken. *)
    let rec go i q =
      if i = k then (if q <> 0 then consider q)
      else begin
        let mi = masks.(i) in
        go (i + 1) q;
        if mi land q <> mi then go (i + 1) (q lor mi)
      end
    in
    go 0 0
  end
  else begin
    let q = ref u in
    while !q <> 0 do
      consider !q;
      q := (!q - 1) land u
    done
  end;
  (!best_q, !best_num, !best_den)

let profile_of t experiment =
  let p = profile () in
  List.iter
    (fun (s, count) ->
       List.iter
         (fun (ports, n) -> credit p (Portset.to_mask ports) (n * count))
         (row t s))
    (Experiment.to_counts experiment);
  p

let inverse t experiment =
  let _, num, den = best (profile_of t experiment) in
  Rat.of_ints num den

let bottleneck_set t experiment =
  let q, _, _ = best (profile_of t experiment) in
  Portset.of_mask q

(* max (num/den) (len/r_max) without building the loser. *)
let bounded ~r_max len num den =
  if r_max <= 0 then invalid_arg "Oracle.inverse_bounded";
  if num * r_max >= len * den then (num, den) else (len, r_max)

let inverse_bounded_frac ~r_max t experiment =
  let _, num, den = best (profile_of t experiment) in
  bounded ~r_max (Experiment.length experiment) num den

let rat (num, den) = Rat.of_ints num den

let masses_frac masks masses =
  if Array.length masks <> Array.length masses then
    invalid_arg "Oracle.masses_frac";
  let _, num, den = best { k = Array.length masks; masks; mass = masses } in
  (num, den)
let inverse_bounded ~r_max t experiment =
  rat (inverse_bounded_frac ~r_max t experiment)

module Acc = struct
  type oracle = t

  type nonrec t = {
    oracle : oracle;
    profile : profile;
    mutable len : int;
  }

  let create oracle = { oracle; profile = profile (); len = 0 }
  let length acc = acc.len
  let distinct_masks acc = acc.profile.k

  let add acc scheme count =
    if count < 0 then invalid_arg "Oracle.Acc.add";
    let usage = row acc.oracle scheme in
    if count > 0 then begin
      List.iter
        (fun (ports, n) ->
           credit acc.profile (Portset.to_mask ports) (n * count))
        usage;
      acc.len <- acc.len + count
    end

  (* Checked before anything moves, so a refused removal leaves the
     accumulator as it was.  A mask whose mass reaches zero leaves the
     profile, which keeps k small. *)
  let remove acc scheme count =
    if count < 0 then invalid_arg "Oracle.Acc.remove";
    let usage = row acc.oracle scheme in
    if count > 0 then begin
      let p = acc.profile in
      let fits (ports, n) =
        let i = slot p (Portset.to_mask ports) in
        i >= 0 && p.mass.(i) >= n * count
      in
      if count > acc.len || not (List.for_all fits usage) then
        invalid_arg "Oracle.Acc.remove";
      List.iter
        (fun (ports, n) ->
           let i = slot p (Portset.to_mask ports) in
           let m = p.mass.(i) - (n * count) in
           if m > 0 then p.mass.(i) <- m
           else begin
             let last = p.k - 1 in
             p.masks.(i) <- p.masks.(last);
             p.mass.(i) <- p.mass.(last);
             p.k <- last
           end)
        usage;
      acc.len <- acc.len - count
    end

  let reset acc =
    acc.profile.k <- 0;
    acc.len <- 0

  let inverse acc =
    let _, num, den = best acc.profile in
    Rat.of_ints num den

  let inverse_bounded_frac ~r_max acc =
    let _, num, den = best acc.profile in
    bounded ~r_max acc.len num den

  let inverse_bounded ~r_max acc = rat (inverse_bounded_frac ~r_max acc)
end
