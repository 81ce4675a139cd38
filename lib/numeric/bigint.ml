(* Sign-magnitude bignums over little-endian base-2^15 digit arrays.
   Invariants: [mag] has no trailing (most-significant) zero digit, and
   [sign = 0] exactly when [mag] is empty.  Base 2^15 keeps every digit
   product below 2^30, so schoolbook multiplication can accumulate a full
   row of partial products plus carries without approaching [max_int]. *)

let base_bits = 15
let base = 1 lsl base_bits
let base_mask = base - 1

type t = { sign : int; mag : int array }

let zero = { sign = 0; mag = [||] }
let normalize sign mag =
  let n = Array.length mag in
  let rec top i = if i > 0 && mag.(i - 1) = 0 then top (i - 1) else i in
  let k = top n in
  if k = 0 then zero
  else if k = n then { sign; mag }
  else { sign; mag = Array.sub mag 0 k }

let of_int i =
  if i = 0 then zero
  else if i > -base && i < base then
    { sign = (if i > 0 then 1 else -1); mag = [| Stdlib.abs i |] }
  else begin
    let sign = if i > 0 then 1 else -1 in
    (* [abs min_int] overflows, so peel digits off the negative value. *)
    let rec digits acc v =
      if v = 0 then List.rev acc
      else digits ((-(v mod base)) :: acc) (v / base)
    in
    let v = if i > 0 then -i else i in
    { sign; mag = Array.of_list (digits [] v) }
  end

let one = of_int 1

let is_zero a = a.sign = 0
let sign a = a.sign

(* Magnitude comparison: |a| vs |b|. *)
let cmp_mag a b =
  let la = Array.length a and lb = Array.length b in
  if la <> lb then compare la lb
  else begin
    let rec go i =
      if i < 0 then 0
      else if a.(i) <> b.(i) then compare a.(i) b.(i)
      else go (i - 1)
    in
    go (la - 1)
  end

let compare a b =
  if a.sign <> b.sign then compare a.sign b.sign
  else if a.sign = 0 then 0
  else a.sign * cmp_mag a.mag b.mag

let equal a b = compare a b = 0

let hash a =
  Array.fold_left (fun acc d -> (acc * 31 + d) land max_int) (a.sign + 1) a.mag

let neg a = if a.sign = 0 then a else { a with sign = -a.sign }
let abs a = if a.sign < 0 then neg a else a

(* |a| + |b| as a magnitude. *)
let add_mag a b =
  let la = Array.length a and lb = Array.length b in
  let l = Stdlib.max la lb in
  let out = Array.make (l + 1) 0 in
  let carry = ref 0 in
  for i = 0 to l - 1 do
    let s = (if i < la then a.(i) else 0) + (if i < lb then b.(i) else 0) + !carry in
    out.(i) <- s land base_mask;
    carry := s lsr base_bits
  done;
  out.(l) <- !carry;
  out

(* |a| - |b| as a magnitude; requires |a| >= |b|. *)
let sub_mag a b =
  let la = Array.length a and lb = Array.length b in
  let out = Array.make la 0 in
  let borrow = ref 0 in
  for i = 0 to la - 1 do
    let d = a.(i) - (if i < lb then b.(i) else 0) - !borrow in
    if d < 0 then begin
      out.(i) <- d + base;
      borrow := 1
    end else begin
      out.(i) <- d;
      borrow := 0
    end
  done;
  assert (!borrow = 0);
  out

let add a b =
  if a.sign = 0 then b
  else if b.sign = 0 then a
  else if a.sign = b.sign then normalize a.sign (add_mag a.mag b.mag)
  else begin
    match cmp_mag a.mag b.mag with
    | 0 -> zero
    | c when c > 0 -> normalize a.sign (sub_mag a.mag b.mag)
    | _ -> normalize b.sign (sub_mag b.mag a.mag)
  end

let sub a b = add a (neg b)

let mul a b =
  if a.sign = 0 || b.sign = 0 then zero
  else begin
    let la = Array.length a.mag and lb = Array.length b.mag in
    let out = Array.make (la + lb) 0 in
    for i = 0 to la - 1 do
      let carry = ref 0 in
      let ai = a.mag.(i) in
      for j = 0 to lb - 1 do
        let cur = out.(i + j) + (ai * b.mag.(j)) + !carry in
        out.(i + j) <- cur land base_mask;
        carry := cur lsr base_bits
      done;
      let k = ref (i + lb) in
      while !carry <> 0 do
        let cur = out.(!k) + !carry in
        out.(!k) <- cur land base_mask;
        carry := cur lsr base_bits;
        incr k
      done
    done;
    normalize (a.sign * b.sign) out
  end

(* Magnitude division by a single digit; returns (quotient, remainder). *)
let divmod_digit a d =
  let la = Array.length a in
  let q = Array.make la 0 in
  let r = ref 0 in
  for i = la - 1 downto 0 do
    let cur = (!r lsl base_bits) lor a.(i) in
    q.(i) <- cur / d;
    r := cur mod d
  done;
  (q, !r)

(* Long division of magnitudes: |a| / |b| with |b| non-zero.  Uses the
   classical shift-and-subtract algorithm on digits, binary-searching each
   quotient digit; numbers in this code base are small, so simplicity wins
   over Knuth's algorithm D. *)
let divmod_mag a b =
  let lb = Array.length b in
  if lb = 1 then begin
    let q, r = divmod_digit a b.(0) in
    (q, if r = 0 then [||] else [| r |])
  end else begin
    let la = Array.length a in
    if cmp_mag a b < 0 then ([||], Array.copy a)
    else begin
      let q = Array.make (la - lb + 1) 0 in
      (* Remainder accumulator, processed from the most significant digit. *)
      let rem = ref [||] in
      let shift_in_digit m d =
        (* m * base + d *)
        let lm = Array.length m in
        if lm = 0 && d = 0 then [||]
        else begin
          let out = Array.make (lm + 1) 0 in
          out.(0) <- d;
          Array.blit m 0 out 1 lm;
          out
        end
      in
      (* mag * small-digit *)
      let mul_digit m d =
        if d = 0 then [||]
        else begin
          let lm = Array.length m in
          let out = Array.make (lm + 1) 0 in
          let carry = ref 0 in
          for i = 0 to lm - 1 do
            let cur = (m.(i) * d) + !carry in
            out.(i) <- cur land base_mask;
            carry := cur lsr base_bits
          done;
          out.(lm) <- !carry;
          let n = if out.(lm) = 0 then lm else lm + 1 in
          Array.sub out 0 n
        end
      in
      for i = la - 1 downto 0 do
        rem := shift_in_digit !rem a.(i);
        (* Largest digit d with b*d <= rem, found by binary search. *)
        let lo = ref 0 and hi = ref (base - 1) in
        while !lo < !hi do
          let mid = (!lo + !hi + 1) / 2 in
          if cmp_mag (mul_digit b mid) !rem <= 0 then lo := mid else hi := mid - 1
        done;
        let d = !lo in
        if d > 0 then rem := sub_mag !rem (mul_digit b d);
        (* Strip leading zeros of rem. *)
        let lr = Array.length !rem in
        let rec top k = if k > 0 && !rem.(k - 1) = 0 then top (k - 1) else k in
        let k = top lr in
        if k < lr then rem := Array.sub !rem 0 k;
        if i <= la - lb then q.(i) <- d
      done;
      (q, !rem)
    end
  end

let divmod a b =
  if b.sign = 0 then raise Division_by_zero
  else if a.sign = 0 then (zero, zero)
  else begin
    let qm, rm = divmod_mag a.mag b.mag in
    let q = normalize (a.sign * b.sign) qm in
    let r = normalize a.sign rm in
    (q, r)
  end

let div a b = fst (divmod a b)
let rem a b = snd (divmod a b)

let rec gcd_abs a b = if is_zero b then a else gcd_abs b (rem a b)
let gcd a b = gcd_abs (abs a) (abs b)

let min a b = if compare a b <= 0 then a else b
let max a b = if compare a b >= 0 then a else b

let is_one a = a.sign = 1 && a.mag = [| 1 |]

let to_int_opt a =
  (* Accumulate in the negative range, which is one wider than the positive. *)
  let rec loop acc i =
    if i < 0 then Some acc
    else if acc < Stdlib.min_int / base then None
    else begin
      let shifted = acc * base in
      if shifted < Stdlib.min_int + a.mag.(i) then None
      else loop (shifted - a.mag.(i)) (i - 1)
    end
  in
  match loop 0 (Array.length a.mag - 1) with
  | None -> None
  | Some neg_v ->
    if a.sign >= 0 then (if neg_v = Stdlib.min_int then None else Some (-neg_v))
    else Some neg_v

let to_int a =
  match to_int_opt a with
  | Some v -> v
  | None -> failwith "Bigint.to_int: overflow"

let to_string a =
  if a.sign = 0 then "0"
  else begin
    let buf = Buffer.create 16 in
    let rec chunks acc m =
      (* Peel base-10000 chunks so each is printable with %04d. *)
      if Array.length m = 0 then acc
      else begin
        let q, r = divmod_digit m 10000 in
        let rec top k = if k > 0 && q.(k - 1) = 0 then top (k - 1) else k in
        let q = Array.sub q 0 (top (Array.length q)) in
        chunks (r :: acc) q
      end
    in
    (match chunks [] a.mag with
     | [] -> assert false
     | first :: rest ->
       if a.sign < 0 then Buffer.add_char buf '-';
       Buffer.add_string buf (string_of_int first);
       List.iter (fun c -> Buffer.add_string buf (Printf.sprintf "%04d" c)) rest);
    Buffer.contents buf
  end

let of_string s =
  let invalid () = invalid_arg ("Bigint.of_string: " ^ s) in
  let n = String.length s in
  if n = 0 then invalid ();
  let is_neg, start = if s.[0] = '-' then (true, 1) else (false, 0) in
  if start >= n then invalid ();
  let acc = ref zero in
  let ten = of_int 10 in
  for i = start to n - 1 do
    match s.[i] with
    | '0' .. '9' -> acc := add (mul !acc ten) (of_int (Char.code s.[i] - Char.code '0'))
    | _ -> invalid ()
  done;
  if is_neg then neg !acc else !acc

let pp ppf a = Format.pp_print_string ppf (to_string a)
