type t = { num : Bigint.t; den : Bigint.t }

let make num den =
  if Bigint.is_zero den then raise Division_by_zero
  else if Bigint.is_zero num then { num = Bigint.zero; den = Bigint.one }
  else begin
    let num, den = if Bigint.sign den < 0 then (Bigint.neg num, Bigint.neg den) else (num, den) in
    let g = Bigint.gcd num den in
    if Bigint.is_one g then { num; den }
    else { num = Bigint.div num g; den = Bigint.div den g }
  end

let zero = { num = Bigint.zero; den = Bigint.one }
let one = { num = Bigint.one; den = Bigint.one }

let of_int i = { num = Bigint.of_int i; den = Bigint.one }

(* Native ints are reduced natively; only [min_int], whose negation
   overflows, takes the bignum path. *)
let of_ints a b =
  if b = 0 then raise Division_by_zero
  else if a = 0 then zero
  else if a = min_int || b = min_int then
    make (Bigint.of_int a) (Bigint.of_int b)
  else begin
    let rec gcd x y = if y = 0 then x else gcd y (x mod y) in
    let g = gcd (Stdlib.abs a) (Stdlib.abs b) in
    let g = if b < 0 then -g else g in
    { num = Bigint.of_int (a / g); den = Bigint.of_int (b / g) }
  end

let num t = t.num
let den t = t.den

let compare a b =
  (* a.num/a.den ? b.num/b.den  <=>  a.num*b.den ? b.num*a.den, dens > 0. *)
  Bigint.compare (Bigint.mul a.num b.den) (Bigint.mul b.num a.den)

let equal a b = Bigint.equal a.num b.num && Bigint.equal a.den b.den
let sign a = Bigint.sign a.num

let neg a = { a with num = Bigint.neg a.num }
let abs a = { a with num = Bigint.abs a.num }

let add a b =
  make
    (Bigint.add (Bigint.mul a.num b.den) (Bigint.mul b.num a.den))
    (Bigint.mul a.den b.den)

let sub a b = add a (neg b)
let mul a b = make (Bigint.mul a.num b.num) (Bigint.mul a.den b.den)

let inv a =
  if Bigint.is_zero a.num then raise Division_by_zero
  else if Bigint.sign a.num > 0 then { num = a.den; den = a.num }
  else { num = Bigint.neg a.den; den = Bigint.neg a.num }

let div a b = mul a (inv b)

let min a b = if compare a b <= 0 then a else b
let max a b = if compare a b >= 0 then a else b

let is_zero a = Bigint.is_zero a.num
let is_integer a = Bigint.is_one a.den

let floor a =
  let q, r = Bigint.divmod a.num a.den in
  if Bigint.sign r < 0 then Bigint.sub q Bigint.one else q

let ceil a = Bigint.neg (floor (neg a))

let to_float a =
  match (Bigint.to_int_opt a.num, Bigint.to_int_opt a.den) with
  | Some n, Some d -> float_of_int n /. float_of_int d
  | _ ->
    (* A part with more than ~308 digits overflows a float on its own even
       when the quotient does not, so drop the same number of trailing
       digits from both until the longer one has 300 left. *)
    let n = Bigint.to_string (Bigint.abs a.num)
    and d = Bigint.to_string a.den in
    let drop =
      Stdlib.max 0 (Stdlib.max (String.length n) (String.length d) - 300)
    in
    let head s =
      let keep = String.length s - drop in
      if keep <= 0 then 0.0 else float_of_string (String.sub s 0 keep)
    in
    let q = head n /. head d in
    if Bigint.sign a.num < 0 then -.q else q

let to_string a =
  if is_integer a then Bigint.to_string a.num
  else Bigint.to_string a.num ^ "/" ^ Bigint.to_string a.den

let pp ppf a = Format.pp_print_string ppf (to_string a)

module Infix = struct
  let ( + ) = add
  let ( - ) = sub
  let ( * ) = mul
  let ( / ) = div
  let ( ~- ) = neg
  let ( = ) = equal
  let ( < ) a b = compare a b < 0
  let ( <= ) a b = compare a b <= 0
  let ( > ) a b = compare a b > 0
  let ( >= ) a b = compare a b >= 0
end
