module Scheme = Pmi_isa.Scheme

type t = (Scheme.t * int) list

let empty = []

let of_counts pairs =
  let tbl = Hashtbl.create 8 in
  List.iter
    (fun (s, n) ->
       if n > 0 then begin
         let prev = try Hashtbl.find tbl (Scheme.id s) with Not_found -> (s, 0) in
         Hashtbl.replace tbl (Scheme.id s) (s, snd prev + n)
       end)
    pairs;
  Hashtbl.fold (fun _ pair acc -> pair :: acc) tbl []
  |> List.sort (fun (a, _) (b, _) -> Scheme.compare a b)

let of_list schemes = of_counts (List.map (fun s -> (s, 1)) schemes)
let singleton s = [ (s, 1) ]
let replicate n s = if n <= 0 then [] else [ (s, n) ]
let add ?(count = 1) s t = of_counts ((s, count) :: t)
let union a b = of_counts (a @ b)

let count t s =
  match List.find_opt (fun (s', _) -> Scheme.equal s s') t with
  | Some (_, n) -> n
  | None -> 0

let length t = List.fold_left (fun acc (_, n) -> acc + n) 0 t
let distinct t = List.length t
let is_empty t = t = []
let to_counts t = t
let schemes t = List.map fst t

let fold f t init = List.fold_left (fun acc (s, n) -> f s n acc) init t
let for_all f t = List.for_all (fun (s, n) -> f s n) t
let exists f t = List.exists (fun (s, n) -> f s n) t

let compare a b =
  List.compare (fun (s, n) (s', n') ->
      match Scheme.compare s s' with 0 -> Stdlib.compare n n' | c -> c)
    a b

let equal a b = compare a b = 0

let key t = List.map (fun (s, n) -> (Scheme.id s, n)) t

let to_string t =
  let item (s, n) = Printf.sprintf "%d x %s" n (Scheme.name s) in
  "[" ^ String.concat "; " (List.map item t) ^ "]"

let pp ppf t = Format.pp_print_string ppf (to_string t)
