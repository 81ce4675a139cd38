module Scheme = Pmi_isa.Scheme

type usage = (Portset.t * int) list

(* A row is stored once, as the flat arrays the throughput kernel reads,
   in [normalize_usage]'s order; the usage list is decoded on demand.  The
   table is keyed by scheme id; ids are dense catalog indices, so they hash
   to themselves. *)
type row = { scheme : Scheme.t; masks : int array; counts : int array }

module Table =
  Hashtbl.Make (struct type t = int let equal = Int.equal let hash id = id end)

type t = {
  num_ports : int;
  table : row Table.t;
}

let create ~num_ports =
  if num_ports <= 0 then invalid_arg "Mapping.create";
  { num_ports; table = Table.create 64 }

let num_ports t = t.num_ports

(* Sorted by port set, so equal sets are adjacent and merge in one pass. *)
let normalize_usage usage =
  let rec merge = function
    | (p, n) :: (p', n') :: rest when Portset.equal p p' ->
      merge ((p, n + n') :: rest)
    | x :: rest -> x :: merge rest
    | [] -> []
  in
  List.filter (fun (_, n) -> n > 0) usage
  |> List.sort (fun (a, _) (b, _) -> Portset.compare a b)
  |> merge

let validate t usage =
  List.iter
    (fun ((ports : Portset.t), _) ->
       if Portset.is_empty ports then invalid_arg "Mapping.set: empty port set";
       if not (Portset.subset ports (Portset.full t.num_ports)) then
         invalid_arg "Mapping.set: port out of range")
    usage

let set t scheme usage =
  let usage = normalize_usage usage in
  validate t usage;
  let masks = Array.of_list (List.map (fun (p, _) -> Portset.to_mask p) usage) in
  let counts = Array.of_list (List.map snd usage) in
  Table.replace t.table (Scheme.id scheme) { scheme; masks; counts }

let decode r =
  List.init (Array.length r.masks) (fun j ->
      (Portset.of_mask r.masks.(j), r.counts.(j)))

let find_opt t scheme =
  Option.map decode (Table.find_opt t.table (Scheme.id scheme))

let row t scheme = Table.find t.table (Scheme.id scheme)

let usage t scheme = decode (row t scheme)

let supports t scheme = Table.mem t.table (Scheme.id scheme)

let schemes t =
  Table.fold (fun _ r acc -> r.scheme :: acc) t.table []
  |> List.sort Scheme.compare

let size t = Table.length t.table

let uop_count t scheme =
  match Table.find_opt t.table (Scheme.id scheme) with
  | None -> 0
  | Some r -> Array.fold_left ( + ) 0 r.counts

let copy t = { t with table = Table.copy t.table }

let ports_used t =
  Portset.of_mask
    (Table.fold (fun _ r acc -> Array.fold_left ( lor ) acc r.masks) t.table 0)

let usage_to_string usage =
  match usage with
  | [] -> "(none)"
  | _ ->
    String.concat " + "
      (List.map
         (fun (ports, n) ->
            if n = 1 then Portset.to_string ports
            else Printf.sprintf "%d x %s" n (Portset.to_string ports))
         usage)

let equal_usage a b =
  List.equal
    (fun (p, n) (p', n') -> Portset.equal p p' && n = n')
    (normalize_usage a) (normalize_usage b)

let pp ppf t =
  List.iter
    (fun s ->
       Format.fprintf ppf "%-48s %s@." (Scheme.name s)
         (usage_to_string (usage t s)))
    (schemes t)
