module Scheme = Pmi_isa.Scheme
module Portset = Pmi_portmap.Portset
module Mapping = Pmi_portmap.Mapping

type alignment = {
  permutation : int array;
  matched : Scheme.t list;
  dropped : Scheme.t list;
}

let apply_usage permutation usage =
  Mapping.normalize_usage
    (List.map
       (fun (ports, n) ->
          let renamed =
            List.fold_left
              (fun acc p -> Portset.add permutation.(p) acc)
              Portset.empty (Portset.to_list ports)
          in
          (renamed, n))
       usage)

let apply permutation mapping =
  let out = Mapping.create ~num_ports:(Mapping.num_ports mapping) in
  List.iter
    (fun s -> Mapping.set out s (apply_usage permutation (Mapping.usage mapping s)))
    (Mapping.schemes mapping);
  out

(* The possible pairings of inferred µops with documented µops of one
   scheme: µops can only correspond when their port counts agree. *)
let pairings inferred documented =
  let rec go inferred documented =
    match inferred with
    | [] -> if documented = [] then [ [] ] else []
    | iu :: rest ->
      List.concat_map
        (fun du ->
           if Portset.cardinal (fst iu) = Portset.cardinal (fst du)
           && snd iu = snd du
           then
             let remaining = List.filter (fun x -> x != du) documented in
             List.map (fun tail -> (fst iu, fst du) :: tail) (go rest remaining)
           else [])
        documented
  in
  (* Expand multiplicities so each µop instance pairs individually; with
     the tiny usages involved (1-2 µops) this stays trivial. *)
  let expand usage = List.concat_map (fun (p, n) -> List.init n (fun _ -> (p, 1))) usage in
  go (expand inferred) (expand documented)

(* Check one selection of µop pairs: ports match when their membership
   signatures across all pairs coincide; the permutation then maps ports
   within equal-signature groups. *)
let solve_signature num_ports pairs =
  let sig_of side port =
    List.map
      (fun (inf, doc) ->
         let set = match side with `Inferred -> inf | `Documented -> doc in
         Portset.mem port set)
      pairs
  in
  let inferred_groups = Hashtbl.create 8 in
  let documented_groups = Hashtbl.create 8 in
  for p = 0 to num_ports - 1 do
    let si = sig_of `Inferred p in
    let sd = sig_of `Documented p in
    Hashtbl.replace inferred_groups si
      (p :: (try Hashtbl.find inferred_groups si with Not_found -> []));
    Hashtbl.replace documented_groups sd
      (p :: (try Hashtbl.find documented_groups sd with Not_found -> []))
  done;
  let ok =
    Hashtbl.fold
      (fun s ports acc ->
         acc
         && (match Hashtbl.find_opt documented_groups s with
             | Some ports' -> List.length ports = List.length ports'
             | None -> false))
      inferred_groups true
  in
  if not ok then None
  else begin
    let permutation = Array.make num_ports (-1) in
    Hashtbl.iter
      (fun s ports ->
         let targets = Hashtbl.find documented_groups s in
         List.iter2 (fun p q -> permutation.(p) <- q) ports targets)
      inferred_groups;
    Some permutation
  end

let try_constraints num_ports constraints =
  (* Backtrack over the µop pairing choice of each constraint. *)
  let rec go acc = function
    | [] -> solve_signature num_ports acc
    | options :: rest ->
      let rec try_options = function
        | [] -> None
        | choice :: more ->
          (match go (acc @ choice) rest with
           | Some p -> Some p
           | None -> try_options more)
      in
      try_options options
  in
  go [] constraints

let align ~docs mapping =
  let num_ports = Mapping.num_ports mapping in
  let items =
    List.filter_map
      (fun (scheme, doc_usage) ->
         match Mapping.find_opt mapping scheme with
         | None -> None
         | Some inferred ->
           (match pairings inferred doc_usage with
            | [] -> Some (scheme, None)       (* structurally incompatible *)
            | options -> Some (scheme, Some options)))
      docs
  in
  let schemes = Array.of_list items in
  let n = Array.length schemes in
  (* Search drop sets in order of increasing size. *)
  let masks = List.init (1 lsl n) Fun.id in
  let size mask = Portset.cardinal (Portset.of_mask mask) in
  let masks = List.sort (fun a b -> compare (size a) (size b)) masks in
  let rec try_masks = function
    | [] -> None
    | mask :: rest ->
      let kept = ref [] in
      let matched = ref [] in
      let dropped = ref [] in
      Array.iteri
        (fun i (scheme, options) ->
           if mask land (1 lsl i) = 0 then begin
             match options with
             | Some opts ->
               kept := opts :: !kept;
               matched := scheme :: !matched
             | None ->
               (* Incompatible constraints can never be kept. *)
               kept := [ [] ] :: !kept;
               dropped := scheme :: !dropped
           end
           else dropped := (scheme : Scheme.t) :: !dropped)
        schemes;
      (match try_constraints num_ports (List.rev !kept) with
       | Some permutation ->
         Some
           { permutation;
             matched = List.rev !matched;
             dropped = List.rev !dropped }
       | None -> try_masks rest)
  in
  try_masks masks
