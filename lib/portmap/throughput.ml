module Rat = Pmi_numeric.Rat
module Scheme = Pmi_isa.Scheme

exception Unsupported of Scheme.t

let uop_masses mapping experiment =
  let tbl = Hashtbl.create 16 in
  Experiment.fold
    (fun scheme count () ->
       match Mapping.find_opt mapping scheme with
       | None -> raise (Unsupported scheme)
       | Some usage ->
         List.iter
           (fun (ports, n) ->
              let prev = try Hashtbl.find tbl ports with Not_found -> 0 in
              Hashtbl.replace tbl ports (prev + (n * count)))
           usage)
    experiment ();
  Hashtbl.fold (fun ports mass acc -> (ports, mass) :: acc) tbl []
  |> List.sort (fun (a, _) (b, _) -> Portset.compare a b)

(* Maximise mass(Q)/|Q| over subsets Q of the union of the µops' port sets;
   a bottleneck outside that union has zero mass and can never win.  The
   fraction comparison is done on native ints: masses are µop counts and
   cardinalities are at most the port count, far from overflow. *)
let best_bottleneck masses =
  match masses with
  | [] -> (Portset.empty, 0, 1)
  | _ ->
    let universe =
      List.fold_left (fun acc (ports, _) -> Portset.union acc ports)
        Portset.empty masses
    in
    let best_q = ref Portset.empty in
    let best_num = ref 0 in
    let best_den = ref 1 in
    Portset.iter_subsets universe (fun q ->
        if not (Portset.is_empty q) then begin
          let mass =
            List.fold_left
              (fun acc (ports, m) ->
                 if Portset.subset ports q then acc + m else acc)
              0 masses
          in
          let card = Portset.cardinal q in
          (* mass/card > best_num/best_den ? *)
          if mass * !best_den > !best_num * card then begin
            best_q := q;
            best_num := mass;
            best_den := card
          end
        end);
    (!best_q, !best_num, !best_den)

let of_masses masses =
  let _, num, den = best_bottleneck masses in
  Rat.of_ints num den

let inverse mapping experiment = of_masses (uop_masses mapping experiment)

let bottleneck_set mapping experiment =
  let q, _, _ = best_bottleneck (uop_masses mapping experiment) in
  q

let inverse_bounded ~r_max mapping experiment =
  if r_max <= 0 then invalid_arg "Throughput.inverse_bounded";
  let t = inverse mapping experiment in
  let frontend = Rat.of_ints (Experiment.length experiment) r_max in
  Rat.max t frontend

let ipc ~r_max mapping experiment =
  let n = Experiment.length experiment in
  if n = 0 then Rat.zero
  else Rat.div (Rat.of_int n) (inverse_bounded ~r_max mapping experiment)
