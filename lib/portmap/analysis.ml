module Rat = Pmi_numeric.Rat
module Simplex = Pmi_numeric.Simplex
module Scheme = Pmi_isa.Scheme

type t = {
  experiment : Experiment.t;
  inverse_throughput : Rat.t;
  bounded_cycles : Rat.t;
  ipc : Rat.t;
  frontend_bound : bool;
  bottleneck : Portset.t;
  port_pressure : Rat.t array;
  decomposition : (Scheme.t * Mapping.usage * int) list;
}

(* Per-port utilisation of one optimal distribution, read off the LP
   solution's p_k variables (see Lp_model's variable layout). *)
let pressures mapping experiment =
  let num_ports = Mapping.num_ports mapping in
  let masses = Throughput.uop_masses mapping experiment in
  let nu = List.length masses in
  match Simplex.solve (Lp_model.build mapping experiment) with
  | Simplex.Optimal { assignment; _ } ->
    Array.init num_ports (fun k -> assignment.((nu * num_ports) + k))
  | Simplex.Infeasible | Simplex.Unbounded ->
    (* Cannot happen for well-formed mappings; keep the analysis total. *)
    Array.make num_ports Rat.zero

let analyze ~r_max mapping experiment =
  let inverse_throughput = Throughput.inverse mapping experiment in
  let bounded_cycles =
    Throughput.inverse_bounded ~r_max mapping experiment
  in
  let ipc = Throughput.ipc ~r_max mapping experiment in
  { experiment;
    inverse_throughput;
    bounded_cycles;
    ipc;
    frontend_bound = Rat.compare bounded_cycles inverse_throughput > 0;
    bottleneck = Throughput.bottleneck_set mapping experiment;
    port_pressure = pressures mapping experiment;
    decomposition =
      Experiment.fold
        (fun s n acc -> (s, Mapping.usage mapping s, n) :: acc)
        experiment []
      |> List.rev;
  }

let pp ppf t =
  Format.fprintf ppf "block: %d instructions, %d distinct schemes@."
    (Experiment.length t.experiment)
    (Experiment.distinct t.experiment);
  Format.fprintf ppf "inverse throughput: %s cycles/iteration (port model)@."
    (Rat.to_string t.inverse_throughput);
  Format.fprintf ppf "steady state:       %s cycles/iteration, %.2f IPC%s@."
    (Rat.to_string t.bounded_cycles) (Rat.to_float t.ipc)
    (if t.frontend_bound then "  [frontend bound]" else "");
  if not (Portset.is_empty t.bottleneck) then
    Format.fprintf ppf "bottleneck ports:   %s@." (Portset.to_string t.bottleneck);
  Format.fprintf ppf "@.port pressure (cycles per iteration):@.";
  Format.fprintf ppf "  %s@."
    (String.concat " "
       (Array.to_list
          (Array.mapi (fun k _ -> Printf.sprintf "%6s" (Printf.sprintf "p%d" k))
             t.port_pressure)));
  Format.fprintf ppf "  %s@."
    (String.concat " "
       (Array.to_list
          (Array.map
             (fun p -> Printf.sprintf "%6.2f" (Rat.to_float p))
             t.port_pressure)));
  Format.fprintf ppf "@.µop decomposition:@.";
  List.iter
    (fun (s, usage, n) ->
       Format.fprintf ppf "  %2d x %-44s %s@." n (Scheme.name s)
         (Mapping.usage_to_string usage))
    t.decomposition
