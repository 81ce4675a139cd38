module Rat = Pmi_numeric.Rat
module Scheme = Pmi_isa.Scheme
module Experiment = Pmi_portmap.Experiment
module Harness = Pmi_measure.Harness

type config = {
  throughput_classes : int;
  measurement_bias : float;
  (** Relative overestimation of cycles by Palmed's own benchmarking
      infrastructure.  The paper cannot run Palmed on its harness and
      observes systematically slow predictions (§4.5: "Palmed's resource
      model usually predicts slower executions than what we measure");
      the bias emulates that infrastructure mismatch. *)
}

let default_config = { throughput_classes = 64; measurement_bias = 1.4 }

(* Copies of a core instruction per saturating kernel benchmark, and the
   seed of the infrastructure mismatch. *)
let kernel_size = 8
let seed = 3

type resource = {
  name : string;
  representative : Scheme.t;
  kernel_cycles : float;   (** measured tp⁻¹ of the saturating kernel *)
}

type t = {
  r_max : int;             (* the machine's frontend width *)
  resource_list : resource list;
  (* Per scheme id: pressure (in cycles per instance) on each resource,
     index-aligned with [resource_list], plus the self-pressure (the
     instruction's own steady-state CPI). *)
  pressures : (int, float array * float) Hashtbl.t;
}

let own_cycles harness experiment =
  Rat.to_float (Harness.cycles harness experiment)

(* Palmed's infrastructure mismatch: every per-instruction quantity it fits
   comes out slower than our harness would measure, by a deterministic
   instruction-dependent factor between zero and the configured maximum
   (loop and decoding overheads depend on the benchmarked kernel). *)
let infrastructure_factor config scheme =
  let unit =
    0.5
    +. Pmi_machine.Noise.jitter ~seed
         ~key:(Scheme.id scheme * 0x9E3779B9) ~rep:0 ~amplitude:0.5
  in
  1.0 +. (config.measurement_bias *. unit)

let cpi config harness scheme =
  own_cycles harness (Experiment.singleton scheme)
  *. infrastructure_factor config scheme

let kernel resource = Experiment.replicate kernel_size resource.representative

(* Extra cycles scheme adds on top of the saturating kernel of [resource]. *)
let added_pressure config harness resource scheme =
  let base = kernel resource in
  let combined = Experiment.add scheme base in
  let t_base = own_cycles harness base in
  let t_comb = own_cycles harness combined in
  Float.max 0.0 (t_comb -. t_base) *. infrastructure_factor config scheme

let infer ?(config = default_config) harness schemes =
  (* Phase 1: heuristically select core instructions.  A scheme opens a new
     abstract resource when no existing saturating kernel slows it down the
     way its own throughput demands: its bottleneck is not yet modelled. *)
  let resource_list = ref [] in
  let basics =
    List.filter
      (fun s -> Harness.retired_ops harness (Experiment.singleton s) = 1)
      schemes
  in
  let considered = ref 0 in
  List.iter
    (fun s ->
       if !considered < config.throughput_classes then begin
         incr considered;
         let own = cpi config harness s in
         let covered =
           List.exists
             (fun r -> added_pressure config harness r s >= own -. 0.1)
             !resource_list
         in
         if not covered && own > 0.0 then begin
           let resource =
             { name = Printf.sprintf "R%d<%s>" (List.length !resource_list)
                 (Scheme.mnemonic s);
               representative = s;
               kernel_cycles = 0.0 }
           in
           let kernel_cycles =
             own_cycles harness (kernel resource)
           in
           resource_list := { resource with kernel_cycles } :: !resource_list
         end
       end)
    basics;
  let resource_list = List.rev !resource_list in
  let resources = Array.of_list resource_list in
  (* Phase 2: fit every instruction's pressures against the kernels. *)
  let pressures = Hashtbl.create (List.length schemes) in
  List.iter
    (fun s ->
       let row =
         Array.map (fun r -> added_pressure config harness r s) resources
       in
       Hashtbl.replace pressures (Scheme.id s) (row, cpi config harness s))
    schemes;
  { r_max = Pmi_machine.Machine.r_max (Harness.machine harness);
    resource_list;
    pressures }

let resources t = List.length t.resource_list
let supports t scheme = Hashtbl.mem t.pressures (Scheme.id scheme)

let predict t experiment =
  let n_res = List.length t.resource_list in
  let loads = Array.make n_res 0.0 in
  let self = ref 0.0 in
  Experiment.fold
    (fun s count () ->
       match Hashtbl.find_opt t.pressures (Scheme.id s) with
       | None -> raise Not_found
       | Some (row, own) ->
         Array.iteri
           (fun r p -> loads.(r) <- loads.(r) +. (float_of_int count *. p))
           row;
         (* Conjunctive self resource: an instruction saturates itself. *)
         self := Float.max !self (float_of_int count *. own))
    experiment ();
  let frontend =
    float_of_int (Experiment.length experiment) /. float_of_int t.r_max
  in
  let worst = Array.fold_left Float.max (Float.max frontend !self) loads in
  (* Report on the harness's quantisation grid. *)
  Rat.of_ints (int_of_float (Float.round (worst *. 1000.0))) 1000

let pressure t scheme =
  match Hashtbl.find_opt t.pressures (Scheme.id scheme) with
  | None -> raise Not_found
  | Some (row, own) ->
    ("self", own)
    :: List.mapi (fun i r -> (r.name, row.(i))) t.resource_list
