open Pmi_isa
module Portset = Pmi_portmap.Portset
module Mapping = Pmi_portmap.Mapping

(* Zen+ constants, re-exported for the case-study code paths. *)
let num_ports = Profile.zen_plus.Profile.num_ports
let r_max = Profile.zen_plus.Profile.r_max
let ms_ops_per_cycle = Profile.zen_plus.Profile.ms_ops_per_cycle
let div_occupancy = Profile.zen_plus.Profile.div_occupancy

let ports_of_base = Profile.zen_plus.Profile.ports_of_base

let usage_for profile structure =
  let ports = profile.Profile.ports_of_base in
  let base b = (ports b, 1) in
  let load = ports Iclass.Load in
  let store = ports Iclass.Store in
  match structure with
  | Iclass.Nullary -> []
  | Iclass.Single b -> [ base b ]
  | Iclass.With_load (b, n) -> [ base b; (load, n) ]
  | Iclass.Rmw (b, narrow) ->
    (* Zen+ fuses the two memory accesses of read-modify-write operations
       into the macro-op; narrow (≤32-bit) operations spend one extra
       address-generation µop (§4.4). *)
    base b :: (store, 1) :: (if narrow then [ (load, 1) ] else [])
  | Iclass.Ymm_single b -> [ (ports b, 2) ]
  | Iclass.Ymm_with_load b -> [ (ports b, 2); (load, 2) ]
  | Iclass.Store_scalar ->
    (* The §4.1 deviation from the SOG: a storing mov has a µop restricted
       to the ALU ports besides its store µop. *)
    [ (store, 1); (ports Iclass.Alu, 1) ]
  | Iclass.Store_vec -> [ (store, 1); (ports Iclass.Vec_shift_imm, 1) ]
  | Iclass.Store_vec_ymm -> [ (store, 2); (ports Iclass.Vec_shift_imm, 2) ]
  | Iclass.Multi bases ->
    Mapping.normalize_usage (List.map (fun b -> (ports b, 1)) bases)

let usage_of_structure structure = usage_for Profile.zen_plus structure

let mapping_for profile catalog =
  let mapping = Mapping.create ~num_ports:profile.Profile.num_ports in
  Array.iter
    (fun scheme ->
       let { Iclass.structure; _ } = Scheme.klass scheme in
       Mapping.set mapping scheme (usage_for profile structure))
    (Catalog.schemes catalog);
  mapping
