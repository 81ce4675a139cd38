module Portset = Pmi_portmap.Portset
module Mapping = Pmi_portmap.Mapping
module Experiment = Pmi_portmap.Experiment
module Scheme = Pmi_isa.Scheme
module Catalog = Pmi_isa.Catalog
module Profile = Pmi_machine.Profile

(* The diagnostic type and its renderers live in the shared [Pmi_diag.Diag]
   module (one text/JSON schema across [lint] and [sanitize]); type
   equations below keep this module's historical API intact. *)

module Diag = Pmi_diag.Diag

type severity = Diag.severity =
  | Error
  | Warning

type diag = Diag.t = {
  rule : string;
  severity : severity;
  subject : string;
  message : string;
}

let severity_to_string = Diag.severity_to_string
let to_string = Diag.to_string
let to_json = Diag.to_json
let errors = Diag.errors
let diag = Diag.make

(* ------------------------------------------------------------------ *)
(* Mappings                                                            *)
(* ------------------------------------------------------------------ *)

let lint_usage ~num_ports ~subject usage =
  let out = ref [] in
  let push d = out := d :: !out in
  let seen = Hashtbl.create 8 in
  List.iter
    (fun (ports, n) ->
       if Portset.is_empty ports then
         push
           (diag "empty-port-set" Error subject
              "µop kind with an empty admissible port set (no port can \
               execute it)");
       if not (Portset.subset ports (Portset.full (max 0 num_ports))) then
         push
           (diag "port-out-of-range" Error subject
              "port set %s mentions a port >= num_ports (%d)"
              (Portset.to_string ports) num_ports);
       if n <= 0 then
         push
           (diag "non-positive-multiplicity" Error subject
              "port set %s has multiplicity %d" (Portset.to_string ports) n);
       if Hashtbl.mem seen ports then
         push
           (diag "duplicate-port-set" Warning subject
              "port set %s appears twice; merge into one entry with a \
               multiplicity" (Portset.to_string ports))
       else Hashtbl.add seen ports ())
    usage;
  List.rev !out

let lint_mapping ?reference ~subject m =
  let num_ports = Mapping.num_ports m in
  let out = ref [] in
  let push d = out := d :: !out in
  List.iter
    (fun scheme ->
       let sub = Printf.sprintf "%s, scheme %s" subject (Scheme.name scheme) in
       let usage = Mapping.usage m scheme in
       List.iter push (lint_usage ~num_ports ~subject:sub usage);
       match reference with
       | Some r when Mapping.supports r scheme ->
         let got = Mapping.uop_count m scheme in
         let want = Mapping.uop_count r scheme in
         if got <> want then
           push
             (diag "uop-count-mismatch" Warning sub
                "%d µops, but the ground-truth reference has %d" got want)
       | _ -> ())
    (Mapping.schemes m);
  let used = Mapping.ports_used m in
  let unreachable = Portset.diff (Portset.full num_ports) used in
  if Mapping.size m > 0 && not (Portset.is_empty unreachable) then
    push
      (diag "unreachable-port" Warning subject
         "ports %s are not admissible for any µop of any scheme"
         (Portset.to_string unreachable));
  List.rev !out

(* ------------------------------------------------------------------ *)
(* Profiles                                                            *)
(* ------------------------------------------------------------------ *)

let lint_profile (p : Profile.t) =
  let subject = Printf.sprintf "profile %s" p.name in
  let out = ref [] in
  let push d = out := d :: !out in
  if p.num_ports <= 0 then
    push (diag "profile-nonpositive-constant" Error subject
            "num_ports = %d" p.num_ports);
  if p.r_max <= 0 then
    push (diag "profile-nonpositive-constant" Error subject
            "r_max = %d" p.r_max);
  if p.ms_ops_per_cycle <= 0 then
    push (diag "profile-nonpositive-constant" Error subject
            "ms_ops_per_cycle = %d" p.ms_ops_per_cycle);
  if p.div_occupancy <= 0 then
    push (diag "profile-nonpositive-constant" Error subject
            "div_occupancy = %d" p.div_occupancy);
  let full = Portset.full (max 0 p.num_ports) in
  List.iter
    (fun base ->
       match p.ports_of_base base with
       | ports ->
         if Portset.is_empty ports then
           push
             (diag "profile-empty-base" Error subject
                "base class %s has an empty port set"
                (Pmi_isa.Iclass.base_to_string base));
         if not (Portset.subset ports full) then
           push
             (diag "profile-port-range" Error subject
                "base class %s uses ports %s outside 0..%d"
                (Pmi_isa.Iclass.base_to_string base)
                (Portset.to_string (Portset.diff ports full))
                (p.num_ports - 1))
       | exception exn ->
         push
           (diag "profile-base-failure" Error subject
              "ports_of_base %s raised %s"
              (Pmi_isa.Iclass.base_to_string base)
              (Printexc.to_string exn)))
    Profile.all_bases;
  if not (Portset.subset p.fma_shadow full) then
    push
      (diag "profile-port-range" Error subject
         "fma_shadow %s leaves the port range"
         (Portset.to_string p.fma_shadow));
  if p.r_max <= Profile.max_port_set p then
    push
      (diag "profile-throughput-gap" Error subject
         "r_max (%d) must exceed the widest µop port set (%d): §3.4 gap \
          requirement" p.r_max (Profile.max_port_set p));
  List.rev !out

(* ------------------------------------------------------------------ *)
(* Catalogs                                                            *)
(* ------------------------------------------------------------------ *)

(* Key collisions are checked on every singleton and on the pairs of the
   first [pair_sample] schemes. *)
let pair_sample = 40

let lint_catalog cat =
  let subject = "catalog" in
  let out = ref [] in
  let push d = out := d :: !out in
  let schemes = Catalog.schemes cat in
  (* Scheme ids must agree with catalog positions: the encoding rows, the
     oracle caches, and the experiment keys all index by id. *)
  Array.iteri
    (fun i s ->
       if Scheme.id s <> i then
         push
           (diag "scheme-id-mismatch" Error subject
              "scheme %s sits at index %d but has id %d" (Scheme.name s) i
              (Scheme.id s)))
    schemes;
  (* Duplicate renderings break the Mapping_io name resolver. *)
  let names = Hashtbl.create (Array.length schemes) in
  Array.iter
    (fun s ->
       let name = Scheme.name s in
       match Hashtbl.find_opt names name with
       | Some first ->
         push
           (diag "duplicate-scheme-name" Error subject
              "schemes %d and %d both render as %S" first (Scheme.id s) name)
       | None -> Hashtbl.add names name (Scheme.id s))
    schemes;
  List.iter
    (fun bucket ->
       if Catalog.bucket cat bucket = [] then
         push
           (diag "empty-bucket" Warning subject "bucket %S is empty" bucket))
    (Catalog.bucket_names cat);
  (* Structural cache keys must be injective: two different experiments
     sharing a key would silently alias harness measurements. *)
  let keys = Hashtbl.create 256 in
  let check_key exp =
    let key = Experiment.key exp in
    match Hashtbl.find_opt keys key with
    | Some other ->
      if not (Experiment.equal other exp) then
        push
          (diag "experiment-key-collision" Error subject
             "experiments %s and %s share the structural key"
             (Experiment.to_string other) (Experiment.to_string exp))
    | None -> Hashtbl.add keys key exp
  in
  Array.iter (fun s -> check_key (Experiment.singleton s)) schemes;
  let n = min pair_sample (Array.length schemes) in
  for i = 0 to n - 1 do
    for j = i to n - 1 do
      check_key
        (Experiment.of_counts [ (schemes.(i), 1); (schemes.(j), 2) ])
    done
  done;
  List.rev !out

(* ------------------------------------------------------------------ *)
(* Everything the repo ships                                           *)
(* ------------------------------------------------------------------ *)

let builtin ?catalog () =
  let cat = match catalog with Some c -> c | None -> Catalog.zen_plus () in
  let profile_diags = List.concat_map lint_profile Profile.all in
  let catalog_diags = lint_catalog cat in
  let mapping_diags =
    List.concat_map
      (fun (p : Profile.t) ->
         let gt = Pmi_machine.Ground_truth.mapping_for p cat in
         lint_mapping ~reference:gt
           ~subject:(Printf.sprintf "ground truth (%s)" p.name)
           gt)
      Profile.all
  in
  profile_diags @ catalog_diags @ mapping_diags
