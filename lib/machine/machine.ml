open Pmi_isa
module Rat = Pmi_numeric.Rat
module Portset = Pmi_portmap.Portset
module Mapping = Pmi_portmap.Mapping
module Experiment = Pmi_portmap.Experiment
module Oracle = Pmi_portmap.Oracle

type config = {
  seed : int;
  noise_amplitude : float;
  unstable_amplitude : float;
  unreliable_amplitude : float;
}

let default_config =
  { seed = 42;
    noise_amplitude = 0.002;
    unstable_amplitude = 0.25;
    unreliable_amplitude = 0.50 }

let quiet_config =
  { seed = 0;
    noise_amplitude = 0.0;
    unstable_amplitude = 0.0;
    unreliable_amplitude = 0.0 }

type t = {
  catalog : Catalog.t;
  config : config;
  profile : Profile.t;
  ground_truth : Mapping.t;
  measurements : int Atomic.t; (* bumped from parallel sweeps *)
}

let create ?(config = default_config) ?(profile = Profile.zen_plus) catalog =
  Profile.validate profile;
  { catalog;
    config;
    profile;
    ground_truth = Ground_truth.mapping_for profile catalog;
    measurements = Atomic.make 0 }

let catalog t = t.catalog
let config t = t.config
let profile t = t.profile

let ground_truth t = t.ground_truth
let r_max t = t.profile.Profile.r_max
let num_ports t = t.profile.Profile.num_ports
let measurement_count t = Atomic.get t.measurements

(* All µop masses are multiples of 1/scale, so the port-utilisation search
   runs on scaled integers.  The vpmuldq-style slowdown is the finest
   effect: 1/20 cycle of extra port pressure per instance. *)
let scale = 20

let quirk_of scheme = (Scheme.klass scheme).Iclass.quirk

(* Does the base usage of [scheme] touch any port in [ports]? *)
let touches profile ports scheme =
  let { Iclass.structure; _ } = Scheme.klass scheme in
  List.exists
    (fun (ps, _) -> not (Portset.is_empty (Portset.inter ps ports)))
    (Ground_truth.usage_for profile structure)

(* Quirk coupling sets, derived from the profile's layout so that the §4.2
   and §4.3 phenomena exist on every simulated microarchitecture. *)
let fma_trigger_ports profile =
  Portset.union profile.Profile.fma_shadow
    (profile.Profile.ports_of_base Iclass.Fp_add)

let gpr_cross_ports profile =
  Portset.union
    (profile.Profile.ports_of_base Iclass.Shuffle)
    (profile.Profile.ports_of_base Iclass.Vec_to_gpr)

(* Scaled-integer µop masses of one experiment iteration, including the
   phantom pressure of the quirks (see the .mli for the catalogue), as
   parallel arrays of distinct port masks and their masses. *)
let scaled_masses profile experiment =
  let ports_of = profile.Profile.ports_of_base in
  let acc = ref [] in
  let rec credit mask mass = function
    | [] -> [ (mask, mass) ]
    | (m, x) :: rest when m = mask -> (m, x + mass) :: rest
    | entry :: rest -> entry :: credit mask mass rest
  in
  let bump ports mass =
    if mass <> 0 && not (Portset.is_empty ports) then
      acc := credit (Portset.to_mask ports) mass !acc
  in
  let other_scheme_exists ~than pred =
    Experiment.exists
      (fun s _ -> (not (Scheme.equal s than)) && pred s)
      experiment
  in
  let fma_paired scheme =
    other_scheme_exists ~than:scheme (fun s ->
        quirk_of s <> Some Iclass.Fma_lines
        && touches profile (fma_trigger_ports profile) s)
  in
  let gpr_cross_paired scheme =
    other_scheme_exists ~than:scheme (fun s ->
        quirk_of s <> Some Iclass.Gpr_cross
        && touches profile (gpr_cross_ports profile) s)
  in
  Experiment.fold
    (fun scheme count () ->
       let { Iclass.structure; quirk } = Scheme.klass scheme in
       let usage = Ground_truth.usage_for profile structure in
       let vec_to_gpr_ports =
         (* The vmovd inconsistency: in the company of other FP-pipe users
            its µop occupies both data-line ports instead of one. *)
         match quirk with
         | Some Iclass.Gpr_cross when gpr_cross_paired scheme ->
           gpr_cross_ports profile
         | _ -> ports_of Iclass.Vec_to_gpr
       in
       List.iter
         (fun (ports, n) ->
            let ports =
              if Portset.equal ports (ports_of Iclass.Vec_to_gpr)
              && quirk = Some Iclass.Gpr_cross
              then vec_to_gpr_ports
              else ports
            in
            let per_uop =
              match quirk with
              | Some Iclass.Div_slow -> scale * profile.Profile.div_occupancy
              | _ -> scale
            in
            bump ports (per_uop * n * count))
         usage;
       (match quirk with
        | Some Iclass.Mul_anomaly ->
          (* The §4.3 anomaly: each imul also pressures the whole ALU
             cluster for a full cycle. *)
          bump (ports_of Iclass.Alu) (scale * count)
        | Some Iclass.Vec_mul_slow ->
          (* Runs slightly slower than its port usage implies. *)
          bump (ports_of Iclass.Vec_mul_hard) count
        | Some Iclass.Fma_lines when fma_paired scheme ->
          (* Data lines of a third port are occupied while the fma
             executes. *)
          let uops = List.fold_left (fun acc (_, n) -> acc + n) 0 usage in
          bump profile.Profile.fma_shadow (scale * uops * count)
        | Some
            ( Iclass.Fma_lines | Iclass.Imm64_unreliable | Iclass.High8
            | Iclass.Pair_unstable | Iclass.Gpr_cross | Iclass.Ms_microcode
            | Iclass.Tp_unstable | Iclass.Div_slow )
        | None -> ())
    )
    experiment ();
  let masses = Array.of_list !acc in
  (Array.map fst masses, Array.map snd masses)

let ms_stall profile experiment =
  (* Microcoded schemes are emitted by the microcode sequencer at a fixed
     rate while the rest of the frontend stalls (§4.4); the sequencer hands
     back to the decoders only on a cycle boundary. *)
  let rate = profile.Profile.ms_ops_per_cycle in
  let cycles_for macro = (macro + rate - 1) / rate in
  let stall =
    Experiment.fold
      (fun scheme count acc ->
         match quirk_of scheme with
         | Some Iclass.Ms_microcode ->
           acc
           + (count
              * cycles_for (Iclass.macro_ops (Scheme.klass scheme).Iclass.structure))
         | Some _ | None -> acc)
      experiment 0
  in
  stall

(* max (ports, frontend) + stall, on native fractions (every term is a
   few hundred at most), reduced once into a [Rat].  The port bound is
   the bottleneck optimum of the scaled masses, by Oracle's kernel. *)
let true_inverse t experiment =
  let masks, masses = scaled_masses t.profile experiment in
  let pn, pd = Oracle.masses_frac masks masses in
  let pd = pd * scale in
  let fn = Experiment.length experiment and fd = t.profile.Profile.r_max in
  let num, den = if pn * fd >= fn * pd then (pn, pd) else (fn, fd) in
  Rat.of_ints (num + (ms_stall t.profile experiment * den)) den

(* Noise tier of an experiment: inherently unreliable schemes dominate,
   then pairing instability (which only shows when at least two distinct
   schemes run together), then the baseline jitter. *)
let amplitude t experiment =
  let has q =
    Experiment.exists (fun s _ -> quirk_of s = Some q) experiment
  in
  if has Iclass.Imm64_unreliable || has Iclass.High8 then
    t.config.unreliable_amplitude
  else if
    Experiment.distinct experiment >= 2
    && (has Iclass.Pair_unstable || has Iclass.Tp_unstable)
  then t.config.unstable_amplitude
  else t.config.noise_amplitude

let c_measurements = Pmi_obs.Obs.counter "machine.measurements"

let samples t ~reps experiment =
  if reps < 0 then invalid_arg "Machine.samples";
  ignore (Atomic.fetch_and_add t.measurements reps);
  Pmi_obs.Obs.add c_measurements reps;
  let base = Rat.to_float (true_inverse t experiment) in
  let amp = amplitude t experiment in
  if amp = 0.0 then Array.make reps base
  else begin
    let seed = t.config.seed and key = Noise.hash_experiment experiment in
    Array.init reps (fun rep ->
        base *. (1.0 +. Noise.jitter ~seed ~key ~rep ~amplitude:amp))
  end

let true_uop_count t experiment =
  Experiment.fold
    (fun scheme count acc ->
       let usage = Mapping.usage t.ground_truth scheme in
       acc + (count * List.fold_left (fun a (_, n) -> a + n) 0 usage))
    experiment 0

(* Real schedulers assign each µop to the least-loaded admissible port, so
   observed per-port counts spread over the whole admissible set (which is
   what lets uops.info read port sets off the counters).  The simulation
   replays many iterations of the experiment, dispatching the most
   constrained µops first, and reports the per-iteration average. *)
let port_uops t experiment =
  let num_ports = t.profile.Profile.num_ports in
  let iterations = 120 in
  let load = Array.make num_ports 0 in
  let uops =
    Experiment.fold
      (fun scheme count acc ->
         let usage = Mapping.usage t.ground_truth scheme in
         List.concat_map
           (fun (ports, n) -> List.init (n * count) (fun _ -> ports))
           usage
         @ acc)
      experiment []
    |> List.sort (fun a b -> compare (Portset.cardinal a) (Portset.cardinal b))
  in
  for _ = 1 to iterations do
    List.iter
      (fun ports ->
         let best = ref (-1) in
         List.iter
           (fun k -> if !best < 0 || load.(k) < load.(!best) then best := k)
           (Portset.to_list ports);
         load.(!best) <- load.(!best) + 1)
      uops
  done;
  Array.map (fun l -> Rat.of_ints l iterations) load

let retired_ops _ experiment =
  Experiment.fold
    (fun scheme count acc ->
       acc + (count * Iclass.macro_ops (Scheme.klass scheme).Iclass.structure))
    experiment 0
