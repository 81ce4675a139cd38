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

(* What the simulator needs of one scheme: its scaled µop masses per
   instance as a compiled row, alone and in the company that triggers its
   quirk, and whether it is such company for the fma and vmovd quirks.  It
   depends on the scheme's class and the profile only. *)
type sim = {
  klass : Iclass.t;
  plain : Mapping.row;
  paired : Mapping.row;
  paired_by : Iclass.quirk option; (* Fma_lines, Gpr_cross or None *)
  fma_trigger : bool;
  cross_trigger : bool;
}

type t = {
  catalog : Catalog.t;
  config : config;
  profile : Profile.t;
  ground_truth : Mapping.t;
  measurements : int Atomic.t; (* bumped from parallel sweeps *)
  mutable sims : sim array; (* by scheme id, filled on first use *)
}

let create ?(config = default_config) ?(profile = Profile.zen_plus) catalog =
  Profile.validate profile;
  { catalog;
    config;
    profile;
    ground_truth = Ground_truth.mapping_for profile catalog;
    measurements = Atomic.make 0;
    sims = [||] }

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

(* Quirk coupling sets, derived from the profile's layout so that the §4.2
   and §4.3 phenomena exist on every simulated microarchitecture. *)
let fma_trigger_ports profile =
  Portset.union profile.Profile.fma_shadow
    (profile.Profile.ports_of_base Iclass.Fp_add)

let gpr_cross_ports profile =
  Portset.union
    (profile.Profile.ports_of_base Iclass.Shuffle)
    (profile.Profile.ports_of_base Iclass.Vec_to_gpr)

(* The [sim] of a scheme, from its class: the phantom pressure of the
   quirks (see the .mli for the catalogue) is folded into its rows, which
   [Mapping.set] compiles on a mapping of the call's own, so that no state
   is shared between machines or domains. *)
let make_sim profile scheme klass =
  let ports_of = profile.Profile.ports_of_base in
  let { Iclass.structure; quirk } = klass in
  let usage = Ground_truth.usage_for profile structure in
  let per_uop =
    match quirk with
    | Some Iclass.Div_slow -> scale * profile.Profile.div_occupancy
    | _ -> scale
  in
  let rows = Mapping.create ~num_ports:profile.Profile.num_ports in
  let row ~paired =
    let base =
      List.map
        (fun (ports, n) ->
           (* The vmovd inconsistency: in the company of other FP-pipe
              users its µop occupies both data-line ports instead of one. *)
           if
             paired && quirk = Some Iclass.Gpr_cross
             && Portset.equal ports (ports_of Iclass.Vec_to_gpr)
           then (gpr_cross_ports profile, per_uop * n)
           else (ports, per_uop * n))
        usage
    in
    let extra =
      match quirk with
      | Some Iclass.Mul_anomaly ->
        (* The §4.3 anomaly: each imul also pressures the whole ALU
           cluster for a full cycle. *)
        [ (ports_of Iclass.Alu, scale) ]
      | Some Iclass.Vec_mul_slow ->
        (* Runs slightly slower than its port usage implies. *)
        [ (ports_of Iclass.Vec_mul_hard, 1) ]
      | Some Iclass.Fma_lines when paired ->
        (* Data lines of a third port are occupied while the fma
           executes. *)
        let uops = List.fold_left (fun acc (_, n) -> acc + n) 0 usage in
        [ (profile.Profile.fma_shadow, scale * uops) ]
      | Some
          ( Iclass.Fma_lines | Iclass.Imm64_unreliable | Iclass.High8
          | Iclass.Pair_unstable | Iclass.Gpr_cross | Iclass.Ms_microcode
          | Iclass.Tp_unstable | Iclass.Div_slow )
      | None -> []
    in
    Mapping.set rows scheme
      (List.filter (fun (ports, _) -> not (Portset.is_empty ports))
         (base @ extra));
    Mapping.row rows scheme
  in
  let plain = row ~paired:false in
  let paired = row ~paired:true in
  let touches ports =
    List.exists
      (fun (ps, _) -> not (Portset.is_empty (Portset.inter ps ports)))
      usage
  in
  { klass;
    plain;
    paired;
    paired_by =
      (match quirk with
       | Some (Iclass.Fma_lines | Iclass.Gpr_cross) -> quirk
       | _ -> None);
    fma_trigger =
      quirk <> Some Iclass.Fma_lines && touches (fma_trigger_ports profile);
    cross_trigger =
      quirk <> Some Iclass.Gpr_cross && touches (gpr_cross_ports profile) }

(* The memo's placeholder: a real [plain Nullary] sim (its usage is empty
   on every profile), so a scheme of that class is served from it. *)
let unknown =
  let klass = Iclass.plain Iclass.Nullary in
  make_sim Profile.zen_plus
    (Scheme.make ~id:0 ~mnemonic:"" ~operands:[] ~variant:0 ~klass)
    klass

(* The memo is keyed by id and checked against the class, the only input,
   so a scheme from another catalog that reuses an id is still right. *)
let sim t scheme =
  let klass = Scheme.klass scheme and id = Scheme.id scheme in
  let memo = t.sims in
  if
    id < Array.length memo
    && (memo.(id).klass == klass || memo.(id).klass = klass)
  then memo.(id)
  else begin
    let s = make_sim t.profile scheme klass in
    let memo =
      if id < Array.length memo then memo
      else begin
        let grown = Array.make (max (id + 1) (2 * Array.length memo)) unknown in
        Array.blit memo 0 grown 0 (Array.length memo);
        t.sims <- grown;
        grown
      end
    in
    memo.(id) <- s;
    s
  end

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
   few hundred at most), unreduced.  The port bound is the bottleneck
   optimum of the experiment's scaled rows, accumulated in an [Oracle.Acc].
   A quirk that needs company takes its paired row when another scheme of
   the experiment triggers it (a scheme never triggers its own quirk). *)
let true_inverse_frac t experiment =
  let fma = Experiment.exists (fun s _ -> (sim t s).fma_trigger) experiment in
  let cross =
    Experiment.exists (fun s _ -> (sim t s).cross_trigger) experiment
  in
  let acc = Oracle.Acc.create () in
  Experiment.fold
    (fun scheme count () ->
       let s = sim t scheme in
       let paired =
         match s.paired_by with
         | Some Iclass.Fma_lines -> fma
         | Some Iclass.Gpr_cross -> cross
         | _ -> false
       in
       Oracle.Acc.add_row acc (if paired then s.paired else s.plain) count)
    experiment ();
  let pn, pd = Oracle.Acc.inverse_frac acc in
  let pd = pd * scale in
  let fn = Experiment.length experiment and fd = t.profile.Profile.r_max in
  let num, den = if pn * fd >= fn * pd then (pn, pd) else (fn, fd) in
  (num + (ms_stall t.profile experiment * den), den)

let true_inverse t experiment =
  let num, den = true_inverse_frac t experiment in
  Rat.of_ints num den

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
  (* Both parts are exact in a float, so this is the correctly rounded
     quotient [Rat.to_float] gives of the reduced fraction. *)
  let base =
    let num, den = true_inverse_frac t experiment in
    float_of_int num /. float_of_int den
  in
  let amp = amplitude t experiment in
  if amp = 0.0 then Array.make reps base
  else begin
    let seed = t.config.seed and key = Noise.hash_experiment experiment in
    let runs = Array.make reps base in
    for rep = 0 to reps - 1 do
      runs.(rep) <- base *. (1.0 +. Noise.jitter ~seed ~key ~rep ~amplitude:amp)
    done;
    runs
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
