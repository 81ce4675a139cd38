module Rat = Pmi_numeric.Rat
module Scheme = Pmi_isa.Scheme
module Portset = Pmi_portmap.Portset
module Experiment = Pmi_portmap.Experiment
module Harness = Pmi_measure.Harness

type blocker = {
  scheme : Scheme.t;
  ports : Portset.t;
}

type failure =
  | Unstable of string
  | Non_integral of Portset.t * float

type step = {
  blocker : Scheme.t;
  ports : Portset.t;
  copies : int;
  baseline : Rat.t;
  combined : Rat.t;
  stuck_uops : int;
  surplus : int;
}

type outcome =
  | Usage of {
      usage : Pmi_portmap.Mapping.usage;
      postulated : int;
      spurious : bool;
      witnesses : step list;
    }
  | Failed of failure

(* The µop-count rounding tolerance, and the µops above the postulate
   that raise the [spurious] flag. *)
let tolerance = 0.35
let spurious_margin = 3

(* The blocker copies for a port set of [port_set_size], from the
   scheme's postulated µops and its singleton cycles [tp1], which
   [characterize] works out once per scheme. *)
let copies ~port_set_size ~uops ~tp1 =
  min 100
    (max 10
       (max (port_set_size * uops)
          (2 * port_set_size * max 1 (int_of_float (Float.floor tp1)))))

let singleton_cycles harness scheme =
  Rat.to_float (Harness.cycles harness (Experiment.singleton scheme))

let blocking_count harness ~port_set_size scheme =
  copies ~port_set_size
    ~uops:(Uop_count.postulated_uops harness scheme)
    ~tp1:(singleton_cycles harness scheme)

exception Fail of failure

let characterize harness ~blockers scheme =
  let blockers =
    List.sort
      (fun (a : blocker) (b : blocker) ->
         match compare (Portset.cardinal a.ports) (Portset.cardinal b.ports) with
         | 0 -> Portset.compare a.ports b.ports
         | c -> c)
      blockers
  in
  let postulated = Uop_count.postulated_uops harness scheme in
  let tp1 = singleton_cycles harness scheme in
  let stable_cycles experiment =
    let sample = Harness.run harness experiment in
    if sample.Harness.spread_cpi > Blocking.spread_threshold then
      raise (Fail (Unstable (Experiment.to_string experiment)))
    else Harness.sample_cycles sample
  in
  match
    List.fold_left
      (fun (found, steps) { scheme = blocker; ports } ->
         let size = Portset.cardinal ports in
         let k = copies ~port_set_size:size ~uops:postulated ~tp1 in
         let blocked = Experiment.replicate k blocker in
         let with_i = Experiment.add scheme blocked in
         let baseline = stable_cycles blocked in
         let combined = stable_cycles with_i in
         let measured =
           Uop_count.uops_on_blocked_ports harness ~blocked ~with_i
             ~port_set_size:size
         in
         match Uop_count.round_uops ~tolerance measured with
         | None -> raise (Fail (Non_integral (ports, Rat.to_float measured)))
         | Some on_ports ->
           (* µops already attributed to proper subsets cannot evade either
              and are included in the measurement (Algorithm 1, ll. 6-8). *)
           let already =
             List.fold_left
               (fun acc (sub, n) ->
                  if Portset.proper_subset sub ports then acc + n else acc)
               0 found
           in
           let surplus = on_ports - already in
           let step =
             { blocker; ports; copies = k; baseline; combined;
               stuck_uops = on_ports; surplus = max 0 surplus }
           in
           ((if surplus > 0 then (ports, surplus) :: found else found),
            step :: steps))
      ([], []) blockers
  with
  | found, steps ->
    let usage = Pmi_portmap.Mapping.normalize_usage found in
    let total = List.fold_left (fun acc (_, n) -> acc + n) 0 usage in
    Usage
      { usage;
        postulated;
        spurious = total >= postulated + spurious_margin;
        witnesses = List.rev steps }
  | exception Fail f -> Failed f

let pp_witnesses ppf (scheme, steps) =
  Format.fprintf ppf "evidence chain for %s:@." (Scheme.name scheme);
  List.iter
    (fun step ->
       Format.fprintf ppf
         "  flood %-12s with %3d x %-38s %6.3f -> %6.3f cycles"
         (Portset.to_string step.ports) step.copies
         (Scheme.name step.blocker)
         (Rat.to_float step.baseline) (Rat.to_float step.combined);
       if step.stuck_uops = 0 then
         Format.fprintf ppf "   (all µops evade)@."
       else begin
         Format.fprintf ppf "   %d µop%s stuck" step.stuck_uops
           (if step.stuck_uops = 1 then "" else "s");
         if step.surplus <> step.stuck_uops then
           Format.fprintf ppf ", %d new after subtracting subsets" step.surplus;
         if step.surplus > 0 then
           Format.fprintf ppf " => %d x %s" step.surplus
             (Portset.to_string step.ports);
         Format.fprintf ppf "@."
       end)
    steps
