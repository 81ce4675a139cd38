module Rat = Pmi_numeric.Rat
module Scheme = Pmi_isa.Scheme
module Portset = Pmi_portmap.Portset
module Mapping = Pmi_portmap.Mapping
module Experiment = Pmi_portmap.Experiment
module Oracle = Pmi_portmap.Oracle
module Harness = Pmi_measure.Harness

type config = {
  population : int;
  generations : int;
}

let default_config = { population = 48; generations = 250 }

(* The evolution's fixed hyperparameters. *)
let tournament = 4              (* tournament size for selection *)
let crossover_rate = 0.9
let mutation_rate = 2.5         (* expected mutations per child genome *)
let max_uops = 4                (* µops allowed per instruction *)
let elite = 2                   (* individuals copied unchanged *)
let seed = 7

type benchmark = {
  experiment : Experiment.t;
  cycles : Rat.t;
}

let training_set ?(seed = 11) ?(pairs = 600) ?(blocks = 400) harness schemes =
  let rng = Rng.create ~seed in
  let arr = Array.of_list schemes in
  let singletons = List.map Experiment.singleton schemes in
  let random_pair () =
    Experiment.of_list [ Rng.pick rng arr; Rng.pick rng arr ]
  in
  let random_block () =
    Experiment.of_list (List.init 5 (fun _ -> Rng.pick rng arr))
  in
  let experiments =
    singletons
    @ List.init pairs (fun _ -> random_pair ())
    @ List.init blocks (fun _ -> random_block ())
    |> List.sort_uniq Experiment.compare
  in
  List.map (fun e -> { experiment = e; cycles = Harness.cycles harness e }) experiments

(* Genomes are mutable arrays of usages, one per scheme (index-aligned). *)
let to_mapping ~num_ports schemes genome =
  let m = Mapping.create ~num_ports in
  List.iteri (fun i s -> Mapping.set m s genome.(i)) schemes;
  m

let random_portset ~num_ports rng =
  let rec go acc =
    let acc = Portset.add (Rng.int rng num_ports) acc in
    if Rng.float rng < 0.5 && Portset.cardinal acc < num_ports then go acc
    else acc
  in
  go Portset.empty

let random_usage ~num_ports rng =
  let uops = 1 + Rng.int rng max_uops in
  Mapping.normalize_usage
    (List.init uops (fun _ -> (random_portset ~num_ports rng, 1)))

let mutate_usage ~num_ports rng usage =
  (* Flip one port in one µop, or add/remove a µop. *)
  let usage = Array.of_list (List.concat_map (fun (p, n) -> List.init n (fun _ -> p)) usage) in
  let choice = Rng.float rng in
  let as_usage arr =
    Mapping.normalize_usage (Array.to_list (Array.map (fun p -> (p, 1)) arr))
  in
  if choice < 0.2 && Array.length usage < max_uops then
    as_usage (Array.append usage [| random_portset ~num_ports rng |])
  else if choice < 0.4 && Array.length usage > 1 then
    as_usage (Array.sub usage 0 (Array.length usage - 1))
  else begin
    let i = Rng.int rng (Array.length usage) in
    let port = Rng.int rng num_ports in
    let set = usage.(i) in
    let set' =
      if Portset.mem port set then
        if Portset.cardinal set > 1 then Portset.diff set (Portset.singleton port)
        else set
      else Portset.add port set
    in
    usage.(i) <- set';
    as_usage usage
  end

(* Relative error of one benchmark under one genome-as-mapping, on the
   sparse kernel.  PMEvo's model has no frontend term (the paper's footnote
   10: predictions are not adjusted for the IPC bottleneck), so training is
   consistent with it. *)
let benchmark_error oracle bench =
  let modeled = Oracle.inverse oracle bench.experiment in
  let measured = Rat.to_float bench.cycles in
  if measured = 0.0 then 0.0
  else Float.abs (Rat.to_float modeled -. measured) /. measured

let fitness mapping benchmarks =
  let oracle = Oracle.create mapping in
  let total =
    List.fold_left (fun acc b -> acc +. benchmark_error oracle b) 0.0
      benchmarks
  in
  100.0 *. total /. float_of_int (max 1 (List.length benchmarks))

(* Seed usages from an instruction's own steady-state CPI, as PMEvo seeds
   its population from per-instruction measurements: CPI <= 1 suggests one
   µop on about 1/CPI ports, CPI > 1 suggests several serial µops. *)
let seeded_usage ~num_ports rng cpi =
  if cpi <= 0.0 then random_usage ~num_ports rng
  else if cpi <= 1.1 then begin
    let ports = max 1 (min num_ports (int_of_float (Float.round (1.0 /. cpi)))) in
    let available = Array.init num_ports Fun.id in
    Rng.shuffle rng available;
    [ (Pmi_portmap.Portset.of_list (Array.to_list (Array.sub available 0 ports)), 1) ]
  end
  else begin
    (* A slow single-µop-per-port story: stack the µops on one port so the
       seeded genome reproduces the measured singleton throughput. *)
    let uops = max 1 (min max_uops (int_of_float (Float.round cpi))) in
    let port = Rng.int rng num_ports in
    Mapping.normalize_usage
      (List.init uops (fun _ -> (Portset.singleton port, 1)))
  end

let infer ?(config = default_config) ~num_ports benchmarks schemes =
  let rng = Rng.create ~seed in
  let n = List.length schemes in
  let singleton_cpi =
    let tbl = Hashtbl.create 64 in
    List.iter
      (fun b ->
         match Experiment.to_counts b.experiment with
         | [ (s, 1) ] -> Hashtbl.replace tbl (Scheme.id s) (Rat.to_float b.cycles)
         | _ -> ())
      benchmarks;
    fun s -> Hashtbl.find_opt tbl (Scheme.id s)
  in
  let scheme_arr = Array.of_list schemes in
  let random_genome seeded =
    Array.init n (fun i ->
        match (seeded, singleton_cpi scheme_arr.(i)) with
        | true, Some cpi -> seeded_usage ~num_ports rng cpi
        | (true, None) | (false, _) -> random_usage ~num_ports rng)
  in
  let population =
    (* Most of the population starts from measurement-informed usages; a
       few random genomes keep diversity. *)
    Array.init config.population (fun i -> random_genome (i mod 4 <> 3))
  in
  let score genome =
    fitness (to_mapping ~num_ports schemes genome) benchmarks
  in
  let scores = Array.map score population in
  let tournament () =
    let best = ref (Rng.int rng config.population) in
    for _ = 2 to tournament do
      let challenger = Rng.int rng config.population in
      if scores.(challenger) < scores.(!best) then best := challenger
    done;
    !best
  in
  let order = Array.init config.population Fun.id in
  for _generation = 1 to config.generations do
    Array.sort (fun a b -> compare scores.(a) scores.(b)) order;
    let next = Array.make config.population [||] in
    for e = 0 to elite - 1 do
      next.(e) <- Array.copy population.(order.(e))
    done;
    for slot = elite to config.population - 1 do
      let parent_a = population.(tournament ()) in
      let parent_b = population.(tournament ()) in
      let child =
        Array.init n (fun i ->
            if Rng.float rng < crossover_rate && Rng.bool rng then
              parent_b.(i)
            else parent_a.(i))
      in
      let per_gene =
        Float.min 0.5 (mutation_rate /. float_of_int (max 1 n))
      in
      for i = 0 to n - 1 do
        if Rng.float rng < per_gene then
          child.(i) <- mutate_usage ~num_ports rng child.(i)
      done;
      next.(slot) <- child
    done;
    Array.blit next 0 population 0 config.population;
    Array.iteri (fun i g -> scores.(i) <- score g) population
  done;
  let best = ref 0 in
  Array.iteri (fun i s -> if s < scores.(!best) then best := i) scores;
  to_mapping ~num_ports schemes population.(!best)
