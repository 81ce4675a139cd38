module Rat = Pmi_numeric.Rat
module Scheme = Pmi_isa.Scheme
module Experiment = Pmi_portmap.Experiment
module Harness = Pmi_measure.Harness

let memory_uop_adjustment scheme =
  if Scheme.is_lea scheme || Scheme.is_loading_mov scheme then 0
  else begin
    let contribution width = if width <= 128 then 1 else 2 in
    (* A read-written memory operand is a single operand of the scheme and
       is fused into one address computation on Zen+ (§4.4), so count
       operands, not accesses. *)
    let widths =
      List.filter_map Pmi_isa.Operand.memory_width (Scheme.operands scheme)
    in
    List.fold_left (fun acc w -> acc + contribution w) 0 widths
  end

let postulated_uops harness scheme =
  let macro = Harness.retired_ops harness (Experiment.singleton scheme) in
  macro + memory_uop_adjustment scheme

let uops_on_blocked_ports harness ~blocked ~with_i ~port_set_size =
  let t_with = (Harness.run harness with_i).Harness.ticks in
  let t_without = (Harness.run harness blocked).Harness.ticks in
  Rat.of_ints ((t_with - t_without) * port_set_size) Harness.precision

let round_uops ~tolerance value =
  let f = Rat.to_float value in
  let nearest = Float.round f in
  if Float.abs (f -. nearest) <= tolerance && nearest >= -0.5 then
    Some (max 0 (int_of_float nearest))
  else None
