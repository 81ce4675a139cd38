let gap_ok ~r_max ~max_port_set = r_max > max_port_set

let check ~r_max ~max_port_set =
  if not (gap_ok ~r_max ~max_port_set) then
    invalid_arg
      (Printf.sprintf
         "Bottleneck.check: frontend rate %d does not exceed the widest µop \
          port set %d; blocking-based counting would be unsound (§3.4)"
         r_max max_port_set)
