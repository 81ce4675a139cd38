let mix h =
  (* splitmix64-style finaliser, truncated to OCaml's 63-bit ints. *)
  let h = h lxor (h lsr 30) in
  let h = h * 0x4be98134a5976fd3 in
  let h = h lxor (h lsr 29) in
  let h = h * 0x3bc8203a9c2b4eab in
  h lxor (h lsr 32)

(* Multiset hash: commutative combination of per-element hashes. *)
let key_empty = 0x9e3779b9
let key_add key ~id ~count = key + mix ((id * 1_000_003) + count)

let hash_experiment experiment =
  Pmi_portmap.Experiment.fold
    (fun scheme count key -> key_add key ~id:(Pmi_isa.Scheme.id scheme) ~count)
    experiment key_empty

let jitter ~seed ~key ~rep ~amplitude =
  let h = mix (mix (seed + (key * 31)) + rep) in
  let unit = float_of_int (h land 0xFFFFFF) /. float_of_int 0xFFFFFF in
  ((2.0 *. unit) -. 1.0) *. amplitude

let jitter_all runs ~seed ~key ~amplitude =
  for rep = 0 to Array.length runs - 1 do
    runs.(rep) <- runs.(rep) *. (1.0 +. jitter ~seed ~key ~rep ~amplitude)
  done
