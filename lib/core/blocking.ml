module Rat = Pmi_numeric.Rat
module Scheme = Pmi_isa.Scheme
module Experiment = Pmi_portmap.Experiment
module Harness = Pmi_measure.Harness

type config = {
  epsilon : Rat.t;
  max_ports : int;
  r_max : int;
}

let default_config =
  { epsilon = Harness.Compare.default_epsilon; max_ports = 4; r_max = 5 }

let spread_threshold = 0.04

(* How close 1/tp⁻¹ must be to an integer. *)
let port_tolerance = 0.12

type individual =
  | Hardwired
  | Unreliable
  | Zero_uop
  | Outside_model
  | Candidate of int
  | Multi_uop of int

let has_hardwired_operand scheme =
  List.exists
    (fun op ->
       match op.Pmi_isa.Operand.kind with
       | Pmi_isa.Operand.Gpr_high -> true
       | Pmi_isa.Operand.Gpr _ | Pmi_isa.Operand.Vec _ | Pmi_isa.Operand.Mem _
       | Pmi_isa.Operand.Imm _ -> false)
    (Pmi_isa.Scheme.operands scheme)

let classify_individual ?(config = default_config) harness scheme =
  if has_hardwired_operand scheme then Hardwired
  else begin
  let sample = Harness.run harness (Experiment.singleton scheme) in
  if sample.Harness.spread_cpi > spread_threshold then Unreliable
  else begin
    let postulated = Uop_count.postulated_uops harness scheme in
    (* ticks / precision as a float: the correctly rounded quotient, the
       same one [Rat.to_float] gives. *)
    let cycles =
      float_of_int sample.Harness.ticks
      /. float_of_int Harness.precision
    in
    if cycles > float_of_int (max postulated 1) +. port_tolerance then
      (* No port mapping over [postulated] µops can be this slow: the
         divider-style non-pipelined schemes of §4.1.2. *)
      Outside_model
    else if postulated >= 2 then Multi_uop postulated
    else begin
      let throughput = 1.0 /. cycles in
      if throughput >= float_of_int config.r_max -. port_tolerance then
        (* Streams at the frontend limit: no port usage to observe. *)
        Zero_uop
      else begin
        let n = int_of_float (Float.round throughput) in
        if
          n >= 1 && n <= config.max_ports
          && Float.abs (throughput -. float_of_int n) <= port_tolerance
        then Candidate n
        else Outside_model
      end
    end
  end
  end

type klass = {
  port_count : int;
  representative : Scheme.t;
  members : Scheme.t list;
}

type filtering = {
  classes : klass list;
  unstable : Scheme.t list;
  contradictory : Scheme.t list;
}

type pair_result = Additive | Not_additive | Unstable_pair

(* The pair test on ticks: [pair ≈ ti + tj] up to 2ε, with both sides
   over the harness's precision; [ti] and [tj] are the singletons'
   ticks.  A pair is asked once, so it is measured and not cached. *)
let measure_pair tolerance harness (i, ti) (j, tj) =
  let sample = Harness.measure harness (Experiment.of_list [ i; j ]) in
  if sample.Harness.spread_cpi > spread_threshold then Unstable_pair
  else begin
    let p = Harness.precision in
    if
      Harness.Compare.cpi_equal_frac ~tolerance ~length:2
        (sample.Harness.ticks, p) (ti + tj, p)
    then Additive
    else Not_additive
  end

let with_ticks harness s =
  (s, (Harness.run harness (Experiment.singleton s)).Harness.ticks)

let additive ?(config = default_config) harness i j =
  measure_pair (Harness.Compare.tolerance config.epsilon) harness
    (with_ticks harness i) (with_ticks harness j)
  = Additive

(* Sets of indices below n as bit rows: [words n] ints of [word] bits. *)
let word = Sys.int_size
let words n = (n + word - 1) / word
let mem r i = (r.(i / word) lsr (i mod word)) land 1 = 1
let set r i = r.(i / word) <- r.(i / word) lor (1 lsl (i mod word))
let clear r i = r.(i / word) <- r.(i / word) land lnot (1 lsl (i mod word))

let bits_of n (row : bool array) =
  let r = Array.make (words n) 0 in
  Array.iteri (fun k b -> if b then set r k) row;
  r

(* Bits set in a word, by summing bit fields of doubling width; the
   byte sums meet in the top byte, which holds up to 127. *)
let popcount x =
  let x = x - ((x lsr 1) land 0x5555555555555555) in
  let x = (x land 0x3333333333333333) + ((x lsr 2) land 0x3333333333333333) in
  let x = (x + (x lsr 4)) land 0x0f0f0f0f0f0f0f0f in
  (x * 0x0101010101010101) lsr 56

(* [counts.(s)]: the conflict triangles at every live s, the pairs a < b
   of live neighbours of s (other than s) with b not in row a.  For each
   such a, that is the live neighbours of s above a outside row a: a
   popcount of N(s) ∧ ¬row(a) ∧ above(a) per word. *)
let triangles_into counts rows alive n =
  let nw = words n in
  let ns = Array.make nw 0 in
  for s = 0 to n - 1 do
    counts.(s) <- 0;
    if mem alive s then begin
      let row = rows.(s) in
      for w = 0 to nw - 1 do ns.(w) <- row.(w) land alive.(w) done;
      clear ns s;
      let t = ref 0 in
      for w = 0 to nw - 1 do
        let x = ref ns.(w) in
        while !x <> 0 do
          let low = !x land (- !x) in
          x := !x lxor low;
          let r = popcount (low - 1) in
          let ra = rows.((w * word) + r) in
          t := !t + popcount (ns.(w) land lnot ra.(w) land ((-2) lsl r));
          for w' = w + 1 to nw - 1 do
            t := !t + popcount (ns.(w') land lnot ra.(w'))
          done
        done
      done;
      counts.(s) <- !t
    end
  done

let triangle_counts adjacency alive =
  let n = Array.length adjacency in
  let counts = Array.make n 0 in
  triangles_into counts (Array.map (bits_of n) adjacency) (bits_of n alive) n;
  counts

(* Union-find over array indices. *)
let find parent i =
  let rec go i = if parent.(i) = i then i else go parent.(i) in
  let root = go i in
  let rec compress i =
    if parent.(i) <> root then begin
      let next = parent.(i) in
      parent.(i) <- root;
      compress next
    end
  in
  compress i;
  root

let union parent i j =
  let ri = find parent i and rj = find parent j in
  if ri <> rj then parent.(ri) <- rj

(* Process one group of candidates that share a port-set size. *)
let process_group tolerance harness group =
  let members = Array.of_list group in
  let n = Array.length members in
  let adjacency = Array.make_matrix n n false in
  let unstable_pair = Array.make_matrix n n false in
  (* Each member's singleton ticks, read once for all of its pairs. *)
  let singles = Array.map (with_ticks harness) members in
  for i = 0 to n - 1 do
    for j = i + 1 to n - 1 do
      match measure_pair tolerance harness singles.(i) singles.(j) with
      | Additive ->
        adjacency.(i).(j) <- true;
        adjacency.(j).(i) <- true
      | Not_additive -> ()
      | Unstable_pair ->
        unstable_pair.(i).(j) <- true;
        unstable_pair.(j).(i) <- true
    done
  done;
  (* A candidate whose pairings are mostly unstable cannot be trusted.
     Unstable schemes destabilise every pairing, including those of
     innocent partners, so the exclusion peels greedily: drop the worst
     destabiliser, discount its pairings, repeat.  A small group of adds
     measured against as many cmovs keeps its adds this way. *)
  let alive = Array.make n true in
  let unstable = ref [] in
  (* [c.(i)] of the [total.(i)] live partners of [i] pair unstably with
     it; dropping a scheme discounts its pairings. *)
  let c =
    Array.map
      (Array.fold_left (fun acc u -> if u then acc + 1 else acc) 0)
      unstable_pair
  in
  let total = Array.make n (n - 1) in
  let rec peel () =
    let worst = ref (-1) in
    let worst_count = ref 0 in
    for i = 0 to n - 1 do
      if
        alive.(i) && total.(i) > 0 && 2 * c.(i) > total.(i)
        && c.(i) > !worst_count
      then begin
        worst := i;
        worst_count := c.(i)
      end
    done;
    if !worst >= 0 then begin
      let w = !worst in
      alive.(w) <- false;
      unstable := members.(w) :: !unstable;
      for i = 0 to n - 1 do
        if alive.(i) then begin
          total.(i) <- total.(i) - 1;
          if unstable_pair.(i).(w) then c.(i) <- c.(i) - 1
        end
      done;
      peel ()
    end
  in
  peel ();
  (* Triangle offenders: additive with two candidates that are not additive
     with each other (the fma phenomenon, §4.2).  Repeatedly drop every
     candidate involved in strictly more conflict triangles than its
     neighbours until the additivity relation is transitive. *)
  let contradictory = ref [] in
  let rows = Array.map (bits_of n) adjacency in
  let live = bits_of n alive in
  let triangles = Array.make n 0 in
  let rec prune () =
    triangles_into triangles rows live n;
    (* Drop the primary offenders: everything within a factor of two of
       the worst triangle count.  Connector schemes like fma sit in vastly
       more conflict triangles than the classes they bridge, so this
       removes a whole family per round and converges quickly. *)
    let worst = Array.fold_left max 0 triangles in
    if worst > 0 then begin
      for s = 0 to n - 1 do
        if alive.(s) && 2 * triangles.(s) > worst then begin
          alive.(s) <- false;
          clear live s;
          contradictory := members.(s) :: !contradictory
        end
      done;
      prune ()
    end
  in
  prune ();
  (* Equivalence classes are the connected components of what is now a
     disjoint union of cliques. *)
  let parent = Array.init n Fun.id in
  for i = 0 to n - 1 do
    for j = i + 1 to n - 1 do
      if alive.(i) && alive.(j) && adjacency.(i).(j) then union parent i j
    done
  done;
  let classes = Hashtbl.create 8 in
  for i = 0 to n - 1 do
    if alive.(i) then begin
      let root = find parent i in
      let existing = try Hashtbl.find classes root with Not_found -> [] in
      Hashtbl.replace classes root (members.(i) :: existing)
    end
  done;
  let class_list =
    Hashtbl.fold (fun _ ms acc -> List.rev ms :: acc) classes []
  in
  (class_list, List.rev !unstable, List.rev !contradictory)

(* Representatives are picked by mnemonic in this order (earlier is
   better), the mnemonics of the paper's Table 1. *)
let preference =
  [ "add"; "vpor"; "vpaddd"; "vminps"; "vbroadcastss"; "vpaddsw"; "vaddps";
    "mov"; "vpslld"; "vpmuldq"; "imul"; "vroundps"; "vmovd" ]

let representative_key scheme =
  let mnemonic_rank =
    let rec go i = function
      | [] -> List.length preference
      | m :: rest -> if m = Scheme.mnemonic scheme then i else go (i + 1) rest
    in
    go 0 preference
  in
  let width_rank =
    (* Prefer the 32-bit / plain-XMM forms the paper's Table 1 displays. *)
    let ops = Scheme.operands scheme in
    let has32 =
      List.exists
        (fun op ->
           match op.Pmi_isa.Operand.kind with
           | Pmi_isa.Operand.Gpr 32 | Pmi_isa.Operand.Vec 128
           | Pmi_isa.Operand.Mem 32 -> true
           | Pmi_isa.Operand.Gpr _ | Pmi_isa.Operand.Gpr_high
           | Pmi_isa.Operand.Vec _ | Pmi_isa.Operand.Mem _
           | Pmi_isa.Operand.Imm _ -> false)
        ops
    in
    if has32 then 0 else 1
  in
  (mnemonic_rank, width_rank, Scheme.id scheme)

let filter_candidates ?(config = default_config) harness candidates =
  (* Candidates can only be redundant when their port sets have equal size,
     so the pairing stage works one size group at a time. *)
  let by_count = Hashtbl.create 8 in
  List.iter
    (fun (scheme, count) ->
       let existing = try Hashtbl.find by_count count with Not_found -> [] in
       Hashtbl.replace by_count count (scheme :: existing))
    candidates;
  let groups =
    Hashtbl.fold (fun count ms acc -> (count, List.rev ms) :: acc) by_count []
    |> List.sort (fun (a, _) (b, _) -> compare b a)
  in
  let tolerance = Harness.Compare.tolerance config.epsilon in
  let classes = ref [] in
  let unstable = ref [] in
  let contradictory = ref [] in
  List.iter
    (fun (count, group) ->
       let class_members, uns, contra =
         process_group tolerance harness group
       in
       unstable := !unstable @ uns;
       contradictory := !contradictory @ contra;
       List.iter
         (fun members ->
            let representative =
              List.fold_left
                (fun best s ->
                   if representative_key s < representative_key best
                   then s
                   else best)
                (List.hd members) members
            in
            classes := { port_count = count; representative; members } :: !classes)
         class_members)
    groups;
  let classes =
    List.sort
      (fun a b ->
         match compare b.port_count a.port_count with
         | 0 -> compare (Scheme.id a.representative) (Scheme.id b.representative)
         | c -> c)
      !classes
  in
  { classes; unstable = !unstable; contradictory = !contradictory }
