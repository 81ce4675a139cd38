module Rat = Pmi_numeric.Rat
module Bigint = Pmi_numeric.Bigint
module Experiment = Pmi_portmap.Experiment
module Catalog = Pmi_isa.Catalog
module Machine = Pmi_machine.Machine
module Race = Pmi_diag.Race
module Obs = Pmi_obs.Obs
module Store = Pmi_store.Store

(* Telemetry counters (process-wide, not per-harness: a trace wants the
   aggregate question-asking cost of the whole run, and per-harness
   hit/miss stays available via the accessors).  The two cache tiers
   count separately so a warm-start ablation can attribute its savings:
   [mem] is the in-process table, [store] the durable tier. *)
let c_mem_hits = Obs.counter "harness.cache.mem.hit"
let c_mem_misses = Obs.counter "harness.cache.mem.miss"
let c_store_hits = Obs.counter "harness.cache.store.hit"
let c_store_misses = Obs.counter "harness.cache.store.miss"

type sample = {
  cycles : Rat.t;
  spread_cpi : float;
  retired_ops : int;
}

(* The cache and the underlying machine are shared mutable state: parallel
   prediction sweeps (validation's [Pool.find_first_index], the
   [parallel/*] benches) hit [run] from several domains at once.  One
   harness-wide lock covers the probe/measure/insert sequence — the mutex
   is real even with the sanitizer off, and doubles as the happens-before
   edge the race detector checks.  The durable tier lives under the same
   lock, so the sanitizer sees store reads and write-throughs ordered with
   the table they fill.  Hit/miss counters are atomics so the accessors
   can read them without the lock. *)
type t = {
  machine : Machine.t;
  reps : int;
  precision : int;
  cache : ((int * int) list, sample) Race.tracked_table;
  lock : Race.lock;
  hits : int Atomic.t;
  misses : int Atomic.t;
  store : Store.t option;
  fingerprint : string; (* keys durable records; "" without a store *)
  store_hits : int Atomic.t;
  store_misses : int Atomic.t;
}

let create ?(reps = 11) ?(precision = 1000) ?store machine =
  if reps <= 0 || precision <= 0 then invalid_arg "Harness.create";
  { machine;
    reps;
    precision;
    cache = Race.tracked_table ~name:"harness.cache" 4096;
    lock = Race.create_lock "harness.lock";
    hits = Atomic.make 0;
    misses = Atomic.make 0;
    store;
    fingerprint =
      (match store with
       | Some _ -> Machine.fingerprint machine
       | None -> "");
    store_hits = Atomic.make 0;
    store_misses = Atomic.make 0 }

let machine t = t.machine
let store t = t.store

let quantise t value =
  let p = float_of_int t.precision in
  Rat.of_ints (int_of_float (Float.round (value *. p))) t.precision

(* ------------------------------------------------------------------ *)
(* Durable-tier codec                                                  *)
(* ------------------------------------------------------------------ *)

(* Store key: machine fingerprint, '|', then the experiment key rendered
   as "id.count,id.count" (already sorted by [Experiment.key]).  Value:
   "num:den:spread-bits:retired-ops" — the quantised cycles as exact
   bigint numerator/denominator, the spread as IEEE-754 bits so the
   round-trip is lossless, and the retired-ops counter. *)
let store_key t k =
  let buf = Buffer.create 64 in
  Buffer.add_string buf t.fingerprint;
  Buffer.add_char buf '|';
  List.iteri
    (fun i (id, count) ->
       if i > 0 then Buffer.add_char buf ',';
       Printf.bprintf buf "%d.%d" id count)
    k;
  Buffer.contents buf

let encode_sample s =
  Printf.sprintf "%s:%s:%Ld:%d"
    (Bigint.to_string (Rat.num s.cycles))
    (Bigint.to_string (Rat.den s.cycles))
    (Int64.bits_of_float s.spread_cpi)
    s.retired_ops

let decode_sample v =
  match String.split_on_char ':' v with
  | [ num; den; spread; retired ] ->
    (try
       Some
         { cycles = Rat.make (Bigint.of_string num) (Bigint.of_string den);
           spread_cpi = Int64.float_of_bits (Int64.of_string spread);
           retired_ops = int_of_string retired }
     with _ -> None)
  | _ -> None

let decode_experiment catalog part =
  let n = Catalog.size catalog in
  try
    let counts =
      List.map
        (fun pair ->
           match String.split_on_char '.' pair with
           | [ id; count ] ->
             let id = int_of_string id and count = int_of_string count in
             if id < 0 || id >= n || count <= 0 then raise Exit;
             (Catalog.find catalog id, count)
           | _ -> raise Exit)
        (String.split_on_char ',' part)
    in
    if counts = [] then None else Some (Experiment.of_counts counts)
  with Exit | Failure _ -> None

(* Durable-tier probe + write-through; both run under the harness lock.
   A record that fails to decode (foreign version, manual edit) is
   treated as a miss and overwritten by the write-through. *)
let store_find t k =
  match t.store with
  | None -> None
  | Some store ->
    (match Store.get store Store.Measurement ~key:(store_key t k) with
     | Some v ->
       (match decode_sample v with
        | Some sample ->
          Atomic.incr t.store_hits;
          Obs.incr c_store_hits;
          Some sample
        | None -> None)
     | None -> None)

let store_write t k sample =
  match t.store with
  | None -> ()
  | Some store ->
    Store.put store Store.Measurement ~key:(store_key t k)
      (encode_sample sample)

let run t experiment =
  let k = Experiment.key experiment in
  Race.with_lock t.lock (fun () ->
      match Race.tbl_find_opt t.cache k with
      | Some sample ->
        Atomic.incr t.hits;
        Obs.incr c_mem_hits;
        sample
      | None ->
        Atomic.incr t.misses;
        Obs.incr c_mem_misses;
        match store_find t k with
        | Some sample ->
          Race.tbl_replace t.cache k sample;
          sample
        | None ->
          if t.store <> None then begin
            Atomic.incr t.store_misses;
            Obs.incr c_store_misses
          end;
          Obs.span "harness.measure" (fun () ->
              let runs = Machine.samples t.machine ~reps:t.reps experiment in
              Array.sort Float.compare runs;
              let median = runs.(t.reps / 2) in
              let low = runs.(0) and high = runs.(t.reps - 1) in
              let len = Experiment.length experiment in
              let spread_cpi =
                if len = 0 then 0.0 else (high -. low) /. float_of_int len
              in
              let sample =
                { cycles = quantise t median;
                  spread_cpi;
                  retired_ops = Machine.retired_ops t.machine experiment }
              in
              Race.tbl_replace t.cache k sample;
              store_write t k sample;
              sample))

let cycles t experiment = (run t experiment).cycles

let cpi t experiment =
  let len = Experiment.length experiment in
  if len = 0 then invalid_arg "Harness.cpi: empty experiment";
  Rat.div (cycles t experiment) (Rat.of_int len)

let retired_ops t experiment = (run t experiment).retired_ops

let benchmarks_run t =
  Race.with_lock t.lock (fun () -> Race.tbl_length t.cache)

let cache_hits t = Atomic.get t.hits
let cache_misses t = Atomic.get t.misses
let store_hits t = Atomic.get t.store_hits
let store_misses t = Atomic.get t.store_misses

(* Every stored measurement of this machine, decoded back to experiments
   against the live catalog.  Records that do not parse, name unknown
   scheme ids, or belong to another machine fingerprint are skipped — the
   store may hold history from other configurations. *)
let stored_observations t =
  match t.store with
  | None -> []
  | Some store ->
    let catalog = Machine.catalog t.machine in
    let prefix = t.fingerprint ^ "|" in
    let plen = String.length prefix in
    Store.fold store Store.Measurement
      (fun ~key value acc ->
         if
           String.length key > plen
           && String.equal (String.sub key 0 plen) prefix
         then
           match decode_experiment catalog (String.sub key plen (String.length key - plen)) with
           | Some e ->
             (match decode_sample value with
              | Some sample -> (e, sample.cycles) :: acc
              | None -> acc)
           | None -> acc
         else acc)
      []

module Compare = struct
  let default_epsilon = Rat.of_ints 2 100

  let cpi_equal ?(epsilon = default_epsilon) ~length t1 t2 =
    let bound = Rat.mul epsilon (Rat.of_int length) in
    Rat.compare (Rat.abs (Rat.sub t1 t2)) bound <= 0

  let well_separated ?(epsilon = default_epsilon) ~length t1 t2 =
    let bound = Rat.mul (Rat.of_int 2) (Rat.mul epsilon (Rat.of_int length)) in
    Rat.compare (Rat.abs (Rat.sub t1 t2)) bound > 0

  (* The sign of |n1/d1 − n2/d2| − scale·ε·length, from the same test
     cross-multiplied onto native ints: |n1·d2 − n2·d1|·ε_den against
     scale·ε_num·length·d1·d2.  A float estimate of each side, with every
     factor taken at least 1 in magnitude, bounds every intermediate
     product; below 2^61 none of them can overflow.  Otherwise the test
     runs on [Rat]. *)
  let gap_sign ~scale epsilon ~length (n1, d1) (n2, d2) =
    let mag x = Float.max 1. (Float.abs (float_of_int x)) in
    let limit = 0x1p61 in
    match
      (Bigint.to_int_opt (Rat.num epsilon), Bigint.to_int_opt (Rat.den epsilon))
    with
    | Some en, Some ed
      when d1 > 0 && d2 > 0
           && ((mag n1 *. mag d2) +. (mag n2 *. mag d1)) *. mag ed < limit
           && mag scale *. mag en *. mag length *. mag d1 *. mag d2 < limit ->
      compare (abs ((n1 * d2) - (n2 * d1)) * ed) (scale * en * length * d1 * d2)
    | _ ->
      let gap = Rat.abs (Rat.sub (Rat.of_ints n1 d1) (Rat.of_ints n2 d2)) in
      Rat.compare gap
        (Rat.mul (Rat.of_int scale) (Rat.mul epsilon (Rat.of_int length)))

  let cpi_equal_frac ?(epsilon = default_epsilon) ~length f1 f2 =
    gap_sign ~scale:1 epsilon ~length f1 f2 <= 0

  let well_separated_frac ?(epsilon = default_epsilon) ~length f1 f2 =
    gap_sign ~scale:2 epsilon ~length f1 f2 > 0
end
