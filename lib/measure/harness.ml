module Rat = Pmi_numeric.Rat
module Bigint = Pmi_numeric.Bigint
module Experiment = Pmi_portmap.Experiment
module Machine = Pmi_machine.Machine
module Race = Pmi_diag.Race
module Obs = Pmi_obs.Obs

(* Telemetry counters (process-wide, not per-harness: a trace wants the
   aggregate question-asking cost of the whole run, and per-harness
   hit/miss stays available via the accessors). *)
let c_mem_hits = Obs.counter "harness.cache.mem.hit"
let c_mem_misses = Obs.counter "harness.cache.mem.miss"

type sample = {
  ticks : int;
  spread_cpi : float;
  retired_ops : int;
}

(* The cache key: an experiment's canonical (scheme id, count) pairs
   packed into one int array, so an entry costs the GC one small block
   for its key and a lookup reads one. *)
module Key = struct
  type t = int array

  let of_experiment e =
    let k = Array.make (2 * Experiment.distinct e) 0 in
    ignore
      (Experiment.fold
         (fun s n i ->
            k.(i) <- Pmi_isa.Scheme.id s;
            k.(i + 1) <- n;
            i + 2)
         e 0);
    k

  let equal (a : t) (b : t) =
    let n = Array.length a in
    n = Array.length b
    &&
    let rec from i = i = n || (a.(i) = b.(i) && from (i + 1)) in
    from 0

  let hash (a : t) =
    let h = ref 17 in
    for i = 0 to Array.length a - 1 do
      h := (!h * 1_000_003) + a.(i)
    done;
    let h = !h * 0x2545F4914F6CDD1D in
    (h lxor (h lsr 32)) land max_int
end

module Cache = Race.Tracked_table (Key)

(* The cache and the underlying machine are shared mutable state: a
   parallel sweep (the sanitizer's harness workload) hits [run] from
   several domains at once.  One harness-wide lock covers the
   probe/measure/insert sequence — the mutex is real even with the
   sanitizer off, and doubles as the happens-before edge the race detector
   checks.  Hit/miss counters are atomics so the accessors can read them
   without the lock. *)
type t = {
  machine : Machine.t;
  cache : sample Cache.t;
  lock : Race.lock;
  hits : int Atomic.t;
  misses : int Atomic.t;
}

(* The paper's median-of-11, reported in millicycles. *)
let reps = 11
let precision = 1000

let create machine =
  { machine;
    cache = Cache.create ~name:"harness.cache" 4096;
    lock = Race.create_lock "harness.lock";
    hits = Atomic.make 0;
    misses = Atomic.make 0 }

let machine t = t.machine

(* Insertion sort on the unboxed float array: a handful of repetitions,
   and no boxed float per comparison as the polymorphic [Array.sort]
   takes.  Samples are never NaN, so [<] orders them as [Float.compare]
   does. *)
let sort_runs (runs : float array) =
  for i = 1 to Array.length runs - 1 do
    let x = runs.(i) in
    let j = ref (i - 1) in
    while !j >= 0 && x < runs.(!j) do
      runs.(!j + 1) <- runs.(!j);
      decr j
    done;
    runs.(!j + 1) <- x
  done

let run t experiment =
  Race.with_lock t.lock (fun () ->
      let key = Key.of_experiment experiment in
      match Cache.find_opt t.cache key with
      | Some sample ->
        Atomic.incr t.hits;
        Obs.incr c_mem_hits;
        sample
      | None ->
        Atomic.incr t.misses;
        Obs.incr c_mem_misses;
        Obs.span "harness.measure" (fun () ->
            let runs = Machine.samples t.machine ~reps experiment in
            sort_runs runs;
            let median = runs.(reps / 2) in
            let low = runs.(0) and high = runs.(reps - 1) in
            let len = Experiment.length experiment in
            let spread_cpi =
              if len = 0 then 0.0 else (high -. low) /. float_of_int len
            in
            let p = float_of_int precision in
            let sample =
              { ticks = int_of_float (Float.round (median *. p));
                spread_cpi;
                retired_ops = Machine.retired_ops t.machine experiment }
            in
            Cache.replace t.cache key sample;
            sample))

let sample_cycles sample = Rat.of_ints sample.ticks precision
let cycles t experiment = sample_cycles (run t experiment)

let cpi t experiment =
  let len = Experiment.length experiment in
  if len = 0 then invalid_arg "Harness.cpi: empty experiment";
  Rat.div (cycles t experiment) (Rat.of_int len)

let retired_ops t experiment = (run t experiment).retired_ops

let benchmarks_run t =
  Race.with_lock t.lock (fun () -> Cache.length t.cache)

let cache_hits t = Atomic.get t.hits
let cache_misses t = Atomic.get t.misses

module Compare = struct
  let default_epsilon = Rat.of_ints 2 100

  let cpi_equal ?(epsilon = default_epsilon) ~length t1 t2 =
    let bound = Rat.mul epsilon (Rat.of_int length) in
    Rat.compare (Rat.abs (Rat.sub t1 t2)) bound <= 0

  let well_separated ?(epsilon = default_epsilon) ~length t1 t2 =
    let bound = Rat.mul (Rat.of_int 2) (Rat.mul epsilon (Rat.of_int length)) in
    Rat.compare (Rat.abs (Rat.sub t1 t2)) bound > 0

  (* ε as the native tests read it, worked out once: its parts as ints,
     and their magnitudes for the overflow bound below.  [native] is false
     when a part does not fit an int; the tests then run on [Rat]. *)
  type tolerance = {
    epsilon : Rat.t;
    native : bool;
    en : int;
    ed : int;
    mag_en : float;
    mag_ed : float;
  }

  let mag x = Float.max 1. (Float.abs (float_of_int x))

  let tolerance epsilon =
    match
      (Bigint.to_int_opt (Rat.num epsilon), Bigint.to_int_opt (Rat.den epsilon))
    with
    | Some en, Some ed ->
      { epsilon; native = true; en; ed; mag_en = mag en; mag_ed = mag ed }
    | _ -> { epsilon; native = false; en = 0; ed = 1; mag_en = 1.; mag_ed = 1. }

  let default_tolerance = tolerance default_epsilon

  (* The sign of |n1/d1 − n2/d2| − scale·ε·length, from the same test
     cross-multiplied onto native ints: |n1·d2 − n2·d1|·ε_den against
     scale·ε_num·length·d1·d2.  A float estimate of each side, with every
     factor taken at least 1 in magnitude, bounds every intermediate
     product; below 2^61 none of them can overflow.  Otherwise the test
     runs on [Rat]. *)
  let gap_sign ~scale tol ~length (n1, d1) (n2, d2) =
    let limit = 0x1p61 in
    if
      tol.native && d1 > 0 && d2 > 0
      && ((mag n1 *. mag d2) +. (mag n2 *. mag d1)) *. tol.mag_ed < limit
      && mag scale *. tol.mag_en *. mag length *. mag d1 *. mag d2 < limit
    then
      compare
        (abs ((n1 * d2) - (n2 * d1)) * tol.ed)
        (scale * tol.en * length * d1 * d2)
    else begin
      let gap = Rat.abs (Rat.sub (Rat.of_ints n1 d1) (Rat.of_ints n2 d2)) in
      Rat.compare gap
        (Rat.mul (Rat.of_int scale) (Rat.mul tol.epsilon (Rat.of_int length)))
    end

  let cpi_equal_frac ?(tolerance = default_tolerance) ~length f1 f2 =
    gap_sign ~scale:1 tolerance ~length f1 f2 <= 0

  let well_separated_frac ?(tolerance = default_tolerance) ~length f1 f2 =
    gap_sign ~scale:2 tolerance ~length f1 f2 > 0
end
