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

(* The cache: one open-addressing table over an int arena, so an entry
   costs the GC no block of its own.  An entry is [hash; k; id_1; n_1;
   ...; id_k; n_k; ticks; spread bits; retired ops] at some offset o of
   the arena, which is word [o land page_mask] of page [o lsr page_bits].
   No entry straddles a page, so growing the arena copies nothing but the
   first page, which starts small and doubles up to the page size; later
   pages come at full size.  [slots] (a power of two, at most half full,
   linear probing) holds entry offsets, -1 where empty.  A probe hashes
   and compares straight off the experiment's (scheme, count) list, and a
   hit rebuilds its sample from the arena. *)
type table = {
  mutable slots : int array;
  mutable pages : int array array;
  mutable used : int; (* offset of the arena's next free word *)
  mutable entries : int;
}

let page_bits = 16
let page_size = 1 lsl page_bits
let page_mask = page_size - 1

let hash_counts counts =
  let rec go h = function
    | [] -> h
    | (s, n) :: rest ->
      go ((((h * 1_000_003) + Pmi_isa.Scheme.id s) * 1_000_003) + n) rest
  in
  let h = go 17 counts * 0x2545F4914F6CDD1D in
  (h lxor (h lsr 32)) land max_int

(* Does the entry at word [o] of [page] hold exactly [counts]? *)
let entry_matches page o counts =
  let stop = o + 2 + (2 * page.(o + 1)) in
  let rec go j = function
    | [] -> j = stop
    | (s, n) :: rest ->
      j < stop
      && page.(j) = Pmi_isa.Scheme.id s
      && page.(j + 1) = n
      && go (j + 2) rest
  in
  go (o + 2) counts

(* The slot of the entry holding [counts], or the empty slot where it
   goes. *)
let probe tbl h counts =
  let mask = Array.length tbl.slots - 1 in
  let rec go i =
    let o = tbl.slots.(i) in
    if o < 0 then i
    else
      let page = tbl.pages.(o lsr page_bits) and j = o land page_mask in
      if page.(j) = h && entry_matches page j counts then i
      else go ((i + 1) land mask)
  in
  go (h land mask)

(* A spread is never negative, so its float bits have the sign bit clear
   and survive the 63-bit int once the sign extension is masked off. *)
let bits_of_spread x = Int64.to_int (Int64.bits_of_float x)
let spread_of_bits b =
  Int64.float_of_bits (Int64.logand (Int64.of_int b) Int64.max_int)

let sample_at tbl o =
  let page = tbl.pages.(o lsr page_bits) and o = o land page_mask in
  let v = o + 2 + (2 * page.(o + 1)) in
  { ticks = page.(v);
    spread_cpi = spread_of_bits page.(v + 1);
    retired_ops = page.(v + 2) }

let grow_slots tbl =
  let slots = Array.make (2 * Array.length tbl.slots) (-1) in
  let mask = Array.length slots - 1 in
  let rec free i = if slots.(i) < 0 then i else free ((i + 1) land mask) in
  Array.iter
    (fun o ->
       if o >= 0 then
         let h = tbl.pages.(o lsr page_bits).(o land page_mask) in
         slots.(free (h land mask)) <- o)
    tbl.slots;
  tbl.slots <- slots

(* The offset of [size] free words that do not straddle a page. *)
let reserve tbl size =
  if size > page_size then invalid_arg "Harness.run: experiment too large";
  let p = tbl.used lsr page_bits and i = tbl.used land page_mask in
  if p < Array.length tbl.pages && i + size <= Array.length tbl.pages.(p)
  then tbl.used
  else if p = 0 && i + size <= page_size then begin
    let first = tbl.pages.(0) in
    let grown =
      Array.make (min page_size (max (i + size) (2 * Array.length first))) 0
    in
    Array.blit first 0 grown 0 i;
    tbl.pages.(0) <- grown;
    tbl.used
  end
  else begin
    let p = Array.length tbl.pages in
    tbl.pages <- Array.append tbl.pages [| Array.make page_size 0 |];
    p lsl page_bits
  end

let insert tbl slot h counts sample =
  let k = List.length counts in
  let size = 5 + (2 * k) in
  let offset = reserve tbl size in
  let a = tbl.pages.(offset lsr page_bits) and o = offset land page_mask in
  a.(o) <- h;
  a.(o + 1) <- k;
  let rec fill j = function
    | [] -> j
    | (s, n) :: rest ->
      a.(j) <- Pmi_isa.Scheme.id s;
      a.(j + 1) <- n;
      fill (j + 2) rest
  in
  let v = fill (o + 2) counts in
  a.(v) <- sample.ticks;
  a.(v + 1) <- bits_of_spread sample.spread_cpi;
  a.(v + 2) <- sample.retired_ops;
  tbl.used <- offset + size;
  tbl.slots.(slot) <- offset;
  tbl.entries <- tbl.entries + 1;
  if 2 * tbl.entries > Array.length tbl.slots then grow_slots tbl

(* The cache and the underlying machine are shared mutable state: a
   parallel sweep (the sanitizer's harness workload) hits [run] from
   several domains at once.  One harness-wide lock covers the
   probe/measure/insert sequence of [run], and [measure]'s benchmark —
   the mutex is real even with the sanitizer off, and doubles as the
   happens-before edge the race detector checks, which sees the table as
   one tracked location: read on a probe, written on an insert.
   Hit/miss counters are atomics so the accessors can read them without
   the lock. *)
type t = {
  machine : Machine.t;
  cache : table Race.tracked_ref;
  lock : Race.lock;
  hits : int Atomic.t;
  misses : int Atomic.t;
}

(* The paper's median-of-11, reported in millicycles. *)
let reps = 11
let precision = 1000

let create machine =
  { machine;
    cache =
      Race.tracked_ref ~name:"harness.cache"
        { slots = Array.make 1024 (-1); pages = [| Array.make 2048 0 |];
          used = 0; entries = 0 };
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

(* The sample of one benchmark, measured now. *)
let median_sample t experiment =
  let runs = Machine.samples t.machine ~reps experiment in
  sort_runs runs;
  let median = runs.(reps / 2) in
  let low = runs.(0) and high = runs.(reps - 1) in
  let len = Experiment.length experiment in
  let spread_cpi =
    if len = 0 then 0.0 else (high -. low) /. float_of_int len
  in
  let p = float_of_int precision in
  { ticks = int_of_float (Float.round (median *. p));
    spread_cpi;
    retired_ops = Machine.retired_ops t.machine experiment }

(* A benchmark run now, counted as a miss; the caller holds the lock. *)
let measure_locked t experiment =
  Atomic.incr t.misses;
  Obs.incr c_mem_misses;
  Obs.span "harness.measure" (fun () -> median_sample t experiment)

let measure t experiment =
  Race.with_lock t.lock (fun () -> measure_locked t experiment)

let run t experiment =
  Race.with_lock t.lock (fun () ->
      let counts = Experiment.to_counts experiment in
      let h = hash_counts counts in
      let tbl = Race.read t.cache in
      let slot = probe tbl h counts in
      let o = tbl.slots.(slot) in
      if o >= 0 then begin
        Atomic.incr t.hits;
        Obs.incr c_mem_hits;
        sample_at tbl o
      end
      else begin
        let sample = measure_locked t experiment in
        insert tbl slot h counts sample;
        Race.write t.cache tbl;
        sample
      end)

let sample_cycles sample = Rat.of_ints sample.ticks precision
let cycles t experiment = sample_cycles (run t experiment)

let retired_ops t experiment = (run t experiment).retired_ops

let cache_hits t = Atomic.get t.hits
let cache_misses t = Atomic.get t.misses
let benchmarks_run = cache_misses

module Compare = struct
  let default_epsilon = Rat.of_ints 2 100

  let cpi_equal ?(epsilon = default_epsilon) ~length t1 t2 =
    let bound = Rat.mul epsilon (Rat.of_int length) in
    Rat.compare (Rat.abs (Rat.sub t1 t2)) bound <= 0

  let well_separated ?(epsilon = default_epsilon) ~length t1 t2 =
    let bound = Rat.mul (Rat.of_int 2) (Rat.mul epsilon (Rat.of_int length)) in
    Rat.compare (Rat.abs (Rat.sub t1 t2)) bound > 0

  (* ε as the native tests read it, worked out once: its parts as ints,
     and the bits a fraction part may not have for the native test to be
     overflow-free under ε (all of them when a part of ε does not fit an
     int; the tests then run on [Rat]). *)
  type tolerance = {
    epsilon : Rat.t;
    en : int;
    ed : int;
    part_mask : int;
  }

  (* |scale| and |length| below 2^small_bits take the native test. *)
  let small_bits = 10
  let small_mask = lnot ((1 lsl small_bits) - 1)

  (* The bit length of a non-negative int; 63 for a negative one. *)
  let bits x =
    let rec go b = if b < 63 && x lsr b <> 0 then go (b + 1) else b in
    go 0

  let tolerance epsilon =
    match
      (Bigint.to_int_opt (Rat.num epsilon), Bigint.to_int_opt (Rat.den epsilon))
    with
    | Some en, Some ed ->
      (* Parts below 2^part_bits keep |n1·d2 − n2·d1|·ε_den (under
         2^(2·part_bits + 1 + bits ε_den)) and scale·ε_num·length·d1·d2
         (under 2^(2·small_bits + bits ε_num + 2·part_bits)) within 2^62. *)
      let part_bits =
        min ((61 - bits ed) / 2) ((62 - (2 * small_bits) - bits (abs en)) / 2)
      in
      let part_mask =
        if part_bits <= 0 then -1 else lnot ((1 lsl part_bits) - 1)
      in
      { epsilon; en; ed; part_mask }
    | _ -> { epsilon; en = 0; ed = 1; part_mask = -1 }

  let default_tolerance = tolerance default_epsilon

  (* The sign of |n1/d1 − n2/d2| − scale·ε·length, from the same test
     cross-multiplied onto native ints: |n1·d2 − n2·d1|·ε_den against
     scale·ε_num·length·d1·d2.  An integer guard on the magnitudes of
     the parts, the scale and the length bounds every intermediate
     product below 2^62, so none can overflow (a negative magnitude, from
     [min_int], fails the guard).  Otherwise the test runs on [Rat]. *)
  let gap_sign ~scale tol ~length (n1, d1) (n2, d2) =
    if
      d1 > 0 && d2 > 0
      && (abs n1 lor abs n2 lor d1 lor d2) land tol.part_mask = 0
      && (abs scale lor abs length) land small_mask = 0
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
