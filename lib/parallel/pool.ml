(* Chunked work pool over OCaml 5 domains.

   Work items are claimed in contiguous chunks off a single atomic cursor:
   cheap enough for fine-grained items, and preserving enough locality that
   per-item results land in disjoint cache lines most of the time.  The
   calling domain participates as a worker, so [domains = 1] runs entirely
   in the caller with no spawns.

   Two sanitizer hooks thread through everything here:

   - every primitive carries [Race] happens-before edges (fork on spawn,
     join on join, release/acquire on the claim cursor and the winner
     slot), so unsynchronized shared state touched by work items shows up
     as a race when the detector is on and costs one predictable branch
     when it is off;

   - a [Replay seed] schedule mode serializes every combinator on the
     calling domain while still giving each work item its own logical
     thread, in seeded permutation order.  The vector clocks see only the
     fork/join structure — not the accidental serial order — so a race
     that any interleaving could expose is found deterministically, and
     small task sets can be shaken through all n! orders. *)

module Race = Pmi_diag.Race
module Obs = Pmi_obs.Obs

let env_domains = "PMI_DOMAINS"

let default_domains () =
  match Sys.getenv_opt env_domains with
  | Some s -> (try max 1 (int_of_string (String.trim s)) with Failure _ -> 1)
  | None -> max 1 (min 8 (Domain.recommended_domain_count ()))

(* ------------------------------------------------------------------ *)
(* Schedules                                                           *)

type schedule =
  | Os
  | Replay of int

let schedule_mode = Atomic.make Os

let set_schedule s = Atomic.set schedule_mode s
let current_schedule () = Atomic.get schedule_mode

let factorial n =
  let rec go acc i = if i > n then acc else go (acc * i) (i + 1) in
  go 1 2

let permutations n = if n <= 20 then max 1 (factorial n) else max_int

let permutation ~seed n =
  if n <= 1 then Array.init n (fun i -> i)
  else if n <= 20 then begin
    (* Lehmer decode: seeds 0 .. n!-1 hit every permutation once. *)
    let total = factorial n in
    let code = ((seed mod total) + total) mod total in
    let avail = Array.init n (fun i -> i) in
    let out = Array.make n 0 in
    let code = ref code in
    for pos = 0 to n - 1 do
      let remaining = n - pos in
      let f = factorial (remaining - 1) in
      let idx = !code / f in
      code := !code mod f;
      out.(pos) <- avail.(idx);
      Array.blit avail (idx + 1) avail idx (remaining - idx - 1)
    done;
    out
  end
  else begin
    (* Too many orders to enumerate: seeded Fisher-Yates. *)
    let out = Array.init n (fun i -> i) in
    let st = ref ((seed * 25214903917) + 11) in
    let next_below bound =
      st := (!st * 25214903917) + 11;
      (!st lsr 17) mod bound
    in
    for i = n - 1 downto 1 do
      let j = next_below (i + 1) in
      let tmp = out.(i) in
      out.(i) <- out.(j);
      out.(j) <- tmp
    done;
    out
  end

(* Serial replay driver: fork a logical thread per item (in index order,
   so thread identities are deterministic), run the items in permutation
   order, join everything.  If an item raises, the rest still run — same
   contract as the parallel path — and the first exception is re-raised. *)
let replay_run ~seed ~n body =
  let handles = Array.init n (fun _ -> Race.fork ()) in
  let order = permutation ~seed n in
  let error = ref None in
  Array.iter
    (fun i ->
       Race.with_thread handles.(i) (fun () ->
           try body i with
           | e -> if !error = None then error := Some e))
    order;
  Array.iter Race.join handles;
  match !error with
  | Some e -> raise e
  | None -> ()

(* ------------------------------------------------------------------ *)
(* The parallel path                                                   *)

let chunk_for ~items ~domains =
  (* Aim for ~8 chunks per worker so stragglers rebalance, chunk >= 1. *)
  max 1 (items / (8 * domains))

let run_workers ~domains body =
  if domains <= 1 then body ()
  else begin
    let error = Atomic.make None in
    let handles = Array.init domains (fun _ -> Race.fork ~name:"worker" ()) in
    let guarded i () =
      Race.with_thread handles.(i) (fun () ->
          Obs.span ~args:[ ("worker", Obs.Int i) ] "pool.worker" (fun () ->
              try body () with
              | e -> ignore (Atomic.compare_and_set error None (Some e))))
    in
    let spawned =
      Array.init (domains - 1) (fun i -> Domain.spawn (guarded (i + 1)))
    in
    guarded 0 ();
    Array.iter Domain.join spawned;
    Array.iter Race.join handles;
    match Atomic.get error with
    | Some e -> raise e
    | None -> ()
  end

let parallel_for ?domains ~n f =
  if n <= 0 then ()
  else
    match current_schedule () with
    | Replay seed -> replay_run ~seed ~n f
    | Os ->
      let domains =
        match domains with Some d -> max 1 d | None -> default_domains ()
      in
      let domains = min domains (max 1 n) in
      if domains = 1 then
        for i = 0 to n - 1 do f i done
      else begin
        let chunk = chunk_for ~items:n ~domains in
        let next = Race.tracked_atomic ~name:"pool.cursor" 0 in
        Obs.span
          ~args:[ ("items", Obs.Int n); ("domains", Obs.Int domains) ]
          "pool.parallel_for"
          (fun () ->
             run_workers ~domains (fun () ->
                 let rec loop () =
                   let start = Race.afetch_add next chunk in
                   if start < n then begin
                     let stop = min n (start + chunk) in
                     for i = start to stop - 1 do f i done;
                     loop ()
                   end
                 in
                 loop ()))
      end

let map_array ?domains f arr =
  let n = Array.length arr in
  if n = 0 then [||]
  else begin
    let results = Array.make n None in
    parallel_for ?domains ~n (fun i -> results.(i) <- Some (f arr.(i)));
    Array.map (function Some v -> v | None -> assert false) results
  end

let map_list ?domains f xs =
  Array.to_list (map_array ?domains f (Array.of_list xs))

let find_first_index ?domains p arr =
  let n = Array.length arr in
  if n = 0 then None
  else begin
    let best = Race.tracked_atomic ~name:"pool.find_first.best" max_int in
    let rec lower i =
      let b = Race.aget best in
      if i < b && not (Race.acas best b i) then lower i
    in
    parallel_for ?domains ~n (fun i ->
        (* Indices at or past the best hit so far cannot improve it. *)
        if i < Race.aget best && p arr.(i) then lower i);
    match Race.aget best with
    | i when i = max_int -> None
    | i -> Some i
  end
