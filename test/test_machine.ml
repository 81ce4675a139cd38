open Pmi_isa
open Pmi_portmap
open Pmi_machine
module Rat = Pmi_numeric.Rat

let rat = Alcotest.testable Rat.pp Rat.equal

let catalog = Catalog.zen_plus ()
let machine = Machine.create ~config:Machine.quiet_config catalog
let noisy = Machine.create catalog

let first bucket = List.hd (Catalog.bucket catalog bucket)
let nth bucket n = List.nth (Catalog.bucket catalog bucket) n

let add_rr = first "blocking/alu"       (* add <GPR[16]>... 4 ALU ports *)
let vpor = first "blocking/vec-logic"
let vpslld =
  (* The immediate-shift form is a 1-port blocking instruction. *)
  first "blocking/vec-shift"
let imul = first "blocking/scalar-mul"
let vpmuldq = first "blocking/vec-mul-hard"
let vmovd = first "blocking/vec-to-gpr"
let vmovq = nth "blocking/vec-to-gpr" 1
let load_mov = first "blocking/load"
let vminps = List.nth (Catalog.bucket catalog "blocking/fp-mul-cmp") 2
let vaddps = first "blocking/fp-add"
let vbroadcastss =
  List.find (fun s -> Scheme.mnemonic s = "vbroadcastss")
    (Catalog.bucket catalog "blocking/shuffle")
let store_mov32 =
  List.find (fun s -> Scheme.memory_writes s = [ 32 ])
    (Catalog.bucket catalog "store/scalar")
let vmovapd_store = first "store/vec"
let nop = first "excluded/zero-uop"
let fma = first "unstable-pair/fma-rr"
let bsf = first "microcoded"
let vdiv = first "excluded/fp-slow"

let tp e = Machine.true_inverse machine e
let exp1 s = Experiment.singleton s
let mix pairs = Experiment.of_counts pairs

(* ------------------------------------------------------------------ *)
(* Baseline port behaviour                                             *)
(* ------------------------------------------------------------------ *)

let test_single_instruction_throughputs () =
  (* A 4-port ALU op streams at 4/cycle; frontend allows 5/cycle. *)
  Alcotest.check rat "add" (Rat.of_ints 1 4) (tp (exp1 add_rr));
  Alcotest.check rat "vpor" (Rat.of_ints 1 4) (tp (exp1 vpor));
  Alcotest.check rat "vpslld" Rat.one (tp (exp1 vpslld));
  Alcotest.check rat "load" (Rat.of_ints 1 2) (tp (exp1 load_mov));
  Alcotest.check rat "vminps" (Rat.of_ints 1 2) (tp (exp1 vminps));
  Alcotest.check rat "vaddps" (Rat.of_ints 1 2) (tp (exp1 vaddps))

let test_frontend_limit () =
  (* Five 4-port adds would only need 1.25 cycles of ALU time but retire
     at 5/cycle; ten need 2.5 cycles either way. *)
  Alcotest.check rat "5 adds" (Rat.of_ints 5 4)
    (tp (Experiment.replicate 5 add_rr));
  (* Mixing ALU and FP work: 4 adds + 4 vpors = 8 instrs, ports give 1.0,
     frontend gives 8/5 = 1.6. *)
  Alcotest.check rat "frontend bound" (Rat.of_ints 8 5)
    (tp (mix [ (add_rr, 4); (vpor, 4) ]))

let test_nop_free () =
  Alcotest.check rat "nop streams at 5 IPC" (Rat.of_ints 1 5) (tp (exp1 nop));
  Alcotest.check rat "10 nops" (Rat.of_int 2) (tp (Experiment.replicate 10 nop));
  Alcotest.(check int) "nop still retires" 1
    (Machine.retired_ops machine (exp1 nop))

(* ------------------------------------------------------------------ *)
(* §4.1: the storing-mov evidence chain                                *)
(* ------------------------------------------------------------------ *)

let test_store_mov_evidence () =
  (* "A store-mov together with four simple register-additions takes 1.25
     cycles" — its data µop is restricted to the four ALU ports. *)
  Alcotest.check rat "store-mov + 4 adds" (Rat.of_ints 5 4)
    (tp (mix [ (add_rr, 4); (store_mov32, 1) ]));
  (* "A vmovapd store together with the four additions takes only 1.0" *)
  Alcotest.check rat "vmovapd + 4 adds" Rat.one
    (tp (mix [ (add_rr, 4); (vmovapd_store, 1) ]));
  (* "A storing mov with a storing vmovapd leads to 2 cycles" — both need
     the store port. *)
  Alcotest.check rat "store-mov + vmovapd" (Rat.of_int 2)
    (tp (mix [ (store_mov32, 1); (vmovapd_store, 1) ]))

let test_macro_op_counter () =
  (* The counter reports macro-ops: memory µops are fused (§4.1.1). *)
  let add_load = first "regular/scalar-load" in
  Alcotest.(check int) "add r,m = 1 macro-op" 1
    (Machine.retired_ops machine (exp1 add_load));
  let ymm = first "regular/ymm" in
  Alcotest.(check int) "ymm = 2 macro-ops" 2 (Machine.retired_ops machine (exp1 ymm));
  Alcotest.(check int) "bsf = 8 macro-ops" 8 (Machine.retired_ops machine (exp1 bsf));
  Alcotest.(check int) "mixed" 12
    (Machine.retired_ops machine (mix [ (add_rr, 2); (ymm, 1); (bsf, 1) ]))

(* ------------------------------------------------------------------ *)
(* §4.3 quirks                                                         *)
(* ------------------------------------------------------------------ *)

let test_imul_anomaly () =
  (* imul alone is an ordinary 1-port instruction... *)
  Alcotest.check rat "imul alone" Rat.one (tp (exp1 imul));
  (* ...but 4 adds + 1 imul measure ~1.5 cycles, not the 1.0 or 1.25 the
     port-mapping model would allow (§4.3). *)
  Alcotest.check rat "4 add + imul" (Rat.of_ints 3 2)
    (tp (mix [ (add_rr, 4); (imul, 1) ]))

let test_vpmuldq_slow () =
  (* Slightly slower than its single port implies: 1.05 cycles. *)
  Alcotest.check rat "vpmuldq alone" (Rat.of_ints 21 20) (tp (exp1 vpmuldq));
  (* Two of them are additive (same kind)... *)
  Alcotest.check rat "2 vpmuldq" (Rat.of_ints 21 10)
    (tp (Experiment.replicate 2 vpmuldq))

let test_vmovd_inconsistent () =
  (* Alone (or with its own family): an ordinary port-2 µop. *)
  Alcotest.check rat "vmovd alone" Rat.one (tp (exp1 vmovd));
  Alcotest.check rat "vmovd + vmovq additive" (Rat.of_int 2)
    (tp (mix [ (vmovd, 1); (vmovq, 1) ]));
  (* With a port-2 user from another family, the µop spreads over {1,2}:
     the pair no longer behaves additively. *)
  Alcotest.check rat "vmovd + vpslld NOT additive" Rat.one
    (tp (mix [ (vmovd, 1); (vpslld, 1) ]))

let test_fma_contradictions () =
  (* fma alone looks like a clean 2-port instruction... *)
  Alcotest.check rat "fma alone" (Rat.of_ints 1 2) (tp (exp1 fma));
  (* ...additive with the FP-multiply class... *)
  Alcotest.check rat "fma + vminps" Rat.one (tp (mix [ (fma, 1); (vminps, 1) ]));
  (* ...but ALSO additive with the FP-add class (data lines of port 2),
     while vminps and vaddps are NOT additive with each other: the
     contradiction of §4.2. *)
  Alcotest.check rat "fma + vaddps" Rat.one (tp (mix [ (fma, 1); (vaddps, 1) ]));
  Alcotest.check rat "vminps + vaddps" (Rat.of_ints 1 2)
    (tp (mix [ (vminps, 1); (vaddps, 1) ]));
  Alcotest.check rat "fma + vbroadcastss" Rat.one
    (tp (mix [ (fma, 1); (vbroadcastss, 1) ]))

let test_microcode_stall () =
  (* bsf: 8 ALU µops -> 2 cycles of port work, plus an 8-op MS stall at
     4 ops/cycle -> 4 cycles total. *)
  Alcotest.check rat "bsf alone" (Rat.of_int 4) (tp (exp1 bsf));
  (* Surplus measured against flooded ALU ports is inflated by the stall:
     32 adds alone take 8 cycles; with bsf, 10 port cycles + 2 stall. *)
  Alcotest.check rat "32 adds" (Rat.of_int 8) (tp (Experiment.replicate 32 add_rr));
  Alcotest.check rat "32 adds + bsf" (Rat.of_int 12)
    (tp (mix [ (add_rr, 32); (bsf, 1) ]))

let test_divider_occupancy () =
  (* Non-pipelined divider: 4 cycles per instance on one port. *)
  Alcotest.check rat "div alone" (Rat.of_int 4) (tp (exp1 vdiv));
  Alcotest.check rat "2 divs" (Rat.of_int 8) (tp (Experiment.replicate 2 vdiv))

(* ------------------------------------------------------------------ *)
(* Intel-style counters (for the uops.info reference algorithm)        *)
(* ------------------------------------------------------------------ *)

let test_true_uop_count () =
  Alcotest.(check int) "add" 1 (Machine.true_uop_count machine (exp1 add_rr));
  Alcotest.(check int) "store-mov" 2
    (Machine.true_uop_count machine (exp1 store_mov32));
  let rmw = first "regular/rmw" in
  (* 16-bit rmw in bucket order: ALU + store + narrow AGU = 3 µops. *)
  Alcotest.(check bool) "rmw has more µops than its macro-op" true
    (Machine.true_uop_count machine (exp1 rmw)
     > Machine.retired_ops machine (exp1 rmw))

let test_port_uops_spread () =
  (* A lone 4-port add round-robins over the whole ALU cluster: all four
     counters tick, none of the others do. *)
  let per_port = Machine.port_uops machine (Experiment.replicate 8 add_rr) in
  Array.iteri
    (fun k mass ->
       let expected_active = List.mem k [ 6; 7; 8; 9 ] in
       Alcotest.(check bool)
         (Printf.sprintf "port %d %s" k (if expected_active then "busy" else "idle"))
         expected_active
         (Rat.sign mass > 0))
    per_port;
  (* Counter totals equal the µop count. *)
  let total = Array.fold_left Rat.add Rat.zero per_port in
  Alcotest.check rat "mass conserved" (Rat.of_int 8) total

let test_port_uops_blocking_shape () =
  (* Figure 3(a) on simulated counters: 3 blocking 1-port µops plus the
     µop of the instruction under test that cannot evade. *)
  let e = mix [ (vpslld, 3); (vbroadcastss, 1) ] in
  let per_port = Machine.port_uops machine e in
  (* vpslld floods port 2; vbroadcastss {1,2} evades to port 1. *)
  Alcotest.check rat "port 2 holds the blockers" (Rat.of_int 3) per_port.(2);
  Alcotest.check rat "port 1 holds the evader" Rat.one per_port.(1)

(* ------------------------------------------------------------------ *)
(* Noise model                                                         *)
(* ------------------------------------------------------------------ *)

let test_measurement_deterministic () =
  let e = mix [ (add_rr, 4); (vpor, 2) ] in
  let run1 = Machine.samples noisy ~reps:11 e in
  let run2 = Machine.samples noisy ~reps:11 e in
  Alcotest.(check (float 0.0)) "same rep, same value" run1.(3) run2.(3);
  Alcotest.(check bool) "different rep jitters" true (run1.(3) <> run1.(4));
  (* Sample [rep] is the noise-free value jittered by [Noise.jitter ~rep],
     whatever the number of repetitions asked for. *)
  let base = Rat.to_float (Machine.true_inverse noisy e) in
  let cfg = Machine.config noisy in
  let expected rep =
    base
    *. (1.0
        +. Noise.jitter ~seed:cfg.Machine.seed ~key:(Noise.hash_experiment e)
             ~rep ~amplitude:cfg.Machine.noise_amplitude)
  in
  List.iter
    (fun rep ->
       Alcotest.(check (float 0.0)) (Printf.sprintf "rep %d" rep)
         (expected rep) run1.(rep))
    [ 0; 3; 4; 10 ];
  let short = Machine.samples noisy ~reps:5 e in
  Alcotest.(check (array (float 0.0))) "a prefix of the 11-rep run"
    (Array.sub run1 0 5) short;
  let before = Machine.measurement_count noisy in
  ignore (Machine.samples noisy ~reps:11 e);
  Alcotest.(check int) "11 measurements counted" (before + 11)
    (Machine.measurement_count noisy)

let test_noise_tiers () =
  let within_rel pct value reference =
    Float.abs (value -. reference) <= (pct *. reference)
  in
  let stable = mix [ (add_rr, 4); (vpor, 2) ] in
  let t0 = Rat.to_float (Machine.true_inverse noisy stable) in
  let m = (Machine.samples noisy ~reps:2 stable).(1) in
  Alcotest.(check bool) "stable within 0.5%" true (within_rel 0.005 m t0);
  (* Unstable pairing: wide jitter when mixed, tight alone. *)
  let cmov = first "unstable-pair/cmov-rr" in
  let alone = (Machine.samples noisy ~reps:2 (exp1 cmov)).(1) in
  let t1 = Rat.to_float (Machine.true_inverse noisy (exp1 cmov)) in
  Alcotest.(check bool) "unstable scheme tight alone" true
    (within_rel 0.005 alone t1);
  (* The unreliable tier applies even alone. *)
  let imm64 = first "excluded/mov64-imm" in
  let samples = Machine.samples noisy ~reps:11 (exp1 imm64) in
  let t2 = Rat.to_float (Machine.true_inverse noisy (exp1 imm64)) in
  let spread =
    Array.fold_left Float.max neg_infinity samples
    -. Array.fold_left Float.min infinity samples
  in
  Alcotest.(check bool) "imm64 spread is wide" true (spread > 0.05 *. t2)

let test_harness_median_and_cache () =
  let harness = Pmi_measure.Harness.create noisy in
  let e = mix [ (add_rr, 4); (imul, 1) ] in
  let s1 = Pmi_measure.Harness.run harness e in
  let s2 = Pmi_measure.Harness.run harness e in
  let cycles = Pmi_measure.Harness.sample_cycles in
  Alcotest.check rat "cached" (cycles s1) (cycles s2);
  Alcotest.(check int) "one benchmark" 1 (Pmi_measure.Harness.benchmarks_run harness);
  (* Median of a stable measurement lands within ε of the truth. *)
  let truth = Rat.to_float (Machine.true_inverse noisy e) in
  let measured = Rat.to_float (cycles s1) in
  Alcotest.(check bool) "median near truth" true
    (Float.abs (measured -. truth) < 0.02 *. float_of_int (Experiment.length e));
  Alcotest.(check int) "retired ops" 5 s1.Pmi_measure.Harness.retired_ops

let test_compare_epsilon () =
  let open Pmi_measure.Harness.Compare in
  Alcotest.(check bool) "equal within ε" true
    (cpi_equal ~length:5 (Rat.of_ints 100 100) (Rat.of_ints 109 100));
  Alcotest.(check bool) "unequal beyond ε" false
    (cpi_equal ~length:5 (Rat.of_ints 100 100) (Rat.of_ints 111 100));
  Alcotest.(check bool) "separated" true
    (well_separated ~length:1 Rat.one (Rat.of_ints 3 2));
  Alcotest.(check bool) "not separated" false
    (well_separated ~length:1 Rat.one (Rat.of_ints 103 100))

(* The native-int comparisons against the [Rat] ones they shortcut.  Part
   magnitudes come in classes: small, where every product fits a native
   int; 2^17 to 2^21 and lengths past 2^10, on either side of the integer
   guard that picks the native test (parts below 2^18 to 2^21 for these
   ε); 2^30, where the cross products overflow 63 bits; and near
   max_int.  A third of the cases put the second value exactly at ε·|e|
   or 2ε·|e| from the first, where the verdicts flip. *)
let frac_case_gen =
  let open QCheck2.Gen in
  let* bound =
    oneofl
      [ 1_000; 1 lsl 17; 1 lsl 18; 1 lsl 19; 1 lsl 20; 1 lsl 21; 1 lsl 30;
        max_int / 4 ]
  in
  let* n1 = int_range (-bound) bound
  and* d1 = int_range 1 bound
  and* ep = int_range 0 50
  and* eq = int_range 1 1000
  and* length = oneof [ int_range 0 20; int_range 1000 1050 ]
  and* boundary = oneofl [ None; None; Some 1; Some 2; Some (-1); Some (-2) ]
  and* n2 = int_range (-bound) bound
  and* d2 = int_range 1 bound in
  let f2, boundary =
    match boundary with
    | Some k when bound <= 1 lsl 30 ->
      (* n1/d1 + k·ε·length, built exactly: fits for these classes. *)
      (((n1 * eq) + (k * ep * length * d1), d1 * eq), boundary)
    | _ -> ((n2, d2), None)
  in
  return (Rat.of_ints ep eq, length, (n1, d1), f2, boundary)

let prop_frac_compare_agrees =
  QCheck2.Test.make ~name:"native-int ε tests = Rat ε tests" ~count:2000
    ~print:(fun (epsilon, length, (n1, d1), (n2, d2), _) ->
        Printf.sprintf "ε=%s |e|=%d %d/%d vs %d/%d" (Rat.to_string epsilon)
          length n1 d1 n2 d2)
    frac_case_gen
    (fun (epsilon, length, ((n1, d1) as f1), ((n2, d2) as f2), boundary) ->
       let open Pmi_measure.Harness.Compare in
       let t1 = Rat.of_ints n1 d1 and t2 = Rat.of_ints n2 d2 in
       let tolerance = tolerance epsilon in
       let eq = cpi_equal_frac ~tolerance ~length f1 f2 in
       let sep = well_separated_frac ~tolerance ~length f1 f2 in
       eq = cpi_equal ~epsilon ~length t1 t2
       && sep = well_separated ~epsilon ~length t1 t2
       &&
       match boundary with
       | Some (1 | -1) -> eq
       | Some (2 | -2) -> not sep
       | _ -> true)

let test_frac_compare_overflow () =
  let open Pmi_measure.Harness.Compare in
  let big = max_int / 2 in
  (* Equal values whose cross products overflow: still equal. *)
  Alcotest.(check bool) "huge equal" true
    (cpi_equal_frac ~length:1 (big, big - 1) (big, big - 1));
  (* 1/big apart: within ε·1, not separated. *)
  Alcotest.(check bool) "huge close" true
    (cpi_equal_frac ~length:1 (big, big - 1) (big - 1, big - 2));
  (* Wrapped products would flip these verdicts. *)
  Alcotest.(check bool) "huge far" false
    (cpi_equal_frac ~length:1 (big, 1) (big - 1, 2));
  Alcotest.(check bool) "huge separated" true
    (well_separated_frac ~length:3 (big, 3) (-big, 7));
  (* An ε whose denominator does not fit an int: every test runs on
     [Rat], and still agrees with it. *)
  let module Bigint = Pmi_numeric.Bigint in
  let epsilon =
    Rat.make Bigint.one (Bigint.of_string "100000000000000000000000")
  in
  let tolerance = tolerance epsilon in
  List.iter
    (fun ((n1, d1), (n2, d2)) ->
       let t1 = Rat.of_ints n1 d1 and t2 = Rat.of_ints n2 d2 in
       Alcotest.(check bool) "Rat ε, equal"
         (cpi_equal ~epsilon ~length:2 t1 t2)
         (cpi_equal_frac ~tolerance ~length:2 (n1, d1) (n2, d2));
       Alcotest.(check bool) "Rat ε, separated"
         (well_separated ~epsilon ~length:2 t1 t2)
         (well_separated_frac ~tolerance ~length:2 (n1, d1) (n2, d2)))
    [ ((1, 3), (1, 3)); ((1, 3), (2, 6)); ((1, 3), (1, 4));
      ((big, 3), (7, 2)) ];
  Alcotest.(check bool) "Rat ε, distinct values differ" false
    (cpi_equal_frac ~tolerance ~length:1 (1, 3) (1, 4))

let prop_true_inverse_at_least_frontend =
  QCheck2.Test.make ~name:"tp⁻¹ ≥ |e|/5 always" ~count:200
    QCheck2.Gen.(list_size (int_range 1 5) (int_range 0 (Catalog.size catalog - 1)))
    (fun ids ->
       let e = Experiment.of_list (List.map (Catalog.find catalog) ids) in
       Rat.compare (Machine.true_inverse machine e)
         (Rat.of_ints (Experiment.length e) 5)
       >= 0)

(* The simulator's throughput goes through Oracle's sparse kernel; the
   reference here is Throughput's naive lattice scan over the hidden
   mapping, which shares no code with it.  Without quirks the two models
   differ only by the frontend bound. *)
let quirk_free_ids =
  Array.of_list
    (List.filter_map
       (fun s ->
          if (Scheme.klass s).Iclass.quirk = None then Some (Scheme.id s)
          else None)
       (Array.to_list (Catalog.schemes catalog)))

let prop_true_inverse_matches_reference =
  QCheck2.Test.make ~name:"quirk-free tp⁻¹ = max (naive scan) (|e|/r_max)"
    ~count:300
    QCheck2.Gen.(
      list_size (int_range 1 5)
        (map (Array.get quirk_free_ids)
           (int_range 0 (Array.length quirk_free_ids - 1))))
    (fun ids ->
       let e = Experiment.of_list (List.map (Catalog.find catalog) ids) in
       let reference =
         Rat.max
           (Throughput.inverse (Machine.ground_truth machine) e)
           (Rat.of_ints (Experiment.length e) (Machine.r_max machine))
       in
       Rat.equal (Machine.true_inverse machine e) reference)

let prop_retired_ops_additive =
  QCheck2.Test.make ~name:"retired ops are additive" ~count:200
    QCheck2.Gen.(pair
                   (list_size (int_range 1 4) (int_range 0 (Catalog.size catalog - 1)))
                   (list_size (int_range 1 4) (int_range 0 (Catalog.size catalog - 1))))
    (fun (ids1, ids2) ->
       let e1 = Experiment.of_list (List.map (Catalog.find catalog) ids1) in
       let e2 = Experiment.of_list (List.map (Catalog.find catalog) ids2) in
       Machine.retired_ops machine (Experiment.union e1 e2)
       = Machine.retired_ops machine e1 + Machine.retired_ops machine e2)

(* ------------------------------------------------------------------ *)
(* The native measurement path against the code it replaced            *)
(* ------------------------------------------------------------------ *)

(* Stage 2's pair test on ticks over a precision P against the [Rat]
   test.  A third of the cases put the pair exactly 2ε from the sum
   (ε = e/P, so 2ε·P = 2e ticks: equal) or one tick further (not). *)
let prop_tick_pair_verdict =
  QCheck2.Test.make ~name:"tick pair verdict = Rat cpi_equal" ~count:2000
    QCheck2.Gen.(
      let* p = oneofl [ 1; 7; 1000; 4096 ] in
      let* ti = int_range 0 (50 * p) and* tj = int_range 0 (50 * p) in
      let* e = int_range 0 (p / 10 + 1) in
      let* shift =
        oneof
          [ map (fun d -> `Free d) (int_range (-(8 * p)) (8 * p));
            oneofl [ `Edge 0; `Edge 1; `Edge (-1) ] ]
      in
      return (p, ti, tj, e, shift))
    (fun (p, ti, tj, e, shift) ->
       let open Pmi_measure.Harness.Compare in
       let epsilon = Rat.of_ints e p in
       let sum = ti + tj in
       let pair, edge =
         match shift with
         | `Free d -> (max 0 (sum + d), None)
         | `Edge k ->
           let off = (2 * e) + abs k in
           ((if sum >= off then sum - off else sum + off), Some (k = 0))
       in
       let native =
         cpi_equal_frac ~tolerance:(tolerance epsilon) ~length:2 (pair, p)
           (sum, p)
       in
       let exact =
         cpi_equal ~epsilon ~length:2 (Rat.of_ints pair p)
           (Rat.add (Rat.of_ints ti p) (Rat.of_ints tj p))
       in
       native = exact && match edge with Some v -> native = v | None -> true)

(* [Experiment.of_counts] as it was, on a table per experiment. *)
let of_counts_reference pairs =
  let tbl = Hashtbl.create 8 in
  List.iter
    (fun (s, n) ->
       if n > 0 then begin
         let prev = try Hashtbl.find tbl (Scheme.id s) with Not_found -> (s, 0) in
         Hashtbl.replace tbl (Scheme.id s) (s, snd prev + n)
       end)
    pairs;
  Hashtbl.fold (fun _ pair acc -> pair :: acc) tbl []
  |> List.sort (fun (a, _) (b, _) -> Scheme.compare a b)

let prop_of_counts_reference =
  QCheck2.Test.make ~name:"of_counts = table-based reference" ~count:1000
    QCheck2.Gen.(
      list_size (int_range 0 10) (pair (int_range 0 7) (int_range (-2) 4)))
    (fun items ->
       let pairs =
         List.map (fun (i, n) -> (Catalog.find catalog (i * 37), n)) items
       in
       List.equal
         (fun (s, n) (s', n') -> s == s' && n = n')
         (Experiment.to_counts (Experiment.of_counts pairs))
         (of_counts_reference pairs))

(* The simulator as it was: list-built masses, recomputed per call, and
   scored by the naive bottleneck formula, which shares no code with the
   kernel the simulator calls. *)
let reference_true_inverse m experiment =
  let profile = Machine.profile m in
  let scale = 20 in
  let ports_of = profile.Profile.ports_of_base in
  let quirk_of s = (Scheme.klass s).Iclass.quirk in
  let touches ports s =
    List.exists
      (fun (ps, _) -> not (Portset.is_empty (Portset.inter ps ports)))
      (Ground_truth.usage_for profile (Scheme.klass s).Iclass.structure)
  in
  let fma_ports =
    Portset.union profile.Profile.fma_shadow (ports_of Iclass.Fp_add)
  in
  let cross_ports =
    Portset.union (ports_of Iclass.Shuffle) (ports_of Iclass.Vec_to_gpr)
  in
  let acc = ref [] in
  let bump ports mass =
    if mass <> 0 && not (Portset.is_empty ports) then begin
      let mask = Portset.to_mask ports in
      let x = try List.assoc mask !acc with Not_found -> 0 in
      acc := (mask, x + mass) :: List.remove_assoc mask !acc
    end
  in
  let paired scheme quirk ports =
    Experiment.exists
      (fun s _ -> (not (Scheme.equal s scheme)) && quirk_of s <> Some quirk
                  && touches ports s)
      experiment
  in
  Experiment.fold
    (fun scheme count () ->
       let { Iclass.structure; quirk } = Scheme.klass scheme in
       let usage = Ground_truth.usage_for profile structure in
       let per_uop =
         if quirk = Some Iclass.Div_slow then
           scale * profile.Profile.div_occupancy
         else scale
       in
       List.iter
         (fun (ports, n) ->
            let ports =
              if quirk = Some Iclass.Gpr_cross
              && Portset.equal ports (ports_of Iclass.Vec_to_gpr)
              && paired scheme Iclass.Gpr_cross cross_ports
              then cross_ports
              else ports
            in
            bump ports (per_uop * n * count))
         usage;
       match quirk with
       | Some Iclass.Mul_anomaly -> bump (ports_of Iclass.Alu) (scale * count)
       | Some Iclass.Vec_mul_slow -> bump (ports_of Iclass.Vec_mul_hard) count
       | Some Iclass.Fma_lines when paired scheme Iclass.Fma_lines fma_ports ->
         let uops = List.fold_left (fun a (_, n) -> a + n) 0 usage in
         bump profile.Profile.fma_shadow (scale * uops * count)
       | _ -> ())
    experiment ();
  let ports =
    Rat.div
      (Throughput.of_masses
         (List.map (fun (mask, m) -> (Portset.of_mask mask, m)) !acc))
      (Rat.of_int scale)
  in
  let frontend =
    Rat.of_ints (Experiment.length experiment) profile.Profile.r_max
  in
  let stall =
    Experiment.fold
      (fun s count acc ->
         if quirk_of s = Some Iclass.Ms_microcode then begin
           let rate = profile.Profile.ms_ops_per_cycle in
           let macro = Iclass.macro_ops (Scheme.klass s).Iclass.structure in
           acc + (count * ((macro + rate - 1) / rate))
         end
         else acc)
      experiment 0
  in
  Rat.add (Rat.max ports frontend) (Rat.of_int stall)

(* Scheme ids by quirk class (quirk-free first), so that a generated
   experiment can draw from every class. *)
let quirk_classes =
  let classes = Hashtbl.create 16 in
  Array.iter
    (fun s ->
       let q = (Scheme.klass s).Iclass.quirk in
       Hashtbl.replace classes q
         (Scheme.id s :: Option.value ~default:[] (Hashtbl.find_opt classes q)))
    (Catalog.schemes catalog);
  Array.of_list
    (Hashtbl.fold (fun _ ids acc -> Array.of_list ids :: acc) classes [])

let quirky_experiment_gen =
  QCheck2.Gen.(
    let scheme =
      let* c = int_bound (Array.length quirk_classes - 1) in
      let ids = quirk_classes.(c) in
      map (Array.get ids) (int_bound (Array.length ids - 1))
    in
    map
      (fun items ->
         Experiment.of_counts
           (List.map (fun (id, n) -> (Catalog.find catalog id, n)) items))
      (list_size (int_range 1 5) (pair scheme (int_range 1 4))))

let golden =
  Machine.create ~config:Machine.quiet_config ~profile:Profile.golden_cove
    catalog

let prop_simulator_reference =
  QCheck2.Test.make ~name:"memoised simulator = list-built reference" ~count:600
    ~print:Experiment.to_string quirky_experiment_gen
    (fun e ->
       List.for_all
         (fun m ->
            let reference = reference_true_inverse m e in
            (* Twice: the second call reads the per-scheme memo. *)
            Rat.equal (Machine.true_inverse m e) reference
            && Rat.equal (Machine.true_inverse m e) reference
            && Int64.equal
                 (Int64.bits_of_float (Machine.samples m ~reps:3 e).(2))
                 (Int64.bits_of_float (Rat.to_float reference)))
         [ machine; golden ])

let test_quirk_classes_covered () =
  (* Every quirk and the quirk-free class draw: 11 classes. *)
  Alcotest.(check int) "quirk classes" 11 (Array.length quirk_classes)

let test_cache_identity () =
  let module H = Pmi_measure.Harness in
  let h = H.create noisy in
  let e = Experiment.of_list [ vpor; add_rr; imul ] in
  let permuted = Experiment.of_counts [ (imul, 1); (vpor, 1); (add_rr, 1) ] in
  let s1 = H.run h e in
  let measured = Machine.measurement_count noisy in
  let s2 = H.run h permuted in
  (* No record is kept per entry: a hit rebuilds the stored sample
     without measuring. *)
  Alcotest.(check bool) "hit returns the stored sample" true (s1 = s2);
  Alcotest.(check int) "hit measures nothing" measured
    (Machine.measurement_count noisy);
  Alcotest.(check int) "one entry" 1 (H.benchmarks_run h);
  Alcotest.(check int) "one miss" 1 (H.cache_misses h);
  Alcotest.(check int) "one hit" 1 (H.cache_hits h);
  Alcotest.check rat "cycles are ticks / precision"
    (Rat.of_ints s1.H.ticks H.precision) (H.cycles h e)

(* The harness's flat cache against a [Hashtbl] memo over the samples a
   second machine measures, with the harness's median and spread worked
   out here.  Each case asks about 10,000 experiments with over 8,192
   distinct ones, so the slot array (1,024 slots at first, at most half
   full) grows at least four times, and their entries (5 words plus 2
   per scheme) fill more than one of the arena's 2^16-word pages; repeats
   come back in a permuted order.  Each case runs at the default noise
   and at a fourfold jitter, whose spreads pass 2.0, where a spread's
   float bits use the top bit of a 63-bit int. *)
let prop_flat_cache_reference =
  let module H = Pmi_measure.Harness in
  let ids = Catalog.size catalog in
  let gen =
    QCheck2.Gen.(
      (* Shrinking 10,000-element lists would outlast any failure report. *)
      no_shrink
        (let scheme_count = pair (int_bound (ids - 1)) (int_range 1 40) in
         let* fresh =
           list_repeat 9000 (list_size (int_range 1 6) scheme_count)
         in
         let* repeats = list_repeat 1200 (int_bound 8999) in
         let* seed = int in
         return (fresh, repeats, seed)))
  in
  let agrees config asks =
    let h = H.create (Machine.create ~config catalog) in
    let reference = Machine.create ~config catalog in
    let memo = Hashtbl.create 16 in
    let hits = ref 0 and misses = ref 0 and words = ref 0 in
    let expected e =
      match Hashtbl.find_opt memo (Experiment.key e) with
      | Some s -> incr hits; s
      | None ->
        incr misses;
        words := !words + 5 + (2 * List.length (Experiment.to_counts e));
        let runs = Machine.samples reference ~reps:11 e in
        Array.sort Float.compare runs;
        let len = Experiment.length e in
        let s =
          { H.ticks = int_of_float (Float.round (runs.(5) *. 1000.));
            spread_cpi =
              (if len = 0 then 0.0
               else (runs.(10) -. runs.(0)) /. float_of_int len);
            retired_ops = Machine.retired_ops reference e }
        in
        Hashtbl.replace memo (Experiment.key e) s;
        s
    in
    let same =
      List.for_all
        (fun e ->
           let s = H.run h e and r = expected e in
           s.H.ticks = r.H.ticks
           && Int64.equal
                (Int64.bits_of_float s.H.spread_cpi)
                (Int64.bits_of_float r.H.spread_cpi)
           && s.H.retired_ops = r.H.retired_ops)
        asks
    in
    let widest =
      Hashtbl.fold (fun _ r acc -> max acc r.H.spread_cpi) memo 0.0
    in
    ( same
      && Hashtbl.length memo > 8192
      && !words > 1 lsl 16
      && H.cache_hits h = !hits
      && H.cache_misses h = !misses
      && H.benchmarks_run h = Hashtbl.length memo,
      widest )
  in
  QCheck2.Test.make ~name:"flat cache = Hashtbl memo" ~count:3
    ~print:(fun (_, _, seed) -> Printf.sprintf "seed %d" seed)
    gen
    (fun (fresh, repeats, seed) ->
       let fresh = Array.of_list fresh in
       let asks =
         List.map
           (fun items ->
              Experiment.of_counts
                (List.map (fun (id, n) -> (Catalog.find catalog id, n)) items))
           (Array.to_list fresh
            @ List.map (fun i -> List.rev fresh.(i)) repeats)
       in
       let quiet, _ =
         agrees { Machine.default_config with Machine.seed } asks
       in
       let loud, widest =
         agrees
           { Machine.seed; noise_amplitude = 4.0; unstable_amplitude = 4.0;
             unreliable_amplitude = 4.0 }
           asks
       in
       quiet && loud && widest > 2.0)

(* Experiments whose (id, count) pairs hash alike under the cache's
   polynomial hash (multiplier P = 1_000_003, pairs in ascending id): one
   more in the count of the first pair is one P² less in the count of the
   second, and one more in an id is the count P + 1 on the id below.
   The cache must still tell them apart, so each is a miss with its own
   sample. *)
let test_cache_collisions () =
  let module H = Pmi_measure.Harness in
  let p = 1_000_003 in
  let a, b =
    if Scheme.id vpor < Scheme.id add_rr then (vpor, add_rr) else (add_rr, vpor)
  in
  let below = Catalog.find catalog (Scheme.id a - 1) in
  let colliding =
    [ (mix [ (a, 3); (b, (p * p) + 7) ], mix [ (a, 4); (b, 7) ]);
      (mix [ (below, p + 1) ], mix [ (a, 1) ]) ]
  in
  List.iter
    (fun (e1, e2) ->
       let h = H.create noisy in
       let s1 = H.run h e1 and s2 = H.run h e2 in
       let fresh e = H.run (H.create noisy) e in
       Alcotest.(check int) "two entries" 2 (H.benchmarks_run h);
       Alcotest.(check int) "two misses" 2 (H.cache_misses h);
       Alcotest.(check bool) "first sample" true (s1 = fresh e1);
       Alcotest.(check bool) "second sample" true (s2 = fresh e2))
    colliding

let qsuite tests = List.map QCheck_alcotest.to_alcotest tests

let () =
  Alcotest.run "machine"
    [ ("ports",
       [ Alcotest.test_case "single-instruction throughput" `Quick
           test_single_instruction_throughputs;
         Alcotest.test_case "frontend limit" `Quick test_frontend_limit;
         Alcotest.test_case "nop/mov elimination" `Quick test_nop_free ]
       @ qsuite [ prop_true_inverse_matches_reference ]);
      ("counters",
       [ Alcotest.test_case "store-mov evidence (§4.1)" `Quick test_store_mov_evidence;
         Alcotest.test_case "macro-op counter (§4.1.1)" `Quick test_macro_op_counter ]);
      ("quirks",
       [ Alcotest.test_case "imul anomaly (§4.3)" `Quick test_imul_anomaly;
         Alcotest.test_case "vpmuldq slowdown (§4.3)" `Quick test_vpmuldq_slow;
         Alcotest.test_case "vmovd inconsistency (§4.3)" `Quick test_vmovd_inconsistent;
         Alcotest.test_case "fma contradictions (§4.2)" `Quick test_fma_contradictions;
         Alcotest.test_case "microcode stall (§4.4)" `Quick test_microcode_stall;
         Alcotest.test_case "divider occupancy (§4.1.2)" `Quick test_divider_occupancy ]);
      ("counters-intel",
       [ Alcotest.test_case "µop counter" `Quick test_true_uop_count;
         Alcotest.test_case "per-port spread" `Quick test_port_uops_spread;
         Alcotest.test_case "blocking shape" `Quick test_port_uops_blocking_shape ]);
      ("native",
       [ Alcotest.test_case "quirk classes" `Quick test_quirk_classes_covered;
         Alcotest.test_case "cache identity" `Quick test_cache_identity;
         Alcotest.test_case "colliding keys" `Quick test_cache_collisions ]
       @ qsuite
           [ prop_tick_pair_verdict; prop_of_counts_reference;
             prop_simulator_reference; prop_flat_cache_reference ]);
      ("noise",
       [ Alcotest.test_case "deterministic" `Quick test_measurement_deterministic;
         Alcotest.test_case "tiers" `Quick test_noise_tiers;
         Alcotest.test_case "harness median/cache" `Quick test_harness_median_and_cache;
         Alcotest.test_case "ε comparisons" `Quick test_compare_epsilon;
         Alcotest.test_case "native-int ε overflow" `Quick
           test_frac_compare_overflow ]
       @ qsuite
           [ prop_true_inverse_at_least_frontend; prop_retired_ops_additive;
             prop_frac_compare_agrees ]) ]
