(* The telemetry layer: span nesting and containment, counter
   monotonicity, Chrome-trace well-formedness (checked with the library's
   own JSON parser), the disabled-mode zero-allocation guarantee, the
   merged per-domain export under schedule replay with the race detector
   watching, and the bench-regression gate against a fixture history.
   This suite is also wired as `dune build @obs`. *)

module Obs = Pmi_obs.Obs
module Json = Pmi_obs.Json
module Gate = Pmi_obs.Gate
module Race = Pmi_diag.Race
module Pool = Pmi_parallel.Pool

(* Run [f] with telemetry on, switch it off again, and return the
   retained events. *)
let with_obs f =
  Obs.enable ();
  (match f () with
   | () -> ()
   | exception e -> Obs.disable (); raise e);
  Obs.disable ();
  Obs.events ()

let span_named name evs =
  List.filter (fun (e : Obs.event) -> e.Obs.kind = Obs.Span && e.Obs.name = name) evs

let the_span name evs =
  match span_named name evs with
  | [ e ] -> e
  | es -> Alcotest.failf "expected exactly one %s span, got %d" name (List.length es)

(* ------------------------------------------------------------------ *)
(* Spans                                                               *)

let test_span_nesting () =
  let evs =
    with_obs (fun () ->
        Obs.span "outer" (fun () ->
            Obs.span "inner" (fun () -> ignore (Sys.opaque_identity 0))))
  in
  let outer = the_span "outer" evs in
  let inner = the_span "inner" evs in
  Alcotest.(check int) "outer depth" 0 outer.Obs.depth;
  Alcotest.(check int) "inner depth" 1 inner.Obs.depth;
  Alcotest.(check string) "outer path" "outer" outer.Obs.path;
  Alcotest.(check string) "inner path" "outer/inner" inner.Obs.path;
  (* Containment: the child's interval lies inside the parent's. *)
  Alcotest.(check bool) "inner starts after outer" true
    (inner.Obs.ts_ns >= outer.Obs.ts_ns);
  Alcotest.(check bool) "inner ends before outer" true
    (inner.Obs.ts_ns + inner.Obs.dur_ns
     <= outer.Obs.ts_ns + outer.Obs.dur_ns);
  (* Events come out sorted by start time. *)
  let ts = List.map (fun (e : Obs.event) -> e.Obs.ts_ns) evs in
  Alcotest.(check (list int)) "sorted by ts" (List.sort compare ts) ts

let test_span_exception_recorded () =
  let evs =
    with_obs (fun () ->
        try Obs.span "throws" (fun () -> failwith "boom")
        with Failure _ -> ())
  in
  let s = the_span "throws" evs in
  match List.assoc_opt "exn" s.Obs.args with
  | Some (Obs.Str msg) ->
    Alcotest.(check bool) "exception text recorded" true
      (String.length msg > 0)
  | _ -> Alcotest.fail "escaping exception not recorded as an arg"

let test_leave_args_appended () =
  let evs =
    with_obs (fun () ->
        let frame = Obs.enter ~args:[ ("in", Obs.Int 1) ] "both" in
        Obs.leave ~args:[ ("out", Obs.Int 2) ] frame)
  in
  let s = the_span "both" evs in
  Alcotest.(check bool) "enter arg kept" true
    (List.mem_assoc "in" s.Obs.args);
  Alcotest.(check bool) "leave arg appended" true
    (List.mem_assoc "out" s.Obs.args)

let test_open_spans_not_exported () =
  Obs.enable ();
  let _leaked = Obs.enter "never-closed" in
  Obs.span "closed" (fun () -> ());
  Obs.disable ();
  let evs = Obs.events () in
  Alcotest.(check int) "closed span exported" 1
    (List.length (span_named "closed" evs));
  Alcotest.(check int) "open span withheld" 0
    (List.length (span_named "never-closed" evs))

let test_ring_bounded () =
  Obs.set_ring_capacity 64;
  Obs.enable ();
  for i = 1 to 500 do
    Obs.span ~args:[ ("i", Obs.Int i) ] "ring-filler" (fun () -> ())
  done;
  Obs.disable ();
  let evs = Obs.events () in
  Obs.set_ring_capacity 65536;
  Alcotest.(check bool) "ring stays bounded" true (List.length evs <= 64);
  Alcotest.(check bool) "drops counted" true (Obs.dropped () >= 436);
  (* The ring keeps the newest events. *)
  match List.rev evs with
  | last :: _ ->
    (match List.assoc_opt "i" last.Obs.args with
     | Some (Obs.Int 500) -> ()
     | _ -> Alcotest.fail "newest event missing after overwrite")
  | [] -> Alcotest.fail "ring is empty"

(* ------------------------------------------------------------------ *)
(* Counters                                                            *)

let test_counter_monotone () =
  let c = Obs.counter "obs-test.counter" in
  Obs.enable ();
  Alcotest.(check int) "reset by enable" 0 (Obs.value c);
  Obs.incr c;
  Obs.add c 41;
  Alcotest.(check int) "accumulates" 42 (Obs.value c);
  Alcotest.check_raises "negative increment rejected"
    (Invalid_argument "Obs.add: counter obs-test.counter is monotone")
    (fun () -> Obs.add c (-1));
  Alcotest.(check int) "unchanged after rejection" 42 (Obs.value c);
  (* Interning: a second handle with the same name is the same counter. *)
  Obs.incr (Obs.counter "obs-test.counter");
  Alcotest.(check int) "interned by name" 43 (Obs.value c);
  Obs.disable ();
  Obs.incr c;
  Alcotest.(check int) "disabled incr is a no-op" 43 (Obs.value c);
  Alcotest.(check bool) "listed with its value" true
    (List.mem ("obs-test.counter", 43) (Obs.counters ()))

(* ------------------------------------------------------------------ *)
(* Disabled mode                                                       *)

let test_disabled_allocates_nothing () =
  Obs.disable ();
  let c = Obs.counter "obs-test.disabled" in
  let body () = ignore (Sys.opaque_identity 1) in
  (* Warm up so the closure and counter exist before measuring. *)
  Obs.span "warm" body;
  Obs.incr c;
  let before = Gc.minor_words () in
  for _ = 1 to 100_000 do
    Obs.span "off" body;
    Obs.incr c
  done;
  let words = Gc.minor_words () -. before in
  (* 100k iterations of span+incr: a strict zero is hostage to
     compiler versions, but anything beyond noise means a box or closure
     crept onto the disabled path. *)
  Alcotest.(check bool)
    (Printf.sprintf "allocation when disabled (%.0f words)" words)
    true (words < 1024.);
  Alcotest.(check int) "counter untouched" 0 (Obs.value c)

(* ------------------------------------------------------------------ *)
(* Chrome trace export                                                 *)

let test_chrome_trace_well_formed () =
  Obs.enable ();
  Obs.span ~args:[ ("n", Obs.Int 3); ("tag", Obs.Str "a\"b\\c") ] "chrome"
    (fun () -> Obs.span "inner" (fun () -> ()));
  Obs.disable ();
  match Json.parse (Obs.chrome_trace ()) with
  | Error msg -> Alcotest.failf "chrome trace does not parse: %s" msg
  | Ok j ->
    let events =
      match Json.member "traceEvents" j with
      | Some (Json.List evs) -> evs
      | _ -> Alcotest.fail "no traceEvents array"
    in
    Alcotest.(check bool) "has events" true (List.length events > 3);
    let phases =
      List.filter_map
        (fun e ->
           (* Every event carries a name, a phase and the shared pid. *)
           (match Json.member "name" e with
            | Some (Json.Str _) -> ()
            | _ -> Alcotest.fail "event without name");
           (match Json.member "pid" e with
            | Some (Json.Num 1.) -> ()
            | _ -> Alcotest.fail "event without pid 1");
           match Json.member "ph" e with
           | Some (Json.Str ph) -> Some ph
           | _ -> Alcotest.fail "event without ph")
        events
    in
    let has ph = List.mem ph phases in
    Alcotest.(check bool) "complete spans" true (has "X");
    Alcotest.(check bool) "thread metadata" true (has "M");
    (* X events carry microsecond ts/dur numbers. *)
    List.iter
      (fun e ->
         match Json.member "ph" e with
         | Some (Json.Str "X") ->
           (match (Json.member "ts" e, Json.member "dur" e) with
            | Some (Json.Num ts), Some (Json.Num dur) ->
              Alcotest.(check bool) "non-negative interval" true
                (ts >= 0. && dur >= 0.)
            | _ -> Alcotest.fail "X event without ts/dur")
         | _ -> ())
      events

let test_json_roundtrip () =
  let j =
    Json.Obj
      [ ("s", Json.Str "esc \"quotes\" \\ and \ncontrol");
        ("n", Json.Num 3.125);
        ("i", Json.Num 42.);
        ("l", Json.List [ Json.Bool true; Json.Null; Json.Str "x" ]) ]
  in
  match Json.parse (Json.to_string j) with
  | Ok j' -> Alcotest.(check bool) "roundtrip" true (j = j')
  | Error msg -> Alcotest.failf "roundtrip parse failed: %s" msg

(* ------------------------------------------------------------------ *)
(* Parallel recording                                                  *)

let test_parallel_merged_and_race_free () =
  Obs.enable ();
  Race.enable ();
  let finish () =
    Pool.set_schedule Pool.Os;
    Race.disable ();
    Obs.disable ()
  in
  (match
     (* Deterministic replay first — every item is its own logical thread,
        so the detector checks the recording paths schedule by schedule —
        then real domains, so the export genuinely merges several rings. *)
     List.iter
       (fun seed ->
          Pool.set_schedule (Pool.Replay seed);
          Pool.parallel_for ~domains:3 ~n:6 (fun i ->
              Obs.span ~args:[ ("i", Obs.Int i) ] "obs-test.replayed"
                (fun () -> Obs.incr (Obs.counter "obs-test.items"))))
       [ 0; 1; 2 ];
     Pool.set_schedule Pool.Os;
     Pool.parallel_for ~domains:4 ~n:40 (fun _ ->
         Obs.span "obs-test.os" (fun () ->
             Obs.incr (Obs.counter "obs-test.items")))
   with
   | () -> finish ()
   | exception e -> finish (); raise e);
  (match Race.reports () with
   | [] -> ()
   | r :: _ ->
     Alcotest.failf "telemetry recording raced: %s"
       (Pmi_diag.Diag.to_string (List.hd (Race.to_diags [ r ]))));
  let evs = Obs.events () in
  Alcotest.(check int) "replayed spans all retained" 18
    (List.length (span_named "obs-test.replayed" evs));
  Alcotest.(check int) "parallel spans all retained" 40
    (List.length (span_named "obs-test.os" evs));
  Alcotest.(check int) "counter saw every item" 58
    (Obs.value (Obs.counter "obs-test.items"));
  (* The merge is globally ts-sorted even across per-domain rings. *)
  let ts = List.map (fun (e : Obs.event) -> e.Obs.ts_ns) evs in
  Alcotest.(check (list int)) "merged sort" (List.sort compare ts) ts;
  (* And the exporter emits one thread-name record per recording domain. *)
  match Json.parse (Obs.chrome_trace ()) with
  | Error msg -> Alcotest.failf "merged trace does not parse: %s" msg
  | Ok j ->
    let tids =
      List.sort_uniq compare
        (List.map (fun (e : Obs.event) -> e.Obs.tid) evs)
    in
    let names =
      match Json.member "traceEvents" j with
      | Some (Json.List events) ->
        List.filter
          (fun e -> Json.member "name" e = Some (Json.Str "thread_name"))
          events
      | _ -> []
    in
    Alcotest.(check bool) "a thread_name record per domain" true
      (List.length names >= List.length tids)

(* ------------------------------------------------------------------ *)
(* The bench-regression gate                                           *)

let fixture_history = "fixtures/bench_history.json"

let read_file path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in_noerr ic)
    (fun () -> really_input_string ic (in_channel_length ic))

let timing name ns = { Gate.name; ns_per_run = Some ns; count = None }

let current records = { Gate.version = Some Gate.schema_version; records }

let test_gate_latest_entry () =
  match Gate.latest_history_entry (read_file fixture_history) with
  | Error msg -> Alcotest.failf "fixture did not parse: %s" msg
  | Ok run ->
    Alcotest.(check (option int)) "schema version"
      (Some Gate.schema_version) run.Gate.version;
    (* Newest-last: the baseline entry, not the older one. *)
    (match
       List.find_opt
         (fun r -> r.Gate.name = "sat/random-3sat")
         run.Gate.records
     with
     | Some { Gate.ns_per_run = Some ns; _ } ->
       Alcotest.(check (float 0.01)) "newest entry wins" 100000. ns
     | _ -> Alcotest.fail "timing record missing from fixture")

let test_gate_flags_slowdown () =
  let baseline =
    match Gate.latest_history_entry (read_file fixture_history) with
    | Ok run -> run
    | Error msg -> Alcotest.failf "fixture did not parse: %s" msg
  in
  (* A synthetic 2x slowdown on one bench must be flagged; 1.1x must not
     be; benches unknown to the baseline are skipped. *)
  let cur =
    current
      [ timing "sat/random-3sat" 200000.;
        timing "oracle/zen-block" 55000.;
        timing "brand-new-bench" 1. ]
  in
  (match Gate.compare_runs ~baseline ~current:cur with
   | Error msg -> Alcotest.failf "comparable runs rejected: %s" msg
   | Ok verdicts ->
     Alcotest.(check int) "only shared benches compared" 2
       (List.length verdicts);
     (match Gate.regressions verdicts with
      | [ v ] ->
        Alcotest.(check string) "the slowdown" "sat/random-3sat" v.Gate.bench;
        Alcotest.(check (float 0.01)) "ratio" 2.0 v.Gate.ratio;
        Alcotest.(check bool) "report names it" true
          (let report = Gate.report verdicts in
           let contains hay needle =
             let nh = String.length hay and nn = String.length needle in
             let rec at i =
               i + nn <= nh && (String.sub hay i nn = needle || at (i + 1))
             in
             at 0
           in
           contains report "REGRESSED")
      | vs -> Alcotest.failf "expected one regression, got %d" (List.length vs)));
  (* Within threshold: clean. *)
  match
    Gate.compare_runs ~baseline
      ~current:(current [ timing "sat/random-3sat" 120000. ])
  with
  | Ok verdicts ->
    Alcotest.(check int) "no regression at 1.2x" 0
      (List.length (Gate.regressions verdicts))
  | Error msg -> Alcotest.failf "comparable runs rejected: %s" msg

let test_gate_rejects_incomparable () =
  let baseline =
    match Gate.latest_history_entry (read_file fixture_history) with
    | Ok run -> run
    | Error msg -> Alcotest.failf "fixture did not parse: %s" msg
  in
  let expect_error what = function
    | Error _ -> ()
    | Ok _ -> Alcotest.failf "%s accepted as comparable" what
  in
  (* Legacy bare-array records carry no schema version. *)
  (match Gate.parse_run {|[ { "name": "sat/random-3sat", "ns_per_run": 1.0 } ]|} with
   | Ok legacy ->
     Alcotest.(check (option int)) "legacy has no version" None
       legacy.Gate.version;
     expect_error "legacy record"
       (Gate.compare_runs ~baseline ~current:legacy)
   | Error msg -> Alcotest.failf "legacy record did not parse: %s" msg);
  (* And a future schema version must not be misread. *)
  expect_error "schema-version mismatch"
    (Gate.compare_runs ~baseline
       ~current:{ (current [ timing "sat/random-3sat" 1. ]) with
                  Gate.version = Some (Gate.schema_version + 1) })

(* Repeated runs gate on each bench's fastest record: one slow run of a
   bench is noise, a bench slow in every run is a regression. *)
let test_gate_fastest_of_runs () =
  let run1 = current [ timing "a" 100.; timing "b" 300. ] in
  let run2 = current [ timing "a" 180.; timing "b" 290.; timing "c" 5. ] in
  (match Gate.fastest [ run1; run2 ] with
   | Error msg -> Alcotest.failf "fastest: %s" msg
   | Ok run ->
     Alcotest.(check (list (pair string (option (float 0.)))))
       "fastest per bench"
       [ ("a", Some 100.); ("b", Some 290.); ("c", Some 5.) ]
       (List.map (fun r -> (r.Gate.name, r.Gate.ns_per_run)) run.Gate.records);
     let baseline = current [ timing "a" 90.; timing "b" 100. ] in
     (match Gate.compare_runs ~baseline ~current:run with
      | Error msg -> Alcotest.failf "compare: %s" msg
      | Ok verdicts ->
        Alcotest.(check (list string)) "only the bench slow in both runs"
          [ "b" ]
          (List.map (fun v -> v.Gate.bench) (Gate.regressions verdicts))));
  Alcotest.(check bool) "mixed versions refused" true
    (Result.is_error
       (Gate.fastest [ run1; { run2 with Gate.version = None } ]));
  Alcotest.(check bool) "no runs refused" true (Result.is_error (Gate.fastest []))

(* ------------------------------------------------------------------ *)

let () =
  Alcotest.run "obs"
    [ ("spans",
       [ Alcotest.test_case "nesting and containment" `Quick
           test_span_nesting;
         Alcotest.test_case "exception recorded" `Quick
           test_span_exception_recorded;
         Alcotest.test_case "leave args appended" `Quick
           test_leave_args_appended;
         Alcotest.test_case "open spans withheld" `Quick
           test_open_spans_not_exported;
         Alcotest.test_case "ring bounded" `Quick test_ring_bounded ]);
      ("counters",
       [ Alcotest.test_case "monotone" `Quick test_counter_monotone ]);
      ("disabled",
       [ Alcotest.test_case "zero allocations" `Quick
           test_disabled_allocates_nothing ]);
      ("export",
       [ Alcotest.test_case "chrome trace well-formed" `Quick
           test_chrome_trace_well_formed;
         Alcotest.test_case "json roundtrip" `Quick test_json_roundtrip;
         Alcotest.test_case "parallel merge race-free" `Quick
           test_parallel_merged_and_race_free ]);
      ("gate",
       [ Alcotest.test_case "latest history entry" `Quick
           test_gate_latest_entry;
         Alcotest.test_case "flags 2x slowdown" `Quick
           test_gate_flags_slowdown;
         Alcotest.test_case "rejects incomparable" `Quick
           test_gate_rejects_incomparable;
         Alcotest.test_case "fastest of repeated runs" `Quick
           test_gate_fastest_of_runs ]) ]
