(* The bench-regression gate: compare one bench --json run against the
   latest entry of a BENCH_sat.json-style history file and flag wall-clock
   regressions.  Pure data plumbing on top of Json — the bench driver's
   --check-regression mode and the @obs tests both go through here, so the
   gate logic the CI job enforces is the one the test suite pins down. *)

let schema_version = 2

type record = {
  name : string;
  ns_per_run : float option;  (* timing records *)
  count : int option;         (* solver-statistic records *)
}

type run = {
  version : int option;
  records : record list;
}

let record_of_json j =
  match Json.member "name" j with
  | Some (Json.Str name) ->
    Some
      { name;
        ns_per_run = Option.bind (Json.member "ns_per_run" j) Json.to_float;
        count = Option.bind (Json.member "count" j) Json.to_int }
  | Some _ | None -> None

let records_of_json js = List.filter_map record_of_json js

(* Accept both shapes: the schema-versioned v2 object
   {schema_version; results; ...} and the bare v1 array of records. *)
let run_of_json = function
  | Json.List js -> Ok { version = None; records = records_of_json js }
  | Json.Obj _ as j ->
    (match Json.member "results" j with
     | Some (Json.List js) ->
       Ok
         { version =
             Option.bind (Json.member "schema_version" j) Json.to_int;
           records = records_of_json js }
     | Some _ | None -> Error "no \"results\" array in bench record")
  | Json.Null | Json.Bool _ | Json.Num _ | Json.Str _ ->
    Error "bench record is neither an array nor an object"

let parse_run text =
  match Json.parse text with
  | Error _ as e -> e
  | Ok j -> run_of_json j

(* The newest entry of a history file ({"history": [entry; ...]}, newest
   last, as in BENCH_sat.json). *)
let latest_history_entry text =
  match Json.parse text with
  | Error _ as e -> e
  | Ok j ->
    (match Json.member "history" j with
     | Some (Json.List (_ :: _ as entries)) ->
       run_of_json (List.nth entries (List.length entries - 1))
     | Some (Json.List []) -> Error "empty \"history\" array"
     | Some _ | None -> Error "no \"history\" array in history file")

(* Several runs of the same benches as one: each timing record at its
   fastest, since noise on a shared box only ever adds time. *)
let fastest = function
  | [] -> Error "no bench run to gate"
  | first :: _ as runs ->
    if List.exists (fun r -> r.version <> first.version) runs then
      Error "bench runs of different schema versions"
    else begin
      let names =
        List.fold_left
          (fun acc r ->
             List.fold_left
               (fun acc (x : record) ->
                  if List.mem x.name acc then acc else x.name :: acc)
               acc r.records)
          [] runs
        |> List.rev
      in
      let merged name =
        let all =
          List.filter_map
            (fun r ->
               List.find_opt (fun (x : record) -> x.name = name) r.records)
            runs
        in
        let ns =
          List.fold_left
            (fun acc (x : record) ->
               match (acc, x.ns_per_run) with
               | None, v | v, None -> v
               | Some a, Some b -> Some (Float.min a b))
            None all
        in
        { (List.hd all) with ns_per_run = ns }
      in
      Ok { version = first.version; records = List.map merged names }
    end

type verdict = {
  bench : string;
  baseline_ns : float;
  current_ns : float;
  ratio : float;
  regressed : bool;
}

let threshold = 0.25

(* Benches are compared by name; ones present on only one side are
   skipped (machines differ in which sections they ran), and count-type
   records never gate (counters drift legitimately with policy changes).
   An Error means the records are incomparable and the caller should not
   conclude anything — most importantly on a schema-version mismatch. *)
let compare_runs ~baseline ~current =
  let version_of run =
    match run.version with
    | Some v -> Ok v
    | None -> Error "record carries no schema_version"
  in
  match (version_of baseline, version_of current) with
  | Error e, _ -> Error ("baseline is incomparable: " ^ e)
  | _, Error e -> Error ("current run is incomparable: " ^ e)
  | Ok bv, Ok cv when bv <> cv ->
    Error
      (Printf.sprintf
         "incomparable schema versions: baseline %d vs current %d" bv cv)
  | Ok _, Ok _ ->
    let verdicts =
      List.filter_map
        (fun cur ->
           match cur.ns_per_run with
           | None -> None
           | Some current_ns ->
             List.find_opt (fun b -> b.name = cur.name) baseline.records
             |> Fun.flip Option.bind (fun b -> b.ns_per_run)
             |> Option.map (fun baseline_ns ->
                 let ratio =
                   if baseline_ns > 0. then current_ns /. baseline_ns
                   else infinity
                 in
                 { bench = cur.name;
                   baseline_ns;
                   current_ns;
                   ratio;
                   regressed = ratio > 1. +. threshold }))
        current.records
    in
    Ok verdicts

let regressions verdicts = List.filter (fun v -> v.regressed) verdicts

let pp_verdict v =
  Printf.sprintf "%-44s %14.1f %14.1f %8.2fx %s" v.bench v.baseline_ns
    v.current_ns v.ratio
    (if v.regressed then "REGRESSED" else "ok")

let report verdicts =
  let buf = Buffer.create 256 in
  Buffer.add_string buf
    (Printf.sprintf "%-44s %14s %14s %9s\n" "bench" "baseline ns"
       "current ns" "ratio");
  List.iter
    (fun v -> Buffer.add_string buf (pp_verdict v ^ "\n"))
    verdicts;
  let regs = regressions verdicts in
  Buffer.add_string buf
    (if regs = [] then
       Printf.sprintf "regression gate: %d benches compared, none regressed\n"
         (List.length verdicts)
     else
       Printf.sprintf "regression gate: %d of %d benches regressed (>%.0f%%)\n"
         (List.length regs) (List.length verdicts)
         (threshold *. 100.));
  Buffer.contents buf
