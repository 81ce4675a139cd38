(* Telemetry: spans, counters, bounded per-domain event rings, and
   the tree/Chrome-trace exporters.  See obs.mli for the contract.

   Layout mirrors Pmi_diag.Race: one atomic enable flag checked first on
   every entry point (the disabled path is a single predictable branch and
   allocates nothing), and a generation counter so per-domain buffers
   cached in domain-local storage from a previous enable() are lazily
   replaced instead of polluting the new trace. *)

external clock_ns : unit -> int = "pmi_obs_clock_ns" [@@noalloc]

type arg =
  | Int of int
  | Str of string

type kind = Span

type event = {
  kind : kind;
  name : string;
  path : string;
  tid : int;
  ts_ns : int;
  dur_ns : int;
  depth : int;
  args : (string * arg) list;
}

let dummy_event =
  { kind = Span; name = ""; path = ""; tid = 0; ts_ns = 0; dur_ns = 0;
    depth = 0; args = [] }

(* ------------------------------------------------------------------ *)
(* Global state                                                        *)

let enabled_flag = Atomic.make false
let enabled () = Atomic.get enabled_flag

(* Bumped on every enable(); buffers stamped with an older generation are
   stale and get replaced on first use. *)
let generation = Atomic.make 0

(* Trace origin: all event timestamps are [clock_ns () - !t0].  Written
   only by enable(), before the flag goes up. *)
let t0 = ref (clock_ns ())

let default_capacity = 65536
let ring_capacity = ref default_capacity
let set_ring_capacity n =
  if n <= 0 then invalid_arg "Obs.set_ring_capacity";
  ring_capacity := n

let max_depth = 256

(* ------------------------------------------------------------------ *)
(* Per-domain buffers                                                  *)

type buf = {
  gen : int;
  tid : int;
  ring : event array;
  mutable head : int;          (* next write slot *)
  mutable count : int;         (* live events, <= capacity *)
  mutable depth : int;         (* open spans *)
  frame_name : string array;
  frame_path : string array;
  frame_ts : int array;
  frame_args : (string * arg) list array;
  mutable lost : int;          (* ring overwrites + stack overflows *)
}

(* All buffers of the current generation, for the exporters to merge.
   The mutex guards registration and the counter registry only —
   never the per-event hot path. *)
let registry_mutex = Mutex.create ()
let registry : buf list ref = ref []

let stale_buf =
  { gen = -1; tid = -1; ring = [||]; head = 0; count = 0; depth = 0;
    frame_name = [||]; frame_path = [||]; frame_ts = [||]; frame_args = [||];
    lost = 0 }

let dls_key = Domain.DLS.new_key (fun () -> stale_buf)

let fresh_buf gen =
  let b =
    { gen;
      tid = (Domain.self () :> int);
      ring = Array.make !ring_capacity dummy_event;
      head = 0;
      count = 0;
      depth = 0;
      frame_name = Array.make max_depth "";
      frame_path = Array.make max_depth "";
      frame_ts = Array.make max_depth 0;
      frame_args = Array.make max_depth [];
      lost = 0 }
  in
  Mutex.lock registry_mutex;
  registry := b :: !registry;
  Mutex.unlock registry_mutex;
  Domain.DLS.set dls_key b;
  b

let get_buf () =
  let b = Domain.DLS.get dls_key in
  let gen = Atomic.get generation in
  if b.gen = gen then b else fresh_buf gen

let push_event b ev =
  let cap = Array.length b.ring in
  b.ring.(b.head) <- ev;
  b.head <- (b.head + 1) mod cap;
  if b.count < cap then b.count <- b.count + 1 else b.lost <- b.lost + 1

(* ------------------------------------------------------------------ *)
(* Spans                                                               *)

(* A frame is the stack index the span was pushed at; -1 is the disabled
   dummy.  A frame from a previous generation is harmless: the fresh
   buffer's depth is 0, so leave's [frame < depth] guard rejects it. *)
type frame = int

let no_frame : frame = -1

let now () = clock_ns () - !t0

let enter ?args name =
  if not (Atomic.get enabled_flag) then no_frame
  else begin
    let b = get_buf () in
    let d = b.depth in
    if d >= max_depth then begin
      b.lost <- b.lost + 1;
      no_frame
    end
    else begin
      b.frame_name.(d) <- name;
      b.frame_path.(d) <-
        (if d = 0 then name else b.frame_path.(d - 1) ^ "/" ^ name);
      b.frame_args.(d) <- (match args with None -> [] | Some a -> a);
      b.frame_ts.(d) <- now ();
      b.depth <- d + 1;
      d
    end
  end

let leave ?args frame =
  if frame >= 0 && Atomic.get enabled_flag then begin
    let b = get_buf () in
    if frame < b.depth then begin
      (* Children left open (an exception unwound past their leave) are
         dropped with the stack truncation; count them as lost. *)
      b.lost <- b.lost + (b.depth - frame - 1);
      b.depth <- frame;
      let ts = b.frame_ts.(frame) in
      let args =
        match args with
        | None -> b.frame_args.(frame)
        | Some extra -> b.frame_args.(frame) @ extra
      in
      push_event b
        { kind = Span;
          name = b.frame_name.(frame);
          path = b.frame_path.(frame);
          tid = b.tid;
          ts_ns = ts;
          dur_ns = now () - ts;
          depth = frame;
          args }
    end
  end

let span ?args name f =
  if not (Atomic.get enabled_flag) then f ()
  else begin
    let frame = enter ?args name in
    match f () with
    | v ->
      leave frame;
      v
    | exception e ->
      leave ~args:[ ("exn", Str (Printexc.to_string e)) ] frame;
      raise e
  end

(* ------------------------------------------------------------------ *)
(* Counters                                                            *)

type counter = {
  cname : string;
  cell : int Atomic.t;
}

let counter_tbl : (string, counter) Hashtbl.t = Hashtbl.create 64

let counter name =
  Mutex.lock registry_mutex;
  let c =
    match Hashtbl.find_opt counter_tbl name with
    | Some c -> c
    | None ->
      let c = { cname = name; cell = Atomic.make 0 } in
      Hashtbl.replace counter_tbl name c;
      c
  in
  Mutex.unlock registry_mutex;
  c

let incr c = if Atomic.get enabled_flag then Atomic.incr c.cell

let add c n =
  if n < 0 then invalid_arg ("Obs.add: counter " ^ c.cname ^ " is monotone");
  if Atomic.get enabled_flag then ignore (Atomic.fetch_and_add c.cell n)

let value c = Atomic.get c.cell

let counters () =
  Mutex.lock registry_mutex;
  let all =
    Hashtbl.fold (fun name c acc -> (name, Atomic.get c.cell) :: acc)
      counter_tbl []
  in
  Mutex.unlock registry_mutex;
  List.sort compare all

(* ------------------------------------------------------------------ *)
(* Enable / disable                                                    *)

let enable () =
  Atomic.set enabled_flag false;
  Mutex.lock registry_mutex;
  registry := [];
  Hashtbl.iter (fun _ c -> Atomic.set c.cell 0) counter_tbl;
  Mutex.unlock registry_mutex;
  Atomic.incr generation;
  t0 := clock_ns ();
  Atomic.set enabled_flag true

let disable () = Atomic.set enabled_flag false

(* ------------------------------------------------------------------ *)
(* Reading back                                                        *)

let buf_events b =
  let cap = Array.length b.ring in
  List.init b.count (fun i ->
      b.ring.((b.head - b.count + i + cap + cap) mod cap))

let events () =
  Mutex.lock registry_mutex;
  let bufs = !registry in
  Mutex.unlock registry_mutex;
  List.concat_map buf_events bufs
  |> List.stable_sort (fun a b -> compare a.ts_ns b.ts_ns)

let dropped () =
  Mutex.lock registry_mutex;
  let bufs = !registry in
  Mutex.unlock registry_mutex;
  List.fold_left (fun acc b -> acc + b.lost) 0 bufs

(* ------------------------------------------------------------------ *)
(* Chrome trace format                                                 *)

let arg_to_json = function
  | Int i -> Json.Num (float_of_int i)
  | Str s -> Json.Str s

let args_to_json args =
  Json.Obj (List.map (fun (k, v) -> (k, arg_to_json v)) args)

let us ns = Json.Num (float_of_int ns /. 1e3)

let event_to_json ev =
  let common =
    [ ("name", Json.Str ev.name);
      ("cat", Json.Str "pmi");
      ("pid", Json.Num 1.);
      ("tid", Json.Num (float_of_int ev.tid));
      ("ts", us ev.ts_ns) ]
  in
  Json.Obj
    (common
     @ [ ("ph", Json.Str "X"); ("dur", us ev.dur_ns);
         ("args", args_to_json ev.args) ])

let metadata_events (evs : event list) =
  let process =
    Json.Obj
      [ ("name", Json.Str "process_name"); ("ph", Json.Str "M");
        ("pid", Json.Num 1.);
        ("args", Json.Obj [ ("name", Json.Str "pmi") ]) ]
  in
  let tids = List.sort_uniq compare (List.map (fun (e : event) -> e.tid) evs) in
  process
  :: List.map
       (fun tid ->
          Json.Obj
            [ ("name", Json.Str "thread_name"); ("ph", Json.Str "M");
              ("pid", Json.Num 1.); ("tid", Json.Num (float_of_int tid));
              ("args",
               Json.Obj
                 [ ("name", Json.Str (Printf.sprintf "domain %d" tid)) ]) ])
       tids

(* Cumulative counters have no per-bump samples (bumps are too hot to log);
   export them as a 0 -> final ramp so they still plot. *)
let counter_events (evs : event list) =
  let final_ts =
    List.fold_left (fun acc e -> max acc (e.ts_ns + e.dur_ns)) 0 evs
  in
  List.concat_map
    (fun (name, v) ->
       if v = 0 then []
       else
         let sample ts value =
           Json.Obj
             [ ("name", Json.Str name); ("cat", Json.Str "pmi");
               ("ph", Json.Str "C"); ("pid", Json.Num 1.);
               ("tid", Json.Num 0.); ("ts", us ts);
               ("args", Json.Obj [ ("value", Json.Num (float_of_int value)) ]) ]
         in
         [ sample 0 0; sample final_ts v ])
    (counters ())

let chrome_trace () =
  let evs = events () in
  Json.to_string
    (Json.Obj
       [ ("traceEvents",
          Json.List
            (metadata_events evs
             @ List.map event_to_json evs
             @ counter_events evs));
         ("displayTimeUnit", Json.Str "ms") ])

let write_chrome_trace path =
  let oc = open_out path in
  Fun.protect
    ~finally:(fun () -> close_out_noerr oc)
    (fun () -> output_string oc (chrome_trace ()))

(* ------------------------------------------------------------------ *)
(* Tree summary                                                        *)

let parent_of path =
  match String.rindex_opt path '/' with
  | Some i -> Some (String.sub path 0 i)
  | None -> None

let summary () =
  let evs = events () in
  let buf = Buffer.create 1024 in
  let totals : (string, int ref * int ref) Hashtbl.t = Hashtbl.create 64 in
  let child_ns : (string, int ref) Hashtbl.t = Hashtbl.create 64 in
  List.iter
    (fun ev ->
       let calls, ns =
         match Hashtbl.find_opt totals ev.path with
         | Some cell -> cell
         | None ->
           let cell = (ref 0, ref 0) in
           Hashtbl.replace totals ev.path cell;
           cell
       in
       Stdlib.incr calls;
       ns := !ns + ev.dur_ns;
       match parent_of ev.path with
       | None -> ()
       | Some parent ->
         (match Hashtbl.find_opt child_ns parent with
          | Some cell -> cell := !cell + ev.dur_ns
          | None -> Hashtbl.replace child_ns parent (ref ev.dur_ns)))
    evs;
  let paths =
    List.sort compare (Hashtbl.fold (fun p _ acc -> p :: acc) totals [])
  in
  if paths <> [] then begin
    Buffer.add_string buf
      (Printf.sprintf "%-52s %9s %12s %12s\n" "span" "calls" "total ms"
         "self ms");
    List.iter
      (fun path ->
         let calls, ns = Hashtbl.find totals path in
         let children =
           match Hashtbl.find_opt child_ns path with
           | Some cell -> !cell
           | None -> 0
         in
         let depth =
           String.fold_left (fun acc c -> if c = '/' then acc + 1 else acc) 0
             path
         in
         let name =
           match parent_of path with
           | None -> path
           | Some p -> String.sub path (String.length p + 1)
                         (String.length path - String.length p - 1)
         in
         Buffer.add_string buf
           (Printf.sprintf "%-52s %9d %12.3f %12.3f\n"
              (String.make (2 * depth) ' ' ^ name)
              !calls
              (float_of_int !ns /. 1e6)
              (float_of_int (!ns - children) /. 1e6)))
      paths
  end;
  (match counters () with
   | [] -> ()
   | cs ->
     Buffer.add_string buf "counters:\n";
     List.iter
       (fun (name, v) ->
          Buffer.add_string buf (Printf.sprintf "  %-50s %12d\n" name v))
       cs);
  let lost = dropped () in
  if lost > 0 then
    Buffer.add_string buf (Printf.sprintf "dropped events: %d\n" lost);
  Buffer.contents buf
