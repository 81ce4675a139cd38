module Obs = Pmi_obs.Obs

(* Telemetry (process-wide, like every other subsystem's counters). *)
let c_appends = Obs.counter "store.appends"
let c_hits = Obs.counter "store.hits"
let c_misses = Obs.counter "store.misses"
let c_replayed = Obs.counter "store.replayed"
let c_corrupt = Obs.counter "store.corrupt"
let c_recovered = Obs.counter "store.recovered"
let c_compactions = Obs.counter "store.compactions"

type kind = Certificate | Bench_history

let kinds = [ Certificate; Bench_history ]

(* On-disk kind codes.  Code 0 held harness measurements, a record kind
   that no longer exists: such records are intact, so replay skips them
   without counting them corrupt, and compaction drops them. *)
let retired_code = 0

let kind_code = function
  | Certificate -> 1
  | Bench_history -> 2

let kind_of_code = function
  | 1 -> Some Certificate
  | 2 -> Some Bench_history
  | _ -> None

(* Index of a kind's table in [t.tables]. *)
let slot = function
  | Certificate -> 0
  | Bench_history -> 1

let kind_name = function
  | Certificate -> "certificate"
  | Bench_history -> "bench_history"

(* ------------------------------------------------------------------ *)
(* CRC32 (IEEE 802.3, the zlib polynomial)                             *)
(* ------------------------------------------------------------------ *)

let crc_table =
  lazy
    (Array.init 256 (fun n ->
         let c = ref n in
         for _ = 0 to 7 do
           c := if !c land 1 = 1 then 0xEDB88320 lxor (!c lsr 1) else !c lsr 1
         done;
         !c))

let crc32_sub s off len =
  let table = Lazy.force crc_table in
  let c = ref 0xFFFFFFFF in
  for i = off to off + len - 1 do
    c := table.((!c lxor Char.code (String.unsafe_get s i)) land 0xff)
         lxor (!c lsr 8)
  done;
  !c lxor 0xFFFFFFFF

(* ------------------------------------------------------------------ *)
(* Record framing                                                      *)
(* ------------------------------------------------------------------ *)

(* Journal record: "PMIR" | u32le payload_len | u32le crc32(payload) |
   payload, where payload = u8 version | u8 kind | u16le klen | key |
   u32le vlen | value.  The segment uses the same framing behind its own
   header. *)

let record_magic = 0x52494D50 (* "PMIR" little-endian *)
let record_version = 1
let header_bytes = 12
let max_payload = 1 lsl 24 (* 16 MiB: anything larger is framing damage *)
let segment_magic = "PMISEG1\n"
let footer_magic = 0x58494D50 (* "PMIX" little-endian *)
let footer_bytes = 16

let get_u32 s off = Int32.to_int (String.get_int32_le s off) land 0xFFFFFFFF

let set_u32 b off v = Bytes.set_int32_le b off (Int32.of_int v)

let encode_record kind ~key value =
  let klen = String.length key and vlen = String.length value in
  if klen > 0xFFFF then invalid_arg "Store.put: key longer than 65535 bytes";
  let payload_len = 2 + 2 + klen + 4 + vlen in
  if payload_len > max_payload then
    invalid_arg "Store.put: record exceeds the 16 MiB bound";
  let b = Bytes.create (header_bytes + payload_len) in
  set_u32 b 0 record_magic;
  set_u32 b 4 payload_len;
  Bytes.set_uint8 b 12 record_version;
  Bytes.set_uint8 b 13 (kind_code kind);
  Bytes.set_uint16_le b 14 klen;
  Bytes.blit_string key 0 b 16 klen;
  set_u32 b (16 + klen) vlen;
  Bytes.blit_string value 0 b (20 + klen) vlen;
  let crc =
    crc32_sub (Bytes.unsafe_to_string b) header_bytes payload_len
  in
  set_u32 b 8 crc;
  b

(* [payload] region of [data] at [off], length [len], as its kind code,
   key and value; [None] when the versioned payload does not parse or
   names an unknown kind (counts as corrupt). *)
let decode_payload data off len =
  if len < 8 then None
  else if Char.code data.[off] <> record_version then None
  else
    let code = Char.code data.[off + 1] in
    if code <> retired_code && Option.is_none (kind_of_code code) then None
    else
      let klen = String.get_uint16_le data (off + 2) in
      if 8 + klen > len then None
      else
        let vlen = get_u32 data (off + 4 + klen) in
        if 8 + klen + vlen <> len then None
        else
          let key = String.sub data (off + 4) klen in
          let value = String.sub data (off + 8 + klen) vlen in
          Some (code, key, value)

type scan = {
  mutable s_records : int;      (* checksummed records, retired included *)
  mutable s_corrupt : int;      (* complete records rejected *)
  mutable s_valid_end : int;    (* bytes of structurally valid prefix *)
}

(* Walk the record stream in [data.[off .. limit)], calling [apply] on
   every intact record of a live kind.  A short or unframed tail stops the walk (torn);
   a complete record with a bad checksum or unparsable payload is skipped
   (corrupt), because the framing still carries us to the next record. *)
let scan_records ?(apply = fun _ ~key:_ _ -> ()) data ~off ~limit =
  let s = { s_records = 0; s_corrupt = 0; s_valid_end = off } in
  let pos = ref off in
  let torn = ref false in
  while (not !torn) && !pos + header_bytes <= limit do
    let p = !pos in
    if get_u32 data p <> record_magic then torn := true
    else begin
      let len = get_u32 data (p + 4) in
      if len < 8 || len > max_payload then torn := true
      else if p + header_bytes + len > limit then torn := true
      else begin
        let crc = get_u32 data (p + 8) in
        (if crc <> crc32_sub data (p + header_bytes) len then
           s.s_corrupt <- s.s_corrupt + 1
         else
           match decode_payload data (p + header_bytes) len with
           | None -> s.s_corrupt <- s.s_corrupt + 1
           | Some (code, key, value) ->
             s.s_records <- s.s_records + 1;
             Option.iter (fun kind -> apply kind ~key value)
               (kind_of_code code));
        pos := p + header_bytes + len;
        s.s_valid_end <- !pos
      end
    end
  done;
  s

(* ------------------------------------------------------------------ *)
(* Store                                                               *)
(* ------------------------------------------------------------------ *)

type t = {
  dir : string;
  journal_path : string;
  segment_path : string;
  auto_compact : int;
  tables : (string, string) Hashtbl.t array; (* indexed by [slot] *)
  lock : Mutex.t;
  mutable oc : out_channel;
  mutable closed : bool;
  mutable journal_records : int;
  mutable segment_records : int;
  mutable segment_bytes : int;
  mutable replayed : int;
  mutable corrupt : int;
  mutable truncated_bytes : int;
  mutable compactions : int;
  mutable appends : int;
  mutable hits : int;
  mutable misses : int;
  crash_after : int option; (* PMI_STORE_CRASH_AFTER: CI fault injection *)
}

type stats = {
  live_certificates : int;
  live_bench : int;
  journal_records : int;
  segment_records : int;
  journal_bytes : int;
  segment_bytes : int;
  replayed : int;
  corrupt : int;
  truncated_bytes : int;
  compactions : int;
  appends : int;
  hits : int;
  misses : int;
}

let read_file path =
  if Sys.file_exists path then
    In_channel.with_open_bin path In_channel.input_all
  else ""

let rec mkdir_p dir =
  if not (Sys.file_exists dir) then begin
    let parent = Filename.dirname dir in
    if parent <> dir then mkdir_p parent;
    try Sys.mkdir dir 0o755 with Sys_error _ when Sys.file_exists dir -> ()
  end

(* The footer names the index region; the index in turn bounds the record
   region, so a loader can stop scanning exactly where records end.  An
   invalid footer (external damage) degrades to a journal-style sequential
   scan — never a failed open. *)
let segment_record_limit data =
  let size = String.length data in
  let hdr = String.length segment_magic in
  if size < hdr || not (String.equal (String.sub data 0 hdr) segment_magic)
  then None
  else if size < hdr + footer_bytes then Some (size, false)
  else
    let foff = size - footer_bytes in
    if get_u32 data (foff + 12) <> footer_magic then Some (size, false)
    else
      let index_off = Int64.to_int (String.get_int64_le data foff) in
      if index_off < hdr || index_off > foff then Some (size, false)
      else if
        get_u32 data (foff + 8) <> crc32_sub data index_off (foff - index_off)
      then Some (size, false)
      else Some (index_off, true)

let load_segment path apply =
  let data = read_file path in
  match segment_record_limit data with
  | None -> { s_records = 0; s_corrupt = 0; s_valid_end = 0 }
  | Some (limit, _indexed) ->
    scan_records ~apply data ~off:(String.length segment_magic) ~limit

let dir t = t.dir

let open_ ?(auto_compact = 8192) dir =
  mkdir_p dir;
  let journal_path = Filename.concat dir "journal.pmi" in
  let segment_path = Filename.concat dir "segment.pmi" in
  let tables = Array.init (List.length kinds) (fun _ -> Hashtbl.create 256) in
  let apply kind ~key value = Hashtbl.replace tables.(slot kind) key value in
  Obs.span "store.replay" @@ fun () ->
  let seg = load_segment segment_path apply in
  let segment_bytes =
    if Sys.file_exists segment_path then
      In_channel.with_open_bin segment_path In_channel.length
      |> Int64.to_int
    else 0
  in
  let data = read_file journal_path in
  let jnl = scan_records ~apply data ~off:0 ~limit:(String.length data) in
  let truncated = String.length data - jnl.s_valid_end in
  if truncated > 0 then begin
    (* Torn tail (or unframed garbage): drop it so the next append starts
       on a record boundary. *)
    Unix.truncate journal_path jnl.s_valid_end;
    Obs.incr c_recovered
  end;
  Obs.add c_replayed jnl.s_records;
  Obs.add c_corrupt (jnl.s_corrupt + seg.s_corrupt);
  let oc =
    open_out_gen [ Open_append; Open_creat; Open_binary ] 0o644 journal_path
  in
  let crash_after =
    match Sys.getenv_opt "PMI_STORE_CRASH_AFTER" with
    | Some s -> int_of_string_opt s
    | None -> None
  in
  { dir;
    journal_path;
    segment_path;
    auto_compact;
    tables;
    lock = Mutex.create ();
    oc;
    closed = false;
    journal_records = jnl.s_records;
    segment_records = seg.s_records;
    segment_bytes;
    replayed = jnl.s_records;
    corrupt = jnl.s_corrupt + seg.s_corrupt;
    truncated_bytes = truncated;
    compactions = 0;
    appends = 0;
    hits = 0;
    misses = 0;
    crash_after }

let check_open t = if t.closed then invalid_arg "Store: store is closed"

let with_lock t f = Mutex.protect t.lock (fun () -> check_open t; f ())

let close t =
  Mutex.protect t.lock (fun () ->
      if not t.closed then begin
        flush t.oc;
        close_out t.oc;
        t.closed <- true
      end)

(* Deterministic fault injection for the CI crash-recovery gate: the
   [PMI_STORE_CRASH_AFTER]-th append leaves half a record in the journal
   and SIGKILLs the process — no atexit handler, no flush-on-exit, the
   exact failure mode recovery must absorb. *)
let maybe_crash t =
  match t.crash_after with
  | Some n when t.appends >= n ->
    let torn = encode_record Certificate ~key:"__crash__" "torn tail" in
    let half = Bytes.sub torn 0 (Bytes.length torn / 2) in
    output_bytes t.oc half;
    flush t.oc;
    Unix.kill (Unix.getpid ()) Sys.sigkill
  | _ -> ()

let rec compact_locked t =
  Obs.span "store.compact" @@ fun () ->
  let tmp = t.segment_path ^ ".tmp" in
  let oc =
    open_out_gen [ Open_wronly; Open_creat; Open_trunc; Open_binary ] 0o644 tmp
  in
  output_string oc segment_magic;
  let offset = ref (String.length segment_magic) in
  let index = Buffer.create 1024 in
  let count = ref 0 in
  (* Kind order then sorted keys: compaction output is a pure function of
     the live contents, so open/close/open leaves the bytes untouched and
     two replicas with the same records compact identically.  Retired
     records were never loaded, so they are not written back. *)
  List.iter
    (fun kind ->
       let tbl = t.tables.(slot kind) in
       let keys =
         Hashtbl.fold (fun k _ acc -> k :: acc) tbl []
         |> List.sort String.compare
       in
       List.iter
         (fun key ->
            let value = Hashtbl.find tbl key in
            let record = encode_record kind ~key value in
            output_bytes oc record;
            Buffer.add_uint8 index (kind_code kind);
            Buffer.add_uint16_le index (String.length key);
            Buffer.add_string index key;
            Buffer.add_int64_le index (Int64.of_int !offset);
            offset := !offset + Bytes.length record;
            incr count)
         keys)
    kinds;
  let index_off = !offset in
  let index_payload =
    let b = Buffer.create (Buffer.length index + 4) in
    Buffer.add_int32_le b (Int32.of_int !count);
    Buffer.add_buffer b index;
    Buffer.contents b
  in
  output_string oc index_payload;
  let footer = Bytes.create footer_bytes in
  Bytes.set_int64_le footer 0 (Int64.of_int index_off);
  set_u32 footer 8 (crc32_sub index_payload 0 (String.length index_payload));
  set_u32 footer 12 footer_magic;
  output_bytes oc footer;
  flush oc;
  close_out oc;
  (* Publish point: readers either see the old segment or the complete new
     one.  A crash before the journal truncate below merely leaves journal
     records that replay idempotently over the new segment. *)
  Sys.rename tmp t.segment_path;
  close_out t.oc;
  t.oc <-
    open_out_gen
      [ Open_wronly; Open_creat; Open_trunc; Open_binary ]
      0o644 t.journal_path;
  t.segment_records <- !count;
  t.segment_bytes <- index_off + String.length index_payload + footer_bytes;
  t.journal_records <- 0;
  t.compactions <- t.compactions + 1;
  Obs.incr c_compactions

and put t kind ~key value =
  with_lock t (fun () ->
      let tbl = t.tables.(slot kind) in
      match Hashtbl.find_opt tbl key with
      | Some v when String.equal v value -> () (* identical re-put: no-op *)
      | _ ->
        Obs.span "store.append" (fun () ->
            Hashtbl.replace tbl key value;
            output_bytes t.oc (encode_record kind ~key value);
            flush t.oc;
            t.journal_records <- t.journal_records + 1;
            t.appends <- t.appends + 1;
            Obs.incr c_appends;
            maybe_crash t);
        if t.auto_compact > 0 && t.journal_records >= t.auto_compact then
          compact_locked t)

let compact t = with_lock t (fun () -> compact_locked t)

let get t kind ~key =
  with_lock t (fun () ->
      match Hashtbl.find_opt t.tables.(slot kind) key with
      | Some v ->
        t.hits <- t.hits + 1;
        Obs.incr c_hits;
        Some v
      | None ->
        t.misses <- t.misses + 1;
        Obs.incr c_misses;
        None)

let mem t kind ~key = Option.is_some (get t kind ~key)

let iter t kind f =
  (* Snapshot under the lock, apply outside: [f] may call back into the
     store. *)
  let entries =
    with_lock t (fun () ->
        Hashtbl.fold
          (fun key value acc -> (key, value) :: acc)
          t.tables.(slot kind) [])
  in
  List.iter (fun (key, value) -> f ~key value) entries

let live t kind = with_lock t (fun () -> Hashtbl.length t.tables.(slot kind))

let stats t =
  with_lock t (fun () ->
      { live_certificates = Hashtbl.length t.tables.(slot Certificate);
        live_bench = Hashtbl.length t.tables.(slot Bench_history);
        journal_records = t.journal_records;
        segment_records = t.segment_records;
        journal_bytes =
          (try (Unix.stat t.journal_path).Unix.st_size with Unix.Unix_error _ -> 0);
        segment_bytes = t.segment_bytes;
        replayed = t.replayed;
        corrupt = t.corrupt;
        truncated_bytes = t.truncated_bytes;
        compactions = t.compactions;
        appends = t.appends;
        hits = t.hits;
        misses = t.misses })

type report = {
  r_segment_records : int;
  r_journal_records : int;
  r_corrupt : int;
  r_torn_bytes : int;
}

let verify dir =
  let seg = load_segment (Filename.concat dir "segment.pmi") (fun _ ~key:_ _ -> ()) in
  let data = read_file (Filename.concat dir "journal.pmi") in
  let jnl = scan_records data ~off:0 ~limit:(String.length data) in
  { r_segment_records = seg.s_records;
    r_journal_records = jnl.s_records;
    r_corrupt = seg.s_corrupt + jnl.s_corrupt;
    r_torn_bytes = String.length data - jnl.s_valid_end }
