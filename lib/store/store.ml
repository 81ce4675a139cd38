module Obs = Pmi_obs.Obs

(* Telemetry (process-wide, like every other subsystem's counters). *)
let c_appends = Obs.counter "store.appends"
let c_hits = Obs.counter "store.hits"
let c_misses = Obs.counter "store.misses"
let c_replayed = Obs.counter "store.replayed"
let c_corrupt = Obs.counter "store.corrupt"
let c_recovered = Obs.counter "store.recovered"

(* On-disk kind codes.  Certificates are code 1.  Codes 0 (harness
   measurements) and 2 (bench history) held record kinds that no longer
   exist: such records are intact, so replay skips them without counting
   them corrupt. *)
let certificate_code = 1
let retired_code code = code = 0 || code = 2

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
   u32le vlen | value. *)

let record_magic = 0x52494D50 (* "PMIR" little-endian *)
let record_version = 1
let header_bytes = 12
let max_payload = 1 lsl 24 (* 16 MiB: anything larger is framing damage *)

let get_u32 s off = Int32.to_int (String.get_int32_le s off) land 0xFFFFFFFF

let set_u32 b off v = Bytes.set_int32_le b off (Int32.of_int v)

let encode_record ~key value =
  let klen = String.length key and vlen = String.length value in
  if klen > 0xFFFF then invalid_arg "Store.put: key longer than 65535 bytes";
  let payload_len = 2 + 2 + klen + 4 + vlen in
  if payload_len > max_payload then
    invalid_arg "Store.put: record exceeds the 16 MiB bound";
  let b = Bytes.create (header_bytes + payload_len) in
  set_u32 b 0 record_magic;
  set_u32 b 4 payload_len;
  Bytes.set_uint8 b 12 record_version;
  Bytes.set_uint8 b 13 certificate_code;
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
    if code <> certificate_code && not (retired_code code) then None
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

(* Walk the journal's records, calling [apply] on every intact
   certificate record.  A short or unframed tail stops the walk (torn); a
   complete record with a bad checksum or unparsable payload is skipped
   (corrupt), because the framing still carries us to the next record. *)
let scan_records ?(apply = fun ~key:_ _ -> ()) data =
  let limit = String.length data in
  let s = { s_records = 0; s_corrupt = 0; s_valid_end = 0 } in
  let pos = ref 0 in
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
             if code = certificate_code then apply ~key value);
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
  journal_path : string;
  table : (string, string) Hashtbl.t;
  lock : Mutex.t;
  oc : out_channel;
  mutable closed : bool;
  replayed : int;
  corrupt : int;
  truncated_bytes : int;
  mutable appends : int;
  mutable hits : int;
  mutable misses : int;
  crash_after : int option; (* PMI_STORE_CRASH_AFTER: CI fault injection *)
}

type stats = {
  live_certificates : int;
  journal_records : int;
  journal_bytes : int;
  replayed : int;
  corrupt : int;
  truncated_bytes : int;
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

let journal_file dir = Filename.concat dir "journal.pmi"

let open_ dir =
  mkdir_p dir;
  let journal_path = journal_file dir in
  let table = Hashtbl.create 256 in
  let apply ~key value = Hashtbl.replace table key value in
  Obs.span "store.replay" @@ fun () ->
  let data = read_file journal_path in
  let jnl = scan_records ~apply data in
  let truncated = String.length data - jnl.s_valid_end in
  if truncated > 0 then begin
    (* Torn tail (or unframed garbage): drop it so the next append starts
       on a record boundary. *)
    Unix.truncate journal_path jnl.s_valid_end;
    Obs.incr c_recovered
  end;
  Obs.add c_replayed jnl.s_records;
  Obs.add c_corrupt jnl.s_corrupt;
  let oc =
    open_out_gen [ Open_append; Open_creat; Open_binary ] 0o644 journal_path
  in
  let crash_after =
    match Sys.getenv_opt "PMI_STORE_CRASH_AFTER" with
    | Some s -> int_of_string_opt s
    | None -> None
  in
  { journal_path;
    table;
    lock = Mutex.create ();
    oc;
    closed = false;
    replayed = jnl.s_records;
    corrupt = jnl.s_corrupt;
    truncated_bytes = truncated;
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
    let torn = encode_record ~key:"__crash__" "torn tail" in
    let half = Bytes.sub torn 0 (Bytes.length torn / 2) in
    output_bytes t.oc half;
    flush t.oc;
    Unix.kill (Unix.getpid ()) Sys.sigkill
  | _ -> ()

let put t ~key value =
  with_lock t (fun () ->
      match Hashtbl.find_opt t.table key with
      | Some v when String.equal v value -> () (* identical re-put: no-op *)
      | _ ->
        Obs.span "store.append" (fun () ->
            Hashtbl.replace t.table key value;
            output_bytes t.oc (encode_record ~key value);
            flush t.oc;
            t.appends <- t.appends + 1;
            Obs.incr c_appends;
            maybe_crash t))

let get t ~key =
  with_lock t (fun () ->
      match Hashtbl.find_opt t.table key with
      | Some v ->
        t.hits <- t.hits + 1;
        Obs.incr c_hits;
        Some v
      | None ->
        t.misses <- t.misses + 1;
        Obs.incr c_misses;
        None)

let stats t =
  with_lock t (fun () ->
      { live_certificates = Hashtbl.length t.table;
        journal_records = t.replayed + t.appends;
        journal_bytes =
          (try (Unix.stat t.journal_path).Unix.st_size with Unix.Unix_error _ -> 0);
        replayed = t.replayed;
        corrupt = t.corrupt;
        truncated_bytes = t.truncated_bytes;
        appends = t.appends;
        hits = t.hits;
        misses = t.misses })

type report = {
  r_journal_records : int;
  r_corrupt : int;
  r_torn_bytes : int;
}

let verify dir =
  if not (Sys.file_exists dir && Sys.is_directory dir) then
    raise (Sys_error (dir ^ ": no store directory"));
  let data = read_file (journal_file dir) in
  let jnl = scan_records data in
  { r_journal_records = jnl.s_records;
    r_corrupt = jnl.s_corrupt;
    r_torn_bytes = String.length data - jnl.s_valid_end }
