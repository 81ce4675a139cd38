(* The durable store: journal framing and recovery (torn tails truncated,
   checksum-rejected records skipped without failing open), last-writer-wins
   semantics across a reopen, byte-level idempotence of open/close, a
   QCheck round-trip against a reference table, stores holding records of
   the retired measurement and bench-history kinds (codes 0 and 2), which
   open cleanly and skip those records, a [segment.pmi] left by an older
   build, which is ignored, and [verify] refusing a directory that does not
   exist.  This suite is also wired as `dune build @store`. *)

module Store = Pmi_store.Store

(* ------------------------------------------------------------------ *)
(* Helpers                                                             *)

let temp_dir () =
  let path = Filename.temp_file "pmi-test-store" "" in
  Sys.remove path;
  path

let journal dir = Filename.concat dir "journal.pmi"
let segment dir = Filename.concat dir "segment.pmi"

let live s = (Store.stats s).Store.live_certificates

let read_file path =
  if Sys.file_exists path then
    In_channel.with_open_bin path In_channel.input_all
  else ""

let write_file path data =
  Out_channel.with_open_bin path (fun oc -> Out_channel.output_string oc data)

let with_store dir f =
  let s = Store.open_ dir in
  Fun.protect ~finally:(fun () -> Store.close s) (fun () -> f s)

(* ------------------------------------------------------------------ *)
(* Basics                                                              *)

let test_put_get_roundtrip () =
  let dir = temp_dir () in
  with_store dir (fun s ->
      Store.put s ~key:"c1" "digest";
      Store.put s ~key:"c2" "other digest";
      Store.put s ~key:"c3" "third digest";
      Alcotest.(check (option string)) "certificate" (Some "digest")
        (Store.get s ~key:"c1");
      Alcotest.(check (option string)) "absent key" None
        (Store.get s ~key:"b1");
      Alcotest.(check (option string)) "third certificate"
        (Some "third digest") (Store.get s ~key:"c3"));
  Alcotest.(check (array string)) "the journal is the only file"
    [| "journal.pmi" |] (Sys.readdir dir);
  (* Everything survives a close/reopen. *)
  with_store dir (fun s ->
      Alcotest.(check int) "certificates live" 3 (live s);
      Alcotest.(check (option string)) "value survives" (Some "other digest")
        (Store.get s ~key:"c2");
      let st = Store.stats s in
      Alcotest.(check int) "no corruption" 0 st.Store.corrupt;
      Alcotest.(check int) "replayed all three" 3 st.Store.replayed)

let test_identical_reput_is_noop () =
  let dir = temp_dir () in
  with_store dir (fun s ->
      Store.put s ~key:"k" "v";
      let before = (Store.stats s).Store.journal_records in
      Store.put s ~key:"k" "v";
      Alcotest.(check int) "journal did not grow" before
        (Store.stats s).Store.journal_records;
      Store.put s ~key:"k" "v2";
      Alcotest.(check int) "a new value does" (before + 1)
        (Store.stats s).Store.journal_records;
      Alcotest.(check (option string)) "last writer wins" (Some "v2")
        (Store.get s ~key:"k"))

(* ------------------------------------------------------------------ *)
(* Recovery                                                            *)

let populate dir n =
  with_store dir (fun s ->
      for i = 0 to n - 1 do
        Store.put s
          ~key:(Printf.sprintf "key-%02d" i)
          (Printf.sprintf "value-%02d" i)
      done)

let test_torn_tail_truncated () =
  (* Cut the journal at every byte offset of the final record: whatever
     the crash left behind, recovery must keep all complete records, see
     zero corruption, and leave the file appendable. *)
  let dir = temp_dir () in
  populate dir 4;
  let whole = read_file (journal dir) in
  let len = String.length whole in
  (* Locate the final record's start: records are identical in size here,
     so it is 3/4 of the file. *)
  let last = len * 3 / 4 in
  List.iter
    (fun cut ->
       write_file (journal dir) (String.sub whole 0 cut);
       let report = Store.verify dir in
       Alcotest.(check int)
         (Printf.sprintf "verify at cut %d: nothing corrupt" cut)
         0 report.Store.r_corrupt;
       with_store dir (fun s ->
           let st = Store.stats s in
           Alcotest.(check int)
             (Printf.sprintf "cut %d keeps the complete records" cut)
             3 (live s);
           Alcotest.(check int)
             (Printf.sprintf "cut %d reports no corruption" cut)
             0 st.Store.corrupt;
           Alcotest.(check int)
             (Printf.sprintf "cut %d truncates the tail" cut)
             (cut - last) st.Store.truncated_bytes;
           (* The store must stay writable on the recovered boundary. *)
           Store.put s ~key:"after" "crash");
       with_store dir (fun s ->
           Alcotest.(check (option string))
             (Printf.sprintf "cut %d: post-recovery append survives" cut)
             (Some "crash")
             (Store.get s ~key:"after")))
    [ last + 1; last + 11; last + 12; len - 1 ]

let test_bit_flip_rejected () =
  (* Flip one payload byte of the second record: that record is rejected
     by its checksum, every other record survives, and open does not
     fail. *)
  let dir = temp_dir () in
  populate dir 3;
  let whole = read_file (journal dir) in
  let record = String.length whole / 3 in
  let b = Bytes.of_string whole in
  let target = record + 14 (* a payload byte of record #2 *) in
  Bytes.set b target (Char.chr (Char.code (Bytes.get b target) lxor 0x01));
  write_file (journal dir) (Bytes.to_string b);
  let report = Store.verify dir in
  Alcotest.(check int) "verify counts one corrupt record" 1
    report.Store.r_corrupt;
  Alcotest.(check int) "verify sees no torn tail" 0 report.Store.r_torn_bytes;
  with_store dir (fun s ->
      let st = Store.stats s in
      Alcotest.(check int) "one record rejected" 1 st.Store.corrupt;
      Alcotest.(check int) "the others survive" 2
        (live s);
      Alcotest.(check (option string)) "record before the flip" (Some "value-00")
        (Store.get s ~key:"key-00");
      Alcotest.(check (option string)) "record after the flip" (Some "value-02")
        (Store.get s ~key:"key-02");
      Alcotest.(check (option string)) "the flipped record is gone" None
        (Store.get s ~key:"key-01"))

(* ------------------------------------------------------------------ *)
(* Reopen                                                              *)

let test_lww_across_reopen () =
  let dir = temp_dir () in
  with_store dir (fun s ->
      Store.put s ~key:"k" "v1";
      Store.put s ~key:"k" "v2";
      Store.put s ~key:"other" "o";
      Store.put s ~key:"k" "v3";
      Alcotest.(check (option string)) "last writer wins" (Some "v3")
        (Store.get s ~key:"k"));
  with_store dir (fun s ->
      Alcotest.(check (option string)) "winner survives reopen" (Some "v3")
        (Store.get s ~key:"k");
      Alcotest.(check int) "two live" 2 (live s);
      Alcotest.(check int) "every write replayed" 4
        (Store.stats s).Store.journal_records)

let test_open_close_idempotent () =
  let dir = temp_dir () in
  populate dir 5;
  let jnl = read_file (journal dir) in
  (* A clean open/close sequence, and re-putting what is stored, must not
     move a byte of the journal. *)
  with_store dir (fun s -> ignore (Store.stats s));
  Alcotest.(check string) "journal untouched" jnl (read_file (journal dir));
  with_store dir (fun s -> Store.put s ~key:"key-03" "value-03");
  Alcotest.(check string) "identical re-put leaves the journal as is" jnl
    (read_file (journal dir))

(* ------------------------------------------------------------------ *)
(* Randomised round-trip                                               *)

let prop_random_roundtrip =
  let open QCheck2 in
  let put =
    Gen.(map2
           (fun key v -> (Printf.sprintf "k%d" key, v))
           (int_range 0 31)
           (string_size ~gen:printable (int_range 0 40)))
  in
  Test.make ~name:"random ops survive close/reopen" ~count:50
    Gen.(list_size (int_range 1 60) put)
    (fun puts ->
       let dir = temp_dir () in
       let reference = Hashtbl.create 64 in
       with_store dir (fun s ->
           List.iter
             (fun (key, v) ->
                Hashtbl.replace reference key v;
                Store.put s ~key v)
             puts);
       with_store dir (fun s ->
           Hashtbl.iter
             (fun key v ->
                if Store.get s ~key <> Some v then
                  Test.fail_reportf "key %s lost or changed" key)
             reference;
           Hashtbl.length reference = live s
           && (Store.stats s).Store.corrupt = 0))

(* ------------------------------------------------------------------ *)
(* Stores written while measurements were a record kind                *)

(* CRC32 (IEEE 802.3), written out here so the test frames records from
   the documented on-disk format rather than through [Store]. *)
let crc32 s =
  let c = ref 0xFFFFFFFF in
  String.iter
    (fun ch ->
       c := !c lxor Char.code ch;
       for _ = 0 to 7 do
         c := if !c land 1 = 1 then 0xEDB88320 lxor (!c lsr 1) else !c lsr 1
       done)
    s;
  !c lxor 0xFFFFFFFF

(* One journal record: "PMIR" | u32 payload length | u32 crc | payload,
   payload = u8 version 1 | u8 kind code | u16 key length | key | u32 value
   length | value, all little-endian. *)
let frame_record ~code ~key value =
  let p = Buffer.create 64 in
  Buffer.add_uint8 p 1;
  Buffer.add_uint8 p code;
  Buffer.add_uint16_le p (String.length key);
  Buffer.add_string p key;
  Buffer.add_int32_le p (Int32.of_int (String.length value));
  Buffer.add_string p value;
  let payload = Buffer.contents p in
  let r = Buffer.create 80 in
  Buffer.add_string r "PMIR";
  Buffer.add_int32_le r (Int32.of_int (String.length payload));
  Buffer.add_int32_le r (Int32.of_int (crc32 payload));
  Buffer.add_string r payload;
  Buffer.contents r

(* A store holding one certificate and one record of a retired kind
   [code], appended to the journal as the deleted writer framed it. *)
let check_retired_kind ~code ~key value =
  let dir = temp_dir () in
  with_store dir (fun s -> Store.put s ~key:"c" "digest");
  Out_channel.with_open_gen [ Open_append; Open_binary ] 0o644 (journal dir)
    (fun oc -> Out_channel.output_string oc (frame_record ~code ~key value));
  (* The framing helper matches the store's own records byte for byte. *)
  Alcotest.(check string) "framing matches the store"
    (frame_record ~code:1 ~key:"c" "digest")
    (String.sub (read_file (journal dir)) 0
       (String.length (frame_record ~code:1 ~key:"c" "digest")));
  let report = Store.verify dir in
  Alcotest.(check int) "verify: nothing corrupt" 0 report.Store.r_corrupt;
  Alcotest.(check int) "verify: both records intact" 2
    report.Store.r_journal_records;
  with_store dir (fun s ->
      let st = Store.stats s in
      Alcotest.(check int) "opens with nothing corrupt" 0 st.Store.corrupt;
      Alcotest.(check int) "nothing truncated" 0 st.Store.truncated_bytes;
      Alcotest.(check (option string)) "certificate kept" (Some "digest")
        (Store.get s ~key:"c");
      Alcotest.(check int) "one live record" 1 (live s);
      Alcotest.(check (option string)) "the retired record is skipped" None
        (Store.get s ~key))

(* A measurement record as the harness's durable tier wrote them: kind
   code 0, fingerprint|experiment key, num:den:spread-bits:retired-ops. *)
let test_retired_measurement_kind () =
  check_retired_kind ~code:0 ~key:"0123456789abcdef|3.1" "7:2:0:3"

(* A bench-history record as `bench --store` wrote them: kind code 2, the
   hex digest of the bench JSON record as key, the record as value. *)
let test_retired_bench_kind () =
  let record = {|{"schema_version":1,"results":[]}|} in
  check_retired_kind ~code:2 ~key:(Digest.to_hex (Digest.string record))
    record

(* A segment as older builds compacted them: "PMISEG1\n", the same record
   framing, then an index ([u32 entry count · (u8 kind · u16 key length ·
   key · u64 offset)*]) and a 16-byte footer ([u64 index offset · u32
   index CRC32 · "PMIX"]). *)
let legacy_segment ~key value =
  let header = "PMISEG1\n" in
  let record = frame_record ~code:1 ~key value in
  let index = Buffer.create 32 in
  Buffer.add_int32_le index 1l;
  Buffer.add_uint8 index 1;
  Buffer.add_uint16_le index (String.length key);
  Buffer.add_string index key;
  Buffer.add_int64_le index (Int64.of_int (String.length header));
  let index = Buffer.contents index in
  let footer = Buffer.create 16 in
  Buffer.add_int64_le footer
    (Int64.of_int (String.length header + String.length record));
  Buffer.add_int32_le footer (Int32.of_int (crc32 index));
  Buffer.add_string footer "PMIX";
  String.concat "" [ header; record; index; Buffer.contents footer ]

(* The store reads only its journal: a certificate that exists only in a
   legacy segment is a cache miss, so a certified run re-checks it rather
   than trusting it unchecked. *)
let test_legacy_segment_ignored () =
  let dir = temp_dir () in
  with_store dir (fun s -> Store.put s ~key:"c" "digest");
  let seg = legacy_segment ~key:"old" "old digest" in
  write_file (segment dir) seg;
  with_store dir (fun s ->
      let st = Store.stats s in
      Alcotest.(check int) "opens with nothing corrupt" 0 st.Store.corrupt;
      Alcotest.(check int) "nothing truncated" 0 st.Store.truncated_bytes;
      Alcotest.(check (option string)) "segment-only key is a miss" None
        (Store.get s ~key:"old");
      Alcotest.(check (option string)) "journal certificate kept"
        (Some "digest") (Store.get s ~key:"c");
      Alcotest.(check int) "one live record" 1 (live s));
  let report = Store.verify dir in
  Alcotest.(check int) "verify reports the journal only" 1
    report.Store.r_journal_records;
  Alcotest.(check int) "verify: nothing corrupt" 0 report.Store.r_corrupt;
  Alcotest.(check int) "verify: no torn tail" 0 report.Store.r_torn_bytes;
  Alcotest.(check string) "the segment is left as it was" seg
    (read_file (segment dir))

(* [verify] is read-only: on a path with no store it must fail rather than
   report a clean empty store, and it must not create the directory. *)
let test_verify_missing_dir () =
  let dir = temp_dir () in
  (match Store.verify dir with
   | _ -> Alcotest.fail "verify accepted a directory that does not exist"
   | exception Sys_error _ -> ());
  Alcotest.(check bool) "nothing created" false (Sys.file_exists dir)

(* ------------------------------------------------------------------ *)

let qsuite tests = List.map QCheck_alcotest.to_alcotest tests

let () =
  Alcotest.run "store"
    [ ("basics",
       [ Alcotest.test_case "put/get round-trip" `Quick test_put_get_roundtrip;
         Alcotest.test_case "identical re-put is a no-op" `Quick
           test_identical_reput_is_noop ]);
      ("recovery",
       [ Alcotest.test_case "torn tail truncated" `Quick
           test_torn_tail_truncated;
         Alcotest.test_case "bit flip rejected" `Quick test_bit_flip_rejected ]);
      ("reopen",
       [ Alcotest.test_case "last writer wins" `Quick test_lww_across_reopen;
         Alcotest.test_case "open/close idempotent" `Quick
           test_open_close_idempotent ]);
      ("random", qsuite [ prop_random_roundtrip ]);
      ("retired",
       [ Alcotest.test_case "measurement records skipped" `Quick
           test_retired_measurement_kind;
         Alcotest.test_case "bench records skipped" `Quick
           test_retired_bench_kind ]);
      ("legacy",
       [ Alcotest.test_case "segment ignored" `Quick
           test_legacy_segment_ignored ]);
      ("verify",
       [ Alcotest.test_case "missing directory fails" `Quick
           test_verify_missing_dir ]) ]
