(* The durable store: journal framing and recovery (torn tails truncated,
   checksum-rejected records skipped without failing open), last-writer-wins
   semantics across compaction, byte-level idempotence of open/close and of
   repeated compaction, a QCheck round-trip against a reference table, and
   stores holding records of the retired measurement kind (code 0), which
   open cleanly and lose those records at compaction.  This suite is also
   wired as `dune build @store`. *)

module Store = Pmi_store.Store

(* ------------------------------------------------------------------ *)
(* Helpers                                                             *)

let temp_dir () =
  let path = Filename.temp_file "pmi-test-store" "" in
  Sys.remove path;
  path

let journal dir = Filename.concat dir "journal.pmi"
let segment dir = Filename.concat dir "segment.pmi"

let read_file path =
  if Sys.file_exists path then
    In_channel.with_open_bin path In_channel.input_all
  else ""

let write_file path data =
  Out_channel.with_open_bin path (fun oc -> Out_channel.output_string oc data)

let with_store ?auto_compact dir f =
  let s = Store.open_ ?auto_compact dir in
  Fun.protect ~finally:(fun () -> Store.close s) (fun () -> f s)

(* ------------------------------------------------------------------ *)
(* Basics                                                              *)

let test_put_get_roundtrip () =
  let dir = temp_dir () in
  with_store dir (fun s ->
      Store.put s Store.Certificate ~key:"c1" "digest";
      Store.put s Store.Certificate ~key:"c2" "other digest";
      Store.put s Store.Bench_history ~key:"b1" "{}";
      Alcotest.(check (option string)) "certificate" (Some "digest")
        (Store.get s Store.Certificate ~key:"c1");
      Alcotest.(check (option string)) "kinds are separate namespaces" None
        (Store.get s Store.Bench_history ~key:"c1");
      Alcotest.(check bool) "mem" true (Store.mem s Store.Bench_history ~key:"b1"));
  (* Everything survives a close/reopen. *)
  with_store dir (fun s ->
      Alcotest.(check int) "certificates live" 2 (Store.live s Store.Certificate);
      Alcotest.(check (option string)) "value survives" (Some "other digest")
        (Store.get s Store.Certificate ~key:"c2");
      let st = Store.stats s in
      Alcotest.(check int) "no corruption" 0 st.Store.corrupt;
      Alcotest.(check int) "replayed all three" 3 st.Store.replayed)

let test_identical_reput_is_noop () =
  let dir = temp_dir () in
  with_store dir (fun s ->
      Store.put s Store.Certificate ~key:"k" "v";
      let before = (Store.stats s).Store.journal_records in
      Store.put s Store.Certificate ~key:"k" "v";
      Alcotest.(check int) "journal did not grow" before
        (Store.stats s).Store.journal_records;
      Store.put s Store.Certificate ~key:"k" "v2";
      Alcotest.(check int) "a new value does" (before + 1)
        (Store.stats s).Store.journal_records;
      Alcotest.(check (option string)) "last writer wins" (Some "v2")
        (Store.get s Store.Certificate ~key:"k"))

(* ------------------------------------------------------------------ *)
(* Recovery                                                            *)

let populate dir n =
  with_store dir (fun s ->
      for i = 0 to n - 1 do
        Store.put s Store.Certificate
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
             3 (Store.live s Store.Certificate);
           Alcotest.(check int)
             (Printf.sprintf "cut %d reports no corruption" cut)
             0 st.Store.corrupt;
           Alcotest.(check int)
             (Printf.sprintf "cut %d truncates the tail" cut)
             (cut - last) st.Store.truncated_bytes;
           (* The store must stay writable on the recovered boundary. *)
           Store.put s Store.Certificate ~key:"after" "crash");
       with_store dir (fun s ->
           Alcotest.(check (option string))
             (Printf.sprintf "cut %d: post-recovery append survives" cut)
             (Some "crash")
             (Store.get s Store.Certificate ~key:"after")))
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
        (Store.live s Store.Certificate);
      Alcotest.(check (option string)) "record before the flip" (Some "value-00")
        (Store.get s Store.Certificate ~key:"key-00");
      Alcotest.(check (option string)) "record after the flip" (Some "value-02")
        (Store.get s Store.Certificate ~key:"key-02");
      Alcotest.(check (option string)) "the flipped record is gone" None
        (Store.get s Store.Certificate ~key:"key-01"))

(* ------------------------------------------------------------------ *)
(* Compaction                                                          *)

let test_lww_after_compaction () =
  let dir = temp_dir () in
  with_store dir (fun s ->
      Store.put s Store.Certificate ~key:"k" "v1";
      Store.put s Store.Certificate ~key:"k" "v2";
      Store.put s Store.Certificate ~key:"other" "o";
      Store.put s Store.Certificate ~key:"k" "v3";
      Store.compact s;
      Alcotest.(check (option string)) "last writer wins" (Some "v3")
        (Store.get s Store.Certificate ~key:"k");
      let st = Store.stats s in
      Alcotest.(check int) "journal truncated" 0 st.Store.journal_records;
      Alcotest.(check int) "segment holds only live records" 2
        st.Store.segment_records);
  with_store dir (fun s ->
      Alcotest.(check (option string)) "winner survives reopen" (Some "v3")
        (Store.get s Store.Certificate ~key:"k");
      Alcotest.(check int) "still two live" 2 (Store.live s Store.Certificate))

let test_open_close_idempotent () =
  let dir = temp_dir () in
  populate dir 5;
  with_store dir (fun s -> Store.compact s);
  let jnl = read_file (journal dir) in
  let seg = read_file (segment dir) in
  (* A clean open/close sequence must not move a byte of either file, and
     re-compacting the identical live set must reproduce the segment
     exactly (deterministic record order). *)
  with_store dir (fun s -> ignore (Store.stats s));
  Alcotest.(check string) "journal untouched" jnl (read_file (journal dir));
  Alcotest.(check string) "segment untouched" seg (read_file (segment dir));
  with_store dir (fun s -> Store.compact s);
  Alcotest.(check string) "re-compaction is byte-identical" seg
    (read_file (segment dir))

(* ------------------------------------------------------------------ *)
(* Randomised round-trip                                               *)

let prop_random_roundtrip =
  let open QCheck2 in
  let kind_of = function
    | 0 -> Store.Certificate
    | _ -> Store.Bench_history
  in
  let op =
    Gen.(oneof
           [ map3
               (fun k key v -> `Put (kind_of k, Printf.sprintf "k%d" key, v))
               (int_range 0 1) (int_range 0 15)
               (string_size ~gen:printable (int_range 0 40));
             return `Compact ])
  in
  Test.make ~name:"random ops survive close/reopen" ~count:50
    Gen.(list_size (int_range 1 60) op)
    (fun ops ->
       let dir = temp_dir () in
       let reference = Hashtbl.create 64 in
       with_store ~auto_compact:7 dir (fun s ->
           List.iter
             (function
               | `Put (kind, key, v) ->
                 Hashtbl.replace reference (kind, key) v;
                 Store.put s kind ~key v
               | `Compact -> Store.compact s)
             ops);
       with_store dir (fun s ->
           Hashtbl.iter
             (fun (kind, key) v ->
                if Store.get s kind ~key <> Some v then
                  Test.fail_reportf "key %s lost or changed" key)
             reference;
           let live_total =
             Store.live s Store.Certificate + Store.live s Store.Bench_history
           in
           Hashtbl.length reference = live_total
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

let contains s sub =
  let n = String.length s and m = String.length sub in
  let rec go i = i + m <= n && (String.sub s i m = sub || go (i + 1)) in
  go 0

let test_retired_measurement_kind () =
  let dir = temp_dir () in
  with_store dir (fun s -> Store.put s Store.Certificate ~key:"c" "digest");
  (* A measurement record as the harness's durable tier wrote them: kind
     code 0, fingerprint|experiment key, num:den:spread-bits:retired-ops. *)
  let key = "0123456789abcdef|3.1" in
  Out_channel.with_open_gen [ Open_append; Open_binary ] 0o644 (journal dir)
    (fun oc ->
       Out_channel.output_string oc
         (frame_record ~code:0 ~key "7:2:0:3"));
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
        (Store.get s Store.Certificate ~key:"c");
      Alcotest.(check int) "one live record" 1
        (Store.live s Store.Certificate + Store.live s Store.Bench_history);
      Store.compact s;
      Alcotest.(check int) "compaction keeps the certificate only" 1
        (Store.stats s).Store.segment_records);
  Alcotest.(check bool) "the measurement is compacted away" false
    (contains (read_file (segment dir)) key);
  let report = Store.verify dir in
  Alcotest.(check int) "verify after compaction: nothing corrupt" 0
    report.Store.r_corrupt;
  with_store dir (fun s ->
      Alcotest.(check (option string)) "certificate survives compaction"
        (Some "digest") (Store.get s Store.Certificate ~key:"c"))

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
      ("compaction",
       [ Alcotest.test_case "last writer wins" `Quick test_lww_after_compaction;
         Alcotest.test_case "open/close and re-compaction idempotent" `Quick
           test_open_close_idempotent ]);
      ("random", qsuite [ prop_random_roundtrip ]);
      ("retired",
       [ Alcotest.test_case "measurement records skipped and compacted away"
           `Quick test_retired_measurement_kind ]) ]
