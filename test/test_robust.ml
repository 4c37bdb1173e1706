(* Tests for the fault-tolerant pipeline (DESIGN.md §12): CRC framing
   and resync in the binary format, exact loss accounting, error
   budgets, batch abandonment, and checkpointed replay with
   byte-identical resume.  The corruption tests write one-record frames
   ([~frame:1]), so one damaged frame loses exactly one record. *)

module Anomaly = Iocov_util.Anomaly
module Crc32 = Iocov_util.Crc32
module Event = Iocov_trace.Event
module Filter = Iocov_trace.Filter
module Format_io = Iocov_trace.Format_io
module Binary_io = Iocov_trace.Binary_io
module Coverage = Iocov_core.Coverage
module Snapshot = Iocov_core.Snapshot
module Checkpoint = Iocov_par.Checkpoint
module Replay = Iocov_par.Replay

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)
let check_string = Alcotest.(check string)

let synth_events = Test_par.synth_events
let sequential_coverage = Test_par.sequential_coverage
let with_temp_file = Test_par.with_temp_file

let filter = Filter.mount_point "/mnt/test"

let write_binary ?chapter ?frame path events =
  let oc = open_out_bin path in
  let w = Binary_io.writer ?chapter ?frame oc in
  List.iter (Binary_io.sink w) events;
  Binary_io.flush w;
  close_out oc

(* byte offset of every frame, recovered with a clean strict read *)
let frame_offsets path =
  let ic = open_in_bin path in
  Fun.protect ~finally:(fun () -> close_in_noerr ic) (fun () ->
      match Binary_io.open_stream ic with
      | Error msg -> Alcotest.failf "open_stream: %s" msg
      | Ok st ->
        let offs = ref [] in
        let continue = ref true in
        while !continue do
          let off = pos_in ic in
          match Binary_io.read_batch st ~max:1 with
          | Error msg -> Alcotest.failf "read_batch: %s" msg
          | Ok b when Array.length b = 0 -> continue := false
          | Ok _ -> offs := off :: !offs
        done;
        Array.of_list (List.rev !offs))

let read_file path =
  let ic = open_in_bin path in
  let n = in_channel_length ic in
  let b = Bytes.create n in
  really_input ic b 0 n;
  close_in ic;
  b

let write_file path b =
  let oc = open_out_bin path in
  output_bytes oc b;
  close_out oc

let flip_bytes path offsets =
  let b = read_file path in
  List.iter
    (fun off -> Bytes.set b off (Char.chr (Char.code (Bytes.get b off) lxor 0x40)))
    offsets;
  write_file path b

let truncate_file path len =
  let b = read_file path in
  write_file path (Bytes.sub b 0 len)

(* drain a whole stream in the given mode; Ok (events, completeness) *)
let read_all ?(mode = Binary_io.Strict) path =
  let ic = open_in_bin path in
  Fun.protect ~finally:(fun () -> close_in_noerr ic) (fun () ->
      match Binary_io.open_stream ~mode ic with
      | Error msg -> Error msg
      | Ok st ->
        let rec go acc =
          match Binary_io.read_batch st ~max:256 with
          | Error msg -> Error msg
          | Ok b when Array.length b = 0 ->
            Ok (List.rev acc, Binary_io.completeness st)
          | Ok b -> go (List.rev_append (Array.to_list b) acc)
        in
        go [])

let ignore_seq (e : Event.t) = { e with Event.seq = 0 }

(* --- CRC-32 --- *)

let test_crc32_vectors () =
  (* the catalogue check value for reflected CRC-32/ISO-HDLC *)
  check_int "check value" 0xCBF43926 (Crc32.string "123456789");
  check_int "empty" 0 (Crc32.string "");
  let s = "the quick brown fox jumps over the lazy dog" in
  let split = 17 in
  let incremental =
    Crc32.update (Crc32.update 0 s ~pos:0 ~len:split) s ~pos:split
      ~len:(String.length s - split)
  in
  check_int "incremental = whole" (Crc32.string s) incremental

(* --- error budgets --- *)

let test_budget_parse () =
  check_bool "none" true (Anomaly.budget_of_string "none" = Ok Anomaly.Unlimited);
  check_bool "count" true (Anomaly.budget_of_string "64" = Ok (Anomaly.Max_records 64));
  check_bool "percent" true
    (match Anomaly.budget_of_string "0.5%" with
     | Ok (Anomaly.Max_fraction f) -> Float.abs (f -. 0.005) < 1e-9
     | _ -> false);
  check_bool "negative rejected" true (Result.is_error (Anomaly.budget_of_string "-3"));
  check_bool "garbage rejected" true (Result.is_error (Anomaly.budget_of_string "abc"));
  check_bool "over 100% rejected" true (Result.is_error (Anomaly.budget_of_string "150%"))

let test_budget_allows () =
  check_bool "absolute trips online" false
    (Anomaly.budget_allows (Anomaly.Max_records 2) ~bad:3 ~total:10 ~final:false);
  check_bool "absolute within" true
    (Anomaly.budget_allows (Anomaly.Max_records 3) ~bad:3 ~total:10 ~final:false);
  (* fractional budgets need the denominator: never trip before EOF *)
  check_bool "fraction deferred" true
    (Anomaly.budget_allows (Anomaly.Max_fraction 0.01) ~bad:50 ~total:60 ~final:false);
  check_bool "fraction trips at EOF" false
    (Anomaly.budget_allows (Anomaly.Max_fraction 0.01) ~bad:50 ~total:60 ~final:true);
  check_bool "fraction within at EOF" true
    (Anomaly.budget_allows (Anomaly.Max_fraction 0.5) ~bad:3 ~total:100 ~final:true)

let test_completeness_algebra () =
  let clean = Anomaly.clean ~events_read:10 in
  check_bool "clean is clean" true (Anomaly.is_clean clean);
  let dirty =
    { clean with Anomaly.records_skipped = 2; anomalies = [ Anomaly.v Anomaly.Corrupt_record "x" ] }
  in
  check_bool "dirty is not clean" false (Anomaly.is_clean dirty);
  let m = Anomaly.merge clean dirty in
  check_int "events sum" 20 m.Anomaly.events_read;
  check_int "skips sum" 2 m.Anomaly.records_skipped;
  check_int "anomalies concatenated" 1 (List.length m.Anomaly.anomalies)

(* --- retired formats --- *)

(* Headers of the retired v1 (bare records) and v2 (one-record frames,
   chapter size 1024) formats; only the header decides. *)
let old_format_headers = [ (1, "IOCT\x01"); (2, "IOCT\x02\x80\x08") ]

let contains haystack needle =
  let nh = String.length haystack and nn = String.length needle in
  let rec go i = i + nn <= nh && (String.sub haystack i nn = needle || go (i + 1)) in
  go 0

let test_old_formats_refused () =
  List.iter
    (fun (version, header) ->
      with_temp_file (fun path ->
          write_file path (Bytes.of_string (header ^ "\x00\x01\x02\x03"));
          let ic = open_in_bin path in
          Fun.protect ~finally:(fun () -> close_in_noerr ic) (fun () ->
              check_bool
                (Printf.sprintf "v%d still looks like a binary trace" version)
                true (Binary_io.is_binary_trace ic);
              match Binary_io.open_stream ic with
              | Ok _ -> Alcotest.failf "v%d stream opened" version
              | Error msg ->
                check_bool
                  (Printf.sprintf "v%d error names the version" version)
                  true
                  (contains msg (Printf.sprintf "v%d binary trace" version));
                check_bool
                  (Printf.sprintf "v%d error says how to re-trace" version)
                  true
                  (contains msg "iocov trace --binary"))))
    old_format_headers

(* --- corruption recovery --- *)

let test_strict_reports_first_offset () =
  let events = synth_events ~seed:42 200 in
  with_temp_file (fun path ->
      write_binary ~chapter:16 ~frame:1 path events;
      let offs = frame_offsets path in
      let target = offs.(100) + 7 in
      flip_bytes path [ target ];
      match read_all path with
      | Ok _ -> Alcotest.fail "strict read of a corrupt trace succeeded"
      | Error msg ->
        let reported = Scanf.sscanf msg "offset %d:" Fun.id in
        check_bool "offset points at the damaged frame" true
          (reported >= offs.(100) && reported <= target))

let test_lenient_exact_single_flip () =
  let events = synth_events ~seed:43 300 in
  with_temp_file (fun path ->
      write_binary ~chapter:16 ~frame:1 path events;
      let offs = frame_offsets path in
      (* CRC byte of a mid-trace frame: exactly one record damaged *)
      flip_bytes path [ offs.(150) + 4 ];
      match read_all ~mode:(Binary_io.Lenient Anomaly.Unlimited) path with
      | Error msg -> Alcotest.failf "lenient read failed: %s" msg
      | Ok (got, c) ->
        check_int "read + skipped = written" 300
          (List.length got + c.Anomaly.records_skipped);
        check_int "exactly one record lost" 1 c.Anomaly.records_skipped;
        check_int "one corrupt region" 1 c.Anomaly.corrupt_regions;
        check_bool "not truncated" false c.Anomaly.truncated)

let test_lenient_exact_adjacent_frames () =
  (* two consecutive damaged frames collapse into one resync region;
     the in-chapter index gap still yields the exact per-record count.
     Mid-chapter frames (85, 86 with chapter 16) so no table
     introductions for later records are lost with them. *)
  let events = synth_events ~seed:44 300 in
  with_temp_file (fun path ->
      write_binary ~chapter:16 ~frame:1 path events;
      let offs = frame_offsets path in
      flip_bytes path [ offs.(85) + 4; offs.(86) + 4 ];
      match read_all ~mode:(Binary_io.Lenient Anomaly.Unlimited) path with
      | Error msg -> Alcotest.failf "lenient read failed: %s" msg
      | Ok (got, c) ->
        check_int "exactly two records lost" 2 c.Anomaly.records_skipped;
        check_int "read + skipped = written" 300
          (List.length got + c.Anomaly.records_skipped))

let test_lenient_lost_reference_cascade () =
  (* damaging the frame that introduces the shared comm string orphans
     the rest of its chapter; the next chapter restarts the table *)
  let events = synth_events ~seed:45 64 in
  with_temp_file (fun path ->
      write_binary ~chapter:8 ~frame:1 path events;
      let offs = frame_offsets path in
      flip_bytes path [ offs.(8) + 7 ];
      match read_all ~mode:(Binary_io.Lenient Anomaly.Unlimited) path with
      | Error msg -> Alcotest.failf "lenient read failed: %s" msg
      | Ok (got, c) ->
        check_int "read + skipped = written" 64
          (List.length got + c.Anomaly.records_skipped);
        check_bool "cascade bounded by the chapter" true (c.Anomaly.records_skipped <= 8);
        check_bool "lost references were classified" true
          (List.exists
             (fun a -> a.Anomaly.kind = Anomaly.Lost_reference)
             c.Anomaly.anomalies))

let test_lenient_truncated_tail () =
  let events = synth_events ~seed:46 200 in
  with_temp_file (fun path ->
      write_binary ~chapter:16 ~frame:1 path events;
      let size = Bytes.length (read_file path) in
      truncate_file path (size - 5);
      (match read_all ~mode:(Binary_io.Lenient Anomaly.Unlimited) path with
       | Error msg -> Alcotest.failf "lenient read failed: %s" msg
       | Ok (got, c) ->
         check_int "all but the torn record" 199 (List.length got);
         check_bool "flagged truncated" true c.Anomaly.truncated);
      match read_all path with
      | Ok _ -> Alcotest.fail "strict read of a truncated trace succeeded"
      | Error _ -> ())

let test_fuzz_bit_flips_never_raise () =
  let n = 400 in
  let chapter = 16 in
  let events = synth_events ~seed:47 n in
  with_temp_file (fun clean_path ->
      write_binary ~chapter ~frame:1 clean_path events;
      let clean = read_file clean_path in
      let size = Bytes.length clean in
      (* past the magic and the chapter-size varint *)
      let header_end = 7 in
      for seed = 0 to 19 do
        let rng = Iocov_util.Prng.create ~seed:(1000 + seed) in
        let flips = 1 + Iocov_util.Prng.int rng 4 in
        let offsets =
          List.init flips (fun _ ->
              header_end + Iocov_util.Prng.int rng (size - header_end))
        in
        with_temp_file (fun path ->
            write_file path clean;
            flip_bytes path offsets;
            match read_all ~mode:(Binary_io.Lenient Anomaly.Unlimited) path with
            | Error msg -> Alcotest.failf "seed %d: lenient errored: %s" seed msg
            | exception e ->
              Alcotest.failf "seed %d: lenient raised %s" seed (Printexc.to_string e)
            | Ok (got, c) ->
              let read = List.length got in
              if not c.Anomaly.truncated then
                check_int
                  (Printf.sprintf "seed %d: read + skipped = written" seed)
                  n
                  (read + c.Anomaly.records_skipped);
              (* each flip can lose at most its chapter (lost refs)
                 plus the damaged frame's neighbours *)
              check_bool
                (Printf.sprintf "seed %d: bounded blast radius" seed)
                true
                (read >= n - (flips * (chapter + 2))))
      done)

let test_budget_enforced () =
  let events = synth_events ~seed:48 300 in
  with_temp_file (fun path ->
      write_binary ~chapter:16 ~frame:1 path events;
      let offs = frame_offsets path in
      flip_bytes path [ offs.(50) + 4; offs.(150) + 4 ];
      (* zero tolerance: fails on the first skip, online *)
      (match read_all ~mode:(Binary_io.Lenient (Anomaly.Max_records 0)) path with
       | Ok _ -> Alcotest.fail "zero budget accepted corruption"
       | Error msg ->
         check_bool "names the budget" true
           (String.length msg >= 6 && String.sub msg 0 6 = "error "));
      (* roomy absolute budget passes *)
      (match read_all ~mode:(Binary_io.Lenient (Anomaly.Max_records 10)) path with
       | Error msg -> Alcotest.failf "budget 10 rejected 2 bad records: %s" msg
       | Ok (_, c) -> check_int "both skips counted" 2 c.Anomaly.records_skipped);
      (* 2 of 300 is ~0.67%: a 0.1% budget trips at EOF, a 5% one allows *)
      (match read_all ~mode:(Binary_io.Lenient (Anomaly.Max_fraction 0.001)) path with
       | Ok _ -> Alcotest.fail "0.1% budget accepted 0.67% corruption"
       | Error _ -> ());
      match read_all ~mode:(Binary_io.Lenient (Anomaly.Max_fraction 0.05)) path with
      | Error msg -> Alcotest.failf "5%% budget rejected 0.67%% corruption: %s" msg
      | Ok _ -> ())

(* --- v3 format: multi-record frames --- *)

module Model = Iocov_syscall.Model

(* Every string introduced in each chapter's first frame, so damaging
   any later frame loses exactly that frame's records — no reference
   cascade to muddy the ledger. *)
let uniform_events n =
  List.init n (fun seq ->
      {
        Event.seq;
        timestamp_ns = seq * 17;
        pid = 42;
        comm = "bench";
        payload = Event.Tracked (Model.close (seq mod 512));
        outcome = Model.Ret 0;
        path_hint = Some "/mnt/test/f";
      })

let test_v3_round_trip_frames () =
  List.iter
    (fun (n, chapter, frame) ->
      let events = synth_events ~seed:60 n in
      with_temp_file (fun path ->
          write_binary ~chapter ~frame path events;
          match read_all path with
          | Error msg ->
            Alcotest.failf "clean v3 read failed (chapter=%d frame=%d): %s" chapter frame msg
          | Ok (got, c) ->
            let label = Printf.sprintf "chapter=%d frame=%d" chapter frame in
            check_int (label ^ " count") n (List.length got);
            check_bool (label ^ " records identical") true
              (List.for_all2 (fun a b -> ignore_seq a = ignore_seq b) events got);
            check_bool (label ^ " ledger clean") true (Anomaly.is_clean c)))
    [ (500, 16, 4);
      (500, 64, 64);
      (* one-record frames, the smallest blast radius *)
      (500, 16, 1);
      (* frame larger than the chapter: clamped, frames never span chapters *)
      (100, 1, 8);
      (300, 512, 256);
      (* empty trace: header only, zero frames *)
      (0, 16, 4) ]

let test_v3_frame_flip_exact_ledger () =
  let events = uniform_events 400 in
  with_temp_file (fun path ->
      write_binary ~chapter:64 ~frame:8 path events;
      let offs = frame_offsets path in
      (* offs.(8k) is the k-th frame's start; frame 20 holds records
         160..167, mid-chapter, so its loss is exactly its 8 records *)
      flip_bytes path [ offs.(160) + 4 ];
      (match read_all ~mode:(Binary_io.Lenient Anomaly.Unlimited) path with
       | Error msg -> Alcotest.failf "lenient read failed: %s" msg
       | Ok (got, c) ->
         check_int "whole frame lost, nothing else" 8 c.Anomaly.records_skipped;
         check_int "read + skipped = written" 400
           (List.length got + c.Anomaly.records_skipped);
         check_int "one corrupt region" 1 c.Anomaly.corrupt_regions;
         check_bool "not truncated" false c.Anomaly.truncated);
      match read_all path with
      | Ok _ -> Alcotest.fail "strict read of a corrupt v3 trace succeeded"
      | Error _ -> ())

let test_v3_truncated_tail () =
  (* 100 records, chapter 64, frame 8: the tail frame holds 4 records
     (36 mod 8); tearing its last bytes loses exactly that frame *)
  let events = uniform_events 100 in
  with_temp_file (fun path ->
      write_binary ~chapter:64 ~frame:8 path events;
      let size = Bytes.length (read_file path) in
      truncate_file path (size - 5);
      (match read_all ~mode:(Binary_io.Lenient Anomaly.Unlimited) path with
       | Error msg -> Alcotest.failf "lenient read failed: %s" msg
       | Ok (got, c) ->
         check_int "all but the torn tail frame" 96 (List.length got);
         check_bool "flagged truncated" true c.Anomaly.truncated);
      match read_all path with
      | Ok _ -> Alcotest.fail "strict read of a truncated v3 trace succeeded"
      | Error _ -> ())

let test_v3_oversized_strings () =
  (* strings far beyond the writer scratch and reader arena defaults:
     growth paths on both sides, and the dictionary still shares them *)
  let big = String.make 70_000 'p' in
  let events =
    List.init 20 (fun seq ->
        {
          Event.seq;
          timestamp_ns = seq;
          pid = 1;
          comm = "big";
          payload = Event.Tracked (Model.chdir (Model.Path big));
          outcome = Model.Ret 0;
          path_hint = Some big;
        })
  in
  with_temp_file (fun path ->
      write_binary ~chapter:16 ~frame:4 path events;
      match read_all path with
      | Error msg -> Alcotest.failf "oversized-string read failed: %s" msg
      | Ok (got, c) ->
        check_int "count" 20 (List.length got);
        check_bool "records identical" true
          (List.for_all2 (fun a b -> ignore_seq a = ignore_seq b) events got);
        check_bool "ledger clean" true (Anomaly.is_clean c))

let test_v3_fuzz_bit_flips_never_raise () =
  let n = 400 in
  let chapter = 16 in
  let frame = 4 in
  let events = synth_events ~seed:63 n in
  with_temp_file (fun clean_path ->
      write_binary ~chapter ~frame clean_path events;
      let clean = read_file clean_path in
      let size = Bytes.length clean in
      let header_end = 7 in
      for seed = 0 to 19 do
        let rng = Iocov_util.Prng.create ~seed:(2000 + seed) in
        let flips = 1 + Iocov_util.Prng.int rng 4 in
        let offsets =
          List.init flips (fun _ ->
              header_end + Iocov_util.Prng.int rng (size - header_end))
        in
        with_temp_file (fun path ->
            write_file path clean;
            flip_bytes path offsets;
            match read_all ~mode:(Binary_io.Lenient Anomaly.Unlimited) path with
            | Error msg -> Alcotest.failf "seed %d: lenient errored: %s" seed msg
            | exception e ->
              Alcotest.failf "seed %d: lenient raised %s" seed (Printexc.to_string e)
            | Ok (got, c) ->
              let read = List.length got in
              if not c.Anomaly.truncated then
                check_int
                  (Printf.sprintf "seed %d: read + skipped = written" seed)
                  n
                  (read + c.Anomaly.records_skipped);
              (* a flip loses at most its frame plus the rest of its
                 chapter (orphaned references) *)
              check_bool
                (Printf.sprintf "seed %d: bounded blast radius" seed)
                true
                (read >= n - (flips * (chapter + frame + 2))))
      done)

(* Both decoders over one file, lenient: the event path ([read_batch],
   then filter and observe) and the fused dense drain must read, keep,
   lose and count the same records. *)
let check_drain_matches_events label path =
  let mode = Binary_io.Lenient Anomaly.Unlimited in
  let events, ev_comp =
    match read_all ~mode path with
    | Ok r -> r
    | Error msg -> Alcotest.failf "%s: read_batch: %s" label msg
  in
  let ref_cov, ref_kept = sequential_coverage filter events in
  let ic = open_in_bin path in
  Fun.protect ~finally:(fun () -> close_in_noerr ic) (fun () ->
      match Binary_io.open_stream ~mode ic with
      | Error msg -> Alcotest.failf "%s: open_stream: %s" label msg
      | Ok st ->
        let dense = Coverage.Dense.create () in
        let keep_hint h = Filter.matches_hint filter h in
        let produced = ref 0 and kept = ref 0 in
        let no_hint = ref 0 and no_match = ref 0 in
        let continue = ref true in
        while !continue do
          match Binary_io.drain_batch_dense st ~keep_hint ~dense ~max:256 () with
          | Error msg -> Alcotest.failf "%s: drain_batch_dense: %s" label msg
          | Ok d ->
            if d.Binary_io.dr_produced = 0 then continue := false
            else begin
              produced := !produced + d.Binary_io.dr_produced;
              kept := !kept + d.Binary_io.dr_kept;
              no_hint := !no_hint + d.Binary_io.dr_no_hint;
              no_match := !no_match + d.Binary_io.dr_no_match
            end
        done;
        let comp = Binary_io.completeness st in
        check_int (label ^ ": produced = events read") (List.length events) !produced;
        check_int (label ^ ": kept = sequential kept") ref_kept !kept;
        check_int (label ^ ": taxonomy accounts for every record") !produced
          (!kept + !no_hint + !no_match);
        check_int (label ^ ": records skipped") ev_comp.Anomaly.records_skipped
          comp.Anomaly.records_skipped;
        check_int (label ^ ": corrupt regions") ev_comp.Anomaly.corrupt_regions
          comp.Anomaly.corrupt_regions;
        check_int (label ^ ": bytes skipped") ev_comp.Anomaly.bytes_skipped
          comp.Anomaly.bytes_skipped;
        check_bool (label ^ ": truncated") ev_comp.Anomaly.truncated comp.Anomaly.truncated;
        check_string (label ^ ": coverage identical") (Snapshot.to_string ref_cov)
          (Snapshot.to_string (Coverage.Dense.to_reference dense));
        comp)

let test_v3_drain_matches_read_batch () =
  let events = synth_events ~seed:64 2_000 in
  with_temp_file (fun path ->
      write_binary path events;
      let comp = check_drain_matches_events "clean" path in
      check_int "clean: every record read" 2_000 comp.Anomaly.events_read;
      check_bool "clean: ledger clean" true (Anomaly.is_clean comp));
  (* the first frame introduces the comm every record refers to: after
     losing it, the rest of its chapter is lost on both decoders, even
     though the drain never reads the comm string *)
  with_temp_file (fun path ->
      write_binary ~chapter:512 ~frame:64 path events;
      let offs = frame_offsets path in
      flip_bytes path [ offs.(0) + 4 ];
      let comp = check_drain_matches_events "first frame lost" path in
      check_int "first frame lost: its chapter is lost" 512 comp.Anomaly.records_skipped;
      check_int "first frame lost: later chapters read" 1_488 comp.Anomaly.events_read)

(* --- differential: lenient == strict on clean traces --- *)

let test_lenient_strict_identical_on_clean () =
  let events = synth_events ~seed:49 3_000 in
  let ref_cov, ref_kept = sequential_coverage filter events in
  with_temp_file (fun path ->
      write_binary path events;
      List.iter
        (fun ingest ->
          let ic = open_in_bin path in
          let result = Replay.analyze_channel ~batch:128 ~ingest ~filter ic in
          close_in ic;
          match result with
          | Error msg -> Alcotest.failf "replay failed: %s" msg
          | Ok o ->
            let label = match ingest with Replay.Strict -> "strict" | _ -> "lenient" in
            check_string (label ^ " coverage")
              (Snapshot.to_string ref_cov)
              (Snapshot.to_string o.Replay.coverage);
            check_int (label ^ " kept") ref_kept o.Replay.kept;
            check_bool (label ^ " clean") true (Anomaly.is_clean o.Replay.completeness))
        [ Replay.Strict; Replay.Lenient Anomaly.Unlimited ])

let test_lenient_text_skips_bad_lines () =
  let events = synth_events ~seed:50 200 in
  let ref_cov, ref_kept = sequential_coverage filter events in
  with_temp_file (fun path ->
      Out_channel.with_open_text path (fun oc ->
          List.iteri
            (fun i e ->
              if i = 30 || i = 90 || i = 150 then output_string oc "not a trace line\n";
              Format_io.sink_channel oc e)
            events);
      (* strict: fails with the first offending line *)
      let ic = open_in_bin path in
      let strict = Replay.analyze_channel ~filter ic in
      close_in ic;
      (match strict with
       | Ok _ -> Alcotest.fail "strict accepted bad text lines"
       | Error msg -> check_string "first bad line" "line 31" (String.sub msg 0 7));
      (* lenient: skips all three, coverage unharmed *)
      let ic = open_in_bin path in
      let lenient =
        Replay.analyze_channel ~ingest:(Replay.Lenient Anomaly.Unlimited) ~filter ic
      in
      close_in ic;
      match lenient with
      | Error msg -> Alcotest.failf "lenient text replay failed: %s" msg
      | Ok o ->
        check_int "three lines skipped" 3 o.Replay.completeness.Anomaly.records_skipped;
        check_int "kept unchanged" ref_kept o.Replay.kept;
        check_string "coverage unchanged" (Snapshot.to_string ref_cov)
          (Snapshot.to_string o.Replay.coverage);
        check_bool "parse errors carry line numbers" true
          (List.exists
             (fun a -> a.Anomaly.kind = Anomaly.Parse_error && a.Anomaly.line <> None)
             o.Replay.completeness.Anomaly.anomalies))

(* --- batch abandonment --- *)

(* A stage that raises on every record of the first batch: the engine
   is deterministic, so the batch is abandoned on its one attempt. *)
let test_persistent_fault_abandons_batch () =
  let events = synth_events ~seed:52 512 in
  let fault =
    Iocov_pipe.Stage.map ~name:"fault" (fun e ->
        if e.Event.seq < 64 then failwith "persistent fault" else Some e)
  in
  let run ingest =
    Iocov_pipe.Driver.run
      ~config:(Iocov_pipe.Driver.config ~batch:64 ~ingest ())
      ~stages:[ Iocov_pipe.Stage.filter filter; fault ]
      (Iocov_pipe.Source.events events)
  in
  (* lenient: the first batch is abandoned, the rest analyzed *)
  (match run (Replay.Lenient Anomaly.Unlimited) with
   | Error msg -> Alcotest.failf "lenient run failed: %s" msg
   | Ok { Iocov_pipe.Driver.product = p; _ } ->
     let c = p.Iocov_pipe.Sink.completeness in
     check_int "abandoned the first batch" 64 c.Anomaly.events_abandoned;
     check_int "analyzed the rest" 448 p.Iocov_pipe.Sink.events;
     check_bool "abandonment classified" true
       (List.exists (fun a -> a.Anomaly.kind = Anomaly.Batch_abandoned) c.Anomaly.anomalies);
     check_int "no retries" 0 c.Anomaly.batches_retried);
  (* strict: an abandoned batch is fatal *)
  match run Replay.Strict with
  | Ok _ -> Alcotest.fail "strict run accepted an abandoned batch"
  | Error msg ->
    let sub = "batch failed: Failure(\"persistent fault\")" in
    let n = String.length sub in
    let rec contains i = i + n <= String.length msg && (String.sub msg i n = sub || contains (i + 1)) in
    check_bool "error names the fault" true (contains 0)

(* --- checkpointed replay --- *)

let test_checkpoint_resume_byte_identical () =
  let events = synth_events ~seed:55 4_000 in
  with_temp_file (fun trace ->
      write_binary trace events;
      let full =
        match Replay.analyze_file ~filter trace with
        | Ok o -> o
        | Error msg -> Alcotest.failf "full run failed: %s" msg
      in
      with_temp_file (fun ck_path ->
          (* interrupted run: stop at 1500 events, checkpointing as we go *)
          (match
             Replay.analyze_file
               ~checkpoint:{ Replay.ckpt_path = ck_path; ckpt_every = 500 }
               ~limit:1500 ~filter trace
           with
          | Ok o -> check_int "prefix events" 1_500 o.Replay.events
          | Error msg -> Alcotest.failf "interrupted run failed: %s" msg);
          let ck =
            match Checkpoint.load ck_path with
            | Ok ck -> ck
            | Error msg -> Alcotest.failf "checkpoint load failed: %s" msg
          in
          check_int "checkpoint cursor events" 1_500 ck.Checkpoint.events;
          (* resume on the fused drain, and on the event path a
             pass-through stage forces *)
          List.iter
            (fun (name, stage) ->
              match Replay.analyze_file ?stage ~resume:(ck_path, ck) ~filter trace with
              | Error msg -> Alcotest.failf "resume failed: %s" msg
              | Ok o ->
                let label = "resumed " ^ name in
                check_int (label ^ " total events") 4_000 o.Replay.events;
                check_string (label ^ " coverage byte-identical")
                  (Snapshot.to_string full.Replay.coverage)
                  (Snapshot.to_string o.Replay.coverage);
                check_bool (label ^ " provenance") true
                  (o.Replay.completeness.Anomaly.resumed_from = Some ck_path))
            [ ("fused", None); ("event path", Some Fun.id) ]))

let test_checkpoint_rejects_bad_config () =
  let events = synth_events ~seed:56 100 in
  with_temp_file (fun trace ->
      write_binary trace events;
      with_temp_file (fun ck_path ->
          let spec = { Replay.ckpt_path = ck_path; ckpt_every = 0 } in
          check_bool "non-positive interval rejected" true
            (Result.is_error (Replay.analyze_file ~checkpoint:spec ~filter trace))))

let test_checkpoint_load_rejects_garbage () =
  with_temp_file (fun path ->
      write_file path (Bytes.of_string "not a checkpoint at all\n");
      check_bool "garbage is an Error" true (Result.is_error (Checkpoint.load path)));
  (* a torn checkpoint (interrupted write) must also be an Error *)
  let events = synth_events ~seed:57 500 in
  with_temp_file (fun trace ->
      write_binary trace events;
      with_temp_file (fun ck_path ->
          (match
             Replay.analyze_file
               ~checkpoint:{ Replay.ckpt_path = ck_path; ckpt_every = 100 }
               ~filter trace
           with
          | Ok _ -> ()
          | Error msg -> Alcotest.failf "checkpointed run failed: %s" msg);
          let whole = read_file ck_path in
          write_file ck_path (Bytes.sub whole 0 (Bytes.length whole - 30));
          check_bool "torn checkpoint is an Error" true
            (Result.is_error (Checkpoint.load ck_path))))

(* A checkpoint's cursor line leads with the trace format version; a
   v1/v2 cursor, in the 7-integer form or the older 5-integer one, is
   refused by name. *)
let test_old_checkpoints_refused () =
  let events = synth_events ~seed:57 500 in
  with_temp_file (fun trace ->
      write_binary trace events;
      with_temp_file (fun ck_path ->
          (match
             Replay.analyze_file
               ~checkpoint:{ Replay.ckpt_path = ck_path; ckpt_every = 100 }
               ~limit:250 ~filter trace
           with
          | Ok _ -> ()
          | Error msg -> Alcotest.failf "checkpointed run failed: %s" msg);
          let text = Bytes.to_string (read_file ck_path) in
          check_bool "a v3 checkpoint loads" true (Result.is_ok (Checkpoint.load ck_path));
          let lines = String.split_on_char '\n' text in
          let cursor = List.find (fun l -> String.starts_with ~prefix:"cursor " l) lines in
          let fields = String.split_on_char ' ' cursor in
          List.iter
            (fun (label, replacement) ->
              write_file ck_path
                (Bytes.of_string
                   (String.concat "\n"
                      (List.map (fun l -> if l = cursor then replacement else l) lines)));
              match Checkpoint.load ck_path with
              | Ok _ -> Alcotest.failf "%s checkpoint loaded" label
              | Error msg ->
                check_bool (label ^ " error names v2") true (contains msg "v2 trace"))
            [ ( "7-integer v2",
                String.concat " " ("cursor" :: "2" :: List.tl (List.tl fields)) );
              ( "5-integer v2",
                String.concat " "
                  ("cursor" :: "2" :: List.filteri (fun i _ -> i >= 2 && i < 6) fields) ) ]))

let test_limit_caps_events () =
  let events = synth_events ~seed:58 1_000 in
  with_temp_file (fun trace ->
      write_binary trace events;
      match Replay.analyze_file ~limit:100 ~filter trace with
      | Error msg -> Alcotest.failf "limited run failed: %s" msg
      | Ok o -> check_int "limit honoured" 100 o.Replay.events)

let test_lenient_file_run_with_corruption () =
  (* the end-to-end shape of the acceptance scenario: a mildly corrupt
     trace, a percent budget, a run that completes and accounts *)
  let events = synth_events ~seed:59 2_000 in
  with_temp_file (fun trace ->
      write_binary ~chapter:32 ~frame:1 trace events;
      let offs = frame_offsets trace in
      flip_bytes trace [ offs.(400) + 4; offs.(1200) + 4 ];
      match
        Replay.analyze_file ~ingest:(Replay.Lenient (Anomaly.Max_fraction 0.01)) ~filter
          trace
      with
      | Error msg -> Alcotest.failf "lenient corrupt run failed: %s" msg
      | Ok o ->
        let c = o.Replay.completeness in
        check_int "exact skip count" 2 c.Anomaly.records_skipped;
        check_int "read + skipped = written" 2_000
          (c.Anomaly.events_read + c.Anomaly.records_skipped))

let suites =
  [ ( "robust.format",
      [ Alcotest.test_case "crc32 vectors" `Quick test_crc32_vectors;
        Alcotest.test_case "budget parsing" `Quick test_budget_parse;
        Alcotest.test_case "budget semantics" `Quick test_budget_allows;
        Alcotest.test_case "completeness algebra" `Quick test_completeness_algebra;
        Alcotest.test_case "v1/v2 traces refused" `Quick test_old_formats_refused ] );
    ( "robust.corruption",
      [ Alcotest.test_case "strict reports first offset" `Quick
          test_strict_reports_first_offset;
        Alcotest.test_case "single flip, exact ledger" `Quick
          test_lenient_exact_single_flip;
        Alcotest.test_case "adjacent frames, exact ledger" `Quick
          test_lenient_exact_adjacent_frames;
        Alcotest.test_case "lost-reference cascade" `Quick
          test_lenient_lost_reference_cascade;
        Alcotest.test_case "truncated tail" `Quick test_lenient_truncated_tail;
        Alcotest.test_case "bit-flip fuzz never raises" `Quick
          test_fuzz_bit_flips_never_raise;
        Alcotest.test_case "error budgets enforced" `Quick test_budget_enforced ] );
    ( "robust.v3",
      [ Alcotest.test_case "frame round-trips" `Quick test_v3_round_trip_frames;
        Alcotest.test_case "frame flip, exact ledger" `Quick
          test_v3_frame_flip_exact_ledger;
        Alcotest.test_case "truncated tail" `Quick test_v3_truncated_tail;
        Alcotest.test_case "oversized strings" `Quick test_v3_oversized_strings;
        Alcotest.test_case "bit-flip fuzz never raises" `Quick
          test_v3_fuzz_bit_flips_never_raise;
        Alcotest.test_case "drain = read_batch" `Quick
          test_v3_drain_matches_read_batch ] );
    ( "robust.pipeline",
      [ Alcotest.test_case "lenient == strict on clean traces" `Quick
          test_lenient_strict_identical_on_clean;
        Alcotest.test_case "lenient text skips bad lines" `Quick
          test_lenient_text_skips_bad_lines;
        Alcotest.test_case "persistent fault abandons batch" `Quick
          test_persistent_fault_abandons_batch ] );
    ( "robust.checkpoint",
      [ Alcotest.test_case "resume is byte-identical" `Quick
          test_checkpoint_resume_byte_identical;
        Alcotest.test_case "bad config rejected" `Quick
          test_checkpoint_rejects_bad_config;
        Alcotest.test_case "garbage checkpoints rejected" `Quick
          test_checkpoint_load_rejects_garbage;
        Alcotest.test_case "limit caps events" `Quick test_limit_caps_events;
        Alcotest.test_case "corrupt trace, budgeted run completes" `Quick
          test_lenient_file_run_with_corruption;
        Alcotest.test_case "v1/v2 checkpoints refused" `Quick
          test_old_checkpoints_refused ] ) ]
