(* Tests for the flight recorder (DESIGN.md §14): trace-event
   timelines, the live progress sink under a fake clock, and the
   persistent run ledger with its cross-run diffs. *)

open Iocov_syscall
module Trace_event = Iocov_obs.Trace_event
module Clock = Iocov_obs.Clock
module Progress = Iocov_pipe.Progress
module Ledger = Iocov_pipe.Ledger
module Replay = Iocov_par.Replay
module Json = Iocov_util.Json
module Coverage = Iocov_core.Coverage
module Plan = Iocov_core.Plan

let check_bool = Alcotest.(check bool)
let check_int = Alcotest.(check int)
let check_string = Alcotest.(check string)
let check_float = Alcotest.(check (float 1e-9))

(* --- the trace-event recorder --- *)

(* A settable clock: tests advance [t] explicitly, so every timestamp
   in the recorded timeline is chosen, not measured. *)
let with_clock f =
  let t = ref 0.0 in
  Clock.set (fun () -> !t);
  Fun.protect (fun () -> f t) ~finally:(fun () ->
      Clock.reset ();
      Trace_event.stop ();
      Trace_event.clear ())

let test_trace_capture () =
  with_clock (fun t ->
      Trace_event.start ();
      check_bool "recording" true (Trace_event.enabled ());
      t := 0.25;
      Trace_event.instant ~cat:"pool" ~args:[ ("shard", "3") ] "shard-spawn";
      Trace_event.complete ~cat:"stage" ~name:"batch" ~ts:0.5 ~dur:0.125 ();
      Trace_event.stop ();
      match Trace_event.events () with
      | [ a; b ] ->
        check_string "instant first" "shard-spawn" a.Trace_event.ev_name;
        check_float "instant rebased" 0.25 a.Trace_event.ev_ts;
        check_bool "instant phase" true (a.Trace_event.ev_ph = Trace_event.Instant);
        check_string "complete name" "batch" b.Trace_event.ev_name;
        check_float "complete ts" 0.5 b.Trace_event.ev_ts;
        check_float "complete dur" 0.125 b.Trace_event.ev_dur;
        check_string "category kept" "stage" b.Trace_event.ev_cat
      | l -> Alcotest.failf "expected 2 events, got %d" (List.length l))

let test_trace_disabled_is_noop () =
  with_clock (fun _ ->
      Trace_event.clear ();
      check_bool "disabled" false (Trace_event.enabled ());
      Trace_event.instant "ignored";
      Trace_event.complete ~name:"ignored" ~ts:0.0 ~dur:1.0 ();
      check_int "nothing captured" 0 (List.length (Trace_event.events ())))

let test_trace_ring_drops_oldest () =
  with_clock (fun t ->
      Trace_event.start ~capacity:4 ();
      for i = 1 to 10 do
        t := float_of_int i;
        Trace_event.instant (Printf.sprintf "e%d" i)
      done;
      Trace_event.stop ();
      let evs = Trace_event.events () in
      check_int "ring keeps the newest" 4 (List.length evs);
      check_int "overwrites counted" 6 (Trace_event.dropped ());
      check_string "oldest survivor" "e7" (List.hd evs).Trace_event.ev_name)

(* The exported JSON must be well-formed and carry the Chrome
   trace-event shape: a traceEvents array, microsecond integers-as-
   floats, phases X/i/M, and thread_name metadata per domain. *)
let test_trace_json_wellformed () =
  with_clock (fun t ->
      Trace_event.start ();
      t := 0.5;
      Trace_event.instant ~cat:"ingest" "resync";
      Trace_event.complete ~cat:"span" ~name:"pipe/file" ~ts:0.0 ~dur:2.0 ();
      Trace_event.stop ();
      let j =
        match Json.of_string (Trace_event.to_json ()) with
        | Ok j -> j
        | Error msg -> Alcotest.failf "export is not valid JSON: %s" msg
      in
      let evs =
        match Option.bind (Json.member "traceEvents" j) Json.to_list with
        | Some l -> l
        | None -> Alcotest.fail "no traceEvents array"
      in
      let phase e = Option.bind (Json.member "ph" e) Json.to_str in
      let named ph = List.filter (fun e -> phase e = Some ph) evs in
      check_int "one complete" 1 (List.length (named "X"));
      check_int "one instant" 1 (List.length (named "i"));
      check_bool "thread_name metadata present" true (named "M" <> []);
      let x = List.hd (named "X") in
      check_bool "microsecond duration" true
        (Option.bind (Json.member "dur" x) Json.to_float = Some 2_000_000.0);
      let i = List.hd (named "i") in
      check_bool "instant scope" true
        (Option.bind (Json.member "s" i) Json.to_str = Some "t"))

(* Span completions land in the recorder (category "span") while it is
   running — the bridge the driver timeline is built from. *)
let test_trace_records_spans () =
  with_clock (fun t ->
      Iocov_obs.Span.reset ();
      Trace_event.start ();
      t := 1.0;
      Iocov_obs.Span.with_ ~name:"work" (fun () -> t := 3.5);
      Trace_event.stop ();
      match
        List.filter (fun e -> e.Trace_event.ev_cat = "span") (Trace_event.events ())
      with
      | [ e ] ->
        check_string "span name" "work" e.Trace_event.ev_name;
        check_float "span start rebased" 1.0 e.Trace_event.ev_ts;
        check_float "span duration" 2.5 e.Trace_event.ev_dur
      | l -> Alcotest.failf "expected 1 span event, got %d" (List.length l))

(* --- the progress sink --- *)

let conf ?budget ~emit every = { Progress.every; format = Progress.Text; emit; budget }

let test_progress_rates_and_eta () =
  let t = ref 0.0 in
  let clock () = !t in
  let tr = Progress.tracker ~clock ~total:1000 (conf ~emit:ignore 100) in
  let empty () = Replay.view_of_coverage (Coverage.create ()) ~events:0 in
  t := 1.0;
  let s = Progress.snapshot tr ~events:100 ~peek:empty ~final:false in
  check_float "cumulative rate" 100.0 s.Progress.p_rate_cum;
  check_float "first window equals cumulative" 100.0 s.Progress.p_rate_win;
  check_bool "eta from window" true (s.Progress.p_eta_s = Some 9.0);
  check_bool "empty coverage lights no cells" true (s.Progress.p_cells = (0, 0, 0));
  (* advance the window via an emitting tick, then re-measure *)
  Progress.tick tr ~events:100 ~peek:empty;
  t := 2.0;
  let s = Progress.snapshot tr ~events:300 ~peek:empty ~final:false in
  check_float "cumulative over 2s" 150.0 s.Progress.p_rate_cum;
  check_float "windowed over last 1s" 200.0 s.Progress.p_rate_win;
  check_bool "eta shrinks with the window" true (s.Progress.p_eta_s = Some 3.5)

let test_progress_tick_threshold () =
  let lines = ref [] in
  let t = ref 0.0 in
  let tr =
    Progress.tracker ~clock:(fun () -> !t) (conf ~emit:(fun l -> lines := l :: !lines) 100)
  in
  let empty () = Replay.view_of_coverage (Coverage.create ()) ~events:0 in
  Progress.tick tr ~events:50 ~peek:empty;
  check_int "below threshold: silent" 0 (Progress.emitted tr);
  t := 1.0;
  Progress.tick tr ~events:100 ~peek:empty;
  check_int "threshold crossed: one line" 1 (Progress.emitted tr);
  Progress.tick tr ~events:150 ~peek:empty;
  check_int "window restarts after emit" 1 (Progress.emitted tr);
  t := 2.0;
  Progress.finish tr ~events:150 ~peek:empty;
  check_int "finish always emits" 2 (Progress.emitted tr);
  match !lines with
  | [ final; first ] ->
    check_bool "progress prefix" true (String.length first >= 9 && String.sub first 0 9 = "progress:");
    check_bool "final prefix" true (String.length final >= 5 && String.sub final 0 5 = "done:")
  | l -> Alcotest.failf "expected 2 lines, got %d" (List.length l)

let test_progress_jsonl_parses () =
  let t = ref 0.0 in
  let tr = Progress.tracker ~clock:(fun () -> !t) ~total:200 (conf ~emit:ignore 10) in
  t := 2.0;
  let cov = Coverage.create () in
  Coverage.observe cov (Model.open_ ~flags:0 "/f") (Model.Ret 3);
  let s =
    Progress.snapshot tr ~events:200
      ~peek:(fun () -> Replay.view_of_coverage cov ~events:200)
      ~final:true
  in
  match Json.of_string (Progress.render_jsonl s) with
  | Error msg -> Alcotest.failf "jsonl line is not JSON: %s" msg
  | Ok j ->
    check_bool "events field" true
      (Option.bind (Json.member "events" j) Json.to_int = Some 200);
    check_bool "final flag" true (Json.member "final" j = Some (Json.Bool true));
    check_bool "eta omitted when done" true (Json.member "eta_s" j = Some Json.Null);
    let cells = Option.get (Json.member "cells" j) in
    check_bool "cell total" true
      (Option.bind (Json.member "total" cells) Json.to_int = Some Plan.total);
    check_bool "some cells lit" true
      (match Option.bind (Json.member "lit" cells) Json.to_int with
       | Some n -> n > 0
       | None -> false)

(* --- the run ledger --- *)

let sample_coverage ?(extra = false) () =
  let cov = Coverage.create () in
  Coverage.observe cov (Model.open_ ~flags:0 "/a") (Model.Ret 3);
  Coverage.observe cov (Model.write ~fd:3 ~count:4096 ()) (Model.Ret 4096);
  if extra then Coverage.observe cov (Model.close 3) (Model.Ret 0);
  cov

let sample_record ?extra ?(label = "t.bin") () =
  Ledger.make ~seed:42 ~subcommand:"analyze" ~label
    ~flags:[ ("ingest", "strict") ]
    ~jobs:1 ~counters:"dense" ~events:1000 ~kept:990 ~lost:10 ~wall_s:1.5
    ~stages:[ ("pipe/file", 1.25) ]
    (sample_coverage ?extra ())

let with_temp_dir f =
  let dir =
    Filename.temp_file "iocov_ledger" ""
    |> fun p ->
    Sys.remove p;
    Sys.mkdir p 0o755;
    p
  in
  Fun.protect (fun () -> f dir) ~finally:(fun () ->
      let file = Ledger.path ~dir in
      if Sys.file_exists file then Sys.remove file;
      if Sys.file_exists dir then Sys.rmdir dir)

let test_ledger_roundtrip () =
  (* records written before the replay engine went single-domain may
     carry any job count *)
  let r = { (sample_record ()) with Ledger.r_id = "r9"; r_jobs = 4 } in
  match Ledger.parse_line (Json.to_string (Ledger.to_json r)) with
  | Error msg -> Alcotest.failf "round-trip failed: %s" msg
  | Ok r' ->
    check_bool "record survives JSON round-trip" true (r = r')

let test_ledger_append_load () =
  with_temp_dir (fun dir ->
      (match Ledger.append ~dir (sample_record ()) with
       | Ok r -> check_string "first id" "r1" r.Ledger.r_id
       | Error msg -> Alcotest.fail msg);
      (match Ledger.append ~dir (sample_record ~extra:true ~label:"u.bin" ()) with
       | Ok r -> check_string "second id" "r2" r.Ledger.r_id
       | Error msg -> Alcotest.fail msg);
      let { Ledger.records; bad_lines } = Ledger.load ~dir in
      check_int "both readable" 2 (List.length records);
      check_int "no bad lines" 0 bad_lines;
      check_bool "find by id" true
        ((Option.get (Ledger.find records "r2")).Ledger.r_label = "u.bin");
      check_bool "find by position" true
        ((Option.get (Ledger.find records "1")).Ledger.r_label = "t.bin"))

(* A crash mid-append can at worst truncate the final line; the loader
   counts it and keeps everything before it. *)
let test_ledger_truncated_tail () =
  with_temp_dir (fun dir ->
      ignore (Ledger.append ~dir (sample_record ()));
      ignore (Ledger.append ~dir (sample_record ~label:"u.bin" ()));
      let file = Ledger.path ~dir in
      let text = In_channel.with_open_text file In_channel.input_all in
      let cut = String.length text - 25 in
      Out_channel.with_open_text file (fun oc ->
          Out_channel.output_string oc (String.sub text 0 cut));
      let { Ledger.records; bad_lines } = Ledger.load ~dir in
      check_int "intact prefix kept" 1 (List.length records);
      check_int "torn tail counted" 1 bad_lines;
      (* the ledger keeps accepting appends after the tear, and the new
         record is not glued onto the torn bytes *)
      (match Ledger.append ~dir (sample_record ~label:"v.bin" ()) with
       | Ok r -> check_string "next id after recovery" "r2" r.Ledger.r_id
       | Error msg -> Alcotest.fail msg);
      let { Ledger.records; bad_lines } = Ledger.load ~dir in
      check_int "new record readable" 2 (List.length records);
      check_int "torn line still counted" 1 bad_lines;
      check_bool "reload finds the new record" true
        ((Option.get (Ledger.find records "r2")).Ledger.r_label = "v.bin"))

(* A damaged line in the middle must not make the next append reuse an
   id that a later record already holds. *)
let test_ledger_garbage_middle_line () =
  with_temp_dir (fun dir ->
      ignore (Ledger.append ~dir (sample_record ()));
      ignore (Ledger.append ~dir (sample_record ~label:"u.bin" ()));
      ignore (Ledger.append ~dir (sample_record ~label:"w.bin" ()));
      let file = Ledger.path ~dir in
      let lines =
        String.split_on_char '\n' (In_channel.with_open_text file In_channel.input_all)
      in
      Out_channel.with_open_text file (fun oc ->
          Out_channel.output_string oc
            (String.concat "\n"
               (List.mapi (fun i l -> if i = 1 then "{\"schema\": garbage" else l) lines)));
      (match Ledger.append ~dir (sample_record ~label:"v.bin" ()) with
       | Ok r -> check_string "id after the largest" "r4" r.Ledger.r_id
       | Error msg -> Alcotest.fail msg);
      let { Ledger.records; bad_lines } = Ledger.load ~dir in
      check_int "bad middle line counted" 1 bad_lines;
      check_bool "r3 is still the old record" true
        ((Option.get (Ledger.find records "r3")).Ledger.r_label = "w.bin");
      check_bool "r4 is the new one" true
        ((Option.get (Ledger.find records "r4")).Ledger.r_label = "v.bin"))

(* --- numbering from the tail, against the full reload --- *)

(* The numbering [append] used before it read only the file's tail:
   load every record and go one past the largest readable [rN]. *)
let reference_next_id ~dir =
  let number id =
    let n = String.length id in
    if n > 1 && id.[0] = 'r'
       && String.for_all (function '0' .. '9' -> true | _ -> false) (String.sub id 1 (n - 1))
    then int_of_string (String.sub id 1 (n - 1))
    else 0
  in
  let { Ledger.records; _ } = Ledger.load ~dir in
  Printf.sprintf "r%d" (1 + List.fold_left (fun m r -> max m (number r.Ledger.r_id)) 0 records)

let read_file file = In_channel.with_open_bin file In_channel.input_all

let write_file file text =
  Out_channel.with_open_bin file (fun oc -> Out_channel.output_string oc text)

(* Append once; the id must be the reference's, and the record must
   read back under it. *)
let append_checked ~dir label =
  let expect = reference_next_id ~dir in
  match Ledger.append ~dir (sample_record ~label ()) with
  | Error msg -> Alcotest.failf "append %s: %s" label msg
  | Ok r ->
    let { Ledger.records; _ } = Ledger.load ~dir in
    r.Ledger.r_id = expect
    && (match Ledger.find records r.Ledger.r_id with
        | Some found -> found.Ledger.r_label = label
        | None -> false)

type step =
  | Append
  | Cut of int             (* keep this many bytes, modulo the size + 1 *)
  | Insert of int * string (* this line, at this byte, modulo the size + 1 *)
  | Drop_newline

let step_gen =
  let open QCheck.Gen in
  let junk =
    oneof
      [ oneofl [ ""; " "; "\t  " ];
        string_size ~gen:(oneofl [ 'a'; 'r'; '7'; '{'; '}'; '['; '"'; ':'; ','; ' ' ])
          (oneof [ int_bound 40; int_bound 6000 ]) ]
  in
  frequency
    [ (5, return Append);
      (1, map (fun n -> Cut n) (int_bound 1_000_000));
      (2, map2 (fun n l -> Insert (n, l)) (int_bound 1_000_000) junk);
      (1, return Drop_newline) ]

let print_step = function
  | Append -> "append"
  | Cut n -> Printf.sprintf "cut %d" n
  | Insert (n, l) -> Printf.sprintf "insert %d (%d bytes)" n (String.length l)
  | Drop_newline -> "drop newline"

(* Random histories of appends and damage: every append, and one more
   after the history, gets the id the full reload would give. *)
let tail_numbering_prop =
  QCheck.Test.make ~name:"tail numbering equals the full-reload numbering" ~count:150
    (QCheck.make
       ~print:(fun steps -> String.concat "; " (List.map print_step steps))
       QCheck.Gen.(list_size (int_range 1 14) step_gen))
    (fun steps ->
      with_temp_dir (fun dir ->
          let file = Ledger.path ~dir in
          let text () = if Sys.file_exists file then read_file file else "" in
          let at n t = n mod (String.length t + 1) in
          let ok = ref true in
          List.iteri
            (fun i step ->
              match step with
              | Append -> ok := append_checked ~dir (Printf.sprintf "h%d" i) && !ok
              | Cut n ->
                let t = text () in
                write_file file (String.sub t 0 (at n t))
              | Insert (n, line) ->
                let t = text () in
                let k = at n t in
                write_file file
                  (String.sub t 0 k ^ line ^ "\n" ^ String.sub t k (String.length t - k))
              | Drop_newline ->
                let t = text () in
                let n = String.length t in
                if n > 0 && t.[n - 1] = '\n' then write_file file (String.sub t 0 (n - 1)))
            steps;
          append_checked ~dir "last" && !ok))

(* The record before a torn tail is longer than one tail block, so
   the walk back has to widen its window past it. *)
let test_ledger_tail_long_record () =
  with_temp_dir (fun dir ->
      ignore (Ledger.append ~dir (sample_record ()));
      let long = String.make 70_000 'x' in
      ignore (Ledger.append ~dir (sample_record ~label:long ()));
      let file = Ledger.path ~dir in
      write_file file (read_file file ^ "{\"schema\": \"iocov-run/1\", \"id\": \"r3");
      (match Ledger.append ~dir (sample_record ~label:"v.bin" ()) with
       | Ok r -> check_string "one past the long record" "r3" r.Ledger.r_id
       | Error msg -> Alcotest.fail msg);
      let { Ledger.records; bad_lines } = Ledger.load ~dir in
      check_int "torn line counted" 1 bad_lines;
      check_bool "long record intact" true
        ((Option.get (Ledger.find records "r2")).Ledger.r_label = long);
      check_bool "new record readable" true
        ((Option.get (Ledger.find records "r3")).Ledger.r_label = "v.bin"))

let test_ledger_tail_only_garbage () =
  with_temp_dir (fun dir ->
      write_file (Ledger.path ~dir) "not json\n{\"schema\": 1}\n\n   \ngarbage";
      match Ledger.append ~dir (sample_record ()) with
      | Ok r -> check_string "garbage holds no ids" "r1" r.Ledger.r_id
      | Error msg -> Alcotest.fail msg)

let test_ledger_tail_empty_file () =
  with_temp_dir (fun dir ->
      let file = Ledger.path ~dir in
      write_file file "";
      (match Ledger.append ~dir (sample_record ()) with
       | Ok r -> check_string "first id" "r1" r.Ledger.r_id
       | Error msg -> Alcotest.fail msg);
      check_bool "no newline before the first record" true ((read_file file).[0] = '{'))

(* A readable record whose id is not [rN] holds no number: the walk
   goes on to the record before it. *)
let test_ledger_tail_skips_foreign_id () =
  with_temp_dir (fun dir ->
      ignore (Ledger.append ~dir (sample_record ()));
      ignore (Ledger.append ~dir (sample_record ()));
      let file = Ledger.path ~dir in
      let foreign = { (sample_record ()) with Ledger.r_id = "x9" } in
      write_file file (read_file file ^ Json.to_string (Ledger.to_json foreign) ^ "\n");
      match Ledger.append ~dir (sample_record ()) with
      | Ok r -> check_string "one past the last rN" "r3" r.Ledger.r_id
      | Error msg -> Alcotest.fail msg)

(* --- the bitmap's hex codec, against the [Printf] / [int_of_string]
   one it replaced --- *)

let reference_hex_of_bytes b =
  let buf = Buffer.create (2 * Bytes.length b) in
  Bytes.iter (fun c -> Buffer.add_string buf (Printf.sprintf "%02x" (Char.code c))) b;
  Buffer.contents buf

let reference_bytes_of_hex s =
  if String.length s mod 2 <> 0 then Error "odd-length hex string"
  else
    try
      Ok
        (Bytes.init (String.length s / 2) (fun i ->
             Char.chr (int_of_string ("0x" ^ String.sub s (2 * i) 2))))
    with _ -> Error "invalid hex string"

let hex_encode_prop =
  QCheck.Test.make ~name:"hex encoding equals the Printf encoding and round-trips"
    ~count:500 QCheck.(string_of_size Gen.(int_bound 300))
    (fun s ->
      let b = Bytes.of_string s in
      let hex = Ledger.hex_of_bytes b in
      hex = reference_hex_of_bytes b && Ledger.bytes_of_hex hex = Ok b)

(* [int_of_string] reads "0x1_" as 1, so the reference accepts a pair
   whose second character is '_'; the table refuses it. *)
let underscore_pair s =
  let rec go i = i + 1 < String.length s && (s.[i + 1] = '_' || go (i + 2)) in
  go 0

let hex_decode_prop =
  let gen =
    let open QCheck.Gen in
    oneof
      [ map (fun s -> Ledger.hex_of_bytes (Bytes.of_string s)) (string_size (int_bound 64));
        map
          (fun s -> String.uppercase_ascii (Ledger.hex_of_bytes (Bytes.of_string s)))
          (string_size (int_bound 64));
        string_size
          ~gen:(oneofl (List.of_seq (String.to_seq "0123456789abcdefABCDEF_xg -+")))
          (int_bound 41) ]
  in
  QCheck.Test.make ~name:"hex decoding equals int_of_string's, but for '_'" ~count:1000
    (QCheck.make ~print:(Printf.sprintf "%S") gen)
    (fun s ->
      match reference_bytes_of_hex s with
      | Ok _ when underscore_pair s -> Ledger.bytes_of_hex s = Error "invalid hex string"
      | expect -> Ledger.bytes_of_hex s = expect)

let test_ledger_missing_dir_empty () =
  let { Ledger.records; bad_lines } = Ledger.load ~dir:"/nonexistent/iocov" in
  check_int "no records" 0 (List.length records);
  check_int "no bad lines" 0 bad_lines

let test_diff_identical () =
  let a = sample_record () and b = sample_record () in
  let d = Ledger.diff a b in
  check_bool "identical digests" true d.Ledger.d_identical;
  check_int "nothing gained" 0 (List.length d.Ledger.d_gained);
  check_int "nothing lost" 0 (List.length d.Ledger.d_lost)

let test_diff_gained_and_lost () =
  let a = sample_record () and b = sample_record ~extra:true () in
  let d = Ledger.diff a b in
  check_bool "different digests" false d.Ledger.d_identical;
  check_bool "close(3) lights new cells" true (d.Ledger.d_gained <> []);
  check_int "nothing lost going forward" 0 (List.length d.Ledger.d_lost);
  (* the reverse diff mirrors it *)
  let d' = Ledger.diff b a in
  check_bool "reverse loses the same cells" true
    (d'.Ledger.d_lost = d.Ledger.d_gained);
  (* gained ids are real plan cells *)
  List.iter (fun id -> check_bool "cell id in range" true (id >= 0 && id < Plan.total))
    d.Ledger.d_gained

let test_bitmap_cells_agree () =
  let cov = sample_coverage () in
  let ids = Ledger.bitmap_cells (Ledger.bitmap cov) in
  let v, i, o = Coverage.lit_cells cov in
  check_int "bitmap population matches lit cells" (v + i + o) (List.length ids);
  List.iter
    (fun id ->
      check_bool "every bitmap cell has a nonzero count" true
        (Coverage.cell_count cov id > 0))
    ids

let suites =
  [ ( "flight.trace",
      [ Alcotest.test_case "capture" `Quick test_trace_capture;
        Alcotest.test_case "disabled is a no-op" `Quick test_trace_disabled_is_noop;
        Alcotest.test_case "ring drops oldest" `Quick test_trace_ring_drops_oldest;
        Alcotest.test_case "json well-formed" `Quick test_trace_json_wellformed;
        Alcotest.test_case "span bridge" `Quick test_trace_records_spans ] );
    ( "flight.progress",
      [ Alcotest.test_case "rates and eta" `Quick test_progress_rates_and_eta;
        Alcotest.test_case "tick threshold" `Quick test_progress_tick_threshold;
        Alcotest.test_case "jsonl parses" `Quick test_progress_jsonl_parses ] );
    ( "flight.ledger",
      [ Alcotest.test_case "json round-trip" `Quick test_ledger_roundtrip;
        Alcotest.test_case "append and load" `Quick test_ledger_append_load;
        Alcotest.test_case "truncated tail" `Quick test_ledger_truncated_tail;
        Alcotest.test_case "garbage middle line" `Quick test_ledger_garbage_middle_line;
        Alcotest.test_case "tail: record longer than a block" `Quick test_ledger_tail_long_record;
        Alcotest.test_case "tail: only garbage" `Quick test_ledger_tail_only_garbage;
        Alcotest.test_case "tail: empty file" `Quick test_ledger_tail_empty_file;
        Alcotest.test_case "tail: foreign id skipped" `Quick test_ledger_tail_skips_foreign_id;
        QCheck_alcotest.to_alcotest tail_numbering_prop;
        QCheck_alcotest.to_alcotest hex_encode_prop;
        QCheck_alcotest.to_alcotest hex_decode_prop;
        Alcotest.test_case "missing dir" `Quick test_ledger_missing_dir_empty;
        Alcotest.test_case "diff identical" `Quick test_diff_identical;
        Alcotest.test_case "diff gained/lost" `Quick test_diff_gained_and_lost;
        Alcotest.test_case "bitmap agrees" `Quick test_bitmap_cells_agree ] ) ]
