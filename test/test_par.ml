(* Tests for the replay engine: merge algebra and the determinism
   contract — batched replay byte-identical to a per-event sequential
   observe, over in-memory, text, and binary trace paths. *)

open Iocov_syscall
module Prng = Iocov_util.Prng
module Event = Iocov_trace.Event
module Filter = Iocov_trace.Filter
module Format_io = Iocov_trace.Format_io
module Binary_io = Iocov_trace.Binary_io
module Coverage = Iocov_core.Coverage
module Snapshot = Iocov_core.Snapshot
module Metrics = Iocov_obs.Metrics
module Pool = Iocov_par.Pool
module Replay = Iocov_par.Replay

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)
let check_string = Alcotest.(check string)

(* --- random traces, deterministic in the seed --- *)

let synth_call rng path fd =
  match Prng.int rng 7 with
  | 0 ->
    let flags =
      Prng.choose rng
        [| Open_flags.of_flags Open_flags.[ O_RDONLY ];
           Open_flags.of_flags Open_flags.[ O_RDWR; O_CREAT ];
           Open_flags.of_flags Open_flags.[ O_WRONLY; O_APPEND ] |]
    in
    (Model.open_ ~flags ~mode:0o644 path, Model.Ret fd)
  | 1 -> (Model.open_ ~flags:(Open_flags.of_flags Open_flags.[ O_RDONLY ]) path,
          Model.Err Errno.ENOENT)
  | 2 ->
    let count = Prng.pow2_size rng ~max_log2:16 in
    (Model.read ~fd ~count (), Model.Ret count)
  | 3 ->
    let count = Prng.pow2_size rng ~max_log2:18 in
    (Model.write ~variant:Model.Sys_pwrite64 ~offset:(Prng.int rng 4096) ~fd ~count (),
     Model.Ret count)
  | 4 ->
    (Model.lseek ~fd ~offset:(Prng.int rng 100_000)
       ~whence:(Prng.choose rng Whence.[| SEEK_SET; SEEK_CUR; SEEK_END |]),
     Model.Ret 0)
  | 5 -> (Model.truncate ~target:(Model.Path path) ~length:(Prng.int rng 65536) (),
          Model.Ret 0)
  | _ -> (Model.chmod ~target:(Model.Path path) ~mode:(Prng.int rng 0o7777) (),
          Model.Ret 0)

let synth_events ~seed n =
  let rng = Prng.create ~seed in
  List.init n (fun seq ->
      let inside = Prng.chance rng 0.75 in
      let path =
        if inside then Printf.sprintf "/mnt/test/d%d/f%d" (Prng.int rng 8) (Prng.int rng 200)
        else Printf.sprintf "/etc/noise%d" (Prng.int rng 50)
      in
      let call, outcome = synth_call rng path (3 + Prng.int rng 20) in
      {
        Event.seq;
        timestamp_ns = seq * 31;
        pid = 100 + Prng.int rng 4;
        comm = "test";
        payload = Event.Tracked call;
        outcome;
        path_hint = (if Prng.chance rng 0.95 then Some path else None);
      })

(* the sequential reference: per-event filter + observe into the
   hashed-histogram oracle, no pipeline *)
let sequential_coverage filter events =
  let cov = Coverage_oracle.create () in
  let kept = ref 0 in
  List.iter
    (fun e ->
      if Filter.keeps filter e then begin
        incr kept;
        match e.Event.payload with
        | Event.Tracked call -> Coverage_oracle.observe cov call e.Event.outcome
        | Event.Aux _ -> ()
      end)
    events;
  (cov, !kept)

(* [cov]'s snapshot text equals the oracle's, byte for byte *)
let matches_oracle oracle cov = Coverage_oracle.to_string oracle = Snapshot.to_string cov

(* --- Pool --- *)

(* The pool is a compatibility handle: the default and 1 are the only
   job counts it accepts. *)
(* With the only job count it accepts, a session runs every batch on
   the calling domain. *)
let test_pool_jobs_one_inline () =
  let caller = Domain.self () in
  let seen = ref [] in
  let stage events =
    seen := Domain.self () :: !seen;
    events
  in
  let s = Replay.session ~pool:(Pool.create ~jobs:1 ()) ~batch:16 ~stage () in
  List.iter (Replay.sink s) (synth_events ~seed:3 100);
  ignore (Replay.finish s);
  check_int "every batch ran" 7 (List.length !seen);
  check_bool "on the calling domain" true (List.for_all (( = ) caller) !seen)

let test_pool_default_jobs () =
  ignore (Pool.create ());
  ignore (Pool.create ~jobs:1 ());
  List.iter
    (fun jobs ->
      check_bool
        (Printf.sprintf "jobs=%d rejected" jobs)
        true
        (match Pool.create ~jobs () with
         | _ -> false
         | exception Invalid_argument _ -> true))
    [ 0; 2; 4 ]

(* --- merge algebra: the determinism contract's foundation --- *)

let random_coverage ~seed n =
  let rng = Prng.create ~seed in
  let cov = Coverage.create () in
  for i = 0 to n - 1 do
    let call, outcome = synth_call rng (Printf.sprintf "/mnt/test/f%d" i) (3 + (i mod 9)) in
    Coverage.observe cov call outcome
  done;
  cov

let merged a b =
  let dst = Coverage.create () in
  Coverage.merge_into ~dst a;
  Coverage.merge_into ~dst b;
  dst

let test_merge_commutative () =
  let a = random_coverage ~seed:11 400 and b = random_coverage ~seed:22 300 in
  check_string "a+b = b+a"
    (Snapshot.to_string (merged a b))
    (Snapshot.to_string (merged b a))

let test_merge_associative () =
  let a = random_coverage ~seed:31 200
  and b = random_coverage ~seed:32 250
  and c = random_coverage ~seed:33 300 in
  check_string "(a+b)+c = a+(b+c)"
    (Snapshot.to_string (merged (merged a b) c))
    (Snapshot.to_string (merged a (merged b c)))

(* --- Replay: batched vs sequential byte-equality --- *)

let test_replay_matches_sequential () =
  let events = synth_events ~seed:5 5_000 in
  let filter = Filter.mount_point "/mnt/test" in
  let ref_cov, ref_kept = sequential_coverage filter events in
  (* small batches force many work items *)
  let o = Replay.analyze_events ~batch:64 ~filter events in
  check_bool "coverage identical" true (matches_oracle ref_cov o.Replay.coverage);
  check_int "kept" ref_kept o.Replay.kept;
  check_int "events" 5_000 o.Replay.events;
  check_int "batches" ((5_000 + 63) / 64) o.Replay.batches

let with_temp_file f =
  let path = Filename.temp_file "iocov_par" ".trace" in
  Fun.protect (fun () -> f path) ~finally:(fun () -> Sys.remove path)

let test_replay_text_channel () =
  let events = synth_events ~seed:6 2_000 in
  let filter = Filter.mount_point "/mnt/test" in
  let ref_cov, ref_kept = sequential_coverage filter events in
  with_temp_file (fun path ->
      Out_channel.with_open_text path (fun oc ->
          List.iter (Format_io.sink_channel oc) events);
      match Replay.analyze_file ~batch:128 ~filter path with
      | Error msg -> Alcotest.failf "text replay failed: %s" msg
      | Ok o ->
        check_bool "text coverage identical" true (matches_oracle ref_cov o.Replay.coverage);
        check_int "text kept" ref_kept o.Replay.kept)

let test_replay_binary_channel () =
  let events = synth_events ~seed:7 2_000 in
  let filter = Filter.mount_point "/mnt/test" in
  let ref_cov, ref_kept = sequential_coverage filter events in
  with_temp_file (fun path ->
      let oc = open_out_bin path in
      let w = Binary_io.writer oc in
      List.iter (Binary_io.sink w) events;
      Binary_io.flush w;
      close_out oc;
      match Replay.analyze_file ~batch:128 ~filter path with
      | Error msg -> Alcotest.failf "binary replay failed: %s" msg
      | Ok o ->
        check_bool "binary coverage identical" true (matches_oracle ref_cov o.Replay.coverage);
        check_int "binary kept" ref_kept o.Replay.kept)

let test_replay_text_error_line () =
  (* parse failures must report the lowest offending line, exactly as
     the sequential reader does *)
  let events = synth_events ~seed:8 50 in
  with_temp_file (fun path ->
      Out_channel.with_open_text path (fun oc ->
          List.iteri
            (fun i e ->
              if i = 20 then output_string oc "this is not a trace record\n";
              Format_io.sink_channel oc e)
            events);
      let sequential_err =
        let ic = open_in_bin path in
        let r = Trace_reader.fold_text ic ~init:() ~f:(fun () _ -> ()) in
        close_in ic;
        match r with Ok () -> Alcotest.fail "expected a parse error" | Error m -> m
      in
      match Replay.analyze_file ~batch:8 ~filter:(Filter.mount_point "/mnt/test") path with
      | Ok _ -> Alcotest.fail "expected a parse error"
      | Error msg -> check_string "error agrees" sequential_err msg)

let test_session_matches_analyze () =
  let events = synth_events ~seed:9 3_000 in
  let filter = Filter.mount_point "/mnt/test" in
  let direct = Replay.analyze_events ~filter events in
  let s = Replay.session ~pool:(Pool.create ()) ~batch:100 ~filter () in
  List.iter (Replay.sink s) events;
  let o = Replay.finish s in
  check_bool "session coverage identical" true
    (Snapshot.equal direct.Replay.coverage o.Replay.coverage);
  check_int "session kept" direct.Replay.kept o.Replay.kept

(* --- keep_all: batched filtering preserves results and counters --- *)

let filter_counter result =
  Metrics.counter Metrics.default "iocov_filter_events_total"
    ~labels:[ ("result", result) ]

let test_keep_all_agrees_with_keeps () =
  let events = synth_events ~seed:10 1_000 in
  let filter = Filter.mount_point "/mnt/test" in
  let one_by_one = List.filter (Filter.keeps filter) events in
  let batched = Filter.keep_all filter events in
  check_int "same kept count" (List.length one_by_one) (List.length batched);
  check_bool "same kept events in order" true
    (List.for_all2 (fun a b -> a == b) one_by_one batched)

let test_keep_all_counters_match_per_event () =
  let events = synth_events ~seed:12 800 in
  let filter = Filter.mount_point "/mnt/test" in
  let kept_c = filter_counter "kept"
  and no_hint_c = filter_counter "dropped_no_hint"
  and no_match_c = filter_counter "dropped_no_match" in
  let read () =
    (Metrics.Counter.value kept_c, Metrics.Counter.value no_hint_c,
     Metrics.Counter.value no_match_c)
  in
  let k0, h0, m0 = read () in
  (* [sink] is the metered per-event path; [keeps] is pure by design *)
  List.iter (Filter.sink filter ignore) events;
  let k1, h1, m1 = read () in
  ignore (Filter.keep_all filter events);
  let k2, h2, m2 = read () in
  check_int "kept delta equal" (k1 - k0) (k2 - k1);
  check_int "no-hint delta equal" (h1 - h0) (h2 - h1);
  check_int "no-match delta equal" (m1 - m0) (m2 - m1)

let suites =
  [ ( "par.pool",
      [ Alcotest.test_case "jobs=1 runs inline" `Quick test_pool_jobs_one_inline;
        Alcotest.test_case "default jobs" `Quick test_pool_default_jobs ] );
    ( "par.merge",
      [ Alcotest.test_case "commutative" `Quick test_merge_commutative;
        Alcotest.test_case "associative" `Quick test_merge_associative ] );
    ( "par.replay",
      [ Alcotest.test_case "in-memory vs sequential" `Quick test_replay_matches_sequential;
        Alcotest.test_case "text channel" `Quick test_replay_text_channel;
        Alcotest.test_case "binary channel" `Quick test_replay_binary_channel;
        Alcotest.test_case "text error line" `Quick test_replay_text_error_line;
        Alcotest.test_case "session" `Quick test_session_matches_analyze ] );
    ( "par.filter",
      [ Alcotest.test_case "keep_all agrees" `Quick test_keep_all_agrees_with_keeps;
        Alcotest.test_case "keep_all counters" `Quick test_keep_all_counters_match_per_event ] ) ]
