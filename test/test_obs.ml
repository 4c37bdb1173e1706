(* Tests for the self-observability layer: metrics registry, spans with
   a fake clock, structured logging, and the exporters. *)

open Iocov_obs
module Log2 = Iocov_util.Log2

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)
let check_string = Alcotest.(check string)

(* --- registry --- *)

let test_counter_roundtrip () =
  let reg = Metrics.create () in
  let c = Metrics.counter reg "iocov_test_total" ~help:"h" in
  check_int "starts at zero" 0 (Metrics.Counter.value c);
  Metrics.Counter.incr c;
  Metrics.Counter.add c 41;
  check_int "accumulates" 42 (Metrics.Counter.value c);
  (* find-or-create: same name+labels answers the same handle *)
  let c' = Metrics.counter reg "iocov_test_total" in
  Metrics.Counter.incr c';
  check_int "shared handle" 43 (Metrics.Counter.value c)

let test_counter_negative_rejected () =
  let reg = Metrics.create () in
  let c = Metrics.counter reg "iocov_test_total" in
  Alcotest.check_raises "negative add"
    (Invalid_argument "Metrics.Counter.add: negative increment")
    (fun () -> Metrics.Counter.add c (-1))

let test_labels_distinguish () =
  let reg = Metrics.create () in
  let a = Metrics.counter reg "iocov_test_total" ~labels:[ ("k", "a") ] in
  let b = Metrics.counter reg "iocov_test_total" ~labels:[ ("k", "b") ] in
  Metrics.Counter.incr a;
  check_int "label b untouched" 0 (Metrics.Counter.value b);
  check_int "label a counted" 1 (Metrics.Counter.value a)

let test_kind_clash_rejected () =
  let reg = Metrics.create () in
  ignore (Metrics.counter reg "iocov_test_total");
  check_bool "gauge under a counter name raises" true
    (match Metrics.gauge reg "iocov_test_total" with
     | _ -> false
     | exception Invalid_argument _ -> true)

let test_name_validation () =
  let reg = Metrics.create () in
  check_bool "uppercase rejected" true
    (match Metrics.counter reg "Bad" with
     | _ -> false
     | exception Invalid_argument _ -> true);
  check_bool "leading digit rejected" true
    (match Metrics.counter reg "9lives" with
     | _ -> false
     | exception Invalid_argument _ -> true)

let test_gauge () =
  let reg = Metrics.create () in
  let g = Metrics.gauge reg "iocov_test_size" in
  Metrics.Gauge.set g 7;
  Metrics.Gauge.add g (-3);
  Metrics.Gauge.incr g;
  check_int "gauge arithmetic" 5 (Metrics.Gauge.value g)

let test_snapshot_sorted_and_stable () =
  let reg = Metrics.create () in
  ignore (Metrics.counter reg "iocov_b_total");
  ignore (Metrics.counter reg "iocov_a_total");
  ignore (Metrics.counter reg "iocov_a_total" ~labels:[ ("x", "2") ]);
  ignore (Metrics.counter reg "iocov_a_total" ~labels:[ ("x", "1") ]);
  let names =
    List.map
      (fun (m : Metrics.metric) ->
        m.Metrics.name ^ String.concat "" (List.map snd m.Metrics.labels))
      (Metrics.snapshot reg)
  in
  Alcotest.(check (list string))
    "sorted by name then labels"
    [ "iocov_a_total"; "iocov_a_total1"; "iocov_a_total2"; "iocov_b_total" ]
    names

let test_reset_keeps_handles () =
  let reg = Metrics.create () in
  let c = Metrics.counter reg "iocov_test_total" in
  let h = Metrics.histogram reg "iocov_test_ns" in
  Metrics.Counter.add c 5;
  Metrics.Histogram.observe h 1024;
  Metrics.reset reg;
  check_int "counter zeroed" 0 (Metrics.Counter.value c);
  check_int "histogram emptied" 0 (Metrics.Histogram.count h);
  Metrics.Counter.incr c;
  check_int "handle still live" 1 (Metrics.Counter.value c)

let test_is_timing () =
  let reg = Metrics.create () in
  ignore (Metrics.counter reg "iocov_test_total");
  ignore (Metrics.histogram reg "iocov_test_latency_ns");
  let timing, steady =
    List.partition Metrics.is_timing (Metrics.snapshot reg)
  in
  check_int "one timing metric" 1 (List.length timing);
  check_int "one steady metric" 1 (List.length steady);
  check_string "the _ns one" "iocov_test_latency_ns"
    (List.hd timing).Metrics.name

(* --- histogram bucket boundaries --- *)

let test_histogram_pow2_boundaries () =
  let reg = Metrics.create () in
  let h = Metrics.histogram reg "iocov_test_sizes" in
  (* 2^k - 1, 2^k, 2^k + 1 straddle a bucket edge: 2^k-1 belongs to
     bucket k-1, both 2^k and 2^k+1 to bucket k *)
  List.iter (Metrics.Histogram.observe h) [ 1023; 1024; 1025 ];
  Alcotest.(check (list (pair int int)))
    "boundary split"
    [ (9, 1); (10, 2) ]
    (List.filter_map
       (fun (b, n) ->
         match b with Log2.Pow2 k -> Some (k, n) | _ -> None)
       (Metrics.Histogram.buckets h))

let test_histogram_zero_and_negative_buckets () =
  let reg = Metrics.create () in
  let h = Metrics.histogram reg "iocov_test_sizes" in
  List.iter (Metrics.Histogram.observe h) [ 0; 0; -5; 1 ];
  let count b = List.assoc_opt b (Metrics.Histogram.buckets h) in
  Alcotest.(check (option int)) "dedicated zero bucket" (Some 2) (count Log2.Zero);
  Alcotest.(check (option int)) "negative bucket" (Some 1) (count Log2.Negative);
  Alcotest.(check (option int)) "one lands in 2^0" (Some 1) (count (Log2.Pow2 0));
  check_int "count totals" 4 (Metrics.Histogram.count h);
  check_int "sum is signed" (-4) (Metrics.Histogram.sum h)

(* --- spans under a fake clock --- *)

let with_fake_clock steps f =
  let times = ref steps in
  Clock.set (fun () ->
      match !times with
      | [] -> invalid_arg "fake clock exhausted"
      | t :: rest ->
        times := rest;
        t);
  Fun.protect f ~finally:Clock.reset

let test_span_nesting_fake_clock () =
  let reg = Metrics.create () in
  Span.reset ();
  (* outer opens at 0.0, inner runs [1.0, 3.0], outer closes at 10.0 *)
  with_fake_clock [ 0.0; 1.0; 3.0; 10.0 ] (fun () ->
      Span.with_ ~registry:reg ~name:"outer" (fun () ->
          Span.with_ ~registry:reg ~name:"inner" (fun () -> ())));
  match Span.roots () with
  | [ root ] ->
    check_string "root name" "outer" root.Span.name;
    Alcotest.(check (float 1e-9)) "outer duration" 10.0 root.Span.duration_s;
    (match root.Span.children with
     | [ child ] ->
       check_string "child name" "inner" child.Span.name;
       Alcotest.(check (float 1e-9)) "inner duration" 2.0 child.Span.duration_s
     | l -> Alcotest.failf "expected one child, got %d" (List.length l))
  | l -> Alcotest.failf "expected one root, got %d" (List.length l)

let test_span_closes_on_exception () =
  let reg = Metrics.create () in
  Span.reset ();
  with_fake_clock [ 0.0; 1.0 ] (fun () ->
      match Span.with_ ~registry:reg ~name:"boom" (fun () -> failwith "x") with
      | () -> Alcotest.fail "should have raised"
      | exception Failure _ -> ());
  check_int "span still recorded" 1 (List.length (Span.roots ()))

let test_span_timed_duration_agrees () =
  let reg = Metrics.create () in
  Span.reset ();
  with_fake_clock [ 0.0; 2.5 ] (fun () ->
      let v, node = Span.timed ~registry:reg ~name:"work" (fun () -> 42) in
      check_int "value passed through" 42 v;
      Alcotest.(check (float 1e-9)) "measured" 2.5 node.Span.duration_s;
      (* the same node is the completed root — one source of truth *)
      Alcotest.(check (float 1e-9)) "root agrees" 2.5
        (List.hd (Span.roots ())).Span.duration_s)

let test_span_flatten_paths () =
  let reg = Metrics.create () in
  Span.reset ();
  with_fake_clock [ 0.0; 1.0; 2.0; 3.0; 4.0; 5.0 ] (fun () ->
      Span.with_ ~registry:reg ~name:"a" (fun () ->
          Span.with_ ~registry:reg ~name:"b" (fun () -> ());
          Span.with_ ~registry:reg ~name:"c" (fun () -> ())));
  let root = List.hd (Span.roots ()) in
  Alcotest.(check (list (list string)))
    "preorder paths"
    [ [ "a" ]; [ "a"; "b" ]; [ "a"; "c" ] ]
    (List.map fst (Span.flatten root))

(* Parallel shards complete their root spans in scheduler order; the
   exported tree must not depend on it.  [roots] sorts by (name,
   duration), so any completion order renders identically. *)
let test_span_roots_sorted () =
  let reg = Metrics.create () in
  Span.reset ();
  (* completion order: b(2.0), a(5.0), a(1.0) — deliberately unsorted *)
  with_fake_clock [ 0.0; 2.0; 0.0; 5.0; 0.0; 1.0 ] (fun () ->
      Span.with_ ~registry:reg ~name:"b" (fun () -> ());
      Span.with_ ~registry:reg ~name:"a" (fun () -> ());
      Span.with_ ~registry:reg ~name:"a" (fun () -> ()));
  Alcotest.(check (list (pair string (float 1e-9))))
    "roots sorted by (name, duration)"
    [ ("a", 1.0); ("a", 5.0); ("b", 2.0) ]
    (List.map (fun n -> (n.Span.name, n.Span.duration_s)) (Span.roots ()))

(* --- logging --- *)

let capture_lines f =
  let lines = ref [] in
  Log.set_sink (fun line -> lines := line :: !lines);
  let saved_level = Log.level () in
  Fun.protect
    (fun () ->
      Log.reset_seq ();
      f ();
      List.rev !lines)
    ~finally:(fun () ->
      Log.set_level saved_level;
      Log.set_format Log.Text;
      Log.set_channel stderr)

let test_log_levels_filter () =
  let lines =
    capture_lines (fun () ->
        Log.set_level Log.Warn;
        Log.debug "hidden";
        Log.info "hidden too";
        Log.warn "shown";
        Log.error "also shown")
  in
  check_int "two lines pass Warn" 2 (List.length lines)

let test_log_text_format () =
  let lines =
    capture_lines (fun () ->
        Log.set_level Log.Info;
        Log.info "hello" ~fields:[ ("n", Log.int 3); ("s", Log.str "x y") ])
  in
  match lines with
  | [ line ] ->
    check_string "deterministic text line" "#1 [info] hello n=3 s=\"x y\"" line
  | l -> Alcotest.failf "expected one line, got %d" (List.length l)

let test_log_json_format () =
  let lines =
    capture_lines (fun () ->
        Log.set_level Log.Info;
        Log.set_format Log.Json;
        Log.info "he\"llo" ~fields:[ ("ok", Log.bool true) ])
  in
  match lines with
  | [ line ] ->
    check_string "json line"
      "{\"seq\":1,\"level\":\"info\",\"msg\":\"he\\\"llo\",\"ok\":true}" line
  | l -> Alcotest.failf "expected one line, got %d" (List.length l)

(* --- exporters --- *)

let sample_registry () =
  let reg = Metrics.create () in
  let c = Metrics.counter reg "iocov_test_total" ~help:"a counter" ~labels:[ ("k", "v") ] in
  Metrics.Counter.add c 3;
  let g = Metrics.gauge reg "iocov_test_size" ~help:"a gauge" in
  Metrics.Gauge.set g 9;
  let h = Metrics.histogram reg "iocov_test_bytes" ~help:"a histogram" in
  List.iter (Metrics.Histogram.observe h) [ 0; 3; 1024 ];
  reg

let test_prometheus_deterministic () =
  let a = Export.to_prometheus (sample_registry ()) in
  let b = Export.to_prometheus (sample_registry ()) in
  check_string "identical renders" a b

let test_prometheus_shape () =
  let text = Export.to_prometheus (sample_registry ()) in
  let has fragment =
    let fl = String.length fragment and tl = String.length text in
    let rec go i = i + fl <= tl && (String.sub text i fl = fragment || go (i + 1)) in
    check_bool fragment true (go 0)
  in
  has "# TYPE iocov_test_total counter";
  has "iocov_test_total{k=\"v\"} 3";
  has "# TYPE iocov_test_size gauge";
  has "iocov_test_size 9";
  has "# TYPE iocov_test_bytes histogram";
  (* cumulative buckets: 0 -> 1, 2^2 hi=3 -> 2, 2^10 hi=1023... then hi of
     1024's bucket, +Inf, sum and count *)
  has "iocov_test_bytes_bucket{le=\"0\"} 1";
  has "iocov_test_bytes_bucket{le=\"3\"} 2";
  has "iocov_test_bytes_bucket{le=\"2047\"} 3";
  has "iocov_test_bytes_bucket{le=\"+Inf\"} 3";
  has "iocov_test_bytes_sum 1027";
  has "iocov_test_bytes_count 3"

let test_json_parse_stable () =
  let json = Export.registry_report ~spans:[] (sample_registry ()) in
  check_string "same render twice" json
    (Export.registry_report ~spans:[] (sample_registry ()));
  (* structural spot checks, keeping the test parser-free *)
  let has fragment =
    let fl = String.length fragment and tl = String.length json in
    let rec go i = i + fl <= tl && (String.sub json i fl = fragment || go (i + 1)) in
    check_bool fragment true (go 0)
  in
  has "{\"metrics\":[";
  has "\"name\":\"iocov_test_total\"";
  has "\"labels\":{\"k\":\"v\"}";
  has "\"value\":3";
  has "\"spans\":[]"

(* Prometheus exposition-format escaping (the spec is exact): label
   values escape only backslash, double-quote, and newline; HELP text
   escapes only backslash and newline.  Tabs and non-ASCII pass through
   raw — JSON-style escapes would be a format violation. *)
let test_prometheus_label_escaping () =
  let reg = Metrics.create () in
  Metrics.Counter.incr
    (Metrics.counter reg "iocov_test_total" ~labels:[ ("path", "a\\b\"c\nd\te") ]);
  let text = Export.to_prometheus reg in
  let has fragment =
    let fl = String.length fragment and tl = String.length text in
    let rec go i = i + fl <= tl && (String.sub text i fl = fragment || go (i + 1)) in
    check_bool (String.escaped fragment) true (go 0)
  in
  (* backslash and double-quote gain a backslash, newline becomes a
     two-character escape, the tab passes through raw *)
  has "path=\"a\\\\b\\\"c\\nd\te\"";
  check_bool "no JSON tab escape" true
    (not
       (let frag = "\\t" and tl = String.length text in
        let fl = String.length frag in
        let rec go i = i + fl <= tl && (String.sub text i fl = frag || go (i + 1)) in
        go 0))

let test_prometheus_help_escaping () =
  let reg = Metrics.create () in
  ignore (Metrics.counter reg "iocov_test_total" ~help:"line one\nline two \\ \"quoted\"");
  let text = Export.to_prometheus reg in
  let has fragment =
    let fl = String.length fragment and tl = String.length text in
    let rec go i = i + fl <= tl && (String.sub text i fl = fragment || go (i + 1)) in
    check_bool (String.escaped fragment) true (go 0)
  in
  (* newline -> \n, backslash -> \\, quotes raw in HELP *)
  has "# HELP iocov_test_total line one\\nline two \\\\ \"quoted\"\n"

let test_span_json () =
  let node =
    { Span.name = "a"; duration_s = 1.5; children = [ { Span.name = "b"; duration_s = 0.25; children = [] } ] }
  in
  check_string "span tree json"
    "{\"name\":\"a\",\"duration_s\":1.500000000,\"children\":[{\"name\":\"b\",\"duration_s\":0.250000000,\"children\":[]}]}"
    (Export.span_to_json node)

(* --- end-to-end determinism of the instrumented pipeline --- *)

let test_pipeline_counters_deterministic () =
  let run () =
    Metrics.reset Metrics.default;
    Span.reset ();
    let r = Iocov_suites.Runner.run ~seed:3 ~scale:0.02 Iocov_suites.Runner.Ltp in
    let steady =
      List.filter (fun m -> not (Metrics.is_timing m)) (Metrics.snapshot Metrics.default)
    in
    (r.Iocov_suites.Runner.workloads, List.map (fun m -> (m.Metrics.name, m.Metrics.labels, m.Metrics.sample)) steady)
  in
  let w1, s1 = run () in
  let w2, s2 = run () in
  check_int "same workloads" w1 w2;
  check_bool "identical non-timing snapshots" true (s1 = s2);
  check_bool "snapshot is non-trivial" true (List.length s1 > 10)

(* Observing meters nothing; the run's owner credits the accumulator
   once with [meter_counts].  That one batch must equal what per-update
   increments would have produced: one call and one variant update per
   observation, one input update per [Partition_oracle.of_call] pair, one
   output update per full observation and one flag-set update per
   open. *)
let test_coverage_metering_batched_exact () =
  let open Iocov_syscall in
  let module Coverage = Iocov_core.Coverage in
  let module Partition = Iocov_core.Partition in
  let calls_c = Metrics.counter Metrics.default "iocov_coverage_calls_total" in
  let upd kind =
    Metrics.counter Metrics.default "iocov_coverage_updates_total"
      ~labels:[ ("table", kind) ]
  in
  let read () =
    ( Metrics.Counter.value calls_c,
      Metrics.Counter.value (upd "variant"),
      Metrics.Counter.value (upd "input"),
      Metrics.Counter.value (upd "output"),
      Metrics.Counter.value (upd "flag_set") )
  in
  let stream =
    [ (Model.open_ ~flags:(Open_flags.of_flags Open_flags.[ O_RDWR; O_CREAT ])
         ~mode:0o644 "/mnt/test/a", Model.Ret 3);
      (Model.open_ ~flags:(Open_flags.of_flags Open_flags.[ O_RDONLY ]) "/mnt/test/b",
       Model.Err Errno.ENOENT);
      (Model.read ~fd:3 ~count:4096 (), Model.Ret 4096);
      (Model.write ~variant:Model.Sys_pwrite64 ~offset:8192 ~fd:3 ~count:512 (),
       Model.Ret 512);
      (Model.lseek ~fd:3 ~offset:(-10) ~whence:Whence.SEEK_CUR, Model.Ret 0);
      (Model.chmod ~target:(Model.Path "/mnt/test/a") ~mode:0 (), Model.Ret 0);
      (Model.close 3, Model.Ret 0) ]
  in
  let input_updates =
    List.fold_left
      (fun acc (c, _) -> acc + List.length (Partition_oracle.of_call c))
      0 stream
  in
  let opens =
    List.length
      (List.filter
         (fun (c, _) -> match c with Model.Open_call _ -> true | _ -> false)
         stream)
  in
  let n = List.length stream in
  (* the stream, plus one input-only observation *)
  let before = read () in
  let cov = Coverage.create () in
  List.iter (fun (c, o) -> Coverage.observe cov c o) stream;
  Coverage.observe_input_only cov (Model.read ~fd:4 ~count:0 ());
  check_bool "observe meters nothing" true (read () = before);
  Coverage.meter_counts cov;
  let c0, v0, i0, o0, f0 = before and c1, v1, i1, o1, f1 = read () in
  check_int "calls delta" (n + 1) (c1 - c0);
  check_int "variant delta" (n + 1) (v1 - v0);
  check_int "input delta" (input_updates + 1) (i1 - i0);
  check_int "output delta" n (o1 - o0);
  check_int "flag-set delta" opens (f1 - f0)

let test_runner_elapsed_is_root_span () =
  Metrics.reset Metrics.default;
  Span.reset ();
  let r = Iocov_suites.Runner.run ~seed:3 ~scale:0.02 Iocov_suites.Runner.Ltp in
  match Span.roots () with
  | [ root ] ->
    check_string "root span name" "runner/LTP" root.Span.name;
    Alcotest.(check (float 1e-12))
      "elapsed_s is the root duration" root.Span.duration_s
      r.Iocov_suites.Runner.elapsed_s
  | l -> Alcotest.failf "expected one root, got %d" (List.length l)

let suites =
  [ ( "obs.metrics",
      [ Alcotest.test_case "counter roundtrip" `Quick test_counter_roundtrip;
        Alcotest.test_case "negative add rejected" `Quick test_counter_negative_rejected;
        Alcotest.test_case "labels distinguish" `Quick test_labels_distinguish;
        Alcotest.test_case "kind clash rejected" `Quick test_kind_clash_rejected;
        Alcotest.test_case "name validation" `Quick test_name_validation;
        Alcotest.test_case "gauge" `Quick test_gauge;
        Alcotest.test_case "snapshot order" `Quick test_snapshot_sorted_and_stable;
        Alcotest.test_case "reset keeps handles" `Quick test_reset_keeps_handles;
        Alcotest.test_case "is_timing" `Quick test_is_timing;
        Alcotest.test_case "pow2 boundaries" `Quick test_histogram_pow2_boundaries;
        Alcotest.test_case "zero and negative buckets" `Quick
          test_histogram_zero_and_negative_buckets ] );
    ( "obs.span",
      [ Alcotest.test_case "nesting under a fake clock" `Quick test_span_nesting_fake_clock;
        Alcotest.test_case "closes on exception" `Quick test_span_closes_on_exception;
        Alcotest.test_case "timed agrees with roots" `Quick test_span_timed_duration_agrees;
        Alcotest.test_case "flatten paths" `Quick test_span_flatten_paths;
        Alcotest.test_case "roots sorted" `Quick test_span_roots_sorted ] );
    ( "obs.log",
      [ Alcotest.test_case "level filter" `Quick test_log_levels_filter;
        Alcotest.test_case "text format" `Quick test_log_text_format;
        Alcotest.test_case "json format" `Quick test_log_json_format ] );
    ( "obs.export",
      [ Alcotest.test_case "prometheus deterministic" `Quick test_prometheus_deterministic;
        Alcotest.test_case "prometheus shape" `Quick test_prometheus_shape;
        Alcotest.test_case "json parse-stable" `Quick test_json_parse_stable;
        Alcotest.test_case "label escaping" `Quick test_prometheus_label_escaping;
        Alcotest.test_case "help escaping" `Quick test_prometheus_help_escaping;
        Alcotest.test_case "span json" `Quick test_span_json ] );
    ( "obs.pipeline",
      [ Alcotest.test_case "non-timing metrics deterministic" `Quick
          test_pipeline_counters_deterministic;
        Alcotest.test_case "batched metering is exact" `Quick
          test_coverage_metering_batched_exact;
        Alcotest.test_case "elapsed_s is the root span" `Quick
          test_runner_elapsed_is_root_span ] ) ]
