(* What every workload shares: its settings, its outcome, the set-up and
   timed loops, the publish probe, and the traced run's layer report. *)

type plant =
  | No_plant
  | Flip_byte  (** flip one bit of a stored trace before it is read back *)
  | Wrong_digest  (** perturb the digest the correctness check expects *)

type conf = {
  seed : int;
  seconds : float;  (* length of the timed phase *)
  trace : bool;  (* the traced run: per-layer metrics instead of end-to-end *)
  plant : plant;
  work : string;  (* scratch directory of this run, below the checkout *)
}

type outcome = {
  mutable correct : bool;
  mutable attempted : int;
  mutable failed : int;
  mutable metrics : (string * float * string) list;  (* name, value, unit *)
}

let outcome () = { correct = true; attempted = 0; failed = 0; metrics = [] }

let metric o name unit value = o.metrics <- o.metrics @ [ (name, value, unit) ]

let mismatch o fmt =
  Printf.ksprintf
    (fun msg ->
      o.correct <- false;
      Printf.printf "CHECK FAILED: %s\n%!" msg)
    fmt

(* The digest a check compares against, perturbed under [Wrong_digest]. *)
let expected conf digest =
  match conf.plant with
  | Wrong_digest when digest <> "" ->
    let c = if digest.[0] = '0' then "1" else "0" in
    c ^ String.sub digest 1 (String.length digest - 1)
  | _ -> digest

let check_digest o conf ~what ~expect got =
  let expect = expected conf expect in
  if got <> expect then mismatch o "%s: digest %s, expected %s" what got expect

(* Set up [reps] times, recording each time into [s]; the last state. *)
let setup_into s ~reps f =
  let last = ref None in
  for _ = 1 to reps do
    let t0 = Measure.now_ns () in
    let v = f () in
    Measure.push s (Measure.seconds_between t0 (Measure.now_ns ()));
    last := Some v
  done;
  Option.get !last

(* Set up [reps] times; the median time and the last state. *)
let repeat_setup ~reps f =
  let s = Measure.samples () in
  let v = setup_into s ~reps f in
  (Measure.median s, v)

(* Run [f i] for i = 0, 1, ... until [seconds] have passed and at least
   [min_iters] iterations ran. *)
let timed_loop ~seconds ~min_iters f =
  let t0 = Measure.now_ns () in
  let rec go i =
    if i < min_iters || Measure.seconds_between t0 (Measure.now_ns ()) < seconds then begin
      f i;
      go (i + 1)
    end
  in
  go 0

(* One timed iteration: wall seconds and minor words around [f]. *)
let measure f =
  let w0 = Measure.minor_words () in
  let t0 = Measure.now_ns () in
  let v = f () in
  let t1 = Measure.now_ns () in
  let w1 = Measure.minor_words () in
  (v, Measure.seconds_between t0 t1, w1 -. w0)

(* --- end-to-end latency metrics --- *)

(* p99 windows; each needs ten samples beyond its p99. *)
let p99_window = 1000
let min_samples = 1200

let latency_metrics o ~digest ~report =
  List.iter
    (fun (kind, s) ->
      if Measure.beyond_p99 (min p99_window (Measure.count s)) < 10 then
        mismatch o "%s: %d samples leave fewer than ten beyond p99" kind (Measure.count s);
      metric o (kind ^ "_p50_us") "us" (Measure.percentile s 0.50);
      metric o (kind ^ "_p99_us") "us" (Measure.windowed_p99 s ~window:p99_window))
    [ ("digest", digest); ("report", report) ]

(* Outside serve-poll, the digest and report a user waits for come at
   the end of a command: [Ledger.digest] and the coverage summaries of
   the command's coverage.  The probe times the two in turn after each
   untraced command, for as long as the command took, so its samples
   spread over the whole timed phase as serve-poll's do and see the
   machine in every state the commands saw.  A full major collection
   first keeps the command's garbage from being charged to the probe. *)
type probe = { digest : Measure.samples; report : Measure.samples }

let probe () = { digest = Measure.samples (); report = Measure.samples () }

let probe_round p cov =
  let t0 = Measure.now_ns () in
  ignore (Sys.opaque_identity (Iocov_pipe.Ledger.digest cov));
  let t1 = Measure.now_ns () in
  ignore
    (Sys.opaque_identity
       (Iocov_core.Report.suite_summary ~name:"probe" cov
       ^ "\n"
       ^ Iocov_core.Report.untested_summary ~name:"probe" cov));
  let t2 = Measure.now_ns () in
  Measure.push p.digest (float_of_int (t1 - t0) /. 1e3);
  Measure.push p.report (float_of_int (t2 - t1) /. 1e3)

let probe_after p cov ~command_s =
  Gc.full_major ();
  let stop = Measure.now_ns () + int_of_float (command_s *. 1e9) in
  probe_round p cov;
  while Measure.now_ns () < stop do
    probe_round p cov
  done

(* Tops the probe up to [min_samples] (short runs) and reports it. *)
let probe_metrics o p cov =
  while Measure.count p.digest < min_samples do
    probe_round p cov
  done;
  latency_metrics o ~digest:p.digest ~report:p.report

let end_to_end o ~setup_s ~events_per_s ~words_per_event ~rss =
  metric o "setup_s" "s" setup_s;
  metric o "events_per_s" "records/s" events_per_s;
  metric o "words_per_event" "words" words_per_event;
  metric o "peak_rss_mb" "MiB" rss

(* --- the traced run's per-layer report --- *)

type counts = {
  live_events : int;  (* records dispatched to the analyzer in traced iterations *)
  filter_kept : int;
  decoded : int;  (* records drained by Binary_io spans *)
  decoded_kept : int;
  bytes_per_record : float;  (* trace file bytes per stored record *)
  ledger_records : float;  (* mean records in the ledger at each append *)
  hub_records : int;  (* records ingested by Hub.ingest_step spans *)
  publish_ratio : float;
  cache_hit_ratio : float;
  untraced_rate : float;  (* records/s, untraced iterations of this run *)
  traced_rate : float;
}

let no_counts =
  { live_events = 0; filter_kept = 0; decoded = 0; decoded_kept = 0;
    bytes_per_record = 0.0; ledger_records = 0.0; hub_records = 0; publish_ratio = 0.0;
    cache_hit_ratio = 0.0; untraced_rate = 0.0; traced_rate = 0.0 }

let per n x = if n = 0 then 0.0 else x /. float_of_int n

let layer_metrics o c =
  let t = Spans.totals () in
  let self_ns l = float_of_int (Spans.get t l).Spans.self_ns in
  let self_words l = (Spans.get t l).Spans.self_words in
  let mean_us l =
    let a = Spans.get t l in
    per a.Spans.spans (float_of_int a.Spans.incl_ns /. 1e3)
  in
  let wall = Spans.traced_wall_ns () in
  let glue = (Spans.get t Spans.Iteration).Spans.self_ns in
  let gap = Measure.ratio glue wall in
  let overhead =
    if c.traced_rate > 0.0 then (c.untraced_rate /. c.traced_rate) -. 1.0 else 0.0
  in
  (* the reconciliation, printed before the metrics *)
  Printf.printf "%-22s %8s %12s %7s %14s\n" "layer (self time)" "spans" "self ms" "share"
    "self words";
  let sum = ref 0 in
  Array.iter
    (fun l ->
      let a = Spans.get t l in
      if a.Spans.spans > 0 && l <> Spans.Iteration then begin
        sum := !sum + a.Spans.self_ns;
        Printf.printf "%-22s %8d %12.3f %6.1f%% %14.0f\n" (Spans.name l) a.Spans.spans
          (float_of_int a.Spans.self_ns /. 1e6)
          (100.0 *. Measure.ratio a.Spans.self_ns wall)
          a.Spans.self_words
      end)
    Spans.all;
  Printf.printf
    "sum of layer self times %.3f ms against traced wall clock %.3f ms: gap %.1f%%%s\n"
    (float_of_int !sum /. 1e6) (float_of_int wall /. 1e6) (100.0 *. gap)
    (if gap > 0.1 then "  ** exceeds a tenth **" else "");
  Printf.printf "tracing overhead: untraced %.0f records/s, traced %.0f records/s (%+.1f%%)\n%!"
    c.untraced_rate c.traced_rate (100.0 *. overhead);
  let live = c.live_events and m = metric o in
  m "suites.ns_per_event" "ns" (per live (self_ns Spans.Suites));
  m "suites.words_per_event" "words" (per live (self_words Spans.Suites));
  m "filter.ns_per_event" "ns" (per live (self_ns Spans.Filter));
  m "filter.words_per_event" "words" (per live (self_words Spans.Filter));
  m "filter.kept_ratio" "ratio" (Measure.ratio c.filter_kept live);
  m "driver.ns_per_event" "ns" (per (live + c.decoded) (self_ns Spans.Driver));
  m "driver.words_per_event" "words" (per (live + c.decoded) (self_words Spans.Driver));
  m "runner.point_ms" "ms" (mean_us Spans.Runner /. 1e3);
  m "binary_io.ns_per_record" "ns" (per c.decoded (self_ns Spans.Binary_io));
  m "binary_io.words_per_record" "words" (per c.decoded (self_words Spans.Binary_io));
  m "binary_io.bytes_per_record" "bytes" c.bytes_per_record;
  m "binary_io.kept_ratio" "ratio" (Measure.ratio c.decoded_kept c.decoded);
  m "coverage.to_reference_us" "us" (mean_us Spans.To_reference);
  m "snapshot.digest_us" "us" (mean_us Spans.Digest);
  m "ledger.bitmap_us" "us" (mean_us Spans.Bitmap);
  m "report.render_us" "us" (mean_us Spans.Report);
  m "ledger.append_ms" "ms" (mean_us Spans.Ledger_append /. 1e3);
  m "ledger.records" "count" c.ledger_records;
  m "hub.ingest_ns_per_record" "ns" (per c.hub_records (self_ns Spans.Hub_ingest));
  m "hub.ingest_words_per_record" "words" (per c.hub_records (self_words Spans.Hub_ingest));
  m "hub.snapshot_us" "us" (mean_us Spans.Dense_snapshot);
  m "hub.publish_ratio" "ratio" c.publish_ratio;
  m "hub.cache_hit_ratio" "ratio" c.cache_hit_ratio;
  m "trace.overhead_ratio" "ratio" overhead;
  m "trace.unattributed_ratio" "ratio" gap
