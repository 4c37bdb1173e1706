(* serve-poll: four tenants of one [Hub], each re-ingesting its own
   xfstests v3 trace (suite seeds seed .. seed+3, scale 0.25) in
   successive sessions through [Hub.ingest_step] at the hub's default
   batch size.  One thread round-robins the tenants; after each
   committed batch it asks that tenant for [Digest], then [Coverage].
   There are no other threads and no socket: the transport is left out
   so that the run measures iocov, not the scheduler. *)

module Runner = Iocov_suites.Runner
module Coverage = Iocov_core.Coverage
module Report = Iocov_core.Report
module Ledger = Iocov_pipe.Ledger
module Filter = Iocov_trace.Filter
module Binary_io = Iocov_trace.Binary_io
module Hub = Iocov_serve.Hub
module Crc32 = Iocov_util.Crc32

let tenants = 4
let scale = 0.25
let mount = "/mnt/test"  (* the serve command's default *)
(* the serve command's default drain size, given to every hub and check *)
let batch = Iocov_serve.Server.default_config.Iocov_serve.Server.batch

type tenant = {
  id : string;
  path : string;
  records : int;
  bytes : int;
  mutable cur : (Hub.session * in_channel * Binary_io.stream) option;
  mutable passes : int;  (* whole passes over the trace, committed *)
}

let setup (conf : Run.conf) =
  Measure.mkdir_p conf.Run.work;
  let ts =
    Array.init tenants (fun i ->
        let path = Filename.concat conf.Run.work (Printf.sprintf "tenant-%d.iocov" i) in
        let tr = Cli.write_trace ~seed:(conf.Run.seed + i) ~scale Runner.Xfstests path in
        { id = Printf.sprintf "tenant-%d" i; path; records = tr.Cli.records;
          bytes = tr.Cli.bytes; cur = None; passes = 0 })
  in
  (ts, Hub.create ~mount ~batch ())

let fresh ts = Array.map (fun t -> { t with cur = None; passes = 0 }) ts

let open_stream path =
  let ic = open_in_bin path in
  match Binary_io.open_stream ic with
  | Ok st -> (ic, st)
  | Error msg ->
    close_in ic;
    failwith msg

let end_pass t ~ok =
  Option.iter
    (fun (s, ic, _) ->
      Hub.close_session s;
      close_in ic)
    t.cur;
  t.cur <- None;
  if ok then t.passes <- t.passes + 1

(* One committed batch for [t], opening the next pass at EOF. *)
let rec ingest hub t =
  let s, _, st =
    match t.cur with
    | Some c -> c
    | None ->
      let ic, st = open_stream t.path in
      let c = (Hub.open_session hub ~tenant:t.id (), ic, st) in
      t.cur <- Some c;
      c
  in
  match Hub.ingest_step s st with
  | Ok 0 ->
    end_pass t ~ok:true;
    ingest hub t
  | Ok n -> Ok n
  | Error _ as e ->
    end_pass t ~ok:false;
    e

(* Drain every open pass to its end, untimed, so each tenant has
   ingested its trace a whole number of times. *)
let finish_passes ts =
  Array.iter
    (fun t ->
      let rec go () =
        match t.cur with
        | None -> ()
        | Some (s, _, st) -> (
          match Hub.ingest_step s st with
          | Ok 0 -> end_pass t ~ok:true
          | Ok _ -> go ()
          | Error _ -> end_pass t ~ok:false)
      in
      go ())
    ts

type poll = {
  digest : Measure.samples;  (* microseconds *)
  report : Measure.samples;
  mutable records : int;
  mutable steps : int;
  mutable wall : float;
  mutable words : float;
  mutable answers : (string * int) list;  (* per step, newest first: digest, report CRC *)
}

(* The closed poll loop over [ts] for [seconds], and until each query
   kind has [min_samples] samples.  [traced] wraps each step and each
   hub call in spans. *)
let poll o hub ts ~seconds ~min_samples ~traced =
  let p =
    { digest = Measure.samples (); report = Measure.samples ();
      records = 0; steps = 0; wall = 0.0; words = 0.0; answers = [] }
  in
  let query t q =
    o.Run.attempted <- o.Run.attempted + 1;
    let run () = Hub.query hub ~tenant:t.id q in
    match if traced then Spans.span Spans.Hub_query run else run () with
    | Ok payload -> payload
    | Error msg ->
      o.Run.failed <- o.Run.failed + 1;
      Run.mismatch o "%s: query failed: %s" t.id msg;
      ""
  in
  let step k =
    let t = ts.(k mod tenants) in
    let ingest () = ingest hub t in
    (match if traced then Spans.span Spans.Hub_ingest ingest else ingest () with
     | Ok n -> p.records <- p.records + n
     | Error msg ->
       o.Run.failed <- o.Run.failed + 1;
       Run.mismatch o "%s: ingest failed: %s" t.id msg);
    let q0 = Measure.now_ns () in
    let d = query t Hub.Digest in
    let q1 = Measure.now_ns () in
    let c = query t Hub.Coverage in
    let q2 = Measure.now_ns () in
    Measure.push p.digest (float_of_int (q1 - q0) /. 1e3);
    Measure.push p.report (float_of_int (q2 - q1) /. 1e3);
    if traced then p.answers <- (d, Crc32.string c) :: p.answers
  in
  let w0 = Measure.minor_words () in
  let t0 = Measure.now_ns () in
  let continue () =
    Measure.seconds_between t0 (Measure.now_ns ()) < seconds
    || Measure.count p.digest < min_samples
  in
  while continue () do
    if traced then Spans.span Spans.Iteration (fun () -> step p.steps) else step p.steps;
    p.steps <- p.steps + 1
  done;
  p.wall <- Measure.seconds_between t0 (Measure.now_ns ());
  p.words <- Measure.minor_words () -. w0;
  p

(* The check: each tenant's digest equals a [drain_batch_dense] replay
   of the same bytes, the same number of times. *)
let check o conf hub ts =
  finish_passes ts;
  let keep_hint = Filter.matches_hint (Filter.mount_point mount) in
  Array.iter
    (fun t ->
      let d = Coverage.Dense.create () in
      let replayed =
        try
          for _ = 1 to t.passes do
            let ic, st = open_stream t.path in
            Fun.protect
              ~finally:(fun () -> close_in ic)
              (fun () ->
                let rec go () =
                  match Binary_io.drain_batch_dense st ~keep_hint ~dense:d ~max:batch () with
                  | Ok dr when dr.Binary_io.dr_produced = 0 -> ()
                  | Ok _ -> go ()
                  | Error msg -> failwith msg
                in
                go ())
          done;
          Ok (Ledger.digest (Coverage.Dense.to_reference d))
        with Failure msg -> Error msg
      in
      match (replayed, Hub.digest hub ~tenant:t.id) with
      | Ok expect, Some got ->
        Run.check_digest o conf
          ~what:(Printf.sprintf "%s after %d passes" t.id t.passes)
          ~expect got
      | Error msg, _ -> Run.mismatch o "%s: reference replay failed: %s" t.id msg
      | _, None -> Run.mismatch o "%s: unknown to the hub" t.id)
    ts

(* --- the traced run's composed pass --- *)

(* The poll loop rebuilt from the pieces the hub is made of: a private
   session shard drained by [drain_batch_dense], folded into the
   tenant's accumulator; an epoch copy, its reference form and digest;
   the coverage summaries.  It replays the traced hub pass step for
   step, and every answer must equal the hub's. *)
let composed o ts ~(answers : (string * int) list) =
  let keep_hint = Filter.matches_hint (Filter.mount_point mount) in
  let live = Array.init tenants (fun _ -> Coverage.Dense.create ()) in
  let shard = Array.init tenants (fun _ -> Coverage.Dense.create ()) in
  let cur = Array.make tenants None in
  let decoded = ref 0 and kept = ref 0 in
  let rec drain i =
    let ic, st =
      match cur.(i) with
      | Some c -> c
      | None ->
        let c = open_stream ts.(i).path in
        cur.(i) <- Some c;
        c
    in
    match
      Spans.span Spans.Binary_io (fun () ->
          Binary_io.drain_batch_dense st ~keep_hint ~dense:shard.(i) ~max:batch ())
    with
    | Ok dr when dr.Binary_io.dr_produced = 0 ->
      close_in ic;
      cur.(i) <- None;
      drain i
    | Ok dr ->
      decoded := !decoded + dr.Binary_io.dr_produced;
      kept := !kept + dr.Binary_io.dr_kept
    | Error msg -> failwith msg
  in
  List.iteri
    (fun k (hub_digest, hub_report) ->
      let i = k mod tenants in
      Spans.span Spans.Iteration (fun () ->
          drain i;
          Spans.span Spans.Hub_commit (fun () ->
              Coverage.Dense.merge_into ~dst:live.(i) shard.(i);
              Coverage.Dense.reset shard.(i));
          let epoch =
            Spans.span Spans.Dense_snapshot (fun () -> Coverage.Dense.snapshot live.(i))
          in
          let cov =
            Spans.span Spans.To_reference (fun () -> Coverage.Dense.to_reference epoch)
          in
          let digest = Spans.span Spans.Digest (fun () -> Ledger.digest cov) in
          let name = ts.(i).id in
          let report =
            Spans.span Spans.Report (fun () ->
                Report.suite_summary ~name cov ^ "\n" ^ Report.untested_summary ~name cov)
          in
          if digest ^ "\n" <> hub_digest || Crc32.string report <> hub_report then
            Run.mismatch o "composed step %d (%s) answers differently from the hub" k name))
    (List.rev answers);
  Array.iter (Option.iter (fun (ic, _) -> close_in ic)) cur;
  (!decoded, !kept)

(* --- the run --- *)

let stats_ratios hub ts =
  let pub = ref 0 and gen = ref 0 and hits = ref 0 and lookups = ref 0 in
  Array.iter
    (fun t ->
      match Hub.stats hub ~tenant:t.id with
      | Some s ->
        pub := !pub + s.Hub.st_publishes;
        gen := !gen + s.Hub.st_generation;
        hits := !hits + s.Hub.st_cache_hits;
        lookups := !lookups + s.Hub.st_cache_hits + s.Hub.st_cache_misses
      | None -> ())
    ts;
  (Measure.ratio !pub !gen, Measure.ratio !hits !lookups)

let run (conf : Run.conf) =
  let o = Run.outcome () in
  let setup_s, (ts, hub) = Run.repeat_setup ~reps:3 (fun () -> setup conf) in
  if conf.Run.plant = Run.Flip_byte then
    Measure.flip_byte ts.(0).path (ts.(0).bytes / 2);
  Measure.reset_peak_rss ();
  if conf.Run.trace then begin
    (* untraced, hub-traced, then composed: a third of the time each *)
    let third = conf.Run.seconds /. 3.0 in
    let ts_u = fresh ts and hub_u = Hub.create ~mount ~batch () in
    let u = poll o hub_u ts_u ~seconds:third ~min_samples:0 ~traced:false in
    let ts_h = fresh ts and hub_h = Hub.create ~mount ~batch () in
    let h = poll o hub_h ts_h ~seconds:third ~min_samples:0 ~traced:true in
    let publish_ratio, cache_hit_ratio = stats_ratios hub_h ts_h in
    let decoded, kept =
      try composed o ts ~answers:h.answers
      with Failure msg ->
        Run.mismatch o "composed pass failed: %s" msg;
        (0, 0)
    in
    check o conf hub_u ts_u;
    check o conf hub_h ts_h;
    let bytes = Array.fold_left (fun n (t : tenant) -> n + t.bytes) 0 ts in
    let records = Array.fold_left (fun n (t : tenant) -> n + t.records) 0 ts in
    Run.layer_metrics o
      { Run.no_counts with
        Run.decoded;
        decoded_kept = kept;
        bytes_per_record = float_of_int bytes /. float_of_int records;
        hub_records = h.records;
        publish_ratio;
        cache_hit_ratio;
        untraced_rate = float_of_int u.records /. u.wall;
        traced_rate = float_of_int h.records /. h.wall }
  end
  else begin
    let p =
      poll o hub ts ~seconds:conf.Run.seconds ~min_samples:Run.min_samples ~traced:false
    in
    let rss = Measure.peak_rss_mb () in
    check o conf hub ts;
    Run.end_to_end o ~setup_s ~events_per_s:(float_of_int p.records /. p.wall)
      ~words_per_event:(p.words /. float_of_int p.records)
      ~rss;
    Run.latency_metrics o ~digest:p.digest ~report:p.report
  end;
  o
