(* live-xfstests and lattice-crashmonkey: [iocov suite xfstests] and
   [iocov suite crashmonkey --configs all] at scale 1, each command with
   a fresh ledger.  The suite drives the VFS under the tracer and every
   record goes live through the mount filter and the replay session. *)

module Runner = Iocov_suites.Runner
module Coverage = Iocov_core.Coverage
module Ledger = Iocov_pipe.Ledger
module Replay = Iocov_par.Replay
module Vconfig = Iocov_vfs.Config
module Filter = Iocov_trace.Filter

type spec = {
  suite : Runner.suite;
  configs : string option;  (* the --configs value; None = no flag *)
}

let xfstests = { suite = Runner.Xfstests; configs = None }
let lattice = { suite = Runner.Crashmonkey; configs = Some "all" }

(* --- the traced command: Runner.run_lattice composed from its parts --- *)

type traced_row = { result : Runner.result; delivered : int; kept : int }

(* One lattice point as Runner.run builds it — the suite is a live
   source, the mount filter a stage, an inline replay session the
   accumulator — with the filter applied here so it can be timed.  The
   dispatch callback only buffers: every [Replay.default_batch] records
   the batch is filtered under one [Filter] span and handed to
   [Replay.sink] under one [Driver] span, so the clock is read per batch,
   never per record. *)
let traced_point ~seed suite (point : Vconfig.point) =
  Spans.span Spans.Runner (fun () ->
      let filter = Filter.mount_point (Cli.suite_mount suite) in
      let session = Replay.session ~pool:(Iocov_par.Pool.create ~jobs:1 ()) () in
      let batch = Replay.default_batch in
      let buf = ref [||] and n = ref 0 and delivered = ref 0 and kept = ref 0 in
      let flush () =
        if !n > 0 then begin
          let b = !buf in
          let k =
            Spans.span Spans.Filter (fun () ->
                let k = ref 0 in
                for i = 0 to !n - 1 do
                  let ev = b.(i) in
                  if Filter.keeps filter ev then begin
                    b.(!k) <- ev;
                    incr k
                  end
                done;
                !k)
          in
          Spans.span Spans.Driver (fun () ->
              for i = 0 to k - 1 do
                Replay.sink session b.(i)
              done);
          kept := !kept + k;
          n := 0
        end
      in
      let dispatch ev =
        if Array.length !buf = 0 then buf := Array.make batch ev;
        !buf.(!n) <- ev;
        incr n;
        incr delivered;
        if !n = batch then flush ()
      in
      let failures, workloads =
        Spans.span Spans.Suites (fun () ->
            let r =
              Cli.exec_suite ~seed ~scale:Cli.scale ?config:(Runner.config_of_point point)
                ~dispatch ~coverage:(Coverage.create ~metered:false ()) suite
            in
            flush ();
            r)
      in
      match Spans.span Spans.Driver (fun () -> Replay.complete session) with
      | Error msg -> failwith ("replay session: " ^ msg)
      | Ok outcome ->
        let coverage = outcome.Replay.coverage in
        Coverage.publish_gauges coverage;
        let result =
          { Runner.suite; coverage; failures; events_total = !delivered;
            events_kept = outcome.Replay.kept; workloads; elapsed_s = 0.0 }
        in
        { result; delivered = !delivered; kept = !kept })

let traced_command ~ledger ~seed ~points suite =
  Spans.span Spans.Iteration (fun () ->
      let rows = List.map (fun p -> (p, traced_point ~seed suite p)) points in
      Spans.span Spans.Report (fun () ->
          ignore (Cli.render_rows (List.map (fun (p, r) -> (p, r.result)) rows) : int));
      let records =
        List.map
          (fun (point, r) ->
            let cov = r.result.Runner.coverage in
            let digest = Spans.span Spans.Digest (fun () -> Ledger.digest cov) in
            let bitmap = Spans.span Spans.Bitmap (fun () -> Ledger.bitmap cov) in
            let record =
              Cli.record ~seed ~config:(Cli.ledger_config point) ~subcommand:"suite"
                ~label:(Runner.suite_name suite) ~flags:Cli.suite_flags
                ~events:r.result.Runner.events_total ~kept:r.result.Runner.events_kept ~lost:0
                ~wall_s:r.result.Runner.elapsed_s ~digest ~bitmap cov
            in
            Spans.span Spans.Ledger_append (fun () -> Cli.append ~ledger record))
          rows
      in
      (List.map snd rows, records))

(* --- the run --- *)

let points_of spec =
  match spec.configs with
  | None -> [ Vconfig.default_point ]
  | Some s -> (
    match Vconfig.points_of_spec s with
    | Ok points -> points
    | Error msg -> failwith msg)

let setup_reps = 15

let run (conf : Run.conf) spec =
  let o = Run.outcome () in
  let suite = spec.suite in
  let ledger = Filename.concat conf.Run.work "ledger" in
  (* set-up, before every command: the lattice points and their config
     digests.  It takes microseconds, so it is repeated and timed
     [setup_reps] times per command, spread over the run.  Removing the
     previous command's ledger is not set-up: [Ledger.append] creates
     the fresh one inside the command, as it would for a user. *)
  let setups = Measure.samples () in
  let setup () =
    Measure.rm_rf ledger;
    Run.setup_into setups ~reps:setup_reps (fun () ->
        let points = points_of spec in
        List.iter (fun p -> ignore (Cli.ledger_config p)) points;
        points)
  in
  let points = setup () in
  Measure.reset_peak_rss ();
  (* timed phase: whole commands, alternating with traced ones in a
     traced run *)
  let untraced = Measure.samples () and traced = Measure.samples () in
  let words = Measure.samples () and probe = Run.probe () in
  let digests = ref [] in
  let traced_delivered = ref 0 and traced_kept = ref 0 in
  let appends = ref 0 and appended_onto = ref 0 in
  let last_coverage = ref None in
  Run.timed_loop ~seconds:conf.Run.seconds ~min_iters:(if conf.Run.trace then 4 else 2)
    (fun i ->
      ignore (setup () : Vconfig.point list);
      Iocov_obs.Span.reset ();
      let is_traced = conf.Run.trace && i mod 2 = 1 in
      let wall =
        if is_traced then begin
          let (rows, records), wall, _ =
            Run.measure (fun () -> traced_command ~ledger ~seed:conf.Run.seed ~points suite)
          in
          List.iter
            (fun r ->
              traced_delivered := !traced_delivered + r.delivered;
              traced_kept := !traced_kept + r.kept)
            rows;
          let n = List.length records in
          appends := !appends + n;
          appended_onto := !appended_onto + (n * (n - 1) / 2);
          digests := List.map (fun r -> r.Ledger.r_digest) records :: !digests;
          Measure.push traced wall;
          wall
        end
        else begin
          let run, wall, w =
            Run.measure (fun () -> Cli.suite ~ledger ~seed:conf.Run.seed ~points suite)
          in
          List.iter
            (fun (_, (r : Runner.result)) ->
              o.Run.attempted <- o.Run.attempted + r.Runner.workloads;
              o.Run.failed <- o.Run.failed + List.length r.Runner.failures)
            run.Cli.rows;
          digests := List.map (fun r -> r.Ledger.r_digest) run.Cli.records :: !digests;
          Measure.push untraced wall;
          Measure.push words w;
          let cov = (snd (List.hd run.Cli.rows)).Runner.coverage in
          last_coverage := Some cov;
          if not conf.Run.trace then Run.probe_after probe cov ~command_s:wall;
          wall
        end
      in
      Printf.printf "command %d%s: %.3f s\n%!" i
        (if is_traced then " (traced)" else "")
        wall);
  let rss = Measure.peak_rss_mb () in
  (* check: each point's trace, written while the suite's own inline
     path observes it, replayed offline; both digests must equal every
     command's digest for that point *)
  let delivered = ref 0 in
  let check_digests =
    List.mapi
      (fun i (point : Vconfig.point) ->
        let path = Filename.concat conf.Run.work (Printf.sprintf "point-%d.iocov" i) in
        let tr =
          Cli.write_trace ~seed:conf.Run.seed ~scale:Cli.scale
            ?config:(Runner.config_of_point point) suite path
        in
        delivered := !delivered + tr.Cli.records;
        if conf.Run.plant = Run.Flip_byte then Measure.flip_byte path (tr.Cli.bytes / 2);
        let what = Printf.sprintf "%s at %s" (Runner.suite_name suite) point.Vconfig.pt_name in
        let inline = Ledger.digest tr.Cli.inline in
        (match Cli.replay_digest ~mount:(Cli.suite_mount suite) path with
         | Ok d -> Run.check_digest o conf ~what:(what ^ ", offline replay") ~expect:d inline
         | Error msg -> Run.mismatch o "%s: offline replay failed: %s" what msg);
        Sys.remove path;
        inline)
      points
  in
  List.iter
    (fun ds ->
      List.iteri
        (fun i d ->
          let what = Printf.sprintf "%s command, point %d" (Runner.suite_name suite) i in
          Run.check_digest o conf ~what ~expect:(List.nth check_digests i) d)
        ds)
    !digests;
  (* the lattice's default point against a plain run at that point *)
  if spec.configs <> None then begin
    let plain = Runner.run ~seed:conf.Run.seed suite in
    List.iteri
      (fun i (p : Vconfig.point) ->
        if p.Vconfig.pt_name = Vconfig.default_point.Vconfig.pt_name then
          Run.check_digest o conf ~what:"lattice default point against a plain run"
            ~expect:(Ledger.digest plain.Runner.coverage)
            (List.nth check_digests i))
      points
  end;
  if conf.Run.trace && !traced_delivered <> !delivered * Measure.count traced then
    Run.mismatch o "traced commands delivered %d records, expected %d" !traced_delivered
      (!delivered * Measure.count traced);
  (* records per second over all commands of a kind *)
  let rate s = float_of_int (!delivered * Measure.count s) /. Measure.sum s in
  if conf.Run.trace then
    Run.layer_metrics o
      { Run.no_counts with
        Run.live_events = !traced_delivered;
        filter_kept = !traced_kept;
        ledger_records = Run.per !appends (float_of_int !appended_onto);
        untraced_rate = rate untraced;
        traced_rate = rate traced }
  else begin
    Run.end_to_end o ~setup_s:(Measure.median setups) ~events_per_s:(rate untraced)
      ~words_per_event:(Measure.sum words /. float_of_int (!delivered * Measure.count words))
      ~rss;
    Run.probe_metrics o probe (Option.get !last_coverage)
  end;
  o
