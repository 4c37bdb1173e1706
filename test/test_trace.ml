(* Tests for the tracing layer: event emission, fd-path reconstruction,
   the text format, and the mount-point filter. *)

open Iocov_syscall
module Fs = Iocov_vfs.Fs
module Event = Iocov_trace.Event
module Tracer = Iocov_trace.Tracer
module Format_io = Iocov_trace.Format_io
module Filter = Iocov_trace.Filter

let check_bool = Alcotest.(check bool)
let check_int = Alcotest.(check int)
let check_string = Alcotest.(check string)

let rdonly = Open_flags.of_flags Open_flags.[ O_RDONLY ]
let creat = Open_flags.of_flags Open_flags.[ O_WRONLY; O_CREAT ]

let traced_setup () =
  let fs = Fs.create () in
  let tracer = Tracer.create ~pid:99 ~comm:"unit" fs in
  let events = ref [] in
  Tracer.on_event tracer (fun e -> events := e :: !events);
  ignore (Tracer.exec tracer (Model.mkdir ~mode:0o755 "/mnt"));
  ignore (Tracer.exec tracer (Model.mkdir ~mode:0o755 "/mnt/test"));
  (tracer, events)

let last events = List.hd !events

let test_event_per_call () =
  let tracer, events = traced_setup () in
  let before = List.length !events in
  ignore (Tracer.exec tracer (Model.open_ ~flags:rdonly "/mnt/test/none"));
  check_int "one event emitted" (before + 1) (List.length !events)

let test_event_fields () =
  let tracer, events = traced_setup () in
  ignore (Tracer.exec tracer (Model.open_ ~flags:rdonly "/mnt/test/none"));
  let e = last events in
  check_int "pid" 99 e.Event.pid;
  check_string "comm" "unit" e.Event.comm;
  check_bool "tracked" true (Event.is_tracked e);
  check_bool "base" true (Event.base e = Some Model.Open);
  check_bool "outcome recorded" true (e.Event.outcome = Model.Err Errno.ENOENT)

let test_timestamps_monotone () =
  let tracer, events = traced_setup () in
  for _ = 1 to 5 do
    ignore (Tracer.exec tracer (Model.open_ ~flags:rdonly "/mnt/test/none"))
  done;
  let ts = List.rev_map (fun e -> e.Event.timestamp_ns) !events in
  let rec monotone = function
    | a :: (b :: _ as rest) -> a < b && monotone rest
    | _ -> true
  in
  check_bool "strictly increasing" true (monotone ts)

let test_fd_path_reconstruction () =
  let tracer, events = traced_setup () in
  (match Tracer.exec tracer (Model.open_ ~mode:0o644 ~flags:creat "/mnt/test/file") with
   | Model.Ret fd ->
     ignore (Tracer.exec tracer (Model.write ~fd ~count:10 ()));
     let e = last events in
     check_bool "write hint from fd table" true (e.Event.path_hint = Some "/mnt/test/file");
     ignore (Tracer.exec tracer (Model.close fd));
     let e = last events in
     check_bool "close hint too" true (e.Event.path_hint = Some "/mnt/test/file");
     (* after close, the binding is gone *)
     ignore (Tracer.exec tracer (Model.read ~fd ~count:1 ()));
     check_bool "stale fd has no hint" true ((last events).Event.path_hint = None)
   | Model.Err e -> Alcotest.failf "open failed: %s" (Errno.to_string e))

let test_relative_paths_absolutized () =
  let tracer, events = traced_setup () in
  ignore (Tracer.exec tracer (Model.chdir (Model.Path "/mnt/test")));
  ignore (Tracer.exec tracer (Model.open_ ~mode:0o644 ~flags:creat "sub.txt"));
  check_bool "hint absolutized" true
    ((last events).Event.path_hint = Some "/mnt/test/sub.txt");
  check_string "tracer cwd tracked" "/mnt/test" (Tracer.cwd tracer)

let test_dot_dot_folded () =
  let tracer, events = traced_setup () in
  ignore (Tracer.exec tracer (Model.open_ ~flags:rdonly "/mnt/test/../test/./x"));
  check_bool "canonical hint" true ((last events).Event.path_hint = Some "/mnt/test/x")

let test_aux_events () =
  let tracer, events = traced_setup () in
  ignore (Tracer.exec_aux tracer (Fs.Unlink "/mnt/test/none"));
  let e = last events in
  check_bool "aux untracked" false (Event.is_tracked e);
  (match e.Event.payload with
   | Event.Aux { name; _ } -> check_string "aux name" "unlink" name
   | Event.Tracked _ -> Alcotest.fail "expected aux");
  check_bool "aux hint" true (e.Event.path_hint = Some "/mnt/test/none")

let test_crash_resets_tracker_state () =
  let tracer, _events = traced_setup () in
  (match Tracer.exec tracer (Model.open_ ~mode:0o644 ~flags:creat "/mnt/test/f") with
   | Model.Ret _ -> ()
   | Model.Err _ -> Alcotest.fail "open");
  ignore (Tracer.exec tracer (Model.chdir (Model.Path "/mnt/test")));
  ignore (Tracer.exec_aux tracer Fs.Crash);
  check_string "cwd reset" "/" (Tracer.cwd tracer)

(* Reference hints: every path split, folded and re-joined against the
   working directory, with no canonical-path shortcut. *)
let fold_absolutize ~cwd path =
  let raw =
    if String.length path > 0 && path.[0] = '/' then path else Iocov_vfs.Path.join cwd path
  in
  let parts = List.filter (fun c -> c <> "") (String.split_on_char '/' raw) in
  let folded =
    List.fold_left
      (fun acc c ->
        match c with
        | "." -> acc
        | ".." -> (match acc with [] -> [] | _ :: rest -> rest)
        | c -> c :: acc)
      [] parts
  in
  "/" ^ String.concat "/" (List.rev folded)

(* Random paths over "/", ".", ".." and "a", run as mkdir, chdir,
   open and close: every hint, the fd-table hint of the close, and the
   tracked cwd must equal the fold reference run beside the tracer. *)
let hints_match_fold_prop =
  let path_gen =
    QCheck.Gen.(
      map (String.concat "") (list_size (int_range 0 8) (oneofl [ "/"; "."; ".."; "a" ])))
  in
  let op_gen =
    QCheck.Gen.(
      map2
        (fun kind path -> (kind, path))
        (frequency [ (3, return `Mkdir); (2, return `Chdir); (3, return `Open) ])
        path_gen)
  in
  let show (kind, path) =
    Printf.sprintf "%s %S"
      (match kind with `Mkdir -> "mkdir" | `Chdir -> "chdir" | `Open -> "open")
      path
  in
  QCheck.Test.make ~name:"hints = fold reference" ~count:300
    (QCheck.make ~print:QCheck.Print.(list show) QCheck.Gen.(list_size (int_range 1 30) op_gen))
    (fun ops ->
      let tracer = Tracer.create (Fs.create ()) in
      let hints = ref [] in
      Tracer.on_event tracer (fun e -> hints := e.Event.path_hint :: !hints);
      let cwd = ref "/" in
      let expect what want =
        match !hints with
        | got :: _ when got = Some want -> ()
        | got :: _ ->
          QCheck.Test.fail_reportf "%s: hint %s, want %S" what
            (Option.fold ~none:"none" ~some:(Printf.sprintf "%S") got)
            want
        | [] -> QCheck.Test.fail_reportf "%s: no record" what
      in
      List.iter
        (fun (kind, path) ->
          let want = fold_absolutize ~cwd:!cwd path in
          (match kind with
           | `Mkdir ->
             ignore (Tracer.exec tracer (Model.mkdir ~mode:0o755 path));
             expect "mkdir" want
           | `Chdir ->
             (match Tracer.exec tracer (Model.chdir (Model.Path path)) with
              | Model.Ret _ -> cwd := want
              | Model.Err _ -> ());
             expect "chdir" want
           | `Open ->
             (match Tracer.exec tracer (Model.open_ ~flags:rdonly path) with
              | Model.Ret fd ->
                expect "open" want;
                ignore (Tracer.exec tracer (Model.close fd));
                expect "close" want
              | Model.Err _ -> expect "open" want));
          if Tracer.cwd tracer <> !cwd then
            QCheck.Test.fail_reportf "cwd %S, want %S" (Tracer.cwd tracer) !cwd)
        ops;
      true)

(* Four domains, released together, each run the suite with their own
   tracers: every per-kind call counter must grow by exactly four times
   what one sequential run adds. *)
let test_kind_counters_domain_safe () =
  let module Metrics = Iocov_obs.Metrics in
  let kinds =
    List.map Model.variant_name Model.all_variants
    @ List.map Fs.aux_name
        Fs.[ Unlink ""; Rmdir ""; Rename ("", ""); Symlink ("", ""); Link ("", "");
             Fsync 0; Fdatasync 0; Sync; Crash ]
  in
  let read () =
    List.map
      (fun kind ->
        Metrics.Counter.value
          (Metrics.counter Metrics.default "iocov_tracer_calls_total"
             ~labels:[ ("syscall", kind) ]))
      kinds
  in
  let run () =
    ignore (Iocov_suites.Xfstests.emit ~seed:5 ~scale:0.02 ~on_record:ignore ())
  in
  let growth f =
    let before = read () in
    f ();
    List.map2 ( - ) (read ()) before
  in
  let one = growth run in
  check_bool "the suite calls through the tracer" true (List.exists (fun n -> n > 0) one);
  let four =
    growth (fun () ->
        let go = Atomic.make false in
        let domains =
          List.init 4 (fun _ ->
              Domain.spawn (fun () ->
                  while not (Atomic.get go) do
                    Domain.cpu_relax ()
                  done;
                  run ()))
        in
        Atomic.set go true;
        List.iter Domain.join domains)
  in
  List.iter2
    (fun kind (n1, n4) -> check_int (Printf.sprintf "calls{syscall=%s}" kind) (4 * n1) n4)
    kinds (List.combine one four)

(* --- text format --- *)

let sample_event payload outcome hint =
  { Event.seq = 1; timestamp_ns = 12345; pid = 7; comm = "xfstests"; payload;
    outcome; path_hint = hint }

let test_line_roundtrip_tracked () =
  let e =
    sample_event
      (Event.Tracked (Model.open_ ~flags:rdonly "/mnt/test/a b\"c"))
      (Model.Ret 3) (Some "/mnt/test/a b\"c")
  in
  let line = Format_io.to_line e in
  match Format_io.of_line line with
  | Ok e' -> check_string "roundtrip" line (Format_io.to_line e')
  | Error msg -> Alcotest.failf "parse failed: %s (%s)" msg line

let test_line_roundtrip_aux () =
  let e =
    sample_event (Event.Aux { name = "fsync"; detail = "fd=3" }) (Model.Ret 0)
      (Some "/mnt/test/x")
  in
  let line = Format_io.to_line e in
  match Format_io.of_line line with
  | Ok e' -> check_string "roundtrip" line (Format_io.to_line e')
  | Error msg -> Alcotest.failf "parse failed: %s" msg

let test_line_roundtrip_no_hint () =
  let e = sample_event (Event.Aux { name = "sync"; detail = "" }) (Model.Ret 0) None in
  let line = Format_io.to_line e in
  match Format_io.of_line line with
  | Ok e' -> check_bool "no hint" true (e'.Event.path_hint = None)
  | Error msg -> Alcotest.failf "parse failed: %s" msg

let test_line_errors () =
  List.iter
    (fun line ->
      match Format_io.of_line line with
      | Ok _ -> Alcotest.failf "expected failure: %S" line
      | Error _ -> ())
    [ ""; "garbage"; "[1] pid=1 comm=\"x\" nonsense";
      "[x] pid=1 comm=\"a\" close(fd=1) -> ok:0" ]

let test_channel_roundtrip () =
  let tracer, events = traced_setup () in
  (match Tracer.exec tracer (Model.open_ ~mode:0o644 ~flags:creat "/mnt/test/f") with
   | Model.Ret fd ->
     ignore (Tracer.exec tracer (Model.write ~fd ~count:100 ()));
     ignore (Tracer.exec_aux tracer (Fs.Fsync fd));
     ignore (Tracer.exec tracer (Model.close fd))
   | Model.Err _ -> Alcotest.fail "open");
  let recorded = List.rev !events in
  let path = Filename.temp_file "iocov_test" ".trace" in
  let oc = open_out path in
  Trace_reader.write_text oc recorded;
  close_out oc;
  let ic = open_in path in
  let read_back = Result.get_ok (Trace_reader.read_text ic) in
  close_in ic;
  Sys.remove path;
  check_int "all records back" (List.length recorded) (List.length read_back);
  List.iter2
    (fun a b -> check_string "record identical" (Format_io.to_line a) (Format_io.to_line b))
    recorded read_back

let test_fold_skips_comments () =
  let path = Filename.temp_file "iocov_test" ".trace" in
  let oc = open_out path in
  output_string oc "# a comment\n\n";
  output_string oc "[1] pid=1 comm=\"t\" close(fd=3) -> err:EBADF\n";
  close_out oc;
  let ic = open_in path in
  let lines = Format_io.read_raw_batch (Format_io.open_stream ic) ~max:16 in
  close_in ic;
  let n = Array.length lines in
  check_int "numbered past the skipped lines" 3 (fst lines.(0));
  Sys.remove path;
  check_int "one record" 1 n

let event_roundtrip_prop =
  let gen =
    QCheck.Gen.(
      let* fd = int_range 0 1000 in
      let* count = int_range 0 (1 lsl 30) in
      let* ts = int_range 0 (1 lsl 40) in
      let* hint = opt (map (fun s -> "/mnt/" ^ s) (string_size ~gen:(char_range 'a' 'z') (return 5))) in
      let* ok = bool in
      return
        {
          Event.seq = 0;
          timestamp_ns = ts;
          pid = 1;
          comm = "prop";
          payload = Event.Tracked (Model.read ~fd ~count ());
          outcome = (if ok then Model.Ret count else Model.Err Errno.EINTR);
          path_hint = hint;
        })
  in
  QCheck.Test.make ~name:"event line roundtrip" ~count:300 (QCheck.make gen) (fun e ->
      match Format_io.of_line (Format_io.to_line e) with
      | Ok e' -> Format_io.to_line e' = Format_io.to_line e
      | Error _ -> false)

(* --- binary format --- *)

module Binary_io = Iocov_trace.Binary_io

let record_workload () =
  let tracer, events = traced_setup () in
  (match Tracer.exec tracer (Model.open_ ~mode:0o644 ~flags:creat "/mnt/test/bin") with
   | Model.Ret fd ->
     ignore (Tracer.exec tracer (Model.write ~fd ~count:4096 ()));
     ignore (Tracer.exec tracer (Model.write ~variant:Model.Sys_pwrite64 ~offset:0 ~fd ~count:0 ()));
     ignore (Tracer.exec tracer (Model.lseek ~fd ~offset:(-2) ~whence:Whence.SEEK_END));
     ignore (Tracer.exec_aux tracer (Fs.Fsync fd));
     ignore (Tracer.exec tracer (Model.close fd))
   | Model.Err _ -> Alcotest.fail "open failed");
  ignore (Tracer.exec tracer (Model.open_ ~flags:rdonly "/mnt/test/none"));
  ignore
    (Tracer.exec tracer
       (Model.setxattr ~target:(Model.Path "/mnt/test/bin") ~name:"user.k" ~size:9 ()));
  ignore (Tracer.exec tracer (Model.mkdir ~mode:0o1777 "/mnt/test/d"));
  ignore (Tracer.exec tracer (Model.chdir (Model.Path "/mnt/test/d")));
  ignore (Tracer.exec tracer (Model.truncate ~target:(Model.Path "/mnt/test/bin") ~length:77 ()));
  ignore (Tracer.exec tracer (Model.chmod ~target:(Model.Path "/mnt/test/bin") ~mode:0 ()));
  ignore
    (Tracer.exec tracer
       (Model.getxattr ~variant:Model.Sys_lgetxattr ~target:(Model.Path "/mnt/test/bin")
          ~name:"user.k" ~size:0 ()));
  List.rev !events

(* --- fast scanner vs reference parser --- *)

(* [of_line] is the single-pass scanner with a fallback to the
   reference pipeline; it must be extensionally equal to
   [of_line_reference] — same accepted lines, same events, and failures
   on the same inputs. *)
let check_scanner_agrees line =
  match (Format_io.of_line line, Format_io.of_line_reference line) with
  | Ok a, Ok b ->
    check_string
      (Printf.sprintf "agree on %S" line)
      (Format_io.to_line b) (Format_io.to_line a)
  | Error _, Error _ -> ()
  | Ok _, Error msg -> Alcotest.failf "fast accepted, reference rejected %S: %s" line msg
  | Error msg, Ok _ -> Alcotest.failf "fast rejected, reference accepted %S: %s" line msg

let test_scanner_canonical_shapes () =
  (* every call shape the tracer can emit, plus aux and hint variants *)
  let events = record_workload () in
  check_bool "workload covers shapes" true (List.length events >= 10);
  List.iter (fun e -> check_scanner_agrees (Format_io.to_line e)) events;
  (* round-trip sanity: the scanner reproduces the canonical line *)
  List.iter
    (fun e ->
      match Format_io.of_line (Format_io.to_line e) with
      | Ok e' -> check_string "scanner round-trip" (Format_io.to_line e) (Format_io.to_line e')
      | Error msg -> Alcotest.failf "scanner rejected canonical line: %s" msg)
    events

(* The parser shares its name tables between callers (serve parses on
   one thread per connection): four domains released together must each
   get exactly the sequential results.  Many distinct flag combinations
   make any shared mutable table grow while the domains run. *)
let test_scanner_concurrent_parse () =
  let non_access =
    List.filter
      (fun f -> not (List.mem f Open_flags.[ O_RDONLY; O_WRONLY; O_RDWR ]))
      Open_flags.all
  in
  let opens =
    List.concat_map
      (fun a ->
        List.map
          (fun b ->
            let flags = Open_flags.of_flags [ Open_flags.O_RDWR; a; b ] in
            Format_io.to_line
              (sample_event
                 (Iocov_trace.Event.Tracked (Model.open_ ~flags ~mode:0o600 "/mnt/test/f"))
                 (Model.Ret 3) (Some "/mnt/test/f")))
          non_access)
      non_access
  in
  let lines =
    Array.of_list (opens @ List.map Format_io.to_line (record_workload ()))
  in
  let parse_all () =
    Array.map
      (fun line ->
        match Format_io.of_line line with
        | Ok e -> Format_io.to_line e
        | Error msg -> "error: " ^ msg)
      lines
  in
  let ready = Atomic.make 0 and go = Atomic.make false in
  let domains =
    List.init 4 (fun _ ->
        Domain.spawn (fun () ->
            Atomic.incr ready;
            while not (Atomic.get go) do
              Domain.cpu_relax ()
            done;
            parse_all ()))
  in
  while Atomic.get ready < 4 do
    Domain.cpu_relax ()
  done;
  Atomic.set go true;
  (* the sequential parse comes last, so that in a fresh process the
     domains are the first to touch the parser's tables *)
  let results = List.map Domain.join domains in
  let expected = parse_all () in
  List.iteri
    (fun i got ->
      Array.iteri
        (fun j line -> check_string (Printf.sprintf "domain %d, line %d" i j) line got.(j))
        expected)
    results

let test_scanner_noncanonical_agrees () =
  List.iter check_scanner_agrees
    [ (* reordered fields: reference accepts, scanner must defer *)
      "[1] pid=1 comm=\"t\" read(count=4, fd=3) -> ok:4";
      (* liberal whitespace the reference's Scanf tolerates *)
      "[1]  pid=1 comm=\"t\" close(fd=1) -> ok:0";
      "[1] pid=1 comm=\"t\" close(fd=1) -> ok:0 ";
      (* underscored integers: int_of_string accepts them *)
      "[1] pid=1 comm=\"t\" close(fd=1_0) -> ok:0";
      "[1] pid=1 comm=\"t\" chmod(path=\"/a\", mode=0o6_44) -> ok:0";
      (* duplicate field: the reference keeps the first *)
      "[1] pid=1 comm=\"t\" close(fd=1, fd=2) -> ok:0";
      (* a hint containing the arrow breaks the reference's last-arrow
         split; the scanner must agree, not silently succeed *)
      "[1] pid=1 comm=\"t\" close(fd=1) -> ok:0 hint=\"x -> y\"";
      (* aux payloads with hostile details *)
      "[1] pid=1 comm=\"t\" !fsync(fd=3 (dup)) -> ok:0";
      "[1] pid=1 comm=\"t\" !note(a -> b) -> ok:0";
      "[1] pid=1 comm=\"t\" !note(a) -> b) -> ok:0";
      (* escapes in strings *)
      "[1] pid=1 comm=\"a\\\"b\\n\\t\\\\\" close(fd=1) -> ok:0";
      "[1] pid=1 comm=\"t\" chdir(path=\"/m\\001nt\") -> ok:0 hint=\"/m\\001nt\"";
      (* malformed tails *)
      "[1] pid=1 comm=\"t\" close(fd=1) -> ok:x";
      "[1] pid=1 comm=\"t\" close(fd=1) -> err:EWHAT";
      "[1] pid=1 comm=\"t\" close(fd=1) -> ok:0 junk";
      "[1] pid=1 comm=\"t\" open(path=\"/a\", flags=O_RDONLY) -> ok:3";
      "[1] pid=1 comm=\"t\" frobnicate(fd=1) -> ok:0";
      "[1] pid=1 comm=\"t\" close(fd=1)";
      "[-5] pid=-3 comm=\"t\" lseek(fd=3, offset=-2, whence=SEEK_HOLE) -> err:EINVAL" ]

let scanner_agreement_prop =
  (* arbitrary bytes in every string position: escape decoding, bail
     heuristics, and the fallback must stay aligned with the oracle *)
  let gen =
    QCheck.Gen.(
      let any_string = string_size ~gen:(map Char.chr (int_range 0 255)) (int_range 0 12) in
      let* comm = any_string in
      let* path = any_string in
      let* hint = opt any_string in
      let* err = bool in
      return
        {
          Event.seq = 0;
          timestamp_ns = 7;
          pid = 9;
          comm;
          payload = Event.Tracked (Model.chdir (Model.Path path));
          outcome = (if err then Model.Err Errno.ENOENT else Model.Ret 0);
          path_hint = hint;
        })
  in
  QCheck.Test.make ~name:"scanner agrees with reference" ~count:500 (QCheck.make gen)
    (fun e ->
      let line = Format_io.to_line e in
      match (Format_io.of_line line, Format_io.of_line_reference line) with
      | Ok a, Ok b -> Format_io.to_line a = Format_io.to_line b
      | Error _, Error _ -> true
      | _ -> false)


let binary_roundtrip events =
  let path = Filename.temp_file "iocov_bin" ".trace" in
  let oc = open_out_bin path in
  let w = Binary_io.writer oc in
  List.iter (Binary_io.write_event w) events;
  Binary_io.flush w;
  close_out oc;
  let ic = open_in_bin path in
  let back = Trace_reader.read_binary ic in
  close_in ic;
  Sys.remove path;
  back

let test_binary_roundtrip () =
  let events = record_workload () in
  match binary_roundtrip events with
  | Ok back ->
    check_int "count preserved" (List.length events) (List.length back);
    List.iter2
      (fun a b ->
        (* compare through the text form, which covers every field *)
        check_string "record identical" (Format_io.to_line a) (Format_io.to_line b))
      events back
  | Error msg -> Alcotest.failf "decode failed: %s" msg

let test_binary_smaller_than_text () =
  let events = record_workload () in
  let bin = Filename.temp_file "iocov_bin" ".trace" in
  let txt = Filename.temp_file "iocov_txt" ".trace" in
  let oc = open_out_bin bin in
  let w = Binary_io.writer oc in
  List.iter (Binary_io.write_event w) events;
  Binary_io.flush w;
  close_out oc;
  let oc = open_out txt in
  Trace_reader.write_text oc events;
  close_out oc;
  let size f = (Unix.stat f).Unix.st_size in
  let b = size bin and t = size txt in
  Sys.remove bin;
  Sys.remove txt;
  check_bool "binary at most half the text size" true (b * 2 < t)

let test_binary_detects_magic () =
  let events = record_workload () in
  let bin = Filename.temp_file "iocov_bin" ".trace" in
  let oc = open_out_bin bin in
  let w = Binary_io.writer oc in
  List.iter (Binary_io.write_event w) events;
  Binary_io.flush w;
  close_out oc;
  let ic = open_in_bin bin in
  check_bool "binary detected" true (Binary_io.is_binary_trace ic);
  (* detection must not consume the stream *)
  check_bool "still decodable" true (Result.is_ok (Trace_reader.read_binary ic));
  close_in ic;
  Sys.remove bin;
  let txt = Filename.temp_file "iocov_txt" ".trace" in
  let oc = open_out txt in
  output_string oc "[1] pid=1 comm=\"t\" close(fd=3) -> ok:0\n";
  close_out oc;
  let ic = open_in_bin txt in
  check_bool "text not detected as binary" false (Binary_io.is_binary_trace ic);
  close_in ic;
  Sys.remove txt

let test_binary_rejects_corruption () =
  let events = record_workload () in
  let bin = Filename.temp_file "iocov_bin" ".trace" in
  let oc = open_out_bin bin in
  let w = Binary_io.writer oc in
  List.iter (Binary_io.write_event w) events;
  Binary_io.flush w;
  close_out oc;
  let data = In_channel.with_open_bin bin In_channel.input_all in
  Sys.remove bin;
  (* truncated stream *)
  let cut = Filename.temp_file "iocov_bin" ".trace" in
  let oc = open_out_bin cut in
  output_string oc (String.sub data 0 (String.length data - 3));
  close_out oc;
  let ic = open_in_bin cut in
  check_bool "truncation detected" true (Result.is_error (Trace_reader.read_binary ic));
  close_in ic;
  Sys.remove cut;
  (* wrong magic *)
  let bad = Filename.temp_file "iocov_bin" ".trace" in
  let oc = open_out_bin bad in
  output_string oc "NOPE!";
  close_out oc;
  let ic = open_in_bin bad in
  check_bool "bad magic rejected" true (Result.is_error (Trace_reader.read_binary ic));
  close_in ic;
  Sys.remove bad

let binary_event_roundtrip_prop =
  let gen =
    QCheck.Gen.(
      let* fd = int_range 0 1000 in
      let* count = int_range 0 (1 lsl 30) in
      let* ts = int_range 0 (1 lsl 40) in
      let* hint = opt (map (fun s -> "/mnt/" ^ s) (string_size ~gen:(char_range 'a' 'z') (return 5))) in
      let* err = oneofl Errno.all in
      let* ok = bool in
      return
        {
          Event.seq = 1;
          timestamp_ns = ts;
          pid = 1;
          comm = "prop";
          payload = Event.Tracked (Model.write ~variant:Model.Sys_pwrite64 ~offset:count ~fd ~count ());
          outcome = (if ok then Model.Ret count else Model.Err err);
          path_hint = hint;
        })
  in
  QCheck.Test.make ~name:"binary event roundtrip" ~count:200 (QCheck.make gen) (fun e ->
      match binary_roundtrip [ e ] with
      | Ok [ e' ] -> Format_io.to_line e' = Format_io.to_line e
      | _ -> false)

(* --- filter --- *)

let mk_event hint =
  sample_event (Event.Tracked (Model.close 3)) (Model.Ret 0) hint

let test_filter_mount_point () =
  let f = Filter.mount_point "/mnt/test" in
  check_bool "keeps below" true (Filter.keeps f (mk_event (Some "/mnt/test/a/b")));
  check_bool "keeps exact" true (Filter.keeps f (mk_event (Some "/mnt/test")));
  check_bool "drops sibling" false (Filter.keeps f (mk_event (Some "/mnt/test2/a")));
  check_bool "drops outside" false (Filter.keeps f (mk_event (Some "/var/log/x")));
  check_bool "drops hintless" false (Filter.keeps f (mk_event None))

let test_filter_trailing_slash_normalized () =
  let f = Filter.mount_point "/mnt/test/" in
  check_bool "keeps below" true (Filter.keeps f (mk_event (Some "/mnt/test/a")))

let test_filter_multiple_patterns () =
  let f = Filter.create_exn ~patterns:[ "^/mnt/a(/|$)"; "^/mnt/b(/|$)" ] in
  check_bool "first" true (Filter.keeps f (mk_event (Some "/mnt/a/x")));
  check_bool "second" true (Filter.keeps f (mk_event (Some "/mnt/b/y")));
  check_bool "neither" false (Filter.keeps f (mk_event (Some "/mnt/c/z")))

let test_filter_bad_pattern () =
  match Filter.create ~patterns:[ "(" ] with
  | Ok _ -> Alcotest.fail "expected failure"
  | Error msg -> check_bool "names the pattern" true (String.length msg > 0)

(* How many records [Filter.sink] forwards and how many it drops. *)
let sink_counts f events =
  let kept = ref 0 in
  List.iter (Filter.sink f (fun _ -> incr kept)) events;
  (!kept, List.length events - !kept)

(* [sink] is the metered per-record path: every decision lands in one
   [iocov_filter_events_total] counter. *)
let test_filter_sink_stats () =
  let module Metrics = Iocov_obs.Metrics in
  let counter result =
    Metrics.Counter.value
      (Metrics.counter Metrics.default "iocov_filter_events_total"
         ~labels:[ ("result", result) ])
  in
  let read () = List.map counter [ "kept"; "dropped_no_hint"; "dropped_no_match" ] in
  let f = Filter.mount_point "/mnt/test" in
  let events =
    [ mk_event (Some "/mnt/test/a"); mk_event (Some "/etc/passwd"); mk_event None;
      mk_event (Some "/mnt/test") ]
  in
  let before = read () in
  let kept, dropped = sink_counts f events in
  let after = read () in
  check_int "kept" 2 kept;
  check_int "dropped" 2 dropped;
  check_bool "metered kept, no-hint, no-match" true
    (List.map2 ( - ) after before = [ 2; 1; 1 ])

(* The root mount keeps every record that has a hint and still drops
   the ones without; a trailing slash changes nothing. *)
let test_filter_root_and_trailing_slash () =
  let events = ref [] in
  ignore
    (Iocov_suites.Xfstests.emit ~seed:7 ~scale:0.02
       ~on_record:(fun e -> events := e :: !events)
       ());
  let events = !events in
  let hinted = List.length (List.filter (fun e -> e.Event.path_hint <> None) events) in
  check_bool "some records lack a hint" true (hinted < List.length events);
  let root = Filter.mount_point "/" in
  let kept, dropped = sink_counts root events in
  check_int "root keeps every hinted record" hinted kept;
  check_int "root drops the hintless" (List.length events - hinted) dropped;
  let bare = Filter.mount_point "/mnt/test" and slashed = Filter.mount_point "/mnt/test/" in
  check_bool "/mnt/test/ decides like /mnt/test" true
    (List.for_all (fun e -> Filter.keeps bare e = Filter.keeps slashed e) events);
  check_bool "some records fall outside /mnt/test" true
    (List.exists (fun e -> e.Event.path_hint <> None && not (Filter.keeps bare e)) events)

(* Reference mount filter: the regex [^mnt(/|$)] over the escaped mount,
   with one trailing slash stripped from mounts longer than one
   character. *)
let regex_mount_point mnt =
  let mnt =
    if String.length mnt > 1 && mnt.[String.length mnt - 1] = '/' then
      String.sub mnt 0 (String.length mnt - 1)
    else mnt
  in
  Filter.create_exn ~patterns:[ Printf.sprintf "^%s(/|$)" (Test_regex.escape_literal mnt) ]

(* Mounts and hints over path characters and regex metacharacters, the
   hints often grown from the mount itself.  The root mount, which the
   generator never makes, is the one deliberate difference: its regex
   keeps only "/" and "//...". *)
let mount_point_matches_regex_prop =
  let chars = QCheck.Gen.oneofl [ 'a'; 'b'; '/'; '.'; '*'; '+'; '('; ')'; '['; '$'; '^'; '|' ] in
  let str n = QCheck.Gen.(string_size ~gen:chars (int_bound n)) in
  let gen =
    QCheck.Gen.(
      (* a body ending in '/' would make a second trailing slash, which
         the regex kept and the literal test strips *)
      map2 (fun body last -> body ^ String.make 1 last) (str 5)
        (oneofl [ 'a'; 'b'; '.'; '*'; '$'; ')' ])
      >>= fun body ->
      map (fun slash -> "/" ^ body ^ if slash then "/" else "") bool >>= fun mnt ->
      map (fun hint -> (mnt, hint))
        (oneof
           [ str 12;
             map (fun suffix -> mnt ^ suffix) (str 6);
             map2 (fun n suffix -> String.sub mnt 0 (min n (String.length mnt)) ^ suffix)
               (int_bound 8) (str 4);
             (* the mount and a suffix with one character changed *)
             map3
               (fun suffix i c ->
                 let b = Bytes.of_string (mnt ^ suffix) in
                 Bytes.set b (i mod Bytes.length b) c;
                 Bytes.to_string b)
               (str 4) nat chars ]))
  in
  QCheck.Test.make ~name:"mount point = escaped regex" ~count:1000
    (QCheck.make ~print:QCheck.Print.(pair string string) gen)
    (fun (mnt, hint) ->
      Filter.matches_hint (Filter.mount_point mnt) hint
      = Filter.matches_hint (regex_mount_point mnt) hint)

let test_filter_regex_metachars_escaped () =
  (* a mount point containing regex metacharacters must match literally *)
  let f = Filter.mount_point "/mnt/te.st" in
  check_bool "literal dot" true (Filter.keeps f (mk_event (Some "/mnt/te.st/a")));
  check_bool "not any-char" false (Filter.keeps f (mk_event (Some "/mnt/teXst/a")))

let suites =
  [ ( "trace.tracer",
      [ Alcotest.test_case "event per call" `Quick test_event_per_call;
        Alcotest.test_case "event fields" `Quick test_event_fields;
        Alcotest.test_case "timestamps monotone" `Quick test_timestamps_monotone;
        Alcotest.test_case "fd-path reconstruction" `Quick test_fd_path_reconstruction;
        Alcotest.test_case "relative paths absolutized" `Quick test_relative_paths_absolutized;
        Alcotest.test_case "dot-dot folded" `Quick test_dot_dot_folded;
        Alcotest.test_case "aux events" `Quick test_aux_events;
        Alcotest.test_case "crash resets tracker" `Quick test_crash_resets_tracker_state;
        QCheck_alcotest.to_alcotest hints_match_fold_prop;
        Alcotest.test_case "per-kind counters are domain-safe" `Quick
          test_kind_counters_domain_safe ] );
    ( "trace.format",
      [ Alcotest.test_case "tracked roundtrip" `Quick test_line_roundtrip_tracked;
        Alcotest.test_case "aux roundtrip" `Quick test_line_roundtrip_aux;
        Alcotest.test_case "no-hint roundtrip" `Quick test_line_roundtrip_no_hint;
        Alcotest.test_case "malformed lines" `Quick test_line_errors;
        Alcotest.test_case "channel roundtrip" `Quick test_channel_roundtrip;
        Alcotest.test_case "fold skips comments" `Quick test_fold_skips_comments;
        QCheck_alcotest.to_alcotest event_roundtrip_prop ] );
    ( "trace.scanner",
      [ Alcotest.test_case "canonical shapes" `Quick test_scanner_canonical_shapes;
        Alcotest.test_case "non-canonical lines agree" `Quick
          test_scanner_noncanonical_agrees;
        Alcotest.test_case "concurrent parses agree" `Quick test_scanner_concurrent_parse;
        QCheck_alcotest.to_alcotest scanner_agreement_prop ] );
    ( "trace.binary",
      [ Alcotest.test_case "roundtrip equals text form" `Quick test_binary_roundtrip;
        Alcotest.test_case "compactness" `Quick test_binary_smaller_than_text;
        Alcotest.test_case "magic detection" `Quick test_binary_detects_magic;
        Alcotest.test_case "corruption rejected" `Quick test_binary_rejects_corruption;
        QCheck_alcotest.to_alcotest binary_event_roundtrip_prop ] );
    ( "trace.filter",
      [ Alcotest.test_case "mount point" `Quick test_filter_mount_point;
        Alcotest.test_case "trailing slash" `Quick test_filter_trailing_slash_normalized;
        Alcotest.test_case "multiple patterns" `Quick test_filter_multiple_patterns;
        Alcotest.test_case "bad pattern" `Quick test_filter_bad_pattern;
        Alcotest.test_case "sink stats" `Quick test_filter_sink_stats;
        Alcotest.test_case "metachars escaped" `Quick test_filter_regex_metachars_escaped;
        Alcotest.test_case "root mount and trailing slash" `Quick
          test_filter_root_and_trailing_slash;
        QCheck_alcotest.to_alcotest mount_point_matches_regex_prop ] ) ]
