(* Tests for the multi-tenant coverage service (DESIGN.md §16): the
   wire protocol, the hub's epoch-snapshot discipline, serve-vs-offline
   digest equivalence (unit and property), the socket daemon end to
   end, the run ledger's tenant column, and checkpoint tmp hygiene. *)

module Event = Iocov_trace.Event
module Filter = Iocov_trace.Filter
module Binary_io = Iocov_trace.Binary_io
module Coverage = Iocov_core.Coverage
module Ledger = Iocov_pipe.Ledger
module Checkpoint = Iocov_par.Checkpoint
module Replay = Iocov_par.Replay
module Protocol = Iocov_serve.Protocol
module Hub = Iocov_serve.Hub
module Server = Iocov_serve.Server
module Prng = Iocov_util.Prng

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)
let check_string = Alcotest.(check string)

let synth_events = Test_par.synth_events
let sequential_coverage = Test_par.sequential_coverage
let with_temp_file = Test_par.with_temp_file

let filter = Filter.mount_point "/mnt/test"

let contains haystack needle =
  let nh = String.length haystack and nn = String.length needle in
  let rec go i = i + nn <= nh && (String.sub haystack i nn = needle || go (i + 1)) in
  nn = 0 || go 0

let write_binary path events =
  let oc = open_out_bin path in
  let w = Binary_io.writer oc in
  List.iter (Binary_io.sink w) events;
  Binary_io.flush w;
  close_out oc

(* what `iocov analyze` would print for these events: the oracle every
   serve digest is compared against *)
let offline_digest events =
  let cov, _ = sequential_coverage filter events in
  Ledger.digest cov

let ingest_trace hub ~tenant path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in_noerr ic)
    (fun () ->
      match Binary_io.open_stream ic with
      | Error msg -> Alcotest.failf "open_stream: %s" msg
      | Ok st ->
        let s = Hub.open_session hub ~tenant () in
        (match Hub.ingest_stream s st with
        | Ok () -> ()
        | Error msg -> Alcotest.failf "ingest %s: %s" tenant msg);
        Hub.close_session s)

let hub_digest hub ~tenant =
  match Hub.digest hub ~tenant with
  | Some d -> d
  | None -> Alcotest.failf "tenant %s has no digest" tenant

(* --- protocol --- *)

let test_handshake_roundtrip () =
  let cases =
    [
      { Protocol.hs_role = Protocol.Ingest; hs_tenant = Some "alice";
        hs_mount = None; hs_format = Protocol.Binary; hs_config = None };
      { Protocol.hs_role = Protocol.Ingest; hs_tenant = Some "bob";
        hs_mount = Some "/mnt/other"; hs_format = Protocol.Text;
        hs_config = None };
      { Protocol.hs_role = Protocol.Ingest; hs_tenant = Some "dora";
        hs_mount = None; hs_format = Protocol.Binary;
        hs_config = Some "tiny-quota" };
      { Protocol.hs_role = Protocol.Query; hs_tenant = None;
        hs_mount = None; hs_format = Protocol.Binary; hs_config = None };
      { Protocol.hs_role = Protocol.Query; hs_tenant = Some "carol";
        hs_mount = None; hs_format = Protocol.Binary; hs_config = None };
    ]
  in
  List.iter
    (fun hs ->
      let line = Protocol.handshake_line hs in
      match Protocol.parse_handshake line with
      | Ok hs' -> check_bool line true (hs = hs')
      | Error msg -> Alcotest.failf "%s: %s" line msg)
    cases

let test_handshake_errors () =
  List.iter
    (fun line ->
      check_bool line true (Result.is_error (Protocol.parse_handshake line)))
    [
      "";                                  (* no magic *)
      "iocov-serve/9 query";               (* wrong version *)
      "iocov-serve/1";                     (* missing role *)
      "iocov-serve/1 listen";              (* unknown role *)
      "iocov-serve/1 ingest";              (* ingest without tenant *)
      "iocov-serve/1 ingest tenant=";      (* empty tenant *)
      "iocov-serve/1 query format=json";   (* unknown format *)
      "iocov-serve/1 query bogus";         (* stray token *)
    ]

let test_request_roundtrip () =
  let cases =
    Protocol.
      [
        Q_coverage; Q_tcd "read.count"; Q_adequacy ("open.flags", 500.0, 5.0);
        Q_completeness; Q_digest; Q_stats; Q_tenants; Q_metrics; Q_ping;
        Q_shutdown;
      ]
  in
  List.iter
    (fun q ->
      let line = Protocol.request_line ~tenant:"alice" q in
      match Protocol.parse_request line with
      | Ok p ->
        check_bool line true (p.Protocol.pr_request = q);
        check_bool (line ^ " tenant") true (p.Protocol.pr_tenant = Some "alice")
      | Error msg -> Alcotest.failf "%s: %s" line msg)
    cases

let test_request_defaults () =
  (match Protocol.parse_request "tcd" with
  | Ok { pr_request = Protocol.Q_tcd "open.flags"; pr_tenant = None } -> ()
  | _ -> Alcotest.fail "tcd default argument");
  (match Protocol.parse_request "adequacy" with
  | Ok { pr_request = Protocol.Q_adequacy ("open.flags", 1000.0, 10.0); _ } -> ()
  | _ -> Alcotest.fail "adequacy defaults");
  (* the tenant token may sit anywhere in the line *)
  match Protocol.parse_request "tenant=bob adequacy write.count 200" with
  | Ok { pr_request = Protocol.Q_adequacy ("write.count", 200.0, 10.0);
         pr_tenant = Some "bob" } -> ()
  | _ -> Alcotest.fail "tenant token stripped from any position"

let test_request_errors () =
  List.iter
    (fun line ->
      check_bool line true (Result.is_error (Protocol.parse_request line)))
    [ ""; "coverag"; "adequacy open.flags zero"; "adequacy open.flags -5";
      "adequacy open.flags 100 0" ]

let frame_through channel_body f =
  with_temp_file (fun path ->
      Out_channel.with_open_bin path (fun oc -> output_string oc channel_body);
      In_channel.with_open_bin path f)

let test_frame_roundtrip () =
  let payload = "line one\nline two\n" in
  frame_through (Protocol.ok_frame payload) (fun ic ->
      match Protocol.read_frame ic with
      | Ok body -> check_string "ok payload" payload body
      | Error msg -> Alcotest.failf "ok frame: %s" msg);
  frame_through (Protocol.err_frame "no such tenant") (fun ic ->
      match Protocol.read_frame ic with
      | Ok _ -> Alcotest.fail "err frame parsed as ok"
      | Error msg -> check_string "err payload" "no such tenant" msg);
  (* two frames back to back on one channel *)
  frame_through (Protocol.ok_frame "a" ^ Protocol.ok_frame "b") (fun ic ->
      check_bool "first" true (Protocol.read_frame ic = Ok "a");
      check_bool "second" true (Protocol.read_frame ic = Ok "b"))

let test_frame_malformed () =
  List.iter
    (fun body ->
      frame_through body (fun ic ->
          check_bool (String.escaped body) true
            (Result.is_error (Protocol.read_frame ic))))
    [
      "";                     (* closed before reply *)
      "ok\nx";                (* missing length *)
      "ok ten\n";             (* non-numeric length *)
      "ok 100\nshort";        (* truncated payload *)
      "yes 3\nabc";           (* unknown status *)
    ]

(* --- Dense epoch primitives --- *)

let dense_of events =
  let d = Coverage.Dense.create () in
  List.iter
    (fun e ->
      if Filter.keeps filter e then
        match e.Event.payload with
        | Event.Tracked call -> Coverage.Dense.observe d call e.Event.outcome
        | Event.Aux _ -> ())
    events;
  d

let dense_digest d = Ledger.digest (Coverage.Dense.to_reference ~metered:false d)

let test_dense_snapshot_frozen () =
  let events = synth_events ~seed:31 2_000 in
  let half = List.filteri (fun i _ -> i < 1_000) events in
  let d = dense_of half in
  let snap = Coverage.Dense.snapshot d in
  let frozen = dense_digest snap in
  check_string "snapshot equals source" (dense_digest d) frozen;
  (* keep mutating the original: the snapshot must not move *)
  List.iteri
    (fun i e ->
      if i >= 1_000 then
        match e.Event.payload with
        | Event.Tracked call -> Coverage.Dense.observe d call e.Event.outcome
        | Event.Aux _ -> ())
    events;
  check_string "snapshot frozen under mutation" frozen (dense_digest snap);
  check_bool "original moved" true (dense_digest d <> frozen);
  check_int "snapshot calls frozen"
    (List.length (List.filter (Filter.keeps filter) half))
    (Coverage.Dense.calls_observed snap)

let test_dense_reset () =
  let d = dense_of (synth_events ~seed:32 1_500) in
  check_bool "non-empty before reset" true (Coverage.Dense.calls_observed d > 0);
  Coverage.Dense.reset d;
  check_int "calls zero" 0 (Coverage.Dense.calls_observed d);
  check_string "reset equals fresh"
    (dense_digest (Coverage.Dense.create ()))
    (dense_digest d)

(* --- the hub --- *)

let test_hub_matches_offline () =
  let events = synth_events ~seed:41 4_000 in
  with_temp_file (fun path ->
      write_binary path events;
      let hub = Hub.create ~mount:"/mnt/test" () in
      ingest_trace hub ~tenant:"alice" path;
      check_string "serve digest = offline analyze" (offline_digest events)
        (hub_digest hub ~tenant:"alice"))

let test_hub_text_side () =
  let events = synth_events ~seed:43 3_000 in
  let hub = Hub.create ~mount:"/mnt/test" () in
  let s = Hub.open_session hub ~tenant:"t" () in
  Hub.ingest_events s events;
  Hub.close_session s;
  check_string "ingest_events digest = offline" (offline_digest events)
    (hub_digest hub ~tenant:"t")

let test_hub_tenant_isolation () =
  let ev_a = synth_events ~seed:44 3_000 in
  let ev_b = synth_events ~seed:45 3_000 in
  with_temp_file (fun pa ->
      with_temp_file (fun pb ->
          write_binary pa ev_a;
          write_binary pb ev_b;
          let hub = Hub.create ~mount:"/mnt/test" () in
          ingest_trace hub ~tenant:"beta" pb;
          ingest_trace hub ~tenant:"alpha" pa;
          check_bool "ids sorted" true (Hub.tenant_ids hub = [ "alpha"; "beta" ]);
          check_string "alpha unpolluted" (offline_digest ev_a)
            (hub_digest hub ~tenant:"alpha");
          check_string "beta unpolluted" (offline_digest ev_b)
            (hub_digest hub ~tenant:"beta");
          check_bool "tenants differ" true
            (hub_digest hub ~tenant:"alpha" <> hub_digest hub ~tenant:"beta")))

let test_hub_session_mount_override () =
  let events = synth_events ~seed:46 2_000 in
  let hub = Hub.create ~mount:"/mnt/test" () in
  let s = Hub.open_session hub ~tenant:"narrow" ~mount:"/nowhere" () in
  Hub.ingest_events s events;
  Hub.close_session s;
  check_string "filtered-out stream leaves coverage empty"
    (Ledger.digest (Coverage.create ~metered:false ()))
    (hub_digest hub ~tenant:"narrow")

let test_hub_unknown_tenant () =
  let hub = Hub.create () in
  check_bool "query" true (Result.is_error (Hub.query hub ~tenant:"ghost" Hub.Digest));
  check_bool "digest" true (Hub.digest hub ~tenant:"ghost" = None);
  check_bool "stats" true (Hub.stats hub ~tenant:"ghost" = None)

let hub_stats hub ~tenant =
  match Hub.stats hub ~tenant with
  | Some st -> st
  | None -> Alcotest.failf "tenant %s has no stats" tenant

let test_hub_epoch_and_cache () =
  let events = synth_events ~seed:47 4_000 in
  with_temp_file (fun path ->
      write_binary path events;
      let hub = Hub.create ~mount:"/mnt/test" () in
      ingest_trace hub ~tenant:"t" path;
      let q () =
        match Hub.query hub ~tenant:"t" Hub.Coverage with
        | Ok s -> s
        | Error msg -> Alcotest.failf "query: %s" msg
      in
      let first = q () in
      let st1 = hub_stats hub ~tenant:"t" in
      check_int "one publish after first query" 1 st1.Hub.st_publishes;
      check_int "first query misses" 1 st1.Hub.st_cache_misses;
      check_bool "epoch current" true (st1.Hub.st_published = st1.Hub.st_generation);
      (* identical repeat: served from the render cache, no new epoch *)
      check_string "cached render identical" first (q ());
      let st2 = hub_stats hub ~tenant:"t" in
      check_int "cache hit" 1 st2.Hub.st_cache_hits;
      check_int "still one publish" 1 st2.Hub.st_publishes;
      (* a different query against the same epoch: miss, but no publish *)
      (match Hub.query hub ~tenant:"t" Hub.Completeness with
      | Ok _ -> ()
      | Error msg -> Alcotest.failf "completeness: %s" msg);
      check_int "same epoch reused" 1 (hub_stats hub ~tenant:"t").Hub.st_publishes;
      (* new data dirties the watermark: next query publishes epoch 2 *)
      ingest_trace hub ~tenant:"t" path;
      let again = q () in
      check_bool "stale render replaced" true (again <> first);
      let st3 = hub_stats hub ~tenant:"t" in
      check_int "second publish" 2 st3.Hub.st_publishes;
      check_int "events doubled" (2 * List.length events) st3.Hub.st_events;
      check_int "streams counted" 2 st3.Hub.st_streams;
      check_int "no live sessions" 0 st3.Hub.st_sessions)

(* Satellite 3, the property: at ANY committed cut — random trace,
   random batch size, random query interleavings — a tenant's epoch
   digest equals an offline analyze of the records produced so far. *)
let serve_equivalence_prop =
  QCheck.Test.make ~count:25
    ~name:"serve epoch digest = offline analyze at every committed cut"
    QCheck.(
      triple (int_range 0 10_000) (int_range 200 1_500) (int_range 1 300))
    (fun (s, n, batch) ->
      let events = synth_events ~seed:(7_000 + s) n in
      with_temp_file (fun path ->
          write_binary path events;
          let hub = Hub.create ~mount:"/mnt/test" ~batch () in
          let rng = Prng.create ~seed:s in
          let session = Hub.open_session hub ~tenant:"prop" () in
          let ic = open_in_bin path in
          Fun.protect
            ~finally:(fun () -> close_in_noerr ic)
            (fun () ->
              match Binary_io.open_stream ic with
              | Error msg -> QCheck.Test.fail_report msg
              | Ok st ->
                let produced = ref 0 in
                let continue = ref true in
                while !continue do
                  match Hub.ingest_step session st with
                  | Error msg -> QCheck.Test.fail_report msg
                  | Ok 0 -> continue := false
                  | Ok k ->
                    produced := !produced + k;
                    (* interleave a mid-stream query at a random cut *)
                    if Prng.chance rng 0.3 then begin
                      let prefix =
                        List.filteri (fun i _ -> i < !produced) events
                      in
                      let off = offline_digest prefix in
                      let d = hub_digest hub ~tenant:"prop" in
                      if d <> off then
                        QCheck.Test.fail_reportf
                          "cut %d/%d (batch %d): serve %s, offline %s" !produced
                          n batch d off
                    end
                done;
                Hub.close_session session;
                check_int "whole trace produced" n !produced;
                hub_digest hub ~tenant:"prop" = offline_digest events)))

(* --- the daemon --- *)

let with_temp_dir f =
  let dir = Filename.temp_file "iocov_serve" "" in
  Sys.remove dir;
  Unix.mkdir dir 0o700;
  Fun.protect
    ~finally:(fun () ->
      Array.iter
        (fun f -> try Sys.remove (Filename.concat dir f) with Sys_error _ -> ())
        (Sys.readdir dir);
      try Unix.rmdir dir with Unix.Unix_error _ -> ())
    (fun () -> f dir)

let test_server_file_mode () =
  let events = synth_events ~seed:51 3_000 in
  with_temp_file (fun path ->
      write_binary path events;
      match
        Server.run
          { Server.default_config with
            ingests = [ ("solo", path) ]; mount = Some "/mnt/test" }
      with
      | Error msg -> Alcotest.failf "file-mode run: %s" msg
      | Ok outcome ->
        (match outcome.Server.o_tenants with
        | [ { Server.o_tenant = "solo"; o_coverage; o_stats; o_config = _ } ] ->
          check_string "file-mode digest = offline" (offline_digest events)
            (Ledger.digest o_coverage);
          check_int "all records seen" (List.length events) o_stats.Hub.st_events
        | _ -> Alcotest.fail "expected exactly one tenant outcome"))

let test_server_socket_end_to_end () =
  with_temp_dir @@ fun dir ->
  let sock = Filename.concat dir "iocov.sock" in
  let ev_a = synth_events ~seed:52 3_000 in
  let ev_b = synth_events ~seed:53 3_000 in
  let ta = Filename.concat dir "a.trace" in
  let tb = Filename.concat dir "b.trace" in
  write_binary ta ev_a;
  write_binary tb ev_b;
  let ready = Atomic.make false in
  let result = ref (Error "server never ran") in
  let th =
    Thread.create
      (fun () ->
        result :=
          Server.run
            ~on_ready:(fun () -> Atomic.set ready true)
            { Server.default_config with
              socket = Some sock; mount = Some "/mnt/test" })
      ()
  in
  while not (Atomic.get ready) do
    Thread.yield ()
  done;
  (match Server.client_ingest ~socket:sock ~tenant:"alice" ta with
  | Ok _ -> ()
  | Error msg -> Alcotest.failf "ingest alice: %s" msg);
  (match Server.client_ingest ~socket:sock ~tenant:"bob" tb with
  | Ok _ -> ()
  | Error msg -> Alcotest.failf "ingest bob: %s" msg);
  (match Server.client_query ~socket:sock ~tenant:"alice" [ "ping"; "digest" ] with
  | Ok [ ping; digest ] ->
    check_string "ping" "pong" (String.trim ping);
    check_string "alice digest over the wire" (offline_digest ev_a)
      (String.trim digest)
  | Ok _ -> Alcotest.fail "expected two replies"
  | Error msg -> Alcotest.failf "query: %s" msg);
  (* a bad request must not wedge the connection or the server *)
  (match Server.client_query ~socket:sock [ "bogus" ] with
  | Ok _ -> Alcotest.fail "bogus request succeeded"
  | Error _ -> ());
  (match Server.client_query ~socket:sock [ "tenants"; "shutdown" ] with
  | Ok [ tenants; _ ] ->
    check_string "tenant roster" "alice\nbob" (String.trim tenants)
  | Ok _ -> Alcotest.fail "expected two replies"
  | Error msg -> Alcotest.failf "shutdown: %s" msg);
  Thread.join th;
  check_bool "socket unlinked on exit" false (Sys.file_exists sock);
  match !result with
  | Error msg -> Alcotest.failf "server: %s" msg
  | Ok outcome ->
    let digests =
      List.map
        (fun o -> (o.Server.o_tenant, Ledger.digest o.Server.o_coverage))
        outcome.Server.o_tenants
    in
    check_bool "final outcomes match offline" true
      (digests
      = [ ("alice", offline_digest ev_a); ("bob", offline_digest ev_b) ])

(* --- graceful degradation: silent clients, torn streams, rotated tails --- *)

let start_server config =
  let ready = Atomic.make false in
  let result = ref (Error "server never ran") in
  let th =
    Thread.create
      (fun () ->
        result := Server.run ~on_ready:(fun () -> Atomic.set ready true) config)
      ()
  in
  while not (Atomic.get ready) do
    Thread.yield ()
  done;
  (th, result)

let shutdown_and_join ~socket (th, result) =
  ignore (Server.client_query ~socket [ "shutdown" ]);
  Thread.join th;
  match !result with
  | Error msg -> Alcotest.failf "server: %s" msg
  | Ok outcome -> outcome

(* v1/v2 files carry the trace magic, so serve hands them to the binary
   decoder, which must refuse them by version instead of ingesting
   nothing or misreading them as text — in file mode, and over the
   socket, where the server replies and hangs up while the client is
   still sending (the megabyte of payload outlasts the socket buffer). *)
let test_hub_old_format_refused () =
  let check_refusal ~version what = function
    | Ok _ -> Alcotest.failf "%s: v%d stream was ingested" what version
    | Error msg ->
      check_bool
        (Printf.sprintf "%s: v%d refusal names the version" what version)
        true
        (contains msg (Printf.sprintf "v%d binary trace" version));
      check_bool
        (Printf.sprintf "%s: v%d refusal says how to re-trace" what version)
        true
        (contains msg "iocov trace --binary")
  in
  with_temp_dir @@ fun dir ->
  let sock = Filename.concat dir "iocov.sock" in
  let server = start_server { Server.default_config with socket = Some sock } in
  List.iter
    (fun (version, header) ->
      let path = Filename.concat dir (Printf.sprintf "v%d.trace" version) in
      Out_channel.with_open_bin path (fun oc ->
          output_string oc header;
          output_string oc (String.make (1 lsl 20) '\x00'));
      check_refusal ~version "file mode"
        (Server.run { Server.default_config with ingests = [ ("alice", path) ] });
      check_refusal ~version "socket"
        (Server.client_ingest ~socket:sock ~tenant:"alice" path))
    [ (1, "IOCT\x01"); (2, "IOCT\x02\x80\x08") ];
  ignore (shutdown_and_join ~socket:sock server : Server.outcome)

let test_handshake_timeout_frees_slot () =
  with_temp_dir @@ fun dir ->
  let sock = Filename.concat dir "s.sock" in
  let server =
    start_server
      { Server.default_config with socket = Some sock; handshake_timeout = 0.2 }
  in
  (* a client that connects and never speaks *)
  let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  Unix.connect fd (Unix.ADDR_UNIX sock);
  Unix.setsockopt_float fd Unix.SO_RCVTIMEO 5.0;
  let buf = Bytes.create 16 in
  (match Unix.read fd buf 0 16 with
  | 0 -> () (* the server gave up on the handshake and closed its side *)
  | n -> Alcotest.failf "unexpected %d bytes from a silent handshake" n
  | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK), _, _) ->
    Alcotest.fail "server still holding the silent connection after 5s");
  Unix.close fd;
  (* and the daemon still serves *)
  (match Server.client_query ~socket:sock [ "ping" ] with
  | Ok [ ping ] -> check_string "daemon alive" "pong" (String.trim ping)
  | Ok _ -> Alcotest.fail "expected one reply"
  | Error msg -> Alcotest.failf "query after timeout: %s" msg);
  ignore (shutdown_and_join ~socket:sock server)

(* Clients that hang up while their replies are still being written:
   the daemon's next write to each of them fails with EPIPE, which must
   end only that connection.  Without SIGPIPE ignored in [Server.run],
   the signal kills the whole process — this test binary included, so
   the test deliberately leaves the signal's disposition alone. *)
let test_hangup_mid_reply () =
  with_temp_dir @@ fun dir ->
  let sock = Filename.concat dir "s.sock" in
  let server = start_server { Server.default_config with socket = Some sock } in
  let hs =
    { Protocol.hs_role = Protocol.Query; hs_tenant = None; hs_mount = None;
      hs_format = Protocol.Binary; hs_config = None }
  in
  let requests =
    Protocol.handshake_line hs ^ "\n" ^ String.concat "" (List.init 2_000 (fun _ -> "ping\n"))
  in
  for _ = 1 to 20 do
    let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
    Unix.connect fd (Unix.ADDR_UNIX sock);
    let rec send_all off =
      if off < String.length requests then
        send_all (off + Unix.write_substring fd requests off (String.length requests - off))
    in
    send_all 0;
    Unix.close fd
  done;
  (match Server.client_query ~socket:sock [ "ping" ] with
  | Ok [ ping ] -> check_string "daemon alive" "pong" (String.trim ping)
  | Ok _ -> Alcotest.fail "expected one reply"
  | Error msg -> Alcotest.failf "query after hang-ups: %s" msg);
  ignore (shutdown_and_join ~socket:sock server)

let test_partial_frame_on_ledger () =
  with_temp_dir @@ fun dir ->
  let sock = Filename.concat dir "s.sock" in
  let trace = Filename.concat dir "t.trace" in
  write_binary trace (synth_events ~seed:73 2_000);
  let bytes = In_channel.with_open_bin trace In_channel.input_all in
  let server =
    start_server
      { Server.default_config with socket = Some sock; mount = Some "/mnt/test" }
  in
  (* an ingest connection that vanishes mid-frame *)
  let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  Unix.connect fd (Unix.ADDR_UNIX sock);
  let oc = Unix.out_channel_of_descr fd in
  let ic = Unix.in_channel_of_descr fd in
  output_string oc
    (Protocol.handshake_line
       {
         Protocol.hs_role = Protocol.Ingest;
         hs_tenant = Some "torn";
         hs_mount = None;
         hs_format = Protocol.Binary;
         hs_config = None;
       }
    ^ "\n");
  output_string oc (String.sub bytes 0 (String.length bytes - 7));
  flush oc;
  Unix.shutdown fd Unix.SHUTDOWN_SEND;
  let reply = Protocol.read_frame ic in
  check_bool "torn stream rejected" true (Result.is_error reply);
  close_out_noerr oc;
  close_in_noerr ic;
  (* the slot is free and the loss is on the tenant's ledger *)
  (match Server.client_query ~socket:sock ~tenant:"torn" [ "completeness" ] with
  | Ok [ reply ] ->
    check_bool "truncation recorded" true (contains reply "truncated");
    check_bool "anomaly names the discard" true (contains reply "partial frame")
  | Ok _ -> Alcotest.fail "expected one reply"
  | Error msg -> Alcotest.failf "completeness: %s" msg);
  ignore (shutdown_and_join ~socket:sock server)

let test_tail_rotation_resets () =
  with_temp_dir @@ fun dir ->
  let sock = Filename.concat dir "s.sock" in
  let trace = Filename.concat dir "roll.trace" in
  let ev_old = synth_events ~seed:74 2_000 in
  let ev_new = synth_events ~seed:75 400 in
  write_binary trace ev_old;
  let server =
    start_server
      { Server.default_config with
        socket = Some sock;
        ingests = [ ("roll", trace) ];
        follow = true;
        mount = Some "/mnt/test" }
  in
  let events () =
    match Server.client_query ~socket:sock ~tenant:"roll" [ "stats" ] with
    | Ok [ reply ] -> (try Scanf.sscanf reply "events %d" Fun.id with _ -> -1)
    | _ -> -1
  in
  let wait_for n =
    let deadline = Unix.gettimeofday () +. 10.0 in
    while
      events () < n
      &&
      if Unix.gettimeofday () > deadline then
        Alcotest.failf "timeout waiting for %d events" n
      else true
    do
      Thread.delay 0.02
    done
  in
  wait_for (List.length ev_old);
  (* rotate: atomically swap in a much smaller trace, so the tailer's
     next pass finds the file shrunk below its frozen cursor *)
  let fresh = Filename.concat dir "fresh.trace" in
  write_binary fresh ev_new;
  Sys.rename fresh trace;
  wait_for (List.length ev_old + List.length ev_new);
  (match Server.client_query ~socket:sock ~tenant:"roll" [ "completeness" ] with
  | Ok [ reply ] ->
    check_bool "reset recorded" true (contains reply "truncated");
    check_bool "anomaly explains the restart" true (contains reply "rotated")
  | Ok _ -> Alcotest.fail "expected one reply"
  | Error msg -> Alcotest.failf "completeness: %s" msg);
  let outcome = shutdown_and_join ~socket:sock server in
  match outcome.Server.o_tenants with
  | [ o ] ->
    check_int "both generations ingested"
      (List.length ev_old + List.length ev_new)
      o.Server.o_stats.Hub.st_events
  | _ -> Alcotest.fail "expected exactly one tenant"

(* --- ledger: the tenant column --- *)

let ledger_record ?tenant label =
  let cov, _ = sequential_coverage filter (synth_events ~seed:61 500) in
  Ledger.make ?tenant ~time:0.0 ~subcommand:"serve" ~label ~flags:[] ~jobs:1
    ~counters:"dense" ~events:500 ~kept:400 ~lost:0 ~wall_s:0.5 ~stages:[] cov

let test_ledger_tenant_roundtrip () =
  List.iter
    (fun tenant ->
      let r = ledger_record ?tenant "t.trace" in
      match Ledger.of_json (Ledger.to_json r) with
      | Ok r' ->
        check_bool "tenant survives json" true (r'.Ledger.r_tenant = tenant);
        check_string "digest survives json" r.Ledger.r_digest r'.Ledger.r_digest
      | Error msg -> Alcotest.failf "round-trip: %s" msg)
    [ None; Some "alice" ]

let test_ledger_last () =
  with_temp_dir @@ fun dir ->
  List.iter
    (fun (t, l) ->
      match Ledger.append ~dir (ledger_record ?tenant:t l) with
      | Ok _ -> ()
      | Error msg -> Alcotest.failf "append: %s" msg)
    [ (None, "one"); (Some "alice", "two"); (Some "bob", "three") ];
  let loaded = Ledger.load ~dir in
  check_int "all records" 3 (List.length loaded.Ledger.records);
  let last2 = Ledger.last 2 loaded in
  check_bool "newest two, ids untouched" true
    (List.map (fun r -> (r.Ledger.r_id, r.Ledger.r_label, r.Ledger.r_tenant))
       last2.Ledger.records
    = [ ("r2", "two", Some "alice"); ("r3", "three", Some "bob") ]);
  check_int "last larger than file is whole file" 3
    (List.length (Ledger.last 10 loaded).Ledger.records);
  (* the tenant shows up in the list view *)
  let listing = Ledger.render_list last2 in
  check_bool "tenant column rendered" true
    (contains listing "alice" && contains listing "bob")

(* --- checkpoint hygiene --- *)

let test_checkpoint_clean_stale () =
  with_temp_file (fun path ->
      let tmp = path ^ ".tmp" in
      check_bool "nothing to sweep" false (Checkpoint.clean_stale ~path);
      Out_channel.with_open_bin tmp (fun oc -> output_string oc "torn half-write");
      check_bool "stale tmp swept" true (Checkpoint.clean_stale ~path);
      check_bool "tmp gone" false (Sys.file_exists tmp))

let test_checkpoint_failed_save_leaves_no_tmp () =
  with_temp_dir @@ fun dir ->
  let events = synth_events ~seed:62 500 in
  let trace = Filename.concat dir "t.trace" in
  write_binary trace events;
  let ck =
    let ic = open_in_bin trace in
    Fun.protect
      ~finally:(fun () -> close_in_noerr ic)
      (fun () ->
        match Binary_io.open_stream ic with
        | Error msg -> Alcotest.failf "open_stream: %s" msg
        | Ok st ->
          ignore (Binary_io.read_batch st ~max:100);
          let cov, kept = sequential_coverage filter events in
          {
            Checkpoint.trace; cursor = Binary_io.cursor st; events = 100; kept;
            batches = 1; completeness = Binary_io.completeness st;
            coverage = cov;
          })
  in
  (* rename onto a directory fails after the tmp is fully written: the
     failure path must remove it *)
  let target = Filename.concat dir "blocked" in
  Unix.mkdir target 0o700;
  Fun.protect
    ~finally:(fun () -> try Unix.rmdir target with Unix.Unix_error _ -> ())
    (fun () ->
      check_bool "save onto a directory raises" true
        (match Checkpoint.save ~path:target ck with
        | () -> false
        | exception _ -> true);
      check_bool "no tmp left behind" false (Sys.file_exists (target ^ ".tmp")));
  (* and a clean save leaves the checkpoint but no tmp *)
  let good = Filename.concat dir "good.ckpt" in
  Checkpoint.save ~path:good ck;
  check_bool "checkpoint written" true (Sys.file_exists good);
  check_bool "no tmp after clean save" false (Sys.file_exists (good ^ ".tmp"));
  (match Checkpoint.load good with
  | Ok loaded -> check_int "round-trips" 100 loaded.Checkpoint.events
  | Error msg -> Alcotest.failf "load: %s" msg);
  Sys.remove good

let test_checkpointed_replay_sweeps_stale_tmp () =
  let events = synth_events ~seed:63 2_000 in
  with_temp_file (fun trace ->
      write_binary trace events;
      with_temp_file (fun ck_path ->
          let tmp = ck_path ^ ".tmp" in
          Out_channel.with_open_bin tmp (fun oc ->
              output_string oc "dropping from a killed predecessor");
          (match
             Replay.analyze_file
               ~checkpoint:{ Replay.ckpt_path = ck_path; ckpt_every = 500 }
               ~filter trace
           with
          | Ok _ -> ()
          | Error msg -> Alcotest.failf "replay: %s" msg);
          check_bool "stale tmp swept on start" false (Sys.file_exists tmp);
          check_bool "checkpoint still valid" true
            (Result.is_ok (Checkpoint.load ck_path))))

let suites =
  [
    ( "serve.protocol",
      [
        Alcotest.test_case "handshake round-trip" `Quick test_handshake_roundtrip;
        Alcotest.test_case "handshake errors" `Quick test_handshake_errors;
        Alcotest.test_case "request round-trip" `Quick test_request_roundtrip;
        Alcotest.test_case "request defaults" `Quick test_request_defaults;
        Alcotest.test_case "request errors" `Quick test_request_errors;
        Alcotest.test_case "frame round-trip" `Quick test_frame_roundtrip;
        Alcotest.test_case "malformed frames" `Quick test_frame_malformed;
      ] );
    ( "serve.dense",
      [
        Alcotest.test_case "snapshot is frozen" `Quick test_dense_snapshot_frozen;
        Alcotest.test_case "reset zeroes in place" `Quick test_dense_reset;
      ] );
    ( "serve.hub",
      [
        Alcotest.test_case "digest = offline analyze" `Quick test_hub_matches_offline;
        Alcotest.test_case "v1/v2 stream refused" `Quick test_hub_old_format_refused;
        Alcotest.test_case "text-side ingest" `Quick test_hub_text_side;
        Alcotest.test_case "tenant isolation" `Quick test_hub_tenant_isolation;
        Alcotest.test_case "per-session mount override" `Quick
          test_hub_session_mount_override;
        Alcotest.test_case "unknown tenant" `Quick test_hub_unknown_tenant;
        Alcotest.test_case "epoch + cache discipline" `Quick test_hub_epoch_and_cache;
        QCheck_alcotest.to_alcotest ~long:true serve_equivalence_prop;
      ] );
    ( "serve.server",
      [
        Alcotest.test_case "file mode" `Quick test_server_file_mode;
        Alcotest.test_case "socket end to end" `Quick test_server_socket_end_to_end;
        Alcotest.test_case "handshake timeout frees the slot" `Quick
          test_handshake_timeout_frees_slot;
        Alcotest.test_case "client hang-up mid-reply" `Quick test_hangup_mid_reply;
        Alcotest.test_case "partial frame lands on the ledger" `Quick
          test_partial_frame_on_ledger;
        Alcotest.test_case "tail rotation resets the cursor" `Quick
          test_tail_rotation_resets;
      ] );
    ( "serve.ledger",
      [
        Alcotest.test_case "tenant json round-trip" `Quick test_ledger_tenant_roundtrip;
        Alcotest.test_case "runs list --last" `Quick test_ledger_last;
      ] );
    ( "serve.checkpoint",
      [
        Alcotest.test_case "clean_stale sweeps tmp" `Quick test_checkpoint_clean_stale;
        Alcotest.test_case "failed save removes tmp" `Quick
          test_checkpoint_failed_save_leaves_no_tmp;
        Alcotest.test_case "replay sweeps predecessor tmp" `Quick
          test_checkpointed_replay_sweeps_stale_tmp;
      ] );
  ]
