module Binary_io = Iocov_trace.Binary_io
module Format_io = Iocov_trace.Format_io
module Metrics = Iocov_obs.Metrics
module Export = Iocov_obs.Export
module Anomaly = Iocov_util.Anomaly

type config = {
  socket : string option;
  ingests : (string * string) list;
  follow : bool;
  mount : string option;
  batch : int;
  handshake_timeout : float;
}

let default_config =
  { socket = None; ingests = []; follow = false; mount = None; batch = 8192;
    handshake_timeout = 5.0 }

type tenant_outcome = {
  o_tenant : string;
  o_coverage : Iocov_core.Coverage.t;
  o_stats : Hub.stats;
  o_config : (string * string) option;  (* lattice point name, config digest *)
}

type outcome = { o_tenants : tenant_outcome list; o_wall_s : float }

(* --- shared connection plumbing --- *)

let send oc frame =
  output_string oc frame;
  flush oc

(* A connection's two channels wrap one fd: close it once, through the
   out_channel (which also flushes).  Closing the in_channel too would
   close the fd number a second time, and by then another thread may
   have been handed that number for a new connection; the in_channel
   holds no fd of its own and is freed by the GC. *)
let close_conn oc = close_out_noerr oc

(* --- ingest connections --- *)

let rec drain_to_eof session stream =
  match Hub.ingest_step session stream with
  | Ok 0 -> Ok ()
  | Ok _ -> drain_to_eof session stream
  | Error _ as e -> e

let ingest_summary session tenant =
  Printf.sprintf "tenant %s events %d\n" tenant (Hub.session_events session)

let serve_ingest_binary hub ~tenant ~mount ic =
  let session = Hub.open_session hub ~tenant ?mount () in
  Fun.protect
    ~finally:(fun () -> Hub.close_session session)
    (fun () ->
      match Binary_io.open_stream ic with
      | Error _ as e -> e
      | Ok stream -> (
        match drain_to_eof session stream with
        | Ok () -> Ok (ingest_summary session tenant)
        | Error msg ->
          (* a connection dropped mid-frame: committed batches stand,
             the partial frame is discarded, and the loss is on the
             tenant's completeness ledger *)
          Hub.note_anomaly session
            (Anomaly.v Anomaly.Truncated
               (Printf.sprintf "ingest connection (tenant %s): partial frame \
                                discarded: %s" tenant msg));
          Error msg))

(* Lines come through [Format_io]'s reader, so trimming, comment lines
   and line numbers are those of [iocov analyze]; a batch with a refused
   line is not committed. *)
let rec parse_lines lines i acc =
  if i = Array.length lines then Ok (List.rev acc)
  else
    let lineno, line = lines.(i) in
    match Format_io.of_line ~seq:lineno line with
    | Ok e -> parse_lines lines (i + 1) (e :: acc)
    | Error msg -> Error (Printf.sprintf "line %d: %s" lineno msg)

let serve_ingest_text hub ~tenant ~mount ~batch ic =
  let session = Hub.open_session hub ~tenant ?mount () in
  Fun.protect
    ~finally:(fun () -> Hub.close_session session)
    (fun () ->
      let stream = Format_io.open_stream ic in
      let rec loop () =
        match Format_io.read_raw_batch stream ~max:batch with
        | [||] -> Ok (ingest_summary session tenant)
        | lines -> (
          match parse_lines lines 0 [] with
          | Error _ as e -> e
          | Ok events ->
            Hub.ingest_events session events;
            loop ())
      in
      loop ())

(* --- query connections --- *)

let hub_query_of_request = function
  | Protocol.Q_coverage -> Some Hub.Coverage
  | Protocol.Q_tcd arg -> Some (Hub.Tcd arg)
  | Protocol.Q_adequacy (arg, target, theta) -> Some (Hub.Adequacy (arg, target, theta))
  | Protocol.Q_completeness -> Some Hub.Completeness
  | Protocol.Q_digest -> Some Hub.Digest
  | _ -> None

let answer hub ~shutdown ~default_tenant (p : Protocol.parsed) =
  let tenant_of p =
    match (p.Protocol.pr_tenant, default_tenant) with
    | Some t, _ -> Ok t
    | None, Some t -> Ok t
    | None, None -> Error "no tenant (handshake tenant= or request tenant=)"
  in
  match p.Protocol.pr_request with
  | Protocol.Q_ping -> Ok "pong\n"
  | Protocol.Q_tenants ->
    Ok (String.concat "" (List.map (fun id -> id ^ "\n") (Hub.tenant_ids hub)))
  | Protocol.Q_metrics -> Ok (Export.to_prometheus Metrics.default)
  | Protocol.Q_shutdown ->
    Atomic.set shutdown true;
    Ok "shutting down\n"
  | Protocol.Q_stats -> (
    match tenant_of p with
    | Error _ as e -> e
    | Ok tenant -> (
      match Hub.stats hub ~tenant with
      | Some st -> Ok (Hub.render_stats st)
      | None -> Error (Printf.sprintf "unknown tenant %S" tenant)))
  | req -> (
    match tenant_of p with
    | Error _ as e -> e
    | Ok tenant -> (
      match hub_query_of_request req with
      | Some q -> Hub.query hub ~tenant q
      | None -> Error "unhandled request"))

let serve_query hub ~shutdown ~default_tenant ic oc =
  let rec loop () =
    match In_channel.input_line ic with
    | None -> ()
    | Some line ->
      let reply =
        match Protocol.parse_request line with
        | Error msg -> Protocol.err_frame msg
        | Ok p -> (
          match answer hub ~shutdown ~default_tenant p with
          | Ok payload -> Protocol.ok_frame payload
          | Error msg -> Protocol.err_frame msg)
      in
      send oc reply;
      (* the shutdown requester gets its ack, then the connection ends *)
      if not (Atomic.get shutdown) then loop ()
  in
  loop ()

let handle_connection hub ~shutdown ~batch ~handshake_timeout fd =
  let set_rcvtimeo seconds =
    try Unix.setsockopt_float fd Unix.SO_RCVTIMEO seconds
    with Unix.Unix_error _ | Invalid_argument _ -> ()
  in
  let ic = Unix.in_channel_of_descr fd in
  let oc = Unix.out_channel_of_descr fd in
  Fun.protect
    ~finally:(fun () -> close_conn oc)
    (fun () ->
      (* a client that connects and never speaks must not pin this
         thread forever: the handshake read is deadline-bounded (the
         kernel's EAGAIN surfaces as [Sys_error]), then the deadline is
         lifted for the possibly long-lived session itself *)
      if handshake_timeout > 0.0 then set_rcvtimeo handshake_timeout;
      match In_channel.input_line ic with
      | None -> ()
      | exception Sys_error _ -> ()
      | Some line ->
        if handshake_timeout > 0.0 then set_rcvtimeo 0.0;
        (
        match Protocol.parse_handshake line with
        | Error msg -> send oc (Protocol.err_frame msg)
        | Ok hs -> (
          (* the config token names a lattice point; resolve it before
             any stream bytes are read, so a typo fails fast *)
          let config =
            match hs.Protocol.hs_config with
            | None -> Ok None
            | Some name -> (
              match Iocov_vfs.Config.point_named name with
              | Some point -> Ok (Some point)
              | None ->
                Error
                  (Printf.sprintf "unknown config lattice point %S" name))
          in
          match config with
          | Error msg -> send oc (Protocol.err_frame msg)
          | Ok config -> (
            match hs.Protocol.hs_role with
            | Protocol.Query ->
              serve_query hub ~shutdown ~default_tenant:hs.Protocol.hs_tenant ic oc
            | Protocol.Ingest -> (
              let tenant = Option.get hs.Protocol.hs_tenant in
              let mount = hs.Protocol.hs_mount in
              let declared =
                match config with
                | None -> Ok ()
                | Some point -> Hub.declare_config hub ~tenant point
              in
              let result =
                match declared with
                | Error _ as e -> e
                | Ok () -> (
                  match hs.Protocol.hs_format with
                  | Protocol.Binary -> serve_ingest_binary hub ~tenant ~mount ic
                  | Protocol.Text -> serve_ingest_text hub ~tenant ~mount ~batch ic)
              in
              match result with
              | Ok summary -> send oc (Protocol.ok_frame summary)
              | Error msg -> send oc (Protocol.err_frame msg))))))

(* --- file-tail ingestion ---

   The stream latches EOF, so tailing re-opens the file and resumes at
   the frozen cursor — sound because the trace writer appends whole frames
   ([flush] never leaves a torn one). *)

let tail_file hub ~shutdown ~follow ~tenant path =
  let session = Hub.open_session hub ~tenant () in
  Fun.protect
    ~finally:(fun () -> Hub.close_session session)
    (fun () ->
      let open_at cursor ic =
        match cursor with
        | None -> Binary_io.open_stream ic
        | Some c -> Binary_io.resume_stream ic c
      in
      let rec pass cursor =
        (* rotation/truncation: if the file shrank below the frozen
           cursor it cannot be the byte stream the cursor came from —
           drop the decode state, restart at the head of the (new)
           file, and put the reset on the completeness ledger *)
        let cursor =
          match cursor with
          | Some c
            when (try (Unix.stat path).Unix.st_size < c.Binary_io.c_offset
                  with Unix.Unix_error _ -> false) ->
            Hub.note_anomaly session
              (Anomaly.v ~offset:c.Binary_io.c_offset Anomaly.Truncated
                 (Printf.sprintf
                    "%s shrank below the resume cursor (truncated or rotated); \
                     restarting from the beginning" path));
            None
          | c -> c
        in
        match open_in_bin path with
        | exception Sys_error msg -> Error msg
        | ic ->
          let next =
            Fun.protect
              ~finally:(fun () -> close_in_noerr ic)
              (fun () ->
                match open_at cursor ic with
                | Error _ as e -> e
                | Ok stream -> (
                  match drain_to_eof session stream with
                  | Error _ as e -> e
                  | Ok () -> Ok (Binary_io.cursor stream)))
          in
          (match next with
           | Error _ as e -> e
           | Ok cur ->
             if follow && not (Atomic.get shutdown) then begin
               Thread.delay 0.05;
               pass (Some cur)
             end
             else Ok ())
      in
      pass None)

(* --- the daemon --- *)

let listen_socket path =
  (try Sys.remove path with Sys_error _ -> ());
  let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  match Unix.bind fd (Unix.ADDR_UNIX path) with
  | () ->
    Unix.listen fd 64;
    Ok fd
  | exception Unix.Unix_error (e, _, _) ->
    (try Unix.close fd with Unix.Unix_error _ -> ());
    Error (Printf.sprintf "cannot bind %s: %s" path (Unix.error_message e))

let run ?(on_ready = fun () -> ()) config =
  if config.batch <= 0 then Error "batch must be positive"
  else begin
    (* A client may hang up before reading its replies.  The write to it
       must fail with EPIPE, which ends only that connection's thread,
       not raise SIGPIPE, whose default action kills the daemon. *)
    Sys.set_signal Sys.sigpipe Sys.Signal_ignore;
    let hub = Hub.create ?mount:config.mount ~batch:config.batch () in
    let shutdown = Atomic.make false in
    let started = Unix.gettimeofday () in
    let threads = ref [] in
    let threads_lock = Mutex.create () in
    let spawn f =
      let t = Thread.create f () in
      Mutex.lock threads_lock;
      threads := t :: !threads;
      Mutex.unlock threads_lock
    in
    (* file-tail sessions: first ingest errors are remembered and
       reported after the run (the daemon itself keeps serving) *)
    let tail_errors = ref [] in
    let tail_lock = Mutex.create () in
    List.iter
      (fun (tenant, path) ->
        spawn (fun () ->
            match tail_file hub ~shutdown ~follow:config.follow ~tenant path with
            | Ok () -> ()
            | Error msg ->
              Mutex.lock tail_lock;
              tail_errors := Printf.sprintf "%s (%s): %s" tenant path msg :: !tail_errors;
              Mutex.unlock tail_lock))
      config.ingests;
    let listener =
      match config.socket with
      | None -> Ok None
      | Some path -> Result.map (fun fd -> Some (path, fd)) (listen_socket path)
    in
    match listener with
    | Error _ as e -> e
    | Ok listener ->
      on_ready ();
      (match listener with
       | None -> ()
       | Some (_, fd) ->
         (* accept until a shutdown request flips the flag; the select
            timeout bounds how long a shutdown waits on an idle socket *)
         let rec accept_loop () =
           if not (Atomic.get shutdown) then begin
             match Unix.select [ fd ] [] [] 0.2 with
             | [], _, _ -> accept_loop ()
             | _ :: _, _, _ -> (
               match Unix.accept fd with
               | conn, _ ->
                 spawn (fun () ->
                     try
                       handle_connection hub ~shutdown ~batch:config.batch
                         ~handshake_timeout:config.handshake_timeout conn
                     with _ -> ());
                 accept_loop ()
               | exception Unix.Unix_error (_, _, _) -> accept_loop ())
             | exception Unix.Unix_error (_, _, _) -> accept_loop ()
           end
         in
         accept_loop ());
      (* join everything: tail threads stop at EOF (or at shutdown when
         following), connection threads at client EOF *)
      List.iter Thread.join !threads;
      (match listener with
       | None -> ()
       | Some (path, fd) ->
         (try Unix.close fd with Unix.Unix_error (_, _, _) -> ());
         (try Sys.remove path with Sys_error _ -> ()));
      (match !tail_errors with
       | err :: _ -> Error err
       | [] ->
         let o_tenants =
           List.filter_map
             (fun tenant ->
               match (Hub.coverage hub ~tenant, Hub.stats hub ~tenant) with
               | Some o_coverage, Some o_stats ->
                 Some
                   { o_tenant = tenant; o_coverage; o_stats;
                     o_config = o_stats.Hub.st_config }
               | _ -> None)
             (Hub.tenant_ids hub)
         in
         Ok { o_tenants; o_wall_s = Unix.gettimeofday () -. started })
  end

(* --- clients --- *)

let with_conn ~socket f =
  let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  match Unix.connect fd (Unix.ADDR_UNIX socket) with
  | exception Unix.Unix_error (e, _, _) ->
    (try Unix.close fd with Unix.Unix_error _ -> ());
    Error (Printf.sprintf "cannot connect to %s: %s" socket (Unix.error_message e))
  | () ->
    let ic = Unix.in_channel_of_descr fd in
    let oc = Unix.out_channel_of_descr fd in
    Fun.protect ~finally:(fun () -> close_conn oc) (fun () -> f fd ic oc)

let client_ingest ~socket ~tenant ?mount ?config path =
  match open_in_bin path with
  | exception Sys_error msg -> Error msg
  | file ->
    Fun.protect
      ~finally:(fun () -> close_in_noerr file)
      (fun () ->
        (* declare the trace format up front — the server cannot seek *)
        let format =
          if Binary_io.is_binary_trace file then Protocol.Binary else Protocol.Text
        in
        with_conn ~socket (fun fd ic oc ->
            let hs =
              {
                Protocol.hs_role = Protocol.Ingest;
                hs_tenant = Some tenant;
                hs_mount = mount;
                hs_format = format;
                hs_config = config;
              }
            in
            (* A server that refuses the stream early (a retired trace
               format, a config clash) replies and hangs up while the
               file is still being sent.  With SIGPIPE ignored the send
               fails with EPIPE instead of killing the client, which
               then stops sending and reads the reply. *)
            Sys.set_signal Sys.sigpipe Sys.Signal_ignore;
            let buf = Bytes.create 65536 in
            let rec pump () =
              let n = input file buf 0 (Bytes.length buf) in
              if n > 0 then begin
                output oc buf 0 n;
                pump ()
              end
            in
            (try
               output_string oc (Protocol.handshake_line hs ^ "\n");
               pump ();
               flush oc;
               (* half-close: the server sees EOF and replies *)
               Unix.shutdown fd Unix.SHUTDOWN_SEND
             with Sys_error _ | Unix.Unix_error _ -> ());
            Protocol.read_frame ic))

let client_query ~socket ?tenant requests =
  with_conn ~socket (fun _fd ic oc ->
      let hs =
        {
          Protocol.hs_role = Protocol.Query;
          hs_tenant = tenant;
          hs_mount = None;
          hs_format = Protocol.Binary;
          hs_config = None;
        }
      in
      output_string oc (Protocol.handshake_line hs ^ "\n");
      flush oc;
      let rec loop acc = function
        | [] -> Ok (List.rev acc)
        | line :: rest -> (
          send oc (line ^ "\n");
          match Protocol.read_frame ic with
          | Ok payload -> loop (payload :: acc) rest
          | Error _ as e -> e)
      in
      loop [] requests)
