(* The coverage service end to end (DESIGN.md §16): start an in-process
   `iocov serve` daemon on a Unix-domain socket, stream two tenants'
   binary traces into it concurrently, interrogate their epoch
   snapshots over the wire while ingestion runs, and let the shutdown
   outcome prove each tenant's digest is byte-identical to an offline
   replay of the same trace.

     dune exec examples/serve_session.exe -- 5000   # events per tenant

   Exits 1 if any reply is malformed or a digest diverges, so this
   doubles as a smoke test (wired into dune runtest). *)

open Iocov_syscall
module Event = Iocov_trace.Event
module Filter = Iocov_trace.Filter
module Binary_io = Iocov_trace.Binary_io
module Coverage = Iocov_core.Coverage
module Ledger = Iocov_pipe.Ledger
module Hub = Iocov_serve.Hub
module Server = Iocov_serve.Server
module Prng = Iocov_util.Prng

let failures = ref 0

let expect what ok =
  if not ok then begin
    incr failures;
    Printf.printf "FAIL %s\n" what
  end

(* a small deterministic workload: opens, reads, writes under the
   mount, plus out-of-mount noise the filter must reject *)
let synth_events ~seed n =
  let rng = Prng.create ~seed in
  let rdonly = Open_flags.of_flags Open_flags.[ O_RDONLY ] in
  let creat = Open_flags.of_flags Open_flags.[ O_WRONLY; O_CREAT ] in
  List.init n (fun seq ->
      let inside = Prng.chance rng 0.8 in
      let path =
        if inside then
          Printf.sprintf "/mnt/test/d%d/f%d" (Prng.int rng 6) (Prng.int rng 120)
        else Printf.sprintf "/var/log/noise%d" (Prng.int rng 40)
      in
      let fd = 3 + Prng.int rng 30 in
      let call, outcome =
        match Prng.int rng 5 with
        | 0 ->
          (Model.open_ ~flags:(if Prng.bool rng then rdonly else creat)
             ~mode:0o644 path, Model.Ret fd)
        | 1 -> (Model.read ~fd ~count:(Prng.pow2_size rng ~max_log2:16) (),
                Model.Ret 4096)
        | 2 | 3 ->
          (Model.write ~variant:Model.Sys_write ~fd
             ~count:(Prng.pow2_size rng ~max_log2:18) (), Model.Ret 100)
        | _ -> (Model.open_ ~flags:rdonly ~mode:0 path, Model.Err Errno.ENOENT)
      in
      { Event.seq; timestamp_ns = seq * 57; pid = 200; comm = "example";
        payload = Event.Tracked call; outcome; path_hint = Some path })

let write_trace path events =
  let oc = open_out_bin path in
  let w = Binary_io.writer oc in
  List.iter (Binary_io.sink w) events;
  Binary_io.flush w;
  close_out oc

let filter = Filter.mount_point "/mnt/test"

(* the offline oracle: per-event filter + observe, then the ledger's
   CRC-32 digest — exactly what `iocov analyze` fingerprints *)
let offline_digest events =
  let cov = Coverage.create ~metered:false () in
  List.iter
    (fun e ->
      if Filter.keeps filter e then
        match e.Event.payload with
        | Event.Tracked call -> Coverage.observe cov call e.Event.outcome
        | Event.Aux _ -> ())
    events;
  Ledger.digest cov

let () =
  let n = try int_of_string Sys.argv.(1) with _ -> 5_000 in
  let dir = Filename.temp_file "iocov_serve_example" "" in
  Sys.remove dir;
  Unix.mkdir dir 0o700;
  Fun.protect
    ~finally:(fun () ->
      Array.iter
        (fun f -> try Sys.remove (Filename.concat dir f) with Sys_error _ -> ())
        (Sys.readdir dir);
      try Unix.rmdir dir with Unix.Unix_error _ -> ())
  @@ fun () ->
  let tenants = [ ("alice", 11); ("bob", 12) ] in
  let traces =
    List.map
      (fun (tenant, seed) ->
        let events = synth_events ~seed n in
        let path = Filename.concat dir (tenant ^ ".trace") in
        write_trace path events;
        (tenant, path, events))
      tenants
  in
  let sock = Filename.concat dir "iocov.sock" in
  let ready = Atomic.make false in
  let result = ref (Error "server never ran") in
  let daemon =
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
  Printf.printf "daemon listening on %s\n" sock;
  (* two tenants streaming concurrently, like two tracer hosts *)
  let clients =
    List.map
      (fun (tenant, path, _) ->
        Thread.create
          (fun () ->
            match Server.client_ingest ~socket:sock ~tenant path with
            | Ok summary -> Printf.printf "ingest %-5s: %s\n" tenant summary
            | Error msg -> expect (Printf.sprintf "ingest %s (%s)" tenant msg) false)
          ())
      traces
  in
  List.iter Thread.join clients;
  (* interrogate each tenant's epoch over the wire *)
  List.iter
    (fun (tenant, _, events) ->
      match
        Server.client_query ~socket:sock ~tenant [ "digest"; "stats"; "tcd" ]
      with
      | Error msg -> expect (Printf.sprintf "query %s (%s)" tenant msg) false
      | Ok [ digest; stats; tcd ] ->
        Printf.printf "\n[%s] digest %s\n%s" tenant (String.trim digest) stats;
        expect
          (Printf.sprintf "%s digest matches offline replay" tenant)
          (String.trim digest = offline_digest events);
        expect (tenant ^ " tcd report non-empty") (String.length tcd > 0)
      | Ok _ -> expect (tenant ^ " reply count") false)
    traces;
  (match Server.client_query ~socket:sock [ "tenants"; "shutdown" ] with
  | Ok [ roster; _ ] -> Printf.printf "\ntenants:\n%s" roster
  | Ok _ -> expect "roster reply count" false
  | Error msg -> expect (Printf.sprintf "shutdown (%s)" msg) false);
  Thread.join daemon;
  (match !result with
  | Error msg -> expect (Printf.sprintf "daemon outcome (%s)" msg) false
  | Ok outcome ->
    List.iter
      (fun o ->
        let offline =
          match List.find_opt (fun (t, _, _) -> t = o.Server.o_tenant) traces with
          | Some (_, _, events) -> offline_digest events
          | None -> "<unknown tenant>"
        in
        expect
          (Printf.sprintf "outcome %s digest byte-identical" o.Server.o_tenant)
          (Ledger.digest o.Server.o_coverage = offline))
      outcome.Server.o_tenants;
    expect "both tenants in the outcome" (List.length outcome.Server.o_tenants = 2));
  if !failures > 0 then exit 1;
  print_endline "\nall serve-session properties hold"
