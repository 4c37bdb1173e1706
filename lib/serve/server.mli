(** The serve daemon: {!Hub} behind a Unix-domain socket (plus a
    file-tail mode used by tests and single-host pipelines).

    One listener thread accepts connections; each connection gets its
    own thread speaking {!Protocol}.  Ingest connections stream trace
    bytes through a hub session (the fused dense path); query
    connections answer request lines from epoch snapshots, so a slow
    report never pauses any tenant's ingestion.  A [shutdown] request
    stops the listener, waits for in-flight streams, and returns the
    final per-tenant outcomes — which the CLI appends to the run
    ledger, one record per tenant. *)

type config = {
  socket : string option;  (** Unix-domain socket path; [None] = file mode only *)
  ingests : (string * string) list;  (** [(tenant, trace-file)] tail sessions *)
  follow : bool;  (** keep tailing ingest files after EOF (frame-aligned
                      appends), until shutdown *)
  mount : string option;  (** hub-wide mount filter (like [analyze --mount]) *)
  batch : int;  (** per-session drain size *)
  handshake_timeout : float;
      (** seconds a fresh connection may sit silent before its thread
          gives up on the handshake ([SO_RCVTIMEO]); [0.] = forever *)
}

val default_config : config
(** No socket, no ingests, no follow, no filter, batch 8192, 5 s
    handshake timeout. *)

type tenant_outcome = {
  o_tenant : string;
  o_coverage : Iocov_core.Coverage.t;  (** final epoch, reference form *)
  o_stats : Hub.stats;
  o_config : (string * string) option;
  (** (lattice point name, config digest) the tenant's streams declared
      via [config=]; [None] when none did *)
}

type outcome = {
  o_tenants : tenant_outcome list;  (** sorted by tenant id *)
  o_wall_s : float;
}

val run : ?on_ready:(unit -> unit) -> config -> (outcome, string) result
(** Run until a [shutdown] request arrives (socket mode) or every
    ingest file reaches EOF (pure file mode).  [on_ready] fires once
    the socket is listening — tests use it to start clients without
    polling.  Socket files are unlinked on exit. *)

(** {2 Client helpers}

    Thin wrappers over {!Protocol} used by [iocov ingest] / [iocov
    query] and the smoke tests. *)

val client_ingest :
  socket:string -> tenant:string -> ?mount:string -> ?config:string -> string ->
  (string, string) result
(** Stream one local trace file to the daemon; returns the server's
    ingest summary line.  [config] names the lattice point the stream's
    coverage belongs to; the server validates it and pins the tenant.
    When the server refuses the stream before reading all of it, the
    result is its error reply.  Sets SIGPIPE to ignored, as {!run}
    does. *)

val client_query :
  socket:string -> ?tenant:string -> string list -> (string list, string) result
(** Send each request line in order over one connection; collects the
    framed replies.  Stops at the first error. *)
