module Coverage = Iocov_core.Coverage
module Snapshot = Iocov_core.Snapshot
module Report = Iocov_core.Report
module Tcd = Iocov_core.Tcd
module Adequacy = Iocov_core.Adequacy
module Arg_class = Iocov_core.Arg_class
module Filter = Iocov_trace.Filter
module Binary_io = Iocov_trace.Binary_io
module Event = Iocov_trace.Event
module Anomaly = Iocov_util.Anomaly
module Metrics = Iocov_obs.Metrics
module Model = Iocov_syscall.Model
module Vconfig = Iocov_vfs.Config

let m_batches =
  Metrics.counter Metrics.default "iocov_serve_batches_total"
    ~help:"Ingest batches committed by serve sessions."

let m_events =
  Metrics.counter Metrics.default "iocov_serve_events_total"
    ~help:"Trace records ingested by serve sessions (kept + dropped)."

let m_publishes =
  Metrics.counter Metrics.default "iocov_serve_publishes_total"
    ~help:"Epoch snapshots published (copy-on-write tenant copies)."

let m_queries =
  Metrics.counter Metrics.default "iocov_serve_queries_total"
    ~help:"Queries answered by the hub."

let m_cache_hits =
  Metrics.counter Metrics.default "iocov_serve_cache_hits_total"
    ~help:"Queries answered from the generation-stamped result cache."

let m_tenants =
  Metrics.gauge Metrics.default "iocov_serve_tenants"
    ~help:"Tenants known to the hub."

(* An epoch: one tenant's counters frozen at a generation.  Immutable
   after publication except the two lazy memos, which are idempotent
   (every writer computes the same value from the same frozen counts),
   so the unsynchronized caching race is benign. *)
type epoch = {
  e_gen : int;
  e_dense : Coverage.Dense.t;  (* frozen — never mutated after publish *)
  e_events : int;
  e_kept : int;
  e_completeness : Anomaly.completeness;
  mutable e_ref : Coverage.t option;    (* dense→reference memo *)
  mutable e_digest : string option;     (* CRC-32 snapshot memo *)
}

type session = {
  s_tenant : tenant;
  s_dense : Coverage.Dense.t;  (* private shard: drained into lock-free,
                                  merged + reset at each commit *)
  s_keep : (string -> bool) option;
  s_batch : int;
  mutable s_events : int;
  mutable s_kept : int;
  mutable s_comp : Anomaly.completeness;  (* this stream's ledger so far *)
  mutable s_closed : bool;
}

and tenant = {
  t_id : string;
  t_lock : Mutex.t;  (* guards live counters, totals, session list, epoch swap *)
  t_live : Coverage.Dense.t;
  mutable t_events : int;
  mutable t_kept : int;
  mutable t_no_hint : int;
  mutable t_no_match : int;
  mutable t_comp_closed : Anomaly.completeness;  (* finished streams *)
  mutable t_active : session list;
  t_generation : int Atomic.t;  (* bumped once per committed batch *)
  mutable t_published : epoch;
  t_cache_lock : Mutex.t;  (* guards the render cache only *)
  t_cache : (string, int * string) Hashtbl.t;  (* query -> (gen, payload) *)
  mutable t_publishes : int;
  mutable t_cache_hits : int;
  mutable t_cache_misses : int;
  mutable t_streams : int;
  mutable t_config : Vconfig.point option;  (* pinned by the first stream
                                               that declares one *)
}

type t = {
  h_lock : Mutex.t;  (* guards the tenant table *)
  h_tenants : (string, tenant) Hashtbl.t;
  h_mount : string option;
  h_batch : int;
}

let default_batch = 8192

let create ?mount ?(batch = default_batch) () =
  if batch <= 0 then invalid_arg "Hub.create: batch must be positive";
  { h_lock = Mutex.create (); h_tenants = Hashtbl.create 16; h_mount = mount;
    h_batch = batch }

let empty_epoch () =
  {
    e_gen = 0;
    e_dense = Coverage.Dense.create ();
    e_events = 0;
    e_kept = 0;
    e_completeness = Anomaly.clean ~events_read:0;
    e_ref = None;
    e_digest = None;
  }

let new_tenant id =
  {
    t_id = id;
    t_lock = Mutex.create ();
    t_live = Coverage.Dense.create ();
    t_events = 0;
    t_kept = 0;
    t_no_hint = 0;
    t_no_match = 0;
    t_comp_closed = Anomaly.clean ~events_read:0;
    t_active = [];
    t_generation = Atomic.make 0;
    t_published = empty_epoch ();
    t_cache_lock = Mutex.create ();
    t_cache = Hashtbl.create 16;
    t_publishes = 0;
    t_cache_hits = 0;
    t_cache_misses = 0;
    t_streams = 0;
    t_config = None;
  }

let with_lock m f =
  Mutex.lock m;
  Fun.protect ~finally:(fun () -> Mutex.unlock m) f

let tenant_of t id =
  with_lock t.h_lock (fun () ->
      match Hashtbl.find_opt t.h_tenants id with
      | Some tn -> tn
      | None ->
        let tn = new_tenant id in
        Hashtbl.add t.h_tenants id tn;
        Metrics.Gauge.set m_tenants (Hashtbl.length t.h_tenants);
        tn)

let find_tenant t id =
  with_lock t.h_lock (fun () -> Hashtbl.find_opt t.h_tenants id)

let tenant_ids t =
  with_lock t.h_lock (fun () ->
      Hashtbl.fold (fun id _ acc -> id :: acc) t.h_tenants [])
  |> List.sort String.compare

(* A tenant's coverage is one shard of the config×cell matrix, so all
   its streams must agree on the config point.  The first declaration
   pins it; later sessions may re-declare the same point (by canonical
   config equality) but not switch. *)
let declare_config t ~tenant point =
  let tn = tenant_of t tenant in
  with_lock tn.t_lock (fun () ->
      match tn.t_config with
      | None ->
        tn.t_config <- Some point;
        Ok ()
      | Some p when Vconfig.equal p.Vconfig.pt_config point.Vconfig.pt_config -> Ok ()
      | Some p ->
        Error
          (Printf.sprintf "tenant %s is pinned to config %s (stream declared %s)"
             tenant p.Vconfig.pt_name point.Vconfig.pt_name))

let tenant_config t ~tenant =
  Option.bind (find_tenant t tenant) (fun tn ->
      with_lock tn.t_lock (fun () -> tn.t_config))

(* --- ingestion --- *)

let open_session t ~tenant ?mount () =
  let tn = tenant_of t tenant in
  let keep =
    match (mount, t.h_mount) with
    | Some m, _ | None, Some m ->
      let f = Filter.mount_point m in
      Some (fun hint -> Filter.matches_hint f hint)
    | None, None -> None
  in
  let s =
    {
      s_tenant = tn;
      s_dense = Coverage.Dense.create ();
      s_keep = keep;
      s_batch = t.h_batch;
      s_events = 0;
      s_kept = 0;
      s_comp = Anomaly.clean ~events_read:0;
      s_closed = false;
    }
  in
  with_lock tn.t_lock (fun () ->
      tn.t_active <- s :: tn.t_active;
      tn.t_streams <- tn.t_streams + 1);
  s

(* Commit one drained batch: the only moment a session touches shared
   state.  O(cells) merge + counter updates + one generation bump under
   the tenant lock; the session shard is reset (not reallocated) for
   the next batch. *)
let commit s ~produced ~kept ~no_hint ~no_match ~comp =
  let tn = s.s_tenant in
  s.s_events <- s.s_events + produced;
  s.s_kept <- s.s_kept + kept;
  with_lock tn.t_lock (fun () ->
      Coverage.Dense.merge_into ~dst:tn.t_live s.s_dense;
      tn.t_events <- tn.t_events + produced;
      tn.t_kept <- tn.t_kept + kept;
      tn.t_no_hint <- tn.t_no_hint + no_hint;
      tn.t_no_match <- tn.t_no_match + no_match;
      s.s_comp <- comp;
      Atomic.incr tn.t_generation);
  Coverage.Dense.reset s.s_dense;
  Filter.meter ~kept ~no_hint ~no_match;
  Metrics.Counter.incr m_batches;
  Metrics.Counter.add m_events produced

(* Decoded events (text ingest) with hint classification — the same
   verdicts [drain_batch_dense] computes inline for binary streams. *)
let ingest_event_array s events =
  let kept = ref 0 and no_hint = ref 0 and no_match = ref 0 in
  Array.iter
    (fun (e : Event.t) ->
      let keep =
        match s.s_keep with
        | None -> true
        | Some keep -> (
          match e.Event.path_hint with
          | None ->
            incr no_hint;
            false
          | Some hint ->
            if keep hint then true
            else begin
              incr no_match;
              false
            end)
      in
      if keep then begin
        incr kept;
        match e.Event.payload with
        | Event.Tracked call -> Coverage.Dense.observe s.s_dense call e.Event.outcome
        | Event.Aux _ -> ()
      end)
    events;
  (!kept, !no_hint, !no_match)

let ingest_step s stream =
  if s.s_closed then Error "session is closed"
  else
    match
      Binary_io.drain_batch_dense stream ?keep_hint:s.s_keep ~dense:s.s_dense
        ~max:s.s_batch ()
    with
    | Error _ as e -> e
    | Ok d ->
      if d.Binary_io.dr_produced > 0 then
        commit s ~produced:d.Binary_io.dr_produced ~kept:d.dr_kept
          ~no_hint:d.dr_no_hint ~no_match:d.dr_no_match
          ~comp:(Binary_io.completeness stream);
      Ok d.Binary_io.dr_produced

let rec ingest_stream s stream =
  match ingest_step s stream with
  | Error _ as e -> e
  | Ok 0 -> Ok ()
  | Ok _ -> ingest_stream s stream

let ingest_events s events =
  if s.s_closed then invalid_arg "Hub.ingest_events: session is closed";
  let events = Array.of_list events in
  let produced = Array.length events in
  if produced > 0 then begin
    let kept, no_hint, no_match = ingest_event_array s events in
    commit s ~produced ~kept ~no_hint ~no_match
      ~comp:(Anomaly.clean ~events_read:(s.s_events + produced))
  end

let close_session s =
  if not s.s_closed then begin
    s.s_closed <- true;
    let tn = s.s_tenant in
    with_lock tn.t_lock (fun () ->
        tn.t_comp_closed <- Anomaly.merge tn.t_comp_closed s.s_comp;
        tn.t_active <- List.filter (fun s' -> s' != s) tn.t_active)
  end

let session_events s = s.s_events

(* Transport-level defects (partial frames, rotated tail files) land in
   the tenant's closed-stream ledger — not [s_comp], which each commit
   overwrites with the decoder's own cumulative account.  The
   generation bump invalidates cached completeness renderings. *)
let note_anomaly s (a : Anomaly.t) =
  let add =
    {
      (Anomaly.clean ~events_read:0) with
      Anomaly.truncated = a.Anomaly.kind = Anomaly.Truncated;
      anomalies = [ a ];
    }
  in
  let tn = s.s_tenant in
  with_lock tn.t_lock (fun () ->
      tn.t_comp_closed <- Anomaly.merge tn.t_comp_closed add;
      Atomic.incr tn.t_generation)

(* --- epochs --- *)

(* The dirty watermark: when the published epoch's generation equals
   the tenant's counter, nothing has been committed since it was
   copied, so the query takes no lock at all.  Only a stale epoch pays
   the O(cells) copy — and re-checks under the lock, because a
   concurrent query may have published while we waited. *)
let publish tn =
  let quick = tn.t_published in
  if quick.e_gen = Atomic.get tn.t_generation then quick
  else
    with_lock tn.t_lock (fun () ->
        let gen = Atomic.get tn.t_generation in
        if tn.t_published.e_gen = gen then tn.t_published
        else begin
          let comp =
            List.fold_left
              (fun acc s -> Anomaly.merge acc s.s_comp)
              tn.t_comp_closed tn.t_active
          in
          let ep =
            {
              e_gen = gen;
              e_dense = Coverage.Dense.snapshot tn.t_live;
              e_events = tn.t_events;
              e_kept = tn.t_kept;
              e_completeness = comp;
              e_ref = None;
              e_digest = None;
            }
          in
          tn.t_published <- ep;
          tn.t_publishes <- tn.t_publishes + 1;
          Metrics.Counter.incr m_publishes;
          ep
        end)

(* Dense→reference conversion and digesting happen outside every lock:
   the epoch is frozen, so late ingest batches cannot tear the render,
   and ingestion never waits on a slow report. *)
let epoch_ref ep =
  match ep.e_ref with
  | Some cov -> cov
  | None ->
    let cov = Coverage.Dense.to_reference ~metered:false ep.e_dense in
    ep.e_ref <- Some cov;
    cov

let epoch_digest ep =
  match ep.e_digest with
  | Some d -> d
  | None ->
    let d = Snapshot.digest (epoch_ref ep) in
    ep.e_digest <- Some d;
    d

(* --- queries --- *)

type query =
  | Coverage
  | Tcd of string
  | Adequacy of string * float * float
  | Completeness
  | Digest

let query_key = function
  | Coverage -> "coverage"
  | Tcd arg -> "tcd " ^ arg
  | Adequacy (arg, target, theta) -> Printf.sprintf "adequacy %s %g %g" arg target theta
  | Completeness -> "completeness"
  | Digest -> "digest"

let arg_of_name name =
  match Arg_class.of_name name with
  | Some arg -> Ok arg
  | None -> Error (Printf.sprintf "unknown tracked argument %S" name)

let render_tcd tn ep arg_name =
  Result.map
    (fun arg ->
      let cov = epoch_ref ep in
      let frequencies = Array.of_list (List.map snd (Coverage.input_series cov arg)) in
      let buf = Buffer.create 256 in
      Buffer.add_string buf
        (Printf.sprintf "TCD sweep: %s, tenant %s (%d events)\n" arg_name tn.t_id
           ep.e_events);
      List.iter
        (fun (target, tcd) ->
          Buffer.add_string buf (Printf.sprintf "T=%-10.0f tcd %.3f\n" target tcd))
        (Tcd.sweep ~frequencies
           ~targets:(Tcd.log_targets ~lo_log10:0.0 ~hi_log10:7.0 ~per_decade:1));
      Buffer.contents buf)
    (arg_of_name arg_name)

let render_adequacy tn ep arg_name target theta =
  Result.map
    (fun arg ->
      let cov = epoch_ref ep in
      let table = Report.adequacy_table ~name:tn.t_id cov ~arg ~target ~theta in
      let s = Adequacy.summarize (Adequacy.input_report cov arg ~target ~theta) in
      Printf.sprintf
        "%s\nsummary: %d untested, %d under-tested, %d adequate, %d over-tested\n" table
        s.Adequacy.untested s.Adequacy.under s.Adequacy.adequate s.Adequacy.over)
    (arg_of_name arg_name)

let render tn ep = function
  | Coverage ->
    let cov = epoch_ref ep in
    Ok
      (Report.suite_summary ~name:tn.t_id cov
      ^ "\n"
      ^ Report.untested_summary ~name:tn.t_id cov)
  | Tcd arg -> render_tcd tn ep arg
  | Adequacy (arg, target, theta) -> render_adequacy tn ep arg target theta
  | Completeness ->
    Ok (Report.completeness ~name:tn.t_id ep.e_completeness)
  | Digest -> Ok (epoch_digest ep ^ "\n")

let query t ~tenant q =
  Metrics.Counter.incr m_queries;
  match find_tenant t tenant with
  | None -> Error (Printf.sprintf "unknown tenant %S" tenant)
  | Some tn -> (
    let ep = publish tn in
    let key = query_key q in
    let cached =
      with_lock tn.t_cache_lock (fun () ->
          match Hashtbl.find_opt tn.t_cache key with
          | Some (gen, payload) when gen = ep.e_gen ->
            tn.t_cache_hits <- tn.t_cache_hits + 1;
            Metrics.Counter.incr m_cache_hits;
            Some payload
          | _ ->
            tn.t_cache_misses <- tn.t_cache_misses + 1;
            None)
    in
    match cached with
    | Some payload -> Ok payload
    | None -> (
      (* render outside both locks — the epoch is immutable *)
      match render tn ep q with
      | Error _ as e -> e
      | Ok payload ->
        with_lock tn.t_cache_lock (fun () ->
            Hashtbl.replace tn.t_cache key (ep.e_gen, payload));
        Ok payload))

let coverage t ~tenant =
  Option.map (fun tn -> epoch_ref (publish tn)) (find_tenant t tenant)

let digest t ~tenant =
  Option.map (fun tn -> epoch_digest (publish tn)) (find_tenant t tenant)

type stats = {
  st_events : int;
  st_kept : int;
  st_lost : int;
  st_generation : int;
  st_published : int;
  st_publishes : int;
  st_cache_hits : int;
  st_cache_misses : int;
  st_sessions : int;
  st_streams : int;
  st_config : (string * string) option;  (* lattice point name, config digest *)
}

let stats t ~tenant =
  Option.map
    (fun tn ->
      with_lock tn.t_lock (fun () ->
          let comp =
            List.fold_left
              (fun acc s -> Anomaly.merge acc s.s_comp)
              tn.t_comp_closed tn.t_active
          in
          {
            st_events = tn.t_events;
            st_kept = tn.t_kept;
            st_lost = comp.Anomaly.records_skipped + comp.Anomaly.events_abandoned;
            st_generation = Atomic.get tn.t_generation;
            st_published = tn.t_published.e_gen;
            st_publishes = tn.t_publishes;
            st_cache_hits = tn.t_cache_hits;
            st_cache_misses = tn.t_cache_misses;
            st_sessions = List.length tn.t_active;
            st_streams = tn.t_streams;
            st_config =
              Option.map
                (fun (p : Vconfig.point) ->
                  (p.Vconfig.pt_name, Vconfig.digest p.Vconfig.pt_config))
                tn.t_config;
          }))
    (find_tenant t tenant)

let render_stats st =
  Printf.sprintf
    "events %d (kept %d)\n\
     generation %d (published %d)\n\
     publishes %d\n\
     cache %d hits / %d misses\n\
     sessions %d live / %d total\n"
    st.st_events st.st_kept st.st_generation st.st_published st.st_publishes
    st.st_cache_hits st.st_cache_misses st.st_sessions st.st_streams
  ^
  match st.st_config with
  | None -> ""
  | Some (name, digest) -> Printf.sprintf "config %s (%s)\n" name digest
