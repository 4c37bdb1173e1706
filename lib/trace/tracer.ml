open Iocov_syscall
module Fs = Iocov_vfs.Fs
module Path = Iocov_vfs.Path
module Metrics = Iocov_obs.Metrics
module Clock = Iocov_obs.Clock

(* Self-observability: every tracer in the process reports into the
   default registry.  Handles are resolved once; the per-event cost is
   one field increment plus one array read for the per-kind counter. *)
let m_events =
  Metrics.counter Metrics.default "iocov_tracer_events_total"
    ~help:"Trace records emitted, before any filtering."

let m_emit_latency =
  Metrics.histogram Metrics.default "iocov_tracer_emit_latency_ns"
    ~help:"Sink dispatch latency per record, sampled every 64th event."

(* Per-kind call counters, one slot per syscall variant and per aux
   kind, registered on first use so the registry lists only the kinds
   a run executed.  Domain-safe: [Metrics.counter] returns the same
   handle for the same key under the registry lock, so two domains
   racing on an empty slot store the same handle twice. *)
let kind_counter slots i name =
  match slots.(i) with
  | Some c -> c
  | None ->
    let c =
      Metrics.counter Metrics.default "iocov_tracer_calls_total"
        ~labels:[ ("syscall", name) ]
        ~help:"Calls executed through the tracer by syscall kind."
    in
    slots.(i) <- Some c;
    c

let call_counters : Metrics.Counter.t option array = Array.make Model.variant_count None

let aux_index : Fs.aux -> int = function
  | Fs.Unlink _ -> 0
  | Fs.Rmdir _ -> 1
  | Fs.Rename _ -> 2
  | Fs.Symlink _ -> 3
  | Fs.Link _ -> 4
  | Fs.Fsync _ -> 5
  | Fs.Fdatasync _ -> 6
  | Fs.Sync -> 7
  | Fs.Crash -> 8

let aux_counters : Metrics.Counter.t option array = Array.make (aux_index Fs.Crash + 1) None

type t = {
  fs : Fs.t;
  pid : int;
  comm : string;
  mutable seq : int;
  mutable sinks : (Event.t -> unit) list;  (* registration order *)
  fd_paths : (int, string) Hashtbl.t;
  mutable cwd : string;
}

let create ?(pid = 1000) ?(comm = "tester") fs =
  { fs; pid; comm; seq = 0; sinks = []; fd_paths = Hashtbl.create 32; cwd = "/" }

let fs t = t.fs
let on_event t sink = t.sinks <- t.sinks @ [ sink ]
let cwd t = t.cwd

(* A path is already canonical when it is absolute and every component
   is non-empty and neither "." nor "..": no "//", no trailing slash.
   Scanned in place. *)
let rec component_end path n i =
  if i < n && String.unsafe_get path i <> '/' then component_end path n (i + 1) else i

let rec canonical_from path n i =
  let stop = component_end path n i in
  match stop - i with
  | 0 -> false
  | 1 when String.unsafe_get path i = '.' -> false
  | 2 when String.unsafe_get path i = '.' && String.unsafe_get path (i + 1) = '.' -> false
  | _ -> stop = n || canonical_from path n (stop + 1)

let is_canonical path =
  String.length path > 0 && path.[0] = '/' && canonical_from path (String.length path) 1

(* Normalize a possibly-relative pathname against the tracked cwd;
   "." / ".." components are folded so hints are canonical.  A path
   that is canonical already is its own hint. *)
let absolutize t path =
  if is_canonical path then path
  else begin
    let raw = if String.length path > 0 && path.[0] = '/' then path else Path.join t.cwd path in
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
  end

let hint_of_target t = function
  | Model.Path p -> Some (absolutize t p)
  | Model.Fd fd -> Hashtbl.find_opt t.fd_paths fd

let hint_of_call t call =
  match call with
  | Model.Open_call { path; _ } -> Some (absolutize t path)
  | Model.Mkdir_call { path; _ } -> Some (absolutize t path)
  | Model.Read_call { fd; _ }
  | Model.Write_call { fd; _ }
  | Model.Lseek_call { fd; _ }
  | Model.Close_call { fd } -> Hashtbl.find_opt t.fd_paths fd
  | Model.Truncate_call { target; _ }
  | Model.Chmod_call { target; _ }
  | Model.Chdir_call { target }
  | Model.Setxattr_call { target; _ }
  | Model.Getxattr_call { target; _ } -> hint_of_target t target

(* Keep the fd table and cwd in sync with successful calls.  [hint] is
   the call's own hint, computed just before it ran: an [open]'s
   absolute path, a [chdir]'s new directory. *)
let post_process t call outcome hint =
  match (call, outcome, hint) with
  | Model.Open_call _, Model.Ret fd, Some path ->
    (match Fs.fd_path t.fs fd with
     | Some _ -> Hashtbl.replace t.fd_paths fd path
     | None -> () (* O_TMPFILE: anonymous *))
  | Model.Close_call { fd }, Model.Ret _, _ -> Hashtbl.remove t.fd_paths fd
  | Model.Chdir_call _, Model.Ret _, Some dir -> t.cwd <- dir
  | _ -> ()

let rec dispatch event = function
  | [] -> ()
  | sink :: rest ->
    sink event;
    dispatch event rest

let emit t payload outcome path_hint =
  t.seq <- t.seq + 1;
  Metrics.Counter.incr m_events;
  let event =
    {
      Event.seq = t.seq;
      timestamp_ns = t.seq * 811;  (* logical time: strictly monotone *)
      pid = t.pid;
      comm = t.comm;
      payload;
      outcome;
      path_hint;
    }
  in
  if t.seq land 63 = 0 then begin
    let t0 = Clock.now () in
    dispatch event t.sinks;
    Metrics.Histogram.observe m_emit_latency
      (int_of_float ((Clock.now () -. t0) *. 1e9))
  end
  else dispatch event t.sinks

let exec t call =
  let variant = Model.variant_of_call call in
  Metrics.Counter.incr
    (kind_counter call_counters (Model.variant_index variant) (Model.variant_name variant));
  let hint = hint_of_call t call in
  let outcome = Fs.exec t.fs call in
  post_process t call outcome hint;
  emit t (Event.Tracked call) outcome hint;
  outcome

let aux_detail t aux =
  match (aux : Fs.aux) with
  | Fs.Unlink p | Fs.Rmdir p -> (Printf.sprintf "path=%S" p, Some (absolutize t p))
  | Fs.Rename (o, n) -> (Printf.sprintf "old=%S, new=%S" o n, Some (absolutize t o))
  | Fs.Symlink (target, link) ->
    (Printf.sprintf "target=%S, link=%S" target link, Some (absolutize t link))
  | Fs.Link (e, n) -> (Printf.sprintf "old=%S, new=%S" e n, Some (absolutize t e))
  | Fs.Fsync fd | Fs.Fdatasync fd ->
    (Printf.sprintf "fd=%d" fd, Hashtbl.find_opt t.fd_paths fd)
  | Fs.Sync | Fs.Crash -> ("", None)

let exec_aux t aux =
  Metrics.Counter.incr (kind_counter aux_counters (aux_index aux) (Fs.aux_name aux));
  let detail, hint = aux_detail t aux in
  let result = Fs.exec_aux t.fs aux in
  (match aux with
   | Fs.Crash ->
     (* all descriptors die with the crash *)
     Hashtbl.reset t.fd_paths;
     t.cwd <- "/"
   | _ -> ());
  let outcome =
    match result with Ok n -> Model.Ret n | Error e -> Model.Err e
  in
  emit t (Event.Aux { name = Fs.aux_name aux; detail }) outcome hint;
  result
