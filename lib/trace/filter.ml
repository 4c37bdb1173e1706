module Engine = Iocov_regex.Engine
module Metrics = Iocov_obs.Metrics

(* Filter decisions, process-wide.  "no_hint" records cannot be
   attributed to any mount; "no_match" ones belong to other paths. *)
let m_result result =
  Metrics.counter Metrics.default "iocov_filter_events_total"
    ~labels:[ ("result", result) ]
    ~help:"Mount-point filter decisions."

let m_kept = m_result "kept"
let m_dropped_no_hint = m_result "dropped_no_hint"
let m_dropped_no_match = m_result "dropped_no_match"

(* A mount point is a literal and needs no regex: a hint is kept when it
   is the mount or lies below it.  User patterns keep the engine.  Both
   are immutable (see {!Iocov_regex.Engine}), so a filter is shareable
   across domains and threads. *)
type t =
  | Mount of string  (* trailing slashes stripped; the root mount is "" *)
  | Patterns of Engine.t array

let create ~patterns =
  let rec go acc = function
    | [] -> Ok (Patterns (Array.of_list (List.rev acc)))
    | p :: rest ->
      (match Engine.compile p with
       | Ok c -> go (c :: acc) rest
       | Error msg -> Error (Printf.sprintf "pattern %S: %s" p msg))
  in
  go [] patterns

let create_exn ~patterns =
  match create ~patterns with
  | Ok t -> t
  | Error msg -> invalid_arg ("Filter.create_exn: " ^ msg)

let mount_point mnt =
  let rec strip n = if n > 0 && mnt.[n - 1] = '/' then strip (n - 1) else n in
  Mount (String.sub mnt 0 (strip (String.length mnt)))

let rec same_prefix a b i =
  i < 0 || (String.unsafe_get a i = String.unsafe_get b i && same_prefix a b (i - 1))

(* [hint] is [mnt] or starts with [mnt ^ "/"], compared in place. *)
let under_mount mnt hint =
  let m = String.length mnt and h = String.length hint in
  h >= m && (h = m || String.unsafe_get hint m = '/') && same_prefix mnt hint (m - 1)

let rec any_search keep hint i =
  i < Array.length keep && (Engine.search keep.(i) hint || any_search keep hint (i + 1))

(* The one hint test, entered only for records that carry a hint — the
   no-hint drop never reaches it. *)
let matches_hint t hint =
  match t with
  | Mount mnt -> under_mount mnt hint
  | Patterns keep -> any_search keep hint 0

(* The metered decision: classify, count, answer. *)
let decide t (e : Event.t) =
  match e.path_hint with
  | None ->
    Metrics.Counter.incr m_dropped_no_hint;
    false
  | Some hint ->
    if matches_hint t hint then begin
      Metrics.Counter.incr m_kept;
      true
    end
    else begin
      Metrics.Counter.incr m_dropped_no_match;
      false
    end

(* [keeps] stays a pure query: callers probing a record (reports,
   ad-hoc analysis) must not distort the pipeline's drop counters. *)
let keeps t (e : Event.t) =
  match e.path_hint with
  | None -> false
  | Some hint -> matches_hint t hint

type stats = { kept : int; dropped : int }

let fold t ~init ~f events =
  let acc, kept, dropped =
    List.fold_left
      (fun (acc, kept, dropped) e ->
        if decide t e then (f acc e, kept + 1, dropped) else (acc, kept, dropped + 1))
      (init, 0, 0) events
  in
  (acc, { kept; dropped })

(* The chunk pipeline's batched decision: same classification and the
   same counters as [decide], but metered with three adds per batch
   instead of one atomic increment per record. *)
let keep_all t events =
  let kept = ref 0 and no_hint = ref 0 and no_match = ref 0 in
  let keep_one (e : Event.t) =
    match e.path_hint with
    | None ->
      incr no_hint;
      false
    | Some hint ->
      if matches_hint t hint then begin
        incr kept;
        true
      end
      else begin
        incr no_match;
        false
      end
  in
  let out = List.filter keep_one events in
  if !kept > 0 then Metrics.Counter.add m_kept !kept;
  if !no_hint > 0 then Metrics.Counter.add m_dropped_no_hint !no_hint;
  if !no_match > 0 then Metrics.Counter.add m_dropped_no_match !no_match;
  out

let sink t k e = if decide t e then k e

(* The fused decoder classifies hints itself (it never builds events),
   so it borrows the classification and reports the batched counts
   here — same counters, same totals as [keep_all]. *)
let meter ~kept ~no_hint ~no_match =
  if kept > 0 then Metrics.Counter.add m_kept kept;
  if no_hint > 0 then Metrics.Counter.add m_dropped_no_hint no_hint;
  if no_match > 0 then Metrics.Counter.add m_dropped_no_match no_match
