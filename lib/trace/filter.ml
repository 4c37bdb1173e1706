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

(* Compiled patterns are immutable (see {!Iocov_regex.Engine}), so a
   filter is shareable across domains and threads: compile once, match
   against the same value everywhere. *)
type t = { keep : Engine.t array }

let create ~patterns =
  let rec go acc = function
    | [] -> Ok { keep = Array.of_list (List.rev acc) }
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

(* Escape regex metacharacters so a literal mount point can be embedded in
   a pattern. *)
let escape_literal s =
  let buf = Buffer.create (String.length s + 8) in
  String.iter
    (fun c ->
      (match c with
       | '.' | '*' | '+' | '?' | '(' | ')' | '[' | ']' | '{' | '}' | '|' | '^' | '$' | '\\' ->
         Buffer.add_char buf '\\'
       | _ -> ());
      Buffer.add_char buf c)
    s;
  Buffer.contents buf

let mount_point mnt =
  let mnt = if String.length mnt > 1 && mnt.[String.length mnt - 1] = '/' then
      String.sub mnt 0 (String.length mnt - 1)
    else mnt
  in
  create_exn ~patterns:[ Printf.sprintf "^%s(/|$)" (escape_literal mnt) ]

(* The one pattern traversal, entered only for records that carry a
   hint — the no-hint drop never touches the pattern array. *)
let matches_hint t hint = Array.exists (fun c -> Engine.search c hint) t.keep

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
