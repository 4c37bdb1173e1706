(** Spans: nestable timed scopes over the pipeline.

    [with_ ~name f] times [f] on {!Clock.now}, records the duration
    into the registry (histogram [iocov_span_duration_ns{span=name}]
    and counter [iocov_span_total{span=name}]), and attaches the
    completed span to its enclosing span — so a run builds a profile
    tree: runner at the root, suite phases beneath it.

    The open-span stack is per-domain (a domain times itself without
    touching another's frames); completed top-level spans from every
    domain accumulate in the shared {!roots} list until {!reset}.
    {!roots} sorts by (name, duration), so the exported span tree is
    stable even when domains complete their root spans in scheduler
    order.

    Every span completion is also forwarded to {!Trace_event} (category
    [span]) when the flight recorder is running. *)

type node = {
  name : string;
  duration_s : float;
  children : node list;  (** in completion order *)
}

val with_ : ?registry:Metrics.t -> name:string -> (unit -> 'a) -> 'a
(** Run [f] inside a span.  The span is closed (and recorded) even if
    [f] raises.  [registry] defaults to {!Metrics.default}. *)

val timed : ?registry:Metrics.t -> name:string -> (unit -> 'a) -> 'a * node
(** Like {!with_}, but also return the completed span — the single
    source of timing truth for callers that report an elapsed time. *)

val roots : unit -> node list
(** Completed top-level spans, sorted by (name, duration) for
    deterministic export. *)

val reset : unit -> unit
(** Drop completed roots (open spans are unaffected). *)

val flatten : node -> (string list * node) list
(** Preorder walk: each node with its path of span names from the
    root.  Convenient for tabular side-by-side rendering. *)

val render : node -> string
(** ASCII profile tree: one line per span with indentation, duration,
    and the share of its parent's time. *)
