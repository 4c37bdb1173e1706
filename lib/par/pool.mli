(** The handle {!Replay.session} still accepts as [?pool].

    The replay engine runs on the calling domain, so a pool carries
    nothing: it exists only so that callers written against the former
    worker pool keep building.  Only one job is accepted. *)

type t

val create : ?jobs:int -> unit -> t
(** Raises [Invalid_argument] unless [jobs] is omitted or 1. *)
