(** Frequency counting over arbitrary partition keys.

    The counter behind {!Coverage_oracle}, the hashed-histogram
    accumulator the tests compare [Coverage.t] against: a polymorphic
    multiset with deterministic (sorted) iteration so snapshots and
    tests are stable. *)

type 'k t
(** A frequency table over keys of type ['k], ordered by a comparison
    function fixed at creation. *)

val create : compare:('k -> 'k -> int) -> 'k t
(** Fresh empty histogram using [compare] as the key order. *)

val add : 'k t -> ?count:int -> 'k -> unit
(** [add h k] increments [k]'s frequency by [count] (default 1).
    [count] must be non-negative. *)

val count : 'k t -> 'k -> int
(** Frequency of [k]; 0 if never added. *)

val total : 'k t -> int
(** Sum of all frequencies. *)

val distinct : 'k t -> int
(** Number of keys with frequency > 0. *)

val mem : 'k t -> 'k -> bool
(** [mem h k] is [count h k > 0]. *)

val to_sorted : 'k t -> ('k * int) list
(** All (key, frequency) pairs in ascending key order. *)

val keys : 'k t -> 'k list
(** Keys with positive frequency, ascending. *)

val merge_into : dst:'k t -> 'k t -> unit
(** [merge_into ~dst src] adds every frequency of [src] into [dst]. *)

val copy : 'k t -> 'k t

val clear : 'k t -> unit

val max_frequency : 'k t -> int
(** Largest frequency present, or 0 for an empty histogram. *)

val fold : ('k -> int -> 'a -> 'a) -> 'k t -> 'a -> 'a
(** Fold over (key, frequency) pairs in ascending key order. *)

val map_sum : ('k -> int -> int) -> 'k t -> int
(** [map_sum f h] sums [f k freq] over all entries. *)
