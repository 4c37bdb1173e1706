(** Fixed-size bit sets over [\[0, n)], packed eight to a byte: element
    [i] is bit [i mod 8] of byte [i / 8], the layout of the run ledger's
    cell bitmap.  The set is the bytes themselves, so it can be hashed,
    compared or written out as is. *)

type t = bytes

val create : int -> t
(** The empty set over [\[0, n)]. *)

val mem : t -> int -> bool
val add : t -> int -> unit

val mark : t -> int -> bool
(** [mark t i] adds [i] and answers whether it was absent before. *)
