(** CRC-32 (IEEE 802.3, reflected, polynomial [0xEDB88320]) — the
    per-frame integrity check of the binary trace format.

    The checksum lives in the low 32 bits of a native [int]; values are
    always in [\[0, 2^32)].  The standard test vector holds:
    [string "123456789" = 0xCBF43926]. *)

val string : string -> int
(** Checksum of a whole string. *)

val bytes : bytes -> int

val update : int -> string -> pos:int -> len:int -> int
(** [update crc s ~pos ~len] extends [crc] with a substring, so a
    checksum can be computed incrementally over fragments.  [update 0]
    of a whole string equals {!string}.  Raises [Invalid_argument] on
    an out-of-bounds substring. *)
