(** File permission modes — the bitmap argument of [chmod], [mkdir], and
    [open(O_CREAT)].

    Twelve bits: the nine [rwxrwxrwx] permission bits plus the setuid,
    setgid, and sticky bits.  Like {!Open_flags}, coverage counts each set
    bit as a partition member. *)

type bit =
  | S_ISUID
  | S_ISGID
  | S_ISVTX
  | S_IRUSR
  | S_IWUSR
  | S_IXUSR
  | S_IRGRP
  | S_IWGRP
  | S_IXGRP
  | S_IROTH
  | S_IWOTH
  | S_IXOTH

type t = int
(** A mode, e.g. [0o644]. *)

val all_bits : bit list
(** The 12-bit domain, high bits first. *)

val bit_name : bit -> string

val bit_index : bit -> int
(** Dense index in declaration order, in [[0, bit_count)] — an array
    offset for the compiled partition plan. *)

val bit_count : int
val bit_of_name : string -> bit option

val mask : bit -> int
(** The octal mask of a single bit. *)

val decompose : t -> bit list
(** Set bits, in {!all_bits} order.  Bits outside the 12-bit domain are
    ignored. *)

val of_bits : bit list -> t

val valid : t -> bool
(** [valid m] iff [m] has no bits outside the 12-bit domain —
    Linux rejects such modes from [mkdir]/[chmod] with [EINVAL]. *)

val to_octal_string : t -> string
(** E.g. ["0o644"]. *)

val readable_by : t -> [ `Owner | `Group | `Other ] -> bool
val writable_by : t -> [ `Owner | `Group | `Other ] -> bool
val executable_by : t -> [ `Owner | `Group | `Other ] -> bool
