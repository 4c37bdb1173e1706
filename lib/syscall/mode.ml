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

let all_bits =
  [ S_ISUID; S_ISGID; S_ISVTX; S_IRUSR; S_IWUSR; S_IXUSR; S_IRGRP;
    S_IWGRP; S_IXGRP; S_IROTH; S_IWOTH; S_IXOTH ]

let bit_name = function
  | S_ISUID -> "S_ISUID"
  | S_ISGID -> "S_ISGID"
  | S_ISVTX -> "S_ISVTX"
  | S_IRUSR -> "S_IRUSR"
  | S_IWUSR -> "S_IWUSR"
  | S_IXUSR -> "S_IXUSR"
  | S_IRGRP -> "S_IRGRP"
  | S_IWGRP -> "S_IWGRP"
  | S_IXGRP -> "S_IXGRP"
  | S_IROTH -> "S_IROTH"
  | S_IWOTH -> "S_IWOTH"
  | S_IXOTH -> "S_IXOTH"

(* Dense index in declaration order, for array-indexed counting. *)
let bit_index = function
  | S_ISUID -> 0
  | S_ISGID -> 1
  | S_ISVTX -> 2
  | S_IRUSR -> 3
  | S_IWUSR -> 4
  | S_IXUSR -> 5
  | S_IRGRP -> 6
  | S_IWGRP -> 7
  | S_IXGRP -> 8
  | S_IROTH -> 9
  | S_IWOTH -> 10
  | S_IXOTH -> 11

let bit_count = 12

let by_name = List.map (fun b -> (bit_name b, b)) all_bits
let bit_of_name s = List.assoc_opt s by_name

let mask = function
  | S_ISUID -> 0o4000
  | S_ISGID -> 0o2000
  | S_ISVTX -> 0o1000
  | S_IRUSR -> 0o400
  | S_IWUSR -> 0o200
  | S_IXUSR -> 0o100
  | S_IRGRP -> 0o40
  | S_IWGRP -> 0o20
  | S_IXGRP -> 0o10
  | S_IROTH -> 0o4
  | S_IWOTH -> 0o2
  | S_IXOTH -> 0o1

let decompose t = List.filter (fun b -> t land mask b <> 0) all_bits
let of_bits bits = List.fold_left (fun acc b -> acc lor mask b) 0 bits
let valid t = t land lnot 0o7777 = 0

let to_octal_string t = Printf.sprintf "0o%o" t

let shift = function `Owner -> 6 | `Group -> 3 | `Other -> 0
let readable_by t who = (t lsr shift who) land 0o4 <> 0
let writable_by t who = (t lsr shift who) land 0o2 <> 0
let executable_by t who = (t lsr shift who) land 0o1 <> 0
