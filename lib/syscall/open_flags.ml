type flag =
  | O_RDONLY
  | O_WRONLY
  | O_RDWR
  | O_CREAT
  | O_EXCL
  | O_NOCTTY
  | O_TRUNC
  | O_APPEND
  | O_NONBLOCK
  | O_DSYNC
  | O_ASYNC
  | O_DIRECT
  | O_LARGEFILE
  | O_DIRECTORY
  | O_NOFOLLOW
  | O_NOATIME
  | O_CLOEXEC
  | O_SYNC
  | O_RSYNC
  | O_PATH
  | O_TMPFILE

type t = int

let all =
  [ O_RDONLY; O_WRONLY; O_RDWR; O_CREAT; O_EXCL; O_NOCTTY; O_TRUNC;
    O_APPEND; O_NONBLOCK; O_DSYNC; O_ASYNC; O_DIRECT; O_LARGEFILE;
    O_DIRECTORY; O_NOFOLLOW; O_NOATIME; O_CLOEXEC; O_SYNC; O_RSYNC;
    O_PATH; O_TMPFILE ]

let flag_name = function
  | O_RDONLY -> "O_RDONLY"
  | O_WRONLY -> "O_WRONLY"
  | O_RDWR -> "O_RDWR"
  | O_CREAT -> "O_CREAT"
  | O_EXCL -> "O_EXCL"
  | O_NOCTTY -> "O_NOCTTY"
  | O_TRUNC -> "O_TRUNC"
  | O_APPEND -> "O_APPEND"
  | O_NONBLOCK -> "O_NONBLOCK"
  | O_DSYNC -> "O_DSYNC"
  | O_ASYNC -> "O_ASYNC"
  | O_DIRECT -> "O_DIRECT"
  | O_LARGEFILE -> "O_LARGEFILE"
  | O_DIRECTORY -> "O_DIRECTORY"
  | O_NOFOLLOW -> "O_NOFOLLOW"
  | O_NOATIME -> "O_NOATIME"
  | O_CLOEXEC -> "O_CLOEXEC"
  | O_SYNC -> "O_SYNC"
  | O_RSYNC -> "O_RSYNC"
  | O_PATH -> "O_PATH"
  | O_TMPFILE -> "O_TMPFILE"

(* Dense index in declaration order, for array-indexed counting. *)
let flag_index = function
  | O_RDONLY -> 0
  | O_WRONLY -> 1
  | O_RDWR -> 2
  | O_CREAT -> 3
  | O_EXCL -> 4
  | O_NOCTTY -> 5
  | O_TRUNC -> 6
  | O_APPEND -> 7
  | O_NONBLOCK -> 8
  | O_DSYNC -> 9
  | O_ASYNC -> 10
  | O_DIRECT -> 11
  | O_LARGEFILE -> 12
  | O_DIRECTORY -> 13
  | O_NOFOLLOW -> 14
  | O_NOATIME -> 15
  | O_CLOEXEC -> 16
  | O_SYNC -> 17
  | O_RSYNC -> 18
  | O_PATH -> 19
  | O_TMPFILE -> 20

let flag_count = 21

let by_name = List.map (fun f -> (flag_name f, f)) all
let flag_of_name s = List.assoc_opt s by_name

let accmode_mask = 0o3

(* Linux x86-64 values.  O_SYNC = 0o4010000 (includes the O_DSYNC bit);
   O_TMPFILE = 0o20200000 (includes the O_DIRECTORY bit). *)
let bit = function
  | O_RDONLY -> 0o0
  | O_WRONLY -> 0o1
  | O_RDWR -> 0o2
  | O_CREAT -> 0o100
  | O_EXCL -> 0o200
  | O_NOCTTY -> 0o400
  | O_TRUNC -> 0o1000
  | O_APPEND -> 0o2000
  | O_NONBLOCK -> 0o4000
  | O_DSYNC -> 0o10000
  | O_ASYNC -> 0o20000
  | O_DIRECT -> 0o40000
  | O_LARGEFILE -> 0o100000
  | O_DIRECTORY -> 0o200000
  | O_NOFOLLOW -> 0o400000
  | O_NOATIME -> 0o1000000
  | O_CLOEXEC -> 0o2000000
  | O_SYNC -> 0o4010000
  | O_RSYNC -> 0o4010000
  | O_PATH -> 0o10000000
  | O_TMPFILE -> 0o20200000

let is_access_mode = function O_RDONLY | O_WRONLY | O_RDWR -> true | _ -> false

let of_flags flags =
  let modes = List.filter is_access_mode flags in
  (match modes with
   | [] | [ _ ] -> ()
   | _ -> invalid_arg "Open_flags.of_flags: multiple access modes");
  List.fold_left (fun acc f -> acc lor bit f) 0 flags

let access_mode t =
  match t land accmode_mask with
  | 0o0 -> O_RDONLY
  | 0o1 -> O_WRONLY
  | _ -> O_RDWR

(* O_RSYNC shares O_SYNC's encoding on Linux, so decomposition reports
   O_SYNC for that bit pattern; O_RSYNC is only observable when built with
   of_flags and is normalized to O_SYNC.  The sync bits subsume O_DSYNC and
   O_TMPFILE subsumes O_DIRECTORY. *)
let decompose t =
  let mode = access_mode t in
  let sync_set = t land bit O_SYNC = bit O_SYNC in
  let tmpfile_set = t land bit O_TMPFILE = bit O_TMPFILE in
  let others =
    List.filter
      (fun f ->
        match f with
        | O_RDONLY | O_WRONLY | O_RDWR | O_RSYNC -> false
        | O_DSYNC -> (not sync_set) && t land bit O_DSYNC <> 0
        | O_SYNC -> sync_set
        | O_DIRECTORY -> (not tmpfile_set) && t land bit O_DIRECTORY <> 0
        | O_TMPFILE -> tmpfile_set
        | f -> t land bit f <> 0)
      all
  in
  mode :: others

(* [decompose]'s rules as one bit test per flag, allocating nothing:
   O_DSYNC without the rest of O_SYNC, O_DIRECTORY without the rest of
   O_TMPFILE, and never O_RSYNC. *)
let has t f =
  match f with
  | O_RDONLY | O_WRONLY | O_RDWR -> access_mode t = f
  | O_RSYNC -> false
  | O_DSYNC -> t land bit O_SYNC = bit O_DSYNC
  | O_DIRECTORY -> t land bit O_TMPFILE = bit O_DIRECTORY
  | O_SYNC | O_TMPFILE -> t land bit f = bit f
  | f -> t land bit f <> 0

let readable t = access_mode t <> O_WRONLY
let writable t = access_mode t <> O_RDONLY

(* A top-level loop, so that printing a mask allocates nothing beyond
   its text. *)
let rec bits_of acc = function [] -> acc | f :: rest -> bits_of (acc lor bit f) rest

(* Every name [decompose] reports stands for bits the mask has, so the
   bits no name reproduces are [t lxor] the names' bits. *)
let to_string t =
  let flags = decompose t in
  let names = String.concat "|" (List.map flag_name flags) in
  let unnamed = t lxor bits_of 0 flags in
  if unnamed = 0 then names else Printf.sprintf "%s|0x%x" names unnamed

(* "0x" and lowercase hex digits, read as [%x] prints them: the 63 bits
   unsigned, which is how [int_of_string] reads a 0x literal. *)
let of_hex s =
  let digits = String.sub s 2 (String.length s - 2) in
  if digits <> "" && String.for_all (function '0' .. '9' | 'a' .. 'f' -> true | _ -> false) digits
  then int_of_string_opt s
  else None

let of_string s =
  let rec go acc = function
    | [] -> Some acc
    | [ last ] when String.starts_with ~prefix:"0x" last ->
      Option.map (fun unnamed -> acc lor unnamed) (of_hex last)
    | name :: rest ->
      (match flag_of_name name with
       | Some f -> go (acc lor bit f) rest
       | None -> None)
  in
  go 0 (String.split_on_char '|' s)

let count_flags t = List.length (decompose t)
