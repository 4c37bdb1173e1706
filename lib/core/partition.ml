open Iocov_syscall
module Log2 = Iocov_util.Log2

type t =
  | P_flag of Open_flags.flag
  | P_mode_bit of Mode.bit
  | P_mode_zero
  | P_bucket of Log2.bucket
  | P_whence of Whence.t
  | P_xflag of Xattr_flag.t

let rank = function
  | P_flag _ -> 0
  | P_mode_bit _ -> 1
  | P_mode_zero -> 2
  | P_bucket _ -> 3
  | P_whence _ -> 4
  | P_xflag _ -> 5

let compare a b =
  match (a, b) with
  | P_flag x, P_flag y -> Stdlib.compare x y
  | P_mode_bit x, P_mode_bit y -> Stdlib.compare x y
  | P_mode_zero, P_mode_zero -> 0
  | P_bucket x, P_bucket y -> Log2.compare_bucket x y
  | P_whence x, P_whence y -> Whence.compare x y
  | P_xflag x, P_xflag y -> Xattr_flag.compare x y
  | a, b -> Stdlib.compare (rank a) (rank b)

let equal a b = compare a b = 0

let label = function
  | P_flag f -> Open_flags.flag_name f
  | P_mode_bit b -> Mode.bit_name b
  | P_mode_zero -> "MODE_0000"
  | P_bucket b -> Log2.bucket_label b
  | P_whence w -> Whence.to_string w
  | P_xflag f -> Xattr_flag.to_string f

(* Parse the decimal suffix [s.[from..]] in place — the snapshot-parse
   path calls this per stored bucket label, and [String.sub] would
   allocate a copy each time.  Plain digits only (no sign, base prefix,
   or [_] separators), overflow-guarded; returns [-1] when malformed —
   valid exponents are non-negative, so [-1] is free as a sentinel. *)
let decimal_suffix s from =
  let n = String.length s in
  let rec go i acc =
    if i >= n then acc
    else
      let c = s.[i] in
      if c < '0' || c > '9' then -1
      else
        let d = Char.code c - Char.code '0' in
        if acc > (max_int - d) / 10 then -1 else go (i + 1) ((acc * 10) + d)
  in
  if from >= n then -1 else go from 0

let of_label s =
  if s = "MODE_0000" then Some P_mode_zero
  else if s = "=0" then Some (P_bucket Log2.Zero)
  else if s = "<0" then Some (P_bucket Log2.Negative)
  else if String.length s > 2 && s.[0] = '2' && s.[1] = '^' then
    match decimal_suffix s 2 with
    | k when k >= 0 -> Some (P_bucket (Log2.Pow2 k))
    | _ -> None
  else
    match Open_flags.flag_of_name s with
    | Some f -> Some (P_flag f)
    | None ->
      (match Mode.bit_of_name s with
       | Some b -> Some (P_mode_bit b)
       | None ->
         (match Whence.of_string s with
          | Some w -> Some (P_whence w)
          | None ->
            (match Xattr_flag.of_string s with
             | Some f -> Some (P_xflag f)
             | None -> None)))

let numeric_domain ~signed ~hi =
  let buckets = List.map (fun b -> P_bucket b) (Log2.range ~lo:0 ~hi) in
  let zero = P_bucket Log2.Zero in
  if signed then (P_bucket Log2.Negative :: zero :: buckets) else zero :: buckets

let domain arg =
  let open Arg_class in
  match arg with
  | Open_flags_arg -> List.map (fun f -> P_flag f) Open_flags.all
  | Open_mode | Mkdir_mode | Chmod_mode ->
    P_mode_zero :: List.map (fun b -> P_mode_bit b) Mode.all_bits
  | Read_count | Write_count -> numeric_domain ~signed:false ~hi:32
  | Read_offset | Write_offset -> numeric_domain ~signed:true ~hi:32
  | Lseek_offset -> numeric_domain ~signed:true ~hi:32
  | Truncate_length -> numeric_domain ~signed:true ~hi:32
  | Setxattr_size | Getxattr_size -> numeric_domain ~signed:false ~hi:16
  | Lseek_whence -> List.map (fun w -> P_whence w) Whence.all
  | Setxattr_flags -> List.map (fun f -> P_xflag f) Xattr_flag.all

(* --- outputs --- *)

type output =
  | O_ok
  | O_ok_zero
  | O_ok_bucket of int
  | O_err of Errno.t

let output_rank = function
  | O_ok -> (-3, 0)
  | O_ok_zero -> (-2, 0)
  | O_ok_bucket k -> (-1, k)
  | O_err e -> (0, Errno.to_code e)

let compare_output a b = Stdlib.compare (output_rank a) (output_rank b)
let equal_output a b = compare_output a b = 0

let output_label = function
  | O_ok -> "OK"
  | O_ok_zero -> "OK=0"
  | O_ok_bucket k -> Printf.sprintf "OK 2^%d" k
  | O_err e -> Errno.to_string e

let output_token = function
  | O_ok -> "OK"
  | O_ok_zero -> "OK=0"
  | O_ok_bucket k -> Printf.sprintf "OK:2^%d" k
  | O_err e -> Errno.to_string e

let output_of_token s =
  if s = "OK" then Some O_ok
  else if s = "OK=0" then Some O_ok_zero
  else if
    String.length s > 5
    && s.[0] = 'O' && s.[1] = 'K' && s.[2] = ':' && s.[3] = '2' && s.[4] = '^'
  then
    match decimal_suffix s 5 with
    | k when k >= 0 -> Some (O_ok_bucket k)
    | _ -> None
  else
    match Errno.of_string s with
    | Some e -> Some (O_err e)
    | None -> None

let output_domain base =
  let successes =
    if Model.returns_byte_count base then
      O_ok_zero :: List.init 33 (fun k -> O_ok_bucket k)
    else [ O_ok ]
  in
  successes @ List.map (fun e -> O_err e) (Model.errno_domain base)

let output_is_error = function O_err _ -> true | O_ok | O_ok_zero | O_ok_bucket _ -> false

let output_success_group = function
  | O_ok | O_ok_zero | O_ok_bucket _ -> `Ok
  | O_err e -> `Err e

(* --- post-crash outcomes (DESIGN.md §17) ---

   A genuinely new output dimension beyond the paper: each (journal
   mode, per-file outcome) pair is one partition cell, and the crash
   engine's enumerated states light them up the way syscall outcomes
   light up the error cells. *)

type crash_mode = CM_writeback | CM_ordered | CM_journaled

let all_crash_modes = [ CM_writeback; CM_ordered; CM_journaled ]

let crash_mode_label = function
  | CM_writeback -> "writeback"
  | CM_ordered -> "ordered"
  | CM_journaled -> "journaled"

let crash_mode_of_label = function
  | "writeback" -> Some CM_writeback
  | "ordered" -> Some CM_ordered
  | "journaled" -> Some CM_journaled
  | _ -> None

let crash_mode_index = function
  | CM_writeback -> 0
  | CM_ordered -> 1
  | CM_journaled -> 2

let compare_crash_mode a b = Stdlib.compare (crash_mode_index a) (crash_mode_index b)

type crash_outcome = C_recovered | C_torn | C_lost | C_stale | C_errno

let all_crash_outcomes = [ C_recovered; C_torn; C_lost; C_stale; C_errno ]

let crash_outcome_label = function
  | C_recovered -> "recovered"
  | C_torn -> "torn"
  | C_lost -> "lost"
  | C_stale -> "stale"
  | C_errno -> "errno-on-reopen"

let crash_outcome_of_label = function
  | "recovered" -> Some C_recovered
  | "torn" -> Some C_torn
  | "lost" -> Some C_lost
  | "stale" -> Some C_stale
  | "errno-on-reopen" -> Some C_errno
  | _ -> None

let crash_outcome_index = function
  | C_recovered -> 0
  | C_torn -> 1
  | C_lost -> 2
  | C_stale -> 3
  | C_errno -> 4

let compare_crash_outcome a b =
  Stdlib.compare (crash_outcome_index a) (crash_outcome_index b)
