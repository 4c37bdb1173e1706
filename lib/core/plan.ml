(* The compiled partition plan.

   IOCov's partition universe is finite and statically known: every
   input cell is an (argument, partition) pair drawn from the syscall
   model, every output cell a (base, output-partition) pair, plus one
   cell per syscall variant.  This module enumerates that universe once
   at load time, interns each cell to a dense integer ID, and provides
   table-free mappings from a decoded call/outcome to its cell IDs —
   pure integer arithmetic, no hashing, no allocation.  [Coverage.Dense]
   counts into a flat array indexed by these IDs; [cells] is the inverse
   mapping used to rebuild a reference accumulator losslessly.

   Layout (ascending IDs):

     [0, inputs_off)             one cell per syscall variant
     [inputs_off, outputs_off)   input cells, grouped by argument
     [outputs_off, crash_off)    output cells, [per_base_outputs] per base
     [crash_off, total)          post-crash cells, one per (mode, outcome)

   Numeric arguments get the full 65-bucket strip (negative, zero,
   2^0..2^62) rather than their report-domain width: an observed
   partition need not be a domain member (a 2^40-byte write is counted
   even though Figure 3's axis stops at 2^32), and the dense path must
   be lossless against the reference accumulator. *)

open Iocov_syscall
module Log2 = Iocov_util.Log2

type cell =
  | Cell_variant of Model.variant
  | Cell_input of Arg_class.arg * Partition.t
  | Cell_output of Model.base * Partition.output
  | Cell_crash of Partition.crash_mode * Partition.crash_outcome

(* --- layout --- *)

let numeric_cells = 65 (* Negative, Zero, Pow2 0..62 *)

let arg_cells arg =
  match Arg_class.cls_of arg with
  | Arg_class.Bitmap ->
    (match arg with
     | Arg_class.Open_flags_arg -> Open_flags.flag_count
     | _ -> 1 + Mode.bit_count (* P_mode_zero, then one cell per bit *))
  | Arg_class.Numeric -> numeric_cells
  | Arg_class.Categorical ->
    (match arg with
     | Arg_class.Lseek_whence -> List.length Whence.all
     | _ -> List.length Xattr_flag.all)
  | Arg_class.Identifier -> 0

let variants_off = 0
let inputs_off = Model.variant_count

let input_off, outputs_off =
  let a = Array.make Arg_class.count 0 in
  let off = ref inputs_off in
  List.iter
    (fun arg ->
      a.(Arg_class.index arg) <- !off;
      off := !off + arg_cells arg)
    Arg_class.all;
  (a, !off)

(* Within a base's output block: O_ok, O_ok_zero, 63 success buckets,
   then one cell per errno (declaration order). *)
let ok_slot = 0
let ok_zero_slot = 1
let bucket0_slot = 2
let err0_slot = bucket0_slot + 63
let per_base_outputs = err0_slot + Errno.count

let crash_off = outputs_off + (Model.base_count * per_base_outputs)
let crash_mode_count = List.length Partition.all_crash_modes
let crash_outcome_count = List.length Partition.all_crash_outcomes
let total = crash_off + (crash_mode_count * crash_outcome_count)

let arg_offset arg = input_off.(Arg_class.index arg)
let base_offset base = outputs_off + (Model.base_index base * per_base_outputs)

let crash_cell mode outcome =
  crash_off
  + (Partition.crash_mode_index mode * crash_outcome_count)
  + Partition.crash_outcome_index outcome

(* --- input-side compilation --- *)

(* Flag bit patterns resolved once from the model, so the fast path
   below cannot drift from [Open_flags.bit]. *)
let b_creat = Open_flags.bit Open_flags.O_CREAT
let b_dsync = Open_flags.bit Open_flags.O_DSYNC
let b_sync = Open_flags.bit Open_flags.O_SYNC
let b_directory = Open_flags.bit Open_flags.O_DIRECTORY
let b_tmpfile = Open_flags.bit Open_flags.O_TMPFILE

let open_flags_off = arg_offset Arg_class.Open_flags_arg
let open_mode_off = arg_offset Arg_class.Open_mode
let read_count_off = arg_offset Arg_class.Read_count
let read_offset_off = arg_offset Arg_class.Read_offset
let write_count_off = arg_offset Arg_class.Write_count
let write_offset_off = arg_offset Arg_class.Write_offset
let lseek_offset_off = arg_offset Arg_class.Lseek_offset
let lseek_whence_off = arg_offset Arg_class.Lseek_whence
let truncate_length_off = arg_offset Arg_class.Truncate_length
let mkdir_mode_off = arg_offset Arg_class.Mkdir_mode
let chmod_mode_off = arg_offset Arg_class.Chmod_mode
let setxattr_size_off = arg_offset Arg_class.Setxattr_size
let setxattr_flags_off = arg_offset Arg_class.Setxattr_flags
let getxattr_size_off = arg_offset Arg_class.Getxattr_size

let flag_slot f = open_flags_off + Open_flags.flag_index f
let slot_rdonly = flag_slot Open_flags.O_RDONLY
let slot_wronly = flag_slot Open_flags.O_WRONLY
let slot_rdwr = flag_slot Open_flags.O_RDWR
let slot_dsync = flag_slot Open_flags.O_DSYNC
let slot_sync = flag_slot Open_flags.O_SYNC
let slot_directory = flag_slot Open_flags.O_DIRECTORY
let slot_tmpfile = flag_slot Open_flags.O_TMPFILE

(* The "plain" flags: single-bit, no normalization.  Access modes, the
   sync pair (O_SYNC subsumes O_DSYNC, O_RSYNC aliases O_SYNC), and the
   tmpfile pair (O_TMPFILE subsumes O_DIRECTORY) are handled explicitly
   in [iter_open_flag_slots], mirroring [Open_flags.decompose]. *)
let plain_bits, plain_slots =
  let plain =
    List.filter
      (fun f ->
        match (f : Open_flags.flag) with
        | Open_flags.O_RDONLY | Open_flags.O_WRONLY | Open_flags.O_RDWR
        | Open_flags.O_DSYNC | Open_flags.O_SYNC | Open_flags.O_RSYNC
        | Open_flags.O_DIRECTORY | Open_flags.O_TMPFILE -> false
        | _ -> true)
      Open_flags.all
  in
  ( Array.of_list (List.map Open_flags.bit plain),
    Array.of_list (List.map flag_slot plain) )

let iter_open_flag_slots flags f =
  f (match flags land 3 with 0 -> slot_rdonly | 1 -> slot_wronly | _ -> slot_rdwr);
  for i = 0 to Array.length plain_bits - 1 do
    if flags land Array.unsafe_get plain_bits i <> 0 then
      f (Array.unsafe_get plain_slots i)
  done;
  if flags land b_sync = b_sync then f slot_sync
  else if flags land b_dsync <> 0 then f slot_dsync;
  if flags land b_tmpfile = b_tmpfile then f slot_tmpfile
  else if flags land b_directory <> 0 then f slot_directory

let mode_masks = Array.of_list (List.map Mode.mask Mode.all_bits)
let mode_any = Array.fold_left ( lor ) 0 mode_masks

let iter_mode_slots off mode f =
  if mode land mode_any = 0 then f off (* P_mode_zero *)
  else
    for i = 0 to Mode.bit_count - 1 do
      if mode land Array.unsafe_get mode_masks i <> 0 then f (off + 1 + i)
    done

(* [Log2.bucket_of_int] as a slot offset: 0 = negative, 1 = zero,
   2 + k = bucket 2^k. *)
let bucket_slot n =
  if n < 0 then 0 else if n = 0 then 1 else 2 + Log2.floor_log2 n

let variant_cell v = variants_off + Model.variant_index v

(* --- raw-field observation ---

   Slot mappings keyed on wire-level field values (bitmask ints,
   categorical codes, errno indices) rather than a built [Model.call]:
   what a fused decoder bumps straight out of the byte stream.
   [iter_input_slots] and [output_cell] below are defined on top of
   these, so the two observation paths cannot drift. *)

let iter_open_slots ~flags ~mode f =
  iter_open_flag_slots flags f;
  (* mode is an input only when the call can create — O_CREAT set, or
     the full O_TMPFILE pattern (matching [Open_flags.has]) *)
  if flags land b_creat <> 0 || flags land b_tmpfile = b_tmpfile then
    iter_mode_slots open_mode_off mode f

let read_count_slot count = read_count_off + bucket_slot count
let read_offset_slot off = read_offset_off + bucket_slot off
let write_count_slot count = write_count_off + bucket_slot count
let write_offset_slot off = write_offset_off + bucket_slot off
let lseek_offset_slot off = lseek_offset_off + bucket_slot off
let lseek_whence_slot code = lseek_whence_off + code
let truncate_length_slot len = truncate_length_off + bucket_slot len
let iter_mkdir_mode_slots mode f = iter_mode_slots mkdir_mode_off mode f
let iter_chmod_mode_slots mode f = iter_mode_slots chmod_mode_off mode f
let setxattr_size_slot size = setxattr_size_off + bucket_slot size
let setxattr_flag_slot code = setxattr_flags_off + code
let getxattr_size_slot size = getxattr_size_off + bucket_slot size

let iter_input_slots call f =
  match (call : Model.call) with
  | Model.Open_call { flags; mode; _ } -> iter_open_slots ~flags ~mode f
  | Model.Read_call { count; offset; _ } ->
    f (read_count_slot count);
    (match offset with Some off -> f (read_offset_slot off) | None -> ())
  | Model.Write_call { count; offset; _ } ->
    f (write_count_slot count);
    (match offset with Some off -> f (write_offset_slot off) | None -> ())
  | Model.Lseek_call { offset; whence; _ } ->
    f (lseek_offset_slot offset);
    f (lseek_whence_slot (Whence.to_code whence))
  | Model.Truncate_call { length; _ } -> f (truncate_length_slot length)
  | Model.Mkdir_call { mode; _ } -> iter_mkdir_mode_slots mode f
  | Model.Chmod_call { mode; _ } -> iter_chmod_mode_slots mode f
  | Model.Close_call _ | Model.Chdir_call _ -> ()
  | Model.Setxattr_call { size; flags; _ } ->
    f (setxattr_size_slot size);
    f (setxattr_flag_slot (Xattr_flag.to_code flags))
  | Model.Getxattr_call { size; _ } -> f (getxattr_size_slot size)

(* --- output-side compilation --- *)

let ret_output_cell base n =
  let off = base_offset base in
  if not (Model.returns_byte_count base) then off + ok_slot
  else if n = 0 then off + ok_zero_slot
  else off + bucket0_slot + Log2.floor_log2 (max 1 n)

(* [errno_index] is {!Errno.index} — also the errno's wire index in the
   binary trace format. *)
let err_output_cell base errno_index = base_offset base + err0_slot + errno_index

let output_cell base outcome =
  match (outcome : Model.outcome) with
  | Model.Err e -> err_output_cell base (Errno.index e)
  | Model.Ret n -> ret_output_cell base n

(* --- the inverse mapping --- *)

let cells =
  let a = Array.make total (Cell_variant Model.Sys_open) in
  List.iter (fun v -> a.(variant_cell v) <- Cell_variant v) Model.all_variants;
  List.iter
    (fun arg ->
      let off = arg_offset arg in
      match Arg_class.cls_of arg with
      | Arg_class.Bitmap ->
        (match arg with
         | Arg_class.Open_flags_arg ->
           List.iter
             (fun fl -> a.(flag_slot fl) <- Cell_input (arg, Partition.P_flag fl))
             Open_flags.all
         | _ ->
           a.(off) <- Cell_input (arg, Partition.P_mode_zero);
           List.iter
             (fun b ->
               a.(off + 1 + Mode.bit_index b) <- Cell_input (arg, Partition.P_mode_bit b))
             Mode.all_bits)
      | Arg_class.Numeric ->
        a.(off) <- Cell_input (arg, Partition.P_bucket Log2.Negative);
        a.(off + 1) <- Cell_input (arg, Partition.P_bucket Log2.Zero);
        for k = 0 to 62 do
          a.(off + 2 + k) <- Cell_input (arg, Partition.P_bucket (Log2.Pow2 k))
        done
      | Arg_class.Categorical ->
        (match arg with
         | Arg_class.Lseek_whence ->
           List.iter
             (fun w -> a.(off + Whence.to_code w) <- Cell_input (arg, Partition.P_whence w))
             Whence.all
         | _ ->
           List.iter
             (fun x ->
               a.(off + Xattr_flag.to_code x) <- Cell_input (arg, Partition.P_xflag x))
             Xattr_flag.all)
      | Arg_class.Identifier -> ())
    Arg_class.all;
  List.iter
    (fun base ->
      let off = base_offset base in
      a.(off + ok_slot) <- Cell_output (base, Partition.O_ok);
      a.(off + ok_zero_slot) <- Cell_output (base, Partition.O_ok_zero);
      for k = 0 to 62 do
        a.(off + bucket0_slot + k) <- Cell_output (base, Partition.O_ok_bucket k)
      done;
      List.iter
        (fun e -> a.(off + err0_slot + Errno.index e) <- Cell_output (base, Partition.O_err e))
        Errno.all)
    Model.all_bases;
  List.iter
    (fun mode ->
      List.iter
        (fun outcome -> a.(crash_cell mode outcome) <- Cell_crash (mode, outcome))
        Partition.all_crash_outcomes)
    Partition.all_crash_modes;
  a
