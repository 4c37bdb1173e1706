(* The list-building partition classifier and the string-keyed consumers
   that used it: the differential oracles for [Plan]'s integer cell IDs.

   [of_call]/[output_of] classify a call and an outcome into
   (argument, partition) pairs and output partitions by pattern
   matching on the model, never by the plan's slot arithmetic, so
   test_dense can check [Plan.iter_input_slots]/[Plan.output_cell]
   against them call by call.  [Novelty] and [greedy] are the fuzzer's
   feedback and test-suite reduction as they were keyed before plan
   cell IDs: a string per partition ("write.count/2^12") in a string
   [Hashtbl].  A property checks that the bit-set versions in lib/
   make the same decisions. *)

open Iocov_syscall
module Log2 = Iocov_util.Log2
module Partition = Iocov_core.Partition
module Arg_class = Iocov_core.Arg_class
module Coverage = Iocov_core.Coverage
module Reduction = Iocov_core.Reduction
module Fuzzer = Iocov_suites.Fuzzer

(* --- the classifier --- *)

let mode_partitions mode =
  match Mode.decompose mode with
  | [] -> [ Partition.P_mode_zero ]
  | bits -> List.map (fun b -> Partition.P_mode_bit b) bits

let bucket n = Partition.P_bucket (Log2.bucket_of_int n)

(* Every (argument, partition) pair one call exercises.  A bitmap
   argument contributes one pair per set flag; other argument classes
   exactly one pair.  A [pread64] feeds the same [Read_count] and
   [Read_offset] partitions as a [read]. *)
let of_call call =
  let open Arg_class in
  match (call : Model.call) with
  | Model.Open_call { flags; mode; _ } ->
    let flag_parts =
      List.map (fun f -> (Open_flags_arg, Partition.P_flag f)) (Open_flags.decompose flags)
    in
    let mode_parts =
      (* mode is only an input when the call can create *)
      if Open_flags.has flags Open_flags.O_CREAT || Open_flags.has flags Open_flags.O_TMPFILE
      then List.map (fun p -> (Open_mode, p)) (mode_partitions mode)
      else []
    in
    flag_parts @ mode_parts
  | Model.Read_call { count; offset; _ } ->
    ((Read_count, bucket count)
     :: (match offset with Some off -> [ (Read_offset, bucket off) ] | None -> []))
  | Model.Write_call { count; offset; _ } ->
    ((Write_count, bucket count)
     :: (match offset with Some off -> [ (Write_offset, bucket off) ] | None -> []))
  | Model.Lseek_call { offset; whence; _ } ->
    [ (Lseek_offset, bucket offset); (Lseek_whence, Partition.P_whence whence) ]
  | Model.Truncate_call { length; _ } -> [ (Truncate_length, bucket length) ]
  | Model.Mkdir_call { mode; _ } ->
    List.map (fun p -> (Mkdir_mode, p)) (mode_partitions mode)
  | Model.Chmod_call { mode; _ } ->
    List.map (fun p -> (Chmod_mode, p)) (mode_partitions mode)
  | Model.Close_call _ | Model.Chdir_call _ -> []
  | Model.Setxattr_call { size; flags; _ } ->
    [ (Setxattr_size, bucket size); (Setxattr_flags, Partition.P_xflag flags) ]
  | Model.Getxattr_call { size; _ } -> [ (Getxattr_size, bucket size) ]

(* Partition one outcome: byte-count syscalls bucket their return,
   everything else collapses to [Partition.O_ok]. *)
let output_of base outcome =
  match (outcome : Model.outcome) with
  | Model.Err e -> Partition.O_err e
  | Model.Ret n ->
    if not (Model.returns_byte_count base) then Partition.O_ok
    else if n = 0 then Partition.O_ok_zero
    else Partition.O_ok_bucket (Log2.floor_log2 (max 1 n))

(* --- string-keyed fuzzer feedback --- *)

module Novelty = struct
  type t = {
    feedback : Fuzzer.feedback;
    seen : (string, unit) Hashtbl.t;
  }

  let create feedback = { feedback; seen = Hashtbl.create 256 }

  let outcome_class outcome =
    match (outcome : Model.outcome) with
    | Model.Ret _ -> "ok"
    | Model.Err e -> Errno.to_string e

  let keys t (call, outcome) =
    match t.feedback with
    | Fuzzer.Outcome_novelty ->
      [ Model.variant_name (Model.variant_of_call call) ^ "/" ^ outcome_class outcome ]
    | Fuzzer.Partition_novelty ->
      List.map
        (fun (arg, part) -> Arg_class.name arg ^ "/" ^ Partition.label part)
        (of_call call)
      @ [ Model.base_name (Model.base_of_call call) ^ "/"
          ^ Partition.output_token (output_of (Model.base_of_call call) outcome) ]

  (* Marks every key of every observation; true when any was new. *)
  let interesting t observations =
    List.fold_left
      (fun acc obs ->
        List.fold_left
          (fun acc key ->
            if Hashtbl.mem t.seen key then acc
            else begin
              Hashtbl.add t.seen key ();
              true
            end)
          acc (keys t obs))
      false observations
end

(* --- string-keyed test-suite reduction --- *)

let partition_set cov =
  let set = Hashtbl.create 64 in
  List.iter
    (fun arg ->
      List.iter
        (fun (part, n) ->
          if n > 0 then
            Hashtbl.replace set (Arg_class.name arg ^ "/" ^ Partition.label part) ())
        (Coverage.input_histogram cov arg))
    Arg_class.all;
  List.iter
    (fun base ->
      List.iter
        (fun (out, n) ->
          if n > 0 && Partition.output_is_error out then
            Hashtbl.replace set (Model.base_name base ^ "/" ^ Partition.output_token out) ())
        (Coverage.output_histogram cov base))
    Model.all_bases;
  set

(* Greedy set cover over string keys, dropping a chosen test from the
   candidates by name: only sound when names are distinct. *)
let greedy (items : Reduction.item list) =
  let sets =
    List.map (fun (item : Reduction.item) -> (item.name, partition_set item.coverage)) items
  in
  let goal = Hashtbl.create 256 in
  List.iter (fun (_, set) -> Hashtbl.iter (fun k () -> Hashtbl.replace goal k ()) set) sets;
  let covered = Hashtbl.create 256 in
  let remaining = ref sets in
  let chosen = ref [] in
  let continue = ref true in
  while !continue do
    let gain_of set =
      Hashtbl.fold (fun k () acc -> if Hashtbl.mem covered k then acc else acc + 1) set 0
    in
    let best =
      List.fold_left
        (fun best (name, set) ->
          let gain = gain_of set in
          match best with
          | Some (_, _, best_gain) when best_gain >= gain -> best
          | _ when gain = 0 -> best
          | _ -> Some (name, set, gain))
        None !remaining
    in
    match best with
    | None -> continue := false
    | Some (name, set, _) ->
      Hashtbl.iter (fun k () -> Hashtbl.replace covered k ()) set;
      chosen := name :: !chosen;
      remaining := List.filter (fun (n, _) -> n <> name) !remaining
  done;
  (List.rev !chosen, Hashtbl.length covered, Hashtbl.length goal)
