(* The hashed-histogram coverage accumulator: the differential oracle
   for the plan-indexed [Coverage.t].

   Input counts live in one histogram per argument and output counts in
   one per base syscall, keyed by partition values and sorted by
   [Partition.compare]/[compare_output] on the way out.  It classifies
   calls with [Partition_oracle.of_call]/[output_of], never with the plan's
   slot arithmetic, and renders snapshot text with its own emitter.  A
   mistake in the plan-range queries (say, a missed order exception)
   therefore cannot show up on both sides of a comparison. *)

open Iocov_syscall
module Partition = Iocov_core.Partition
module Arg_class = Iocov_core.Arg_class
module Plan = Iocov_core.Plan

type t = {
  inputs : (Arg_class.arg, Partition.t Histogram.t) Hashtbl.t;
  outputs : (Model.base, Partition.output Histogram.t) Hashtbl.t;
  variants : Model.variant Histogram.t;
  flag_sets : Open_flags.t Histogram.t;
  crash : (Partition.crash_mode * Partition.crash_outcome) Histogram.t;
  mutable calls : int;
}

let compare_crash_key (m1, o1) (m2, o2) =
  match Partition.compare_crash_mode m1 m2 with
  | 0 -> Partition.compare_crash_outcome o1 o2
  | c -> c

let create () =
  {
    inputs = Hashtbl.create 16;
    outputs = Hashtbl.create 16;
    variants = Histogram.create ~compare:Model.compare_variant;
    flag_sets = Histogram.create ~compare:Int.compare;
    crash = Histogram.create ~compare:compare_crash_key;
    calls = 0;
  }

let input_hist t arg =
  match Hashtbl.find_opt t.inputs arg with
  | Some h -> h
  | None ->
    let h = Histogram.create ~compare:Partition.compare in
    Hashtbl.add t.inputs arg h;
    h

let output_hist t base =
  match Hashtbl.find_opt t.outputs base with
  | Some h -> h
  | None ->
    let h = Histogram.create ~compare:Partition.compare_output in
    Hashtbl.add t.outputs base h;
    h

let observe_input_only t call =
  t.calls <- t.calls + 1;
  Histogram.add t.variants (Model.variant_of_call call);
  List.iter
    (fun (arg, part) -> Histogram.add (input_hist t arg) part)
    (Partition_oracle.of_call call);
  match call with
  | Model.Open_call { flags; _ } -> Histogram.add t.flag_sets flags
  | _ -> ()

let observe t call outcome =
  observe_input_only t call;
  let base = Model.base_of_call call in
  Histogram.add (output_hist t base) (Partition_oracle.output_of base outcome)

let merge_into ~dst src =
  dst.calls <- dst.calls + src.calls;
  Histogram.merge_into ~dst:dst.variants src.variants;
  Histogram.merge_into ~dst:dst.flag_sets src.flag_sets;
  Histogram.merge_into ~dst:dst.crash src.crash;
  Hashtbl.iter (fun arg h -> Histogram.merge_into ~dst:(input_hist dst arg) h) src.inputs;
  Hashtbl.iter (fun base h -> Histogram.merge_into ~dst:(output_hist dst base) h) src.outputs

(* --- input side --- *)

let input_count t arg part = Histogram.count (input_hist t arg) part
let input_histogram t arg = Histogram.to_sorted (input_hist t arg)

let input_series t arg =
  let h = input_hist t arg in
  List.map (fun p -> (p, Histogram.count h p)) (Partition.domain arg)

let untested_inputs t arg =
  let h = input_hist t arg in
  List.filter (fun p -> not (Histogram.mem h p)) (Partition.domain arg)

let input_coverage_ratio t arg =
  let dom = Partition.domain arg in
  let h = input_hist t arg in
  let covered = List.length (List.filter (Histogram.mem h) dom) in
  float_of_int covered /. float_of_int (List.length dom)

let input_coverage_ratio_of_base t base =
  match Arg_class.args_of_base base with
  | [] -> 1.0
  | args ->
    let sum = List.fold_left (fun acc a -> acc +. input_coverage_ratio t a) 0.0 args in
    sum /. float_of_int (List.length args)

(* --- output side --- *)

let output_count t base out = Histogram.count (output_hist t base) out
let output_histogram t base = Histogram.to_sorted (output_hist t base)

let output_series t base =
  let h = output_hist t base in
  let dom = Partition.output_domain base in
  let in_domain = List.map (fun o -> (o, Histogram.count h o)) dom in
  let extras =
    List.filter
      (fun (o, _) -> not (List.exists (Partition.equal_output o) dom))
      (Histogram.to_sorted h)
  in
  in_domain @ extras

let output_series_grouped t base =
  let series = output_series t base in
  let ok_total =
    List.fold_left
      (fun acc (o, n) ->
        match Partition.output_success_group o with `Ok -> acc + n | `Err _ -> acc)
      0 series
  in
  let errs =
    List.filter_map
      (fun (o, n) ->
        match Partition.output_success_group o with
        | `Ok -> None
        | `Err e -> Some (`Err e, n))
      series
  in
  (`Ok, ok_total) :: errs

let untested_outputs t base =
  let h = output_hist t base in
  List.filter (fun o -> not (Histogram.mem h o)) (Partition.output_domain base)

let output_coverage_ratio t base =
  let dom = Partition.output_domain base in
  let h = output_hist t base in
  let covered = List.length (List.filter (Histogram.mem h) dom) in
  float_of_int covered /. float_of_int (List.length dom)

(* --- call accounting --- *)

let calls_observed t = t.calls

let base_calls t base =
  List.fold_left
    (fun acc v -> acc + Histogram.count t.variants v)
    0 (Model.variants_of_base base)

let variant_calls t v = Histogram.count t.variants v
let open_flag_sets t = Histogram.to_sorted t.flag_sets
let variant_histogram t = Histogram.to_sorted t.variants

(* --- raw counter injection --- *)

let add_input t arg part count = Histogram.add (input_hist t arg) ~count part
let add_output t base out count = Histogram.add (output_hist t base) ~count out
let add_variant t v count = Histogram.add t.variants ~count v
let add_flag_set t mask count = Histogram.add t.flag_sets ~count mask
let add_calls t n = t.calls <- t.calls + n

(* --- post-crash outcomes --- *)

let add_crash t mode outcome count = Histogram.add t.crash ~count (mode, outcome)
let crash_count t mode outcome = Histogram.count t.crash (mode, outcome)
let crash_observed t = Histogram.total t.crash

let crash_series t =
  List.concat_map
    (fun mode ->
      List.map
        (fun outcome -> ((mode, outcome), Histogram.count t.crash (mode, outcome)))
        Partition.all_crash_outcomes)
    Partition.all_crash_modes

(* --- cell summaries, keyed by the plan's cell descriptions --- *)

let cell_count t = function
  | Plan.Cell_variant v -> variant_calls t v
  | Plan.Cell_input (arg, part) -> input_count t arg part
  | Plan.Cell_output (base, out) -> output_count t base out
  | Plan.Cell_crash (mode, outcome) -> crash_count t mode outcome

let lit_cells t =
  let variants = ref 0 and inputs = ref 0 and outputs = ref 0 in
  Array.iter
    (fun cell ->
      if cell_count t cell > 0 then
        match cell with
        | Plan.Cell_variant _ -> incr variants
        | Plan.Cell_input _ -> incr inputs
        | Plan.Cell_output _ | Plan.Cell_crash _ -> incr outputs)
    Plan.cells;
  (!variants, !inputs, !outputs)

let cell_bitmap t =
  let bitmap = Bytes.make ((Plan.total + 7) / 8) '\000' in
  Array.iteri
    (fun id cell ->
      if cell_count t cell > 0 then
        Bytes.set bitmap (id / 8)
          (Char.chr (Char.code (Bytes.get bitmap (id / 8)) lor (1 lsl (id mod 8)))))
    Plan.cells;
  bitmap

(* --- snapshot text ---

   The [iocov-coverage v1] format, emitted from this accumulator's own
   histograms in their own order: what [Snapshot.to_string] must equal
   byte for byte. *)

let to_string t =
  let buf = Buffer.create 4096 in
  let put = Buffer.add_string buf in
  put "iocov-coverage v1\n";
  put (Printf.sprintf "calls %d\n" t.calls);
  List.iter
    (fun (v, n) -> put (Printf.sprintf "variant %s %d\n" (Model.variant_name v) n))
    (variant_histogram t);
  List.iter
    (fun arg ->
      List.iter
        (fun (part, n) ->
          put
            (Printf.sprintf "input %s %s %d\n" (Arg_class.name arg) (Partition.label part) n))
        (input_histogram t arg))
    Arg_class.all;
  List.iter
    (fun base ->
      List.iter
        (fun (out, n) ->
          put
            (Printf.sprintf "output %s %s %d\n" (Model.base_name base)
               (Partition.output_token out) n))
        (output_histogram t base))
    Model.all_bases;
  List.iter
    (fun ((mode, outcome), n) ->
      if n > 0 then
        put
          (Printf.sprintf "crash %s %s %d\n"
             (Partition.crash_mode_label mode)
             (Partition.crash_outcome_label outcome)
             n))
    (crash_series t);
  List.iter
    (fun (mask, n) -> put (Printf.sprintf "flagset %s %d\n" (Open_flags.to_string mask) n))
    (open_flag_sets t);
  Buffer.contents buf

(* The ledger's fingerprint of this accumulator: CRC-32 of its text. *)
let digest t =
  let s = to_string t in
  Printf.sprintf "%08x" (Iocov_util.Crc32.update 0 s ~pos:0 ~len:(String.length s))
