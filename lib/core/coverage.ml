open Iocov_syscall
module Metrics = Iocov_obs.Metrics

let m_calls =
  Metrics.counter Metrics.default "iocov_coverage_calls_total"
    ~help:"Syscalls observed by the coverage accumulator."

let m_update kind =
  Metrics.counter Metrics.default "iocov_coverage_updates_total"
    ~labels:[ ("table", kind) ]
    ~help:"Partition-table updates by table kind."

let m_input_updates = m_update "input"
let m_output_updates = m_update "output"
let m_variant_updates = m_update "variant"
let m_flag_set_updates = m_update "flag_set"

type t = {
  counts : int array; (* one counter per Plan cell ID *)
  bump : int -> unit; (* pre-bound [counts] incrementer, so the hot path
                         passes one closure with no per-call allocation *)
  flag_sets : (int, int ref) Hashtbl.t; (* exact open masks: unbounded key
                                           space, stays a table *)
  mutable calls : int;
}

let make counts flag_sets calls =
  let bump id = counts.(id) <- counts.(id) + 1 in
  { counts; bump; flag_sets; calls }

let create ?metered:_ () = make (Array.make Plan.total 0) (Hashtbl.create 64) 0

(* --- observation --- *)

let bumper t = t.bump
let counts t = t.counts
let count_call t = t.calls <- t.calls + 1

let observe_open_mask t flags =
  match Hashtbl.find t.flag_sets flags with
  | r -> incr r
  | exception Not_found -> Hashtbl.add t.flag_sets flags (ref 1)

let observe_input_only t call =
  count_call t;
  t.bump (Plan.variant_cell (Model.variant_of_call call));
  Plan.iter_input_slots call t.bump;
  match call with
  | Model.Open_call { flags; _ } -> observe_open_mask t flags
  | _ -> ()

let observe t call outcome =
  observe_input_only t call;
  t.bump (Plan.output_cell (Model.base_of_call call) outcome)

let add_flag_set t mask count =
  if count < 0 then invalid_arg "Coverage.add_flag_set: negative count";
  if count > 0 then
    match Hashtbl.find t.flag_sets mask with
    | r -> r := !r + count
    | exception Not_found -> Hashtbl.add t.flag_sets mask (ref count)

(* [src] may be [dst]: doubling adds no key, so iterating the table
   while bumping its refs is safe. *)
let merge_into ~dst src =
  dst.calls <- dst.calls + src.calls;
  let d = dst.counts and s = src.counts in
  for i = 0 to Array.length d - 1 do
    d.(i) <- d.(i) + s.(i)
  done;
  Hashtbl.iter (fun mask r -> add_flag_set dst mask !r) src.flag_sets

let copy t =
  let flag_sets = Hashtbl.create (max 16 (Hashtbl.length t.flag_sets)) in
  Hashtbl.iter (fun mask r -> Hashtbl.add flag_sets mask (ref !r)) t.flag_sets;
  make (Array.copy t.counts) flag_sets t.calls

let reset t =
  Array.fill t.counts 0 Plan.total 0;
  Hashtbl.reset t.flag_sets;
  t.calls <- 0

(* --- plan ranges --- *)

let sum_range t lo hi =
  let s = ref 0 in
  for id = lo to hi - 1 do
    s := !s + t.counts.(id)
  done;
  !s

let lit_range t lo hi =
  let n = ref 0 in
  for id = lo to hi - 1 do
    if t.counts.(id) > 0 then incr n
  done;
  !n

let flag_set_total t = Hashtbl.fold (fun _ r acc -> acc + !r) t.flag_sets 0

(* Every [observe] bumps one variant cell, one cell per input partition,
   one output cell and at most one flag set, so the counts are exactly
   the increments per-update metering would have made. *)
let meter_counts t =
  Metrics.Counter.add m_calls t.calls;
  Metrics.Counter.add m_variant_updates (sum_range t 0 Plan.inputs_off);
  Metrics.Counter.add m_flag_set_updates (flag_set_total t);
  Metrics.Counter.add m_input_updates (sum_range t Plan.inputs_off Plan.outputs_off);
  Metrics.Counter.add m_output_updates (sum_range t Plan.outputs_off Plan.crash_off)

(* Table sizes are per-accumulator, so they are published on demand for
   one chosen instance (the run's accumulator) rather than streamed —
   several coverage objects can live at once (per-test attribution,
   ablations) and streaming would mix them. *)
let publish_gauges t =
  let g name help =
    Metrics.gauge Metrics.default ("iocov_coverage_" ^ name) ~help
  in
  let lit_blocks blocks =
    List.length (List.filter (fun (off, n) -> lit_range t off (off + n) > 0) blocks)
  in
  Metrics.Gauge.set (g "input_tables" "Tracked arguments with observations.")
    (lit_blocks (List.map (fun a -> (Plan.arg_offset a, Plan.arg_cells a)) Arg_class.all));
  Metrics.Gauge.set (g "output_tables" "Base syscalls with observed outputs.")
    (lit_blocks
       (List.map (fun b -> (Plan.base_offset b, Plan.per_base_outputs)) Model.all_bases));
  Metrics.Gauge.set
    (g "distinct_input_partitions" "Distinct input partitions hit, all arguments.")
    (lit_range t Plan.inputs_off Plan.outputs_off);
  Metrics.Gauge.set
    (g "distinct_output_partitions" "Distinct output partitions hit, all bases.")
    (lit_range t Plan.outputs_off Plan.crash_off);
  Metrics.Gauge.set (g "distinct_variants" "Distinct syscall variants observed.")
    (lit_range t 0 Plan.inputs_off);
  Metrics.Gauge.set (g "distinct_flag_sets" "Distinct exact open-flag sets observed.")
    (Hashtbl.length t.flag_sets)

(* --- input side --- *)

let input_count t arg part =
  match Plan.input_cell arg part with Some id -> t.counts.(id) | None -> 0

let input_part id =
  match Plan.cells.(id) with
  | Plan.Cell_input (_, part) -> part
  | _ -> invalid_arg "Coverage: not an input cell"

(* Observed cells of an argument in [Partition.compare] order, built
   back to front.  That is the plan's order except for a mode argument,
   whose plan block starts with MODE_0000 while [Partition.compare]
   ranks every mode bit first. *)
let input_histogram t arg =
  let off = Plan.arg_offset arg and n = Plan.arg_cells arg in
  let acc = ref [] in
  let push id =
    let c = t.counts.(id) in
    if c > 0 then acc := (input_part id, c) :: !acc
  in
  let zero_first =
    n > 0
    && match Plan.cells.(off) with
       | Plan.Cell_input (_, Partition.P_mode_zero) -> true
       | _ -> false
  in
  if zero_first then push off;
  for id = off + n - 1 downto (if zero_first then off + 1 else off) do
    push id
  done;
  !acc

let input_series t arg =
  List.map (fun p -> (p, input_count t arg p)) (Partition.domain arg)

let untested_inputs t arg =
  List.filter (fun p -> input_count t arg p = 0) (Partition.domain arg)

let covered_ratio ~count dom =
  let covered = List.length (List.filter (fun p -> count p > 0) dom) in
  float_of_int covered /. float_of_int (List.length dom)

let input_coverage_ratio t arg =
  covered_ratio ~count:(input_count t arg) (Partition.domain arg)

let input_coverage_ratio_of_base t base =
  match Arg_class.args_of_base base with
  | [] -> 1.0
  | args ->
    let sum = List.fold_left (fun acc a -> acc +. input_coverage_ratio t a) 0.0 args in
    sum /. float_of_int (List.length args)

(* --- output side --- *)

let output_count t base out =
  match Plan.output_partition_cell base out with Some id -> t.counts.(id) | None -> 0

let output_part id =
  match Plan.cells.(id) with
  | Plan.Cell_output (_, out) -> out
  | _ -> invalid_arg "Coverage: not an output cell"

(* Errno indices in kernel-code order ([Errno.to_code]), the order
   [Partition.compare_output] gives errors; the plan lays them out by
   declaration index.  Built on first use, so a program that never
   renders a snapshot does not carry it. *)
let errnos_by_code =
  lazy
    (Errno.all
     |> List.sort (fun a b -> Int.compare (Errno.to_code a) (Errno.to_code b))
     |> List.map Errno.index
     |> Array.of_list)

(* Observed cells of a base in [Partition.compare_output] order, built
   back to front: errors by kernel code, then the success cells, which
   the plan already lays out in order. *)
let output_histogram t base =
  let off = Plan.base_offset base in
  let acc = ref [] in
  let push id =
    let c = t.counts.(id) in
    if c > 0 then acc := (output_part id, c) :: !acc
  in
  let by_code = Lazy.force errnos_by_code in
  for i = Array.length by_code - 1 downto 0 do
    push (off + Plan.err0_slot + by_code.(i))
  done;
  for id = off + Plan.err0_slot - 1 downto off do
    push id
  done;
  !acc

let output_series t base =
  let dom = Partition.output_domain base in
  let in_domain = List.map (fun o -> (o, output_count t base o)) dom in
  let extras =
    List.filter
      (fun (o, _) -> not (List.exists (Partition.equal_output o) dom))
      (output_histogram t base)
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
  List.filter (fun o -> output_count t base o = 0) (Partition.output_domain base)

let output_coverage_ratio t base =
  covered_ratio ~count:(output_count t base) (Partition.output_domain base)

(* --- call accounting --- *)

let calls_observed t = t.calls
let variant_calls t v = t.counts.(Plan.variant_cell v)

let base_calls t base =
  List.fold_left (fun acc v -> acc + variant_calls t v) 0 (Model.variants_of_base base)

let open_flag_sets t =
  Hashtbl.fold (fun mask r acc -> (mask, !r) :: acc) t.flag_sets []
  |> List.sort (fun (a, _) (b, _) -> Int.compare a b)

(* Variant cells are laid out by [Model.variant_index], which is
   [Model.compare_variant]'s order. *)
let variant_histogram t =
  List.filter_map
    (fun v ->
      let n = variant_calls t v in
      if n > 0 then Some (v, n) else None)
    Model.all_variants

(* --- raw counter injection --- *)

let add_cell name t id count =
  if count < 0 then invalid_arg ("Coverage." ^ name ^ ": negative count");
  t.counts.(id) <- t.counts.(id) + count

let add_input t arg part count =
  match Plan.input_cell arg part with
  | Some id -> add_cell "add_input" t id count
  | None -> invalid_arg "Coverage.add_input: no such cell in the plan"

let add_output t base out count =
  match Plan.output_partition_cell base out with
  | Some id -> add_cell "add_output" t id count
  | None -> invalid_arg "Coverage.add_output: no such cell in the plan"

let add_variant t v count = add_cell "add_variant" t (Plan.variant_cell v) count

let add_calls t n =
  if n < 0 then invalid_arg "Coverage.add_calls: negative";
  t.calls <- t.calls + n

(* --- post-crash outcomes (DESIGN.md §17) --- *)

let add_crash t mode outcome count =
  add_cell "add_crash" t (Plan.crash_cell mode outcome) count

let crash_count t mode outcome = t.counts.(Plan.crash_cell mode outcome)
let crash_observed t = sum_range t Plan.crash_off Plan.total

let crash_series t =
  List.concat_map
    (fun mode ->
      List.map
        (fun outcome -> ((mode, outcome), crash_count t mode outcome))
        Partition.all_crash_outcomes)
    Partition.all_crash_modes

(* --- cell summaries (flight recorder / run ledger) --- *)

let cell_count t id = t.counts.(id)

(* Crash cells live on the output side of the universe; the
   three-bucket ledger shape stays stable. *)
let lit_cells t =
  ( lit_range t 0 Plan.inputs_off,
    lit_range t Plan.inputs_off Plan.outputs_off,
    lit_range t Plan.outputs_off Plan.total )

let cell_bitmap t =
  let bitmap = Iocov_util.Bitset.create Plan.total in
  Array.iteri (fun id n -> if n > 0 then Iocov_util.Bitset.add bitmap id) t.counts;
  bitmap

(* --- compatibility shim (benchmark harness only) --- *)

module Dense = struct
  type nonrec t = t

  let create () = create ()
  let merge_into = merge_into
  let reset = reset
  let snapshot = copy
  let to_reference t = t
end
