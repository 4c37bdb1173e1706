open Iocov_syscall
module Histogram = Iocov_util.Histogram
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
  inputs : (Arg_class.arg, Partition.t Histogram.t) Hashtbl.t;
  outputs : (Model.base, Partition.output Histogram.t) Hashtbl.t;
  variants : Model.variant Histogram.t;
  flag_sets : Open_flags.t Histogram.t;
  crash : (Partition.crash_mode * Partition.crash_outcome) Histogram.t;
  mutable calls : int;
  metered : bool;
}

let compare_crash_key (m1, o1) (m2, o2) =
  match Partition.compare_crash_mode m1 m2 with
  | 0 -> Partition.compare_crash_outcome o1 o2
  | c -> c

let create ?(metered = true) () =
  {
    inputs = Hashtbl.create 16;
    outputs = Hashtbl.create 16;
    (* Monomorphic comparators: polymorphic [Stdlib.compare] walks the
       runtime representation on every histogram sort; these compile to
       integer compares (variants order by their dense index, which
       matches declaration order). *)
    variants = Histogram.create ~compare:Model.compare_variant;
    flag_sets = Histogram.create ~compare:Int.compare;
    crash = Histogram.create ~compare:compare_crash_key;
    calls = 0;
    metered;
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

(* Shared table-update body of the observe paths.  Returns the number
   of input-table updates and whether a flag set was recorded, so the
   caller can credit metering in one batch. *)
let record_inputs t call =
  t.calls <- t.calls + 1;
  Histogram.add t.variants (Model.variant_of_call call);
  let n_inputs =
    List.fold_left
      (fun acc (arg, part) ->
        Histogram.add (input_hist t arg) part;
        acc + 1)
      0 (Partition.of_call call)
  in
  let flag_set =
    match call with
    | Model.Open_call { flags; _ } ->
      Histogram.add t.flag_sets flags;
      true
    | _ -> false
  in
  (n_inputs, flag_set)

(* Metering is hoisted out of the per-update loops: one observation
   credits all its counter increments in a single batch, with totals
   exactly equal to per-update metering (asserted in test_obs). *)
let meter_observation t ~inputs ~flag_set ~outputs =
  if t.metered then begin
    Metrics.Counter.incr m_calls;
    Metrics.Counter.incr m_variant_updates;
    if inputs > 0 then Metrics.Counter.add m_input_updates inputs;
    if flag_set then Metrics.Counter.incr m_flag_set_updates;
    if outputs > 0 then Metrics.Counter.add m_output_updates outputs
  end

let observe_input_only t call =
  let inputs, flag_set = record_inputs t call in
  meter_observation t ~inputs ~flag_set ~outputs:0

let observe t call outcome =
  let inputs, flag_set = record_inputs t call in
  let base = Model.base_of_call call in
  Histogram.add (output_hist t base) (Partition.output_of base outcome);
  meter_observation t ~inputs ~flag_set ~outputs:1

(* Table sizes are per-accumulator, so they are published on demand for
   one chosen instance (the run's accumulator) rather than streamed —
   several coverage objects can live at once (per-test attribution,
   ablations) and streaming would mix them. *)
let publish_gauges t =
  let g name help =
    Metrics.gauge Metrics.default ("iocov_coverage_" ^ name) ~help
  in
  let distinct_sum tbl =
    Hashtbl.fold (fun _ h acc -> acc + Histogram.distinct h) tbl 0
  in
  Metrics.Gauge.set (g "input_tables" "Tracked arguments with observations.")
    (Hashtbl.length t.inputs);
  Metrics.Gauge.set (g "output_tables" "Base syscalls with observed outputs.")
    (Hashtbl.length t.outputs);
  Metrics.Gauge.set
    (g "distinct_input_partitions" "Distinct input partitions hit, all arguments.")
    (distinct_sum t.inputs);
  Metrics.Gauge.set
    (g "distinct_output_partitions" "Distinct output partitions hit, all bases.")
    (distinct_sum t.outputs);
  Metrics.Gauge.set (g "distinct_variants" "Distinct syscall variants observed.")
    (Histogram.distinct t.variants);
  Metrics.Gauge.set (g "distinct_flag_sets" "Distinct exact open-flag sets observed.")
    (Histogram.distinct t.flag_sets)

let merge_into ~dst src =
  dst.calls <- dst.calls + src.calls;
  Histogram.merge_into ~dst:dst.variants src.variants;
  Histogram.merge_into ~dst:dst.flag_sets src.flag_sets;
  Histogram.merge_into ~dst:dst.crash src.crash;
  Hashtbl.iter
    (fun arg h -> Histogram.merge_into ~dst:(input_hist dst arg) h)
    src.inputs;
  Hashtbl.iter
    (fun base h -> Histogram.merge_into ~dst:(output_hist dst base) h)
    src.outputs

let copy t =
  let fresh = create ~metered:t.metered () in
  merge_into ~dst:fresh t;
  fresh

(* Credit this accumulator's counts to the global iocov_coverage_*
   counters in one batch — exactly the increments the per-event metered
   path would have made, since every [observe] adds one entry per
   touched table.  The parallel pipeline calls this once after merging
   its unmetered shards, keeping counter totals identical to a
   sequential run without per-event atomic traffic from the workers. *)
let meter_counts t =
  let table_total tbl = Hashtbl.fold (fun _ h acc -> acc + Histogram.total h) tbl 0 in
  Metrics.Counter.add m_calls t.calls;
  Metrics.Counter.add m_variant_updates (Histogram.total t.variants);
  Metrics.Counter.add m_flag_set_updates (Histogram.total t.flag_sets);
  Metrics.Counter.add m_input_updates (table_total t.inputs);
  Metrics.Counter.add m_output_updates (table_total t.outputs)

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

let output_count t base out = Histogram.count (output_hist t base) out
let output_histogram t base = Histogram.to_sorted (output_hist t base)

let output_series t base =
  let h = output_hist t base in
  let dom = Partition.output_domain base in
  let in_domain = List.map (fun o -> (o, Histogram.count h o)) dom in
  let extras =
    List.filter (fun (o, _) -> not (List.exists (Partition.equal_output o) dom))
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

let calls_observed t = t.calls

let base_calls t base =
  List.fold_left
    (fun acc v -> acc + Histogram.count t.variants v)
    0
    (Model.variants_of_base base)

let variant_calls t v = Histogram.count t.variants v
let open_flag_sets t = Histogram.to_sorted t.flag_sets
let variant_histogram t = Histogram.to_sorted t.variants

let add_input t arg part count = Histogram.add (input_hist t arg) ~count part
let add_output t base out count = Histogram.add (output_hist t base) ~count out
let add_variant t v count = Histogram.add t.variants ~count v
let add_flag_set t mask count = Histogram.add t.flag_sets ~count mask

(* --- post-crash outcomes (DESIGN.md §17) --- *)

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

let add_calls t n =
  if n < 0 then invalid_arg "Coverage.add_calls: negative";
  t.calls <- t.calls + n

(* --- dense counters --- *)

module Dense = struct
  (* Bound before [t] is shadowed by the dense record below. *)
  let coverage_create = create

  type t = {
    counts : int array; (* one counter per Plan cell ID *)
    bump : int -> unit; (* pre-bound [counts] incrementer, so the hot
                           path passes one closure with no per-call
                           allocation *)
    flag_sets : (int, int ref) Hashtbl.t; (* exact open masks: unbounded
                                             key space, stays a table *)
    mutable calls : int;
  }

  let create () =
    let counts = Array.make Plan.total 0 in
    let bump id = counts.(id) <- counts.(id) + 1 in
    { counts; bump; flag_sets = Hashtbl.create 64; calls = 0 }

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

  let merge_into ~dst src =
    dst.calls <- dst.calls + src.calls;
    let d = dst.counts and s = src.counts in
    for i = 0 to Array.length d - 1 do
      d.(i) <- d.(i) + s.(i)
    done;
    Hashtbl.iter
      (fun mask r ->
        match Hashtbl.find dst.flag_sets mask with
        | r' -> r' := !r' + !r
        | exception Not_found -> Hashtbl.add dst.flag_sets mask (ref !r))
      src.flag_sets

  let calls_observed t = t.calls

  (* Direct plan-cell read — what the live progress sink peeks at, so
     a mid-run snapshot costs an array index, not a conversion. *)
  let cell_count t id = t.counts.(id)

  let reset t =
    Array.fill t.counts 0 Plan.total 0;
    Hashtbl.reset t.flag_sets;
    t.calls <- 0

  let snapshot t =
    let counts = Array.copy t.counts in
    let bump id = counts.(id) <- counts.(id) + 1 in
    let flag_sets = Hashtbl.create (max 16 (Hashtbl.length t.flag_sets)) in
    Hashtbl.iter (fun mask r -> Hashtbl.add flag_sets mask (ref !r)) t.flag_sets;
    { counts; bump; flag_sets; calls = t.calls }

  let to_reference ?(metered = false) t =
    let cov = coverage_create ~metered () in
    Array.iteri
      (fun id n ->
        if n > 0 then
          match Plan.cells.(id) with
          | Plan.Cell_variant v -> add_variant cov v n
          | Plan.Cell_input (arg, part) -> add_input cov arg part n
          | Plan.Cell_output (base, out) -> add_output cov base out n
          | Plan.Cell_crash (mode, outcome) -> add_crash cov mode outcome n)
      t.counts;
    Hashtbl.iter (fun mask r -> add_flag_set cov mask !r) t.flag_sets;
    add_calls cov t.calls;
    cov
end

(* --- cell summaries (flight recorder / run ledger) --- *)

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
        (* Crash cells live on the output side of the universe; the
           three-bucket ledger shape stays stable. *)
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
