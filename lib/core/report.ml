open Iocov_syscall
module Ascii = Iocov_util.Ascii
module Log2 = Iocov_util.Log2

let flag_rows cov_a cov_b =
  List.map
    (fun flag ->
      let p = Partition.P_flag flag in
      ( Open_flags.flag_name flag,
        Coverage.input_count cov_a Arg_class.Open_flags_arg p,
        Coverage.input_count cov_b Arg_class.Open_flags_arg p ))
    Open_flags.all

let figure2 ~name_a ~cov_a ~name_b ~cov_b =
  Ascii.grouped_log_chart
    ~title:
      (Printf.sprintf "Figure 2: input coverage of open flags (%s vs %s, log10 frequency)"
         name_a name_b)
    ~group_names:(name_a, name_b) (flag_rows cov_a cov_b)

let table1 ~name_a ~cov_a ~name_b ~cov_b =
  let max_n = 6 in
  let row label sets =
    label :: List.map Ascii.float_cell (Combos.percent_by_flag_count ~max_n sets)
  in
  let sets_a = Coverage.open_flag_sets cov_a in
  let sets_b = Coverage.open_flag_sets cov_b in
  Ascii.table
    ~title:"Table 1: % of opens combining 1-6 flags"
    ~headers:("Test Suite / % for #flags" :: List.init max_n (fun i -> string_of_int (i + 1)))
    [ row (name_a ^ ": all flags") sets_a;
      row (name_a ^ ": O_RDONLY") (Combos.restrict Open_flags.O_RDONLY sets_a);
      row (name_b ^ ": all flags") sets_b;
      row (name_b ^ ": O_RDONLY") (Combos.restrict Open_flags.O_RDONLY sets_b) ]

let numeric_rows arg cov_a cov_b =
  List.map
    (fun part ->
      let label =
        match part with
        | Partition.P_bucket b ->
          Printf.sprintf "%-5s %s" (Log2.bucket_label b) (Log2.bucket_size_label b)
        | p -> Partition.label p
      in
      ( label,
        Coverage.input_count cov_a arg part,
        Coverage.input_count cov_b arg part ))
    (Partition.domain arg)

let max_numeric_label arg cov =
  let covered =
    List.filter (fun (_, n) -> n > 0) (Coverage.input_series cov arg)
  in
  match List.rev covered with
  | (Partition.P_bucket b, _) :: _ -> Log2.bucket_size_label b
  | _ -> "none"

let numeric_figure ~arg ~name_a ~cov_a ~name_b ~cov_b =
  let chart =
    Ascii.grouped_log_chart
      ~title:
        (Printf.sprintf "Input coverage of %s (%s vs %s, log10 frequency)"
           (Arg_class.name arg) name_a name_b)
      ~group_names:(name_a, name_b) (numeric_rows arg cov_a cov_b)
  in
  Printf.sprintf "%slargest bucket exercised: %s %s, %s %s\n" chart name_a
    (max_numeric_label arg cov_a) name_b (max_numeric_label arg cov_b)

let figure3 ~name_a ~cov_a ~name_b ~cov_b =
  Printf.sprintf "Figure 3: %s"
    (numeric_figure ~arg:Arg_class.Write_count ~name_a ~cov_a ~name_b ~cov_b)

let output_figure ~base ~name_a ~cov_a ~name_b ~cov_b =
  let grouped_a = Coverage.output_series_grouped cov_a base in
  let grouped_b = Coverage.output_series_grouped cov_b base in
  let label = function
    | `Ok -> "OK (>= 0)"
    | `Err e -> Errno.to_string e
  in
  let count series key =
    match List.find_opt (fun (k, _) -> k = key) series with
    | Some (_, n) -> n
    | None -> 0
  in
  let keys = List.map fst grouped_a in
  let keys =
    keys
    @ List.filter (fun k -> not (List.mem k keys)) (List.map fst grouped_b)
  in
  let rows =
    List.map (fun k -> (label k, count grouped_a k, count grouped_b k)) keys
  in
  Ascii.grouped_log_chart
    ~title:
      (Printf.sprintf "Output coverage of %s (%s vs %s, log10 frequency)"
         (Model.base_name base) name_a name_b)
    ~group_names:(name_a, name_b) rows

let figure4 ~name_a ~cov_a ~name_b ~cov_b =
  Printf.sprintf "Figure 4: %s"
    (output_figure ~base:Model.Open ~name_a ~cov_a ~name_b ~cov_b)

let open_flag_frequencies cov =
  Array.of_list
    (List.map (fun (_, n) -> n) (Coverage.input_series cov Arg_class.Open_flags_arg))

let figure5 ~name_a ~cov_a ~name_b ~cov_b ~targets =
  let f_a = open_flag_frequencies cov_a in
  let f_b = open_flag_frequencies cov_b in
  let rows =
    List.map
      (fun target ->
        [ Printf.sprintf "%.0f" target;
          Printf.sprintf "%.3f" (Tcd.tcd_uniform ~frequencies:f_a ~target);
          Printf.sprintf "%.3f" (Tcd.tcd_uniform ~frequencies:f_b ~target) ])
      targets
  in
  let table =
    Ascii.table
      ~title:"Figure 5: TCD for open flags vs uniform target"
      ~headers:[ "target T"; name_a; name_b ]
      rows
  in
  let crossover_note =
    match Tcd.crossover ~f1:f_a ~f2:f_b ~lo:(List.hd targets)
            ~hi:(List.nth targets (List.length targets - 1))
    with
    | Some t ->
      Printf.sprintf "\ncrossover: %s better below T ~= %.0f, %s better above" name_a t name_b
    | None -> "\ncrossover: none in the swept range"
  in
  table ^ crossover_note

let untested_summary ~name cov =
  let buf = Buffer.create 512 in
  Buffer.add_string buf (Printf.sprintf "Untested partitions for %s\n" name);
  List.iter
    (fun arg ->
      match Coverage.untested_inputs cov arg with
      | [] -> ()
      | missing ->
        Buffer.add_string buf
          (Printf.sprintf "  input  %-16s (%d/%d untested): %s\n" (Arg_class.name arg)
             (List.length missing)
             (List.length (Partition.domain arg))
             (String.concat " " (List.map Partition.label missing))))
    Arg_class.all;
  List.iter
    (fun base ->
      let missing =
        List.filter
          (fun o -> Partition.output_is_error o)
          (Coverage.untested_outputs cov base)
      in
      match missing with
      | [] -> ()
      | missing ->
        Buffer.add_string buf
          (Printf.sprintf "  output %-16s (%d errnos untested): %s\n" (Model.base_name base)
             (List.length missing)
             (String.concat " " (List.map Partition.output_label missing))))
    Model.all_bases;
  Buffer.contents buf

let suite_summary ~name cov =
  let rows =
    List.map
      (fun base ->
        [ Model.base_name base;
          Ascii.si_count (Coverage.base_calls cov base);
          Printf.sprintf "%.0f%%" (100.0 *. Coverage.input_coverage_ratio_of_base cov base);
          Printf.sprintf "%.0f%%" (100.0 *. Coverage.output_coverage_ratio cov base) ])
      Model.all_bases
  in
  Printf.sprintf "%s: %s traced calls\n%s" name
    (Ascii.si_count (Coverage.calls_observed cov))
    (Ascii.table
       ~headers:[ "syscall"; "calls"; "input cov"; "output cov" ]
       rows)

let adequacy_table ~name cov ~arg ~target ~theta =
  let rows =
    List.map
      (fun (p, freq, verdict) ->
        [ Partition.label p; Ascii.si_count freq; Adequacy.verdict_name verdict ])
      (Adequacy.input_report cov arg ~target ~theta)
  in
  Ascii.table
    ~title:
      (Printf.sprintf "%s: adequacy of %s (target %.0f, theta %.1f)" name
         (Arg_class.name arg) target theta)
    ~headers:[ "partition"; "frequency"; "verdict" ]
    rows

(* The completeness section: what a fault-tolerant run read, skipped,
   retried, and lost.  A clean run is one line; a degraded run gets the
   full ledger plus the first recorded anomalies, so the reader can
   judge how much to trust the coverage numbers above it. *)
let completeness ~name (c : Iocov_util.Anomaly.completeness) =
  let module Anomaly = Iocov_util.Anomaly in
  if Anomaly.is_clean c then
    Printf.sprintf "%s: complete — %s events read, nothing skipped%s" name
      (Ascii.si_count c.Anomaly.events_read)
      (match c.Anomaly.resumed_from with
       | Some path -> Printf.sprintf " (resumed from %s)" path
       | None -> "")
  else begin
    let rows =
      List.filter_map
        (fun (label, value) -> if value = "" then None else Some [ label; value ])
        [ ("events read", Ascii.si_count c.Anomaly.events_read);
          ( "records skipped",
            if c.Anomaly.records_skipped = 0 then "" else string_of_int c.Anomaly.records_skipped );
          ( "corrupt regions",
            if c.Anomaly.corrupt_regions = 0 then "" else string_of_int c.Anomaly.corrupt_regions );
          ( "bytes skipped",
            if c.Anomaly.bytes_skipped = 0 then "" else string_of_int c.Anomaly.bytes_skipped );
          ( "batches retried",
            if c.Anomaly.batches_retried = 0 then "" else string_of_int c.Anomaly.batches_retried );
          ( "shards failed",
            if c.Anomaly.shards_failed = 0 then "" else string_of_int c.Anomaly.shards_failed );
          ( "events abandoned",
            if c.Anomaly.events_abandoned = 0 then "" else string_of_int c.Anomaly.events_abandoned );
          ("truncated", if c.Anomaly.truncated then "yes" else "");
          ( "resumed from",
            match c.Anomaly.resumed_from with Some path -> path | None -> "" ) ]
    in
    let shown = 8 in
    let anomaly_lines =
      let rec take n = function
        | [] -> []
        | _ when n = 0 -> []
        | a :: tl -> ("  " ^ Anomaly.to_string a) :: take (n - 1) tl
      in
      match c.Anomaly.anomalies with
      | [] -> []
      | all ->
        let extra = List.length all - shown in
        take shown all
        @ (if extra > 0 then [ Printf.sprintf "  … and %d more" extra ] else [])
    in
    String.concat "\n"
      ((Ascii.table
          ~title:(Printf.sprintf "%s: completeness (run was degraded)" name)
          ~headers:[ "counter"; "value" ] rows)
      :: anomaly_lines)
  end

(* --- config-lattice comparison (DESIGN.md §18) --- *)

let cell_label = function
  | Plan.Cell_variant v -> "variant " ^ Model.variant_name v
  | Plan.Cell_input (arg, part) ->
    Printf.sprintf "input %s=%s" (Arg_class.name arg) (Partition.label part)
  | Plan.Cell_output (base, out) ->
    Printf.sprintf "output %s->%s" (Model.base_name base) (Partition.output_label out)
  | Plan.Cell_crash (mode, outcome) ->
    Printf.sprintf "crash %s->%s"
      (Partition.crash_mode_label mode)
      (Partition.crash_outcome_label outcome)

let lit cov id = Coverage.cell_count cov id > 0

let lit_errno_cells cov =
  let n = ref 0 in
  for id = 0 to Plan.total - 1 do
    if Plan.errno_cell id && lit cov id then incr n
  done;
  !n

let off_baseline_errno_cells = function
  | [] -> []
  | (_, baseline) :: rest ->
    let ids = ref [] in
    for id = Plan.total - 1 downto 0 do
      if
        Plan.errno_cell id
        && (not (lit baseline id))
        && List.exists (fun (_, cov) -> lit cov id) rest
      then ids := id :: !ids
    done;
    !ids

let config_matrix ~target ~theta rows =
  let table_rows =
    List.map
      (fun (name, cov) ->
        let v, i, o = Coverage.lit_cells cov in
        let tcd =
          Tcd.tcd_uniform ~frequencies:(open_flag_frequencies cov) ~target
        in
        let adequacy =
          Adequacy.summarize
            (Adequacy.input_report cov Arg_class.Open_flags_arg ~target ~theta)
        in
        [ name;
          Ascii.si_count (Coverage.calls_observed cov);
          string_of_int v; string_of_int i; string_of_int o;
          string_of_int (lit_errno_cells cov);
          Printf.sprintf "%.3f" tcd;
          string_of_int adequacy.Adequacy.under;
          string_of_int adequacy.Adequacy.over ])
      rows
  in
  Ascii.table
    ~title:
      (Printf.sprintf
         "Config matrix: per-config coverage (TCD/adequacy: open flags, T=%.0f, theta=%.1f)"
         target theta)
    ~headers:
      [ "config"; "calls"; "variants"; "inputs"; "outputs"; "errno cells";
        "TCD"; "under"; "over" ]
    table_rows

let config_diff = function
  | [] -> "config diff: no configs\n"
  | [ (name, _) ] ->
    Printf.sprintf "config diff: only one config (%s); nothing to compare\n" name
  | ((base_name, baseline) :: rest) as rows ->
    let buf = Buffer.create 1024 in
    Printf.ksprintf (Buffer.add_string buf)
      "Config diff (baseline: %s)\n" base_name;
    List.iter
      (fun (name, cov) ->
        let gained = ref [] and lost = ref [] in
        for id = Plan.total - 1 downto 0 do
          match (lit baseline id, lit cov id) with
          | false, true -> gained := id :: !gained
          | true, false -> lost := id :: !lost
          | _ -> ()
        done;
        Printf.ksprintf (Buffer.add_string buf)
          "\n%s vs %s: +%d cells, -%d cells\n" name base_name
          (List.length !gained) (List.length !lost);
        let show verb ids =
          let shown, extra =
            if List.length ids > 12 then
              (List.filteri (fun i _ -> i < 12) ids, List.length ids - 12)
            else (ids, 0)
          in
          List.iter
            (fun id ->
              Printf.ksprintf (Buffer.add_string buf) "  %s %s\n" verb
                (cell_label Plan.cells.(id)))
            shown;
          if extra > 0 then
            Printf.ksprintf (Buffer.add_string buf) "  ... and %d more\n" extra
        in
        show "+" !gained;
        show "-" !lost)
      rest;
    let off = off_baseline_errno_cells rows in
    Printf.ksprintf (Buffer.add_string buf)
      "\nerrno cells lit only off-%s: %d\n" base_name (List.length off);
    List.iter
      (fun id ->
        let under =
          List.filter_map
            (fun (name, cov) -> if lit cov id then Some name else None)
            rest
        in
        Printf.ksprintf (Buffer.add_string buf) "  %s  [%s]\n"
          (cell_label Plan.cells.(id))
          (String.concat ", " under))
      off;
    Buffer.contents buf
