(* Tests for the compiled partition plan and the plan-indexed coverage
   accumulator: layout sanity (the cell table is a bijection over the
   partition universe), white-box agreement between the compiled slot
   functions and the reference decode mapping, and the differential
   property — [Coverage.t] and the hashed-histogram oracle
   ([Coverage_oracle]) give byte-identical snapshots and equal answers
   to every query for fuzzer-generated streams. *)

open Iocov_syscall
module Prng = Iocov_util.Prng
module Log2 = Iocov_util.Log2
module Event = Iocov_trace.Event
module Filter = Iocov_trace.Filter
module Plan = Iocov_core.Plan
module Partition = Iocov_core.Partition
module Arg_class = Iocov_core.Arg_class
module Coverage = Iocov_core.Coverage
module Snapshot = Iocov_core.Snapshot
module Replay = Iocov_par.Replay

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)
let check_string = Alcotest.(check string)

(* --- a fuzzer over the full call surface ---

   Wider than test_par's generator on purpose: all 11 bases, all 27
   variants, raw (unnormalized) flag masks and the sync/tmpfile mixes
   that normalization folds, every mode bit and mode 0, numerics from
   [min_int] through zero to [max_int] (the 2^61 bucket), and every
   errno on every base — the differential oracle is only convincing if
   the stream can reach every cell family. *)

let errnos = Array.of_list Errno.all
let whences = Array.of_list Whence.all
let xflags = Array.of_list Xattr_flag.all

let rand_flags rng =
  match Prng.int rng 3 with
  | 0 ->
    Prng.choose rng
      [| Open_flags.of_flags Open_flags.[ O_RDONLY ];
         Open_flags.of_flags Open_flags.[ O_RDWR; O_CREAT; O_TRUNC ];
         Open_flags.of_flags Open_flags.[ O_WRONLY; O_CREAT; O_SYNC ];
         Open_flags.of_flags Open_flags.[ O_RDONLY; O_DIRECTORY ];
         Open_flags.of_flags Open_flags.[ O_RDWR; O_TMPFILE ];
         Open_flags.of_flags Open_flags.[ O_WRONLY; O_DSYNC; O_APPEND ];
         Open_flags.of_flags Open_flags.[ O_WRONLY; O_SYNC; O_DSYNC ];
         Open_flags.of_flags Open_flags.[ O_RDONLY; O_DIRECTORY; O_DSYNC ];
         Open_flags.of_flags Open_flags.[ O_RDWR; O_TMPFILE; O_DIRECTORY; O_RSYNC ] |]
  | 1 -> Prng.int rng 0o40000000 (* raw mask: exercises normalization *)
  | _ ->
    List.fold_left
      (fun acc f -> if Prng.chance rng 0.2 then acc lor Open_flags.bit f else acc)
      (Prng.int rng 4) Open_flags.all

let rand_mode rng =
  match Prng.int rng 5 with
  | 0 -> 0
  | 1 -> 0o644
  | 2 -> 0o7777
  | 3 -> 1 lsl Prng.int rng 12 (* one bit: S_IXOTH .. S_ISUID *)
  | _ -> Prng.int rng 0o10000

(* Every numeric argument draws from the whole int range: a negative
   count or a 2^61-byte size lies outside the report domain but still
   has a plan cell. *)
let rand_size rng =
  match Prng.int rng 7 with
  | 0 -> 0
  | 1 -> 1 + Prng.int rng 7
  | 2 -> Prng.pow2_size rng ~max_log2:20
  | 3 -> 1 lsl (20 + Prng.int rng 42)
  | 4 -> max_int
  | 5 -> -(1 + Prng.int rng 100_000)
  | _ -> min_int

let gen_call rng =
  let path = Printf.sprintf "/mnt/test/d%d/f%d" (Prng.int rng 6) (Prng.int rng 40) in
  let fd = 3 + Prng.int rng 16 in
  let p = Model.Path path and f = Model.Fd fd in
  match Prng.int rng 11 with
  | 0 ->
    let variant =
      Prng.choose rng Model.[| Sys_open; Sys_openat; Sys_creat; Sys_openat2 |]
    in
    Model.open_ ~variant ~flags:(rand_flags rng) ~mode:(rand_mode rng) path
  | 1 ->
    if Prng.chance rng 0.4 then
      Model.read ~variant:Model.Sys_pread64 ~offset:(rand_size rng) ~fd
        ~count:(rand_size rng) ()
    else
      Model.read
        ~variant:(Prng.choose rng Model.[| Sys_read; Sys_readv |])
        ~fd ~count:(rand_size rng) ()
  | 2 ->
    if Prng.chance rng 0.4 then
      Model.write ~variant:Model.Sys_pwrite64 ~offset:(rand_size rng) ~fd
        ~count:(rand_size rng) ()
    else
      Model.write
        ~variant:(Prng.choose rng Model.[| Sys_write; Sys_writev |])
        ~fd ~count:(rand_size rng) ()
  | 3 -> Model.lseek ~fd ~offset:(rand_size rng) ~whence:(Prng.choose rng whences)
  | 4 ->
    Model.truncate
      ~target:(if Prng.chance rng 0.5 then p else f)
      ~length:(rand_size rng) ()
  | 5 ->
    Model.mkdir
      ~variant:(Prng.choose rng Model.[| Sys_mkdir; Sys_mkdirat |])
      ~mode:(rand_mode rng) path
  | 6 ->
    if Prng.chance rng 0.3 then
      Model.chmod ~variant:Model.Sys_fchmodat ~target:p ~mode:(rand_mode rng) ()
    else
      Model.chmod
        ~target:(if Prng.chance rng 0.5 then p else f)
        ~mode:(rand_mode rng) ()
  | 7 -> Model.close fd
  | 8 -> Model.chdir (if Prng.chance rng 0.5 then p else f)
  | 9 ->
    let variant =
      Prng.choose rng Model.[| Sys_setxattr; Sys_lsetxattr; Sys_fsetxattr |]
    in
    Model.setxattr ~variant ~flags:(Prng.choose rng xflags)
      ~target:(if variant = Model.Sys_fsetxattr then f else p)
      ~name:"user.iocov" ~size:(rand_size rng) ()
  | _ ->
    let variant =
      Prng.choose rng Model.[| Sys_getxattr; Sys_lgetxattr; Sys_fgetxattr |]
    in
    Model.getxattr ~variant
      ~target:(if variant = Model.Sys_fgetxattr then f else p)
      ~name:"user.iocov" ~size:(rand_size rng) ()

let gen_outcome rng call =
  if Prng.chance rng 0.3 then Model.Err (Prng.choose rng errnos)
  else if Model.returns_byte_count (Model.base_of_call call) then
    Model.Ret
      (match Prng.int rng 6 with
       | 0 -> 0
       | 1 -> 1 + Prng.int rng 65536
       | 2 -> 1 lsl (Prng.int rng 40)
       | 3 -> max_int
       | 4 -> -(1 + Prng.int rng 5) (* nonsense ret; classified OK 2^0 *)
       | _ -> Prng.pow2_size rng ~max_log2:30)
  else Model.Ret 0

let gen_pairs ~seed n =
  let rng = Prng.create ~seed in
  List.init n (fun _ ->
      let call = gen_call rng in
      (call, gen_outcome rng call))

let gen_events ~seed n =
  let rng = Prng.create ~seed in
  List.init n (fun seq ->
      let inside = Prng.chance rng 0.8 in
      let path =
        if inside then Printf.sprintf "/mnt/test/d%d" (Prng.int rng 8)
        else Printf.sprintf "/var/noise%d" (Prng.int rng 20)
      in
      let call = gen_call rng in
      {
        Event.seq;
        timestamp_ns = seq * 17;
        pid = 200 + Prng.int rng 3;
        comm = "fuzz";
        payload = Event.Tracked call;
        outcome = gen_outcome rng call;
        path_hint = (if Prng.chance rng 0.9 then Some path else None);
      })

(* --- plan layout --- *)

let test_plan_bijection () =
  check_int "cell table spans the universe" Plan.total (Array.length Plan.cells);
  let seen = Hashtbl.create Plan.total in
  Array.iter
    (fun c ->
      check_bool "no cell described twice" false (Hashtbl.mem seen c);
      Hashtbl.add seen c ())
    Plan.cells;
  check_int "all cells distinct" Plan.total (Hashtbl.length seen)

let test_plan_variant_cells () =
  List.iter
    (fun v ->
      check_bool (Model.variant_name v) true
        (Plan.cells.(Plan.variant_cell v) = Plan.Cell_variant v))
    Model.all_variants

let test_plan_bucket_slot () =
  let expected n =
    match Log2.bucket_of_int n with
    | Log2.Negative -> 0
    | Log2.Zero -> 1
    | Log2.Pow2 k -> 2 + k
  in
  List.iter
    (fun n ->
      check_int (Printf.sprintf "bucket_slot %d" n) (expected n) (Plan.bucket_slot n))
    [ min_int; -100; -1; 0; 1; 2; 3; 4; 1023; 1024; (1 lsl 40) + 7; max_int ]

(* [iter_input_slots] must enumerate exactly the (argument, partition)
   pairs the reference decoder produces — compared as sorted lists
   through the inverse cell table. *)
let test_plan_input_slots_match_of_call () =
  let rng = Prng.create ~seed:9001 in
  for _ = 1 to 3_000 do
    let call = gen_call rng in
    let via_plan = ref [] in
    Plan.iter_input_slots call (fun id ->
        match Plan.cells.(id) with
        | Plan.Cell_input (arg, part) -> via_plan := (arg, part) :: !via_plan
        | _ -> Alcotest.failf "input slot %d is not an input cell" id);
    let expected = List.sort compare (Partition_oracle.of_call call) in
    let got = List.sort compare !via_plan in
    check_bool
      (Printf.sprintf "input cells agree for %s" (Model.call_to_string call))
      true (expected = got)
  done

let test_plan_output_cell_matches_output_of () =
  let outcomes =
    Model.Ret 0 :: Model.Ret 1 :: Model.Ret 12345 :: Model.Ret max_int
    :: Model.Ret (-3)
    :: List.map (fun e -> Model.Err e) Errno.all
  in
  List.iter
    (fun base ->
      List.iter
        (fun outcome ->
          let id = Plan.output_cell base outcome in
          check_bool
            (Printf.sprintf "%s output cell" (Model.base_name base))
            true
            (Plan.cells.(id)
             = Plan.Cell_output (base, Partition_oracle.output_of base outcome)))
        outcomes)
    Model.all_bases

(* --- Coverage.t against the hashed-histogram oracle --- *)

module Oracle = Coverage_oracle

(* Every query agrees with the oracle's, per argument and per base, and
   so does every plan cell and the snapshot text. *)
let agree_with_oracle ~tag oracle cov =
  let eq what a b = if a <> b then Alcotest.failf "%s: %s differs from the oracle" tag what in
  eq "snapshot text" (Oracle.to_string oracle) (Snapshot.to_string cov);
  eq "calls_observed" (Oracle.calls_observed oracle) (Coverage.calls_observed cov);
  eq "variant_histogram" (Oracle.variant_histogram oracle) (Coverage.variant_histogram cov);
  eq "open_flag_sets" (Oracle.open_flag_sets oracle) (Coverage.open_flag_sets cov);
  eq "crash_series" (Oracle.crash_series oracle) (Coverage.crash_series cov);
  eq "crash_observed" (Oracle.crash_observed oracle) (Coverage.crash_observed cov);
  eq "lit_cells" (Oracle.lit_cells oracle) (Coverage.lit_cells cov);
  eq "cell_bitmap" (Oracle.cell_bitmap oracle) (Coverage.cell_bitmap cov);
  Array.iteri
    (fun id cell ->
      eq (Printf.sprintf "cell %d" id) (Oracle.cell_count oracle cell)
        (Coverage.cell_count cov id))
    Plan.cells;
  List.iter
    (fun v ->
      eq (Model.variant_name v) (Oracle.variant_calls oracle v) (Coverage.variant_calls cov v))
    Model.all_variants;
  List.iter
    (fun arg ->
      let what q = Arg_class.name arg ^ " " ^ q in
      eq (what "input_histogram") (Oracle.input_histogram oracle arg)
        (Coverage.input_histogram cov arg);
      eq (what "input_series") (Oracle.input_series oracle arg) (Coverage.input_series cov arg);
      eq (what "untested_inputs") (Oracle.untested_inputs oracle arg)
        (Coverage.untested_inputs cov arg);
      eq (what "input_coverage_ratio") (Oracle.input_coverage_ratio oracle arg)
        (Coverage.input_coverage_ratio cov arg))
    Arg_class.all;
  List.iter
    (fun base ->
      let what q = Model.base_name base ^ " " ^ q in
      eq (what "base_calls") (Oracle.base_calls oracle base) (Coverage.base_calls cov base);
      eq (what "input_coverage_ratio_of_base")
        (Oracle.input_coverage_ratio_of_base oracle base)
        (Coverage.input_coverage_ratio_of_base cov base);
      eq (what "output_histogram") (Oracle.output_histogram oracle base)
        (Coverage.output_histogram cov base);
      eq (what "output_series") (Oracle.output_series oracle base)
        (Coverage.output_series cov base);
      eq (what "output_series_grouped") (Oracle.output_series_grouped oracle base)
        (Coverage.output_series_grouped cov base);
      eq (what "untested_outputs") (Oracle.untested_outputs oracle base)
        (Coverage.untested_outputs cov base);
      eq (what "output_coverage_ratio") (Oracle.output_coverage_ratio oracle base)
        (Coverage.output_coverage_ratio cov base))
    Model.all_bases

let test_dense_differential_direct () =
  List.iter
    (fun seed ->
      let pairs = gen_pairs ~seed 12_000 in
      let oracle = Oracle.create () in
      let cov = Coverage.create () in
      List.iteri
        (fun i (call, outcome) ->
          if i mod 7 = 0 then begin
            (* input-only path: outcome unknown, output side untouched *)
            Oracle.observe_input_only oracle call;
            Coverage.observe_input_only cov call
          end
          else begin
            Oracle.observe oracle call outcome;
            Coverage.observe cov call outcome
          end)
        pairs;
      agree_with_oracle ~tag:(Printf.sprintf "seed %d" seed) oracle cov)
    [ 101; 202; 303 ]

let test_dense_merge_matches_whole () =
  let pairs = gen_pairs ~seed:555 9_000 in
  let whole = Coverage.create () in
  List.iter (fun (c, o) -> Coverage.observe whole c o) pairs;
  (* shard the same stream three ways, round-robin, and merge *)
  let shards = Array.init 3 (fun _ -> Coverage.create ()) in
  List.iteri (fun i (c, o) -> Coverage.observe shards.(i mod 3) c o) pairs;
  let dst = Coverage.create () in
  Array.iter (fun s -> Coverage.merge_into ~dst s) shards;
  check_string "merged shards = whole stream" (Snapshot.to_string whole)
    (Snapshot.to_string dst)

let test_halves_merge_to_oracle_whole () =
  let pairs = gen_pairs ~seed:777 4_000 in
  let all = Oracle.create () in
  let a = Coverage.create () and b = Coverage.create () in
  List.iteri
    (fun i (c, o) ->
      Oracle.observe all c o;
      Coverage.observe (if i mod 2 = 0 then a else b) c o)
    pairs;
  let dst = Coverage.create () in
  Coverage.merge_into ~dst a;
  Coverage.merge_into ~dst b;
  agree_with_oracle ~tag:"halves" all dst

(* The property: a random stream of the four ways counts enter a
   coverage, split into parts observed separately and merged in a
   random order, then saved and reloaded, agrees with the oracle fed
   the same operations. *)

type op =
  | Observe of Model.call * Model.outcome
  | Input_only of Model.call
  | Crash of Partition.crash_mode * Partition.crash_outcome * int
  | Flag_set of Open_flags.t * int

let crash_modes = Array.of_list Partition.all_crash_modes
let crash_outcomes = Array.of_list Partition.all_crash_outcomes

let gen_op rng =
  match Prng.int rng 10 with
  | 0 ->
    Crash (Prng.choose rng crash_modes, Prng.choose rng crash_outcomes, Prng.int rng 4)
  | 1 -> Flag_set (rand_flags rng, Prng.int rng 3)
  | 2 | 3 -> Input_only (gen_call rng)
  | _ ->
    let call = gen_call rng in
    Observe (call, gen_outcome rng call)

let apply_cov cov = function
  | Observe (c, o) -> Coverage.observe cov c o
  | Input_only c -> Coverage.observe_input_only cov c
  | Crash (m, o, n) -> Coverage.add_crash cov m o n
  | Flag_set (mask, n) -> Coverage.add_flag_set cov mask n

let apply_oracle t = function
  | Observe (c, o) -> Oracle.observe t c o
  | Input_only c -> Oracle.observe_input_only t c
  | Crash (m, o, n) -> Oracle.add_crash t m o n
  | Flag_set (mask, n) -> Oracle.add_flag_set t mask n

(* A snapshot keys a flag set by its text, which drops unmodeled bits
   and reads access mode 3 as O_RDWR, so a reload folds masks that
   print alike into one: what the oracle looks like after a reload. *)
let reloaded_oracle oracle =
  let o = Oracle.create () in
  Oracle.merge_into ~dst:o oracle;
  Histogram.clear o.Oracle.flag_sets;
  List.iter
    (fun (mask, n) ->
      match Open_flags.of_string (Open_flags.to_string mask) with
      | Some printed -> Oracle.add_flag_set o printed n
      | None -> Alcotest.failf "flag set %d does not print" mask)
    (Oracle.open_flag_sets oracle);
  o

let merged_parts_prop =
  QCheck.Test.make ~count:150 ~name:"random streams, merges and reload agree with the oracle"
    QCheck.(triple (int_bound 1_000_000) (int_bound 400) (int_bound 4))
    (fun (seed, n, extra_parts) ->
      let rng = Prng.create ~seed in
      let parts = 1 + extra_parts in
      let covs = Array.init parts (fun _ -> Coverage.create ()) in
      let oracles = Array.init parts (fun _ -> Oracle.create ()) in
      for _ = 1 to n do
        let op = gen_op rng and part = Prng.int rng parts in
        apply_cov covs.(part) op;
        apply_oracle oracles.(part) op
      done;
      let dst = Coverage.create () and oracle = Oracle.create () in
      let order = Array.init parts Fun.id in
      Prng.shuffle rng order;
      Array.iter (fun i -> Coverage.merge_into ~dst covs.(i)) order;
      Array.iter (fun o -> Oracle.merge_into ~dst:oracle o) oracles;
      agree_with_oracle ~tag:"merged" oracle dst;
      match Snapshot.of_string (Snapshot.to_string dst) with
      | Error msg -> QCheck.Test.fail_reportf "reload refused: %s" msg
      | Ok reloaded ->
        agree_with_oracle ~tag:"reloaded" (reloaded_oracle oracle) reloaded;
        true)

(* --- the pipeline differential: the engine's accumulator against a
   per-event observe into the oracle's hashed histograms --- *)

let test_pipeline_differential () =
  let filter = Filter.mount_point "/mnt/test" in
  List.iter
    (fun seed ->
      let events = gen_events ~seed 10_000 in
      let oracle, oracle_kept = Test_par.sequential_coverage filter events in
      let o = Replay.analyze_events ~batch:256 ~filter events in
      let tag = Printf.sprintf "seed=%d" seed in
      agree_with_oracle ~tag oracle o.Replay.coverage;
      check_int (tag ^ " kept") oracle_kept o.Replay.kept)
    [ 42; 1337 ]

let suites =
  [ ( "dense.plan",
      [ Alcotest.test_case "cell table is a bijection" `Quick test_plan_bijection;
        Alcotest.test_case "variant cells" `Quick test_plan_variant_cells;
        Alcotest.test_case "bucket_slot vs bucket_of_int" `Quick test_plan_bucket_slot;
        Alcotest.test_case "input slots vs of_call" `Quick
          test_plan_input_slots_match_of_call;
        Alcotest.test_case "output cell vs output_of" `Quick
          test_plan_output_cell_matches_output_of ] );
    ( "dense.coverage",
      [ Alcotest.test_case "differential vs reference" `Quick
          test_dense_differential_direct;
        Alcotest.test_case "shard merge = whole stream" `Quick
          test_dense_merge_matches_whole;
        Alcotest.test_case "halves merge = oracle" `Quick
          test_halves_merge_to_oracle_whole;
        QCheck_alcotest.to_alcotest merged_parts_prop ] );
    ( "dense.pipeline",
      [ Alcotest.test_case "both backends" `Quick test_pipeline_differential ] ) ]
