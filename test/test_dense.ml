(* Tests for the compiled partition plan and the dense counter backend:
   layout sanity (the cell table is a bijection over the partition
   universe), white-box agreement between the compiled slot functions
   and the reference decode mapping, and the differential property —
   dense and reference pipelines produce byte-identical snapshots and
   reports for fuzzer-generated streams. *)

open Iocov_syscall
module Prng = Iocov_util.Prng
module Log2 = Iocov_util.Log2
module Event = Iocov_trace.Event
module Filter = Iocov_trace.Filter
module Plan = Iocov_core.Plan
module Partition = Iocov_core.Partition
module Coverage = Iocov_core.Coverage
module Snapshot = Iocov_core.Snapshot
module Report = Iocov_core.Report
module Replay = Iocov_par.Replay

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)
let check_string = Alcotest.(check string)

(* --- a fuzzer over the full call surface ---

   Wider than test_par's generator on purpose: all 11 bases, all 27
   variants, raw (unnormalized) flag masks, extreme numerics (zero,
   negative, 2^40, max_int), and every errno — the differential oracle
   is only convincing if the stream can reach every cell family. *)

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
         Open_flags.of_flags Open_flags.[ O_WRONLY; O_DSYNC; O_APPEND ] |]
  | 1 -> Prng.int rng 0o40000000 (* raw mask: exercises normalization *)
  | _ ->
    List.fold_left
      (fun acc f -> if Prng.chance rng 0.2 then acc lor Open_flags.bit f else acc)
      (Prng.int rng 4) Open_flags.all

let rand_mode rng =
  match Prng.int rng 4 with
  | 0 -> 0
  | 1 -> 0o644
  | 2 -> 0o7777
  | _ -> Prng.int rng 0o10000

let rand_size rng =
  match Prng.int rng 5 with
  | 0 -> 0
  | 1 -> 1 + Prng.int rng 7
  | 2 -> Prng.pow2_size rng ~max_log2:20
  | 3 -> 1 lsl (20 + Prng.int rng 42)
  | _ -> max_int

let rand_signed rng =
  match Prng.int rng 3 with
  | 0 -> -(1 + Prng.int rng 100_000)
  | _ -> rand_size rng

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
      Model.read ~variant:Model.Sys_pread64 ~offset:(rand_signed rng) ~fd
        ~count:(rand_size rng) ()
    else
      Model.read
        ~variant:(Prng.choose rng Model.[| Sys_read; Sys_readv |])
        ~fd ~count:(rand_size rng) ()
  | 2 ->
    if Prng.chance rng 0.4 then
      Model.write ~variant:Model.Sys_pwrite64 ~offset:(rand_signed rng) ~fd
        ~count:(rand_size rng) ()
    else
      Model.write
        ~variant:(Prng.choose rng Model.[| Sys_write; Sys_writev |])
        ~fd ~count:(rand_size rng) ()
  | 3 -> Model.lseek ~fd ~offset:(rand_signed rng) ~whence:(Prng.choose rng whences)
  | 4 ->
    Model.truncate
      ~target:(if Prng.chance rng 0.5 then p else f)
      ~length:(rand_signed rng) ()
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
    let expected = List.sort compare (Partition.of_call call) in
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
             = Plan.Cell_output (base, Partition.output_of base outcome)))
        outcomes)
    Model.all_bases

(* --- dense accumulator vs reference, direct observation --- *)

let snapshot_of_dense d = Snapshot.to_string (Coverage.Dense.to_reference d)

let test_dense_differential_direct () =
  List.iter
    (fun seed ->
      let pairs = gen_pairs ~seed 12_000 in
      let reference = Coverage.create ~metered:false () in
      let dense = Coverage.Dense.create () in
      List.iteri
        (fun i (call, outcome) ->
          if i mod 7 = 0 then begin
            (* input-only path: outcome unknown, output side untouched *)
            Coverage.observe_input_only reference call;
            Coverage.Dense.observe_input_only dense call
          end
          else begin
            Coverage.observe reference call outcome;
            Coverage.Dense.observe dense call outcome
          end)
        pairs;
      check_int
        (Printf.sprintf "calls agree (seed %d)" seed)
        (Coverage.calls_observed reference)
        (Coverage.Dense.calls_observed dense);
      check_string
        (Printf.sprintf "snapshots byte-identical (seed %d)" seed)
        (Snapshot.to_string reference) (snapshot_of_dense dense))
    [ 101; 202; 303 ]

let test_dense_merge_matches_whole () =
  let pairs = gen_pairs ~seed:555 9_000 in
  let whole = Coverage.Dense.create () in
  List.iter (fun (c, o) -> Coverage.Dense.observe whole c o) pairs;
  (* shard the same stream three ways, round-robin, and merge *)
  let shards = Array.init 3 (fun _ -> Coverage.Dense.create ()) in
  List.iteri (fun i (c, o) -> Coverage.Dense.observe shards.(i mod 3) c o) pairs;
  let dst = Coverage.Dense.create () in
  Array.iter (fun s -> Coverage.Dense.merge_into ~dst s) shards;
  check_string "merged shards = whole stream" (snapshot_of_dense whole)
    (snapshot_of_dense dst)

let test_dense_to_reference_merges_with_reference () =
  (* a converted dense accumulator must compose with reference merges *)
  let pairs = gen_pairs ~seed:777 4_000 in
  let a, b = (Coverage.create ~metered:false (), Coverage.Dense.create ()) in
  let all = Coverage.create ~metered:false () in
  List.iteri
    (fun i (c, o) ->
      Coverage.observe all c o;
      if i mod 2 = 0 then Coverage.observe a c o else Coverage.Dense.observe b c o)
    pairs;
  let dst = Coverage.create ~metered:false () in
  Coverage.merge_into ~dst a;
  Coverage.merge_into ~dst (Coverage.Dense.to_reference b);
  check_string "mixed merge" (Snapshot.to_string all) (Snapshot.to_string dst)

(* --- the pipeline differential: the engine's dense accumulator
   against a per-event observe into the hashed reference histograms --- *)

let test_pipeline_differential () =
  let filter = Filter.mount_point "/mnt/test" in
  List.iter
    (fun seed ->
      let events = gen_events ~seed 10_000 in
      let oracle, oracle_kept = Test_par.sequential_coverage filter events in
      let o = Replay.analyze_events ~batch:256 ~filter events in
      let tag = Printf.sprintf "seed=%d" seed in
      check_string (tag ^ " snapshot") (Snapshot.to_string oracle)
        (Snapshot.to_string o.Replay.coverage);
      check_string (tag ^ " report")
        (Report.suite_summary ~name:"fuzz" oracle)
        (Report.suite_summary ~name:"fuzz" o.Replay.coverage);
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
        Alcotest.test_case "to_reference composes with merges" `Quick
          test_dense_to_reference_merges_with_reference ] );
    ( "dense.pipeline",
      [ Alcotest.test_case "both backends" `Quick test_pipeline_differential ] ) ]
