(* Config-lattice tests: canonical serialization round-trip (QCheck over
   all 17 fields), lattice shape and determinism, the EDQUOT-vs-ENOSPC
   quota ordering regression, the lazy config-sharded coverage matrix,
   checkpointed kill/resume at lattice points, ledger config tagging,
   and hub tenant config pinning. *)

open Iocov_vfs
module Model = Iocov_syscall.Model
module Errno = Iocov_syscall.Errno
module Open_flags = Iocov_syscall.Open_flags
module Coverage = Iocov_core.Coverage
module Snapshot = Iocov_core.Snapshot
module Runner = Iocov_suites.Runner
module Replay = Iocov_par.Replay
module Checkpoint = Iocov_par.Checkpoint
module Ledger = Iocov_pipe.Ledger
module Hub = Iocov_serve.Hub

let check_bool = Alcotest.(check bool)
let check_int = Alcotest.(check int)
let check_string = Alcotest.(check string)

let point name =
  match Config.point_named name with
  | Some p -> p
  | None -> Alcotest.failf "lattice point %S missing" name

let contains hay needle =
  let nh = String.length hay and nn = String.length needle in
  let rec at i = i + nn <= nh && (String.sub hay i nn = needle || at (i + 1)) in
  at 0

(* --- canonical serialization --- *)

let test_round_trip_named () =
  Array.iter
    (fun (p : Config.point) ->
      let text = Config.to_string p.Config.pt_config in
      (match Config.of_string text with
       | Ok c ->
         check_bool (p.Config.pt_name ^ " round-trips") true
           (Config.equal c p.Config.pt_config)
       | Error msg -> Alcotest.failf "%s: %s" p.Config.pt_name msg);
      check_int (p.Config.pt_name ^ " digest width") 8
        (String.length (Config.digest p.Config.pt_config)))
    Config.lattice;
  (* the two quota spellings parse back to what they mean *)
  let def = Config.to_string Config.default in
  check_bool "default has no quota" true
    (Config.default.Config.quota_blocks = None);
  check_bool "quota=none serialized" true (contains def "quota_blocks=none");
  check_bool "quota=512 serialized" true
    (contains (Config.to_string Config.small) "quota_blocks=512")

let test_of_string_rejects () =
  let bad = [
    "";                                           (* no fields *)
    "block_size=4096";                            (* missing fields *)
    Config.to_string Config.default ^ " extra=1"; (* unknown field *)
    Config.to_string Config.default ^ " uid=1";   (* duplicate field *)
  ] in
  List.iter
    (fun text ->
      check_bool "rejected" true (Result.is_error (Config.of_string text)))
    bad

let config_gen =
  let open QCheck.Gen in
  let nat = oneof [ int_range 0 4096; int_range 0 (1 lsl 20); return (1 lsl 40) ] in
  let faults_gen =
    (* any sublist of the fault universe, order preserved *)
    List.fold_right
      (fun f acc ->
        bool >>= fun keep ->
        acc >|= fun fs -> if keep then f :: fs else fs)
      Fault.all (return [])
  in
  nat >>= fun block_size ->
  nat >>= fun total_blocks ->
  nat >>= fun max_file_size ->
  nat >>= fun large_file_threshold ->
  int_range 0 4096 >>= fun max_name_len ->
  int_range 0 65536 >>= fun max_path_len ->
  int_range 0 64 >>= fun max_symlink_depth ->
  int_range 0 65536 >>= fun max_open_files ->
  int_range 0 65536 >>= fun max_system_files ->
  nat >>= fun max_xattr_value ->
  nat >>= fun xattr_space ->
  opt nat >>= fun quota_blocks ->
  bool >>= fun read_only ->
  int_range 0 65535 >>= fun uid ->
  int_range 0 65535 >>= fun gid ->
  faults_gen >>= fun faults ->
  oneofl Config.all_journal_modes >|= fun journal_mode ->
  { Config.block_size; total_blocks; max_file_size; large_file_threshold;
    max_name_len; max_path_len; max_symlink_depth; max_open_files;
    max_system_files; max_xattr_value; xattr_space; quota_blocks; read_only;
    uid; gid; faults; journal_mode }

let round_trip_prop =
  QCheck.Test.make ~name:"to_string/of_string round-trips any config" ~count:500
    (QCheck.make config_gen) (fun c ->
      match Config.of_string (Config.to_string c) with
      | Ok c' -> Config.equal c c'
      | Error _ -> false)

let digest_prop =
  QCheck.Test.make ~name:"digest discriminates canonical forms" ~count:200
    (QCheck.make (QCheck.Gen.pair config_gen config_gen)) (fun (a, b) ->
      if Config.equal a b then Config.digest a = Config.digest b
      else
        (* distinct canonical text implies distinct CRC in practice on
           this generator's range; equal digests with distinct text
           would still be a legal CRC collision, so only check the
           canonical-form contract *)
        Config.to_string a <> Config.to_string b
        || Config.digest a = Config.digest b)

(* --- the lattice --- *)

let test_lattice_shape () =
  check_int "18 points" 18 Config.lattice_count;
  check_int "array agrees" Config.lattice_count (Array.length Config.lattice);
  Array.iteri
    (fun i (p : Config.point) -> check_int ("dense id " ^ p.Config.pt_name) i p.Config.pt_id)
    Config.lattice;
  check_string "point 0 is default" "default" Config.default_point.Config.pt_name;
  check_bool "point 0 carries the default config" true
    (Config.equal Config.default_point.Config.pt_config Config.default);
  (* names are unique and resolvable *)
  Array.iter
    (fun (p : Config.point) ->
      match Config.point_named p.Config.pt_name with
      | Some p' -> check_int (p.Config.pt_name ^ " resolves") p.Config.pt_id p'.Config.pt_id
      | None -> Alcotest.failf "%s does not resolve" p.Config.pt_name)
    Config.lattice;
  check_bool "unknown name" true (Config.point_named "nope" = None);
  check_int "digest width" 8 (String.length Config.lattice_digest)

let test_lattice_print_parse () =
  match Config.parse_lattice (Config.print_lattice ()) with
  | Error msg -> Alcotest.failf "print_lattice does not parse: %s" msg
  | Ok points ->
    check_int "same count" Config.lattice_count (List.length points);
    List.iteri
      (fun i (p : Config.point) ->
        let b = Config.lattice.(i) in
        check_string "name" b.Config.pt_name p.Config.pt_name;
        check_int "id" b.Config.pt_id p.Config.pt_id;
        check_bool "config" true (Config.equal b.Config.pt_config p.Config.pt_config))
      points

let test_points_of_spec () =
  (match Config.points_of_spec "all" with
   | Ok ps -> check_int "all" Config.lattice_count (List.length ps)
   | Error msg -> Alcotest.fail msg);
  (match Config.points_of_spec "tiny-quota,default" with
   | Ok [ a; b ] ->
     check_string "order kept" "tiny-quota" a.Config.pt_name;
     check_string "order kept" "default" b.Config.pt_name
   | Ok _ -> Alcotest.fail "expected two points"
   | Error msg -> Alcotest.fail msg);
  (match Config.points_of_spec "default,default" with
   | Ok ps -> check_int "dedup" 1 (List.length ps)
   | Error msg -> Alcotest.fail msg);
  check_bool "unknown name is an error" true
    (Result.is_error (Config.points_of_spec "default,bogus"))

(* --- the EDQUOT-vs-ENOSPC ordering regression ---

   A quota-bound write by a non-root owner must short-write up to the
   quota limit (EDQUOT only on zero progress), exactly as a
   device-bound write short-writes up to ENOSPC; and when the device is
   the tighter constraint the error must be ENOSPC, never EDQUOT. *)

let creat_rw = Open_flags.of_flags Open_flags.[ O_RDWR; O_CREAT ]

let test_quota_short_write () =
  let config =
    { Config.small with Config.total_blocks = 1024; quota_blocks = Some 4 }
  in
  let fs = Fs.create ~config () in
  ignore (Fs.exec fs (Model.mkdir ~mode:0o755 "/d"));
  ignore (Fs.exec fs (Model.chmod ~target:(Model.Path "/d") ~mode:0o777 ()));
  Fs.set_credentials fs ~uid:1000 ~gid:1000;
  (* creat charges the inode block to uid 1000: 1 of 4 quota blocks *)
  let fd =
    match Fs.exec fs (Model.open_ ~mode:0o644 ~flags:creat_rw "/d/f") with
    | Model.Ret fd -> fd
    | Model.Err e -> Alcotest.failf "creat: %s" (Errno.to_string e)
  in
  let bs = config.Config.block_size in
  (* ask for 8 blocks; only 3 quota blocks remain and the device has
     ~1000 free, so the quota is the binding constraint: short write *)
  (match Fs.exec fs (Model.write ~fd ~count:(8 * bs) ()) with
   | Model.Ret n -> check_int "short write up to the quota" (3 * bs) n
   | Model.Err e ->
     Alcotest.failf "expected a short write, got %s" (Errno.to_string e));
  (* zero room left: now EDQUOT, with plenty of device space *)
  (match Fs.exec fs (Model.write ~fd ~count:bs ()) with
   | Model.Err Errno.EDQUOT -> ()
   | Model.Err e -> Alcotest.failf "expected EDQUOT, got %s" (Errno.to_string e)
   | Model.Ret n -> Alcotest.failf "expected EDQUOT, wrote %d" n);
  ignore (Fs.exec fs (Model.close fd))

let test_device_enospc_before_quota () =
  (* device of 8 blocks, quota of 1000: same workload must fail ENOSPC *)
  let config =
    { Config.small with Config.total_blocks = 8; quota_blocks = Some 1000 }
  in
  let fs = Fs.create ~config () in
  ignore (Fs.exec fs (Model.mkdir ~mode:0o755 "/d"));
  ignore (Fs.exec fs (Model.chmod ~target:(Model.Path "/d") ~mode:0o777 ()));
  Fs.set_credentials fs ~uid:1000 ~gid:1000;
  let fd =
    match Fs.exec fs (Model.open_ ~mode:0o644 ~flags:creat_rw "/d/f") with
    | Model.Ret fd -> fd
    | Model.Err e -> Alcotest.failf "creat: %s" (Errno.to_string e)
  in
  let bs = config.Config.block_size in
  (* root dir + /d + inode = 3 blocks used; 5 remain on the device *)
  (match Fs.exec fs (Model.write ~fd ~count:(16 * bs) ()) with
   | Model.Ret n -> check_int "short write up to the device" (5 * bs) n
   | Model.Err e ->
     Alcotest.failf "expected a short write, got %s" (Errno.to_string e));
  (match Fs.exec fs (Model.write ~fd ~count:bs ()) with
   | Model.Err Errno.ENOSPC -> ()
   | Model.Err e -> Alcotest.failf "expected ENOSPC, got %s" (Errno.to_string e)
   | Model.Ret n -> Alcotest.failf "expected ENOSPC, wrote %d" n);
  ignore (Fs.exec fs (Model.close fd))

(* --- kill/resume checkpoint differential at lattice points ---

   For three lattice points, trace LTP pinned to the point, then replay
   the trace with a mid-stream kill and a checkpointed resume: the
   final snapshot must be byte-identical to the
   uninterrupted run's. *)

let with_temp_file f =
  let path = Filename.temp_file "iocov_config" ".bin" in
  Fun.protect (fun () -> f path)
    ~finally:(fun () -> try Sys.remove path with Sys_error _ -> ())

let trace_of_point (p : Config.point) path =
  let oc = open_out_bin path in
  let writer = Iocov_trace.Binary_io.writer oc in
  ignore
    (Iocov_suites.Ltp.emit ~seed:11 ~scale:0.2
       ?config:(Runner.config_of_point p)
       ~on_record:(Iocov_trace.Binary_io.sink writer) ());
  Iocov_trace.Binary_io.flush writer;
  close_out oc

let test_lattice_checkpoint_resume () =
  let filter = Iocov_trace.Filter.mount_point Iocov_suites.Ltp.mount in
  let points = [ point "default"; point "tiny-quota"; point "no-xattr-space" ] in
  List.iter
    (fun (p : Config.point) ->
      with_temp_file (fun trace ->
          trace_of_point p trace;
          let full =
            match Replay.analyze_file ~filter trace with
            | Ok o -> o
            | Error msg -> Alcotest.failf "%s: full run: %s" p.Config.pt_name msg
          in
          let want = Snapshot.to_string full.Replay.coverage in
          check_bool (p.Config.pt_name ^ " trace is non-trivial") true
            (full.Replay.events > 100);
          with_temp_file (fun ck_path ->
              let limit = full.Replay.events / 2 in
              (match
                 Replay.analyze_file
                   ~checkpoint:
                     { Replay.ckpt_path = ck_path;
                       ckpt_every = max 1 (limit / 3) }
                   ~limit ~filter trace
               with
              | Ok o -> check_int "killed at the limit" limit o.Replay.events
              | Error msg -> Alcotest.failf "interrupted run: %s" msg);
              let ck =
                match Checkpoint.load ck_path with
                | Ok ck -> ck
                | Error msg -> Alcotest.failf "checkpoint load: %s" msg
              in
              match Replay.analyze_file ~resume:(ck_path, ck) ~filter trace with
              | Error msg -> Alcotest.failf "resume: %s" msg
              | Ok o ->
                check_string
                  (p.Config.pt_name ^ " resumed byte-identical")
                  want
                  (Snapshot.to_string o.Replay.coverage))))
    points

(* --- ledger config tagging --- *)

let mk_record ?config label =
  Ledger.make ~time:1000.0 ~seed:1 ?config ~subcommand:"suite" ~label ~flags:[]
    ~jobs:1 ~counters:"dense" ~events:10 ~kept:10 ~lost:0 ~wall_s:0.1 ~stages:[]
    (Coverage.create ())

let test_ledger_config_round_trip () =
  let tagged = mk_record ~config:("tiny-quota", "deadbeef") "LTP" in
  let plain = mk_record "LTP" in
  (match Ledger.of_json (Ledger.to_json tagged) with
   | Ok r ->
     check_bool "config survives json" true
       (r.Ledger.r_config = Some ("tiny-quota", "deadbeef"))
   | Error msg -> Alcotest.fail msg);
  (match Ledger.of_json (Ledger.to_json plain) with
   | Ok r -> check_bool "no config stays none" true (r.Ledger.r_config = None)
   | Error msg -> Alcotest.fail msg);
  check_string "config_name tagged" "tiny-quota" (Ledger.config_name tagged);
  check_string "config_name plain" "-" (Ledger.config_name plain)

let test_ledger_config_clash () =
  let a = mk_record ~config:("default", "11111111") "A" in
  let b = mk_record ~config:("tiny", "22222222") "B" in
  let a' = mk_record ~config:("default", "11111111") "A2" in
  let plain = mk_record "P" in
  check_bool "different digests clash" true (Ledger.config_clash a b);
  check_bool "same digest no clash" false (Ledger.config_clash a a');
  check_bool "pre-lattice records never clash" false (Ledger.config_clash a plain);
  check_bool "both plain never clash" false (Ledger.config_clash plain plain)

(* --- hub tenant pinning --- *)

let test_hub_config_pinning () =
  let hub = Hub.create () in
  let tiny = point "tiny-quota" in
  (match Hub.declare_config hub ~tenant:"alice" tiny with
   | Ok () -> ()
   | Error msg -> Alcotest.fail msg);
  (match Hub.declare_config hub ~tenant:"alice" tiny with
   | Ok () -> ()
   | Error msg -> Alcotest.failf "re-declaring the same point: %s" msg);
  (match Hub.declare_config hub ~tenant:"alice" (point "default") with
   | Ok () -> Alcotest.fail "switching configs must be refused"
   | Error msg ->
     check_bool "error names both points" true
       (contains msg "tiny-quota" && contains msg "default"));
  (match Hub.tenant_config hub ~tenant:"alice" with
   | Some p -> check_string "pinned" "tiny-quota" p.Config.pt_name
   | None -> Alcotest.fail "tenant config lost");
  check_bool "unknown tenant unpinned" true
    (Hub.tenant_config hub ~tenant:"bob" = None)

let suites =
  [ ( "config-lattice",
      [ Alcotest.test_case "named points round-trip" `Quick test_round_trip_named;
        Alcotest.test_case "of_string rejects malformed" `Quick test_of_string_rejects;
        QCheck_alcotest.to_alcotest round_trip_prop;
        QCheck_alcotest.to_alcotest digest_prop;
        Alcotest.test_case "lattice shape" `Quick test_lattice_shape;
        Alcotest.test_case "print/parse lattice" `Quick test_lattice_print_parse;
        Alcotest.test_case "points_of_spec" `Quick test_points_of_spec;
        Alcotest.test_case "quota short-write then EDQUOT" `Quick
          test_quota_short_write;
        Alcotest.test_case "device ENOSPC before quota" `Quick
          test_device_enospc_before_quota;
        Alcotest.test_case "checkpoint resume at lattice points" `Quick
          test_lattice_checkpoint_resume;
        Alcotest.test_case "ledger config round-trip" `Quick
          test_ledger_config_round_trip;
        Alcotest.test_case "ledger config clash" `Quick test_ledger_config_clash;
        Alcotest.test_case "hub config pinning" `Quick test_hub_config_pinning ] ) ]
