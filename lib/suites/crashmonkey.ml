open Iocov_syscall
open Iocov_vfs
module Prng = Iocov_util.Prng
module Metrics = Iocov_obs.Metrics
module Span = Iocov_obs.Span

let m_workloads =
  Metrics.counter Metrics.default "iocov_suite_tests_total"
    ~labels:[ ("suite", "crashmonkey") ]
    ~help:"Simulated tests executed."

let mount = "/mnt/snapshot"
let comm = "crashmonkey"
let seq1_workloads = 300

type stats = {
  workloads_run : int;
  crashes_simulated : int;
}

(* --- CrashMonkey's open-flag vocabulary ---
   Weighted flag sets per phase, calibrated to Table 1: 4-flag
   combinations dominate, 3-flag second, nearly every set contains
   O_RDONLY. *)

let snapshot_sets =
  let open Open_flags in
  [ (38, [ O_RDONLY; O_NOATIME; O_DIRECT; O_SYNC ]);
    (9, [ O_RDONLY; O_NOATIME; O_SYNC ]);
    (6, [ O_RDONLY; O_NOATIME; O_DIRECT ]);
    (2, [ O_RDONLY; O_SYNC ]) ]

let write_sets =
  let open Open_flags in
  [ (6, [ O_RDWR; O_CREAT; O_TRUNC; O_DSYNC ]);
    (3, [ O_WRONLY; O_CREAT; O_DIRECT; O_SYNC ]);
    (2, [ O_RDWR; O_CREAT; O_TRUNC ]);
    (1, [ O_WRONLY; O_APPEND ]) ]

let pick_flags ctx sets =
  Open_flags.of_flags (Prng.weighted ctx.Workload.rng sets)

(* CrashMonkey's narrow write-size repertoire: a handful of buffer sizes,
   never zero, nothing above 32 KiB. *)
let cm_write_size rng =
  Prng.weighted rng
    [ (3, 1); (2, 17); (3, 100); (6, 1024); (10, 4096); (4, 8192); (3, 16384); (2, 32768) ]

(* --- the seq-1 grid --- *)

type op =
  | Op_creat
  | Op_mkdir
  | Op_write_buffered
  | Op_write_direct
  | Op_overwrite
  | Op_append
  | Op_truncate_shrink
  | Op_truncate_grow
  | Op_link
  | Op_unlink
  | Op_rename
  | Op_symlink
  | Op_setxattr
  | Op_chmod
  | Op_rmdir

let ops =
  [ Op_creat; Op_mkdir; Op_write_buffered; Op_write_direct; Op_overwrite;
    Op_append; Op_truncate_shrink; Op_truncate_grow; Op_link; Op_unlink;
    Op_rename; Op_symlink; Op_setxattr; Op_chmod; Op_rmdir ]

let op_name = function
  | Op_creat -> "creat"
  | Op_mkdir -> "mkdir"
  | Op_write_buffered -> "write"
  | Op_write_direct -> "dwrite"
  | Op_overwrite -> "overwrite"
  | Op_append -> "append"
  | Op_truncate_shrink -> "trunc-"
  | Op_truncate_grow -> "trunc+"
  | Op_link -> "link"
  | Op_unlink -> "unlink"
  | Op_rename -> "rename"
  | Op_symlink -> "symlink"
  | Op_setxattr -> "setxattr"
  | Op_chmod -> "chmod"
  | Op_rmdir -> "rmdir"

let targets =
  [ "foo"; "bar"; "A/foo"; "A/bar"; "B/foo"; "A/C/foo"; "foo2"; "B/bar"; "A/C/bar"; "baz" ]

type persistence = Fsync_file | Sync_all

let persistences = [ Fsync_file; Sync_all ]

(* --- workload phases --- *)

let setup ctx =
  let open Workload in
  List.iter
    (fun d -> ignore (call ctx (Model.mkdir ~mode:0o755 (ctx.mount ^ "/" ^ d))))
    [ "A"; "B"; "A/C" ];
  List.iter
    (fun f ->
      let path = ctx.mount ^ "/" ^ f in
      match open_fd ctx ~mode:0o644 ~flags:(pick_flags ctx write_sets) path with
      | Some fd ->
        ignore (write_fd ctx fd (cm_write_size ctx.rng));
        close_fd ctx fd
      | None -> ())
    [ "foo"; "bar"; "A/foo"; "A/bar"; "B/foo"; "A/C/foo"; "B/bar"; "A/C/bar" ];
  ignore (aux ctx Fs.Sync)

let snapshot_pass ctx paths =
  let open Workload in
  List.iter
    (fun p ->
      match open_fd ctx ~mode:0o644 ~flags:(pick_flags ctx snapshot_sets) (ctx.mount ^ "/" ^ p) with
      | Some fd ->
        ignore (read_fd ctx fd (Prng.weighted ctx.rng [ (4, 4096); (2, 1024); (1, 65536) ]));
        close_fd ctx fd
      | None -> ())
    paths

let apply_op ctx op target =
  let open Workload in
  let path = ctx.mount ^ "/" ^ target in
  match op with
  | Op_creat ->
    (match
       open_fd ctx ~variant:Model.Sys_creat ~mode:0o644
         ~flags:Open_flags.(of_flags [ O_WRONLY; O_CREAT; O_TRUNC ])
         (path ^ ".new")
     with
     | Some fd -> close_fd ctx fd
     | None -> ())
  | Op_mkdir -> ignore (call ctx (Model.mkdir ~mode:0o755 (path ^ ".dir")))
  | Op_write_buffered | Op_write_direct | Op_overwrite | Op_append ->
    let flags =
      let open Open_flags in
      match op with
      | Op_write_direct -> of_flags [ O_WRONLY; O_CREAT; O_DIRECT; O_SYNC ]
      | Op_append -> of_flags [ O_WRONLY; O_APPEND ]
      | _ -> of_flags [ O_RDWR; O_CREAT; O_TRUNC; O_SYNC ]
    in
    (match open_fd ctx ~mode:0o644 ~flags path with
     | Some fd ->
       if op = Op_overwrite then
         ignore (call ctx (Model.lseek ~fd ~offset:0 ~whence:Whence.SEEK_SET));
       ignore (write_fd ctx fd (cm_write_size ctx.rng));
       close_fd ctx fd
     | None -> ())
  | Op_truncate_shrink ->
    ignore (call ctx (Model.truncate ~target:(Model.Path path) ~length:7 ()))
  | Op_truncate_grow ->
    ignore (call ctx (Model.truncate ~target:(Model.Path path) ~length:16384 ()))
  | Op_link -> ignore (aux ctx (Fs.Link (path, path ^ ".lnk")))
  | Op_unlink -> ignore (aux ctx (Fs.Unlink path))
  | Op_rename -> ignore (aux ctx (Fs.Rename (path, path ^ ".rn")))
  | Op_symlink -> ignore (aux ctx (Fs.Symlink (path, path ^ ".sym")))
  | Op_setxattr ->
    ignore
      (call ctx
         (Model.setxattr ~target:(Model.Path path) ~name:"user.cm" ~size:64
            ~flags:Xattr_flag.XATTR_ANY ()))
  | Op_chmod ->
    ignore (call ctx (Model.chmod ~target:(Model.Path path) ~mode:0o600 ()))
  | Op_rmdir -> ignore (aux ctx (Fs.Rmdir (ctx.mount ^ "/A/C")))

(* Persist the op's effects.  Answers (content_persisted, name_persisted):
   fsync of a file persists its inode but not the directory entry naming
   it; only a sync — or an additional fsync of the parent directory —
   makes the {e name} durable. *)
let persist ctx persistence target =
  let open Workload in
  let path = ctx.mount ^ "/" ^ target in
  match persistence with
  | Sync_all ->
    ignore (aux ctx Fs.Sync);
    (true, true)
  | Fsync_file ->
    (match open_fd ctx ~flags:Open_flags.(of_flags [ O_RDONLY ]) path with
     | Some fd ->
       ignore (aux ctx (Fs.Fsync fd));
       close_fd ctx fd;
       (* half the workloads also fsync the parent directory — the
          pattern crash-consistency testing popularized *)
       if Prng.int ctx.rng 2 = 0 then begin
         let parent = Filename.dirname path in
         match
           open_fd ctx ~flags:Open_flags.(of_flags [ O_RDONLY; O_DIRECTORY ]) parent
         with
         | Some dfd ->
           ignore (aux ctx (Fs.Fsync dfd));
           close_fd ctx dfd;
           (true, true)
         | None -> (true, false)
       end
       else (true, false)
     | None -> (false, false))

let oracle ctx ?(recreated = false) ~recorded ~content_persisted ~name_persisted target =
  let open Workload in
  let path = ctx.mount ^ "/" ^ target in
  let filesystem = fs ctx in
  ignore (aux ctx Fs.Crash);
  (* Content equality is only owed when the observed name is bound to the
     fsynced inode: if the workload re-created the file and never made
     the new directory entry durable, the crash legally resurfaces the
     OLD inode under this name. *)
  let content_checkable = content_persisted && (name_persisted || not recreated) in
  (* post-crash verification pass: plain O_RDONLY opens *)
  (match open_fd ctx ~flags:Open_flags.(of_flags [ O_RDONLY ]) path with
   | Some fd ->
     ignore (read_fd ctx fd 4096);
     close_fd ctx fd;
     (match (recorded, Fs.checksum filesystem path) with
      | Some before, Ok after when content_checkable && before <> after ->
        fail ctx (Printf.sprintf "persisted content of %s lost in crash" target)
      | _ -> ())
   | None ->
     (* a vanished file is a bug only when its name was made durable *)
     if content_persisted && name_persisted && recorded <> None then
       fail ctx (Printf.sprintf "persisted file %s missing after crash" target))

let seq1 ctx ~crashes op target persistence =
  let open Workload in
  begin_test ctx
    (Printf.sprintf "seq1/%s-%s-%s" (op_name op) target
       (match persistence with Fsync_file -> "fsync" | Sync_all -> "sync"));
  setup ctx;
  snapshot_pass ctx [ "foo"; "bar"; "A/foo"; "A/bar"; "B/foo"; "A/C/foo" ];
  apply_op ctx op target;
  (* CrashMonkey records the full pre-persistence oracle state *)
  snapshot_pass ctx [ "foo"; "bar"; "A/foo"; "A/bar"; "B/foo"; "A/C/foo" ];
  let recorded =
    match Fs.checksum (fs ctx) (ctx.mount ^ "/" ^ target) with
    | Ok c -> Some c
    | Error _ -> None
  in
  let content_persisted, name_persisted = persist ctx persistence target in
  oracle ctx ~recorded ~content_persisted ~name_persisted target;
  (* full post-crash comparison pass against the recorded oracle state *)
  snapshot_pass ctx [ "foo"; "bar"; "A/foo"; "A/bar"; "B/foo"; "A/C/foo" ];
  incr crashes;
  (* leave a clean durable base for the next workload *)
  ignore (aux ctx Fs.Sync)

(* Rule-based black-box "generic" tests: short random sequences probing
   odd paths — this is where CrashMonkey's ENOTDIR coverage comes from. *)
let generic ctx index =
  let open Workload in
  begin_test ctx (Printf.sprintf "generic/%03d" index);
  setup ctx;
  let file = ctx.mount ^ "/foo" in
  (* open through a file component *)
  ignore (call ctx (Model.open_ ~flags:Open_flags.(of_flags [ O_RDONLY ]) (file ^ "/sub")));
  (* exclusive create of an existing file *)
  ignore
    (call ctx
       (Model.open_ ~mode:0o644
          ~flags:Open_flags.(of_flags [ O_RDONLY; O_CREAT; O_EXCL; O_DIRECT; O_SYNC ])
          file));
  (* a burst of random small ops *)
  for _ = 1 to 12 do
    match Prng.int ctx.rng 5 with
    | 0 -> snapshot_pass ctx [ "foo"; "bar" ]
    | 1 -> apply_op ctx (Prng.choose_list ctx.rng ops) (Prng.choose_list ctx.rng targets)
    | 2 ->
      ignore
        (call ctx
           (Model.lseek ~fd:(2 + Prng.int ctx.rng 4) ~offset:(Prng.int ctx.rng 4096)
              ~whence:Whence.SEEK_SET))
    | 3 ->
      ignore
        (call ctx (Model.open_ ~flags:Open_flags.(of_flags [ O_RDONLY ]) (ctx.mount ^ "/nope")))
    | _ ->
      ignore
        (call ctx
           (Model.getxattr ~target:(Model.Path file) ~name:"user.cm" ~size:64 ()))
  done;
  ignore (aux ctx Fs.Sync)

(* seq-2: a sampled pair of operations before the persistence point —
   CrashMonkey's next bound in the same harness. *)
let seq2_workload ctx ~crashes rng =
  let open Workload in
  let op1 = Prng.choose_list rng ops and op2 = Prng.choose_list rng ops in
  let target1 = Prng.choose_list rng targets and target2 = Prng.choose_list rng targets in
  let persistence = if Prng.bool rng then Fsync_file else Sync_all in
  (* did op1 break the name-to-inode binding op2 then re-created? *)
  let recreated = (op1 = Op_unlink || op1 = Op_rename) && target1 = target2 in
  begin_test ctx
    (Printf.sprintf "seq2/%s-%s+%s-%s" (op_name op1) target1 (op_name op2) target2);
  setup ctx;
  snapshot_pass ctx [ "foo"; "bar"; "A/foo" ];
  apply_op ctx op1 target1;
  apply_op ctx op2 target2;
  snapshot_pass ctx [ "foo"; "bar"; "A/foo" ];
  let recorded =
    match Fs.checksum (fs ctx) (ctx.mount ^ "/" ^ target2) with
    | Ok c -> Some c
    | Error _ -> None
  in
  let content_persisted, name_persisted = persist ctx persistence target2 in
  oracle ctx ~recreated ~recorded ~content_persisted ~name_persisted target2;
  incr crashes;
  ignore (aux ctx Fs.Sync)

(* --- scenarios for the crash engine (DESIGN.md §17) ---

   The seq-1 shape expressed as ordered engine steps: a durable setup
   tree, one grid operation, one persistence point.  The engine then
   enumerates every bounded crash state of that log — the systematic
   version of the single [Crash] the harness above injects. *)

let crash_scenarios =
  let open Iocov_crash.Engine in
  let p name = mount ^ "/" ^ name in
  let setup =
    [ Mkdir (p "A"); Creat (p "foo"); Write (p "foo", 0, 8192);
      Creat (p "A/bar"); Write (p "A/bar", 0, 4096) ]
  in
  List.map
    (fun (name, body) ->
      { sc_name = name; sc_mount = mount; sc_uid = None; sc_setup = setup;
        sc_body = body })
    [ ("cm-creat-fsync", [ Creat (p "foo.new"); Fsync (p "foo.new") ]);
      ("cm-append-sync", [ Append (p "foo", 6000); Sync ]);
      ("cm-trunc-fsync", [ Truncate (p "foo", 7); Fsync (p "foo") ]);
      ("cm-rename-fsync",
       [ Write (p "foo.tmp", 0, 8192); Fsync (p "foo.tmp");
         Rename (p "foo.tmp", p "foo") ]);
      ("cm-unlink-sync", [ Unlink (p "A/bar"); Sync; Creat (p "A/bar") ]);
      ("cm-setxattr-fdatasync",
       [ Setxattr (p "foo", "user.cm", 64); Fdatasync (p "foo") ]) ]

let emit ?(seed = 42) ?(scale = 1.0) ?(faults = []) ?config ?on_test ?(seq2 = 0)
    ~on_record () =
  let config =
    Config.with_faults faults (Option.value config ~default:Config.default)
  in
  let ctx = Workload.init ~config ~comm ?on_test ~on_record ~mount ~seed () in
  Workload.noise ctx;
  let crashes = ref 0 in
  let reps = max 1 (int_of_float (Float.round scale)) in
  Span.with_ ~name:"crashmonkey/seq1" (fun () ->
      for _ = 1 to reps do
        List.iter
          (fun persistence ->
            List.iter
              (fun op ->
                List.iter
                  (fun target ->
                    Metrics.Counter.incr m_workloads;
                    seq1 ctx ~crashes op target persistence)
                  targets)
              ops)
          persistences
      done);
  let seq2_rng = Prng.create ~seed:(seed + 1) in
  if seq2 > 0 then
    Span.with_ ~name:"crashmonkey/seq2" (fun () ->
        for _ = 1 to seq2 do
          Metrics.Counter.incr m_workloads;
          seq2_workload ctx ~crashes seq2_rng
        done);
  let generic_count = max 1 (int_of_float (50.0 *. scale)) in
  Span.with_ ~name:"crashmonkey/generic" (fun () ->
      for i = 1 to generic_count do
        Metrics.Counter.incr m_workloads;
        generic ctx i
      done);
  let stats =
    {
      workloads_run = (reps * List.length ops * List.length targets * 2) + seq2 + generic_count;
      crashes_simulated = !crashes;
    }
  in
  (Workload.failures ctx, stats)

let run ?seed ?scale ?faults ?config ?sink ?dispatch ?seq2 ~coverage () =
  Workload.run_inline ~mount ?sink ?dispatch ~coverage (fun on_record ->
      emit ?seed ?scale ?faults ?config ?seq2 ~on_record ())
