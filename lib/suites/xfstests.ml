open Iocov_syscall
open Iocov_vfs
module Prng = Iocov_util.Prng
module Metrics = Iocov_obs.Metrics
module Span = Iocov_obs.Span

let m_tests =
  Metrics.counter Metrics.default "iocov_suite_tests_total"
    ~labels:[ ("suite", "xfstests") ]
    ~help:"Simulated tests executed."

let mount = "/mnt/test"
let comm = "xfstests"
let generic_tests = 706
let ext4_tests = 308

type stats = { tests_run : int }

(* --- the xfstests open-flag vocabulary ---
   Calibrated to Table 1's xfstests rows: 4-flag combinations dominate,
   2-flag second, a thin tail of 5- and 6-flag sets, O_RDONLY the most
   popular flag.  O_LARGEFILE, O_ASYNC, and O_RSYNC never appear — the
   untested flags the paper calls out. *)

let read_sets =
  let open Open_flags in
  [ (30, [ O_RDONLY; O_NONBLOCK; O_NOFOLLOW; O_CLOEXEC ]);
    (17, [ O_RDONLY; O_CLOEXEC ]);
    (4, [ O_RDONLY; O_NOATIME; O_CLOEXEC ]);
    (4, [ O_RDONLY ]) ]

(* Creation sets: every one contains O_CREAT, so they are safe on paths
   that do not exist yet. *)
let create_sets =
  let open Open_flags in
  [ (16, [ O_WRONLY; O_CREAT; O_TRUNC; O_NONBLOCK ]);
    (8, [ O_RDWR; O_CREAT; O_DIRECT; O_SYNC ]);
    (7, [ O_WRONLY; O_CREAT; O_TRUNC ]);
    (3, [ O_RDWR; O_CREAT; O_EXCL ]);
    (1, [ O_WRONLY; O_CREAT; O_TRUNC; O_DSYNC; O_NOCTTY ]);
    (1, [ O_RDWR; O_CREAT; O_EXCL; O_DIRECT; O_DSYNC; O_NOFOLLOW ]) ]

(* Re-open sets for paths that already exist. *)
let reopen_sets =
  let open Open_flags in
  [ (5, [ O_WRONLY; O_APPEND ]); (1, [ O_WRONLY ]) ]

let dir_sets =
  let open Open_flags in
  [ (6, [ O_RDONLY; O_DIRECTORY ]); (1, [ O_PATH; O_CLOEXEC ]) ]

let pick ctx sets = Open_flags.of_flags (Prng.weighted ctx.Workload.rng sets)

let pick_read ctx = pick ctx read_sets
let pick_create ctx = pick ctx create_sets

(* Write sizes spanning every log2 bucket up to 128 KiB, weighted toward
   small sizes as real workloads are; the occasional large I/O and the
   258 MiB maximum come from dedicated archetypes. *)
let small_size ctx =
  let rng = ctx.Workload.rng in
  if Prng.chance rng 0.02 then 0
  else Prng.pow2_size rng ~max_log2:17

let open_variant ctx =
  Prng.weighted ctx.Workload.rng
    [ (70, Model.Sys_open); (26, Model.Sys_openat); (4, Model.Sys_openat2) ]

(* --- archetypes --- *)

let rw_seq ctx ~iters =
  let open Workload in
  for i = 1 to iters do
    let path = fresh_name ctx "seq" in
    (match open_fd ctx ~variant:(open_variant ctx) ~mode:0o644 ~flags:(pick_create ctx) path with
     | Some fd ->
       let size = small_size ctx in
       (match write_fd ctx fd size with
        | Model.Ret n when n = size -> ()
        | outcome -> expect_ret ctx "sequential write" size outcome);
       close_fd ctx fd
     | None -> fail ctx "create failed in rw_seq");
    (* occasional append pass over the fresh file *)
    if Prng.chance ctx.rng 0.2 then begin
      match open_fd ctx ~flags:(pick ctx reopen_sets) path with
      | Some fd ->
        ignore (write_fd ctx fd (small_size ctx));
        close_fd ctx fd
      | None -> fail ctx "re-open for append failed in rw_seq"
    end;
    (match open_fd ctx ~variant:(open_variant ctx) ~flags:(pick_read ctx) path with
     | Some fd ->
       ignore (read_fd ctx fd (small_size ctx));
       close_fd ctx fd
     | None -> fail ctx "re-open failed in rw_seq");
    (* stale-path probe: regression tests routinely stat files that are
       expected to be gone *)
    if i mod 16 = 0 then
      expect_err ctx "stale path" Errno.ENOENT
        (call ctx (Model.open_ ~flags:Open_flags.(of_flags [ O_RDONLY ]) (path ^ ".gone")));
    ignore (aux ctx (Fs.Unlink path))
  done

let rw_random ctx ~iters =
  let open Workload in
  (* Recycle the target file periodically: random overwrites fragment the
     extent list, and O_TRUNC resets it — as fsx-style testers re-seed
     their files. *)
  let batch = 192 in
  let remaining = ref iters in
  while !remaining > 0 do
    let n = min batch !remaining in
    remaining := !remaining - n;
    let path = fresh_name ctx "rnd" in
    (match
       open_fd ctx ~mode:0o644
         ~flags:Open_flags.(of_flags [ O_RDWR; O_CREAT; O_DIRECT; O_SYNC ]) path
     with
     | None -> fail ctx "open failed in rw_random"
     | Some fd ->
       expect_ret ctx "seed write" 65536 (write_fd ctx fd 65536);
       for _ = 1 to n do
         let off = Prng.int ctx.rng 65536 in
         let size = Prng.pow2_size ctx.rng ~max_log2:12 in
         expect_ret ctx "pwrite" size
           (write_fd ctx ~variant:Model.Sys_pwrite64 ~offset:off fd size);
         ignore (read_fd ctx ~variant:Model.Sys_pread64 ~offset:(Prng.int ctx.rng 70000) fd size);
         (* offset-zero boundary *)
         if Prng.chance ctx.rng 0.1 then
           ignore (read_fd ctx ~variant:Model.Sys_pread64 ~offset:0 fd 1)
       done;
       close_fd ctx fd);
    ignore (aux ctx (Fs.Unlink path))
  done

let vectored ctx ~iters =
  let open Workload in
  let path = make_file ctx ~size:8192 "vec" in
  match open_fd ctx ~mode:0o644 ~flags:Open_flags.(of_flags [ O_RDWR; O_CREAT; O_TRUNC; O_CLOEXEC ]) path with
  | None -> fail ctx "open failed in vectored"
  | Some fd ->
    for _ = 1 to iters do
      let size = Prng.pow2_size ctx.rng ~max_log2:14 in
      expect_ret ctx "writev" size (write_fd ctx ~variant:Model.Sys_writev fd size);
      ignore (call ctx (Model.lseek ~fd ~offset:0 ~whence:Whence.SEEK_SET));
      ignore (read_fd ctx ~variant:Model.Sys_readv fd size)
    done;
    close_fd ctx fd

let zero_boundary ctx =
  let open Workload in
  let path = make_file ctx ~size:4096 "zb" in
  (match open_fd ctx ~mode:0o644 ~flags:Open_flags.(of_flags [ O_RDWR ]) path with
   | None -> fail ctx "open failed in zero_boundary"
   | Some fd ->
     (* POSIX-legal zero-size transfers *)
     expect_ret ctx "write of 0" 0 (write_fd ctx fd 0);
     expect_ret ctx "read of 0" 0 (read_fd ctx fd 0);
     let before = call ctx (Model.lseek ~fd ~offset:0 ~whence:Whence.SEEK_CUR) in
     expect_ret ctx "offset unmoved by zero write" 0 before;
     (* power-of-two edges: 2^k - 1, 2^k, 2^k + 1 *)
     List.iter
       (fun k ->
         let base = 1 lsl k in
         List.iter
           (fun size ->
             expect_ret ctx "boundary write" size
               (write_fd ctx ~variant:Model.Sys_pwrite64 ~offset:0 fd size))
           [ base - 1; base; base + 1 ])
       [ 1; 4; 9; 12; 16 ];
     close_fd ctx fd);
  ignore (aux ctx (Fs.Unlink path))

let seek_all ctx =
  let open Workload in
  let path = make_file ctx "sparse" in
  match open_fd ctx ~mode:0o644 ~flags:Open_flags.(of_flags [ O_RDWR ]) path with
  | None -> fail ctx "open failed in seek_all"
  | Some fd ->
    (* data at [4096, 8192), hole elsewhere; logical size 65536 *)
    expect_ret ctx "sparse write" 4096
      (write_fd ctx ~variant:Model.Sys_pwrite64 ~offset:4096 fd 4096);
    expect_ok ctx "extend" (call ctx (Model.truncate ~target:(Model.Fd fd) ~length:65536 ()));
    expect_ret ctx "SEEK_SET" 123 (call ctx (Model.lseek ~fd ~offset:123 ~whence:Whence.SEEK_SET));
    expect_ret ctx "SEEK_CUR" 124 (call ctx (Model.lseek ~fd ~offset:1 ~whence:Whence.SEEK_CUR));
    expect_ret ctx "SEEK_END" 65546 (call ctx (Model.lseek ~fd ~offset:10 ~whence:Whence.SEEK_END));
    expect_ret ctx "SEEK_DATA finds data" 4096
      (call ctx (Model.lseek ~fd ~offset:0 ~whence:Whence.SEEK_DATA));
    expect_ret ctx "SEEK_HOLE after data" 8192
      (call ctx (Model.lseek ~fd ~offset:4096 ~whence:Whence.SEEK_HOLE));
    expect_err ctx "SEEK_DATA in trailing hole" Errno.ENXIO
      (call ctx (Model.lseek ~fd ~offset:8192 ~whence:Whence.SEEK_DATA));
    expect_err ctx "negative seek" Errno.EINVAL
      (call ctx (Model.lseek ~fd ~offset:(-200000) ~whence:Whence.SEEK_CUR));
    expect_err ctx "huge seek" Errno.EOVERFLOW
      (call ctx (Model.lseek ~fd ~offset:(1 lsl 61) ~whence:Whence.SEEK_SET));
    (* SEEK_HOLE at the very end of data is where off-by-ones live *)
    expect_ret ctx "SEEK_HOLE at size boundary" 65535
      (call ctx (Model.lseek ~fd ~offset:65535 ~whence:Whence.SEEK_HOLE));
    close_fd ctx fd

let truncate_bounds ctx =
  let open Workload in
  let path = make_file ctx ~size:10000 "tr" in
  expect_ok ctx "shrink" (call ctx (Model.truncate ~target:(Model.Path path) ~length:1 ()));
  expect_ok ctx "to zero" (call ctx (Model.truncate ~target:(Model.Path path) ~length:0 ()));
  expect_ok ctx "grow" (call ctx (Model.truncate ~target:(Model.Path path) ~length:1048576 ()));
  expect_err ctx "negative length" Errno.EINVAL
    (call ctx (Model.truncate ~target:(Model.Path path) ~length:(-1) ()));
  expect_err ctx "missing file" Errno.ENOENT
    (call ctx (Model.truncate ~target:(Model.Path (ctx.mount ^ "/absent")) ~length:0 ()));
  let dir = fresh_dir ctx in
  expect_err ctx "truncate dir" Errno.EISDIR
    (call ctx (Model.truncate ~target:(Model.Path dir) ~length:0 ()));
  expect_err ctx "truncate through file" Errno.ENOTDIR
    (call ctx (Model.truncate ~target:(Model.Path (path ^ "/x")) ~length:0 ()));
  (match open_fd ctx ~flags:Open_flags.(of_flags [ O_RDWR ]) path with
   | Some fd ->
     expect_ok ctx "ftruncate" (call ctx (Model.truncate ~target:(Model.Fd fd) ~length:512 ()));
     close_fd ctx fd
   | None -> fail ctx "open failed in truncate_bounds");
  (match open_fd ctx ~flags:Open_flags.(of_flags [ O_RDONLY ]) path with
   | Some fd ->
     expect_err ctx "ftruncate on read-only fd" Errno.EINVAL
       (call ctx (Model.truncate ~target:(Model.Fd fd) ~length:0 ()));
     close_fd ctx fd
   | None -> ());
  ignore (aux ctx (Fs.Unlink path))

let modes ctx =
  let open Workload in
  (* every permission bit, one mkdir and one chmod each; plus mode 0 *)
  List.iter
    (fun bit ->
      let dir = fresh_name ctx "md" in
      expect_ok ctx "mkdir with bit"
        (call ctx (Model.mkdir ~variant:Model.Sys_mkdirat ~mode:(Mode.mask bit lor 0o700) dir));
      expect_ok ctx "chmod to bit"
        (call ctx (Model.chmod ~target:(Model.Path dir) ~mode:(Mode.mask bit lor 0o700) ())))
    Mode.all_bits;
  let f = make_file ctx "m0" in
  expect_ok ctx "chmod 0000" (call ctx (Model.chmod ~target:(Model.Path f) ~mode:0 ()));
  expect_ok ctx "chmod 7777" (call ctx (Model.chmod ~target:(Model.Path f) ~mode:0o7777 ()));
  (match open_fd ctx ~flags:Open_flags.(of_flags [ O_PATH; O_CLOEXEC ]) f with
   | Some fd ->
     expect_ok ctx "fchmod" (call ctx (Model.chmod ~variant:Model.Sys_fchmod ~target:(Model.Fd fd) ~mode:0o644 ()));
     close_fd ctx fd
   | None -> fail ctx "O_PATH open failed");
  expect_ok ctx "fchmodat"
    (call ctx (Model.chmod ~variant:Model.Sys_fchmodat ~target:(Model.Path f) ~mode:0o755 ()));
  expect_err ctx "mkdir exists" Errno.EEXIST (call ctx (Model.mkdir ~mode:0o755 ctx.mount));
  expect_err ctx "mkdir under file" Errno.ENOTDIR
    (call ctx (Model.mkdir ~mode:0o755 (f ^ "/sub")));
  expect_err ctx "mkdir missing parent" Errno.ENOENT
    (call ctx (Model.mkdir ~mode:0o755 (ctx.mount ^ "/no/such/deep")));
  expect_err ctx "mkdir bad mode" Errno.EINVAL
    (call ctx (Model.mkdir ~mode:0o200000 (fresh_name ctx "bm")))

let error_paths ctx =
  let open Workload in
  (* symlink loop *)
  let a = ctx.mount ^ "/loop_a" and b = ctx.mount ^ "/loop_b" in
  ignore (aux ctx (Fs.Symlink (a, b)));
  ignore (aux ctx (Fs.Symlink (b, a)));
  expect_err ctx "symlink loop" Errno.ELOOP
    (call ctx (Model.open_ ~flags:(pick_read ctx) a));
  (* name too long *)
  let long = ctx.mount ^ "/" ^ String.make 300 'x' in
  expect_err ctx "long name" Errno.ENAMETOOLONG
    (call ctx (Model.open_ ~flags:(pick_read ctx) long));
  expect_err ctx "long name mkdir" Errno.ENAMETOOLONG
    (call ctx (Model.mkdir ~mode:0o755 long));
  (* permission denied as non-root *)
  let secret = make_file ctx ~size:128 "secret" in
  expect_ok ctx "restrict" (call ctx (Model.chmod ~target:(Model.Path secret) ~mode:0o600 ()));
  let filesystem = fs ctx in
  Fs.set_credentials filesystem ~uid:1000 ~gid:1000;
  expect_err ctx "other read denied" Errno.EACCES
    (call ctx (Model.open_ ~flags:Open_flags.(of_flags [ O_RDONLY ]) secret));
  expect_err ctx "non-owner chmod" Errno.EPERM
    (call ctx (Model.chmod ~target:(Model.Path secret) ~mode:0o777 ()));
  Fs.set_credentials filesystem ~uid:0 ~gid:0;
  (* directory misuse *)
  let dir = fresh_dir ctx in
  expect_err ctx "write-open a dir" Errno.EISDIR
    (call ctx (Model.open_ ~flags:Open_flags.(of_flags [ O_WRONLY ]) dir));
  (match open_fd ctx ~flags:Open_flags.(of_flags [ O_RDONLY; O_DIRECTORY ]) dir with
   | Some fd ->
     expect_err ctx "read a dir fd" Errno.EISDIR (read_fd ctx fd 4096);
     expect_ok ctx "fchdir" (call ctx (Model.chdir (Model.Fd fd)));
     close_fd ctx fd
   | None -> fail ctx "dir open failed");
  expect_ok ctx "chdir back" (call ctx (Model.chdir (Model.Path ctx.mount)));
  expect_err ctx "chdir to file" Errno.ENOTDIR
    (call ctx (Model.chdir (Model.Path secret)));
  (* exclusive create collision *)
  expect_err ctx "O_EXCL exists" Errno.EEXIST
    (call ctx
       (Model.open_ ~mode:0o644 ~flags:Open_flags.(of_flags [ O_RDWR; O_CREAT; O_EXCL ]) secret));
  (* O_NOFOLLOW on a symlink *)
  let link = ctx.mount ^ "/lnk_secret" in
  ignore (aux ctx (Fs.Symlink (secret, link)));
  expect_err ctx "O_NOFOLLOW" Errno.ELOOP
    (call ctx (Model.open_ ~flags:Open_flags.(of_flags [ O_RDONLY; O_NOFOLLOW ]) link));
  expect_err ctx "ENOENT open" Errno.ENOENT
    (call ctx (Model.open_ ~flags:Open_flags.(of_flags [ O_RDONLY ]) (ctx.mount ^ "/gone")))

(* Whether setting [name] to [size] bytes on [path] fits the inode's
   xattr space, read from the file system without tracing anything. *)
let xattr_fits ctx path name size =
  let fs = Workload.fs ctx in
  let cost n s = String.length n + s + Fs.xattr_overhead in
  let stored n = match Fs.xattr_size fs path n with Ok s -> cost n s | Error _ -> 0 in
  match Fs.xattr_names fs path with
  | Error _ -> true
  | Ok names ->
    let used = List.fold_left (fun acc n -> acc + stored n) 0 names in
    used - stored name + cost name size <= (Fs.config fs).Config.xattr_space

let xattr_cycle ctx ~iters =
  let open Workload in
  let path = make_file ctx ~size:64 "xa" in
  let target = Model.Path path in
  for i = 1 to iters do
    let name = Printf.sprintf "user.k%d" (i mod 4) in
    let size = Prng.weighted ctx.rng [ (4, 0); (8, 1 + Prng.int ctx.rng 255); (6, 256 + Prng.int ctx.rng 768); (2, 1024) ] in
    ignore (call ctx (Model.setxattr ~target ~name ~size ~flags:Xattr_flag.XATTR_ANY ()));
    ignore (call ctx (Model.getxattr ~target ~name ~size:4096 ()))
  done;
  (* boundaries and error paths.  The loop leaves up to four values of
     up to 1 KiB, so a new entry may not fit the inode: such a set must
     fail with ENOSPC, and a get of what it would have stored with
     ENODATA. *)
  let expect_set what ~fits outcome =
    if fits then expect_ok ctx what outcome else expect_err ctx what Errno.ENOSPC outcome
  in
  let expect_get what ~stored n outcome =
    if stored then expect_ret ctx what n outcome else expect_err ctx what Errno.ENODATA outcome
  in
  let once = xattr_fits ctx path "user.once" 10 in
  expect_set "xattr CREATE" ~fits:once
    (call ctx (Model.setxattr ~target ~name:"user.once" ~size:10 ~flags:Xattr_flag.XATTR_CREATE ()));
  expect_err ctx "xattr CREATE dup" (if once then Errno.EEXIST else Errno.ENOSPC)
    (call ctx (Model.setxattr ~target ~name:"user.once" ~size:10 ~flags:Xattr_flag.XATTR_CREATE ()));
  expect_err ctx "xattr REPLACE missing" Errno.ENODATA
    (call ctx (Model.setxattr ~target ~name:"user.never" ~size:10 ~flags:Xattr_flag.XATTR_REPLACE ()));
  expect_err ctx "xattr E2BIG" Errno.E2BIG
    (call ctx (Model.setxattr ~target ~name:"user.huge" ~size:65537 ()));
  (* one byte short of the maximum: hand-written suites probe "a big
     value", not the exact boundary — which is how Figure 1's bug
     (triggered only at size = 65536) slips through xfstests *)
  expect_err ctx "xattr too big for inode space" Errno.ENOSPC
    (call ctx (Model.setxattr ~target ~name:"user.max" ~size:65535 ()));
  expect_err ctx "getxattr missing" Errno.ENODATA
    (call ctx (Model.getxattr ~target ~name:"user.nothere" ~size:64 ()));
  let empty = xattr_fits ctx path "user.empty" 0 in
  expect_set "empty value set" ~fits:empty
    (call ctx (Model.setxattr ~target ~name:"user.empty" ~size:0 ()));
  expect_get "empty value get" ~stored:empty 0
    (call ctx (Model.getxattr ~target ~name:"user.empty" ~size:64 ()));
  expect_err ctx "getxattr short buffer" (if once then Errno.ERANGE else Errno.ENODATA)
    (call ctx (Model.getxattr ~target ~name:"user.once" ~size:1 ()));
  expect_get "getxattr size query" ~stored:once 10
    (call ctx (Model.getxattr ~target ~name:"user.once" ~size:0 ()));
  expect_err ctx "system namespace" Errno.ENOTSUP
    (call ctx (Model.setxattr ~target ~name:"system.posix_acl" ~size:8 ()));
  (* symlink variants: l*xattr acts on the link itself *)
  let link = ctx.mount ^ "/xa_lnk" in
  ignore (aux ctx (Fs.Symlink (path, link)));
  expect_ok ctx "lsetxattr"
    (call ctx
       (Model.setxattr ~variant:Model.Sys_lsetxattr ~target:(Model.Path link)
          ~name:"user.onlink" ~size:5 ()));
  expect_ret ctx "lgetxattr" 5
    (call ctx
       (Model.getxattr ~variant:Model.Sys_lgetxattr ~target:(Model.Path link)
          ~name:"user.onlink" ~size:64 ()));
  expect_err ctx "getxattr through link misses it" Errno.ENODATA
    (call ctx (Model.getxattr ~target:(Model.Path link) ~name:"user.onlink" ~size:64 ()));
  (match open_fd ctx ~flags:Open_flags.(of_flags [ O_RDWR ]) path with
   | Some fd ->
     let viafd = xattr_fits ctx path "user.viafd" 7 in
     expect_set "fsetxattr" ~fits:viafd
       (call ctx (Model.setxattr ~target:(Model.Fd fd) ~name:"user.viafd" ~size:7 ()));
     expect_get "fgetxattr" ~stored:viafd 7
       (call ctx (Model.getxattr ~target:(Model.Fd fd) ~name:"user.viafd" ~size:64 ()));
     close_fd ctx fd
   | None -> fail ctx "open failed in xattr_cycle")

let large_io ctx =
  let open Workload in
  let path = fresh_name ctx "big" in
  match open_fd ctx ~mode:0o644 ~flags:Open_flags.(of_flags [ O_WRONLY; O_CREAT; O_TRUNC; O_CLOEXEC ]) path with
  | None -> fail ctx "create failed in large_io"
  | Some fd ->
    List.iter
      (fun size -> expect_ret ctx "large write" size (write_fd ctx fd size))
      (* one size per log2 bucket from 256 KiB to 128 MiB *)
      [ 300 * 1024; 700 * 1024; 1 lsl 20; 3 lsl 20; 1 lsl 22; 12 lsl 20;
        1 lsl 24; 48 lsl 20; (1 lsl 26) + 12345; 160 lsl 20 ];
    close_fd ctx fd;
    ignore (aux ctx (Fs.Unlink path))

(* The single largest write in the corpus: 258 MiB, Figure 3's "Max". *)
let max_write ctx =
  let open Workload in
  let path = fresh_name ctx "max" in
  match open_fd ctx ~mode:0o644 ~flags:Open_flags.(of_flags [ O_WRONLY; O_CREAT; O_TRUNC; O_CLOEXEC ]) path with
  | None -> fail ctx "create failed in max_write"
  | Some fd ->
    let size = 258 * 1024 * 1024 in
    expect_ret ctx "258MiB write" size (write_fd ctx fd size);
    close_fd ctx fd;
    ignore (aux ctx (Fs.Unlink path))

let openat_variants ctx ~iters =
  let open Workload in
  for _ = 1 to iters do
    let path = fresh_name ctx "v" in
    (match
       open_fd ctx ~variant:Model.Sys_creat ~mode:0o644
         ~flags:Open_flags.(of_flags [ O_WRONLY; O_CREAT; O_TRUNC ])
         path
     with
     | Some fd ->
       ignore (write_fd ctx ~variant:Model.Sys_pwrite64 ~offset:0 fd (small_size ctx));
       close_fd ctx fd
     | None -> fail ctx "creat failed");
    (match open_fd ctx ~variant:Model.Sys_openat2 ~flags:(pick_read ctx) path with
     | Some fd ->
       ignore (read_fd ctx ~variant:Model.Sys_pread64 ~offset:0 fd 512);
       close_fd ctx fd
     | None -> fail ctx "openat2 failed");
    ignore (aux ctx (Fs.Unlink path))
  done

let durability ctx ~iters =
  let open Workload in
  for _ = 1 to max 1 (iters / 8) do
    let path = make_file ctx ~size:4096 "dur" in
    (match open_fd ctx ~flags:Open_flags.(of_flags [ O_RDWR ]) path with
     | Some fd ->
       ignore (write_fd ctx fd 8192);
       ignore (aux ctx (Fs.Fsync fd));
       close_fd ctx fd
     | None -> fail ctx "open failed in durability");
    let before = match Fs.checksum (fs ctx) path with Ok c -> c | Error _ -> 0 in
    (* fsync alone does not persist the name; sync the dir entry too *)
    (match open_fd ctx ~flags:Open_flags.(of_flags [ O_RDONLY; O_DIRECTORY ]) ctx.mount with
     | Some dfd ->
       ignore (aux ctx (Fs.Fsync dfd));
       close_fd ctx dfd
     | None -> ());
    ignore (aux ctx Fs.Crash);
    (match Fs.checksum (fs ctx) path with
     | Ok after when after = before -> ()
     | Ok _ -> fail ctx "fsynced data changed across crash"
     | Error _ -> fail ctx "fsynced file lost across crash")
  done

let badfd ctx =
  let open Workload in
  expect_err ctx "read closed fd" Errno.EBADF (read_fd ctx 99 16);
  expect_err ctx "write closed fd" Errno.EBADF (write_fd ctx 99 16);
  expect_err ctx "lseek closed fd" Errno.EBADF
    (call ctx (Model.lseek ~fd:99 ~offset:0 ~whence:Whence.SEEK_SET));
  expect_err ctx "close closed fd" Errno.EBADF (call ctx (Model.close 99));
  expect_err ctx "ftruncate closed fd" Errno.EBADF
    (call ctx (Model.truncate ~target:(Model.Fd 99) ~length:0 ()));
  expect_err ctx "fchmod closed fd" Errno.EBADF
    (call ctx (Model.chmod ~variant:Model.Sys_fchmod ~target:(Model.Fd 99) ~mode:0o644 ()));
  expect_err ctx "fchdir closed fd" Errno.EBADF (call ctx (Model.chdir (Model.Fd 99)));
  expect_err ctx "fgetxattr closed fd" Errno.EBADF
    (call ctx (Model.getxattr ~target:(Model.Fd 99) ~name:"user.x" ~size:8 ()));
  (* write on a read-only descriptor / read on a write-only one *)
  let path = make_file ctx ~size:64 "bf" in
  (match open_fd ctx ~flags:Open_flags.(of_flags [ O_RDONLY ]) path with
   | Some fd ->
     expect_err ctx "write on O_RDONLY" Errno.EBADF (write_fd ctx fd 16);
     close_fd ctx fd
   | None -> ());
  match open_fd ctx ~flags:Open_flags.(of_flags [ O_WRONLY ]) path with
  | Some fd ->
    expect_err ctx "read on O_WRONLY" Errno.EBADF (read_fd ctx fd 16);
    close_fd ctx fd
  | None -> ()

let special_nodes ctx =
  let open Workload in
  let filesystem = fs ctx in
  let fifo = ctx.mount ^ "/pipe0" in
  (match Fs.mknod_special filesystem fifo `Fifo with Ok () -> () | Error _ -> fail ctx "mkfifo");
  expect_err ctx "nonblock write-open fifo" Errno.ENXIO
    (call ctx (Model.open_ ~flags:Open_flags.(of_flags [ O_WRONLY; O_NONBLOCK ]) fifo));
  (match open_fd ctx ~flags:Open_flags.(of_flags [ O_RDONLY; O_NONBLOCK ]) fifo with
   | Some fd ->
     expect_err ctx "nonblock fifo read" Errno.EAGAIN (read_fd ctx fd 512);
     close_fd ctx fd
   | None -> fail ctx "fifo read-open failed");
  let dev = ctx.mount ^ "/dev0" in
  (match Fs.mknod_special filesystem dev (`Device false) with
   | Ok () -> ()
   | Error _ -> fail ctx "mknod dev");
  expect_err ctx "driverless class" Errno.ENODEV
    (call ctx (Model.open_ ~flags:Open_flags.(of_flags [ O_RDONLY ]) dev));
  let dev2 = ctx.mount ^ "/dev1" in
  (match Fs.mknod_special filesystem dev2 (`Device true) with
   | Ok () -> ()
   | Error _ -> fail ctx "mknod dev2");
  expect_err ctx "dead device" Errno.ENXIO
    (call ctx (Model.open_ ~flags:Open_flags.(of_flags [ O_RDONLY ]) dev2));
  (* busy node *)
  let busy = make_file ctx "busy" in
  (match Fs.set_busy filesystem busy true with Ok () -> () | Error _ -> fail ctx "set_busy");
  expect_err ctx "busy open" Errno.EBUSY
    (call ctx (Model.open_ ~flags:Open_flags.(of_flags [ O_RDONLY ]) busy))

let txtbsy_immutable ctx =
  let open Workload in
  let filesystem = fs ctx in
  let exe = make_file ctx ~size:1024 "prog" in
  (match Fs.set_executing filesystem exe true with Ok () -> () | Error _ -> fail ctx "set_executing");
  expect_err ctx "write-open running binary" Errno.ETXTBSY
    (call ctx (Model.open_ ~flags:Open_flags.(of_flags [ O_WRONLY ]) exe));
  expect_err ctx "truncate running binary" Errno.ETXTBSY
    (call ctx (Model.truncate ~target:(Model.Path exe) ~length:0 ()));
  let frozen = make_file ctx ~size:64 "frozen" in
  (match Fs.set_immutable filesystem frozen true with Ok () -> () | Error _ -> fail ctx "set_immutable");
  expect_err ctx "open immutable for write" Errno.EPERM
    (call ctx (Model.open_ ~flags:Open_flags.(of_flags [ O_WRONLY ]) frozen));
  expect_err ctx "truncate immutable" Errno.EPERM
    (call ctx (Model.truncate ~target:(Model.Path frozen) ~length:0 ()))

let rofs ctx =
  let open Workload in
  let path = make_file ctx ~size:512 "ro" in
  let filesystem = fs ctx in
  let was = Fs.is_read_only filesystem in
  Fs.set_read_only filesystem true;
  expect_err ctx "open write on ro fs" Errno.EROFS
    (call ctx (Model.open_ ~flags:Open_flags.(of_flags [ O_WRONLY ]) path));
  expect_err ctx "creat on ro fs" Errno.EROFS
    (call ctx
       (Model.open_ ~mode:0o644
          ~flags:Open_flags.(of_flags [ O_WRONLY; O_CREAT; O_TRUNC; O_CLOEXEC ])
          (ctx.mount ^ "/ro_new")));
  expect_err ctx "mkdir on ro fs" Errno.EROFS (call ctx (Model.mkdir ~mode:0o755 (ctx.mount ^ "/ro_dir")));
  expect_err ctx "truncate on ro fs" Errno.EROFS
    (call ctx (Model.truncate ~target:(Model.Path path) ~length:0 ()));
  expect_err ctx "chmod on ro fs" Errno.EROFS
    (call ctx (Model.chmod ~target:(Model.Path path) ~mode:0o600 ()));
  expect_err ctx "setxattr on ro fs" Errno.EROFS
    (call ctx (Model.setxattr ~target:(Model.Path path) ~name:"user.ro" ~size:4 ()));
  (* reads still work *)
  (match open_fd ctx ~flags:Open_flags.(of_flags [ O_RDONLY ]) path with
   | Some fd ->
     ignore (read_fd ctx fd 512);
     close_fd ctx fd
   | None -> fail ctx "read-only open failed on ro fs");
  Fs.set_read_only filesystem was

let fd_exhaust ctx =
  let open Workload in
  let path = make_file ctx ~size:16 "fx" in
  let limit = (Fs.config (fs ctx)).Config.max_open_files in
  let opened = ref [] in
  let hit = ref false in
  (* one fd is implicitly budgeted for each open beyond the existing ones *)
  for _ = 1 to limit + 4 do
    match call ctx (Model.open_ ~flags:Open_flags.(of_flags [ O_RDONLY ]) path) with
    | Model.Ret fd -> opened := fd :: !opened
    | Model.Err Errno.EMFILE -> hit := true
    | Model.Err e -> fail ctx ("unexpected " ^ Errno.to_string e ^ " in fd_exhaust")
  done;
  if not !hit then fail ctx "EMFILE never hit";
  List.iter (fun fd -> close_fd ctx fd) !opened

let enospc ctx =
  let open Workload in
  let path = fresh_name ctx "fill" in
  match
    open_fd ctx ~mode:0o644
      ~flags:Open_flags.(of_flags [ O_WRONLY; O_CREAT; O_TRUNC ]) path
  with
  | None -> fail ctx "create failed in enospc"
  | Some fd ->
    let hit = ref false in
    (* the small config caps files at 1 MiB, so spread across files *)
    let current = ref fd in
    let n = ref 0 in
    while (not !hit) && !n < 64 do
      incr n;
      (match write_fd ctx !current (512 * 1024) with
       | Model.Err Errno.ENOSPC -> hit := true
       | Model.Err Errno.EFBIG | Model.Ret _ ->
         close_fd ctx !current;
         (match
            open_fd ctx ~mode:0o644
              ~flags:Open_flags.(of_flags [ O_WRONLY; O_CREAT; O_TRUNC ])
              (fresh_name ctx "fill")
          with
          | Some fd' -> current := fd'
          | None -> hit := true (* open itself failed for lack of space *))
       | Model.Err e -> fail ctx ("unexpected " ^ Errno.to_string e ^ " in enospc"); hit := true)
    done;
    if !n >= 64 && not !hit then fail ctx "ENOSPC never hit";
    close_fd ctx !current

let edquot ctx =
  let open Workload in
  let filesystem = fs ctx in
  expect_ok ctx "open up mount"
    (call ctx (Model.chmod ~target:(Model.Path ctx.mount) ~mode:0o777 ()));
  Fs.set_credentials filesystem ~uid:1000 ~gid:1000;
  let hit = ref false in
  let n = ref 0 in
  while (not !hit) && !n < 32 do
    incr n;
    let path = fresh_name ctx "q" in
    match
      open_fd ctx ~mode:0o644 ~flags:Open_flags.(of_flags [ O_WRONLY; O_CREAT; O_TRUNC ]) path
    with
    | None -> hit := true (* inode charge alone can exceed the quota *)
    | Some fd ->
      (match write_fd ctx fd (256 * 1024) with
       | Model.Err Errno.EDQUOT -> hit := true
       | _ -> ());
      close_fd ctx fd
  done;
  if not !hit then fail ctx "EDQUOT never hit";
  Fs.set_credentials filesystem ~uid:0 ~gid:0

let efbig ctx =
  let open Workload in
  let limit = (Fs.config (fs ctx)).Config.max_file_size in
  let path = make_file ctx "fb" in
  expect_err ctx "truncate beyond limit" Errno.EFBIG
    (call ctx (Model.truncate ~target:(Model.Path path) ~length:(limit + 1) ()));
  expect_ok ctx "truncate to limit"
    (call ctx (Model.truncate ~target:(Model.Path path) ~length:limit ()));
  match open_fd ctx ~flags:Open_flags.(of_flags [ O_WRONLY ]) path with
  | Some fd ->
    expect_err ctx "write at limit" Errno.EFBIG
      (write_fd ctx ~variant:Model.Sys_pwrite64 ~offset:limit fd 1);
    close_fd ctx fd
  | None -> fail ctx "open failed in efbig"

let overflow_open ctx =
  let open Workload in
  let path = make_file ctx "huge" in
  let threshold = (Fs.config (fs ctx)).Config.large_file_threshold in
  expect_ok ctx "grow to 2GiB"
    (call ctx (Model.truncate ~target:(Model.Path path) ~length:threshold ()));
  (* xfstests never passes O_LARGEFILE (an untested flag), so a large file
     fails to open — EOVERFLOW output coverage from an input-coverage gap *)
  expect_err ctx "open 2GiB without O_LARGEFILE" Errno.EOVERFLOW
    (call ctx (Model.open_ ~flags:Open_flags.(of_flags [ O_RDONLY ]) path));
  ignore (aux ctx (Fs.Unlink path))

let inject_env ctx =
  let open Workload in
  let filesystem = fs ctx in
  let path = make_file ctx ~size:4096 "sig" in
  (* a signal arrives mid-open *)
  Fs.inject_errno filesystem ~base:Model.Open Errno.EINTR;
  expect_err ctx "interrupted open" Errno.EINTR
    (call ctx (Model.open_ ~flags:Open_flags.(of_flags [ O_RDONLY ]) path));
  (match open_fd ctx ~flags:Open_flags.(of_flags [ O_RDWR ]) path with
   | Some fd ->
     Fs.inject_errno filesystem ~base:Model.Read Errno.EINTR;
     expect_err ctx "interrupted read" Errno.EINTR (read_fd ctx fd 512);
     Fs.inject_errno filesystem ~base:Model.Write Errno.EINTR;
     expect_err ctx "interrupted write" Errno.EINTR (write_fd ctx fd 512);
     (* bad user buffers *)
     Fs.inject_errno filesystem ~base:Model.Read Errno.EFAULT;
     expect_err ctx "bad read buffer" Errno.EFAULT (read_fd ctx fd 512);
     Fs.inject_errno filesystem ~base:Model.Write Errno.EFAULT;
     expect_err ctx "bad write buffer" Errno.EFAULT (write_fd ctx fd 512);
     Fs.inject_errno filesystem ~base:Model.Open Errno.EFAULT;
     expect_err ctx "bad path pointer" Errno.EFAULT
       (call ctx (Model.open_ ~flags:Open_flags.(of_flags [ O_RDONLY ]) path));
     (* media error surfacing at close, and write EIO *)
     Fs.inject_errno filesystem ~base:Model.Write Errno.EIO;
     expect_err ctx "write EIO" Errno.EIO (write_fd ctx fd 512);
     Fs.inject_errno filesystem ~base:Model.Close Errno.EIO;
     expect_err ctx "close EIO" Errno.EIO (call ctx (Model.close fd));
     close_fd ctx fd
   | None -> fail ctx "open failed in inject_env");
  (* EAGAIN on an interrupted nonblocking open of a contended file is
     modeled as an environment condition too *)
  Fs.inject_errno filesystem ~base:Model.Open Errno.EAGAIN;
  expect_err ctx "contended open" Errno.EAGAIN
    (call ctx (Model.open_ ~flags:Open_flags.(of_flags [ O_RDONLY; O_NONBLOCK; O_NOFOLLOW; O_CLOEXEC ]) path));
  (* EDQUOT surfaced by open(O_CREAT) *)
  Fs.inject_errno filesystem ~base:Model.Open Errno.EDQUOT;
  expect_err ctx "quota at create" Errno.EDQUOT
    (call ctx
       (Model.open_ ~mode:0o644 ~flags:Open_flags.(of_flags [ O_WRONLY; O_CREAT; O_TRUNC ]) (fresh_name ctx "dq")))

let tmpfile ctx =
  let open Workload in
  (match
     open_fd ctx ~mode:0o600 ~flags:Open_flags.(of_flags [ O_RDWR; O_TMPFILE; O_CLOEXEC ]) ctx.mount
   with
   | Some fd ->
     expect_ret ctx "tmpfile write" 4096 (write_fd ctx fd 4096);
     close_fd ctx fd
   | None -> fail ctx "O_TMPFILE open failed");
  (* O_TMPFILE demands a writable access mode *)
  expect_err ctx "read-only tmpfile" Errno.EINVAL
    (call ctx (Model.open_ ~mode:0o600 ~flags:Open_flags.(of_flags [ O_RDONLY; O_TMPFILE ]) ctx.mount))

(* --- the corpus --- *)

type archetype =
  | Rw_seq
  | Rw_random
  | Vectored
  | Zero_boundary
  | Seek_all
  | Truncate_bounds
  | Modes
  | Error_paths
  | Xattr_cycle
  | Large_io
  | Max_write
  | Openat_variants
  | Durability
  | Badfd
  | Special_nodes
  | Txtbsy
  | Rofs
  | Fd_exhaust
  | Enospc
  | Edquot
  | Efbig
  | Overflow_open
  | Inject_env
  | Tmpfile

(* Archetype selection per test index.  The distribution mirrors the real
   corpus: most tests are I/O regression loops; boundary and error-path
   tests are the long tail. *)
let archetype_of ~group ~index =
  match group with
  | `Generic ->
    (match index mod 20 with
     | 0 | 1 | 2 | 3 | 4 | 5 | 6 -> Rw_seq
     | 7 | 8 -> Rw_random
     | 9 -> Vectored
     | 10 -> Zero_boundary
     | 11 -> Seek_all
     | 12 -> Truncate_bounds
     | 13 -> Modes
     | 14 -> Error_paths
     | 15 -> Openat_variants
     | 16 -> Durability
     | 17 -> Badfd
     | 18 -> (if index mod 3 = 0 then Special_nodes else Txtbsy)
     | _ ->
       (match index mod 140 with
        | 19 -> Fd_exhaust
        | 39 -> Enospc
        | 59 -> Rofs
        | 79 -> Inject_env
        | 99 -> Tmpfile
        | 119 -> Efbig
        | _ -> Rw_seq))
  | `Ext4 ->
    (match index with
     | 13 -> Max_write
     | 27 -> Overflow_open
     | 41 -> Edquot
     | 55 -> Enospc
     | 69 -> Inject_env
     | _ ->
       (match index mod 10 with
        | 0 | 1 | 2 -> Rw_seq
        | 3 -> Rw_random
        | 4 | 5 -> Xattr_cycle
        | 6 -> Large_io
        | 7 -> Truncate_bounds
        | 8 -> Modes
        | _ -> Seek_all))

let needs_small_config = function
  | Fd_exhaust | Enospc | Edquot | Efbig -> true
  | _ -> false

let run_archetype ctx archetype ~iters =
  match archetype with
  | Rw_seq -> rw_seq ctx ~iters
  | Rw_random -> rw_random ctx ~iters
  | Vectored -> vectored ctx ~iters
  | Zero_boundary -> zero_boundary ctx
  | Seek_all -> seek_all ctx
  | Truncate_bounds -> truncate_bounds ctx
  | Modes -> modes ctx
  | Error_paths -> error_paths ctx
  | Xattr_cycle -> xattr_cycle ctx ~iters
  | Large_io -> large_io ctx
  | Max_write -> max_write ctx
  | Openat_variants -> openat_variants ctx ~iters
  | Durability -> durability ctx ~iters
  | Badfd -> badfd ctx
  | Special_nodes -> special_nodes ctx
  | Txtbsy -> txtbsy_immutable ctx
  | Rofs -> rofs ctx
  | Fd_exhaust -> fd_exhaust ctx
  | Enospc -> enospc ctx
  | Edquot -> edquot ctx
  | Efbig -> efbig ctx
  | Overflow_open -> overflow_open ctx
  | Inject_env -> inject_env ctx
  | Tmpfile -> tmpfile ctx

let dir_listing_pass ctx =
  (* metadata passes over the mount: directory opens *)
  let open Workload in
  match open_fd ctx ~flags:(pick ctx dir_sets) ctx.mount with
  | Some fd -> close_fd ctx fd
  | None -> ()

let emit ?(seed = 7) ?(scale = 1.0) ?(faults = []) ?config ?on_test ~on_record () =
  let master = Prng.create ~seed in
  let failures = ref [] in
  let tests = ref 0 in
  let run_test group index =
    incr tests;
    Metrics.Counter.incr m_tests;
    let name =
      match group with
      | `Generic -> Printf.sprintf "generic/%03d" index
      | `Ext4 -> Printf.sprintf "ext4/%03d" index
    in
    let archetype = archetype_of ~group ~index in
    let config =
      let base =
        match config with
        | Some base -> base
        | None -> if needs_small_config archetype then Config.small else Config.default
      in
      Config.with_faults faults base
    in
    let ctx =
      Workload.init ~config ~comm ?on_test ~on_record ~mount
        ~seed:(Int64.to_int (Prng.next_int64 master)) ()
    in
    Workload.begin_test ctx name;
    if index mod 7 = 0 then Workload.noise ctx;
    dir_listing_pass ctx;
    let iters = max 1 (int_of_float (float_of_int (40 + (index mod 25) * 10) *. scale)) in
    run_archetype ctx archetype ~iters;
    failures := List.rev_append (Workload.failures ctx) !failures
  in
  Span.with_ ~name:"xfstests/generic" (fun () ->
      for i = 1 to generic_tests do
        run_test `Generic i
      done);
  Span.with_ ~name:"xfstests/ext4" (fun () ->
      for i = 1 to ext4_tests do
        run_test `Ext4 i
      done);
  (List.rev !failures, { tests_run = !tests })

let run ?seed ?scale ?faults ?config ?sink ?dispatch ~coverage () =
  Workload.run_inline ~mount ?sink ?dispatch ~coverage (fun on_record ->
      emit ?seed ?scale ?faults ?config ~on_record ())
