open Iocov_syscall
open Iocov_vfs
module Prng = Iocov_util.Prng
module Metrics = Iocov_obs.Metrics
module Span = Iocov_obs.Span

let m_cases =
  Metrics.counter Metrics.default "iocov_suite_tests_total"
    ~labels:[ ("suite", "ltp") ]
    ~help:"Simulated tests executed."

let mount = "/mnt/ltp"
let comm = "ltp"

type stats = { testcases_run : int }

type config_kind = Default | Small

(* LTP opens are plain: one or two flags, no exotic combinations. *)
let rdonly = Open_flags.of_flags Open_flags.[ O_RDONLY ]
let wronly = Open_flags.of_flags Open_flags.[ O_WRONLY ]
let rdwr = Open_flags.of_flags Open_flags.[ O_RDWR ]
let creat = Open_flags.of_flags Open_flags.[ O_WRONLY; O_CREAT ]
let creat_rw = Open_flags.of_flags Open_flags.[ O_RDWR; O_CREAT ]

let with_fd ctx ?(flags = creat_rw) path f =
  match Workload.open_fd ctx ~mode:0o644 ~flags path with
  | Some fd ->
    f fd;
    Workload.close_fd ctx fd
  | None -> Workload.fail ctx ("setup open failed for " ^ path)

(* --- per-syscall errno testcases, LTP style: one documented failure
   condition per case, asserting the exact error code --- *)

let open_cases =
  let open Workload in
  [ ("open01", Default, fun ctx ->
        (* success + ENOENT, the canonical first case *)
        (match open_fd ctx ~mode:0o644 ~flags:creat (fresh_name ctx "f") with
         | Some fd -> close_fd ctx fd
         | None -> fail ctx "create failed");
        expect_err ctx "open02 ENOENT" Errno.ENOENT
          (call ctx (Model.open_ ~flags:rdonly (ctx.mount ^ "/enoent"))));
    ("open03", Default, fun ctx ->
        let f = make_file ctx "x" in
        expect_err ctx "EEXIST" Errno.EEXIST
          (call ctx
             (Model.open_ ~mode:0o644
                ~flags:Open_flags.(of_flags [ O_WRONLY; O_CREAT; O_EXCL ]) f)));
    ("open04", Small, fun ctx ->
        let f = make_file ctx "x" in
        let limit = (Fs.config (fs ctx)).Config.max_open_files in
        let fds = ref [] in
        let hit = ref false in
        for _ = 1 to limit + 2 do
          match call ctx (Model.open_ ~flags:rdonly f) with
          | Model.Ret fd -> fds := fd :: !fds
          | Model.Err Errno.EMFILE -> hit := true
          | Model.Err e -> fail ctx ("unexpected " ^ Errno.to_string e)
        done;
        if not !hit then fail ctx "EMFILE not reached";
        List.iter (close_fd ctx) !fds);
    ("open05", Default, fun ctx ->
        let secret = make_file ctx "secret" in
        expect_ok ctx "restrict" (call ctx (Model.chmod ~target:(Model.Path secret) ~mode:0o600 ()));
        Fs.set_credentials (fs ctx) ~uid:1001 ~gid:1001;
        expect_err ctx "EACCES" Errno.EACCES (call ctx (Model.open_ ~flags:rdonly secret));
        Fs.set_credentials (fs ctx) ~uid:0 ~gid:0);
    ("open06", Default, fun ctx ->
        expect_err ctx "EISDIR" Errno.EISDIR (call ctx (Model.open_ ~flags:wronly ctx.mount)));
    ("open07", Default, fun ctx ->
        let a = ctx.mount ^ "/la" and b = ctx.mount ^ "/lb" in
        ignore (aux ctx (Fs.Symlink (a, b)));
        ignore (aux ctx (Fs.Symlink (b, a)));
        expect_err ctx "ELOOP" Errno.ELOOP (call ctx (Model.open_ ~flags:rdonly a)));
    ("open08", Default, fun ctx ->
        expect_err ctx "ENAMETOOLONG" Errno.ENAMETOOLONG
          (call ctx (Model.open_ ~flags:rdonly (ctx.mount ^ "/" ^ String.make 300 'n'))));
    ("open09", Default, fun ctx ->
        let f = make_file ctx "plain" in
        expect_err ctx "ENOTDIR" Errno.ENOTDIR
          (call ctx (Model.open_ ~flags:rdonly (f ^ "/below"))));
    ("open10", Default, fun ctx ->
        let prog = make_file ctx "prog" in
        ignore (Fs.set_executing (fs ctx) prog true);
        expect_err ctx "ETXTBSY" Errno.ETXTBSY (call ctx (Model.open_ ~flags:wronly prog)));
    ("open11", Default, fun ctx ->
        let f = make_file ctx "ro" in
        let was = Fs.is_read_only (fs ctx) in
        Fs.set_read_only (fs ctx) true;
        expect_err ctx "EROFS" Errno.EROFS (call ctx (Model.open_ ~flags:wronly f));
        Fs.set_read_only (fs ctx) was);
    ("open12", Default, fun ctx ->
        ignore (Fs.mknod_special (fs ctx) (ctx.mount ^ "/fifo") `Fifo);
        expect_err ctx "ENXIO" Errno.ENXIO
          (call ctx
             (Model.open_ ~flags:Open_flags.(of_flags [ O_WRONLY; O_NONBLOCK ])
                (ctx.mount ^ "/fifo"))));
    ("open13", Default, fun ctx ->
        ignore (Fs.mknod_special (fs ctx) (ctx.mount ^ "/dev") (`Device false));
        expect_err ctx "ENODEV" Errno.ENODEV
          (call ctx (Model.open_ ~flags:rdonly (ctx.mount ^ "/dev"))));
    ("open14", Default, fun ctx ->
        let frozen = make_file ctx "frozen" in
        ignore (Fs.set_immutable (fs ctx) frozen true);
        expect_err ctx "EPERM" Errno.EPERM (call ctx (Model.open_ ~flags:wronly frozen)));
    ("open15", Default, fun ctx ->
        let busy = make_file ctx "busy" in
        ignore (Fs.set_busy (fs ctx) busy true);
        expect_err ctx "EBUSY" Errno.EBUSY (call ctx (Model.open_ ~flags:rdonly busy)));
    ("open16", Default, fun ctx ->
        Fs.inject_errno (fs ctx) ~base:Model.Open Errno.EINTR;
        expect_err ctx "EINTR" Errno.EINTR
          (call ctx (Model.open_ ~flags:rdonly (ctx.mount ^ "/any")));
        Fs.inject_errno (fs ctx) ~base:Model.Open Errno.EFAULT;
        expect_err ctx "EFAULT" Errno.EFAULT
          (call ctx (Model.open_ ~flags:rdonly (ctx.mount ^ "/any"))));
    ("open17", Default, fun ctx ->
        expect_err ctx "EINVAL tmpfile" Errno.EINVAL
          (call ctx
             (Model.open_ ~mode:0o600 ~flags:Open_flags.(of_flags [ O_RDONLY; O_TMPFILE ])
                ctx.mount))) ]

let read_write_cases =
  let open Workload in
  [ ("write01", Default, fun ctx ->
        let f = make_file ctx "w" in
        with_fd ctx ~flags:rdwr f (fun fd ->
            List.iter
              (fun size -> expect_ret ctx "write sizes" size (write_fd ctx fd size))
              [ 1; 512; 4096; 8192 ];
            expect_ret ctx "write 0" 0 (write_fd ctx fd 0)));
    ("read01", Default, fun ctx ->
        let f = make_file ctx ~size:8192 "r" in
        with_fd ctx ~flags:rdonly f (fun fd ->
            expect_ret ctx "read" 4096 (read_fd ctx fd 4096);
            expect_ret ctx "read rest" 4096 (read_fd ctx fd 100000);
            expect_ret ctx "read eof" 0 (read_fd ctx fd 512)));
    ("read02", Default, fun ctx ->
        expect_err ctx "EBADF" Errno.EBADF (read_fd ctx 99 16);
        let f = make_file ctx "r2" in
        with_fd ctx ~flags:wronly f (fun fd ->
            expect_err ctx "EBADF write-only" Errno.EBADF (read_fd ctx fd 16)));
    ("read03", Default, fun ctx ->
        let f = make_file ctx ~size:16 "r3" in
        with_fd ctx ~flags:rdonly f (fun fd ->
            expect_err ctx "EINVAL pread" Errno.EINVAL
              (read_fd ctx ~variant:Model.Sys_pread64 ~offset:(-1) fd 8));
        Fs.inject_errno (fs ctx) ~base:Model.Read Errno.EINTR;
        with_fd ctx ~flags:rdonly f (fun fd ->
            expect_err ctx "EINTR" Errno.EINTR (read_fd ctx fd 8)));
    ("read04", Default, fun ctx ->
        ignore (Fs.mknod_special (fs ctx) (ctx.mount ^ "/p") `Fifo);
        (match
           open_fd ctx ~flags:Open_flags.(of_flags [ O_RDONLY; O_NONBLOCK ]) (ctx.mount ^ "/p")
         with
         | Some fd ->
           expect_err ctx "EAGAIN" Errno.EAGAIN (read_fd ctx fd 64);
           close_fd ctx fd
         | None -> fail ctx "fifo open failed"));
    ("write02", Default, fun ctx ->
        expect_err ctx "EBADF" Errno.EBADF (write_fd ctx 99 16);
        let f = make_file ctx "w2" in
        with_fd ctx ~flags:rdonly f (fun fd ->
            expect_err ctx "EBADF read-only" Errno.EBADF (write_fd ctx fd 16)));
    ("write03", Small, fun ctx ->
        let limit = (Fs.config (fs ctx)).Config.max_file_size in
        let f = make_file ctx "w3" in
        with_fd ctx ~flags:rdwr f (fun fd ->
            expect_err ctx "EFBIG" Errno.EFBIG
              (write_fd ctx ~variant:Model.Sys_pwrite64 ~offset:limit fd 1)));
    ("write04", Small, fun ctx ->
        (* fill the 4 MiB device *)
        let hit = ref false in
        let n = ref 0 in
        while (not !hit) && !n < 8 do
          incr n;
          match open_fd ctx ~mode:0o644 ~flags:creat (fresh_name ctx "fill") with
          | None -> hit := true
          | Some fd ->
            (match write_fd ctx fd (900 * 1024) with
             | Model.Err Errno.ENOSPC -> hit := true
             | Model.Ret k when k < 900 * 1024 -> hit := true
             | _ -> ());
            close_fd ctx fd
        done;
        if not !hit then fail ctx "ENOSPC not reached");
    ("write05", Small, fun ctx ->
        expect_ok ctx "open mount" (call ctx (Model.chmod ~target:(Model.Path ctx.mount) ~mode:0o777 ()));
        Fs.set_credentials (fs ctx) ~uid:1001 ~gid:1001;
        let hit = ref false in
        let n = ref 0 in
        while (not !hit) && !n < 8 do
          incr n;
          match open_fd ctx ~mode:0o644 ~flags:creat (fresh_name ctx "q") with
          | None -> hit := true
          | Some fd ->
            (match write_fd ctx fd (700 * 1024) with
             | Model.Err Errno.EDQUOT -> hit := true
             | _ -> ());
            close_fd ctx fd
        done;
        if not !hit then fail ctx "EDQUOT not reached";
        Fs.set_credentials (fs ctx) ~uid:0 ~gid:0);
    ("write06", Default, fun ctx ->
        let f = make_file ctx "w6" in
        Fs.inject_errno (fs ctx) ~base:Model.Write Errno.EFAULT;
        with_fd ctx ~flags:rdwr f (fun fd ->
            expect_err ctx "EFAULT" Errno.EFAULT (write_fd ctx fd 64));
        Fs.inject_errno (fs ctx) ~base:Model.Write Errno.EIO;
        with_fd ctx ~flags:rdwr f (fun fd ->
            expect_err ctx "EIO" Errno.EIO (write_fd ctx fd 64));
        Fs.inject_errno (fs ctx) ~base:Model.Write Errno.EINTR;
        with_fd ctx ~flags:rdwr f (fun fd ->
            expect_err ctx "EINTR" Errno.EINTR (write_fd ctx fd 64))) ]

let lseek_cases =
  let open Workload in
  [ ("lseek01", Default, fun ctx ->
        let f = make_file ctx ~size:1024 "s" in
        with_fd ctx ~flags:rdonly f (fun fd ->
            expect_ret ctx "SET" 100 (call ctx (Model.lseek ~fd ~offset:100 ~whence:Whence.SEEK_SET));
            expect_ret ctx "CUR" 110 (call ctx (Model.lseek ~fd ~offset:10 ~whence:Whence.SEEK_CUR));
            expect_ret ctx "END" 1024 (call ctx (Model.lseek ~fd ~offset:0 ~whence:Whence.SEEK_END))));
    ("lseek02", Default, fun ctx ->
        expect_err ctx "EBADF" Errno.EBADF
          (call ctx (Model.lseek ~fd:99 ~offset:0 ~whence:Whence.SEEK_SET));
        let f = make_file ctx ~size:64 "s2" in
        with_fd ctx ~flags:rdonly f (fun fd ->
            expect_err ctx "EINVAL" Errno.EINVAL
              (call ctx (Model.lseek ~fd ~offset:(-100) ~whence:Whence.SEEK_SET));
            expect_err ctx "EOVERFLOW" Errno.EOVERFLOW
              (call ctx (Model.lseek ~fd ~offset:(1 lsl 61) ~whence:Whence.SEEK_SET))));
    ("lseek03", Default, fun ctx ->
        let f = make_file ctx ~size:4096 "s3" in
        with_fd ctx ~flags:rdwr f (fun fd ->
            expect_ret ctx "DATA" 0 (call ctx (Model.lseek ~fd ~offset:0 ~whence:Whence.SEEK_DATA));
            expect_ret ctx "HOLE" 4096 (call ctx (Model.lseek ~fd ~offset:0 ~whence:Whence.SEEK_HOLE));
            expect_err ctx "ENXIO" Errno.ENXIO
              (call ctx (Model.lseek ~fd ~offset:9999 ~whence:Whence.SEEK_DATA))));
    ("lseek04", Default, fun ctx ->
        ignore (Fs.mknod_special (fs ctx) (ctx.mount ^ "/sp") `Fifo);
        (match
           open_fd ctx ~flags:Open_flags.(of_flags [ O_RDONLY; O_NONBLOCK ]) (ctx.mount ^ "/sp")
         with
         | Some fd ->
           expect_err ctx "ESPIPE" Errno.ESPIPE
             (call ctx (Model.lseek ~fd ~offset:0 ~whence:Whence.SEEK_SET));
           close_fd ctx fd
         | None -> fail ctx "fifo open failed")) ]

let truncate_cases =
  let open Workload in
  [ ("truncate01", Default, fun ctx ->
        let f = make_file ctx ~size:1000 "t" in
        expect_ok ctx "shrink" (call ctx (Model.truncate ~target:(Model.Path f) ~length:10 ()));
        expect_ok ctx "grow" (call ctx (Model.truncate ~target:(Model.Path f) ~length:5000 ())));
    ("truncate02", Default, fun ctx ->
        expect_err ctx "ENOENT" Errno.ENOENT
          (call ctx (Model.truncate ~target:(Model.Path (ctx.mount ^ "/no")) ~length:0 ()));
        expect_err ctx "EISDIR" Errno.EISDIR
          (call ctx (Model.truncate ~target:(Model.Path ctx.mount) ~length:0 ()));
        let f = make_file ctx "t2" in
        expect_err ctx "EINVAL" Errno.EINVAL
          (call ctx (Model.truncate ~target:(Model.Path f) ~length:(-5) ()));
        expect_err ctx "ENOTDIR" Errno.ENOTDIR
          (call ctx (Model.truncate ~target:(Model.Path (f ^ "/x")) ~length:0 ())));
    ("truncate03", Small, fun ctx ->
        let f = make_file ctx "t3" in
        let limit = (Fs.config (fs ctx)).Config.max_file_size in
        expect_err ctx "EFBIG" Errno.EFBIG
          (call ctx (Model.truncate ~target:(Model.Path f) ~length:(limit + 1) ())));
    ("truncate04", Default, fun ctx ->
        let f = make_file ctx "t4" in
        expect_ok ctx "restrict" (call ctx (Model.chmod ~target:(Model.Path f) ~mode:0o444 ()));
        Fs.set_credentials (fs ctx) ~uid:1001 ~gid:1001;
        expect_err ctx "EACCES" Errno.EACCES
          (call ctx (Model.truncate ~target:(Model.Path f) ~length:0 ()));
        Fs.set_credentials (fs ctx) ~uid:0 ~gid:0;
        let was = Fs.is_read_only (fs ctx) in
        Fs.set_read_only (fs ctx) true;
        expect_err ctx "EROFS" Errno.EROFS
          (call ctx (Model.truncate ~target:(Model.Path f) ~length:0 ()));
        Fs.set_read_only (fs ctx) was;
        let prog = make_file ctx "t4prog" in
        ignore (Fs.set_executing (fs ctx) prog true);
        expect_err ctx "ETXTBSY" Errno.ETXTBSY
          (call ctx (Model.truncate ~target:(Model.Path prog) ~length:0 ()));
        let frozen = make_file ctx "t4frozen" in
        ignore (Fs.set_immutable (fs ctx) frozen true);
        expect_err ctx "EPERM" Errno.EPERM
          (call ctx (Model.truncate ~target:(Model.Path frozen) ~length:0 ())));
    ("ftruncate01", Default, fun ctx ->
        expect_err ctx "EBADF" Errno.EBADF
          (call ctx (Model.truncate ~target:(Model.Fd 99) ~length:0 ()));
        let f = make_file ctx ~size:100 "ft" in
        with_fd ctx ~flags:rdwr f (fun fd ->
            expect_ok ctx "ftruncate" (call ctx (Model.truncate ~target:(Model.Fd fd) ~length:10 ())));
        with_fd ctx ~flags:rdonly f (fun fd ->
            expect_err ctx "EINVAL ro fd" Errno.EINVAL
              (call ctx (Model.truncate ~target:(Model.Fd fd) ~length:0 ())))) ]

let metadata_cases =
  let open Workload in
  [ ("mkdir01", Default, fun ctx ->
        expect_ok ctx "mkdir" (call ctx (Model.mkdir ~mode:0o755 (fresh_name ctx "d")));
        expect_err ctx "EEXIST" Errno.EEXIST (call ctx (Model.mkdir ~mode:0o755 ctx.mount));
        expect_err ctx "ENOENT" Errno.ENOENT
          (call ctx (Model.mkdir ~mode:0o755 (ctx.mount ^ "/a/b/c")));
        expect_err ctx "EINVAL" Errno.EINVAL
          (call ctx (Model.mkdir ~mode:0o400000 (fresh_name ctx "d"))));
    ("mkdir02", Default, fun ctx ->
        let f = make_file ctx "m" in
        expect_err ctx "ENOTDIR" Errno.ENOTDIR (call ctx (Model.mkdir ~mode:0o755 (f ^ "/d")));
        expect_err ctx "ENAMETOOLONG" Errno.ENAMETOOLONG
          (call ctx (Model.mkdir ~mode:0o755 (ctx.mount ^ "/" ^ String.make 256 'd')));
        let was = Fs.is_read_only (fs ctx) in
        Fs.set_read_only (fs ctx) true;
        expect_err ctx "EROFS" Errno.EROFS (call ctx (Model.mkdir ~mode:0o755 (ctx.mount ^ "/ro")));
        Fs.set_read_only (fs ctx) was;
        let priv = fresh_dir ctx in
        expect_ok ctx "restrict" (call ctx (Model.chmod ~target:(Model.Path priv) ~mode:0o500 ()));
        Fs.set_credentials (fs ctx) ~uid:1001 ~gid:1001;
        expect_err ctx "EACCES" Errno.EACCES (call ctx (Model.mkdir ~mode:0o755 (priv ^ "/d")));
        Fs.set_credentials (fs ctx) ~uid:0 ~gid:0);
    ("chmod01", Default, fun ctx ->
        let f = make_file ctx "c" in
        List.iter
          (fun mode -> expect_ok ctx "chmod" (call ctx (Model.chmod ~target:(Model.Path f) ~mode ())))
          [ 0; 0o444; 0o644; 0o755; 0o777; 0o4755; 0o2755; 0o1777; 0o7777 ];
        expect_err ctx "EINVAL" Errno.EINVAL
          (call ctx (Model.chmod ~target:(Model.Path f) ~mode:0o200000 ())));
    ("chmod02", Default, fun ctx ->
        expect_err ctx "ENOENT" Errno.ENOENT
          (call ctx (Model.chmod ~target:(Model.Path (ctx.mount ^ "/no")) ~mode:0o644 ()));
        let f = make_file ctx "c2" in
        Fs.set_credentials (fs ctx) ~uid:1001 ~gid:1001;
        expect_err ctx "EPERM" Errno.EPERM
          (call ctx (Model.chmod ~target:(Model.Path f) ~mode:0o777 ()));
        Fs.set_credentials (fs ctx) ~uid:0 ~gid:0;
        expect_err ctx "EBADF" Errno.EBADF
          (call ctx (Model.chmod ~variant:Model.Sys_fchmod ~target:(Model.Fd 99) ~mode:0o644 ())));
    ("close01", Default, fun ctx ->
        let f = make_file ctx "cl" in
        (match open_fd ctx ~flags:rdonly f with
         | Some fd ->
           expect_ok ctx "close" (call ctx (Model.close fd));
           expect_err ctx "EBADF" Errno.EBADF (call ctx (Model.close fd))
         | None -> fail ctx "open failed");
        Fs.inject_errno (fs ctx) ~base:Model.Close Errno.EINTR;
        (match open_fd ctx ~flags:rdonly f with
         | Some fd ->
           expect_err ctx "EINTR" Errno.EINTR (call ctx (Model.close fd));
           ignore (call ctx (Model.close fd))
         | None -> fail ctx "open failed"));
    ("chdir01", Default, fun ctx ->
        let d = fresh_dir ctx in
        expect_ok ctx "chdir" (call ctx (Model.chdir (Model.Path d)));
        expect_ok ctx "back" (call ctx (Model.chdir (Model.Path ctx.mount)));
        expect_err ctx "ENOENT" Errno.ENOENT (call ctx (Model.chdir (Model.Path (ctx.mount ^ "/no"))));
        let f = make_file ctx "cd" in
        expect_err ctx "ENOTDIR" Errno.ENOTDIR (call ctx (Model.chdir (Model.Path f)));
        expect_err ctx "EBADF" Errno.EBADF (call ctx (Model.chdir (Model.Fd 99)))) ]

let xattr_cases =
  let open Workload in
  [ ("setxattr01", Default, fun ctx ->
        let f = make_file ctx "x" in
        let t = Model.Path f in
        expect_ok ctx "set" (call ctx (Model.setxattr ~target:t ~name:"user.v" ~size:128 ()));
        expect_ret ctx "get" 128 (call ctx (Model.getxattr ~target:t ~name:"user.v" ~size:1024 ()));
        expect_err ctx "E2BIG" Errno.E2BIG
          (call ctx (Model.setxattr ~target:t ~name:"user.big" ~size:70000 ()));
        expect_err ctx "EEXIST" Errno.EEXIST
          (call ctx (Model.setxattr ~flags:Xattr_flag.XATTR_CREATE ~target:t ~name:"user.v" ~size:1 ()));
        expect_err ctx "ENODATA" Errno.ENODATA
          (call ctx (Model.setxattr ~flags:Xattr_flag.XATTR_REPLACE ~target:t ~name:"user.no" ~size:1 ()));
        expect_err ctx "ENOTSUP" Errno.ENOTSUP
          (call ctx (Model.setxattr ~target:t ~name:"system.acl" ~size:4 ()));
        expect_err ctx "EINVAL" Errno.EINVAL
          (call ctx (Model.setxattr ~target:t ~name:"bare" ~size:4 ()));
        Fs.set_credentials (fs ctx) ~uid:1001 ~gid:1001;
        expect_err ctx "EPERM" Errno.EPERM
          (call ctx (Model.setxattr ~target:t ~name:"trusted.z" ~size:4 ()));
        Fs.set_credentials (fs ctx) ~uid:0 ~gid:0);
    ("setxattr02", Default, fun ctx ->
        let f = make_file ctx "x2" in
        let t = Model.Path f in
        let hit = ref false in
        for i = 1 to 8 do
          if not !hit then
            match call ctx (Model.setxattr ~target:t ~name:(Printf.sprintf "user.k%d" i) ~size:1024 ()) with
            | Model.Err Errno.ENOSPC -> hit := true
            | _ -> ()
        done;
        if not !hit then fail ctx "xattr ENOSPC not reached";
        let was = Fs.is_read_only (fs ctx) in
        Fs.set_read_only (fs ctx) true;
        expect_err ctx "EROFS" Errno.EROFS
          (call ctx (Model.setxattr ~target:t ~name:"user.ro" ~size:4 ()));
        Fs.set_read_only (fs ctx) was);
    ("getxattr01", Default, fun ctx ->
        let f = make_file ctx "x3" in
        let t = Model.Path f in
        expect_ok ctx "set" (call ctx (Model.setxattr ~target:t ~name:"user.g" ~size:64 ()));
        expect_ret ctx "query" 64 (call ctx (Model.getxattr ~target:t ~name:"user.g" ~size:0 ()));
        expect_err ctx "ERANGE" Errno.ERANGE
          (call ctx (Model.getxattr ~target:t ~name:"user.g" ~size:8 ()));
        expect_err ctx "ENODATA" Errno.ENODATA
          (call ctx (Model.getxattr ~target:t ~name:"user.none" ~size:64 ()));
        expect_err ctx "ENOENT" Errno.ENOENT
          (call ctx (Model.getxattr ~target:(Model.Path (ctx.mount ^ "/no")) ~name:"user.g" ~size:64 ()));
        expect_err ctx "EBADF" Errno.EBADF
          (call ctx (Model.getxattr ~target:(Model.Fd 99) ~name:"user.g" ~size:64 ()))) ]

(* data-path volume: modest success loops, LTP's "functional" cases *)
let functional_cases ~iters =
  let open Workload in
  [ ("fs_fill01", Default, fun ctx ->
        for _ = 1 to iters do
          let f = fresh_name ctx "fn" in
          with_fd ctx ~flags:creat_rw f (fun fd ->
              let size = Prng.weighted ctx.rng [ (4, 512); (4, 4096); (2, 16384) ] in
              expect_ret ctx "write" size (write_fd ctx fd size);
              expect_ret ctx "seek" 0 (call ctx (Model.lseek ~fd ~offset:0 ~whence:Whence.SEEK_SET));
              expect_ret ctx "read" size (read_fd ctx fd size));
          ignore (aux ctx (Fs.Unlink f))
        done);
    ("fs_meta01", Default, fun ctx ->
        for _ = 1 to max 1 (iters / 4) do
          let d = fresh_dir ctx in
          expect_ok ctx "chmod" (call ctx (Model.chmod ~target:(Model.Path d) ~mode:0o711 ()));
          ignore (aux ctx (Fs.Rmdir d))
        done) ]

let all_cases ~iters =
  open_cases @ read_write_cases @ lseek_cases @ truncate_cases @ metadata_cases
  @ xattr_cases @ functional_cases ~iters

let emit ?(seed = 99) ?(scale = 1.0) ?(faults = []) ?config ?on_test ~on_record () =
  let master = Prng.create ~seed in
  let failures = ref [] in
  let iters = max 1 (int_of_float (120.0 *. scale)) in
  let cases = all_cases ~iters in
  Span.with_ ~name:"ltp/cases" (fun () ->
  List.iter
    (fun (name, kind, body) ->
      Metrics.Counter.incr m_cases;
      let base =
        match config with
        | Some base -> base
        | None -> (match kind with Default -> Config.default | Small -> Config.small)
      in
      let config = Config.with_faults faults base in
      let ctx =
        Workload.init ~config ~comm ?on_test ~on_record ~mount
          ~seed:(Int64.to_int (Prng.next_int64 master)) ()
      in
      Workload.begin_test ctx name;
      body ctx;
      failures := List.rev_append (Workload.failures ctx) !failures)
    cases);
  (List.rev !failures, { testcases_run = List.length cases })

let run ?seed ?scale ?faults ?config ?sink ?dispatch ~coverage () =
  Workload.run_inline ~mount ?sink ?dispatch ~coverage (fun on_record ->
      emit ?seed ?scale ?faults ?config ~on_record ())
