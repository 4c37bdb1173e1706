(* Semantics tests for the in-memory file system: extent algebra, path
   resolution, and the POSIX behaviour of every modeled syscall,
   including each reachable error path. *)

open Iocov_syscall
open Iocov_vfs

let check_bool = Alcotest.(check bool)
let check_int = Alcotest.(check int)

let ret_fd = function
  | Model.Ret fd -> fd
  | Model.Err e -> Alcotest.failf "expected success, got %s" (Errno.to_string e)

let expect_ret what expected outcome =
  match outcome with
  | Model.Ret n -> Alcotest.(check int) what expected n
  | Model.Err e -> Alcotest.failf "%s: expected %d, got %s" what expected (Errno.to_string e)

let expect_err what expected outcome =
  match outcome with
  | Model.Err e ->
    Alcotest.(check string) what (Errno.to_string expected) (Errno.to_string e)
  | Model.Ret n -> Alcotest.failf "%s: expected %s, got %d" what (Errno.to_string expected) n

let rdonly = Open_flags.of_flags Open_flags.[ O_RDONLY ]
let wronly = Open_flags.of_flags Open_flags.[ O_WRONLY ]
let rdwr = Open_flags.of_flags Open_flags.[ O_RDWR ]
let creat = Open_flags.of_flags Open_flags.[ O_WRONLY; O_CREAT ]
let creat_rw = Open_flags.of_flags Open_flags.[ O_RDWR; O_CREAT ]

let fresh ?config () =
  let fs = Fs.create ?config () in
  ignore (Fs.exec fs (Model.mkdir ~mode:0o755 "/d"));
  fs

let make_file ?(size = 0) fs path =
  let fd = ret_fd (Fs.exec fs (Model.open_ ~mode:0o644 ~flags:creat_rw path)) in
  if size > 0 then expect_ret "setup write" size (Fs.exec fs (Model.write ~fd ~count:size ()));
  ignore (Fs.exec fs (Model.close fd));
  path

(* --- Node extent algebra --- *)

let test_extents_empty_segments () =
  Alcotest.(check int) "hole only" 1 (List.length (Node.segments [] ~off:0 ~len:100));
  (match Node.segments [] ~off:0 ~len:100 with
   | [ (0, 100, None) ] -> ()
   | _ -> Alcotest.fail "expected one hole segment")

let test_extents_write_then_read () =
  let e = Node.write_extents [] ~off:10 ~len:5 ~fill:'x' in
  Alcotest.(check char) "in data" 'x' (Node.byte_at e 12);
  Alcotest.(check char) "in hole" '\000' (Node.byte_at e 3);
  Alcotest.(check char) "past data" '\000' (Node.byte_at e 15)

let test_extents_overwrite_splits () =
  let e = Node.write_extents [] ~off:0 ~len:10 ~fill:'a' in
  let e = Node.write_extents e ~off:3 ~len:4 ~fill:'b' in
  Alcotest.(check char) "left keeps a" 'a' (Node.byte_at e 2);
  Alcotest.(check char) "middle is b" 'b' (Node.byte_at e 5);
  Alcotest.(check char) "right keeps a" 'a' (Node.byte_at e 8)

let test_extents_truncate () =
  let e = Node.write_extents [] ~off:0 ~len:100 ~fill:'z' in
  let e = Node.truncate_extents e ~size:50 in
  Alcotest.(check char) "kept" 'z' (Node.byte_at e 49);
  Alcotest.(check char) "dropped" '\000' (Node.byte_at e 50)

let test_extents_next_data_hole () =
  let e = Node.write_extents [] ~off:4096 ~len:4096 ~fill:'d' in
  check_bool "next_data from 0" true (Node.next_data e ~off:0 = Some 4096);
  check_bool "next_data inside" true (Node.next_data e ~off:5000 = Some 5000);
  check_bool "next_data past" true (Node.next_data e ~off:8192 = None);
  check_int "next_hole at 0" 0 (Node.next_hole e ~off:0);
  check_int "next_hole inside data" 8192 (Node.next_hole e ~off:4096)

let test_extents_zero_write_identity () =
  let e = Node.write_extents [] ~off:5 ~len:0 ~fill:'q' in
  check_bool "no extents" true (e = [])

(* Reference model: compare the extent algebra against a plain byte
   array under a random schedule of writes and truncates. *)
let extents_match_reference_prop =
  let op_gen =
    QCheck.Gen.(
      oneof
        [ map3 (fun off len fill -> `Write (off, len, fill)) (int_range 0 200)
            (int_range 0 60)
            (map (fun i -> Char.chr (97 + (i mod 26))) (int_range 0 25));
          map (fun size -> `Truncate size) (int_range 0 256) ])
  in
  QCheck.Test.make ~name:"extents agree with a byte-array reference" ~count:300
    (QCheck.make QCheck.Gen.(list_size (int_range 0 25) op_gen))
    (fun ops ->
      let reference = Bytes.make 512 '\000' in
      let ref_size = ref 0 in
      let extents = ref [] in
      List.iter
        (fun op ->
          match op with
          | `Write (off, len, fill) ->
            extents := Node.write_extents !extents ~off ~len ~fill;
            Bytes.fill reference off len fill;
            ref_size := max !ref_size (off + len)
          | `Truncate size ->
            extents := Node.truncate_extents !extents ~size;
            if size < !ref_size then
              Bytes.fill reference size (!ref_size - size) '\000';
            ref_size := size)
        ops;
      let ok = ref true in
      for i = 0 to !ref_size - 1 do
        if Node.byte_at !extents i <> Bytes.get reference i then ok := false
      done;
      (* nothing may live beyond the size *)
      List.iter
        (fun (e : Node.extent) -> if e.Node.off + e.Node.len > !ref_size then ok := false)
        !extents;
      !ok)

(* Reference writer: cut the range out of every run, then re-sort the
   whole list with the new run in it. *)
let carve_and_sort extents ~off ~len ~fill =
  let ext_end (e : Node.extent) = e.Node.off + e.Node.len in
  if len = 0 then extents
  else begin
    let stop = off + len in
    let carved =
      List.concat_map
        (fun (e : Node.extent) ->
          if ext_end e <= off || e.Node.off >= stop then [ e ]
          else begin
            let left =
              if e.Node.off < off then [ { e with Node.len = off - e.Node.off } ] else []
            in
            let right =
              if ext_end e > stop then
                [ { Node.off = stop; len = ext_end e - stop; fill = e.Node.fill } ]
              else []
            in
            left @ right
          end)
        extents
    in
    List.sort
      (fun (a : Node.extent) (b : Node.extent) -> compare a.Node.off b.Node.off)
      ({ Node.off; len; fill } :: carved)
  end

(* Extent lists, not only bytes: the single pass must split, drop and
   share exactly as carve + sort did, under writes, appends with a
   fresh fill each (as the VFS clock makes them) and truncates. *)
let write_extents_match_carve_prop =
  let fill_gen = QCheck.Gen.map (fun i -> Char.chr (97 + i)) (QCheck.Gen.int_bound 25) in
  let op_gen =
    QCheck.Gen.(
      frequency
        [ (4, map3 (fun off len fill -> `Write (off, len, fill)) (int_bound 300)
                (int_bound 80) fill_gen);
          (3, map2 (fun len fill -> `Append (len, fill)) (int_range 1 40) fill_gen);
          (1, map (fun size -> `Truncate size) (int_bound 320)) ])
  in
  let show extents =
    String.concat " "
      (List.map
         (fun (e : Node.extent) -> Printf.sprintf "%d+%d%c" e.Node.off e.Node.len e.Node.fill)
         extents)
  in
  QCheck.Test.make ~name:"write_extents = carve + sort" ~count:300
    (QCheck.make QCheck.Gen.(list_size (int_range 0 60) op_gen))
    (fun ops ->
      let size = ref 0 in
      ignore
        (List.fold_left
           (fun extents op ->
             let next =
               match op with
               | `Write (off, len, fill) ->
                 size := max !size (off + len);
                 Some (off, len, fill)
               | `Append (len, fill) ->
                 let off = !size in
                 size := off + len;
                 Some (off, len, fill)
               | `Truncate n ->
                 size := n;
                 None
             in
             match next with
             | None -> Node.truncate_extents extents ~size:!size
             | Some (off, len, fill) ->
               let got = Node.write_extents extents ~off ~len ~fill in
               let want = carve_and_sort extents ~off ~len ~fill in
               if got <> want then
                 QCheck.Test.fail_reportf "write %d+%d%c onto [%s]: got [%s], want [%s]" off
                   len fill (show extents) (show got) (show want);
               got)
           [] ops);
      true)

let test_checksum_insensitive_to_history () =
  let mk writes =
    List.fold_left
      (fun acc (off, len, fill) -> Node.write_extents acc ~off ~len ~fill)
      [] writes
  in
  let body1 = Node.Reg { extents = mk [ (0, 4, 'a'); (4, 4, 'a') ] } in
  let body2 = Node.Reg { extents = mk [ (0, 8, 'a') ] } in
  let n1 = Node.create ~ino:1 ~body:body1 ~mode:0o644 ~uid:0 ~gid:0 ~now:0 in
  let n2 = Node.create ~ino:2 ~body:body2 ~mode:0o644 ~uid:0 ~gid:0 ~now:0 in
  n1.Node.size <- 8;
  n2.Node.size <- 8;
  check_bool "equal contents hash equally" true
    (Node.content_checksum n1 = Node.content_checksum n2)

(* --- Path --- *)

let test_path_empty_is_enoent () =
  match Path.parse ~max_name_len:255 ~max_path_len:4096 "" with
  | Error Errno.ENOENT -> ()
  | _ -> Alcotest.fail "expected ENOENT"

let test_path_component_too_long () =
  match Path.parse ~max_name_len:10 ~max_path_len:4096 ("/" ^ String.make 11 'x') with
  | Error Errno.ENAMETOOLONG -> ()
  | _ -> Alcotest.fail "expected ENAMETOOLONG"

let test_path_whole_too_long () =
  match Path.parse ~max_name_len:255 ~max_path_len:10 "/aaaa/bbbb/cccc" with
  | Error Errno.ENAMETOOLONG -> ()
  | _ -> Alcotest.fail "expected ENAMETOOLONG"

let test_path_parse_shapes () =
  let p = Result.get_ok (Path.parse ~max_name_len:255 ~max_path_len:4096 "/a//b/") in
  check_bool "absolute" true p.Path.absolute;
  Alcotest.(check (list string)) "components" [ "a"; "b" ] p.Path.components;
  check_bool "trailing slash" true p.Path.trailing_slash;
  let q = Result.get_ok (Path.parse ~max_name_len:255 ~max_path_len:4096 "a/./..") in
  check_bool "relative" false q.Path.absolute;
  Alcotest.(check (list string)) "keeps dots" [ "a"; "."; ".." ] q.Path.components

let test_path_join_basename () =
  Alcotest.(check string) "join" "/a/b" (Path.join "/a" "b");
  Alcotest.(check string) "join slash" "/a/b" (Path.join "/a/" "b");
  Alcotest.(check string) "basename" "c" (Path.basename "/a/b/c");
  Alcotest.(check string) "root basename" "/" (Path.basename "/")

(* --- open --- *)

let test_open_enoent () =
  let fs = fresh () in
  expect_err "missing file" Errno.ENOENT (Fs.exec fs (Model.open_ ~flags:rdonly "/d/x"))

let test_open_creates () =
  let fs = fresh () in
  let fd = ret_fd (Fs.exec fs (Model.open_ ~mode:0o644 ~flags:creat "/d/x")) in
  check_int "first fd is 3" 3 fd;
  check_bool "file exists" true (Fs.exists fs "/d/x")

let test_open_excl () =
  let fs = fresh () in
  ignore (make_file fs "/d/x");
  expect_err "O_EXCL on existing" Errno.EEXIST
    (Fs.exec fs
       (Model.open_ ~mode:0o644 ~flags:Open_flags.(of_flags [ O_WRONLY; O_CREAT; O_EXCL ]) "/d/x"))

let test_open_trunc_resets_size () =
  let fs = fresh () in
  ignore (make_file ~size:100 fs "/d/x");
  let fd =
    ret_fd
      (Fs.exec fs (Model.open_ ~flags:Open_flags.(of_flags [ O_WRONLY; O_TRUNC ]) "/d/x"))
  in
  ignore (Fs.exec fs (Model.close fd));
  check_int "size 0 after O_TRUNC" 0 (Result.get_ok (Fs.stat fs "/d/x")).Fs.st_size

let test_open_isdir () =
  let fs = fresh () in
  expect_err "write-open dir" Errno.EISDIR (Fs.exec fs (Model.open_ ~flags:wronly "/d"))

let test_open_directory_flag_on_file () =
  let fs = fresh () in
  ignore (make_file fs "/d/x");
  expect_err "O_DIRECTORY on file" Errno.ENOTDIR
    (Fs.exec fs (Model.open_ ~flags:Open_flags.(of_flags [ O_RDONLY; O_DIRECTORY ]) "/d/x"))

let test_open_notdir_component () =
  let fs = fresh () in
  ignore (make_file fs "/d/x");
  expect_err "file as dir" Errno.ENOTDIR (Fs.exec fs (Model.open_ ~flags:rdonly "/d/x/y"))

let test_open_symlink_follow_and_nofollow () =
  let fs = fresh () in
  ignore (make_file ~size:5 fs "/d/real");
  ignore (Fs.exec_aux fs (Fs.Symlink ("/d/real", "/d/lnk")));
  let fd = ret_fd (Fs.exec fs (Model.open_ ~flags:rdonly "/d/lnk")) in
  expect_ret "reads through link" 5 (Fs.exec fs (Model.read ~fd ~count:100 ()));
  ignore (Fs.exec fs (Model.close fd));
  expect_err "O_NOFOLLOW" Errno.ELOOP
    (Fs.exec fs (Model.open_ ~flags:Open_flags.(of_flags [ O_RDONLY; O_NOFOLLOW ]) "/d/lnk"))

let test_open_symlink_loop () =
  let fs = fresh () in
  ignore (Fs.exec_aux fs (Fs.Symlink ("/d/b", "/d/a")));
  ignore (Fs.exec_aux fs (Fs.Symlink ("/d/a", "/d/b")));
  expect_err "cycle" Errno.ELOOP (Fs.exec fs (Model.open_ ~flags:rdonly "/d/a"))

let test_open_eacces () =
  let fs = fresh () in
  ignore (make_file fs "/d/secret");
  ignore (Fs.exec fs (Model.chmod ~target:(Model.Path "/d/secret") ~mode:0o600 ()));
  Fs.set_credentials fs ~uid:1000 ~gid:1000;
  expect_err "other denied" Errno.EACCES (Fs.exec fs (Model.open_ ~flags:rdonly "/d/secret"))

let test_open_eacces_traversal () =
  let fs = fresh () in
  ignore (Fs.exec fs (Model.mkdir ~mode:0o700 "/d/private"));
  ignore (make_file fs "/d/private/x");
  Fs.set_credentials fs ~uid:1000 ~gid:1000;
  expect_err "no dir exec" Errno.EACCES (Fs.exec fs (Model.open_ ~flags:rdonly "/d/private/x"))

let test_open_emfile () =
  let config = { Config.small with Config.max_open_files = 4 } in
  let fs = fresh ~config () in
  ignore (make_file fs "/d/x");
  for _ = 1 to 4 do
    ignore (ret_fd (Fs.exec fs (Model.open_ ~flags:rdonly "/d/x")))
  done;
  expect_err "fd table full" Errno.EMFILE (Fs.exec fs (Model.open_ ~flags:rdonly "/d/x"))

let test_open_enfile () =
  let fs = fresh () in
  ignore (make_file fs "/d/x");
  Fs.set_system_file_load fs (Config.default.Config.max_system_files);
  expect_err "system table full" Errno.ENFILE (Fs.exec fs (Model.open_ ~flags:rdonly "/d/x"));
  Fs.set_system_file_load fs 0

let test_open_erofs () =
  let fs = fresh () in
  ignore (make_file fs "/d/x");
  Fs.set_read_only fs true;
  expect_err "write open" Errno.EROFS (Fs.exec fs (Model.open_ ~flags:wronly "/d/x"));
  expect_err "create" Errno.EROFS (Fs.exec fs (Model.open_ ~mode:0o644 ~flags:creat "/d/new"));
  (* read-only open of an existing file still succeeds *)
  let fd = ret_fd (Fs.exec fs (Model.open_ ~flags:rdonly "/d/x")) in
  ignore (Fs.exec fs (Model.close fd))

let test_open_etxtbsy () =
  let fs = fresh () in
  ignore (make_file fs "/d/prog");
  ignore (Fs.set_executing fs "/d/prog" true);
  expect_err "running binary" Errno.ETXTBSY (Fs.exec fs (Model.open_ ~flags:wronly "/d/prog"));
  let fd = ret_fd (Fs.exec fs (Model.open_ ~flags:rdonly "/d/prog")) in
  ignore (Fs.exec fs (Model.close fd))

let test_open_immutable () =
  let fs = fresh () in
  ignore (make_file fs "/d/frozen");
  ignore (Fs.set_immutable fs "/d/frozen" true);
  expect_err "immutable write" Errno.EPERM (Fs.exec fs (Model.open_ ~flags:wronly "/d/frozen"))

let test_open_ebusy () =
  let fs = fresh () in
  ignore (make_file fs "/d/busy");
  ignore (Fs.set_busy fs "/d/busy" true);
  expect_err "busy" Errno.EBUSY (Fs.exec fs (Model.open_ ~flags:rdonly "/d/busy"))

let test_open_special_nodes () =
  let fs = fresh () in
  ignore (Fs.mknod_special fs "/d/fifo" `Fifo);
  ignore (Fs.mknod_special fs "/d/dev_dead" (`Device true));
  ignore (Fs.mknod_special fs "/d/dev_none" (`Device false));
  expect_err "nonblock fifo writer" Errno.ENXIO
    (Fs.exec fs (Model.open_ ~flags:Open_flags.(of_flags [ O_WRONLY; O_NONBLOCK ]) "/d/fifo"));
  expect_err "dead device" Errno.ENXIO (Fs.exec fs (Model.open_ ~flags:rdonly "/d/dev_dead"));
  expect_err "driverless device" Errno.ENODEV (Fs.exec fs (Model.open_ ~flags:rdonly "/d/dev_none"))

let test_open_eoverflow () =
  let fs = fresh () in
  ignore (make_file fs "/d/huge");
  let threshold = Config.default.Config.large_file_threshold in
  expect_ret "grow sparse" 0
    (Fs.exec fs (Model.truncate ~target:(Model.Path "/d/huge") ~length:threshold ()));
  expect_err "no O_LARGEFILE" Errno.EOVERFLOW (Fs.exec fs (Model.open_ ~flags:rdonly "/d/huge"));
  let fd =
    ret_fd
      (Fs.exec fs (Model.open_ ~flags:Open_flags.(of_flags [ O_RDONLY; O_LARGEFILE ]) "/d/huge"))
  in
  ignore (Fs.exec fs (Model.close fd))

let test_open_tmpfile () =
  let fs = fresh () in
  expect_err "read-only tmpfile" Errno.EINVAL
    (Fs.exec fs (Model.open_ ~flags:Open_flags.(of_flags [ O_RDONLY; O_TMPFILE ]) "/d"));
  let before = Fs.used_blocks fs in
  let fd =
    ret_fd (Fs.exec fs (Model.open_ ~mode:0o600 ~flags:Open_flags.(of_flags [ O_RDWR; O_TMPFILE ]) "/d"))
  in
  expect_ret "anonymous write" 4096 (Fs.exec fs (Model.write ~fd ~count:4096 ()));
  check_bool "no name appears" true (Result.get_ok (Fs.list_dir fs "/d") = []);
  ignore (Fs.exec fs (Model.close fd));
  check_int "blocks released at close" before (Fs.used_blocks fs)

let test_open_fd_reuse_lowest () =
  let fs = fresh () in
  ignore (make_file fs "/d/x");
  let fd1 = ret_fd (Fs.exec fs (Model.open_ ~flags:rdonly "/d/x")) in
  let fd2 = ret_fd (Fs.exec fs (Model.open_ ~flags:rdonly "/d/x")) in
  ignore (Fs.exec fs (Model.close fd1));
  let fd3 = ret_fd (Fs.exec fs (Model.open_ ~flags:rdonly "/d/x")) in
  check_int "lowest free fd reused" fd1 fd3;
  ignore (Fs.exec fs (Model.close fd2));
  ignore (Fs.exec fs (Model.close fd3))

(* --- read / write --- *)

let test_rw_roundtrip_sizes () =
  let fs = fresh () in
  let fd = ret_fd (Fs.exec fs (Model.open_ ~mode:0o644 ~flags:creat_rw "/d/f")) in
  expect_ret "write" 5000 (Fs.exec fs (Model.write ~fd ~count:5000 ()));
  expect_ret "seek home" 0 (Fs.exec fs (Model.lseek ~fd ~offset:0 ~whence:Whence.SEEK_SET));
  expect_ret "read all" 5000 (Fs.exec fs (Model.read ~fd ~count:9999 ()));
  expect_ret "read at eof" 0 (Fs.exec fs (Model.read ~fd ~count:10 ()));
  ignore (Fs.exec fs (Model.close fd))

let test_read_ebadf () =
  let fs = fresh () in
  expect_err "never opened" Errno.EBADF (Fs.exec fs (Model.read ~fd:42 ~count:10 ()));
  ignore (make_file fs "/d/x");
  let fd = ret_fd (Fs.exec fs (Model.open_ ~flags:wronly "/d/x")) in
  expect_err "write-only fd" Errno.EBADF (Fs.exec fs (Model.read ~fd ~count:10 ()));
  ignore (Fs.exec fs (Model.close fd))

let test_write_ebadf_on_rdonly () =
  let fs = fresh () in
  ignore (make_file fs "/d/x");
  let fd = ret_fd (Fs.exec fs (Model.open_ ~flags:rdonly "/d/x")) in
  expect_err "read-only fd" Errno.EBADF (Fs.exec fs (Model.write ~fd ~count:10 ()));
  ignore (Fs.exec fs (Model.close fd))

let test_read_eisdir () =
  let fs = fresh () in
  let fd = ret_fd (Fs.exec fs (Model.open_ ~flags:rdonly "/d")) in
  expect_err "read dir" Errno.EISDIR (Fs.exec fs (Model.read ~fd ~count:10 ()));
  ignore (Fs.exec fs (Model.close fd))

let test_pread_pwrite_do_not_move_offset () =
  let fs = fresh () in
  let fd = ret_fd (Fs.exec fs (Model.open_ ~mode:0o644 ~flags:creat_rw "/d/f")) in
  expect_ret "pwrite" 100
    (Fs.exec fs (Model.write ~variant:Model.Sys_pwrite64 ~offset:50 ~fd ~count:100 ()));
  expect_ret "offset still 0" 0 (Fs.exec fs (Model.lseek ~fd ~offset:0 ~whence:Whence.SEEK_CUR));
  expect_ret "pread" 100
    (Fs.exec fs (Model.read ~variant:Model.Sys_pread64 ~offset:50 ~fd ~count:100 ()));
  expect_ret "offset unchanged" 0 (Fs.exec fs (Model.lseek ~fd ~offset:0 ~whence:Whence.SEEK_CUR));
  ignore (Fs.exec fs (Model.close fd))

(* pread64/pwrite64 refuse a negative offset before the fd lookup
   (ksys_pread64/ksys_pwrite64): EINVAL on any fd, even one that read or
   write would refuse with EBADF or EISDIR. *)
let test_pread_negative_offset () =
  let fs = fresh () in
  let fd = ret_fd (Fs.exec fs (Model.open_ ~mode:0o644 ~flags:creat_rw "/d/f")) in
  let ro = ret_fd (Fs.exec fs (Model.open_ ~flags:rdonly "/d/f")) in
  let wo = ret_fd (Fs.exec fs (Model.open_ ~flags:wronly "/d/f")) in
  let dir = ret_fd (Fs.exec fs (Model.open_ ~flags:rdonly "/d")) in
  let path_fd =
    ret_fd
      (Fs.exec fs
         (Model.open_ ~flags:(Open_flags.of_flags Open_flags.[ O_RDONLY; O_PATH ]) "/d/f"))
  in
  let unknown = 999 in
  let pread fd offset = Model.read ~variant:Model.Sys_pread64 ~offset ~fd ~count:10 () in
  let pwrite fd offset = Model.write ~variant:Model.Sys_pwrite64 ~offset ~fd ~count:10 () in
  List.iter
    (fun offset ->
      List.iter
        (fun (what, call) ->
          expect_err (Printf.sprintf "%s at %d" what offset) Errno.EINVAL (Fs.exec fs call))
        [ ("pread", pread fd offset); ("pwrite", pwrite fd offset);
          ("pread of an unknown fd", pread unknown offset);
          ("pwrite of an unknown fd", pwrite unknown offset);
          ("pread of a directory", pread dir offset);
          ("pwrite of a directory", pwrite dir offset);
          ("pread of a write-only fd", pread wo offset);
          ("pwrite of a read-only fd", pwrite ro offset);
          ("pread of an O_PATH fd", pread path_fd offset);
          ("pwrite of an O_PATH fd", pwrite path_fd offset) ])
    [ -1; min_int ];
  (* without an offset the fd is checked first, as before *)
  expect_err "read of an unknown fd" Errno.EBADF
    (Fs.exec fs (Model.read ~fd:unknown ~count:10 ()));
  expect_err "write of an unknown fd" Errno.EBADF
    (Fs.exec fs (Model.write ~fd:unknown ~count:10 ()));
  expect_err "read of a directory" Errno.EISDIR (Fs.exec fs (Model.read ~fd:dir ~count:10 ()));
  expect_err "read of a write-only fd" Errno.EBADF
    (Fs.exec fs (Model.read ~fd:wo ~count:10 ()));
  expect_err "write of a read-only fd" Errno.EBADF
    (Fs.exec fs (Model.write ~fd:ro ~count:10 ()));
  List.iter (fun fd -> ignore (Fs.exec fs (Model.close fd))) [ fd; ro; wo; dir; path_fd ]

(* A negative byte count is EINVAL (Linux's [rw_verify_area]), checked
   after the fd's access mode and before the per-type dispatch, and it
   leaves the fd offset and the file alone. *)
let test_negative_count_einval () =
  let fs = fresh () in
  ignore (make_file ~size:100 fs "/d/f");
  let fd = ret_fd (Fs.exec fs (Model.open_ ~flags:rdwr "/d/f")) in
  expect_ret "seek" 40 (Fs.exec fs (Model.lseek ~fd ~offset:40 ~whence:Whence.SEEK_SET));
  let calls count =
    [ ("read", Model.read ~fd ~count ());
      ("pread64", Model.read ~variant:Model.Sys_pread64 ~offset:10 ~fd ~count ());
      ("write", Model.write ~fd ~count ());
      ("pwrite64", Model.write ~variant:Model.Sys_pwrite64 ~offset:10 ~fd ~count ()) ]
  in
  List.iter
    (fun count ->
      List.iter
        (fun (name, call) ->
          let what = Printf.sprintf "%s count %d" name count in
          expect_err what Errno.EINVAL (Fs.exec fs call);
          expect_ret (what ^ ": offset kept") 40
            (Fs.exec fs (Model.lseek ~fd ~offset:0 ~whence:Whence.SEEK_CUR));
          expect_ret (what ^ ": size kept") 100
            (Fs.exec fs (Model.lseek ~fd ~offset:0 ~whence:Whence.SEEK_END));
          ignore (Fs.exec fs (Model.lseek ~fd ~offset:40 ~whence:Whence.SEEK_SET)))
        (calls count))
    [ -1; min_int ];
  expect_ret "data intact" 60 (Fs.exec fs (Model.read ~fd ~count:1000 ()));
  ignore (Fs.exec fs (Model.close fd));
  let ro = ret_fd (Fs.exec fs (Model.open_ ~flags:rdonly "/d/f")) in
  expect_err "read-only fd write" Errno.EBADF (Fs.exec fs (Model.write ~fd:ro ~count:(-1) ()));
  let wo = ret_fd (Fs.exec fs (Model.open_ ~flags:wronly "/d/f")) in
  expect_err "write-only fd read" Errno.EBADF (Fs.exec fs (Model.read ~fd:wo ~count:(-1) ()));
  let dir = ret_fd (Fs.exec fs (Model.open_ ~flags:rdonly "/d")) in
  expect_err "directory read" Errno.EINVAL (Fs.exec fs (Model.read ~fd:dir ~count:(-1) ()))

let test_write_zero_keeps_offset () =
  let fs = fresh () in
  let fd = ret_fd (Fs.exec fs (Model.open_ ~mode:0o644 ~flags:creat_rw "/d/f")) in
  expect_ret "zero write" 0 (Fs.exec fs (Model.write ~fd ~count:0 ()));
  expect_ret "offset still 0" 0 (Fs.exec fs (Model.lseek ~fd ~offset:0 ~whence:Whence.SEEK_CUR));
  ignore (Fs.exec fs (Model.close fd))

let test_append_mode () =
  let fs = fresh () in
  ignore (make_file ~size:100 fs "/d/f");
  let fd =
    ret_fd (Fs.exec fs (Model.open_ ~flags:Open_flags.(of_flags [ O_WRONLY; O_APPEND ]) "/d/f"))
  in
  expect_ret "append" 50 (Fs.exec fs (Model.write ~fd ~count:50 ()));
  check_int "size grew from end" 150 (Result.get_ok (Fs.stat fs "/d/f")).Fs.st_size;
  ignore (Fs.exec fs (Model.close fd))

let test_write_efbig () =
  let fs = fresh ~config:Config.small () in
  let limit = Config.small.Config.max_file_size in
  let fd = ret_fd (Fs.exec fs (Model.open_ ~mode:0o644 ~flags:creat_rw "/d/f")) in
  expect_err "write at limit" Errno.EFBIG
    (Fs.exec fs (Model.write ~variant:Model.Sys_pwrite64 ~offset:limit ~fd ~count:1 ()));
  (* a write straddling the limit is clamped to a short write *)
  expect_ret "clamped write" 1
    (Fs.exec fs (Model.write ~variant:Model.Sys_pwrite64 ~offset:(limit - 1) ~fd ~count:100 ()));
  ignore (Fs.exec fs (Model.close fd))

let test_write_enospc_and_short_write () =
  let fs = fresh ~config:Config.small () in
  (* small fs: 1024 blocks; fill it with 1MiB files *)
  let enospc = ref false in
  let n = ref 0 in
  while (not !enospc) && !n < 12 do
    incr n;
    let fd =
      ret_fd
        (Fs.exec fs (Model.open_ ~mode:0o644 ~flags:creat_rw (Printf.sprintf "/d/f%d" !n)))
    in
    (match Fs.exec fs (Model.write ~fd ~count:(1024 * 1024) ()) with
     | Model.Ret k -> if k < 1024 * 1024 then enospc := true (* short write: nearly full *)
     | Model.Err Errno.ENOSPC -> enospc := true
     | Model.Err e -> Alcotest.failf "unexpected %s" (Errno.to_string e));
    ignore (Fs.exec fs (Model.close fd))
  done;
  check_bool "device filled" true !enospc;
  (* with zero room, a write must fail outright *)
  let fd = ret_fd (Fs.exec fs (Model.open_ ~flags:wronly "/d/f1")) in
  (match Fs.exec fs (Model.write ~variant:Model.Sys_pwrite64 ~offset:(1024 * 1024 - 1) ~fd ~count:1 ()) with
   | Model.Ret 1 -> () (* last byte still fit inside an allocated block *)
   | Model.Ret n -> Alcotest.failf "unexpected short %d" n
   | Model.Err Errno.ENOSPC -> ()
   | Model.Err e -> Alcotest.failf "unexpected %s" (Errno.to_string e));
  ignore (Fs.exec fs (Model.close fd))

let test_write_edquot () =
  let fs = fresh ~config:Config.small () in
  ignore (Fs.exec fs (Model.chmod ~target:(Model.Path "/d") ~mode:0o777 ()));
  Fs.set_credentials fs ~uid:1000 ~gid:1000;
  (* quota 512 blocks = 2 MiB; third 1MiB file hits it *)
  let hit = ref false in
  let n = ref 0 in
  while (not !hit) && !n < 6 do
    incr n;
    match Fs.exec fs (Model.open_ ~mode:0o644 ~flags:creat_rw (Printf.sprintf "/d/q%d" !n)) with
    | Model.Ret fd ->
      (match Fs.exec fs (Model.write ~fd ~count:(1024 * 1024) ()) with
       | Model.Err Errno.EDQUOT -> hit := true
       | Model.Ret _ -> ()
       | Model.Err e -> Alcotest.failf "unexpected %s" (Errno.to_string e));
      ignore (Fs.exec fs (Model.close fd))
    | Model.Err Errno.EDQUOT -> hit := true
    | Model.Err e -> Alcotest.failf "unexpected open error %s" (Errno.to_string e)
  done;
  check_bool "quota enforced" true !hit;
  Fs.set_credentials fs ~uid:0 ~gid:0

let test_fifo_rw_nonblock () =
  let fs = fresh () in
  ignore (Fs.mknod_special fs "/d/p" `Fifo);
  let fd =
    ret_fd (Fs.exec fs (Model.open_ ~flags:Open_flags.(of_flags [ O_RDONLY; O_NONBLOCK ]) "/d/p"))
  in
  expect_err "empty fifo" Errno.EAGAIN (Fs.exec fs (Model.read ~fd ~count:10 ()));
  ignore (Fs.exec fs (Model.close fd))

(* --- lseek --- *)

let test_lseek_whences () =
  let fs = fresh () in
  ignore (make_file ~size:1000 fs "/d/f");
  let fd = ret_fd (Fs.exec fs (Model.open_ ~flags:rdonly "/d/f")) in
  expect_ret "SET" 10 (Fs.exec fs (Model.lseek ~fd ~offset:10 ~whence:Whence.SEEK_SET));
  expect_ret "CUR" 15 (Fs.exec fs (Model.lseek ~fd ~offset:5 ~whence:Whence.SEEK_CUR));
  expect_ret "END" 990 (Fs.exec fs (Model.lseek ~fd ~offset:(-10) ~whence:Whence.SEEK_END));
  expect_ret "past EOF is fine" 2000 (Fs.exec fs (Model.lseek ~fd ~offset:2000 ~whence:Whence.SEEK_SET));
  expect_err "negative target" Errno.EINVAL
    (Fs.exec fs (Model.lseek ~fd ~offset:(-1) ~whence:Whence.SEEK_SET));
  expect_err "overflow" Errno.EOVERFLOW
    (Fs.exec fs (Model.lseek ~fd ~offset:(1 lsl 61) ~whence:Whence.SEEK_SET));
  ignore (Fs.exec fs (Model.close fd))

let test_lseek_data_hole () =
  let fs = fresh () in
  let fd = ret_fd (Fs.exec fs (Model.open_ ~mode:0o644 ~flags:creat_rw "/d/sparse")) in
  expect_ret "data write" 4096
    (Fs.exec fs (Model.write ~variant:Model.Sys_pwrite64 ~offset:8192 ~fd ~count:4096 ()));
  expect_ret "grow" 0 (Fs.exec fs (Model.truncate ~target:(Model.Fd fd) ~length:65536 ()));
  expect_ret "DATA from 0" 8192 (Fs.exec fs (Model.lseek ~fd ~offset:0 ~whence:Whence.SEEK_DATA));
  expect_ret "HOLE at 0" 0 (Fs.exec fs (Model.lseek ~fd ~offset:0 ~whence:Whence.SEEK_HOLE));
  expect_ret "HOLE in data" 12288
    (Fs.exec fs (Model.lseek ~fd ~offset:8192 ~whence:Whence.SEEK_HOLE));
  expect_err "DATA past data" Errno.ENXIO
    (Fs.exec fs (Model.lseek ~fd ~offset:12288 ~whence:Whence.SEEK_DATA));
  expect_err "DATA past EOF" Errno.ENXIO
    (Fs.exec fs (Model.lseek ~fd ~offset:70000 ~whence:Whence.SEEK_DATA));
  ignore (Fs.exec fs (Model.close fd))

let test_lseek_espipe () =
  let fs = fresh () in
  ignore (Fs.mknod_special fs "/d/p" `Fifo);
  let fd =
    ret_fd (Fs.exec fs (Model.open_ ~flags:Open_flags.(of_flags [ O_RDONLY; O_NONBLOCK ]) "/d/p"))
  in
  expect_err "seek on fifo" Errno.ESPIPE
    (Fs.exec fs (Model.lseek ~fd ~offset:0 ~whence:Whence.SEEK_SET));
  ignore (Fs.exec fs (Model.close fd))

(* --- truncate --- *)

let test_truncate_semantics () =
  let fs = fresh () in
  ignore (make_file ~size:1000 fs "/d/f");
  expect_ret "shrink" 0 (Fs.exec fs (Model.truncate ~target:(Model.Path "/d/f") ~length:10 ()));
  check_int "shrunk" 10 (Result.get_ok (Fs.stat fs "/d/f")).Fs.st_size;
  expect_ret "grow leaves hole" 0
    (Fs.exec fs (Model.truncate ~target:(Model.Path "/d/f") ~length:100 ()));
  check_int "grown" 100 (Result.get_ok (Fs.stat fs "/d/f")).Fs.st_size;
  Alcotest.(check char) "hole reads zero" '\000' (Result.get_ok (Fs.read_byte fs "/d/f" 50));
  expect_err "negative" Errno.EINVAL
    (Fs.exec fs (Model.truncate ~target:(Model.Path "/d/f") ~length:(-1) ()));
  expect_err "dir" Errno.EISDIR (Fs.exec fs (Model.truncate ~target:(Model.Path "/d") ~length:0 ()));
  expect_err "missing" Errno.ENOENT
    (Fs.exec fs (Model.truncate ~target:(Model.Path "/d/none") ~length:0 ()))

let test_truncate_efbig_boundary () =
  let fs = fresh ~config:Config.small () in
  ignore (make_file fs "/d/f");
  let limit = Config.small.Config.max_file_size in
  expect_ret "exactly the limit" 0
    (Fs.exec fs (Model.truncate ~target:(Model.Path "/d/f") ~length:limit ()));
  expect_err "one past the limit" Errno.EFBIG
    (Fs.exec fs (Model.truncate ~target:(Model.Path "/d/f") ~length:(limit + 1) ()))

let test_ftruncate_needs_writable_fd () =
  let fs = fresh () in
  ignore (make_file ~size:10 fs "/d/f");
  let fd = ret_fd (Fs.exec fs (Model.open_ ~flags:rdonly "/d/f")) in
  expect_err "read-only fd" Errno.EINVAL (Fs.exec fs (Model.truncate ~target:(Model.Fd fd) ~length:0 ()));
  ignore (Fs.exec fs (Model.close fd));
  expect_err "stale fd" Errno.EBADF (Fs.exec fs (Model.truncate ~target:(Model.Fd 99) ~length:0 ()))

let test_truncate_releases_blocks () =
  let fs = fresh () in
  let before = Fs.used_blocks fs in
  ignore (make_file ~size:(1024 * 1024) fs "/d/f");
  check_bool "blocks charged" true (Fs.used_blocks fs > before);
  expect_ret "truncate" 0 (Fs.exec fs (Model.truncate ~target:(Model.Path "/d/f") ~length:0 ()));
  check_int "only inode remains" (before + 1) (Fs.used_blocks fs)

(* --- mkdir / chmod / chdir / close --- *)

let test_mkdir_semantics () =
  let fs = fresh () in
  expect_ret "mkdir" 0 (Fs.exec fs (Model.mkdir ~mode:0o750 "/d/sub"));
  check_bool "exists" true (Fs.exists fs "/d/sub");
  check_int "mode stored" 0o750 (Result.get_ok (Fs.stat fs "/d/sub")).Fs.st_mode;
  expect_err "again" Errno.EEXIST (Fs.exec fs (Model.mkdir ~mode:0o755 "/d/sub"));
  expect_err "missing parent" Errno.ENOENT (Fs.exec fs (Model.mkdir ~mode:0o755 "/d/no/sub"));
  expect_err "bad mode" Errno.EINVAL (Fs.exec fs (Model.mkdir ~mode:0o777777 "/d/bad"));
  ignore (make_file fs "/d/file");
  expect_err "under a file" Errno.ENOTDIR (Fs.exec fs (Model.mkdir ~mode:0o755 "/d/file/sub"))

let test_mkdir_nlink_and_dotdot () =
  let fs = fresh () in
  let before = (Result.get_ok (Fs.stat fs "/d")).Fs.st_nlink in
  ignore (Fs.exec fs (Model.mkdir ~mode:0o755 "/d/sub"));
  check_int "parent nlink grows" (before + 1) (Result.get_ok (Fs.stat fs "/d")).Fs.st_nlink;
  (* .. resolves to the parent *)
  check_int "dot-dot" (Result.get_ok (Fs.stat fs "/d")).Fs.st_ino
    (Result.get_ok (Fs.stat fs "/d/sub/..")).Fs.st_ino

let test_chmod_semantics () =
  let fs = fresh () in
  ignore (make_file fs "/d/f");
  expect_ret "chmod" 0 (Fs.exec fs (Model.chmod ~target:(Model.Path "/d/f") ~mode:0o4711 ()));
  check_int "mode" 0o4711 (Result.get_ok (Fs.stat fs "/d/f")).Fs.st_mode;
  expect_err "bad mode" Errno.EINVAL
    (Fs.exec fs (Model.chmod ~target:(Model.Path "/d/f") ~mode:0o200000 ()));
  Fs.set_credentials fs ~uid:1000 ~gid:1000;
  expect_err "non-owner" Errno.EPERM
    (Fs.exec fs (Model.chmod ~target:(Model.Path "/d/f") ~mode:0o777 ()));
  Fs.set_credentials fs ~uid:0 ~gid:0;
  let fd = ret_fd (Fs.exec fs (Model.open_ ~flags:rdonly "/d/f")) in
  expect_ret "fchmod" 0 (Fs.exec fs (Model.chmod ~target:(Model.Fd fd) ~mode:0o600 ()));
  ignore (Fs.exec fs (Model.close fd))

let test_owner_may_chmod_own_file () =
  let fs = fresh () in
  ignore (Fs.exec fs (Model.chmod ~target:(Model.Path "/d") ~mode:0o777 ()));
  Fs.set_credentials fs ~uid:1000 ~gid:1000;
  ignore (make_file fs "/d/mine");
  expect_ret "owner chmod" 0 (Fs.exec fs (Model.chmod ~target:(Model.Path "/d/mine") ~mode:0o600 ()));
  Fs.set_credentials fs ~uid:0 ~gid:0

let test_chdir_semantics () =
  let fs = fresh () in
  ignore (Fs.exec fs (Model.mkdir ~mode:0o755 "/d/sub"));
  ignore (make_file fs "/d/sub/inside");
  expect_ret "chdir" 0 (Fs.exec fs (Model.chdir (Model.Path "/d/sub")));
  (* relative resolution now starts at /d/sub *)
  check_bool "relative lookup" true (Fs.exists fs "inside");
  expect_err "chdir to file" Errno.ENOTDIR (Fs.exec fs (Model.chdir (Model.Path "inside")));
  expect_err "chdir missing" Errno.ENOENT (Fs.exec fs (Model.chdir (Model.Path "/nope")));
  let fd = ret_fd (Fs.exec fs (Model.open_ ~flags:rdonly "/d")) in
  expect_ret "fchdir" 0 (Fs.exec fs (Model.chdir (Model.Fd fd)));
  check_bool "fchdir moved" true (Fs.exists fs "sub");
  ignore (Fs.exec fs (Model.close fd))

let test_close_semantics () =
  let fs = fresh () in
  ignore (make_file fs "/d/f");
  let fd = ret_fd (Fs.exec fs (Model.open_ ~flags:rdonly "/d/f")) in
  expect_ret "close" 0 (Fs.exec fs (Model.close fd));
  expect_err "double close" Errno.EBADF (Fs.exec fs (Model.close fd));
  expect_err "never opened" Errno.EBADF (Fs.exec fs (Model.close 77))

let test_unlinked_file_lives_until_close () =
  let fs = fresh () in
  ignore (make_file ~size:4096 fs "/d/f");
  let fd = ret_fd (Fs.exec fs (Model.open_ ~flags:rdonly "/d/f")) in
  (match Fs.exec_aux fs (Fs.Unlink "/d/f") with Ok _ -> () | Error _ -> Alcotest.fail "unlink");
  check_bool "name gone" false (Fs.exists fs "/d/f");
  expect_ret "still readable" 4096 (Fs.exec fs (Model.read ~fd ~count:9999 ()));
  let used = Fs.used_blocks fs in
  expect_ret "close frees" 0 (Fs.exec fs (Model.close fd));
  check_bool "blocks released" true (Fs.used_blocks fs < used)

(* --- xattr --- *)

let test_xattr_cycle () =
  let fs = fresh () in
  ignore (make_file fs "/d/f");
  let t = Model.Path "/d/f" in
  expect_ret "set" 0 (Fs.exec fs (Model.setxattr ~target:t ~name:"user.a" ~size:100 ()));
  expect_ret "get" 100 (Fs.exec fs (Model.getxattr ~target:t ~name:"user.a" ~size:4096 ()));
  expect_ret "size query" 100 (Fs.exec fs (Model.getxattr ~target:t ~name:"user.a" ~size:0 ()));
  expect_err "short buffer" Errno.ERANGE
    (Fs.exec fs (Model.getxattr ~target:t ~name:"user.a" ~size:99 ()));
  expect_err "missing" Errno.ENODATA
    (Fs.exec fs (Model.getxattr ~target:t ~name:"user.b" ~size:10 ()));
  expect_err "create dup" Errno.EEXIST
    (Fs.exec fs (Model.setxattr ~flags:Xattr_flag.XATTR_CREATE ~target:t ~name:"user.a" ~size:1 ()));
  expect_err "replace missing" Errno.ENODATA
    (Fs.exec fs (Model.setxattr ~flags:Xattr_flag.XATTR_REPLACE ~target:t ~name:"user.b" ~size:1 ()));
  expect_ret "replace" 0
    (Fs.exec fs (Model.setxattr ~flags:Xattr_flag.XATTR_REPLACE ~target:t ~name:"user.a" ~size:7 ()));
  expect_ret "new size" 7 (Fs.exec fs (Model.getxattr ~target:t ~name:"user.a" ~size:0 ()))

let test_xattr_limits () =
  let fs = fresh () in
  ignore (make_file fs "/d/f");
  let t = Model.Path "/d/f" in
  let max = Config.default.Config.max_xattr_value in
  expect_err "E2BIG" Errno.E2BIG
    (Fs.exec fs (Model.setxattr ~target:t ~name:"user.big" ~size:(max + 1) ()));
  expect_err "no space in inode" Errno.ENOSPC
    (Fs.exec fs (Model.setxattr ~target:t ~name:"user.max" ~size:max ()));
  expect_err "bad name" Errno.EINVAL
    (Fs.exec fs (Model.setxattr ~target:t ~name:"noprefix" ~size:4 ()));
  expect_err "system namespace" Errno.ENOTSUP
    (Fs.exec fs (Model.setxattr ~target:t ~name:"system.acl" ~size:4 ()));
  Fs.set_credentials fs ~uid:1000 ~gid:1000;
  expect_err "trusted needs root" Errno.EPERM
    (Fs.exec fs (Model.setxattr ~target:t ~name:"trusted.t" ~size:4 ()));
  Fs.set_credentials fs ~uid:0 ~gid:0

let test_xattr_space_exhaustion () =
  let fs = fresh () in
  ignore (make_file fs "/d/f");
  let t = Model.Path "/d/f" in
  (* xattr_space 4096: a few 1KiB values fill it *)
  let hit = ref false in
  for i = 1 to 8 do
    if not !hit then
      match Fs.exec fs (Model.setxattr ~target:t ~name:(Printf.sprintf "user.v%d" i) ~size:1024 ()) with
      | Model.Err Errno.ENOSPC -> hit := true
      | Model.Ret _ -> ()
      | Model.Err e -> Alcotest.failf "unexpected %s" (Errno.to_string e)
  done;
  check_bool "inode xattr space exhausted" true !hit

let test_lxattr_on_symlink () =
  let fs = fresh () in
  ignore (make_file fs "/d/real");
  ignore (Fs.exec_aux fs (Fs.Symlink ("/d/real", "/d/lnk")));
  expect_ret "lsetxattr on the link" 0
    (Fs.exec fs
       (Model.setxattr ~variant:Model.Sys_lsetxattr ~target:(Model.Path "/d/lnk")
          ~name:"user.l" ~size:3 ()));
  expect_err "plain getxattr follows" Errno.ENODATA
    (Fs.exec fs (Model.getxattr ~target:(Model.Path "/d/lnk") ~name:"user.l" ~size:64 ()));
  expect_ret "lgetxattr sees it" 3
    (Fs.exec fs
       (Model.getxattr ~variant:Model.Sys_lgetxattr ~target:(Model.Path "/d/lnk")
          ~name:"user.l" ~size:64 ()))

(* --- aux ops --- *)

let test_unlink_rmdir () =
  let fs = fresh () in
  ignore (make_file fs "/d/f");
  ignore (Fs.exec fs (Model.mkdir ~mode:0o755 "/d/sub"));
  check_bool "unlink dir is EISDIR" true (Fs.exec_aux fs (Fs.Unlink "/d/sub") = Error Errno.EISDIR);
  check_bool "rmdir file is ENOTDIR" true (Fs.exec_aux fs (Fs.Rmdir "/d/f") = Error Errno.ENOTDIR);
  ignore (make_file fs "/d/sub/x");
  check_bool "rmdir non-empty" true (Fs.exec_aux fs (Fs.Rmdir "/d/sub") = Error Errno.ENOTEMPTY);
  check_bool "unlink inside" true (Fs.exec_aux fs (Fs.Unlink "/d/sub/x") = Ok 0);
  check_bool "rmdir now" true (Fs.exec_aux fs (Fs.Rmdir "/d/sub") = Ok 0);
  check_bool "unlink file" true (Fs.exec_aux fs (Fs.Unlink "/d/f") = Ok 0);
  check_bool "unlink again" true (Fs.exec_aux fs (Fs.Unlink "/d/f") = Error Errno.ENOENT)

let test_rmdir_cwd_busy () =
  let fs = fresh () in
  ignore (Fs.exec fs (Model.mkdir ~mode:0o755 "/d/sub"));
  ignore (Fs.exec fs (Model.chdir (Model.Path "/d/sub")));
  check_bool "rmdir cwd" true (Fs.exec_aux fs (Fs.Rmdir "/d/sub") = Error Errno.EBUSY);
  ignore (Fs.exec fs (Model.chdir (Model.Path "/")))

let test_rename () =
  let fs = fresh () in
  ignore (make_file ~size:10 fs "/d/a");
  check_bool "rename" true (Fs.exec_aux fs (Fs.Rename ("/d/a", "/d/b")) = Ok 0);
  check_bool "a gone" false (Fs.exists fs "/d/a");
  check_bool "b exists" true (Fs.exists fs "/d/b");
  check_int "content moved" 10 (Result.get_ok (Fs.stat fs "/d/b")).Fs.st_size;
  (* rename over an existing file replaces it *)
  ignore (make_file ~size:99 fs "/d/c");
  check_bool "replace" true (Fs.exec_aux fs (Fs.Rename ("/d/b", "/d/c")) = Ok 0);
  check_int "replaced content" 10 (Result.get_ok (Fs.stat fs "/d/c")).Fs.st_size;
  (* dir over file mismatches *)
  ignore (Fs.exec fs (Model.mkdir ~mode:0o755 "/d/dir"));
  check_bool "file over dir" true (Fs.exec_aux fs (Fs.Rename ("/d/c", "/d/dir")) = Error Errno.EISDIR);
  check_bool "dir over file" true (Fs.exec_aux fs (Fs.Rename ("/d/dir", "/d/c")) = Error Errno.ENOTDIR)

let test_rename_into_own_subtree () =
  let fs = fresh () in
  ignore (Fs.exec fs (Model.mkdir ~mode:0o755 "/d/sub"));
  ignore (Fs.exec fs (Model.mkdir ~mode:0o755 "/d/sub/deep"));
  check_bool "direct child" true
    (Fs.exec_aux fs (Fs.Rename ("/d", "/d/into")) = Error Errno.EINVAL);
  check_bool "deeper descendant" true
    (Fs.exec_aux fs (Fs.Rename ("/d/sub", "/d/sub/deep/x")) = Error Errno.EINVAL);
  check_bool "onto itself is a no-op" true (Fs.exec_aux fs (Fs.Rename ("/d/sub", "/d/sub")) = Ok 0);
  check_bool "sibling move still fine" true
    (Fs.exec_aux fs (Fs.Rename ("/d/sub/deep", "/d/deep")) = Ok 0);
  check_bool "tree intact" true (Fs.exists fs "/d/sub" && Fs.exists fs "/d/deep")

let test_open_trailing_slash () =
  let fs = fresh () in
  ignore (make_file fs "/d/file");
  expect_err "open file/" Errno.ENOTDIR (Fs.exec fs (Model.open_ ~flags:rdonly "/d/file/"));
  expect_err "creat x/" Errno.EISDIR
    (Fs.exec fs (Model.open_ ~mode:0o644 ~flags:creat "/d/new/"));
  (* a directory with a trailing slash opens fine *)
  let fd = ret_fd (Fs.exec fs (Model.open_ ~flags:rdonly "/d/")) in
  ignore (Fs.exec fs (Model.close fd))

let test_link_semantics () =
  let fs = fresh () in
  ignore (make_file ~size:7 fs "/d/a");
  check_bool "link" true (Fs.exec_aux fs (Fs.Link ("/d/a", "/d/b")) = Ok 0);
  check_int "nlink 2" 2 (Result.get_ok (Fs.stat fs "/d/a")).Fs.st_nlink;
  check_bool "same inode" true
    ((Result.get_ok (Fs.stat fs "/d/a")).Fs.st_ino = (Result.get_ok (Fs.stat fs "/d/b")).Fs.st_ino);
  check_bool "link to dir" true (Fs.exec_aux fs (Fs.Link ("/d", "/d2")) = Error Errno.EPERM);
  check_bool "link over existing" true (Fs.exec_aux fs (Fs.Link ("/d/a", "/d/b")) = Error Errno.EEXIST);
  check_bool "unlink one name" true (Fs.exec_aux fs (Fs.Unlink "/d/a") = Ok 0);
  check_int "content survives" 7 (Result.get_ok (Fs.stat fs "/d/b")).Fs.st_size

let test_hard_link_aliases_content () =
  let fs = fresh () in
  ignore (make_file ~size:10 fs "/d/a");
  ignore (Fs.exec_aux fs (Fs.Link ("/d/a", "/d/alias")));
  (* a write through one name is visible through the other *)
  let fd = ret_fd (Fs.exec fs (Model.open_ ~flags:rdwr "/d/a")) in
  expect_ret "grow via /d/a" 5000
    (Fs.exec fs (Model.write ~variant:Model.Sys_pwrite64 ~offset:0 ~fd ~count:5000 ()));
  ignore (Fs.exec fs (Model.close fd));
  check_int "size via alias" 5000 (Result.get_ok (Fs.stat fs "/d/alias")).Fs.st_size;
  check_int "identical content" (Result.get_ok (Fs.checksum fs "/d/a"))
    (Result.get_ok (Fs.checksum fs "/d/alias"));
  (* chmod through the alias affects the shared inode *)
  expect_ret "chmod alias" 0 (Fs.exec fs (Model.chmod ~target:(Model.Path "/d/alias") ~mode:0o600 ()));
  check_int "mode via original" 0o600 (Result.get_ok (Fs.stat fs "/d/a")).Fs.st_mode

let test_sticky_deletion () =
  let fs = fresh () in
  ignore (Fs.exec fs (Model.mkdir ~mode:0o1777 "/d/tmp"));
  Fs.set_credentials fs ~uid:1001 ~gid:1001;
  ignore (make_file fs "/d/tmp/owned");
  Fs.set_credentials fs ~uid:1002 ~gid:1002;
  check_bool "stranger blocked" true
    (Fs.exec_aux fs (Fs.Unlink "/d/tmp/owned") = Error Errno.EPERM);
  Fs.set_credentials fs ~uid:1001 ~gid:1001;
  check_bool "owner may delete" true (Fs.exec_aux fs (Fs.Unlink "/d/tmp/owned") = Ok 0);
  Fs.set_credentials fs ~uid:0 ~gid:0

let test_injection () =
  let fs = fresh () in
  ignore (make_file fs "/d/f");
  Fs.inject_errno fs ~base:Model.Open Errno.EINTR;
  expect_err "injected open" Errno.EINTR (Fs.exec fs (Model.open_ ~flags:rdonly "/d/f"));
  (* consumed: next open succeeds *)
  let fd = ret_fd (Fs.exec fs (Model.open_ ~flags:rdonly "/d/f")) in
  (* base-specific injection does not fire for other syscalls *)
  Fs.inject_errno fs ~base:Model.Write Errno.EFAULT;
  expect_ret "read unaffected" 0 (Fs.exec fs (Model.read ~fd ~count:4 ()));
  ignore (Fs.exec fs (Model.close fd));
  let fd = ret_fd (Fs.exec fs (Model.open_ ~flags:wronly "/d/f")) in
  expect_err "write takes the injection" Errno.EFAULT (Fs.exec fs (Model.write ~fd ~count:4 ()));
  ignore (Fs.exec fs (Model.close fd))

(* Exhaustive permission matrix: every 9-bit rwx mode, every principal
   class (owner / group / other), every open access mode — 4,608 checks
   against the POSIX rule computed independently. *)
let test_permission_matrix () =
  let accmodes =
    [ (rdonly, true, false); (wronly, false, true); (rdwr, true, true) ]
  in
  let principals =
    [ (`Owner, 1000, 1000); (`Group, 2000, 1000); (`Other, 2000, 2000) ]
  in
  for mode = 0 to 0o777 do
    let fs = fresh () in
    ignore (Fs.exec fs (Model.chmod ~target:(Model.Path "/d") ~mode:0o777 ()));
    Fs.set_credentials fs ~uid:1000 ~gid:1000;
    ignore (make_file fs "/d/f");
    ignore (Fs.exec fs (Model.chmod ~target:(Model.Path "/d/f") ~mode ()));
    List.iter
      (fun (who, uid, gid) ->
        Fs.set_credentials fs ~uid ~gid;
        List.iter
          (fun (flags, needs_r, needs_w) ->
            let shift = match who with `Owner -> 6 | `Group -> 3 | `Other -> 0 in
            let can_r = (mode lsr shift) land 0o4 <> 0 in
            let can_w = (mode lsr shift) land 0o2 <> 0 in
            let expected_ok = ((not needs_r) || can_r) && ((not needs_w) || can_w) in
            match Fs.exec fs (Model.open_ ~flags "/d/f") with
            | Model.Ret fd ->
              if not expected_ok then
                Alcotest.failf "mode %o, %s: open should have been denied" mode
                  (Open_flags.to_string flags);
              ignore (Fs.exec fs (Model.close fd))
            | Model.Err Errno.EACCES ->
              if expected_ok then
                Alcotest.failf "mode %o, %s: open should have been allowed" mode
                  (Open_flags.to_string flags)
            | Model.Err e -> Alcotest.failf "unexpected %s" (Errno.to_string e))
          accmodes)
      principals
  done

(* root bypasses permission bits entirely *)
let test_root_bypasses_permissions () =
  let fs = fresh () in
  ignore (make_file fs "/d/f");
  ignore (Fs.exec fs (Model.chmod ~target:(Model.Path "/d/f") ~mode:0 ()));
  let fd = ret_fd (Fs.exec fs (Model.open_ ~flags:rdwr "/d/f")) in
  ignore (Fs.exec fs (Model.close fd))

let test_block_accounting_invariant () =
  (* used blocks never exceeds capacity and returns to baseline after
     deleting everything *)
  let fs = fresh ~config:Config.small () in
  let baseline = Fs.used_blocks fs in
  for i = 1 to 10 do
    ignore (make_file ~size:(i * 10_000 mod 300_000) fs (Printf.sprintf "/d/f%d" i))
  done;
  check_bool "capacity respected" true (Fs.used_blocks fs <= Config.small.Config.total_blocks);
  for i = 1 to 10 do
    ignore (Fs.exec_aux fs (Fs.Unlink (Printf.sprintf "/d/f%d" i)))
  done;
  check_int "all released" baseline (Fs.used_blocks fs)

let suites =
  [ ( "vfs.extents",
      [ Alcotest.test_case "empty segments" `Quick test_extents_empty_segments;
        Alcotest.test_case "write then read" `Quick test_extents_write_then_read;
        Alcotest.test_case "overwrite splits" `Quick test_extents_overwrite_splits;
        Alcotest.test_case "truncate" `Quick test_extents_truncate;
        Alcotest.test_case "next data/hole" `Quick test_extents_next_data_hole;
        Alcotest.test_case "zero write identity" `Quick test_extents_zero_write_identity;
        Alcotest.test_case "checksum history-insensitive" `Quick
          test_checksum_insensitive_to_history;
        QCheck_alcotest.to_alcotest extents_match_reference_prop;
        QCheck_alcotest.to_alcotest write_extents_match_carve_prop ] );
    ( "vfs.path",
      [ Alcotest.test_case "empty is ENOENT" `Quick test_path_empty_is_enoent;
        Alcotest.test_case "component too long" `Quick test_path_component_too_long;
        Alcotest.test_case "whole path too long" `Quick test_path_whole_too_long;
        Alcotest.test_case "parse shapes" `Quick test_path_parse_shapes;
        Alcotest.test_case "join and basename" `Quick test_path_join_basename ] );
    ( "vfs.open",
      [ Alcotest.test_case "ENOENT" `Quick test_open_enoent;
        Alcotest.test_case "creates" `Quick test_open_creates;
        Alcotest.test_case "O_EXCL" `Quick test_open_excl;
        Alcotest.test_case "O_TRUNC" `Quick test_open_trunc_resets_size;
        Alcotest.test_case "EISDIR" `Quick test_open_isdir;
        Alcotest.test_case "O_DIRECTORY on file" `Quick test_open_directory_flag_on_file;
        Alcotest.test_case "ENOTDIR component" `Quick test_open_notdir_component;
        Alcotest.test_case "symlink follow / O_NOFOLLOW" `Quick
          test_open_symlink_follow_and_nofollow;
        Alcotest.test_case "ELOOP cycle" `Quick test_open_symlink_loop;
        Alcotest.test_case "EACCES on node" `Quick test_open_eacces;
        Alcotest.test_case "EACCES on traversal" `Quick test_open_eacces_traversal;
        Alcotest.test_case "EMFILE" `Quick test_open_emfile;
        Alcotest.test_case "ENFILE" `Quick test_open_enfile;
        Alcotest.test_case "EROFS" `Quick test_open_erofs;
        Alcotest.test_case "ETXTBSY" `Quick test_open_etxtbsy;
        Alcotest.test_case "immutable EPERM" `Quick test_open_immutable;
        Alcotest.test_case "EBUSY" `Quick test_open_ebusy;
        Alcotest.test_case "special nodes" `Quick test_open_special_nodes;
        Alcotest.test_case "EOVERFLOW / O_LARGEFILE" `Quick test_open_eoverflow;
        Alcotest.test_case "O_TMPFILE" `Quick test_open_tmpfile;
        Alcotest.test_case "fd reuse lowest" `Quick test_open_fd_reuse_lowest ] );
    ( "vfs.rw",
      [ Alcotest.test_case "roundtrip sizes" `Quick test_rw_roundtrip_sizes;
        Alcotest.test_case "read EBADF" `Quick test_read_ebadf;
        Alcotest.test_case "write EBADF on O_RDONLY" `Quick test_write_ebadf_on_rdonly;
        Alcotest.test_case "read EISDIR" `Quick test_read_eisdir;
        Alcotest.test_case "pread/pwrite keep offset" `Quick test_pread_pwrite_do_not_move_offset;
        Alcotest.test_case "negative p-offsets" `Quick test_pread_negative_offset;
        Alcotest.test_case "negative count EINVAL" `Quick test_negative_count_einval;
        Alcotest.test_case "zero write keeps offset" `Quick test_write_zero_keeps_offset;
        Alcotest.test_case "O_APPEND" `Quick test_append_mode;
        Alcotest.test_case "EFBIG" `Quick test_write_efbig;
        Alcotest.test_case "ENOSPC and short writes" `Quick test_write_enospc_and_short_write;
        Alcotest.test_case "EDQUOT" `Quick test_write_edquot;
        Alcotest.test_case "fifo EAGAIN" `Quick test_fifo_rw_nonblock ] );
    ( "vfs.lseek",
      [ Alcotest.test_case "whences" `Quick test_lseek_whences;
        Alcotest.test_case "SEEK_DATA/SEEK_HOLE" `Quick test_lseek_data_hole;
        Alcotest.test_case "ESPIPE" `Quick test_lseek_espipe ] );
    ( "vfs.truncate",
      [ Alcotest.test_case "semantics" `Quick test_truncate_semantics;
        Alcotest.test_case "EFBIG boundary" `Quick test_truncate_efbig_boundary;
        Alcotest.test_case "ftruncate fd checks" `Quick test_ftruncate_needs_writable_fd;
        Alcotest.test_case "releases blocks" `Quick test_truncate_releases_blocks ] );
    ( "vfs.metadata",
      [ Alcotest.test_case "mkdir semantics" `Quick test_mkdir_semantics;
        Alcotest.test_case "mkdir nlink and dotdot" `Quick test_mkdir_nlink_and_dotdot;
        Alcotest.test_case "chmod semantics" `Quick test_chmod_semantics;
        Alcotest.test_case "owner chmod" `Quick test_owner_may_chmod_own_file;
        Alcotest.test_case "chdir semantics" `Quick test_chdir_semantics;
        Alcotest.test_case "close semantics" `Quick test_close_semantics;
        Alcotest.test_case "unlinked file lives until close" `Quick
          test_unlinked_file_lives_until_close ] );
    ( "vfs.xattr",
      [ Alcotest.test_case "cycle" `Quick test_xattr_cycle;
        Alcotest.test_case "limits" `Quick test_xattr_limits;
        Alcotest.test_case "space exhaustion" `Quick test_xattr_space_exhaustion;
        Alcotest.test_case "l-variants on symlink" `Quick test_lxattr_on_symlink ] );
    ( "vfs.aux",
      [ Alcotest.test_case "unlink/rmdir" `Quick test_unlink_rmdir;
        Alcotest.test_case "rmdir cwd is EBUSY" `Quick test_rmdir_cwd_busy;
        Alcotest.test_case "rename" `Quick test_rename;
        Alcotest.test_case "rename into own subtree" `Quick test_rename_into_own_subtree;
        Alcotest.test_case "open trailing slash" `Quick test_open_trailing_slash;
        Alcotest.test_case "link" `Quick test_link_semantics;
        Alcotest.test_case "hard link aliases content" `Quick test_hard_link_aliases_content;
        Alcotest.test_case "sticky deletion" `Quick test_sticky_deletion;
        Alcotest.test_case "errno injection" `Quick test_injection;
        Alcotest.test_case "permission matrix (4608 cases)" `Slow test_permission_matrix;
        Alcotest.test_case "root bypasses permissions" `Quick test_root_bypasses_permissions;
        Alcotest.test_case "block accounting" `Quick test_block_accounting_invariant ] ) ]
