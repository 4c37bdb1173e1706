(* Tests for the syscall model: errno, flags, modes, whence, the
   27-variant table, and call serialization round-trips. *)

open Iocov_syscall

let check_bool = Alcotest.(check bool)
let check_int = Alcotest.(check int)
let check_string = Alcotest.(check string)

(* --- Errno --- *)

let test_errno_roundtrip () =
  List.iter
    (fun e ->
      match Errno.of_string (Errno.to_string e) with
      | Some e' -> check_bool "roundtrip" true (Errno.equal e e')
      | None -> Alcotest.failf "no roundtrip for %s" (Errno.to_string e))
    Errno.all

let test_errno_open_domain_size () =
  (* the open(2) manual page domain is Figure 4's 27 error codes *)
  check_int "27 open errnos" 27 (List.length Errno.open_manual_domain)

let test_errno_codes_positive_unique () =
  let codes = List.map Errno.to_code Errno.all in
  check_bool "all positive" true (List.for_all (fun c -> c > 0) codes);
  check_int "codes unique" (List.length codes) (List.length (List.sort_uniq compare codes))

let test_errno_unknown () =
  check_bool "unknown name" true (Errno.of_string "EWHATEVER" = None)

let test_errno_describe_nonempty () =
  List.iter
    (fun e -> check_bool "describe" true (String.length (Errno.describe e) > 0))
    Errno.all

(* --- Open_flags --- *)

let test_flags_domain_size () = check_int "21 flags" 21 (List.length Open_flags.all)

let test_flags_rdonly_is_zero () = check_int "O_RDONLY is 0" 0 (Open_flags.bit Open_flags.O_RDONLY)

let test_flags_decompose_bare_rdonly () =
  Alcotest.(check (list string)) "bare O_RDONLY" [ "O_RDONLY" ]
    (List.map Open_flags.flag_name (Open_flags.decompose 0))

let test_flags_decompose_typical () =
  let mask = Open_flags.of_flags Open_flags.[ O_WRONLY; O_CREAT; O_TRUNC ] in
  Alcotest.(check (list string)) "creat mask" [ "O_WRONLY"; "O_CREAT"; "O_TRUNC" ]
    (List.map Open_flags.flag_name (Open_flags.decompose mask))

let test_flags_sync_subsumes_dsync () =
  let mask = Open_flags.of_flags Open_flags.[ O_RDONLY; O_SYNC ] in
  check_bool "O_SYNC reported" true (Open_flags.has mask Open_flags.O_SYNC);
  check_bool "O_DSYNC hidden under O_SYNC" false (Open_flags.has mask Open_flags.O_DSYNC)

let test_flags_dsync_alone () =
  let mask = Open_flags.of_flags Open_flags.[ O_RDONLY; O_DSYNC ] in
  check_bool "O_DSYNC visible" true (Open_flags.has mask Open_flags.O_DSYNC);
  check_bool "not O_SYNC" false (Open_flags.has mask Open_flags.O_SYNC)

let test_flags_tmpfile_subsumes_directory () =
  let mask = Open_flags.of_flags Open_flags.[ O_RDWR; O_TMPFILE ] in
  check_bool "O_TMPFILE" true (Open_flags.has mask Open_flags.O_TMPFILE);
  check_bool "O_DIRECTORY hidden" false (Open_flags.has mask Open_flags.O_DIRECTORY)

let test_flags_access_modes () =
  let open Open_flags in
  check_bool "rdonly readable" true (readable (of_flags [ O_RDONLY ]));
  check_bool "rdonly not writable" false (writable (of_flags [ O_RDONLY ]));
  check_bool "wronly writable" true (writable (of_flags [ O_WRONLY ]));
  check_bool "wronly not readable" false (readable (of_flags [ O_WRONLY ]));
  check_bool "rdwr both r" true (readable (of_flags [ O_RDWR ]));
  check_bool "rdwr both w" true (writable (of_flags [ O_RDWR ]))

let test_flags_multiple_access_modes_rejected () =
  Alcotest.check_raises "two access modes" (Invalid_argument "Open_flags.of_flags: multiple access modes")
    (fun () -> ignore (Open_flags.of_flags Open_flags.[ O_RDWR; O_WRONLY ]))

let test_flags_string_roundtrip () =
  let mask = Open_flags.of_flags Open_flags.[ O_RDWR; O_CREAT; O_EXCL; O_DIRECT ] in
  (match Open_flags.of_string (Open_flags.to_string mask) with
   | Some mask' -> check_int "mask roundtrip" mask mask'
   | None -> Alcotest.fail "no parse");
  check_bool "bad name" true (Open_flags.of_string "O_BOGUS" = None);
  (* bits the names do not reproduce print as a hex suffix *)
  check_string "modeled" "O_WRONLY|O_CREAT" (Open_flags.to_string 0o101);
  check_string "access mode 3" "O_RDWR|0x1" (Open_flags.to_string 3);
  check_string "unmodeled bit" "O_RDWR|0x40000000" (Open_flags.to_string 0x40000002);
  check_string "bit 62" "O_RDONLY|0x4000000000000000" (Open_flags.to_string min_int);
  List.iter
    (fun bad -> check_bool bad true (Open_flags.of_string bad = None))
    [ "O_RDWR|0x"; "O_RDWR|0X1"; "O_RDWR|0x1G"; "O_RDWR|0x8000000000000000";
      "O_RDWR|0x1|O_CREAT"; "0"; "" ]

(* [of_string] inverts [to_string] on every mask, raw bits included. *)
let flags_text_roundtrip_prop =
  QCheck.Test.make ~name:"flag text round-trips every mask" ~count:2000
    (QCheck.make ~print:(Printf.sprintf "0x%x")
       QCheck.Gen.(oneof [ int_bound 0o77777777; int_bound 0x3FFFFFFF; int ]))
    (fun mask -> Open_flags.of_string (Open_flags.to_string mask) = Some mask)

let test_flags_count () =
  check_int "bare rdonly counts 1" 1 (Open_flags.count_flags 0);
  check_int "four flags" 4
    (Open_flags.count_flags (Open_flags.of_flags Open_flags.[ O_WRONLY; O_CREAT; O_TRUNC; O_CLOEXEC ]))

let flags_decompose_roundtrip_prop =
  (* decomposing any random subset (one access mode + others) and
     recombining yields a mask that decomposes identically *)
  QCheck.Test.make ~name:"flag decompose/of_flags roundtrip"
    QCheck.(int_range 0 0xFFFFFF)
    (fun bits ->
      let mask = bits land lnot 0o3 lor (bits land 0o3) in
      let flags = Open_flags.decompose mask in
      let mask' = Open_flags.of_flags flags in
      Open_flags.decompose mask' = flags)

(* [has] is a bit test that must keep [decompose]'s rules (O_SYNC hides
   O_DSYNC, O_TMPFILE hides O_DIRECTORY, O_RSYNC is never reported) on
   any mask, undefined bits included. *)
let flags_has_matches_decompose_prop =
  let defined = List.fold_left (fun acc f -> acc lor Open_flags.bit f) 0 Open_flags.all in
  let mask_gen =
    QCheck.Gen.(
      oneof
        [ map (fun bits -> bits land defined) (int_bound 0x3FFFFFFF);
          int_bound 0x3FFFFFFF;
          map2 (fun bits undefined -> (bits land defined) lor (undefined land lnot defined))
            (int_bound 0x3FFFFFFF) int ])
  in
  QCheck.Test.make ~name:"has = mem of decompose" ~count:2000
    (QCheck.make ~print:(Printf.sprintf "0o%o") mask_gen)
    (fun mask ->
      let flags = Open_flags.decompose mask in
      List.for_all (fun f -> Open_flags.has mask f = List.mem f flags) Open_flags.all)

(* --- Mode --- *)

let test_mode_decompose () =
  Alcotest.(check (list string)) "0644"
    [ "S_IRUSR"; "S_IWUSR"; "S_IRGRP"; "S_IROTH" ]
    (List.map Mode.bit_name (Mode.decompose 0o644))

let test_mode_of_bits () =
  check_int "rebuild 0644" 0o644
    (Mode.of_bits Mode.[ S_IRUSR; S_IWUSR; S_IRGRP; S_IROTH ])

let test_mode_valid () =
  check_bool "0644 valid" true (Mode.valid 0o644);
  check_bool "7777 valid" true (Mode.valid 0o7777);
  check_bool "out of range" false (Mode.valid 0o200000)

let test_mode_octal_roundtrip () =
  match Text_oracle.of_octal_string (Mode.to_octal_string 0o1755) with
  | Some m -> check_int "roundtrip" 0o1755 m
  | None -> Alcotest.fail "no parse"

let test_mode_permissions () =
  check_bool "owner reads 0644" true (Mode.readable_by 0o644 `Owner);
  check_bool "other writes 0644" false (Mode.writable_by 0o644 `Other);
  check_bool "group executes 0741" false (Mode.executable_by 0o741 `Group);
  check_bool "other executes 0751" true (Mode.executable_by 0o751 `Other)

let mode_roundtrip_prop =
  QCheck.Test.make ~name:"mode decompose/of_bits roundtrip" QCheck.(int_range 0 0o7777)
    (fun m -> Mode.of_bits (Mode.decompose m) = m)

(* --- Whence / Xattr_flag --- *)

let test_whence_roundtrip () =
  List.iter
    (fun w ->
      check_bool "name roundtrip" true (Whence.of_string (Whence.to_string w) = Some w);
      check_bool "code roundtrip" true (Whence.of_code (Whence.to_code w) = Some w))
    Whence.all

let test_xattr_flag_roundtrip () =
  List.iter
    (fun f ->
      check_bool "name roundtrip" true (Xattr_flag.of_string (Xattr_flag.to_string f) = Some f);
      check_bool "code roundtrip" true (Xattr_flag.of_code (Xattr_flag.to_code f) = Some f))
    Xattr_flag.all

(* --- Model: bases, variants --- *)

let test_27_variants () = check_int "27 syscalls" 27 (List.length Model.all_variants)
let test_11_bases () = check_int "11 base syscalls" 11 (List.length Model.all_bases)

let test_variant_names_unique () =
  let names = List.map Model.variant_name Model.all_variants in
  check_int "unique names" (List.length names) (List.length (List.sort_uniq compare names))

let test_variant_name_roundtrip () =
  List.iter
    (fun v -> check_bool "roundtrip" true (Model.variant_of_name (Model.variant_name v) = Some v))
    Model.all_variants

let test_variants_partition_bases () =
  let total =
    List.fold_left (fun acc b -> acc + List.length (Model.variants_of_base b)) 0 Model.all_bases
  in
  check_int "every variant belongs to exactly one base" 27 total

let test_base_of_variant_consistent () =
  List.iter
    (fun b ->
      List.iter
        (fun v -> check_bool "consistent" true (Model.base_of_variant v = b))
        (Model.variants_of_base b))
    Model.all_bases

let test_errno_domains_within_open_for_figure4 () =
  check_int "open domain is the manual page" 27
    (List.length (Model.errno_domain Model.Open))

let test_errno_domains_nonempty () =
  List.iter
    (fun b -> check_bool "non-empty domain" true (Model.errno_domain b <> []))
    Model.all_bases

let test_byte_count_syscalls () =
  check_bool "read returns bytes" true (Model.returns_byte_count Model.Read);
  check_bool "open does not" false (Model.returns_byte_count Model.Open);
  check_bool "lseek returns offset" true (Model.returns_byte_count Model.Lseek)

(* --- Model: smart constructors --- *)

let test_pread_requires_offset () =
  Alcotest.check_raises "pread64 without offset"
    (Invalid_argument "Model.read: pread64 requires an offset") (fun () ->
      ignore (Model.read ~variant:Model.Sys_pread64 ~fd:3 ~count:10 ()))

let test_read_rejects_offset () =
  Alcotest.check_raises "read with offset"
    (Invalid_argument "Model.read: offset only valid for pread64") (fun () ->
      ignore (Model.read ~offset:5 ~fd:3 ~count:10 ()))

let test_truncate_variant_inference () =
  check_bool "path infers truncate" true
    (Model.variant_of_call (Model.truncate ~target:(Model.Path "/a") ~length:0 ())
     = Model.Sys_truncate);
  check_bool "fd infers ftruncate" true
    (Model.variant_of_call (Model.truncate ~target:(Model.Fd 3) ~length:0 ())
     = Model.Sys_ftruncate)

let test_truncate_variant_mismatch () =
  Alcotest.check_raises "ftruncate with path"
    (Invalid_argument "Model.truncate: ftruncate takes an fd") (fun () ->
      ignore (Model.truncate ~variant:Model.Sys_ftruncate ~target:(Model.Path "/a") ~length:0 ()))

let test_creat_forces_flags () =
  match Model.open_ ~variant:Model.Sys_creat ~flags:0 "/x" with
  | Model.Open_call { flags; _ } ->
    check_bool "creat is WRONLY|CREAT|TRUNC" true
      Open_flags.(has flags O_WRONLY && has flags O_CREAT && has flags O_TRUNC)
  | _ -> Alcotest.fail "wrong constructor"

let test_chdir_variants () =
  check_bool "path chdir" true
    (Model.variant_of_call (Model.chdir (Model.Path "/")) = Model.Sys_chdir);
  check_bool "fd fchdir" true (Model.variant_of_call (Model.chdir (Model.Fd 3)) = Model.Sys_fchdir)

(* --- Model: serialization --- *)

let sample_calls =
  let open Model in
  [ open_ ~flags:(Open_flags.of_flags Open_flags.[ O_WRONLY; O_CREAT ]) ~mode:0o644 "/mnt/test/a";
    open_ ~variant:Sys_openat ~flags:0 "/mnt/test/b with space";
    open_ ~variant:Sys_creat ~flags:0 ~mode:0o600 "/mnt/test/\"quoted\"";
    open_ ~variant:Sys_openat2 ~flags:(Open_flags.of_flags Open_flags.[ O_RDONLY; O_CLOEXEC ]) "/mnt/test/c";
    read ~fd:3 ~count:4096 ();
    read ~variant:Sys_pread64 ~offset:123 ~fd:4 ~count:0 ();
    read ~variant:Sys_readv ~fd:5 ~count:65536 ();
    write ~fd:3 ~count:0 ();
    write ~variant:Sys_pwrite64 ~offset:0 ~fd:3 ~count:270532608 ();
    write ~variant:Sys_writev ~fd:9 ~count:17 ();
    lseek ~fd:3 ~offset:(-5) ~whence:Whence.SEEK_CUR;
    lseek ~fd:3 ~offset:0 ~whence:Whence.SEEK_HOLE;
    truncate ~target:(Path "/mnt/test/a") ~length:100 ();
    truncate ~target:(Fd 7) ~length:0 ();
    mkdir ~mode:0o755 "/mnt/test/d";
    mkdir ~variant:Sys_mkdirat ~mode:0o1777 "/mnt/test/sticky";
    chmod ~target:(Path "/mnt/test/a") ~mode:0o4755 ();
    chmod ~target:(Fd 3) ~mode:0 ();
    chmod ~variant:Sys_fchmodat ~target:(Path "/mnt/test/a") ~mode:0o700 ();
    close 3;
    chdir (Path "/mnt/test");
    chdir (Fd 4);
    setxattr ~target:(Path "/mnt/test/a") ~name:"user.k" ~size:65536 ();
    setxattr ~variant:Sys_lsetxattr ~flags:Xattr_flag.XATTR_CREATE ~target:(Path "/l")
      ~name:"user.x" ~size:0 ();
    setxattr ~target:(Fd 3) ~name:"trusted.z" ~size:10 ~flags:Xattr_flag.XATTR_REPLACE ();
    getxattr ~target:(Path "/mnt/test/a") ~name:"user.k" ~size:0 ();
    getxattr ~variant:Sys_lgetxattr ~target:(Path "/l") ~name:"user.x" ~size:4096 ();
    getxattr ~target:(Fd 3) ~name:"user.k" ~size:64 () ]

(* The call and outcome parsers below are the [Scanf] oracle in
   test/text_oracle.ml; [Format_io.of_line] is checked against it in
   test_trace. *)
let test_call_roundtrip () =
  List.iter
    (fun call ->
      let line = Model.call_to_string call in
      match Text_oracle.call_of_string line with
      | Ok call' -> check_string "roundtrip" line (Model.call_to_string call')
      | Error msg -> Alcotest.failf "parse failed for %s: %s" line msg)
    sample_calls

let test_call_covers_all_variants () =
  (* the sample list exercises every serialization shape *)
  let variants = List.sort_uniq compare (List.map Model.variant_of_call sample_calls) in
  check_int "all 27 variants serialized" 27 (List.length variants)

let test_call_parse_errors () =
  List.iter
    (fun line ->
      match Text_oracle.call_of_string line with
      | Ok _ -> Alcotest.failf "expected failure for %S" line
      | Error _ -> ())
    [ "nonsense"; "frob(fd=3)"; "open(path=\"/a\")"; "read(fd=x, count=1)";
      "lseek(fd=1, offset=2, whence=SEEK_NOWHERE)"; "close(fd=)"; "open(path=/a, flags=0, mode=0o0)" ]

let test_outcome_roundtrip () =
  List.iter
    (fun o ->
      let s = Model.outcome_to_string o in
      match Text_oracle.outcome_of_string s with
      | Ok o' -> check_string "outcome roundtrip" s (Model.outcome_to_string o')
      | Error msg -> Alcotest.failf "outcome parse failed for %s: %s" s msg)
    [ Model.Ret 0; Model.Ret 3; Model.Ret max_int; Model.Err Errno.ENOENT;
      Model.Err Errno.EDQUOT ]

let test_outcome_parse_errors () =
  List.iter
    (fun s ->
      match Text_oracle.outcome_of_string s with
      | Ok _ -> Alcotest.failf "expected failure for %S" s
      | Error _ -> ())
    [ "nope"; "ok:x"; "err:EBOGUS"; "" ]

(* Property: a randomly generated call round-trips through the text form. *)
let gen_call =
  let open QCheck.Gen in
  let path = map (fun s -> "/mnt/test/" ^ s) (string_size ~gen:(char_range 'a' 'z') (return 6)) in
  let name = map (fun s -> "user." ^ s) (string_size ~gen:(char_range 'a' 'z') (return 4)) in
  let flags =
    map
      (fun bits -> bits land 0o27777777)
      (int_range 0 0o27777777)
  in
  oneof
    [ map3 (fun p f m -> Model.open_ ~flags:f ~mode:(m land 0o7777) p) path flags int;
      map2 (fun fd count -> Model.read ~fd:(abs fd mod 100) ~count:(abs count) ()) int int;
      map3
        (fun fd count off ->
          Model.write ~variant:Model.Sys_pwrite64 ~offset:(abs off) ~fd:(abs fd mod 100)
            ~count:(abs count) ())
        int int int;
      map3
        (fun fd off w -> Model.lseek ~fd:(abs fd mod 100) ~offset:off ~whence:w)
        int int (oneofl Whence.all);
      map2 (fun p len -> Model.truncate ~target:(Model.Path p) ~length:(abs len) ()) path int;
      map2 (fun p m -> Model.mkdir ~mode:(m land 0o7777) p) path int;
      map2
        (fun p size -> Model.setxattr ~target:(Model.Path p) ~name:"user.q" ~size:(abs size mod 100000) ())
        path int;
      map2 (fun p n -> Model.getxattr ~target:(Model.Path p) ~name:n ~size:64 ()) path name ]

(* Compared as values, not through the text: the generator draws raw
   flag masks (access mode 3, bits 2-5), which the text once dropped
   while printing alike. *)
let call_roundtrip_prop =
  QCheck.Test.make ~name:"random call serialization roundtrip" ~count:500
    (QCheck.make ~print:Model.call_to_string gen_call) (fun call ->
      let line = Printf.sprintf "[1] pid=1 comm=\"p\" %s -> ok:0" (Model.call_to_string call) in
      Text_oracle.call_of_string (Model.call_to_string call) = Ok call
      &&
      match Iocov_trace.Format_io.of_line line with
      | Ok e -> e.Iocov_trace.Event.payload = Iocov_trace.Event.Tracked call
      | Error _ -> false)

let suites =
  [ ( "syscall.errno",
      [ Alcotest.test_case "name roundtrip" `Quick test_errno_roundtrip;
        Alcotest.test_case "open manual domain has 27 codes" `Quick test_errno_open_domain_size;
        Alcotest.test_case "codes positive and unique" `Quick test_errno_codes_positive_unique;
        Alcotest.test_case "unknown name" `Quick test_errno_unknown;
        Alcotest.test_case "descriptions" `Quick test_errno_describe_nonempty ] );
    ( "syscall.flags",
      [ Alcotest.test_case "21-flag domain" `Quick test_flags_domain_size;
        Alcotest.test_case "O_RDONLY encodes as 0" `Quick test_flags_rdonly_is_zero;
        Alcotest.test_case "bare O_RDONLY decomposes" `Quick test_flags_decompose_bare_rdonly;
        Alcotest.test_case "typical decompose" `Quick test_flags_decompose_typical;
        Alcotest.test_case "O_SYNC subsumes O_DSYNC" `Quick test_flags_sync_subsumes_dsync;
        Alcotest.test_case "O_DSYNC alone" `Quick test_flags_dsync_alone;
        Alcotest.test_case "O_TMPFILE subsumes O_DIRECTORY" `Quick
          test_flags_tmpfile_subsumes_directory;
        Alcotest.test_case "access modes" `Quick test_flags_access_modes;
        Alcotest.test_case "multiple access modes rejected" `Quick
          test_flags_multiple_access_modes_rejected;
        Alcotest.test_case "string roundtrip" `Quick test_flags_string_roundtrip;
        Alcotest.test_case "count_flags" `Quick test_flags_count;
        QCheck_alcotest.to_alcotest flags_decompose_roundtrip_prop;
        QCheck_alcotest.to_alcotest flags_text_roundtrip_prop;
        QCheck_alcotest.to_alcotest flags_has_matches_decompose_prop ] );
    ( "syscall.mode",
      [ Alcotest.test_case "decompose 0644" `Quick test_mode_decompose;
        Alcotest.test_case "of_bits" `Quick test_mode_of_bits;
        Alcotest.test_case "validity" `Quick test_mode_valid;
        Alcotest.test_case "octal roundtrip" `Quick test_mode_octal_roundtrip;
        Alcotest.test_case "permission predicates" `Quick test_mode_permissions;
        QCheck_alcotest.to_alcotest mode_roundtrip_prop ] );
    ( "syscall.categorical",
      [ Alcotest.test_case "whence roundtrip" `Quick test_whence_roundtrip;
        Alcotest.test_case "xattr flag roundtrip" `Quick test_xattr_flag_roundtrip ] );
    ( "syscall.model",
      [ Alcotest.test_case "27 variants" `Quick test_27_variants;
        Alcotest.test_case "11 bases" `Quick test_11_bases;
        Alcotest.test_case "variant names unique" `Quick test_variant_names_unique;
        Alcotest.test_case "variant name roundtrip" `Quick test_variant_name_roundtrip;
        Alcotest.test_case "variants partition bases" `Quick test_variants_partition_bases;
        Alcotest.test_case "base_of_variant consistent" `Quick test_base_of_variant_consistent;
        Alcotest.test_case "open errno domain" `Quick test_errno_domains_within_open_for_figure4;
        Alcotest.test_case "errno domains non-empty" `Quick test_errno_domains_nonempty;
        Alcotest.test_case "byte-count syscalls" `Quick test_byte_count_syscalls;
        Alcotest.test_case "pread requires offset" `Quick test_pread_requires_offset;
        Alcotest.test_case "read rejects offset" `Quick test_read_rejects_offset;
        Alcotest.test_case "truncate variant inference" `Quick test_truncate_variant_inference;
        Alcotest.test_case "truncate variant mismatch" `Quick test_truncate_variant_mismatch;
        Alcotest.test_case "creat forces flags" `Quick test_creat_forces_flags;
        Alcotest.test_case "chdir variants" `Quick test_chdir_variants ] );
    ( "syscall.serialization",
      [ Alcotest.test_case "call roundtrip" `Quick test_call_roundtrip;
        Alcotest.test_case "samples cover all 27 variants" `Quick test_call_covers_all_variants;
        Alcotest.test_case "parse errors" `Quick test_call_parse_errors;
        Alcotest.test_case "outcome roundtrip" `Quick test_outcome_roundtrip;
        Alcotest.test_case "outcome parse errors" `Quick test_outcome_parse_errors;
        QCheck_alcotest.to_alcotest call_roundtrip_prop ] ) ]
