open Iocov_syscall
open Iocov_vfs
module Prng = Iocov_util.Prng

type strategy = Code_coverage_style | Iocov_guided

let strategy_name = function
  | Code_coverage_style -> "code-coverage-style"
  | Iocov_guided -> "IOCov-guided"

type report = {
  fault : Fault.t;
  strategy : strategy;
  detected : bool;
  first_detection : int option;
  probes_run : int;
}

(* A configuration with reachable limits, shared by reference and victim:
   boundary probes must be able to hit EFBIG/ENOSPC/EOVERFLOW in a few
   operations. *)
let diff_config =
  {
    Config.default with
    Config.total_blocks = 8192;              (* 32 MiB *)
    max_file_size = 8 * 1024 * 1024;         (* EFBIG at 8 MiB *)
    large_file_threshold = 4 * 1024 * 1024;  (* EOVERFLOW at 4 MiB *)
  }

(* A probe drives one file system and distills what it saw into a string;
   equal strings on reference and victim mean the probe saw no difference. *)
type probe = { name : string; run : Fs.t -> string }

let out fs call = Model.outcome_to_string (Fs.exec fs call)

let aux_out fs aux =
  match Fs.exec_aux fs aux with
  | Ok n -> Printf.sprintf "ok:%d" n
  | Error e -> "err:" ^ Errno.to_string e

let with_file fs path f =
  match
    Fs.exec fs
      (Model.open_ ~mode:0o644 ~flags:Open_flags.(of_flags [ O_RDWR; O_CREAT ]) path)
  with
  | Model.Ret fd ->
    let result = f fd in
    ignore (Fs.exec fs (Model.close fd));
    result
  | Model.Err e -> "open-failed:" ^ Errno.to_string e

(* --- IOCov-guided probes: one per untested/boundary partition family --- *)

let guided_probes =
  [ { name = "zero-write-offset";
      run =
        (fun fs ->
          with_file fs "/zw" (fun fd ->
              let w = out fs (Model.write ~fd ~count:0 ()) in
              let pos = out fs (Model.lseek ~fd ~offset:0 ~whence:Whence.SEEK_CUR) in
              w ^ ";" ^ pos)) };
    { name = "write-size-boundaries";
      run =
        (fun fs ->
          with_file fs "/wb" (fun fd ->
              String.concat ";"
                (List.map
                   (fun size ->
                     out fs (Model.write ~variant:Model.Sys_pwrite64 ~offset:0 ~fd ~count:size ()))
                   [ 0; 1; 4095; 4096; 4097; 1 lsl 20 ]))) };
    { name = "xattr-max-size";
      run =
        (fun fs ->
          (* bind each step: list elements evaluate in unspecified order *)
          let target = Model.Path "/xm" in
          ignore (Fs.exec fs (Model.open_ ~mode:0o644 ~flags:Open_flags.(of_flags [ O_WRONLY; O_CREAT ]) "/xm"));
          let max = (Fs.config fs).Config.max_xattr_value in
          let set_max = out fs (Model.setxattr ~target ~name:"user.max" ~size:max ()) in
          let set_over = out fs (Model.setxattr ~target ~name:"user.over" ~size:(max + 1) ()) in
          let get_max = out fs (Model.getxattr ~target ~name:"user.max" ~size:(max + 1) ()) in
          String.concat ";" [ set_max; set_over; get_max ]) };
    { name = "xattr-empty-value";
      run =
        (fun fs ->
          let target = Model.Path "/xe" in
          ignore (Fs.exec fs (Model.open_ ~mode:0o644 ~flags:Open_flags.(of_flags [ O_WRONLY; O_CREAT ]) "/xe"));
          let set = out fs (Model.setxattr ~target ~name:"user.e" ~size:0 ()) in
          let get = out fs (Model.getxattr ~target ~name:"user.e" ~size:16 ()) in
          let query = out fs (Model.getxattr ~target ~name:"user.e" ~size:0 ()) in
          String.concat ";" [ set; get; query ]) };
    { name = "truncate-limit-boundary";
      run =
        (fun fs ->
          let limit = (Fs.config fs).Config.max_file_size in
          ignore (Fs.exec fs (Model.open_ ~mode:0o644 ~flags:Open_flags.(of_flags [ O_WRONLY; O_CREAT ]) "/tb"));
          let at_limit = out fs (Model.truncate ~target:(Model.Path "/tb") ~length:limit ()) in
          let past_limit = out fs (Model.truncate ~target:(Model.Path "/tb") ~length:(limit + 1) ()) in
          let negative = out fs (Model.truncate ~target:(Model.Path "/tb") ~length:(-1) ()) in
          String.concat ";" [ at_limit; past_limit; negative ]) };
    { name = "seek-hole-boundary";
      run =
        (fun fs ->
          with_file fs "/sh" (fun fd ->
              let w = out fs (Model.write ~variant:Model.Sys_pwrite64 ~offset:0 ~fd ~count:65536 ()) in
              let hole = out fs (Model.lseek ~fd ~offset:65535 ~whence:Whence.SEEK_HOLE) in
              let data = out fs (Model.lseek ~fd ~offset:0 ~whence:Whence.SEEK_DATA) in
              let past = out fs (Model.lseek ~fd ~offset:65536 ~whence:Whence.SEEK_DATA) in
              String.concat ";" [ w; hole; data; past ])) };
    { name = "largefile-flag";
      run =
        (fun fs ->
          let threshold = (Fs.config fs).Config.large_file_threshold in
          ignore (Fs.exec fs (Model.open_ ~mode:0o644 ~flags:Open_flags.(of_flags [ O_WRONLY; O_CREAT ]) "/lf"));
          ignore (Fs.exec fs (Model.truncate ~target:(Model.Path "/lf") ~length:threshold ()));
          let plain = out fs (Model.open_ ~flags:Open_flags.(of_flags [ O_RDONLY ]) "/lf") in
          let largefile =
            out fs (Model.open_ ~flags:Open_flags.(of_flags [ O_RDONLY; O_LARGEFILE ]) "/lf")
          in
          String.concat ";" [ plain; largefile ]) };
    { name = "nonblock-write";
      run =
        (fun fs ->
          match
            Fs.exec fs
              (Model.open_ ~mode:0o644
                 ~flags:Open_flags.(of_flags [ O_WRONLY; O_CREAT; O_NONBLOCK ]) "/nb")
          with
          | Model.Ret fd ->
            let w = out fs (Model.write ~fd ~count:4096 ()) in
            ignore (Fs.exec fs (Model.close fd));
            w
          | Model.Err e -> "open-failed:" ^ Errno.to_string e) };
    { name = "non-owner-chmod-suid";
      run =
        (fun fs ->
          ignore (Fs.exec fs (Model.open_ ~mode:0o644 ~flags:Open_flags.(of_flags [ O_WRONLY; O_CREAT ]) "/suid"));
          Fs.set_credentials fs ~uid:1000 ~gid:1000;
          let r = out fs (Model.chmod ~target:(Model.Path "/suid") ~mode:0o4644 ()) in
          Fs.set_credentials fs ~uid:0 ~gid:0;
          r) };
    { name = "creat-mode-readback";
      run =
        (fun fs ->
          ignore
            (Fs.exec fs
               (Model.open_ ~mode:0o644 ~flags:Open_flags.(of_flags [ O_WRONLY; O_CREAT ]) "/cm"));
          Fs.set_credentials fs ~uid:1000 ~gid:1000;
          let r = out fs (Model.open_ ~flags:Open_flags.(of_flags [ O_RDONLY ]) "/cm") in
          Fs.set_credentials fs ~uid:0 ~gid:0;
          r) };
    { name = "sticky-dir-deletion";
      run =
        (fun fs ->
          ignore (Fs.exec fs (Model.mkdir ~mode:0o1777 "/shared"));
          Fs.set_credentials fs ~uid:1001 ~gid:1001;
          ignore
            (Fs.exec fs
               (Model.open_ ~mode:0o666 ~flags:Open_flags.(of_flags [ O_WRONLY; O_CREAT ])
                  "/shared/victim"));
          Fs.set_credentials fs ~uid:1002 ~gid:1002;
          let r = aux_out fs (Fs.Unlink "/shared/victim") in
          Fs.set_credentials fs ~uid:0 ~gid:0;
          r) };
    { name = "fill-device";
      run =
        (fun fs ->
          let buf = Buffer.create 128 in
          let n = ref 0 in
          let continue = ref true in
          while !continue && !n < 16 do
            incr n;
            let path = Printf.sprintf "/fill%d" !n in
            (match
               Fs.exec fs
                 (Model.open_ ~mode:0o644 ~flags:Open_flags.(of_flags [ O_WRONLY; O_CREAT ]) path)
             with
             | Model.Ret fd ->
               (match Fs.exec fs (Model.write ~fd ~count:(4 * 1024 * 1024) ()) with
                | Model.Ret k ->
                  Buffer.add_string buf (Printf.sprintf "w%d;" k);
                  if k < 4 * 1024 * 1024 then begin
                    (* short write: the device is full — the next write on
                       this descriptor must report the exhaustion *)
                    Buffer.add_string buf
                      ("then:" ^ out fs (Model.write ~fd ~count:4096 ()) ^ ";");
                    Buffer.add_string buf
                      ("then:" ^ out fs (Model.write ~fd ~count:4096 ()) ^ ";")
                  end
                | Model.Err e ->
                  Buffer.add_string buf ("werr:" ^ Errno.to_string e ^ ";");
                  if e = Errno.ENOSPC then continue := false);
               ignore (Fs.exec fs (Model.close fd))
             | Model.Err e ->
               Buffer.add_string buf ("oerr:" ^ Errno.to_string e ^ ";");
               continue := false)
          done;
          Buffer.contents buf) };
    { name = "fsync-crash-durability";
      run =
        (fun fs ->
          match
            Fs.exec fs
              (Model.open_ ~mode:0o644 ~flags:Open_flags.(of_flags [ O_RDWR; O_CREAT ]) "/dur")
          with
          | Model.Err e -> "open-failed:" ^ Errno.to_string e
          | Model.Ret fd ->
            ignore (Fs.exec fs (Model.write ~fd ~count:8192 ()));
            ignore (Fs.exec_aux fs (Fs.Fsync fd));
            (* make the name durable too, then cut power *)
            (match
               Fs.exec fs (Model.open_ ~flags:Open_flags.(of_flags [ O_RDONLY; O_DIRECTORY ]) "/")
             with
             | Model.Ret dfd ->
               ignore (Fs.exec_aux fs (Fs.Fsync dfd));
               ignore (Fs.exec fs (Model.close dfd))
             | Model.Err _ -> ());
            ignore (Fs.exec_aux fs Fs.Crash);
            (match (Fs.stat fs "/dur", Fs.checksum fs "/dur") with
             | Ok st, Ok sum -> Printf.sprintf "size:%d;sum:%d" st.Fs.st_size sum
             | _ -> "lost")) } ]

(* --- code-coverage-style probes: common flags, mid-range sizes,
   success paths.  Parameterized by a per-probe seed so reference and
   victim replay the identical sequence. --- *)

let code_style_probe i =
  {
    name = Printf.sprintf "typical-%02d" i;
    run =
      (fun fs ->
        let rng = Prng.create ~seed:(0x5EED + i) in
        let buf = Buffer.create 256 in
        for k = 1 to 12 do
          let path = Printf.sprintf "/t%d_%d" i k in
          (match
             Fs.exec fs
               (Model.open_ ~mode:0o644
                  ~flags:Open_flags.(of_flags [ O_RDWR; O_CREAT; O_TRUNC ]) path)
           with
           | Model.Ret fd ->
             let size = Prng.weighted rng [ (4, 1024); (4, 4096); (2, 65536) ] in
             Buffer.add_string buf (out fs (Model.write ~fd ~count:size ()));
             Buffer.add_string buf (out fs (Model.lseek ~fd ~offset:0 ~whence:Whence.SEEK_SET));
             Buffer.add_string buf (out fs (Model.read ~fd ~count:size ()));
             Buffer.add_string buf
               (out fs (Model.chmod ~target:(Model.Fd fd) ~mode:0o644 ()));
             Buffer.add_string buf
               (out fs
                  (Model.setxattr ~target:(Model.Fd fd) ~name:"user.t"
                     ~size:(16 + Prng.int rng 240) ()));
             Buffer.add_string buf
               (out fs (Model.getxattr ~target:(Model.Fd fd) ~name:"user.t" ~size:4096 ()));
             Buffer.add_string buf (out fs (Model.close fd))
           | Model.Err e -> Buffer.add_string buf ("oerr:" ^ Errno.to_string e));
          Buffer.add_char buf ';'
        done;
        Buffer.contents buf);
  }

let probes_for strategy ~budget =
  match strategy with
  | Iocov_guided ->
    let base = guided_probes in
    if budget >= List.length base then base
    else List.filteri (fun i _ -> i < budget) base
  | Code_coverage_style -> List.init budget code_style_probe

let hunt ?(seed = 11) ?(budget = 64) ~strategy fault =
  if budget < 0 then invalid_arg "Differential.hunt: budget must be non-negative";
  ignore seed;
  let probes = probes_for strategy ~budget in
  let run_pair probe =
    let reference = Fs.create ~config:diff_config () in
    let victim = Fs.create ~config:(Config.with_faults [ fault ] diff_config) () in
    let obs_ref = probe.run reference in
    let obs_victim = probe.run victim in
    obs_ref <> obs_victim
  in
  let rec go i = function
    | [] -> { fault; strategy; detected = false; first_detection = None; probes_run = i }
    | probe :: rest ->
      if run_pair probe then
        { fault; strategy; detected = true; first_detection = Some i; probes_run = i + 1 }
      else go (i + 1) rest
  in
  go 0 probes

let campaign ?seed ?budget () =
  List.concat_map
    (fun fault ->
      [ hunt ?seed ?budget ~strategy:Code_coverage_style fault;
        hunt ?seed ?budget ~strategy:Iocov_guided fault ])
    Fault.all

let render reports =
  let cell fault strategy =
    match
      List.find_opt (fun r -> r.fault = fault && r.strategy = strategy) reports
    with
    | Some { detected = true; first_detection = Some i; _ } ->
      Printf.sprintf "detected (probe %d)" i
    | Some { detected = false; probes_run; _ } -> Printf.sprintf "missed (%d probes)" probes_run
    | Some { detected = true; first_detection = None; _ } -> "detected"
    | None -> "-"
  in
  let faults =
    List.sort_uniq Fault.compare (List.map (fun r -> r.fault) reports)
  in
  Iocov_util.Ascii.table
    ~title:"Differential tester: injected fault vs probe strategy"
    ~headers:[ "injected fault"; "code-coverage-style"; "IOCov-guided" ]
    (List.map
       (fun f ->
         [ Fault.to_string f; cell f Code_coverage_style; cell f Iocov_guided ])
       faults)

let detection_rate reports strategy =
  let mine = List.filter (fun r -> r.strategy = strategy) reports in
  match mine with
  | [] -> 0.0
  | _ ->
    float_of_int (List.length (List.filter (fun r -> r.detected) mine))
    /. float_of_int (List.length mine)
