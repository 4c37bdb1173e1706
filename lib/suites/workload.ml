open Iocov_syscall
module Coverage = Iocov_core.Coverage
module Event = Iocov_trace.Event
module Filter = Iocov_trace.Filter
module Tracer = Iocov_trace.Tracer
module Fs = Iocov_vfs.Fs
module Prng = Iocov_util.Prng

type ctx = {
  tracer : Tracer.t;
  rng : Prng.t;
  mount : string;
  on_test : string -> unit;
  mutable name_counter : int;
  mutable failures : string list;
  mutable current_test : string;
}

let fs ctx = Tracer.fs ctx.tracer

let call ctx c = Tracer.exec ctx.tracer c
let aux ctx a = Tracer.exec_aux ctx.tracer a

let init ?config ?(comm = "tester") ?(on_test = ignore) ~on_record ~mount ~seed () =
  let filesystem = Fs.create ?config () in
  (* A read-only configuration still needs its mount point: real testers
     mkfs and populate the device read-write, then mount read-only.
     Model that by preparing the hierarchy writable and remounting
     read-only after the durability sync below. *)
  let pinned_ro = Fs.is_read_only filesystem in
  if pinned_ro then Fs.set_read_only filesystem false;
  let tracer = Tracer.create ~comm filesystem in
  let ctx =
    { tracer; rng = Prng.create ~seed; mount; on_test; name_counter = 0; failures = [];
      current_test = "setup" }
  in
  (* mkdir -p the mount point through the tracer.  These records advance
     the sequence but reach no consumer: [on_record] is registered
     below, once the mount is ready. *)
  let components = List.filter (fun c -> c <> "") (String.split_on_char '/' mount) in
  let _ =
    List.fold_left
      (fun prefix comp ->
        let dir = prefix ^ "/" ^ comp in
        ignore (call ctx (Model.mkdir ~mode:0o755 dir));
        dir)
      "" components
  in
  (* a mounted file system's root is durable (mkfs + mount survive power
     loss); without this, crash tests would legally lose the mount point *)
  ignore (aux ctx Iocov_vfs.Fs.Sync);
  if pinned_ro then Fs.set_read_only filesystem true;
  Tracer.on_event tracer on_record;
  ctx

let begin_test ctx name =
  ctx.current_test <- name;
  ctx.on_test name

let fail ctx msg =
  ctx.failures <- Printf.sprintf "%s: %s" ctx.current_test msg :: ctx.failures

let failures ctx = List.rev ctx.failures

let open_fd ctx ?variant ?mode ~flags path =
  match call ctx (Model.open_ ?variant ?mode ~flags path) with
  | Model.Ret fd -> Some fd
  | Model.Err _ -> None

let close_fd ctx fd = ignore (call ctx (Model.close fd))

let write_fd ctx ?variant ?offset fd count =
  call ctx (Model.write ?variant ?offset ~fd ~count ())

let read_fd ctx ?variant ?offset fd count =
  call ctx (Model.read ?variant ?offset ~fd ~count ())

let fresh_name ctx stem =
  ctx.name_counter <- ctx.name_counter + 1;
  Printf.sprintf "%s/%s%d" ctx.mount stem ctx.name_counter

let fresh_dir ctx =
  let path = fresh_name ctx "d" in
  ignore (call ctx (Model.mkdir ~mode:0o755 path));
  path

let make_file ctx ?(size = 0) name =
  let path =
    if String.length name > 0 && name.[0] = '/' then name else fresh_name ctx name
  in
  (match
     open_fd ctx ~mode:0o644
       ~flags:Open_flags.(of_flags [ O_WRONLY; O_CREAT; O_TRUNC ])
       path
   with
   | Some fd ->
     if size > 0 then ignore (write_fd ctx fd size);
     close_fd ctx fd
   | None -> fail ctx (Printf.sprintf "could not create %s" path));
  path

let expect_ok ctx what = function
  | Model.Ret _ -> ()
  | Model.Err e ->
    fail ctx (Printf.sprintf "%s: expected success, got %s" what (Errno.to_string e))

let expect_ret ctx what expected = function
  | Model.Ret n when n = expected -> ()
  | Model.Ret n -> fail ctx (Printf.sprintf "%s: expected %d, got %d" what expected n)
  | Model.Err e ->
    fail ctx (Printf.sprintf "%s: expected %d, got %s" what expected (Errno.to_string e))

let expect_err ctx what expected = function
  | Model.Err e when Errno.equal e expected -> ()
  | Model.Err e ->
    fail ctx
      (Printf.sprintf "%s: expected %s, got %s" what (Errno.to_string expected)
         (Errno.to_string e))
  | Model.Ret n ->
    fail ctx
      (Printf.sprintf "%s: expected %s, got success %d" what (Errno.to_string expected) n)

(* Out-of-mount traffic: every real tester reads configs and appends logs;
   the mount-point filter must drop all of this. *)
let noise ctx =
  let open Open_flags in
  ignore (call ctx (Model.mkdir ~mode:0o755 "/var"));
  ignore (call ctx (Model.mkdir ~mode:0o755 "/var/log"));
  (match open_fd ctx ~mode:0o644 ~flags:(of_flags [ O_WRONLY; O_CREAT; O_APPEND ]) "/var/log/tester.log" with
   | Some fd ->
     ignore (write_fd ctx fd (64 + Prng.int ctx.rng 64));
     close_fd ctx fd
   | None -> ());
  match open_fd ctx ~flags:(of_flags [ O_RDONLY ]) "/etc/tester.conf" with
  | Some fd -> close_fd ctx fd
  | None -> ()

let run_inline ~mount ?sink ?dispatch ~coverage emit =
  let last =
    match dispatch with
    | Some d -> d
    | None ->
      Filter.sink (Filter.mount_point mount) (fun e ->
          match e.Event.payload with
          | Event.Tracked call -> Coverage.observe coverage call e.Event.outcome
          | Event.Aux _ -> ())
  in
  match sink with
  | None -> emit last
  | Some sink ->
    emit (fun e ->
        sink e;
        last e)
