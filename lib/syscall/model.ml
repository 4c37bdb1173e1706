type base =
  | Open
  | Read
  | Write
  | Lseek
  | Truncate
  | Mkdir
  | Chmod
  | Close
  | Chdir
  | Setxattr
  | Getxattr

type variant =
  | Sys_open
  | Sys_openat
  | Sys_creat
  | Sys_openat2
  | Sys_read
  | Sys_pread64
  | Sys_readv
  | Sys_write
  | Sys_pwrite64
  | Sys_writev
  | Sys_lseek
  | Sys_truncate
  | Sys_ftruncate
  | Sys_mkdir
  | Sys_mkdirat
  | Sys_chmod
  | Sys_fchmod
  | Sys_fchmodat
  | Sys_close
  | Sys_chdir
  | Sys_fchdir
  | Sys_setxattr
  | Sys_lsetxattr
  | Sys_fsetxattr
  | Sys_getxattr
  | Sys_lgetxattr
  | Sys_fgetxattr

let all_bases =
  [ Open; Read; Write; Lseek; Truncate; Mkdir; Chmod; Close; Chdir; Setxattr; Getxattr ]

let all_variants =
  [ Sys_open; Sys_openat; Sys_creat; Sys_openat2; Sys_read; Sys_pread64;
    Sys_readv; Sys_write; Sys_pwrite64; Sys_writev; Sys_lseek; Sys_truncate;
    Sys_ftruncate; Sys_mkdir; Sys_mkdirat; Sys_chmod; Sys_fchmod;
    Sys_fchmodat; Sys_close; Sys_chdir; Sys_fchdir; Sys_setxattr;
    Sys_lsetxattr; Sys_fsetxattr; Sys_getxattr; Sys_lgetxattr; Sys_fgetxattr ]

(* Dense integer indexes, in declaration order — the compiled partition
   plan (lib/core/plan.ml) uses these as array offsets, and the
   monomorphic comparators below are index comparisons, so histogram
   order is unchanged from the polymorphic [Stdlib.compare] they
   replace. *)

let base_index = function
  | Open -> 0
  | Read -> 1
  | Write -> 2
  | Lseek -> 3
  | Truncate -> 4
  | Mkdir -> 5
  | Chmod -> 6
  | Close -> 7
  | Chdir -> 8
  | Setxattr -> 9
  | Getxattr -> 10

let base_count = 11

let variant_index = function
  | Sys_open -> 0
  | Sys_openat -> 1
  | Sys_creat -> 2
  | Sys_openat2 -> 3
  | Sys_read -> 4
  | Sys_pread64 -> 5
  | Sys_readv -> 6
  | Sys_write -> 7
  | Sys_pwrite64 -> 8
  | Sys_writev -> 9
  | Sys_lseek -> 10
  | Sys_truncate -> 11
  | Sys_ftruncate -> 12
  | Sys_mkdir -> 13
  | Sys_mkdirat -> 14
  | Sys_chmod -> 15
  | Sys_fchmod -> 16
  | Sys_fchmodat -> 17
  | Sys_close -> 18
  | Sys_chdir -> 19
  | Sys_fchdir -> 20
  | Sys_setxattr -> 21
  | Sys_lsetxattr -> 22
  | Sys_fsetxattr -> 23
  | Sys_getxattr -> 24
  | Sys_lgetxattr -> 25
  | Sys_fgetxattr -> 26

let variant_count = 27
let compare_base a b = Int.compare (base_index a) (base_index b)
let compare_variant a b = Int.compare (variant_index a) (variant_index b)

let base_of_variant = function
  | Sys_open | Sys_openat | Sys_creat | Sys_openat2 -> Open
  | Sys_read | Sys_pread64 | Sys_readv -> Read
  | Sys_write | Sys_pwrite64 | Sys_writev -> Write
  | Sys_lseek -> Lseek
  | Sys_truncate | Sys_ftruncate -> Truncate
  | Sys_mkdir | Sys_mkdirat -> Mkdir
  | Sys_chmod | Sys_fchmod | Sys_fchmodat -> Chmod
  | Sys_close -> Close
  | Sys_chdir | Sys_fchdir -> Chdir
  | Sys_setxattr | Sys_lsetxattr | Sys_fsetxattr -> Setxattr
  | Sys_getxattr | Sys_lgetxattr | Sys_fgetxattr -> Getxattr

let variants_of_base b = List.filter (fun v -> base_of_variant v = b) all_variants

let base_name = function
  | Open -> "open"
  | Read -> "read"
  | Write -> "write"
  | Lseek -> "lseek"
  | Truncate -> "truncate"
  | Mkdir -> "mkdir"
  | Chmod -> "chmod"
  | Close -> "close"
  | Chdir -> "chdir"
  | Setxattr -> "setxattr"
  | Getxattr -> "getxattr"

let base_of_name s = List.find_opt (fun b -> base_name b = s) all_bases

let variant_name = function
  | Sys_open -> "open"
  | Sys_openat -> "openat"
  | Sys_creat -> "creat"
  | Sys_openat2 -> "openat2"
  | Sys_read -> "read"
  | Sys_pread64 -> "pread64"
  | Sys_readv -> "readv"
  | Sys_write -> "write"
  | Sys_pwrite64 -> "pwrite64"
  | Sys_writev -> "writev"
  | Sys_lseek -> "lseek"
  | Sys_truncate -> "truncate"
  | Sys_ftruncate -> "ftruncate"
  | Sys_mkdir -> "mkdir"
  | Sys_mkdirat -> "mkdirat"
  | Sys_chmod -> "chmod"
  | Sys_fchmod -> "fchmod"
  | Sys_fchmodat -> "fchmodat"
  | Sys_close -> "close"
  | Sys_chdir -> "chdir"
  | Sys_fchdir -> "fchdir"
  | Sys_setxattr -> "setxattr"
  | Sys_lsetxattr -> "lsetxattr"
  | Sys_fsetxattr -> "fsetxattr"
  | Sys_getxattr -> "getxattr"
  | Sys_lgetxattr -> "lgetxattr"
  | Sys_fgetxattr -> "fgetxattr"

let variant_of_name s = List.find_opt (fun v -> variant_name v = s) all_variants

type target =
  | Path of string
  | Fd of int

type call =
  | Open_call of { variant : variant; path : string; flags : Open_flags.t; mode : Mode.t }
  | Read_call of { variant : variant; fd : int; count : int; offset : int option }
  | Write_call of { variant : variant; fd : int; count : int; offset : int option }
  | Lseek_call of { fd : int; offset : int; whence : Whence.t }
  | Truncate_call of { variant : variant; target : target; length : int }
  | Mkdir_call of { variant : variant; path : string; mode : Mode.t }
  | Chmod_call of { variant : variant; target : target; mode : Mode.t }
  | Close_call of { fd : int }
  | Chdir_call of { target : target }
  | Setxattr_call of
      { variant : variant; target : target; name : string; size : int; flags : Xattr_flag.t }
  | Getxattr_call of { variant : variant; target : target; name : string; size : int }

type outcome =
  | Ret of int
  | Err of Errno.t

let variant_of_call = function
  | Open_call { variant; _ } -> variant
  | Read_call { variant; _ } -> variant
  | Write_call { variant; _ } -> variant
  | Lseek_call _ -> Sys_lseek
  | Truncate_call { variant; _ } -> variant
  | Mkdir_call { variant; _ } -> variant
  | Chmod_call { variant; _ } -> variant
  | Close_call _ -> Sys_close
  | Chdir_call { target = Path _ } -> Sys_chdir
  | Chdir_call { target = Fd _ } -> Sys_fchdir
  | Setxattr_call { variant; _ } -> variant
  | Getxattr_call { variant; _ } -> variant

let base_of_call c = base_of_variant (variant_of_call c)

let check_variant ctx expected variant =
  if not (List.mem variant expected) then
    invalid_arg (Printf.sprintf "Model.%s: variant %s not allowed" ctx (variant_name variant))

let open_ ?(variant = Sys_open) ?(mode = 0) ~flags path =
  check_variant "open_" [ Sys_open; Sys_openat; Sys_creat; Sys_openat2 ] variant;
  let flags =
    if variant = Sys_creat then
      Open_flags.of_flags [ Open_flags.O_WRONLY; Open_flags.O_CREAT; Open_flags.O_TRUNC ]
    else flags
  in
  Open_call { variant; path; flags; mode }

let read ?(variant = Sys_read) ?offset ~fd ~count () =
  check_variant "read" [ Sys_read; Sys_pread64; Sys_readv ] variant;
  (match (variant, offset) with
   | Sys_pread64, None -> invalid_arg "Model.read: pread64 requires an offset"
   | (Sys_read | Sys_readv), Some _ -> invalid_arg "Model.read: offset only valid for pread64"
   | _ -> ());
  Read_call { variant; fd; count; offset }

let write ?(variant = Sys_write) ?offset ~fd ~count () =
  check_variant "write" [ Sys_write; Sys_pwrite64; Sys_writev ] variant;
  (match (variant, offset) with
   | Sys_pwrite64, None -> invalid_arg "Model.write: pwrite64 requires an offset"
   | (Sys_write | Sys_writev), Some _ -> invalid_arg "Model.write: offset only valid for pwrite64"
   | _ -> ());
  Write_call { variant; fd; count; offset }

let lseek ~fd ~offset ~whence = Lseek_call { fd; offset; whence }

let truncate ?variant ~target ~length () =
  let variant =
    match (variant, target) with
    | Some v, _ -> v
    | None, Path _ -> Sys_truncate
    | None, Fd _ -> Sys_ftruncate
  in
  check_variant "truncate" [ Sys_truncate; Sys_ftruncate ] variant;
  (match (variant, target) with
   | Sys_truncate, Fd _ -> invalid_arg "Model.truncate: truncate takes a path"
   | Sys_ftruncate, Path _ -> invalid_arg "Model.truncate: ftruncate takes an fd"
   | _ -> ());
  Truncate_call { variant; target; length }

let mkdir ?(variant = Sys_mkdir) ?(mode = 0o777) path =
  check_variant "mkdir" [ Sys_mkdir; Sys_mkdirat ] variant;
  Mkdir_call { variant; path; mode }

let chmod ?variant ~target ~mode () =
  let variant =
    match (variant, target) with
    | Some v, _ -> v
    | None, Path _ -> Sys_chmod
    | None, Fd _ -> Sys_fchmod
  in
  check_variant "chmod" [ Sys_chmod; Sys_fchmod; Sys_fchmodat ] variant;
  (match (variant, target) with
   | (Sys_chmod | Sys_fchmodat), Fd _ -> invalid_arg "Model.chmod: path variant given an fd"
   | Sys_fchmod, Path _ -> invalid_arg "Model.chmod: fchmod takes an fd"
   | _ -> ());
  Chmod_call { variant; target; mode }

let close fd = Close_call { fd }
let chdir target = Chdir_call { target }

let setxattr ?variant ?(flags = Xattr_flag.XATTR_ANY) ~target ~name ~size () =
  let variant =
    match (variant, target) with
    | Some v, _ -> v
    | None, Path _ -> Sys_setxattr
    | None, Fd _ -> Sys_fsetxattr
  in
  check_variant "setxattr" [ Sys_setxattr; Sys_lsetxattr; Sys_fsetxattr ] variant;
  (match (variant, target) with
   | (Sys_setxattr | Sys_lsetxattr), Fd _ -> invalid_arg "Model.setxattr: path variant given an fd"
   | Sys_fsetxattr, Path _ -> invalid_arg "Model.setxattr: fsetxattr takes an fd"
   | _ -> ());
  Setxattr_call { variant; target; name; size; flags }

let getxattr ?variant ~target ~name ~size () =
  let variant =
    match (variant, target) with
    | Some v, _ -> v
    | None, Path _ -> Sys_getxattr
    | None, Fd _ -> Sys_fgetxattr
  in
  check_variant "getxattr" [ Sys_getxattr; Sys_lgetxattr; Sys_fgetxattr ] variant;
  (match (variant, target) with
   | (Sys_getxattr | Sys_lgetxattr), Fd _ -> invalid_arg "Model.getxattr: path variant given an fd"
   | Sys_fgetxattr, Path _ -> invalid_arg "Model.getxattr: fgetxattr takes an fd"
   | _ -> ());
  Getxattr_call { variant; target; name; size }

let errno_domain =
  let open Errno in
  function
  | Open -> open_manual_domain
  | Read -> [ EAGAIN; EBADF; EFAULT; EINTR; EINVAL; EIO; EISDIR; ENOMEM; ENXIO; ESPIPE ]
  | Write ->
    [ EAGAIN; EBADF; EDQUOT; EFAULT; EFBIG; EINTR; EINVAL; EIO; ENOSPC; EPERM; ESPIPE ]
  | Lseek -> [ EBADF; EINVAL; ENXIO; EOVERFLOW; ESPIPE ]
  | Truncate ->
    [ EACCES; EBADF; EFAULT; EFBIG; EINTR; EINVAL; EIO; EISDIR; ELOOP; ENAMETOOLONG;
      ENOENT; ENOTDIR; EPERM; EROFS; ETXTBSY ]
  | Mkdir ->
    [ EACCES; EBADF; EDQUOT; EEXIST; EFAULT; EINVAL; ELOOP; EMLINK; ENAMETOOLONG;
      ENOENT; ENOMEM; ENOSPC; ENOTDIR; EPERM; EROFS ]
  | Chmod ->
    [ EACCES; EBADF; EFAULT; EIO; ELOOP; ENAMETOOLONG; ENOENT; ENOMEM; ENOTDIR;
      EPERM; EROFS ]
  | Close -> [ EBADF; EDQUOT; EINTR; EIO; ENOSPC ]
  | Chdir -> [ EACCES; EBADF; EFAULT; EIO; ELOOP; ENAMETOOLONG; ENOENT; ENOTDIR ]
  | Setxattr ->
    [ E2BIG; EACCES; EBADF; EDQUOT; EEXIST; EFAULT; EINVAL; ELOOP; ENAMETOOLONG;
      ENODATA; ENOENT; ENOSPC; ENOTDIR; ENOTSUP; EPERM; ERANGE; EROFS ]
  | Getxattr ->
    [ E2BIG; EACCES; EBADF; EFAULT; ELOOP; ENAMETOOLONG; ENODATA; ENOENT; ENOTDIR;
      ENOTSUP; ERANGE ]

let returns_byte_count = function
  | Read | Write | Lseek | Getxattr -> true
  | Open | Truncate | Mkdir | Chmod | Close | Chdir | Setxattr -> false

(* --- Serialization --- *)

let quote s = Printf.sprintf "%S" s

let target_field = function
  | Path p -> Printf.sprintf "path=%s" (quote p)
  | Fd fd -> Printf.sprintf "fd=%d" fd

let call_to_string call =
  let name = variant_name (variant_of_call call) in
  let fields =
    match call with
    | Open_call { path; flags; mode; _ } ->
      [ Printf.sprintf "path=%s" (quote path);
        Printf.sprintf "flags=%s" (Open_flags.to_string flags);
        Printf.sprintf "mode=%s" (Mode.to_octal_string mode) ]
    | Read_call { fd; count; offset; _ } | Write_call { fd; count; offset; _ } ->
      [ Printf.sprintf "fd=%d" fd; Printf.sprintf "count=%d" count ]
      @ (match offset with
         | Some off -> [ Printf.sprintf "offset=%d" off ]
         | None -> [])
    | Lseek_call { fd; offset; whence } ->
      [ Printf.sprintf "fd=%d" fd;
        Printf.sprintf "offset=%d" offset;
        Printf.sprintf "whence=%s" (Whence.to_string whence) ]
    | Truncate_call { target; length; _ } ->
      [ target_field target; Printf.sprintf "length=%d" length ]
    | Mkdir_call { path; mode; _ } ->
      [ Printf.sprintf "path=%s" (quote path);
        Printf.sprintf "mode=%s" (Mode.to_octal_string mode) ]
    | Chmod_call { target; mode; _ } ->
      [ target_field target; Printf.sprintf "mode=%s" (Mode.to_octal_string mode) ]
    | Close_call { fd } -> [ Printf.sprintf "fd=%d" fd ]
    | Chdir_call { target } -> [ target_field target ]
    | Setxattr_call { target; name; size; flags; _ } ->
      [ target_field target;
        Printf.sprintf "name=%s" (quote name);
        Printf.sprintf "size=%d" size;
        Printf.sprintf "xflags=%s" (Xattr_flag.to_string flags) ]
    | Getxattr_call { target; name; size; _ } ->
      [ target_field target;
        Printf.sprintf "name=%s" (quote name);
        Printf.sprintf "size=%d" size ]
  in
  Printf.sprintf "%s(%s)" name (String.concat ", " fields)

let outcome_to_string = function
  | Ret n -> Printf.sprintf "ok:%d" n
  | Err e -> Printf.sprintf "err:%s" (Errno.to_string e)

let pp_call ppf c = Format.pp_print_string ppf (call_to_string c)
let pp_outcome ppf o = Format.pp_print_string ppf (outcome_to_string o)
