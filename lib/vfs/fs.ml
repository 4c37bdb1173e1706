open Iocov_syscall

type fd_entry = {
  mutable fd_ino : int;
  fd_flags : Open_flags.t;
  mutable fd_offset : int;
  fd_pathname : string option;  (* best-effort, for trace reconstruction *)
}

type durable = { d_nodes : (int, Node.t) Hashtbl.t }

type t = {
  cfg : Config.t;
  nodes : (int, Node.t) Hashtbl.t;
  mutable next_ino : int;
  root : int;
  mutable cwd : int;
  fds : (int, fd_entry) Hashtbl.t;
  mutable used : int;                      (* blocks in use *)
  quota : (int, int ref) Hashtbl.t;        (* uid -> blocks charged *)
  mutable system_file_load : int;          (* foreign open files (ENFILE) *)
  mutable clock : int;
  mutable uid : int;
  mutable gid : int;
  mutable read_only : bool;
  mutable injected : (Errno.t * Model.base option) list;
  mutable durable : durable;
  mutable journal : Journal.t option;
}

let config t = t.cfg

let set_journal t j = t.journal <- j
let journal t = t.journal

(* Journal hook: a no-op unless a log is attached, so the hot path pays
   one option match. *)
let jot t r = match t.journal with Some j -> Journal.append j r | None -> ()

let has_fault t f = List.mem f t.cfg.Config.faults

(* Fault accounting: "armed" when a file system is created with the
   fault planted, "fired" each time the faulty branch actually alters
   an outcome.  At call sites, [fault_fires] must be the last conjunct
   so it counts only decisions the fault really made. *)
let fault_counter kind f =
  Iocov_obs.Metrics.counter Iocov_obs.Metrics.default
    (Printf.sprintf "iocov_fault_%s_total" kind)
    ~labels:[ ("fault", Fault.to_string f) ]
    ~help:(Printf.sprintf "Injected faults %s." kind)

let fault_fires t f =
  has_fault t f
  && begin
    Iocov_obs.Metrics.Counter.incr (fault_counter "fired" f);
    true
  end

let get t ino =
  match Hashtbl.find_opt t.nodes ino with
  | Some n -> n
  | None -> invalid_arg (Printf.sprintf "Fs.get: dangling inode %d" ino)

let tick t =
  t.clock <- t.clock + 1;
  t.clock

(* --- block accounting ---
   Every inode costs one block; regular-file data is charged by logical
   size (a non-sparse accounting model: holes are charged, which keeps
   ENOSPC/EDQUOT monotone in file size). *)

let blocks_of_size t size = (size + t.cfg.Config.block_size - 1) / t.cfg.Config.block_size

let quota_used t uid =
  match Hashtbl.find_opt t.quota uid with
  | Some r -> r
  | None ->
    let r = ref 0 in
    Hashtbl.add t.quota uid r;
    r

(* [charge] checks device capacity before quota, as Linux does; the owner
   (node uid), not the caller, pays the quota. *)
let charge t ~owner delta =
  if delta <= 0 then begin
    t.used <- t.used + delta;
    let q = quota_used t owner in
    q := !q + delta;
    Ok ()
  end
  else if t.used + delta > t.cfg.Config.total_blocks then Error Errno.ENOSPC
  else begin
    match t.cfg.Config.quota_blocks with
    | Some limit when owner <> 0 && !(quota_used t owner) + delta > limit ->
      Error Errno.EDQUOT
    | _ ->
      t.used <- t.used + delta;
      let q = quota_used t owner in
      q := !q + delta;
      Ok ()
  end

(* --- permissions --- *)

let perm_who t (node : Node.t) =
  if t.uid = node.uid then `Owner else if t.gid = node.gid then `Group else `Other

let may_read t node = t.uid = 0 || Mode.readable_by node.Node.mode (perm_who t node)
let may_write t node = t.uid = 0 || Mode.writable_by node.Node.mode (perm_who t node)
let may_exec t node = t.uid = 0 || Mode.executable_by node.Node.mode (perm_who t node)
let is_owner t node = t.uid = 0 || t.uid = node.Node.uid

(* --- node allocation / release --- *)

let alloc_node t ~body ~mode =
  let ino = t.next_ino in
  t.next_ino <- ino + 1;
  let node = Node.create ~ino ~body ~mode ~uid:t.uid ~gid:t.gid ~now:(tick t) in
  Hashtbl.add t.nodes ino node;
  node

let fd_refs t ino =
  Hashtbl.fold (fun _ e acc -> if e.fd_ino = ino then acc + 1 else acc) t.fds 0

let release_node t (node : Node.t) =
  Hashtbl.remove t.nodes node.ino;
  let data_blocks = if Node.is_reg node then blocks_of_size t node.size else 0 in
  (* releasing cannot fail *)
  ignore (charge t ~owner:node.uid (-(1 + data_blocks)))

(* Called when a link went away or an fd closed: frees the inode once it is
   both unreferenced by the namespace and by descriptors. *)
let maybe_free t (node : Node.t) =
  if node.nlink <= 0 && fd_refs t node.ino = 0 && node.ino <> t.root then
    release_node t node

(* --- path resolution --- *)

let ( let* ) = Result.bind

let parse_path t s =
  Path.parse ~max_name_len:t.cfg.Config.max_name_len ~max_path_len:t.cfg.Config.max_path_len s

(* Walk components from [ino].  [hops] counts symlink traversals across the
   whole lookup (ELOOP past the limit).  [follow_last] controls whether a
   symlink in final position is resolved. *)
let rec step t ino comps ~follow_last ~hops =
  match comps with
  | [] -> Ok ino
  | name :: rest ->
    let node = get t ino in
    (match node.Node.body with
     | Node.Dir entries ->
       if not (may_exec t node) then Error Errno.EACCES
       else begin
         match Hashtbl.find_opt entries name with
         | None -> Error Errno.ENOENT
         | Some child_ino ->
           let child = get t child_ino in
           (match child.Node.body with
            | Node.Symlink target when rest <> [] || follow_last ->
              if hops >= t.cfg.Config.max_symlink_depth then Error Errno.ELOOP
              else
                let* p = parse_path t target in
                let start = if p.Path.absolute then t.root else ino in
                step t start (p.Path.components @ rest) ~follow_last ~hops:(hops + 1)
            | _ -> step t child_ino rest ~follow_last ~hops)
       end
     | Node.Symlink _ -> Error Errno.ELOOP  (* unreachable: resolved above *)
     | _ -> Error Errno.ENOTDIR)

let resolve ?(follow_last = true) t path =
  let* p = parse_path t path in
  let start = if p.Path.absolute then t.root else t.cwd in
  let* ino = step t start p.Path.components ~follow_last ~hops:0 in
  if p.Path.trailing_slash && not (Node.is_dir (get t ino)) then Error Errno.ENOTDIR
  else Ok ino

(* Resolve all but the final component; answers the directory inode and the
   final name.  The root path answers [(root, ".")]. *)
let resolve_parent t path =
  let* p = parse_path t path in
  let start = if p.Path.absolute then t.root else t.cwd in
  match List.rev p.Path.components with
  | [] -> Ok (t.root, ".")
  | last :: rev_prefix ->
    let* dir_ino = step t start (List.rev rev_prefix) ~follow_last:true ~hops:0 in
    let dir = get t dir_ino in
    if not (Node.is_dir dir) then Error Errno.ENOTDIR
    else if not (may_exec t dir) then Error Errno.EACCES
    else Ok (dir_ino, last)

let lookup_in t dir_ino name =
  match name with
  | "." -> Some dir_ino
  | name -> Hashtbl.find_opt (Node.dir_entries (get t dir_ino)) name

(* --- construction --- *)

let create ?(config = Config.default) () =
  let t =
    {
      cfg = config;
      nodes = Hashtbl.create 256;
      next_ino = 2;  (* ext2 tradition: root is inode 2 *)
      root = 2;
      cwd = 2;
      fds = Hashtbl.create 16;
      used = 0;
      quota = Hashtbl.create 4;
      system_file_load = 0;
      clock = 0;
      uid = config.Config.uid;
      gid = config.Config.gid;
      read_only = config.Config.read_only;
      injected = [];
      durable = { d_nodes = Hashtbl.create 16 };
      journal = None;
    }
  in
  List.iter
    (fun f -> Iocov_obs.Metrics.Counter.incr (fault_counter "armed" f))
    config.Config.faults;
  let entries = Hashtbl.create 8 in
  let root =
    Node.create ~ino:t.root ~body:(Node.Dir entries) ~mode:0o755 ~uid:0 ~gid:0 ~now:0
  in
  Hashtbl.add entries "." t.root;
  Hashtbl.add entries ".." t.root;
  Hashtbl.add t.nodes t.root root;
  t.next_ino <- 3;
  ignore (charge t ~owner:0 1);
  (* the fresh file system is durable, as after mkfs *)
  let d_nodes = Hashtbl.create 16 in
  Hashtbl.add d_nodes t.root (Node.copy root);
  t.durable <- { d_nodes };
  t

(* --- directory entry helpers --- *)

let add_entry t dir_ino name child =
  let dir = get t dir_ino in
  Hashtbl.replace (Node.dir_entries dir) name child.Node.ino;
  dir.Node.mtime <- tick t;
  if Node.is_dir child then begin
    Hashtbl.replace (Node.dir_entries child) "." child.Node.ino;
    Hashtbl.replace (Node.dir_entries child) ".." dir_ino;
    dir.Node.nlink <- dir.Node.nlink + 1
  end

let remove_entry t dir_ino name child =
  let dir = get t dir_ino in
  Hashtbl.remove (Node.dir_entries dir) name;
  dir.Node.mtime <- tick t;
  if Node.is_dir child then dir.Node.nlink <- dir.Node.nlink - 1

(* --- durability / crash model --- *)

let persist_node t (node : Node.t) =
  let copy =
    if Node.is_reg node && fault_fires t Fault.Fsync_skips_data then begin
      (* buggy fsync: metadata (size, mode, ...) persists, data does not —
         the durable extents stay whatever they were. *)
      let c = Node.copy node in
      (match (Hashtbl.find_opt t.durable.d_nodes node.ino, c.Node.body) with
       | Some { Node.body = Node.Reg old; _ }, Node.Reg fresh ->
         fresh.extents <- old.extents
       | _, Node.Reg fresh -> fresh.extents <- []
       | _ -> ());
      c
    end
    else Node.copy node
  in
  Hashtbl.replace t.durable.d_nodes node.ino copy

let sync_all t =
  let d_nodes = Hashtbl.create (Hashtbl.length t.nodes) in
  Hashtbl.iter (fun ino node -> Hashtbl.add d_nodes ino (Node.copy node)) t.nodes;
  t.durable <- { d_nodes }

let crash_recover t =
  let d = t.durable in
  Hashtbl.reset t.nodes;
  Hashtbl.reset t.fds;
  Hashtbl.reset t.quota;
  t.used <- 0;
  t.cwd <- t.root;
  (* Copy the durable nodes reachable from the root.  A durable directory
     entry may name an inode that was never fsynced: recover it as an
     empty file (metadata journaled, data lost). *)
  let next_ino = ref t.next_ino in
  let rec restore ino =
    if not (Hashtbl.mem t.nodes ino) then begin
      let node =
        match Hashtbl.find_opt d.d_nodes ino with
        | Some n -> Node.copy n
        | None ->
          Node.create ~ino ~body:(Node.Reg { extents = [] }) ~mode:0o644 ~uid:0
            ~gid:0 ~now:t.clock
      in
      Hashtbl.add t.nodes ino node;
      let data = if Node.is_reg node then blocks_of_size t node.size else 0 in
      ignore (charge t ~owner:node.uid (1 + data));
      (match node.Node.body with
       | Node.Dir entries ->
         Hashtbl.iter (fun name child -> if name <> "." && name <> ".." then restore child) entries
       | _ -> ())
    end
  in
  restore t.root;
  t.next_ino <- max t.next_ino !next_ino

(* --- fd table --- *)

let find_fd t fd = Hashtbl.find_opt t.fds fd

let alloc_fd t entry =
  let rec first_free fd = if Hashtbl.mem t.fds fd then first_free (fd + 1) else fd in
  let fd = first_free 3 in
  Hashtbl.add t.fds fd entry;
  fd

(* --- environment injection --- *)

let inject_errno t ?base e = t.injected <- t.injected @ [ (e, base) ]

let take_injected t base =
  let rec go acc = function
    | [] -> None
    | (e, None) :: rest ->
      t.injected <- List.rev_append acc rest;
      Some e
    | (e, Some b) :: rest when b = base ->
      t.injected <- List.rev_append acc rest;
      Some e
    | entry :: rest -> go (entry :: acc) rest
  in
  go [] t.injected

(* --- syscall implementations --- *)

let err e = Model.Err e
let ret n = Model.Ret n

let fill_byte t = Char.chr (Char.code 'a' + (t.clock mod 26))

let do_open t ~path ~flags ~mode =
  let open Open_flags in
  let wants_write = writable flags || has flags O_TRUNC in
  let tmpfile = has flags O_TMPFILE in
  (* a trailing slash commits the final component to being a directory *)
  let trailing_slash = String.length path > 1 && path.[String.length path - 1] = '/' in
  if tmpfile && not (writable flags) then err Errno.EINVAL
  else begin
    match resolve_parent t path with
    | Error e -> err e
    | Ok (dir_ino, name) ->
      let existing =
        match lookup_in t dir_ino name with
        | Some ino ->
          (* final symlink handling *)
          let node = get t ino in
          if Node.is_symlink node && not (has flags O_NOFOLLOW) then
            (match step t dir_ino [ name ] ~follow_last:true ~hops:0 with
             | Ok ino' -> `Found ino'
             | Error e -> `Err e)
          else `Found ino
        | None -> `Absent
      in
      (match existing with
       | `Err e -> err e
       | `Absent when tmpfile -> err Errno.ENOTDIR (* path must name a dir *)
       | `Absent ->
         if not (has flags O_CREAT) then err Errno.ENOENT
         else if trailing_slash then err Errno.EISDIR (* cannot creat "x/" *)
         else if name = "." || name = ".." then err Errno.EISDIR
         else if t.read_only then err Errno.EROFS
         else begin
           let dir = get t dir_ino in
           if not (may_write t dir && may_exec t dir) then err Errno.EACCES
           else if Hashtbl.length t.fds >= t.cfg.Config.max_open_files then err Errno.EMFILE
           else if
             Hashtbl.length t.fds + t.system_file_load >= t.cfg.Config.max_system_files
           then err Errno.ENFILE
           else
             match charge t ~owner:t.uid 1 with
             | Error e -> err e
             | Ok () ->
               let mode =
                 if mode land 0o7777 <> 0 && fault_fires t Fault.Creat_mode_ignored
                 then 0
                 else mode land 0o7777
               in
               let node = alloc_node t ~body:(Node.Reg { extents = [] }) ~mode in
               add_entry t dir_ino name node;
               jot t
                 (Journal.Create
                    { dir = dir_ino; name; ino = node.Node.ino; kind = Journal.K_reg;
                      mode = node.Node.mode; uid = t.uid; gid = t.gid });
               let entry =
                 { fd_ino = node.Node.ino; fd_flags = flags; fd_offset = 0;
                   fd_pathname = Some path }
               in
               ret (alloc_fd t entry)
         end
       | `Found ino ->
         let node = get t ino in
         if has flags O_CREAT && has flags O_EXCL then err Errno.EEXIST
         else if node.Node.busy then err Errno.EBUSY
         else if Node.is_symlink node then err Errno.ELOOP (* O_NOFOLLOW hit a link *)
         else if trailing_slash && not (Node.is_dir node) then err Errno.ENOTDIR
         else if has flags O_DIRECTORY && not (Node.is_dir node) then err Errno.ENOTDIR
         else begin
           match node.Node.body with
           | Node.Device { driverless = true } -> err Errno.ENXIO
           | Node.Device { driverless = false } -> err Errno.ENODEV
           | Node.Fifo when has flags O_NONBLOCK && access_mode flags = O_WRONLY ->
             (* no reader is ever present in the single-process model *)
             err Errno.ENXIO
           | Node.Dir _ when wants_write && not tmpfile -> err Errno.EISDIR
           | _ ->
             if tmpfile && not (Node.is_dir node) then err Errno.ENOTDIR
             else if t.read_only && wants_write then err Errno.EROFS
             else if node.Node.executing && writable flags then err Errno.ETXTBSY
             else if node.Node.immutable_ && wants_write then err Errno.EPERM
             else if
               (not (has flags O_PATH))
               && ((readable flags && not (may_read t node))
                   || (writable flags && not (may_write t node)))
             then err Errno.EACCES
             else if
               Node.is_reg node
               && node.Node.size >= t.cfg.Config.large_file_threshold
               && ((not (has flags O_LARGEFILE))
                   || fault_fires t Fault.Largefile_eoverflow)
             then err Errno.EOVERFLOW
             else if Hashtbl.length t.fds >= t.cfg.Config.max_open_files then
               err Errno.EMFILE
             else if
               Hashtbl.length t.fds + t.system_file_load >= t.cfg.Config.max_system_files
             then err Errno.ENFILE
             else begin
               if tmpfile then begin
                 (* anonymous file in the directory's file system *)
                 match charge t ~owner:t.uid 1 with
                 | Error e -> err e
                 | Ok () ->
                   let anon =
                     alloc_node t ~body:(Node.Reg { extents = [] }) ~mode:(mode land 0o7777)
                   in
                   anon.Node.nlink <- 0;
                   let entry =
                     { fd_ino = anon.Node.ino; fd_flags = flags; fd_offset = 0;
                       fd_pathname = None }
                   in
                   ret (alloc_fd t entry)
               end
               else begin
                 if has flags O_TRUNC && writable flags && Node.is_reg node then begin
                   (match node.Node.body with
                    | Node.Reg r -> r.extents <- []
                    | _ -> ());
                   ignore (charge t ~owner:node.Node.uid (-(blocks_of_size t node.Node.size)));
                   node.Node.size <- 0;
                   node.Node.mtime <- tick t;
                   jot t (Journal.Size { ino = node.Node.ino; size = 0 })
                 end;
                 let entry =
                   { fd_ino = ino; fd_flags = flags; fd_offset = 0; fd_pathname = Some path }
                 in
                 ret (alloc_fd t entry)
               end
             end
         end)
  end

let do_read t ~fd ~count ~offset =
  match find_fd t fd with
  | None -> err Errno.EBADF
  | Some e ->
    let node = get t e.fd_ino in
    if not (Open_flags.readable e.fd_flags) || Open_flags.has e.fd_flags Open_flags.O_PATH
    then err Errno.EBADF
    else if count < 0 then err Errno.EINVAL (* rw_verify_area *)
    else if Node.is_dir node then err Errno.EISDIR
    else begin
      match node.Node.body with
      | Node.Fifo ->
        if Open_flags.has e.fd_flags Open_flags.O_NONBLOCK then err Errno.EAGAIN
        else err Errno.EINTR (* a blocking read in a single-process model *)
      | Node.Device _ -> err Errno.ENXIO
      | Node.Symlink _ -> err Errno.EINVAL
      | Node.Reg _ ->
        (match offset with
         | Some off when off < 0 -> err Errno.EINVAL
         | _ ->
           let pos = match offset with Some off -> off | None -> e.fd_offset in
           let available = max 0 (node.Node.size - pos) in
           let n = min count available in
           if offset = None then e.fd_offset <- e.fd_offset + n;
           ret n)
      | Node.Dir _ -> err Errno.EISDIR
    end

let do_write t ~fd ~count ~offset =
  match find_fd t fd with
  | None -> err Errno.EBADF
  | Some e ->
    let node = get t e.fd_ino in
    if not (Open_flags.writable e.fd_flags) || Open_flags.has e.fd_flags Open_flags.O_PATH
    then err Errno.EBADF
    else if count < 0 then err Errno.EINVAL (* rw_verify_area *)
    else begin
      match node.Node.body with
      | Node.Fifo ->
        if Open_flags.has e.fd_flags Open_flags.O_NONBLOCK then err Errno.EAGAIN
        else err Errno.EIO
      | Node.Device _ -> err Errno.ENXIO
      | Node.Symlink _ | Node.Dir _ -> err Errno.EINVAL
      | Node.Reg r ->
        (match offset with
         | Some off when off < 0 -> err Errno.EINVAL
         | _ ->
           if node.Node.immutable_ then err Errno.EPERM
           else if
             Open_flags.has e.fd_flags Open_flags.O_NONBLOCK
             && fault_fires t Fault.Nowait_write_enospc
           then err Errno.ENOSPC
           else if count = 0 then begin
             if offset = None && fault_fires t Fault.Write_zero_advances_offset then
               e.fd_offset <- e.fd_offset + 1;
             ret 0
           end
           else begin
             let pos =
               match offset with
               | Some off -> off
               | None ->
                 if Open_flags.has e.fd_flags Open_flags.O_APPEND then node.Node.size
                 else e.fd_offset
             in
             if pos >= t.cfg.Config.max_file_size then err Errno.EFBIG
             else begin
               (* clamp to the file-size limit: POSIX permits short writes *)
               let count = min count (t.cfg.Config.max_file_size - pos) in
               let new_size = max node.Node.size (pos + count) in
               let delta = blocks_of_size t new_size - blocks_of_size t node.Node.size in
               let charged =
                 match charge t ~owner:node.Node.uid delta with
                 | Ok () -> Ok count
                 | Error e ->
                   (* partial write into the remaining blocks; the room
                      is bounded by whichever of device capacity and the
                      owner's quota is tighter, so a quota-bound write
                      short-writes up to the limit (EDQUOT only on zero
                      progress), mirroring the ENOSPC case *)
                   let free_blocks =
                     let device = t.cfg.Config.total_blocks - t.used in
                     match t.cfg.Config.quota_blocks with
                     | Some limit when node.Node.uid <> 0 ->
                       min device (max 0 (limit - !(quota_used t node.Node.uid)))
                     | _ -> device
                   in
                   let free_bytes = free_blocks * t.cfg.Config.block_size in
                   let room =
                     max 0
                       (blocks_of_size t node.Node.size * t.cfg.Config.block_size - pos)
                   in
                   let possible = min count (room + free_bytes) in
                   if possible <= 0 then Error e
                   else begin
                     let new_size' = max node.Node.size (pos + possible) in
                     let delta' =
                       blocks_of_size t new_size' - blocks_of_size t node.Node.size
                     in
                     match charge t ~owner:node.Node.uid delta' with
                     | Ok () -> Ok possible
                     | Error e -> Error e
                   end
               in
               match charged with
               | Error e ->
                 if e = Errno.ENOSPC && fault_fires t Fault.Enospc_swallowed then ret 0
                 else err e
               | Ok n ->
                 let fill = fill_byte t in
                 let old_size = node.Node.size in
                 r.extents <- Node.write_extents r.extents ~off:pos ~len:n ~fill;
                 node.Node.size <- max node.Node.size (pos + n);
                 node.Node.mtime <- tick t;
                 if offset = None then e.fd_offset <- pos + n;
                 let grown =
                   blocks_of_size t node.Node.size - blocks_of_size t old_size
                 in
                 if grown > 0 then
                   jot t (Journal.Alloc { ino = node.Node.ino; blocks = grown });
                 jot t (Journal.Data { ino = node.Node.ino; off = pos; len = n; fill });
                 if node.Node.size > old_size then
                   jot t (Journal.Size { ino = node.Node.ino; size = node.Node.size });
                 ret n
             end
           end)
    end

let do_lseek t ~fd ~offset ~whence =
  match find_fd t fd with
  | None -> err Errno.EBADF
  | Some e ->
    let node = get t e.fd_ino in
    (match node.Node.body with
     | Node.Fifo -> err Errno.ESPIPE
     | _ ->
       let result =
         match whence with
         | Whence.SEEK_SET -> Ok offset
         | Whence.SEEK_CUR -> Ok (e.fd_offset + offset)
         | Whence.SEEK_END -> Ok (node.Node.size + offset)
         | Whence.SEEK_DATA ->
           (match node.Node.body with
            | Node.Reg r ->
              if offset < 0 || offset >= node.Node.size then Error Errno.ENXIO
              else
                (match Node.next_data r.extents ~off:offset with
                 | Some pos when pos < node.Node.size -> Ok pos
                 | _ -> Error Errno.ENXIO)
            | _ -> Error Errno.EINVAL)
         | Whence.SEEK_HOLE ->
           (match node.Node.body with
            | Node.Reg r ->
              if offset < 0 || offset >= node.Node.size then Error Errno.ENXIO
              else begin
                let hole = min (Node.next_hole r.extents ~off:offset) node.Node.size in
                let hole =
                  if hole = node.Node.size && fault_fires t Fault.Seek_hole_off_by_one then
                    hole + 1
                  else hole
                in
                Ok hole
              end
            | _ -> Error Errno.EINVAL)
       in
       (match result with
        | Error e -> err e
        | Ok pos when pos < 0 -> err Errno.EINVAL
        | Ok pos when pos > 1 lsl 60 -> err Errno.EOVERFLOW
        | Ok pos ->
          e.fd_offset <- pos;
          ret pos))

let truncate_node t (node : Node.t) ~length =
  if length < 0 then err Errno.EINVAL
  else begin
    let limit = t.cfg.Config.max_file_size in
    let allowed =
      length <= limit
      || (length <= limit + 1 && fault_fires t Fault.Truncate_efbig_unchecked)
    in
    if not allowed then err Errno.EFBIG
    else begin
      let delta = blocks_of_size t length - blocks_of_size t node.Node.size in
      match charge t ~owner:node.Node.uid delta with
      | Error e -> err e
      | Ok () ->
        (match node.Node.body with
         | Node.Reg r -> r.extents <- Node.truncate_extents r.extents ~size:length
         | _ -> ());
        node.Node.size <- length;
        node.Node.mtime <- tick t;
        jot t (Journal.Size { ino = node.Node.ino; size = length });
        ret 0
    end
  end

let do_truncate_path t ~path ~length =
  match resolve t path with
  | Error e -> err e
  | Ok ino ->
    let node = get t ino in
    if Node.is_dir node then err Errno.EISDIR
    else if not (Node.is_reg node) then err Errno.EINVAL
    else if t.read_only then err Errno.EROFS
    else if not (may_write t node) then err Errno.EACCES
    else if node.Node.immutable_ then err Errno.EPERM
    else if node.Node.executing then err Errno.ETXTBSY
    else truncate_node t node ~length

let do_ftruncate t ~fd ~length =
  match find_fd t fd with
  | None -> err Errno.EBADF
  | Some e ->
    let node = get t e.fd_ino in
    if not (Open_flags.writable e.fd_flags) then err Errno.EINVAL
    else if not (Node.is_reg node) then err Errno.EINVAL
    else if node.Node.immutable_ then err Errno.EPERM
    else truncate_node t node ~length

let do_mkdir t ~path ~mode =
  if not (Mode.valid mode) then err Errno.EINVAL
  else if t.read_only then err Errno.EROFS
  else begin
    match resolve_parent t path with
    | Error e -> err e
    | Ok (dir_ino, name) ->
      if name = "." || name = ".." then err Errno.EEXIST
      else begin
        match lookup_in t dir_ino name with
        | Some _ -> err Errno.EEXIST
        | None ->
          let dir = get t dir_ino in
          if not (may_write t dir && may_exec t dir) then err Errno.EACCES
          else if dir.Node.nlink >= 65000 then err Errno.EMLINK
          else begin
            match charge t ~owner:t.uid 1 with
            | Error e -> err e
            | Ok () ->
              let mode =
                if mode land 0o7000 <> 0 && fault_fires t Fault.Mkdir_sticky_lost
                then mode land 0o777
                else mode land 0o7777
              in
              let node = alloc_node t ~body:(Node.Dir (Hashtbl.create 8)) ~mode in
              add_entry t dir_ino name node;
              jot t
                (Journal.Create
                   { dir = dir_ino; name; ino = node.Node.ino; kind = Journal.K_dir;
                     mode = node.Node.mode; uid = t.uid; gid = t.gid });
              ret 0
          end
      end
  end

let do_chmod_node t (node : Node.t) ~mode =
  if not (Mode.valid mode) then err Errno.EINVAL
  else if t.read_only then err Errno.EROFS
  else if node.Node.immutable_ then err Errno.EPERM
  else if not (is_owner t node) then begin
    if
      mode lxor node.Node.mode land lnot (Mode.mask Mode.S_ISUID) = 0
      && fault_fires t Fault.Chmod_suid_kept
    then begin
      node.Node.mode <- mode;
      jot t (Journal.Mode { ino = node.Node.ino; mode });
      ret 0
    end
    else err Errno.EPERM
  end
  else begin
    node.Node.mode <- mode;
    node.Node.ctime <- tick t;
    jot t (Journal.Mode { ino = node.Node.ino; mode });
    ret 0
  end

let do_chmod_path t ~path ~mode =
  match resolve t path with
  | Error e -> err e
  | Ok ino -> do_chmod_node t (get t ino) ~mode

let do_chmod_fd t ~fd ~mode =
  match find_fd t fd with
  | None -> err Errno.EBADF
  | Some e -> do_chmod_node t (get t e.fd_ino) ~mode

let do_close t ~fd =
  match find_fd t fd with
  | None -> err Errno.EBADF
  | Some e ->
    Hashtbl.remove t.fds fd;
    let node = get t e.fd_ino in
    maybe_free t node;
    ret 0

let do_chdir t ~target =
  match target with
  | Model.Path path ->
    (match resolve t path with
     | Error e -> err e
     | Ok ino ->
       let node = get t ino in
       if not (Node.is_dir node) then err Errno.ENOTDIR
       else if not (may_exec t node) then err Errno.EACCES
       else begin
         t.cwd <- ino;
         ret 0
       end)
  | Model.Fd fd ->
    (match find_fd t fd with
     | None -> err Errno.EBADF
     | Some e ->
       let node = get t e.fd_ino in
       if not (Node.is_dir node) then err Errno.ENOTDIR
       else if not (may_exec t node) then err Errno.EACCES
       else begin
         t.cwd <- e.fd_ino;
         ret 0
       end)

let xattr_overhead = 32  (* per-entry bookkeeping, as in ext4's entry header *)

let xattr_space_used (node : Node.t) =
  Hashtbl.fold
    (fun name (size, _) acc -> acc + String.length name + size + xattr_overhead)
    node.Node.xattrs 0

let resolve_xattr_target t target ~follow =
  match target with
  | Model.Path path ->
    let* ino = resolve ~follow_last:follow t path in
    Ok (get t ino)
  | Model.Fd fd ->
    (match find_fd t fd with
     | None -> Error Errno.EBADF
     | Some e -> Ok (get t e.fd_ino))

let do_setxattr t ~variant ~target ~name ~size ~flags =
  let follow = variant <> Model.Sys_lsetxattr in
  match resolve_xattr_target t target ~follow with
  | Error e -> err e
  | Ok node ->
    if String.length name > 255 then err Errno.ERANGE
    else if size < 0 then err Errno.EINVAL
    else if String.length name = 0 || not (String.contains name '.') then err Errno.EINVAL
    else begin
      let prefix = List.hd (String.split_on_char '.' name) in
      match prefix with
      | "system" -> err Errno.ENOTSUP
      | "trusted" when t.uid <> 0 -> err Errno.EPERM
      | "user" | "trusted" | "security" ->
        if t.read_only then err Errno.EROFS
        else if size > t.cfg.Config.max_xattr_value then err Errno.E2BIG
        else if not (may_write t node) then err Errno.EACCES
        else begin
          let exists = Hashtbl.mem node.Node.xattrs name in
          match flags with
          | Xattr_flag.XATTR_CREATE when exists -> err Errno.EEXIST
          | Xattr_flag.XATTR_REPLACE when not exists -> err Errno.ENODATA
          | _ ->
            let current = xattr_space_used node in
            let old_cost =
              match Hashtbl.find_opt node.Node.xattrs name with
              | Some (old_size, _) -> String.length name + old_size + xattr_overhead
              | None -> 0
            in
            let new_cost = String.length name + size + xattr_overhead in
            let fits = current - old_cost + new_cost <= t.cfg.Config.xattr_space in
            if fits then begin
              let fill = fill_byte t in
              Hashtbl.replace node.Node.xattrs name (size, fill);
              node.Node.ctime <- tick t;
              jot t (Journal.Xattr { ino = node.Node.ino; name; size; fill });
              ret 0
            end
            else if
              (* Figure 1's bug: at the maximum value size the free-space
                 check is miscomputed and the call wrongly succeeds,
                 recording a wrapped (corrupted) size. *)
              size = t.cfg.Config.max_xattr_value && fault_fires t Fault.Xattr_ibody_overflow
            then begin
              let fill = fill_byte t in
              Hashtbl.replace node.Node.xattrs name (size land 0xFFFF, fill);
              jot t
                (Journal.Xattr { ino = node.Node.ino; name; size = size land 0xFFFF; fill });
              ret 0
            end
            else err Errno.ENOSPC
        end
      | _ -> err Errno.ENOTSUP
    end

let do_getxattr t ~variant ~target ~name ~size =
  let follow = variant <> Model.Sys_lgetxattr in
  match resolve_xattr_target t target ~follow with
  | Error e -> err e
  | Ok node ->
    if String.length name > 255 then err Errno.ERANGE
    else begin
      match Hashtbl.find_opt node.Node.xattrs name with
      | None -> err Errno.ENODATA
      | Some (stored, _) ->
        if not (may_read t node) then err Errno.EACCES
        else if stored = 0 && fault_fires t Fault.Getxattr_empty_enodata then
          err Errno.ENODATA
        else if size = 0 then ret stored (* size query *)
        else if size < stored then err Errno.ERANGE
        else ret stored
    end

let exec t call =
  let base = Model.base_of_call call in
  match take_injected t base with
  | Some e -> err e
  | None ->
    ignore (tick t);
    (match call with
     | Model.Open_call { path; flags; mode; _ } -> do_open t ~path ~flags ~mode
     | Model.Read_call { fd; count; offset; _ } -> do_read t ~fd ~count ~offset
     | Model.Write_call { fd; count; offset; _ } -> do_write t ~fd ~count ~offset
     | Model.Lseek_call { fd; offset; whence } -> do_lseek t ~fd ~offset ~whence
     | Model.Truncate_call { target = Model.Path path; length; _ } ->
       do_truncate_path t ~path ~length
     | Model.Truncate_call { target = Model.Fd fd; length; _ } -> do_ftruncate t ~fd ~length
     | Model.Mkdir_call { path; mode; _ } -> do_mkdir t ~path ~mode
     | Model.Chmod_call { target = Model.Path path; mode; _ } -> do_chmod_path t ~path ~mode
     | Model.Chmod_call { target = Model.Fd fd; mode; _ } -> do_chmod_fd t ~fd ~mode
     | Model.Close_call { fd } -> do_close t ~fd
     | Model.Chdir_call { target } -> do_chdir t ~target
     | Model.Setxattr_call { variant; target; name; size; flags } ->
       do_setxattr t ~variant ~target ~name ~size ~flags
     | Model.Getxattr_call { variant; target; name; size } ->
       do_getxattr t ~variant ~target ~name ~size)

(* --- auxiliary operations --- *)

type aux =
  | Unlink of string
  | Rmdir of string
  | Rename of string * string
  | Symlink of string * string
  | Link of string * string
  | Fsync of int
  | Fdatasync of int
  | Sync
  | Crash

let aux_name = function
  | Unlink _ -> "unlink"
  | Rmdir _ -> "rmdir"
  | Rename _ -> "rename"
  | Symlink _ -> "symlink"
  | Link _ -> "link"
  | Fsync _ -> "fsync"
  | Fdatasync _ -> "fdatasync"
  | Sync -> "sync"
  | Crash -> "crash"

(* Sticky-directory deletion rule: in a sticky directory, only root, the
   file's owner, or the directory's owner may remove an entry. *)
let sticky_blocks t dir (node : Node.t) =
  dir.Node.mode land Mode.mask Mode.S_ISVTX <> 0
  && t.uid <> 0 && t.uid <> node.Node.uid && t.uid <> dir.Node.uid

let do_unlink t path =
  if t.read_only then Error Errno.EROFS
  else
    let* dir_ino, name = resolve_parent t path in
    match lookup_in t dir_ino name with
    | None -> Error Errno.ENOENT
    | Some ino ->
      let node = get t ino in
      let dir = get t dir_ino in
      if Node.is_dir node then Error Errno.EISDIR
      else if not (may_write t dir) then Error Errno.EACCES
      else if node.Node.immutable_ then Error Errno.EPERM
      else if sticky_blocks t dir node then Error Errno.EPERM
      else begin
        remove_entry t dir_ino name node;
        node.Node.nlink <- node.Node.nlink - 1;
        jot t (Journal.Unlink { dir = dir_ino; name; ino });
        maybe_free t node;
        Ok 0
      end

let do_rmdir t path =
  if t.read_only then Error Errno.EROFS
  else
    let* dir_ino, name = resolve_parent t path in
    if name = "." then Error Errno.EINVAL
    else
      match lookup_in t dir_ino name with
      | None -> Error Errno.ENOENT
      | Some ino ->
        let node = get t ino in
        let dir = get t dir_ino in
        if not (Node.is_dir node) then Error Errno.ENOTDIR
        else if ino = t.cwd then Error Errno.EBUSY
        else if
          Hashtbl.fold
            (fun n _ acc -> acc || (n <> "." && n <> ".."))
            (Node.dir_entries node) false
        then Error Errno.ENOTEMPTY
        else if not (may_write t dir) then Error Errno.EACCES
        else if sticky_blocks t dir node then Error Errno.EPERM
        else begin
          remove_entry t dir_ino name node;
          node.Node.nlink <- 0;
          jot t (Journal.Unlink { dir = dir_ino; name; ino });
          maybe_free t node;
          Ok 0
        end

let do_symlink t target linkpath =
  if t.read_only then Error Errno.EROFS
  else
    let* dir_ino, name = resolve_parent t linkpath in
    if lookup_in t dir_ino name <> None then Error Errno.EEXIST
    else begin
      let dir = get t dir_ino in
      if not (may_write t dir && may_exec t dir) then Error Errno.EACCES
      else
        let* () = charge t ~owner:t.uid 1 in
        let node = alloc_node t ~body:(Node.Symlink target) ~mode:0o777 in
        add_entry t dir_ino name node;
        jot t
          (Journal.Create
             { dir = dir_ino; name; ino = node.Node.ino;
               kind = Journal.K_symlink target; mode = 0o777; uid = t.uid; gid = t.gid });
        Ok 0
    end

let do_link t existing newpath =
  if t.read_only then Error Errno.EROFS
  else
    let* src_ino = resolve t existing in
    let src = get t src_ino in
    if Node.is_dir src then Error Errno.EPERM
    else
      let* dir_ino, name = resolve_parent t newpath in
      if lookup_in t dir_ino name <> None then Error Errno.EEXIST
      else begin
        let dir = get t dir_ino in
        if not (may_write t dir && may_exec t dir) then Error Errno.EACCES
        else if src.Node.nlink >= 65000 then Error Errno.EMLINK
        else begin
          Hashtbl.replace (Node.dir_entries dir) name src_ino;
          src.Node.nlink <- src.Node.nlink + 1;
          jot t (Journal.Link { dir = dir_ino; name; ino = src_ino });
          Ok 0
        end
      end

(* Is [ancestor] on the ".." chain of [ino] (inclusive)?  Guards rename
   from detaching a directory into its own subtree. *)
let is_ancestor t ~ancestor ino =
  let rec up ino =
    if ino = ancestor then true
    else if ino = t.root then false
    else
      match Hashtbl.find_opt (Node.dir_entries (get t ino)) ".." with
      | Some parent when parent <> ino -> up parent
      | _ -> false
  in
  up ino

let do_rename t oldpath newpath =
  if t.read_only then Error Errno.EROFS
  else
    let* old_dir, old_name = resolve_parent t oldpath in
    match lookup_in t old_dir old_name with
    | None -> Error Errno.ENOENT
    | Some src_ino ->
      let src = get t src_ino in
      let* new_dir, new_name = resolve_parent t newpath in
      if Node.is_dir src && is_ancestor t ~ancestor:src_ino new_dir then
        Error Errno.EINVAL
      else
      if not (may_write t (get t old_dir) && may_write t (get t new_dir)) then
        Error Errno.EACCES
      else begin
        match lookup_in t new_dir new_name with
        | Some dst_ino when dst_ino = src_ino -> Ok 0
        | Some dst_ino ->
          let dst = get t dst_ino in
          (match (Node.is_dir src, Node.is_dir dst) with
           | true, false -> Error Errno.ENOTDIR
           | false, true -> Error Errno.EISDIR
           | _, true
             when Hashtbl.fold
                    (fun n _ acc -> acc || (n <> "." && n <> ".."))
                    (Node.dir_entries dst) false ->
             Error Errno.ENOTEMPTY
           | _ ->
             remove_entry t new_dir new_name dst;
             dst.Node.nlink <- (if Node.is_dir dst then 0 else dst.Node.nlink - 1);
             maybe_free t dst;
             remove_entry t old_dir old_name src;
             add_entry t new_dir new_name src;
             jot t
               (Journal.Rename
                  { old_dir; old_name; new_dir; new_name; ino = src_ino;
                    replaced = Some dst_ino });
             Ok 0)
        | None ->
          remove_entry t old_dir old_name src;
          add_entry t new_dir new_name src;
          jot t
            (Journal.Rename
               { old_dir; old_name; new_dir; new_name; ino = src_ino; replaced = None });
          Ok 0
      end

let do_fsync t fd ~data_only =
  match find_fd t fd with
  | None -> Error Errno.EBADF
  | Some e ->
    persist_node t (get t e.fd_ino);
    jot t (Journal.Barrier { scope = Journal.Ino e.fd_ino; data_only });
    Ok 0

let exec_aux t aux =
  ignore (tick t);
  match aux with
  | Unlink path -> do_unlink t path
  | Rmdir path -> do_rmdir t path
  | Rename (o, n) -> do_rename t o n
  | Symlink (target, link) -> do_symlink t target link
  | Link (e, n) -> do_link t e n
  | Fsync fd -> do_fsync t fd ~data_only:false
  | Fdatasync fd -> do_fsync t fd ~data_only:true
  | Sync ->
    sync_all t;
    jot t (Journal.Barrier { scope = Journal.All; data_only = false });
    Ok 0
  | Crash ->
    crash_recover t;
    Ok 0

(* --- journal replay: materializing a crash image --- *)

(* Apply one persisted journal record to a (typically fresh) file
   system.  Records referencing inodes or directory entries that never
   became durable are dropped silently — that is precisely what a real
   recovery does with orphaned blocks and dangling dirents.  Charging is
   best-effort: a crash image reflects what reached the device, not what
   an allocator would have admitted. *)
let apply_record t (r : Journal.record) =
  ignore (tick t);
  match r with
  | Journal.Create { dir; name; ino; kind; mode; uid; gid } ->
    if not (Hashtbl.mem t.nodes ino) then begin
      let body =
        match kind with
        | Journal.K_reg -> Node.Reg { extents = [] }
        | Journal.K_dir -> Node.Dir (Hashtbl.create 8)
        | Journal.K_symlink target -> Node.Symlink target
      in
      let node = Node.create ~ino ~body ~mode ~uid ~gid ~now:(tick t) in
      Hashtbl.add t.nodes ino node;
      if ino >= t.next_ino then t.next_ino <- ino + 1;
      ignore (charge t ~owner:uid 1);
      match Hashtbl.find_opt t.nodes dir with
      | Some d when Node.is_dir d -> add_entry t dir name node
      | _ -> ()
    end
  | Journal.Link { dir; name; ino } ->
    (match (Hashtbl.find_opt t.nodes dir, Hashtbl.find_opt t.nodes ino) with
     | Some d, Some node when Node.is_dir d ->
       Hashtbl.replace (Node.dir_entries d) name ino;
       node.Node.nlink <- node.Node.nlink + 1
     | _ -> ())
  | Journal.Unlink { dir; name; ino } ->
    (match Hashtbl.find_opt t.nodes dir with
     | Some d when Node.is_dir d ->
       (match Hashtbl.find_opt (Node.dir_entries d) name with
        | Some cur when cur = ino ->
          let node = get t ino in
          remove_entry t dir name node;
          node.Node.nlink <- (if Node.is_dir node then 0 else node.Node.nlink - 1);
          maybe_free t node
        | _ -> ())
     | _ -> ())
  | Journal.Rename { old_dir; old_name; new_dir; new_name; ino; replaced } ->
    (match (replaced, Hashtbl.find_opt t.nodes new_dir) with
     | Some dst_ino, Some nd when Node.is_dir nd ->
       (match Hashtbl.find_opt (Node.dir_entries nd) new_name with
        | Some cur when cur = dst_ino ->
          let dst = get t dst_ino in
          remove_entry t new_dir new_name dst;
          dst.Node.nlink <- (if Node.is_dir dst then 0 else dst.Node.nlink - 1);
          maybe_free t dst
        | _ -> ())
     | _ -> ());
    (match Hashtbl.find_opt t.nodes old_dir with
     | Some od when Node.is_dir od ->
       (match Hashtbl.find_opt (Node.dir_entries od) old_name with
        | Some cur when cur = ino -> remove_entry t old_dir old_name (get t ino)
        | _ -> ())
     | _ -> ());
    (match (Hashtbl.find_opt t.nodes new_dir, Hashtbl.find_opt t.nodes ino) with
     | Some nd, Some node when Node.is_dir nd -> add_entry t new_dir new_name node
     | _ -> ())
  | Journal.Size { ino; size } ->
    (match Hashtbl.find_opt t.nodes ino with
     | Some node when Node.is_reg node ->
       ignore
         (charge t ~owner:node.Node.uid
            (blocks_of_size t size - blocks_of_size t node.Node.size));
       (match node.Node.body with
        | Node.Reg r -> r.extents <- Node.truncate_extents r.extents ~size
        | _ -> ());
       node.Node.size <- size
     | _ -> ())
  | Journal.Mode { ino; mode } ->
    (match Hashtbl.find_opt t.nodes ino with
     | Some node -> node.Node.mode <- mode
     | None -> ())
  | Journal.Xattr { ino; name; size; fill } ->
    (match Hashtbl.find_opt t.nodes ino with
     | Some node -> Hashtbl.replace node.Node.xattrs name (size, fill)
     | None -> ())
  | Journal.Alloc _ -> ()  (* accounting travels with Size *)
  | Journal.Data { ino; off; len; fill } ->
    (match Hashtbl.find_opt t.nodes ino with
     | Some { Node.body = Node.Reg r; _ } ->
       r.extents <- Node.write_extents r.extents ~off ~len ~fill
     | _ -> ())  (* orphaned blocks: the inode never became durable *)
  | Journal.Barrier _ -> ()

(* --- environment control --- *)

let set_credentials t ~uid ~gid =
  t.uid <- uid;
  t.gid <- gid

let credentials t = (t.uid, t.gid)
let set_read_only t ro = t.read_only <- ro
let is_read_only t = t.read_only
let set_system_file_load t n = t.system_file_load <- max 0 n

let mknod_special t path kind =
  let* dir_ino, name = resolve_parent t path in
  if lookup_in t dir_ino name <> None then Error Errno.EEXIST
  else
    let* () = charge t ~owner:t.uid 1 in
    let body =
      match kind with
      | `Fifo -> Node.Fifo
      | `Device driverless -> Node.Device { driverless }
    in
    let node = alloc_node t ~body ~mode:0o666 in
    add_entry t dir_ino name node;
    Ok ()

let with_node t path f =
  let* ino = resolve t path in
  Ok (f (get t ino))

let set_immutable t path v = with_node t path (fun n -> n.Node.immutable_ <- v)
let set_executing t path v = with_node t path (fun n -> n.Node.executing <- v)
let set_busy t path v = with_node t path (fun n -> n.Node.busy <- v)

(* --- inspection --- *)

type stat = {
  st_ino : int;
  st_kind : [ `Reg | `Dir | `Symlink | `Fifo | `Device ];
  st_mode : Mode.t;
  st_uid : int;
  st_gid : int;
  st_size : int;
  st_nlink : int;
}

let stat_of_node (n : Node.t) =
  {
    st_ino = n.ino;
    st_kind =
      (match n.body with
       | Node.Reg _ -> `Reg
       | Node.Dir _ -> `Dir
       | Node.Symlink _ -> `Symlink
       | Node.Fifo -> `Fifo
       | Node.Device _ -> `Device);
    st_mode = n.mode;
    st_uid = n.uid;
    st_gid = n.gid;
    st_size = n.size;
    st_nlink = n.nlink;
  }

let stat t path =
  let* ino = resolve t path in
  Ok (stat_of_node (get t ino))

let lstat t path =
  let* ino = resolve ~follow_last:false t path in
  Ok (stat_of_node (get t ino))

let exists t path = match resolve t path with Ok _ -> true | Error _ -> false

let list_dir t path =
  let* ino = resolve t path in
  let node = get t ino in
  match node.Node.body with
  | Node.Dir entries ->
    Ok
      (Hashtbl.fold (fun n _ acc -> if n = "." || n = ".." then acc else n :: acc) entries []
       |> List.sort String.compare)
  | _ -> Error Errno.ENOTDIR

let checksum t path =
  let* ino = resolve t path in
  let node = get t ino in
  if Node.is_reg node then Ok (Node.content_checksum node) else Error Errno.EINVAL

let read_byte t path off =
  let* ino = resolve t path in
  let node = get t ino in
  match node.Node.body with
  | Node.Reg r ->
    if off < 0 || off >= node.Node.size then Error Errno.EINVAL
    else Ok (Node.byte_at r.extents off)
  | _ -> Error Errno.EINVAL

let fd_path t fd =
  match find_fd t fd with
  | Some e -> e.fd_pathname
  | None -> None

let open_fd_count t = Hashtbl.length t.fds
let free_blocks t = t.cfg.Config.total_blocks - t.used
let used_blocks t = t.used

let xattr_names t path =
  let* ino = resolve t path in
  let node = get t ino in
  Ok (Hashtbl.fold (fun n _ acc -> n :: acc) node.Node.xattrs [] |> List.sort String.compare)

let xattr_size t path name =
  let* ino = resolve t path in
  let node = get t ino in
  match Hashtbl.find_opt node.Node.xattrs name with
  | Some (size, _) -> Ok size
  | None -> Error Errno.ENODATA
