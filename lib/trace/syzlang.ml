open Iocov_syscall

type program = {
  calls : Model.call list;
  skipped : (int * string) list;
}

(* --- decoded argument values --- *)

type value =
  | Int of int
  | Reg of string
  | Str of string       (* a NUL-terminated string payload *)
  | Data of int         (* a buffer, by length *)
  | Struct of value list
  | Array of value list
  | Nil

let ( let* ) = Result.bind

(* Split a comma-separated argument list at depth 0 (commas inside
   (), [], {}, '...' and "..." do not split). *)
let split_args s =
  let parts = ref [] in
  let buf = Buffer.create 32 in
  let depth = ref 0 in
  let quote = ref None in
  let escaped = ref false in
  String.iter
    (fun c ->
      match !quote with
      | Some q ->
        Buffer.add_char buf c;
        if !escaped then escaped := false
        else if c = '\\' then escaped := true
        else if c = q then quote := None
      | None ->
        (match c with
         | '\'' | '"' ->
           quote := Some c;
           Buffer.add_char buf c
         | '(' | '[' | '{' ->
           incr depth;
           Buffer.add_char buf c
         | ')' | ']' | '}' ->
           decr depth;
           Buffer.add_char buf c
         | ',' when !depth = 0 ->
           parts := Buffer.contents buf :: !parts;
           Buffer.clear buf
         | c -> Buffer.add_char buf c))
    s;
  if Buffer.length buf > 0 || !parts <> [] then parts := Buffer.contents buf :: !parts;
  List.rev_map String.trim !parts

let is_digit c = c >= '0' && c <= '9'

(* syzlang integers are hex (0x...) or decimal; 64-bit constants like
   0xffffffffffffff9c (AT_FDCWD) must wrap to their signed value. *)
let parse_int s =
  match Int64.of_string_opt s with
  | Some v -> Ok (Int64.to_int v)
  | None -> Error (Printf.sprintf "bad integer %S" s)

(* Decode a single-quoted syz string: './file0\x00' *)
let parse_quoted_string s =
  if String.length s < 2 || s.[0] <> '\'' || s.[String.length s - 1] <> '\'' then
    Error (Printf.sprintf "bad string %S" s)
  else begin
    let body = String.sub s 1 (String.length s - 2) in
    let buf = Buffer.create (String.length body) in
    let i = ref 0 in
    let ok = ref true in
    while !i < String.length body do
      let c = body.[!i] in
      if c = '\\' && !i + 3 < String.length body && body.[!i + 1] = 'x' then begin
        (match int_of_string_opt ("0x" ^ String.sub body (!i + 2) 2) with
         | Some code -> if code <> 0 then Buffer.add_char buf (Char.chr code)
         | None -> ok := false);
        i := !i + 4
      end
      else begin
        Buffer.add_char buf c;
        incr i
      end
    done;
    if !ok then Ok (Buffer.contents buf) else Error (Printf.sprintf "bad escape in %S" s)
  end

let rec parse_value s : (value, string) result =
  let s = String.trim s in
  if s = "" || s = "nil" then Ok Nil
  else if String.length s >= 2 && s.[0] = 'r' && String.for_all is_digit (String.sub s 1 (String.length s - 1))
  then Ok (Reg s)
  else if s.[0] = '&' then parse_pointer s
  else if s.[0] = '\'' then
    let* str = parse_quoted_string s in
    Ok (Str str)
  else if s.[0] = '"' then parse_blob s
  else if s.[0] = '{' then
    let* fields = parse_list (String.sub s 1 (String.length s - 2)) in
    Ok (Struct fields)
  else if s.[0] = '[' then
    let* elements = parse_list (String.sub s 1 (String.length s - 2)) in
    Ok (Array elements)
  else
    let* n = parse_int s in
    Ok (Int n)

and parse_list body =
  let parts = List.filter (fun p -> p <> "") (split_args body) in
  List.fold_left
    (fun acc part ->
      let* acc = acc in
      let* v = parse_value part in
      Ok (v :: acc))
    (Ok []) parts
  |> Result.map List.rev

(* "deadbeef" -> Data 4;  ""/100 -> Data 100;  ""/0x64 -> Data 100 *)
and parse_blob s =
  match String.index_from_opt s 1 '"' with
  | None -> Error (Printf.sprintf "unterminated blob %S" s)
  | Some close ->
    let hex = String.sub s 1 (close - 1) in
    let rest = String.sub s (close + 1) (String.length s - close - 1) in
    if rest = "" then Ok (Data (String.length hex / 2))
    else if String.length rest > 1 && rest.[0] = '/' then
      let* n = parse_int (String.sub rest 1 (String.length rest - 1)) in
      Ok (Data n)
    else Error (Printf.sprintf "bad blob suffix %S" s)

(* "&(0x7f0000000000)=payload" or "&(0x7f0000000000/0x18)=payload"; a bare
   pointer with no payload is an output buffer of unknown length. *)
and parse_pointer s =
  if String.length s < 2 || s.[1] <> '(' then Error (Printf.sprintf "bad pointer %S" s)
  else begin
    match String.index_opt s ')' with
    | None -> Error (Printf.sprintf "bad pointer %S" s)
    | Some close ->
      if close + 1 >= String.length s then Ok (Data 0)
      else if s.[close + 1] <> '=' then Error (Printf.sprintf "bad pointer %S" s)
      else parse_value (String.sub s (close + 2) (String.length s - close - 2))
  end

(* --- argument interpretation --- *)

let as_int what = function
  | Int n -> Ok n
  | Data n -> Ok n
  | v ->
    Error
      (Printf.sprintf "%s: expected an integer, got %s" what
         (match v with
          | Reg r -> r
          | Str _ -> "a string"
          | Struct _ -> "a struct"
          | Array _ -> "an array"
          | Nil -> "nil"
          | Int _ | Data _ -> assert false))

let as_fd registers what = function
  | Reg r ->
    (match Hashtbl.find_opt registers r with
     | Some fd -> Ok fd
     | None -> Ok (-1) (* unbound register: a dead descriptor *))
  | Int n -> Ok n
  | _ -> Error (Printf.sprintf "%s: expected a descriptor" what)

let as_path what = function
  | Str s -> Ok s
  | Nil -> Ok ""
  | _ -> Error (Printf.sprintf "%s: expected a pathname" what)

(* total byte length of an iovec array: sum of each struct's final int *)
let iovec_length what v =
  match v with
  | Array elements ->
    List.fold_left
      (fun acc element ->
        let* acc = acc in
        match element with
        | Struct fields ->
          (match List.rev fields with
           | Int len :: _ -> Ok (acc + len)
           | _ -> Error (Printf.sprintf "%s: iovec entry without a length" what))
        | _ -> Error (Printf.sprintf "%s: iovec entry is not a struct" what))
      (Ok 0) elements
  | _ -> Error (Printf.sprintf "%s: expected an iovec array" what)

let as_whence what v =
  let* code = as_int what v in
  match Whence.of_code code with
  | Some w -> Ok w
  | None -> Error (Printf.sprintf "%s: unknown whence %d" what code)

let as_xattr_flags what v =
  let* code = as_int what v in
  match Xattr_flag.of_code code with
  | Some f -> Ok f
  | None -> Error (Printf.sprintf "%s: unknown xattr flags %d" what code)

(* --- per-syscall builders --- *)

let arity what expected args =
  if List.length args = expected then Ok ()
  else
    Error
      (Printf.sprintf "%s: expected %d arguments, got %d" what expected (List.length args))

let build registers name args : (Model.call option, string) result =
  let fd = as_fd registers in
  match name with
  | "open" ->
    let* () = arity name 3 args in
    (match args with
     | [ p; f; m ] ->
       let* path = as_path name p in
       let* flags = as_int name f in
       let* mode = as_int name m in
       Ok (Some (Model.open_ ~flags ~mode path))
     | _ -> assert false)
  | "openat" ->
    let* () = arity name 4 args in
    (match args with
     | [ _dirfd; p; f; m ] ->
       let* path = as_path name p in
       let* flags = as_int name f in
       let* mode = as_int name m in
       Ok (Some (Model.open_ ~variant:Model.Sys_openat ~flags ~mode path))
     | _ -> assert false)
  | "creat" ->
    let* () = arity name 2 args in
    (match args with
     | [ p; m ] ->
       let* path = as_path name p in
       let* mode = as_int name m in
       Ok (Some (Model.open_ ~variant:Model.Sys_creat ~flags:0 ~mode path))
     | _ -> assert false)
  | "openat2" ->
    (* openat2(dirfd, path, &open_how{flags, mode, resolve}, size) *)
    let* () = arity name 4 args in
    (match args with
     | [ _dirfd; p; how; _size ] ->
       let* path = as_path name p in
       let* flags, mode =
         match how with
         | Struct (f :: m :: _) ->
           let* flags = as_int name f in
           let* mode = as_int name m in
           Ok (flags, mode)
         | Struct [ f ] ->
           let* flags = as_int name f in
           Ok (flags, 0)
         | _ -> Error "openat2: expected an open_how struct"
       in
       Ok (Some (Model.open_ ~variant:Model.Sys_openat2 ~flags ~mode path))
     | _ -> assert false)
  | "read" | "write" ->
    let* () = arity name 3 args in
    (match args with
     | [ f; _buf; c ] ->
       let* fd = fd name f in
       let* count = as_int name c in
       if name = "read" then Ok (Some (Model.read ~fd ~count ()))
       else Ok (Some (Model.write ~fd ~count ()))
     | _ -> assert false)
  | "pread64" | "pwrite64" ->
    let* () = arity name 4 args in
    (match args with
     | [ f; _buf; c; off ] ->
       let* fd = fd name f in
       let* count = as_int name c in
       let* offset = as_int name off in
       if name = "pread64" then
         Ok (Some (Model.read ~variant:Model.Sys_pread64 ~offset ~fd ~count ()))
       else Ok (Some (Model.write ~variant:Model.Sys_pwrite64 ~offset ~fd ~count ()))
     | _ -> assert false)
  | "readv" | "writev" ->
    let* () = arity name 3 args in
    (match args with
     | [ f; vec; _vlen ] ->
       let* fd = fd name f in
       let* count = iovec_length name vec in
       if name = "readv" then Ok (Some (Model.read ~variant:Model.Sys_readv ~fd ~count ()))
       else Ok (Some (Model.write ~variant:Model.Sys_writev ~fd ~count ()))
     | _ -> assert false)
  | "lseek" ->
    let* () = arity name 3 args in
    (match args with
     | [ f; off; w ] ->
       let* fd = fd name f in
       let* offset = as_int name off in
       let* whence = as_whence name w in
       Ok (Some (Model.lseek ~fd ~offset ~whence))
     | _ -> assert false)
  | "truncate" ->
    let* () = arity name 2 args in
    (match args with
     | [ p; len ] ->
       let* path = as_path name p in
       let* length = as_int name len in
       Ok (Some (Model.truncate ~target:(Model.Path path) ~length ()))
     | _ -> assert false)
  | "ftruncate" ->
    let* () = arity name 2 args in
    (match args with
     | [ f; len ] ->
       let* fd = fd name f in
       let* length = as_int name len in
       Ok (Some (Model.truncate ~target:(Model.Fd fd) ~length ()))
     | _ -> assert false)
  | "mkdir" | "mkdirat" ->
    (match (name, args) with
     | "mkdir", [ p; m ] ->
       let* path = as_path name p in
       let* mode = as_int name m in
       Ok (Some (Model.mkdir ~mode path))
     | "mkdirat", [ _dirfd; p; m ] ->
       let* path = as_path name p in
       let* mode = as_int name m in
       Ok (Some (Model.mkdir ~variant:Model.Sys_mkdirat ~mode path))
     | _ -> Error (name ^ ": bad arity"))
  | "chmod" ->
    let* () = arity name 2 args in
    (match args with
     | [ p; m ] ->
       let* path = as_path name p in
       let* mode = as_int name m in
       Ok (Some (Model.chmod ~target:(Model.Path path) ~mode ()))
     | _ -> assert false)
  | "fchmod" ->
    let* () = arity name 2 args in
    (match args with
     | [ f; m ] ->
       let* fd = fd name f in
       let* mode = as_int name m in
       Ok (Some (Model.chmod ~variant:Model.Sys_fchmod ~target:(Model.Fd fd) ~mode ()))
     | _ -> assert false)
  | "fchmodat" ->
    let* () = arity name 3 args in
    (match args with
     | [ _dirfd; p; m ] ->
       let* path = as_path name p in
       let* mode = as_int name m in
       Ok (Some (Model.chmod ~variant:Model.Sys_fchmodat ~target:(Model.Path path) ~mode ()))
     | _ -> assert false)
  | "close" ->
    let* () = arity name 1 args in
    (match args with
     | [ f ] ->
       let* fd = fd name f in
       Ok (Some (Model.close fd))
     | _ -> assert false)
  | "chdir" ->
    let* () = arity name 1 args in
    (match args with
     | [ p ] ->
       let* path = as_path name p in
       Ok (Some (Model.chdir (Model.Path path)))
     | _ -> assert false)
  | "fchdir" ->
    let* () = arity name 1 args in
    (match args with
     | [ f ] ->
       let* fd = fd name f in
       Ok (Some (Model.chdir (Model.Fd fd)))
     | _ -> assert false)
  | "setxattr" | "lsetxattr" ->
    let* () = arity name 5 args in
    (match args with
     | [ p; nm; _value; sz; fl ] ->
       let* path = as_path name p in
       let* attr = as_path name nm in
       let* size = as_int name sz in
       let* flags = as_xattr_flags name fl in
       let variant = if name = "setxattr" then Model.Sys_setxattr else Model.Sys_lsetxattr in
       Ok (Some (Model.setxattr ~variant ~flags ~target:(Model.Path path) ~name:attr ~size ()))
     | _ -> assert false)
  | "fsetxattr" ->
    let* () = arity name 5 args in
    (match args with
     | [ f; nm; _value; sz; fl ] ->
       let* fd = fd name f in
       let* attr = as_path name nm in
       let* size = as_int name sz in
       let* flags = as_xattr_flags name fl in
       Ok (Some (Model.setxattr ~flags ~target:(Model.Fd fd) ~name:attr ~size ()))
     | _ -> assert false)
  | "getxattr" | "lgetxattr" ->
    let* () = arity name 4 args in
    (match args with
     | [ p; nm; _value; sz ] ->
       let* path = as_path name p in
       let* attr = as_path name nm in
       let* size = as_int name sz in
       let variant = if name = "getxattr" then Model.Sys_getxattr else Model.Sys_lgetxattr in
       Ok (Some (Model.getxattr ~variant ~target:(Model.Path path) ~name:attr ~size ()))
     | _ -> assert false)
  | "fgetxattr" ->
    let* () = arity name 4 args in
    (match args with
     | [ f; nm; _value; sz ] ->
       let* fd = fd name f in
       let* attr = as_path name nm in
       let* size = as_int name sz in
       Ok (Some (Model.getxattr ~target:(Model.Fd fd) ~name:attr ~size ()))
     | _ -> assert false)
  | _ -> Ok None (* not a modeled file-system syscall *)

(* --- lines and programs --- *)

let next_synthetic_fd = ref 100

let parse_line ~registers line =
  let line = String.trim line in
  if line = "" || line.[0] = '#' then Ok None
  else begin
    (* optional binding: "rN = call(...)" *)
    let binding, rest =
      match String.index_opt line '=' with
      | Some eq
        when eq > 1
             && line.[0] = 'r'
             && String.for_all is_digit (String.trim (String.sub line 1 (eq - 1))) ->
        ( Some ("r" ^ String.trim (String.sub line 1 (eq - 1))),
          String.trim (String.sub line (eq + 1) (String.length line - eq - 1)) )
      | _ -> (None, line)
    in
    match String.index_opt rest '(' with
    | None -> Error (Printf.sprintf "malformed call %S" rest)
    | Some lparen ->
      if rest.[String.length rest - 1] <> ')' then
        Error (Printf.sprintf "malformed call %S" rest)
      else begin
        let name = String.trim (String.sub rest 0 lparen) in
        let body = String.sub rest (lparen + 1) (String.length rest - lparen - 2) in
        (* any binding names a kernel object; bind it even for calls we
           skip so later descriptor uses resolve *)
        let bind () =
          match binding with
          | Some r ->
            incr next_synthetic_fd;
            Hashtbl.replace registers r !next_synthetic_fd
          | None -> ()
        in
        let* args =
          List.fold_left
            (fun acc part ->
              let* acc = acc in
              let* v = parse_value part in
              Ok (v :: acc))
            (Ok [])
            (if String.trim body = "" then [] else split_args body)
          |> Result.map List.rev
        in
        let* call = build registers name args in
        bind ();
        Ok call
      end
  end

let parse_program text =
  let registers = Hashtbl.create 16 in
  let lines = String.split_on_char '\n' text in
  let rec go lineno calls skipped = function
    | [] -> Ok { calls = List.rev calls; skipped = List.rev skipped }
    | line :: rest ->
      let trimmed = String.trim line in
      if trimmed = "" || trimmed.[0] = '#' then go (lineno + 1) calls skipped rest
      else begin
        match parse_line ~registers trimmed with
        | Ok (Some call) -> go (lineno + 1) (call :: calls) skipped rest
        | Ok None ->
          let name =
            match String.index_opt trimmed '(' with
            | Some i ->
              let prefix = String.sub trimmed 0 i in
              (match String.rindex_opt prefix '=' with
               | Some eq -> String.trim (String.sub prefix (eq + 1) (i - eq - 1))
               | None -> String.trim prefix)
            | None -> trimmed
          in
          go (lineno + 1) calls ((lineno, "unsupported syscall " ^ name) :: skipped) rest
        | Error msg -> Error (Printf.sprintf "line %d: %s" lineno msg)
      end
  in
  go 1 [] [] lines
