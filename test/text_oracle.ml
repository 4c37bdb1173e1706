(* The [Scanf] text-record parser: the differential oracle for
   [Format_io.of_line].  It splits a line into prefix, payload and
   outcome with [Scanf], then reads the call's "k=v" fields as an
   association list, so it is written nothing like the single-pass
   scanner in lib/.

   It reads a superset of the canonical grammar (reordered and duplicate
   fields, liberal spaces, [_]/[0x]/[+] integers, OCaml's other string
   escapes), and on canonical lines it agrees with the scanner except
   for one known difference: it splits payload from outcome at the
   {e last} " -> ", so it refuses a hint that contains " -> ". *)

open Iocov_syscall
module Event = Iocov_trace.Event

let ( let* ) = Result.bind

(* --- numbers and calls --- *)

let of_octal_string s =
  let body =
    if String.length s > 2 && String.sub s 0 2 = "0o" then Some (String.sub s 2 (String.length s - 2))
    else None
  in
  match body with
  | None -> None
  | Some digits ->
    (try Some (int_of_string ("0o" ^ digits)) with Failure _ -> None)

(* Split "k=v, k=v" at top level (commas inside quoted strings do not
   split). *)
let split_fields s =
  let fields = ref [] in
  let buf = Buffer.create 32 in
  let in_quote = ref false in
  let escaped = ref false in
  String.iter
    (fun c ->
      if !escaped then begin
        Buffer.add_char buf c;
        escaped := false
      end
      else
        match c with
        | '\\' when !in_quote ->
          Buffer.add_char buf c;
          escaped := true
        | '"' ->
          Buffer.add_char buf c;
          in_quote := not !in_quote
        | ',' when not !in_quote ->
          fields := Buffer.contents buf :: !fields;
          Buffer.clear buf
        | c -> Buffer.add_char buf c)
    s;
  if Buffer.length buf > 0 then fields := Buffer.contents buf :: !fields;
  List.rev_map String.trim !fields

let parse_field s =
  match String.index_opt s '=' with
  | None -> Error (Printf.sprintf "malformed field %S" s)
  | Some i ->
    Ok (String.sub s 0 i, String.sub s (i + 1) (String.length s - i - 1))

let unquote s =
  try Ok (Scanf.sscanf s "%S%!" (fun x -> x))
  with Scanf.Scan_failure _ | Failure _ | End_of_file ->
    Error (Printf.sprintf "malformed string %s" s)

let parse_int_field s =
  match int_of_string_opt s with
  | Some n -> Ok n
  | None -> Error (Printf.sprintf "malformed integer %S" s)

let field fields key =
  match List.assoc_opt key fields with
  | Some v -> Ok v
  | None -> Error (Printf.sprintf "missing field %S" key)

let opt_field fields key = List.assoc_opt key fields

let target_of_fields fields =
  match (opt_field fields "path", opt_field fields "fd") with
  | Some p, None ->
    let* p = unquote p in
    Ok (Model.Path p)
  | None, Some fd ->
    let* fd = parse_int_field fd in
    Ok (Model.Fd fd)
  | _ -> Error "expected exactly one of path/fd"

let call_of_string line =
  let line = String.trim line in
  match String.index_opt line '(' with
  | None -> Error "missing '('"
  | Some lparen ->
    if String.length line = 0 || line.[String.length line - 1] <> ')' then
      Error "missing ')'"
    else begin
      let name = String.sub line 0 lparen in
      let body = String.sub line (lparen + 1) (String.length line - lparen - 2) in
      match Model.variant_of_name name with
      | None -> Error (Printf.sprintf "unknown syscall %S" name)
      | Some variant ->
        let* fields =
          List.fold_left
            (fun acc f ->
              let* acc = acc in
              let* kv = parse_field f in
              Ok (kv :: acc))
            (Ok []) (split_fields body)
        in
        let fields = List.rev fields in
        (try
           match Model.base_of_variant variant with
           | Model.Open ->
             let* path = Result.bind (field fields "path") unquote in
             let* flags_s = field fields "flags" in
             let* flags =
               match Open_flags.of_string flags_s with
               | Some f -> Ok f
               | None -> Error (Printf.sprintf "bad flags %S" flags_s)
             in
             let* mode_s = field fields "mode" in
             let* mode =
               match of_octal_string mode_s with
               | Some m -> Ok m
               | None -> Error (Printf.sprintf "bad mode %S" mode_s)
             in
             Ok (Model.Open_call { variant; path; flags; mode })
           | Model.Read | Write ->
             let* fd = Result.bind (field fields "fd") parse_int_field in
             let* count = Result.bind (field fields "count") parse_int_field in
             let* offset =
               match opt_field fields "offset" with
               | None -> Ok None
               | Some o ->
                 let* o = parse_int_field o in
                 Ok (Some o)
             in
             if Model.base_of_variant variant = Model.Read then
               Ok (Model.read ~variant ?offset ~fd ~count ())
             else Ok (Model.write ~variant ?offset ~fd ~count ())
           | Model.Lseek ->
             let* fd = Result.bind (field fields "fd") parse_int_field in
             let* offset = Result.bind (field fields "offset") parse_int_field in
             let* whence_s = field fields "whence" in
             let* whence =
               match Whence.of_string whence_s with
               | Some w -> Ok w
               | None -> Error (Printf.sprintf "bad whence %S" whence_s)
             in
             Ok (Model.lseek ~fd ~offset ~whence)
           | Model.Truncate ->
             let* target = target_of_fields fields in
             let* length = Result.bind (field fields "length") parse_int_field in
             Ok (Model.truncate ~variant ~target ~length ())
           | Model.Mkdir ->
             let* path = Result.bind (field fields "path") unquote in
             let* mode_s = field fields "mode" in
             let* mode =
               match of_octal_string mode_s with
               | Some m -> Ok m
               | None -> Error (Printf.sprintf "bad mode %S" mode_s)
             in
             Ok (Model.Mkdir_call { variant; path; mode })
           | Model.Chmod ->
             let* target = target_of_fields fields in
             let* mode_s = field fields "mode" in
             let* mode =
               match of_octal_string mode_s with
               | Some m -> Ok m
               | None -> Error (Printf.sprintf "bad mode %S" mode_s)
             in
             Ok (Model.chmod ~variant ~target ~mode ())
           | Model.Close ->
             let* fd = Result.bind (field fields "fd") parse_int_field in
             Ok (Model.close fd)
           | Model.Chdir ->
             let* target = target_of_fields fields in
             Ok (Model.chdir target)
           | Model.Setxattr ->
             let* target = target_of_fields fields in
             let* name = Result.bind (field fields "name") unquote in
             let* size = Result.bind (field fields "size") parse_int_field in
             let* xflags_s = field fields "xflags" in
             let* flags =
               match Xattr_flag.of_string xflags_s with
               | Some f -> Ok f
               | None -> Error (Printf.sprintf "bad xattr flags %S" xflags_s)
             in
             Ok (Model.setxattr ~variant ~flags ~target ~name ~size ())
           | Model.Getxattr ->
             let* target = target_of_fields fields in
             let* name = Result.bind (field fields "name") unquote in
             let* size = Result.bind (field fields "size") parse_int_field in
             Ok (Model.getxattr ~variant ~target ~name ~size ())
         with Invalid_argument msg -> Error msg)
    end

let outcome_of_string s =
  match String.index_opt s ':' with
  | None -> Error (Printf.sprintf "malformed outcome %S" s)
  | Some i ->
    let tag = String.sub s 0 i in
    let rest = String.sub s (i + 1) (String.length s - i - 1) in
    (match tag with
     | "ok" ->
       (match int_of_string_opt rest with
        | Some n -> Ok (Model.Ret n)
        | None -> Error (Printf.sprintf "malformed return value %S" rest))
     | "err" ->
       (match Errno.of_string rest with
        | Some e -> Ok (Model.Err e)
        | None -> Error (Printf.sprintf "unknown errno %S" rest))
     | _ -> Error (Printf.sprintf "malformed outcome %S" s))

(* --- whole records --- *)

(* Parse the fixed prefix "[ts] pid=N comm=S " and return the rest. *)
let parse_prefix line =
  try
    Scanf.sscanf line "[%d] pid=%d comm=%S %n" (fun ts pid comm n ->
        Ok (ts, pid, comm, String.sub line n (String.length line - n)))
  with Scanf.Scan_failure msg | Failure msg -> Error ("bad record prefix: " ^ msg)
     | End_of_file -> Error "truncated record"

(* The payload part ends at the last " -> "; everything after is the
   outcome and optional hint. *)
let split_arrow s =
  let marker = " -> " in
  let rec find_last from acc =
    match String.index_from_opt s from '-' with
    | None -> acc
    | Some i ->
      if
        i >= 1 && i + 2 < String.length s
        && String.sub s (i - 1) (String.length marker) = marker
      then find_last (i + 1) (Some (i - 1))
      else find_last (i + 1) acc
  in
  match find_last 0 None with
  | None -> Error "missing \" -> \" separator"
  | Some i ->
    Ok
      ( String.sub s 0 i,
        String.sub s (i + String.length marker) (String.length s - i - String.length marker)
      )

let parse_outcome_and_hint s =
  let s = String.trim s in
  match String.index_opt s ' ' with
  | None ->
    let* outcome = outcome_of_string s in
    Ok (outcome, None)
  | Some i ->
    let outcome_s = String.sub s 0 i in
    let rest = String.trim (String.sub s i (String.length s - i)) in
    let* outcome = outcome_of_string outcome_s in
    if String.length rest >= 6 && String.sub rest 0 5 = "hint=" then begin
      let quoted = String.sub rest 5 (String.length rest - 5) in
      try Ok (outcome, Some (Scanf.sscanf quoted "%S%!" (fun x -> x)))
      with Scanf.Scan_failure _ | Failure _ | End_of_file -> Error "malformed hint"
    end
    else Error (Printf.sprintf "unexpected trailing %S" rest)

let parse_payload s =
  let s = String.trim s in
  if String.length s > 0 && s.[0] = '!' then begin
    let body = String.sub s 1 (String.length s - 1) in
    match String.index_opt body '(' with
    | None -> Error "malformed aux record"
    | Some i ->
      if body.[String.length body - 1] <> ')' then Error "malformed aux record"
      else
        Ok
          (Event.Aux
             {
               name = String.sub body 0 i;
               detail = String.sub body (i + 1) (String.length body - i - 2);
             })
  end
  else
    let* call = call_of_string s in
    Ok (Event.Tracked call)

let of_line ?(seq = 0) line =
  let* ts, pid, comm, rest = parse_prefix line in
  let* payload_s, outcome_s = split_arrow rest in
  let* payload = parse_payload payload_s in
  let* outcome, path_hint = parse_outcome_and_hint outcome_s in
  Ok { Event.seq; timestamp_ns = ts; pid; comm; payload; outcome; path_hint }
