open Iocov_syscall

let to_line (e : Event.t) =
  let call_part =
    match e.payload with
    | Event.Tracked call -> Model.call_to_string call
    | Event.Aux { name; detail } -> Printf.sprintf "!%s(%s)" name detail
  in
  let hint_part =
    match e.path_hint with
    | Some h -> Printf.sprintf " hint=%S" h
    | None -> ""
  in
  Printf.sprintf "[%d] pid=%d comm=%S %s -> %s%s" e.timestamp_ns e.pid e.comm call_part
    (Model.outcome_to_string e.outcome)
    hint_part

let ( let* ) = Result.bind

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
    let* outcome = Model.outcome_of_string s in
    Ok (outcome, None)
  | Some i ->
    let outcome_s = String.sub s 0 i in
    let rest = String.trim (String.sub s i (String.length s - i)) in
    let* outcome = Model.outcome_of_string outcome_s in
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
    let* call = Model.call_of_string s in
    Ok (Event.Tracked call)

let of_line_reference ?(seq = 0) line =
  let* ts, pid, comm, rest = parse_prefix line in
  let* payload_s, outcome_s = split_arrow rest in
  let* payload = parse_payload payload_s in
  let* outcome, path_hint = parse_outcome_and_hint outcome_s in
  Ok { Event.seq; timestamp_ns = ts; pid; comm; payload; outcome; path_hint }

(* --- the fast scanner ---

   [to_line] emits one fixed shape per record; the scanner above this
   comment block parses exactly that shape in a single left-to-right
   pass — no [Scanf], no regex, no intermediate field list.  Anything
   that deviates from the canonical emission (reordered fields, extra
   whitespace, exotic escapes) raises [Bail] and the line is re-parsed
   by the reference pipeline, which also produces the error messages.
   The one soundness subtlety: the reference splits payload from
   outcome at the {e last} [" -> "], so a hint whose text contains
   [" -> "] parses differently (the reference rejects it).  The scanner
   bails on such hints to keep [of_line] extensionally equal to
   [of_line_reference]. *)

exception Bail

type cursor = { cs : string; mutable cp : int }

let bail () = raise Bail

let peek c = if c.cp < String.length c.cs then String.unsafe_get c.cs c.cp else '\000'

let chr c ch =
  if c.cp < String.length c.cs && String.unsafe_get c.cs c.cp = ch then c.cp <- c.cp + 1
  else bail ()

let lit c l =
  let n = String.length l in
  if c.cp + n > String.length c.cs then bail ();
  for i = 0 to n - 1 do
    if String.unsafe_get c.cs (c.cp + i) <> String.unsafe_get l i then bail ()
  done;
  c.cp <- c.cp + n

(* Decimal integer, at most 18 digits so the accumulator cannot wrap
   (the reference's [int_of_string] would range-check; canonical lines
   never get near either limit). *)
let int_ c =
  let len = String.length c.cs in
  let neg = c.cp < len && String.unsafe_get c.cs c.cp = '-' in
  if neg then c.cp <- c.cp + 1;
  let start = c.cp in
  let v = ref 0 in
  while
    c.cp < len
    &&
    let d = String.unsafe_get c.cs c.cp in
    d >= '0' && d <= '9'
  do
    v := (!v * 10) + (Char.code (String.unsafe_get c.cs c.cp) - 48);
    c.cp <- c.cp + 1
  done;
  if c.cp = start || c.cp - start > 18 then bail ();
  if neg then - !v else !v

let octal c =
  lit c "0o";
  let len = String.length c.cs in
  let start = c.cp in
  let v = ref 0 in
  while
    c.cp < len
    &&
    let d = String.unsafe_get c.cs c.cp in
    d >= '0' && d <= '7'
  do
    v := (!v * 8) + (Char.code (String.unsafe_get c.cs c.cp) - 48);
    c.cp <- c.cp + 1
  done;
  if c.cp = start || c.cp - start > 20 then bail ();
  !v

(* An OCaml [%S] literal.  The common case — no escapes — is a bare
   substring copy; escaped strings decode through a buffer.  Only the
   escapes [%S] actually emits are handled (backslash, quote, n/t/r/b,
   and \ddd); anything else bails. *)
let quoted c =
  chr c '"';
  let s = c.cs in
  let len = String.length s in
  let start = c.cp in
  let i = ref c.cp in
  while !i < len && String.unsafe_get s !i <> '"' && String.unsafe_get s !i <> '\\' do
    incr i
  done;
  if !i >= len then bail ();
  if String.unsafe_get s !i = '"' then begin
    c.cp <- !i + 1;
    String.sub s start (!i - start)
  end
  else begin
    let buf = Buffer.create (len - start) in
    Buffer.add_substring buf s start (!i - start);
    let j = ref !i in
    let fin = ref (-1) in
    while !fin < 0 do
      if !j >= len then bail ();
      match String.unsafe_get s !j with
      | '"' -> fin := !j
      | '\\' ->
        if !j + 1 >= len then bail ();
        incr j;
        (match String.unsafe_get s !j with
         | '\\' ->
           Buffer.add_char buf '\\';
           incr j
         | '"' ->
           Buffer.add_char buf '"';
           incr j
         | '\'' ->
           Buffer.add_char buf '\'';
           incr j
         | 'n' ->
           Buffer.add_char buf '\n';
           incr j
         | 't' ->
           Buffer.add_char buf '\t';
           incr j
         | 'r' ->
           Buffer.add_char buf '\r';
           incr j
         | 'b' ->
           Buffer.add_char buf '\b';
           incr j
         | '0' .. '9' as d1 ->
           if !j + 2 >= len then bail ();
           let d2 = String.unsafe_get s (!j + 1) and d3 = String.unsafe_get s (!j + 2) in
           if not (d2 >= '0' && d2 <= '9' && d3 >= '0' && d3 <= '9') then bail ();
           let code =
             ((Char.code d1 - 48) * 100) + ((Char.code d2 - 48) * 10) + (Char.code d3 - 48)
           in
           if code > 255 then bail ();
           Buffer.add_char buf (Char.chr code);
           j := !j + 3
         | _ -> bail ())
      | ch ->
        Buffer.add_char buf ch;
        incr j
    done;
    c.cp <- !fin + 1;
    Buffer.contents buf
  end

let is_enum_char ch = (ch >= 'A' && ch <= 'Z') || (ch >= '0' && ch <= '9') || ch = '_' || ch = '|'

let enum_token c =
  let len = String.length c.cs in
  let start = c.cp in
  while c.cp < len && is_enum_char (String.unsafe_get c.cs c.cp) do
    c.cp <- c.cp + 1
  done;
  String.sub c.cs start (c.cp - start)

(* Name lookups off the hot path's per-record [List.find_opt]:
   variants and errnos hash, flag combinations memoize (a trace uses a
   handful of distinct combinations, not the power set).  The tables
   are built when the module initialises and only read afterwards, and
   the memo is an immutable map swapped atomically, so any number of
   domains or threads may parse at once.  Two parsers adding at the
   same moment can drop one entry; it is recomputed on the next miss. *)
let table name_of values =
  let h = Hashtbl.create 64 in
  List.iter (fun v -> Hashtbl.replace h (name_of v) v) values;
  h

let variant_tbl = table Model.variant_name Model.all_variants
let errno_tbl = table Errno.to_string Errno.all

module String_map = Map.Make (String)

let flags_memo : Open_flags.t String_map.t Atomic.t = Atomic.make String_map.empty

let scan_flags c =
  let tok = enum_token c in
  let memo = Atomic.get flags_memo in
  match String_map.find_opt tok memo with
  | Some f -> f
  | None -> (
    match Open_flags.of_string tok with
    | Some f ->
      Atomic.set flags_memo (String_map.add tok f memo);
      f
    | None -> bail ())

let scan_name c =
  let len = String.length c.cs in
  let start = c.cp in
  while
    c.cp < len
    &&
    let ch = String.unsafe_get c.cs c.cp in
    (ch >= 'a' && ch <= 'z') || (ch >= '0' && ch <= '9') || ch = '_'
  do
    c.cp <- c.cp + 1
  done;
  String.sub c.cs start (c.cp - start)

let scan_target c =
  if peek c = 'p' then begin
    lit c "path=";
    Model.Path (quoted c)
  end
  else begin
    lit c "fd=";
    Model.Fd (int_ c)
  end

(* One branch per base, fields in [Model.call_to_string] order. *)
let scan_call c variant =
  let call =
    match Model.base_of_variant variant with
    | Model.Open ->
      lit c "path=";
      let path = quoted c in
      lit c ", flags=";
      let flags = scan_flags c in
      lit c ", mode=";
      let mode = octal c in
      Model.Open_call { variant; path; flags; mode }
    | Model.Read | Model.Write ->
      lit c "fd=";
      let fd = int_ c in
      lit c ", count=";
      let count = int_ c in
      let offset =
        if peek c = ',' then begin
          lit c ", offset=";
          Some (int_ c)
        end
        else None
      in
      if Model.base_of_variant variant = Model.Read then Model.read ~variant ?offset ~fd ~count ()
      else Model.write ~variant ?offset ~fd ~count ()
    | Model.Lseek ->
      lit c "fd=";
      let fd = int_ c in
      lit c ", offset=";
      let offset = int_ c in
      lit c ", whence=";
      let whence = match Whence.of_string (enum_token c) with Some w -> w | None -> bail () in
      Model.lseek ~fd ~offset ~whence
    | Model.Truncate ->
      let target = scan_target c in
      lit c ", length=";
      let length = int_ c in
      Model.truncate ~variant ~target ~length ()
    | Model.Mkdir ->
      lit c "path=";
      let path = quoted c in
      lit c ", mode=";
      let mode = octal c in
      Model.Mkdir_call { variant; path; mode }
    | Model.Chmod ->
      let target = scan_target c in
      lit c ", mode=";
      let mode = octal c in
      Model.chmod ~variant ~target ~mode ()
    | Model.Close ->
      lit c "fd=";
      let fd = int_ c in
      Model.close fd
    | Model.Chdir -> Model.chdir (scan_target c)
    | Model.Setxattr ->
      let target = scan_target c in
      lit c ", name=";
      let name = quoted c in
      lit c ", size=";
      let size = int_ c in
      lit c ", xflags=";
      let flags = match Xattr_flag.of_string (enum_token c) with Some f -> f | None -> bail () in
      Model.setxattr ~variant ~flags ~target ~name ~size ()
    | Model.Getxattr ->
      let target = scan_target c in
      lit c ", name=";
      let name = quoted c in
      lit c ", size=";
      let size = int_ c in
      Model.getxattr ~variant ~target ~name ~size ()
  in
  chr c ')';
  call

(* Aux payload: "!name(detail)".  The detail is raw text, so its right
   edge is the first [") -> "]; if the line then fails to finish as a
   canonical outcome, the scanner bails and the reference's
   last-arrow split takes over. *)
let scan_aux c =
  chr c '!';
  let s = c.cs in
  match String.index_from_opt s c.cp '(' with
  | None -> bail ()
  | Some lp ->
    let name = String.sub s c.cp (lp - c.cp) in
    let len = String.length s in
    let rec find from =
      match String.index_from_opt s from ')' with
      | None -> bail ()
      | Some rp ->
        if
          rp + 5 <= len
          && String.unsafe_get s (rp + 1) = ' '
          && String.unsafe_get s (rp + 2) = '-'
          && String.unsafe_get s (rp + 3) = '>'
          && String.unsafe_get s (rp + 4) = ' '
        then rp
        else find (rp + 1)
    in
    let rp = find (lp + 1) in
    c.cp <- rp + 5;
    Event.Aux { name; detail = String.sub s (lp + 1) (rp - lp - 1) }

let contains_arrow s =
  let n = String.length s in
  let rec go i =
    i + 4 <= n
    && ((s.[i] = ' ' && s.[i + 1] = '-' && s.[i + 2] = '>' && s.[i + 3] = ' ') || go (i + 1))
  in
  go 0

let of_line_fast ~seq line =
  let c = { cs = line; cp = 0 } in
  chr c '[';
  let ts = int_ c in
  lit c "] pid=";
  let pid = int_ c in
  lit c " comm=";
  let comm = quoted c in
  chr c ' ';
  let payload =
    if peek c = '!' then scan_aux c
    else begin
      let name = scan_name c in
      let variant =
        match Hashtbl.find_opt variant_tbl name with
        | Some v -> v
        | None -> bail ()
      in
      chr c '(';
      let call = scan_call c variant in
      lit c " -> ";
      Event.Tracked call
    end
  in
  let outcome =
    if peek c = 'o' then begin
      lit c "ok:";
      Model.Ret (int_ c)
    end
    else begin
      lit c "err:";
      match Hashtbl.find_opt errno_tbl (enum_token c) with
      | Some e -> Model.Err e
      | None -> bail ()
    end
  in
  let path_hint =
    if c.cp = String.length c.cs then None
    else begin
      lit c " hint=";
      let h = quoted c in
      if c.cp <> String.length c.cs then bail ();
      if contains_arrow h then bail ();
      Some h
    end
  in
  { Event.seq; timestamp_ns = ts; pid; comm; payload; outcome; path_hint }

let of_line ?(seq = 0) line =
  match of_line_fast ~seq line with
  | e -> Ok e
  | exception Bail -> of_line_reference ~seq line
  (* Smart constructors range-check their arguments; the reference
     wraps that check into its error result, so re-parse there. *)
  | exception Invalid_argument _ -> of_line_reference ~seq line

let write_channel oc events =
  List.iter (fun e -> output_string oc (to_line e ^ "\n")) events;
  flush oc

let sink_channel oc e = output_string oc (to_line e ^ "\n")

(* --- streaming reads --- *)

(* Text records are self-contained, so the reader's only sequential job
   is line numbering; the parse itself can happen anywhere — the
   parallel pipeline ships raw line batches to worker shards and parses
   there. *)
type stream = { s_ic : in_channel; mutable next_line : int }

let open_stream ic = { s_ic = ic; next_line = 1 }

let read_raw_batch st ~max =
  if max <= 0 then invalid_arg "Format_io.read_raw_batch: max must be positive";
  let batch = ref [] in
  let n = ref 0 in
  let eof = ref false in
  while (not !eof) && !n < max do
    match In_channel.input_line st.s_ic with
    | None -> eof := true
    | Some line ->
      let lineno = st.next_line in
      st.next_line <- lineno + 1;
      let trimmed = String.trim line in
      if trimmed <> "" && trimmed.[0] <> '#' then begin
        batch := (lineno, trimmed) :: !batch;
        incr n
      end
  done;
  Array.of_list (List.rev !batch)

let fold_channel ic ~init ~f =
  let st = open_stream ic in
  let rec go acc =
    let batch = read_raw_batch st ~max:4096 in
    if Array.length batch = 0 then Ok acc
    else begin
      let rec consume acc i =
        if i = Array.length batch then go acc
        else begin
          let lineno, line = batch.(i) in
          match of_line ~seq:lineno line with
          | Ok e -> consume (f acc e) (i + 1)
          | Error msg -> Error (Printf.sprintf "line %d: %s" lineno msg)
        end
      in
      consume acc 0
    end
  in
  go init

let read_channel ic =
  let* events = fold_channel ic ~init:[] ~f:(fun acc e -> e :: acc) in
  Ok (List.rev events)
