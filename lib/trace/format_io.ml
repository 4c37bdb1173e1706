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

(* --- the scanner ---

   One left-to-right pass over exactly the grammar [to_line] writes (see
   format_io.mli): no [Scanf], no regex, no intermediate field list.  A
   deviation raises [Syntax] with the byte offset where it was seen, and
   [of_line] turns that into the line's one error. *)

exception Syntax of int * string

type cursor = { cs : string; mutable cp : int }

let fail_at pos msg = raise (Syntax (pos, msg))
let expected c what = fail_at c.cp ("expected " ^ what)

let peek c = if c.cp < String.length c.cs then String.unsafe_get c.cs c.cp else '\000'

let expected_lit c l = expected c (Printf.sprintf "%S" l)

let chr c ch =
  if c.cp < String.length c.cs && String.unsafe_get c.cs c.cp = ch then c.cp <- c.cp + 1
  else expected_lit c (String.make 1 ch)

let lit c l =
  let n = String.length l in
  if c.cp + n > String.length c.cs then expected_lit c l;
  for i = 0 to n - 1 do
    if String.unsafe_get c.cs (c.cp + i) <> String.unsafe_get l i then expected_lit c l
  done;
  c.cp <- c.cp + n

let is_digit ch = ch >= '0' && ch <= '9'

(* Decimal [%d] over the whole int range.  The value accumulates
   negated, so [min_int] fits; past 18 digits each step is checked, and
   an overflow is an error, never a wrap. *)
let int_ c =
  let len = String.length c.cs in
  let neg = peek c = '-' in
  if neg then c.cp <- c.cp + 1;
  let start = c.cp in
  let v = ref 0 in
  while c.cp < len && is_digit (String.unsafe_get c.cs c.cp) do
    let d = Char.code (String.unsafe_get c.cs c.cp) - 48 in
    if c.cp - start >= 18 && (!v < min_int / 10 || !v * 10 < min_int + d) then
      fail_at start "integer out of range";
    v := (!v * 10) - d;
    c.cp <- c.cp + 1
  done;
  if c.cp = start then expected c "a decimal integer";
  if neg then !v
  else if !v = min_int then fail_at start "integer out of range"
  else - !v

(* Octal as [%o] prints it: the 63 bits unsigned, so up to 21 digits. *)
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
    if !v lsr 60 <> 0 then fail_at start "octal out of range";
    v := (!v lsl 3) lor (Char.code (String.unsafe_get c.cs c.cp) - 48);
    c.cp <- c.cp + 1
  done;
  if c.cp = start then expected c "an octal digit";
  !v

(* A [%S] literal: [%S] escapes backslash, quote, n/t/r/b, and every
   other byte outside 32..126 as \ddd; nothing else is an escape.  The
   common case, no escapes, is a bare substring copy. *)
let quoted c =
  chr c '"';
  let s = c.cs in
  let len = String.length s in
  let start = c.cp in
  let i = ref c.cp in
  while !i < len && String.unsafe_get s !i <> '"' && String.unsafe_get s !i <> '\\' do
    incr i
  done;
  if !i >= len then fail_at (start - 1) "unterminated string";
  if String.unsafe_get s !i = '"' then begin
    c.cp <- !i + 1;
    String.sub s start (!i - start)
  end
  else begin
    let buf = Buffer.create (len - start) in
    Buffer.add_substring buf s start (!i - start);
    let j = ref !i in
    while !j < len && String.unsafe_get s !j <> '"' do
      let ch = String.unsafe_get s !j in
      if ch <> '\\' then begin
        Buffer.add_char buf ch;
        incr j
      end
      else begin
        let esc = !j in
        let digit k = esc + k < len && is_digit (String.unsafe_get s (esc + k)) in
        let code =
          match if esc + 1 < len then String.unsafe_get s (esc + 1) else '\000' with
          | ('\\' | '"') as ch -> Char.code ch
          | 'n' -> 10
          | 't' -> 9
          | 'r' -> 13
          | 'b' -> 8
          | _ when digit 1 && digit 2 && digit 3 ->
            let d k = Char.code (String.unsafe_get s (esc + k)) - 48 in
            (100 * d 1) + (10 * d 2) + d 3
          | _ -> -1
        in
        if code < 0 || code > 255 then fail_at esc "bad escape";
        Buffer.add_char buf (Char.chr code);
        j := if digit 1 then esc + 4 else esc + 2
      end
    done;
    if !j >= len then fail_at (start - 1) "unterminated string";
    c.cp <- !j + 1;
    Buffer.contents buf
  end

let is_token_char ch =
  (ch >= 'A' && ch <= 'Z') || (ch >= 'a' && ch <= 'z') || is_digit ch || ch = '_' || ch = '|'

let token c =
  let len = String.length c.cs in
  let start = c.cp in
  while c.cp < len && is_token_char (String.unsafe_get c.cs c.cp) do
    c.cp <- c.cp + 1
  done;
  String.sub c.cs start (c.cp - start)

(* Name lookups off the hot path's per-record [List.find_opt]:
   variants and errnos hash, flag sets memoize by token (a trace uses a
   handful of distinct sets, not the power set).  The memo is capped:
   each raw mask prints its own token, so an uncapped memo would grow
   by one entry per distinct mask for as long as a serve daemon runs.
   The tables are built when the module initialises and only read
   afterwards, and the memo is an immutable value swapped atomically,
   so any number of domains or threads may parse at once.  Two parsers
   adding at the same moment can drop one entry; it is recomputed on
   the next miss. *)
let table name_of values =
  let h = Hashtbl.create 64 in
  List.iter (fun v -> Hashtbl.replace h (name_of v) v) values;
  h

let find_variant = Hashtbl.find_opt (table Model.variant_name Model.all_variants)
let find_errno = Hashtbl.find_opt (table Errno.to_string Errno.all)

let lookup c what find =
  let start = c.cp in
  match find (token c) with
  | Some v -> v
  | None -> fail_at start ("expected " ^ what)

module String_map = Map.Make (String)

type memo = { entries : int; map : Open_flags.t String_map.t }

let flags_memo_cap = 256
let flags_memo = Atomic.make { entries = 0; map = String_map.empty }

let scan_flags c =
  let start = c.cp in
  let tok = token c in
  let memo = Atomic.get flags_memo in
  match String_map.find_opt tok memo.map with
  | Some f -> f
  | None -> (
    match Open_flags.of_string tok with
    | Some f ->
      if memo.entries < flags_memo_cap then
        Atomic.set flags_memo
          { entries = memo.entries + 1; map = String_map.add tok f memo.map };
      f
    | None -> fail_at start "expected an open flag set")

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
let scan_call c =
  let variant = lookup c "a syscall name" find_variant in
  chr c '(';
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
      let whence = lookup c "a whence name" Whence.of_string in
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
      let flags = lookup c "an xattr flag" Xattr_flag.of_string in
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

(* The outcome and optional hint, which must end the line. *)
let scan_tail c ~seq ~ts ~pid ~comm payload =
  let outcome =
    match peek c with
    | 'o' ->
      lit c "ok:";
      Model.Ret (int_ c)
    | 'e' ->
      lit c "err:";
      Model.Err (lookup c "an errno name" find_errno)
    | _ -> expected c "\"ok:\" or \"err:\""
  in
  let path_hint =
    if c.cp = String.length c.cs then None
    else begin
      lit c " hint=";
      let h = quoted c in
      if c.cp <> String.length c.cs then expected c "end of line";
      Some h
    end
  in
  { Event.seq; timestamp_ns = ts; pid; comm; payload; outcome; path_hint }

(* Aux payload "!name(detail)".  Both are raw text: the name ends at the
   first '(', and the detail at the first ") -> " after which the rest
   of the line reads as an outcome and optional hint.  [to_line]'s
   output always splits there, since a wrong split would have to read
   a hint's opening quote as a closing one. *)
let scan_aux c ~seq ~ts ~pid ~comm =
  chr c '!';
  let s = c.cs in
  let len = String.length s in
  let lp =
    match String.index_from_opt s c.cp '(' with Some lp -> lp | None -> expected c "\"(\""
  in
  let name = String.sub s c.cp (lp - c.cp) in
  let rec close_arrow from =
    match String.index_from_opt s from ')' with
    | None -> None
    | Some rp ->
      if
        rp + 5 <= len
        && s.[rp + 1] = ' ' && s.[rp + 2] = '-' && s.[rp + 3] = '>' && s.[rp + 4] = ' '
      then Some rp
      else close_arrow (rp + 1)
  in
  let rec split = function
    | None ->
      c.cp <- lp + 1;
      expected c "\") -> \""
    | Some rp -> (
      c.cp <- rp + 5;
      let payload = Event.Aux { name; detail = String.sub s (lp + 1) (rp - lp - 1) } in
      match scan_tail c ~seq ~ts ~pid ~comm payload with
      | e -> e
      | exception (Syntax _ as err) -> (
        match close_arrow (rp + 1) with None -> raise err | later -> split later))
  in
  split (close_arrow (lp + 1))

let scan ~seq c =
  chr c '[';
  let ts = int_ c in
  lit c "] pid=";
  let pid = int_ c in
  lit c " comm=";
  let comm = quoted c in
  chr c ' ';
  if peek c = '!' then scan_aux c ~seq ~ts ~pid ~comm
  else begin
    let call = scan_call c in
    lit c " -> ";
    scan_tail c ~seq ~ts ~pid ~comm (Event.Tracked call)
  end

(* Columns count bytes from 1.  A smart constructor's range check is
   refused at the column where the call's fields ended. *)
let of_line ?(seq = 0) line =
  let c = { cs = line; cp = 0 } in
  match scan ~seq c with
  | e -> Ok e
  | exception Syntax (pos, msg) -> Error (Printf.sprintf "col %d: %s" (pos + 1) msg)
  | exception Invalid_argument msg -> Error (Printf.sprintf "col %d: %s" (c.cp + 1) msg)

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
