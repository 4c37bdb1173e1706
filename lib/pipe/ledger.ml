module Coverage = Iocov_core.Coverage
module Plan = Iocov_core.Plan
module Snapshot = Iocov_core.Snapshot
module Partition = Iocov_core.Partition
module Arg_class = Iocov_core.Arg_class
module Model = Iocov_syscall.Model
module Json = Iocov_util.Json

let default_dir = ".iocov"
let file_name = "runs.jsonl"
let path ~dir = Filename.concat dir file_name

type record = {
  r_id : string;
  r_time : float option;          (* unix seconds; None in determinism mode *)
  r_subcommand : string;
  r_label : string;               (* source label: trace path, suite name… *)
  r_tenant : string option;       (* serve tenant id; None for offline runs *)
  r_flags : (string * string) list;
  r_seed : int option;
  r_jobs : int;
  r_counters : string;
  r_events : int;
  r_kept : int;
  r_lost : int;                   (* skipped + abandoned records *)
  r_wall_s : float;
  r_stages : (string * float) list;  (* root span name -> seconds *)
  r_digest : string;              (* crc32 of the coverage snapshot, hex *)
  r_cells : int * int * int;      (* lit variant, input, output cells *)
  r_bitmap : string;              (* hex, one bit per plan cell *)
  r_config : (string * string) option;  (* lattice point name, config digest *)
}

(* --- coverage fingerprints --- *)

let hex_digits = "0123456789abcdef"

let hex_of_bytes b =
  String.init (2 * Bytes.length b) (fun i ->
      let c = Char.code (Bytes.get b (i lsr 1)) in
      hex_digits.[if i land 1 = 0 then c lsr 4 else c land 15])

let nibble = function
  | '0' .. '9' as c -> Char.code c - 48
  | 'a' .. 'f' as c -> Char.code c - 87
  | 'A' .. 'F' as c -> Char.code c - 55
  | _ -> -1

let bytes_of_hex s =
  let n = String.length s / 2 in
  if String.length s mod 2 <> 0 then Error "odd-length hex string"
  else begin
    let b = Bytes.create n in
    let rec fill i =
      if i = n then Ok b
      else
        let hi = nibble s.[2 * i] and lo = nibble s.[(2 * i) + 1] in
        if hi < 0 || lo < 0 then Error "invalid hex string"
        else begin
          Bytes.set b i (Char.chr ((hi lsl 4) lor lo));
          fill (i + 1)
        end
    in
    fill 0
  end

let digest = Snapshot.digest

let bitmap cov = hex_of_bytes (Coverage.cell_bitmap cov)

(* --- construction --- *)

let make ?time ?seed ?tenant ?config ~subcommand ~label ~flags ~jobs ~counters ~events
    ~kept ~lost ~wall_s ~stages cov =
  if jobs <> 1 then invalid_arg "Ledger.make: jobs must be 1";
  if counters <> "dense" then invalid_arg "Ledger.make: counters must be \"dense\"";
  {
    r_id = "";  (* assigned by append *)
    r_time = time;
    r_subcommand = subcommand;
    r_label = label;
    r_tenant = tenant;
    r_flags = flags;
    r_seed = seed;
    r_jobs = jobs;
    r_counters = counters;
    r_events = events;
    r_kept = kept;
    r_lost = lost;
    r_wall_s = wall_s;
    r_stages = stages;
    r_digest = digest cov;
    r_cells = Coverage.lit_cells cov;
    r_bitmap = bitmap cov;
    r_config = config;
  }

(* --- JSON (one object per line; schema "iocov-run/1") --- *)

let to_json r =
  let v, i, o = r.r_cells in
  Json.Obj
    [ ("schema", Json.String "iocov-run/1");
      ("id", Json.String r.r_id);
      ("time", match r.r_time with Some t -> Json.Float t | None -> Json.Null);
      ("subcommand", Json.String r.r_subcommand);
      ("label", Json.String r.r_label);
      ("tenant", match r.r_tenant with Some t -> Json.String t | None -> Json.Null);
      ("flags", Json.Obj (List.map (fun (k, x) -> (k, Json.String x)) r.r_flags));
      ("seed", match r.r_seed with Some s -> Json.Int s | None -> Json.Null);
      ("jobs", Json.Int r.r_jobs);
      ("counters", Json.String r.r_counters);
      ("events", Json.Int r.r_events);
      ("kept", Json.Int r.r_kept);
      ("lost", Json.Int r.r_lost);
      ("wall_s", Json.Float r.r_wall_s);
      ( "stages",
        Json.Obj (List.map (fun (name, s) -> (name, Json.Float s)) r.r_stages) );
      ("digest", Json.String r.r_digest);
      ( "cells",
        Json.Obj
          [ ("variant", Json.Int v); ("input", Json.Int i); ("output", Json.Int o);
            ("total", Json.Int Plan.total) ] );
      ("bitmap", Json.String r.r_bitmap);
      ( "config",
        match r.r_config with
        | None -> Json.Null
        | Some (name, digest) ->
          Json.Obj [ ("name", Json.String name); ("digest", Json.String digest) ] ) ]

let of_json j =
  let ( let* ) = Option.bind in
  let str k = Option.bind (Json.member k j) Json.to_str in
  let int k = Option.bind (Json.member k j) Json.to_int in
  let flt k = Option.bind (Json.member k j) Json.to_float in
  match
    let* id = str "id" in
    let* subcommand = str "subcommand" in
    let* label = str "label" in
    let* jobs = int "jobs" in
    let* counters = str "counters" in
    let* events = int "events" in
    let* kept = int "kept" in
    let* lost = int "lost" in
    let* wall_s = flt "wall_s" in
    let* digest = str "digest" in
    let* bitmap = str "bitmap" in
    let flags =
      match Json.member "flags" j with
      | Some (Json.Obj kvs) ->
        List.filter_map (fun (k, x) -> Option.map (fun s -> (k, s)) (Json.to_str x)) kvs
      | _ -> []
    in
    let stages =
      match Json.member "stages" j with
      | Some (Json.Obj kvs) ->
        List.filter_map (fun (k, x) -> Option.map (fun s -> (k, s)) (Json.to_float x)) kvs
      | _ -> []
    in
    let cells =
      match Json.member "cells" j with
      | Some c -> (
        match
          ( Option.bind (Json.member "variant" c) Json.to_int,
            Option.bind (Json.member "input" c) Json.to_int,
            Option.bind (Json.member "output" c) Json.to_int )
        with
        | Some v, Some i, Some o -> (v, i, o)
        | _ -> (0, 0, 0))
      | None -> (0, 0, 0)
    in
    Some
      {
        r_id = id;
        r_time = flt "time";
        r_subcommand = subcommand;
        r_label = label;
        (* optional: records written before the serve layer carry no
           tenant key, and a JSON null means the same thing *)
        r_tenant = str "tenant";
        r_flags = flags;
        r_seed = int "seed";
        r_jobs = jobs;
        r_counters = counters;
        r_events = events;
        r_kept = kept;
        r_lost = lost;
        r_wall_s = wall_s;
        r_stages = stages;
        r_digest = digest;
        r_cells = cells;
        r_bitmap = bitmap;
        (* optional like [tenant]: pre-lattice records carry no config *)
        r_config =
          (match Json.member "config" j with
           | Some c -> (
             match
               ( Option.bind (Json.member "name" c) Json.to_str,
                 Option.bind (Json.member "digest" c) Json.to_str )
             with
             | Some name, Some digest -> Some (name, digest)
             | _ -> None)
           | None -> None);
      }
  with
  | Some r -> Ok r
  | None -> Error "missing or ill-typed run-record field"

(* --- the file --- *)

type loaded = { records : record list; bad_lines : int }

let parse_line line =
  match Json.of_string line with
  | Error msg -> Error msg
  | Ok j -> of_json j

let load ~dir =
  let p = path ~dir in
  if not (Sys.file_exists p) then { records = []; bad_lines = 0 }
  else
    In_channel.with_open_text p (fun ic ->
        let records = ref [] and bad = ref 0 in
        let rec loop () =
          match In_channel.input_line ic with
          | None -> ()
          | Some line ->
            if String.trim line <> "" then begin
              match parse_line line with
              | Ok r -> records := r :: !records
              | Error _ -> incr bad
              (* a truncated or corrupt line — typically the last one
                 after a crash mid-append — is counted, not fatal *)
            end;
            loop ()
        in
        loop ();
        { records = List.rev !records; bad_lines = !bad })

(* [N] of an id [rN], read from index [i]; 0 for any other id. *)
let rec id_digits id i acc =
  if i = String.length id then acc
  else
    match id.[i] with
    | '0' .. '9' as c -> id_digits id (i + 1) ((10 * acc) + Char.code c - 48)
    | _ -> 0

(* [N] of a line holding a readable record with an id [rN]; 0 for a
   blank or unreadable line and for any other id. *)
let line_number line =
  match parse_line line with
  | Ok { r_id; _ } when String.length r_id > 1 && r_id.[0] = 'r' -> id_digits r_id 1 0
  | _ -> 0

let tail_block = 4096

(* The number of the last readable [rN] record (0 if there is none) and
   whether the file ends mid-line, as a crash mid-append leaves it.
   Lines are walked backwards from the end of the file through a
   window of its bytes that starts as the last block and doubles
   whenever a line begins before it; no line before the last readable
   record is parsed. *)
let tail ic =
  let window base stop =
    In_channel.seek ic (Int64.of_int base);
    really_input_string ic (stop - base)
  in
  (* [w] holds the file's bytes from offset [base]; the lines that end
     at or before its index [i] are still to be walked *)
  let rec back w base i =
    match String.rindex_from_opt w (i - 1) '\n' with
    | Some nl -> (
      match line_number (String.sub w (nl + 1) (i - nl - 1)) with
      | 0 -> back w base nl
      | n -> n)
    | None when base = 0 -> line_number (String.sub w 0 i)
    | None ->
      let stop = base + i in
      let base = max 0 (stop - (2 * String.length w)) in
      back (window base stop) base (stop - base)
  in
  let size = Int64.to_int (In_channel.length ic) in
  let base = max 0 (size - tail_block) in
  let w = window base size in
  (back w base (size - base), size > 0 && w.[size - base - 1] <> '\n')

(* The next id is one past the last readable [rN]: only [append]
   assigns ids, in ascending file order, so that is also the largest
   one, and a damaged line in the middle cannot make an id repeat.
   Appends are a single [output_string] of one line on a channel opened
   in append mode — atomic for any realistic record size on POSIX, and
   a crash can at worst truncate the final line, which [load] absorbs.
   After such a crash the line starts with the missing newline, so the
   new record is not glued onto the torn bytes. *)
let append ~dir r =
  (try if not (Sys.file_exists dir) then Sys.mkdir dir 0o755 with Sys_error _ -> ());
  let p = path ~dir in
  match
    let last, torn = if Sys.file_exists p then In_channel.with_open_bin p tail else (0, false) in
    let r = { r with r_id = Printf.sprintf "r%d" (last + 1) } in
    let line = (if torn then "\n" else "") ^ Json.to_string (to_json r) ^ "\n" in
    Out_channel.with_open_gen
      [ Open_append; Open_creat; Open_text ]
      0o644 p
      (fun oc -> Out_channel.output_string oc line);
    r
  with
  | r -> Ok r
  | exception Sys_error msg -> Error msg
  | exception End_of_file -> Error (p ^ ": shrank while its tail was read")

(* Keep only the newest [n] records (file order is oldest-first), so
   [runs list --last N] shows the tail without renumbering ids. *)
let last n { records; bad_lines } =
  let len = List.length records in
  let records =
    if n >= len then records
    else List.filteri (fun i _ -> i >= len - n) records
  in
  { records; bad_lines }

let find records key =
  match List.find_opt (fun r -> r.r_id = key) records with
  | Some r -> Some r
  | None -> (
    (* a bare integer is a 1-based index into the ledger *)
    match int_of_string_opt key with
    | Some n when n >= 1 && n <= List.length records -> Some (List.nth records (n - 1))
    | _ -> None)

(* --- diffing --- *)

let cell_label = function
  | Plan.Cell_variant v -> "variant " ^ Model.variant_name v
  | Plan.Cell_input (arg, part) ->
    Printf.sprintf "input %s=%s" (Arg_class.name arg) (Partition.label part)
  | Plan.Cell_output (base, out) ->
    Printf.sprintf "output %s→%s" (Model.base_name base) (Partition.output_label out)
  | Plan.Cell_crash (mode, outcome) ->
    Printf.sprintf "crash %s→%s"
      (Partition.crash_mode_label mode)
      (Partition.crash_outcome_label outcome)

let bitmap_cells hex =
  match bytes_of_hex hex with
  | Error _ -> []
  | Ok b ->
    let ids = ref [] in
    for id = min (Plan.total - 1) ((8 * Bytes.length b) - 1) downto 0 do
      if Char.code (Bytes.get b (id / 8)) land (1 lsl (id mod 8)) <> 0 then
        ids := id :: !ids
    done;
    !ids

type diff = {
  d_gained : int list;  (* cell ids lit in B but not A *)
  d_lost : int list;    (* cell ids lit in A but not B *)
  d_rate_a : float;     (* events/s *)
  d_rate_b : float;
  d_identical : bool;   (* same digest — byte-identical coverage *)
}

(* Two records are cross-config when both name a config and the digests
   disagree; a record without one (pre-lattice, or a stream that never
   declared a config) diffs freely. *)
let config_clash a b =
  match (a.r_config, b.r_config) with
  | Some (_, da), Some (_, db) -> da <> db
  | _ -> false

let config_name r =
  match r.r_config with Some (name, _) -> name | None -> "-" 

let diff a b =
  let set_of r =
    let arr = Array.make Plan.total false in
    List.iter (fun id -> if id < Plan.total then arr.(id) <- true) (bitmap_cells r.r_bitmap);
    arr
  in
  let sa = set_of a and sb = set_of b in
  let gained = ref [] and lost = ref [] in
  for id = Plan.total - 1 downto 0 do
    if sb.(id) && not sa.(id) then gained := id :: !gained;
    if sa.(id) && not sb.(id) then lost := id :: !lost
  done;
  let rate r = if r.r_wall_s > 0.0 then float_of_int r.r_events /. r.r_wall_s else 0.0 in
  {
    d_gained = !gained;
    d_lost = !lost;
    d_rate_a = rate a;
    d_rate_b = rate b;
    d_identical = a.r_digest = b.r_digest;
  }

(* --- rendering --- *)

let lit_total r =
  let v, i, o = r.r_cells in
  v + i + o

let render_list { records; bad_lines } =
  let buf = Buffer.create 256 in
  if records = [] then Buffer.add_string buf "ledger is empty\n"
  else begin
    Buffer.add_string buf
      (Printf.sprintf "%-6s %-10s %-10s %-24s %-14s %10s %9s %9s  %s\n" "id" "command"
         "tenant" "source" "config" "events" "cells" "wall" "digest");
    List.iter
      (fun r ->
        let label =
          if String.length r.r_label <= 24 then r.r_label
          else "…" ^ String.sub r.r_label (String.length r.r_label - 23) 23
        in
        let tenant =
          match r.r_tenant with
          | None -> "-"
          | Some t when String.length t <= 10 -> t
          | Some t -> String.sub t 0 9 ^ "…"
        in
        let config =
          match r.r_config with
          | None -> "-"
          | Some (name, _) when String.length name <= 14 -> name
          | Some (name, _) -> String.sub name 0 13 ^ "\xe2\x80\xa6"
        in
        Buffer.add_string buf
          (Printf.sprintf "%-6s %-10s %-10s %-24s %-14s %10d %4d/%-4d %8.2fs  %s\n" r.r_id
             r.r_subcommand tenant label config r.r_events (lit_total r) Plan.total
             r.r_wall_s r.r_digest))
      records
  end;
  if bad_lines > 0 then
    Buffer.add_string buf
      (Printf.sprintf "(%d unreadable line%s skipped)\n" bad_lines
         (if bad_lines = 1 then "" else "s"));
  Buffer.contents buf

let render_show r =
  let v, i, o = r.r_cells in
  let buf = Buffer.create 512 in
  let line k fmt = Printf.ksprintf (fun s -> Buffer.add_string buf (Printf.sprintf "%-12s %s\n" k s)) fmt in
  line "id" "%s" r.r_id;
  (match r.r_time with Some t -> line "time" "%.3f" t | None -> ());
  line "command" "%s" r.r_subcommand;
  line "source" "%s" r.r_label;
  (match r.r_tenant with Some t -> line "tenant" "%s" t | None -> ());
  if r.r_flags <> [] then
    line "flags" "%s"
      (String.concat " " (List.map (fun (k, x) -> k ^ "=" ^ x) r.r_flags));
  (match r.r_config with
   | Some (name, digest) -> line "config" "%s (%s)" name digest
   | None -> ());
  (match r.r_seed with Some s -> line "seed" "%d" s | None -> ());
  line "jobs" "%d" r.r_jobs;
  line "counters" "%s" r.r_counters;
  line "events" "%d (%d kept, %d lost)" r.r_events r.r_kept r.r_lost;
  line "wall" "%.3fs" r.r_wall_s;
  List.iter (fun (name, s) -> line "  stage" "%s %.3fs" name s) r.r_stages;
  line "cells" "%d/%d lit (input %d, output %d, variant %d)" (v + i + o) Plan.total i o v;
  line "digest" "%s" r.r_digest;
  Buffer.contents buf

let render_diff ~a ~b d =
  let buf = Buffer.create 512 in
  Buffer.add_string buf
    (Printf.sprintf "%s (%d events) vs %s (%d events)\n" a.r_id a.r_events b.r_id
       b.r_events);
  if d.d_identical then Buffer.add_string buf "coverage: identical (same digest)\n"
  else if d.d_gained = [] && d.d_lost = [] then
    Buffer.add_string buf
      "coverage: same cells lit (frequencies differ — digests disagree)\n"
  else begin
    let show verb ids =
      Buffer.add_string buf
        (Printf.sprintf "cells %s: %d\n" verb (List.length ids));
      let shown = ref 0 in
      List.iter
        (fun id ->
          if !shown < 20 then begin
            incr shown;
            Buffer.add_string buf
              (Printf.sprintf "  %s %s\n" verb (cell_label Plan.cells.(id)))
          end)
        ids;
      if List.length ids > 20 then
        Buffer.add_string buf (Printf.sprintf "  … %d more\n" (List.length ids - 20))
    in
    if d.d_gained <> [] then show "gained" d.d_gained;
    if d.d_lost <> [] then show "lost" d.d_lost
  end;
  if d.d_rate_a > 0.0 && d.d_rate_b > 0.0 then begin
    let delta = 100.0 *. (d.d_rate_b -. d.d_rate_a) /. d.d_rate_a in
    Buffer.add_string buf
      (Printf.sprintf "throughput: %.0f ev/s -> %.0f ev/s (%+.1f%%)\n" d.d_rate_a
         d.d_rate_b delta);
    if delta < -10.0 then Buffer.add_string buf "throughput: REGRESSION (>10% slower)\n"
  end;
  Buffer.contents buf
