open Iocov_syscall
module Anomaly = Iocov_util.Anomaly
module Crc32 = Iocov_util.Crc32
module Metrics = Iocov_obs.Metrics
module Plan = Iocov_core.Plan
module Dense = Iocov_core.Coverage.Dense

(* --- corruption metering, process-wide --- *)

let m_corrupt =
  Metrics.counter Metrics.default "iocov_trace_corrupt_records_total"
    ~help:"Trace records skipped by lenient ingestion (corrupt, lost-reference, truncated)."

let m_resyncs =
  Metrics.counter Metrics.default "iocov_trace_resyncs_total"
    ~help:"Resync scans past damaged byte ranges of a binary trace."

let m_bytes_skipped =
  Metrics.counter Metrics.default "iocov_trace_bytes_skipped_total"
    ~help:"Bytes discarded while resyncing past trace corruption."

(* --- format constants --- *)

(* "IOCT" then the format version byte.  Only v3 is read or written;
   the prefix alone still identifies an iocov trace, so a v1/v2 file is
   refused by name instead of being misread as text. *)
let magic_prefix = "IOCT"
let version = 3
let magic = magic_prefix ^ String.make 1 (Char.chr version)
let magic_len = String.length magic

(* Frame envelope: sync marker, payload length, CRC-32 of the payload,
   then the payload.  The marker is what lenient ingestion scans for
   when resyncing; a false positive in record bytes is harmless because
   a candidate frame is only accepted when its CRC checks out.  See the
   .mli for the payload layout. *)
let sync0 = 0xF5
let sync1 = 0x9E
let max_frame = 1 lsl 24

(* Frames are multi-record, so a corrupt frame already bounds its own
   loss; the chapter only bounds lost-reference blast radius.  The
   default is the maximum chapter size (2^20 records), so a typical
   trace interns each string once — re-introducing the dictionary on
   every small chapter costs bytes on every hot string. *)
let default_chapter = 1 lsl 20

(* Records per frame.  Large enough to amortize the ~16-byte frame
   overhead to noise, small enough that a torn frame loses little and a
   resumed decode re-skips at most this many records. *)
let default_frame_records = 256

exception Corrupt of string
exception Lost_ref of string

(* --- scratch encoder ---

   A growable [Bytes.t] the writer encodes into.  Unlike [Buffer.t] it
   exposes its backing store, so a frame's CRC is computed in place
   ([Crc32.update] over [Bytes.unsafe_to_string]) and the frame goes
   out in one [output] call — no [Buffer.contents] copy per record. *)

type enc = { mutable eb : Bytes.t; mutable elen : int }

let enc_create n = { eb = Bytes.create n; elen = 0 }

let enc_reserve e n =
  let need = e.elen + n in
  if need > Bytes.length e.eb then begin
    let cap = ref (2 * Bytes.length e.eb) in
    while !cap < need do
      cap := 2 * !cap
    done;
    let bigger = Bytes.create !cap in
    Bytes.blit e.eb 0 bigger 0 e.elen;
    e.eb <- bigger
  end

let enc_byte e b =
  enc_reserve e 1;
  Bytes.unsafe_set e.eb e.elen (Char.unsafe_chr (b land 0xFF));
  e.elen <- e.elen + 1

(* [lsr] makes the loop total even when [n]'s sign bit is set, so the
   full 63-bit pattern a zigzagged extreme offset produces round-trips *)
let enc_varbits e n =
  enc_reserve e 10;
  let rec go n =
    if n >= 0 && n < 0x80 then begin
      Bytes.unsafe_set e.eb e.elen (Char.unsafe_chr n);
      e.elen <- e.elen + 1
    end
    else begin
      Bytes.unsafe_set e.eb e.elen (Char.unsafe_chr (0x80 lor (n land 0x7F)));
      e.elen <- e.elen + 1;
      go (n lsr 7)
    end
  in
  go n

let enc_uvarint e n =
  if n < 0 then invalid_arg "Binary_io.write_uvarint: negative";
  enc_varbits e n

(* branch-free zigzag: correct for the whole int range, including
   magnitudes ≥ 2^61 where [n lsl 1] alone would overflow the guard *)
let zigzag n = (n lsl 1) lxor (n asr 62)
let unzigzag n = (n lsr 1) lxor (- (n land 1))

let enc_svarint e n = enc_varbits e (zigzag n)

let enc_string e s =
  let len = String.length s in
  enc_reserve e len;
  Bytes.blit_string s 0 e.eb e.elen len;
  e.elen <- e.elen + len

let enc_output oc e = output oc e.eb 0 e.elen

let chan_varbits oc n =
  let rec go n =
    if n >= 0 && n < 0x80 then output_byte oc n
    else begin
      output_byte oc (0x80 lor (n land 0x7F));
      go (n lsr 7)
    end
  in
  go n

(* --- the frame arena ---

   Records are decoded out of the CRC-checked frame payload, held in a
   reusable [Bytes.t] arena that is refilled frame after frame — the
   stream performs one [really_input] per frame and no per-frame
   allocation. *)

(* The arena fields live flat in the reader (not behind an option):
   [read_byte] runs once per encoded byte, and the flat layout makes it
   a bounds check and an [unsafe_get] with no pointer chase or option
   match — together with the raised [-inline] threshold this is what
   keeps the fused drain in the nanoseconds-per-record range. *)
type reader = {
  mutable sb : Bytes.t;  (* the arena *)
  mutable slen : int;
  mutable spos : int;
  mutable strings : string option array;  (* [None] = lost in a corrupt frame *)
  mutable count : int;
}

let read_byte r =
  let p = r.spos in
  if p >= r.slen then raise (Corrupt "unexpected end of record");
  r.spos <- p + 1;
  Char.code (Bytes.unsafe_get r.sb p)

let read_exact r len =
  let p = r.spos in
  if p + len > r.slen then raise (Corrupt "unexpected end of record");
  r.spos <- p + len;
  Bytes.sub_string r.sb p len

(* Advance past [len] bytes without materializing them. *)
let skip_exact r len =
  if r.spos + len > r.slen then raise (Corrupt "unexpected end of record");
  r.spos <- r.spos + len

(* A top-level loop, not a nested closure: without flambda a nested
   [let rec] capturing [r] allocates on every call, and a record decode
   makes ~10 varint reads — this is the hottest function in the fused
   drain.  The one-byte case (the overwhelming majority: table refs,
   small deltas, field tags) never enters the loop. *)
let rec uvarint_loop r shift acc =
  if shift > 62 then raise (Corrupt "varint overflow");
  let b = read_byte r in
  let acc = acc lor ((b land 0x7F) lsl shift) in
  if b land 0x80 = 0 then acc else uvarint_loop r (shift + 7) acc

let read_uvarint r =
  let b = read_byte r in
  if b < 0x80 then b else uvarint_loop r 7 (b land 0x7F)

let read_svarint r = unzigzag (read_uvarint r)

(* --- string table --- *)

type writer = {
  oc : out_channel;
  chapter_size : int;
  frame_records : int;
  enc : enc;  (* record bytes of the pending frame *)
  head : enc;  (* scratch for the frame's payload header *)
  env : enc;  (* scratch for the frame envelope: sync, length, CRC, header *)
  table : (string, int) Hashtbl.t;
  mutable next_index : int;
  mutable last_ts : int;
  mutable last_pid : int;
  mutable chapter : int;
  mutable in_chapter : int;
  mutable pending : int;  (* records encoded in [enc], awaiting a frame *)
  mutable frame_first : int;  (* in-chapter index of the first pending record *)
  mutable frame_base : int;  (* string-table size when the pending frame began *)
}

let write_string w s =
  match Hashtbl.find_opt w.table s with
  | Some index -> enc_uvarint w.enc (index + 1)
  | None ->
    Hashtbl.add w.table s w.next_index;
    w.next_index <- w.next_index + 1;
    enc_uvarint w.enc 0;
    enc_uvarint w.enc (String.length s);
    enc_string w.enc s

let intern_string r s =
  if r.count = Array.length r.strings then begin
    let bigger = Array.make (max 16 (2 * r.count)) None in
    Array.blit r.strings 0 bigger 0 r.count;
    r.strings <- bigger
  end;
  r.strings.(r.count) <- s;
  r.count <- r.count + 1

let max_string = 1 lsl 20

let lost_ref index =
  Lost_ref (Printf.sprintf "string %d was introduced in a corrupt frame" index)

let read_string r =
  let tag = read_uvarint r in
  if tag = 0 then begin
    let len = read_uvarint r in
    if len > max_string then raise (Corrupt "string too long");
    let s = read_exact r len in
    intern_string r (Some s);
    s
  end
  else begin
    let index = tag - 1 in
    if index >= r.count then raise (Corrupt "string reference out of range");
    match r.strings.(index) with
    | Some s -> s
    | None -> raise (lost_ref index)
  end

(* Like {!read_string}, but never resolves: introductions are interned
   (their bytes skipped in place), references checked without reading
   the string.  The resume skip path and the fused drain use it to keep
   the table in lockstep without touching string contents.  A reference
   to a lost entry raises [Lost_ref] exactly as {!read_string} does, so
   both decoders lose the same records after a lenient skip. *)
let pass_string ~intern r =
  let tag = read_uvarint r in
  if tag = 0 then begin
    let len = read_uvarint r in
    if len > max_string then raise (Corrupt "string too long");
    if intern then intern_string r (Some (read_exact r len)) else skip_exact r len
  end
  else begin
    let index = tag - 1 in
    if index >= r.count then raise (Corrupt "string reference out of range");
    match r.strings.(index) with Some _ -> () | None -> raise (lost_ref index)
  end

(* --- enums --- *)

let variant_index =
  let table = Hashtbl.create 32 in
  List.iteri (fun i v -> Hashtbl.add table v i) Model.all_variants;
  fun v -> Hashtbl.find table v

let variant_of_index =
  let arr = Array.of_list Model.all_variants in
  fun i -> if i < 0 || i >= Array.length arr then raise (Corrupt "bad variant index") else arr.(i)

let errno_index =
  let table = Hashtbl.create 64 in
  List.iteri (fun i e -> Hashtbl.add table e i) Errno.all;
  fun e -> Hashtbl.find table e

let errno_of_index =
  let arr = Array.of_list Errno.all in
  fun i -> if i < 0 || i >= Array.length arr then raise (Corrupt "bad errno index") else arr.(i)

(* --- calls --- *)

let write_byte w b = enc_byte w.enc b

let write_target w = function
  | Model.Path p ->
    write_byte w 0;
    write_string w p
  | Model.Fd fd ->
    write_byte w 1;
    enc_svarint w.enc fd

let read_target r =
  match read_byte r with
  | 0 -> Model.Path (read_string r)
  | 1 -> Model.Fd (read_svarint r)
  | _ -> raise (Corrupt "bad target tag")

let write_call w call =
  enc_uvarint w.enc (variant_index (Model.variant_of_call call));
  match call with
  | Model.Open_call { path; flags; mode; _ } ->
    write_string w path;
    enc_uvarint w.enc flags;
    enc_uvarint w.enc mode
  | Model.Read_call { fd; count; offset; _ } | Model.Write_call { fd; count; offset; _ } ->
    enc_svarint w.enc fd;
    enc_uvarint w.enc count;
    (match offset with Some off -> enc_svarint w.enc off | None -> ())
  | Model.Lseek_call { fd; offset; whence } ->
    enc_svarint w.enc fd;
    enc_svarint w.enc offset;
    write_byte w (Whence.to_code whence)
  | Model.Truncate_call { target; length; _ } ->
    write_target w target;
    enc_svarint w.enc length
  | Model.Mkdir_call { path; mode; _ } ->
    write_string w path;
    enc_uvarint w.enc mode
  | Model.Chmod_call { target; mode; _ } ->
    write_target w target;
    enc_uvarint w.enc mode
  | Model.Close_call { fd } -> enc_svarint w.enc fd
  | Model.Chdir_call { target } -> write_target w target
  | Model.Setxattr_call { target; name; size; flags; _ } ->
    write_target w target;
    write_string w name;
    enc_uvarint w.enc size;
    write_byte w (Xattr_flag.to_code flags)
  | Model.Getxattr_call { target; name; size; _ } ->
    write_target w target;
    write_string w name;
    enc_uvarint w.enc size

let read_call r =
  let variant = variant_of_index (read_uvarint r) in
  match Model.base_of_variant variant with
  | Model.Open ->
    let path = read_string r in
    let flags = read_uvarint r in
    let mode = read_uvarint r in
    (* creat's flags are forced by the constructor; the stored flags are
       authoritative, so bypass the creat rewrite by reconstructing the
       record shape directly through open_ for non-creat variants *)
    Model.open_ ~variant ~flags ~mode path
  | Model.Read | Model.Write ->
    let fd = read_svarint r in
    let count = read_uvarint r in
    let offset =
      match variant with
      | Model.Sys_pread64 | Model.Sys_pwrite64 -> Some (read_svarint r)
      | _ -> None
    in
    if Model.base_of_variant variant = Model.Read then Model.read ~variant ?offset ~fd ~count ()
    else Model.write ~variant ?offset ~fd ~count ()
  | Model.Lseek ->
    let fd = read_svarint r in
    let offset = read_svarint r in
    (match Whence.of_code (read_byte r) with
     | Some whence -> Model.lseek ~fd ~offset ~whence
     | None -> raise (Corrupt "bad whence"))
  | Model.Truncate ->
    let target = read_target r in
    let length = read_svarint r in
    Model.truncate ~variant ~target ~length ()
  | Model.Mkdir ->
    let path = read_string r in
    let mode = read_uvarint r in
    Model.mkdir ~variant ~mode path
  | Model.Chmod ->
    let target = read_target r in
    let mode = read_uvarint r in
    Model.chmod ~variant ~target ~mode ()
  | Model.Close -> Model.close (read_svarint r)
  | Model.Chdir -> Model.chdir (read_target r)
  | Model.Setxattr ->
    let target = read_target r in
    let name = read_string r in
    let size = read_uvarint r in
    (match Xattr_flag.of_code (read_byte r) with
     | Some flags -> Model.setxattr ~variant ~flags ~target ~name ~size ()
     | None -> raise (Corrupt "bad xattr flag"))
  | Model.Getxattr ->
    let target = read_target r in
    let name = read_string r in
    let size = read_uvarint r in
    Model.getxattr ~variant ~target ~name ~size ()

(* Parse a call's fields without building it: every string keeps the
   table in lockstep via {!pass_string}, every number is consumed and
   dropped.  Must mirror {!read_call} shape for shape. *)
let pass_target ~intern r =
  match read_byte r with
  | 0 -> pass_string ~intern r
  | 1 -> ignore (read_svarint r)
  | _ -> raise (Corrupt "bad target tag")

let pass_call ~intern r =
  let variant = variant_of_index (read_uvarint r) in
  match Model.base_of_variant variant with
  | Model.Open ->
    pass_string ~intern r;
    ignore (read_uvarint r);
    ignore (read_uvarint r)
  | Model.Read | Model.Write ->
    ignore (read_svarint r);
    ignore (read_uvarint r);
    (match variant with
     | Model.Sys_pread64 | Model.Sys_pwrite64 -> ignore (read_svarint r)
     | _ -> ())
  | Model.Lseek ->
    ignore (read_svarint r);
    ignore (read_svarint r);
    if Whence.of_code (read_byte r) = None then raise (Corrupt "bad whence")
  | Model.Truncate ->
    pass_target ~intern r;
    ignore (read_svarint r)
  | Model.Mkdir ->
    pass_string ~intern r;
    ignore (read_uvarint r)
  | Model.Chmod ->
    pass_target ~intern r;
    ignore (read_uvarint r)
  | Model.Close -> ignore (read_svarint r)
  | Model.Chdir -> pass_target ~intern r
  | Model.Setxattr ->
    pass_target ~intern r;
    pass_string ~intern r;
    ignore (read_uvarint r);
    if Xattr_flag.of_code (read_byte r) = None then raise (Corrupt "bad xattr flag")
  | Model.Getxattr ->
    pass_target ~intern r;
    pass_string ~intern r;
    ignore (read_uvarint r)

(* --- events, writer side --- *)

let max_chapter_size = 1 lsl 20

let writer ?(chapter = default_chapter) ?(frame = default_frame_records) oc =
  if chapter <= 0 || chapter > max_chapter_size then
    invalid_arg "Binary_io.writer: chapter out of range";
  if frame <= 0 then invalid_arg "Binary_io.writer: frame must be positive";
  output_string oc magic;
  (* the chapter size is part of the header so a reader can map a
     frame's (chapter, in-chapter) pair to an absolute record number —
     the basis for exact loss accounting *)
  chan_varbits oc chapter;
  {
    oc;
    chapter_size = chapter;
    frame_records = min frame chapter;
    enc = enc_create 4096;
    head = enc_create 64;
    env = enc_create 64;
    table = Hashtbl.create 256;
    next_index = 0;
    last_ts = 0;
    last_pid = 0;
    chapter = 0;
    in_chapter = 0;
    pending = 0;
    frame_first = 0;
    frame_base = 0;
  }

(* Record flags byte: the three per-record shape choices packed into
   one byte instead of three tag bytes. *)
let flag_aux = 0x01     (* payload is Aux, not a tracked call *)
let flag_err = 0x02     (* outcome is Err errno, not Ret n *)
let flag_hint = 0x04    (* a path hint follows the flags byte *)

(* Record bytes: exact zigzag deltas for both monotone-ish fields, one
   flags byte replacing the per-field tags, and the hint hoisted ahead
   of the payload so a filtering decoder can drop a record before
   building its call. *)
let encode_record w (e : Event.t) =
  enc_svarint w.enc (e.timestamp_ns - w.last_ts);
  w.last_ts <- e.timestamp_ns;
  enc_svarint w.enc (e.pid - w.last_pid);
  w.last_pid <- e.pid;
  write_string w e.comm;
  let flags =
    (match e.payload with Event.Tracked _ -> 0 | Event.Aux _ -> flag_aux)
    lor (match e.outcome with Model.Ret _ -> 0 | Model.Err _ -> flag_err)
    lor (match e.path_hint with None -> 0 | Some _ -> flag_hint)
  in
  write_byte w flags;
  (match e.path_hint with Some hint -> write_string w hint | None -> ());
  (match e.payload with
   | Event.Tracked call -> write_call w call
   | Event.Aux { name; detail } ->
     write_string w name;
     write_string w detail);
  match e.outcome with
  | Model.Ret n -> enc_svarint w.enc n
  | Model.Err errno -> write_byte w (errno_index errno)

(* Emit the pending records as one frame: header and record bytes are
   CRC'd in place, then the whole envelope — sync marker, length varint,
   CRC, payload header — is assembled in the reusable [env] scratch so a
   frame leaves as two [output] calls (envelope, record bytes) instead
   of one buffered-channel call per envelope byte.  Each channel call
   takes the runtime's channel lock; at 256-record frames the old
   per-byte envelope was the dominant writer cost after encoding. *)
let emit_frame w =
  if w.pending > 0 then begin
    let head = w.head in
    head.elen <- 0;
    enc_uvarint head w.chapter;
    enc_uvarint head w.frame_first;
    enc_uvarint head w.frame_base;
    enc_uvarint head w.pending;
    let crc =
      Crc32.update
        (Crc32.update 0 (Bytes.unsafe_to_string head.eb) ~pos:0 ~len:head.elen)
        (Bytes.unsafe_to_string w.enc.eb) ~pos:0 ~len:w.enc.elen
    in
    let env = w.env in
    env.elen <- 0;
    enc_byte env sync0;
    enc_byte env sync1;
    enc_varbits env (head.elen + w.enc.elen);
    enc_byte env (crc land 0xFF);
    enc_byte env ((crc lsr 8) land 0xFF);
    enc_byte env ((crc lsr 16) land 0xFF);
    enc_byte env ((crc lsr 24) land 0xFF);
    enc_reserve env head.elen;
    Bytes.blit head.eb 0 env.eb env.elen head.elen;
    env.elen <- env.elen + head.elen;
    enc_output w.oc env;
    enc_output w.oc w.enc;
    w.enc.elen <- 0;
    w.pending <- 0
  end

(* chapter rollover: restart the string table so a corrupt frame can
   only orphan references until the next chapter, not to the end of
   the trace.  Frames never span a chapter — the pending frame is
   flushed first, so every frame decodes against one table. *)
let rollover w =
  if w.in_chapter >= w.chapter_size then begin
    emit_frame w;
    Hashtbl.reset w.table;
    w.next_index <- 0;
    w.chapter <- w.chapter + 1;
    w.in_chapter <- 0
  end

let write_event w (e : Event.t) =
  rollover w;
  if w.pending = 0 then begin
    w.frame_first <- w.in_chapter;
    w.frame_base <- w.next_index
  end;
  encode_record w e;
  w.in_chapter <- w.in_chapter + 1;
  w.pending <- w.pending + 1;
  if w.pending >= w.frame_records then emit_frame w

let sink = write_event

let flush w =
  emit_frame w;
  Stdlib.flush w.oc

(* --- events, reader side --- *)

(* --- streaming decode --- *)

type mode = Strict | Lenient of Anomaly.budget

(* The string table makes the decode inherently sequential, but it does
   not make it inherently materializing: a stream hands out events in
   bounded batches, so a multi-million-event trace is processed in
   O(batch) memory. *)
type stream = {
  ic : in_channel;
  mode : mode;
  chapter_size : int;  (* from the header *)
  sr : reader;
  mutable seq : int;
  mutable next_record : int;  (* 0-based absolute index expected next *)
  mutable last_ts : int;
  mutable last_pid : int;
  mutable chapter : int;
  mutable frame_start : int;  (* byte offset of the current frame *)
  mutable frame_count : int;  (* records in the current frame *)
  mutable frame_left : int;  (* records of it not yet delivered *)
  mutable memo : Bytes.t;  (* fused drain: per-string-index hint verdicts *)
  mutable failed : bool;
  mutable eof : bool;
  (* the completeness ledger *)
  mutable produced : int;
  mutable skipped : int;
  mutable regions : int;
  mutable bytes_skipped : int;
  mutable truncated : bool;
  mutable anomaly_count : int;
  mutable anomalies : Anomaly.t list;  (* newest first, capped *)
}

let make_stream ~mode ic ~chapter_size =
  {
    ic;
    mode;
    chapter_size;
    sr =
      {
        sb = Bytes.create 4096;
        slen = 0;
        spos = 0;
        strings = Array.make 256 None;
        count = 0;
      };
    seq = 1;
    next_record = 0;
    last_ts = 0;
    last_pid = 0;
    chapter = 0;
    frame_start = 0;
    frame_count = 0;
    frame_left = 0;
    memo = Bytes.empty;
    failed = false;
    eof = false;
    produced = 0;
    skipped = 0;
    regions = 0;
    bytes_skipped = 0;
    truncated = false;
    anomaly_count = 0;
    anomalies = [];
  }

let read_header_uvarint ic =
  let rec go shift acc =
    if shift > 24 then None
    else
      match In_channel.input_byte ic with
      | None -> None
      | Some b ->
        let acc = acc lor ((b land 0x7F) lsl shift) in
        if b land 0x80 = 0 then Some acc else go (shift + 7) acc
  in
  go 0 0

let open_stream ?(mode = Strict) ic =
  match really_input_string ic magic_len with
  | header when header = magic -> (
    match read_header_uvarint ic with
    | Some cs when cs > 0 && cs <= max_chapter_size ->
      Ok (make_stream ~mode ic ~chapter_size:cs)
    | _ -> Error "corrupt trace header (bad chapter size)")
  | header when String.starts_with ~prefix:magic_prefix header ->
    Error
      (Printf.sprintf
         "v%d binary trace: only v%d is read; re-trace with `iocov trace --binary`"
         (Char.code header.[magic_len - 1])
         version)
  | _ -> Error "not a binary iocov trace (bad magic)"
  | exception End_of_file -> Error "not a binary iocov trace (bad magic)"

let note st ?offset kind detail =
  st.anomaly_count <- st.anomaly_count + 1;
  if st.anomaly_count <= Anomaly.max_kept_anomalies then
    st.anomalies <- Anomaly.v ?offset kind detail :: st.anomalies

(* one skipped record = one metric tick, even when a whole region of
   frames vanished at once and the loss was counted from an index gap *)
let bump_skipped st n =
  st.skipped <- st.skipped + n;
  Metrics.Counter.add m_corrupt n

let completeness st =
  {
    (Anomaly.clean ~events_read:st.produced) with
    Anomaly.records_skipped = st.skipped;
    corrupt_regions = st.regions;
    bytes_skipped = st.bytes_skipped;
    truncated = st.truncated;
    anomalies = List.rev st.anomalies;
  }

(* --- framing --- *)

type frame_read =
  | Frame_eof
  | Frame_ok  (* the arena holds the CRC-valid payload *)
  | Frame_bad of string  (* structural damage: resync candidates move on *)

let read_u32_le ic =
  let b0 = input_byte ic in
  let b1 = input_byte ic in
  let b2 = input_byte ic in
  let b3 = input_byte ic in
  b0 lor (b1 lsl 8) lor (b2 lsl 16) lor (b3 lsl 24)

(* Read one frame at the current position into the arena.  Structural
   failures (bad sync, insane length, short read, CRC mismatch) are
   data, not exceptions: lenient mode treats them as resync triggers. *)
let read_frame st =
  let ic = st.ic in
  match In_channel.input_byte ic with
  | None -> Frame_eof
  | Some b0 -> (
    try
      if b0 <> sync0 then Frame_bad "bad sync marker"
      else if input_byte ic <> sync1 then Frame_bad "bad sync marker"
      else begin
        let len =
          let rec go shift acc =
            if shift > 24 then raise Exit;
            let b = input_byte ic in
            let acc = acc lor ((b land 0x7F) lsl shift) in
            if b land 0x80 = 0 then acc else go (shift + 7) acc
          in
          try go 0 0 with Exit -> -1
        in
        if len < 0 || len > max_frame then Frame_bad "bad frame length"
        else begin
          let crc = read_u32_le ic in
          let f = st.sr in
          if Bytes.length f.sb < len then f.sb <- Bytes.create (max len (2 * Bytes.length f.sb));
          really_input ic f.sb 0 len;
          f.slen <- len;
          f.spos <- 0;
          if Crc32.update 0 (Bytes.unsafe_to_string f.sb) ~pos:0 ~len <> crc then
            Frame_bad "crc mismatch"
          else Frame_ok
        end
      end
    with End_of_file -> Frame_bad "truncated frame")

(* Scan forward for the next CRC-valid frame.  Every candidate either
   validates or advances the scan position by at least one byte, so the
   scan always terminates at EOF. *)
let resync st ~from =
  Metrics.Counter.incr m_resyncs;
  Iocov_obs.Trace_event.instant ~cat:"ingest"
    ~args:[ ("offset", string_of_int from) ]
    "resync";
  st.regions <- st.regions + 1;
  seek_in st.ic from;
  let rec scan () =
    match In_channel.input_byte st.ic with
    | None -> None
    | Some b when b <> sync0 -> scan ()
    | Some _ ->
      let cand = pos_in st.ic - 1 in
      seek_in st.ic cand;
      (match read_frame st with
       | Frame_ok -> Some cand
       | Frame_eof -> None
       | Frame_bad _ ->
         seek_in st.ic (cand + 1);
         scan ())
  in
  scan ()

exception Stream_error of string

let budget_of_mode st = match st.mode with Strict -> Anomaly.Unlimited | Lenient b -> b

let check_budget st ~final =
  let total = st.produced + st.skipped in
  if not (Anomaly.budget_allows (budget_of_mode st) ~bad:st.skipped ~total ~final) then begin
    st.failed <- true;
    let b = budget_of_mode st in
    note st Anomaly.Budget_exceeded
      (Printf.sprintf "%d of %d records corrupt (budget %s)" st.skipped total
         (Anomaly.budget_to_string b));
    raise
      (Stream_error
         (Printf.sprintf "error budget exceeded: %d of %d records corrupt (budget %s)"
            st.skipped total (Anomaly.budget_to_string b)))
  end

let skip_tail st ~from =
  let eof_pos = Int64.to_int (In_channel.length st.ic) in
  st.bytes_skipped <- st.bytes_skipped + max 0 (eof_pos - from);
  Metrics.Counter.add m_bytes_skipped (max 0 (eof_pos - from));
  st.truncated <- true;
  st.eof <- true

(* Parse the header of the CRC-valid frame in the arena and settle the
   loss ledger against its first record index.  On return the frame is
   current: [frame_left] records await decoding at [frame.spos]. *)
let begin_frame st =
  let r = st.sr in
  let chapter = read_uvarint r in
  let first = read_uvarint r in
  let base = read_uvarint r in
  let count = read_uvarint r in
  if count <= 0 then raise (Corrupt "empty frame");
  if first + count > st.chapter_size then raise (Corrupt "in-chapter index out of range");
  let idx = (chapter * st.chapter_size) + first in
  if idx < st.next_record then raise (Corrupt "record index regression");
  let gap = idx - st.next_record in
  if gap > 0 then begin
    (match st.mode with
     | Strict -> raise (Corrupt (Printf.sprintf "%d records missing before this frame" gap))
     | Lenient _ -> bump_skipped st gap)
  end;
  st.next_record <- idx;
  if chapter <> st.chapter then begin
    st.chapter <- chapter;
    r.count <- 0;
    if st.memo <> Bytes.empty then Bytes.fill st.memo 0 (Bytes.length st.memo) '\000'
  end;
  if base > r.count then
    for _ = r.count + 1 to base do
      intern_string r None
    done
  else if base < r.count then raise (Corrupt "string table regression");
  st.frame_count <- count;
  st.frame_left <- count

(* A record failed to decode inside a CRC-valid frame (a dangling
   string reference after lost frames, or writer-side damage).  The
   record boundary is unknown from here on, so the rest of the frame is
   lost with it — an exactly-counted loss, since the header said how
   many records it held. *)
let record_failure st kind reason =
  match st.mode with
  | Strict ->
    st.failed <- true;
    raise (Stream_error (Printf.sprintf "offset %d: %s" st.frame_start reason))
  | Lenient _ ->
    note st ~offset:st.frame_start kind reason;
    let lost = st.frame_left in
    bump_skipped st lost;
    st.next_record <- st.next_record + lost;
    st.frame_left <- 0;
    st.seq <- st.next_record + 1;
    check_budget st ~final:false

(* Make a frame current: resolve EOF, structural damage (resync), and
   header defects until [frame_left > 0] or the stream ends. *)
let rec ensure_frame st =
  if st.eof then false
  else if st.frame_left > 0 then true
  else begin
    let start = pos_in st.ic in
    match read_frame st with
    | Frame_eof ->
      st.eof <- true;
      false
    | Frame_ok -> enter_frame st ~start
    | Frame_bad reason -> (
      match st.mode with
      | Strict ->
        st.failed <- true;
        raise (Stream_error (Printf.sprintf "offset %d: %s" start reason))
      | Lenient _ -> (
        note st ~offset:start Anomaly.Corrupt_record reason;
        match resync st ~from:(start + 1) with
        | None ->
          note st ~offset:start Anomaly.Truncated "no further intact frame";
          skip_tail st ~from:start;
          false
        | Some cand ->
          st.bytes_skipped <- st.bytes_skipped + (cand - start);
          Metrics.Counter.add m_bytes_skipped (cand - start);
          enter_frame st ~start:cand))
  end

and enter_frame st ~start =
  st.frame_start <- start;
  match begin_frame st with
  | () ->
    check_budget st ~final:false;
    true
  | exception (Corrupt reason | Lost_ref reason) -> (
    match st.mode with
    | Strict ->
      st.failed <- true;
      raise (Stream_error (Printf.sprintf "offset %d: %s" start reason))
    | Lenient _ ->
      (* header defect: the record count is unreadable, so the loss is
         unknowable here — the next intact frame's index gap counts it *)
      note st ~offset:start Anomaly.Corrupt_record reason;
      check_budget st ~final:false;
      ensure_frame st)

(* Decode the next record of the current frame into an event. *)
let decode_record st =
  let r = st.sr in
  let idx = st.next_record in
  let ts = st.last_ts + read_svarint r in
  let pid = st.last_pid + read_svarint r in
  let comm = read_string r in
  let flags = read_byte r in
  if flags > 7 then raise (Corrupt "bad record flags");
  let path_hint =
    if flags land flag_hint <> 0 then Some (read_string r) else None
  in
  let payload =
    if flags land flag_aux = 0 then Event.Tracked (read_call r)
    else begin
      let name = read_string r in
      let detail = read_string r in
      Event.Aux { name; detail }
    end
  in
  let outcome =
    if flags land flag_err = 0 then Model.Ret (read_svarint r)
    else Model.Err (errno_of_index (read_byte r))
  in
  st.last_ts <- ts;
  st.last_pid <- pid;
  st.next_record <- idx + 1;
  st.seq <- idx + 2;
  st.frame_left <- st.frame_left - 1;
  st.produced <- st.produced + 1;
  { Event.seq = idx + 1; timestamp_ns = ts; pid; comm; payload; outcome; path_hint }

(* The record pump: one event, or [None] at end of stream.  Strict mode
   turns the first defect into [Stream_error] with its offset; lenient
   mode skips, resyncs, and keeps the ledger. *)
let rec next_event st =
  if ensure_frame st then begin
    match decode_record st with
    | e -> Some e
    | exception Corrupt msg ->
      record_failure st Anomaly.Corrupt_record msg;
      next_event st
    | exception Lost_ref msg ->
      record_failure st Anomaly.Lost_reference msg;
      next_event st
  end
  else None

let wrap_stream_errors st f =
  try f () with
  | Stream_error msg -> Error msg
  | Corrupt msg ->
    st.failed <- true;
    Error msg
  | End_of_file ->
    st.failed <- true;
    Error "truncated binary trace"
  | Invalid_argument msg ->
    st.failed <- true;
    Error ("corrupt record: " ^ msg)

let read_batch st ~max =
  if max <= 0 then invalid_arg "Binary_io.read_batch: max must be positive";
  if st.failed then Error "reading past a decode error"
  else
    wrap_stream_errors st (fun () ->
        let batch = ref [] in
        let n = ref 0 in
        let continue = ref true in
        while !continue && !n < max do
          match next_event st with
          | None -> continue := false
          | Some e ->
            batch := e :: !batch;
            incr n
        done;
        if st.eof then check_budget st ~final:true;
        Ok (Array.of_list (List.rev !batch)))

(* --- the fused drain: wire fields to dense cells, no events --- *)

(* Hint verdict memo, one byte per string-table index of the current
   chapter: 0 unknown, 1 keep, 2 drop.  A verdict can only be cached
   for a string that resolved, so a dangling reference still fails
   loudly on its first use — identical loss accounting to the event
   path. *)
let memo_unknown = '\000'
let memo_keep = '\001'
let memo_drop = '\002'

let memo_slot st i =
  if i >= Bytes.length st.memo then begin
    let bigger = Bytes.make (max 256 (2 * (i + 1))) memo_unknown in
    Bytes.blit st.memo 0 bigger 0 (Bytes.length st.memo);
    st.memo <- bigger
  end;
  Bytes.unsafe_get st.memo i

let memo_set st i v =
  ignore (memo_slot st i);
  Bytes.set st.memo i v

type drained = {
  dr_produced : int;
  dr_kept : int;
  dr_no_hint : int;
  dr_no_match : int;
}

(* Hint verdict of one record, consuming its optional hint field:
   1 keep, 2 drop (hint rejected), 3 drop (no hint under a filter). *)
let classify st ~keep_hint ~flags =
  let r = st.sr in
  if flags land flag_hint = 0 then
    (* no hint: a filter drops the record, no filter keeps it *)
    match keep_hint with None -> 1 | Some _ -> 3
  else
    match keep_hint with
    | None ->
      pass_string ~intern:true r;
      1
    | Some f -> (
      let tag = read_uvarint r in
      if tag = 0 then begin
        let len = read_uvarint r in
        if len > max_string then raise (Corrupt "string too long");
        let s = read_exact r len in
        intern_string r (Some s);
        let keep = f s in
        memo_set st (r.count - 1) (if keep then memo_keep else memo_drop);
        if keep then 1 else 2
      end
      else begin
        let i = tag - 1 in
        if i >= r.count then raise (Corrupt "string reference out of range");
        match memo_slot st i with
        | c when c = memo_keep -> 1
        | c when c = memo_drop -> 2
        | _ -> (
          match r.strings.(i) with
          | None -> raise (lost_ref i)
          | Some s ->
            let keep = f s in
            memo_set st i (if keep then memo_keep else memo_drop);
            if keep then 1 else 2)
      end)

(* Pass over a dropped (or aux) record's payload and outcome, keeping
   only the string table in step. *)
let pass_rest r ~flags =
  (if flags land flag_aux = 0 then pass_call ~intern:true r
   else begin
     pass_string ~intern:true r;
     pass_string ~intern:true r
   end);
  if flags land flag_err = 0 then ignore (read_svarint r) else ignore (read_byte r)

let finish_record st ~idx ~ts ~pid =
  st.last_ts <- ts;
  st.last_pid <- pid;
  st.next_record <- idx + 1;
  st.seq <- idx + 2;
  st.frame_left <- st.frame_left - 1;
  st.produced <- st.produced + 1

(* wire variant index → plan cell / base / has-an-offset-field,
   precomputed so the plan-direct dispatch is three array reads *)
let dense_variant_cell = Array.of_list (List.map Plan.variant_cell Model.all_variants)
let dense_variant_base = Array.of_list (List.map Model.base_of_variant Model.all_variants)

let dense_variant_offset =
  Array.of_list
    (List.map
       (function Model.Sys_pread64 | Model.Sys_pwrite64 -> true | _ -> false)
       Model.all_variants)

let dense_errnos = List.length Errno.all

let read_outcome_cell r ~flags base =
  if flags land flag_err = 0 then Plan.ret_output_cell base (read_svarint r)
  else begin
    let i = read_byte r in
    (* the wire errno index is {!Errno.index}, which is also the plan's
       err-cell offset — validated, then used as-is *)
    if i >= dense_errnos then raise (Corrupt "bad errno index");
    Plan.err_output_cell base i
  end

(* A kept tracked record, plan-direct: raw wire fields map straight to
   dense cell IDs through {!Plan}'s raw-field slots — no [Model.call]
   is ever built.  Field order and every validation mirrors
   {!read_call}, and all bumps happen only after the whole record
   decoded, so a record that fails mid-decode contributes nothing —
   the same per-record atomicity as the event path. *)
let drain_tracked_dense st d ~flags =
  let r = st.sr in
  let vi = read_uvarint r in
  if vi >= Array.length dense_variant_cell then raise (Corrupt "bad variant index");
  let vcell = Array.unsafe_get dense_variant_cell vi in
  let base = Array.unsafe_get dense_variant_base vi in
  (* every bump goes through the accumulator's pre-bound closure — one
     existing closure, nothing allocated per record (a local helper
     capturing the counter array would be) *)
  let inc = Dense.bumper d in
  match base with
  | Model.Open ->
    pass_string ~intern:true r;
    let oflags = read_uvarint r in
    let mode = read_uvarint r in
    let ocell = read_outcome_cell r ~flags base in
    Dense.count_call d;
    inc vcell;
    Plan.iter_open_slots ~flags:oflags ~mode inc;
    Dense.observe_open_mask d oflags;
    inc ocell
  | Model.Read ->
    ignore (read_svarint r);
    let count = read_uvarint r in
    let off_slot =
      if Array.unsafe_get dense_variant_offset vi then Plan.read_offset_slot (read_svarint r)
      else -1
    in
    let ocell = read_outcome_cell r ~flags base in
    Dense.count_call d;
    inc vcell;
    inc (Plan.read_count_slot count);
    if off_slot >= 0 then inc off_slot;
    inc ocell
  | Model.Write ->
    ignore (read_svarint r);
    let count = read_uvarint r in
    let off_slot =
      if Array.unsafe_get dense_variant_offset vi then Plan.write_offset_slot (read_svarint r)
      else -1
    in
    let ocell = read_outcome_cell r ~flags base in
    Dense.count_call d;
    inc vcell;
    inc (Plan.write_count_slot count);
    if off_slot >= 0 then inc off_slot;
    inc ocell
  | Model.Lseek ->
    ignore (read_svarint r);
    let offset = read_svarint r in
    let code = read_byte r in
    if Whence.of_code code = None then raise (Corrupt "bad whence");
    let ocell = read_outcome_cell r ~flags base in
    Dense.count_call d;
    inc vcell;
    inc (Plan.lseek_offset_slot offset);
    inc (Plan.lseek_whence_slot code);
    inc ocell
  | Model.Truncate ->
    pass_target ~intern:true r;
    let length = read_svarint r in
    let ocell = read_outcome_cell r ~flags base in
    Dense.count_call d;
    inc vcell;
    inc (Plan.truncate_length_slot length);
    inc ocell
  | Model.Mkdir ->
    pass_string ~intern:true r;
    let mode = read_uvarint r in
    let ocell = read_outcome_cell r ~flags base in
    Dense.count_call d;
    inc vcell;
    Plan.iter_mkdir_mode_slots mode inc;
    inc ocell
  | Model.Chmod ->
    pass_target ~intern:true r;
    let mode = read_uvarint r in
    let ocell = read_outcome_cell r ~flags base in
    Dense.count_call d;
    inc vcell;
    Plan.iter_chmod_mode_slots mode inc;
    inc ocell
  | Model.Close ->
    ignore (read_svarint r);
    let ocell = read_outcome_cell r ~flags base in
    Dense.count_call d;
    inc vcell;
    inc ocell
  | Model.Chdir ->
    pass_target ~intern:true r;
    let ocell = read_outcome_cell r ~flags base in
    Dense.count_call d;
    inc vcell;
    inc ocell
  | Model.Setxattr ->
    pass_target ~intern:true r;
    pass_string ~intern:true r;
    let size = read_uvarint r in
    let code = read_byte r in
    if Xattr_flag.of_code code = None then raise (Corrupt "bad xattr flag");
    let ocell = read_outcome_cell r ~flags base in
    Dense.count_call d;
    inc vcell;
    inc (Plan.setxattr_size_slot size);
    inc (Plan.setxattr_flag_slot code);
    inc ocell
  | Model.Getxattr ->
    pass_target ~intern:true r;
    pass_string ~intern:true r;
    let size = read_uvarint r in
    let ocell = read_outcome_cell r ~flags base in
    Dense.count_call d;
    inc vcell;
    inc (Plan.getxattr_size_slot size);
    inc ocell

(* One record, fused: classify by hint first, then either decode a kept
   tracked record straight into dense plan-cell bumps or pass over the
   record keeping only the string table in step.  Aux records are
   classified (they count as kept/dropped like any record) but bump no
   cell. *)
let drain_record_dense st ~keep_hint d =
  let r = st.sr in
  let idx = st.next_record in
  let ts = st.last_ts + read_svarint r in
  let pid = st.last_pid + read_svarint r in
  pass_string ~intern:true r;  (* comm *)
  let flags = read_byte r in
  if flags > 7 then raise (Corrupt "bad record flags");
  let verdict = classify st ~keep_hint ~flags in
  (if verdict = 1 && flags land flag_aux = 0 then drain_tracked_dense st d ~flags
   else pass_rest r ~flags);
  finish_record st ~idx ~ts ~pid;
  verdict

let drain_batch_dense st ?keep_hint ~dense ~max () =
  if max <= 0 then invalid_arg "Binary_io.drain_batch_dense: max must be positive";
  if keep_hint <> None && st.memo = Bytes.empty then
    st.memo <- Bytes.make 256 memo_unknown;
  if st.failed then Error "reading past a decode error"
  else
    wrap_stream_errors st (fun () ->
        let produced = ref 0 and kept = ref 0 and no_hint = ref 0 and no_match = ref 0 in
        let continue = ref true in
        while !continue && !produced < max do
          if ensure_frame st then begin
            (* one exception handler per frame run, not per record — a
               mid-frame failure voids the rest of the frame anyway
               (see {!record_failure}), so nothing after the failing
               record would have decoded either way *)
            let budget = min st.frame_left (max - !produced) in
            match
              for _ = 1 to budget do
                let verdict = drain_record_dense st ~keep_hint dense in
                incr produced;
                if verdict = 1 then incr kept
                else if verdict = 2 then incr no_match
                else incr no_hint
              done
            with
            | () -> ()
            | exception Corrupt msg -> record_failure st Anomaly.Corrupt_record msg
            | exception Lost_ref msg -> record_failure st Anomaly.Lost_reference msg
          end
          else continue := false
        done;
        if st.eof then check_budget st ~final:true;
        Ok
          {
            dr_produced = !produced;
            dr_kept = !kept;
            dr_no_hint = !no_hint;
            dr_no_match = !no_match;
          })

let fold_channel ic ~init ~f =
  match open_stream ic with
  | Error msg -> Error msg
  | Ok st ->
    let rec go acc =
      match read_batch st ~max:4096 with
      | Error msg -> Error msg
      | Ok batch when Array.length batch = 0 -> Ok acc
      | Ok batch -> go (Array.fold_left f acc batch)
    in
    go init

let read_channel ic =
  Result.map List.rev (fold_channel ic ~init:[] ~f:(fun acc e -> e :: acc))

(* Any version byte after the prefix counts: a v1/v2 file must reach
   {!open_stream}, which refuses it by name. *)
let is_binary_trace ic =
  let pos = In_channel.pos ic in
  let result =
    try
      String.starts_with ~prefix:magic_prefix (really_input_string ic magic_len)
    with End_of_file -> false
  in
  In_channel.seek ic pos;
  result

(* --- cursors: suspend and resume a decode --- *)

type cursor = {
  c_offset : int;
  c_seq : int;
  c_last_ts : int;
  c_last_pid : int;
  c_chapter : int;
  c_skip : int;
  c_strings : string option array;
}

let cursor st =
  let mid_frame = st.frame_left > 0 in
  {
    c_offset = (if mid_frame then st.frame_start else pos_in st.ic);
    c_seq = st.seq;
    c_last_ts = st.last_ts;
    c_last_pid = st.last_pid;
    c_chapter = st.chapter;
    c_skip = (if mid_frame then st.frame_count - st.frame_left else 0);
    c_strings = Array.sub st.sr.strings 0 st.sr.count;
  }

(* Skip one already-delivered record of a re-read frame.  The cursor's
   string table already holds every string the skipped records
   introduced, so introductions pass by without interning and the
   deltas are discarded — the cursor carries the authoritative
   [last_ts]/[last_pid]. *)
let skip_record r =
  ignore (read_uvarint r);  (* ts delta *)
  ignore (read_uvarint r);  (* pid delta *)
  pass_string ~intern:false r;  (* comm *)
  let flags = read_byte r in
  if flags > 7 then raise (Corrupt "bad record flags");
  if flags land flag_hint <> 0 then pass_string ~intern:false r;
  (if flags land flag_aux = 0 then pass_call ~intern:false r
   else begin
     pass_string ~intern:false r;
     pass_string ~intern:false r
   end);
  if flags land flag_err = 0 then ignore (read_svarint r)
  else ignore (read_byte r)

(* Re-enter the frame a mid-frame cursor points at: re-read it, verify
   it still matches the cursor, and pass over the records the
   checkpointed run already delivered. *)
let reenter_frame st cur =
  seek_in st.ic cur.c_offset;
  match read_frame st with
  | Frame_eof | Frame_bad _ -> Error "checkpoint points at a damaged frame"
  | Frame_ok -> (
    let r = st.sr in
    try
      let chapter = read_uvarint r in
      let first = read_uvarint r in
      let base = read_uvarint r in
      let count = read_uvarint r in
      let idx = (chapter * st.chapter_size) + first in
      if
        chapter <> cur.c_chapter || cur.c_skip >= count
        || idx + cur.c_skip <> cur.c_seq - 1
        || base > r.count
      then Error "checkpoint does not match the trace frame"
      else begin
        for _ = 1 to cur.c_skip do
          skip_record r
        done;
        st.frame_start <- cur.c_offset;
        st.frame_count <- count;
        st.frame_left <- count - cur.c_skip;
        Ok ()
      end
    with Corrupt msg | Lost_ref msg ->
      Error ("checkpoint frame re-read failed: " ^ msg))

let resume_stream ?(mode = Strict) ic cur =
  match open_stream ~mode ic with
  | Error _ as e -> e
  | Ok st ->
    let header_end = pos_in ic in
    if cur.c_offset < header_end || cur.c_offset > Int64.to_int (In_channel.length ic) then
      Error (Printf.sprintf "checkpoint offset %d is outside the trace" cur.c_offset)
    else begin
      seek_in ic cur.c_offset;
      st.seq <- cur.c_seq;
      st.next_record <- max 0 (cur.c_seq - 1);
      st.last_ts <- cur.c_last_ts;
      st.last_pid <- cur.c_last_pid;
      st.chapter <- cur.c_chapter;
      let n = Array.length cur.c_strings in
      st.sr.strings <- Array.make (max 256 n) None;
      Array.blit cur.c_strings 0 st.sr.strings 0 n;
      st.sr.count <- n;
      if cur.c_skip > 0 then
        match reenter_frame st cur with Error _ as e -> e | Ok () -> Ok st
      else Ok st
    end
