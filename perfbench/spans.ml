(* The traced run's span recorder.

   Spans are opened and closed by the benchmark's own code around its
   calls into iocov's public functions; nothing inside the program is
   instrumented.  Each span keeps its layer, start, stop, parent and the
   minor-heap word count at both ends, in flat arrays (no allocation per
   span once the arrays have grown).  They stay in memory until the run
   ends and are then written out as Chrome trace events.  A layer's self
   time is the time of its spans minus the part their children cover. *)

type layer =
  | Iteration  (** one CLI-equivalent command, or one serve poll step *)
  | Runner  (** one lattice point's [Runner.run], composed from its parts *)
  | Suites  (** [Xfstests.run] / [Crashmonkey.run]: generator, VFS, tracer *)
  | Filter  (** [Filter.keeps] over one dispatched batch *)
  | Driver  (** [Replay.sink] over a batch, [Replay.complete], replay glue *)
  | Binary_io  (** one [Binary_io.drain_batch_dense] batch *)
  | To_reference  (** [Coverage.Dense.to_reference] *)
  | Dense_snapshot  (** [Coverage.Dense.snapshot], the epoch copy *)
  | Digest  (** [Ledger.digest]: snapshot text and CRC *)
  | Bitmap  (** [Ledger.bitmap] *)
  | Report  (** the [Report] renderers the command prints *)
  | Ledger_append  (** [Ledger.append] *)
  | Hub_commit  (** a session batch folded into the tenant accumulator *)
  | Hub_ingest  (** [Hub.ingest_step] *)
  | Hub_query  (** [Hub.query] *)

let all =
  [| Iteration; Runner; Suites; Filter; Driver; Binary_io; To_reference;
     Dense_snapshot; Digest; Bitmap; Report; Ledger_append; Hub_commit;
     Hub_ingest; Hub_query |]

(* position in [all] *)
let index = function
  | Iteration -> 0
  | Runner -> 1
  | Suites -> 2
  | Filter -> 3
  | Driver -> 4
  | Binary_io -> 5
  | To_reference -> 6
  | Dense_snapshot -> 7
  | Digest -> 8
  | Bitmap -> 9
  | Report -> 10
  | Ledger_append -> 11
  | Hub_commit -> 12
  | Hub_ingest -> 13
  | Hub_query -> 14

let name = function
  | Iteration -> "iteration"
  | Runner -> "runner"
  | Suites -> "suites"
  | Filter -> "filter"
  | Driver -> "driver"
  | Binary_io -> "binary_io"
  | To_reference -> "coverage.to_reference"
  | Dense_snapshot -> "coverage.snapshot"
  | Digest -> "ledger.digest"
  | Bitmap -> "ledger.bitmap"
  | Report -> "report"
  | Ledger_append -> "ledger.append"
  | Hub_commit -> "hub.commit"
  | Hub_ingest -> "hub.ingest_step"
  | Hub_query -> "hub.query"

type t = {
  mutable layer : int array;
  mutable start : int array;
  mutable stop : int array;
  mutable parent : int array;
  mutable w_start : float array;
  mutable w_stop : float array;
  mutable n : int;
  mutable current : int;  (* innermost open span, -1 at top level *)
}

let rec_ =
  { layer = [||]; start = [||]; stop = [||]; parent = [||]; w_start = [||];
    w_stop = [||]; n = 0; current = -1 }

let grow () =
  let cap = max 4096 (2 * rec_.n) in
  let extend a fill =
    let b = Array.make cap fill in
    Array.blit a 0 b 0 rec_.n;
    b
  in
  rec_.layer <- extend rec_.layer 0;
  rec_.start <- extend rec_.start 0;
  rec_.stop <- extend rec_.stop 0;
  rec_.parent <- extend rec_.parent 0;
  rec_.w_start <- extend rec_.w_start 0.0;
  rec_.w_stop <- extend rec_.w_stop 0.0

let enter l =
  if rec_.n = Array.length rec_.layer then grow ();
  let i = rec_.n in
  rec_.n <- i + 1;
  rec_.layer.(i) <- index l;
  rec_.parent.(i) <- rec_.current;
  rec_.current <- i;
  rec_.w_start.(i) <- Measure.minor_words ();
  rec_.start.(i) <- Measure.now_ns ();
  i

let leave i =
  rec_.stop.(i) <- Measure.now_ns ();
  rec_.w_stop.(i) <- Measure.minor_words ();
  rec_.current <- rec_.parent.(i)

let span l f =
  let i = enter l in
  match f () with
  | v ->
    leave i;
    v
  | exception e ->
    leave i;
    raise e

(* --- aggregation --- *)

type total = {
  mutable spans : int;
  mutable incl_ns : int;  (* span time, children included *)
  mutable self_ns : int;
  mutable self_words : float;
}

let totals () =
  let n = rec_.n in
  let child_ns = Array.make n 0 and child_words = Array.make n 0.0 in
  for i = 0 to n - 1 do
    let p = rec_.parent.(i) in
    if p >= 0 then begin
      child_ns.(p) <- child_ns.(p) + (rec_.stop.(i) - rec_.start.(i));
      child_words.(p) <- child_words.(p) +. (rec_.w_stop.(i) -. rec_.w_start.(i))
    end
  done;
  let t = Array.map (fun _ -> { spans = 0; incl_ns = 0; self_ns = 0; self_words = 0.0 }) all in
  for i = 0 to n - 1 do
    let a = t.(rec_.layer.(i)) in
    let d = rec_.stop.(i) - rec_.start.(i) in
    a.spans <- a.spans + 1;
    a.incl_ns <- a.incl_ns + d;
    a.self_ns <- a.self_ns + d - child_ns.(i);
    a.self_words <- a.self_words +. (rec_.w_stop.(i) -. rec_.w_start.(i)) -. child_words.(i)
  done;
  t

let get t l = t.(index l)

(* Wall clock covered by top-level spans. *)
let traced_wall_ns () =
  let w = ref 0 in
  for i = 0 to rec_.n - 1 do
    if rec_.parent.(i) < 0 then w := !w + (rec_.stop.(i) - rec_.start.(i))
  done;
  !w

(* Every span as a Chrome trace event (load in chrome://tracing or
   Perfetto); times in microseconds from the first span. *)
let write_trace_events path =
  let t0 = if rec_.n > 0 then rec_.start.(0) else 0 in
  Out_channel.with_open_text path (fun oc ->
      output_string oc "{\"traceEvents\":[\n";
      for i = 0 to rec_.n - 1 do
        Printf.fprintf oc
          "%s{\"name\":\"%s\",\"ph\":\"X\",\"pid\":1,\"tid\":1,\"ts\":%.3f,\"dur\":%.3f,\
           \"args\":{\"id\":%d,\"parent\":%d,\"minor_words\":%.0f}}\n"
          (if i = 0 then "" else ",")
          (name all.(rec_.layer.(i)))
          (float_of_int (rec_.start.(i) - t0) /. 1e3)
          (float_of_int (rec_.stop.(i) - rec_.start.(i)) /. 1e3)
          i rec_.parent.(i)
          (rec_.w_stop.(i) -. rec_.w_start.(i))
      done;
      output_string oc "]}\n")
