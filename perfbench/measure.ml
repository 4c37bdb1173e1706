(* Clocks, sample statistics, process figures and scratch files shared by
   every workload. *)

(* CLOCK_MONOTONIC in nanoseconds; unboxed and allocation-free. *)
let now_ns () = Int64.to_int (Monotonic_clock.now ())

let seconds_between t0 t1 = float_of_int (t1 - t0) *. 1e-9

(* Minor-heap words allocated so far by this domain. *)
let minor_words () = Gc.minor_words ()

(* --- samples --- *)

type samples = { mutable data : float array; mutable len : int }

let samples () = { data = Array.make 1024 0.0; len = 0 }

let push s x =
  if s.len = Array.length s.data then begin
    let bigger = Array.make (2 * s.len) 0.0 in
    Array.blit s.data 0 bigger 0 s.len;
    s.data <- bigger
  end;
  s.data.(s.len) <- x;
  s.len <- s.len + 1

let count s = s.len

let sum s =
  let t = ref 0.0 in
  for i = 0 to s.len - 1 do
    t := !t +. s.data.(i)
  done;
  !t

let sorted s =
  let a = Array.sub s.data 0 s.len in
  Array.sort Float.compare a;
  a

let median_of_sorted a =
  let n = Array.length a in
  if n = 0 then nan
  else if n mod 2 = 1 then a.(n / 2)
  else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.0

let median s = median_of_sorted (sorted s)

(* Nearest-rank percentile: with n samples, [p = 0.99] leaves
   n - ceil(0.99 n) samples above it — ten or more once n >= 1000. *)
let percentile s p =
  let a = sorted s in
  let n = Array.length a in
  if n = 0 then nan
  else a.(max 0 (min (n - 1) (int_of_float (Float.ceil (p *. float_of_int n)) - 1)))

let beyond_p99 n = n - int_of_float (Float.ceil (0.99 *. float_of_int n))

(* The median of the p99s of consecutive windows of [window] samples
   (the last window takes the remainder), so that a stretch of
   interference from outside the process sets the p99 of its own
   windows only.  With [window] >= 1000 every window leaves ten samples
   beyond its p99. *)
let windowed_p99 s ~window =
  let w = samples () in
  let windows = max 1 (s.len / window) in
  for i = 0 to windows - 1 do
    let lo = i * window in
    let len = if i = windows - 1 then s.len - lo else window in
    push w (percentile { data = Array.sub s.data lo len; len } 0.99)
  done;
  median w

let ratio a b = if b = 0 then 0.0 else float_of_int a /. float_of_int b

(* --- the process --- *)

(* Peak resident set (VmHWM) in MiB. *)
let peak_rss_mb () =
  let from_status () =
    In_channel.with_open_text "/proc/self/status" (fun ic ->
        let rec scan () =
          match In_channel.input_line ic with
          | None -> None
          | Some line when String.starts_with ~prefix:"VmHWM:" line ->
            Scanf.sscanf (String.sub line 6 (String.length line - 6)) " %d kB"
              (fun kb -> Some (float_of_int kb /. 1024.0))
          | Some _ -> scan ()
        in
        scan ())
  in
  match (try from_status () with Sys_error _ -> None) with
  | Some mb -> mb
  | None ->
    float_of_int ((Gc.quick_stat ()).Gc.top_heap_words * (Sys.word_size / 8))
    /. 1048576.0

(* Start the peak over from here: collect the set-up's garbage, then
   have the kernel reset VmHWM to the current resident set (writing "5"
   to the process's own clear_refs, Linux 4.0 and later), so that
   [peak_rss_mb] covers what follows.  Where the kernel refuses, the
   peak keeps covering the whole process.  Prints the new starting
   point, so a run shows whether its timed phase raised the peak. *)
let reset_peak_rss () =
  let before = peak_rss_mb () in
  Gc.compact ();
  (try Out_channel.with_open_text "/proc/self/clear_refs" (fun oc -> output_string oc "5")
   with Sys_error _ -> ());
  Printf.printf "peak resident set %.1f MiB after set-up, reset to %.1f MiB\n%!" before
    (peak_rss_mb ())

(* --- scratch files (always below the working directory) --- *)

let rec rm_rf path =
  match Sys.is_directory path with
  | true ->
    Array.iter (fun f -> rm_rf (Filename.concat path f)) (Sys.readdir path);
    Sys.rmdir path
  | false -> Sys.remove path
  | exception Sys_error _ -> ()

let rec mkdir_p dir =
  if not (Sys.file_exists dir) then begin
    mkdir_p (Filename.dirname dir);
    try Sys.mkdir dir 0o755 with Sys_error _ when Sys.file_exists dir -> ()
  end

let file_size path = (Unix.stat path).Unix.st_size

(* XOR one bit of the byte at [pos] — a single-bit storage defect. *)
let flip_byte path pos =
  let fd = Unix.openfile path [ Unix.O_RDWR ] 0 in
  Fun.protect
    ~finally:(fun () -> Unix.close fd)
    (fun () ->
      let b = Bytes.create 1 in
      ignore (Unix.lseek fd pos Unix.SEEK_SET);
      if Unix.read fd b 0 1 <> 1 then failwith "flip_byte: short read";
      Bytes.set b 0 (Char.chr (Char.code (Bytes.get b 0) lxor 0x10));
      ignore (Unix.lseek fd pos Unix.SEEK_SET);
      if Unix.write fd b 0 1 <> 1 then failwith "flip_byte: short write")
