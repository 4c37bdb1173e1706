open Iocov_syscall

let magic = "iocov-coverage v1"

(* One emitter serves both the channel and string forms. *)
let emit put cov =
  put (magic ^ "\n");
  put (Printf.sprintf "calls %d\n" (Coverage.calls_observed cov));
  List.iter
    (fun (v, n) -> put (Printf.sprintf "variant %s %d\n" (Model.variant_name v) n))
    (Coverage.variant_histogram cov);
  List.iter
    (fun arg ->
      List.iter
        (fun (part, n) ->
          put
            (Printf.sprintf "input %s %s %d\n" (Arg_class.name arg) (Partition.label part) n))
        (Coverage.input_histogram cov arg))
    Arg_class.all;
  List.iter
    (fun base ->
      List.iter
        (fun (out, n) ->
          if n > 0 then
            put
              (Printf.sprintf "output %s %s %d\n" (Model.base_name base)
                 (Partition.output_token out) n))
        (Coverage.output_histogram cov base))
    Model.all_bases;
  (* Crash lines only when non-zero, so snapshots of runs that never
     touched the crash engine stay byte-identical to the v1 format. *)
  List.iter
    (fun ((mode, outcome), n) ->
      if n > 0 then
        put
          (Printf.sprintf "crash %s %s %d\n"
             (Partition.crash_mode_label mode)
             (Partition.crash_outcome_label outcome)
             n))
    (Coverage.crash_series cov);
  List.iter
    (fun (mask, n) -> put (Printf.sprintf "flagset %s %d\n" (Open_flags.to_string mask) n))
    (Coverage.open_flag_sets cov)

let save oc cov =
  emit (output_string oc) cov;
  flush oc

let save_file path cov =
  let oc = open_out path in
  Fun.protect ~finally:(fun () -> close_out oc) (fun () -> save oc cov)

let to_string cov =
  let buf = Buffer.create 4096 in
  emit (Buffer.add_string buf) cov;
  Buffer.contents buf

(* The text is fed to the CRC line by line and never built: its buffer
   would be allocated, and grown, directly in the major heap on every
   digest. *)
let digest cov =
  let crc = ref 0 in
  emit (fun s -> crc := Iocov_util.Crc32.update !crc s ~pos:0 ~len:(String.length s)) cov;
  Printf.sprintf "%08x" !crc

let ( let* ) = Result.bind

let parse_count s =
  match int_of_string_opt s with
  | Some n when n >= 0 -> Ok n
  | _ -> Error (Printf.sprintf "bad count %S" s)

let parse_line cov line =
  match String.split_on_char ' ' line with
  | [ "calls"; n ] ->
    let* n = parse_count n in
    Ok (Coverage.add_calls cov n)
  | [ "variant"; name; n ] ->
    let* n = parse_count n in
    (match Model.variant_of_name name with
     | Some v -> Ok (Coverage.add_variant cov v n)
     | None -> Error (Printf.sprintf "unknown variant %S" name))
  | [ "input"; arg_name; token; n ] ->
    let* n = parse_count n in
    (match (Arg_class.of_name arg_name, Partition.of_label token) with
     | Some arg, Some part -> Ok (Coverage.add_input cov arg part n)
     | None, _ -> Error (Printf.sprintf "unknown argument %S" arg_name)
     | _, None -> Error (Printf.sprintf "unknown partition %S" token))
  | [ "output"; base_name; token; n ] ->
    let* n = parse_count n in
    (match (Model.base_of_name base_name, Partition.output_of_token token) with
     | Some base, Some out -> Ok (Coverage.add_output cov base out n)
     | None, _ -> Error (Printf.sprintf "unknown syscall %S" base_name)
     | _, None -> Error (Printf.sprintf "unknown output %S" token))
  | [ "crash"; mode_s; outcome_s; n ] ->
    let* n = parse_count n in
    (match (Partition.crash_mode_of_label mode_s, Partition.crash_outcome_of_label outcome_s) with
     | Some mode, Some outcome -> Ok (Coverage.add_crash cov mode outcome n)
     | None, _ -> Error (Printf.sprintf "unknown journal mode %S" mode_s)
     | _, None -> Error (Printf.sprintf "unknown crash outcome %S" outcome_s))
  | [ "flagset"; mask_s; n ] ->
    let* n = parse_count n in
    (match Open_flags.of_string mask_s with
     | Some mask -> Ok (Coverage.add_flag_set cov mask n)
     | None -> Error (Printf.sprintf "bad flag set %S" mask_s))
  | _ -> Error (Printf.sprintf "unrecognized line %S" line)

(* Shared line-stream parser: [next ()] yields lines until [None]. *)
let parse_stream next =
  match next () with
  | Some first when String.trim first = magic ->
    let cov = Coverage.create () in
    let rec go lineno =
      match next () with
      | None -> Ok cov
      | Some line ->
        let line = String.trim line in
        if line = "" || line.[0] = '#' then go (lineno + 1)
        else begin
          match parse_line cov line with
          | Ok () -> go (lineno + 1)
          | Error msg -> Error (Printf.sprintf "line %d: %s" lineno msg)
        end
    in
    go 2
  | Some other -> Error (Printf.sprintf "bad header %S (expected %S)" other magic)
  | None -> Error "empty snapshot"

let load ic = parse_stream (fun () -> In_channel.input_line ic)

let load_file path =
  let ic = open_in path in
  Fun.protect ~finally:(fun () -> close_in ic) (fun () -> load ic)

let of_string s =
  let lines = ref (String.split_on_char '\n' s) in
  parse_stream (fun () ->
      match !lines with
      | [] -> None
      | [ "" ] -> None  (* trailing newline *)
      | line :: rest ->
        lines := rest;
        Some line)

let equal a b =
  Coverage.calls_observed a = Coverage.calls_observed b
  && Coverage.variant_histogram a = Coverage.variant_histogram b
  && Coverage.open_flag_sets a = Coverage.open_flag_sets b
  && List.for_all
       (fun arg -> Coverage.input_histogram a arg = Coverage.input_histogram b arg)
       Arg_class.all
  && List.for_all
       (fun base -> Coverage.output_histogram a base = Coverage.output_histogram b base)
       Model.all_bases
  && Coverage.crash_series a = Coverage.crash_series b
