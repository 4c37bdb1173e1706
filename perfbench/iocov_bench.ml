(* iocov's benchmark: four single-threaded workloads over the live,
   lattice, replay and serve paths (README.md).

     iocov_bench.exe --workload NAME --seed N --seconds S --trace 0|1
                     [--plant flip-byte|wrong-digest]

   The last line of standard output is one JSON object:
   {"correct": .., "attempted": .., "failed": .., "metrics": {..}} —
   end-to-end metrics with --trace 0, per-layer metrics with --trace 1.
   The exit code is 0 when every correctness check passed, 1 when one
   failed, 2 on a usage error. *)

let workloads =
  [ ("live-xfstests", fun conf -> Live.run conf Live.xfstests);
    ("lattice-crashmonkey", fun conf -> Live.run conf Live.lattice);
    ("replay-v3", Replay_v3.run);
    ("serve-poll", Serve_poll.run) ]

let usage () =
  prerr_endline
    "usage: iocov_bench.exe --workload NAME --seed N --seconds S --trace 0|1 \
     [--plant flip-byte|wrong-digest]";
  prerr_endline ("workloads: " ^ String.concat ", " (List.map fst workloads));
  exit 2

(* Numbers as measured, with all their digits. *)
let json_number x =
  if Float.is_integer x && Float.abs x < 1e15 then Printf.sprintf "%.1f" x
  else Printf.sprintf "%.17g" x

let print_result (o : Run.outcome) =
  let metrics =
    List.map
      (fun (name, value, unit) ->
        let value =
          if Float.is_finite value then value
          else begin
            Run.mismatch o "%s was not measured" name;
            0.0
          end
        in
        Printf.sprintf "%S: {\"value\": %s, \"unit\": %S}" name (json_number value) unit)
      o.Run.metrics
  in
  Printf.printf "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}\n%!"
    o.Run.correct (max 1 o.Run.attempted) o.Run.failed (String.concat ", " metrics)

let () =
  let workload = ref "" and seed = ref (-1) and seconds = ref 0.0 and trace = ref (-1) in
  let plant = ref Run.No_plant in
  let spec =
    [ ("--workload", Arg.Set_string workload, "NAME workload to run");
      ("--seed", Arg.Set_int seed, "N input seed (42 is the reference)");
      ("--seconds", Arg.Set_float seconds, "S length of the timed phase");
      ("--trace", Arg.Set_int trace, "0|1 end-to-end (0) or per-layer (1) metrics");
      ( "--plant",
        Arg.Symbol
          ( [ "flip-byte"; "wrong-digest" ],
            function
            | "flip-byte" -> plant := Run.Flip_byte
            | _ -> plant := Run.Wrong_digest ),
        " plant a defect the correctness checks must catch" ) ]
  in
  Arg.parse spec (fun _ -> usage ()) "iocov_bench.exe";
  let run =
    match List.assoc_opt !workload workloads with
    | Some run when !seed >= 0 && !seconds > 0.0 && (!trace = 0 || !trace = 1) -> run
    | _ -> usage ()
  in
  let work =
    Filename.concat ".perfbench" (Printf.sprintf "%s-%d" !workload (Unix.getpid ()))
  in
  Measure.rm_rf work;
  Measure.mkdir_p work;
  let conf = { Run.seed = !seed; seconds = !seconds; trace = !trace = 1; plant = !plant; work } in
  let o =
    Fun.protect
      ~finally:(fun () -> Measure.rm_rf work)
      (fun () -> run conf)
  in
  if conf.Run.trace then begin
    let path = Filename.concat ".perfbench" (Printf.sprintf "spans-%s.json" !workload) in
    Spans.write_trace_events path;
    Printf.printf "spans written to %s\n" path
  end;
  print_result o;
  exit (if o.Run.correct then 0 else 1)
