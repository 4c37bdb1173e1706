open Iocov_syscall
module Prng = Iocov_util.Prng
module Bitset = Iocov_util.Bitset
module Coverage = Iocov_core.Coverage
module Plan = Iocov_core.Plan
module Reduction = Iocov_core.Reduction
module Fs = Iocov_vfs.Fs
module Config = Iocov_vfs.Config
module Metrics = Iocov_obs.Metrics
module Span = Iocov_obs.Span

let m_fuzzer name help =
  Metrics.counter Metrics.default ("iocov_fuzzer_" ^ name) ~help

let m_executions = m_fuzzer "executions_total" "Fuzz programs executed."
let m_retained = m_fuzzer "corpus_retained_total" "Programs retained as interesting."
let m_crashes = m_fuzzer "crashes_total" "Fault-induced outcome divergences."

type feedback =
  | Outcome_novelty
  | Partition_novelty

let feedback_name = function
  | Outcome_novelty -> "outcome-novelty (path-style)"
  | Partition_novelty -> "partition-novelty (IOCov-guided)"

type result = {
  feedback : feedback;
  executions : int;
  corpus_size : int;
  coverage : Coverage.t;
  growth : (int * int) list;
  crashes : int;
}

(* A fuzz program is a short call sequence over a small name/descriptor
   universe; descriptors 3..6 may or may not be live at execution time —
   dangling uses are themselves interesting inputs (EBADF). *)
type program = Model.call list

let paths = [| "/f0"; "/f1"; "/d0/f"; "/d0"; "/sym"; "/missing" |]
let names = [| "user.a"; "user.b"; "trusted.t"; "system.s"; "x" |]

let pick_path rng = Prng.choose rng paths
let pick_fd rng = 3 + Prng.int rng 4

(* Numeric mutation is LOCAL: double, halve, nudge.  Reaching a far size
   bucket therefore requires a chain of retained stepping stones — which
   is precisely where the choice of feedback signal matters.  (A fuzzer
   that could jump anywhere would not need feedback at all.) *)
let mutate_size rng current =
  match Prng.int rng 8 with
  | 0 -> 0
  | 1 -> current + 1
  | 2 -> max 0 (current - 1)
  | 3 | 4 -> min (1 lsl 32) ((current * 2) + 1)
  | 5 -> current / 2
  | 6 -> current + Prng.int rng 64
  | _ -> max 0 (current - Prng.int rng 64)

let mutate_offset rng current =
  match Prng.int rng 6 with
  | 0 -> 0
  | 1 -> -abs current - 1
  | 2 | 3 -> (abs current * 2) + 1
  | 4 -> abs current / 2
  | _ -> abs current + Prng.int rng 4096

let mutate_flags rng current =
  match Prng.int rng 4 with
  | 0 ->
    (* flip one non-access flag *)
    let f = Prng.choose_list rng Open_flags.all in
    (match f with
     | Open_flags.O_RDONLY | Open_flags.O_WRONLY | Open_flags.O_RDWR -> current
     | f -> current lxor Open_flags.bit f)
  | 1 -> current land lnot 0o3 lor Prng.int rng 3 (* new access mode *)
  | 2 -> Open_flags.bit (Prng.choose_list rng Open_flags.all)
  | _ -> current

let mutate_mode rng _current = Prng.int rng 0o10000

let random_call rng : Model.call =
  match Prng.int rng 11 with
  | 0 ->
    Model.open_ ~flags:(mutate_flags rng 0) ~mode:(mutate_mode rng 0) (pick_path rng)
  | 1 -> Model.read ~fd:(pick_fd rng) ~count:(mutate_size rng 4096) ()
  | 2 -> Model.write ~fd:(pick_fd rng) ~count:(mutate_size rng 4096) ()
  | 3 ->
    Model.lseek ~fd:(pick_fd rng) ~offset:(mutate_offset rng 0)
      ~whence:(Prng.choose_list rng Whence.all)
  | 4 ->
    Model.truncate ~target:(Model.Path (pick_path rng)) ~length:(mutate_size rng 0) ()
  | 5 -> Model.mkdir ~mode:(mutate_mode rng 0o755) (pick_path rng)
  | 6 -> Model.chmod ~target:(Model.Path (pick_path rng)) ~mode:(mutate_mode rng 0o644) ()
  | 7 -> Model.close (pick_fd rng)
  | 8 -> Model.chdir (Model.Path (pick_path rng))
  | 9 ->
    Model.setxattr
      ~flags:(Prng.choose_list rng Xattr_flag.all)
      ~target:(Model.Path (pick_path rng)) ~name:(Prng.choose rng names)
      ~size:(mutate_size rng 64) ()
  | _ ->
    Model.getxattr ~target:(Model.Path (pick_path rng)) ~name:(Prng.choose rng names)
      ~size:(mutate_size rng 64) ()

(* mutate one call in place, preserving its syscall most of the time *)
let mutate_call rng call : Model.call =
  if Prng.chance rng 0.25 then random_call rng
  else
    match (call : Model.call) with
    | Model.Open_call { variant; path; flags; mode } ->
      let variant = if variant = Model.Sys_creat then Model.Sys_open else variant in
      Model.open_ ~variant ~flags:(mutate_flags rng flags) ~mode:(mutate_mode rng mode) path
    | Model.Read_call { fd; count; offset; variant } ->
      (match (variant, offset) with
       | Model.Sys_pread64, Some off ->
         Model.read ~variant ~offset:(mutate_offset rng off) ~fd ~count:(mutate_size rng count) ()
       | _ -> Model.read ~variant ~fd ~count:(mutate_size rng count) ())
    | Model.Write_call { fd; count; offset; variant } ->
      (match (variant, offset) with
       | Model.Sys_pwrite64, Some off ->
         Model.write ~variant ~offset:(mutate_offset rng off) ~fd ~count:(mutate_size rng count) ()
       | _ -> Model.write ~variant ~fd ~count:(mutate_size rng count) ())
    | Model.Lseek_call { fd; offset; whence } ->
      let whence = if Prng.chance rng 0.3 then Prng.choose_list rng Whence.all else whence in
      Model.lseek ~fd ~offset:(mutate_offset rng offset) ~whence
    | Model.Truncate_call { target; length; _ } ->
      Model.truncate ~target ~length:(mutate_size rng length) ()
    | Model.Mkdir_call { variant; path; mode } ->
      Model.mkdir ~variant ~mode:(mutate_mode rng mode) path
    | Model.Chmod_call { variant; target; mode } ->
      Model.chmod ~variant ~target ~mode:(mutate_mode rng mode) ()
    | Model.Close_call _ -> Model.close (pick_fd rng)
    | Model.Chdir_call { target } -> Model.chdir target
    | Model.Setxattr_call { variant; target; name; size; flags } ->
      let flags = if Prng.chance rng 0.3 then Prng.choose_list rng Xattr_flag.all else flags in
      Model.setxattr ~variant ~flags ~target ~name ~size:(mutate_size rng size) ()
    | Model.Getxattr_call { variant; target; name; size } ->
      Model.getxattr ~variant ~target ~name ~size:(mutate_size rng size) ()

let mutate_program rng program =
  let program = Array.of_list program in
  let mutations = 1 + Prng.int rng 3 in
  for _ = 1 to mutations do
    match Prng.int rng 10 with
    | 0 when Array.length program > 0 ->
      (* duplicate-and-mutate keeps sequences growing slowly *)
      ()
    | _ when Array.length program = 0 -> ()
    | _ ->
      let i = Prng.int rng (Array.length program) in
      program.(i) <- mutate_call rng program.(i)
  done;
  let tail = if Prng.chance rng 0.3 then [ random_call rng ] else [] in
  Array.to_list program @ tail

let seed_corpus : program list =
  let open Open_flags in
  [ [ Model.open_ ~flags:(of_flags [ O_WRONLY; O_CREAT ]) ~mode:0o644 "/f0";
      Model.write ~fd:3 ~count:4096 ();
      Model.close 3 ];
    [ Model.open_ ~flags:(of_flags [ O_RDONLY ]) "/f0";
      Model.read ~fd:3 ~count:4096 ();
      Model.lseek ~fd:3 ~offset:0 ~whence:Whence.SEEK_SET;
      Model.close 3 ];
    [ Model.mkdir ~mode:0o755 "/d0";
      Model.chmod ~target:(Model.Path "/d0") ~mode:0o700 ();
      Model.chdir (Model.Path "/d0") ];
    [ Model.open_ ~flags:(of_flags [ O_RDWR; O_CREAT ]) ~mode:0o644 "/f1";
      Model.setxattr ~target:(Model.Path "/f1") ~name:"user.a" ~size:64 ();
      Model.getxattr ~target:(Model.Path "/f1") ~name:"user.a" ~size:64 ();
      Model.truncate ~target:(Model.Path "/f1") ~length:100 () ] ]

(* execute a program on a fresh small file system; answers the per-run
   observations used by the feedback *)
let execute ~faults ?config program =
  let config =
    Config.with_faults faults (Option.value config ~default:Config.small)
  in
  let fs = Fs.create ~config () in
  List.map
    (fun call ->
      let outcome = Fs.exec fs call in
      (call, outcome))
    program

(* An outcome's class: success, or one errno. *)
let same_class (a : Model.outcome) (b : Model.outcome) =
  match (a, b) with
  | Model.Ret _, Model.Ret _ -> true
  | Model.Err x, Model.Err y -> Errno.equal x y
  | _ -> false

let covered_partitions cov = List.length (Reduction.partition_cells cov)

(* Outcome novelty keys on (variant, outcome class): slot 0 of a
   variant's block is success, slot [1 + Errno.index e] errno [e]. *)
let outcome_slots = 1 + Errno.count

let outcome_id call (outcome : Model.outcome) =
  (Model.variant_index (Model.variant_of_call call) * outcome_slots)
  + match outcome with Model.Ret _ -> 0 | Model.Err e -> 1 + Errno.index e

type novelty = {
  n_feedback : feedback;
  seen : Bitset.t;
}

let novelty feedback =
  let size =
    match feedback with
    | Outcome_novelty -> Model.variant_count * outcome_slots
    | Partition_novelty -> Plan.total
  in
  { n_feedback = feedback; seen = Bitset.create size }

(* Every id of every observation is marked, even after an earlier one
   was new: stopping early would leave ids unmarked and change what
   later programs count as new. *)
let interesting n observations =
  let fresh = ref false in
  let mark id = if Bitset.mark n.seen id then fresh := true in
  List.iter
    (fun (call, outcome) ->
      match n.n_feedback with
      | Outcome_novelty -> mark (outcome_id call outcome)
      | Partition_novelty ->
        Plan.iter_input_slots call mark;
        mark (Plan.output_cell (Model.base_of_call call) outcome))
    observations;
  !fresh

let run ?(seed = 77) ?(budget = 2000) ?(faults = []) ?config ~feedback () =
  if budget < 0 then invalid_arg "Fuzzer.run: budget must be non-negative";
  let rng = Prng.create ~seed in
  let coverage = Coverage.create () in
  let corpus = ref seed_corpus in
  let growth = ref [] in
  let crashes = ref 0 in
  let novelty = novelty feedback in
  Span.with_ ~name:"fuzzer/run" (fun () ->
      for execution = 1 to budget do
        let parent = Prng.choose_list rng !corpus in
        let program = mutate_program rng parent in
        let observations = execute ~faults ?config program in
        Metrics.Counter.incr m_executions;
        List.iter
          (fun (call, outcome) -> Coverage.observe coverage call outcome)
          observations;
        (* a crash for our purposes: an injected fault made an outcome deviate
           from the reference file system's *)
        if faults <> [] then begin
          let reference = execute ~faults:[] ?config program in
          if
            List.exists2
              (fun (_, a) (_, b) -> not (same_class a b))
              observations reference
          then begin
            incr crashes;
            Metrics.Counter.incr m_crashes
          end
        end;
        if interesting novelty observations && List.length !corpus < 512 then begin
          corpus := program :: !corpus;
          Metrics.Counter.incr m_retained
        end;
        if execution mod 50 = 0 || execution = budget then
          growth := (execution, covered_partitions coverage) :: !growth
      done);
  Coverage.meter_counts coverage;
  {
    feedback;
    executions = budget;
    corpus_size = List.length !corpus;
    coverage;
    growth = List.rev !growth;
    crashes = !crashes;
  }

let compare_feedbacks ?(seed = 77) ?(budget = 2000) () =
  ( run ~seed ~budget ~feedback:Outcome_novelty (),
    run ~seed ~budget ~feedback:Partition_novelty () )
