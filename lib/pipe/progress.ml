module Coverage = Iocov_core.Coverage
module Plan = Iocov_core.Plan
module Adequacy = Iocov_core.Adequacy
module Anomaly = Iocov_util.Anomaly
module Ascii = Iocov_util.Ascii
module Json = Iocov_util.Json
module Clock = Iocov_obs.Clock
module Metrics = Iocov_obs.Metrics
module Replay = Iocov_par.Replay

type format = Text | Jsonl

type conf = {
  every : int;
  format : format;
  emit : string -> unit;
  budget : Anomaly.budget option;
}

let default_every = 10_000

type snapshot = {
  p_events : int;
  p_elapsed_s : float;
  p_rate_cum : float;
  p_rate_win : float;
  p_eta_s : float option;
  p_cells : int * int * int;  (* lit variant, input, output cells *)
  p_adequacy_pct : float;
  p_anomalies : int;
  p_budget_burn_pct : float option;
  p_checkpoint_age : int option;       (* events since the last checkpoint *)
  p_final : bool;
}

(* Adequacy tolerance for the live figure: within one order of
   magnitude of the target counts as adequate — the paper's coarsest
   reading of "neither under- nor over-tested". *)
let adequacy_target = 1000.0
let adequacy_theta = 10.0

(* One pass over the plan: lit-cell counts per kind plus the adequacy
   share of the input/output cells, all through the view's in-place
   cell reads — no accumulator copy, no conversion. *)
let summarize (view : Replay.view) =
  let lv = ref 0 and li = ref 0 and lo = ref 0 in
  let adequate = ref 0 and io_total = ref 0 in
  Array.iteri
    (fun id cell ->
      let frequency = view.Replay.v_cells id in
      match cell with
      | Plan.Cell_variant _ -> if frequency > 0 then incr lv
      | Plan.Cell_input _ | Plan.Cell_output _ | Plan.Cell_crash _ ->
        (match cell with
         | Plan.Cell_input _ -> if frequency > 0 then incr li
         | _ -> if frequency > 0 then incr lo);
        incr io_total;
        (* an unlit cell is never adequate — skip the float math, which
           on a mostly-dark plan is most of the snapshot's work *)
        if frequency > 0 then
          match
            Adequacy.classify ~frequency ~target:adequacy_target ~theta:adequacy_theta
          with
          | Adequacy.Adequate -> incr adequate
          | _ -> ())
    Plan.cells;
  let pct =
    if !io_total = 0 then 0.0
    else 100.0 *. float_of_int !adequate /. float_of_int !io_total
  in
  ((!lv, !li, !lo), pct)

let adequacy_pct cov =
  snd (summarize (Replay.view_of_coverage cov ~events:0))

(* The anomaly figures come from the process-wide metric counters the
   ingestion layer and the replay engine already maintain; the tracker
   records their values at creation and reports deltas, so a long
   session with several runs still shows per-run burn. *)
let anomaly_counters () =
  [ Metrics.counter Metrics.default "iocov_trace_corrupt_records_total";
    Metrics.counter Metrics.default "iocov_par_batches_abandoned_total" ]

let anomaly_total () =
  List.fold_left (fun acc c -> acc + Metrics.Counter.value c) 0 (anomaly_counters ())

let ckpt_count () =
  Metrics.Counter.value (Metrics.counter Metrics.default "iocov_par_checkpoints_total")

let ckpt_events () =
  Metrics.Gauge.value (Metrics.gauge Metrics.default "iocov_par_checkpoint_events")

type t = {
  conf : conf;
  clock : unit -> float;
  total : int option;
  t_start : float;
  base_anomalies : int;
  base_checkpoints : int;
  mutable last_events : int;
  mutable last_time : float;
  mutable emitted : int;
}

let tracker ?clock ?total conf =
  if conf.every <= 0 then invalid_arg "Progress.tracker: every must be positive";
  let clock = match clock with Some f -> f | None -> Clock.now in
  let now = clock () in
  {
    conf;
    clock;
    total;
    t_start = now;
    base_anomalies = anomaly_total ();
    base_checkpoints = ckpt_count ();
    last_events = 0;
    last_time = now;
    emitted = 0;
  }

let snapshot t ~events ~peek ~final =
  let now = t.clock () in
  let elapsed = now -. t.t_start in
  let rate_cum = if elapsed > 0.0 then float_of_int events /. elapsed else 0.0 in
  let win_events = events - t.last_events in
  let win_elapsed = now -. t.last_time in
  let rate_win =
    if win_elapsed > 0.0 && win_events > 0 then float_of_int win_events /. win_elapsed
    else rate_cum
  in
  let eta_s =
    match t.total with
    | Some total when total > events && rate_win > 0.0 ->
      Some (float_of_int (total - events) /. rate_win)
    | Some _ -> if final then None else Some 0.0
    | None -> None
  in
  let cells, adequacy = summarize (peek ()) in
  let anomalies = anomaly_total () - t.base_anomalies in
  let burn =
    match t.conf.budget with
    | Some (Anomaly.Max_records n) when n > 0 ->
      Some (100.0 *. float_of_int anomalies /. float_of_int n)
    | Some (Anomaly.Max_fraction f) when f > 0.0 && events > 0 ->
      Some (100.0 *. (float_of_int anomalies /. float_of_int events) /. f)
    | _ -> None
  in
  let checkpoint_age =
    if ckpt_count () > t.base_checkpoints then Some (max 0 (events - ckpt_events ()))
    else None
  in
  {
    p_events = events;
    p_elapsed_s = elapsed;
    p_rate_cum = rate_cum;
    p_rate_win = rate_win;
    p_eta_s = eta_s;
    p_cells = cells;
    p_adequacy_pct = adequacy;
    p_anomalies = anomalies;
    p_budget_burn_pct = burn;
    p_checkpoint_age = checkpoint_age;
    p_final = final;
  }

let render_text s =
  let buf = Buffer.create 128 in
  Buffer.add_string buf (if s.p_final then "done:" else "progress:");
  Buffer.add_string buf
    (Printf.sprintf " %s events  %.1fs  %s/s"
       (Ascii.si_count s.p_events) s.p_elapsed_s
       (Ascii.si_count (int_of_float s.p_rate_cum)));
  if not s.p_final && s.p_rate_win > 0.0 then
    Buffer.add_string buf
      (Printf.sprintf " (win %s/s)" (Ascii.si_count (int_of_float s.p_rate_win)));
  (let v, i, o = s.p_cells in
   Buffer.add_string buf
     (Printf.sprintf "  cells %d/%d (in %d, out %d, var %d)" (v + i + o) Plan.total i o v));
  Buffer.add_string buf (Printf.sprintf "  adequacy %.1f%%" s.p_adequacy_pct);
  if s.p_anomalies > 0 then
    Buffer.add_string buf (Printf.sprintf "  anomalies %d" s.p_anomalies);
  (match s.p_budget_burn_pct with
   | Some pct -> Buffer.add_string buf (Printf.sprintf " (budget %.0f%%)" pct)
   | None -> ());
  (match s.p_checkpoint_age with
   | Some age -> Buffer.add_string buf (Printf.sprintf "  ckpt-age %d" age)
   | None -> ());
  (match s.p_eta_s with
   | Some eta when not s.p_final ->
     Buffer.add_string buf (Printf.sprintf "  eta %.0fs" eta)
   | _ -> ());
  Buffer.contents buf

let render_jsonl s =
  let opt f = function Some v -> f v | None -> Json.Null in
  Json.to_string
    (Json.Obj
       [ ("events", Json.Int s.p_events);
         ("elapsed_s", Json.Float s.p_elapsed_s);
         ("rate_cum", Json.Float s.p_rate_cum);
         ("rate_win", Json.Float s.p_rate_win);
         ("eta_s", opt (fun v -> Json.Float v) s.p_eta_s);
         ( "cells",
           let v, i, o = s.p_cells in
           Json.Obj
             [ ("lit", Json.Int (v + i + o)); ("total", Json.Int Plan.total);
               ("variant", Json.Int v); ("input", Json.Int i); ("output", Json.Int o) ] );
         ("adequacy_pct", Json.Float s.p_adequacy_pct);
         ("anomalies", Json.Int s.p_anomalies);
         ("budget_burn_pct", opt (fun v -> Json.Float v) s.p_budget_burn_pct);
         ("checkpoint_age", opt (fun v -> Json.Int v) s.p_checkpoint_age);
         ("final", Json.Bool s.p_final) ])

let render t s =
  match t.conf.format with Text -> render_text s | Jsonl -> render_jsonl s

let emit t ~events ~peek ~final =
  let s = snapshot t ~events ~peek ~final in
  t.conf.emit (render t s);
  t.emitted <- t.emitted + 1;
  t.last_events <- events;
  t.last_time <- t.clock ()

let tick t ~events ~peek =
  if events - t.last_events >= t.conf.every then emit t ~events ~peek ~final:false

let finish t ~events ~peek = emit t ~events ~peek ~final:true

let emitted t = t.emitted
