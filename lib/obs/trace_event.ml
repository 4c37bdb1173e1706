(* The flight recorder: event capture into per-domain ring buffers,
   exported as Chrome trace-event JSON.

   Each domain writes only its own ring, so recording an event costs
   one Atomic.get (the enabled check) plus an array store — no
   contention with other domains.  The global
   mutex guards only the ring *registry* (touched once per domain per
   recorder generation) and the export path (after the run). *)

type phase = Complete | Instant

type event = {
  ev_name : string;
  ev_cat : string;
  ev_ph : phase;
  ev_ts : float;   (* seconds since recorder start *)
  ev_dur : float;  (* seconds; 0.0 for instants *)
  ev_tid : int;    (* recording domain's id *)
  ev_args : (string * string) list;
}

type ring = {
  r_tid : int;
  r_gen : int;
  r_buf : event array;
  mutable r_len : int;
  mutable r_head : int;     (* oldest slot once the ring is full *)
  mutable r_dropped : int;  (* events overwritten *)
}

let default_capacity = 65536

let dummy =
  { ev_name = ""; ev_cat = ""; ev_ph = Instant; ev_ts = 0.0; ev_dur = 0.0;
    ev_tid = 0; ev_args = [] }

let enabled_flag = Atomic.make false
let generation = Atomic.make 0
let ring_capacity = Atomic.make default_capacity
let t0 = Atomic.make 0.0

let lock = Mutex.create ()
let rings : ring list ref = ref []

let locked f =
  Mutex.lock lock;
  Fun.protect f ~finally:(fun () -> Mutex.unlock lock)

let make_ring () =
  let r =
    { r_tid = (Domain.self () :> int);
      r_gen = Atomic.get generation;
      r_buf = Array.make (max 1 (Atomic.get ring_capacity)) dummy;
      r_len = 0; r_head = 0; r_dropped = 0 }
  in
  locked (fun () -> rings := r :: !rings);
  r

let dls : ring Domain.DLS.key = Domain.DLS.new_key make_ring

let get_ring () =
  let r = Domain.DLS.get dls in
  if r.r_gen = Atomic.get generation then r
  else begin
    (* the recorder restarted since this domain last recorded *)
    let r' = make_ring () in
    Domain.DLS.set dls r';
    r'
  end

let push r ev =
  let cap = Array.length r.r_buf in
  if r.r_len < cap then begin
    r.r_buf.((r.r_head + r.r_len) mod cap) <- ev;
    r.r_len <- r.r_len + 1
  end else begin
    r.r_buf.(r.r_head) <- ev;
    r.r_head <- (r.r_head + 1) mod cap;
    r.r_dropped <- r.r_dropped + 1
  end

let enabled () = Atomic.get enabled_flag

let clear () =
  Atomic.incr generation;   (* orphan every live ring; domains re-register *)
  locked (fun () -> rings := [])

let start ?(capacity = default_capacity) () =
  Atomic.set ring_capacity (max 1 capacity);
  clear ();
  Atomic.set t0 (Clock.now ());
  Atomic.set enabled_flag true

let stop () = Atomic.set enabled_flag false

let complete ?(cat = "span") ?(args = []) ~name ~ts ~dur () =
  if enabled () then
    push (get_ring ())
      { ev_name = name; ev_cat = cat; ev_ph = Complete;
        ev_ts = ts -. Atomic.get t0; ev_dur = dur;
        ev_tid = (Domain.self () :> int); ev_args = args }

let instant ?(cat = "event") ?(args = []) name =
  if enabled () then
    push (get_ring ())
      { ev_name = name; ev_cat = cat; ev_ph = Instant;
        ev_ts = Clock.now () -. Atomic.get t0; ev_dur = 0.0;
        ev_tid = (Domain.self () :> int); ev_args = args }

let ring_events r =
  let cap = Array.length r.r_buf in
  List.init r.r_len (fun i -> r.r_buf.((r.r_head + i) mod cap))

let events () =
  let rs = locked (fun () -> !rings) in
  let all = List.concat_map ring_events rs in
  List.stable_sort
    (fun a b ->
      match Float.compare a.ev_ts b.ev_ts with
      | 0 -> (
          match compare a.ev_tid b.ev_tid with
          | 0 -> String.compare a.ev_name b.ev_name
          | c -> c)
      | c -> c)
    all

let dropped () =
  let rs = locked (fun () -> !rings) in
  List.fold_left (fun acc r -> acc + r.r_dropped) 0 rs

let to_json () =
  let module J = Iocov_util.Json in
  let evs = events () in
  let tids = List.sort_uniq compare (List.map (fun e -> e.ev_tid) evs) in
  (* thread_name metadata gives Perfetto a per-domain track label *)
  let meta =
    List.map
      (fun tid ->
        J.Obj
          [ ("name", J.String "thread_name"); ("ph", J.String "M");
            ("pid", J.Int 0); ("tid", J.Int tid);
            ("args", J.Obj [ ("name", J.String (Printf.sprintf "domain-%d" tid)) ]) ])
      tids
  in
  let ev_json e =
    let fields =
      [ ("name", J.String e.ev_name); ("cat", J.String e.ev_cat);
        ("ph", J.String (match e.ev_ph with Complete -> "X" | Instant -> "i"));
        ("ts", J.Float (e.ev_ts *. 1e6));
        ("pid", J.Int 0); ("tid", J.Int e.ev_tid) ]
    in
    let fields =
      match e.ev_ph with
      | Complete -> fields @ [ ("dur", J.Float (e.ev_dur *. 1e6)) ]
      | Instant -> fields @ [ ("s", J.String "t") ]
    in
    let fields =
      if e.ev_args = [] then fields
      else
        fields
        @ [ ("args", J.Obj (List.map (fun (k, v) -> (k, J.String v)) e.ev_args)) ]
    in
    J.Obj fields
  in
  J.to_string
    (J.Obj
       [ ("traceEvents", J.List (meta @ List.map ev_json evs));
         ("displayTimeUnit", J.String "ms") ])

let write_file path =
  Out_channel.with_open_text path (fun oc ->
      Out_channel.output_string oc (to_json ());
      Out_channel.output_char oc '\n')
