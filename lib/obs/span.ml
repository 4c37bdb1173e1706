type node = {
  name : string;
  duration_s : float;
  children : node list;
}

type frame = {
  f_name : string;
  f_start : float;
  mutable f_children : node list;  (* reverse completion order *)
}

(* Each domain keeps its own open-span stack, so a domain can time
   itself without seeing (or corrupting) another's frames; an outermost
   span completes into the shared root list, which a mutex guards
   together with the registry recording. *)
let stack_key : frame list ref Domain.DLS.key = Domain.DLS.new_key (fun () -> ref [])
let stack () = Domain.DLS.get stack_key

let lock = Mutex.create ()
let completed_roots : node list ref = ref []  (* reverse completion order *)

let locked f =
  Mutex.lock lock;
  Fun.protect f ~finally:(fun () -> Mutex.unlock lock)

let record registry node =
  let labels = [ ("span", node.name) ] in
  Metrics.Counter.incr
    (Metrics.counter registry "iocov_span_total" ~labels
       ~help:"Completed spans by name.");
  Metrics.Histogram.observe
    (Metrics.histogram registry "iocov_span_duration_ns" ~labels
       ~help:"Span wall-clock durations (log2-bucketed nanoseconds).")
    (int_of_float (node.duration_s *. 1e9))

let with_ ?(registry = Metrics.default) ~name f =
  let stack = stack () in
  let frame = { f_name = name; f_start = Clock.now (); f_children = [] } in
  stack := frame :: !stack;
  let close () =
    (match !stack with
     | top :: rest when top == frame -> stack := rest
     | _ ->
       (* a child span leaked past its parent; drop frames down to ours *)
       let rec pop = function
         | top :: rest -> if top == frame then rest else pop rest
         | [] -> []
       in
       stack := pop !stack);
    let node =
      { name; duration_s = Clock.now () -. frame.f_start;
        children = List.rev frame.f_children }
    in
    Trace_event.complete ~cat:"span" ~name ~ts:frame.f_start
      ~dur:node.duration_s ();
    (match !stack with
     | parent :: _ -> parent.f_children <- node :: parent.f_children
     | [] -> locked (fun () -> completed_roots := node :: !completed_roots));
    record registry node;
    node
  in
  match f () with
  | v ->
    ignore (close ());
    v
  | exception exn ->
    ignore (close ());
    raise exn

let timed ?registry ~name f =
  let result = with_ ?registry ~name (fun () -> f ()) in
  (* the span we just closed is the newest child of the current top, or
     the newest completed root *)
  let node =
    match !(stack ()) with
    | parent :: _ -> List.hd parent.f_children
    | [] -> locked (fun () -> List.hd !completed_roots)
  in
  (result, node)

(* Completion order is scheduler-dependent when domains close their
   root spans concurrently, so export order sorts by (name, duration):
   two runs of the same workload render the same span tree regardless
   of which domain finished first. *)
let roots () =
  locked (fun () ->
      List.stable_sort
        (fun a b ->
          match String.compare a.name b.name with
          | 0 -> Float.compare a.duration_s b.duration_s
          | c -> c)
        (List.rev !completed_roots))
let reset () = locked (fun () -> completed_roots := [])

let flatten node =
  let rec go path n acc =
    let path = path @ [ n.name ] in
    List.fold_left (fun acc c -> go path c acc) ((path, n) :: acc) n.children
  in
  List.rev (go [] node [])

let render node =
  let buf = Buffer.create 256 in
  let rec go indent parent_s n =
    let share =
      if parent_s > 0.0 then Printf.sprintf "  %3.0f%%" (100.0 *. n.duration_s /. parent_s)
      else ""
    in
    Buffer.add_string buf
      (Printf.sprintf "%s%-*s %8.3fs%s\n" indent (max 1 (28 - String.length indent))
         n.name n.duration_s share);
    List.iter (go (indent ^ "  ") n.duration_s) n.children
  in
  go "" 0.0 node;
  Buffer.contents buf
