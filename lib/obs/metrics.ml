module Log2 = Iocov_util.Log2
module H = Iocov_util.Histogram

(* Counters and gauges are lock-free atomics so concurrent threads and
   domains can meter through the same handles; increments commute, so
   totals stay deterministic regardless of scheduling. *)
module Counter = struct
  type t = { v : int Atomic.t }

  let incr c = Atomic.incr c.v

  let add c n =
    if n < 0 then invalid_arg "Metrics.Counter.add: negative increment";
    ignore (Atomic.fetch_and_add c.v n)

  let value c = Atomic.get c.v
end

module Gauge = struct
  type t = { v : int Atomic.t }

  let set g n = Atomic.set g.v n
  let incr g = Atomic.incr g.v
  let add g n = ignore (Atomic.fetch_and_add g.v n)
  let value g = Atomic.get g.v
end

(* Histograms mutate a hashtable; a per-histogram lock keeps them safe
   from any domain.  They sit on cold paths (span completion, tracer
   emit latency), so the uncontended lock is noise. *)
module Histogram = struct
  type t = {
    table : Log2.bucket H.t;
    mutable sum : int;
    lock : Mutex.t;
  }

  let make () =
    { table = H.create ~compare:Log2.compare_bucket; sum = 0; lock = Mutex.create () }

  let locked h f =
    Mutex.lock h.lock;
    Fun.protect f ~finally:(fun () -> Mutex.unlock h.lock)

  let observe h v =
    locked h (fun () ->
        H.add h.table (Log2.bucket_of_int v);
        h.sum <- h.sum + v)

  let count h = locked h (fun () -> H.total h.table)
  let sum h = locked h (fun () -> h.sum)
  let buckets h = locked h (fun () -> H.to_sorted h.table)

  let clear h =
    locked h (fun () ->
        H.clear h.table;
        h.sum <- 0)
end

type handle =
  | C of Counter.t
  | G of Gauge.t
  | Hist of Histogram.t

type entry = { help : string; handle : handle }

(* Key: name plus labels in registration order.  Labels are part of the
   identity, so one family name may carry many label sets. *)
type key = { k_name : string; k_labels : (string * string) list }

(* The registry lock covers the entries table only; it is taken on
   registration and whole-registry walks, never on the per-event
   increment path (handles are resolved once and cached). *)
type t = { entries : (key, entry) Hashtbl.t; lock : Mutex.t }

let create () = { entries = Hashtbl.create 64; lock = Mutex.create () }
let default = create ()

let locked t f =
  Mutex.lock t.lock;
  Fun.protect f ~finally:(fun () -> Mutex.unlock t.lock)

let name_ok s =
  String.length s > 0
  && (match s.[0] with 'a' .. 'z' | '_' -> true | _ -> false)
  && String.for_all
       (fun c -> match c with 'a' .. 'z' | '0' .. '9' | '_' -> true | _ -> false)
       s

let validate name labels =
  if not (name_ok name) then
    invalid_arg (Printf.sprintf "Metrics: malformed metric name %S" name);
  List.iter
    (fun (k, _) ->
      if not (name_ok k) then
        invalid_arg (Printf.sprintf "Metrics: malformed label key %S on %S" k name))
    labels

let register t ~help ~labels name make describe =
  validate name labels;
  let key = { k_name = name; k_labels = labels } in
  let handle =
    locked t (fun () ->
        match Hashtbl.find_opt t.entries key with
        | Some e -> e.handle
        | None ->
          let handle = make () in
          Hashtbl.add t.entries key { help; handle };
          handle)
  in
  describe handle

let kind_error name expected =
  invalid_arg
    (Printf.sprintf "Metrics: %S is already registered as a different kind (wanted %s)"
       name expected)

let counter ?(help = "") ?(labels = []) t name =
  register t ~help ~labels name
    (fun () -> C { Counter.v = Atomic.make 0 })
    (function C c -> c | _ -> kind_error name "counter")

let gauge ?(help = "") ?(labels = []) t name =
  register t ~help ~labels name
    (fun () -> G { Gauge.v = Atomic.make 0 })
    (function G g -> g | _ -> kind_error name "gauge")

let histogram ?(help = "") ?(labels = []) t name =
  register t ~help ~labels name
    (fun () -> Hist (Histogram.make ()))
    (function Hist h -> h | _ -> kind_error name "histogram")

let reset t =
  locked t (fun () ->
      Hashtbl.iter
        (fun _ e ->
          match e.handle with
          | C c -> Atomic.set c.Counter.v 0
          | G g -> Atomic.set g.Gauge.v 0
          | Hist h -> Histogram.clear h)
        t.entries)

type sample =
  | Counter_sample of int
  | Gauge_sample of int
  | Histogram_sample of {
      count : int;
      sum : int;
      buckets : (Log2.bucket * int) list;
    }

type metric = {
  name : string;
  labels : (string * string) list;
  help : string;
  sample : sample;
}

let snapshot t =
  locked t (fun () ->
      Hashtbl.fold
        (fun key e acc ->
          let sample =
            match e.handle with
            | C c -> Counter_sample (Counter.value c)
            | G g -> Gauge_sample (Gauge.value g)
            | Hist h ->
              Histogram_sample
                { count = Histogram.count h; sum = Histogram.sum h;
                  buckets = Histogram.buckets h }
          in
          { name = key.k_name; labels = key.k_labels; help = e.help; sample } :: acc)
        t.entries [])
  |> List.sort (fun a b ->
         match compare a.name b.name with
         | 0 -> compare a.labels b.labels
         | c -> c)

let is_timing m =
  let suffix = "_ns" in
  let n = String.length m.name and s = String.length suffix in
  n >= s && String.sub m.name (n - s) s = suffix
