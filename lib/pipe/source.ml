type t =
  | Events of { label : string; events : Iocov_trace.Event.t list }
  | File of { path : string }
  | Live of { label : string; feed : (Iocov_trace.Event.t -> unit) -> unit }
  | Syz of { label : string; text : string }

let events ?(label = "<events>") events = Events { label; events }
let file path = File { path }
let live ?(label = "<live>") feed = Live { label; feed }
let syz ?(label = "<syz>") text = Syz { label; text }

let label = function
  | Events { label; _ } | Live { label; _ } | Syz { label; _ } -> label
  | File { path } -> path

let kind = function
  | Events _ -> "events"
  | File _ -> "file"
  | Live _ -> "live"
  | Syz _ -> "syz"
