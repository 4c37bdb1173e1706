type extent = { off : int; len : int; fill : char }

type body =
  | Reg of { mutable extents : extent list }
  | Dir of (string, int) Hashtbl.t
  | Symlink of string
  | Fifo
  | Device of { driverless : bool }

type t = {
  ino : int;
  mutable body : body;
  mutable mode : Iocov_syscall.Mode.t;
  mutable uid : int;
  mutable gid : int;
  mutable nlink : int;
  mutable size : int;
  xattrs : (string, int * char) Hashtbl.t;
  mutable immutable_ : bool;
  mutable executing : bool;
  mutable busy : bool;
  mutable mtime : int;
  mutable ctime : int;
}

let create ~ino ~body ~mode ~uid ~gid ~now =
  let nlink = match body with Dir _ -> 2 | _ -> 1 in
  {
    ino; body; mode; uid; gid; nlink;
    size = (match body with Symlink s -> String.length s | _ -> 0);
    xattrs = Hashtbl.create 4;
    immutable_ = false; executing = false; busy = false;
    mtime = now; ctime = now;
  }

let is_dir t = match t.body with Dir _ -> true | _ -> false
let is_reg t = match t.body with Reg _ -> true | _ -> false
let is_symlink t = match t.body with Symlink _ -> true | _ -> false

let dir_entries t =
  match t.body with
  | Dir entries -> entries
  | _ -> invalid_arg "Node.dir_entries: not a directory"

let copy t =
  let body =
    match t.body with
    | Reg { extents } -> Reg { extents }
    | Dir entries -> Dir (Hashtbl.copy entries)
    | Symlink s -> Symlink s
    | Fifo -> Fifo
    | Device d -> Device d
  in
  { t with body; xattrs = Hashtbl.copy t.xattrs }

(* --- Extent algebra ---
   Invariant maintained by every operation: extents are sorted by [off],
   non-overlapping, and have positive [len]. *)

let ext_end e = e.off + e.len

(* Drop the runs a write ending at [stop] covers, keeping the right-hand
   remainder of one that straddles [stop], and share the rest. *)
let rec drop_covered ~stop = function
  | e :: rest when ext_end e <= stop -> drop_covered ~stop rest
  | e :: rest when e.off < stop -> { off = stop; len = ext_end e - stop; fill = e.fill } :: rest
  | tail -> tail

(* One ordered pass: runs ending at or before the write are kept, a run
   straddling its start keeps its left-hand part, then the new run and
   whatever [drop_covered] leaves. *)
let[@tail_mod_cons] rec insert_run run = function
  | e :: rest when ext_end e <= run.off -> e :: insert_run run rest
  | e :: _ as overlapping when e.off < run.off ->
    { e with len = run.off - e.off } :: run :: drop_covered ~stop:(ext_end run) overlapping
  | tail -> run :: drop_covered ~stop:(ext_end run) tail

let write_extents extents ~off ~len ~fill =
  if len < 0 || off < 0 then invalid_arg "Node.write_extents";
  if len = 0 then extents else insert_run { off; len; fill } extents

let truncate_extents extents ~size =
  if size < 0 then invalid_arg "Node.truncate_extents";
  List.filter_map
    (fun e ->
      if e.off >= size then None
      else if ext_end e <= size then Some e
      else Some { e with len = size - e.off })
    extents

let segments extents ~off ~len =
  if len < 0 || off < 0 then invalid_arg "Node.segments";
  let stop = off + len in
  let relevant =
    List.filter (fun e -> ext_end e > off && e.off < stop) extents
  in
  let rec go pos acc = function
    | [] ->
      let acc = if pos < stop then (pos, stop - pos, None) :: acc else acc in
      List.rev acc
    | e :: rest ->
      let acc = if e.off > pos then (pos, e.off - pos, None) :: acc else acc in
      let data_start = max pos e.off in
      let data_stop = min stop (ext_end e) in
      let acc =
        if data_stop > data_start then (data_start, data_stop - data_start, Some e.fill) :: acc
        else acc
      in
      go (max pos data_stop) acc rest
  in
  if len = 0 then [] else go off [] relevant

let byte_at extents pos =
  match List.find_opt (fun e -> e.off <= pos && pos < ext_end e) extents with
  | Some e -> e.fill
  | None -> '\000'

let next_data extents ~off =
  let candidates =
    List.filter_map
      (fun e -> if ext_end e > off then Some (max off e.off) else None)
      extents
  in
  match candidates with [] -> None | l -> Some (List.fold_left min max_int l)

let next_hole extents ~off =
  (* Walk forward from [off]; inside a run, jump to its end. *)
  let rec go pos =
    match List.find_opt (fun e -> e.off <= pos && pos < ext_end e) extents with
    | Some e -> go (ext_end e)
    | None -> pos
  in
  go off

let content_checksum t =
  match t.body with
  | Reg { extents } ->
    (* Normalize: merge adjacent same-fill runs so that logically equal
       contents hash equally regardless of write history. *)
    let sorted = List.sort (fun a b -> compare a.off b.off) extents in
    let merged =
      List.fold_left
        (fun acc e ->
          match acc with
          | prev :: rest when ext_end prev = e.off && prev.fill = e.fill ->
            { prev with len = prev.len + e.len } :: rest
          | acc -> e :: acc)
        [] sorted
    in
    List.fold_left
      (fun acc e ->
        let h = Hashtbl.hash (e.off, e.len, e.fill) in
        (acc * 1000003) lxor h)
      (Hashtbl.hash t.size)
      (List.rev merged)
  | _ -> invalid_arg "Node.content_checksum: not a regular file"
