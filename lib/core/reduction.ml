open Iocov_syscall
module Bitset = Iocov_util.Bitset

type item = {
  name : string;
  coverage : Coverage.t;
}

type selection = {
  chosen : string list;
  covered : int;
  total_covered : int;
  universe : int;
}

let partition_cells cov =
  let ids = ref [] in
  for id = Plan.crash_off - 1 downto Plan.inputs_off do
    if Coverage.cell_count cov id > 0 && (id < Plan.outputs_off || Plan.errno_cell id) then
      ids := id :: !ids
  done;
  !ids

let universe_size =
  lazy
    (List.fold_left
       (fun acc arg -> acc + List.length (Partition.domain arg))
       0 Arg_class.all
     + List.fold_left
         (fun acc base ->
           acc
           + List.length
               (List.filter Partition.output_is_error (Partition.output_domain base)))
         0 Model.all_bases)

let greedy items =
  let items = Array.of_list items in
  let sets = Array.map (fun item -> partition_cells item.coverage) items in
  let add_new set n id = if Bitset.mark set id then n + 1 else n in
  let goal = Bitset.create Plan.total and covered = Bitset.create Plan.total in
  let total_covered = Array.fold_left (List.fold_left (add_new goal)) 0 sets in
  let gain ids = List.fold_left (fun n id -> if Bitset.mem covered id then n else n + 1) 0 ids in
  let picked = Array.make (Array.length items) false in
  (* Tests are told apart by position; only a strictly larger gain
     replaces the best, so ties keep the earliest test. *)
  let rec pick chosen n_covered =
    let best = ref (-1) and best_gain = ref 0 in
    Array.iteri
      (fun i ids ->
        if not picked.(i) then begin
          let g = gain ids in
          if g > !best_gain then begin
            best := i;
            best_gain := g
          end
        end)
      sets;
    if !best < 0 then (List.rev chosen, n_covered)
    else begin
      picked.(!best) <- true;
      let n_covered = List.fold_left (add_new covered) n_covered sets.(!best) in
      pick (items.(!best).name :: chosen) n_covered
    end
  in
  let chosen, covered = pick [] 0 in
  { chosen; covered; total_covered; universe = Lazy.force universe_size }

let render s =
  Printf.sprintf
    "%d tests suffice for all %d covered partitions (of %d in the domain):\n  %s"
    (List.length s.chosen) s.total_covered s.universe
    (String.concat " " s.chosen)
