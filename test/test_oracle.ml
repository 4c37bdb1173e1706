(* Tests for the hashed-histogram counter behind [Coverage_oracle].  The
   suite keeps the name it had while the counter lived in iocov_util. *)

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)

let int_hist () = Histogram.create ~compare:Stdlib.compare

let test_hist_empty () =
  let h = int_hist () in
  check_int "total" 0 (Histogram.total h);
  check_int "distinct" 0 (Histogram.distinct h);
  check_int "count of missing" 0 (Histogram.count h 5)

let test_hist_add_count () =
  let h = int_hist () in
  Histogram.add h 3;
  Histogram.add h ~count:4 3;
  Histogram.add h 7;
  check_int "count 3" 5 (Histogram.count h 3);
  check_int "count 7" 1 (Histogram.count h 7);
  check_int "total" 6 (Histogram.total h);
  check_int "distinct" 2 (Histogram.distinct h)

let test_hist_zero_count_is_noop () =
  let h = int_hist () in
  Histogram.add h ~count:0 3;
  check_bool "not a member" false (Histogram.mem h 3);
  check_int "distinct" 0 (Histogram.distinct h)

let test_hist_sorted () =
  let h = int_hist () in
  List.iter (Histogram.add h) [ 5; 1; 3; 1 ];
  Alcotest.(check (list (pair int int))) "sorted pairs" [ (1, 2); (3, 1); (5, 1) ]
    (Histogram.to_sorted h)

let test_hist_merge () =
  let a = int_hist () and b = int_hist () in
  Histogram.add a ~count:2 1;
  Histogram.add b ~count:3 1;
  Histogram.add b 9;
  Histogram.merge_into ~dst:a b;
  check_int "merged count" 5 (Histogram.count a 1);
  check_int "merged total" 6 (Histogram.total a);
  check_int "b untouched" 4 (Histogram.total b)

let test_hist_copy_isolated () =
  let a = int_hist () in
  Histogram.add a 1;
  let b = Histogram.copy a in
  Histogram.add b 1;
  check_int "copy diverges" 1 (Histogram.count a 1);
  check_int "copy counted" 2 (Histogram.count b 1)

let test_hist_clear () =
  let h = int_hist () in
  Histogram.add h 1;
  Histogram.clear h;
  check_int "cleared total" 0 (Histogram.total h)

let test_hist_max_frequency () =
  let h = int_hist () in
  check_int "empty max" 0 (Histogram.max_frequency h);
  Histogram.add h ~count:9 1;
  Histogram.add h ~count:4 2;
  check_int "max" 9 (Histogram.max_frequency h)

let test_hist_fold_map_sum () =
  let h = int_hist () in
  List.iter (Histogram.add h) [ 1; 2; 2 ];
  check_int "map_sum of freqs" 3 (Histogram.map_sum (fun _ n -> n) h);
  check_int "fold keys" 3 (Histogram.fold (fun k _ acc -> acc + k) h 0)

let hist_total_prop =
  QCheck.Test.make ~name:"histogram total equals sum of inserts"
    QCheck.(small_list (int_range 0 20))
    (fun keys ->
      let h = int_hist () in
      List.iter (Histogram.add h) keys;
      Histogram.total h = List.length keys)

let hist_merge_comm_prop =
  QCheck.Test.make ~name:"histogram merge is order-insensitive in totals"
    QCheck.(pair (small_list (int_range 0 10)) (small_list (int_range 0 10)))
    (fun (xs, ys) ->
      let mk keys =
        let h = int_hist () in
        List.iter (Histogram.add h) keys;
        h
      in
      let ab = mk xs in
      Histogram.merge_into ~dst:ab (mk ys);
      let ba = mk ys in
      Histogram.merge_into ~dst:ba (mk xs);
      Histogram.to_sorted ab = Histogram.to_sorted ba)

let suites =
  [ ( "util.histogram",
      [ Alcotest.test_case "empty" `Quick test_hist_empty;
        Alcotest.test_case "add and count" `Quick test_hist_add_count;
        Alcotest.test_case "zero count is noop" `Quick test_hist_zero_count_is_noop;
        Alcotest.test_case "sorted iteration" `Quick test_hist_sorted;
        Alcotest.test_case "merge" `Quick test_hist_merge;
        Alcotest.test_case "copy isolation" `Quick test_hist_copy_isolated;
        Alcotest.test_case "clear" `Quick test_hist_clear;
        Alcotest.test_case "max frequency" `Quick test_hist_max_frequency;
        Alcotest.test_case "fold and map_sum" `Quick test_hist_fold_map_sum;
        QCheck_alcotest.to_alcotest hist_total_prop;
        QCheck_alcotest.to_alcotest hist_merge_comm_prop ] ) ]
