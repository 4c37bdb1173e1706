(* Unit and property tests for iocov_util: PRNG, log2 bucketing,
   statistics, and ASCII rendering. *)

open Iocov_util

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)
let check_string = Alcotest.(check string)
let check_float = Alcotest.(check (float 1e-9))

(* --- Prng --- *)

let test_prng_determinism () =
  let a = Prng.create ~seed:7 and b = Prng.create ~seed:7 in
  for _ = 1 to 100 do
    check_bool "same stream" true (Prng.next_int64 a = Prng.next_int64 b)
  done

let test_prng_seed_sensitivity () =
  let a = Prng.create ~seed:7 and b = Prng.create ~seed:8 in
  check_bool "different seeds diverge" true (Prng.next_int64 a <> Prng.next_int64 b)

let test_prng_int_range () =
  let rng = Prng.create ~seed:1 in
  for _ = 1 to 10_000 do
    let n = Prng.int rng 17 in
    check_bool "in [0,17)" true (n >= 0 && n < 17)
  done

let test_prng_int_in_range () =
  let rng = Prng.create ~seed:2 in
  for _ = 1 to 1_000 do
    let n = Prng.int_in rng (-5) 5 in
    check_bool "in [-5,5]" true (n >= -5 && n <= 5)
  done

let test_prng_int_covers_domain () =
  let rng = Prng.create ~seed:3 in
  let seen = Array.make 8 false in
  for _ = 1 to 1_000 do
    seen.(Prng.int rng 8) <- true
  done;
  Array.iteri (fun i s -> check_bool (Printf.sprintf "value %d reached" i) true s) seen

let test_prng_float_range () =
  let rng = Prng.create ~seed:4 in
  for _ = 1 to 1_000 do
    let x = Prng.float rng 3.0 in
    check_bool "in [0,3)" true (x >= 0.0 && x < 3.0)
  done

let test_prng_chance_extremes () =
  let rng = Prng.create ~seed:5 in
  check_bool "p=0 never" false (Prng.chance rng 0.0);
  check_bool "p=1 always" true (Prng.chance rng 1.0)

let test_prng_split_independence () =
  let parent = Prng.create ~seed:6 in
  let child = Prng.split parent in
  check_bool "split streams differ" true (Prng.next_int64 parent <> Prng.next_int64 child)

let test_prng_copy () =
  let a = Prng.create ~seed:9 in
  ignore (Prng.next_int64 a);
  let b = Prng.copy a in
  check_bool "copy replays" true (Prng.next_int64 a = Prng.next_int64 b)

let test_prng_weighted () =
  let rng = Prng.create ~seed:10 in
  for _ = 1 to 500 do
    let x = Prng.weighted rng [ (1, "a"); (0, "never"); (3, "b") ] in
    check_bool "never has weight 0" true (x <> "never")
  done

let test_prng_weighted_bias () =
  let rng = Prng.create ~seed:11 in
  let a = ref 0 in
  for _ = 1 to 10_000 do
    if Prng.weighted rng [ (9, `A); (1, `B) ] = `A then incr a
  done;
  check_bool "9:1 weighting is roughly respected" true (!a > 8_500 && !a < 9_500)

let test_prng_choose_list_singleton () =
  let rng = Prng.create ~seed:12 in
  check_int "singleton" 42 (Prng.choose_list rng [ 42 ])

let test_prng_shuffle_permutation () =
  let rng = Prng.create ~seed:13 in
  let a = Array.init 50 (fun i -> i) in
  Prng.shuffle rng a;
  let sorted = Array.copy a in
  Array.sort compare sorted;
  Array.iteri (fun i x -> check_int "permutation" i x) sorted

let test_prng_pow2_size_bounds () =
  let rng = Prng.create ~seed:14 in
  for _ = 1 to 2_000 do
    let n = Prng.pow2_size rng ~max_log2:12 in
    check_bool "within [1, 2^13)" true (n >= 1 && n < 8192)
  done

let prng_no_negative_prop =
  QCheck.Test.make ~name:"Prng.int is non-negative for any seed/bound"
    QCheck.(pair int (int_range 1 1_000_000))
    (fun (seed, bound) ->
      let rng = Prng.create ~seed in
      let n = Prng.int rng bound in
      n >= 0 && n < bound)

(* --- Log2 --- *)

let test_bucket_of_zero () =
  check_bool "zero bucket" true (Log2.bucket_of_int 0 = Log2.Zero)

let test_bucket_of_negative () =
  check_bool "negative bucket" true (Log2.bucket_of_int (-3) = Log2.Negative)

let test_bucket_boundaries () =
  List.iter
    (fun (n, k) ->
      check_bool
        (Printf.sprintf "%d -> 2^%d" n k)
        true
        (Log2.bucket_of_int n = Log2.Pow2 k))
    [ (1, 0); (2, 1); (3, 1); (4, 2); (1023, 9); (1024, 10); (2047, 10); (2048, 11) ]

let test_bucket_lo_hi () =
  check_int "lo of 2^10" 1024 (Log2.bucket_lo (Log2.Pow2 10));
  check_int "hi of 2^10" 2047 (Log2.bucket_hi (Log2.Pow2 10));
  check_int "lo of zero" 0 (Log2.bucket_lo Log2.Zero);
  check_int "hi of zero" 0 (Log2.bucket_hi Log2.Zero)

let test_bucket_order () =
  check_bool "neg < zero" true (Log2.compare_bucket Log2.Negative Log2.Zero < 0);
  check_bool "zero < 2^0" true (Log2.compare_bucket Log2.Zero (Log2.Pow2 0) < 0);
  check_bool "2^3 < 2^4" true (Log2.compare_bucket (Log2.Pow2 3) (Log2.Pow2 4) < 0)

let test_bucket_labels () =
  check_string "zero label" "=0" (Log2.bucket_label Log2.Zero);
  check_string "pow2 label" "2^28" (Log2.bucket_label (Log2.Pow2 28));
  check_string "size label" "256MiB" (Log2.bucket_size_label (Log2.Pow2 28))

let test_human_bytes () =
  check_string "bytes" "17B" (Log2.human_bytes 17);
  check_string "kib" "4KiB" (Log2.human_bytes 4096);
  check_string "mib" "258MiB" (Log2.human_bytes (258 * 1024 * 1024))

let test_range () =
  check_int "range length" 33 (List.length (Log2.range ~lo:0 ~hi:32))

let test_floor_log2 () =
  check_int "log2 1" 0 (Log2.floor_log2 1);
  check_int "log2 4095" 11 (Log2.floor_log2 4095);
  check_int "log2 4096" 12 (Log2.floor_log2 4096)

let bucket_contains_prop =
  QCheck.Test.make ~name:"bucket_of_int n lands in [lo, hi]"
    QCheck.(int_range 0 max_int)
    (fun n ->
      let b = Log2.bucket_of_int n in
      Log2.bucket_lo b <= n && n <= Log2.bucket_hi b)

(* --- Stats --- *)

let test_mean () =
  check_float "mean" 2.0 (Stats.mean [| 1.0; 2.0; 3.0 |]);
  check_float "empty mean" 0.0 (Stats.mean [||])

let test_rmsd_zero_for_equal () =
  check_float "rmsd of equal arrays" 0.0 (Stats.rmsd [| 1.0; 2.0 |] [| 1.0; 2.0 |])

let test_rmsd_known () =
  check_float "rmsd" 1.0 (Stats.rmsd [| 0.0; 0.0 |] [| 1.0; -1.0 |])

let test_log10_freq () =
  check_float "log of 0 is 0" 0.0 (Stats.log10_freq 0);
  check_float "log of 1 is 0" 0.0 (Stats.log10_freq 1);
  check_float "log of 1000" 3.0 (Stats.log10_freq 1000)

let test_percentage () =
  check_float "53%" 52.857142857142854 (Stats.percentage 37 70);
  check_float "0 denominator" 0.0 (Stats.percentage 5 0)

let test_median () =
  check_float "odd median" 2.0 (Stats.median [| 3.0; 1.0; 2.0 |]);
  check_float "even median" 1.5 (Stats.median [| 2.0; 1.0 |])

let test_geometric_mean () =
  check_float "geomean" 2.0 (Stats.geometric_mean [| 1.0; 4.0 |])

let rmsd_symmetry_prop =
  QCheck.Test.make ~name:"rmsd is symmetric"
    QCheck.(pair (array_of_size (QCheck.Gen.return 5) (float_range (-100.) 100.))
              (array_of_size (QCheck.Gen.return 5) (float_range (-100.) 100.)))
    (fun (a, b) -> abs_float (Stats.rmsd a b -. Stats.rmsd b a) < 1e-9)

(* --- Ascii --- *)

let test_si_count () =
  check_string "millions" "4,099,770" (Ascii.si_count 4099770);
  check_string "small" "17" (Ascii.si_count 17);
  check_string "thousand" "1,000" (Ascii.si_count 1000);
  check_string "negative" "-1,234" (Ascii.si_count (-1234))

let test_table_renders_all_rows () =
  let t = Ascii.table ~headers:[ "a"; "b" ] [ [ "x"; "1" ]; [ "y"; "2" ] ] in
  check_bool "contains x" true (String.length t > 0 && String.index_opt t 'x' <> None);
  check_bool "contains y" true (String.index_opt t 'y' <> None)

let test_table_pads_short_rows () =
  let t = Ascii.table ~headers:[ "a"; "b"; "c" ] [ [ "only" ] ] in
  check_bool "renders" true (String.length t > 0)

let test_log_bar_chart_untested () =
  let chart = Ascii.log_bar_chart [ ("x", 0); ("y", 100) ] in
  let contains s sub =
    let n = String.length sub in
    let rec go i = i + n <= String.length s && (String.sub s i n = sub || go (i + 1)) in
    go 0
  in
  check_bool "marks untested" true (contains chart "(untested)");
  check_bool "prints count" true (contains chart "100")

let test_grouped_chart () =
  let chart =
    Ascii.grouped_log_chart ~group_names:("A", "B") [ ("row", 10, 0) ]
  in
  check_bool "non-empty" true (String.length chart > 0)

let suites =
  [ ( "util.prng",
      [ Alcotest.test_case "determinism" `Quick test_prng_determinism;
        Alcotest.test_case "seed sensitivity" `Quick test_prng_seed_sensitivity;
        Alcotest.test_case "int range" `Quick test_prng_int_range;
        Alcotest.test_case "int_in range" `Quick test_prng_int_in_range;
        Alcotest.test_case "int covers domain" `Quick test_prng_int_covers_domain;
        Alcotest.test_case "float range" `Quick test_prng_float_range;
        Alcotest.test_case "chance extremes" `Quick test_prng_chance_extremes;
        Alcotest.test_case "split independence" `Quick test_prng_split_independence;
        Alcotest.test_case "copy replays" `Quick test_prng_copy;
        Alcotest.test_case "weighted skips zero weight" `Quick test_prng_weighted;
        Alcotest.test_case "weighted bias" `Quick test_prng_weighted_bias;
        Alcotest.test_case "choose_list singleton" `Quick test_prng_choose_list_singleton;
        Alcotest.test_case "shuffle permutes" `Quick test_prng_shuffle_permutation;
        Alcotest.test_case "pow2_size bounds" `Quick test_prng_pow2_size_bounds;
        QCheck_alcotest.to_alcotest prng_no_negative_prop ] );
    ( "util.log2",
      [ Alcotest.test_case "bucket of zero" `Quick test_bucket_of_zero;
        Alcotest.test_case "bucket of negative" `Quick test_bucket_of_negative;
        Alcotest.test_case "bucket boundaries" `Quick test_bucket_boundaries;
        Alcotest.test_case "bucket lo/hi" `Quick test_bucket_lo_hi;
        Alcotest.test_case "bucket order" `Quick test_bucket_order;
        Alcotest.test_case "bucket labels" `Quick test_bucket_labels;
        Alcotest.test_case "human bytes" `Quick test_human_bytes;
        Alcotest.test_case "range" `Quick test_range;
        Alcotest.test_case "floor_log2" `Quick test_floor_log2;
        QCheck_alcotest.to_alcotest bucket_contains_prop ] );
    ( "util.stats",
      [ Alcotest.test_case "mean" `Quick test_mean;
        Alcotest.test_case "rmsd zero for equal" `Quick test_rmsd_zero_for_equal;
        Alcotest.test_case "rmsd known value" `Quick test_rmsd_known;
        Alcotest.test_case "log10_freq boundaries" `Quick test_log10_freq;
        Alcotest.test_case "percentage" `Quick test_percentage;
        Alcotest.test_case "median" `Quick test_median;
        Alcotest.test_case "geometric mean" `Quick test_geometric_mean;
        QCheck_alcotest.to_alcotest rmsd_symmetry_prop ] );
    ( "util.ascii",
      [ Alcotest.test_case "si_count" `Quick test_si_count;
        Alcotest.test_case "table renders rows" `Quick test_table_renders_all_rows;
        Alcotest.test_case "table pads short rows" `Quick test_table_pads_short_rows;
        Alcotest.test_case "log chart marks untested" `Quick test_log_bar_chart_untested;
        Alcotest.test_case "grouped chart" `Quick test_grouped_chart ] ) ]
