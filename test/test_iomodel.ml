(* Tests for the analytical I/O model (§4 of the paper). *)

let check = Alcotest.check

let params ?(n = 1_000_000) ?(b = 100) ?(m = 64) ?(k = 85) () =
  { Iomodel.Model.n_elements = n; elements_per_block = b; memory_blocks = m; max_fanout = k }

let test_blocks () =
  check Alcotest.int "exact" 10_000 (Iomodel.Model.blocks (params ()));
  check Alcotest.int "rounds up" 11 (Iomodel.Model.blocks (params ~n:1001 ~b:100 ()))

let test_log_ceil () =
  check (Alcotest.float 1e-9) "saturates below 1" 1.0 (Iomodel.Model.log_ceil ~base:10. 0.5);
  check (Alcotest.float 1e-9) "saturates at base<=1" 1.0 (Iomodel.Model.log_ceil ~base:1. 100.);
  check (Alcotest.float 1e-9) "log_10 1000" 3.0 (Iomodel.Model.log_ceil ~base:10. 1000.)

let test_lower_bound_vs_flat () =
  (* Theorem 4.4: the XML bound is no more than the flat-file bound, and
     strictly less when k << N *)
  let p = params () in
  let xml = Iomodel.Model.lower_bound p in
  let flat = Iomodel.Model.merge_sort_bound p in
  check Alcotest.bool "xml <= flat" true (xml <= flat);
  check Alcotest.bool "strictly easier here" true (xml < flat);
  (* when k/B <= 1 the bound degenerates to one scan *)
  let tiny_fanout = params ~k:10 ~b:100 () in
  check (Alcotest.float 1e-6) "scan bound"
    (float_of_int (Iomodel.Model.blocks tiny_fanout))
    (Iomodel.Model.lower_bound tiny_fanout)

let test_nexsort_bound_between () =
  (* lower bound <= NEXSORT bound, and NEXSORT <= merge sort + n (its
     extra additive scan) once the input is large relative to k*t *)
  let p = params ~n:10_000_000 () in
  let t = 2 * 100 in
  let nx = Iomodel.Model.nexsort_bound ~threshold_elements:t p in
  let lb = Iomodel.Model.lower_bound p in
  let ms = Iomodel.Model.merge_sort_bound p in
  check Alcotest.bool "lb <= nx" true (lb <= nx);
  check Alcotest.bool "nx <= ms + n" true
    (nx <= ms +. float_of_int (Iomodel.Model.blocks p))

let test_nexsort_bound_independent_of_n () =
  (* the log factor depends on k*t, not N: doubling N doubles the bound
     exactly (linearity), unlike merge sort *)
  let t = 200 in
  let p1 = params ~n:1_000_000 () in
  let p2 = params ~n:2_000_000 () in
  let nx1 = Iomodel.Model.nexsort_bound ~threshold_elements:t p1 in
  let nx2 = Iomodel.Model.nexsort_bound ~threshold_elements:t p2 in
  check (Alcotest.float 1e-6) "linear in n" 2.0 (nx2 /. nx1);
  let ms1 = Iomodel.Model.merge_sort_bound p1 in
  let ms2 = Iomodel.Model.merge_sort_bound p2 in
  check Alcotest.bool "merge sort superlinear" true (ms2 /. ms1 > 2.0)

let test_merge_sort_passes () =
  (* fits in memory: a single pass *)
  check Alcotest.int "in-memory" 1 (Iomodel.Model.merge_sort_passes (params ~n:5_000 ~m:64 ()));
  (* classic two-level case *)
  let p = params ~n:1_000_000 ~b:100 ~m:64 () in
  (* 10_000 blocks, 157 runs, fan-in 63 -> 2 merge levels + formation *)
  check Alcotest.int "three passes" 3 (Iomodel.Model.merge_sort_passes p);
  (* passes grow as memory shrinks *)
  let small = Iomodel.Model.merge_sort_passes (params ~n:1_000_000 ~m:8 ()) in
  check Alcotest.bool "more passes with less memory" true (small > 3)

let test_within_constant_factor () =
  check Alcotest.bool "close" true
    (Iomodel.Model.within_constant_factor ~measured:100. ~predicted:30. ());
  check Alcotest.bool "too far" false
    (Iomodel.Model.within_constant_factor ~measured:1000. ~predicted:10. ());
  check Alcotest.bool "custom factor" true
    (Iomodel.Model.within_constant_factor ~factor:200. ~measured:1000. ~predicted:10. ());
  check Alcotest.bool "zero predicted" false
    (Iomodel.Model.within_constant_factor ~measured:10. ~predicted:0. ())

(* measured NEXSORT I/O tracks the Theorem 4.5 bound within a constant
   factor across sizes (the E-lb experiment as a test) *)
let test_measured_within_bound () =
  let config = Nexsort.Config.make ~block_size:512 ~memory_blocks:16 () in
  let ordering = Nexsort.Ordering.by_attr "id" in
  List.iter
    (fun fanouts ->
      let xml, stats =
        Xmlgen.Gen.to_string (fun sink -> Xmlgen.Gen.exact_shape ~avg_bytes:60 ~fanouts sink)
      in
      let _, report = Engine.sort_string ~config ~ordering xml in
      let avg = stats.Xmlgen.Gen.bytes / max 1 stats.Xmlgen.Gen.elements in
      let p =
        {
          Iomodel.Model.n_elements = stats.Xmlgen.Gen.elements;
          elements_per_block = max 1 (512 / avg);
          memory_blocks = 16;
          max_fanout = List.fold_left max 1 fanouts;
        }
      in
      let predicted =
        Iomodel.Model.nexsort_bound ~threshold_elements:(2 * max 1 (512 / avg)) p
      in
      let measured = float_of_int (Extmem.Io_stats.total report.Nexsort.total_io) in
      check Alcotest.bool
        (Printf.sprintf "within constant factor (measured %.0f, bound %.0f)" measured predicted)
        true
        (Iomodel.Model.within_constant_factor ~measured ~predicted ()))
    [ [ 40; 10 ]; [ 40; 40 ]; [ 20; 20; 8 ] ]

let () =
  Alcotest.run "iomodel"
    [
      ( "model",
        [
          Alcotest.test_case "blocks" `Quick test_blocks;
          Alcotest.test_case "log_ceil" `Quick test_log_ceil;
          Alcotest.test_case "lower bound vs flat" `Quick test_lower_bound_vs_flat;
          Alcotest.test_case "nexsort bound between" `Quick test_nexsort_bound_between;
          Alcotest.test_case "nexsort bound linear in n" `Quick test_nexsort_bound_independent_of_n;
          Alcotest.test_case "merge sort passes" `Quick test_merge_sort_passes;
          Alcotest.test_case "within constant factor" `Quick test_within_constant_factor;
          Alcotest.test_case "measured within bound" `Quick test_measured_within_bound;
        ] );
    ]
