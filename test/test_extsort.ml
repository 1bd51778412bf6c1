(* Tests for the generic external merge sort. *)

let check = Alcotest.check

let qcheck = QCheck_alcotest.to_alcotest

(* ------------------------------------------------------------------ *)
(* Multiway merge *)

let of_list l =
  let r = ref l in
  fun () ->
    match !r with
    | [] -> None
    | x :: tl ->
        r := tl;
        Some x

let collect f =
  let acc = ref [] in
  f (fun x -> acc := x :: !acc);
  List.rev !acc

let test_multiway_basic () =
  let inputs = [| of_list [ "a"; "d"; "f" ]; of_list [ "b"; "c" ]; of_list [ "e" ] |] in
  let got = collect (fun output -> Extsort.Multiway.merge ~cmp:compare ~inputs ~output ()) in
  check (Alcotest.list Alcotest.string) "merged" [ "a"; "b"; "c"; "d"; "e"; "f" ] got

let test_multiway_empty_inputs () =
  let got =
    collect (fun output ->
        Extsort.Multiway.merge ~cmp:compare ~inputs:[| of_list []; of_list [ "x" ]; of_list [] |]
          ~output ())
  in
  check (Alcotest.list Alcotest.string) "merged" [ "x" ] got;
  let got2 = collect (fun output -> Extsort.Multiway.merge ~cmp:compare ~inputs:[||] ~output ()) in
  check (Alcotest.list Alcotest.string) "no inputs" [] got2

let test_multiway_stability () =
  (* equal keys: stream 0 before stream 1 *)
  let cmp a b = compare (String.length a) (String.length b) in
  let got =
    collect (fun output ->
        Extsort.Multiway.merge ~cmp ~inputs:[| of_list [ "aa" ]; of_list [ "bb" ] |] ~output ())
  in
  check (Alcotest.list Alcotest.string) "stable" [ "aa"; "bb" ] got

let prop_multiway_equals_list_merge =
  QCheck.Test.make ~name:"multiway merge = sort of concatenation" ~count:300
    QCheck.(list_of_size (QCheck.Gen.int_bound 6) (list (string_of_size QCheck.Gen.small_nat)))
    (fun lists ->
      let sorted_lists = List.map (List.sort compare) lists in
      let inputs = Array.of_list (List.map of_list sorted_lists) in
      let got = collect (fun output -> Extsort.Multiway.merge ~cmp:compare ~inputs ~output ()) in
      got = List.sort compare (List.concat lists))

(* ------------------------------------------------------------------ *)
(* Heap *)

let test_heap_basic () =
  let h = Extsort.Heap.create ~less:(fun a b -> a < b) in
  check Alcotest.bool "empty" true (Extsort.Heap.is_empty h);
  List.iter (Extsort.Heap.push h) [ 5; 1; 4; 2; 3 ];
  check Alcotest.int "length" 5 (Extsort.Heap.length h);
  check Alcotest.int "peek" 1 (Extsort.Heap.peek h);
  let drained = List.init 5 (fun _ -> Extsort.Heap.pop h) in
  check (Alcotest.list Alcotest.int) "sorted drain" [ 1; 2; 3; 4; 5 ] drained;
  Alcotest.check_raises "pop empty" (Invalid_argument "Heap.pop: empty") (fun () ->
      ignore (Extsort.Heap.pop h))

let prop_heap_drains_sorted =
  QCheck.Test.make ~name:"heap drains in sorted order" ~count:300 QCheck.(list int)
    (fun xs ->
      let h = Extsort.Heap.create ~less:(fun a b -> a < b) in
      List.iter (Extsort.Heap.push h) xs;
      let drained = List.init (List.length xs) (fun _ -> Extsort.Heap.pop h) in
      drained = List.sort compare xs)

(* ------------------------------------------------------------------ *)
(* External sort *)

let run_sort ?run_formation ?(block_size = 64) ?(blocks = 4) records =
  let budget = Extmem.Memory_budget.create ~blocks ~block_size in
  let temp = Extmem.Device.in_memory ~block_size () in
  let out = ref [] in
  let stats =
    Extsort.External_sort.sort ?run_formation ~budget ~temp ~cmp:compare
      ~input:(of_list records)
      ~output:(fun r -> out := r :: !out)
      ()
  in
  (List.rev !out, stats, temp, budget)

let test_extsort_small_in_memory () =
  let got, stats, temp, _ = run_sort [ "pear"; "apple"; "fig" ] in
  check (Alcotest.list Alcotest.string) "sorted" [ "apple"; "fig"; "pear" ] got;
  check Alcotest.int "no runs" 0 stats.Extsort.External_sort.initial_runs;
  check Alcotest.int "no merge passes" 0 stats.Extsort.External_sort.merge_passes;
  check Alcotest.int "no temp io" 0 (Extmem.Io_stats.total (Extmem.Device.stats temp))

let test_extsort_spills () =
  let records = List.init 200 (fun i -> Printf.sprintf "rec-%04d" (997 * i mod 200)) in
  let got, stats, temp, budget = run_sort ~block_size:32 ~blocks:3 records in
  check (Alcotest.list Alcotest.string) "sorted" (List.sort compare records) got;
  check Alcotest.bool "spilled" true (stats.Extsort.External_sort.initial_runs > 1);
  check Alcotest.bool "temp io happened" true (Extmem.Io_stats.total (Extmem.Device.stats temp) > 0);
  check Alcotest.int "records" 200 stats.Extsort.External_sort.records;
  check Alcotest.int "budget released" 0 (Extmem.Memory_budget.used_blocks budget)

let test_extsort_multi_pass () =
  (* tiny memory: fan-in 2, many runs -> multiple passes *)
  let records = List.init 400 (fun i -> Printf.sprintf "%05d" (7919 * i mod 100000)) in
  let got, stats, _, _ = run_sort ~block_size:16 ~blocks:3 records in
  check (Alcotest.list Alcotest.string) "sorted" (List.sort compare records) got;
  check Alcotest.bool "multiple passes" true (stats.Extsort.External_sort.merge_passes > 1)

let test_extsort_duplicates_preserved () =
  let records = [ "b"; "a"; "b"; "a"; "b" ] in
  let got, _, _, _ = run_sort records in
  check (Alcotest.list Alcotest.string) "multiset kept" [ "a"; "a"; "b"; "b"; "b" ] got

let test_extsort_empty_input () =
  let got, stats, _, _ = run_sort [] in
  check (Alcotest.list Alcotest.string) "empty" [] got;
  check Alcotest.int "zero records" 0 stats.Extsort.External_sort.records

let test_extsort_needs_three_blocks () =
  let budget = Extmem.Memory_budget.create ~blocks:2 ~block_size:16 in
  let temp = Extmem.Device.in_memory ~block_size:16 () in
  try
    ignore
      (Extsort.External_sort.sort ~budget ~temp ~cmp:compare ~input:(of_list [ "x" ])
         ~output:ignore ());
    Alcotest.fail "expected Exhausted"
  with Extmem.Memory_budget.Exhausted _ -> ()

let test_extsort_custom_order () =
  let cmp a b = compare b a in
  let budget = Extmem.Memory_budget.create ~blocks:3 ~block_size:16 in
  let temp = Extmem.Device.in_memory ~block_size:16 () in
  let out = ref [] in
  ignore
    (Extsort.External_sort.sort ~budget ~temp ~cmp
       ~input:(of_list (List.init 50 (fun i -> Printf.sprintf "%03d" i)))
       ~output:(fun r -> out := r :: !out)
       ());
  check (Alcotest.list Alcotest.string) "descending"
    (List.init 50 (fun i -> Printf.sprintf "%03d" (49 - i)))
    (List.rev !out)

let test_replacement_selection_correct () =
  let records = List.init 300 (fun i -> Printf.sprintf "%05d" (7919 * i mod 100000)) in
  let got, stats, _, _ =
    run_sort ~run_formation:`Replacement_selection ~block_size:32 ~blocks:3 records
  in
  check (Alcotest.list Alcotest.string) "sorted" (List.sort compare records) got;
  check Alcotest.bool "spilled" true (stats.Extsort.External_sort.initial_runs > 0)

let test_replacement_selection_fewer_runs () =
  (* on random input, replacement selection halves the run count *)
  let records = List.init 600 (fun i -> Printf.sprintf "%05d" (48271 * i mod 99991)) in
  let _, ls, _, _ = run_sort ~run_formation:`Load_sort ~block_size:32 ~blocks:3 records in
  let _, rs, _, _ =
    run_sort ~run_formation:`Replacement_selection ~block_size:32 ~blocks:3 records
  in
  check Alcotest.bool
    (Printf.sprintf "fewer runs (rs %d vs ls %d)" rs.Extsort.External_sort.initial_runs
       ls.Extsort.External_sort.initial_runs)
    true
    (rs.Extsort.External_sort.initial_runs < ls.Extsort.External_sort.initial_runs)

let test_replacement_selection_sorted_input_one_run () =
  (* already-sorted input: replacement selection produces a single run *)
  let records = List.init 400 (fun i -> Printf.sprintf "%05d" i) in
  let got, stats, _, _ =
    run_sort ~run_formation:`Replacement_selection ~block_size:32 ~blocks:3 records
  in
  check (Alcotest.list Alcotest.string) "sorted" records got;
  check Alcotest.int "single run" 1 stats.Extsort.External_sort.initial_runs;
  check Alcotest.int "read back in one pass" 1 stats.Extsort.External_sort.merge_passes

let test_replacement_selection_in_memory () =
  let got, stats, temp, _ = run_sort ~run_formation:`Replacement_selection [ "c"; "a"; "b" ] in
  check (Alcotest.list Alcotest.string) "sorted" [ "a"; "b"; "c" ] got;
  check Alcotest.int "no runs" 0 stats.Extsort.External_sort.initial_runs;
  check Alcotest.int "no temp io" 0 (Extmem.Io_stats.total (Extmem.Device.stats temp))

let prop_replacement_selection_equals_list_sort =
  QCheck.Test.make ~name:"replacement selection = List.sort" ~count:100
    QCheck.(pair (int_range 16 64) (list (string_of_size QCheck.Gen.small_nat)))
    (fun (block_size, records) ->
      let got, _, _, _ =
        run_sort ~run_formation:`Replacement_selection ~block_size ~blocks:3 records
      in
      got = List.sort compare records)

let prop_extsort_equals_list_sort =
  QCheck.Test.make ~name:"external sort = List.sort for any input and geometry" ~count:150
    QCheck.(
      triple (int_range 16 64) (int_range 3 6)
        (list (string_of_size QCheck.Gen.small_nat)))
    (fun (block_size, blocks, records) ->
      let got, _, _, _ = run_sort ~block_size ~blocks records in
      got = List.sort compare records)

let prop_extsort_io_bounded =
  (* I/O on the temp device is bounded by 2 * (passes + 1) * data blocks,
     a loose form of the n log_m n bound. *)
  QCheck.Test.make ~name:"external sort temp I/O is O(passes * n)" ~count:50
    QCheck.(list_of_size (QCheck.Gen.int_range 50 300) (string_of_size (QCheck.Gen.return 8)))
    (fun records ->
      let block_size = 32 and blocks = 3 in
      let _, stats, temp, _ = run_sort ~block_size ~blocks records in
      let data_bytes =
        List.fold_left (fun a r -> a + String.length r + 2 (* frame *)) 0 records
      in
      let data_blocks = (data_bytes / block_size) + 2 in
      let ios = Extmem.Io_stats.total (Extmem.Device.stats temp) in
      let passes = stats.Extsort.External_sort.merge_passes in
      (* every run occupies at least one block, so allow one block of
         rounding per initial run per pass on top of the data volume *)
      ios <= 2 * (passes + 1) * (data_blocks + stats.Extsort.External_sort.initial_runs))

let contains s sub =
  let n = String.length s and m = String.length sub in
  let rec go i = i + m <= n && (String.sub s i m = sub || go (i + 1)) in
  go 0

(* ------------------------------------------------------------------ *)
(* The pass driver *)

let test_driver_batch_lease () =
  (* a batch leases its readers and its output block while it merges, and
     gives them back after *)
  let budget = Extmem.Memory_budget.create ~blocks:4 ~block_size:16 in
  let arena = Extmem.Frame_arena.create ~budget () in
  let held = ref [] in
  let merge batch =
    held := Extmem.Memory_budget.held budget "test merge" :: !held;
    List.concat batch
  in
  let runs, passes =
    Extsort.External_sort.reduce ~arena ~who:"test merge" ~width:3 ~target:1 ~merge
      [ [ "a" ]; [ "b" ]; [ "c" ] ]
  in
  check (Alcotest.list (Alcotest.list Alcotest.string)) "merged" [ [ "a"; "b"; "c" ] ] runs;
  check Alcotest.int "one pass" 1 passes;
  check (Alcotest.list Alcotest.int) "three readers and the output held" [ 4 ] !held;
  check Alcotest.int "released after" 0 (Extmem.Memory_budget.used_blocks budget)

let test_driver_exhausted_names_merge () =
  let budget = Extmem.Memory_budget.create ~blocks:3 ~block_size:16 in
  let arena = Extmem.Frame_arena.create ~budget () in
  (try
     ignore
       (Extsort.External_sort.reduce ~arena ~who:"external sort merge" ~width:3 ~target:1
          ~merge:List.concat
          [ [ "a" ]; [ "b" ]; [ "c" ] ]);
     Alcotest.fail "expected Exhausted"
   with Extmem.Memory_budget.Exhausted who ->
     check Alcotest.bool (Printf.sprintf "who names the merge (%s)" who) true (contains who "merge"));
  check Alcotest.int "nothing leaked" 0 (Extmem.Memory_budget.used_blocks budget)

let prop_driver_passes =
  QCheck.Test.make ~name:"driver runs passes_needed passes" ~count:300
    QCheck.(triple (int_range 2 9) (int_range 2 9) (int_range 0 300))
    (fun (width, target, n) ->
      let arena = Extmem.Frame_arena.create () in
      let widest = ref 0 in
      let merge batch =
        widest := max !widest (List.length batch);
        List.concat batch
      in
      let runs, passes =
        Extsort.External_sort.reduce ~arena ~who:"merge" ~width ~target ~merge
          (List.init n (fun i -> [ i ]))
      in
      passes = Extsort.External_sort.passes_needed ~width ~target n
      && List.length runs <= target
      && !widest <= width
      && List.concat runs = List.init n Fun.id)

(* The final merge's opener: [sort_open] over 6 records of which the
   48-byte formation arena holds 2, so 3 runs reach a 3-way final merge. *)
let open_final_merge () =
  let budget = Extmem.Memory_budget.create ~blocks:4 ~block_size:16 in
  let temp = Extmem.Device.in_memory ~block_size:16 () in
  let o =
    Extsort.External_sort.sort_open ~budget ~temp ~cmp:compare
      ~input:(of_list [ "f"; "c"; "a"; "e"; "b"; "d" ])
      ()
  in
  check Alcotest.int "three runs" 3 o.Extsort.External_sort.stats.Extsort.External_sort.initial_runs;
  (o, budget)

let test_final_merge_fan_in () =
  let o, budget = open_final_merge () in
  check Alcotest.int "fan-in held while streaming" 3
    (Extmem.Memory_budget.held budget "external sort final merge");
  check Alcotest.int "and nothing else" 3 (Extmem.Memory_budget.used_blocks budget);
  let rec all acc =
    match o.Extsort.External_sort.pull () with None -> List.rev acc | Some x -> all (x :: acc)
  in
  check (Alcotest.list Alcotest.string) "merged" [ "a"; "b"; "c"; "d"; "e"; "f" ] (all []);
  check Alcotest.int "released at exhaustion" 0 (Extmem.Memory_budget.used_blocks budget);
  o.Extsort.External_sort.close ();
  check Alcotest.int "close idempotent" 0 (Extmem.Memory_budget.used_blocks budget)

let test_final_merge_early_close () =
  let o, budget = open_final_merge () in
  check (Alcotest.option Alcotest.string) "first" (Some "a") (o.Extsort.External_sort.pull ());
  o.Extsort.External_sort.close ();
  check Alcotest.int "released early" 0 (Extmem.Memory_budget.used_blocks budget);
  o.Extsort.External_sort.close ();
  check Alcotest.int "close again is harmless" 0 (Extmem.Memory_budget.used_blocks budget)

(* ------------------------------------------------------------------ *)
(* External priority queue *)

let make_pq ?buffer_blocks ?(block_size = 64) ?(blocks = 4) () =
  let budget = Extmem.Memory_budget.create ~blocks ~block_size in
  let arena = Extmem.Frame_arena.create ~budget () in
  let temp = Extmem.Device.in_memory ~block_size () in
  let pq = Extsort.Ext_pq.create ~arena ?buffer_blocks ~budget ~temp ~cmp:compare () in
  (pq, budget)

let drain_pq pq =
  let rec go acc =
    match Extsort.Ext_pq.delete_min pq with None -> List.rev acc | Some r -> go (r :: acc)
  in
  go []

let test_pq_basic () =
  let pq, budget = make_pq () in
  check Alcotest.bool "empty" true (Extsort.Ext_pq.is_empty pq);
  check (Alcotest.option Alcotest.string) "peek empty" None (Extsort.Ext_pq.peek_min pq);
  List.iter (Extsort.Ext_pq.insert pq) [ "pear"; "apple"; "fig" ];
  check Alcotest.int "length" 3 (Extsort.Ext_pq.length pq);
  check (Alcotest.option Alcotest.string) "peek" (Some "apple") (Extsort.Ext_pq.peek_min pq);
  check (Alcotest.list Alcotest.string) "sorted drain" [ "apple"; "fig"; "pear" ] (drain_pq pq);
  Extsort.Ext_pq.destroy pq;
  check Alcotest.int "quiescent" 0 (Extmem.Memory_budget.used_blocks budget)

let test_pq_spills_and_compacts () =
  (* tiny geometry: every few inserts spill, fan-in 2 forces compactions *)
  let pq, budget = make_pq ~block_size:32 ~blocks:4 () in
  let records = List.init 300 (fun i -> Printf.sprintf "rec-%04d" (997 * i mod 300)) in
  List.iter (Extsort.Ext_pq.insert pq) records;
  let stats = Extsort.Ext_pq.stats pq in
  check Alcotest.bool "spilled" true (stats.Extsort.Ext_pq.spills > 1);
  check Alcotest.bool "compacted" true (stats.Extsort.Ext_pq.compactions > 0);
  check Alcotest.bool "run blocks counted" true (Extsort.Ext_pq.run_blocks pq > 0);
  check (Alcotest.list Alcotest.string) "sorted drain" (List.sort compare records) (drain_pq pq);
  Extsort.Ext_pq.destroy pq;
  check Alcotest.int "quiescent" 0 (Extmem.Memory_budget.used_blocks budget)

let test_pq_interleaved () =
  (* delete-min between inserts: the two tiers must agree on the minimum *)
  let pq, budget = make_pq ~block_size:32 ~blocks:4 () in
  let out = ref [] in
  for i = 0 to 199 do
    Extsort.Ext_pq.insert pq (Printf.sprintf "%04d" (48271 * i mod 1000));
    if i mod 3 = 2 then
      match Extsort.Ext_pq.delete_min pq with
      | Some r -> out := r :: !out
      | None -> Alcotest.fail "unexpected empty"
  done;
  let rest = drain_pq pq in
  (* every delete returned the minimum of what was live at the time; the
     reference below replays the same trace against a sorted list *)
  let reference =
    let live = ref [] and outs = ref [] in
    for i = 0 to 199 do
      live := Printf.sprintf "%04d" (48271 * i mod 1000) :: !live;
      if i mod 3 = 2 then begin
        let sorted = List.sort compare !live in
        outs := List.hd sorted :: !outs;
        live := List.tl sorted
      end
    done;
    (List.rev !outs, List.sort compare !live)
  in
  check (Alcotest.list Alcotest.string) "interleaved pops" (fst reference) (List.rev !out);
  check (Alcotest.list Alcotest.string) "final drain" (snd reference) rest;
  Extsort.Ext_pq.destroy pq;
  check Alcotest.int "quiescent" 0 (Extmem.Memory_budget.used_blocks budget)

let test_pq_needs_four_blocks () =
  let budget = Extmem.Memory_budget.create ~blocks:3 ~block_size:32 in
  let temp = Extmem.Device.in_memory ~block_size:32 () in
  try
    ignore (Extsort.Ext_pq.create ~budget ~temp ~cmp:compare ());
    Alcotest.fail "expected Exhausted"
  with Extmem.Memory_budget.Exhausted _ -> ()

let test_pq_meld_adopts_runs () =
  (* donor with intact runs: meld moves them by reference (no copy I/O
     on the donor's device beyond what the spills already wrote) *)
  let block_size = 32 in
  let budget = Extmem.Memory_budget.create ~blocks:8 ~block_size in
  let arena = Extmem.Frame_arena.create ~budget () in
  let temp_a = Extmem.Device.in_memory ~block_size () in
  let temp_b = Extmem.Device.in_memory ~block_size () in
  let a = Extsort.Ext_pq.create ~arena ~buffer_blocks:2 ~budget ~temp:temp_a ~cmp:compare () in
  let b = Extsort.Ext_pq.create ~arena ~buffer_blocks:2 ~budget ~temp:temp_b ~cmp:compare () in
  let xs = List.init 60 (fun i -> Printf.sprintf "a%03d" (7 * i mod 60)) in
  let ys = List.init 60 (fun i -> Printf.sprintf "b%03d" (11 * i mod 60)) in
  List.iter (Extsort.Ext_pq.insert a) xs;
  List.iter (Extsort.Ext_pq.insert b) ys;
  check Alcotest.bool "donor spilled" true (Extsort.Ext_pq.run_count b > 0);
  let writes_before = (Extmem.Device.stats temp_b).Extmem.Io_stats.writes in
  Extsort.Ext_pq.meld a b;
  let writes_after = (Extmem.Device.stats temp_b).Extmem.Io_stats.writes in
  check Alcotest.int "no copy on adoption" writes_before writes_after;
  check Alcotest.int "melded length" 120 (Extsort.Ext_pq.length a);
  check (Alcotest.list Alcotest.string) "melded drain"
    (List.sort compare (xs @ ys))
    (drain_pq a);
  Extsort.Ext_pq.destroy a;
  check Alcotest.int "quiescent" 0 (Extmem.Memory_budget.used_blocks budget)

let test_pq_meld_consumed_donor () =
  (* donor already served delete-mins from its runs: meld compacts the
     remainder so consumed records stay deleted *)
  let block_size = 32 in
  let budget = Extmem.Memory_budget.create ~blocks:8 ~block_size in
  let arena = Extmem.Frame_arena.create ~budget () in
  let temp = Extmem.Device.in_memory ~block_size () in
  let a = Extsort.Ext_pq.create ~arena ~buffer_blocks:2 ~budget ~temp ~cmp:compare () in
  let b =
    Extsort.Ext_pq.create ~arena ~buffer_blocks:2 ~budget
      ~temp:(Extmem.Device.in_memory ~block_size ())
      ~cmp:compare ()
  in
  let ys = List.init 80 (fun i -> Printf.sprintf "%03d" (13 * i mod 80)) in
  List.iter (Extsort.Ext_pq.insert b) ys;
  let popped = List.filter_map (fun _ -> Extsort.Ext_pq.delete_min b) (List.init 10 Fun.id) in
  check (Alcotest.list Alcotest.string) "donor pops min"
    (List.filteri (fun i _ -> i < 10) (List.sort compare ys))
    popped;
  Extsort.Ext_pq.insert a "500";
  Extsort.Ext_pq.meld a b;
  check Alcotest.int "melded length" 71 (Extsort.Ext_pq.length a);
  let expected =
    List.sort compare ("500" :: List.filteri (fun i _ -> i >= 10) (List.sort compare ys))
  in
  check (Alcotest.list Alcotest.string) "melded drain" expected (drain_pq a);
  Extsort.Ext_pq.destroy a;
  check Alcotest.int "quiescent" 0 (Extmem.Memory_budget.used_blocks budget)

(* Differential wall: random insert / delete-min / meld traces against a
   sorted-list reference model, across block-size x memory geometries,
   with a destroy-probe quiescence check after every trace. *)

type pq_op = Pq_insert of int * string | Pq_delete of int | Pq_meld

let pq_op_gen =
  QCheck.Gen.(
    frequency
      [
        (5, map2 (fun q r -> Pq_insert (q, r)) (int_bound 1) (string_size (int_bound 12)));
        (3, map (fun q -> Pq_delete q) (int_bound 1));
        (1, return Pq_meld);
      ])

let pq_trace_arb =
  QCheck.make
    ~print:(fun ops ->
      String.concat ";"
        (List.map
           (function
             | Pq_insert (q, r) -> Printf.sprintf "ins%d(%s)" q (String.escaped r)
             | Pq_delete q -> Printf.sprintf "del%d" q
             | Pq_meld -> "meld")
           ops))
    QCheck.Gen.(list_size (int_range 0 120) pq_op_gen)

let pq_geometries = [ (32, 4); (32, 8); (64, 5); (128, 6) ]

let prop_pq_differential =
  QCheck.Test.make ~name:"ext pq = reference heap over random traces" ~count:60 pq_trace_arb
    (fun ops ->
      List.for_all
        (fun (block_size, blocks) ->
          (* two queues sharing one budget; meld folds q1 into q0 *)
          let budget = Extmem.Memory_budget.create ~blocks:(2 * blocks) ~block_size in
          let arena = Extmem.Frame_arena.create ~budget () in
          let mk () =
            Extsort.Ext_pq.create ~arena ~buffer_blocks:2 ~budget
              ~temp:(Extmem.Device.in_memory ~block_size ())
              ~cmp:compare ()
          in
          let qs = [| mk (); mk () |] in
          let melded = ref false in
          let refs = [| ref []; ref [] |] in
          let ok = ref true in
          let expect got want = if got <> want then ok := false in
          List.iter
            (fun op ->
              let slot q = if !melded then 0 else q in
              match op with
              | Pq_insert (q, r) ->
                  let q = slot q in
                  Extsort.Ext_pq.insert qs.(q) r;
                  refs.(q) := r :: !(refs.(q))
              | Pq_delete q ->
                  let q = slot q in
                  let want =
                    match List.sort compare !(refs.(q)) with
                    | [] -> None
                    | m :: rest ->
                        refs.(q) := rest;
                        Some m
                  in
                  expect (Extsort.Ext_pq.delete_min qs.(q)) want
              | Pq_meld ->
                  if not !melded then begin
                    Extsort.Ext_pq.meld qs.(0) qs.(1);
                    refs.(0) := !(refs.(1)) @ !(refs.(0));
                    refs.(1) := [];
                    melded := true
                  end)
            ops;
          expect (drain_pq qs.(0)) (List.sort compare !(refs.(0)));
          if not !melded then expect (drain_pq qs.(1)) (List.sort compare !(refs.(1)));
          Extsort.Ext_pq.destroy qs.(0);
          if not !melded then Extsort.Ext_pq.destroy qs.(1);
          (* destroy-probe quiescence: no owner may still hold blocks *)
          if Extmem.Memory_budget.used_blocks budget <> 0 then ok := false;
          List.iter
            (fun (_, s) -> if s.Extmem.Frame_arena.held <> 0 then ok := false)
            (Extmem.Frame_arena.owners arena);
          !ok)
        pq_geometries)

(* ------------------------------------------------------------------ *)

let () =
  Alcotest.run "extsort"
    [
      ( "multiway",
        [
          Alcotest.test_case "basic" `Quick test_multiway_basic;
          Alcotest.test_case "empty inputs" `Quick test_multiway_empty_inputs;
          Alcotest.test_case "stability" `Quick test_multiway_stability;
          qcheck prop_multiway_equals_list_merge;
        ] );
      ( "pass_driver",
        [
          Alcotest.test_case "batch lease" `Quick test_driver_batch_lease;
          Alcotest.test_case "exhausted names merge" `Quick test_driver_exhausted_names_merge;
          qcheck prop_driver_passes;
        ] );
      ( "heap",
        [
          Alcotest.test_case "basic" `Quick test_heap_basic;
          qcheck prop_heap_drains_sorted;
        ] );
      ( "replacement_selection",
        [
          Alcotest.test_case "correct" `Quick test_replacement_selection_correct;
          Alcotest.test_case "fewer runs" `Quick test_replacement_selection_fewer_runs;
          Alcotest.test_case "sorted input one run" `Quick
            test_replacement_selection_sorted_input_one_run;
          Alcotest.test_case "in-memory fast path" `Quick test_replacement_selection_in_memory;
          qcheck prop_replacement_selection_equals_list_sort;
        ] );
      ( "external_sort",
        [
          Alcotest.test_case "in-memory fast path" `Quick test_extsort_small_in_memory;
          Alcotest.test_case "spills to runs" `Quick test_extsort_spills;
          Alcotest.test_case "multi-pass" `Quick test_extsort_multi_pass;
          Alcotest.test_case "duplicates" `Quick test_extsort_duplicates_preserved;
          Alcotest.test_case "empty input" `Quick test_extsort_empty_input;
          Alcotest.test_case "needs three blocks" `Quick test_extsort_needs_three_blocks;
          Alcotest.test_case "custom order" `Quick test_extsort_custom_order;
          Alcotest.test_case "final merge fan-in" `Quick test_final_merge_fan_in;
          Alcotest.test_case "final merge early close" `Quick test_final_merge_early_close;
          qcheck prop_extsort_equals_list_sort;
          qcheck prop_extsort_io_bounded;
        ] );
      ( "ext_pq",
        [
          Alcotest.test_case "basic" `Quick test_pq_basic;
          Alcotest.test_case "spills and compacts" `Quick test_pq_spills_and_compacts;
          Alcotest.test_case "interleaved" `Quick test_pq_interleaved;
          Alcotest.test_case "needs four blocks" `Quick test_pq_needs_four_blocks;
          Alcotest.test_case "meld adopts runs" `Quick test_pq_meld_adopts_runs;
          Alcotest.test_case "meld consumed donor" `Quick test_pq_meld_consumed_donor;
          qcheck prop_pq_differential;
        ] );
    ]
