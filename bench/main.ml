(* Benchmark harness: regenerates every table and figure of the paper's
   evaluation (§5), plus the analysis-validation and ablation experiments
   listed in DESIGN.md.

     dune exec bench/main.exe            -- run everything
     dune exec bench/main.exe fig5       -- one experiment
     dune exec bench/main.exe -- --quick -- scaled-down sizes
     dune exec bench/main.exe micro      -- bechamel micro-benchmarks
     dune exec bench/main.exe linear-sweep -- the doubling sweep (a gate)

   The paper's primary metric is the number of block I/Os; wall-clock
   seconds are reported as well.  Absolute values differ from the paper
   (its substrate was TPIE on year-2003 hardware; ours is a virtual disk),
   but the shapes under test are the same — see EXPERIMENTS.md. *)

module Ordering = Nexsort.Ordering

let quick = ref false
let no_fuse = ref false
let metrics_file = ref None
let wall_file = ref None
let trace_file = ref None

module Config = struct
  include Nexsort.Config

  (* --no-fuse overrides the fusion default for experiments that don't
     pin it *)
  let make ?block_size ?memory_blocks ?threshold ?depth_limit ?degeneration ?root_fusion
      ?encoding ?data_stack_blocks ?path_stack_blocks ?keep_whitespace ?tracer () =
    let root_fusion =
      match root_fusion with
      | Some _ as r -> r
      | None -> if !no_fuse then Some false else None
    in
    Nexsort.Config.make ?block_size ?memory_blocks ?threshold ?depth_limit ?degeneration
      ?root_fusion ?encoding ?data_stack_blocks ?path_stack_blocks ?keep_whitespace ?tracer ()
end

let ordering = Ordering.by_attr "id"

(* ------------------------------------------------------------------ *)
(* measurement helpers *)

type run = {
  io : int;       (* total block I/Os, inputs and outputs included *)
  seconds : float;
  detail : string;
}

let time f =
  let t0 = Unix.gettimeofday () in
  let x = f () in
  (x, Unix.gettimeofday () -. t0)

let run_nexsort ~config doc_dev =
  Extmem.Io_stats.reset (Extmem.Device.stats doc_dev);
  let output = Config.scratch_device config ~name:"out" in
  let report, seconds =
    time (fun () ->
        Engine.with_session config (fun session ->
            Nexsort.sort_device ~session ~ordering ~input:doc_dev ~output ()))
  in
  {
    io = Extmem.Io_stats.total report.Nexsort.total_io;
    seconds;
    detail =
      Printf.sprintf "sorts=%d(mem %d/ext %d) frags=%d passes=%d" report.Nexsort.subtree_sorts
        report.Nexsort.in_memory_sorts report.Nexsort.external_sorts report.Nexsort.fragment_runs
        report.Nexsort.merge_passes;
  }

let run_mergesort ~config doc_dev =
  Extmem.Io_stats.reset (Extmem.Device.stats doc_dev);
  let output = Config.scratch_device config ~name:"out" in
  let report, seconds =
    time (fun () ->
        Baselines.Keypath_sort.sort_device ~config ~ordering ~input:doc_dev ~output ())
  in
  {
    io = Extmem.Io_stats.total report.Baselines.Keypath_sort.total_io;
    seconds;
    detail =
      Printf.sprintf "runs=%d passes=%d" report.Baselines.Keypath_sort.initial_runs
        report.Baselines.Keypath_sort.merge_passes;
  }

let make_doc ?(avg_bytes = 100) ~fanouts () =
  let dev = Extmem.Device.in_memory ~name:"input" ~block_size:1024 () in
  let stats =
    Xmlgen.Gen.to_device dev (fun sink -> Xmlgen.Gen.exact_shape ~avg_bytes ~fanouts sink)
  in
  (dev, stats)

(* re-home a document onto an input endpoint with the right block size *)
let with_block_size bs dev =
  let input = Config.scratch_device (Config.make ~block_size:bs ()) ~name:"input" in
  Extmem.Device.load_string input (Extmem.Device.contents dev);
  input

let heading fmt =
  Printf.ksprintf
    (fun s -> Printf.printf "\n%s\n%s\n" s (String.make (String.length s) '='))
    fmt

let subnote fmt = Printf.ksprintf (fun s -> Printf.printf "%s\n" s) fmt

(* ------------------------------------------------------------------ *)
(* T1: Table 1 — key-path representation of D1 *)

let table1 () =
  heading "T1 / Table 1: key-path representation of D1 (Figure 1)";
  let rows =
    Baselines.Keypath_sort.keypath_table ~ordering:Xmlgen.Company.ordering
      Xmlgen.Company.figure_1_d1
  in
  Printf.printf "%-22s %s\n" "Key path" "Element content";
  List.iter (fun (path, content) -> Printf.printf "%-22s %s\n" path content) rows

(* ------------------------------------------------------------------ *)
(* F5: effect of main memory size *)

let fig5_doc () =
  (* a hierarchical document with small fan-outs, the regime of the
     paper's Figure 5 ("when fan-outs are small, NEXSORT is not very
     dependent on main memory size"); subtree collapses stay close to the
     threshold, so the data stack oscillation fits its resident window *)
  let fanouts = if !quick then [ 6; 6; 6; 6 ] else [ 6; 6; 6; 6; 6; 4 ] in
  make_doc ~avg_bytes:150 ~fanouts ()

let fig5 () =
  heading "F5 / Figure 5: effect of main memory size";
  let doc, stats = fig5_doc () in
  subnote "input: %d elements, %d KiB; block size 1 KiB; threshold 2 blocks"
    stats.Xmlgen.Gen.elements (stats.Xmlgen.Gen.bytes / 1024);
  Printf.printf "%-12s | %-38s | %-28s | %s\n" "memory" "NEXSORT io / s" "MergeSort io / s"
    "mergesort/nexsort io";
  let mems = [ 8; 12; 16; 24; 32; 48; 64; 96 ] in
  List.iter
    (fun m ->
      let config = Config.make ~block_size:1024 ~memory_blocks:m () in
      let input = with_block_size 1024 doc in
      let nx = run_nexsort ~config input in
      let ms = run_mergesort ~config input in
      Printf.printf "%3d blocks   | %8d  %6.2fs %-20s | %8d  %6.2fs %-8s | %.2fx\n" m nx.io
        nx.seconds nx.detail ms.io ms.seconds ms.detail
        (float_of_int ms.io /. float_of_int nx.io))
    mems

(* ------------------------------------------------------------------ *)
(* F6: effect of input size with constant maximum fan-out *)

let fig6_shapes () =
  (* constant maximum fan-out 85 (the paper's cap), growing sizes *)
  if !quick then [ [ 85 ]; [ 85; 10 ]; [ 85; 30 ]; [ 85; 85 ] ]
  else
    [ [ 85; 10 ]; [ 85; 85 ]; [ 85; 85; 4 ]; [ 85; 85; 10 ]; [ 85; 85; 22 ]; [ 85; 85; 44 ] ]

let fig6 () =
  heading "F6 / Figure 6: effect of input size (max fan-out capped at 85)";
  subnote "block size 1 KiB, memory 16 blocks (deliberately small, like the paper's 3 MB)";
  Printf.printf "%-12s | %-26s | %-36s | %s\n" "elements" "NEXSORT io / s" "MergeSort io / s"
    "io per element (nx, ms)";
  let config = Config.make ~block_size:1024 ~memory_blocks:16 () in
  List.iter
    (fun fanouts ->
      let doc, stats = make_doc ~fanouts () in
      let input = with_block_size 1024 doc in
      let nx = run_nexsort ~config input in
      let ms = run_mergesort ~config input in
      let n = float_of_int stats.Xmlgen.Gen.elements in
      Printf.printf "%8d     | %9d  %6.2fs        | %9d  %6.2fs %-16s | %.3f, %.3f\n"
        stats.Xmlgen.Gen.elements nx.io nx.seconds ms.io ms.seconds ms.detail
        (float_of_int nx.io /. n)
        (float_of_int ms.io /. n))
    (fig6_shapes ())

(* ------------------------------------------------------------------ *)
(* T2+F7: effect of tree shape *)

let fig7_shapes () =
  (* Table 2 scaled from 3M elements to ~60k: heights 2..6, near-uniform
     fan-out at every level *)
  if !quick then
    [ (2, [ 6000 ]); (3, [ 77; 77 ]); (4, [ 18; 18; 18 ]); (5, [ 9; 9; 9; 9 ]);
      (6, [ 5; 5; 6; 6; 6 ]) ]
  else
    [
      (2, [ 60000 ]);
      (3, [ 244; 244 ]);
      (4, [ 39; 39; 39 ]);
      (5, [ 15; 16; 16; 16 ]);
      (6, [ 9; 9; 9; 9; 9 ]);
    ]

let fig7 () =
  heading "T2+F7 / Table 2 + Figure 7: effect of tree shape (constant size)";
  subnote "block size 1 KiB, memory 16 blocks; paper sizes scaled 3e6 -> ~6e4 elements";
  Printf.printf "%-7s %-18s %-9s | %-20s | %-20s | %-20s\n" "height" "fan-out per level"
    "elements" "NEXSORT io / s" "NEXSORT no-degen" "MergeSort io / s";
  List.iter
    (fun (h, fanouts) ->
      let doc, stats = make_doc ~fanouts () in
      let input = with_block_size 1024 doc in
      let config = Config.make ~block_size:1024 ~memory_blocks:16 () in
      let nx = run_nexsort ~config input in
      let nxnd =
        run_nexsort
          ~config:(Config.make ~block_size:1024 ~memory_blocks:16 ~degeneration:false ())
          input
      in
      let ms = run_mergesort ~config input in
      Printf.printf "%-7d %-18s %-9d | %9d %6.2fs   | %9d %6.2fs   | %9d %6.2fs\n" h
        (String.concat "," (List.map string_of_int fanouts))
        stats.Xmlgen.Gen.elements nx.io nx.seconds nxnd.io nxnd.seconds ms.io ms.seconds)
    (fig7_shapes ())

(* ------------------------------------------------------------------ *)
(* E-thr: effect of the sort threshold (§5, figure in the full version) *)

let threshold () =
  heading "E-thr / effect of the sort threshold t";
  let doc, stats = fig5_doc () in
  subnote "input: %d elements; block size 1 KiB, memory 32 blocks" stats.Xmlgen.Gen.elements;
  Printf.printf "%-14s | %s\n" "threshold" "NEXSORT io / s / detail";
  List.iter
    (fun mult ->
      let config = Config.make ~block_size:1024 ~memory_blocks:32 ~threshold:(mult * 1024) () in
      let input = with_block_size 1024 doc in
      let nx = run_nexsort ~config input in
      Printf.printf "t = %2d blocks  | %8d  %6.2fs  %s\n" mult nx.io nx.seconds nx.detail)
    [ 1; 2; 4; 8; 16 ]

(* ------------------------------------------------------------------ *)
(* E-lb: measured I/O vs the bounds of §4 *)

let model () =
  heading "E-lb / Theorems 4.4-4.5: measured I/O vs analytical bounds";
  subnote
    "B = elements per block, m = memory blocks; bounds are order-of-growth (constants differ)";
  Printf.printf "%-10s %-4s | %-10s %-12s %-8s | %-10s %-12s %-8s | %s\n" "elements" "k" "nx io"
    "nx bound" "ratio" "ms io" "ms bound" "ratio" "lower bound";
  let config = Config.make ~block_size:1024 ~memory_blocks:16 () in
  let shapes =
    if !quick then [ `Exact [ 85; 10 ]; `Exact [ 85; 85 ] ]
    else
      [ `Exact [ 85; 10 ]; `Exact [ 85; 85 ]; `Exact [ 85; 85; 10 ];
        (* the Lemma 4.1 adversary: the shape for which the lower bound is
           tight *)
        `Adversarial (85, 20_000);
        (* at k = 2 the adversary is a spine 20,000 levels deep *)
        `Adversarial (2, 40_000) ]
  in
  List.iter
    (fun shape ->
      let doc, stats, fanouts =
        match shape with
        | `Exact fanouts ->
            let doc, stats = make_doc ~fanouts () in
            (doc, stats, fanouts)
        | `Adversarial (k, n) ->
            let dev = Extmem.Device.in_memory ~name:"input" ~block_size:1024 () in
            let stats =
              Xmlgen.Gen.to_device dev (fun sink ->
                  Xmlgen.Gen.adversarial ~k ~n_elements:n sink)
            in
            (dev, stats, [ k ])
      in
      let input = with_block_size 1024 doc in
      let nx = run_nexsort ~config input in
      (* the merge sort's key paths grow with the height, O(n * height)
         bytes in all: run it only where that stays small *)
      let ms =
        if stats.Xmlgen.Gen.height > 1_000 then None else Some (run_mergesort ~config input)
      in
      let k = List.fold_left max 1 fanouts in
      let elements_per_block =
        max 1 (1024 / (stats.Xmlgen.Gen.bytes / max 1 stats.Xmlgen.Gen.elements))
      in
      let params =
        {
          Iomodel.Model.n_elements = stats.Xmlgen.Gen.elements;
          elements_per_block;
          memory_blocks = 16;
          max_fanout = k;
        }
      in
      let nx_bound =
        Iomodel.Model.nexsort_bound ~threshold_elements:(2 * elements_per_block) params
      in
      let ms_bound = Iomodel.Model.merge_sort_bound params in
      let lb = Iomodel.Model.lower_bound params in
      Printf.printf "%-10d %-4d | %-10d %-12.0f %-8.2f | %-10s %-12.0f %-8s | %.0f\n"
        stats.Xmlgen.Gen.elements k nx.io nx_bound
        (float_of_int nx.io /. nx_bound)
        (match ms with Some ms -> string_of_int ms.io | None -> "-")
        ms_bound
        (match ms with
        | Some ms -> Printf.sprintf "%.2f" (float_of_int ms.io /. ms_bound)
        | None -> "-")
        lb)
    shapes

(* ------------------------------------------------------------------ *)
(* A-deg: graceful degeneration on a flat document *)

let ablate_degen () =
  heading "A-deg / ablation: graceful degeneration on a flat (2-level) document";
  let fanout = if !quick then 6000 else 30000 in
  let doc, stats = make_doc ~fanouts:[ fanout ] () in
  subnote "input: flat, %d elements (the paper's worst case for NEXSORT)"
    stats.Xmlgen.Gen.elements;
  let input = with_block_size 1024 doc in
  let base = Config.make ~block_size:1024 ~memory_blocks:16 in
  let on = run_nexsort ~config:(base ()) input in
  let off = run_nexsort ~config:(base ~degeneration:false ()) input in
  let ms = run_mergesort ~config:(base ()) input in
  Printf.printf "NEXSORT + degeneration : %8d io  %6.2fs  %s\n" on.io on.seconds on.detail;
  Printf.printf "NEXSORT - degeneration : %8d io  %6.2fs  %s\n" off.io off.seconds off.detail;
  Printf.printf "key-path merge sort    : %8d io  %6.2fs  %s\n" ms.io ms.seconds ms.detail;
  subnote
    "(the paper did not implement degeneration and reports NEXSORT losing on flat inputs;\n\
    \ with it, NEXSORT should be within a whisker of merge sort)";
  (* the §3.2 parity claim as a gate: degeneration turns NEXSORT into an
     external merge sort on a flat document, so it may not cost more *)
  if on.io > ms.io then begin
    Printf.eprintf "A-deg: NEXSORT with degeneration costs %d I/Os, more than merge sort's %d\n"
      on.io ms.io;
    exit 1
  end

(* ------------------------------------------------------------------ *)
(* A-cmp: compaction ablation (§3.2) *)

let ablate_compact () =
  heading "A-cmp / ablation: entry encodings (compaction, §3.2)";
  let doc, stats = fig5_doc () in
  subnote "input: %d elements" stats.Xmlgen.Gen.elements;
  List.iter
    (fun (label, encoding) ->
      let config = Config.make ~block_size:1024 ~memory_blocks:16 ~encoding () in
      let input = with_block_size 1024 doc in
      let nx = run_nexsort ~config input in
      Printf.printf "%-28s : %8d io  %6.2fs  %s\n" label nx.io nx.seconds nx.detail)
    [
      ("plain (no compaction)", Config.Plain);
      ("dict (name compression)", Config.Dict);
      ("packed (+ no end entries)", Config.Packed);
    ]

(* ------------------------------------------------------------------ *)
(* A-fuse: root fusion ablation *)

let ablate_fusion () =
  heading "A-fuse / ablation: fusing the root sort with the output phase";
  (* a flat document: the root's sorted run is the entire document, so
     fusion saves materialising and re-reading all of it *)
  let fanout = if !quick then 3000 else 15000 in
  let doc, stats = make_doc ~fanouts:[ fanout ] () in
  subnote "input: flat, %d elements; memory 32 blocks" stats.Xmlgen.Gen.elements;
  List.iter
    (fun (label, root_fusion) ->
      let config = Config.make ~block_size:1024 ~memory_blocks:32 ~root_fusion () in
      let input = with_block_size 1024 doc in
      let nx = run_nexsort ~config input in
      Printf.printf "%-24s : %8d io  %6.2fs  %s
" label nx.io nx.seconds nx.detail)
    [ ("fused (default)", true); ("materialised root run", false) ];
  subnote "(fusion saves writing and re-reading the root run: up to two document passes)"

(* ------------------------------------------------------------------ *)
(* A-runs: run-formation ablation (replacement selection) *)

let ablate_runs () =
  heading "A-runs / ablation: run formation in the external sorter";
  subnote
    "classic replacement selection doubles the average run length on random input,\n\
     halving the run count and sometimes saving a whole merge pass";
  let n = if !quick then 20_000 else 120_000 in
  let rng = Xmlgen.Splitmix.create 12345 in
  let records = List.init n (fun _ -> Printf.sprintf "%08d" (Xmlgen.Splitmix.int rng 99999989)) in
  let run formation label =
    let budget = Extmem.Memory_budget.create ~blocks:8 ~block_size:1024 in
    let temp = Extmem.Device.in_memory ~block_size:1024 () in
    let input =
      let rest = ref records in
      fun () ->
        match !rest with
        | [] -> None
        | x :: tl ->
            rest := tl;
            Some x
    in
    let sink = ref 0 in
    let stats, seconds =
      time (fun () ->
          Extsort.External_sort.sort ~run_formation:formation ~budget ~temp ~cmp:compare ~input
            ~output:(fun _ -> incr sink)
            ())
    in
    Printf.printf "%-24s : %8d io  %6.2fs  runs=%d passes=%d\n" label
      (Extmem.Io_stats.total (Extmem.Device.stats temp))
      seconds stats.Extsort.External_sort.initial_runs stats.Extsort.External_sort.merge_passes
  in
  run `Load_sort "load-sort-store (default)";
  run `Replacement_selection "replacement selection"

(* ------------------------------------------------------------------ *)
(* E-mot: the motivating claim of s1 - nested-loop merge vs sort-merge *)

let motivation () =
  heading "E-mot / Example 1.1: nested-loop merge vs sort-then-merge";
  subnote
    "the paper's motivation: the naive merge's access pattern ignores the disk layout;\n\
     sorting first makes the merge a single pass.  Block size 1 KiB, memory 16 blocks.";
  Printf.printf "%-10s | %-20s | %-24s | %-20s | %s\n" "employees" "naive nested-loop io"
    "indexed nested-loop io" "sort both + merge io" "naive/sorted";
  let sizes = if !quick then [ 2; 4; 8 ] else [ 2; 4; 8; 16; 32 ] in
  List.iter
    (fun employees_per_branch ->
      let pair =
        Xmlgen.Company.generate ~seed:11 ~regions:4 ~branches_per_region:4
          ~employees_per_branch ()
      in
      let merge_ordering = Xmlgen.Company.ordering in
      let bs = 1024 in
      let n_employees = 4 * 4 * employees_per_branch in
      (* naive: unsorted documents, nested-loop matching; trace the right
         document's access pattern (where the re-scans land) *)
      let l = Extmem.Device.of_string ~block_size:bs pair.Xmlgen.Company.personnel in
      let r = Extmem.Device.of_string ~block_size:bs pair.Xmlgen.Company.payroll in
      let out = Extmem.Device.in_memory ~block_size:bs () in
      let trace = Extmem.Trace.attach r in
      let naive, naive_s =
        time (fun () ->
            Xmerge.Naive_merge.merge_devices ~ordering:merge_ordering ~left:l ~right:r
              ~output:out ())
      in
      Extmem.Trace.detach trace;
      let seeks = Extmem.Trace.summarize trace in
      let naive_io = Extmem.Io_stats.total naive.Xmerge.Naive_merge.total_io in
      (* the "additional index" variant: one build pass + B-tree probes *)
      let il = Extmem.Device.of_string ~block_size:bs pair.Xmlgen.Company.personnel in
      let ir = Extmem.Device.of_string ~block_size:bs pair.Xmlgen.Company.payroll in
      let iout = Extmem.Device.in_memory ~block_size:bs () in
      let config = Config.make ~block_size:bs ~memory_blocks:16 () in
      let indexed, indexed_s =
        time (fun () ->
            Engine.with_session config (fun session ->
                Xmerge.Indexed_merge.merge_devices ~arena:session.Nexsort.Session.arena
                  ~ordering:merge_ordering ~left:il ~right:ir ~output:iout ()))
      in
      let indexed_io = Extmem.Io_stats.total indexed.Xmerge.Indexed_merge.total_io in
      (* sort-merge: NEXSORT both, then a single-pass structural merge *)
      let sorted_io, sm_s =
        time (fun () ->
            let sort doc =
              let input = Extmem.Device.of_string ~block_size:bs doc in
              let output = Extmem.Device.in_memory ~block_size:bs () in
              let rep =
                Engine.with_session config (fun session ->
                    Nexsort.sort_device ~session ~ordering:merge_ordering ~input ~output ())
              in
              (Extmem.Io_stats.total rep.Nexsort.total_io, output)
            in
            let io1, d1 = sort pair.Xmlgen.Company.personnel in
            let io2, d2 = sort pair.Xmlgen.Company.payroll in
            Extmem.Io_stats.reset (Extmem.Device.stats d1);
            Extmem.Io_stats.reset (Extmem.Device.stats d2);
            let out2 = Extmem.Device.in_memory ~block_size:bs () in
            ignore
              (Xmerge.Struct_merge.merge_devices ~pass:Xmerge.Struct_merge.merge
                 ~ordering:merge_ordering ~left:d1 ~right:d2 ~output:out2 ());
            io1 + io2
            + Extmem.Io_stats.total (Extmem.Device.stats d1)
            + Extmem.Io_stats.total (Extmem.Device.stats d2)
            + Extmem.Io_stats.total (Extmem.Device.stats out2))
      in
      Printf.printf "%8d   | %8d  %6.2fs    | %8d  %6.2fs        | %8d  %6.2fs    | %.1fx\n"
        n_employees naive_io naive_s indexed_io indexed_s sorted_io sm_s
        (float_of_int naive_io /. float_of_int sorted_io);
      Printf.printf "%10s naive access pattern on the right document: %s\n" ""
        (Format.asprintf "%a" Extmem.Trace.pp_summary seeks);
      let pager = indexed.Xmerge.Indexed_merge.pager in
      Printf.printf "%10s index buffer pool: %d hits, %d misses, %d evictions, %d writebacks\n" ""
        pager.hits pager.misses pager.evictions pager.writebacks)
    sizes

(* ------------------------------------------------------------------ *)
(* E-xsort: related work (XSort, s2) - one-level sorting does less *)

let xsort () =
  heading "E-xsort / related work: XSort-style one-level sorting vs NEXSORT";
  subnote
    "the paper: XSort sorts only the children of user-specified elements and \"should\n\
     complete in less time than NEXSORT\", but its output cannot drive structural merge";
  let doc, stats = fig5_doc () in
  subnote "input: %d elements" stats.Xmlgen.Gen.elements;
  let config = Config.make ~block_size:1024 ~memory_blocks:16 () in
  let input () = with_block_size 1024 doc in
  let xs_output = Extmem.Device.in_memory ~block_size:1024 () in
  let xs_in = input () in
  let xs, xs_s =
    time (fun () ->
        Baselines.Xsort.sort_device ~config ~ordering ~targets:[ "n2" ] ~input:xs_in
          ~output:xs_output ())
  in
  let xs_io = Extmem.Io_stats.total xs.Baselines.Xsort.total_io in
  let nx = run_nexsort ~config (input ()) in
  let nx2 =
    run_nexsort ~config:(Config.make ~block_size:1024 ~memory_blocks:16 ~depth_limit:2 ())
      (input ())
  in
  Printf.printf "XSort (children of n2)     : %8d io  %6.2fs  (%d targets, %d children)\n" xs_io
    xs_s xs.Baselines.Xsort.targets_sorted xs.Baselines.Xsort.children_sorted;
  Printf.printf "NEXSORT depth limit 2      : %8d io  %6.2fs  %s\n" nx2.io nx2.seconds nx2.detail;
  Printf.printf "NEXSORT head-to-toe        : %8d io  %6.2fs  %s\n" nx.io nx.seconds nx.detail;
  subnote "(only the head-to-toe output supports the single-pass structural merge)"

(* ------------------------------------------------------------------ *)
(* E-tenant: concurrent tenants through one engine — queue wait and
   I/O per tenant.  The engine budget admits two jobs at a time, so
   K tenants measure the admission queue, not just the sorter: every
   output is still byte-identical to the single-job run (asserted), the
   per-tenant I/O bill is identical, and the queue-wait column is where
   the contention shows. *)

let tenants () =
  heading "E-tenant / concurrent tenants: queue wait per tenant";
  let doc, stats = fig5_doc () in
  subnote "input: %d elements; per-job memory 16 blocks of 1 KiB; engine fits 2 jobs"
    stats.Xmlgen.Gen.elements;
  let xml = Extmem.Device.contents doc in
  let config = Config.make ~block_size:1024 ~memory_blocks:16 () in
  let reference = run_nexsort ~config (with_block_size 1024 doc) in
  List.iter
    (fun k ->
      let eng =
        Engine.create ~memory_blocks:(2 * config.Config.memory_blocks) ~block_size:1024 ()
      in
      let one tenant =
        Engine.run eng ~tenant config (fun job session ->
            let input = Extmem.Device.of_string ~name:"input" ~block_size:1024 xml in
            let output = Extmem.Device.in_memory ~name:"out" ~block_size:1024 () in
            let report =
              Nexsort.sort_device ~session ~ordering ~input ~output ()
            in
            (Engine.queue_wait_s job, Extmem.Io_stats.total report.Nexsort.total_io))
      in
      let domains =
        List.init k (fun i ->
            let tenant = Printf.sprintf "t%d" i in
            (tenant, Domain.spawn (fun () -> one tenant)))
      in
      let rows = List.map (fun (tenant, d) -> (tenant, Domain.join d)) domains in
      Engine.destroy eng;
      Printf.printf "%d tenants:\n" k;
      List.iter
        (fun (tenant, (wait_s, io)) ->
          Printf.printf "  %-4s | wait %8.1fms | %8d io%s\n" tenant (wait_s *. 1000.) io
            (if io = reference.io then "" else "  <-- DIVERGES FROM SINGLE-JOB RUN");
          if io <> reference.io then exit 1)
        rows;
      if Engine.leaked_blocks eng <> 0 then begin
        Printf.eprintf "E-tenant: %d leaked blocks\n" (Engine.leaked_blocks eng);
        exit 1
      end)
    [ 2; 4; 8 ]

(* ------------------------------------------------------------------ *)
(* E-ingest: incremental maintenance vs full re-sort.  A batch of k
   subtree updates buffered in the external priority queue and flushed
   through [Xmerge.Ingest] costs one merge pass over the base (read +
   write); re-sorting the updated document from scratch costs the full
   NEXSORT pipeline again.  This is a CI gate (scripts/check.sh runs
   it): the flush must use strictly fewer block I/Os than the re-sort,
   and the incremental output must be digest-identical to the oracle's
   sequential batch application. *)

let ingest () =
  heading "E-ingest / incremental maintenance: k-update batch vs full re-sort";
  let doc, stats = fig5_doc () in
  let base = Extmem.Device.contents doc in
  let config = Config.make ~block_size:1024 ~memory_blocks:16 () in
  subnote "base: %d elements, %d KiB; block size 1 KiB, memory 16 blocks"
    stats.Xmlgen.Gen.elements (stats.Xmlgen.Gen.bytes / 1024);
  let root, tops =
    match Xmlio.Tree.of_string base with
    | Xmlio.Tree.Element e ->
        (e, List.filter_map (function Xmlio.Tree.Element c -> Some c | _ -> None) e.Xmlio.Tree.children)
    | Xmlio.Tree.Text _ -> failwith "E-ingest: text root"
  in
  (* k subtree updates derived from the base's own top level: a delete,
     a replace, and fresh upserts round out the batch *)
  let update_doc k =
    let ops =
      List.init k (fun i ->
          match (i, List.nth_opt tops i) with
          | 0, Some e ->
              Xmlio.Tree.Element { e with Xmlio.Tree.attrs = ("__op", "delete") :: e.Xmlio.Tree.attrs; children = [] }
          | 1, Some e ->
              Xmlio.Tree.Element
                { e with
                  Xmlio.Tree.attrs = ("__op", "replace") :: e.Xmlio.Tree.attrs;
                  children = [ Xmlio.Tree.Text "updated" ];
                }
          | _ ->
              Xmlio.Tree.Element
                { Xmlio.Tree.name = "upd";
                  attrs = [ ("id", Printf.sprintf "90000%d" i); ("v", string_of_int i) ];
                  children = [];
                })
    in
    Xmlio.Tree.to_string (Xmlio.Tree.Element { root with Xmlio.Tree.children = ops })
  in
  let failures = ref 0 in
  Printf.printf "%-10s | %-26s | %-10s | %s\n" "batch" "ingest io (flush / queue)" "re-sort io"
    "resort/ingest io";
  List.iter
    (fun k ->
      let update = update_doc k in
      let sorted_base, _ = Engine.sort_string ~config ~ordering base in
      let t = Xmerge.Ingest.create ~config ~ordering ~base () in
      let report =
        Fun.protect
          ~finally:(fun () -> Xmerge.Ingest.destroy t)
          (fun () ->
            Xmerge.Ingest.add_update t update;
            let r = Xmerge.Ingest.flush t in
            (r, Xmerge.Ingest.contents t))
      in
      let flush_r, out = report in
      let flush_io = Extmem.Io_stats.total flush_r.Xmerge.Ingest.flush_io in
      (* spilled queue runs are written once and read back once *)
      let queue_io = 2 * flush_r.Xmerge.Ingest.pq_run_blocks in
      let ingest_io = flush_io + queue_io in
      let resort = run_nexsort ~config (with_block_size 1024 (Extmem.Device.of_string ~name:"resort" ~block_size:1024 out)) in
      let oracle, _ =
        Xmerge.Batch_update.sort_and_apply_strings ~config ~ordering ~base:sorted_base
          ~updates:update ()
      in
      let ok = String.equal (Digest.string out) (Digest.string oracle) in
      let gate = ingest_io < resort.io in
      Printf.printf "%3d ops    | %10d  (%6d / %4d)%s | %8d   | %.2fx%s\n" k ingest_io flush_io
        queue_io
        (if ok then "" else "  <-- DIVERGES FROM ORACLE")
        resort.io
        (float_of_int resort.io /. float_of_int ingest_io)
        (if gate then "" else "  <-- NOT FEWER THAN RE-SORT");
      if not (ok && gate) then incr failures)
    [ 1; 4; 16 ];
  if !failures > 0 then begin
    Printf.eprintf "ingest: %d batch size(s) failed the incremental-maintenance gate\n" !failures;
    exit 1
  end

(* ------------------------------------------------------------------ *)
(* E-scan: the doubling sweep — no per-event cost may grow with the
   document's height or width *)

(* Each shape family builds a document from a size n; the sweep sorts
   sizes n and 2n.  Work linear in the input keeps minor words per input
   byte flat and doubles the wall time; a per-event cost that grows with
   n shows as growth in both.  Words are taken per input byte, not per
   event: in the width families the event count stays fixed while every
   event doubles, so words per event double by construction there (in
   the height and fan-out families the two measures coincide). *)
let sweep_families =
  let id rng = Random.State.int rng 1_000_000 in
  let doc n f =
    let rng = Random.State.make [| n |] in
    let b = Buffer.create (1 lsl 20) in
    f b rng;
    Buffer.contents b
  in
  let flat n elt =
    doc n (fun b rng ->
        Buffer.add_string b "<r id=\"0\">";
        for i = 1 to n do
          elt b rng i
        done;
        Buffer.add_string b "</r>")
  in
  [
    (* Lemma 4.1's spine: <a><b>x</b><a>...</a></a>, n levels deep *)
    ( "spine height",
      32_000,
      fun n ->
        doc n (fun b rng ->
            for _ = 1 to n do
              Printf.bprintf b "<a id=\"%d\"><b id=\"%d\">x</b>" (id rng) (id rng)
            done;
            for _ = 1 to n do
              Buffer.add_string b "</a>"
            done) );
    ( "attributes per element",
      3_000,
      fun n ->
        doc n (fun b rng ->
            Buffer.add_string b "<r id=\"0\">";
            for _ = 1 to 100 do
              Printf.bprintf b "<e id=\"%d\"" (id rng);
              for i = 0 to n - 1 do
                Printf.bprintf b " a%d=\"v\"" i
              done;
              Buffer.add_string b "/>"
            done;
            Buffer.add_string b "</r>") );
    ( "fan-out",
      40_000,
      fun n -> flat n (fun b rng _ -> Printf.bprintf b "<c id=\"%d\">x</c>" (id rng)) );
    ( "text length",
      8_000,
      fun n ->
        doc n (fun b rng ->
            Buffer.add_string b "<r id=\"0\">";
            for _ = 1 to 100 do
              Printf.bprintf b "<t id=\"%d\">%s</t>" (id rng) (String.make n 'x')
            done;
            Buffer.add_string b "</r>") );
    ( "name length",
      200,
      fun n ->
        (* eight distinct names of length n *)
        flat 4_000 (fun b rng i ->
            let name = String.make n (Char.chr (Char.code 'a' + (i mod 8))) in
            Printf.bprintf b "<%s id=\"%d\"/>" name (id rng)) );
    ( "key length",
      400,
      fun n ->
        (* keys share an n-byte prefix, so every comparison reads it *)
        let prefix = String.make n 'k' in
        flat 2_000 (fun b rng _ -> Printf.bprintf b "<k id=\"%s%06d\"/>" prefix (id rng)) );
  ]

let linear_sweep () =
  heading "E-scan / doubling sweep: per-event cost independent of height and width";
  subnote
    "-B 4096 -M 64 -O @id (packed); walls are medians of 5, gated when size n takes >= 0.2 s";
  let config = Config.make ~block_size:4096 ~memory_blocks:64 ~encoding:Config.Packed () in
  (* one sort: (wall seconds, minor words, events) *)
  let sort xml =
    let input = Extmem.Device.of_string ~name:"input" ~block_size:4096 xml in
    let output = Config.scratch_device config ~name:"out" in
    (* every run starts from a collected heap, not the last run's garbage *)
    Gc.full_major ();
    let report, seconds =
      time (fun () ->
          Engine.with_session config (fun session ->
              Nexsort.sort_device ~session ~ordering ~input ~output ()))
    in
    (seconds, report.Nexsort.gc.Nexsort.gc_minor_words, report.Nexsort.events)
  in
  let median l =
    let a = Array.of_list (List.sort compare l) in
    a.(Array.length a / 2)
  in
  Printf.printf "%-23s %8s %8s | %9s %9s %6s | %8s %8s %6s | %s\n" "family" "n" "bytes"
    "w/byte n" "w/byte 2n" "ratio" "wall n" "wall 2n" "ratio" "w/event n, 2n";
  let failures = ref [] in
  List.iter
    (fun (family, n, gen) ->
      let measure n =
        let xml = gen n in
        let seconds, words, events = sort xml in
        let bytes = float_of_int (String.length xml) in
        (xml, words /. bytes, words /. float_of_int events, seconds)
      in
      let xml1, wb1, we1, s1 = measure n in
      let xml2, wb2, we2, s2 = measure (2 * n) in
      let words_ratio = wb2 /. wb1 in
      let words_bad = words_ratio > 1.25 in
      (* sizes n and 2n alternate, so drifting background load hits both
         alike; a family that already failed on words is not timed
         further *)
      let walls1 = ref [ s1 ] and walls2 = ref [ s2 ] in
      if not words_bad then
        for _ = 1 to 4 do
          List.iter
            (fun (xml, walls) ->
              let s, _, _ = sort xml in
              walls := s :: !walls)
            [ (xml1, walls1); (xml2, walls2) ]
        done;
      let wall1 = median !walls1 and wall2 = median !walls2 in
      let timed = (not words_bad) && wall1 >= 0.2 in
      let wall_ratio = wall2 /. wall1 in
      let wall_bad = timed && wall_ratio > 3. in
      Printf.printf "%-23s %8d %8d | %9.2f %9.2f %5.2fx%s | %7.3fs %7.3fs %s | %.0f, %.0f\n%!"
        family n (String.length xml1) wb1 wb2 words_ratio
        (if words_bad then "!" else " ")
        wall1 wall2
        (if timed then Printf.sprintf "%5.2fx%s" wall_ratio (if wall_bad then "!" else " ")
         else "     - ")
        we1 we2;
      if words_bad then failures := (family ^ ": words per byte grew more than 1.25x") :: !failures;
      if wall_bad then failures := (family ^ ": median wall grew more than 3x") :: !failures)
    sweep_families;
  match List.rev !failures with
  | [] -> subnote "linear-sweep: OK (every family within 1.25x words per byte and 3x wall)"
  | fs ->
      List.iter (fun f -> Printf.eprintf "linear-sweep: FAIL %s\n" f) fs;
      exit 1

(* ------------------------------------------------------------------ *)
(* micro-benchmarks (bechamel): the hot inner operations *)

let micro () =
  heading "micro / bechamel: inner-loop operations";
  let open Bechamel in
  let key_a = Nexsort.Key.Num 454. and key_b = Nexsort.Key.Str "Durham" in
  let record path = Nexsort.Keypath.encode_record path ~payload:"<employee ID=\"454\"/>" in
  let path1 =
    [ { Nexsort.Keypath.key = Nexsort.Key.Str "AC"; pos = 2 };
      { Nexsort.Keypath.key = Nexsort.Key.Str "Durham"; pos = 4 };
      { Nexsort.Keypath.key = Nexsort.Key.Num 454.; pos = 5 } ]
  in
  let path2 =
    [ { Nexsort.Keypath.key = Nexsort.Key.Str "AC"; pos = 2 };
      { Nexsort.Keypath.key = Nexsort.Key.Str "Durham"; pos = 4 };
      { Nexsort.Keypath.key = Nexsort.Key.Num 323.; pos = 6 } ]
  in
  let r1 = record path1 and r2 = record path2 in
  let dict = Xmlio.Dict.create () in
  let entry =
    Nexsort.Entry.Start
      { level = 3; pos = 17; name = "employee"; attrs = [ ("ID", "454") ];
        key = Some (Nexsort.Key.Num 454.) }
  in
  let encoded = Nexsort.Entry.encode Config.Dict dict entry in
  let small_doc =
    "<company><region name=\"AC\"><branch name=\"Durham\"><employee ID=\"454\"/><employee \
     ID=\"323\"><name>Smith</name></employee></branch></region></company>"
  in
  let tests =
    Test.make_grouped ~name:"nexsort"
      [
        Test.make ~name:"Key.compare" (Staged.stage (fun () -> Nexsort.Key.compare key_a key_b));
        Test.make ~name:"Keypath.compare_encoded"
          (Staged.stage (fun () -> Nexsort.Keypath.compare_encoded r1 r2));
        Test.make ~name:"Entry.encode (dict)"
          (Staged.stage (fun () -> Nexsort.Entry.encode Config.Dict dict entry));
        Test.make ~name:"Entry.decode (dict)"
          (Staged.stage (fun () -> Nexsort.Entry.decode Config.Dict dict encoded));
        Test.make ~name:"Parser (155-byte doc)"
          (Staged.stage (fun () -> Xmlio.Parser.to_list (Xmlio.Parser.of_string small_doc)));
      ]
  in
  let instance = Toolkit.Instance.monotonic_clock in
  let cfg = Benchmark.cfg ~limit:1000 ~quota:(Time.second 0.4) () in
  let raw = Benchmark.all cfg [ instance ] tests in
  let results =
    Analyze.all (Analyze.ols ~bootstrap:0 ~r_square:false ~predictors:[| Measure.run |]) instance
      raw
  in
  Hashtbl.iter
    (fun name ols ->
      match Analyze.OLS.estimates ols with
      | Some [ est ] -> Printf.printf "%-40s %12.1f ns/op\n" name est
      | Some _ | None -> Printf.printf "%-40s (no estimate)\n" name)
    results

(* ------------------------------------------------------------------ *)
(* wall: end-to-end wall clock via bechamel, the loose CI timing gate.
   Absolute numbers are machine-dependent, so the companion compare-wall
   gate only fails on a > 3x slowdown against the committed baseline —
   enough to catch an accidentally quadratic inner loop without flaking
   on a busy CI box. *)

let wall () =
  heading "wall / bechamel: end-to-end wall clock (loose CI gate)";
  let open Bechamel in
  let doc, stats = fig5_doc () in
  subnote "input: %d elements; block size 1 KiB, memory 16 blocks" stats.Xmlgen.Gen.elements;
  let contents = Extmem.Device.contents doc in
  let nexsort () =
    let config = Config.make ~block_size:1024 ~memory_blocks:16 () in
    let input = Extmem.Device.of_string ~name:"input" ~block_size:1024 contents in
    let output = Extmem.Device.in_memory ~name:"out" ~block_size:1024 () in
    ignore
      (Engine.with_session config (fun session ->
           Nexsort.sort_device ~session ~ordering ~input ~output ())
        : Nexsort.report)
  in
  (* the traced series measures the tracer's own overhead against
     nexsort-j1: same sort, one live tracer reset (not reallocated)
     between iterations so the rings never fill and the comparison stays
     allocation-for-allocation fair *)
  let tracer = Obs.Tracer.create () in
  let nexsort_traced () =
    Obs.Tracer.reset tracer;
    let config = Config.make ~block_size:1024 ~memory_blocks:16 ~tracer () in
    let input = Config.scratch_device config ~name:"input" in
    Extmem.Device.load_string input contents;
    let output = Config.scratch_device config ~name:"output" in
    ignore
      (Engine.with_session config (fun session ->
           Nexsort.sort_device ~session ~ordering ~input ~output ())
        : Nexsort.report)
  in
  let mergesort () =
    let config = Config.make ~block_size:1024 ~memory_blocks:16 () in
    let input = Extmem.Device.of_string ~name:"input" ~block_size:1024 contents in
    let output = Extmem.Device.in_memory ~name:"out" ~block_size:1024 () in
    ignore
      (Baselines.Keypath_sort.sort_device ~config ~ordering ~input ~output ()
        : Baselines.Keypath_sort.report)
  in
  (* record-path series: slice-decoding a batch of encoded entries (view
     construction + on-demand key decode, no string materialisation) and
     ordering encoded key-path records without decoding keys — the two
     inner loops the zero-copy record path lives or dies by *)
  let decode_dict = Xmlio.Dict.create () in
  let enc_payloads =
    Array.init 4096 (fun i ->
        Nexsort.Entry.encode Config.Dict decode_dict
          (Nexsort.Entry.Start
             { level = 3; pos = i; name = "employee";
               attrs = [ ("ID", string_of_int ((i * 7919) mod 4096)) ];
               key = Some (Nexsort.Key.Num (float_of_int ((i * 7919) mod 4096))) }))
  in
  let codec_decode () =
    Array.iter
      (fun p ->
        let v = Nexsort.Entry.View.of_payload Config.Dict p in
        ignore (Nexsort.Entry.View.sibling_key v : Nexsort.Key.t))
      enc_payloads
  in
  let cmp_records =
    Array.init 4096 (fun i ->
        Nexsort.Keypath.encode_record
          [ { Nexsort.Keypath.key = Nexsort.Key.Str "AC"; pos = 2 };
            { Nexsort.Keypath.key = Nexsort.Key.Num (float_of_int ((i * 7919) mod 4096)); pos = i } ]
          ~payload:"<employee/>")
  in
  let entry_compare () =
    let a = Array.copy cmp_records in
    Array.sort Nexsort.Keypath.compare_encoded a
  in
  let tests =
    Test.make_grouped ~name:"wall"
      [
        Test.make ~name:"nexsort-j1" (Staged.stage nexsort);
        Test.make ~name:"nexsort-traced" (Staged.stage nexsort_traced);
        Test.make ~name:"mergesort" (Staged.stage mergesort);
        Test.make ~name:"codec-decode" (Staged.stage codec_decode);
        Test.make ~name:"entry-compare" (Staged.stage entry_compare);
      ]
  in
  let instance = Toolkit.Instance.monotonic_clock in
  let cfg = Benchmark.cfg ~limit:25 ~quota:(Time.second 1.0) () in
  let raw = Benchmark.all cfg [ instance ] tests in
  let results =
    Analyze.all (Analyze.ols ~bootstrap:0 ~r_square:false ~predictors:[| Measure.run |]) instance
      raw
  in
  let rows = ref [] in
  Hashtbl.iter
    (fun name ols ->
      match Analyze.OLS.estimates ols with
      | Some [ ns ] ->
          rows := (name, ns) :: !rows;
          Printf.printf "%-24s %12.2f ms/run\n" name (ns /. 1e6)
      | Some _ | None -> Printf.printf "%-24s (no estimate)\n" name)
    results;
  Option.iter
    (fun path ->
      let fields =
        List.map
          (fun (name, ns) -> (name, Obs.Json.Float ns))
          (List.sort (fun (a, _) (b, _) -> String.compare a b) !rows)
      in
      let json =
        Obs.Json.Obj
          [ ("schema_version", Obs.Json.Int 1); ("tool", Obs.Json.Str "bench-wall");
            ("unit", Obs.Json.Str "ns/run"); ("wall", Obs.Json.Obj fields) ]
      in
      let oc = open_out_bin path in
      Fun.protect
        ~finally:(fun () -> close_out oc)
        (fun () -> output_string oc (Obs.Json.to_string json));
      Printf.printf "\nwrote wall report: %s\n" path)
    !wall_file;
  (* --trace FILE: flush a reference trace from one final instrumented
     run, after the measurements so trace I/O never lands in them *)
  Option.iter
    (fun path ->
      nexsort_traced ();
      Obs.Tracer.write_file tracer path;
      Printf.printf "wrote trace: %s\n" path)
    !trace_file

(* [read_json "FILE#ROW"] is row ROW of a file of named rows
   ({"rows": {ROW: ...}}, as [collect-io] writes BENCH_io.json); a path
   without '#' is the whole file. *)
let read_json path =
  let file, row =
    match String.index_opt path '#' with
    | Some i -> (String.sub path 0 i, Some (String.sub path (i + 1) (String.length path - i - 1)))
    | None -> (path, None)
  in
  let ic = open_in_bin file in
  let s =
    Fun.protect
      ~finally:(fun () -> close_in ic)
      (fun () -> really_input_string ic (in_channel_length ic))
  in
  let json = Obs.Json.of_string s in
  match row with
  | None -> json
  | Some r -> (
      match Option.bind (Obs.Json.member "rows" json) (Obs.Json.member r) with
      | Some j -> j
      | None ->
          prerr_endline (Printf.sprintf "%s has no row %S" file r);
          exit 1)

(* collect-io OUT NAME=REPORT...: the exact I/O fence's reference file,
   each named report's "io" section as one row.  Only a deliberate
   refresh (scripts/io_fence.sh --update) writes it. *)
let collect_io out rows =
  let row arg =
    match String.index_opt arg '=' with
    | None ->
        prerr_endline ("collect-io: expected NAME=REPORT, got " ^ arg);
        exit 2
    | Some i -> (
        let name = String.sub arg 0 i in
        let path = String.sub arg (i + 1) (String.length arg - i - 1) in
        match Obs.Json.member "io" (read_json path) with
        | Some io -> (name, Obs.Json.Obj [ ("io", io) ])
        | None ->
            prerr_endline (Printf.sprintf "collect-io: %s has no \"io\" section" path);
            exit 1)
  in
  let json = Obs.Json.Obj [ ("rows", Obs.Json.Obj (List.map row rows)) ] in
  let oc = open_out_bin out in
  Fun.protect
    ~finally:(fun () -> close_out oc)
    (fun () -> output_string oc (Obs.Json.to_string json ^ "\n"))

(* compare-wall BASELINE NEW: fail only if a benchmark in NEW is more than
   3x slower than BASELINE — wall clock is noisy, I/O counters (the
   compare-metrics gate) are the precise regression signal. *)
let compare_wall baseline_path new_path =
  let tolerance = 3.0 in
  let fail fmt = Printf.ksprintf (fun m -> prerr_endline ("compare-wall: " ^ m); exit 1) fmt in
  let wall_of path json =
    match Obs.Json.member "wall" json with
    | Some (Obs.Json.Obj kvs) -> kvs
    | Some _ | None -> fail "%s has no \"wall\" object" path
  in
  let number path name = function
    | Obs.Json.Float f -> f
    | Obs.Json.Int i -> float_of_int i
    | _ -> fail "%s: %S is not a number" path name
  in
  let base = wall_of baseline_path (read_json baseline_path) in
  let new_ = wall_of new_path (read_json new_path) in
  let regressions = ref [] in
  List.iter
    (fun (name, bv) ->
      match List.assoc_opt name new_ with
      | None -> fail "%s: benchmark %S is missing" new_path name
      | Some nv ->
          let b = number baseline_path name bv and n = number new_path name nv in
          if b > 0. && n > tolerance *. b then
            regressions :=
              Printf.sprintf "%s: %.2f ms -> %.2f ms (> %.1fx)" name (b /. 1e6) (n /. 1e6)
                tolerance
              :: !regressions)
    base;
  match List.rev !regressions with
  | [] ->
      Printf.printf "compare-wall: OK (%s vs %s, tolerance %.1fx)\n" new_path baseline_path
        tolerance
  | rs ->
      List.iter (fun r -> prerr_endline ("compare-wall: REGRESSION " ^ r)) rs;
      exit 1

(* ------------------------------------------------------------------ *)
(* --metrics: a reference instrumented run whose JSON report exercises the
   whole reporting path; validate-metrics re-parses such a file and checks
   the §4.2 per-phase I/O breakdown is present (the CI smoke test) *)

let write_metrics path =
  let doc, _ = fig5_doc () in
  let config = Config.make ~block_size:1024 ~memory_blocks:16 () in
  let input = with_block_size 1024 doc in
  let output = Config.scratch_device config ~name:"out" in
  (* start from an empty minor heap: how many words a sort promotes
     depends on when its minor collections fall, so without this the
     gc section would also measure whatever the experiments before it
     allocated *)
  Gc.minor ();
  let sort () =
    Engine.with_session config (fun session ->
        Nexsort.sort_device ~session ~ordering ~input:(with_block_size 1024 doc)
          ~output:(Config.scratch_device config ~name:"out") ())
  in
  let report =
    Engine.with_session config (fun session ->
        Nexsort.sort_device ~session ~ordering ~input ~output ())
  in
  (* How many words a sort promotes depends on what is live when each
     minor collection falls, so one run's count moves with the heap
     layout, not with allocation.  The sweep sorts once per minor-heap
     size, each from a compacted heap (so the collections fall at the
     same points in every process), and sums the promoted words: the sum
     is the figure compare-alloc gates (gc.minor_words stays the single
     run's). *)
  let sizes = [ 200_000; 240_000; 256_000; 270_000; 300_000; 400_000 ] in
  let initial = (Gc.get ()).Gc.minor_heap_size in
  let promoted =
    Fun.protect
      ~finally:(fun () -> Gc.set { (Gc.get ()) with Gc.minor_heap_size = initial })
      (fun () ->
        List.map
          (fun words ->
            Gc.set { (Gc.get ()) with Gc.minor_heap_size = words };
            Gc.compact ();
            (sort ()).Nexsort.gc.Nexsort.gc_promoted_words)
          sizes)
  in
  let rep = Nexsort.metrics_report ~tool:"bench" ~config report in
  Obs.Report.add rep "alloc_sweep"
    (Obs.Json.Obj
       [
         ("minor_heap_words", Obs.Json.List (List.map (fun w -> Obs.Json.Int w) sizes));
         ("promoted_words", Obs.Json.List (List.map (fun w -> Obs.Json.Float w) promoted));
         ("promoted_words_sum", Obs.Json.Float (List.fold_left ( +. ) 0. promoted));
       ]);
  Obs.Report.write_file rep path;
  Printf.printf "\nwrote metrics report: %s\n" path

let validate_metrics path =
  let json = read_json path in
  let fail fmt = Printf.ksprintf (fun m -> prerr_endline ("validate-metrics: " ^ m); exit 1) fmt in
  let require name parent ctx =
    match Obs.Json.member name parent with
    | Some j -> j
    | None -> fail "missing %s key %S" ctx name
  in
  List.iter
    (fun k -> ignore (require k json "top-level"))
    [ "schema_version"; "tool"; "config"; "counts"; "io"; "arena"; "plan"; "gc"; "phases";
      "metrics"; "timing" ];
  let gc = require "gc" json "top-level" in
  List.iter
    (fun k -> ignore (require k gc "gc"))
    [ "minor_words"; "major_words"; "minor_collections"; "major_collections" ];
  let io = require "io" json "top-level" in
  (* the paper's §4.2 decomposition: every phase of the I/O bill *)
  List.iter
    (fun k -> ignore (require k io "io"))
    [ "input"; "subtree_sorts"; "stack_paging"; "runs"; "output"; "total" ];
  let number ctx = function
    | Obs.Json.Float f -> f
    | Obs.Json.Int i -> float_of_int i
    | _ -> fail "%s is not a number" ctx
  in
  let total_of ctx v = number (ctx ^ ".total") (require "total" v ctx) in
  (* a span's words and I/O include its children's, so no child may
     carry more words than its parent and the children's I/O may not add
     up to more than the parent's (I/O exactly: the meter is a count);
     the report's gc and io intervals hold the root span's *)
  let rec check_span parent_name parent_words span =
    let name =
      match Obs.Json.member "name" span with Some (Obs.Json.Str n) -> n | _ -> "?"
    in
    let ctx = "span " ^ name in
    let words = number (ctx ^ " minor_words") (require "minor_words" span ctx) in
    if words > parent_words then
      fail "span %S allocates %.0f minor words, more than %s (%.0f)" name words parent_name
        parent_words;
    let total = total_of (ctx ^ " io") (require "io" span ctx) in
    match Obs.Json.member "children" span with
    | Some (Obs.Json.List children) ->
        let sum =
          List.fold_left
            (fun acc c -> acc +. total_of "child span io" (require "io" c "child span"))
            0. children
        in
        if sum > total then
          fail "span %S: its children's I/Os add up to %.0f, more than its own %.0f" name sum
            total;
        List.iter (check_span (Printf.sprintf "its parent %S" name) words) children
    | _ -> ()
  in
  let phases = require "phases" json "top-level" in
  let root_total = total_of "root span io" (require "io" phases "root span") in
  let report_total = total_of "io.total" (require "total" io "io") in
  if root_total > report_total then
    fail "the root span counts %.0f I/Os, more than the report's io.total (%.0f)" root_total
      report_total;
  check_span "the report's gc.minor_words"
    (number "gc.minor_words" (require "minor_words" gc "gc"))
    phases;
  (* the memory plan: every grant lies within its consumer's declared
     minimum and maximum, and no phase grants more than M blocks *)
  (match require "plan" json "top-level" with
  | Obs.Json.Obj phases ->
      List.iter
        (fun (phase, p) ->
          let ctx = "plan." ^ phase in
          let grants =
            match require "grants" p ctx with
            | Obs.Json.Obj gs -> gs
            | _ -> fail "%s.grants is not an object" ctx
          in
          let sum =
            List.fold_left
              (fun acc (who, g) ->
                let field k = number (Printf.sprintf "%s.%s.%s" ctx who k) (require k g ctx) in
                let lo = field "min" and hi = field "max" and n = field "granted" in
                if n < lo || n > hi then
                  fail "plan: the %s phase grants %S %.0f blocks, outside its %.0f..%.0f" phase who
                    n lo hi;
                acc +. n)
              0. grants
          in
          let m =
            number "config.memory_blocks"
              (require "memory_blocks" (require "config" json "top-level") "config")
          in
          if sum > m then
            fail "plan: the %s phase grants %.0f blocks, more than memory_blocks (%.0f)" phase sum m)
        phases
  | _ -> fail "plan is not an object");
  (* every run is read once and each block freed as it is read, so a
     finished sort leaves no run block live on its runs device; and a
     pointed run's tail rides in its pointer, never in a block of its
     own: the runs device writes exactly the store's run blocks, and the
     tails, each a quarter block at most, add up to no more than that
     per run *)
  (match Option.bind (Obs.Json.member "metrics" json) (Obs.Json.member "gauges") with
  | Some gauges when Obs.Json.member "dev.runs.blocks" gauges <> None ->
      let gauge k = number k (require "value" (require k gauges "metrics.gauges") k) in
      let n = gauge "dev.runs.live_blocks" in
      if n <> 0. then
        fail "the sort finished with %.0f run blocks still live (dev.runs.live_blocks)" n;
      let writes = gauge "dev.runs.writes" and blocks = gauge "runs.store.blocks" in
      if writes <> blocks then
        fail "the runs device took %.0f block writes for %.0f run blocks (dev.runs.writes, \
              runs.store.blocks)" writes blocks;
      let inline = gauge "runs.store.inline_bytes" and runs = gauge "runs.store.count" in
      let bs =
        number "config.block_size"
          (require "block_size" (require "config" json "top-level") "config")
      in
      if 4. *. inline > runs *. bs then
        fail "%.0f runs carry %.0f bytes in their pointers, more than a quarter block each \
              (runs.store.inline_bytes)" runs inline
  | _ -> ());
  Printf.printf "validate-metrics: %s OK\n" path

(* compare-metrics BASELINE NEW: fail if any I/O counter in NEW's "io"
   section exceeds BASELINE's — the CI regression gate on the committed
   smoke-run baseline.  Either path may name a row of a rows file
   (FILE#ROW); run both ways, it pins a report's I/O exactly. *)
let compare_metrics baseline_path new_path =
  let fail fmt = Printf.ksprintf (fun m -> prerr_endline ("compare-metrics: " ^ m); exit 1) fmt in
  let io_of path json =
    match Obs.Json.member "io" json with
    | Some io -> io
    | None -> fail "%s has no \"io\" section" path
  in
  let base_json = read_json baseline_path and new_json = read_json new_path in
  let base_io = io_of baseline_path base_json in
  let new_io = io_of new_path new_json in
  let regressions = ref [] in
  let improvements = ref 0 in
  let rec walk path base new_ =
    match (base, new_) with
    | Obs.Json.Obj base_kvs, Obs.Json.Obj new_kvs ->
        List.iter
          (fun (k, bv) ->
            match List.assoc_opt k new_kvs with
            | Some nv -> walk (path ^ "." ^ k) bv nv
            | None -> fail "%s: counter %s%s is missing" new_path path ("." ^ k))
          base_kvs
    | Obs.Json.Int b, Obs.Json.Int n ->
        if n > b then regressions := Printf.sprintf "%s: %d -> %d" path b n :: !regressions
        else if n < b then incr improvements
    | _ -> fail "%s: %s is not an integer counter in both files" new_path path
  in
  walk "io" base_io new_io;
  (* hit-ratio gate: the buffer pool must not get worse at keeping hot
     blocks resident.  Sections with no recorded accesses (the streaming
     nexsort pipeline) are skipped. *)
  let hit_ratio json =
    match Obs.Json.member "pager" json with
    | None -> None
    | Some pager -> (
        match (Obs.Json.member "hits" pager, Obs.Json.member "misses" pager) with
        | Some (Obs.Json.Int h), Some (Obs.Json.Int m) when h + m > 0 ->
            Some (float_of_int h /. float_of_int (h + m))
        | _ -> None)
  in
  (match (hit_ratio base_json, hit_ratio new_json) with
  | Some b, Some n when n < b ->
      regressions :=
        Printf.sprintf "pager hit ratio: %.4f -> %.4f" b n :: !regressions
  | Some _, None ->
      regressions := "pager hit ratio: baseline has accesses, new has none" :: !regressions
  | _ -> ());
  match List.rev !regressions with
  | [] ->
      Printf.printf "compare-metrics: OK (%s vs %s, %d counters improved, none regressed)\n"
        new_path baseline_path !improvements
  | rs ->
      List.iter (fun r -> prerr_endline ("compare-metrics: REGRESSION " ^ r)) rs;
      exit 1

(* compare-alloc BASELINE NEW: fail if NEW's minor words, or its promoted
   words summed over the minor-heap sweep (alloc_sweep), grew by more
   than 1 % over BASELINE's.  A sort runs on one domain, so its
   allocation is deterministic (repeated runs agree to the word) and,
   unlike wall time, needs no pairs of runs.  Promotion also depends on
   where the minor collections fall, which the sweep averages out. *)
let compare_alloc baseline_path new_path =
  let tolerance = 0.01 in
  let fail fmt = Printf.ksprintf (fun m -> prerr_endline ("compare-alloc: " ^ m); exit 1) fmt in
  let number_at path json section key =
    match Option.bind (Obs.Json.member section json) (Obs.Json.member key) with
    | Some (Obs.Json.Int i) -> float_of_int i
    | Some (Obs.Json.Float f) -> f
    | Some _ | None -> fail "%s has no number %s.%s" path section key
  in
  let base_json = read_json baseline_path and new_json = read_json new_path in
  let regressions =
    List.filter_map
      (fun (section, key) ->
        let b = number_at baseline_path base_json section key
        and n = number_at new_path new_json section key in
        if n > (1. +. tolerance) *. b then
          Some
            (Printf.sprintf "%s.%s: %.0f -> %.0f (> +%.0f%%)" section key b n
               (100. *. tolerance))
        else None)
      [ ("gc", "minor_words"); ("alloc_sweep", "promoted_words_sum") ]
  in
  match regressions with
  | [] ->
      Printf.printf "compare-alloc: OK (%s vs %s, tolerance %.0f%%)\n" new_path baseline_path
        (100. *. tolerance)
  | rs ->
      List.iter (fun r -> prerr_endline ("compare-alloc: REGRESSION " ^ r)) rs;
      exit 1

let experiments =
  [
    ("table1", table1);
    ("fig5", fig5);
    ("fig6", fig6);
    ("fig7", fig7);
    ("threshold", threshold);
    ("model", model);
    ("ablate-degen", ablate_degen);
    ("ablate-compact", ablate_compact);
    ("ablate-fusion", ablate_fusion);
    ("ablate-runs", ablate_runs);
    ("motivation", motivation);
    ("xsort", xsort);
    ("tenants", tenants);
    ("ingest", ingest);
    ("linear-sweep", linear_sweep);
    ("micro", micro);
    ("wall", wall);
  ]

let () =
  let args = List.tl (Array.to_list Sys.argv) in
  let rec parse = function
    | [] -> []
    | "--quick" :: rest ->
        quick := true;
        parse rest
    | "--no-fuse" :: rest ->
        no_fuse := true;
        parse rest
    | "--metrics" :: file :: rest ->
        metrics_file := Some file;
        parse rest
    | "--metrics" :: [] ->
        prerr_endline "--metrics requires a file argument";
        exit 2
    | "--wall" :: file :: rest ->
        wall_file := Some file;
        parse rest
    | "--wall" :: [] ->
        prerr_endline "--wall requires a file argument";
        exit 2
    | "--trace" :: file :: rest ->
        trace_file := Some file;
        parse rest
    | "--trace" :: [] ->
        prerr_endline "--trace requires a file argument";
        exit 2
    | "--" :: rest -> parse rest
    | a :: rest -> a :: parse rest
  in
  let args = parse args in
  match args with
  | "validate-metrics" :: paths ->
      if paths = [] then begin
        prerr_endline "validate-metrics requires at least one file";
        exit 2
      end;
      List.iter validate_metrics paths
  | [ "compare-metrics"; baseline; new_path ] -> compare_metrics baseline new_path
  | "compare-metrics" :: _ ->
      prerr_endline "compare-metrics requires exactly two files: BASELINE NEW";
      exit 2
  | [ "compare-alloc"; baseline; new_path ] -> compare_alloc baseline new_path
  | "compare-alloc" :: _ ->
      prerr_endline "compare-alloc requires exactly two files: BASELINE NEW";
      exit 2
  | "collect-io" :: out :: (_ :: _ as rows) -> collect_io out rows
  | "collect-io" :: _ ->
      prerr_endline "collect-io requires an output file and at least one NAME=REPORT";
      exit 2
  | [ "compare-wall"; baseline; new_path ] -> compare_wall baseline new_path
  | "compare-wall" :: _ ->
      prerr_endline "compare-wall requires exactly two files: BASELINE NEW";
      exit 2
  | args ->
  let selected =
    match args with
    | [] ->
        List.filter (fun (n, _) -> not (List.mem n [ "micro"; "wall"; "linear-sweep" ])) experiments
    | names ->
        List.map
          (fun n ->
            match List.assoc_opt n experiments with
            | Some f -> (n, f)
            | None ->
                Printf.eprintf "unknown experiment %S; available: %s\n" n
                  (String.concat ", " (List.map fst experiments));
                exit 2)
          names
  in
  let t0 = Unix.gettimeofday () in
  List.iter (fun (_, f) -> f ()) selected;
  Option.iter write_metrics !metrics_file;
  Printf.printf "\ntotal bench time: %.1fs\n" (Unix.gettimeofday () -. t0)
