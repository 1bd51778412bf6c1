(* Benchmark harness: regenerates every table and figure of the paper's
   evaluation (§5), plus the analysis-validation and ablation experiments
   listed in DESIGN.md.

     dune exec bench/main.exe            -- run everything
     dune exec bench/main.exe fig5       -- one experiment
     dune exec bench/main.exe -- --quick -- scaled-down sizes
     dune exec bench/main.exe -- --cost  -- simulated seek/transfer time
                                            on every device (sim=..ms)
     dune exec bench/main.exe micro      -- bechamel micro-benchmarks

   The paper's primary metric is the number of block I/Os; wall-clock
   seconds are reported as well.  Absolute values differ from the paper
   (its substrate was TPIE on year-2003 hardware; ours is a virtual disk),
   but the shapes under test are the same — see EXPERIMENTS.md. *)

module Ordering = Nexsort.Ordering

let quick = ref false
let cost = ref false
let no_fuse = ref false
let metrics_file = ref None
let wall_file = ref None
let trace_file = ref None
let jobs = ref 1

(* --cost: put a simulated-time (hdd) layer on every device built from a
   bench config — the endpoints below and the sorters' internal stacks —
   and append sim=..ms to each run's detail.  Off by default so the
   default output stays byte-identical. *)
let bench_spec () =
  if !cost then
    { Extmem.Device_spec.default with
      Extmem.Device_spec.layers = [ Extmem.Device_spec.Cost Extmem.Cost_model.hdd ] }
  else Extmem.Device_spec.default

module Config = struct
  include Nexsort.Config

  (* every bench config inherits the harness-wide device spec and worker
     count; --no-fuse overrides the fusion default for experiments that
     don't pin it *)
  let make ?block_size ?memory_blocks ?threshold ?depth_limit ?degeneration ?root_fusion
      ?encoding ?data_stack_blocks ?path_stack_blocks ?keep_whitespace ?jobs:j ?tracer () =
    let root_fusion =
      match root_fusion with
      | Some _ as r -> r
      | None -> if !no_fuse then Some false else None
    in
    let jobs = Option.value j ~default:!jobs in
    Nexsort.Config.make ?block_size ?memory_blocks ?threshold ?depth_limit ?degeneration
      ?root_fusion ?encoding ?data_stack_blocks ?path_stack_blocks ?keep_whitespace ~jobs
      ?tracer ~device:(bench_spec ()) ()
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

(* the input device is shared across runs, so report per-run simulated
   time as a delta from its meter's level before the run *)
let sim_detail base ~before ~total =
  if !cost then Printf.sprintf "%s sim=%.0fms" base (total -. before) else base

let run_nexsort ~config doc_dev =
  Extmem.Io_stats.reset (Extmem.Device.stats doc_dev);
  let sim0 = Extmem.Device.simulated_ms doc_dev in
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
      sim_detail ~before:sim0 ~total:report.Nexsort.simulated_ms
        (Printf.sprintf "sorts=%d(mem %d/ext %d) frags=%d" report.Nexsort.subtree_sorts
           report.Nexsort.in_memory_sorts report.Nexsort.external_sorts
           report.Nexsort.fragment_runs);
  }

let run_mergesort ~config doc_dev =
  Extmem.Io_stats.reset (Extmem.Device.stats doc_dev);
  let sim0 = Extmem.Device.simulated_ms doc_dev in
  let output = Config.scratch_device config ~name:"out" in
  let report, seconds =
    time (fun () ->
        Baselines.Keypath_sort.sort_device ~config ~ordering ~input:doc_dev ~output ())
  in
  {
    io = Extmem.Io_stats.total report.Baselines.Keypath_sort.total_io;
    seconds;
    detail =
      sim_detail ~before:sim0 ~total:report.Baselines.Keypath_sort.simulated_ms
        (Printf.sprintf "runs=%d passes=%d" report.Baselines.Keypath_sort.initial_runs
           report.Baselines.Keypath_sort.merge_passes);
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
        `Adversarial (85, 20_000) ]
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
      let ms = run_mergesort ~config input in
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
      Printf.printf "%-10d %-4d | %-10d %-12.0f %-8.2f | %-10d %-12.0f %-8.2f | %.0f\n"
        stats.Xmlgen.Gen.elements k nx.io nx_bound
        (float_of_int nx.io /. nx_bound)
        ms.io ms_bound
        (float_of_int ms.io /. ms_bound)
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
    \ with it, NEXSORT should be within a whisker of merge sort)"

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
      let indexed, indexed_s =
        time (fun () ->
            Xmerge.Indexed_merge.merge_devices ~ordering:merge_ordering ~left:il ~right:ir
              ~output:iout ())
      in
      let indexed_io = Extmem.Io_stats.total indexed.Xmerge.Indexed_merge.total_io in
      (* sort-merge: NEXSORT both, then a single-pass structural merge *)
      let config = Config.make ~block_size:bs ~memory_blocks:16 () in
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
      Printf.printf "%10s index buffer pool: %d hits, %d misses, %d evictions, %d writebacks\n" ""
        indexed.Xmerge.Indexed_merge.pager_hits indexed.Xmerge.Indexed_merge.pager_misses
        indexed.Xmerge.Indexed_merge.pager_evictions indexed.Xmerge.Indexed_merge.pager_writebacks)
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
   paging per tenant.  The engine budget admits two jobs at a time, so
   K tenants measure the admission queue, not just the sorter: every
   output is still byte-identical to the single-job run (asserted), the
   per-tenant I/O bill is identical, and the queue-wait column is where
   the contention shows. *)

let tenants () =
  heading "E-tenant / concurrent tenants: queue wait and hit ratio per tenant";
  let doc, stats = fig5_doc () in
  subnote "input: %d elements; per-job memory 16 blocks of 1 KiB; engine fits 2 jobs"
    stats.Xmlgen.Gen.elements;
  let xml = Extmem.Device.contents doc in
  let config = Config.make ~block_size:1024 ~memory_blocks:16 ~jobs:1 () in
  let per_job = Nexsort.Session.job_blocks ~workers:0 config in
  let reference = run_nexsort ~config (with_block_size 1024 doc) in
  List.iter
    (fun k ->
      let eng = Engine.create ~memory_blocks:(2 * per_job) ~block_size:1024 () in
      let one tenant =
        Engine.run eng ~tenant config (fun job session ->
            let input = Extmem.Device.of_string ~name:"input" ~block_size:1024 xml in
            let output = Extmem.Device.in_memory ~name:"out" ~block_size:1024 () in
            let report =
              Nexsort.sort_device ~session ~ordering ~input ~output ()
            in
            let hits, misses =
              List.fold_left
                (fun (h, m) (_, o) ->
                  (h + o.Extmem.Frame_arena.hits, m + o.Extmem.Frame_arena.misses))
                (0, 0) report.Nexsort.arena
            in
            ( Engine.queue_wait_s job,
              Extmem.Io_stats.total report.Nexsort.total_io,
              hits,
              misses ))
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
        (fun (tenant, (wait_s, io, hits, misses)) ->
          let ratio =
            if hits + misses = 0 then "    -"
            else Printf.sprintf "%5.2f" (float_of_int hits /. float_of_int (hits + misses))
          in
          Printf.printf "  %-4s | wait %8.1fms | hit ratio %s | %8d io%s\n" tenant
            (wait_s *. 1000.) ratio io
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
(* P-sweep: the index B-tree's buffer-pool replacement policies —
   identical output, different paging.  This is a CI gate
   (scripts/check.sh runs it): a policy producing a different output
   digest is a correctness bug in the cache, and four identical sets of
   counters mean the policy no longer reaches the pool, so the
   experiment exits non-zero on either. *)

let policy_sweep () =
  heading "P-sweep / replacement policies: byte-identical output, different paging";
  (* sized so the index outgrows its 8-frame pool and the policies
     actually have to evict (and so diverge in their counters) *)
  let employees = if !quick then 48 else 96 in
  let pair =
    Xmlgen.Company.generate ~seed:11 ~regions:6 ~branches_per_region:6
      ~employees_per_branch:employees ()
  in
  subnote "indexed merge: company pair, %d employees/branch, 8-frame index pool" employees;
  let runs =
    List.map
      (fun p ->
        let out, r =
          Xmerge.Indexed_merge.merge_strings ~policy:p ~ordering:Xmlgen.Company.ordering
            pair.Xmlgen.Company.personnel pair.Xmlgen.Company.payroll
        in
        let open Xmerge.Indexed_merge in
        ( p,
          Digest.to_hex (Digest.string out),
          (r.pager_hits, r.pager_misses, r.pager_evictions, r.pager_writebacks) ))
      Extmem.Frame_arena.all_policies
  in
  let _, reference, _ = List.hd runs in
  let mismatches = ref 0 in
  List.iter
    (fun (p, digest, (hits, misses, evictions, writebacks)) ->
      let ok = String.equal digest reference in
      if not ok then incr mismatches;
      Printf.printf "  %-8s %-5s : md5=%s  hits=%d misses=%d evictions=%d writebacks=%d\n"
        (Extmem.Frame_arena.policy_to_string p)
        (if ok then "OK" else "DIFF")
        digest hits misses evictions writebacks)
    runs;
  if !mismatches > 0 then begin
    Printf.eprintf "policy-sweep: %d run(s) diverged from the reference digest\n" !mismatches;
    exit 1
  end;
  subnote "  indexed merge: all policies byte-identical";
  let counters = List.sort_uniq compare (List.map (fun (_, _, c) -> c) runs) in
  if List.length counters < 2 then begin
    prerr_endline "policy-sweep: every policy reported the same pager counters";
    exit 1
  end

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
   on a busy CI box.  On a single-core box --jobs 4 measures the
   coordination overhead of the worker pool, not a speedup. *)

let wall () =
  heading "wall / bechamel: end-to-end wall clock (loose CI gate)";
  let open Bechamel in
  let doc, stats = fig5_doc () in
  subnote "input: %d elements; block size 1 KiB, memory 16 blocks" stats.Xmlgen.Gen.elements;
  let contents = Extmem.Device.contents doc in
  let nexsort ~jobs () =
    let config = Config.make ~block_size:1024 ~memory_blocks:16 ~jobs () in
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
    let config = Config.make ~block_size:1024 ~memory_blocks:16 ~jobs:1 ~tracer () in
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
        Test.make ~name:"nexsort-j1" (Staged.stage (nexsort ~jobs:1));
        Test.make ~name:"nexsort-j4" (Staged.stage (nexsort ~jobs:4));
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

let read_json path =
  let ic = open_in_bin path in
  let s =
    Fun.protect
      ~finally:(fun () -> close_in ic)
      (fun () -> really_input_string ic (in_channel_length ic))
  in
  Obs.Json.of_string s

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
  let report =
    Engine.with_session config (fun session ->
        Nexsort.sort_device ~session ~ordering ~input ~output ())
  in
  Obs.Report.write_file (Nexsort.metrics_report ~tool:"bench" ~config report) path;
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
    [ "schema_version"; "tool"; "config"; "counts"; "io"; "pager"; "arena"; "gc"; "phases";
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
  Printf.printf "validate-metrics: %s OK\n" path

(* compare-metrics BASELINE NEW: fail if any I/O counter in NEW's "io"
   section exceeds BASELINE's — the CI regression gate on the committed
   smoke-run baseline. *)
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

(* compare-alloc BASELINE NEW: fail if NEW's minor or promoted words grew
   by more than 1 % over BASELINE's.  Allocation of a single-threaded sort
   is deterministic (repeated runs agree to the word), so unlike wall time
   it needs no pairs of runs; with worker domains it is not, so both
   reports must come from --jobs 1. *)
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
  List.iter
    (fun (path, json) ->
      let jobs = number_at path json "config" "jobs" in
      if jobs <> 1. then fail "%s was run with jobs=%g; allocation is only deterministic at 1" path jobs)
    [ (baseline_path, base_json); (new_path, new_json) ];
  let regressions =
    List.filter_map
      (fun key ->
        let b = number_at baseline_path base_json "gc" key
        and n = number_at new_path new_json "gc" key in
        if n > (1. +. tolerance) *. b then
          Some (Printf.sprintf "gc.%s: %.0f -> %.0f (> +%.0f%%)" key b n (100. *. tolerance))
        else None)
      [ "minor_words"; "promoted_words" ]
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
    ("policy-sweep", policy_sweep);
    ("tenants", tenants);
    ("ingest", ingest);
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
    | "--cost" :: rest ->
        cost := true;
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
    | "--jobs" :: n :: rest -> (
        match int_of_string_opt n with
        | Some j when j >= 1 && j <= 64 ->
            jobs := j;
            parse rest
        | _ ->
            Printf.eprintf "--jobs: expected a worker count between 1 and 64, got %S\n" n;
            exit 2)
    | "--jobs" :: [] ->
        prerr_endline "--jobs requires a worker count";
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
  | [ "compare-wall"; baseline; new_path ] -> compare_wall baseline new_path
  | "compare-wall" :: _ ->
      prerr_endline "compare-wall requires exactly two files: BASELINE NEW";
      exit 2
  | args ->
  let selected =
    match args with
    | [] -> List.filter (fun (n, _) -> n <> "micro" && n <> "wall") experiments
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
