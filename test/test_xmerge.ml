(* Tests for structural merge and batch updates, plus the workload
   generators. *)

let check = Alcotest.check

let qcheck = QCheck_alcotest.to_alcotest

module Key = Nexsort.Key
module Ordering = Nexsort.Ordering

let tree_eq = Alcotest.testable Xmlio.Tree.pp Xmlio.Tree.equal

let parse = Xmlio.Tree.of_string

let by_id = Ordering.by_attr "id"

let config = Nexsort.Config.make ~block_size:128 ~memory_blocks:8 ()

(* ------------------------------------------------------------------ *)
(* Reference merge on in-memory trees (the oracle for Struct_merge) *)

let key_of ordering (e : Xmlio.Tree.element) = Ordering.key_of_tree ordering e

let rec ref_merge ordering (a : Xmlio.Tree.element) (b : Xmlio.Tree.element) : Xmlio.Tree.element =
  let attrs =
    a.Xmlio.Tree.attrs
    @ List.filter (fun (k, _) -> not (List.mem_assoc k a.Xmlio.Tree.attrs)) b.Xmlio.Tree.attrs
  in
  let texts l =
    List.filter_map (function Xmlio.Tree.Text t -> Some t | _ -> None) l
  in
  let elems l =
    List.filter_map (function Xmlio.Tree.Element e -> Some e | _ -> None) l
  in
  let ta = texts a.Xmlio.Tree.children and tb = texts b.Xmlio.Tree.children in
  let text_children = if ta = tb then ta else ta @ tb in
  let cmp x y =
    let c = Key.compare (key_of ordering x) (key_of ordering y) in
    if c <> 0 then c else String.compare x.Xmlio.Tree.name y.Xmlio.Tree.name
  in
  let rec walk xs ys =
    match (xs, ys) with
    | [], rest | rest, [] -> rest
    | x :: xs', y :: ys' ->
        let c = cmp x y in
        if c < 0 then x :: walk xs' ys
        else if c > 0 then y :: walk xs ys'
        else ref_merge ordering x y :: walk xs' ys'
  in
  let merged = walk (elems a.Xmlio.Tree.children) (elems b.Xmlio.Tree.children) in
  {
    a with
    Xmlio.Tree.attrs = attrs;
    Xmlio.Tree.children =
      List.map (fun t -> Xmlio.Tree.Text t) text_children
      @ List.map (fun e -> Xmlio.Tree.Element e) merged;
  }

let ref_merge_strings ordering l r =
  let el = match parse l with Xmlio.Tree.Element e -> e | _ -> assert false in
  let er = match parse r with Xmlio.Tree.Element e -> e | _ -> assert false in
  Xmlio.Tree.Element (ref_merge ordering el er)

(* ------------------------------------------------------------------ *)
(* Struct_merge *)

let test_sort_and_merge_fused_matches_unfused () =
  (* fusion is a pure optimization: the merged document is identical
     whether the sorted inputs are materialised or streamed *)
  let pair = Xmlgen.Company.generate ~seed:9 ~regions:3 ~employees_per_branch:5 () in
  let l = pair.Xmlgen.Company.personnel and r = pair.Xmlgen.Company.payroll in
  let ordering = Xmlgen.Company.ordering in
  let fused, _ = Xmerge.Struct_merge.sort_and_merge_strings ~config ~fuse:true ~ordering l r in
  let unfused, _ = Xmerge.Struct_merge.sort_and_merge_strings ~config ~fuse:false ~ordering l r in
  Alcotest.check Alcotest.string "same merged document" unfused fused

let test_sort_and_merge_devices_fused_saves_io () =
  let pair = Xmlgen.Company.generate ~seed:10 ~regions:3 ~employees_per_branch:5 () in
  let ordering = Xmlgen.Company.ordering in
  let bs = config.Nexsort.Config.block_size in
  let run fuse =
    let load name s =
      let d = Extmem.Device.in_memory ~name ~block_size:bs () in
      Extmem.Device.load_string d s;
      d
    in
    let left = load "left" pair.Xmlgen.Company.personnel in
    let right = load "right" pair.Xmlgen.Company.payroll in
    let output = Extmem.Device.in_memory ~name:"output" ~block_size:bs () in
    ignore
      (Engine.with_session_pair config (fun sessions ->
           Xmerge.Struct_merge.sort_and_merge_devices ~fuse ~sessions
             ~pass:Xmerge.Struct_merge.merge ~ordering ~left ~right ~output ())
        : Xmerge.Struct_merge.report);
    ( Extmem.Device.contents output,
      Extmem.Io_stats.total (Extmem.Io_stats.snapshot (Extmem.Device.stats left))
      + Extmem.Io_stats.total (Extmem.Io_stats.snapshot (Extmem.Device.stats right)) )
  in
  let fused_out, fused_io = run true in
  let unfused_out, unfused_io = run false in
  Alcotest.check Alcotest.string "same merged document" unfused_out fused_out;
  (* unfused reads each raw input once to sort it; fused does the same —
     the savings are on the scratch/sorted devices, so the raw-input I/O
     must not grow *)
  Alcotest.check Alcotest.bool "fusion does not cost raw-input I/O" true
    (fused_io <= unfused_io)

let test_merge_figure_1 () =
  let merged, report =
    Xmerge.Struct_merge.sort_and_merge_strings ~config ~ordering:Xmlgen.Company.ordering
      Xmlgen.Company.figure_1_d1 Xmlgen.Company.figure_1_d2
  in
  (* the bottom document of Figure 1 *)
  let expected =
    "<company>\
     <region name=\"AC\">\
     <branch name=\"Atlanta\"/>\
     <branch name=\"Durham\">\
     <employee ID=\"323\">\
     <bonus>5000</bonus><name>Smith</name><phone>5552345</phone><salary>45000</salary>\
     </employee>\
     <employee ID=\"454\"/>\
     <employee ID=\"844\"/>\
     </branch>\
     <branch name=\"Miami\"/>\
     </region>\
     <region name=\"NE\"/>\
     <region name=\"NW\"/>\
     </company>"
  in
  check tree_eq "figure 1 merge" (parse expected) (parse merged);
  check Alcotest.bool "matches found" true (report.Xmerge.Struct_merge.matched_elements >= 4)

let test_merge_disjoint () =
  let merged, _ =
    Xmerge.Struct_merge.merge_strings ~ordering:by_id "<r id=\"0\"><a id=\"1\"/></r>"
      "<r id=\"0\"><b id=\"2\"/></r>"
  in
  check tree_eq "outer join" (parse "<r id=\"0\"><a id=\"1\"/><b id=\"2\"/></r>") (parse merged)

let test_merge_attr_union () =
  let merged, _ =
    Xmerge.Struct_merge.merge_strings ~ordering:by_id "<r id=\"1\" a=\"left\"/>"
      "<r id=\"1\" a=\"right\" b=\"only\"/>"
  in
  check tree_eq "left wins conflicts, union otherwise"
    (parse "<r id=\"1\" a=\"left\" b=\"only\"/>")
    (parse merged)

let test_merge_text_policy () =
  let same, _ =
    Xmerge.Struct_merge.merge_strings ~ordering:by_id "<r id=\"1\">x</r>" "<r id=\"1\">x</r>"
  in
  check tree_eq "equal text once" (parse "<r id=\"1\">x</r>") (parse same);
  let diff, _ =
    Xmerge.Struct_merge.merge_strings ~ordering:by_id "<r id=\"1\">x</r>" "<r id=\"1\">y</r>"
  in
  check tree_eq "different text kept" (parse "<r id=\"1\">xy</r>") (parse diff)

(* Text children and null-keyed elements share [Key.Null] and tie-break
   by document position, so a sorted sibling list may put text after an
   element that has no key: here <a/> sorts before "hello".  The merge
   takes each side's Null run in that order. *)
let null_run_base = {|<r><a/>hello<b id="2"/></r>|}

let null_run_update = {|<r><b id="2" w="1"/></r>|}

let test_merge_null_keyed_before_text () =
  let merged, _ =
    Xmerge.Struct_merge.sort_and_merge_strings ~config ~ordering:by_id null_run_base
      null_run_update
  in
  check Alcotest.string "merged" {|<r><a/>hello<b id="2" w="1"/></r>|} merged;
  (* matched null-keyed elements merge in place; equal texts coalesce and
     unequal ones are kept, left first, as in the leading text run *)
  let merged, _ =
    Xmerge.Struct_merge.merge_strings ~ordering:by_id {|<r><a/>x<c/>y<b id="2"/></r>|}
      {|<r><a k="1"/>x<c/>z</r>|}
  in
  check Alcotest.string "null runs" {|<r><a k="1"/>x<c/>yz<b id="2"/></r>|} merged;
  (* a text equal on both sides is kept once whether or not a null-keyed
     element precedes it on one side *)
  let merged, _ =
    Xmerge.Struct_merge.merge_strings ~ordering:by_id {|<r><a/>x<b id="2"/></r>|}
      {|<r>x<b id="2" w="1"/></r>|}
  in
  check Alcotest.string "leading text once" {|<r><a/>x<b id="2" w="1"/></r>|} merged;
  (* sorting joins "t" and "u" into one run, which a parser reads whole
     but the sorter emits as two events: texts compare as runs *)
  let merged, _ =
    Xmerge.Struct_merge.sort_and_merge_strings ~config ~ordering:by_id
      {|<r><a id="1">tu<b id="2"/></a></r>|} {|<r><a id="1">t<b id="2"/>u</a></r>|}
  in
  check Alcotest.string "text runs" {|<r><a id="1">tu<b id="2"/></a></r>|} merged;
  (* text after a keyed element is still out of order *)
  match
    Xmerge.Struct_merge.merge_strings ~ordering:by_id {|<r><b id="2"/>x</r>|} {|<r/>|}
  with
  | _ -> Alcotest.fail "expected Not_sorted"
  | exception Xmerge.Struct_merge.Not_sorted _ -> ()

let test_merge_rejects_unsorted () =
  try
    ignore
      (Xmerge.Struct_merge.merge_strings ~ordering:by_id
         "<r id=\"0\"><b id=\"2\"/><a id=\"1\"/></r>" "<r id=\"0\"/>");
    Alcotest.fail "expected Not_sorted"
  with Xmerge.Struct_merge.Not_sorted _ -> ()

let test_merge_rejects_subtree_ordering () =
  try
    ignore
      (Xmerge.Struct_merge.merge_strings ~ordering:(Ordering.make Ordering.By_text) "<a/>" "<a/>");
    Alcotest.fail "expected Invalid_argument"
  with Invalid_argument _ -> ()

let test_merge_mismatched_roots () =
  try
    ignore (Xmerge.Struct_merge.merge_strings ~ordering:by_id "<a id=\"1\"/>" "<b id=\"1\"/>");
    Alcotest.fail "expected Invalid_argument"
  with Invalid_argument _ -> ()

let test_merge_devices_single_pass () =
  let pair = Xmlgen.Company.generate ~seed:3 ~regions:3 ~branches_per_region:2 () in
  let ordering = Xmlgen.Company.ordering in
  let sl, _ = Engine.sort_string ~config ~ordering pair.Xmlgen.Company.personnel in
  let sr, _ = Engine.sort_string ~config ~ordering pair.Xmlgen.Company.payroll in
  let bs = 128 in
  let left = Extmem.Device.of_string ~block_size:bs sl in
  let right = Extmem.Device.of_string ~block_size:bs sr in
  let output = Extmem.Device.in_memory ~block_size:bs () in
  ignore
    (Xmerge.Struct_merge.merge_devices ~pass:Xmerge.Struct_merge.merge ~ordering ~left ~right
       ~output ());
  let blocks_of s = (String.length s + bs - 1) / bs in
  check Alcotest.int "left read once" (blocks_of sl) (Extmem.Device.stats left).Extmem.Io_stats.reads;
  check Alcotest.int "right read once" (blocks_of sr)
    (Extmem.Device.stats right).Extmem.Io_stats.reads;
  (* the merged output equals the reference merge *)
  check tree_eq "device merge correct"
    (ref_merge_strings ordering sl sr)
    (parse (Extmem.Device.contents output))

let prop_merge_equals_reference =
  QCheck.Test.make ~name:"struct merge = reference tree merge" ~count:60
    QCheck.(pair small_nat small_nat)
    (fun (seed, extra) ->
      let pair =
        Xmlgen.Company.generate ~seed:(seed + 1)
          ~regions:(1 + (extra mod 3))
          ~branches_per_region:(1 + (seed mod 3))
          ~employees_per_branch:(2 + (extra mod 4))
          ~overlap:(float_of_int (seed mod 10) /. 10.)
          ()
      in
      let ordering = Xmlgen.Company.ordering in
      let sl, _ = Engine.sort_string ~config ~ordering pair.Xmlgen.Company.personnel in
      let sr, _ = Engine.sort_string ~config ~ordering pair.Xmlgen.Company.payroll in
      let merged, _ = Xmerge.Struct_merge.merge_strings ~ordering sl sr in
      Xmlio.Tree.equal (ref_merge_strings ordering sl sr) (parse merged))

let prop_merge_output_sorted =
  QCheck.Test.make ~name:"struct merge output is itself sorted" ~count:40 QCheck.small_nat
    (fun seed ->
      let pair = Xmlgen.Company.generate ~seed:(seed + 100) () in
      let ordering = Xmlgen.Company.ordering in
      let merged, _ =
        Xmerge.Struct_merge.sort_and_merge_strings ~config ~ordering
          pair.Xmlgen.Company.personnel pair.Xmlgen.Company.payroll
      in
      Baselines.Tree_sort.sorted ordering (parse merged))

(* ------------------------------------------------------------------ *)
(* Naive nested-loop merge (the paper's strawman) *)

let test_naive_merge_small () =
  let merged, report =
    Xmerge.Naive_merge.merge_strings ~ordering:by_id "<r id=\"0\"><a id=\"2\"/><b id=\"1\">hi</b></r>"
      "<r id=\"0\"><c id=\"3\"/><b id=\"1\"/></r>"
  in
  (* left order kept, unmatched right children appended *)
  check tree_eq "naive merge"
    (parse "<r id=\"0\"><a id=\"2\"/><b id=\"1\">hi</b><c id=\"3\"/></r>")
    (parse merged);
  check Alcotest.int "matched r and b" 2 report.Xmerge.Naive_merge.matched_elements

let test_naive_merge_agrees_with_sort_merge () =
  (* sorting the naive merge's output gives exactly the sort-merge result *)
  let pair = Xmlgen.Company.generate ~seed:17 ~regions:3 ~employees_per_branch:4 () in
  let ordering = Xmlgen.Company.ordering in
  let naive, _ =
    Xmerge.Naive_merge.merge_strings ~ordering pair.Xmlgen.Company.personnel
      pair.Xmlgen.Company.payroll
  in
  let sorted_naive = Baselines.Tree_sort.sort_tree ordering (parse naive) in
  let via_sort_merge, _ =
    Xmerge.Struct_merge.sort_and_merge_strings ~config ~ordering pair.Xmlgen.Company.personnel
      pair.Xmlgen.Company.payroll
  in
  check tree_eq "same merge, different order" (parse via_sort_merge) sorted_naive

let test_naive_merge_io_pattern () =
  (* the point of the exercise: the naive merge re-reads the right document
     many times over, sort-merge reads everything a bounded number of
     times *)
  let pair = Xmlgen.Company.generate ~seed:5 ~regions:4 ~branches_per_region:4
      ~employees_per_branch:8 ()
  in
  let ordering = Xmlgen.Company.ordering in
  let bs = 256 in
  let left = Extmem.Device.of_string ~block_size:bs pair.Xmlgen.Company.personnel in
  let right = Extmem.Device.of_string ~block_size:bs pair.Xmlgen.Company.payroll in
  let output = Extmem.Device.in_memory ~block_size:bs () in
  let report = Xmerge.Naive_merge.merge_devices ~ordering ~left ~right ~output () in
  let right_blocks = (String.length pair.Xmlgen.Company.payroll + bs - 1) / bs in
  check Alcotest.bool "right side re-read many times" true
    (report.Xmerge.Naive_merge.right_io.Extmem.Io_stats.reads > 3 * right_blocks)

(* The indexed merge of two documents over in-memory devices of [bs]-byte
   blocks, its B-tree's frames leased from [arena] (unbudgeted by
   default), and a device spec's layers over the right side. *)
let indexed_merge ?(arena = Extmem.Frame_arena.create ()) ?(right_layers = "mem") ~bs l r =
  let left = Extmem.Device.of_string ~block_size:bs l in
  let right =
    (Extmem.Device_spec.apply_layers (Extmem.Device_spec.parse right_layers)
       (Extmem.Device.of_string ~block_size:bs r)).Extmem.Device_spec.device
  in
  let output = Extmem.Device.in_memory ~block_size:bs () in
  let report =
    Xmerge.Indexed_merge.merge_devices ~arena ~ordering:Xmlgen.Company.ordering ~left ~right
      ~output ()
  in
  (Extmem.Device.contents output, report)

let test_indexed_merge_matches_naive () =
  (* the index changes the I/O pattern, not the answer *)
  let pair = Xmlgen.Company.generate ~seed:23 ~regions:3 ~employees_per_branch:5 () in
  let ordering = Xmlgen.Company.ordering in
  let naive, _ =
    Xmerge.Naive_merge.merge_strings ~ordering pair.Xmlgen.Company.personnel
      pair.Xmlgen.Company.payroll
  in
  let indexed, report =
    indexed_merge ~bs:1024 pair.Xmlgen.Company.personnel pair.Xmlgen.Company.payroll
  in
  check tree_eq "same result" (parse naive) (parse indexed);
  check Alcotest.bool "index populated" true (report.Xmerge.Indexed_merge.index_entries > 20)

let test_indexed_merge_reads_right_less () =
  let pair =
    Xmlgen.Company.generate ~seed:31 ~regions:4 ~branches_per_region:4 ~employees_per_branch:8 ()
  in
  let ordering = Xmlgen.Company.ordering in
  let bs = 256 in
  let naive =
    let left = Extmem.Device.of_string ~block_size:bs pair.Xmlgen.Company.personnel in
    let right = Extmem.Device.of_string ~block_size:bs pair.Xmlgen.Company.payroll in
    let output = Extmem.Device.in_memory ~block_size:bs () in
    Xmerge.Naive_merge.merge_devices ~ordering ~left ~right ~output ()
  in
  let _, indexed = indexed_merge ~bs pair.Xmlgen.Company.personnel pair.Xmlgen.Company.payroll in
  check Alcotest.bool "index removes right re-scans" true
    (indexed.Xmerge.Indexed_merge.right_io.Extmem.Io_stats.reads
    < naive.Xmerge.Naive_merge.right_io.Extmem.Io_stats.reads)

let test_indexed_merge_pager_counters () =
  (* the company pair whose index outgrows its 8-frame LRU pool: output,
     index I/O and every pager counter are pinned *)
  let pair =
    Xmlgen.Company.generate ~seed:11 ~regions:6 ~branches_per_region:6 ~employees_per_branch:48 ()
  in
  let out, r =
    indexed_merge ~bs:1024 pair.Xmlgen.Company.personnel pair.Xmlgen.Company.payroll
  in
  let open Xmerge.Indexed_merge in
  check Alcotest.string "output md5" "3355f162b6e913e02cb3b3c419f8d134"
    (Digest.to_hex (Digest.string out));
  check Alcotest.int "index io" 247 (Extmem.Io_stats.total r.index_io);
  check Alcotest.int "hits" 33297 r.pager.hits;
  check Alcotest.int "misses" 168 r.pager.misses;
  check Alcotest.int "evictions" 160 r.pager.evictions;
  check Alcotest.int "writebacks" 79 r.pager.writebacks

let test_indexed_merge_counts_frames () =
  (* the index's 8 frames are leased from the caller's arena under
     "btree": a budget with 7 free blocks refuses them, and a merge
     gives them back on success and on a device fault alike *)
  let pair = Xmlgen.Company.generate ~seed:23 ~regions:3 ~employees_per_branch:5 () in
  let l = pair.Xmlgen.Company.personnel and r = pair.Xmlgen.Company.payroll in
  let arena blocks =
    Extmem.Frame_arena.create ~budget:(Extmem.Memory_budget.create ~blocks ~block_size:1024) ()
  in
  let btree_held a =
    match List.assoc_opt "btree" (Extmem.Frame_arena.owners a) with
    | Some s -> s.Extmem.Frame_arena.held
    | None -> Alcotest.fail "no btree owner"
  in
  (match indexed_merge ~arena:(arena 7) ~bs:1024 l r with
  | _ -> Alcotest.fail "7 blocks held 8 frames"
  | exception Extmem.Memory_budget.Exhausted msg ->
      check Alcotest.bool ("names btree: " ^ msg) true
        (String.length msg >= 5 && String.sub msg 0 5 = "btree"));
  let a = arena 8 in
  ignore (indexed_merge ~arena:a ~bs:1024 l r);
  check Alcotest.int "held after a merge" 0 (btree_held a);
  check Alcotest.int "peak" 8 (Extmem.Frame_arena.totals a).Extmem.Frame_arena.peak;
  match indexed_merge ~arena:a ~right_layers:"faulty:p=1,seed=1/mem" ~bs:1024 l r with
  | _ -> Alcotest.fail "expected a device fault"
  | exception Extmem.Device.Fault _ -> check Alcotest.int "held after a fault" 0 (btree_held a)

let test_naive_merge_rejects_fancy_markup () =
  try
    ignore
      (Xmerge.Naive_merge.merge_strings ~ordering:by_id "<r id=\"0\"><!-- c --></r>" "<r id=\"0\"/>");
    Alcotest.fail "expected Invalid_argument"
  with Invalid_argument _ -> ()

(* ------------------------------------------------------------------ *)
(* Batch_update *)

let test_update_upsert () =
  let base = "<db id=\"0\"><item id=\"1\"><v>old</v></item><item id=\"3\"/></db>" in
  let updates = "<db id=\"0\"><item id=\"2\"/><item id=\"1\"><w>new</w></item></db>" in
  let out, report =
    Xmerge.Batch_update.sort_and_apply_strings ~config ~ordering:by_id ~base ~updates ()
  in
  check tree_eq "upsert"
    (parse
       "<db id=\"0\"><item id=\"1\"><v>old</v><w>new</w></item><item id=\"2\"/><item id=\"3\"/></db>")
    (parse out);
  check Alcotest.int "no deletes" 0 report.Xmerge.Batch_update.deletes

let test_update_delete () =
  let base = "<db id=\"0\"><item id=\"1\"/><item id=\"2\"/></db>" in
  let updates = "<db id=\"0\"><item id=\"1\" __op=\"delete\"/></db>" in
  let out, report =
    Xmerge.Batch_update.sort_and_apply_strings ~config ~ordering:by_id ~base ~updates ()
  in
  check tree_eq "deleted" (parse "<db id=\"0\"><item id=\"2\"/></db>") (parse out);
  check Alcotest.int "one delete" 1 report.Xmerge.Batch_update.deletes

let test_update_delete_missing_is_noop () =
  let base = "<db id=\"0\"><item id=\"2\"/></db>" in
  let updates = "<db id=\"0\"><item id=\"9\" __op=\"delete\"/></db>" in
  let out, report =
    Xmerge.Batch_update.sort_and_apply_strings ~config ~ordering:by_id ~base ~updates ()
  in
  check tree_eq "unchanged" (parse base) (parse out);
  check Alcotest.int "unmatched" 1 report.Xmerge.Batch_update.unmatched_deletes

let test_update_replace () =
  let base = "<db id=\"0\"><item id=\"1\"><old/><older/></item></db>" in
  let updates = "<db id=\"0\"><item id=\"1\" __op=\"replace\"><new/></item></db>" in
  let out, report =
    Xmerge.Batch_update.sort_and_apply_strings ~config ~ordering:by_id ~base ~updates ()
  in
  check tree_eq "replaced" (parse "<db id=\"0\"><item id=\"1\"><new/></item></db>") (parse out);
  check Alcotest.int "one replace" 1 report.Xmerge.Batch_update.replaces

let test_update_marker_stripped () =
  let base = "<db id=\"0\"/>" in
  let updates = "<db id=\"0\"><item id=\"5\" __op=\"merge\" keep=\"yes\"/></db>" in
  let out, _ =
    Xmerge.Batch_update.sort_and_apply_strings ~config ~ordering:by_id ~base ~updates ()
  in
  check tree_eq "marker gone" (parse "<db id=\"0\"><item id=\"5\" keep=\"yes\"/></db>") (parse out)

let test_update_result_stays_sorted () =
  let base = "<db id=\"0\"><a id=\"1\"/><c id=\"5\"/><d id=\"9\"/></db>" in
  let updates = "<db id=\"0\"><b id=\"3\"/><c id=\"5\" __op=\"delete\"/><e id=\"7\"/></db>" in
  let out, _ = Xmerge.Batch_update.apply_strings ~ordering:by_id ~base ~updates in
  check tree_eq "applied"
    (parse "<db id=\"0\"><a id=\"1\"/><b id=\"3\"/><e id=\"7\"/><d id=\"9\"/></db>")
    (parse out);
  check Alcotest.bool "still sorted" true (Baselines.Tree_sort.sorted by_id (parse out))

(* ------------------------------------------------------------------ *)
(* Seqnum: preserving document order across sort + merge (Example 1.1) *)

let test_seqnum_roundtrip () =
  let doc = "<r id=\"0\"><b id=\"9\"><y id=\"5\"/><x id=\"7\"/></b><a id=\"3\">text</a></r>" in
  let annotated = Xmerge.Seqnum.annotate doc in
  (* sorting scrambles the sibling order... *)
  let sorted, _ = Engine.sort_string ~config ~ordering:by_id annotated in
  check Alcotest.bool "sorting changed the order" true
    (Xmerge.Seqnum.strip sorted <> doc);
  (* ...and restore brings the original order back exactly *)
  check tree_eq "restored" (parse doc) (parse (Xmerge.Seqnum.restore ~config sorted))

let test_seqnum_preserves_order_through_merge () =
  (* Example 1.1's closing remark, end to end: merge two documents, then
     recover the left document's original ordering *)
  let d1 = "<r id=\"0\"><b id=\"9\"/><a id=\"3\"/><c id=\"5\"/></r>" in
  let d2 = "<r id=\"0\"><z id=\"1\"/><a id=\"3\"/></r>" in
  let a1 = Xmerge.Seqnum.annotate ~offset:0 d1 in
  let a2 = Xmerge.Seqnum.annotate ~offset:1000 d2 in
  (* __seq must not disturb key-based matching: sort under by_id, merge *)
  let merged, _ = Xmerge.Struct_merge.sort_and_merge_strings ~config ~ordering:by_id a1 a2 in
  let restored = Xmerge.Seqnum.restore ~config merged in
  (* left order first (b, a, c), right-only elements after (z) *)
  check tree_eq "left order preserved"
    (parse "<r id=\"0\"><b id=\"9\"/><a id=\"3\"/><c id=\"5\"/><z id=\"1\"/></r>")
    (parse restored)

let test_seqnum_rejects_reserved () =
  try
    ignore (Xmerge.Seqnum.annotate "<r __seq=\"1\"/>");
    Alcotest.fail "expected Invalid_argument"
  with Invalid_argument _ -> ()

let prop_seqnum_restores_any_document =
  QCheck.Test.make ~name:"annotate |> sort |> restore = identity" ~count:60 QCheck.small_nat
    (fun seed ->
      let doc, _ =
        Xmlgen.Gen.to_string (fun sink ->
            Xmlgen.Gen.random_shape ~seed:(seed + 3000) ~avg_bytes:30 ~max_elements:80 ~height:4
              ~max_fanout:5 sink)
      in
      let sorted, _ =
        Engine.sort_string ~config ~ordering:by_id (Xmerge.Seqnum.annotate doc)
      in
      Xmlio.Tree.equal (parse doc) (parse (Xmerge.Seqnum.restore ~config sorted)))

(* ------------------------------------------------------------------ *)
(* Generators *)

let test_gen_exact_shape () =
  let s, stats = Xmlgen.Gen.to_string (fun sink -> Xmlgen.Gen.exact_shape ~fanouts:[ 3; 2 ] sink) in
  check Alcotest.int "elements 1+3+6" 10 stats.Xmlgen.Gen.elements;
  check Alcotest.int "height" 3 stats.Xmlgen.Gen.height;
  let t = parse s in
  check Alcotest.int "tree agrees" 10 (Xmlio.Tree.element_count t);
  check Alcotest.int "size formula" 10 (Xmlgen.Gen.exact_shape_size ~fanouts:[ 3; 2 ])

let test_gen_exact_shape_table2 () =
  (* scaled-down Table 2 shapes keep their element counts *)
  check Alcotest.int "height 3" (1 + 17 + (17 * 17))
    (Xmlgen.Gen.exact_shape_size ~fanouts:[ 17; 17 ]);
  check Alcotest.int "height 2" 101 (Xmlgen.Gen.exact_shape_size ~fanouts:[ 100 ])

let test_gen_random_shape_bounds () =
  let s, stats =
    Xmlgen.Gen.to_string (fun sink ->
        Xmlgen.Gen.random_shape ~seed:5 ~height:4 ~max_fanout:5 ~max_elements:200 sink)
  in
  check Alcotest.bool "bounded" true (stats.Xmlgen.Gen.elements <= 200);
  let t = parse s in
  check Alcotest.bool "height bounded" true (Xmlio.Tree.height t <= 4);
  check Alcotest.int "element count agrees" stats.Xmlgen.Gen.elements (Xmlio.Tree.element_count t)

let test_gen_deterministic () =
  let a, _ = Xmlgen.Gen.to_string (fun s -> Xmlgen.Gen.random_shape ~seed:9 ~height:3 ~max_fanout:4 s) in
  let b, _ = Xmlgen.Gen.to_string (fun s -> Xmlgen.Gen.random_shape ~seed:9 ~height:3 ~max_fanout:4 s) in
  let c, _ = Xmlgen.Gen.to_string (fun s -> Xmlgen.Gen.random_shape ~seed:10 ~height:3 ~max_fanout:4 s) in
  check Alcotest.bool "same seed same doc" true (a = b);
  check Alcotest.bool "different seed different doc" true (a <> c)

let test_gen_avg_bytes () =
  let _, stats =
    Xmlgen.Gen.to_string (fun sink ->
        Xmlgen.Gen.exact_shape ~avg_bytes:150 ~fanouts:[ 10; 10 ] sink)
  in
  let avg = float_of_int stats.Xmlgen.Gen.bytes /. float_of_int stats.Xmlgen.Gen.elements in
  check Alcotest.bool (Printf.sprintf "avg element size ~150 (got %.0f)" avg) true
    (avg > 100. && avg < 200.)

let test_gen_to_device () =
  let dev = Extmem.Device.in_memory ~block_size:64 () in
  let stats = Xmlgen.Gen.to_device dev (fun sink -> Xmlgen.Gen.exact_shape ~fanouts:[ 4 ] sink) in
  check Alcotest.int "bytes recorded" stats.Xmlgen.Gen.bytes (Extmem.Device.byte_length dev);
  let t = parse (Extmem.Device.contents dev) in
  check Alcotest.int "parses" 5 (Xmlio.Tree.element_count t)

let test_company_pair_mergeable () =
  let pair = Xmlgen.Company.generate ~seed:42 () in
  let t1 = parse pair.Xmlgen.Company.personnel in
  let t2 = parse pair.Xmlgen.Company.payroll in
  check Alcotest.bool "d1 parses" true (Xmlio.Tree.element_count t1 > 5);
  check Alcotest.bool "d2 parses" true (Xmlio.Tree.element_count t2 > 5);
  (* the documents are generated unsorted (that is the point) *)
  check Alcotest.bool "unsorted" true
    (not (Baselines.Tree_sort.sorted Xmlgen.Company.ordering t1)
    || not (Baselines.Tree_sort.sorted Xmlgen.Company.ordering t2))

let test_splitmix_determinism () =
  let a = Xmlgen.Splitmix.create 1 and b = Xmlgen.Splitmix.create 1 in
  let xs = List.init 20 (fun _ -> Xmlgen.Splitmix.int a 1000) in
  let ys = List.init 20 (fun _ -> Xmlgen.Splitmix.int b 1000) in
  check (Alcotest.list Alcotest.int) "streams equal" xs ys;
  List.iter (fun x -> check Alcotest.bool "in range" true (x >= 0 && x < 1000)) xs;
  let r = Xmlgen.Splitmix.in_range a 5 9 in
  check Alcotest.bool "in_range" true (r >= 5 && r <= 9)

(* ------------------------------------------------------------------ *)
(* Batch_update report counters *)

let apply base updates =
  Xmerge.Batch_update.sort_and_apply_strings ~config ~ordering:by_id ~base ~updates ()

let test_update_report_counters () =
  let base = {|<r><a id="1"/><a id="2"/><a id="3"/></r>|} in
  let _, r = apply base {|<r><a id="1" __op="delete"/><a id="3" __op="delete"/></r>|} in
  check Alcotest.int "deletes" 2 r.Xmerge.Batch_update.deletes;
  check Alcotest.int "replaces" 0 r.Xmerge.Batch_update.replaces;
  check Alcotest.int "unmatched" 0 r.Xmerge.Batch_update.unmatched_deletes;
  let _, r = apply base {|<r><a id="2" __op="replace"><b/></a></r>|} in
  check Alcotest.int "replaces counted" 1 r.Xmerge.Batch_update.replaces;
  check Alcotest.int "no deletes" 0 r.Xmerge.Batch_update.deletes;
  let _, r = apply base {|<r><a id="9" __op="delete"/></r>|} in
  check Alcotest.int "unmatched counted" 1 r.Xmerge.Batch_update.unmatched_deletes;
  check Alcotest.int "unmatched not a delete" 0 r.Xmerge.Batch_update.deletes;
  let out, r =
    apply base
      {|<r><a id="1" __op="delete"/><a id="2" __op="replace"><b/></a><a id="8" __op="delete"/><a id="4"/></r>|}
  in
  check Alcotest.int "mixed deletes" 1 r.Xmerge.Batch_update.deletes;
  check Alcotest.int "mixed replaces" 1 r.Xmerge.Batch_update.replaces;
  check Alcotest.int "mixed unmatched" 1 r.Xmerge.Batch_update.unmatched_deletes;
  check tree_eq "mixed result" (parse {|<r><a id="2"><b/></a><a id="3"/><a id="4"/></r>|})
    (parse out)

(* Over devices an update is Struct_merge's driver with Batch_update.apply
   as its pass: presorted, fused and unfused, it writes the string
   reference's bytes and counts the same markers. *)
let test_update_devices_match_strings () =
  let base = {|<r><a id="3"/><a id="1"><x/></a>t<a id="2"/></r>|} in
  let updates =
    {|<r><a id="4"/><a id="2" __op="replace"><b/></a><a id="1" __op="delete"/><a id="8" __op="delete"/></r>|}
  in
  let expected, er = apply base updates in
  let counts (r : Xmerge.Batch_update.report) = [ r.deletes; r.replaces; r.unmatched_deletes ] in
  let bs = config.Nexsort.Config.block_size in
  let run base updates f =
    let output = Extmem.Device.in_memory ~block_size:bs () in
    let r =
      f ~left:(Extmem.Device.of_string ~block_size:bs base)
        ~right:(Extmem.Device.of_string ~block_size:bs updates) ~output
    in
    check Alcotest.string "same bytes" expected (Extmem.Device.contents output);
    check Alcotest.(list int) "same counts" (counts er) (counts r)
  in
  let pass = Xmerge.Batch_update.apply and ordering = by_id in
  List.iter
    (fun fuse ->
      run base updates (fun ~left ~right ~output ->
          Engine.with_session_pair config (fun sessions ->
              Xmerge.Struct_merge.sort_and_merge_devices ~fuse ~sessions ~pass ~ordering ~left
                ~right ~output ())))
    [ true; false ];
  let sorted s = fst (Engine.sort_string ~config ~ordering s) in
  run (sorted base) (sorted updates) (fun ~left ~right ~output ->
      Xmerge.Struct_merge.merge_devices ~pass ~ordering ~left ~right ~output ())

(* ------------------------------------------------------------------ *)
(* Ingest: incremental maintenance *)

let ingest_config = Nexsort.Config.make ~block_size:128 ~memory_blocks:8 ()

let test_ingest_basic () =
  let t =
    Xmerge.Ingest.create ~config:ingest_config ~ordering:by_id
      ~base:{|<r><a id="3"><n>c</n></a><a id="1"><n>a</n></a></r>|} ()
  in
  Fun.protect
    ~finally:(fun () -> Xmerge.Ingest.destroy t)
    (fun () ->
      check Alcotest.string "base sorted"
        {|<r><a id="1"><n>a</n></a><a id="3"><n>c</n></a></r>|}
        (Xmerge.Ingest.contents t);
      check Alcotest.int "index built" 2 (Xmerge.Ingest.index_keys t);
      Xmerge.Ingest.add_update t {|<r><a id="2"><n>b</n></a></r>|};
      Xmerge.Ingest.add_update t {|<r><a id="3" __op="delete"/></r>|};
      check Alcotest.int "pending" 2 (Xmerge.Ingest.pending t);
      let r = Xmerge.Ingest.flush t in
      check Alcotest.int "batch ops" 2 r.Xmerge.Ingest.batch_ops;
      check Alcotest.int "batch docs" 2 r.Xmerge.Ingest.batch_docs;
      check Alcotest.bool "not skipped" false r.Xmerge.Ingest.skipped;
      (match r.Xmerge.Ingest.merge with
      | Some m -> check Alcotest.int "delete applied" 1 m.Xmerge.Batch_update.deletes
      | None -> Alcotest.fail "expected a merge report");
      check Alcotest.string "after flush"
        {|<r><a id="1"><n>a</n></a><a id="2"><n>b</n></a></r>|}
        (Xmerge.Ingest.contents t);
      check Alcotest.int "pending drained" 0 (Xmerge.Ingest.pending t))

let test_ingest_index_drops_absent_deletes () =
  let t =
    Xmerge.Ingest.create ~config:ingest_config ~ordering:by_id
      ~base:{|<r><a id="1"/><a id="2"/></r>|} ()
  in
  Fun.protect
    ~finally:(fun () -> Xmerge.Ingest.destroy t)
    (fun () ->
      Xmerge.Ingest.add_update t {|<r><a id="7" __op="delete"/><a id="9" __op="delete"/></r>|};
      let r = Xmerge.Ingest.flush t in
      check Alcotest.bool "skipped" true r.Xmerge.Ingest.skipped;
      check Alcotest.int "all dropped" 2 r.Xmerge.Ingest.index_dropped;
      check Alcotest.int "no io"
        0
        (r.Xmerge.Ingest.flush_io.Extmem.Io_stats.reads
        + r.Xmerge.Ingest.flush_io.Extmem.Io_stats.writes);
      (* a delete of a key an earlier op in the same batch creates must
         NOT be dropped: the upsert matters, and so does its deletion *)
      Xmerge.Ingest.add_update t {|<r><a id="7"><n>x</n></a></r>|};
      Xmerge.Ingest.add_update t {|<r><a id="7" __op="delete"/></r>|};
      let r = Xmerge.Ingest.flush t in
      check Alcotest.int "created-then-deleted not index-dropped" 0 r.Xmerge.Ingest.index_dropped;
      check Alcotest.string "net no-op" {|<r><a id="1"/><a id="2"/></r>|}
        (Xmerge.Ingest.contents t);
      check Alcotest.bool "offset of id=1 known" true
        (Xmerge.Ingest.find_offset t (Nexsort.Key.of_string "1") <> None);
      check Alcotest.bool "offset of absent key unknown" true
        (Xmerge.Ingest.find_offset t (Nexsort.Key.of_string "9") = None))

let test_ingest_empty_flush_is_noop () =
  let t = Xmerge.Ingest.create ~config:ingest_config ~ordering:by_id ~base:{|<r><a id="1"/></r>|} () in
  Fun.protect
    ~finally:(fun () -> Xmerge.Ingest.destroy t)
    (fun () ->
      let r = Xmerge.Ingest.flush t in
      check Alcotest.bool "skipped" true r.Xmerge.Ingest.skipped;
      check Alcotest.int "no ops" 0 r.Xmerge.Ingest.batch_ops;
      check Alcotest.string "unchanged" {|<r><a id="1"/></r>|} (Xmerge.Ingest.contents t))

let test_ingest_rejects_malformed () =
  let t = Xmerge.Ingest.create ~config:ingest_config ~ordering:by_id ~base:{|<r><a id="1"/></r>|} () in
  Fun.protect
    ~finally:(fun () -> Xmerge.Ingest.destroy t)
    (fun () ->
      (match Xmerge.Ingest.add_update t "<r><a id=" with
      | () -> Alcotest.fail "expected a parse error"
      | exception (Xmlio.Tree.Malformed _ | Xmlio.Parser.Error _) -> ());
      (match Xmerge.Ingest.add_update t {|<r __op="delete"/>|} with
      | () -> Alcotest.fail "expected rejection of a root marker"
      | exception Invalid_argument _ -> ());
      check Alcotest.int "queue unchanged" 0 (Xmerge.Ingest.pending t))

(* Any partition of an edit script into flush batches produces the same
   document as applying the script one update at a time through the full
   sort-and-apply oracle.  Payloads include texts, equal and unequal
   across documents, and unkeyed elements, at the root and inside
   records: those are matched positionally, so documents that feed one
   Null run go to separate merge passes. *)
let prop_ingest_partition_invariant =
  QCheck.Test.make ~name:"any flush partition matches sequential oracle" ~count:60
    QCheck.(
      let op_gen =
        Gen.(
          pair (int_range 0 9) (int_range 0 8) >|= fun (id, kind) ->
          let id = string_of_int id in
          match kind with
          | 0 | 1 ->
              Printf.sprintf {|<a id="%s" v="u%s"/>|} id id (* attr upsert *)
          | 2 -> Printf.sprintf {|<a id="%s"><m k="m%s"/></a>|} id id (* nested upsert *)
          | 3 -> Printf.sprintf {|<a id="%s" __op="delete"/>|} id
          | 4 -> Printf.sprintf {|<a id="%s" __op="replace"><n>r%s</n></a>|} id id
          | 5 -> Printf.sprintf {|<a id="%s">t<n k="%s"/>u%s</a>|} id id id (* texts, unkeyed child *)
          | 6 -> Printf.sprintf {|<a id="%s">same</a>|} id
          | 7 -> Printf.sprintf {|<x v="%s"/>|} id (* an unkeyed root child *)
          | _ -> Printf.sprintf {|<a id="%s">t%s<n __op="delete"/></a>|} id id (* marker below text *))
      in
      (* distinct ids within a doc: duplicate sibling keys inside one
         update document are ill-formed (Struct_merge emits them as
         duplicate siblings), not an ingest-foldable script *)
      let doc_gen =
        Gen.(
          list_size (int_range 1 4) op_gen >|= fun ops ->
          let seen = Hashtbl.create 8 in
          let ops =
            List.filter
              (fun op ->
                let id = List.nth (String.split_on_char '"' op) 1 in
                if Hashtbl.mem seen id then false
                else begin
                  Hashtbl.add seen id ();
                  true
                end)
              ops
          in
          "<r>" ^ String.concat "" ops ^ "</r>")
      in
      let script_gen =
        Gen.(
          pair
            (list_size (int_range 1 8) doc_gen)
            (list_size (int_range 1 8) bool) (* flush after doc i? *)
        )
      in
      make
        ~print:(fun (docs, cuts) ->
          Printf.sprintf "docs:\n%s\ncuts: %s" (String.concat "\n" docs)
            (String.concat "" (List.map (fun b -> if b then "|" else ".") cuts)))
        script_gen)
    (fun (docs, cuts) ->
      let base =
        {|<r><x/>hello<a id="2"><n>b2</n>same</a><a id="5"><n>b5</n></a><a id="8"><n>b8</n></a></r>|}
      in
      let oracle =
        List.fold_left
          (fun acc doc -> fst (apply acc doc))
          (fst (Engine.sort_string ~config:ingest_config ~ordering:by_id base))
          docs
      in
      let t = Xmerge.Ingest.create ~config:ingest_config ~ordering:by_id ~base () in
      Fun.protect
        ~finally:(fun () -> Xmerge.Ingest.destroy t)
        (fun () ->
          List.iteri
            (fun i doc ->
              Xmerge.Ingest.add_update t doc;
              let cut = match List.nth_opt cuts i with Some b -> b | None -> false in
              if cut then ignore (Xmerge.Ingest.flush t))
            docs;
          ignore (Xmerge.Ingest.flush t);
          let got = Xmerge.Ingest.contents t in
          if not (String.equal oracle got) then
            QCheck.Test.fail_reportf "oracle:@.%s@.ingest:@.%s" oracle got
          else true))

(* The positional index against its definition: re-parse the base and
   record the parser offset just after each top-level start tag, the
   last occurrence of a key winning. *)
let reparse_offsets doc =
  let p =
    Xmlio.Parser.of_reader
      (Extmem.Block_reader.of_device (Extmem.Device.of_string ~block_size:128 doc))
  in
  let rec go depth acc =
    match Xmlio.Parser.next p with
    | None -> List.rev acc
    | Some (Xmlio.Event.Start (name, attrs)) ->
        let acc =
          if depth <> 1 then acc
          else
            let key = Option.get (Ordering.key_of_start by_id name attrs) in
            let off = Xmlio.Parser.offset p in
            (key, off) :: List.filter (fun (k, _) -> not (Key.equal k key)) acc
        in
        go (depth + 1) acc
    | Some (Xmlio.Event.End _) -> go (depth - 1) acc
    | Some (Xmlio.Event.Text _) -> go depth acc
  in
  go 0 []

let index_mismatch t =
  let want = reparse_offsets (Xmerge.Ingest.contents t) in
  let show = function Some o -> string_of_int o | None -> "none" in
  match
    List.find_opt (fun (k, off) -> Xmerge.Ingest.find_offset t k <> Some off) want
  with
  | Some (k, off) ->
      Some
        (Printf.sprintf "key %s: index %s, re-parse %d" (Key.to_string k)
           (show (Xmerge.Ingest.find_offset t k)) off)
  | None ->
      if List.length want = Xmerge.Ingest.index_keys t then None
      else
        Some
          (Printf.sprintf "index holds %d keys, re-parse %d" (Xmerge.Ingest.index_keys t)
             (List.length want))

let check_index what t =
  match index_mismatch t with
  | None -> ()
  | Some msg -> Alcotest.failf "%s: %s" what msg

let test_ingest_null_keyed_before_text () =
  let t = Xmerge.Ingest.create ~config:ingest_config ~ordering:by_id ~base:null_run_base () in
  Fun.protect
    ~finally:(fun () -> Xmerge.Ingest.destroy t)
    (fun () ->
      check Alcotest.string "base sorted" null_run_base (Xmerge.Ingest.contents t);
      Xmerge.Ingest.add_update t null_run_update;
      check Alcotest.int "one pass" 1 (Xmerge.Ingest.flush t).Xmerge.Ingest.passes;
      check Alcotest.string "after flush" {|<r><a/>hello<b id="2" w="1"/></r>|}
        (Xmerge.Ingest.contents t);
      (* an upsert of the null-keyed element itself, folded with a second
         document touching it *)
      Xmerge.Ingest.add_update t {|<r><a w="1"/></r>|};
      Xmerge.Ingest.add_update t {|<r><a v="2"/></r>|};
      (* both documents feed the root's Null run: one merge pass each *)
      check Alcotest.int "two passes" 2 (Xmerge.Ingest.flush t).Xmerge.Ingest.passes;
      check Alcotest.string "null-keyed upsert" {|<r><a w="1" v="2"/>hello<b id="2" w="1"/></r>|}
        (Xmerge.Ingest.contents t);
      check_index "after flushes" t);
  (* null-keyed siblings of one update keep their document order, so each
     meets its counterpart in the base *)
  let t =
    Xmerge.Ingest.create ~config:ingest_config ~ordering:by_id
      ~base:{|<r><b/><a/>t<c id="1"/></r>|} ()
  in
  Fun.protect
    ~finally:(fun () -> Xmerge.Ingest.destroy t)
    (fun () ->
      Xmerge.Ingest.add_update t {|<r><b w="1"/><a w="2"/></r>|};
      ignore (Xmerge.Ingest.flush t);
      check Alcotest.string "document order" {|<r><b w="1"/><a w="2"/>t<c id="1"/></r>|}
        (Xmerge.Ingest.contents t))

(* A record whose null-keyed child precedes its text, upserted through
   the ingest and through a plain sort-and-merge: the two paths agree
   after every flush, and an identical upsert changes nothing. *)
let test_ingest_text_positions_match_merge () =
  let base = {|<r><rec id="5"><name>x</name>note</rec><rec id="7"/></r>|} in
  let updates =
    [
      {|<r><rec id="5"><name>x</name>note</rec></r>|};
      {|<r><rec id="5"><name>x</name>note</rec></r>|};
      {|<r><rec id="5"><name k="1">x</name>other<tag/></rec></r>|};
      {|<r><rec id="7">t<name/>u</rec></r>|};
    ]
  in
  let t = Xmerge.Ingest.create ~config:ingest_config ~ordering:by_id ~base () in
  Fun.protect
    ~finally:(fun () -> Xmerge.Ingest.destroy t)
    (fun () ->
      let expected =
        List.fold_left
          (fun acc upd ->
            let merged, _ =
              Xmerge.Struct_merge.sort_and_merge_strings ~config ~ordering:by_id acc upd
            in
            Xmerge.Ingest.add_update t upd;
            ignore (Xmerge.Ingest.flush t);
            check Alcotest.string "ingest = merge" merged (Xmerge.Ingest.contents t);
            merged)
          (Xmerge.Ingest.contents t) updates
      in
      check Alcotest.string "final"
        {|<r><rec id="5"><name k="1">x</name>noteother<tag/></rec><rec id="7">t<name/>u</rec></r>|}
        expected)

(* Markers below an element that holds text or has no key: such an
   element travels as one operation, so the texts keep their places and
   same-tag unkeyed siblings stay apart. *)
let test_ingest_markers_in_null_runs () =
  List.iter
    (fun (base, update, want) ->
      let t = Xmerge.Ingest.create ~config:ingest_config ~ordering:by_id ~base () in
      Fun.protect
        ~finally:(fun () -> Xmerge.Ingest.destroy t)
        (fun () ->
          Xmerge.Ingest.add_update t update;
          ignore (Xmerge.Ingest.flush t);
          check Alcotest.string "one document" (fst (apply base update))
            (Xmerge.Ingest.contents t);
          check Alcotest.string "result" want (Xmerge.Ingest.contents t)))
    [
      ({|<r><e>t1<x/>t2</e></r>|}, {|<r><e>t1<x __op="delete"/>t2</e></r>|}, {|<r><e>t1t2</e></r>|});
      ( {|<r><x><a id="1"/></x><x><a id="2"/></x></r>|},
        {|<r><x><a id="1" __op="delete"/></x><x><a id="2" __op="delete"/></x></r>|},
        {|<r><x/><x/></r>|} );
      ( {|<r>t1<x/>t2<a id="1"/></r>|},
        {|<r>t1<x __op="delete"/>t2<a id="1" w="1"/></r>|},
        {|<r>t1t2<a id="1" w="1"/></r>|} );
      ( {|<r><a id="1">t<b id="2"/>u<b id="3"/></a></r>|},
        {|<r><a id="1">t<b id="2" __op="delete"/>u</a></r>|},
        {|<r><a id="1">tu<b id="3"/></a></r>|} );
    ]

(* Numeric keys that agree in their first six digits index apart: the
   two offsets differ, and a delete of the absent 1000003 is dropped. *)
let test_ingest_index_seven_digit_ids () =
  let t =
    Xmerge.Ingest.create ~config:ingest_config ~ordering:by_id
      ~base:{|<r><a id="1000002"/><a id="1000001"/></r>|} ()
  in
  Fun.protect
    ~finally:(fun () -> Xmerge.Ingest.destroy t)
    (fun () ->
      let off id = Xmerge.Ingest.find_offset t (Key.of_string id) in
      check Alcotest.int "two entries" 2 (Xmerge.Ingest.index_keys t);
      check Alcotest.bool "distinct offsets" true (off "1000001" <> off "1000002");
      check_index "after create" t;
      Xmerge.Ingest.add_update t {|<r><a id="1000003" __op="delete"/></r>|};
      let r = Xmerge.Ingest.flush t in
      check Alcotest.bool "skipped" true r.Xmerge.Ingest.skipped;
      check Alcotest.int "index-dropped" 1 r.Xmerge.Ingest.index_dropped;
      check Alcotest.int "no io" 0 (Extmem.Io_stats.total r.Xmerge.Ingest.flush_io))

(* Random edit scripts over a base with self-closing top-level elements
   (the "/>" offset case) and duplicate top-level keys: after [create]
   and after every flush, the index built in the writing pass must equal
   a re-parse of the base. *)
let prop_ingest_index_matches_reparse =
  QCheck.Test.make ~name:"ingest index = re-parse after every flush" ~count:60
    QCheck.(
      let ids = [| "1"; "2"; "5"; "1000001"; "1000002"; "x" |] in
      let id_gen = Gen.(map (fun i -> ids.(i)) (int_bound (Array.length ids - 1))) in
      let top_gen =
        Gen.(
          pair id_gen (int_bound 3) >|= fun (id, kind) ->
          match kind with
          | 0 -> Printf.sprintf {|<a id="%s"/>|} id
          | 1 -> Printf.sprintf {|<b id="%s"><n>t%s</n></b>|} id id
          | 2 -> Printf.sprintf {|<a id="%s">text</a>|} id
          | _ -> Printf.sprintf {|<a id="%s" w="1"><m/><m/></a>|} id)
      in
      let op_gen =
        Gen.(
          pair id_gen (int_bound 4) >|= fun (id, kind) ->
          ( id,
            match kind with
            | 0 -> Printf.sprintf {|<a id="%s" v="u"/>|} id
            | 1 -> Printf.sprintf {|<a id="%s"><m k="%s"/></a>|} id id
            | 2 -> Printf.sprintf {|<a id="%s" __op="delete"/>|} id
            | 3 -> Printf.sprintf {|<b id="%s" __op="delete"/>|} id
            | _ -> Printf.sprintf {|<a id="%s" __op="replace"/>|} id ))
      in
      let doc_gen =
        Gen.(
          list_size (int_range 1 3) op_gen >|= fun ops ->
          let rec dedup seen = function
            | [] -> []
            | (id, op) :: rest ->
                if List.mem id seen then dedup seen rest else op :: dedup (id :: seen) rest
          in
          "<r>" ^ String.concat "" (dedup [] ops) ^ "</r>")
      in
      make
        ~print:(fun (base, docs, cuts) ->
          Printf.sprintf "base: %s\ndocs:\n%s\ncuts: %s" base (String.concat "\n" docs)
            (String.concat "" (List.map (fun b -> if b then "|" else ".") cuts)))
        Gen.(
          triple
            (list_size (int_range 0 8) top_gen >|= fun tops -> "<r>" ^ String.concat "" tops ^ "</r>")
            (list_size (int_range 1 8) doc_gen)
            (list_size (int_range 1 8) bool)))
    (fun (base, docs, cuts) ->
      let t = Xmerge.Ingest.create ~config:ingest_config ~ordering:by_id ~base () in
      Fun.protect
        ~finally:(fun () -> Xmerge.Ingest.destroy t)
        (fun () ->
          let verify what =
            match index_mismatch t with
            | None -> ()
            | Some msg ->
                QCheck.Test.fail_reportf "%s: %s@.base now:@.%s" what msg
                  (Xmerge.Ingest.contents t)
          in
          verify "after create";
          List.iteri
            (fun i doc ->
              Xmerge.Ingest.add_update t doc;
              if Option.value (List.nth_opt cuts i) ~default:false then begin
                ignore (Xmerge.Ingest.flush t);
                verify (Printf.sprintf "after doc %d" i)
              end)
            docs;
          ignore (Xmerge.Ingest.flush t);
          verify "after the last flush";
          true))

let ingest_records n =
  "<r>"
  ^ String.concat ""
      (List.init n (fun i -> Printf.sprintf {|<a id="%d"><n>record %d</n></a>|} (n - i) i))
  ^ "</r>"

(* Base and index are swapped in together only after the merge: a flush
   that faults leaves the old contents and the old offsets. *)
let test_ingest_failed_flush_keeps_generation () =
  let base = ingest_records 20 in
  let failed = ref 0 in
  for seed = 0 to 49 do
    let config =
      (* memory enough to sort in memory, so most faults land in flushes *)
      Nexsort.Config.make ~block_size:128 ~memory_blocks:64
        ~device:(Extmem.Device_spec.parse (Printf.sprintf "faulty:p=0.05,seed=%d/mem" seed))
        ()
    in
    match Xmerge.Ingest.create ~config ~ordering:by_id ~base () with
    | exception Extmem.Device.Fault _ -> ()
    | t ->
        Fun.protect
          ~finally:(fun () -> Xmerge.Ingest.destroy t)
          (fun () ->
            let before = Xmerge.Ingest.contents t in
            let offsets = reparse_offsets before in
            let index_dev = Xmerge.Ingest.index_device t in
            Xmerge.Ingest.add_update t {|<r><a id="5" __op="delete"/><a id="100"/></r>|};
            match Xmerge.Ingest.flush t with
            | _ -> ()
            | exception Extmem.Device.Fault _ ->
                incr failed;
                check Alcotest.string "old contents" before (Xmerge.Ingest.contents t);
                check Alcotest.bool "old index device" true
                  (Xmerge.Ingest.index_device t == index_dev);
                List.iter
                  (fun (k, off) ->
                    check (Alcotest.option Alcotest.int) "old offset" (Some off)
                      (Xmerge.Ingest.find_offset t k))
                  offsets)
  done;
  check Alcotest.bool "some flush faulted" true (!failed > 0)

(* Each flush loads its index onto a fresh device: after 20 flushes the
   index device holds exactly what a fresh build over the same base
   holds, not 20 generations. *)
let test_ingest_index_one_generation () =
  let t = Xmerge.Ingest.create ~config:ingest_config ~ordering:by_id ~base:(ingest_records 30) () in
  Fun.protect
    ~finally:(fun () -> Xmerge.Ingest.destroy t)
    (fun () ->
      for i = 1 to 20 do
        Xmerge.Ingest.add_update t
          (Printf.sprintf {|<r><a id="%d" __op="delete"/><a id="%d"/></r>|} i (100 + i));
        let r = Xmerge.Ingest.flush t in
        check Alcotest.bool "merged" false r.Xmerge.Ingest.skipped;
        check_index (Printf.sprintf "after flush %d" i) t
      done;
      let fresh =
        Xmerge.Ingest.create ~config:ingest_config ~ordering:by_id
          ~base:(Xmerge.Ingest.contents t) ()
      in
      Fun.protect
        ~finally:(fun () -> Xmerge.Ingest.destroy fresh)
        (fun () ->
          check Alcotest.int "one generation of index blocks"
            (Extmem.Device.block_count (Xmerge.Ingest.index_device fresh))
            (Extmem.Device.block_count (Xmerge.Ingest.index_device t))))

(* ------------------------------------------------------------------ *)

let () =
  Alcotest.run "xmerge"
    [
      ( "struct_merge",
        [
          Alcotest.test_case "figure 1" `Quick test_merge_figure_1;
          Alcotest.test_case "disjoint outer join" `Quick test_merge_disjoint;
          Alcotest.test_case "attribute union" `Quick test_merge_attr_union;
          Alcotest.test_case "text policy" `Quick test_merge_text_policy;
          Alcotest.test_case "null-keyed element before text" `Quick
            test_merge_null_keyed_before_text;
          Alcotest.test_case "rejects unsorted" `Quick test_merge_rejects_unsorted;
          Alcotest.test_case "rejects subtree ordering" `Quick test_merge_rejects_subtree_ordering;
          Alcotest.test_case "mismatched roots" `Quick test_merge_mismatched_roots;
          Alcotest.test_case "devices single pass" `Quick test_merge_devices_single_pass;
          Alcotest.test_case "fused sort+merge matches unfused" `Quick
            test_sort_and_merge_fused_matches_unfused;
          Alcotest.test_case "fused device sort+merge" `Quick
            test_sort_and_merge_devices_fused_saves_io;
          qcheck prop_merge_equals_reference;
          qcheck prop_merge_output_sorted;
        ] );
      ( "naive_merge",
        [
          Alcotest.test_case "small" `Quick test_naive_merge_small;
          Alcotest.test_case "agrees with sort-merge" `Quick test_naive_merge_agrees_with_sort_merge;
          Alcotest.test_case "io pattern" `Quick test_naive_merge_io_pattern;
          Alcotest.test_case "rejects fancy markup" `Quick test_naive_merge_rejects_fancy_markup;
          Alcotest.test_case "indexed matches naive" `Quick test_indexed_merge_matches_naive;
          Alcotest.test_case "indexed reads right less" `Quick test_indexed_merge_reads_right_less;
          Alcotest.test_case "indexed pager counters" `Quick test_indexed_merge_pager_counters;
          Alcotest.test_case "indexed merge counts its frames" `Quick
            test_indexed_merge_counts_frames;
        ] );
      ( "batch_update",
        [
          Alcotest.test_case "upsert" `Quick test_update_upsert;
          Alcotest.test_case "delete" `Quick test_update_delete;
          Alcotest.test_case "delete missing is noop" `Quick test_update_delete_missing_is_noop;
          Alcotest.test_case "replace" `Quick test_update_replace;
          Alcotest.test_case "marker stripped" `Quick test_update_marker_stripped;
          Alcotest.test_case "result stays sorted" `Quick test_update_result_stays_sorted;
          Alcotest.test_case "report counters" `Quick test_update_report_counters;
          Alcotest.test_case "device path matches strings" `Quick
            test_update_devices_match_strings;
        ] );
      ( "ingest",
        [
          Alcotest.test_case "basic" `Quick test_ingest_basic;
          Alcotest.test_case "null-keyed element before text" `Quick
            test_ingest_null_keyed_before_text;
          Alcotest.test_case "text positions match the merge" `Quick
            test_ingest_text_positions_match_merge;
          Alcotest.test_case "markers in Null runs" `Quick test_ingest_markers_in_null_runs;
          Alcotest.test_case "index drops absent deletes" `Quick
            test_ingest_index_drops_absent_deletes;
          Alcotest.test_case "empty flush" `Quick test_ingest_empty_flush_is_noop;
          Alcotest.test_case "rejects malformed" `Quick test_ingest_rejects_malformed;
          qcheck prop_ingest_partition_invariant;
          Alcotest.test_case "seven-digit ids index apart" `Quick
            test_ingest_index_seven_digit_ids;
          qcheck prop_ingest_index_matches_reparse;
          Alcotest.test_case "failed flush keeps the old generation" `Quick
            test_ingest_failed_flush_keeps_generation;
          Alcotest.test_case "index holds one generation" `Quick
            test_ingest_index_one_generation;
        ] );
      ( "seqnum",
        [
          Alcotest.test_case "roundtrip" `Quick test_seqnum_roundtrip;
          Alcotest.test_case "order through merge" `Quick test_seqnum_preserves_order_through_merge;
          Alcotest.test_case "rejects reserved" `Quick test_seqnum_rejects_reserved;
          qcheck prop_seqnum_restores_any_document;
        ] );
      ( "generators",
        [
          Alcotest.test_case "exact shape" `Quick test_gen_exact_shape;
          Alcotest.test_case "table 2 sizes" `Quick test_gen_exact_shape_table2;
          Alcotest.test_case "random shape bounds" `Quick test_gen_random_shape_bounds;
          Alcotest.test_case "deterministic" `Quick test_gen_deterministic;
          Alcotest.test_case "average element size" `Quick test_gen_avg_bytes;
          Alcotest.test_case "to device" `Quick test_gen_to_device;
          Alcotest.test_case "company pair" `Quick test_company_pair_mergeable;
          Alcotest.test_case "splitmix" `Quick test_splitmix_determinism;
        ] );
    ]
