(* Depth-limited sorting (§3.2 of the paper).

   Run with:  dune exec examples/depth_limited.exe

   When merging two documents the user may know a depth below which no
   overlap is possible — sorting further is wasted work.  NEXSORT's depth
   limit stops the recursion at level d: deeper subtrees are still placed
   correctly relative to the rest of the document but keep their internal
   document order.  This example sorts the same document head-to-toe and
   with d = 2, and shows the I/O difference. *)

let () =
  (* a 4-level document: regions / branches / employees / fields *)
  let doc, stats =
    Xmlgen.Gen.to_string (fun sink ->
        Xmlgen.Gen.exact_shape ~seed:99 ~avg_bytes:80 ~fanouts:[ 8; 8; 8 ] sink)
  in
  Printf.printf "document: %d elements, height %d, %d bytes\n" stats.Xmlgen.Gen.elements
    stats.Xmlgen.Gen.height stats.Xmlgen.Gen.bytes;
  let ordering = Nexsort.Ordering.by_attr "id" in
  let run label config =
    let sorted, report = Engine.sort_string ~config ~ordering doc in
    Printf.printf "%-12s total I/O = %4d blocks, subtree sorts = %d\n" label
      (Extmem.Io_stats.total report.Nexsort.total_io)
      report.Nexsort.subtree_sorts;
    sorted
  in
  let full = run "head-to-toe" (Nexsort.Config.make ~block_size:512 ~memory_blocks:8 ()) in
  let limited =
    run "depth 2"
      (Nexsort.Config.make ~block_size:512 ~memory_blocks:8 ~depth_limit:2 ())
  in
  (* levels 1-2 agree between the two outputs; level-3 subtrees in the
     depth-limited output keep their original document order *)
  let full_t = Xmlio.Tree.of_string full in
  let limited_t = Xmlio.Tree.of_string limited in
  assert (Baselines.Tree_sort.sorted ~depth_limit:2 ordering limited_t);
  assert (Baselines.Tree_sort.sorted ordering full_t);
  (* top-two-level structure is identical *)
  let top_keys t =
    match t with
    | Xmlio.Tree.Element e ->
        List.filter_map
          (function
            | Xmlio.Tree.Element c -> List.assoc_opt "id" c.Xmlio.Tree.attrs
            | Xmlio.Tree.Text _ -> None)
          e.Xmlio.Tree.children
    | Xmlio.Tree.Text _ -> []
  in
  assert (top_keys full_t = top_keys limited_t);
  print_endline "depth-limited output: top levels sorted, deep levels untouched: OK"
