(* Example 1.1 of the paper, end to end: merging the personnel and
   payroll documents of a company.

   Run with:  dune exec examples/merge_payroll.exe

   The naive nested-loop approach touches elements in an order that has
   nothing to do with how the documents sit on disk.  The sort-merge
   approach — NEXSORT both documents under the matching criterion, then a
   single simultaneous pass — is what the paper advocates.  This example
   runs it on generated documents large enough to be interesting and
   verifies employees got both their personnel and payroll data. *)

let () =
  (* Two documents over the same org structure, in unrelated orders:
     D1 has <name>/<phone> per employee, D2 has <salary>/<bonus>. *)
  let pair =
    Xmlgen.Company.generate ~seed:2026 ~regions:4 ~branches_per_region:3
      ~employees_per_branch:8 ~overlap:0.6 ()
  in
  Printf.printf "D1 (personnel): %d bytes, D2 (payroll): %d bytes\n"
    (String.length pair.Xmlgen.Company.personnel)
    (String.length pair.Xmlgen.Company.payroll);

  let ordering = Xmlgen.Company.ordering in
  let config = Nexsort.Config.make ~block_size:512 ~memory_blocks:16 () in

  (* Sort both inputs... *)
  let d1_sorted, r1 = Engine.sort_string ~config ~ordering pair.Xmlgen.Company.personnel in
  let d2_sorted, r2 = Engine.sort_string ~config ~ordering pair.Xmlgen.Company.payroll in
  Printf.printf "sorted D1 with %d subtree sorts, D2 with %d\n" r1.Nexsort.subtree_sorts
    r2.Nexsort.subtree_sorts;

  (* ...then merge them in one pass over device-resident documents, so we
     can see the single-pass I/O cost. *)
  let bs = 512 in
  let left = Extmem.Device.of_string ~block_size:bs d1_sorted in
  let right = Extmem.Device.of_string ~block_size:bs d2_sorted in
  let output = Extmem.Device.in_memory ~block_size:bs () in
  let report =
    Xmerge.Struct_merge.merge_devices ~pass:Xmerge.Struct_merge.merge ~ordering ~left ~right
      ~output ()
  in
  Printf.printf "merge: matched %d elements; read %d + %d blocks, wrote %d blocks\n"
    report.Xmerge.Struct_merge.matched_elements
    (Extmem.Device.stats left).Extmem.Io_stats.reads
    (Extmem.Device.stats right).Extmem.Io_stats.reads
    (Extmem.Device.stats output).Extmem.Io_stats.writes;

  (* Check the join: every employee present in both inputs must now carry
     all four fields. *)
  let merged = Xmlio.Tree.of_string (Extmem.Device.contents output) in
  let complete = ref 0 and total = ref 0 in
  let rec walk = function
    | Xmlio.Tree.Text _ -> ()
    | Xmlio.Tree.Element e ->
        if e.Xmlio.Tree.name = "employee" then begin
          incr total;
          let child_names =
            List.filter_map
              (function Xmlio.Tree.Element c -> Some c.Xmlio.Tree.name | _ -> None)
              e.Xmlio.Tree.children
          in
          let has n = List.mem n child_names in
          if has "name" && has "phone" && has "salary" && has "bonus" then incr complete
        end;
        List.iter walk e.Xmlio.Tree.children
  in
  walk merged;
  Printf.printf "employees in merged document: %d, with full records: %d\n" !total !complete;
  assert (!complete > 0);
  (* the merged document is itself sorted: it can be merged again *)
  assert (Baselines.Tree_sort.sorted ordering merged);
  print_endline "merged document is sorted: OK"
