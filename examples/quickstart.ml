(* Quickstart: fully sort a small XML document with NEXSORT.

   Run with:  dune exec examples/quickstart.exe

   "Fully sorted" means the children of EVERY element are ordered under
   the given criterion — here, regions and branches by their [name]
   attribute and employees by [ID], the running example of the paper. *)

let document =
  {|<company>
      <region name="NW">
        <branch name="Seattle">
          <employee ID="907"><name>Young</name></employee>
          <employee ID="102"><name>Jones</name></employee>
        </branch>
      </region>
      <region name="AC">
        <branch name="Durham">
          <employee ID="454"/>
          <employee ID="323"><name>Smith</name><phone>5552345</phone></employee>
        </branch>
        <branch name="Atlanta"/>
      </region>
    </company>|}

let () =
  (* 1. Describe how siblings should be ordered. *)
  let ordering =
    Nexsort.Ordering.make
      ~rules:
        [
          ("region", Nexsort.Ordering.By_attr "name");
          ("branch", Nexsort.Ordering.By_attr "name");
          ("employee", Nexsort.Ordering.By_attr "ID");
        ]
      Nexsort.Ordering.By_tag
  in
  (* 2. Pick the external-memory parameters.  Tiny values here so even
     this toy document exercises the machinery; defaults are 4 KiB blocks
     and 64 blocks of memory. *)
  let config = Nexsort.Config.make ~block_size:128 ~memory_blocks:8 () in
  (* 3. Sort, as the one job of a one-job engine. *)
  let sorted, report = Engine.sort_string ~config ~ordering document in
  print_endline "--- sorted document ---";
  print_endline (Xmlio.Tree.to_string ~indent:true (Xmlio.Tree.of_string sorted));
  print_endline "--- what happened ---";
  Format.printf "%a@." Nexsort.pp_report report;
  (* 4. The output satisfies the full-sortedness invariant. *)
  assert (Baselines.Tree_sort.sorted ordering (Xmlio.Tree.of_string sorted));
  print_endline "sortedness invariant: OK"
