type report = {
  merge : Struct_merge.report;
  deletes : int;
  replaces : int;
  unmatched_deletes : int;
}

let op_attr = "__op"

let strip_op attrs = List.filter (fun (k, _) -> k <> op_attr) attrs

let apply_events ?io ?tracer ~ordering ~base ~updates ~emit () =
  let deletes = ref 0 in
  let replaces = ref 0 in
  let on_match ~left_attrs:_ ~right_attrs =
    match List.assoc_opt op_attr right_attrs with
    | Some "delete" ->
        incr deletes;
        Struct_merge.Drop
    | Some "replace" ->
        incr replaces;
        Struct_merge.Take_right
    | Some _ | None -> Struct_merge.Merge
  in
  (* Unmatched delete markers come out of the merge as insertions (outer
     join); a post-filter drops those subtrees so deleting a non-existent
     element is a no-op.  The rewrite keeps the delete marker visible to
     the filter and strips every other marker. *)
  let rewrite_attrs attrs =
    match List.assoc_opt op_attr attrs with
    | Some "delete" -> attrs
    | Some _ -> strip_op attrs
    | None -> attrs
  in
  let drop_depth = ref 0 in
  let unmatched_deletes = ref 0 in
  let filtered_emit e =
    if !drop_depth > 0 then begin
      match e with
      | Xmlio.Event.Start _ -> incr drop_depth
      | Xmlio.Event.End _ -> decr drop_depth
      | Xmlio.Event.Text _ -> ()
    end
    else
      match e with
      | Xmlio.Event.Start (_, attrs) when List.assoc_opt op_attr attrs = Some "delete" ->
          incr unmatched_deletes;
          drop_depth := 1
      | e -> emit e
  in
  let merge =
    Struct_merge.merge_events ?io ?tracer ~on_match ~rewrite_attrs ~ordering ~left:base
      ~right:updates ~emit:filtered_emit ()
  in
  { merge; deletes = !deletes; replaces = !replaces; unmatched_deletes = !unmatched_deletes }

let apply ~io ~tracer ~ordering ~left ~right ~emit =
  apply_events ~io ~tracer ~ordering ~base:left ~updates:right ~emit ()

let apply_strings ~ordering ~base ~updates =
  let pb = Xmlio.Parser.of_string base and pu = Xmlio.Parser.of_string updates in
  let buf = Buffer.create (String.length base) in
  let writer = Xmlio.Writer.to_buffer buf in
  let report =
    apply_events ~ordering
      ~base:(fun () -> Xmlio.Parser.next pb)
      ~updates:(fun () -> Xmlio.Parser.next pu)
      ~emit:(Xmlio.Writer.event writer) ()
  in
  Xmlio.Writer.close writer;
  (Buffer.contents buf, report)

let sort_and_apply_strings ?config ~ordering ~base ~updates () =
  let sorted_base, _ = Engine.sort_string ?config ~ordering base in
  let sorted_updates, _ = Engine.sort_string ?config ~ordering updates in
  apply_strings ~ordering ~base:sorted_base ~updates:sorted_updates
