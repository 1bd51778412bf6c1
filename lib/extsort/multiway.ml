(* The heap stores stream indices (unboxed); each stream's head record
   lives in [cur], so no (record, index) pair is allocated per step. *)
let make_heap ~cmp ~inputs =
  let k = Array.length inputs in
  let cur = Array.make k "" in
  let less i j =
    let c = cmp cur.(i) cur.(j) in
    if c <> 0 then c < 0 else i < j
  in
  let h = Heap.create ~less in
  Array.iteri
    (fun i next ->
      match next () with
      | Some r ->
          cur.(i) <- r;
          Heap.push h i
      | None -> ())
    inputs;
  (h, cur)

let merge ~cmp ~inputs ~output () =
  let h, cur = make_heap ~cmp ~inputs in
  while not (Heap.is_empty h) do
    let i = Heap.pop h in
    output cur.(i);
    match inputs.(i) () with
    | Some r' ->
        cur.(i) <- r';
        Heap.push h i
    | None -> ()
  done

let merge_pull ~lease ~cmp ~inputs () =
  let release () = Extmem.Frame_arena.close_lease lease in
  (* the first reads may fault: the lease must not outlive them *)
  let h, cur =
    try make_heap ~cmp ~inputs
    with e ->
      release ();
      raise e
  in
  let pull () =
    if Heap.is_empty h then begin
      release ();
      None
    end
    else begin
      let i = Heap.pop h in
      let r = cur.(i) in
      (match inputs.(i) () with
      | Some r' ->
          cur.(i) <- r';
          Heap.push h i
      | None -> ());
      Some r
    end
  in
  (pull, release)
