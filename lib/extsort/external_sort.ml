type stats = {
  records : int;
  bytes : int;
  initial_runs : int;
  merge_passes : int;
}

type run_formation =
  [ `Load_sort
  | `Replacement_selection
  ]

(* Per-record arena overhead: OCaml string header + container slot,
   approximated as two words.  The exact constant only shifts where runs
   are cut. *)
let record_overhead = 16

(* Run-writer and run-reader block buffers come from the frame arena's
   pool; the covering reservation is the caller's lease (run formation,
   merge fan-in, ...), so pool traffic itself is not an accounting op. *)
let write_run fa store fill =
  let buffer = Extmem.Frame_arena.take fa (Extmem.Device.block_size (Extmem.Run_store.device store)) in
  let w = Extmem.Run_store.begin_run ~buffer store in
  fill (Extmem.Block_writer.write_record w);
  let id = Extmem.Run_store.finish_run store w in
  Extmem.Frame_arena.give fa buffer;
  id

(* ---- run formation: load, sort, store ---- *)

(* Both run formations return [Ok run_ids] after spilling, or [Error
   next] when the whole input fit in the arena (no temp I/O at all):
   [next] pulls the records in order from memory. *)
let load_sort_runs ~fa ~arena_capacity ~store ~cmp ~input ~count =
  let arena = Extmem.Vec.create () in
  let arena_bytes = ref 0 in
  let run_ids = ref [] in
  let flush () =
    if not (Extmem.Vec.is_empty arena) then begin
      Extmem.Vec.sort cmp arena;
      run_ids := write_run fa store (fun emit -> Extmem.Vec.iter emit arena) :: !run_ids;
      Extmem.Vec.clear arena;
      arena_bytes := 0
    end
  in
  let rec fill () =
    match input () with
    | None -> ()
    | Some r ->
        count r;
        let sz = String.length r + record_overhead in
        if !arena_bytes + sz > arena_capacity && not (Extmem.Vec.is_empty arena) then flush ();
        Extmem.Vec.push arena r;
        arena_bytes := !arena_bytes + sz;
        fill ()
  in
  fill ();
  if !run_ids = [] then begin
    Extmem.Vec.sort cmp arena;
    let idx = ref (-1) in
    Error
      (fun () ->
        incr idx;
        if !idx < Extmem.Vec.length arena then Some (Extmem.Vec.get arena !idx) else None)
  end
  else begin
    flush ();
    Ok (List.rev !run_ids)
  end

(* ---- run formation: replacement selection ----

   The classic heap-based scheme: pop the smallest record into the current
   run; an incoming record joins the current run's heap if it is not
   smaller than the last record written, otherwise it waits (still in
   memory) for the next run.  On random input runs come out about twice
   the arena size, halving the run count and often saving a merge pass. *)
let replacement_selection_runs ~fa ~arena_capacity ~store ~cmp ~input ~count =
  let less a b = cmp a b < 0 in
  let current = Heap.create ~less in
  let pending = Extmem.Vec.create () in
  let in_memory = ref 0 in
  let size_of r = String.length r + record_overhead in
  let exhausted = ref false in
  let read () =
    match input () with
    | None ->
        exhausted := true;
        None
    | Some r ->
        count r;
        Some r
  in
  (* prime the heap *)
  let rec prime () =
    if !in_memory < arena_capacity && not !exhausted then begin
      match read () with
      | Some r ->
          Heap.push current r;
          in_memory := !in_memory + size_of r;
          prime ()
      | None -> ()
    end
  in
  prime ();
  if !exhausted then (* everything fits: drain the heap *)
    Error (fun () -> if Heap.length current = 0 then None else Some (Heap.pop current))
  else begin
    let run_ids = ref [] in
    while Heap.length current > 0 do
      let rec produce emit =
        if Heap.length current > 0 then begin
          let m = Heap.pop current in
          emit m;
          in_memory := !in_memory - size_of m;
          (* refill while there is room *)
          let rec refill () =
            if !in_memory < arena_capacity && not !exhausted then begin
              match read () with
              | Some r ->
                  in_memory := !in_memory + size_of r;
                  if cmp r m >= 0 then Heap.push current r else Extmem.Vec.push pending r;
                  refill ()
              | None -> ()
            end
          in
          refill ();
          produce emit
        end
      in
      run_ids := write_run fa store produce :: !run_ids;
      (* the pending records seed the next run *)
      Extmem.Vec.iter (Heap.push current) pending;
      Extmem.Vec.clear pending
    done;
    Ok (List.rev !run_ids)
  end

(* ---- merging ---- *)

let open_inputs fa store ids =
  let bs = Extmem.Device.block_size (Extmem.Run_store.device store) in
  Array.of_list
    (List.map
       (fun id ->
         let buffer = Extmem.Frame_arena.take fa bs in
         let reader = Extmem.Run_store.open_run ~buffer store id in
         fun () -> Extmem.Block_reader.read_record reader)
       ids)

(* ---- the pass driver ---- *)

(* A merge over [free] blocks: its readers, and one block for its output. *)
let fan_in free = max 2 (free - 1)

let rec passes_needed ~width ~target n =
  if n <= target then 0 else 1 + passes_needed ~width ~target ((n + width - 1) / width)

(* Merge [width] runs at a time until at most [target] remain; each
   batch holds its readers and its output run's block under [who]. *)
let reduce ~arena ~who ~width ~target ~merge runs =
  let rec batches = function
    | [] -> []
    | runs ->
        let rec take k acc = function
          | rest when k = 0 -> (List.rev acc, rest)
          | [] -> (List.rev acc, [])
          | r :: rest -> take (k - 1) (r :: acc) rest
        in
        let batch, rest = take width [] runs in
        batch :: batches rest
  in
  let merge batch =
    Extmem.Frame_arena.with_lease arena ~who (List.length batch + 1) (fun _ -> merge batch)
  in
  let rec go runs passes =
    if List.length runs <= target then (runs, passes)
    else go (List.map merge (batches runs)) (passes + 1)
  in
  go runs 0

(* ---- the sort ---- *)

type opened = {
  pull : unit -> string option;
  close : unit -> unit;
  stats : stats;
}

let sort_open ?(run_formation = `Load_sort) ?arena ~budget ~temp ~cmp ~input () =
  let fa = match arena with Some a -> a | None -> Extmem.Frame_arena.create ~budget () in
  let bs = Extmem.Memory_budget.block_size budget in
  let blocks = Extmem.Memory_budget.available_blocks budget in
  if blocks < 3 then
    raise
      (Extmem.Memory_budget.Exhausted
         (Printf.sprintf "external sort needs >= 3 blocks, has %d" blocks));
  (* one block is the stream buffer of the run writer / output;
     the rest is the arena during run formation *)
  let arena_capacity = (blocks - 1) * bs in
  let store = Extmem.Run_store.create temp in
  let records = ref 0 in
  let total_bytes = ref 0 in
  let count r =
    incr records;
    total_bytes := !total_bytes + String.length r
  in
  let finish initial_runs merge_passes =
    { records = !records; bytes = !total_bytes; initial_runs; merge_passes }
  in
  let formation = Extmem.Frame_arena.lease fa ~who:"external sort run formation" blocks in
  let form =
    match run_formation with
    | `Load_sort -> load_sort_runs
    | `Replacement_selection -> replacement_selection_runs
  in
  match form ~fa ~arena_capacity ~store ~cmp ~input ~count with
  | exception e ->
      Extmem.Frame_arena.close_lease formation;
      raise e
  | Error next ->
      (* Everything fits: the sorted records stay live until drained, so
         keep their [blocks - 1] leased (the output-buffer block is the
         caller's) and close on close / exhaustion. *)
      Extmem.Frame_arena.shrink formation 1;
      let release () = Extmem.Frame_arena.close_lease formation in
      let pull () =
        match next () with
        | None ->
            release ();
            None
        | r -> r
      in
      { pull; close = release; stats = finish 0 0 }
  | Ok runs ->
      Extmem.Frame_arena.close_lease formation;
      let width = fan_in blocks in
      let merge batch =
        write_run fa store (fun output ->
            Multiway.merge ~cmp ~inputs:(open_inputs fa store batch) ~output ())
      in
      let final_runs, inter =
        reduce ~arena:fa ~who:"external sort merge" ~width ~target:width ~merge runs
      in
      (* Lease the final fan-in first, then draw the readers' buffers
         from the arena pool it covers; the merge assumes ownership of
         the lease and closes it on exhaustion. *)
      let lease =
        Extmem.Frame_arena.lease fa ~who:"external sort final merge" (List.length final_runs)
      in
      let pull, close =
        Multiway.merge_pull ~lease ~cmp ~inputs:(open_inputs fa store final_runs) ()
      in
      { pull; close; stats = finish (List.length runs) (inter + 1) }

let sort ?run_formation ~budget ~temp ~cmp ~input ~output () =
  let fa = Extmem.Frame_arena.create ~budget () in
  let o = sort_open ?run_formation ~arena:fa ~budget ~temp ~cmp ~input () in
  Fun.protect ~finally:o.close (fun () ->
      Extmem.Frame_arena.with_lease fa ~who:"external sort output buffer" 1 @@ fun _ ->
      let rec go () =
        match o.pull () with
        | None -> ()
        | Some r ->
            output r;
            go ()
      in
      go ());
  o.stats
