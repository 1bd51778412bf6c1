(* External-memory priority queue: in-memory insert heap under a leased
   byte budget, overflow spilled as sorted runs, delete-min as a lazy
   tournament over one leased block reader per open run. *)

type reader = {
  mutable head : string;
  pull : unit -> string option;
  buffer : bytes;
}

type stats = {
  inserts : int;
  deletes : int;
  spills : int;
  spilled_records : int;
  compactions : int;
  melds : int;
}

type t = {
  fa : Extmem.Frame_arena.t;
  cmp : string -> string -> int;
  bs : int;
  capacity : int; (* insert-tier byte capacity *)
  fan_in : int; (* max open run readers *)
  store : Extmem.Run_store.t;
  spans : Obs.Spans.t option;
  heap : string Heap.t;
  mutable heap_bytes : int;
  buffer_lease : Extmem.Frame_arena.lease;
  merge_lease : Extmem.Frame_arena.lease; (* one frame per open reader *)
  readers : reader Heap.t; (* tournament over run heads *)
  mutable live : int;
  mutable destroyed : bool;
  mutable s_inserts : int;
  mutable s_deletes : int;
  mutable s_spills : int;
  mutable s_spilled : int;
  mutable s_compactions : int;
  mutable s_melds : int;
}

(* Same per-record arena overhead constant as External_sort. *)
let record_overhead = 16

let with_span t name f =
  match t.spans with None -> f () | Some s -> Obs.Spans.with_span s name f

let create ?arena ?buffer_blocks ?spans ~budget ~temp ~cmp () =
  let fa = match arena with Some a -> a | None -> Extmem.Frame_arena.create ~budget () in
  let bs = Extmem.Memory_budget.block_size budget in
  let blocks = Extmem.Memory_budget.available_blocks budget in
  if blocks < 4 then
    raise
      (Extmem.Memory_budget.Exhausted
         (Printf.sprintf "external pq needs >= 4 blocks, has %d" blocks));
  let buffer_blocks =
    let b = match buffer_blocks with Some b -> max 2 b | None -> max 2 (blocks / 2) in
    min b (blocks - 2)
  in
  let fan_in = blocks - buffer_blocks in
  let less a b = cmp a b < 0 in
  {
    fa;
    cmp;
    bs;
    capacity = (buffer_blocks - 1) * bs;
    fan_in;
    store = Extmem.Run_store.create temp;
    spans;
    heap = Heap.create ~less;
    heap_bytes = 0;
    buffer_lease = Extmem.Frame_arena.lease fa ~who:"ext pq insert tier" buffer_blocks;
    (* A 2-frame floor held for the queue's lifetime: a queue that can
       always open two readers can always compact, so sharing the budget
       with other holders cannot wedge the spill path. *)
    merge_lease = Extmem.Frame_arena.lease fa ~who:"ext pq merge fan-in" 2;
    readers = Heap.create ~less:(fun a b -> cmp a.head b.head < 0);
    live = 0;
    destroyed = false;
    s_inserts = 0;
    s_deletes = 0;
    s_spills = 0;
    s_spilled = 0;
    s_compactions = 0;
    s_melds = 0;
  }

let check_live t = if t.destroyed then invalid_arg "Ext_pq: queue destroyed"

let length t = t.live

let is_empty t = t.live = 0

let close_reader t r =
  Extmem.Frame_arena.give t.fa r.buffer;
  (* keep the 2-frame reader floor; shrink only above it *)
  if Extmem.Frame_arena.lease_blocks t.merge_lease > 2 then
    Extmem.Frame_arena.shrink t.merge_lease 1

(* Pop the tournament minimum; re-seat the reader on its next record or
   close it at end of run. *)
let pull_from_readers t =
  let r = Heap.pop t.readers in
  let v = r.head in
  (match r.pull () with
  | Some next ->
      r.head <- next;
      Heap.push t.readers r
  | None -> close_reader t r);
  v

(* Opening a reader needs one more leased frame.  When the budget cannot
   cover it (the queue's creation-time fan-in allowance was optimistic —
   other queues or components on the same budget have grown since),
   compacting the open readers down to one frees their frames first.
   Each compaction closes >= 2 readers and reopens 1, so the recursion
   strictly frees memory and bottoms out at a genuine exhaustion. *)
let rec make_room t =
  let spare = Extmem.Frame_arena.lease_blocks t.merge_lease - Heap.length t.readers in
  if spare <= 0 && not (Extmem.Frame_arena.try_grow t.merge_lease 1) then begin
    if Heap.length t.readers < 2 then
      raise
        (Extmem.Memory_budget.Exhausted "ext pq merge fan-in: no block for a run reader");
    compact t;
    make_room t
  end

and open_reader t id =
  make_room t;
  let buffer = Extmem.Frame_arena.take t.fa t.bs in
  let pull =
    let br = Extmem.Run_store.open_run ~buffer t.store id in
    fun () -> Extmem.Block_reader.read_record br
  in
  match pull () with
  | Some head -> Heap.push t.readers { head; pull; buffer }
  | None ->
      Extmem.Frame_arena.give t.fa buffer;
      if Extmem.Frame_arena.lease_blocks t.merge_lease > 2 then
        Extmem.Frame_arena.shrink t.merge_lease 1

(* Merge every open reader's remainder into one fresh run.  The writer
   buffer is the insert tier's slack block, free outside a spill write. *)
and compact t =
  with_span t "pq_compact" @@ fun () ->
  t.s_compactions <- t.s_compactions + 1;
  let buffer = Extmem.Frame_arena.take t.fa t.bs in
  let w = Extmem.Run_store.begin_run ~buffer t.store in
  while Heap.length t.readers > 0 do
    let r = Heap.pop t.readers in
    Extmem.Block_writer.write_record w r.head;
    (match r.pull () with
    | Some next ->
        r.head <- next;
        Heap.push t.readers r
    | None -> close_reader t r)
  done;
  let id = Extmem.Run_store.finish_run t.store w in
  Extmem.Frame_arena.give t.fa buffer;
  open_reader t id

let ensure_fan_in t = if Heap.length t.readers >= t.fan_in then compact t

let spill t =
  with_span t "pq_spill" @@ fun () ->
  t.s_spills <- t.s_spills + 1;
  let buffer = Extmem.Frame_arena.take t.fa t.bs in
  let w = Extmem.Run_store.begin_run ~buffer t.store in
  while Heap.length t.heap > 0 do
    (* heap drain order is sorted order *)
    let r = Heap.pop t.heap in
    t.s_spilled <- t.s_spilled + 1;
    Extmem.Block_writer.write_record w r
  done;
  t.heap_bytes <- 0;
  let id = Extmem.Run_store.finish_run t.store w in
  Extmem.Frame_arena.give t.fa buffer;
  ensure_fan_in t;
  open_reader t id

let add t r =
  let sz = String.length r + record_overhead in
  if t.heap_bytes + sz > t.capacity && Heap.length t.heap > 0 then spill t;
  Heap.push t.heap r;
  t.heap_bytes <- t.heap_bytes + sz;
  t.live <- t.live + 1

let insert t r =
  check_live t;
  t.s_inserts <- t.s_inserts + 1;
  add t r

(* Which tier holds the minimum: [`Heap], [`Runs], or [`Empty].  Ties go
   to the insert tier (equal records are indistinguishable). *)
let min_tier t =
  match (Heap.length t.heap > 0, Heap.length t.readers > 0) with
  | false, false -> `Empty
  | true, false -> `Heap
  | false, true -> `Runs
  | true, true ->
      if t.cmp (Heap.peek t.heap) (Heap.peek t.readers).head <= 0 then `Heap else `Runs

let peek_min t =
  check_live t;
  match min_tier t with
  | `Empty -> None
  | `Heap -> Some (Heap.peek t.heap)
  | `Runs -> Some (Heap.peek t.readers).head

let delete_min t =
  check_live t;
  match min_tier t with
  | `Empty -> None
  | `Heap ->
      let r = Heap.pop t.heap in
      t.heap_bytes <- t.heap_bytes - (String.length r + record_overhead);
      t.s_deletes <- t.s_deletes + 1;
      t.live <- t.live - 1;
      Some r
  | `Runs ->
      let r = pull_from_readers t in
      t.s_deletes <- t.s_deletes + 1;
      t.live <- t.live - 1;
      Some r

let destroy t =
  if not t.destroyed then begin
    t.destroyed <- true;
    while Heap.length t.readers > 0 do
      close_reader t (Heap.pop t.readers)
    done;
    Heap.clear t.heap;
    t.heap_bytes <- 0;
    t.live <- 0;
    Extmem.Frame_arena.close_lease t.merge_lease;
    Extmem.Frame_arena.close_lease t.buffer_lease
  end

let meld t other =
  check_live t;
  check_live other;
  if t.bs <> other.bs then invalid_arg "Ext_pq.meld: block sizes differ";
  t.s_melds <- t.s_melds + 1;
  let moved = other.live in
  (* Runs: each open reader moves over as it stands — its head, its
     position and its frame — so nothing is copied or read again, and
     what the donor already consumed (and freed) stays behind.  The
     frame leaves the donor's lease and joins [t]'s. *)
  while Heap.length other.readers > 0 do
    let r = Heap.pop other.readers in
    if Extmem.Frame_arena.lease_blocks other.merge_lease > 2 then
      Extmem.Frame_arena.shrink other.merge_lease 1;
    ensure_fan_in t;
    make_room t;
    Heap.push t.readers r
  done;
  (* In-memory tier: re-inserted through [t], may spill.  [add] counts
     each of these in [live]; the run records moved over above
     bypassed it and are counted here. *)
  let mem_moved = Heap.length other.heap in
  while Heap.length other.heap > 0 do
    add t (Heap.pop other.heap)
  done;
  t.live <- t.live + (moved - mem_moved);
  other.heap_bytes <- 0;
  other.live <- 0;
  destroy other

let run_count t = Heap.length t.readers

let run_blocks t = Extmem.Run_store.total_run_blocks t.store

let stats t =
  {
    inserts = t.s_inserts;
    deletes = t.s_deletes;
    spills = t.s_spills;
    spilled_records = t.s_spilled;
    compactions = t.s_compactions;
    melds = t.s_melds;
  }
