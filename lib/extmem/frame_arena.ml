(* One pool of block frames for the whole session.  Every component that
   holds blocks in memory draws them from here — either as a [lease]
   (plain accounting plus recycled buffers: stack windows, stream
   buffers, sort arenas, merge fan-in) or as a [cache] (a mapped frame
   set with a replacement policy: the B-tree's buffer pool).  All
   reservations flow through the shared [Memory_budget] under the
   owner's [who] label, so exhaustion messages and metrics name the
   component that holds each frame. *)

type policy =
  | Lru
  | Clock
  | Mru
  | Stack

let all_policies = [ Lru; Clock; Mru; Stack ]

let policy_to_string = function
  | Lru -> "lru"
  | Clock -> "clock"
  | Mru -> "mru"
  | Stack -> "stack"

(* Per-owner record: current/peak frame counts plus cumulative cache
   counters.  Kept for the arena's life so metrics still cover owners
   whose lease or cache has since been closed. *)
type owner = {
  o_name : string;
  mutable o_held : int;
  mutable o_peak : int;
  mutable o_hits : int;
  mutable o_misses : int;
  mutable o_evictions : int;
  mutable o_writebacks : int;
}

type owner_stats = {
  held : int;
  peak : int;
  hits : int;
  misses : int;
  evictions : int;
  writebacks : int;
}

type t = {
  budget : Memory_budget.t option;
  pool : (int, bytes list ref) Hashtbl.t; (* buffer size -> free buffers *)
  table : (string, owner) Hashtbl.t;
  lock : Mutex.t; (* guards [pool] and [table]; never held across budget calls *)
}

let create ?budget () =
  { budget; pool = Hashtbl.create 4; table = Hashtbl.create 8; lock = Mutex.create () }

let budget t = t.budget

let owner_u t who =
  match Hashtbl.find_opt t.table who with
  | Some o -> o
  | None ->
      let o =
        { o_name = who; o_held = 0; o_peak = 0; o_hits = 0; o_misses = 0; o_evictions = 0;
          o_writebacks = 0 }
      in
      Hashtbl.add t.table who o;
      o

let owner t who = Mutex.protect t.lock (fun () -> owner_u t who)

let reserve t ~who n =
  (match t.budget with Some b -> Memory_budget.reserve b ~who n | None -> ());
  Mutex.protect t.lock (fun () ->
      let o = owner_u t who in
      o.o_held <- o.o_held + n;
      if o.o_held > o.o_peak then o.o_peak <- o.o_held)

let release t ~who n =
  Mutex.protect t.lock (fun () ->
      let o = owner_u t who in
      if n > o.o_held then
        invalid_arg
          (Printf.sprintf "Frame_arena: %s releasing %d frames but holds %d" who n o.o_held);
      o.o_held <- o.o_held - n);
  match t.budget with Some b -> Memory_budget.release b ~who n | None -> ()

let stats_of o =
  { held = o.o_held; peak = o.o_peak; hits = o.o_hits; misses = o.o_misses;
    evictions = o.o_evictions; writebacks = o.o_writebacks }

let owners t =
  Mutex.protect t.lock (fun () ->
      Hashtbl.fold (fun name o acc -> (name, stats_of o) :: acc) t.table [])
  |> List.sort (fun (a, _) (b, _) -> compare a b)

let totals t =
  Mutex.protect t.lock (fun () ->
      Hashtbl.fold
        (fun _ o acc ->
          { held = acc.held + o.o_held; peak = acc.peak + o.o_peak; hits = acc.hits + o.o_hits;
            misses = acc.misses + o.o_misses; evictions = acc.evictions + o.o_evictions;
            writebacks = acc.writebacks + o.o_writebacks })
        t.table
        { held = 0; peak = 0; hits = 0; misses = 0; evictions = 0; writebacks = 0 })

(* Buffer recycling.  Frames handed out must be indistinguishable from a
   fresh [Bytes.create]: components (notably [Ext_stack.flush_block])
   write whole blocks including bytes past their logical length, so a
   recycled buffer is zero-filled before reuse. *)

let take t size =
  let recycled =
    Mutex.protect t.lock (fun () ->
        match Hashtbl.find_opt t.pool size with
        | Some ({ contents = b :: rest } as cell) ->
            cell := rest;
            Some b
        | _ -> None)
  in
  match recycled with
  | Some b ->
      Bytes.fill b 0 size '\000';
      b
  | None -> Bytes.create size

let give t b =
  let size = Bytes.length b in
  Mutex.protect t.lock (fun () ->
      match Hashtbl.find_opt t.pool size with
      | Some cell -> cell := b :: !cell
      | None -> Hashtbl.add t.pool size (ref [ b ]))

(* Sub-arenas: a fixed slab carved out of the shared budget becomes a
   private arena for one domain.  All frame traffic inside the worker
   then hits only the sub-arena's own lock and ledger; the parent pool
   records the whole slab under the carver's name until [close]. *)

let carve t ~who ~blocks =
  match t.budget with
  | None -> invalid_arg "Frame_arena.carve: arena has no budget to carve from"
  | Some b ->
      let sub = Memory_budget.carve b ~who ~blocks () in
      create ~budget:sub ()

let close t =
  match t.budget with
  | None -> invalid_arg "Frame_arena.close: arena has no budget"
  | Some b -> Memory_budget.uncarve b

(* {2 Leases} *)

type lease = {
  lt : t;
  l_who : string;
  mutable l_blocks : int;
  mutable l_closed : bool;
}

let lease t ~who n =
  reserve t ~who n;
  { lt = t; l_who = who; l_blocks = n; l_closed = false }

let lease_blocks l = if l.l_closed then 0 else l.l_blocks

let lease_who l = l.l_who

let grow l n =
  if l.l_closed then invalid_arg "Frame_arena.grow: lease closed";
  reserve l.lt ~who:l.l_who n;
  l.l_blocks <- l.l_blocks + n

let try_grow l n =
  if l.l_closed then false
  else
    match l.lt.budget with
    | Some b when Memory_budget.available_blocks b < n -> false
    | _ ->
        grow l n;
        true

let shrink l n =
  if l.l_closed then invalid_arg "Frame_arena.shrink: lease closed";
  if n > l.l_blocks then invalid_arg "Frame_arena.shrink: below zero";
  release l.lt ~who:l.l_who n;
  l.l_blocks <- l.l_blocks - n

let close_lease l =
  if not l.l_closed then begin
    release l.lt ~who:l.l_who l.l_blocks;
    l.l_blocks <- 0;
    l.l_closed <- true
  end

let with_lease t ~who n f =
  let l = lease t ~who n in
  Fun.protect ~finally:(fun () -> close_lease l) (fun () -> f l)

(* {2 Caches}

   Mapped frames over one device, faulted in page by page through a
   replacement policy, written back only when dirty. *)

type frame = {
  mutable block : int; (* -1 = free *)
  data : bytes;
  mutable dirty : bool;
  mutable stamp : int;       (* LRU/MRU timestamp *)
  mutable referenced : bool; (* Clock bit *)
}

type cache = {
  c_arena : t;
  c_owner : owner;
  c_who : string;
  dev : Device.t;
  c_policy : policy;
  frames : frame array;
  map : (int, int) Hashtbl.t; (* block -> frame index *)
  mutable tick : int;
  mutable hand : int; (* Clock hand *)
  mutable hits : int;
  mutable misses : int;
  mutable evictions : int;
  mutable writebacks : int;
  mutable detached : bool;
}

let attach t ?(who = "pager") ?(policy = Lru) ~frames dev =
  if frames < 1 then invalid_arg "Frame_arena.attach: frames must be >= 1";
  reserve t ~who frames;
  let bs = Device.block_size dev in
  let mk _ =
    { block = -1; data = take t bs; dirty = false; stamp = 0; referenced = false }
  in
  {
    c_arena = t;
    c_owner = owner t who;
    c_who = who;
    dev;
    c_policy = policy;
    frames = Array.init frames mk;
    map = Hashtbl.create (2 * frames);
    tick = 0;
    hand = 0;
    hits = 0;
    misses = 0;
    evictions = 0;
    writebacks = 0;
    detached = false;
  }

let hits c = c.hits

let misses c = c.misses

let evictions c = c.evictions

let writebacks c = c.writebacks

let write_back c f =
  if f.dirty then begin
    Device.write_block c.dev f.block f.data;
    f.dirty <- false;
    c.writebacks <- c.writebacks + 1;
    c.c_owner.o_writebacks <- c.c_owner.o_writebacks + 1
  end

(* Victim scans.  Free frames always win (the last free frame found);
   among occupied frames Lru takes the strictly lowest stamp, Mru the
   strictly highest, Stack the lowest block index (the paper's
   no-prefetch rule: the block deepest below the stack top goes
   first). *)

let victim_scan c better =
  let fs = c.frames in
  let best = ref 0 in
  for i = 1 to Array.length fs - 1 do
    let f = fs.(i) and b = fs.(!best) in
    if f.block = -1 || (b.block <> -1 && better f b) then best := i
  done;
  !best

(* Second chance: a referenced frame loses its bit and is skipped once.
   Free frames are never referenced, so they are taken on sight, and one
   sweep clears every bit, so the hand stops within [n + 1] steps. *)
let rec victim_clock c =
  let i = c.hand in
  let f = c.frames.(i) in
  c.hand <- (i + 1) mod Array.length c.frames;
  if f.referenced then begin
    f.referenced <- false;
    victim_clock c
  end
  else i

let victim c =
  match c.c_policy with
  | Lru -> victim_scan c (fun f b -> f.stamp < b.stamp)
  | Clock -> victim_clock c
  | Mru -> victim_scan c (fun f b -> f.stamp > b.stamp)
  | Stack -> victim_scan c (fun f b -> f.block < b.block)

let touch c f =
  c.tick <- c.tick + 1;
  f.stamp <- c.tick;
  f.referenced <- true

(* Return the frame holding [block], faulting it in if needed. *)
let frame_for c block =
  match Hashtbl.find_opt c.map block with
  | Some i ->
      let f = c.frames.(i) in
      c.hits <- c.hits + 1;
      c.c_owner.o_hits <- c.c_owner.o_hits + 1;
      touch c f;
      f
  | None ->
      c.misses <- c.misses + 1;
      c.c_owner.o_misses <- c.c_owner.o_misses + 1;
      let i = victim c in
      let f = c.frames.(i) in
      if f.block <> -1 then begin
        c.evictions <- c.evictions + 1;
        c.c_owner.o_evictions <- c.c_owner.o_evictions + 1;
        write_back c f;
        Hashtbl.remove c.map f.block
      end;
      if block < Device.block_count c.dev then Device.read_block c.dev block f.data
      else Bytes.fill f.data 0 (Bytes.length f.data) '\000';
      f.block <- block;
      f.dirty <- false;
      Hashtbl.replace c.map block i;
      touch c f;
      f

let read_page c block =
  if block >= Device.block_count c.dev then
    invalid_arg (Printf.sprintf "Frame_arena.read_page: block %d not allocated" block);
  let f = frame_for c block in
  Bytes.to_string f.data

let write_page c block s =
  let bs = Device.block_size c.dev in
  if String.length s > bs then invalid_arg "Frame_arena.write_page: page larger than a block";
  while block >= Device.block_count c.dev do
    ignore (Device.allocate c.dev 1)
  done;
  let f = frame_for c block in
  Bytes.fill f.data 0 bs '\000';
  Bytes.blit_string s 0 f.data 0 (String.length s);
  f.dirty <- true

let flush c = Array.iter (fun f -> if f.block <> -1 then write_back c f) c.frames

let detach c =
  if not c.detached then begin
    flush c;
    Array.iter
      (fun f ->
        f.block <- -1;
        give c.c_arena f.data)
      c.frames;
    Hashtbl.reset c.map;
    release c.c_arena ~who:c.c_who (Array.length c.frames);
    c.detached <- true
  end
