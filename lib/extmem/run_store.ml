type id = int

type t = {
  dev : Device.t;
  extents : Extent.t Vec.t;
  tails : int Vec.t;  (* each run's tail length: 0 but for pointed runs *)
  mutable inline_bytes : int;  (* their sum *)
  mutable writing : bool;
  mutable frontier : int;  (* the block after the last run written *)
}

let create dev =
  { dev; extents = Vec.create (); tails = Vec.create (); inline_bytes = 0; writing = false;
    frontier = 0 }

let device t = t.dev

let run_count t = Vec.length t.extents

let begin_run ?buffer t =
  if t.writing then invalid_arg "Run_store.begin_run: a run is already open";
  t.writing <- true;
  Block_writer.create ?buffer t.dev

let register t (extent, tail) =
  t.writing <- false;
  (* a reader frees each block it leaves, so no two runs may share one:
     every run starts on a fresh block *)
  assert (extent.Extent.first_block >= t.frontier);
  t.frontier <- extent.Extent.first_block + extent.Extent.blocks;
  Vec.push t.extents extent;
  Vec.push t.tails tail;
  t.inline_bytes <- t.inline_bytes + tail;
  (Vec.length t.extents - 1, tail)

let check_writing t =
  if not t.writing then invalid_arg "Run_store.finish_run: no open run"

let finish_run t w =
  check_writing t;
  fst (register t (Block_writer.close w, 0))

(* A padded block costs one write and one read.  A tail inlined in its
   pointer travels with the enclosing run's bytes instead: written and
   read with that run, and again wherever those bytes are paged (the
   data stack, a spilled reader's entry), and it brings the enclosing
   subtree nearer the threshold and the sort arena.  Up to a quarter
   block, four such round trips cost no more than the padded block. *)
let inline_limit t = Device.block_size t.dev / 4

let finish_pointed t w =
  check_writing t;
  if Block_writer.position w mod Device.block_size t.dev <= inline_limit t then
    register t (Block_writer.close_split w)
  else (finish_run t w, 0)

let run_extent t id =
  if id < 0 || id >= Vec.length t.extents then
    invalid_arg (Printf.sprintf "Run_store: unknown run id %d" id);
  Vec.get t.extents id

let tail_length t id =
  ignore (run_extent t id);
  Vec.get t.tails id

let open_run ?buffer ?tail t id =
  let extent = run_extent t id in
  let n = match tail with Some tl -> Block_reader.tail_length tl | None -> 0 in
  if n <> Vec.get t.tails id then
    invalid_arg
      (Printf.sprintf "Run_store.open_run: run %d has a %d-byte tail, not %d" id
         (Vec.get t.tails id) n);
  Block_reader.of_run ?buffer ?tail t.dev extent

let read_run ?buffer ?tail t id =
  let r = open_run ?buffer ?tail t id in
  fun () -> Block_reader.read_record r

let total_run_blocks t = Vec.fold_left (fun acc e -> acc + e.Extent.blocks) 0 t.extents

let total_run_bytes t =
  Vec.fold_left (fun acc e -> acc + e.Extent.bytes) t.inline_bytes t.extents

let inline_bytes t = t.inline_bytes
