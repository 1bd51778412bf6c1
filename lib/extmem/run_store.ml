type id = int

type t = {
  dev : Device.t;
  extents : Extent.t Vec.t;
  mutable writing : bool;
  mutable frontier : int;  (* the block after the last run written *)
}

let create dev = { dev; extents = Vec.create (); writing = false; frontier = 0 }

let device t = t.dev

let run_count t = Vec.length t.extents

let begin_run ?buffer t =
  if t.writing then invalid_arg "Run_store.begin_run: a run is already open";
  t.writing <- true;
  Block_writer.create ?buffer t.dev

let finish_run t w =
  if not t.writing then invalid_arg "Run_store.finish_run: no open run";
  let extent = Block_writer.close w in
  t.writing <- false;
  (* a reader frees each block it leaves, so no two runs may share one:
     every run starts on a fresh block *)
  assert (extent.Extent.first_block >= t.frontier);
  t.frontier <- extent.Extent.first_block + extent.Extent.blocks;
  Vec.push t.extents extent;
  Vec.length t.extents - 1

let run_extent t id =
  if id < 0 || id >= Vec.length t.extents then
    invalid_arg (Printf.sprintf "Run_store: unknown run id %d" id);
  Vec.get t.extents id

let open_run ?buffer t id = Block_reader.of_run ?buffer t.dev (run_extent t id)

let read_run ?buffer t id =
  let r = open_run ?buffer t id in
  fun () -> Block_reader.read_record r

let total_run_blocks t = Vec.fold_left (fun acc e -> acc + e.Extent.blocks) 0 t.extents

let total_run_bytes t = Vec.fold_left (fun acc e -> acc + e.Extent.bytes) 0 t.extents
