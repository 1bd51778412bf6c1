type id = int

(* A slot is either a finished run (with the device it lives on — an
   installed run may live on another store's device) or a reservation
   whose payload is not installed yet. *)
type slot =
  | Ready of { dev : Device.t; extent : Extent.t }
  | Pending

type t = {
  dev : Device.t;
  slots : slot Vec.t;
  mutable writing : bool;
}

let create dev = { dev; slots = Vec.create (); writing = false }

let device t = t.dev

let run_count t = Vec.length t.slots

let begin_run ?buffer t =
  if t.writing then invalid_arg "Run_store.begin_run: a run is already open";
  t.writing <- true;
  Block_writer.create ?buffer t.dev

let finish_run t w =
  if not t.writing then invalid_arg "Run_store.finish_run: no open run";
  let extent = Block_writer.close w in
  t.writing <- false;
  Vec.push t.slots (Ready { dev = t.dev; extent });
  Vec.length t.slots - 1

let reserve t =
  Vec.push t.slots Pending;
  Vec.length t.slots - 1

let check_id t id =
  if id < 0 || id >= Vec.length t.slots then
    invalid_arg (Printf.sprintf "Run_store: unknown run id %d" id)

let install t id ~dev ~extent =
  check_id t id;
  (match Vec.get t.slots id with
  | Pending -> ()
  | Ready _ -> invalid_arg (Printf.sprintf "Run_store.install: run %d is already installed" id));
  Vec.set t.slots id (Ready { dev; extent })

let slot t id =
  check_id t id;
  match Vec.get t.slots id with
  | Ready { dev; extent } -> (dev, extent)
  | Pending -> invalid_arg (Printf.sprintf "Run_store: run %d is pending" id)

let run_extent t id = snd (slot t id)

let open_run ?buffer t id =
  let dev, extent = slot t id in
  Block_reader.of_extent ?buffer dev extent

let read_run ?buffer t id =
  let r = open_run ?buffer t id in
  fun () -> Block_reader.read_record r

let fold_ready f acc t =
  Vec.fold_left (fun acc -> function Ready r -> f acc r.extent | Pending -> acc) acc t.slots

let total_run_blocks t = fold_ready (fun acc e -> acc + e.Extent.blocks) 0 t

let total_run_bytes t = fold_ready (fun acc e -> acc + e.Extent.bytes) 0 t
