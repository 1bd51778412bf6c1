type op =
  | Read
  | Write

exception Fault of op * int

type t = {
  name : string;
  block_size : int;
  read_block : int -> bytes -> unit;
  write_block : int -> bytes -> unit;
  allocate : int -> unit;
  discard : int -> unit;
  clear : unit -> unit;
  flush : unit -> unit;
  close : unit -> unit;
}

let check_block_size bs = if bs <= 0 then invalid_arg "Backend: block_size must be positive"

(* Freed buffers kept for reuse.  The cap bounds what a burst of
   discards with no allocation after it (an output phase reading its
   runs) can pin; past it a freed buffer is left to the GC. *)
let free_cap = 64

let mem ?(name = "mem") ~block_size () =
  check_block_size block_size;
  let v : bytes Vec.t = Vec.create () in
  (* a discarded slot holds [dead]: reading, writing or discarding it
     again is an error *)
  let dead = Bytes.empty in
  let free = Array.make free_cap dead and nfree = ref 0 in
  let live i =
    let b = Vec.get v i in
    if b == dead then invalid_arg (Printf.sprintf "Backend.mem(%s): block %d was discarded" name i);
    b
  in
  let fresh () =
    if !nfree = 0 then Bytes.make block_size '\000'
    else begin
      decr nfree;
      let b = free.(!nfree) in
      free.(!nfree) <- dead;
      Bytes.fill b 0 block_size '\000';
      b
    end
  in
  {
    name;
    block_size;
    read_block = (fun i buf -> Bytes.blit (live i) 0 buf 0 block_size);
    write_block = (fun i buf -> Bytes.blit buf 0 (live i) 0 block_size);
    allocate =
      (fun n ->
        for _ = 1 to n do
          Vec.push v (fresh ())
        done);
    discard =
      (fun i ->
        let b = live i in
        Vec.set v i dead;
        if !nfree < free_cap then begin
          free.(!nfree) <- b;
          incr nfree
        end);
    clear =
      (fun () ->
        (* a cleared disk pins no buffer *)
        Vec.iteri (fun i _ -> Vec.set v i dead) v;
        Vec.clear v);
    flush = (fun () -> ());
    close = (fun () -> ());
  }

let sys_error path e = Sys_error (path ^ ": " ^ Unix.error_message e)

let file ?name ?(readonly = false) ~block_size ~path () =
  check_block_size block_size;
  (* read-only opens do not block, so that a FIFO is turned away by the
     kind check below instead of waiting for a writer *)
  let flags =
    if readonly then [ Unix.O_RDONLY; Unix.O_NONBLOCK ]
    else [ Unix.O_RDWR; Unix.O_CREAT; Unix.O_TRUNC ]
  in
  let fd =
    try Unix.openfile path flags 0o644 with Unix.Unix_error (e, _, _) -> raise (sys_error path e)
  in
  let size =
    if not readonly then 0
    else
      match Unix.fstat fd with
      | { Unix.st_kind = Unix.S_REG; st_size; _ } -> st_size
      | _ ->
          Unix.close fd;
          raise (Sys_error (path ^ ": not a regular file"))
  in
  let backend =
    {
      name = Option.value name ~default:path;
      block_size;
      read_block =
        (fun i buf ->
          let off = i * block_size in
          ignore (Unix.lseek fd off Unix.SEEK_SET);
          let rec fill pos =
            if pos < block_size then begin
              let n = Unix.read fd buf pos (block_size - pos) in
              if n = 0 then Bytes.fill buf pos (block_size - pos) '\000'
              else fill (pos + n)
            end
          in
          fill 0);
      write_block =
        (fun i buf ->
          let off = i * block_size in
          ignore (Unix.lseek fd off Unix.SEEK_SET);
          let rec drain pos =
            if pos < block_size then begin
              let n = Unix.write fd buf pos (block_size - pos) in
              drain (pos + n)
            end
          in
          drain 0);
      allocate = (fun _ -> () (* sparse: the file grows on write *));
      discard = (fun _ -> () (* the file keeps the block: no hole punching *));
      clear = (fun () -> Unix.ftruncate fd 0);
      flush = (fun () -> ());
      close = (fun () -> Unix.close fd);
    }
  in
  (backend, size)

