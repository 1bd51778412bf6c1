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
  flush : unit -> unit;
  close : unit -> unit;
}

let check_block_size bs = if bs <= 0 then invalid_arg "Backend: block_size must be positive"

let mem ?(name = "mem") ~block_size () =
  check_block_size block_size;
  let v : bytes Vec.t = Vec.create () in
  {
    name;
    block_size;
    read_block = (fun i buf -> Bytes.blit (Vec.get v i) 0 buf 0 block_size);
    write_block = (fun i buf -> Bytes.blit buf 0 (Vec.get v i) 0 block_size);
    allocate =
      (fun n ->
        for _ = 1 to n do
          Vec.push v (Bytes.make block_size '\000')
        done);
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
      flush = (fun () -> ());
      close = (fun () -> Unix.close fd);
    }
  in
  (backend, size)

