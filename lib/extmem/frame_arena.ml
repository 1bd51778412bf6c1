(* One pool of block frames for the whole session.  Every component that
   holds blocks in memory draws them from here as a [lease]: plain
   accounting plus recycled buffers.  All reservations flow through the
   shared [Memory_budget] under the owner's [who] label, so exhaustion
   messages and metrics name the component that holds each frame. *)

(* Per-owner current/peak frame counts, kept for the arena's life so
   metrics still cover owners whose leases have since been closed. *)
type owner = {
  mutable o_held : int;
  mutable o_peak : int;
}

type owner_stats = {
  held : int;
  peak : int;
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
      let o = { o_held = 0; o_peak = 0 } in
      Hashtbl.add t.table who o;
      o

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

let owners t =
  Mutex.protect t.lock (fun () ->
      Hashtbl.fold (fun name o acc -> (name, { held = o.o_held; peak = o.o_peak }) :: acc)
        t.table [])
  |> List.sort (fun (a, _) (b, _) -> compare a b)

let totals t =
  Mutex.protect t.lock (fun () ->
      Hashtbl.fold
        (fun _ o acc -> { held = acc.held + o.o_held; peak = acc.peak + o.o_peak })
        t.table { held = 0; peak = 0 })

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
