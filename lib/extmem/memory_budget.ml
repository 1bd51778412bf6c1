type t = {
  total : int;
  bs : int;
  mutable used : int;
  mutable peak : int; (* high-water mark of [used] *)
  ledger : (string, int) Hashtbl.t; (* who -> blocks currently held *)
  lock : Mutex.t;
  (* a carved sub-budget remembers the pool it was carved from, the owner
     name its slab is recorded under there, and the slab size in the
     parent's blocks (the two budgets may use different block sizes) *)
  parent : (t * string * int) option;
}

exception Exhausted of string

let create ~blocks ~block_size =
  if blocks < 1 then invalid_arg "Memory_budget.create: need at least one block";
  if block_size < 1 then invalid_arg "Memory_budget.create: block_size must be positive";
  { total = blocks; bs = block_size; used = 0; peak = 0; ledger = Hashtbl.create 8;
    lock = Mutex.create (); parent = None }

let block_size b = b.bs

let total_blocks b = b.total

(* The lock is not reentrant, so every operation that composes smaller
   ones (reserve reports holders, carve reserves) works on the unlocked
   [_u] forms and takes the lock exactly once at its public entry. *)

let held_u b who = Option.value ~default:0 (Hashtbl.find_opt b.ledger who)

let holders_u b =
  Hashtbl.fold (fun who n acc -> if n > 0 then (who, n) :: acc else acc) b.ledger []
  |> List.sort compare

let pp_holders_u b =
  match holders_u b with
  | [] -> "nothing is held"
  | hs -> String.concat ", " (List.map (fun (who, n) -> Printf.sprintf "%s=%d" who n) hs)

let reserve_u b ~who n =
  if n < 0 then invalid_arg "Memory_budget.reserve: negative";
  if b.used + n > b.total then
    raise
      (Exhausted
         (Printf.sprintf "%s needs %d blocks but only %d of %d are free (%s)" who n
            (b.total - b.used) b.total (pp_holders_u b)));
  b.used <- b.used + n;
  if b.used > b.peak then b.peak <- b.used;
  Hashtbl.replace b.ledger who (held_u b who + n)

let release_u b ~who n =
  if n < 0 then invalid_arg "Memory_budget.release: negative";
  let h = held_u b who in
  if n > h then
    invalid_arg
      (Printf.sprintf "Memory_budget.release: %s releasing %d blocks but holds %d (%s)" who n h
         (pp_holders_u b));
  b.used <- b.used - n;
  if h - n = 0 then Hashtbl.remove b.ledger who else Hashtbl.replace b.ledger who (h - n)

let used_blocks b = Mutex.protect b.lock (fun () -> b.used)

let peak_blocks b = Mutex.protect b.lock (fun () -> b.peak)

let available_blocks b = Mutex.protect b.lock (fun () -> b.total - b.used)

let held b who = Mutex.protect b.lock (fun () -> held_u b who)

let holders b = Mutex.protect b.lock (fun () -> holders_u b)

let reserve b ~who n = Mutex.protect b.lock (fun () -> reserve_u b ~who n)

let release b ~who n = Mutex.protect b.lock (fun () -> release_u b ~who n)

let with_reserved b ~who n f =
  reserve b ~who n;
  Fun.protect ~finally:(fun () -> release b ~who n) f

let carve b ?block_size ~who ~blocks () =
  if blocks < 1 then invalid_arg "Memory_budget.carve: need at least one block";
  let bs = Option.value block_size ~default:b.bs in
  if bs < 1 then invalid_arg "Memory_budget.carve: block_size must be positive";
  (* the slab is charged to the parent in the parent's own granularity,
     rounding up so a sub-budget can never out-commit its slab *)
  let parent_blocks = (blocks * bs + b.bs - 1) / b.bs in
  reserve b ~who parent_blocks;
  { total = blocks; bs; used = 0; peak = 0; ledger = Hashtbl.create 8;
    lock = Mutex.create (); parent = Some (b, who, parent_blocks) }

let uncarve ?(force = false) child =
  match child.parent with
  | None -> invalid_arg "Memory_budget.uncarve: not a carved sub-budget"
  | Some (parent, who, parent_blocks) ->
      Mutex.protect child.lock (fun () ->
          if child.used <> 0 && not force then
            invalid_arg
              (Printf.sprintf "Memory_budget.uncarve: %s still holds %d blocks (%s)" who
                 child.used (pp_holders_u child)));
      release parent ~who parent_blocks
