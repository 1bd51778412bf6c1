(* The grants of each phase, and a session's plan: it resizes the stack
   windows at the boundaries and logs each phase for the report. *)

type grant = {
  who : string;
  min : int;
  max : int;
  granted : int;
}

let fixed who n = { who; min = n; max = n; granted = n }

let granted grants who =
  match List.find_opt (fun g -> g.who = who) grants with Some g -> g.granted | None -> 0

let scan ~memory_blocks ~path_blocks ~data_blocks =
  let consumers =
    [ ("input scan", 1, 1); ("output location stack window", 1, 1);
      ("path stack window", 2, path_blocks); ("data stack window", 1, data_blocks);
      ("sort arena", 3, memory_blocks) ]
  in
  let rest = ref (List.fold_left (fun acc (_, lo, _) -> acc - lo) memory_blocks consumers) in
  if !rest < 0 then invalid_arg "Plan.scan: M blocks cannot cover the consumers' minimums";
  List.map
    (fun (who, lo, hi) ->
      let extra = Stdlib.min !rest (Stdlib.max 0 (hi - lo)) in
      rest := !rest - extra;
      { who; min = lo; max = hi; granted = lo + extra })
    consumers

type merge = {
  width : int;
  target : int;
}

let windows = [ "data stack window"; "path stack window"; "output location stack window" ]

type t = {
  budget : Extmem.Memory_budget.t;
  scan_grants : grant list;
  arena_bytes : int; (* read once per scan event *)
  stacks : Extmem.Ext_stack.t list; (* in the order of [windows] *)
  mutable current : grant list; (* the grants in force *)
  mutable in_output : bool;
  mutable log : (string * int * grant list) list; (* first-entry order *)
}

let create ~budget ~scan ~data ~path ~out =
  { budget; scan_grants = scan;
    arena_bytes = granted scan "sort arena" * Extmem.Memory_budget.block_size budget;
    stacks = [ data; path; out ]; current = scan; in_output = false; log = [ ("scan", 1, scan) ] }

let apply t grants =
  List.iter2 (fun st who -> Extmem.Ext_stack.resize st (granted grants who)) t.stacks windows;
  t.current <- grants

let enter t name grants =
  apply t grants;
  t.log <-
    (if List.exists (fun (n, _, _) -> n = name) t.log then
       List.map (fun (n, k, g) -> if n = name then (n, k + 1, grants) else (n, k, g)) t.log
     else t.log @ [ (name, 1, grants) ])

let sort_arena_bytes t = t.arena_bytes

let reclaim t = Extmem.Ext_stack.resize (List.hd t.stacks) (granted t.current "data stack window")

(* At an element's end the stack windows sit idle.  The output-location
   window comes back for the final batch (the output phase may consume
   it and push onto the stack), so the passes aim at what the batch has
   without it. *)
let fragment_merge t ~fragments =
  let g = granted t.scan_grants in
  let free = g "sort arena" and idle = g "data stack window" + g "path stack window" in
  let fan_in = Extsort.External_sort.fan_in and passes = Extsort.External_sort.passes_needed in
  let plain = fan_in free and target = fan_in (free + idle) in
  let width = fan_in (free + idle + g "output location stack window") in
  let lend = passes ~width:plain ~target:plain fragments > passes ~width ~target fragments in
  let m = if lend then { width; target } else { width = plain; target = plain } in
  let window who = { who; min = 0; max = g who; granted = (if lend then 0 else g who) } in
  enter t "fragment merge"
    ((fixed "input scan" 1 :: List.map window windows)
    @ [ { who = "fragment merge"; min = 3; max = m.width + 1; granted = m.width + 1 } ]);
  m

let final_batch t m =
  let window (g : grant) =
    if g.who = "output location stack window" then fixed g.who 1 else g
  in
  enter t "final batch"
    (List.map window (List.filter (fun g -> g.who <> "fragment merge") t.current)
    @ [ { who = "fragment merge fan-in"; min = 2; max = m.target; granted = m.target } ])

(* The sort takes every block the phase in force leaves free: its run
   formation, then each merge batch, then its final merge. *)
let external_sort t =
  let held = List.filter (fun g -> g.who <> "sort arena") t.current in
  let free =
    Extmem.Memory_budget.total_blocks t.budget - List.fold_left (fun n g -> n + g.granted) 0 held
  in
  enter t "external sort" (held @ [ { who = "external sort"; min = 3; max = free; granted = free } ]);
  free

let sort_done t = apply t (if t.in_output then t.current else t.scan_grants)

(* What the budget holds at the boundary, but the output-location
   window, is the root's open stream: its run reader, or the fused root
   sort's final merge. *)
let output t ~writer =
  t.in_output <- true;
  let held = List.map2 fixed windows [ 0; 0; 1 ] in
  apply t held;
  let held =
    held
    @ fixed "root stream" (Extmem.Memory_budget.used_blocks t.budget - 1)
      :: (if writer then [ fixed "xml writer" 1 ] else [])
  in
  let rest =
    Extmem.Memory_budget.total_blocks t.budget - List.fold_left (fun n g -> n + g.granted) 0 held
  in
  enter t "output" (held @ [ { who = "run traversal"; min = 1; max = rest; granted = rest } ])

let phases t = t.log
