type 'a pull = unit -> 'a option

type 'a source = {
  s_who : string;
  s_mem : int;
  s_open : unit -> 'a pull * (unit -> unit);
}

type 'a sink = {
  k_who : string;
  k_mem : int;
  k_open : unit -> ('a -> unit) * (unit -> unit);
}

type 'a opened = { pull : 'a pull; close : unit -> unit }

let source ?(mem = 0) ~who open_ = { s_who = who; s_mem = mem; s_open = open_ }

let of_run ?(who = "run reader") ?tail store id =
  let mem = match tail with Some tl when Extmem.Block_reader.tail_length tl > 0 -> 2 | _ -> 1 in
  source ~mem ~who (fun () -> (Extmem.Run_store.read_run ?tail store id, ignore))

let sink ?(mem = 0) ~who open_ = { k_who = who; k_mem = mem; k_open = open_ }

let fn_sink ~who push = sink ~who (fun () -> (push, ignore))

let in_span spans name f =
  match spans with None -> f () | Some sp -> Obs.Spans.with_span sp name f

let open_source ?spans ~budget src =
  let who = src.s_who in
  Extmem.Memory_budget.reserve budget ~who src.s_mem;
  let pull, close_source =
    try in_span spans ("open:" ^ who) src.s_open
    with e ->
      Extmem.Memory_budget.release budget ~who src.s_mem;
      raise e
  in
  let closed = ref false in
  let close () =
    if not !closed then begin
      closed := true;
      Fun.protect
        ~finally:(fun () -> Extmem.Memory_budget.release budget ~who src.s_mem)
        close_source
    end
  in
  { pull; close }

let drain pull push =
  let rec loop () =
    match pull () with
    | None -> ()
    | Some x ->
        push x;
        loop ()
  in
  loop ()

let run_opened ?spans ~budget opened snk =
  Fun.protect ~finally:opened.close @@ fun () ->
  Extmem.Memory_budget.reserve budget ~who:snk.k_who snk.k_mem;
  let release () = Extmem.Memory_budget.release budget ~who:snk.k_who snk.k_mem in
  let push, close_snk =
    try snk.k_open ()
    with e ->
      release ();
      raise e
  in
  match in_span spans ("drain:" ^ snk.k_who) (fun () -> drain opened.pull push) with
  | () -> Fun.protect ~finally:release close_snk
  | exception e ->
      (* Flush what the sink buffered so a failing pipeline never leaves a
         torn final block; the original exception wins over flush errors. *)
      (try close_snk () with _ -> ());
      release ();
      raise e

let run ?spans ~budget src snk = run_opened ?spans ~budget (open_source ?spans ~budget src) snk
