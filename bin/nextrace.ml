(* nextrace: offline analysis of nexsort --trace files.

   Loads a Chrome trace_event JSON timeline (as written by Obs.Tracer),
   rebuilds per-track span trees, and prints a self-profile: top spans
   by self-time and I/O latency percentiles per device.  --diff compares
   two traces side by side (e.g. a run before and after a change). *)

open Cmdliner

type agg = { mutable a_count : int; mutable a_total : int; mutable a_self : int (* ns *) }

type track_profile = {
  tp_tid : int;
  tp_name : string;
  tp_spans : (string, agg) Hashtbl.t;
  tp_order : string list ref; (* span names, first-seen order *)
  tp_instants : (string, int ref) Hashtbl.t;
  tp_counters : (string, int) Hashtbl.t; (* last value wins *)
  mutable tp_events : int;
}

type trace = {
  tr_path : string;
  tr_tracks : track_profile list; (* tid order *)
  tr_events : int;
  tr_min_ns : int;
  tr_max_ns : int;
  (* per-I/O Complete durations, keyed by event name (read:dev/write:dev) *)
  tr_io : (string, int list ref) Hashtbl.t;
  tr_io_order : string list ref;
}

(* a failed open raises Sys_error whose message already names the path,
   so it skips the load-error prefix below *)
let read_file path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in ic)
    (fun () -> really_input_string ic (in_channel_length ic))

let span_agg tp name =
  match Hashtbl.find_opt tp.tp_spans name with
  | Some a -> a
  | None ->
      let a = { a_count = 0; a_total = 0; a_self = 0 } in
      Hashtbl.add tp.tp_spans name a;
      tp.tp_order := name :: !(tp.tp_order);
      a

let is_io_event name =
  String.length name > 5
  && (String.sub name 0 5 = "read:" || String.sub name 0 6 = "write:")

(* Replay one track's records through a span stack, attributing child
   time to parents so self-time = total - children.  Complete events
   (per-I/O latencies) count as children of the enclosing span. *)
let process_track tp records trace =
  let stack = ref [] in
  List.iter
    (fun (r : Obs.Tracer.record) ->
      tp.tp_events <- tp.tp_events + 1;
      let open Obs.Tracer in
      match r.r_kind with
      | Begin -> stack := (r.r_name, r.r_ts_ns, ref 0) :: !stack
      | End -> (
          match !stack with
          | (name, ts0, kids) :: rest when name = r.r_name ->
              stack := rest;
              let dur = r.r_ts_ns - ts0 in
              let a = span_agg tp name in
              a.a_count <- a.a_count + 1;
              a.a_total <- a.a_total + dur;
              a.a_self <- a.a_self + dur - !kids;
              (match rest with (_, _, pk) :: _ -> pk := !pk + dur | [] -> ())
          | _ -> failwith (Printf.sprintf "unbalanced End event %S" r.r_name))
      | Instant -> (
          match Hashtbl.find_opt tp.tp_instants r.r_name with
          | Some c -> incr c
          | None -> Hashtbl.add tp.tp_instants r.r_name (ref 1))
      | Count -> Hashtbl.replace tp.tp_counters r.r_name r.r_value
      | Complete ->
          let a = span_agg tp r.r_name in
          a.a_count <- a.a_count + 1;
          a.a_total <- a.a_total + r.r_value;
          a.a_self <- a.a_self + r.r_value;
          (match !stack with (_, _, pk) :: _ -> pk := !pk + r.r_value | [] -> ());
          if is_io_event r.r_name then begin
            (match Hashtbl.find_opt trace.tr_io r.r_name with
            | Some l -> l := r.r_value :: !l
            | None ->
                trace.tr_io_order := r.r_name :: !(trace.tr_io_order);
                Hashtbl.add trace.tr_io r.r_name (ref [ r.r_value ]))
          end)
    records

let load path =
  let text = read_file path in
  let json =
    try Obs.Json.of_string text with Failure msg -> failwith ("not a trace (" ^ msg ^ ")")
  in
  let fields =
    match json with
    | Obs.Json.Obj f -> f
    | _ -> failwith "not a trace (top level is not an object)"
  in
  let events =
    match List.assoc_opt "traceEvents" fields with
    | Some (Obs.Json.List l) -> l
    | _ -> failwith "not a trace (missing traceEvents array)"
  in
  let names = Hashtbl.create 8 in
  (* tid -> track name, from thread_name metadata *)
  let by_tid = Hashtbl.create 8 in
  (* tid -> reversed record list *)
  let tid_order = ref [] in
  let n_records = ref 0 in
  let min_ns = ref max_int and max_ns = ref 0 in
  List.iter
    (fun ev ->
      let is_meta =
        match ev with
        | Obs.Json.Obj f -> List.assoc_opt "ph" f = Some (Obs.Json.Str "M")
        | _ -> false
      in
      if is_meta then begin
        match ev with
        | Obs.Json.Obj f -> (
            match (List.assoc_opt "tid" f, List.assoc_opt "args" f) with
            | Some (Obs.Json.Int tid), Some (Obs.Json.Obj a) -> (
                match List.assoc_opt "name" a with
                | Some (Obs.Json.Str n) -> Hashtbl.replace names tid n
                | _ -> failwith "metadata event without args.name")
            | _ -> failwith "metadata event without tid")
        | _ -> assert false
      end
      else begin
        let r, tid = Obs.Tracer.record_of_json ev in
        if r.Obs.Tracer.r_ts_ns < 0 then failwith "negative timestamp";
        incr n_records;
        if r.Obs.Tracer.r_ts_ns < !min_ns then min_ns := r.Obs.Tracer.r_ts_ns;
        let fin =
          r.Obs.Tracer.r_ts_ns
          + (match r.Obs.Tracer.r_kind with Obs.Tracer.Complete -> r.Obs.Tracer.r_value | _ -> 0)
        in
        if fin > !max_ns then max_ns := fin;
        match Hashtbl.find_opt by_tid tid with
        | Some l -> l := r :: !l
        | None ->
            tid_order := tid :: !tid_order;
            Hashtbl.add by_tid tid (ref [ r ])
      end)
    events;
  let trace =
    {
      tr_path = path;
      tr_tracks = [];
      tr_events = !n_records;
      tr_min_ns = (if !min_ns = max_int then 0 else !min_ns);
      tr_max_ns = !max_ns;
      tr_io = Hashtbl.create 8;
      tr_io_order = ref [];
    }
  in
  let tracks =
    List.rev_map
      (fun tid ->
        let name =
          match Hashtbl.find_opt names tid with
          | Some n -> n
          | None -> failwith (Printf.sprintf "track %d has no thread_name metadata" tid)
        in
        let tp =
          {
            tp_tid = tid;
            tp_name = name;
            tp_spans = Hashtbl.create 16;
            tp_order = ref [];
            tp_instants = Hashtbl.create 8;
            tp_counters = Hashtbl.create 8;
            tp_events = 0;
          }
        in
        process_track tp (List.rev !(Hashtbl.find by_tid tid)) trace;
        tp)
      !tid_order
  in
  { trace with tr_tracks = tracks }

let ms ns = float_of_int ns /. 1e6
let us ns = float_of_int ns /. 1e3

let dropped trace =
  List.fold_left
    (fun acc tp ->
      acc + match Hashtbl.find_opt tp.tp_counters "trace.dropped" with Some v -> v | None -> 0)
    0 trace.tr_tracks

(* --- self-profile --- *)

let top_spans trace =
  List.concat_map
    (fun tp ->
      List.rev_map (fun name -> (tp.tp_name, name, Hashtbl.find tp.tp_spans name)) !(tp.tp_order))
    trace.tr_tracks
  |> List.sort (fun (_, _, a) (_, _, b) -> compare b.a_self a.a_self)

let percentile sorted q =
  let n = Array.length sorted in
  if n = 0 then 0
  else begin
    let rank = int_of_float (ceil (q *. float_of_int n)) in
    let rank = if rank < 1 then 1 else if rank > n then n else rank in
    sorted.(rank - 1)
  end

let print_io trace =
  if !(trace.tr_io_order) <> [] then begin
    Printf.printf "\nio latency:\n";
    Printf.printf "  %-22s %8s %9s %9s %9s %9s %10s\n" "op:device" "n" "p50 us" "p90 us"
      "p99 us" "max us" "total ms";
    List.iter
      (fun name ->
        let durs = Array.of_list !(Hashtbl.find trace.tr_io name) in
        Array.sort compare durs;
        let total = Array.fold_left ( + ) 0 durs in
        Printf.printf "  %-22s %8d %9.2f %9.2f %9.2f %9.2f %10.3f\n" name (Array.length durs)
          (us (percentile durs 0.50))
          (us (percentile durs 0.90))
          (us (percentile durs 0.99))
          (us (if Array.length durs = 0 then 0 else durs.(Array.length durs - 1)))
          (ms total))
      (List.rev !(trace.tr_io_order))
  end

let print_instants trace =
  let rows =
    List.concat_map
      (fun tp ->
        Hashtbl.fold (fun name c acc -> (tp.tp_name, name, !c) :: acc) tp.tp_instants [])
      trace.tr_tracks
    |> List.sort compare
  in
  if rows <> [] then begin
    Printf.printf "\ninstants:\n";
    List.iter (fun (track, name, n) -> Printf.printf "  %-28s %6d  (%s)\n" name n track) rows
  end

let print_counters trace =
  let rows =
    List.concat_map
      (fun tp ->
        Hashtbl.fold
          (fun name v acc ->
            if name = "trace.dropped" then acc else (tp.tp_name, name, v) :: acc)
          tp.tp_counters [])
      trace.tr_tracks
    |> List.sort compare
  in
  if rows <> [] then begin
    Printf.printf "\ncounters:\n";
    List.iter
      (fun (track, name, v) -> Printf.printf "  %-28s %12d  (%s)\n" name v track)
      rows
  end

let print_profile top trace =
  Printf.printf "trace: %s\n" trace.tr_path;
  Printf.printf "timeline: %.3f ms, %d events, %d tracks, %d dropped\n"
    (ms (trace.tr_max_ns - trace.tr_min_ns))
    trace.tr_events (List.length trace.tr_tracks) (dropped trace);
  Printf.printf "\ntop spans by self time:\n";
  Printf.printf "  %-10s %-10s %7s  %-24s %s\n" "self ms" "total ms" "count" "name" "track";
  let rows = top_spans trace in
  List.iteri
    (fun i (track, name, a) ->
      if i < top then
        Printf.printf "  %-10.3f %-10.3f %7d  %-24s %s\n" (ms a.a_self) (ms a.a_total) a.a_count
          name track)
    rows;
  print_io trace;
  print_instants trace;
  print_counters trace

(* --- diff mode --- *)

(* span self/total summed across tracks, keyed by name *)
let merged_spans trace =
  let tbl = Hashtbl.create 32 in
  let order = ref [] in
  List.iter
    (fun tp ->
      List.iter
        (fun name ->
          let a = Hashtbl.find tp.tp_spans name in
          match Hashtbl.find_opt tbl name with
          | Some m ->
              m.a_count <- m.a_count + a.a_count;
              m.a_total <- m.a_total + a.a_total;
              m.a_self <- m.a_self + a.a_self
          | None ->
              Hashtbl.add tbl name { a_count = a.a_count; a_total = a.a_total; a_self = a.a_self };
              order := name :: !order)
        (List.rev !(tp.tp_order)))
    trace.tr_tracks;
  (tbl, List.rev !order)

let print_diff a b =
  Printf.printf "diff: %s (A) vs %s (B)\n" a.tr_path b.tr_path;
  let wa = a.tr_max_ns - a.tr_min_ns and wb = b.tr_max_ns - b.tr_min_ns in
  Printf.printf "timeline: A %.3f ms, B %.3f ms (%+.1f%%)\n" (ms wa) (ms wb)
    (if wa = 0 then 0. else 100. *. float_of_int (wb - wa) /. float_of_int wa);
  Printf.printf "events: A %d (%d tracks, %d dropped), B %d (%d tracks, %d dropped)\n" a.tr_events
    (List.length a.tr_tracks) (dropped a) b.tr_events (List.length b.tr_tracks) (dropped b);
  let ta, oa = merged_spans a in
  let tb, ob = merged_spans b in
  let names = oa @ List.filter (fun n -> not (Hashtbl.mem ta n)) ob in
  let zero () = { a_count = 0; a_total = 0; a_self = 0 } in
  let rows =
    List.map
      (fun n ->
        let ga = Option.value (Hashtbl.find_opt ta n) ~default:(zero ()) in
        let gb = Option.value (Hashtbl.find_opt tb n) ~default:(zero ()) in
        (n, ga, gb, gb.a_self - ga.a_self))
      names
    |> List.sort (fun (_, _, _, d1) (_, _, _, d2) -> compare (abs d2) (abs d1))
  in
  Printf.printf "\nspan self time (ms), sorted by |B-A|:\n";
  Printf.printf "  %-24s %10s %10s %10s %8s %8s\n" "name" "A self" "B self" "delta" "A n" "B n";
  List.iter
    (fun (n, ga, gb, d) ->
      Printf.printf "  %-24s %10.3f %10.3f %+10.3f %8d %8d\n" n (ms ga.a_self) (ms gb.a_self)
        (ms d) ga.a_count gb.a_count)
    rows

(* --- CLI --- *)

let run check top diff path =
  try
    let wrap p f = try f () with Failure msg -> failwith (p ^ ": " ^ msg) in
    let trace = wrap path (fun () -> load path) in
    (match diff with
    | Some other ->
        let other_trace = wrap other (fun () -> load other) in
        print_diff trace other_trace
    | None ->
        if check then
          Printf.printf "trace ok: %d events, %d tracks, %d dropped\n" trace.tr_events
            (List.length trace.tr_tracks) (dropped trace)
        else print_profile top trace);
    `Ok ()
  with Failure msg | Sys_error msg -> `Error (false, msg)

let cmd =
  let doc = "analyse nexsort --trace timelines (self-profile, I/O latency, trace diffs)" in
  let info = Cmd.info "nextrace" ~version:"1.0.0" ~doc in
  Cmd.v info
    Term.(
      ret
        (const run
        $ Arg.(
            value & flag
            & info [ "check" ] ~doc:"Validate the trace and print a one-line summary only.")
        $ Arg.(
            value & opt int 12
            & info [ "top" ] ~docv:"N" ~doc:"Rows in the top-spans table (default 12).")
        $ Arg.(
            value
            & opt (some string) None
            & info [ "diff" ] ~docv:"OTHER"
                ~doc:"Compare the trace against $(docv) (A = positional trace, B = $(docv)).")
        $ Arg.(required & pos 0 (some string) None & info [] ~docv:"TRACE")))

let () = exit (Cmd.eval cmd)
