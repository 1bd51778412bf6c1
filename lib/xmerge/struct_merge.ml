module Key = Nexsort.Key
module Ordering = Nexsort.Ordering

exception Not_sorted of string

type behaviour =
  | Merge
  | Take_right
  | Drop

type report = {
  left_events : int;
  right_events : int;
  output_events : int;
  matched_elements : int;
  spans : Obs.Span.t;
}

(* One-token-lookahead stream.  Adjacent text events are read as one:
   a sorted stream splits a text run wherever a keyed element moved out
   of it, and a parser would read the same run whole, so texts compare
   as runs.  [behind] holds the event that ended a run. *)
type stream = {
  next_fn : unit -> Xmlio.Event.t option;
  mutable ahead : Xmlio.Event.t option option;
  mutable behind : Xmlio.Event.t option option;
  mutable consumed : int;
}

let stream next_fn = { next_fn; ahead = None; behind = None; consumed = 0 }

let pull s =
  match s.behind with
  | Some e ->
      s.behind <- None;
      e
  | None -> s.next_fn ()

let peek s =
  match s.ahead with
  | Some e -> e
  | None ->
      let e =
        match pull s with
        | Some (Xmlio.Event.Text t) ->
            let rec run acc =
              match s.next_fn () with
              | Some (Xmlio.Event.Text u) -> run (u :: acc)
              | next ->
                  s.behind <- Some next;
                  Some (Xmlio.Event.Text (String.concat "" (List.rev acc)))
            in
            run [ t ]
        | e -> e
      in
      s.ahead <- Some e;
      e

let advance s =
  let e = peek s in
  s.ahead <- None;
  (match e with Some _ -> s.consumed <- s.consumed + 1 | None -> ());
  e

let key_of_start ordering name attrs =
  match Ordering.key_of_start ordering name attrs with
  | Some k -> k
  | None -> invalid_arg "Struct_merge: ordering must be scan-evaluable"

(* Sorted documents order equal-key siblings by document position, which
   is not comparable across documents.  The merge therefore decides by key
   alone: equal keys with equal tags match; equal keys with different tags
   take the left side first (full matching under duplicate keys would need
   buffering — the paper assumes keys unique among siblings). *)
let compare_child (ka, na) (kb, nb) =
  let c = Key.compare ka kb in
  if c <> 0 then c else if String.equal na nb then 0 else -1

(* sortedness is checked on keys only, matching the (key, position) order
   the sorter produces *)
let check_key_order prev cur = Key.compare (fst prev) (fst cur) <= 0

let copy_subtree s emit =
  (* s is positioned at a Start; copy events until its matching End *)
  let rec go depth =
    match advance s with
    | None -> raise (Not_sorted "unexpected end of stream while copying a subtree")
    | Some (Xmlio.Event.Start _ as e) ->
        emit e;
        go (depth + 1)
    | Some (Xmlio.Event.End _ as e) ->
        emit e;
        if depth > 1 then go (depth - 1)
    | Some (Xmlio.Event.Text _ as e) ->
        emit e;
        go depth
  in
  go 0

let skip_subtree s =
  let rec go depth =
    match advance s with
    | None -> raise (Not_sorted "unexpected end of stream while skipping a subtree")
    | Some (Xmlio.Event.Start _) -> go (depth + 1)
    | Some (Xmlio.Event.End _) -> if depth > 1 then go (depth - 1)
    | Some (Xmlio.Event.Text _) -> go depth
  in
  go 0

let union_attrs left right =
  left @ List.filter (fun (k, _) -> not (List.mem_assoc k left)) right

let merge_events ?(on_match = fun ~left_attrs:_ ~right_attrs:_ -> Merge)
    ?(rewrite_attrs = fun attrs -> attrs) ?io ?tracer ~ordering ~left ~right ~emit () =
  if not (Ordering.all_scan_evaluable ordering) then
    invalid_arg "Struct_merge: ordering must be scan-evaluable";
  let spans = Obs.Spans.create ?io ?tracer "struct_merge" in
  let l = stream left and r = stream right in
  let output_events = ref 0 in
  let matched = ref 0 in
  let emit e =
    incr output_events;
    emit e
  in
  let check_sorted side prev cur =
    if not (check_key_order prev cur) then
      raise
        (Not_sorted
           (Printf.sprintf "%s input: children out of order (%s after %s)" side (snd cur)
              (snd prev)))
  in
  (* a text child may only follow siblings in the Null run *)
  let text_mark = Some (Key.Null, "#text") in
  let check_text = function
    | Some (k, _) when Key.compare k Key.Null > 0 ->
        raise (Not_sorted "text child after element children")
    | Some _ | None -> ()
  in
  (* both streams positioned at matching Start events *)
  let rec merge_matched () =
    match (advance l, advance r) with
    | Some (Xmlio.Event.Start (n1, a1)), Some (Xmlio.Event.Start (n2, a2)) ->
        if n1 <> n2 then
          invalid_arg (Printf.sprintf "Struct_merge: mismatched roots <%s> vs <%s>" n1 n2);
        incr matched;
        emit (Xmlio.Event.Start (n1, rewrite_attrs (union_attrs a1 a2)));
        merge_children None None;
        emit (Xmlio.Event.End n1)
    | _ -> invalid_arg "Struct_merge: inputs must each contain a root element"
  (* Merge the remaining children of the currently open pair;
     [prev_l]/[prev_r] are the last seen (key, tag) for sortedness checks.
     Text children carry [Key.Null], as do elements without a key, and
     both tie-break by document position: a side's Null run may mix them
     in any order, but no text may follow a keyed element.  Within the
     runs the left side goes first, a text equal on both sides is kept
     once, and null-keyed elements with equal tags match. *)
  and merge_children prev_l prev_r =
    let head s =
      match peek s with
      | Some (Xmlio.Event.Start (n, a)) -> `Elem (key_of_start ordering n a, n, a)
      | Some (Xmlio.Event.Text t) -> `Text t
      | Some (Xmlio.Event.End _) -> `Done
      | None -> raise (Not_sorted "unexpected end of stream inside an element")
    in
    let check side prev = function
      | `Elem (k, n, _) -> Option.iter (fun p -> check_sorted side p (k, n)) prev
      | `Text _ -> check_text prev
      | `Done -> ()
    in
    let hl, hr = (head l, head r) in
    check "left" prev_l hl;
    check "right" prev_r hr;
    match (hl, hr) with
    | `Done, `Done ->
        ignore (advance l);
        ignore (advance r)
    | (`Elem _ | `Text _), `Done ->
        copy_rest "left" l prev_l;
        ignore (advance r)
    | `Done, (`Elem _ | `Text _) ->
        copy_rest "right" r prev_r;
        ignore (advance l)
    | `Text t1, `Text t2 ->
        ignore (advance l);
        emit (Xmlio.Event.Text t1);
        if String.equal t1 t2 then begin
          ignore (advance r);
          merge_children text_mark text_mark
        end
        else merge_children text_mark prev_r
    | `Text t, `Elem _ ->
        ignore (advance l);
        emit (Xmlio.Event.Text t);
        merge_children text_mark prev_r
    | `Elem (k, n, _), `Text t ->
        if Key.compare k Key.Null <= 0 then begin
          copy_subtree l emit;
          merge_children (Some (k, n)) prev_r
        end
        else begin
          ignore (advance r);
          emit (Xmlio.Event.Text t);
          merge_children prev_l text_mark
        end
    | `Elem (k1, n1, _), `Elem (k2, n2, a2) ->
        let c = compare_child (k1, n1) (k2, n2) in
        if c < 0 then begin
          copy_subtree l emit;
          merge_children (Some (k1, n1)) prev_r
        end
        else if c > 0 then begin
          copy_subtree_rewritten r;
          merge_children prev_l (Some (k2, n2))
        end
        else begin
          (match on_match ~left_attrs:(match peek l with
             | Some (Xmlio.Event.Start (_, a)) -> a
             | _ -> assert false) ~right_attrs:a2 with
          | Merge -> merge_matched ()
          | Take_right ->
              skip_subtree l;
              copy_subtree_rewritten r
          | Drop ->
              skip_subtree l;
              skip_subtree r);
          merge_children (Some (k1, n1)) (Some (k2, n2))
        end
  (* copy all remaining children of the open element on one stream,
     consuming its End; keeps checking sibling order *)
  and copy_rest side s prev =
    let rec go prev =
      match peek s with
      | Some (Xmlio.Event.Start (n, a)) ->
          let mark = (key_of_start ordering n a, n) in
          Option.iter (fun p -> check_sorted side p mark) prev;
          if s == r then copy_subtree_rewritten s else copy_subtree s emit;
          go (Some mark)
      | Some (Xmlio.Event.Text _ as e) ->
          check_text prev;
          ignore (advance s);
          emit e;
          go text_mark
      | Some (Xmlio.Event.End _) -> ignore (advance s)
      | None -> raise (Not_sorted "unexpected end of stream inside an element")
    in
    go prev
  (* right-side subtrees go through rewrite_attrs on their start tags *)
  and copy_subtree_rewritten s =
    let rec go depth =
      match advance s with
      | None -> raise (Not_sorted "unexpected end of stream while copying a subtree")
      | Some (Xmlio.Event.Start (n, a)) ->
          emit (Xmlio.Event.Start (n, rewrite_attrs a));
          go (depth + 1)
      | Some (Xmlio.Event.End _ as e) ->
          emit e;
          if depth > 1 then go (depth - 1)
      | Some (Xmlio.Event.Text _ as e) ->
          emit e;
          go depth
    in
    go 0
  in
  Obs.Spans.with_span spans "merge" (fun () ->
      merge_matched ();
      match (peek l, peek r) with
      | None, None -> ()
      | _ -> raise (Not_sorted "trailing events after the root element"));
  {
    left_events = l.consumed;
    right_events = r.consumed;
    output_events = !output_events;
    matched_elements = !matched;
    spans = Obs.Spans.close spans;
  }

let merge_strings ~ordering left right =
  let pl = Xmlio.Parser.of_string left and pr = Xmlio.Parser.of_string right in
  let buf = Buffer.create (String.length left + String.length right) in
  let writer = Xmlio.Writer.to_buffer buf in
  let report =
    merge_events ~ordering
      ~left:(fun () -> Xmlio.Parser.next pl)
      ~right:(fun () -> Xmlio.Parser.next pr)
      ~emit:(Xmlio.Writer.event writer) ()
  in
  Xmlio.Writer.close writer;
  (Buffer.contents buf, report)

type 'r pass =
  io:(unit -> Extmem.Io_stats.t) ->
  tracer:Obs.Tracer.t ->
  ordering:Ordering.t ->
  left:(unit -> Xmlio.Event.t option) ->
  right:(unit -> Xmlio.Event.t option) ->
  emit:(Xmlio.Event.t -> unit) ->
  'r

let merge ~io ~tracer ~ordering ~left ~right ~emit =
  merge_events ~io ~tracer ~ordering ~left ~right ~emit ()

(* The one output tail of every device merge: [pass] writes [output]
   through a block writer, metered over all three devices. *)
let write_pass pass ~tracer ~ordering ~left ~right ~output next_l next_r =
  let bw = Extmem.Block_writer.create output in
  let writer = Xmlio.Writer.to_block_writer bw in
  let stats d = Extmem.Io_stats.snapshot (Extmem.Device.stats d) in
  let io () = Extmem.Io_stats.add (Extmem.Io_stats.add (stats left) (stats right)) (stats output) in
  let r = pass ~io ~tracer ~ordering ~left:next_l ~right:next_r ~emit:(Xmlio.Writer.event writer) in
  Xmlio.Writer.close writer;
  let extent = Extmem.Block_writer.close bw in
  Extmem.Device.set_byte_length output extent.Extmem.Extent.bytes;
  r

let parse dev =
  let p = Xmlio.Parser.of_reader (Extmem.Block_reader.of_device dev) in
  fun () -> Xmlio.Parser.next p

let merge_devices ?(tracer = Obs.Tracer.null) ~pass ~ordering ~left ~right ~output () =
  write_pass pass ~tracer ~ordering ~left ~right ~output (parse left) (parse right)

(* Fused, each input is a sorted event stream whose root merge runs
   lazily as the pass pulls: no sorted document is materialised. *)
let sort_and_merge_devices ?(fuse = true) ~sessions:(sess_l, sess_r) ~pass ~ordering ~left ~right
    ~output () =
  let tracer = sess_l.Nexsort.Session.config.Nexsort.Config.tracer in
  if fuse then begin
    let opened session input = Nexsort.open_stream ~session ~ordering ~input () in
    let finish s () = ignore (Nexsort.stream_finish s) in
    let sl = opened sess_l left in
    Fun.protect ~finally:(finish sl) (fun () ->
        let sr = opened sess_r right in
        Fun.protect ~finally:(finish sr) (fun () ->
            write_pass pass ~tracer ~ordering ~left ~right ~output
              (fun () -> Nexsort.stream_events sl)
              (fun () -> Nexsort.stream_events sr)))
  end
  else begin
    (* unfused: sort both onto scratch devices, then merge those *)
    let sorted name (session : Nexsort.Session.t) input =
      let d = Nexsort.Config.scratch_device session.Nexsort.Session.config ~name in
      ignore (Nexsort.sort_device ~session ~ordering ~input ~output:d ());
      d
    in
    let left = sorted "sorted-left" sess_l left in
    let right = sorted "sorted-right" sess_r right in
    merge_devices ~tracer ~pass ~ordering ~left ~right ~output ()
  end

let sort_and_merge_strings ?(config = Nexsort.Config.make ()) ?fuse ~ordering left right =
  let block_size = config.Nexsort.Config.block_size in
  let output = Extmem.Device.in_memory ~name:"output" ~block_size () in
  let report =
    Engine.with_session_pair config (fun sessions ->
        sort_and_merge_devices ?fuse ~sessions ~pass:merge ~ordering
          ~left:(Extmem.Device.of_string ~name:"left" ~block_size left)
          ~right:(Extmem.Device.of_string ~name:"right" ~block_size right)
          ~output ())
  in
  (Extmem.Device.contents output, report)
