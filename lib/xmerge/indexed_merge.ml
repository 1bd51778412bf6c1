module Key = Nexsort.Key
module Ordering = Nexsort.Ordering

type report = {
  matched_elements : int;
  index_entries : int;
  index_build_io : Extmem.Io_stats.t;
  left_io : Extmem.Io_stats.t;
  right_io : Extmem.Io_stats.t;
  index_io : Extmem.Io_stats.t;
  output_io : Extmem.Io_stats.t;
  total_io : Extmem.Io_stats.t;
  pager : Extmem.Btree.stats;
  wall_seconds : float;
  spans : Obs.Span.t;
}

(* index keys: (parent_off, child index), compared numerically so a range
   scan enumerates one element's children in document order *)
let encode_key parent_off index =
  let b = Buffer.create 8 in
  Extmem.Codec.put_varint b (parent_off + 1); (* root parent is -1 *)
  Extmem.Codec.put_varint b index;
  Buffer.contents b

let decode_key s =
  let c = Extmem.Codec.cursor s in
  let parent = Extmem.Codec.get_varint c - 1 in
  let index = Extmem.Codec.get_varint c in
  (parent, index)

let compare_keys a b =
  let pa, ia = decode_key a and pb, ib = decode_key b in
  let c = compare pa pb in
  if c <> 0 then c else compare ia ib

(* index values: an element child (tag, key, attrs, extent) or a text run *)
type entry =
  | Ielem of { name : string; key : Key.t; attrs : Xmlio.Event.attr list; off : int; until : int }
  | Itext of { off : int; len : int }

let encode_entry = function
  | Ielem { name; key; attrs; off; until } ->
      let b = Buffer.create 64 in
      Extmem.Codec.put_u8 b 0;
      Extmem.Codec.put_string b name;
      Key.encode b key;
      Extmem.Codec.put_varint b (List.length attrs);
      List.iter
        (fun (k, v) ->
          Extmem.Codec.put_string b k;
          Extmem.Codec.put_string b v)
        attrs;
      Extmem.Codec.put_varint b off;
      Extmem.Codec.put_varint b until;
      Buffer.contents b
  | Itext { off; len } ->
      let b = Buffer.create 8 in
      Extmem.Codec.put_u8 b 1;
      Extmem.Codec.put_varint b off;
      Extmem.Codec.put_varint b len;
      Buffer.contents b

let decode_entry s =
  let c = Extmem.Codec.cursor s in
  match Extmem.Codec.get_u8 c with
  | 0 ->
      let name = Extmem.Codec.get_string c in
      let key = Key.decode c in
      let n = Extmem.Codec.get_varint c in
      let rec attrs n acc =
        if n = 0 then List.rev acc
        else begin
          let k = Extmem.Codec.get_string c in
          let v = Extmem.Codec.get_string c in
          attrs (n - 1) ((k, v) :: acc)
        end
      in
      let attrs = attrs n [] in
      let off = Extmem.Codec.get_varint c in
      let until = Extmem.Codec.get_varint c in
      Ielem { name; key; attrs; off; until }
  | 1 ->
      let off = Extmem.Codec.get_varint c in
      let len = Extmem.Codec.get_varint c in
      Itext { off; len }
  | k -> raise (Extmem.Codec.Corrupt (Printf.sprintf "Indexed_merge: bad entry kind %d" k))

(* enumerate the indexed children of the element at [parent_off] *)
let children_of index parent_off =
  let acc = ref [] in
  Extmem.Btree.iter_from index (encode_key parent_off 0) (fun k v ->
      let p, _ = decode_key k in
      if p = parent_off then begin
        acc := decode_entry v :: !acc;
        true
      end
      else false);
  List.rev !acc

let merge_devices ~arena ~ordering ~left ~right ~output () =
  if not (Ordering.all_scan_evaluable ordering) then
    invalid_arg "Indexed_merge: ordering must be scan-evaluable";
  let t0 = Unix.gettimeofday () in
  (* larger blocks pack more index entries per page *)
  let index_dev = Extmem.Device_spec.(scratch default ~name:"index" ~block_size:4096) in
  let index = Extmem.Btree.create ~arena ~frames:8 ~cmp:compare_keys index_dev in
  Fun.protect ~finally:(fun () -> Extmem.Btree.close index) @@ fun () ->
  let io_meter () =
    Extmem.Io_stats.add
      (Extmem.Io_stats.add
         (Extmem.Io_stats.snapshot (Extmem.Device.stats left))
         (Extmem.Io_stats.snapshot (Extmem.Device.stats right)))
      (Extmem.Io_stats.add
         (Extmem.Io_stats.snapshot (Extmem.Device.stats index_dev))
         (Extmem.Io_stats.snapshot (Extmem.Device.stats output)))
  in
  let spans = Obs.Spans.create ~io:io_meter "indexed_merge" in
  (* ---- build: one sequential pass over the right document ---- *)
  let entries = ref 0 in
  Obs.Spans.with_span spans "index_build" (fun () ->
      Subdoc.walk right
        ~on_element:(fun ~parent_off ~index:i ~name ~attrs ~off ~until ->
          incr entries;
          Extmem.Btree.insert index ~key:(encode_key parent_off i)
            ~value:(encode_entry
                      (Ielem { name; key = Subdoc.key_of ordering name attrs; attrs; off; until })))
        ~on_text:(fun ~parent_off ~index:i ~off ~len ->
          incr entries;
          Extmem.Btree.insert index ~key:(encode_key parent_off i)
            ~value:(encode_entry (Itext { off; len })));
      Extmem.Btree.flush index);
  let index_build_io = Extmem.Io_stats.snapshot (Extmem.Device.stats index_dev) in
  (* ---- merge: left streamed, right resolved through the index ---- *)
  let out = Extmem.Block_writer.create output in
  let matched_count = ref 0 in
  (* right element reference: (attrs, own offset) — children come from the
     index keyed by the offset *)
  let rec merge_elements loff (rattrs, roff) =
    let lname, lattrs, lchildren, _ = Subdoc.parse_shallow left loff in
    incr matched_count;
    Subdoc.write_start_tag out lname (Subdoc.union_attrs lattrs rattrs);
    let rchildren = children_of index roff in
    let rmatched = Array.make (List.length rchildren) false in
    List.iter
      (fun lc ->
        match lc with
        | Subdoc.Text { off; len } -> Subdoc.copy_range left ~off ~until:(off + len) out
        | Subdoc.Elem { off; name; attrs } -> (
            let k = Subdoc.key_of ordering name attrs in
            let rec find i = function
              | [] -> None
              | Ielem r :: _
                when (not rmatched.(i)) && r.name = name && Key.compare r.key k = 0 ->
                  Some (i, (r.attrs, r.off))
              | _ :: rest -> find (i + 1) rest
            in
            match find 0 rchildren with
            | Some (i, rref) ->
                rmatched.(i) <- true;
                merge_elements off rref
            | None -> Subdoc.copy_range left ~off ~until:(Subdoc.subtree_end left off) out))
      lchildren;
    List.iteri
      (fun i rc ->
        match rc with
        | Itext { off; len } -> Subdoc.copy_range right ~off ~until:(off + len) out
        | Ielem { off; until; _ } ->
            if not rmatched.(i) then Subdoc.copy_range right ~off ~until out)
      rchildren;
    Extmem.Block_writer.write_string out (Printf.sprintf "</%s>" lname)
  in
  (* the root's reference comes from the index's (-1, 0) entry *)
  Obs.Spans.with_span spans "probe_merge" (fun () ->
      match children_of index (-1) with
      | [ Ielem root ] -> merge_elements 0 (root.attrs, root.off)
      | _ -> invalid_arg "Indexed_merge: right document has no single root");
  let extent = Extmem.Block_writer.close out in
  Extmem.Device.set_byte_length output extent.Extmem.Extent.bytes;
  let left_io = Extmem.Io_stats.snapshot (Extmem.Device.stats left) in
  let right_io = Extmem.Io_stats.snapshot (Extmem.Device.stats right) in
  let index_io = Extmem.Io_stats.snapshot (Extmem.Device.stats index_dev) in
  let output_io = Extmem.Io_stats.snapshot (Extmem.Device.stats output) in
  {
    matched_elements = !matched_count;
    index_entries = !entries;
    index_build_io;
    left_io;
    right_io;
    index_io;
    output_io;
    total_io =
      Extmem.Io_stats.add left_io
        (Extmem.Io_stats.add right_io (Extmem.Io_stats.add index_io output_io));
    pager = Extmem.Btree.stats index;
    wall_seconds = Unix.gettimeofday () -. t0;
    spans = Obs.Spans.close spans;
  }
