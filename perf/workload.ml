(* The four workloads: their documents, sizes and flags, and the inputs
   each one generates from the seed.

   - deep: the paper's home regime.  A tall, bushy document whose
     subtrees fit in memory, so thousands of in-memory subtree sorts and
     sorted-run I/O do the work; external sorts and stack paging are
     nearly idle.
   - flat: one root with 100,000 children.  Nothing collapses before
     memory fills, so graceful degeneration does the work: fragment runs,
     the external merge and path-stack paging.
   - ingest: the write path.  A sorted base kept live under 32 update
     documents through the external priority queue and one-pass batch
     merges.
   - tenants: the daemon.  Four 1 MB jobs per round from two tenants
     through a two-slot engine; every job fits in memory, so fixed
     per-job costs (admission, queueing, session set-up, domains) and GC
     contention dominate. *)

type name =
  | Deep
  | Flat
  | Ingest
  | Tenants

let all = [ Deep; Flat; Ingest; Tenants ]

let to_string = function
  | Deep -> "deep"
  | Flat -> "flat"
  | Ingest -> "ingest"
  | Tenants -> "tenants"

let of_string s = List.find_opt (fun w -> to_string w = s) all

type scale =
  | Full
  | Smoke  (** about 1/20 of full scale, for the runtest check *)

(* Document shapes as exact per-level fan-outs (Xmlgen's Table 2
   generator).  Deep is the F5 shape extended one level (102,643
   elements, 15.5 MB, height 8); the ingest base is 10,000 top-level
   records of 4 children (50,001 elements, 7.6 MB); the tenants
   document is 6,739 elements (1.0 MB). *)
let fanouts w scale =
  match (w, scale) with
  | Deep, Full -> [ 6; 6; 6; 6; 6; 4; 2 ]
  | Deep, Smoke -> [ 6; 6; 6; 4; 2; 2 ]
  | Flat, Full -> [ 100_000 ]
  | Flat, Smoke -> [ 5_000 ]
  | Ingest, Full -> [ 10_000; 4 ]
  | Ingest, Smoke -> [ 500; 4 ]
  | Tenants, Full -> [ 6; 6; 6; 6; 4 ]
  | Tenants, Smoke -> [ 6; 6; 6; 4 ]

type ingest_plan = {
  docs : int;
  ops_per_doc : int;
  flush_every : int;
}

let ingest_plan = function
  | Full -> { docs = 32; ops_per_doc = 16; flush_every = 8 }
  | Smoke -> { docs = 4; ops_per_doc = 8; flush_every = 2 }

(* Block size and memory blocks of the sort each workload's document
   goes through: the user command for deep, flat and tenants jobs; for
   ingest, the base load at the ingest CLI's default geometry.  Deep and
   flat use 16 KiB of memory so the document is ~1,000x memory. *)
let geometry = function
  | Deep | Flat -> (1024, 16)
  | Ingest -> (4096, 64)
  | Tenants -> (4096, 512)

let ordering_spec = "@id"

let ordering = Nexsort.Ordering.of_spec_string ordering_spec

let sort_flags w =
  let b, m = geometry w in
  [ "-B"; string_of_int b; "-M"; string_of_int m; "-O"; ordering_spec ]

let sort_config w =
  let b, m = geometry w in
  Nexsort.Config.make ~block_size:b ~memory_blocks:m ()

(* The daemon admits exactly two of the 2 MB jobs at a time. *)
let daemon_flags = [ "--memory"; "1100"; "--block-size"; "4096" ]

let jobs_per_round = 4

(* Rounds each daemon serves before it is stopped and a fresh one started. *)
let rounds_per_daemon = function Full -> 16 | Smoke -> 3

let tenant_of_job j = if j mod 2 = 0 then "a" else "b"

(* ---- generated inputs ---- *)

type inputs = {
  doc : string;  (** file holding the document the sort layers see *)
  xml : string;  (** its contents *)
  doc_events : int;  (** parser events in [xml] *)
  one : string;  (** one-element document, for start-up set-up runs *)
  updates : string list;  (** ingest update documents, in arrival order *)
  empty_update : string;  (** ingest update document with no operations *)
  expected : string;  (** ingest: the base with every update applied *)
  update_bytes : int;
  update_events : int;
  md5 : string;  (** digest over every generated input *)
}

let write_file path s =
  let oc = open_out_bin path in
  Fun.protect ~finally:(fun () -> close_out oc) (fun () -> output_string oc s)

let read_file path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in ic)
    (fun () -> really_input_string ic (in_channel_length ic))

let count_events xml =
  let p = Xmlio.Parser.of_string xml in
  let n = ref 0 in
  while Xmlio.Parser.next_packed p <> None do
    incr n
  done;
  !n

(* Update documents against the top-level records of [xml]: half upserts
   of fresh ids, a quarter replaces and a quarter deletes, each existing
   record touched at most once (records whose id occurs more than once
   are never touched, so the expected result is unambiguous).  Returns
   the update documents, the empty update and the expected document.
   The expected document is in base order; the validator's digest is
   invariant under sibling order. *)
let make_updates ~seed ~docs ~ops_per_doc xml =
  let open Xmlio.Tree in
  let rng = Xmlgen.Splitmix.create ((seed * 1_000_003) + 17) in
  let root =
    match of_string xml with
    | Element e -> e
    | Text _ -> invalid_arg "make_updates: text root"
  in
  let elements l = List.filter_map (function Element e -> Some e | Text _ -> None) l in
  let tops = elements root.children in
  let id e = Option.value (List.assoc_opt "id" e.attrs) ~default:"" in
  let seen = Hashtbl.create 1024 in
  List.iter (fun e -> Hashtbl.replace seen (id e) (1 + Option.value (Hashtbl.find_opt seen (id e)) ~default:0)) tops;
  let unique = Array.of_list (List.filter (fun e -> Hashtbl.find seen (id e) = 1) tops) in
  for i = Array.length unique - 1 downto 1 do
    let j = Xmlgen.Splitmix.int rng (i + 1) in
    let t = unique.(i) in
    unique.(i) <- unique.(j);
    unique.(j) <- t
  done;
  let next_existing = ref 0 in
  let fresh = ref 1_000_000 (* generated ids are below 10^6 *) in
  let rec_name, kid_name, kids =
    match tops with
    | e :: _ ->
        let ks = elements e.children in
        (e.name, (match ks with k :: _ -> k.name | [] -> "n3"), max 1 (List.length ks))
    | [] -> ("n2", "n3", 4)
  in
  let pad () = String.init (Xmlgen.Splitmix.in_range rng 90 150) (fun _ -> Xmlgen.Splitmix.letter rng) in
  let record rid =
    {
      name = rec_name;
      attrs = [ ("id", rid); ("pad", pad ()) ];
      children =
        List.init kids (fun _ ->
            Element
              {
                name = kid_name;
                attrs =
                  [ ("id", string_of_int (Xmlgen.Splitmix.int rng 1_000_000)); ("pad", pad ()) ];
                children = [ Text (Printf.sprintf "v%d" (Xmlgen.Splitmix.int rng 100_000)) ];
              });
    }
  in
  let replaced = Hashtbl.create 64 and deleted = Hashtbl.create 64 in
  let upserts = ref [] in
  let op k =
    let existing () =
      if !next_existing < Array.length unique then begin
        incr next_existing;
        Some (id unique.(!next_existing - 1))
      end
      else None
    in
    let upsert () =
      incr fresh;
      let r = record (string_of_int !fresh) in
      upserts := r :: !upserts;
      Element r
    in
    match k mod 4 with
    | 2 -> (
        match existing () with
        | Some rid ->
            let r = record rid in
            Hashtbl.replace replaced rid r;
            Element { r with attrs = (Xmerge.Batch_update.op_attr, "replace") :: r.attrs }
        | None -> upsert ())
    | 3 -> (
        match existing () with
        | Some rid ->
            Hashtbl.replace deleted rid ();
            Element
              { name = rec_name; attrs = [ (Xmerge.Batch_update.op_attr, "delete"); ("id", rid) ];
                children = [] }
        | None -> upsert ())
    | _ -> upsert ()
  in
  let updates =
    List.init docs (fun _ ->
        to_string (Element { root with children = List.init ops_per_doc op }))
  in
  let survivors =
    List.filter_map
      (fun e ->
        if Hashtbl.mem deleted (id e) then None
        else Some (Element (Option.value (Hashtbl.find_opt replaced (id e)) ~default:e)))
      tops
  in
  let expected =
    to_string
      (Element
         { root with children = survivors @ List.rev_map (fun r -> Element r) !upserts })
  in
  (updates, to_string (Element { root with children = [] }), expected)

let doc_string ~seed fanouts =
  Xmlgen.Gen.to_string (fun sink -> Xmlgen.Gen.exact_shape ~seed ~fanouts sink)

(* Generate [w]'s inputs from [seed] into the current directory. *)
let generate ~scale ~seed w =
  let xml, st = doc_string ~seed (fanouts w scale) in
  write_file "doc.xml" xml;
  let one, _ = doc_string ~seed [] in
  write_file "one.xml" one;
  let doc_events = (2 * st.Xmlgen.Gen.elements) + st.Xmlgen.Gen.text_nodes in
  let updates, empty_update, expected =
    match w with
    | Ingest ->
        let plan = ingest_plan scale in
        make_updates ~seed ~docs:plan.docs ~ops_per_doc:plan.ops_per_doc xml
    | Deep | Flat | Tenants -> ([], "", "")
  in
  let names = List.mapi (fun i u -> let f = Printf.sprintf "u%02d.xml" (i + 1) in write_file f u; f) updates in
  if empty_update <> "" then write_file "empty.xml" empty_update;
  {
    doc = "doc.xml";
    xml;
    doc_events;
    one = "one.xml";
    updates = names;
    empty_update = "empty.xml";
    expected;
    update_bytes = List.fold_left (fun a u -> a + String.length u) 0 updates;
    update_events = List.fold_left (fun a u -> a + count_events u) 0 updates;
    md5 = Digest.to_hex (Digest.string (String.concat "\000" (xml :: one :: updates)));
  }
