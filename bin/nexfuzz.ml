(* nexfuzz: oracle-backed differential fuzzing of the XML sorters.

   Each differential case generates a pathological document, sorts it with
   NEXSORT and the baselines across a sampled config matrix (block size,
   memory budget, fusion, encoding, device spec), and
   demands byte-identical agreement with the in-memory reference oracle
   plus a pass through the independent streaming validator and the
   resource-invariant probes.

   Fault-schedule cases re-run the sorter under deterministic fault
   injection — seeded random faults on the internal devices, fail-the-Nth
   write/read on an endpoint, a torn block at a chosen offset — and demand
   that every run either completes with validated output or aborts with
   the typed [Device.Fault], with the memory budget fully restored either
   way.

   A failing case greedily shrinks its document and prints a reproducer
   command line. *)

open Cmdliner
module Ordering = Nexsort.Ordering

(* ------------------------------------------------------------------ *)
(* Config matrix *)

type case_config = {
  ordering_spec : string;
  ordering : Ordering.t;
  config : Nexsort.Config.t;
  cli_flags : string;  (* equivalent nexsort(1) flags, for the reproducer *)
}

let orderings =
  [| "@id"; "tag"; "text"; "(@id;tag)"; "-@id" |]

let differential_config ~seed i =
  let rng = Xmlgen.Splitmix.create (seed + (7919 * i)) in
  let fuse = i / 4 mod 2 = 0 in
  let ordering_spec = orderings.(i mod Array.length orderings) in
  let ordering = Ordering.of_spec_string ordering_spec in
  let scan = Ordering.all_scan_evaluable ordering in
  let block_size = [| 512; 1024; 4096 |].(Xmlgen.Splitmix.int rng 3) in
  let memory_blocks = [| 8; 16; 64 |].(Xmlgen.Splitmix.int rng 3) in
  (* [None]: no encoding given, so the config resolves it from the
     ordering (packed when scan-evaluable, dict otherwise) *)
  let encoding =
    match i mod 6 with
    | 0 when scan -> Some Nexsort.Config.Packed
    | 1 | 4 -> None
    | 3 -> Some Nexsort.Config.Plain
    | _ -> Some Nexsort.Config.Dict
  in
  let depth_limit = if i mod 7 = 5 then Some 2 else None in
  let device =
    if i mod 3 = 0 then Extmem.Device_spec.parse "traced/mem" else Extmem.Device_spec.default
  in
  (* the device (i mod 3) and fusion (i / 4 mod 2) picks are
     decorrelated: over a 12-case cycle every (device, fuse) combination
     appears *)
  let config =
    Nexsort.Config.make ~block_size ~memory_blocks ?depth_limit ~root_fusion:fuse ?encoding
      ~ordering ~device ()
  in
  let cli_flags =
    Printf.sprintf "-O '%s' -B %d -M %d%s%s%s%s" ordering_spec block_size memory_blocks
      (match encoding with
      | None -> ""
      | Some Plain -> " --encoding plain"
      | Some Dict -> " --encoding dict"
      | Some Packed -> " --encoding packed")
      (if fuse then "" else " --no-fuse")
      (match depth_limit with None -> "" | Some d -> Printf.sprintf " -d %d" d)
      (if i mod 3 = 0 then " --device traced/mem" else "")
  in
  { ordering_spec; ordering; config; cli_flags }

(* ------------------------------------------------------------------ *)
(* One differential case *)

let to_xml t = Xmlio.Writer.events_to_string (Xmlio.Tree.to_events t)

let element_tags doc =
  let p = Xmlio.Parser.of_string doc in
  let rec go acc =
    match Xmlio.Parser.next p with
    | None -> List.rev acc
    | Some (Xmlio.Event.Start (n, _)) -> go (if List.mem n acc then acc else n :: acc)
    | Some _ -> go acc
  in
  go []

let probe_failures () =
  match Verify.Probes.violations () with
  | [] -> Ok ()
  | v -> Error ("resource probes: " ^ String.concat "; " v)

(* Every run is read once and each of its blocks freed as it is read, so
   a completed sort leaves its runs device empty. *)
let runs_device_empty (r : Nexsort.report) =
  let ( let* ) = Option.bind in
  match
    let* gauges = Obs.Json.member "gauges" r.Nexsort.metrics in
    let* live = Obs.Json.member "dev.runs.live_blocks" gauges in
    Obs.Json.member "value" live
  with
  | Some (Obs.Json.Int 0) -> Ok ()
  | Some v -> Error ("runs device not empty after the sort: live blocks " ^ Obs.Json.to_string v)
  | None -> Error "the report carries no dev.runs.live_blocks gauge"

(* The per-document test behind both the case runner and the shrinker:
   every comparison that can fail, first failure wins. *)
let test_document cc doc =
  let { ordering; config; _ } = cc in
  let depth_limit = config.Nexsort.Config.depth_limit in
  let ( >>= ) r f = Result.bind r f in
  let scan = Ordering.all_scan_evaluable ordering in
  match Verify.Oracle.sort_string ?depth_limit ordering doc with
  | exception e -> Error ("oracle raised " ^ Printexc.to_string e)
  | expected -> (
      Verify.Probes.clear ();
      (match Engine.sort_string ~config ~ordering doc with
      | exception e -> Error ("nexsort raised " ^ Printexc.to_string e)
      | out, report ->
          if out <> expected then Error "nexsort output differs from oracle"
          else runs_device_empty report)
      >>= fun () ->
      probe_failures () >>= fun () ->
      (match Verify.Validator.check ?depth_limit ~ordering ~input:doc
               (fst (Engine.sort_string ~config ~ordering doc))
       with
      | Ok () -> Ok ()
      | Error e -> Error ("validator rejects nexsort output: " ^ e))
      >>= fun () ->
      (match Baselines.Tree_sort.sort_string ?depth_limit ordering doc with
      | exception e -> Error ("treesort raised " ^ Printexc.to_string e)
      | out -> if out <> expected then Error "treesort output differs from oracle" else Ok ())
      >>= fun () ->
      (if scan && depth_limit = None then
         match Baselines.Keypath_sort.sort_string ~config ~ordering doc with
         | exception e -> Error ("keypath mergesort raised " ^ Printexc.to_string e)
         | out, _ ->
             if out <> expected then Error "keypath mergesort output differs from oracle"
             else Ok ()
       else Ok ())
      >>= fun () ->
      if scan && depth_limit = None then
        (* every element tag targeted: XSort's innermost-first one-level
           sorts compose to the full recursive sort *)
        match Baselines.Xsort.sort_string ~config ~ordering ~targets:(element_tags doc) doc with
        | exception e -> Error ("xsort raised " ^ Printexc.to_string e)
        | out, _ -> if out <> expected then Error "xsort output differs from oracle" else Ok ()
      else Ok ())

(* ------------------------------------------------------------------ *)
(* Shrinking: greedily delete one subtree at a time while the failure
   persists.  Documents are <= a few hundred elements, so the quadratic
   sweep is fine; [fuel] bounds re-runs of the (multi-sort) predicate. *)

let remove_nth k l = List.filteri (fun i _ -> i <> k) l

let replace_nth k x l = List.mapi (fun i y -> if i = k then x else y) l

let rec removals t =
  match t with
  | Xmlio.Tree.Text _ -> []
  | Xmlio.Tree.Element e ->
      let drop =
        List.mapi
          (fun k _ -> Xmlio.Tree.Element { e with Xmlio.Tree.children = remove_nth k e.Xmlio.Tree.children })
          e.Xmlio.Tree.children
      in
      let inner =
        List.concat
          (List.mapi
             (fun k c ->
               List.map
                 (fun c' ->
                   Xmlio.Tree.Element { e with Xmlio.Tree.children = replace_nth k c' e.Xmlio.Tree.children })
                 (removals c))
             e.Xmlio.Tree.children)
      in
      drop @ inner
  [@@warning "-9"]

let shrink fails doc =
  let fuel = ref 400 in
  let still_fails d =
    if !fuel <= 0 then false
    else begin
      decr fuel;
      Result.is_error (fails d)
    end
  in
  let rec go doc =
    match Xmlio.Tree.of_string doc with
    | exception _ -> doc
    | t -> (
        let next =
          List.find_map
            (fun t' ->
              let d = to_xml t' in
              if still_fails d then Some d else None)
            (removals t)
        in
        match next with Some d -> go d | None -> doc)
  in
  go doc

(* ------------------------------------------------------------------ *)
(* Fault schedules *)

(* Torn write: block [n] is half-persisted (zeroed from [offset]) and the
   fault is raised after the damage — the failure mode fsync papers call a
   torn page.  The sorter must surface the typed error, not the torn
   data. *)
let torn_layer ~n ~offset =
  Extmem.Layer.make (fun inner ->
      let count = ref 0 in
      {
        inner with
        Extmem.Backend.write_block =
          (fun i buf ->
            incr count;
            if !count = n then begin
              let off = min offset (Bytes.length buf - 1) in
              Bytes.fill buf off (Bytes.length buf - off) '\x00';
              inner.Extmem.Backend.write_block i buf;
              raise (Extmem.Backend.Fault (Extmem.Backend.Write, i))
            end
            else inner.Extmem.Backend.write_block i buf);
      })

let nth_fault_layer ~op ~n =
  let count = ref 0 in
  Extmem.Layer.fault_hook (fun o _ ->
      o = op
      && begin
           incr count;
           !count = n
         end)

type fault_outcome = Completed | Aborted

(* A fault case either completes (the schedule never fired) with oracle-
   validated output and an empty runs device, or aborts with the typed
   fault; anything else — a different exception, a leaked budget block,
   bad output — fails. *)
let run_fault_case ~seed j =
  let doc_seed = seed + 104729 + (31 * j) in
  let doc, _ =
    Xmlgen.Gen.to_string (Xmlgen.Gen.pathological ~seed:doc_seed ~max_elements:250)
  in
  let ordering = Ordering.by_attr "id" in
  let fuse = j / 4 mod 2 = 0 in
  let block_size = 512 in
  let kind = j mod 3 in
  let device =
    if kind = 0 then
      Extmem.Device_spec.parse (Printf.sprintf "faulty:p=0.02,seed=%d/mem" (seed + j))
    else Extmem.Device_spec.default
  in
  let config =
    Nexsort.Config.make ~block_size ~memory_blocks:16 ~root_fusion:fuse ~device ()
  in
  let ( >>= ) r f = Result.bind r f in
  Verify.Probes.clear ();
  let sort_endpoints ~prep =
    (* replicate sort_string over explicit devices so endpoint layers can
       be installed *)
    let input = Extmem.Device.of_string ~name:"input" ~block_size doc in
    let output = Extmem.Device.in_memory ~name:"output" ~block_size () in
    prep ~input ~output;
    match
      Engine.with_session config (fun session ->
          Nexsort.sort_device ~session ~ordering ~input ~output ())
    with
    | report ->
        runs_device_empty report >>= fun () -> Ok (Completed, Some (Extmem.Device.contents output))
    | exception Extmem.Device.Fault _ -> Ok (Aborted, None)
  in
  let outcome =
    match kind with
    | 0 -> (
        (* seeded random faults on the sorter's internal devices *)
        match Engine.sort_string ~config ~ordering doc with
        | out, report -> runs_device_empty report >>= fun () -> Ok (Completed, Some out)
        | exception Extmem.Device.Fault _ -> Ok (Aborted, None))
    | 1 ->
        (* fail the Nth endpoint I/O: odd cases the output write, even
           cases the input read *)
        let n = 1 + (j / 3 mod 12) in
        let op = if j / 6 mod 2 = 0 then Extmem.Backend.Write else Extmem.Backend.Read in
        sort_endpoints ~prep:(fun ~input ~output ->
            match op with
            | Extmem.Backend.Write ->
                Extmem.Device.push_layer output (nth_fault_layer ~op ~n)
            | Extmem.Backend.Read -> Extmem.Device.push_layer input (nth_fault_layer ~op ~n))
    | _ ->
        let n = 1 + (j / 3 mod 10) in
        let offset = j * 37 mod block_size in
        sort_endpoints ~prep:(fun ~input:_ ~output ->
            Extmem.Device.push_layer output (torn_layer ~n ~offset))
  in
  (match outcome with
  | Error e -> Error e
  | Ok (Completed, Some out) -> (
      match Verify.Oracle.sort_string ordering doc with
      | expected when out = expected -> Ok Completed
      | _ -> Error "fault case completed but output differs from oracle"
      | exception e -> Error ("oracle raised " ^ Printexc.to_string e))
  | Ok (Aborted, _) -> Ok Aborted
  | Ok (Completed, None) -> Error "internal: completed without output")
  >>= fun o -> probe_failures () >>= fun () -> Ok o

(* ------------------------------------------------------------------ *)
(* Update-ingest schedules: a seeded edit script runs through
   [Xmerge.Ingest] (external PQ buffering + flush merges), sweeping
   fault injection and memory pressure.  Every flush must leave a
   document the independent validator accepts as recursively sorted, or
   the run must abort with the typed fault/exhaustion — nothing in
   between — and the resource probes must stay quiet either way. *)

exception Update_fail of string

(* The positional index must agree with a re-parse of the base it
   describes: every top-level key maps to the parser offset just after
   its (last) start tag, and the index holds nothing else. *)
let check_index ~ordering t doc =
  let p =
    Xmlio.Parser.of_reader
      (Extmem.Block_reader.of_device (Extmem.Device.of_string ~block_size:512 doc))
  in
  let rec offsets depth acc =
    match Xmlio.Parser.next p with
    | None -> acc
    | Some (Xmlio.Event.Start (name, attrs)) ->
        let acc =
          if depth <> 1 then acc
          else
            let key = Option.get (Ordering.key_of_start ordering name attrs) in
            (key, Xmlio.Parser.offset p)
            :: List.filter (fun (k, _) -> not (Nexsort.Key.equal k key)) acc
        in
        offsets (depth + 1) acc
    | Some (Xmlio.Event.End _) -> offsets (depth - 1) acc
    | Some (Xmlio.Event.Text _) -> offsets depth acc
  in
  let want = offsets 0 [] in
  List.iter
    (fun (k, off) ->
      if Xmerge.Ingest.find_offset t k <> Some off then
        raise
          (Update_fail
             (Printf.sprintf "index offset of key %s disagrees with a re-parse (%d)"
                (Nexsort.Key.to_string k) off)))
    want;
  if Xmerge.Ingest.index_keys t <> List.length want then
    raise
      (Update_fail
         (Printf.sprintf "index holds %d keys, a re-parse finds %d" (Xmerge.Ingest.index_keys t)
            (List.length want)))

let run_update_case ~seed j =
  let case_seed = seed + 224737 + (61 * j) in
  let rng = Xmlgen.Splitmix.create case_seed in
  let base, _ = Xmlgen.Gen.to_string (Xmlgen.Gen.pathological ~seed:case_seed ~max_elements:120) in
  let ordering = Ordering.by_attr "id" in
  let kind = j mod 3 in
  let device =
    if kind = 0 then
      (* seeded random faults on every internal device: the initial sort,
         the flush merge passes and the queue's spill runs all feel them *)
      Extmem.Device_spec.parse (Printf.sprintf "faulty:p=0.05,seed=%d/mem" (seed + j))
    else Extmem.Device_spec.default
  in
  (* kind 2 starves the queue's insert tier so flushes ride on spilled
     runs (and compactions) instead of the in-memory heap *)
  let memory_blocks = if kind = 2 then 8 else 16 in
  let config = Nexsort.Config.make ~block_size:512 ~memory_blocks ~device () in
  let root, tops =
    match Xmlio.Tree.of_string base with
    | Xmlio.Tree.Element e ->
        (e, List.filter_map (function Xmlio.Tree.Element c -> Some c | _ -> None) e.Xmlio.Tree.children)
    | Xmlio.Tree.Text _ | (exception _) -> assert false
  in
  let key_attr (e : Xmlio.Tree.element) =
    match List.assoc_opt "id" e.Xmlio.Tree.attrs with Some v -> "id:" ^ v | None -> "null"
  in
  let gen_op used =
    let fresh () =
      let id = Printf.sprintf "n%d" (Xmlgen.Splitmix.int rng 1000) in
      ( "id:" ^ id,
        Xmlio.Tree.Element
          { Xmlio.Tree.name = "upd"; attrs = [ ("id", id); ("v", id) ]; children = [] } )
    in
    let existing () =
      let e = List.nth tops (Xmlgen.Splitmix.int rng (List.length tops)) in
      let marked op children =
        Xmlio.Tree.Element
          { e with Xmlio.Tree.attrs = ("__op", op) :: e.Xmlio.Tree.attrs; children }
      in
      ( key_attr e,
        match Xmlgen.Splitmix.int rng 3 with
        | 0 -> marked "delete" []
        | 1 -> marked "replace" [ Xmlio.Tree.Text (Printf.sprintf "r%d" j) ]
        | _ ->
            Xmlio.Tree.Element
              { e with Xmlio.Tree.attrs = ("w", "1") :: e.Xmlio.Tree.attrs; children = [] } )
    in
    let k, op = if tops = [] || Xmlgen.Splitmix.int rng 2 = 0 then fresh () else existing () in
    if List.mem k used then None else Some (k, op)
  in
  let gen_doc () =
    let n_ops = 1 + Xmlgen.Splitmix.int rng 3 in
    let rec go used acc n =
      if n = 0 then List.rev acc
      else
        match gen_op used with
        | None -> go used acc (n - 1)
        | Some (k, op) -> go (k :: used) (op :: acc) (n - 1)
    in
    to_xml (Xmlio.Tree.Element { root with Xmlio.Tree.children = go [] [] n_ops })
  in
  let docs = List.init (3 + (j mod 4)) (fun _ -> gen_doc ()) in
  let ( >>= ) r f = Result.bind r f in
  Verify.Probes.clear ();
  let outcome =
    match Xmerge.Ingest.create ~config ~ordering ~base () with
    | exception (Extmem.Device.Fault _ | Extmem.Memory_budget.Exhausted _) -> Ok Aborted
    | exception e -> Error ("ingest create raised " ^ Printexc.to_string e)
    | t ->
        Fun.protect
          ~finally:(fun () -> Xmerge.Ingest.destroy t)
          (fun () ->
            (* the content oracle: every document applied on its own, in
               arrival order, by a sort-and-merge on a fault-free device *)
            let expected = ref (Xmerge.Ingest.contents t) in
            let oracle_config = Nexsort.Config.make ~block_size:512 ~memory_blocks:16 () in
            let validate_flush () =
              ignore (Xmerge.Ingest.flush t);
              let out = Xmerge.Ingest.contents t in
              if not (String.equal out !expected) then begin
                let n = min (String.length out) (String.length !expected) in
                let rec first i = if i < n && out.[i] = !expected.[i] then first (i + 1) else i in
                let at = first 0 in
                let around s =
                  let lo = max 0 (at - 60) in
                  String.escaped (String.sub s lo (min (String.length s - lo) 120))
                in
                raise
                  (Update_fail
                     (Printf.sprintf
                        "flush result differs from sequential application at byte %d:\n\
                        \  ingest: %s\n\
                        \  oracle: %s"
                        at (around out) (around !expected)))
              end;
              let rep = Verify.Validator.of_string ~ordering out in
              (match rep.Verify.Validator.findings with
              | [] -> ()
              | f :: _ ->
                  raise
                    (Update_fail
                       (Printf.sprintf "flush left an unsorted document (at %s)"
                          f.Verify.Validator.path)));
              check_index ~ordering t out
            in
            match
              List.iteri
                (fun i doc ->
                  Xmerge.Ingest.add_update t doc;
                  expected :=
                    fst
                      (Xmerge.Batch_update.sort_and_apply_strings ~config:oracle_config ~ordering
                         ~base:!expected ~updates:doc ());
                  if (i + Xmlgen.Splitmix.int rng 2) mod 2 = 0 then validate_flush ())
                docs;
              if Xmerge.Ingest.pending t > 0 then validate_flush ()
            with
            | () -> Ok Completed
            | exception (Extmem.Device.Fault _ | Extmem.Memory_budget.Exhausted _) -> Ok Aborted
            | exception Update_fail msg -> Error msg
            | exception e -> Error ("ingest raised " ^ Printexc.to_string e))
  in
  outcome >>= fun o -> probe_failures () >>= fun () -> Ok o

(* ------------------------------------------------------------------ *)
(* Multi-tenant pass: the same differential case matrix, but every
   NEXSORT run goes through one shared [Engine], [tenants] domains
   deep.
   The schedule is deterministic — case [i] belongs to tenant
   [i mod tenants] — so a reproducer line carrying the seed and the
   tenant count replays the same interleaving pressure.  Oracle outputs
   are precomputed in the main domain; tenant domains only sort through
   the engine and compare.  The engine budget admits the largest case
   alone, so concurrent tenants exercise the admission queue. *)

let run_tenant_pass ~seed ~tenants ~cases ~only ~verbose failures =
  let indices = match only with Some k -> [ k ] | None -> List.init cases Fun.id in
  let prepared =
    List.map
      (fun i ->
        let cc = differential_config ~seed i in
        let doc, _ =
          Xmlgen.Gen.to_string
            (Xmlgen.Gen.pathological ~seed:(seed + (7919 * i))
               ~max_elements:(40 + (i * 13 mod 160)))
        in
        let expected =
          match
            Verify.Oracle.sort_string ?depth_limit:cc.config.Nexsort.Config.depth_limit
              cc.ordering doc
          with
          | s -> Ok s
          | exception e -> Error ("oracle raised " ^ Printexc.to_string e)
        in
        if verbose then
          Printf.eprintf "tenant case %d -> t%d: %d bytes, %s\n%!" i
            (i mod tenants) (String.length doc) cc.cli_flags;
        (i, cc, doc, expected))
      indices
  in
  let engine_bs = 4096 in
  let engine_blocks cc =
    let bytes = Nexsort.Config.memory_bytes cc.config in
    (bytes + engine_bs - 1) / engine_bs
  in
  let max_job =
    List.fold_left (fun acc (_, cc, _, _) -> max acc (engine_blocks cc)) 1 prepared
  in
  let eng =
    Engine.create ~memory_blocks:(max_job + (max_job / 2)) ~block_size:engine_bs ()
  in
  let results = Array.make (List.length prepared) None in
  let run_case t pos (i, cc, doc, expected) =
    let r =
      match expected with
      | Error e -> Some e
      | Ok expected -> (
          match
            Engine.run eng
              ~name:(Printf.sprintf "case%d" i)
              ~tenant:(Printf.sprintf "t%d" t) cc.config
              (fun _job session ->
                let block_size = cc.config.Nexsort.Config.block_size in
                let input = Extmem.Device.of_string ~name:"input" ~block_size doc in
                let output = Extmem.Device.in_memory ~name:"output" ~block_size () in
                let report =
                  Nexsort.sort_device ~session ~ordering:cc.ordering ~input ~output ()
                in
                (Extmem.Device.contents output, report))
          with
          | out, report -> (
              if out <> expected then Some "engine-path output differs from oracle"
              else match runs_device_empty report with Ok () -> None | Error e -> Some e)
          | exception e -> Some ("engine-path sort raised " ^ Printexc.to_string e))
    in
    results.(pos) <- r
  in
  let domains =
    List.init tenants (fun t ->
        Domain.spawn (fun () ->
            List.iteri (fun pos case -> if pos mod tenants = t then run_case t pos case) prepared))
  in
  List.iter Domain.join domains;
  let leaked = Engine.leaked_blocks eng in
  let still_used = Extmem.Memory_budget.used_blocks (Engine.budget eng) in
  Engine.destroy eng;
  List.iteri
    (fun pos (i, cc, doc, _) ->
      match results.(pos) with
      | None -> ()
      | Some msg ->
          incr failures;
          Printf.eprintf "FAIL tenant case %d (tenant %d of %d): %s\n" i (pos mod tenants)
            tenants msg;
          Printf.eprintf "  reproduce: nexfuzz --seed %d --tenants %d --only %d\n" seed tenants i;
          Printf.eprintf "  equivalent: nexsort %s <doc.xml>\n" cc.cli_flags;
          Printf.eprintf "  document (%d bytes):\n%s\n" (String.length doc) doc)
    prepared;
  if leaked <> 0 || still_used <> 0 then begin
    incr failures;
    Printf.eprintf
      "FAIL tenant pass: engine not quiescent after join (%d leaked, %d still carved)\n" leaked
      still_used;
    Printf.eprintf "  reproduce: nexfuzz --seed %d --tenants %d\n" seed tenants
  end

(* ------------------------------------------------------------------ *)
(* Driver *)

let print_failure ~seed ~kind ~case ~cli_flags ~doc msg =
  Printf.eprintf "FAIL %s case %d: %s\n" kind case msg;
  Printf.eprintf "  reproduce: nexfuzz --seed %d --only %d%s\n" seed case
    (if kind = "fault" then " --faults-only" else "");
  Printf.eprintf "  equivalent: nexsort %s <doc.xml>\n" cli_flags;
  Printf.eprintf "  document (%d bytes):\n%s\n" (String.length doc) doc

let run smoke seed cases fault_cases update_cases only faults_only updates_only tenants verbose =
  let seed, cases, fault_cases, update_cases =
    if smoke then (42, 50, 24, 16) else (seed, cases, fault_cases, update_cases)
  in
  if tenants < 1 then begin
    Printf.eprintf "nexfuzz: --tenants must be >= 1\n";
    exit 2
  end;
  (* a validator that cannot reject is worthless: prove it can, first *)
  (match Verify.Validator.self_test () with
  | Ok () -> ()
  | Error e ->
      Printf.eprintf "validator self-test failed: %s\n" e;
      exit 2);
  Verify.Probes.install ();
  let failures = ref 0 in
  let run_differential i =
    let cc = differential_config ~seed i in
    let doc_seed = seed + (7919 * i) in
    let doc, _ =
      Xmlgen.Gen.to_string
        (Xmlgen.Gen.pathological ~seed:doc_seed ~max_elements:(40 + (i * 13 mod 160)))
    in
    if verbose then
      Printf.eprintf "case %d: %d bytes, %s\n%!" i (String.length doc) cc.cli_flags;
    match test_document cc doc with
    | Ok () -> ()
    | Error msg ->
        incr failures;
        let doc = shrink (test_document cc) doc in
        print_failure ~seed ~kind:"differential" ~case:i ~cli_flags:cc.cli_flags ~doc msg
  in
  let faulted = ref 0 in
  let completed = ref 0 in
  let run_fault j =
    if verbose then Printf.eprintf "fault case %d\n%!" j;
    match run_fault_case ~seed j with
    | Ok Aborted -> incr faulted
    | Ok Completed -> incr completed
    | Error msg ->
        incr failures;
        let doc, _ =
          Xmlgen.Gen.to_string
            (Xmlgen.Gen.pathological ~seed:(seed + 104729 + (31 * j)) ~max_elements:250)
        in
        print_failure ~seed ~kind:"fault" ~case:j
          ~cli_flags:("-O @id -B 512 -M 16" ^ if j / 4 mod 2 = 0 then "" else " --no-fuse")
          ~doc msg
  in
  let updates_aborted = ref 0 in
  let updates_completed = ref 0 in
  let run_update j =
    if verbose then Printf.eprintf "update case %d\n%!" j;
    match run_update_case ~seed j with
    | Ok Aborted -> incr updates_aborted
    | Ok Completed -> incr updates_completed
    | Error msg ->
        incr failures;
        Printf.eprintf "FAIL update case %d: %s\n" j msg;
        Printf.eprintf "  reproduce: nexfuzz --seed %d --updates --only %d\n" seed j
  in
  (match only with
  | Some k ->
      if updates_only then run_update k
      else if faults_only then run_fault k
      else if tenants > 1 then
        run_tenant_pass ~seed ~tenants ~cases ~only:(Some k) ~verbose failures
      else run_differential k
  | None ->
      if (not faults_only) && not updates_only then begin
        if tenants > 1 then run_tenant_pass ~seed ~tenants ~cases ~only:None ~verbose failures
        else
          for i = 0 to cases - 1 do
            run_differential i
          done
      end;
      if not updates_only then
        for j = 0 to fault_cases - 1 do
          run_fault j
        done;
      if not faults_only then
        for j = 0 to update_cases - 1 do
          run_update j
        done);
  (match only with
  | Some _ -> ()
  | None ->
      Printf.printf "nexfuzz: seed %d\n" seed;
      if (not faults_only) && not updates_only then
        if tenants > 1 then
          Printf.printf "differential: %d cases through one engine across %d tenants\n" cases
            tenants
        else
          Printf.printf "differential: %d cases across fuse/no-fuse x %d orderings\n" cases
            (Array.length orderings);
      if not updates_only then
        Printf.printf "fault schedules: %d cases (%d aborted cleanly, %d completed validated)\n"
          fault_cases !faulted !completed;
      if not faults_only then
        Printf.printf
          "update-ingest schedules: %d cases (%d aborted cleanly, %d completed validated)\n"
          update_cases !updates_aborted !updates_completed);
  if !failures = 0 then begin
    Printf.printf "all checks passed\n";
    `Ok ()
  end
  else `Error (false, Printf.sprintf "%d case(s) failed" !failures)

let smoke_term =
  Arg.(
    value & flag
    & info [ "smoke" ]
        ~doc:
          "Run the fixed-seed smoke configuration (seed 42, 50 differential + 24 fault cases) \
           regardless of other options — the configuration wired into the test suite.")

let seed_term =
  Arg.(value & opt int 42 & info [ "seed" ] ~docv:"N" ~doc:"Base seed for documents and configs.")

let cases_term =
  Arg.(value & opt int 50 & info [ "cases" ] ~docv:"N" ~doc:"Number of differential cases.")

let fault_cases_term =
  Arg.(
    value & opt int 24 & info [ "fault-cases" ] ~docv:"N" ~doc:"Number of fault-schedule cases.")

let update_cases_term =
  Arg.(
    value & opt int 16
    & info [ "update-cases" ] ~docv:"N" ~doc:"Number of update-ingest schedule cases.")

let only_term =
  Arg.(
    value
    & opt (some int) None
    & info [ "only" ] ~docv:"K" ~doc:"Run only case $(docv) (reproducing a reported failure).")

let faults_only_term =
  Arg.(
    value & flag
    & info [ "faults-only" ] ~doc:"Run only the fault-schedule cases ($(b,--only) selects among them).")

let updates_only_term =
  Arg.(
    value & flag
    & info [ "updates" ]
        ~doc:
          "Run only the update-ingest schedule cases: seeded edit scripts through the \
           incremental-maintenance path under fault injection and memory pressure \
           ($(b,--only) selects among them).")

let tenants_term =
  Arg.(
    value & opt int 1
    & info [ "tenants" ] ~docv:"K"
        ~doc:
          "Run the differential cases through one shared multi-tenant engine, $(docv) tenant \
           domains deep.  Case $(i,i) belongs to tenant $(i,i) mod $(docv), so the schedule is \
           reproducible from the seed.  Each case checks the engine-path sort against the \
           oracle under concurrent admission pressure; the baseline cross-checks run in the \
           default single-tenant mode.")

let verbose_term =
  Arg.(value & flag & info [ "verbose"; "v" ] ~doc:"Print each case's configuration.")

let cmd =
  let doc = "differential fuzzing of the XML sorters against an in-memory oracle" in
  let info = Cmd.info "nexfuzz" ~version:"1.0.0" ~doc in
  Cmd.v info
    Term.(
      ret
        (const run $ smoke_term $ seed_term $ cases_term $ fault_cases_term $ update_cases_term
       $ only_term $ faults_only_term $ updates_only_term $ tenants_term $ verbose_term))

let () = exit (Cmd.eval cmd)
