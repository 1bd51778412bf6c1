(* lib/obs: JSON codec, metrics registry, histograms, spans, reports. *)

let check = Alcotest.check

(* ------------------------------------------------------------------ *)
(* Json *)

let test_json_roundtrip () =
  let v =
    Obs.Json.Obj
      [
        ("null", Obs.Json.Null);
        ("t", Obs.Json.Bool true);
        ("n", Obs.Json.Int (-42));
        ("f", Obs.Json.Float 1.5);
        ("s", Obs.Json.Str "a \"quoted\"\nline\twith \\ unicode \xc3\xa9");
        ("l", Obs.Json.List [ Obs.Json.Int 1; Obs.Json.Obj []; Obs.Json.List [] ]);
      ]
  in
  let reparse s = Obs.Json.of_string s in
  check Alcotest.bool "pretty round-trip" true (reparse (Obs.Json.to_string v) = v);
  check Alcotest.bool "minified round-trip" true
    (reparse (Obs.Json.to_string ~minify:true v) = v)

let test_json_numbers () =
  check Alcotest.bool "int stays int" true (Obs.Json.of_string "17" = Obs.Json.Int 17);
  check Alcotest.bool "dot makes float" true (Obs.Json.of_string "17.0" = Obs.Json.Float 17.);
  check Alcotest.bool "exponent makes float" true (Obs.Json.of_string "1e2" = Obs.Json.Float 100.);
  (* non-finite floats must not produce unparseable output *)
  check Alcotest.string "nan is null" "null" (Obs.Json.to_string (Obs.Json.Float nan));
  check Alcotest.string "inf is null" "null" (Obs.Json.to_string (Obs.Json.Float infinity))

let test_json_member () =
  let v = Obs.Json.of_string {|{"a": {"b": 3}, "c": [1]}|} in
  (match Obs.Json.member "a" v with
  | Some inner -> check Alcotest.bool "nested" true (Obs.Json.member "b" inner = Some (Obs.Json.Int 3))
  | None -> Alcotest.fail "member a");
  check Alcotest.bool "missing" true (Obs.Json.member "zz" v = None);
  check Alcotest.bool "non-object" true (Obs.Json.member "x" (Obs.Json.Int 1) = None)

let test_json_escapes () =
  check Alcotest.bool "unicode escape" true
    (Obs.Json.of_string {|"éA"|} = Obs.Json.Str "\xc3\xa9A");
  check Alcotest.bool "surrogate pair" true
    (Obs.Json.of_string {|"😀"|} = Obs.Json.Str "\xf0\x9f\x98\x80");
  check Alcotest.bool "bad input raises" true
    (match Obs.Json.of_string "{" with exception Failure _ -> true | _ -> false)

(* ------------------------------------------------------------------ *)
(* Histogram: log2 buckets, 0 and max_int edge cases *)

let test_histogram_edges () =
  check Alcotest.int "zero -> bucket 0" 0 (Obs.Histogram.bucket_index 0);
  check Alcotest.int "negative -> bucket 0" 0 (Obs.Histogram.bucket_index (-5));
  check Alcotest.int "one" 1 (Obs.Histogram.bucket_index 1);
  check Alcotest.int "two" 2 (Obs.Histogram.bucket_index 2);
  check Alcotest.int "three" 2 (Obs.Histogram.bucket_index 3);
  check Alcotest.int "four" 3 (Obs.Histogram.bucket_index 4);
  check Alcotest.int "max_int lands in the last bucket" 62 (Obs.Histogram.bucket_index max_int)

let test_histogram_observe () =
  let r = Obs.Registry.create () in
  let h = Obs.Registry.histogram r ~unit_:"bytes" "h" in
  List.iter (Obs.Histogram.observe h) [ 0; 1; 1; 3; max_int ];
  check Alcotest.int "count" 5 (Obs.Histogram.count h);
  check Alcotest.bool "sum does not overflow silently" true
    (Obs.Histogram.sum h = max_int + 5 (* wraps; recorded as-is *) || Obs.Histogram.sum h > 0);
  check Alcotest.int "min" 0 (Obs.Histogram.min_value h);
  check Alcotest.int "max" max_int (Obs.Histogram.max_value h);
  let buckets = Obs.Histogram.buckets h in
  check Alcotest.int "non-empty buckets" 4 (List.length buckets);
  (match List.rev buckets with
  | (bound, count) :: _ ->
      check Alcotest.int "last bound is max_int" max_int bound;
      check Alcotest.int "last count" 1 count
  | [] -> Alcotest.fail "no buckets");
  match buckets with
  | (bound0, count0) :: _ ->
      check Alcotest.int "bucket 0 bound" 1 bound0;
      check Alcotest.int "bucket 0 holds the zero" 1 count0
  | [] -> Alcotest.fail "no buckets"

(* ------------------------------------------------------------------ *)
(* Registry: counters, gauges, snapshots *)

let test_registry_counters () =
  let r = Obs.Registry.create () in
  let c = Obs.Registry.counter r ~unit_:"events" "c" in
  Obs.Counter.incr c;
  Obs.Counter.add c 4;
  check Alcotest.int "value" 5 (Obs.Counter.value c);
  let c' = Obs.Registry.counter r ~unit_:"events" "c" in
  Obs.Counter.incr c';
  check Alcotest.int "find-or-create shares state" 6 (Obs.Counter.value c);
  check Alcotest.bool "kind clash rejected" true
    (match Obs.Registry.histogram r "c" with
    | exception Invalid_argument _ -> true
    | _ -> false)

let test_registry_snapshot_diff () =
  let r = Obs.Registry.create () in
  let c = Obs.Registry.counter r "c" in
  let g = ref 10. in
  Obs.Registry.gauge r "g" (fun () -> !g);
  let h = Obs.Registry.histogram r "h" in
  Obs.Counter.add c 3;
  Obs.Histogram.observe h 7;
  let before = Obs.Registry.snapshot r in
  Obs.Counter.add c 2;
  g := 25.;
  Obs.Histogram.observe h 1;
  let now = Obs.Registry.snapshot r in
  let d = Obs.Registry.diff now before in
  check (Alcotest.float 1e-9) "counter delta" 2. (List.assoc "c" d);
  check (Alcotest.float 1e-9) "gauge delta" 15. (List.assoc "g" d);
  check (Alcotest.float 1e-9) "histogram count delta" 1. (List.assoc "h.count" d);
  check (Alcotest.float 1e-9) "histogram sum delta" 1. (List.assoc "h.sum" d);
  (* snapshot -> json -> snapshot round-trip *)
  let rt = Obs.Registry.snapshot_of_json (Obs.Registry.snapshot_to_json now) in
  check Alcotest.bool "snapshot json round-trip" true (rt = now);
  (* gauge re-registration replaces the callback *)
  Obs.Registry.gauge r "g" (fun () -> 1.);
  check (Alcotest.float 1e-9) "gauge replaced" 1. (List.assoc "g" (Obs.Registry.snapshot r))

(* ------------------------------------------------------------------ *)
(* Spans: nesting, merging, exception safety *)

let fake_meter () =
  let io = Extmem.Io_stats.create () in
  (io, fun () -> Extmem.Io_stats.snapshot io)

let test_spans_nesting_and_merge () =
  let io, io_m = fake_meter () in
  let clock = ref 0. in
  let t = Obs.Spans.create ~clock:(fun () -> !clock) ~io:io_m "root" in
  check Alcotest.int "root open" 1 (Obs.Spans.depth t);
  for _ = 1 to 3 do
    Obs.Spans.with_span t "outer" (fun () ->
        clock := !clock +. 1.;
        Extmem.Io_stats.record_read io;
        Obs.Spans.with_span t "inner" (fun () -> Extmem.Io_stats.record_write io))
  done;
  let root = Obs.Spans.close t in
  check Alcotest.int "one merged child" 1 (List.length root.Obs.Span.children);
  let outer = Option.get (Obs.Span.find root "outer") in
  check Alcotest.int "outer entered 3x" 3 outer.Obs.Span.count;
  check (Alcotest.float 1e-9) "outer wall" 3. outer.Obs.Span.wall_s;
  check Alcotest.int "outer reads" 3 outer.Obs.Span.io.Extmem.Io_stats.reads;
  (* parents include children: the writes happened inside inner *)
  check Alcotest.int "outer includes inner writes" 3 outer.Obs.Span.io.Extmem.Io_stats.writes;
  let inner = Option.get (Obs.Span.find outer "inner") in
  check Alcotest.int "inner entered 3x" 3 inner.Obs.Span.count;
  check Alcotest.int "inner writes" 3 inner.Obs.Span.io.Extmem.Io_stats.writes;
  check Alcotest.int "inner no reads" 0 inner.Obs.Span.io.Extmem.Io_stats.reads;
  check Alcotest.int "root totals" 6 (Extmem.Io_stats.total root.Obs.Span.io)

(* Each span carries the words allocated inside it, children included:
   a fake meter makes the deltas exact. *)
let test_spans_minor_words () =
  let words = ref 0. in
  let t = Obs.Spans.create ~minor_words:(fun () -> !words) "root" in
  for _ = 1 to 2 do
    Obs.Spans.with_span t "outer" (fun () ->
        words := !words +. 10.;
        Obs.Spans.with_span t "inner" (fun () -> words := !words +. 5.))
  done;
  let root = Obs.Spans.close t in
  let outer = Option.get (Obs.Span.find root "outer") in
  let inner = Option.get (Obs.Span.find outer "inner") in
  check (Alcotest.float 1e-9) "inner words" 10. inner.Obs.Span.minor_words;
  check (Alcotest.float 1e-9) "outer includes inner" 30. outer.Obs.Span.minor_words;
  check (Alcotest.float 1e-9) "root" 30. root.Obs.Span.minor_words;
  (* the default meter is the domain's own allocation *)
  let t = Obs.Spans.create "root" in
  Obs.Spans.with_span t "alloc" (fun () -> ignore (Sys.opaque_identity (Array.make 100 0.)));
  let alloc = Option.get (Obs.Span.find (Obs.Spans.close t) "alloc") in
  check Alcotest.bool "Gc meter sees the array" true (alloc.Obs.Span.minor_words >= 100.)

let test_spans_exception_safety () =
  let t = Obs.Spans.create "root" in
  (try Obs.Spans.with_span t "boom" (fun () -> failwith "inside") with Failure _ -> ());
  check Alcotest.int "span popped after raise" 1 (Obs.Spans.depth t);
  (* the phase was still recorded *)
  Obs.Spans.with_span t "ok" (fun () -> ());
  let root = Obs.Spans.close t in
  check Alcotest.bool "raised span recorded" true (Obs.Span.find root "boom" <> None);
  check Alcotest.int "both children" 2 (List.length root.Obs.Span.children)

let test_spans_to_json () =
  let t = Obs.Spans.create "root" in
  Obs.Spans.with_span t "phase" (fun () -> ());
  let j = Obs.Span.to_json (Obs.Spans.close t) in
  check Alcotest.bool "name" true (Obs.Json.member "name" j = Some (Obs.Json.Str "root"));
  match Obs.Json.member "children" j with
  | Some (Obs.Json.List [ child ]) ->
      check Alcotest.bool "child name" true
        (Obs.Json.member "name" child = Some (Obs.Json.Str "phase"))
  | _ -> Alcotest.fail "children"

(* ------------------------------------------------------------------ *)
(* Tracer: record codec, ring discipline, multi-domain integrity *)

module Tracer = Obs.Tracer

(* timestamps/durations below 2^39 ns (~9 minutes) survive the µs float
   encoding AND the 12-significant-digit JSON text exactly — the domain
   real runs live in; Count values are plain JSON ints, exact at any
   magnitude *)
let tracer_record_gen =
  let open QCheck.Gen in
  let ts = map (fun n -> n land ((1 lsl 39) - 1)) int in
  int_range 0 4 >>= fun k ->
  ts >>= fun r_ts_ns ->
  oneofl [ "sort"; "read:input"; "worker.idle"; "é \"quoted\"" ] >>= fun r_name ->
  (match k with 3 -> int | 4 -> ts | _ -> return 0) >>= fun r_value ->
  let r_kind =
    match k with
    | 0 -> Tracer.Begin
    | 1 -> Tracer.End
    | 2 -> Tracer.Instant
    | 3 -> Tracer.Count
    | _ -> Tracer.Complete
  in
  return { Tracer.r_kind; r_name; r_ts_ns; r_value }

let tracer_record_print r =
  Printf.sprintf "{kind=%s; name=%S; ts=%d; value=%d}"
    (match r.Tracer.r_kind with
    | Tracer.Begin -> "B"
    | Tracer.End -> "E"
    | Tracer.Instant -> "i"
    | Tracer.Count -> "C"
    | Tracer.Complete -> "X")
    r.Tracer.r_name r.Tracer.r_ts_ns r.Tracer.r_value

let test_tracer_record_roundtrip =
  QCheck.Test.make ~name:"record json round-trip" ~count:500
    (QCheck.make ~print:tracer_record_print tracer_record_gen)
    (fun r ->
      (* through the wire format: serialize, re-parse the text, decode *)
      let j = Obs.Json.of_string (Obs.Json.to_string (Tracer.record_to_json ~tid:3 r)) in
      let r', tid = Tracer.record_of_json j in
      r' = r && tid = 3)

let trace_events j =
  match Obs.Json.member "traceEvents" j with
  | Some (Obs.Json.List l) -> l
  | _ -> Alcotest.fail "no traceEvents list"

let test_tracer_overflow () =
  let t = Tracer.create ~capacity:4 () in
  let id = Tracer.intern t "tick" in
  for v = 1 to 10 do
    Tracer.counter t id v
  done;
  check Alcotest.int "ring keeps capacity, drops the rest" 6 (Tracer.dropped t);
  let j = Tracer.to_json t in
  let events = trace_events j in
  (* the flushed trace accounts every drop: a trace.dropped counter on
     the track plus the summary in otherData *)
  let drops =
    List.filter_map
      (fun e ->
        match Tracer.record_of_json e with
        | { Tracer.r_kind = Tracer.Count; r_name = "trace.dropped"; r_value; _ }, _ ->
            Some r_value
        | _ -> None
        | exception Failure _ -> None)
      events
  in
  check (Alcotest.list Alcotest.int) "trace.dropped counter" [ 6 ] drops;
  (match Obs.Json.member "otherData" j with
  | Some od ->
      check Alcotest.bool "otherData.dropped" true
        (Obs.Json.member "dropped" od = Some (Obs.Json.Int 6))
  | None -> Alcotest.fail "no otherData");
  (* metadata events name the track and are rejected by the record codec *)
  (match events with
  | meta :: _ ->
      check Alcotest.bool "first event is thread_name metadata" true
        (Obs.Json.member "ph" meta = Some (Obs.Json.Str "M"));
      check Alcotest.bool "metadata rejected by record codec" true
        (match Tracer.record_of_json meta with exception Failure _ -> true | _ -> false)
  | [] -> Alcotest.fail "empty trace");
  Tracer.reset t;
  check Alcotest.int "reset clears dropped" 0 (Tracer.dropped t);
  (* the null tracer swallows everything without allocating a ring *)
  Tracer.begin_s Tracer.null "tick";
  check Alcotest.int "null tracer drops nothing" 0 (Tracer.dropped Tracer.null)

let test_tracer_multi_domain () =
  let t = Tracer.create ~capacity:16384 () in
  let n = 10_000 in
  let worker i () =
    Tracer.register_track t (Printf.sprintf "w%d" i);
    let id = Tracer.intern t (Printf.sprintf "seq%d" i) in
    for v = 0 to n - 1 do
      Tracer.counter t id v
    done
  in
  let domains = List.init 4 (fun i -> Domain.spawn (worker i)) in
  List.iter Domain.join domains;
  check Alcotest.int "nothing dropped" 0 (Tracer.dropped t);
  (* each worker's ring must replay its exact emission sequence: a torn
     or misrouted record would corrupt or interleave the value runs *)
  let tbl = Hashtbl.create 8 in
  List.iter
    (fun e ->
      match Tracer.record_of_json e with
      | { Tracer.r_kind = Tracer.Count; r_name; r_value; _ }, _
        when String.length r_name >= 3 && String.sub r_name 0 3 = "seq" ->
          let l =
            match Hashtbl.find_opt tbl r_name with
            | Some l -> l
            | None ->
                let l = ref [] in
                Hashtbl.add tbl r_name l;
                l
          in
          l := r_value :: !l
      | _ -> ()
      | exception Failure _ -> ())
    (trace_events (Tracer.to_json t));
  check Alcotest.int "four worker sequences" 4 (Hashtbl.length tbl);
  let expect = List.init n Fun.id in
  Hashtbl.iter
    (fun name l -> check (Alcotest.list Alcotest.int) (name ^ " intact") expect (List.rev !l))
    tbl

(* Per-device latency histograms, pinned through the flushed JSON: a
   fake clock gives each I/O a known duration. *)
let test_tracer_io_latency_json () =
  let t = Tracer.create () in
  let readings = ref [ 0; 0; 10; 11; 20; 120; 130; 230; 240; 5240; 6000; 6003 ] in
  let clock () =
    match !readings with
    | r :: rest ->
        readings := rest;
        r
    | [] -> Alcotest.fail "clock read too often"
  in
  let subscribe d =
    let lat = Tracer.io_latency t ~device:"dev" in
    ignore
      (Extmem.Device.subscribe ~clock d (fun op _ ~start_ns:_ ~dur_ns ->
           Tracer.observe_io lat op dur_ns)
        : Extmem.Device.subscription)
  in
  let d1 = Extmem.Device.of_string ~block_size:8 (String.make 32 'x') in
  let d2 = Extmem.Device.of_string ~block_size:8 (String.make 32 'x') in
  subscribe d1;
  ignore (Tracer.io_latency t ~device:"idle");
  (* a second device of the same name shares the first one's histograms *)
  subscribe d2;
  let buf = Bytes.create 8 in
  List.iter (fun i -> Extmem.Device.read_block d1 i buf) [ 0; 1; 2 ];
  List.iter (fun i -> Extmem.Device.read_block d2 i buf) [ 0; 1 ];
  Extmem.Device.write_block d2 3 buf;
  let empty = {|{"count":0,"sum_ns":0,"max_ns":0,"buckets":[]}|} in
  check Alcotest.string "ioLatency"
    ({|{"dev":{"read":{"count":5,"sum_ns":5201,"max_ns":5000,"buckets":|}
    ^ {|[{"lt":1,"count":1},{"lt":2,"count":1},{"lt":128,"count":2},{"lt":8192,"count":1}]},|}
    ^ {|"write":{"count":1,"sum_ns":3,"max_ns":3,"buckets":[{"lt":4,"count":1}]}},|}
    ^ {|"idle":{"read":|} ^ empty ^ {|,"write":|} ^ empty ^ "}}")
    (match Obs.Json.member "ioLatency" (Tracer.to_json t) with
    | Some j -> Obs.Json.to_string ~minify:true j
    | None -> Alcotest.fail "no ioLatency");
  Tracer.reset t;
  check Alcotest.bool "reset forgets the histograms" true
    (Obs.Json.member "ioLatency" (Tracer.to_json t) = Some (Obs.Json.Obj []))

(* The one device builder's tracer subscriber: one Complete event per
   completed I/O, access.* counters on a traced device only, and nothing
   at all for a faulted I/O. *)
let test_tracer_device_subscriber () =
  let t = Tracer.create () in
  let config spec =
    Nexsort.Config.make ~block_size:64 ~device:(Extmem.Device_spec.parse spec) ~tracer:t ()
  in
  let out =
    (Nexsort.Config.build_device (config "traced/mem") ~name:"output").Extmem.Device_spec.device
  in
  let inp = Nexsort.Config.scratch_device (config "mem") ~name:"input" in
  let buf = Bytes.make 64 'x' in
  List.iter (fun i -> Extmem.Device.write_block out i buf) [ 0; 1; 2 ];
  Extmem.Device.read_block out 1 buf;
  Extmem.Device.write_block inp 0 buf;
  Extmem.Device.read_block inp 0 buf;
  Extmem.Device.push_layer out (Extmem.Layer.fault_hook (fun _ i -> i = 2));
  (match Extmem.Device.read_block out 2 buf with
  | () -> Alcotest.fail "expected a fault"
  | exception Extmem.Device.Fault _ -> ());
  let json = Tracer.to_json t in
  let events kind name =
    List.filter_map
      (fun e ->
        match Tracer.record_of_json e with
        | { Tracer.r_kind; r_name; r_value; _ }, _ when r_kind = kind && r_name = name ->
            Some r_value
        | _ -> None
        | exception Failure _ -> None)
      (trace_events json)
  in
  let count kind name = List.length (events kind name) in
  check Alcotest.int "write:output" 3 (count Tracer.Complete "write:output");
  check Alcotest.int "read:output" 1 (count Tracer.Complete "read:output");
  check (Alcotest.list Alcotest.int) "access.write:output" [ 0; 1; 2 ]
    (events Tracer.Count "access.write:output");
  check (Alcotest.list Alcotest.int) "access.read:output" [ 1 ]
    (events Tracer.Count "access.read:output");
  check Alcotest.int "write:input" 1 (count Tracer.Complete "write:input");
  check Alcotest.int "read:input" 1 (count Tracer.Complete "read:input");
  check Alcotest.int "no access.* on an untraced device" 0
    (count Tracer.Count "access.read:input" + count Tracer.Count "access.write:input");
  let latency_count dev op =
    match
      Option.bind (Obs.Json.member "ioLatency" json) (fun l ->
          Option.bind (Obs.Json.member dev l) (fun d ->
              Option.bind (Obs.Json.member op d) (Obs.Json.member "count")))
    with
    | Some (Obs.Json.Int n) -> n
    | _ -> Alcotest.failf "no ioLatency.%s.%s.count" dev op
  in
  check Alcotest.int "ioLatency output reads" 1 (latency_count "output" "read");
  check Alcotest.int "ioLatency output writes" 3 (latency_count "output" "write");
  check Alcotest.int "ioLatency input reads" 1 (latency_count "input" "read")

(* ------------------------------------------------------------------ *)
(* Report *)

let test_report_sections () =
  let r = Obs.Report.create ~tool:"test" in
  Obs.Report.add r "a" (Obs.Json.Int 1);
  Obs.Report.add r "b" (Obs.Json.Int 2);
  Obs.Report.add r "a" (Obs.Json.Int 3);
  let j = Obs.Json.of_string (Obs.Report.to_string r) in
  check Alcotest.bool "schema_version" true
    (Obs.Json.member "schema_version" j = Some (Obs.Json.Int Obs.Report.schema_version));
  check Alcotest.bool "tool" true (Obs.Json.member "tool" j = Some (Obs.Json.Str "test"));
  check Alcotest.bool "replaced in place" true (Obs.Json.member "a" j = Some (Obs.Json.Int 3));
  (match j with
  | Obs.Json.Obj kvs ->
      check
        Alcotest.(list string)
        "section order preserved" [ "schema_version"; "tool"; "a"; "b" ] (List.map fst kvs)
  | _ -> Alcotest.fail "not an object");
  let lines = String.split_on_char '\n' (String.trim (Obs.Report.to_ndjson r)) in
  check Alcotest.int "ndjson: one line per section" 2 (List.length lines);
  List.iter
    (fun line ->
      match Obs.Json.of_string line with
      | Obs.Json.Obj _ -> ()
      | _ -> Alcotest.fail "ndjson line not an object")
    lines

let () =
  Alcotest.run "obs"
    [
      ( "json",
        [
          Alcotest.test_case "round-trip" `Quick test_json_roundtrip;
          Alcotest.test_case "numbers" `Quick test_json_numbers;
          Alcotest.test_case "member" `Quick test_json_member;
          Alcotest.test_case "escapes" `Quick test_json_escapes;
        ] );
      ( "histogram",
        [
          Alcotest.test_case "bucket edges (0, max_int)" `Quick test_histogram_edges;
          Alcotest.test_case "observe" `Quick test_histogram_observe;
        ] );
      ( "registry",
        [
          Alcotest.test_case "counters" `Quick test_registry_counters;
          Alcotest.test_case "snapshot and diff" `Quick test_registry_snapshot_diff;
        ] );
      ( "spans",
        [
          Alcotest.test_case "nesting and merging" `Quick test_spans_nesting_and_merge;
          Alcotest.test_case "exception safety" `Quick test_spans_exception_safety;
          Alcotest.test_case "allocation per span" `Quick test_spans_minor_words;
          Alcotest.test_case "to_json" `Quick test_spans_to_json;
        ] );
      ( "tracer",
        [
          QCheck_alcotest.to_alcotest test_tracer_record_roundtrip;
          Alcotest.test_case "ring overflow accounting" `Quick test_tracer_overflow;
          Alcotest.test_case "multi-domain hammer" `Quick test_tracer_multi_domain;
          Alcotest.test_case "ioLatency json" `Quick test_tracer_io_latency_json;
          Alcotest.test_case "device subscriber" `Quick test_tracer_device_subscriber;
        ] );
      ( "report", [ Alcotest.test_case "sections" `Quick test_report_sections ] );
    ]
