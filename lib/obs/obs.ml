(* Observability: metrics registry, phase spans, JSON run reports.
   Everything here observes only — no device I/O ever happens in this
   library, so instrumented and uninstrumented runs count identically. *)

module Json = struct
  type t =
    | Null
    | Bool of bool
    | Int of int
    | Float of float
    | Str of string
    | List of t list
    | Obj of (string * t) list

  let escape buf s =
    String.iter
      (fun c ->
        match c with
        | '"' -> Buffer.add_string buf "\\\""
        | '\\' -> Buffer.add_string buf "\\\\"
        | '\n' -> Buffer.add_string buf "\\n"
        | '\r' -> Buffer.add_string buf "\\r"
        | '\t' -> Buffer.add_string buf "\\t"
        | c when Char.code c < 0x20 ->
            Buffer.add_string buf (Printf.sprintf "\\u%04x" (Char.code c))
        | c -> Buffer.add_char buf c)
      s

  let float_repr f =
    if not (Float.is_finite f) then "null"
    else
      let s = Printf.sprintf "%.12g" f in
      (* "%g" may print an integral float without a decimal point; that is
         still a valid JSON number, so leave it alone *)
      s

  let to_string ?(minify = false) t =
    let buf = Buffer.create 256 in
    let indent n = Buffer.add_string buf (String.make (2 * n) ' ') in
    let nl () = if not minify then Buffer.add_char buf '\n' in
    let rec go depth t =
      match t with
      | Null -> Buffer.add_string buf "null"
      | Bool b -> Buffer.add_string buf (if b then "true" else "false")
      | Int i -> Buffer.add_string buf (string_of_int i)
      | Float f -> Buffer.add_string buf (float_repr f)
      | Str s ->
          Buffer.add_char buf '"';
          escape buf s;
          Buffer.add_char buf '"'
      | List [] -> Buffer.add_string buf "[]"
      | List items ->
          Buffer.add_char buf '[';
          nl ();
          List.iteri
            (fun i item ->
              if i > 0 then begin
                Buffer.add_char buf ',';
                nl ()
              end;
              if not minify then indent (depth + 1);
              go (depth + 1) item)
            items;
          nl ();
          if not minify then indent depth;
          Buffer.add_char buf ']'
      | Obj [] -> Buffer.add_string buf "{}"
      | Obj fields ->
          Buffer.add_char buf '{';
          nl ();
          List.iteri
            (fun i (k, v) ->
              if i > 0 then begin
                Buffer.add_char buf ',';
                nl ()
              end;
              if not minify then indent (depth + 1);
              Buffer.add_char buf '"';
              escape buf k;
              Buffer.add_string buf (if minify then "\":" else "\": ");
              go (depth + 1) v)
            fields;
          nl ();
          if not minify then indent depth;
          Buffer.add_char buf '}'
    in
    go 0 t;
    Buffer.contents buf

  (* ---- parsing ---- *)

  exception Bad of string

  let of_string s =
    let n = String.length s in
    let pos = ref 0 in
    let fail msg = raise (Bad (Printf.sprintf "%s at offset %d" msg !pos)) in
    let peek () = if !pos < n then Some s.[!pos] else None in
    let advance () = incr pos in
    let rec skip_ws () =
      match peek () with
      | Some (' ' | '\t' | '\n' | '\r') ->
          advance ();
          skip_ws ()
      | _ -> ()
    in
    let expect c =
      if !pos < n && s.[!pos] = c then advance ()
      else fail (Printf.sprintf "expected %C" c)
    in
    let literal lit v =
      let l = String.length lit in
      if !pos + l <= n && String.sub s !pos l = lit then begin
        pos := !pos + l;
        v
      end
      else fail ("expected " ^ lit)
    in
    let add_utf8 buf cp =
      if cp < 0x80 then Buffer.add_char buf (Char.chr cp)
      else if cp < 0x800 then begin
        Buffer.add_char buf (Char.chr (0xC0 lor (cp lsr 6)));
        Buffer.add_char buf (Char.chr (0x80 lor (cp land 0x3F)))
      end
      else if cp < 0x10000 then begin
        Buffer.add_char buf (Char.chr (0xE0 lor (cp lsr 12)));
        Buffer.add_char buf (Char.chr (0x80 lor ((cp lsr 6) land 0x3F)));
        Buffer.add_char buf (Char.chr (0x80 lor (cp land 0x3F)))
      end
      else begin
        Buffer.add_char buf (Char.chr (0xF0 lor (cp lsr 18)));
        Buffer.add_char buf (Char.chr (0x80 lor ((cp lsr 12) land 0x3F)));
        Buffer.add_char buf (Char.chr (0x80 lor ((cp lsr 6) land 0x3F)));
        Buffer.add_char buf (Char.chr (0x80 lor (cp land 0x3F)))
      end
    in
    let hex4 () =
      if !pos + 4 > n then fail "truncated \\u escape";
      let v = int_of_string ("0x" ^ String.sub s !pos 4) in
      pos := !pos + 4;
      v
    in
    let parse_string () =
      expect '"';
      let buf = Buffer.create 16 in
      let rec go () =
        if !pos >= n then fail "unterminated string";
        match s.[!pos] with
        | '"' -> advance ()
        | '\\' ->
            advance ();
            if !pos >= n then fail "truncated escape";
            let c = s.[!pos] in
            advance ();
            (match c with
            | '"' -> Buffer.add_char buf '"'
            | '\\' -> Buffer.add_char buf '\\'
            | '/' -> Buffer.add_char buf '/'
            | 'b' -> Buffer.add_char buf '\b'
            | 'f' -> Buffer.add_char buf '\012'
            | 'n' -> Buffer.add_char buf '\n'
            | 'r' -> Buffer.add_char buf '\r'
            | 't' -> Buffer.add_char buf '\t'
            | 'u' ->
                let cp = hex4 () in
                let cp =
                  (* combine a surrogate pair when one follows *)
                  if cp >= 0xD800 && cp <= 0xDBFF && !pos + 6 <= n
                     && s.[!pos] = '\\' && s.[!pos + 1] = 'u'
                  then begin
                    pos := !pos + 2;
                    let lo = hex4 () in
                    0x10000 + ((cp - 0xD800) lsl 10) + (lo - 0xDC00)
                  end
                  else cp
                in
                add_utf8 buf cp
            | c -> fail (Printf.sprintf "bad escape \\%c" c));
            go ()
        | c ->
            Buffer.add_char buf c;
            advance ();
            go ()
      in
      go ();
      Buffer.contents buf
    in
    let parse_number () =
      let start = !pos in
      let is_num_char c =
        match c with
        | '0' .. '9' | '-' | '+' | '.' | 'e' | 'E' -> true
        | _ -> false
      in
      while !pos < n && is_num_char s.[!pos] do
        advance ()
      done;
      let lit = String.sub s start (!pos - start) in
      if String.exists (fun c -> c = '.' || c = 'e' || c = 'E') lit then
        match float_of_string_opt lit with
        | Some f -> Float f
        | None -> fail ("bad number " ^ lit)
      else
        match int_of_string_opt lit with
        | Some i -> Int i
        | None -> (
            match float_of_string_opt lit with
            | Some f -> Float f
            | None -> fail ("bad number " ^ lit))
    in
    let rec parse_value () =
      skip_ws ();
      match peek () with
      | None -> fail "unexpected end of input"
      | Some '"' -> Str (parse_string ())
      | Some 't' -> literal "true" (Bool true)
      | Some 'f' -> literal "false" (Bool false)
      | Some 'n' -> literal "null" Null
      | Some '[' ->
          advance ();
          skip_ws ();
          if peek () = Some ']' then begin
            advance ();
            List []
          end
          else begin
            let rec items acc =
              let v = parse_value () in
              skip_ws ();
              match peek () with
              | Some ',' ->
                  advance ();
                  items (v :: acc)
              | Some ']' ->
                  advance ();
                  List.rev (v :: acc)
              | _ -> fail "expected ',' or ']'"
            in
            List (items [])
          end
      | Some '{' ->
          advance ();
          skip_ws ();
          if peek () = Some '}' then begin
            advance ();
            Obj []
          end
          else begin
            let rec fields acc =
              skip_ws ();
              let k = parse_string () in
              skip_ws ();
              expect ':';
              let v = parse_value () in
              skip_ws ();
              match peek () with
              | Some ',' ->
                  advance ();
                  fields ((k, v) :: acc)
              | Some '}' ->
                  advance ();
                  List.rev ((k, v) :: acc)
              | _ -> fail "expected ',' or '}'"
            in
            Obj (fields [])
          end
      | Some ('-' | '0' .. '9') -> parse_number ()
      | Some c -> fail (Printf.sprintf "unexpected %C" c)
    in
    match parse_value () with
    | v ->
        skip_ws ();
        if !pos <> n then failwith (Printf.sprintf "Obs.Json: trailing garbage at offset %d" !pos);
        v
    | exception Bad msg -> failwith ("Obs.Json: " ^ msg)

  let member k = function
    | Obj fields -> List.assoc_opt k fields
    | Null | Bool _ | Int _ | Float _ | Str _ | List _ -> None

  let io_stats (s : Extmem.Io_stats.t) =
    Obj
      [
        ("reads", Int s.Extmem.Io_stats.reads);
        ("writes", Int s.Extmem.Io_stats.writes);
        ("total", Int (Extmem.Io_stats.total s));
      ]
end

(* Counters are the one observability primitive bumped from several
   domains at once (the engine's, by concurrent jobs each on its own
   domain), so they are atomic.  Histograms, spans and a registry's
   membership stay with one domain. *)
module Counter = struct
  type t = {
    name : string;
    unit_ : string;
    value : int Atomic.t;
  }

  let make ~name ~unit_ = { name; unit_; value = Atomic.make 0 }
  let value c = Atomic.get c.value
  let incr c = Atomic.incr c.value
  let add c n = ignore (Atomic.fetch_and_add c.value n)
end

module Histogram = struct
  (* log2 buckets: index 0 holds v <= 0, index i >= 1 holds
     2^(i-1) <= v < 2^i.  max_int has 62 significant bits, so index 62 is
     the last bucket and the array never overflows. *)
  let n_buckets = 63

  type t = {
    name : string;
    unit_ : string;
    mutable count : int;
    mutable sum : int;
    mutable min_v : int;
    mutable max_v : int;
    counts : int array;
  }

  let make ~name ~unit_ =
    { name; unit_; count = 0; sum = 0; min_v = 0; max_v = 0; counts = Array.make n_buckets 0 }


  let bucket_index v =
    if v <= 0 then 0
    else begin
      let bits = ref 0 in
      let v = ref v in
      while !v > 0 do
        incr bits;
        v := !v lsr 1
      done;
      !bits
    end

  let observe h v =
    if h.count = 0 then begin
      h.min_v <- v;
      h.max_v <- v
    end
    else begin
      if v < h.min_v then h.min_v <- v;
      if v > h.max_v then h.max_v <- v
    end;
    h.count <- h.count + 1;
    h.sum <- h.sum + v;
    let i = bucket_index v in
    h.counts.(i) <- h.counts.(i) + 1

  let count h = h.count
  let sum h = h.sum
  let min_value h = h.min_v
  let max_value h = h.max_v

  let bucket_bound i =
    (* exclusive upper bound of bucket i; 1 lsl 62 would wrap, so the last
       bucket reports max_int *)
    if i = 0 then 1 else if i >= 62 then max_int else 1 lsl i

  let buckets h =
    let acc = ref [] in
    for i = n_buckets - 1 downto 0 do
      if h.counts.(i) > 0 then acc := (bucket_bound i, h.counts.(i)) :: !acc
    done;
    !acc
end

module Registry = struct
  type kind =
    | C of Counter.t
    | G of (unit -> float) ref
    | H of Histogram.t

  type entry = {
    e_name : string;
    e_unit : string;
    kind : kind;
  }

  type t = { mutable entries : entry list (* reversed *) }

  let create () = { entries = [] }

  let find t name = List.find_opt (fun e -> e.e_name = name) t.entries

  let counter t ?(unit_ = "") name =
    match find t name with
    | Some { kind = C c; _ } -> c
    | Some _ -> invalid_arg (Printf.sprintf "Obs.Registry: %S is not a counter" name)
    | None ->
        let c = Counter.make ~name ~unit_ in
        t.entries <- { e_name = name; e_unit = unit_; kind = C c } :: t.entries;
        c

  let gauge t ?(unit_ = "") name read =
    match find t name with
    | Some { kind = G cell; _ } -> cell := read
    | Some _ -> invalid_arg (Printf.sprintf "Obs.Registry: %S is not a gauge" name)
    | None -> t.entries <- { e_name = name; e_unit = unit_; kind = G (ref read) } :: t.entries

  let histogram t ?(unit_ = "") name =
    match find t name with
    | Some { kind = H h; _ } -> h
    | Some _ -> invalid_arg (Printf.sprintf "Obs.Registry: %S is not a histogram" name)
    | None ->
        let h = Histogram.make ~name ~unit_ in
        t.entries <- { e_name = name; e_unit = unit_; kind = H h } :: t.entries;
        h

  type snapshot = (string * float) list

  let snapshot t =
    List.rev_map
      (fun e ->
        match e.kind with
        | C c -> [ (e.e_name, float_of_int (Counter.value c)) ]
        | G read -> [ (e.e_name, !read ()) ]
        | H h ->
            [
              (e.e_name ^ ".count", float_of_int (Histogram.count h));
              (e.e_name ^ ".sum", float_of_int (Histogram.sum h));
            ])
      t.entries
    |> List.concat

  let diff now before =
    List.map
      (fun (name, v) ->
        let b = Option.value (List.assoc_opt name before) ~default:0. in
        (name, v -. b))
      now

  let num v =
    (* counters and most gauges are integral: render them as JSON ints *)
    if Float.is_integer v && Float.abs v < 1e15 then Json.Int (int_of_float v) else Json.Float v

  let snapshot_to_json snap = Json.Obj (List.map (fun (k, v) -> (k, num v)) snap)

  let snapshot_of_json = function
    | Json.Obj fields ->
        List.map
          (fun (k, v) ->
            match v with
            | Json.Int i -> (k, float_of_int i)
            | Json.Float f -> (k, f)
            | _ -> failwith "Obs.Registry.snapshot_of_json: non-numeric value")
          fields
    | _ -> failwith "Obs.Registry.snapshot_of_json: expected an object"

  let to_json t =
    let entries = List.rev t.entries in
    let section pick render =
      List.filter_map
        (fun e -> match pick e.kind with Some x -> Some (e.e_name, render e x) | None -> None)
        entries
    in
    let with_unit e v = if e.e_unit = "" then v else Json.Obj [ ("value", v); ("unit", Json.Str e.e_unit) ] in
    Json.Obj
      [
        ( "counters",
          Json.Obj
            (section
               (function C c -> Some c | _ -> None)
               (fun e c -> with_unit e (Json.Int (Counter.value c)))) );
        ( "gauges",
          Json.Obj
            (section
               (function G r -> Some r | _ -> None)
               (fun e r -> with_unit e (num (!r ())))) );
        ( "histograms",
          Json.Obj
            (section
               (function H h -> Some h | _ -> None)
               (fun e h ->
                 Json.Obj
                   ([
                      ("count", Json.Int (Histogram.count h));
                      ("sum", Json.Int (Histogram.sum h));
                      ("min", Json.Int (Histogram.min_value h));
                      ("max", Json.Int (Histogram.max_value h));
                      ( "buckets",
                        Json.List
                          (List.map
                             (fun (bound, c) ->
                               Json.Obj [ ("lt", Json.Int bound); ("count", Json.Int c) ])
                             (Histogram.buckets h)) );
                    ]
                   @ if e.e_unit = "" then [] else [ ("unit", Json.Str e.e_unit) ]))) );
      ]
end

module Tracer = struct
  (* Session-wide event tracer.  Each domain that registers gets a private
     bounded ring of fixed-size records (four parallel int arrays); emitting
     is a handful of array stores plus one monotonic-clock read, no
     allocation, no locking.  When a ring fills, further records are dropped
     and counted — emitting never blocks.  Flushing (once no other domain
     is emitting) renders Chrome trace_event JSON loadable in Perfetto. *)

  type kind = Begin | End | Instant | Count | Complete

  type record = { r_kind : kind; r_name : string; r_ts_ns : int; r_value : int }

  type track = {
    tid : int;
    track_name : string;
    t_kind : int array;
    t_name : int array; (* interned name ids *)
    t_ts : int array; (* ns since tracer epoch; Complete: span start *)
    t_value : int array; (* Count: value; Complete: duration ns *)
    mutable t_pos : int;
    mutable t_dropped : int;
  }

  type t = {
    enabled : bool;
    capacity : int;
    epoch : int64;
    lock : Mutex.t; (* guards interning and track creation, never emits *)
    names : (string, int) Hashtbl.t;
    mutable rev_names : string list; (* id order is list order reversed *)
    mutable n_names : int;
    mutable tracks : track list; (* reversed creation order *)
    by_domain : (int * track) list Atomic.t;
    mutable next_tid : int;
    mutable latencies : (string * io_latency) list; (* reversed creation order *)
  }

  (* a device's read/write latency histograms; devices of one name on
     several domains (concurrent jobs' devices) share them, hence the
     lock *)
  and io_latency = { lat_lock : Mutex.t; lat_read : Histogram.t; lat_write : Histogram.t }

  let null =
    {
      enabled = false;
      capacity = 0;
      epoch = 0L;
      lock = Mutex.create ();
      names = Hashtbl.create 1;
      rev_names = [];
      n_names = 0;
      tracks = [];
      by_domain = Atomic.make [];
      next_tid = 0;
      latencies = [];
    }

  let enabled t = t.enabled

  let intern t name =
    if not t.enabled then 0
    else begin
      Mutex.lock t.lock;
      let id =
        match Hashtbl.find_opt t.names name with
        | Some id -> id
        | None ->
            let id = t.n_names in
            Hashtbl.add t.names name id;
            t.rev_names <- name :: t.rev_names;
            t.n_names <- id + 1;
            id
      in
      Mutex.unlock t.lock;
      id
    end

  (* A domain id is never reused (OCaml guarantees fresh ids), so binding
     the current domain to a track via compare-and-set on an immutable
     assoc list is race-free and emitters read it without any lock. *)
  let register_track t name =
    if t.enabled then begin
      Mutex.lock t.lock;
      let tr =
        {
          tid = t.next_tid;
          track_name = name;
          t_kind = Array.make t.capacity 0;
          t_name = Array.make t.capacity 0;
          t_ts = Array.make t.capacity 0;
          t_value = Array.make t.capacity 0;
          t_pos = 0;
          t_dropped = 0;
        }
      in
      t.next_tid <- t.next_tid + 1;
      t.tracks <- tr :: t.tracks;
      Mutex.unlock t.lock;
      let d = (Domain.self () :> int) in
      let rec bind () =
        let cur = Atomic.get t.by_domain in
        let next = (d, tr) :: List.remove_assoc d cur in
        if not (Atomic.compare_and_set t.by_domain cur next) then bind ()
      in
      bind ()
    end

  let create ?(capacity = 1 lsl 16) () =
    if capacity < 1 then invalid_arg "Obs.Tracer.create: capacity must be positive";
    let t =
      {
        enabled = true;
        capacity;
        epoch = Monotonic_clock.now ();
        lock = Mutex.create ();
        names = Hashtbl.create 64;
        rev_names = [];
        n_names = 0;
        tracks = [];
        by_domain = Atomic.make [];
        next_tid = 0;
        latencies = [];
      }
    in
    register_track t "main";
    t

  let now_ns t = Int64.to_int (Int64.sub (Monotonic_clock.now ()) t.epoch)

  let kind_tag = function Begin -> 0 | End -> 1 | Instant -> 2 | Count -> 3 | Complete -> 4
  let kind_of_tag = function
    | 0 -> Begin
    | 1 -> End
    | 2 -> Instant
    | 3 -> Count
    | _ -> Complete

  let track_for t =
    let d = (Domain.self () :> int) in
    let rec find = function
      | [] -> None
      | (k, tr) :: tl -> if k = d then Some tr else find tl
    in
    find (Atomic.get t.by_domain)

  let emit t kind name_id ts value =
    match track_for t with
    | None -> ()
    | Some tr ->
        let p = tr.t_pos in
        if p >= t.capacity then tr.t_dropped <- tr.t_dropped + 1
        else begin
          tr.t_kind.(p) <- kind_tag kind;
          tr.t_name.(p) <- name_id;
          tr.t_ts.(p) <- ts;
          tr.t_value.(p) <- value;
          tr.t_pos <- p + 1
        end

  let counter t id v = if t.enabled then emit t Count id (now_ns t) v
  let complete t id ~start_ns ~dur_ns = if t.enabled then emit t Complete id start_ns dur_ns

  (* string-keyed conveniences for coarse call sites (one mutex-protected
     hash lookup per event; hot sites pre-intern instead) *)
  let begin_s t name = if t.enabled then emit t Begin (intern t name) (now_ns t) 0
  let end_s t name = if t.enabled then emit t End (intern t name) (now_ns t) 0

  let io_latency t ~device =
    let fresh () =
      {
        lat_lock = Mutex.create ();
        lat_read = Histogram.make ~name:("read:" ^ device) ~unit_:"ns";
        lat_write = Histogram.make ~name:("write:" ^ device) ~unit_:"ns";
      }
    in
    if not t.enabled then fresh ()
    else begin
      Mutex.lock t.lock;
      let l =
        match List.assoc_opt device t.latencies with
        | Some l -> l
        | None ->
            let l = fresh () in
            t.latencies <- (device, l) :: t.latencies;
            l
      in
      Mutex.unlock t.lock;
      l
    end

  let observe_io l op dur_ns =
    Mutex.lock l.lat_lock;
    Histogram.observe
      (match op with Extmem.Backend.Read -> l.lat_read | Extmem.Backend.Write -> l.lat_write)
      dur_ns;
    Mutex.unlock l.lat_lock

  let dropped t = List.fold_left (fun acc tr -> acc + tr.t_dropped) 0 t.tracks

  (* Re-arm the tracer for another measured run: zero every ring and forget
     the device latency histograms, but keep the epoch, interned names and
     domain bindings.  Only call while no other domain is emitting. *)
  let reset t =
    if t.enabled then begin
      Mutex.lock t.lock;
      List.iter
        (fun tr ->
          tr.t_pos <- 0;
          tr.t_dropped <- 0)
        t.tracks;
      t.latencies <- [];
      Mutex.unlock t.lock
    end

  (* --- Chrome trace_event rendering --- *)

  let us ns = Json.Float (float_of_int ns /. 1000.)

  let record_to_json ~tid r =
    let base ph =
      [
        ("name", Json.Str r.r_name);
        ("ph", Json.Str ph);
        ("ts", us r.r_ts_ns);
        ("pid", Json.Int 0);
        ("tid", Json.Int tid);
      ]
    in
    match r.r_kind with
    | Begin -> Json.Obj (base "B")
    | End -> Json.Obj (base "E")
    | Instant -> Json.Obj (base "i" @ [ ("s", Json.Str "t") ])
    | Count -> Json.Obj (base "C" @ [ ("args", Json.Obj [ ("value", Json.Int r.r_value) ]) ])
    | Complete -> Json.Obj (base "X" @ [ ("dur", us r.r_value) ])

  let record_of_json j =
    let obj =
      match j with
      | Json.Obj o -> o
      | _ -> failwith "Obs.Tracer: trace event is not an object"
    in
    let field k =
      match List.assoc_opt k obj with
      | Some v -> v
      | None -> failwith (Printf.sprintf "Obs.Tracer: trace event missing %S" k)
    in
    let str k =
      match field k with
      | Json.Str s -> s
      | _ -> failwith (Printf.sprintf "Obs.Tracer: field %S is not a string" k)
    in
    let int_field k =
      match field k with
      | Json.Int i -> i
      | _ -> failwith (Printf.sprintf "Obs.Tracer: field %S is not an integer" k)
    in
    (* timestamps travel as fractional microseconds; exact for any span
       a real run can produce (ns below 2^50) *)
    let ns_field k =
      match field k with
      | Json.Float f -> int_of_float (Float.round (f *. 1000.))
      | Json.Int i -> i * 1000
      | _ -> failwith (Printf.sprintf "Obs.Tracer: field %S is not a number" k)
    in
    let tid = int_field "tid" in
    let name = str "name" in
    let ts = ns_field "ts" in
    let kind, value =
      match str "ph" with
      | "B" -> (Begin, 0)
      | "E" -> (End, 0)
      | "i" | "I" -> (Instant, 0)
      | "X" -> (Complete, ns_field "dur")
      | "C" -> (
          ( Count,
            match field "args" with
            | Json.Obj a -> (
                match List.assoc_opt "value" a with
                | Some (Json.Int i) -> i
                | _ -> failwith "Obs.Tracer: counter event without integer args.value")
            | _ -> failwith "Obs.Tracer: counter event without args" ))
      | ph -> failwith (Printf.sprintf "Obs.Tracer: unsupported event phase %S" ph)
    in
    ({ r_kind = kind; r_name = name; r_ts_ns = ts; r_value = value }, tid)

  let latency_to_json l =
    let histo h =
      Json.Obj
        [
          ("count", Json.Int (Histogram.count h));
          ("sum_ns", Json.Int (Histogram.sum h));
          ("max_ns", Json.Int (Histogram.max_value h));
          ( "buckets",
            Json.List
              (List.map
                 (fun (bound, c) -> Json.Obj [ ("lt", Json.Int bound); ("count", Json.Int c) ])
                 (Histogram.buckets h)) );
        ]
    in
    Json.Obj [ ("read", histo l.lat_read); ("write", histo l.lat_write) ]

  let to_json t =
    let names = Array.of_list (List.rev t.rev_names) in
    let tracks = List.rev t.tracks in
    let meta =
      List.map
        (fun tr ->
          Json.Obj
            [
              ("name", Json.Str "thread_name");
              ("ph", Json.Str "M");
              ("pid", Json.Int 0);
              ("tid", Json.Int tr.tid);
              ("args", Json.Obj [ ("name", Json.Str tr.track_name) ]);
            ])
        tracks
    in
    let events =
      List.concat_map
        (fun tr ->
          let evs = ref [] in
          for i = tr.t_pos - 1 downto 0 do
            let r =
              {
                r_kind = kind_of_tag tr.t_kind.(i);
                r_name = names.(tr.t_name.(i));
                r_ts_ns = tr.t_ts.(i);
                r_value = tr.t_value.(i);
              }
            in
            evs := record_to_json ~tid:tr.tid r :: !evs
          done;
          (* account ring overflow in-band so analyzers see it *)
          let last_ts = if tr.t_pos > 0 then tr.t_ts.(tr.t_pos - 1) else 0 in
          let drop =
            { r_kind = Count; r_name = "trace.dropped"; r_ts_ns = last_ts; r_value = tr.t_dropped }
          in
          !evs @ [ record_to_json ~tid:tr.tid drop ])
        tracks
    in
    Json.Obj
      [
        ("traceEvents", Json.List (meta @ events));
        ("displayTimeUnit", Json.Str "ms");
        ( "otherData",
          Json.Obj
            [
              ("tool", Json.Str "nexsort-trace");
              ("schema_version", Json.Int 1);
              ("capacity", Json.Int t.capacity);
              ("dropped", Json.Int (dropped t));
            ] );
        ( "ioLatency",
          Json.Obj (List.rev_map (fun (dev, l) -> (dev, latency_to_json l)) t.latencies) );
      ]

  let write_file t path =
    let oc = open_out path in
    Fun.protect
      ~finally:(fun () -> close_out oc)
      (fun () ->
        output_string oc (Json.to_string ~minify:true (to_json t));
        output_char oc '\n')
end

module Span = struct
  type t = {
    name : string;
    mutable count : int;
    mutable wall_s : float;
    io : Extmem.Io_stats.t;
    mutable minor_words : float;
    mutable children : t list; (* reversed while recording *)
  }

  let make name =
    {
      name;
      count = 0;
      wall_s = 0.;
      io = Extmem.Io_stats.create ();
      minor_words = 0.;
      children = [];
    }

  let find t name = List.find_opt (fun c -> c.name = name) t.children

  let rec to_json t =
    Json.Obj
      [
        ("name", Json.Str t.name);
        ("count", Json.Int t.count);
        ("wall_s", Json.Float t.wall_s);
        ("io", Json.io_stats t.io);
        ("minor_words", Json.Float t.minor_words);
        ("children", Json.List (List.map to_json t.children));
      ]
end

module Spans = struct
  type open_span = {
    span : Span.t;
    wall0 : float;
    io0 : Extmem.Io_stats.t;
    words0 : float;
  }

  type t = {
    clock : unit -> float;
    io : unit -> Extmem.Io_stats.t;
    minor_words : unit -> float;
    tracer : Tracer.t;
    mutable stack : open_span list; (* innermost first; last is the root *)
    mutable closed : bool;
  }

  let zero_io () = Extmem.Io_stats.create ()

  let enter_span t span =
    Tracer.begin_s t.tracer span.Span.name;
    {
      span;
      wall0 = t.clock ();
      io0 = Extmem.Io_stats.snapshot (t.io ());
      words0 = t.minor_words ();
    }

  let create ?(clock = Unix.gettimeofday) ?(io = zero_io) ?(minor_words = Gc.minor_words)
      ?(tracer = Tracer.null) name =
    let t = { clock; io; minor_words; tracer; stack = []; closed = false } in
    t.stack <- [ enter_span t (Span.make name) ];
    t

  let finalize t o =
    let sp = o.span in
    Tracer.end_s t.tracer sp.Span.name;
    sp.Span.count <- sp.Span.count + 1;
    sp.Span.wall_s <- sp.Span.wall_s +. (t.clock () -. o.wall0);
    Extmem.Io_stats.accumulate ~into:sp.Span.io
      (Extmem.Io_stats.diff (Extmem.Io_stats.snapshot (t.io ())) o.io0);
    sp.Span.minor_words <- sp.Span.minor_words +. (t.minor_words () -. o.words0);
    (* recording order reversed children; keep them in first-entry order *)
    sp.Span.children <- List.rev sp.Span.children

  let with_span t name f =
    if t.closed then invalid_arg "Obs.Spans: recorder already closed";
    let parent =
      match t.stack with
      | o :: _ -> o.span
      | [] -> assert false
    in
    let span =
      match Span.find parent name with
      | Some sp ->
          (* re-entered phase: children were re-reversed at the previous
             exit; flip back so new sub-phases append correctly *)
          sp.Span.children <- List.rev sp.Span.children;
          sp
      | None ->
          let sp = Span.make name in
          parent.Span.children <- sp :: parent.Span.children;
          sp
    in
    let o = enter_span t span in
    t.stack <- o :: t.stack;
    Fun.protect
      ~finally:(fun () ->
        (match t.stack with
        | top :: rest when top == o ->
            t.stack <- rest;
            finalize t top
        | _ ->
            (* scopes escaped out of order (an exception unwound through
               several spans): close everything down to this span *)
            let rec unwind () =
              match t.stack with
              | [] -> ()
              | top :: rest ->
                  t.stack <- rest;
                  finalize t top;
                  if not (top == o) then unwind ()
            in
            unwind ()))
      f

  let depth t = List.length t.stack

  let close t =
    if t.closed then invalid_arg "Obs.Spans: recorder already closed";
    let rec unwind root =
      match t.stack with
      | [] -> root
      | top :: rest ->
          t.stack <- rest;
          finalize t top;
          unwind (Some top.span)
    in
    let root = unwind None in
    t.closed <- true;
    match root with
    | Some r -> r
    | None -> assert false
end

module Probe = struct
  let device reg ~prefix dev =
    let p name = Printf.sprintf "dev.%s.%s" prefix name in
    let stats = Extmem.Device.stats dev in
    Registry.gauge reg ~unit_:"blocks" (p "reads") (fun () ->
        float_of_int stats.Extmem.Io_stats.reads);
    Registry.gauge reg ~unit_:"blocks" (p "writes") (fun () ->
        float_of_int stats.Extmem.Io_stats.writes);
    Registry.gauge reg ~unit_:"blocks" (p "blocks") (fun () ->
        float_of_int (Extmem.Device.block_count dev));
    Registry.gauge reg ~unit_:"blocks" (p "live_blocks") (fun () ->
        float_of_int (Extmem.Device.live_blocks dev));
    Registry.gauge reg ~unit_:"blocks" (p "peak_live_blocks") (fun () ->
        float_of_int (Extmem.Device.peak_live_blocks dev))

  let ext_stack reg ~prefix st =
    let p name = Printf.sprintf "stack.%s.%s" prefix name in
    Registry.gauge reg ~unit_:"entries" (p "pushes") (fun () ->
        float_of_int (Extmem.Ext_stack.pushes st));
    Registry.gauge reg ~unit_:"entries" (p "pops") (fun () ->
        float_of_int (Extmem.Ext_stack.pops st));
    Registry.gauge reg ~unit_:"blocks" (p "page_ins") (fun () ->
        float_of_int (Extmem.Ext_stack.page_ins st));
    Registry.gauge reg ~unit_:"blocks" (p "writebacks") (fun () ->
        float_of_int (Extmem.Ext_stack.writebacks st));
    Registry.gauge reg ~unit_:"bytes" (p "high_water") (fun () ->
        float_of_int (Extmem.Ext_stack.high_water st))

  let run_store reg ~prefix rs =
    let p name = Printf.sprintf "runs.%s.%s" prefix name in
    Registry.gauge reg ~unit_:"runs" (p "count") (fun () ->
        float_of_int (Extmem.Run_store.run_count rs));
    Registry.gauge reg ~unit_:"blocks" (p "blocks") (fun () ->
        float_of_int (Extmem.Run_store.total_run_blocks rs));
    Registry.gauge reg ~unit_:"bytes" (p "bytes") (fun () ->
        float_of_int (Extmem.Run_store.total_run_bytes rs));
    Registry.gauge reg ~unit_:"bytes" (p "inline_bytes") (fun () ->
        float_of_int (Extmem.Run_store.inline_bytes rs))

  let frame_arena reg ~prefix fa =
    (* An aggregate pull gauge over all owners (sampled at render time, so
       owners that appear after registration are still counted); the
       per-owner breakdown goes into the report's "arena" section. *)
    Registry.gauge reg ~unit_:"blocks" (Printf.sprintf "%s.held" prefix) (fun () ->
        float_of_int (Extmem.Frame_arena.totals fa).Extmem.Frame_arena.held)
end

module Report = struct
  (* v2: run reports gained the "gc" section (allocation words and
     collection counts over the run).
     v3: ingest tools emit an "ingest" section — a list of per-flush
     objects (batch sizes, queue counters, merge + I/O deltas).
     v4: sort reports lost the always-zero "pager" section and the
     arena owners their cache counters (only the indexed merge, whose
     B-tree owns a buffer pool, reports "pager").
     v5: sort reports lost the "workers" section and config.jobs (every
     sort runs on one domain).
     v6: every span (the "phases" tree) carries "minor_words", the
     words allocated inside it.
     v7: the simulated-cost meter is gone from the spans, from "timing"
     and from the device gauges.
     v8: sort reports carry the memory plan ("plan": each phase's grants
     per consumer), the arena lists the fragment-merge batches, and the
     data-stack window has no "(borrowed)" owner. *)
  let schema_version = 8

  type t = {
    tool : string;
    mutable sections : (string * Json.t) list; (* reversed *)
  }

  let create ~tool = { tool; sections = [] }

  let add t name json =
    if List.mem_assoc name t.sections then
      t.sections <- List.map (fun (n, v) -> if n = name then (n, json) else (n, v)) t.sections
    else t.sections <- (name, json) :: t.sections

  let to_json t =
    Json.Obj
      ([ ("schema_version", Json.Int schema_version); ("tool", Json.Str t.tool) ]
      @ List.rev t.sections)

  let to_string ?minify t = Json.to_string ?minify (to_json t)

  let to_ndjson t =
    let line (name, data) =
      Json.to_string ~minify:true
        (Json.Obj
           [
             ("schema_version", Json.Int schema_version);
             ("tool", Json.Str t.tool);
             ("section", Json.Str name);
             ("data", data);
           ])
    in
    String.concat "\n" (List.map line (List.rev t.sections)) ^ "\n"

  let write_file ?(ndjson = false) t path =
    let ndjson = ndjson || Filename.check_suffix path ".ndjson" in
    let contents = if ndjson then to_ndjson t else to_string t ^ "\n" in
    if path = "-" then (
      print_string contents;
      flush stdout)
    else begin
      let oc = open_out_bin path in
      Fun.protect ~finally:(fun () -> close_out oc) (fun () -> output_string oc contents)
    end
end
