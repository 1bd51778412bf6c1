type backend_spec =
  | Mem
  | File of string

type layer_spec =
  | Stats
  | Traced
  | Faulty of { p : float; seed : int }

type t = {
  layers : layer_spec list;
  backend : backend_spec;
}

let default = { layers = []; backend = Mem }

let grammar =
  "SPEC ::= [LAYER/]...BACKEND; BACKEND ::= mem | file:PATH; LAYER ::= stats | traced | \
   faulty[:p=P,seed=N] (example: traced/faulty:p=0.001,seed=42/file:/tmp/dev.img)"

let fail fmt = Printf.ksprintf (fun m -> invalid_arg ("device spec: " ^ m ^ "; " ^ grammar)) fmt

let kv_pairs what args =
  List.filter_map
    (fun part ->
      match String.index_opt part '=' with
      | _ when part = "" -> None
      | Some i -> Some (String.sub part 0 i, String.sub part (i + 1) (String.length part - i - 1))
      | None -> fail "%s: expected key=value, got %S" what part)
    (String.split_on_char ',' args)

let float_of what v =
  match float_of_string_opt v with
  | Some f -> f
  | None -> fail "%s: %S is not a number" what v

let parse_faulty args =
  let p = ref 0.01 and seed = ref 42 in
  List.iter
    (fun (k, v) ->
      match k with
      | "p" -> p := float_of "faulty" v
      | "seed" -> (
          match int_of_string_opt v with
          | Some s -> seed := s
          | None -> fail "faulty: seed %S is not an integer" v)
      | k -> fail "faulty: unknown parameter %S" k)
    (kv_pairs "faulty" args);
  if !p < 0. || !p > 1. then fail "faulty: p=%g out of [0,1]" !p;
  Faulty { p = !p; seed = !seed }

let parse_layer seg =
  let head, args =
    match String.index_opt seg ':' with
    | Some i -> (String.sub seg 0 i, String.sub seg (i + 1) (String.length seg - i - 1))
    | None -> (seg, "")
  in
  match head with
  | "stats" -> Stats
  | "traced" -> Traced
  | "faulty" -> parse_faulty args
  | "" -> fail "empty layer before %S" args
  | l -> fail "unknown layer %S" l

let parse s =
  if s = "" then fail "empty spec";
  (* Scan '/'-separated segments left to right; the backend segment ends
     the spec (so 'file:' paths may themselves contain slashes). *)
  let rec go acc start =
    let seg_end = try String.index_from s start '/' with Not_found -> String.length s in
    let seg = String.sub s start (seg_end - start) in
    if String.length seg >= 5 && String.sub seg 0 5 = "file:" then begin
      let path = String.sub s (start + 5) (String.length s - start - 5) in
      if path = "" then fail "file: needs a path";
      { layers = List.rev acc; backend = File path }
    end
    else if seg_end = String.length s then
      if seg = "mem" then { layers = List.rev acc; backend = Mem }
      else fail "expected a backend (mem or file:PATH) last, got %S" seg
    else go (parse_layer seg :: acc) (seg_end + 1)
  in
  go [] 0

let layer_to_string = function
  | Stats -> "stats"
  | Traced -> "traced"
  | Faulty { p; seed } -> Printf.sprintf "faulty:p=%g,seed=%d" p seed

let to_string t =
  let backend = match t.backend with Mem -> "mem" | File p -> "file:" ^ p in
  String.concat "/" (List.map layer_to_string t.layers @ [ backend ])

type built = {
  device : Device.t;
  trace : Trace.t option;
}

let apply_layers t device =
  (* push innermost-first so the head of [t.layers] ends up the outermost
     interceptor *)
  let trace = ref None in
  List.iter
    (fun layer ->
      match layer with
      | Stats -> () (* every device counts its own I/O *)
      | Traced ->
          let tr = Trace.attach device in
          if !trace = None then trace := Some tr
      | Faulty { p; seed } -> Device.push_layer device (Layer.faulty ~seed ~p ()))
    (List.rev t.layers);
  { device; trace = !trace }

let build ?name ~block_size t =
  apply_layers t
    (match t.backend with
    | Mem -> Device.in_memory ?name ~block_size ()
    | File path -> Device.file ?name ~block_size ~path ())

let build_scratch ~name ~block_size t =
  (* scratch devices share the spec's layers but must not collide on a
     file backend's path: suffix it with the component name *)
  let backend =
    match t.backend with
    | Mem -> Mem
    | File p -> File (p ^ "." ^ name)
  in
  build ~name ~block_size { t with backend }

let scratch ~name ~block_size t = (build_scratch ~name ~block_size t).device
