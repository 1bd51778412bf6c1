(* Dead-export gate: list the values the library interfaces export that
   nothing calls outside the tests, the examples and the module itself,
   and fail on any that the allowlist does not name.

     dune exec scripts/dead_exports.exe -- scripts/dead_exports.allow

   Run from the repository root.  Exports are the top-level and nested
   [val]s of lib/*/*.mli (vals inside [module type] declarations are
   signatures, not exports).  Callers are the .ml files of lib/, bin/,
   bench/ and perf/: an example's use, like a test's, keeps nothing
   alive.  A value counts as called when some other file names it
   qualified by its module ([Device.copy], [Extmem.Device.copy],
   through a [module D = ...Device] alias or a library-level
   [include]) or bare under an [open]/[include] of that module.  The
   match is by the last module name only, so it errs towards
   "called": an export it lists really has no caller.

   Each allowlist line is an export's dotted name (or a module prefix
   covering all of its vals), then its reason; '#' starts a comment
   line.  The gate also fails on a line without a reason and on a line
   that names no dead export, so the list cannot go stale. *)

let read_file path = In_channel.with_open_bin path In_channel.input_all

let sorted_entries dir = List.sort compare (Array.to_list (Sys.readdir dir))

(* every .ml under [dir], skipping build output and hidden directories *)
let rec ml_files dir =
  List.concat_map
    (fun e ->
      let p = Filename.concat dir e in
      if Sys.is_directory p then
        if e = "_build" || e.[0] = '.' then [] else ml_files p
      else if Filename.check_suffix e ".ml" then [ p ]
      else [])
    (sorted_entries dir)

let module_of_file path =
  String.capitalize_ascii (Filename.remove_extension (Filename.basename path))

let lexbuf_of path =
  let lb = Lexing.from_string (read_file path) in
  Lexing.set_filename lb path;
  lb

(* ---- exports ---- *)

type export = {
  file : string;  (* the .mli *)
  path : string list;  (* library, module, nested modules *)
  name : string;
}

let dotted e = String.concat "." (e.path @ [ e.name ])

(* the [(name x)] of the directory's library stanza *)
let library_name dir =
  let dune = read_file (Filename.concat dir "dune") in
  let words =
    String.split_on_char ' '
      (String.map (function '(' | ')' | '\n' | '\t' -> ' ' | c -> c) dune)
  in
  let rec find = function
    | "name" :: "" :: rest -> find ("name" :: rest)
    | "name" :: n :: _ -> String.capitalize_ascii n
    | _ :: rest -> find rest
    | [] -> failwith (dir ^ "/dune: no library name")
  in
  find words

let exports_of_mli ~lib file =
  let open Parsetree in
  let rec items path acc = List.fold_left (item path) acc
  and item path acc si =
    match si.psig_desc with
    | Psig_value vd -> { file; path; name = vd.pval_name.Location.txt } :: acc
    | Psig_module md -> submodule path acc md
    | Psig_recmodule mds -> List.fold_left (submodule path) acc mds
    | _ -> acc
  and submodule path acc md =
    match md with
    | { pmd_name = { txt = Some m; _ }; pmd_type = { pmty_desc = Pmty_signature s; _ }; _ } ->
        items (path @ [ m ]) acc s
    | _ -> acc
  in
  (* a library of one module (engine, obs) is that module *)
  let top = if module_of_file file = lib then [ lib ] else [ lib; module_of_file file ] in
  List.rev (items top [] (Parse.interface (lexbuf_of file)))

(* ---- references ---- *)

let last_module = function
  | Longident.Lident m | Longident.Ldot (_, m) -> Some m
  | Longident.Lapply _ -> None

let module_ident (me : Parsetree.module_expr) =
  match me.pmod_desc with
  | Pmod_ident { txt; _ } -> last_module txt
  | _ -> None

(* What one caller file names: qualified (module, value) pairs, bare
   value names under the modules opened around them, its module aliases
   and the modules it includes at top level. *)
type refs = {
  qualified : (string * string, unit) Hashtbl.t;
  bare : (string * string, unit) Hashtbl.t;  (* (opened module, value) *)
  aliases : (string, string) Hashtbl.t;  (* alias -> module *)
  mutable includes : string list;  (* top-level [include M] *)
}

let refs_of_ml file =
  let r =
    { qualified = Hashtbl.create 256; bare = Hashtbl.create 256; aliases = Hashtbl.create 8;
      includes = [] }
  in
  let opened = ref [] in
  let with_open m f =
    match m with
    | None -> f ()
    | Some m ->
        let saved = !opened in
        opened := m :: saved;
        Fun.protect ~finally:(fun () -> opened := saved) f
  in
  let open Ast_iterator in
  let expr it (e : Parsetree.expression) =
    match e.pexp_desc with
    | Pexp_ident { txt = Longident.Ldot (q, v); _ } ->
        Option.iter (fun m -> Hashtbl.replace r.qualified (m, v) ()) (last_module q)
    | Pexp_ident { txt = Longident.Lident v; _ } ->
        List.iter (fun m -> Hashtbl.replace r.bare (m, v) ()) !opened
    | Pexp_open ({ popen_expr; _ }, body) ->
        with_open (module_ident popen_expr) (fun () -> it.expr it body)
    | Pexp_letmodule ({ txt = Some a; _ }, me, _) ->
        Option.iter (fun m -> Hashtbl.replace r.aliases a m) (module_ident me);
        default_iterator.expr it e
    | _ -> default_iterator.expr it e
  in
  let structure_item it (si : Parsetree.structure_item) =
    match si.pstr_desc with
    | Pstr_open { popen_expr; _ } | Pstr_include { pincl_mod = popen_expr; _ } ->
        (* scoped to the rest of the file: lenient, never misses a use *)
        Option.iter (fun m -> opened := m :: !opened) (module_ident popen_expr);
        default_iterator.structure_item it si
    | Pstr_module { pmb_name = { txt = Some a; _ }; pmb_expr; _ } ->
        Option.iter (fun m -> Hashtbl.replace r.aliases a m) (module_ident pmb_expr);
        default_iterator.structure_item it si
    | _ -> default_iterator.structure_item it si
  in
  let it = { default_iterator with expr; structure_item } in
  let str = Parse.implementation (lexbuf_of file) in
  List.iter
    (fun (si : Parsetree.structure_item) ->
      match si.pstr_desc with
      | Pstr_include { pincl_mod; _ } ->
          Option.iter (fun m -> r.includes <- m :: r.includes) (module_ident pincl_mod)
      | _ -> ())
    str;
  it.structure it str;
  r

(* ---- the gate ---- *)

let () =
  let allow_file =
    match Sys.argv with
    | [| _; f |] -> f
    | _ ->
        prerr_endline "usage: dead_exports ALLOWLIST";
        exit 2
  in
  let lib_dirs =
    List.filter
      (fun d -> Sys.file_exists (Filename.concat d "dune"))
      (List.map (Filename.concat "lib") (sorted_entries "lib"))
  in
  let exports =
    List.concat_map
      (fun dir ->
        let lib = library_name dir in
        List.concat_map
          (fun f ->
            if Filename.check_suffix f ".mli" then exports_of_mli ~lib (Filename.concat dir f)
            else [])
          (sorted_entries dir))
      lib_dirs
  in
  let callers =
    List.concat_map
      (fun d -> if Sys.file_exists d then ml_files d else [])
      [ "lib"; "bin"; "bench"; "perf" ]
  in
  let refs = List.map (fun f -> (f, refs_of_ml f)) callers in
  (* a library module's top-level [include M] makes its name stand for
     M too ([include Sorter] in nexsort.ml: [Nexsort.sort_device]) *)
  let names_of =
    let extra = Hashtbl.create 8 in
    List.iter
      (fun (f, r) ->
        if String.starts_with ~prefix:"lib/" f then
          List.iter (fun m -> Hashtbl.add extra m (module_of_file f)) r.includes)
      refs;
    fun m -> m :: Hashtbl.find_all extra m
  in
  let called e =
    let own = Filename.remove_extension e.file ^ ".ml" in
    let m = List.nth e.path (List.length e.path - 1) in
    let names = names_of m in
    List.exists
      (fun (f, r) ->
        f <> own
        && (List.exists
              (fun n -> Hashtbl.mem r.qualified (n, e.name) || Hashtbl.mem r.bare (n, e.name))
              names
           || Hashtbl.fold
                (fun a target found ->
                  found || (List.mem target names && Hashtbl.mem r.qualified (a, e.name)))
                r.aliases false))
      refs
  in
  let dead = List.map dotted (List.filter (fun e -> not (called e)) exports) in
  let allow =
    List.filter_map
      (fun line ->
        let line = String.trim line in
        if line = "" || line.[0] = '#' then None
        else
          match String.index_opt line ' ' with
          | Some i ->
              Some (String.sub line 0 i, String.trim (String.sub line i (String.length line - i)))
          | None -> Some (line, ""))
      (String.split_on_char '\n' (read_file allow_file))
  in
  let covers entry name = name = entry || String.starts_with ~prefix:(entry ^ ".") name in
  let errors = ref 0 in
  let error fmt = Printf.ksprintf (fun s -> incr errors; prerr_endline s) fmt in
  List.iter
    (fun (entry, reason) ->
      if reason = "" then error "%s: %s: allowlist entry gives no reason" allow_file entry;
      if not (List.exists (covers entry) dead) then
        error "%s: %s: names no dead export (called now, or gone): drop the line" allow_file entry)
    allow;
  List.iter
    (fun name ->
      if not (List.exists (fun (entry, _) -> covers entry name) allow) then
        error "dead export: %s has no caller outside the tests, the examples and its own module" name)
    dead;
  if !errors > 0 then begin
    Printf.eprintf
      "dead exports: %d problem(s); delete or hide the export, or allowlist it with its reason \
       in %s\n"
      !errors allow_file;
    exit 1
  end;
  Printf.printf "dead exports: %d exports checked, %d allowlisted\n" (List.length exports)
    (List.length dead)
