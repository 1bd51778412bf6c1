(* Correctness tests for the NEXSORT core: key/ordering machinery, the
   algorithm itself against the internal-memory oracle, extensions
   (degeneration, depth limits, encodings, subtree-derived keys), and the
   key-path baseline. *)

let check = Alcotest.check

let qcheck = QCheck_alcotest.to_alcotest

module Key = Nexsort.Key
module Ordering = Nexsort.Ordering
module Config = Nexsort.Config

let tree_eq = Alcotest.testable Xmlio.Tree.pp Xmlio.Tree.equal

let parse = Xmlio.Tree.of_string

(* Small configs so even tiny documents exercise the external machinery. *)
let tiny_config ?depth_limit ?(degeneration = true) ?(encoding = Config.Dict)
    ?(memory_blocks = 8) ?(block_size = 128) ?threshold () =
  Config.make ~block_size ~memory_blocks ?threshold ?depth_limit ~degeneration ~encoding ()

let by_id = Ordering.by_attr "id"

(* One device-to-device sort on a one-job engine. *)
let sort_device ~config ~ordering ~input ~output () =
  Engine.with_session config (fun session ->
      Nexsort.sort_device ~session ~ordering ~input ~output ())

(* ------------------------------------------------------------------ *)
(* Key *)

let test_key_of_string () =
  check Alcotest.bool "numeric" true (Key.of_string "42" = Key.Num 42.);
  check Alcotest.bool "negative" true (Key.of_string "-3.5" = Key.Num (-3.5));
  check Alcotest.bool "string" true (Key.of_string "abc" = Key.Str "abc");
  check Alcotest.bool "empty" true (Key.of_string "" = Key.Str "");
  check Alcotest.bool "mixed" true (Key.of_string "42x" = Key.Str "42x")

let test_key_compare () =
  let lt a b = Key.compare a b < 0 in
  check Alcotest.bool "null < num" true (lt Key.Null (Key.Num 0.));
  check Alcotest.bool "num < str" true (lt (Key.Num 1e9) (Key.Str "a"));
  check Alcotest.bool "numeric order" true (lt (Key.Num 90.) (Key.Num 1000.));
  check Alcotest.bool "string order" true (lt (Key.Str "abc") (Key.Str "abd"));
  check Alcotest.bool "equal" true (Key.compare (Key.Str "x") (Key.Str "x") = 0)

let test_key_roundtrip () =
  List.iter
    (fun k ->
      let b = Buffer.create 16 in
      Key.encode b k;
      let c = Extmem.Codec.cursor (Buffer.contents b) in
      check Alcotest.bool (Key.to_string k) true (Key.equal k (Key.decode c)))
    [ Key.Null; Key.Num 3.25; Key.Num (-1e42); Key.Str ""; Key.Str "hello" ];
  let b = Buffer.create 4 in
  Key.encode_opt b None;
  check Alcotest.bool "option none" true
    (Key.decode_opt (Extmem.Codec.cursor (Buffer.contents b)) = None)

(* ------------------------------------------------------------------ *)
(* Ordering *)

let test_ordering_key_of_tree () =
  let t = parse "<e id=\"7\" name=\"x\"><sub><deep>inner</deep></sub>direct</e>" in
  let e = match t with Xmlio.Tree.Element e -> e | _ -> assert false in
  check Alcotest.bool "by tag" true
    (Ordering.key_of_tree Ordering.by_tag e = Key.Str "e");
  check Alcotest.bool "by attr" true
    (Ordering.key_of_tree (Ordering.by_attr "id") e = Key.Num 7.);
  check Alcotest.bool "missing attr" true
    (Ordering.key_of_tree (Ordering.by_attr "zzz") e = Key.Null);
  check Alcotest.bool "by text" true
    (Ordering.key_of_tree (Ordering.make Ordering.By_text) e = Key.Str "direct");
  check Alcotest.bool "by path" true
    (Ordering.key_of_tree (Ordering.make (Ordering.By_path [ "sub"; "deep" ])) e
    = Key.Str "inner");
  check Alcotest.bool "path missing" true
    (Ordering.key_of_tree (Ordering.make (Ordering.By_path [ "nope" ])) e = Key.Null);
  check Alcotest.bool "doc order" true
    (Ordering.key_of_tree Ordering.document_order e = Key.Null)

(* streaming evaluator agrees with the tree oracle on every element *)
let evaluator_vs_oracle ordering xml =
  let tree = parse xml in
  let evaluator = Ordering.Evaluator.create ordering in
  let expected = ref [] in
  let rec collect = function
    | Xmlio.Tree.Text _ -> ()
    | Xmlio.Tree.Element e ->
        expected := Ordering.key_of_tree ordering e :: !expected;
        List.iter collect e.Xmlio.Tree.children
  in
  collect tree;
  let got = ref [] in
  let stack = ref [] in
  let rec walk = function
    | Xmlio.Tree.Text s -> Ordering.Evaluator.on_text evaluator s
    | Xmlio.Tree.Element e ->
        let at_start = Ordering.Evaluator.on_start evaluator e.Xmlio.Tree.name e.Xmlio.Tree.attrs in
        stack := at_start :: !stack;
        List.iter walk e.Xmlio.Tree.children;
        let at_end = Ordering.Evaluator.on_end evaluator in
        (match (!stack, at_end) with
        | Some k :: rest, None ->
            got := k :: !got;
            stack := rest
        | None :: rest, Some k ->
            got := k :: !got;
            stack := rest
        | _ -> Alcotest.fail "evaluator produced the key at the wrong moment")
  in
  walk tree;
  (* both lists were collected in different orders; compare as multisets of
     strings (keys may repeat) *)
  let canon l = List.sort compare (List.map Key.to_string l) in
  check (Alcotest.list Alcotest.string) ("evaluator keys for " ^ xml) (canon !expected) (canon !got)

let test_evaluator_scan () =
  evaluator_vs_oracle (Ordering.by_attr "id") "<r id=\"1\"><a id=\"3\"/><b id=\"2\"/></r>";
  evaluator_vs_oracle Ordering.by_tag "<r><b/><a><c/></a></r>"

let test_evaluator_by_text () =
  evaluator_vs_oracle (Ordering.make Ordering.By_text)
    "<r>root text<a>alpha<x>inner ignored</x></a><b>beta</b></r>"

let test_evaluator_by_path () =
  evaluator_vs_oracle
    (Ordering.make ~rules:[ ("employee", Ordering.By_path [ "personalInfo"; "name" ]) ]
       Ordering.By_tag)
    "<staff><employee><personalInfo><name>Zed</name></personalInfo></employee>\
     <employee><personalInfo><name>Amy</name><dept>X</dept></personalInfo></employee>\
     <employee><other/></employee></staff>";
  (* nested employees: each matches its own personalInfo only *)
  evaluator_vs_oracle
    (Ordering.make ~rules:[ ("e", Ordering.By_path [ "p" ]) ] Ordering.By_tag)
    "<r><e><p>outer</p><e><p>inner</p></e></e></r>"

let test_key_compound () =
  let lt a b = Key.compare a b < 0 in
  check Alcotest.bool "rev inverts" true (lt (Key.Rev (Key.Num 5.)) (Key.Rev (Key.Num 2.)));
  check Alcotest.bool "tuple lexicographic" true
    (lt (Key.Tuple [ Key.Str "a"; Key.Num 9. ]) (Key.Tuple [ Key.Str "b"; Key.Num 1. ]));
  check Alcotest.bool "tuple second component" true
    (lt (Key.Tuple [ Key.Str "a"; Key.Num 1. ]) (Key.Tuple [ Key.Str "a"; Key.Num 2. ]));
  check Alcotest.bool "tuple prefix first" true
    (lt (Key.Tuple [ Key.Str "a" ]) (Key.Tuple [ Key.Str "a"; Key.Null ]));
  (* round-trip the new constructors *)
  List.iter
    (fun k ->
      let b = Buffer.create 16 in
      Key.encode b k;
      check Alcotest.bool (Key.to_string k) true
        (Key.equal k (Key.decode (Extmem.Codec.cursor (Buffer.contents b)))))
    [ Key.Rev (Key.Str "x"); Key.Tuple [ Key.Null; Key.Num 2.; Key.Rev (Key.Str "y") ] ]

let test_ordering_composite_and_desc () =
  (* employees by (last name, first name); NF2-style compound ordering *)
  let ordering =
    Ordering.make
      ~rules:[ ("employee", Ordering.Composite [ Ordering.By_attr "last"; Ordering.By_attr "first" ]) ]
      Ordering.By_tag
  in
  let xml =
    "<staff><employee last=\"Yang\" first=\"Jun\"/><employee last=\"Silber\" first=\"Adam\"/>\
     <employee last=\"Silber\" first=\"Aaron\"/></staff>"
  in
  let sorted, _ = Engine.sort_string ~config:(tiny_config ()) ~ordering xml in
  check tree_eq "compound key"
    (parse
       "<staff><employee last=\"Silber\" first=\"Aaron\"/><employee last=\"Silber\" first=\"Adam\"/>\
        <employee last=\"Yang\" first=\"Jun\"/></staff>")
    (parse sorted);
  (* descending *)
  let desc = Ordering.make (Ordering.Desc (Ordering.By_attr "id")) in
  let sorted, _ =
    Engine.sort_string ~config:(tiny_config ()) ~ordering:desc
      "<r id=\"0\"><a id=\"1\"/><a id=\"3\"/><a id=\"2\"/></r>"
  in
  check tree_eq "descending"
    (parse "<r id=\"0\"><a id=\"3\"/><a id=\"2\"/><a id=\"1\"/></r>")
    (parse sorted)

let test_ordering_composite_subtree () =
  (* a compound key mixing a subtree criterion with an attribute *)
  let ordering =
    Ordering.make
      ~rules:[ ("e", Ordering.Composite [ Ordering.By_path [ "name" ]; Ordering.By_attr "n" ]) ]
      Ordering.By_tag
  in
  let xml =
    "<r><e n=\"2\"><name>b</name></e><e n=\"1\"><name>b</name></e><e n=\"9\"><name>a</name></e></r>"
  in
  let sorted, _ = Engine.sort_string ~config:(tiny_config ()) ~ordering xml in
  check tree_eq "mixed compound"
    (Baselines.Tree_sort.sort_tree ordering (parse xml))
    (parse sorted)

let test_ordering_spec_compound () =
  let o = Ordering.of_spec_string "employee=(@last;@first),-@id" in
  check Alcotest.bool "composite rule" true
    (Ordering.criterion_for o "employee"
    = Ordering.Composite [ Ordering.By_attr "last"; Ordering.By_attr "first" ]);
  check Alcotest.bool "desc default" true
    (Ordering.criterion_for o "other" = Ordering.Desc (Ordering.By_attr "id"));
  check Alcotest.bool "scan evaluable" true (Ordering.all_scan_evaluable o)

let test_ordering_spec_string () =
  let o = Ordering.of_spec_string "@id,region=@name,employee=personalInfo/name" in
  check Alcotest.bool "default" true (Ordering.criterion_for o "other" = Ordering.By_attr "id");
  check Alcotest.bool "rule" true (Ordering.criterion_for o "region" = Ordering.By_attr "name");
  check Alcotest.bool "path rule" true
    (Ordering.criterion_for o "employee" = Ordering.By_path [ "personalInfo"; "name" ]);
  check Alcotest.bool "scan evaluable" false (Ordering.all_scan_evaluable o);
  check Alcotest.bool "tag" true (Ordering.criterion_for (Ordering.of_spec_string "tag") "x" = Ordering.By_tag);
  Alcotest.check_raises "empty criterion"
    (Invalid_argument "Ordering.of_spec_string: empty criterion") (fun () ->
      ignore (Ordering.of_spec_string "a=,b"))

(* ------------------------------------------------------------------ *)
(* Entry encoding *)

let test_entry_roundtrip () =
  let entries =
    [
      Nexsort.Entry.Start
        { level = 3; pos = 17; name = "employee"; attrs = [ ("ID", "454"); ("x", "") ];
          key = Some (Key.Num 454.) };
      Nexsort.Entry.Start { level = 1; pos = 1; name = "company"; attrs = []; key = None };
      Nexsort.Entry.End { level = 3; pos = 17; key = Some (Key.Str "z") };
      Nexsort.Entry.Text { level = 4; pos = 18; content = "Smith & co <x>" };
      Nexsort.Entry.Run_ptr { level = 2; pos = 9; key = Key.Num 3.; run = 12; bytes = 4096 };
    ]
  in
  List.iter
    (fun enc ->
      let dict = Xmlio.Dict.create () in
      List.iter
        (fun e ->
          let s = Nexsort.Entry.encode enc dict e in
          let back = Nexsort.Entry.decode enc dict s in
          check Alcotest.bool (Format.asprintf "%a" Nexsort.Entry.pp e) true (back = e))
        entries)
    [ Config.Plain; Config.Dict; Config.Packed ]

(* dict coding must actually shrink repeated names *)
let test_entry_dict_smaller () =
  let dict = Xmlio.Dict.create () in
  let e =
    Nexsort.Entry.Start
      { level = 5; pos = 100; name = "averagelongelementname"; attrs = [ ("attribute", "v") ];
        key = Some Key.Null }
  in
  (* intern once so the comparison measures steady state *)
  ignore (Nexsort.Entry.encode Config.Dict dict e);
  let dict_len = String.length (Nexsort.Entry.encode Config.Dict dict e) in
  let plain_len = String.length (Nexsort.Entry.encode Config.Plain (Xmlio.Dict.create ()) e) in
  check Alcotest.bool "smaller" true (dict_len < plain_len)

(* ------------------------------------------------------------------ *)
(* Keypath records *)

let test_keypath_roundtrip () =
  let path =
    [ { Nexsort.Keypath.key = Key.Str "AC"; pos = 2 }; { Nexsort.Keypath.key = Key.Num 454.; pos = 5 } ]
  in
  let r = Nexsort.Keypath.encode_record path ~payload:"PAYLOAD" in
  check Alcotest.string "payload" "PAYLOAD" (Nexsort.Keypath.decode_payload r);
  check Alcotest.bool "path" true (Nexsort.Keypath.decode_path r = path)

let test_keypath_compare () =
  let r path = Nexsort.Keypath.encode_record path ~payload:"" in
  let c key pos = { Nexsort.Keypath.key; pos } in
  let a = r [ c (Key.Str "AC") 1 ] in
  let a_child = r [ c (Key.Str "AC") 1; c (Key.Num 3.) 9 ] in
  let b = r [ c (Key.Str "NE") 2 ] in
  check Alcotest.bool "parent before child" true (Nexsort.Keypath.compare_encoded a a_child < 0);
  check Alcotest.bool "sibling order" true (Nexsort.Keypath.compare_encoded a b < 0);
  check Alcotest.bool "child before later sibling" true
    (Nexsort.Keypath.compare_encoded a_child b < 0);
  let tie1 = r [ c Key.Null 4 ] and tie2 = r [ c Key.Null 5 ] in
  check Alcotest.bool "pos tiebreak" true (Nexsort.Keypath.compare_encoded tie1 tie2 < 0)

(* ------------------------------------------------------------------ *)
(* NEXSORT vs the internal-memory oracle *)

let nexsort_matches_oracle ?depth_limit ~config ~ordering xml =
  let sorted, report = Engine.sort_string ~config ~ordering xml in
  let expected = Baselines.Tree_sort.sort_tree ?depth_limit ordering (parse xml) in
  check tree_eq ("sorted " ^ xml) expected (parse sorted);
  report

let test_sort_trivial () =
  let r = nexsort_matches_oracle ~config:(tiny_config ()) ~ordering:by_id "<a id=\"1\"/>" in
  check Alcotest.int "one element" 1 r.Nexsort.elements

let test_sort_small_flat () =
  ignore
    (nexsort_matches_oracle ~config:(tiny_config ()) ~ordering:by_id
       "<r id=\"0\"><a id=\"3\"/><b id=\"1\"/><c id=\"2\"/></r>")

let test_sort_figure_1 () =
  let sorted, _ =
    Engine.sort_string ~config:(tiny_config ()) ~ordering:Xmlgen.Company.ordering
      Xmlgen.Company.figure_1_d1
  in
  (* Figure 1's sorted D1: regions AC < NE; branches Atlanta < Durham;
     employees 323 < 454 *)
  let expected =
    "<company>\
     <region name=\"AC\">\
     <branch name=\"Atlanta\"/>\
     <branch name=\"Durham\">\
     <employee ID=\"323\"><name>Smith</name><phone>5552345</phone></employee>\
     <employee ID=\"454\"/>\
     </branch>\
     </region>\
     <region name=\"NE\"/>\
     </company>"
  in
  check tree_eq "figure 1 sorted" (parse expected) (parse sorted)

let test_sort_deep_chain () =
  ignore
    (nexsort_matches_oracle ~config:(tiny_config ()) ~ordering:by_id
       "<a id=\"9\"><b id=\"8\"><c id=\"7\"><d id=\"6\"><e id=\"5\">leaf</e></d></c></b></a>")

let test_sort_duplicate_keys_stable () =
  (* equal keys keep document order via the position tiebreak *)
  let xml = "<r id=\"0\"><a id=\"1\" n=\"first\"/><a id=\"1\" n=\"second\"/><a id=\"0\"/></r>" in
  let sorted, _ = Engine.sort_string ~config:(tiny_config ()) ~ordering:by_id xml in
  check tree_eq "stable"
    (parse "<r id=\"0\"><a id=\"0\"/><a id=\"1\" n=\"first\"/><a id=\"1\" n=\"second\"/></r>")
    (parse sorted)

let test_sort_mixed_text_children () =
  (* text nodes have Null keys: they come first, in document order *)
  let xml = "<r id=\"0\">alpha<b id=\"2\"/>beta<a id=\"1\"/></r>" in
  let sorted, _ = Engine.sort_string ~config:(tiny_config ()) ~ordering:by_id xml in
  check tree_eq "text first, doc order"
    (parse "<r id=\"0\">alphabeta<a id=\"1\"/><b id=\"2\"/></r>")
    (parse sorted)

let gen_doc ?(height = 4) ?(max_fanout = 6) ?(max_elements = 400) seed =
  let s, _ = Xmlgen.Gen.to_string (fun sink ->
      Xmlgen.Gen.random_shape ~seed ~avg_bytes:40 ~max_elements ~height ~max_fanout sink)
  in
  s

let test_sort_generated_all_encodings () =
  let xml = gen_doc 1 in
  List.iter
    (fun encoding ->
      ignore (nexsort_matches_oracle ~config:(tiny_config ~encoding ()) ~ordering:by_id xml))
    [ Config.Plain; Config.Dict; Config.Packed ]

let test_sort_degeneration_off () =
  let xml = gen_doc 2 in
  ignore
    (nexsort_matches_oracle ~config:(tiny_config ~degeneration:false ()) ~ordering:by_id xml)

let test_sort_flat_wide () =
  (* 500 flat children, tiny memory: exercises degeneration fragments *)
  let children =
    String.concat ""
      (List.init 500 (fun i -> Printf.sprintf "<c id=\"%d\"/>" ((i * 7919) mod 500)))
  in
  let xml = "<r id=\"0\">" ^ children ^ "</r>" in
  let r = nexsort_matches_oracle ~config:(tiny_config ()) ~ordering:by_id xml in
  check Alcotest.bool "fragments were created" true (r.Nexsort.fragment_runs > 0);
  check Alcotest.bool "fragments were merged" true (r.Nexsort.fragment_merges > 0)

let test_sort_flat_wide_no_degen_external () =
  (* same input, degeneration off: the root subtree exceeds the arena and
     must go through the external key-path sort *)
  let children =
    String.concat ""
      (List.init 500 (fun i -> Printf.sprintf "<c id=\"%d\"/>" ((i * 337) mod 500)))
  in
  let xml = "<r id=\"0\">" ^ children ^ "</r>" in
  let r =
    nexsort_matches_oracle ~config:(tiny_config ~degeneration:false ()) ~ordering:by_id xml
  in
  check Alcotest.bool "external subtree sort used" true (r.Nexsort.external_sorts > 0)

let test_sort_flat_fragments_path_stack_constant () =
  (* every fragment id lives in its own path-stack entry below the root's
     frame, so the frame stays a few bytes and degeneration's per-event
     look at the top frame never pages: stack I/O stays O(1) however many
     fragments the root collects *)
  let xml, _ =
    Xmlgen.Gen.to_string (fun sink -> Xmlgen.Gen.exact_shape ~seed:5 ~fanouts:[ 5_000 ] sink)
  in
  let config = Config.make ~block_size:256 ~memory_blocks:16 () in
  let sorted, r = Engine.sort_string ~config ~ordering:by_id xml in
  check Alcotest.bool
    (Printf.sprintf "hundreds of fragments (%d)" r.Nexsort.fragment_runs)
    true
    (r.Nexsort.fragment_runs > 400);
  let path_ios = Extmem.Io_stats.total (List.assoc "path stack" r.Nexsort.breakdown) in
  check Alcotest.bool
    (Printf.sprintf "path-stack I/O %d <= 64" path_ios)
    true (path_ios <= 64);
  check Alcotest.string "byte-identical to Tree_sort" (Baselines.Tree_sort.sort_string by_id xml)
    sorted

let test_sort_nested_fragmented_elements () =
  (* a fragmented element nested between fragments of its fragmented
     parent: the child's ids sit above the parent's frame and must come
     off with the child, leaving exactly the parent's ids (older and
     newer) under the parent's frame, and the parent's cached top-frame
     fields must be restored when the child closes *)
  let leaves tag n mult =
    String.concat ""
      (List.init n (fun i -> Printf.sprintf "<%s id=\"%d\">v%d</%s>" tag ((i * mult) mod n) i tag))
  in
  let xml =
    "<r id=\"0\">" ^ leaves "a" 300 7919 ^ "<big id=\"150\">" ^ leaves "g" 300 337
    ^ "</big>" ^ leaves "b" 300 211 ^ "</r>"
  in
  let config = tiny_config () in
  let sorted, r = Engine.sort_string ~config ~ordering:by_id xml in
  check Alcotest.bool
    (Printf.sprintf "both elements merged fragments (%d merges)" r.Nexsort.fragment_merges)
    true
    (r.Nexsort.fragment_merges >= 2);
  check Alcotest.string "byte-identical to the oracle" (Verify.Oracle.sort_string by_id xml) sorted

let test_sort_subtree_keys () =
  (* subtree-derived keys force the reverse-scan external path *)
  let ordering =
    Ordering.make ~rules:[ ("employee", Ordering.By_path [ "personalInfo"; "name" ]) ]
      Ordering.By_tag
  in
  let employee i =
    Printf.sprintf "<employee><personalInfo><name>N%03d</name></personalInfo><pad>%s</pad></employee>"
      ((i * 733) mod 300)
      (String.make 20 'x')
  in
  let xml = "<staff>" ^ String.concat "" (List.init 300 employee) ^ "</staff>" in
  let r =
    nexsort_matches_oracle ~config:(tiny_config ~degeneration:false ()) ~ordering xml
  in
  check Alcotest.bool "reverse external sort used" true (r.Nexsort.external_sorts > 0)

let test_sort_by_text_ordering () =
  let xml = "<r><w>delta</w><w>alpha</w><w>charlie</w><w>bravo</w></r>" in
  let ordering = Ordering.make Ordering.By_text in
  let sorted, _ = Engine.sort_string ~config:(tiny_config ()) ~ordering xml in
  check tree_eq "by text"
    (parse "<r><w>alpha</w><w>bravo</w><w>charlie</w><w>delta</w></r>")
    (parse sorted)

let test_sort_depth_limited () =
  let xml = gen_doc ~height:5 3 in
  List.iter
    (fun d ->
      ignore
        (nexsort_matches_oracle ~depth_limit:d
           ~config:(tiny_config ~depth_limit:d ())
           ~ordering:by_id xml))
    [ 1; 2; 3 ]

let test_sort_idempotent () =
  let xml = gen_doc 4 in
  let config = tiny_config () in
  let once, _ = Engine.sort_string ~config ~ordering:by_id xml in
  let twice, _ = Engine.sort_string ~config ~ordering:by_id once in
  check tree_eq "idempotent" (parse once) (parse twice)

let test_sort_output_is_sorted_invariant () =
  let xml = gen_doc 5 in
  let sorted, _ = Engine.sort_string ~config:(tiny_config ()) ~ordering:by_id xml in
  check Alcotest.bool "invariant" true (Baselines.Tree_sort.sorted by_id (parse sorted))

let test_sort_packed_rejects_subtree_keys () =
  let ordering = Ordering.make Ordering.By_text in
  try
    ignore
      (Engine.sort_string ~config:(tiny_config ~encoding:Config.Packed ()) ~ordering "<a/>");
    Alcotest.fail "expected Invalid_argument"
  with Invalid_argument _ -> ()

let test_sort_malformed_input () =
  try
    ignore (Engine.sort_string ~config:(tiny_config ()) ~ordering:by_id "<a><b></a>");
    Alcotest.fail "expected parse error"
  with Xmlio.Parser.Error _ -> ()

let test_sort_fusion_off_same_output () =
  (* root fusion is a pure optimization: identical output, fewer I/Os *)
  let xml = gen_doc 21 in
  let with_fusion, rf =
    Engine.sort_string
      ~config:(Config.make ~block_size:128 ~memory_blocks:8 ~root_fusion:true ())
      ~ordering:by_id xml
  in
  let without_fusion, rn =
    Engine.sort_string
      ~config:(Config.make ~block_size:128 ~memory_blocks:8 ~root_fusion:false ())
      ~ordering:by_id xml
  in
  check Alcotest.string "same output" without_fusion with_fusion;
  check Alcotest.bool "fusion does not cost I/O" true
    (Extmem.Io_stats.total rf.Nexsort.total_io <= Extmem.Io_stats.total rn.Nexsort.total_io)

let prop_fusion_identical =
  (* fusion must be invisible in the output: for any generated document
     and memory geometry, the fused and unfused paths produce
     byte-identical sorted XML *)
  QCheck.Test.make ~name:"fused and unfused outputs are byte-identical" ~count:20
    QCheck.(pair (int_bound 1000) (int_range 8 16))
    (fun (seed, memory_blocks) ->
      let xml = gen_doc ~max_elements:200 seed in
      let mk root_fusion = Config.make ~block_size:128 ~memory_blocks ~root_fusion () in
      let fused, _ = Engine.sort_string ~config:(mk true) ~ordering:by_id xml in
      let unfused, _ = Engine.sort_string ~config:(mk false) ~ordering:by_id xml in
      String.equal fused unfused)

let test_fusion_saves_exactly_root_run_io () =
  (* a threshold larger than the document makes the root the only subtree
     sort — one big external sort.  Without fusion its result is
     materialised as the root run and read straight back during output;
     with fusion the final merge streams into the writer.  The saving is
     therefore exactly one write plus one read of every root-run block. *)
  let xml = gen_doc ~max_elements:300 33 in
  let mk root_fusion =
    Config.make ~block_size:128 ~memory_blocks:8 ~threshold:1_000_000 ~degeneration:false
      ~root_fusion ()
  in
  let fused, rf = Engine.sort_string ~config:(mk true) ~ordering:by_id xml in
  let unfused, rn = Engine.sort_string ~config:(mk false) ~ordering:by_id xml in
  check Alcotest.string "same output" unfused fused;
  check Alcotest.int "root is the only subtree sort" 1 rn.Nexsort.subtree_sorts;
  check Alcotest.int "and it ran externally" 1 rn.Nexsort.external_sorts;
  let root_run_blocks = rn.Nexsort.run_blocks - rf.Nexsort.run_blocks in
  check Alcotest.bool "root run materialised only without fusion" true (root_run_blocks > 0);
  check Alcotest.int "no run store blocks at all when fused" 0 rf.Nexsort.run_blocks;
  let runs_io (r : Nexsort.report) =
    Extmem.Io_stats.total (List.assoc "runs" r.Nexsort.breakdown)
  in
  check Alcotest.int "fusing saves exactly 2 x root-run blocks of run-store I/O"
    (2 * root_run_blocks)
    (runs_io rn - runs_io rf);
  check Alcotest.bool "and at least that much in total" true
    (Extmem.Io_stats.total rn.Nexsort.total_io - Extmem.Io_stats.total rf.Nexsort.total_io
     >= 2 * root_run_blocks)

let test_output_fault_leaves_whole_blocks () =
  (* a failing output phase must not leave a torn final block: whatever
     reached the device is whole blocks of the fault-free serialization *)
  let xml = gen_doc 23 in
  let config = tiny_config () in
  let bs = config.Config.block_size in
  let reference, _ = Engine.sort_string ~config ~ordering:by_id xml in
  check Alcotest.bool "document spans several blocks" true (String.length reference > 3 * bs);
  let input = Extmem.Device.of_string ~block_size:bs xml in
  let output = Extmem.Device.in_memory ~block_size:bs () in
  Extmem.Device.push_layer output
    (Extmem.Layer.fault_hook (fun op i -> op = Extmem.Backend.Write && i = 2));
  (try
     ignore (sort_device ~config ~ordering:by_id ~input ~output ());
     Alcotest.fail "expected Device.Fault"
   with Extmem.Device.Fault (Extmem.Device.Write, 2) -> ());
  (* blocks before the faulted one arrived intact *)
  let buf = Bytes.create bs in
  for i = 0 to 1 do
    Extmem.Device.read_block output i buf;
    check Alcotest.string
      (Printf.sprintf "block %d is a whole block of the reference output" i)
      (String.sub reference (i * bs) bs)
      (Bytes.to_string buf)
  done

let test_sort_input_fault_surfaces () =
  (* a failing device read must surface as Device.Fault, not corrupt output *)
  let xml = gen_doc 22 in
  let config = tiny_config () in
  let input = Extmem.Device.of_string ~block_size:config.Config.block_size xml in
  let output = Extmem.Device.in_memory ~block_size:config.Config.block_size () in
  let armed = ref true in
  Extmem.Device.push_layer input
    (Extmem.Layer.fault_hook (fun op i -> !armed && op = Extmem.Backend.Read && i = 2));
  (try
     ignore (sort_device ~config ~ordering:by_id ~input ~output ());
     Alcotest.fail "expected Device.Fault"
   with Extmem.Device.Fault (Extmem.Device.Read, 2) -> ());
  (* disarming the fault layer lets the same devices finish the job *)
  armed := false;
  let output2 = Extmem.Device.in_memory ~block_size:config.Config.block_size () in
  let r = sort_device ~config ~ordering:by_id ~input ~output:output2 () in
  check Alcotest.bool "recovered" true (r.Nexsort.elements > 0)

let test_sort_jobs_equivalence () =
  (* the worker pool must be invisible in the result: byte-identical
     output and an identical I/O bill for every worker count, with the
     per-worker report rows proving the parallel path actually ran *)
  let tasks_seen = ref 0 in
  List.iter
    (fun seed ->
      let xml = gen_doc ~height:5 ~max_elements:600 seed in
      let mk jobs = Config.make ~block_size:128 ~memory_blocks:8 ~jobs () in
      let ref_out, ref_rep = Engine.sort_string ~config:(mk 1) ~ordering:by_id xml in
      check Alcotest.int (Printf.sprintf "seed %d jobs 1 has no worker rows" seed) 0
        (List.length ref_rep.Nexsort.workers);
      List.iter
        (fun jobs ->
          let out, rep = Engine.sort_string ~config:(mk jobs) ~ordering:by_id xml in
          check Alcotest.string (Printf.sprintf "seed %d jobs %d bytes" seed jobs) ref_out out;
          check Alcotest.int
            (Printf.sprintf "seed %d jobs %d total io" seed jobs)
            (Extmem.Io_stats.total ref_rep.Nexsort.total_io)
            (Extmem.Io_stats.total rep.Nexsort.total_io);
          check Alcotest.int (Printf.sprintf "seed %d jobs %d worker rows" seed jobs) jobs
            (List.length rep.Nexsort.workers);
          List.iter
            (fun w -> tasks_seen := !tasks_seen + w.Nexsort.Sort_pool.w_tasks)
            rep.Nexsort.workers)
        [ 2; 4 ])
    [ 3; 17 ];
  check Alcotest.bool "some subtree sorts ran on workers" true (!tasks_seen > 0)

exception Boom

let test_aborted_external_sort_restores_budget () =
  (* an exception raised mid-external-sort — while the data-stack window
     may hold borrowed arena blocks — must leave the session's budget
     exactly as a completed sort would: every sort lease released and the
     window shed back to its configured size *)
  let config = Config.make ~block_size:256 ~memory_blocks:12 () in
  Engine.with_session config @@ fun session ->
  let budget = session.Nexsort.Session.budget in
  let baseline = Extmem.Memory_budget.used_blocks budget in
  let run variant =
    let fed = ref 0 in
    let input () =
      incr fed;
      if !fed > 30 then raise Boom
      else begin
        (* push the data stack while the sort drains input, as the real
           scan does; if the budget has slack the window re-borrows *)
        Extmem.Ext_stack.push session.Nexsort.Session.data_stack (String.make 64 'x');
        Some
          (Nexsort.Session.view_entry session
             (Nexsort.Session.encode_entry session
                (Nexsort.Entry.Start
                   {
                     level = 2;
                     pos = !fed;
                     name = "e";
                     attrs = [];
                     key = Some (Key.Num (float_of_int !fed));
                   })))
      end
    in
    (try
       (match variant with
       | `Sink ->
           ignore
             (Nexsort.Subtree_sort.sort_external_to session ~input ~scan:`Forward ignore
               : Extsort.External_sort.stats)
       | `Source ->
           ignore
             (Nexsort.Subtree_sort.sort_external_source session ~input ~scan:`Forward
               : Nexsort.Subtree_sort.streamed));
       Alcotest.fail "expected Boom"
     with Boom -> ());
    check Alcotest.int "borrow shed after abort" 0
      (Extmem.Ext_stack.borrowed session.Nexsort.Session.data_stack);
    check Alcotest.int "budget restored after abort" baseline
      (Extmem.Memory_budget.used_blocks budget);
    (* drain what the aborted sort left on the data stack *)
    while not (Extmem.Ext_stack.is_empty session.Nexsort.Session.data_stack) do
      ignore (Extmem.Ext_stack.pop session.Nexsort.Session.data_stack)
    done
  in
  run `Sink;
  run `Source

let test_report_io_accounting () =
  let xml = gen_doc 6 in
  let config = tiny_config () in
  let input = Extmem.Device.of_string ~block_size:config.Config.block_size xml in
  let output = Extmem.Device.in_memory ~block_size:config.Config.block_size () in
  let r = sort_device ~config ~ordering:by_id ~input ~output () in
  let bs = config.Config.block_size in
  let in_blocks = (String.length xml + bs - 1) / bs in
  check Alcotest.int "input read exactly once" in_blocks r.Nexsort.input_io.Extmem.Io_stats.reads;
  check Alcotest.bool "output written" true (r.Nexsort.output_io.Extmem.Io_stats.writes > 0);
  check Alcotest.bool "breakdown sums below total" true
    (Extmem.Io_stats.total r.Nexsort.total_io
    >= Extmem.Io_stats.total r.Nexsort.input_io + Extmem.Io_stats.total r.Nexsort.output_io);
  check Alcotest.bool "run blocks recorded" true (r.Nexsort.run_blocks > 0)

let test_sort_file_backed_devices () =
  (* the whole pipeline against real files: input and output on disk *)
  let xml = gen_doc ~max_elements:300 31 in
  let in_path = Filename.temp_file "nexsort_in" ".xml" in
  let out_path = Filename.temp_file "nexsort_out" ".xml" in
  Fun.protect
    ~finally:(fun () ->
      Sys.remove in_path;
      Sys.remove out_path)
    (fun () ->
      let oc = open_out_bin in_path in
      output_string oc xml;
      close_out oc;
      let bs = 256 in
      let input = Extmem.Device.file ~block_size:bs ~path:(in_path ^ ".dev") () in
      (* load the file contents onto the device block by block *)
      let w = Extmem.Block_writer.create input in
      Extmem.Block_writer.write_string w xml;
      let e = Extmem.Block_writer.close w in
      Extmem.Device.set_byte_length input e.Extmem.Extent.bytes;
      Extmem.Io_stats.reset (Extmem.Device.stats input);
      let output = Extmem.Device.file ~block_size:bs ~path:out_path () in
      let config = Config.make ~block_size:bs ~memory_blocks:8 () in
      let r = sort_device ~config ~ordering:by_id ~input ~output () in
      check Alcotest.bool "sorted elements" true (r.Nexsort.elements > 100);
      let sorted = Extmem.Device.contents output in
      check tree_eq "file-backed result"
        (Baselines.Tree_sort.sort_tree by_id (parse xml))
        (parse sorted);
      Extmem.Device.close input;
      Extmem.Device.close output;
      Sys.remove (in_path ^ ".dev"))

(* ---- endpoints: devices over the user's own files ---- *)

let read_file path = In_channel.with_open_bin path In_channel.input_all

let write_file path s = Out_channel.with_open_bin path (fun oc -> output_string oc s)

let temp_residue dir =
  List.filter (fun f -> Filename.check_suffix f ".tmp") (Array.to_list (Sys.readdir dir))

(* A private directory for one test's files, removed afterwards. *)
let with_temp_dir f =
  let dir = Filename.temp_file "endpoints" ".d" in
  Sys.remove dir;
  Sys.mkdir dir 0o755;
  Fun.protect
    ~finally:(fun () ->
      Array.iter (fun f -> Sys.remove (Filename.concat dir f)) (Sys.readdir dir);
      Sys.rmdir dir)
    (fun () -> f dir)

let test_endpoints_sort_file_to_file () =
  (* a sort from an input endpoint into an output endpoint gives the bytes
     and the I/O counts of the same sort between in-memory devices *)
  with_temp_dir @@ fun dir ->
  let xml = gen_doc ~max_elements:300 41 in
  let in_path = Filename.concat dir "in.xml" and out_path = Filename.concat dir "out.xml" in
  write_file in_path xml;
  let config = Config.make ~block_size:256 ~memory_blocks:8 () in
  let r =
    Config.with_input config in_path (fun inp ->
        let d = inp.Extmem.Device_spec.device in
        check Alcotest.int "byte length" (String.length xml) (Extmem.Device.byte_length d);
        check Alcotest.int "blocks" ((String.length xml + 255) / 256) (Extmem.Device.block_count d);
        Config.with_output config out_path (fun out ->
            sort_device ~config ~ordering:by_id ~input:d
              ~output:out.Extmem.Device_spec.device ()))
  in
  let expected, r' = Engine.sort_string ~config ~ordering:by_id xml in
  check Alcotest.string "output bytes" expected (read_file out_path);
  check Alcotest.int "input io" (Extmem.Io_stats.total r'.Nexsort.input_io)
    (Extmem.Io_stats.total r.Nexsort.input_io);
  check Alcotest.int "total io" (Extmem.Io_stats.total r'.Nexsort.total_io)
    (Extmem.Io_stats.total r.Nexsort.total_io);
  check (Alcotest.list Alcotest.string) "no temporary file" [] (temp_residue dir)

let test_endpoints_output_rolls_back () =
  (* an output endpoint replaces its file only on success: a failure after
     blocks were written leaves an old file's bytes, or no file *)
  with_temp_dir @@ fun dir ->
  let config = Config.make ~block_size:64 () in
  let path = Filename.concat dir "out.xml" in
  let write_then_fail (b : Extmem.Device_spec.built) =
    let w = Extmem.Block_writer.create b.Extmem.Device_spec.device in
    Extmem.Block_writer.write_string w (String.make 1000 'n');
    ignore (Extmem.Block_writer.close w : Extmem.Extent.t);
    failwith "late failure"
  in
  let fails () =
    match Config.with_output config path write_then_fail with
    | _ -> false
    | exception Failure _ -> true
  in
  check Alcotest.bool "raises" true (fails ());
  check Alcotest.bool "absent output stays absent" false (Sys.file_exists path);
  write_file path "old bytes";
  check Alcotest.bool "raises" true (fails ());
  check Alcotest.string "old output kept" "old bytes" (read_file path);
  check (Alcotest.list Alcotest.string) "no temporary file" [] (temp_residue dir);
  (* on success the file is cut to the byte length, not the last block *)
  Config.with_output config path (fun b ->
      let d = b.Extmem.Device_spec.device in
      let w = Extmem.Block_writer.create d in
      Extmem.Block_writer.write_string w "new";
      let e = Extmem.Block_writer.close w in
      Extmem.Device.set_byte_length d e.Extmem.Extent.bytes);
  check Alcotest.string "replaced" "new" (read_file path);
  check (Alcotest.list Alcotest.string) "no temporary file" [] (temp_residue dir)

let live_bytes () =
  Gc.full_major ();
  (Gc.stat ()).Gc.live_words * (Sys.word_size / 8)

let read_all dev =
  let r = Extmem.Block_reader.of_device dev in
  let buf = Bytes.create 4096 in
  let rec go n =
    match Extmem.Block_reader.read_bytes r buf 0 (Bytes.length buf) with
    | 0 -> n
    | k -> go (n + k)
  in
  go 0

let test_endpoints_input_memory_bound () =
  (* reading a whole input endpoint holds O(B) memory, not the document:
     the live major heap grows by less than a quarter of the file, where
     a device loaded with the file's string grows by more *)
  with_temp_dir @@ fun dir ->
  let path = Filename.concat dir "big.xml" in
  let config = Config.make () in
  ignore
    (Config.with_output config path (fun b ->
         Xmlgen.Gen.to_device b.Extmem.Device_spec.device
           (Xmlgen.Gen.exact_shape ~seed:3 ~avg_bytes:200 ~fanouts:[ 30; 30; 25 ])));
  let size = (Unix.stat path).Unix.st_size in
  check Alcotest.bool "at least 4 MB" true (size >= 4 lsl 20);
  let bound = size / 4 in
  (* live bytes gained from before the device exists until it has been
     read to the end *)
  let growth with_device =
    let before = live_bytes () in
    with_device (fun dev ->
        check Alcotest.int "every byte read" size (read_all dev);
        let grown = live_bytes () - before in
        (* the device stays live through the measurement *)
        ignore (Sys.opaque_identity dev);
        grown)
  in
  let endpoint = growth (fun k -> Config.with_input config path (fun b -> k b.Extmem.Device_spec.device)) in
  check Alcotest.bool
    (Printf.sprintf "endpoint grows %d bytes, under %d" endpoint bound)
    true (endpoint < bound);
  let loaded =
    growth (fun k ->
        let d = Extmem.Device.in_memory ~block_size:config.Config.block_size () in
        Extmem.Device.load_string d (read_file path);
        k d)
  in
  check Alcotest.bool
    (Printf.sprintf "loaded device grows %d bytes, not under %d" loaded bound)
    false (loaded < bound)

let test_all_sorters_agree_on_company_docs () =
  (* the three sorters and XSort-on-root-path all agree where they should *)
  let pair = Xmlgen.Company.generate ~seed:77 ~regions:4 ~employees_per_branch:6 () in
  let doc = pair.Xmlgen.Company.personnel in
  let ordering = Xmlgen.Company.ordering in
  let config = tiny_config () in
  let nx, _ = Engine.sort_string ~config ~ordering doc in
  let kp, _ = Baselines.Keypath_sort.sort_string ~config ~ordering doc in
  let ts = Baselines.Tree_sort.sort_string ordering doc in
  check tree_eq "nexsort = treesort" (parse ts) (parse nx);
  check tree_eq "keypath = treesort" (parse ts) (parse kp);
  (* XSort over every element sorted one level at a time reaches the same
     fixpoint because every element is a target *)
  let all_tags = [ "company"; "region"; "branch"; "employee"; "name"; "phone" ] in
  let xs, _ = Baselines.Xsort.sort_string ~config ~ordering ~targets:all_tags doc in
  check tree_eq "xsort everywhere = full sort" (parse ts) (parse xs)

let test_sort_stress_combined_features () =
  (* packed encoding + degeneration + compound descending ordering +
     tiny memory, on a mid-size generated document *)
  let xml = gen_doc ~height:5 ~max_fanout:9 ~max_elements:1500 99 in
  let ordering =
    Ordering.make
      ~rules:[ ("n2", Ordering.Desc (Ordering.By_attr "id")) ]
      (Ordering.Composite [ Ordering.By_attr "id"; Ordering.By_tag ])
  in
  let config =
    Config.make ~block_size:128 ~memory_blocks:8 ~encoding:Config.Packed ~degeneration:true ()
  in
  let sorted, report = Engine.sort_string ~config ~ordering xml in
  check tree_eq "stress"
    (Baselines.Tree_sort.sort_tree ordering (parse xml))
    (parse sorted);
  check Alcotest.bool "did real work" true (report.Nexsort.subtree_sorts > 5)

(* ------------------------------------------------------------------ *)
(* The I/O lemmas of §4.2: per-component costs are linear in the input *)

let lemma_breakdown ~config xml =
  let input = Extmem.Device.of_string ~block_size:config.Config.block_size xml in
  let output = Extmem.Device.in_memory ~block_size:config.Config.block_size () in
  let r = sort_device ~config ~ordering:by_id ~input ~output () in
  let get name = Extmem.Io_stats.total (List.assoc name r.Nexsort.breakdown) in
  (r, get)

let test_lemma_stack_paging_linear () =
  (* Lemmas 4.10/4.11/4.13: data-, path- and output-location-stack paging
     are all O(N/B); measure them against the input block count *)
  let config =
    Config.make ~block_size:128 ~memory_blocks:8 ~degeneration:false ~root_fusion:false ()
  in
  let xml = gen_doc ~height:6 ~max_fanout:5 ~max_elements:2000 41 in
  let n_blocks = (String.length xml + 127) / 128 in
  let _, get = lemma_breakdown ~config xml in
  check Alcotest.bool
    (Printf.sprintf "data stack %d <= 4 * %d (Lemma 4.10)" (get "data stack") n_blocks)
    true
    (get "data stack" <= 4 * n_blocks);
  check Alcotest.bool
    (Printf.sprintf "path stack %d small (Lemma 4.11)" (get "path stack"))
    true
    (get "path stack" <= n_blocks);
  check Alcotest.bool
    (Printf.sprintf "output location stack %d small (Lemma 4.13)" (get "output location stack"))
    true
    (get "output location stack" <= n_blocks)

let test_lemma_run_blocks_linear () =
  (* Lemma 4.8: total sorted-run blocks are O(N/B); and Lemma 4.12: run
     reads during output are bounded by run blocks + number of runs *)
  let config = Config.make ~block_size:128 ~memory_blocks:8 ~root_fusion:false () in
  let xml = gen_doc ~height:5 ~max_fanout:6 ~max_elements:1500 43 in
  let n_blocks = (String.length xml + 127) / 128 in
  let r, get = lemma_breakdown ~config xml in
  check Alcotest.bool
    (Printf.sprintf "run blocks %d <= 4 * %d (Lemma 4.8)" r.Nexsort.run_blocks n_blocks)
    true
    (r.Nexsort.run_blocks <= 4 * n_blocks);
  check Alcotest.bool "run io bounded (Lemma 4.12)" true
    (get "runs" <= (3 * r.Nexsort.run_blocks) + (2 * r.Nexsort.runs_created))

let test_adversarial_shape () =
  (* the Lemma 4.1 worst case: the generator really produces the claimed
     shape (every element has 0 or k children, at most one exception) *)
  let xml, stats =
    Xmlgen.Gen.to_string (fun sink -> Xmlgen.Gen.adversarial ~k:5 ~n_elements:203 sink)
  in
  check Alcotest.int "element budget" 203 stats.Xmlgen.Gen.elements;
  let t = parse xml in
  let exceptions = ref 0 in
  let rec walk = function
    | Xmlio.Tree.Text _ -> ()
    | Xmlio.Tree.Element e ->
        let n = List.length e.Xmlio.Tree.children in
        if n <> 0 && n <> 5 then incr exceptions;
        List.iter walk e.Xmlio.Tree.children
  in
  walk t;
  check Alcotest.bool "at most one exceptional fan-out" true (!exceptions <= 1);
  check Alcotest.int "max fanout is k" 5 (Xmlio.Tree.max_fanout t)

let test_adversarial_sorts_correctly () =
  let xml, _ =
    Xmlgen.Gen.to_string (fun sink ->
        Xmlgen.Gen.adversarial ~k:8 ~n_elements:400 ~avg_bytes:60 sink)
  in
  ignore (nexsort_matches_oracle ~config:(tiny_config ()) ~ordering:by_id xml)

(* ------------------------------------------------------------------ *)
(* Key-path baseline *)

let keypath_matches_oracle ~config ~ordering xml =
  let sorted, report = Baselines.Keypath_sort.sort_string ~config ~ordering xml in
  let expected = Baselines.Tree_sort.sort_tree ordering (parse xml) in
  check tree_eq ("keypath sorted " ^ String.sub xml 0 (min 40 (String.length xml))) expected
    (parse sorted);
  report

let test_keypath_sort_small () =
  ignore
    (keypath_matches_oracle ~config:(tiny_config ()) ~ordering:by_id
       "<r id=\"0\"><a id=\"3\"/><b id=\"1\"><c id=\"9\"/><c id=\"2\"/></b></r>")

let test_keypath_sort_generated () =
  let xml = gen_doc 7 in
  let r = keypath_matches_oracle ~config:(tiny_config ()) ~ordering:by_id xml in
  check Alcotest.bool "records emitted" true (r.Baselines.Keypath_sort.records > 0)

let test_keypath_rejects_subtree_keys () =
  try
    ignore
      (Baselines.Keypath_sort.sort_string ~config:(tiny_config ())
         ~ordering:(Ordering.make Ordering.By_text) "<a/>");
    Alcotest.fail "expected Invalid_argument"
  with Invalid_argument _ -> ()

let test_keypath_table () =
  let rows =
    Baselines.Keypath_sort.keypath_table ~ordering:Xmlgen.Company.ordering
      Xmlgen.Company.figure_1_d1
  in
  (* Table 1 of the paper *)
  let paths = List.map fst rows in
  check (Alcotest.list Alcotest.string) "table 1 paths"
    [ "/"; "/NE"; "/AC"; "/AC/Durham"; "/AC/Durham/454"; "/AC/Durham/323";
      "/AC/Durham/323/name"; "/AC/Durham/323/phone"; "/AC/Atlanta" ]
    paths

(* ------------------------------------------------------------------ *)
(* XSort baseline (one-level sorting) *)

(* oracle: sort only the child lists of target elements *)
let xsort_oracle ordering targets tree =
  let counter = ref 0 in
  let rec go node =
    incr counter;
    let pos = !counter in
    match node with
    | Xmlio.Tree.Text _ -> (node, Key.Null, pos)
    | Xmlio.Tree.Element e ->
        let children = List.map go e.Xmlio.Tree.children in
        let children =
          if List.mem e.Xmlio.Tree.name targets then
            List.sort
              (fun (_, ka, pa) (_, kb, pb) ->
                let c = Key.compare ka kb in
                if c <> 0 then c else compare pa pb)
              children
          else children
        in
        ( Xmlio.Tree.Element { e with Xmlio.Tree.children = List.map (fun (n, _, _) -> n) children },
          Ordering.key_of_tree ordering e,
          pos )
  in
  let t, _, _ = go tree in
  t

let test_xsort_one_level () =
  let xml = "<r id=\"0\"><g id=\"9\"><c id=\"2\"/><c id=\"1\"/></g><g id=\"3\"><c id=\"5\"/><c id=\"4\"/></g></r>" in
  (* sort only the children of <g> elements: the <g>s themselves stay put *)
  let sorted, report =
    Baselines.Xsort.sort_string ~config:(tiny_config ()) ~ordering:by_id ~targets:[ "g" ] xml
  in
  check tree_eq "only g children sorted"
    (parse
       "<r id=\"0\"><g id=\"9\"><c id=\"1\"/><c id=\"2\"/></g><g id=\"3\"><c id=\"4\"/><c id=\"5\"/></g></r>")
    (parse sorted);
  check Alcotest.int "two targets" 2 report.Baselines.Xsort.targets_sorted;
  check Alcotest.int "four children" 4 report.Baselines.Xsort.children_sorted

let test_xsort_nested_targets () =
  let xml = "<g id=\"0\"><g id=\"2\"><x id=\"7\"/><x id=\"6\"/></g><g id=\"1\"><x id=\"5\"/></g></g>" in
  let sorted, _ =
    Baselines.Xsort.sort_string ~config:(tiny_config ()) ~ordering:by_id ~targets:[ "g" ] xml
  in
  check tree_eq "nested targets sorted"
    (parse "<g id=\"0\"><g id=\"1\"><x id=\"5\"/></g><g id=\"2\"><x id=\"6\"/><x id=\"7\"/></g></g>")
    (parse sorted)

let test_xsort_spills () =
  (* a wide target: the child records exceed the arena and go external *)
  let children =
    String.concat ""
      (List.init 600 (fun i -> Printf.sprintf "<c id=\"%d\"/>" ((i * 7919) mod 600)))
  in
  let xml = "<r id=\"0\">" ^ children ^ "</r>" in
  let sorted, report =
    Baselines.Xsort.sort_string ~config:(tiny_config ()) ~ordering:by_id ~targets:[ "r" ] xml
  in
  check Alcotest.bool "spilled" true (report.Baselines.Xsort.spilled_sorts > 0);
  check tree_eq "sorted anyway"
    (xsort_oracle by_id [ "r" ] (parse xml))
    (parse sorted)

let test_xsort_xpath_selector () =
  (* sort only Durham's employees, selected by path *)
  let xml =
    "<company><region name=\"AC\">\
     <branch name=\"Durham\"><e id=\"2\"/><e id=\"1\"/></branch>\
     <branch name=\"Atlanta\"><e id=\"9\"/><e id=\"8\"/></branch>\
     </region></company>"
  in
  let selector = Xmlio.Xpath.parse "//branch[@name='Durham']" in
  let sorted, report =
    Baselines.Xsort.sort_string ~config:(tiny_config ()) ~selector ~ordering:by_id ~targets:[]
      xml
  in
  check tree_eq "only Durham sorted"
    (parse
       "<company><region name=\"AC\">\
        <branch name=\"Durham\"><e id=\"1\"/><e id=\"2\"/></branch>\
        <branch name=\"Atlanta\"><e id=\"9\"/><e id=\"8\"/></branch>\
        </region></company>")
    (parse sorted);
  check Alcotest.int "one target" 1 report.Baselines.Xsort.targets_sorted;
  (* positional predicates are rejected for streaming selection *)
  try
    ignore
      (Baselines.Xsort.sort_string ~config:(tiny_config ())
         ~selector:(Xmlio.Xpath.parse "/company/region[1]") ~ordering:by_id ~targets:[] xml);
    Alcotest.fail "expected Invalid_argument"
  with Invalid_argument _ -> ()

let test_xsort_errors () =
  (try
     ignore (Baselines.Xsort.sort_string ~ordering:by_id ~targets:[] "<a/>");
     Alcotest.fail "expected Invalid_argument"
   with Invalid_argument _ -> ());
  try
    ignore
      (Baselines.Xsort.sort_string ~ordering:(Ordering.make Ordering.By_text) ~targets:[ "a" ]
         "<a/>");
    Alcotest.fail "expected Invalid_argument"
  with Invalid_argument _ -> ()

let arb_xsort_doc =
  QCheck.make ~print:(fun s -> s)
    QCheck.Gen.(map (fun seed -> gen_doc ~height:4 ~max_fanout:5 ~max_elements:150 seed)
      (int_bound 5000))

let prop_xsort_equals_oracle =
  QCheck.Test.make ~name:"XSort = one-level oracle on random documents" ~count:60 arb_xsort_doc
    (fun xml ->
      let sorted, _ =
        Baselines.Xsort.sort_string ~config:(tiny_config ()) ~ordering:by_id
          ~targets:[ "n2"; "n3" ] xml
      in
      Xmlio.Tree.equal (xsort_oracle by_id [ "n2"; "n3" ] (parse xml)) (parse sorted))

let prop_xsort_does_less_than_nexsort =
  (* XSort's output sorted at the target level only; NEXSORT's everywhere *)
  QCheck.Test.make ~name:"XSort output need not be fully sorted" ~count:30 arb_xsort_doc
    (fun xml ->
      let xs, _ =
        Baselines.Xsort.sort_string ~config:(tiny_config ()) ~ordering:by_id ~targets:[ "n1" ] xml
      in
      let nx, _ = Engine.sort_string ~config:(tiny_config ()) ~ordering:by_id xml in
      (* NEXSORT's output always satisfies the invariant; XSort's only has
         to when the document happens to be shallow *)
      Baselines.Tree_sort.sorted by_id (parse nx)
      &&
      (* and XSort preserves the document everywhere else: same multiset of
         elements *)
      Xmlio.Tree.element_count (parse xs) = Xmlio.Tree.element_count (parse xml))

(* ------------------------------------------------------------------ *)
(* Tree_sort oracle self-checks *)

let test_tree_sort_sorted_check () =
  let unsorted = parse "<r id=\"0\"><b id=\"2\"/><a id=\"1\"/></r>" in
  check Alcotest.bool "detects unsorted" false (Baselines.Tree_sort.sorted by_id unsorted);
  check Alcotest.bool "accepts sorted" true
    (Baselines.Tree_sort.sorted by_id (Baselines.Tree_sort.sort_tree by_id unsorted))

let test_tree_sort_depth_limit () =
  let t = parse "<r id=\"0\"><b id=\"2\"><y id=\"9\"/><x id=\"1\"/></b><a id=\"1\"/></r>" in
  let d1 = Baselines.Tree_sort.sort_tree ~depth_limit:1 by_id t in
  check tree_eq "depth 1 sorts only root children"
    (parse "<r id=\"0\"><a id=\"1\"/><b id=\"2\"><y id=\"9\"/><x id=\"1\"/></b></r>")
    d1

(* ------------------------------------------------------------------ *)
(* Properties: random documents, geometries and algorithms agree *)

let arb_config =
  QCheck.make
    ~print:(fun c -> Format.asprintf "%a" Config.pp c)
    QCheck.Gen.(
      let* block_size = oneofl [ 64; 128; 256 ] in
      let* memory_blocks = int_range 8 16 in
      let* threshold_mult = oneofl [ 1; 2; 4 ] in
      let* degeneration = bool in
      let* root_fusion = bool in
      let* encoding = oneofl [ Config.Plain; Config.Dict; Config.Packed ] in
      return
        (Config.make ~block_size ~memory_blocks ~threshold:(threshold_mult * block_size)
           ~degeneration ~root_fusion ~encoding ()))

let arb_doc =
  QCheck.make
    ~print:(fun s -> s)
    QCheck.Gen.(
      let* seed = int_bound 10_000 in
      let* height = int_range 2 5 in
      let* max_fanout = int_range 1 8 in
      let* max_elements = int_range 5 300 in
      return (gen_doc ~height ~max_fanout ~max_elements seed))

let prop_nexsort_equals_oracle =
  QCheck.Test.make ~name:"NEXSORT = oracle on random documents and configs" ~count:120
    (QCheck.pair arb_doc arb_config)
    (fun (xml, config) ->
      let sorted, _ = Engine.sort_string ~config ~ordering:by_id xml in
      let expected = Baselines.Tree_sort.sort_tree by_id (parse xml) in
      Xmlio.Tree.equal expected (parse sorted))

let prop_keypath_equals_oracle =
  QCheck.Test.make ~name:"key-path sort = oracle on random documents and configs" ~count:60
    (QCheck.pair arb_doc arb_config)
    (fun (xml, config) ->
      let sorted, _ = Baselines.Keypath_sort.sort_string ~config ~ordering:by_id xml in
      let expected = Baselines.Tree_sort.sort_tree by_id (parse xml) in
      Xmlio.Tree.equal expected (parse sorted))

let prop_structure_preserved =
  (* sorting permutes sibling lists only: the multiset of (parent tag,
     child tag/text) edges is invariant *)
  QCheck.Test.make ~name:"NEXSORT preserves parent-child structure" ~count:60 arb_doc (fun xml ->
      let edges t =
        let acc = ref [] in
        let rec go parent = function
          | Xmlio.Tree.Text s -> acc := (parent, "text:" ^ s) :: !acc
          | Xmlio.Tree.Element e ->
              acc := (parent, "elem:" ^ e.Xmlio.Tree.name ^ String.concat ";" (List.map snd e.Xmlio.Tree.attrs)) :: !acc;
              List.iter (go e.Xmlio.Tree.name) e.Xmlio.Tree.children
        in
        go "" t;
        List.sort compare !acc
      in
      let sorted, _ = Engine.sort_string ~config:(tiny_config ()) ~ordering:by_id xml in
      edges (parse xml) = edges (parse sorted))

let prop_subtree_ordering_equals_oracle =
  QCheck.Test.make ~name:"NEXSORT with subtree-derived keys = oracle" ~count:40 arb_doc
    (fun xml ->
      let ordering = Ordering.make ~rules:[ ("n3", Ordering.By_text) ] (Ordering.By_attr "id") in
      let sorted, _ = Engine.sort_string ~config:(tiny_config ()) ~ordering xml in
      Xmlio.Tree.equal (Baselines.Tree_sort.sort_tree ordering (parse xml)) (parse sorted))

(* ------------------------------------------------------------------ *)

let () =
  Alcotest.run "nexsort"
    [
      ( "key",
        [
          Alcotest.test_case "of_string" `Quick test_key_of_string;
          Alcotest.test_case "compare" `Quick test_key_compare;
          Alcotest.test_case "roundtrip" `Quick test_key_roundtrip;
        ] );
      ( "ordering",
        [
          Alcotest.test_case "key_of_tree" `Quick test_ordering_key_of_tree;
          Alcotest.test_case "evaluator scan" `Quick test_evaluator_scan;
          Alcotest.test_case "evaluator by_text" `Quick test_evaluator_by_text;
          Alcotest.test_case "evaluator by_path" `Quick test_evaluator_by_path;
          Alcotest.test_case "compound keys" `Quick test_key_compound;
          Alcotest.test_case "composite and desc" `Quick test_ordering_composite_and_desc;
          Alcotest.test_case "composite with subtree part" `Quick test_ordering_composite_subtree;
          Alcotest.test_case "compound spec strings" `Quick test_ordering_spec_compound;
          Alcotest.test_case "spec strings" `Quick test_ordering_spec_string;
        ] );
      ( "entry",
        [
          Alcotest.test_case "roundtrip" `Quick test_entry_roundtrip;
          Alcotest.test_case "dict compaction shrinks" `Quick test_entry_dict_smaller;
        ] );
      ( "keypath",
        [
          Alcotest.test_case "roundtrip" `Quick test_keypath_roundtrip;
          Alcotest.test_case "compare" `Quick test_keypath_compare;
        ] );
      ( "nexsort",
        [
          Alcotest.test_case "trivial" `Quick test_sort_trivial;
          Alcotest.test_case "small flat" `Quick test_sort_small_flat;
          Alcotest.test_case "figure 1" `Quick test_sort_figure_1;
          Alcotest.test_case "deep chain" `Quick test_sort_deep_chain;
          Alcotest.test_case "duplicate keys stable" `Quick test_sort_duplicate_keys_stable;
          Alcotest.test_case "mixed text children" `Quick test_sort_mixed_text_children;
          Alcotest.test_case "generated, all encodings" `Quick test_sort_generated_all_encodings;
          Alcotest.test_case "degeneration off" `Quick test_sort_degeneration_off;
          Alcotest.test_case "flat wide (fragments)" `Quick test_sort_flat_wide;
          Alcotest.test_case "flat wide external" `Quick test_sort_flat_wide_no_degen_external;
          Alcotest.test_case "flat fragments keep path-stack I/O constant" `Quick
            test_sort_flat_fragments_path_stack_constant;
          Alcotest.test_case "nested fragmented elements" `Quick
            test_sort_nested_fragmented_elements;
          Alcotest.test_case "subtree-derived keys" `Quick test_sort_subtree_keys;
          Alcotest.test_case "by_text ordering" `Quick test_sort_by_text_ordering;
          Alcotest.test_case "depth limited" `Quick test_sort_depth_limited;
          Alcotest.test_case "idempotent" `Quick test_sort_idempotent;
          Alcotest.test_case "sortedness invariant" `Quick test_sort_output_is_sorted_invariant;
          Alcotest.test_case "packed rejects subtree keys" `Quick test_sort_packed_rejects_subtree_keys;
          Alcotest.test_case "malformed input" `Quick test_sort_malformed_input;
          Alcotest.test_case "fusion off same output" `Quick test_sort_fusion_off_same_output;
          qcheck prop_fusion_identical;
          Alcotest.test_case "fusion saves exactly the root-run I/O" `Quick
            test_fusion_saves_exactly_root_run_io;
          Alcotest.test_case "output fault leaves whole blocks" `Quick
            test_output_fault_leaves_whole_blocks;
          Alcotest.test_case "input fault surfaces" `Quick test_sort_input_fault_surfaces;
          Alcotest.test_case "jobs equivalence" `Quick test_sort_jobs_equivalence;
          Alcotest.test_case "aborted external sort restores budget" `Quick
            test_aborted_external_sort_restores_budget;
          Alcotest.test_case "io accounting" `Quick test_report_io_accounting;
          Alcotest.test_case "file-backed devices" `Quick test_sort_file_backed_devices;
          Alcotest.test_case "all sorters agree" `Quick test_all_sorters_agree_on_company_docs;
          Alcotest.test_case "stress combined features" `Quick test_sort_stress_combined_features;
        ] );
      ( "endpoints",
        [
          Alcotest.test_case "sort file to file" `Quick test_endpoints_sort_file_to_file;
          Alcotest.test_case "output rolls back" `Quick test_endpoints_output_rolls_back;
          Alcotest.test_case "input memory bound" `Quick test_endpoints_input_memory_bound;
        ] );
      ( "lemmas",
        [
          Alcotest.test_case "stack paging linear" `Quick test_lemma_stack_paging_linear;
          Alcotest.test_case "run blocks linear" `Quick test_lemma_run_blocks_linear;
          Alcotest.test_case "adversarial shape" `Quick test_adversarial_shape;
          Alcotest.test_case "adversarial sorts" `Quick test_adversarial_sorts_correctly;
        ] );
      ( "keypath_sort",
        [
          Alcotest.test_case "small" `Quick test_keypath_sort_small;
          Alcotest.test_case "generated" `Quick test_keypath_sort_generated;
          Alcotest.test_case "rejects subtree keys" `Quick test_keypath_rejects_subtree_keys;
          Alcotest.test_case "table 1" `Quick test_keypath_table;
        ] );
      ( "xsort",
        [
          Alcotest.test_case "one level" `Quick test_xsort_one_level;
          Alcotest.test_case "nested targets" `Quick test_xsort_nested_targets;
          Alcotest.test_case "spills" `Quick test_xsort_spills;
          Alcotest.test_case "xpath selector" `Quick test_xsort_xpath_selector;
          Alcotest.test_case "errors" `Quick test_xsort_errors;
          qcheck prop_xsort_equals_oracle;
          qcheck prop_xsort_does_less_than_nexsort;
        ] );
      ( "tree_sort",
        [
          Alcotest.test_case "sorted check" `Quick test_tree_sort_sorted_check;
          Alcotest.test_case "depth limit" `Quick test_tree_sort_depth_limit;
        ] );
      ( "properties",
        [
          qcheck prop_nexsort_equals_oracle;
          qcheck prop_keypath_equals_oracle;
          qcheck prop_structure_preserved;
          qcheck prop_subtree_ordering_equals_oracle;
        ] );
    ]
