(* Tests for the XML substrate: escaping, parser, writer, tree, dict. *)

let check = Alcotest.check

let qcheck = QCheck_alcotest.to_alcotest

let event = Alcotest.testable Xmlio.Event.pp Xmlio.Event.equal

let parse ?keep_whitespace s = Xmlio.Parser.to_list (Xmlio.Parser.of_string ?keep_whitespace s)

(* ------------------------------------------------------------------ *)
(* Event *)

(* A physically distinct copy with the same characters, as produced when
   one side of a comparison holds a dict-interned name and the other a
   string freshly sliced out of an input buffer. *)
let fresh s = String.sub (s ^ "!") 0 (String.length s)

let test_event_equal_mixed_interning () =
  let dict = Xmlio.Dict.create () in
  ignore (Xmlio.Dict.intern dict "employee");
  ignore (Xmlio.Dict.intern dict "id");
  let interned = Xmlio.Dict.lookup dict 0 in
  let attr_name = Xmlio.Dict.lookup dict 1 in
  check Alcotest.bool "interned != fresh physically" false (interned == fresh "employee");
  check event "start: interned vs fresh name"
    (Xmlio.Event.Start (interned, [ (attr_name, "7") ]))
    (Xmlio.Event.Start (fresh "employee", [ (fresh "id", fresh "7") ]));
  check event "end: interned vs fresh name" (Xmlio.Event.End interned)
    (Xmlio.Event.End (fresh "employee"));
  check event "text: fresh copies" (Xmlio.Event.Text "pay") (Xmlio.Event.Text (fresh "pay"))

let test_event_equal_distinguishes () =
  let ne msg a b = check Alcotest.bool msg false (Xmlio.Event.equal a b) in
  ne "different names" (Xmlio.Event.Start ("a", [])) (Xmlio.Event.Start ("b", []));
  ne "different kinds" (Xmlio.Event.Start ("a", [])) (Xmlio.Event.End "a");
  ne "end vs text" (Xmlio.Event.End "a") (Xmlio.Event.Text "a");
  ne "attr value differs"
    (Xmlio.Event.Start ("a", [ ("k", "1") ]))
    (Xmlio.Event.Start ("a", [ ("k", "2") ]));
  ne "attr name differs"
    (Xmlio.Event.Start ("a", [ ("k", "1") ]))
    (Xmlio.Event.Start ("a", [ ("j", "1") ]));
  ne "attr order matters"
    (Xmlio.Event.Start ("a", [ ("k", "1"); ("j", "2") ]))
    (Xmlio.Event.Start ("a", [ ("j", "2"); ("k", "1") ]));
  ne "attr count differs" (Xmlio.Event.Start ("a", [ ("k", "1") ])) (Xmlio.Event.Start ("a", []))

let test_event_packed_roundtrip_equal () =
  let p = Xmlio.Event.packed_create () in
  List.iter
    (fun e ->
      Xmlio.Event.pack_into p e;
      check event "pack_into/of_packed preserves equality" e (Xmlio.Event.of_packed p))
    [
      Xmlio.Event.Start ("employee", [ ("id", "7"); ("dept", "sales") ]);
      Xmlio.Event.Start ("employee", []);
      Xmlio.Event.End "employee";
      Xmlio.Event.Text "  spaced  ";
    ]

(* ------------------------------------------------------------------ *)
(* Escape *)

let test_escape_text () =
  check Alcotest.string "no-op" "plain" (Xmlio.Escape.escape_text "plain");
  check Alcotest.string "specials" "a&amp;b&lt;c&gt;d" (Xmlio.Escape.escape_text "a&b<c>d");
  check Alcotest.string "quotes untouched" "\"'" (Xmlio.Escape.escape_text "\"'")

let test_escape_attr () =
  check Alcotest.string "quotes escaped" "&quot;&apos;&amp;" (Xmlio.Escape.escape_attr "\"'&")

let test_decode_entity () =
  check Alcotest.string "amp" "&" (Xmlio.Escape.decode_entity "amp");
  check Alcotest.string "lt" "<" (Xmlio.Escape.decode_entity "lt");
  check Alcotest.string "decimal" "A" (Xmlio.Escape.decode_entity "#65");
  check Alcotest.string "hex" "A" (Xmlio.Escape.decode_entity "#x41");
  check Alcotest.string "utf8 2-byte" "\xC3\xA9" (Xmlio.Escape.decode_entity "#233");
  check Alcotest.string "utf8 3-byte" "\xE2\x82\xAC" (Xmlio.Escape.decode_entity "#x20AC");
  Alcotest.check_raises "unknown" (Xmlio.Escape.Bad_entity "nope") (fun () ->
      ignore (Xmlio.Escape.decode_entity "nope"))

(* ------------------------------------------------------------------ *)
(* Parser *)

let test_parse_minimal () =
  check (Alcotest.list event) "one empty element"
    [ Xmlio.Event.Start ("a", []); Xmlio.Event.End "a" ]
    (parse "<a/>");
  check (Alcotest.list event) "open/close"
    [ Xmlio.Event.Start ("a", []); Xmlio.Event.End "a" ]
    (parse "<a></a>")

let test_parse_nested_with_text () =
  check (Alcotest.list event) "nested"
    [
      Xmlio.Event.Start ("r", []);
      Xmlio.Event.Start ("x", []);
      Xmlio.Event.Text "hi";
      Xmlio.Event.End "x";
      Xmlio.Event.End "r";
    ]
    (parse "<r><x>hi</x></r>")

let test_parse_attributes () =
  check (Alcotest.list event) "attrs"
    [
      Xmlio.Event.Start ("e", [ ("a", "1"); ("b", "two"); ("c", "mix'd") ]);
      Xmlio.Event.End "e";
    ]
    (parse "<e a=\"1\" b='two' c=\"mix'd\" />")

let test_parse_attr_entities () =
  check (Alcotest.list event) "entity in attr"
    [ Xmlio.Event.Start ("e", [ ("v", "a&b<c>\"") ]); Xmlio.Event.End "e" ]
    (parse "<e v=\"a&amp;b&lt;c&gt;&quot;\"/>")

let test_parse_text_entities () =
  check (Alcotest.list event) "entities in text"
    [ Xmlio.Event.Start ("t", []); Xmlio.Event.Text "x < y & y > z A"; Xmlio.Event.End "t" ]
    (parse "<t>x &lt; y &amp; y &gt; z &#65;</t>")

let test_parse_cdata () =
  check (Alcotest.list event) "cdata"
    [ Xmlio.Event.Start ("t", []); Xmlio.Event.Text "<raw> & stuff ]] here"; Xmlio.Event.End "t" ]
    (parse "<t><![CDATA[<raw> & stuff ]] here]]></t>")

let test_parse_comments_and_pis () =
  check (Alcotest.list event) "skipped"
    [ Xmlio.Event.Start ("t", []); Xmlio.Event.Text "ab"; Xmlio.Event.End "t" ]
    (parse "<?xml version=\"1.0\"?><!-- top --><t>a<!-- mid -->b<?proc data?></t><!-- tail -->")

let test_parse_doctype () =
  check (Alcotest.list event) "doctype skipped"
    [ Xmlio.Event.Start ("t", []); Xmlio.Event.End "t" ]
    (parse "<!DOCTYPE t [ <!ELEMENT t (#PCDATA)> ]><t/>");
  (* a ']' or '>' inside a literal, a comment or a PI does not end the
     DOCTYPE *)
  List.iter
    (fun doc ->
      check (Alcotest.list event) doc [ Xmlio.Event.Start ("r", []); Xmlio.Event.End "r" ] (parse doc))
    [
      "<!DOCTYPE r [ <!ENTITY x \"]>\"> ]><r/>";
      "<!DOCTYPE r SYSTEM \"a>b.dtd\"><r/>";
      "<!DOCTYPE r [ <!-- ]> --> ]><r/>";
      "<!DOCTYPE r PUBLIC '-//x//y' 'u[.dtd'><r/>";
      "<!DOCTYPE r [ <?pi don't ]>?> ]><r/>";
    ]

let test_parse_whitespace_dropped () =
  check (Alcotest.list event) "ws dropped"
    [
      Xmlio.Event.Start ("r", []);
      Xmlio.Event.Start ("a", []);
      Xmlio.Event.End "a";
      Xmlio.Event.End "r";
    ]
    (parse "<r>\n  <a/>\n</r>")

let test_parse_whitespace_kept () =
  let p = Xmlio.Parser.of_string ~keep_whitespace:true "<r> <a/> </r>" in
  check (Alcotest.list event) "ws kept"
    [
      Xmlio.Event.Start ("r", []);
      Xmlio.Event.Text " ";
      Xmlio.Event.Start ("a", []);
      Xmlio.Event.End "a";
      Xmlio.Event.Text " ";
      Xmlio.Event.End "r";
    ]
    (Xmlio.Parser.to_list p)

let test_parse_peek_and_depth () =
  let p = Xmlio.Parser.of_string "<r><a></a></r>" in
  check (Alcotest.option event) "peek" (Some (Xmlio.Event.Start ("r", []))) (Xmlio.Parser.peek p);
  check (Alcotest.option event) "next = peeked" (Some (Xmlio.Event.Start ("r", [])))
    (Xmlio.Parser.next p);
  check Alcotest.int "depth inside r" 1 (Xmlio.Parser.depth p);
  ignore (Xmlio.Parser.next p);
  check Alcotest.int "depth inside a" 2 (Xmlio.Parser.depth p)

let expect_parse_error ?(msg = "parse error expected") s =
  try
    ignore (parse s);
    Alcotest.fail msg
  with Xmlio.Parser.Error _ -> ()

let test_parse_errors () =
  expect_parse_error "<a><b></a></b>" ~msg:"mismatched tags";
  expect_parse_error "<a>" ~msg:"unclosed element";
  expect_parse_error "</a>" ~msg:"end tag only";
  expect_parse_error "<a/><b/>" ~msg:"two roots";
  expect_parse_error "text<a/>" ~msg:"text before root";
  expect_parse_error "<a b=c/>" ~msg:"unquoted attribute";
  expect_parse_error "<a b=\"1\" b=\"2\"/>" ~msg:"duplicate attribute";
  expect_parse_error "<a>&nosuch;</a>" ~msg:"unknown entity";
  expect_parse_error "" ~msg:"empty document";
  expect_parse_error "<a><![CDATA[x]]</a>" ~msg:"unterminated cdata";
  expect_parse_error "<1tag/>" ~msg:"bad name start"

(* A duplicate attribute gets the same error, at the same position,
   whether the tag is narrow (names compared pairwise) or wide (a hash
   set of its names); wide tags that repeat each other's names are
   fine. *)
let test_parse_duplicate_attribute () =
  let attrs n = String.concat "" (List.init n (fun i -> Printf.sprintf " a%d=\"v\"" (i + 1))) in
  List.iter
    (fun (before, dup) ->
      let prefix = "<r" ^ attrs before ^ Printf.sprintf " a%d=\"v\"" dup in
      match parse (prefix ^ " z=\"v\"/>") with
      | _ -> Alcotest.fail "duplicate attribute accepted"
      | exception Xmlio.Parser.Error { line; col; msg } ->
          check
            Alcotest.(triple int int string)
            (Printf.sprintf "attribute %d repeats a%d" (before + 1) dup)
            (1, String.length prefix + 1, Printf.sprintf "duplicate attribute a%d" dup)
            (line, col, msg))
    [ (1, 1); (4_999, 1); (4_999, 4_000) ];
  let wide = "<e" ^ attrs 40 ^ "/>" in
  check Alcotest.int "wide tags with the same names" 6
    (List.length (parse ("<r>" ^ wide ^ wide ^ "</r>")))

let test_parse_error_position () =
  try
    ignore (parse "<a>\n  <b></c>\n</a>");
    Alcotest.fail "expected error"
  with Xmlio.Parser.Error { line; _ } -> check Alcotest.int "line number" 2 line

let test_parse_from_reader_counts_io () =
  let xml = "<r>" ^ String.concat "" (List.init 40 (fun i -> Printf.sprintf "<e i=\"%d\"/>" i)) ^ "</r>" in
  let dev = Extmem.Device.of_string ~block_size:16 xml in
  let r = Extmem.Block_reader.of_device dev in
  let p = Xmlio.Parser.of_reader r in
  let evs = Xmlio.Parser.to_list p in
  check Alcotest.int "events" 82 (List.length evs);
  let expected = (String.length xml + 15) / 16 in
  check Alcotest.int "reads = ceil(n/B)" expected (Extmem.Device.stats dev).Extmem.Io_stats.reads

(* ------------------------------------------------------------------ *)
(* Writer *)

let test_writer_basic () =
  let s =
    Xmlio.Writer.events_to_string
      [
        Xmlio.Event.Start ("r", [ ("k", "v") ]);
        Xmlio.Event.Start ("a", []);
        Xmlio.Event.End "a";
        Xmlio.Event.Text "x<y";
        Xmlio.Event.End "r";
      ]
  in
  check Alcotest.string "output" "<r k=\"v\"><a/>x&lt;y</r>" s

let test_writer_escaping_roundtrip () =
  let evs =
    [
      Xmlio.Event.Start ("r", [ ("q", "say \"hi\" & <go>") ]);
      Xmlio.Event.Text "1 < 2 & 3 > 2";
      Xmlio.Event.End "r";
    ]
  in
  let s = Xmlio.Writer.events_to_string evs in
  check (Alcotest.list event) "roundtrip" evs (parse s)

let test_newline_normalization () =
  (* XML §2.11: CRLF and lone CR in the input read as LF; §3.3.3: literal
     tab/newline in attribute values read as spaces.  Character references
     bypass both, which is how the writer round-trips whitespace. *)
  let evs = parse ~keep_whitespace:true "<a b='x\ty\nz'>l1\r\nl2\rl3&#13;</a>" in
  check (Alcotest.list event) "normalized"
    [ Xmlio.Event.Start ("a", [ ("b", "x y z") ]); Xmlio.Event.Text "l1\nl2\nl3\r"; Xmlio.Event.End "a" ]
    evs;
  let s =
    Xmlio.Writer.events_to_string
      [ Xmlio.Event.Start ("a", [ ("b", "x\ty\r") ]); Xmlio.Event.Text "c\rd"; Xmlio.Event.End "a" ]
  in
  check Alcotest.string "char refs" "<a b=\"x&#9;y&#13;\">c&#13;d</a>" s

let test_writer_decl () =
  let s = Xmlio.Writer.events_to_string ~decl:true [ Xmlio.Event.Start ("r", []); Xmlio.Event.End "r" ] in
  check Alcotest.bool "has decl" true (String.length s > 5 && String.sub s 0 5 = "<?xml")

let test_writer_unbalanced () =
  let buf = Buffer.create 16 in
  let w = Xmlio.Writer.to_buffer buf in
  Xmlio.Writer.event w (Xmlio.Event.Start ("r", []));
  Alcotest.check_raises "close unbalanced" (Invalid_argument "Writer: unclosed elements remain")
    (fun () -> Xmlio.Writer.close w);
  let w2 = Xmlio.Writer.to_buffer buf in
  Alcotest.check_raises "stray end" (Invalid_argument "Writer: end tag with no open element")
    (fun () -> Xmlio.Writer.event w2 (Xmlio.Event.End "r"))

let test_writer_to_device () =
  let dev = Extmem.Device.in_memory ~block_size:8 () in
  let bw = Extmem.Block_writer.create dev in
  let w = Xmlio.Writer.to_block_writer bw in
  Xmlio.Writer.events w [ Xmlio.Event.Start ("root", []); Xmlio.Event.Text "data"; Xmlio.Event.End "root" ];
  Xmlio.Writer.close w;
  let e = Extmem.Block_writer.close bw in
  Extmem.Device.set_byte_length dev e.Extmem.Extent.bytes;
  check Alcotest.string "device contents" "<root>data</root>" (Extmem.Device.contents dev)

(* The slice primitives escape a value in place: only the slice is
   written, and the bytes around it (specials included) are not. *)
let test_writer_slices () =
  let buf = Buffer.create 64 in
  let w = Xmlio.Writer.to_buffer buf in
  let src = "<&x\ty\"z'&>" in
  Xmlio.Writer.start_element w "r";
  Xmlio.Writer.attribute w "a" src 2 7;
  Xmlio.Writer.attribute w "e" src 0 0;
  Xmlio.Writer.text w src 1 3;
  Xmlio.Writer.start_element w "c";
  Xmlio.Writer.end_element w "c";
  Xmlio.Writer.text w src 8 2;
  Xmlio.Writer.end_element w "r";
  Xmlio.Writer.close w;
  check Alcotest.string "slices" "<r a=\"x&#9;y&quot;z&apos;&amp;\" e=\"\">&amp;x\t<c/>&amp;&gt;</r>"
    (Buffer.contents buf);
  (* the same through events *)
  check Alcotest.string "event wrapper" (Buffer.contents buf)
    (Xmlio.Writer.events_to_string
       [
         Xmlio.Event.Start ("r", [ ("a", String.sub src 2 7); ("e", "") ]);
         Xmlio.Event.Text (String.sub src 1 3);
         Xmlio.Event.Start ("c", []);
         Xmlio.Event.End "c";
         Xmlio.Event.Text (String.sub src 8 2);
         Xmlio.Event.End "r";
       ]);
  let w = Xmlio.Writer.to_buffer (Buffer.create 8) in
  Alcotest.check_raises "attribute outside a start tag"
    (Invalid_argument "Writer: attribute outside a start tag") (fun () ->
      Xmlio.Writer.attribute w "a" "v" 0 1);
  (* outside the root, whitespace is dropped and anything else refused *)
  Xmlio.Writer.text w " x\n" 0 1;
  Alcotest.check_raises "text outside the root"
    (Invalid_argument "Writer: text outside the root element") (fun () ->
      Xmlio.Writer.text w " x\n" 0 2)

(* ------------------------------------------------------------------ *)
(* Tree *)

let sample_tree =
  Xmlio.Tree.element "company"
    [
      Xmlio.Tree.element ~attrs:[ ("name", "NE") ] "region" [];
      Xmlio.Tree.element ~attrs:[ ("name", "AC") ] "region"
        [
          Xmlio.Tree.element ~attrs:[ ("name", "Durham") ] "branch"
            [
              Xmlio.Tree.element ~attrs:[ ("ID", "454") ] "employee" [];
              Xmlio.Tree.element ~attrs:[ ("ID", "323") ] "employee"
                [
                  Xmlio.Tree.element "name" [ Xmlio.Tree.text "Smith" ];
                  Xmlio.Tree.element "phone" [ Xmlio.Tree.text "5552345" ];
                ];
            ];
          Xmlio.Tree.element ~attrs:[ ("name", "Atlanta") ] "branch" [];
        ];
    ]

let test_tree_roundtrip () =
  let evs = Xmlio.Tree.to_events sample_tree in
  let back = Xmlio.Tree.of_events evs in
  check Alcotest.bool "of_events . to_events = id" true (Xmlio.Tree.equal sample_tree back);
  let s = Xmlio.Tree.to_string sample_tree in
  let reparsed = Xmlio.Tree.of_string s in
  check Alcotest.bool "string roundtrip" true (Xmlio.Tree.equal sample_tree reparsed)

let test_tree_stats () =
  check Alcotest.int "size" 11 (Xmlio.Tree.size sample_tree);
  check Alcotest.int "element count" 9 (Xmlio.Tree.element_count sample_tree);
  check Alcotest.int "height" 5 (Xmlio.Tree.height sample_tree);
  check Alcotest.int "max fanout" 2 (Xmlio.Tree.max_fanout sample_tree)

let test_tree_map_children () =
  (* reverse every child list *)
  let rev = Xmlio.Tree.map_children (fun e -> List.rev e.Xmlio.Tree.children) in
  let t = Xmlio.Tree.of_string "<r><a/><b/><c><d/><e/></c></r>" in
  let expected = Xmlio.Tree.of_string "<r><c><e/><d/></c><b/><a/></r>" in
  check Alcotest.bool "reversed" true (Xmlio.Tree.equal (rev t) expected)

let test_tree_malformed () =
  (try
     ignore (Xmlio.Tree.of_events [ Xmlio.Event.Start ("a", []) ]);
     Alcotest.fail "expected Malformed"
   with Xmlio.Tree.Malformed _ -> ());
  try
    ignore (Xmlio.Tree.of_events [ Xmlio.Event.Text "x" ]);
    Alcotest.fail "expected Malformed"
  with Xmlio.Tree.Malformed _ -> ()

(* ------------------------------------------------------------------ *)
(* Dict *)

let test_dict () =
  let d = Xmlio.Dict.create () in
  let a = Xmlio.Dict.intern d "alpha" in
  let b = Xmlio.Dict.intern d "beta" in
  check Alcotest.int "dense ids" 1 b;
  check Alcotest.int "idempotent" a (Xmlio.Dict.intern d "alpha");
  check Alcotest.string "lookup" "beta" (Xmlio.Dict.lookup d b);
  check (Alcotest.list Alcotest.string) "ordered" [ "alpha"; "beta" ] (Xmlio.Dict.to_list d);
  Alcotest.check_raises "unknown id" (Invalid_argument "Dict.lookup: unknown id 9") (fun () ->
      ignore (Xmlio.Dict.lookup d 9))

(* A failed lookup releases the dictionary's lock: every operation
   still works after one. *)
let test_dict_unknown_id () =
  let d = Xmlio.Dict.create () in
  let a = Xmlio.Dict.intern d "alpha" in
  Alcotest.check_raises "negative id" (Invalid_argument "Dict.lookup: unknown id -1") (fun () ->
      ignore (Xmlio.Dict.lookup d (-1)));
  Alcotest.check_raises "id = size" (Invalid_argument "Dict.lookup: unknown id 1") (fun () ->
      ignore (Xmlio.Dict.lookup d 1));
  check Alcotest.string "lookup after" "alpha" (Xmlio.Dict.lookup d a);
  check Alcotest.int "intern after" 1 (Xmlio.Dict.intern d "beta");
  check (Alcotest.list Alcotest.string) "to_list after" [ "alpha"; "beta" ] (Xmlio.Dict.to_list d)

(* ------------------------------------------------------------------ *)
(* Xpath *)

let tree_of = Xmlio.Tree.of_string

let company_doc =
  tree_of
    "<company><region name=\"AC\"><branch name=\"Durham\">\
     <employee ID=\"454\"/><employee ID=\"323\"><name>Smith</name></employee>\
     </branch><branch name=\"Atlanta\"/></region>\
     <region name=\"NE\"><branch name=\"Boston\"><employee ID=\"700\"/></branch></region>\
     </company>"

let names_of path doc =
  List.map (fun (e : Xmlio.Tree.element) ->
      match List.assoc_opt "ID" e.Xmlio.Tree.attrs with
      | Some id -> e.Xmlio.Tree.name ^ ":" ^ id
      | None -> (
          match List.assoc_opt "name" e.Xmlio.Tree.attrs with
          | Some n -> e.Xmlio.Tree.name ^ ":" ^ n
          | None -> e.Xmlio.Tree.name))
    (Xmlio.Xpath.select (Xmlio.Xpath.parse path) doc)

let test_xpath_child_steps () =
  check (Alcotest.list Alcotest.string) "absolute path"
    [ "branch:Durham"; "branch:Atlanta"; "branch:Boston" ]
    (names_of "/company/region/branch" company_doc);
  check (Alcotest.list Alcotest.string) "root" [ "company" ] (names_of "/company" company_doc);
  check (Alcotest.list Alcotest.string) "wrong root" [] (names_of "/nope/region" company_doc)

let test_xpath_descendant () =
  check (Alcotest.list Alcotest.string) "all employees"
    [ "employee:454"; "employee:323"; "employee:700" ]
    (names_of "//employee" company_doc);
  check (Alcotest.list Alcotest.string) "names under branches"
    [ "name" ]
    (names_of "/company//name" company_doc)

let test_xpath_predicates () =
  check (Alcotest.list Alcotest.string) "attr eq"
    [ "employee:323" ]
    (names_of "//employee[@ID='323']" company_doc);
  check (Alcotest.list Alcotest.string) "attr exists"
    [ "region:AC"; "region:NE" ]
    (names_of "/company/region[@name]" company_doc);
  check (Alcotest.list Alcotest.string) "position"
    [ "region:NE" ]
    (names_of "/company/region[2]" company_doc);
  check (Alcotest.list Alcotest.string) "wildcard with position"
    [ "branch:Atlanta" ]
    (names_of "/company/region/*[2]" company_doc)

let test_xpath_parse_errors () =
  List.iter
    (fun bad ->
      try
        ignore (Xmlio.Xpath.parse bad);
        Alcotest.fail ("expected Parse_error for " ^ bad)
      with Xmlio.Xpath.Parse_error _ -> ())
    [ ""; "company"; "/"; "/a["; "/a[@]"; "/a[@x=unquoted]"; "/a[0]" ]

let test_xpath_to_string_roundtrip () =
  List.iter
    (fun p ->
      check Alcotest.string p p (Xmlio.Xpath.to_string (Xmlio.Xpath.parse p)))
    [ "/company/region/branch"; "//employee[@ID='323']"; "/a//b[@x]/*[3]" ]

let test_xpath_matches_chain () =
  let p = Xmlio.Xpath.parse "/company//branch[@name='Durham']" in
  let chain_hit =
    [ ("company", []); ("region", [ ("name", "AC") ]); ("branch", [ ("name", "Durham") ]) ]
  in
  let chain_miss =
    [ ("company", []); ("region", [ ("name", "AC") ]); ("branch", [ ("name", "Atlanta") ]) ]
  in
  check Alcotest.bool "hit" true (Xmlio.Xpath.matches_chain p chain_hit);
  check Alcotest.bool "miss" false (Xmlio.Xpath.matches_chain p chain_miss);
  (* child-only paths must consume the whole chain *)
  let p2 = Xmlio.Xpath.parse "/company/region" in
  check Alcotest.bool "partial chain" false (Xmlio.Xpath.matches_chain p2 chain_hit);
  check Alcotest.bool "exact chain" true
    (Xmlio.Xpath.matches_chain p2 [ ("company", []); ("region", []) ]);
  (* positional predicates cannot be decided from a chain *)
  let p3 = Xmlio.Xpath.parse "/company/region[2]" in
  check Alcotest.bool "has positional" true (Xmlio.Xpath.has_positional p3);
  try
    ignore (Xmlio.Xpath.matches_chain p3 chain_hit);
    Alcotest.fail "expected Invalid_argument"
  with Invalid_argument _ -> ()

(* ------------------------------------------------------------------ *)
(* Property: random trees round-trip through serialize + parse *)

let gen_tree =
  let open QCheck.Gen in
  let name = oneofl [ "a"; "b"; "c"; "item"; "node"; "x-1"; "_y" ] in
  let attr_val = string_size ~gen:(oneofl [ 'p'; 'q'; '&'; '<'; '"'; '\''; ' '; 'z' ]) (int_bound 6) in
  let text_char = oneofl [ 'h'; 'i'; '&'; '<'; '>'; ' '; '.' ] in
  let rec node depth =
    if depth = 0 then map Xmlio.Tree.text (map (fun s -> "t" ^ s) (string_size ~gen:text_char (int_bound 8)))
    else
      frequency
        [
          (1, map Xmlio.Tree.text (map (fun s -> "t" ^ s) (string_size ~gen:text_char (int_bound 8))));
          ( 3,
            let* n = name in
            let* nattrs = int_bound 2 in
            let* attrs =
              list_repeat nattrs
                (let* k = oneofl [ "k1"; "k2"; "k3" ] in
                 let* v = attr_val in
                 return (k, v))
            in
            let attrs = List.sort_uniq (fun (a, _) (b, _) -> compare a b) attrs in
            let* nchildren = int_bound 3 in
            let* children = list_repeat nchildren (node (depth - 1)) in
            return (Xmlio.Tree.element ~attrs n children) );
        ]
  in
  let* n = name in
  let* children = list_size (int_bound 4) (node 3) in
  return (Xmlio.Tree.element n children)

let arb_tree = QCheck.make ~print:(fun t -> Xmlio.Tree.to_string t) gen_tree

(* Adjacent text children coalesce in serialized form; normalize before
   comparing. *)
let rec normalize t =
  match t with
  | Xmlio.Tree.Text _ -> t
  | Xmlio.Tree.Element e ->
      let children = List.map normalize e.Xmlio.Tree.children in
      let children =
        List.fold_right
          (fun c acc ->
            match (c, acc) with
            | Xmlio.Tree.Text a, Xmlio.Tree.Text b :: rest -> Xmlio.Tree.Text (a ^ b) :: rest
            | _ -> c :: acc)
          children []
      in
      Xmlio.Tree.Element { e with Xmlio.Tree.children }

let prop_xpath_select_agrees_with_chain =
  (* for chain-decidable paths, select = filter by matches_chain *)
  QCheck.Test.make ~name:"select agrees with matches_chain" ~count:100
    (QCheck.pair arb_tree (QCheck.oneofl [ "//a"; "//node"; "/a//b"; "//item[@k1]"; "/node/*" ]))
    (fun (t, path) ->
      let p = Xmlio.Xpath.parse path in
      let selected = Xmlio.Xpath.select p t in
      (* enumerate all elements with their chains *)
      let hits = ref [] in
      let rec walk chain node =
        match node with
        | Xmlio.Tree.Text _ -> ()
        | Xmlio.Tree.Element e ->
            let chain = chain @ [ (e.Xmlio.Tree.name, e.Xmlio.Tree.attrs) ] in
            if Xmlio.Xpath.matches_chain p chain then hits := e :: !hits;
            List.iter (walk chain) e.Xmlio.Tree.children
      in
      walk [] t;
      List.rev !hits = selected)


let prop_tree_string_roundtrip =
  QCheck.Test.make ~name:"serialize+parse round-trips random trees" ~count:200 arb_tree (fun t ->
      let s = Xmlio.Tree.to_string t in
      let back = Xmlio.Tree.of_string ~keep_whitespace:true s in
      Xmlio.Tree.equal (normalize t) back)

(* The strong roundtrip property: [parse ∘ write ≡ id] over documents
   whose strings are deliberately hostile — every escapable character,
   CDATA-terminator fragments ("]]>"), whitespace that only survives as
   character references, both quote styles' worth of quotes, empty
   elements, and attributes in arbitrary (preserved) order. *)
let gen_hostile_tree =
  let open QCheck.Gen in
  let name = oneofl [ "a"; "b"; "doc"; "x-1"; "_y" ] in
  let text_char = oneofl [ 'h'; '&'; '<'; '>'; ']'; '"'; '\''; ' '; '\n'; '\r'; '\t'; '.' ] in
  let attr_char = oneofl [ 'p'; '&'; '<'; '>'; '"'; '\''; ' '; '\n'; '\r'; '\t'; ']' ] in
  let text = string_size ~gen:text_char (int_range 1 10) in
  let attrs =
    let* n = int_bound 3 in
    let* kvs =
      list_repeat n
        (let* k = oneofl [ "k1"; "k2"; "k3"; "k4" ] in
         let* v = string_size ~gen:attr_char (int_bound 8) in
         return (k, v))
    in
    let kvs = List.sort_uniq (fun (a, _) (b, _) -> compare a b) kvs in
    let* rev = bool in
    return (if rev then List.rev kvs else kvs)
  in
  let rec node depth =
    if depth = 0 then map Xmlio.Tree.text text
    else
      frequency
        [
          (2, map Xmlio.Tree.text text);
          ( 3,
            let* n = name in
            let* attrs = attrs in
            let* nchildren = int_bound 3 in
            let* children = list_repeat nchildren (node (depth - 1)) in
            return (Xmlio.Tree.element ~attrs n children) );
        ]
  in
  let* n = name in
  let* attrs = attrs in
  let* children = list_size (int_bound 4) (node 3) in
  return (Xmlio.Tree.element ~attrs n children)

let arb_hostile_tree =
  QCheck.make
    ~print:(fun t -> String.escaped (Xmlio.Writer.events_to_string (Xmlio.Tree.to_events t)))
    gen_hostile_tree

let prop_write_parse_identity =
  QCheck.Test.make ~name:"write+parse is the identity on hostile documents" ~count:500
    arb_hostile_tree (fun t ->
      let s = Xmlio.Writer.events_to_string (Xmlio.Tree.to_events t) in
      let back = Xmlio.Tree.of_string ~keep_whitespace:true s in
      Xmlio.Tree.equal (normalize t) back)

let prop_parser_never_crashes =
  (* fuzz: arbitrary bytes either parse or raise Parser.Error — never
     anything else, never hang *)
  QCheck.Test.make ~name:"parser survives arbitrary bytes" ~count:500
    QCheck.(string_of_size QCheck.Gen.small_nat)
    (fun junk ->
      match Xmlio.Parser.to_list (Xmlio.Parser.of_string junk) with
      | _ -> true
      | exception Xmlio.Parser.Error _ -> true)

let prop_parser_survives_mutated_xml =
  (* fuzz closer to the grammar: take a valid document and flip bytes *)
  QCheck.Test.make ~name:"parser survives mutated documents" ~count:300
    QCheck.(triple arb_tree (int_bound 200) (int_bound 255))
    (fun (t, pos, byte) ->
      let s = Bytes.of_string (Xmlio.Tree.to_string t) in
      if Bytes.length s = 0 then true
      else begin
        Bytes.set s (pos mod Bytes.length s) (Char.chr byte);
        match Xmlio.Parser.to_list (Xmlio.Parser.of_string (Bytes.to_string s)) with
        | _ -> true
        | exception Xmlio.Parser.Error _ -> true
      end)

let prop_events_balanced =
  QCheck.Test.make ~name:"to_events is balanced and size-consistent" ~count:200 arb_tree (fun t ->
      let evs = Xmlio.Tree.to_events t in
      let depth =
        List.fold_left
          (fun d e ->
            match e with
            | Xmlio.Event.Start _ -> d + 1
            | Xmlio.Event.End _ -> if d <= 0 then raise Exit else d - 1
            | Xmlio.Event.Text _ -> d)
          0 evs
      in
      let starts =
        List.length (List.filter (function Xmlio.Event.Start _ -> true | _ -> false) evs)
      in
      depth = 0 && starts = Xmlio.Tree.element_count t)

(* ------------------------------------------------------------------ *)
(* Window boundaries: the parser scans a window of input bytes, refilled
   from its source.  Every source and block size must give the same
   events, offsets and errors as the one-byte window of [of_fn]. *)

let gen_window_doc =
  let open QCheck.Gen in
  let name = oneofl [ "a"; "b"; "item"; "x:y"; "n\xc3\xa9"; "long_element_name" ] in
  let text_piece =
    oneofl
      [ "hello"; " "; "\r"; "\n"; "\r\n"; "\t"; "&amp;"; "&lt;"; "&#65;"; "&#x263A;"; "&#13;";
        "<![CDATA[x]]y<&>]]>"; "<!-- c -->"; "<?pi x?>"; "caf\xc3\xa9"; "\xe2\x82\xac"; "]]"; ">" ]
  in
  let attr_piece =
    oneofl [ "v"; " "; "\t"; "\n"; "\r"; "\r\n"; "&amp;"; "&#9;"; "&quot;"; "\xc3\xa9"; "'" ]
  in
  let attrs =
    (* distinct names so well-formed documents stay well-formed *)
    list_size (int_range 0 6) attr_piece >>= fun v1 ->
    list_size (int_range 0 6) attr_piece >>= fun v2 ->
    int_range 0 2 >|= fun n ->
    List.filteri (fun i _ -> i < n)
      [ Printf.sprintf " id=\"%s\"" (String.concat "" v1);
        Printf.sprintf "\r\n\tk=\"%s\"" (String.concat "" v2) ]
    |> String.concat ""
  in
  let ws = oneofl [ ""; " "; "\r\n"; "\n  "; "\r" ] in
  let rec elem d =
    if d = 0 then map3 (Printf.sprintf "<%s%s%s/>") name attrs ws
    else
      map3
        (fun (n, a) kids w -> Printf.sprintf "<%s%s>%s</%s%s>" n a (String.concat "" kids) n w)
        (pair name attrs)
        (list_size (int_range 0 5)
           (frequency
              [ (2, map (String.concat "") (list_size (int_range 1 4) text_piece)); (3, elem (d - 1)) ]))
        ws
  in
  map3
    (fun pre e post -> pre ^ e ^ post)
    (oneofl [ ""; "<?xml version=\"1.0\"?>\r\n"; "<!DOCTYPE r [<!ELEMENT r ANY>]>\n"; "<!-- x -->\r" ])
    (int_range 0 4 >>= elem)
    (oneofl [ ""; "\r\n"; "<!-- t -->"; " \r" ])

(* a well-formed document, or one truncated or mutated at a random byte *)
let gen_window_case =
  let open QCheck.Gen in
  gen_window_doc >>= fun doc ->
  int_range 0 (max 0 (String.length doc - 1)) >>= fun i ->
  let cut = String.sub doc 0 i and rest = String.sub doc i (String.length doc - i) in
  frequency
    [
      (3, return doc);
      (1, return cut);
      (1, char >|= fun c -> cut ^ String.make 1 c ^ String.sub rest 1 (String.length rest - 1));
      (1, oneofl [ "<"; "&"; "\r"; "]]>"; "\""; "</"; "\000" ] >|= fun s -> cut ^ s ^ rest);
    ]

type window_outcome =
  | Parsed
  | Failed of int * int * string

(* Every event (as a debug string) with the offset right after it, and
   how the parse ended. *)
let window_trace p =
  let rec go acc =
    match Xmlio.Parser.next p with
    | Some e -> go ((Xmlio.Event.to_debug_string e, Xmlio.Parser.offset p) :: acc)
    | None -> (List.rev acc, Parsed)
    | exception Xmlio.Parser.Error { line; col; msg } -> (List.rev acc, Failed (line, col, msg))
  in
  go []

let show_window_trace (evs, outcome) =
  String.concat "\n" (List.map (fun (e, off) -> Printf.sprintf "%s @%d" e off) evs)
  ^
  match outcome with
  | Parsed -> "\nend"
  | Failed (l, c, m) -> Printf.sprintf "\nerror %d:%d %s" l c m

let byte_source s =
  let i = ref 0 in
  fun () ->
    if !i >= String.length s then None
    else begin
      incr i;
      Some s.[!i - 1]
    end

let prop_window_boundaries =
  QCheck.Test.make ~name:"every window size parses alike" ~count:400
    (QCheck.make ~print:(fun (k, d) -> Printf.sprintf "keep_ws=%b %S" k d)
       QCheck.Gen.(pair bool gen_window_case))
    (fun (keep_whitespace, doc) ->
      let reference = window_trace (Xmlio.Parser.of_fn ~keep_whitespace (byte_source doc)) in
      let agree what t =
        t = reference
        || QCheck.Test.fail_reportf "%s differs from the one-byte window:@.%s@.---@.%s" what
             (show_window_trace reference) (show_window_trace t)
      in
      agree "of_string" (window_trace (Xmlio.Parser.of_string ~keep_whitespace doc))
      && agree "of_string with dict"
           (window_trace (Xmlio.Parser.of_string ~dict:(Xmlio.Dict.create ()) ~keep_whitespace doc))
      && List.for_all
           (fun bs ->
             let dev = Extmem.Device.of_string ~block_size:bs doc in
             let t =
               window_trace
                 (Xmlio.Parser.of_reader ~keep_whitespace (Extmem.Block_reader.of_device dev))
             in
             let reads = (Extmem.Device.stats dev).Extmem.Io_stats.reads in
             let blocks = (String.length doc + bs - 1) / bs in
             agree (Printf.sprintf "of_reader at B=%d" bs) t
             && (reads = blocks || (snd t <> Parsed && reads < blocks)
                || QCheck.Test.fail_reportf "B=%d: %d block reads for %d blocks" bs reads blocks))
           [ 1; 2; 7; 64; 4096 ])

(* A CR as the last byte of one window and its LF as the first byte of
   the next still fold into one newline: the CR state survives the
   refill. *)
let test_parse_crlf_across_windows () =
  let doc = "<r>ab\r\ncd</r>" in
  let bs = String.index doc '\r' + 1 in
  let parse_reader doc =
    Xmlio.Parser.of_reader (Extmem.Block_reader.of_device (Extmem.Device.of_string ~block_size:bs doc))
  in
  check (Alcotest.list event) "one newline"
    [ Xmlio.Event.Start ("r", []); Xmlio.Event.Text "ab\ncd"; Xmlio.Event.End "r" ]
    (Xmlio.Parser.to_list (parse_reader doc));
  check (Alcotest.list event) "one-byte window"
    [ Xmlio.Event.Start ("r", []); Xmlio.Event.Text "ab\ncd"; Xmlio.Event.End "r" ]
    (Xmlio.Parser.to_list (Xmlio.Parser.of_fn (byte_source doc)));
  match Xmlio.Parser.to_list (parse_reader "<r>ab\r\ncd</x>") with
  | _ -> Alcotest.fail "expected a mismatched end tag"
  | exception Xmlio.Parser.Error { line; col; _ } ->
      check Alcotest.(pair int int) "error position" (2, 7) (line, col)

(* ------------------------------------------------------------------ *)

let () =
  Alcotest.run "xmlio"
    [
      ( "event",
        [
          Alcotest.test_case "equal across interning" `Quick test_event_equal_mixed_interning;
          Alcotest.test_case "equal distinguishes" `Quick test_event_equal_distinguishes;
          Alcotest.test_case "packed roundtrip" `Quick test_event_packed_roundtrip_equal;
        ] );
      ( "escape",
        [
          Alcotest.test_case "text" `Quick test_escape_text;
          Alcotest.test_case "attr" `Quick test_escape_attr;
          Alcotest.test_case "entities" `Quick test_decode_entity;
        ] );
      ( "parser",
        [
          Alcotest.test_case "minimal" `Quick test_parse_minimal;
          Alcotest.test_case "nested with text" `Quick test_parse_nested_with_text;
          Alcotest.test_case "attributes" `Quick test_parse_attributes;
          Alcotest.test_case "attr entities" `Quick test_parse_attr_entities;
          Alcotest.test_case "text entities" `Quick test_parse_text_entities;
          Alcotest.test_case "cdata" `Quick test_parse_cdata;
          Alcotest.test_case "comments and PIs" `Quick test_parse_comments_and_pis;
          Alcotest.test_case "doctype" `Quick test_parse_doctype;
          Alcotest.test_case "whitespace dropped" `Quick test_parse_whitespace_dropped;
          Alcotest.test_case "whitespace kept" `Quick test_parse_whitespace_kept;
          Alcotest.test_case "peek and depth" `Quick test_parse_peek_and_depth;
          Alcotest.test_case "errors" `Quick test_parse_errors;
          Alcotest.test_case "duplicate attribute" `Quick test_parse_duplicate_attribute;
          Alcotest.test_case "error position" `Quick test_parse_error_position;
          Alcotest.test_case "reader io counting" `Quick test_parse_from_reader_counts_io;
          Alcotest.test_case "CRLF across windows" `Quick test_parse_crlf_across_windows;
          qcheck prop_window_boundaries;
        ] );
      ( "writer",
        [
          Alcotest.test_case "basic" `Quick test_writer_basic;
          Alcotest.test_case "escaping roundtrip" `Quick test_writer_escaping_roundtrip;
          Alcotest.test_case "newline normalization" `Quick test_newline_normalization;
          Alcotest.test_case "declaration" `Quick test_writer_decl;
          Alcotest.test_case "unbalanced" `Quick test_writer_unbalanced;
          Alcotest.test_case "to device" `Quick test_writer_to_device;
          Alcotest.test_case "slices" `Quick test_writer_slices;
        ] );
      ( "tree",
        [
          Alcotest.test_case "roundtrip" `Quick test_tree_roundtrip;
          Alcotest.test_case "stats" `Quick test_tree_stats;
          Alcotest.test_case "map_children" `Quick test_tree_map_children;
          Alcotest.test_case "malformed" `Quick test_tree_malformed;
        ] );
      ( "dict",
        [
          Alcotest.test_case "basics" `Quick test_dict;
          Alcotest.test_case "unknown id" `Quick test_dict_unknown_id;
        ] );
      ( "xpath",
        [
          Alcotest.test_case "child steps" `Quick test_xpath_child_steps;
          Alcotest.test_case "descendant" `Quick test_xpath_descendant;
          Alcotest.test_case "predicates" `Quick test_xpath_predicates;
          Alcotest.test_case "parse errors" `Quick test_xpath_parse_errors;
          Alcotest.test_case "to_string roundtrip" `Quick test_xpath_to_string_roundtrip;
          Alcotest.test_case "matches_chain" `Quick test_xpath_matches_chain;
          qcheck prop_xpath_select_agrees_with_chain;
        ] );
      ( "properties",
        [
          qcheck prop_tree_string_roundtrip;
          qcheck prop_write_parse_identity;
          qcheck prop_events_balanced;
          qcheck prop_parser_never_crashes;
          qcheck prop_parser_survives_mutated_xml;
        ] );
    ]
