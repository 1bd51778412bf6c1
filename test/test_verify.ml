(* The verification harness itself: the oracle must agree with the tree
   strawman, the validator must accept real sorter output and reject
   deliberately broken documents, and the resource probes must come back
   clean after both successful and fault-aborted sorts. *)

let check = Alcotest.check
module Ordering = Nexsort.Ordering
module Validator = Verify.Validator
module Oracle = Verify.Oracle

let qcheck = QCheck_alcotest.to_alcotest

let pathological_doc ?(max_elements = 120) seed =
  fst (Xmlgen.Gen.to_string (Xmlgen.Gen.pathological ~seed ~max_elements))

(* ------------------------------------------------------------------ *)
(* Oracle *)

let test_oracle_basic () =
  let doc = {|<r><b id="2">x<d id="9"/><c id="1"/></b><a id="1"/>t</r>|} in
  check Alcotest.string "sorted by @id, text first, recursively"
    {|<r>t<a id="1"/><b id="2">x<c id="1"/><d id="9"/></b></r>|}
    (Oracle.sort_string (Ordering.by_attr "id") doc)

let test_oracle_stability () =
  (* equal keys keep document order; text nodes keep relative order *)
  let doc = {|<r><a id="1" n="first"/>t1<a id="1" n="second"/>t2</r>|} in
  check Alcotest.string "position breaks ties"
    {|<r>t1t2<a id="1" n="first"/><a id="1" n="second"/></r>|}
    (Oracle.sort_string (Ordering.by_attr "id") doc)

let test_oracle_depth_limit () =
  let doc = {|<r><b id="2"><d id="9"/><c id="1"/></b><a id="1"/></r>|} in
  check Alcotest.string "level-2 lists untouched under depth_limit 1"
    {|<r><a id="1"/><b id="2"><d id="9"/><c id="1"/></b></r>|}
    (Oracle.sort_string ~depth_limit:1 (Ordering.by_attr "id") doc)

let oracle_orderings =
  [
    ("@id", Ordering.by_attr "id");
    ("tag", Ordering.by_tag);
    ("text", Ordering.of_spec_string "text");
  ]

let prop_oracle_agrees_with_treesort =
  QCheck.Test.make ~name:"oracle and Tree_sort agree on pathological docs" ~count:60
    QCheck.(pair (int_bound 10_000) (int_bound (List.length oracle_orderings - 1)))
    (fun (seed, oi) ->
      let doc = pathological_doc seed in
      let _, ordering = List.nth oracle_orderings oi in
      String.equal (Oracle.sort_string ordering doc)
        (Baselines.Tree_sort.sort_string ordering doc))

let prop_oracle_output_validates =
  QCheck.Test.make ~name:"validator accepts every oracle output" ~count:60
    QCheck.(pair (int_bound 10_000) (int_bound (List.length oracle_orderings - 1)))
    (fun (seed, oi) ->
      let doc = pathological_doc seed in
      let _, ordering = List.nth oracle_orderings oi in
      match Validator.check ~ordering ~input:doc (Oracle.sort_string ordering doc) with
      | Ok () -> true
      | Error e -> QCheck.Test.fail_reportf "validator rejected oracle output: %s" e)

(* ------------------------------------------------------------------ *)
(* Validator *)

let test_validator_self_test () =
  match Validator.self_test () with
  | Ok () -> ()
  | Error e -> Alcotest.failf "self-test failed: %s" e

let test_validator_flags_missort () =
  let ordering = Ordering.by_attr "id" in
  let rep = Validator.of_string ~ordering {|<r><a id="2"/><a id="1"/></r>|} in
  (match rep.Validator.findings with
  | [ { Validator.path; _ } ] -> check Alcotest.string "finding at root" "r" path
  | fs -> Alcotest.failf "expected exactly one finding, got %d" (List.length fs));
  check Alcotest.int "elements counted" 3 rep.Validator.elements

(* plain substring search, no extra deps *)
let contains ~sub s =
  let n = String.length sub and m = String.length s in
  let rec go i = i + n <= m && (String.sub s i n = sub || go (i + 1)) in
  n = 0 || go 0

let test_validator_digest_catches_edit () =
  let ordering = Ordering.by_attr "id" in
  let input = {|<r><a id="1">x</a></r>|} in
  match Validator.check ~ordering ~input {|<r><a id="1">y</a></r>|} with
  | Ok () -> Alcotest.fail "text edit accepted"
  | Error e -> check Alcotest.bool "blamed on the digest" true (contains ~sub:"digest" e)

let test_validator_rejects_malformed () =
  match Validator.check ~ordering:Ordering.by_tag ~input:"<r/>" "<r>" with
  | Ok () -> Alcotest.fail "malformed output accepted"
  | Error e -> check Alcotest.bool "parse error surfaced" true (contains ~sub:"malformed" e)

let test_validator_digest_ignores_text_coalescing () =
  (* the exact situation a sort produces: Null-keyed text moved to the
     front coalesces on re-parse; the digest must not change *)
  let input = {|<r>ab<a id="1"/>cd</r>|} in
  let sorted = {|<r>abcd<a id="1"/></r>|} in
  check Alcotest.bool "coalesced text, same digest" true
    (Int64.equal (Validator.digest_of_string input) (Validator.digest_of_string sorted));
  match Validator.check ~ordering:(Ordering.by_attr "id") ~input sorted with
  | Ok () -> ()
  | Error e -> Alcotest.failf "sorted document rejected: %s" e

(* ------------------------------------------------------------------ *)
(* End-to-end: nexsort output through validator + probes *)

let test_nexsort_output_validates () =
  Verify.Probes.install ();
  Verify.Probes.clear ();
  let doc = pathological_doc ~max_elements:200 4242 in
  let config = Nexsort.Config.make ~block_size:512 ~memory_blocks:16 () in
  let out, _ = Engine.sort_string ~config ~ordering:(Ordering.by_attr "id") doc in
  (match Validator.check ~ordering:(Ordering.by_attr "id") ~input:doc out with
  | Ok () -> ()
  | Error e -> Alcotest.failf "sorted document rejected: %s" e);
  check (Alcotest.list Alcotest.string) "probes clean after the sort" []
    (Verify.Probes.violations ())

let test_probes_clean_after_fault () =
  (* p=1.0: the very first internal write faults, the sort aborts, and
     teardown must still return every budget block *)
  Verify.Probes.install ();
  Verify.Probes.clear ();
  let doc = pathological_doc ~max_elements:250 99 in
  let config =
    Nexsort.Config.make ~block_size:512 ~memory_blocks:16
      ~device:(Extmem.Device_spec.parse "faulty:p=1.0,seed=7/mem") ()
  in
  (match Engine.sort_string ~config ~ordering:(Ordering.by_attr "id") doc with
  | _ -> Alcotest.fail "sort on an always-faulting device succeeded"
  | exception Extmem.Backend.Fault _ -> ()
  | exception e -> Alcotest.failf "expected Device.Fault, got %s" (Printexc.to_string e));
  check (Alcotest.list Alcotest.string) "no leaks after abort" []
    (Verify.Probes.violations ())

let test_probes_clean_after_worker_fault () =
  (* the same abort with a worker pool attached: once the first subtree
     collapse is offloaded, the faulting write lands on a worker's
     private run device inside its domain; drain re-raises the fault on
     the main thread, and destroy must still tear the pool down to a
     quiescent arena and an empty budget *)
  Verify.Probes.install ();
  Verify.Probes.clear ();
  List.iter
    (fun seed ->
      let doc = pathological_doc ~max_elements:250 (100 + seed) in
      let config =
        Nexsort.Config.make ~block_size:512 ~memory_blocks:16 ~jobs:2
          ~device:
            (Extmem.Device_spec.parse (Printf.sprintf "faulty:p=1.0,seed=%d/mem" seed))
          ()
      in
      match Engine.sort_string ~config ~ordering:(Ordering.by_attr "id") doc with
      | _ -> Alcotest.fail "sort on an always-faulting device succeeded"
      | exception Extmem.Backend.Fault _ -> ()
      | exception e -> Alcotest.failf "expected Device.Fault, got %s" (Printexc.to_string e))
    [ 1; 2; 3 ];
  check (Alcotest.list Alcotest.string) "no leaks after worker aborts" []
    (Verify.Probes.violations ())

let test_probe_sees_leak () =
  (* check_session must actually report a dirty session, otherwise the
     clean results above prove nothing *)
  let config = Nexsort.Config.make ~block_size:512 ~memory_blocks:16 () in
  Engine.with_session config @@ fun session ->
  check Alcotest.bool "live session is flagged" true
    (Verify.Probes.check_session session <> []);
  Nexsort.Session.destroy session;
  check (Alcotest.list Alcotest.string) "destroyed session is clean" []
    (Verify.Probes.check_session session)

let () =
  Alcotest.run "verify"
    [
      ( "oracle",
        [
          Alcotest.test_case "basic" `Quick test_oracle_basic;
          Alcotest.test_case "stability" `Quick test_oracle_stability;
          Alcotest.test_case "depth limit" `Quick test_oracle_depth_limit;
          qcheck prop_oracle_agrees_with_treesort;
          qcheck prop_oracle_output_validates;
        ] );
      ( "validator",
        [
          Alcotest.test_case "self test" `Quick test_validator_self_test;
          Alcotest.test_case "flags mis-sort" `Quick test_validator_flags_missort;
          Alcotest.test_case "digest catches edit" `Quick test_validator_digest_catches_edit;
          Alcotest.test_case "rejects malformed" `Quick test_validator_rejects_malformed;
          Alcotest.test_case "text coalescing invariance" `Quick
            test_validator_digest_ignores_text_coalescing;
        ] );
      ( "probes",
        [
          Alcotest.test_case "nexsort output validates" `Quick test_nexsort_output_validates;
          Alcotest.test_case "clean after fault abort" `Quick test_probes_clean_after_fault;
          Alcotest.test_case "clean after worker fault abort" `Quick
            test_probes_clean_after_worker_fault;
          Alcotest.test_case "sees a leak" `Quick test_probe_sees_leak;
        ] );
    ]
