(* Tests for the pull-based block-stream pipeline framework. *)

let check = Alcotest.check

let budget () = Extmem.Memory_budget.create ~blocks:4 ~block_size:16

let collect_sink acc = Pipe.fn_sink ~who:"collect" (fun x -> acc := x :: !acc)

(* a memoryless source streaming [items] *)
let list_source ~who items =
  Pipe.source ~who (fun () ->
      let rest = ref items in
      let pull () =
        match !rest with
        | [] -> None
        | x :: tl ->
            rest := tl;
            Some x
      in
      (pull, ignore))

let test_run_basic () =
  let b = budget () in
  let acc = ref [] in
  Pipe.run ~budget:b (list_source ~who:"list" [ 1; 2; 3 ]) (collect_sink acc);
  check (Alcotest.list Alcotest.int) "all pushed" [ 1; 2; 3 ] (List.rev !acc);
  check Alcotest.int "nothing reserved afterwards" 0 (Extmem.Memory_budget.used_blocks b)

(* the source's memory is held from open to close, the sink's only
   around the drain *)
let test_reservation_protocol () =
  let b = budget () in
  let during_pull = ref (-1) in
  let src =
    Pipe.source ~mem:2 ~who:"reader" (fun () ->
        let remaining = ref 3 in
        let pull () =
          during_pull := Extmem.Memory_budget.used_blocks b;
          if !remaining = 0 then None
          else begin
            decr remaining;
            Some "x"
          end
        in
        (pull, ignore))
  in
  let snk = Pipe.sink ~mem:1 ~who:"writer" (fun () -> (ignore, ignore)) in
  Pipe.run ~budget:b src snk;
  check Alcotest.int "source 2 + sink 1 held during the drain" 3 !during_pull;
  check Alcotest.int "all released" 0 (Extmem.Memory_budget.used_blocks b)

let test_open_failure_releases () =
  let b = budget () in
  let src = Pipe.source ~mem:2 ~who:"boom" (fun () -> failwith "open failed") in
  (try
     ignore (Pipe.open_source ~budget:b src);
     Alcotest.fail "expected failure"
   with Failure _ -> ());
  check Alcotest.int "reservation rolled back" 0 (Extmem.Memory_budget.used_blocks b)

let test_exhaustion_names_stage () =
  let b = Extmem.Memory_budget.create ~blocks:1 ~block_size:16 in
  let src = list_source ~who:"tiny" [ 1 ] in
  let snk = Pipe.sink ~mem:2 ~who:"greedy sink" (fun () -> (ignore, ignore)) in
  try
    Pipe.run ~budget:b src snk;
    Alcotest.fail "expected Exhausted"
  with Extmem.Memory_budget.Exhausted who ->
    let contains s sub =
      let n = String.length s and m = String.length sub in
      let rec go i = i + m <= n && (String.sub s i m = sub || go (i + 1)) in
      go 0
    in
    check Alcotest.bool
      (Printf.sprintf "who names the sink (%s)" who)
      true
      (contains who "greedy sink")

(* a failing drain still closes the sink (flushing buffered output) and
   re-raises the original exception *)
let test_sink_flushed_on_drain_failure () =
  let b = budget () in
  let flushed = ref false in
  let pushed = ref 0 in
  let src =
    Pipe.source ~who:"failing source" (fun () ->
        let n = ref 0 in
        let pull () =
          incr n;
          if !n > 2 then failwith "mid-stream failure" else Some !n
        in
        (pull, ignore))
  in
  let snk =
    Pipe.sink ~mem:1 ~who:"buffering sink" (fun () ->
        ((fun _ -> incr pushed), fun () -> flushed := true))
  in
  (try
     Pipe.run ~budget:b src snk;
     Alcotest.fail "expected failure"
   with Failure m -> check Alcotest.string "original exception wins" "mid-stream failure" m);
  check Alcotest.int "records before the fault arrived" 2 !pushed;
  check Alcotest.bool "sink close ran (buffered output flushed)" true !flushed;
  check Alcotest.int "all memory released" 0 (Extmem.Memory_budget.used_blocks b)

let test_source_closed_once () =
  let b = budget () in
  let closes = ref 0 in
  let src = Pipe.source ~mem:1 ~who:"counted" (fun () -> ((fun () -> None), fun () -> incr closes)) in
  let o = Pipe.open_source ~budget:b src in
  check Alcotest.int "mem held" 1 (Extmem.Memory_budget.used_blocks b);
  o.Pipe.close ();
  o.Pipe.close ();
  check Alcotest.int "closed once" 1 !closes;
  check Alcotest.int "released once" 0 (Extmem.Memory_budget.used_blocks b)

let test_of_run () =
  let dev = Extmem.Device.in_memory ~block_size:16 () in
  let store = Extmem.Run_store.create dev in
  let w = Extmem.Run_store.begin_run store in
  List.iter (Extmem.Block_writer.write_record w) [ "r1"; "r2" ];
  let id = Extmem.Run_store.finish_run store w in
  let b = budget () in
  let acc = ref [] in
  Pipe.run ~budget:b (Pipe.of_run store id) (collect_sink acc);
  check (Alcotest.list Alcotest.string) "run streamed" [ "r1"; "r2" ] (List.rev !acc);
  check Alcotest.int "read buffer released" 0 (Extmem.Memory_budget.used_blocks b)

let () =
  Alcotest.run "pipe"
    [
      ( "pipe",
        [
          Alcotest.test_case "run basic" `Quick test_run_basic;
          Alcotest.test_case "reservation protocol" `Quick test_reservation_protocol;
          Alcotest.test_case "open failure releases" `Quick test_open_failure_releases;
          Alcotest.test_case "exhaustion names stage" `Quick test_exhaustion_names_stage;
          Alcotest.test_case "sink flushed on drain failure" `Quick
            test_sink_flushed_on_drain_failure;
          Alcotest.test_case "source closed once" `Quick test_source_closed_once;
          Alcotest.test_case "of_run" `Quick test_of_run;
        ] );
    ]
