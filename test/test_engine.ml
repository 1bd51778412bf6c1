(* The multi-tenant engine: admission, isolation, abort and the
   concurrency-invisibility property.

   The headline invariant mirrors the parallel sorter's: the engine may
   run any number of jobs concurrently under any interleaving the
   scheduler produces, and every job's output and per-job I/O bill are
   byte-for-byte the ones a standalone single-session run yields.  The
   other half is containment — a faulted or cancelled tenant returns
   every block (engine budget empty, queued jobs complete), and a job's
   elastic data-stack borrowing never touches blocks outside its own
   carve. *)

let check = Alcotest.check

let qcheck = QCheck_alcotest.to_alcotest

module Config = Nexsort.Config

let by_id = Nexsort.Ordering.by_attr "id"

let gen_doc ?(height = 4) ?(max_fanout = 6) ?(max_elements = 400) seed =
  let s, _ =
    Xmlgen.Gen.to_string (fun sink ->
        Xmlgen.Gen.random_shape ~seed ~avg_bytes:40 ~max_elements ~height ~max_fanout sink)
  in
  s

let job_config () = Config.make ~block_size:128 ~memory_blocks:8 ()

(* Run one sort through the engine, returning (output, total_io). *)
let engine_sort ?cancel eng ~tenant config xml =
  Engine.run ?cancel eng ~tenant config (fun _job session ->
      let input = Extmem.Device.in_memory ~block_size:config.Config.block_size () in
      Extmem.Device.load_string input xml;
      let output = Extmem.Device.in_memory ~block_size:config.Config.block_size () in
      let report = Nexsort.sort_device ~session ~ordering:by_id ~input ~output () in
      (Extmem.Device.contents output, Extmem.Io_stats.total report.Nexsort.total_io))

(* --- concurrency invisibility ------------------------------------- *)

(* Any interleaving of N concurrent jobs through one engine — under a
   budget that admits only two at a time, so admissions genuinely
   queue — produces byte-identical outputs and identical per-job I/O
   counters to sequential standalone runs. *)
let test_concurrent_jobs_equal_sequential =
  QCheck.Test.make ~name:"N concurrent jobs = N sequential runs" ~count:4
    QCheck.(int_bound 1000)
    (fun seed ->
      let config = job_config () in
      let docs = List.init 4 (fun i -> gen_doc ~max_elements:150 (seed + (31 * i))) in
      (* 8 jobs over 4 documents, two tenants *)
      let jobs =
        List.concat_map (fun (i, xml) -> [ (i, "acme", xml); (i + 4, "bravo", xml) ])
          (List.mapi (fun i xml -> (i, xml)) docs)
      in
      let reference =
        List.map
          (fun (_, _, xml) -> Engine.sort_string ~config ~ordering:by_id xml)
          jobs
        |> List.map (fun (out, rep) ->
               (out, Extmem.Io_stats.total rep.Nexsort.total_io))
      in
      (* room for two jobs at a time: job_blocks = 8 at the same block
         size, so 20 blocks queue the other six *)
      let eng =
        Engine.create ~memory_blocks:20 ~block_size:config.Config.block_size ()
      in
      let domains =
        List.map
          (fun (_, tenant, xml) ->
            Domain.spawn (fun () -> engine_sort eng ~tenant config xml))
          jobs
      in
      let results = List.map Domain.join domains in
      Engine.destroy eng;
      List.iter2
        (fun (ref_out, ref_io) (out, io) ->
          if not (String.equal ref_out out) then
            QCheck.Test.fail_report "concurrent output differs from sequential";
          if ref_io <> io then
            QCheck.Test.fail_reportf "concurrent io %d <> sequential io %d" io ref_io)
        reference results;
      if Extmem.Memory_budget.used_blocks (Engine.budget eng) <> 0 then
        QCheck.Test.fail_report "engine budget not empty after all jobs";
      true)

(* Offloaded external subtree sorts (config.jobs > 1, threshold too big
   for the arena) stay invisible when the jobs run concurrently through
   a shared engine pool. *)
let test_concurrent_external_offload () =
  let xml = gen_doc ~height:5 ~max_elements:500 11 in
  let mk jobs =
    Config.make ~block_size:128 ~memory_blocks:10 ~threshold:200_000 ~degeneration:false
      ~jobs ()
  in
  let ref_out, ref_rep = Engine.sort_string ~config:(mk 1) ~ordering:by_id xml in
  check Alcotest.bool "reference run spills externally" true
    (ref_rep.Nexsort.external_sorts > 0);
  let config = mk 2 in
  let eng = Engine.create ~workers:2 ~memory_blocks:80 ~block_size:128 () in
  let domains =
    List.init 3 (fun i ->
        Domain.spawn (fun () ->
            engine_sort eng ~tenant:(Printf.sprintf "t%d" i) config xml))
  in
  let results = List.map Domain.join domains in
  Engine.destroy eng;
  let ref_io = Extmem.Io_stats.total ref_rep.Nexsort.total_io in
  List.iteri
    (fun i (out, io) ->
      check Alcotest.string (Printf.sprintf "job %d bytes" i) ref_out out;
      check Alcotest.int (Printf.sprintf "job %d io" i) ref_io io)
    results;
  check Alcotest.int "no leaks" 0 (Engine.leaked_blocks eng)

(* --- admission ----------------------------------------------------- *)

let test_admission_queues_and_completes () =
  (* a one-job budget: while a held job occupies it, three submissions
     must queue; they all complete once the slot frees up *)
  let config = job_config () in
  let xml = gen_doc ~max_elements:120 5 in
  let eng = Engine.create ~memory_blocks:8 ~block_size:128 () in
  let holder = Engine.acquire eng ~tenant:"holder" config in
  let waits = Array.make 3 0. in
  let domains =
    List.init 3 (fun i ->
        Domain.spawn (fun () ->
            Engine.run eng ~tenant:"solo" config (fun job session ->
                waits.(i) <- Engine.queue_wait_s job;
                let input = Extmem.Device.in_memory ~block_size:128 () in
                Extmem.Device.load_string input xml;
                let output = Extmem.Device.in_memory ~block_size:128 () in
                ignore (Nexsort.sort_device ~session ~ordering:by_id ~input ~output ()))))
  in
  Unix.sleepf 0.1;
  Engine.release eng holder;
  List.iter Domain.join domains;
  check Alcotest.int "budget empty" 0
    (Extmem.Memory_budget.used_blocks (Engine.budget eng));
  let queued =
    match List.assoc_opt "engine.jobs_queued" (Obs.Registry.snapshot (Engine.registry eng)) with
    | Some v -> int_of_float v
    | None -> 0
  in
  check Alcotest.bool "at least one admission queued" true (queued >= 1);
  Engine.destroy eng

let test_tenant_fairness () =
  (* among queued jobs the tenant with fewer running jobs wins: tenant a
     holds two slots and queues a third job; tenant b arrives later with
     nothing running.  When one of a's slots frees, b still has zero
     running jobs to a's one — b is admitted first despite the later
     arrival. *)
  let config = job_config () in
  let eng = Engine.create ~memory_blocks:16 ~block_size:128 () in
  let ja1 = Engine.acquire eng ~tenant:"a" config in
  let ja2 = Engine.acquire eng ~tenant:"a" config in
  let order = ref [] in
  let order_lock = Mutex.create () in
  let admitted tenant =
    Mutex.lock order_lock;
    order := tenant :: !order;
    Mutex.unlock order_lock
  in
  let spawn_waiter tenant =
    Domain.spawn (fun () ->
        let j = Engine.acquire eng ~tenant config in
        admitted tenant;
        Engine.release eng j)
  in
  let da = spawn_waiter "a" in
  Unix.sleepf 0.2;
  let db = spawn_waiter "b" in
  Unix.sleepf 0.2;
  Engine.release eng ja1;
  Domain.join da;
  Domain.join db;
  Engine.release eng ja2;
  check Alcotest.(list string) "b admitted first" [ "b"; "a" ] (List.rev !order);
  check Alcotest.int "budget empty" 0
    (Extmem.Memory_budget.used_blocks (Engine.budget eng));
  Engine.destroy eng

let test_pair_admitted_as_one_unit () =
  (* a fused merge's two sessions are carved together or not at all:
     while a held job leaves room for only one of them, the pair holds
     nothing; once the slot frees, it gets both *)
  let config = job_config () in
  let eng = Engine.create ~memory_blocks:16 ~block_size:128 () in
  let holder = Engine.acquire eng ~tenant:"holder" config in
  let budgets = ref [] in
  let pair =
    Domain.spawn (fun () ->
        Engine.run_pair ~name:"merge" eng ~tenant:"pair" config (fun job (sl, sr) ->
            budgets := [ sl.Nexsort.Session.budget; sr.Nexsort.Session.budget ];
            Engine.job_name job))
  in
  Unix.sleepf 0.1;
  check Alcotest.int "a waiting pair holds no slot" 8
    (Extmem.Memory_budget.used_blocks (Engine.budget eng));
  Engine.release eng holder;
  check Alcotest.string "the left half names the pair" "merge-left" (Domain.join pair);
  (match !budgets with
  | [ l; r ] -> check Alcotest.bool "one carve per half" true (l != r)
  | _ -> Alcotest.fail "the pair never ran");
  check Alcotest.int "budget empty" 0 (Extmem.Memory_budget.used_blocks (Engine.budget eng));
  Engine.destroy eng

let test_rejected_ordering_destroys_session () =
  (* the ordering check is part of the sort: a config/ordering mismatch
     raises with the session already destroyed, so its job releases
     without a leak *)
  let config = Config.make ~block_size:128 ~memory_blocks:8 ~encoding:Config.Packed () in
  let eng = Engine.create ~memory_blocks:8 ~block_size:128 () in
  let job = Engine.acquire eng ~tenant:"t" config in
  let session = Engine.session eng job in
  let input = Extmem.Device.of_string ~block_size:128 "<r><a><b>1</b></a></r>" in
  let output = Extmem.Device.in_memory ~block_size:128 () in
  (match
     Nexsort.sort_device ~session ~ordering:(Nexsort.Ordering.of_spec_string "a/b") ~input
       ~output ()
   with
  | _ -> Alcotest.fail "a subtree-derived key under Packed was accepted"
  | exception Invalid_argument _ -> ());
  check Alcotest.bool "session destroyed" true session.Nexsort.Session.destroyed;
  Engine.release eng job;
  check Alcotest.int "nothing leaked" 0 (Engine.leaked_blocks eng);
  Engine.destroy eng

(* --- abort and containment ---------------------------------------- *)

exception Boom

let test_faulted_job_leaves_engine_quiescent () =
  (* a tenant that faults mid-job (after touching its stacks) returns
     every block: the engine budget is empty, a queued job still
     completes, and the leak counter stays zero because session destroy
     cleaned up properly *)
  let config = job_config () in
  let xml = gen_doc ~max_elements:120 7 in
  let eng = Engine.create ~memory_blocks:8 ~block_size:128 () in
  let faulty =
    Domain.spawn (fun () ->
        try
          Engine.run eng ~tenant:"faulty" config (fun _job session ->
              (* dirty the session first, as a real aborted sort would *)
              for i = 0 to 200 do
                Extmem.Ext_stack.push session.Nexsort.Session.data_stack
                  (Printf.sprintf "payload-%04d-%s" i (String.make 64 'x'))
              done;
              raise Boom)
        with Boom -> ())
  in
  Unix.sleepf 0.05;
  let queued =
    Domain.spawn (fun () -> engine_sort eng ~tenant:"patient" config xml)
  in
  Domain.join faulty;
  let out, _ = Domain.join queued in
  let ref_out, _ = Engine.sort_string ~config ~ordering:by_id xml in
  check Alcotest.string "queued job unaffected by the fault" ref_out out;
  check Alcotest.int "engine budget empty" 0
    (Extmem.Memory_budget.used_blocks (Engine.budget eng));
  check Alcotest.int "no leaked blocks" 0 (Engine.leaked_blocks eng);
  Engine.destroy eng

let test_cancel_running_job () =
  (* a cooperative cancel lands at a poll checkpoint, raises Cancelled
     through the sort, and the teardown path returns every block *)
  let config = job_config () in
  let xml = gen_doc ~height:5 ~max_elements:600 13 in
  let eng = Engine.create ~memory_blocks:8 ~block_size:128 () in
  let flag = Atomic.make false in
  let d =
    Domain.spawn (fun () ->
        match engine_sort ~cancel:flag eng ~tenant:"doomed" config xml with
        | _ -> `Completed
        | exception Engine.Cancelled -> `Cancelled)
  in
  (* let it get into the scan, then cancel *)
  Unix.sleepf 0.02;
  Engine.cancel eng flag;
  let outcome = Domain.join d in
  (* the sort may already have finished on a fast machine; either way
     the engine must be whole *)
  check Alcotest.int "engine budget empty" 0
    (Extmem.Memory_budget.used_blocks (Engine.budget eng));
  check Alcotest.int "no leaked blocks" 0 (Engine.leaked_blocks eng);
  (match outcome with
  | `Cancelled ->
      let cancelled =
        match
          List.assoc_opt "engine.jobs_cancelled" (Obs.Registry.snapshot (Engine.registry eng))
        with
        | Some v -> int_of_float v
        | None -> 0
      in
      check Alcotest.bool "cancel counted" true (cancelled >= 0)
  | `Completed -> ());
  Engine.destroy eng

let test_cancel_queued_job () =
  (* cancelling a job still in the admission queue wakes it out of
     acquire with Cancelled; the slot-holder is untouched *)
  let config = job_config () in
  let eng = Engine.create ~memory_blocks:8 ~block_size:128 () in
  let holder = Engine.acquire eng ~tenant:"holder" config in
  let flag = Atomic.make false in
  let d =
    Domain.spawn (fun () ->
        match Engine.acquire ~cancel:flag eng ~tenant:"queued" config with
        | j ->
            Engine.release eng j;
            `Admitted
        | exception Engine.Cancelled -> `Cancelled)
  in
  Unix.sleepf 0.1;
  Engine.cancel eng flag;
  let outcome = Domain.join d in
  check Alcotest.bool "queued job saw Cancelled" true (outcome = `Cancelled);
  Engine.release eng holder;
  check Alcotest.int "engine budget empty" 0
    (Extmem.Memory_budget.used_blocks (Engine.budget eng));
  Engine.destroy eng

(* --- borrow-window isolation -------------------------------------- *)

let test_borrow_stays_inside_carve () =
  (* the elastic data-stack window may only borrow blocks idle inside
     its own job's carve: while job A's window is fat with borrowed
     blocks, the engine's free pool is exactly what admission left, and
     a second tenant can still be admitted *)
  let config = job_config () in
  let eng = Engine.create ~memory_blocks:16 ~block_size:128 () in
  let ja = Engine.acquire eng ~tenant:"a" config in
  let free_after_admit = Extmem.Memory_budget.available_blocks (Engine.budget eng) in
  let sa = Engine.session eng ja in
  (* push until the window has certainly borrowed beyond its configured
     size (the job budget has idle arena blocks to lend) *)
  for i = 0 to 400 do
    Extmem.Ext_stack.push sa.Nexsort.Session.data_stack
      (Printf.sprintf "row-%04d-%s" i (String.make 48 'y'))
  done;
  check Alcotest.int "engine free pool untouched by borrowing" free_after_admit
    (Extmem.Memory_budget.available_blocks (Engine.budget eng));
  (* a second tenant still fits: borrowing consumed nothing outside A's
     carve *)
  let jb = Engine.acquire eng ~tenant:"b" config in
  Nexsort.Session.destroy sa;
  Engine.release eng ja;
  Engine.release eng jb;
  check Alcotest.int "budget empty at the end" 0
    (Extmem.Memory_budget.used_blocks (Engine.budget eng));
  Engine.destroy eng

let () =
  Alcotest.run "engine"
    [
      ( "invisibility",
        [
          qcheck test_concurrent_jobs_equal_sequential;
          Alcotest.test_case "concurrent external offload" `Quick
            test_concurrent_external_offload;
        ] );
      ( "admission",
        [
          Alcotest.test_case "queues and completes" `Quick test_admission_queues_and_completes;
          Alcotest.test_case "tenant fairness" `Quick test_tenant_fairness;
          Alcotest.test_case "pair admitted as one unit" `Quick test_pair_admitted_as_one_unit;
        ] );
      ( "containment",
        [
          Alcotest.test_case "faulted job leaves engine quiescent" `Quick
            test_faulted_job_leaves_engine_quiescent;
          Alcotest.test_case "cancel running job" `Quick test_cancel_running_job;
          Alcotest.test_case "cancel queued job" `Quick test_cancel_queued_job;
          Alcotest.test_case "rejected ordering destroys the session" `Quick
            test_rejected_ordering_destroys_session;
        ] );
      ( "isolation",
        [
          Alcotest.test_case "borrowing stays inside the carve" `Quick
            test_borrow_stays_inside_carve;
        ] );
    ]
