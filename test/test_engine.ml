(* The multi-tenant engine: admission, isolation, abort and the
   concurrency-invisibility property.

   The headline invariant: the engine may run any number of jobs concurrently under any interleaving the
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
      (* room for two jobs at a time: memory_blocks = 8 at the same block
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

(* External subtree sorts (threshold too big for the arena) stay
   invisible when the jobs run concurrently, each on its own domain,
   through one engine. *)
let test_concurrent_external_sorts () =
  let xml = gen_doc ~height:5 ~max_elements:500 11 in
  let config =
    Config.make ~block_size:128 ~memory_blocks:10 ~threshold:200_000 ~degeneration:false ()
  in
  let ref_out, ref_rep = Engine.sort_string ~config ~ordering:by_id xml in
  check Alcotest.bool "reference run spills externally" true
    (ref_rep.Nexsort.external_sorts > 0);
  let eng = Engine.create ~memory_blocks:20 ~block_size:128 () in
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

let test_late_scan_error_leaks_nothing () =
  (* the scan fails after the root element closed (a second root), when
     the fused root's sorted stream is already open: a fragment merge on
     the flat document, an external sort without degeneration.  Closing
     that stream returns its reservations before the session goes. *)
  let flat, _ =
    Xmlgen.Gen.to_string (fun sink ->
        Xmlgen.Gen.exact_shape ~seed:7 ~avg_bytes:120 ~fanouts:[ 3000 ] sink)
  in
  let xml = flat ^ "<junk/>" in
  List.iter
    (fun (what, config) ->
      let eng = Engine.create ~memory_blocks:40 ~block_size:1024 () in
      (match engine_sort eng ~tenant:"t" config xml with
      | _ -> Alcotest.fail "a second root element was accepted"
      | exception Xmlio.Parser.Error _ -> ());
      check Alcotest.int (what ^ ": no leaked blocks") 0 (Engine.leaked_blocks eng);
      check Alcotest.int (what ^ ": engine budget empty") 0
        (Extmem.Memory_budget.used_blocks (Engine.budget eng));
      Engine.destroy eng)
    [
      ("fragment merge", Config.make ~block_size:1024 ~memory_blocks:16 ());
      ( "external sort",
        Config.make ~block_size:1024 ~memory_blocks:16 ~threshold:100_000_000
          ~degeneration:false () );
    ]

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

(* A job bigger than the whole engine can never be admitted: acquire
   refuses it at once with Too_large, instead of queueing it for ever
   (and, since nobody skips ahead, every job behind it).  Each attempt
   runs on its own domain under a 2 s deadline, and one still blocked
   then is cancelled, so an engine that queues the job fails the test
   instead of hanging it. *)
let test_oversized_job_rejected () =
  let eng = Engine.create ~memory_blocks:40 ~block_size:1024 () in
  let attempt f =
    let flag = Atomic.make false and finished = Atomic.make false in
    let d =
      Domain.spawn (fun () ->
          let outcome =
            match f flag with
            | () -> `Admitted
            | exception Engine.Too_large _ -> `Too_large
            | exception Engine.Cancelled -> `Blocked
          in
          Atomic.set finished true;
          outcome)
    in
    let deadline = Unix.gettimeofday () +. 2. in
    while (not (Atomic.get finished)) && Unix.gettimeofday () < deadline do
      Unix.sleepf 0.01
    done;
    if not (Atomic.get finished) then Engine.cancel eng flag;
    Domain.join d
  in
  let single config cancel = Engine.release eng (Engine.acquire ~cancel eng ~tenant:"t" config) in
  let outcome =
    Alcotest.testable
      (fun ppf o ->
        Format.pp_print_string ppf
          (match o with
          | `Admitted -> "admitted"
          | `Too_large -> "too large"
          | `Blocked -> "blocked (cancelled at the deadline)"))
      ( = )
  in
  check outcome "64 KiB job on a 40 KiB engine" `Too_large
    (attempt (single (Config.make ~block_size:1024 ~memory_blocks:64 ())));
  (* a pair is judged as a whole: each 24 KiB half fits, both do not *)
  check outcome "pair of 24 KiB halves" `Too_large
    (attempt (fun cancel ->
         Engine.run_pair ~cancel eng ~tenant:"t"
           (Config.make ~block_size:1024 ~memory_blocks:24 ())
           (fun _ _ -> ())));
  (* the carve rounds up to whole engine blocks: 41 blocks of 1000 bytes
     are 41,000 bytes, charged as 41 engine blocks *)
  check outcome "41 x 1000 bytes, 41 engine blocks" `Too_large
    (attempt (single (Config.make ~block_size:1000 ~memory_blocks:41 ())));
  check outcome "a job that fills the engine exactly" `Admitted
    (attempt (single (Config.make ~block_size:1024 ~memory_blocks:40 ())));
  check outcome "a job behind the refused ones" `Admitted
    (attempt (single (job_config ())));
  check Alcotest.int "engine budget empty" 0
    (Extmem.Memory_budget.used_blocks (Engine.budget eng));
  Engine.destroy eng

(* --- borrow-window isolation -------------------------------------- *)

let test_borrow_stays_inside_carve () =
  (* the elastic data-stack window may only grow over blocks idle inside
     its own job's carve: while job A's window is fat with them, the
     engine's free pool is exactly what admission left, and a second
     tenant can still be admitted *)
  let config = job_config () in
  let eng = Engine.create ~memory_blocks:16 ~block_size:128 () in
  let ja = Engine.acquire eng ~tenant:"a" config in
  let free_after_admit = Extmem.Memory_budget.available_blocks (Engine.budget eng) in
  let sa = Engine.session eng ja in
  (* push until the window has certainly grown beyond its grant (the
     job budget has idle arena blocks) *)
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

(* The plan moves blocks between a job's consumers, never across its
   carve: a flat job whose fragment merge takes the stack windows and a
   tight deep job whose output traversal takes them, run while both
   carves are held.  Each job's budget peaks within its carve, and the
   engine's free pool is sampled at every run-block I/O of both. *)
let test_plan_stays_inside_carve () =
  let doc ?avg_bytes seed fanouts =
    fst (Xmlgen.Gen.to_string (fun sink -> Xmlgen.Gen.exact_shape ?avg_bytes ~seed ~fanouts sink))
  in
  let flat =
    (Config.make ~block_size:1024 ~memory_blocks:16 ~ordering:by_id (), doc ~avg_bytes:120 7 [ 3_000 ])
  in
  let deep =
    ( Config.make ~block_size:1024 ~memory_blocks:8 ~threshold:1024 ~ordering:by_id (),
      doc 1 [ 6; 6; 6; 4; 2; 2 ] )
  in
  let eng = Engine.create ~memory_blocks:24 ~block_size:1024 () in
  let pool () = Extmem.Memory_budget.available_blocks (Engine.budget eng) in
  let jobs =
    List.map (fun (config, xml) -> (config, xml, Engine.acquire eng ~tenant:"t" config)) [ flat; deep ]
  in
  let free = pool () in
  let moved = ref 0 in
  let run (config, xml, job) =
    let session = Engine.session eng job in
    Extmem.Device.push_layer
      (Extmem.Run_store.device session.Nexsort.Session.runs)
      (Extmem.Layer.fault_hook (fun _ _ ->
           if pool () <> free then incr moved;
           false));
    let input = Extmem.Device.in_memory ~block_size:1024 () in
    Extmem.Device.load_string input xml;
    let output = Extmem.Device.in_memory ~block_size:1024 () in
    ignore (Nexsort.sort_device ~session ~ordering:by_id ~input ~output () : Nexsort.report);
    check Alcotest.bool "budget peak within the carve" true
      (Extmem.Memory_budget.peak_blocks session.Nexsort.Session.budget
      <= config.Config.memory_blocks);
    check Alcotest.string "sorted" (Verify.Oracle.sort_string by_id xml)
      (Extmem.Device.contents output);
    session
  in
  let grant session phase who =
    match
      List.find_opt (fun (p, _, _) -> p = phase) (Nexsort.Plan.phases session.Nexsort.Session.plan)
    with
    | Some (_, _, grants) -> Nexsort.Plan.granted grants who
    | None -> Alcotest.failf "no %s phase" phase
  in
  (match List.map run jobs with
  | [ f; d ] ->
      check Alcotest.int "the flat merge takes the data window" 0
        (grant f "fragment merge" "data stack window");
      let traversal_peak =
        (List.assoc "run traversal" (Extmem.Frame_arena.owners d.Nexsort.Session.arena))
          .Extmem.Frame_arena.peak
      in
      check Alcotest.bool "the deep traversal reads into the data and path windows' blocks" true
        (traversal_peak
        > grant d "output" "run traversal" - grant d "scan" "data stack window"
          - grant d "scan" "path stack window")
  | _ -> assert false);
  check Alcotest.int "the engine's free pool never moved" 0 !moved;
  check Alcotest.int "free pool after both sorts" free (pool ());
  List.iter (fun (_, _, job) -> Engine.release eng job) jobs;
  check Alcotest.int "budget empty at the end" 0
    (Extmem.Memory_budget.used_blocks (Engine.budget eng));
  Engine.destroy eng

(* ---- the socket daemon, driven as a child process ---- *)

let bin name = Filename.concat (Sys.getcwd ()) ("../bin/" ^ name)

let connect path =
  let s = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  Unix.setsockopt_float s Unix.SO_RCVTIMEO 10.;
  match Unix.connect s (Unix.ADDR_UNIX path) with
  | () -> Some s
  | exception Unix.Unix_error ((Unix.ENOENT | Unix.ECONNREFUSED), _, _) ->
      Unix.close s;
      None

let rec connect_when_listening path tries =
  match connect path with
  | Some s -> s
  | None when tries > 0 ->
      Unix.sleepf 0.05;
      connect_when_listening path (tries - 1)
  | None -> Alcotest.fail "the daemon is not listening"

let send s line = ignore (Unix.write_substring s line 0 (String.length line))

(* Everything until the daemon closes the connection. *)
let read_all s =
  let buf = Buffer.create 256 and chunk = Bytes.create 256 in
  let rec go () =
    match Unix.read s chunk 0 256 with
    | 0 -> Buffer.contents buf
    | n ->
        Buffer.add_subbytes buf chunk 0 n;
        go ()
  in
  go ()

(* One reply line, without its newline. *)
let read_line s =
  let buf = Buffer.create 64 and c = Bytes.create 1 in
  let rec go () =
    match Unix.read s c 0 1 with
    | 0 -> Buffer.contents buf
    | _ when Bytes.get c 0 = '\n' -> Buffer.contents buf
    | _ ->
        Buffer.add_char buf (Bytes.get c 0);
        go ()
  in
  go ()

(* [f ~dir ~path pid] with [nexsortd --socket path] running as [pid],
   [dir] a fresh directory for [f]'s files; the daemon is killed and
   the directory removed afterwards. *)
let with_socket_daemon args f =
  Sys.set_signal Sys.sigpipe Sys.Signal_ignore;
  let exe = bin "nexsortd.exe" in
  let dir = Filename.temp_dir "nexsortd" "" in
  let path = Filename.concat dir "d.sock" in
  let devnull = Unix.openfile "/dev/null" [ Unix.O_RDWR ] 0 in
  let pid =
    Unix.create_process exe
      (Array.of_list ((exe :: args) @ [ "--socket"; path ]))
      devnull devnull devnull
  in
  Fun.protect
    ~finally:(fun () ->
      (try Unix.kill pid Sys.sigkill with Unix.Unix_error _ -> ());
      (try ignore (Unix.waitpid [] pid) with Unix.Unix_error _ -> ());
      Unix.close devnull;
      Array.iter (fun f -> Sys.remove (Filename.concat dir f)) (Sys.readdir dir);
      Sys.rmdir dir)
    (fun () -> f ~dir ~path pid)

let check_clean_exit pid =
  match Unix.waitpid [] pid with
  | _, Unix.WEXITED code -> check Alcotest.int "clean exit" 0 code
  | _ -> Alcotest.fail "the daemon was killed"

(* The socket daemon outlives a client that hangs up before its reply.
   Client 0 keeps the daemon (one connection at a time) busy while
   client 1 connects, asks for the status and hangs up, so the reply to
   client 1 is written after it has gone: EPIPE, which must close that
   connection only.  Client 2 is then served, and its quit drains the
   engine. *)
let test_daemon_survives_client_hang_up () =
  let status = "engine: 0 running, 0 waiting, 0 admitted, 0 completed; leaked blocks: 0\n" in
  with_socket_daemon [ "--memory"; "8" ] (fun ~dir:_ ~path pid ->
      let c0 = connect_when_listening path 200 in
      send c0 "status\n";
      let got = Bytes.create (String.length status) in
      check Alcotest.int "client 0 is being served" (String.length status)
        (Unix.read c0 got 0 (Bytes.length got));
      let c1 = connect_when_listening path 0 in
      send c1 "status\n";
      Unix.close c1;
      Unix.close c0;
      let c2 =
        match connect path with
        | Some s -> s
        | None -> Alcotest.fail "the daemon died with the client that hung up"
      in
      send c2 "status\nquit\n";
      check Alcotest.string "the next client is served, and nothing leaked"
        (status ^ "0 jobs: 0 done, 0 cancelled, 0 failed; leaked blocks: 0\n")
        (read_all c2);
      Unix.close c2;
      check_clean_exit pid)

(* A bad request on a socket is refused on its own connection: the
   daemon keeps serving, and another client's queued job completes.
   Client B queues a sort; client A sends an unknown request, a sort
   with a bad flag and a cancel of an unknown job, and gets one error
   line for each; client C then waits for B's job, whose output must
   equal the CLI's, and finds nothing leaked. *)
let test_daemon_refuses_bad_request () =
  with_socket_daemon [ "--memory"; "40"; "--block-size"; "1024" ] (fun ~dir ~path pid ->
      let file name = Filename.concat dir name in
      let xml, _ =
        Xmlgen.Gen.to_string (fun sink ->
            Xmlgen.Gen.exact_shape ~seed:7 ~avg_bytes:80 ~fanouts:[ 8; 8; 5 ] sink)
      in
      Out_channel.with_open_bin (file "doc.xml") (fun oc -> Out_channel.output_string oc xml);
      let b = connect_when_listening path 200 in
      send b
        (Printf.sprintf "sort -B 1024 -M 16 %s -o %s --tenant b\n" (file "doc.xml")
           (file "daemon.xml"));
      check Alcotest.string "client B's sort is queued"
        (Printf.sprintf "[1] queued sort %s tenant=b" (file "doc.xml"))
        (read_line b);
      Unix.close b;
      let a = connect_when_listening path 0 in
      List.iter
        (fun (request, reply) ->
          send a (request ^ "\n");
          let line = read_line a in
          check Alcotest.bool
            (Printf.sprintf "%S gets an error line (%S)" request line)
            true
            (String.starts_with ~prefix:("error: " ^ reply) line))
        [ ("bogus", "unknown request \"bogus\"");
          ("sort --no-such-flag in.xml", "");
          ("cancel 99", "cancel: unknown job 99") ];
      Unix.close a;
      let c = connect_when_listening path 0 in
      send c "wait\nstatus\nquit\n";
      let replies = read_all c in
      Unix.close c;
      (match String.split_on_char '\n' replies with
      | [ finished; status; summary; "" ] ->
          check Alcotest.bool "client B's job is done" true
            (String.starts_with ~prefix:"[1] done sort" finished);
          check Alcotest.string "status: nothing leaked"
            "engine: 0 running, 0 waiting, 1 admitted, 1 completed; leaked blocks: 0" status;
          check Alcotest.string "summary" "1 jobs: 1 done, 0 cancelled, 0 failed; leaked blocks: 0"
            summary
      | _ -> Alcotest.failf "unexpected replies to wait/status/quit: %S" replies);
      check_clean_exit pid;
      let cli = bin "nexsort_cli.exe" in
      let devnull = Unix.openfile "/dev/null" [ Unix.O_RDWR ] 0 in
      let cli_pid =
        Unix.create_process cli
          [| cli; "-B"; "1024"; "-M"; "16"; file "doc.xml"; "-o"; file "cli.xml" |]
          devnull devnull devnull
      in
      Unix.close devnull;
      (match Unix.waitpid [] cli_pid with
      | _, Unix.WEXITED 0 -> ()
      | _ -> Alcotest.fail "the CLI sort failed");
      let contents name = In_channel.with_open_bin (file name) In_channel.input_all in
      check Alcotest.string "byte-identical to the CLI's output" (contents "cli.xml")
        (contents "daemon.xml"))

let () =
  Alcotest.run "engine"
    [
      ( "invisibility",
        [
          qcheck test_concurrent_jobs_equal_sequential;
          Alcotest.test_case "concurrent external sorts" `Quick
            test_concurrent_external_sorts;
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
          Alcotest.test_case "oversized job rejected" `Quick test_oversized_job_rejected;
          Alcotest.test_case "rejected ordering destroys the session" `Quick
            test_rejected_ordering_destroys_session;
          Alcotest.test_case "late scan error leaks nothing" `Quick
            test_late_scan_error_leaks_nothing;
        ] );
      ( "isolation",
        [
          Alcotest.test_case "borrowing stays inside the carve" `Quick
            test_borrow_stays_inside_carve;
          Alcotest.test_case "the plan stays inside the carve" `Quick
            test_plan_stays_inside_carve;
        ] );
      ( "daemon",
        [
          Alcotest.test_case "socket client hangs up before its reply" `Quick
            test_daemon_survives_client_hang_up;
          Alcotest.test_case "socket bad request keeps the daemon serving" `Quick
            test_daemon_refuses_bad_request;
        ] );
    ]
