(* peak_rss_mb comes from wait4(2) in nexperf_spawn: a child that touches
   N MB must be reported with a peak resident set of at least N MB, and
   the benchmark's own resident set must not leak into the figure (Linux
   counts the pre-exec RSS of a child spawned directly from a big
   process).  The child is this executable, re-run with --child N. *)

open Nexperf_lib

let touch mb =
  let b = Bytes.create (mb * 1024 * 1024) in
  (* touch every page so it is resident, not just reserved *)
  for i = 0 to (Bytes.length b / 4096) - 1 do
    Bytes.set b (i * 4096) 'x'
  done;
  b

let child_rss mb =
  let r = Proc.run ~log:"test_rusage.log" Sys.executable_name [ "--child"; string_of_int mb ] in
  if not (Proc.ok r) then failwith (Printf.sprintf "child of %d MB: %s" mb (Proc.describe r));
  r.Proc.status.Proc.maxrss_kb / 1024

let () =
  match Sys.argv with
  | [| _; "--child"; n |] -> exit (if Bytes.get (touch (int_of_string n)) 0 = 'x' then 0 else 1)
  | _ ->
      List.iter
        (fun mb ->
          let rss = child_rss mb in
          if rss < mb then failwith (Printf.sprintf "child touched %d MB, wait4 reported %d MB" mb rss);
          Printf.printf "child touched %3d MB: peak RSS %d MB\n" mb rss)
        [ 16; 64 ];
      let ballast = touch 128 in
      let rss = child_rss 16 in
      if rss >= 64 then
        failwith (Printf.sprintf "a 16 MB child of a 128 MB parent reported %d MB" rss);
      Printf.printf "child touched  16 MB under a 128 MB parent: peak RSS %d MB\n" rss;
      ignore (Sys.opaque_identity ballast);
      List.iter Sys.remove [ "test_rusage.log"; "test_rusage.log.rusage" ]
