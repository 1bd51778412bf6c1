(* Child processes: spawn, time from outside, reap with resource usage.

   Every timing in the end-to-end metrics is taken around a real process
   boundary, so start-up, file reading and report writing are part of
   what a user waits for.  Children are started through nexperf_spawn
   (spawn.c), which forks them from a tiny process — keeping the
   benchmark's own resident set out of their ru_maxrss — and reports
   CLOCK_MONOTONIC start and end times, exit code and peak RSS.  Waiting
   never blocks past a deadline: SIGCHLD writes a byte to a self-pipe and
   the waiter sleeps in [select] on it between non-blocking reaps. *)

external now_ns : unit -> int = "nexperf_now_ns" [@@noalloc]

let now_s () = float_of_int (now_ns ()) *. 1e-9

type status = {
  code : int;  (** exit status, 128 + signal when killed *)
  maxrss_kb : int;  (** peak resident set size *)
  timed_out : bool;  (** killed for running past its deadline *)
  start_ns : int;  (** when the child was forked *)
  end_ns : int;  (** when it was reaped *)
}

(* The helper and the machine-speed probe live next to this executable. *)
let sibling name = Filename.concat (Filename.dirname Sys.executable_name) name

let helper = lazy (sibling "nexperf_spawn.exe")

let chld_pipe =
  lazy
    (let r, w = Unix.pipe ~cloexec:true () in
     Unix.set_nonblock r;
     Unix.set_nonblock w;
     let b = Bytes.make 1 'c' in
     Sys.set_signal Sys.sigchld
       (Sys.Signal_handle
          (fun _ -> try ignore (Unix.single_write w b 0 1) with Unix.Unix_error _ -> ()));
     (* a daemon that dies mid-request must surface as a failed write, not
        kill the benchmark *)
     Sys.set_signal Sys.sigpipe Sys.Signal_ignore;
     r)

let drain fd =
  let b = Bytes.create 64 in
  let rec go () =
    match Unix.read fd b 0 64 with
    | 64 -> go ()
    | _ -> ()
    | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK | Unix.EINTR), _, _) -> ()
  in
  go ()

let sleep_on fds seconds =
  try ignore (Unix.select fds [] [] (Float.max 0. seconds))
  with Unix.Unix_error (Unix.EINTR, _, _) -> ()

type child = {
  pid : int;  (** the helper's *)
  result : string;  (** file the helper reports into *)
}

let devnull = lazy (Unix.openfile "/dev/null" [ Unix.O_RDWR; Unix.O_CLOEXEC ] 0)

let spawn ?stdin ?stdout ~stderr ~result prog args =
  ignore (Lazy.force chld_pipe);
  (try Sys.remove result with Sys_error _ -> ());
  let null = Lazy.force devnull in
  let helper = Lazy.force helper in
  let pid =
    Unix.create_process helper
      (Array.of_list (helper :: result :: prog :: args))
      (Option.value stdin ~default:null)
      (Option.value stdout ~default:null)
      stderr
  in
  { pid; result }

let reap c ~timed_out =
  let code, start_ns, end_ns, maxrss_kb =
    match
      Scanf.sscanf
        (In_channel.with_open_bin c.result In_channel.input_all)
        " %d %d %d %d"
        (fun s e c m -> (c, s, e, m))
    with
    | r -> r
    | exception (Sys_error _ | Scanf.Scan_failure _ | End_of_file | Failure _) -> (126, 0, 0, 0)
  in
  { code; maxrss_kb; timed_out; start_ns; end_ns }

let wait ?(timeout = 170.) c =
  let sig_r = Lazy.force chld_pipe in
  let deadline = now_s () +. timeout in
  let rec loop () =
    match Unix.waitpid [ Unix.WNOHANG ] c.pid with
    | 0, _ when now_s () >= deadline ->
        (* the helper kills its child on SIGTERM, then reports *)
        (try Unix.kill c.pid Sys.sigterm with Unix.Unix_error _ -> ());
        ignore (Unix.waitpid [] c.pid);
        reap c ~timed_out:true
    | 0, _ ->
        sleep_on [ sig_r ] (Float.min 1. (deadline -. now_s ()));
        drain sig_r;
        loop ()
    | _ -> reap c ~timed_out:false
    | exception Unix.Unix_error (Unix.EINTR, _, _) -> loop ()
  in
  loop ()

let open_log path =
  Unix.openfile path [ Unix.O_WRONLY; Unix.O_CREAT; Unix.O_TRUNC; Unix.O_CLOEXEC ] 0o644

type run = {
  wall_s : float;
  status : status;
}

(* Run [prog args] to completion, stderr to [log]. *)
let run ~log prog args =
  let err = open_log log in
  Fun.protect
    ~finally:(fun () -> Unix.close err)
    (fun () ->
      let status = wait (spawn ~stderr:err ~result:(log ^ ".rusage") prog args) in
      { wall_s = float_of_int (status.end_ns - status.start_ns) *. 1e-9; status })

let ok r = r.status.code = 0 && not r.status.timed_out

let describe r =
  if r.status.timed_out then "timed out"
  else Printf.sprintf "exit code %d" r.status.code

(* ---- a line-protocol child on pipes (the daemon) ---- *)

type conv = {
  child : child;
  to_child : out_channel;
  from_child : Unix.file_descr;
  pending : Buffer.t;  (* bytes read past the last returned line *)
  mutable eof : bool;
}

let start ~log prog args =
  let in_r, in_w = Unix.pipe ~cloexec:true () in
  let out_r, out_w = Unix.pipe ~cloexec:true () in
  let err = open_log log in
  let child =
    Fun.protect
      ~finally:(fun () ->
        Unix.close in_r;
        Unix.close out_w;
        Unix.close err)
      (fun () -> spawn ~stdin:in_r ~stdout:out_w ~stderr:err ~result:(log ^ ".rusage") prog args)
  in
  { child; to_child = Unix.out_channel_of_descr in_w; from_child = out_r;
    pending = Buffer.create 256; eof = false }

(* [false] when the child has gone away (EPIPE). *)
let send c line =
  try
    output_string c.to_child line;
    output_char c.to_child '\n';
    flush c.to_child;
    true
  with Sys_error _ -> false

(* Next line from the child, [None] on end of stream or past [deadline]. *)
let read_line ~deadline c =
  let chunk = Bytes.create 4096 in
  let rec go () =
    let s = Buffer.contents c.pending in
    match String.index_opt s '\n' with
    | Some i ->
        Buffer.clear c.pending;
        Buffer.add_string c.pending (String.sub s (i + 1) (String.length s - i - 1));
        Some (String.sub s 0 i)
    | None when c.eof -> None
    | None ->
        let left = deadline -. now_s () in
        if left <= 0. then None
        else begin
          sleep_on [ c.from_child ] left;
          (match Unix.read c.from_child chunk 0 (Bytes.length chunk) with
          | 0 -> c.eof <- true
          | n -> Buffer.add_subbytes c.pending chunk 0 n
          | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EINTR), _, _) -> ());
          go ()
        end
  in
  go ()

(* Close the child's stdin, collect its remaining output and reap it. *)
let finish ?(timeout = 60.) c =
  (try close_out c.to_child with Sys_error _ -> ());
  let deadline = now_s () +. timeout in
  let rec rest acc =
    match read_line ~deadline c with
    | Some l -> rest (l :: acc)
    | None -> List.rev acc
  in
  let lines = rest [] in
  Unix.close c.from_child;
  (lines, wait ~timeout:(Float.max 1. (deadline -. now_s ())) c.child)
