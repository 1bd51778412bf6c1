type t = {
  mutable reads : int;
  mutable writes : int;
}

let create () = { reads = 0; writes = 0 }

let record_read s = s.reads <- s.reads + 1

let record_write s = s.writes <- s.writes + 1

let total s = s.reads + s.writes

let reset s =
  s.reads <- 0;
  s.writes <- 0

let snapshot s = { reads = s.reads; writes = s.writes }

let diff now before = { reads = now.reads - before.reads; writes = now.writes - before.writes }

let add a b = { reads = a.reads + b.reads; writes = a.writes + b.writes }

let accumulate ~into s =
  into.reads <- into.reads + s.reads;
  into.writes <- into.writes + s.writes

let pp ppf s =
  Format.fprintf ppf "{reads=%d; writes=%d; total=%d}" s.reads s.writes (total s)
