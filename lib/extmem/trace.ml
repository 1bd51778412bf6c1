type summary = {
  accesses : int;
  sequential : int;
  repeats : int;
  backward : int;
  mean_distance : float;
  max_block : int;
}

type t = {
  trace : int Vec.t;
  dev : Device.t;
  sub : Device.subscription;
}

let attach dev =
  let trace = Vec.create () in
  let sub = Device.subscribe dev (fun _op i ~start_ns:_ ~dur_ns:_ -> Vec.push trace i) in
  { trace; dev; sub }

let detach t = Device.unsubscribe t.dev t.sub

let length t = Vec.length t.trace

let blocks t = Vec.to_list t.trace

let summarize t =
  let n = Vec.length t.trace in
  if n = 0 then
    { accesses = 0; sequential = 0; repeats = 0; backward = 0; mean_distance = 0.; max_block = 0 }
  else begin
    let sequential = ref 0 in
    let repeats = ref 0 in
    let backward = ref 0 in
    let total_distance = ref 0 in
    let max_block = ref (Vec.get t.trace 0) in
    for i = 1 to n - 1 do
      let prev = Vec.get t.trace (i - 1) in
      let cur = Vec.get t.trace i in
      if cur > !max_block then max_block := cur;
      if cur = prev + 1 then incr sequential
      else if cur = prev then incr repeats
      else if cur < prev then incr backward;
      total_distance := !total_distance + abs (cur - prev)
    done;
    {
      accesses = n;
      sequential = !sequential;
      repeats = !repeats;
      backward = !backward;
      mean_distance = (if n > 1 then float_of_int !total_distance /. float_of_int (n - 1) else 0.);
      max_block = !max_block;
    }
  end

let sequential_fraction s =
  if s.accesses <= 1 then if s.accesses = 1 then 1.0 else 0.0
  else float_of_int s.sequential /. float_of_int (s.accesses - 1)

let pp_summary ppf s =
  Format.fprintf ppf "{accesses=%d; sequential=%.0f%%; repeats=%d; backward=%d; mean seek=%.1f blocks}"
    s.accesses
    (100. *. sequential_fraction s)
    s.repeats s.backward s.mean_distance
