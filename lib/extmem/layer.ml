type t = Backend.t -> Backend.t

let make wrap = wrap

let wrap layer backend = layer backend

(* Fail an I/O when [fails op i] holds, leaving identity and resource
   management to the inner backend. *)
let fault_hook fails next =
  let check op i = if fails op i then raise (Backend.Fault (op, i)) in
  {
    next with
    Backend.read_block =
      (fun i buf ->
        check Backend.Read i;
        next.Backend.read_block i buf);
    write_block =
      (fun i buf ->
        check Backend.Write i;
        next.Backend.write_block i buf);
  }

(* splitmix64: a tiny deterministic PRNG so seeded fault injection is
   reproducible across runs and platforms *)
let splitmix64 state =
  state := Int64.add !state 0x9E3779B97F4A7C15L;
  let z = !state in
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 30)) 0xBF58476D1CE4E5B9L in
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 27)) 0x94D049BB133111EBL in
  Int64.logxor z (Int64.shift_right_logical z 31)

let uniform state =
  (* 53 random bits -> [0,1) *)
  let bits = Int64.to_float (Int64.shift_right_logical (splitmix64 state) 11) in
  bits /. 9007199254740992.0

let faulty ?(seed = 42) ~p () =
  if p < 0. || p > 1. then invalid_arg "Layer.faulty: p must lie in [0,1]";
  let state = ref (Int64.of_int seed) in
  fault_hook (fun _op _i -> uniform state < p)
