type t = { mutable state : int64 }

let golden = 0x9E3779B97F4A7C15L

let create seed = { state = Int64.of_int seed }

let next_int64 t =
  t.state <- Int64.add t.state golden;
  let z = t.state in
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 30)) 0xBF58476D1CE4E5B9L in
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 27)) 0x94D049BB133111EBL in
  Int64.logxor z (Int64.shift_right_logical z 31)

let int t bound =
  if bound <= 0 then invalid_arg "Splitmix.int: bound must be positive";
  (* keep 62 bits so the value fits OCaml's 63-bit native int non-negatively *)
  let v = Int64.to_int (Int64.shift_right_logical (next_int64 t) 2) in
  v mod bound

let in_range t lo hi =
  if hi < lo then invalid_arg "Splitmix.in_range: empty range";
  lo + int t (hi - lo + 1)

let letter t = Char.chr (Char.code 'a' + int t 26)
