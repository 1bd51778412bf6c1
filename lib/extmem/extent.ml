type t = {
  first_block : int;
  blocks : int;
  bytes : int;
}
