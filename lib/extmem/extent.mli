(** Extents: contiguous block ranges on a device.

    An extent identifies where a stream of bytes lives on a device: the
    first block, the number of blocks, and the exact byte length (which may
    end mid-block). *)

type t = {
  first_block : int;  (** index of the first block on the device *)
  blocks : int;       (** number of consecutive blocks *)
  bytes : int;        (** exact byte length of the payload *)
}
