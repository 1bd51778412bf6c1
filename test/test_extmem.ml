(* Tests for the external-memory substrate. *)

let check = Alcotest.check

let qcheck = QCheck_alcotest.to_alcotest

(* ------------------------------------------------------------------ *)
(* Vec *)

let test_vec_basic () =
  let v = Extmem.Vec.create () in
  check Alcotest.bool "empty" true (Extmem.Vec.is_empty v);
  for i = 0 to 99 do
    Extmem.Vec.push v i
  done;
  check Alcotest.int "length" 100 (Extmem.Vec.length v);
  check Alcotest.int "get 42" 42 (Extmem.Vec.get v 42);
  Extmem.Vec.set v 42 (-1);
  check Alcotest.int "set" (-1) (Extmem.Vec.get v 42);
  check Alcotest.int "top" 99 (Extmem.Vec.top v);
  check Alcotest.int "pop" 99 (Extmem.Vec.pop v);
  check Alcotest.int "length after pop" 99 (Extmem.Vec.length v);
  Extmem.Vec.truncate v 10;
  check Alcotest.int "truncate" 10 (Extmem.Vec.length v);
  Extmem.Vec.clear v;
  check Alcotest.bool "clear" true (Extmem.Vec.is_empty v)

let test_vec_bounds () =
  let v = Extmem.Vec.of_list [ 1; 2; 3 ] in
  Alcotest.check_raises "get oob" (Invalid_argument "Vec: index 3 out of bounds (length 3)")
    (fun () -> ignore (Extmem.Vec.get v 3));
  let empty = Extmem.Vec.create () in
  Alcotest.check_raises "pop empty" (Invalid_argument "Vec.pop: empty") (fun () ->
      ignore (Extmem.Vec.pop empty))

let test_vec_sort () =
  let v = Extmem.Vec.of_list [ 5; 1; 4; 2; 3 ] in
  Extmem.Vec.sort compare v;
  check (Alcotest.list Alcotest.int) "sorted" [ 1; 2; 3; 4; 5 ] (Extmem.Vec.to_list v)

let test_vec_iter () =
  let v = Extmem.Vec.of_list [ 10; 20; 30 ] in
  let sum = Extmem.Vec.fold_left ( + ) 0 v in
  check Alcotest.int "fold" 60 sum;
  let acc = ref [] in
  Extmem.Vec.iteri (fun i x -> acc := (i, x) :: !acc) v;
  check (Alcotest.list (Alcotest.pair Alcotest.int Alcotest.int)) "iteri"
    [ (2, 30); (1, 20); (0, 10) ] !acc;
  check (Alcotest.array Alcotest.int) "to_array" [| 10; 20; 30 |] (Extmem.Vec.to_array v)

let prop_vec_model =
  QCheck.Test.make ~name:"Vec behaves like a list under push/pop" ~count:300
    QCheck.(list (pair bool small_int))
    (fun ops ->
      let v = Extmem.Vec.create () in
      let model = ref [] in
      List.iter
        (fun (is_push, x) ->
          if is_push then begin
            Extmem.Vec.push v x;
            model := x :: !model
          end
          else
            match !model with
            | [] -> ()
            | m :: rest ->
                let got = Extmem.Vec.pop v in
                if got <> m then QCheck.Test.fail_reportf "pop: got %d want %d" got m;
                model := rest)
        ops;
      Extmem.Vec.to_list v = List.rev !model)

(* ------------------------------------------------------------------ *)
(* Deque *)

let test_deque_basic () =
  let d = Extmem.Deque.create () in
  Extmem.Deque.push_back d 1;
  Extmem.Deque.push_back d 2;
  Extmem.Deque.push_front d 0;
  check (Alcotest.list Alcotest.int) "order" [ 0; 1; 2 ] (Extmem.Deque.to_list d);
  check Alcotest.int "get" 1 (Extmem.Deque.get d 1);
  check Alcotest.int "peek_front" 0 (Extmem.Deque.peek_front d);
  check Alcotest.int "peek_back" 2 (Extmem.Deque.peek_back d);
  check Alcotest.int "pop_front" 0 (Extmem.Deque.pop_front d);
  check Alcotest.int "pop_back" 2 (Extmem.Deque.pop_back d);
  check Alcotest.int "length" 1 (Extmem.Deque.length d)

let test_deque_empty () =
  let d = Extmem.Deque.create () in
  Alcotest.check_raises "pop_front" (Invalid_argument "Deque.pop_front: empty") (fun () ->
      ignore (Extmem.Deque.pop_front d));
  Alcotest.check_raises "pop_back" (Invalid_argument "Deque.pop_back: empty") (fun () ->
      ignore (Extmem.Deque.pop_back d))

let prop_deque_model =
  (* operations: 0 = push_back, 1 = push_front, 2 = pop_back, 3 = pop_front *)
  QCheck.Test.make ~name:"Deque behaves like a list model" ~count:300
    QCheck.(list (pair (int_bound 3) small_int))
    (fun ops ->
      let d = Extmem.Deque.create () in
      let model = ref [] in
      List.iter
        (fun (op, x) ->
          match op with
          | 0 ->
              Extmem.Deque.push_back d x;
              model := !model @ [ x ]
          | 1 ->
              Extmem.Deque.push_front d x;
              model := x :: !model
          | 2 -> (
              match List.rev !model with
              | [] -> ()
              | last :: rest_rev ->
                  let got = Extmem.Deque.pop_back d in
                  if got <> last then QCheck.Test.fail_reportf "pop_back mismatch";
                  model := List.rev rest_rev)
          | _ -> (
              match !model with
              | [] -> ()
              | first :: rest ->
                  let got = Extmem.Deque.pop_front d in
                  if got <> first then QCheck.Test.fail_reportf "pop_front mismatch";
                  model := rest))
        ops;
      Extmem.Deque.to_list d = !model)

(* ------------------------------------------------------------------ *)
(* Codec *)

let test_codec_varint () =
  let round n =
    let b = Buffer.create 8 in
    Extmem.Codec.put_varint b n;
    let c = Extmem.Codec.cursor (Buffer.contents b) in
    let got = Extmem.Codec.get_varint c in
    check Alcotest.int (Printf.sprintf "varint %d" n) n got;
    check Alcotest.bool "consumed" true (Extmem.Codec.at_end c)
  in
  List.iter round [ 0; 1; 127; 128; 255; 300; 16384; 1_000_000; max_int / 4 ]

let test_codec_zigzag () =
  let round n =
    let b = Buffer.create 8 in
    Extmem.Codec.put_zigzag b n;
    let c = Extmem.Codec.cursor (Buffer.contents b) in
    check Alcotest.int (Printf.sprintf "zigzag %d" n) n (Extmem.Codec.get_zigzag c)
  in
  List.iter round [ 0; 1; -1; 63; -64; 1000; -1000; max_int / 4; -(max_int / 4) ]

let test_codec_string () =
  let b = Buffer.create 8 in
  Extmem.Codec.put_string b "hello";
  Extmem.Codec.put_string b "";
  Extmem.Codec.put_string b "world";
  let c = Extmem.Codec.cursor (Buffer.contents b) in
  check Alcotest.string "s1" "hello" (Extmem.Codec.get_string c);
  check Alcotest.string "s2" "" (Extmem.Codec.get_string c);
  check Alcotest.string "s3" "world" (Extmem.Codec.get_string c)

let test_codec_fixed () =
  let b = Buffer.create 16 in
  Extmem.Codec.put_u8 b 200;
  Extmem.Codec.put_u32 b 0xDEADBE;
  Extmem.Codec.put_f64 b 3.14159;
  let c = Extmem.Codec.cursor (Buffer.contents b) in
  check Alcotest.int "u8" 200 (Extmem.Codec.get_u8 c);
  check Alcotest.int "u32" 0xDEADBE (Extmem.Codec.get_u32 c);
  check (Alcotest.float 1e-12) "f64" 3.14159 (Extmem.Codec.get_f64 c)

let test_codec_u32_at () =
  let b = Bytes.make 8 'x' in
  Extmem.Codec.set_u32_at b 2 123456;
  check Alcotest.int "u32_at" 123456 (Extmem.Codec.get_u32_at (Bytes.to_string b) 2)

let test_codec_truncated () =
  let c = Extmem.Codec.cursor "\x85" in
  (* continuation bit set but no next byte *)
  (try
     ignore (Extmem.Codec.get_varint c);
     Alcotest.fail "expected Corrupt"
   with Extmem.Codec.Corrupt _ -> ());
  let c2 = Extmem.Codec.cursor "\x05ab" in
  (* length 5 but only 2 bytes *)
  try
    ignore (Extmem.Codec.get_string c2);
    Alcotest.fail "expected Corrupt"
  with Extmem.Codec.Corrupt _ -> ()

let test_codec_extremes () =
  (* varint at the top of the positive range: 9 continuation bytes *)
  let b = Buffer.create 16 in
  Extmem.Codec.put_varint b max_int;
  let c = Extmem.Codec.cursor (Buffer.contents b) in
  check Alcotest.int "varint max_int" max_int (Extmem.Codec.get_varint c);
  check Alcotest.bool "consumed" true (Extmem.Codec.at_end c);
  (* zigzag must cover the whole int range, both encode paths *)
  List.iter
    (fun n ->
      let b = Buffer.create 16 in
      Extmem.Codec.put_zigzag b n;
      let c = Extmem.Codec.cursor (Buffer.contents b) in
      check Alcotest.int (Printf.sprintf "zigzag %d (buffer)" n) n (Extmem.Codec.get_zigzag c);
      let e = Extmem.Codec.Enc.create ~capacity:4 () in
      Extmem.Codec.Enc.add_zigzag e n;
      let c2 = Extmem.Codec.cursor (Extmem.Codec.Enc.contents e) in
      check Alcotest.int (Printf.sprintf "zigzag %d (enc)" n) n (Extmem.Codec.get_zigzag c2))
    [ min_int; min_int + 1; -1; 0; 1; max_int - 1; max_int ]

let test_codec_string_extremes () =
  (* empty, and one large enough to need a multi-byte length varint;
     forces several Enc doublings from a tiny initial capacity *)
  let huge = String.init 300_000 (fun i -> Char.chr (i land 0xff)) in
  let e = Extmem.Codec.Enc.create ~capacity:1 () in
  Extmem.Codec.Enc.add_string e "";
  Extmem.Codec.Enc.add_string e huge;
  Extmem.Codec.Enc.add_substring e huge 17 1000;
  let s = Extmem.Codec.Enc.contents e in
  let c = Extmem.Codec.cursor s in
  check Alcotest.string "empty" "" (Extmem.Codec.get_string c);
  check Alcotest.bool "huge" true (String.equal huge (Extmem.Codec.get_string c));
  let off, len = Extmem.Codec.get_string_slice c in
  check Alcotest.int "sub len" 1000 len;
  check Alcotest.bool "sub bytes" true (String.sub s off len = String.sub huge 17 1000);
  check Alcotest.bool "consumed" true (Extmem.Codec.at_end c)

let test_codec_u32_wraparound () =
  (* u32 stores the low 32 bits; values past 2^32 wrap on every path *)
  let cases = [ (0xFFFFFFFF, 0xFFFFFFFF); (1 lsl 32, 0); ((1 lsl 32) + 42, 42); (-1, 0xFFFFFFFF) ] in
  List.iter
    (fun (v, want) ->
      let b = Buffer.create 4 in
      Extmem.Codec.put_u32 b v;
      let c = Extmem.Codec.cursor (Buffer.contents b) in
      check Alcotest.int (Printf.sprintf "u32 %d (buffer)" v) want (Extmem.Codec.get_u32 c);
      let e = Extmem.Codec.Enc.create ~capacity:4 () in
      Extmem.Codec.Enc.add_u32 e v;
      let c2 = Extmem.Codec.cursor (Extmem.Codec.Enc.contents e) in
      check Alcotest.int (Printf.sprintf "u32 %d (enc)" v) want (Extmem.Codec.get_u32 c2);
      let raw = Bytes.create 4 in
      Extmem.Codec.set_u32_at raw 0 v;
      check Alcotest.int
        (Printf.sprintf "u32 %d (at)" v)
        want
        (Extmem.Codec.get_u32_at (Bytes.to_string raw) 0))
    cases

let prop_codec_enc_matches_buffer =
  QCheck.Test.make ~name:"Codec.Enc emits the same bytes as the Buffer appenders" ~count:300
    QCheck.(list (triple int small_nat (string_of_size Gen.small_nat)))
    (fun items ->
      let b = Buffer.create 64 in
      let e = Extmem.Codec.Enc.create ~capacity:1 () in
      List.iter
        (fun (z, n, s) ->
          Extmem.Codec.put_zigzag b z;
          Extmem.Codec.put_varint b n;
          Extmem.Codec.put_string b s;
          Extmem.Codec.put_u32 b n;
          Extmem.Codec.Enc.add_zigzag e z;
          Extmem.Codec.Enc.add_varint e n;
          Extmem.Codec.Enc.add_string e s;
          Extmem.Codec.Enc.add_u32 e n)
        items;
      String.equal (Buffer.contents b) (Extmem.Codec.Enc.contents e))

let prop_codec_slice_decode =
  QCheck.Test.make ~name:"Codec slice decode agrees with string decode" ~count:300
    QCheck.(list (string_of_size Gen.small_nat))
    (fun strings ->
      let e = Extmem.Codec.Enc.create ~capacity:8 () in
      List.iter (Extmem.Codec.Enc.add_string e) strings;
      let frame = Extmem.Codec.Enc.contents e in
      let c1 = Extmem.Codec.cursor frame in
      let c2 = Extmem.Codec.cursor frame in
      let c3 = Extmem.Codec.cursor frame in
      List.for_all
        (fun _ ->
          let s = Extmem.Codec.get_string c1 in
          let off, len = Extmem.Codec.get_string_slice c2 in
          Extmem.Codec.skip_string c3;
          String.equal s (String.sub frame off len)
          && Extmem.Codec.compare_sub frame off len s 0 (String.length s) = 0
          && c1.Extmem.Codec.pos = c2.Extmem.Codec.pos
          && c1.Extmem.Codec.pos = c3.Extmem.Codec.pos)
        strings
      && Extmem.Codec.at_end c1)

let prop_codec_roundtrip =
  QCheck.Test.make ~name:"Codec round-trips mixed records" ~count:300
    QCheck.(list (pair small_nat (string_of_size Gen.small_nat)))
    (fun items ->
      let b = Buffer.create 64 in
      List.iter
        (fun (n, s) ->
          Extmem.Codec.put_varint b n;
          Extmem.Codec.put_string b s)
        items;
      let c = Extmem.Codec.cursor (Buffer.contents b) in
      let got =
        List.map
          (fun _ ->
            let n = Extmem.Codec.get_varint c in
            let s = Extmem.Codec.get_string c in
            (n, s))
          items
      in
      got = items && Extmem.Codec.at_end c)

(* ------------------------------------------------------------------ *)
(* Device *)

let test_device_mem_roundtrip () =
  let d = Extmem.Device.in_memory ~block_size:16 () in
  let first = Extmem.Device.allocate d 3 in
  check Alcotest.int "first block" 0 first;
  check Alcotest.int "count" 3 (Extmem.Device.block_count d);
  let b = Bytes.make 16 'a' in
  Extmem.Device.write_block d 1 b;
  let r = Bytes.make 16 '?' in
  Extmem.Device.read_block d 1 r;
  check Alcotest.string "data" (String.make 16 'a') (Bytes.to_string r);
  (* unwritten block reads zeroes *)
  Extmem.Device.read_block d 2 r;
  check Alcotest.string "zeroes" (String.make 16 '\000') (Bytes.to_string r)

let test_device_counts_io () =
  let d = Extmem.Device.in_memory ~block_size:8 () in
  ignore (Extmem.Device.allocate d 2);
  let b = Bytes.make 8 'x' in
  Extmem.Device.write_block d 0 b;
  Extmem.Device.write_block d 1 b;
  Extmem.Device.read_block d 0 b;
  let s = Extmem.Device.stats d in
  check Alcotest.int "writes" 2 s.Extmem.Io_stats.writes;
  check Alcotest.int "reads" 1 s.Extmem.Io_stats.reads;
  check Alcotest.int "total" 3 (Extmem.Io_stats.total s)

let test_device_bounds () =
  let d = Extmem.Device.in_memory ~block_size:8 () in
  let b = Bytes.make 8 ' ' in
  (try
     Extmem.Device.read_block d 0 b;
     Alcotest.fail "expected out of range"
   with Invalid_argument _ -> ());
  (* write one past the end auto-allocates *)
  Extmem.Device.write_block d 0 b;
  check Alcotest.int "auto-alloc" 1 (Extmem.Device.block_count d)

let test_device_of_string () =
  let d = Extmem.Device.of_string ~block_size:4 "hello world" in
  check Alcotest.int "byte_length" 11 (Extmem.Device.byte_length d);
  check Alcotest.int "blocks" 3 (Extmem.Device.block_count d);
  check Alcotest.string "contents" "hello world" (Extmem.Device.contents d);
  check Alcotest.int "no io counted" 0 (Extmem.Io_stats.total (Extmem.Device.stats d))

let test_device_file () =
  let path = Filename.temp_file "nexsort_test" ".dev" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      let d = Extmem.Device.file ~block_size:8 ~path () in
      ignore (Extmem.Device.allocate d 2);
      let b = Bytes.of_string "abcdefgh" in
      Extmem.Device.write_block d 1 b;
      let r = Bytes.make 8 '?' in
      Extmem.Device.read_block d 1 r;
      check Alcotest.string "file round trip" "abcdefgh" (Bytes.to_string r);
      (* block 0 was never written: sparse read gives zeroes *)
      Extmem.Device.read_block d 0 r;
      check Alcotest.string "sparse zero" (String.make 8 '\000') (Bytes.to_string r);
      Extmem.Device.set_byte_length d 12;
      check Alcotest.int "contents len" 12 (String.length (Extmem.Device.contents d));
      Extmem.Device.close d)

let test_device_fault_injection () =
  let d = Extmem.Device.in_memory ~block_size:8 () in
  ignore (Extmem.Device.allocate d 2);
  let b = Bytes.make 8 'x' in
  Extmem.Device.write_block d 0 b;
  let armed = ref true in
  Extmem.Device.push_layer d
    (Extmem.Layer.fault_hook (fun op i -> !armed && op = Extmem.Backend.Read && i = 0));
  (try
     Extmem.Device.read_block d 0 b;
     Alcotest.fail "expected Fault"
   with Extmem.Device.Fault (Extmem.Device.Read, 0) -> ());
  (* writes unaffected *)
  Extmem.Device.write_block d 1 b;
  armed := false;
  Extmem.Device.read_block d 0 b

let raises_invalid name f =
  match f () with
  | () -> Alcotest.failf "%s: expected Invalid_argument" name
  | exception Invalid_argument _ -> ()

(* A discarded in-memory block is dead; its buffer is reused, zeroed, by
   the next allocation. *)
let test_device_discard_mem () =
  let d = Extmem.Device.in_memory ~block_size:8 () in
  ignore (Extmem.Device.allocate d 3);
  let x = Bytes.make 8 'x' in
  Extmem.Device.write_block d 0 x;
  Extmem.Device.write_block d 1 x;
  check Alcotest.int "all live" 3 (Extmem.Device.live_blocks d);
  Extmem.Device.discard d 1;
  check Alcotest.int "one fewer live" 2 (Extmem.Device.live_blocks d);
  check Alcotest.int "peak kept" 3 (Extmem.Device.peak_live_blocks d);
  let b = Bytes.create 8 in
  raises_invalid "read of a discarded block" (fun () -> Extmem.Device.read_block d 1 b);
  raises_invalid "write of a discarded block" (fun () -> Extmem.Device.write_block d 1 x);
  raises_invalid "second discard" (fun () -> Extmem.Device.discard d 1);
  raises_invalid "discard out of range" (fun () -> Extmem.Device.discard d 3);
  raises_invalid "negative discard" (fun () -> Extmem.Device.discard d (-1));
  Extmem.Device.read_block d 0 b;
  check Alcotest.string "a live neighbour keeps its data" "xxxxxxxx" (Bytes.to_string b);
  (* the freed buffer held x's; the block it becomes reads as zeroes *)
  let i = Extmem.Device.allocate d 1 in
  Extmem.Device.read_block d i b;
  check Alcotest.string "reused buffer reads as zeroes" (String.make 8 '\000') (Bytes.to_string b);
  check Alcotest.int "live after reuse" 3 (Extmem.Device.live_blocks d);
  check Alcotest.int "peak unchanged" 3 (Extmem.Device.peak_live_blocks d);
  ignore (Extmem.Device.allocate d 1);
  check Alcotest.int "peak grows past it" 4 (Extmem.Device.peak_live_blocks d)

(* A discard is not an I/O: no count, no subscriber, no fault. *)
let test_device_discard_not_io () =
  let d = Extmem.Device.in_memory ~block_size:8 () in
  ignore (Extmem.Device.allocate d 2);
  Extmem.Device.write_block d 0 (Bytes.make 8 'a');
  let seen = ref 0 in
  ignore (Extmem.Device.subscribe d (fun _ _ ~start_ns:_ ~dur_ns:_ -> incr seen));
  Extmem.Device.push_layer d (Extmem.Layer.faulty ~p:1. ());
  let before = Extmem.Io_stats.snapshot (Extmem.Device.stats d) in
  Extmem.Device.discard d 0;
  Extmem.Device.discard d 1;
  check Alcotest.int "no I/O counted" 0
    (Extmem.Io_stats.total
       (Extmem.Io_stats.diff (Extmem.Io_stats.snapshot (Extmem.Device.stats d)) before));
  check Alcotest.int "no subscriber told" 0 !seen;
  check Alcotest.int "both discarded under faulty:p=1" 0 (Extmem.Device.live_blocks d);
  (* the fault layer still fails real I/O *)
  match Extmem.Device.read_block d 0 (Bytes.create 8) with
  | () -> Alcotest.fail "expected a fault"
  | exception Extmem.Device.Fault _ -> ()

(* On a file, a discard keeps the block: only the live count moves. *)
let test_device_discard_file () =
  let path = Filename.temp_file "nexsort_test" ".dev" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      let d = Extmem.Device.file ~block_size:8 ~path () in
      Extmem.Device.write_block d 0 (Bytes.of_string "abcdefgh");
      Extmem.Device.discard d 0;
      check Alcotest.int "not live" 0 (Extmem.Device.live_blocks d);
      let b = Bytes.create 8 in
      Extmem.Device.read_block d 0 b;
      check Alcotest.string "contents kept" "abcdefgh" (Bytes.to_string b);
      check Alcotest.int "file size kept" 8 (Unix.stat path).Unix.st_size;
      Extmem.Device.close d)

(* A clear empties the device (a file shrinks to nothing) and starts
   allocation over at block 0; the counters and the peak go on. *)
let test_device_clear () =
  let path = Filename.temp_file "nexsort_test" ".dev" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      let file = Extmem.Device.file ~block_size:8 ~path () in
      List.iter
        (fun d ->
          ignore (Extmem.Device.allocate d 3);
          for i = 0 to 2 do
            Extmem.Device.write_block d i (Bytes.of_string "abcdefgh")
          done;
          Extmem.Device.discard d 0;
          Extmem.Device.clear d;
          check Alcotest.int "no blocks" 0 (Extmem.Device.block_count d);
          check Alcotest.int "none live" 0 (Extmem.Device.live_blocks d);
          check Alcotest.int "no bytes" 0 (Extmem.Device.byte_length d);
          check Alcotest.int "peak kept" 3 (Extmem.Device.peak_live_blocks d);
          check Alcotest.int "writes kept" 3 (Extmem.Device.stats d).Extmem.Io_stats.writes;
          check Alcotest.int "starts over" 0 (Extmem.Device.allocate d 1);
          let b = Bytes.create 8 in
          Extmem.Device.read_block d 0 b;
          check Alcotest.string "reads as zeroes" (String.make 8 '\000') (Bytes.to_string b))
        [ Extmem.Device.in_memory ~block_size:8 (); file ];
      check Alcotest.int "file truncated" 0 (Unix.stat path).Unix.st_size;
      Extmem.Device.close file)

(* ------------------------------------------------------------------ *)
(* Block_writer / Block_reader *)

let test_stream_roundtrip () =
  let d = Extmem.Device.in_memory ~block_size:10 () in
  let w = Extmem.Block_writer.create d in
  Extmem.Block_writer.write_string w "hello, ";
  Extmem.Block_writer.write_string w "block world!";
  Extmem.Block_writer.write_char w '!';
  let e = Extmem.Block_writer.close w in
  check Alcotest.int "bytes" 20 e.Extmem.Extent.bytes;
  check Alcotest.int "blocks" 2 e.Extmem.Extent.blocks;
  let r = Extmem.Block_reader.of_extent d e in
  let buf = Bytes.create 20 in
  let n = Extmem.Block_reader.read_bytes r buf 0 20 in
  check Alcotest.int "read n" 20 n;
  check Alcotest.string "payload" "hello, block world!!" (Bytes.to_string buf);
  check Alcotest.bool "at_end" true (Extmem.Block_reader.at_end r)

let test_stream_io_counts () =
  let bs = 16 in
  let d = Extmem.Device.in_memory ~block_size:bs () in
  let w = Extmem.Block_writer.create d in
  let payload = String.make 100 'z' in
  Extmem.Block_writer.write_string w payload;
  ignore (Extmem.Block_writer.close w);
  let expected_blocks = (100 + bs - 1) / bs in
  check Alcotest.int "writes = ceil(n/B)" expected_blocks
    (Extmem.Device.stats d).Extmem.Io_stats.writes;
  let before = Extmem.Io_stats.snapshot (Extmem.Device.stats d) in
  let r = Extmem.Block_reader.of_device d in
  let span = Bytes.create bs in
  let rec drain () = if Extmem.Block_reader.read_span r span 0 bs > 0 then drain () in
  drain ();
  let delta = Extmem.Io_stats.diff (Extmem.Io_stats.snapshot (Extmem.Device.stats d)) before in
  check Alcotest.int "reads = ceil(n/B)" expected_blocks delta.Extmem.Io_stats.reads

let test_stream_records () =
  let d = Extmem.Device.in_memory ~block_size:7 () in
  let w = Extmem.Block_writer.create d in
  let records = [ "alpha"; ""; "a much longer record spanning blocks"; "z" ] in
  List.iter (Extmem.Block_writer.write_record w) records;
  let e = Extmem.Block_writer.close w in
  let r = Extmem.Block_reader.of_extent d e in
  let got = ref [] in
  let rec loop () =
    match Extmem.Block_reader.read_record r with
    | Some s ->
        got := s :: !got;
        loop ()
    | None -> ()
  in
  loop ();
  check (Alcotest.list Alcotest.string) "records" records (List.rev !got)

let test_stream_seek () =
  let d = Extmem.Device.in_memory ~block_size:8 () in
  let w = Extmem.Block_writer.create d in
  Extmem.Block_writer.write_string w "0123456789abcdefghij";
  let e = Extmem.Block_writer.close w in
  let r = Extmem.Block_reader.of_extent d e in
  (* a span runs from the position to the end of its block *)
  let span ?(len = 8) () =
    let buf = Bytes.create 8 in
    Bytes.sub_string buf 0 (Extmem.Block_reader.read_span r buf 0 len)
  in
  Extmem.Block_reader.seek r 10;
  check Alcotest.string "seek 10" "abcdef" (span ());
  check Alcotest.string "next block" "ghij" (span ());
  Extmem.Block_reader.seek r 0;
  check Alcotest.string "seek 0, three bytes" "012" (span ~len:3 ());
  check Alcotest.string "rest of the block" "34567" (span ());
  Extmem.Block_reader.seek r 20;
  check Alcotest.string "seek end" "" (span ())

let prop_stream_roundtrip =
  QCheck.Test.make ~name:"Block stream round-trips arbitrary records" ~count:200
    QCheck.(pair (int_range 4 64) (list (string_of_size Gen.small_nat)))
    (fun (bs, records) ->
      let d = Extmem.Device.in_memory ~block_size:bs () in
      let w = Extmem.Block_writer.create d in
      List.iter (Extmem.Block_writer.write_record w) records;
      let e = Extmem.Block_writer.close w in
      let r = Extmem.Block_reader.of_extent d e in
      let rec loop acc =
        match Extmem.Block_reader.read_record r with
        | Some s -> loop (s :: acc)
        | None -> List.rev acc
      in
      loop [] = records)

(* ------------------------------------------------------------------ *)
(* Run_store *)

let test_run_store () =
  let d = Extmem.Device.in_memory ~block_size:8 () in
  let rs = Extmem.Run_store.create d in
  let w = Extmem.Run_store.begin_run rs in
  Extmem.Block_writer.write_string w "first run";
  let id0 = Extmem.Run_store.finish_run rs w in
  let w = Extmem.Run_store.begin_run rs in
  Extmem.Block_writer.write_string w "second";
  let id1 = Extmem.Run_store.finish_run rs w in
  check Alcotest.int "ids dense" 1 id1;
  check Alcotest.int "count" 2 (Extmem.Run_store.run_count rs);
  let read id =
    let r = Extmem.Run_store.open_run rs id in
    let n = Extmem.Block_reader.length r in
    let b = Bytes.create n in
    ignore (Extmem.Block_reader.read_bytes r b 0 n);
    Bytes.to_string b
  in
  check Alcotest.string "run 0" "first run" (read id0);
  check Alcotest.string "run 1" "second" (read id1);
  check Alcotest.int "total blocks" 3 (Extmem.Run_store.total_run_blocks rs)

(* A run reader frees each block as it leaves it, the last one at the
   end of the run; a second reading finds the run gone. *)
let test_run_store_consumes () =
  let d = Extmem.Device.in_memory ~block_size:8 () in
  let rs = Extmem.Run_store.create d in
  let w = Extmem.Run_store.begin_run rs in
  List.iter (Extmem.Block_writer.write_record w) [ "abcdefg"; "hi"; "jklmnopqrs"; "t" ];
  let id = Extmem.Run_store.finish_run rs w in
  (* 8 + 3 + 11 + 2 = 24 framed bytes: exactly three blocks *)
  check Alcotest.int "three blocks live" 3 (Extmem.Device.live_blocks d);
  let pull = Extmem.Run_store.read_run rs id in
  let next () = Option.get (pull ()) in
  check Alcotest.string "first record" "abcdefg" (next ());
  check Alcotest.int "its block ends with it: freed" 2 (Extmem.Device.live_blocks d);
  check Alcotest.string "second record" "hi" (next ());
  check Alcotest.int "block 1 still being read" 2 (Extmem.Device.live_blocks d);
  check Alcotest.string "third record" "jklmnopqrs" (next ());
  check Alcotest.int "block 1 left" 1 (Extmem.Device.live_blocks d);
  check Alcotest.string "last record" "t" (next ());
  check Alcotest.int "the run's end frees its last block" 0 (Extmem.Device.live_blocks d);
  check (Alcotest.option Alcotest.string) "exhausted" None (pull ());
  raises_invalid "a second reading" (fun () -> ignore (Extmem.Run_store.read_run rs id ()))

(* The output phase gives a reader up at a run pointer and later opens a
   new one at its offset.  Either way every block is freed exactly once:
   given up inside a block, the new reader re-reads that block and frees
   it; given up exactly at a block boundary, the finished block is
   already free and the new reader starts on the next one. *)
let test_run_store_resume_at_offset () =
  let records = List.init 12 (fun i -> String.make (3 + (i mod 5)) (Char.chr (97 + i))) in
  let framed = List.fold_left (fun acc r -> acc + 1 + String.length r) 0 records in
  let at_boundary = ref 0 in
  for stop = 0 to List.length records do
    let d = Extmem.Device.in_memory ~block_size:8 () in
    let rs = Extmem.Run_store.create d in
    let w = Extmem.Run_store.begin_run rs in
    List.iter (Extmem.Block_writer.write_record w) records;
    let id = Extmem.Run_store.finish_run rs w in
    let r = Extmem.Run_store.open_run rs id in
    let got = ref [] in
    for _ = 1 to stop do
      got := Option.get (Extmem.Block_reader.read_record r) :: !got
    done;
    let off = Extmem.Block_reader.position r in
    if off > 0 && off < framed && off mod 8 = 0 then incr at_boundary;
    let r' = Extmem.Run_store.open_run rs id in
    Extmem.Block_reader.seek r' off;
    let rec rest () =
      match Extmem.Block_reader.read_record r' with
      | Some s ->
          got := s :: !got;
          rest ()
      | None -> ()
    in
    rest ();
    let name = Printf.sprintf "given up after %d records (offset %d)" stop off in
    check (Alcotest.list Alcotest.string) name records (List.rev !got);
    check Alcotest.int (name ^ ": nothing left live") 0 (Extmem.Device.live_blocks d)
  done;
  check Alcotest.bool "some reader was given up at a block boundary" true (!at_boundary > 0)

let test_run_store_exclusive () =
  let d = Extmem.Device.in_memory ~block_size:8 () in
  let rs = Extmem.Run_store.create d in
  let _w = Extmem.Run_store.begin_run rs in
  try
    ignore (Extmem.Run_store.begin_run rs);
    Alcotest.fail "expected exclusivity error"
  with Invalid_argument _ -> ()

let test_run_store_read_run () =
  let d = Extmem.Device.in_memory ~block_size:16 () in
  let rs = Extmem.Run_store.create d in
  let w = Extmem.Run_store.begin_run rs in
  List.iter (Extmem.Block_writer.write_record w) [ "alpha"; "beta"; "gamma" ];
  let id = Extmem.Run_store.finish_run rs w in
  let pull = Extmem.Run_store.read_run rs id in
  let rec all acc = match pull () with None -> List.rev acc | Some r -> all (r :: acc) in
  check (Alcotest.list Alcotest.string) "streamed records" [ "alpha"; "beta"; "gamma" ] (all []);
  check (Alcotest.option Alcotest.string) "exhausted stays exhausted" None (pull ())

(* ------------------------------------------------------------------ *)
(* Ext_stack *)

(* The blocks an elastic window holds above its grant of [w]: the
   ledger counts the whole window under its one owner. *)
let elastic_blocks budget ~w = Extmem.Memory_budget.held budget "test window" - w

let test_ext_stack_borrow_window () =
  (* with a budgeted arena to grow over, a 1-block elastic window grows
     instead of paging; resizing it to its grant returns every extra
     block and forces the spill *)
  let d = Extmem.Device.in_memory ~block_size:16 () in
  let budget = Extmem.Memory_budget.create ~blocks:8 ~block_size:16 in
  let arena = Extmem.Frame_arena.create ~budget () in
  let st = Extmem.Ext_stack.create ~name:"test" ~resident_blocks:1 ~arena ~elastic:true d in
  for i = 0 to 99 do
    Extmem.Ext_stack.push st (Printf.sprintf "entry-%03d" i)
  done;
  check Alcotest.bool "grew over the budget" true (elastic_blocks budget ~w:1 > 0);
  check Alcotest.int "the window is the budget's one holder"
    (Extmem.Memory_budget.used_blocks budget)
    (Extmem.Memory_budget.held budget "test window");
  let writes_before = (Extmem.Ext_stack.io_stats st).Extmem.Io_stats.writes in
  Extmem.Ext_stack.resize st 1;
  check Alcotest.int "only the grant remains charged" 1
    (Extmem.Memory_budget.used_blocks budget);
  check Alcotest.bool "resizing spills the surplus" true
    ((Extmem.Ext_stack.io_stats st).Extmem.Io_stats.writes > writes_before);
  (* contents survive the resize *)
  for i = 99 downto 0 do
    check Alcotest.string "pop order" (Printf.sprintf "entry-%03d" i) (Extmem.Ext_stack.pop st)
  done

let test_ext_stack_resize_to_zero () =
  (* a window granted 0 blocks writes its dirty blocks back and gives
     every block (grant and elastic) to the budget; a push on it is
     asserted; growing it back re-leases the grant and the blocks page
     back in one at a time as pops reach them *)
  let d = Extmem.Device.in_memory ~block_size:16 () in
  let budget = Extmem.Memory_budget.create ~blocks:8 ~block_size:16 in
  let arena = Extmem.Frame_arena.create ~budget () in
  let st = Extmem.Ext_stack.create ~name:"test" ~resident_blocks:2 ~arena ~elastic:true d in
  for i = 0 to 99 do
    Extmem.Ext_stack.push st (Printf.sprintf "entry-%03d" i)
  done;
  check Alcotest.bool "grown before the resize" true (elastic_blocks budget ~w:2 > 0);
  let resident = Extmem.Ext_stack.resident_blocks st in
  let writes = Extmem.Ext_stack.writebacks st in
  Extmem.Ext_stack.resize st 0;
  check Alcotest.int "every dirty resident block written back" (writes + resident)
    (Extmem.Ext_stack.writebacks st);
  check Alcotest.int "nothing charged at 0 blocks" 0 (Extmem.Memory_budget.used_blocks budget);
  check Alcotest.int "window empty" 0 (Extmem.Ext_stack.resident_blocks st);
  (match Extmem.Ext_stack.push st "x" with
  | () -> Alcotest.fail "push onto a 0-block window"
  | exception Assert_failure _ -> ());
  let page_ins = Extmem.Ext_stack.page_ins st in
  Extmem.Ext_stack.resize st 2;
  check Alcotest.int "growing re-leases the grant" 2 (Extmem.Memory_budget.used_blocks budget);
  check Alcotest.int "growing reads nothing" page_ins (Extmem.Ext_stack.page_ins st);
  (* the top entry's bytes [len - size, len) span these blocks *)
  let len = Extmem.Ext_stack.length st in
  let top_blocks = ((len - 1) / 16) - ((len - Extmem.Ext_stack.framed_size "entry-099") / 16) + 1 in
  ignore (Extmem.Ext_stack.pop st);
  check Alcotest.int "the first pop pages in only the top entry's blocks" (page_ins + top_blocks)
    (Extmem.Ext_stack.page_ins st);
  for i = 98 downto 0 do
    check Alcotest.string "pop order" (Printf.sprintf "entry-%03d" i) (Extmem.Ext_stack.pop st)
  done

let test_ext_stack_elastic_blocks_wait_for_resize () =
  (* a window keeps the blocks it grew over while the stack shrinks
     between the plan's boundaries; only a resize gives them back *)
  let d = Extmem.Device.in_memory ~block_size:16 () in
  let budget = Extmem.Memory_budget.create ~blocks:8 ~block_size:16 in
  let arena = Extmem.Frame_arena.create ~budget () in
  let st = Extmem.Ext_stack.create ~name:"test" ~resident_blocks:1 ~arena ~elastic:true d in
  for i = 0 to 99 do
    Extmem.Ext_stack.push st (Printf.sprintf "entry-%03d" i)
  done;
  let grown = elastic_blocks budget ~w:1 in
  check Alcotest.bool "grown" true (grown > 0);
  Extmem.Ext_stack.truncate_to st 0;
  check Alcotest.int "truncate keeps the blocks" grown (elastic_blocks budget ~w:1);
  Extmem.Ext_stack.resize st 1;
  check Alcotest.int "resize gives them back" 1 (Extmem.Memory_budget.used_blocks budget)

let test_ext_stack_borrow_stops_at_exhaustion () =
  (* an exhausted budget must never raise out of push: the window just
     pages as if it were not elastic *)
  let d = Extmem.Device.in_memory ~block_size:16 () in
  let budget = Extmem.Memory_budget.create ~blocks:3 ~block_size:16 in
  Extmem.Memory_budget.reserve budget ~who:"someone else" 2;
  let arena = Extmem.Frame_arena.create ~budget () in
  let st = Extmem.Ext_stack.create ~name:"test" ~resident_blocks:1 ~arena ~elastic:true d in
  for i = 0 to 99 do
    Extmem.Ext_stack.push st (Printf.sprintf "entry-%03d" i)
  done;
  check Alcotest.int "nothing grown" 0 (elastic_blocks budget ~w:1);
  check Alcotest.bool "paged instead" true
    ((Extmem.Ext_stack.io_stats st).Extmem.Io_stats.writes > 0)

let test_ext_stack_resize_dirty_ledger () =
  (* resizing a dirty elastic window to its grant writes the surplus back
     exactly once per extra block and leaves the ledger at the grant *)
  let d = Extmem.Device.in_memory ~block_size:16 () in
  let budget = Extmem.Memory_budget.create ~blocks:8 ~block_size:16 in
  let arena = Extmem.Frame_arena.create ~budget () in
  let st = Extmem.Ext_stack.create ~name:"test" ~resident_blocks:1 ~arena ~elastic:true d in
  for i = 0 to 99 do
    Extmem.Ext_stack.push st (Printf.sprintf "entry-%03d" i)
  done;
  let extra = elastic_blocks budget ~w:1 in
  check Alcotest.bool "window is dirty and grown" true (extra > 0);
  check (Alcotest.list (Alcotest.pair Alcotest.string Alcotest.int)) "one lease in the ledger"
    [ ("test window", 1 + extra) ]
    (Extmem.Memory_budget.holders budget);
  let writes_before = Extmem.Ext_stack.writebacks st in
  Extmem.Ext_stack.resize st 1;
  (* every extra block was below the new window top, so each is spilled
     exactly once; the resident top block stays in memory *)
  check Alcotest.int "one writeback per extra block" (writes_before + extra)
    (Extmem.Ext_stack.writebacks st);
  check (Alcotest.list (Alcotest.pair Alcotest.string Alcotest.int)) "only the grant remains"
    [ ("test window", 1) ]
    (Extmem.Memory_budget.holders budget);
  for i = 99 downto 0 do
    check Alcotest.string "data survives" (Printf.sprintf "entry-%03d" i)
      (Extmem.Ext_stack.pop st)
  done

let test_ext_stack_resize_to_grant_is_free () =
  (* resizing a window that holds nothing above its grant (a reclaim
     with nothing to take back) must be free: no I/O, no ledger
     movement *)
  let d = Extmem.Device.in_memory ~block_size:16 () in
  let budget = Extmem.Memory_budget.create ~blocks:8 ~block_size:16 in
  let arena = Extmem.Frame_arena.create ~budget () in
  let st = Extmem.Ext_stack.create ~name:"test" ~resident_blocks:1 ~arena ~elastic:true d in
  Extmem.Ext_stack.push st "one";
  let io = (Extmem.Ext_stack.io_stats st).Extmem.Io_stats.writes in
  Extmem.Ext_stack.resize st 1;
  check Alcotest.int "no io" io (Extmem.Ext_stack.io_stats st).Extmem.Io_stats.writes;
  check Alcotest.int "window still charged" 1 (Extmem.Memory_budget.used_blocks budget);
  check Alcotest.string "data intact" "one" (Extmem.Ext_stack.pop st)

let test_ext_stack_borrow_recovers_after_release () =
  (* zero idle frames: growth is denied and the stack pages; once the
     other holder releases, the very next overflow grows again *)
  let d = Extmem.Device.in_memory ~block_size:16 () in
  let budget = Extmem.Memory_budget.create ~blocks:6 ~block_size:16 in
  Extmem.Memory_budget.reserve budget ~who:"other" 5;
  let arena = Extmem.Frame_arena.create ~budget () in
  let st = Extmem.Ext_stack.create ~name:"test" ~resident_blocks:1 ~arena ~elastic:true d in
  for i = 0 to 49 do
    Extmem.Ext_stack.push st (Printf.sprintf "entry-%03d" i)
  done;
  check Alcotest.int "nothing grown under pressure" 0 (elastic_blocks budget ~w:1);
  check Alcotest.bool "paged instead" true
    ((Extmem.Ext_stack.io_stats st).Extmem.Io_stats.writes > 0);
  Extmem.Memory_budget.release budget ~who:"other" 5;
  for i = 50 to 99 do
    Extmem.Ext_stack.push st (Printf.sprintf "entry-%03d" i)
  done;
  check Alcotest.bool "growth resumes" true (elastic_blocks budget ~w:1 > 0);
  for i = 99 downto 0 do
    check Alcotest.string "pop order" (Printf.sprintf "entry-%03d" i) (Extmem.Ext_stack.pop st)
  done

let test_ext_stack_close_releases_budget () =
  (* close ends the session: every frame (granted and elastic, dirty or
     not) goes back without any flush I/O, and close is idempotent *)
  let d = Extmem.Device.in_memory ~block_size:16 () in
  let budget = Extmem.Memory_budget.create ~blocks:8 ~block_size:16 in
  let arena = Extmem.Frame_arena.create ~budget () in
  let st = Extmem.Ext_stack.create ~name:"test" ~resident_blocks:1 ~arena ~elastic:true d in
  for i = 0 to 99 do
    Extmem.Ext_stack.push st (Printf.sprintf "entry-%03d" i)
  done;
  check Alcotest.bool "holding several blocks" true
    (Extmem.Memory_budget.used_blocks budget > 1);
  let writes = (Extmem.Ext_stack.io_stats st).Extmem.Io_stats.writes in
  Extmem.Ext_stack.close st;
  check Alcotest.int "budget fully restored" 0 (Extmem.Memory_budget.used_blocks budget);
  check Alcotest.int "close costs no io" writes
    (Extmem.Ext_stack.io_stats st).Extmem.Io_stats.writes;
  Extmem.Ext_stack.close st;
  check Alcotest.int "idempotent" 0 (Extmem.Memory_budget.used_blocks budget)

let test_ext_stack_borrow_across_session_reclaim () =
  (* the data stack of a real session grows over idle budget; the plan's
     reclaim takes it all back without losing data, and destroy empties
     the ledger and is idempotent *)
  let config = Nexsort.Config.make ~block_size:512 ~memory_blocks:64 () in
  Engine.with_session config @@ fun session ->
  let budget = session.Nexsort.Session.budget in
  let plan = session.Nexsort.Session.plan in
  let baseline = Extmem.Memory_budget.used_blocks budget in
  let window () = Extmem.Memory_budget.held budget "data stack window" in
  let grant = window () in
  check Alcotest.int "the window holds the scan phase's grant"
    (Nexsort.Plan.granted (Nexsort.Plan.scan ~memory_blocks:64 ~path_blocks:2
       ~data_blocks:config.Nexsort.Config.data_stack_blocks) "data stack window")
    grant;
  Nexsort.Plan.reclaim plan;
  check Alcotest.int "reclaim with nothing grown is a no-op" baseline
    (Extmem.Memory_budget.used_blocks budget);
  let st = session.Nexsort.Session.data_stack in
  for i = 0 to 199 do
    Extmem.Ext_stack.push st (Printf.sprintf "payload-%04d-%s" i (String.make 48 'x'))
  done;
  check Alcotest.bool "data stack grew over idle budget" true (window () > grant);
  Nexsort.Plan.reclaim plan;
  check Alcotest.int "reclaim returns every extra block" grant (window ());
  check Alcotest.int "ledger back to baseline" baseline
    (Extmem.Memory_budget.used_blocks budget);
  for i = 199 downto 0 do
    check Alcotest.string "data survives the reclaim"
      (Printf.sprintf "payload-%04d-%s" i (String.make 48 'x'))
      (Extmem.Ext_stack.pop st)
  done;
  Nexsort.Session.destroy session;
  check Alcotest.int "destroy empties the ledger" 0 (Extmem.Memory_budget.used_blocks budget);
  Nexsort.Session.destroy session;
  check Alcotest.int "destroy is idempotent" 0 (Extmem.Memory_budget.used_blocks budget)

let test_ext_stack_basic () =
  let d = Extmem.Device.in_memory ~block_size:16 () in
  let st = Extmem.Ext_stack.create d in
  check Alcotest.bool "empty" true (Extmem.Ext_stack.is_empty st);
  Extmem.Ext_stack.push st "one";
  Extmem.Ext_stack.push st "two";
  check Alcotest.string "top" "two" (Extmem.Ext_stack.top st);
  check Alcotest.string "pop two" "two" (Extmem.Ext_stack.pop st);
  check Alcotest.string "pop one" "one" (Extmem.Ext_stack.pop st);
  check Alcotest.bool "empty again" true (Extmem.Ext_stack.is_empty st)

(* The copy-free forms against the string forms: two stacks driven by
   the same pushes, pops and tops read the same payloads and do exactly
   the same block I/O, whether an entry sits in one block or spans
   several.  A push_bytes takes its payload from the middle of a larger
   buffer. *)
let prop_ext_stack_cursors =
  let op =
    QCheck.Gen.(
      frequency
        [
          (3, map (fun n -> `Push n) (int_bound 40));
          (2, return `Pop);
          (1, return `Top);
        ])
  in
  QCheck.Test.make ~name:"push_bytes / top_cursor / pop_cursor = push / top / pop" ~count:200
    (QCheck.make QCheck.Gen.(pair (int_range 1 3) (list_size (int_bound 120) op)))
    (fun (window, ops) ->
      let mk () = Extmem.Ext_stack.create ~resident_blocks:window (Extmem.Device.in_memory ~block_size:16 ()) in
      let a = mk () and b = mk () in
      let model = Stack.create () in
      let io st = Extmem.Io_stats.snapshot (Extmem.Ext_stack.io_stats st) in
      let read c n = String.sub c.Extmem.Codec.buf c.Extmem.Codec.pos n in
      List.iteri
        (fun i op ->
          (match op with
          | `Push n ->
              let payload = String.init n (fun j -> Char.chr (97 + ((i + j) mod 26))) in
              Stack.push payload model;
              Extmem.Ext_stack.push a payload;
              let buf = Bytes.of_string ("<<<" ^ payload ^ ">>") in
              Extmem.Ext_stack.push_bytes b buf 3 n
          | `Pop when not (Stack.is_empty model) ->
              let want = Stack.pop model in
              let got_a = Extmem.Ext_stack.pop a in
              let got_b = read (Extmem.Ext_stack.pop_cursor b) (String.length want) in
              if got_a <> want || got_b <> want then QCheck.Test.fail_reportf "pop %d: %S %S %S" i want got_a got_b
          | `Top when not (Stack.is_empty model) ->
              let want = Stack.top model in
              let got_a = Extmem.Ext_stack.top a in
              let got_b = read (Extmem.Ext_stack.top_cursor b) (String.length want) in
              if got_a <> want || got_b <> want then QCheck.Test.fail_reportf "top %d: %S %S %S" i want got_a got_b
          | `Pop | `Top -> ());
          let ia = io a and ib = io b in
          if ia.Extmem.Io_stats.reads <> ib.Extmem.Io_stats.reads
             || ia.Extmem.Io_stats.writes <> ib.Extmem.Io_stats.writes
          then QCheck.Test.fail_reportf "op %d: block I/O differs" i)
        ops;
      true)

let test_ext_stack_spills () =
  let d = Extmem.Device.in_memory ~block_size:16 () in
  let st = Extmem.Ext_stack.create ~resident_blocks:1 d in
  for i = 0 to 99 do
    Extmem.Ext_stack.push st (Printf.sprintf "entry-%03d" i)
  done;
  check Alcotest.bool "spilled to device" true
    ((Extmem.Ext_stack.io_stats st).Extmem.Io_stats.writes > 0);
  check Alcotest.int "window bounded" 1 (Extmem.Ext_stack.resident_blocks st);
  for i = 99 downto 0 do
    check Alcotest.string "pop order" (Printf.sprintf "entry-%03d" i) (Extmem.Ext_stack.pop st)
  done;
  check Alcotest.bool "reads happened" true
    ((Extmem.Ext_stack.io_stats st).Extmem.Io_stats.reads > 0)

let test_ext_stack_paging_counters () =
  let d = Extmem.Device.in_memory ~block_size:16 () in
  let st = Extmem.Ext_stack.create ~resident_blocks:1 d in
  let n = 100 in
  let entries = List.init n (fun i -> Printf.sprintf "entry-%03d" i) in
  let framed = List.fold_left (fun a e -> a + Extmem.Ext_stack.framed_size e) 0 entries in
  List.iter (Extmem.Ext_stack.push st) entries;
  check Alcotest.int "pushes" n (Extmem.Ext_stack.pushes st);
  check Alcotest.int "high water is the peak resident+spilled size" framed
    (Extmem.Ext_stack.high_water st);
  check Alcotest.bool "spilling counted as writebacks" true (Extmem.Ext_stack.writebacks st > 0);
  check Alcotest.int "no page-ins yet" 0 (Extmem.Ext_stack.page_ins st);
  for _ = 1 to n do
    ignore (Extmem.Ext_stack.pop st)
  done;
  check Alcotest.int "pops" n (Extmem.Ext_stack.pops st);
  check Alcotest.bool "popping pages spilled blocks back in" true
    (Extmem.Ext_stack.page_ins st > 0);
  (* the counters agree with the device-level I/O they describe *)
  check Alcotest.int "writebacks = device writes" (Extmem.Ext_stack.writebacks st)
    (Extmem.Ext_stack.io_stats st).Extmem.Io_stats.writes;
  check Alcotest.int "page_ins = device reads" (Extmem.Ext_stack.page_ins st)
    (Extmem.Ext_stack.io_stats st).Extmem.Io_stats.reads;
  check Alcotest.int "high water unchanged by pops" framed (Extmem.Ext_stack.high_water st)

let test_ext_stack_no_io_when_resident () =
  let d = Extmem.Device.in_memory ~block_size:4096 () in
  let st = Extmem.Ext_stack.create ~resident_blocks:1 d in
  for _ = 1 to 50 do
    Extmem.Ext_stack.push st "tiny"
  done;
  for _ = 1 to 50 do
    ignore (Extmem.Ext_stack.pop st)
  done;
  check Alcotest.int "all resident, no io" 0 (Extmem.Io_stats.total (Extmem.Ext_stack.io_stats st))

let test_ext_stack_large_entry () =
  let d = Extmem.Device.in_memory ~block_size:8 () in
  let st = Extmem.Ext_stack.create ~resident_blocks:2 d in
  let big = String.init 100 (fun i -> Char.chr (65 + (i mod 26))) in
  Extmem.Ext_stack.push st "small";
  Extmem.Ext_stack.push st big;
  Extmem.Ext_stack.push st "after";
  check Alcotest.string "after" "after" (Extmem.Ext_stack.pop st);
  check Alcotest.string "big" big (Extmem.Ext_stack.pop st);
  check Alcotest.string "small" "small" (Extmem.Ext_stack.pop st)

let test_ext_stack_scan_and_truncate () =
  let d = Extmem.Device.in_memory ~block_size:16 () in
  let st = Extmem.Ext_stack.create d in
  Extmem.Ext_stack.push st "keep-0";
  Extmem.Ext_stack.push st "keep-1";
  let mark = Extmem.Ext_stack.length st in
  Extmem.Ext_stack.push st "sub-a";
  Extmem.Ext_stack.push st "sub-b";
  Extmem.Ext_stack.push st "sub-c";
  let got = ref [] in
  Extmem.Ext_stack.iter_entries_from st ~pos:mark (fun e -> got := e :: !got);
  check (Alcotest.list Alcotest.string) "scan order" [ "sub-a"; "sub-b"; "sub-c" ] (List.rev !got);
  Extmem.Ext_stack.truncate_to st mark;
  check Alcotest.string "pop after truncate" "keep-1" (Extmem.Ext_stack.pop st);
  check Alcotest.string "pop after truncate 2" "keep-0" (Extmem.Ext_stack.pop st)

let test_ext_stack_interleaved_after_spill () =
  (* Regression shape: spill, pop below the window, then push again over
     previously flushed blocks. *)
  let d = Extmem.Device.in_memory ~block_size:8 () in
  let st = Extmem.Ext_stack.create ~resident_blocks:1 d in
  for i = 0 to 19 do
    Extmem.Ext_stack.push st (Printf.sprintf "a%02d" i)
  done;
  for _ = 0 to 14 do
    ignore (Extmem.Ext_stack.pop st)
  done;
  for i = 0 to 9 do
    Extmem.Ext_stack.push st (Printf.sprintf "b%02d" i)
  done;
  for i = 9 downto 0 do
    check Alcotest.string "b layer" (Printf.sprintf "b%02d" i) (Extmem.Ext_stack.pop st)
  done;
  for i = 4 downto 0 do
    check Alcotest.string "a layer" (Printf.sprintf "a%02d" i) (Extmem.Ext_stack.pop st)
  done

let prop_ext_stack_model =
  (* ops: 0 push, 1 pop, 2 top, 3 scan-from-random-mark, 4 truncate-to-mark *)
  let gen =
    QCheck.make
      ~print:(fun (bs, w, ops) ->
        Printf.sprintf "bs=%d w=%d ops=[%s]" bs w
          (String.concat ";" (List.map (fun (op, s) -> Printf.sprintf "(%d,%S)" op s) ops)))
      QCheck.Gen.(
        triple (int_range 4 32) (int_range 1 3)
          (list (pair (int_bound 4) (string_size ~gen:printable (int_bound 40)))))
  in
  QCheck.Test.make ~name:"Ext_stack behaves like a list stack" ~count:300 gen
    (fun (bs, w, ops) ->
      let d = Extmem.Device.in_memory ~block_size:bs () in
      let st = Extmem.Ext_stack.create ~resident_blocks:w d in
      (* model: list of (position_before, payload), newest first *)
      let model = ref [] in
      List.iter
        (fun (op, s) ->
          match op with
          | 0 ->
              let pos = Extmem.Ext_stack.length st in
              Extmem.Ext_stack.push st s;
              model := (pos, s) :: !model
          | 1 -> (
              match !model with
              | [] -> ()
              | (_, payload) :: rest ->
                  let got = Extmem.Ext_stack.pop st in
                  if got <> payload then QCheck.Test.fail_reportf "pop: %S <> %S" got payload;
                  model := rest)
          | 2 -> (
              match !model with
              | [] -> ()
              | (_, payload) :: _ ->
                  let got = Extmem.Ext_stack.top st in
                  if got <> payload then QCheck.Test.fail_reportf "top: %S <> %S" got payload)
          | 3 ->
              (* scan from the middle of the model *)
              let n = List.length !model in
              if n > 0 then begin
                let k = n / 2 in
                let pos, _ = List.nth !model k in
                let expected = List.rev_map snd (List.filteri (fun i _ -> i <= k) !model) in
                let got = ref [] in
                Extmem.Ext_stack.iter_entries_from st ~pos (fun e -> got := e :: !got);
                if List.rev !got <> expected then QCheck.Test.fail_reportf "scan mismatch"
              end
          | _ ->
              let n = List.length !model in
              if n > 0 then begin
                let k = n / 2 in
                let pos, _ = List.nth !model k in
                Extmem.Ext_stack.truncate_to st pos;
                model := List.filteri (fun i _ -> i > k) !model
              end)
        ops;
      (* drain and compare *)
      let rec drain acc =
        if Extmem.Ext_stack.is_empty st then List.rev acc
        else drain (Extmem.Ext_stack.pop st :: acc)
      in
      drain [] = List.map snd !model)

(* Per-byte reference for the forward scans over a shadow copy of the
   stack's bytes: each header and payload byte is read on its own (the
   trailer is skipped), from the window when its block is resident and
   otherwise through a one-block scratch that costs a page-in whenever it
   changes block.  The window is the [resident] blocks ending at the
   block that holds the top byte. *)
let reference_scan ~bs ~resident ~scratch shadow pos =
  let len = Buffer.length shadow in
  let top_block = (len + bs - 1) / bs in
  let page_ins = ref 0 in
  let byte p =
    let b = p / bs in
    let in_window = resident > 0 && b >= top_block - resident && b < top_block in
    if (not in_window) && !scratch <> b then begin
      incr page_ins;
      scratch := b
    end;
    Buffer.nth shadow p
  in
  let payloads = ref [] and cur = ref pos in
  while !cur < len do
    let n = ref 0 and shift = ref 0 and more = ref true in
    while !more do
      let c = Char.code (byte !cur) in
      incr cur;
      n := !n lor ((c land 0x7f) lsl !shift);
      shift := !shift + 7;
      more := c land 0x80 <> 0
    done;
    payloads := String.init !n (fun i -> byte (!cur + i)) :: !payloads;
    cur := !cur + !n + 4
  done;
  (List.rev !payloads, !page_ins)

let prop_ext_stack_blockwise_scan =
  (* ops: 0-2 push, 3 pop, 4 top, 5 truncate to the middle mark, 6 scan
     both ways from the entry [size mod depth] *)
  let gen =
    QCheck.make
      ~print:(fun (bs, w, borrow, ops) ->
        Printf.sprintf "bs=%d w=%d borrow=%b ops=[%s]" bs w borrow
          (String.concat ";" (List.map (fun (op, n) -> Printf.sprintf "(%d,%d)" op n) ops)))
      QCheck.Gen.(
        quad (int_range 8 48) (int_range 1 3) bool
          (list_size (int_range 1 80) (pair (int_bound 6) (int_bound 150))))
  in
  QCheck.Test.make ~name:"Ext_stack block-wise scans match a per-byte reader" ~count:300 gen
    (fun (bs, w, borrow, ops) ->
      let d = Extmem.Device.in_memory ~block_size:bs () in
      let budget = Extmem.Memory_budget.create ~blocks:(w + 3) ~block_size:bs in
      let arena = Extmem.Frame_arena.create ~budget () in
      let st = Extmem.Ext_stack.create ~resident_blocks:w ~arena ~elastic:borrow d in
      let model = ref [] (* (position, payload), newest first *) in
      let shadow = Buffer.create 1024 in
      let scratch = ref (-1) in
      let reset_to pos =
        Buffer.truncate shadow pos;
        scratch := -1
      in
      let scan_matches pos =
        let expected = List.rev_map snd (List.filter (fun (p, _) -> p >= pos) !model) in
        let check_one name run =
          let before = Extmem.Ext_stack.page_ins st in
          let got = run () in
          let page_ins = Extmem.Ext_stack.page_ins st - before in
          let ref_payloads, ref_page_ins =
            reference_scan ~bs ~resident:(Extmem.Ext_stack.resident_blocks st) ~scratch shadow
              pos
          in
          if got <> expected || ref_payloads <> expected then
            QCheck.Test.fail_reportf "%s: payloads differ from pos %d" name pos;
          if page_ins <> ref_page_ins then
            QCheck.Test.fail_reportf "%s: %d page-ins, per-byte reader %d" name page_ins
              ref_page_ins
        in
        check_one "iter_entries_from" (fun () ->
            let acc = ref [] in
            Extmem.Ext_stack.iter_entries_from st ~pos (fun e -> acc := e :: !acc);
            List.rev !acc);
        check_one "cursor_from" (fun () ->
            let next = Extmem.Ext_stack.cursor_from st ~pos in
            let rec drain acc = match next () with Some e -> drain (e :: acc) | None -> List.rev acc in
            drain [])
      in
      List.iter
        (fun (op, n) ->
          match (op, !model) with
          | (0 | 1 | 2), _ ->
              let payload = String.init n (fun i -> Char.chr (32 + ((i * 7) + n) mod 95)) in
              let pos = Extmem.Ext_stack.length st in
              Extmem.Ext_stack.push st payload;
              Extmem.Codec.put_varint shadow n;
              Buffer.add_string shadow payload;
              Extmem.Codec.put_u32 shadow n;
              scratch := -1;
              model := (pos, payload) :: !model
          | 3, (pos, payload) :: rest ->
              if Extmem.Ext_stack.pop st <> payload then QCheck.Test.fail_reportf "pop";
              reset_to pos;
              model := rest
          | 4, (_, payload) :: _ ->
              if Extmem.Ext_stack.top st <> payload then QCheck.Test.fail_reportf "top"
          | 5, (_ :: _ as m) ->
              let k = List.length m / 2 in
              let pos, _ = List.nth m k in
              Extmem.Ext_stack.truncate_to st pos;
              reset_to pos;
              model := List.filteri (fun i _ -> i > k) m
          | 6, (_ :: _ as m) -> scan_matches (fst (List.nth m (n mod List.length m)))
          | _ -> ())
        ops;
      (match !model with [] -> () | m -> scan_matches (fst (List.nth m (List.length m - 1))));
      true)

let prop_ext_stack_push_io_linear =
  QCheck.Test.make ~name:"Ext_stack push-only I/O is <= bytes/B + O(1)" ~count:100
    QCheck.(pair (int_range 8 64) (list_of_size (QCheck.Gen.int_range 1 200) (string_of_size (QCheck.Gen.int_bound 30))))
    (fun (bs, entries) ->
      let d = Extmem.Device.in_memory ~block_size:bs () in
      let st = Extmem.Ext_stack.create ~resident_blocks:1 d in
      List.iter (Extmem.Ext_stack.push st) entries;
      let total_bytes = List.fold_left (fun a e -> a + Extmem.Ext_stack.framed_size e) 0 entries in
      let ios = Extmem.Io_stats.total (Extmem.Ext_stack.io_stats st) in
      ios <= (total_bytes / bs) + 2)

(* ------------------------------------------------------------------ *)
(* Btree *)

let btree ?(frames = 4) ~cmp dev =
  Extmem.Btree.create ~arena:(Extmem.Frame_arena.create ()) ~frames ~cmp dev

let new_btree ?(block_size = 128) ?(frames = 4) () =
  let dev = Extmem.Device.in_memory ~block_size () in
  (btree ~frames ~cmp:compare dev, dev)

let test_btree_basic () =
  let t, _ = new_btree () in
  check Alcotest.int "empty" 0 (Extmem.Btree.length t);
  Extmem.Btree.insert t ~key:"b" ~value:"2";
  Extmem.Btree.insert t ~key:"a" ~value:"1";
  Extmem.Btree.insert t ~key:"c" ~value:"3";
  check Alcotest.int "length" 3 (Extmem.Btree.length t);
  check (Alcotest.option Alcotest.string) "find a" (Some "1") (Extmem.Btree.find t "a");
  check (Alcotest.option Alcotest.string) "find c" (Some "3") (Extmem.Btree.find t "c");
  check (Alcotest.option Alcotest.string) "missing" None (Extmem.Btree.find t "zz");
  Extmem.Btree.insert t ~key:"b" ~value:"two";
  check Alcotest.int "replace keeps length" 3 (Extmem.Btree.length t);
  check (Alcotest.option Alcotest.string) "replaced" (Some "two") (Extmem.Btree.find t "b")

(* A two-level tree (a root over several leaves) of the 40 keys
   "k000".."k039", flushed so every resident page is clean. *)
let two_level_btree ~frames =
  let t, dev = new_btree ~frames () in
  for i = 0 to 39 do
    Extmem.Btree.insert t ~key:(Printf.sprintf "k%03d" i) ~value:"v"
  done;
  Extmem.Btree.flush t;
  check Alcotest.int "root over leaves" 2 (Extmem.Btree.height t);
  (t, dev)

(* Stats of [rounds] finds alternating between the first and the last
   leaf, after one warm-up round. *)
let alternate_leaves t rounds =
  let round () =
    ignore (Extmem.Btree.find t "k000");
    ignore (Extmem.Btree.find t "k039")
  in
  round ();
  let s0 = Extmem.Btree.stats t in
  for _ = 1 to rounds do
    round ()
  done;
  let s1 = Extmem.Btree.stats t in
  (s1.hits - s0.hits, s1.misses - s0.misses, s1.evictions - s0.evictions)

let test_btree_lru_keeps_root () =
  (* two frames: the root, touched by every find, is never the
     least-recently-used page, so each find hits the root and faults its
     leaf in over the other one *)
  let t, _ = two_level_btree ~frames:2 in
  let hits, misses, evictions = alternate_leaves t 5 in
  check Alcotest.int "root hit on every find" 10 hits;
  check Alcotest.int "leaf missed on every find" 10 misses;
  check Alcotest.int "each miss evicts the other leaf" 10 evictions;
  (* one frame more holds the root and both leaves *)
  let t, _ = two_level_btree ~frames:3 in
  let hits, misses, _ = alternate_leaves t 5 in
  check Alcotest.int "three frames: all hits" 20 hits;
  check Alcotest.int "three frames: no misses" 0 misses

let test_btree_finds_write_nothing () =
  (* write-back is dirty-only: finds over a flushed tree that overflow
     the pool many times over must not write a single block *)
  let t, dev = two_level_btree ~frames:2 in
  let io = Extmem.Device.stats dev in
  Extmem.Io_stats.reset io;
  for i = 0 to 119 do
    ignore (Extmem.Btree.find t (Printf.sprintf "k%03d" (i * 7 mod 40)))
  done;
  check Alcotest.bool "the pool overflowed" true ((Extmem.Btree.stats t).evictions > 10);
  check Alcotest.int "clean evictions write nothing" 0 io.Extmem.Io_stats.writes

let test_btree_insert_writes_back_its_pages () =
  (* one insert into a clean tree dirties its leaf and the meta page:
     finds that cycle every page through the pool write exactly those
     two back *)
  let t, dev = two_level_btree ~frames:2 in
  let io = Extmem.Device.stats dev in
  Extmem.Io_stats.reset io;
  let writebacks = (Extmem.Btree.stats t).writebacks in
  Extmem.Btree.insert t ~key:"k0195" ~value:"w";
  for i = 0 to 39 do
    ignore (Extmem.Btree.find t (Printf.sprintf "k%03d" i))
  done;
  check Alcotest.int "leaf and meta written" 2 io.Extmem.Io_stats.writes;
  check Alcotest.int "counted as write-backs" 2 ((Extmem.Btree.stats t).writebacks - writebacks);
  check (Alcotest.option Alcotest.string) "insert landed" (Some "w") (Extmem.Btree.find t "k0195")

let test_btree_stats_match_device_io () =
  (* every miss reads one block, every write-back writes one, and once
     the pool is full every miss evicts a page *)
  List.iter
    (fun frames ->
      let dev = Extmem.Device.in_memory ~block_size:128 () in
      let t = btree ~frames ~cmp:compare dev in
      for i = 0 to 199 do
        let k = Printf.sprintf "%05d" ((i * 48271) mod 99991) in
        Extmem.Btree.insert t ~key:k ~value:k;
        if i mod 3 = 0 then ignore (Extmem.Btree.find t (Printf.sprintf "%05d" (i * 7)))
      done;
      Extmem.Btree.flush t;
      let s = Extmem.Btree.stats t and io = Extmem.Device.stats dev in
      let label what = Printf.sprintf "%d frames: %s" frames what in
      check Alcotest.int (label "reads = misses") s.misses io.Extmem.Io_stats.reads;
      check Alcotest.int (label "writes = write-backs") s.writebacks io.Extmem.Io_stats.writes;
      check Alcotest.int (label "evictions = misses - frames") (s.misses - frames) s.evictions;
      check Alcotest.bool (label "hits counted") true (s.hits > 0))
    [ 2; 3; 4 ]

let test_btree_splits_and_order () =
  let t, _ = new_btree () in
  let n = 500 in
  for i = 0 to n - 1 do
    let k = Printf.sprintf "%05d" ((i * 48271) mod 99991) in
    Extmem.Btree.insert t ~key:k ~value:("v" ^ k)
  done;
  check Alcotest.bool "grew levels" true (Extmem.Btree.height t > 1);
  let prev = ref "" in
  let count = ref 0 in
  Extmem.Btree.iter t (fun k v ->
      check Alcotest.bool "ascending" true (!prev < k);
      check Alcotest.string "value" ("v" ^ k) v;
      prev := k;
      incr count);
  check Alcotest.int "all present" (Extmem.Btree.length t) !count

let test_btree_iter_from () =
  let t, _ = new_btree () in
  List.iter (fun k -> Extmem.Btree.insert t ~key:k ~value:k) [ "a"; "c"; "e"; "g"; "i" ];
  let got = ref [] in
  Extmem.Btree.iter_from t "d" (fun k _ ->
      got := k :: !got;
      true);
  check (Alcotest.list Alcotest.string) "from d" [ "e"; "g"; "i" ] (List.rev !got);
  (* early stop *)
  let got = ref [] in
  Extmem.Btree.iter_from t "" (fun k _ ->
      got := k :: !got;
      List.length !got < 2);
  check Alcotest.int "stopped" 2 (List.length !got)

let test_btree_persistence () =
  (* what a flush leaves on the device does not depend on the pool: at
     1-4 frames, with dirty pages written back early on eviction, the
     image equals that of a pool holding every page *)
  let image frames =
    let dev = Extmem.Device.in_memory ~block_size:128 () in
    let t = btree ~frames ~cmp:compare dev in
    for i = 0 to 199 do
      Extmem.Btree.insert t ~key:(Printf.sprintf "k%03d" (i * 37 mod 200)) ~value:(string_of_int i)
    done;
    Extmem.Btree.flush t;
    Extmem.Btree.close t;
    Extmem.Device.contents dev
  in
  let reference = image 64 in
  List.iter
    (fun frames ->
      check Alcotest.string (Printf.sprintf "%d frames" frames) reference (image frames))
    [ 1; 2; 3; 4 ]

let test_btree_entry_too_large () =
  let t, _ = new_btree ~block_size:128 () in
  try
    Extmem.Btree.insert t ~key:(String.make 100 'k') ~value:(String.make 100 'v');
    Alcotest.fail "expected Invalid_argument"
  with Invalid_argument _ -> ()

let test_btree_custom_order () =
  let dev = Extmem.Device.in_memory ~block_size:128 () in
  let cmp a b = compare b a (* descending *) in
  let t = btree ~cmp dev in
  List.iter (fun k -> Extmem.Btree.insert t ~key:k ~value:k) [ "a"; "b"; "c" ];
  let got = ref [] in
  Extmem.Btree.iter t (fun k _ -> got := k :: !got);
  check (Alcotest.list Alcotest.string) "descending" [ "a"; "b"; "c" ] !got

let prop_btree_matches_map =
  (* model-based: random insert/replace/lookup traces through a pool of
     1-4 frames *)
  QCheck.Test.make ~name:"Btree behaves like Map" ~count:120
    QCheck.(
      triple (int_range 96 256) (int_range 1 4)
        (list (pair (int_bound 2) (pair (int_bound 60) (string_of_size (QCheck.Gen.int_bound 6))))))
    (fun (block_size, frames, ops) ->
      let dev = Extmem.Device.in_memory ~block_size () in
      let t = btree ~frames ~cmp:compare dev in
      let model = Hashtbl.create 32 in
      List.iter
        (fun (op, (kn, v)) ->
          let k = Printf.sprintf "k%02d" kn in
          match op with
          | 0 | 1 ->
              Extmem.Btree.insert t ~key:k ~value:v;
              Hashtbl.replace model k v
          | _ ->
              let got = Extmem.Btree.find t k in
              let want = Hashtbl.find_opt model k in
              if got <> want then QCheck.Test.fail_reportf "find %s mismatch" k)
        ops;
      (* final state: same sorted associations, same count *)
      let got = ref [] in
      Extmem.Btree.iter t (fun k v -> got := (k, v) :: !got);
      let want = List.sort compare (Hashtbl.fold (fun k v acc -> (k, v) :: acc) model []) in
      List.rev !got = want && Extmem.Btree.length t = Hashtbl.length model)

(* Bulk loading against sequential inserts: ascending keys with runs of
   duplicates (the last value wins), values up to the quarter-block
   limit, block sizes 128..4096. *)
let prop_btree_bulk_load_matches_inserts =
  QCheck.Test.make ~name:"Btree bulk load = sequential inserts" ~count:150
    QCheck.(
      pair (int_range 128 4096)
        (list_of_size Gen.(int_range 0 400) (pair (int_bound 3) (int_bound 4096))))
    (fun (block_size, steps) ->
      let max_value = (block_size / 4) - 6 in
      (* a gap of 0 repeats the previous key *)
      let _, rev_entries =
        List.fold_left
          (fun (k, acc) (gap, len) ->
            let k = k + gap in
            let tag = string_of_int (List.length acc) in
            let len = max (String.length tag) (len mod (max_value + 1)) in
            (k, (Printf.sprintf "k%05d" k, tag ^ String.make (len - String.length tag) 'v') :: acc))
          (0, []) steps
      in
      let entries = List.rev rev_entries in
      let bulk_dev = Extmem.Device.in_memory ~block_size () in
      let loader =
        Extmem.Btree.bulk_loader ~arena:(Extmem.Frame_arena.create ()) ~cmp:compare bulk_dev
      in
      List.iter (fun (key, value) -> Extmem.Btree.bulk_add loader ~key ~value) entries;
      let bulk = Extmem.Btree.bulk_finish loader in
      let ins = btree ~cmp:compare (Extmem.Device.in_memory ~block_size ()) in
      List.iter (fun (key, value) -> Extmem.Btree.insert ins ~key ~value) entries;
      let all t =
        let got = ref [] in
        Extmem.Btree.iter t (fun k v -> got := (k, v) :: !got);
        List.rev !got
      in
      let probes = List.init 8 (fun i -> Printf.sprintf "k%05d" (i * 97)) @ List.map fst entries in
      let same_finds t = List.for_all (fun k -> Extmem.Btree.find t k = Extmem.Btree.find ins k) probes in
      if all bulk <> all ins then QCheck.Test.fail_report "iter differs";
      if Extmem.Btree.length bulk <> Extmem.Btree.length ins then
        QCheck.Test.fail_reportf "length %d vs %d" (Extmem.Btree.length bulk)
          (Extmem.Btree.length ins);
      if not (same_finds bulk) then QCheck.Test.fail_report "find differs";
      if Extmem.Btree.height bulk > Extmem.Btree.height ins then
        QCheck.Test.fail_reportf "height %d > %d" (Extmem.Btree.height bulk)
          (Extmem.Btree.height ins);
      true)

let test_btree_bulk_rejects () =
  let loader =
    Extmem.Btree.bulk_loader ~arena:(Extmem.Frame_arena.create ()) ~cmp:compare
      (Extmem.Device.in_memory ~block_size:128 ())
  in
  Extmem.Btree.bulk_add loader ~key:"b" ~value:"1";
  (match Extmem.Btree.bulk_add loader ~key:"a" ~value:"2" with
  | () -> Alcotest.fail "out-of-order key accepted"
  | exception Invalid_argument _ -> ());
  (match Extmem.Btree.bulk_add loader ~key:"c" ~value:(String.make 40 'v') with
  | () -> Alcotest.fail "oversized entry accepted"
  | exception Invalid_argument _ -> ());
  (* a rejected entry leaves the loader as it was *)
  Extmem.Btree.bulk_add loader ~key:"b" ~value:"3";
  Extmem.Btree.bulk_add loader ~key:"c" ~value:"4";
  let t = Extmem.Btree.bulk_finish loader in
  let got = ref [] in
  Extmem.Btree.iter t (fun k v -> got := (k, v) :: !got);
  check
    (Alcotest.list (Alcotest.pair Alcotest.string Alcotest.string))
    "entries" [ ("b", "3"); ("c", "4") ] (List.rev !got)

(* ------------------------------------------------------------------ *)
(* Pager: the B-tree's buffer pool, observed through the tree's page
   accesses.  The pool has one replacement rule, LRU; the cases that
   once compared several policies compare pool sizes against a pool
   that holds every page. *)

let find_opt = Alcotest.option Alcotest.string

(* The device image a flush leaves after [f] ran over a fresh tree with
   a pool of [frames]. *)
let pool_image ~frames f =
  let dev = Extmem.Device.in_memory ~block_size:128 () in
  let t = btree ~frames ~cmp:compare dev in
  f t;
  Extmem.Btree.flush t;
  Extmem.Btree.close t;
  Extmem.Device.contents dev

let insert_sixty t =
  for i = 0 to 59 do
    Extmem.Btree.insert t ~key:(Printf.sprintf "k%03d" (i * 7 mod 60)) ~value:(string_of_int i)
  done

let test_pager_lru_basics () =
  (* writes through a two-frame pool: every key reads back before and
     after the flush, the finds after it fault pages back in from the
     device, and the flushed image is that of an all-resident pool *)
  let dev = Extmem.Device.in_memory ~block_size:128 () in
  let t = btree ~frames:2 ~cmp:compare dev in
  insert_sixty t;
  let check_all what =
    for i = 0 to 59 do
      check find_opt what (Some (string_of_int i))
        (Extmem.Btree.find t (Printf.sprintf "k%03d" (i * 7 mod 60)))
    done
  in
  check_all "before flush";
  Extmem.Btree.flush t;
  let io = Extmem.Device.stats dev in
  Extmem.Io_stats.reset io;
  check_all "after flush";
  check Alcotest.bool "finds read from the device" true (io.Extmem.Io_stats.reads > 0);
  let s = Extmem.Btree.stats t in
  check Alcotest.bool "some hits" true (s.hits > 0);
  check Alcotest.bool "some misses" true (s.misses > 0);
  Extmem.Btree.close t;
  check Alcotest.string "flushed image" (pool_image ~frames:64 insert_sixty)
    (Extmem.Device.contents dev)

(* [two_level_btree]'s keys "k000", "k039" and "k020" sit in its first,
   last and a middle leaf; at three frames the root, touched by every
   find, stays resident and the two other frames hold leaves in LRU
   order. *)
let leaf_key = function `A -> "k000" | `B -> "k039" | `C -> "k020"

let find_misses t leaf =
  let m = (Extmem.Btree.stats t).misses in
  ignore (Extmem.Btree.find t (leaf_key leaf));
  (Extmem.Btree.stats t).misses - m

let test_pager_lru_eviction_order () =
  let t, _ = two_level_btree ~frames:3 in
  ignore (find_misses t `A);
  ignore (find_misses t `B);
  check Alcotest.int "touch the first leaf" 0 (find_misses t `A);
  check Alcotest.int "a third leaf faults in" 1 (find_misses t `C);
  check Alcotest.int "the touched leaf is still cached" 0 (find_misses t `A);
  check Alcotest.int "the least recently used leaf was evicted" 1 (find_misses t `B)

let test_pager_victim_order () =
  (* each sequence fills the pool (the three most recent pages are
     resident whatever came before) and its last find faults once; the
     row names the leaf LRU must evict and the one it must keep *)
  let rows =
    [
      ([ `A; `B; `A; `C ], `B, `A);
      ([ `B; `A; `B; `C ], `A, `B);
      ([ `A; `B; `C ], `A, `B);
    ]
  in
  List.iter
    (fun (seq, evicted, kept) ->
      let t, _ = two_level_btree ~frames:3 in
      let label what =
        Printf.sprintf "lru %s: %s" (String.concat "," (List.map leaf_key seq)) what
      in
      let rec run = function
        | [] -> ()
        | [ last ] ->
            let e = (Extmem.Btree.stats t).evictions in
            check Alcotest.int (label "last find faults") 1 (find_misses t last);
            check Alcotest.int (label "one eviction") 1 ((Extmem.Btree.stats t).evictions - e)
        | leaf :: rest ->
            ignore (find_misses t leaf);
            run rest
      in
      run seq;
      check Alcotest.int (label (leaf_key kept ^ " kept")) 0 (find_misses t kept);
      check Alcotest.int (label (leaf_key evicted ^ " evicted")) 1 (find_misses t evicted))
    rows

let test_pager_pool_sizes_same_contents () =
  (* pools of 1-4 frames evict different pages at different times but
     must leave the device image of an all-resident pool under the same
     interleaved finds, inserts and replacements *)
  let workload t =
    let rng = ref 123456789 in
    for i = 0 to 499 do
      rng := (!rng * 1103515245) + 12345;
      let key = Printf.sprintf "k%03d" (abs !rng mod 97) in
      if i mod 3 = 0 then ignore (Extmem.Btree.find t key)
      else
        Extmem.Btree.insert t ~key
          ~value:(String.make (1 + (i mod 4)) (Char.chr (65 + (i mod 26))))
    done
  in
  let reference = pool_image ~frames:64 workload in
  List.iter
    (fun frames ->
      check Alcotest.string (Printf.sprintf "lru at %d frames" frames) reference
        (pool_image ~frames workload))
    [ 1; 2; 3; 4 ]

let prop_pager_matches_resident_image =
  QCheck.Test.make ~name:"Cache read/write matches a plain byte array" ~count:150
    QCheck.(
      pair (int_range 1 4) (list (pair (int_bound 40) (string_of_size (Gen.int_bound 8)))))
    (fun (frames, writes) ->
      let model = Hashtbl.create 32 in
      let ok = ref true in
      let workload t =
        List.iter
          (fun (k, v) ->
            let key = Printf.sprintf "k%02d" k in
            Extmem.Btree.insert t ~key ~value:v;
            Hashtbl.replace model key v)
          writes;
        Hashtbl.iter (fun k v -> if Extmem.Btree.find t k <> Some v then ok := false) model
      in
      let image = pool_image ~frames workload in
      !ok && image = pool_image ~frames:64 workload)

type pager_op = Find of int | Insert of int * string

let prop_pager_page_model =
  (* interleaved finds and inserts through a pool of 1-4 frames: every
     find returns the model's value at that moment, every miss reads one
     block and every write-back writes one, a miss evicts once the pool
     is full, and closing the tree returns its frames to the arena *)
  QCheck.Test.make ~name:"Frame cache matches a page model under every pool size" ~count:200
    QCheck.(
      pair (int_range 1 4)
        (list
           (map
              (fun (w, k, s) -> if w then Insert (k, s) else Find k)
              (triple bool (int_bound 40) (string_of_size (Gen.int_bound 8))))))
    (fun (frames, ops) ->
      let dev = Extmem.Device.in_memory ~block_size:96 () in
      let arena = Extmem.Frame_arena.create () in
      let t = Extmem.Btree.create ~arena ~frames ~cmp:compare dev in
      let model = Hashtbl.create 32 in
      let key k = Printf.sprintf "k%02d" k in
      List.iter
        (function
          | Insert (k, v) ->
              Extmem.Btree.insert t ~key:(key k) ~value:v;
              Hashtbl.replace model (key k) v
          | Find k ->
              if Extmem.Btree.find t (key k) <> Hashtbl.find_opt model (key k) then
                QCheck.Test.fail_reportf "find %s mismatch" (key k))
        ops;
      Extmem.Btree.flush t;
      Extmem.Btree.close t;
      let s = Extmem.Btree.stats t and io = Extmem.Device.stats dev in
      let owner = List.assoc "btree" (Extmem.Frame_arena.owners arena) in
      s.misses = io.Extmem.Io_stats.reads
      && s.writebacks = io.Extmem.Io_stats.writes
      && s.evictions = max 0 (s.misses - frames)
      && owner.held = 0 && owner.peak = frames)

(* ------------------------------------------------------------------ *)
(* Trace *)

let test_trace_sequential_scan () =
  let d = Extmem.Device.of_string ~block_size:8 (String.make 64 'x') in
  let t = Extmem.Trace.attach d in
  let r = Extmem.Block_reader.of_device d in
  let buf = Bytes.create 64 in
  ignore (Extmem.Block_reader.read_bytes r buf 0 64);
  Extmem.Trace.detach t;
  let s = Extmem.Trace.summarize t in
  check Alcotest.int "accesses" 8 s.Extmem.Trace.accesses;
  check (Alcotest.float 0.01) "fully sequential" 1.0 (Extmem.Trace.sequential_fraction s);
  check Alcotest.int "no backward" 0 s.Extmem.Trace.backward;
  check (Alcotest.list Alcotest.int) "order" [ 0; 1; 2; 3; 4; 5; 6; 7 ] (Extmem.Trace.blocks t)

let test_trace_random_pattern () =
  let d = Extmem.Device.of_string ~block_size:8 (String.make 80 'x') in
  let t = Extmem.Trace.attach d in
  let buf = Bytes.create 8 in
  List.iter (fun i -> Extmem.Device.read_block d i buf) [ 9; 0; 9; 0; 5 ];
  Extmem.Trace.detach t;
  let s = Extmem.Trace.summarize t in
  check Alcotest.int "accesses" 5 s.Extmem.Trace.accesses;
  check Alcotest.int "backward jumps" 2 s.Extmem.Trace.backward;
  check Alcotest.int "max block" 9 s.Extmem.Trace.max_block;
  check Alcotest.bool "high mean seek" true (s.Extmem.Trace.mean_distance > 5.0);
  (* detaching stops recording *)
  Extmem.Device.read_block d 3 buf;
  check Alcotest.int "no more recording" 5 (Extmem.Trace.length t)

let test_trace_empty () =
  let d = Extmem.Device.in_memory ~block_size:8 () in
  let t = Extmem.Trace.attach d in
  let s = Extmem.Trace.summarize t in
  check Alcotest.int "no accesses" 0 s.Extmem.Trace.accesses;
  check (Alcotest.float 0.01) "fraction 0" 0.0 (Extmem.Trace.sequential_fraction s)

(* A trace is a device subscriber; detaching it unsubscribes it, so
   repeated attach/detach cycles leave no recorder behind and a detached
   trace stays silent while others keep recording. *)
let test_trace_detach_removes_layer () =
  let d = Extmem.Device.of_string ~block_size:8 (String.make 64 'x') in
  let buf = Bytes.create 8 in
  let cycles =
    List.init 10 (fun _ ->
        let t = Extmem.Trace.attach d in
        Extmem.Device.read_block d 0 buf;
        Extmem.Trace.detach t;
        (* detach is idempotent *)
        Extmem.Trace.detach t;
        t)
  in
  Extmem.Device.read_block d 0 buf;
  List.iter
    (fun t -> check Alcotest.int "recorded only while attached" 1 (Extmem.Trace.length t))
    cycles;
  (* a detached trace no longer records, even while another is attached *)
  let t1 = Extmem.Trace.attach d in
  let t2 = Extmem.Trace.attach d in
  Extmem.Trace.detach t1;
  Extmem.Device.read_block d 1 buf;
  check Alcotest.int "detached trace silent" 0 (Extmem.Trace.length t1);
  check Alcotest.int "remaining trace records" 1 (Extmem.Trace.length t2);
  Extmem.Trace.detach t2;
  Extmem.Device.read_block d 2 buf;
  check Alcotest.int "silent after interleaved detach" 1 (Extmem.Trace.length t2);
  check Alcotest.int "every read still counted" 13
    (Extmem.Io_stats.total (Extmem.Device.stats d))

(* ------------------------------------------------------------------ *)
(* Timing subscribers *)

let test_timing_subscriber () =
  let d = Extmem.Device.of_string ~block_size:8 (String.make 64 'x') in
  let clock = ref 0 in
  let tick () =
    let t = !clock in
    clock := t + 5;
    t
  in
  let seen = ref [] in
  let untimed = ref [] in
  ignore
    (Extmem.Device.subscribe d (fun _ i ~start_ns ~dur_ns ->
         untimed := (i, start_ns, dur_ns) :: !untimed)
      : Extmem.Device.subscription);
  let buf = Bytes.create 8 in
  Extmem.Device.read_block d 0 buf;
  check Alcotest.int "no timing subscriber, no clock read" 0 !clock;
  ignore
    (Extmem.Device.subscribe ~clock:tick d (fun op i ~start_ns ~dur_ns ->
         seen := (op, i, start_ns, dur_ns) :: !seen)
      : Extmem.Device.subscription);
  Extmem.Device.read_block d 1 buf;
  Extmem.Device.read_block d 2 buf;
  Extmem.Device.write_block d 3 (Bytes.make 8 'y');
  (* the fake clock advances 5 per call; each I/O reads it twice *)
  check
    (Alcotest.list (Alcotest.triple Alcotest.int Alcotest.int Alcotest.int))
    "every I/O with its start and duration"
    [ (1, 0, 5); (2, 10, 5); (3, 20, 5) ]
    (List.rev_map (fun (_, i, s, dur) -> (i, s, dur)) !seen);
  check Alcotest.bool "ops in order" true
    (List.rev_map (fun (op, _, _, _) -> op) !seen
    = Extmem.Device.[ Read; Read; Write ]);
  check
    (Alcotest.list (Alcotest.triple Alcotest.int Alcotest.int Alcotest.int))
    "an earlier subscriber gets the timing too, once there is a clock"
    [ (0, 0, 0); (1, 0, 5); (2, 10, 5); (3, 20, 5) ]
    (List.rev !untimed)

(* ------------------------------------------------------------------ *)
(* Memory_budget *)

let test_budget_basics () =
  let b = Extmem.Memory_budget.create ~blocks:10 ~block_size:64 in
  check Alcotest.int "total" 10 (Extmem.Memory_budget.total_blocks b);
  Extmem.Memory_budget.reserve b ~who:"test" 4;
  check Alcotest.int "used" 4 (Extmem.Memory_budget.used_blocks b);
  check Alcotest.int "available" 6 (Extmem.Memory_budget.available_blocks b);
  Extmem.Memory_budget.release b ~who:"test" 4;
  check Alcotest.int "released" 0 (Extmem.Memory_budget.used_blocks b)

let test_budget_exhaustion () =
  let b = Extmem.Memory_budget.create ~blocks:2 ~block_size:8 in
  Extmem.Memory_budget.reserve b ~who:"a" 2;
  (try
     Extmem.Memory_budget.reserve b ~who:"b" 1;
     Alcotest.fail "expected Exhausted"
   with Extmem.Memory_budget.Exhausted msg ->
     check Alcotest.bool "names culprit" true
       (String.length msg > 0 && String.sub msg 0 1 = "b");
     (* the per-owner ledger names who is sitting on the memory *)
     let contains hay needle =
       let nh = String.length hay and nn = String.length needle in
       let rec go i = i + nn <= nh && (String.sub hay i nn = needle || go (i + 1)) in
       go 0
     in
     check Alcotest.bool "names holders" true (contains msg "a=2"));
  Extmem.Memory_budget.release b ~who:"a" 2

let test_budget_ledger () =
  let b = Extmem.Memory_budget.create ~blocks:10 ~block_size:8 in
  Extmem.Memory_budget.reserve b ~who:"x" 3;
  Extmem.Memory_budget.reserve b ~who:"y" 2;
  Extmem.Memory_budget.reserve b ~who:"x" 1;
  check Alcotest.int "held x" 4 (Extmem.Memory_budget.held b "x");
  check Alcotest.int "held y" 2 (Extmem.Memory_budget.held b "y");
  check Alcotest.int "held stranger" 0 (Extmem.Memory_budget.held b "z");
  check
    Alcotest.(list (pair string int))
    "holders sorted" [ ("x", 4); ("y", 2) ]
    (Extmem.Memory_budget.holders b);
  (* over-release by one owner is a bug even when the global count is
     large enough *)
  (try
     Extmem.Memory_budget.release b ~who:"y" 3;
     Alcotest.fail "expected over-release rejection"
   with Invalid_argument _ -> ());
  Extmem.Memory_budget.release b ~who:"x" 4;
  Extmem.Memory_budget.release b ~who:"y" 2;
  check Alcotest.(list (pair string int)) "ledger empty" [] (Extmem.Memory_budget.holders b);
  check Alcotest.int "all released" 0 (Extmem.Memory_budget.used_blocks b)

let test_budget_with_reserved () =
  let b = Extmem.Memory_budget.create ~blocks:4 ~block_size:8 in
  (try
     Extmem.Memory_budget.with_reserved b ~who:"scope" 3 (fun () -> failwith "boom")
   with Failure _ -> ());
  check Alcotest.int "released on exception" 0 (Extmem.Memory_budget.used_blocks b)

let test_budget_carve () =
  let b = Extmem.Memory_budget.create ~blocks:8 ~block_size:8 in
  let sub = Extmem.Memory_budget.carve b ~who:"worker 0" ~blocks:3 () in
  check Alcotest.int "slab reserved in parent" 3 (Extmem.Memory_budget.held b "worker 0");
  Extmem.Memory_budget.reserve sub ~who:"lease" 2;
  check Alcotest.int "parent unchanged by sub reserve" 3 (Extmem.Memory_budget.used_blocks b);
  (* the sub-budget is a hard wall, not a window onto the parent *)
  (try
     Extmem.Memory_budget.reserve sub ~who:"greedy" 2;
     Alcotest.fail "expected sub-budget exhaustion"
   with Extmem.Memory_budget.Exhausted _ -> ());
  (* uncarve refuses while the sub-budget still holds blocks *)
  (try
     Extmem.Memory_budget.uncarve sub;
     Alcotest.fail "expected uncarve rejection while held"
   with Invalid_argument _ -> ());
  Extmem.Memory_budget.release sub ~who:"lease" 2;
  Extmem.Memory_budget.uncarve sub;
  check Alcotest.int "slab returned to parent" 0 (Extmem.Memory_budget.used_blocks b);
  try
    Extmem.Memory_budget.uncarve b;
    Alcotest.fail "expected root uncarve rejection"
  with Invalid_argument _ -> ()

let test_budget_parallel_hammer () =
  (* four domains hammer one ledger; the mutexed bookkeeping must end
     exactly balanced, and per-owner over-release must still be caught
     after the storm *)
  let b = Extmem.Memory_budget.create ~blocks:64 ~block_size:8 in
  let rounds = 2_000 in
  let worker i () =
    let who = Printf.sprintf "dom%d" i in
    for _ = 1 to rounds do
      Extmem.Memory_budget.reserve b ~who 2;
      Extmem.Memory_budget.release b ~who 1;
      Extmem.Memory_budget.reserve b ~who 1;
      Extmem.Memory_budget.release b ~who 2
    done
  in
  let doms = List.init 4 (fun i -> Domain.spawn (worker i)) in
  List.iter Domain.join doms;
  check Alcotest.int "balanced after join" 0 (Extmem.Memory_budget.used_blocks b);
  check Alcotest.(list (pair string int)) "ledger empty" [] (Extmem.Memory_budget.holders b);
  try
    Extmem.Memory_budget.release b ~who:"dom0" 1;
    Alcotest.fail "expected over-release rejection"
  with Invalid_argument _ -> ()

(* ------------------------------------------------------------------ *)
(* composable device stack: layers and specs *)

(* One semantics for faults: a faulty layer is an interceptor beneath
   the accounting, so wherever it sits in the spec a faulted I/O is seen
   by nothing — not counted, traced or timed — while the same
   subscribers see every I/O that completes. *)
let test_layers_compose () =
  List.iter
    (fun (spec, faults) ->
      let built = Extmem.Device_spec.build ~block_size:8 (Extmem.Device_spec.parse spec) in
      let d = built.Extmem.Device_spec.device in
      let trace =
        match built.Extmem.Device_spec.trace with
        | Some t -> t
        | None -> Alcotest.failf "%s: missing a trace handle" spec
      in
      let clock = ref 0 in
      let tick () =
        incr clock;
        !clock
      in
      let timed = ref 0 in
      ignore
        (Extmem.Device.subscribe ~clock:tick d (fun _ _ ~start_ns:_ ~dur_ns:_ -> incr timed)
          : Extmem.Device.subscription);
      ignore (Extmem.Device.allocate d 4);
      let buf = Bytes.create 8 in
      let ios =
        [ (fun () -> Extmem.Device.write_block d 0 (Bytes.make 8 'x'));
          (fun () -> Extmem.Device.read_block d 0 buf);
          (fun () -> Extmem.Device.read_block d 1 buf);
          (fun () -> Extmem.Device.write_block d 2 (Bytes.make 8 'y')) ]
      in
      let faulted =
        List.length
          (List.filter
             (fun io -> match io () with () -> false | exception Extmem.Device.Fault _ -> true)
             ios)
      in
      let done_ = if faults then 0 else 4 in
      check Alcotest.int (spec ^ ": faults") (4 - done_) faulted;
      let s = Extmem.Device.stats d in
      check Alcotest.int (spec ^ ": stats") done_ (Extmem.Io_stats.total s);
      check Alcotest.int (spec ^ ": trace") done_ (Extmem.Trace.length trace);
      check Alcotest.int (spec ^ ": timing subscriber") done_ !timed;
      (* ten subscribe/unsubscribe cycles leave no subscriber called *)
      let stale = ref 0 in
      for _ = 1 to 10 do
        let t = Extmem.Trace.attach d in
        let sub =
          Extmem.Device.subscribe ~clock:tick d (fun _ _ ~start_ns:_ ~dur_ns:_ -> incr stale)
        in
        Extmem.Device.unsubscribe d sub;
        Extmem.Device.unsubscribe d sub;
        Extmem.Trace.detach t;
        Extmem.Trace.detach t;
        check Alcotest.int (spec ^ ": detached trace") 0 (Extmem.Trace.length t)
      done;
      (* detaching one of two traces leaves the other recording *)
      let t1 = Extmem.Trace.attach d and t2 = Extmem.Trace.attach d in
      Extmem.Trace.detach t1;
      (try Extmem.Device.read_block d 3 buf with Extmem.Device.Fault _ -> ());
      check Alcotest.int (spec ^ ": unsubscribed never called") 0 !stale;
      check Alcotest.int (spec ^ ": detached trace silent") 0 (Extmem.Trace.length t1);
      check Alcotest.int (spec ^ ": remaining trace") (if faults then 0 else 1)
        (Extmem.Trace.length t2))
    [
      ("traced/faulty:p=1,seed=1/mem", true);
      ("faulty:p=1,seed=1/traced/mem", true);
      ("traced/mem", false);
    ]

let test_device_spec_roundtrip () =
  List.iter
    (fun s ->
      let spec = Extmem.Device_spec.parse s in
      check Alcotest.string s s (Extmem.Device_spec.to_string spec);
      (* to_string must itself re-parse to the same spec *)
      check Alcotest.string "reparse" s
        (Extmem.Device_spec.to_string (Extmem.Device_spec.parse (Extmem.Device_spec.to_string spec))))
    [
      "mem";
      "file:/tmp/some/dir/dev.img";
      "traced/mem";
      "faulty:p=0.001,seed=42/file:run.dev";
      "traced/faulty:p=0.5,seed=7/stats/mem";
    ]

let test_device_spec_malformed () =
  List.iter
    (fun s ->
      match Extmem.Device_spec.parse s with
      | _ -> Alcotest.failf "expected %S to be rejected" s
      | exception Invalid_argument _ -> ())
    [ ""; "bogus"; "traced"; "mem/traced"; "faulty:p=2/mem"; "faulty:p=x/mem";
      "cost:profile=hdd/mem"; "file:"; "/mem"; "traced/" ]

let test_device_spec_build () =
  let built =
    Extmem.Device_spec.build ~block_size:8
      (Extmem.Device_spec.parse "traced/faulty:p=0/mem")
  in
  let d = built.Extmem.Device_spec.device in
  check Alcotest.bool "trace handle" true (built.Extmem.Device_spec.trace <> None);
  ignore (Extmem.Device.allocate d 2);
  Extmem.Device.write_block d 0 (Bytes.make 8 'a');
  Extmem.Device.write_block d 1 (Bytes.make 8 'b');
  (match built.Extmem.Device_spec.trace with
  | Some t -> check (Alcotest.list Alcotest.int) "trace" [ 0; 1 ] (Extmem.Trace.blocks t)
  | None -> ());
  check Alcotest.int "writes counted" 2 (Extmem.Device.stats d).Extmem.Io_stats.writes

let test_faulty_deterministic () =
  (* the seeded fault layer is a pure function of (seed, access index):
     two identically-seeded devices fault on exactly the same accesses *)
  let faults_of ~seed ~p n =
    let d = Extmem.Device.in_memory ~block_size:4 () in
    ignore (Extmem.Device.allocate d 1);
    Extmem.Device.push_layer d (Extmem.Layer.faulty ~seed ~p ());
    let buf = Bytes.create 4 in
    List.init n (fun _ ->
        match Extmem.Device.read_block d 0 buf with
        | () -> false
        | exception Extmem.Device.Fault _ -> true)
  in
  let a = faults_of ~seed:1 ~p:0.3 200 and b = faults_of ~seed:1 ~p:0.3 200 in
  check (Alcotest.list Alcotest.bool) "same seed, same faults" a b;
  check Alcotest.bool "some faults at p=0.3" true (List.mem true a);
  check Alcotest.bool "some successes at p=0.3" true (List.mem false a);
  check Alcotest.bool "different seed differs" true (faults_of ~seed:2 ~p:0.3 200 <> a);
  check Alcotest.bool "p=0 never faults" true
    (List.for_all not (faults_of ~seed:1 ~p:0. 50));
  check Alcotest.bool "p=1 always faults" true
    (List.for_all Fun.id (faults_of ~seed:1 ~p:1. 50));
  Alcotest.check_raises "p out of range"
    (Invalid_argument "Layer.faulty: p must lie in [0,1]")
    (fun () -> ignore (Extmem.Layer.faulty ~p:2. ()))

(* ------------------------------------------------------------------ *)

let () =
  Alcotest.run "extmem"
    [
      ( "vec",
        [
          Alcotest.test_case "basic" `Quick test_vec_basic;
          Alcotest.test_case "bounds" `Quick test_vec_bounds;
          Alcotest.test_case "sort" `Quick test_vec_sort;
          Alcotest.test_case "iter" `Quick test_vec_iter;
          qcheck prop_vec_model;
        ] );
      ( "deque",
        [
          Alcotest.test_case "basic" `Quick test_deque_basic;
          Alcotest.test_case "empty" `Quick test_deque_empty;
          qcheck prop_deque_model;
        ] );
      ( "codec",
        [
          Alcotest.test_case "varint" `Quick test_codec_varint;
          Alcotest.test_case "zigzag" `Quick test_codec_zigzag;
          Alcotest.test_case "string" `Quick test_codec_string;
          Alcotest.test_case "fixed" `Quick test_codec_fixed;
          Alcotest.test_case "u32_at" `Quick test_codec_u32_at;
          Alcotest.test_case "truncated" `Quick test_codec_truncated;
          Alcotest.test_case "extremes" `Quick test_codec_extremes;
          Alcotest.test_case "string extremes" `Quick test_codec_string_extremes;
          Alcotest.test_case "u32 wraparound" `Quick test_codec_u32_wraparound;
          qcheck prop_codec_enc_matches_buffer;
          qcheck prop_codec_slice_decode;
          qcheck prop_codec_roundtrip;
        ] );
      ( "device",
        [
          Alcotest.test_case "mem roundtrip" `Quick test_device_mem_roundtrip;
          Alcotest.test_case "io counting" `Quick test_device_counts_io;
          Alcotest.test_case "bounds" `Quick test_device_bounds;
          Alcotest.test_case "of_string" `Quick test_device_of_string;
          Alcotest.test_case "file backend" `Quick test_device_file;
          Alcotest.test_case "fault injection" `Quick test_device_fault_injection;
          Alcotest.test_case "discard frees a mem block" `Quick test_device_discard_mem;
          Alcotest.test_case "discard is not an I/O" `Quick test_device_discard_not_io;
          Alcotest.test_case "discard on a file is a no-op" `Quick test_device_discard_file;
          Alcotest.test_case "clear empties the device" `Quick test_device_clear;
        ] );
      ( "stack",
        [
          Alcotest.test_case "layers compose" `Quick test_layers_compose;
          Alcotest.test_case "spec roundtrip" `Quick test_device_spec_roundtrip;
          Alcotest.test_case "spec malformed" `Quick test_device_spec_malformed;
          Alcotest.test_case "spec build" `Quick test_device_spec_build;
          Alcotest.test_case "faulty deterministic" `Quick test_faulty_deterministic;
        ] );
      ( "streams",
        [
          Alcotest.test_case "roundtrip" `Quick test_stream_roundtrip;
          Alcotest.test_case "io counts" `Quick test_stream_io_counts;
          Alcotest.test_case "records" `Quick test_stream_records;
          Alcotest.test_case "seek" `Quick test_stream_seek;
          qcheck prop_stream_roundtrip;
        ] );
      ( "run_store",
        [
          Alcotest.test_case "basic" `Quick test_run_store;
          Alcotest.test_case "exclusive writer" `Quick test_run_store_exclusive;
          Alcotest.test_case "read_run stream" `Quick test_run_store_read_run;
          Alcotest.test_case "readers consume" `Quick test_run_store_consumes;
          Alcotest.test_case "resume at an offset" `Quick test_run_store_resume_at_offset;
        ] );
      ( "ext_stack",
        [
          Alcotest.test_case "basic" `Quick test_ext_stack_basic;
          Alcotest.test_case "spills" `Quick test_ext_stack_spills;
          qcheck prop_ext_stack_cursors;
          Alcotest.test_case "no io when resident" `Quick test_ext_stack_no_io_when_resident;
          Alcotest.test_case "paging counters" `Quick test_ext_stack_paging_counters;
          Alcotest.test_case "large entry" `Quick test_ext_stack_large_entry;
          Alcotest.test_case "scan and truncate" `Quick test_ext_stack_scan_and_truncate;
          Alcotest.test_case "interleaved after spill" `Quick test_ext_stack_interleaved_after_spill;
          Alcotest.test_case "borrow window" `Quick test_ext_stack_borrow_window;
          Alcotest.test_case "resize to zero and back" `Quick test_ext_stack_resize_to_zero;
          Alcotest.test_case "elastic blocks wait for the resize" `Quick
            test_ext_stack_elastic_blocks_wait_for_resize;
          Alcotest.test_case "borrow stops at exhaustion" `Quick
            test_ext_stack_borrow_stops_at_exhaustion;
          Alcotest.test_case "resize dirty ledger" `Quick test_ext_stack_resize_dirty_ledger;
          Alcotest.test_case "resize to the grant is free" `Quick
            test_ext_stack_resize_to_grant_is_free;
          Alcotest.test_case "borrow recovers after release" `Quick
            test_ext_stack_borrow_recovers_after_release;
          Alcotest.test_case "close releases budget" `Quick
            test_ext_stack_close_releases_budget;
          Alcotest.test_case "borrow across session reclaim" `Quick
            test_ext_stack_borrow_across_session_reclaim;
          qcheck prop_ext_stack_model;
          qcheck prop_ext_stack_blockwise_scan;
          qcheck prop_ext_stack_push_io_linear;
        ] );
      ( "pager",
        [
          Alcotest.test_case "lru basics" `Quick test_pager_lru_basics;
          Alcotest.test_case "lru eviction order" `Quick test_pager_lru_eviction_order;
          Alcotest.test_case "victim order per policy" `Quick test_pager_victim_order;
          Alcotest.test_case "policies agree on contents" `Quick
            test_pager_pool_sizes_same_contents;
          qcheck prop_pager_matches_resident_image;
          qcheck prop_pager_page_model;
        ] );
      ( "btree",
        [
          Alcotest.test_case "basic" `Quick test_btree_basic;
          Alcotest.test_case "splits and order" `Quick test_btree_splits_and_order;
          Alcotest.test_case "iter_from" `Quick test_btree_iter_from;
          Alcotest.test_case "persistence" `Quick test_btree_persistence;
          Alcotest.test_case "entry too large" `Quick test_btree_entry_too_large;
          Alcotest.test_case "custom order" `Quick test_btree_custom_order;
          Alcotest.test_case "lru keeps the root resident" `Quick test_btree_lru_keeps_root;
          Alcotest.test_case "read-only finds write nothing" `Quick
            test_btree_finds_write_nothing;
          Alcotest.test_case "insert writes back its pages" `Quick
            test_btree_insert_writes_back_its_pages;
          Alcotest.test_case "stats match device I/O" `Quick test_btree_stats_match_device_io;
          qcheck prop_btree_matches_map;
          qcheck prop_btree_bulk_load_matches_inserts;
          Alcotest.test_case "bulk load rejects" `Quick test_btree_bulk_rejects;
        ] );
      ( "trace",
        [
          Alcotest.test_case "sequential scan" `Quick test_trace_sequential_scan;
          Alcotest.test_case "random pattern" `Quick test_trace_random_pattern;
          Alcotest.test_case "empty" `Quick test_trace_empty;
          Alcotest.test_case "detach removes the layer" `Quick test_trace_detach_removes_layer;
        ] );
      ( "latency", [ Alcotest.test_case "timing subscriber" `Quick test_timing_subscriber ] );
      ( "memory_budget",
        [
          Alcotest.test_case "basics" `Quick test_budget_basics;
          Alcotest.test_case "exhaustion" `Quick test_budget_exhaustion;
          Alcotest.test_case "per-owner ledger" `Quick test_budget_ledger;
          Alcotest.test_case "with_reserved" `Quick test_budget_with_reserved;
          Alcotest.test_case "carve/uncarve" `Quick test_budget_carve;
          Alcotest.test_case "parallel hammer" `Quick test_budget_parallel_hammer;
        ] );
    ]
