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

let test_run_store_reserve_install () =
  (* the worker-pool protocol: the main thread reserves the id at the
     point the run would have been created, a worker installs the payload
     later from its own scratch device *)
  let d = Extmem.Device.in_memory ~block_size:8 () in
  let rs = Extmem.Run_store.create d in
  let id0 = Extmem.Run_store.reserve rs in
  let w = Extmem.Run_store.begin_run rs in
  Extmem.Block_writer.write_record w "main";
  let id1 = Extmem.Run_store.finish_run rs w in
  check Alcotest.int "reserved id is dense" 0 id0;
  check Alcotest.int "finish_run skips the reservation" 1 id1;
  check Alcotest.int "count includes pending" 2 (Extmem.Run_store.run_count rs);
  (try
     ignore (Extmem.Run_store.open_run rs id0);
     Alcotest.fail "expected pending rejection"
   with Invalid_argument _ -> ());
  let blocks_before = Extmem.Run_store.total_run_blocks rs in
  let wd = Extmem.Device.in_memory ~block_size:8 () in
  let ww = Extmem.Block_writer.create wd in
  Extmem.Block_writer.write_record ww "worker";
  let extent = Extmem.Block_writer.close ww in
  Extmem.Run_store.install rs id0 ~dev:wd ~extent;
  check Alcotest.bool "pending excluded from totals" true
    (Extmem.Run_store.total_run_blocks rs > blocks_before);
  let pull = Extmem.Run_store.read_run rs id0 in
  check (Alcotest.option Alcotest.string) "reads from the worker device" (Some "worker")
    (pull ());
  try
    Extmem.Run_store.install rs id0 ~dev:wd ~extent;
    Alcotest.fail "expected double-install rejection"
  with Invalid_argument _ -> ()

(* ------------------------------------------------------------------ *)
(* Ext_stack *)

let test_ext_stack_borrow_window () =
  (* with a budgeted arena to borrow from, a 1-block window grows instead
     of paging; shed returns every borrowed block and forces the spill *)
  let d = Extmem.Device.in_memory ~block_size:16 () in
  let budget = Extmem.Memory_budget.create ~blocks:8 ~block_size:16 in
  let arena = Extmem.Frame_arena.create ~budget () in
  let st = Extmem.Ext_stack.create ~name:"test" ~resident_blocks:1 ~arena ~borrow:true d in
  for i = 0 to 99 do
    Extmem.Ext_stack.push st (Printf.sprintf "entry-%03d" i)
  done;
  check Alcotest.bool "borrowed from the budget" true (Extmem.Ext_stack.borrowed st > 0);
  (* the window lease holds its 1 configured block on top of the borrow *)
  check Alcotest.int "borrow is accounted"
    (Extmem.Ext_stack.borrowed st + 1)
    (Extmem.Memory_budget.used_blocks budget);
  check Alcotest.int "borrow is owner-labelled" (Extmem.Ext_stack.borrowed st)
    (Extmem.Memory_budget.held budget "test window (borrowed)");
  let writes_before = (Extmem.Ext_stack.io_stats st).Extmem.Io_stats.writes in
  Extmem.Ext_stack.shed st;
  check Alcotest.int "shed returns every block" 0 (Extmem.Ext_stack.borrowed st);
  check Alcotest.int "only the window remains charged" 1
    (Extmem.Memory_budget.used_blocks budget);
  check Alcotest.bool "shedding spills the surplus" true
    ((Extmem.Ext_stack.io_stats st).Extmem.Io_stats.writes > writes_before);
  (* contents survive the shed *)
  for i = 99 downto 0 do
    check Alcotest.string "pop order" (Printf.sprintf "entry-%03d" i) (Extmem.Ext_stack.pop st)
  done

let test_ext_stack_borrow_release_on_truncate () =
  let d = Extmem.Device.in_memory ~block_size:16 () in
  let budget = Extmem.Memory_budget.create ~blocks:8 ~block_size:16 in
  let arena = Extmem.Frame_arena.create ~budget () in
  let st = Extmem.Ext_stack.create ~name:"test" ~resident_blocks:1 ~arena ~borrow:true d in
  for i = 0 to 99 do
    Extmem.Ext_stack.push st (Printf.sprintf "entry-%03d" i)
  done;
  let borrowed = Extmem.Ext_stack.borrowed st in
  check Alcotest.bool "borrowed" true (borrowed > 0);
  Extmem.Ext_stack.truncate_to st 0;
  check Alcotest.int "truncate gives the blocks back" 0 (Extmem.Ext_stack.borrowed st);
  check Alcotest.int "only the window remains charged" 1
    (Extmem.Memory_budget.used_blocks budget)

let test_ext_stack_borrow_stops_at_exhaustion () =
  (* an exhausted budget must never raise out of push: the window just
     pages as if it had no borrow source *)
  let d = Extmem.Device.in_memory ~block_size:16 () in
  let budget = Extmem.Memory_budget.create ~blocks:3 ~block_size:16 in
  Extmem.Memory_budget.reserve budget ~who:"someone else" 2;
  let arena = Extmem.Frame_arena.create ~budget () in
  let st = Extmem.Ext_stack.create ~name:"test" ~resident_blocks:1 ~arena ~borrow:true d in
  for i = 0 to 99 do
    Extmem.Ext_stack.push st (Printf.sprintf "entry-%03d" i)
  done;
  check Alcotest.int "nothing borrowed" 0 (Extmem.Ext_stack.borrowed st);
  check Alcotest.bool "paged instead" true
    ((Extmem.Ext_stack.io_stats st).Extmem.Io_stats.writes > 0)

let test_ext_stack_shed_dirty_ledger () =
  (* shedding a dirty elastic window writes the surplus back exactly once
     per borrowed block and leaves the ledger at just the base window *)
  let d = Extmem.Device.in_memory ~block_size:16 () in
  let budget = Extmem.Memory_budget.create ~blocks:8 ~block_size:16 in
  let arena = Extmem.Frame_arena.create ~budget () in
  let st = Extmem.Ext_stack.create ~name:"test" ~resident_blocks:1 ~arena ~borrow:true d in
  for i = 0 to 99 do
    Extmem.Ext_stack.push st (Printf.sprintf "entry-%03d" i)
  done;
  let borrowed = Extmem.Ext_stack.borrowed st in
  check Alcotest.bool "window is dirty and borrowed" true (borrowed > 0);
  check (Alcotest.list (Alcotest.pair Alcotest.string Alcotest.int)) "ledger names both leases"
    [ ("test window", 1); ("test window (borrowed)", borrowed) ]
    (List.sort compare (Extmem.Memory_budget.holders budget));
  let writes_before = Extmem.Ext_stack.writebacks st in
  Extmem.Ext_stack.shed st;
  (* every borrowed block was below the new window top, so each is spilled
     exactly once; the resident top block stays in memory *)
  check Alcotest.int "one writeback per shed block" (writes_before + borrowed)
    (Extmem.Ext_stack.writebacks st);
  check (Alcotest.list (Alcotest.pair Alcotest.string Alcotest.int)) "only the window remains"
    [ ("test window", 1) ]
    (Extmem.Memory_budget.holders budget);
  for i = 99 downto 0 do
    check Alcotest.string "data survives" (Printf.sprintf "entry-%03d" i)
      (Extmem.Ext_stack.pop st)
  done

let test_ext_stack_shed_nothing_borrowed () =
  (* shed with zero borrowed frames (e.g. a reclaim that races nothing)
     must be free: no I/O, no ledger movement *)
  let d = Extmem.Device.in_memory ~block_size:16 () in
  let budget = Extmem.Memory_budget.create ~blocks:8 ~block_size:16 in
  let arena = Extmem.Frame_arena.create ~budget () in
  let st = Extmem.Ext_stack.create ~name:"test" ~resident_blocks:1 ~arena ~borrow:true d in
  Extmem.Ext_stack.push st "one";
  let io = (Extmem.Ext_stack.io_stats st).Extmem.Io_stats.writes in
  Extmem.Ext_stack.shed st;
  check Alcotest.int "no io" io (Extmem.Ext_stack.io_stats st).Extmem.Io_stats.writes;
  check Alcotest.int "window still charged" 1 (Extmem.Memory_budget.used_blocks budget);
  check Alcotest.string "data intact" "one" (Extmem.Ext_stack.pop st)

let test_ext_stack_borrow_recovers_after_release () =
  (* zero idle frames: borrowing is denied and the stack pages; once the
     other holder releases, the very next overflow borrows again *)
  let d = Extmem.Device.in_memory ~block_size:16 () in
  let budget = Extmem.Memory_budget.create ~blocks:6 ~block_size:16 in
  Extmem.Memory_budget.reserve budget ~who:"other" 5;
  let arena = Extmem.Frame_arena.create ~budget () in
  let st = Extmem.Ext_stack.create ~name:"test" ~resident_blocks:1 ~arena ~borrow:true d in
  for i = 0 to 49 do
    Extmem.Ext_stack.push st (Printf.sprintf "entry-%03d" i)
  done;
  check Alcotest.int "nothing borrowed under pressure" 0 (Extmem.Ext_stack.borrowed st);
  check Alcotest.bool "paged instead" true
    ((Extmem.Ext_stack.io_stats st).Extmem.Io_stats.writes > 0);
  Extmem.Memory_budget.release budget ~who:"other" 5;
  for i = 50 to 99 do
    Extmem.Ext_stack.push st (Printf.sprintf "entry-%03d" i)
  done;
  check Alcotest.bool "borrowing resumes" true (Extmem.Ext_stack.borrowed st > 0);
  for i = 99 downto 0 do
    check Alcotest.string "pop order" (Printf.sprintf "entry-%03d" i) (Extmem.Ext_stack.pop st)
  done

let test_ext_stack_close_releases_budget () =
  (* close ends the session: every frame (base and borrowed, dirty or
     not) goes back without any flush I/O, and close is idempotent *)
  let d = Extmem.Device.in_memory ~block_size:16 () in
  let budget = Extmem.Memory_budget.create ~blocks:8 ~block_size:16 in
  let arena = Extmem.Frame_arena.create ~budget () in
  let st = Extmem.Ext_stack.create ~name:"test" ~resident_blocks:1 ~arena ~borrow:true d in
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
  (* the data stack of a real session borrows idle budget while growing;
     Session.reclaim takes it all back without losing data, and destroy
     empties the ledger and is idempotent *)
  let config = Nexsort.Config.make ~block_size:512 ~memory_blocks:64 () in
  Engine.with_session config @@ fun session ->
  let budget = session.Nexsort.Session.budget in
  let baseline = Extmem.Memory_budget.used_blocks budget in
  Nexsort.Session.reclaim session;
  check Alcotest.int "reclaim with nothing borrowed is a no-op" baseline
    (Extmem.Memory_budget.used_blocks budget);
  let st = session.Nexsort.Session.data_stack in
  for i = 0 to 199 do
    Extmem.Ext_stack.push st (Printf.sprintf "payload-%04d-%s" i (String.make 48 'x'))
  done;
  check Alcotest.bool "data stack borrowed idle budget" true (Extmem.Ext_stack.borrowed st > 0);
  check Alcotest.int "borrow shows in the ledger" (Extmem.Ext_stack.borrowed st)
    (Extmem.Memory_budget.held budget "data stack window (borrowed)");
  Nexsort.Session.reclaim session;
  check Alcotest.int "reclaim returns every borrowed block" 0 (Extmem.Ext_stack.borrowed st);
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
      let st = Extmem.Ext_stack.create ~resident_blocks:w ~arena ~borrow d in
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
(* Frame-arena caches (the B-tree's buffer pool) *)

module Fa = Extmem.Frame_arena

let cache ?policy ~frames d = Fa.attach (Fa.create ()) ?policy ~frames d

let page bs s = s ^ String.make (bs - String.length s) '\000'

let cache_test policy () =
  let d = Extmem.Device.in_memory ~block_size:8 () in
  ignore (Extmem.Device.allocate d 8);
  let c = cache ~policy ~frames:3 d in
  (* write five pages through three frames, read them back *)
  let pages = [ "abcdefgh"; "ijklmnop"; "qrstuvwx"; "yz012345"; "6789" ] in
  List.iteri (Fa.write_page c) pages;
  check (Alcotest.list Alcotest.string) "read back" (List.map (page 8) pages)
    (List.init 5 (Fa.read_page c));
  ignore (Fa.read_page c 4);
  Fa.flush c;
  (* after flush the device must contain the data *)
  let b = Bytes.make 8 '?' in
  Extmem.Device.read_block d 0 b;
  check Alcotest.string "flushed" "abcdefgh" (Bytes.to_string b);
  check Alcotest.bool "some hits" true (Fa.hits c > 0);
  check Alcotest.bool "some misses" true (Fa.misses c > 0)

let test_cache_lru_eviction_order () =
  let d = Extmem.Device.in_memory ~block_size:4 () in
  ignore (Extmem.Device.allocate d 10);
  let c = cache ~policy:Fa.Lru ~frames:2 d in
  ignore (Fa.read_page c 0);
  ignore (Fa.read_page c 1);
  ignore (Fa.read_page c 0);  (* touch block 0 *)
  ignore (Fa.read_page c 2);  (* evicts block 1 (LRU) *)
  let misses_before = Fa.misses c in
  ignore (Fa.read_page c 0);  (* block 0 should still be resident *)
  check Alcotest.int "block 0 still cached" misses_before (Fa.misses c);
  ignore (Fa.read_page c 1);  (* block 1 was evicted: miss *)
  check Alcotest.int "block 1 missed" (misses_before + 1) (Fa.misses c)

let test_cache_victim_order () =
  (* Two frames.  Each sequence fills both (free frames win, so its
     first two blocks never evict each other) and its last access faults
     once; the row names the block the policy must evict and the one it
     must keep.  Both are observed through the miss counter. *)
  let rows =
    [
      (* stamps 2@1 4@2 2@3; the clock sweeps both bits and comes back to 2 *)
      (Fa.Lru, [ 2; 4; 2; 6 ], 4, 2);
      (Fa.Mru, [ 2; 4; 2; 6 ], 2, 4);
      (Fa.Stack, [ 2; 4; 2; 6 ], 2, 4);
      (Fa.Clock, [ 2; 4; 2; 6 ], 2, 4);
      (* stamps 4@1 2@2 4@3: now the newest block is not the lowest *)
      (Fa.Lru, [ 4; 2; 4; 6 ], 2, 4);
      (Fa.Mru, [ 4; 2; 4; 6 ], 4, 2);
      (Fa.Stack, [ 4; 2; 4; 6 ], 2, 4);
      (Fa.Clock, [ 4; 2; 4; 6 ], 4, 2);
      (* no re-touch: Mru drops the block just loaded, Clock the first *)
      (Fa.Lru, [ 2; 4; 6 ], 2, 4);
      (Fa.Mru, [ 2; 4; 6 ], 4, 2);
      (Fa.Stack, [ 2; 4; 6 ], 2, 4);
      (Fa.Clock, [ 2; 4; 6 ], 2, 4);
    ]
  in
  List.iter
    (fun (policy, seq, evicted, kept) ->
      let d = Extmem.Device.in_memory ~block_size:4 () in
      ignore (Extmem.Device.allocate d 8);
      let c = cache ~policy ~frames:2 d in
      List.iter (fun b -> ignore (Fa.read_page c b)) seq;
      let label what =
        Printf.sprintf "%s %s: %s" (Fa.policy_to_string policy)
          (String.concat "," (List.map string_of_int seq))
          what
      in
      check Alcotest.int (label "one eviction") 1 (Fa.evictions c);
      let misses = Fa.misses c in
      ignore (Fa.read_page c kept);
      check Alcotest.int (label (Printf.sprintf "%d kept" kept)) misses (Fa.misses c);
      ignore (Fa.read_page c evicted);
      check Alcotest.int (label (Printf.sprintf "%d evicted" evicted)) (misses + 1) (Fa.misses c))
    rows

let test_cache_eviction_writeback_counters () =
  let d = Extmem.Device.in_memory ~block_size:4 () in
  ignore (Extmem.Device.allocate d 10);
  let c = cache ~policy:Fa.Lru ~frames:2 d in
  ignore (Fa.read_page c 0);   (* miss, empty frame *)
  ignore (Fa.read_page c 1);   (* miss, empty frame *)
  check Alcotest.int "no evictions while frames are free" 0 (Fa.evictions c);
  ignore (Fa.read_page c 2);   (* evicts clean block 0 *)
  check Alcotest.int "clean eviction counted" 1 (Fa.evictions c);
  check Alcotest.int "clean eviction writes nothing" 0 (Fa.writebacks c);
  Fa.write_page c 1 "x";       (* dirty block 1, now MRU *)
  ignore (Fa.read_page c 0);   (* evicts clean block 2 *)
  check Alcotest.int "second clean eviction" 2 (Fa.evictions c);
  check Alcotest.int "still no writeback" 0 (Fa.writebacks c);
  ignore (Fa.read_page c 2);   (* evicts dirty block 1 *)
  check Alcotest.int "dirty eviction counted" 3 (Fa.evictions c);
  check Alcotest.int "dirty eviction written back" 1 (Fa.writebacks c);
  Fa.flush c;
  check Alcotest.int "flush of clean frames writes nothing" 1 (Fa.writebacks c);
  check Alcotest.string "evicted write landed" (page 4 "x") (Fa.read_page c 1)

let test_cache_write_extends_device () =
  let d = Extmem.Device.in_memory ~block_size:4 () in
  let c = cache ~frames:2 d in
  Fa.write_page c 2 "z";
  Fa.flush c;
  check Alcotest.bool "extended" true (Extmem.Device.block_count d >= 3);
  check Alcotest.string "value" (page 4 "z") (Fa.read_page c 2)

let test_cache_policies_same_contents () =
  (* the policies evict different frames but must produce identical
     final device contents under the same read/write workload *)
  let run policy =
    let d = Extmem.Device.in_memory ~block_size:4 () in
    ignore (Extmem.Device.allocate d 16);
    let c = cache ~policy ~frames:3 d in
    let rng = ref 123456789 in
    for i = 0 to 499 do
      rng := (!rng * 1103515245) + 12345;
      let block = abs !rng mod 16 in
      if i mod 3 = 0 then ignore (Fa.read_page c block)
      else Fa.write_page c block (String.make (1 + (i mod 4)) (Char.chr (65 + (i mod 26))))
    done;
    Fa.flush c;
    Extmem.Device.contents d
  in
  let lru = run Fa.Lru in
  List.iter
    (fun p -> check Alcotest.string ("lru = " ^ Fa.policy_to_string p) lru (run p))
    Fa.all_policies

let test_cache_clean_evictions_cost_no_writes () =
  (* dirty-only write-back, asserted through the device's accounting:
     a read-only workload that overflows the pool many times over must
     not write a single block *)
  let check_policy policy =
    let d = Extmem.Device.in_memory ~block_size:4 () in
    ignore (Extmem.Device.allocate d 32);
    let c = cache ~policy ~frames:2 d in
    Extmem.Io_stats.reset (Extmem.Device.stats d);
    for i = 0 to 127 do
      ignore (Fa.read_page c (i mod 32))
    done;
    Fa.flush c;
    let s = Extmem.Device.stats d in
    check Alcotest.bool "evictions happened" true (Fa.misses c > 2);
    check Alcotest.int "clean evictions write nothing" 0 s.Extmem.Io_stats.writes;
    (* one dirty page: exactly the dirty frame is written back *)
    Fa.write_page c 0 "!";
    ignore (Fa.read_page c 2);
    ignore (Fa.read_page c 4);
    Fa.flush c;
    check Alcotest.int "only the dirty frame written" 1 s.Extmem.Io_stats.writes
  in
  List.iter check_policy Fa.all_policies

let prop_cache_matches_device =
  QCheck.Test.make ~name:"Cache read/write matches a plain byte array" ~count:150
    QCheck.(
      triple (int_range 1 4) (int_bound 3)
        (list (pair (int_bound 7) (string_of_size (Gen.int_bound 8)))))
    (fun (frames, pidx, writes) ->
      let policy = List.nth Fa.all_policies pidx in
      let d = Extmem.Device.in_memory ~block_size:8 () in
      ignore (Extmem.Device.allocate d 8);
      let c = cache ~policy ~frames d in
      let model = Bytes.make 64 '\000' in
      List.iter
        (fun (b, s) ->
          Fa.write_page c b s;
          Bytes.blit_string (page 8 s) 0 model (8 * b) 8)
        writes;
      let ok = ref true in
      for b = 0 to 7 do
        if Fa.read_page c b <> Bytes.sub_string model (8 * b) 8 then ok := false
      done;
      Fa.flush c;
      !ok && Extmem.Device.contents d = Bytes.to_string model)

type cache_op = Read of int | Write of int * string

let prop_cache_page_model =
  (* interleaved page reads and writes under every policy, some past the
     end of the device: every read must return the model's page at that
     moment (a read of an unallocated page is refused), the flushed
     device must equal the model, and the owner's counters must survive
     the detach *)
  QCheck.Test.make ~name:"Frame cache matches a page model under every policy" ~count:200
    QCheck.(
      triple (int_range 1 4) (int_bound 3)
        (list
           (map
              (fun (w, b, s) -> if w then Write (b, s) else Read b)
              (triple bool (int_bound 11) (string_of_size (Gen.int_bound 8))))))
    (fun (frames, pidx, ops) ->
      let policy = List.nth Fa.all_policies pidx in
      let d = Extmem.Device.in_memory ~block_size:8 () in
      ignore (Extmem.Device.allocate d 8);
      let arena = Fa.create () in
      let c = Fa.attach arena ~who:"prop" ~policy ~frames d in
      let model = ref (Array.make 8 (page 8 "")) in
      let ok = ref true in
      List.iter
        (function
          | Write (b, s) ->
              Fa.write_page c b s;
              let m = !model in
              if b >= Array.length m then
                model := Array.init (b + 1) (fun i -> if i < Array.length m then m.(i) else page 8 "");
              !model.(b) <- page 8 s
          | Read b -> (
              match Fa.read_page c b with
              | got -> if b >= Array.length !model || got <> !model.(b) then ok := false
              | exception Invalid_argument _ -> if b < Array.length !model then ok := false))
        ops;
      Fa.flush c;
      let same = Extmem.Device.contents d = String.concat "" (Array.to_list !model) in
      Fa.detach c;
      let survived =
        List.mem_assoc "prop" (Fa.owners arena)
        && (Fa.totals arena).Fa.misses = Fa.misses c
      in
      !ok && same && survived)

(* ------------------------------------------------------------------ *)
(* Btree *)

let new_btree ?(block_size = 128) ?(frames = 4) () =
  let dev = Extmem.Device.in_memory ~block_size () in
  (Extmem.Btree.create ~frames ~cmp:compare dev, dev)

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

let test_btree_policies () =
  (* the policy reaches the tree's buffer pool: one insert/find workload
     on a 3-frame pool answers identically under every policy, and the
     policies do not all fault the same pages in *)
  let run policy =
    let d = Extmem.Device.in_memory ~block_size:256 () in
    let t = Extmem.Btree.create ~policy ~frames:3 ~cmp:compare d in
    for i = 0 to 399 do
      let k = Printf.sprintf "%05d" ((i * 48271) mod 99991) in
      Extmem.Btree.insert t ~key:k ~value:("v" ^ k)
    done;
    (* keys 3i for i < 134 were inserted, the rest are absent *)
    let finds =
      List.init 200 (fun i ->
          Extmem.Btree.find t (Printf.sprintf "%05d" (3 * i * 48271 mod 99991)))
    in
    (finds, Fa.misses (Extmem.Btree.cache t))
  in
  let runs = List.map run Fa.all_policies in
  let finds, _ = List.hd runs in
  List.iter2
    (fun p (f, _) ->
      check
        (Alcotest.list (Alcotest.option Alcotest.string))
        ("finds under " ^ Fa.policy_to_string p)
        finds f)
    Fa.all_policies runs;
  check Alcotest.int "finds that hit" 134 (List.length (List.filter Option.is_some finds));
  let misses = List.sort_uniq compare (List.map snd runs) in
  check Alcotest.bool "at least two distinct miss counts" true (List.length misses >= 2)

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

let test_btree_delete () =
  let t, _ = new_btree () in
  List.iter (fun k -> Extmem.Btree.insert t ~key:k ~value:k) [ "a"; "b"; "c" ];
  check Alcotest.bool "delete b" true (Extmem.Btree.delete t "b");
  check Alcotest.bool "delete again" false (Extmem.Btree.delete t "b");
  check Alcotest.int "length" 2 (Extmem.Btree.length t);
  check (Alcotest.option Alcotest.string) "gone" None (Extmem.Btree.find t "b");
  check (Alcotest.option Alcotest.string) "others intact" (Some "a") (Extmem.Btree.find t "a")

let test_btree_persistence () =
  let dev = Extmem.Device.in_memory ~block_size:128 () in
  let t = Extmem.Btree.create ~cmp:compare dev in
  for i = 0 to 199 do
    Extmem.Btree.insert t ~key:(Printf.sprintf "k%03d" i) ~value:(string_of_int i)
  done;
  Extmem.Btree.flush t;
  let t2 = Extmem.Btree.reopen ~cmp:compare dev in
  check Alcotest.int "count preserved" 200 (Extmem.Btree.length t2);
  check (Alcotest.option Alcotest.string) "lookup after reopen" (Some "123")
    (Extmem.Btree.find t2 "k123")

let test_btree_entry_too_large () =
  let t, _ = new_btree ~block_size:128 () in
  try
    Extmem.Btree.insert t ~key:(String.make 100 'k') ~value:(String.make 100 'v');
    Alcotest.fail "expected Invalid_argument"
  with Invalid_argument _ -> ()

let test_btree_custom_order () =
  let dev = Extmem.Device.in_memory ~block_size:128 () in
  let cmp a b = compare b a (* descending *) in
  let t = Extmem.Btree.create ~cmp dev in
  List.iter (fun k -> Extmem.Btree.insert t ~key:k ~value:k) [ "a"; "b"; "c" ];
  let got = ref [] in
  Extmem.Btree.iter t (fun k _ -> got := k :: !got);
  check (Alcotest.list Alcotest.string) "descending" [ "a"; "b"; "c" ] !got

let prop_btree_matches_map =
  (* model-based: random insert/replace/delete/lookup traces *)
  QCheck.Test.make ~name:"Btree behaves like Map" ~count:120
    QCheck.(
      pair (int_range 96 256)
        (list (pair (int_bound 3) (pair (int_bound 60) (string_of_size (QCheck.Gen.int_bound 6))))))
    (fun (block_size, ops) ->
      let dev = Extmem.Device.in_memory ~block_size () in
      let t = Extmem.Btree.create ~frames:3 ~cmp:compare dev in
      let model = Hashtbl.create 32 in
      List.iter
        (fun (op, (kn, v)) ->
          let k = Printf.sprintf "k%02d" kn in
          match op with
          | 0 | 1 ->
              Extmem.Btree.insert t ~key:k ~value:v;
              Hashtbl.replace model k v
          | 2 ->
              let got = Extmem.Btree.delete t k in
              let want = Hashtbl.mem model k in
              Hashtbl.remove model k;
              if got <> want then QCheck.Test.fail_reportf "delete %s: %b vs %b" k got want
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

let prop_btree_survives_reopen =
  QCheck.Test.make ~name:"Btree reopen preserves contents" ~count:60
    QCheck.(list (pair (int_bound 99) (string_of_size (QCheck.Gen.int_bound 8))))
    (fun kvs ->
      let dev = Extmem.Device.in_memory ~block_size:128 () in
      let t = Extmem.Btree.create ~cmp:compare dev in
      List.iter (fun (k, v) -> Extmem.Btree.insert t ~key:(Printf.sprintf "%02d" k) ~value:v) kvs;
      Extmem.Btree.flush t;
      let t2 = Extmem.Btree.reopen ~cmp:compare dev in
      List.for_all
        (fun (k, _) ->
          Extmem.Btree.find t2 (Printf.sprintf "%02d" k)
          = Extmem.Btree.find t (Printf.sprintf "%02d" k))
        kvs)

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
      let loader = Extmem.Btree.bulk_loader ~cmp:compare bulk_dev in
      List.iter (fun (key, value) -> Extmem.Btree.bulk_add loader ~key ~value) entries;
      let bulk = Extmem.Btree.bulk_finish loader in
      let ins = Extmem.Btree.create ~cmp:compare (Extmem.Device.in_memory ~block_size ()) in
      List.iter (fun (key, value) -> Extmem.Btree.insert ins ~key ~value) entries;
      let all t =
        let got = ref [] in
        Extmem.Btree.iter t (fun k v -> got := (k, v) :: !got);
        List.rev !got
      in
      let probes = List.init 8 (fun i -> Printf.sprintf "k%05d" (i * 97)) @ List.map fst entries in
      let same_finds t = List.for_all (fun k -> Extmem.Btree.find t k = Extmem.Btree.find ins k) probes in
      Extmem.Btree.flush bulk;
      let reopened = Extmem.Btree.reopen ~cmp:compare bulk_dev in
      if all bulk <> all ins then QCheck.Test.fail_report "iter differs";
      if Extmem.Btree.length bulk <> Extmem.Btree.length ins then
        QCheck.Test.fail_reportf "length %d vs %d" (Extmem.Btree.length bulk)
          (Extmem.Btree.length ins);
      if not (same_finds bulk) then QCheck.Test.fail_report "find differs";
      if all reopened <> all ins || Extmem.Btree.length reopened <> Extmem.Btree.length ins
         || not (same_finds reopened)
      then QCheck.Test.fail_report "differs after flush + reopen";
      if Extmem.Btree.height bulk > Extmem.Btree.height ins then
        QCheck.Test.fail_reportf "height %d > %d" (Extmem.Btree.height bulk)
          (Extmem.Btree.height ins);
      true)

let test_btree_bulk_rejects () =
  let loader = Extmem.Btree.bulk_loader ~cmp:compare (Extmem.Device.in_memory ~block_size:128 ()) in
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
  check Alcotest.int "available bytes" (6 * 64) (Extmem.Memory_budget.available_bytes b);
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
(* composable device stack: layers, specs, simulated cost *)

(* One semantics for faults: a faulty layer is an interceptor beneath
   the accounting, so wherever it sits in the spec a faulted I/O is seen
   by nothing — not counted, traced, charged or timed — while the same
   subscribers see every I/O that completes. *)
let test_layers_compose () =
  List.iter
    (fun (spec, faults) ->
      let built = Extmem.Device_spec.build ~block_size:8 (Extmem.Device_spec.parse spec) in
      let d = built.Extmem.Device_spec.device in
      let trace, cost =
        match (built.Extmem.Device_spec.trace, built.Extmem.Device_spec.cost) with
        | Some t, Some c -> (t, c)
        | _ -> Alcotest.failf "%s: missing a trace or cost handle" spec
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
      check Alcotest.int (spec ^ ": cost meter") done_ (Extmem.Cost_model.charged cost);
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
      ("traced/faulty:p=1,seed=1/cost/mem", true);
      ("cost/faulty:p=1,seed=1/traced/mem", true);
      ("traced/cost/mem", false);
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
      "traced/faulty:p=0.5,seed=7/cost:seek=8,read=0.05,write=0.06/mem";
    ]

let test_device_spec_malformed () =
  List.iter
    (fun s ->
      match Extmem.Device_spec.parse s with
      | _ -> Alcotest.failf "expected %S to be rejected" s
      | exception Invalid_argument _ -> ())
    [ ""; "bogus"; "traced"; "mem/traced"; "faulty:p=2/mem"; "faulty:p=x/mem";
      "cost:profile=tape/mem"; "file:"; "/mem"; "traced/" ]

let test_device_spec_build () =
  let built =
    Extmem.Device_spec.build ~block_size:8
      (Extmem.Device_spec.parse "traced/cost:profile=ssd/mem")
  in
  let d = built.Extmem.Device_spec.device in
  check Alcotest.bool "trace handle" true (built.Extmem.Device_spec.trace <> None);
  check Alcotest.bool "cost handle" true (built.Extmem.Device_spec.cost <> None);
  ignore (Extmem.Device.allocate d 2);
  Extmem.Device.write_block d 0 (Bytes.make 8 'a');
  Extmem.Device.write_block d 1 (Bytes.make 8 'b');
  (match built.Extmem.Device_spec.trace with
  | Some t -> check (Alcotest.list Alcotest.int) "trace" [ 0; 1 ] (Extmem.Trace.blocks t)
  | None -> ());
  check Alcotest.bool "simulated time accrued" true (Extmem.Device.simulated_ms d > 0.)

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

let test_cost_layer () =
  (* same number of I/Os, different layout: the sequential scan must be
     charged far less simulated time than the strided pattern *)
  let scan ~stride =
    let d = Extmem.Device.in_memory ~block_size:4 () in
    ignore (Extmem.Device.allocate d 64);
    let c = Extmem.Device.attach_cost d in
    let buf = Bytes.create 4 in
    for i = 0 to 63 do
      Extmem.Device.read_block d (i * stride mod 64) buf
    done;
    check Alcotest.int "accesses charged" 64 (Extmem.Cost_model.charged c);
    (Extmem.Cost_model.seeks c, Extmem.Device.simulated_ms d)
  in
  let seq_seeks, seq_ms = scan ~stride:1 in
  let rand_seeks, rand_ms = scan ~stride:17 in
  check Alcotest.int "one positioning seek" 1 seq_seeks;
  check Alcotest.int "every strided access seeks" 64 rand_seeks;
  check Alcotest.bool "seeky pattern costs more" true (rand_ms > 10. *. seq_ms);
  (* ssd narrows the gap: seeks are nearly free *)
  let d = Extmem.Device.in_memory ~block_size:4 () in
  ignore (Extmem.Device.allocate d 4);
  let c = Extmem.Device.attach_cost ~params:Extmem.Cost_model.ssd d in
  Extmem.Device.write_block d 3 (Bytes.make 4 'z');
  check Alcotest.bool "ssd write charged" true (Extmem.Cost_model.elapsed_ms c < 1.)

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
        ] );
      ( "stack",
        [
          Alcotest.test_case "layers compose" `Quick test_layers_compose;
          Alcotest.test_case "spec roundtrip" `Quick test_device_spec_roundtrip;
          Alcotest.test_case "spec malformed" `Quick test_device_spec_malformed;
          Alcotest.test_case "spec build" `Quick test_device_spec_build;
          Alcotest.test_case "faulty deterministic" `Quick test_faulty_deterministic;
          Alcotest.test_case "cost layer" `Quick test_cost_layer;
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
          Alcotest.test_case "reserve/install" `Quick test_run_store_reserve_install;
        ] );
      ( "ext_stack",
        [
          Alcotest.test_case "basic" `Quick test_ext_stack_basic;
          Alcotest.test_case "spills" `Quick test_ext_stack_spills;
          Alcotest.test_case "no io when resident" `Quick test_ext_stack_no_io_when_resident;
          Alcotest.test_case "paging counters" `Quick test_ext_stack_paging_counters;
          Alcotest.test_case "large entry" `Quick test_ext_stack_large_entry;
          Alcotest.test_case "scan and truncate" `Quick test_ext_stack_scan_and_truncate;
          Alcotest.test_case "interleaved after spill" `Quick test_ext_stack_interleaved_after_spill;
          Alcotest.test_case "borrow window" `Quick test_ext_stack_borrow_window;
          Alcotest.test_case "borrow released on truncate" `Quick
            test_ext_stack_borrow_release_on_truncate;
          Alcotest.test_case "borrow stops at exhaustion" `Quick
            test_ext_stack_borrow_stops_at_exhaustion;
          Alcotest.test_case "shed dirty ledger" `Quick test_ext_stack_shed_dirty_ledger;
          Alcotest.test_case "shed nothing borrowed" `Quick
            test_ext_stack_shed_nothing_borrowed;
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
          Alcotest.test_case "lru basics" `Quick (cache_test Fa.Lru);
          Alcotest.test_case "clock basics" `Quick (cache_test Fa.Clock);
          Alcotest.test_case "lru eviction order" `Quick test_cache_lru_eviction_order;
          Alcotest.test_case "victim order per policy" `Quick test_cache_victim_order;
          Alcotest.test_case "write extends device" `Quick test_cache_write_extends_device;
          Alcotest.test_case "policies agree on contents" `Quick test_cache_policies_same_contents;
          Alcotest.test_case "dirty-only writeback" `Quick test_cache_clean_evictions_cost_no_writes;
          Alcotest.test_case "eviction/writeback counters" `Quick
            test_cache_eviction_writeback_counters;
          qcheck prop_cache_matches_device;
          qcheck prop_cache_page_model;
        ] );
      ( "btree",
        [
          Alcotest.test_case "basic" `Quick test_btree_basic;
          Alcotest.test_case "splits and order" `Quick test_btree_splits_and_order;
          Alcotest.test_case "iter_from" `Quick test_btree_iter_from;
          Alcotest.test_case "delete" `Quick test_btree_delete;
          Alcotest.test_case "persistence" `Quick test_btree_persistence;
          Alcotest.test_case "entry too large" `Quick test_btree_entry_too_large;
          Alcotest.test_case "custom order" `Quick test_btree_custom_order;
          Alcotest.test_case "policies agree on finds" `Quick test_btree_policies;
          qcheck prop_btree_matches_map;
          qcheck prop_btree_survives_reopen;
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
