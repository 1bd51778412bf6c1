(* Page layout (one block per node):
     meta page (block [meta_block]): magic u8, root varint, count varint,
       next_free varint (allocation frontier within the tree's region)
     leaf:     u8 0, next_leaf+1 varint (0 = none), n varint,
               n * (key string, value string)
     internal: u8 1, n varint, child_0 varint, n * (key_i, child_i+1)
   All node references are device block indices. *)

type node =
  | Leaf of {
      mutable next : int option;
      mutable entries : (string * string) list; (* ascending *)
    }
  | Internal of {
      mutable children : int list;  (* n+1 children *)
      mutable seps : string list;   (* n separators; subtree i holds keys < seps.(i) *)
    }

(* The buffer pool: [frames] page frames on a lease from the caller's
   arena, faulted in block by block, evicted least-recently-touched
   first and written back only when dirty.  A free frame has stamp 0,
   below every touched frame's, so the least-stamped frame is always the
   victim: a free one while any is left. *)
type frame = {
  mutable block : int; (* -1 = free *)
  data : bytes;
  mutable dirty : bool;
  mutable stamp : int; (* tick of the last touch *)
}

type stats = {
  hits : int;
  misses : int;
  evictions : int;
  writebacks : int;
}

type t = {
  dev : Device.t;
  arena : Frame_arena.t;
  lease : Frame_arena.lease;
  frames : frame array;
  map : (int, int) Hashtbl.t; (* block -> frame index *)
  mutable tick : int;
  mutable hits : int;
  mutable misses : int;
  mutable evictions : int;
  mutable writebacks : int;
  cmp : string -> string -> int;
  meta_block : int;
  mutable root : int;
  mutable count : int;
}

let magic = 0xB7

let max_entry t = Device.block_size t.dev / 4

(* ---- node (de)serialization ---- *)

let encode_node node =
  let b = Buffer.create 256 in
  (match node with
  | Leaf l ->
      Codec.put_u8 b 0;
      Codec.put_varint b (match l.next with Some n -> n + 1 | None -> 0);
      Codec.put_varint b (List.length l.entries);
      List.iter
        (fun (k, v) ->
          Codec.put_string b k;
          Codec.put_string b v)
        l.entries
  | Internal i ->
      Codec.put_u8 b 1;
      Codec.put_varint b (List.length i.seps);
      (match i.children with
      | first :: _ -> Codec.put_varint b first
      | [] -> invalid_arg "Btree: internal node without children");
      List.iter2
        (fun sep child ->
          Codec.put_string b sep;
          Codec.put_varint b child)
        i.seps (List.tl i.children));
  Buffer.contents b

let decode_node s =
  let c = Codec.cursor s in
  match Codec.get_u8 c with
  | 0 ->
      let next = Codec.get_varint c in
      let n = Codec.get_varint c in
      let rec entries n acc =
        if n = 0 then List.rev acc
        else begin
          let k = Codec.get_string c in
          let v = Codec.get_string c in
          entries (n - 1) ((k, v) :: acc)
        end
      in
      Leaf { next = (if next = 0 then None else Some (next - 1)); entries = entries n [] }
  | 1 ->
      let n = Codec.get_varint c in
      let first = Codec.get_varint c in
      let rec rest n seps children =
        if n = 0 then (List.rev seps, List.rev children)
        else begin
          let sep = Codec.get_string c in
          let child = Codec.get_varint c in
          rest (n - 1) (sep :: seps) (child :: children)
        end
      in
      let seps, children = rest n [] [] in
      Internal { children = first :: children; seps }
  | k -> raise (Codec.Corrupt (Printf.sprintf "Btree: bad node kind %d" k))

(* ---- buffer pool ---- *)

let write_back t f =
  if f.dirty then begin
    Device.write_block t.dev f.block f.data;
    f.dirty <- false;
    t.writebacks <- t.writebacks + 1
  end

let victim t =
  let best = ref 0 in
  Array.iteri (fun i f -> if f.stamp < t.frames.(!best).stamp then best := i) t.frames;
  !best

(* The frame holding [block] (allocated on the device), faulting it in
   on a miss. *)
let frame_for t block =
  let f =
    match Hashtbl.find_opt t.map block with
    | Some i ->
        t.hits <- t.hits + 1;
        t.frames.(i)
    | None ->
        t.misses <- t.misses + 1;
        let i = victim t in
        let f = t.frames.(i) in
        if f.block <> -1 then begin
          t.evictions <- t.evictions + 1;
          write_back t f;
          Hashtbl.remove t.map f.block
        end;
        Device.read_block t.dev block f.data;
        f.block <- block;
        Hashtbl.replace t.map block i;
        f
  in
  t.tick <- t.tick + 1;
  f.stamp <- t.tick;
  f

let read_page t block = Bytes.to_string (frame_for t block).data

let write_page t block s =
  let f = frame_for t block in
  Bytes.fill f.data 0 (Bytes.length f.data) '\000';
  Bytes.blit_string s 0 f.data 0 (String.length s);
  f.dirty <- true

let load t block = decode_node (read_page t block)

let store t block node = write_page t block (encode_node node)

let node_fits t node = String.length (encode_node node) <= Device.block_size t.dev

(* ---- meta page ---- *)

let write_meta t =
  let b = Buffer.create 16 in
  Codec.put_u8 b magic;
  Codec.put_varint b t.root;
  Codec.put_varint b t.count;
  write_page t t.meta_block (Buffer.contents b)

let alloc_block t =
  let block = Device.allocate t.dev 1 in
  block

(* A tree whose meta page is the next block of [dev], its buffer pool
   leased from [arena]. *)
let fresh ~arena ?(frames = 8) ~cmp dev =
  if frames < 1 then invalid_arg "Btree: frames must be >= 1";
  let lease = Frame_arena.lease arena ~who:"btree" frames in
  let bs = Device.block_size dev in
  {
    dev;
    arena;
    lease;
    frames =
      Array.init frames (fun _ ->
          { block = -1; data = Frame_arena.take arena bs; dirty = false; stamp = 0 });
    map = Hashtbl.create (2 * frames);
    tick = 0;
    hits = 0;
    misses = 0;
    evictions = 0;
    writebacks = 0;
    cmp;
    meta_block = Device.allocate dev 1;
    root = 0;
    count = 0;
  }

let create ~arena ?frames ~cmp dev =
  let t = fresh ~arena ?frames ~cmp dev in
  let root = alloc_block t in
  t.root <- root;
  store t root (Leaf { next = None; entries = [] });
  write_meta t;
  t

let length t = t.count

let flush t =
  write_meta t;
  Array.iter (fun f -> if f.block <> -1 then write_back t f) t.frames

let close t =
  if Frame_arena.lease_blocks t.lease > 0 then begin
    Array.iter (fun f -> Frame_arena.give t.arena f.data) t.frames;
    Hashtbl.reset t.map;
    Frame_arena.close_lease t.lease
  end

let stats t =
  { hits = t.hits; misses = t.misses; evictions = t.evictions; writebacks = t.writebacks }

(* ---- search ---- *)

(* index of the child subtree of an internal node that may hold [key]:
   child i covers keys < seps.(i) (and the last child the rest) *)
let child_for t seps key =
  let rec go i = function
    | [] -> i
    | sep :: rest -> if t.cmp key sep < 0 then i else go (i + 1) rest
  in
  go 0 seps

let rec find_in t block key =
  match load t block with
  | Leaf l -> List.find_map (fun (k, v) -> if t.cmp k key = 0 then Some v else None) l.entries
  | Internal i -> find_in t (List.nth i.children (child_for t i.seps key)) key

let find t key = find_in t t.root key

let mem t key = find t key <> None

(* ---- insertion ---- *)

type split_result =
  | Ok_no_split
  | Split of string * int (* separator, new right sibling block *)

let varint_size n =
  let rec go n acc = if n < 0x80 then acc else go (n lsr 7) (acc + 1) in
  go n 1

let string_size s = varint_size (String.length s) + String.length s

let entry_size (k, v) = string_size k + string_size v

let split_leaf t block (l : (string * string) list) next =
  let n = List.length l in
  let rec take k acc = function
    | rest when k = 0 -> (List.rev acc, rest)
    | [] -> (List.rev acc, [])
    | x :: tl -> take (k - 1) (x :: acc) tl
  in
  let fits entries = node_fits t (Leaf { next; entries }) in
  let left, right =
    match take (n / 2) [] l with
    | left, right when fits left && fits right -> (left, right)
    | _ ->
        (* entries of very different sizes: halve the bytes instead of
           the count (each half then stays under half a block plus
           1.5 quarter-block entries) *)
        let total = List.fold_left (fun acc e -> acc + entry_size e) 0 l in
        let rec cut k acc = function
          | e :: rest when 2 * (acc + entry_size e) <= total -> cut (k + 1) (acc + entry_size e) rest
          | _ -> k
        in
        take (max 1 (cut 0 0 l)) [] l
  in
  match right with
  | [] -> invalid_arg "Btree: entry too large to split"
  | (sep, _) :: _ ->
      let right_block = alloc_block t in
      store t right_block (Leaf { next; entries = right });
      store t block (Leaf { next = Some right_block; entries = left });
      Split (sep, right_block)

let split_internal t block children seps =
  let n = List.length seps in
  let mid = n / 2 in
  let rec split_at i seps children lsep lchild =
    match (seps, children) with
    | sep :: seps', child :: children' when i < mid ->
        split_at (i + 1) seps' children' (sep :: lsep) (child :: lchild)
    | sep :: seps', child :: children' ->
        (* sep is promoted; its right child becomes the right node's first *)
        (List.rev lsep, List.rev lchild, sep, seps', child :: children')
    | _ -> invalid_arg "Btree: malformed internal split"
  in
  match children with
  | first :: rest ->
      let lseps, lchildren, promoted, rseps, rchildren = split_at 0 seps rest [] [ first ] in
      let right_block = alloc_block t in
      store t right_block (Internal { children = rchildren; seps = rseps });
      store t block (Internal { children = lchildren; seps = lseps });
      Split (promoted, right_block)
  | [] -> invalid_arg "Btree: internal node without children"

let rec insert_in t block key value =
  match load t block with
  | Leaf l ->
      let rec place = function
        | [] -> [ (key, value) ]
        | (k, _) :: rest when t.cmp k key = 0 ->
            t.count <- t.count - 1; (* replacement: net count unchanged *)
            (key, value) :: rest
        | (k, v) :: rest when t.cmp k key < 0 -> (k, v) :: place rest
        | rest -> (key, value) :: rest
      in
      let entries = place l.entries in
      t.count <- t.count + 1;
      let node = Leaf { next = l.next; entries } in
      if node_fits t node then begin
        store t block node;
        Ok_no_split
      end
      else split_leaf t block entries l.next
  | Internal i -> (
      let idx = child_for t i.seps key in
      let child = List.nth i.children idx in
      match insert_in t child key value with
      | Ok_no_split -> Ok_no_split
      | Split (sep, right) ->
          let children = List.filteri (fun j _ -> j <= idx) i.children
                         @ [ right ]
                         @ List.filteri (fun j _ -> j > idx) i.children in
          let seps = List.filteri (fun j _ -> j < idx) i.seps
                     @ [ sep ]
                     @ List.filteri (fun j _ -> j >= idx) i.seps in
          let node = Internal { children; seps } in
          if node_fits t node then begin
            store t block node;
            Ok_no_split
          end
          else split_internal t block children seps)

let insert t ~key ~value =
  if String.length key + String.length value > max_entry t then
    invalid_arg "Btree.insert: entry exceeds a quarter block";
  (match insert_in t t.root key value with
  | Ok_no_split -> ()
  | Split (sep, right) ->
      let new_root = alloc_block t in
      store t new_root (Internal { children = [ t.root; right ]; seps = [ sep ] });
      t.root <- new_root);
  write_meta t

(* ---- iteration ---- *)

let rec leftmost_leaf_for t block key =
  match load t block with
  | Leaf _ -> block
  | Internal i -> leftmost_leaf_for t (List.nth i.children (child_for t i.seps key)) key

let iter_from t key f =
  let rec walk block skip_lower =
    match load t block with
    | Internal _ -> assert false
    | Leaf l ->
        let continue =
          List.for_all
            (fun (k, v) -> if skip_lower && t.cmp k key < 0 then true else f k v)
            l.entries
        in
        if continue then
          match l.next with
          | Some next -> walk next false
          | None -> ()
  in
  walk (leftmost_leaf_for t t.root key) true

let iter t f =
  (* start from the globally leftmost leaf *)
  let rec leftmost block =
    match load t block with
    | Leaf _ -> block
    | Internal i -> leftmost (List.hd i.children)
  in
  let rec walk block =
    match load t block with
    | Internal _ -> assert false
    | Leaf l ->
        List.iter (fun (k, v) -> f k v) l.entries;
        (match l.next with
        | Some next -> walk next
        | None -> ())
  in
  walk (leftmost t.root)

let height t =
  let rec go block acc =
    match load t block with
    | Leaf _ -> acc
    | Internal i -> go (List.hd i.children) (acc + 1)
  in
  go t.root 1

(* ---- bulk loading ----

   Bottom-up construction from a sorted stream: the leaf being filled
   and one open internal node per level are the only nodes in memory.
   A node is written once, when the next entry (or child) would overflow
   it; its smallest key then becomes its separator in the level above.
   The newest entry is held back until a strictly greater key arrives, so
   an equal key can still replace it. *)

type level = {
  mutable lo : string; (* smallest key below the node: its separator upstairs *)
  mutable first : int; (* leftmost child *)
  mutable rest : (string * int) list; (* (separator, child), newest first *)
  mutable n : int;
  mutable bytes : int; (* serialized size of [rest] *)
}

type loader = {
  tree : t;
  page : Bytes.t;
  mutable last : (string * string) option;
  mutable leaf_block : int;
  mutable leaf_lo : string;
  mutable leaf : (string * string) list; (* newest first *)
  mutable leaf_n : int;
  mutable leaf_bytes : int;
  mutable levels : level list; (* lowest internal level first *)
}

let bulk_loader ~arena ?frames ~cmp dev =
  let tree = fresh ~arena ?frames ~cmp dev in
  {
    tree;
    page = Bytes.create (Device.block_size dev);
    last = None;
    leaf_block = alloc_block tree;
    leaf_lo = "";
    leaf = [];
    leaf_n = 0;
    leaf_bytes = 0;
    levels = [];
  }

let write_direct ld block node =
  let s = encode_node node in
  Bytes.fill ld.page 0 (Bytes.length ld.page) '\000';
  Bytes.blit_string s 0 ld.page 0 (String.length s);
  Device.write_block ld.tree.dev block ld.page

let write_leaf ld ~next =
  write_direct ld ld.leaf_block (Leaf { next; entries = List.rev ld.leaf })

let write_internal ld l =
  let block = alloc_block ld.tree in
  write_direct ld block
    (Internal
       { children = l.first :: List.rev_map snd l.rest; seps = List.rev_map fst l.rest });
  block

let rec push_up ld i ~lo block =
  match List.nth_opt ld.levels i with
  | None -> ld.levels <- ld.levels @ [ { lo; first = block; rest = []; n = 0; bytes = 0 } ]
  | Some l ->
      let add = string_size lo + varint_size block in
      if 1 + varint_size (l.n + 1) + varint_size l.first + l.bytes + add
         <= Device.block_size ld.tree.dev
      then begin
        l.rest <- (lo, block) :: l.rest;
        l.n <- l.n + 1;
        l.bytes <- l.bytes + add
      end
      else begin
        push_up ld (i + 1) ~lo:l.lo (write_internal ld l);
        l.lo <- lo;
        l.first <- block;
        l.rest <- [];
        l.n <- 0;
        l.bytes <- 0
      end

(* Append an entry to the open leaf, first writing the leaf out (chained
   to a freshly allocated successor) when the entry would overflow it. *)
let place ld (k, v) =
  let dev = ld.tree.dev in
  let e = entry_size (k, v) in
  (* the successor will be the next block allocated *)
  if ld.leaf_n > 0
     && 1 + varint_size (Device.block_count dev + 1) + varint_size (ld.leaf_n + 1)
        + ld.leaf_bytes + e
        > Device.block_size dev
  then begin
    let next = alloc_block ld.tree in
    write_leaf ld ~next:(Some next);
    push_up ld 0 ~lo:ld.leaf_lo ld.leaf_block;
    ld.leaf_block <- next;
    ld.leaf <- [];
    ld.leaf_n <- 0;
    ld.leaf_bytes <- 0
  end;
  if ld.leaf_n = 0 then ld.leaf_lo <- k;
  ld.leaf <- (k, v) :: ld.leaf;
  ld.leaf_n <- ld.leaf_n + 1;
  ld.leaf_bytes <- ld.leaf_bytes + e;
  ld.tree.count <- ld.tree.count + 1

let bulk_add ld ~key ~value =
  if String.length key + String.length value > max_entry ld.tree then
    invalid_arg "Btree.bulk_add: entry exceeds a quarter block";
  match ld.last with
  | Some (k, _) when ld.tree.cmp k key > 0 -> invalid_arg "Btree.bulk_add: keys out of order"
  | Some (k, _) when ld.tree.cmp k key = 0 -> ld.last <- Some (key, value)
  | last ->
      Option.iter (place ld) last;
      ld.last <- Some (key, value)

let bulk_finish ld =
  Option.iter (place ld) ld.last;
  write_leaf ld ~next:None;
  let t = ld.tree in
  t.root <-
    (if ld.levels = [] then ld.leaf_block
     else begin
       push_up ld 0 ~lo:ld.leaf_lo ld.leaf_block;
       (* close the open node of every level, bottom up; the topmost is
          the root *)
       let rec close i =
         let l = List.nth ld.levels i in
         let block = write_internal ld l in
         if i + 1 < List.length ld.levels then begin
           push_up ld (i + 1) ~lo:l.lo block;
           close (i + 1)
         end
         else block
       in
       close 0
     end);
  write_meta t;
  t
