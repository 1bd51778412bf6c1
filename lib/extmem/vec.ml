type 'a t = {
  mutable data : 'a array;
  mutable len : int;
}

let create () = { data = [||]; len = 0 }

let length v = v.len

let is_empty v = v.len = 0

let check v i =
  if i < 0 || i >= v.len then
    invalid_arg (Printf.sprintf "Vec: index %d out of bounds (length %d)" i v.len)

let get v i = check v i; v.data.(i)

let set v i x = check v i; v.data.(i) <- x

let grow v x =
  let cap = Array.length v.data in
  let cap' = if cap = 0 then 8 else cap * 2 in
  let data' = Array.make cap' x in
  Array.blit v.data 0 data' 0 v.len;
  v.data <- data'

let push v x =
  if v.len = Array.length v.data then grow v x;
  v.data.(v.len) <- x;
  v.len <- v.len + 1

let pop v =
  if v.len = 0 then invalid_arg "Vec.pop: empty";
  v.len <- v.len - 1;
  v.data.(v.len)

let top v =
  if v.len = 0 then invalid_arg "Vec.top: empty";
  v.data.(v.len - 1)

let clear v = v.len <- 0

let truncate v n = if n < v.len then v.len <- max 0 n

let iter f v =
  for i = 0 to v.len - 1 do
    f v.data.(i)
  done

let iteri f v =
  for i = 0 to v.len - 1 do
    f i v.data.(i)
  done

let fold_left f acc v =
  let acc = ref acc in
  for i = 0 to v.len - 1 do
    acc := f !acc v.data.(i)
  done;
  !acc

let to_list v = List.init v.len (fun i -> v.data.(i))

let of_list xs =
  let v = create () in
  List.iter (push v) xs;
  v

let to_array v = Array.sub v.data 0 v.len

let sort cmp v =
  let a = to_array v in
  Array.sort cmp a;
  Array.blit a 0 v.data 0 v.len
