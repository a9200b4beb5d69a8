(* Array-backed binary min-heap on (time, seq) keys.  seq is a
   monotonically increasing insertion counter, so equal-time events pop
   in push order. *)

type 'a entry = { time : float; seq : int; payload : 'a }

type 'a t = {
  mutable data : 'a entry array;
  mutable size : int;
  mutable next_seq : int;
  hint : int;
}

(* The backing array is allocated on first push (an empty array needs
   no dummy element); [capacity] sizes that first allocation. *)
let create ?(capacity = 16) () =
  { data = [||]; size = 0; next_seq = 0; hint = max capacity 1 }

let length q = q.size
let is_empty q = q.size = 0

let lt a b = a.time < b.time || (a.time = b.time && a.seq < b.seq)

let ensure_capacity q entry =
  if q.size = Array.length q.data then begin
    let cap = max q.hint (2 * Array.length q.data) in
    let data = Array.make cap entry in
    Array.blit q.data 0 data 0 q.size;
    q.data <- data
  end

let rec sift_up q i =
  if i > 0 then begin
    let parent = (i - 1) / 2 in
    if lt q.data.(i) q.data.(parent) then begin
      let tmp = q.data.(i) in
      q.data.(i) <- q.data.(parent);
      q.data.(parent) <- tmp;
      sift_up q parent
    end
  end

let rec sift_down q i =
  let l = (2 * i) + 1 and r = (2 * i) + 2 in
  let smallest = ref i in
  if l < q.size && lt q.data.(l) q.data.(!smallest) then smallest := l;
  if r < q.size && lt q.data.(r) q.data.(!smallest) then smallest := r;
  if !smallest <> i then begin
    let tmp = q.data.(i) in
    q.data.(i) <- q.data.(!smallest);
    q.data.(!smallest) <- tmp;
    sift_down q !smallest
  end

let push q time payload =
  if Float.is_nan time then invalid_arg "Event_queue.push: NaN timestamp";
  let entry = { time; seq = q.next_seq; payload } in
  q.next_seq <- q.next_seq + 1;
  ensure_capacity q entry;
  q.data.(q.size) <- entry;
  q.size <- q.size + 1;
  sift_up q (q.size - 1)

let pop q =
  if q.size = 0 then None
  else begin
    let top = q.data.(0) in
    q.size <- q.size - 1;
    if q.size > 0 then begin
      q.data.(0) <- q.data.(q.size);
      sift_down q 0
    end;
    Some (top.time, top.payload)
  end

let peek_time q = if q.size = 0 then None else Some q.data.(0).time

let clear q = q.size <- 0

(* Snapshot support: dump every pending entry with its insertion seq,
   sorted in (time, seq) pop order so the dump is canonical, plus the
   queue's next_seq counter.  [of_entries] rebuilds a queue that pops
   the same sequence AND assigns the same seqs to future pushes — both
   are needed for a restored run to replay byte-identically. *)
let entries q =
  let live = Array.sub q.data 0 q.size in
  Array.sort (fun a b -> if lt a b then -1 else if lt b a then 1 else 0) live;
  Array.to_list (Array.map (fun e -> (e.time, e.seq, e.payload)) live)

let next_seq q = q.next_seq

let load q ~next_seq items =
  if next_seq < 0 then invalid_arg "Event_queue.load: negative next_seq";
  q.size <- 0;
  List.iter
    (fun (time, seq, payload) ->
      if Float.is_nan time then invalid_arg "Event_queue.load: NaN timestamp";
      if seq < 0 || seq >= next_seq then
        invalid_arg "Event_queue.load: seq out of range";
      let entry = { time; seq; payload } in
      ensure_capacity q entry;
      q.data.(q.size) <- entry;
      q.size <- q.size + 1;
      sift_up q (q.size - 1))
    items;
  q.next_seq <- next_seq

let of_entries ~next_seq items =
  let q = create ~capacity:(max 16 (List.length items)) () in
  load q ~next_seq items;
  q
