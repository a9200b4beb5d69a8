(* Machine-speed calibration.

   The shared VM this benchmark was tuned on runs the same code up to
   40% faster or slower from one minute to the next (other tenants; CPU
   time stays at 99% of wall, so it is slower execution, not
   descheduling).  That drift is larger than any bound a regression
   check could use.  [sample ()] times a fixed kernel that shares no code
   with the program under test -- Dijkstra with a boxed binary heap over
   a fixed random graph, then printing the distances, so it leans on the
   same pointer chasing, float, allocation and formatting work as serving
   and checkpointing.  No change to the program can move the kernel; a
   change in machine speed moves both.  A run's timings are scaled by
   [reference_ns / its median kernel time], i.e. reported at the speed
   where the kernel takes 12 ms. *)

let reference_ns = 12_000_000
let nodes = 3000
let degree = 6

(* Adjacency as flat arrays, from a local LCG. *)
let graph =
  lazy
    (let state = ref 12345 in
     let next bound =
       state := ((!state * 1103515245) + 12345) land 0x3fffffff;
       !state mod bound
     in
     let dst = Array.init (nodes * degree) (fun _ -> next nodes) in
     let w = Array.init (nodes * degree) (fun _ -> 1. +. float (next 1000)) in
     (dst, w))

let dijkstra (dst, w) src =
  let dist = Array.make nodes infinity in
  let heap = ref [||] and size = ref 0 in
  let swap i j =
    let h = !heap in
    let t = h.(i) in
    h.(i) <- h.(j);
    h.(j) <- t
  in
  let push x =
    if !size = Array.length !heap then begin
      let h = Array.make (max 16 (2 * !size)) x in
      Array.blit !heap 0 h 0 !size;
      heap := h
    end;
    !heap.(!size) <- x;
    let i = ref !size in
    incr size;
    while !i > 0 && fst !heap.((!i - 1) / 2) > fst !heap.(!i) do
      swap !i ((!i - 1) / 2);
      i := (!i - 1) / 2
    done
  in
  let pop () =
    let top = !heap.(0) in
    decr size;
    !heap.(0) <- !heap.(!size);
    let i = ref 0 and fin = ref false in
    while not !fin do
      let l = (2 * !i) + 1 in
      let m = ref !i in
      if l < !size && fst !heap.(l) < fst !heap.(!m) then m := l;
      if l + 1 < !size && fst !heap.(l + 1) < fst !heap.(!m) then m := l + 1;
      if !m = !i then fin := true
      else begin
        swap !i !m;
        i := !m
      end
    done;
    top
  in
  dist.(src) <- 0.;
  push (0., src);
  while !size > 0 do
    let d, u = pop () in
    if d <= dist.(u) then
      for k = u * degree to (u * degree) + degree - 1 do
        let v = dst.(k) and nd = d +. w.(k) in
        if nd < dist.(v) then begin
          dist.(v) <- nd;
          push (nd, v)
        end
      done
  done;
  dist

let kernel () =
  let g = Lazy.force graph in
  let b = Buffer.create 65536 in
  for src = 0 to 2 do
    Array.iter
      (fun d -> Buffer.add_string b (Printf.sprintf "%.17g " d))
      (dijkstra g (src * 97))
  done;
  Buffer.length b

(* Wall ns of one kernel run. *)
let sample () =
  let t0 = Serving.now_ns () in
  ignore (Sys.opaque_identity (kernel ()));
  Serving.now_ns () - t0
