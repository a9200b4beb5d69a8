module Graph = Qnet_graph.Graph
module Prng = Qnet_util.Prng

type arrivals =
  | Poisson of float
  | Batched of { period : float; size : int }
  | Pareto of { alpha : float; lo : float; hi : float }

type group_size =
  | Fixed of int
  | Uniform of int * int
  | Pareto_group of { alpha : float; lo : int; hi : int }

(* Long-horizon rate modulation, layered over any base arrival process
   by deterministic time-warping: each inter-arrival gap is divided by
   the instantaneous intensity, so a 2x intensity window packs arrivals
   twice as densely without touching the base process's draw sequence
   (the same PRNG stream yields the flat and the modulated workload). *)
type modulator =
  | Flat
  | Diurnal of { period : float; amplitude : float }
  | Flash of { at : float; width : float; boost : float }

type spec = {
  requests : int;
  arrivals : arrivals;
  group_size : group_size;
  duration : float * float;
  patience : float * float;
  modulation : modulator;
}

let check_range name (lo, hi) =
  if not (lo >= 0.) || hi < lo || not (Float.is_finite hi) then
    invalid_arg (Printf.sprintf "Workload.spec: bad %s range" name)

let spec ?(requests = 100) ?(arrivals = Poisson 0.5)
    ?(group_size = Uniform (2, 4)) ?(duration = (3., 8.))
    ?(patience = (0., 10.)) ?(modulation = Flat) () =
  if requests < 0 then invalid_arg "Workload.spec: negative request count";
  (match arrivals with
  | Poisson rate ->
      if rate <= 0. || not (Float.is_finite rate) then
        invalid_arg "Workload.spec: Poisson rate must be positive"
  | Batched { period; size } ->
      if period <= 0. || not (Float.is_finite period) then
        invalid_arg "Workload.spec: batch period must be positive";
      if size < 1 then invalid_arg "Workload.spec: batch size < 1"
  | Pareto { alpha; lo; hi } ->
      if alpha <= 0. || not (Float.is_finite alpha) then
        invalid_arg "Workload.spec: Pareto alpha must be positive";
      if lo <= 0. || not (Float.is_finite lo) then
        invalid_arg "Workload.spec: Pareto min gap must be positive";
      if hi < lo || not (Float.is_finite hi) then
        invalid_arg "Workload.spec: inverted Pareto gap range");
  (match group_size with
  | Fixed k -> if k < 2 then invalid_arg "Workload.spec: group size < 2"
  | Uniform (lo, hi) ->
      if lo < 2 then invalid_arg "Workload.spec: group size < 2";
      if hi < lo then invalid_arg "Workload.spec: inverted group range"
  | Pareto_group { alpha; lo; hi } ->
      if alpha <= 0. || not (Float.is_finite alpha) then
        invalid_arg "Workload.spec: Pareto alpha must be positive";
      if lo < 2 then invalid_arg "Workload.spec: group size < 2";
      if hi < lo then invalid_arg "Workload.spec: inverted group range");
  check_range "duration" duration;
  (if fst duration <= 0. then
     invalid_arg "Workload.spec: duration must be positive");
  check_range "patience" patience;
  (match modulation with
  | Flat -> ()
  | Diurnal { period; amplitude } ->
      if period <= 0. || not (Float.is_finite period) then
        invalid_arg "Workload.spec: diurnal period must be positive";
      if not (amplitude >= 0. && amplitude < 1.) then
        invalid_arg "Workload.spec: diurnal amplitude must be in [0, 1)"
  | Flash { at; width; boost } ->
      if at < 0. || not (Float.is_finite at) then
        invalid_arg "Workload.spec: flash start must be non-negative";
      if width <= 0. || not (Float.is_finite width) then
        invalid_arg "Workload.spec: flash width must be positive";
      if boost <= 0. || not (Float.is_finite boost) then
        invalid_arg "Workload.spec: flash boost must be positive");
  { requests; arrivals; group_size; duration; patience; modulation }

let default = spec ()

type request = {
  id : int;
  users : int list;
  arrival : float;
  duration : float;
  deadline : float;
}

let uniform_float rng (lo, hi) =
  if hi <= lo then lo else lo +. Prng.float rng (hi -. lo)

let max_group = function
  | Fixed k -> k
  | Uniform (_, hi) -> hi
  | Pareto_group { hi; _ } -> hi

let sample_group rng spec =
  match spec.group_size with
  | Fixed k -> k
  | Uniform (lo, hi) -> Prng.int_in_range rng ~min:lo ~max:hi
  | Pareto_group { alpha; lo; hi } ->
      (* Sample the continuous bounded Pareto on [lo, hi + 1) and
         floor, so each integer k gets the probability mass of
         [k, k + 1) — keeping the heavy upper tail while never
         exceeding [hi]. *)
      let x =
        Prng.bounded_pareto rng ~alpha ~lo:(float_of_int lo)
          ~hi:(float_of_int (hi + 1))
      in
      min hi (int_of_float x)

let intensity m t =
  match m with
  | Flat -> 1.
  | Diurnal { period; amplitude } ->
      1. +. (amplitude *. sin (2. *. Float.pi *. t /. period))
  | Flash { at; width; boost } ->
      if t >= at && t < at +. width then boost else 1.

let generate rng g spec =
  let users = Array.of_list (Graph.users g) in
  let population = Array.length users in
  if max_group spec.group_size > population then
    invalid_arg "Workload.generate: group size exceeds user population";
  let arrival = ref 0. in
  (* Base-process clock, used only under modulation: Batched sets
     absolute times, so its gaps come from differencing this clock. *)
  let base = ref 0. in
  let requests =
    List.init spec.requests (fun id ->
        (match (spec.arrivals, spec.modulation) with
        (* The unmodulated paths keep their original float arithmetic
           exactly — existing seeded workloads must not shift by a
           single ulp. *)
        | Poisson rate, Flat ->
            if id > 0 then arrival := !arrival +. Prng.exponential rng rate
        | Batched { period; size }, Flat ->
            arrival := float_of_int (id / size) *. period
        | Pareto { alpha; lo; hi }, Flat ->
            if id > 0 then
              arrival := !arrival +. Prng.bounded_pareto rng ~alpha ~lo ~hi
        | _, m ->
            let gap =
              match spec.arrivals with
              | Poisson rate -> if id > 0 then Prng.exponential rng rate else 0.
              | Batched { period; size } ->
                  let abs = float_of_int (id / size) *. period in
                  let g = abs -. !base in
                  base := abs;
                  g
              | Pareto { alpha; lo; hi } ->
                  if id > 0 then Prng.bounded_pareto rng ~alpha ~lo ~hi else 0.
            in
            (* First-order warp: divide the gap by the intensity at the
               previous arrival.  Deterministic, order-preserving, and
               composes with any base process (the PRNG stream is
               untouched). *)
            arrival := !arrival +. (gap /. intensity m !arrival));
        let size = sample_group rng spec in
        let members =
          Prng.sample_without_replacement rng size population
          |> List.map (fun i -> users.(i))
          |> List.sort compare
        in
        let duration = uniform_float rng spec.duration in
        let patience = uniform_float rng spec.patience in
        {
          id;
          users = members;
          arrival = !arrival;
          duration;
          deadline = !arrival +. patience;
        })
  in
  List.sort (fun a b -> compare (a.arrival, a.id) (b.arrival, b.id)) requests

let pp_spec fmt spec =
  let arrivals =
    match spec.arrivals with
    | Poisson rate -> Printf.sprintf "poisson %g/t" rate
    | Batched { period; size } ->
        Printf.sprintf "batches of %d every %gt" size period
    | Pareto { alpha; lo; hi } ->
        Printf.sprintf "pareto gaps a=%g in %g-%gt" alpha lo hi
  in
  let groups =
    match spec.group_size with
    | Fixed k -> string_of_int k
    | Uniform (lo, hi) -> Printf.sprintf "%d-%d" lo hi
    | Pareto_group { alpha; lo; hi } ->
        Printf.sprintf "pareto a=%g in %d-%d" alpha lo hi
  in
  let modulation =
    match spec.modulation with
    | Flat -> ""
    | Diurnal { period; amplitude } ->
        Printf.sprintf ", diurnal period=%gt amp=%g" period amplitude
    | Flash { at; width; boost } ->
        Printf.sprintf ", flash at=%gt width=%gt x%g" at width boost
  in
  Format.fprintf fmt
    "%d requests, %s%s, groups %s, lease %g-%gt, patience %g-%gt" spec.requests
    arrivals modulation groups (fst spec.duration) (snd spec.duration)
    (fst spec.patience) (snd spec.patience)
