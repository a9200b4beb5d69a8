(* Fixed-size domain pool with chunked dynamic scheduling.

   One batch at a time: the caller publishes a job (an index space cut
   into chunks), wakes the workers, and participates itself.  Idle
   participants claim the next chunk with a fetch-and-add; the batch is
   done when every chunk has been executed.  Scheduling only decides
   which domain runs a chunk — task [i] writes nothing shared except
   its own result slot — so results are identical at any pool size. *)

type job = {
  run_task : int -> unit;
  n_tasks : int;
  chunk : int;
  n_chunks : int;
  next_chunk : int Atomic.t;
  mutable unfinished : int;  (* chunks not yet executed; pool.lock *)
  mutable failure : (exn * Printexc.raw_backtrace) option;
}

type t = {
  size : int;
  lock : Mutex.t;
  work : Condition.t;  (* a new batch was published, or shutdown *)
  finished : Condition.t;  (* the current batch completed *)
  mutable current : (int * job) option;  (* epoch-tagged batch *)
  mutable epoch : int;
  mutable stopped : bool;
  mutable submitting : bool;
  mutable workers : unit Domain.t list;
}

(* Region hooks (telemetry shard install/fold).  Registered at module
   initialisation, read-only afterwards. *)
let hooks : ((unit -> unit) * (unit -> unit)) list ref = ref []
let add_region_hooks ~enter ~leave = hooks := !hooks @ [ (enter, leave) ]
let run_enter_hooks () = List.iter (fun (e, _) -> e ()) !hooks
let run_leave_hooks () = List.iter (fun (_, l) -> l ()) (List.rev !hooks)

(* Every participant flags its domain while inside a region so nested
   submissions fail fast instead of deadlocking on the one batch slot
   or oversubscribing the machine. *)
let in_region : bool ref Domain.DLS.key =
  Domain.DLS.new_key (fun () -> ref false)

let in_parallel_region () = !(Domain.DLS.get in_region)

let check_not_nested () =
  if in_parallel_region () then invalid_arg "Pool: nested parallel region"

(* Run this domain's share of [job]: claim chunks until none remain.
   The first failing task wins the race to record its exception; the
   remaining chunks still run so the index space is fully executed and
   the caller can safely reuse buffers afterwards. *)
let participate pool job =
  let claim () = Atomic.fetch_and_add job.next_chunk 1 in
  let c = ref (claim ()) in
  if !c < job.n_chunks then begin
    let executed = ref 0 in
    let flag = Domain.DLS.get in_region in
    flag := true;
    run_enter_hooks ();
    Fun.protect
      ~finally:(fun () ->
        run_leave_hooks ();
        flag := false;
        Mutex.lock pool.lock;
        job.unfinished <- job.unfinished - !executed;
        if job.unfinished = 0 then Condition.broadcast pool.finished;
        Mutex.unlock pool.lock)
      (fun () ->
        while !c < job.n_chunks do
          (try
             let lo = !c * job.chunk in
             let hi = min job.n_tasks (lo + job.chunk) - 1 in
             for i = lo to hi do
               job.run_task i
             done
           with e ->
             let bt = Printexc.get_raw_backtrace () in
             Mutex.lock pool.lock;
             if job.failure = None then job.failure <- Some (e, bt);
             Mutex.unlock pool.lock);
          incr executed;
          c := claim ()
        done)
  end

let rec worker_loop pool seen_epoch =
  Mutex.lock pool.lock;
  let rec await () =
    if pool.stopped then None
    else
      match pool.current with
      | Some (e, job) when e <> seen_epoch -> Some (e, job)
      | _ ->
          Condition.wait pool.work pool.lock;
          await ()
  in
  match await () with
  | None -> Mutex.unlock pool.lock
  | Some (epoch, job) ->
      Mutex.unlock pool.lock;
      participate pool job;
      worker_loop pool epoch

let recommended_jobs () = Domain.recommended_domain_count ()

let create ~jobs =
  if jobs < 1 then invalid_arg "Pool.create: jobs must be >= 1";
  let pool =
    {
      size = jobs;
      lock = Mutex.create ();
      work = Condition.create ();
      finished = Condition.create ();
      current = None;
      epoch = 0;
      stopped = false;
      submitting = false;
      workers = [];
    }
  in
  pool.workers <-
    List.init (jobs - 1) (fun _ -> Domain.spawn (fun () -> worker_loop pool 0));
  pool

let jobs pool = pool.size

let shutdown pool =
  Mutex.lock pool.lock;
  let ws = pool.workers in
  pool.stopped <- true;
  pool.workers <- [];
  Condition.broadcast pool.work;
  Mutex.unlock pool.lock;
  List.iter Domain.join ws

let with_pool ~jobs f =
  let pool = create ~jobs in
  Fun.protect ~finally:(fun () -> shutdown pool) (fun () -> f pool)

let default_chunk pool n = max 1 (n / (8 * pool.size))

let run_batch pool ~chunk ~n run_task =
  check_not_nested ();
  if n < 0 then invalid_arg "Pool: negative task count";
  if n > 0 then begin
    if pool.size = 1 then begin
      (* Serial fast path: inline, in index order, no hooks — exactly
         the pre-pool behaviour. *)
      let flag = Domain.DLS.get in_region in
      flag := true;
      Fun.protect
        ~finally:(fun () -> flag := false)
        (fun () ->
          for i = 0 to n - 1 do
            run_task i
          done)
    end
    else begin
      let chunk =
        match chunk with
        | None -> default_chunk pool n
        | Some c -> if c < 1 then invalid_arg "Pool: chunk must be >= 1" else c
      in
      let n_chunks = (n + chunk - 1) / chunk in
      let job =
        {
          run_task;
          n_tasks = n;
          chunk;
          n_chunks;
          next_chunk = Atomic.make 0;
          unfinished = n_chunks;
          failure = None;
        }
      in
      Mutex.lock pool.lock;
      if pool.stopped then begin
        Mutex.unlock pool.lock;
        invalid_arg "Pool: used after shutdown"
      end;
      if pool.submitting then begin
        Mutex.unlock pool.lock;
        invalid_arg "Pool: concurrent submission"
      end;
      pool.submitting <- true;
      pool.epoch <- pool.epoch + 1;
      pool.current <- Some (pool.epoch, job);
      Condition.broadcast pool.work;
      Mutex.unlock pool.lock;
      participate pool job;
      Mutex.lock pool.lock;
      while job.unfinished > 0 do
        Condition.wait pool.finished pool.lock
      done;
      pool.current <- None;
      pool.submitting <- false;
      Mutex.unlock pool.lock;
      match job.failure with
      | Some (e, bt) -> Printexc.raise_with_backtrace e bt
      | None -> ()
    end
  end

let parallel_for pool ?chunk n f = run_batch pool ~chunk ~n f

let parallel_map pool ?chunk n f =
  if n < 0 then invalid_arg "Pool.parallel_map: negative task count";
  if n = 0 then [||]
  else begin
    let out = Array.make n None in
    run_batch pool ~chunk ~n (fun i -> out.(i) <- Some (f i));
    Array.map (function Some v -> v | None -> assert false) out
  end

let split_seeds rng n =
  if n < 0 then invalid_arg "Pool.split_seeds: negative count";
  if n = 0 then [||]
  else begin
    let a = Array.make n rng in
    for i = 0 to n - 1 do
      a.(i) <- Prng.split rng
    done;
    a
  end
