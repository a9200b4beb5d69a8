(** Fixed-size domain pool for deterministic data parallelism.

    The pool runs index-space loops ([parallel_for]/[parallel_map])
    over a fixed set of worker domains with chunked dynamic scheduling:
    the task index space [0 .. n-1] is cut into contiguous chunks and
    idle participants claim the next unclaimed chunk.  The submitting
    domain participates too, so a pool of size [jobs] uses [jobs - 1]
    spawned domains.

    {b Determinism contract.}  Scheduling decides only {e which domain}
    runs a task, never what the task computes: task [i] must depend
    only on [i] (plus read-only captured state), and [parallel_map]
    stores result [i] at slot [i].  Derive per-task randomness up
    front with {!split_seeds} — the seeds depend only on the parent
    generator, not on [jobs] or chunking — and any run is bitwise
    reproducible at every pool size, including the serial [jobs = 1]
    fast path, which executes the tasks inline in index order without
    touching a single domain.

    Mutating shared state from tasks is a data race unless the state is
    domain-safe; telemetry is handled for you (see the region hooks and
    {!Qnet_telemetry.Metrics}' per-domain shards). *)

type t
(** A pool handle.  Not itself thread-safe: submit from one domain at a
    time (concurrent submissions raise [Invalid_argument]). *)

val create : jobs:int -> t
(** [create ~jobs] spawns [jobs - 1] worker domains.
    @raise Invalid_argument if [jobs < 1]. *)

val jobs : t -> int
(** The pool size given to {!create} (total participants, caller
    included). *)

val recommended_jobs : unit -> int
(** The runtime's recommended domain count for this host (an upper
    bound worth clamping user input to). *)

val shutdown : t -> unit
(** Terminate and join the worker domains.  Idempotent.  Using the pool
    afterwards raises [Invalid_argument]. *)

val with_pool : jobs:int -> (t -> 'a) -> 'a
(** [with_pool ~jobs f] runs [f] with a fresh pool and always shuts it
    down, even if [f] raises. *)

val parallel_for : t -> ?chunk:int -> int -> (int -> unit) -> unit
(** [parallel_for pool n f] runs [f i] for every [i] in [0 .. n-1].
    [chunk] is the scheduling granularity (default: balances [8·jobs]
    chunks, at least 1); it never affects results, only load balance.
    If any task raises, one such exception is re-raised in the caller
    after all claimed tasks finish.
    @raise Invalid_argument when called from inside another parallel
    region (nested data parallelism is rejected rather than deadlocked
    or oversubscribed), or after {!shutdown}. *)

val parallel_map : t -> ?chunk:int -> int -> (int -> 'a) -> 'a array
(** [parallel_map pool n f] is [[| f 0; …; f (n-1) |]], computed as a
    {!parallel_for}.  Result order is always index order, independent
    of scheduling. *)

val in_parallel_region : unit -> bool
(** Whether the calling domain is currently executing inside a parallel
    region of {e any} pool.  Submitting from inside a region raises
    [Invalid_argument ("Pool: nested parallel region")]; callers that
    would rather degrade than die — the serving engine then verifies
    served trees serially — query this first. *)

val split_seeds : Prng.t -> int -> Prng.t array
(** [split_seeds rng n] draws [n] independent SplitMix64 generators
    from [rng] sequentially (advancing it), for use as per-task seeds.
    Seed [i] depends only on [rng]'s state and [i] — never on the pool
    size — which is what makes randomized parallel loops bitwise
    reproducible at any [jobs] level. *)

val add_region_hooks : enter:(unit -> unit) -> leave:(unit -> unit) -> unit
(** Register callbacks run by {e every} participating domain (workers
    and the caller) around its share of a parallel region: [enter]
    before claiming the first chunk, [leave] after the last.  Used by
    {!Qnet_telemetry.Metrics} to install and then fold per-domain
    metric shards.  Hooks do not run on the serial [jobs = 1] path.
    Registration is not thread-safe; register at module-init time. *)
