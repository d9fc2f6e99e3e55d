(** Bounded domain pool for order-preserving parallel map.

    A pool value is a budget of extra domains, not a set of live threads:
    each [map] call reserves workers from the shared budget, spawns them
    for the duration of the call, and releases them.  Nested [map] calls
    through the same pool therefore never exceed the configured domain
    count — inner calls that find the budget exhausted run sequentially
    on the calling domain. *)

type t

val create : ?domains:int -> ?metrics:Epoc_obs.Metrics.t -> unit -> t
(** [create ?domains ?metrics ()] makes a pool using [domains] total
    domains (including the caller's; clamped to at least 1).  Without
    [?domains] the count comes from the [EPOC_JOBS] environment variable
    when set to a positive integer, else
    [Domain.recommended_domain_count () - 1] extra domains.  [metrics]
    receives the pool's traffic counters ([pool.maps], [pool.items],
    [pool.parallel_maps], [pool.sequential_maps],
    [pool.workers_spawned]); without it the pool records nothing.  The
    pipeline binds each pool to its owning engine's registry, so pool
    traffic is scoped per engine, never process-global. *)

val domains : t -> int
(** Total domain budget of the pool, including the calling domain. *)

val metrics : t -> Epoc_obs.Metrics.t option
(** The traffic-counter registry the pool was created with, if any. *)

val sequential : t
(** A pool that never spawns; [map sequential] is [List.map]. *)

val parallel_for : t -> lo:int -> hi:int -> (int -> unit) -> unit
(** [parallel_for t ~lo ~hi f] runs [f i] for every [lo <= i < hi], in
    any order and on up to [domains t] domains.  It reserves workers the
    way [map] does and records the same traffic counters.  Without a
    granted extra domain it is a plain [for] loop in index order on the
    calling domain, which allocates nothing: a solver can hoist [f] out
    of its iteration loop and fan out every iteration for free on one
    domain.  If any [f i] raises, the exception of the lowest failing
    index is re-raised after all workers finish. *)

val map : t -> ('a -> 'b) -> 'a list -> 'b list
(** [map t f xs] applies [f] to every element and returns results in
    input order.  Runs sequentially when the list has fewer than two
    elements, the pool is single-domain, or the budget is exhausted by
    enclosing calls.  If any application raises, the exception of the
    earliest failing item (by input position) is re-raised after all
    workers finish, regardless of domain count. *)
