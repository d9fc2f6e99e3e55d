(* Domain pool for fan-out over independent work items.

   OCaml 5 domains are heavyweight (each owns a minor heap and a systhread),
   so the pool does not keep domains alive between calls; it bounds how many
   extra domains may exist at once and spawns them per fan-out call.  That
   keeps the design composable: one [t] can be threaded through nested
   pipeline stages and the total number of live domains stays bounded by
   [domains], no matter how the stages nest, because each call reserves
   workers from a shared in-flight budget and falls back to sequential
   execution when the budget is exhausted.

   Determinism: [map] always preserves item order in its result, and with
   [domains <= 1] (the default on single-core machines, or EPOC_JOBS=1)
   both fan-outs degenerate to a plain loop in item order on the calling
   domain.  Callers are responsible for keeping the mapped function free
   of order-dependent side effects; the EPOC pipeline arranges this by
   giving each parallel region either pure work or a forked library that
   is absorbed in a fixed order afterwards. *)

type t = {
  max_extra : int; (* extra domains beyond the caller, >= 0 *)
  in_flight : int Atomic.t; (* currently reserved extra domains *)
  metrics : Epoc_obs.Metrics.t option; (* traffic counter sink, if any *)
}

let parse_jobs s =
  match int_of_string_opt (String.trim s) with
  | Some n when n >= 1 -> Some n
  | _ -> None

(* EPOC_JOBS if set and valid, else one domain per core (the caller's
   domain counts as one). *)
let default_domains () =
  match Option.bind (Sys.getenv_opt "EPOC_JOBS") parse_jobs with
  | Some n -> n
  | None -> max 1 (Domain.recommended_domain_count () - 1)

let create ?domains ?metrics () =
  let d = match domains with Some d -> max 1 d | None -> default_domains () in
  { max_extra = d - 1; in_flight = Atomic.make 0; metrics }

let domains t = t.max_extra + 1

let metrics t = t.metrics

let sequential = { max_extra = 0; in_flight = Atomic.make 0; metrics = None }

(* Reserve up to [want] extra domains from the pool budget; returns how
   many were granted. *)
let rec reserve t want =
  if want <= 0 then 0
  else
    let cur = Atomic.get t.in_flight in
    let grant = min want (t.max_extra - cur) in
    if grant <= 0 then 0
    else if Atomic.compare_and_set t.in_flight cur (cur + grant) then grant
    else reserve t want

let release t n = if n > 0 then ignore (Atomic.fetch_and_add t.in_flight (-n))

(* Pool traffic counters, recorded into the registry the pool was
   created with (the owning engine's, in the pipeline).  Deliberately
   not part of any per-run registry: how many fan-outs went parallel
   depends on the domain budget, so these values are *expected* to
   differ across EPOC_JOBS settings.  Pools without a registry (and
   [sequential]) record nothing. *)
let record_map t ~items ~extra =
  match t.metrics with
  | None -> ()
  | Some m ->
      Epoc_obs.Metrics.incr m "pool.maps";
      Epoc_obs.Metrics.incr ~by:items m "pool.items";
      if extra = 0 then Epoc_obs.Metrics.incr m "pool.sequential_maps"
      else begin
        Epoc_obs.Metrics.incr m "pool.parallel_maps";
        Epoc_obs.Metrics.incr ~by:extra m "pool.workers_spawned"
      end

(* Run [f lo], ..., [f (hi - 1)].  Without a granted extra domain this
   is a plain [for] loop on the calling domain, so a call allocates
   nothing there; hot loops hoist [f] and fan out every iteration. *)
let parallel_for t ~lo ~hi f =
  let n = hi - lo in
  let extra =
    if n <= 1 || t.max_extra = 0 then 0 else reserve t (min t.max_extra (n - 1))
  in
  record_map t ~items:(max 0 n) ~extra;
  if extra = 0 then
    for i = lo to hi - 1 do
      f i
    done
  else
    Fun.protect
      ~finally:(fun () -> release t extra)
      (fun () ->
        let errors = Array.make n None in
        let next = Atomic.make lo in
        let worker () =
          let continue = ref true in
          while !continue do
            let i = Atomic.fetch_and_add next 1 in
            if i >= hi then continue := false
            else
              match f i with
              | () -> ()
              | exception e ->
                  errors.(i - lo) <- Some (e, Printexc.get_raw_backtrace ())
          done
        in
        let workers = Array.init extra (fun _ -> Domain.spawn worker) in
        worker ();
        Array.iter Domain.join workers;
        (* surface the first failure in index order, so error behaviour
           does not depend on the domain count *)
        Array.iter
          (function
            | Some (e, bt) -> Printexc.raise_with_backtrace e bt | None -> ())
          errors)

let map t f xs =
  let items = Array.of_list xs in
  let results = Array.make (Array.length items) None in
  parallel_for t ~lo:0 ~hi:(Array.length items) (fun i ->
      results.(i) <- Some (f items.(i)));
  Array.fold_right
    (fun r acc ->
      match r with
      | Some v -> v :: acc
      | None -> assert false (* every index ran, or the fan-out raised *))
    results []
