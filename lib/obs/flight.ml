(* Flight recorder: a bounded ring buffer of the last N completed
   requests, with automatic full-trace capture for slow ones.

   Each completed request is recorded as an [entry]: an identifier, its
   wall-clock duration, an arbitrary JSON summary payload (the caller
   decides what a request looks like — the serve daemon stores each
   job's result summary with its session name, circuit fingerprint and
   per-stage seconds) and, when the request exceeded the recorder's slow
   threshold, its trace document as a [Json.t] value.  The trace is
   passed as a thunk and only forced for slow requests, so fast
   requests pay nothing beyond the summary.

   The buffer is mutex-guarded and strictly bounded: once [capacity]
   entries are held, recording evicts the oldest.  Recording is a
   side-effect on daemon-owned state and therefore — like the engine
   registry — *outside* the pipeline's determinism contract; per-run
   metric registries never flow through here. *)

type entry = {
  f_id : string; (* request id; unique per engine *)
  f_wall_s : float;
  f_slow : bool; (* exceeded the slow threshold *)
  f_payload : Json.t; (* caller-defined request summary *)
  f_trace : Json.t option; (* trace document, captured only when slow *)
}

type t = {
  capacity : int;
  slow_s : float option; (* capture threshold; [None] = never capture *)
  lock : Mutex.t;
  buf : entry option array; (* ring; [head] is the next write slot *)
  mutable head : int;
  mutable recorded : int; (* total ever recorded, monotone *)
}

let create ?(capacity = 64) ?slow_s () =
  if capacity <= 0 then invalid_arg "Flight.create: capacity must be positive";
  {
    capacity;
    slow_s;
    lock = Mutex.create ();
    buf = Array.make capacity None;
    head = 0;
    recorded = 0;
  }

let capacity t = t.capacity
let slow_s t = t.slow_s

let locked t f =
  Mutex.lock t.lock;
  Fun.protect ~finally:(fun () -> Mutex.unlock t.lock) f

(* Record one completed request.  [trace] is only forced when [wall_s]
   meets the slow threshold; its cost (building a full Chrome trace)
   is the price of a slow request, not of every request. *)
let record t ~id ~wall_s ?trace payload =
  let slow = match t.slow_s with Some s -> wall_s >= s | None -> false in
  let trace_doc = if slow then Option.map (fun f -> f ()) trace else None in
  let entry =
    { f_id = id; f_wall_s = wall_s; f_slow = slow; f_payload = payload;
      f_trace = trace_doc }
  in
  locked t (fun () ->
      t.buf.(t.head) <- Some entry;
      t.head <- (t.head + 1) mod t.capacity;
      t.recorded <- t.recorded + 1)

let recorded t = locked t (fun () -> t.recorded)

(* Entries newest-first: walk the ring backwards from the last write. *)
let recent t =
  locked t (fun () ->
      let out = ref [] in
      for i = t.capacity - 1 downto 0 do
        let slot = (t.head + i) mod t.capacity in
        match t.buf.(slot) with
        | Some e -> out := e :: !out
        | None -> ()
      done;
      List.rev !out)

let length t =
  locked t (fun () ->
      Array.fold_left
        (fun acc slot -> match slot with Some _ -> acc + 1 | None -> acc)
        0 t.buf)

(* Most recent entry with [id] (ids are unique per engine, but a
   caller-supplied duplicate resolves to the latest occurrence). *)
let find t id =
  List.find_opt (fun e -> e.f_id = id) (recent t)

(* One entry as JSON: the caller's payload plus the recorder's own
   fields.  [trace] is a presence flag, not the document — traces can
   be large, so they are fetched individually via [find]. *)
let entry_json (e : entry) =
  Json.Obj
    [
      ("id", Json.Str e.f_id);
      ("wall_s", Json.Num e.f_wall_s);
      ("slow", Json.Bool e.f_slow);
      ("trace_captured", Json.Bool (e.f_trace <> None));
      ("summary", e.f_payload);
    ]

let to_json t = Json.Arr (List.map entry_json (recent t))
