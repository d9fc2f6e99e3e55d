(* Spans recorded from outside the program, around the calls into each
   layer's public functions, and the traced compile flow that places
   them.

   A span records name, start, end, parent and sample id, plus the
   [Gc.minor_words] delta over its window (exact because the benchmark
   pins the pool to one domain).  Spans stay in memory and are written
   out once, at exit.  A layer's self time is its spans' time minus the
   time of their child spans. *)

open Epoc

type span = {
  id : int;
  name : string;
  parent : int;  (** -1 for a sample root *)
  sample : int;
  start : float;
  stop : float;
  minor_words : float;
}

type t = {
  mutable spans : span list;
  mutable stack : int list;
  mutable next_id : int;
  mutable sample : int;
}

let create () = { spans = []; stack = []; next_id = 0; sample = 0 }

let with_span t name f =
  let id = t.next_id in
  t.next_id <- id + 1;
  let parent = match t.stack with p :: _ -> p | [] -> -1 in
  t.stack <- id :: t.stack;
  let w0 = Gc.minor_words () in
  let t0 = Measure.now () in
  let finish () =
    let stop = Measure.now () in
    let minor_words = Gc.minor_words () -. w0 in
    t.stack <- List.tl t.stack;
    t.spans <-
      { id; name; parent; sample = t.sample; start = t0; stop; minor_words }
      :: t.spans
  in
  match f () with
  | x ->
      finish ();
      x
  | exception e ->
      finish ();
      raise e

(* One sample: a root span named [name] under a fresh sample id. *)
let sample t name f =
  t.sample <- t.sample + 1;
  with_span t name f

let duration s = s.stop -. s.start

(* Self time and minor words of every span, keyed by span id. *)
let self_times t =
  let child_time = Hashtbl.create 256 in
  List.iter
    (fun s ->
      if s.parent >= 0 then
        Hashtbl.replace child_time s.parent
          (duration s
          +. Option.value ~default:0.0 (Hashtbl.find_opt child_time s.parent)))
    t.spans;
  List.map
    (fun s ->
      ( s,
        duration s
        -. Option.value ~default:0.0 (Hashtbl.find_opt child_time s.id) ))
    t.spans

(* Samples whose root span satisfies [keep]. *)
let samples_where t keep =
  List.filter_map
    (fun (s : span) -> if s.parent < 0 && keep s then Some s.sample else None)
    t.spans

(* Totals over the samples in [ids]: root wall time, and per span name
   the summed self time and summed minor words. *)
let totals t ids =
  let ids = List.sort_uniq compare ids in
  let member (s : span) = List.mem s.sample ids in
  let roots = List.filter (fun s -> s.parent < 0 && member s) t.spans in
  let wall = Measure.sum (List.map duration roots) in
  let by_name = Hashtbl.create 16 in
  List.iter
    (fun (s, self) ->
      if member s then begin
        let self0, words0 =
          Option.value ~default:(0.0, 0.0) (Hashtbl.find_opt by_name s.name)
        in
        Hashtbl.replace by_name s.name (self0 +. self, words0 +. s.minor_words)
      end)
    (self_times t);
  (wall, by_name)

let to_json t =
  let module J = Epoc_obs.Json in
  J.Arr
    (List.rev_map
       (fun s ->
         J.Obj
           [
             ("id", J.of_int s.id);
             ("name", J.Str s.name);
             ("parent", J.of_int s.parent);
             ("sample", J.of_int s.sample);
             ("start_s", J.Num s.start);
             ("stop_s", J.Num s.stop);
             ("minor_words", J.Num s.minor_words);
           ])
       t.spans)

(* --- the traced flow ------------------------------------------------------- *)

(* The EPOC flow, rebuilt from the public passes with every call inside
   a span: Zx.optimize twice (graph and peephole candidates), then the
   per-candidate pass list [Pipeline.candidate_passes] derives from the
   config.  The guard in the workloads checks that every traced sample
   is bit-identical to [Pipeline.compile]. *)
let flow t =
  let wrap (p : Pass.t) =
    let module P = (val p : Pass.PASS) in
    Pass.make ~counters:P.counters P.name (fun ctx ir ->
        with_span t P.name (fun () -> P.run ctx ir))
  in
  let graph (ctx : Pass.ctx) circuit =
    if ctx.Pass.config.Config.use_zx then begin
      let zx ?strategy () =
        with_span t "zx.optimize" (fun () ->
            Epoc_zx.Zx.optimize ?strategy circuit)
      in
      let g = zx () in
      let p = zx ~strategy:Epoc_zx.Zx.Peephole_only () in
      let candidates =
        if g.Epoc_zx.Zx.used = Epoc_zx.Zx.Graph then
          [ (g.Epoc_zx.Zx.circuit, true); (p.Epoc_zx.Zx.circuit, false) ]
        else [ (p.Epoc_zx.Zx.circuit, false) ]
      in
      (candidates, ("candidates", List.length candidates) :: Epoc_zx.Zx.counters g)
    end
    else ([ (circuit, false) ], [ ("candidates", 1) ])
  in
  let passes (config : Config.t) =
    List.map wrap
      ((if config.Config.commutation_reorder then [ Stages.reorder_gates ]
        else [])
      @ [ Stages.partition; Stages.synthesis ]
      @ (if config.Config.commutation_reorder then [ Stages.reorder_vugs ]
         else [])
      @ [
          (if config.Config.regroup then Stages.regroup_sweep
           else Stages.regroup_trivial);
          Stages.pulses;
          Stages.schedule;
        ])
  in
  { Pipeline.graph; passes }
