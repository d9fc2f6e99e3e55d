(* serve-warm: the real [epoc serve] binary with its default flags,
   [EPOC_JOBS=1], and pulse and synthesis stores in a fresh directory.

   Set-up spawns the daemon, waits until its socket accepts and
   prefills the stores with a hot set.  It runs three times, each on
   fresh stores and each step between reference runs; setup_s is the
   median in nominal seconds ([Measure.nominal_ref_s]), and the last
   daemon serves the stream.  One connection then sends a seeded
   closed-loop stream: 90% of requests repeat a hot entry (store hits),
   10% are fresh seeded circuits (store misses: QSearch, then a store
   write and flush).  Every request is inline OPENQASM.  Reference runs
   are taken before every eighth hit and around every miss. *)

open Report
module J = Epoc_obs.Json
module Schedule = Epoc_pulse.Schedule

(* Hot set: the Table-1 circuits, four of them on zoo devices, and three
   random 6-qubit, 24-gate circuits drawn from a constant seed, so that
   store hits also replay synthesized blocks of arbitrary circuits.  The
   set does not depend on --seed: which entries are hot sets the hit
   latency mix, and seeded device variants moved hit_ref.p50 and the
   quality gmeans by a fifth between seeds.  Fourteen entries in equal
   shares keep the median hit inside one entry's latencies. *)
let hot_set () =
  let t1 = Gen.table1 () in
  let on name device =
    { (List.find (fun (i : Gen.input) -> i.Gen.name = name) t1) with
      Gen.device = Some device }
  in
  let rs = Random.State.make [| 0 |] in
  t1
  @ [
      on "bv" "line8"; on "simon" "grid3x3"; on "decod24" "heavyhex12";
      on "dnn" "heavyhex12";
    ]
  @ List.init 3 (fun i ->
        Gen.of_circuit (Printf.sprintf "hot%d" i) (Gen.random_circuit rs ~n:6 ~length:24))

(* Fresh circuit number [i] of the stream: width 5, 30 gates (a miss
   runs about 0.2 s). *)
let fresh rs i =
  Gen.of_circuit (Printf.sprintf "fresh%d" i) (Gen.random_circuit rs ~n:5 ~length:30)

let is_fresh (e : Gen.input) =
  String.length e.Gen.name >= 5 && String.sub e.Gen.name 0 5 = "fresh"

let shuffle rs a =
  let a = Array.copy a in
  for i = Array.length a - 1 downto 1 do
    let j = Random.State.int rs (i + 1) in
    let x = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- x
  done;
  Array.to_list a

(* The request stream, drawn lazily: every tenth request is a fresh
   circuit; the others go through the hot set round by round, each
   round in a seeded order, so every hot entry gets an equal share. *)
let stream rs hot =
  let hot = Array.of_list hot in
  let round = ref [] and count = ref 0 in
  fun () ->
    incr count;
    if !count mod 10 = 0 then fresh rs (!count / 10)
    else begin
      if !round = [] then round := shuffle rs hot;
      let e = List.hd !round in
      round := List.tl !round;
      e
    end

(* Fresh circuits among the quality inputs: the first 60 of the stream.
   If the timed window ends before them, the stream continues untimed
   up to the 60th (see [top_up]), so the quality gmeans depend on the
   seed alone. *)
let fresh_quality = 60

(* --- the daemon -------------------------------------------------------- *)

type daemon = { pid : int; sock : string; out : string }

let env () =
  Array.append [| "EPOC_JOBS=1" |]
    (Array.of_list
       (List.filter
          (fun kv -> not (String.length kv >= 5 && String.sub kv 0 5 = "EPOC_"))
          (Array.to_list (Unix.environment ()))))

let alive = ref []

let stop d =
  if List.mem d.pid !alive then begin
    (try Unix.kill d.pid Sys.sigterm with Unix.Unix_error _ -> ());
    ignore (Unix.waitpid [] d.pid);
    alive := List.filter (( <> ) d.pid) !alive
  end

let () =
  at_exit (fun () ->
      List.iter
        (fun pid ->
          (try Unix.kill pid Sys.sigkill with Unix.Unix_error _ -> ());
          try ignore (Unix.waitpid [] pid) with Unix.Unix_error _ -> ())
        !alive)

let spawn ~epoc ~dir =
  let sock = Filename.concat dir "epoc.sock" in
  let out = Filename.concat dir "daemon.out" in
  let fd_in = Unix.openfile "/dev/null" [ Unix.O_RDONLY ] 0 in
  let fd_out = Unix.openfile out [ Unix.O_WRONLY; Unix.O_CREAT; Unix.O_TRUNC ] 0o644 in
  let fd_err =
    Unix.openfile (Filename.concat dir "daemon.err")
      [ Unix.O_WRONLY; Unix.O_CREAT; Unix.O_TRUNC ]
      0o644
  in
  let pid =
    Unix.create_process_env epoc
      [|
        epoc; "serve"; "--socket"; sock; "--cache"; Filename.concat dir "pulses";
        "--synth-cache"; Filename.concat dir "synth";
      |]
      (env ()) fd_in fd_out fd_err
  in
  List.iter Unix.close [ fd_in; fd_out; fd_err ];
  alive := pid :: !alive;
  { pid; sock; out }

type conn = { fd : Unix.file_descr; ic : in_channel }

(* Connect once the socket accepts, polling every 2 ms for up to 60 s. *)
let connect d =
  let deadline = Measure.now () +. 60.0 in
  let rec go () =
    let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
    match Unix.connect fd (Unix.ADDR_UNIX d.sock) with
    | () ->
        Unix.setsockopt_float fd Unix.SO_RCVTIMEO 120.0;
        { fd; ic = Unix.in_channel_of_descr fd }
    | exception Unix.Unix_error ((Unix.ENOENT | Unix.ECONNREFUSED), _, _)
      when Measure.now () < deadline ->
        Unix.close fd;
        (match Unix.waitpid [ Unix.WNOHANG ] d.pid with
        | 0, _ -> ()
        | _ ->
            alive := List.filter (( <> ) d.pid) !alive;
            failwith "epoc serve exited before accepting connections");
        Unix.sleepf 0.002;
        go ()
  in
  go ()

let send conn line =
  let b = Bytes.of_string (line ^ "\n") in
  let rec go off =
    if off < Bytes.length b then
      go (off + Unix.write conn.fd b off (Bytes.length b - off))
  in
  go 0

let request_line (e : Gen.input) =
  J.to_string
    (J.Obj
       (("circuit", J.Str e.Gen.qasm)
       ::
       (match e.Gen.device with
       | None -> []
       | Some d -> [ ("device", J.Str d) ])))

(* One closed-loop round trip, timed from send to the whole response
   line. *)
let round_trip conn e =
  let line = request_line e in
  let t0 = Measure.now () in
  send conn line;
  let resp = input_line conn.ic in
  (resp, t0, Measure.now ())

(* --- responses ------------------------------------------------------------ *)

let num j k = Option.bind (J.member k j) J.to_num
let int_of j k = Option.value ~default:0 (Option.bind (J.member k j) J.to_int)

let schedule_of_json j =
  let list k = Option.value ~default:[] (Option.bind (J.member k j) J.to_list) in
  let placed =
    List.map
      (fun p ->
        {
          Schedule.instruction =
            {
              Schedule.qubits =
                List.filter_map J.to_int
                  (Option.value ~default:[] (Option.bind (J.member "qubits" p) J.to_list));
              duration = Option.get (num p "duration");
              fidelity = Option.get (num p "fidelity");
              label = Option.value ~default:"" (Option.bind (J.member "label" p) J.to_str);
              pulse = None;
            };
          start = Option.get (num p "start");
        })
      (list "instructions")
  in
  { Schedule.n = int_of j "n"; placed; latency = Option.get (num j "latency_ns") }

type response = {
  ok : bool;
  stage_s : float;  (** daemon-reported top-level stage time *)
  queue_wait_s : float;
}

(* Parse and check one response to [e]: status ok with code 0, pulse-IR
   round trip, and the first output of [e] reproduced exactly. *)
let check st (e : Gen.input) resp =
  let key = Gen.key e in
  let fail m =
    Checks.record st.tally ~error:true ~degraded:false [];
    Checks.note st.tally (key ^ ": " ^ m);
    { ok = false; stage_s = 0.0; queue_wait_s = 0.0 }
  in
  match J.parse resp with
  | Error m -> fail ("unparsable response: " ^ m)
  | Ok j -> (
      match (Option.bind (J.member "status" j) J.to_str, int_of j "code") with
      | Some "ok", 0 -> (
          let sched = Option.get (J.member "schedule" j) in
          let stages = Option.value ~default:(J.Obj []) (J.member "stages" j) in
          let stage_s =
            Measure.sum
              (List.filter_map (num stages) [ "graph"; "candidates"; "select"; "esp" ])
          in
          let r =
            {
              ok = true;
              stage_s;
              queue_wait_s = Option.value ~default:0.0 (num j "queue_wait_s");
            }
          in
          match
            Result.bind
              (Checks.roundtrip (schedule_of_json sched))
              (fun ir ->
                Checks.against_golden key
                  {
                    Checks.latency = Option.get (num sched "latency_ns");
                    esp = Option.get (num j "esp");
                    ir;
                  })
          with
          | Ok () ->
              Checks.record st.tally ~error:false ~degraded:false [];
              r
          | Error m ->
              Checks.record st.tally ~error:false ~degraded:false [ key ^ ": " ^ m ];
              r
          | exception (Invalid_argument m | Failure m) ->
              Checks.record st.tally ~error:false ~degraded:false [ key ^ ": " ^ m ];
              r)
      | status, code ->
          fail
            (Printf.sprintf "status %s code %d"
               (Option.value ~default:"?" status)
               code))

(* The daemon's final metrics line must agree with the client's own
   counts of errors and rejections. *)
let check_shutdown st d ~errors ~jobs =
  let lines =
    let ic = open_in d.out in
    let rec go acc =
      match input_line ic with l -> go (l :: acc) | exception End_of_file -> acc
    in
    let l = go [] in
    close_in ic;
    l
  in
  match lines with
  | [] -> Checks.run_failure st.tally "daemon printed no final metrics line"
  | last :: _ -> (
      match J.parse last with
      | Error m -> Checks.run_failure st.tally ("final metrics line: " ^ m)
      | Ok j ->
          let counters =
            Option.value ~default:(J.Obj [])
              (Option.bind (J.member "engine" j) (J.member "counters"))
          in
          let c k = int_of counters k in
          if c "serve.error" <> errors || c "serve.rejected" <> 0 || c "serve.jobs" <> jobs
          then
            Checks.run_failure st.tally
              (Printf.sprintf
                 "daemon counted error=%d rejected=%d jobs=%d, client counted \
                  error=%d rejected=0 jobs=%d"
                 (c "serve.error") (c "serve.rejected") (c "serve.jobs") errors jobs))

(* --- the stream ------------------------------------------------------------- *)

(* Send the stream until [seconds] pass; returns the entries sent, in
   order.  [on_response] sees every checked response with its client
   latency. *)
let drive st conn ~seconds next ~on_response =
  let errors = ref 0 and sent = ref [] and in_group = ref 0 in
  let t_end = Measure.now () +. seconds in
  while Measure.now () < t_end do
    let e = next () in
    sent := e :: !sent;
    let (resp, t0, t1), cls =
      if is_fresh e then begin
        in_group := 0;
        let rt, _, _ = Measure.bracketed ~k:2 (fun () -> round_trip conn e) in
        (rt, Miss)
      end
      else begin
        if !in_group mod 8 = 0 then
          for _ = 1 to 2 do ignore (Measure.reference ()) done;
        incr in_group;
        (round_trip conn e, Hit)
      end
    in
    let r = check st e resp in
    if not r.ok then incr errors;
    add_sample st { key = Gen.key e; cls; t0; t1 };
    on_response e r (t1 -. t0)
  done;
  (List.rev !sent, !errors)

(* --- in-process replay (traced run) ----------------------------------------- *)

(* The daemon's compile path in process: one engine on its own stores,
   a private library per request, absorbed afterwards. *)
let replay_compile engine ?spans (e : Gen.input) =
  let library =
    Epoc_pulse.Library.create
      ~match_global_phase:(Epoc_pulse.Library.match_global_phase (Epoc.Engine.library engine))
      ()
  in
  let r, _ = Inproc.compile_on ?spans ~library engine ~grape:false e in
  Epoc_pulse.Library.absorb (Epoc.Engine.library engine) library;
  r

let replay st spans ~dir ~seconds hot sent =
  let engine =
    Epoc.Engine.create ~domains:1
      ~config:(Inproc.store_config ~grape:false (Some dir))
      ()
  in
  List.iter (fun e -> ignore (replay_compile engine e)) hot;
  let timed ?spans e =
    let t0 = Measure.now () in
    let r =
      match spans with
      | None -> replay_compile engine e
      | Some t ->
          Spans.sample t
            (if is_fresh e then "miss" else "hit")
            (fun () -> replay_compile engine ~spans:t e)
    in
    (r, Measure.now () -. t0)
  in
  let t_end = Measure.now () +. seconds in
  List.iteri
    (fun i e ->
      if Measure.now () < t_end then begin
        let r =
          if is_fresh e then fst (timed ~spans e)
          else begin
            (* untraced and traced hits of one entry back to back,
               alternating which goes first *)
            let u, (r, t) =
              if i mod 2 = 0 then
                let u = snd (timed e) in
                (u, timed ~spans e)
              else
                let rt = timed ~spans e in
                (snd (timed e), rt)
            in
            st.overhead_pairs <- (u, t) :: st.overhead_pairs;
            r
          end
        in
        st.works <- work_of_result r :: st.works;
        Checks.result st.tally ~key:(Gen.key e) r
      end)
    sent

(* One set-up: spawn a daemon on fresh stores under [dir], connect once
   its socket accepts and prefill the hot set.  Each step (spawn until
   accept; each prefill request) runs between reference runs; response
   checks stay outside the steps.  Returns the daemon, its connection
   and the number of failed prefill responses. *)
let set_up st ~epoc ~dir hot =
  Tmp.mkdir dir;
  let steps = Measure.steps () in
  let d, conn =
    Measure.step steps (fun () ->
        let d = spawn ~epoc ~dir in
        (d, connect d))
  in
  let errors =
    List.fold_left
      (fun n e ->
        let resp, _, _ = Measure.step steps (fun () -> round_trip conn e) in
        if (check st e resp).ok then n else n + 1)
      0 hot
  in
  st.setups <- st.setups @ [ steps ];
  (d, conn, errors)

(* Close the connection, stop the daemon and check its final metrics
   line against the client's counts. *)
let retire st (d, conn, errors) ~jobs =
  Unix.close conn.fd;
  stop d;
  check_shutdown st d ~errors ~jobs

(* Continue the stream, untimed, until its first [fresh_quality] fresh
   circuits are answered ([reached] were sent in the timed window), so
   that the quality inputs and the daemon's work up to the last of them
   depend on the seed alone.  [on_fresh] sees each fresh answer.
   Returns the requests sent and the number of failed responses. *)
let top_up st conn next ~reached ~on_fresh =
  let rec go n acc errors =
    if n >= fresh_quality then (List.rev acc, errors)
    else
      let e = next () in
      let resp, _, _ = round_trip conn e in
      let errors = if (check st e resp).ok then errors else errors + 1 in
      if is_fresh e then begin
        on_fresh ();
        go (n + 1) (e :: acc) errors
      end
      else go n (e :: acc) errors
  in
  go reached [] 0

let run ~epoc ~seed ~seconds ~trace ~tmp =
  let st = state () in
  let hot = hot_set () in
  let n_hot = List.length hot in
  let set_up_in i =
    set_up st ~epoc ~dir:(Filename.concat tmp (Printf.sprintf "serve%d" i)) hot
  in
  for i = 1 to 2 do
    retire st (set_up_in i) ~jobs:n_hot
  done;
  let d, conn, errors = set_up_in 3 in
  st.quality_keys <- List.map Gen.key hot;
  Printf.printf "seed %d hot entries %d digest %s\n%!" seed n_hot (Gen.digest hot);
  let next = stream (Random.State.make [| seed |]) hot in
  (* The daemon's peak RSS is read once the quality inputs are
     answered: a point in the stream the seed fixes, where the stores
     hold the same entries however far the timed window gets. *)
  let fresh_answered = ref 0 in
  let on_fresh () =
    incr fresh_answered;
    if !fresh_answered = fresh_quality then
      st.peak_rss_mb <- Measure.peak_rss_mb (Some d.pid)
  in
  let spans = Spans.create () in
  let window = if trace then seconds /. 2.0 else seconds in
  let sent, stream_errors =
    drive st conn ~seconds:window next ~on_response:(fun e r wall ->
        if is_fresh e then on_fresh ();
        if trace && r.ok then begin
          st.serve_requests <- (wall, r.stage_s) :: st.serve_requests;
          st.queue_waits <- r.queue_wait_s :: st.queue_waits
        end)
  in
  let reached = List.length (List.filter is_fresh sent) in
  (* the traced run reports no quality gmeans *)
  let topped, top_errors =
    if trace then ([], 0) else top_up st conn next ~reached ~on_fresh
  in
  Printf.printf "stream requests %d digest %s fresh %d, %d more requests untimed\n%!"
    (List.length sent) (Gen.digest sent) reached (List.length topped);
  st.quality_keys <-
    st.quality_keys
    @ List.filteri (fun i _ -> i < fresh_quality)
        (List.map Gen.key (List.filter is_fresh (sent @ topped)));
  retire st
    (d, conn, errors + stream_errors + top_errors)
    ~jobs:(n_hot + List.length sent + List.length topped);
  if trace then begin
    let idir = Filename.concat tmp "inproc" in
    Tmp.mkdir idir;
    replay st spans ~dir:idir ~seconds:(seconds /. 2.0) hot sent
  end;
  (st, spans)
