(* Serve daemon tests: protocol grammar round-trips, and a live
   Unix-socket smoke — a daemon thread serving a compile job plus a
   metrics scrape, whose schedule must be bit-identical to a one-shot
   run, then a graceful SIGTERM drain that removes the socket. *)

module J = Epoc_obs.Json
module P = Epoc_serve.Protocol
module Server = Epoc_serve.Server

(* --- protocol ------------------------------------------------------------- *)

let test_parse () =
  (match P.parse_request {|{"circuit": "bench:bb84"}|} with
  | Ok (P.Compile j) ->
      Alcotest.(check string) "circuit" "bench:bb84" j.P.circuit;
      Alcotest.(check string) "default flow" "epoc" j.P.flow;
      Alcotest.(check bool) "default mode" true (j.P.mode = Epoc.Config.Estimate);
      Alcotest.(check int) "default priority" 0 j.P.priority;
      Alcotest.(check bool) "no deadline" true (j.P.deadline_s = None)
  | _ -> Alcotest.fail "minimal compile request rejected");
  (match
     P.parse_request
       {|{"circuit": "bench:qaoa", "flow": "gate", "mode": "grape", "deadline_s": 2.5, "priority": 7}|}
   with
  | Ok (P.Compile j) ->
      Alcotest.(check string) "flow" "gate" j.P.flow;
      Alcotest.(check bool) "mode" true (j.P.mode = Epoc.Config.Grape);
      Alcotest.(check bool) "deadline" true (j.P.deadline_s = Some 2.5);
      Alcotest.(check int) "priority" 7 j.P.priority
  | _ -> Alcotest.fail "full compile request rejected");
  (match P.parse_request {|{"cmd": "metrics"}|} with
  | Ok P.Metrics -> ()
  | _ -> Alcotest.fail "metrics command rejected");
  (match P.parse_request {|{"cmd": "prometheus"}|} with
  | Ok P.Prometheus -> ()
  | _ -> Alcotest.fail "prometheus command rejected");
  (match P.parse_request {|{"cmd": "recent"}|} with
  | Ok P.Recent -> ()
  | _ -> Alcotest.fail "recent command rejected");
  (match P.parse_request {|{"cmd": "trace", "id": "r7"}|} with
  | Ok (P.TraceOf "r7") -> ()
  | _ -> Alcotest.fail "trace command rejected");
  let rejected s =
    match P.parse_request s with Error _ -> true | Ok _ -> false
  in
  Alcotest.(check bool) "bad JSON" true (rejected "{nope");
  Alcotest.(check bool) "missing circuit" true (rejected {|{"mode": "grape"}|});
  Alcotest.(check bool) "unknown flow" true
    (rejected {|{"circuit": "x", "flow": "qiskit"}|});
  Alcotest.(check bool) "unknown mode" true
    (rejected {|{"circuit": "x", "mode": "magic"}|});
  Alcotest.(check bool) "unknown cmd" true (rejected {|{"cmd": "stop"}|});
  Alcotest.(check bool) "trace without id" true (rejected {|{"cmd": "trace"}|});
  Alcotest.(check bool) "non-positive deadline" true
    (rejected {|{"circuit": "x", "deadline_s": 0}|})

(* Malformed lines must produce "parse: <detail>" errors whose detail
   carries the byte offset the JSON parser stopped at, so a client can
   point at the broken byte of its own request line. *)
let test_parse_errors () =
  let starts_with p s =
    String.length s >= String.length p && String.sub s 0 (String.length p) = p
  in
  let contains sub s =
    let n = String.length sub in
    let rec go i = i + n <= String.length s && (String.sub s i n = sub || go (i + 1)) in
    go 0
  in
  let parse_error line =
    match P.parse_request line with
    | Error m -> m
    | Ok _ -> Alcotest.failf "accepted %S" line
  in
  List.iter
    (fun line ->
      let m = parse_error line in
      Alcotest.(check bool)
        (Printf.sprintf "%S -> parse: prefix (got %S)" line m)
        true (starts_with "parse: " m);
      Alcotest.(check bool)
        (Printf.sprintf "%S -> offset in %S" line m)
        true (contains "offset" m))
    [ "{nope"; "[1, 2"; "{\"circuit\": }"; "\"unterminated"; "{} trailing" ];
  (* semantic rejections are not parse errors *)
  let m = parse_error {|{"mode": "grape"}|} in
  Alcotest.(check bool) "semantic error unprefixed" false
    (starts_with "parse: " m)

(* the summary's status mapping: ok/0 for a clean compile, degraded/3
   once a block plays gate pulses; errors answer error/1 *)
let test_status_codes () =
  let r =
    Epoc.Pipeline.compile
      (Epoc.Engine.session ~name:"bell" (Epoc.Engine.create ()))
      (Epoc_benchmarks.Benchmarks.find "bell")
  in
  let status_code (r : Epoc.Pipeline.result) =
    let summary = Epoc.Pipeline.summary ~flow:"epoc" r in
    (List.assoc "status" summary, List.assoc "code" summary)
  in
  Alcotest.(check bool) "ok -> 0" true
    (status_code r = (J.Str "ok", J.Num 0.0));
  let degraded =
    {
      r with
      Epoc.Pipeline.stats =
        { r.Epoc.Pipeline.stats with Epoc.Pipeline.degraded_blocks = 2 };
    }
  in
  Alcotest.(check bool) "degraded -> 3" true
    (status_code degraded = (J.Str "degraded", J.Num 3.0));
  match P.error_response ~jid:9 "boom" with
  | J.Obj fields ->
      Alcotest.(check bool) "jid" true (List.assoc "jid" fields = J.Num 9.0);
      Alcotest.(check bool) "error -> 1" true
        (List.assoc "status" fields = J.Str "error"
        && List.assoc "code" fields = J.Num 1.0)
  | _ -> Alcotest.fail "error response is not an object"

(* --- live daemon ----------------------------------------------------------- *)

let read_line_exn ic =
  match input_line ic with
  | line -> line
  | exception End_of_file -> Alcotest.fail "daemon closed the connection"

let contains sub s =
  let n = String.length sub in
  let rec go i =
    i + n <= String.length s && (String.sub s i n = sub || go (i + 1))
  in
  go 0

let test_live_daemon () =
  let sock =
    Filename.concat
      (Filename.get_temp_dir_name ())
      (Printf.sprintf "epoc-serve-test-%d.sock" (Unix.getpid ()))
  in
  (try Unix.unlink sock with Unix.Unix_error _ -> ());
  (* slow threshold 0: every request counts as slow, so the flight
     recorder captures a retrievable Chrome trace for each job *)
  let config = Epoc.Config.default in
  let opts =
    {
      Server.socket = sock;
      workers = 2;
      config;
      flight_capacity = 64;
      slow_trace_s = Some 0.0;
    }
  in
  let daemon = Thread.create (fun () -> ignore (Server.run opts)) () in
  let rec await_socket n =
    if Sys.file_exists sock then ()
    else if n = 0 then Alcotest.fail "socket never appeared"
    else begin
      Unix.sleepf 0.05;
      await_socket (n - 1)
    end
  in
  await_socket 200;
  let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  Unix.connect fd (Unix.ADDR_UNIX sock);
  let ic = Unix.in_channel_of_descr fd in
  let oc = Unix.out_channel_of_descr fd in
  output_string oc
    "{\"circuit\": \"bench:bb84\"}\n{\"cmd\": \"metrics\"}\n";
  flush oc;
  let l1 = read_line_exn ic and l2 = read_line_exn ic in
  let r1 = J.parse_exn l1 and r2 = J.parse_exn l2 in
  (* the metrics command is answered inline, so arrival order of the two
     responses is not fixed; classify by payload *)
  let compile_r, metrics_r =
    if J.member "schedule" r1 <> None then (r1, r2) else (r2, r1)
  in
  Alcotest.(check bool) "compile ok" true
    (J.member "status" compile_r = Some (J.Str "ok"));
  Alcotest.(check bool) "compile code 0" true
    (J.member "code" compile_r = Some (J.Num 0.0));
  (* request attribution rides on the response *)
  let rid =
    match Option.bind (J.member "request_id" compile_r) J.to_str with
    | Some id -> id
    | None -> Alcotest.fail "compile response has no request_id"
  in
  Alcotest.(check bool) "queue wait reported" true
    (match Option.bind (J.member "queue_wait_s" compile_r) J.to_num with
    | Some w -> w >= 0.0
    | None -> false);
  Alcotest.(check bool) "worker id reported" true
    (match Option.bind (J.member "worker" compile_r) J.to_int with
    | Some w -> w >= 0
    | None -> false);
  Alcotest.(check bool) "stage breakdown present" true
    (match J.member "stages" compile_r with
    | Some (J.Obj rows) -> rows <> []
    | _ -> false);
  Alcotest.(check bool) "steady-state job not marked drained" true
    (J.member "drained" compile_r = None);
  Alcotest.(check bool) "default job reports flow epoc" true
    (J.member "flow" compile_r = Some (J.Str "epoc"));
  Alcotest.(check bool) "metrics has engine registry" true
    (J.member "engine" metrics_r <> None);
  Alcotest.(check bool) "metrics has runs aggregate" true
    (J.member "runs" metrics_r <> None);
  (* the served schedule is bit-identical to a one-shot run *)
  let solo =
    Epoc.Pipeline.compile
      (Epoc.Engine.session ~config ~name:"solo" (Epoc.Engine.create ~config ()))
      (Epoc_benchmarks.Benchmarks.find "bb84")
  in
  Alcotest.(check string) "schedule identical to one-shot"
    (J.to_string (P.schedule_json solo.Epoc.Pipeline.schedule))
    (J.to_string (Option.get (J.member "schedule" compile_r)));
  (* observability commands, now that one job completed *)
  let rpc line =
    output_string oc (line ^ "\n");
    flush oc;
    J.parse_exn (read_line_exn ic)
  in
  let prom = rpc {|{"cmd": "prometheus"}|} in
  let text =
    match Option.bind (J.member "prometheus" prom) J.to_str with
    | Some t -> t
    | None -> Alcotest.fail "prometheus response has no text payload"
  in
  Alcotest.(check bool) "serve.jobs exposed" true
    (contains "epoc_serve_jobs_total 1" text);
  Alcotest.(check bool) "labelled request counter exposed" true
    (contains {|epoc_serve_requests_total{status="ok"} 1|} text);
  Alcotest.(check bool) "queue-wait histogram exposed" true
    (contains "epoc_serve_queue_wait_seconds_count 1" text);
  Alcotest.(check bool) "runs aggregate exposed" true
    (contains "epoc_run_pipeline_runs_total 1" text);
  (* the numbers agree: a response's latency is its schedule's, and its
     flight entry — keyed by the response's request id — carries the
     job's flow and the response's value for every summary key *)
  let summary_keys = List.map fst (Epoc.Pipeline.summary ~flow:"epoc" solo) in
  let recorded response ~flow =
    let rid =
      Option.get (Option.bind (J.member "request_id" response) J.to_str)
    in
    Alcotest.(check bool) (rid ^ ": latency_ns is the schedule's") true
      (J.member "latency_ns" response <> None
      && J.member "latency_ns" response
         = Option.bind (J.member "schedule" response) (J.member "latency_ns"));
    let entries =
      Option.value ~default:[]
        (Option.bind (J.member "recent" (rpc {|{"cmd": "recent"}|})) J.to_list)
    in
    match
      List.find_opt (fun e -> J.member "id" e = Some (J.Str rid)) entries
    with
    | None -> Alcotest.failf "no flight entry for %s" rid
    | Some entry ->
        let summary = Option.get (J.member "summary" entry) in
        Alcotest.(check bool) (rid ^ ": entry names its flow") true
          (J.member "flow" summary = Some (J.Str flow));
        List.iter
          (fun key ->
            Alcotest.(check bool)
              (Printf.sprintf "%s: entry %s equals the response's" rid key)
              true
              (J.member key response <> None
              && J.member key summary = J.member key response))
          summary_keys;
        Alcotest.(check bool)
          (rid ^ ": entry stages_s is the response's stages")
          true
          (J.member "stages_s" summary = J.member "stages" response);
        (entries, entry)
  in
  let entries, entry = recorded compile_r ~flow:"epoc" in
  Alcotest.(check int) "one flight entry" 1 (List.length entries);
  Alcotest.(check bool) "slow at 0s threshold" true
    (J.member "slow" entry = Some (J.Bool true));
  Alcotest.(check bool) "trace captured at slow_s 0" true
    (J.member "trace_captured" entry = Some (J.Bool true));
  let trace =
    rpc (J.to_string (J.Obj [ ("cmd", J.Str "trace"); ("id", J.Str rid) ]))
  in
  Alcotest.(check bool) "trace fetch ok" true
    (J.member "status" trace = Some (J.Str "ok"));
  let event_names =
    match Option.bind (J.member "trace" trace) (J.member "traceEvents") with
    | Some (J.Arr events) ->
        List.filter_map
          (fun e -> Option.bind (J.member "name" e) J.to_str)
          events
    | _ -> Alcotest.fail "trace is not chrome-event json"
  in
  Alcotest.(check bool) "trace spans every stage of the response" true
    (match J.member "stages" compile_r with
    | Some (J.Obj stages) ->
        List.for_all (fun (stage, _) -> List.mem stage event_names) stages
    | _ -> false);
  (* reject paths over the wire *)
  let unknown = rpc {|{"cmd": "trace", "id": "r999"}|} in
  Alcotest.(check bool) "unknown trace id errors" true
    (J.member "status" unknown = Some (J.Str "error"));
  let bad = rpc "{not json" in
  Alcotest.(check bool) "malformed line gets parse error" true
    (match Option.bind (J.member "error" bad) J.to_str with
    | Some m ->
        String.length m >= 7 && String.sub m 0 7 = "parse: " && contains "offset" m
    | None -> false);
  Alcotest.(check bool) "parse error carries code 1" true
    (J.member "code" bad = Some (J.Num 1.0));
  (* a job's response names the flow it asked for *)
  let accqoc = rpc {|{"circuit": "bench:bb84", "flow": "accqoc"}|} in
  Alcotest.(check bool) "accqoc job ok" true
    (J.member "status" accqoc = Some (J.Str "ok"));
  Alcotest.(check bool) "accqoc job reports flow accqoc" true
    (J.member "flow" accqoc = Some (J.Str "accqoc"));
  let entries, _ = recorded accqoc ~flow:"accqoc" in
  Alcotest.(check int) "two flight entries" 2 (List.length entries);
  Unix.close fd;
  (* graceful shutdown: drain, remove the socket, return *)
  Unix.kill (Unix.getpid ()) Sys.sigterm;
  Thread.join daemon;
  Alcotest.(check bool) "socket removed" false (Sys.file_exists sock)

let () =
  Alcotest.run "serve"
    [
      ( "protocol",
        [
          Alcotest.test_case "request grammar" `Quick test_parse;
          Alcotest.test_case "parse errors carry offsets" `Quick
            test_parse_errors;
          Alcotest.test_case "status codes" `Quick test_status_codes;
        ] );
      ("daemon", [ Alcotest.test_case "live smoke" `Slow test_live_daemon ]);
    ]
