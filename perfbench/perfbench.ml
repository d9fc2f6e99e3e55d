(* perfbench: the EPOC benchmark.

     perfbench --workload oneshot-estimate|oneshot-grape|serve-warm
               --seed N --seconds S --trace 0|1 [--epoc PATH]

   Draws the workload's inputs from the seed, sets up, measures for S
   seconds, checks every output and prints the end-to-end metrics
   (--trace 0) or the per-layer metrics of a separate traced run
   (--trace 1).  The last line of stdout is the result object.  Run it
   through perfbench/run.sh, which builds it and the epoc binary from
   source first. *)

let () =
  let workload = ref "" in
  let seed = ref 1 in
  let seconds = ref 10.0 in
  let trace = ref 0 in
  let epoc = ref "_build/default/bin/epoc_cli.exe" in
  Arg.parse
    [
      ("--workload", Arg.Set_string workload, "NAME workload to run");
      ("--seed", Arg.Set_int seed, "N input seed");
      ("--seconds", Arg.Set_float seconds, "S measurement window");
      ("--trace", Arg.Set_int trace, "0|1 gated run or traced run");
      ("--epoc", Arg.Set_string epoc, "PATH epoc binary for serve-warm");
    ]
    (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
    "perfbench --workload NAME --seed N --seconds S --trace 0|1";
  let traced = !trace = 1 in
  (* a terminated run still reaps the daemon and removes its scratch
     directory: both are at_exit handlers *)
  List.iter
    (fun s -> Sys.set_signal s (Sys.Signal_handle (fun _ -> exit 1)))
    [ Sys.sigterm; Sys.sigint ];
  let st, spans, primary, compile_of, miss_of =
    match !workload with
    | "oneshot-estimate" | "oneshot-grape" ->
        let kind =
          if !workload = "oneshot-grape" then Oneshot.Grape else Oneshot.Estimate
        in
        let st, spans = Oneshot.run kind ~seed:!seed ~seconds:!seconds ~trace:traced in
        (st, spans, "cold", (fun c -> c = Report.Miss), fun c -> c = Report.Miss)
    | "serve-warm" ->
        let st, spans =
          Serve_warm.run ~epoc:!epoc ~seed:!seed ~seconds:!seconds ~trace:traced
            ~tmp:(Tmp.create ())
        in
        (st, spans, "hit", (fun c -> c = Report.Hit), fun c -> c = Report.Miss)
    | w ->
        Printf.eprintf "unknown workload %S\n" w;
        exit 2
  in
  Printf.printf "workload %s seed %d seconds %g trace %d\n" !workload !seed
    !seconds !trace;
  if traced then begin
    Tmp.mkdir Tmp.root;
    let path =
      Filename.concat Tmp.root (Printf.sprintf "spans-%s.json" !workload)
    in
    let oc = open_out path in
    output_string oc (Epoc_obs.Json.to_string (Spans.to_json spans));
    close_out oc;
    Printf.printf "spans written to %s\n" path;
    Report.print ~tally:st.Report.tally (Report.per_layer st spans ~primary)
  end
  else Report.print ~tally:st.Report.tally (Report.end_to_end st ~compile_of ~miss_of)
