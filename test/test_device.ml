(* Device zoo tests: generators, validation, the strict device-file
   codec, the registry, and the architecture-aware bridges into
   partitioning and the QOC hardware model. *)

module D = Epoc_device.Device
module Hardware = Epoc_qoc.Hardware
module Partition = Epoc_partition.Partition
open Epoc_circuit

let expect_invalid name f =
  match f () with
  | _ -> Alcotest.failf "%s: expected Invalid_argument" name
  | exception Invalid_argument _ -> ()

let contains s affix =
  let ls = String.length s and la = String.length affix in
  let rec go i = i + la <= ls && (String.sub s i la = affix || go (i + 1)) in
  go 0

let expect_error name = function
  | Error _ -> ()
  | Ok (_ : D.t) -> Alcotest.failf "%s: expected Error" name

(* --- generators ----------------------------------------------------------- *)

let test_line () =
  let d = D.line 8 in
  Alcotest.(check string) "name" "line8" d.D.name;
  Alcotest.(check int) "qubits" 8 d.D.n;
  Alcotest.(check int) "edges" 7 (List.length d.D.edges);
  Alcotest.(check (list (pair int int)))
    "pairs"
    [ (0, 1); (1, 2); (2, 3); (3, 4); (4, 5); (5, 6); (6, 7) ]
    (D.pairs d);
  Alcotest.(check bool) "coupled" true (D.coupled d 3 4);
  Alcotest.(check bool) "not coupled" false (D.coupled d 0 7)

let test_grid () =
  let d = D.grid ~rows:3 ~cols:3 () in
  Alcotest.(check string) "name" "grid3x3" d.D.name;
  Alcotest.(check int) "qubits" 9 d.D.n;
  (* 3x3 lattice: 2 horizontal per row * 3 + 2 vertical per column * 3 *)
  Alcotest.(check int) "edges" 12 (List.length d.D.edges);
  Alcotest.(check bool) "row edge" true (D.coupled d 0 1);
  Alcotest.(check bool) "column edge" true (D.coupled d 1 4);
  Alcotest.(check bool) "no diagonal" false (D.coupled d 0 4);
  (* row-major: qubit 2 ends row 0, qubit 3 starts row 1 *)
  Alcotest.(check bool) "no wraparound" false (D.coupled d 2 3)

let test_heavy_hex () =
  let d = D.heavy_hex ~cells:1 () in
  Alcotest.(check string) "name" "heavyhex12" d.D.name;
  Alcotest.(check int) "qubits" 12 d.D.n;
  Alcotest.(check int) "edges" 12 (List.length d.D.edges);
  (* heavy-hex degree profile: corners at most 3, edge qubits exactly 2 *)
  let degrees = List.map (fun q -> List.length (D.neighbors d q)) (List.init 12 Fun.id) in
  List.iter (fun deg -> Alcotest.(check bool) "degree <= 3" true (deg <= 3)) degrees;
  let two = List.length (List.filter (fun x -> x = 2) degrees) in
  Alcotest.(check bool) "mostly degree 2" true (two >= 6)

(* --- queries -------------------------------------------------------------- *)

let test_queries () =
  let d = D.grid ~rows:3 ~cols:3 () in
  Alcotest.(check (option int)) "distance adj" (Some 1) (D.distance d 0 1);
  Alcotest.(check (option int)) "distance corner" (Some 4) (D.distance d 0 8);
  Alcotest.(check (option int)) "distance self" (Some 0) (D.distance d 4 4);
  (match D.shortest_path d 0 8 with
  | Some path ->
      Alcotest.(check int) "path length" 5 (List.length path);
      Alcotest.(check int) "path head" 0 (List.hd path);
      Alcotest.(check int) "path last" 8 (List.nth path 4)
  | None -> Alcotest.fail "expected a path");
  Alcotest.(check (list int)) "neighbors center" [ 1; 3; 5; 7 ] (D.neighbors d 4);
  Alcotest.(check bool) "connected subset" true (D.connected_subset d [ 0; 1; 2 ]);
  Alcotest.(check bool) "disconnected subset" false (D.connected_subset d [ 0; 2 ]);
  Alcotest.(check bool) "singleton" true (D.connected_subset d [ 5 ]);
  Alcotest.(check (option (float 1e-9)))
    "strength" (Some 0.005) (D.strength_ghz d 1 0);
  Alcotest.(check (option (float 1e-9))) "no strength" None (D.strength_ghz d 0 4)

(* --- validation ----------------------------------------------------------- *)

let test_make_validation () =
  let mk ?(qubits = 3) coupling =
    D.make ~name:"bad" ~qubits ~coupling ()
  in
  expect_invalid "out of range" (fun () -> mk [ (0, 3, 0.005) ]);
  expect_invalid "self loop" (fun () -> mk [ (1, 1, 0.005) ]);
  expect_invalid "duplicate" (fun () ->
      mk [ (0, 1, 0.005); (1, 0, 0.004); (1, 2, 0.005) ]);
  expect_invalid "negative strength" (fun () ->
      mk [ (0, 1, -0.005); (1, 2, 0.005) ]);
  expect_invalid "zero strength" (fun () ->
      mk [ (0, 1, 0.0); (1, 2, 0.005) ]);
  expect_invalid "disconnected" (fun () -> mk ~qubits:4 [ (0, 1, 0.005) ]);
  (* a valid device normalizes pair order *)
  let d = mk [ (1, 0, 0.005); (2, 1, 0.006) ] in
  Alcotest.(check (list (pair int int))) "normalized" [ (0, 1); (1, 2) ] (D.pairs d)

(* --- device files --------------------------------------------------------- *)

let test_file_roundtrip () =
  let d =
    D.make ~name:"rt" ~qubits:3
      ~coupling:[ (0, 1, 0.005); (1, 2, 0.0061) ]
      ~crosstalk:[ (0, 2, 0.0001) ]
      ~gate_times:[ ("cx", 50.0); ("x", 10.0) ]
      ~anharmonicity_ghz:(-0.34) ()
  in
  let text = D.to_string d in
  (match D.of_string text with
  | Ok d2 ->
      Alcotest.(check string) "name" d.D.name d2.D.name;
      Alcotest.(check bool) "equal" true (d = d2);
      (* byte-identical re-export, like the cache headers *)
      Alcotest.(check string) "bytes" text (D.to_string d2)
  | Error m -> Alcotest.failf "round trip failed: %s" m);
  (* the bundled zoo files are exactly the builtins' serialized bytes *)
  List.iter
    (fun b ->
      match D.of_string (D.to_string b) with
      | Ok back -> Alcotest.(check bool) (b.D.name ^ " zoo rt") true (b = back)
      | Error m -> Alcotest.failf "%s: %s" b.D.name m)
    (D.Registry.builtins ())

let test_file_rejects () =
  let valid =
    {|{"epoc_device": 1, "name": "ok", "qubits": 2, "coupling": [[0, 1, 0.005]]}|}
  in
  (match D.of_string valid with
  | Ok d -> Alcotest.(check int) "defaults applied" 2 d.D.n
  | Error m -> Alcotest.failf "valid file rejected: %s" m);
  expect_error "unknown field"
    (D.of_string
       {|{"epoc_device": 1, "name": "x", "qubits": 2, "coupling": [[0, 1, 0.005]], "color": "red"}|});
  expect_error "missing version"
    (D.of_string {|{"name": "x", "qubits": 2, "coupling": [[0, 1, 0.005]]}|});
  expect_error "wrong version"
    (D.of_string
       {|{"epoc_device": 99, "name": "x", "qubits": 2, "coupling": [[0, 1, 0.005]]}|});
  expect_error "bad topology"
    (D.of_string
       {|{"epoc_device": 1, "name": "x", "qubits": 3, "coupling": [[0, 1, 0.005], [0, 3, 0.005]]}|});
  expect_error "disconnected"
    (D.of_string
       {|{"epoc_device": 1, "name": "x", "qubits": 4, "coupling": [[0, 1, 0.005], [2, 3, 0.005]]}|});
  expect_error "negative strength"
    (D.of_string
       {|{"epoc_device": 1, "name": "x", "qubits": 2, "coupling": [[0, 1, -0.005]]}|});
  expect_error "garbage" (D.of_string "not json at all")

(* --- registry ------------------------------------------------------------- *)

let test_registry () =
  let r = D.Registry.create () in
  Alcotest.(check (list string))
    "zoo names"
    [ "grid3x3"; "heavyhex12"; "line8" ]
    (D.Registry.names r);
  (match D.Registry.resolve r "line8" with
  | Ok d -> Alcotest.(check int) "line8 qubits" 8 d.D.n
  | Error m -> Alcotest.fail m);
  (match D.Registry.resolve r "no-such-device" with
  | Ok _ -> Alcotest.fail "expected resolve error"
  | Error m -> Alcotest.(check bool) "lists names" true (contains m "line8"));
  (* a file path resolves and registers as a side effect *)
  let path = Filename.temp_file "epoc-dev" ".json" in
  let d = D.make ~name:"filedev" ~qubits:2 ~coupling:[ (0, 1, 0.004) ] () in
  let oc = open_out path in
  output_string oc (D.to_string d);
  close_out oc;
  (match D.Registry.resolve r path with
  | Ok d2 -> Alcotest.(check string) "file name" "filedev" d2.D.name
  | Error m -> Alcotest.fail m);
  Sys.remove path;
  Alcotest.(check bool) "registered" true (D.Registry.find r "filedev" <> None)

(* --- hardware bridge ------------------------------------------------------ *)

let test_of_device () =
  let d = D.grid ~rows:3 ~cols:3 () in
  (* connected block: induced subgraph only *)
  let hw = Hardware.of_device d ~qubits:[ 0; 1; 4 ] in
  Alcotest.(check int) "n" 3 hw.Hardware.n;
  (* local indices: 0->0, 1->1, 4->2; device couples (0,1) and (1,4) *)
  Alcotest.(check (list (pair int int)))
    "induced coupling" [ (0, 1); (1, 2) ]
    (List.map (fun (a, b, _) -> (a, b)) hw.Hardware.couplings);
  Alcotest.(check bool) "context tagged" true
    (String.length hw.Hardware.context > 0);
  (* disconnected block: bridged by a virtual coupling, weaker with
     distance (J_eff = J / hops) *)
  let hw2 = Hardware.of_device d ~qubits:[ 0; 2 ] in
  Alcotest.(check int) "bridged pairs" 1 (List.length hw2.Hardware.couplings);
  let direct = Hardware.of_device d ~qubits:[ 0; 1 ] in
  let j_direct =
    match Hardware.pair_strength direct 0 1 with
    | Some j -> j
    | None -> Alcotest.fail "expected direct coupling"
  in
  let j_virtual =
    match Hardware.pair_strength hw2 0 1 with
    | Some j -> j
    | None -> Alcotest.fail "expected virtual coupling"
  in
  Alcotest.(check (float 1e-9)) "J/2 over 2 hops" (j_direct /. 2.0) j_virtual;
  expect_invalid "empty block" (fun () -> Hardware.of_device d ~qubits:[]);
  expect_invalid "out of range" (fun () -> Hardware.of_device d ~qubits:[ 0; 9 ])

(* --- architecture-aware partitioning -------------------------------------- *)

let test_partition_coupling () =
  let op gate qubits = { Circuit.gate; qubits } in
  let d = D.grid ~rows:3 ~cols:3 () in
  (* two CXs on (2,3): qubits 2 and 3 sit across grid3x3's row boundary
     (not coupled), so the topology-aware scan must not grow a
     multi-op block on that pair — only single-op blocks, which are
     exempt (the QOC layer bridges them with virtual couplings) *)
  let c = Circuit.of_ops 4 [ op Gate.CX [ 2; 3 ]; op Gate.CX [ 2; 3 ] ] in
  let config = { Partition.default_config with Partition.qubit_limit = 4 } in
  let blind = Partition.partition ~config c in
  Alcotest.(check int) "blind merges" 1 (List.length blind);
  let aware = Partition.partition ~config ~coupling:(D.pairs d) c in
  Alcotest.(check int) "aware splits" 2 (List.length aware);
  Alcotest.(check bool) "order preserved" true (Partition.preserves_order c aware);
  (* a coupled pair still merges under the same config *)
  let c2 = Circuit.of_ops 4 [ op Gate.CX [ 0; 1 ]; op Gate.CX [ 0; 1 ] ] in
  let merged = Partition.partition ~config ~coupling:(D.pairs d) c2 in
  Alcotest.(check int) "coupled pair merges" 1 (List.length merged);
  List.iter
    (fun (b : Partition.block) ->
      if List.length b.Partition.ops > 1 then
        Alcotest.(check bool) "multi-op blocks connected" true
          (D.connected_subset d b.Partition.qubits))
    (aware @ merged)

let () =
  Alcotest.run "device"
    [
      ( "generators",
        [
          Alcotest.test_case "line" `Quick test_line;
          Alcotest.test_case "grid" `Quick test_grid;
          Alcotest.test_case "heavy_hex" `Quick test_heavy_hex;
        ] );
      ("queries", [ Alcotest.test_case "graph queries" `Quick test_queries ]);
      ( "validation",
        [ Alcotest.test_case "make rejects" `Quick test_make_validation ] );
      ( "files",
        [
          Alcotest.test_case "round trip" `Quick test_file_roundtrip;
          Alcotest.test_case "strict rejects" `Quick test_file_rejects;
        ] );
      ("registry", [ Alcotest.test_case "zoo + resolve" `Quick test_registry ]);
      ( "hardware",
        [
          Alcotest.test_case "of_device" `Quick test_of_device;
        ] );
      ( "partition",
        [
          Alcotest.test_case "coupling-aware" `Quick test_partition_coupling;
        ] );
    ]
