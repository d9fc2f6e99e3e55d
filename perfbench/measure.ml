(* Clock, host-speed reference and summary statistics.

   Host speed on a shared machine drifts by tens of percent within
   seconds, so every gated timing is divided by a reference computation
   timed just before and just after it (and around its neighbours, see
   [ref_around]).  The reference is fixed work
   owned by the benchmark: one part allocates only short-lived values,
   the other runs a small dense float kernel.  It calls no program code
   and keeps nothing alive, so it measures the host, not the compiler. *)

let now () = Int64.to_float (Monotonic_clock.now ()) /. 1e9

(* Short-lived allocation: small lists built, reversed and folded, all
   dead before the next iteration. *)
let ref_alloc () =
  let acc = ref 0 in
  for i = 1 to 1_500 do
    let l = List.init 48 (fun j -> i lxor j) in
    acc := !acc + List.fold_left (fun a x -> a + (x land 15)) 0 (List.rev l)
  done;
  !acc

(* Small dense float kernel: repeated 10x10 matrix products on arrays
   local to the call. *)
let ref_float () =
  let d = 10 in
  let a = Array.init (d * d) (fun k -> Float.of_int (k mod 7) *. 0.125) in
  let b = Array.init (d * d) (fun k -> Float.of_int (k mod 5) *. 0.25) in
  let c = Array.make (d * d) 0.0 in
  for r = 1 to 400 do
    let bias = Float.of_int r *. 1e-3 in
    for i = 0 to d - 1 do
      for j = 0 to d - 1 do
        let s = ref bias in
        for k = 0 to d - 1 do
          s := !s +. (a.((i * d) + k) *. b.((k * d) + j))
        done;
        c.((i * d) + j) <- !s
      done
    done
  done;
  Array.fold_left ( +. ) 0.0 c

(* Every reference run of this process: (start time, seconds). *)
let ref_log = ref []

let reference () =
  let t0 = now () in
  ignore (Sys.opaque_identity (ref_alloc ()));
  ignore (Sys.opaque_identity (ref_float ()));
  let dt = now () -. t0 in
  ref_log := (t0, dt) :: !ref_log;
  dt

let ref_times () = List.map snd !ref_log

(* --- statistics ----------------------------------------------------------- *)

let sorted xs = List.sort Float.compare xs

(* Linear interpolation between closest ranks (numpy's default). *)
let quantile q xs =
  match sorted xs with
  | [] -> nan
  | s ->
      let a = Array.of_list s in
      let n = Array.length a in
      let pos = q *. Float.of_int (n - 1) in
      let lo = truncate pos in
      let hi = min (n - 1) (lo + 1) in
      let frac = pos -. Float.of_int lo in
      a.(lo) +. (frac *. (a.(hi) -. a.(lo)))

let median xs = quantile 0.5 xs

(* Run [f] between [k] reference runs before and [k] after; returns the
   result and the start and end times of [f]. *)
let bracketed ?(k = 1) f =
  for _ = 1 to k do ignore (reference ()) done;
  let t0 = now () in
  let x = f () in
  let t1 = now () in
  for _ = 1 to k do ignore (reference ()) done;
  (x, t0, t1)

(* The reference time a sample over [t0, t1] is divided by: the
   harmonic mean of the reference runs within one sample length of it
   (at least 0.3 s, at most 3 s).  On a shared 2-vCPU Xeon VM the host
   was seen switching between speed states about twice apart every
   second or so.  A sample's wall time averages over the states it runs
   through, and the harmonic mean of nearby reference times is the mean
   host speed around the sample, on its own time scale.  The median of
   the runs within a fixed 2 s window picks one state, and moved the
   one-shot percentiles by up to a fifth between runs.  A sample with no
   reference run in reach gets nan, which marks the run incorrect. *)
let ref_around t0 t1 =
  let w = Float.min 3.0 (Float.max 0.3 (t1 -. t0)) in
  match
    List.filter_map
      (fun (t, d) -> if t >= t0 -. w && t <= t1 +. w then Some d else None)
      !ref_log
  with
  | [] -> nan
  | ds -> Float.of_int (List.length ds) /. List.fold_left (fun a d -> a +. (1.0 /. d)) 0.0 ds

(* Set-up work timed in steps, each between three reference runs on
   either side, so that it can be host-normalized like a sample: [step]
   runs one piece and records its window. *)
type steps = (float * float) list ref

let steps () : steps = ref []

let step (steps : steps) f =
  let x, t0, t1 = bracketed ~k:3 f in
  steps := (t0, t1) :: !steps;
  x

(* Wall seconds and reference units of the recorded steps: each step is
   divided by the reference time around it. *)
let steps_wall (steps : steps) = List.fold_left (fun a (t0, t1) -> a +. (t1 -. t0)) 0.0 !steps

let steps_ref (steps : steps) =
  List.fold_left (fun a (t0, t1) -> a +. ((t1 -. t0) /. ref_around t0 t1)) 0.0 !steps

(* One reference run's duration on the host the benchmark was tuned on
   (a 2-vCPU Xeon VM, about 2 ms).  setup_s is reported in seconds at
   that speed: reference units times this constant, so that host drift
   between runs divides out of it as it does out of the sample
   timings. *)
let nominal_ref_s = 0.002

(* Interquartile range as a share of the median. *)
let iqr_share xs =
  let m = median xs in
  (quantile 0.75 xs -. quantile 0.25 xs) /. m

let gmean xs =
  match xs with
  | [] -> nan
  | _ ->
      exp
        (List.fold_left (fun acc x -> acc +. log x) 0.0 xs
        /. Float.of_int (List.length xs))

let mean xs =
  match xs with
  | [] -> nan
  | _ -> List.fold_left ( +. ) 0.0 xs /. Float.of_int (List.length xs)

let sum xs = List.fold_left ( +. ) 0.0 xs

(* Quantile [q] of weighted values: each value sits at the middle of
   its share of the total weight, and the quantile interpolates between
   neighbouring values. *)
let weighted_quantile q (pairs : (float * float) list) =
  match List.sort (fun (a, _) (b, _) -> Float.compare a b) pairs with
  | [] -> nan
  | sorted ->
      let total = List.fold_left (fun a (_, w) -> a +. w) 0.0 sorted in
      let pts =
        Array.of_list
          (List.rev
             (snd
                (List.fold_left
                   (fun (c, acc) (v, w) -> (c +. w, (((c +. (w /. 2.0)) /. total), v) :: acc))
                   (0.0, []) sorted)))
      in
      let n = Array.length pts in
      if q <= fst pts.(0) then snd pts.(0)
      else if q >= fst pts.(n - 1) then snd pts.(n - 1)
      else begin
        let i = ref 0 in
        while fst pts.(!i + 1) < q do incr i done;
        let (a, va), (b, vb) = (pts.(!i), pts.(!i + 1)) in
        va +. ((vb -. va) *. (q -. a) /. (b -. a))
      end

(* Peak resident set ([VmHWM]) of a process, MB. *)
let peak_rss_mb pid =
  let path =
    match pid with
    | None -> "/proc/self/status"
    | Some p -> Printf.sprintf "/proc/%d/status" p
  in
  match open_in path with
  | exception Sys_error _ -> nan
  | ic ->
      let rec scan () =
        match input_line ic with
        | exception End_of_file -> nan
        | line ->
            if String.length line > 6 && String.sub line 0 6 = "VmHWM:" then
              Scanf.sscanf
                (String.sub line 6 (String.length line - 6))
                " %f kB"
                (fun kb -> kb /. 1024.0)
            else scan ()
      in
      let v = scan () in
      close_in ic;
      v
