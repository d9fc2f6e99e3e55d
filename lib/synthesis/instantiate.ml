(* Numerical instantiation of template parameters.

   Minimizes the global-phase-invariant Hilbert-Schmidt distance
   D(p) = 1 - |f| / d, f = tr(T^dag V(p)), with Adam on exact gradients.
   The BQSKit equivalent uses CERES least squares, which this replaces.

   One evaluation is one forward and one backward sweep over the
   template's gate sequence G_1 .. G_K (U3 VUGs and CNOTs):

   - forward: the prefix products P_k = G_k ... G_1 of the 2^n identity,
     each kept in its own buffer; P_K = V gives f and D;
   - backward: W_k = G_{k+1}^dag ... G_K^dag T, started from the target
     and peeled one gate at a time, so that for the U3 at position k on
     qubit q, df/dx = tr(W_k^dag (dG/dx) P_{k-1}) = sum_ab (dg/dx)_ab A_ab
     where A_ab = sum_{r, j} conj W_k[(a,r), j] P_{k-1}[(b,r), j] is the
     2x2 partial trace of prefix and suffix over the other qubits and
     dg/dx is the closed-form derivative of [Gate.u3_matrix];
   - dD/dx = -Re(conj f * df/dx) / (d |f|).

   This is the forward/backward structure of the GRAPE gradient
   (lib/qoc/grape.ml).  All buffers live in a [workspace] allocated once
   per [instantiate] call: the Adam loop builds no circuit and allocates
   nothing, and the distance of a post-step point comes from the same
   forward sweep whose prefixes the next gradient reuses. *)

open Epoc_linalg

type result = { params : float array; distance : float; iterations : int }

let distance target t params = Mat.hs_distance target (Template.unitary t params)

type options = {
  max_iterations : int;
  learning_rate : float;
  tolerance : float; (* stop when distance below this *)
  patience : int; (* stop after this many non-improving iterations *)
  restarts : int; (* random restarts (in addition to the given seed) *)
}

let default_options =
  {
    max_iterations = 400;
    learning_rate = 0.15;
    tolerance = 1e-10;
    patience = 60;
    restarts = 2;
  }

(* --- exact evaluation ----------------------------------------------------- *)

(* One gate of the template sequence as a row-pair scatter table: the
   gate mixes row [r] with row [r lor mask] for every [r] in [rows].  A
   U3 pairs the rows differing in its qubit's bit and reads parameters
   [param .. param + 2]; a CNOT ([param = -1]) swaps the target-bit pairs
   among the rows whose control bit is set. *)
type gate = { rows : int array; mask : int; param : int }

type workspace = {
  dim : int;
  target : float array; (* [Mat.data] of the target, read only *)
  gates : gate array;
  prefix : float array array; (* prefix.(k) = G_k ... G_1; prefix.(0) = I *)
  suffix : float array; (* backward buffer W *)
  trig : float array;
      (* per gate: cos, sin of theta/2, lambda, phi, phi + lambda *)
  overlap : float array;
      (* (re, im) of f = tr(T^dag V) and the distance, at the last forward *)
  grad : float array;
}

let workspace target (t : Template.t) =
  let n = t.Template.n in
  let dim = 1 lsl n in
  if Mat.rows target <> dim || Mat.cols target <> dim then
    invalid_arg "Instantiate: target does not match the template width";
  let bit q = 1 lsl (n - 1 - q) in
  let rows_where pred = Array.of_list (List.filter pred (List.init dim Fun.id)) in
  let u3_rows = Array.init n (fun q -> rows_where (fun r -> r land bit q = 0)) in
  let next = ref 0 in
  let u3 q =
    let param = !next in
    next := !next + 3;
    { rows = u3_rows.(q); mask = bit q; param }
  in
  let cx (c, tg) =
    {
      rows = rows_where (fun r -> r land bit c <> 0 && r land bit tg = 0);
      mask = bit tg;
      param = -1;
    }
  in
  (* parameters are numbered in gate order, as in [Template.to_circuit] *)
  let initial = List.init n u3 in
  let layers =
    List.concat_map
      (fun (c, tg) ->
        let g = cx (c, tg) in
        let uc = u3 c in
        [ g; uc; u3 tg ])
      t.Template.cnots
  in
  let gates = Array.of_list (initial @ layers) in
  let k = Array.length gates in
  let len = 2 * dim * dim in
  {
    dim;
    target = Mat.data target;
    gates;
    prefix =
      Array.init (k + 1) (fun i ->
          if i = 0 then Mat.data (Mat.identity dim) else Array.make len 0.0);
    suffix = Array.make len 0.0;
    trig = Array.make (8 * k) 0.0;
    overlap = Array.make 3 0.0;
    grad = Array.make (Template.param_count t) 0.0;
  }

(* Swap rows [r] and [r lor mask] of [m] for every [r] in [rows]. *)
let swap_rows ~w (m : float array) rows mask =
  for i = 0 to Array.length rows - 1 do
    let a = rows.(i) * w and b = (rows.(i) lor mask) * w in
    for j = 0 to w - 1 do
      let x = Array.unsafe_get m (a + j) in
      Array.unsafe_set m (a + j) (Array.unsafe_get m (b + j));
      Array.unsafe_set m (b + j) x
    done
  done

(* Forward sweep at [params]: fills the prefix buffers and [overlap] and
   stores the distance in [overlap.(2)].  The U3 entries and the row
   arithmetic replay [Gate.u3_matrix] and [Mat.mix_rows_inplace]
   operation for operation, and the overlap is [Mat.hs_fidelity]'s
   kernel, so D is bit-identical to [distance] (a circuit simulation);
   test_synthesis checks the equality.  Calling [Mat.mix_rows_inplace]
   per row pair instead (a prefix copy, a scratch copy per pair, per-call
   checks) runs the Adam loop at under half the speed. *)
let forward ws params =
  let dim = ws.dim in
  let w = 2 * dim in
  for k = 0 to Array.length ws.gates - 1 do
    let g = ws.gates.(k) in
    let src = ws.prefix.(k) and dst = ws.prefix.(k + 1) in
    if g.param < 0 then begin
      Array.blit src 0 dst 0 (w * dim);
      for i = 0 to Array.length g.rows - 1 do
        let a = g.rows.(i) * w and b = (g.rows.(i) lor g.mask) * w in
        Array.blit src a dst b w;
        Array.blit src b dst a w
      done
    end
    else begin
      let theta = params.(g.param)
      and phi = params.(g.param + 1)
      and lam = params.(g.param + 2) in
      let ct = cos (theta /. 2.0) and st = sin (theta /. 2.0) in
      let cl = cos lam and sl = sin lam in
      let cp = cos phi and sp = sin phi in
      let cpl = cos (phi +. lam) and spl = sin (phi +. lam) in
      let tb = 8 * k in
      ws.trig.(tb) <- ct;
      ws.trig.(tb + 1) <- st;
      ws.trig.(tb + 2) <- cl;
      ws.trig.(tb + 3) <- sl;
      ws.trig.(tb + 4) <- cp;
      ws.trig.(tb + 5) <- sp;
      ws.trig.(tb + 6) <- cpl;
      ws.trig.(tb + 7) <- spl;
      (* g = [[ct, -e^{i lam} st], [e^{i phi} st, e^{i (phi + lam)} ct]] *)
      let g01r = -.(cl *. st) and g01i = -.(sl *. st) in
      let g10r = cp *. st and g10i = sp *. st in
      let g11r = cpl *. ct and g11i = spl *. ct in
      for i = 0 to Array.length g.rows - 1 do
        let a = g.rows.(i) * w and b = (g.rows.(i) lor g.mask) * w in
        for c = 0 to dim - 1 do
          let j = 2 * c in
          let ar = Array.unsafe_get src (a + j)
          and ai = Array.unsafe_get src (a + j + 1)
          and br = Array.unsafe_get src (b + j)
          and bi = Array.unsafe_get src (b + j + 1) in
          Array.unsafe_set dst (a + j) ((ct *. ar) +. ((g01r *. br) -. (g01i *. bi)));
          Array.unsafe_set dst (a + j + 1) ((ct *. ai) +. ((g01r *. bi) +. (g01i *. br)));
          Array.unsafe_set dst (b + j)
            (((g10r *. ar) -. (g10i *. ai)) +. ((g11r *. br) -. (g11i *. bi)));
          Array.unsafe_set dst (b + j + 1)
            (((g10r *. ai) +. (g10i *. ar)) +. ((g11r *. bi) +. (g11i *. br)))
        done
      done
    end
  done;
  (* f = tr(T^dag V) by [Mat.hs_fidelity]'s kernel, D as [Mat.hs_distance] *)
  Kernels.dotc ~len:(dim * dim) ws.target 0 ws.prefix.(Array.length ws.gates) 0
    ws.overlap 0;
  let fr = ws.overlap.(0) and fi = ws.overlap.(1) in
  ws.overlap.(2) <-
    Float.max 0.0 (1.0 -. (sqrt ((fr *. fr) +. (fi *. fi)) /. float_of_int dim))

(* Backward sweep: writes dD/dp into [ws.grad] for the parameters of the
   last [forward] call. *)
let backward ws =
  let dim = ws.dim in
  let w = 2 * dim in
  let s = ws.suffix in
  Array.blit ws.target 0 s 0 (w * dim);
  let fr = ws.overlap.(0) and fi = ws.overlap.(1) in
  let fabs = sqrt ((fr *. fr) +. (fi *. fi)) in
  (* dD/dx = scale * Re(conj f * df/dx) *)
  let scale = if fabs > 0.0 then -1.0 /. (float_of_int dim *. fabs) else 0.0 in
  for k = Array.length ws.gates - 1 downto 0 do
    let g = ws.gates.(k) in
    if g.param < 0 then (if k > 0 then swap_rows ~w s g.rows g.mask)
    else begin
      let p = ws.prefix.(k) in
      (* A_ab = sum over the row pairs of <W[r_a], P[r_b]> *)
      let a00r = ref 0.0 and a00i = ref 0.0 and a01r = ref 0.0 and a01i = ref 0.0 in
      let a10r = ref 0.0 and a10i = ref 0.0 and a11r = ref 0.0 and a11i = ref 0.0 in
      for i = 0 to Array.length g.rows - 1 do
        let a = g.rows.(i) * w and b = (g.rows.(i) lor g.mask) * w in
        for c = 0 to dim - 1 do
          let j = 2 * c in
          let w0r = Array.unsafe_get s (a + j) and w0i = Array.unsafe_get s (a + j + 1) in
          let w1r = Array.unsafe_get s (b + j) and w1i = Array.unsafe_get s (b + j + 1) in
          let p0r = Array.unsafe_get p (a + j) and p0i = Array.unsafe_get p (a + j + 1) in
          let p1r = Array.unsafe_get p (b + j) and p1i = Array.unsafe_get p (b + j + 1) in
          a00r := !a00r +. ((w0r *. p0r) +. (w0i *. p0i));
          a00i := !a00i +. ((w0r *. p0i) -. (w0i *. p0r));
          a01r := !a01r +. ((w0r *. p1r) +. (w0i *. p1i));
          a01i := !a01i +. ((w0r *. p1i) -. (w0i *. p1r));
          a10r := !a10r +. ((w1r *. p0r) +. (w1i *. p0i));
          a10i := !a10i +. ((w1r *. p0i) -. (w1i *. p0r));
          a11r := !a11r +. ((w1r *. p1r) +. (w1i *. p1i));
          a11i := !a11i +. ((w1r *. p1i) -. (w1i *. p1r))
        done
      done;
      let tb = 8 * k in
      let ct = ws.trig.(tb) and st = ws.trig.(tb + 1) in
      let cl = ws.trig.(tb + 2) and sl = ws.trig.(tb + 3) in
      let cp = ws.trig.(tb + 4) and sp = ws.trig.(tb + 5) in
      let cpl = ws.trig.(tb + 6) and spl = ws.trig.(tb + 7) in
      (* e^{i lam} A01, e^{i phi} A10 and e^{i (phi + lam)} A11 *)
      let l01r = (cl *. !a01r) -. (sl *. !a01i) and l01i = (cl *. !a01i) +. (sl *. !a01r) in
      let p10r = (cp *. !a10r) -. (sp *. !a10i) and p10i = (cp *. !a10i) +. (sp *. !a10r) in
      let q11r = (cpl *. !a11r) -. (spl *. !a11i)
      and q11i = (cpl *. !a11i) +. (spl *. !a11r) in
      (* dg/dtheta = [[-st, -e^{i lam} ct], [e^{i phi} ct, -e^{i (phi + lam)} st]] / 2 *)
      let dtr = 0.5 *. ((ct *. (p10r -. l01r)) -. (st *. (!a00r +. q11r)))
      and dti = 0.5 *. ((ct *. (p10i -. l01i)) -. (st *. (!a00i +. q11i))) in
      (* dg/dphi = [[0, 0], [i e^{i phi} st, i e^{i (phi + lam)} ct]] *)
      let dpr = -.((st *. p10i) +. (ct *. q11i)) and dpi = (st *. p10r) +. (ct *. q11r) in
      (* dg/dlambda = [[0, -i e^{i lam} st], [0, i e^{i (phi + lam)} ct]] *)
      let dlr = (st *. l01i) -. (ct *. q11i) and dli = (ct *. q11r) -. (st *. l01r) in
      ws.grad.(g.param) <- scale *. ((fr *. dtr) +. (fi *. dti));
      ws.grad.(g.param + 1) <- scale *. ((fr *. dpr) +. (fi *. dpi));
      ws.grad.(g.param + 2) <- scale *. ((fr *. dlr) +. (fi *. dli));
      if k > 0 then begin
        (* W <- g^dag W: row a <- conj(g00) a + conj(g10) b,
           row b <- conj(g01) a + conj(g11) b *)
        let g01r = -.(cl *. st) and g01i = -.(sl *. st) in
        let g10r = cp *. st and g10i = sp *. st in
        let g11r = cpl *. ct and g11i = spl *. ct in
        for i = 0 to Array.length g.rows - 1 do
          let a = g.rows.(i) * w and b = (g.rows.(i) lor g.mask) * w in
          for c = 0 to dim - 1 do
            let j = 2 * c in
            let ar = Array.unsafe_get s (a + j)
            and ai = Array.unsafe_get s (a + j + 1)
            and br = Array.unsafe_get s (b + j)
            and bi = Array.unsafe_get s (b + j + 1) in
            Array.unsafe_set s (a + j) ((ct *. ar) +. ((g10r *. br) +. (g10i *. bi)));
            Array.unsafe_set s (a + j + 1) ((ct *. ai) +. ((g10r *. bi) -. (g10i *. br)));
            Array.unsafe_set s (b + j)
              (((g01r *. ar) +. (g01i *. ai)) +. ((g11r *. br) +. (g11i *. bi)));
            Array.unsafe_set s (b + j + 1)
              (((g01r *. ai) -. (g01i *. ar)) +. ((g11r *. bi) -. (g11i *. br)))
          done
        done
      end
    end
  done

(* Distance and exact gradient at [params], in one forward/backward
   evaluation. *)
let evaluate target t params =
  if Array.length params <> Template.param_count t then
    invalid_arg "Instantiate.evaluate: wrong parameter count";
  let ws = workspace target t in
  forward ws params;
  backward ws;
  (ws.overlap.(2), Array.copy ws.grad)

let gradient target t params = snd (evaluate target t params)

(* One Adam run from a given start point, on [ws]'s template and target. *)
let adam ~options ws start =
  let p = Array.copy start in
  let np = Array.length p in
  let m = Array.make np 0.0 and v = Array.make np 0.0 in
  let g = ws.grad in
  let beta1 = 0.9 and beta2 = 0.999 and eps = 1e-8 in
  let best = Array.copy p in
  forward ws p;
  let best_d = ref ws.overlap.(2) in
  let since_improvement = ref 0 in
  let iters = ref 0 in
  (try
     for it = 1 to options.max_iterations do
       iters := it;
       if !best_d < options.tolerance then raise Exit;
       if !since_improvement > options.patience then raise Exit;
       (* the prefixes of the last forward sweep are those of [p] *)
       backward ws;
       let lr =
         (* mild decay keeps late iterations stable near the optimum *)
         options.learning_rate /. (1.0 +. (0.01 *. float_of_int it))
       in
       let c1 = 1.0 -. Float.pow beta1 (float_of_int it)
       and c2 = 1.0 -. Float.pow beta2 (float_of_int it) in
       for i = 0 to np - 1 do
         m.(i) <- (beta1 *. m.(i)) +. ((1.0 -. beta1) *. g.(i));
         v.(i) <- (beta2 *. v.(i)) +. ((1.0 -. beta2) *. g.(i) *. g.(i));
         let mh = m.(i) /. c1 in
         let vh = v.(i) /. c2 in
         p.(i) <- p.(i) -. (lr *. mh /. (sqrt vh +. eps))
       done;
       forward ws p;
       let d = ws.overlap.(2) in
       if d < !best_d then begin
         best_d := d;
         Array.blit p 0 best 0 np;
         since_improvement := 0
       end
       else incr since_improvement
     done
   with Exit -> ());
  { params = best; distance = !best_d; iterations = !iters }

(* Instantiate a template against a target, trying the seed then random
   restarts; returns the best result found.  One workspace serves every
   start point. *)
let instantiate ?(options = default_options) ?seed ?(rng = Random.State.make [| 7 |])
    target t =
  let np = Template.param_count t in
  let starts =
    let random () = Array.init np (fun _ -> Random.State.float rng 6.29 -. 3.14) in
    let seeds = match seed with Some s -> [ s ] | None -> [ random () ] in
    seeds @ List.init options.restarts (fun _ -> random ())
  in
  let ws = workspace target t in
  let rec best_of acc = function
    | [] -> acc
    | s :: rest ->
        if acc.distance < options.tolerance then acc
        else
          let r = adam ~options ws s in
          best_of (if r.distance < acc.distance then r else acc) rest
  in
  match starts with
  | [] -> invalid_arg "Instantiate: no start point"
  | s :: rest -> best_of (adam ~options ws s) rest
