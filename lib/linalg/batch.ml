(* Batches of B same-sized square complex matrices in one contiguous
   unboxed float array.

   Matrix [i] occupies the [2 * dim * dim] floats starting at
   [offset t i = i * 2 * dim * dim], row-major, (re, im) interleaved —
   the same layout as a [Mat.t], so every batched op below is a loop of
   [Kernels] calls at slice offsets and is bit-identical, slice by slice,
   to the corresponding per-matrix [Mat] op.  That identity is the
   batching contract GRAPE relies on (see lib/qoc/grape.ml).

   Ops take an optional [?mask]: slice [i] is skipped when
   [mask.(i) = false].  GRAPE uses this to keep a lockstep batch running
   while individual jobs finish early (ragged slot counts, per-job early
   exit) without repacking the batch.

   Validation lives here; [Kernels] is the unchecked layer below. *)

type t = { b : int; dim : int; data : float array }

let b t = t.b
let dim t = t.dim
let data t = t.data
let words t = 2 * t.dim * t.dim
let offset t i = i * words t

let create b dim =
  if b <= 0 then invalid_arg "Batch.create: non-positive batch size";
  if dim <= 0 then invalid_arg "Batch.create: non-positive dim";
  { b; dim; data = Array.make (b * 2 * dim * dim) 0.0 }

let check_mask name t = function
  | None -> ()
  | Some m ->
      if Array.length m <> t.b then
        invalid_arg (name ^ ": mask length does not match batch size")

let live mask i = match mask with None -> true | Some m -> m.(i)

let check_same name a x =
  if a.b <> x.b || a.dim <> x.dim then
    invalid_arg (name ^ ": batch shape mismatch")

let check_index name t i =
  if i < 0 || i >= t.b then invalid_arg (name ^ ": slice index out of range")

let check_mat name t m =
  if Mat.rows m <> t.dim || Mat.cols m <> t.dim then
    invalid_arg (name ^ ": matrix dims do not match batch dim")

(* Explicit loop: [Array.iter (check_mat name t) ms] would build a
   closure per call, and the GRAPE loop validates per (slot, control,
   iteration). *)
let check_mats name t ms =
  if Array.length ms <> t.b then
    invalid_arg (name ^ ": matrix array length does not match batch size");
  for i = 0 to Array.length ms - 1 do
    check_mat name t ms.(i)
  done

let check_floats name t xs =
  if Array.length xs <> t.b then
    invalid_arg (name ^ ": array length does not match batch size")

(* --- conversion --------------------------------------------------------- *)

let set_from_mat t i m =
  check_index "Batch.set_from_mat" t i;
  check_mat "Batch.set_from_mat" t m;
  Array.blit (Mat.data m) 0 t.data (offset t i) (words t)

let get_mat t i =
  check_index "Batch.get_mat" t i;
  let m = Mat.create t.dim t.dim in
  Array.blit t.data (offset t i) (Mat.data m) 0 (words t);
  m

let of_mats ms =
  let n = Array.length ms in
  if n = 0 then invalid_arg "Batch.of_mats: empty";
  let d = Mat.rows ms.(0) in
  if Mat.cols ms.(0) <> d then invalid_arg "Batch.of_mats: non-square";
  let t = create n d in
  Array.iteri (fun i m -> set_from_mat t i m) ms;
  t

(* --- batched destination-passing ops ------------------------------------ *)

let set_identity ?mask t =
  check_mask "Batch.set_identity" t mask;
  for i = 0 to t.b - 1 do
    if live mask i then Kernels.set_identity ~d:t.dim t.data (offset t i)
  done

let copy_into ?mask src ~dst =
  check_same "Batch.copy_into" src dst;
  check_mask "Batch.copy_into" src mask;
  for i = 0 to src.b - 1 do
    if live mask i then
      Array.blit src.data (offset src i) dst.data (offset dst i) (words src)
  done

(* dst_i <- a_i * b_i; dst must not alias a or b (checked). *)
let mul_into ?mask a x ~dst =
  check_same "Batch.mul_into" a x;
  check_same "Batch.mul_into" a dst;
  check_mask "Batch.mul_into" a mask;
  if dst.data == a.data || dst.data == x.data then
    invalid_arg "Batch.mul_into: dst aliases an input";
  let d = a.dim in
  for i = 0 to a.b - 1 do
    if live mask i then
      Kernels.mul ~m:d ~n:d ~p:d a.data (offset a i) x.data (offset x i)
        dst.data (offset dst i)
  done

(* dst_i <- ms_i (broadcast per-slice copy from Mats). *)
let set_from_mats ?mask ms ~dst =
  check_mats "Batch.set_from_mats" dst ms;
  check_mask "Batch.set_from_mats" dst mask;
  for i = 0 to dst.b - 1 do
    if live mask i then
      Array.blit (Mat.data ms.(i)) 0 dst.data (offset dst i) (words dst)
  done

(* dst_i <- dst_i + coeffs_i * ms_i; the batched Hamiltonian-assembly
   axpy (per-slice real coefficient). *)
let add_scaled_re_into ?mask coeffs ms ~dst =
  check_mats "Batch.add_scaled_re_into" dst ms;
  check_floats "Batch.add_scaled_re_into" dst coeffs;
  check_mask "Batch.add_scaled_re_into" dst mask;
  let len = dst.dim * dst.dim in
  for i = 0 to dst.b - 1 do
    if live mask i then
      Kernels.axpy_re_at ~len coeffs i (Mat.data ms.(i)) 0 dst.data
        (offset dst i)
  done

(* dst_i <- coeffs_i * src_i (per-slice real scale). *)
let scale_re_into ?mask coeffs src ~dst =
  check_same "Batch.scale_re_into" src dst;
  check_floats "Batch.scale_re_into" src coeffs;
  check_mask "Batch.scale_re_into" src mask;
  let len = src.dim * src.dim in
  for i = 0 to src.b - 1 do
    if live mask i then
      Kernels.scale_re ~len coeffs.(i) src.data (offset src i) dst.data
        (offset dst i)
  done

(* --- per-slice reductions ----------------------------------------------- *)

(* Reduction outputs are interleaved: slice [i]'s (re, im) lands in
   [out.(2 i)], [out.(2 i + 1)], so the kernels write caller storage
   directly and the GRAPE loop never allocates a result cell. *)
let check_out name t out =
  if Array.length out <> 2 * t.b then
    invalid_arg (name ^ ": out length must be 2 * batch size")

(* out_(2i) + i out_(2i+1) <- tr(ms_i * t_i); [Mat] operand on the left. *)
let trace_mul_left ?mask ms t ~out =
  check_mats "Batch.trace_mul_left" t ms;
  check_out "Batch.trace_mul_left" t out;
  check_mask "Batch.trace_mul_left" t mask;
  for i = 0 to t.b - 1 do
    if live mask i then
      Kernels.trace_mul ~d:t.dim (Mat.data ms.(i)) 0 t.data (offset t i) out
        (2 * i)
  done

(* out_(2i) + i out_(2i+1) <- tr(t_i * ms_i); [Mat] operand on the right. *)
let trace_mul_right ?mask t ms ~out =
  check_mats "Batch.trace_mul_right" t ms;
  check_out "Batch.trace_mul_right" t out;
  check_mask "Batch.trace_mul_right" t mask;
  for i = 0 to t.b - 1 do
    if live mask i then
      Kernels.trace_mul ~d:t.dim t.data (offset t i) (Mat.data ms.(i)) 0 out
        (2 * i)
  done

let trace ?mask t ~out =
  check_out "Batch.trace" t out;
  check_mask "Batch.trace" t mask;
  for i = 0 to t.b - 1 do
    if live mask i then Kernels.trace ~d:t.dim t.data (offset t i) out (2 * i)
  done

let frobenius ?mask t ~out =
  check_floats "Batch.frobenius" t out;
  check_mask "Batch.frobenius" t mask;
  let len = t.dim * t.dim in
  for i = 0 to t.b - 1 do
    if live mask i then out.(i) <- Kernels.frobenius ~len t.data (offset t i)
  done

(* --- batched matrix exponential ----------------------------------------- *)

(* Each live slice runs in place the kernel that
   [Expm.expi_hermitian_into] runs on a standalone [Mat] (the closed form
   at dim 2, the series above), so every slice sees the exact op sequence
   of the solo exponential. *)
type scratch = { s_dim : int; ws : float array }

let scratch dim =
  if dim <= 0 then invalid_arg "Batch.scratch: non-positive dim";
  { s_dim = dim; ws = Array.make (Kernels.expi_scratch dim) 0.0 }

(* dst_i <- exp(-i * ts_i * h_i) for Hermitian slices of [h]. *)
let expi_hermitian_into ?mask (s : scratch) h ts ~dst =
  check_same "Batch.expi_hermitian_into" h dst;
  check_floats "Batch.expi_hermitian_into" h ts;
  check_mask "Batch.expi_hermitian_into" h mask;
  if s.s_dim <> h.dim then
    invalid_arg "Batch.expi_hermitian_into: scratch dim mismatch";
  for i = 0 to h.b - 1 do
    if live mask i then
      if h.dim = 2 then
        Kernels.expi2_at h.data (offset h i) ts i dst.data (offset dst i)
      else
        Kernels.expi_at ~d:h.dim h.data (offset h i) ts i dst.data
          (offset dst i) s.ws
  done
