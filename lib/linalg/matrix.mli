(** Dense row-major float matrices on flat contiguous storage.

    Sized for the compact thermal model: networks of a few tens of nodes,
    where a dense LU factorization is both simplest and fastest. Element
    (i, j) lives at index [i * cols + j] of a single [float array]; the
    accessors here are bounds-checked, while the kernels in this library
    (tiled {!mul}, the blocked LU, the fused CG primitives) run unsafe
    indexed loops over {!data} after validating shapes once. *)

type t

val create : int -> int -> t
(** [create rows cols] is a zero matrix. *)

val init : int -> int -> (int -> int -> float) -> t
val identity : int -> t
val of_arrays : float array array -> t
(** Copies a rectangular array-of-rows. Raises [Invalid_argument] on ragged
    input. *)

val to_arrays : t -> float array array

val col : t -> int -> float array
(** [col m j] copies column [j] out as a vector. Raises [Invalid_argument]
    when [j] is out of range. *)

val rows : t -> int
val cols : t -> int

val data : t -> float array
(** The underlying flat row-major buffer, shared (not a copy): element
    (i, j) is [ (data m).(i * cols m + j) ]. For kernel code that needs
    raw indexed access after its own shape validation — mutating it
    mutates the matrix. *)

val get : t -> int -> int -> float
(** Bounds-checked element read. Raises [Invalid_argument] out of range. *)

val set : t -> int -> int -> float -> unit
(** Bounds-checked element write. Raises [Invalid_argument] out of range. *)

val add_to : t -> int -> int -> float -> unit
(** [add_to m i j x] is [set m i j (get m i j +. x)]. *)

val copy : t -> t
val transpose : t -> t
val add : t -> t -> t
val sub : t -> t -> t
val scale : float -> t -> t
val mul : t -> t -> t
(** Matrix product — cache-tiled over 48x48 blocks with an unrolled
    contiguous inner loop, but with the scalar accumulation order of the
    classic ikj triple loop, so results are bit-identical to the naive
    kernel on finite inputs. Raises [Invalid_argument] on dimension
    mismatch. *)

val mul_vec : t -> float array -> float array
(** Matrix-vector product. *)

val mul_vec_add_into :
  n:int -> float array -> x:float array -> init:float array -> dst:float array -> unit
(** [mul_vec_add_into ~n m ~x ~init ~dst] sets
    [dst.(i) <- init.(i) +. Σ_j x.(j) *. m.(i * n + j)] for [i < n], over
    a row-major flat [n × n] matrix [m]. [j] ascends, a zero [x.(j)]
    ([0.0] or [-0.0]) is skipped, and each row sums into one accumulator
    that starts at [init.(i)]: every element sees the operations of the
    column-major sweep [dst <- init; dst <- dst +. x.(j) *. column j]
    in the same order, so it is bit-identical to it. [init] may be
    [dst]; [x] may not. Raises [Invalid_argument] when an array is
    shorter than [n] (or [m] than [n * n]) or [x == dst]. *)

val frobenius : t -> float
(** Frobenius norm. *)

val max_abs_diff : t -> t -> float
(** Largest entrywise absolute difference (for approximate equality). *)

val pp : Format.formatter -> t -> unit
