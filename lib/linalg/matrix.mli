(** Dense square matrices (row-major [float array]) and the four BLAS
    kernels tiled Cholesky needs.  These are real computations, used to
    validate that the task DAG of {!Tiled} produces a correct
    factorization; the simulator charges their {e costs} via
    {!Blas_model}. *)

type t

val create : int -> t
(** Zero matrix of dimension [n]. *)

val dim : t -> int

val get : t -> int -> int -> float

val set : t -> int -> int -> float -> unit

val copy : t -> t

val identity : int -> t

(** [random_spd rng n] builds a well-conditioned symmetric positive
    definite matrix ([M Mᵀ + n·I]). *)
val random_spd : Desim.Rng.t -> int -> t

(** [matmul a b] allocates [a·b]. *)
val matmul : t -> t -> t

val transpose : t -> t

val sub : t -> t -> t

(** Frobenius norm. *)
val norm : t -> float

(** {1 Cholesky kernels (all act on lower triangles, in place)} *)

(** [potrf a]: factor [a = L·Lᵀ], leaving [L] in the lower triangle.
    @raise Failure on a non-positive-definite pivot. *)
val potrf : t -> unit

(** [trsm l b]: solve [X·Lᵀ = B] in place in [b] ([b ← b·L⁻ᵀ]). *)
val trsm : t -> t -> unit

(** [syrk a c]: [c ← c − a·aᵀ] (lower triangle updated fully here). *)
val syrk : t -> t -> unit

(** [gemm a b c]: [c ← c − a·bᵀ]. *)
val gemm : t -> t -> t -> unit

(** [cholesky a] is a non-tiled reference factorization (copy of [a]
    with [L] in the lower triangle, upper zeroed). *)
val cholesky : t -> t

(** Flop counts for a [b]-dimensional tile, used by the cost model. *)
val flops_potrf : int -> float

val flops_trsm : int -> float

val flops_syrk : int -> float

val flops_gemm : int -> float
