(** Tiled LU factorization without pivoting — a second task-DAG workload
    exercising the same runtime machinery as {!Tiled} with a different
    dependence structure (two panel solves per step instead of one).

    Restricted to diagonally dominant matrices so that pivoting is
    unnecessary (the usual assumption for no-pivot LU benchmarks). *)

type op =
  | Getrf of int  (** factor diagonal tile (k,k) into L\U *)
  | Trsm_l of int * int  (** (k,j): U panel solve, j > k *)
  | Trsm_u of int * int  (** (i,k): L panel solve, i > k *)
  | Gemm of int * int * int  (** (i,j) -= (i,k)·(k,j) *)

type task = { id : int; op : op; preds : int list; succs : int list }

val dag : int -> task array

val flops : op -> b:int -> float

(** {1 Real kernels on full matrices (for validation)} *)

(** In-place LU of a tile: unit-lower L and U packed together.
    @raise Failure on a zero pivot. *)
val getrf : Matrix.t -> unit

(** [trsm_l l b]: solve [L·X = B] in place in [b] (unit lower [l]). *)
val trsm_l : Matrix.t -> Matrix.t -> unit

(** [trsm_u u b]: solve [X·U = B] in place in [b] (upper [u]). *)
val trsm_u : Matrix.t -> Matrix.t -> unit

(** [gemm a b c]: [c ← c − a·b]. *)
val gemm : Matrix.t -> Matrix.t -> Matrix.t -> unit

(** [factorize m ~t] — tiled LU; returns the packed L\U matrix. *)
val factorize : Matrix.t -> t:int -> Matrix.t

(** Split a packed L\U into (unit-lower L, upper U). *)
val split_lu : Matrix.t -> Matrix.t * Matrix.t

(** A random diagonally dominant matrix (no pivoting needed). *)
val random_dd : Desim.Rng.t -> int -> Matrix.t
