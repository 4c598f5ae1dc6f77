(** Double-ended queue used as a thread pool.

    Supports the access patterns of the paper's schedulers: FIFO
    (push_back/pop_front), LIFO (push_back/pop_back) and work stealing
    (owner pops front, thieves pop back). *)

type 'a t

val create : unit -> 'a t

val length : 'a t -> int

val push_back : 'a t -> 'a -> unit

val pop_front : 'a t -> 'a option

val pop_back : 'a t -> 'a option
