(** Allocation contracts: measure what a call leaves on the minor heap. *)

val minor_words : (unit -> unit) -> float
(** Minor-heap words allocated while running [f ()]. Run [f] once
    beforehand so that tables and caches it fills on first use are
    warm. *)
