val bytes : unit -> float
(** Bytes this domain has allocated so far: minor-heap words plus words
    allocated directly in the major heap, times the word size.  The
    difference of two readings is the allocation of the code between
    them, whether or not a collection fell in between.  Use this, not
    [Gc.allocated_bytes]: on OCaml 5.1 that counts the unfinished minor
    heap at an eighth of its size and catches up at each minor
    collection, so a window reads low without a collection inside it
    and high with one.  A reading itself allocates a few words. *)
