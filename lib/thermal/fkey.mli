(** Float vectors as hash keys, compared bit for bit.

    The thermal engines store what they computed for a power vector and
    answer only that vector from it: {!Inquiry}'s per-step tables and
    {!Transient}'s per-[dt] [q] cache key their entries with this
    table. Two keys are equal when their lengths match and every entry
    has the same bits, so [-0.0] and [0.0] are distinct keys (they hash
    alike) and a stored value never answers a neighbouring vector. A
    stored key must not be mutated. *)

module Tbl : Hashtbl.S with type key = float array
