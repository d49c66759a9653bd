(** Warmed thermal-engine registry: one {!Tats_thermal.Hotspot} facade
    (and therefore one {!Tats_thermal.Inquiry} engine, with its influence
    matrix and per-step tables) per {e platform fingerprint}, shared
    across every request the server dispatches.

    A long-running server sees the same platforms over and over, so
    keeping the engine alive between requests converts the first
    request's warm-up (the influence matrix, the factored network) into
    every later request's fast path, and a repeated schedule request
    finds the step tables an earlier one filled. Cross-request reuse is
    observable as a non-zero {!hit_rate} on a repeated-platform workload.

    A fingerprint identifies everything the engine's numbers depend on:
    ["platform:<n_pes>"] for {!Tats_techlib.Catalog.std_platform}[ n_pes],
    ["platform-name:<name>"] for a named typed platform. Either way the
    facade is {!Tats_cosynth.Flow.platform_facade} of that platform with
    the default package, the one {!Tats_cosynth.Flow.run_platform} would
    build. Co-synthesis requests are {e not}
    served from the registry: their placement is part of the answer, so
    each builds its own facade (see DESIGN.md §11, engine-sharing
    lifecycle).

    Sharing is sound for bit-identity because the facade is thread-safe
    and the step tables are value-safe: a slot answers only inputs
    bit-identical to its own, with what a fresh solve would produce, and
    a leakage inquiry stores nothing ({!Tats_thermal.Inquiry}), so a
    served result never depends on which requests warmed the engine
    first. *)

type t

val create : unit -> t
(** An empty registry. Engines are built lazily, on first use of each
    fingerprint, under the registry mutex. *)

val platform : t -> n_pes:int -> Tats_thermal.Hotspot.t
(** The shared facade for {!Tats_techlib.Catalog.std_platform}[ n_pes],
    fingerprinted ["platform:<n_pes>"]. Raises [Invalid_argument] when
    [n_pes < 1]. *)

val typed_platform : t -> Tats_techlib.Platform.t -> Tats_thermal.Hotspot.t
(** The shared facade for a typed (possibly heterogeneous) platform,
    fingerprinted ["platform-name:<name>"]. Builtin platforms are
    immutable, so the name identifies the geometry. *)

val count : t -> int
(** Distinct fingerprints currently warmed. *)

val fingerprints : t -> string list
(** Warmed fingerprints, sorted. *)

type stats = {
  engines : int;
  inquiries : int;  (** inquiries served across all registry engines *)
  cache_hits : int;  (** of which answered from a step table without a step *)
}

val stats : t -> stats
(** Aggregated {!Tats_thermal.Inquiry} counters over the registry's
    engines — the cross-request reuse measurement. Engines whose inquiry
    side was never touched contribute zeros. *)

val hit_rate : stats -> float
(** [cache_hits / inquiries], 0 when no inquiries were served. *)
