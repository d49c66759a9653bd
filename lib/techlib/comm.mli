(** Inter-PE communication model.

    Two topologies:

    - {b Shared bus} (the co-synthesis default, and the paper's implicit
      model): any cross-PE transfer costs the same per byte.
    - {b 2D mesh NoC}: PEs sit on a [cols]-wide grid (PE [i] at row
      [i / cols], column [i mod cols]); a transfer pays a per-hop latency
      over the Manhattan distance plus the per-byte serialization, and
      energy scales with the hop count.

    Communication between tasks mapped to the same PE is free in both
    models, the usual co-synthesis assumption. *)

type topology =
  | Shared_bus
  | Mesh of { cols : int; per_hop_delay : float }

type t = {
  delay_per_byte : float;
  energy_per_byte : float;
  topology : topology;
}

val make :
  delay_per_byte:float -> energy_per_byte:float -> ?topology:topology -> unit -> t
(** [topology] defaults to [Shared_bus]. Both rates must be finite and
    non-negative, mesh [cols] positive and [per_hop_delay] finite and
    non-negative; [Invalid_argument] otherwise, a non-finite value named
    by its field ("Comm.make: non-finite delay_per_byte"). *)

val default : t
(** Shared bus, 0.2 time-units and 0.05 J per byte — edge payloads of
    16–128 bytes then cost a small fraction of a typical task's WCET. *)

val mesh : ?cols:int -> ?per_hop_delay:float -> unit -> t
(** Default-rate mesh: 2 columns, 4.0 time units per hop. *)

val hops : t -> src:int -> dst:int -> int
(** Manhattan distance on the mesh; 1 between distinct PEs on the bus;
    0 when [src = dst]. PE indices must be non-negative. *)

val delay : t -> data:float -> same_pe:bool -> float
(** Topology-free view (used where endpoints are unknown, e.g. static
    criticality): bus semantics, i.e. [data * delay_per_byte] across PEs. *)

val delay_between : t -> src:int -> dst:int -> data:float -> float
(** Exact transfer latency between PE indices:
    0 same-PE; [data * rate] on the bus;
    [hops * per_hop_delay + data * rate] on the mesh. *)

val energy_between : t -> src:int -> dst:int -> data:float -> float
(** 0 same-PE; [data * rate] on the bus; [hops * data * rate] on the mesh
    (every traversed link burns the per-byte energy). *)
