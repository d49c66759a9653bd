(** Typed heterogeneous platform descriptions for the platform-based flow.

    The paper's platform flow fixes n identical standard cores; this module
    generalizes it to a typed platform: an array of PE {e kinds} (with
    per-kind speed/power/thermal characteristics, see {!Pe.kind}) plus a
    slot map assigning one kind to each PE position. It is the only
    architecture model of the platform flow: "n identical cores" is
    [homogeneous ~kind ~n_pes], and on
    [homogeneous ~kind:(Catalog.platform_kind ()) ~n_pes:4] scheduling
    reproduces the published Tables 1–3 byte for byte. *)

type t = {
  platform_name : string;
  kinds : Pe.kind array;  (** dense, [kinds.(i).kind_id = i] *)
  slots : int array;  (** PE slot [i] hosts kind [kinds.(slots.(i))] *)
}

val make : name:string -> kinds:Pe.kind list -> slots:int list -> t
(** Validates that kind ids are dense and in order and every slot indexes a
    kind; raises [Invalid_argument] otherwise. *)

val homogeneous : name:string -> kind:Pe.kind -> n_pes:int -> t
(** [n_pes] identical slots of [kind] (whose [kind_id] must be 0). *)

val name : t -> string
val kinds : t -> Pe.kind array
val n_pes : t -> int
val n_kinds : t -> int

val is_homogeneous : t -> bool
(** True iff the platform has exactly one kind. *)

val kind_of_slot : t -> int -> Pe.kind

val instances : t -> Pe.inst array
(** One {!Pe.inst} per slot, [inst_id] = slot index. *)

val cost : t -> float
(** Sum of per-slot kind costs — the platform's architecture cost. *)

val pp : Format.formatter -> t -> unit
