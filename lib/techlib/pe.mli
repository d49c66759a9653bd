(** Processing elements.

    A {!kind} is a catalogue entry (a core type with its silicon area, dollar
    cost, speed and power characteristics); an {!inst} is one placed instance
    of a kind inside an architecture. Co-synthesis picks a multiset of kinds;
    the platform-based flow fixes four instances of one kind. *)

type kind = {
  kind_id : int;
  kind_name : string;
  area : float;  (** die area in m^2 (drives the floorplan + thermal model) *)
  cost : float;  (** co-synthesis price *)
  speed : float; (** relative throughput; 1.0 = reference core *)
  power_scale : float;
      (** dynamic power of the reference-intensity task on this kind, W *)
  idle_power : float; (** leakage/idle floor, W *)
  specialization : (int * float) list;
      (** (task_type, wcet multiplier < 1) pairs: task types this kind
          accelerates, e.g. a DSP running filter kernels *)
}

type inst = { inst_id : int; kind : kind }

val make_kind :
  kind_id:int ->
  name:string ->
  area:float ->
  cost:float ->
  speed:float ->
  power_scale:float ->
  idle_power:float ->
  ?specialization:(int * float) list ->
  unit ->
  kind
(** Validates the numeric fields: positive and finite ([idle_power] may be
    zero); raises [Invalid_argument] otherwise. *)

val instances : kind list -> inst array
(** Numbers instances densely in list order. *)

val pp_kind : Format.formatter -> kind -> unit
val pp_inst : Format.formatter -> inst -> unit
