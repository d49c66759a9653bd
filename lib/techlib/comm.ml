type topology = Shared_bus | Mesh of { cols : int; per_hop_delay : float }

type t = { delay_per_byte : float; energy_per_byte : float; topology : topology }

let finite field x =
  if not (Float.is_finite x) then invalid_arg ("Comm.make: non-finite " ^ field)

let make ~delay_per_byte ~energy_per_byte ?(topology = Shared_bus) () =
  finite "delay_per_byte" delay_per_byte;
  finite "energy_per_byte" energy_per_byte;
  if delay_per_byte < 0.0 || energy_per_byte < 0.0 then
    invalid_arg "Comm.make: negative rate";
  (match topology with
  | Shared_bus -> ()
  | Mesh { cols; per_hop_delay } ->
      if cols < 1 then invalid_arg "Comm.make: mesh needs at least one column";
      finite "per_hop_delay" per_hop_delay;
      if per_hop_delay < 0.0 then invalid_arg "Comm.make: negative hop delay");
  { delay_per_byte; energy_per_byte; topology }

let default =
  { delay_per_byte = 0.2; energy_per_byte = 0.05; topology = Shared_bus }

let mesh ?(cols = 2) ?(per_hop_delay = 4.0) () =
  make ~delay_per_byte:default.delay_per_byte
    ~energy_per_byte:default.energy_per_byte
    ~topology:(Mesh { cols; per_hop_delay })
    ()

let hops t ~src ~dst =
  if src < 0 || dst < 0 then invalid_arg "Comm.hops: negative PE index";
  if src = dst then 0
  else
    match t.topology with
    | Shared_bus -> 1
    | Mesh { cols; _ } ->
        abs ((src / cols) - (dst / cols)) + abs ((src mod cols) - (dst mod cols))

let delay t ~data ~same_pe = if same_pe then 0.0 else data *. t.delay_per_byte

let delay_between t ~src ~dst ~data =
  if src = dst then 0.0
  else
    match t.topology with
    | Shared_bus -> data *. t.delay_per_byte
    | Mesh { per_hop_delay; _ } ->
        (float_of_int (hops t ~src ~dst) *. per_hop_delay)
        +. (data *. t.delay_per_byte)

let energy_between t ~src ~dst ~data =
  if src = dst then 0.0
  else
    match t.topology with
    | Shared_bus -> data *. t.energy_per_byte
    | Mesh _ -> float_of_int (hops t ~src ~dst) *. data *. t.energy_per_byte
