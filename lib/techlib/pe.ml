type kind = {
  kind_id : int;
  kind_name : string;
  area : float;
  cost : float;
  speed : float;
  power_scale : float;
  idle_power : float;
  specialization : (int * float) list;
}

type inst = { inst_id : int; kind : kind }

let make_kind ~kind_id ~name ~area ~cost ~speed ~power_scale ~idle_power
    ?(specialization = []) () =
  if kind_id < 0 then invalid_arg "Pe.make_kind: negative id";
  let positive x = x > 0.0 && Float.is_finite x in
  if not (positive area && positive cost && positive speed && positive power_scale)
  then invalid_arg "Pe.make_kind: non-positive or non-finite characteristic";
  if not (idle_power >= 0.0 && Float.is_finite idle_power) then
    invalid_arg "Pe.make_kind: negative or non-finite idle power";
  List.iter
    (fun (tt, m) ->
      if tt < 0 || not (positive m) then invalid_arg "Pe.make_kind: bad specialization")
    specialization;
  {
    kind_id;
    kind_name = name;
    area;
    cost;
    speed;
    power_scale;
    idle_power;
    specialization;
  }

let instances kinds =
  Array.of_list (List.mapi (fun i kind -> { inst_id = i; kind }) kinds)

let pp_kind ppf k =
  Format.fprintf ppf "%s(speed=%.2f, %.1fW, $%.0f)" k.kind_name k.speed
    k.power_scale k.cost

let pp_inst ppf i = Format.fprintf ppf "PE%d:%s" i.inst_id i.kind.kind_name
