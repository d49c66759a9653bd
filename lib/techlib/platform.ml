(* A typed platform description: which PE kinds exist and which kind sits
   in each PE slot. Every fixed architecture is one of these; "n identical
   cores" is the single-kind case built by [homogeneous]. *)

type t = { platform_name : string; kinds : Pe.kind array; slots : int array }

let check_kinds kinds =
  if Array.length kinds = 0 then invalid_arg "Platform.make: no kinds";
  Array.iteri
    (fun i (k : Pe.kind) ->
      if k.Pe.kind_id <> i then
        invalid_arg
          (Printf.sprintf
             "Platform.make: kind_ids must be dense and in order (slot %d has \
              id %d)"
             i k.Pe.kind_id))
    kinds

let make ~name ~kinds ~slots =
  let kinds = Array.of_list kinds and slots = Array.of_list slots in
  check_kinds kinds;
  if Array.length slots = 0 then invalid_arg "Platform.make: no PE slots";
  Array.iter
    (fun s ->
      if s < 0 || s >= Array.length kinds then
        invalid_arg
          (Printf.sprintf "Platform.make: slot kind %d out of range" s))
    slots;
  { platform_name = name; kinds; slots }

let homogeneous ~name ~kind ~n_pes =
  if n_pes <= 0 then invalid_arg "Platform.homogeneous: non-positive n_pes";
  make ~name ~kinds:[ kind ] ~slots:(List.init n_pes (fun _ -> 0))

let name t = t.platform_name
let kinds t = t.kinds
let n_pes t = Array.length t.slots
let n_kinds t = Array.length t.kinds
let is_homogeneous t = Array.length t.kinds = 1
let kind_of_slot t i = t.kinds.(t.slots.(i))

let instances t =
  Pe.instances (Array.to_list (Array.map (fun s -> t.kinds.(s)) t.slots))

let cost t =
  Array.fold_left (fun acc s -> acc +. t.kinds.(s).Pe.cost) 0.0 t.slots

let pp ppf t =
  Format.fprintf ppf "%s[%s]" t.platform_name
    (String.concat "," (Array.to_list (Array.map (fun s -> t.kinds.(s).Pe.kind_name) t.slots)))
