module Rng = Tats_util.Rng

type t = {
  kinds : Pe.kind array;
  wcet : float array array; (* [task_type][kind_id] *)
  wcpc : float array array;
  comm : Comm.t;
  (* The library-wide maxima the DC cost terms normalize by, folded once
     when the tables are built ([with_maxima]). *)
  max_wcpc : float;
  max_energy : float;
}

let check_kinds kinds =
  let arr = Array.of_list kinds in
  Array.iteri
    (fun i (k : Pe.kind) ->
      if k.Pe.kind_id <> i then
        invalid_arg "Library: kind_ids must be dense and in order")
    arr;
  arr

let fold_tables f init wcet =
  let acc = ref init in
  Array.iteri
    (fun tt row -> Array.iteri (fun ki _ -> acc := f !acc tt ki) row)
    wcet;
  !acc

let with_maxima ~kinds ~wcet ~wcpc ~comm =
  {
    kinds;
    wcet;
    wcpc;
    comm;
    max_wcpc = fold_tables (fun acc tt ki -> Float.max acc wcpc.(tt).(ki)) 0.0 wcet;
    max_energy =
      fold_tables
        (fun acc tt ki -> Float.max acc (wcet.(tt).(ki) *. wcpc.(tt).(ki)))
        0.0 wcet;
  }

let of_tables ~kinds ~wcet ~wcpc ?(comm = Comm.default) () =
  let kinds = check_kinds kinds in
  let nk = Array.length kinds in
  let check name table =
    Array.iter
      (fun row ->
        if Array.length row <> nk then
          invalid_arg (Printf.sprintf "Library.of_tables: ragged %s table" name);
        Array.iter
          (fun x ->
            if not (x > 0.0 && Float.is_finite x) then
              invalid_arg
                (Printf.sprintf "Library.of_tables: non-positive or non-finite %s" name))
          row)
      table
  in
  check "wcet" wcet;
  check "wcpc" wcpc;
  if Array.length wcet <> Array.length wcpc then
    invalid_arg "Library.of_tables: wcet/wcpc disagree on task types";
  (* Copied, so that the caller's arrays cannot move the maxima. *)
  with_maxima ~kinds ~wcet:(Array.map Array.copy wcet)
    ~wcpc:(Array.map Array.copy wcpc) ~comm

let generate ~seed ~n_task_types ~kinds ?(comm = Comm.default) () =
  if n_task_types < 1 then invalid_arg "Library.generate: no task types";
  let kinds = check_kinds kinds in
  let rng = Rng.create seed in
  let wcet = Array.make_matrix n_task_types (Array.length kinds) 0.0 in
  let wcpc = Array.make_matrix n_task_types (Array.length kinds) 0.0 in
  for tt = 0 to n_task_types - 1 do
    let ref_wcet = Rng.uniform rng 40.0 160.0 in
    let intensity = Rng.uniform rng 0.6 1.6 in
    Array.iteri
      (fun ki (k : Pe.kind) ->
        let special =
          match List.assoc_opt tt k.Pe.specialization with
          | Some m -> m
          | None -> 1.0
        in
        let t_jitter = Rng.uniform rng 0.85 1.15 in
        let p_jitter = Rng.uniform rng 0.9 1.1 in
        wcet.(tt).(ki) <- ref_wcet /. k.Pe.speed *. t_jitter *. special;
        wcpc.(tt).(ki) <- k.Pe.power_scale *. intensity *. p_jitter)
      kinds
  done;
  with_maxima ~kinds ~wcet ~wcpc ~comm

let n_task_types t = Array.length t.wcet
let kinds t = Array.copy t.kinds
let kind t i = t.kinds.(i)
let comm t = t.comm

let wcet t ~task_type ~kind = t.wcet.(task_type).(kind)
let wcpc t ~task_type ~kind = t.wcpc.(task_type).(kind)
let energy t ~task_type ~kind = t.wcet.(task_type).(kind) *. t.wcpc.(task_type).(kind)

let wcet_avg t ~task_type =
  Tats_util.Stats.mean t.wcet.(task_type)

let max_wcpc t = t.max_wcpc
let max_energy t = t.max_energy

let pp ppf t =
  Format.fprintf ppf "@[<v>library: %d task types x %d kinds@," (n_task_types t)
    (Array.length t.kinds);
  Array.iter (fun k -> Format.fprintf ppf "  %a@," Pe.pp_kind k) t.kinds;
  Format.fprintf ppf "@]"
