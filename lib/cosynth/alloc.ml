module Graph = Tats_taskgraph.Graph
module Pe = Tats_techlib.Pe
module Library = Tats_techlib.Library
module Schedule = Tats_sched.Schedule
module List_sched = Tats_sched.List_sched
module Policy = Tats_sched.Policy

type t = {
  insts : Pe.inst array;
  total_cost : float;
  feasible : bool;
  asp_runs : int;
  makespan : float;
}

let instances_of_kinds lib kind_ids =
  Pe.instances (List.map (fun k -> Library.kind lib k) kind_ids)

let makespan_of runs ~policy ~weights ~graph ~lib kinds =
  incr runs;
  let pes = instances_of_kinds lib kinds in
  let s = List_sched.run ?weights ~graph ~lib ~pes ~policy () in
  s.Schedule.makespan

let total_cost lib kinds =
  List.fold_left (fun acc k -> acc +. (Library.kind lib k).Pe.cost) 0.0 kinds

(* The search state is a multiset of kind ids (kept sorted for
   determinism). *)
let run ?(max_pes = 8) ?(min_pes = 1) ?(policy = Policy.Baseline) ?weights ?from
    ~graph ~lib () =
  if max_pes < 1 || min_pes < 1 || min_pes > max_pes then
    invalid_arg "Alloc.run: bad PE bounds";
  (match from with
  | Some f when Array.length f.insts >= min_pes ->
      invalid_arg "Alloc.run: ~from must have fewer than min_pes instances"
  | _ -> ());
  (match policy with
  | Policy.Thermal_aware ->
      invalid_arg
        "Alloc.run: thermal-aware allocation needs a floorplan per candidate; \
         allocate with Baseline and let the flow's outer loop iterate"
  | Policy.Baseline | Policy.Power_aware _ -> ());
  let runs = ref (match from with Some f -> f.asp_runs | None -> 0) in
  let n_kinds = Array.length (Library.kinds lib) in
  let all_kinds = List.init n_kinds Fun.id in
  let makespan = makespan_of runs ~policy ~weights ~graph ~lib in
  let deadline = Graph.deadline graph in
  (* Seed: the cheapest single kind that meets the deadline alone, else the
     cheapest kind outright — cost is the primary co-synthesis objective,
     the deadline the constraint. *)
  let kind_cost k = (Library.kind lib k).Pe.cost in
  let cheaper a b = kind_cost a < kind_cost b in
  let start, start_makespan =
    match from with
    | Some f ->
        (* Every growth step depends only on the kinds so far and their
           makespan, and a run with more than [f]'s instances as its floor
           grows through [f]'s state: the search continues from there. *)
        (Array.to_list (Array.map (fun (i : Pe.inst) -> i.Pe.kind.Pe.kind_id) f.insts),
         f.makespan)
    | None ->
        let seed =
          let feasible_alone =
            List.filter (fun k -> makespan [ k ] <= deadline +. 1e-9) all_kinds
          in
          let pool = if feasible_alone = [] then all_kinds else feasible_alone in
          List.fold_left (fun best k -> if cheaper k best then k else best)
            (List.hd pool) (List.tl pool)
        in
        ([ seed ], makespan [ seed ])
  in
  let kinds = ref start in
  let current_makespan = ref start_makespan in
  let continue_growing () =
    List.length !kinds < min_pes
    || (!current_makespan > deadline +. 1e-9 && List.length !kinds < max_pes)
  in
  while continue_growing () do
    (* Grow by one instance. Prefer the cheapest addition that reaches
       feasibility; otherwise the best makespan improvement per unit cost. *)
    let candidates =
      List.map
        (fun k ->
          let c = List.sort compare (k :: !kinds) in
          (k, c, makespan c))
        all_kinds
    in
    let feasible = List.filter (fun (_, _, m) -> m <= deadline +. 1e-9) candidates in
    let chosen =
      match feasible with
      | _ :: _ ->
          List.fold_left
            (fun (bk, bc, bm) (k, c, m) ->
              if cheaper k bk || (kind_cost k = kind_cost bk && m < bm) then (k, c, m)
              else (bk, bc, bm))
            (List.hd feasible) (List.tl feasible)
      | [] ->
          let gain (k, _, m) = (!current_makespan -. m) /. kind_cost k in
          List.fold_left
            (fun best c ->
              if gain c > gain best +. 1e-12 then c
              else if
                Float.abs (gain c -. gain best) <= 1e-12
                && (fun (k, _, _) -> kind_cost k) c < (fun (k, _, _) -> kind_cost k) best
              then c
              else best)
            (List.hd candidates) (List.tl candidates)
    in
    let _, c, m = chosen in
    kinds := c;
    current_makespan := m
  done;
  {
    insts = instances_of_kinds lib !kinds;
    total_cost = total_cost lib !kinds;
    feasible = !current_makespan <= deadline +. 1e-9;
    asp_runs = !runs;
    makespan = !current_makespan;
  }
