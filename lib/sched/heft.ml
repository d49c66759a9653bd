module Graph = Tats_taskgraph.Graph
module Task = Tats_taskgraph.Task
module Criticality = Tats_taskgraph.Criticality
module Pe = Tats_techlib.Pe
module Library = Tats_techlib.Library
module Comm = Tats_techlib.Comm

let upward_rank = Dc.static_criticality

(* Earliest start on a PE with the insertion policy: scan the sorted busy
   intervals for the first gap that fits [duration] at or after [ready]. *)
let insertion_start intervals ~ready ~duration =
  let rec scan prev_end = function
    | [] -> Float.max ready prev_end
    | (s, f) :: rest ->
        let candidate = Float.max ready prev_end in
        if candidate +. duration <= s +. 1e-9 then candidate else scan f rest
  in
  scan 0.0 intervals

let insert_interval intervals (s, f) =
  let rec go = function
    | [] -> [ (s, f) ]
    | ((s', _) as hd) :: rest when s < s' -> (s, f) :: hd :: rest
    | hd :: rest -> hd :: go rest
  in
  go intervals

let run ?(constraints = Constraints.empty) ~graph ~lib ~pes () =
  if Array.length pes = 0 then invalid_arg "Heft.run: empty PE array";
  let n = Graph.n_tasks graph in
  let checker = Constraints.make constraints ~n_tasks:n ~pes in
  let comm = Library.comm lib in
  let rank = upward_rank lib graph in
  let order = Criticality.rank_order rank in
  let entries = Array.make n None in
  let busy = Array.make (Array.length pes) [] in
  Array.iter
    (fun task ->
      let tt = (Graph.task graph task).Task.task_type in
      let best = ref None in
      Array.iteri
        (fun pe (inst : Pe.inst) ->
          if Constraints.admissible checker ~task ~pe ~pes then begin
          let kind = inst.Pe.kind.Pe.kind_id in
          let wcet = Library.wcet lib ~task_type:tt ~kind in
          let ready =
            List.fold_left
              (fun acc (pred, data) ->
                match entries.(pred) with
                | None ->
                    (* rank order is a topological order, so predecessors
                       are always placed first *)
                    assert false
                | Some (e : Schedule.entry) ->
                    let delay = Comm.delay_between comm ~src:e.Schedule.pe ~dst:pe ~data in
                    Float.max acc (e.Schedule.finish +. delay))
              0.0 (Graph.preds graph task)
          in
          let start = insertion_start busy.(pe) ~ready ~duration:wcet in
          let finish = start +. wcet in
          let better =
            match !best with
            | None -> true
            | Some (f', _, _, _) -> finish < f' -. 1e-12
          in
          if better then best := Some (finish, pe, start, wcet)
          end)
        pes;
      match !best with
      | None ->
          raise (Constraints.Infeasible (Constraints.infeasible_msg "Heft.run"))
      | Some (finish, pe, start, _wcet) ->
          ignore (Constraints.commit checker ~task ~pe : bool);
          let kind = pes.(pe).Pe.kind.Pe.kind_id in
          let energy = Library.energy lib ~task_type:tt ~kind in
          entries.(task) <- Some { Schedule.task; pe; start; finish; energy };
          busy.(pe) <- insert_interval busy.(pe) (start, finish))
    order;
  let entries =
    Array.map (function Some e -> e | None -> assert false) entries
  in
  Schedule.make ~graph ~pes ~entries
