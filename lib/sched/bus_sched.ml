module Graph = Tats_taskgraph.Graph
module Task = Tats_taskgraph.Task
module Pe = Tats_techlib.Pe
module Library = Tats_techlib.Library
module Comm = Tats_techlib.Comm

type transfer = { edge : Graph.edge; bus_start : float; bus_finish : float }

type result = { schedule : Schedule.t; transfers : transfer list }

let run ?weights ~graph ~lib ~pes ~policy () =
  (match policy with
  | Policy.Thermal_aware ->
      invalid_arg "Bus_sched.run: thermal policy not supported on the bus model"
  | Policy.Baseline | Policy.Power_aware _ -> ());
  let comm = Library.comm lib in
  (match comm.Comm.topology with
  | Comm.Shared_bus -> ()
  | Comm.Mesh _ ->
      invalid_arg "Bus_sched.run: the library's interconnect is not a shared bus");
  let weight =
    (match weights with
    | Some w -> w
    | None -> Policy.default_weights ~deadline:(Graph.deadline graph))
      .Policy.cost_weight
  in
  let st = List_sched.init (List_sched.prepare ~graph ~lib ~pes ~policy ()) in
  let entries : Schedule.entry option array = Array.make (Graph.n_tasks graph) None in
  let pe_free = Array.make (Array.length pes) 0.0 in
  let bus_free = ref 0.0 in
  let transfers = ref [] in
  (* Transfers of this task's inputs are scheduled on the bus, first-come
     in predecessor order, each after both the producer's finish and the
     bus becoming free; returns the last input's arrival. *)
  let book_transfers task pe =
    List.fold_left
      (fun acc (pred, data) ->
        let e = Option.get entries.(pred) in
        if e.Schedule.pe = pe || data <= 0.0 then Float.max acc e.Schedule.finish
        else begin
          let bus_start = Float.max e.Schedule.finish !bus_free in
          let bus_finish = bus_start +. Comm.delay comm ~data ~same_pe:false in
          bus_free := bus_finish;
          transfers :=
            { edge = { Graph.src = pred; dst = task; data }; bus_start; bus_finish }
            :: !transfers;
          Float.max acc bus_finish
        end)
      0.0 (Graph.preds graph task)
  in
  let ready = ref (List_sched.Ready.of_list (Graph.sources graph)) in
  let on_ready succ = ready := List_sched.Ready.add succ !ready in
  while List_sched.scheduled st < Graph.n_tasks graph do
    (* Selection uses the core's contention-free estimate; the commit
       books the bus and starts the task when its data has arrived. *)
    let choice =
      List_sched.pick ~caller:"Bus_sched.run" st
        (List_sched.scan st ~ready:!ready) ~weight
    in
    let { List_sched.task; pe; _ } = choice in
    let start = Float.max (book_transfers task pe) pe_free.(pe) in
    let e = List_sched.commit ~on_ready st { choice with start } in
    entries.(task) <- Some e;
    pe_free.(pe) <- e.Schedule.finish;
    ready := List_sched.Ready.remove task !ready
  done;
  { schedule = List_sched.finish st; transfers = List.rev !transfers }

let validate { schedule = s; transfers } ~lib =
  let comm = Library.comm lib in
  let problems = ref [] in
  let say fmt = Printf.ksprintf (fun m -> problems := m :: !problems) fmt in
  (* Bus exclusivity. *)
  let sorted =
    List.sort (fun a b -> compare a.bus_start b.bus_start) transfers
  in
  let rec scan = function
    | a :: (b :: _ as rest) ->
        if b.bus_start +. 1e-9 < a.bus_finish then
          say "bus overlap: %d->%d and %d->%d" a.edge.Graph.src a.edge.Graph.dst
            b.edge.Graph.src b.edge.Graph.dst;
        scan rest
    | [ _ ] | [] -> ()
  in
  scan sorted;
  (* Every cross-PE edge has one transfer, correctly anchored. *)
  List.iter
    (fun ({ Graph.src; dst; data } as edge) ->
      let p = s.Schedule.entries.(src) and c = s.Schedule.entries.(dst) in
      if p.Schedule.pe <> c.Schedule.pe && data > 0.0 then begin
        match List.filter (fun t -> t.edge = edge) transfers with
        | [ t ] ->
            if t.bus_start +. 1e-9 < p.Schedule.finish then
              say "transfer %d->%d starts before producer finishes" src dst;
            let duration = Comm.delay comm ~data ~same_pe:false in
            if Float.abs (t.bus_finish -. t.bus_start -. duration) > 1e-6 then
              say "transfer %d->%d has wrong duration" src dst;
            if c.Schedule.start +. 1e-9 < t.bus_finish then
              say "consumer %d starts before its data arrives" dst
        | [] -> say "missing transfer for edge %d->%d" src dst
        | _ -> say "duplicate transfers for edge %d->%d" src dst
      end
      else if c.Schedule.start +. 1e-9 < p.Schedule.finish then
        say "same-PE precedence broken on edge %d->%d" src dst)
    (Graph.edges s.Schedule.graph);
  (* PE exclusivity. *)
  for pe = 0 to Schedule.n_pes s - 1 do
    let rec scan = function
      | (a : Schedule.entry) :: (b :: _ as rest) ->
          if b.Schedule.start +. 1e-9 < a.Schedule.finish then
            say "PE%d overlap: %d and %d" pe a.Schedule.task b.Schedule.task;
          scan rest
      | [ _ ] | [] -> ()
    in
    scan (Schedule.tasks_on_pe s pe)
  done;
  List.rev !problems

let bus_utilization { schedule; transfers } =
  let busy =
    List.fold_left (fun acc t -> acc +. (t.bus_finish -. t.bus_start)) 0.0 transfers
  in
  busy /. Float.max schedule.Schedule.makespan 1e-9
