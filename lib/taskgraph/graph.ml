type edge = { src : Task.id; dst : Task.id; data : float }

type t = {
  name : string;
  deadline : float;
  tasks : Task.t array;
  succs : (Task.id * float) list array;
  preds : (Task.id * float) list array;
  n_edges : int;
}

type builder = {
  b_name : string;
  b_deadline : float;
  mutable b_tasks : Task.t list; (* reversed *)
  mutable b_count : int;
  mutable b_edges : edge list; (* reversed *)
}

let builder ~name ~deadline =
  if not (Float.is_finite deadline) then invalid_arg "Graph.builder: non-finite deadline";
  if deadline <= 0.0 then invalid_arg "Graph.builder: non-positive deadline";
  { b_name = name; b_deadline = deadline; b_tasks = []; b_count = 0; b_edges = [] }

let add_task b ?name ~task_type () =
  let id = b.b_count in
  b.b_tasks <- Task.make ~id ?name ~task_type () :: b.b_tasks;
  b.b_count <- id + 1;
  id

let add_edge b ?(data = 0.0) src dst =
  if src < 0 || src >= b.b_count || dst < 0 || dst >= b.b_count then
    invalid_arg "Graph.add_edge: unknown endpoint";
  if src = dst then invalid_arg "Graph.add_edge: self-loop";
  if not (Float.is_finite data) then invalid_arg "Graph.add_edge: non-finite data";
  if data < 0.0 then invalid_arg "Graph.add_edge: negative data";
  if List.exists (fun e -> e.src = src && e.dst = dst) b.b_edges then
    invalid_arg "Graph.add_edge: duplicate edge";
  b.b_edges <- { src; dst; data } :: b.b_edges

(* Kahn's algorithm over adjacency arrays; also detects cycles. *)
let kahn n succs preds =
  let indeg = Array.init n (fun i -> List.length preds.(i)) in
  let module Iset = Set.Make (Int) in
  let ready = ref Iset.empty in
  for i = 0 to n - 1 do
    if indeg.(i) = 0 then ready := Iset.add i !ready
  done;
  let order = Array.make n (-1) in
  let filled = ref 0 in
  while not (Iset.is_empty !ready) do
    let v = Iset.min_elt !ready in
    ready := Iset.remove v !ready;
    order.(!filled) <- v;
    incr filled;
    List.iter
      (fun (w, _) ->
        indeg.(w) <- indeg.(w) - 1;
        if indeg.(w) = 0 then ready := Iset.add w !ready)
      succs.(v)
  done;
  if !filled < n then None else Some order

let build b =
  let n = b.b_count in
  let tasks = Array.of_list (List.rev b.b_tasks) in
  let succs = Array.make n [] and preds = Array.make n [] in
  let edges = List.rev b.b_edges in
  List.iter
    (fun e ->
      succs.(e.src) <- (e.dst, e.data) :: succs.(e.src);
      preds.(e.dst) <- (e.src, e.data) :: preds.(e.dst))
    edges;
  Array.iteri (fun i l -> succs.(i) <- List.rev l) succs;
  Array.iteri (fun i l -> preds.(i) <- List.rev l) preds;
  match kahn n succs preds with
  | None -> invalid_arg "Graph.build: cyclic graph"
  | Some _ ->
      {
        name = b.b_name;
        deadline = b.b_deadline;
        tasks;
        succs;
        preds;
        n_edges = List.length edges;
      }

let name t = t.name
let deadline t = t.deadline
let n_tasks t = Array.length t.tasks
let n_edges t = t.n_edges
let task t id = t.tasks.(id)
let tasks t = Array.copy t.tasks
let succs t id = t.succs.(id)
let preds t id = t.preds.(id)

let has_edge t src dst = List.exists (fun (w, _) -> w = dst) t.succs.(src)

let edges t =
  let acc = ref [] in
  for src = Array.length t.tasks - 1 downto 0 do
    List.iter
      (fun (dst, data) -> acc := { src; dst; data } :: !acc)
      (List.rev t.succs.(src))
  done;
  !acc

let filter_ids p t =
  let acc = ref [] in
  for i = Array.length t.tasks - 1 downto 0 do
    if p i then acc := i :: !acc
  done;
  !acc

let sources t = filter_ids (fun i -> t.preds.(i) = []) t
let sinks t = filter_ids (fun i -> t.succs.(i) = []) t

let topological_order t =
  match kahn (n_tasks t) t.succs t.preds with
  | Some order -> order
  | None -> assert false (* acyclicity was established at build time *)

let is_weakly_connected t =
  let n = n_tasks t in
  if n = 0 then true
  else begin
    let seen = Array.make n false in
    let rec visit v =
      if not seen.(v) then begin
        seen.(v) <- true;
        List.iter (fun (w, _) -> visit w) t.succs.(v);
        List.iter (fun (w, _) -> visit w) t.preds.(v)
      end
    in
    visit 0;
    Array.for_all Fun.id seen
  end

let longest_path_hops t =
  let order = topological_order t in
  let depth = Array.make (n_tasks t) 1 in
  Array.iter
    (fun v ->
      List.iter
        (fun (w, _) -> depth.(w) <- Stdlib.max depth.(w) (depth.(v) + 1))
        t.succs.(v))
    order;
  Array.fold_left Stdlib.max 0 depth

let pp ppf t =
  Format.fprintf ppf "@[<v>%s: %d tasks, %d edges, deadline %.0f@]" t.name
    (n_tasks t) t.n_edges t.deadline
