(* Safety-criticality placement constraints for the schedulers: pinned
   tasks (task -> PE or task -> kind affinity) and isolation groups
   (criticality classes that may never share a PE).

   The spec is a plain immutable value; each scheduler run builds its own
   stateful [checker] from it, so a spec can be reused across the
   bisection attempts of [List_sched.run_adaptive] or across campaign
   cells without aliasing.

   Soundness of the greedy schedulers' "empty candidate scan => give up"
   rule rests on the claim invariant maintained here: with U = unclaimed
   PEs and K = isolation classes that own no PE yet, U >= K always holds.
   A class that already owns a PE may claim a fresh one only while U > K,
   so the unplaced classes can never be starved of PEs by earlier greedy
   choices; admissibility is monotone between commits, hence an empty
   admissible scan means the instance is genuinely infeasible (for the
   committed prefix), not an artifact of commit order. *)

module Task = Tats_taskgraph.Task
module Pe = Tats_techlib.Pe

type pin = To_pe of int | To_kind of int

type spec = { pins : (Task.id * pin) list; isolation : (Task.id * int) list }

let empty = { pins = []; isolation = [] }

exception Invalid of string
exception Infeasible of string

let invalid fmt = Printf.ksprintf (fun m -> raise (Invalid m)) fmt

type checker = {
  pin_of : pin option array;  (* by task *)
  class_of : int option array;  (* by task *)
  pe_class : int option array;  (* by PE: owning class, if claimed *)
  placed : (int, unit) Hashtbl.t;  (* classes owning >= 1 PE *)
  n_classes : int;
  mutable unclaimed : int;  (* U *)
  mutable unplaced : int;  (* K *)
}

let pin_allows (pes : Pe.inst array) pin pe =
  match pin with
  | To_pe p -> pe = p
  | To_kind k -> pes.(pe).Pe.kind.Pe.kind_id = k

let make spec ~n_tasks ~(pes : Pe.inst array) =
  let n_pes = Array.length pes in
  let kind_present k =
    Array.exists (fun i -> i.Pe.kind.Pe.kind_id = k) pes
  in
  let pin_of = Array.make n_tasks None in
  List.iter
    (fun (task, pin) ->
      if task < 0 || task >= n_tasks then
        invalid "constraints: pinned task %d out of range" task;
      (match pin with
      | To_pe p ->
          if p < 0 || p >= n_pes then
            invalid "constraints: task %d pinned to PE %d out of range" task p
      | To_kind k ->
          if not (kind_present k) then
            invalid "constraints: task %d pinned to kind %d absent from the platform"
              task k);
      match pin_of.(task) with
      | Some _ -> invalid "constraints: task %d pinned twice" task
      | None -> pin_of.(task) <- Some pin)
    spec.pins;
  let class_of = Array.make n_tasks None in
  List.iter
    (fun (task, cls) ->
      if task < 0 || task >= n_tasks then
        invalid "constraints: isolated task %d out of range" task;
      if cls < 0 then invalid "constraints: task %d has negative class %d" task cls;
      match class_of.(task) with
      | Some _ -> invalid "constraints: task %d isolated twice" task
      | None -> class_of.(task) <- Some cls)
    spec.isolation;
  let classes = Hashtbl.create 8 in
  Array.iter
    (function Some c -> Hashtbl.replace classes c () | None -> ())
    class_of;
  let n_classes = Hashtbl.length classes in
  if n_classes > n_pes then
    invalid "constraints: %d isolation classes but only %d PEs" n_classes n_pes;
  let t =
    {
      pin_of;
      class_of;
      pe_class = Array.make n_pes None;
      placed = Hashtbl.create 8;
      n_classes;
      unclaimed = n_pes;
      unplaced = n_classes;
    }
  in
  (* Pre-claim the PE pins of classed tasks: the pinned PE belongs to that
     class from the start, so no other class can grab it first at runtime. *)
  Array.iteri
    (fun task pin ->
      match (pin, t.class_of.(task)) with
      | Some (To_pe p), Some cls -> (
          match t.pe_class.(p) with
          | Some cls' when cls' <> cls ->
              invalid
                "constraints: tasks of classes %d and %d both pinned to PE %d"
                cls' cls p
          | Some _ -> ()
          | None ->
              t.pe_class.(p) <- Some cls;
              t.unclaimed <- t.unclaimed - 1;
              if not (Hashtbl.mem t.placed cls) then begin
                Hashtbl.replace t.placed cls ();
                t.unplaced <- t.unplaced - 1
              end)
      | _ -> ())
    pin_of;
  if t.unclaimed < t.unplaced then
    invalid
      "constraints: PE pins leave %d free PEs for %d unplaced isolation classes"
      t.unclaimed t.unplaced;
  t

let admissible t ~task ~pe ~(pes : Pe.inst array) =
  (match t.pin_of.(task) with
  | Some pin -> pin_allows pes pin pe
  | None -> true)
  &&
  match t.class_of.(task) with
  | None -> true
  | Some cls -> (
      match t.pe_class.(pe) with
      | Some cls' -> cls' = cls
      | None ->
          (* A fresh claim. An unplaced class always may (U >= K >= 1
             guarantees a PE); a placed class only while it leaves enough
             unclaimed PEs for the classes that still have none. *)
          if Hashtbl.mem t.placed cls then t.unclaimed > t.unplaced else true)

let commit t ~task ~pe =
  match t.class_of.(task) with
  | None -> false
  | Some cls -> (
      match t.pe_class.(pe) with
      | Some _ -> false
      | None ->
          t.pe_class.(pe) <- Some cls;
          t.unclaimed <- t.unclaimed - 1;
          if not (Hashtbl.mem t.placed cls) then begin
            Hashtbl.replace t.placed cls ();
            t.unplaced <- t.unplaced - 1
          end;
          true)

let infeasible_msg what =
  Printf.sprintf
    "%s: no admissible (task, PE) candidate under the pin/isolation \
     constraints"
    what

(* Post-hoc validation for the property suite and campaign artifacts. *)
let violations spec ~(pes : Pe.inst array) ~assignment =
  let n_tasks = Array.length assignment in
  let errs = ref [] in
  List.iter
    (fun (task, pin) ->
      if task >= 0 && task < n_tasks && not (pin_allows pes pin assignment.(task))
      then
        errs :=
          Printf.sprintf "task %d on PE %d violates its pin" task
            assignment.(task)
          :: !errs)
    spec.pins;
  let class_of = Hashtbl.create 8 in
  List.iter (fun (task, cls) -> Hashtbl.replace class_of task cls) spec.isolation;
  let pe_owner = Hashtbl.create 8 in
  Array.iteri
    (fun task pe ->
      match Hashtbl.find_opt class_of task with
      | None -> ()
      | Some cls -> (
          match Hashtbl.find_opt pe_owner pe with
          | Some cls' when cls' <> cls ->
              errs :=
                Printf.sprintf
                  "PE %d shared by isolation classes %d and %d (task %d)" pe
                  cls' cls task
                :: !errs
          | Some _ -> ()
          | None -> Hashtbl.replace pe_owner pe cls))
    assignment;
  List.rev !errs

let pp_pin ppf = function
  | To_pe p -> Format.fprintf ppf "pe:%d" p
  | To_kind k -> Format.fprintf ppf "kind:%d" k

let pp ppf s =
  Format.fprintf ppf "pins=[%s] isolation=[%s]"
    (String.concat ";"
       (List.map
          (fun (t, p) -> Format.asprintf "%d->%a" t pp_pin p)
          s.pins))
    (String.concat ";"
       (List.map (fun (t, c) -> Printf.sprintf "%d:%d" t c) s.isolation))
