(* The fewest significant digits, at least 6, that read back as [x]. *)
let exact x =
  let rec go digits =
    let s = Printf.sprintf "%.*g" digits x in
    if digits >= 17 || float_of_string s = x then s else go (digits + 1)
  in
  go 6

let to_string g =
  let buf = Buffer.create 1024 in
  Buffer.add_string buf
    (Printf.sprintf "graph %s deadline %s\n" (Graph.name g) (exact (Graph.deadline g)));
  Array.iter
    (fun (t : Task.t) ->
      Buffer.add_string buf
        (Printf.sprintf "task %s type %d\n" t.Task.name t.Task.task_type))
    (Graph.tasks g);
  List.iter
    (fun { Graph.src; dst; data } ->
      let name id = (Graph.task g id).Task.name in
      if data = 0.0 then
        Buffer.add_string buf (Printf.sprintf "edge %s -> %s\n" (name src) (name dst))
      else
        Buffer.add_string buf
          (Printf.sprintf "edge %s -> %s data %s\n" (name src) (name dst) (exact data)))
    (Graph.edges g);
  Buffer.contents buf

type parse_state = {
  mutable builder : Graph.builder option;
  ids : (string, Task.id) Hashtbl.t;
}

let tokens line =
  String.split_on_char ' ' line
  |> List.concat_map (String.split_on_char '\t')
  |> List.filter (fun s -> s <> "")

let strip_comment line =
  match String.index_opt line '#' with
  | Some i -> String.sub line 0 i
  | None -> line

let of_string text =
  let state = { builder = None; ids = Hashtbl.create 64 } in
  let err lineno msg = Error (Printf.sprintf "line %d: %s" lineno msg) in
  let parse_line lineno line =
    match tokens (strip_comment line) with
    | [] -> Ok ()
    | [ "graph"; name; "deadline"; d ] -> begin
        match (state.builder, float_of_string_opt d) with
        | Some _, _ -> err lineno "duplicate graph directive"
        | None, None -> err lineno ("bad deadline: " ^ d)
        | None, Some deadline -> (
            match Graph.builder ~name ~deadline with
            | b ->
                state.builder <- Some b;
                Ok ()
            | exception Invalid_argument msg -> err lineno msg)
      end
    | [ "task"; name; "type"; tt ] -> begin
        match (state.builder, int_of_string_opt tt) with
        | None, _ -> err lineno "task before graph directive"
        | Some _, None -> err lineno ("bad task type: " ^ tt)
        | Some b, Some task_type ->
            if Hashtbl.mem state.ids name then
              err lineno ("duplicate task name: " ^ name)
            else if task_type < 0 then err lineno "negative task type"
            else begin
              Hashtbl.add state.ids name (Graph.add_task b ~name ~task_type ());
              Ok ()
            end
      end
    | "edge" :: src :: "->" :: dst :: rest -> begin
        let data =
          match rest with
          | [] -> Ok 0.0
          | [ "data"; d ] -> begin
              match float_of_string_opt d with
              | Some x -> Ok x
              | None -> Error ("bad edge data: " ^ d)
            end
          | _ -> Error "trailing tokens after edge"
        in
        match (state.builder, data) with
        | None, _ -> err lineno "edge before graph directive"
        | Some _, Error msg -> err lineno msg
        | Some b, Ok data -> begin
            match (Hashtbl.find_opt state.ids src, Hashtbl.find_opt state.ids dst) with
            | None, _ -> err lineno ("unknown task: " ^ src)
            | _, None -> err lineno ("unknown task: " ^ dst)
            | Some s, Some d -> begin
                match Graph.add_edge b ~data s d with
                | () -> Ok ()
                | exception Invalid_argument msg -> err lineno msg
              end
          end
      end
    | tok :: _ -> err lineno ("unrecognized directive: " ^ tok)
  in
  let lines = String.split_on_char '\n' text in
  let rec go lineno = function
    | [] -> begin
        match state.builder with
        | None -> Error "no graph directive found"
        | Some b -> begin
            match Graph.build b with
            | g -> Ok g
            | exception Invalid_argument msg -> Error msg
          end
      end
    | line :: rest -> begin
        match parse_line lineno line with
        | Ok () -> go (lineno + 1) rest
        | Error _ as e -> e
      end
  in
  go 1 lines

let save g path =
  let oc = open_out path in
  Fun.protect
    ~finally:(fun () -> close_out oc)
    (fun () -> output_string oc (to_string g))

let load path =
  match open_in path with
  | ic ->
      Fun.protect
        ~finally:(fun () -> close_in ic)
        (fun () -> of_string (In_channel.input_all ic))
  | exception Sys_error msg -> Error msg
