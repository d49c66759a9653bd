module Policy = Tats_sched.Policy
module Online = Tats_sched.Online
module Constraints = Tats_sched.Constraints
module Catalog = Tats_techlib.Catalog
module Benchmarks = Tats_taskgraph.Benchmarks

type arch = Platform | Cosynth

let arch_name = function Platform -> "platform" | Cosynth -> "cosynth"

type schedule_params = {
  bench : int;
  policy : Policy.t;
  arch : arch;
  n_pes : int;
  platform : string option;
  pins : (int * Constraints.pin) list;
  isolation : (int * int) list;
}

type transient_params = {
  sched : schedule_params;
  periods : int;
  dt : float option;
  time_unit : float;
  exact : bool;
}

type inquiry_params = {
  n_pes : int;
  power : float array;
  idle : float array;
}

type online_arrivals = Zero | Sporadic | Trace

let online_arrivals_name = function
  | Zero -> "zero"
  | Sporadic -> "sporadic"
  | Trace -> "trace"

type online_params = {
  o_bench : int;
  o_n_pes : int;
  o_policy : Online.policy;
  o_arrivals : online_arrivals;
  o_seed : int;
  o_mean_gap : float;
  o_platform : string option;
  o_pins : (int * Constraints.pin) list;
  o_isolation : (int * int) list;
}

type kind =
  | Ping
  | Stats
  | Schedule of schedule_params
  | Inquiry of inquiry_params
  | Transient of transient_params
  | Online of online_params
  | Sleep of float
  | Shutdown

let kind_name = function
  | Ping -> "ping"
  | Stats -> "stats"
  | Schedule _ -> "schedule"
  | Inquiry _ -> "inquiry"
  | Transient _ -> "transient"
  | Online _ -> "online"
  | Sleep _ -> "sleep"
  | Shutdown -> "shutdown"

type request = {
  id : Json.t option;
  deadline_ms : float option;
  kind : kind;
}

let request ?id ?deadline_ms kind = { id; deadline_ms; kind }

(* --- decoding ----------------------------------------------------------- *)

let ( let* ) = Result.bind
let field_error = Json.field_error
let bench_name i = Printf.sprintf "Bm%d" (i + 1)

let decode_bench obj =
  let* name = Json.field ~default:"Bm1" "bench" Json.str ~what:"must be a string" obj in
  match Benchmarks.index_of_name name with
  | Ok i -> Ok i
  | Error e -> field_error "bench" e

let decode_n_pes obj =
  let* n_pes = Json.field ~default:4 "n_pes" Json.int ~what:"must be an integer" obj in
  if n_pes < 1 || n_pes > 64 then field_error "n_pes" "must be in [1, 64]"
  else Ok n_pes

(* --- heterogeneous platform specs --------------------------------------- *)

let decode_platform obj =
  match Json.mem "platform" obj with
  | None -> Ok None
  | Some v -> (
      match Json.str v with
      | None -> field_error "platform" "must be a string"
      | Some name -> (
          match Catalog.platform_of_name name with
          | Ok _ -> Ok (Some name)
          | Error e -> field_error "platform" e))

(* Item errors name the outer member ("pins"/"isolation"), whichever
   front end (tatsd, campaign spec) the object came from. *)
let decode_pin item =
  let nat key = Option.bind (Json.mem key item) Json.nat in
  match (nat "task", nat "pe", nat "kind") with
  | Some t, Some p, None -> Ok (t, Constraints.To_pe p)
  | Some t, None, Some k -> Ok (t, Constraints.To_kind k)
  | _ ->
      field_error "pins" {|each pin must be {"task": int, "pe": int} or {"task": int, "kind": int}|}

let decode_class item =
  let nat key = Option.bind (Json.mem key item) Json.nat in
  match (nat "task", nat "class") with
  | Some t, Some c -> Ok (t, c)
  | _ -> field_error "isolation" {|each entry must be {"task": int, "class": int}|}

let decode_constraints obj =
  let* pins = Json.array ~default:[] "pins" decode_pin ~what:"must be an array of pin objects" obj in
  let* isolation =
    Json.array ~default:[] "isolation" decode_class ~what:"must be an array of class objects" obj
  in
  Ok { Constraints.pins; isolation }

(* Each list is encoded only when non-empty, so requests and campaign
   specs without constraints keep their historical byte-exact encodings
   (and campaign cells their content addresses). *)
let constraints_to_json { Constraints.pins; isolation } =
  let int i = Json.Num (float_of_int i) in
  let pin = function Constraints.To_pe p -> ("pe", int p) | To_kind k -> ("kind", int k) in
  List.filter_map
    (fun (key, items) -> if items = [] then None else Some (key, Json.Arr items))
    [
      ("pins", List.map (fun (t, p) -> Json.Obj [ ("task", int t); pin p ]) pins);
      ( "isolation",
        List.map (fun (t, c) -> Json.Obj [ ("task", int t); ("class", int c) ]) isolation );
    ]

let hetero_fields ~platform ~pins ~isolation =
  (match platform with Some n -> [ ("platform", Json.Str n) ] | None -> [])
  @ constraints_to_json { Constraints.pins; isolation }

let decode_schedule obj =
  let* bench = decode_bench obj in
  let* policy_s =
    Json.field ~default:"thermal" "policy" Json.str ~what:"must be a string" obj
  in
  let* policy =
    match Policy.of_name policy_s with
    | Some p -> Ok p
    | None -> field_error "policy" (Printf.sprintf "unknown policy %S" policy_s)
  in
  let* arch_s =
    Json.field ~default:"platform" "arch" Json.str ~what:"must be a string" obj
  in
  let* arch =
    match arch_s with
    | "platform" -> Ok Platform
    | "cosynth" -> Ok Cosynth
    | other ->
        field_error "arch"
          (Printf.sprintf "unknown architecture %S (want platform|cosynth)" other)
  in
  let* n_pes = decode_n_pes obj in
  let* platform = decode_platform obj in
  let* { Constraints.pins; isolation } = decode_constraints obj in
  if arch = Cosynth && (platform <> None || pins <> [] || isolation <> []) then
    field_error "arch" "platform/pins/isolation require the platform architecture"
  else Ok { bench; policy; arch; n_pes; platform; pins; isolation }

let decode_transient obj =
  let* sched = decode_schedule obj in
  let* periods =
    Json.field ~default:50 "periods" Json.int ~what:"must be an integer" obj
  in
  if periods < 2 then field_error "periods" "must be >= 2"
  else
    let* dt =
      Json.field ~default:None "dt"
        (fun v ->
          match Json.num v with Some d when d > 0.0 -> Some (Some d) | _ -> None)
        ~what:"must be a positive number" obj
    in
    let* time_unit =
      Json.field ~default:1e-3 "time_unit" Json.num ~what:"must be a number" obj
    in
    if time_unit <= 0.0 then field_error "time_unit" "must be positive"
    else
      let* exact =
        Json.field ~default:false "exact" Json.bool ~what:"must be a boolean" obj
      in
      Ok { sched; periods; dt; time_unit; exact }

let finite_array ?length v =
  match Json.float_array v with
  | Some a
    when Array.for_all Float.is_finite a
         && (match length with
            | None -> Array.length a > 0
            | Some n -> Array.length a = n) ->
      Some a
  | _ -> None

let decode_inquiry obj =
  let* power =
    Json.field "power" finite_array
      ~what:"must be a non-empty array of finite numbers" obj
  in
  let* n_pes =
    Json.field ~default:(Array.length power) "n_pes" Json.int
      ~what:"must be an integer" obj
  in
  if n_pes <> Array.length power then
    field_error "n_pes" "must equal the length of \"power\""
  else
    let* idle =
      Json.field ~default:(Array.make n_pes 0.0) "idle"
        (finite_array ~length:n_pes)
        ~what:"must be an array of finite numbers, one per PE" obj
    in
    Ok { n_pes; power; idle }

let decode_online obj =
  let* o_bench = decode_bench obj in
  let* policy_s =
    Json.field ~default:"thermal" "policy" Json.str ~what:"must be a string" obj
  in
  let* policy =
    match Online.policy_of_name policy_s with
    | Some p -> Ok p
    | None ->
        field_error "policy"
          (Printf.sprintf
             "unknown online policy %S (want baseline|h1|h2|h3|thermal|reactive)"
             policy_s)
  in
  let* o_policy =
    match Json.mem "trigger" obj with
    | None -> Ok policy
    | Some v -> (
        match (policy, Json.num v) with
        | Online.Reactive r, Some t when t > 0.0 && Float.is_finite t ->
            Ok (Online.Reactive { r with Online.trigger = t })
        | Online.Reactive _, _ -> field_error "trigger" "must be a positive number"
        | Online.Mirror _, _ ->
            field_error "trigger" "only meaningful with the reactive policy")
  in
  let* arrivals_s =
    Json.field ~default:"sporadic" "arrivals" Json.str ~what:"must be a string"
      obj
  in
  let* o_arrivals =
    match arrivals_s with
    | "zero" -> Ok Zero
    | "sporadic" -> Ok Sporadic
    | "trace" -> Ok Trace
    | other ->
        field_error "arrivals"
          (Printf.sprintf "unknown arrival stream %S (want zero|sporadic|trace)"
             other)
  in
  let* o_seed = Json.field ~default:1 "seed" Json.int ~what:"must be an integer" obj in
  if o_seed < 0 then field_error "seed" "must be non-negative"
  else
    let* o_mean_gap =
      Json.field ~default:25.0 "mean_gap" Json.num ~what:"must be a number" obj
    in
    if not (o_mean_gap > 0.0 && Float.is_finite o_mean_gap) then
      field_error "mean_gap" "must be a positive number"
    else
      let* o_n_pes = decode_n_pes obj in
      let* o_platform = decode_platform obj in
      let* { Constraints.pins = o_pins; isolation = o_isolation } =
        decode_constraints obj
      in
      Ok
        {
          o_bench;
          o_n_pes;
          o_policy;
          o_arrivals;
          o_seed;
          o_mean_gap;
          o_platform;
          o_pins;
          o_isolation;
        }

let request_of_json json =
  match json with
  | Json.Obj _ ->
      let id = Json.mem "id" json in
      let* deadline_ms =
        Json.field ~default:None "deadline_ms"
          (fun v ->
            match Json.num v with
            | Some d when d >= 0.0 && Float.is_finite d -> Some (Some d)
            | _ -> None)
          ~what:"must be a non-negative number" json
      in
      let* kind_s = Json.field "kind" Json.str ~what:"must be a string" json in
      let* kind =
        match kind_s with
        | "ping" -> Ok Ping
        | "stats" -> Ok Stats
        | "shutdown" -> Ok Shutdown
        | "schedule" ->
            let* p = decode_schedule json in
            Ok (Schedule p)
        | "inquiry" ->
            let* p = decode_inquiry json in
            Ok (Inquiry p)
        | "transient" ->
            let* p = decode_transient json in
            Ok (Transient p)
        | "online" ->
            let* p = decode_online json in
            Ok (Online p)
        | "sleep" ->
            let* ms = Json.field ~default:0.0 "ms" Json.num ~what:"must be a number" json in
            if ms < 0.0 || ms > 60_000.0 then
              field_error "ms" "must be in [0, 60000]"
            else Ok (Sleep (ms /. 1000.0))
        | other -> field_error "kind" (Printf.sprintf "unknown kind %S" other)
      in
      Ok { id; deadline_ms; kind }
  | _ -> Error "request must be a JSON object"

(* --- encoding ----------------------------------------------------------- *)

let request_to_json { id; deadline_ms; kind } =
  let base = [ ("kind", Json.Str (kind_name kind)) ] in
  let base = match id with Some v -> ("id", v) :: base | None -> base in
  let base =
    match deadline_ms with
    | Some d -> base @ [ ("deadline_ms", Json.Num d) ]
    | None -> base
  in
  let params =
    let sched (p : schedule_params) =
      [
        ("bench", Json.Str (bench_name p.bench));
        ("policy", Json.Str (Policy.name p.policy));
        ("arch", Json.Str (arch_name p.arch));
        ("n_pes", Json.Num (float_of_int p.n_pes));
      ]
      @ hetero_fields ~platform:p.platform ~pins:p.pins ~isolation:p.isolation
    in
    match kind with
    | Ping | Stats | Shutdown -> []
    | Sleep s -> [ ("ms", Json.Num (s *. 1000.0)) ]
    | Schedule p -> sched p
    | Inquiry p ->
        [
          ("n_pes", Json.Num (float_of_int p.n_pes));
          ("power", Json.Arr (Array.to_list (Array.map (fun f -> Json.Num f) p.power)));
          ("idle", Json.Arr (Array.to_list (Array.map (fun f -> Json.Num f) p.idle)));
        ]
    | Transient p ->
        sched p.sched
        @ [
            ("periods", Json.Num (float_of_int p.periods));
            ("time_unit", Json.Num p.time_unit);
            ("exact", Json.Bool p.exact);
          ]
        @ (match p.dt with Some d -> [ ("dt", Json.Num d) ] | None -> [])
    | Online p ->
        [
          ("bench", Json.Str (bench_name p.o_bench));
          ("policy", Json.Str (Online.policy_name p.o_policy));
          ("arrivals", Json.Str (online_arrivals_name p.o_arrivals));
          ("seed", Json.Num (float_of_int p.o_seed));
          ("mean_gap", Json.Num p.o_mean_gap);
          ("n_pes", Json.Num (float_of_int p.o_n_pes));
        ]
        @ (match p.o_policy with
          | Online.Reactive r -> [ ("trigger", Json.Num r.Online.trigger) ]
          | Online.Mirror _ -> [])
        @ hetero_fields ~platform:p.o_platform ~pins:p.o_pins
            ~isolation:p.o_isolation
  in
  Json.Obj (base @ params)

(* --- replies ------------------------------------------------------------ *)

type error_code = Bad_request | Overloaded | Deadline | Shutting_down | Internal

let error_code_name = function
  | Bad_request -> "bad_request"
  | Overloaded -> "overloaded"
  | Deadline -> "deadline"
  | Shutting_down -> "shutting_down"
  | Internal -> "internal"

let with_id id members =
  match id with Some v -> ("id", v) :: members | None -> members

let ok_reply ?id ~kind payload =
  Json.Obj (with_id id (("ok", Json.Bool true) :: ("kind", Json.Str kind) :: payload))

let error_reply ?id code message =
  Json.Obj
    (with_id id
       [
         ("ok", Json.Bool false);
         ( "error",
           Json.Obj
             [
               ("code", Json.Str (error_code_name code));
               ("message", Json.Str message);
             ] );
       ])

let reply_ok reply =
  match Json.mem "ok" reply with Some (Json.Bool b) -> b | _ -> false

let reply_error reply =
  match Json.mem "error" reply with
  | Some err -> (
      match (Json.mem "code" err, Json.mem "message" err) with
      | Some (Json.Str code), Some (Json.Str msg) -> Some (code, msg)
      | Some (Json.Str code), _ -> Some (code, "")
      | _ -> None)
  | None -> None
