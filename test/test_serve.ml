(* Tests for the serving layer: the JSON codec (round trips, float
   fidelity, malformed-input rejection), the length-prefixed framing
   (including truncated, oversized and garbage frames), the typed request
   protocol, and the server itself — concurrent clients must observe
   bit-identical results to direct library calls (the engine-sharing
   soundness claim), deadline and overload rejections must be explicit
   error replies, shutdown must drain admitted work, and the real tatsd
   binary must serve and stop cleanly as a subprocess. *)

module Json = Tats_serve.Json
module Frame = Tats_serve.Frame
module Protocol = Tats_serve.Protocol
module Engines = Tats_serve.Engines
module Server = Tats_serve.Server
module Client = Tats_serve.Client
module Benchmarks = Tats_taskgraph.Benchmarks
module Pe = Tats_techlib.Pe
module Catalog = Tats_techlib.Catalog
module Block = Tats_floorplan.Block
module Grid = Tats_floorplan.Grid
module Hotspot = Tats_thermal.Hotspot
module Policy = Tats_sched.Policy
module Online = Tats_sched.Online
module Schedule = Tats_sched.Schedule
module Metrics = Tats_sched.Metrics
module Replay = Tats_sched.Replay
module Flow = Tats_cosynth.Flow
module Pool = Tats_util.Pool

let () = Pool.set_default_jobs 2

(* Deterministic pseudo-random bytes for the fuzz cases. *)
let lcg = ref 0x2026
let rand_int bound =
  lcg := ((!lcg * 1103515245) + 12345) land 0x3FFFFFFF;
  (!lcg lsr 7) mod bound
let rand_string max_len =
  let len = 1 + rand_int max_len in
  String.init len (fun _ -> Char.chr (rand_int 256))

let policy name = Option.get (Policy.of_name name)

(* Record-literal helpers: the heterogeneity extension fields default to
   absent/empty, exactly like requests that never mention them. *)
let sched_params ?platform ?(pins = []) ?(isolation = []) bench pname arch
    n_pes =
  { Protocol.bench; policy = policy pname; arch; n_pes; platform; pins; isolation }

let online_params ?platform ?(pins = []) ?(isolation = []) ~policy:o_policy
    ~arrivals:o_arrivals ~seed:o_seed ~mean_gap:o_mean_gap o_bench o_n_pes =
  {
    Protocol.o_bench;
    o_n_pes;
    o_policy;
    o_arrivals;
    o_seed;
    o_mean_gap;
    o_platform = platform;
    o_pins = pins;
    o_isolation = isolation;
  }

let ok_or_fail what = function
  | Ok v -> v
  | Error msg -> Alcotest.failf "%s: %s" what msg

let get_num reply field =
  match Json.mem field reply with
  | Some (Json.Num f) -> f
  | _ -> Alcotest.failf "missing numeric %S in %s" field (Json.to_string reply)

let get_farr reply field =
  match Option.bind (Json.mem field reply) Json.float_array with
  | Some a -> a
  | None -> Alcotest.failf "missing array %S in %s" field (Json.to_string reply)

let bits = Int64.bits_of_float

let check_bits name a b =
  if bits a <> bits b then
    Alcotest.failf "%s: served %.17g <> direct %.17g" name a b

let check_bits_arr name a b =
  Alcotest.(check int) (name ^ " length") (Array.length b) (Array.length a);
  Array.iteri (fun i x -> check_bits (Printf.sprintf "%s.(%d)" name i) x b.(i)) a

let error_code reply =
  match Protocol.reply_error reply with Some (code, _) -> code | None -> "ok"

(* --- JSON codec ----------------------------------------------------------- *)

let test_json_roundtrip () =
  let cases =
    [
      Json.Null;
      Json.Bool true;
      Json.Bool false;
      Json.Num 0.0;
      Json.Num (-1.5);
      Json.Num 3.0;
      Json.Str "";
      Json.Str "hello \"world\"\n\t\\";
      Json.Str "caf\xc3\xa9";
      Json.Arr [];
      Json.Obj [];
      Json.Arr [ Json.Num 1.0; Json.Str "x"; Json.Null ];
      Json.Obj
        [
          ("a", Json.Arr [ Json.Obj [ ("b", Json.Bool false) ] ]);
          ("empty", Json.Obj []);
        ];
    ]
  in
  List.iter
    (fun v ->
      let s = Json.to_string v in
      match Json.of_string s with
      | Ok v' -> Alcotest.(check bool) ("roundtrip " ^ s) true (v = v')
      | Error e -> Alcotest.failf "reparse of %s failed: %s" s e)
    cases

let test_json_float_fidelity () =
  let floats =
    [
      0.1; 1.0 /. 3.0; Float.pi; 1e-300; 1e300; -0.0; 12345678901234567.0;
      1.5e-9; 0x1.fffffffffffffp-2; min_float; max_float;
    ]
  in
  List.iter
    (fun f ->
      let s = Json.to_string (Json.Num f) in
      match Json.of_string s with
      | Ok (Json.Num f') ->
          if bits f <> bits f' then
            Alcotest.failf "float %h printed %s reparsed %h" f s f'
      | other ->
          Alcotest.failf "float %h printed %s reparsed oddly: %s" f s
            (match other with Ok v -> Json.to_string v | Error e -> e))
    floats;
  (* Non-finite numbers have no JSON spelling; the printer emits null. *)
  Alcotest.(check string) "nan is null" "null" (Json.to_string (Json.Num Float.nan));
  Alcotest.(check string) "inf is null" "null"
    (Json.to_string (Json.Num Float.infinity))

let test_json_rejects () =
  let bad =
    [
      ""; "   "; "{"; "}"; "[1,"; "[1 2]"; "{\"a\":}"; "{\"a\" 1}";
      "\"unterminated"; "tru"; "nul"; "1.2.3"; "+5"; "01x"; "[1] trailing";
      "{\"a\":1,}"; "\xff\xfe"; "\"bad \\q escape\""; "\"\\u12\"";
    ]
  in
  List.iter
    (fun s ->
      match Json.of_string s with
      | Error _ -> ()
      | Ok v ->
          Alcotest.failf "accepted malformed %S as %s" s (Json.to_string v))
    bad;
  (* Deep nesting is bounded, not stack-fatal. *)
  let deep = String.make 600 '[' ^ String.make 600 ']' in
  (match Json.of_string deep with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "accepted 600-deep nesting");
  (* Fuzz: arbitrary bytes never raise. *)
  for _ = 1 to 500 do
    match Json.of_string (rand_string 80) with Ok _ | Error _ -> ()
  done

(* --- framing -------------------------------------------------------------- *)

let with_socketpair f =
  let a, b = Unix.socketpair Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  Fun.protect
    ~finally:(fun () ->
      (try Unix.close a with Unix.Unix_error _ -> ());
      try Unix.close b with Unix.Unix_error _ -> ())
    (fun () -> f a b)

let raw_header len =
  let b = Bytes.create 4 in
  Bytes.set_int32_be b 0 (Int32.of_int len);
  Bytes.to_string b

let send_raw fd s =
  let n = Unix.write_substring fd s 0 (String.length s) in
  Alcotest.(check int) "raw write complete" (String.length s) n

let test_frame_roundtrip () =
  with_socketpair @@ fun a b ->
  List.iter
    (fun payload ->
      Frame.write a payload;
      match Frame.read b with
      | Ok p -> Alcotest.(check string) "frame payload" payload p
      | Error e ->
          Alcotest.failf "frame read failed: %a" Frame.pp_read_error e)
    [ "hello"; ""; String.make 100_000 'x'; "\x00\x01\xff" ]

let test_frame_errors () =
  (* Clean EOF between frames. *)
  with_socketpair (fun a b ->
      Unix.close a;
      match Frame.read b with
      | Error Frame.Eof -> ()
      | other ->
          Alcotest.failf "expected Eof, got %s"
            (match other with
            | Ok p -> Printf.sprintf "payload %S" p
            | Error e -> Format.asprintf "%a" Frame.pp_read_error e));
  (* EOF mid-frame is Truncated, not Eof. *)
  with_socketpair (fun a b ->
      send_raw a (raw_header 10);
      send_raw a "abc";
      Unix.close a;
      match Frame.read b with
      | Error Frame.Truncated -> ()
      | _ -> Alcotest.fail "expected Truncated");
  (* EOF mid-header is also Truncated. *)
  with_socketpair (fun a b ->
      send_raw a "\x00\x00";
      Unix.close a;
      match Frame.read b with
      | Error Frame.Truncated -> ()
      | _ -> Alcotest.fail "expected Truncated on partial header");
  (* A length beyond the cap is rejected before any allocation. *)
  with_socketpair (fun a b ->
      send_raw a (raw_header 5_000_000);
      match Frame.read ~max_frame:4_194_304 b with
      | Error (Frame.Oversized n) -> Alcotest.(check int) "size" 5_000_000 n
      | _ -> Alcotest.fail "expected Oversized");
  (* Negative when read as int32: also oversized, not a crash. *)
  with_socketpair (fun a b ->
      send_raw a "\xff\xff\xff\xff";
      match Frame.read b with
      | Error (Frame.Oversized _) -> ()
      | _ -> Alcotest.fail "expected Oversized on 0xffffffff header")

(* --- protocol ------------------------------------------------------------- *)

let test_protocol_roundtrip () =
  let reqs =
    [
      Protocol.request Protocol.Ping;
      Protocol.request ~id:(Json.Str "a") Protocol.Stats;
      Protocol.request ~deadline_ms:5.0 Protocol.Shutdown;
      Protocol.request (Protocol.Sleep 0.25);
      Protocol.request ~id:(Json.Num 7.0)
        (Protocol.Schedule (sched_params 2 "h2" Protocol.Platform 6));
      Protocol.request
        (Protocol.Schedule (sched_params 0 "thermal" Protocol.Cosynth 4));
      (* Heterogeneous platform requests: every extension field must
         survive the encode/decode round trip. *)
      Protocol.request ~id:(Json.Str "het")
        (Protocol.Schedule
           (sched_params ~platform:"biglittle4"
              ~pins:
                [
                  (0, Protocol.Constraints.To_pe 1);
                  (3, Protocol.Constraints.To_kind 1);
                ]
              ~isolation:[ (2, 0); (5, 1) ]
              1 "thermal" Protocol.Platform 4));
      Protocol.request
        (Protocol.Schedule
           (sched_params ~platform:"mixed6" 0 "h1" Protocol.Platform 4));
      Protocol.request
        (Protocol.Schedule
           (sched_params ~isolation:[ (0, 0); (1, 1); (2, 2) ] 0 "baseline"
              Protocol.Platform 4));
      Protocol.request
        (Protocol.Inquiry
           {
             Protocol.n_pes = 3;
             power = [| 0.5; 0.25; 0.125 |];
             idle = [| 0.1; 0.1; 0.1 |];
           });
      Protocol.request
        (Protocol.Transient
           {
             Protocol.sched = sched_params 1 "baseline" Protocol.Platform 4;
             periods = 10;
             dt = Some 0.0005;
             time_unit = 1e-3;
             exact = true;
           });
      Protocol.request
        (Protocol.Transient
           {
             Protocol.sched =
               sched_params ~platform:"std4"
                 ~pins:[ (1, Protocol.Constraints.To_pe 0) ]
                 0 "thermal" Protocol.Platform 4;
             periods = 10;
             dt = None;
             time_unit = 1e-3;
             exact = false;
           });
      Protocol.request ~id:(Json.Str "o1")
        (Protocol.Online
           (online_params ~policy:(Online.Mirror (policy "thermal"))
              ~arrivals:Protocol.Zero ~seed:1 ~mean_gap:25.0 0 4));
      Protocol.request
        (Protocol.Online
           (online_params
              ~policy:
                (Online.Reactive
                   { Online.default_reactive with Online.trigger = 50.0 })
              ~arrivals:Protocol.Sporadic ~seed:42 ~mean_gap:12.5 2 6));
      Protocol.request
        (Protocol.Online
           (online_params ~policy:(Online.Mirror (policy "baseline"))
              ~arrivals:Protocol.Trace ~seed:0 ~mean_gap:25.0 1 4));
      Protocol.request
        (Protocol.Online
           (online_params ~platform:"biglittle4"
              ~pins:[ (2, Protocol.Constraints.To_kind 1) ]
              ~isolation:[ (0, 0); (4, 1) ]
              ~policy:(Online.Mirror (policy "thermal"))
              ~arrivals:Protocol.Sporadic ~seed:7 ~mean_gap:20.0 0 4));
    ]
  in
  List.iter
    (fun req ->
      let json = Protocol.request_to_json req in
      let req' = ok_or_fail "decode" (Protocol.request_of_json json) in
      Alcotest.(check bool)
        ("roundtrip " ^ Json.to_string json)
        true (req = req'))
    reqs;
  (* Requests that never mention the heterogeneity extension must encode
     without its fields — old clients and goldens stay byte-stable. *)
  let plain =
    Json.to_string
      (Protocol.request_to_json
         (Protocol.request
            (Protocol.Schedule (sched_params 2 "h2" Protocol.Platform 6))))
  in
  List.iter
    (fun field ->
      (* Key position only: the arch *value* "platform" is legitimate. *)
      let re = Printf.sprintf "\"%s\":" field in
      Alcotest.(check bool)
        (Printf.sprintf "plain encoding omits %s" field)
        false
        (let len = String.length plain and flen = String.length re in
         let rec has i =
           i + flen <= len && (String.sub plain i flen = re || has (i + 1))
         in
         has 0))
    [ "platform"; "pins"; "isolation" ]

let test_protocol_rejects () =
  let bad =
    [
      "[]";
      "{}";
      {|{"kind": "warp"}|};
      {|{"kind": 7}|};
      {|{"kind": "schedule", "bench": "Bm9"}|};
      {|{"kind": "schedule", "policy": "coolest"}|};
      {|{"kind": "schedule", "arch": "quantum"}|};
      {|{"kind": "schedule", "n_pes": 0}|};
      {|{"kind": "schedule", "n_pes": 65}|};
      {|{"kind": "inquiry"}|};
      {|{"kind": "inquiry", "power": []}|};
      {|{"kind": "inquiry", "power": [1.0, "x"]}|};
      {|{"kind": "inquiry", "power": [1.0], "idle": [1.0, 2.0]}|};
      {|{"kind": "inquiry", "power": [1.0], "n_pes": 2}|};
      {|{"kind": "transient", "periods": 1}|};
      {|{"kind": "transient", "dt": -0.5}|};
      {|{"kind": "transient", "time_unit": 0}|};
      {|{"kind": "sleep", "ms": -1}|};
      {|{"kind": "sleep", "ms": 60001}|};
      {|{"kind": "ping", "deadline_ms": -2}|};
      {|{"kind": "online", "bench": "Bm9"}|};
      {|{"kind": "online", "policy": "psychic"}|};
      {|{"kind": "online", "policy": "thermal", "trigger": 60}|};
      {|{"kind": "online", "policy": "reactive", "trigger": 0}|};
      {|{"kind": "online", "policy": "reactive", "trigger": -5}|};
      {|{"kind": "online", "arrivals": "burst"}|};
      {|{"kind": "online", "seed": -1}|};
      {|{"kind": "online", "mean_gap": 0}|};
      {|{"kind": "online", "n_pes": 0}|};
      {|{"kind": "online", "n_pes": 65}|};
      {|{"kind": "schedule", "platform": "warp9"}|};
      {|{"kind": "schedule", "platform": 4}|};
      {|{"kind": "schedule", "arch": "cosynth", "platform": "std4"}|};
      {|{"kind": "schedule", "arch": "cosynth", "pins": [{"task": 0, "pe": 1}]}|};
      {|{"kind": "schedule", "arch": "cosynth", "isolation": [{"task": 0, "class": 0}]}|};
      {|{"kind": "schedule", "pins": [{"task": 0}]}|};
      {|{"kind": "schedule", "pins": [{"task": 0, "pe": 1, "kind": 1}]}|};
      {|{"kind": "schedule", "pins": [{"task": -1, "pe": 1}]}|};
      {|{"kind": "schedule", "pins": [{"task": 0.5, "pe": 1}]}|};
      {|{"kind": "schedule", "pins": 7}|};
      {|{"kind": "schedule", "isolation": [{"task": 0}]}|};
      {|{"kind": "schedule", "isolation": [{"task": 0, "class": -2}]}|};
      {|{"kind": "schedule", "isolation": "none"}|};
      {|{"kind": "online", "platform": "warp9"}|};
      {|{"kind": "online", "pins": [{"pe": 1}]}|};
      {|{"kind":"schedule","n_pes":4.5}|};
      {|{"kind":"transient","periods":2.9}|};
      {|{"kind":"online","seed":1e300}|};
      {|{"kind":"inquiry","power":[1,1],"n_pes":2.5}|};
    ]
  in
  List.iter
    (fun s ->
      let json = ok_or_fail ("parse " ^ s) (Json.of_string s) in
      match Protocol.request_of_json json with
      | Error _ -> ()
      | Ok _ -> Alcotest.failf "accepted invalid request %s" s)
    bad

(* --- server: lifecycle and robustness ------------------------------------- *)

let with_server ?(config = Server.default_config) path f =
  let server = Server.create { config with Server.socket_path = path } in
  Fun.protect ~finally:(fun () -> Server.stop_and_wait server) (fun () -> f server)

let test_server_ping_stats () =
  with_server "t_serve_ping.sock" @@ fun _server ->
  Client.with_client "t_serve_ping.sock" @@ fun c ->
  let reply =
    ok_or_fail "ping" (Client.request c (Protocol.request Protocol.Ping))
  in
  Alcotest.(check bool) "ping ok" true (Protocol.reply_ok reply);
  let reply =
    ok_or_fail "stats"
      (Client.request c (Protocol.request ~id:(Json.Str "s1") Protocol.Stats))
  in
  Alcotest.(check bool) "stats ok" true (Protocol.reply_ok reply);
  Alcotest.(check bool)
    "stats echoes id" true
    (Json.mem "id" reply = Some (Json.Str "s1"));
  Alcotest.(check bool) "stats counts requests" true (get_num reply "requests" >= 1.0)

let test_server_rejects_garbage () =
  with_server "t_serve_garbage.sock" @@ fun _server ->
  (* Garbage payloads inside well-formed frames: one error reply each, and
     the connection keeps working. *)
  Client.with_client "t_serve_garbage.sock" @@ fun c ->
  for _ = 1 to 50 do
    match Client.call c (Json.Str (rand_string 60)) with
    | Ok reply ->
        (* A Str request is valid JSON but not an object. *)
        Alcotest.(check string) "code" "bad_request" (error_code reply)
    | Error e -> Alcotest.failf "transport error on garbage: %s" e
  done;
  let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  Unix.connect fd (Unix.ADDR_UNIX "t_serve_garbage.sock");
  Fun.protect ~finally:(fun () -> try Unix.close fd with Unix.Unix_error _ -> ())
  @@ fun () ->
  for _ = 1 to 50 do
    let payload = rand_string 60 in
    Frame.write fd payload;
    match Frame.read fd with
    | Ok reply_s ->
        let reply = ok_or_fail "reply parses" (Json.of_string reply_s) in
        Alcotest.(check string) "code" "bad_request" (error_code reply)
    | Error e -> Alcotest.failf "no reply to garbage: %a" Frame.pp_read_error e
  done;
  (* The server survived all of it. *)
  Client.with_client "t_serve_garbage.sock" @@ fun c ->
  let reply =
    ok_or_fail "ping after garbage"
      (Client.request c (Protocol.request Protocol.Ping))
  in
  Alcotest.(check bool) "still up" true (Protocol.reply_ok reply)

let test_server_oversized_and_truncated () =
  let path = "t_serve_frames.sock" in
  with_server ~config:{ Server.default_config with Server.max_frame = 4096 }
    path
  @@ fun _server ->
  (* Oversized: explicit error reply, then the connection is dropped
     (the unread body makes resync impossible). *)
  let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  Unix.connect fd (Unix.ADDR_UNIX path);
  send_raw fd (raw_header 100_000);
  (match Frame.read fd with
  | Ok reply_s ->
      let reply = ok_or_fail "reply parses" (Json.of_string reply_s) in
      Alcotest.(check string) "code" "bad_request" (error_code reply)
  | Error e ->
      Alcotest.failf "no reply to oversized frame: %a" Frame.pp_read_error e);
  (match Frame.read fd with
  | Error Frame.Eof -> ()
  | Ok _ -> Alcotest.fail "connection should be closed after oversized frame"
  | Error _ -> ());
  (try Unix.close fd with Unix.Unix_error _ -> ());
  (* Truncated: header promises more than we send; the server just drops
     the connection without crashing. *)
  let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  Unix.connect fd (Unix.ADDR_UNIX path);
  send_raw fd (raw_header 64);
  send_raw fd "short";
  Unix.close fd;
  (* Still serving. *)
  Client.with_client path @@ fun c ->
  let reply =
    ok_or_fail "ping after bad frames"
      (Client.request c (Protocol.request Protocol.Ping))
  in
  Alcotest.(check bool) "still up" true (Protocol.reply_ok reply)

(* --- server: semantics ---------------------------------------------------- *)

(* Build the facade exactly as Flow.run_platform does, for direct-call
   comparison against served results. *)
let fresh_platform_hotspot n_pes =
  let insts = Catalog.platform_instances n_pes in
  let blocks =
    Array.map
      (fun (i : Pe.inst) ->
        Block.make
          ~name:(Printf.sprintf "PE%d_%s" i.Pe.inst_id i.Pe.kind.Pe.kind_name)
          ~area:i.Pe.kind.Pe.area ())
      insts
  in
  Hotspot.create (Grid.layout blocks)

let test_concurrent_bit_identity () =
  let path = "t_serve_ident.sock" in
  with_server path @@ fun _server ->
  let cases =
    [| (0, "thermal"); (0, "baseline"); (1, "thermal"); (0, "h2") |]
  in
  let replies = Array.make (Array.length cases) (Error "unset") in
  let threads =
    Array.mapi
      (fun i (bench, pname) ->
        Thread.create
          (fun () ->
            replies.(i) <-
              (try
                 Client.with_client path @@ fun c ->
                 Client.request c
                   (Protocol.request
                      (Protocol.Schedule
                         (sched_params bench pname Protocol.Platform 4)))
               with e -> Error (Printexc.to_string e)))
          ())
      cases
  in
  Array.iter Thread.join threads;
  Array.iteri
    (fun i (bench, pname) ->
      let reply = ok_or_fail (Printf.sprintf "case %d" i) replies.(i) in
      Alcotest.(check bool)
        (Printf.sprintf "case %d ok" i)
        true (Protocol.reply_ok reply);
      let graph = Benchmarks.load bench in
      let lib = Catalog.platform_library () in
      let o = Flow.run_platform ~graph ~lib ~policy:(policy pname) () in
      let name = Printf.sprintf "Bm%d/%s" (bench + 1) pname in
      check_bits (name ^ " makespan")
        (get_num reply "makespan")
        o.Flow.schedule.Schedule.makespan;
      check_bits (name ^ " total_power")
        (get_num reply "total_power")
        o.Flow.row.Metrics.total_power;
      check_bits (name ^ " max_temp")
        (get_num reply "max_temp")
        o.Flow.row.Metrics.max_temp;
      check_bits (name ^ " avg_temp")
        (get_num reply "avg_temp")
        o.Flow.row.Metrics.avg_temp;
      check_bits (name ^ " arch_cost") (get_num reply "arch_cost") o.Flow.arch_cost;
      check_bits_arr (name ^ " pe_powers")
        (get_farr reply "pe_powers")
        o.Flow.report.Metrics.pe_powers;
      check_bits_arr (name ^ " block_temps")
        (get_farr reply "block_temps")
        o.Flow.report.Metrics.block_temps)
    cases

let test_inquiry_bit_identity () =
  let path = "t_serve_inq.sock" in
  with_server path @@ fun server ->
  let power = [| 0.8; 0.4; 0.6; 0.2 |] and idle = [| 0.1; 0.1; 0.1; 0.1 |] in
  let ask c =
    ok_or_fail "inquiry"
      (Client.request c
         (Protocol.request (Protocol.Inquiry { Protocol.n_pes = 4; power; idle })))
  in
  Client.with_client path @@ fun c ->
  let first = ask c in
  let again = ask c in
  let direct =
    Hotspot.inquire_with_leakage (fresh_platform_hotspot 4) ~dynamic:power ~idle
  in
  check_bits_arr "inquiry temps" (get_farr first "temps") direct;
  Alcotest.(check bool)
    "cache hit is bit-identical" true
    (get_farr first "temps" = get_farr again "temps");
  let es = Engines.stats (Server.engines server) in
  Alcotest.(check bool) "second inquiry hit the cache" true (es.Engines.cache_hits >= 1)

let test_transient_bit_identity () =
  let path = "t_serve_trans.sock" in
  with_server path @@ fun _server ->
  let reply =
    Client.with_client path @@ fun c ->
    ok_or_fail "transient"
      (Client.request c
         (Protocol.request
            (Protocol.Transient
               {
                 Protocol.sched = sched_params 0 "thermal" Protocol.Platform 4;
                 periods = 10;
                 dt = None;
                 time_unit = 1e-3;
                 exact = false;
               })))
  in
  Alcotest.(check bool) "transient ok" true (Protocol.reply_ok reply);
  let graph = Benchmarks.load 0 in
  let lib = Catalog.platform_library () in
  let o = Flow.run_platform ~graph ~lib ~policy:(policy "thermal") () in
  let profile = Replay.of_schedule ~time_unit:1e-3 ~lib o.Flow.schedule in
  let peaks = Replay.peaks ~periods:10 ~hotspot:o.Flow.hotspot profile in
  check_bits_arr "transient peaks" (get_farr reply "peaks") peaks

let test_online_bit_identity () =
  let path = "t_serve_online.sock" in
  with_server path @@ fun _server ->
  let ask c o_arrivals o_policy o_seed =
    ok_or_fail "online"
      (Client.request c
         (Protocol.request
            (Protocol.Online
               (online_params ~policy:o_policy ~arrivals:o_arrivals
                  ~seed:o_seed ~mean_gap:25.0 0 4))))
  in
  Client.with_client path @@ fun c ->
  (* Sporadic stream under the reactive policy: every scored number the
     server reports must be bitwise the library's own. *)
  let reply =
    ask c Protocol.Sporadic (Online.Reactive Online.default_reactive) 3
  in
  Alcotest.(check bool) "online ok" true (Protocol.reply_ok reply);
  let graph = Benchmarks.load 0 in
  let lib = Catalog.platform_library () in
  let o =
    Flow.run_online ~arrivals:(Flow.Release_sporadic 3) ~graph ~lib
      ~policy:(Online.Reactive Online.default_reactive) ()
  in
  check_bits "online makespan"
    (get_num reply "makespan")
    o.Flow.online.Online.schedule.Schedule.makespan;
  check_bits "online_makespan"
    (get_num reply "online_makespan")
    o.Flow.score.Online.online_makespan;
  check_bits "clairvoyant_makespan"
    (get_num reply "clairvoyant_makespan")
    o.Flow.score.Online.clairvoyant_makespan;
  check_bits "makespan_ratio"
    (get_num reply "makespan_ratio")
    o.Flow.score.Online.makespan_ratio;
  check_bits "online_peak"
    (get_num reply "online_peak")
    o.Flow.score.Online.online_peak;
  check_bits "clairvoyant_peak"
    (get_num reply "clairvoyant_peak")
    o.Flow.score.Online.clairvoyant_peak;
  check_bits "peak_ratio"
    (get_num reply "peak_ratio")
    o.Flow.score.Online.peak_ratio;
  Alcotest.(check int)
    "events" o.Flow.online.Online.stats.Online.events
    (int_of_float (get_num reply "events"));
  Alcotest.(check int)
    "deferrals" o.Flow.online.Online.stats.Online.deferrals
    (int_of_float (get_num reply "deferrals"));
  (* Degenerate zero stream: the served ratios must be exactly 1.0 — the
     wire-level restatement of the offline bit-identity theorem. *)
  let zero = ask c Protocol.Zero (Online.Mirror (policy "thermal")) 1 in
  check_bits "zero makespan_ratio" (get_num zero "makespan_ratio") 1.0;
  check_bits "zero peak_ratio" (get_num zero "peak_ratio") 1.0

let test_served_hetero_schedule () =
  let path = "t_serve_hetero.sock" in
  with_server path @@ fun _server ->
  Client.with_client path @@ fun c ->
  (* A heterogeneous request served through the engine registry must be
     bitwise the library's own answer. *)
  let pins = [ (0, Protocol.Constraints.To_kind 1) ] in
  let isolation = [ (1, 0); (2, 1) ] in
  let reply =
    ok_or_fail "hetero schedule"
      (Client.request c
         (Protocol.request
            (Protocol.Schedule
               (sched_params ~platform:"biglittle4" ~pins ~isolation 0
                  "thermal" Protocol.Platform 4))))
  in
  Alcotest.(check bool) "hetero ok" true (Protocol.reply_ok reply);
  Alcotest.(check bool)
    "payload names the platform" true
    (Json.mem "platform" reply = Some (Json.Str "biglittle4"));
  let platform = Option.get (Catalog.platform_named "biglittle4") in
  let graph = Benchmarks.load 0 in
  let lib = Catalog.library_for platform in
  let o =
    Flow.run_platform ~platform
      ~constraints:{ Flow.Constraints.pins; isolation }
      ~graph ~lib ~policy:(policy "thermal") ()
  in
  check_bits "hetero makespan"
    (get_num reply "makespan")
    o.Flow.schedule.Schedule.makespan;
  check_bits "hetero max_temp"
    (get_num reply "max_temp")
    o.Flow.row.Metrics.max_temp;
  check_bits "hetero arch_cost" (get_num reply "arch_cost") o.Flow.arch_cost;
  check_bits_arr "hetero pe_powers"
    (get_farr reply "pe_powers")
    o.Flow.report.Metrics.pe_powers;
  (* Statically impossible constraints are the client's fault: a clean
     bad_request naming the problem, never an internal error or a crash. *)
  let infeasible =
    ok_or_fail "infeasible schedule"
      (Client.request c
         (Protocol.request
            (Protocol.Schedule
               (sched_params
                  ~isolation:[ (0, 0); (1, 1); (2, 2); (3, 3); (4, 4) ]
                  0 "thermal" Protocol.Platform 4))))
  in
  Alcotest.(check string) "infeasible code" "bad_request"
    (error_code infeasible);
  (* And the server is still healthy afterwards. *)
  let ping =
    ok_or_fail "ping after rejection"
      (Client.request c (Protocol.request Protocol.Ping))
  in
  Alcotest.(check bool) "still up" true (Protocol.reply_ok ping)

let test_deadline_expiry () =
  let path = "t_serve_deadline.sock" in
  with_server ~config:{ Server.default_config with Server.batch_max = 1 } path
  @@ fun _server ->
  (* Occupy the dispatcher with a sleep, then submit a request whose
     queueing budget is already tiny: it must be answered `deadline`. *)
  let sleeper =
    Thread.create
      (fun () ->
        Client.with_client path @@ fun c ->
        ignore (Client.request c (Protocol.request (Protocol.Sleep 0.4))))
      ()
  in
  Thread.delay 0.1;
  let reply =
    Client.with_client path @@ fun c ->
    ok_or_fail "deadline request"
      (Client.request c
         (Protocol.request ~deadline_ms:1.0 (Protocol.Sleep 0.0)))
  in
  Thread.join sleeper;
  Alcotest.(check string) "deadline code" "deadline" (error_code reply)

let test_online_deadline_expiry () =
  let path = "t_serve_online_dl.sock" in
  with_server ~config:{ Server.default_config with Server.batch_max = 1 } path
  @@ fun _server ->
  (* An online scenario whose queueing budget lapses while the dispatcher
     is busy must be answered `deadline` — the arrival stream is never
     simulated. *)
  let sleeper =
    Thread.create
      (fun () ->
        Client.with_client path @@ fun c ->
        ignore (Client.request c (Protocol.request (Protocol.Sleep 0.4))))
      ()
  in
  Thread.delay 0.1;
  let reply =
    Client.with_client path @@ fun c ->
    ok_or_fail "online deadline request"
      (Client.request c
         (Protocol.request ~deadline_ms:1.0
            (Protocol.Online
               (online_params
                  ~policy:(Online.Reactive Online.default_reactive)
                  ~arrivals:Protocol.Sporadic ~seed:1 ~mean_gap:25.0 0 4))))
  in
  Thread.join sleeper;
  Alcotest.(check string) "deadline code" "deadline" (error_code reply)

let test_overload_rejection () =
  let path = "t_serve_overload.sock" in
  with_server
    ~config:
      { Server.default_config with Server.max_queue = 1; batch_max = 1 }
    path
  @@ fun _server ->
  (* One long sleep occupies the dispatcher; with a queue bound of 1, at
     most one of the followers can be admitted — the rest must be told
     `overloaded` right away. *)
  let results = Array.make 4 (Error "unset") in
  let spawn i s delay =
    Thread.create
      (fun () ->
        Thread.delay delay;
        results.(i) <-
          (try
             Client.with_client path @@ fun c ->
             Client.request c (Protocol.request (Protocol.Sleep s))
           with e -> Error (Printexc.to_string e)))
      ()
  in
  let threads =
    [ spawn 0 0.6 0.0; spawn 1 0.05 0.15; spawn 2 0.05 0.15; spawn 3 0.05 0.15 ]
  in
  List.iter Thread.join threads;
  let codes =
    Array.to_list results
    |> List.map (fun r -> error_code (ok_or_fail "overload reply" r))
  in
  let count c = List.length (List.filter (String.equal c) codes) in
  Alcotest.(check string) "long sleep completed" "ok" (List.hd codes);
  Alcotest.(check bool)
    (Printf.sprintf "some follower rejected (codes: %s)"
       (String.concat "," codes))
    true
    (count "overloaded" >= 1);
  Alcotest.(check bool) "every reply is ok or overloaded" true
    (List.for_all (fun c -> c = "ok" || c = "overloaded") codes)

let test_shutdown_drains () =
  let path = "t_serve_drain.sock" in
  let server = Server.create { Server.default_config with Server.socket_path = path } in
  let admitted = Array.make 1 (Error "unset") in
  let worker =
    Thread.create
      (fun () ->
        admitted.(0) <-
          (try
             Client.with_client path @@ fun c ->
             Client.request c (Protocol.request (Protocol.Sleep 0.3))
           with e -> Error (Printexc.to_string e)))
      ()
  in
  Thread.delay 0.1;
  (* Admitted work must still be answered after the shutdown request. *)
  let shutdown_reply =
    Client.with_client path @@ fun c ->
    ok_or_fail "shutdown" (Client.request c (Protocol.request Protocol.Shutdown))
  in
  Alcotest.(check bool) "shutdown acked" true (Protocol.reply_ok shutdown_reply);
  Thread.join worker;
  let reply = ok_or_fail "drained reply" admitted.(0) in
  Alcotest.(check bool)
    "sleep admitted before shutdown was executed, not dropped" true
    (Protocol.reply_ok reply);
  Server.wait server;
  Alcotest.(check bool) "socket unlinked" true (not (Sys.file_exists path))

(* --- the real binary ------------------------------------------------------ *)

let test_tatsd_binary () =
  let path = "t_tatsd_smoke.sock" in
  let log = Unix.openfile "tatsd_smoke.log" [ Unix.O_CREAT; Unix.O_WRONLY; Unix.O_TRUNC ] 0o644 in
  let devnull = Unix.openfile "/dev/null" [ Unix.O_RDWR ] 0 in
  let pid =
    Unix.create_process "../bin/tatsd.exe"
      [| "tatsd"; "-s"; path; "-j"; "2" |]
      devnull devnull log
  in
  Unix.close devnull;
  Unix.close log;
  let rec connect tries =
    match Client.connect path with
    | c -> c
    | exception Unix.Unix_error _ ->
        if tries = 0 then Alcotest.fail "tatsd never came up";
        Thread.delay 0.1;
        connect (tries - 1)
  in
  let c = connect 100 in
  let ping = ok_or_fail "ping" (Client.request c (Protocol.request Protocol.Ping)) in
  Alcotest.(check bool) "tatsd answers ping" true (Protocol.reply_ok ping);
  let sched =
    ok_or_fail "schedule"
      (Client.request c
         (Protocol.request
            (Protocol.Schedule (sched_params 0 "thermal" Protocol.Platform 4))))
  in
  Alcotest.(check bool) "tatsd schedules" true (Protocol.reply_ok sched);
  let bye =
    ok_or_fail "shutdown" (Client.request c (Protocol.request Protocol.Shutdown))
  in
  Alcotest.(check bool) "tatsd acks shutdown" true (Protocol.reply_ok bye);
  Client.close c;
  (* Bounded wait for a clean exit. *)
  let deadline = Unix.gettimeofday () +. 30.0 in
  let rec reap () =
    match Unix.waitpid [ Unix.WNOHANG ] pid with
    | 0, _ ->
        if Unix.gettimeofday () > deadline then begin
          Unix.kill pid Sys.sigkill;
          ignore (Unix.waitpid [] pid);
          Alcotest.fail "tatsd did not exit within 30 s of shutdown"
        end
        else begin
          Thread.delay 0.1;
          reap ()
        end
    | _, status -> status
  in
  let status = reap () in
  Alcotest.(check bool)
    "tatsd exits 0" true
    (status = Unix.WEXITED 0);
  Alcotest.(check bool) "socket unlinked" true (not (Sys.file_exists path))

let () =
  Alcotest.run "serve"
    [
      ( "json",
        [
          Alcotest.test_case "roundtrip" `Quick test_json_roundtrip;
          Alcotest.test_case "float fidelity" `Quick test_json_float_fidelity;
          Alcotest.test_case "rejects malformed" `Quick test_json_rejects;
        ] );
      ( "frame",
        [
          Alcotest.test_case "roundtrip" `Quick test_frame_roundtrip;
          Alcotest.test_case "eof/truncated/oversized" `Quick test_frame_errors;
        ] );
      ( "protocol",
        [
          Alcotest.test_case "roundtrip" `Quick test_protocol_roundtrip;
          Alcotest.test_case "rejects invalid" `Quick test_protocol_rejects;
        ] );
      ( "server",
        [
          Alcotest.test_case "ping and stats" `Quick test_server_ping_stats;
          Alcotest.test_case "garbage frames" `Quick test_server_rejects_garbage;
          Alcotest.test_case "oversized and truncated" `Quick
            test_server_oversized_and_truncated;
          Alcotest.test_case "concurrent schedule bit-identity" `Slow
            test_concurrent_bit_identity;
          Alcotest.test_case "inquiry bit-identity and cache" `Quick
            test_inquiry_bit_identity;
          Alcotest.test_case "transient bit-identity" `Slow
            test_transient_bit_identity;
          Alcotest.test_case "online bit-identity" `Slow
            test_online_bit_identity;
          Alcotest.test_case "hetero schedule bit-identity" `Slow
            test_served_hetero_schedule;
          Alcotest.test_case "deadline expiry" `Quick test_deadline_expiry;
          Alcotest.test_case "online deadline expiry" `Quick
            test_online_deadline_expiry;
          Alcotest.test_case "overload rejection" `Quick test_overload_rejection;
          Alcotest.test_case "shutdown drains admitted work" `Quick
            test_shutdown_drains;
        ] );
      ("tatsd", [ Alcotest.test_case "binary smoke" `Slow test_tatsd_binary ]);
    ]
