(* Tests for the observability layer: Chrome-JSON span export (shape,
   nesting, ordering), histogram percentile math against the closed-form
   bucket geometry, disabled-mode transparency, and an end-to-end smoke
   test driving [tats --trace --metrics] as a subprocess.

   The repo has no JSON library (by design — see DESIGN.md "Dependencies"),
   so validation uses the minimal recursive-descent parser below. It
   accepts the full JSON the exporters emit (objects, arrays, strings with
   escapes, numbers, booleans, null) and nothing fancier. *)

module Trace = Tats_util.Trace
module Metricsreg = Tats_util.Metricsreg
module Benchmarks = Tats_taskgraph.Benchmarks
module Pe = Tats_techlib.Pe
module Catalog = Tats_techlib.Catalog
module Block = Tats_floorplan.Block
module Grid = Tats_floorplan.Grid
module Hotspot = Tats_thermal.Hotspot
module Policy = Tats_sched.Policy
module Schedule = Tats_sched.Schedule
module List_sched = Tats_sched.List_sched

(* --- a minimal JSON parser ------------------------------------------------ *)

module Json = struct
  type t =
    | Null
    | Bool of bool
    | Num of float
    | Str of string
    | Arr of t list
    | Obj of (string * t) list

  exception Bad of string

  let parse s =
    let n = String.length s in
    let pos = ref 0 in
    let fail msg = raise (Bad (Printf.sprintf "%s at byte %d" msg !pos)) in
    let peek () = if !pos < n then Some s.[!pos] else None in
    let advance () = incr pos in
    let rec skip_ws () =
      match peek () with
      | Some (' ' | '\t' | '\n' | '\r') ->
          advance ();
          skip_ws ()
      | _ -> ()
    in
    let expect c =
      match peek () with
      | Some c' when c' = c -> advance ()
      | _ -> fail (Printf.sprintf "expected %C" c)
    in
    let literal word value =
      if !pos + String.length word <= n && String.sub s !pos (String.length word) = word
      then begin
        pos := !pos + String.length word;
        value
      end
      else fail (Printf.sprintf "expected %s" word)
    in
    let parse_string () =
      expect '"';
      let b = Buffer.create 16 in
      let rec loop () =
        match peek () with
        | None -> fail "unterminated string"
        | Some '"' -> advance ()
        | Some '\\' -> (
            advance ();
            match peek () with
            | Some '"' -> Buffer.add_char b '"'; advance (); loop ()
            | Some '\\' -> Buffer.add_char b '\\'; advance (); loop ()
            | Some '/' -> Buffer.add_char b '/'; advance (); loop ()
            | Some 'n' -> Buffer.add_char b '\n'; advance (); loop ()
            | Some 't' -> Buffer.add_char b '\t'; advance (); loop ()
            | Some 'r' -> Buffer.add_char b '\r'; advance (); loop ()
            | Some 'b' -> Buffer.add_char b '\b'; advance (); loop ()
            | Some 'f' -> Buffer.add_char b '\012'; advance (); loop ()
            | Some 'u' ->
                advance ();
                if !pos + 4 > n then fail "truncated \\u escape";
                let code = int_of_string ("0x" ^ String.sub s !pos 4) in
                pos := !pos + 4;
                (* Exporters only escape control characters — ASCII range. *)
                if code < 128 then Buffer.add_char b (Char.chr code)
                else Buffer.add_string b (Printf.sprintf "\\u%04x" code);
                loop ()
            | _ -> fail "bad escape")
        | Some c ->
            Buffer.add_char b c;
            advance ();
            loop ()
      in
      loop ();
      Buffer.contents b
    in
    let parse_number () =
      let start = !pos in
      let is_num_char c =
        match c with
        | '0' .. '9' | '-' | '+' | '.' | 'e' | 'E' -> true
        | _ -> false
      in
      while (match peek () with Some c -> is_num_char c | None -> false) do
        advance ()
      done;
      if !pos = start then fail "expected number";
      match float_of_string_opt (String.sub s start (!pos - start)) with
      | Some f -> f
      | None -> fail "malformed number"
    in
    let rec parse_value () =
      skip_ws ();
      match peek () with
      | Some '{' ->
          advance ();
          skip_ws ();
          if peek () = Some '}' then begin advance (); Obj [] end
          else begin
            let rec members acc =
              skip_ws ();
              let key = parse_string () in
              skip_ws ();
              expect ':';
              let v = parse_value () in
              skip_ws ();
              match peek () with
              | Some ',' -> advance (); members ((key, v) :: acc)
              | Some '}' -> advance (); Obj (List.rev ((key, v) :: acc))
              | _ -> fail "expected , or }"
            in
            members []
          end
      | Some '[' ->
          advance ();
          skip_ws ();
          if peek () = Some ']' then begin advance (); Arr [] end
          else begin
            let rec elements acc =
              let v = parse_value () in
              skip_ws ();
              match peek () with
              | Some ',' -> advance (); elements (v :: acc)
              | Some ']' -> advance (); Arr (List.rev (v :: acc))
              | _ -> fail "expected , or ]"
            in
            elements []
          end
      | Some '"' -> Str (parse_string ())
      | Some 't' -> literal "true" (Bool true)
      | Some 'f' -> literal "false" (Bool false)
      | Some 'n' -> literal "null" Null
      | Some _ -> Num (parse_number ())
      | None -> fail "unexpected end of input"
    in
    let v = parse_value () in
    skip_ws ();
    if !pos <> n then fail "trailing garbage";
    v

  let member key = function
    | Obj fields -> (
        match List.assoc_opt key fields with
        | Some v -> v
        | None -> raise (Bad (Printf.sprintf "missing key %S" key)))
    | _ -> raise (Bad (Printf.sprintf "not an object (looking up %S)" key))

  let to_num = function Num f -> f | _ -> raise (Bad "not a number")
  let to_str = function Str s -> s | _ -> raise (Bad "not a string")
  let to_arr = function Arr l -> l | _ -> raise (Bad "not an array")

  let of_file path =
    let ic = open_in_bin path in
    Fun.protect
      ~finally:(fun () -> close_in ic)
      (fun () -> parse (really_input_string ic (in_channel_length ic)))
end

(* --- Chrome export: shape, nesting, ordering ------------------------------ *)

let burn () =
  (* A trivial but non-removable computation so spans have real extent. *)
  let acc = ref 0 in
  for i = 1 to 20_000 do
    acc := (!acc * 7) + i
  done;
  Sys.opaque_identity !acc

let record_sample_trace () =
  Trace.start ();
  Trace.with_span "outer" ~args:[ ("layer", Trace.Str "test"); ("k", Trace.Int 3) ]
    (fun () ->
      ignore (burn ());
      Trace.with_span "inner-a" (fun () ->
          ignore (burn ());
          Trace.with_span "leaf" ~args:[ ("ok", Trace.Bool true) ] (fun () ->
              ignore (burn ())));
      Trace.with_span "inner-b" ~args:[ ("x", Trace.Float 2.5) ] (fun () ->
          ignore (burn ())));
  Trace.stop ()

let test_chrome_export_shape () =
  record_sample_trace ();
  let json = Json.parse (Trace.to_chrome_json ()) in
  Trace.reset ();
  let events = Json.to_arr json in
  Alcotest.(check int) "four spans exported" 4 (List.length events);
  List.iter
    (fun ev ->
      Alcotest.(check string) "complete event" "X"
        (Json.to_str (Json.member "ph" ev));
      Alcotest.(check bool) "has name" true
        (String.length (Json.to_str (Json.member "name" ev)) > 0);
      Alcotest.(check bool) "ts is a number" true
        (Float.is_finite (Json.to_num (Json.member "ts" ev)));
      Alcotest.(check bool) "dur non-negative" true
        (Json.to_num (Json.member "dur" ev) >= 0.0);
      ignore (Json.to_num (Json.member "pid" ev));
      ignore (Json.to_num (Json.member "tid" ev)))
    events;
  (* Attributes survive the round-trip. *)
  let find name =
    List.find (fun ev -> Json.to_str (Json.member "name" ev) = name) events
  in
  Alcotest.(check string) "string attr" "test"
    (Json.to_str (Json.member "layer" (Json.member "args" (find "outer"))));
  Alcotest.(check (float 0.0)) "float attr" 2.5
    (Json.to_num (Json.member "x" (Json.member "args" (find "inner-b"))))

let test_chrome_export_nesting () =
  record_sample_trace ();
  let events = Json.to_arr (Json.parse (Trace.to_chrome_json ())) in
  Trace.reset ();
  let span ev =
    ( Json.to_str (Json.member "name" ev),
      Json.to_num (Json.member "ts" ev),
      Json.to_num (Json.member "ts" ev) +. Json.to_num (Json.member "dur" ev) )
  in
  let interval name =
    let _, s, e = span (List.find (fun ev -> Json.to_str (Json.member "name" ev) = name) events) in
    (s, e)
  in
  (* The exporter prints microseconds with 3 decimals, so endpoints carry
     up to half a nanosecond of rounding each. *)
  let eps = 0.002 in
  let contains (os, oe) (is_, ie) = os <= is_ +. eps && ie <= oe +. eps in
  let outer = interval "outer" in
  let inner_a = interval "inner-a" in
  let inner_b = interval "inner-b" in
  let leaf = interval "leaf" in
  Alcotest.(check bool) "outer contains inner-a" true (contains outer inner_a);
  Alcotest.(check bool) "outer contains inner-b" true (contains outer inner_b);
  Alcotest.(check bool) "inner-a contains leaf" true (contains inner_a leaf);
  Alcotest.(check bool) "siblings disjoint" true
    (snd inner_a <= fst inner_b +. eps || snd inner_b <= fst inner_a +. eps);
  (* Chrome nests by time containment per tid, so events must be
     well-nested: any two overlap only by containment. *)
  let intervals = List.map span events in
  List.iter
    (fun (na, sa, ea) ->
      List.iter
        (fun (nb, sb, eb) ->
          if na <> nb then
            Alcotest.(check bool)
              (Printf.sprintf "%s vs %s well-nested" na nb)
              true
              (ea <= sb +. eps || eb <= sa +. eps
              || contains (sa, ea) (sb, eb)
              || contains (sb, eb) (sa, ea)))
        intervals)
    intervals

let test_spans_sorted_and_counted () =
  record_sample_trace ();
  let spans = Trace.spans () in
  Alcotest.(check int) "span_count agrees" (List.length spans) (Trace.span_count ());
  let rec sorted = function
    | (a : Trace.span) :: (b :: _ as rest) -> a.Trace.ts <= b.Trace.ts && sorted rest
    | _ -> true
  in
  Alcotest.(check bool) "sorted by start time" true (sorted spans);
  Trace.reset ();
  Alcotest.(check int) "reset discards" 0 (Trace.span_count ())

(* --- histogram percentiles vs closed form --------------------------------- *)

(* The exporter's documented bucket geometry, reimplemented independently:
   bucket i >= 1 covers [1e-9 * 1.25^(i-1), 1e-9 * 1.25^i), percentile
   answers are the geometric midpoint of the hit bucket clamped to the
   exact observed [min, max]. *)
let closed_form_percentile values q =
  let base = 1e-9 and log_gamma = Float.log 1.25 in
  let bucket v =
    if not (v >= base) then 0
    else Stdlib.min 191 (1 + int_of_float (Float.log (v /. base) /. log_gamma))
  in
  let mid i =
    if i = 0 then base
    else base *. Float.exp ((float_of_int i -. 0.5) *. log_gamma)
  in
  let sorted = List.sort compare values in
  let n = List.length sorted in
  let rank =
    let r = int_of_float (Float.ceil (q /. 100.0 *. float_of_int n)) in
    Stdlib.max 1 (Stdlib.min n r)
  in
  let v_rank = List.nth sorted (rank - 1) in
  let lo = List.hd sorted and hi = List.nth sorted (n - 1) in
  Float.min hi (Float.max lo (mid (bucket v_rank)))

let test_histogram_percentiles () =
  let h = Metricsreg.histogram "test.trace.percentiles" in
  Metricsreg.reset_histogram h;
  let values =
    (* Spread over six decades, including sub-base and repeated values. *)
    [ 3e-10; 1e-9; 2.5e-9; 4e-6; 4e-6; 4e-6; 0.003; 0.0031; 0.25; 0.25; 1.7; 42.0 ]
  in
  List.iter (fun v -> Metricsreg.observe h v) values;
  let s = Metricsreg.summary h in
  Alcotest.(check int) "count" (List.length values) s.Metricsreg.count;
  Alcotest.(check (float 1e-12)) "sum exact" (List.fold_left ( +. ) 0.0 values)
    s.Metricsreg.sum;
  Alcotest.(check (float 0.0)) "min exact" 3e-10 s.Metricsreg.min;
  Alcotest.(check (float 0.0)) "max exact" 42.0 s.Metricsreg.max;
  List.iter
    (fun q ->
      Alcotest.(check (float 1e-12))
        (Printf.sprintf "p%g matches closed form" q)
        (closed_form_percentile values q)
        (Metricsreg.percentile h q))
    [ 0.0; 10.0; 50.0; 90.0; 95.0; 99.0; 100.0 ];
  (* Bucketed answers are within the guaranteed 25% of the true value for
     in-range percentiles. *)
  Alcotest.(check bool) "p50 within bucket resolution" true
    (let exact = 4e-6 (* rank ceil(0.5*12) = 6 of the sorted list *) in
     let got = Metricsreg.percentile h 50.0 in
     got >= exact /. 1.25 && got <= exact *. 1.25)

let test_histogram_single_value_and_empty () =
  let h = Metricsreg.histogram "test.trace.single" in
  Metricsreg.reset_histogram h;
  Alcotest.(check bool) "empty percentile is nan" true
    (Float.is_nan (Metricsreg.percentile h 50.0));
  Metricsreg.observe h 0.125;
  (* One value: clamping to [min, max] makes every percentile exact. *)
  List.iter
    (fun q ->
      Alcotest.(check (float 0.0))
        (Printf.sprintf "p%g = the single value" q)
        0.125
        (Metricsreg.percentile h q))
    [ 0.0; 50.0; 99.0; 100.0 ]

let test_metrics_json_roundtrip () =
  let c = Metricsreg.counter "test.trace.counter" in
  Metricsreg.set_counter c 17;
  let g = Metricsreg.gauge "test.trace.gauge" in
  Metricsreg.set_gauge g 2.75;
  let json = Json.parse (Metricsreg.to_json ()) in
  Alcotest.(check (float 0.0)) "counter in export" 17.0
    (Json.to_num (Json.member "test.trace.counter" (Json.member "counters" json)));
  Alcotest.(check (float 0.0)) "gauge in export" 2.75
    (Json.to_num (Json.member "test.trace.gauge" (Json.member "gauges" json)));
  let h = Json.member "test.trace.single" (Json.member "histograms" json) in
  Alcotest.(check (float 0.0)) "histogram p50 in export" 0.125
    (Json.to_num (Json.member "p50" h))

(* --- disabled mode is a no-op --------------------------------------------- *)

let platform_hotspot () =
  Hotspot.create
    (Grid.layout
       (Array.map
          (fun (i : Pe.inst) ->
            Block.make ~name:(string_of_int i.Pe.inst_id) ~area:i.Pe.kind.Pe.area ())
          (Catalog.platform_instances 4)))

let platform_run ?(h = platform_hotspot ()) () =
  let graph = Benchmarks.load 0 in
  let pes = Catalog.platform_instances 4 in
  List_sched.run ~hotspot:h ~graph ~lib:(Catalog.platform_library ()) ~pes
    ~policy:Policy.Thermal_aware ()

let test_disabled_mode_noop () =
  Trace.reset ();
  let s_off = platform_run () in
  Alcotest.(check int) "no spans recorded while disabled" 0 (Trace.span_count ());
  Trace.start ();
  let s_on = Fun.protect ~finally:Trace.reset platform_run in
  Alcotest.(check (float 0.0)) "identical makespan" s_off.Schedule.makespan
    s_on.Schedule.makespan;
  Alcotest.(check bool) "identical entries" true
    (s_off.Schedule.entries = s_on.Schedule.entries)

(* The scheduler's inquiries are traced as one [inquiry.refine] span per
   pick that ran a fixed point, inside that pick's [sched.step] on the
   same domain, its [steps] and [solves] args adding up to the run's
   fixed-point steps: no span per fixed point. *)
let test_one_inquiry_span_per_pick () =
  let h = platform_hotspot () in
  Trace.start ();
  let spans =
    Fun.protect ~finally:Trace.reset (fun () ->
        ignore (platform_run ~h () : Schedule.t);
        Trace.spans ())
  in
  let named n = List.filter (fun (s : Trace.span) -> s.Trace.name = n) spans in
  let refines = named "inquiry.refine" and steps = named "sched.step" in
  let int_arg k (s : Trace.span) =
    match List.assoc_opt k s.Trace.args with Some (Trace.Int i) -> i | _ -> -1
  in
  Alcotest.(check bool)
    (Printf.sprintf "%d refine spans, %d steps" (List.length refines)
       (List.length steps))
    true
    (refines <> [] && List.length refines <= List.length steps);
  List.iter
    (fun (r : Trace.span) ->
      Alcotest.(check bool) "inside a step" true
        (List.exists
           (fun (s : Trace.span) ->
             s.Trace.tid = r.Trace.tid && s.Trace.ts <= r.Trace.ts
             && r.Trace.ts +. r.Trace.dur <= s.Trace.ts +. s.Trace.dur)
           steps);
      Alcotest.(check bool) "ran a fixed point" true
        (int_arg "solves" r >= 1 && int_arg "steps" r >= int_arg "solves" r))
    refines;
  Alcotest.(check int) "steps args = fp_iterations"
    (Hotspot.inquiry_stats h).Tats_thermal.Inquiry.fp_iterations
    (List.fold_left (fun acc r -> acc + int_arg "steps" r) 0 refines);
  Alcotest.(check int) "no per-fixed-point span" 0
    (List.length (named "inquiry.solve"))

(* --- end-to-end CLI smoke test -------------------------------------------- *)

let test_cli_smoke () =
  let trace_file = "smoke_trace.json" and metrics_file = "smoke_metrics.json" in
  let cmd =
    Printf.sprintf
      "../bin/tats.exe schedule -b Bm1 -p thermal --jobs 2 --trace %s \
       --metrics %s >smoke_stdout.txt 2>smoke_stderr.txt"
      trace_file metrics_file
  in
  let rc = Sys.command cmd in
  Alcotest.(check int) "tats exits 0" 0 rc;
  let trace = Json.of_file trace_file in
  let events = Json.to_arr trace in
  Alcotest.(check bool) "trace has spans" true (List.length events > 0);
  let names =
    List.sort_uniq compare
      (List.map (fun ev -> Json.to_str (Json.member "name" ev)) events)
  in
  List.iter
    (fun expected ->
      Alcotest.(check bool)
        (Printf.sprintf "span %S present" expected)
        true (List.mem expected names))
    [ "sched.run"; "sched.step"; "inquiry.refine"; "inquiry.solve" ];
  let metrics = Json.of_file metrics_file in
  let counter name =
    int_of_float (Json.to_num (Json.member name (Json.member "counters" metrics)))
  in
  Alcotest.(check bool) "inquiries counted" true (counter "inquiry.inquiries" > 0);
  Alcotest.(check bool) "cache hits counted" true (counter "inquiry.cache_hits" > 0);
  let solve_hist =
    Json.member "inquiry.solve_iterations" (Json.member "histograms" metrics)
  in
  Alcotest.(check bool) "solve-iteration histogram populated" true
    (Json.to_num (Json.member "count" solve_hist) > 0.0);
  Alcotest.(check bool) "p95 >= p50 > 0" true
    (let p50 = Json.to_num (Json.member "p50" solve_hist) in
     let p95 = Json.to_num (Json.member "p95" solve_hist) in
     p50 > 0.0 && p95 >= p50)

(* [tats schedule --stats] sets the candidates the list scheduler scanned
   beside the inquiries the engine served: the floor prunes candidates
   before their inquiry, so there are never more inquiries. *)
let test_cli_stats_candidates () =
  let rc =
    Sys.command
      "../bin/tats.exe schedule -b Bm1 -p thermal --stats >stats_stdout.txt \
       2>stats_stderr.txt"
  in
  Alcotest.(check int) "tats exits 0" 0 rc;
  let lines =
    In_channel.with_open_text "stats_stdout.txt" In_channel.input_lines
  in
  let find prefix =
    match List.find_opt (String.starts_with ~prefix) lines with
    | Some l -> l
    | None -> Alcotest.failf "no %S line in tats schedule --stats" prefix
  in
  let inquiries =
    Scanf.sscanf (find "inquiry engine: ") "inquiry engine: inquiries %d" Fun.id
  in
  let candidates =
    Scanf.sscanf (find "list scheduler: ")
      "list scheduler: %d steps, %d candidates scanned, %d replayed"
      (fun _ c _ -> c)
  in
  Alcotest.(check bool)
    (Printf.sprintf "%d candidates >= %d inquiries > 0" candidates inquiries)
    true
    (inquiries > 0 && candidates >= inquiries)

(* Out-of-range numbers on the command line are usage errors: exit 2 with a
   one-line [tats: ] message, never an uncaught library exception (exit
   125) or a silently non-finite result. *)
let contains s sub =
  let n = String.length s and m = String.length sub in
  let rec at i = i + m <= n && (String.sub s i m = sub || at (i + 1)) in
  at 0

let test_cli_rejects_bad_numbers () =
  List.iter
    (fun args ->
      let rc =
        Sys.command
          (Printf.sprintf "../bin/tats.exe %s >/dev/null 2>bad_args_stderr.txt"
             args)
      in
      let err =
        In_channel.with_open_text "bad_args_stderr.txt" In_channel.input_all
      in
      Alcotest.(check int) (args ^ " exits 2") 2 rc;
      Alcotest.(check bool) (args ^ " names the problem") true
        (String.starts_with ~prefix:"tats: " err);
      Alcotest.(check bool) (args ^ " raises nothing") false
        (contains err "uncaught exception"))
    [
      "thermal --pes 0";
      "thermal --pes=-1";
      "thermal --pes 1 --power nan";
      "floorplan --blocks 0";
      "floorplan --blocks=-2";
      "dtm-sim --passes 0";
      "robustness -n 0";
      "robustness --tasks 1";
      "transient --dt=-1";
      "online --mean-gap nan";
      "online --mean-gap inf";
      "transient --time-unit nan";
      "transient --time-unit inf";
      "dtm-sim --passes 1 --trigger nan";
      "dtm-sim --passes 1 --trigger inf";
      "dtm-sim --passes 1 --trigger=-inf";
      "online --seed=-1";
    ]

(* Seeded argv lines over the cheap subcommands: every numeric flag (and
   the benchmark name where a subcommand has none) gets a non-finite, out
   of range or unparsable value. Whatever the line, [tats] must end in a
   result (0), a failed check (1), a named bad input (2) or cmdliner's
   usage error (124), and never in an uncaught exception. *)
let test_cli_fuzz () =
  let commands =
    [|
      ("thermal", [ "--pes"; "--power" ]);
      ("analyze", [ "--bench" ]);
      ("export -o fuzz_graph.dot", [ "--bench" ]);
      ("schedule -p baseline", [ "--jobs" ]);
      ("online", [ "--mean-gap"; "--n-pes"; "--seed"; "--jobs" ]);
      ("online -p reactive", [ "--trigger"; "--mean-gap" ]);
      ("transient --periods 2", [ "--dt"; "--time-unit"; "--jobs" ]);
      ("dtm-sim --passes 1", [ "--trigger" ]);
      ("dvs", [ "--bench" ]);
      ("floorplan --blocks 3", [ "--seed"; "--jobs" ]);
    |]
  in
  let values = [| "nan"; "inf"; "-inf"; "1e999"; "-1"; "0"; "x7" |] in
  let rng = Random.State.make [| 35 |] in
  let pick a = a.(Random.State.int rng (Array.length a)) in
  for i = 0 to 59 do
    let base, flags = commands.(i mod Array.length commands) in
    let flags = Array.of_list flags in
    let args =
      String.concat " "
        (base
        :: List.init
             (1 + Random.State.int rng 2)
             (fun _ -> Printf.sprintf "%s=%s" (pick flags) (pick values)))
    in
    let rc =
      Sys.command
        (Printf.sprintf "../bin/tats.exe %s >/dev/null 2>fuzz_stderr.txt" args)
    in
    let err = In_channel.with_open_text "fuzz_stderr.txt" In_channel.input_all in
    if not (List.mem rc [ 0; 1; 2; 124 ]) then
      Alcotest.failf "tats %s: exit %d: %s" args rc err;
    if contains err "uncaught exception" then
      Alcotest.failf "tats %s raised: %s" args err
  done

let () =
  Runner.run "trace"
    [
      ( "chrome-export",
        [
          Alcotest.test_case "event shape and attrs" `Quick
            test_chrome_export_shape;
          Alcotest.test_case "spans nest by containment" `Quick
            test_chrome_export_nesting;
          Alcotest.test_case "sorted, counted, reset" `Quick
            test_spans_sorted_and_counted;
        ] );
      ( "histograms",
        [
          Alcotest.test_case "percentiles vs closed form" `Quick
            test_histogram_percentiles;
          Alcotest.test_case "single value and empty" `Quick
            test_histogram_single_value_and_empty;
          Alcotest.test_case "metrics json round-trip" `Quick
            test_metrics_json_roundtrip;
        ] );
      ( "transparency",
        [
          Alcotest.test_case "disabled mode is a no-op" `Quick
            test_disabled_mode_noop;
          Alcotest.test_case "one inquiry span per pick" `Quick
            test_one_inquiry_span_per_pick;
        ] );
      ( "cli",
        [
          Alcotest.test_case "tats --trace --metrics" `Quick test_cli_smoke;
          Alcotest.test_case "tats schedule --stats candidates" `Quick
            test_cli_stats_candidates;
          Alcotest.test_case "bad numeric flags exit 2" `Quick
            test_cli_rejects_bad_numbers;
          Alcotest.test_case "fuzzed argv never raises" `Quick test_cli_fuzz;
        ] );
    ]
