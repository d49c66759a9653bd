(* Tests for the SVG rendering layer. *)

module Svg = Tats_render.Svg
module Visuals = Tats_render.Visuals
module Block = Tats_floorplan.Block
module Grid = Tats_floorplan.Grid
module Gridmodel = Tats_thermal.Gridmodel
module Package = Tats_thermal.Package
module Benchmarks = Tats_taskgraph.Benchmarks
module Catalog = Tats_techlib.Catalog
module Policy = Tats_sched.Policy
module List_sched = Tats_sched.List_sched

let count_substring haystack needle =
  let ln = String.length needle and lh = String.length haystack in
  let rec go i acc =
    if i + ln > lh then acc
    else if String.sub haystack i ln = needle then go (i + 1) (acc + 1)
    else go (i + 1) acc
  in
  go 0 0

let contains h n = count_substring h n > 0

let well_formed doc =
  contains doc "<?xml" && contains doc "<svg" && contains doc "</svg>"

(* --- Svg primitives ------------------------------------------------------ *)

let test_svg_structure () =
  let svg = Svg.create ~width:100.0 ~height:50.0 in
  Svg.rect svg ~x:1.0 ~y:2.0 ~w:10.0 ~h:5.0 ();
  Svg.line svg ~x1:0.0 ~y1:0.0 ~x2:10.0 ~y2:10.0 ();
  Svg.text svg ~x:5.0 ~y:5.0 "hello";
  let doc = Svg.to_string svg in
  Alcotest.(check bool) "well formed" true (well_formed doc);
  Alcotest.(check int) "one rect" 1 (count_substring doc "<rect");
  Alcotest.(check int) "one line" 1 (count_substring doc "<line");
  Alcotest.(check int) "one text" 1 (count_substring doc "<text")

let test_svg_escaping () =
  let svg = Svg.create ~width:10.0 ~height:10.0 in
  Svg.text svg ~x:0.0 ~y:0.0 "a<b & \"c\"";
  let doc = Svg.to_string svg in
  Alcotest.(check bool) "escaped lt" true (contains doc "a&lt;b");
  Alcotest.(check bool) "escaped amp" true (contains doc "&amp;");
  Alcotest.(check bool) "no raw <b" false (contains doc "a<b")

let test_svg_title_tooltip () =
  let svg = Svg.create ~width:10.0 ~height:10.0 in
  Svg.rect svg ~x:0.0 ~y:0.0 ~w:1.0 ~h:1.0 ~title:"tip" ();
  Alcotest.(check bool) "title child" true (contains (Svg.to_string svg) "<title>tip</title>")

let test_svg_validation () =
  Alcotest.(check bool) "bad dims" true
    (try ignore (Svg.create ~width:0.0 ~height:5.0 : Svg.t); false
     with Invalid_argument _ -> true)

let test_heat_color_format_and_ramp () =
  List.iter
    (fun f ->
      let c = Svg.heat_color f in
      Alcotest.(check int) "length 7" 7 (String.length c);
      Alcotest.(check char) "hash" '#' c.[0])
    [ -1.0; 0.0; 0.25; 0.5; 0.75; 1.0; 2.0 ];
  (* Cold is blue-dominant, hot is red-dominant. *)
  let channel c i = int_of_string ("0x" ^ String.sub c i 2) in
  let cold = Svg.heat_color 0.0 and hot = Svg.heat_color 1.0 in
  Alcotest.(check bool) "cold blue" true (channel cold 5 > channel cold 1);
  Alcotest.(check bool) "hot red" true (channel hot 1 > channel hot 5)

(* --- Visuals ------------------------------------------------------------- *)

let placement () =
  Grid.layout
    (Array.init 4 (fun i -> Block.make ~name:(Printf.sprintf "PE%d" i) ~area:1.6e-5 ()))

let test_floorplan_svg () =
  let doc = Visuals.floorplan (placement ()) in
  Alcotest.(check bool) "well formed" true (well_formed doc);
  (* Die outline + 4 blocks. *)
  Alcotest.(check int) "rect count" 5 (count_substring doc "<rect")

let test_floorplan_svg_with_temps () =
  let doc = Visuals.floorplan ~temps:[| 60.0; 90.0; 70.0; 65.0 |] (placement ()) in
  Alcotest.(check bool) "well formed" true (well_formed doc);
  Alcotest.(check bool) "legend present" true (contains doc "°C");
  Alcotest.(check bool) "tooltip carries temp" true (contains doc "90.0 °C")

let test_gantt_svg () =
  let graph = Benchmarks.load 0 in
  let lib = Catalog.platform_library () in
  let s =
    List_sched.run ~graph ~lib ~pes:(Catalog.platform_instances 4)
      ~policy:Policy.Baseline ()
  in
  let doc = Visuals.gantt s in
  Alcotest.(check bool) "well formed" true (well_formed doc);
  Alcotest.(check bool) "deadline marker" true (contains doc "deadline 790");
  (* One rect per task at least. *)
  Alcotest.(check bool) "task boxes" true (count_substring doc "<rect" >= 19)

let test_heat_map_svg () =
  let grid = Gridmodel.build ~nx:8 ~ny:6 Package.default (placement ()) in
  let doc = Visuals.heat_map grid ~power:[| 2.0; 8.0; 1.0; 3.0 |] in
  Alcotest.(check bool) "well formed" true (well_formed doc);
  (* 48 cells + 24 legend steps. *)
  Alcotest.(check int) "cells + legend" 72 (count_substring doc "<rect")

let test_save_roundtrip () =
  let doc = Visuals.floorplan (placement ()) in
  let path = Filename.temp_file "tats" ".svg" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      Visuals.save doc ~path;
      let read = In_channel.with_open_text path In_channel.input_all in
      Alcotest.(check string) "roundtrip" doc read)

let () =
  Runner.run "render"
    [
      ( "svg",
        [
          Alcotest.test_case "structure" `Quick test_svg_structure;
          Alcotest.test_case "escaping" `Quick test_svg_escaping;
          Alcotest.test_case "title tooltip" `Quick test_svg_title_tooltip;
          Alcotest.test_case "validation" `Quick test_svg_validation;
          Alcotest.test_case "heat color" `Quick test_heat_color_format_and_ramp;
        ] );
      ( "visuals",
        [
          Alcotest.test_case "floorplan" `Quick test_floorplan_svg;
          Alcotest.test_case "floorplan + temps" `Quick test_floorplan_svg_with_temps;
          Alcotest.test_case "gantt" `Quick test_gantt_svg;
          Alcotest.test_case "heat map" `Quick test_heat_map_svg;
          Alcotest.test_case "save" `Quick test_save_roundtrip;
        ] );
    ]
