(* Regenerates the end-to-end goldens used by test_integration.

   With no argument, prints Report.tables of Experiments.tables: Tables
   1-3 and the shape-check report, computed from the "table1"-"table3"
   campaign builtins' cells (each distinct cell run once through
   Campaign.run_cell). The committed golden (test/goldens/tables.golden)
   was captured from the pre-kernel-rewrite tree; the blocked
   linear-algebra kernels preserve floating-point operation order, so
   every later tree must reproduce it byte for byte:

     dune exec test/capture_goldens.exe > test/goldens/tables.golden

   With the argument [transient], prints the transient-replay/DTM summary
   instead (captured when the event-driven engine landed; its exact
   stepper is bit-identical to the original backward-Euler loop):

     dune exec test/capture_goldens.exe -- transient > test/goldens/transient.golden

   With the argument [online], prints the online-vs-clairvoyant summary
   (captured when the online reactive scheduler landed; the zero-stream
   row doubles as the bit-identity proof — its ratio must be exactly 1):

     dune exec test/capture_goldens.exe -- online > test/goldens/online.golden

   With the argument [campaign], prints the rendered summary of the
   "golden" builtin campaign (captured when the campaign runner landed;
   the cells run the same flow as Tables 1-3, so the same bit-stability
   argument applies):

     dune exec test/capture_goldens.exe -- campaign > test/goldens/campaign.golden

   With the argument [hetero], prints the heterogeneous-platform summary
   (captured when typed platforms landed; the degenerate std4 rows and
   the trailing bit-identity line double as the proof that the typed
   flow did not perturb the historical path):

     dune exec test/capture_goldens.exe -- hetero > test/goldens/hetero.golden

   Only regenerate a golden when a change is *meant* to move the
   numbers (new benchmarks, model changes) — never to paper over a
   kernel regression. *)

let capture_tables () =
  print_string (Core.Report.tables (Core.Experiments.tables ()))

let capture_transient () =
  print_string (Core.Report.transient_demo (Core.Experiments.transient_demo ()))

let capture_online () =
  print_string (Core.Report.online_demo (Core.Experiments.online_demo ()))

let capture_campaign () =
  print_string (Core.Report.campaign_summary (Core.Experiments.campaign_demo ()))

let capture_hetero () =
  print_string (Core.Report.hetero_demo (Core.Experiments.hetero_demo ()))

let () =
  match Sys.argv with
  | [| _ |] -> capture_tables ()
  | [| _; "transient" |] -> capture_transient ()
  | [| _; "online" |] -> capture_online ()
  | [| _; "campaign" |] -> capture_campaign ()
  | [| _; "hetero" |] -> capture_hetero ()
  | _ ->
      prerr_endline "usage: capture_goldens [transient|online|campaign|hetero]";
      exit 2
