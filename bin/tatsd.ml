(* tatsd — the long-running scheduling-inquiry daemon.

   Listens on a Unix-domain socket for length-prefixed JSON requests
   (schedule / inquiry / transient / ping / stats), dispatches them onto
   the process execution pool, and keeps one warmed thermal-inquiry
   engine per platform fingerprint so repeated workloads reuse its
   influence matrix and per-step tables across requests.  `tats client` is the matching
   one-shot client. *)

open Cmdliner
module Server = Core.Serve.Server

let run socket max_queue batch_max jobs trace metrics =
  (match jobs with
  | Some j when j < 1 || j > Core.Pool.max_jobs ->
      Format.eprintf "tatsd: --jobs must be between 1 and %d, got %d@."
        Core.Pool.max_jobs j;
      exit 2
  | Some _ | None -> ());
  if max_queue < 1 then begin
    Format.eprintf "tatsd: --queue must be >= 1@.";
    exit 2
  end;
  if batch_max < 1 then begin
    Format.eprintf "tatsd: --batch must be >= 1@.";
    exit 2
  end;
  (match jobs with Some j -> Core.Pool.set_default_jobs j | None -> ());
  (match trace with Some _ -> Core.Trace.start () | None -> ());
  let config =
    { Server.default_config with socket_path = socket; max_queue; batch_max }
  in
  let server =
    try Server.create config
    with Unix.Unix_error (e, _, _) ->
      Format.eprintf "tatsd: cannot listen on %s: %s@." socket
        (Unix.error_message e);
      exit 1
  in
  (* Handlers only flip an atomic; the accept thread notices within its
     poll interval and runs the full graceful stop. *)
  let on_signal _ = Server.signal_stop server in
  (* A parent may hand down a mask that blocks them (the test runners
     block SIGTERM); unblocked, they reach the handlers. *)
  ignore (Thread.sigmask Unix.SIG_UNBLOCK [ Sys.sigint; Sys.sigterm ] : int list);
  Sys.set_signal Sys.sigint (Sys.Signal_handle on_signal);
  Sys.set_signal Sys.sigterm (Sys.Signal_handle on_signal);
  Format.eprintf
    "tatsd: listening on %s (jobs = %d, queue = %d, batch = %d)@." socket
    (Core.Pool.jobs (Core.Pool.default ()))
    max_queue batch_max;
  Server.wait server;
  (match trace with
  | Some path ->
      Core.Trace.stop ();
      Core.Trace.export_chrome path;
      Format.eprintf "tatsd: wrote %d spans to %s@." (Core.Trace.span_count ())
        path
  | None -> ());
  (match metrics with
  | Some path ->
      Core.Metricsreg.export path;
      Format.eprintf "tatsd: wrote metrics to %s@." path
  | None -> ());
  Format.eprintf "tatsd: drained, exiting@."

let socket_arg =
  let doc = "Unix-domain socket path to listen on." in
  Arg.(value & opt string "tatsd.sock" & info [ "s"; "socket" ] ~docv:"PATH" ~doc)

let queue_arg =
  let doc =
    "Admission-queue bound: requests beyond $(docv) waiting for dispatch \
     are rejected with an `overloaded' error instead of queueing without \
     limit."
  in
  Arg.(value & opt int 64 & info [ "queue" ] ~docv:"N" ~doc)

let batch_arg =
  let doc =
    "Maximum requests executed per pool batch; within a batch requests run \
     on separate pool domains."
  in
  Arg.(value & opt int 8 & info [ "batch" ] ~docv:"N" ~doc)

let jobs_arg =
  let doc =
    "Size of the execution pool (domains). Defaults to the number of cores."
  in
  Arg.(value & opt (some int) None & info [ "j"; "jobs" ] ~docv:"N" ~doc)

let trace_arg =
  let doc =
    "Record a Chrome trace_event timeline of the server's life and write \
     it to $(docv) on shutdown."
  in
  Arg.(value & opt (some string) None & info [ "trace" ] ~docv:"FILE" ~doc)

let metrics_arg =
  let doc =
    "Write the metrics registry (serve.* counters, latency histogram, \
     inquiry counters) to $(docv) as JSON on shutdown."
  in
  Arg.(value & opt (some string) None & info [ "metrics" ] ~docv:"FILE" ~doc)

let () =
  let info =
    Cmd.info "tatsd" ~version:Core.version
      ~doc:
        "Long-running thermal-aware scheduling server: framed JSON requests \
         over a Unix-domain socket, warmed thermal-inquiry engines shared \
         across requests. Stop with SIGINT/SIGTERM or a `shutdown' request; \
         admitted work is drained before exit."
  in
  exit
    (Cmd.eval ~argv:(Core.jobs_argv Sys.argv)
       (Cmd.v info
          Term.(
            const run $ socket_arg $ queue_arg $ batch_arg $ jobs_arg
            $ trace_arg $ metrics_arg)))
