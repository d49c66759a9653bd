(* [Alcotest.run] that names the case a deadline killed.

   Alcotest prints a case's [OK] line only after the case returns, so a
   runner killed by the [timeout] wrapper in test/dune shows the last case
   that finished, not the one that hung. [run] records the running
   [suite/case] and, on SIGTERM, prints [killed while running: suite/case]
   to stderr and exits 124 (timeout's own status). It writes to a copy of
   the stderr it started with, since Alcotest points the process's stderr
   at the running case's log file.

   The signal is taken by a dedicated thread in [Thread.wait_signal], with
   SIGTERM blocked everywhere else: a handler installed with
   [Sys.set_signal] runs only when some thread polls, so it never fires
   while the main domain is blocked, e.g. in a pool deadlock inside
   [Condition.wait]. Children spawned with [Unix.create_process] inherit
   the blocked mask. *)

let current = Atomic.make "(no case started)"

let name_hung_case () =
  let stderr = Unix.dup ~cloexec:true Unix.stderr in
  ignore (Thread.sigmask Unix.SIG_BLOCK [ Sys.sigterm ] : int list);
  ignore
    (Thread.create
       (fun () ->
         ignore (Thread.wait_signal [ Sys.sigterm ] : int);
         let line = "killed while running: " ^ Atomic.get current ^ "\n" in
         ignore (Unix.write_substring stderr line 0 (String.length line) : int);
         exit 124)
       ()
      : Thread.t)

let run ?argv name (suites : unit Alcotest.test list) =
  name_hung_case ();
  let track suite (case, speed, f) =
    ( case,
      speed,
      fun () ->
        Atomic.set current (suite ^ "/" ^ case);
        f () )
  in
  Alcotest.run ?argv name
    (List.map (fun (suite, cases) -> (suite, List.map (track suite) cases)) suites)
