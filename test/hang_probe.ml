(* A runner whose one case deadlocks a pool batch, for test_pool's check
   that Runner.run names a hung case. Usage: hang_probe.exe MARKER; the
   case creates the file MARKER once it is running, so the caller knows
   when to send SIGTERM. *)

module Pool = Tats_util.Pool

let deadlocked_batch marker () =
  let m = Mutex.create () and c = Condition.create () in
  Pool.with_pool ~jobs:2 (fun pool ->
      ignore
        (Pool.parallel_map ~chunk:1 pool
           (fun i ->
             if i = 1 then begin
               close_out (open_out marker);
               Mutex.lock m;
               while true do
                 Condition.wait c m
               done
             end;
             i)
           [| 0; 1; 2; 3 |]
          : int array))

let () =
  Runner.run ~argv:[| Sys.argv.(0) |] "hang_probe"
    [
      ( "pool",
        [
          Alcotest.test_case "deadlocked batch" `Quick
            (deadlocked_batch Sys.argv.(1));
        ] );
    ]
