(* Tests for Tats_techlib: PE kinds, communication model, WCET/WCPC library,
   default catalogues. *)

module Pe = Tats_techlib.Pe
module Comm = Tats_techlib.Comm
module Library = Tats_techlib.Library
module Catalog = Tats_techlib.Catalog
module Benchmarks = Tats_taskgraph.Benchmarks

let kind ?(id = 0) ?(speed = 1.0) ?(power = 5.0) ?(cost = 100.0) ?spec () =
  Pe.make_kind ~kind_id:id ~name:(Printf.sprintf "k%d" id) ~area:1e-5 ~cost ~speed
    ~power_scale:power ~idle_power:0.5 ?specialization:spec ()

(* --- Pe ----------------------------------------------------------------- *)

let test_make_kind_validation () =
  let bad f = try ignore (f () : Pe.kind); false with Invalid_argument _ -> true in
  Alcotest.(check bool) "negative id" true (bad (fun () -> kind ~id:(-1) ()));
  Alcotest.(check bool) "zero speed" true (bad (fun () -> kind ~speed:0.0 ()));
  Alcotest.(check bool) "zero power" true (bad (fun () -> kind ~power:0.0 ()));
  Alcotest.(check bool) "bad specialization" true
    (bad (fun () -> kind ~spec:[ (0, 0.0) ] ()));
  Alcotest.(check bool) "nan speed" true (bad (fun () -> kind ~speed:Float.nan ()));
  Alcotest.(check bool) "infinite power" true
    (bad (fun () -> kind ~power:Float.infinity ()));
  Alcotest.(check bool) "nan specialization" true
    (bad (fun () -> kind ~spec:[ (0, Float.nan) ] ()))

let test_instances_numbering () =
  let insts = Pe.instances [ kind ~id:0 (); kind ~id:1 (); kind ~id:0 () ] in
  Alcotest.(check int) "count" 3 (Array.length insts);
  Array.iteri (fun i inst -> Alcotest.(check int) "dense ids" i inst.Pe.inst_id) insts

(* --- Comm --------------------------------------------------------------- *)

let test_comm_same_pe_free () =
  let c = Comm.make ~delay_per_byte:0.5 ~energy_per_byte:0.1 () in
  Alcotest.(check (float 0.0)) "same-PE delay" 0.0 (Comm.delay c ~data:100.0 ~same_pe:true);
  Alcotest.(check (float 0.0)) "same-PE energy" 0.0
    (Comm.energy_between c ~src:1 ~dst:1 ~data:100.0)

let test_comm_scales_with_data () =
  let c = Comm.make ~delay_per_byte:0.5 ~energy_per_byte:0.1 () in
  Alcotest.(check (float 1e-9)) "delay" 50.0 (Comm.delay c ~data:100.0 ~same_pe:false);
  Alcotest.(check (float 1e-9)) "energy" 10.0 (Comm.energy_between c ~src:0 ~dst:1 ~data:100.0)

let test_mesh_hops () =
  let c = Comm.mesh ~cols:2 () in
  (* PEs on a 2-column grid: 0 1 / 2 3. *)
  Alcotest.(check int) "same pe" 0 (Comm.hops c ~src:1 ~dst:1);
  Alcotest.(check int) "adjacent row" 1 (Comm.hops c ~src:0 ~dst:1);
  Alcotest.(check int) "adjacent col" 1 (Comm.hops c ~src:0 ~dst:2);
  Alcotest.(check int) "diagonal" 2 (Comm.hops c ~src:0 ~dst:3);
  let wide = Comm.mesh ~cols:4 () in
  Alcotest.(check int) "manhattan" 5 (Comm.hops wide ~src:0 ~dst:14)

let test_mesh_delay_and_energy () =
  let c =
    Comm.make ~delay_per_byte:0.1 ~energy_per_byte:0.05
      ~topology:(Comm.Mesh { cols = 2; per_hop_delay = 5.0 })
      ()
  in
  (* Diagonal transfer on a 2x2: 2 hops. *)
  Alcotest.(check (float 1e-9)) "delay = hops*perhop + data*rate"
    ((2.0 *. 5.0) +. (100.0 *. 0.1))
    (Comm.delay_between c ~src:0 ~dst:3 ~data:100.0);
  Alcotest.(check (float 1e-9)) "energy scales with hops" (2.0 *. 100.0 *. 0.05)
    (Comm.energy_between c ~src:0 ~dst:3 ~data:100.0);
  Alcotest.(check (float 1e-9)) "same pe free" 0.0
    (Comm.delay_between c ~src:2 ~dst:2 ~data:100.0)

let test_bus_hops_binary () =
  let c = Comm.default in
  Alcotest.(check int) "bus cross" 1 (Comm.hops c ~src:0 ~dst:7);
  Alcotest.(check int) "bus same" 0 (Comm.hops c ~src:3 ~dst:3)

let test_mesh_validation () =
  Alcotest.(check bool) "zero cols" true
    (try
       ignore
         (Comm.make ~delay_per_byte:0.1 ~energy_per_byte:0.1
            ~topology:(Comm.Mesh { cols = 0; per_hop_delay = 1.0 })
            ()
          : Comm.t);
       false
     with Invalid_argument _ -> true)

let test_comm_rejects_negative () =
  Alcotest.(check bool) "negative rate" true
    (try ignore (Comm.make ~delay_per_byte:(-1.0) ~energy_per_byte:0.0 () : Comm.t); false
     with Invalid_argument _ -> true)

(* NaN and both infinities in each rate and in the mesh hop delay are
   rejected, naming the field: none may reach a schedule as a delay. *)
let test_comm_rejects_non_finite () =
  List.iter
    (fun bad ->
      let rejects field f =
        Alcotest.check_raises
          (Printf.sprintf "%s = %g" field bad)
          (Invalid_argument ("Comm.make: non-finite " ^ field))
          (fun () -> ignore (f () : Comm.t))
      in
      rejects "delay_per_byte" (fun () ->
          Comm.make ~delay_per_byte:bad ~energy_per_byte:0.1 ());
      rejects "energy_per_byte" (fun () ->
          Comm.make ~delay_per_byte:0.1 ~energy_per_byte:bad ());
      rejects "per_hop_delay" (fun () -> Comm.mesh ~per_hop_delay:bad ()))
    [ Float.nan; Float.infinity; Float.neg_infinity ]

(* --- Library ------------------------------------------------------------ *)

let two_kinds () = [ kind ~id:0 ~speed:1.0 ~power:4.0 (); kind ~id:1 ~speed:2.0 ~power:10.0 () ]

let test_generate_positive_tables () =
  let lib = Library.generate ~seed:1 ~n_task_types:6 ~kinds:(two_kinds ()) () in
  for tt = 0 to 5 do
    for k = 0 to 1 do
      Alcotest.(check bool) "wcet > 0" true (Library.wcet lib ~task_type:tt ~kind:k > 0.0);
      Alcotest.(check bool) "wcpc > 0" true (Library.wcpc lib ~task_type:tt ~kind:k > 0.0)
    done
  done

let test_generate_faster_kind_shorter_wcet () =
  let lib = Library.generate ~seed:2 ~n_task_types:8 ~kinds:(two_kinds ()) () in
  (* Speed 2.0 vs 1.0 with +-15% jitter: kind 1 must be faster on average. *)
  let ratio_sum = ref 0.0 in
  for tt = 0 to 7 do
    ratio_sum :=
      !ratio_sum
      +. (Library.wcet lib ~task_type:tt ~kind:1 /. Library.wcet lib ~task_type:tt ~kind:0)
  done;
  Alcotest.(check bool) "avg ratio < 1" true (!ratio_sum /. 8.0 < 0.75)

let test_generate_determinism () =
  let a = Library.generate ~seed:3 ~n_task_types:4 ~kinds:(two_kinds ()) () in
  let b = Library.generate ~seed:3 ~n_task_types:4 ~kinds:(two_kinds ()) () in
  for tt = 0 to 3 do
    Alcotest.(check (float 0.0)) "same wcet"
      (Library.wcet a ~task_type:tt ~kind:0)
      (Library.wcet b ~task_type:tt ~kind:0)
  done

let test_specialization_speeds_up () =
  let kinds =
    [ kind ~id:0 (); kind ~id:1 ~spec:[ (2, 0.4) ] () ]
  in
  (* Compare against the same library without the specialization. *)
  let plain = [ kind ~id:0 (); kind ~id:1 () ] in
  let with_spec = Library.generate ~seed:4 ~n_task_types:4 ~kinds () in
  let without = Library.generate ~seed:4 ~n_task_types:4 ~kinds:plain () in
  let r =
    Library.wcet with_spec ~task_type:2 ~kind:1 /. Library.wcet without ~task_type:2 ~kind:1
  in
  Alcotest.(check (float 1e-9)) "exactly the multiplier" 0.4 r

let test_energy_is_product () =
  let lib = Library.generate ~seed:5 ~n_task_types:3 ~kinds:(two_kinds ()) () in
  let e = Library.energy lib ~task_type:1 ~kind:0 in
  let w = Library.wcet lib ~task_type:1 ~kind:0 *. Library.wcpc lib ~task_type:1 ~kind:0 in
  Alcotest.(check (float 1e-9)) "wcet*wcpc" w e

let test_wcet_avg () =
  let lib =
    Library.of_tables ~kinds:(two_kinds ())
      ~wcet:[| [| 10.0; 20.0 |] |]
      ~wcpc:[| [| 1.0; 2.0 |] |]
      ()
  in
  Alcotest.(check (float 1e-9)) "avg" 15.0 (Library.wcet_avg lib ~task_type:0)

let test_maxima () =
  let lib =
    Library.of_tables ~kinds:(two_kinds ())
      ~wcet:[| [| 10.0; 20.0 |]; [| 5.0; 8.0 |] |]
      ~wcpc:[| [| 1.0; 2.0 |]; [| 6.0; 3.0 |] |]
      ()
  in
  Alcotest.(check (float 1e-9)) "max wcpc" 6.0 (Library.max_wcpc lib);
  Alcotest.(check (float 1e-9)) "max energy" 40.0 (Library.max_energy lib)

(* The stored maxima against a fold over every (task type, kind), bit for
   bit: the catalogue's libraries and seeded generated ones. *)
let test_maxima_are_the_fold () =
  let fold f lib =
    let acc = ref 0.0 in
    for task_type = 0 to Library.n_task_types lib - 1 do
      for kind = 0 to Array.length (Library.kinds lib) - 1 do
        acc := Float.max !acc (f lib ~task_type ~kind)
      done
    done;
    !acc
  in
  let same what a b =
    if not (Int64.equal (Int64.bits_of_float a) (Int64.bits_of_float b)) then
      Alcotest.failf "%s: %h vs %h" what a b
  in
  let check what lib =
    same (what ^ ": max wcpc") (fold Library.wcpc lib) (Library.max_wcpc lib);
    same (what ^ ": max energy") (fold Library.energy lib) (Library.max_energy lib)
  in
  check "default" (Catalog.default_library ());
  check "platform" (Catalog.platform_library ());
  List.iter
    (fun p -> check (Tats_techlib.Platform.name p) (Catalog.library_for p))
    (Catalog.builtin_platforms ());
  for seed = 1 to 12 do
    let n_task_types = 1 + (seed mod 9) in
    let lib =
      Library.generate ~seed ~n_task_types ~kinds:(Catalog.heterogeneous ()) ()
    in
    check (Printf.sprintf "generate seed %d" seed) lib
  done;
  (* of_tables copies its tables: mutating them afterwards moves nothing. *)
  let wcet = [| [| 10.0; 20.0 |] |] and wcpc = [| [| 1.0; 2.0 |] |] in
  let lib = Library.of_tables ~kinds:(two_kinds ()) ~wcet ~wcpc () in
  wcpc.(0).(1) <- 9.0;
  check "of_tables after mutation" lib;
  same "of_tables max wcpc" 2.0 (Library.max_wcpc lib)

let test_of_tables_validation () =
  let bad f = try ignore (f () : Library.t); false with Invalid_argument _ -> true in
  Alcotest.(check bool) "ragged" true
    (bad (fun () ->
         Library.of_tables ~kinds:(two_kinds ()) ~wcet:[| [| 1.0 |] |]
           ~wcpc:[| [| 1.0; 1.0 |] |] ()));
  Alcotest.(check bool) "non-positive" true
    (bad (fun () ->
         Library.of_tables ~kinds:(two_kinds ())
           ~wcet:[| [| 1.0; 0.0 |] |]
           ~wcpc:[| [| 1.0; 1.0 |] |]
           ()));
  List.iter
    (fun x ->
      Alcotest.(check bool) (Printf.sprintf "wcpc %g" x) true
        (bad (fun () ->
             Library.of_tables ~kinds:(two_kinds ())
               ~wcet:[| [| 1.0; 1.0 |] |]
               ~wcpc:[| [| 1.0; x |] |]
               ())))
    [ Float.nan; Float.infinity ];
  Alcotest.(check bool) "kind ids must be dense" true
    (bad (fun () ->
         Library.of_tables
           ~kinds:[ kind ~id:1 () ]
           ~wcet:[| [| 1.0 |] |] ~wcpc:[| [| 1.0 |] |] ()))

(* Schedulers and the DTM simulator call [delay_between]; on a shared bus it
   must be bit-equal to the topology-free [delay], so that switching a
   consumer from one to the other moves no number. *)
let test_bus_delay_between_is_delay () =
  let custom = Comm.make ~delay_per_byte:0.37 ~energy_per_byte:0.01 () in
  List.iter
    (fun c ->
      List.iter
        (fun data ->
          for src = 0 to 7 do
            for dst = 0 to 7 do
              let expected = Comm.delay c ~data ~same_pe:(src = dst) in
              let got = Comm.delay_between c ~src ~dst ~data in
              if not (Int64.equal (Int64.bits_of_float expected) (Int64.bits_of_float got))
              then Alcotest.failf "%d->%d data %g: %h vs %h" src dst data got expected
            done
          done)
        [ 0.0; 1.0; 16.0; 33.3; 128.0; 1e6 ])
    [ Comm.default; custom ]

(* On a mesh every cross-PE transfer costs its hop latency on top of the
   bus transfer, for every grid width and PE pair. *)
let test_mesh_delay_decomposes () =
  for cols = 1 to 4 do
    let c = Comm.mesh ~cols ~per_hop_delay:3.5 () in
    for src = 0 to 11 do
      for dst = 0 to 11 do
        let data = float_of_int (1 + src + (7 * dst)) in
        let expected =
          if src = dst then 0.0
          else
            (float_of_int (Comm.hops c ~src ~dst) *. 3.5)
            +. Comm.delay c ~data ~same_pe:false
        in
        Alcotest.(check (float 1e-12))
          (Printf.sprintf "cols %d: %d->%d" cols src dst)
          expected
          (Comm.delay_between c ~src ~dst ~data)
      done
    done
  done

(* A mesh with free hops is the bus at the same per-byte rates: same
   latency for every pair. *)
let test_zero_hop_mesh_is_bus () =
  let mesh = Comm.mesh ~cols:3 ~per_hop_delay:0.0 () in
  for src = 0 to 8 do
    for dst = 0 to 8 do
      Alcotest.(check (float 0.0))
        (Printf.sprintf "%d->%d" src dst)
        (Comm.delay_between Comm.default ~src ~dst ~data:48.0)
        (Comm.delay_between mesh ~src ~dst ~data:48.0)
    done
  done

(* Mesh energy is the bus energy once per traversed link. *)
let test_mesh_energy_per_hop () =
  let c = Comm.mesh ~cols:3 () in
  for src = 0 to 8 do
    for dst = 0 to 8 do
      Alcotest.(check (float 1e-12))
        (Printf.sprintf "%d->%d" src dst)
        (float_of_int (Comm.hops c ~src ~dst)
        *. Comm.energy_between Comm.default ~src:0 ~dst:1 ~data:64.0)
        (Comm.energy_between c ~src ~dst ~data:64.0)
    done
  done

(* Hop counts form a metric on PE indices: zero exactly on the diagonal,
   symmetric, and obeying the triangle inequality. *)
let test_hops_is_metric () =
  List.iter
    (fun c ->
      for a = 0 to 11 do
        for b = 0 to 11 do
          let ab = Comm.hops c ~src:a ~dst:b in
          Alcotest.(check bool) "zero iff equal" (a = b) (ab = 0);
          Alcotest.(check int) "symmetric" ab (Comm.hops c ~src:b ~dst:a);
          for m = 0 to 11 do
            if ab > Comm.hops c ~src:a ~dst:m + Comm.hops c ~src:m ~dst:b then
              Alcotest.failf "triangle %d-%d-%d" a m b
          done
        done
      done)
    [ Comm.default; Comm.mesh ~cols:1 (); Comm.mesh ~cols:3 (); Comm.mesh ~cols:5 () ]

let test_negative_hop_delay_and_index_rejected () =
  Alcotest.check_raises "negative hop delay"
    (Invalid_argument "Comm.make: negative hop delay") (fun () ->
      ignore (Comm.mesh ~per_hop_delay:(-1.0) () : Comm.t));
  Alcotest.check_raises "negative PE index"
    (Invalid_argument "Comm.hops: negative PE index") (fun () ->
      ignore (Comm.hops (Comm.mesh ()) ~src:(-1) ~dst:0 : int))

(* The communication model rides along in a generated library without
   touching its random draws: the same seed gives the same tables on a bus
   and on a mesh. *)
let test_comm_does_not_perturb_tables () =
  let kinds = two_kinds () in
  let bus = Library.generate ~seed:9 ~n_task_types:6 ~kinds () in
  let mesh_comm = Comm.mesh ~cols:2 ~per_hop_delay:8.0 () in
  let mesh = Library.generate ~seed:9 ~n_task_types:6 ~kinds ~comm:mesh_comm () in
  Alcotest.(check bool) "comm kept" true (Library.comm mesh = mesh_comm);
  Alcotest.(check bool) "bus by default" true (Library.comm bus = Comm.default);
  for task_type = 0 to 5 do
    for kind = 0 to 1 do
      Alcotest.(check (float 0.0)) "wcet"
        (Library.wcet bus ~task_type ~kind) (Library.wcet mesh ~task_type ~kind);
      Alcotest.(check (float 0.0)) "wcpc"
        (Library.wcpc bus ~task_type ~kind) (Library.wcpc mesh ~task_type ~kind)
    done
  done

(* --- Catalog ------------------------------------------------------------ *)

let test_heterogeneous_catalogue () =
  let kinds = Catalog.heterogeneous () in
  Alcotest.(check int) "five kinds" 5 (List.length kinds);
  List.iteri (fun i (k : Pe.kind) -> Alcotest.(check int) "dense" i k.Pe.kind_id) kinds

let test_power_energy_rank_disagree () =
  (* The catalogue is built so that the lowest-power kind is NOT the
     lowest-energy kind — the gap between heuristics 1 and 3. *)
  let lib = Catalog.default_library () in
  let kinds = Library.kinds lib in
  let avg f =
    Array.init (Library.n_task_types lib) (fun tt -> f tt)
    |> Array.fold_left ( +. ) 0.0
  in
  let power_of k = avg (fun tt -> Library.wcpc lib ~task_type:tt ~kind:k) in
  let energy_of k = avg (fun tt -> Library.energy lib ~task_type:tt ~kind:k) in
  let n = Array.length kinds in
  let by cmp f =
    let best = ref 0 in
    for k = 1 to n - 1 do
      if cmp (f k) (f !best) then best := k
    done;
    !best
  in
  let min_power_kind = by ( < ) power_of in
  let min_energy_kind = by ( < ) energy_of in
  Alcotest.(check bool) "rankings disagree" true (min_power_kind <> min_energy_kind)

let test_platform_library_single_kind () =
  let lib = Catalog.platform_library () in
  Alcotest.(check int) "one kind" 1 (Array.length (Library.kinds lib));
  Alcotest.(check int) "task types match suite" Benchmarks.n_task_types
    (Library.n_task_types lib)

let test_platform_instances () =
  let insts = Catalog.platform_instances 4 in
  Alcotest.(check int) "four" 4 (Array.length insts);
  Array.iter
    (fun (i : Pe.inst) ->
      Alcotest.(check string) "all std-core" "std-core" i.Pe.kind.Pe.kind_name)
    insts

let prop_generated_wcet_in_plausible_range =
  QCheck.Test.make ~name:"generated WCETs within speed-scaled bounds" ~count:50
    QCheck.small_int (fun seed ->
      let lib = Library.generate ~seed ~n_task_types:5 ~kinds:(two_kinds ()) () in
      let ok = ref true in
      for tt = 0 to 4 do
        (* Reference range [40, 160], speed 1 kind, +-15% jitter. *)
        let w = Library.wcet lib ~task_type:tt ~kind:0 in
        if w < 40.0 *. 0.85 || w > 160.0 *. 1.15 then ok := false
      done;
      !ok)

let () =
  Runner.run "tats_techlib"
    [
      ( "pe",
        [
          Alcotest.test_case "validation" `Quick test_make_kind_validation;
          Alcotest.test_case "instances" `Quick test_instances_numbering;
        ] );
      ( "comm",
        [
          Alcotest.test_case "same-PE free" `Quick test_comm_same_pe_free;
          Alcotest.test_case "scales with data" `Quick test_comm_scales_with_data;
          Alcotest.test_case "validation" `Quick test_comm_rejects_negative;
          Alcotest.test_case "non-finite rates rejected" `Quick
            test_comm_rejects_non_finite;
          Alcotest.test_case "mesh hops" `Quick test_mesh_hops;
          Alcotest.test_case "mesh delay/energy" `Quick test_mesh_delay_and_energy;
          Alcotest.test_case "bus hops" `Quick test_bus_hops_binary;
          Alcotest.test_case "mesh validation" `Quick test_mesh_validation;
          Alcotest.test_case "bus delay_between = delay" `Quick
            test_bus_delay_between_is_delay;
          Alcotest.test_case "mesh delay = hops + bus" `Quick test_mesh_delay_decomposes;
          Alcotest.test_case "zero-hop mesh = bus" `Quick test_zero_hop_mesh_is_bus;
          Alcotest.test_case "mesh energy per hop" `Quick test_mesh_energy_per_hop;
          Alcotest.test_case "hops is a metric" `Quick test_hops_is_metric;
          Alcotest.test_case "bad hop delay / PE index" `Quick
            test_negative_hop_delay_and_index_rejected;
        ] );
      ( "library",
        [
          Alcotest.test_case "positive tables" `Quick test_generate_positive_tables;
          Alcotest.test_case "speed shortens wcet" `Quick
            test_generate_faster_kind_shorter_wcet;
          Alcotest.test_case "determinism" `Quick test_generate_determinism;
          Alcotest.test_case "specialization" `Quick test_specialization_speeds_up;
          Alcotest.test_case "energy = wcet*wcpc" `Quick test_energy_is_product;
          Alcotest.test_case "wcet_avg" `Quick test_wcet_avg;
          Alcotest.test_case "maxima" `Quick test_maxima;
          Alcotest.test_case "maxima are the fold" `Quick test_maxima_are_the_fold;
          Alcotest.test_case "of_tables validation" `Quick test_of_tables_validation;
          Alcotest.test_case "comm leaves tables alone" `Quick
            test_comm_does_not_perturb_tables;
        ] );
      ( "catalog",
        [
          Alcotest.test_case "heterogeneous" `Quick test_heterogeneous_catalogue;
          Alcotest.test_case "power/energy ranks disagree" `Quick
            test_power_energy_rank_disagree;
          Alcotest.test_case "platform library" `Quick test_platform_library_single_kind;
          Alcotest.test_case "platform instances" `Quick test_platform_instances;
        ] );
      ("properties", [ QCheck_alcotest.to_alcotest prop_generated_wcet_in_plausible_range ]);
    ]
