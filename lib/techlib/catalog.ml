let mm2 x = x *. 1e-6 (* mm^2 to m^2 *)

(* Specializations reference task types of the default benchmark suite
   (10 types, see Tats_taskgraph.Benchmarks.n_task_types). *)
let heterogeneous () =
  [
    (* The lp-core draws the least power but is so slow that its energy per
       task is *worse* than the std-core's — the gap heuristic 1 falls into
       and heuristic 3 avoids (the paper's conclusion). *)
    Pe.make_kind ~kind_id:0 ~name:"lp-core" ~area:(mm2 9.0) ~cost:80.0
      ~speed:0.4 ~power_scale:3.6 ~idle_power:0.3 ();
    Pe.make_kind ~kind_id:1 ~name:"std-core" ~area:(mm2 16.0) ~cost:100.0
      ~speed:1.0 ~power_scale:8.0 ~idle_power:0.6 ();
    Pe.make_kind ~kind_id:2 ~name:"hp-core" ~area:(mm2 25.0) ~cost:260.0
      ~speed:1.7 ~power_scale:16.0 ~idle_power:1.2 ();
    Pe.make_kind ~kind_id:3 ~name:"dsp" ~area:(mm2 12.0) ~cost:150.0 ~speed:0.9
      ~power_scale:6.0 ~idle_power:0.4
      ~specialization:[ (1, 0.45); (4, 0.4); (7, 0.5) ]
      ();
    Pe.make_kind ~kind_id:4 ~name:"accel" ~area:(mm2 8.0) ~cost:180.0 ~speed:0.5
      ~power_scale:5.0 ~idle_power:0.3
      ~specialization:[ (2, 0.3); (8, 0.35) ]
      ();
  ]

let platform_kind () =
  Pe.make_kind ~kind_id:0 ~name:"std-core" ~area:(mm2 16.0) ~cost:100.0
    ~speed:1.0 ~power_scale:8.0 ~idle_power:0.6 ()

let std_platform n =
  Platform.homogeneous ~name:(Printf.sprintf "std%d" n) ~kind:(platform_kind ())
    ~n_pes:n

let platform_instances n = Platform.instances (std_platform n)

(* Builtin typed platforms for the heterogeneous platform flow. Kind ids
   are dense per platform (a Platform.make requirement), so the big/LITTLE
   kinds below renumber the catalogue entries they mirror. *)

let big_kind ~kind_id =
  Pe.make_kind ~kind_id ~name:"big-core" ~area:(mm2 25.0) ~cost:260.0
    ~speed:1.7 ~power_scale:16.0 ~idle_power:1.2 ()

let little_kind ~kind_id =
  Pe.make_kind ~kind_id ~name:"little-core" ~area:(mm2 9.0) ~cost:80.0
    ~speed:0.4 ~power_scale:3.6 ~idle_power:0.3 ()

let builtin_platforms () =
  [
    (* The degenerate case: the paper's four identical standard cores as a
       typed platform. Must reproduce Tables 1-3 byte for byte. *)
    std_platform 4;
    (* ARM big.LITTLE-style: two fast/hot cores plus two slow/cool ones. *)
    Platform.make ~name:"biglittle4"
      ~kinds:[ big_kind ~kind_id:0; little_kind ~kind_id:1 ]
      ~slots:[ 0; 0; 1; 1 ];
    (* A wider mix: one big, two standard, three little. *)
    Platform.make ~name:"mixed6"
      ~kinds:
        [
          big_kind ~kind_id:0;
          Pe.make_kind ~kind_id:1 ~name:"std-core" ~area:(mm2 16.0) ~cost:100.0
            ~speed:1.0 ~power_scale:8.0 ~idle_power:0.6 ();
          little_kind ~kind_id:2;
        ]
      ~slots:[ 0; 1; 1; 2; 2; 2 ];
  ]

let platform_named name =
  List.find_opt
    (fun p -> String.equal (Platform.name p) name)
    (builtin_platforms ())

let platform_names () = List.map Platform.name (builtin_platforms ())

let platform_of_name name =
  match platform_named name with
  | Some p -> Ok p
  | None ->
      Error
        (Printf.sprintf "unknown platform %S (want %s)" name
           (String.concat "|" (platform_names ())))

let library_seed = 77

let default_library () =
  Library.generate ~seed:library_seed
    ~n_task_types:Tats_taskgraph.Benchmarks.n_task_types
    ~kinds:(heterogeneous ()) ()

let library_for platform =
  Library.generate ~seed:library_seed
    ~n_task_types:Tats_taskgraph.Benchmarks.n_task_types
    ~kinds:(Array.to_list (Platform.kinds platform))
    ()

let platform_library () = library_for (std_platform 1)
