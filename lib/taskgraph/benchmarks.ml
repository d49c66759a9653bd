type descriptor = {
  bench_name : string;
  tasks : int;
  edges : int;
  deadline : float;
}

let descriptors =
  [|
    { bench_name = "Bm1"; tasks = 19; edges = 19; deadline = 790.0 };
    { bench_name = "Bm2"; tasks = 35; edges = 40; deadline = 1500.0 };
    { bench_name = "Bm3"; tasks = 39; edges = 43; deadline = 1650.0 };
    { bench_name = "Bm4"; tasks = 51; edges = 60; deadline = 2000.0 };
  |]

let n_task_types = Generator.library_task_types

(* Fixed seeds: the suite must be identical across runs and machines. *)
let seeds = [| 1101; 2203; 3307; 4409 |]

let load i =
  if i < 0 || i >= Array.length descriptors then
    invalid_arg "Benchmarks.load: index out of range";
  let d = descriptors.(i) in
  Generator.generate ~seed:seeds.(i) ~name:d.bench_name
    {
      Generator.n_tasks = d.tasks;
      n_edges = d.edges;
      deadline = d.deadline;
      n_task_types;
      min_data = 16.0;
      max_data = 128.0;
    }

let all () = Array.init (Array.length descriptors) load

let index_of_name name =
  let rec find i =
    if i >= Array.length descriptors then
      Error (Printf.sprintf "unknown benchmark %S (want Bm1..Bm4)" name)
    else if String.equal descriptors.(i).bench_name name then Ok i
    else find (i + 1)
  in
  find 0
