type entry = { phase : string; alias : string option }

let all =
  [
    { phase = "tables"; alias = None };
    { phase = "figure1"; alias = None };
    { phase = "ablation-weight-sweep"; alias = None };
    { phase = "ablation-leakage"; alias = None };
    { phase = "ablation-ga-effort"; alias = None };
    { phase = "ablation-solvers"; alias = None };
    { phase = "ablation-floorplanners"; alias = None };
    { phase = "ablation-mappers"; alias = None };
    { phase = "ablation-dvs"; alias = None };
    { phase = "ablation-bus"; alias = None };
    { phase = "ablation-stack"; alias = None };
    { phase = "ablation-clustering"; alias = None };
    { phase = "ablation-refinement"; alias = None };
    { phase = "ablation-dtm"; alias = None };
    { phase = "ablation-montecarlo"; alias = None };
    { phase = "design-space"; alias = None };
    { phase = "parallel-scaling"; alias = None };
    { phase = "online"; alias = Some "online" };
    { phase = "serve"; alias = Some "serve" };
    { phase = "campaign"; alias = Some "campaign" };
    { phase = "hetero"; alias = Some "hetero" };
    { phase = "observability-overhead"; alias = None };
    { phase = "timings"; alias = None };
  ]

let names = List.map (fun e -> e.phase) all
let aliases = List.filter_map (fun e -> e.alias) all
