module Placement = Tats_floorplan.Placement
module Metricsreg = Tats_util.Metricsreg

(* Fleet-wide mirrors of the per-facade counters. *)
let m_direct_queries = Metricsreg.counter "hotspot.direct_queries"
let m_engines = Metricsreg.counter "hotspot.engines_built"

type t = {
  package : Package.t;
  placement : Placement.t;
  model : Rcmodel.t;
  solver : Steady.t;
  mutable inquiries : int;
  mutable engine : Inquiry.t option;
  (* Guards [inquiries] and the lazy [engine] slot when the facade is
     shared across pool domains. *)
  lock : Mutex.t;
}

let create ?(package = Package.default) placement =
  let model = Rcmodel.build package placement in
  {
    package;
    placement;
    model;
    solver = Steady.create model;
    inquiries = 0;
    engine = None;
    lock = Mutex.create ();
  }

let n_blocks t = Rcmodel.n_blocks t.model
let package t = t.package
let placement t = t.placement
let model t = t.model
let solver t = t.solver

let locked t f =
  Mutex.lock t.lock;
  Fun.protect ~finally:(fun () -> Mutex.unlock t.lock) f

(* The engine costs n_blocks factored solves to build (one batched
   [Lu.solve_many] sweep via [Steady.influence_columns]), so it is created
   on first use — facades that only ever serve direct queries never pay.
   The lock makes the lazy creation race-free: exactly one engine is ever
   built, and concurrent callers all see it. *)
let inquiry t =
  locked t (fun () ->
      match t.engine with
      | Some e -> e
      | None ->
          let e = Inquiry.create t.solver in
          Metricsreg.incr m_engines;
          t.engine <- Some e;
          e)

let engine_opt t = locked t (fun () -> t.engine)

let inquiry_stats t =
  match engine_opt t with None -> Inquiry.empty_stats | Some e -> Inquiry.stats e

let inquiries t =
  locked t (fun () -> t.inquiries)
  + match engine_opt t with
    | None -> 0
    | Some e -> (Inquiry.stats e).Inquiry.inquiries

let count_direct t =
  Metricsreg.incr m_direct_queries;
  locked t (fun () -> t.inquiries <- t.inquiries + 1)

let query t ~power =
  count_direct t;
  Steady.block_temperatures t.solver ~power

let inquire_with_leakage ?warm ?cache t ~dynamic ~idle =
  Inquiry.query_with_leakage ?warm ?cache (inquiry t) ~dynamic ~idle

let average_temperature t ~power = Tats_util.Stats.mean (query t ~power)
let peak_temperature t ~power = Tats_util.Stats.max (query t ~power)
