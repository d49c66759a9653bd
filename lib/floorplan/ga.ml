module Rng = Tats_util.Rng
module Pool = Tats_util.Pool
module Trace = Tats_util.Trace
module Metricsreg = Tats_util.Metricsreg

let m_evaluations = Metricsreg.counter "ga.evaluations"
let m_memo_hits = Metricsreg.counter "ga.memo_hits"

type params = {
  population : int;
  generations : int;
  crossover_rate : float;
  mutation_rate : float;
  tournament : int;
  elite : int;
}

let default_params =
  {
    population = 24;
    generations = 60;
    crossover_rate = 0.9;
    mutation_rate = 0.35;
    tournament = 3;
    elite = 2;
  }

type result = {
  best_expr : Slicing.expr;
  best_placement : Placement.t;
  best_cost : float;
  history : float array;
}

let operand_positions expr =
  let acc = ref [] in
  Array.iteri
    (fun i elt -> match elt with Slicing.Op _ -> acc := i :: !acc | Slicing.H | Slicing.V -> ())
    expr;
  Array.of_list (List.rev !acc)

(* Keep the cut skeleton of [a]; fill its operand slots with the operands in
   the order they appear in [b] (an order-crossover specialized to Polish
   expressions: the result is automatically valid). *)
let crossover a b =
  let child = Array.copy a in
  let order_b =
    Array.to_list b
    |> List.filter_map (function Slicing.Op x -> Some x | Slicing.H | Slicing.V -> None)
  in
  let slots = operand_positions a in
  List.iteri (fun k x -> child.(slots.(k)) <- Slicing.Op x) order_b;
  child

let mutate rng expr =
  let expr = Array.copy expr in
  let slots = operand_positions expr in
  let n_ops = Array.length slots in
  (match Rng.int rng 3 with
  | 0 when n_ops >= 2 ->
      (* M1: swap two operands. *)
      let i = Rng.int rng n_ops and j = Rng.int rng n_ops in
      let tmp = expr.(slots.(i)) in
      expr.(slots.(i)) <- expr.(slots.(j));
      expr.(slots.(j)) <- tmp
  | 1 ->
      (* M2: complement a maximal chain of operators starting at a random
         operator position. *)
      let len = Array.length expr in
      let start = Rng.int rng len in
      let rec flip i =
        if i < len then
          match expr.(i) with
          | Slicing.H ->
              expr.(i) <- Slicing.V;
              flip (i + 1)
          | Slicing.V ->
              expr.(i) <- Slicing.H;
              flip (i + 1)
          | Slicing.Op _ -> ()
      in
      let rec seek i = (* find the first operator at or after start *)
        if i < len then
          match expr.(i) with Slicing.Op _ -> seek (i + 1) | Slicing.H | Slicing.V -> flip i
      in
      seek start
  | _ ->
      (* M3: swap an adjacent operand/operator pair when the result keeps the
         balloting property. *)
      let len = Array.length expr in
      let candidates = ref [] in
      for i = 0 to len - 2 do
        match (expr.(i), expr.(i + 1)) with
        | Slicing.Op _, (Slicing.H | Slicing.V) | (Slicing.H | Slicing.V), Slicing.Op _ ->
            candidates := i :: !candidates
        | _ -> ()
      done;
      let tryswap i =
        let tmp = expr.(i) in
        expr.(i) <- expr.(i + 1);
        expr.(i + 1) <- tmp
      in
      (match !candidates with
      | [] -> ()
      | l ->
          let arr = Array.of_list l in
          let i = arr.(Rng.int rng (Array.length arr)) in
          tryswap i;
          (* Revert when the swap broke validity. *)
          let n_blocks = (len + 1) / 2 in
          (match Slicing.validate ~n_blocks expr with
          | Ok () -> ()
          | Error _ -> tryswap i)));
  expr

(* One code per slot (H, V, then operand [b] as [b + 2]), packed as
   little-endian int64s into one string. The polymorphic hash of an [elt
   array] stops after 10 meaningful values, so expressions sharing a prefix
   would collide; a string hashes whole. *)
let memo_key expr =
  let key = Bytes.create (8 * Array.length expr) in
  Array.iteri
    (fun i elt ->
      let code = match elt with Slicing.H -> 0 | Slicing.V -> 1 | Slicing.Op b -> b + 2 in
      Bytes.set_int64_le key (8 * i) (Int64.of_int code))
    expr;
  Bytes.unsafe_to_string key

let run ?(params = default_params) ?pool ~seed ~blocks ~cost () =
  let { population; generations; crossover_rate; mutation_rate; tournament; elite } =
    params
  in
  if population < 2 then invalid_arg "Ga.run: population too small";
  if elite >= population then invalid_arg "Ga.run: elite >= population";
  let n = Array.length blocks in
  if n = 0 then invalid_arg "Ga.run: no blocks";
  let pool = match pool with Some p -> p | None -> Pool.default () in
  Trace.with_span "ga.run"
    ~args:
      [ ("blocks", Trace.Int n); ("population", Trace.Int population) ]
  @@ fun () ->
  let rng = Rng.create seed in
  (* Fitness evaluation consumes no randomness, so only it fans out: every
     generation first breeds its children sequentially (the RNG stream is
     untouched by parallelism), then evaluates them on the pool. Results
     land positionally, so the population array — and hence selection,
     sorting and the whole run — is bit-identical at any pool size.

     [cost] is a pure function of the expression, so the run scores each
     distinct expression once: [memo] maps a [memo_key] to its placement
     and cost. Only the batch's misses (first occurrences not yet in
     [memo]) go to the pool; the table is read and written on this domain
     alone, before and after the map, so it needs no lock. *)
  let memo = Hashtbl.create 128 in
  let evaluate_all exprs =
    let keys = Array.map memo_key exprs in
    let queued = Hashtbl.create 16 in
    let misses = ref [] in
    Array.iteri
      (fun i key ->
        if not (Hashtbl.mem memo key || Hashtbl.mem queued key) then begin
          Hashtbl.add queued key ();
          misses := i :: !misses
        end)
      keys;
    let misses = Array.of_list (List.rev !misses) in
    Metricsreg.add m_evaluations (Array.length misses);
    Metricsreg.add m_memo_hits (Array.length exprs - Array.length misses);
    let scored =
      Pool.parallel_map pool
        (fun i ->
          let placement = Slicing.evaluate blocks exprs.(i) in
          (placement, cost placement))
        misses
    in
    Array.iteri (fun j i -> Hashtbl.add memo keys.(i) scored.(j)) misses;
    Array.mapi
      (fun i expr ->
        let placement, c = Hashtbl.find memo keys.(i) in
        (expr, placement, c))
      exprs
  in
  let pop =
    ref
      (evaluate_all
         (Array.init population (fun i ->
              if i = 0 then Slicing.initial n else Slicing.random rng n)))
  in
  let by_cost (_, _, c1) (_, _, c2) = compare c1 c2 in
  Array.sort by_cost !pop;
  let history = Array.make generations 0.0 in
  let select () =
    let best = ref (Rng.int rng population) in
    for _ = 2 to tournament do
      let c = Rng.int rng population in
      let (_, _, cc) = !pop.(c) and (_, _, cb) = !pop.(!best) in
      if cc < cb then best := c
    done;
    let e, _, _ = !pop.(!best) in
    e
  in
  for gen = 0 to generations - 1 do
    Trace.with_span "ga.generation" ~args:[ ("gen", Trace.Int gen) ]
    @@ fun () ->
    let children =
      Array.init (population - elite) (fun _ ->
          let a = select () in
          let child =
            if Rng.float rng 1.0 < crossover_rate then crossover a (select ())
            else Array.copy a
          in
          if Rng.float rng 1.0 < mutation_rate then mutate rng child else child)
    in
    let evaluated = evaluate_all children in
    let next = Array.make population !pop.(0) in
    for i = 0 to elite - 1 do
      next.(i) <- !pop.(i)
    done;
    Array.blit evaluated 0 next elite (population - elite);
    Array.sort by_cost next;
    pop := next;
    let _, _, best_cost = !pop.(0) in
    history.(gen) <- best_cost
  done;
  let best_expr, best_placement, best_cost = !pop.(0) in
  { best_expr; best_placement; best_cost; history }
