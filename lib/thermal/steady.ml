module Lu = Tats_linalg.Lu
module Metricsreg = Tats_util.Metricsreg

(* Every leakage fixed point in the library funnels through [fixed_point]
   (dense path and inquiry fast path alike), so this one histogram is the
   authoritative distribution of the damped steps each call runs (a resumed
   call counts only the steps it adds). *)
let h_fp_iterations = Metricsreg.histogram "steady.fp_iterations"

type t = { model : Rcmodel.t; factored : Lu.t }

exception Runaway of { iterations : int; residual : float }

let () =
  Printexc.register_printer (function
    | Runaway { iterations; residual } ->
        Some
          (Printf.sprintf
             "thermal runaway: the leakage fixed point did not converge in %d \
              iterations (last step %g degC)"
             iterations residual)
    | _ -> None)

let create model = { model; factored = Lu.factor (Rcmodel.system_matrix model) }

let model t = t.model

let solve t ~power =
  Array.iter
    (fun p -> if p < 0.0 then invalid_arg "Steady.solve: negative power")
    power;
  Lu.solve_factored t.factored (Rcmodel.rhs t.model ~power)

let block_temperatures t ~power =
  Array.sub (solve t ~power) 0 (Rcmodel.n_blocks t.model)

(* The exponential leakage feedback can run away on very hot designs; real
   silicon saturates (and throttles) first, so the temperature excursion in
   the exponent is capped at 100 K above the reference. *)
let max_leak_excursion = 100.0

let default_max_iter = 200
let default_tol = 1e-6

(* A damped step commits [damping] of the new solve and keeps [inertia]
   of the current iterate. *)
let damping = 0.4
let inertia = 0.6

type work = { w_power : float array; w_a : float array; w_b : float array }

let work n = { w_power = Array.make n 0.0; w_a = Array.make n 0.0; w_b = Array.make n 0.0 }
let work_size w = Array.length w.w_a

type iterate = { temps : float array; steps : int; residual : float }

let seed temps = { temps; steps = 0; residual = Float.infinity }

let fixed_point ?(max_iter = default_max_iter) ?(tol = default_tol) ?work:w ?init
    ?stop ~package ~solve ~dynamic ~idle () =
  let n = Array.length dynamic in
  if Array.length idle <> n then
    invalid_arg "Steady.fixed_point: bad vector length";
  let beta = package.Package.leak_beta and t_ref = package.Package.leak_t_ref in
  (* One power buffer and two temperature buffers serve the whole
     iteration; [solve] writes block temperatures into its destination. *)
  let { w_power = power; w_a = a; w_b = b } =
    match w with
    | None -> work n
    | Some w ->
        if work_size w <> n then invalid_arg "Steady.fixed_point: bad work size";
        w
  in
  let start, residual0 =
    match init with
    | Some it ->
        if Array.length it.temps <> n then
          invalid_arg "Steady.fixed_point: bad initial guess length";
        Array.blit it.temps 0 a 0 n;
        (it.steps, it.residual)
    | None ->
        solve dynamic a;
        (0, Float.infinity)
  in
  (* Everything the next step depends on is the iterate, its step count and
     the last residual, so an iterate handed back by [stop] resumes exactly
     where it left off. The loop keeps them in local mutable variables and
     writes the leakage term out in place, with no closure between them:
     a step allocates nothing, where a helper call would box its float
     arguments and result once per block. *)
  let cur = ref a and next = ref b in
  let k = ref start and residual = ref residual0 and running = ref true in
  (* [stop] is not asked of a caller's [init]: the caller has. *)
  let ask = ref (Option.is_none init) in
  while !running do
    if !residual <= tol then running := false
    else if !k >= max_iter then
      raise (Runaway { iterations = !k; residual = !residual })
    else if
      !ask && match stop with Some holds -> holds !cur | None -> false
    then running := false
    else begin
      ask := true;
      let cur_t = !cur and next_t = !next in
      for i = 0 to n - 1 do
        (* The leakage of block [i] at its current temperature. *)
        let excursion = Float.min (cur_t.(i) -. t_ref) max_leak_excursion in
        power.(i) <- dynamic.(i) +. (idle.(i) *. exp (beta *. excursion))
      done;
      solve power next_t;
      (* Damping keeps the exponential feedback stable on hot designs; the
         convergence test is on the damped (committed) step. *)
      let delta = ref 0.0 in
      for i = 0 to n - 1 do
        let damped = (damping *. next_t.(i)) +. (inertia *. cur_t.(i)) in
        delta := Float.max !delta (Float.abs (damped -. cur_t.(i)));
        next_t.(i) <- damped
      done;
      cur := next_t;
      next := cur_t;
      incr k;
      residual := !delta
    end
  done;
  Metricsreg.observe h_fp_iterations (float_of_int (!k - start));
  { temps = !cur; steps = !k; residual = !residual }

let factored t = t.factored

(* One blocked multi-RHS sweep instead of a loop of unit solves;
   Lu.solve_many guarantees element-wise identical columns. *)
let influence_columns ?n t =
  let nodes = Lu.size t.factored in
  let n = match n with None -> nodes | Some n -> n in
  if n < 0 || n > nodes then
    invalid_arg "Steady.influence_columns: column count out of range";
  Lu.solve_many t.factored
    (Array.init n (fun j ->
         let e = Array.make nodes 0.0 in
         e.(j) <- 1.0;
         e))

let solve_with_leakage ?max_iter ?tol t ~dynamic ~idle =
  let n = Rcmodel.n_blocks t.model in
  if Array.length dynamic <> n || Array.length idle <> n then
    invalid_arg "Steady.solve_with_leakage: bad vector length";
  let nodes = Rcmodel.n_nodes t.model in
  let rhs = Array.make nodes 0.0 and x = Array.make nodes 0.0 in
  let solve power dst =
    Rcmodel.rhs_into t.model ~power rhs;
    Lu.solve_factored_into t.factored ~b:rhs ~x;
    Array.blit x 0 dst 0 n
  in
  let it =
    fixed_point ?max_iter ?tol ~package:(Rcmodel.package t.model) ~solve
      ~dynamic ~idle ()
  in
  (it.temps, it.steps)
