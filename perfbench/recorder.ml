(* Latency samples of one timed window and the summary rules the benchmark
   reports: the median, and the tail — the highest percentile that still
   has at least ten samples beyond it.

   Timings are reported at a reference host speed. The host this
   benchmark shares runs the same code up to 40% slower for tens of
   seconds at a time, which no statistic over one run can remove. So the
   window runs a fixed calibration kernel (this file, not library code)
   between rounds, and every op latency and round duration is scaled by
   [reference_kernel_s] over the median kernel time measured around its
   round. A change to the library moves the scaled times; the host's
   speed does not. *)

let now = Unix.gettimeofday

(* --- calibration kernel -------------------------------------------------- *)

(* Preallocated, so the kernel allocates only short-lived young values and
   its time does not depend on the state of the workload's major heap. *)
let kernel_n = 3000
let kernel_src = Array.init kernel_n (fun i -> float_of_int (i * 7919 mod 2003) /. 100.0)
let kernel_buf = Array.make kernel_n 0.0
let kernel_sink = ref 0.0

(* Float arithmetic, strided reads, an in-place sort and a list sort:
   about 1 ms on a quiet 2-vCPU x86-64 host. *)
let kernel () =
  Array.blit kernel_src 0 kernel_buf 0 kernel_n;
  let acc = ref 0.0 in
  for r = 0 to 9 do
    for i = 0 to kernel_n - 1 do
      let x = kernel_buf.(i) in
      acc := !acc +. (x *. kernel_buf.((i * 31 + r) mod kernel_n) /. (1.0 +. x))
    done
  done;
  Array.sort Float.compare kernel_buf;
  let l = List.sort compare (List.init 2000 (fun i -> i * 104729 mod 4099)) in
  kernel_sink := !kernel_sink +. !acc +. kernel_buf.(0) +. float_of_int (List.hd l)

(* The kernel time at the reference speed all timings are scaled to. *)
let reference_kernel_s = 1.0e-3

let time_kernel () =
  let t0 = now () in
  kernel ();
  now () -. t0

(* One kernel run per 25 ms of work, between 1 and 40 per burst. *)
let kernel_period_s = 0.025

let burst ~after_s =
  let k = max 1 (min 40 (int_of_float (after_s /. kernel_period_s))) in
  Array.init k (fun _ -> time_kernel ())

(* --- samples ------------------------------------------------------------- *)

type t = {
  mutable lat : float array;  (** seconds, first [n] slots used *)
  mutable round_of : int array;  (** the round each sample belongs to *)
  mutable kind : int array;  (** the op each sample repeats; unique when negative *)
  mutable n : int;
  mutable failed : int;
  mutable round : int;  (** index of the round in progress *)
  mutable busy : float list;  (** seconds inside each round, latest first *)
  mutable bursts : float array list;
      (** kernel times before the first round and after each round, latest first *)
  mutable pass_ends : int list;  (** rounds completed at each pass end, latest first *)
  lock : Mutex.t;
}

let create () =
  {
    lat = Array.make 1024 0.0;
    round_of = Array.make 1024 0;
    kind = Array.make 1024 0;
    n = 0;
    failed = 0;
    round = 0;
    busy = [];
    bursts = [];
    pass_ends = [];
    lock = Mutex.create ();
  }

let grow a n = Array.append a (Array.make n a.(0))

(* [add] is called from client threads in the serving workload. [kind]
   names the op of the workload's op set that the sample measures; ops
   that do not repeat leave it out. *)
let add ?(kind = -1) t ~latency ~ok =
  Mutex.protect t.lock (fun () ->
      if t.n = Array.length t.lat then begin
        t.lat <- grow t.lat t.n;
        t.round_of <- grow t.round_of t.n;
        t.kind <- grow t.kind t.n
      end;
      t.lat.(t.n) <- latency;
      t.round_of.(t.n) <- t.round;
      t.kind.(t.n) <- (if kind < 0 then -1 - t.n else kind);
      t.n <- t.n + 1;
      if not ok then t.failed <- t.failed + 1)

(* Time [f] as one op of kind [kind]; an exception or [false] counts as a
   failed op. The op is a "bench.op" span so traced runs can attribute
   harness time. *)
let op ~kind t f =
  let t0 = now () in
  let ok =
    match Core.Trace.with_span "bench.op" f with
    | ok -> ok
    | exception e ->
        prerr_endline ("perfbench: op raised " ^ Printexc.to_string e);
        false
  in
  add ~kind t ~latency:(now () -. t0) ~ok;
  ok

(* Failures found by an output check after the window: they count against
   ops already attempted. *)
let fail t k = Mutex.protect t.lock (fun () -> t.failed <- t.failed + k)

let attempted t = t.n
let failed t = min t.failed t.n

(* The window calls [calibrate] once before the first round, then
   [end_round] after each round (which runs the next calibration burst)
   and [end_pass] when the rounds so far form whole passes. *)
let calibrate t samples = t.bursts <- samples :: t.bursts

let end_round t ~busy =
  t.busy <- busy :: t.busy;
  t.round <- t.round + 1;
  calibrate t (burst ~after_s:busy)

let end_pass t = t.pass_ends <- t.round :: t.pass_ends

(* --- summaries ----------------------------------------------------------- *)

module Stats = Core.Stats

(* Reference speed over host speed for each round: the median of the
   kernel bursts on both sides of the round, widened one burst at a time
   on each side until it holds at least nine kernel runs. *)
let round_scales t =
  let bursts = Array.of_list (List.rev t.bursts) in
  let nb = Array.length bursts in
  Array.init t.round (fun i ->
      let rec gather lo hi acc =
        let acc = if lo >= 0 then bursts.(lo) :: acc else acc in
        let acc = if hi < nb && hi <> lo then bursts.(hi) :: acc else acc in
        let got = Array.concat acc in
        if Array.length got >= 9 || (lo < 0 && hi >= nb) then got else gather (lo - 1) (hi + 1) acc
      in
      reference_kernel_s /. Stats.median (gather i (i + 1) []))

(* The median kernel time of the whole window, and its overall scale. *)
let kernel_median t = Stats.median (Array.concat t.bursts)
let scale t = reference_kernel_s /. kernel_median t

type summary = {
  scaled : float array;  (** op latencies at reference speed, in sample order *)
  round_busy : float array;  (** round durations at reference speed *)
  passes : (int * int) list;  (** [first, last) round index of each measured pass *)
}

(* The measured passes are the first whole passes that fit in [budget]
   seconds at reference speed, and at least the first two. The window runs
   longer than the budget, so a slow host still completes them, and every
   run measures about the same work: the tail, say, is then always the
   same order statistic of the same op set, whatever the host's speed. *)
let min_passes = 2

let summarize t ~budget =
  let s = round_scales t in
  let scaled = Array.init t.n (fun i -> t.lat.(i) *. s.(t.round_of.(i))) in
  let round_busy = Array.of_list (List.rev t.busy) |> Array.mapi (fun i b -> b *. s.(i)) in
  let rec take a used acc = function
    | b :: rest when b > a ->
        let used = used +. Stats.sum (Array.sub round_busy a (b - a)) in
        if used > budget && List.length acc >= min_passes then acc
        else take b used ((a, b) :: acc) rest
    | _ :: rest -> take a used acc rest
    | [] -> acc
  in
  { scaled; round_busy; passes = List.rev (take 0 0.0 [] (List.rev t.pass_ends)) }

(* The scaled latencies of the measured passes. *)
let measured t (s : summary) =
  let last = List.fold_left (fun _ (_, b) -> b) 0 s.passes in
  let n = ref 0 in
  while !n < t.n && t.round_of.(!n) < last do incr n done;
  Array.sub s.scaled 0 !n

type tail = { value : float; percentile : float; samples : int }

(* The sample with exactly ten samples beyond it; below eleven samples the
   maximum stands in. *)
let tail samples =
  let sorted = Array.copy samples in
  Array.sort Float.compare sorted;
  let n = Array.length sorted in
  if n = 0 then { value = nan; percentile = nan; samples = 0 }
  else if n <= 10 then { value = sorted.(n - 1); percentile = 100.0; samples = n }
  else
    {
      value = sorted.(n - 11);
      percentile = 100.0 *. float_of_int (n - 10) /. float_of_int n;
      samples = n;
    }

(* Completed ops per busy second at reference speed, the median over the
   measured passes. *)
let pass_rate t s =
  let ops = Array.make (t.round + 1) 0 in
  for i = 0 to t.n - 1 do
    ops.(t.round_of.(i)) <- ops.(t.round_of.(i)) + 1
  done;
  let sum a b arr = Stats.sum (Array.sub arr a (b - a)) in
  Stats.median
    (Array.of_list
       (List.map
          (fun (a, b) -> sum a b (Array.map float_of_int ops) /. sum a b s.round_busy)
          s.passes))

(* The median over the op set of each op's median latency in the
   measured passes. A workload's op set mixes fast and slow ops, and the
   pooled median of an even-sized set sits on the boundary between two of
   them, where it jumps with the count of samples on either side; the
   median over per-op medians moves only when the ops themselves do. Ops
   that do not repeat are their own kind, so for them this is the pooled
   median. *)
let kind_median t s =
  let by_kind = Hashtbl.create 64 in
  Array.iteri
    (fun i x ->
      let k = t.kind.(i) in
      Hashtbl.replace by_kind k (x :: Option.value ~default:[] (Hashtbl.find_opt by_kind k)))
    (measured t s);
  if Hashtbl.length by_kind = 0 then nan
  else
    Stats.median
      (Array.of_seq (Seq.map (fun l -> Stats.median (Array.of_list l)) (Hashtbl.to_seq_values by_kind)))
