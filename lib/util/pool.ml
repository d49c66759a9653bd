(* A domain pool that runs one batch at a time off one atomic cursor.

   Design notes, in decreasing order of importance:

   - Determinism: results are written positionally into a pre-sized array,
     the fold of parallel_for_reduce runs in index order after the barrier,
     and on failure the recorded exception is the one from the lowest task
     index. Nothing observable depends on which domain ran what, so the
     claim order - inherently racy - can never change a result.

   - One batch is in flight at a time: batches are serialized by a
     submission mutex and nested calls run inline. So the whole runtime is
     one flat range [0, n) per batch, and an atomic cursor is all the
     distribution it needs: every domain claims the next grain with one
     [fetch_and_add] until the cursor passes [n]. Fine-grained batches pay
     one atomic per grain, never a lock.

   - Blocking is the cold path, and it has one mutex/condition pair. The
     submitter publishes the batch in [current] and broadcasts; a worker
     sleeps until [current] holds a batch other than the last one it ran
     (compared by identity) or the pool stops. The grain that retires the
     batch broadcasts under the mutex, and the submitter re-checks
     [remaining] under it before every wait, so no wake-up is lost.

   - The submitting domain is a worker too: it claims grains like everyone
     else until the cursor is exhausted, then waits for stragglers, so a
     pool of size 1 never spawns a domain and [jobs] means "domains doing
     work".

   - A worker that wakes late may still hold a retired batch: its claim
     then returns an index past [n] (every index was claimed before
     [remaining] reached zero), so it never runs a grain twice.

   - Serialization is also what makes [shutdown] safe while a batch is in
     flight: shutdown queues behind the running batch, which drains
     normally, and only then are the workers stopped. *)

type batch = {
  n : int;
  grain : int;
  next : int Atomic.t; (* claim cursor: first unclaimed index *)
  remaining : int Atomic.t; (* indices not yet executed *)
  failed : (int * exn) option Atomic.t; (* lowest failing index wins *)
  body : int -> int -> (int * exn) option;
      (* [body lo hi] runs indices [lo, hi], recording results positionally,
         and returns the lowest in-range failure, if any *)
}

type t = {
  n_jobs : int;
  mutex : Mutex.t; (* guards [current], [cv] and the workers' sleep *)
  cv : Condition.t;
  mutable current : batch option; (* the batch in flight *)
  submit_mutex : Mutex.t; (* serializes batches and shutdown *)
  live : bool Atomic.t;
  mutable workers : unit Domain.t array;
  (* counters *)
  c_batches : int Atomic.t;
  c_tasks : int Atomic.t; (* task-function applications *)
  c_steals : int Atomic.t; (* grains run by a spawned worker *)
  c_parks : int Atomic.t; (* times a domain went to sleep *)
  busy : float array; (* wall seconds in task bodies, slot-owned writes *)
}

type stats = {
  jobs : int;
  batches : int;
  tasks : int;
  steals : int;
  parks : int;
  busy : float array;
}

let max_jobs = 128
let in_task : bool Domain.DLS.key = Domain.DLS.new_key (fun () -> false)

let now = Unix.gettimeofday

(* Fleet-wide registry counters, mirroring the per-pool ones. *)
let m_batches = Metricsreg.counter "pool.batches"
let m_tasks = Metricsreg.counter "pool.tasks"
let m_steals = Metricsreg.counter "pool.steals"
let m_parks = Metricsreg.counter "pool.parks"

(* Record [failure] into the batch, keeping the lowest index. *)
let rec record_failure batch ((i, _) as failure) =
  match Atomic.get batch.failed with
  | Some (j, _) when j <= i -> ()
  | cur ->
      if not (Atomic.compare_and_set batch.failed cur (Some failure)) then
        record_failure batch failure

(* Sleep on [cv] (the caller holds [mutex]), counted as a park. *)
let park t =
  Atomic.incr t.c_parks;
  Metricsreg.incr m_parks;
  Trace.with_span "pool.park" (fun () -> Condition.wait t.cv t.mutex)

(* Run indices [lo, hi] of [batch] on this domain. Completion of the
   grain's indices is what retires the batch. *)
let exec_grain t slot batch lo hi =
  let stolen = slot > 0 in
  if stolen then begin
    Atomic.incr t.c_steals;
    Metricsreg.incr m_steals
  end;
  let t0 = now () in
  Domain.DLS.set in_task true;
  let failure =
    Trace.with_span "pool.task" (fun () ->
        if stolen then Trace.add_attr "stolen" (Trace.Bool true);
        batch.body lo hi)
  in
  Domain.DLS.set in_task false;
  t.busy.(slot) <- t.busy.(slot) +. (now () -. t0);
  let k = hi - lo + 1 in
  Atomic.fetch_and_add t.c_tasks k |> ignore;
  Metricsreg.add m_tasks k;
  (match failure with Some f -> record_failure batch f | None -> ());
  if Atomic.fetch_and_add batch.remaining (-k) = k then begin
    (* Last indices of the batch: wake the submitter. *)
    Mutex.lock t.mutex;
    Condition.broadcast t.cv;
    Mutex.unlock t.mutex
  end

(* Claim and run grains until the cursor passes the end of the batch. *)
let rec run_grains t slot batch =
  let lo = Atomic.fetch_and_add batch.next batch.grain in
  if lo < batch.n then begin
    exec_grain t slot batch lo (Stdlib.min batch.n (lo + batch.grain) - 1);
    run_grains t slot batch
  end

let worker_loop t slot =
  (* [last] is the batch this worker ran most recently. *)
  let ran b = function Some l -> l == b | None -> false in
  let rec loop last =
    Mutex.lock t.mutex;
    let rec await () =
      if not (Atomic.get t.live) then None
      else
        match t.current with
        | Some b when not (ran b last) -> Some b
        | Some _ | None ->
            park t;
            await ()
    in
    let next = await () in
    Mutex.unlock t.mutex;
    match next with
    | None -> ()
    | Some b ->
        run_grains t slot b;
        loop next
  in
  loop None

let create ?jobs () =
  let n_jobs =
    match jobs with
    | None -> Stdlib.max 1 (Domain.recommended_domain_count ())
    | Some j -> Stdlib.min max_jobs (Stdlib.max 1 j)
  in
  let t =
    {
      n_jobs;
      mutex = Mutex.create ();
      cv = Condition.create ();
      current = None;
      submit_mutex = Mutex.create ();
      live = Atomic.make true;
      workers = [||];
      c_batches = Atomic.make 0;
      c_tasks = Atomic.make 0;
      c_steals = Atomic.make 0;
      c_parks = Atomic.make 0;
      busy = Array.make n_jobs 0.0;
    }
  in
  t.workers <-
    Array.init (n_jobs - 1) (fun i -> Domain.spawn (fun () -> worker_loop t (i + 1)));
  t

let jobs t = t.n_jobs

let shutdown t =
  if Domain.DLS.get in_task then
    invalid_arg "Pool.shutdown: called from inside a pool task";
  (* Queue behind any in-flight batch: it drains normally first. *)
  Mutex.lock t.submit_mutex;
  Fun.protect
    ~finally:(fun () -> Mutex.unlock t.submit_mutex)
    (fun () ->
      if Atomic.get t.live then begin
        Mutex.lock t.mutex;
        Atomic.set t.live false;
        Condition.broadcast t.cv;
        Mutex.unlock t.mutex;
        Array.iter Domain.join t.workers;
        t.workers <- [||]
      end)

let with_pool ?jobs f =
  let t = create ?jobs () in
  Fun.protect ~finally:(fun () -> shutdown t) (fun () -> f t)

let stats t =
  {
    jobs = t.n_jobs;
    batches = Atomic.get t.c_batches;
    tasks = Atomic.get t.c_tasks;
    steals = Atomic.get t.c_steals;
    parks = Atomic.get t.c_parks;
    busy = Array.copy t.busy;
  }

let reset_stats t =
  Atomic.set t.c_batches 0;
  Atomic.set t.c_tasks 0;
  Atomic.set t.c_steals 0;
  Atomic.set t.c_parks 0;
  Array.fill t.busy 0 (Array.length t.busy) 0.0

let pp_stats ppf s =
  Format.fprintf ppf "jobs %d, batches %d, tasks %d, steals %d, parks %d, busy ["
    s.jobs s.batches s.tasks s.steals s.parks;
  Array.iteri
    (fun i b -> Format.fprintf ppf "%s%.3fs" (if i = 0 then "" else " ") b)
    s.busy;
  Format.fprintf ppf "]"

(* The workhorse. [f] is applied as [f i xs.(i)] and results land in slot
   [i]; everything else is scheduling. *)
let parallel_mapi ?chunk t f xs =
  let n = Array.length xs in
  if n = 0 then [||]
  else begin
    let inline_run () =
      (* Inline path: plain sequential mapi, accounted as one batch on the
         submitting domain. Used for tiny batches, single-job pools, shut
         pools, and nested calls (where the accounting is skipped: the
         enclosing task's runner is already charging this time). *)
      let nested = Domain.DLS.get in_task in
      let t0 = now () in
      let r = Array.mapi f xs in
      if not nested then begin
        Atomic.incr t.c_batches;
        Atomic.fetch_and_add t.c_tasks n |> ignore;
        t.busy.(0) <- t.busy.(0) +. (now () -. t0);
        Metricsreg.incr m_batches;
        Metricsreg.add m_tasks n
      end;
      r
    in
    if t.n_jobs = 1 || n = 1 || (not (Atomic.get t.live)) || Domain.DLS.get in_task
    then inline_run ()
    else begin
      Mutex.lock t.submit_mutex;
      Fun.protect
        ~finally:(fun () -> Mutex.unlock t.submit_mutex)
        (fun () ->
          if not (Atomic.get t.live) then inline_run ()
          else begin
            let grain =
              match chunk with
              | Some c -> Stdlib.max 1 c
              | None -> Stdlib.max 1 (n / (8 * t.n_jobs))
            in
            let results = Array.make n None in
            let body lo hi =
              (* Runs each index of the grain; stops at the first failure
                 (the rest of the batch still runs - only this grain's
                 tail is skipped). *)
              let rec go i =
                if i > hi then None
                else
                  match f i xs.(i) with
                  | v ->
                      results.(i) <- Some v;
                      go (i + 1)
                  | exception e -> Some (i, e)
              in
              go lo
            in
            let batch =
              {
                n;
                grain;
                next = Atomic.make 0;
                remaining = Atomic.make n;
                failed = Atomic.make None;
                body;
              }
            in
            Atomic.incr t.c_batches;
            Metricsreg.incr m_batches;
            Trace.with_span "pool.batch" (fun () ->
                Mutex.lock t.mutex;
                t.current <- Some batch;
                Condition.broadcast t.cv;
                Mutex.unlock t.mutex;
                (* The submitting domain works as slot 0, then waits for
                   the grains still running elsewhere. *)
                run_grains t 0 batch;
                Mutex.lock t.mutex;
                while Atomic.get batch.remaining > 0 do
                  park t
                done;
                t.current <- None;
                Mutex.unlock t.mutex);
            (match Atomic.get batch.failed with
            | Some (_, e) -> raise e
            | None -> ());
            Array.map (function Some v -> v | None -> assert false) results
          end)
    end
  end

let parallel_map ?chunk t f xs = parallel_mapi ?chunk t (fun _ x -> f x) xs

let parallel_for_reduce ?chunk t ~n ~init ~combine body =
  if n < 0 then invalid_arg "Pool.parallel_for_reduce: negative n";
  let values = parallel_mapi ?chunk t (fun i () -> body i) (Array.make n ()) in
  Array.fold_left combine init values

(* --- the process-wide default pool ------------------------------------- *)

let default_mutex = Mutex.create ()
let default_pool = ref None
let requested_jobs = ref None

let default_jobs () =
  Mutex.lock default_mutex;
  let j =
    match !requested_jobs with
    | Some j -> j
    | None -> Stdlib.max 1 (Domain.recommended_domain_count ())
  in
  Mutex.unlock default_mutex;
  j

let set_default_jobs j =
  let j = Stdlib.min max_jobs (Stdlib.max 1 j) in
  Mutex.lock default_mutex;
  requested_jobs := Some j;
  let stale =
    match !default_pool with
    | Some p when p.n_jobs <> j ->
        default_pool := None;
        Some p
    | Some _ | None -> None
  in
  Mutex.unlock default_mutex;
  match stale with Some p -> shutdown p | None -> ()

let () =
  (* Worker domains must be joined before the process can exit. *)
  at_exit (fun () ->
      Mutex.lock default_mutex;
      let p = !default_pool in
      default_pool := None;
      Mutex.unlock default_mutex;
      match p with Some p -> shutdown p | None -> ())

let default () =
  Mutex.lock default_mutex;
  let p =
    match !default_pool with
    | Some p -> p
    | None ->
        let p = create ?jobs:!requested_jobs () in
        default_pool := Some p;
        p
  in
  Mutex.unlock default_mutex;
  p
