(* Fixed-size domain pool with one shared work queue and a helping
   scheduler for nested fan-out. See pool.mli for the contract.

   A "job" is a self-contained thunk: it computes one indexed result,
   writes it into its fan-out's context under that context's lock and
   signals completion. Because thunks own all their synchronisation, any
   domain may execute any queued thunk — which is what lets a nested
   [map] help the pool instead of blocking a worker. *)

type job = unit -> unit

(* One metric row per executing domain: the [jobs] worker domains, plus
   one shared row for the coordinating/helping domain (the caller of a
   fan-out, which executes jobs inline at [jobs = 1] and during nested
   helping). GC deltas are sampled on the executing domain around each
   job — [Gc.quick_stat]'s allocation counters are domain-local — which
   is what turns "is parallelism paying a minor-GC barrier tax?" into a
   per-domain measured number. *)
type worker_row = {
  wr_name : string;  (* registry prefix, e.g. "pool.domain0" *)
  wr_busy_ns : Obs.Metric.Counter.t;
  wr_jobs : Obs.Metric.Counter.t;
  wr_gc : Obs.Gcstats.counters;
}

type metrics = {
  m_registry : Obs.Registry.t;
  m_queue_wait : Obs.Metric.Histogram.t;  (* submission -> execution start *)
  m_task : Obs.Metric.Histogram.t;  (* job body latency *)
  m_rows : worker_row array;  (* workers 0..jobs-1, then the coordinator *)
  m_attached_ns : int;  (* busy-fraction denominator origin *)
}

(* Pre-resolved tracer names for the task lifecycle events: a
   [pool.submit] instant when a job enters the queue (on the submitting
   domain's ring), a [pool.dequeue] instant when some domain picks it
   up, and a [pool.task] duration over the job body on the domain that
   ran it — all tagged with the job's global submission index, so a
   timeline shows exactly which domain ran which job, and when. *)
type tr_ctx = {
  tr_t : Obs.Tracer.t;
  n_submit : Obs.Tracer.name;
  n_dequeue : Obs.Tracer.name;
  n_task : Obs.Tracer.name;
}

type t = {
  jobs : int;
  mutex : Mutex.t;  (* guards [queue] and [stopping] *)
  work : Condition.t;  (* signalled on new work or shutdown *)
  queue : job Queue.t;
  mutable stopping : bool;
  mutable workers : unit Domain.t list;
  mutable metrics : metrics option;
      (* write-once-ish (set by [set_metrics] between fan-outs); jobs
         capture the value at submission, so a mid-fan-out swap is
         harmless *)
  mutable trace : tr_ctx option;  (* same discipline as [metrics] *)
  job_seq : int Atomic.t;  (* global submission index for trace tags *)
}

type stats = {
  stat_jobs : int;
  queue_depth : int;
  tasks_run : int;
  wall_ns : int;
  busy_fraction : float array;
}

(* True on any domain currently executing pool jobs. A fan-out started
   from such a domain must help rather than block (all workers could
   otherwise be waiting on sub-jobs that no domain is left to run). *)
let in_worker : bool Domain.DLS.key = Domain.DLS.new_key (fun () -> false)

(* Which metric row this domain accounts to: workers set their index at
   spawn; -1 (any non-worker domain) maps to the coordinator row. *)
let worker_slot : int Domain.DLS.key = Domain.DLS.new_key (fun () -> -1)

let rec worker_loop t =
  Mutex.lock t.mutex;
  let rec next () =
    if not (Queue.is_empty t.queue) then Some (Queue.pop t.queue)
    else if t.stopping then None
    else begin
      Condition.wait t.work t.mutex;
      next ()
    end
  in
  match next () with
  | None -> Mutex.unlock t.mutex
  | Some job ->
      Mutex.unlock t.mutex;
      job ();
      worker_loop t

let make_metrics t reg =
  let row name =
    {
      wr_name = name;
      wr_busy_ns = Obs.Registry.counter reg (name ^ ".busy_ns");
      wr_jobs = Obs.Registry.counter reg (name ^ ".jobs_run");
      wr_gc = Obs.Gcstats.counters reg ~prefix:(name ^ ".gc");
    }
  in
  let nworkers = if t.jobs = 1 then 0 else t.jobs in
  {
    m_registry = reg;
    m_queue_wait = Obs.Registry.histogram reg "pool.queue_wait_ns";
    m_task = Obs.Registry.histogram reg "pool.task_ns";
    m_rows =
      Array.init (nworkers + 1) (fun i ->
          if i = nworkers then row "pool.coordinator"
          else row (Printf.sprintf "pool.domain%d" i));
    m_attached_ns = Obs.Clock.now_ns ();
  }

let set_metrics t sink =
  t.metrics <-
    (match Obs.Sink.registry sink with
    | None -> None
    | Some reg -> Some (make_metrics t reg))

(* Attach (or, with [Obs.Tracer.null], detach) an execution tracer.
   With a recording tracer every job's lifecycle lands on the timeline:
   a [pool.submit] instant when it enters the queue (on the submitting
   domain's ring), a [pool.dequeue] instant when a domain picks it up,
   and a [pool.task] duration span over the body on the domain that ran
   it — all tagged ([args.v]) with the job's global submission index.
   Task spans are outermost-job-only, like metric accounting: jobs a
   domain executes while helping a nested fan-out are covered by the
   outer span (their dequeue instants still appear). Same determinism
   contract as [set_metrics]: pure observation, byte-identical
   results. *)
let set_tracer t tracer =
  t.trace <-
    (if not (Obs.Tracer.enabled tracer) then None
     else
       Some
         {
           tr_t = tracer;
           n_submit = Obs.Tracer.name tracer "pool.submit";
           n_dequeue = Obs.Tracer.name tracer "pool.dequeue";
           n_task = Obs.Tracer.name tracer "pool.task";
         })

(* OCaml 5.1 runs at most 128 domains, the calling one included. *)
let max_jobs = 127

let check_jobs jobs =
  if jobs >= 1 && jobs <= max_jobs then Ok ()
  else Error (Printf.sprintf "must be between 1 and %d (got %d)" max_jobs jobs)

let create ~jobs =
  if jobs < 1 then invalid_arg "Pool.create: jobs < 1";
  if jobs > max_jobs then invalid_arg "Pool.create: jobs > max_jobs";
  let t =
    {
      jobs;
      mutex = Mutex.create ();
      work = Condition.create ();
      queue = Queue.create ();
      stopping = false;
      workers = [];
      metrics = None;
      trace = None;
      job_seq = Atomic.make 0;
    }
  in
  if jobs > 1 then
    t.workers <-
      List.init jobs (fun i ->
          Domain.spawn (fun () ->
              Domain.DLS.set in_worker true;
              Domain.DLS.set worker_slot i;
              worker_loop t));
  t

let jobs t = t.jobs

let shutdown t =
  Mutex.lock t.mutex;
  t.stopping <- true;
  Condition.broadcast t.work;
  Mutex.unlock t.mutex;
  List.iter Domain.join t.workers;
  t.workers <- []

let with_pool ?(metrics = Obs.Sink.null) ?(tracer = Obs.Tracer.null) ~jobs fn =
  let t = create ~jobs in
  set_metrics t metrics;
  set_tracer t tracer;
  Fun.protect ~finally:(fun () -> shutdown t) (fun () -> fn t)

(* --- job accounting --- *)

let row_for m =
  let coordinator = Array.length m.m_rows - 1 in
  let s = Domain.DLS.get worker_slot in
  m.m_rows.(if s >= 0 && s < coordinator then s else coordinator)

(* A domain that is already inside an accounted job may run further
   jobs inline (the coordinator helps drain the queue, and nested
   map/init calls execute on the same domain). Those inner jobs are
   covered by the outer job's span; accounting them again would
   double-count busy time and GC work, pushing busy fractions past 1.
   The flag below makes accounting apply to outermost jobs only. *)
let in_accounted : bool Domain.DLS.key = Domain.DLS.new_key (fun () -> false)

(* Timing + GC accounting and the [pool.task] trace span around one job
   body, attributed to the executing domain. Pure observation — it wraps
   the thunk without reordering anything, so scheduling and results are
   untouched. [m]/[tr] carry whichever of metrics and tracing is on
   ([tr] pairs the trace context with the job's submission index). *)
let accounted m tr job () =
  if Domain.DLS.get in_accounted then job ()
  else begin
    Domain.DLS.set in_accounted true;
    let start = Obs.Clock.now_ns () in
    let gc0 =
      match m with None -> None | Some _ -> Some (Obs.Gcstats.snapshot ())
    in
    Fun.protect
      ~finally:(fun () ->
        let stop = Obs.Clock.now_ns () in
        (match (m, gc0) with
        | Some m, Some gc0 ->
            let row = row_for m in
            let gc1 = Obs.Gcstats.snapshot () in
            Obs.Metric.Histogram.observe m.m_task (stop - start);
            Obs.Metric.Counter.add row.wr_busy_ns (stop - start);
            Obs.Metric.Counter.incr row.wr_jobs;
            Obs.Gcstats.accumulate row.wr_gc
              (Obs.Gcstats.delta ~before:gc0 ~after:gc1)
        | _ -> ());
        Domain.DLS.set in_accounted false;
        match tr with
        | None -> ()
        | Some (c, seq) ->
            Obs.Tracer.duration_v c.tr_t c.n_task ~ts:start
              ~dur:(stop - start) ~v:seq)
      job
  end

(* Wrap a queued job at submission time: emits the submit instant,
   measures queue wait (submission to execution start), emits the
   dequeue instant on the executing domain, then runs the accounted
   body. With metrics and tracing both off this is the identity — no
   wrapper closure exists. *)
let instrument t job =
  match (t.metrics, t.trace) with
  | None, None -> job
  | m, trc ->
      let tr =
        match trc with
        | None -> None
        | Some c ->
            let seq = Atomic.fetch_and_add t.job_seq 1 in
            Obs.Tracer.instant_v c.tr_t c.n_submit ~ts:(Obs.Clock.now_ns ())
              ~v:seq;
            Some (c, seq)
      in
      let enqueued = Obs.Clock.now_ns () in
      fun () ->
        (match tr with
        | None -> ()
        | Some (c, seq) ->
            Obs.Tracer.instant_v c.tr_t c.n_dequeue ~ts:(Obs.Clock.now_ns ())
              ~v:seq);
        (match m with
        | None -> ()
        | Some m ->
            Obs.Metric.Histogram.observe m.m_queue_wait
              (Obs.Clock.now_ns () - enqueued));
        accounted m tr job ()

let try_pop t =
  Mutex.lock t.mutex;
  let job = if Queue.is_empty t.queue then None else Some (Queue.pop t.queue) in
  Mutex.unlock t.mutex;
  job

(* --- one fan-out (a single map/init/map_reduce call) --- *)

type 'b ctx = {
  total : int;
  results : 'b option array;
  mutable completed : int;
  (* lowest-indexed failure so far: the exception the sequential run
     would have raised first *)
  mutable failed : (int * exn * Printexc.raw_backtrace) option;
  completions : int Queue.t;  (* completion order, drives on_progress *)
  mutable next_ordered : int;  (* next index to hand to on_result *)
  cmutex : Mutex.t;
  cdone : Condition.t;
}

let job_thunk ctx f i x () =
  let outcome = try Ok (f i x) with e -> Error (e, Printexc.get_raw_backtrace ()) in
  Mutex.lock ctx.cmutex;
  (match outcome with
  | Ok r -> ctx.results.(i) <- Some r
  | Error (e, bt) -> (
      match ctx.failed with
      | Some (j, _, _) when j < i -> ()
      | _ -> ctx.failed <- Some (i, e, bt)));
  ctx.completed <- ctx.completed + 1;
  Queue.push i ctx.completions;
  Condition.broadcast ctx.cdone;
  Mutex.unlock ctx.cmutex

(* Deliver pending callbacks on the calling domain: on_progress in
   completion order, then on_result for the completed ordered prefix
   (halting at the first failed index, as the sequential run would).
   One event per lock round-trip; callbacks run unlocked. *)
let dispatch ?on_progress ?on_result ctx =
  let continue = ref true in
  while !continue do
    Mutex.lock ctx.cmutex;
    let progress_evt =
      if Queue.is_empty ctx.completions then None
      else Some (Queue.pop ctx.completions, ctx.completed)
    in
    let result_evt =
      match progress_evt with
      | Some _ -> None
      | None ->
          let i = ctx.next_ordered in
          let blocked =
            match ctx.failed with Some (j, _, _) -> i >= j | None -> false
          in
          if blocked || i >= ctx.total then None
          else (
            match ctx.results.(i) with
            | Some r ->
                ctx.next_ordered <- i + 1;
                Some (i, r)
            | None -> None)
    in
    Mutex.unlock ctx.cmutex;
    match (progress_evt, result_evt) with
    | Some (job, done_), _ -> (
        match on_progress with
        | Some cb -> cb ~done_ ~total:ctx.total ~job
        | None -> ())
    | None, Some (i, r) -> (
        match on_result with Some cb -> cb i r | None -> ())
    | None, None -> continue := false
  done

let run_parallel ?on_progress ?on_result t ctx thunks =
  Mutex.lock t.mutex;
  if t.stopping then begin
    Mutex.unlock t.mutex;
    invalid_arg "Pool: pool already shut down"
  end;
  List.iter (fun job -> Queue.push (instrument t job) t.queue) thunks;
  Condition.broadcast t.work;
  Mutex.unlock t.mutex;
  if Domain.DLS.get in_worker then begin
    (* Nested fan-out: help run queued jobs (ours or anyone's) instead
       of blocking; a blocked worker could deadlock the pool. *)
    let rec help () =
      dispatch ?on_progress ?on_result ctx;
      Mutex.lock ctx.cmutex;
      let finished = ctx.completed = ctx.total in
      Mutex.unlock ctx.cmutex;
      if not finished then begin
        (match try_pop t with
        | Some job -> job ()
        | None ->
            (* Queue empty, so every remaining job of ours is already
               running on some other domain; each completion broadcasts
               [cdone], so sleeping here cannot miss the last one. *)
            Mutex.lock ctx.cmutex;
            if ctx.completed < ctx.total && Queue.is_empty ctx.completions
            then Condition.wait ctx.cdone ctx.cmutex;
            Mutex.unlock ctx.cmutex);
        help ()
      end
    in
    help ()
  end
  else begin
    (* Coordinator: sleep between completion events, waking to deliver
       progress/result callbacks as the ordered prefix grows. *)
    let rec wait () =
      dispatch ?on_progress ?on_result ctx;
      Mutex.lock ctx.cmutex;
      if ctx.completed < ctx.total then begin
        if Queue.is_empty ctx.completions then Condition.wait ctx.cdone ctx.cmutex;
        Mutex.unlock ctx.cmutex;
        wait ()
      end
      else Mutex.unlock ctx.cmutex
    in
    wait ()
  end;
  dispatch ?on_progress ?on_result ctx;
  match ctx.failed with
  | Some (_, e, bt) -> Printexc.raise_with_backtrace e bt
  | None -> ()

let run_seq ?on_progress ?on_result ~f items total =
  List.mapi
    (fun i x ->
      let r = f i x in
      (match on_progress with
      | Some cb -> cb ~done_:(i + 1) ~total ~job:i
      | None -> ());
      (match on_result with Some cb -> cb i r | None -> ());
      r)
    items

(* jobs = 1: no queue, so no queue-wait and no submit/dequeue instants —
   but task latency, coordinator busy time, coordinator GC deltas and
   the [pool.task] trace spans are still worth having. *)
let seq_accounted t f =
  match (t.metrics, t.trace) with
  | None, None -> f
  | m, trc ->
      fun i x ->
        let tr =
          match trc with
          | None -> None
          | Some c -> Some (c, Atomic.fetch_and_add t.job_seq 1)
        in
        accounted m tr (fun () -> f i x) ()

let map ?on_progress ?on_result t ~f items =
  let total = List.length items in
  if total = 0 then []
  else if t.jobs = 1 then
    run_seq ?on_progress ?on_result ~f:(seq_accounted t f) items total
  else begin
    let ctx =
      {
        total;
        results = Array.make total None;
        completed = 0;
        failed = None;
        completions = Queue.create ();
        next_ordered = 0;
        cmutex = Mutex.create ();
        cdone = Condition.create ();
      }
    in
    let thunks = List.mapi (fun i x -> job_thunk ctx f i x) items in
    run_parallel ?on_progress ?on_result t ctx thunks;
    Array.to_list (Array.map Option.get ctx.results)
  end

let init t ~n ~f =
  if n < 0 then invalid_arg "Pool.init: n < 0";
  if (t.jobs = 1 && t.metrics = None && t.trace = None) || n <= 1 then
    Array.init n f
  else if t.jobs = 1 then
    (* metrics/tracing on: run the same in-order loop through [map] so
       trial batches are task-accounted; values are identical either way *)
    Array.init n (fun i -> i)
    |> Array.to_list
    |> map t ~f:(fun _ i -> f i)
    |> Array.of_list
  else begin
    (* Individual items (trials) can be microseconds long, so batch them
       into contiguous chunks — a few per worker for load balance — and
       fan the chunks out. Chunk boundaries depend only on (n, jobs) and
       each chunk runs its items in ascending index order, so the
       assembled array is identical to the sequential one. *)
    let chunks = min n (t.jobs * 8) in
    let bounds =
      List.init chunks (fun c -> (c * n / chunks, (c + 1) * n / chunks))
    in
    let pieces =
      map t
        ~f:(fun _ (lo, hi) -> Array.init (hi - lo) (fun i -> f (lo + i)))
        bounds
    in
    Array.concat pieces
  end

let map_reduce t ~map:f ~reduce ~init items =
  List.fold_left reduce init (map t ~f items)

let recommended_jobs ?(cap = 8) () =
  max 1 (min cap (Domain.recommended_domain_count ()))

(* --- observability snapshots --- *)

let stats t =
  match t.metrics with
  | None -> None
  | Some m ->
      Mutex.lock t.mutex;
      let queue_depth = Queue.length t.queue in
      Mutex.unlock t.mutex;
      let wall_ns = max 1 (Obs.Clock.now_ns () - m.m_attached_ns) in
      Some
        {
          stat_jobs = t.jobs;
          queue_depth;
          tasks_run =
            Array.fold_left
              (fun acc row -> acc + Obs.Metric.Counter.value row.wr_jobs)
              0 m.m_rows;
          wall_ns;
          busy_fraction =
            Array.map
              (fun row ->
                float_of_int (Obs.Metric.Counter.value row.wr_busy_ns)
                /. float_of_int wall_ns)
              m.m_rows;
        }

let publish_stats t =
  match (t.metrics, stats t) with
  | Some m, Some s ->
      let gauge name v =
        Obs.Metric.Gauge.set (Obs.Registry.gauge m.m_registry name) v
      in
      gauge "pool.queue_depth" (float_of_int s.queue_depth);
      gauge "pool.wall_s" (Obs.Clock.ns_to_s s.wall_ns);
      Array.iteri
        (fun i row ->
          gauge (row.wr_name ^ ".busy_fraction") s.busy_fraction.(i))
        m.m_rows
  | _ -> ()

(* --- ambient pool --- *)

let ambient_lock = Mutex.create ()
let ambient_size = ref 1
let ambient_sink = ref Obs.Sink.null
let ambient_trace = ref Obs.Tracer.null
let ambient_pool : t option ref = ref None

let set_ambient_jobs n =
  (* validated before the live pool is touched, so a bad size leaves
     the ambient state as it was *)
  (match check_jobs n with
  | Ok () -> ()
  | Error msg -> invalid_arg ("Pool.set_ambient_jobs: jobs " ^ msg));
  Mutex.lock ambient_lock;
  (match !ambient_pool with
  | Some p when p.jobs <> n ->
      shutdown p;
      ambient_pool := None
  | _ -> ());
  ambient_size := n;
  Mutex.unlock ambient_lock

let ambient_jobs () =
  Mutex.lock ambient_lock;
  let n = !ambient_size in
  Mutex.unlock ambient_lock;
  n

let set_ambient_metrics sink =
  Mutex.lock ambient_lock;
  ambient_sink := sink;
  (match !ambient_pool with Some p -> set_metrics p sink | None -> ());
  Mutex.unlock ambient_lock

let set_ambient_tracer tracer =
  Mutex.lock ambient_lock;
  ambient_trace := tracer;
  (match !ambient_pool with Some p -> set_tracer p tracer | None -> ());
  Mutex.unlock ambient_lock

let ambient () =
  Mutex.lock ambient_lock;
  let p =
    match !ambient_pool with
    | Some p -> p
    | None ->
        let p = create ~jobs:!ambient_size in
        set_metrics p !ambient_sink;
        set_tracer p !ambient_trace;
        ambient_pool := Some p;
        p
  in
  Mutex.unlock ambient_lock;
  p
