type schedule = Chunk | Self

let schedule_to_string = function Chunk -> "chunk" | Self -> "self"

let schedule_names =
  [ ("chunk", Chunk); ("block", Chunk); ("self", Self); ("dynamic", Self) ]

type job = {
  trip : int;
  sched : schedule;
  label : string option;         (* caller's name for the loop (spans) *)
  body : worker:int -> int -> unit;
  next : int Atomic.t;           (* self-scheduling cursor *)
  mutable cancelled : bool;      (* set on first exception *)
  mutable remaining : int;       (* workers still running this job *)
  mutable exn : exn option;
  mutable exn_bt : Printexc.raw_backtrace option;
}

type t = {
  n : int;
  m : Mutex.t;
  work_ready : Condition.t;
  work_done : Condition.t;
  sink : Telemetry.sink;
  mutable job : job option;
  mutable generation : int;
  mutable stopping : bool;
  mutable domains : unit Domain.t list;
}

let size t = t.n

(* The share of worker [w]: contiguous block under [Chunk], atomic
   next-iteration claims under [Self].  Both claim indices in
   increasing order within a worker, which the runtime relies on for
   last-value write-back. *)
let dispatch t (job : job) w =
  let tel = t.sink in
  let iters = ref 0 in
  let t0 = if Telemetry.metrics_on tel then Telemetry.now_ns () else 0L in
  (* runs on the worker's own domain, so the span lands in that
     domain's lane of the trace *)
  Telemetry.span tel
    (match job.sched with Chunk -> "pool.chunk" | Self -> "pool.self")
    ~args:
      (("worker", string_of_int w)
      :: (match job.label with None -> [] | Some l -> [ ("label", l) ]))
    (fun () ->
      match job.sched with
      | Chunk ->
        let chunk = (job.trip + t.n - 1) / t.n in
        let lo = w * chunk and hi = min job.trip ((w + 1) * chunk) in
        let k = ref lo in
        while !k < hi && not job.cancelled do
          job.body ~worker:w !k;
          incr k;
          incr iters
        done
      | Self ->
        let continue_ = ref true in
        while !continue_ && not job.cancelled do
          let k = Atomic.fetch_and_add job.next 1 in
          if k >= job.trip then continue_ := false
          else begin
            job.body ~worker:w k;
            incr iters
          end
        done);
  if Telemetry.metrics_on tel then begin
    Telemetry.add
      (Telemetry.counter tel "pool.busy_ns")
      (Int64.to_int (Int64.sub (Telemetry.now_ns ()) t0));
    Telemetry.add (Telemetry.counter tel "pool.iterations") !iters;
    Telemetry.observe (Telemetry.histogram tel "pool.iters_per_worker") !iters
  end

let worker_loop t w () =
  let seen = ref 0 in
  let running = ref true in
  while !running do
    Mutex.lock t.m;
    while t.generation = !seen && not t.stopping do
      Condition.wait t.work_ready t.m
    done;
    if t.stopping then begin
      Mutex.unlock t.m;
      running := false
    end
    else begin
      seen := t.generation;
      let job = Option.get t.job in
      Mutex.unlock t.m;
      (try dispatch t job w
       with e ->
         let bt = Printexc.get_raw_backtrace () in
         Mutex.lock t.m;
         if job.exn = None then begin
           job.exn <- Some e;
           job.exn_bt <- Some bt
         end;
         job.cancelled <- true;
         Mutex.unlock t.m);
      Mutex.lock t.m;
      job.remaining <- job.remaining - 1;
      if job.remaining = 0 then Condition.broadcast t.work_done;
      Mutex.unlock t.m
    end
  done

let create ?telemetry n =
  let n = max 1 n in
  let sink =
    match telemetry with Some s -> s | None -> Telemetry.default ()
  in
  let t =
    {
      n;
      m = Mutex.create ();
      work_ready = Condition.create ();
      work_done = Condition.create ();
      sink;
      job = None;
      generation = 0;
      stopping = false;
      domains = [];
    }
  in
  t.domains <- List.init n (fun w -> Domain.spawn (worker_loop t w));
  t

(* A busy pool runs a new submission inline on the calling domain, as
   worker 0 in index order: a task that submits to its own pool, or
   two workers of one pool submitting to another, would otherwise
   wait on workers that never come.  The busy check and the claim of
   [t.job] share one hold of the mutex. *)
let parallel_for ?label t ~schedule ~trip ~body =
  if trip > 0 then begin
    let job =
      {
        trip;
        sched = schedule;
        label;
        body;
        next = Atomic.make 0;
        cancelled = false;
        remaining = t.n;
        exn = None;
        exn_bt = None;
      }
    in
    Mutex.lock t.m;
    let busy = t.job <> None in
    if not busy then t.job <- Some job;
    Mutex.unlock t.m;
    if busy then
      for k = 0 to trip - 1 do
        body ~worker:0 k
      done
    else begin
      Telemetry.incr (Telemetry.counter t.sink "pool.jobs");
      Telemetry.span t.sink "pool.run"
        ~args:
          ([ ("trip", string_of_int trip);
             ("sched", schedule_to_string schedule) ]
          @ match label with None -> [] | Some l -> [ ("label", l) ])
      @@ fun () ->
      Mutex.lock t.m;
      t.generation <- t.generation + 1;
      Condition.broadcast t.work_ready;
      while job.remaining > 0 do
        Condition.wait t.work_done t.m
      done;
      t.job <- None;
      Mutex.unlock t.m;
      match (job.exn, job.exn_bt) with
      | Some e, Some bt -> Printexc.raise_with_backtrace e bt
      | Some e, None -> raise e
      | None, _ -> ()
    end
  end

(* Task submission, layered over the same job machinery: each task is
   one iteration of a [Self]-scheduled parallel for (tasks are
   irregular by nature), results land in per-index slots.  The writes
   are unsynchronized but race-free — distinct tasks own distinct
   slots — and the job-completion handshake (mutex + condition in
   [parallel_for]) publishes them to the caller. *)
let map t ?(schedule = Self) (tasks : (unit -> 'a) array) : 'a array =
  let n = Array.length tasks in
  if n = 0 then [||]
  else begin
    let results = Array.make n None in
    parallel_for t ~schedule ~trip:n ~body:(fun ~worker:_ k ->
        results.(k) <- Some (tasks.(k) ()));
    Array.map
      (function
        | Some v -> v
        | None -> failwith "Pool.map: task cancelled by a sibling's exception")
      results
  end

(* The analyzer's injected fan-out: Ddg cannot see this library (we
   depend on it), so the pool side builds the runner record. *)
let analysis_runner t =
  { Dependence.Ddg.run_tasks = (fun tasks -> map t tasks) }

let shutdown t =
  Mutex.lock t.m;
  t.stopping <- true;
  Condition.broadcast t.work_ready;
  Mutex.unlock t.m;
  List.iter Domain.join t.domains;
  t.domains <- []

let with_pool ?telemetry n f =
  let t = create ?telemetry n in
  Fun.protect ~finally:(fun () -> shutdown t) (fun () -> f t)
