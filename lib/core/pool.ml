module Obs = Socy_obs.Obs
module Trace = Socy_obs.Trace
module Json = Socy_obs.Json
module Ctx = Socy_obs.Ctx

type 'a outcome = Done of 'a | Failed of exn | Cancelled

let default_domains () = Domain.recommended_domain_count ()

(* The one work-distribution loop: every participant claims the next
   unclaimed index with a fetch-and-add until [n] is reached, so load
   balances at job granularity without a queue. Returns how many indices
   this participant ran. *)
let claim next n f =
  let did = ref 0 in
  let rec loop () =
    let i = Atomic.fetch_and_add next 1 in
    if i < n then begin
      f i;
      incr did;
      loop ()
    end
  in
  loop ();
  !did

(* ------------------------------------------------------------------ *)
(* Persistent executor                                                 *)
(* ------------------------------------------------------------------ *)

module Executor = struct
  type t = {
    mutex : Mutex.t;
    nonempty : Condition.t;
    tasks : (unit -> unit) Queue.t;
    mutable closed : bool;
    mutable live : int;  (* submitted through [run], not yet completed *)
    mutable workers : unit Domain.t array;
    n_domains : int;
  }

  let tasks_counter = Obs.counter "executor.tasks"

  let create ?domains () =
    let n =
      match domains with
      | Some d when d < 1 -> invalid_arg "Executor.create: domains < 1"
      | Some d -> d
      | None -> max 1 (default_domains () - 1)
    in
    let t =
      {
        mutex = Mutex.create ();
        nonempty = Condition.create ();
        tasks = Queue.create ();
        closed = false;
        live = 0;
        workers = [||];
        n_domains = n;
      }
    in
    let worker k () =
      Trace.with_span
        (Printf.sprintf "executor.worker-%d" k)
        (fun () ->
          let rec loop () =
            Mutex.lock t.mutex;
            let rec take () =
              match Queue.take_opt t.tasks with
              | Some task -> Some task
              | None ->
                  if t.closed then None
                  else begin
                    Condition.wait t.nonempty t.mutex;
                    take ()
                  end
            in
            let task = take () in
            Mutex.unlock t.mutex;
            match task with
            | None -> ()
            | Some f ->
                f ();
                loop ()
          in
          loop ())
    in
    t.workers <- Array.init n (fun k -> Domain.spawn (worker k));
    t

  let domains t = t.n_domains

  let in_flight t =
    Mutex.lock t.mutex;
    let n = t.live in
    Mutex.unlock t.mutex;
    n

  (* Enqueue a thunk that must not raise. Only [run] submissions are
     [counted] into [live]: a [parallel_tasks] helper is part of its
     caller's work, not a request of its own. *)
  let push t ~counted task =
    Mutex.lock t.mutex;
    if t.closed then begin
      Mutex.unlock t.mutex;
      invalid_arg "Executor.run: executor is shut down"
    end;
    if counted then t.live <- t.live + 1;
    Queue.push task t.tasks;
    Condition.signal t.nonempty;
    Mutex.unlock t.mutex

  let run t f =
    (* Each submission carries its own result cell; the worker fills it
       and signals, the caller sleeps on it. Exceptions travel in the
       cell, so a raising thunk surfaces in its caller, not the worker.
       The submitter's ambient request context is captured here and
       re-installed around the body, so spans and log records emitted on
       the worker domain stay attributed to the submitting request. *)
    let ctx = Ctx.get () in
    let cell_mutex = Mutex.create () in
    let cell_done = Condition.create () in
    let result = ref None in
    let task () =
      let r = (try Ok (Ctx.with_restored ctx f) with e -> Error e) in
      Mutex.lock t.mutex;
      t.live <- t.live - 1;
      Mutex.unlock t.mutex;
      Mutex.lock cell_mutex;
      result := Some r;
      Condition.signal cell_done;
      Mutex.unlock cell_mutex
    in
    push t ~counted:true task;
    Obs.incr tasks_counter;
    Mutex.lock cell_mutex;
    while Option.is_none !result do
      Condition.wait cell_done cell_mutex
    done;
    Mutex.unlock cell_mutex;
    match !result with
    | Some (Ok v) -> v
    | Some (Error e) -> raise e
    | None -> assert false

  let parallel_tasks t tasks =
    let n = Array.length tasks in
    if n > 0 then begin
      (* Shared claim counter + caller participation: the caller drains
         the counter itself, so every task completes even when all worker
         domains are busy with other submissions — the helper drainers
         then find the counter spent and no-op. This is what lets
         [socyield serve] run intra-problem teams on its request executor
         without risking a saturation deadlock. *)
      let next = Atomic.make 0 in
      let cell_mutex = Mutex.create () in
      let cell_done = Condition.create () in
      let completed = ref 0 in
      let failure = ref None in
      let drain () =
        let did =
          claim next n (fun i ->
              (* First task exception wins; the peers keep draining. *)
              try tasks.(i) ()
              with e ->
                Mutex.lock cell_mutex;
                if !failure = None then failure := Some e;
                Mutex.unlock cell_mutex)
        in
        if did > 0 then begin
          Mutex.lock cell_mutex;
          completed := !completed + did;
          if !completed = n then Condition.broadcast cell_done;
          Mutex.unlock cell_mutex
        end
      in
      (* Helper drainers run on worker domains, which carry no request
         context between jobs; re-install the caller's around the whole
         drain so intra-problem spans (parallel APPLY, layer conversion)
         carry the request id. Requestless runs (the CLI) skip the wrap. *)
      let helper =
        match Ctx.get () with
        | None -> drain
        | ctx -> fun () -> Ctx.with_restored ctx drain
      in
      (* A concurrent shutdown between submissions is not an error for the
         caller: it drains everything itself either way. *)
      (try
         for _ = 1 to min t.n_domains (n - 1) do
           push t ~counted:false helper
         done
       with Invalid_argument _ -> ());
      drain ();
      Mutex.lock cell_mutex;
      while !completed < n do
        Condition.wait cell_done cell_mutex
      done;
      Mutex.unlock cell_mutex;
      match !failure with Some e -> raise e | None -> ()
    end

  let shutdown t =
    Mutex.lock t.mutex;
    let first = not t.closed in
    t.closed <- true;
    Condition.broadcast t.nonempty;
    Mutex.unlock t.mutex;
    if first then Array.iter Domain.join t.workers
end

(* ------------------------------------------------------------------ *)
(* One-shot batches                                                    *)
(* ------------------------------------------------------------------ *)

let jobs_counter = Obs.counter "batch.jobs"
let domains_gauge = Obs.gauge "batch.domains"
let speedup_gauge = Obs.gauge "batch.speedup"

let parallel_map ?domains ?wall_budget ?on_done f xs =
  let n = Array.length xs in
  if n = 0 then [||]
  else begin
    let workers =
      let requested =
        match domains with Some d -> max 1 d | None -> default_domains ()
      in
      min requested n
    in
    let deadline =
      match wall_budget with
      | None -> infinity
      | Some s -> Obs.now () +. s
    in
    let t0 = Obs.now () in
    (* Slot [i] belongs to exactly one worker (the one that claimed [i]),
       so plain array writes race with nothing; the final Domain.join
       publishes them to the submitter. *)
    let results = Array.make n Cancelled in
    (* Per-worker seconds spent running jobs; the speedup gauge is
       Σ busy / wall. Each worker owns its own slot. *)
    let busy = Array.make workers 0.0 in
    let run_one w i =
      let s0 = Obs.now () in
      (if s0 > deadline then
         Trace.instant "batch.cancelled" ~args:[ ("index", Json.Int i) ]
       else
         Trace.with_span "batch.job"
           ~args:[ ("index", Json.Int i) ]
           (fun () ->
             match f xs.(i) with
             | y -> results.(i) <- Done y
             | exception e -> results.(i) <- Failed e));
      busy.(w) <- busy.(w) +. (Obs.now () -. s0);
      match on_done with None -> () | Some g -> g i results.(i)
    in
    let next = Atomic.make 0 in
    (* [Trace.with_span] = timeline event pair on this worker's domain
       row + the batch/batch.worker-k Obs aggregate. *)
    let worker w () =
      Trace.with_span
        (Printf.sprintf "batch.worker-%d" w)
        (fun () -> ignore (claim next n (run_one w)))
    in
    let spawned =
      Array.init (workers - 1) (fun k -> Domain.spawn (worker (k + 1)))
    in
    worker 0 ();
    Array.iter Domain.join spawned;
    let wall = Obs.now () -. t0 in
    Obs.add jobs_counter n;
    Obs.set domains_gauge (float_of_int workers);
    if wall > 0.0 then
      Obs.set speedup_gauge (Array.fold_left ( +. ) 0.0 busy /. wall);
    results
  end
