let domain_count () =
  match Sys.getenv_opt "SLC_DOMAINS" with
  | Some s -> (
    match int_of_string_opt s with
    | Some n when n >= 1 -> n
    | _ -> 1)
  | None -> min 8 (Domain.recommended_domain_count ())

(* Domains beyond the hardware's parallelism never help and actively
   hurt: every minor collection is a stop-the-world handshake across
   all live domains, so even IDLE pool workers tax every allocation in
   the process (measured 4-25x on single-core hosts).  Default-width
   maps therefore clamp to this; an explicit [~domains] argument is
   taken verbatim as a deliberate oversubscription (tests use it to
   exercise the real pool machinery regardless of the host). *)
let hardware_parallelism () = Domain.recommended_domain_count ()

let default_width () = min (domain_count ()) (hardware_parallelism ())

exception Failures of exn * exn list

(* True while the current domain is executing pool tasks (or inside
   [sequential]).  Any map issued in that state runs inline: work items
   must never re-enter the pool, both to avoid deadlocking the fixed
   worker set and to keep nested maps deterministic. *)
let in_task_key = Domain.DLS.new_key (fun () -> ref false)

let in_task () = !(Domain.DLS.get in_task_key)

let sequential f =
  let flag = Domain.DLS.get in_task_key in
  let saved = !flag in
  flag := true;
  Fun.protect ~finally:(fun () -> flag := saved) f

(* A slot is domain-local, but a domain may run several systhreads (the
   server's connection threads all run on the main domain), so the
   domain's value is checked out, not merely read: a thread that finds
   it already out works on a fresh [init ()] instead of sharing it.
   [Atomic.exchange] makes the checkout indivisible with respect to
   thread switches.  The returned [Some] cell is the one taken, so a
   checkout allocates nothing beyond the caller's closure. *)
module Slot = struct
  type 'a t = { key : 'a option Atomic.t Domain.DLS.key; init : unit -> 'a }

  let make init =
    { key = Domain.DLS.new_key (fun () -> Atomic.make (Some (init ()))); init }

  let with_ s f =
    let cell = Domain.DLS.get s.key in
    match Atomic.exchange cell None with
    | None -> f (s.init ())
    | Some v as taken -> (
      match f v with
      | r ->
        Atomic.set cell taken;
        r
      | exception e ->
        let bt = Printexc.get_raw_backtrace () in
        Atomic.set cell taken;
        Printexc.raise_with_backtrace e bt)
end

module Pool = struct
  (* One batch of work submitted to the pool.  Participants (the
     submitting domain plus up to [limit - 1] workers) claim chunks of
     indices from [next]; every claimed item is executed by exactly one
     participant.  A failing item flags the job so no FURTHER chunks are
     claimed; already-claimed chunks run to completion, so every failure
     inside them is recorded with its item index and the submitter can
     aggregate multiple failures deterministically. *)
  type job = {
    run : int -> unit;
    n : int;
    chunk : int;
    limit : int;
    entered : int Atomic.t;   (* worker participation tickets *)
    next : int Atomic.t;      (* next unclaimed item index *)
    running : int Atomic.t;   (* participants inside the claim loop *)
    failed : bool Atomic.t;
    mutable failures : (int * exn) list; (* guarded by the pool mutex *)
  }

  type t = {
    m : Mutex.t;
    work : Condition.t;   (* workers sleep here between jobs *)
    donec : Condition.t;  (* the submitter sleeps here until running = 0 *)
    mutable epoch : int;
    mutable job : job option;
    mutable quit : bool;
    mutable workers : unit Domain.t array;
  }

  let size pool = Array.length pool.workers

  let participate pool j =
    Atomic.incr j.running;
    let flag = Domain.DLS.get in_task_key in
    let saved = !flag in
    flag := true;
    let rec claim () =
      if not (Atomic.get j.failed) then begin
        let lo = Atomic.fetch_and_add j.next j.chunk in
        if lo < j.n then begin
          Slc_obs.Telemetry.incr Slc_obs.Telemetry.pool_chunks;
          let hi = min j.n (lo + j.chunk) in
          for i = lo to hi - 1 do
            try j.run i
            with e ->
              Atomic.set j.failed true;
              Mutex.lock pool.m;
              j.failures <- (i, e) :: j.failures;
              Mutex.unlock pool.m
          done;
          claim ()
        end
      end
    in
    (* The claim loop records item exceptions rather than raising, but an
       asynchronous exception (Stack_overflow, Out_of_memory, a signal)
       escaping it would otherwise leave this domain's in-task flag stuck
       and its running ticket unreturned, wedging the submitter in
       [Condition.wait] forever. *)
    Fun.protect
      ~finally:(fun () ->
        flag := saved;
        Mutex.lock pool.m;
        let now = Atomic.fetch_and_add j.running (-1) - 1 in
        if now = 0 then Condition.broadcast pool.donec;
        Mutex.unlock pool.m)
      claim

  let worker pool () =
    let seen = ref 0 in
    let rec loop () =
      Mutex.lock pool.m;
      while (not pool.quit) && pool.epoch = !seen do
        Condition.wait pool.work pool.m
      done;
      if pool.quit then Mutex.unlock pool.m
      else begin
        seen := pool.epoch;
        let j = pool.job in
        Mutex.unlock pool.m;
        (match j with
        | Some j ->
          (* The submitter always participates, so workers take at most
             [limit - 1] tickets. *)
          if Atomic.fetch_and_add j.entered 1 < j.limit - 1 then
            participate pool j
        | None -> ());
        loop ()
      end
    in
    loop ()

  (* Process-wide pool, created on first parallel map.  Sized for
     max(domain_count, first requested width) - 1 workers: the
     submitting domain is always the extra participant. *)
  let[@slc.domain_safe "read/written only under the creation mutex"] the_pool =
    ref None

  let creation = Mutex.create ()

  let shutdown () =
    Mutex.lock creation;
    (match !the_pool with
    | None -> ()
    | Some pool ->
      Mutex.lock pool.m;
      pool.quit <- true;
      Condition.broadcast pool.work;
      Mutex.unlock pool.m;
      Array.iter Domain.join pool.workers;
      the_pool := None);
    Mutex.unlock creation

  let get ~want =
    Mutex.lock creation;
    let pool =
      match !the_pool with
      | Some pool -> pool
      | None ->
        let workers = max 0 (max (default_width ()) want - 1) in
        let pool =
          {
            m = Mutex.create ();
            work = Condition.create ();
            donec = Condition.create ();
            epoch = 0;
            job = None;
            quit = false;
            workers = [||];
          }
        in
        pool.workers <- Array.init workers (fun _ -> Domain.spawn (worker pool));
        the_pool := Some pool;
        at_exit shutdown;
        pool
    in
    Mutex.unlock creation;
    pool

  (* Submit [n] items and run them to completion (the caller works too).
     Returns the failures, each tagged with its item index.  Jobs are
     serialized: concurrent submitters queue on [creation]-independent
     [m]; in practice nested submissions run inline via [in_task]. *)
  let submit_mutex = Mutex.create ()

  let run pool ~limit ~chunk f n =
    Mutex.lock submit_mutex;
    let j =
      {
        run = f;
        n;
        chunk = max 1 chunk;
        limit = max 1 limit;
        entered = Atomic.make 0;
        next = Atomic.make 0;
        running = Atomic.make 0;
        failed = Atomic.make false;
        failures = [];
      }
    in
    Mutex.lock pool.m;
    pool.job <- Some j;
    pool.epoch <- pool.epoch + 1;
    Condition.broadcast pool.work;
    Mutex.unlock pool.m;
    participate pool j;
    Mutex.lock pool.m;
    while Atomic.get j.running > 0 do
      Condition.wait pool.donec pool.m
    done;
    pool.job <- None;
    Mutex.unlock pool.m;
    Mutex.unlock submit_mutex;
    j.failures
end

let raise_failures failures =
  match List.sort (fun (a, _) (b, _) -> compare a b) failures with
  | [] -> ()
  | [ (_, e) ] -> raise e
  | (_, primary) :: rest -> raise (Failures (primary, List.map snd rest))

let default_chunk ~n ~d = max 1 (n / (d * 8))

let map ?domains ?chunk f xs =
  let n = Array.length xs in
  let d = match domains with Some d -> max 1 d | None -> default_width () in
  if d <= 1 || n < 2 || in_task () then Array.map f xs
  else begin
    let pool = Pool.get ~want:d in
    if Pool.size pool = 0 then Array.map f xs
    else begin
      let results = Array.make n None in
      let chunk =
        match chunk with Some c -> c | None -> default_chunk ~n ~d
      in
      let failures =
        Pool.run pool ~limit:d ~chunk
          (fun i -> results.(i) <- Some (f xs.(i)))
          n
      in
      raise_failures failures;
      Array.map
        (function
          | Some v -> v
          | None -> invalid_arg "Parallel.map: missing result")
        results
    end
  end

let try_map ?domains ?chunk f xs =
  (* Per-item failure capture: unlike {!map}, one failing item does not
     flag the job (the wrapped closure never raises), so every item is
     attempted and the caller decides what survives.  This is the
     primitive the statistical layer's graceful degradation builds on. *)
  map ?domains ?chunk (fun x -> match f x with v -> Ok v | exception e -> Error e) xs

let mapi ?domains ?chunk f xs =
  let idx = Array.init (Array.length xs) Fun.id in
  map ?domains ?chunk (fun i -> f i xs.(i)) idx

let map_list ?domains f xs = Array.to_list (map ?domains f (Array.of_list xs))

let shutdown = Pool.shutdown
