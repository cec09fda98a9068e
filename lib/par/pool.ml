(* Work pool over stdlib domains.

   One process-global pool, grown lazily: workers are spawned the first
   time a job actually asks for them, so `QTURBO_DOMAINS=1` (and every
   test that does not opt in) never creates a domain.  Jobs are index
   ranges; results are always collected by index on the caller side, so
   the output of a parallel run is bitwise-identical to the sequential
   loop — parallelism changes scheduling, never arithmetic. *)

let max_workers = 62

let default_domains () =
  match Sys.getenv_opt "QTURBO_DOMAINS" with
  | Some s -> (
      match int_of_string_opt (String.trim s) with
      | Some n when n >= 1 -> n
      | Some _ | None -> 1)
  | None -> Int.max 1 (Domain.recommended_domain_count () - 1)

(* true inside a pool task (worker or participating submitter); nested
   parallel calls run sequentially instead of deadlocking on the pool *)
let worker_flag = Domain.DLS.new_key (fun () -> ref false)
let in_worker () = !(Domain.DLS.get worker_flag)

type job = {
  run : int -> unit;
  total : int;
  chunk : int;
  mutable next : int; (* first unclaimed index *)
  mutable outstanding : int; (* claimed ranges still executing *)
  mutable failed : (int * exn) option; (* smallest failing index *)
}

let m = Mutex.create ()
let work = Condition.create ()
let finished = Condition.create ()
let jobs : job Queue.t = Queue.create ()
let shutdown = ref false
let workers : unit Domain.t list ref = ref []

(* Run [lo, hi); on an exception record it (keeping the smallest index,
   which matches what a sequential loop would have raised first — every
   smaller index was claimed, and therefore executed, before this one)
   and stop the whole job from claiming further ranges. *)
let exec_range job lo hi =
  let i = ref lo in
  let stop = ref false in
  while (not !stop) && !i < hi do
    (try job.run !i
     with e ->
       stop := true;
       Mutex.lock m;
       (match job.failed with
       | Some (j, _) when j < !i -> ()
       | _ -> job.failed <- Some (!i, e));
       job.next <- job.total;
       Mutex.unlock m);
    incr i
  done

(* under [m]: next job with unclaimed work, dropping drained heads *)
let rec find_job () =
  match Queue.peek_opt jobs with
  | Some j when j.next < j.total -> Some j
  | Some _ ->
      ignore (Queue.pop jobs);
      find_job ()
  | None -> None

let worker () =
  Domain.DLS.get worker_flag := true;
  Mutex.lock m;
  let running = ref true in
  while !running do
    match find_job () with
    | Some j ->
        let lo = j.next in
        let hi = Int.min j.total (lo + j.chunk) in
        j.next <- hi;
        j.outstanding <- j.outstanding + 1;
        Mutex.unlock m;
        exec_range j lo hi;
        Mutex.lock m;
        j.outstanding <- j.outstanding - 1;
        if j.next >= j.total && j.outstanding = 0 then
          Condition.broadcast finished
    | None ->
        if !shutdown then running := false else Condition.wait work m
  done;
  Mutex.unlock m

let stop_pool () =
  Mutex.lock m;
  shutdown := true;
  Condition.broadcast work;
  let ws = !workers in
  workers := [];
  Mutex.unlock m;
  List.iter Domain.join ws

let ensure_workers n =
  let n = Int.min n max_workers in
  let need () =
    Mutex.lock m;
    let missing = (not !shutdown) && List.length !workers < n in
    Mutex.unlock m;
    missing
  in
  while need () do
    Mutex.lock m;
    let first = !workers = [] in
    Mutex.unlock m;
    if first then at_exit stop_pool;
    let d = Domain.spawn worker in
    Mutex.lock m;
    workers := d :: !workers;
    Mutex.unlock m
  done

let parallel_for ?domains ?chunk ?guard ~total f =
  let domains = match domains with Some d -> d | None -> default_domains () in
  (* the guard runs before each index on whichever domain claimed it; a
     raising guard (deadline expiry, cancellation) is reported through
     the ordinary smallest-failing-index mechanism, so guarded parallel
     runs fail with the same exception a guarded sequential loop would *)
  let f = match guard with None -> f | Some g -> fun i -> g (); f i in
  if total <= 0 then ()
  else if domains <= 1 || total = 1 || in_worker () || !shutdown then
    for i = 0 to total - 1 do
      f i
    done
  else begin
    ensure_workers (domains - 1);
    let chunk =
      match chunk with
      | Some c -> Int.max 1 c
      | None -> Int.max 1 (total / (domains * 4))
    in
    let job = { run = f; total; chunk; next = 0; outstanding = 0; failed = None } in
    Mutex.lock m;
    Queue.push job jobs;
    Condition.broadcast work;
    let flag = Domain.DLS.get worker_flag in
    flag := true;
    while job.next < job.total do
      let lo = job.next in
      let hi = Int.min job.total (lo + job.chunk) in
      job.next <- hi;
      job.outstanding <- job.outstanding + 1;
      Mutex.unlock m;
      exec_range job lo hi;
      Mutex.lock m;
      job.outstanding <- job.outstanding - 1
    done;
    while job.outstanding > 0 do
      Condition.wait finished m
    done;
    flag := false;
    Mutex.unlock m;
    match job.failed with None -> () | Some (_, e) -> raise e
  end

let parallel_map ?domains ?chunk ?guard f arr =
  let n = Array.length arr in
  if n = 0 then [||]
  else begin
    let out = Array.make n None in
    parallel_for ?domains ?chunk ?guard ~total:n (fun i ->
        out.(i) <- Some (f arr.(i)));
    Array.map (function Some v -> v | None -> assert false) out
  end

let parallel_map_list ?domains ?chunk ?guard f l =
  Array.to_list (parallel_map ?domains ?chunk ?guard f (Array.of_list l))

let parallel_reduce ?domains ?chunk ?guard ~map ~fold ~init arr =
  Array.fold_left fold init (parallel_map ?domains ?chunk ?guard map arr)
