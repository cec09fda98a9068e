type stats = {
  hits : int;
  misses : int;
  evictions : int;
  discarded : int;
  size : int;
  capacity : int;
}

type key_stats = {
  key_hits : int;
  key_misses : int;
  key_evictions : int;
  key_discarded : int;
}

let zero_key_stats =
  {
    key_hits = 0;
    key_misses = 0;
    key_evictions = 0;
    key_discarded = 0;
  }

type 'a entry = { value : 'a; mutable last_used : int }

(* Mutable per-key counter cell.  Cells survive eviction of their entry
   (telemetry is about keys, not resident values) and are only dropped
   by [clear]; the population is bounded by the number of distinct
   structural shapes a process compiles, which is tiny. *)
type kcell = {
  mutable k_hits : int;
  mutable k_misses : int;
  mutable k_evictions : int;
  mutable k_discarded : int;
}

type 'a t = {
  capacity : int;
  tbl : (string, 'a entry) Hashtbl.t;
  keys : (string, kcell) Hashtbl.t;
  lock : Mutex.t;
  mutable tick : int;
  mutable hits : int;
  mutable misses : int;
  mutable evictions : int;
  mutable discarded : int;
}

(* Every cache ever created, so [clear_all] reaches caches owned by
   libraries above this one (the service's instance cache) without a
   second clear entry point. *)
type any = Any : 'a t -> any

let registry : any list ref = ref []
let registry_lock = Mutex.create ()

let create ~capacity =
  if capacity < 1 then invalid_arg "Plan_cache.create: capacity < 1";
  let t =
    {
      capacity;
      tbl = Hashtbl.create (2 * capacity);
      keys = Hashtbl.create (4 * capacity);
      lock = Mutex.create ();
      tick = 0;
      hits = 0;
      misses = 0;
      evictions = 0;
      discarded = 0;
    }
  in
  Mutex.protect registry_lock (fun () -> registry := Any t :: !registry);
  t

let locked t f =
  Mutex.lock t.lock;
  Fun.protect ~finally:(fun () -> Mutex.unlock t.lock) f

(* call under the lock *)
let kcell t key =
  match Hashtbl.find_opt t.keys key with
  | Some c -> c
  | None ->
      let c =
        {
          k_hits = 0;
          k_misses = 0;
          k_evictions = 0;
          k_discarded = 0;
        }
      in
      Hashtbl.add t.keys key c;
      c

let find ?(accept = fun _ -> true) t key =
  locked t (fun () ->
      match Hashtbl.find_opt t.tbl key with
      | Some e when accept e.value ->
          t.tick <- t.tick + 1;
          e.last_used <- t.tick;
          t.hits <- t.hits + 1;
          let c = kcell t key in
          c.k_hits <- c.k_hits + 1;
          Some e.value
      | Some _ | None ->
          t.misses <- t.misses + 1;
          let c = kcell t key in
          c.k_misses <- c.k_misses + 1;
          None)

(* Evict the least-recently-used entry.  Capacities are small (tens),
   so a linear scan beats maintaining an intrusive list. *)
let evict_lru t =
  let victim = ref None in
  Hashtbl.iter
    (fun key e ->
      match !victim with
      | Some (_, age) when age <= e.last_used -> ()
      | _ -> victim := Some (key, e.last_used))
    t.tbl;
  match !victim with
  | Some (key, _) ->
      Hashtbl.remove t.tbl key;
      t.evictions <- t.evictions + 1;
      let c = kcell t key in
      c.k_evictions <- c.k_evictions + 1
  | None -> ()

let add ?(accept = fun _ -> true) t key value =
  locked t (fun () ->
      t.tick <- t.tick + 1;
      match Hashtbl.find_opt t.tbl key with
      | Some e when accept e.value ->
          (* plans for equal keys are interchangeable; keep the resident
             one (it may already be shared) and just refresh its age.
             The fresh build is dropped — count it, so the telemetry
             reports the duplicated front-end work honestly instead of
             silently under-reporting it (concurrent double-builds land
             here). *)
          e.last_used <- t.tick;
          t.discarded <- t.discarded + 1;
          let c = kcell t key in
          c.k_discarded <- c.k_discarded + 1
      | Some _ ->
          (* a resident the caller does not accept is not the same
             structure (its key merely collides with this one): the
             fresh value takes its slot *)
          t.evictions <- t.evictions + 1;
          let c = kcell t key in
          c.k_evictions <- c.k_evictions + 1;
          Hashtbl.replace t.tbl key { value; last_used = t.tick }
      | None ->
          if Hashtbl.length t.tbl >= t.capacity then evict_lru t;
          Hashtbl.add t.tbl key { value; last_used = t.tick })

let clear t =
  locked t (fun () ->
      Hashtbl.reset t.tbl;
      Hashtbl.reset t.keys;
      t.tick <- 0;
      t.hits <- 0;
      t.misses <- 0;
      t.evictions <- 0;
      t.discarded <- 0)

let clear_all () =
  let caches = Mutex.protect registry_lock (fun () -> !registry) in
  List.iter (fun (Any t) -> clear t) caches

let stats t =
  locked t (fun () ->
      {
        hits = t.hits;
        misses = t.misses;
        evictions = t.evictions;
        discarded = t.discarded;
        size = Hashtbl.length t.tbl;
        capacity = t.capacity;
      })

let key_stats_of_cell (c : kcell) =
  {
    key_hits = c.k_hits;
    key_misses = c.k_misses;
    key_evictions = c.k_evictions;
    key_discarded = c.k_discarded;
  }

let key_stats t key =
  locked t (fun () ->
      match Hashtbl.find_opt t.keys key with
      | Some c -> key_stats_of_cell c
      | None -> zero_key_stats)

let per_key t =
  locked t (fun () ->
      Hashtbl.fold (fun key c acc -> (key, key_stats_of_cell c) :: acc) t.keys []
      |> List.sort (fun (a, _) (b, _) -> String.compare a b))
