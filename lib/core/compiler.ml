open Qturbo_aais
include Compile_plan

let analyze ?t_max ~aais ~target ~t_tar () =
  let plan, _ = obtain ~options:default_options ~aais ~target in
  diagnose ?t_max ~aais ~plan ~t_tar target

let compile_batch ?(options = default_options) ?(strict = true) ?t_max
    ?(batch_domains = 1) ~aais jobs =
  (* plans are memoized per target shape — through the process-wide
     cache when it is enabled, through a batch-local table otherwise (a
     disabled cache must still not rebuild the front-end for jobs of
     equal shape, that is the whole point of batching) *)
  let local : (string, t) Hashtbl.t = Hashtbl.create 8 in
  (* Phase 1 — validate and acquire plans sequentially in job order.
     All cache mutation (and therefore all hit/miss/discard accounting)
     happens here, so the counters each job samples are independent of
     the phase-2 schedule and a batch never double-builds a shape
     concurrently with itself. *)
  let prepared =
    List.map
      (fun (target, t_tar) ->
        validate_target ~aais ~target ~t_tar;
        let plan, provenance =
          if options.plan_cache then obtain ~options ~aais ~target
          else begin
            let support = support_of_target target in
            let key = Shape.of_support support in
            match Hashtbl.find_opt local key with
            | Some p -> (p, Cached)
            | None ->
                let p = build ~options ~aais ~target_shape:support () in
                Hashtbl.add local key p;
                (p, Built)
          end
        in
        (target, t_tar, plan, provenance))
      jobs
  in
  (* Phase 2 — numeric back-ends over the shared plans on the work
     pool.  Results are collected by index and a failing job surfaces
     the smallest-index exception, so batch output is bitwise-identical
     to the sequential loop at any [batch_domains] (each job's inner
     parallel sections detect the worker context and run
     sequentially). *)
  Qturbo_par.Pool.parallel_map_list ~domains:batch_domains ~chunk:1
    (fun (target, t_tar, plan, provenance) ->
      solve ~options ~strict ?t_max ~provenance ~plan ~coeffs:target ~t_tar ())
    prepared
