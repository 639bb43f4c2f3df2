(** Parallel imperative solver: sharded bulk-synchronous propagation over
    OCaml 5 Domains (DESIGN.md S18).

    The sequential solver ({!Solver}) is a single worklist loop; this module
    re-runs the same fixpoint as a sequence of {e rounds}. Every pointer node
    is owned by exactly one of [jobs] shards — {!Solver.shard_of} hashes the
    owning method of the canonical representative, so intra-method copy
    chains (where most propagation happens) stay shard-local. A round is:

    + {b distribute} (sequential): drain the global coalescing worklist,
      routing each dirty representative to its owner's private queue;
    + {b propagate} (parallel): each domain drains its own queue — pop a
      pointer, merge its pending delta into its points-to set, flow the
      delta along the frozen successor edges. Same-shard destinations are
      pushed locally (with the usual subset guard against the owner's
      points-to table); cross-shard destinations are buffered into a
      per-(src,dst)-shard {e outbox} without reading any remote state;
    + {b exchange} (sequential, at the barrier): deliver outboxes through
      the ordinary {!Solver.wl_push}, replay statement watches and plugin
      notifications, then run lazy cycle detection on the candidates the
      workers recorded.

    Everything that mutates shared structure — interning, edge insertion,
    call-graph growth, union-find collapsing, CSC cut/shortcut installs and
    the pin API — runs sequentially between rounds, so the plugin observes
    exactly the sequential protocol. During the parallel phase the graph is
    frozen and workers write only to the [pts]/[pending] slots of pointers
    they own; the only shared reads are immutable-for-the-round tables plus
    {!Csc_common.Uf.find_ro} (no path halving). The pool barrier provides
    the happens-before edges, so there is not a single lock or atomic on the
    propagation hot path.

    Delivery orders are fixed (worker index, then first-push order), so a
    run is bit-deterministic for a given [jobs], and the fixpoint itself —
    points-to sets, reachability, call edges, relay classification — is
    identical for {e every} [jobs], including the sequential solver: the
    rounds compute the same monotone closure, only in a different order.

    Falls back to {!Solver.run} when [jobs <= 1] or when provenance
    recording is enabled (derivation order is inherently sequential); the
    driver surfaces that fallback to the user. On OCaml 4.x builds
    {!Csc_common.Domains_compat} runs every slice in the caller, so the same
    code compiles and agrees with the sequential result, just without
    speedup. *)

open Csc_common
module Ir = Csc_ir.Ir
module Registry = Csc_obs.Registry
module Trace = Csc_obs.Trace
module Attr = Csc_obs.Attr
module Pool = Domains_compat.Pool
module S = Solver

let log_src = Logs.Src.create "csc.par" ~doc:"parallel pointer analysis driver"

module Log = (val Logs.src_log log_src)

(* cross-shard delta buffer: per destination representative, in first-push
   order so barrier delivery is deterministic *)
type outbox = {
  ob_order : int Vec.t;
  ob_deltas : (int, Bits.t) Hashtbl.t;
}

type worker = {
  w_id : int;
  w_queue : int Queue.t;        (* this shard's coalescing worklist (FIFO) *)
  w_dirty : Bits.t;             (* members of [w_queue] *)
  mutable w_spare : Bits.t list;  (* recycled pending buffers, worker-private *)
  w_out : outbox array;         (* one per destination shard *)
  mutable w_notify : (int * Bits.t) list;  (* (rep, delta) for the barrier, reversed *)
  mutable w_lcd : (int * int) list;        (* LCD candidates (src, dst), reversed *)
  (* round-local counter cells, merged into the registry at the barrier *)
  mutable w_pops : int;
  mutable w_props : int;
  mutable w_pushes : int;
  mutable w_coalesced : int;
  w_attr : Attr.t option;       (* domain-private cost attribution *)
  mutable w_heap : int;         (* this domain's heap words, sampled per round *)
}

type t = {
  p_jobs : int;
  p_workers : worker array;
}

let make (t : S.t) ~jobs : t =
  let worker k =
    {
      w_id = k;
      w_queue = Queue.create ();
      w_dirty = Bits.create ();
      w_spare = [];
      w_out =
        Array.init jobs (fun _ ->
            { ob_order = Vec.create (-1); ob_deltas = Hashtbl.create 64 });
      w_notify = [];
      w_lcd = [];
      w_pops = 0;
      w_props = 0;
      w_pushes = 0;
      w_coalesced = 0;
      w_attr =
        (match t.S.attr with None -> None | Some _ -> Some (Attr.create ()));
      w_heap = 0;
    }
  in
  { p_jobs = jobs; p_workers = Array.init jobs worker }

(* worker-side twin of [S.shard_of]: canonicalizes through the read-only
   find so it is safe while the union-find is frozen mid-round *)
let shard_ro (t : S.t) ~jobs p : int =
  let key =
    match Interner.get t.S.ptrs (Uf.find_ro t.S.uf p) with
    | S.PVar (_, v) -> (Ir.var t.S.prog v).Ir.v_method
    | S.PField (o, _) | S.PArr o | S.PContent (o, _) ->
      (Ir.alloc t.S.prog (S.obj_alloc t o)).Ir.a_method
    | S.PStatic fld -> lnot fld
  in
  S.mix_int key mod jobs

(* route the global worklist to the owners' private queues. [collapse_class]
   scrubs absorbed members from [dirty] and re-pushes the representative, so
   every dirty entry here is canonical. *)
let distribute (par : t) (t : S.t) =
  while not (Queue.is_empty t.S.wl) do
    let p = Queue.pop t.S.wl in
    if Bits.mem t.S.dirty p then begin
      Bits.remove t.S.dirty p;
      let w = par.p_workers.(shard_ro t ~jobs:par.p_jobs p) in
      if not (Bits.mem w.w_dirty p) then begin
        ignore (Bits.add w.w_dirty p);
        Queue.push p w.w_queue
      end
    end
  done

(* owner-local push: the worker owns [dst]'s pts/pending slots, so the
   subset guard and the pending merge are ordinary sequential code *)
let local_push (t : S.t) w dst d =
  w.w_pushes <- w.w_pushes + 1;
  let slot = Vec.get t.S.pending dst in
  let slot =
    if slot != t.S.empty_pending then slot
    else begin
      let b =
        match w.w_spare with
        | b :: rest ->
          w.w_spare <- rest;
          b
        | [] -> Bits.create ~capacity:8 ()
      in
      Vec.set t.S.pending dst b;
      b
    end
  in
  Bits.union_quiet ~into:slot d;
  if Bits.mem w.w_dirty dst then w.w_coalesced <- w.w_coalesced + 1
  else begin
    ignore (Bits.add w.w_dirty dst);
    Queue.push dst w.w_queue
  end

let outbox_push w sh dst d =
  let ob = w.w_out.(sh) in
  match Hashtbl.find_opt ob.ob_deltas dst with
  | Some b -> Bits.union_quiet ~into:b d
  | None ->
    let b = Bits.create ~capacity:8 () in
    Bits.union_quiet ~into:b d;
    Hashtbl.add ob.ob_deltas dst b;
    Vec.push ob.ob_order dst

(* one worklist pop, worker-side. Reads: frozen succs/watches/pinned tables,
   owner's pts/pending, remote *nothing*. Writes: owner's pts/pending slots
   and worker-private state only. *)
let process_ptr (par : t) (t : S.t) w p =
  let objs = Vec.get t.S.pending p in
  if objs != t.S.empty_pending then begin
    Vec.set t.S.pending p t.S.empty_pending;
    let cur = Vec.get t.S.pts p in
    (match Bits.union_into ~into:cur objs with
    | None -> ()
    | Some delta ->
      let dn = Bits.cardinal delta in
      w.w_props <- w.w_props + dn;
      (match w.w_attr with
      | None -> ()
      | Some a -> Attr.observe_pop a ~meth:(S.meth_of_ptr t p) ~ptr:p ~delta:dn);
      List.iter
        (fun (e : S.edge) ->
          let dst = Uf.find_ro t.S.uf e.S.e_dst in
          if dst <> p then begin
            let d = S.filter_delta t e.S.e_filter delta in
            if not (Bits.is_empty d) then begin
              let sh = shard_ro t ~jobs:par.p_jobs dst in
              if sh = w.w_id then begin
                if Bits.subset d (Vec.get t.S.pts dst) then begin
                  (* fully redundant flow along a collapsible edge: record
                     the LCD trigger; the cycle walk runs at the barrier *)
                  if
                    t.S.collapse && S.collapsible e
                    && (not (Bits.mem t.S.pinned p))
                    && not (Bits.mem t.S.pinned dst)
                  then w.w_lcd <- (p, dst) :: w.w_lcd
                end
                else local_push t w dst d
              end
              else outbox_push w sh dst d
            end
          end)
        (Vec.get t.S.succs p);
      (* watches and plugin callbacks mutate the graph — defer to barrier *)
      if Vec.get t.S.watches p <> [] || t.S.plugin != S.no_plugin then
        w.w_notify <- (p, delta) :: w.w_notify);
    Bits.clear objs;
    w.w_spare <- objs :: w.w_spare
  end

let worker (par : t) (t : S.t) k =
  let w = par.p_workers.(k) in
  let n = ref 0 in
  while not (Queue.is_empty w.w_queue) do
    incr n;
    if !n land 1023 = 0 then Timer.check t.S.budget;
    let p = Queue.pop w.w_queue in
    Bits.remove w.w_dirty p;
    w.w_pops <- w.w_pops + 1;
    process_ptr par t w p
  done;
  w.w_heap <- (Gc.quick_stat ()).Gc.heap_words

(* sequential barrier epilogue; returns the pops this round (drives the
   periodic Tarjan sweep cadence). Every loop below runs in worker-index
   order over insertion-ordered buffers — fixed order, deterministic run. *)
let barrier (par : t) (t : S.t) : int =
  let pops = ref 0 in
  Array.iter
    (fun w ->
      pops := !pops + w.w_pops;
      if w.w_props > 0 then Registry.incr ~by:w.w_props t.S.c_prop;
      if w.w_pushes > 0 then Registry.incr ~by:w.w_pushes t.S.c_wl_pushes;
      if w.w_coalesced > 0 then
        Registry.incr ~by:w.w_coalesced t.S.c_wl_coalesced;
      w.w_pops <- 0;
      w.w_props <- 0;
      w.w_pushes <- 0;
      w.w_coalesced <- 0)
    par.p_workers;
  (* cross-shard deltas through the ordinary push (canon + subset guard),
     recycling the buffers into the solver's spare list *)
  Array.iter
    (fun w ->
      Array.iter
        (fun ob ->
          Vec.iter
            (fun dst ->
              let d = Hashtbl.find ob.ob_deltas dst in
              S.wl_push t dst d;
              Bits.clear d;
              t.S.spare <- d :: t.S.spare)
            ob.ob_order;
          Vec.clear ob.ob_order;
          Hashtbl.reset ob.ob_deltas)
        w.w_out)
    par.p_workers;
  Array.iter
    (fun w ->
      List.iter
        (fun (p, delta) ->
          List.iter
            (fun wch -> S.process_watch t wch delta)
            (Vec.get t.S.watches p);
          t.S.plugin.S.pl_on_new_pts p delta)
        (List.rev w.w_notify);
      w.w_notify <- [])
    par.p_workers;
  Array.iter
    (fun w ->
      List.iter (fun (src, dst) -> S.try_lcd t ~src ~dst) (List.rev w.w_lcd);
      w.w_lcd <- [])
    par.p_workers;
  !pops

let merge_attrs (par : t) (t : S.t) =
  match t.S.attr with
  | None -> ()
  | Some into ->
    Array.iter
      (fun w ->
        match w.w_attr with Some a -> Attr.merge ~into a | None -> ())
      par.p_workers

let run_rounds (t : S.t) (pool : Pool.t) : unit =
  let jobs = Pool.jobs pool in
  let par = make t ~jobs in
  (* [Gc.quick_stat] sees the calling domain only on OCaml 5; fold in the
     workers' last per-round samples so heap_words_peak stays process-wide *)
  t.S.extra_heap_words <-
    (fun () ->
      let s = ref 0 in
      for k = 1 to jobs - 1 do
        s := !s + par.p_workers.(k).w_heap
      done;
      !s);
  let t0 = Timer.now () in
  let entry_ctx = Interner.intern t.S.ctxs [] in
  let round = ref 0 in
  let pops_since_sweep = ref 0 in
  (try
     Timer.check t.S.budget;
     S.add_reachable t ~ctx:entry_ctx ~mid:t.S.prog.Ir.main;
     while (not (Queue.is_empty t.S.wl)) || t.S.pending_collapse <> [] do
       incr round;
       Timer.check t.S.budget;
       if t.S.progress_s > 0. then S.maybe_progress t ~t0 ~iter:!round;
       if !round land 7 = 0 then S.sample_heap t;
       (* cycles recorded at the previous barrier collapse here, before the
          graph re-freezes — mirrors the sequential between-pops slot *)
       if t.S.pending_collapse <> [] then begin
         let cs = t.S.pending_collapse in
         t.S.pending_collapse <- [];
         List.iter (S.collapse_class t) cs
       end;
       if t.S.collapse && !pops_since_sweep >= 65536 then begin
         pops_since_sweep := 0;
         S.scc_sweep t
       end;
       distribute par t;
       Pool.run pool (worker par t);
       pops_since_sweep := !pops_since_sweep + barrier par t
     done
   with Timer.Out_of_budget ->
     Registry.set t.S.g_time (Timer.now () -. t0);
     S.sample_heap t;
     merge_attrs par t;
     Log.info (fun m ->
         m "%s+%s@j%d: out of budget after %.1fs (%d rounds)"
           t.S.sel.Context.sel_name t.S.plugin.S.pl_name jobs
           (Registry.gauge_value t.S.g_time)
           !round);
     raise S.Timeout);
  merge_attrs par t;
  Registry.set t.S.g_time (Timer.now () -. t0);
  S.sample_heap t;
  Log.info (fun m ->
      m
        "%s+%s@j%d: done in %.3fs (%d rounds, %d methods, %d ptrs, %d props, %d cycles collapsed)"
        t.S.sel.Context.sel_name t.S.plugin.S.pl_name jobs
        (Registry.gauge_value t.S.g_time)
        !round
        (Bits.cardinal t.S.reached_methods)
        (Registry.value t.S.c_ptrs)
        (Registry.value t.S.c_prop)
        (Registry.value t.S.c_cycles))

(** [run ?jobs t] solves [t] to the same fixpoint as {!Solver.run} —
    identical points-to sets, reachability, call edges and plugin-visible
    protocol for every [jobs] value. [jobs <= 1] and provenance-recording
    solves take the sequential path directly. *)
let run ?(jobs = 1) (t : S.t) : unit =
  let jobs = max 1 jobs in
  if jobs <= 1 || t.S.prov <> None then S.run t
  else
    Trace.with_span ~cat:"solver"
      (Printf.sprintf "solve:%s+%s@j%d" t.S.sel.Context.sel_name
         t.S.plugin.S.pl_name jobs)
      (fun () -> Pool.with_pool ~jobs (fun pool -> run_rounds t pool))
