(* FastTrack-style dynamic race detector.

   Shadow state per tracked location:
     - the last write, as one epoch [(clock lsl tid_bits) lor tid];
     - the last reads, as an epoch while reads stay totally ordered, or a
       full read vector clock once two unordered reads have been seen
       (the "read-shared" state of the FastTrack paper).
   Per logical thread: a vector clock and the multiset of locks held.
   Per lock / atomic / fence: a vector clock carrying release edges.

   All bookkeeping runs under one global mutex ([guard]); correctness of
   the *detector* never depends on the scheduler.  The disabled fast path
   is a single [Atomic.get] branch per instrumentation point.

   Rather than registering every location so [enable] can reset it, each
   piece of shadow state is stamped with the generation counter of the
   [enable] call that last touched it and lazily reset when a newer
   generation first reaches it. *)

(* ------------------------------------------------------------------ *)
(* Epochs and vector clocks                                            *)

let tid_bits = 20 (* 2^20 logical threads per generation is plenty *)
let tid_mask = (1 lsl tid_bits) - 1
let epoch ~clock ~tid = (clock lsl tid_bits) lor tid
let epoch_tid e = e land tid_mask
let epoch_clock e = e lsr tid_bits

(* A vector clock is an int array indexed by logical-thread id; missing
   entries read as 0.  Clocks start at 1, so epoch 0 means "no access". *)

let vc_get vc t = if t < Array.length vc then Array.unsafe_get vc t else 0

let vc_grow vc n =
  if Array.length vc >= n then vc
  else begin
    let out = Array.make (max n (2 * Array.length vc)) 0 in
    Array.blit vc 0 out 0 (Array.length vc);
    out
  end

(* [dst |= src], mutating (a possibly grown copy of) [dst] in place.  The
   caller must own [dst] exclusively. *)
let vc_join dst src =
  let dst = vc_grow dst (Array.length src) in
  for i = 0 to Array.length src - 1 do
    if src.(i) > dst.(i) then dst.(i) <- src.(i)
  done;
  dst

let vc_copy vc = Array.copy vc

(* Does the access recorded as [e] happen before the thread whose clock is
   [vc]?  (The FastTrack "e <= C_t" test.) *)
let epoch_le e vc = epoch_clock e <= vc_get vc (epoch_tid e)

(* ------------------------------------------------------------------ *)
(* Global detector state                                               *)

type thread_state = {
  t_name : string;
  mutable t_vc : int array;
  mutable t_held : int list; (* ids of locks held, innermost first *)
}

let enabled_flag = Atomic.make false
let guard = Mutex.create ()
let generation = ref 0

let dummy_thread = { t_name = "?"; t_vc = [||]; t_held = [] }
let threads = ref (Array.make 0 dummy_thread)
let n_threads = ref 0
let fence_vc = ref [||]

type kind =
  | Write_write
  | Read_write
  | Write_read

type report = {
  location_name : string;
  kind : kind;
  first : string;
  second : string;
  lockset_saved : bool;
}

let report_acc = ref [] (* newest first *)
let report_seen : (string * kind, unit) Hashtbl.t = Hashtbl.create 64

(* The current logical thread of this domain.  Default 0 = main: a domain
   that was never given an identity via [with_thread] is attributed to
   the enabling thread, which is the right default for the caller-
   participates pool design. *)
let cur_tid : int Domain.DLS.key = Domain.DLS.new_key (fun () -> 0)

let enabled () = Atomic.get enabled_flag

(* All helpers below assume [guard] is held. *)

let current_state () =
  let tid = Domain.DLS.get cur_tid in
  let tid = if tid < !n_threads then tid else 0 in
  (tid, (!threads).(tid))

let thread_name tid =
  if tid < !n_threads then (!threads).(tid).t_name
  else Printf.sprintf "thread-%d" tid

let add_thread name vc =
  let tid = !n_threads in
  if tid >= Array.length !threads then begin
    let grown = Array.make (max 8 (2 * Array.length !threads)) dummy_thread in
    Array.blit !threads 0 grown 0 !n_threads;
    threads := grown
  end;
  (!threads).(tid) <- { t_name = name; t_vc = vc; t_held = [] };
  incr n_threads;
  tid

let bump_own_clock tid st =
  st.t_vc <- vc_grow st.t_vc (tid + 1);
  st.t_vc.(tid) <- st.t_vc.(tid) + 1

(* ------------------------------------------------------------------ *)
(* Enable / disable                                                    *)

let enable () =
  Mutex.lock guard;
  incr generation;
  Hashtbl.reset report_seen;
  report_acc := [];
  threads := Array.make 8 dummy_thread;
  n_threads := 0;
  let vc = Array.make 1 1 in
  ignore (add_thread "main" vc);
  fence_vc := [||];
  Domain.DLS.set cur_tid 0;
  Atomic.set enabled_flag true;
  Mutex.unlock guard

let disable () = Atomic.set enabled_flag false

(* ------------------------------------------------------------------ *)
(* Threads                                                             *)

type thread = {
  h_tid : int;
  h_gen : int;
}

let dummy_handle = { h_tid = -1; h_gen = -1 }

let live h = h.h_tid >= 0 && h.h_gen = !generation

let fork ?(name = "task") () =
  if not (enabled ()) then dummy_handle
  else begin
    Mutex.lock guard;
    let ptid, parent = current_state () in
    let child_tid = !n_threads in
    let child_vc = vc_grow (vc_copy parent.t_vc) (child_tid + 1) in
    child_vc.(child_tid) <- 1;
    let tid =
      add_thread (Printf.sprintf "%s#%d" name child_tid) child_vc
    in
    assert (tid = child_tid);
    (* The parent's next actions must not look ordered with the child's. *)
    bump_own_clock ptid parent;
    Mutex.unlock guard;
    { h_tid = child_tid; h_gen = !generation }
  end

let join h =
  if enabled () then begin
    Mutex.lock guard;
    if live h then begin
      let _, me = current_state () in
      me.t_vc <- vc_join me.t_vc (!threads).(h.h_tid).t_vc
    end;
    Mutex.unlock guard
  end

let with_thread h f =
  if not (enabled ()) || not (h.h_tid >= 0 && h.h_gen = !generation) then f ()
  else begin
    let saved = Domain.DLS.get cur_tid in
    Domain.DLS.set cur_tid h.h_tid;
    Fun.protect f ~finally:(fun () -> Domain.DLS.set cur_tid saved)
  end

let fence () =
  if enabled () then begin
    Mutex.lock guard;
    let tid, me = current_state () in
    me.t_vc <- vc_join me.t_vc !fence_vc;
    fence_vc := vc_join !fence_vc me.t_vc;
    bump_own_clock tid me;
    Mutex.unlock guard
  end

(* ------------------------------------------------------------------ *)
(* Locks                                                               *)

type lock = {
  l_mu : Mutex.t;
  l_id : int;
  mutable l_gen : int;
  mutable l_vc : int array;
}

let next_lock_id = Atomic.make 0

let create_lock _name =
  { l_mu = Mutex.create ();
    l_id = Atomic.fetch_and_add next_lock_id 1;
    l_gen = -1;
    l_vc = [||] }

let with_lock l f =
  Mutex.lock l.l_mu;
  (* Decide once whether this critical section is tracked, so the release
     bookkeeping matches the acquire even if the flag flips mid-section. *)
  let tracked = enabled () in
  if tracked then begin
    Mutex.lock guard;
    if l.l_gen <> !generation then begin
      l.l_gen <- !generation;
      l.l_vc <- [||]
    end;
    let _, me = current_state () in
    me.t_vc <- vc_join me.t_vc l.l_vc; (* acquire *)
    me.t_held <- l.l_id :: me.t_held;
    Mutex.unlock guard
  end;
  Fun.protect f ~finally:(fun () ->
      if tracked && enabled () then begin
        Mutex.lock guard;
        let tid, me = current_state () in
        me.t_held <- List.filter (fun id -> id <> l.l_id) me.t_held;
        l.l_vc <- vc_copy me.t_vc; (* release: L := C_t *)
        bump_own_clock tid me;
        Mutex.unlock guard
      end;
      Mutex.unlock l.l_mu)

(* Lockset-only declaration: the caller synchronizes through something
   the detector cannot order (an external mutex, a coarser protocol).
   Conflicting accesses sharing a declared lock downgrade to a
   discipline warning rather than disappearing. *)
let holding l f =
  if not (enabled ()) then f ()
  else begin
    Mutex.lock guard;
    let _, me = current_state () in
    me.t_held <- l.l_id :: me.t_held;
    Mutex.unlock guard;
    Fun.protect f ~finally:(fun () ->
        Mutex.lock guard;
        let _, me = current_state () in
        me.t_held <- List.filter (fun id -> id <> l.l_id) me.t_held;
        Mutex.unlock guard)
  end

(* ------------------------------------------------------------------ *)
(* Shadow words                                                        *)

type location = {
  loc_name : string;
  mutable g : int;
  mutable w_ep : int;          (* 0 = no write yet *)
  mutable w_locks : int list;
  mutable r_ep : int;          (* 0 = no read; -1 = read-shared (use r_vc) *)
  mutable r_vc : int array;
  mutable r_locks : int list;
}

let location name =
  { loc_name = name; g = -1;
    w_ep = 0; w_locks = []; r_ep = 0; r_vc = [||]; r_locks = [] }

let refresh loc =
  if loc.g <> !generation then begin
    loc.g <- !generation;
    loc.w_ep <- 0;
    loc.w_locks <- [];
    loc.r_ep <- 0;
    loc.r_vc <- [||];
    loc.r_locks <- []
  end

let locks_inter a b = List.exists (fun id -> List.mem id b) a

let record_race loc kind ~other_tid ~cur_tid:tid ~saved =
  let key = (loc.loc_name, kind) in
  if not (Hashtbl.mem report_seen key) then begin
    Hashtbl.add report_seen key ();
    report_acc :=
      { location_name = loc.loc_name;
        kind;
        first = thread_name other_tid;
        second = thread_name tid;
        lockset_saved = saved }
      :: !report_acc
  end

(* The earliest reader in [r_vc] that the current thread's clock has not
   caught up with, if any. *)
let shared_read_race r_vc vc =
  let n = Array.length r_vc in
  let rec go i =
    if i >= n then None
    else if r_vc.(i) > vc_get vc i then Some i
    else go (i + 1)
  in
  go 0

let touch_write_locked loc =
  refresh loc;
  let tid, me = current_state () in
  let e = epoch ~clock:(vc_get me.t_vc tid) ~tid in
  if loc.w_ep <> e then begin
    (* write-write *)
    if loc.w_ep <> 0 && not (epoch_le loc.w_ep me.t_vc) then
      record_race loc Write_write ~other_tid:(epoch_tid loc.w_ep)
        ~cur_tid:tid ~saved:(locks_inter loc.w_locks me.t_held);
    (* read-write *)
    if loc.r_ep = -1 then begin
      (match shared_read_race loc.r_vc me.t_vc with
       | Some rtid ->
         record_race loc Read_write ~other_tid:rtid ~cur_tid:tid
           ~saved:(locks_inter loc.r_locks me.t_held)
       | None -> ());
      (* FastTrack: a write that survives the shared-read check re-orders
         everything; drop back to the compact epoch representation. *)
      loc.r_ep <- 0;
      loc.r_vc <- [||];
      loc.r_locks <- []
    end
    else if loc.r_ep <> 0 && not (epoch_le loc.r_ep me.t_vc) then
      record_race loc Read_write ~other_tid:(epoch_tid loc.r_ep)
        ~cur_tid:tid ~saved:(locks_inter loc.r_locks me.t_held);
    loc.w_ep <- e;
    loc.w_locks <- me.t_held
  end

let touch_read_locked loc =
  refresh loc;
  let tid, me = current_state () in
  let clock = vc_get me.t_vc tid in
  let e = epoch ~clock ~tid in
  if loc.r_ep <> e then begin
    (* write-read *)
    if loc.w_ep <> 0 && not (epoch_le loc.w_ep me.t_vc) then
      record_race loc Write_read ~other_tid:(epoch_tid loc.w_ep)
        ~cur_tid:tid ~saved:(locks_inter loc.w_locks me.t_held);
    (* update the read shadow *)
    if loc.r_ep = -1 then begin
      loc.r_vc <- vc_grow loc.r_vc (tid + 1);
      loc.r_vc.(tid) <- clock;
      loc.r_locks <-
        List.filter (fun id -> List.mem id me.t_held) loc.r_locks
    end
    else if loc.r_ep = 0 || epoch_le loc.r_ep me.t_vc then begin
      loc.r_ep <- e;
      loc.r_locks <- me.t_held
    end
    else begin
      (* Two unordered readers: promote to the read-shared vector. *)
      let prev = loc.r_ep in
      let n = max (epoch_tid prev + 1) (tid + 1) in
      let r_vc = Array.make n 0 in
      r_vc.(epoch_tid prev) <- epoch_clock prev;
      r_vc.(tid) <- clock;
      loc.r_ep <- -1;
      loc.r_vc <- r_vc;
      loc.r_locks <-
        List.filter (fun id -> List.mem id me.t_held) loc.r_locks
    end
  end

let touch_write loc =
  if enabled () then begin
    Mutex.lock guard;
    touch_write_locked loc;
    Mutex.unlock guard
  end

let touch_read loc =
  if enabled () then begin
    Mutex.lock guard;
    touch_read_locked loc;
    Mutex.unlock guard
  end

(* ------------------------------------------------------------------ *)
(* Tracked cells                                                       *)

type 'a tracked_ref = {
  mutable v : 'a;
  ref_loc : location;
}

let tracked_ref ~name v = { v; ref_loc = location name }

let read r =
  touch_read r.ref_loc;
  r.v

let write r v =
  touch_write r.ref_loc;
  r.v <- v

(* Tracked atomics carry their own vector clock: operations on them are
   synchronization edges (like SC atomics in the memory model), not
   plain accesses, so they never *report* races — they *order* things. *)

type 'a tracked_atomic = {
  at : 'a Atomic.t;
  mutable a_gen : int;
  mutable a_vc : int array;
}

let tracked_atomic ~name:_ v = { at = Atomic.make v; a_gen = -1; a_vc = [||] }

let a_refresh a =
  if a.a_gen <> !generation then begin
    a.a_gen <- !generation;
    a.a_vc <- [||]
  end

let aget a =
  if not (enabled ()) then Atomic.get a.at
  else begin
    Mutex.lock guard;
    a_refresh a;
    let v = Atomic.get a.at in
    let _, me = current_state () in
    me.t_vc <- vc_join me.t_vc a.a_vc; (* acquire *)
    Mutex.unlock guard;
    v
  end

let a_release a tid me =
  a.a_vc <- vc_join a.a_vc me.t_vc;
  bump_own_clock tid me

let aset a v =
  if not (enabled ()) then Atomic.set a.at v
  else begin
    Mutex.lock guard;
    a_refresh a;
    Atomic.set a.at v;
    let tid, me = current_state () in
    a_release a tid me;
    Mutex.unlock guard
  end

let acas a old nu =
  if not (enabled ()) then Atomic.compare_and_set a.at old nu
  else begin
    Mutex.lock guard;
    a_refresh a;
    let ok = Atomic.compare_and_set a.at old nu in
    let tid, me = current_state () in
    me.t_vc <- vc_join me.t_vc a.a_vc; (* every RMW acquires *)
    if ok then a_release a tid me;     (* a successful one also releases *)
    Mutex.unlock guard;
    ok
  end

let afetch_add a d =
  if not (enabled ()) then Atomic.fetch_and_add a.at d
  else begin
    Mutex.lock guard;
    a_refresh a;
    let v = Atomic.fetch_and_add a.at d in
    let tid, me = current_state () in
    me.t_vc <- vc_join me.t_vc a.a_vc;
    a_release a tid me;
    Mutex.unlock guard;
    v
  end

(* ------------------------------------------------------------------ *)
(* Reports                                                             *)

let kind_to_string = function
  | Write_write -> "write-write"
  | Read_write -> "read-write"
  | Write_read -> "write-read"

let reports () =
  Mutex.lock guard;
  let rs = List.rev !report_acc in
  Mutex.unlock guard;
  rs

let clear_reports () =
  Mutex.lock guard;
  report_acc := [];
  Hashtbl.reset report_seen;
  Mutex.unlock guard

let to_diags rs =
  List.map
    (fun r ->
       if r.lockset_saved then
         Diag.make "lock-discipline" Diag.Warning r.location_name
           "%s access pair (%s, then %s) is unordered by happens-before \
            but shares a lock the detector cannot see; route it through \
            Race.with_lock"
           (kind_to_string r.kind) r.first r.second
       else
         Diag.make "data-race" Diag.Error r.location_name
           "%s race: %s is unordered with %s"
           (kind_to_string r.kind) r.first r.second)
    rs
