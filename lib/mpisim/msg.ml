let any_source = -1
let any_tag = -1

type ctx = User | Internal
type packed =
  | Packed : 'a Datatype.t * 'a array -> packed
  | Sparse : 'a Datatype.t * int -> packed

(* Envelopes are mutable so the runtime can recycle them through a
   free-list pool: at 10k+ ranks the per-message envelope allocation was
   a measurable share of minor-heap churn.  [pooled] guards against
   double-release; an envelope sitting in the free list must never be
   read. *)
type envelope = {
  mutable src : int;
  mutable src_world : int;
  mutable tag : int;
  mutable comm_id : int;
  mutable ctx : ctx;
  mutable count : int;
  mutable bytes : int;
  mutable sent_at : float;
  mutable payload : packed;
  mutable on_matched : (unit -> unit) option;
  mutable trace : Trace.Event.message option;
  mutable pooled : bool;
}

(* A receive pattern parked in a mailbox: a posted receive or a blocking
   probe.  Both carry the same fields; a probe's [deliver] observes the
   message without consuming it. *)
type pattern = {
  src : int;
  tag : int;
  comm : int;
  ctx : ctx;
  src_world : int;
  group : int array;
  owner : int;
  deliver : envelope -> unit;
  on_fail : exn -> unit;
  mutable live : bool;
}

type mailbox = {
  unexpected : envelope Ds.Vec.t;
  mutable posted : pattern list;
  mutable probes : pattern list;
}

let create () = { unexpected = Ds.Vec.create (); posted = []; probes = [] }

(* {2 Envelope pool} *)

type pool = { free : envelope Ds.Vec.t; mutable made : int; mutable reused : int }

let create_pool () = { free = Ds.Vec.create (); made = 0; reused = 0 }

let empty_payload = Packed (Datatype.int, [||])

let make_envelope pool ~src ~src_world ~tag ~comm_id ~ctx ~count ~bytes ~sent_at ~payload
    ~on_matched ~trace =
  if Ds.Vec.is_empty pool.free then begin
    pool.made <- pool.made + 1;
    { src; src_world; tag; comm_id; ctx; count; bytes; sent_at; payload; on_matched; trace;
      pooled = false }
  end
  else begin
    pool.reused <- pool.reused + 1;
    let e = Ds.Vec.pop pool.free in
    e.pooled <- false;
    e.src <- src;
    e.src_world <- src_world;
    e.tag <- tag;
    e.comm_id <- comm_id;
    e.ctx <- ctx;
    e.count <- count;
    e.bytes <- bytes;
    e.sent_at <- sent_at;
    e.payload <- payload;
    e.on_matched <- on_matched;
    e.trace <- trace;
    e
  end

let release pool env =
  if not env.pooled then begin
    env.pooled <- true;
    (* drop payload / closure / trace references so the pool retains no
       dead data between messages *)
    env.payload <- empty_payload;
    env.on_matched <- None;
    env.trace <- None;
    Ds.Vec.push pool.free env
  end

let pool_stats pool = (pool.made, pool.reused)

(* The one match predicate: posted receives, parked probes and the
   unexpected-queue search all test an envelope against these fields. *)
let matches ~src ~tag ~comm ~ctx (env : envelope) =
  comm = env.comm_id
  && ctx = env.ctx
  && (src = any_source || src = env.src)
  && (tag = any_tag || tag = env.tag)

let accepts (p : pattern) env =
  p.live && matches ~src:p.src ~tag:p.tag ~comm:p.comm ~ctx:p.ctx env

let arrive pool mb env =
  (* Probe waiters observe the message without consuming it. *)
  let notified, waiting = List.partition (fun p -> accepts p env) mb.probes in
  mb.probes <- waiting;
  List.iter
    (fun p ->
      p.live <- false;
      p.deliver env)
    notified;
  let rec find_posted acc = function
    | [] -> None
    | pr :: rest when accepts pr env ->
        mb.posted <- List.rev_append acc rest;
        Some pr
    | pr :: rest -> find_posted (pr :: acc) rest
  in
  match find_posted [] mb.posted with
  | Some pr ->
      pr.live <- false;
      (match env.on_matched with Some hook -> hook () | None -> ());
      pr.deliver env;
      (* deliver consumes the envelope synchronously (copy into the
         receive window, then resume/complete), so it can go back to the
         pool.  Unexpected envelopes stay queued and are released by the
         receive path ([P2p.receive]) when it takes them. *)
      release pool env
  | None -> Ds.Vec.push mb.unexpected env

let find_unexpected mb ~src ~tag ~comm ~ctx =
  let n = Ds.Vec.length mb.unexpected in
  let rec go i =
    if i >= n then None
    else if matches ~src ~tag ~comm ~ctx (Ds.Vec.get mb.unexpected i) then Some i
    else go (i + 1)
  in
  go 0

let remove_unexpected mb i =
  let env = Ds.Vec.get mb.unexpected i in
  let n = Ds.Vec.length mb.unexpected in
  (* Preserve arrival order: shift the tail left. *)
  for j = i to n - 2 do
    Ds.Vec.set mb.unexpected j (Ds.Vec.get mb.unexpected (j + 1))
  done;
  ignore (Ds.Vec.pop mb.unexpected);
  env

(* Under a wildcard source, MPI only mandates per-(src,dst) non-overtaking:
   among *different* sources, any interleaving of match order is legal.
   [candidate_sources] returns the index of the first (oldest) matching
   envelope per distinct source — each is a legal wildcard match that still
   preserves every pair's FIFO order. *)
let candidate_sources mb ~tag ~comm ~ctx =
  let n = Ds.Vec.length mb.unexpected in
  let seen = Hashtbl.create 4 in
  let acc = ref [] in
  for i = 0 to n - 1 do
    let env = Ds.Vec.get mb.unexpected i in
    if
      matches ~src:any_source ~tag ~comm ~ctx env
      && not (Hashtbl.mem seen env.src_world)
    then begin
      Hashtbl.add seen env.src_world ();
      acc := (i, env.src_world) :: !acc
    end
  done;
  List.rev !acc

let take_unexpected ?choose mb ~src ~tag ~comm ~ctx =
  let pick =
    match (choose, src = any_source) with
    | Some c, true -> (
        match candidate_sources mb ~tag ~comm ~ctx with
        | [] -> None
        | [ (i, _) ] -> Some i
        | cands ->
            let arr = Array.of_list cands in
            let j = c (Array.map snd arr) in
            let j = if j < 0 || j >= Array.length arr then 0 else j in
            Some (fst arr.(j)))
    | _ -> find_unexpected mb ~src ~tag ~comm ~ctx
  in
  match pick with
  | Some i ->
      let env = remove_unexpected mb i in
      (match env.on_matched with Some hook -> hook () | None -> ());
      Some env
  | None -> None

let peek_unexpected mb ~src ~tag ~comm ~ctx =
  match find_unexpected mb ~src ~tag ~comm ~ctx with
  | Some i -> Some (Ds.Vec.get mb.unexpected i)
  | None -> None

let post mb p = mb.posted <- mb.posted @ [ p ]
let post_probe mb p = mb.probes <- mb.probes @ [ p ]

(* Remove the patterns satisfying [pred] from both queues and deactivate
   them; returns them, posted receives first. *)
let retire mb pred =
  let posted, keep_posted = List.partition pred mb.posted in
  let probes, keep_probes = List.partition pred mb.probes in
  mb.posted <- keep_posted;
  mb.probes <- keep_probes;
  let gone = posted @ probes in
  List.iter (fun p -> p.live <- false) gone;
  gone

let fail_matching mb ~pred ~exn =
  List.iter (fun p -> p.on_fail exn) (retire mb (fun p -> p.live && pred p))

let drop_owned mb ~world_rank = ignore (retire mb (fun p -> p.owner = world_rank))

(* Checker views: the correctness layer inspects mailbox contents at
   quiesce and finalize without consuming anything. *)
let live_posted mb = List.filter (fun p -> p.live) mb.posted
let live_probes mb = List.filter (fun p -> p.live) mb.probes
let iter_unexpected mb f = Ds.Vec.iter f mb.unexpected
