module Engine = Simnet.Engine
module Netmodel = Simnet.Netmodel

let any_source = Msg.any_source
let any_tag = Msg.any_tag

let check_tag ~ctx tag =
  match (ctx : Msg.ctx) with
  | User -> if tag < 0 then Errors.usage "user message tags must be non-negative (got %d)" tag
  | Internal -> ()

(* Receive-side patterns may use the wildcard. *)
let check_recv_tag ~ctx tag = if tag <> any_tag then check_tag ~ctx tag

let window_bounds ~what buf pos count =
  let len = Array.length buf in
  let count = match count with Some c -> c | None -> len - pos in
  if pos < 0 || count < 0 || pos + count > len then
    Errors.usage "%s: window [%d, %d) exceeds buffer of length %d" what pos (pos + count) len;
  count

let my_world comm = Comm.world_rank_of comm (Comm.rank comm)

let track comm ~op req =
  let w = Comm.world comm in
  Checker.track_request w.World.check ~rank:(my_world comm) ~comm:(Comm.id comm) ~op
    ~at:(World.now w) req

(* Per-call software initiation cost (argument validation, matching setup).
   Only user-level ephemeral calls pay it; persistent operations charge it
   once at init.  Zero by default, and the [> 0.0] guard keeps the default
   schedule free of extra events. *)
let charge_setup ~ctx comm =
  if ctx = Msg.User then begin
    let w = Comm.world comm in
    let so = (Netmodel.params w.World.net).Netmodel.setup_overhead in
    if so > 0.0 then Engine.delay w.World.engine so
  end

(* Book a validated message into the network and schedule its arrival.
   No validation happens here — this is the path persistent [start]s reuse
   after validating once at init.  Returns the injection-complete time
   (when the sender's buffer is reusable). *)
let inject_raw comm dt ~count ~dst ~tag ~ctx ~on_matched ~payload =
  let w = Comm.world comm in
  let src_world = Comm.world_rank_of comm (Comm.rank comm) in
  let dst_world = Comm.world_rank_of comm dst in
  let bytes = Datatype.bytes dt count in
  Profiling.record_message w.World.prof ~bytes;
  let now = World.now w in
  let injected, arrival =
    Netmodel.transfer w.World.net ~now ~src:src_world ~dst:dst_world ~bytes
      ~pack_factor:(Datatype.pack_factor dt)
  in
  (* Chaos-layer latency jitter: the adjusted arrival is used for both the
     trace record and the delivery event, so traced explored runs stay
     self-consistent.  The hook preserves per-(src,dst) FIFO order. *)
  let arrival =
    match World.arrival_adjust w with
    | None -> arrival
    | Some adj -> Float.max arrival (adj ~src:src_world ~dst:dst_world ~arrival)
  in
  (* Record every injected message — internal collective traffic included,
     so the critical path can thread through collectives.  The arrival time
     is known now (the network model is deterministic), so no extra event is
     scheduled: tracing must not perturb the event count. *)
  let trace_msg =
    if Trace.Recorder.active w.World.trace then
      Some
        (Trace.Recorder.add_message w.World.trace ~src:src_world ~dst:dst_world ~tag ~bytes
           ~user:(ctx = Msg.User) ~sent:now ~arrived:arrival)
    else None
  in
  if World.is_alive w dst_world then begin
    let env =
      Msg.make_envelope w.World.env_pool ~src:(Comm.rank comm) ~src_world ~tag
        ~comm_id:(Comm.id comm) ~ctx ~count ~bytes ~sent_at:now ~payload:(payload ())
        ~on_matched ~trace:trace_msg
    in
    Engine.schedule w.World.engine
      ~delay:(arrival -. now)
      (fun () -> Msg.arrive w.World.env_pool w.World.mailboxes.(dst_world) env)
  end;
  injected

(* Validate, charge the per-call setup cost, and inject — the ephemeral
   send path. *)
let inject comm dt buf pos count ~dst ~tag ~ctx ~on_matched =
  Comm.check_active comm;
  check_tag ~ctx tag;
  Datatype.mark_committed dt;
  let count = window_bounds ~what:"send" buf pos count in
  charge_setup ~ctx comm;
  inject_raw comm dt ~count ~dst ~tag ~ctx ~on_matched
    ~payload:(fun () -> Msg.Packed (dt, Array.sub buf pos count))

let send ?(ctx = Msg.User) ?(pos = 0) ?count comm dt buf ~dst ~tag =
  let w = Comm.world comm in
  Comm.call ~ctx comm ~cat:P2p ~op:"MPI_Send" @@ fun () ->
  let injected = inject comm dt buf pos count ~dst ~tag ~ctx ~on_matched:None in
  Engine.delay w.World.engine (injected -. World.now w)

let isend ?(ctx = Msg.User) ?(pos = 0) ?count comm dt buf ~dst ~tag =
  let w = Comm.world comm in
  Comm.count ~ctx comm ~op:"MPI_Isend";
  let req = Request.create w.World.engine in
  if ctx = Msg.User then track comm ~op:"MPI_Isend" req;
  let count' = window_bounds ~what:"isend" buf pos count in
  Comm.call ~counted:false ~ctx comm ~cat:P2p ~op:"MPI_Isend" @@ fun () ->
  let injected = inject comm dt buf pos count ~dst ~tag ~ctx ~on_matched:None in
  Engine.schedule w.World.engine
    ~delay:(injected -. World.now w)
    (fun () -> Request.complete req { source = dst; tag; count = count' });
  req

let issend ?(ctx = Msg.User) ?(pos = 0) ?count comm dt buf ~dst ~tag =
  let w = Comm.world comm in
  Comm.count ~ctx comm ~op:"MPI_Issend";
  let req = Request.create w.World.engine in
  if ctx = Msg.User then track comm ~op:"MPI_Issend" req;
  let count' = window_bounds ~what:"issend" buf pos count in
  let latency = (Netmodel.params w.World.net).latency in
  let on_matched =
    Some
      (fun () ->
        (* The acknowledgment travels back to the sender. *)
        Engine.schedule w.World.engine ~delay:latency (fun () ->
            Request.complete req { source = dst; tag; count = count' }))
  in
  Comm.call ~counted:false ~ctx comm ~cat:P2p ~op:"MPI_Issend" @@ fun () ->
  ignore (inject comm dt buf pos count ~dst ~tag ~ctx ~on_matched);
  req

(* ------------------------------------------------------------------ *)
(* The receive path.                                                   *)
(*                                                                     *)
(* Every receive — blocking, non-blocking, sparse, persistent and each *)
(* partition of a partitioned one — goes through [receive]: take a     *)
(* matching waiting message or post the receive, then land the payload *)
(* with [land_env].  Callers keep only their completion logic.         *)
(* ------------------------------------------------------------------ *)

let status_of (env : Msg.envelope) = { Request.source = env.src; tag = env.tag; count = env.count }

(* The one type-and-capacity check: [n] elements of [sdt] land in a
   receive of [rdt] with room for [capacity] elements.  [data] is copied
   into [buf] at [pos] unless the receive has no window: a sparse receive
   passes the empty array, and a sparse payload has no data. *)
let accept (type a b) (env : Msg.envelope) (sdt : b Datatype.t) (data : b array) n
    (rdt : a Datatype.t) (buf : a array) pos capacity : (Request.status, exn) result =
  match Datatype.equal_witness sdt rdt with
  | None -> Error (Errors.Type_mismatch { sent = Datatype.name sdt; expected = Datatype.name rdt })
  | Some Type.Equal ->
      if n > capacity then Error (Errors.Truncated { sent = n; capacity })
      else begin
        if Array.length buf > 0 then Array.blit data 0 buf pos (Array.length data);
        Ok (status_of env)
      end

(* Land a matched envelope: stamp the receive-side trace times, run the
   type-and-capacity check and report a failed one at Light level. *)
let land_env comm ~op ~posted (env : Msg.envelope) dt buf ~pos ~capacity =
  let w = Comm.world comm in
  (match env.trace with
  | Some m -> Trace.Event.stamp_match m ~posted ~time:(World.now w)
  | None -> ());
  let landed =
    match env.payload with
    | Msg.Packed (sdt, data) -> accept env sdt data (Array.length data) dt buf pos capacity
    | Msg.Sparse (sdt, n) -> accept env sdt [||] n dt buf pos capacity
  in
  (match landed with
  | Error e ->
      Checker.record_match_error w.World.check ~rank:(my_world comm) ~comm:(Comm.id comm) ~op e
  | Ok _ -> ());
  landed

(* Detect whether a receive from [src] can never be satisfied because the
   peer (or, for wildcards, some group member) has failed. *)
let dead_peer comm ~src =
  let w = Comm.world comm in
  if src = any_source then World.any_dead w (Comm.group comm)
  else begin
    let sw = Comm.world_rank_of comm src in
    if World.is_alive w sw then None else Some sw
  end

let peer_failed wr = Errors.Process_failed { world_rank = wr }

(* A blocking call waiting on a dead peer fails once the failure is
   detected. *)
let raise_detected w wr =
  Engine.delay w.World.engine w.World.detection_delay;
  raise (peer_failed wr)

let pattern comm ~src ~tag ~ctx ~deliver ~on_fail : Msg.pattern =
  {
    src;
    tag;
    comm = Comm.id comm;
    ctx;
    src_world = (if src = any_source then -1 else Comm.world_rank_of comm src);
    group = Comm.group comm;
    owner = my_world comm;
    deliver;
    on_fail;
    live = true;
  }

let mailbox comm = (Comm.world comm).World.mailboxes.(my_world comm)

(* Post a receive whose landed result goes to [k]. *)
let post comm ~ctx ~op ~src ~tag ~posted dt buf ~pos ~capacity k =
  let p =
    pattern comm ~src ~tag ~ctx
      ~deliver:(fun env -> k (land_env comm ~op ~posted env dt buf ~pos ~capacity))
      ~on_fail:(fun e -> k (Error e))
  in
  Msg.post (mailbox comm) p;
  p

(* How a receive completes.  [Block]: the calling fiber gets the status
   (or the exception), suspending until the message lands.  [Notify k]:
   [k] gets the landed result, at once or from the arrival event, and
   the receive yields its posted pattern so a persistent handle can
   retire it. *)
type _ completion =
  | Block : Request.status completion
  | Notify : ((Request.status, exn) result -> unit) -> Msg.pattern option completion

let receive : type a r.
    Comm.t ->
    ctx:Msg.ctx ->
    op:string ->
    src:int ->
    tag:int ->
    a Datatype.t ->
    a array ->
    pos:int ->
    capacity:int ->
    r completion ->
    r =
 fun comm ~ctx ~op ~src ~tag dt buf ~pos ~capacity completion ->
  let w = Comm.world comm in
  let posted = World.now w in
  match
    Msg.take_unexpected ?choose:(World.match_chooser w) (mailbox comm) ~src ~tag
      ~comm:(Comm.id comm) ~ctx
  with
  | Some env -> (
      (* a message was waiting: land it now, without suspending *)
      let landed = land_env comm ~op ~posted env dt buf ~pos ~capacity in
      Msg.release w.World.env_pool env;
      match (completion, landed) with
      | Block, Ok st -> st
      | Block, Error e -> raise e
      | Notify k, _ ->
          k landed;
          None)
  | None -> (
      match (completion, dead_peer comm ~src) with
      | Block, Some wr -> raise_detected w wr
      | Block, None ->
          Engine.suspend w.World.engine (fun r ->
              let k = Engine.settle r in
              ignore (post comm ~ctx ~op ~src ~tag ~posted dt buf ~pos ~capacity k))
      | Notify k, Some wr ->
          Engine.schedule w.World.engine ~delay:w.World.detection_delay (fun () ->
              k (Error (peer_failed wr)));
          None
      | Notify k, None -> Some (post comm ~ctx ~op ~src ~tag ~posted dt buf ~pos ~capacity k))

(* Complete or abort a request with a landed result. *)
let settle req = function Ok st -> Request.complete req st | Error e -> Request.abort req e

let recv ?(ctx = Msg.User) ?(pos = 0) ?count comm dt buf ~src ~tag =
  Comm.check_active comm;
  check_recv_tag ~ctx tag;
  Datatype.mark_committed dt;
  let capacity = window_bounds ~what:"recv" buf pos count in
  Comm.call ~ctx comm ~cat:P2p ~op:"MPI_Recv" @@ fun () ->
  charge_setup ~ctx comm;
  receive comm ~ctx ~op:"MPI_Recv" ~src ~tag dt buf ~pos ~capacity Block

let irecv ?(ctx = Msg.User) ?(pos = 0) ?count comm dt buf ~src ~tag =
  Comm.check_active comm;
  check_recv_tag ~ctx tag;
  Datatype.mark_committed dt;
  let capacity = window_bounds ~what:"irecv" buf pos count in
  Comm.call ~ctx comm ~cat:P2p ~op:"MPI_Irecv" @@ fun () ->
  let req = Request.create (Comm.world comm).World.engine in
  if ctx = Msg.User then track comm ~op:"MPI_Irecv" req;
  charge_setup ~ctx comm;
  ignore (receive comm ~ctx ~op:"MPI_Irecv" ~src ~tag dt buf ~pos ~capacity (Notify (settle req)));
  req

let probe ?(ctx = Msg.User) comm ~src ~tag =
  Comm.check_active comm;
  Comm.call ~ctx comm ~cat:P2p ~op:"MPI_Probe" @@ fun () ->
  let w = Comm.world comm in
  match Msg.peek_unexpected (mailbox comm) ~src ~tag ~comm:(Comm.id comm) ~ctx with
  | Some env -> status_of env
  | None -> begin
      match dead_peer comm ~src with
      | Some wr -> raise_detected w wr
      | None ->
          Engine.suspend w.World.engine (fun r ->
              Msg.post_probe (mailbox comm)
                (pattern comm ~src ~tag ~ctx
                   ~deliver:(fun env -> Engine.resume r (status_of env))
                   ~on_fail:(fun e -> Engine.fail r e)))
    end

let iprobe ?(ctx = Msg.User) comm ~src ~tag =
  Comm.check_active comm;
  Comm.count ~ctx comm ~op:"MPI_Iprobe";
  Option.map status_of (Msg.peek_unexpected (mailbox comm) ~src ~tag ~comm:(Comm.id comm) ~ctx)

let sendrecv ?(ctx = Msg.User) comm dt ~send:sbuf ?(send_pos = 0) ?send_count ~dst ~stag ~recv:rbuf
    ?(recv_pos = 0) ?recv_count ~src ~rtag () =
  Comm.call ~ctx comm ~cat:P2p ~op:"MPI_Sendrecv" @@ fun () ->
  let sreq = isend ~ctx ~pos:send_pos ?count:send_count comm dt sbuf ~dst ~tag:stag in
  let status = recv ~ctx ~pos:recv_pos ?count:recv_count comm dt rbuf ~src ~tag:rtag in
  ignore (Request.wait sreq);
  status

let sendrecv_replace ?(ctx = Msg.User) ?(pos = 0) ?count comm dt buf ~dst ~stag ~src ~rtag =
  Comm.call ~ctx comm ~cat:P2p ~op:"MPI_Sendrecv_replace" @@ fun () ->
  (* the outgoing data is snapshotted at injection time (the runtime copies
     payloads eagerly), so receiving into the same window is safe *)
  let sreq = isend ~ctx ~pos ?count comm dt buf ~dst ~tag:stag in
  let status = recv ~ctx ~pos ?count comm dt buf ~src ~tag:rtag in
  ignore (Request.wait sreq);
  status

(* ------------------------------------------------------------------ *)
(* Large-count (sparse-payload) transfers.                             *)
(* ------------------------------------------------------------------ *)

let send_sparse ?(ctx = Msg.User) comm dt ~count ~dst ~tag =
  Comm.check_active comm;
  check_tag ~ctx tag;
  Datatype.mark_committed dt;
  ignore (Datatype.bytes dt count) (* count >= 0 and byte size representable *);
  let w = Comm.world comm in
  Comm.call ~ctx comm ~cat:P2p ~op:"MPI_Send" @@ fun () ->
  charge_setup ~ctx comm;
  let injected =
    inject_raw comm dt ~count ~dst ~tag ~ctx ~on_matched:None
      ~payload:(fun () -> Msg.Sparse (dt, count))
  in
  Engine.delay w.World.engine (injected -. World.now w)

(* A sparse receive has no window: the payload is checked, never copied. *)
let recv_sparse ?(ctx = Msg.User) comm dt ~capacity ~src ~tag =
  Comm.check_active comm;
  check_recv_tag ~ctx tag;
  Datatype.mark_committed dt;
  ignore (Datatype.bytes dt capacity);
  Comm.call ~ctx comm ~cat:P2p ~op:"MPI_Recv" @@ fun () ->
  charge_setup ~ctx comm;
  receive comm ~ctx ~op:"MPI_Recv" ~src ~tag dt [||] ~pos:0 ~capacity Block

(* ------------------------------------------------------------------ *)
(* Persistent operations (MPI-4 §3.9).                                 *)
(*                                                                     *)
(* All validation — communicator, tag, window bounds, datatype commit, *)
(* peer-rank range — plus the per-call setup cost and checker          *)
(* registration happen once here at init.  [start] reuses the          *)
(* validated fast path ([inject_raw] / the posted-receive machinery    *)
(* with the world's pooled envelopes) and charges nothing.             *)
(* ------------------------------------------------------------------ *)

let send_init_gen ~sync ?(ctx = Msg.User) ?(pos = 0) ?count comm dt buf ~dst ~tag =
  Comm.check_active comm;
  check_tag ~ctx tag;
  Datatype.mark_committed dt;
  let op = if sync then "MPI_Ssend_init" else "MPI_Send_init" in
  let count = window_bounds ~what:op buf pos count in
  let w = Comm.world comm in
  ignore (Comm.world_rank_of comm dst);
  Comm.call ~ctx comm ~cat:P2p ~op @@ fun () ->
  charge_setup ~ctx comm;
  let latency = (Netmodel.params w.World.net).Netmodel.latency in
  Comm.persistent comm ~ctx ~cat:P2p ~op (fun h ->
      let req = Persist.request h in
      let on_matched =
        if sync then
          Some
            (fun () ->
              (* synchronous mode: complete when the matching ack returns *)
              Engine.schedule w.World.engine ~delay:latency (fun () ->
                  Request.complete req { source = dst; tag; count }))
        else None
      in
      let injected =
        inject_raw comm dt ~count ~dst ~tag ~ctx ~on_matched
          ~payload:(fun () -> Msg.Packed (dt, Array.sub buf pos count))
      in
      if not sync then
        Engine.schedule w.World.engine
          ~delay:(injected -. World.now w)
          (fun () -> Request.complete req { source = dst; tag; count }))

let send_init ?ctx ?pos ?count comm dt buf ~dst ~tag =
  send_init_gen ~sync:false ?ctx ?pos ?count comm dt buf ~dst ~tag

let ssend_init ?ctx ?pos ?count comm dt buf ~dst ~tag =
  send_init_gen ~sync:true ?ctx ?pos ?count comm dt buf ~dst ~tag

let recv_init ?(ctx = Msg.User) ?(pos = 0) ?count comm dt buf ~src ~tag =
  Comm.check_active comm;
  check_recv_tag ~ctx tag;
  Datatype.mark_committed dt;
  let op = "MPI_Recv_init" in
  let capacity = window_bounds ~what:op buf pos count in
  if src <> any_source then ignore (Comm.world_rank_of comm src);
  Comm.call ~ctx comm ~cat:P2p ~op @@ fun () ->
  charge_setup ~ctx comm;
  (* the live posted receive of the active round, so [cancel] can retire a
     standing channel that will never be matched again *)
  let current = ref None in
  let start h =
    let round = Persist.starts h in
    current :=
      receive comm ~ctx ~op ~src ~tag dt buf ~pos ~capacity
        (Notify
           (fun landed ->
             (* round guard: a dead peer's failure is reported after the
                detection delay; if the handle was restarted (or cancelled
                and restarted) meanwhile, it belongs to a dead round and
                must not touch the request *)
             if Persist.starts h = round && Persist.is_active h then
               settle (Persist.request h) landed))
  in
  let cancel h =
    Option.iter (fun (p : Msg.pattern) -> p.live <- false) !current;
    current := None;
    (* park the round's request failed so a later [start] can rearm it;
       the handle is inactive after cancel, so nothing observes [Exit] *)
    Request.abort (Persist.request h) Exit
  in
  Comm.persistent comm ~ctx ~cat:P2p ~op ~cancel start

(* ------------------------------------------------------------------ *)
(* Partitioned communication (MPI-4 §4).                               *)
(*                                                                     *)
(* Each partition travels as one internal-context message; the tag     *)
(* packs (user tag, partition index) below the collective tag space so *)
(* partition traffic can never cross-match user or collective          *)
(* messages.  Partitions progress independently on the engine's event  *)
(* queue; the round's request completes when the last one does.        *)
(* ------------------------------------------------------------------ *)

let max_partitions = 1024
let ptag ~tag i = -(1 lsl 21) - (tag lsl 10) - i

let check_partitioned ~op ~partitions ~count buf =
  if partitions <= 0 || partitions > max_partitions then
    Errors.usage "%s: partitions %d out of range [1, %d]" op partitions max_partitions;
  if count < 0 then Errors.usage "%s: negative per-partition count %d" op count;
  if partitions * count > Array.length buf then
    Errors.usage "%s: %d partitions of %d elements exceed buffer of length %d" op partitions
      count (Array.length buf)

let psend_init ?(ctx = Msg.User) comm dt buf ~partitions ~count ~dst ~tag =
  Comm.check_active comm;
  check_tag ~ctx tag;
  Datatype.mark_committed dt;
  let op = "MPI_Psend_init" in
  check_partitioned ~op ~partitions ~count buf;
  let w = Comm.world comm in
  ignore (Comm.world_rank_of comm dst);
  Comm.call ~ctx comm ~cat:P2p ~op @@ fun () ->
  charge_setup ~ctx comm;
  let readied = Array.make partitions false in
  let remaining = ref partitions in
  let start _h =
    Array.fill readied 0 partitions false;
    remaining := partitions
  in
  let pready h i =
    Comm.check_active comm;
    if readied.(i) then Errors.usage "%s: partition %d readied twice" op i;
    Comm.call ~counted:false ~ctx comm ~cat:P2p ~op:"MPI_Pready" @@ fun () ->
    readied.(i) <- true;
    let req = Persist.request h in
    let injected =
      inject_raw comm dt ~count ~dst ~tag:(ptag ~tag i) ~ctx:Msg.Internal ~on_matched:None
        ~payload:(fun () -> Msg.Packed (dt, Array.sub buf (i * count) count))
    in
    decr remaining;
    if !remaining = 0 then
      (* egress injections serialize, so the last pready's injection time
         bounds them all *)
      Engine.schedule w.World.engine
        ~delay:(injected -. World.now w)
        (fun () -> Request.complete req { source = dst; tag; count = partitions * count })
  in
  Comm.persistent comm ~ctx ~cat:P2p ~op ~partitions ~pready start

let precv_init ?(ctx = Msg.User) comm dt buf ~partitions ~count ~src ~tag =
  Comm.check_active comm;
  check_tag ~ctx tag;
  if src = any_source then Errors.usage "MPI_Precv_init: wildcard source is not allowed";
  Datatype.mark_committed dt;
  let op = "MPI_Precv_init" in
  check_partitioned ~op ~partitions ~count buf;
  let w = Comm.world comm in
  ignore (Comm.world_rank_of comm src);
  Comm.call ~ctx comm ~cat:P2p ~op @@ fun () ->
  charge_setup ~ctx comm;
  let arrived = Array.make partitions false in
  let pendings = Array.make partitions None in
  let start h =
    let req = Persist.request h in
    Array.fill arrived 0 partitions false;
    Array.fill pendings 0 partitions None;
    let remaining = ref partitions in
    let finish_one i =
      arrived.(i) <- true;
      decr remaining;
      if !remaining = 0 && not (Request.is_failed req) then
        Request.complete req { source = src; tag; count = partitions * count }
    in
    match dead_peer comm ~src with
    | Some wr ->
        let round = Persist.starts h in
        Engine.schedule w.World.engine ~delay:w.World.detection_delay (fun () ->
            if Persist.starts h = round && Persist.is_active h then
              Request.abort req (peer_failed wr))
    | None ->
        for i = 0 to partitions - 1 do
          pendings.(i) <-
            receive comm ~ctx:Msg.Internal ~op ~src ~tag:(ptag ~tag i) dt buf ~pos:(i * count)
              ~capacity:count
              (Notify (function Ok _ -> finish_one i | Error e -> Request.abort req e))
        done
  in
  let parrived _h i = arrived.(i) in
  let cancel h =
    Array.iter (Option.iter (fun (p : Msg.pattern) -> p.live <- false)) pendings;
    Array.fill pendings 0 partitions None;
    Request.abort (Persist.request h) Exit
  in
  Comm.persistent comm ~ctx ~cat:P2p ~op ~partitions ~parrived ~cancel start
