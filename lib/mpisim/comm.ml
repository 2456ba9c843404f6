type t = {
  world : World.t;
  shared : World.comm_shared;
  rank : int;
  mutable coll_seq : int;
  mutable shrink_seq : int;
  mutable agree_seq : int;
}

let make world shared ~rank = { world; shared; rank; coll_seq = 0; shrink_seq = 0; agree_seq = 0 }
let world c = c.world
let shared c = c.shared
let rank c = c.rank
let size c = Array.length c.shared.group
let id c = c.shared.cid

let world_rank_of c r =
  if r < 0 || r >= size c then Errors.usage "rank %d out of range for communicator of size %d" r (size c);
  c.shared.group.(r)

let group c = c.shared.group

(* Placement query: the shared-memory node hosting a communicator rank. *)
let node_of_rank c r = Simnet.Netmodel.node_of c.world.World.net (world_rank_of c r)

let is_revoked c = c.shared.revoked
let check_active c = if c.shared.revoked then raise Errors.Comm_revoked

(* Internal tags live below -10; user tags must be >= 0.  The sequence
   wraps far before colliding with the ibarrier tag space (see P2p). *)
let next_collective_tag c =
  c.coll_seq <- c.coll_seq + 1;
  -10 - (c.coll_seq land 0xFFFFF)

let next_shrink_epoch c =
  c.shrink_seq <- c.shrink_seq + 1;
  c.shrink_seq

let next_agree_epoch c =
  c.agree_seq <- c.agree_seq + 1;
  c.agree_seq

let now c = World.now c.world
let compute c seconds = Simnet.Engine.delay c.world.World.engine seconds

(* {2 The call boundary} *)

type cat = P2p | Coll | Rma | User

let cat_name = function P2p -> "p2p" | Coll -> "coll" | Rma -> "rma" | User -> "user"

(* Library-internal traffic is invisible to the PMPI profile and to the
   trace recorder. *)
let count ~ctx c ~op =
  match (ctx : Msg.ctx) with
  | Internal -> ()
  | User -> Profiling.record_call c.world.World.prof op

(* Every user-level call enters here: the PMPI count, then the trace span
   around [f].  [Fun.protect] spans the fiber's suspensions, so the span
   covers the full blocking time of the call; exceptional exits are
   closed too.  A collective span draws a per-(rank, communicator)
   sequence number: every rank issues the same collectives in the same
   order, so the k-th one lines up across ranks. *)
let call ?(counted = true) ~ctx c ~cat ~op f =
  match (ctx : Msg.ctx) with
  | Internal -> f ()
  | User ->
      let w = c.world in
      if counted then count ~ctx c ~op;
      let tr = w.World.trace in
      if not (Trace.Recorder.active tr) then f ()
      else begin
        let rank = c.shared.group.(c.rank) and comm = c.shared.cid in
        let seq = if cat = Coll then Trace.Recorder.next_coll_seq tr ~rank ~comm else -1 in
        let t0 = World.now w in
        Fun.protect
          ~finally:(fun () ->
            Trace.Recorder.add_span tr
              {
                Trace.Event.sp_rank = rank;
                sp_op = op;
                sp_cat = cat_name cat;
                sp_comm = comm;
                sp_seq = seq;
                sp_t0 = t0;
                sp_t1 = World.now w;
              })
          f
      end

(* A persistent handle: [start] runs behind the boundary as MPI_Start,
   waits as MPI_Wait (neither is counted), and a user-level handle is
   registered with the checker's leak scan. *)
let persistent c ~ctx ~cat ~op ?partitions ?pready ?parrived ?cancel start =
  let w = c.world in
  let start h =
    check_active c;
    call ~counted:false ~ctx c ~cat ~op:"MPI_Start" (fun () -> start h)
  in
  let h =
    Persist.make w.World.engine ~op ?partitions ?pready ?parrived ?cancel
      ~around_wait:(fun _ f -> call ~counted:false ~ctx c ~cat ~op:"MPI_Wait" f)
      start
  in
  if ctx = Msg.User then
    Checker.track_persistent w.World.check ~rank:c.shared.group.(c.rank) ~comm:c.shared.cid ~op
      ~at:(World.now w)
      ~freed:(fun () -> Persist.is_freed h)
      ~starts:(fun () -> Persist.starts h);
  h
