module Engine = Simnet.Engine
module Netmodel = Simnet.Netmodel

let schedule_failure w ~at ~world_rank =
  if world_rank < 0 || world_rank >= w.World.size then
    Errors.usage "schedule_failure: bad rank %d" world_rank;
  let delay = Float.max 0.0 (at -. World.now w) in
  Engine.schedule w.World.engine ~delay (fun () -> World.kill w world_rank)

let schedule_failures w ~fail_at =
  (* Validate the whole schedule up front so a malformed entry rejects the
     schedule before any kill is armed. *)
  List.iter
    (fun (world_rank, at) ->
      if world_rank < 0 || world_rank >= w.World.size then
        Errors.usage "schedule_failures: bad rank %d" world_rank;
      if Float.is_nan at then Errors.usage "schedule_failures: NaN time for rank %d" world_rank)
    fail_at;
  List.iter (fun (world_rank, at) -> schedule_failure w ~at ~world_rank) fail_at

let revoke comm =
  Comm.count ~ctx:User comm ~op:"MPI_Comm_revoke";
  World.revoke (Comm.world comm) (Comm.shared comm)

let is_revoked = Comm.is_revoked

let survivors comm =
  let w = Comm.world comm in
  Comm.group comm |> Array.to_list
  |> List.filteri (fun _ wr -> World.is_alive w wr)
  |> Array.of_list

let num_failed comm = Comm.size comm - Array.length (survivors comm)

(* Shrink: the survivor set is computed from ground truth (standing in for
   the ULFM agreement protocol); the first caller materializes the shared
   state, keyed by (parent id, per-rank shrink epoch), which agrees across
   ranks because shrink is collective.  A barrier on the new communicator
   provides the synchronization the real protocol would. *)
let shrink comm =
  let w = Comm.world comm in
  Comm.count ~ctx:User comm ~op:"MPI_Comm_shrink";
  let epoch = Comm.next_shrink_epoch comm in
  let key = (Comm.id comm, epoch) in
  let shared =
    match Hashtbl.find_opt w.World.shrink_memo key with
    | Some shared -> shared
    | None ->
        let shared = World.fresh_comm w (survivors comm) in
        Hashtbl.add w.World.shrink_memo key shared;
        shared
  in
  let my_world = Comm.world_rank_of comm (Comm.rank comm) in
  let rank =
    let group = shared.World.group in
    let rec go i =
      if i >= Array.length group then Errors.usage "shrink: caller not among survivors"
      else if group.(i) = my_world then i
      else go (i + 1)
    in
    go 0
  in
  let fresh = Comm.make w shared ~rank in
  Collectives.barrier fresh;
  fresh

(* Agreement: survivors deposit their contribution into a shared cell and
   park until the last one closes the round.  Costs a tree's worth of
   latency, charged to every participant. *)
let agree comm v =
  let w = Comm.world comm in
  Comm.count ~ctx:User comm ~op:"MPI_Comm_agree";
  let epoch = Comm.next_agree_epoch comm in
  let key = (Comm.id comm, epoch) in
  let n_survivors = Array.length (survivors comm) in
  let cell =
    match Hashtbl.find_opt w.World.agree_memo key with
    | Some cell -> cell
    | None ->
        let cell = { World.acc = -1; remaining = n_survivors; agree_waiters = [] } in
        Hashtbl.add w.World.agree_memo key cell;
        cell
  in
  let rounds = int_of_float (ceil (log (float_of_int (max 2 n_survivors)) /. log 2.0)) in
  let cost = 2.0 *. float_of_int rounds *. (Netmodel.params w.World.net).latency in
  Engine.delay w.World.engine cost;
  cell.World.acc <- cell.World.acc land v;
  cell.World.remaining <- cell.World.remaining - 1;
  if cell.World.remaining > 0 then
    Engine.suspend w.World.engine (fun resumer ->
        cell.World.agree_waiters <- resumer :: cell.World.agree_waiters)
  else begin
    Hashtbl.remove w.World.agree_memo key;
    let result = cell.World.acc in
    List.iter (fun resumer -> Engine.resume resumer result) cell.World.agree_waiters;
    result
  end
