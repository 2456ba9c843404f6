(* The three workloads: inputs prebuilt from a seed, one [Mpi.run] per
   call of [run], and an oracle that checks the output against a result the
   benchmark computes itself. *)

module Mpi = Mpisim.Mpi
module D = Mpisim.Datatype
module K = Kamping.Comm
module G = Graphgen.Distgraph

type outcome = {
  failure : string option;  (** [None] when the run passed its oracle *)
  digest : int;  (** oracle digest of the output *)
  wall_s : float;  (** host seconds from entering [Mpi.run] to its return *)
  t_entry : float;
  t_return : float;
  events : int;
  sim_time : float;
  profile : Mpisim.Profiling.snapshot;
  minor_words : float;
  promoted_words : float;
  major_collections : int;
}

type instance = {
  ranks : int;
  run : plain:bool -> trace:bool -> outcome;
      (** [plain] swaps the Kamping call for its plain counterpart;
          [trace] turns on the simulator's own event recorder *)
  corrupt_rejected : unit -> bool;
}

let mix h x = ((h * 1_000_003) lxor x) land max_int

(* Runs one SPMD program and checks its per-rank results.  Input copies
   and the full major GC happen before the clock starts. *)
let execute ?fabric ~trace ~ranks body ~check =
  Gc.full_major ();
  let g0 = Gc.quick_stat () in
  let t_entry = Unix.gettimeofday () in
  let res = try Ok (Mpi.run ?fabric ~trace ~ranks body) with e -> Error e in
  let t_return = Unix.gettimeofday () in
  let g1 = Gc.quick_stat () in
  let base failure digest (r : _ Mpi.run_result option) =
    {
      failure;
      digest;
      wall_s = t_return -. t_entry;
      t_entry;
      t_return;
      events = (match r with Some r -> r.Mpi.events | None -> 0);
      sim_time = (match r with Some r -> r.Mpi.sim_time | None -> 0.0);
      profile =
        (match r with
        | Some r -> r.Mpi.profile
        | None -> Mpisim.Profiling.snapshot (Mpisim.Profiling.create ()));
      minor_words = g1.Gc.minor_words -. g0.Gc.minor_words;
      promoted_words = g1.Gc.promoted_words -. g0.Gc.promoted_words;
      major_collections = g1.Gc.major_collections - g0.Gc.major_collections;
    }
  in
  match res with
  | Error e -> base (Some ("raised " ^ Printexc.to_string e)) 0 None
  | Ok r -> (
      match r.Mpi.diagnostics with
      | d :: _ -> base (Some ("checker: " ^ Mpisim.Checker.to_string d)) 0 (Some r)
      | [] -> (
          match Array.find_opt Result.is_error r.Mpi.results with
          | Some (Error e) -> base (Some ("rank failed: " ^ Printexc.to_string e)) 0 (Some r)
          | _ -> (
              let out = Array.map Result.get_ok r.Mpi.results in
              match check out with
              | Ok digest -> base None digest (Some r)
              | Error why -> base (Some ("oracle: " ^ why)) 0 (Some r))))

(* Runs the workload once, then feeds the oracle a corrupted copy of the
   output: true when the clean output passes and the corrupted one fails. *)
let make ~ranks ~go ~check ~corrupt =
  let rejected () =
    let verdict = ref false in
    ignore
      (go ~plain:false ~trace:false (fun out ->
           if Result.is_ok (check out) then begin
             corrupt out;
             verdict := Result.is_error (check out)
           end;
           Ok 0));
    !verdict
  in
  { ranks; run = (fun ~plain ~trace -> go ~plain ~trace check); corrupt_rejected = rejected }

let first_error n f =
  let rec go i = if i = n then Ok () else match f i with Ok () -> go (i + 1) | e -> e in
  go 0

(* ---- lockstep: ring sendrecv steps plus a convergence allreduce ------- *)

let ring_steps = 10
let ring_ints = 8

let payload base ~src ~step ~slot = base.(src) + (step * ring_ints) + slot

let lockstep_body ~base ~iters ~plain comm =
  let r = Mpisim.Comm.rank comm and p = Mpisim.Comm.size comm in
  Markers.begin_ comm;
  let kc = K.wrap comm in
  let right = (r + 1) mod p and left = (r + p - 1) mod p in
  let send = Array.make ring_ints 0 and recv = Array.make ring_ints 0 in
  let ring = ref 0 and sums = Array.make iters 0 in
  for it = 0 to iters - 1 do
    for s = 0 to ring_steps - 1 do
      let step = (it * ring_steps) + s in
      for i = 0 to ring_ints - 1 do
        send.(i) <- payload base ~src:r ~step ~slot:i
      done;
      Markers.enter r Markers.sendrecv;
      ignore (Mpisim.P2p.sendrecv comm D.int ~send ~dst:right ~stag:s ~recv ~src:left ~rtag:s ());
      Markers.exit r Markers.sendrecv;
      Array.iter (fun x -> ring := mix !ring x) recv
    done;
    let v = (base.(r) land 0xffff) + it in
    sums.(it) <-
      (if plain then begin
         let recvbuf = [| 0 |] in
         Mpisim.Collectives.allreduce comm D.int Mpisim.Op.int_sum ~sendbuf:[| v |] ~recvbuf
           ~count:1;
         recvbuf.(0)
       end
       else begin
         Markers.enter r Markers.allreduce_single;
         let s = K.allreduce_single kc D.int Mpisim.Op.int_sum v in
         Markers.exit r Markers.allreduce_single;
         s
       end)
  done;
  Markers.end_ r;
  (!ring, sums)

(* Oracle: every received ring value is the left neighbour's payload, and
   each allreduce equals its closed form. *)
let lockstep_check ~base ~iters out =
  let p = Array.length base in
  let low = Array.fold_left (fun a b -> a + (b land 0xffff)) 0 base in
  let expect_ring r =
    let left = (r + p - 1) mod p and h = ref 0 in
    for step = 0 to (iters * ring_steps) - 1 do
      for slot = 0 to ring_ints - 1 do
        h := mix !h (payload base ~src:left ~step ~slot)
      done
    done;
    !h
  in
  let checked =
    first_error p (fun r ->
        let ring, sums = out.(r) in
        if ring <> expect_ring r then Error (Printf.sprintf "rank %d received a wrong ring value" r)
        else
          first_error iters (fun it ->
              if sums.(it) = low + (p * it) then Ok ()
              else Error (Printf.sprintf "rank %d allreduce %d is %d" r it sums.(it))))
  in
  Result.map
    (fun () -> Array.fold_left (fun h (ring, sums) -> Array.fold_left mix (mix h ring) sums) 0 out)
    checked

let lockstep ~ranks ~iters ~seed =
  let rng = Simnet.Rng.create (Int64.of_int seed) in
  let base = Array.init ranks (fun _ -> Simnet.Rng.int rng (1 lsl 40)) in
  let go ~plain ~trace check = execute ~trace ~ranks (lockstep_body ~base ~iters ~plain) ~check in
  make ~ranks ~go ~check:(lockstep_check ~base ~iters) ~corrupt:(fun out ->
      let ring, sums = out.(ranks - 1) in
      let sums = Array.copy sums in
      sums.(iters - 1) <- sums.(iters - 1) + 1;
      out.(ranks - 1) <- (ring, sums))

(* Rank body of an app workload: one marked call into the app library. *)
let app_entry f comm =
  let r = Mpisim.Comm.rank comm in
  Markers.begin_ comm;
  Markers.enter r Markers.app_entry;
  let out = f comm r in
  Markers.exit r Markers.app_entry;
  Markers.end_ r;
  out

(* ---- sort_fig8: Fig. 8's sample sort -------------------------------- *)

(* Order-independent multiset checksum: count, sum and sum of mixed keys. *)
let multiset arrays =
  let n = ref 0 and s = ref 0 and h = ref 0 in
  Array.iter
    (Array.iter (fun x ->
         incr n;
         s := !s + x;
         h := !h + Int64.to_int (Simnet.Rng.hash64 (Int64.of_int x))))
    arrays;
  (!n, !s, !h)

let sort_check ~input_sum out =
  let p = Array.length out in
  let sorted =
    first_error p (fun r ->
        let a = out.(r) in
        let ok = ref true in
        for i = 1 to Array.length a - 1 do
          if a.(i - 1) > a.(i) then ok := false
        done;
        if not !ok then Error (Printf.sprintf "rank %d output is not sorted" r) else Ok ())
  in
  let last = ref min_int and across = ref true in
  Array.iter
    (fun a ->
      if Array.length a > 0 then begin
        if a.(0) < !last then across := false;
        last := a.(Array.length a - 1)
      end)
    out;
  match sorted with
  | Error e -> Error e
  | Ok () when not !across -> Error "rank outputs overlap"
  | Ok () ->
      let ((n, s, h) as sum) = multiset out in
      if sum <> input_sum then Error "output multiset differs from the input"
      else Ok (mix (mix (mix 0 n) s) h)

let sort_fig8 ~ranks ~n_per_rank ~seed =
  let input =
    Array.init ranks (fun rank -> Apps.Ss_common.generate_input ~rank ~n_per_rank ~seed)
  in
  let input_sum = lazy (multiset input) in
  let go ~plain ~trace check =
    let data = Array.map Array.copy input in
    let sort = if plain then Apps.Ss_mpi.sort else Apps.Ss_kamping.sort in
    execute ~trace ~ranks (app_entry (fun comm r -> sort comm data.(r))) ~check
  in
  let check out = sort_check ~input_sum:(Lazy.force input_sum) out in
  make ~ranks ~go ~check ~corrupt:(fun out ->
      match Array.find_opt (fun a -> Array.length a > 0) out with
      | Some a -> a.(0) <- a.(0) + 1
      | None -> ())

(* ---- bfs_sparse: Fig. 10's BFS over the NBX sparse all-to-all ------- *)

(* Sequential BFS over the union of the prebuilt per-rank graphs. *)
let sequential_bfs graphs ~src =
  let n = graphs.(0).G.global_n in
  let dist = Array.make n Apps.Bfs_common.undef in
  let owner = Array.make n 0 in
  Array.iteri
    (fun r g ->
      for i = 0 to g.G.local_n - 1 do
        owner.(g.G.first_vertex + i) <- r
      done)
    graphs;
  let queue = Queue.create () in
  dist.(src) <- 0;
  Queue.push src queue;
  while not (Queue.is_empty queue) do
    let v = Queue.pop queue in
    let g = graphs.(owner.(v)) in
    G.iter_neighbors g (v - g.G.first_vertex) (fun u ->
        if dist.(u) = Apps.Bfs_common.undef then begin
          dist.(u) <- dist.(v) + 1;
          Queue.push u queue
        end)
  done;
  dist

let bfs_check ~graphs ~expect out =
  let checked =
    first_error (Array.length out) (fun r ->
        let g = graphs.(r) in
        let d = out.(r) in
        if Array.length d <> g.G.local_n then Error (Printf.sprintf "rank %d: wrong length" r)
        else
          first_error g.G.local_n (fun i ->
              if d.(i) = expect.(g.G.first_vertex + i) then Ok ()
              else Error (Printf.sprintf "vertex %d: distance %d" (g.G.first_vertex + i) d.(i))))
  in
  Result.map (fun () -> Array.fold_left (Array.fold_left mix) 0 out) checked

let bfs_sparse ~ranks ~vertices_per_rank ~avg_degree ~fabric_spec ~seed =
  let global_n = vertices_per_rank * ranks in
  let graphs =
    Array.init ranks (fun rank ->
        Graphgen.Generators.rhg_like ~rank ~comm_size:ranks ~global_n ~avg_degree ~seed)
  in
  let fabric = Simnet.Netmodel.fabric_of_spec ~ranks fabric_spec in
  let src = Simnet.Rng.int (Simnet.Rng.create (Int64.of_int seed)) global_n in
  let expect = lazy (sequential_bfs graphs ~src) in
  (* the NBX plugin has no plain counterpart: [plain] runs the same code *)
  let go ~plain:_ ~trace check =
    execute ~fabric ~trace ~ranks
      (app_entry (fun comm r -> Apps.Bfs_strategies.bfs_sparse comm graphs.(r) ~src))
      ~check
  in
  let check out = bfs_check ~graphs ~expect:(Lazy.force expect) out in
  make ~ranks ~go ~check ~corrupt:(fun out -> out.(0).(0) <- out.(0).(0) + 1)
