(* The [engine] experiment: scale and overhead of the simulator core.

   Four measurements, all written to BENCH_engine.json and self-validated
   (the file is re-read; every entry of its "checks" object must be true):

   - {b Speedup} — an identical synthetic halo-exchange workload runs on
     the frozen pre-refactor engine ({!Simnet.Legacy_engine}: binary heap,
     boxed queue entries, unpruned fiber list) and on the calendar-queue
     {!Simnet.Engine}; the events/sec ratio at p=4096 is the refactor's
     measured win and must clear 5x.  The two engines' runs alternate and
     the gate takes the median of the per-pair ratios, so host drift
     during the measurement hits both sides of a pair alike.
   - {b Ranks scaling} — the calendar engine's events/sec across
     p in {256, 1024, 4096, 16384}.  The queue is O(1) amortized per
     event, so throughput must stay roughly flat (within 4x of the best
     point) instead of degrading with the O(log p) heap slope, and the
     p=16384 point must finish inside the smoke-time budget.
   - {b Ties} — the same exchange with zero jitter at
     p in {1024, 4096, 16384}: every rank fires at one timestamp each
     round, the lockstep regime of a bulk-synchronous MPI program.  At
     each p, the median over 3 alternating jittered/jitter-free pairs of
     the events/sec ratio must reach 0.5.
   - {b Zero-alloc steady state} — [Gc.minor_words] across the run,
     divided by events executed: the pooled event loop must stay under a
     small constant per event (the workload's own boxed-float argument
     passing included); the legacy engine's figure is reported alongside.
   - {b Gallery subset} — events/sec over real MPI programs (three
     gallery examples via {!Mpisim.Mpi.with_run_collector}), plus the
     host-profiler pure-observer check: digests, event counts and
     simulated times are identical with profiling Off and Fine. *)

module J = Serde.Json
module Profile = Simnet.Profile

(* The engine surface the synthetic workload needs — satisfied by both
   the calendar engine and the frozen legacy engine. *)
module type CORE = sig
  type t

  val create : unit -> t
  val events_processed : t -> int
  val schedule : t -> delay:float -> (unit -> unit) -> unit
  val run : t -> unit
end

(* Synthetic halo exchange, shaped to be queue-dominated: every rank
   keeps [fanout] self-rescheduling callback chains in flight (its
   neighbour exchanges), each rescheduling with a deterministic
   per-chain delay jitter so events spread over distinct timestamps the
   way real per-link latencies do — or, with [~jitter:false], with one
   shared delay, so each round's events tie — until a shared event
   budget of
   [ranks * fanout * rounds] runs out.  The closures are preallocated —
   one per chain, reused every round — and the budget counter is a
   single hot cell, so the steady state measures the engine, not the
   workload.  The budget drains identically on any engine that executes
   the same schedule, so event counts must agree across engines. *)
module Synth (E : CORE) = struct
  let run ~jitter ~ranks ~fanout ~rounds =
    let e = E.create () in
    let budget = ref (ranks * fanout * rounds) in
    for r = 0 to ranks - 1 do
      for lane = 0 to fanout - 1 do
        let jitter =
          if jitter then
            float_of_int (((r * 2654435761) + (lane * 40503)) land 1023) *. 1e-9
          else 0.0
        in
        let d = 1e-6 +. jitter in
        let rec fire () =
          decr budget;
          if !budget > 0 then E.schedule e ~delay:d fire
        in
        E.schedule e ~delay:((float_of_int lane *. 1e-7) +. jitter) fire
      done
    done;
    (* collect the previous run's garbage now, not inside this run's
       timing: the legacy engine leaves ~15 words/event behind *)
    Gc.full_major ();
    let w0 = Gc.minor_words () in
    let t0 = Profile.now_ns () in
    E.run e;
    let t1 = Profile.now_ns () in
    let w1 = Gc.minor_words () in
    let events = E.events_processed e in
    let wall = float_of_int (t1 - t0) /. 1e9 in
    (events, wall, (w1 -. w0) /. float_of_int events)
end

module Calendar = Synth (Simnet.Engine)
module Legacy = Synth (Simnet.Legacy_engine)

(* One self-rescheduling exchange chain per rank: the p=4096 point then
   holds 4096 concurrent events, the regime the calendar queue is sized
   for (and where the legacy heap pays its full O(log n) depth). *)
let fanout = 1
let event_target = 2_000_000

let rounds_for ranks = max 2 (event_target / (ranks * fanout))

let evps events wall = float_of_int events /. wall

let median xs = List.nth (List.sort Float.compare xs) (List.length xs / 2)

(* [n] pairs [(a (), b ())], alternating which of the two runs first. *)
let alternating_pairs n a b =
  List.init n (fun i ->
      if i mod 2 = 0 then
        let x = a () in
        (x, b ())
      else
        let y = b () in
        (a (), y))

(* Speedup pairs at the headline size: [n] pairs of one legacy and one
   calendar run, alternating which engine goes first.  Host speed drifts
   over seconds, so timing all runs of one engine before the other's
   skews the ratio; within a pair the drift is small.  Returns the event
   count, the median per-pair speedup, and each engine's median
   events/sec and minor words/event. *)
let speedup_pairs ~n ~ranks ~rounds =
  let pairs =
    alternating_pairs n
      (fun () -> Legacy.run ~jitter:true ~ranks ~fanout ~rounds)
      (fun () -> Calendar.run ~jitter:true ~ranks ~fanout ~rounds)
  in
  let events, _, _ = fst (List.hd pairs) in
  List.iter
    (fun ((le, _, _), (ce, _, _)) ->
      if le <> events || ce <> events then
        failwith
          (Printf.sprintf "engine: legacy and calendar event counts diverged (%d vs %d)" le ce))
    pairs;
  let side f = median (List.map f pairs) in
  ( events,
    side (fun ((_, lw, _), (_, cw, _)) -> lw /. cw),
    side (fun ((e, w, _), _) -> evps e w),
    side (fun (_, (e, w, _)) -> evps e w),
    side (fun ((_, _, a), _) -> a),
    side (fun (_, (_, _, a)) -> a) )

(* ---------------- gallery subset ---------------- *)

let gallery_subset : (string * (unit -> string)) list =
  [
    ("halo_exchange", Gallery.Halo_exchange.digest);
    ("word_count", Gallery.Word_count.digest);
    ("sample_sort_example", Gallery.Sample_sort_example.digest);
  ]

type gallery_obs = {
  g_digests : string list;
  g_events : int;
  g_sim_times : float list;
  g_wall : float;
}

let observe_gallery () =
  let t0 = Profile.now_ns () in
  let (digests : string list), summaries =
    Mpisim.Mpi.with_run_collector (fun () ->
        List.map (fun (_, digest) -> digest ()) gallery_subset)
  in
  let t1 = Profile.now_ns () in
  {
    g_digests = digests;
    g_events = List.fold_left (fun a s -> a + s.Mpisim.Mpi.rs_events) 0 summaries;
    g_sim_times = List.map (fun s -> s.Mpisim.Mpi.rs_sim_time) summaries;
    g_wall = float_of_int (t1 - t0) /. 1e9;
  }

(* ---------------- self-validation ---------------- *)

let validate_json ~path ~json =
  let ic = open_in path in
  let text = really_input_string ic (in_channel_length ic) in
  close_in ic;
  if not (J.equal (J.parse text) json) then
    failwith (Printf.sprintf "engine: %s did not round-trip through Serde.Json" path);
  let checks =
    match J.member "checks" (J.parse text) with
    | Some (J.Obj kvs) -> kvs
    | _ -> failwith "engine: BENCH_engine.json lacks a checks object"
  in
  List.iter
    (fun (name, v) ->
      if v <> J.Bool true then failwith (Printf.sprintf "engine: check %S failed" name))
    checks

(* Conservative absolute floor for the calendar engine on the p=4096
   synthetic exchange.  Calibrated at roughly 1/10 of the throughput on
   the development machine, so it flags an order-of-magnitude regression
   (a reverted queue, an accidentally quadratic loop) without tripping on
   slower CI hardware. *)
let evps_floor = 1_000_000.0

(* Per-event minor-heap budget for the pooled loop, in words.  The
   workload itself boxes one float argument per event (~3 words); the
   engine must add nothing on the steady-state path.  The legacy engine
   measures ~4-5x this. *)
let words_per_event_budget = 8.0

(* Host-seconds budget for the p=16384 scaling point (CI smoke). *)
let p16384_budget_s = 60.0

let run () =
  let p_main = 4096 in
  Printf.printf "synthetic halo exchange: %d lanes/rank, ~%d events per point\n\n" fanout
    event_target;

  (* speedup at the headline size: median of the per-pair ratios *)
  let n_pairs = 7 in
  let c_events, speedup, l_evps, c_evps, l_wpe, c_wpe =
    speedup_pairs ~n:n_pairs ~ranks:p_main ~rounds:(rounds_for p_main)
  in
  Printf.printf "p=%d (%d events, median of %d alternating pairs):\n" p_main c_events n_pairs;
  Printf.printf "  legacy   (binary heap): %10.0f events/s  %5.1f words/event\n" l_evps l_wpe;
  Printf.printf "  calendar:               %10.0f events/s  %5.1f words/event\n" c_evps c_wpe;
  Printf.printf "  speedup: %.2fx\n\n" speedup;

  (* ranks scaling on the calendar engine *)
  let sizes = [ 256; 1024; 4096; 16384 ] in
  let scaling =
    List.map
      (fun p ->
        let events, wall, _ =
          Calendar.run ~jitter:true ~ranks:p ~fanout ~rounds:(rounds_for p)
        in
        let e = evps events wall in
        Printf.printf "  p=%-6d %10.0f events/s  (%d events, %.2fs)\n" p e events wall;
        (p, e, wall))
      sizes
  in
  (* jitter-free points: pairs alternate which run goes first, as for
     the speedup; reported events/sec and wall are the medians *)
  let tie_pairs = 3 in
  let ties =
    List.map
      (fun p ->
        let run jitter () = Calendar.run ~jitter ~ranks:p ~fanout ~rounds:(rounds_for p) in
        let pairs = alternating_pairs tie_pairs (run true) (run false) in
        let ratio = median (List.map (fun ((_, jw, _), (_, tw, _)) -> jw /. tw) pairs) in
        let e = median (List.map (fun (_, (ev, w, _)) -> evps ev w) pairs) in
        let wall = median (List.map (fun (_, (_, w, _)) -> w) pairs) in
        Printf.printf "  p=%-6d %10.0f events/s  jitter-free, %.2fx of jittered\n" p e ratio;
        (p, e, wall, ratio))
      [ 1024; 4096; 16384 ]
  in
  let ties_within_2x = List.for_all (fun (_, _, _, ratio) -> ratio >= 0.5) ties in
  let best = List.fold_left (fun a (_, e, _) -> Float.max a e) 0.0 scaling in
  let worst = List.fold_left (fun a (_, e, _) -> Float.min a e) infinity scaling in
  let scaling_flat = worst >= 0.25 *. best in
  let p16384_wall =
    match List.rev scaling with (_, _, w) :: _ -> w | [] -> infinity
  in
  Printf.printf "  flatness: worst/best = %.2f\n\n" (worst /. best);

  (* gallery subset, host profiler off vs fine *)
  let off = Profile.with_level Profile.Off observe_gallery in
  Profile.reset ();
  let fine = Profile.with_level Profile.Fine observe_gallery in
  let counter name =
    let snap = Profile.snapshot () in
    match List.assoc_opt name snap.Profile.counters with Some n -> n | None -> 0
  in
  let env_made = counter "mpi.envelopes_made" in
  let env_reused = counter "mpi.envelopes_reused" in
  Profile.reset ();
  let pure_observer =
    off.g_digests = fine.g_digests
    && off.g_events = fine.g_events
    && off.g_sim_times = fine.g_sim_times
  in
  let g_evps = evps off.g_events off.g_wall in
  Printf.printf "gallery subset (%s):\n"
    (String.concat ", " (List.map fst gallery_subset));
  Printf.printf "  %d events in %.2fs host = %10.0f events/s\n" off.g_events off.g_wall g_evps;
  Printf.printf "  profiler off vs fine: %s\n"
    (if pure_observer then "bit-identical" else "DIVERGED");
  Printf.printf "  envelope pool (fine run): %d made, %d reused (%.0f%% reuse)\n\n" env_made
    env_reused
    (100.0 *. float_of_int env_reused /. float_of_int (max 1 (env_made + env_reused)));

  let checks =
    [
      ("synthetic_events_equal", true);
      ("speedup_ge_5x", speedup >= 5.0);
      ("calendar_evps_floor", c_evps >= evps_floor);
      ("scaling_flat_within_4x", scaling_flat);
      ("ties_within_2x_of_jittered", ties_within_2x);
      ("p16384_in_budget", p16384_wall <= p16384_budget_s);
      ("zero_alloc_steady_state", c_wpe <= words_per_event_budget);
      ("profiler_pure_observer", pure_observer);
      ("envelopes_reused", env_reused > env_made);
    ]
  in
  List.iter (fun (name, ok) -> Printf.printf "  %-28s %b\n" name ok) checks;

  let json =
    J.Obj
      [
        ("experiment", J.Str "engine");
        ( "synthetic",
          J.Obj
            [
              ("ranks", J.Num (float_of_int p_main));
              ("fanout", J.Num (float_of_int fanout));
              ("events", J.Num (float_of_int c_events));
              ("legacy_events_per_s", J.Num l_evps);
              ("calendar_events_per_s", J.Num c_evps);
              ("speedup", J.Num speedup);
              ("speedup_pairs", J.Num (float_of_int n_pairs));
              ("tie_pairs", J.Num (float_of_int tie_pairs));
              ("legacy_minor_words_per_event", J.Num l_wpe);
              ("calendar_minor_words_per_event", J.Num c_wpe);
            ] );
        ( "scaling",
          J.List
            (List.map
               (fun (p, e, w) ->
                 J.Obj
                   [
                     ("ranks", J.Num (float_of_int p));
                     ("events_per_s", J.Num e);
                     ("wall_s", J.Num w);
                   ])
               scaling) );
        ( "ties",
          J.List
            (List.map
               (fun (p, e, w, ratio) ->
                 J.Obj
                   [
                     ("ranks", J.Num (float_of_int p));
                     ("events_per_s", J.Num e);
                     ("wall_s", J.Num w);
                     ("ratio_to_jittered", J.Num ratio);
                   ])
               ties) );
        ( "gallery",
          J.Obj
            [
              ("examples", J.List (List.map (fun (n, _) -> J.Str n) gallery_subset));
              ("events", J.Num (float_of_int off.g_events));
              ("wall_s", J.Num off.g_wall);
              ("events_per_s", J.Num g_evps);
              ("envelopes_made", J.Num (float_of_int env_made));
              ("envelopes_reused", J.Num (float_of_int env_reused));
            ] );
        ("checks", J.Obj (List.map (fun (n, ok) -> (n, J.Bool ok)) checks));
      ]
  in
  let path = "BENCH_engine.json" in
  let oc = open_out path in
  output_string oc (J.to_string json);
  output_string oc "\n";
  close_out oc;
  validate_json ~path ~json;
  Printf.printf "\n  wrote %s (all checks pass)\n%!" path
