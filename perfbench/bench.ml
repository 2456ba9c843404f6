(* Host-cost benchmark of real MPI programs on the simulator.

     bench.exe --workload lockstep|sort_fig8|bfs_sparse --seed N --seconds S --trace 0|1

   --trace 0 times repeated [Mpi.run]s of the workload for S seconds and
   prints the end-to-end metrics; --trace 1 runs rounds of observer variants
   and prints the per-layer metrics.  Either way the last line of standard
   output is one JSON object whose "correct" is false when a run or a check
   failed.  Bad arguments exit with code 2. *)

module W = Workloads
module P = Mpisim.Profiling

(* The plain counterpart of a workload's Kamping calls, if it has one, and
   whether it must issue exactly the same MPI calls. *)
type plain = No_plain | Same_calls | Own_calls

type spec = {
  name : string;
  build : seed:int -> W.instance;
  tiny : seed:int -> W.instance;  (** p=4 instance for the self-tests *)
  plain : plain;
  rounds : int;  (** rounds of observer variants in a traced run *)
  warmups : int;  (** warm-up runs before the timed runs of --trace 0 *)
  ties : bool;  (** flat model: ranks fire at equal timestamps *)
}

let lockstep_iters = 2

let specs =
  [
    {
      name = "lockstep";
      build = (fun ~seed -> W.lockstep ~ranks:2048 ~iters:lockstep_iters ~seed);
      tiny = (fun ~seed -> W.lockstep ~ranks:4 ~iters:lockstep_iters ~seed);
      plain = Same_calls;
      rounds = 3;
      warmups = 3;
      ties = true;
    };
    {
      name = "sort_fig8";
      build = (fun ~seed -> W.sort_fig8 ~ranks:256 ~n_per_rank:20_000 ~seed);
      tiny = (fun ~seed -> W.sort_fig8 ~ranks:4 ~n_per_rank:200 ~seed);
      plain = Own_calls;
      rounds = 1;
      warmups = 1;
      ties = true;
    };
    {
      name = "bfs_sparse";
      build =
        (fun ~seed ->
          W.bfs_sparse ~ranks:256 ~vertices_per_rank:1024 ~avg_degree:8 ~fabric_spec:"two:48" ~seed);
      tiny =
        (fun ~seed ->
          W.bfs_sparse ~ranks:4 ~vertices_per_rank:64 ~avg_degree:8 ~fabric_spec:"two:2" ~seed);
      plain = No_plain;
      rounds = 2;
      warmups = 3;
      ties = false;
    };
  ]

let median xs =
  let a = Array.of_list xs in
  Array.sort compare a;
  let n = Array.length a in
  if n = 0 then nan else if n mod 2 = 1 then a.(n / 2) else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.0

let now = Unix.gettimeofday

(* Observers off: the default checker level, no trace, no host profiler,
   flat topology unless the workload passes a fabric. *)
let quiet () =
  Unix.putenv "MPISIM_TOPOLOGY" "";
  Mpisim.Checker.set_level Mpisim.Checker.Light;
  Simnet.Profile.set_level Simnet.Profile.Off;
  Markers.on := false

(* ---- metrics output --------------------------------------------------- *)

let metrics : (string * float * string) list ref = ref []
let metric name value unit = metrics := (name, value, unit) :: !metrics

let json_number v =
  if not (Float.is_finite v) then "0"
  else if Float.is_integer v && Float.abs v < 1e15 then Printf.sprintf "%.0f" v
  else Printf.sprintf "%.17g" v

let emit ~correct ~attempted ~failed =
  let ms = List.rev !metrics in
  List.iter (fun (n, v, u) -> Printf.printf "%-52s %s %s\n" n (json_number v) u) ms;
  Printf.printf "fail_rate %s (%d failed of %d attempted)\n"
    (json_number (float_of_int failed /. float_of_int (max 1 attempted)))
    failed attempted;
  let body =
    String.concat ", "
      (List.map
         (fun (n, v, u) ->
           Printf.sprintf "%S: {\"value\": %s, \"unit\": %S}" n (json_number v) u)
         ms)
  in
  Printf.printf "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}\n" correct
    attempted failed body

(* ---- host speed ------------------------------------------------------- *)

(* The host's speed drifts by up to a quarter within minutes, for any code
   (a plain CPU loop shows it too): more than the changes the end-to-end
   metrics must resolve.  So a probe brackets every timed run: a fixed
   integer kernel, a sort and a dependent walk over a 512 KB array.  It
   allocates nothing, so its time depends neither on the workload's heap
   nor on the repository's code.  End-to-end times are reported scaled to
   a host on which the probe takes [probe_ref_s]. *)
let probe_ref_s = 0.025
let probe_buf = Array.make (1 lsl 16) 0

let probe_kernel () =
  let a = probe_buf and n = Array.length probe_buf in
  let x = ref 12345 in
  for i = 0 to n - 1 do
    x := ((!x * 1103515245) + 12345) land 0x3fffffff;
    a.(i) <- !x
  done;
  Array.sort Int.compare a;
  let j = ref 0 in
  for _ = 1 to n do
    j := a.(!j) land (n - 1)
  done;
  ignore (Sys.opaque_identity !j)

(* Median of five probe times, in seconds: a single one is off by up to a
   quarter. *)
let probe () =
  median
    (List.init 5 (fun _ ->
         let t0 = now () in
         probe_kernel ();
         now () -. t0))

let scaled t ~before ~after = t *. probe_ref_s /. ((before +. after) /. 2.0)

(* ---- --trace 0: end-to-end metrics ------------------------------------ *)

(* Set-up is input generation and fabric construction, repeated
   [setup_repeats] times for a steady median, plus the untimed warm-up runs
   that grow the heap to its working size (the first run of a process is up
   to a third slower).  The first run's extra cost follows the host's memory
   state more than the probe does, so a single warm-up is the least steady
   part of the set-up: a workload whose run is short warms up [warmups]
   times and reports their median.  Work a change moves into the input
   builds or into every run's warm-up shows in [setup_s]. *)
let setup_repeats = 5

let end_to_end spec ~seed ~seconds =
  (* The first probe of a process runs cold. *)
  ignore (probe ());
  let inst = ref None in
  let build_times =
    List.init setup_repeats (fun _ ->
        inst := None;
        Gc.full_major ();
        let t0 = now () in
        inst := Some (spec.build ~seed);
        now () -. t0)
  in
  let inst = Option.get !inst in
  (* One run bracketed by probes: the outcome, its scaled wall and the probe
     after it, which brackets the next run too. *)
  let timed_run before =
    let o = inst.W.run ~plain:false ~trace:false in
    let after = probe () in
    (match o.W.failure with
    | Some why -> Printf.printf "run failed: %s\n%!" why
    | None -> ());
    (o, scaled o.W.wall_s ~before ~after, after)
  in
  let p0 = probe () in
  let rec warm_up k before acc =
    if k = 0 then List.rev acc
    else
      let ((_, _, after) as r) = timed_run before in
      warm_up (k - 1) after (r :: acc)
  in
  let warms = warm_up spec.warmups p0 [] in
  let _, _, p1 = List.nth warms (List.length warms - 1) in
  (* Start another run only while it is expected to end within [seconds]. *)
  let start = now () in
  let rec loop acc before =
    let ((_, _, after) as r) = timed_run before in
    let acc = r :: acc in
    if now () -. start +. median (List.map (fun (o, _, _) -> o.W.wall_s) acc) <= seconds then
      loop acc after
    else List.rev acc
  in
  let timed = loop [] p1 in
  let outcomes rs = List.map (fun (o, _, _) -> o) rs in
  let failed =
    List.length (List.filter (fun o -> o.W.failure <> None) (outcomes warms @ outcomes timed))
  in
  let walls rs = List.map (fun (_, w, _) -> w) rs in
  metric "wall_s" (median (walls timed)) "s";
  metric "peak_rss_mb" (float_of_int (Simnet.Profile.peak_rss_kb ()) /. 1024.0) "MB";
  metric "setup_s" (scaled (median build_times) ~before:p0 ~after:p0 +. median (walls warms)) "s";
  let unscaled rs =
    String.concat " " (List.map (fun o -> Printf.sprintf "%.4f" o.W.wall_s) (outcomes rs))
  in
  Printf.printf "unscaled: build %.4f s; %d warm-up runs: %s; %d timed runs: %s\n"
    (median build_times) (List.length warms) (unscaled warms) (List.length timed) (unscaled timed);
  Printf.printf "probe s: %s\n"
    (String.concat " "
       (List.map (Printf.sprintf "%.4f") (p0 :: List.map (fun (_, _, p) -> p) (warms @ timed))));
  emit ~correct:(failed = 0) ~attempted:(List.length warms + List.length timed) ~failed

(* ---- --trace 1: per-layer metrics ------------------------------------- *)

(* Host ns per event of the bare engine: [p] callbacks, each rescheduling
   itself, at equal timestamps ([ties]) or at per-callback periods that
   keep the timestamps apart. *)
let engine_floor ~p ~ties ~events =
  let e = Simnet.Engine.create () in
  let left = ref events in
  let golden = 0.6180339887498949 in
  let cbs = Array.make p ignore in
  for i = 0 to p - 1 do
    let delay = if ties then 1e-6 else 1e-6 *. (1.0 +. Float.rem (float_of_int i *. golden) 1.0) in
    cbs.(i) <-
      (fun () ->
        decr left;
        if !left > 0 then Simnet.Engine.schedule e ~delay cbs.(i))
  done;
  Array.iter (fun f -> Simnet.Engine.schedule e ~delay:0.0 f) cbs;
  Gc.full_major ();
  let t0 = now () in
  Simnet.Engine.run e;
  let dt = now () -. t0 in
  1e9 *. dt /. float_of_int (Simnet.Engine.events_processed e)

let checks : (string * bool) list ref = ref []

let check name ok =
  Printf.printf "check %-58s %s\n%!" name (if ok then "ok" else "FAILED");
  checks := (name, ok) :: !checks

let same_run (a : W.outcome) (b : W.outcome) =
  a.W.events = b.W.events && a.W.sim_time = b.W.sim_time && a.W.digest = b.W.digest

let same_mpi (a : W.outcome) (b : W.outcome) =
  a.W.profile.P.calls = b.W.profile.P.calls
  && a.W.profile.P.messages = b.W.profile.P.messages
  && a.W.profile.P.bytes = b.W.profile.P.bytes
  && a.W.sim_time = b.W.sim_time

let total_calls (o : W.outcome) = List.fold_left (fun a (_, n) -> a + n) 0 o.W.profile.P.calls

(* The attribution may leave at most this share of the traced wall time
   unattributed. *)
let closure_tolerance = 0.02
let closes a = Float.abs (Markers.covered a -. 1.0) <= closure_tolerance

let with_markers f =
  Markers.clear ();
  Markers.on := true;
  Fun.protect ~finally:(fun () -> Markers.on := false) f

(* Self-tests on tiny instances: every oracle rejects a corrupted output,
   and the marker bookkeeping attributes a known timeline exactly. *)
let self_tests ~seed =
  List.iter
    (fun s -> check ("oracle rejects corruption: " ^ s.name) ((s.tiny ~seed).W.corrupt_rejected ()))
    specs;
  let code r k c = Markers.encode ~rank:r ~kind:k ~call:c in
  let attribute tl =
    Markers.attribute ~t_entry:0.0 ~t_return:6.0 ~n:(Array.length tl)
      ~time:(fun i -> fst tl.(i))
      ~code:(fun i -> snd tl.(i))
  in
  let a =
    attribute
      Markers.
        [|
          (1.0, code 0 Begin 0); (1.5, code 0 Enter sendrecv); (2.0, code 1 Begin 0);
          (2.25, code 1 Enter sendrecv); (3.0, code 0 Exit sendrecv); (4.0, code 0 End 0);
          (4.5, code 1 Exit sendrecv); (5.0, code 1 End 0);
        |]
  in
  check "markers: synthetic timeline attributed exactly"
    (a.Markers.startup_s = 1.0 && a.Markers.teardown_s = 1.0 && a.Markers.self_s = 2.25
    && a.Markers.call_s.(Markers.sendrecv) = 1.75
    && a.Markers.call_count.(Markers.sendrecv) = 2
    && a.Markers.unattributed_s = 0.0 && closes a);
  (* Rank 0 suspends outside any call between its [Exit] at 3.0 and its
     [End] at 5.0: those 2 s, less rank 1's 0.5 s of self time, belong to
     no call. *)
  let a =
    attribute
      Markers.
        [|
          (1.0, code 0 Begin 0); (1.5, code 0 Enter sendrecv); (2.0, code 1 Begin 0);
          (2.25, code 1 Enter sendrecv); (3.0, code 0 Exit sendrecv); (4.0, code 1 Exit sendrecv);
          (4.5, code 1 End 0); (5.0, code 0 End 0);
        |]
  in
  check "markers: suspension outside a call is unattributed and fails closure"
    (a.Markers.unattributed_s = 1.5 && a.Markers.self_s = 1.25 && not (closes a));
  let tiny = (List.hd specs).tiny ~seed in
  let o, a =
    with_markers (fun () ->
        let o = tiny.W.run ~plain:false ~trace:false in
        (o, Markers.attribute_recorded ~t_entry:o.W.t_entry ~t_return:o.W.t_return))
  in
  check "markers: p=4 lockstep timeline well formed" (Markers.well_formed ~ranks:4);
  check "markers: p=4 lockstep call counts"
    (o.W.failure = None
    && a.Markers.call_count.(Markers.sendrecv) = 4 * lockstep_iters * W.ring_steps
    && a.Markers.call_count.(Markers.allreduce_single) = 4 * lockstep_iters
    && P.calls_of "MPI_Sendrecv" o.W.profile = 4 * lockstep_iters * W.ring_steps);
  check "markers: p=4 lockstep attribution closes" (closes a)

let safe_div a b = if b = 0.0 then 0.0 else a /. b

(* The MPI calls and collective algorithms the three workloads issue at
   this commit; anything else is counted under [other]. *)
let call_names =
  [ "MPI_Allgather"; "MPI_Allreduce"; "MPI_Alltoall"; "MPI_Alltoallv"; "MPI_Ibarrier";
    "MPI_Iprobe"; "MPI_Isend"; "MPI_Issend"; "MPI_Recv"; "MPI_Sendrecv" ]

let algo_names =
  [ "MPI_Allgather[bruck]"; "MPI_Allreduce[node_leader]"; "MPI_Allreduce[recursive_doubling]";
    "MPI_Alltoall[bruck]" ]

(* Metric names allow no brackets: MPI_Alltoall[bruck] -> MPI_Alltoall.bruck *)
let metric_name s =
  String.concat "" (String.split_on_char ']' (String.map (fun c -> if c = '[' then '.' else c) s))

let named_counts prefix names table =
  List.iter
    (fun n ->
      metric (prefix ^ metric_name n)
        (float_of_int (Option.value ~default:0 (List.assoc_opt n table)))
        "count")
    names;
  let other = List.fold_left (fun a (n, c) -> if List.mem n names then a else a + c) 0 table in
  metric (prefix ^ "other") (float_of_int other) "count"

(* The observer settings of the traced run.  [Marked] is this benchmark's
   own marker timeline, [Plain] the variant without Kamping calls. *)
type variant = Off | Marked | Profiled | Traced | Checked | Plain

let variant_name = function
  | Off -> "untraced"
  | Marked -> "markers"
  | Profiled -> "SIMNET_PROFILE=fine"
  | Traced -> "trace"
  | Checked -> "MPISIM_CHECK=communication"
  | Plain -> "plain"

let per_layer spec ~seed =
  self_tests ~seed;
  let inst = spec.build ~seed in
  let attempted = ref 0 and failed = ref 0 in
  let run ?label v =
    incr attempted;
    let plain = v = Plain and trace = v = Traced in
    let o =
      match v with
      | Marked -> with_markers (fun () -> inst.W.run ~plain ~trace)
      | Profiled ->
          Simnet.Profile.reset ();
          Simnet.Profile.with_level Simnet.Profile.Fine (fun () -> inst.W.run ~plain ~trace)
      | Checked ->
          Mpisim.Checker.with_level Mpisim.Checker.Communication (fun () ->
              inst.W.run ~plain ~trace)
      | Off | Traced | Plain -> inst.W.run ~plain ~trace
    in
    if o.W.failure <> None then incr failed;
    Printf.printf "run %-28s wall %.4f s, %d events%s\n%!"
      (Option.value ~default:(variant_name v) label)
      o.W.wall_s o.W.events
      (match o.W.failure with Some why -> ", FAILED: " ^ why | None -> "");
    o
  in
  let warm = run ~label:"warm-up" Off in
  (* Rounds of every variant, in a fixed order; ratios compare medians. *)
  let paired = spec.plain <> No_plain in
  let variants = [ Off; Marked; Profiled; Traced; Checked ] @ if paired then [ Plain ] else [] in
  let firsts = Hashtbl.create 8 and walls = Hashtbl.create 8 in
  let attr = ref None and counters = ref [] and live_peak = ref 0 and tracked_peak = ref 0 in
  for _ = 1 to spec.rounds do
    List.iter
      (fun v ->
        let o = run v in
        if v <> Plain then check ("observer purity: " ^ variant_name v) (same_run warm o);
        if not (Hashtbl.mem firsts v) then Hashtbl.replace firsts v o;
        Hashtbl.replace walls v (o.W.wall_s :: Option.value ~default:[] (Hashtbl.find_opt walls v));
        match v with
        | Marked ->
            let a = Markers.attribute_recorded ~t_entry:o.W.t_entry ~t_return:o.W.t_return in
            check "markers: timeline well formed" (Markers.well_formed ~ranks:inst.W.ranks);
            check
              (Printf.sprintf "attribution closes within %.0f%%" (100.0 *. closure_tolerance))
              (closes a);
            if !attr = None then begin
              attr := Some a;
              live_peak := !Markers.live_peak;
              tracked_peak := !Markers.tracked_peak
            end;
            Markers.clear ()
        | Profiled -> if !counters = [] then counters := (Simnet.Profile.snapshot ()).Simnet.Profile.counters
        | Off | Traced | Checked | Plain -> ())
      variants
  done;
  let first v = Hashtbl.find firsts v in
  let wall v = median (Hashtbl.find walls v) in
  let ref_ = first Off and attr = Option.get !attr and counters = !counters in
  (match spec.plain with
  | Same_calls ->
      check "zero-overhead differential: identical calls, messages, bytes, sim time"
        (same_mpi ref_ (first Plain))
  | Own_calls -> check "plain variant passes the oracle" ((first Plain).W.failure = None)
  | No_plain -> ());
  (* per-layer times stay unscaled; the probe puts them in context *)
  Printf.printf "probe %.4f s (end-to-end times are scaled to %.4f s)\n" (probe ()) probe_ref_s;
  let floor_ties = engine_floor ~p:inst.W.ranks ~ties:true ~events:200_000 in
  let floor_spread = engine_floor ~p:inst.W.ranks ~ties:false ~events:200_000 in
  let ev = float_of_int ref_.W.events in
  let counter n = float_of_int (Option.value ~default:0 (List.assoc_opt n counters)) in
  metric "simnet.events" ev "count";
  metric "simnet.events_per_s" (ev /. wall Off) "1/s";
  metric "simnet.queue_peak" (counter "engine.queue_peak") "count";
  metric "simnet.queue_resizes" (counter "engine.queue_resizes") "count";
  metric "simnet.queue_searches" (counter "engine.queue_searches") "count";
  metric "simnet.fibers_live_peak" (float_of_int !live_peak) "count";
  metric "simnet.fibers_tracked_peak" (float_of_int !tracked_peak) "count";
  metric "simnet.engine_only_ns_per_event.ties" floor_ties "ns";
  metric "simnet.engine_only_ns_per_event.spread" floor_spread "ns";
  metric "simnet.engine_share"
    ((if spec.ties then floor_ties else floor_spread) *. 1e-9 *. ev /. wall Off)
    "ratio";
  let prof = ref_.W.profile in
  Printf.printf "calls: %s\nalgorithms: %s\n"
    (String.concat " " (List.map (fun (n, c) -> Printf.sprintf "%s=%d" n c) prof.P.calls))
    (String.concat " " (List.map (fun (n, c) -> Printf.sprintf "%s=%d" n c) prof.P.algo_calls));
  named_counts "mpisim.calls." call_names prof.P.calls;
  metric "mpisim.messages" (float_of_int prof.P.messages) "count";
  metric "mpisim.bytes" (float_of_int prof.P.bytes) "B";
  metric "mpisim.bytes_per_message"
    (safe_div (float_of_int prof.P.bytes) (float_of_int prof.P.messages))
    "B";
  metric "mpisim.sim_time_s" ref_.W.sim_time "s";
  let made = counter "mpi.envelopes_made" and reused = counter "mpi.envelopes_reused" in
  metric "mpisim.envelopes_made" made "count";
  metric "mpisim.envelope_reuse_ratio" (safe_div reused (made +. reused)) "ratio";
  List.iter
    (fun c ->
      metric
        (Markers.call_names.(c) ^ ".ns_per_call")
        (1e9 *. safe_div attr.Markers.call_s.(c) (float_of_int attr.Markers.call_count.(c)))
        "ns")
    [ Markers.sendrecv; Markers.allreduce_single ];
  metric "mpisim.run.startup_s" attr.Markers.startup_s "s";
  metric "mpisim.run.teardown_s" attr.Markers.teardown_s "s";
  named_counts "coll_algos.algo_calls." algo_names prof.P.algo_calls;
  metric "kamping.host_overhead_frac"
    (if paired then (wall Off -. wall Plain) /. wall Plain else 0.0)
    "ratio";
  metric "kamping.extra_calls"
    (if paired then float_of_int (total_calls ref_ - total_calls (first Plain)) else 0.0)
    "count";
  metric "kamping_plugins.iprobe_hit_ratio"
    (safe_div (float_of_int prof.P.messages) (float_of_int (P.calls_of "MPI_Iprobe" prof)))
    "ratio";
  metric "apps.self_s" attr.Markers.self_s "s";
  metric (Markers.call_names.(Markers.app_entry) ^ "_s") attr.Markers.call_s.(Markers.app_entry) "s";
  metric "attribution.covered_frac" (Markers.covered attr) "ratio";
  metric "gc.minor_words" ref_.W.minor_words "words";
  metric "gc.minor_words_per_event" (ref_.W.minor_words /. ev) "words";
  metric "gc.promoted_words" ref_.W.promoted_words "words";
  metric "gc.major_collections" (float_of_int ref_.W.major_collections) "count";
  metric "observers.profile_ratio" (wall Profiled /. wall Off) "ratio";
  metric "observers.trace_ratio" (wall Traced /. wall Off) "ratio";
  metric "observers.check_ratio" (wall Checked /. wall Off) "ratio";
  metric "observers.trace_overhead" (wall Marked /. wall Off) "ratio";
  let correct = !failed = 0 && List.for_all snd !checks in
  emit ~correct ~attempted:!attempted ~failed:!failed

(* ---- command line ---------------------------------------------------- *)

let () =
  let workload = ref "" and seed = ref (-1) and seconds = ref (-1.0) and trace = ref (-1) in
  Arg.parse
    [
      ("--workload", Arg.Set_string workload, " lockstep | sort_fig8 | bfs_sparse");
      ("--seed", Arg.Set_int seed, " input seed (>= 0)");
      ("--seconds", Arg.Set_float seconds, " measuring time of a --trace 0 run");
      ("--trace", Arg.Set_int trace, " 0: end-to-end metrics, 1: per-layer metrics");
    ]
    (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
    "bench.exe --workload NAME --seed N --seconds S --trace 0|1";
  let spec =
    match List.find_opt (fun s -> s.name = !workload) specs with
    | Some s -> s
    | None ->
        prerr_endline ("unknown workload " ^ !workload);
        exit 2
  in
  if !seed < 0 || !seconds <= 0.0 || (!trace <> 0 && !trace <> 1) then begin
    prerr_endline "need --seed >= 0, --seconds > 0 and --trace 0|1";
    exit 2
  end;
  quiet ();
  if !trace = 0 then end_to_end spec ~seed:!seed ~seconds:!seconds
  else per_layer spec ~seed:!seed
