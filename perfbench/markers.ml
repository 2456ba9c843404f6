(* One global timeline of (host time, rank, kind, call) markers, recorded
   from the benchmark's own code around every call it makes into a layer,
   and the attribution of the traced [Mpi.run] wall time to those calls.

   The host runs one fiber at a time and every suspension happens inside a
   layer call, so consecutive markers bound intervals that belong to
   exactly one owner:
   - from a fiber's [Begin] or [Exit] marker to that fiber's next marker:
     the app's own (self) time;
   - from an [Enter c] marker to the next marker, whoever writes it: call
     [c] (it covers the engine and the other fibers that ran while the
     caller was suspended inside [c]);
   - from an [End] marker to another fiber's [Exit c] marker: call [c]
     (the earlier fiber has finished, and the engine resumed the later one
     inside [c]);
   - anything else is unattributed, and the closure check bounds it.  In
     particular a [Begin] or [Exit] followed by another fiber's marker means
     the fiber suspended outside every marked call: that time belongs to no
     call, and a large share of it fails the closure check.
   Before the first marker is [Mpi.run]'s start-up, after the last its
   teardown.  The shares sum to the measured wall time by construction, so
   "attribution closes" means the unattributed share is small. *)

type kind = Begin | Enter | Exit | End

let kind_code = function Begin -> 0 | Enter -> 1 | Exit -> 2 | End -> 3
let kind_of_code = function 0 -> Begin | 1 -> Enter | 2 -> Exit | _ -> End

(* The calls the benchmark wraps.  Names are the per-layer metric stems. *)
let call_names =
  [| "mpisim.p2p.sendrecv"; "kamping.allreduce_single"; "apps.entry" |]

let sendrecv = 0
let allreduce_single = 1
let app_entry = 2

let on = ref false
let len = ref 0
let times = ref (Float.Array.make 0 0.0)
let codes = ref [||]
let now = Unix.gettimeofday

let grow () =
  let cap = max 1024 (2 * Array.length !codes) in
  let t = Float.Array.make cap 0.0 and c = Array.make cap 0 in
  Float.Array.blit !times 0 t 0 !len;
  Array.blit !codes 0 c 0 !len;
  times := t;
  codes := c

let encode ~rank ~kind ~call = (rank lsl 8) lor (call lsl 2) lor kind_code kind
let rank_of code = code lsr 8
let call_of code = (code lsr 2) land 0x3f
let kind_of code = kind_of_code (code land 3)

let push_at time code =
  if !len = Array.length !codes then grow ();
  Float.Array.unsafe_set !times !len time;
  Array.unsafe_set !codes !len code;
  incr len

(* High-water marks of the engine's live and tracked fibers, sampled at
   every marker: the engine itself reports them only at the end of a run,
   when every fiber has finished. *)
let engine = ref None
let live_peak = ref 0
let tracked_peak = ref 0

let sample () =
  match !engine with
  | Some e ->
      live_peak := max !live_peak (Simnet.Engine.live_fibers e);
      tracked_peak := max !tracked_peak (Simnet.Engine.tracked_fibers e)
  | None -> ()

let clear () =
  len := 0;
  engine := None;
  live_peak := 0;
  tracked_peak := 0

(* Zero work beyond one branch when the timeline is off. *)
let mark rank kind call =
  if !on then begin
    sample ();
    push_at (now ()) (encode ~rank ~kind ~call)
  end

let begin_ comm =
  if !on then engine := Some (Mpisim.Comm.world comm).Mpisim.World.engine;
  mark (Mpisim.Comm.rank comm) Begin 0

let end_ rank = mark rank End 0
let enter rank call = mark rank Enter call
let exit rank call = mark rank Exit call

type attribution = {
  total_s : float;  (** [Mpi.run] entry to return *)
  startup_s : float;
  teardown_s : float;
  self_s : float;
  call_s : float array;  (** indexed like [call_names] *)
  call_count : int array;  (** [Enter] markers per call *)
  unattributed_s : float;
}

let attribute ~t_entry ~t_return ~n ~time ~code =
  let ncalls = Array.length call_names in
  let call_s = Array.make ncalls 0.0 and call_count = Array.make ncalls 0 in
  let self = ref 0.0 and unattributed = ref 0.0 in
  for i = 0 to n - 1 do
    let c = code i in
    if kind_of c = Enter then call_count.(call_of c) <- call_count.(call_of c) + 1;
    if i + 1 < n then begin
      let d = time (i + 1) -. time i and c' = code (i + 1) in
      match (kind_of c, kind_of c') with
      | Enter, _ -> call_s.(call_of c) <- call_s.(call_of c) +. d
      | (Begin | Exit), _ when rank_of c' = rank_of c -> self := !self +. d
      | End, Exit -> call_s.(call_of c') <- call_s.(call_of c') +. d
      | _ -> unattributed := !unattributed +. d
    end
  done;
  let total_s = t_return -. t_entry in
  if n = 0 then
    { total_s; startup_s = 0.0; teardown_s = 0.0; self_s = 0.0; call_s; call_count;
      unattributed_s = total_s }
  else
    {
      total_s;
      startup_s = time 0 -. t_entry;
      teardown_s = t_return -. time (n - 1);
      self_s = !self;
      call_s;
      call_count;
      unattributed_s = !unattributed;
    }

let attribute_recorded ~t_entry ~t_return =
  let t = !times and c = !codes in
  attribute ~t_entry ~t_return ~n:!len ~time:(Float.Array.get t) ~code:(Array.get c)

let covered a =
  if a.total_s <= 0.0 then 1.0
  else (a.startup_s +. a.teardown_s +. a.self_s +. Array.fold_left ( +. ) 0.0 a.call_s) /. a.total_s

(* Bookkeeping check of the recorded timeline: every one of [ranks] fibers
   writes exactly one [Begin] first and one [End] last, and in between
   alternating [Enter c]/[Exit c] pairs of the same call. *)
let well_formed ~ranks =
  let state = Array.make ranks (-2) (* -2 before Begin, -1 outside calls, c inside c, -3 ended *) in
  let ok = ref true in
  for i = 0 to !len - 1 do
    let c = !codes.(i) in
    let r = rank_of c in
    if r >= ranks then ok := false
    else
      match (kind_of c, state.(r)) with
      | Begin, -2 -> state.(r) <- -1
      | Enter, -1 -> state.(r) <- call_of c
      | Exit, s when s = call_of c && s >= 0 -> state.(r) <- -1
      | End, -1 -> state.(r) <- -3
      | _ -> ok := false
  done;
  !ok && Array.for_all (fun s -> s = -3) state
