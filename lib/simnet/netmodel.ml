type params = {
  latency : float;
  byte_time : float;
  injection_byte_time : float;
  send_overhead : float;
  recv_overhead : float;
  memcpy_byte_time : float;
  setup_overhead : float;
}

let default =
  {
    latency = 2.0e-6;
    byte_time = 8.0e-11 (* 12.5 GB/s *);
    injection_byte_time = 8.0e-11;
    send_overhead = 0.5e-6;
    recv_overhead = 0.5e-6;
    memcpy_byte_time = 1.0e-10;
    setup_overhead = 0.0;
  }

let low_latency = { default with latency = 0.5e-6; send_overhead = 0.2e-6; recv_overhead = 0.2e-6 }

let intra_node =
  {
    latency = 0.3e-6;
    byte_time = 2.5e-11 (* 40 GB/s shared memory *);
    injection_byte_time = 2.5e-11;
    send_overhead = 0.2e-6;
    recv_overhead = 0.2e-6;
    memcpy_byte_time = 1.0e-10;
    setup_overhead = 0.0;
  }

(* ------------------------------------------------------------------ *)
(* Fabric description: the one network description every model wraps. *)
(* ------------------------------------------------------------------ *)

type fabric = {
  f_node_of : int array;
  f_rack_of : int array;
  f_node : params;
  f_rack : params;
  f_core : params;
  f_uplinks : int;
}

let validate f =
  if Array.length f.f_node_of = 0 then invalid_arg "Netmodel: fabric has no ranks";
  let nodes = Array.length f.f_rack_of in
  (* every node must host at least one rank, or the uplink port table and
     population profile silently degrade *)
  let occupied = Array.make nodes false in
  Array.iter
    (fun n ->
      if n < 0 || n >= nodes then invalid_arg "Netmodel: node id out of range";
      occupied.(n) <- true)
    f.f_node_of;
  Array.iter
    (fun r -> if r < 0 then invalid_arg "Netmodel: rack id negative")
    f.f_rack_of;
  Array.iteri
    (fun n o ->
      if not o then invalid_arg (Printf.sprintf "Netmodel: fabric node %d hosts no rank" n))
    occupied;
  if f.f_uplinks < 0 then invalid_arg "Netmodel: uplink count negative"

let flat p ~ranks =
  if ranks <= 0 then invalid_arg "Netmodel.flat: ranks must be positive";
  {
    f_node_of = Array.init ranks Fun.id;
    f_rack_of = Array.make ranks 0;
    f_node = p;
    f_rack = p;
    f_core = p;
    f_uplinks = 0;
  }

(* Block placement (rank r on node r / node_size), node n in rack
   [rack_of_node n]. *)
let blocked ~node ~rack ~core ~uplinks ~node_size ~ranks rack_of_node =
  if ranks <= 0 || node_size <= 0 then
    invalid_arg "Netmodel: ranks and node_size must be positive";
  let f =
    {
      f_node_of = Array.init ranks (fun r -> r / node_size);
      f_rack_of = Array.init ((ranks + node_size - 1) / node_size) rack_of_node;
      f_node = node;
      f_rack = rack;
      f_core = core;
      f_uplinks = uplinks;
    }
  in
  validate f;
  f

let two_tier ?(intra = intra_node) ?(inter = default) ?(uplinks = 0) ~node_size ~ranks () =
  (* one rack: the rack tier collapses onto the inter-node parameters *)
  blocked ~node:intra ~rack:inter ~core:inter ~uplinks ~node_size ~ranks (fun _ -> 0)

let fat_tree ?(intra = intra_node) ?(rack = low_latency) ?(core = default) ?(uplinks = 0)
    ~node_size ~nodes_per_rack ~ranks () =
  if nodes_per_rack <= 0 then invalid_arg "Netmodel.fat_tree: nodes_per_rack must be positive";
  blocked ~node:intra ~rack ~core ~uplinks ~node_size ~ranks (fun n -> n / nodes_per_rack)

type t = {
  fabric : fabric;
  uniform : bool;
      (* all three tiers carry one param set: pair and group queries answer
         it without reading the placement maps *)
  uplink_free : float array array;  (* node -> uplink port -> busy-until *)
  egress_free : float array;
  ingress_free : float array;
}

let create f =
  validate f;
  let ranks = Array.length f.f_node_of in
  {
    fabric = f;
    uniform = f.f_node = f.f_rack && f.f_rack = f.f_core;
    uplink_free =
      (if f.f_uplinks = 0 then [||]
       else Array.init (Array.length f.f_rack_of) (fun _ -> Array.make f.f_uplinks 0.0));
    egress_free = Array.make ranks 0.0;
    ingress_free = Array.make ranks 0.0;
  }

let params t = t.fabric.f_core
let node_of t r = t.fabric.f_node_of.(r)
let rack_of_rank t r = t.fabric.f_rack_of.(t.fabric.f_node_of.(r))

let params_between t ~src ~dst =
  let f = t.fabric in
  if t.uniform then f.f_core
  else begin
    let src_node = f.f_node_of.(src) and dst_node = f.f_node_of.(dst) in
    if src_node = dst_node then f.f_node
    else if f.f_rack_of.(src_node) = f.f_rack_of.(dst_node) then f.f_rack
    else f.f_core
  end

let local_compute_cost t ~bytes = float_of_int bytes *. (params t).memcpy_byte_time

(* ------------------------------------------------------------------ *)
(* Cost-prediction helpers (LogGP terms) for the collective-algorithm  *)
(* selection layer.  These mirror [transfer] exactly: a single         *)
(* uncongested message costs                                           *)
(*   send_overhead + b*injection + latency + b*byte_time + recv_ovh.   *)
(* ------------------------------------------------------------------ *)

let startup_cost p = p.send_overhead +. p.latency +. p.recv_overhead
let per_byte_cost p = p.injection_byte_time +. p.byte_time
let msg_cost p ~bytes = startup_cost p +. (float_of_int bytes *. per_byte_cost p)

let params_for_group t group =
  let f = t.fabric in
  if t.uniform || Array.length group = 0 then f.f_core
  else begin
    let node0 = f.f_node_of.(group.(0)) in
    if Array.for_all (fun g -> f.f_node_of.(g) = node0) group then f.f_node
    else begin
      let rack0 = f.f_rack_of.(node0) in
      if Array.for_all (fun g -> f.f_rack_of.(f.f_node_of.(g)) = rack0) group then f.f_rack
      else f.f_core
    end
  end

(* ------------------------------------------------------------------ *)
(* Topology-aware group profile: what a collective spanning nodes      *)
(* should plan with instead of the single pessimistic parameter set.   *)
(* ------------------------------------------------------------------ *)

type hier_profile = {
  h_intra : params;
  h_inter : params;
  h_nodes : int;
  h_max_per_node : int;
}

(* A uniform fabric has no hierarchy to exploit, so hierarchical
   candidates stay out of selection exactly as on the flat machine. *)
let hier_for_group t group =
  if t.uniform || Array.length group = 0 then None
  else begin
    let f = t.fabric in
    (* Count distinct nodes and the heaviest node's population. *)
    let counts = Hashtbl.create 8 in
    Array.iter
      (fun g ->
        let nd = f.f_node_of.(g) in
        Hashtbl.replace counts nd (1 + Option.value ~default:0 (Hashtbl.find_opt counts nd)))
      group;
    let nodes = Hashtbl.length counts in
    if nodes <= 1 then None (* single node: params_for_group already exact *)
    else begin
      let mpn = Hashtbl.fold (fun _ c acc -> max c acc) counts 0 in
      Some
        {
          h_intra = f.f_node;
          h_inter = params_for_group t group;
          h_nodes = nodes;
          h_max_per_node = mpn;
        }
    end
  end

(* Earliest-free uplink port of [node]; deterministic argmin (first of the
   equally free ports wins). *)
let pick_uplink ports =
  let best = ref 0 in
  for i = 1 to Array.length ports - 1 do
    if ports.(i) < ports.(!best) then best := i
  done;
  !best

let transfer t ~now ~src ~dst ~bytes ~pack_factor =
  let p = params_between t ~src ~dst in
  let fbytes = float_of_int bytes *. pack_factor in
  if src = dst then begin
    (* Local delivery: a single memcpy, no port involvement. *)
    let done_at = now +. p.send_overhead +. (fbytes *. p.memcpy_byte_time) in
    (done_at, done_at)
  end
  else begin
    (* Inter-node messages on a fabric with a finite uplink count also
       serialize on the source node's shared uplink ports (the fat-tree
       oversubscription effect); intra-node traffic never touches them. *)
    let f = t.fabric in
    let uplink =
      if f.f_uplinks > 0 && f.f_node_of.(src) <> f.f_node_of.(dst) then begin
        let ports = t.uplink_free.(f.f_node_of.(src)) in
        Some (ports, pick_uplink ports)
      end
      else None
    in
    let start = Float.max now t.egress_free.(src) in
    let start =
      match uplink with Some (ports, i) -> Float.max start ports.(i) | None -> start
    in
    let injected = start +. p.send_overhead +. (fbytes *. p.injection_byte_time) in
    t.egress_free.(src) <- injected;
    (match uplink with Some (ports, i) -> ports.(i) <- injected | None -> ());
    let wire_arrival = injected +. p.latency +. (fbytes *. p.byte_time) in
    let drain_start = Float.max wire_arrival t.ingress_free.(dst) in
    let available = drain_start +. p.recv_overhead in
    t.ingress_free.(dst) <- available;
    (injected, available)
  end

(* ------------------------------------------------------------------ *)
(* Environment spec parser (MPISIM_TOPOLOGY).                          *)
(* ------------------------------------------------------------------ *)

(* Specs:
     "two:<node_size>"                        two-tier
     "fat:<node_size>:<nodes_per_rack>[:<uplinks>]"
                                              three-tier fat tree
   Block placement (rank r on node r / node_size).  [inter] is the
   inter-node tier: rack and core on "two", core on "fat".  Unknown specs
   raise [Invalid_argument] so a typo in the environment fails loudly. *)
let fabric_of_spec ?inter ~ranks spec =
  let fail () =
    invalid_arg
      (Printf.sprintf
         "Netmodel.fabric_of_spec: bad spec %S (expected two:<node_size> or \
          fat:<node_size>:<nodes_per_rack>[:<uplinks>])"
         spec)
  in
  let int_of s = match int_of_string_opt (String.trim s) with Some i when i > 0 -> i | _ -> fail () in
  match String.split_on_char ':' spec with
  | [ "two"; ns ] -> two_tier ?inter ~node_size:(int_of ns) ~ranks ()
  | "fat" :: ns :: npr :: rest ->
      let node_size = int_of ns and nodes_per_rack = int_of npr in
      let uplinks = match rest with [] -> 0 | [ u ] -> int_of u | _ -> fail () in
      fat_tree ?core:inter ~uplinks ~node_size ~nodes_per_rack ~ranks ()
  | _ -> fail ()
