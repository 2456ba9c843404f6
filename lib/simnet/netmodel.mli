(** Single-port LogGP-style network cost model over one {!fabric}.

    The network is always described by one validated fabric: per-tier
    parameters chosen by the pair's placement (same node / same rack /
    across racks); the flat machine is {!flat}.  Within the tier, a
    message of [bytes] from [src] to [dst] experiences:
    - sender-side injection: the sender's egress port is occupied for
      [send_overhead + bytes * injection_byte_time]; messages from one rank
      serialize on its port (the effect that makes one-sided fan-out
      expensive and motivates the paper's grid all-to-all);
    - wire time: [latency + bytes * byte_time];
    - receiver-side drain: the receiver's ingress port is occupied for
      [recv_overhead + bytes * injection_byte_time].

    Self-messages only pay a memory-copy cost.  Non-contiguous datatypes pay
    a pack/unpack multiplier supplied by the caller (see
    {!Mpisim.Datatype.pack_factor}). *)

type params = {
  latency : float;  (** wire latency per message, seconds *)
  byte_time : float;  (** wire time per byte, seconds *)
  injection_byte_time : float;  (** port occupancy per byte, seconds *)
  send_overhead : float;  (** fixed CPU cost to post a send *)
  recv_overhead : float;  (** fixed CPU cost to complete a receive *)
  memcpy_byte_time : float;  (** local copy cost per byte (self messages) *)
  setup_overhead : float;
      (** per-operation software initiation cost (argument validation,
          datatype resolution, matching setup) charged to the calling rank
          on every {e ephemeral} user-level p2p call.  Persistent
          operations pay it once at [*_init] and never again on [start] —
          this is the cost matching-once amortizes (MPI-4 persistent
          communication).  Default [0.0]: the incumbent model is
          unchanged. *)
}

(** Parameters loosely modelled after a 100 Gbit/s OmniPath-class fabric:
    2 us latency, 12.5 GB/s wire bandwidth, 0.5 us send/recv overhead. *)
val default : params

(** A sharper network (lower latency) to explore crossovers. *)
val low_latency : params

(** Shared-memory-class parameters for communication within a node. *)
val intra_node : params

(** {1 Fabrics}

    The one network description: a three-tier topology (node / rack /
    core) with an explicit rank→node→rack placement map and optional
    shared uplink ports per node.  Every model wraps one validated fabric;
    the flat machine is the fabric {!flat} builds.  [lib/topology] adds
    presets and shape queries on top of the builders here.

    A fabric whose three tiers carry equal parameters is {e uniform}: pair
    and group queries return that one parameter set without reading the
    placement maps, and {!hier_for_group} is [None], so hierarchical
    collective algorithms never enter selection on it. *)

type fabric = {
  f_node_of : int array;  (** world rank → node id *)
  f_rack_of : int array;  (** node id → rack id *)
  f_node : params;  (** pairs on the same node *)
  f_rack : params;  (** pairs on the same rack, different nodes *)
  f_core : params;  (** pairs in different racks *)
  f_uplinks : int;
      (** shared uplink ports per node; inter-node messages from one node
          serialize across them ([0] = uncongested uplinks, the flat
          behavior) *)
}

(** [flat params ~ranks] is the flat machine: every rank on its own node,
    one rack, and [params] for all three tiers (a uniform fabric). *)
val flat : params -> ranks:int -> fabric

(** [two_tier ~node_size ~ranks ()] is a cluster of shared-memory nodes
    with block placement (rank [r] on node [r / node_size]) and a single
    rack (the rack tier collapses onto the inter-node parameters).
    @param intra intra-node parameters (default {!intra_node})
    @param inter inter-node parameters (default {!default})
    @param uplinks shared uplink ports per node (default [0])
    @raise Invalid_argument on non-positive sizes or a negative uplink
    count. *)
val two_tier :
  ?intra:params -> ?inter:params -> ?uplinks:int -> node_size:int -> ranks:int -> unit -> fabric

(** [fat_tree ~node_size ~nodes_per_rack ~ranks ()] is a three-tier fat
    tree: block rank placement, consecutive nodes blocked into racks.
    @param intra intra-node parameters (default {!intra_node})
    @param rack intra-rack parameters (default {!low_latency})
    @param core cross-rack parameters (default {!default})
    @param uplinks shared uplink ports per node (default [0])
    @raise Invalid_argument on non-positive sizes or a negative uplink
    count. *)
val fat_tree :
  ?intra:params ->
  ?rack:params ->
  ?core:params ->
  ?uplinks:int ->
  node_size:int ->
  nodes_per_rack:int ->
  ranks:int ->
  unit ->
  fabric

(** [fabric_of_spec ~ranks spec] parses an [MPISIM_TOPOLOGY]-style spec
    through {!two_tier} and {!fat_tree}: ["two:<node_size>"] (shared-memory
    nodes under one inter-node tier) or
    ["fat:<node_size>:<nodes_per_rack>\[:<uplinks>\]"] (three-tier fat
    tree, optionally with [uplinks] shared uplink ports per node).
    Placement is block (rank [r] on node [r / node_size]).
    @param inter the inter-node tier: rack and core on ["two"], core on
    ["fat"] (default {!default})
    @raise Invalid_argument on a malformed spec. *)
val fabric_of_spec : ?inter:params -> ranks:int -> string -> fabric

(** {1 The model} *)

type t

(** [create f] validates [f] and allocates the port state of its ranks
    and uplinks.  A valid fabric is dense and consistent: at least one
    rank, every node id indexes [f_rack_of], rack ids are non-negative,
    every node hosts at least one rank, and the uplink count is
    non-negative.
    @raise Invalid_argument with a specific message otherwise. *)
val create : fabric -> t

(** [params t] is the core tier: the parameters of pairs in different
    racks, and of every pair on a uniform fabric. *)
val params : t -> params

(** [node_of t r] is the shared-memory node hosting world rank [r] (on the
    flat machine, [r] itself: every rank is its own node). *)
val node_of : t -> int -> int

(** [rack_of_rank t r] is the rack of [r]'s node. *)
val rack_of_rank : t -> int -> int

(** [params_between t ~src ~dst] is the parameter set governing one pair. *)
val params_between : t -> src:int -> dst:int -> params

(** [transfer t ~now ~src ~dst ~bytes ~pack_factor] books a message into the
    port schedule and returns [(send_complete, arrival)]: the simulated time
    at which the sender's buffer is free (local send completion), and the
    time at which the message is fully available at the receiver. *)
val transfer :
  t -> now:float -> src:int -> dst:int -> bytes:int -> pack_factor:float -> float * float

(** [local_compute_cost t ~bytes] is the memcpy cost for [bytes]. *)
val local_compute_cost : t -> bytes:int -> float

(** {1 Cost prediction}

    Analytic LogGP terms matching {!transfer}, used by the collective
    algorithm selection layer to predict a candidate algorithm's cost
    without running it. *)

(** [startup_cost p] is the fixed cost of one uncongested message:
    [send_overhead + latency + recv_overhead] (the "alpha" term). *)
val startup_cost : params -> float

(** [per_byte_cost p] is the marginal cost per payload byte:
    [injection_byte_time + byte_time] (the "beta" term). *)
val per_byte_cost : params -> float

(** [msg_cost p ~bytes] is the end-to-end time of one uncongested message. *)
val msg_cost : params -> bytes:int -> float

(** [params_for_group t group] is the parameter set a collective over the
    given world ranks should plan with: the tightest tier containing every
    member (node, then rack, then core); the one parameter set on a
    uniform fabric. *)
val params_for_group : t -> int array -> params

(** A topology-aware planning profile for a group that spans nodes:
    instead of collapsing to the single pessimistic spanning tier (what
    {!params_for_group} returns), hierarchical collective algorithms plan
    intra-node phases with [h_intra] and leader phases with [h_inter]. *)
type hier_profile = {
  h_intra : params;  (** cost of a message between two ranks on one node *)
  h_inter : params;  (** cost of the worst tier the group spans *)
  h_nodes : int;  (** number of distinct nodes occupied by the group *)
  h_max_per_node : int;  (** population of the fullest node *)
}

(** [hier_for_group t group] is the hierarchical profile of the group, or
    [None] when there is no hierarchy to exploit: a uniform fabric (the
    flat machine among them) or a group confined to one node (where
    {!params_for_group} is already exact). *)
val hier_for_group : t -> int array -> hier_profile option
