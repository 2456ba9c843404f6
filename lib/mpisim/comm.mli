(** Communicator handles.

    A [Comm.t] is one rank's view of a communicator: the shared state (group
    and revocation flag) plus this rank's position.  Like KaMPIng's
    [Communicator] class it is a thin, copyable handle; creation and
    destruction need no collective cleanup because the simulator garbage
    collects shared state. *)

type t

(** [make world shared ~rank] wraps shared communicator state for the member
    with communicator rank [rank]. *)
val make : World.t -> World.comm_shared -> rank:int -> t

(** [world comm] is the machine this communicator lives on. *)
val world : t -> World.t

(** [shared comm] is the communicator's shared state. *)
val shared : t -> World.comm_shared

(** [rank comm] is the calling rank's position in the communicator. *)
val rank : t -> int

(** [size comm] is the number of members. *)
val size : t -> int

(** [id comm] is the communicator id (unique per world). *)
val id : t -> int

(** [world_rank_of comm r] translates a communicator rank to a world rank.
    @raise Errors.Usage_error if [r] is out of range. *)
val world_rank_of : t -> int -> int

(** [group comm] is the comm-rank to world-rank mapping (do not mutate). *)
val group : t -> int array

(** [node_of_rank comm r] is the shared-memory node hosting communicator
    rank [r] (see {!Simnet.Netmodel.node_of}; on a flat fabric every rank
    is its own node).
    @raise Errors.Usage_error if [r] is out of range. *)
val node_of_rank : t -> int -> int

(** [is_revoked comm] is the ULFM revocation flag. *)
val is_revoked : t -> bool

(** [check_active comm] raises {!Errors.Comm_revoked} if the communicator
    was revoked — called on entry of every operation. *)
val check_active : t -> unit

(** [next_collective_tag comm] allocates the internal tag for the next
    collective operation issued by this rank on this communicator.  MPI
    requires all ranks to issue collectives in the same order, so rank-local
    counters agree and successive collectives never cross-match. *)
val next_collective_tag : t -> int

(** [next_shrink_epoch comm] numbers this rank's shrink calls (used to agree
    on the shrunk communicator's identity). *)
val next_shrink_epoch : t -> int

(** [next_agree_epoch comm] numbers this rank's agreement calls. *)
val next_agree_epoch : t -> int

(** [now comm] is the simulated time (convenience for applications timing
    phases). *)
val now : t -> float

(** [compute comm seconds] charges [seconds] of local computation to the
    calling fiber (advances its simulated clock). *)
val compute : t -> float -> unit

(** {1 The call boundary}

    The one place where the observers attach to a call: the PMPI profile
    counts it, the trace recorder spans it, and persistent handles are
    registered with the checker.  Library-internal traffic
    ([ctx = Internal]) passes through unobserved. *)

(** Span category: ["p2p"], ["coll"], ["rma"] or ["user"] (regions). *)
type cat = P2p | Coll | Rma | User

(** [count ~ctx comm ~op] counts the user-level call [op] in the PMPI
    profile without a span — for polling calls ([MPI_Iprobe]), whose
    spans would flood the trace, and for calls counted before they
    validate their arguments (then spanned by an uncounted [call]). *)
val count : ctx:Msg.ctx -> t -> op:string -> unit

(** [call ?counted ~ctx comm ~cat ~op f] runs [f] as the user-level call
    [op]: counted in the PMPI profile unless [counted] is false, and
    recorded as a span of category [cat] on a traced run.  [Coll] spans
    carry the rank's collective sequence number on [comm], every other
    category [-1]. *)
val call : ?counted:bool -> ctx:Msg.ctx -> t -> cat:cat -> op:string -> (unit -> 'a) -> 'a

(** [persistent comm ~ctx ~cat ~op ?partitions ?pready ?parrived ?cancel
    start] builds the persistent handle [op] (see {!Persist.make}): each
    [start] checks that [comm] is active and runs as an uncounted
    ["MPI_Start"] call, each wait as an uncounted ["MPI_Wait"] call, and
    a user-level handle is tracked by the checker's leak scan. *)
val persistent :
  t ->
  ctx:Msg.ctx ->
  cat:cat ->
  op:string ->
  ?partitions:int ->
  ?pready:(Persist.t -> int -> unit) ->
  ?parrived:(Persist.t -> int -> bool) ->
  ?cancel:(Persist.t -> unit) ->
  (Persist.t -> unit) ->
  Persist.t
