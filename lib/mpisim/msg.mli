(** Message envelopes and per-rank mailboxes.

    Matching follows MPI semantics: a posted receive matches an incoming
    envelope when communicator, context (user vs. library-internal), source
    and tag agree, where source/tag may be wildcards.  Unexpected messages
    queue in arrival order; posted receives match in post order. *)

(** Wildcard constants (match any source / any tag). *)
val any_source : int

val any_tag : int

(** Matching context: user-level traffic and library-internal collective
    traffic live in separate matching spaces (real MPI uses separate context
    ids for this). *)
type ctx = User | Internal

(** A message in flight: either a dense copy of the sent elements together
    with its datatype (the witness lets the receiver copy type-safely), or a
    {e sparse} payload — datatype + element count with no materialized
    buffer.  Sparse payloads let large-count tests and benchmarks move
    multi-GiB transfers (counts > 2^31) through the full matching/cost path
    without allocating real element arrays; the receiver side type-checks
    and count-checks exactly like the dense path but performs no copy. *)
type packed =
  | Packed : 'a Datatype.t * 'a array -> packed
  | Sparse : 'a Datatype.t * int -> packed

(** Envelopes are mutable because the runtime recycles them through a
    free-list {!pool}: a delivered envelope's record is reused for a later
    message instead of being reallocated (a measurable share of minor-heap
    churn at large rank counts).  Consumers must not retain an envelope
    past the call that handed it to them. *)
type envelope = {
  mutable src : int;  (** sender's rank in the communicator *)
  mutable src_world : int;  (** sender's world rank (for checker attribution) *)
  mutable tag : int;
  mutable comm_id : int;
  mutable ctx : ctx;
  mutable count : int;
  mutable bytes : int;
  mutable sent_at : float;  (** injection time (for the checker's finalize scan) *)
  mutable payload : packed;
  mutable on_matched : (unit -> unit) option;  (** synchronous-send completion hook *)
  mutable trace : Trace.Event.message option;
      (** tracing record for this message, when the run is traced *)
  mutable pooled : bool;  (** true while the envelope sits in a free list *)
}

(** A receive pattern parked in a mailbox: a posted receive or a blocking
    probe.  A posted receive's [deliver] consumes the matched envelope; a
    probe's observes it without consuming.  Failure injection,
    revocation and a dead owner retire both kinds alike. *)
type pattern = {
  src : int;  (** comm rank or {!any_source} *)
  tag : int;  (** tag or {!any_tag} *)
  comm : int;  (** communicator id *)
  ctx : ctx;
  src_world : int;  (** world rank of [src], [-1] for wildcard *)
  group : int array;  (** comm rank -> world rank, for failure checks *)
  owner : int;  (** world rank of the receiving (probing) rank *)
  deliver : envelope -> unit;
  on_fail : exn -> unit;
  mutable live : bool;
}

type mailbox

(** [create ()] is an empty mailbox. *)
val create : unit -> mailbox

(** {1 Envelope pool}

    One pool per {!World}: envelopes cycle sender → mailbox → receiver →
    free list, so the steady-state message path allocates only the payload
    copy. *)

type pool

val create_pool : unit -> pool

(** [make_envelope pool ~src ... ~trace] is a fresh or recycled envelope
    with the given contents. *)
val make_envelope :
  pool ->
  src:int ->
  src_world:int ->
  tag:int ->
  comm_id:int ->
  ctx:ctx ->
  count:int ->
  bytes:int ->
  sent_at:float ->
  payload:packed ->
  on_matched:(unit -> unit) option ->
  trace:Trace.Event.message option ->
  envelope

(** [release pool env] returns [env] to the free list, dropping its
    payload/closure references.  Releasing an already-released envelope is
    a no-op (the [pooled] guard), so ownership hand-offs need not be
    exactly-once. *)
val release : pool -> envelope -> unit

(** [pool_stats pool] is [(made, reused)] — envelopes allocated fresh vs.
    recycled (the engine bench reports the reuse ratio). *)
val pool_stats : pool -> int * int

(** [arrive pool mb env] delivers an envelope: hands it to the first live
    matching posted receive (then releases it back to [pool] — delivery
    consumes the envelope synchronously), else queues it as unexpected. *)
val arrive : pool -> mailbox -> envelope -> unit

(** [take_unexpected mb ~src ~tag ~comm ~ctx] removes and returns the first
    queued envelope matching the given (possibly wildcard) pattern.

    When [choose] is given and [src] is {!any_source}, the candidates are
    the oldest matching envelope of each distinct source (every one a legal
    wildcard match under MPI's per-pair non-overtaking rule); [choose]
    receives their source world ranks and picks by index (clamped).
    Without [choose] the oldest match overall wins — the incumbent
    behaviour. *)
val take_unexpected :
  ?choose:(int array -> int) ->
  mailbox -> src:int -> tag:int -> comm:int -> ctx:ctx -> envelope option

(** [peek_unexpected mb ~src ~tag ~comm ~ctx] is like {!take_unexpected}
    without removing (probe). *)
val peek_unexpected : mailbox -> src:int -> tag:int -> comm:int -> ctx:ctx -> envelope option

(** [post mb p] appends a posted receive. *)
val post : mailbox -> pattern -> unit

(** [post_probe mb p] parks a blocking probe. *)
val post_probe : mailbox -> pattern -> unit

(** [fail_matching mb ~pred ~exn] fails (and removes) every live posted
    receive and parked probe satisfying [pred] — used for failure
    injection and revocation. *)
val fail_matching : mailbox -> pred:(pattern -> bool) -> exn:exn -> unit

(** [drop_owned mb ~world_rank] removes and deactivates the posted
    receives and parked probes of a dead rank. *)
val drop_owned : mailbox -> world_rank:int -> unit

(** {1 Checker views}

    Non-destructive inspection used by the correctness checker at quiesce
    (deadlock diagnosis) and finalize (leak detection). *)

(** [live_posted mb] is every live posted receive, in post order. *)
val live_posted : mailbox -> pattern list

(** [live_probes mb] is every parked blocking probe. *)
val live_probes : mailbox -> pattern list

(** [iter_unexpected mb f] applies [f] to each queued unexpected envelope. *)
val iter_unexpected : mailbox -> (envelope -> unit) -> unit
