(** Shape queries on fabric descriptions.

    A fabric ({!Simnet.Netmodel.fabric}) is the simulator-facing record:
    rank→node→rack placement plus per-tier LogGP parameters and the shared
    uplink port count.  {!Simnet.Netmodel} builds and validates them
    ([flat], [two_tier], [fat_tree], [fabric_of_spec]); {!Presets} names
    the common shapes.  Pass one to [Mpisim.Mpi.run ~fabric] (or export an
    equivalent [MPISIM_TOPOLOGY] spec). *)

type t = Simnet.Netmodel.fabric

val ranks : t -> int
val nodes : t -> int
val racks : t -> int

(** [max_per_node f] is the population of the fullest node. *)
val max_per_node : t -> int

(** [describe f] is a one-line human-readable shape summary. *)
val describe : t -> string
