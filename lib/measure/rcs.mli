(** Recursive Congestion Shares — the §5.3 model sketch.

    The paper closes by asking how to model an Internet where
    allocations come from "an economic arrangement that determines a
    network's bandwidth-shaping policy" rather than flow dynamics, and
    points at Recursive Congestion Shares [77]: capacity divides among
    economic entities by weight, recursively, down to individual flows.

    This module implements that allocation model as a pure computation
    (weighted max-min at every tree level, demand-bounded), so
    simulated enforcement mechanisms (weighted DRR, shapers) can be
    validated against the model's prediction — experiment X3. *)

type t
(** A share-tree node: an ISP, a customer, an application, or a flow. *)

val leaf : name:string -> demand_bps:float -> t
(** A flow (or aggregate) with an offered load; [Float.infinity] means
    persistently backlogged. Weight 1. *)

val node : name:string -> t list -> t
(** An interior entity whose capacity divides among its children by
    weight. Weight 1 ({!weighted} sets another). Must have at least one
    child. *)

val weighted : float -> t -> t
[@@ccsim.test_only "tests weight share-tree nodes with it (the 5.3 model has weights)"]
(** Override a node's or leaf's weight (must be positive). *)

val total_demand : t -> float [@@ccsim.test_only "tests check a share tree's offered load"]

val allocate : capacity_bps:float -> t -> (string * float) list
(** Allocations for every leaf, in tree order. At each level, the
    children split the parent's grant by weighted max-min with each
    subtree's total demand as its cap (so unused share recursively
    redistributes). Raises [Invalid_argument] on duplicate leaf names
    or negative capacity. *)

val allocation_for : (string * float) list -> string -> float
(** Lookup helper; raises [Not_found]. *)
