(** Cover-property checking — the model-checking service RTL2MµPATH and
    SynthLC drive (§V-B).

    A cover property asks whether some execution trace, starting from a
    valid reset state and subject to per-cycle assumption signals, reaches a
    cycle where a conjunction of 1-bit literals holds.  Outcomes mirror the
    paper's: [Reachable] (with a witness), [Unreachable] (with a proof
    kind), [Undetermined] (budgets exhausted — §VII-B3).

    Engines, in the order they are tried: constrained-random simulation (a
    hit proves reachability), k-induction with simple-path constraints (a
    genuine unreachability proof, confirmed by a BMC base case), then
    single-shot BMC over a shared incremental unrolling (thousands of
    properties on the same design share one solver and its learned
    clauses).  BMC either finds a witness or, when the depth is exhausted
    cleanly, yields a bounded-unreachable verdict — the analogue of the
    paper's undetermined-as-unreachable configuration (§VII-B4).

    BMC witnesses are {e canonical} — minimal hit time, then
    lexicographically-minimal free variables — so the reported trace
    depends only on the design's semantics, never on the encoding the
    solver searched; that is what keeps report digests bit-identical
    across cache warmth and across word-level/gate-level variants of one
    design. *)

module Cex : sig
  type t
  (** A witness trace: per-cycle values of every named signal. *)

  val length : t -> int
  val value : t -> string -> cycle:int -> Bitvec.t option
  val value_exn : t -> string -> cycle:int -> Bitvec.t

  val pp : Format.formatter -> t -> unit
end

type proof =
  | Inductive of int  (** k-induction succeeded at this k. *)
  | Bounded of int  (** No witness within this BMC depth; no budget overrun. *)

type outcome = Reachable of Cex.t | Unreachable of proof | Undetermined

val outcome_tag : outcome -> string

module Stats : sig
  type t = {
    mutable n_props : int;
    mutable n_reachable : int;
    mutable n_unreachable : int;
    mutable n_undetermined : int;
    mutable n_sim_discharged : int;
    mutable n_inductive : int;
    mutable n_cache_hits : int;
        (** Verdicts served from the attached {!Vcache.t}. *)
    mutable n_cache_misses : int;
        (** Verdicts computed and stored (0 when no cache is attached). *)
    mutable total_time : float;
  }

  val create : unit -> t

  val merge : t -> t -> t
  (** Field-wise sum, as a fresh record — the aggregation point for
      per-shard and per-task checker instances. *)

  val copy : t -> t
  (** A snapshot: a fresh record with the same totals.  Use when exposing
      stats from a live checker, so later checking cannot mutate what the
      caller already holds. *)

  val mean_time : t -> float
  (** Mean seconds per property (0 when no properties were checked). *)

  val pct_undetermined : t -> float
  (** Percentage of properties left undetermined (0 when none checked). *)

  val hit_rate : t -> float
  (** [n_cache_hits / (n_cache_hits + n_cache_misses)] — the rate over
      cache {e lookups}, so stats merged in from checkers with no cache
      attached do not dilute it (0 when no lookups happened). *)

  val pp : Format.formatter -> t -> unit
end

type config = {
  bmc_depth : int;
  bmc_conflicts : int;
  induction_max_k : int;  (** 0 disables k-induction. *)
  induction_conflicts : int;
  sim_episodes : int;  (** 0 disables the simulation pre-pass. *)
  sim_cycles : int;
  seed : int;
  encode_cse : bool;
      (** Structural hashing of the Tseitin encoding (default [true]).
          Part of the verdict-cache key: it changes the solver trajectory
          and hence how a verdict is reached. *)
  known_bits : bool;
      (** Substitute {!Hdl.Absint.known_bits} invariants as constant
          literals in both engines' encodings (default [true]).  On the
          BMC (reset-state) side the substitution never changes the CNF —
          per-step folding of the reset constants subsumes it — but on
          the induction side it is the standard invariant strengthening:
          the known-bits fixpoint is an inductive invariant, so the
          free-initial unrollings substitute its constant bits, shrinking
          variables and clauses (see [ss_ind_vars]) and letting induction
          discharge covers plain induction cannot.  Part of the cache
          key: the strengthening can change verdicts (Undetermined
          becoming Unreachable) and solver trajectories. *)
  reduce_db : bool;
      (** Periodic learnt-clause DB reduction (default [true]).  Also part
          of the cache key, for the same reason. *)
}

val default_config : config

type t

val create :
  ?cache:Vcache.t ->
  ?cache_salt:string ->
  ?stimulus:(Sim.t -> int -> unit) ->
  ?config:config ->
  ?assume_initial:Hdl.Netlist.signal list ->
  ?semantic_cache:bool ->
  assumes:Hdl.Netlist.signal list ->
  Hdl.Netlist.t ->
  t
(** [assumes] are 1-bit signals pinned true on every cycle (SVA [assume]);
    [stimulus] optionally drives the simulation pre-pass (unpoked inputs
    are randomized by the caller's own logic); traces violating an
    assumption are discarded.

    [cache] attaches a persistent verdict store: each {!check_cover} is
    keyed by a digest of (netlist structure, assumption signals, every
    [config] field including the seed, [cache_salt], cover literals) and
    served from the store when present.  A cached verdict replays exactly
    as the cold run computed it — witness trace, sim-discharged
    accounting, and the RNG draws the sim pre-pass consumed — so a run
    whose properties all hit is bit-identical to the run that filled the
    store.  [cache_salt] must identify any verdict-relevant input the
    checker cannot see, in practice the [stimulus] closure's identity.

    [semantic_cache] (default [false], meaningful only with [cache])
    switches the cache keys to the behavioral namespace: the netlist
    contributes {!Hdl.Equiv.semantic_digest} instead of its structural
    digest, and assume/cover signals contribute their name-structural
    descriptors ({!Hdl.Equiv.describe_all}) instead of node ids —
    behavioral {!Hdl.Equiv.signatures} were rejected for keys because
    covers the canonical stimulus never activates would collide.
    Semantically equivalent netlist variants — a word-level design and its
    gate-level re-synthesis, say — then share verdicts.  Sound because
    witnesses are canonical, with one caveat: a budget-limited [Undetermined] could in principle resolve
    differently on another variant, so pair this with budgets generous
    enough that shared queries terminate. *)

val check_cover : ?name:string -> t -> (Hdl.Netlist.signal * bool) list -> outcome
(** [check_cover t lits] searches for a cycle where every [(signal,
    polarity)] literal holds simultaneously. *)

val stats : t -> Stats.t
val netlist : t -> Hdl.Netlist.t

val dump_cnf : t -> string
(** The shared BMC unrolling's current clause set as DIMACS CNF text
    (via {!Sat.Dimacs.of_solver}) — for offline debugging with external
    solvers.  Cheap relative to solving, but the text can be large. *)

type sat_stats = {
  ss_conflicts : int;
  ss_propagations : int;
  ss_learnts : int;  (** Learnt clauses currently in the BMC solver's DB. *)
  ss_learnt_peak : int;
  ss_reduces : int;  (** reduce_db events on the BMC solver. *)
  ss_cse_hits : int;
  ss_cse_lookups : int;
  ss_vars : int;  (** Variables allocated in the BMC engine's solver. *)
  ss_ind_vars : int;
      (** Variables allocated across the short-lived k-induction side
          solvers, cumulative over every induction attempt.  This is the counter the known-bits
          substitution ([config.known_bits]) shrinks: the [`Free]-initial
          unrolling stops allocating variables for proven register bits.
          (On the [`Reset]-initial BMC side the substitution is subsumed
          by per-step constant folding, so [ss_vars] is unaffected by the
          flag.) *)
}

val sat_stats : t -> sat_stats
(** Cumulative solver/encoding statistics: the shared BMC unrolling,
    plus the induction side solvers' variable total. *)
