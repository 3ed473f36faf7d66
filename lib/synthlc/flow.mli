(** Symbolic information-flow queries (§V-C1).

    For one transponder and one (transmitter-kind, operand) pair, {!analyze}
    builds a fresh copy of the design, instruments it with CellIFT-style
    taint logic whose single source is the chosen operand register while the
    transmitter's PC occupies the operand-read stage (Fig. 7), adds the
    transmitter-typing monitors implementing Assumptions 1/2a/2b/3, and
    evaluates one cover property per (transmitter, decision): is there a
    trace where the transponder exhibits decision (src, dst) one cycle after
    visiting src with the destination µFSMs tainted?  Reachable ⇒ the
    decision is tagged operand-dependent on that typed transmitter. *)

type query_stats = {
  mutable q_props : int;
      (** Covers considered, including statically-discharged ones — identical
          across {!Mc.Prune} modes and part of the report digest. *)
  mutable q_tagged : int;
  mutable q_undetermined : int;
  mutable q_pruned_static : int;
      (** Covers discharged by the static taint pre-pass without a checker
          call.  Only incremented under {!Mc.Prune.On}; excluded from the
          report digest. *)
  mutable q_pruned_absint : int;
      (** Covers discharged {e only} by the known-bits-refined pre-pass
          (dead refined, live under the base pre-pass).  Only incremented
          under {!Mc.Prune.On}; excluded from the report digest. *)
  mutable q_trailing : int;
      (** Statically-dead covers dispatched in the trailing batch under
          {!Mc.Prune.Off}/{!Mc.Prune.Audit}.  Excluded from the digest. *)
  mutable q_time : float;
}

type analysis = {
  tagged : Types.tagged_decision list;
  static_live : string list;
      (** PL labels inside the operand's static taint cone — the leakage-grid
          over-approximation.  Every tagged decision's destination set must
          intersect it (asserted by {!Engine}). *)
  stats : query_stats;
}

val transmitter_pc : iuv_pc:int -> Types.transmitter_kind -> int
(** PC slot the transmitter instance occupies relative to the IUV:
    intrinsic shares the IUV's slot, dynamic-older/-younger sit one slot
    before/after, static sits two slots before (so it can complete first). *)

val analyze :
  ?cache:Vcache.t ->
  ?cache_salt:string ->
  ?config:Mc.Checker.config ->
  ?stimulus:(Sim.t -> int -> unit) ->
  ?semantic_cache:bool ->
  ?precise:bool ->
  ?prune:Mc.Prune.t ->
  design:(unit -> Designs.Meta.t) ->
  transponder:Isa.t ->
  decisions:(string * string list list) list ->
  transmitters:Isa.opcode list ->
  kind:Types.transmitter_kind ->
  operand:Types.operand ->
  iuv_pc:int ->
  unit ->
  analysis
(** [decisions] come from {!Mupath.Synth.run} (sources with their observed
    destination sets); [transmitters] are the candidate opcodes considered
    at the transmitter slot (intrinsic analyses only query the transponder
    itself); [precise] selects the IFT cell-rule precision (§VII-B1
    ablation) — it is threaded identically into the static taint pre-pass
    and folded into the verdict-cache namespace when imprecise.
    [prune] (default {!Mc.Prune.On}) selects what happens to the one dead
    set: covers whose destinations lie outside the operand's static taint
    cone, or outside the cone its known-bits refinement ({!Hdl.Absint})
    allows.  Every mode keeps them out of the mid-stream checker sequence.
    [On] discharges them; [Off] dispatches them as one trailing batch and
    tags any reachable one; [Audit] dispatches the same batch and raises
    [Failure], naming the analysis, on any reachable one.  [design] must
    build a fresh metadata instance per call. *)
