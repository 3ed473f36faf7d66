(** The one operating mode of the static pre-deciders.

    RTL2MµPATH and SynthLC discharge every cover by model checking
    (§V-B).  Static analyses — the FSM abstraction, the taint cone and
    the known-bits refinement of each — prove some covers dead before any
    solver runs.  They are shortcuts, so each client keeps its dead covers
    out of the mid-stream checker sequence in every mode: the checker's
    shared RNG stream and learned clauses then evolve identically, and
    the report digest does not depend on the mode.  The mode only decides
    what happens to the dead covers afterwards:

    - [On] discharges them without a checker call;
    - [Off] dispatches them as one trailing batch and hands any
      [Reachable] verdict to the client;
    - [Audit] dispatches the same batch and fails on any [Reachable]
      verdict, naming the analysis that proved the cover dead. *)

type t = On | Off | Audit

val to_string : t -> string
(** ["on"] / ["off"] / ["audit"]. *)

val of_string : string -> t option

type 'a dead = {
  analysis : string;
      (** The analysis that proved the cover dead, e.g. ["Synth: known-bits
          abstraction"]; it names the culprit when an audit fails. *)
  cover : string;  (** The cover, for diagnostics (e.g. ["PL divU"]). *)
  lits : (Hdl.Netlist.signal * bool) list;  (** What the checker is asked. *)
  item : 'a;  (** The client's own payload. *)
}
(** One statically-dead cover, deferred to the trailing batch. *)

val unsound : 'a dead -> 'b
(** Raise [Failure] reporting that [analysis] proved [cover] dead although
    the checker reached it. *)

val run_deferred :
  t ->
  check:((Hdl.Netlist.signal * bool) list -> Checker.outcome) ->
  reachable:('a dead -> unit) ->
  'a dead list ->
  unit
(** [run_deferred mode ~check ~reachable batch] runs the trailing batch.
    [On] dispatches nothing.  [Off] and [Audit] pass each cover's [lits]
    to [check], in order; on a [Reachable] verdict, [Audit] calls
    {!unsound} and [Off] calls [reachable].  [check] is where the client
    counts the properties it dispatches. *)
