(* Symbolic information-flow queries (§V-C1).

   For one transponder P and one (transmitter-kind, operand) pair, [analyze]
   builds a fresh copy of the design, instruments it with CellIFT-style
   taint logic whose single taint source is the chosen operand register while
   the transmitter's PC occupies the operand-read stage (Fig. 7), adds the
   transmitter-typing monitors (in-flight / gone) implementing Assumptions
   1/2a/2b/3, and then evaluates one cover property per (transmitter,
   decision): is there a trace where P exhibits decision (src, dst) one
   cycle after visiting src, with the destination µFSMs tainted? *)

module Netlist = Hdl.Netlist
module Meta = Designs.Meta
module Checker = Mc.Checker

type query_stats = {
  mutable q_props : int;
  mutable q_tagged : int;
  mutable q_undetermined : int;
  mutable q_pruned_static : int;
  mutable q_pruned_absint : int;
  mutable q_trailing : int;
  mutable q_time : float;
}

type analysis = {
  tagged : Types.tagged_decision list;
  static_live : string list;
  stats : query_stats;
}

(* Transmitter PC slots relative to the IUV (§V-C1, Fig. 7). *)
let transmitter_pc ~iuv_pc = function
  | Types.Intrinsic -> iuv_pc
  | Types.Dynamic_older -> iuv_pc - 1
  | Types.Dynamic_younger -> iuv_pc + 1
  | Types.Static -> iuv_pc - 2

let analyze_inner ?cache ?cache_salt ?config ?stimulus ?semantic_cache
    ?(precise = true)
    ?(prune = Mc.Prune.On)
    ~(design : unit -> Meta.t)
    ~(transponder : Isa.t)
    ~(decisions : (string * string list list) list)
    ~(transmitters : Isa.opcode list) ~(kind : Types.transmitter_kind)
    ~(operand : Types.operand) ~iuv_pc () =
  let t_start = Unix.gettimeofday () in
  let meta = design () in
  let nl = meta.Meta.nl in
  let module D = Hdl.Dsl.Make (struct
    let nl = nl
  end) in
  let open D in
  let pcw = Netlist.width nl meta.Meta.commit_pc in
  let pc_t = transmitter_pc ~iuv_pc kind in
  let pc_t_c = of_int pcw pc_t in
  let or_all = List.fold_left ( |: ) gnd in

  (* --- transmitter-instance monitors --------------------------------- *)
  (* Latch the first instruction word fetched at the transmitter's PC and
     pin later refetches to it, so the transmitter's identity is stable. *)
  let slot_holds_t (s : Meta.ifr_slot) =
    s.Meta.ifr_valid &: (s.Meta.ifr_pc ==: pc_t_c)
  in
  let any_slot_t = or_all (List.map slot_holds_t meta.Meta.ifrs) in
  let slot_word =
    List.fold_left
      (fun acc (s : Meta.ifr_slot) -> mux (slot_holds_t s) s.Meta.ifr_word acc)
      (zero Isa.width) meta.Meta.ifrs
  in
  let t_word_valid = reg ~name:"tx_word_valid" ~width:1 () in
  let t_word = reg ~name:"tx_word" ~width:Isa.width () in
  let () =
    t_word_valid <== (t_word_valid |: any_slot_t);
    t_word <== mux (any_slot_t &: ~:t_word_valid) slot_word t_word
  in
  let t_word_stable =
    ~:(any_slot_t &: t_word_valid) |: (slot_word ==: t_word)
  in
  let t_op = select t_word 18 14 in
  let t_op_is =
    List.map (fun o -> (o, t_word_valid &: eq_const t_op (Isa.opcode_to_int o)))
      transmitters
  in

  (* Transmitter in-flight / gone tracking over the design's µFSMs. *)
  let groups = Mupath.Harness.pl_groups meta in
  let occ_t_of ((u : Meta.ufsm), state) =
    (concat u.Meta.vars ==: of_bv state) &: (u.Meta.pcr ==: pc_t_c)
  in
  let inflight_t =
    or_all (List.concat_map (fun (_, members) -> List.map occ_t_of members) groups)
  in
  let prev_inflight_t = reg ~name:"tx_prev_inflight" ~width:1 () in
  let () = prev_inflight_t <== inflight_t in
  let committed_t = reg ~name:"tx_committed" ~width:1 () in
  let () =
    committed_t
    <== (committed_t |: (meta.Meta.commit &: (meta.Meta.commit_pc ==: pc_t_c)))
  in
  let gone_t_now = committed_t &: ~:inflight_t in
  let gone_t = reg ~name:"tx_gone" ~width:1 () in
  let () = gone_t <== (gone_t |: gone_t_now) in
  let prev_gone_t = reg ~name:"tx_prev_gone" ~width:1 () in
  let () = prev_gone_t <== gone_t in
  let flush_pulse = gone_t_now &: ~:gone_t in

  (* --- taint instrumentation ------------------------------------------ *)
  let op_reg = List.assoc_opt (Types.operand_name operand) meta.Meta.operand_regs in
  let inject_cond =
    meta.Meta.operand_stage_valid &: (meta.Meta.operand_stage_pc ==: pc_t_c)
  in
  match op_reg with
  | None ->
    (* The design has no such operand register (e.g. a single-operand toy
       DUV): nothing can be tainted, nothing is tagged. *)
    {
      tagged = [];
      static_live = [];
      stats =
        {
          q_props = 0;
          q_tagged = 0;
          q_undetermined = 0;
          q_pruned_static = 0;
          q_pruned_absint = 0;
          q_trailing = 0;
          q_time = 0.;
        };
    }
  | Some op_reg ->
  let blocked = meta.Meta.arf @ meta.Meta.amem in

  (* --- static taint-flow pre-pass -------------------------------------- *)
  (* Over-approximate, on the un-instrumented netlist, which PL groups the
     operand's taint may ever reach.  A cover whose destination set lies
     entirely outside this cone (or is empty — [or_all [] = gnd]) asks the
     checker to reach a constant-false taint conjunct and is statically
     unreachable.  Every [prune] mode keeps such covers out of the
     mid-stream checker sequence so the report digest is mode-invariant;
     see {!Mc.Prune}. *)
  let static_masks =
    let go () = Hdl.Analysis.taint_reach ~precise ~blocked ~sources:[ op_reg ] nl in
    if Obs.enabled () then Obs.with_span "flow.static_taint" go else go ()
  in
  let label_live =
    List.map
      (fun (label, members) ->
        let m_live ((u : Meta.ufsm), _) =
          List.exists
            (fun v -> Hdl.Analysis.taint_reaches static_masks v)
            (u.Meta.pcr :: u.Meta.vars)
        in
        (label, List.exists m_live members))
      groups
  in
  (* Unknown labels are treated as live: never prune on missing data. *)
  let dst_live ds =
    List.exists
      (fun lbl ->
        match List.assoc_opt lbl label_live with Some b -> b | None -> true)
      ds
  in
  let static_live =
    List.filter_map (fun (l, live) -> if live then Some l else None) label_live
  in
  (* --- known-bits refinement of the taint pre-pass ---------------------- *)
  (* Re-run the same pre-pass with the known-bits invariants from
     {!Hdl.Absint}: proven-constant selector and operand bits let the
     precise cell rules drop propagation edges the plain pre-pass keeps,
     so strictly more covers are proven dead.  A cover counts as a
     known-bits prune only when the base pre-pass left it live. *)
  let refined_masks =
    let go () =
      let kb = Hdl.Absint.known_bits nl in
      Hdl.Analysis.taint_reach ~precise ~known:kb ~blocked
        ~sources:[ op_reg ] nl
    in
    if Obs.enabled () then Obs.with_span "flow.absint_taint" go else go ()
  in
  let label_live_refined =
    List.map
      (fun (label, members) ->
        let m_live ((u : Meta.ufsm), _) =
          List.exists
            (fun v -> Hdl.Analysis.taint_reaches refined_masks v)
            (u.Meta.pcr :: u.Meta.vars)
        in
        (label, List.exists m_live members))
      groups
  in
  let dst_live_refined ds =
    List.exists
      (fun lbl ->
        match List.assoc_opt lbl label_live_refined with
        | Some b -> b
        | None -> true)
      ds
  in
  (* Persistent state for the sticky-taint flush of Assumption 3: every
     symbolically-initialized register that is not architectural (cache tag
     and data arrays in the cache DUV). *)
  let persistent =
    Netlist.fold_nodes nl ~init:[] ~f:(fun acc n ->
        match n.Netlist.kind with
        | Netlist.Reg { init = Netlist.Init_symbolic; _ }
          when not (List.mem n.Netlist.id blocked) ->
          n.Netlist.id :: acc
        | _ -> acc)
  in
  let flush = match kind with Types.Static -> Some flush_pulse | _ -> None in
  let ift =
    Ift.instrument ~precise
      ~inject:[ (op_reg, inject_cond) ]
      ~blocked ?flush ~persistent nl
  in

  (* Per-PL-group taint: any taint bit in a member µFSM's state variables or
     PCR. *)
  let group_taint =
    List.map
      (fun (label, members) ->
        let m_taint ((u : Meta.ufsm), _) =
          or_all (List.map (fun v -> Ift.any_taint ift v) (u.Meta.pcr :: u.Meta.vars))
        in
        (label, or_all (List.map m_taint members)))
      groups
  in
  (* One OR node per distinct destination set. *)
  let dst_sets =
    List.sort_uniq compare (List.concat_map (fun (_, ds) -> ds) decisions)
  in
  let dst_taints =
    List.map
      (fun ds -> (ds, or_all (List.map (fun lbl -> List.assoc lbl group_taint) ds)))
      dst_sets
  in

  (* --- IUV harness (checker) ------------------------------------------ *)
  let meta = { meta with Meta.extra_assumes = t_word_stable :: meta.Meta.extra_assumes } in
  (* Imprecise IFT changes what every cover means even if the instrumented
     netlist digest were to collide, so fold the mode into the verdict-cache
     namespace explicitly. *)
  let cache_salt =
    if precise then cache_salt
    else Some (Option.value cache_salt ~default:"" ^ "|ift:imprecise")
  in
  let h =
    Mupath.Harness.create ?cache ?cache_salt ?config ?stimulus ?semantic_cache
      ~meta ~iuv:transponder ~iuv_pc ()
  in
  let chk = Mupath.Harness.checker h in

  (* --- queries ---------------------------------------------------------- *)
  let stats =
    {
      q_props = 0;
      q_tagged = 0;
      q_undetermined = 0;
      q_pruned_static = 0;
      q_pruned_absint = 0;
      q_trailing = 0;
      q_time = 0.;
    }
  in
  let iuv_labels = Mupath.Harness.labels h in
  let kind_lits =
    match kind with
    | Types.Intrinsic -> []
    | Types.Dynamic_older | Types.Dynamic_younger ->
      [ (prev_inflight_t, true) ]
    | Types.Static -> [ (prev_gone_t, true) ]
  in
  let tagged = ref [] in
  let tag (tx, src, dst) =
    stats.q_tagged <- stats.q_tagged + 1;
    tagged :=
      {
        Types.src;
        dst;
        input = { Types.transmitter = tx; unsafe_operand = operand; kind };
      }
      :: !tagged
  in
  let static_taint = "Flow: static taint abstraction" in
  let kb_taint = "Flow: known-bits taint abstraction" in
  let deferred = ref [] in
  List.iter
    (fun tx ->
      (* Intrinsic transmitters can only be the transponder itself. *)
      if kind <> Types.Intrinsic || tx = transponder.Isa.op then
        let op_lit =
          if kind = Types.Intrinsic then []
          else [ (List.assoc tx t_op_is, true) ]
        in
        List.iter
          (fun (src, dsts) ->
            List.iter
              (fun dst ->
                let pattern =
                  List.map
                    (fun lbl -> (Mupath.Harness.occ_iuv h lbl, List.mem lbl dst))
                    iuv_labels
                in
                let lits =
                  ((Mupath.Harness.prev_occ_iuv h src, true) :: pattern)
                  @ [ (List.assoc dst dst_taints, true) ]
                  @ op_lit @ kind_lits
                in
                stats.q_props <- stats.q_props + 1;
                (* Statically dead: no destination µFSM lies inside the
                   operand's taint cone (an empty destination set is dead
                   by vacuity — its taint conjunct is a constant false),
                   first under the base pre-pass, else under its
                   known-bits refinement. *)
                let dead_by =
                  if not (dst_live dst) then Some static_taint
                  else if not (dst_live_refined dst) then Some kb_taint
                  else None
                in
                match dead_by with
                | Some analysis when prune = Mc.Prune.On ->
                  if analysis = static_taint then begin
                    stats.q_pruned_static <- stats.q_pruned_static + 1;
                    if Obs.enabled () then Obs.Metrics.incr "flow.pruned_static"
                  end
                  else begin
                    stats.q_pruned_absint <- stats.q_pruned_absint + 1;
                    if Obs.enabled () then Obs.Metrics.incr "flow.pruned_absint"
                  end
                | Some analysis ->
                  let cover =
                    Printf.sprintf "cover %s -> {%s} (%s, %s.%s)" src
                      (String.concat ", " dst) (Types.kind_name kind)
                      (Isa.mnemonic tx) (Types.operand_name operand)
                  in
                  deferred :=
                    { Mc.Prune.analysis; cover; lits; item = (tx, src, dst) }
                    :: !deferred
                | None -> (
                  match Checker.check_cover ~name:"ift" chk lits with
                  | Checker.Reachable _ -> tag (tx, src, dst)
                  | Checker.Undetermined ->
                    stats.q_undetermined <- stats.q_undetermined + 1
                  | Checker.Unreachable _ -> ()))
              dsts)
          decisions)
    transmitters;
  (* Trailing batch: under [Off]/[Audit] the statically-dead covers are
     still dispatched, but only after the live mid-stream sequence above,
     so every mode issues the same mid-stream checker calls (same RNG
     draws, same learned clauses).  [Off] trusts the checker and tags a
     reachable cover honestly — the digest then diverges, by design. *)
  Mc.Prune.run_deferred prune
    ~check:(fun lits ->
      stats.q_trailing <- stats.q_trailing + 1;
      Checker.check_cover ~name:"ift" chk lits)
    ~reachable:(fun d -> tag d.Mc.Prune.item)
    (List.rev !deferred);
  stats.q_time <- Unix.gettimeofday () -. t_start;
  { tagged = List.rev !tagged; static_live; stats }

let analyze ?cache ?cache_salt ?config ?stimulus ?semantic_cache ?precise
    ?prune ~design ~transponder ~decisions ~transmitters ~kind ~operand
    ~iuv_pc () =
  let go () =
    analyze_inner ?cache ?cache_salt ?config ?stimulus ?semantic_cache ?precise
      ?prune ~design ~transponder ~decisions ~transmitters ~kind ~operand
      ~iuv_pc ()
  in
  if Obs.enabled () then
    Obs.with_span "flow.analyze"
      ~args:[ ("transponder", Isa.to_string transponder) ]
      go
  else go ()
