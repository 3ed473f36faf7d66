module Netlist = Hdl.Netlist
module Meta = Designs.Meta

let max_run_limit = 15

type group = {
  label : string;
  members : (Meta.ufsm * Bitvec.t) list;
}

type monitors = {
  m_occ_any : Netlist.signal;
  m_occ_iuv : Netlist.signal;
  m_prev_occ : Netlist.signal;
  m_visited : Netlist.signal;
  m_cons : Netlist.signal;
  m_reenter : Netlist.signal;
  m_maxrun_eq : Netlist.signal array; (* index 1..max_run_limit; empty if not tracked *)
}

type t = {
  meta : Meta.t;
  iuv : Isa.t;
  iuv_pc : int;
  groups : group list;
  mons : (string, monitors) Hashtbl.t;
  edges : ((string * string) * Netlist.signal) list;
  gone_s : Netlist.signal;
  unlabeled_occs : (string * Netlist.signal * (Meta.ufsm * Bitvec.t)) list;
  assumes : Netlist.signal list;
  checker : Mc.Checker.t;
}

let checker t = t.checker
let meta t = t.meta
let iuv t = t.iuv
let labels t = List.map (fun g -> g.label) t.groups

let mon t lbl =
  match Hashtbl.find_opt t.mons lbl with
  | Some m -> m
  | None -> invalid_arg ("Harness: unknown PL group " ^ lbl)

let occ_any t lbl = (mon t lbl).m_occ_any
let occ_iuv t lbl = (mon t lbl).m_occ_iuv
let prev_occ_iuv t lbl = (mon t lbl).m_prev_occ
let visited t lbl = (mon t lbl).m_visited
let cons_flag t lbl = (mon t lbl).m_cons
let reenter_flag t lbl = (mon t lbl).m_reenter
let gone t = t.gone_s
let assumes t = t.assumes
let edge_candidates t = List.map fst t.edges

let unlabeled_states t = List.map (fun (n, s, _) -> (n, s)) t.unlabeled_occs
let unlabeled_state_info t = t.unlabeled_occs

let edge_flag t e =
  match List.assoc_opt e t.edges with
  | Some s -> s
  | None -> invalid_arg "Harness.edge_flag: not a candidate edge"

let maxrun_eq t lbl n =
  let m = mon t lbl in
  if Array.length m.m_maxrun_eq = 0 then
    invalid_arg ("Harness.maxrun_eq: label not tracked: " ^ lbl)
  else if n < 1 || n > max_run_limit then invalid_arg "Harness.maxrun_eq: bad n"
  else m.m_maxrun_eq.(n - 1)

(* Collect labelled PL groups from the metadata: states sharing a label
   across µFSMs (e.g. all four scoreboard entries' "scbIss") form one
   group. *)
let collect_groups (meta : Meta.t) =
  let tbl = Hashtbl.create 16 in
  let order = ref [] in
  List.iter
    (fun (u : Meta.ufsm) ->
      List.iter
        (fun (state, label) ->
          if List.exists (Bitvec.equal state) u.Meta.idle_states then ()
          else begin
            if not (Hashtbl.mem tbl label) then begin
              Hashtbl.replace tbl label [];
              order := label :: !order
            end;
            Hashtbl.replace tbl label ((u, state) :: Hashtbl.find tbl label)
          end)
        u.Meta.state_labels)
    meta.Meta.ufsms;
  List.map
    (fun label -> { label; members = Hashtbl.find tbl label })
    (List.rev !order)

(* Static netlist analysis (§V-B5): µFSM u0 feeds u1 combinationally when
   u1's state-update logic reads u0's state variables or PCR. *)
let ufsm_connectivity (meta : Meta.t) =
  let nl = meta.Meta.nl in
  let next_of s =
    match (Netlist.node nl s).Netlist.kind with
    | Netlist.Reg { next = Some n; _ } -> n
    | _ -> failwith "Harness: µFSM var is not a register"
  in
  let cones =
    List.map
      (fun (u : Meta.ufsm) ->
        let roots = List.map next_of (u.Meta.pcr :: u.Meta.vars) in
        (u.Meta.ufsm_name, Netlist.comb_cone nl roots))
      meta.Meta.ufsms
  in
  fun (u0 : Meta.ufsm) (u1 : Meta.ufsm) ->
    let cone = List.assoc u1.Meta.ufsm_name cones in
    List.exists (fun s -> Hashtbl.mem cone s) (u0.Meta.pcr :: u0.Meta.vars)

let pl_groups meta =
  List.map (fun g -> (g.label, g.members)) (collect_groups meta)

let create ?cache ?cache_salt ?config ?stimulus ?(semantic_cache = false)
    ?(revisit_count_labels = []) ~meta ~iuv ~iuv_pc () =
  let module D = Hdl.Dsl.Make (struct
    let nl = meta.Meta.nl
  end) in
  let open D in
  let groups = collect_groups meta in
  let pcw = Netlist.width nl meta.Meta.commit_pc in
  let iuv_pc_c = of_int pcw iuv_pc in
  let state_of_ufsm (u : Meta.ufsm) = concat u.Meta.vars in
  let member_occ (u, state) = state_of_ufsm u ==: of_bv state in
  let member_occ_iuv ((u : Meta.ufsm), state) =
    member_occ (u, state) &: (u.Meta.pcr ==: iuv_pc_c)
  in
  let or_all = List.fold_left ( |: ) gnd in

  (* Per-group occupancy. *)
  let occs =
    List.map
      (fun g ->
        let oa = or_all (List.map member_occ g.members) in
        let oi = or_all (List.map member_occ_iuv g.members) in
        (g.label, oa, oi))
      groups
  in

  (* The IUV is gone once it committed and occupies no µFSM. *)
  let in_any = or_all (List.map (fun (_, _, oi) -> oi) occs) in
  let committed_s = reg ~name:"iuv_committed" ~width:1 () in
  let () =
    committed_s
    <== (committed_s |: (meta.Meta.commit &: (meta.Meta.commit_pc ==: iuv_pc_c)))
  in
  let gone_now = committed_s &: ~:in_any in
  let gone_reg = reg ~name:"iuv_gone" ~width:1 () in
  let () = gone_reg <== (gone_reg |: gone_now) in
  let frozen = gone_reg |: gone_now in

  let nm fmt_label lbl = "mon_" ^ fmt_label ^ "_" ^ lbl in
  let mons = Hashtbl.create 16 in
  List.iter
    (fun (lbl, oa, oi) ->
      let freeze_keep r v = mux frozen r (r |: v) in
      let prev = reg ~name:(nm "prev" lbl) ~width:1 () in
      let () = prev <== oi in
      let vis = reg ~name:(nm "vis" lbl) ~width:1 () in
      let () = vis <== freeze_keep vis oi in
      let cons = reg ~name:(nm "cons" lbl) ~width:1 () in
      let () = cons <== freeze_keep cons (prev &: oi) in
      let left = reg ~name:(nm "left" lbl) ~width:1 () in
      let () = left <== freeze_keep left (vis &: ~:oi) in
      let reenter = reg ~name:(nm "reenter" lbl) ~width:1 () in
      let () = reenter <== freeze_keep reenter (left &: oi) in
      let maxrun_eq =
        if not (List.mem lbl revisit_count_labels) then [||]
        else begin
          let cur = reg ~name:(nm "run" lbl) ~width:4 () in
          let maxr = reg ~name:(nm "maxrun" lbl) ~width:4 () in
          let inc =
            mux (cur ==: of_int 4 max_run_limit) cur (cur +: of_int 4 1)
          in
          let cur_next = mux oi inc (zero 4) in
          let () = cur <== mux frozen cur cur_next in
          let () =
            maxr <== mux frozen maxr (mux (maxr <: cur_next) cur_next maxr)
          in
          Array.init max_run_limit (fun i -> maxr ==: of_int 4 (i + 1))
        end
      in
      (* Name the occupancy wires so they appear in witness traces. *)
      let oa_w = wire ~name:(nm "occany" lbl) 1 in
      let () = oa_w <== oa in
      let oi_w = wire ~name:(nm "occ" lbl) 1 in
      let () = oi_w <== oi in
      Hashtbl.replace mons lbl
        {
          m_occ_any = oa_w;
          m_occ_iuv = oi_w;
          m_prev_occ = prev;
          m_visited = vis;
          m_cons = cons;
          m_reenter = reenter;
          m_maxrun_eq = maxrun_eq;
        })
    occs;

  (* Candidate happens-before edges from combinational connectivity. *)
  let connected = ufsm_connectivity meta in
  let edges =
    List.concat_map
      (fun g0 ->
        List.filter_map
          (fun g1 ->
            if g0.label = g1.label then None
            else if
              List.exists
                (fun (u0, _) ->
                  List.exists (fun (u1, _) -> connected u0 u1) g1.members)
                g0.members
            then Some (g0.label, g1.label)
            else None)
          groups)
      groups
  in
  let edge_sigs =
    List.map
      (fun (l0, l1) ->
        let m0 = Hashtbl.find mons l0 and m1 = Hashtbl.find mons l1 in
        let e = reg ~name:(Printf.sprintf "mon_edge_%s__%s" l0 l1) ~width:1 () in
        let () =
          e
          <== mux frozen e
                (e |: (m0.m_prev_occ &: m1.m_occ_iuv &: ~:(m1.m_visited)))
        in
        ((l0, l1), e))
      edges
  in

  let gone_w = wire ~name:"mon_gone" 1 in
  let () = gone_w <== frozen in

  (* Occupancy of every unlabeled, non-idle state valuation (§V-B1): these
     are candidate PLs the designer did not name; the DUV-reachability stage
     is expected to prune them. *)
  let unlabeled_occs =
    List.concat_map
      (fun (u : Meta.ufsm) ->
        List.filter_map
          (fun v ->
            let labelled =
              List.exists (fun (s, _) -> Bitvec.equal s v) u.Meta.state_labels
            in
            let idle = List.exists (Bitvec.equal v) u.Meta.idle_states in
            if labelled || idle then None
            else
              Some (Meta.state_value meta u v, state_of_ufsm u ==: of_bv v, (u, v)))
          (Meta.all_state_valuations meta u))
      meta.Meta.ufsms
  in

  (* IUV fetch constraint: every IFR slot holding the IUV's PC carries the
     IUV's encoding. *)
  let enc = of_bv (Isa.encode iuv) in
  let iuv_assumes =
    List.map
      (fun (slot : Meta.ifr_slot) ->
        ~:(slot.Meta.ifr_valid &: (slot.Meta.ifr_pc ==: iuv_pc_c))
        |: (slot.Meta.ifr_word ==: enc))
      meta.Meta.ifrs
  in
  (* PC-as-IID uniqueness: once the IUV has committed, its PC slot must not
     be fetched again (post-exception replay would otherwise start a second
     dynamic instance under the same IID). *)
  let no_refetch =
    List.map
      (fun (slot : Meta.ifr_slot) ->
        ~:(slot.Meta.ifr_valid &: (slot.Meta.ifr_pc ==: iuv_pc_c) &: committed_s))
      meta.Meta.ifrs
  in
  let assumes = iuv_assumes @ no_refetch @ meta.Meta.extra_assumes in
  let checker =
    Mc.Checker.create ?cache ?cache_salt ?stimulus ?config ~semantic_cache
      ~assumes nl
  in
  {
    meta;
    iuv;
    iuv_pc;
    groups;
    mons;
    edges = edge_sigs;
    gone_s = gone_w;
    unlabeled_occs;
    assumes;
    checker;
  }
