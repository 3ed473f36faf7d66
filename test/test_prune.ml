(* The one static pre-decider mode ({!Mc.Prune}): the shared deferred-batch
   runner against a fake checker, and the On/Off/Audit mode contract on
   engine workloads (identical report digests, every pruned cover
   reappearing as a trailing property under Off and Audit), whose
   per-pruner checks live in the absint, lint and taint suites. *)

module C = Mc.Checker

(* --- the deferred-batch runner ------------------------------------------- *)

let test_deferred_batch () =
  let nl, _, at5, _, _ = Test_mc.counter_design () in
  let reachable =
    C.check_cover (C.create ~config:Test_mc.quick_config ~assumes:[] nl) [ (at5, true) ]
  in
  (match reachable with
  | C.Reachable _ -> ()
  | o -> Alcotest.failf "expected reachable, got %s" (C.outcome_tag o));
  (* A cover the analysis claims is dead, which the fake check reaches. *)
  let batch =
    [
      {
        Mc.Prune.analysis = "Fake: stuck-at analysis";
        cover = "cover at5";
        lits = [ (at5, true) ];
        item = "at5";
      };
    ]
  in
  let run mode =
    let dispatched = ref 0 and handed = ref [] in
    let raised =
      match
        Mc.Prune.run_deferred mode
          ~check:(fun _ ->
            incr dispatched;
            reachable)
          ~reachable:(fun d -> handed := d.Mc.Prune.item :: !handed)
          batch
      with
      | () -> None
      | exception Failure m -> Some m
    in
    (raised, !dispatched, !handed)
  in
  let raised, dispatched, handed = run Mc.Prune.On in
  Alcotest.(check int) "on dispatches nothing" 0 dispatched;
  Alcotest.(check (option string)) "on raises nothing" None raised;
  Alcotest.(check (list string)) "on calls no callback" [] handed;
  let raised, dispatched, handed = run Mc.Prune.Off in
  Alcotest.(check int) "off dispatches the batch" 1 dispatched;
  Alcotest.(check (option string)) "off raises nothing" None raised;
  Alcotest.(check (list string)) "off hands the verdict to the callback"
    [ "at5" ] handed;
  let raised, dispatched, handed = run Mc.Prune.Audit in
  Alcotest.(check int) "audit dispatches the batch" 1 dispatched;
  Alcotest.(check (list string)) "audit calls no callback" [] handed;
  let contains m sub =
    let n = String.length sub in
    let rec go i = i + n <= String.length m && (String.sub m i n = sub || go (i + 1)) in
    go 0
  in
  match raised with
  | Some m ->
    Alcotest.(check bool) ("audit names the analysis: " ^ m) true
      (contains m "Fake: stuck-at analysis" && contains m "cover at5")
  | None -> Alcotest.fail "audit must raise on a reachable dead cover"

(* --- digest identity across modes ---------------------------------------- *)

(* The gated demo DUV (see Designs.Gated): its "gate" µFSM reaches all four
   states under the plain FSM abstraction but only two once known bits
   prove the gating register stuck at 0. *)
let gated_config =
  {
    Mc.Checker.default_config with
    Mc.Checker.bmc_depth = 10;
    sim_episodes = 8;
    sim_cycles = 16;
  }

(* Per-report prune attribution: what On discharged, and what Off/Audit
   re-dispatched instead. *)
type counts = {
  synth_static : int;
  synth_absint : int;
  flow_static : int;
  flow_absint : int;
}

let transponders (r : Synthlc.Engine.report) = r.Synthlc.Engine.transponders

let duv_stage (t : Synthlc.Engine.transponder_report) =
  List.assoc "duv_pl" t.Synthlc.Engine.synth.Mupath.Synth.stage_stats

let counts_of (t : Synthlc.Engine.transponder_report) =
  let s = duv_stage t in
  {
    synth_static = s.Mupath.Synth.pruned_static;
    synth_absint = s.Mupath.Synth.pruned_absint;
    flow_static = t.Synthlc.Engine.flow_pruned_static;
    flow_absint = t.Synthlc.Engine.flow_pruned_absint;
  }

let total (r : Synthlc.Engine.report) =
  List.fold_left
    (fun acc t ->
      let c = counts_of t in
      {
        synth_static = acc.synth_static + c.synth_static;
        synth_absint = acc.synth_absint + c.synth_absint;
        flow_static = acc.flow_static + c.flow_static;
        flow_absint = acc.flow_absint + c.flow_absint;
      })
    { synth_static = 0; synth_absint = 0; flow_static = 0; flow_absint = 0 }
    (transponders r)

let ibex_run ?(precise = true) prune =
  let design () = Designs.Ibex.build () in
  let stimulus ~pins ~rotate meta = Designs.Stimulus.ibex ~pins ~rotate meta in
  Synthlc.Engine.run ~config:Test_parallel.light_config
    ~synth_config:Test_parallel.light_config ~prune ~precise ~stimulus ~design
    ~jobs:1
    ~instructions:
      [ Isa.make ~rd:1 ~rs1:2 ~rs2:3 Isa.ADD; Isa.make ~rd:1 ~rs1:2 ~rs2:3 Isa.DIV ]
    ~transmitters:[ Isa.DIV; Isa.ADD ]
    ~kinds:[ Synthlc.Types.Intrinsic ]
    ~revisit_count_labels:[ "divU" ] ~iuv_pc:Designs.Core.iuv_pc ()

let gated_run prune =
  Synthlc.Engine.run ~config:gated_config ~synth_config:gated_config ~prune
    ~design:(fun () -> Designs.Gated.build ())
    ~jobs:1
    ~instructions:[ Isa.make ~rd:1 ~rs1:2 ~rs2:3 Isa.ADD ]
    ~transmitters:[ Isa.ADD ]
    ~kinds:[ Synthlc.Types.Intrinsic ]
    ~revisit_count_labels:[] ~iuv_pc:Designs.Gated.iuv_pc ()

(* Runs a workload under On, Off and Audit and checks the mode contract:
   identical report digests, nothing discharged under Off/Audit, and every
   cover On pruned reappearing there as a trailing property.  Returns the
   On report and the Off/Audit ones for workload-specific checks. *)
let check_modes name run =
  let on = run Mc.Prune.On in
  let d = Synthlc.Engine.report_digest in
  let others =
    List.map
      (fun mode ->
        let tag = name ^ " " ^ Mc.Prune.to_string mode in
        let r = run mode in
        Alcotest.(check string) (tag ^ ": digest = on") (d on) (d r);
        Alcotest.(check bool) (tag ^ ": nothing discharged") true
          (total r
          = { synth_static = 0; synth_absint = 0; flow_static = 0; flow_absint = 0 });
        List.iter2
          (fun t_on t ->
            let c = counts_of t_on in
            Alcotest.(check int) (tag ^ ": synth trailing = pruned")
              ((duv_stage t_on).Mupath.Synth.props + c.synth_static + c.synth_absint)
              (duv_stage t).Mupath.Synth.props;
            Alcotest.(check int) (tag ^ ": flow trailing = pruned")
              (c.flow_static + c.flow_absint) t.Synthlc.Engine.flow_trailing;
            Alcotest.(check int) (tag ^ ": flow props identical")
              t_on.Synthlc.Engine.flow_props t.Synthlc.Engine.flow_props)
          (transponders on) (transponders r);
        r)
      [ Mc.Prune.Off; Mc.Prune.Audit ]
  in
  (on, others)

(* Each workload runs its three modes once; the per-pruner tests in the
   absint, lint and taint suites share them.  A failed mode check raises
   again in every test that forces the same workload. *)
let ibex_modes = lazy (check_modes "ibex_lite add+div" (ibex_run ~precise:true))
let gated_modes = lazy (check_modes "gated" gated_run)

let suite =
  ( "prune",
    [
      Alcotest.test_case "deferred batch: on, off, audit" `Quick
        test_deferred_batch;
    ] )
