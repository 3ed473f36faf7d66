(* The repository benchmark: four ibex_lite workloads driven through the
   public library entry points (Frontend.Admission.load, Mupath.Synth.run,
   Synthlc.Engine.run, Vcache), timed from the outside.

     perfbench.exe --workload NAME --seed N --seconds S --trace 0|1

   A job is what one CLI invocation does, minus process start: build or
   admit the design, synthesize, digest the report.  Configurations match
   the CLI defaults ([synthlc mupath]), so at the default seed every job's
   digest is pinned to the CLI's.  Seed [N] feeds [Checker.config.seed],
   which draws the per-cover simulation prepass's episodes; seed 1 is the
   CLI's own setting.

   A run is: set-up (repeated design elaboration, median taken; the cache
   fill on the warm workload; discarded warm-up jobs, which also give the
   cross-check digests), then a measured phase of
   [max 1 (round (S / nominal round seconds))] rounds of the workload's
   jobs, so the amount of work in a run is fixed by [S] and does not
   depend on how fast the code is.

   --trace 0 prints the end-to-end metrics of the measured phase.
   --trace 1 runs the measured phase three times -- traced, untraced,
   traced -- and prints the per-layer ledger: self times of the library's
   spans and of the spans this file records around its own calls, the
   library's counters, and direct timed calls into each layer's public
   functions on the workload's netlist.  The two traced passes must
   report identical work counters.

   The last line of standard output is one JSON object with keys
   [correct], [attempted], [failed] and [metrics].  A job that raises or
   whose digest check fails, or a counter that does not repeat, makes the
   run exit 1. *)

module Checker = Mc.Checker
module Synth = Mupath.Synth
module Engine = Synthlc.Engine
module Meta = Designs.Meta

(* ---- command line ------------------------------------------------------ *)

let default_seed = 1

let workload_arg = ref ""
let seed_arg = ref default_seed
let seconds_arg = ref 16.
let trace_arg = ref 0

let parse_args () =
  let specs =
    [
      ("--workload", Arg.Set_string workload_arg, "NAME workload to run");
      ("--seed", Arg.Set_int seed_arg, "N input seed (1 = CLI default)");
      ("--seconds", Arg.Set_float seconds_arg, "S length of the measured phase");
      ("--trace", Arg.Set_int trace_arg, "0|1 end-to-end (0) or per-layer (1) run");
    ]
  in
  Arg.parse specs
    (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
    "perfbench.exe --workload NAME --seed N --seconds S --trace 0|1";
  if !trace_arg <> 0 && !trace_arg <> 1 then raise (Arg.Bad "--trace takes 0 or 1")

(* ---- small utilities --------------------------------------------------- *)

let now () = float_of_int (Obs.now_ns ()) /. 1e9

let timed f =
  let t0 = now () in
  let r = f () in
  (r, now () -. t0)

let median = function
  | [] -> 0.
  | l ->
    let a = Array.of_list l in
    Array.sort compare a;
    let n = Array.length a in
    if n mod 2 = 1 then a.(n / 2) else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.

let fsum = List.fold_left ( +. ) 0.
let isum f = List.fold_left (fun acc x -> acc + f x) 0

(* Median seconds per call of [f], over at least 3 calls and [min_s] seconds. *)
let per_call ?(min_s = 0.3) f =
  let samples = ref [] and spent = ref 0. and n = ref 0 in
  while !spent < min_s || !n < 3 do
    let _, dt = timed f in
    samples := dt :: !samples;
    spent := !spent +. dt;
    incr n
  done;
  median !samples

let pct num den = if den = 0 then 0. else 100. *. float_of_int num /. float_of_int den

(* Peak resident set of this process, from the kernel's high-water mark. *)
let peak_rss_mb () =
  In_channel.with_open_text "/proc/self/status" In_channel.input_all
  |> String.split_on_char '\n'
  |> List.find_map (fun l ->
         match String.split_on_char ':' l with
         | [ "VmHWM"; v ] ->
           Scanf.sscanf (String.trim v) "%d kB" (fun kb -> Some (float_of_int kb /. 1024.))
         | _ -> None)
  |> Option.value ~default:0.

let rec rm_rf path =
  if Sys.file_exists path then
    if Sys.is_directory path then begin
      Array.iter (fun f -> rm_rf (Filename.concat path f)) (Sys.readdir path);
      Sys.rmdir path
    end
    else Sys.remove path

(* Scratch space inside the checkout, removed at exit. *)
let scratch_root = Printf.sprintf ".perfbench_tmp/%d" (Unix.getpid ())

let fresh_dir =
  let n = ref 0 in
  fun tag ->
    incr n;
    let d = Printf.sprintf "%s/%s-%d" scratch_root tag !n in
    rm_rf d;
    d

let cleanup () =
  rm_rf scratch_root;
  try Sys.rmdir ".perfbench_tmp" with Sys_error _ -> ()

(* ---- workloads ---------------------------------------------------------- *)

let add = Isa.make ~rd:1 ~rs1:2 ~rs2:3 Isa.ADD
let div = Isa.make ~rd:1 ~rs1:2 ~rs2:3 Isa.DIV
let lw = Isa.make ~rd:3 ~rs1:2 Isa.LW
let sw = Isa.make ~rs1:1 ~rs2:2 Isa.SW
let beq = Isa.make ~rs1:1 ~rs2:2 ~imm:8 Isa.BEQ

(* Report digests at the default seed, as [synthlc mupath -d ibex_lite -i
   INSTR] and [synthlc synthlc] (the engine workload below) print them. *)
let pinned_mupath =
  [
    (add, "16387a7c6c6c0e8ec71e318557630819");
    (div, "840fe9a5bbec98e586b4ae8ffdda7728");
    (lw, "3860d02a7eec3a8a7c9793ef86fa7ebb");
    (sw, "bb5a2209ccc17aabec5fae6e6dc5d5bd");
    (beq, "4c31dd43a4ca4abef757bdcec06601bd");
  ]

let pinned_synthlc = "bf3012036c4b2c653249bbfc80d8f397"

type kind = Word_mupath | Gl_mupath | Synthlc_cold | Synthlc_warm

type workload = {
  name : string;
  kind : kind;
  round_s : float;
      (** Nominal seconds of one round of jobs on a 2-core host; fixes how
          many rounds [--seconds] buys. *)
}

let workloads =
  [
    { name = "ibex-word-mupath"; kind = Word_mupath; round_s = 15. };
    { name = "ibex-gl-mupath"; kind = Gl_mupath; round_s = 16. };
    { name = "ibex-synthlc-cold"; kind = Synthlc_cold; round_s = 10. };
    { name = "ibex-synthlc-warm"; kind = Synthlc_warm; round_s = 1.8 };
  ]

let gl_json = "examples/ibex_lite_gl.json"
let gl_meta = "examples/ibex_lite_gl.meta.json"

(* The CLI's checker configuration ([config_of] with default flags). *)
let mupath_config seed =
  {
    Checker.default_config with
    Checker.bmc_depth = 12;
    bmc_conflicts = 60_000;
    induction_max_k = 2;
    sim_episodes = 12;
    sim_cycles = 44;
    seed;
  }

(* The engine workload's reduced budgets. *)
let synthlc_config seed =
  {
    (mupath_config seed) with
    Checker.bmc_depth = 8;
    bmc_conflicts = 30_000;
    sim_episodes = 8;
    sim_cycles = 36;
  }

let synthlc_instrs = [ add; div; lw; beq ]
let synthlc_transmitters = [ Isa.DIV; Isa.ADD ]
let synthlc_kinds = [ Synthlc.Types.Intrinsic; Synthlc.Types.Dynamic_older ]
let synthlc_excluded = [ "IF"; "scbCmt" ]
let synthlc_counts = [ "divU" ]

(* The stimulus keeps [Designs.Stimulus.ibex]'s default seed whatever the
   seed argument: its instruction stream sets how long every simulation
   episode runs, and across stimulus seeds the same job's time varies up
   to twofold, more than any run-to-run bound could absorb. *)
let stimulus_seed = 0x1be8

(* ---- jobs --------------------------------------------------------------- *)

(* What one job reports: its digest and the work counts the end-to-end
   metrics are built from. *)
type job = {
  digest : string;
  props : int;  (** Checker properties dispatched (µPATH + IFT). *)
  undetermined : int;
  synth_static : int;  (** Covers decided by the static FSM pre-pass. *)
  synth_absint : int;  (** ... by the known-bits pre-pass. *)
  flow_static : int;  (** IFT covers decided by the static taint cone. *)
  flow_absint : int;  (** ... by the known-bits-refined taint pre-pass. *)
  presim_hits : int;  (** Facts discharged by the synthesis pre-simulation. *)
  flow_props : int;  (** IFT covers, including those pre-passes decided. *)
}

let covers j = j.props + j.synth_static + j.synth_absint + j.flow_static + j.flow_absint

let sum_stage f stats = isum (fun (_, s) -> f s) stats

let of_synth (r : Synth.result) =
  let cs = r.Synth.checker_stats in
  {
    digest = Synth.result_digest r;
    props = cs.Checker.Stats.n_props;
    undetermined = cs.Checker.Stats.n_undetermined;
    synth_static = sum_stage (fun s -> s.Synth.pruned_static) r.Synth.stage_stats;
    synth_absint = sum_stage (fun s -> s.Synth.pruned_absint) r.Synth.stage_stats;
    flow_static = 0;
    flow_absint = 0;
    presim_hits = sum_stage (fun s -> s.Synth.presim_hits) r.Synth.stage_stats;
    flow_props = 0;
  }

let of_report (r : Engine.report) =
  let synths = List.map (fun t -> of_synth t.Engine.synth) r.Engine.transponders in
  let tot = r.Engine.checker_totals in
  {
    digest = Engine.report_digest r;
    (* Flow's property count includes the covers its pre-passes decided. *)
    props =
      r.Engine.total_mupath_props + r.Engine.total_flow_props
      - r.Engine.total_flow_pruned_static - r.Engine.total_flow_pruned_absint;
    undetermined =
      tot.Checker.Stats.n_undetermined
      + isum (fun t -> t.Engine.flow_undetermined) r.Engine.transponders;
    synth_static = isum (fun j -> j.synth_static) synths;
    synth_absint = isum (fun j -> j.synth_absint) synths;
    flow_static = r.Engine.total_flow_pruned_static;
    flow_absint = r.Engine.total_flow_pruned_absint;
    presim_hits = isum (fun j -> j.presim_hits) synths;
    flow_props = r.Engine.total_flow_props;
  }

let admit ?(lint = true) () =
  let a = Frontend.Admission.load ~lint ~json_path:gl_json ~meta_path:gl_meta () in
  if a.Frontend.Admission.stimulus <> Frontend.Sidecar.S_ibex then
    failwith (gl_meta ^ ": expected the ibex stimulus");
  a

(* One [mupath] job: elaborate the built-in core or admit the gate-level
   import (with lint, as the CLI does), synthesize, digest. *)
let mupath_job ~seed ~gl iuv () =
  let meta, iuv_pc =
    Obs.with_span "bench.design" (fun () ->
        if gl then
          let a = admit () in
          (a.Frontend.Admission.meta, a.Frontend.Admission.iuv_pc)
        else (Designs.Ibex.build (), Designs.Ibex.iuv_pc))
  in
  let stimulus =
    Designs.Stimulus.ibex ~pins:[ (iuv_pc, iuv) ] ~seed:stimulus_seed meta
  in
  let r =
    Synth.run ~config:(mupath_config seed) ~stimulus ~revisit_count_labels:[]
      ~shards:1 ~meta ~iuv ~iuv_pc ()
  in
  Obs.with_span "bench.digest" (fun () -> of_synth r)

(* One [synthlc] job on the engine workload, with a verdict store rooted at
   [cache_dir] (opened inside the job, as [--cache-dir] does). *)
let synthlc_job ~seed ~jobs ~cache_dir () =
  let cache = Obs.with_span "bench.cache_open" (fun () -> Vcache.create ~dir:cache_dir ()) in
  let config = synthlc_config seed in
  let stimulus ~pins ~rotate meta =
    Designs.Stimulus.ibex ~pins ~rotate ~seed:stimulus_seed meta
  in
  let r =
    Engine.run ~cache ~config ~synth_config:config ~stimulus
      ~design:(fun () -> Obs.with_span "bench.design" Designs.Ibex.build)
      ~jobs ~exclude_sources:synthlc_excluded ~instructions:synthlc_instrs
      ~transmitters:synthlc_transmitters ~kinds:synthlc_kinds
      ~revisit_count_labels:synthlc_counts ~iuv_pc:Designs.Ibex.iuv_pc ()
  in
  Obs.with_span "bench.digest" (fun () -> of_report r)

(* ---- checked execution -------------------------------------------------- *)

let attempted = ref 0
let failures : string list ref = ref []

let fail msg =
  failures := msg :: !failures;
  Printf.printf "FAIL %s\n%!" msg

(* Run one job, timed, and check its digest against [expect] (a pinned or
   cross-run reference).  Raising or mismatching counts as one failed job;
   the result is [None] then.  A full major collection runs first,
   untimed, so garbage from earlier jobs is not collected on this job's
   clock. *)
let run_job ~label ?expect f =
  incr attempted;
  Gc.full_major ();
  let t0 = now () in
  match Obs.with_span "bench.job" f with
  | j ->
    let dt = now () -. t0 in
    Printf.printf "job %-18s %8.3f s  digest %s\n%!" label dt j.digest;
    (match expect with
    | Some (what, d) when d <> j.digest ->
      fail (Printf.sprintf "%s: digest %s, expected %s (%s)" label j.digest d what)
    | _ -> ());
    (Some j, dt)
  | exception e ->
    let dt = now () -. t0 in
    fail (Printf.sprintf "%s: raised %s" label (Printexc.to_string e));
    (None, dt)

let pinned ~seed what d = if seed = default_seed then Some (what, d) else None

(* ---- set-up and the measured phase -------------------------------------- *)

type step = {
  label : string;
  expect : (string * string) option;  (** (what, digest) the job must print. *)
  before : unit -> unit;  (** Untimed preparation, e.g. clearing a store. *)
  run : unit -> job;
}

type plan = {
  setup_s : float;
  elab_s : float;  (** Median time of one design elaboration or admission. *)
  round : step list;
  cache_dir : string option;
      (** The verdict store the workload's last job used, if any. *)
}

let step ?(before = ignore) label expect run = { label; expect; before; run }

(* Set-up time is the work the program does before any job can run: one
   design elaboration (gate-level: admission with lint), taken as the
   median of repeated elaborations, plus the cache fill on the warm
   workload.  Warm-up jobs run here too, but are left out of [setup_s]:
   a single job's time is as noisy as a measured job's and would only
   repeat [job_p50_s]. *)
let setup w ~seed =
  let elab_s =
    per_call ~min_s:0.5 (fun () ->
        match w.kind with
        | Gl_mupath -> ignore (admit ())
        | _ -> ignore (Designs.Ibex.build ()))
  in
  let plan ?(fill_s = 0.) ?cache_dir round =
    { setup_s = elab_s +. fill_s; elab_s; round; cache_dir }
  in
  let mupath_pin iuv = pinned ~seed "pinned" (List.assq iuv pinned_mupath) in
  let word_add () =
    fst (run_job ~label:"warm-up add" ?expect:(mupath_pin add) (mupath_job ~seed ~gl:false add))
  in
  match w.kind with
  | Word_mupath ->
    (* Warm-up: the add job; at other seeds its digest is the determinism
       reference for the measured add job. *)
    let warm = word_add () in
    let round =
      List.map
        (fun (iuv, _) ->
          let expect =
            match (mupath_pin iuv, warm) with
            | Some p, _ -> Some p
            | None, Some j when iuv == add -> Some ("warm-up add", j.digest)
            | None, _ -> None
          in
          step (Isa.to_string iuv) expect (mupath_job ~seed ~gl:false iuv))
        pinned_mupath
    in
    plan round
  | Gl_mupath ->
    (* Warm-up: the word-level add job, whose digest the gate-level import
       must reproduce. *)
    let expect = Option.map (fun j -> ("word-level add", j.digest)) (word_add ()) in
    plan [ step "gl add" expect (mupath_job ~seed ~gl:true add) ]
  | Synthlc_cold ->
    (* Traced runs first run the job at -j1, whose digest every -j2 job
       must reproduce.  Untraced runs skip that 20-second warm-up and spend
       the time on a second measured job instead. *)
    let expect =
      if !trace_arg = 0 then pinned ~seed "pinned" pinned_synthlc
      else
        let dir = fresh_dir "j1" in
        let j1, _ =
          run_job ~label:"warm-up -j1" ?expect:(pinned ~seed "pinned" pinned_synthlc)
            (synthlc_job ~seed ~jobs:1 ~cache_dir:dir)
        in
        rm_rf dir;
        Option.map (fun j -> ("-j1", j.digest)) j1
    in
    (* A fresh empty store per job. *)
    let dir = scratch_root ^ "/cold" in
    plan ~cache_dir:dir
      [ step ~before:(fun () -> rm_rf dir) "synthlc -j2 cold" expect (synthlc_job ~seed ~jobs:2 ~cache_dir:dir) ]
  | Synthlc_warm ->
    (* Cache fill: one cold -j2 run; then one discarded warm replay. *)
    let dir = fresh_dir "warm" in
    let fill, fill_s =
      run_job ~label:"synthlc fill" ?expect:(pinned ~seed "pinned" pinned_synthlc)
        (synthlc_job ~seed ~jobs:2 ~cache_dir:dir)
    in
    let expect = Option.map (fun j -> ("cold fill", j.digest)) fill in
    let job = synthlc_job ~seed ~jobs:1 ~cache_dir:dir in
    ignore (run_job ~label:"warm-up replay" ?expect job);
    plan ~fill_s ~cache_dir:dir [ step "synthlc -j1 warm" expect job ]

let rounds w = max 1 (int_of_float (Float.round (!seconds_arg /. w.round_s)))

type pass = {
  wall : float;
      (** Summed wall time of the pass's jobs: the benchmark's untimed
          housekeeping between jobs is left out. *)
  jobs : (job * float) list;  (** Completed jobs with their times. *)
}

(* Without a pinned or cross-run reference, every repeat of a step must
   reproduce the digest of its first run in the pass. *)
let measured_pass w plan =
  let first = Hashtbl.create 8 in
  let run s =
    s.before ();
    let expect =
      match s.expect with
      | Some _ as e -> e
      | None -> Option.map (fun d -> ("first repeat", d)) (Hashtbl.find_opt first s.label)
    in
    let j, dt = run_job ~label:s.label ?expect s.run in
    Option.iter (fun j -> if not (Hashtbl.mem first s.label) then Hashtbl.add first s.label j.digest) j;
    (j, dt)
  in
  let results = List.concat (List.init (rounds w) (fun _ -> List.map run plan.round)) in
  {
    wall = fsum (List.map snd results);
    jobs = List.filter_map (fun (j, dt) -> Option.map (fun j -> (j, dt)) j) results;
  }

(* ---- output ------------------------------------------------------------- *)

let json_number v = if Float.is_finite v then Printf.sprintf "%.17g" v else "0"

let emit metrics =
  let correct = !failures = [] in
  let body =
    String.concat ", "
      (List.map
         (fun (name, unit, v) ->
           Printf.sprintf "%S: {\"value\": %s, \"unit\": %S}" name (json_number v) unit)
         metrics)
  in
  Printf.printf "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}\n%!"
    correct !attempted (List.length !failures) body;
  correct

let print_metrics title metrics =
  Printf.printf "%s\n" title;
  List.iter (fun (n, u, v) -> Printf.printf "  %-22s %14.4f %s\n" n v u) metrics

(* ---- end-to-end run ----------------------------------------------------- *)

let end_to_end w plan =
  let p = measured_pass w plan in
  let times = List.map snd p.jobs in
  let n_jobs = List.length p.jobs in
  let covers = isum (fun (j, _) -> covers j) p.jobs in
  let props = isum (fun (j, _) -> j.props) p.jobs in
  let undet = isum (fun (j, _) -> j.undetermined) p.jobs in
  let errors = List.length !failures in
  Printf.printf "measured phase: %d job(s) in %d round(s); %d covers (%d properties + %d pre-pass decided)\n"
    n_jobs (rounds w) covers props (covers - props);
  Printf.printf "error_pct %.2f%% (%d failed of %d jobs checked); undetermined_pct %.2f%% (%d of %d properties)\n"
    (pct errors !attempted) errors !attempted (pct undet props) undet props;
  let metrics =
    [
      ("wall_s", "s", p.wall);
      ("covers_per_s", "1/s", float_of_int covers /. p.wall);
      ("job_p50_s", "s", median times);
      ("job_max_s", "s", List.fold_left Float.max 0. times);
      ("setup_s", "s", plan.setup_s);
      ("peak_rss_mb", "MB", peak_rss_mb ());
      ("ok_pct", "%", 100. -. pct errors !attempted);
      ("determined_pct", "%", 100. -. pct undet props);
    ]
  in
  print_metrics (Printf.sprintf "end-to-end (%s, seed %d, %d job(s)):" w.name !seed_arg n_jobs) metrics;
  metrics

(* ---- traced run: spans, counters, direct layer calls -------------------- *)

(* Self time per span name, summed over domains: a span's duration minus
   the part its children (by timestamp nesting within one domain) cover.
   Returns lookups of self seconds and span count by name, and of summed
   self seconds by domain. *)
let self_times events =
  let by_tid = Hashtbl.create 4 in
  List.iter
    (fun (e : Obs.event) ->
      if e.Obs.ev_dur_ns > 0 then
        Hashtbl.replace by_tid e.Obs.ev_tid
          (e :: Option.value (Hashtbl.find_opt by_tid e.Obs.ev_tid) ~default:[]))
    events;
  let totals = Hashtbl.create 32 in
  let counts = Hashtbl.create 32 in
  let per_tid = Hashtbl.create 4 in
  Hashtbl.iter
    (fun tid evs ->
      let evs =
        List.sort
          (fun (a : Obs.event) (b : Obs.event) ->
            compare (a.Obs.ev_ts_ns, -a.Obs.ev_dur_ns) (b.Obs.ev_ts_ns, -b.Obs.ev_dur_ns))
          evs
      in
      (* Open spans, innermost first: (end, name, duration, child time). *)
      let stack = ref [] in
      let close (_, name, dur, child) =
        let self = float_of_int (dur - !child) /. 1e9 in
        Hashtbl.replace totals name (self +. Option.value (Hashtbl.find_opt totals name) ~default:0.);
        Hashtbl.replace counts name (1 + Option.value (Hashtbl.find_opt counts name) ~default:0);
        Hashtbl.replace per_tid tid (self +. Option.value (Hashtbl.find_opt per_tid tid) ~default:0.)
      in
      List.iter
        (fun (e : Obs.event) ->
          let ts = e.Obs.ev_ts_ns and dur = e.Obs.ev_dur_ns in
          let rec pop () =
            match !stack with
            | ((stop, _, _, _) as top) :: rest when stop <= ts ->
              close top;
              stack := rest;
              pop ()
            | _ -> ()
          in
          pop ();
          (match !stack with (_, _, _, child) :: _ -> child := !child + dur | [] -> ());
          stack := (ts + dur, e.Obs.ev_name, dur, ref 0) :: !stack)
        evs;
      List.iter close !stack)
    by_tid;
  let get name = Option.value (Hashtbl.find_opt totals name) ~default:0. in
  let count name = Option.value (Hashtbl.find_opt counts name) ~default:0 in
  let tid_self tid = Option.value (Hashtbl.find_opt per_tid tid) ~default:0. in
  (get, count, tid_self)

type traced = {
  tpass : pass;
  span_s : string -> float;
  span_n : string -> int;
  tid_self : int -> float;
  metric : string -> float;
}

let traced_pass w plan =
  Obs.reset ();
  Obs.enable ~capacity:(1 lsl 20) ();
  let tpass = measured_pass w plan in
  let events = Obs.events () in
  let snapshot = Obs.Metrics.snapshot () in
  let dropped = Obs.dropped_events () in
  Obs.disable ();
  Obs.reset ();
  if dropped > 0 then fail (Printf.sprintf "trace ring dropped %d events" dropped);
  let span_s, span_n, tid_self = self_times events in
  let metric name = Option.value (List.assoc_opt name snapshot) ~default:0. in
  { tpass; span_s; span_n; tid_self; metric }

let outcome_tags = [ "reachable"; "unreachable(bounded)"; "unreachable(inductive)"; "undetermined" ]

(* Machine-independent work counters of one traced pass.  [sat.vars] is a
   gauge (the last BMC solver's size), order-dependent across domains, so
   it joins the ledger only at -j1. *)
let ledger_counters ~jobs t =
  let jsum f = isum (fun (j, _) -> f j) t.tpass.jobs in
  [
    ("pruned", float_of_int (jsum (fun j -> j.synth_static + j.synth_absint + j.flow_static + j.flow_absint)));
    ("presim_hits", float_of_int (jsum (fun j -> j.presim_hits)));
    ("checker.props", t.metric "checker.props");
    ("checker.sim_discharged", t.metric "checker.sim_discharged");
  ]
  @ List.map
      (fun tag -> ("outcome." ^ tag, t.metric (Printf.sprintf "checker.outcome{tag=%s}" tag)))
      outcome_tags
  @ (if jobs = 1 then [ ("sat.vars", t.metric "sat.vars") ] else [])
  @ [
      ("sat.ind_vars", t.metric "sat.ind_vars");
      ("sat.conflicts", t.metric "sat.conflicts.sum");
      ("sat.propagations", t.metric "sat.propagations.sum");
      ("cache.hits", t.metric "cache.hits");
      ("cache.misses", t.metric "cache.misses");
    ]

let workload_jobs w = match w.kind with Synthlc_cold -> 2 | _ -> 1

let fresh_meta w =
  match w.kind with
  | Gl_mupath ->
    let a = admit ~lint:false () in
    (a.Frontend.Admission.meta, a.Frontend.Admission.iuv_pc)
  | _ -> (Designs.Ibex.build (), Designs.Ibex.iuv_pc)

let workload_config w ~seed =
  match w.kind with
  | Word_mupath | Gl_mupath -> mupath_config seed
  | Synthlc_cold | Synthlc_warm -> synthlc_config seed

(* Direct, timed calls into each layer's public functions on the workload's
   netlist.  Layers a workload never runs report 0. *)
let direct_layers w plan ~seed =
  let is_gl = w.kind = Gl_mupath in
  let is_synthlc = w.kind = Synthlc_cold || w.kind = Synthlc_warm in
  let config = workload_config w ~seed in
  let frontend =
    if not is_gl then [ ("frontend.parse_s", 0.); ("frontend.import_s", 0.); ("frontend.cells", 0.) ]
    else
      let json = Frontend.Json.parse_file gl_json in
      let cells =
        match Option.bind (Frontend.Json.member "modules" json) Frontend.Json.to_assoc with
        | None -> 0
        | Some mods ->
          isum
            (fun (_, m) ->
              match Option.bind (Frontend.Json.member "cells" m) Frontend.Json.to_assoc with
              | Some cs -> List.length cs
              | None -> 0)
            mods
      in
      [
        ("frontend.parse_s", per_call (fun () -> ignore (Frontend.Json.parse_file gl_json)));
        ("frontend.import_s", per_call (fun () -> ignore (Frontend.Yosys.import json)));
        ("frontend.cells", float_of_int cells);
      ]
  in
  let lint =
    if not is_gl then [ ("lint.run_s", 0.); ("lint.findings", 0.) ]
    else
      let meta, _ = fresh_meta w in
      let r, dt = timed (fun () -> Lint.Driver.run_design meta) in
      [ ("lint.run_s", dt); ("lint.findings", float_of_int (List.length r.Lint.Diagnostic.diags)) ]
  in
  let designs = [ ("designs.build_s", if is_gl then 0. else plan.elab_s) ] in
  (* Harness and BMC encoding on the first instruction's monitored netlist. *)
  let iuv = add in
  let harness () =
    let meta, iuv_pc = fresh_meta w in
    let stimulus = Designs.Stimulus.ibex ~pins:[ (iuv_pc, iuv) ] ~seed:stimulus_seed meta in
    Mupath.Harness.create ~config ~stimulus ~meta ~iuv ~iuv_pc ()
  in
  let h, harness_s = timed harness in
  let hnl = Checker.netlist (Mupath.Harness.checker h) in
  let blast =
    if w.kind = Synthlc_warm then [ ("blast.encode_s", 0.); ("blast.vars", 0.) ]
    else
      let encode () =
        let b =
          Mc.Blast.create ~initial:`Reset ~assumes:(Mupath.Harness.assumes h) hnl
        in
        Mc.Blast.ensure_depth b config.Checker.bmc_depth;
        Sat.Solver.nvars (Mc.Blast.solver b)
      in
      let vars, dt = timed encode in
      [ ("blast.encode_s", dt); ("blast.vars", float_of_int vars) ]
  in
  let equiv =
    if is_synthlc then [ ("equiv.reduce_s", 0.); ("equiv.merged", 0.); ("equiv.comb_nodes", 0.) ]
    else
      let meta, _ = fresh_meta w in
      let (_, _, st), dt =
        timed (fun () -> Hdl.Equiv.reduce ~barriers:(Meta.signals meta) meta.Meta.nl)
      in
      [
        ("equiv.reduce_s", dt);
        ("equiv.merged", float_of_int st.Hdl.Equiv.merged);
        ("equiv.comb_nodes", float_of_int st.Hdl.Equiv.comb_nodes);
      ]
  in
  let ift =
    if not is_synthlc then [ ("ift.instrument_s", 0.); ("ift.nodes", 0.) ]
    else
      let go () =
        let meta, _ = fresh_meta w in
        let nl = meta.Meta.nl in
        let before = Hdl.Netlist.num_nodes nl in
        let t0 = now () in
        ignore (Ift.instrument ~blocked:(meta.Meta.arf @ meta.Meta.amem) nl);
        (now () -. t0, Hdl.Netlist.num_nodes nl - before)
      in
      let samples = List.init 3 (fun _ -> go ()) in
      [
        ("ift.instrument_s", median (List.map fst samples));
        ("ift.nodes", float_of_int (snd (List.hd samples)));
      ]
  in
  (* Simulation throughput with the workload's stimulus on its netlist. *)
  let sim_cps =
    let meta, iuv_pc = fresh_meta w in
    let stimulus = Designs.Stimulus.ibex ~pins:[ (iuv_pc, iuv) ] ~seed:stimulus_seed meta in
    let sim = Sim.create ~seed meta.Meta.nl in
    let chunk = 256 in
    let cycles = ref 0 and spent = ref 0. in
    while !spent < 0.5 do
      let (), dt = timed (fun () -> Sim.run sim ~cycles:chunk ~stimulus ()) in
      cycles := !cycles + chunk;
      spent := !spent +. dt
    done;
    float_of_int !cycles /. !spent
  in
  let cache =
    match plan.cache_dir with
    | None -> [ ("cache.entries", 0.); ("cache.read_s", 0.); ("cache.write_s", 0.) ]
    | Some dir ->
      let keys = List.map (fun (f, _) -> Filename.chop_suffix f ".vc") (Vcache.disk_entries ~dir) in
      (* A fresh store per pass, so every find reads the disk. *)
      let read () =
        let c = Vcache.create ~dir () in
        List.map
          (fun key ->
            match Vcache.find c key with
            | Some v -> (key, v)
            | None -> failwith ("cache entry vanished: " ^ key))
          keys
      in
      let blobs = read () in
      let read_s = per_call (fun () -> ignore (read ())) in
      let write_s =
        median
          (List.init 3 (fun _ ->
               let dir = fresh_dir "copy" in
               let c = Vcache.create ~dir () in
               let (), dt = timed (fun () -> List.iter (fun (k, v) -> Vcache.add c k v) blobs) in
               rm_rf dir;
               dt))
      in
      [
        ("cache.entries", float_of_int (List.length keys));
        ("cache.read_s", read_s);
        ("cache.write_s", write_s);
      ]
  in
  frontend @ lint @ designs
  @ [ ("harness.create_s", harness_s); ("harness.nodes", float_of_int (Hdl.Netlist.num_nodes hnl)) ]
  @ blast @ equiv @ ift
  @ [ ("sim.cycles_per_s", sim_cps) ]
  @ cache

(* The per-layer metrics, in BENCHMARK.json order, with their units. *)
let layer_units =
  [
    ("frontend.parse_s", "s"); ("frontend.import_s", "s"); ("frontend.cells", "count");
    ("lint.run_s", "s"); ("lint.findings", "count");
    ("designs.build_s", "s");
    ("harness.create_s", "s"); ("harness.nodes", "count");
    ("synth.presim_s", "s"); ("synth.presim_hits", "count"); ("synth.batch_s", "s");
    ("static.fsm_reach_s", "s"); ("static.known_bits_s", "s"); ("static.pruned", "count");
    ("equiv.reduce_s", "s"); ("equiv.merged", "count"); ("equiv.comb_nodes", "count");
    ("ift.instrument_s", "s"); ("ift.nodes", "count");
    ("sim.cycles_per_s", "1/s"); ("sim.prepass_s", "s"); ("sim.prepass_yield", "ratio");
    ("checker.props", "count"); ("checker.sat_s", "s"); ("checker.reachable", "count");
    ("checker.bounded", "count"); ("checker.inductive", "count"); ("checker.undetermined", "count");
    ("blast.encode_s", "s"); ("blast.vars", "count");
    ("sat.vars", "count"); ("sat.ind_vars", "count"); ("sat.conflicts", "count");
    ("sat.propagations", "count"); ("sat.cse_hit_rate", "ratio");
    ("cache.hits", "count"); ("cache.misses", "count"); ("cache.hit_rate", "ratio");
    ("cache.entries", "count"); ("cache.read_s", "s"); ("cache.write_s", "s");
    ("flow.analyze_s", "s"); ("flow.props", "count"); ("flow.pruned", "count");
    ("pool.queue_wait_s", "s"); ("pool.task_run_s", "s"); ("pool.busy_share", "ratio");
    ("obs.overhead_pct", "%"); ("ledger.unattributed_s", "s"); ("ledger.traced_wall_s", "s");
    ("error_pct", "%"); ("undetermined_pct", "%");
  ]

let ratio num den = if den = 0. then 0. else num /. den

(* Cost-versus-yield table: time, calls and covers decided per pre-decider
   and engine, from the first traced pass. *)
let print_cost_yield t =
  let jsum f = isum (fun (j, _) -> f j) t.tpass.jobs in
  let count name = int_of_float (t.metric name) in
  let props = count "checker.props" in
  let hits = count "cache.hits" and misses = count "cache.misses" in
  let sim_dec = count "checker.sim_discharged" in
  let m tag = count (Printf.sprintf "checker.outcome{tag=%s}" tag) in
  (* Engine rows count properties the checker computed; with every verdict
     served from the cache they decided nothing, and a partly warm store
     cannot be split per engine. *)
  let engine n = if hits = 0 then string_of_int n else if hits = props then "0" else "n/a" in
  let row name time calls decided =
    Printf.printf "  %-24s %10s %8s %10s\n" name time calls decided
  in
  let secs s = Printf.sprintf "%.3f" s in
  Printf.printf "cost versus yield (first traced pass; %d checker properties, %d covers):\n"
    props (jsum covers);
  row "pre-decider / engine" "time s" "calls" "decided";
  row "verdict cache" "-" (string_of_int (hits + misses)) (string_of_int hits);
  row "static FSM reach" (secs (t.span_s "synth.static_reach"))
    (string_of_int (t.span_n "synth.static_reach")) (string_of_int (jsum (fun j -> j.synth_static)));
  row "known-bits"
    (secs (t.span_s "synth.absint" +. t.span_s "synth.absint_reach" +. t.span_s "flow.absint_taint"))
    (string_of_int (t.span_n "synth.absint" + t.span_n "synth.absint_reach" + t.span_n "flow.absint_taint"))
    (string_of_int (jsum (fun j -> j.synth_absint + j.flow_absint)));
  row "taint cone" (secs (t.span_s "flow.static_taint"))
    (string_of_int (t.span_n "flow.static_taint")) (string_of_int (jsum (fun j -> j.flow_static)));
  row "synth presim" (secs (t.span_s "synth.presim"))
    (string_of_int (t.span_n "synth.presim")) (string_of_int (jsum (fun j -> j.presim_hits)));
  row "per-cover sim prepass" (secs (t.span_s "checker.sim_prepass"))
    (string_of_int (t.span_n "checker.sim_prepass")) (engine sim_dec);
  row "BMC (with induction time)" (secs (t.span_s "checker.check_cover"))
    (string_of_int (t.span_n "checker.check_cover"))
    (engine (m "reachable" - sim_dec + m "unreachable(bounded)"));
  row "k-induction" "(in BMC)" "-" (engine (m "unreachable(inductive)"));
  Printf.printf "  undetermined: %d of %d properties; sim prepass yield %d/%d (%.1f%%)\n"
    (m "undetermined") props sim_dec (t.span_n "checker.sim_prepass")
    (pct sim_dec (t.span_n "checker.sim_prepass"))

let traced_run w plan ~seed =
  (* Traced, untraced, traced: the untraced pass sits between the two
     traced ones, so drift over the run cancels out of the overhead. *)
  let t1 = traced_pass w plan in
  let u = measured_pass w plan in
  let t2 = traced_pass w plan in
  let overhead = 100. *. (((t1.tpass.wall +. t2.tpass.wall) /. 2. /. u.wall) -. 1.) in
  let jobs = workload_jobs w in
  let c1 = ledger_counters ~jobs t1 and c2 = ledger_counters ~jobs t2 in
  Printf.printf "ledger counters (traced pass 1 | pass 2):\n";
  List.iter2
    (fun (n, a) (_, b) ->
      Printf.printf "  %-30s %14.0f %14.0f%s\n" n a b (if a = b then "" else "  MISMATCH");
      if a <> b then fail (Printf.sprintf "ledger counter %s: %.0f then %.0f" n a b))
    c1 c2;
  Printf.printf "LEDGER %s\n"
    (String.concat ", " (List.map (fun (n, v) -> Printf.sprintf "%S: %.0f" n v) c1));
  print_cost_yield t1;
  let t = t1 in
  let jsum f = isum (fun (j, _) -> f j) t.tpass.jobs in
  let props = jsum (fun j -> j.props) in
  let ckp = t.metric "checker.props" in
  let hits = t.metric "cache.hits" and misses = t.metric "cache.misses" in
  (* Unattributed: job time the caller's domain spent inside the
     benchmark's job span but outside every layer span below it. *)
  let main_tid = (Domain.self () :> int) in
  let attributed = t.tid_self main_tid -. t.span_s "bench.job" in
  let unattributed = t.tpass.wall -. attributed in
  let m tag = t.metric (Printf.sprintf "checker.outcome{tag=%s}" tag) in
  let from_trace =
    [
      ("synth.presim_s", t.span_s "synth.presim");
      ("synth.presim_hits", float_of_int (jsum (fun j -> j.presim_hits)));
      ("synth.batch_s", t.span_s "synth.batch");
      ("static.fsm_reach_s", t.span_s "synth.static_reach");
      ("static.known_bits_s", t.span_s "synth.absint" +. t.span_s "synth.absint_reach" +. t.span_s "flow.absint_taint");
      ("static.pruned", float_of_int (jsum (fun j -> j.synth_static + j.synth_absint)));
      ("sim.prepass_s", t.span_s "checker.sim_prepass");
      ("sim.prepass_yield", ratio (t.metric "checker.sim_discharged") ckp);
      ("checker.props", ckp);
      ("checker.sat_s", t.span_s "checker.check_cover");
      ("checker.reachable", m "reachable");
      ("checker.bounded", m "unreachable(bounded)");
      ("checker.inductive", m "unreachable(inductive)");
      ("checker.undetermined", m "undetermined");
      ("sat.vars", t.metric "sat.vars");
      ("sat.ind_vars", t.metric "sat.ind_vars");
      ("sat.conflicts", t.metric "sat.conflicts.sum");
      ("sat.propagations", t.metric "sat.propagations.sum");
      ("sat.cse_hit_rate", ratio (t.metric "sat.cse_hits") (t.metric "sat.cse_lookups"));
      ("cache.hits", hits);
      ("cache.misses", misses);
      ("cache.hit_rate", ratio hits (hits +. misses));
      ("flow.analyze_s", t.span_s "flow.analyze");
      ("flow.props", float_of_int (jsum (fun j -> j.flow_props)));
      ("flow.pruned", float_of_int (jsum (fun j -> j.flow_static + j.flow_absint)));
      ("pool.queue_wait_s", t.metric "pool.queue_wait_s.sum");
      ("pool.task_run_s", t.metric "pool.task_run_s.sum");
      ("pool.busy_share", ratio (t.metric "pool.task_run_s.sum") (float_of_int jobs *. t.tpass.wall));
      ("obs.overhead_pct", overhead);
      ("ledger.unattributed_s", unattributed);
      ("ledger.traced_wall_s", t.tpass.wall);
      ("error_pct", pct (List.length !failures) !attempted);
      ("undetermined_pct", pct (jsum (fun j -> j.undetermined)) props);
    ]
  in
  Printf.printf "traced wall %.3f s (pass 2 %.3f s), untraced %.3f s; unattributed %.3f s (%.2f%% of traced wall)\n"
    t1.tpass.wall t2.tpass.wall u.wall unattributed (100. *. ratio unattributed t1.tpass.wall);
  Printf.printf "self time by span (first traced pass, all domains):\n";
  List.iter
    (fun n -> Printf.printf "  %-22s %9.3f s  %6d span(s)\n" n (t.span_s n) (t.span_n n))
    [
      "bench.job"; "bench.design"; "bench.cache_open"; "bench.digest"; "engine.run"; "engine.task";
      "synth.run"; "synth.static_reach"; "synth.absint"; "synth.absint_reach"; "synth.presim";
      "synth.batch"; "checker.check_cover"; "checker.sim_prepass"; "flow.analyze";
      "flow.static_taint"; "flow.absint_taint";
    ];
  let direct = direct_layers w plan ~seed in
  let all = from_trace @ direct in
  let metrics = List.map (fun (n, u) -> (n, u, List.assoc n all)) layer_units in
  print_metrics (Printf.sprintf "per-layer (%s, seed %d):" w.name seed) metrics;
  metrics

(* ---- main --------------------------------------------------------------- *)

let () =
  (try parse_args ()
   with Arg.Bad msg ->
     prerr_endline msg;
     exit 2);
  let w =
    match List.find_opt (fun w -> w.name = !workload_arg) workloads with
    | Some w -> w
    | None ->
      Printf.eprintf "unknown workload %S (expected: %s)\n" !workload_arg
        (String.concat ", " (List.map (fun w -> w.name) workloads));
      exit 2
  in
  let seed = !seed_arg in
  Printf.printf "workload %s, seed %d, %.0f s, trace %d, %d core(s)\n%!" w.name seed
    !seconds_arg !trace_arg (Domain.recommended_domain_count ());
  let ok =
    Fun.protect ~finally:cleanup (fun () ->
        let plan = setup w ~seed in
        Printf.printf "set-up %.3f s (elaboration median %.3f s)\n%!" plan.setup_s plan.elab_s;
        let metrics = if !trace_arg = 1 then traced_run w plan ~seed else end_to_end w plan in
        emit metrics)
  in
  exit (if ok then 0 else 1)
