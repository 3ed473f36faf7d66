(* Sweep-integration tests: admission of the committed gate-level
   ibex_lite example plus its >=20% merge ratio and cross-variant semantic
   digest, and the semantic cache namespace — a cold gate-level fill of
   the verdict store warms the word-level original's run with zero
   misses. *)

module N = Hdl.Netlist
module E = Hdl.Equiv
module Meta = Designs.Meta

let gl_json = "../examples/ibex_lite_gl.json"
let gl_meta = "../examples/ibex_lite_gl.meta.json"

(* Admission failure messages beat [Rejected _] in a test log. *)
let load_or_fail ?lint ~json_path ~meta_path () =
  try Frontend.Admission.load ?lint ~json_path ~meta_path () with
  | Frontend.Diag.Rejected r ->
    Alcotest.failf "admission rejected: %s"
      (String.concat "; "
         (List.filter_map
            (fun (x : Lint.Diagnostic.t) ->
              if x.Lint.Diagnostic.severity = Lint.Diagnostic.Error then
                Some x.Lint.Diagnostic.message
              else None)
            r.Lint.Diagnostic.diags))

let run_toy ~cache meta =
  Mupath.Synth.run ~cache ~semantic_cache:true ~config:Test_mupath.toy_config
    ~meta ~iuv:(Isa.make Isa.ADD) ~iuv_pc:2 ()

(* --- committed gate-level example ---------------------------------------- *)

let test_gl_example_admission () =
  let d = load_or_fail ~json_path:gl_json ~meta_path:gl_meta () in
  let errors =
    List.filter
      (fun (x : Lint.Diagnostic.t) -> x.Lint.Diagnostic.severity = Lint.Diagnostic.Error)
      d.Frontend.Admission.report.Lint.Diagnostic.diags
  in
  Alcotest.(check int) "no admission errors" 0 (List.length errors);
  let meta = d.Frontend.Admission.meta in
  let builtin = Designs.Ibex.build () in
  (* The gate-level variant is a different structure... *)
  Alcotest.(check bool) "structural digest differs from word-level" true
    (N.digest meta.Meta.nl <> N.digest builtin.Meta.nl);
  (* ...with identical observable behavior. *)
  Alcotest.(check string) "semantic digest matches the word-level built-in"
    (E.semantic_digest builtin.Meta.nl)
    (E.semantic_digest meta.Meta.nl)

let test_gl_example_sweep_ratio () =
  let d = load_or_fail ~lint:false ~json_path:gl_json ~meta_path:gl_meta () in
  let meta = d.Frontend.Admission.meta in
  let _red, _image, stats = E.reduce ~barriers:(Meta.signals meta) meta.Meta.nl in
  Alcotest.(check bool)
    (Printf.sprintf "gate-level sweep merges >= 20%% (%d/%d)" stats.E.merged
       stats.E.comb_nodes)
    true
    (float_of_int stats.E.merged
    >= 0.20 *. float_of_int stats.E.comb_nodes)

(* --- semantic cache namespace: cold gate-level fill, warm word-level ----- *)

let with_tmpdir f =
  let dir = Filename.temp_file "synthlc_sweep" "" in
  Sys.remove dir;
  Unix.mkdir dir 0o700;
  let rec rm p =
    if Sys.is_directory p then (
      Array.iter (fun e -> rm (Filename.concat p e)) (Sys.readdir p);
      Unix.rmdir p)
    else Sys.remove p
  in
  Fun.protect (fun () -> f dir) ~finally:(fun () -> rm dir)

let test_semantic_cache_cross_variant () =
  with_tmpdir @@ fun dir ->
  (* Gate-level variant of the toy DUV, taken through the real export /
     admission path so its metadata resolves by name like any import. *)
  let meta = Test_mupath.toy_design () in
  let gl_nl, _ = Hdl.Gateify.run meta.Meta.nl in
  let json_path = Filename.concat dir "toy_gl.json" in
  let meta_path = Filename.concat dir "toy_gl.meta.json" in
  let write path s =
    let oc = open_out path in
    output_string oc s;
    close_out oc
  in
  write json_path (Frontend.Yosys.export_string gl_nl);
  write meta_path
    (Frontend.Json.to_string
       (Frontend.Sidecar.of_meta ~stimulus:Frontend.Sidecar.S_none ~iuv_pc:2
          meta));
  let d = Frontend.Admission.load ~json_path ~meta_path () in
  let cache_dir = Filename.concat dir "cache" in
  (* Cold: the gate-level variant fills the semantic-key namespace. *)
  let cold = Vcache.create ~dir:cache_dir () in
  let r_gl =
    run_toy ~cache:cold d.Frontend.Admission.meta
  in
  let _, _, stores = Vcache.counters cold in
  Alcotest.(check bool) "cold run stored verdicts" true (stores > 0);
  (* Warm: the word-level original replays entirely from the store. *)
  let warm = Vcache.create ~dir:cache_dir () in
  let r_wl =
    run_toy ~cache:warm (Test_mupath.toy_design ())
  in
  let hits, misses, _ = Vcache.counters warm in
  Alcotest.(check bool) "word-level run hits the gate-level entries" true
    (hits > 0);
  Alcotest.(check int) "no misses on the warm run" 0 misses;
  Alcotest.(check string) "cross-variant digests identical"
    (Mupath.Synth.result_digest r_gl)
    (Mupath.Synth.result_digest r_wl)

let suite =
  ( "sweep",
    [
      Alcotest.test_case "gate-level example admits, semantic digest matches"
        `Quick test_gl_example_admission;
      Alcotest.test_case "gate-level example sweeps >= 20%" `Quick
        test_gl_example_sweep_ratio;
      Alcotest.test_case "semantic cache: cold gl fill warms word-level"
        `Quick test_semantic_cache_cross_variant;
    ] )
