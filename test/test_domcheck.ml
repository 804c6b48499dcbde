(* Golden tests for stochdomcheck: each rule family fires on its
   fixture at the recorded file:line:col, a write chain crosses a
   compilation-unit boundary, inline suppression and the baseline
   filter both hold findings back, and the effect signatures of the
   Randomness entry points stay pinned (threaded state, never
   ambient). Fixture sources live under [fixtures/domcheck/] and are
   compiled to [.cmt] by the dune rules next to them; the stochlint
   walker skips the directory, so only this analysis reads them. *)

open Stochlint_lib

let fixture_root = "fixtures/domcheck"

(* The test binary runs in [_build/default/test]; the library trees
   live one level up. *)
let randomness_root = "../lib/randomness"
let obs_root = "../lib/obs/.stochobs.objs"

let analyze ?(entries = []) root =
  Domcheck.analyze ~context:(Rules.Lib "fixture") ~source_root:root ~entries
    [ root ]

let locs (o : Domcheck.outcome) file =
  List.filter_map
    (fun (f : Finding.t) ->
      if f.file = file then Some (Finding.rule_id f.rule, f.line, f.col)
      else None)
    o.findings

let check_locs = Alcotest.(check (list (triple string int int)))

let find_global (o : Domcheck.outcome) path =
  match
    List.find_opt (fun (g : Domcheck.global) -> g.g_pretty = path) o.globals
  with
  | Some g -> g
  | None -> Alcotest.failf "global %s missing from the inventory" path

let find_entry (o : Domcheck.outcome) path =
  match
    List.find_opt
      (fun (e : Domcheck.entry_report) -> e.e_pretty = path)
      o.entries
  with
  | Some e -> e
  | None -> Alcotest.failf "entry %s missing from the report" path

(* --- GLOBAL_MUT_STATE: inventory, decoys, suppression --------------- *)

let test_glob_mut () =
  let o = analyze fixture_root in
  check_locs "one finding per mutable global, none for the decoys"
    [
      ("GLOBAL_MUT_STATE", 8, 4);
      ("GLOBAL_MUT_STATE", 9, 4);
      ("GLOBAL_MUT_STATE", 10, 4);
      ("GLOBAL_MUT_STATE", 11, 4);
    ]
    (locs o "glob_mut.ml");
  let allowed = find_global o "Glob_mut.allowed" in
  (match allowed.g_suppressed with
  | Some reason ->
      Alcotest.(check bool)
        "suppression reason is carried into the report" true
        (String.length reason > 0)
  | None -> Alcotest.fail "Glob_mut.allowed should be suppressed inline");
  Alcotest.(check bool)
    "decoy immutable record is not inventoried" true
    (not
       (List.exists
          (fun (g : Domcheck.global) -> g.g_pretty = "Glob_mut.origin")
          o.globals))

let test_writer_attribution () =
  let o = analyze fixture_root in
  let table = find_global o "Glob_mut.table" in
  Alcotest.(check (list string))
    "direct writer recorded" [ "Glob_mut.record" ] table.g_writers;
  let total = find_global o "Glob_mut.total" in
  Alcotest.(check (list string))
    "incr through the builtin table counts as a write" [ "Glob_mut.bump" ]
    total.g_writers

(* --- DOMAIN_UNSAFE_REACH: cross-module write propagation ------------ *)

let test_cross_module_reach () =
  let o = analyze ~entries:[ "Store_b.run" ] fixture_root in
  check_locs "entry flagged at its definition"
    [ ("DOMAIN_UNSAFE_REACH", 6, 4) ]
    (locs o "store_b.ml");
  let f =
    match
      List.find_opt
        (fun (f : Finding.t) -> f.rule = Finding.Domain_unsafe_reach)
        o.findings
    with
    | Some f -> f
    | None -> Alcotest.fail "DOMAIN_UNSAFE_REACH finding missing"
  in
  let contains hay needle =
    let lh = String.length hay and ln = String.length needle in
    let rec go i = i + ln <= lh && (String.sub hay i ln = needle || go (i + 1)) in
    go 0
  in
  Alcotest.(check bool)
    "witness chain names the intermediate hop" true
    (contains f.message "Store_b.record -> Store_a.put");
  let e = find_entry o "Store_b.run" in
  Alcotest.(check (list string))
    "unsafe write set" [ "Store_a.registry" ] e.e_unsafe;
  Alcotest.(check bool) "writes-global inferred" true e.e_eff.Effects.writes_global

let test_unlisted_entry_not_flagged () =
  (* Store_a.put writes the registry, but only declared entry points
     raise DOMAIN_UNSAFE_REACH — the rule is about fan-out candidates,
     not every mutator. *)
  let o = analyze ~entries:[ "Store_b.run" ] fixture_root in
  Alcotest.(check (list (triple string int int)))
    "no entry findings in store_a"
    [ ("GLOBAL_MUT_STATE", 4, 4) ]
    (locs o "store_a.ml")

(* --- RNG_AMBIENT ----------------------------------------------------- *)

let test_rng_ambient () =
  let o =
    analyze ~entries:[ "Rng_amb.run"; "Rng_glob.run" ] fixture_root
  in
  check_locs "stdlib Random reached transitively"
    [ ("RNG_AMBIENT", 6, 4) ]
    (locs o "rng_amb.ml");
  check_locs "global generator flagged at def site and at the entry"
    [ ("RNG_AMBIENT", 5, 4); ("RNG_AMBIENT", 7, 4) ]
    (locs o "rng_glob.ml");
  let e = find_entry o "Rng_amb.run" in
  Alcotest.(check bool) "entry is rng-ambient" true e.e_rng_ambient;
  Alcotest.(check bool) "stdlib rng flag propagated" true e.e_eff.Effects.rng

(* --- IO: the wall clock is an ambient read -------------------------- *)

(* The fixture calls [Stochobs.Clock.wall]; analysing it together with
   the real stochobs tree resolves that call to a function whose own
   body reads [Monotonic_clock.now], the builtin registered as IO. *)
let test_clock_io () =
  let entries = [ "Clock_read.elapsed"; "Stochobs.Clock.wall" ] in
  let o =
    Domcheck.analyze ~context:(Rules.Lib "fixture") ~source_root:fixture_root
      ~entries [ fixture_root; obs_root ]
  in
  Alcotest.(check (list string)) "every entry resolves" []
    o.unresolved_entries;
  List.iter
    (fun name ->
      let e = find_entry o name in
      Alcotest.(check bool) (name ^ " carries io") true e.e_eff.Effects.io;
      Alcotest.(check bool)
        (name ^ " touches no global")
        false
        (e.e_eff.Effects.writes_global || e.e_eff.Effects.reads_global))
    entries

(* --- suppression + baseline filtering ------------------------------- *)

let test_baseline_filter () =
  let o = analyze ~entries:[ "Store_b.run"; "Rng_amb.run" ] fixture_root in
  Alcotest.(check bool) "fixture produces findings" true (o.findings <> []);
  Alcotest.(check bool) "inline suppression counted" true (o.suppressed >= 1);
  let b = Baseline.of_findings o.findings in
  let applied = Baseline.apply b o.findings in
  Alcotest.(check int) "a fresh baseline grandfathers everything" 0
    (List.length applied.kept);
  Alcotest.(check int) "nothing exceeds its own baseline" 0
    (List.length applied.exceeded);
  (* A new finding on a baselined file must surface the whole group. *)
  let extra =
    match o.findings with
    | f -> (
        match List.find_opt (fun (x : Finding.t) -> x.file = "glob_mut.ml") f with
        | Some f0 -> { f0 with Finding.line = f0.line + 100 }
        | None -> Alcotest.fail "expected a glob_mut.ml finding")
  in
  let applied' = Baseline.apply b (extra :: o.findings) in
  Alcotest.(check bool) "an extra finding breaks through the baseline" true
    (applied'.kept <> [])

(* --- effect-signature regression on the real Randomness library ----- *)

let test_randomness_signatures () =
  if not (Sys.file_exists randomness_root) then
    Alcotest.fail "randomness build tree missing (dep should provide it)";
  let entries =
    [
      "Randomness.Rng.create";
      "Randomness.Rng.split";
      "Randomness.Rng.float";
      "Randomness.Sampler.exponential";
    ]
  in
  let o =
    Domcheck.analyze ~source_root:randomness_root ~entries
      [ randomness_root ]
  in
  Alcotest.(check (list string)) "every entry resolves" []
    o.unresolved_entries;
  Alcotest.(check (list string))
    "the randomness library owns no global state" []
    (List.map (fun (g : Domcheck.global) -> g.g_pretty) o.globals);
  List.iter
    (fun name ->
      let e = find_entry o name in
      Alcotest.(check bool)
        (name ^ " threads its state (writes-param)")
        true e.e_eff.Effects.writes_param;
      Alcotest.(check bool)
        (name ^ " never draws ambient RNG")
        false e.e_eff.Effects.rng;
      Alcotest.(check bool)
        (name ^ " touches no global")
        false
        (e.e_eff.Effects.writes_global || e.e_eff.Effects.reads_global);
      Alcotest.(check bool) (name ^ " is not rng-ambient") false e.e_rng_ambient)
    entries

(* --- effect report shape --------------------------------------------- *)

let test_report_json () =
  let o = analyze ~entries:[ "Store_b.run" ] fixture_root in
  match Domcheck.report_json o with
  | Json.Obj fields ->
      let has k = List.mem_assoc k fields in
      List.iter
        (fun k -> Alcotest.(check bool) ("report has " ^ k) true (has k))
        [ "version"; "units"; "functions"; "globals"; "entries"; "summary" ];
      let roundtrip = Json.to_string (Domcheck.report_json o) in
      Alcotest.(check bool) "serialises non-trivially" true
        (String.length roundtrip > 100)
  | _ -> Alcotest.fail "report must be a JSON object"

let () =
  Alcotest.run "domcheck"
    [
      ( "global-mut-state",
        [
          Alcotest.test_case "inventory + suppression" `Quick test_glob_mut;
          Alcotest.test_case "writer attribution" `Quick
            test_writer_attribution;
        ] );
      ( "domain-unsafe-reach",
        [
          Alcotest.test_case "cross-module chain" `Quick
            test_cross_module_reach;
          Alcotest.test_case "non-entries stay quiet" `Quick
            test_unlisted_entry_not_flagged;
        ] );
      ( "rng-ambient",
        [ Alcotest.test_case "stdlib + global generator" `Quick test_rng_ambient ] );
      ( "io",
        [ Alcotest.test_case "wall clock read propagates" `Quick test_clock_io ] );
      ( "baseline",
        [ Alcotest.test_case "suppress and grandfather" `Quick test_baseline_filter ] );
      ( "randomness-regression",
        [
          Alcotest.test_case "entry signatures stay threaded" `Quick
            test_randomness_signatures;
        ] );
      ( "report",
        [ Alcotest.test_case "json shape" `Quick test_report_json ] );
    ]
