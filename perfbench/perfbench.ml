(* The benchmark's entry point. One command runs a named workload from a
   workload seed, prints every metric by name with its unit, checks
   every output, and ends with one JSON line:

     perfbench.exe --workload NAME --seed N --seconds S --trace 0|1
                   [--cli PATH]

   [--cli] names the built stochastic_cli executable, whose serve daemon
   the serve-mixed workload drives over its socket. With --trace 0 the
   JSON carries the end-to-end metrics; with --trace 1 it carries the
   per-layer metrics of a separate traced run. Exit code 0 when every
   output check passed, 1 when one failed, 2 on a usage error, 3 when the
   run was invalid (no result is printed). *)

open Common

(* Every per-layer metric of BENCHMARK.json, with its unit. A workload
   that does not exercise a layer reports 0 for it. *)
let per_layer () =
  let module J = Stochobs.Json in
  let text = In_channel.with_open_bin "BENCHMARK.json" In_channel.input_all in
  let field k j = Option.bind (J.member k j) J.to_str in
  match J.of_string text with
  | Ok j -> (
      match Option.bind (J.member "per_layer" j) J.to_list with
      | Some ms ->
          List.filter_map
            (fun m ->
              match (field "name" m, field "unit" m) with
              | Some n, Some u -> Some (n, u)
              | _ -> None)
            ms
      | None -> failwith "BENCHMARK.json has no per_layer list")
  | Error e -> failwith ("BENCHMARK.json: " ^ e)

let workloads = [ "paper-solve"; "serve-mixed" ]

let usage () =
  prerr_endline
    "usage: perfbench.exe --workload NAME --seed N --seconds S --trace 0|1 \
     [--cli PATH]";
  exit 2

let parse_args () =
  let workload = ref "" and seed = ref 1 and seconds = ref 10.0
  and trace = ref false and cli = ref "" in
  let rec go = function
    | "--workload" :: v :: rest ->
        workload := v;
        go rest
    | "--seed" :: v :: rest ->
        (match int_of_string_opt v with Some s -> seed := s | None -> usage ());
        go rest
    | "--seconds" :: v :: rest ->
        (match float_of_string_opt v with
        | Some s when s > 0.0 -> seconds := s
        | _ -> usage ());
        go rest
    | "--trace" :: v :: rest ->
        (match v with
        | "0" -> trace := false
        | "1" -> trace := true
        | _ -> usage ());
        go rest
    | "--cli" :: v :: rest ->
        cli := v;
        go rest
    | [] -> ()
    | _ -> usage ()
  in
  go (List.tl (Array.to_list Sys.argv));
  if not (List.mem !workload workloads) then usage ();
  (!workload, !seed, !seconds, !trace, !cli)

let json_number v = Printf.sprintf "%.17g" v

let print_metric m =
  Printf.printf "metric %-52s %s %s%s\n" m.name (json_number m.value) m.unit_
    (if m.note = "" then "" else "  (" ^ m.note ^ ")")

let () =
  let workload, seed, seconds, trace, cli = parse_args () in
  (try Unix.mkdir "perfbench/_run" 0o755
   with Unix.Unix_error (Unix.EEXIST, _, _) -> ());
  let r =
    try
      match workload with
      | "paper-solve" -> Paper_solve.run ~seed ~seconds ~trace
      | _ -> Serve_mixed.run ~cli ~seed ~seconds ~trace
    with Invalid_run msg ->
      prerr_endline ("perfbench: invalid run, no result: " ^ msg);
      exit 3
  in
  let contract =
    if trace then zero_layers (per_layer ()) r.layers
    else
      [
        metric "setup_s" "s" r.setup_s;
        metric "op_ms" "ms" r.op_ms;
        metric "alt_op_ms" "ms" r.alt_op_ms;
        metric "throughput_per_s" "1/s" r.throughput_per_s;
        metric "quality" "ratio" r.quality;
      ]
  in
  Printf.printf "workload %s, seed %d, %s run\n" workload seed
    (if trace then "traced" else "untraced");
  List.iter print_metric r.named;
  List.iter print_metric contract;
  Printf.printf "operations attempted %d, failed %d\n" r.ops.attempted
    r.ops.failed;
  let finite = List.for_all (fun m -> Float.is_finite m.value) contract in
  if not finite then prerr_endline "perfbench: a metric is not finite";
  let correct = r.ops.failed = 0 && finite in
  let fields =
    List.map
      (fun m ->
        Printf.sprintf "%S: {\"value\": %s, \"unit\": %S}" m.name
          (if Float.is_finite m.value then json_number m.value else "null")
          m.unit_)
      contract
  in
  Printf.printf
    "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}\n%!"
    correct r.ops.attempted r.ops.failed (String.concat ", " fields);
  exit (if correct then 0 else 1)
