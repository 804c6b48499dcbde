(* Workload serve-mixed: the real `serve --socket --persist` daemon,
   restarted on the journal an untimed warm-up phase left behind, driven
   open-loop over one connection by seeded Poisson arrivals at a short
   ladder of fixed rates. The mix: Zipf-skewed solve requests over a key
   set several times the cache capacity (mostly cache hits; the misses
   are cold quick-budget solves that append to the journal), a tenant
   fleet's fit requests (writes), and a few stats/metrics requests. *)

open Common
module J = Stochobs.Json

let capacity = 64
let tenants = 32
let fit_samples = 100
let zipf_s = 1.25

(* The ladder: (requests per second, share of the run). The nominal rate
   is the one the per-class latencies are reported at. *)
let ladder = [ (250.0, 0.45); (500.0, 0.12); (1000.0, 0.1); (2000.0, 0.08) ]

(* The nominal rate is the ladder's lowest: there a request's latency is
   mostly its own service and transport, not the queue in front of it,
   which on a shared host magnifies every slowdown. *)
let nominal = 250.0

(* Capacity: bursts of cached solves of the hottest keys, offered far
   faster than the daemon answers them, so that completions per second
   measure how fast it serves. Cached solves only, so that a burst's cost
   does not depend on which of its requests happen to be cold. Three
   bursts are run and the slowest is kept: the host's sporadic fast
   stretches come and go, its common slower state recurs in every run. *)
let overload = 40_000.0
let burst_seconds = 0.15
let bursts = 5
let hot_keys = 8

(* The nominal rung is cut into this many equal windows; the headline
   latencies are the slowest window's medians, for the same reason. *)
let windows = 5

(* The latency limit behind serve.max_rate: the all-request p99 of a
   rung must stay within it. *)
let p99_limit_ms = 25.0

(* A generator more than this late at its p99 over the ladder invalidates
   the run. (The bursts are offered faster than anything can be sent on
   one connection: their lateness is not measured.) *)
let max_lag_ms = 20.0

(* ------------------------------------------------------------------ *)
(* Seeded request stream                                                *)

(* 16 x 12 LogNormal parameter pairs on a 1.08 geometric lattice — one
   quantization bucket each at the daemon's 5% grid — under two cost
   models: 384 distinct keys, six times the cache capacity. *)
let keys =
  Array.init (16 * 12 * 2) (fun k ->
      let i = k mod 16 and j = k / 16 mod 12 and hpc = k >= 16 * 12 in
      (1.08 ** float_of_int i, 0.3 *. (1.08 ** float_of_int j), hpc))

type kind = Solve of int | Fit | Stats | Metrics

type request = { id : int; kind : kind; line : string }

let solve_line id k =
  let mu, sigma, hpc = keys.(k) in
  Printf.sprintf
    "{\"kind\": \"solve\", \"id\": %d, \"dist\": {\"family\": \"lognormal\", \
     \"mu\": %.17g, \"sigma\": %.17g}, \"model\": %s}"
    id mu sigma
    (if hpc then "\"hpc\"" else "{\"alpha\": 1, \"beta\": 0, \"gamma\": 0}")

let simple_line id kind = Printf.sprintf "{\"kind\": \"%s\", \"id\": %d}" kind id

type stream = {
  rng : Randomness.Rng.t;
  rank_to_key : int array;  (** A seeded popularity order. *)
  zipf_cdf : float array;
  tenant_laws : (float * float) array;
  mutable next_id : int;
}

let stream seed =
  let rng = Randomness.Rng.create ~seed () in
  let n = Array.length keys in
  let rank_to_key = Array.init n Fun.id in
  Randomness.Rng.shuffle rng rank_to_key;
  let w = Array.init n (fun r -> 1.0 /. (float_of_int (r + 1) ** zipf_s)) in
  let total = Array.fold_left ( +. ) 0.0 w in
  let acc = ref 0.0 in
  let zipf_cdf =
    Array.map
      (fun x ->
        acc := !acc +. (x /. total);
        !acc)
      w
  in
  let tenant_laws =
    Array.init tenants (fun _ ->
        (Randomness.Rng.uniform rng 2.0 4.0, Randomness.Rng.uniform rng 0.2 0.8))
  in
  { rng; rank_to_key; zipf_cdf; tenant_laws; next_id = 1 }

let zipf_key st =
  let u = Randomness.Rng.float st.rng in
  let lo = ref 0 and hi = ref (Array.length st.zipf_cdf - 1) in
  while !lo < !hi do
    let mid = (!lo + !hi) / 2 in
    if st.zipf_cdf.(mid) < u then lo := mid + 1 else hi := mid
  done;
  st.rank_to_key.(!lo)

let fit_line st id =
  let t = Randomness.Rng.int st.rng tenants in
  let mu, sigma = st.tenant_laws.(t) in
  let d = Distributions.Lognormal.make ~mu ~sigma in
  let samples = Distributions.Dist.samples d st.rng fit_samples in
  Printf.sprintf "{\"kind\": \"fit\", \"id\": %d, \"tenant\": \"tenant-%02d\", \"samples\": [%s]}"
    id t
    (String.concat ", "
       (Array.to_list (Array.map (Printf.sprintf "%.17g") samples)))

(* 70% solves, 27% fits, 3% stats/metrics. *)
let next_request st =
  let id = st.next_id in
  st.next_id <- id + 1;
  let u = Randomness.Rng.float st.rng in
  if u < 0.70 then
    let k = zipf_key st in
    { id; kind = Solve k; line = solve_line id k }
  else if u < 0.97 then { id; kind = Fit; line = fit_line st id }
  else if u < 0.985 then { id; kind = Stats; line = simple_line id "stats" }
  else { id; kind = Metrics; line = simple_line id "metrics" }

(* A solve of one of the hottest keys, in turn. *)
let hot_request st =
  let id = st.next_id in
  st.next_id <- id + 1;
  let k = st.rank_to_key.(id mod hot_keys) in
  { id; kind = Solve k; line = solve_line id k }

(* ------------------------------------------------------------------ *)
(* The daemon and its connection                                        *)

(* [partial] holds the bytes after the last newline read; [lines] the
   complete response lines not yet taken, oldest first. *)
type daemon = {
  pid : int;
  fd : Unix.file_descr;
  partial : Buffer.t;
  lines : string Queue.t;
}

let run_dir = "perfbench/_run"

let spawn ~cli ~sock ~journal ?trace () =
  let null = Unix.openfile "/dev/null" [ Unix.O_RDWR ] 0 in
  let args =
    [ cli; "serve"; "--socket"; sock; "--persist"; journal; "--cache-capacity";
      string_of_int capacity ]
    @ match trace with Some f -> [ "--trace"; f ] | None -> []
  in
  let pid =
    Unix.create_process cli (Array.of_list args) null null Unix.stderr
  in
  Unix.close null;
  let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  let deadline = now () +. 30.0 in
  let rec connect () =
    match Unix.connect fd (Unix.ADDR_UNIX sock) with
    | () -> ()
    | exception Unix.Unix_error ((Unix.ENOENT | Unix.ECONNREFUSED), _, _)
      when now () < deadline ->
        Unix.sleepf 0.001;
        connect ()
  in
  connect ();
  { pid; fd; partial = Buffer.create 4096; lines = Queue.create () }

let chunk = Bytes.create 65536

(* Read what the socket has and split it into lines. *)
let read_some d =
  match Unix.read d.fd chunk 0 (Bytes.length chunk) with
  | 0 -> failwith "serve-mixed: the daemon closed the connection"
  | n ->
      let start = ref 0 in
      for i = 0 to n - 1 do
        if Bytes.get chunk i = '\n' then begin
          Buffer.add_subbytes d.partial chunk !start (i - !start);
          Queue.push (Buffer.contents d.partial) d.lines;
          Buffer.clear d.partial;
          start := i + 1
        end
      done;
      Buffer.add_subbytes d.partial chunk !start (n - !start)

let take_line d = Queue.take_opt d.lines

let rec write_all fd s off =
  if off < String.length s then
    let n = Unix.write_substring fd s off (String.length s - off) in
    write_all fd s (off + n)

(* A closed-loop call: send one line, wait for its response. *)
let call d line =
  write_all d.fd (line ^ "\n") 0;
  let rec wait () =
    match take_line d with
    | Some l -> l
    | None ->
        read_some d;
        wait ()
  in
  wait ()

let stop d =
  (try ignore (call d (simple_line 0 "shutdown")) with _ -> ());
  (try Unix.close d.fd with Unix.Unix_error _ -> ());
  ignore (Unix.waitpid [] d.pid)

(* ------------------------------------------------------------------ *)
(* Checks on responses                                                  *)

type client = {
  ops : tally;
  answers : (int, string) Hashtbl.t;  (** key -> canonical answer *)
  normalized : Samples.t;  (** One per distinct key answered. *)
  mutable solves : int;
  mutable fits : int;
  mutable stats : int;
  mutable metrics : int;
  mutable hits : int;
  mutable misses : int;
}

let member k j = J.member k j

(* The answer with the per-request fields removed: a cached answer must
   be byte-identical to the cold answer for the same key. *)
let canonical = function
  | J.Obj fields ->
      J.to_string ~indent:false
        (J.Obj (List.filter (fun (k, _) -> k <> "id" && k <> "cached") fields))
  | j -> J.to_string ~indent:false j

let count_sent c (r : request) =
  match r.kind with
  | Solve _ -> c.solves <- c.solves + 1
  | Fit -> c.fits <- c.fits + 1
  | Stats -> c.stats <- c.stats + 1
  | Metrics -> c.metrics <- c.metrics + 1

(* Check one response; returns whether a solve was served from cache. *)
let check_response c (r : request) line =
  match J.of_string line with
  | Error e ->
      check c.ops false "request %d: unparsable response (%s)" r.id e;
      false
  | Ok j ->
      let ok = member "ok" j = Some (J.Bool true) in
      let id_ok = member "id" j = Some (J.Num (float_of_int r.id)) in
      let cached = member "cached" j = Some (J.Bool true) in
      (match r.kind with
      | Solve k ->
          if cached then c.hits <- c.hits + 1 else c.misses <- c.misses + 1;
          let answer = canonical j in
          let same =
            match Hashtbl.find_opt c.answers k with
            | None ->
                Hashtbl.replace c.answers k answer;
                (match member "normalized" j with
                | Some (J.Num v) -> Samples.add c.normalized v
                | _ -> ());
                true
            | Some first -> first = answer
          in
          check c.ops (ok && id_ok && same)
            "request %d (solve key %d): ok %b, id in order %b, answer equal \
             to the first answer for the key %b"
            r.id k ok id_ok same
      | Fit | Stats | Metrics ->
          check c.ops (ok && id_ok) "request %d: ok %b, id in order %b" r.id ok
            id_ok);
      cached

(* ------------------------------------------------------------------ *)
(* The open-loop generator                                              *)

type sent = {
  req : request;
  due : float;
  mutable at : float;  (** When it was handed to the socket. *)
  mutable back : float;  (** When its response arrived. *)
  mutable response : string;
}

(* Seeded Poisson arrivals at [rate] for [duration] seconds, starting
   now. One process, one connection, one select loop: requests go out
   at their due times whatever the daemon is doing, and each is timed
   from its due time. The loop polls (zero timeout) instead of sleeping,
   so that its own wake-ups add neither lateness nor latency. *)
let open_loop d st ?(next = next_request) ~rate ~duration () =
  let schedule = ref [] and t = ref 0.0 in
  let rec fill () =
    t := !t -. (log (Randomness.Rng.float_open st.rng) /. rate);
    if !t < duration then begin
      schedule :=
        { req = next st; due = !t; at = nan; back = nan; response = "" }
        :: !schedule;
      fill ()
    end
  in
  fill ();
  (* The schedule starts once every request line is built. *)
  let start = now () +. 0.005 in
  let reqs =
    Array.of_list
      (List.rev_map (fun s -> { s with due = start +. s.due }) !schedule)
  in
  let n = Array.length reqs in
  Unix.set_nonblock d.fd;
  let out = Buffer.create 65536 and out_off = ref 0 in
  let next = ref 0 and got = ref 0 in
  let last_progress = ref (now ()) in
  while !got < n do
    let tnow = now () in
    while !next < n && reqs.(!next).due <= tnow do
      let s = reqs.(!next) in
      Buffer.add_string out s.req.line;
      Buffer.add_char out '\n';
      s.at <- tnow;
      incr next
    done;
    let pending = Buffer.length out - !out_off in
    let r, w, _ =
      try Unix.select [ d.fd ] (if pending > 0 then [ d.fd ] else []) [] 0.0
      with Unix.Unix_error (Unix.EINTR, _, _) -> ([], [], [])
    in
    if w <> [] then begin
      let s = Buffer.sub out !out_off pending in
      (match Unix.write_substring d.fd s 0 pending with
      | k -> out_off := !out_off + k
      | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK), _, _) -> ());
      if !out_off = Buffer.length out then begin
        Buffer.clear out;
        out_off := 0
      end
    end;
    if r <> [] then begin
      (try read_some d
       with Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK), _, _) -> ());
      let tback = now () in
      let rec drain () =
        match take_line d with
        | Some l ->
            let s = reqs.(!got) in
            s.back <- tback;
            s.response <- l;
            incr got;
            last_progress := tback;
            if !got < n then drain ()
        | None -> ()
      in
      drain ()
    end;
    if now () -. !last_progress > 60.0 then
      failwith "serve-mixed: no response for 60 s"
  done;
  Unix.clear_nonblock d.fd;
  reqs

(* ------------------------------------------------------------------ *)
(* Phases                                                               *)

type rung = {
  rate : float;
  reqs : sent array;
  cached : bool array;
}

let latency_ms s = (s.back -. s.due) *. 1e3

let class_latencies rung pred =
  let s = Samples.create () in
  Array.iteri
    (fun i x -> if pred x rung.cached.(i) then Samples.add s (latency_ms x))
    rung.reqs;
  s

let is_solve x = match x.req.kind with Solve _ -> true | _ -> false

(* A rung meets the limit when its all-request p99 is within it and its
   backlog did not grow: the last quarter's median latency is within
   twice the first quarter's plus 2 ms. *)
let meets rung =
  let n = Array.length rung.reqs in
  let all = class_latencies rung (fun _ _ -> true) in
  let part lo hi =
    let s = Samples.create () in
    for i = lo to hi - 1 do
      Samples.add s (latency_ms rung.reqs.(i))
    done;
    median s
  in
  n >= 8
  && quantile all 0.99 <= p99_limit_ms
  && part (3 * n / 4) n <= (2.0 *. part 0 (n / 4)) +. 2.0

let lag_ms rungs =
  let s = Samples.create () in
  List.iter
    (fun r -> Array.iter (fun x -> Samples.add s ((x.at -. x.due) *. 1e3)) r.reqs)
    rungs;
  s

let parse_prometheus text =
  List.filter_map
    (fun l ->
      if l = "" || l.[0] = '#' then None
      else
        match String.split_on_char ' ' l with
        | [ name; v ] -> Option.map (fun v -> (name, v)) (float_of_string_opt v)
        | _ -> None)
    (String.split_on_char '\n' text)

let scrape d =
  match J.of_string (call d (simple_line 0 "metrics")) with
  | Ok j -> (
      match member "exposition" j with
      | Some (J.Str text) -> parse_prometheus text
      | _ -> [])
  | Error _ -> []

let stats_of d =
  match J.of_string (call d (simple_line 0 "stats")) with
  | Ok j -> j
  | Error _ -> J.Null

let num path j =
  let rec go j = function
    | [] -> ( match j with J.Num v -> v | _ -> nan)
    | k :: rest -> ( match member k j with Some j -> go j rest | None -> nan)
  in
  go j path

let copy_file src dst =
  let ic = open_in_bin src in
  let data =
    Fun.protect ~finally:(fun () -> close_in ic) (fun () ->
        really_input_string ic (in_channel_length ic))
  in
  let oc = open_out_bin dst in
  Fun.protect ~finally:(fun () -> close_out oc) (fun () -> output_string oc data)

let remove path = try Sys.remove path with Sys_error _ -> ()

(* ------------------------------------------------------------------ *)
(* In-process layer probes (traced run)                                 *)

let server_config =
  {
    Stochserve.Server.default_config with
    Stochserve.Server.cache_capacity = capacity;
  }

(* Replay the ladder's request lines through an in-process server that
   starts from the same journal, timing each public call with a span of
   the benchmark's own. Returns each request's in-process service time. *)
let probe tr ~journal_copy rungs =
  let journal = Stochserve.Journal.open_ journal_copy in
  let server =
    Stochserve.Server.create ~metrics:(Stochobs.Metrics.create ())
      ~journal server_config
  in
  let service =
    List.map
      (fun rung ->
        Array.mapi
          (fun i x ->
            let name =
              match x.req.kind with
              | Solve _ when rung.cached.(i) -> "bench.service.server.cached"
              | Solve _ -> "bench.service.server.cold"
              | Fit -> "bench.service.server.fit"
              | Stats | Metrics -> "bench.service.server.other"
            in
            snd
              (timed (fun () ->
                   span tr name (fun () ->
                       Stochserve.Server.handle_line server x.req.line))))
          rung.reqs)
      rungs
  in
  Stochserve.Server.close server;
  (* The layers under a request, one public call at a time. *)
  let all = List.concat_map (fun r -> Array.to_list r.reqs) rungs in
  let solves = List.filter is_solve all in
  List.iteri
    (fun i x ->
      if i < 2000 then
        ignore
          (span tr "bench.service.protocol.parse" (fun () ->
               Stochserve.Protocol.parse_request x.req.line)))
    solves;
  let budget = Robust.Solver.quick_budget in
  let key k =
    let mu, sigma, hpc = keys.(k) in
    Stochserve.Quantize.key ~grid:Stochserve.Quantize.default_grid
      ~family:"lognormal" ~params:[ ("mu", mu); ("sigma", sigma) ]
      ~model:
        (if hpc then Stochastic_core.Cost_model.neuro_hpc
         else Stochastic_core.Cost_model.reservation_only)
      ~strategy:"cascade" ~m:budget.bf_candidates ~n:budget.mc_samples
      ~disc_n:budget.dp_points ~max_evaluations:budget.max_evaluations
      ~seed:server_config.seed ~count:10 ~exact:false
  in
  let cache = Stochserve.Cache.create ~capacity in
  List.iteri
    (fun i x ->
      match x.req.kind with
      | Solve k when i < 2000 ->
          let key = span tr "bench.service.quantize.key" (fun () -> key k) in
          (match
             span tr "bench.service.cache.find" (fun () ->
                 Stochserve.Cache.find cache key)
           with
          | Some () -> ()
          | None -> ignore (Stochserve.Cache.put cache key ()))
      | _ -> ())
    solves;
  let recovered =
    span tr "bench.service.journal.recover" (fun () ->
        Stochserve.Journal.recover journal_copy)
  in
  let append_path = journal_copy ^ ".append" in
  remove append_path;
  let j = Stochserve.Journal.open_ ~compact_threshold:1_000_000 append_path in
  List.iter
    (fun e ->
      span tr "bench.service.journal.append" (fun () ->
          Stochserve.Journal.append j e))
    recovered.Stochserve.Journal.entries;
  Stochserve.Journal.close j;
  remove append_path;
  let tenants_table = Stochserve.Tenants.create () in
  List.iter
    (fun x ->
      match x.req.kind, Stochserve.Protocol.parse_request x.req.line with
      | Fit, Ok (_, Stochserve.Protocol.Fit { tenant; samples }) ->
          ignore
            (span tr "bench.service.tenants.fit" (fun () ->
                 Stochserve.Tenants.fit tenants_table ~id:tenant samples))
      | _ -> ())
    all;
  service

(* ------------------------------------------------------------------ *)

let run ~cli ~seed ~seconds ~trace =
  if cli = "" || not (Sys.file_exists cli) then
    failwith "serve-mixed needs --cli PATH to the built stochastic_cli";
  let ops = tally () in
  let tag = Printf.sprintf "%s/serve-%d" run_dir (Unix.getpid ()) in
  let sock = tag ^ ".sock" and journal = tag ^ ".journal" in
  let journal_copy = tag ^ ".journal-copy" in
  let daemon_trace = tag ^ ".daemon-trace.jsonl" in
  List.iter remove [ journal; journal_copy ];
  (* Every daemon started is stopped and reaped, whatever happens. *)
  let live = ref [] in
  let spawn ?trace () =
    let d = spawn ~cli ~sock ~journal ?trace () in
    live := d :: !live;
    d
  in
  let stop d =
    stop d;
    live := List.filter (fun x -> x.pid <> d.pid) !live
  in
  Fun.protect
    ~finally:(fun () ->
      List.iter
        (fun d ->
          (try Unix.kill d.pid Sys.sigkill with Unix.Unix_error _ -> ());
          ignore (Unix.waitpid [] d.pid))
        !live;
      List.iter remove [ sock; journal; journal_copy ])
  @@ fun () ->
  let st = stream seed in
  let c =
    {
      ops;
      answers = Hashtbl.create 512;
      normalized = Samples.create ();
      solves = 0;
      fits = 0;
      stats = 0;
      metrics = 0;
      hits = 0;
      misses = 0;
    }
  in
  (* Warm-up, untimed: fill the cache and the journal, then stop. *)
  let d = spawn () in
  for _ = 1 to 400 do
    let r = next_request st in
    ignore (check_response c r (call d r.line))
  done;
  stop d;
  copy_file journal journal_copy;
  (* Set-up, timed three times: start the daemon on the journal (recovery
     and cache replay included) until a stats request is answered. The
     last daemon started serves the timed phase. *)
  let boot ?trace () =
    let d = spawn ?trace () in
    let s = stats_of d in
    check ops (member "ok" s = Some (J.Bool true)) "daemon start: stats not ok";
    d
  in
  let rec boots k acc =
    let d, dt = timed (fun () -> boot ()) in
    if k = 1 then (d, median_list (dt :: acc))
    else begin
      stop d;
      boots (k - 1) (dt :: acc)
    end
  in
  let d, setup_s = boots 3 [] in
  (* Counters restart with the daemon: the client counts from here. *)
  c.solves <- 0;
  c.fits <- 0;
  c.stats <- 1;
  c.metrics <- 0;
  c.hits <- 0;
  c.misses <- 0;
  let before = scrape d in
  c.metrics <- c.metrics + 1;
  let measure ?next ~rate ~duration () =
    let reqs = open_loop d st ?next ~rate ~duration () in
    let cached =
      Array.map
        (fun x ->
          count_sent c x.req;
          check_response c x.req x.response)
        reqs
    in
    { rate; reqs; cached }
  in
  let rungs =
    List.map
      (fun (rate, share) -> measure ~rate ~duration:(share *. seconds) ())
      ladder
  in
  (* The hottest keys, solved once each so that every burst request is a
     cache hit. *)
  for _ = 1 to hot_keys do
    let r = hot_request st in
    count_sent c r;
    ignore (check_response c r (call d r.line))
  done;
  let burst_rungs =
    List.init bursts (fun _ ->
        measure ~next:hot_request ~rate:overload ~duration:burst_seconds ())
  in
  let after = scrape d in
  c.metrics <- c.metrics + 1;
  let stats = stats_of d in
  let reconciled =
    num [ "stats"; "requests"; "solve" ] stats = float_of_int c.solves
    && num [ "stats"; "requests"; "fit" ] stats = float_of_int c.fits
    && num [ "stats"; "requests"; "stats" ] stats = float_of_int (c.stats + 1)
    && num [ "stats"; "requests"; "metrics" ] stats = float_of_int c.metrics
    && num [ "stats"; "cache"; "hits" ] stats = float_of_int c.hits
    && num [ "stats"; "cache"; "misses" ] stats = float_of_int c.misses
  in
  check ops reconciled
    "stats do not reconcile: daemon %s; client solve %d fit %d stats %d \
     metrics %d hits %d misses %d"
    (J.to_string ~indent:false
       (Option.value
          (Option.bind (member "stats" stats) (member "requests"))
          ~default:J.Null))
    c.solves c.fits (c.stats + 1) c.metrics c.hits c.misses;
  stop d;
  let lag = lag_ms rungs in
  let lag_p99 = quantile lag 0.99 in
  if lag_p99 > max_lag_ms then begin
    raise
      (Invalid_run
         (Printf.sprintf
            "serve-mixed: the generator fell behind its schedule (lag p99 \
             %.2f ms > %.0f ms)"
            lag_p99 max_lag_ms))
  end;
  let nominal_rung = List.find (fun r -> r.rate = nominal) rungs in
  let cached_ms = class_latencies nominal_rung (fun x c -> is_solve x && c) in
  let cold_ms = class_latencies nominal_rung (fun x c -> is_solve x && not c) in
  (* Per-window medians of the nominal rung, by due time. *)
  let window_medians pred =
    let n = Array.length nominal_rung.reqs in
    let t0 = nominal_rung.reqs.(0).due
    and t1 = nominal_rung.reqs.(n - 1).due in
    let win x =
      min (windows - 1)
        (int_of_float (float_of_int windows *. (x.due -. t0) /. (t1 -. t0)))
    in
    let per = Array.init windows (fun _ -> Samples.create ()) in
    Array.iteri
      (fun i x ->
        if pred x nominal_rung.cached.(i) then
          Samples.add per.(win x) (latency_ms x))
      nominal_rung.reqs;
    Array.to_list (Array.map median per)
    |> List.filter Float.is_finite
  in
  let steady_window pred =
    List.fold_left Float.max neg_infinity (window_medians pred)
  in
  let cached_steady = steady_window (fun x c -> is_solve x && c)
  and cold_steady = steady_window (fun x c -> is_solve x && not c) in
  let passing = List.filter meets rungs in
  let top =
    List.fold_left
      (fun acc r -> match acc with Some a when a.rate >= r.rate -> acc | _ -> Some r)
      None passing
  in
  let max_rate = match top with Some r -> r.rate | None -> 0.0 in
  let completed_per_s r =
    let first = r.reqs.(0).due
    and last = Array.fold_left (fun m x -> Float.max m x.back) 0.0 r.reqs in
    float_of_int (Array.length r.reqs) /. (last -. first)
  in
  let capacity_per_s =
    List.fold_left
      (fun m r -> Float.min m (completed_per_s r))
      infinity burst_rungs
  in
  let per_rung =
    List.concat_map
      (fun r ->
        let all = class_latencies r (fun _ _ -> true) and lag = lag_ms [ r ] in
        let n = Array.length r.reqs in
        let tag = Printf.sprintf "serve.rate_%.0f" r.rate in
        [
          metric (tag ^ ".p50_ms") "ms" (median all)
            ~note:(Printf.sprintf "all requests, n=%d" n);
          metric (tag ^ ".p99_ms") "ms" (quantile all 0.99)
            ~note:(Printf.sprintf "all requests, n=%d, %d beyond%s" n
                     (beyond n 0.99) (if meets r then "" else ", misses the limit"));
          metric (tag ^ ".completed_per_s") "1/s" (completed_per_s r);
          metric (tag ^ ".lag_p99_ms") "ms" (quantile lag 0.99);
        ])
      rungs
    @ List.mapi
        (fun i r ->
          metric
            (Printf.sprintf "serve.burst_%d.completed_per_s" (i + 1))
            "1/s" (completed_per_s r)
            ~note:(Printf.sprintf "%d cached solves offered at %.0f req/s"
                     (Array.length r.reqs) overload))
        burst_rungs
  in
  let layers =
    if not trace then []
    else begin
      (* The nominal rung once more, against a daemon writing its own
         spans (--trace): the cached medians of the two give the tracing
         overhead. *)
      let traced_cached =
        let d = boot ~trace:daemon_trace () in
        let reqs =
          open_loop d st ~rate:nominal ~duration:(0.45 *. seconds) ()
        in
        stop d;
        let s = Samples.create () in
        Array.iter
          (fun x ->
            if check_response c x.req x.response && is_solve x then
              Samples.add s (latency_ms x))
          reqs;
        s
      in
      let tr = tracer () in
      let service = probe tr ~journal_copy rungs in
      let spans = read_spans tr in
      let med name scale = median (durations spans name) *. scale in
      let delta name =
        let get l = Option.value (List.assoc_opt name l) ~default:0.0 in
        get after -. get before
      in
      let hits = delta "service_cache_hits_total"
      and misses = delta "service_cache_misses_total" in
      let cold = delta "service_solves_cold_total" in
      (* Queue wait: socket latency minus the request's own in-process
         service time, at the nominal rate. *)
      let wait = Samples.create () in
      List.iter2
        (fun rung svc ->
          if rung.rate = nominal then
            Array.iteri
              (fun i x -> Samples.add wait (latency_ms x -. (svc.(i) *. 1e3)))
              rung.reqs)
        rungs service;
      let low = List.hd rungs in
      let transport =
        (median (class_latencies low (fun x c -> is_solve x && c)) /. 1e3)
        -. med "bench.service.server.cached" 1.0
      in
      write_trace tr (Printf.sprintf "%s/trace-serve-mixed-%d.jsonl" run_dir seed);
      [
        metric "service.server.cached_us" "us" (med "bench.service.server.cached" 1e6);
        metric "service.protocol.parse_us" "us" (med "bench.service.protocol.parse" 1e6);
        metric "service.quantize.key_us" "us" (med "bench.service.quantize.key" 1e6);
        metric "service.cache.find_us" "us" (med "bench.service.cache.find" 1e6);
        metric "service.transport_us" "us" (transport *. 1e6);
        metric "service.server.cold_ms" "ms" (med "bench.service.server.cold" 1e3);
        metric "service.journal.append_us" "us" (med "bench.service.journal.append" 1e6);
        metric "service.journal.appended" "count" (delta "service_journal_appended_total");
        metric "service.journal.compactions" "count"
          (delta "service_journal_compactions_total");
        metric "service.journal.recover_ms" "ms" (med "bench.service.journal.recover" 1e3);
        metric "service.cache.hit_ratio" "ratio" (hits /. (hits +. misses));
        metric "service.cache.lookups" "count" (hits +. misses);
        metric "service.cache.evictions" "count" (delta "service_cache_evictions_total");
        metric "service.server.fit_us" "us" (med "bench.service.server.fit" 1e6);
        metric "service.tenants.fit_us" "us" (med "bench.service.tenants.fit" 1e6);
        metric "service.queue_wait_ms" "ms" (median wait);
        metric "robust.solver.evaluations" "count/solve"
          (delta "robust_solver_evaluations_total" /. Float.max 1.0 cold);
        metric "numerics.integrate.calls" "count/solve"
          (delta "numerics_integrate_calls_total" /. Float.max 1.0 cold);
        metric "loadgen.lag_ms" "ms" lag_p99;
        metric "bench.trace_overhead" "ratio"
          ((median traced_cached /. median cached_ms) -. 1.0);
      ]
    end
  in
  let note s p = Printf.sprintf "n=%d, %d beyond, at %.0f req/s" (Samples.count s)
      (beyond (Samples.count s) p) nominal in
  {
    setup_s;
    op_ms = cached_steady;
    alt_op_ms = cold_steady;
    throughput_per_s = capacity_per_s;
    quality = geomean c.normalized;
    ops;
    named =
      [
        metric "serve.cached_p50_ms" "ms" (median cached_ms) ~note:(note cached_ms 0.5);
        metric "serve.cached_p99_ms" "ms" (quantile cached_ms 0.99) ~note:(note cached_ms 0.99);
        metric "serve.cold_p50_ms" "ms" (median cold_ms) ~note:(note cold_ms 0.5);
        metric "serve.cold_p90_ms" "ms" (quantile cold_ms 0.9) ~note:(note cold_ms 0.9);
        metric "serve.cached_window_p50_ms" "ms" cached_steady
          ~note:(Printf.sprintf "slowest of %d windows at %.0f req/s" windows nominal);
        metric "serve.cold_window_p50_ms" "ms" cold_steady
          ~note:(Printf.sprintf "slowest of %d windows at %.0f req/s" windows nominal);
        metric "serve.max_rate" "1/s" max_rate
          ~note:(Printf.sprintf "highest of %s req/s with all-request p99 <= %.0f ms and no growing backlog"
                   (String.concat "/"
                      (List.map (fun (r, _) -> Printf.sprintf "%.0f" r) ladder))
                   p99_limit_ms);
        metric "serve.capacity_per_s" "1/s" capacity_per_s
          ~note:(Printf.sprintf
                   "cached solves, slowest of %d bursts offered at %.0f req/s"
                   bursts overload);
        metric "loadgen.lag_p99_ms" "ms" lag_p99 ~note:(Printf.sprintf "over %d requests" (Samples.count lag));
        metric "served_normalized_cost" "ratio" (geomean c.normalized)
          ~note:(Printf.sprintf "geometric mean over the %d distinct keys answered" (Samples.count c.normalized));
      ]
      @ per_rung;
    layers;
  }
