(* The served-query benchmark.  One invocation is one run of one
   workload: set up (several times, to time set-up), then either drive
   the server with a timed closed loop ([--trace 0]) or replay the same
   request stream through the layers' public functions with spans
   around every call ([--trace 1]).  The result is written as JSON to
   [--out]; run.py builds this program, calls it and prints the
   summary.

     main.exe --workload warm-mix --seed 1 --seconds 10 --trace 0 \
       --socket perfbench/out/s.sock --out perfbench/out/r.json *)

open Strdb

let fail fmt = Printf.ksprintf (fun m -> prerr_endline ("perfbench: " ^ m); exit 2) fmt

(* Engine settings come from the command line only: an inherited STRDB_*
   variable would silently change the engine under measurement (the plan
   cache key records no engine configuration). *)
let refuse_engine_env () =
  Array.iter
    (fun kv ->
      if String.starts_with ~prefix:"STRDB_" kv then
        fail "refusing to run with %s set in the environment"
          (List.hd (String.split_on_char '=' kv)))
    (Unix.environment ())

let median l =
  let a = Array.of_list l in
  Array.sort compare a;
  let n = Array.length a in
  if n = 0 then nan
  else if n mod 2 = 1 then a.(n / 2)
  else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.0

(* --------------------------------------------------------------- set-up *)

type setup = {
  server : Serve.t;  (** the last server started; it serves the run. *)
  ready : float list;  (** seconds from fork to the server's first PING. *)
  stopped : Serve.report list;  (** of the servers stopped during set-up. *)
}

let now = Loadgen.now

(* Start a server — generate the database, build the store, listen —
   [reps] times; every server but the last is stopped again.  Each one
   is forked from this process before it has built anything, so every
   set-up starts from the same heap.  Timing several set-ups lets
   [setup_s] be a median. *)
let set_up (p : Spec.params) ~seed ~socket ~workers ~reps =
  let once () =
    let t0 = now () in
    let server =
      Serve.spawn ~socket ~workers ~indexed:p.indexed (fun () -> Spec.database p ~seed)
    in
    (try Serve.wait_ready server
     with e ->
       (try ignore (Serve.stop server) with _ -> ());
       raise e);
    (server, now () -. t0)
  in
  let rec go k ready stopped =
    let server, t = once () in
    if k = 1 then { server; ready = List.rev (t :: ready); stopped = List.rev stopped }
    else go (k - 1) (t :: ready) (Serve.stop server :: stopped)
  in
  go reps [] []

(* [setup_s], [workload.gen_s] and [store.build_s], given the report of
   the server that served the run. *)
let setup_metrics s (last : Serve.report) =
  let reports = s.stopped @ [ last ] in
  ( median s.ready,
    median (List.map (fun (r : Serve.report) -> r.gen_s) reports),
    median (List.map (fun (r : Serve.report) -> r.store_s) reports) )

(* ----------------------------------------------------------------- JSON *)

(* A latency percentile that lands on a failed request is infinite: JSON
   has no such number, so it is written as null. *)
let metric ?(extra = []) name unit value ~samples =
  Printf.sprintf "%S: {\"value\": %s, \"unit\": %S, \"samples\": %d%s}" name
    (if Float.is_finite value then Printf.sprintf "%.17g" value else "null")
    unit samples
    (String.concat "" (List.map (fun (k, v) -> Printf.sprintf ", %S: %s" k v) extra))

let obj fields = "{" ^ String.concat ", " fields ^ "}"

(* --------------------------------------------------------------- timed *)

(* Nearest-rank percentile of sorted [a], with the number of samples
   above it — the count a tail figure rests on. *)
let percentile a p =
  let n = Array.length a in
  let rank = max 1 (int_of_float (Float.ceil (p /. 100.0 *. float_of_int n))) in
  (a.(rank - 1), n - rank)

(* Set up, then run [f] with the set-up and a [stop] that shuts the
   server down and returns its report; the server is stopped on every
   exit path. *)
let with_server p ~seed ~socket ~workers ~reps f =
  let s = set_up p ~seed ~socket ~workers ~reps in
  let report = ref None in
  let stop () =
    match !report with
    | Some r -> r
    | None ->
        let r = Serve.stop s.server in
        report := Some r;
        r
  in
  Fun.protect
    ~finally:(fun () -> if !report = None then try ignore (stop ()) with _ -> ())
    (fun () -> f s stop)

let timed kind p ~seed ~seconds ~socket ~conns ~reps ~warmup =
  with_server p ~seed ~socket ~workers:conns ~reps @@ fun s stop ->
  let oracle_t0 = now () in
  let reqs = Spec.requests kind p (Spec.oracle (Spec.database p ~seed)) ~seed in
  let oracle_s = now () -. oracle_t0 in
  let i = ref 0 in
  let next () =
    let r = reqs.(!i mod Array.length reqs) in
    incr i;
    r
  in
  let warm = Loadgen.run ~socket ~conns ~seconds:warmup ~next in
  let res = Loadgen.run ~socket ~conns ~seconds ~next in
  let report = stop () in
  let samples = res.Loadgen.samples in
  let count ?(among = samples) f =
    Array.fold_left (fun n x -> if f x.Loadgen.outcome then n + 1 else n) 0 among
  in
  let attempted = Array.length samples in
  let correct = count (( = ) Loadgen.Correct) in
  let warm_failed = count ~among:warm.Loadgen.samples (( <> ) Loadgen.Correct) in
  let first_failure =
    Array.find_map
      (fun x ->
        match x.Loadgen.outcome with
        | Loadgen.Correct -> None
        | Loadgen.Wrong -> Some (x.Loadgen.template ^ ": wrong answer")
        | Loadgen.Err m | Loadgen.Dropped m -> Some (x.Loadgen.template ^ ": " ^ m))
      (Array.append warm.Loadgen.samples samples)
  in
  (* A failed request misses every latency limit: it sorts last. *)
  let lat =
    Array.map
      (fun x ->
        if x.Loadgen.outcome = Loadgen.Correct then x.Loadgen.latency *. 1e3
        else infinity)
      samples
  in
  Array.sort compare lat;
  let wall = res.Loadgen.finished -. res.Loadgen.started in
  let setup_s, gen_s, store_s = setup_metrics s report in
  let pct name q =
    let v, beyond = percentile lat q in
    metric name "ms" v ~samples:attempted
      ~extra:[ ("percentile", Printf.sprintf "%g" q); ("beyond", string_of_int beyond) ]
  in
  (* Replies completed in each second of the load phase: shows drift
     within a run. *)
  let per_second =
    let w = Array.make (int_of_float (Float.ceil seconds)) 0 in
    Array.iter
      (fun x ->
        let k = int_of_float (x.Loadgen.at -. res.Loadgen.started) in
        if k < Array.length w then w.(k) <- w.(k) + 1)
      samples;
    String.concat ", " (Array.to_list (Array.map string_of_int w))
  in
  let per_template =
    let tbl = Hashtbl.create 8 in
    Array.iter
      (fun x ->
        let l = Option.value ~default:[] (Hashtbl.find_opt tbl x.Loadgen.template) in
        Hashtbl.replace tbl x.Loadgen.template ((x.Loadgen.latency *. 1e3) :: l))
      samples;
    Hashtbl.fold
      (fun t l acc ->
        Printf.sprintf "%S: {\"requests\": %d, \"p50_ms\": %.4f}" t (List.length l)
          (median l)
        :: acc)
      tbl []
    |> List.sort compare
  in
  let reps = List.length s.ready in
  let metrics =
    [
      metric "throughput_qps" "req/s" (float_of_int correct /. wall) ~samples:attempted;
      pct "latency_p50_ms" 50.0;
      pct "latency_p90_ms" 90.0;
      pct "latency_p99_ms" 99.0;
      metric "error_rate" "ratio"
        (float_of_int (attempted - correct) /. float_of_int (max 1 attempted))
        ~samples:attempted;
      metric "setup_s" "s" setup_s ~samples:reps;
      metric "server_peak_rss_mb" "MiB"
        (float_of_int report.Serve.vm_hwm_kb /. 1024.0)
        ~samples:1;
      metric "index_bytes_per_byte" "ratio" report.Serve.index_bytes_per_byte ~samples:1;
      metric "workload.gen_s" "s" gen_s ~samples:reps;
      metric "store.build_s" "s" store_s ~samples:reps;
    ]
  in
  obj
    [
      Printf.sprintf "\"attempted\": %d" attempted;
      Printf.sprintf "\"failed\": %d" (attempted - correct + warm_failed);
      Printf.sprintf "\"failures\": %s"
        (obj
           [
             Printf.sprintf "\"wrong\": %d" (count (( = ) Loadgen.Wrong));
             Printf.sprintf "\"err\": %d"
               (count (function Loadgen.Err _ -> true | _ -> false));
             Printf.sprintf "\"dropped\": %d"
               (count (function Loadgen.Dropped _ -> true | _ -> false));
             Printf.sprintf "\"warmup\": %d" warm_failed;
             Printf.sprintf "\"first\": %s"
               (match first_failure with None -> "null" | Some m -> Printf.sprintf "%S" m);
           ]);
      Printf.sprintf "\"load_wall_s\": %.6f" wall;
      Printf.sprintf "\"warmup_requests\": %d" (Array.length warm.Loadgen.samples);
      Printf.sprintf "\"oracle_s\": %.6f" oracle_s;
      Printf.sprintf "\"server_gc\": {\"minor_mb\": %.3f, \"major_collections\": %d}"
        (report.Serve.minor_words *. 8.0 /. 1e6) report.Serve.major_collections;
      Printf.sprintf "\"setup_reps\": [%s]"
        (String.concat ", "
           (List.map2
              (fun t (r : Serve.report) ->
                Printf.sprintf "{\"total_s\": %.6f, \"gen_s\": %.6f, \"store_s\": %.6f}" t
                  r.gen_s r.store_s)
              s.ready (s.stopped @ [ report ])));
      Printf.sprintf "\"per_template\": %s" (obj per_template);
      Printf.sprintf "\"per_second\": [%s]" per_second;
      Printf.sprintf "\"metrics\": %s" (obj metrics);
    ]

(* -------------------------------------------------------------- traced *)

(* Spans by layer, in pipeline order: the per-layer metric each span's
   self time is reported as.  The self times of the [request] and
   [planning] spans are the replay's own glue; [eval.prepare_ms] comes
   from the untraced pass (see [Trace]). *)
let layer_metrics =
  [
    ("sparser.parse", "sparser.parse_ms");
    ("plan_cache", "plan_cache.ms");
    ("compile", "compile.ms");
    ("optimize", "optimize.ms");
    ("limitation", "limitation.ms");
    ("product.fuse", "product.fuse_ms");
    ("factors", "factors.ms");
    ("store.probe", "store.probe_ms");
    ("eval.execute", "eval.execute_ms");
    ("run.filter", "run.filter_ms");
    ("generate", "generate.ms");
    ("eval.dedup", "eval.dedup_ms");
    ("server.serialize", "server.serialize_ms");
  ]

let ratio a b = if b = 0 then 0.0 else float_of_int a /. float_of_int b

let traced kind p ~seed ~seconds ~socket ~conns ~reps ~spans_path =
  with_server p ~seed ~socket ~workers:conns ~reps @@ fun s stop ->
  (* The in-process passes need their own copy of what the server built. *)
  let db = Spec.database p ~seed in
  let store = if p.indexed then Some (Store.create Spec.dna db) else None in
  let reqs = Spec.requests kind p (Spec.oracle db) ~seed in
  (* 1. untraced, in-process: per-request time and the counters. *)
  let u =
    Trace.in_child (fun () -> Trace.untraced_pass ?store db reqs ~budget:(0.3 *. seconds))
  in
  let n = Array.length u.Trace.times in
  (* 2. the same requests, traced. *)
  let b = Trace.in_child (fun () -> Trace.traced_pass ?store db reqs ~n ~spans_path) in
  let f = b.Trace.filter in
  (* 3. the same requests over the wire, one connection. *)
  let c = Client.connect socket in
  let pings =
    List.init 200 (fun _ ->
        let t0 = now () in
        if not (Client.ping c) then failwith "PING failed";
        now () -. t0)
  in
  let wire = ref [] and bytes = ref 0 and wrong = ref 0 in
  for i = 0 to n - 1 do
    let r = reqs.(i mod Array.length reqs) in
    let t0 = now () in
    let reply = Client.request c r.Spec.line in
    let lat = now () -. t0 in
    wire := (lat -. u.Trace.times.(i)) :: !wire;
    match reply with
    | Ok lines ->
        let payload = String.concat "" (List.map (fun l -> l ^ "\n") lines) in
        bytes := !bytes + String.length payload;
        if payload <> r.Spec.expected then incr wrong
    | Error _ -> incr wrong
  done;
  Client.close c;
  let stats = Serve.stats s.server in
  let report = stop () in
  let stat k = Option.value ~default:0 (List.assoc_opt k stats) in
  let before = u.Trace.before and after = u.Trace.after in
  let per_req x = x /. float_of_int (max 1 n) in
  let self name = Option.value ~default:0.0 (List.assoc_opt name b.Trace.self) in
  let untraced_s = Array.fold_left ( +. ) 0.0 u.Trace.times in
  (* Eval.prepare's own part: its untraced cost minus the layers the
     replay timed in its place.  With it, the self times account for
     the traced request time [request_s] exactly. *)
  let eval_self_s =
    Float.max 0.0 (Array.fold_left ( +. ) 0.0 u.Trace.prepare_s -. b.Trace.planned_s)
  in
  let glue_s = self "request" +. self "planning" in
  let request_s = b.Trace.request_s +. eval_self_s in
  let _, gen_s, store_s = setup_metrics s report in
  (* Hits over lookups between two counter snapshots. *)
  let hit_ratio (h0, m0) (h1, m1) = ratio (h1 - h0) (h1 + m1 - h0 - m0) in
  let probes =
    match (before.Trace.probes, after.Trace.probes) with
    | Some p0, Some p1 ->
        let scanned = p1.Store.scanned_rows - p0.Store.scanned_rows in
        if scanned = 0 then 1.0
        else ratio (p1.Store.candidate_rows - p0.Store.candidate_rows) scanned
    | _ -> 1.0
  in
  let m name unit v = metric name unit v ~samples:n in
  let layers =
    List.map (fun (span, name) -> m name "ms/req" (per_req (self span) *. 1e3)) layer_metrics
  in
  let shares =
    List.map
      (fun (name, v) ->
        Printf.sprintf "%S: %.6f" name (if request_s = 0.0 then 0.0 else v /. request_s))
      (List.map (fun (span, _) -> (span, self span)) layer_metrics
      @ [ ("eval.prepare", eval_self_s); ("glue", glue_s) ])
  in
  let metrics =
    layers
    @ [
        m "eval.prepare_ms" "ms/req" (per_req eval_self_s *. 1e3);
        m "trace.glue_ms" "ms/req" (per_req glue_s *. 1e3);
        m "plan_cache.hit_ratio" "ratio"
          (ratio (stat "plan_cache_hits") (stat "plan_cache_hits" + stat "plan_cache_misses"));
        m "plan_cache.evictions" "count" (float_of_int (stat "plan_cache_evictions"));
        m "compile.memo_hit_ratio" "ratio"
          (hit_ratio
             Compile.(before.Trace.compile.hits, before.Trace.compile.misses)
             Compile.(after.Trace.compile.hits, after.Trace.compile.misses));
        m "limitation.memo_hit_ratio" "ratio"
          (hit_ratio
             Limitation.(before.Trace.limitation.hits, before.Trace.limitation.misses)
             Limitation.(after.Trace.limitation.hits, after.Trace.limitation.misses));
        m "product.sync_built" "count"
          (float_of_int (after.Trace.product.Product.sync_built - before.Trace.product.Product.sync_built));
        m "product.budget_fallbacks" "count"
          (float_of_int
             (after.Trace.product.Product.budget_fallbacks
             - before.Trace.product.Product.budget_fallbacks));
        m "store.verify_ratio" "ratio" probes;
        m "run.ns_per_char" "ns/char"
          (if f.Trace.chars = 0 then 0.0
           else f.Trace.batch_s *. 1e9 /. float_of_int f.Trace.chars);
        m "run.pass_ratio" "ratio" (ratio f.Trace.rows_out f.Trace.rows_in);
        m "runtime.index_hit_ratio" "ratio"
          (hit_ratio
             Runtime.(before.Trace.runtime.hits, before.Trace.runtime.misses)
             Runtime.(after.Trace.runtime.hits, after.Trace.runtime.misses));
        m "generate.rows_out" "rows/req" (per_req (float_of_int f.Trace.generated));
        m "client.ping_rtt_ms" "ms" (median pings *. 1e3);
        m "server.wire_ms" "ms/req" (median !wire *. 1e3);
        m "server.reply_bytes" "B/req" (per_req (float_of_int !bytes));
        m "server.busy_rejected" "count" (float_of_int (stat "busy_rejected"));
        m "gc.minor_mb_per_req" "MB/req" (per_req (report.Serve.minor_words *. 8.0 /. 1e6));
        m "gc.major_collections" "count" (float_of_int report.Serve.major_collections);
        m "workload.gen_s" "s" gen_s;
        m "store.build_s" "s" store_s;
        m "store.index_bytes_per_byte" "ratio" report.Serve.index_bytes_per_byte;
        m "trace.request_ms" "ms/req" (per_req request_s *. 1e3);
        m "trace.untraced_ms" "ms/req" (per_req untraced_s *. 1e3);
        m "trace.overhead_ms" "ms/req" (per_req (request_s -. untraced_s) *. 1e3);
      ]
  in
  obj
    [
      Printf.sprintf "\"attempted\": %d" n;
      Printf.sprintf "\"failed\": %d" (b.Trace.mismatches + !wrong);
      Printf.sprintf "\"failures\": %s"
        (obj
           [
             Printf.sprintf "\"replay\": %d" b.Trace.mismatches;
             Printf.sprintf "\"wire\": %d" !wrong;
             Printf.sprintf "\"first\": %s"
               (match b.Trace.first_mismatch with None -> "null" | Some m -> Printf.sprintf "%S" m);
           ]);
      Printf.sprintf "\"self_share\": %s" (obj shares);
      Printf.sprintf "\"spans\": %S" spans_path;
      Printf.sprintf "\"metrics\": %s" (obj metrics);
    ]

(* ---------------------------------------------------------------- main *)

let () =
  let workload = ref "" and seed = ref 1 and seconds = ref 10.0 in
  let trace = ref 0 and socket = ref "" and out = ref "" and tiny = ref false in
  let spans = ref "" in
  Arg.parse
    [
      ("--workload", Arg.Set_string workload, "NAME warm-mix, adhoc-plan or scan-exec");
      ("--seed", Arg.Set_int seed, "N workload seed");
      ("--seconds", Arg.Set_float seconds, "S length of the measured phase");
      ("--trace", Arg.Set_int trace, "0|1 timed run or traced replay");
      ("--socket", Arg.Set_string socket, "PATH server socket");
      ("--out", Arg.Set_string out, "PATH result file");
      ("--spans", Arg.Set_string spans, "PATH span file of a traced run");
      ("--tiny", Arg.Set tiny, " tiny sizes (self-test)");
    ]
    (fun a -> fail "unexpected argument %s" a)
    "main.exe --workload NAME --seed N --seconds S --trace 0|1 --socket PATH --out PATH";
  refuse_engine_env ();
  let kind =
    match Spec.kind_of_string !workload with
    | Some k -> k
    | None -> fail "unknown workload %S" !workload
  in
  if !socket = "" || !out = "" then fail "--socket and --out are required";
  if !seed < 0 then fail "--seed must be non-negative";
  let scale = if !tiny then Spec.Tiny else Spec.Full in
  let p = Spec.params kind scale in
  let conns = Domain.recommended_domain_count () in
  let reps = if !tiny then 2 else 15 in
  let warmup = if !tiny then 0.2 else 1.0 in
  let body =
    match !trace with
    | 0 -> timed kind p ~seed:!seed ~seconds:!seconds ~socket:!socket ~conns ~reps ~warmup
    | _ ->
        if !spans = "" then fail "--trace 1 needs --spans";
        traced kind p ~seed:!seed ~seconds:!seconds ~socket:!socket ~conns ~reps
          ~spans_path:!spans
  in
  let header =
    [
      Printf.sprintf "\"workload\": %S" !workload;
      Printf.sprintf "\"seed\": %d" !seed;
      Printf.sprintf "\"seconds\": %g" !seconds;
      Printf.sprintf "\"trace\": %d" !trace;
      Printf.sprintf "\"scale\": %S" (if !tiny then "tiny" else "full");
      Printf.sprintf "\"connections\": %d" conns;
      Printf.sprintf "\"nproc\": %d" conns;
      Printf.sprintf "\"ocaml\": %S" Sys.ocaml_version;
      Printf.sprintf "\"plan_cache_bound\": %d" Serve.plan_cache_bound;
      Printf.sprintf "\"params\": %s" (Spec.params_json p);
    ]
  in
  let oc = open_out !out in
  output_string oc
    (obj (header @ [ String.sub body 1 (String.length body - 2) ]));
  output_char oc '\n';
  close_out oc
