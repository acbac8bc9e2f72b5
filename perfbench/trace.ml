(* The traced replay: the request stream of a workload, served in-process
   by calling each layer's public functions from here, with a span
   around every call.

   Planning replays what [Eval.prepare] does per conjunct — compile,
   optimize, necessary factors and index probes, fusion of the bound
   filters in cost order, generator certification and selection
   pushdown — inside a [planning] span, and then calls [Eval.prepare]
   itself, untimed, for the plan: that call repeats the unmemoized
   factor analysis and store probe, so no span may cover it.  Eval's own
   share of preparing is taken from the untraced pass instead, which
   times every [Eval.prepare] call: its cost there minus the replayed
   layers' spans.  Execution replays the plan's public steps with
   [Run.accepts_batch], [Generate.outputs] and [Eval.dedup_rows], and
   its answers are checked against [Eval.execute] and the oracle outside
   the request span.

   Counters (memo hits, probe sizes) are read from an untraced pass over
   the same requests, so the replay's extra calls do not inflate them. *)

open Strdb
module S = Sformula
module F = Formula

let clock = Loadgen.now

(* ------------------------------------------------------------- spans *)

type span = {
  id : int;
  parent : int;  (** -1 for a request's root span. *)
  req : int;
  name : string;
  t0 : float;
  t1 : float;
  hidden : float;  (** time within the span spent in [untimed] calls. *)
}

let duration s = s.t1 -. s.t0 -. s.hidden

type recorder = {
  mutable spans : span list;
  mutable next : int;
  mutable current : int;
  mutable req : int;
  mutable untimed_s : float;  (** [untimed] time so far. *)
}

let rec_ = { spans = []; next = 0; current = -1; req = -1; untimed_s = 0.0 }

let span name f =
  let id = rec_.next in
  rec_.next <- id + 1;
  let parent = rec_.current in
  rec_.current <- id;
  let u0 = rec_.untimed_s in
  let t0 = clock () in
  let x = f () in
  let t1 = clock () in
  rec_.current <- parent;
  rec_.spans <-
    { id; parent; req = rec_.req; name; t0; t1; hidden = rec_.untimed_s -. u0 }
    :: rec_.spans;
  x

(* Run [f] out of the books: no enclosing span counts its time. *)
let untimed f =
  let t0 = clock () in
  let x = f () in
  rec_.untimed_s <- rec_.untimed_s +. (clock () -. t0);
  x

(* Filter work, for ns/char and the pass ratio. *)
type filter_counts = {
  mutable rows_in : int;
  mutable rows_out : int;
  mutable chars : int;
  mutable batch_s : float;  (** time inside [Run.accepts_batch]. *)
  mutable generated : int;
}

let fc = { rows_in = 0; rows_out = 0; chars = 0; batch_s = 0.0; generated = 0 }

(* ---------------------------------------------------------- planning *)

let conjuncts phi =
  let rec strip = function F.Exists (_, a) -> strip a | b -> b in
  let rec split = function F.And (a, b) -> split a @ split b | c -> [ c ] in
  split (strip phi)

(* Eval's cheap-first conjunct order. *)
let cost fsa =
  let o = Optimize.optimized fsa in
  (Optimize.shape_rank (Optimize.shape_of o), o.Fsa.num_states, Fsa.size o)

let by_cost l = List.stable_sort (fun (_, a) (_, b) -> compare a b) l

let compile sigma vars s =
  let fsa = span "compile" (fun () -> Compile.compile sigma ~vars s) in
  let c = span "optimize" (fun () -> cost fsa) in
  (fsa, c)

let replay_planning ?store sigma db phi =
  let cs = conjuncts phi in
  let rels = List.filter_map (function F.Rel (r, a) -> Some (r, a) | _ -> None) cs in
  let strs = List.filter_map (function F.Str s -> Some s | _ -> None) cs in
  (* σ-index probes: the necessary factors of each one-variable
     conjunct over a column of a store-backed relation, then the
     intersected posting lists.  Both spans are recorded even when no
     store applies, so they measure the decision as well as the work. *)
  List.iter
    (fun (r, args) ->
      let st =
        match store with
        | Some st when Store.database st == db && Store.indexed st r -> Some st
        | _ -> None
      in
      let probes =
        span "factors" (fun () ->
            match st with
            | None -> []
            | Some st ->
                List.concat
                  (List.mapi
                     (fun j v ->
                       List.filter_map
                         (fun s ->
                           if S.vars s <> [ v ] then None
                           else
                             let fsa, _ = compile sigma [ v ] s in
                             match Factors.necessary ~q:(Store.q st) (Optimize.optimized fsa) with
                             | Factors.Top -> None
                             | Factors.Factors fs -> Some (j, fs))
                         strs)
                     args))
      in
      span "store.probe" (fun () ->
          match st with
          | None -> ()
          | Some st ->
              List.fold_left
                (fun acc (j, fs) ->
                  match Store.candidates st ~rel:r ~col:j ~factors:fs with
                  | None -> acc
                  | Some ids ->
                      Some (match acc with None -> ids | Some p -> Store.intersect_ids p ids))
                None probes
              |> Option.iter (fun ids -> ignore (Store.select st ~rel:r ~ids))))
    rels;
  let bound = List.concat_map snd rels in
  let is_bound v = List.mem v bound in
  let filters, gens = List.partition (fun s -> List.for_all is_bound (S.vars s)) strs in
  (* Fusion of the bound filters, greedily in cost order. *)
  let compiled =
    by_cost (List.map (fun s -> let fsa, c = compile sigma (S.vars s) s in ((fsa, S.vars s), c)) filters)
  in
  ignore
    (List.fold_left
       (fun acc (f, _) ->
         match acc with
         | None -> Some f
         | Some p -> (
             match span "product.fuse" (fun () -> Product.fuse p f) with
             | Some p' -> Some p'
             | None -> Some f))
       None compiled);
  (* Generators: certify cheapest-first, then push the remaining
     conjuncts over the generated frame into it. *)
  let order s =
    List.filter is_bound (S.vars s) @ List.filter (fun v -> not (is_bound v)) (S.vars s)
  in
  let cands =
    by_cost (List.map (fun s -> let fsa, c = compile sigma (order s) s in ((s, fsa), c)) gens)
  in
  let rec certify = function
    | [] -> ()
    | ((s, fsa), _) :: rest -> (
        let known = List.filter is_bound (S.vars s) in
        let k = List.length known and n = List.length (S.vars s) in
        let inputs = List.init k Fun.id and outputs = List.init (n - k) (fun i -> k + i) in
        match span "limitation" (fun () -> Limitation.analyze fsa ~inputs ~outputs) with
        | Ok (Limitation.Limited _) ->
            let frame = order s in
            ignore
              (List.fold_left
                 (fun acc s' ->
                   if s' == s || not (List.for_all (fun v -> List.mem v frame) (S.vars s'))
                   then acc
                   else
                     let fb, _ = compile sigma (S.vars s') s' in
                     match span "product.fuse" (fun () -> Product.fuse acc (fb, S.vars s')) with
                     | Some (p, f) when f = frame -> (p, f)
                     | _ -> acc)
                 (fsa, frame)
                 (List.map (fun ((s', _), _) -> s') cands))
        | _ -> certify rest)
  in
  certify cands

(* --------------------------------------------------------- execution *)

type table = { cols : string list; rows : string array list }

let index t v =
  let rec go i = function
    | [] -> invalid_arg ("unbound " ^ v)
    | c :: _ when c = v -> i
    | _ :: r -> go (i + 1) r
  in
  go 0 t.cols

(* Hash join on the already-bound argument columns. *)
let join db t rel args tuples =
  let tuples = match tuples with Some l -> l | None -> Database.find db rel in
  let args = Array.of_list args in
  let first v =
    let rec go j = if args.(j) = v then j else go (j + 1) in
    go 0
  in
  let distinct = List.filteri (fun j v -> first v = j) (Array.to_list args) in
  let bound = List.filter (fun v -> List.mem v t.cols) distinct in
  let fresh = List.sort_uniq compare (List.filter (fun v -> not (List.mem v t.cols)) distinct) in
  let tbl = Hashtbl.create 64 in
  List.iter
    (fun tup ->
      let tup = Array.of_list tup in
      if Array.for_all2 (fun v x -> tup.(first v) = x) args tup then
        Hashtbl.add tbl
          (List.map (fun v -> tup.(first v)) bound)
          (Array.of_list (List.map (fun v -> tup.(first v)) fresh)))
    tuples;
  let bidx = List.map (index t) bound in
  let rows =
    List.concat_map
      (fun row ->
        List.rev_map (Array.append row)
          (Hashtbl.find_all tbl (List.map (fun i -> row.(i)) bidx)))
      t.rows
  in
  { cols = t.cols @ fresh; rows = span "eval.dedup" (fun () -> Eval.dedup_rows rows) }

let rec holds (p : Plan.t) t row = function
  | F.Str s -> p.Plan.checker s (List.map (fun v -> (v, row.(index t v))) (S.vars s))
  | F.Rel (r, args) -> Database.mem p.Plan.db r (List.map (fun v -> row.(index t v)) args)
  | F.And (a, b) -> holds p t row a && holds p t row b
  | F.Not a -> not (holds p t row a)
  | F.Exists _ -> invalid_arg "quantifier in a negated conjunct"

let replay_execute (p : Plan.t) =
  let t =
    List.fold_left
      (fun t step ->
        match step with
        | Plan.Join { rel; args; tuples } -> join p.Plan.db t rel args tuples
        | Plan.FilterFsa { fsa; frame = [] } ->
            if span "run.filter" (fun () -> Run.accepts fsa []) then t
            else { t with rows = [] }
        | Plan.FilterFsa { fsa; frame } ->
            let idx = List.map (index t) frame in
            let tuples = List.map (fun row -> List.map (fun i -> row.(i)) idx) t.rows in
            let t0 = clock () in
            let keep = span "run.filter" (fun () -> Run.accepts_batch fsa tuples) in
            fc.batch_s <- fc.batch_s +. (clock () -. t0);
            List.iter (List.iter (fun s -> fc.chars <- fc.chars + String.length s)) tuples;
            let rows = List.filteri (fun i _ -> keep.(i)) t.rows in
            fc.rows_in <- fc.rows_in + List.length t.rows;
            fc.rows_out <- fc.rows_out + List.length rows;
            { t with rows }
        | Plan.Gen { fsa; known; unknown; bound } ->
            let idx = List.map (index t) known in
            let rows =
              span "generate" (fun () ->
                  List.concat_map
                    (fun row ->
                      let inputs = List.map (fun i -> row.(i)) idx in
                      let max_len = bound.Limitation.eval (List.map String.length inputs) in
                      List.map
                        (fun out -> Array.append row (Array.of_list out))
                        (Generate.outputs fsa ~inputs ~max_len))
                    t.rows)
            in
            fc.generated <- fc.generated + List.length rows;
            { cols = t.cols @ unknown; rows = span "eval.dedup" (fun () -> Eval.dedup_rows rows) }
        | Plan.NegFilter c ->
            let rows = span "run.filter" (fun () -> List.filter (fun row -> holds p t row c) t.rows) in
            fc.rows_in <- fc.rows_in + List.length t.rows;
            fc.rows_out <- fc.rows_out + List.length rows;
            { t with rows })
      { cols = []; rows = [ [||] ] }
      p.Plan.steps
  in
  let idx = List.map (index t) p.Plan.free in
  List.sort_uniq compare (List.map (fun row -> List.map (fun i -> row.(i)) idx) t.rows)

(* ------------------------------------------------------------ passes *)

let text (r : Spec.request) = String.sub r.line 6 (String.length r.line - 6)

let rows_or_fail = function Ok x -> x | Error e -> failwith e

(* What a server session does for one QUERY, minus the socket — the
   steps of [Plan_cache.prepare], spelled out to time [Eval.prepare].
   Returns the seconds spent in [Eval.prepare]. *)
let serve_untraced ?store cache db (r : Spec.request) =
  let phi = Sparser.formula (text r) in
  let free = F.free_vars phi in
  let key = Plan_cache.key ~sigma:Spec.dna ?store ~free phi in
  let plan, prepare_s =
    match Plan_cache.find cache key with
    | Some p -> (p, 0.0)
    | None ->
        let t0 = clock () in
        let p = rows_or_fail (Eval.prepare ?store Spec.dna db ~free phi) in
        let dt = clock () -. t0 in
        Plan_cache.add cache key p;
        (p, dt)
  in
  ignore (List.map (String.concat "\t") (rows_or_fail (Eval.execute plan)));
  prepare_s

let serve_traced ?store cache db (r : Spec.request) =
  span "request" (fun () ->
      let phi = span "sparser.parse" (fun () -> Sparser.formula (text r)) in
      let free = F.free_vars phi in
      let key, hit =
        span "plan_cache" (fun () ->
            let key = Plan_cache.key ~sigma:Spec.dna ?store ~free phi in
            (key, Plan_cache.find cache key))
      in
      let plan =
        match hit with
        | Some p -> p
        | None ->
            let p =
              span "planning" (fun () ->
                  replay_planning ?store Spec.dna db phi;
                  untimed (fun () -> rows_or_fail (Eval.prepare ?store Spec.dna db ~free phi)))
            in
            span "plan_cache" (fun () -> Plan_cache.add cache key p);
            p
      in
      let rows = span "eval.execute" (fun () -> replay_execute plan) in
      ignore (span "server.serialize" (fun () -> List.map (String.concat "\t") rows));
      (plan, rows))

type counters = {
  compile : Compile.stats;
  runtime : Runtime.stats;
  product : Product.stats;
  limitation : Limitation.cache_stats;
  probes : Store.probe_stats option;
}

let counters store =
  {
    compile = Compile.stats ();
    runtime = Runtime.stats ();
    product = Product.stats ();
    limitation = Limitation.cache_stats ();
    probes = Option.map Store.probe_stats store;
  }

type untraced = {
  times : float array;  (** seconds per request. *)
  prepare_s : float array;  (** of which in [Eval.prepare]. *)
  before : counters;
  after : counters;
}

(* Serve requests in order until [budget] seconds have passed. *)
let untraced_pass ?store db (reqs : Spec.request array) ~budget =
  let cache = Plan_cache.create ~bound:Serve.plan_cache_bound () in
  let before = counters store in
  let times = ref [] and prepare_s = ref [] in
  let start = clock () in
  let i = ref 0 in
  while clock () -. start < budget do
    let t0 = clock () in
    prepare_s := serve_untraced ?store cache db reqs.(!i mod Array.length reqs) :: !prepare_s;
    times := (clock () -. t0) :: !times;
    incr i
  done;
  {
    times = Array.of_list (List.rev !times);
    prepare_s = Array.of_list (List.rev !prepare_s);
    before;
    after = counters store;
  }

(* Self time per span name, summed: a span's duration minus what its
   children cover. *)
let self_times spans =
  let child = Hashtbl.create 1024 and self = Hashtbl.create 32 in
  let add tbl k v =
    Hashtbl.replace tbl k (v +. Option.value ~default:0.0 (Hashtbl.find_opt tbl k))
  in
  List.iter (fun (s : span) -> if s.parent >= 0 then add child s.parent (duration s)) spans;
  List.iter
    (fun (s : span) ->
      add self s.name (duration s -. Option.value ~default:0.0 (Hashtbl.find_opt child s.id)))
    spans;
  List.of_seq (Hashtbl.to_seq self)

let write_spans path spans =
  let oc = open_out path in
  List.iter
    (fun (s : span) ->
      Printf.fprintf oc
        "{\"req\": %d, \"id\": %d, \"parent\": %d, \"name\": %S, \"start_us\": %.3f, \"end_us\": %.3f, \"untimed_us\": %.3f}\n"
        s.req s.id s.parent s.name (s.t0 *. 1e6) (s.t1 *. 1e6) (s.hidden *. 1e6))
    spans;
  close_out oc

type summary = {
  self : (string * float) list;  (** seconds per span name, summed. *)
  request_s : float;  (** the request spans' durations, summed. *)
  planned_s : float;
      (** the durations of the layer spans under [planning], summed: the
          replayed share of [Eval.prepare]. *)
  mismatches : int;  (** replay <> [Eval.execute], or <> the oracle. *)
  first_mismatch : string option;
  filter : filter_counts;
}

(* Serve the first [n] requests traced, write the spans to [spans_path]
   and summarize them. *)
let traced_pass ?store db (reqs : Spec.request array) ~n ~spans_path =
  let cache = Plan_cache.create ~bound:Serve.plan_cache_bound () in
  let mismatches = ref 0 and first = ref None in
  for i = 0 to n - 1 do
    let r = reqs.(i mod Array.length reqs) in
    rec_.req <- i;
    let plan, rows = serve_traced ?store cache db r in
    let problem =
      if rows_or_fail (Eval.execute plan) <> rows then Some "replay differs from Eval.execute"
      else if Spec.payload rows <> r.Spec.expected then Some "replay differs from the oracle"
      else None
    in
    Option.iter
      (fun m ->
        incr mismatches;
        if !first = None then first := Some (r.Spec.template ^ ": " ^ m))
      problem
  done;
  let spans = List.rev rec_.spans in
  write_spans spans_path spans;
  {
    self = self_times spans;
    request_s =
      List.fold_left
        (fun acc (s : span) -> if s.name = "request" then acc +. duration s else acc)
        0.0 spans;
    planned_s =
      (let planning = Hashtbl.create 1024 in
       List.iter (fun (s : span) -> if s.name = "planning" then Hashtbl.replace planning s.id ()) spans;
       List.fold_left
         (fun acc (s : span) -> if Hashtbl.mem planning s.parent then acc +. duration s else acc)
         0.0 spans);
    mismatches = !mismatches;
    first_mismatch = !first;
    filter = fc;
  }

(* Run [f] in a forked child and return its result, so each pass starts
   from the same cold engine caches. *)
let in_child f =
  flush_all ();
  let rd, wr = Unix.pipe ~cloexec:true () in
  match Unix.fork () with
  | 0 ->
      Unix.close rd;
      let code =
        match f () with
        | v ->
            let oc = Unix.out_channel_of_descr wr in
            Marshal.to_channel oc (Ok v) [];
            close_out oc;
            0
        | exception e ->
            let oc = Unix.out_channel_of_descr wr in
            Marshal.to_channel oc (Error (Printexc.to_string e)) [];
            close_out oc;
            1
      in
      Unix._exit code
  | pid -> (
      Unix.close wr;
      let ic = Unix.in_channel_of_descr rd in
      let r = try Marshal.from_channel ic with End_of_file -> Error "child died" in
      close_in ic;
      ignore (Unix.waitpid [] pid);
      match r with Ok v -> v | Error e -> failwith ("traced pass: " ^ e))
