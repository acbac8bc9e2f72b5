(* The factor-indexed store and its planner integration.

   Three layers under test: necessary-factor extraction from compiled
   FSAs (Factors), the q-gram inverted index itself (Store), and the
   σ-index pruning path in Eval — which must be invisible in the
   answers, visible only in the plan and the wall clock. *)
open Strdb
open Helpers

let dna = Alphabet.dna

(* "x contains <motif>" as a unidirectional one-variable formula. *)
let contains_motif motif =
  let any = "(a+c+g+t)*" in
  Regex_embed.matches "x" (Regex.parse (any ^ motif ^ any))

let compile_x phi = Compile.compile dna ~vars:[ "x" ] phi

let factor_list = function
  | Factors.Top -> None
  | Factors.Factors fs -> Some fs

let factors_tests =
  [
    tc "contains-acgta yields its interior q-grams" (fun () ->
        let fsa = compile_x (contains_motif "acgta") in
        match factor_list (Factors.necessary ~q:3 fsa) with
        | None -> Alcotest.fail "expected factors, got ⊤"
        | Some fs ->
            List.iter
              (fun g -> check_bool g true (List.mem g fs))
              [ "acg"; "cgt"; "gta" ];
            (* nothing outside the motif's own grams is necessary *)
            List.iter
              (fun g -> check_bool ("spurious " ^ g) false (List.mem g fs))
              [ "aaa"; "ttt"; "gac" ]);
    tc "is_necessary agrees with the sweep" (fun () ->
        let fsa = compile_x (contains_motif "acgta") in
        check_bool "acg" true (Factors.is_necessary ~q:3 fsa "acg");
        check_bool "aaa" false (Factors.is_necessary ~q:3 fsa "aaa");
        check_bool "wrong length" false (Factors.is_necessary ~q:3 fsa "acgt"));
    tc "a language with short strings is ⊤" (fun () ->
        (* (gc+a)* accepts λ: no 3-gram can be necessary. *)
        let fsa = compile_x (Regex_embed.matches "x" (Regex.parse "(gc+a)*")) in
        check_bool "star" true (Factors.necessary ~q:3 fsa = Factors.Top);
        (* a single literal shorter than q has no 3-grams at all *)
        let lit = compile_x (Regex_embed.matches "x" (Regex.parse "ac")) in
        check_bool "short literal" true (Factors.necessary ~q:3 lit = Factors.Top));
    tc "an exact literal is its own gram set" (fun () ->
        let fsa = compile_x (Regex_embed.matches "x" (Regex.parse "acgta")) in
        match factor_list (Factors.necessary ~q:3 fsa) with
        | None -> Alcotest.fail "expected factors"
        | Some fs -> check_string_list "grams" [ "acg"; "cgt"; "gta" ] fs);
    tc "out-of-scope automata fall back to ⊤" (fun () ->
        (* bidirectional tape: a right-moving atom *)
        let bidi =
          Compile.compile dna ~vars:[ "x" ]
            (Sformula.Concat
               (Sformula.right [ "x" ] Window.True, Sformula.left [ "x" ] Window.True))
        in
        check_bool "bidirectional" true (Factors.necessary ~q:3 bidi = Factors.Top);
        (* arity 2 *)
        let two =
          Compile.compile dna ~vars:[ "x"; "y" ] (Combinators.occurs_in "x" "y")
        in
        check_bool "arity 2" true (Factors.necessary ~q:3 two = Factors.Top);
        (* gram space too large: q beyond the budget *)
        let fsa = compile_x (contains_motif "acgta") in
        check_bool "huge q" true (Factors.necessary ~q:20 fsa = Factors.Top));
  ]

(* A hand-checkable database: which rows contain which motifs is
   decided by the independent KMP baseline. *)
let sample_rows =
  [
    "acgtacgt";  (* contains acg, cgt, gta *)
    "ttttttt";
    "aacgtaa";   (* contains acgta *)
    "gacgtag";   (* contains acgta *)
    "cccacgc";   (* contains acg *)
    "ca";        (* shorter than q *)
  ]

let sample_db = Database.of_list [ ("seq", List.map (fun s -> [ s ]) sample_rows) ]

(* Row ids are positions in [Database.find]'s canonical order, not the
   insertion order above — read the stored order back. *)
let stored_rows =
  List.map
    (function [ s ] -> s | _ -> assert false)
    (Database.find sample_db "seq")

let brute factors =
  List.mapi (fun i s -> (i, s)) stored_rows
  |> List.filter (fun (_, s) ->
         List.for_all (fun f -> Strmatch.occurs ~pattern:f s) factors)
  |> List.map fst

let store_tests =
  [
    tc "candidates ≡ brute-force containment" (fun () ->
        let st = Store.create ~q:3 dna sample_db in
        check_int "q" 3 (Store.q st);
        check_bool "indexed" true (Store.indexed st "seq");
        check_int "rows" (List.length sample_rows) (Store.row_count st "seq");
        check_bool "postings" true (Store.posting_entries st > 0);
        List.iter
          (fun fs ->
            match Store.candidates st ~rel:"seq" ~col:0 ~factors:fs with
            | None -> Alcotest.fail "expected a candidate set"
            | Some ids ->
                Alcotest.(check (list int))
                  (String.concat "," fs) (brute fs) (Array.to_list ids))
          [ [ "acg" ]; [ "acgta" ]; [ "acg"; "gta" ]; [ "ttt" ]; [ "gggg" ] ]);
    tc "probe edge cases" (fun () ->
        let st = Store.create ~q:3 dna sample_db in
        check_bool "unknown relation" true
          (Store.candidates st ~rel:"nope" ~col:0 ~factors:[ "acg" ] = None);
        check_bool "column out of range" true
          (Store.candidates st ~rel:"seq" ~col:1 ~factors:[ "acg" ] = None);
        check_bool "⊤ on empty factors" true
          (Store.candidates st ~rel:"seq" ~col:0 ~factors:[] = None);
        check_bool "⊤ on short factors" true
          (Store.candidates st ~rel:"seq" ~col:0 ~factors:[ "ac" ] = None);
        check_bool "foreign character empties" true
          (Store.candidates st ~rel:"seq" ~col:0 ~factors:[ "axg" ] = Some [||]));
    tc "candidates_atleast implements the q-gram lemma shape" (fun () ->
        let st = Store.create ~q:3 dna sample_db in
        let grams = Store.grams st "acgta" in
        check_string_list "pattern grams" [ "acg"; "cgt"; "gta" ] grams;
        (* threshold D: exactly the rows containing all three grams *)
        (match Store.candidates_atleast st ~rel:"seq" ~col:0 ~factors:grams
                 ~min_hits:3 with
        | None -> Alcotest.fail "expected a candidate set"
        | Some ids ->
            Alcotest.(check (list int))
              "all grams" (brute grams) (Array.to_list ids));
        (* threshold 1: any row containing any gram *)
        (match Store.candidates_atleast st ~rel:"seq" ~col:0 ~factors:grams
                 ~min_hits:1 with
        | None -> Alcotest.fail "expected a candidate set"
        | Some ids ->
            let want =
              List.mapi (fun i s -> (i, s)) stored_rows
              |> List.filter (fun (_, s) ->
                     List.exists (fun g -> Strmatch.occurs ~pattern:g s) grams)
              |> List.map fst
            in
            Alcotest.(check (list int)) "any gram" want (Array.to_list ids));
        check_bool "⊤ on nonpositive threshold" true
          (Store.candidates_atleast st ~rel:"seq" ~col:0 ~factors:grams
             ~min_hits:0
          = None);
        check_bool "unreachable threshold empties" true
          (Store.candidates_atleast st ~rel:"seq" ~col:0 ~factors:grams
             ~min_hits:4
          = Some [||]));
    tc "select returns tuples in id order" (fun () ->
        let st = Store.create ~q:3 dna sample_db in
        check_tuples "select"
          [ [ List.nth stored_rows 1 ]; [ List.nth stored_rows 4 ] ]
          (Store.select st ~rel:"seq" ~ids:[| 1; 4 |]));
    tc "intersect_ids" (fun () ->
        Alcotest.(check (list int))
          "overlap" [ 2; 5 ]
          (Array.to_list (Store.intersect_ids [| 0; 2; 5; 9 |] [| 2; 3; 5 |]));
        Alcotest.(check (list int))
          "disjoint" []
          (Array.to_list (Store.intersect_ids [| 1; 3 |] [| 0; 2 |])));
    tc "q is clamped into range" (fun () ->
        let st = Store.create ~q:0 dna sample_db in
        check_bool "q >= 1" true (Store.q st >= 1);
        let big = Store.create ~q:30 dna sample_db in
        check_bool "q clamped" true (Store.q big <= 11));
    tc "probe telemetry accumulates" (fun () ->
        let st = Store.create ~q:3 dna sample_db in
        Store.reset_probe_stats st;
        ignore (Store.candidates st ~rel:"seq" ~col:0 ~factors:[ "acg" ]);
        let s = Store.probe_stats st in
        check_int "probes" 1 s.Store.probes;
        check_int "scanned" (List.length sample_rows) s.Store.scanned_rows;
        check_bool "candidates counted" true (s.Store.candidate_rows > 0));
  ]

let workload_tests =
  [
    tc "planted_motif_db has exact selectivity" (fun () ->
        let n = 200 and motif = "acgta" in
        let db =
          Workload.planted_motif_db ~seed:42 ~n ~len:20 ~motif ~hit_rate:0.05
        in
        let rows = Database.find db "seq" in
        check_int "rows" n (List.length rows);
        let hits =
          List.length
            (List.filter
               (function
                 | [ s ] -> Strmatch.occurs ~pattern:motif s
                 | _ -> false)
               rows)
        in
        check_int "hits" 10 hits;
        List.iter
          (function
            | [ s ] -> check_int "length" 20 (String.length s)
            | t -> Alcotest.failf "arity %d row" (List.length t))
          rows);
    tc "planted_motif_db rejects bad parameters" (fun () ->
        let bad f = try ignore (f ()); false with Invalid_argument _ -> true in
        check_bool "rate" true
          (bad (fun () ->
               Workload.planted_motif_db ~seed:1 ~n:4 ~len:8 ~motif:"acg"
                 ~hit_rate:1.5));
        check_bool "motif" true
          (bad (fun () ->
               Workload.planted_motif_db ~seed:1 ~n:4 ~len:8 ~motif:""
                 ~hit_rate:0.5));
        check_bool "len" true
          (bad (fun () ->
               Workload.planted_motif_db ~seed:1 ~n:4 ~len:2 ~motif:"acg"
                 ~hit_rate:0.5)));
  ]

(* The planner path: same answers, different plan. *)
let eval_tests =
  let q7 =
    Formula.And
      (Formula.Rel ("seq", [ "x" ]), Formula.Str (contains_motif "acgta"))
  in
  [
    tc "index-pruned evaluation ≡ scan evaluation" (fun () ->
        let db =
          Workload.planted_motif_db ~seed:7 ~n:120 ~len:16 ~motif:"acgta"
            ~hit_rate:0.1
        in
        let st = Store.create dna db in
        let indexed = Eval.run ~store:st dna db ~free:[ "x" ] q7 in
        let plain = Eval.run dna db ~free:[ "x" ] q7 in
        check_bool "plain ok" true (Result.is_ok plain);
        check_bool "indexed = plain" true (indexed = plain);
        match plain with
        | Ok rows -> check_int "hits" 12 (List.length rows)
        | Error e -> Alcotest.fail e);
    tc "explain shows the probe and omits it without a store" (fun () ->
        let db =
          Workload.planted_motif_db ~seed:9 ~n:50 ~len:16 ~motif:"acgta"
            ~hit_rate:0.1
        in
        let st = Store.create dna db in
        let probes steps =
          List.filter (function Eval.IndexProbe _ -> true | _ -> false) steps
        in
        (match Eval.explain ~store:st dna db q7 with
        | Ok steps -> (
            match probes steps with
            | [ Eval.IndexProbe (d, v) ] ->
                check_bool "describes factors" true
                  (Strutil.is_substring "σ-index" d);
                check_bool "verify ratio" true (Strutil.is_substring "verify(" v)
            | _ -> Alcotest.fail "expected exactly one probe step")
        | Error e -> Alcotest.fail e);
        match Eval.explain dna db q7 with
        | Ok steps ->
            check_int "no probe without store" 0 (List.length (probes steps))
        | Error e -> Alcotest.fail e);
    tc "a store for a different database is ignored" (fun () ->
        let db =
          Workload.planted_motif_db ~seed:11 ~n:30 ~len:12 ~motif:"acgta"
            ~hit_rate:0.2
        in
        let other =
          Workload.planted_motif_db ~seed:12 ~n:30 ~len:12 ~motif:"acgta"
            ~hit_rate:0.2
        in
        let st = Store.create dna other in
        match Eval.explain ~store:st dna db q7 with
        | Ok steps ->
            check_int "no probe" 0
              (List.length
                 (List.filter
                    (function Eval.IndexProbe _ -> true | _ -> false)
                    steps))
        | Error e -> Alcotest.fail e);
    tc "empty relations short-circuit the filter" (fun () ->
        let db = Database.of_list [ ("seq", []) ] in
        let phi = q7 in
        match Eval.run dna db ~free:[ "x" ] phi with
        | Ok rows -> check_tuples "empty" [] rows
        | Error e -> Alcotest.fail e);
    tc "⊤-factor selections scan as before" (fun () ->
        let db =
          Workload.planted_motif_db ~seed:13 ~n:40 ~len:12 ~motif:"gca"
            ~hit_rate:0.5
        in
        let st = Store.create dna db in
        (* (gc+a)* has no necessary 3-gram: must fall back to a scan *)
        let phi =
          Formula.And
            ( Formula.Rel ("seq", [ "x" ]),
              Formula.Str (Regex_embed.matches "x" (Regex.parse "(gc+a)*")) )
        in
        let with_st = Eval.run ~store:st dna db ~free:[ "x" ] phi in
        let without = Eval.run dna db ~free:[ "x" ] phi in
        check_bool "equal" true (with_st = without);
        match Eval.explain ~store:st dna db phi with
        | Ok steps ->
            check_int "no probe" 0
              (List.length
                 (List.filter
                    (function Eval.IndexProbe _ -> true | _ -> false)
                    steps))
        | Error e -> Alcotest.fail e);
  ]

let suites =
  [
    ("store.factors", factors_tests);
    ("store.index", store_tests);
    ("store.workload", workload_tests);
    ("store.eval", eval_tests);
  ]
