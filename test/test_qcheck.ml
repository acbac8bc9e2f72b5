(* Property-based tests (qcheck, registered as alcotest cases).

   These complement the seeded exhaustive suites: QCheck shrinks
   counterexamples, so invariant violations come back minimal. *)
open Strdb

let b = Alphabet.binary

(* --- generators ----------------------------------------------------------- *)

let gen_char = QCheck.Gen.oneofl [ 'a'; 'b' ]
let gen_string = QCheck.Gen.(string_size ~gen:gen_char (int_bound 6))

let arb_string =
  QCheck.make ~print:(Printf.sprintf "%S") gen_string

let arb_string_pair =
  QCheck.make
    ~print:(fun (u, v) -> Printf.sprintf "(%S, %S)" u v)
    QCheck.Gen.(pair gen_string gen_string)

let gen_window vars =
  let open QCheck.Gen in
  sized @@ fix (fun self n ->
      let base =
        oneof
          [
            return Window.True;
            map (fun v -> Window.Is_empty v) (oneofl vars);
            map2 (fun v c -> Window.Is_char (v, c)) (oneofl vars) gen_char;
            map2 (fun v u -> Window.Eq (v, u)) (oneofl vars) (oneofl vars);
          ]
      in
      if n <= 0 then base
      else
        frequency
          [
            (3, base);
            (1, map2 (fun a b -> Window.And (a, b)) (self (n / 2)) (self (n / 2)));
            (1, map2 (fun a b -> Window.Or (a, b)) (self (n / 2)) (self (n / 2)));
            (1, map (fun a -> Window.Not a) (self (n / 2)));
          ])

let gen_sformula ?(allow_right = true) vars =
  let open QCheck.Gen in
  let subset =
    oneofl vars >>= fun v ->
    map
      (fun mask ->
        let chosen = List.filteri (fun i _ -> (mask lsr i) land 1 = 1) vars in
        if chosen = [] then [ v ] else chosen)
      (int_bound ((1 lsl List.length vars) - 1))
  in
  let atomic =
    subset >>= fun vs ->
    gen_window vars >>= fun w ->
    if allow_right then
      map (fun r -> if r then Sformula.right vs w else Sformula.left vs w) bool
    else return (Sformula.left vs w)
  in
  sized @@ fix (fun self n ->
      if n <= 0 then atomic
      else
        frequency
          [
            (3, atomic);
            (1, return Sformula.Lambda);
            (2, map2 (fun a c -> Sformula.Concat (a, c)) (self (n / 2)) (self (n / 2)));
            (2, map2 (fun a c -> Sformula.Union (a, c)) (self (n / 2)) (self (n / 2)));
            (1, map (fun a -> Sformula.Star a) (self (n / 2)));
          ])

let arb_sformula ?allow_right vars =
  QCheck.make ~print:Sformula.to_string
    (QCheck.Gen.map (fun f -> f) (gen_sformula ?allow_right vars))

(* A deterministic generator seed (QCHECK_SEED overrides).  The pipeline
   props evaluate whatever generation bound the Theorem 5.2 analysis
   certifies; a rare random formula certifies a quadratic bound whose
   Σ^≤W enumeration is astronomically large, so an unpinned seed makes
   the suite flaky-slow rather than flaky-wrong.  A pinned seed keeps
   runs reproducible; bump it deliberately to rotate the cases. *)
let seed =
  match Option.bind (Sys.getenv_opt "QCHECK_SEED") int_of_string_opt with
  | Some s -> s
  | None -> 1729

let prop ?(count = 100) name arb f =
  QCheck_alcotest.to_alcotest
    ~rand:(Random.State.make [| seed; Hashtbl.hash name |])
    (QCheck.Test.make ~count ~name arb f)

(* --- properties ------------------------------------------------------------ *)

let compile_props =
  [
    prop ~count:80 "Theorem 3.1: compiled FSA ≡ naive semantics"
      (QCheck.pair (arb_sformula [ "x"; "y" ]) arb_string_pair)
      (fun (phi, (u, v)) ->
        let fsa = Compile.compile b ~vars:[ "x"; "y" ] phi in
        Run.accepts fsa [ u; v ] = Naive.holds phi [ ("x", u); ("y", v) ]);
    prop ~count:80 "compiled FSAs are in normal form"
      (arb_sformula [ "x"; "y" ])
      (fun phi ->
        Limitation.normal_form_errors (Compile.compile b ~vars:[ "x"; "y" ] phi) = []);
    prop ~count:80 "property 1: tape directions mirror variable directions"
      (arb_sformula [ "x"; "y" ])
      (fun phi ->
        let fsa = Compile.compile b ~vars:[ "x"; "y" ] phi in
        let bidi = Sformula.bidirectional_vars phi in
        List.for_all
          (fun (i, v) ->
            (not (Fsa.tape_bidirectional fsa i)) || List.mem v bidi)
          [ (0, "x"); (1, "y") ]);
    prop ~count:60 "star semantics: φ* accepts iff some finite power does"
      (QCheck.pair (arb_sformula ~allow_right:false [ "x" ]) arb_string)
      (fun (phi, u) ->
        let star = Compile.compile b ~vars:[ "x" ] (Sformula.Star phi) in
        let accepted = Run.accepts star [ u ] in
        let power_hits =
          List.exists
            (fun k ->
              Run.accepts (Compile.compile b ~vars:[ "x" ] (Sformula.power phi k)) [ u ])
            [ 0; 1; 2; 3 ]
        in
        (* powers up to 3 are a semidecision: they may miss, never lie *)
        (not power_hits) || accepted);
  ]

let run_props =
  [
    prop ~count:80 "BFS and DFS acceptance agree"
      (QCheck.pair (arb_sformula [ "x"; "y" ]) arb_string_pair)
      (fun (phi, (u, v)) ->
        let fsa = Compile.compile b ~vars:[ "x"; "y" ] phi in
        Run.accepts fsa [ u; v ] = Run.accepts_dfs fsa [ u; v ]);
    prop ~count:60 "Lemma 3.1: specialisation preserves sections"
      (QCheck.pair (arb_sformula [ "x"; "y" ]) arb_string_pair)
      (fun (phi, (u, v)) ->
        let fsa = Compile.compile b ~vars:[ "x"; "y" ] phi in
        let spec = Specialize.specialize fsa [ u ] in
        Run.accepts spec [ v ] = Run.accepts fsa [ u; v ]);
  ]

let runtime_props =
  [
    prop ~count:100 "runtime accepts ≡ naive accepts"
      (QCheck.pair (arb_sformula [ "x"; "y" ]) arb_string_pair)
      (fun (phi, (u, v)) ->
        let fsa = Compile.compile b ~vars:[ "x"; "y" ] phi in
        Run.accepts fsa [ u; v ] = Run.accepts_naive fsa [ u; v ]);
    prop ~count:60 "runtime enumerator ≡ naive enumerator"
      (arb_sformula [ "x"; "y" ])
      (fun phi ->
        let fsa = Compile.compile b ~vars:[ "x"; "y" ] phi in
        Generate.accepted_fast fsa ~max_len:2 = Generate.accepted_naive fsa ~max_len:2);
  ]

(* The engine-free differential property: the query pipeline against the
   paper's semantics.  A random conjunctive query — 1 to 3 string
   conjuncts and an optional negated one over pair(u,v) or r(x),
   optionally projecting v away — must give one answer without a store,
   with a store and on two domains, and that answer must be the
   relation's tuples filtered by Naive.holds, projected and sorted. *)
let differential_db =
  let g = Prng.create 4242 in
  let s () = Prng.string_upto g b 5 in
  Database.of_list
    [
      ("pair", List.init 10 (fun _ -> [ s (); s () ]));
      ("r", List.init 16 (fun _ -> [ s () ]));
    ]

let differential_store = Store.create b differential_db

let arb_query =
  let open QCheck.Gen in
  let gen =
    bool >>= fun on_pair ->
    let vars = if on_pair then [ "u"; "v" ] else [ "x" ] in
    int_range 1 3 >>= fun n ->
    list_repeat n (gen_sformula vars) >>= fun strs ->
    opt (gen_sformula vars) >>= fun neg ->
    map (fun project -> (on_pair, strs, neg, on_pair && project)) bool
  in
  QCheck.make
    ~print:(fun (on_pair, strs, neg, project) ->
      Printf.sprintf "%s%s ∧ %s%s"
        (if project then "∃v. " else "")
        (if on_pair then "pair(u,v)" else "r(x)")
        (String.concat " ∧ " (List.map Sformula.to_string strs))
        (match neg with None -> "" | Some s -> " ∧ ¬" ^ Sformula.to_string s))
    gen

let differential_props =
  [
    prop ~count:60 "Query pipeline agrees with Naive: no store ≡ store ≡ 2 domains"
      arb_query
      (fun (on_pair, strs, neg, project) ->
        let rel, vars = if on_pair then ("pair", [ "u"; "v" ]) else ("r", [ "x" ]) in
        let body =
          Formula.and_list
            ((Formula.Rel (rel, vars) :: List.map (fun s -> Formula.Str s) strs)
            @ Option.to_list (Option.map (fun s -> Formula.Not (Formula.Str s)) neg))
        in
        let phi, free =
          if project then (Formula.Exists ("v", body), [ "u" ]) else (body, vars)
        in
        let holds s tup = Naive.holds s (List.combine vars tup) in
        let oracle =
          Database.find differential_db rel
          |> List.filter (fun tup ->
                 List.for_all (fun s -> holds s tup) strs
                 && not (Option.fold ~none:false ~some:(fun s -> holds s tup) neg))
          |> List.map (fun tup -> if project then [ List.hd tup ] else tup)
          |> List.sort_uniq compare
        in
        let db = differential_db in
        let plain = Eval.run ~domains:1 b db ~free phi in
        plain = Ok oracle
        && Eval.run ~domains:1 ~store:differential_store b db ~free phi = plain
        && Eval.run ~domains:2 b db ~free phi = plain);
  ]

let parallel_props =
  [
    prop ~count:40 "parallel evaluation ≡ sequential evaluation"
      (arb_sformula [ "u"; "v" ])
      (fun s ->
        (* Both variables are bound by the join, so the Str conjunct runs
           as a batch σ_A filter — the path ~domains parallelises.  (A
           free variable would take the generator path, where a rare
           random formula certifies an astronomically large enumeration
           bound; the generator pipeline is covered deterministically in
           eval/queries tests and by the STRDB_DOMAINS=4 CI battery.) *)
        let db = Workload.pair_db b ~seed:13 ~name:"pair" ~n:5 ~len:2 in
        let phi = Formula.And (Formula.Rel ("pair", [ "u"; "v" ]), Formula.Str s) in
        let free = Formula.free_vars phi in
        Eval.run ~domains:1 b db ~free phi = Eval.run ~domains:4 b db ~free phi);
    prop ~count:20 "parallel batch acceptance ≡ per-tuple acceptance"
      (QCheck.pair (arb_sformula [ "x"; "y" ]) (QCheck.list_of_size (QCheck.Gen.int_bound 12) arb_string_pair))
      (fun (phi, pairs) ->
        let fsa = Compile.compile b ~vars:[ "x"; "y" ] phi in
        let tuples = List.map (fun (u, v) -> [ u; v ]) pairs in
        Array.to_list (Run.accepts_batch ~pool:(Pool.get 4) fsa tuples)
        = List.map (Run.accepts fsa) tuples);
  ]

let baseline_props =
  [
    prop "edit distance is a metric (symmetry)" arb_string_pair (fun (u, v) ->
        Edit_distance.distance u v = Edit_distance.distance v u);
    prop "edit distance triangle inequality"
      (QCheck.pair arb_string_pair arb_string)
      (fun ((u, v), w) ->
        Edit_distance.distance u v
        <= Edit_distance.distance u w + Edit_distance.distance w v);
    prop "edit distance bounded by length difference below"
      arb_string_pair
      (fun (u, v) ->
        Edit_distance.distance u v >= abs (String.length u - String.length v));
    prop "KMP finds what naive search finds" arb_string_pair (fun (p, t) ->
        Strmatch.kmp_find ~pattern:p t = Strmatch.naive_find ~pattern:p t);
    prop "shuffle DP agrees with direct enumeration"
      (QCheck.pair arb_string_pair arb_string)
      (fun ((u, v), w) ->
        Strutil.is_shuffle w u v = List.mem w (Strutil.shuffles u v));
  ]

let alignment_props =
  [
    prop "left then right transpose is the identity away from the ends"
      arb_string
      (fun w ->
        QCheck.assume (w <> "");
        let a = Alignment.initial [ ("x", w) ] in
        let l = { Sformula.tvars = [ "x" ]; dir = Sformula.Left } in
        let r = { Sformula.tvars = [ "x" ]; dir = Sformula.Right } in
        let a' = Alignment.transpose (Alignment.transpose a l) r in
        Alignment.equal a a');
    prop "window is always the symbol at the offset" arb_string (fun w ->
        let a = Alignment.initial [ ("x", w) ] in
        let row = Alignment.row a "x" in
        Symbol.equal (Alignment.window a "x")
          (Symbol.of_tape row.Alignment.content row.Alignment.offset));
    prop ~count:60 "naive semantics is invariant under binding order"
      (QCheck.pair (arb_sformula [ "x"; "y" ]) arb_string_pair)
      (fun (phi, (u, v)) ->
        Naive.holds phi [ ("x", u); ("y", v) ]
        = Naive.holds phi [ ("y", v); ("x", u) ]);
  ]

let truncation_props =
  [
    prop ~count:40 "pure-formula answers are monotone in the cutoff"
      (arb_sformula ~allow_right:false [ "x" ])
      (fun phi ->
        let tuples l = Naive.tuples b ~vars:[ "x" ] ~max_len:l phi in
        let t1 = tuples 1 and t2 = tuples 2 in
        List.for_all (fun t -> List.mem t t2) t1);
    prop ~count:40 "generator output equals filtered enumeration"
      (arb_sformula [ "x" ])
      (fun phi ->
        let fsa = Compile.compile b ~vars:[ "x" ] phi in
        let gen = Generate.accepted fsa ~max_len:2 in
        let brute =
          List.filter
            (fun w -> Run.accepts fsa [ w ])
            (Strutil.all_strings_upto b 2)
          |> List.map (fun w -> [ w ])
          |> List.sort compare
        in
        gen = brute);
  ]

let store_props =
  (* One fixed binary-alphabet relation (lengths 0–6, so some rows have
     q-grams and some don't) probed by random unidirectional one-variable
     patterns: the σ-index pruned pipeline must agree with the plain
     scan pipeline. *)
  let db =
    let g = Prng.create 1729 in
    Database.of_list
      [ ("r", List.init 24 (fun _ -> [ Prng.string_upto g b 6 ])) ]
  in
  let st = Store.create b db in
  [
    prop ~count:60 "σ-index pruned filter ≡ full scan"
      (arb_sformula ~allow_right:false [ "x" ])
      (fun s ->
        let phi = Formula.And (Formula.Rel ("r", [ "x" ]), Formula.Str s) in
        let free = [ "x" ] in
        Eval.run ~store:st b db ~free phi = Eval.run b db ~free phi);
  ]

let parser_props =
  [
    prop ~count:80 "printer/parser round trip preserves semantics"
      (QCheck.pair (arb_sformula [ "x"; "y" ]) arb_string_pair)
      (fun (phi, (u, v)) ->
        let phi' = Sparser.sformula_roundtrip phi in
        Naive.holds phi [ ("x", u); ("y", v) ]
        = Naive.holds phi' [ ("x", u); ("y", v) ]);
  ]

let suites =
  [
    ("qcheck.compile", compile_props);
    ("qcheck.run", run_props);
    ("qcheck.runtime", runtime_props @ differential_props);
    ("qcheck.parallel", parallel_props);
    ("qcheck.baselines", baseline_props);
    ("qcheck.alignment", alignment_props);
    ("qcheck.truncation", truncation_props);
    ("qcheck.store", store_props);
    ("qcheck.parser", parser_props);
  ]
