open Strdb
open Helpers

let alphabet_tests =
  [
    tc "make rejects singleton" (fun () ->
        check_bool "raises" true
          (try
             ignore (Alphabet.make [ 'a' ]);
             false
           with Alphabet.Invalid_alphabet _ -> true));
    tc "make rejects duplicates" (fun () ->
        check_bool "raises" true
          (try
             ignore (Alphabet.make [ 'a'; 'b'; 'a' ]);
             false
           with Alphabet.Invalid_alphabet _ -> true));
    tc "rank and nth are inverse" (fun () ->
        let s = Alphabet.dna in
        List.iteri
          (fun i c ->
            check_int "rank" i (Alphabet.rank s c);
            check_bool "nth" true (Alphabet.nth s i = c))
          (Alphabet.chars s));
    tc "mem" (fun () ->
        check_bool "a in dna" true (Alphabet.mem Alphabet.dna 'a');
        check_bool "z not in dna" false (Alphabet.mem Alphabet.dna 'z'));
    tc "subset" (fun () ->
        check_bool "binary in dna? no (b not in dna)" false
          (Alphabet.subset Alphabet.binary Alphabet.dna);
        check_bool "reflexive" true (Alphabet.subset Alphabet.dna Alphabet.dna));
    tc "check_string" (fun () ->
        Alphabet.check_string Alphabet.dna "acgt";
        check_bool "contains" false (Alphabet.contains_string Alphabet.dna "acgx"));
    tc "of_string ordering" (fun () ->
        check_string "chars" "tgca"
          (Strutil.implode (Alphabet.chars (Alphabet.of_string "tgca"))));
  ]

let strutil_tests =
  [
    tc "explode/implode inverse" (fun () ->
        check_string "round" "hello" (Strutil.implode (Strutil.explode "hello")));
    tc "all_strings counts" (fun () ->
        check_int "len 3 over binary" 8
          (List.length (Strutil.all_strings Alphabet.binary 3));
        check_int "upto 3 over binary" 15
          (List.length (Strutil.all_strings_upto Alphabet.binary 3)));
    tc "all_strings distinct" (fun () ->
        let l = Strutil.all_strings_upto Alphabet.abc 3 in
        check_int "distinct" (List.length l) (List.length (List.sort_uniq compare l)));
    tc "prefix/suffix/substring" (fun () ->
        check_bool "prefix" true (Strutil.is_prefix "ab" "abc");
        check_bool "not prefix" false (Strutil.is_prefix "b" "abc");
        check_bool "empty prefix" true (Strutil.is_prefix "" "abc");
        check_bool "suffix" true (Strutil.is_suffix "bc" "abc");
        check_bool "substring" true (Strutil.is_substring "bc" "abcd");
        check_bool "empty substring" true (Strutil.is_substring "" "");
        check_bool "not substring" false (Strutil.is_substring "ca" "abc"));
    tc "subsequence" (fun () ->
        check_bool "ace in abcde" true (Strutil.is_subsequence "ace" "abcde");
        check_bool "cba not" false (Strutil.is_subsequence "cba" "abc"));
    tc "repeat and manifold" (fun () ->
        check_string "repeat" "ababab" (Strutil.repeat "ab" 3);
        check_bool "manifold" true (Strutil.is_manifold "ababab" "ab");
        check_bool "not manifold" false (Strutil.is_manifold "ababa" "ab");
        check_bool "epsilon of epsilon" true (Strutil.is_manifold "" "");
        check_bool "epsilon of a: k>=1 required" false (Strutil.is_manifold "" "a");
        check_bool "nonempty of epsilon" false (Strutil.is_manifold "a" ""));
    tc "reverse" (fun () -> check_string "rev" "cba" (Strutil.reverse "abc"));
    tc "count_char" (fun () -> check_int "a's" 3 (Strutil.count_char 'a' "abaca"));
    tc "shuffles vs is_shuffle" (fun () ->
        let u = "ab" and v = "ca" in
        let all = Strutil.shuffles u v in
        List.iter (fun w -> check_bool w true (Strutil.is_shuffle w u v)) all;
        check_bool "wrong length" false (Strutil.is_shuffle "abc" u v);
        check_bool "wrong content" false (Strutil.is_shuffle "abab" u v));
    tc "is_shuffle exhaustive vs enumeration" (fun () ->
        let words = Strutil.all_strings_upto Alphabet.binary 2 in
        List.iter
          (fun u ->
            List.iter
              (fun v ->
                let all = Strutil.shuffles u v in
                List.iter
                  (fun w ->
                    check_bool
                      (Printf.sprintf "%s in shuffle(%s,%s)" w u v)
                      (List.mem w all) (Strutil.is_shuffle w u v))
                  (Strutil.all_strings Alphabet.binary
                     (String.length u + String.length v)))
              words)
          words);
    tc "longest" (fun () ->
        check_int "empty" 0 (Strutil.longest []);
        check_int "max" 4 (Strutil.longest [ "ab"; "abcd"; "" ]));
  ]

let prng_tests =
  [
    tc "determinism" (fun () ->
        let a = Prng.create 42 and b = Prng.create 42 in
        for _ = 1 to 100 do
          check_int "same stream" (Prng.int a 1000) (Prng.int b 1000)
        done);
    tc "different seeds differ" (fun () ->
        let a = Prng.create 1 and b = Prng.create 2 in
        let xs = List.init 20 (fun _ -> Prng.int a 1_000_000) in
        let ys = List.init 20 (fun _ -> Prng.int b 1_000_000) in
        check_bool "streams differ" true (xs <> ys));
    tc "int bounds" (fun () ->
        let g = Prng.create 7 in
        for _ = 1 to 1000 do
          let v = Prng.int g 10 in
          check_bool "in range" true (v >= 0 && v < 10)
        done);
    tc "string over alphabet" (fun () ->
        let g = Prng.create 3 in
        let s = Prng.string g Alphabet.dna 50 in
        check_int "length" 50 (String.length s);
        check_bool "alphabet" true (Alphabet.contains_string Alphabet.dna s));
    tc "copy is independent" (fun () ->
        let a = Prng.create 9 in
        let _ = Prng.int a 100 in
        let b = Prng.copy a in
        check_int "same continuation" (Prng.int a 1000) (Prng.int b 1000));
    tc "float range" (fun () ->
        let g = Prng.create 11 in
        for _ = 1 to 1000 do
          let f = Prng.float g in
          check_bool "unit interval" true (f >= 0.0 && f < 1.0)
        done);
  ]

(* The one memo behind every engine cache: LRU order, the disabled
   bound, identity keying, the first-insert-wins race, and a model test
   against an assoc-list LRU. *)
module Int_memo = Memo.Make (struct
  type t = int

  let equal = Int.equal
  let hash = Hashtbl.hash
end)

module Fsa_memo = Memo.Make (Fsa.Physical)

(* The reference: an assoc list, most recently used first. *)
type model = {
  mutable lru : (int * int) list;
  mutable m_hits : int;
  mutable m_misses : int;
  mutable m_evictions : int;
}

type op = Find of int | Add of int * int

let model_find m k =
  match List.assoc_opt k m.lru with
  | Some v ->
      m.m_hits <- m.m_hits + 1;
      m.lru <- (k, v) :: List.remove_assoc k m.lru;
      Some v
  | None ->
      m.m_misses <- m.m_misses + 1;
      None

let model_add ~bound m k v =
  match List.assoc_opt k m.lru with
  | Some v' ->
      m.lru <- (k, v') :: List.remove_assoc k m.lru;
      v'
  | None when bound = 0 -> v
  | None ->
      if List.length m.lru >= bound then begin
        m.lru <- List.filteri (fun i _ -> i < bound - 1) m.lru;
        m.m_evictions <- m.m_evictions + 1
      end;
      m.lru <- (k, v) :: m.lru;
      v

let arb_ops =
  let open QCheck.Gen in
  let op =
    oneof
      [
        map (fun k -> Find k) (int_bound 5);
        map2 (fun k v -> Add (k, v)) (int_bound 5) (int_bound 100);
      ]
  in
  QCheck.make
    ~print:(fun (bound, ops) ->
      Printf.sprintf "bound %d: %s" bound
        (String.concat "; "
           (List.map
              (function
                | Find k -> Printf.sprintf "find %d" k
                | Add (k, v) -> Printf.sprintf "add %d %d" k v)
              ops)))
    (pair (int_bound 4) (list_size (int_bound 40) op))

let memo_tests =
  [
    tc "LRU: a recently used entry survives, the coldest goes" (fun () ->
        let t = Int_memo.create 16 in
        let hot = ref 0 in
        ignore (Int_memo.add t (-1) hot);
        for i = 1 to 40 do
          ignore (Int_memo.add t i (ref i));
          (* Touch the hot entry so LRU keeps it while cold ones go. *)
          match Int_memo.find t (-1) with
          | Some v when v == hot -> ()
          | _ -> Alcotest.failf "hot entry evicted at insertion %d" i
        done;
        let s = Int_memo.stats t in
        check_int "one eviction per insertion past the bound" 25
          s.Memo.evictions;
        check_int "table stays at the bound" 16 s.Memo.entries;
        check_bool "coldest entry gone" true (Int_memo.find t 1 = None);
        check_bool "newest entry kept" true (Int_memo.find t 40 <> None));
    tc "bound 0 stores nothing and counts misses" (fun () ->
        let t = Int_memo.create 0 in
        check_int "add returns its value" 7 (Int_memo.add t 1 7);
        check_int "built, not stored" 8 (Int_memo.find_or_add t 1 (fun () -> 8));
        check_bool "nothing to find" true (Int_memo.find t 1 = None);
        let s = Int_memo.stats t in
        check_int "no entries" 0 s.Memo.entries;
        check_int "no hits" 0 s.Memo.hits;
        check_int "every lookup misses" 2 s.Memo.misses);
    tc "identity keying: a structural clone misses" (fun () ->
        let a =
          Compile.compile Alphabet.binary ~vars:[ "x"; "y" ]
            (Combinators.equal_s "x" "y")
        in
        let clone =
          Fsa.make ~sigma:a.Fsa.sigma ~arity:a.Fsa.arity
            ~num_states:a.Fsa.num_states ~start:a.Fsa.start
            ~finals:(Fsa.finals_list a)
            ~transitions:(Array.to_list a.Fsa.transitions)
        in
        check_bool "clone is structurally equal" true (clone = a);
        let t = Fsa_memo.create 4 in
        ignore (Fsa_memo.add t a "original");
        check_bool "same automaton hits" true (Fsa_memo.find t a = Some "original");
        check_bool "clone misses" true (Fsa_memo.find t clone = None);
        check_string "clone gets its own entry" "clone"
          (Fsa_memo.find_or_add t clone (fun () -> "clone"));
        check_int "two entries" 2 (Fsa_memo.stats t).Memo.entries);
    tc "racing builders both get the first inserted value" (fun () ->
        let t = Int_memo.create 4 in
        let building = Atomic.make 0 in
        let build () =
          (* Hold each build until both domains have missed, so both
             insert and the second must adopt the first's value. *)
          Atomic.incr building;
          let deadline = Unix.gettimeofday () +. 5.0 in
          while Atomic.get building < 2 && Unix.gettimeofday () < deadline do
            Domain.cpu_relax ()
          done;
          ref 0
        in
        let other = Domain.spawn (fun () -> Int_memo.find_or_add t 1 build) in
        let mine = Int_memo.find_or_add t 1 build in
        let theirs = Domain.join other in
        check_int "both domains built" 2 (Atomic.get building);
        check_bool "one shared value" true (mine == theirs);
        check_bool "it is the stored one" true
          (match Int_memo.find t 1 with Some v -> v == mine | None -> false);
        let s = Int_memo.stats t in
        check_int "two misses" 2 s.Memo.misses;
        check_int "one entry" 1 s.Memo.entries);
    Test_qcheck.prop ~count:300 "agrees with an assoc-list LRU" arb_ops
      (fun (bound, ops) ->
        let t = Int_memo.create bound in
        let m = { lru = []; m_hits = 0; m_misses = 0; m_evictions = 0 } in
        List.for_all
          (function
            | Find k -> Int_memo.find t k = model_find m k
            | Add (k, v) -> Int_memo.add t k v = model_add ~bound m k v)
          ops
        &&
        let s = Int_memo.stats t in
        s.Memo.hits = m.m_hits && s.Memo.misses = m.m_misses
        && s.Memo.evictions = m.m_evictions
        && s.Memo.entries = List.length m.lru
        && List.for_all (fun (k, v) -> Int_memo.find t k = Some v) m.lru);
  ]

let suites =
  [
    ("util.alphabet", alphabet_tests);
    ("util.strutil", strutil_tests);
    ("util.prng", prng_tests);
    ("util.memo", memo_tests);
  ]
