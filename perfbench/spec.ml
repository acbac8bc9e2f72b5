(* Workloads: the generated database, the request stream and the
   expected answer of every request.

   Expected answers come from an oracle that never calls the engine:
   [Strmatch.occurs] for motif and guard conjuncts, [String.starts_with]
   for anchored ones, [Edit_distance.within] for edit distance and
   [u ^ v] for concatenation.  Requests carry their expected reply
   payload, so the load phase only compares strings. *)

open Strdb
module Strmatch = Strdb_baselines.Strmatch
module Edit_distance = Strdb_baselines.Edit_distance

type kind = Warm_mix | Adhoc_plan | Scan_exec
type scale = Full | Tiny

let kinds = [ ("warm-mix", Warm_mix); ("adhoc-plan", Adhoc_plan); ("scan-exec", Scan_exec) ]
let kind_of_string s = List.assoc_opt s kinds

type request = {
  template : string;  (** the query family, e.g. ["Q7-motif"]. *)
  line : string;  (** the wire line, without its newline. *)
  expected : string;  (** the exact reply payload: one row per line. *)
}

type params = {
  seq_rows : int;
  seq_len : int;
  hit_rate : float;
  pair_rows : int;  (** pairs in [pair]. *)
  pair_len : int;
  indexed : bool;  (** serve through a [Store] (q-gram index). *)
  pool : int;  (** distinct requests generated (adhoc-plan only). *)
}

let motif = "acgtgacgta"
let dna = Alphabet.dna

let params kind scale =
  let tiny = scale = Tiny in
  match kind with
  | Warm_mix | Adhoc_plan ->
      {
        seq_rows = (if tiny then 2_000 else 50_000);
        seq_len = 20;
        hit_rate = (if tiny then 0.01 else 0.001);
        pair_rows = 16;
        pair_len = 6;
        indexed = true;
        pool = (if tiny then 256 else 8192);
      }
  | Scan_exec ->
      {
        seq_rows = (if tiny then 500 else 2_500);
        seq_len = 20;
        hit_rate = 0.005;
        pair_rows = (if tiny then 20 else 100);
        pair_len = 12;
        indexed = false;
        pool = 0;
      }

let params_json p =
  Printf.sprintf
    "{\"seq_rows\": %d, \"seq_len\": %d, \"hit_rate\": %g, \"motif\": %S, \
     \"pair_rows\": %d, \"pair_len\": %d, \"indexed\": %b, \"adhoc_pool\": %d}"
    p.seq_rows p.seq_len p.hit_rate motif p.pair_rows p.pair_len p.indexed
    p.pool

(* The database the server receives.  [pair] comes from [genomic_db],
   whose pairs are mutations at edit distance at most 2, so the E1
   equality, occurrence and edit-distance queries all have answers. *)
let database p ~seed =
  let planted =
    Workload.planted_motif_db ~seed:(2 * seed + 1) ~n:p.seq_rows ~len:p.seq_len
      ~motif ~hit_rate:p.hit_rate
  in
  let genomic =
    Workload.genomic_db ~seed:(2 * seed + 2) ~n:(2 * p.pair_rows)
      ~len:p.pair_len
  in
  Database.of_list
    [ ("seq", Database.find planted "seq"); ("pair", Database.find genomic "pair") ]

(* ------------------------------------------------------------ oracle *)

(* Rows of [seq] bucketed by every 6-gram they contain, so a motif of
   length >= 6 is checked only against the rows sharing its first
   6-gram instead of the whole relation.  Building it costs one pass. *)
let gram = 6

type oracle = {
  seqs : string array;
  pairs : (string * string) list;
  buckets : int array array;  (** 6-gram code -> row ids (may repeat). *)
}

let code s off =
  let c = ref 0 in
  for i = off to off + gram - 1 do
    c :=
      (!c lsl 2)
      lor match s.[i] with 'a' -> 0 | 'c' -> 1 | 'g' -> 2 | _ -> 3
  done;
  !c

let oracle db =
  let seqs =
    Array.of_list (List.map List.hd (Database.find db "seq"))
  in
  let pairs =
    List.map
      (function [ u; v ] -> (u, v) | _ -> invalid_arg "pair arity")
      (Database.find db "pair")
  in
  let lists = Array.make (1 lsl (2 * gram)) [] in
  Array.iteri
    (fun r s ->
      for off = 0 to String.length s - gram do
        let c = code s off in
        lists.(c) <- r :: lists.(c)
      done)
    seqs;
  { seqs; pairs; buckets = Array.map (fun l -> Array.of_list l) lists }

(* Rows containing [m] (|m| >= 6) and satisfying [keep]. *)
let seq_rows_with o m keep =
  Array.fold_left
    (fun acc r ->
      let s = o.seqs.(r) in
      if Strmatch.occurs ~pattern:m s && keep s then [ s ] :: acc else acc)
    [] o.buckets.(code m 0)

(* A reply payload as the server writes it: rows sorted, one per line,
   components separated by tabs. *)
let payload rows =
  String.concat ""
    (List.map (fun r -> String.concat "\t" r ^ "\n") (List.sort_uniq compare rows))

let request template text rows =
  { template; line = "QUERY " ^ text; expected = payload rows }

(* ----------------------------------------------------------- queries *)

let any = "(a+c+g+t)*"
let on v re = Sformula.to_string (Regex_embed.matches v (Regex.parse re))
let s_on v re = "S{" ^ on v re ^ "}"
let occurs m = s_on "x" (any ^ m ^ any)
let prefix p = s_on "x" (p ^ any)
let sf phi = "S{" ^ Sformula.to_string phi ^ "}"
let occurs' m s = Strmatch.occurs ~pattern:m s

(* V1's eight queries: the example queries over [pair] and the Q7
   motif family over [seq]. *)
let mix o =
  let pair_rows f =
    List.filter_map (fun (u, v) -> f u v) o.pairs
  in
  let uv u v = Some [ u; v ] in
  [
    request "E1-equal"
      ("pair(u,v) & " ^ sf (Combinators.equal_s "u" "v"))
      (pair_rows (fun u v -> if u = v then uv u v else None));
    request "E1-concat"
      ("pair(u,v) & " ^ sf (Combinators.concat3 "x" "u" "v"))
      (pair_rows (fun u v -> Some [ u; v; u ^ v ]));
    request "E1-occurs"
      ("pair(u,v) & " ^ sf (Combinators.occurs_in "u" "v"))
      (pair_rows (fun u v -> if occurs' u v then uv u v else None));
    request "E1-edit2"
      ("pair(u,v) & " ^ sf (Combinators.edit_distance_le "u" "v" 2))
      (pair_rows (fun u v ->
           if Edit_distance.within u v 2 then uv u v else None));
    request "Q7-motif"
      ("seq(x) & " ^ occurs motif)
      (seq_rows_with o motif (fun _ -> true));
    request "Q7-anchored"
      ("seq(x) & " ^ prefix motif)
      (seq_rows_with o motif (String.starts_with ~prefix:motif));
    request "fused-triple"
      (Printf.sprintf "seq(x) & %s & %s & %s" (occurs "acgtga")
         (occurs "gtgacg") (occurs "gacgta"))
      (seq_rows_with o "acgtga" (fun s ->
           occurs' "gtgacg" s && occurs' "gacgta" s));
    request "negated-guard"
      (Printf.sprintf "seq(x) & %s & ~%s" (occurs motif) (occurs "ggggg"))
      (seq_rows_with o motif (fun s -> not (occurs' "ggggg" s)));
  ]

(* [x = u . lit]: [concat3] with a literal in place of its third row,
   so every request compiles and certifies a generator of its own. *)
let append_literal x u lit =
  Sformula.seq
    ([ Sformula.star (Sformula.left [ x; u ] (Window.Eq (x, u))) ]
    @ List.map
        (fun c -> Sformula.left [ x ] (Window.Is_char (x, c)))
        (List.of_seq (String.to_seq lit))
    @ [ Sformula.left [ x; u ] (Window.all_empty [ x; u ]) ])

(* One ad-hoc request: a template and its random literals, all drawn
   from [g].  Literal lengths keep the selections selective, so planning
   rather than row work dominates a request. *)
let adhoc o g =
  let dna_str lo hi = Prng.string g dna (lo + Prng.int g (hi - lo + 1)) in
  match Prng.int g 5 with
  | 0 ->
      let m = dna_str 8 10 in
      request "motif" ("seq(x) & " ^ occurs m) (seq_rows_with o m (fun _ -> true))
  | 1 ->
      let p = dna_str 6 8 in
      request "anchored" ("seq(x) & " ^ prefix p)
        (seq_rows_with o p (String.starts_with ~prefix:p))
  | 2 ->
      let m = dna_str 7 9 and guard = dna_str 3 4 in
      request "negated-guard"
        (Printf.sprintf "seq(x) & %s & ~%s" (occurs m) (occurs guard))
        (seq_rows_with o m (fun s -> not (occurs' guard s)))
  | 3 ->
      let m = dna_str 7 9 and m' = dna_str 3 5 in
      request "two-filter"
        (Printf.sprintf "seq(x) & %s & %s" (occurs m) (occurs m'))
        (seq_rows_with o m (occurs' m'))
  | _ ->
      let lit = dna_str 2 4 in
      request "pair-generator"
        ("pair(u,v) & " ^ sf (append_literal "x" "u" lit))
        (List.map (fun (u, v) -> [ u; v; u ^ lit ]) o.pairs)

(* [n] pairwise-distinct ad-hoc requests. *)
let adhoc_pool o ~seed ~n =
  let g = Prng.create (7919 * seed + 17) in
  let seen = Hashtbl.create n in
  let rec next () =
    let r = adhoc o g in
    if Hashtbl.mem seen r.line then next ()
    else begin
      Hashtbl.add seen r.line ();
      r
    end
  in
  Array.init n (fun _ -> next ())

(* The request stream: the [i]-th request of a run.  Fixed mixes cycle
   from a seed-chosen offset; ad-hoc requests walk the distinct pool. *)
let requests kind p o ~seed =
  match kind with
  | Warm_mix | Scan_exec ->
      let m = Array.of_list (mix o) in
      let off = seed mod Array.length m in
      Array.init (Array.length m) (fun i -> m.((i + off) mod Array.length m))
  | Adhoc_plan -> adhoc_pool o ~seed ~n:p.pool
