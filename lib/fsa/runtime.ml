module A = Strdb_util.Alphabet

(* ------------------------------------------------------------------ *)
(* A monomorphic int hash set with open addressing: the visited set of
   the configuration search when the packed key space is too large for a
   bitmap.  Slots store key+1 so that 0 can mean "empty" (keys are ≥ 0). *)

module Int_set = struct
  type t = { mutable slots : int array; mutable count : int }

  (* [size] must be a power of two (the probe sequence masks). *)
  let create ?(size = 1024) () = { slots = Array.make size 0; count = 0 }
  let hash k = (k * 0x9E3779B1) lxor (k lsr 16)

  let insert slots v =
    let mask = Array.length slots - 1 in
    let i = ref (hash (v - 1) land mask) in
    let fresh = ref false in
    let looking = ref true in
    while !looking do
      let cur = Array.unsafe_get slots !i in
      if cur = 0 then begin
        Array.unsafe_set slots !i v;
        fresh := true;
        looking := false
      end
      else if cur = v then looking := false
      else i := (!i + 1) land mask
    done;
    !fresh

  let grow s =
    let slots = Array.make (2 * Array.length s.slots) 0 in
    Array.iter (fun v -> if v <> 0 then ignore (insert slots v)) s.slots;
    s.slots <- slots

  (* [add s k] is true when [k] was not yet in the set. *)
  let add s k =
    let fresh = insert s.slots (k + 1) in
    if fresh then begin
      s.count <- s.count + 1;
      if 2 * s.count >= Array.length s.slots then grow s
    end;
    fresh
end

(* ------------------------------------------------------------------ *)
(* Per-FSA transition index.

   Symbols are ranked 0..|Σ|+1 (characters by alphabet rank, then ⊢,
   then ⊣) and a read vector becomes the mixed-radix code
   Σᵢ rank(readᵢ)·(|Σ|+2)ⁱ.  Every transition reads one concrete vector,
   so dispatch is an exact-match table: state × code ↦ the indices of the
   enabled transitions, replacing the List.filter over Fsa.outgoing. *)

type t = {
  fsa : Fsa.t;
  base : int;  (* |Σ| + 2 *)
  lend_rank : int;
  rend_rank : int;
  weights : int array;  (* weights.(i) = base^i *)
  vec_count : int;  (* base^arity, or 0 when that overflows the guard *)
  outgoing : Fsa.transition array array;
  dense : int array array;  (* [state·vec_count + code] ↦ indices *)
  sparse : (int, int array) Hashtbl.t;
  use_dense : bool;
  oneway : bool;  (* Optimize.shape_of = Unidirectional: no head ever
                     moves left, so acceptance runs the frontier kernel. *)
}

let no_transitions : int array = [||]

(* Dense dispatch is an array of num_states·vec_count pointers; beyond
   this budget fall back to an int-keyed hashtable. *)
let dense_budget = 1 lsl 20

(* Codes must stay well inside an int; beyond this the index degrades to
   [indexable = false] and callers keep the naive path. *)
let code_budget = 1 lsl 30

let indexable rt = rt.vec_count > 0

let sym_rank rt = function
  | Symbol.Chr c -> A.rank rt.fsa.Fsa.sigma c
  | Symbol.Lend -> rt.lend_rank
  | Symbol.Rend -> rt.rend_rank

let code_of_symbols rt syms =
  let c = ref 0 in
  Array.iteri (fun i s -> c := !c + (sym_rank rt s * rt.weights.(i))) syms;
  !c

let build (a : Fsa.t) =
  let sz = A.size a.sigma in
  let base = sz + 2 in
  let weights = Array.make a.arity 1 in
  let vec_count = ref 1 in
  for i = 0 to a.arity - 1 do
    if !vec_count > 0 then begin
      weights.(i) <- !vec_count;
      if !vec_count > code_budget / base then vec_count := 0
      else vec_count := !vec_count * base
    end
  done;
  let vec_count = !vec_count in
  let outgoing =
    Array.init a.num_states (fun q -> Array.of_list (Fsa.outgoing a q))
  in
  let rt =
    {
      fsa = a;
      base;
      lend_rank = sz;
      rend_rank = sz + 1;
      weights;
      vec_count;
      outgoing;
      dense = [||];
      sparse = Hashtbl.create 1;
      use_dense = false;
      oneway = Optimize.shape_of a = Optimize.Unidirectional;
    }
  in
  if vec_count = 0 then rt
  else begin
    let use_dense = a.num_states <= dense_budget / vec_count in
    let buckets : (int, int list) Hashtbl.t =
      Hashtbl.create (Array.length a.transitions)
    in
    Array.iteri
      (fun idx (tr : Fsa.transition) ->
        let key = (tr.src * vec_count) + code_of_symbols rt tr.read in
        let prev = Option.value ~default:[] (Hashtbl.find_opt buckets key) in
        Hashtbl.replace buckets key (idx :: prev))
      a.transitions;
    if use_dense then begin
      let dense = Array.make (a.num_states * vec_count) no_transitions in
      Hashtbl.iter
        (fun key idxs -> dense.(key) <- Array.of_list (List.rev idxs))
        buckets;
      { rt with dense; use_dense = true }
    end
    else begin
      let sparse = Hashtbl.create (Hashtbl.length buckets) in
      Hashtbl.iter
        (fun key idxs -> Hashtbl.replace sparse key (Array.of_list (List.rev idxs)))
        buckets;
      { rt with sparse }
    end
  end

let transitions_for rt ~state ~code =
  let key = (state * rt.vec_count) + code in
  if rt.use_dense then rt.dense.(key)
  else Option.value ~default:no_transitions (Hashtbl.find_opt rt.sparse key)

let transition rt i = rt.fsa.Fsa.transitions.(i)
let outgoing rt q = rt.outgoing.(q)

(* ------------------------------------------------------------------ *)
(* Index cache, keyed on the FSA's physical identity.  Compile's memo
   returns physically equal FSAs for repeated formulae, so the two caches
   compose: re-running a query re-uses both the automaton and its
   dispatch index.  The bound is the compile memo's size: the index
   working set is at most one index per live compiled FSA, since one-shot
   specialised automata build local, uncached indices. *)

module Memo = Strdb_util.Memo.Make (Fsa.Physical)

let cache : t Memo.t = Memo.create 256

type stats = Strdb_util.Memo.stats = {
  hits : int;
  misses : int;
  evictions : int;
  entries : int;
}

let stats () = Memo.stats cache
let index (a : Fsa.t) = Memo.find_or_add cache a (fun () -> build a)

(* A private index: built fresh, never inserted into (or counted
   against) the shared cache.  For one-shot automata — per-row Lemma 3.1
   specialisations in Generate.outputs — whose physical identity never
   recurs; caching those only evicts the indices that do. *)
let index_uncached (a : Fsa.t) = build a

let clear_cache () = Memo.clear cache

(* ------------------------------------------------------------------ *)
(* Packed configuration keys.  For input lengths n₁..n_k a configuration
   (q, p₁..p_k) with pᵢ ∈ [0, nᵢ+1] is packed as
       q + states·(p₁ + d₁·(p₂ + d₂·(…)))        dᵢ = nᵢ + 2,
   a single int whenever states·Πdᵢ fits; [layout] is None otherwise. *)

type layout = { states : int; dims : int array; steps : int array; total : int }

let layout (a : Fsa.t) lens =
  let states = a.num_states in
  let k = Array.length lens in
  let dims = Array.map (fun n -> n + 2) lens in
  let steps = Array.make k 0 in
  let acc = ref states in
  let ok = ref true in
  Array.iteri
    (fun i d ->
      steps.(i) <- !acc;
      if !ok && !acc <= max_int / d then acc := !acc * d else ok := false)
    dims;
  if !ok then Some { states; dims; steps; total = !acc } else None

let pack l ~state ~pos =
  let key = ref state in
  Array.iteri (fun i p -> key := !key + (p * l.steps.(i))) pos;
  !key

(* Decode the state and write the positions into [pos] (scratch reuse in
   the search loop). *)
let unpack_into l key pos =
  let r = ref key in
  let state = !r mod l.states in
  r := !r / l.states;
  Array.iteri
    (fun i d ->
      pos.(i) <- !r mod d;
      r := !r / d)
    l.dims;
  state

let unpack l key =
  let pos = Array.make (Array.length l.dims) 0 in
  let state = unpack_into l key pos in
  (state, pos)

(* ------------------------------------------------------------------ *)
(* The packed acceptance search (Theorem 3.3 over int keys).  Visited is
   a flat bitmap when the key space fits the budget, the open-addressing
   int set otherwise.  Returns None when the input is not packable or
   the FSA not indexable; Run.accepts then keeps the naive search. *)

let bitmap_budget = 1 lsl 24 (* bits: a 2 MB bitmap at most *)

(* The frontier kernel for unidirectional FSAs (every move ∈ {0, +1}).
   Head-position sums only ever grow, so configurations are processed in
   levels of equal position-sum — an NFA-style subset simulation over
   the level frontier.  A key's level is determined by the key (the sum
   of its positions), so no global visited set is needed: a small
   per-level set deduplicates the frontier, and a drained level is
   dropped.  Stationary transitions stay inside the current level and
   are chased worklist-style (the bucket grows while being scanned). *)
let oneway_accepts rt (a : Fsa.t) l codes tdelta =
  let tsum =
    Array.map
      (fun (tr : Fsa.transition) -> Array.fold_left ( + ) 0 tr.moves)
      a.transitions
  in
  let max_sum = Array.fold_left (fun acc d -> acc + d - 1) 0 l.dims in
  let buckets = Array.make (max_sum + 1) [||] in
  let lens = Array.make (max_sum + 1) 0 in
  let push s v =
    let arr = buckets.(s) in
    let n = lens.(s) in
    let arr =
      if n = Array.length arr then begin
        let bigger = Array.make (max 8 (2 * n)) 0 in
        Array.blit arr 0 bigger 0 n;
        buckets.(s) <- bigger;
        bigger
      end
      else arr
    in
    arr.(n) <- v;
    lens.(s) <- n + 1
  in
  (* The initial configuration (start, 0, …, 0) packs to the state id. *)
  push 0 a.start;
  let pos = Array.make a.arity 0 in
  let accepted = ref false in
  let s = ref 0 in
  while (not !accepted) && !s <= max_sum do
    if lens.(!s) > 0 then begin
      let seen = Int_set.create ~size:64 () in
      let i = ref 0 in
      while (not !accepted) && !i < lens.(!s) do
        let key = buckets.(!s).(!i) in
        incr i;
        if Int_set.add seen key then begin
          let state = unpack_into l key pos in
          let code = ref 0 in
          Array.iteri
            (fun t p -> code := !code + (codes.(t).(p) * rt.weights.(t)))
            pos;
          let trs = transitions_for rt ~state ~code:!code in
          if Array.length trs = 0 then begin
            if a.finals.(state) then accepted := true
          end
          else
            Array.iter
              (fun t -> push (!s + tsum.(t)) (key + tdelta.(t)))
              trs
        end
      done;
      buckets.(!s) <- [||]
    end;
    incr s
  done;
  !accepted

(* The general two-way search: depth-first over packed keys with a
   visited set (flat bitmap when the key space fits the budget, the
   open-addressing int set otherwise). *)
let twoway_accepts rt (a : Fsa.t) l codes tdelta =
  let visit =
    if l.total <= bitmap_budget then begin
      let bm = Bytes.make ((l.total + 7) / 8) '\000' in
      fun k ->
        let byte = k lsr 3 and bit = 1 lsl (k land 7) in
        let cur = Char.code (Bytes.unsafe_get bm byte) in
        if cur land bit <> 0 then false
        else begin
          Bytes.unsafe_set bm byte (Char.unsafe_chr (cur lor bit));
          true
        end
    end
    else
      let s = Int_set.create () in
      fun k -> Int_set.add s k
  in
  let stack = ref (Array.make 1024 0) in
  let top = ref 0 in
  let push k =
    if !top = Array.length !stack then begin
      let bigger = Array.make (2 * !top) 0 in
      Array.blit !stack 0 bigger 0 !top;
      stack := bigger
    end;
    !stack.(!top) <- k;
    incr top
  in
  let pos = Array.make a.arity 0 in
  let start = a.start in
  ignore (visit start);
  push start;
  let accepted = ref false in
  while (not !accepted) && !top > 0 do
    decr top;
    let key = !stack.(!top) in
    let state = unpack_into l key pos in
    let code = ref 0 in
    Array.iteri
      (fun i p -> code := !code + (codes.(i).(p) * rt.weights.(i)))
      pos;
    let trs = transitions_for rt ~state ~code:!code in
    if Array.length trs = 0 then begin
      if a.finals.(state) then accepted := true
    end
    else
      Array.iter
        (fun t ->
          let succ = key + tdelta.(t) in
          if visit succ then push succ)
        trs
  done;
  !accepted

let try_accepts rt ws0 =
  let a = rt.fsa in
  if not (indexable rt) then None
  else
    let ws = Array.of_list ws0 in
    let lens = Array.map String.length ws in
    match layout a lens with
    | None -> None
    | Some l ->
        (* Per-tape symbol ranks at every head position: turns the
           symbol vector under the heads into plain int lookups. *)
        let codes =
          Array.map
            (fun w ->
              let n = String.length w in
              Array.init (n + 2) (fun j ->
                  if j = 0 then rt.lend_rank
                  else if j = n + 1 then rt.rend_rank
                  else A.rank a.sigma w.[j - 1]))
            ws
        in
        (* Applying transition t to a packed key is adding a constant. *)
        let tdelta =
          Array.map
            (fun (tr : Fsa.transition) ->
              let d = ref (tr.dst - tr.src) in
              Array.iteri (fun i m -> d := !d + (m * l.steps.(i))) tr.moves;
              !d)
            a.transitions
        in
        (* Shape dispatch: the frontier kernel for unidirectional
           FSAs, the visited-set search otherwise. *)
        if rt.oneway then Some (oneway_accepts rt a l codes tdelta)
        else Some (twoway_accepts rt a l codes tdelta)

(* Which acceptance kernel [try_accepts] would run for this automaton —
   for Eval.explain and the CLI. *)
let kernel_name (a : Fsa.t) =
  let rt = index a in
  if not (indexable rt) then "naive search"
  else if rt.oneway then "one-way frontier"
  else "two-way packed"
