(** The high-performance k-FSA runtime.

    Theorem 3.3's acceptance search and the Generate/Eval loops above it
    are the system's hot paths.  This module packages the three
    ingredients they share:

    - {b indexed transition dispatch}: per FSA (cached on first use,
      keyed on physical identity), a [state × symbol-vector-code ↦
      transitions] table.  Read vectors are concrete, so the enabled set
      is an exact-match lookup instead of a [List.filter] over
      [Fsa.outgoing];
    - {b packed configuration keys}: a configuration [(q, p₁..p_k)] on
      inputs of lengths [n₁..n_k] packs into one int whenever
      [states·Π(nᵢ+2)] fits in an OCaml int, giving an allocation-free
      search with a flat bitmap (small key spaces) or a monomorphic
      open-addressing int set (large ones) as the visited set;
    - {b shape dispatch} between a one-way frontier kernel and the
      general two-way search.

    The naive reference implementations ([Run.accepts_naive],
    [Generate.accepted_naive]) stay callable directly, as test oracles. *)

(** {1 Transition dispatch} *)

type t
(** A dispatch index for one FSA. *)

val index : Fsa.t -> t
(** [index a] is the dispatch index of [a], built on first use and
    cached in a {!Strdb_util.Memo} (256 entries, keyed on physical
    identity — FSAs are immutable after construction).  Domain-safe:
    racing builders converge on one shared index. *)

val index_uncached : Fsa.t -> t
(** Build a dispatch index without consulting or populating the cache.
    For one-shot automata (per-row specialisations in [Generate]) that
    would otherwise thrash the bounded cache with always-miss
    insertions. *)

val clear_cache : unit -> unit
(** Drop all cached indices and zero {!stats} (benchmark hygiene). *)

type stats = Strdb_util.Memo.stats = {
  hits : int;
  misses : int;
  evictions : int;
  entries : int;
}
(** The index cache's counters since start / {!clear_cache}. *)

val stats : unit -> stats

val indexable : t -> bool
(** False when [(|Σ|+2)^arity] overflows the code budget; dispatch and
    packed acceptance then decline and callers keep the naive path. *)

val code_of_symbols : t -> Symbol.t array -> int
(** The mixed-radix code of a symbol vector: [Σᵢ rank(sᵢ)·(|Σ|+2)ⁱ] with
    characters ranked by the alphabet, then [⊢], then [⊣].  Only valid
    when [indexable]. *)

val transitions_for : t -> state:int -> code:int -> int array
(** Indices (into [Fsa.transitions]) of the transitions leaving [state]
    whose read vector has code [code] — exactly the enabled transitions
    of a configuration observing that vector.  The returned array is
    shared; do not mutate. *)

val transition : t -> int -> Fsa.transition
(** Resolve a transition index. *)

val outgoing : t -> int -> Fsa.transition array
(** All transitions leaving a state, as a shared array (the array-backed
    counterpart of [Fsa.outgoing]). *)

(** {1 Packed configuration keys} *)

type layout = {
  states : int;
  dims : int array;  (** [dims.(i) = nᵢ + 2]: head positions per tape. *)
  steps : int array;  (** mixed-radix strides: [states·Π_{j<i} dims.(j)]. *)
  total : int;  (** number of distinct keys, [states·Π dims]. *)
}

val layout : Fsa.t -> int array -> layout option
(** [layout a lens] is the packing layout for inputs of the given
    lengths, or [None] when [states·Π(lensᵢ+2)] overflows an int. *)

val pack : layout -> state:int -> pos:int array -> int
(** Injective encoding of a configuration into [0..total-1]. *)

val unpack : layout -> int -> int * int array
(** Inverse of {!pack}: [(state, positions)]. *)

(** {1 Acceptance} *)

val try_accepts : t -> string list -> bool option
(** [try_accepts rt ws] decides [ws] against the automaton of the index
    [rt] by the packed acceptance search over int keys, dispatched on shape:
    unidirectional FSAs (no head ever moves left — {!Optimize.shape_of})
    run a frontier-based one-way kernel, an NFA-style subset simulation
    by levels of equal head-position sum that needs no visited set and
    is linear in total input length for a fixed FSA; everything else
    runs the general two-way search (Theorem 3.3) with a bitmap or
    int-set visited set.  [None] when the FSA is not indexable or the
    input is not packable; the caller then uses the naive search.  Assumes the input was validated ([Run.accepts]
    does this). *)

val kernel_name : Fsa.t -> string
(** Which acceptance kernel {!try_accepts} would run for this automaton
    ("one-way frontier", "two-way packed", or "naive search" when the
    FSA is not indexable) — for
    [Eval.explain] and the CLI. *)
