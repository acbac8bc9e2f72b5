(** Synchronized products of k-FSAs over merged variable frames — the
    automaton side of the selection-composition law σ_A(σ_B(e)) =
    σ_{A×B}(e) of Section 4, which the evaluator uses to push selections
    into certified generators.

    Theorem 3.1 closes k-FSAs under conjunction when both operands range
    over the {e same} frame; this module generalises the construction to
    unidirectional factors with differing frames: tapes are aligned by
    variable name, and a variable private to one factor rides along as
    a free tape of the other.

    The two automata run interleaved over one physical head per merged
    tape; a factor reading ahead of the physical head records its reads
    in a per-tape {e window} of guessed symbols which later physical
    reads verify.  The reachable product state space is built lazily
    under a fixed budget of 4096 states: pairs whose traversal phases
    diverge unboundedly (e.g. a counter scan against a same-length scan)
    have an infinite synchronized space and blow it.  When the
    saturation terminates the construction is exact, and all product
    moves are in {0, +1}, so the product of unidirectional factors is
    unidirectional and keeps the linear one-way frontier kernel.

    Results of {!fuse} are memoized on the physical identities of the
    factors, so repeated plans reuse one product automaton — and with it
    any optimizer/runtime caches keyed on it. *)

type frame = string list
(** A variable frame: the tape names of an automaton, in tape order,
    duplicate-free. *)

type stats = {
  sync_built : int;  (** synchronized window products built. *)
  budget_fallbacks : int;
      (** synchronized constructions abandoned on budget blowout. *)
  memo : Strdb_util.Memo.stats;  (** the {!fuse} memo. *)
}

val stats : unit -> stats
(** Snapshot of the counters. *)

val merged_frame : frame -> frame -> frame
(** [merged_frame fa fb] is [fa] followed by the variables of [fb] not
    already present, in order — the frame of every product below. *)

val normal_finals : Fsa.t -> bool
(** Do all final states lack outgoing transitions?  The precondition
    under which reaching a final state coincides with halting acceptance
    (compiled normal form, Theorem 3.1); the construction requires it of
    both factors. *)

val product_sync : Fsa.t * frame -> Fsa.t * frame -> (Fsa.t * frame) option
(** The synchronized window product, or [None] when a factor is not
    unidirectional, the frames/alphabets are incompatible, or the state
    budget is exceeded.  When [Some (p, f)], [p] accepts a tuple over
    [f = merged_frame fa fb] iff both factors accept its projections. *)

val fuse : Fsa.t * frame -> Fsa.t * frame -> (Fsa.t * frame) option
(** The memoized entry point used by the evaluator: {!product_sync} of
    the optimized factors, run through [Optimize.optimized]; [None] when
    it declines, and the caller keeps the conjuncts unfused.  Memoized
    in a {!Strdb_util.Memo} of 128 entries on ([==] of factor automata,
    [=] of frames). *)

val clear_cache : unit -> unit
(** Drop the {!fuse} memo and zero {!stats} (benchmarks isolating cold
    costs). *)
