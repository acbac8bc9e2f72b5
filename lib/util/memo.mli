(** Bounded, domain-safe LRU memo tables.

    Every engine cache stores a value derived from an immutable input: a
    compiled automaton from a formula, the optimized automaton, dispatch
    index, limitation verdict or product of an automaton, a prepared plan
    from a request.  They all share this one policy:

    - at most [bound] entries, least recently used evicted first, one at
      a time (never a full reset, so hot entries keep their identity);
    - a mutex guards the table, and a miss builds its value {e outside}
      the lock, so a slow build on one domain never stalls hits on the
      others;
    - the first insert of a key wins: a domain that raced to build the
      same key adopts the stored value, so every caller of one key gets
      one physically shared value (the [==] chains Compile → Optimize →
      Runtime rely on this);
    - bound 0 stores nothing and counts every lookup as a miss.

    Caches keyed on an automaton's physical identity instantiate the
    functor with [equal = (==)] and a hash over fields of the automaton
    that never change (addresses move under the GC, so they cannot be
    hashed). *)

type stats = {
  hits : int;  (** lookups answered from the table. *)
  misses : int;  (** lookups that found nothing. *)
  evictions : int;  (** entries dropped to stay within the bound. *)
  entries : int;  (** live entries right now. *)
}
(** Counters since creation or the last [clear]. *)

module Make (K : Hashtbl.HashedType) : sig
  type 'v t

  val create : int -> 'v t
  (** [create bound] is an empty table holding at most [max 0 bound]
      entries. *)

  val bound : 'v t -> int

  val find : 'v t -> K.t -> 'v option
  (** The stored value, made most recently used (a hit), or [None] (a
      miss). *)

  val add : 'v t -> K.t -> 'v -> 'v
  (** [add t k v] stores [v] under [k] unless [k] is already present,
      evicting the least recently used entry when full, and returns the
      stored value: [v], or the value a racing domain inserted first.
      With bound 0 it stores nothing and returns [v]. *)

  val find_or_add : 'v t -> K.t -> (unit -> 'v) -> 'v
  (** [find], and on a miss [add] the value built by the thunk, which
      runs outside the lock. *)

  val stats : 'v t -> stats

  val clear : 'v t -> unit
  (** Drop every entry and zero the counters. *)
end
