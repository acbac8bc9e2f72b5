type stats = { hits : int; misses : int; evictions : int; entries : int }

module Make (K : Hashtbl.HashedType) = struct
  module H = Hashtbl.Make (K)

  (* The recency list, most recently used first, doubly linked through
     the table's own nodes so that a hit relinks in O(1) without
     allocating. *)
  type 'v node =
    | Nil
    | Node of {
        key : K.t;
        value : 'v;
        mutable prev : 'v node;
        mutable next : 'v node;
      }

  type 'v t = {
    mu : Mutex.t;
    tbl : 'v node H.t;
    bound : int;
    mutable first : 'v node;
    mutable last : 'v node;  (* the next eviction victim *)
    mutable hits : int;
    mutable misses : int;
    mutable evictions : int;
  }

  let create bound =
    let bound = max 0 bound in
    {
      mu = Mutex.create ();
      tbl = H.create (max 1 (min bound 64));
      bound;
      first = Nil;
      last = Nil;
      hits = 0;
      misses = 0;
      evictions = 0;
    }

  let bound t = t.bound

  (* The list operations run with the lock held. *)
  let unlink t node =
    match node with
    | Nil -> ()
    | Node n ->
        (match n.prev with Nil -> t.first <- n.next | Node p -> p.next <- n.next);
        (match n.next with Nil -> t.last <- n.prev | Node s -> s.prev <- n.prev);
        n.prev <- Nil;
        n.next <- Nil

  let push_front t node =
    match node with
    | Nil -> ()
    | Node n ->
        n.next <- t.first;
        (match t.first with Nil -> t.last <- node | Node f -> f.prev <- node);
        t.first <- node

  let touch t node =
    if t.first != node then begin
      unlink t node;
      push_front t node
    end

  let find t k =
    Mutex.protect t.mu (fun () ->
        match H.find_opt t.tbl k with
        | Some (Node n as node) ->
            t.hits <- t.hits + 1;
            touch t node;
            Some n.value
        | Some Nil | None ->
            t.misses <- t.misses + 1;
            None)

  let add t k v =
    if t.bound = 0 then v
    else
      Mutex.protect t.mu (fun () ->
          match H.find_opt t.tbl k with
          | Some (Node n as node) ->
              touch t node;
              n.value
          | Some Nil | None ->
              (if H.length t.tbl >= t.bound then
                 match t.last with
                 | Nil -> ()
                 | Node l as victim ->
                     unlink t victim;
                     H.remove t.tbl l.key;
                     t.evictions <- t.evictions + 1);
              let node = Node { key = k; value = v; prev = Nil; next = Nil } in
              push_front t node;
              H.replace t.tbl k node;
              v)

  let find_or_add t k build =
    match find t k with Some v -> v | None -> add t k (build ())

  let stats t =
    Mutex.protect t.mu (fun () ->
        {
          hits = t.hits;
          misses = t.misses;
          evictions = t.evictions;
          entries = H.length t.tbl;
        })

  let clear t =
    Mutex.protect t.mu (fun () ->
        H.reset t.tbl;
        t.first <- Nil;
        t.last <- Nil;
        t.hits <- 0;
        t.misses <- 0;
        t.evictions <- 0)
end
