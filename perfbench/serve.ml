(* The server under test runs in a forked child, so the benchmark's own
   allocation never joins the server's stop-the-world minor collections.
   The child builds its own database and store from the workload seed,
   like a server loading its data, and is forked before the benchmark
   process has built anything: its memory is the server's alone.  Every
   engine setting the server takes is passed explicitly. *)

open Strdb

type report = {
  gen_s : float;  (** generating the database, in the child. *)
  store_s : float;  (** [Store.create], in the child; 0 without a store. *)
  index_bytes_per_byte : float;
      (** [Store.posting_entries] × 4 over the bytes of stored strings. *)
  vm_hwm_kb : int;  (** peak resident set ([VmHWM]) at shutdown. *)
  minor_words : float;  (** allocated in the minor heap while serving. *)
  major_collections : int;
}

type t = { pid : int; from_child : Unix.file_descr; socket : string }

let peak_rss_kb () =
  let ic = open_in "/proc/self/status" in
  Fun.protect ~finally:(fun () -> close_in ic) @@ fun () ->
  let rec scan () =
    match input_line ic with
    | exception End_of_file -> 0
    | l when String.starts_with ~prefix:"VmHWM:" l ->
        Scanf.sscanf (String.sub l 6 (String.length l - 6)) " %d" Fun.id
    | _ -> scan ()
  in
  scan ()

let index_bytes_per_byte db = function
  | None -> 0.0
  | Some st ->
      let bytes =
        List.fold_left
          (fun acc (r, _) ->
            List.fold_left
              (fun acc t -> List.fold_left (fun acc x -> acc + String.length x) acc t)
              acc (Database.find db r))
          0 (Database.relations db)
      in
      float_of_int (Store.posting_entries st * 4) /. float_of_int bytes

let plan_cache_bound = 128

(* Fork a server that builds its database with [database ()] and, when
   [indexed], its store; returns once the child exists, not once it
   listens — see [wait_ready]. *)
let spawn ~socket ~workers ~indexed database =
  flush_all ();
  let rd, wr = Unix.pipe ~cloexec:true () in
  match Unix.fork () with
  | 0 ->
      Unix.close rd;
      let t0 = Loadgen.now () in
      let db = database () in
      let t1 = Loadgen.now () in
      let store = if indexed then Some (Store.create Alphabet.dna db) else None in
      let t2 = Loadgen.now () in
      let g0 = Gc.quick_stat () in
      let cfg =
        Server.config ~workers ~backlog:workers ~domains:1
          ~cache_bound:plan_cache_bound ?store ~socket Alphabet.dna db
      in
      let code =
        match Server.run_blocking cfg with
        | () -> 0
        | exception e ->
            prerr_endline ("perfbench server: " ^ Printexc.to_string e);
            1
      in
      let g1 = Gc.quick_stat () in
      let r =
        {
          gen_s = t1 -. t0;
          store_s = t2 -. t1;
          index_bytes_per_byte = index_bytes_per_byte db store;
          vm_hwm_kb = peak_rss_kb ();
          minor_words = g1.Gc.minor_words -. g0.Gc.minor_words;
          major_collections = g1.Gc.major_collections - g0.Gc.major_collections;
        }
      in
      let oc = Unix.out_channel_of_descr wr in
      Marshal.to_channel oc r [];
      close_out oc;
      Unix._exit code
  | pid ->
      Unix.close wr;
      { pid; from_child = rd; socket }

(* Poll until the server answers PING. *)
let wait_ready ?(timeout = 30.0) t =
  let deadline = Unix.gettimeofday () +. timeout in
  let rec go () =
    match Client.connect t.socket with
    | c ->
        let ok = Client.ping c in
        Client.close c;
        if not ok then failwith "server did not answer PING"
    | exception Unix.Unix_error _ ->
        if Unix.gettimeofday () > deadline then
          failwith "server did not come up";
        Unix.sleepf 0.002;
        go ()
  in
  go ()

(* SIGINT makes [Server.run_blocking] drain and return; the child then
   reports and exits. *)
let stop t =
  (try Unix.kill t.pid Sys.sigint with Unix.Unix_error _ -> ());
  let ic = Unix.in_channel_of_descr t.from_child in
  let r : report option =
    match Marshal.from_channel ic with
    | r -> Some r
    | exception (End_of_file | Failure _) -> None
  in
  close_in ic;
  let _, status = Unix.waitpid [] t.pid in
  match (r, status) with
  | Some r, Unix.WEXITED 0 -> r
  | _ -> failwith "server child failed"

let stats t =
  let c = Client.connect t.socket in
  Fun.protect ~finally:(fun () -> Client.close c) @@ fun () ->
  match Client.stats c with
  | Ok kv -> kv
  | Error e -> failwith ("STATS: " ^ e)
