(* A closed-loop load generator: [C] connections driven from one process
   with [select], each sending its next request only after the reply to
   the previous one.  Time is measured on the client side of the socket
   only: from just before a request is written to when its last reply
   byte is read. *)

(* Seconds on the monotonic clock. *)
let now () = Int64.to_float (Monotonic_clock.now ()) *. 1e-9

type outcome =
  | Correct
  | Wrong  (** a well-formed reply that differs from the oracle's. *)
  | Err of string  (** an [ERR] reply. *)
  | Dropped of string  (** [BUSY], or a connection failure. *)

type sample = {
  template : string;
  at : float;  (** completion time. *)
  latency : float;
  outcome : outcome;
}

type conn = {
  fd : Unix.file_descr;
  mutable buf : Bytes.t;
  mutable len : int;
  mutable header_end : int;  (** index after the status line, or -1. *)
  mutable scanned : int;  (** bytes already searched for newlines. *)
  mutable lines_left : int;  (** payload lines still expected. *)
  mutable req : Spec.request option;
  mutable sent_at : float;
  mutable alive : bool;
}

let connect socket =
  let fd = Unix.socket ~cloexec:true Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  Unix.connect fd (Unix.ADDR_UNIX socket);
  {
    fd;
    buf = Bytes.create 65536;
    len = 0;
    header_end = -1;
    scanned = 0;
    lines_left = 0;
    req = None;
    sent_at = 0.0;
    alive = true;
  }

let rec write_all fd s off =
  if off < String.length s then
    write_all fd s (off + Unix.write_substring fd s off (String.length s - off))

let send c (r : Spec.request) =
  c.len <- 0;
  c.header_end <- -1;
  c.scanned <- 0;
  c.req <- Some r;
  c.sent_at <- now ();
  write_all c.fd (r.line ^ "\n") 0

(* Advance the reply parser over newly read bytes; [Some outcome] once
   the reply is complete. *)
let rec newline c i =
  if i >= c.len then None
  else if Bytes.unsafe_get c.buf i = '\n' then Some i
  else newline c (i + 1)

let rec parse c =
  match newline c c.scanned with
  | Some i ->
      c.scanned <- i + 1;
      if c.header_end < 0 then begin
        c.header_end <- i + 1;
        let status = Bytes.sub_string c.buf 0 i in
        match Scanf.sscanf_opt status "OK %d%!" Fun.id with
        | Some n ->
            c.lines_left <- n;
            if n = 0 then Some (check c) else parse c
        | None when String.starts_with ~prefix:"ERR" status ->
            Some (Err status)
        | None -> Some (Dropped status)
      end
      else begin
        c.lines_left <- c.lines_left - 1;
        if c.lines_left = 0 then Some (check c) else parse c
      end
  | None ->
      c.scanned <- c.len;
      None

and check c =
  let r = Option.get c.req in
  let n = c.len - c.header_end in
  if
    n = String.length r.Spec.expected
    && Bytes.sub_string c.buf c.header_end n = r.Spec.expected
  then Correct
  else Wrong

let read c =
  if Bytes.length c.buf - c.len < 65536 then begin
    let b = Bytes.create (2 * Bytes.length c.buf) in
    Bytes.blit c.buf 0 b 0 c.len;
    c.buf <- b
  end;
  match Unix.read c.fd c.buf c.len 65536 with
  | 0 -> Some (Dropped "connection closed")
  | k ->
      c.len <- c.len + k;
      parse c
  | exception Unix.Unix_error (e, _, _) ->
      Some (Dropped (Unix.error_message e))

type result = {
  samples : sample array;  (** in completion order. *)
  started : float;
  finished : float;  (** completion time of the last reply. *)
}

(* Drive [conns] connections until [seconds] have passed; requests are
   taken in stream order from [next].  Requests in flight at the deadline
   complete and count. *)
let run ~socket ~conns ~seconds ~(next : unit -> Spec.request) =
  let cs = List.init conns (fun _ -> connect socket) in
  Fun.protect ~finally:(fun () ->
      List.iter (fun c -> try Unix.close c.fd with Unix.Unix_error _ -> ()) cs)
  @@ fun () ->
  let samples = ref [] in
  let started = now () in
  let deadline = started +. seconds in
  let finished = ref started in
  List.iter (fun c -> send c (next ())) cs;
  let rec loop () =
    let waiting = List.filter (fun c -> c.alive && c.req <> None) cs in
    if waiting <> [] then begin
      let ready =
        match Unix.select (List.map (fun c -> c.fd) waiting) [] [] 5.0 with
        | r, _, _ -> r
        | exception Unix.Unix_error (Unix.EINTR, _, _) -> []
      in
      if ready = [] && now () > deadline +. 60.0 then
        failwith "no reply for a minute after the deadline";
      List.iter
        (fun c ->
          if List.mem c.fd ready then
            match read c with
            | None -> ()
            | Some outcome ->
                let now = now () in
                finished := now;
                samples :=
                  {
                    template = (Option.get c.req).Spec.template;
                    at = now;
                    latency = now -. c.sent_at;
                    outcome;
                  }
                  :: !samples;
                c.req <- None;
                (match outcome with Dropped _ -> c.alive <- false | _ -> ());
                if c.alive && now < deadline then send c (next ()))
        waiting;
      loop ()
    end
  in
  loop ();
  { samples = Array.of_list (List.rev !samples); started; finished = !finished }
