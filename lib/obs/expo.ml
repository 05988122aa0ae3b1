(* Minimal HTTP/1.1 server — blocking Unix sockets, no external
   dependencies. This is deliberately not a general web server: one
   accept loop on a dedicated domain hands each connection to a fixed
   pool of worker domains (or handles it inline when [workers = 0],
   the metrics-scraper configuration), every response carries
   [Connection: close], and admission is a single saturation gate at
   accept time.

   Concurrency model (see docs/CONCURRENCY.md):

   - the acceptor owns the listening socket. For every accepted
     connection it first applies the admission gate: when
     [max_inflight > 0] and that many connections are already accepted
     but unfinished, the connection is shed immediately with a canned
     503 carrying [Retry-After] — it never reaches a worker, so a
     saturated server keeps answering shed decisions at accept speed
     instead of queueing unboundedly.
   - admitted connections go to a mutex+condvar FIFO drained by the
     worker domains; each worker parses, runs the handler and writes
     the response for one connection at a time. With [workers = 0] the
     acceptor handles the connection itself — exactly the historical
     sequential server.
   - a client that disappears mid-response (EPIPE / ECONNRESET) costs
     the server nothing: SIGPIPE is ignored process-wide on [start],
     and the per-connection write path swallows broken-pipe errors.

   Built-in routes: GET /metrics (Prometheus text exposition of the
   whole Metrics registry, after running the [collect] callback so
   gauges derived from live state are fresh) and GET /healthz. An
   [extra] handler runs first, so an embedding server (xquec serve)
   can add query endpoints without this module knowing about them. *)

type request = {
  meth : string;  (* "GET", "POST", ... *)
  path : string;  (* decoded path without the query string *)
  query : (string * string) list;  (* decoded query parameters, in order *)
  body : string;
}

type response = {
  status : int;
  content_type : string;
  headers : (string * string) list;  (* extra headers, e.g. Retry-After *)
  body : string;
}

(* Everything one server keeps: the listening socket, the queue of
   admitted connections, its admission counters (any of its domains may
   bump them; a /metrics collect callback reads them) and its domains. *)
type t = {
  sock : Unix.file_descr;
  port : int;
  workers : int;  (* worker pool size *)
  stopping : bool Atomic.t;
  wq : Unix.file_descr Queue.t;  (* admitted connections awaiting a worker *)
  wq_mutex : Mutex.t;
  wq_cond : Condition.t;
  accepted : int Atomic.t;  (* connections admitted past the gate *)
  handled : int Atomic.t;  (* connections fully served *)
  rejected : int Atomic.t;  (* connections shed with the canned 503 *)
  inflight : int Atomic.t;  (* admitted but not yet finished *)
  inflight_hw : int Atomic.t;  (* high-water mark of the above *)
  mutable domains : unit Domain.t list;  (* the acceptor, then the workers; set by [start] *)
}

type handler = request -> response option

let status_text = function
  | 200 -> "OK"
  | 204 -> "No Content"
  | 400 -> "Bad Request"
  | 404 -> "Not Found"
  | 405 -> "Method Not Allowed"
  | 408 -> "Request Timeout"
  | 429 -> "Too Many Requests"
  | 500 -> "Internal Server Error"
  | 503 -> "Service Unavailable"
  | _ -> "Unknown"

let respond ?(headers = []) (status : int) (content_type : string) (body : string) :
    response =
  { status; content_type; headers; body }

(* --- serving statistics ---------------------------------------------- *)

let rec atomic_max a v =
  let cur = Atomic.get a in
  if v > cur && not (Atomic.compare_and_set a cur v) then atomic_max a v

type stats = {
  e_workers : int;
  e_accepted : int;
  e_handled : int;
  e_rejected : int;
  e_inflight : int;
  e_inflight_high_water : int;
}

let stats (t : t) : stats =
  {
    e_workers = t.workers;
    e_accepted = Atomic.get t.accepted;
    e_handled = Atomic.get t.handled;
    e_rejected = Atomic.get t.rejected;
    e_inflight = Atomic.get t.inflight;
    e_inflight_high_water = Atomic.get t.inflight_hw;
  }

(* --- request parsing ------------------------------------------------- *)

let percent_decode (s : string) : string =
  let buf = Buffer.create (String.length s) in
  let n = String.length s in
  let hex c =
    match c with
    | '0' .. '9' -> Some (Char.code c - Char.code '0')
    | 'a' .. 'f' -> Some (Char.code c - Char.code 'a' + 10)
    | 'A' .. 'F' -> Some (Char.code c - Char.code 'A' + 10)
    | _ -> None
  in
  let i = ref 0 in
  while !i < n do
    (match s.[!i] with
    | '%' when !i + 2 < n -> (
      match (hex s.[!i + 1], hex s.[!i + 2]) with
      | Some h, Some l ->
        Buffer.add_char buf (Char.chr ((h * 16) + l));
        i := !i + 2
      | _ -> Buffer.add_char buf '%')
    | '+' -> Buffer.add_char buf ' '
    | c -> Buffer.add_char buf c);
    incr i
  done;
  Buffer.contents buf

let parse_query (s : string) : (string * string) list =
  String.split_on_char '&' s
  |> List.filter_map (fun kv ->
         if kv = "" then None
         else
           match String.index_opt kv '=' with
           | None -> Some (percent_decode kv, "")
           | Some eq ->
             Some
               ( percent_decode (String.sub kv 0 eq),
                 percent_decode (String.sub kv (eq + 1) (String.length kv - eq - 1)) ))

exception Bad_request of string

(* Hard ceilings: a scraper or the serve CLI never comes close, so
   anything beyond them is a confused or hostile client and earns a
   400 instead of unbounded buffering. *)
let max_line_bytes = 8 * 1024
let max_body_bytes = 16 * 1024 * 1024

(* Read one CRLF- (or LF-) terminated line, without the terminator,
   refusing lines longer than [max_line_bytes]. [End_of_file] escapes
   only when the connection closes before the first byte (a probe or a
   scraper going away — dropped silently by the caller); a close
   mid-line is a malformed request and earns a 400. *)
let read_line_crlf (ic : in_channel) : string =
  let buf = Buffer.create 128 in
  let rec go () =
    match input_char ic with
    | '\n' -> Buffer.contents buf
    | c ->
      if Buffer.length buf >= max_line_bytes then raise (Bad_request "header line too long");
      Buffer.add_char buf c;
      go ()
    | exception End_of_file ->
      if Buffer.length buf = 0 then raise End_of_file
      else raise (Bad_request "premature end of request")
  in
  let line = go () in
  let n = String.length line in
  if n > 0 && line.[n - 1] = '\r' then String.sub line 0 (n - 1) else line

let parse_request (ic : in_channel) : request =
  let request_line = read_line_crlf ic in
  let meth, target =
    match String.split_on_char ' ' request_line with
    | [ m; t; _version ] -> (m, t)
    | _ -> raise (Bad_request "malformed request line")
  in
  (* headers: we only need Content-Length, but a malformed value must
     not be silently read as "no body" *)
  let content_length = ref None in
  let rec headers () =
    let line = try read_line_crlf ic with End_of_file -> raise (Bad_request "premature end of request") in
    if line <> "" then begin
      (match String.index_opt line ':' with
      | Some colon ->
        let k = String.lowercase_ascii (String.trim (String.sub line 0 colon)) in
        let v = String.trim (String.sub line (colon + 1) (String.length line - colon - 1)) in
        if k = "content-length" then begin
          match int_of_string_opt v with
          | Some n when n >= 0 -> content_length := Some n
          | _ -> raise (Bad_request "malformed Content-Length")
        end
      | None -> ());
      headers ()
    end
  in
  headers ();
  let body =
    match (!content_length, meth) with
    | None, ("POST" | "PUT" | "PATCH") -> raise (Bad_request "missing Content-Length")
    | None, _ | Some 0, _ -> ""
    | Some n, _ when n > max_body_bytes -> raise (Bad_request "body too large")
    | Some n, _ -> (
      try really_input_string ic n with End_of_file -> raise (Bad_request "truncated body"))
  in
  let path, query =
    match String.index_opt target '?' with
    | None -> (target, [])
    | Some q ->
      ( String.sub target 0 q,
        parse_query (String.sub target (q + 1) (String.length target - q - 1)) )
  in
  { meth; path = percent_decode path; query; body }

let write_response (oc : out_channel) (r : response) : unit =
  Printf.fprintf oc "HTTP/1.1 %d %s\r\n" r.status (status_text r.status);
  Printf.fprintf oc "Content-Type: %s\r\n" r.content_type;
  List.iter (fun (k, v) -> Printf.fprintf oc "%s: %s\r\n" k v) r.headers;
  Printf.fprintf oc "Content-Length: %d\r\n" (String.length r.body);
  output_string oc "Connection: close\r\n\r\n";
  output_string oc r.body;
  flush oc

(* --- routing --------------------------------------------------------- *)

let builtin_routes ~(collect : unit -> unit) (req : request) : response =
  match (req.meth, req.path) with
  | "GET", "/metrics" ->
    collect ();
    respond 200 "text/plain; version=0.0.4; charset=utf-8" (Metrics.to_prometheus ())
  | "GET", "/healthz" -> respond 200 "text/plain; charset=utf-8" "ok\n"
  | _, ("/metrics" | "/healthz") -> respond 405 "text/plain; charset=utf-8" "method not allowed\n"
  | _ -> respond 404 "text/plain; charset=utf-8" "not found\n"

(* A client gone mid-connection must never take the server down: with
   SIGPIPE ignored, a write to a reset connection surfaces as EPIPE /
   ECONNRESET (as a Unix_error from the syscall or a Sys_error through
   the channel layer) and is simply dropped — the response has no one
   left to read it. *)
let handle_connection ~(extra : handler) ~(collect : unit -> unit) (fd : Unix.file_descr) :
    unit =
  let ic = Unix.in_channel_of_descr fd in
  let oc = Unix.out_channel_of_descr fd in
  (try
     let req = parse_request ic in
     let resp =
       try
         match extra req with
         | Some r -> r
         | None -> builtin_routes ~collect req
       with e ->
         respond 500 "text/plain; charset=utf-8" (Printexc.to_string e ^ "\n")
     in
     write_response oc resp
   with
  | Bad_request msg ->
    (try write_response oc (respond 400 "text/plain; charset=utf-8" (msg ^ "\n"))
     with _ -> ())
  | End_of_file | Sys_error _ -> ()
  | Unix.Unix_error ((Unix.EPIPE | Unix.ECONNRESET | Unix.ENOTCONN), _, _) -> ());
  (* closing the channel closes the underlying fd *)
  try close_out_noerr oc with _ -> ()

(* --- admission ------------------------------------------------------- *)

(* The canned saturation reply, written by the acceptor without parsing
   the request. Best effort: the client's request bytes are drained
   once (short timeout) so the kernel does not RST the connection with
   unread data and destroy the 503 in flight; any error just drops the
   connection, which to the client is indistinguishable from overload. *)
let shed_response =
  let body = "{\"error\":\"saturated\",\"detail\":\"too many in-flight requests\"}\n" in
  Printf.sprintf
    "HTTP/1.1 503 Service Unavailable\r\n\
     Content-Type: application/json; charset=utf-8\r\n\
     Retry-After: 1\r\n\
     Content-Length: %d\r\n\
     Connection: close\r\n\r\n%s"
    (String.length body) body

let shed (t : t) (fd : Unix.file_descr) : unit =
  Atomic.incr t.rejected;
  (try
     (try
        Unix.setsockopt_float fd Unix.SO_RCVTIMEO 0.05;
        ignore (Unix.read fd (Bytes.create max_line_bytes) 0 max_line_bytes)
      with _ -> ());
     ignore (Unix.write_substring fd shed_response 0 (String.length shed_response))
   with _ -> ());
  try Unix.close fd with _ -> ()

(* --- lifecycle ------------------------------------------------------- *)

let finish_connection (t : t) ~extra ~collect (fd : Unix.file_descr) : unit =
  handle_connection ~extra ~collect fd;
  Atomic.decr t.inflight;
  Atomic.incr t.handled

let worker_loop (t : t) ~extra ~collect () : unit =
  let rec loop () =
    Mutex.lock t.wq_mutex;
    while Queue.is_empty t.wq && not (Atomic.get t.stopping) do
      Condition.wait t.wq_cond t.wq_mutex
    done;
    if Queue.is_empty t.wq then Mutex.unlock t.wq_mutex (* stopping and drained *)
    else begin
      let fd = Queue.pop t.wq in
      Mutex.unlock t.wq_mutex;
      finish_connection t ~extra ~collect fd;
      loop ()
    end
  in
  loop ()

let accept_loop (t : t) ~(max_inflight : int) ~extra ~collect () : unit =
  let rec loop () =
    if not (Atomic.get t.stopping) then begin
      (match Unix.accept t.sock with
      | fd, _addr ->
        if Atomic.get t.stopping then (try Unix.close fd with _ -> ())
        else if max_inflight > 0 && Atomic.get t.inflight >= max_inflight then shed t fd
        else begin
          Atomic.incr t.accepted;
          let inflight = 1 + Atomic.fetch_and_add t.inflight 1 in
          atomic_max t.inflight_hw inflight;
          if t.workers > 0 then begin
            Mutex.lock t.wq_mutex;
            Queue.add fd t.wq;
            Condition.signal t.wq_cond;
            Mutex.unlock t.wq_mutex
          end
          else finish_connection t ~extra ~collect fd
        end
      | exception Unix.Unix_error ((Unix.EBADF | Unix.EINVAL), _, _) ->
        (* listen socket closed by [stop] *)
        Atomic.set t.stopping true
      | exception Unix.Unix_error (Unix.EINTR, _, _) -> ()
      | exception _ -> ());
      loop ()
    end
  in
  loop ()

let start ?(host = "127.0.0.1") ~(port : int) ?(workers = 0) ?(max_inflight = 0)
    ?(extra : t -> handler = fun _ _ -> None) ?(collect : t -> unit = fun _ -> ()) () : t =
  (* A client may close its half of the connection while a worker is
     still writing; without this, the resulting SIGPIPE would kill the
     whole process instead of surfacing as a catchable EPIPE. *)
  (try ignore (Sys.signal Sys.sigpipe Sys.Signal_ignore) with Invalid_argument _ -> ());
  let workers = max 0 workers in
  let sock = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
  (try
     Unix.setsockopt sock Unix.SO_REUSEADDR true;
     Unix.bind sock (Unix.ADDR_INET (Unix.inet_addr_of_string host, port));
     Unix.listen sock (max 16 (2 * max_inflight))
   with e ->
     (try Unix.close sock with _ -> ());
     raise e);
  let actual_port =
    match Unix.getsockname sock with Unix.ADDR_INET (_, p) -> p | _ -> port
  in
  let t =
    {
      sock;
      port = actual_port;
      workers;
      stopping = Atomic.make false;
      wq = Queue.create ();
      wq_mutex = Mutex.create ();
      wq_cond = Condition.create ();
      accepted = Atomic.make 0;
      handled = Atomic.make 0;
      rejected = Atomic.make 0;
      inflight = Atomic.make 0;
      inflight_hw = Atomic.make 0;
      domains = [];
    }
  in
  let extra = extra t and collect () = collect t in
  let worker_domains =
    List.init workers (fun _ -> Domain.spawn (worker_loop t ~extra ~collect))
  in
  t.domains <- Domain.spawn (accept_loop t ~max_inflight ~extra ~collect) :: worker_domains;
  t

let port (t : t) : int = t.port

let stop (t : t) : unit =
  if not (Atomic.get t.stopping) then begin
    Atomic.set t.stopping true;
    (* Closing the fd does NOT wake a thread already parked in accept()
       on Linux, so the acceptor must be woken explicitly: shutdown on
       the listening socket makes the blocked accept fail (EINVAL), and
       a loopback self-connection is the portable fallback — the loop
       re-checks [stopping] after handling it. Only close after the
       join, so the acceptor never races a recycled fd number. *)
    (try Unix.shutdown t.sock Unix.SHUTDOWN_ALL with _ -> ());
    (try
       let addr =
         match Unix.getsockname t.sock with
         | Unix.ADDR_INET (a, p) when a <> Unix.inet_addr_any -> Unix.ADDR_INET (a, p)
         | _ -> Unix.ADDR_INET (Unix.inet_addr_loopback, t.port)
       in
       let s = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
       (try Unix.connect s addr with _ -> ());
       (try Unix.close s with _ -> ())
     with _ -> ());
    let acceptor, workers = (List.hd t.domains, List.tl t.domains) in
    Domain.join acceptor;
    (* Workers drain the queue (in-flight requests finish), then exit on
       the stopping flag. *)
    Mutex.lock t.wq_mutex;
    Condition.broadcast t.wq_cond;
    Mutex.unlock t.wq_mutex;
    List.iter Domain.join workers;
    (try Unix.close t.sock with _ -> ())
  end

let wait (t : t) : unit = List.iter Domain.join t.domains
