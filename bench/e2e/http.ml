(* A blocking HTTP/1.1 client with socket timeouts, so a stalled server
   fails a request instead of hanging the benchmark; the [xquec serve]
   subprocess the http_point workload drives; and the /proc readings of
   the process doing a workload's work (the server, or this one). *)

let timeout_s = 5.0

let find_sub (s : string) (sub : string) : int option =
  let n = String.length s and m = String.length sub in
  let rec go i = if i + m > n then None else if String.sub s i m = sub then Some i else go (i + 1) in
  go 0

(* One request over a fresh connection (the server closes after every
   response); returns the status and the body. Raises [Unix.Unix_error]
   on a refused connection or a timeout. *)
let request ~(port : int) ?(meth = "GET") ?(body = "") (target : string) : int * string =
  let sock = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
  Fun.protect ~finally:(fun () -> Unix.close sock) @@ fun () ->
  Unix.setsockopt_float sock Unix.SO_RCVTIMEO timeout_s;
  Unix.setsockopt_float sock Unix.SO_SNDTIMEO timeout_s;
  Unix.connect sock (Unix.ADDR_INET (Unix.inet_addr_loopback, port));
  let req =
    Printf.sprintf
      "%s %s HTTP/1.1\r\nHost: 127.0.0.1\r\nContent-Length: %d\r\nConnection: close\r\n\r\n%s"
      meth target (String.length body) body
  in
  let n = String.length req in
  let rec send off = if off < n then send (off + Unix.write_substring sock req off (n - off)) in
  send 0;
  let buf = Buffer.create 512 and chunk = Bytes.create 16384 in
  let rec recv () =
    match Unix.read sock chunk 0 (Bytes.length chunk) with
    | 0 -> ()
    | k ->
      Buffer.add_subbytes buf chunk 0 k;
      recv ()
  in
  recv ();
  let raw = Buffer.contents buf in
  let status = try int_of_string (String.sub raw 9 3) with _ -> 0 in
  match find_sub raw "\r\n\r\n" with
  | Some i -> (status, String.sub raw (i + 4) (String.length raw - i - 4))
  | None -> (status, "")

(* --- the server process -------------------------------------------- *)

type server = { pid : int; port : int }

let read_file path = In_channel.with_open_bin path In_channel.input_all

(* The port [xquec serve -p 0] announces in its "listening on" line,
   once the whole line (digits and the text after them) is written. *)
let announced_port (log : string) : int option =
  let text = try read_file log with Sys_error _ -> "" in
  let key = "listening on http://127.0.0.1:" in
  match find_sub text key with
  | None -> None
  | Some i ->
    let s = i + String.length key in
    let j = ref s in
    while !j < String.length text && text.[!j] >= '0' && text.[!j] <= '9' do
      incr j
    done;
    if !j < String.length text && text.[!j] = ' ' then int_of_string_opt (String.sub text s (!j - s))
    else None

let stop (s : server) : unit =
  (try Unix.kill s.pid Sys.sigterm with Unix.Unix_error _ -> ());
  let rec reap tries =
    match Unix.waitpid [ Unix.WNOHANG ] s.pid with
    | 0, _ when tries > 0 ->
      Unix.sleepf 0.01;
      reap (tries - 1)
    | 0, _ ->
      (try Unix.kill s.pid Sys.sigkill with Unix.Unix_error _ -> ());
      ignore (Unix.waitpid [] s.pid)
    | _ -> ()
    | exception Unix.Unix_error (Unix.EINTR, _, _) -> reap tries
    | exception Unix.Unix_error (Unix.ECHILD, _, _) -> ()
  in
  reap 300

(* Start [exe serve image -p 0] with its default flags, and return it
   once GET /healthz answers 200. *)
let spawn ~(exe : string) ~(image : string) ~(log : string) : server =
  let t0 = Unix.gettimeofday () in
  let out = Unix.openfile log [ Unix.O_WRONLY; Unix.O_CREAT; Unix.O_TRUNC ] 0o644 in
  let null = Unix.openfile "/dev/null" [ Unix.O_RDONLY ] 0 in
  let pid = Unix.create_process exe [| exe; "serve"; image; "-p"; "0" |] null out out in
  Unix.close out;
  Unix.close null;
  let s = { pid; port = 0 } in
  let rec poll f =
    if Unix.gettimeofday () -. t0 > 30.0 then begin
      stop s;
      failwith ("xquec serve did not become ready; see " ^ log)
    end;
    match f () with
    | Some v -> v
    | None ->
      (match Unix.waitpid [ Unix.WNOHANG ] pid with
      | 0, _ -> ()
      | _ -> failwith ("xquec serve exited at start-up; see " ^ log));
      Unix.sleepf 0.001;
      poll f
  in
  let port = poll (fun () -> announced_port log) in
  poll (fun () ->
      match request ~port "/healthz" with
      | 200, _ -> Some ()
      | _ -> None
      | exception Unix.Unix_error _ -> None);
  { pid; port }

(* --- /proc ------------------------------------------------------------ *)

(* Peak resident set (VmHWM) of a process ("self" or a pid), in MiB. *)
let peak_rss_mb (pid : string) : float =
  let status = read_file (Printf.sprintf "/proc/%s/status" pid) in
  match find_sub status "VmHWM:" with
  | None -> Float.nan
  | Some i ->
    let line = String.sub status (i + 6) (String.index_from status i '\n' - i - 6) in
    let kb = List.find (fun w -> w <> "") (String.split_on_char ' ' (String.trim line)) in
    float_of_string kb /. 1024.0

(* User + system CPU seconds of a child process, from /proc/PID/stat
   (fields 14 and 15, in USER_HZ = 100 ticks per second). *)
let cpu_s (pid : int) : float =
  let stat = read_file (Printf.sprintf "/proc/%d/stat" pid) in
  let from = String.rindex stat ')' + 2 in
  (* fields from the third (state) on: utime is field 14 *)
  let fields = Array.of_list (String.split_on_char ' ' (String.sub stat from (String.length stat - from))) in
  (float_of_string fields.(11) +. float_of_string fields.(12)) /. 100.0
