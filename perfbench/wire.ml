(* The real deployment: a [jqinfer serve --listen] child process and
   TCP client connections speaking the JSON-lines protocol to it. *)

module P = Jqi_server.Protocol

type server = { pid : int; port : int; workers : int option  (** as the server reports it *) }

(* Servers spawned and not yet stopped, so an interrupted run can still
   stop them (see [stop_all]).  Only the main thread spawns and stops. *)
let running : server list ref = ref []

(* Read to EOF (files under /proc report no length). *)
let read_file path =
  match open_in_bin path with
  | exception Sys_error _ -> ""
  | ic -> Fun.protect ~finally:(fun () -> close_in ic) (fun () -> In_channel.input_all ic)

(* The number right after [marker] in [text]. *)
let int_after marker text =
  let ml = String.length marker in
  let rec find i =
    if i + ml > String.length text then None
    else if String.equal (String.sub text i ml) marker then
      let j = ref (i + ml) in
      while !j < String.length text && text.[!j] >= '0' && text.[!j] <= '9' do incr j done;
      int_of_string_opt (String.sub text (i + ml) (!j - i - ml))
    else find (i + 1)
  in
  find 0

(* The port and worker count from the server's
   "jqinfer: listening on 127.0.0.1:PORT (N workers, ...)" line. *)
let port_of_log = int_after "listening on 127.0.0.1:"
let workers_of_log text =
  let marker = "listening on " in
  let ml = String.length marker in
  let rec from i =
    if i + ml > String.length text then None
    else if String.equal (String.sub text i ml) marker then int_after "(" (String.sub text i (String.length text - i))
    else from (i + 1)
  in
  from 0

let wait_exit ?(timeout = 10.) pid =
  let deadline = Unix.gettimeofday () +. timeout in
  let rec go () =
    match Unix.waitpid [ Unix.WNOHANG ] pid with
    | 0, _ when Unix.gettimeofday () < deadline ->
        Unix.sleepf 0.01;
        go ()
    | 0, _ ->
        (try Unix.kill pid Sys.sigkill with Unix.Unix_error _ -> ());
        ignore (Unix.waitpid [] pid)
    | _ -> ()
    | exception Unix.Unix_error (Unix.EINTR, _, _) -> go ()
  in
  go ()

(* Spawn the server with its temporary files kept under [tmpdir], and
   wait until it listens.  [Error] carries its log when it never does. *)
let spawn ~exe ~args ~log ~tmpdir =
  let env =
    Array.append
      [| "TMPDIR=" ^ tmpdir |]
      (Array.of_list
         (List.filter
            (fun kv -> not (String.starts_with ~prefix:"TMPDIR=" kv))
            (Array.to_list (Unix.environment ()))))
  in
  let out = Unix.openfile log [ Unix.O_WRONLY; Unix.O_CREAT; Unix.O_TRUNC ] 0o644 in
  let null = Unix.openfile "/dev/null" [ Unix.O_RDWR ] 0 in
  let pid =
    Fun.protect
      ~finally:(fun () -> Unix.close out; Unix.close null)
      (fun () ->
        Unix.create_process_env exe (Array.of_list (exe :: "serve" :: args)) env null null out)
  in
  let deadline = Unix.gettimeofday () +. 60. in
  let rec wait () =
    let text = read_file log in
    match port_of_log text with
    | Some port ->
        let server = { pid; port; workers = workers_of_log text } in
        running := server :: !running;
        Ok server
    | None -> (
        match Unix.waitpid [ Unix.WNOHANG ] pid with
        | 0, _ when Unix.gettimeofday () < deadline ->
            Unix.sleepf 0.002;
            wait ()
        | 0, _ ->
            (try Unix.kill pid Sys.sigkill with Unix.Unix_error _ -> ());
            wait_exit pid;
            Error ("server did not start listening: " ^ read_file log)
        | _ -> Error ("server exited: " ^ read_file log))
  in
  wait ()

(* The server's peak resident set (VmHWM), in MiB. *)
let peak_rss_mb server =
  let status = read_file (Printf.sprintf "/proc/%d/status" server.pid) in
  List.fold_left
    (fun acc line ->
      match String.split_on_char ':' line with
      | [ "VmHWM"; v ] -> (
          match String.split_on_char ' ' (String.trim v) with
          | kb :: _ -> ( match float_of_string_opt kb with Some k -> k /. 1024. | None -> acc)
          | [] -> acc)
      | _ -> acc)
    nan
    (String.split_on_char '\n' status)

let stop server =
  running := List.filter (fun s -> s.pid <> server.pid) !running;
  (try Unix.kill server.pid Sys.sigterm with Unix.Unix_error _ -> ());
  wait_exit server.pid

let stop_all () = List.iter stop !running

type conn = {
  fd : Unix.file_descr;
  ic : in_channel;
  oc : out_channel;
  mutable id : int;
  mutable dead : bool;  (** a call failed: fail the rest fast *)
}

let timeout = 20.

let connect server =
  let fd = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
  Unix.connect fd (Unix.ADDR_INET (Unix.inet_addr_loopback, server.port));
  Unix.setsockopt fd Unix.TCP_NODELAY true;
  (* A reply that takes longer than [timeout] is a timeout, counted
     failed.  The slowest op here, a cold L2S open, takes under 0.5 s. *)
  Unix.setsockopt_float fd Unix.SO_RCVTIMEO timeout;
  { fd; ic = Unix.in_channel_of_descr fd; oc = Unix.out_channel_of_descr fd; id = 0; dead = false }

let disconnect conn = try Unix.close conn.fd with Unix.Unix_error _ -> ()

let call conn req =
  conn.id <- conn.id + 1;
  let result =
    if conn.dead then Error "connection already failed"
    else
      match
        output_string conn.oc (P.encode_request ~id:conn.id req);
        output_char conn.oc '\n';
        flush conn.oc;
        input_line conn.ic
      with
      | exception (End_of_file | Sys_error _ | Unix.Unix_error _) -> Error "disconnected or timed out"
      | line -> (
          match P.decode_response line with
          | Ok (id, resp) when Int.equal id conn.id -> Ok resp
          | Ok (id, _) -> Error (Printf.sprintf "reply id %d for request %d" id conn.id)
          | Error msg -> Error ("undecodable reply: " ^ msg))
  in
  if Result.is_error result then conn.dead <- true;
  result
