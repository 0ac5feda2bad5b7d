(* The real server binary as a child process: spawn, wait for the first
   answered ping, read its peak RSS, shut it down and reap it. *)

module P = Service.Protocol
module C = Service.Client

type t = { pid : int; sock : string; mutable reaped : bool }

(* Every child still running when the benchmark exits is killed and
   reaped, whatever path the exit took. *)
let live : t list ref = ref []

let reap t status =
  t.reaped <- true;
  live := List.filter (fun s -> s != t) !live;
  status

let kill_all () =
  List.iter
    (fun t ->
      (try Unix.kill t.pid Sys.sigkill with Unix.Unix_error _ -> ());
      (try ignore (Unix.waitpid [] t.pid) with Unix.Unix_error _ -> ());
      t.reaped <- true)
    !live;
  live := []

let () = at_exit kill_all

let recv_timeout_ms = 30_000

(* [sock] is relative to the working directory the server shares with
   the benchmark, which keeps it under the Unix-socket path limit however
   deep the checkout is. *)
let spawn ~exe ~sock ~log ~installs ~data_dir =
  (try Sys.remove sock with Sys_error _ -> ());
  let args =
    [ exe; "serve"; "--graph"; World.graph_spec; "--socket"; sock ]
    @ List.concat_map (fun f -> [ "--install"; f ]) installs
    @ match data_dir with Some d -> [ "--data-dir"; d ] | None -> []
  in
  let fd = Unix.openfile log [ Unix.O_WRONLY; Unix.O_CREAT; Unix.O_APPEND ] 0o644 in
  let pid =
    Fun.protect
      ~finally:(fun () -> Unix.close fd)
      (fun () -> Unix.create_process exe (Array.of_list args) Unix.stdin fd fd)
  in
  let t = { pid; sock; reaped = false } in
  live := t :: !live;
  t

exception Died of string

let exited t =
  if t.reaped then true
  else
    match Unix.waitpid [ Unix.WNOHANG ] t.pid with
    | 0, _ -> false
    | _, _ -> ignore (reap t ()); true

(* Connect as soon as the socket accepts, then ping: returns the client
   once the server has answered. *)
let connect_ready ?(timeout_s = 60.0) t =
  let deadline = Unix.gettimeofday () +. timeout_s in
  let rec dial () =
    match C.connect ~recv_timeout_ms (`Unix t.sock) with
    | c -> c
    | exception Unix.Unix_error _ ->
      if exited t then raise (Died "server exited before accepting connections");
      if Unix.gettimeofday () > deadline then raise (Died "server did not start in time");
      Unix.sleepf 0.0005;
      dial ()
  in
  let c = dial () in
  match C.ping c with
  | P.Pong -> c
  | _ -> C.close c; raise (Died "ping was not answered with pong")

let connect t = C.connect ~recv_timeout_ms (`Unix t.sock)

(* Peak resident set (VmHWM) in MiB. *)
let peak_rss_mb t =
  In_channel.with_open_text (Printf.sprintf "/proc/%d/status" t.pid) (fun ic ->
      let rec go () =
        match In_channel.input_line ic with
        | None -> nan
        | Some l when String.length l > 6 && String.sub l 0 6 = "VmHWM:" ->
          Scanf.sscanf (String.sub l 6 (String.length l - 6)) " %d kB" (fun kb -> float_of_int kb /. 1024.0)
        | Some _ -> go ()
      in
      go ())

(* Graceful stop through the protocol; the exit status must be 0. *)
let shutdown t =
  (match connect t with
   | c ->
     (try ignore (C.shutdown c) with C.Error _ | Unix.Unix_error _ -> ());
     C.close c
   | exception Unix.Unix_error _ -> ());
  let deadline = Unix.gettimeofday () +. 20.0 in
  let rec wait () =
    match Unix.waitpid [ Unix.WNOHANG ] t.pid with
    | 0, _ when Unix.gettimeofday () < deadline -> Unix.sleepf 0.005; wait ()
    | 0, _ ->
      Unix.kill t.pid Sys.sigkill;
      ignore (Unix.waitpid [] t.pid);
      reap t (Error "server did not stop within 20 s")
    | _, Unix.WEXITED 0 -> reap t (Ok ())
    | _, _ -> reap t (Error "server exited with a failure status")
  in
  if t.reaped then Ok () else wait ()
