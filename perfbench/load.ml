(* Closed-loop load: one thread per connection, each sending its next
   request only after the previous reply arrived (application threads
   that wait on the service).  Answers are kept and checked after the
   window, so checking costs no time inside it. *)

module P = Service.Protocol
module C = Service.Client

type sample = {
  op : Gen.op;
  conn : int;
  t0 : float;
  ms : float;              (** client round trip *)
  outcome : Stats.outcome;
  resp : P.response option;
}

type stop = Count of int | Until of float

let drive ~connect ~conn ~next stop =
  let samples = ref [] in
  let client = ref (connect ()) in
  let n = ref 0 in
  let go () =
    match stop with Count k -> !n < k | Until t -> Unix.gettimeofday () < t
  in
  while go () do
    let op = next () in
    let req = P.Invoke (Gen.invoke_of_op op) in
    let t0 = Unix.gettimeofday () in
    let resp = try Ok (C.call !client req) with e -> Error e in
    let t1 = Unix.gettimeofday () in
    let outcome, resp =
      match resp with
      | Ok r -> (Stats.classify r, Some r)
      | Error e ->
        (* A broken connection fails this request; the loop goes on over
           a fresh one. *)
        (try C.close !client with _ -> ());
        client := connect ();
        (Stats.classify_exn e, None)
    in
    samples := { op; conn; t0; ms = (t1 -. t0) *. 1000.0; outcome; resp } :: !samples;
    incr n
  done;
  C.close !client;
  List.rev !samples

(* Runs every connection's stream on its own thread until [stop] (per
   connection); returns all samples in connection order. *)
let run ~connect streams stops =
  let results = Array.make (Array.length streams) (Ok []) in
  let threads =
    Array.mapi
      (fun i next ->
        Thread.create
          (fun () ->
            results.(i) <- (try Ok (drive ~connect ~conn:i ~next stops.(i)) with e -> Error e))
          ())
      streams
  in
  Array.iter Thread.join threads;
  List.concat_map (function Ok s -> s | Error e -> raise e) (Array.to_list results)
