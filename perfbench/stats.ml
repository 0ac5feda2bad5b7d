(* Latency summaries and failure accounting.

   Percentile rule: a timing is reported as its median and the highest
   percentile of [ladder] that still has at least ten samples beyond it,
   with the sample count.  A failed request counts as an infinitely slow
   one, so it misses every latency limit and drags the tail up instead of
   silently leaving the sample. *)

module P = Service.Protocol

type outcome =
  | Answered
  | Refused    (** the server declined to run it (overload, shutdown, ...) *)
  | Timed_out  (** deadline or budget hit, or no reply in time *)
  | Errored    (** any other error response or a broken connection *)

let failed = function Answered -> false | Refused | Timed_out | Errored -> true

let outcome_to_string = function
  | Answered -> "answered"
  | Refused -> "refused"
  | Timed_out -> "timed_out"
  | Errored -> "errored"

let classify : P.response -> outcome = function
  | P.Result _ -> Answered
  | P.Error
      ((P.Overloaded | P.Shutting_down | P.Read_only | P.Not_leader | P.Fenced | P.Stale), _, _) ->
    Refused
  | P.Error ((P.Timeout | P.Resource_limit), _, _) -> Timed_out
  | _ -> Errored

(* A transport failure while waiting for a reply: the client's receive
   timeout is a timeout, everything else (reset, EOF, bad frame) an error. *)
let classify_exn = function
  | Service.Client.Error "receive timeout" -> Timed_out
  | _ -> Errored

let ladder = [ 99.99; 99.9; 99.0; 95.0; 90.0; 75.0; 50.0 ]

(* Nearest-rank: the smallest sample with at least p% of samples at or
   below it. *)
let rank n p = max 1 (int_of_float (ceil (p /. 100.0 *. float_of_int n -. 1e-9)))

let beyond n p = n - rank n p

let highest_supported n = List.find_opt (fun p -> beyond n p >= 10) ladder

let percentile sorted p =
  let n = Array.length sorted in
  if n = 0 then nan else sorted.(rank n p - 1)

type summary = {
  n : int;
  mean : float;
  p50 : float;
  tail_p : float;  (** the percentile [tail] reports: 99, or lower when the
                       sample cannot support 99 *)
  tail : float;
  top_p : float option;  (** highest percentile the sample supports *)
}

(* [latencies] in ms; failed requests are [infinity].  [tail_p] is capped
   at 99 so the p99 metric keeps its meaning whenever n >= 1000. *)
let summarize latencies =
  let sorted = Array.copy latencies in
  Array.sort compare sorted;
  let n = Array.length sorted in
  let top_p = highest_supported n in
  let tail_p = match top_p with Some p -> Float.min p 99.0 | None -> 50.0 in
  let mean = if n = 0 then nan else Array.fold_left ( +. ) 0.0 sorted /. float_of_int n in
  { n; mean; p50 = percentile sorted 50.0; tail_p; tail = percentile sorted tail_p; top_p }

type counts = { attempted : int; failures : int; by_outcome : (outcome * int) list }

let count outcomes =
  let tally o = List.length (List.filter (( = ) o) outcomes) in
  { attempted = List.length outcomes;
    failures = List.length (List.filter failed outcomes);
    by_outcome = List.map (fun o -> (o, tally o)) [ Answered; Refused; Timed_out; Errored ] }

let median xs =
  match List.sort compare xs with
  | [] -> nan
  | s -> List.nth s (List.length s / 2)
