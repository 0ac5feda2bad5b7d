(* Self-tests of the benchmark's own rules: the percentile rule, failure
   accounting, and seed-determinism of the generated requests. *)

open Perfbench
module P = Service.Protocol

let check name ok = if not ok then failwith ("selftest failed: " ^ name)

let close a b = Float.abs (a -. b) < 1e-9

let percentile_rule () =
  (* p99 needs ten samples above it: 1000 samples support it, 999 do not. *)
  check "1000 -> p99" (Stats.highest_supported 1000 = Some 99.0);
  check "999 -> p95" (Stats.highest_supported 999 = Some 95.0);
  check "10000 -> p99.9" (Stats.highest_supported 10000 = Some 99.9);
  check "100 -> p90" (Stats.highest_supported 100 = Some 90.0);
  check "20 -> p50" (Stats.highest_supported 20 = Some 50.0);
  check "5 -> none" (Stats.highest_supported 5 = None);
  (* 1..1000 ms: nearest rank puts p50 at 500 and p99 at 990, with
     exactly ten samples beyond it. *)
  let s = Stats.summarize (Array.init 1000 (fun i -> float_of_int (1000 - i))) in
  check "n reported" (s.Stats.n = 1000);
  check "p50" (close s.Stats.p50 500.0);
  check "p99" (s.Stats.tail_p = 99.0 && close s.Stats.tail 990.0);
  check "beyond p99" (Stats.beyond 1000 99.0 = 10);
  (* Too few samples for p99: the tail degrades to the highest supported
     percentile instead of reading past the data. *)
  let s = Stats.summarize (Array.init 200 (fun i -> float_of_int (i + 1))) in
  check "200 -> p95 tail" (s.Stats.tail_p = 95.0 && close s.Stats.tail 190.0)

let failure_accounting () =
  let err c = P.Error (c, "x", P.no_hint) in
  check "overloaded refused" (Stats.classify (err P.Overloaded) = Stats.Refused);
  check "shutting down refused" (Stats.classify (err P.Shutting_down) = Stats.Refused);
  check "timeout" (Stats.classify (err P.Timeout) = Stats.Timed_out);
  check "resource limit" (Stats.classify (err P.Resource_limit) = Stats.Timed_out);
  check "exec error" (Stats.classify (err P.Exec_error) = Stats.Errored);
  check "receive timeout" (Stats.classify_exn (Service.Client.Error "receive timeout") = Stats.Timed_out);
  check "broken socket" (Stats.classify_exn (Unix.Unix_error (Unix.EPIPE, "write", "")) = Stats.Errored);
  let outcomes = [ Stats.Answered; Stats.Refused; Stats.Timed_out; Stats.Errored; Stats.Answered ] in
  let c = Stats.count outcomes in
  check "attempted" (c.Stats.attempted = 5);
  check "failed = refused + timed out + errored" (c.Stats.failures = 3);
  (* A failed request is infinitely slow: it lands above every answered
     one, so it can only raise the tail. *)
  let s = Stats.summarize (Array.append (Array.make 99 1.0) [| infinity |]) in
  check "failure in tail" (s.Stats.p50 = 1.0 && Stats.percentile (Array.append (Array.make 99 1.0) [| infinity |]) 100.0 = infinity)

let inputs =
  { Gen.names = [| "Ada"; "Jan"; "Maria"; "Omar" |]; persons = Array.init 40 (fun i -> 100 + i) }

let determinism () =
  List.iter
    (fun w ->
      let a = Gen.wire_prefix w ~seed:7 inputs ~n:500 in
      let b = Gen.wire_prefix w ~seed:7 inputs ~n:500 in
      let c = Gen.wire_prefix w ~seed:8 inputs ~n:500 in
      check (Gen.name w ^ " same seed, same bytes") (String.equal a b);
      check (Gen.name w ^ " other seed, other bytes") (not (String.equal a c)))
    Gen.workloads;
  (* The IC key space is every (name, hops) and every ordered name pair. *)
  check "ic keys" (Array.length (Gen.ic_keys inputs.Gen.names) = (4 * 3) + (4 * 4))

let () =
  percentile_rule ();
  failure_accounting ();
  determinism ();
  print_endline "perfbench selftest: ok"
