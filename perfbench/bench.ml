(* Service benchmark program (see perfbench/README.md).

     bench --workload ic-mix|asp-count|write-mix --seed N --seconds S
           --trace 0|1 --server PATH/TO/gsql_run.exe

   --trace 0 measures the end-to-end metrics: the real server runs as a
   child process, two closed-loop connections drive it for S seconds
   after a warm-up, and every answer is checked against an in-process
   oracle.  --trace 1 runs the traced per-layer ladder instead
   (Layers).  The last line of stdout is the JSON result; lines before
   it, prefixed '#', are the human-readable report. *)

module P = Service.Protocol
module C = Service.Client
module J = Obs.Json

let workload = ref None
let seed = ref None
let seconds = ref None
let trace = ref None
let server_exe = ref None

let usage () =
  prerr_endline
    "usage: bench --workload ic-mix|asp-count|write-mix --seed N --seconds S --trace 0|1 \
     --server GSQL_RUN_EXE";
  exit 2

let () =
  let rec parse = function
    | [] -> ()
    | "--workload" :: w :: rest -> workload := Gen.of_name w; if !workload = None then usage (); parse rest
    | "--seed" :: n :: rest -> seed := int_of_string_opt n; parse rest
    | "--seconds" :: n :: rest -> seconds := float_of_string_opt n; parse rest
    | "--trace" :: ("0" | "1" as t) :: rest -> trace := Some (t = "1"); parse rest
    | "--server" :: p :: rest -> server_exe := Some p; parse rest
    | _ -> usage ()
  in
  parse (List.tl (Array.to_list Sys.argv))

let w, seed, seconds, traced, exe =
  match (!workload, !seed, !seconds, !trace, !server_exe) with
  | Some w, Some s, Some t, Some tr, Some e when t > 0.0 -> (w, s, t, tr, e)
  | _ -> usage ()

open Harness

(* ------------------------------------------------------------------ *)
(* Answer checks                                                       *)

let wrong = ref 0
let wrong_notes = ref []

let mismatch fmt =
  Printf.ksprintf
    (fun s ->
      incr wrong;
      if List.length !wrong_notes < 5 then wrong_notes := s :: !wrong_notes)
    fmt

let result_of (s : Load.sample) =
  match s.Load.resp with Some (P.Result { rs_result; _ }) -> Some rs_result | _ -> None

(* ic-mix and asp-count: every answer equals the oracle's. *)
let check_exact oracle samples =
  List.iter
    (fun (s : Load.sample) ->
      match (s.Load.op, result_of s) with
      | Gen.Read r, Some got ->
        if not (P.exec_result_equal got (Hashtbl.find oracle r)) then
          mismatch "%s answered differently from the oracle" (Gen.read_to_string r)
      | _ -> ())
    samples

let counter_of = function
  | Gen.Khop _ -> "@@reached"
  | Gen.Common _ -> "@@common"
  | Gen.Asp _ -> "@@paths"

(* write-mix reads race the commits, so no single graph is their oracle.
   Edges are only ever added, so each count lies between its value on the
   base graph and on the recovered final graph, and one connection never
   sees a count shrink. *)
let check_bounded ~base ~final samples =
  let last = Hashtbl.create 512 in
  List.iter
    (fun (s : Load.sample) ->
      match (s.Load.op, result_of s) with
      | Gen.Read r, Some got ->
        let key = counter_of r in
        let v res = World.printed_int res key in
        (match (v got, v (Hashtbl.find base r), v (Hashtbl.find final r)) with
         | Some x, Some lo, Some hi ->
           if x < lo || x > hi then
             mismatch "%s %s = %d outside [%d, %d]" (Gen.read_to_string r) key x lo hi;
           (match Hashtbl.find_opt last (s.Load.conn, r) with
            | Some prev when x < prev ->
              mismatch "%s %s went back from %d to %d" (Gen.read_to_string r) key prev x
            | _ -> ());
           Hashtbl.replace last (s.Load.conn, r) x
         | _ -> mismatch "%s: no %s in the answer" (Gen.read_to_string r) key)
      | _ -> ())
    (List.sort (fun a b -> compare a.Load.t0 b.Load.t0) samples)

(* ------------------------------------------------------------------ *)
(* End-to-end run                                                      *)

let is_write (s : Load.sample) = match s.Load.op with Gen.Write _ -> true | Gen.Read _ -> false

let latencies samples =
  Array.of_list
    (List.map (fun (s : Load.sample) -> if Stats.failed s.Load.outcome then infinity else s.Load.ms) samples)

let end_to_end () =
  let g = World.base_graph () in
  let inp = World.inputs g in
  let cat = World.catalog g w in
  let t_oracle = Unix.gettimeofday () in
  let oracle = World.oracle w g cat inp in
  report "workload %s seed %d: %d persons, %d first names, %d distinct reads (oracle %.2f s)"
    (Gen.name w) seed (Array.length inp.Gen.persons) (Array.length inp.Gen.names)
    (Hashtbl.length oracle) (Unix.gettimeofday () -. t_oracle);
  let dir () = if w = Gen.Write_mix then (fresh_dir data_dir; Some data_dir) else None in
  (* Set-up is sampled before the window and again after it, so that one
     fast or slow phase of the host does not decide the run's median. *)
  let setups = ref [] in
  let timed_start () =
    let s, c, dt = start ~exe ~w ~data_dir:(dir ()) in
    setups := dt :: !setups;
    (s, c)
  in
  let start_stop () = let s, c = timed_start () in C.close c; stop s in
  for _ = 2 to setup_before do start_stop () done;
  let server, ctl = timed_start () in
  let v0 = jnum [ "graph_version" ] (stats_json ctl) in
  let streams = Gen.streams w ~seed inp in
  let connect () = Server_proc.connect server in
  let warm =
    Load.run ~connect streams (Array.map (fun k -> Load.Count k) (warmup w))
  in
  let s0 = stats_json ctl in
  let t_start = Unix.gettimeofday () in
  let until = t_start +. seconds in
  let window = Load.run ~connect streams (Array.make Gen.connections (Load.Until until)) in
  let t_end =
    List.fold_left (fun acc (s : Load.sample) -> Float.max acc (s.Load.t0 +. s.Load.ms /. 1000.0)) until window
  in
  let s1 = stats_json ctl in
  let rss = Server_proc.peak_rss_mb server in
  C.close ctl;
  stop server;
  let acked =
    List.length
      (List.filter (fun s -> is_write s && not (Stats.failed s.Load.outcome)) (warm @ window))
  in
  (* Durability and final answers: restart on the same data dir. *)
  (match w with
   | Gen.Write_mix ->
     let s2, c2, restart_s = start ~exe ~w ~data_dir:(Some data_dir) in
     let version = jnum [ "graph_version" ] (stats_json c2) in
     let after =
       Array.map
         (fun r ->
           match C.call c2 (P.Invoke (Gen.invoke_of_op (Gen.Read r))) with
           | P.Result { rs_result; _ } -> (r, rs_result)
           | _ -> fail "read after restart failed")
         (World.reads_of w inp)
     in
     C.close c2;
     stop s2;
     let persist, rc = Store.Persist.open_dir data_dir ~base:World.base_graph in
     Store.Persist.close persist;
     let g1 = rc.Store.Persist.r_graph in
     let want_version = int_of_float v0 + acked in
     report "durability: %d acknowledged writes; restarted server at version %.0f (want %d), \
             replayed %d commits, KNOWS %d -> %d; restart set-up %.3f s"
       acked version want_version rc.Store.Persist.r_replayed (World.knows_edges g)
       (World.knows_edges g1) restart_s;
     if int_of_float version <> want_version || rc.Store.Persist.r_version <> want_version then
       mismatch "recovered version %.0f / %d, want %d" version rc.Store.Persist.r_version want_version;
     if rc.Store.Persist.r_replayed <> acked then
       mismatch "replayed %d commits, want %d" rc.Store.Persist.r_replayed acked;
     if World.knows_edges g1 <> World.knows_edges g + acked then
       mismatch "recovered %d KNOWS edges, want %d" (World.knows_edges g1) (World.knows_edges g + acked);
     let final = World.oracle w g1 (World.catalog g1 w) inp in
     Array.iter
       (fun (r, got) ->
         if not (P.exec_result_equal got (Hashtbl.find final r)) then
           mismatch "after restart %s differs from the oracle" (Gen.read_to_string r))
       after;
     check_bounded ~base:oracle ~final (warm @ window)
   | Gen.Ic_mix | Gen.Asp_count -> check_exact oracle (warm @ window));
  for _ = 1 to setup_after do start_stop () done;
  let setup_s = Stats.median !setups in
  let wall = t_end -. t_start in
  Out_channel.with_open_text
    (Filename.concat out_dir (Printf.sprintf "samples-%s-%d.tsv" (Gen.name w) seed))
    (fun oc ->
      List.iter
        (fun (s : Load.sample) ->
          Printf.fprintf oc "%d\t%.6f\t%.4f\t%s\t%s\n" s.Load.conn (s.Load.t0 -. t_start) s.Load.ms
            (if is_write s then "write" else "read")
            (Stats.outcome_to_string s.Load.outcome))
        window);
  let all = Stats.summarize (latencies window) in
  let reads = Stats.summarize (latencies (List.filter (fun s -> not (is_write s)) window)) in
  let writes = Stats.summarize (latencies (List.filter is_write window)) in
  let counts = Stats.count (List.map (fun (s : Load.sample) -> s.Load.outcome) window) in
  let d path = jnum path s1 -. jnum path s0 in
  let hits = d [ "cache"; "hits" ] and misses = d [ "cache"; "misses" ] in
  let line label (s : Stats.summary) =
    report "%-6s n=%d mean=%.3f ms p50=%.3f ms p%g=%.3f ms%s" label s.Stats.n s.Stats.mean
      s.Stats.p50 s.Stats.tail_p s.Stats.tail
      (match s.Stats.top_p with Some p -> Printf.sprintf " (highest supported: p%g)" p | None -> "")
  in
  report "window %.2f s, %d connections, closed loop; %d attempted, %s" wall Gen.connections
    counts.Stats.attempted
    (String.concat ", "
       (List.map (fun (o, k) -> Printf.sprintf "%s %d" (Stats.outcome_to_string o) k) counts.Stats.by_outcome));
  line "all" all;
  line "reads" reads;
  if writes.Stats.n > 0 then line "writes" writes;
  report "server cache: %.0f hits / %.0f lookups (%.3f), %.0f evictions; csr builds %.0f; commits %.0f"
    hits (hits +. misses) (hits /. Float.max 1.0 (hits +. misses)) (d [ "cache"; "evictions" ])
    (d [ "csr"; "builds" ]) (d [ "commits" ]);
  report "setup spawns (s): %s"
    (String.concat " " (List.map (Printf.sprintf "%.4f") (List.rev !setups)));
  List.iter (fun n -> report "WRONG: %s" n) (List.rev !wrong_notes);
  (* A failed request has no finite latency; the window length stands in
     for it so the JSON stays numeric while still missing any limit. *)
  let finite x = if Float.is_finite x then x else wall *. 1000.0 in
  let m name unit v = (name, J.Obj [ ("value", J.Float v); ("unit", J.Str unit) ]) in
  let correct = !wrong = 0 in
  print_endline
    (J.to_string
       (J.Obj
          [ ("correct", J.Bool correct);
            ("attempted", J.Int counts.Stats.attempted);
            ("failed", J.Int counts.Stats.failures);
            ( "metrics",
              J.Obj
                [ m "setup_s" "s" setup_s;
                  m "throughput_rps" "1/s" (float_of_int counts.Stats.attempted /. wall);
                  m "mean_ms" "ms" (finite all.Stats.mean);
                  m "read_mean_ms" "ms" (finite reads.Stats.mean);
                  m "success_share" "ratio"
                    (1.0 -. (float_of_int counts.Stats.failures /. float_of_int counts.Stats.attempted));
                  m "server_rss_mb" "MiB" rss ] ) ]));
  if not correct then exit 1

let () =
  Sys.set_signal Sys.sigpipe Sys.Signal_ignore;
  (try Sys.mkdir out_dir 0o755 with Sys_error _ -> ());
  (try Sys.remove log with Sys_error _ -> ());
  (* A hung server or client must not hang the run: give up after
     170 s, or the window plus a minute when that is longer. *)
  Sys.set_signal Sys.sigalrm
    (Sys.Signal_handle (fun _ -> prerr_endline "bench: watchdog expired"; exit 3));
  ignore (Unix.alarm (max 170 (int_of_float seconds + 60)));
  try if traced then Layers.run ~w ~seed ~seconds ~exe else end_to_end ()
  with
  | World.Mismatch msg -> fail "oracle: %s" msg
  | Server_proc.Died msg -> fail "server: %s" msg
