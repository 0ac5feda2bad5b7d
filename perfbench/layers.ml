(* The traced run: one connection, one request at a time, then the same
   generated inputs replayed in-process through each layer's public
   functions.  Every call into a layer sits in a span (Spans); the spans
   are written to .perfbench/spans-<workload>-<seed>.json at the end.

   Rungs, top down:
     client.call     round trip through the real server (socket, loop,
                     admission, pool, engine, codec)
     protocol.*      response encode / decode (Protocol)
     engine.invoke   Engine.prepare_invoke + the execution thunk
     compile.run     Catalog.run over the compiled plan
     paths.match     Pathsem.Engine.match_pairs on the request's cohorts
     count.kernel    Count.single_source over the same cohorts
     csr.build, graph.snapshot, persist.commit, engine.commit,
     persist.recovery *)

open Harness
module G = Pgraph.Graph
module V = Pgraph.Value

type answer = { cached : bool; server_ms : float; result : P.exec_result }

let mean = function [] -> 0.0 | xs -> List.fold_left ( +. ) 0.0 xs /. float_of_int (List.length xs)

let summary xs = Stats.summarize (Array.of_list xs)

(* Runs [f] over [items] until they run out or [budget_s] passes; always
   at least once when there is an item. *)
let replay ~budget_s items f =
  let deadline = Unix.gettimeofday () +. budget_s in
  let rec go i = function
    | [] -> ()
    | x :: rest ->
      f i x;
      if Unix.gettimeofday () < deadline then go (i + 1) rest
  in
  go 0 items

let words f =
  let w0 = Gc.minor_words () in
  let r = f () in
  (r, Gc.minor_words () -. w0)

let cohort_darpe = function
  | Gen.Asp _ -> World.knows_star
  | Gen.Khop _ | Gen.Common _ -> Darpe.Parse.parse "KNOWS"

let cohort_names = function
  | Gen.Khop (n, _) | Gen.Asp n -> [ n ]
  | Gen.Common (a, b) -> [ a; b ]

let run ~w ~seed ~seconds ~exe =
  let g = World.base_graph () in
  let inp = World.inputs g in
  let spans = Spans.create () in
  let span ~req name f = Spans.record spans ~req name f in
  let streams = Gen.streams w ~seed inp in
  let turn = ref 0 in
  let next () =
    let i = !turn mod Gen.connections in
    incr turn;
    streams.(i) ()
  in
  (* --- client rung: the real server, one request at a time --- *)
  let dd = if w = Gen.Write_mix then (fresh_dir data_dir; Some data_dir) else None in
  let server, ctl, _ = start ~exe ~w ~data_dir:dd in
  let connect () = Server_proc.connect server in
  ignore (Load.run ~connect streams (Array.map (fun k -> Load.Count k) (warmup w)));
  let c = connect () in
  let loop ~budget_s f =
    let deadline = Unix.gettimeofday () +. budget_s in
    let rec go i acc = if Unix.gettimeofday () < deadline then go (i + 1) (f i :: acc) else List.rev acc in
    go 0 []
  in
  let call op = C.call c (P.Invoke (Gen.invoke_of_op op)) in
  let timed f =
    let t0 = Unix.gettimeofday () in
    let r = f () in
    (r, (Unix.gettimeofday () -. t0) *. 1000.0)
  in
  let untraced = loop ~budget_s:(seconds /. 4.0) (fun _ -> snd (timed (fun () -> call (next ())))) in
  let s0 = stats_json ctl in
  let traced =
    loop ~budget_s:(seconds /. 4.0) (fun req ->
        let op = next () in
        let resp, ms = timed (fun () -> span ~req "client.call" (fun () -> call op)) in
        (req, op, resp, ms))
  in
  let s1 = stats_json ctl in
  C.close c;
  C.close ctl;
  (match Server_proc.shutdown server with Ok () -> () | Error m -> fail "%s" m);
  let d path = jnum path s1 -. jnum path s0 in
  let answered =
    List.filter_map
      (fun (req, op, resp, ms) ->
        match resp with
        | P.Result { rs_cached; rs_ms; rs_result } ->
          Some (req, op, { cached = rs_cached; server_ms = rs_ms; result = rs_result }, ms)
        | _ -> None)
      traced
  in
  if List.length answered <> List.length traced then fail "traced requests failed";
  let overhead = summary (List.map (fun (_, _, a, ms) -> ms -. a.server_ms) answered) in
  let exec =
    summary
      (List.filter_map (fun (_, _, a, _) -> if a.cached then None else Some a.server_ms) answered)
  in
  let top_untraced = summary untraced in
  let top_traced = summary (List.map (fun (_, _, _, ms) -> ms) answered) in
  let budget = seconds /. 14.0 in
  (* --- protocol: encode + decode of the recorded responses --- *)
  let frames = ref [] and codec = ref [] in
  replay ~budget_s:budget answered (fun _ (req, _, a, _) ->
      let resp = P.Result { rs_cached = a.cached; rs_ms = a.server_ms; rs_result = a.result } in
      let t0 = Unix.gettimeofday () in
      let frame =
        span ~req "protocol.encode" (fun () -> P.encode_frame (P.response_to_json ~id:req resp))
      in
      span ~req "protocol.decode" (fun () ->
          match P.decode_frame frame ~pos:0 with
          | `Frame (Ok j, _) -> ignore (P.response_of_json j)
          | _ -> fail "recorded response did not decode");
      codec := ((Unix.gettimeofday () -. t0) *. 1e6) :: !codec;
      frames := float_of_int (String.length frame) :: !frames);
  (* --- engine: prepare + execute in-process, same inputs --- *)
  let engine = Service.Engine.create ~graph:g () in
  List.iter (fun f -> ignore (Service.Engine.install engine (World.read_file f))) (World.query_files w);
  let prepare = ref [] in
  replay ~budget_s:budget answered (fun _ (req, op, _, _) ->
      span ~req "engine.invoke" (fun () ->
          let t0 = Unix.gettimeofday () in
          let p = span ~req "engine.prepare" (fun () -> Service.Engine.prepare_invoke engine (Gen.invoke_of_op op)) in
          prepare := ((Unix.gettimeofday () -. t0) *. 1e6) :: !prepare;
          match p with
          | `Ready _ -> ()
          | `Run p -> ignore (span ~req "engine.exec" p.Service.Engine.pr_thunk)));
  (* --- compiled plans over the base graph --- *)
  let cat = World.catalog g w in
  let reads = List.filter_map (fun (req, op, _, _) -> match op with Gen.Read r -> Some (req, r) | Gen.Write _ -> None) answered in
  let run_ms = ref [] and run_words = ref [] in
  replay ~budget_s:budget reads (fun _ (req, r) ->
      let iv = Gen.invoke_of_op (Gen.Read r) in
      let t0 = Unix.gettimeofday () in
      let (), wd =
        words (fun () ->
            span ~req "compile.run" (fun () ->
                ignore (Gsql.Catalog.run cat g ~params:iv.P.iv_params iv.P.iv_query)))
      in
      run_ms := ((Unix.gettimeofday () -. t0) *. 1000.0) :: !run_ms;
      run_words := wd :: !run_words);
  (* --- path matching and the counting kernel on the request cohorts --- *)
  let pt = World.person_type g in
  let is_person v = G.vertex_type_id g v = pt in
  let cohorts = List.concat_map (fun (req, r) -> List.map (fun n -> (req, r, n)) (cohort_names r)) reads in
  let match_ms = ref [] and bindings = ref [] and kernel_ms = ref [] and kernel_words = ref [] in
  let scratch = Pathsem.Count.create_scratch () in
  replay ~budget_s:(2.0 *. budget) cohorts (fun _ (req, r, name) ->
      let darpe = cohort_darpe r in
      let sources = World.cohort g name in
      let b, ms =
        timed (fun () ->
            span ~req "paths.match" (fun () ->
                Pathsem.Engine.match_pairs g darpe Pathsem.Semantics.All_shortest ~sources
                  ~dst_ok:is_person))
      in
      match_ms := ms :: !match_ms;
      bindings := float_of_int (List.length b) :: !bindings;
      let dfa = Pathsem.Engine.compile g darpe in
      let ((), wd), ms =
        timed (fun () ->
            words (fun () ->
                span ~req "count.kernel" (fun () ->
                    Array.iter
                      (fun s -> ignore (Pathsem.Count.single_source ~scratch g dfa s))
                      sources)))
      in
      kernel_ms := ms :: !kernel_ms;
      kernel_words := wd :: !kernel_words);
  (* --- CSR freeze and copy-on-write snapshot of the base graph --- *)
  let reps n = List.init n Fun.id in
  let csr_ms = ref [] and snap_ms = ref [] in
  replay ~budget_s:budget (reps 50) (fun i _ ->
      csr_ms := snd (timed (fun () -> span ~req:i "csr.build" (fun () -> ignore (Pgraph.Csr.build g))))
                :: !csr_ms);
  replay ~budget_s:budget (reps 2000) (fun i _ ->
      snap_ms := snd (timed (fun () -> span ~req:i "graph.snapshot" (fun () -> ignore (G.snapshot g))))
                 :: !snap_ms);
  (* --- durability: one-edge commits into a scratch data dir --- *)
  let pdir = Filename.concat out_dir "persist" in
  fresh_dir pdir;
  let persist, _ = Store.Persist.open_dir pdir ~base:(fun () -> g) in
  let commit_ms = ref [] in
  let cur = ref g in
  (* The workload's own writes when it has any, else write-mix's writer
     stream for the same seed. *)
  let pairs =
    match List.filter_map (fun (req, op, _, _) -> match op with Gen.Write (a, b) -> Some (req, a, b) | Gen.Read _ -> None) answered with
    | [] ->
      let writer = (Gen.streams Gen.Write_mix ~seed inp).(0) in
      List.init 200 (fun i -> match writer () with Gen.Write (a, b) -> (i, a, b) | Gen.Read _ -> assert false)
    | writes -> writes
  in
  replay ~budget_s:budget pairs (fun i (req, a, b) ->
      let next = G.snapshot !cur in
      let ops = ref [] in
      G.set_journal next (Some (fun m -> ops := m :: !ops));
      ignore (G.add_edge next "KNOWS" a b [ ("since", V.Datetime 1338508800) ]);
      G.set_journal next None;
      commit_ms :=
        snd
          (timed (fun () ->
               span ~req "persist.commit" (fun () ->
                   Store.Persist.commit persist next ~version:(i + 1) ~ops:(List.rev !ops))))
        :: !commit_ms;
      cur := next);
  Store.Persist.close persist;
  let commits = List.length !commit_ms in
  (* --- MVCC commit through an in-process engine on a scratch data dir,
     each commit followed by one of the workload's reads, which has to
     rebuild the CSR index of the new version --- *)
  let edir = Filename.concat out_dir "engine" in
  fresh_dir edir;
  let epersist, _ = Store.Persist.open_dir edir ~base:(fun () -> g) in
  let weng = Service.Engine.create ~persist:epersist ~graph:g () in
  List.iter
    (fun f -> ignore (Service.Engine.install weng (World.read_file f)))
    ("perfbench/add_knows.gsql" :: World.query_files w);
  let engine_commit_ms = ref [] in
  let builds () = jnum [ "builds" ] (Pgraph.Csr.cache_stats ()) in
  let builds0 = builds () in
  let read_after = Array.of_list (List.map snd reads) in
  replay ~budget_s:budget pairs (fun i (req, a, b) ->
      let resp, ms =
        timed (fun () ->
            span ~req "engine.commit" (fun () ->
                Service.Engine.invoke weng (Gen.invoke_of_op (Gen.Write (a, b)))))
      in
      (match resp with P.Result _ -> () | _ -> fail "in-process commit failed");
      engine_commit_ms := ms :: !engine_commit_ms;
      if Array.length read_after > 0 then
        ignore
          (span ~req "engine.read_after_commit" (fun () ->
               Service.Engine.invoke weng
                 (Gen.invoke_of_op (Gen.Read read_after.(i mod Array.length read_after))))));
  let builds_per_commit =
    (builds () -. builds0) /. float_of_int (max 1 (List.length !engine_commit_ms))
  in
  Store.Persist.close epersist;
  let wal_bytes = (Unix.stat (Filename.concat pdir "wal.log")).Unix.st_size in
  (* The run's own WAL on write-mix; the scratch one elsewhere. *)
  let recover_dir = match dd with Some d -> d | None -> pdir in
  let recovery_ms =
    List.init 3 (fun i ->
        snd
          (timed (fun () ->
               span ~req:i "persist.recovery" (fun () ->
                   let p, _ = Store.Persist.open_dir recover_dir ~base:World.base_graph in
                   Store.Persist.close p))))
  in
  Spans.write spans (Filename.concat out_dir (Printf.sprintf "spans-%s-%d.json" (Gen.name w) seed));
  (* --- report --- *)
  let self = Hashtbl.create 16 in
  List.iter
    (fun (name, ms) -> Hashtbl.replace self name (ms :: Option.value ~default:[] (Hashtbl.find_opt self name)))
    (Spans.self_ms spans);
  report "traced run of %s seed %d: %d untraced + %d traced round trips, %d spans" (Gen.name w) seed
    (List.length untraced) (List.length traced) spans.Spans.len;
  List.iter
    (fun name ->
      match Hashtbl.find_opt self name with
      | Some xs -> report "self %-16s n=%-5d mean %.4f ms" name (List.length xs) (mean xs)
      | None -> ())
    [ "client.call"; "protocol.encode"; "protocol.decode"; "engine.invoke"; "engine.prepare";
      "engine.exec"; "compile.run"; "paths.match"; "count.kernel"; "csr.build"; "graph.snapshot";
      "persist.commit"; "engine.commit"; "engine.read_after_commit"; "persist.recovery" ];
  let hits = d [ "cache"; "hits" ] and lookups = d [ "cache"; "hits" ] +. d [ "cache"; "misses" ] in
  let zero_nan x = if Float.is_nan x then 0.0 else x in
  let m name unit v = (name, J.Obj [ ("value", J.Float (zero_nan v)); ("unit", J.Str unit) ]) in
  let match_mean = mean !match_ms and kernel_mean = mean !kernel_ms in
  print_endline
    (J.to_string
       (J.Obj
          [ ("correct", J.Bool true);
            ("attempted", J.Int (List.length traced));
            ("failed", J.Int 0);
            ( "metrics",
              J.Obj
                [ m "server.overhead_p50_ms" "ms" overhead.Stats.p50;
                  m "server.overhead_p99_ms" "ms" overhead.Stats.tail;
                  m "protocol.response_bytes" "B" (mean !frames);
                  m "protocol.codec_us" "us" (mean !codec);
                  m "cache.hit_ratio" "ratio" (if lookups > 0.0 then hits /. lookups else 0.0);
                  m "cache.evictions" "count" (d [ "cache"; "evictions" ]);
                  m "engine.exec_p50_ms" "ms" exec.Stats.p50;
                  m "engine.exec_p99_ms" "ms" exec.Stats.tail;
                  m "engine.prepare_us" "us" (mean !prepare);
                  m "compile.run_ms" "ms" (mean !run_ms);
                  m "compile.alloc_words" "words" (mean !run_words);
                  m "paths.match_ms" "ms" match_mean;
                  m "paths.bindings" "count" (mean !bindings);
                  m "paths.bind_ms" "ms" (match_mean -. kernel_mean);
                  m "count.kernel_ms" "ms" kernel_mean;
                  m "count.alloc_words" "words" (mean !kernel_words);
                  m "csr.build_ms" "ms" (Stats.median !csr_ms);
                  m "csr.builds_per_commit" "ratio" builds_per_commit;
                  m "graph.snapshot_ms" "ms" (mean !snap_ms);
                  m "engine.commit_ms" "ms" (Stats.median !engine_commit_ms);
                  m "persist.commit_ms" "ms" (Stats.median !commit_ms);
                  m "persist.wal_bytes_per_commit" "B" (float_of_int wal_bytes /. float_of_int (max 1 commits));
                  m "persist.recovery_ms" "ms" (Stats.median recovery_ms);
                  m "trace.overhead_pct" "%"
                    ((top_traced.Stats.p50 -. top_untraced.Stats.p50) /. top_untraced.Stats.p50 *. 100.0) ] ) ]))
