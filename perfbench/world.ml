(* The in-process twin of what the server loads: the same generated graph
   and the same installed queries, used as the answer oracle and as the
   target of the traced run's per-layer replays. *)

module V = Pgraph.Value
module P = Service.Protocol
module G = Pgraph.Graph

(* Must match the server's --graph flag: gsql_run generates snb:SF with
   Ldbc.Snb.generate's default seed. *)
let graph_spec = "snb:1"

let base_graph () = (Ldbc.Snb.generate ~sf:1.0 ()).Ldbc.Snb.graph

let query_files : Gen.workload -> string list = function
  | Gen.Ic_mix -> [ "queries/khop.gsql"; "queries/common_friends.gsql" ]
  | Gen.Asp_count -> [ "perfbench/asp_count.gsql" ]
  | Gen.Write_mix ->
    [ "queries/khop.gsql"; "queries/common_friends.gsql"; "perfbench/add_knows.gsql" ]

let read_file path = In_channel.with_open_bin path In_channel.input_all

let catalog g w =
  let cat = Gsql.Catalog.create () in
  List.iter
    (fun f -> ignore (Gsql.Catalog.install ~schema:(G.schema g) cat (read_file f)))
    (query_files w);
  cat

let person_type g = (Pgraph.Schema.vertex_type_of_name (G.schema g) "Person").Pgraph.Schema.vt_id

let persons g = G.vertices_of_type g (person_type g)

let first_name g v = match G.vertex_attr g v "firstName" with V.Str s -> s | _ -> ""

let inputs g =
  let ps = persons g in
  let names = List.sort_uniq compare (Array.to_list (Array.map (first_name g) ps)) in
  { Gen.names = Array.of_list names; persons = ps }

let cohort g name = Array.of_list (List.filter (fun v -> first_name g v = name) (Array.to_list (persons g)))

let knows_edges g =
  let et = (Pgraph.Schema.edge_type_of_name (G.schema g) "KNOWS").Pgraph.Schema.et_id in
  let n = ref 0 in
  G.iter_edges g (fun e -> if G.edge_type_id g e = et then incr n);
  !n

(* "name = value" lines of a PRINT output. *)
let printed_int (r : P.exec_result) key =
  List.find_map
    (fun line ->
      match String.index_opt line '=' with
      | Some i when String.trim (String.sub line 0 i) = key ->
        int_of_string_opt (String.trim (String.sub line (i + 1) (String.length line - i - 1)))
      | _ -> None)
    (String.split_on_char '\n' r.P.x_printed)

exception Mismatch of string

(* The compiled plan and the interpreter must agree before either is
   trusted as the oracle. *)
let expected cat g r =
  let iv = Gen.invoke_of_op (Gen.Read r) in
  let run interp =
    P.of_eval_result (Gsql.Catalog.run ~interp cat g ~params:iv.P.iv_params iv.P.iv_query)
  in
  let compiled = run false in
  if not (P.exec_result_equal compiled (run true)) then
    raise (Mismatch ("compiled and interpreted results differ for " ^ Gen.read_to_string r));
  compiled

let knows_star = Darpe.Parse.parse "KNOWS*"

(* Theorem 6.1 cross-check: @@paths is the number of all-shortest KNOWS*
   paths from the cohort to every Person, which the counting kernel gives
   directly. *)
let kernel_paths g name =
  let dfa = Pathsem.Engine.compile g knows_star in
  let scratch = Pathsem.Count.create_scratch () in
  let ps = persons g in
  Array.fold_left
    (fun acc s ->
      let r = Pathsem.Count.single_source ~scratch g dfa s in
      Array.fold_left (fun acc t -> Pgraph.Bignat.add acc r.Pathsem.Count.sr_count.(t)) acc ps)
    Pgraph.Bignat.zero (cohort g name)

let reads_of (w : Gen.workload) (inp : Gen.inputs) =
  match w with
  | Gen.Asp_count -> Array.map (fun n -> Gen.Asp n) inp.Gen.names
  | Gen.Ic_mix | Gen.Write_mix -> Gen.ic_keys inp.Gen.names

let oracle w g cat inp =
  let tbl = Hashtbl.create 512 in
  Array.iter
    (fun r ->
      let res = expected cat g r in
      (match r with
       | Gen.Asp name ->
         let want = Pgraph.Bignat.to_string (kernel_paths g name) in
         let got = Option.fold ~none:"none" ~some:string_of_int (printed_int res "@@paths") in
         if got <> want then
           raise (Mismatch (Printf.sprintf "asp(%s): @@paths = %s, kernel sum = %s" name got want))
       | _ -> ());
      Hashtbl.replace tbl r res)
    (reads_of w inp);
  tbl
