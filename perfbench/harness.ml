(* Shared by the end-to-end and the traced run: where runtime files go,
   starting and stopping the server, reading its stats frame. *)

module P = Service.Protocol
module C = Service.Client
module J = Obs.Json

(* Runtime files live under one ignored directory of the checkout. *)
let out_dir = ".perfbench"
let sock = Filename.concat out_dir "gsql.sock"
let log = Filename.concat out_dir "server.log"
let data_dir = Filename.concat out_dir "data"

let rec rm_rf path =
  if Sys.file_exists path then
    if Sys.is_directory path then begin
      Array.iter (fun f -> rm_rf (Filename.concat path f)) (Sys.readdir path);
      Sys.rmdir path
    end
    else Sys.remove path

let fresh_dir path = rm_rf path; Sys.mkdir path 0o755

let report fmt = Printf.ksprintf (fun s -> print_string ("# " ^ s ^ "\n")) fmt

let fail fmt =
  Printf.ksprintf
    (fun s ->
      prerr_endline ("bench: " ^ s);
      exit 1)
    fmt

(* Requests per connection before the window: enough for the result
   cache and the CSR memo to reach their steady state. *)
let warmup : Gen.workload -> int array = function
  | Gen.Ic_mix -> [| 150; 150 |]
  | Gen.Asp_count -> [| 16; 16 |]
  | Gen.Write_mix -> [| 50; 50 |]

(* Set-up is timed this many times before and after the window of a run
   and reported as the median; the last start before the window serves
   the run. *)
let setup_before = 6
let setup_after = 5

let start ~exe ~w ~data_dir =
  let t0 = Unix.gettimeofday () in
  let s = Server_proc.spawn ~exe ~sock ~log ~installs:(World.query_files w) ~data_dir in
  let c = Server_proc.connect_ready s in
  (s, c, Unix.gettimeofday () -. t0)

let stop s =
  match Server_proc.shutdown s with Ok () -> () | Error msg -> fail "%s" msg

let stats_json c = match C.stats c with P.Stats_snapshot j -> j | _ -> fail "stats request failed"

let jnum path j =
  let rec go j = function
    | [] -> (match J.to_float_opt j with Some f -> f | None -> nan)
    | k :: rest -> (match J.member k j with Some v -> go v rest | None -> nan)
  in
  go j path

