(* Seeded request generation.

   The server only ever sees the invocations built here; the seed picks
   which keys are hot, which cohorts are counted and which persons get
   connected.  Each connection draws from its own split of the seed's
   generator, so a connection's request sequence does not depend on how
   fast the other one ran. *)

module V = Pgraph.Value
module P = Service.Protocol
module R = Pgraph.Prng

type workload = Ic_mix | Asp_count | Write_mix

let workloads = [ Ic_mix; Asp_count; Write_mix ]

let name = function Ic_mix -> "ic-mix" | Asp_count -> "asp-count" | Write_mix -> "write-mix"

let of_name s = List.find_opt (fun w -> name w = s) workloads

type read =
  | Khop of string * int
  | Common of string * string
  | Asp of string

type op = Read of read | Write of int * int  (** vertex ids of two persons *)

(* The closed loop runs this many connections: the box has two cores, and
   each connection stands for an application thread waiting on its reply. *)
let connections = 2

let invoke_of_op op =
  let iv query ?(no_cache = false) params =
    { P.iv_query = query; iv_params = params; iv_timeout_ms = None; iv_no_cache = no_cache;
      iv_tenant = None }
  in
  match op with
  | Read (Khop (first, hops)) ->
    iv "KHopNeighborhood" [ ("firstName", V.Str first); ("hops", V.Int hops) ]
  | Read (Common (a, b)) -> iv "CommonFriends" [ ("nameA", V.Str a); ("nameB", V.Str b) ]
  | Read (Asp first) -> iv "AspCount" ~no_cache:true [ ("firstName", V.Str first) ]
  | Write (a, b) -> iv "AddKnows" [ ("a", V.Vertex a); ("b", V.Vertex b) ]

let read_to_string = function
  | Khop (n, h) -> Printf.sprintf "khop(%s,%d)" n h
  | Common (a, b) -> Printf.sprintf "common(%s,%s)" a b
  | Asp n -> Printf.sprintf "asp(%s)" n

(* The IC key space: every first name at hops 1-3, and every ordered pair
   of first names.  With the generator's 16 names that is 48 + 256 = 304
   keys, more than the server's 128-entry result cache holds. *)
let ic_keys names =
  let khop = Array.concat (List.map (fun h -> Array.map (fun n -> Khop (n, h)) names) [ 1; 2; 3 ]) in
  let common = Array.concat (Array.to_list (Array.map (fun a -> Array.map (fun b -> Common (a, b)) names) names)) in
  Array.append khop common

type inputs = {
  names : string array;  (** distinct Person first names, sorted *)
  persons : int array;   (** Person vertex ids *)
}

let write_cohort = 8

(* One generator per connection; calling it yields that connection's next
   operation. *)
let streams w ~seed inp =
  let root = R.create seed in
  let order = ic_keys inp.names in
  R.shuffle (R.split root) order;
  let ic rng () = Read order.(R.zipf rng (Array.length order) 1.0 - 1) in
  let asp rng () = Read (Asp (R.choose rng inp.names)) in
  (* Writes connect pairs from a seeded cohort of [write_cohort] persons.
     Once those few are linked, further commits only add parallel edges,
     which change no read's answer.  With pairs drawn from all persons,
     every commit would widen the graph's reach, so reads would slow down
     through the window and a faster commit path would be charged for the
     larger graph its extra commits built. *)
  let cohort = Array.copy inp.persons in
  R.shuffle (R.split root) cohort;
  let cohort = Array.sub cohort 0 (min write_cohort (Array.length cohort)) in
  let write rng () =
    let n = Array.length cohort in
    let a = R.int rng n in
    let b = (a + 1 + R.int rng (n - 1)) mod n in
    Write (cohort.(a), cohort.(b))
  in
  let c0 = R.split root in
  let c1 = R.split root in
  match w with
  | Ic_mix -> [| ic c0; ic c1 |]
  | Asp_count -> [| asp c0; asp c1 |]
  | Write_mix -> [| write c0; ic c1 |]

(* The wire bytes of the first [n] requests of every connection, in
   connection order: what "the same seed gives the same requests" is
   checked against. *)
let wire_prefix w ~seed inp ~n =
  let b = Buffer.create 4096 in
  Array.iter
    (fun next ->
      for id = 1 to n do
        Buffer.add_string b
          (P.encode_frame (P.request_to_json ~id (P.Invoke (invoke_of_op (next ())))))
      done)
    (streams w ~seed inp);
  Buffer.contents b
