(* In-memory span recorder for the traced run.

   The benchmark wraps each call it makes into a layer in a span; spans
   nest through a stack, so a span's parent is the one open when it
   started.  Nothing is written until [write], at the end of the run.
   Single-threaded by design: the traced run drives one request at a
   time. *)

type span = {
  id : int;
  name : string;
  req : int;     (** request id shared by every span of one request *)
  parent : int;  (** id of the enclosing span, -1 at the top *)
  start : float;
  mutable stop : float;
}

type t = { mutable buf : span array; mutable len : int; mutable stack : int list }

let create () = { buf = [||]; len = 0; stack = [] }

let push t s =
  if t.len = Array.length t.buf then begin
    let bigger = Array.make (max 1024 (2 * t.len)) s in
    Array.blit t.buf 0 bigger 0 t.len;
    t.buf <- bigger
  end;
  t.buf.(t.len) <- s;
  t.len <- t.len + 1

let record t ~req name f =
  let parent = match t.stack with p :: _ -> p | [] -> -1 in
  let s = { id = t.len; name; req; parent; start = Unix.gettimeofday (); stop = nan } in
  push t s;
  t.stack <- s.id :: t.stack;
  Fun.protect
    ~finally:(fun () ->
      s.stop <- Unix.gettimeofday ();
      t.stack <- List.tl t.stack)
    f

let spans t = Array.to_list (Array.sub t.buf 0 t.len)

let ms s = (s.stop -. s.start) *. 1000.0

(* Children run inside their parent on the same thread, so they never
   overlap each other: the parent's self time is its duration minus the
   sum of theirs. *)
let self_ms t =
  let child = Array.make t.len 0.0 in
  for i = 0 to t.len - 1 do
    let s = t.buf.(i) in
    if s.parent >= 0 then child.(s.parent) <- child.(s.parent) +. ms s
  done;
  List.init t.len (fun i -> (t.buf.(i).name, ms t.buf.(i) -. child.(i)))

let to_json t =
  let module J = Obs.Json in
  J.List
    (List.map
       (fun s ->
         J.Obj
           [ ("id", J.Int s.id); ("name", J.Str s.name); ("req", J.Int s.req);
             ("parent", J.Int s.parent); ("start", J.Float s.start); ("end", J.Float s.stop) ])
       (spans t))

let write t path =
  let oc = open_out path in
  Fun.protect ~finally:(fun () -> close_out oc) (fun () -> output_string oc (Obs.Json.to_string (to_json t)))
