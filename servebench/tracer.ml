(* In-memory span recorder for the traced run.

   A span is one call into a layer, recorded by the benchmark around the
   layer's public function: name, start, end, the enclosing span and the
   request it belongs to. Spans stay in memory until [save] writes them
   out at the end of the run; [self_times] derives each layer's self time
   (its spans' durations minus the part their direct children cover). *)

type span = {
  id : int;
  name : string;
  parent : int;  (** -1 for a request's root span *)
  request : int;
  start : float;
  mutable stop : float;
}

type t = {
  mutable on : bool;  (** spans are recorded only while on *)
  mutable spans : span array;
  mutable n : int;
  mutable stack : int list;
  mutable request : int;
}

let create () = { on = false; spans = [||]; n = 0; stack = []; request = 0 }

let set_on t on = t.on <- on

let set_request t id = t.request <- id

let push t s =
  if t.n = Array.length t.spans then begin
    let bigger = Array.make (max 1024 (2 * t.n)) s in
    Array.blit t.spans 0 bigger 0 t.n;
    t.spans <- bigger
  end;
  t.spans.(t.n) <- s;
  t.n <- t.n + 1

let span t name f =
  if not t.on then f ()
  else
  let parent = match t.stack with p :: _ -> p | [] -> -1 in
  let s =
    {
      id = t.n;
      name;
      parent;
      request = t.request;
      start = Unix.gettimeofday ();
      stop = nan;
    }
  in
  push t s;
  t.stack <- s.id :: t.stack;
  Fun.protect
    ~finally:(fun () ->
      s.stop <- Unix.gettimeofday ();
      t.stack <- List.tl t.stack)
    f

(* Seconds of self time per span name. *)
let self_times t =
  let tbl = Hashtbl.create 32 in
  let add name d =
    Hashtbl.replace tbl name (d +. Option.value ~default:0. (Hashtbl.find_opt tbl name))
  in
  for i = 0 to t.n - 1 do
    let s = t.spans.(i) in
    let d = s.stop -. s.start in
    add s.name d;
    if s.parent >= 0 then add t.spans.(s.parent).name (-.d)
  done;
  tbl

let save t file =
  let oc = open_out file in
  Fun.protect
    ~finally:(fun () -> close_out oc)
    (fun () ->
      for i = 0 to t.n - 1 do
        let s = t.spans.(i) in
        Printf.fprintf oc
          "{\"id\":%d,\"name\":%S,\"parent\":%d,\"request\":%d,\"start\":%.6f,\"end\":%.6f}\n"
          s.id s.name s.parent s.request s.start s.stop
      done)
