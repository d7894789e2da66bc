(* The served-request benchmark.

   One process drives [Serve.handle] in-process from a single thread, as
   one closed-loop client: the next request goes out when the previous
   response is back. [Serve.handle] is the server's own "one request line
   to one response line" entry point, so a timing covers protocol
   parsing, reformulation, cover search, evaluation, rendering and the
   write path, and leaves the loopback stack and thread scheduling out.

     main.exe --workload NAME --seed N --seconds S --trace 0|1
     main.exe --self-check

   The last line of standard output is one JSON object: correct,
   attempted, failed and the metrics (end-to-end ones with --trace 0,
   per-layer ones with --trace 1). The line before it gives attempted and
   failed per request kind. See README.md for the workloads. *)

open Refq_rdf
open Refq_query
open Refq_storage
module Json = Refq_obs.Json
module Serve = Refq_serve.Serve
module Session = Refq_serve.Session
module Config = Refq_core.Config
module Persist = Refq_persist.Persist
module Saturate = Refq_saturation.Saturate
module Naive = Refq_engine.Naive
module Audit_store = Refq_analysis.Audit_store
module Diagnostic = Refq_analysis.Diagnostic
module W = Workloads
module Vec = Refq_util.Vec

let now = Unix.gettimeofday
let work_dir = "_servebench"

let fail fmt = Printf.ksprintf (fun m -> prerr_endline ("servebench: " ^ m); exit 2) fmt

(* ------------------------------------------------------------------ *)
(* Workloads                                                           *)
(* ------------------------------------------------------------------ *)

type stream = {
  data : unit -> Store.t;  (** the seeded data, built anew by each set-up *)
  round : int -> W.step array;  (** round [r] of the request loop *)
  warm : W.step array;  (** the hot pass users pay once, part of set-up *)
  tail : W.step array;  (** a round of writes repeated after the loop *)
}

type workload = {
  name : string;
  engine : Config.engine;
  persist : bool;
  setups : int;
      (** set-ups per run, [setup_s] is their median: five where one
          takes under a second, so a slow spell of the host moves the
          median less; three on lubm-gen-read, whose set-up takes 4–5 s *)
  tail_rounds : int;  (** times the tail is sent after the loop *)
  stream : seed:int -> stream;
}

let gen_read_scale = 50
let hot_write_scale = 10

let lubm_gen_read =
  {
    name = "lubm-gen-read";
    engine = Config.Binary;
    persist = false;
    setups = 3;
    tail_rounds = 4;
    stream =
      (fun ~seed ->
        let data () = W.lubm_store ~scale:gen_read_scale in
        let store = data () in
        let saturated = Saturate.store store in
        let round =
          W.gen_read_round ~seed ~per_stratum:300 ~n_sample:12 store ~saturated
        in
        {
          data;
          round = (fun _ -> round);
          warm =
            Array.of_list
              (List.concat_map
                 (fun q -> List.map (W.read q) (Array.to_list W.strategies))
                 W.bundled);
          tail = W.lubm_tail;
        });
  }

let lubm_hot_write =
  {
    name = "lubm-hot-write";
    engine = Config.Binary;
    persist = true;
    setups = 5;
    tail_rounds = 0;
    stream =
      (fun ~seed ->
        {
          data = (fun () -> W.lubm_store ~scale:hot_write_scale);
          round = W.hot_write_round ~seed;
          warm = Array.of_list (List.map (fun (q, s) -> W.read q s) W.hot_set);
          tail = [||];
        });
  }

let digraph_cyclic =
  {
    name = "digraph-cyclic";
    engine = Config.Auto;
    persist = false;
    setups = 5;
    tail_rounds = 8;
    stream =
      (fun ~seed ->
        let g = W.digraph ~seed ~nodes:2000 ~degree:16 in
        let tq, _ = W.triangles g in
        let round = W.digraph_round ~seed ~n_rooted:600 g in
        {
          data = (fun () -> W.digraph_store g);
          round = (fun _ -> round);
          warm = [| W.read tq "sat"; W.read tq "ucq" |];
          tail = W.digraph_tail;
        });
  }

let workloads = [ lubm_gen_read; lubm_hot_write; digraph_cyclic ]

(* The request stream is built in a child process and handed over
   through a pipe, so what building it takes (on lubm-gen-read the
   data's saturation and thousands of exact evaluations to pick the
   queries) stays out of this process's peak resident set. *)
let build_stream wl ~seed : stream =
  flush_all ();
  let rd, wr = Unix.pipe ~cloexec:true () in
  match Unix.fork () with
  | 0 -> (
    Unix.close rd;
    let oc = Unix.out_channel_of_descr wr in
    match Marshal.to_channel oc (wl.stream ~seed) [ Marshal.Closures ] with
    | () ->
      close_out oc;
      Unix._exit 0
    | exception e ->
      prerr_endline ("servebench: " ^ Printexc.to_string e);
      Unix._exit 2)
  | pid -> (
    Unix.close wr;
    let ic = Unix.in_channel_of_descr rd in
    let s = try Some (Marshal.from_channel ic : stream) with End_of_file | Failure _ -> None in
    close_in ic;
    match (s, snd (Unix.waitpid [] pid)) with
    | Some s, Unix.WEXITED 0 -> s
    | _ -> fail "building the %s request stream failed" wl.name)

(* ------------------------------------------------------------------ *)
(* Set-up                                                              *)
(* ------------------------------------------------------------------ *)

let rec rm_rf path =
  match Sys.is_directory path with
  | true ->
    Array.iter (fun f -> rm_rf (Filename.concat path f)) (Sys.readdir path);
    Sys.rmdir path
  | false -> Sys.remove path
  | exception Sys_error _ -> ()

let fresh_dir =
  let k = ref 0 in
  fun () ->
    incr k;
    if not (Sys.file_exists work_dir) then Sys.mkdir work_dir 0o755;
    let d =
      Filename.concat work_dir (Printf.sprintf "persist-%d-%d" (Unix.getpid ()) !k)
    in
    rm_rf d;
    d

type served = {
  wl : workload;
  s : stream;
  session : Session.t;
  server : Serve.t;
  dir : string option;
  setup_s : float;
}

let parse_response line =
  match Json.parse line with
  | Error m -> Error ("unparseable response: " ^ m)
  | Ok j -> (
    match Json.member "ok" j with
    | Some (Json.Bool true) -> Ok j
    | _ ->
      Error
        (Option.value ~default:line
           (Option.bind (Json.member "error" j) Json.to_string_opt)))

let rows_of j =
  match Option.bind (Json.member "rows" j) Json.to_list with
  | None -> None
  | Some rows ->
    Some
      (W.sort_rows
         (List.map
            (fun r ->
              List.map
                (fun c -> Option.value ~default:"" (Json.to_string_opt c))
                (Option.value ~default:[] (Json.to_list r)))
            rows))

(* One set-up: generate the data, open the session (seeding the
   persistence directory where the workload has one), start the server
   and make the warm-up pass. With a [tracer], the first two steps are
   recorded as spans. *)
let setup ?tracer wl (s : stream) =
  let span name f =
    match tracer with Some tr -> Tracer.span tr name f | None -> f ()
  in
  let t0 = now () in
  let store = span "workload.generate" s.data in
  let dir = if wl.persist then Some (fresh_dir ()) else None in
  let config =
    let c =
      Session.Config.default
      |> Session.Config.with_answer
           (Config.default |> Config.with_engine wl.engine)
    in
    match dir with Some d -> Session.Config.with_persist_dir d c | None -> c
  in
  let session, server =
    span "serve.open" (fun () ->
        let session =
          match Session.open_ ~config ~store () with
          | Ok x -> x
          | Error m -> fail "session: %s" m
        in
        match Serve.start session with
        | Ok x -> (session, x)
        | Error m -> fail "serve: %s" m)
  in
  Array.iter
    (fun (st : W.step) ->
      match parse_response (Serve.handle server st.W.line) with
      | Ok _ -> ()
      | Error m -> fail "warm-up request failed: %s" m)
    s.warm;
  { wl; s; session; server; dir; setup_s = now () -. t0 }

let teardown sv =
  Serve.stop sv.server;
  Option.iter rm_rf sv.dir

(* ------------------------------------------------------------------ *)
(* The host canary                                                     *)
(* ------------------------------------------------------------------ *)

(* A fixed CPU-and-allocation kernel: hash-table inserts and a sort of
   boxed floats, the kinds of work the server does. It takes about
   [reference_kernel_ms] on a calm host. The host is shared, and in
   spells of seconds to minutes it runs everything up to 1.5x slower;
   the kernel slows with it, and with no change to the program. *)
let kernel_ms () =
  let t0 = now () in
  let h = Hashtbl.create 16 in
  for i = 0 to 19_999 do
    Hashtbl.replace h ((i * 7919) mod 1_000_003) i
  done;
  let a = Array.init 20_000 (fun i -> float_of_int ((i * 7919) mod 100_003)) in
  Array.sort compare a;
  ignore (Sys.opaque_identity (h, a));
  (now () -. t0) *. 1000.

let reference_kernel_ms = 10.

(* The loop runs the kernel between two requests once this many seconds
   have passed since it last ran, never inside a timed request. *)
let kernel_every = 0.25

(* ------------------------------------------------------------------ *)
(* The request loop                                                    *)
(* ------------------------------------------------------------------ *)

type acc = {
  counts : (W.kind, int ref * int ref) Hashtbl.t;  (** attempted, failed *)
  mutable errors : string list;  (** the first few failure messages *)
  reads : (int * float) Vec.t;
      (** answer latencies in seconds, with the request's position in its
          round *)
  mutable read_alloc : float;  (** bytes *)
  writes : (int * float) Vec.t;  (** likewise *)
  mutable write_alloc : float;
  visible : (int * float) Vec.t;  (** with the write's position *)
  mutable pending_write : (int * float) option;
  mutable last_data : int;  (** data epoch of the last response seen *)
  mutable answers : int;  (** answer rows returned by answer requests *)
  samples : (int, Cq.t * string list list) Hashtbl.t;
  kernel : float Vec.t;  (** the canary's times in ms, between requests *)
  mutable last_kernel : float;
}

let new_acc () =
  let counts = Hashtbl.create 4 in
  List.iter (fun k -> Hashtbl.replace counts k (ref 0, ref 0)) W.kinds;
  {
    counts;
    errors = [];
    reads = Vec.create ();
    read_alloc = 0.;
    writes = Vec.create ();
    write_alloc = 0.;
    visible = Vec.create ();
    pending_write = None;
    last_data = -1;
    answers = 0;
    samples = Hashtbl.create 16;
    kernel = Vec.create ();
    last_kernel = 0.;
  }

let note_failure acc kind msg =
  let _, failed = Hashtbl.find acc.counts kind in
  incr failed;
  if List.length acc.errors < 5 then
    acc.errors <- Printf.sprintf "%s: %s" (W.kind_name kind) msg :: acc.errors

let data_epoch j =
  Option.bind (Json.member "epochs" j) (fun e ->
      Option.bind (Json.member "data" e) Json.to_int)

(* The output check of one response. *)
let check acc ~pos (st : W.step) j =
  let rows = rows_of j in
  match st.W.kind with
  | W.Answer | W.Probe -> (
    Option.iter (fun r -> acc.answers <- acc.answers + List.length r) rows;
    match (rows, st.W.expect) with
    | None, _ -> Error "response without rows"
    | Some r, Some e when r <> e ->
      Error
        (Printf.sprintf "%d rows, expected %d: %s" (List.length r)
           (List.length e) st.W.line)
    | Some r, _ ->
      (if st.W.sample && not (Hashtbl.mem acc.samples pos) then
         Hashtbl.replace acc.samples pos (Option.get st.W.query, r));
      Ok ())
  | W.Insert | W.Delete -> (
    let applied = Option.bind (Json.member "applied" j) Json.to_int in
    match (applied, data_epoch j) with
    | Some a, Some d when a = st.W.applied ->
      if acc.last_data >= 0 && d <> acc.last_data + a then
        Error (Printf.sprintf "data epoch %d after epoch %d and %d mutation(s)" d acc.last_data a)
      else Ok ()
    | Some a, _ -> Error (Printf.sprintf "applied %d, expected %d" a st.W.applied)
    | None, _ -> Error "response without applied count")

let timed exec line =
  let a0 = Gc.allocated_bytes () in
  let t0 = now () in
  let resp = exec line in
  let t1 = now () in
  let a1 = Gc.allocated_bytes () in
  (resp, t1 -. t0, a1 -. a0)

let run_step acc exec ~pos (st : W.step) =
  if now () -. acc.last_kernel >= kernel_every then begin
    Vec.push acc.kernel (kernel_ms ());
    acc.last_kernel <- now ()
  end;
  let resp, dt, alloc = timed exec st.W.line in
  let attempted, _ = Hashtbl.find acc.counts st.W.kind in
  incr attempted;
  (match st.W.kind with
  | W.Answer ->
    Vec.push acc.reads (pos, dt);
    acc.read_alloc <- acc.read_alloc +. alloc
  | W.Insert | W.Delete ->
    Vec.push acc.writes (pos, dt);
    acc.write_alloc <- acc.write_alloc +. alloc;
    acc.pending_write <- Some (pos, dt)
  | W.Probe ->
    Option.iter (fun (w, d) -> Vec.push acc.visible (w, d +. dt)) acc.pending_write;
    acc.pending_write <- None);
  (match parse_response resp with
  | Error m -> note_failure acc st.W.kind m
  | Ok j -> (
    (match check acc ~pos st j with
    | Ok () -> ()
    | Error m -> note_failure acc st.W.kind m);
    match data_epoch j with Some d -> acc.last_data <- d | None -> ()));
  dt

(* Whole rounds until [stop r] holds before round [r]: the rounds run
   and the summed latency of their requests. *)
let run_rounds acc exec (s : stream) ~stop =
  let r = ref 0 and busy = ref 0. in
  while not (stop !r) do
    Array.iteri
      (fun pos st -> busy := !busy +. run_step acc exec ~pos st)
      (s.round !r);
    incr r
  done;
  (!r, !busy)

(* The tail's rounds, after the loop. Their positions are negative,
   apart from the loop's. *)
let run_tail acc exec wl (s : stream) =
  for _ = 1 to wl.tail_rounds do
    Array.iteri
      (fun i st ->
        (* the canary runs before every request of the tail *)
        acc.last_kernel <- neg_infinity;
        ignore (run_step acc exec ~pos:(-1 - i) st))
      s.tail
  done

(* ------------------------------------------------------------------ *)
(* End checks                                                          *)
(* ------------------------------------------------------------------ *)

let answer_rows exec q strategy =
  match parse_response (exec (W.answer_line q strategy)) with
  | Error m -> Error m
  | Ok j -> Option.to_result ~none:"response without rows" (rows_of j)

(* The atoms of [q] ordered so each shares a variable with an earlier
   one, most constants first: the same query, cheaper for [Naive]. *)
let naive_order (q : Cq.t) =
  let n_cst (a : Cq.atom) =
    List.length (List.filter (function Cq.Cst _ -> true | Cq.Var _ -> false) [ a.Cq.s; a.Cq.p; a.Cq.o ])
  in
  let rec go bound acc = function
    | [] -> List.rev acc
    | atoms ->
      let score a =
        let shares = List.exists (fun v -> List.mem v bound) (Cq.atom_vars a) in
        ((if shares || bound = [] then 0 else 1), - n_cst a)
      in
      let best =
        List.fold_left (fun b a -> if compare (score a) (score b) < 0 then a else b)
          (List.hd atoms) atoms
      in
      go (Cq.atom_vars best @ bound) (best :: acc) (List.filter (fun a -> a != best) atoms)
  in
  { q with Cq.body = go [] [] q.Cq.body }

(* The triples of [g] that can take part in an answer of [q]: per atom,
   the triples matching it, semi-join reduced against every atom sharing
   a variable until nothing changes. Every triple of every answer
   survives, so [Naive] over the result equals [Naive] over [g], at a
   fraction of the cost. *)
let relevant g (q : Cq.t) =
  let bind (a : Cq.atom) (tr : Triple.t) =
    let rec go acc = function
      | [] -> Some acc
      | (Cq.Cst c, t) :: rest -> if Term.equal c t then go acc rest else None
      | (Cq.Var v, t) :: rest -> (
        match List.assoc_opt v acc with
        | Some t' -> if Term.equal t t' then go acc rest else None
        | None -> go ((v, t) :: acc) rest)
    in
    go [] [ (a.Cq.s, tr.Triple.s); (a.Cq.p, tr.Triple.p); (a.Cq.o, tr.Triple.o) ]
  in
  let atoms = Array.of_list q.Cq.body in
  let sets =
    Array.map
      (fun a ->
        Graph.fold
          (fun tr acc -> match bind a tr with Some b -> (tr, b) :: acc | None -> acc)
          g [])
      atoms
  in
  let values i v =
    let h = Hashtbl.create 64 in
    List.iter (fun (_, b) -> Hashtbl.replace h (List.assoc v b) ()) sets.(i);
    h
  in
  let changed = ref true in
  while !changed do
    changed := false;
    Array.iteri
      (fun i a ->
        List.iter
          (fun v ->
            Array.iteri
              (fun j b ->
                if j <> i && List.mem v (Cq.atom_vars b) then begin
                  let keep = values j v in
                  let before = List.length sets.(i) in
                  sets.(i) <- List.filter (fun (_, bd) -> Hashtbl.mem keep (List.assoc v bd)) sets.(i);
                  if List.length sets.(i) <> before then changed := true
                end)
              atoms)
          (Cq.atom_vars a))
      atoms
  done;
  Array.fold_left (List.fold_left (fun g (tr, _) -> Graph.add tr g)) Graph.empty sets

(* lubm-gen-read: each sampled query again under all four strategies,
   and against [Naive] over the saturated graph, which the benchmark
   saturates itself. *)
let check_samples acc exec sv =
  let saturated = lazy (Store.to_graph (Saturate.store (Session.store sv.session))) in
  Hashtbl.iter
    (fun _ (q, served) ->
      Array.iter
        (fun s ->
          match answer_rows exec q s with
          | Ok r when r = served -> ()
          | Ok r ->
            note_failure acc W.Answer
              (Printf.sprintf "%s gives %d rows, served %d: %s" s (List.length r)
                 (List.length served) (W.answer_line q s))
          | Error m -> note_failure acc W.Answer m)
        W.strategies;
      let g = relevant (Lazy.force saturated) q in
      let naive =
        W.sort_rows (List.map (List.map W.render) (Naive.cq g (naive_order q)))
      in
      if naive <> served then
        note_failure acc W.Answer
          (Printf.sprintf "naive gives %d rows, served %d: %s" (List.length naive)
             (List.length served) (W.answer_line q "naive")))
    acc.samples

let hot_answers exec =
  List.map
    (fun (q, s) ->
      match answer_rows exec q s with Ok r -> Some r | Error _ -> None)
    W.hot_set

(* lubm-hot-write, after the server drained: the directory recovers to
   the live triple set, and the audit finds nothing. *)
let check_recovery acc sv dir =
  let findings = Diagnostic.errors (Audit_store.check_persist dir) in
  if findings <> [] then
    note_failure acc W.Insert
      (Fmt.str "audit-store --persist: %a" (Fmt.list Diagnostic.pp) findings);
  match Persist.recover dir with
  | Error m -> note_failure acc W.Insert ("recover: " ^ m)
  | Ok r ->
    let live = Store.to_graph (Session.store sv.session) in
    if not (Graph.equal live (Store.to_graph r.Persist.store)) then
      note_failure acc W.Insert "recovered triples differ from the served ones"

(* ------------------------------------------------------------------ *)
(* Measurements                                                        *)
(* ------------------------------------------------------------------ *)

(* Linear interpolation between closest ranks. *)
let quantile_of a q =
  let a = Array.copy a in
  let n = Array.length a in
  if n = 0 then nan
  else begin
    Array.sort compare a;
    let x = q *. float_of_int (n - 1) in
    let i = int_of_float x in
    if i + 1 >= n then a.(n - 1) else a.(i) +. ((x -. float_of_int i) *. (a.(i + 1) -. a.(i)))
  end

let median l = quantile_of (Array.of_list l) 0.5

(* Per position: every round sends the same requests in the same order,
   so the latencies at one position of the round, one per round, are
   repeated measurements of one request. Each position is summarised by
   the mean of its latencies, and the run's statistics are then taken
   over the positions, so every request of a round enters every one of
   them once. (Medians and first quartiles per position were tried: a
   position's latencies are bimodal, with and without a garbage
   collection slice, and which mode a low quantile fell in moved
   lubm-hot-write's read_p50_ms by 14-16% between runs, the mean by 7%.)
   The tail's rounds after the loop are summarised the same way. *)
let per_position v =
  let tbl = Hashtbl.create 1024 in
  Vec.iter
    (fun (pos, x) ->
      Hashtbl.replace tbl pos (x :: Option.value ~default:[] (Hashtbl.find_opt tbl pos)))
    v;
  Array.of_seq
    (Seq.map
       (fun xs -> List.fold_left ( +. ) 0. xs /. float_of_int (List.length xs))
       (Hashtbl.to_seq_values tbl))

let sum a = Array.fold_left ( +. ) 0. a

let peak_rss_mb () =
  match open_in "/proc/self/status" with
  | exception Sys_error _ ->
    float_of_int ((Gc.quick_stat ()).Gc.top_heap_words * (Sys.word_size / 8)) /. 1048576.
  | ic ->
    let rec find () =
      match input_line ic with
      | exception End_of_file -> nan
      | l when String.length l > 6 && String.sub l 0 6 = "VmHWM:" ->
        Scanf.sscanf (String.sub l 6 (String.length l - 6)) " %d" (fun kb -> float_of_int kb /. 1024.)
      | _ -> find ()
    in
    let mb = find () in
    close_in ic;
    mb

let metric name unit value = (name, Json.Obj [ ("value", Json.Float value); ("unit", Json.String unit) ])

let totals acc =
  Hashtbl.fold (fun _ (a, f) (sa, sf) -> (sa + !a, sf + !f)) acc.counts (0, 0)

let print_result acc ~ok metrics =
  let per_kind =
    List.map
      (fun k ->
        let a, f = Hashtbl.find acc.counts k in
        (W.kind_name k, Json.Obj [ ("attempted", Json.Int !a); ("failed", Json.Int !f) ]))
      W.kinds
  in
  List.iter (fun e -> prerr_endline ("servebench: failed " ^ e)) (List.rev acc.errors);
  print_endline (Json.to_string ~indent:false (Json.Obj [ ("kinds", Json.Obj per_kind) ]));
  let attempted, failed = totals acc in
  print_endline
    (Json.to_string ~indent:false
       (Json.Obj
          [
            ("correct", Json.Bool (ok && failed = 0));
            ("attempted", Json.Int attempted);
            ("failed", Json.Int failed);
            ("metrics", Json.Obj metrics);
          ]))

(* The checks after the loop: the sample (lubm-gen-read), the hot set
   (lubm-hot-write), then the drain and, under persistence, recovery.
   [exec] is the path the loop used. *)
let finish acc exec sv ~hot0 =
  (match sv.wl.name with
  | "lubm-gen-read" -> check_samples acc exec sv
  | "lubm-hot-write" ->
    if hot_answers exec <> hot0 then
      note_failure acc W.Answer "hot-set answers differ from the start"
  | _ -> ());
  Serve.stop sv.server;
  Option.iter (check_recovery acc sv) sv.dir;
  Option.iter rm_rf sv.dir

let start_epoch acc exec =
  match parse_response (exec {|{"op":"ping"}|}) with
  | Ok j -> acc.last_data <- Option.value ~default:(-1) (data_epoch j)
  | Error m -> fail "ping: %s" m

let ms x = x *. 1000.

(* --trace 0: [wl.setups] set-ups (their median is [setup_s]), the timed loop
   through [Serve.handle] for [seconds] (whole rounds), the tail, the
   checks. The peak resident set is read after the loop, before the tail
   and the checks, so it covers set-up and serving only.

   Every timing is reported at the host speed where the canary takes
   [reference_kernel_ms]: the measured time times [reference_kernel_ms]
   over the canary's median time in the same phase (three times before
   each set-up, on the compacted heap, for [setup_s]; between the requests of the tail for the
   write timings where the workload writes in its tail only; between
   the requests of the loop for the rest). A slow spell of the shared host slows the canary
   and the program alike and cancels out; a slower program does not
   slow the canary. Over six runs of identical code on lubm-hot-write,
   the raw timings spread by 30-45% and the scaled ones by 3-7%. The
   raw figures and the canary go to standard error. *)
let end_to_end wl ~seed ~seconds =
  let t_stream = now () in
  let s = build_stream wl ~seed in
  let t_stream = now () -. t_stream in
  (* Each set-up starts from a compacted heap; all but the last are torn
     down before the next. *)
  let rec setups k times kernels =
    Gc.compact ();
    let kernels = List.init 3 (fun _ -> kernel_ms ()) @ kernels in
    let sv = setup wl s in
    let times = sv.setup_s :: times in
    if k = 1 then (sv, List.rev times, kernels)
    else begin
      teardown sv;
      setups (k - 1) times kernels
    end
  in
  let sv, setup_times, setup_kernels = setups wl.setups [] [] in
  Gc.compact ();
  let exec = Serve.handle sv.server in
  let hot0 = hot_answers exec in
  let acc = new_acc () in
  start_epoch acc exec;
  let t_loop = now () in
  let deadline = t_loop +. seconds in
  let rounds, _ = run_rounds acc exec sv.s ~stop:(fun r -> r > 0 && now () >= deadline) in
  let t_end = now () in
  let rss = peak_rss_mb () in
  let loop_kernels = Vec.to_list acc.kernel in
  run_tail acc exec wl sv.s;
  finish acc exec sv ~hot0;
  let tail_kernels = List.filteri (fun i _ -> i >= List.length loop_kernels) (Vec.to_list acc.kernel) in
  let setup_kernel = median setup_kernels and loop_kernel = median loop_kernels in
  let write_kernel = if wl.tail_rounds > 0 then median tail_kernels else loop_kernel in
  let setup_scale = reference_kernel_ms /. setup_kernel in
  let scale = reference_kernel_ms /. loop_kernel in
  let write_scale = reference_kernel_ms /. write_kernel in
  let reads = per_position acc.reads in
  let writes = per_position acc.writes and visible = per_position acc.visible in
  let raw = [
      ("setup_s", median setup_times);
      ("read_p50_ms", ms (quantile_of reads 0.5));
      ("read_p90_ms", ms (quantile_of reads 0.9));
      ("read_qps", float_of_int (Array.length reads) /. sum reads);
      ("write_p50_ms", ms (quantile_of writes 0.5));
      ("write_visible_p50_ms", ms (quantile_of visible 0.5));
    ]
  in
  Printf.eprintf
    "servebench: %s seed %d: %d triples, stream %.1f s, set-ups %s s, %d rounds in %.1f s, end %.1f s\n\
     servebench: canary %.2f ms at set-up, %.2f ms in the loop (%d samples), %.2f ms for the writes; unscaled: %s\n%!"
    wl.name seed (Store.size (Session.store sv.session)) t_stream
    (String.concat "/" (List.map (Printf.sprintf "%.1f") setup_times))
    rounds (t_end -. t_loop) (now () -. t_end) setup_kernel loop_kernel
    (List.length loop_kernels) write_kernel
    (String.concat " " (List.map (fun (n, v) -> Printf.sprintf "%s=%.4g" n v) raw));
  let timing name unit =
    let v = List.assoc name raw in
    let k =
      match name with
      | "setup_s" -> setup_scale
      | "write_p50_ms" | "write_visible_p50_ms" -> write_scale
      | _ -> scale
    in
    metric name unit (if name = "read_qps" then v /. k else v *. k)
  in
  let n_reads = float_of_int (Vec.length acc.reads) in
  let n_writes = float_of_int (Vec.length acc.writes) in
  print_result acc ~ok:true
    [
      timing "setup_s" "s";
      timing "read_p50_ms" "ms";
      timing "read_p90_ms" "ms";
      timing "read_qps" "1/s";
      metric "read_alloc_kb" "KiB" (acc.read_alloc /. n_reads /. 1024.);
      timing "write_p50_ms" "ms";
      timing "write_visible_p50_ms" "ms";
      metric "write_alloc_kb" "KiB" (acc.write_alloc /. n_writes /. 1024.);
      metric "peak_rss_mb" "MB" rss;
    ]

(* The server's counters, read through its own [stats] verb. *)
let stats server =
  match parse_response (Serve.handle server {|{"op":"stats"}|}) with
  | Error m -> fail "stats: %s" m
  | Ok j ->
    let text =
      Option.value ~default:"" (Option.bind (Json.member "prometheus" j) Json.to_string_opt)
    in
    let tbl = Hashtbl.create 64 in
    List.iter
      (fun l ->
        match String.split_on_char ' ' l with
        | [ name; v ] when l.[0] <> '#' -> Hashtbl.replace tbl name (float_of_string v)
        | _ -> ())
      (String.split_on_char '\n' text);
    tbl

let counter tbl name =
  let key = "refq_" ^ String.map (fun c -> if c = '.' then '_' else c) name in
  Option.value ~default:0. (Hashtbl.find_opt tbl key)

let wal_bytes dir =
  List.fold_left
    (fun acc which ->
      match Unix.stat (Persist.path dir which) with
      | st -> acc + st.Unix.st_size
      | exception Unix.Unix_error _ -> acc)
    0 [ `Wal_cur; `Wal_prev ]

(* --trace 1: one set-up with its steps traced; an untraced pass through
   [Serve.handle] for half of [seconds] (whole rounds); then the same
   rounds and the tail through the traced mirror ([Mirror]), after a
   warm-up pass of its own; then the checks. The host canary runs before
   and after. *)
let traced wl ~seed ~seconds =
  let kernel0 = kernel_ms () in
  let tracer = Tracer.create () in
  let s = build_stream wl ~seed in
  Tracer.set_on tracer true;
  let sv = setup ~tracer wl s in
  Tracer.set_on tracer false;
  let exec = Serve.handle sv.server in
  let hot0 = hot_answers exec in
  let plain = new_acc () in
  start_epoch plain exec;
  let deadline = now () +. (seconds /. 2.) in
  let rounds, busy0 =
    run_rounds plain exec sv.s ~stop:(fun r -> r > 0 && now () >= deadline)
  in
  let mirror = Mirror.create tracer sv.session in
  let mexec = Mirror.handle mirror in
  Array.iter (fun (st : W.step) -> ignore (mexec st.W.line)) sv.s.warm;
  let acc = new_acc () in
  start_epoch acc mexec;
  let c0 = stats sv.server in
  let wal0 = Option.fold ~none:0 ~some:wal_bytes sv.dir in
  let gc0 = (Gc.quick_stat ()).Gc.major_collections in
  Tracer.set_on tracer true;
  let _, busy1 = run_rounds acc mexec sv.s ~stop:(fun r -> r >= rounds) in
  run_tail acc mexec wl sv.s;
  Tracer.set_on tracer false;
  let gc1 = (Gc.quick_stat ()).Gc.major_collections in
  let wal1 = Option.fold ~none:0 ~some:wal_bytes sv.dir in
  let c1 = stats sv.server in
  finish acc mexec sv ~hot0;
  let kernel1 = kernel_ms () in
  if not (Sys.file_exists work_dir) then Sys.mkdir work_dir 0o755;
  Tracer.save tracer
    (Filename.concat work_dir (Printf.sprintf "spans-%s-%d.jsonl" wl.name seed));
  (* Merge the untraced pass into the accounting. *)
  Hashtbl.iter
    (fun k (a, f) ->
      let a', f' = Hashtbl.find acc.counts k in
      a' := !a' + !a;
      f' := !f' + !f)
    plain.counts;
  acc.errors <- acc.errors @ plain.errors;
  let self = Tracer.self_times tracer in
  let self_ms name = ms (Option.value ~default:0. (Hashtbl.find_opt self name)) in
  let delta name = counter c1 name -. counter c0 name in
  let reads = float_of_int (Vec.length acc.reads + Vec.length acc.visible) in
  let writes = float_of_int (max 1 (Vec.length acc.writes)) in
  let per_read name = delta name /. reads in
  let ratio level =
    let h = delta ("cache." ^ level ^ "_hits") and m = delta ("cache." ^ level ^ "_misses") in
    if h +. m = 0. then 0. else h /. (h +. m)
  in
  let read_ms name = self_ms name /. reads and write_ms name = self_ms name /. writes in
  print_result acc ~ok:true
    [
      metric "serve.parse_ms" "ms" (self_ms "serve.parse" /. (reads +. writes));
      metric "serve.render_ms" "ms" (read_ms "serve.render");
      metric "reform.reformulate_ms" "ms" (read_ms "reform.reformulate");
      metric "reform.disjuncts" "count/req" (per_read "reform.disjuncts");
      metric "core.gcov_search_ms" "ms" (read_ms "core.gcov_search");
      metric "gcov.covers_explored" "count/req" (per_read "gcov.covers_explored");
      metric "engine.evaluate_ms" "ms" (read_ms "engine.evaluate");
      metric "engine.index_probes" "count/req" (per_read "engine.index_probes");
      metric "engine.intermediate_rows" "count/req" (per_read "engine.intermediate_rows");
      metric "engine.rows_per_answer" "ratio"
        (delta "engine.intermediate_rows" /. float_of_int (max 1 acc.answers));
      metric "wco.leapfrog_ms" "ms" (read_ms "wco.leapfrog");
      metric "wco.seeks" "count/req" (per_read "wco.seeks");
      metric "wco.nexts" "count/req" (per_read "wco.nexts");
      metric "wco.fallbacks" "count/req" (per_read "wco.fallbacks");
      metric "cache.reform_hit_ratio" "ratio" (ratio "reform");
      metric "cache.cover_hit_ratio" "ratio" (ratio "cover");
      metric "cache.result_hit_ratio" "ratio" (ratio "result");
      metric "serve.apply_ms" "ms" (write_ms "serve.apply");
      metric "persist.wal_bytes_per_mutation" "B" (float_of_int (wal1 - wal0) /. writes);
      metric "storage.copy_ms" "ms" (write_ms "storage.copy");
      metric "storage.to_graph_ms" "ms" (write_ms "storage.to_graph");
      metric "schema.closure_ms" "ms" (write_ms "schema.closure");
      metric "cost.stats_ms" "ms" (write_ms "cost.stats");
      metric "core.make_env_ms" "ms" (write_ms "core.make_env");
      metric "saturation.saturate_ms" "ms" (read_ms "saturation.saturate");
      metric "saturate.derived" "count/req" (per_read "saturate.derived");
      metric "workload.generate_ms" "ms" (self_ms "workload.generate");
      metric "serve.open_ms" "ms" (self_ms "serve.open");
      metric "gc.major_collections" "count/req" (float_of_int (gc1 - gc0) /. (reads +. writes));
      metric "host.kernel_ms" "ms"
        (median ((kernel0 :: kernel1 :: Vec.to_list plain.kernel) @ Vec.to_list acc.kernel));
      metric "trace.overhead_pct" "%" (100. *. ((busy1 /. busy0) -. 1.));
    ]

(* --self-check: the request stream is a function of the seed. Two
   streams from one seed are byte-identical; the next seed's differs. *)
let self_check () =
  let digest wl seed =
    let s = build_stream wl ~seed in
    let lines (a : W.step array) = Array.to_list (Array.map (fun (st : W.step) -> st.W.line) a) in
    let data = s.data () in
    Digest.to_hex
      (Digest.string
         (String.concat "\n"
            (string_of_int (Store.size data)
             :: lines s.warm @ lines (s.round 0) @ lines (s.round 1) @ lines s.tail)))
  in
  let ok =
    List.for_all
      (fun wl ->
        let a = digest wl 1 and b = digest wl 1 and c = digest wl 2 in
        Printf.printf "%s: seed 1 %s, again %s, seed 2 %s\n%!" wl.name a b c;
        a = b && a <> c)
      workloads
  in
  print_endline (if ok then "self-check: ok" else "self-check: FAILED");
  if not ok then exit 1

(* ------------------------------------------------------------------ *)
(* Entry point                                                         *)
(* ------------------------------------------------------------------ *)

let () =
  let workload = ref "" and seed = ref 1 and seconds = ref 0. and trace = ref 0 in
  let check = ref false in
  Arg.parse
    [
      ("--workload", Arg.Set_string workload, "NAME workload to run");
      ("--seed", Arg.Set_int seed, "N seed of the inputs");
      ("--seconds", Arg.Set_float seconds, "S length of the measured loop");
      ("--trace", Arg.Set_int trace, "0|1 end-to-end (0) or per-layer (1) run");
      ("--self-check", Arg.Set check, " check that the request stream is a function of the seed");
    ]
    (fun a -> fail "unexpected argument %s" a)
    "main.exe --workload NAME --seed N --seconds S --trace 0|1";
  if !check then self_check ()
  else
    match List.find_opt (fun w -> w.name = !workload) workloads with
    | None -> fail "unknown workload %S" !workload
    | Some _ when !seconds <= 0. -> fail "--seconds S is required, S > 0"
    | Some wl ->
      if !trace = 0 then end_to_end wl ~seed:!seed ~seconds:!seconds
      else traced wl ~seed:!seed ~seconds:!seconds
