(* The three workloads: seeded data, seeded request rounds and the
   answers each request must return where the benchmark knows them.

   Everything here is a pure function of the seed (and of the generated
   data, itself a function of the seed). The server only ever sees the
   request lines built here. *)

open Refq_rdf
open Refq_query
open Refq_storage
module Json = Refq_obs.Json
module Lubm = Refq_workload.Lubm
module Query_gen = Refq_workload.Query_gen
module Rng = Refq_util.Splitmix64
module Reformulate = Refq_reform.Reformulate
module Closure = Refq_schema.Closure
module Cardinality = Refq_cost.Cardinality
module Cache = Refq_cache.Cache
module Evaluator = Refq_engine.Evaluator
module Relation = Refq_engine.Relation
module Serve = Refq_serve.Serve

type kind =
  | Answer
  | Insert
  | Delete
  | Probe

let kinds = [ Answer; Insert; Delete; Probe ]

let kind_name = function
  | Answer -> "answer"
  | Insert -> "insert"
  | Delete -> "delete"
  | Probe -> "probe"

type step = {
  kind : kind;
  line : string;  (** the request line sent to the server *)
  query : Cq.t option;  (** answer and probe requests *)
  expect : string list list option;
      (** the rendered, sorted answer rows the response must carry, when
          the benchmark computes them itself *)
  applied : int;  (** writes: the effective mutation count expected *)
  sample : bool;  (** re-checked under every strategy after the loop *)
}

(* How answers render on the wire: the server's own prefix table. *)
let ns = Serve.Config.default_env
let render term = Fmt.str "%a" (Namespace.pp_term ns) term
let sort_rows rows = List.sort_uniq (List.compare String.compare) rows

let answer_line q strategy =
  Json.to_string ~indent:false
    (Json.Obj
       [
         ("op", Json.String "answer");
         ("query", Json.String (Sparql.to_sparql ~env:ns q));
         ("strategy", Json.String strategy);
       ])

let read ?expect ?(sample = false) q strategy =
  {
    kind = Answer;
    line = answer_line q strategy;
    query = Some q;
    expect;
    applied = 0;
    sample;
  }

let write_step kind triple =
  let op = match kind with Insert -> "insert" | _ -> "delete" in
  let nt =
    Fmt.str "%s %s %s ." (Term.to_string triple.Triple.s)
      (Term.to_string triple.Triple.p) (Term.to_string triple.Triple.o)
  in
  {
    kind;
    line =
      Json.to_string ~indent:false
        (Json.Obj
           [ ("op", Json.String op); ("triples", Json.List [ Json.String nt ]) ]);
    query = None;
    expect = None;
    applied = 1;
    sample = false;
  }

(* A visibility probe: a query whose answer is exactly [rows] once the
   preceding write is visible. *)
let probe q strategy rows =
  { (read ~expect:(sort_rows rows) q strategy) with kind = Probe }

let ex local = Term.uri ("http://example.org/" ^ local)

(* An insert/delete pair around one fresh triple, each followed by its
   probe: [s p o] is inserted, the probe [q(x) :- ...] must show [shown]
   after the insert and nothing after the delete. *)
let write_pair ~triple ~probe_q ~strategy ~shown =
  ( [ write_step Insert triple; probe probe_q strategy [ [ render shown ] ] ],
    [ write_step Delete triple; probe probe_q strategy [] ] )

(* ------------------------------------------------------------------ *)
(* LUBM                                                                *)
(* ------------------------------------------------------------------ *)

(* The LUBM data does not depend on the benchmark seed: a seeded data set
   changes the store size and with it every timing, which would drown a
   regression in seed-to-seed spread. The seed picks the requests. *)
let lubm_data_seed = 2015L

let lubm_store ~scale = Lubm.generate ~seed:lubm_data_seed ~scale ()

let bundled = List.map snd Lubm.queries

let strategies = [| "sat"; "ucq"; "scq"; "gcov" |]

(* LUBM write pair: [hot_<tag> ub:headOf ex:hotdept]. headOf is a
   subproperty of worksFor, so the gcov probe on worksFor needs
   reformulation to see the write. *)
let lubm_write_pair tag =
  let subject = ex ("hot_" ^ tag) and dept = ex "hotdept" in
  let head_of = Term.uri (Lubm.ns ^ "headOf")
  and works_for = Term.uri (Lubm.ns ^ "worksFor") in
  write_pair
    ~triple:(Triple.make subject head_of dept)
    ~probe_q:
      (Cq.make ~head:[ Cq.var "x" ]
         ~body:[ Cq.atom (Cq.var "x") (Cq.cst works_for) (Cq.cst dept) ])
    ~strategy:"gcov" ~shown:subject

(* Generated queries kept in lubm-gen-read: at most this many UCQ
   disjuncts and this many answer rows. Without these bounds, a handful
   of all-variable queries (every name, every member: tens of thousands
   of rows) and of queries with hundreds of disjuncts (tens of MB
   allocated each) decide a run's throughput and allocation, and which
   of them a seed happens to draw moves both by 25–40%. *)
let max_gen_disjuncts = 50
let max_gen_rows = 1000

(* The kept queries are drawn in equal numbers from four strata of
   "work": the number of saturated triples matching each atom's
   constants, summed over the atoms — what a singleton-cover (SCQ)
   evaluation scans, and the main cost driver. The bounds are the
   quartiles of the generator's output, so the strata fill at the
   generator's own pace; equal quotas make two seeds' pools of the same
   make-up. Queries above [max_work] (about the top 1%) are left out:
   the few a seed draws moved its bytes allocated per request by 15%. *)
let work_bounds = [| 3_000; 6_500; 13_500 |]
let n_strata = Array.length work_bounds + 1
let max_work = 40_000

let work saturated (q : Cq.t) =
  let id = function
    | Cq.Var _ -> Some None
    | Cq.Cst t -> Option.map Option.some (Store.find_term saturated t)
  in
  List.fold_left
    (fun acc (a : Cq.atom) ->
      match (id a.Cq.s, id a.Cq.p, id a.Cq.o) with
      | Some s, Some p, Some o -> acc + Store.count_pattern saturated ~s ~p ~o
      | _ -> acc)
    0 q.Cq.body

(* A query the generator draws for about one seed in five: one atom
   twice. Its UCQ reformulation joins every pair of the atom's
   reformulations and took 0.6 s and 300 MB allocated on LUBM 50,
   against 4 ms for the atom alone; a run whose pool held one had a
   peak resident set 40% higher. lubm-gen-read sends it under ucq once
   in every round, so every seed's runs carry this cost. *)
let repeated_atom =
  let a = Cq.atom (Cq.var "v") (Cq.cst Vocab.rdf_type) (Cq.cst (Term.uri (Lubm.ns ^ "University"))) in
  Cq.make ~head:[ Cq.var "v" ] ~body:[ a; a ]

let work_stratum w =
  let rec go k = if k < Array.length work_bounds && w >= work_bounds.(k) then go (k + 1) else k in
  go 0

(* lubm-gen-read: [per_stratum] generated queries per stratum, distinct
   modulo variable renaming (the caches' own key) and from
   [repeated_atom], interleaved by stratum, with the bundled queries spread evenly among them and
   [repeated_atom] last. Query [j]
   of stratum [k] goes out under strategy [(j + k) mod 4], so each
   stratum meets each strategy equally often. A seeded sample of
   [n_sample] generated queries with answers is re-checked after the
   loop. [saturated] is the saturation of [store], used to count
   answers. *)
let gen_read_round ~seed ~per_stratum ~n_sample store ~saturated =
  let closure = Closure.of_graph (Store.to_graph store) in
  let sat_env = Cardinality.make_env saturated in
  let seen = Hashtbl.create 1024 in
  Hashtbl.replace seen (Cache.cq_key (Cache.canon_cq repeated_atom)) ();
  let answered = Hashtbl.create 64 in
  let strata = Array.make n_strata [] in
  let full () = Array.for_all (fun l -> List.length l >= per_stratum) strata in
  let consider (_, q) =
    let key = Cache.cq_key (Cache.canon_cq q) in
    let w = work saturated q in
    let k = work_stratum w in
    if
      w <= max_work
      && List.length strata.(k) < per_stratum
      && (not (Hashtbl.mem seen key))
      && Reformulate.count_disjuncts closure q <= max_gen_disjuncts
      && Cardinality.cq sat_env q <= float_of_int (20 * max_gen_rows)
    then begin
      Hashtbl.replace seen key ();
      let n = Relation.cardinality (Evaluator.cq sat_env q) in
      if n <= max_gen_rows then begin
        strata.(k) <- q :: strata.(k);
        if n > 0 then Hashtbl.replace answered key ()
      end
    end
  in
  let batch = ref 0 in
  while not (full ()) do
    if !batch >= 100 then invalid_arg "gen_read_round: strata do not fill";
    List.iter consider
      (Query_gen.generate
         ~seed:(Int64.of_int ((seed * 1_000_003) + !batch))
         store ~count:200);
    incr batch
  done;
  let strata = Array.map (fun l -> Array.of_list (List.rev l)) strata in
  let n_strategies = Array.length strategies in
  let gen =
    Array.init (n_strata * per_stratum) (fun i ->
        let k = i mod n_strata and j = i / n_strata in
        let q = strata.(k).(j) in
        (q, strategies.((j + k) mod n_strategies), Hashtbl.mem answered (Cache.cq_key (Cache.canon_cq q))))
  in
  let bundled = Array.of_list bundled in
  let nb = Array.length bundled in
  let every = Array.length gen / nb in
  let pool =
    Array.concat
      (List.init nb (fun b ->
           Array.append
             (Array.sub gen (b * every) every)
             [| (bundled.(b), strategies.(b mod n_strategies), false) |]))
  in
  let pool =
    Array.concat
      [ pool; Array.sub gen (nb * every) (Array.length gen - (nb * every)); [| (repeated_atom, "ucq", false) |] ]
  in
  let rng = Rng.create (Int64.of_int (seed + 17)) in
  let sampled = Hashtbl.create n_sample in
  while Hashtbl.length sampled < n_sample do
    let i = Rng.int rng (Array.length pool) in
    let _, _, answered = pool.(i) in
    if answered then Hashtbl.replace sampled i ()
  done;
  Array.mapi (fun i (q, s, _) -> read ~sample:(Hashtbl.mem sampled i) q s) pool

(* A tail round: one insert/delete pair with its probes. A read-only
   workload repeats it after its read loop, so that it reports the write
   metrics too while no timed read pays for a write. *)
let tail_round (ins, del) = Array.of_list (ins @ del)

let lubm_tail = tail_round (lubm_write_pair "tail")

(* lubm-hot-write: the hot set, Q2 (students of Univ0's departments, a
   few hundred rows) under sat and under gcov. After each write the sat
   read pays the re-saturation and the first gcov read misses every
   cache level (the new snapshot starts with empty caches); the other
   three gcov reads hit. One query per strategy keeps each of the three
   groups homogeneous, and their shares (6 hits, 2 misses, 2
   re-saturations in a round's 10 reads) put a round's median inside
   the hits and its 90th percentile inside the re-saturations, not on a
   boundary between two kinds of request. *)
let hot_set =
  let q2 = List.assoc "Q2" Lubm.queries in
  [ (q2, "sat"); (q2, "gcov") ]

(* The five reads after each write: four gcov reads (one miss, three
   hits), then the sat read that re-saturates. The order is fixed: a
   hit right after the re-saturation pays for collecting its garbage and
   took twice as long as one before it, so an order drawn from the seed
   moved read_p50_ms by 40% between seeds. *)
let hot_reads = [| 1; 1; 1; 1; 0 |]

(* Round [r]: insert, probe, five hot reads, delete, probe, five hot
   reads — two writes in 14 requests. The inserted subject carries the
   seed and the round. *)
let hot_write_round ~seed =
  let hot = Array.of_list hot_set in
  fun r ->
    let reads () =
      Array.to_list
        (Array.map
           (fun j ->
             let q, s = hot.(j) in
             read q s)
           hot_reads)
    in
    let ins, del = lubm_write_pair (Printf.sprintf "%d_%d" seed r) in
    Array.of_list (ins @ reads () @ del @ reads ())

(* ------------------------------------------------------------------ *)
(* Random digraph                                                      *)
(* ------------------------------------------------------------------ *)

let node i = ex (Printf.sprintf "n%d" i)
let edge = ex "edge"

type digraph = { n : int; succ : int array array  (** sorted, distinct *) }

let digraph ~seed ~nodes ~degree =
  let rng = Rng.create (Int64.of_int (seed + 101)) in
  let succ =
    Array.init nodes (fun v ->
        let chosen = Hashtbl.create degree in
        while Hashtbl.length chosen < degree do
          let w = Rng.int rng nodes in
          if w <> v then Hashtbl.replace chosen w ()
        done;
        let a = Array.of_seq (Hashtbl.to_seq_keys chosen) in
        Array.sort compare a;
        a)
  in
  { n = nodes; succ }

let digraph_store g =
  let st = Store.create () in
  Array.iteri
    (fun v ws -> Array.iter (fun w -> Store.add st (node v) edge (node w)) ws)
    g.succ;
  st

let has g v w =
  let a = g.succ.(v) in
  let rec go lo hi =
    lo < hi
    &&
    let mid = (lo + hi) / 2 in
    if a.(mid) = w then true else if a.(mid) < w then go (mid + 1) hi else go lo mid
  in
  go 0 (Array.length a)

let e s o = Cq.atom s (Cq.cst edge) o
let v = Cq.var
let nd i = Cq.cst (node i)
let r i = render (node i)

(* q(y,z) :- n edge y, y edge z, z edge n *)
let triangle_at g n =
  let q = Cq.make ~head:[ v "y"; v "z" ] ~body:[ e (nd n) (v "y"); e (v "y") (v "z"); e (v "z") (nd n) ] in
  let rows = ref [] in
  Array.iter
    (fun y -> Array.iter (fun z -> if has g z n then rows := [ r y; r z ] :: !rows) g.succ.(y))
    g.succ.(n);
  (q, !rows)

(* q(y,z,w) :- n edge y, n edge z, y edge w, z edge w *)
let diamond_at g n =
  let q =
    Cq.make ~head:[ v "y"; v "z"; v "w" ]
      ~body:[ e (nd n) (v "y"); e (nd n) (v "z"); e (v "y") (v "w"); e (v "z") (v "w") ]
  in
  let rows = ref [] in
  Array.iter
    (fun y ->
      Array.iter
        (fun z ->
          Array.iter (fun w -> if has g z w then rows := [ r y; r z; r w ] :: !rows) g.succ.(y))
        g.succ.(n))
    g.succ.(n);
  (q, !rows)

(* q(x,y,z) :- x edge y, y edge z, z edge x — over the whole graph. *)
let triangles g =
  let q = Cq.make ~head:[ v "x"; v "y"; v "z" ] ~body:[ e (v "x") (v "y"); e (v "y") (v "z"); e (v "z") (v "x") ] in
  let rows = ref [] in
  for x = 0 to g.n - 1 do
    Array.iter
      (fun y -> Array.iter (fun z -> if has g z x then rows := [ r x; r y; r z ] :: !rows) g.succ.(y))
      g.succ.(x)
  done;
  (q, !rows)

(* The round: [n_rooted] seeded roots, alternating triangle and diamond
   and ucq and sat, with the whole-graph triangle under ucq after the
   first third and under sat after the second. *)
let digraph_round ~seed ~n_rooted g =
  let rng = Rng.create (Int64.of_int (seed + 202)) in
  let roots = Array.init g.n Fun.id in
  Rng.shuffle rng roots;
  let rooted =
    Array.init n_rooted (fun i ->
        let q, rows = (if i mod 2 = 0 then triangle_at else diamond_at) g roots.(i) in
        read ~expect:(sort_rows rows) q (if i / 2 mod 2 = 0 then "ucq" else "sat"))
  in
  let tq, trows = triangles g in
  let whole s = read ~expect:(sort_rows trows) tq s in
  let third = n_rooted / 3 in
  Array.concat
    [
      Array.sub rooted 0 third;
      [| whole "ucq" |];
      Array.sub rooted third third;
      [| whole "sat" |];
      Array.sub rooted (2 * third) (n_rooted - (2 * third));
    ]

(* digraph-cyclic's tail round: an edge from a fresh node is inserted
   and deleted, each write followed by a ucq probe of its successors. *)
let digraph_tail =
  let fresh = ex "w_tail" in
  tail_round
    (write_pair
       ~triple:(Triple.make fresh edge (node 0))
       ~probe_q:(Cq.make ~head:[ v "y" ] ~body:[ e (Cq.cst fresh) (v "y") ])
       ~strategy:"ucq" ~shown:(node 0))
