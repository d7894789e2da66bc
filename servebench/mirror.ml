(* The traced request path: [Serve.handle] for the requests the
   benchmark sends, re-assembled from each layer's public functions in
   the order the server calls them, with a span around every call.

   It serves from its own epoch snapshot (a sealed [Store.copy] plus the
   closure, statistics and three caches [Answer.make_env] would build)
   and keeps the same cache levels and keys as [Answer]: reformulations
   per canonical query and cover, GCov traces per canonical query, and
   materialized fragments per reformulation, fragment and operator, all
   dropped with the snapshot at each effective write. Its responses go
   through the same output checks as the server's, so a mirror that
   drifted from the server would fail the run. *)

open Refq_query
open Refq_storage
open Refq_engine
open Refq_cost
module Json = Refq_obs.Json
module Cache = Refq_cache.Cache
module Closure = Refq_schema.Closure
module Reformulate = Refq_reform.Reformulate
module Saturate = Refq_saturation.Saturate
module Leapfrog = Refq_wco.Leapfrog
module Gcov = Refq_core.Gcov
module Strategy = Refq_core.Strategy
module Config = Refq_core.Config
module Protocol = Refq_serve.Protocol
module Serve = Refq_serve.Serve
module Session = Refq_serve.Session

type snapshot = {
  store : Store.t;  (** sealed *)
  closure : Closure.t;
  cenv : Cardinality.env;
  epochs : int * int;
  mutable sat : Cardinality.env option;  (** statistics of the saturation *)
  reform : Jucq.t Cache.Lru.t;
  cover : Gcov.trace Cache.Lru.t;
  results : Relation.t Cache.Lru.t;
}

type t = {
  session : Session.t;
  tracer : Tracer.t;
  mutable snap : snapshot;
  mutable request : int;
}

let span t name f = Tracer.span t.tracer name f

let config t = (Session.config t.session).Session.Config.answer

(* [Serve.make_snapshot]: copy and seal the live store, then what
   [Answer.make_env] does, one layer call at a time. *)
let make_snapshot tracer session =
  let span name f = Tracer.span tracer name f in
  let copy =
    span "storage.copy" (fun () ->
        let c = Store.copy (Session.store session) in
        Store.seal c;
        c)
  in
  span "core.make_env" (fun () ->
      let g = span "storage.to_graph" (fun () -> Store.to_graph copy) in
      let closure = span "schema.closure" (fun () -> Closure.of_graph g) in
      ignore (Cache.closure_fingerprint closure);
      let cenv = span "cost.stats" (fun () -> Cardinality.make_env copy) in
      let policy = (Session.config session).Session.Config.cache in
      {
        store = copy;
        closure;
        cenv;
        epochs = (Store.data_epoch copy, Store.schema_epoch copy);
        sat = None;
        reform =
          Cache.Lru.create ~name:"reform" ~capacity:policy.Cache.reform_capacity;
        cover =
          Cache.Lru.create ~name:"cover" ~capacity:policy.Cache.cover_capacity;
        results =
          Cache.Lru.create ~name:"result" ~capacity:policy.Cache.result_capacity;
      })

let create tracer session =
  { session; tracer; snap = make_snapshot tracer session; request = 0 }

(* [Serve.prepare_head]: encode head constants before evaluating on the
   sealed snapshot. *)
let prepare_head snap (q : Cq.t) =
  List.iter
    (function
      | Cq.Var _ -> ()
      | Cq.Cst term ->
        if Store.find_term snap.store term = None then begin
          Store.unseal snap.store;
          ignore (Store.encode_term snap.store term);
          Store.seal snap.store
        end)
    q.Cq.head

let params cfg =
  Option.value ~default:Cost_model.default_params cfg.Config.params

(* [Answer.engine_plans], for one fragment: does it run on leapfrog? *)
let leapfrog_fragment cfg cenv (f : Jucq.fragment) =
  match cfg.Config.engine with
  | Config.Binary -> false
  | (Config.Wco | Config.Auto) as policy ->
    List.exists
      (fun q -> Leapfrog.plan cenv q.Cq.body <> None)
      (Ucq.disjuncts f.Jucq.ucq)
    && (policy = Config.Wco
       || (Cost_model.leapfrog_ucq ~params:(params cfg) cenv f.Jucq.ucq).Cost_model.cost
          < (Cost_model.fragment_estimate
               (Cost_model.fragment_profile ~params:(params cfg) cenv f))
              .Cost_model.cost)

(* [Answer.join_project]. *)
let join_project snap head_pats fragments =
  let head = Array.of_list head_pats in
  let out_cols =
    Array.mapi
      (fun i pat -> match pat with Cq.Var v -> v | Cq.Cst _ -> Printf.sprintf "_k%d" i)
      head
  in
  let result = Relation.create ~cols:out_cols in
  if List.exists (fun r -> Relation.cardinality r = 0) fragments then result
  else begin
    let joined =
      match Evaluator.join_order (List.filter (fun r -> Relation.arity r > 0) fragments) with
      | [] ->
        let r = Relation.create ~cols:[||] in
        Relation.add_row r [||];
        r
      | first :: rest -> List.fold_left (fun a b -> Evaluator.join a b) first rest
    in
    let add = Relation.distinct_adder result in
    let out_row = Array.make (Array.length head) 0 in
    Relation.iter_rows joined (fun row ->
        Array.iteri
          (fun i pat ->
            match pat with
            | Cq.Var v -> out_row.(i) <- row.(Option.get (Relation.col_index joined v))
            | Cq.Cst c -> out_row.(i) <- Store.encode_term snap.store c)
          head;
        add out_row);
    result
  end

(* [Answer.run_cover] with the cache on and no views. *)
let run_cover t cfg q cover =
  let snap = t.snap in
  let qc = Cache.canon_cq q in
  let rkey = Cache.cq_key qc ^ "|" ^ Cache.cover_key cover in
  let jucq =
    match Cache.Lru.find snap.reform rkey with
    | Some j -> j
    | None ->
      let j =
        span t "reform.reformulate" (fun () ->
            Reformulate.cover_to_jucq ?profile:cfg.Config.profile
              ~max_disjuncts:cfg.Config.max_disjuncts snap.closure qc cover)
      in
      Cache.Lru.put snap.reform rkey j;
      j
  in
  let fragments =
    List.mapi
      (fun i (f : Jucq.fragment) ->
        let wco = leapfrog_fragment cfg snap.cenv f in
        let key = Printf.sprintf "%s#f%d|e:%b" rkey i wco in
        match Cache.Lru.find snap.results key with
        | Some r -> r
        | None ->
          let cols = Array.of_list f.Jucq.out in
          let r =
            if wco then
              span t "wco.leapfrog" (fun () -> fst (Leapfrog.ucq snap.cenv ~cols f.Jucq.ucq))
            else span t "engine.evaluate" (fun () -> Evaluator.ucq snap.cenv ~cols f.Jucq.ucq)
          in
          Cache.Lru.put snap.results key r;
          r)
      jucq.Jucq.fragments
  in
  span t "engine.evaluate" (fun () -> join_project snap qc.Cq.head fragments)

(* [Answer.answer]'s saturation arm: the snapshot's saturation and its
   statistics, computed on first use. *)
let saturation t cfg (q : Cq.t) =
  let snap = t.snap in
  let scenv =
    span t "saturation.saturate" (fun () ->
        match snap.sat with
        | Some c -> c
        | None ->
          let st, _ = Saturate.store_info snap.store in
          let c = Cardinality.make_env st in
          snap.sat <- Some c;
          c)
  in
  let cols = Array.of_list (List.mapi (fun i _ -> Printf.sprintf "c%d" i) q.Cq.head) in
  let leapfrog =
    match cfg.Config.engine with
    | Config.Binary -> false
    | Config.Wco -> true
    | Config.Auto ->
      (Cost_model.leapfrog_cq ~params:(params cfg) scenv q).Cost_model.cost
      < (Cost_model.cq ~params:(params cfg) scenv q).Cost_model.cost
  in
  if leapfrog then span t "wco.leapfrog" (fun () -> fst (Leapfrog.cq scenv ~cols q))
  else span t "engine.evaluate" (fun () -> Evaluator.cq scenv ~cols q)

let gcov t cfg q =
  let snap = t.snap in
  let key = Cache.cq_key (Cache.canon_cq q) in
  let trace =
    match Cache.Lru.find snap.cover key with
    | Some tr -> tr
    | None ->
      let tr =
        span t "core.gcov_search" (fun () -> Gcov.search ~config:cfg snap.cenv snap.closure q)
      in
      Cache.Lru.put snap.cover key tr;
      tr
  in
  run_cover t cfg q trace.Gcov.chosen

(* [Serve.render_rows] and the response line. *)
let render t s rel =
  span t "serve.render" (fun () ->
      let rows = Relation.decode_rows (Store.dictionary t.snap.store) rel in
      Protocol.ok ~epochs:t.snap.epochs
        [
          ("strategy", Json.String (Strategy.name s));
          ("answers", Json.Int (Relation.cardinality rel));
          ( "rows",
            Json.List
              (List.map
                 (fun row ->
                   Json.List
                     (List.map
                        (fun term ->
                          Json.String
                            (Fmt.str "%a" (Refq_rdf.Namespace.pp_term Serve.Config.default_env) term))
                        row))
                 rows) );
        ])

let answer t q s =
  let cfg = config t in
  prepare_head t.snap q;
  let n_atoms = List.length q.Cq.body in
  let rel =
    match s with
    | Strategy.Saturation -> saturation t cfg q
    | Strategy.Ucq -> run_cover t cfg q (Cover.one_fragment ~n_atoms)
    | Strategy.Scq -> run_cover t cfg q (Cover.singleton ~n_atoms)
    | Strategy.Gcov -> gcov t cfg q
    | Strategy.Jucq _ | Strategy.Datalog -> invalid_arg "strategy not mirrored"
  in
  render t s rel

(* [Serve.handle_update]: the session applies the batch (store, WAL,
   live environment), then a fresh snapshot is swapped in. *)
let update t muts =
  let applied = span t "serve.apply" (fun () -> Session.apply t.session muts) in
  if applied > 0 then t.snap <- make_snapshot t.tracer t.session;
  Protocol.ok ~epochs:t.snap.epochs [ ("applied", Json.Int applied) ]

let handle t line =
  t.request <- t.request + 1;
  Tracer.set_request t.tracer t.request;
  span t "request" (fun () ->
      match span t "serve.parse" (fun () -> Protocol.parse_request line) with
      | Error m -> Protocol.error m
      | Ok (Protocol.Answer { query; strategy; _ }) -> (
        match
          span t "serve.parse" (fun () ->
              Serve.parse_query ~env:Serve.Config.default_env query)
        with
        | Error e -> Protocol.error (Fmt.str "query: %a" Sparql.pp_error e)
        | Ok q -> (
          match Strategy.of_string strategy with
          | Error m -> Protocol.error m
          | Ok s -> answer t q s))
      | Ok (Protocol.Update muts) -> update t muts
      | Ok Protocol.Ping -> Protocol.ok ~epochs:t.snap.epochs []
      | Ok _ -> Protocol.error "request kind not mirrored")
