(* The traced replay: an in-process stand-in for [jqinfer serve] that
   answers the same frames by calling each layer's public functions in
   the order the server calls them, every call wrapped in a benchmark
   span.  It keeps its own fingerprint-keyed universe table, as the
   server's catalog does, and patches it on deltas the same way.

   One thing the server does cannot be spanned from outside: on a delta,
   [Universe.apply_delta] applies [Relation.apply_delta] to its own
   relations internally.  The replay therefore times
   [Relation.apply_delta] on a shadow copy of the relation after each
   delta op (outside the op's span), and reports
   [core.universe.apply_delta] inclusive of the relation update. *)

module P = Jqi_server.Protocol
module Relation = Jqi_relational.Relation
module Schema = Jqi_relational.Schema
module Tuple = Jqi_relational.Tuple
module Value = Jqi_relational.Value
module Delta = Jqi_relational.Delta
module Csv = Jqi_relational.Csv
module Relstore = Jqi_storage.Relstore
module Universe = Jqi_core.Universe
module Engine = Jqi_core.Engine
module Omega = Jqi_core.Omega
module Strategy = Jqi_core.Strategy

type table = {
  mutable rel : Relation.t;
  mutable shadow : Relation.t option;  (** paged only: a second store *)
  mutable acc : Relation.Fp.acc option;
}

type session = {
  rels : string * string;
  mutable universe : Universe.t;
  mutable engine : Engine.t;
  mutable stale : bool;
}

type t = {
  spec : Script.spec;
  dir : string;
  tr : Trace.t option;
  tables : (string, table) Hashtbl.t;
  stores : Relstore.t Jqi_util.Vec.t;  (** the stores the tables live in *)
  shadows : Relstore.t Jqi_util.Vec.t;
  cache : (string, Universe.t) Hashtbl.t;
  sessions : (string, session) Hashtbl.t;
  mutable next_sid : int;
  mutable next_id : int;
  mutable hits : int;
  mutable misses : int;
  mutable built_classes : int list;
  mutable csv_rows : int;
  mutable frames : int;
  mutable frame_bytes : int;
  mutable shadow_due : (table * Relation.t * Delta.t) list;
      (** relation updates to time after the op, with their base *)
}

let create spec ~dir ~traced =
  {
    spec;
    dir;
    tr = (if traced then Some (Trace.create ()) else None);
    tables = Hashtbl.create 16;
    stores = Jqi_util.Vec.create ();
    shadows = Jqi_util.Vec.create ();
    cache = Hashtbl.create 16;
    sessions = Hashtbl.create 16;
    next_sid = 1;
    next_id = 0;
    hits = 0;
    misses = 0;
    built_classes = [];
    csv_rows = 0;
    frames = 0;
    frame_bytes = 0;
    shadow_due = [];
  }

let sp t name f = match t.tr with None -> f () | Some tr -> Trace.span tr name f

let error code message = P.Error { code; message }

let paged_store t into ~name path =
  let n = Jqi_util.Vec.length t.stores + Jqi_util.Vec.length t.shadows in
  let dest = Filename.concat t.dir (Printf.sprintf "%s.%d.jqh" name n) in
  let store = Relstore.load_csv ~pool_frames:t.spec.Script.buffer_pages ~dest ~name path in
  Jqi_util.Vec.push into store;
  store

let load t ~name path =
  let rel =
    if t.spec.Script.paged then
      sp t "storage.relstore.load" (fun () -> Relstore.relation (paged_store t t.stores ~name path))
    else sp t "relational.csv.load" (fun () -> Csv.load_relation ~name path)
  in
  t.csv_rows <- t.csv_rows + Relation.cardinality rel;
  Hashtbl.replace t.tables name { rel; shadow = None; acc = None };
  P.Loaded { name; rows = Relation.cardinality rel }

let fingerprint t rel = sp t "relational.relation.fingerprint" (fun () -> Relation.fingerprint rel)

(* [Catalog.universe]: fingerprint both relations, then hit or build. *)
let universe_of t r p =
  let key = fingerprint t r ^ ":" ^ fingerprint t p in
  match Hashtbl.find_opt t.cache key with
  | Some u ->
      t.hits <- t.hits + 1;
      (true, u)
  | None ->
      t.misses <- t.misses + 1;
      let u = sp t "core.universe.build" (fun () -> Universe.build r p) in
      t.built_classes <- Universe.n_classes u :: t.built_classes;
      Hashtbl.replace t.cache key u;
      (false, u)

let open_ t ~r ~p ~strategy =
  match (Hashtbl.find_opt t.tables r, Hashtbl.find_opt t.tables p) with
  | None, _ -> error "unknown_relation" r
  | _, None -> error "unknown_relation" p
  | Some tr, Some tp -> (
      match Strategy.of_name strategy with
      | None -> error "unknown_strategy" strategy
      | Some strat ->
          let hit, u = universe_of t tr.rel tp.rel in
          let engine = sp t "core.engine.create" (fun () -> Engine.create u strat) in
          let id = Printf.sprintf "s%d" t.next_sid in
          t.next_sid <- t.next_sid + 1;
          Hashtbl.replace t.sessions id { rels = (r, p); universe = u; engine; stale = false };
          P.Opened
            {
              session = id;
              classes = Universe.n_classes u;
              omega_width = Omega.width (Universe.omega u);
              cache_hit = hit;
            })

let cells tuple = List.map Value.to_string (Tuple.to_list tuple)

(* [Service.render_turn] for binary sessions. *)
let render id s =
  match Engine.pending s.engine with
  | Some q ->
      let rep = (Universe.cls s.universe q.Engine.class_id).Universe.rep in
      let rc, pc =
        match q.Engine.representative with Some (a, b) -> (cells a, cells b) | None -> ([], [])
      in
      P.Question
        {
          q_session = id;
          q_class = q.Engine.class_id;
          q_r_row = rep.(0);
          q_p_row = rep.(1);
          q_r_cells = rc;
          q_p_cells = pc;
        }
  | None ->
      let o = Engine.result s.engine in
      let omega = Universe.omega s.universe in
      P.Done
        {
          session = id;
          predicate =
            List.map
              (fun (i, j) -> (Omega.r_name omega i, Omega.p_name omega j))
              (Omega.to_pairs omega o.Engine.predicate);
          n_interactions = o.Engine.n_interactions;
        }

let with_session t id f =
  match Hashtbl.find_opt t.sessions id with
  | None -> error "unknown_session" id
  | Some s when s.stale -> error "stale_label" id
  | Some s -> f s

let parse_rows rel rows =
  let cols = Schema.columns (Relation.schema rel) in
  List.map
    (fun cells ->
      if List.compare_lengths cells cols <> 0 then invalid_arg "row cell count mismatch"
      else
        Tuple.of_list
          (List.map2
             (fun (c : Schema.column) s ->
               match Value.parse c.Schema.ty s with
               | Some v -> v
               | None -> invalid_arg ("cell does not parse: " ^ s))
             cols cells))
    rows

(* Positions of fingerprint [fp] in a "fp:fp" cache key. *)
let positions fp key =
  List.concat (List.mapi (fun i p -> if String.equal p fp then [ i ] else []) (String.split_on_char ':' key))

(* [Catalog.apply_delta] followed by [Manager]'s re-certification
   broadcast. *)
let apply_delta t ~name tbl d =
  let old_acc =
    match tbl.acc with
    | Some a -> a
    | None -> sp t "relational.relation.fingerprint" (fun () -> Relation.Fp.of_relation tbl.rel)
  in
  let old_fp = Relation.Fp.render old_acc in
  Delta.check_arity (Relation.arity tbl.rel) d;
  ignore (sp t "relational.relation.resolve_removes" (fun () -> Relation.resolve_removes tbl.rel d));
  let matches =
    Hashtbl.fold
      (fun key u acc -> match positions old_fp key with [] -> acc | ps -> (key, ps, u) :: acc)
      t.cache []
    |> List.sort (fun (a, _, _) (b, _, _) -> String.compare a b)
  in
  List.iter (fun (key, _, _) -> Hashtbl.remove t.cache key) matches;
  let patch (key, ps, u) =
    let u' =
      sp t "core.universe.apply_delta" (fun () ->
          Universe.apply_delta u (List.map (fun i -> (i, d)) ps))
    in
    (key, ps, u')
  in
  let migrated, dropped =
    if t.spec.Script.paged then
      match matches with
      | ((_, [ _ ], _) as first) :: rest -> ([ patch first ], List.length rest)
      | ms -> ([], List.length ms)
    else (List.map patch matches, 0)
  in
  let new_rel =
    match migrated with
    | (_, i :: _, u') :: _ -> (
        t.shadow_due <- (tbl, tbl.rel, d) :: t.shadow_due;
        match Universe.relation_array u' with Some rels -> rels.(i) | None -> assert false)
    | _ -> sp t "relational.relation.apply_delta" (fun () -> Relation.apply_delta tbl.rel d)
  in
  let new_acc =
    sp t "relational.relation.fingerprint" (fun () ->
        if Delta.inserts_only d then Relation.Fp.feed_rows old_acc d.Delta.adds
        else Relation.Fp.of_relation new_rel)
  in
  let new_fp = Relation.Fp.render new_acc in
  List.iter
    (fun (key, _, u') ->
      let key' =
        String.concat ":"
          (List.map (fun p -> if String.equal p old_fp then new_fp else p) (String.split_on_char ':' key))
      in
      Hashtbl.replace t.cache key' u')
    migrated;
  tbl.rel <- new_rel;
  tbl.acc <- Some new_acc;
  let recertified = ref [] and stale = ref [] in
  Hashtbl.iter
    (fun id s ->
      let r, p = s.rels in
      if String.equal r name || String.equal p name then
        let rt = Hashtbl.find t.tables r and pt = Hashtbl.find t.tables p in
        let _, u' = universe_of t rt.rel pt.rel in
        match sp t "core.engine.recertify" (fun () -> Engine.recertify s.engine u') with
        | Engine.Recertified e ->
            s.engine <- e;
            s.universe <- u';
            s.stale <- false;
            recertified := id :: !recertified
        | Engine.Stale _ ->
            s.stale <- true;
            stale := (id, "stale") :: !stale)
    t.sessions;
  P.Delta_applied
    {
      d_relation = name;
      d_added = Array.length d.Delta.adds;
      d_removed = Array.length d.Delta.removes;
      d_cache_patched = List.length migrated;
      d_cache_dropped = dropped;
      d_recertified = List.sort String.compare !recertified;
      d_stale = List.sort compare !stale;
    }

let handle t = function
  | P.Hello _ -> P.Welcome { version = P.version }
  | P.Load { name; path } ->
      let name = Option.value name ~default:(Filename.remove_extension (Filename.basename path)) in
      load t ~name path
  | P.Open_session { r; p; strategy } -> open_ t ~r ~p ~strategy
  | P.Ask { session } -> with_session t session (fun s -> render session s)
  | P.Tell { session; label } ->
      with_session t session (fun s ->
          match Engine.pending s.engine with
          | None -> error "no_pending" session
          | Some _ ->
              s.engine <- sp t "core.engine.answer" (fun () -> Engine.answer s.engine label);
              render session s)
  | P.Close { session } ->
      if Hashtbl.mem t.sessions session then begin
        Hashtbl.remove t.sessions session;
        P.Closed { session }
      end
      else error "unknown_session" session
  | P.Delta { relation; insert; delete } -> (
      match Hashtbl.find_opt t.tables relation with
      | None -> error "unknown_relation" relation
      | Some tbl -> (
          match
            Delta.of_lists ~adds:(parse_rows tbl.rel insert) ~removes:(parse_rows tbl.rel delete)
          with
          | exception Invalid_argument m -> error "bad_delta" m
          | d -> ( try apply_delta t ~name:relation tbl d with Invalid_argument m -> error "bad_delta" m)))
  | P.Stats ->
      P.Stats_reply
        {
          sessions = Hashtbl.length t.sessions;
          relations = List.sort String.compare (Hashtbl.fold (fun n _ acc -> n :: acc) t.tables []);
          cache_hits = t.hits;
          cache_misses = t.misses;
        }
  | P.Save _ | P.Resume _ | P.Open_kary _ | P.Resume_kary _ -> error "unsupported" "not replayed"

let frame t line =
  t.frames <- t.frames + 1;
  t.frame_bytes <- t.frame_bytes + String.length line + 1

(* The relation updates a universe made internally, timed again outside
   any op span: on the pre-delta value for [Mem] (the update is pure),
   on the shadow store for paged tables (which has seen every earlier
   delta, so it holds the same rows). *)
let run_shadows t =
  List.iter
    (fun (tbl, before, d) ->
      let base = Option.value tbl.shadow ~default:before in
      let s' = sp t "relational.relation.apply_delta" (fun () -> Relation.apply_delta base d) in
      if Option.is_some tbl.shadow then tbl.shadow <- Some s')
    (List.rev t.shadow_due);
  t.shadow_due <- []

(* One op through the protocol codec and [handle]; the root span is the
   op, so its request id covers everything the op did. *)
let call t req =
  t.next_id <- t.next_id + 1;
  let id = t.next_id in
  let result =
    sp t "bench.op" (fun () ->
        let line = sp t "server.protocol.encode" (fun () -> P.encode_request ~id req) in
        frame t line;
        match sp t "server.protocol.decode" (fun () -> P.decode_request line) with
        | Error (_, resp) -> Ok resp
        | Ok (_, req') -> (
            let resp = handle t req' in
            let out = sp t "server.protocol.encode" (fun () -> P.encode_response ~id resp) in
            frame t out;
            match sp t "server.protocol.decode" (fun () -> P.decode_response out) with
            | Ok (_, r) -> Ok r
            | Error m -> Error m))
  in
  run_shadows t;
  result

(* Paged shadows are loaded from the same CSVs right after set-up,
   before any delta, outside every op. *)
let load_shadows t (inputs : Script.inputs) =
  if t.spec.Script.paged then
    Array.iter
      (Array.iter (fun (pair : Script.pair) ->
           List.iter
             (fun (tb : Script.table) ->
               match Hashtbl.find_opt t.tables tb.name with
               | Some tbl when Option.is_none tbl.shadow ->
                   tbl.shadow <-
                     Some (Relstore.relation (paged_store t t.shadows ~name:tb.name tb.path))
               | Some _ | None -> ())
             [ pair.r; pair.p ]))
      inputs.Script.shared

let buffer_pool_stats t =
  let open Jqi_storage.Buffer_pool in
  let z = { hits = 0; misses = 0; evictions = 0; flushes = 0 } in
  Jqi_util.Vec.to_list t.stores
  |> List.fold_left
       (fun a s ->
         let b = stats (Relstore.pool s) in
         {
           hits = a.hits + b.hits;
           misses = a.misses + b.misses;
           evictions = a.evictions + b.evictions;
           flushes = a.flushes + b.flushes;
         })
       z

let max_data_pages t =
  List.fold_left
    (fun m s -> max m (Jqi_storage.Heap.data_pages (Relstore.heap s)))
    0 (Jqi_util.Vec.to_list t.stores)

let close t =
  Jqi_util.Vec.iter Relstore.close t.stores;
  Jqi_util.Vec.iter Relstore.close t.shadows
