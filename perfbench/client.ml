(* The client side of one connection, shared by the wire run and the
   traced replay: both drive the same op script through a [transport],
   so they send the same frames in the same order and their logs can be
   compared session by session.

   Every loop is closed with zero think time: the next request goes out
   as soon as the previous reply is in, as a labeler waiting on each
   question would. *)

module P = Jqi_server.Protocol
module Relation = Jqi_relational.Relation
module Schema = Jqi_relational.Schema
module Tuple = Jqi_relational.Tuple
module Value = Jqi_relational.Value
module Delta = Jqi_relational.Delta
module Csv = Jqi_relational.Csv
module Sample = Jqi_core.Sample

(* [Error] is a transport failure: disconnect, timeout or an
   undecodable reply. *)
type transport = P.request -> (P.response, string) result

type question = { cls : int; r_row : int; p_row : int }

(* One latency sample: when the op started (Unix time, s) and how long
   it took (ms). *)
type sample = { start : float; ms : float }

let equal_question a b =
  Int.equal a.cls b.cls && Int.equal a.r_row b.r_row && Int.equal a.p_row b.p_row

type outcome =
  | Finished of { predicate : (string * string) list; n_interactions : int }
  | Stale  (** a delta retired the session's class: closed, not failed *)
  | Failed of string

type session_log = {
  index : int;
  pair : Script.pair;
  questions : question list;
  outcome : outcome;
  first_q : sample option;
  answers : sample list;
  span : sample;  (** the whole session, from its first request *)
  classes : int;  (** classes of the universe the session opened on *)
  instance : Relation.t * Relation.t;  (** local copies when it ended *)
  version : int * int;  (** deltas applied to r and p when it ended *)
}

type delta_log = {
  d : sample;
  d_table : string;
  d_added : int;
  d_removed : int;
  d_patched : int;
  d_dropped : int;
  d_recertified : int;
  d_stale : int;
}

type conn = {
  inputs : Script.inputs;
  c : int;
  call : transport;
  now : unit -> float;
  mirrors : (string, Relation.t) Hashtbl.t;
      (** local copy of every table this connection touched, with its
          deltas applied, for labels and the oracle *)
  versions : (string, int) Hashtbl.t;  (** deltas sent per table *)
  mutable answers : int;
  mutable attempted : int;
  mutable failures : string list;
  mutable sessions : session_log list;  (** newest first *)
  mutable deltas : delta_log list;  (** newest first *)
}

let create inputs ~c ~call ~now =
  {
    inputs;
    c;
    call;
    now;
    mirrors = Hashtbl.create 16;
    versions = Hashtbl.create 16;
    answers = 0;
    attempted = 0;
    failures = [];
    sessions = [];
    deltas = [];
  }

let fail conn msg = conn.failures <- msg :: conn.failures

exception Op_failed of string

(* One request/reply.  A typed [stale_label] error is a protocol
   outcome, returned like any reply; every other error frame fails the
   op.  Returns the reply and its round trip. *)
let rpc conn req =
  conn.attempted <- conn.attempted + 1;
  let t0 = conn.now () in
  let reply = conn.call req in
  let ms = { start = t0; ms = (conn.now () -. t0) *. 1e3 } in
  match reply with
  | Error msg ->
      fail conn msg;
      raise (Op_failed msg)
  | Ok (P.Error { code; message }) when not (String.equal code "stale_label") ->
      let msg = code ^ ": " ^ message in
      fail conn msg;
      raise (Op_failed msg)
  | Ok resp -> (resp, ms)

let unexpected conn what resp =
  let msg = Printf.sprintf "%s: unexpected reply %s" what (P.encode_response ~id:0 resp) in
  fail conn msg;
  raise (Op_failed msg)

let mirror conn (t : Script.table) =
  match Hashtbl.find_opt conn.mirrors t.name with
  | Some r -> r
  | None ->
      let r = Csv.load_relation ~name:t.name t.path in
      Hashtbl.replace conn.mirrors t.name r;
      r

let version conn (t : Script.table) =
  Option.value ~default:0 (Hashtbl.find_opt conn.versions t.name)

let hello conn =
  match rpc conn (P.Hello { versions = [ P.version ] }) with
  | P.Welcome _, _ -> ()
  | resp, _ -> unexpected conn "hello" resp

let load conn (t : Script.table) =
  match rpc conn (P.Load { name = Some t.name; path = t.path }) with
  | P.Loaded _, _ -> ()
  | resp, _ -> unexpected conn "load" resp

let open_ conn (pair : Script.pair) =
  let strategy = conn.inputs.Script.spec.Script.strategy in
  match rpc conn (P.Open_session { r = pair.r.name; p = pair.p.name; strategy }) with
  | P.Opened { session; classes; _ }, _ -> (session, classes)
  | resp, _ -> unexpected conn "open" resp

let close conn session =
  match rpc conn (P.Close { session }) with
  | P.Closed _, _ -> ()
  | resp, _ -> unexpected conn "close" resp

(* Set-up: hello on every connection, every table loaded once through
   the first, then the first open of every pair (which builds and caches
   its universe).  [spawn] runs the connections' share of the opens:
   concurrently on the wire, one after another in the replay. *)
let warm_up conns ~extra ~spawn =
  List.iter hello conns;
  let first = List.hd conns in
  let pairs =
    List.sort_uniq
      (fun (a : Script.pair) (b : Script.pair) -> Int.compare a.pair_id b.pair_id)
      (Array.to_list (Array.concat (Array.to_list first.inputs.Script.shared)) @ extra)
  in
  let loaded = Hashtbl.create 16 in
  List.iter
    (fun (p : Script.pair) ->
      List.iter
        (fun (t : Script.table) ->
          if not (Hashtbl.mem loaded t.name) then begin
            Hashtbl.replace loaded t.name ();
            load first t
          end)
        [ p.r; p.p ])
    pairs;
  let n = List.length conns in
  spawn
    (List.mapi
       (fun i conn () ->
         List.iteri (fun j p -> if j mod n = i then close conn (fst (open_ conn p))) pairs)
       conns)

(* Parse wire cells under a mirror's schema, as the server does. *)
let parse_row rel cells =
  Tuple.of_list
    (List.map2
       (fun (col : Schema.column) s ->
         match Value.parse col.Schema.ty s with
         | Some v -> v
         | None -> invalid_arg ("unparseable cell " ^ s))
       (Schema.columns (Relation.schema rel))
       cells)

(* The next scripted delta on [t]; returns the ids the server reports
   stale. *)
let delta conn (t : Script.table) =
  let n = version conn t in
  let insert, delete = Script.delta_at t n (mirror conn t) in
  match rpc conn (P.Delta { relation = t.name; insert; delete }) with
  | P.Delta_applied d, ms ->
      if d.d_added <> List.length insert || d.d_removed <> List.length delete then begin
        let msg = Printf.sprintf "delta on %s: %d/%d rows applied" t.name d.d_added d.d_removed in
        fail conn msg;
        raise (Op_failed msg)
      end;
      let m = mirror conn t in
      let d' =
        Delta.of_lists ~adds:(List.map (parse_row m) insert)
          ~removes:(List.map (parse_row m) delete)
      in
      Hashtbl.replace conn.mirrors t.name (Relation.apply_delta m d');
      Hashtbl.replace conn.versions t.name (n + 1);
      conn.deltas <-
        {
          d = ms;
          d_table = t.name;
          d_added = d.d_added;
          d_removed = d.d_removed;
          d_patched = d.d_cache_patched;
          d_dropped = d.d_cache_dropped;
          d_recertified = List.length d.d_recertified;
          d_stale = List.length d.d_stale;
        }
        :: conn.deltas;
      List.map fst d.d_stale
  | resp, _ -> unexpected conn "delta" resp

(* The label an honest labeler with the goal in mind gives: does the
   shown pair satisfy every goal equality? *)
let label conn (pair : Script.pair) (q : P.question) =
  let r = mirror conn pair.r and p = mirror conn pair.p in
  let tr = parse_row r q.q_r_cells and tp = parse_row p q.q_p_cells in
  let ix rel a = Schema.index_of_exn (Relation.schema rel) a in
  Sample.label_of_bool
    (List.for_all
       (fun (a, b) -> Value.eq (Tuple.get tr (ix r a)) (Tuple.get tp (ix p b)))
       pair.goal)

(* One session: (loads,) open, ask, then tell until done.  In churn
   runs a delta to the pair's [p] table (lineitem, the heap file larger
   than the buffer pool) follows every [delta_every]-th answer of the
   connection. *)
let run_session conn k =
  let { Script.pair; fresh } = Script.plan conn.inputs conn.c k in
  let every = conn.inputs.Script.spec.Script.delta_every in
  let questions = ref [] and answers = ref [] and first_q = ref None and classes = ref 0 in
  let t0 = conn.now () in
  let since () = { start = t0; ms = (conn.now () -. t0) *. 1e3 } in
  (* The instance the outcome belongs to, taken when the outcome arrives:
     a delta sent after [done] must not change what the oracle checks. *)
  let snapshot () =
    ((mirror conn pair.r, mirror conn pair.p), (version conn pair.r, version conn pair.p))
  in
  let finish ?(at = snapshot ()) outcome =
    let instance, version = at in
    conn.sessions <-
      {
        index = k;
        pair;
        questions = List.rev !questions;
        outcome;
        first_q = !first_q;
        answers = List.rev !answers;
        span = since ();
        classes = !classes;
        instance;
        version;
      }
      :: conn.sessions
  in
  try
    if fresh then (load conn pair.r; load conn pair.p);
    let session, n_classes = open_ conn pair in
    classes := n_classes;
    let rec turn resp =
      match resp with
      | P.Question q ->
          if Option.is_none !first_q then first_q := Some (since ());
          questions := { cls = q.q_class; r_row = q.q_r_row; p_row = q.q_p_row } :: !questions;
          let reply, ms = rpc conn (P.Tell { session; label = label conn pair q }) in
          answers := ms :: !answers;
          conn.answers <- conn.answers + 1;
          if every > 0 && conn.answers mod every = 0 then
            match reply with
            | P.Done _ ->
                let at = snapshot () in
                close conn session;
                ignore (delta conn pair.p);
                done_ reply ~closed:true ~at
            | _ ->
                if List.mem session (delta conn pair.p) then begin
                  close conn session;
                  finish Stale
                end
                else turn (fst (rpc conn (P.Ask { session })))
          else turn reply
      | P.Done _ ->
          if Option.is_none !first_q then first_q := Some (since ());
          done_ resp ~closed:false ~at:(snapshot ())
      | resp -> unexpected conn "ask/tell" resp
    and done_ resp ~closed ~at =
      match resp with
      | P.Done { predicate; n_interactions; _ } ->
          if not closed then close conn session;
          finish ~at (Finished { predicate; n_interactions })
      | resp -> unexpected conn "done" resp
    in
    turn (fst (rpc conn (P.Ask { session })))
  with Op_failed msg -> finish (Failed msg)

(* The connection's next sessions, [k, k+1, ...], until [continue k]
   says stop.  With
   [deltas_after] = n (cold), session [k] is followed by one delta to the
   lineitem of each of sessions [k-1 ... k-n]: every such table gets n
   deltas, spread over the window like the sessions, while no session
   uses it any more. *)
let run conn ~continue =
  let n = conn.inputs.Script.spec.Script.deltas_after in
  let rec go k =
    if continue k then begin
      run_session conn k;
      (try
         for j = 1 to min n k do
           ignore (delta conn (Script.plan conn.inputs conn.c (k - j)).Script.pair.p)
         done
       with Op_failed _ -> ());
      go (k + 1)
    end
  in
  go (List.length conn.sessions)

(* Post-window probe: deltas round robin over the probe tables while
   [continue i] holds, [i] counting the deltas sent. *)
let probe conn ~continue =
  match Script.probe_tables conn.inputs with
  | [||] -> ()
  | tables -> (
      let rec go i =
        if continue i then begin
          ignore (delta conn tables.(i mod Array.length tables));
          go (i + 1)
        end
      in
      try go 0 with Op_failed _ -> ())

let sessions conn = List.rev conn.sessions
let deltas conn = List.rev conn.deltas
