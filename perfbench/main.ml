(* jqbench: one end-to-end run of a named workload against a
   [jqinfer serve --listen] child, plus (with --trace 1) the traced
   in-process replay that gives the per-layer numbers.

   The last line of standard output is the result object
   {"correct", "attempted", "failed", "metrics"}; everything before it
   is a human-readable record of what was checked. *)

module P = Jqi_server.Protocol
module Json = Jqi_util.Json
module Stats = Jqi_util.Stats
module Obs = Jqi_obs.Obs
module Relation = Jqi_relational.Relation
module Relstore = Jqi_storage.Relstore

let now = Unix.gettimeofday

(* ---- metric catalogue ---- *)

(* The metric names and units, read from BENCHMARK.json: the end-to-end
   metrics a [--trace 0] run emits and the per-layer ones of
   [--trace 1]. *)
type catalogue = { end_to_end : (string * string) list; per_layer : (string * string) list }

exception Bad_catalogue of string

let load_catalogue path =
  let json =
    try Json.load_file path with
    | Sys_error msg -> raise (Bad_catalogue msg)
    | Json.Parse_error { message; _ } -> raise (Bad_catalogue (path ^ ": " ^ message))
  in
  let metrics key =
    match Json.member key json with
    | Some (Json.List l) ->
        List.map
          (fun m ->
            match (Json.member "name" m, Json.member "unit" m) with
            | Some (Json.Str n), Some (Json.Str u) -> (n, u)
            | _ -> raise (Bad_catalogue (Printf.sprintf "%s: a %s entry lacks a name or unit" path key)))
          l
    | _ -> raise (Bad_catalogue (Printf.sprintf "%s: no %s list" path key))
  in
  { end_to_end = metrics "end_to_end"; per_layer = metrics "per_layer" }

let valid_name s =
  String.length s > 0
  && String.for_all
       (fun c ->
         (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') || (c >= '0' && c <= '9')
         || c = '_' || c = '.' || c = '-')
       s

(* ---- small helpers ---- *)

let rec rm_rf path =
  match Unix.lstat path with
  | exception Unix.Unix_error (Unix.ENOENT, _, _) -> ()
  | { Unix.st_kind = Unix.S_DIR; _ } ->
      Array.iter (fun f -> rm_rf (Filename.concat path f)) (Sys.readdir path);
      Unix.rmdir path
  | _ -> Sys.remove path

let rec mkdir_p path =
  if not (Sys.file_exists path) then begin
    mkdir_p (Filename.dirname path);
    Unix.mkdir path 0o755
  end

let fresh_dir path =
  rm_rf path;
  mkdir_p path;
  path

let arr l = Array.of_list l
let pct xs p = if xs = [] then nan else Stats.percentile (arr xs) p
let median xs = pct xs 50.
let mean xs = if xs = [] then nan else Stats.mean (arr xs)
let ratio a b = if b = 0 then 0. else float_of_int a /. float_of_int b
let sum f l = List.fold_left (fun acc x -> acc + f x) 0 l

(* ---- the wire run ---- *)

type wire_result = {
  setups : Client.sample list;
  elapsed : float;
  conns : Client.conn list;
  extra_attempted : int;  (** ops of the discarded set-up servers *)
  extra_failures : string list;
  window_hits : int;
  window_misses : int;
  rss_mb : float;
  rss_at : int;  (** finished sessions when [rss_mb] was read *)
  readings : Host.reading array;  (** steal readings, window and probe *)
  window_end : float;  (** sessions started after it are the probe's background *)
  workers_seen : int option;  (** the worker count the server reported *)
}

exception Setup_failed of string

let server_args (spec : Script.spec) ~workers =
  [ "--listen"; "127.0.0.1:0"; "--workers"; string_of_int workers ]
  @
  if spec.Script.paged then
    [ "--backend"; "paged"; "--buffer-pages"; string_of_int spec.Script.buffer_pages ]
  else []

let warm_up_extra (inputs : Script.inputs) =
  match inputs.Script.spec.Script.kind with
  | Script.Cold_l2s -> List.init 4 (fun i -> inputs.Script.fresh_pair 0 (-1 - i))
  | Script.Warm_td -> Array.to_list inputs.Script.probe_pairs
  | Script.Churn_paged -> []

(* The most client threads [in_parallel] ever ran at once. *)
let client_threads = ref 0

(* Run the jobs on their own threads (the first on this one); re-raise
   the first failure after all have ended.  The threads share one
   domain: a connection spends its time waiting for the server, and a
   second domain would add stop-the-world collections that stall both
   whenever the host deschedules either. *)
let in_parallel = function
  | [] -> ()
  | f :: rest as jobs ->
      client_threads := max !client_threads (List.length jobs);
      let spawn g =
        let result = ref (Ok ()) in
        (Thread.create (fun () -> result := try Ok (g ()) with e -> Error e) (), result)
      in
      let others = List.map spawn rest in
      let mine = try Ok (f ()) with e -> Error e in
      let results = List.map (fun (t, r) -> Thread.join t; !r) others in
      List.iter (function Ok () -> () | Error e -> raise e) (mine :: results)

(* The quieter share of the samples the metrics use (see [quiet]), and
   the host steal above which a run says so. *)
let quiet_share = 0.1
let steal_warning = 5.

(* The longest a timed window may last, in seconds (see [min_sessions]). *)
let max_window = 100.

let wire_run ~exe ~root ~inputs ~conns ~workers ~seconds =
  let spec = inputs.Script.spec in
  let tmp = fresh_dir (Filename.concat root "tmp") in
  let extra_attempted = ref 0 and extra_failures = ref [] in
  (* One set-up: spawn, connect, hello on every connection, loads and
     the first open of every cached pair. *)
  let setup rep =
    let t0 = now () in
    let log = Filename.concat root (Printf.sprintf "server-%d.log" rep) in
    match Wire.spawn ~exe ~args:(server_args spec ~workers) ~log ~tmpdir:tmp with
    | Error msg -> raise (Setup_failed msg)
    | Ok server ->
        let wconns = List.init conns (fun _ -> Wire.connect server) in
        let dconns =
          List.mapi (fun c w -> Client.create inputs ~c ~call:(Wire.call w) ~now) wconns
        in
        (try Client.warm_up dconns ~extra:(warm_up_extra inputs) ~spawn:in_parallel
         with Client.Op_failed msg ->
           List.iter Wire.disconnect wconns;
           Wire.stop server;
           raise (Setup_failed msg));
        ({ Client.start = t0; ms = (now () -. t0) *. 1e3 }, server, wconns, dconns)
  in
  let rec reps k acc =
    let dt, server, wconns, dconns = setup k in
    if k < spec.Script.setup_reps then begin
      List.iter
        (fun (d : Client.conn) ->
          extra_attempted := !extra_attempted + d.Client.attempted;
          extra_failures := d.Client.failures @ !extra_failures)
        dconns;
      List.iter Wire.disconnect wconns;
      Wire.stop server;
      reps (k + 1) (dt :: acc)
    end
    else (List.rev (dt :: acc), server, wconns, dconns)
  in
  let host = Host.start () in
  let stop_host () = Host.stop host in
  let setups, server, wconns, dconns =
    try reps 1 [] with e -> ignore (stop_host ()); raise e
  in
  let c0 = List.hd dconns in
  let catalog () =
    match Client.rpc c0 P.Stats with
    | P.Stats_reply { cache_hits; cache_misses; _ }, _ -> (cache_hits, cache_misses)
    | resp, _ -> Client.unexpected c0 "stats" resp
  in
  let finish () =
    List.iter Wire.disconnect wconns;
    Wire.stop server
  in
  match catalog () with
  | exception Client.Op_failed msg ->
      finish ();
      ignore (stop_host ());
      raise (Setup_failed msg)
  | h0, m0 ->
      Fun.protect ~finally:finish (fun () ->
          (* The peak RSS is read once [rss_after] sessions have finished
             (so that on cold-l2s, where every session adds a universe to
             the cache, it does not grow with throughput), else at the end. *)
          let finished = Atomic.make 0 and rss = Atomic.make None in
          (* The window lasts [seconds], and longer while fewer than
             [min_sessions] sessions have finished, so that a slow host
             still gives every percentile its samples; [max_window] caps
             it so that the run ends in time. *)
          let continue ~deadline ~cap k =
            let n = if k > 0 then 1 + Atomic.fetch_and_add finished 1 else Atomic.get finished in
            if k > 0 && n = spec.Script.rss_after then Atomic.set rss (Some (Wire.peak_rss_mb server, n));
            let t = now () in
            t < cap && (t < deadline || n < spec.Script.min_sessions)
          in
          let measured () =
            let t0 = now () in
            let deadline = t0 +. seconds and cap = t0 +. Float.max seconds max_window in
            in_parallel (List.map (fun d () -> Client.run d ~continue:(continue ~deadline ~cap)) dconns);
            let elapsed = now () -. t0 in
            let h1, m1 = try catalog () with Client.Op_failed _ -> (h0, m0) in
            (* The probe (warm-td): connection 0 sends deltas to the probe
               datasets while the others keep running sessions, so that
               deltas meet a busy server as they do on the other
               workloads; on an idle one their latency followed how fast
               the host woke it. *)
            if spec.Script.probe_deltas > 0 then begin
              let probe_end = now () +. spec.Script.probe_seconds and probing = Atomic.make true in
              in_parallel
                (List.map
                   (fun (d : Client.conn) () ->
                     if d == c0 then begin
                       Client.probe d ~continue:(fun i -> i < spec.Script.probe_deltas || now () < probe_end);
                       Atomic.set probing false
                     end
                     else Client.run d ~continue:(fun _ -> Atomic.get probing))
                   dconns)
            end;
            (elapsed, h1, m1, t0 +. elapsed)
          in
          let elapsed, h1, m1, window_end =
            match measured () with
            | r -> r
            | exception e ->
                ignore (stop_host ());
                raise e
          in
          let readings = stop_host () in
          let rss_mb, rss_at =
            match Atomic.get rss with
            | Some r -> r
            | None -> (Wire.peak_rss_mb server, Atomic.get finished)
          in
          {
            setups;
            elapsed;
            conns = dconns;
            extra_attempted = !extra_attempted;
            extra_failures = !extra_failures;
            window_hits = h1 - h0;
            window_misses = m1 - m0;
            rss_mb;
            rss_at;
            readings;
            window_end;
            workers_seen = server.Wire.workers;
          })

(* ---- output checks ---- *)

(* Every finished session's predicate against its goal, on the instance
   the session ended on.  Returns the failure messages. *)
let check_predicates conns =
  let memo = Hashtbl.create 64 in
  List.concat_map
    (fun (d : Client.conn) ->
      List.filter_map
        (fun (s : Client.session_log) ->
          match s.Client.outcome with
          | Client.Finished { predicate; _ } ->
              let pair = s.Client.pair in
              let key = (pair.Script.r.name, pair.Script.p.name, s.Client.version, predicate) in
              let ok =
                match Hashtbl.find_opt memo key with
                | Some ok -> ok
                | None ->
                    let r, p = s.Client.instance in
                    let ok = Script.equivalent r p predicate pair.Script.goal in
                    Hashtbl.replace memo key ok;
                    ok
              in
              if ok then None
              else
                Some
                  (Printf.sprintf "conn %d session %d: predicate %s is not equivalent to join %d's goal"
                     d.Client.c s.Client.index
                     (String.concat "," (List.map (fun (a, b) -> a ^ "=" ^ b) predicate))
                     pair.Script.join)
          | Client.Stale | Client.Failed _ -> None)
        (Client.sessions d))
    conns

let same_outcome a b =
  match (a, b) with
  | Client.Finished x, Client.Finished y ->
      Int.equal x.n_interactions y.n_interactions
      && List.equal (fun (a, b) (c, d) -> String.equal a c && String.equal b d) x.predicate y.predicate
  | Client.Stale, Client.Stale -> true
  | (Client.Finished _ | Client.Stale | Client.Failed _), _ -> false

let same_delta (a : Client.delta_log) (b : Client.delta_log) =
  String.equal a.d_table b.d_table
  && a.d_added = b.d_added && a.d_removed = b.d_removed && a.d_patched = b.d_patched
  && a.d_dropped = b.d_dropped && a.d_recertified = b.d_recertified && a.d_stale = b.d_stale

(* The replay must ask the same questions and reach the same outcomes
   as the wire run, session by session, and see the same deltas. *)
let check_replay ~wire ~replay =
  List.concat
    (List.map2
       (fun (w : Client.conn) (r : Client.conn) ->
         let ws = arr (Client.sessions w) in
         let sessions =
           List.filter_map
             (fun (rs : Client.session_log) ->
               let k = rs.Client.index in
               if k >= Array.length ws then Some (Printf.sprintf "replay conn %d ran extra session %d" w.Client.c k)
               else
                 let wsess = ws.(k) in
                 if
                   List.equal Client.equal_question wsess.Client.questions rs.Client.questions
                   && same_outcome wsess.Client.outcome rs.Client.outcome
                 then None
                 else Some (Printf.sprintf "conn %d session %d: replay diverged from the wire run" w.Client.c k))
             (Client.sessions r)
         in
         let rec prefix ws rs =
           match (ws, rs) with
           | _, [] -> []
           | [], _ :: _ -> [ Printf.sprintf "conn %d: replay sent more deltas" w.Client.c ]
           | a :: ws, b :: rs ->
               if same_delta a b then prefix ws rs
               else [ Printf.sprintf "conn %d: delta on %s diverged from the wire run" w.Client.c a.d_table ]
         in
         sessions @ prefix (Client.deltas w) (Client.deltas r))
       wire replay)

(* The workload is what it claims.  Returns (description, ok) rows. *)
let workload_checks ~root ~(inputs : Script.inputs) ~wire ~nproc =
  let spec = inputs.Script.spec in
  let conns = List.length wire.conns and threads = !client_threads in
  let common =
    [
      (Printf.sprintf "client connections opened %d <= nproc %d" conns nproc, conns <= nproc);
      (Printf.sprintf "client threads run at once %d <= nproc %d" threads nproc, threads <= nproc);
      (match wire.workers_seen with
       | Some w -> (Printf.sprintf "server reports %d workers <= nproc %d" w nproc, w <= nproc)
       | None -> ("server reports its worker count", false));
    ]
  in
  let hits = wire.window_hits and misses = wire.window_misses in
  let specific =
    match spec.Script.kind with
    | Script.Warm_td ->
        [
          ( Printf.sprintf "catalog hit ratio after warm-up = 1.0 (%d hits, %d misses)" hits misses,
            misses = 0 && hits > 0 );
        ]
    | Script.Cold_l2s ->
        [ (Printf.sprintf "every open misses the universe cache (%d hits, %d misses)" hits misses, hits = 0 && misses > 0) ]
    | Script.Churn_paged ->
        let dir = fresh_dir (Filename.concat root "pages") in
        let frames = spec.Script.buffer_pages in
        let pages (t : Script.table) =
          let s =
            Relstore.load_csv ~pool_frames:frames ~dest:(Filename.concat dir (t.name ^ ".jqh"))
              ~name:t.name t.path
          in
          let n = Jqi_storage.Heap.data_pages (Relstore.heap s) in
          Relstore.close s;
          n
        in
        let sizes =
          List.map
            (fun (pair : Script.pair) ->
              let a = pages pair.r and b = pages pair.p in
              (max a b, min a b))
            (Array.to_list (Array.concat (Array.to_list inputs.Script.shared)))
        in
        let range f =
          let xs = List.map f sizes in
          (List.fold_left min max_int xs, List.fold_left max 0 xs)
        in
        let big_lo, big_hi = range fst and small_lo, small_hi = range snd in
        [
          ( Printf.sprintf "%d pairs: larger heap file %d-%d pages > %d buffer frames" (List.length sizes)
              big_lo big_hi frames,
            big_lo > frames );
          ( Printf.sprintf "%d pairs: smaller heap file %d-%d pages <= %d buffer frames" (List.length sizes)
              small_lo small_hi frames,
            small_hi <= frames );
        ]
  in
  common @ specific

(* ---- the traced replay ---- *)

type replay_result = {
  rp : Replay.t;
  r_conns : Client.conn list;
  r_elapsed : float;
  scored : int;
  branch_hits : int;
  branch_misses : int;
}

let replay_run ~root ~(inputs : Script.inputs) ~conns ~counts ~traced =
  let spec = inputs.Script.spec in
  let dir = fresh_dir (Filename.concat root (if traced then "replay-on" else "replay-off")) in
  let rp = Replay.create spec ~dir ~traced in
  if traced then begin
    Obs.reset ();
    Obs.set_enabled true
  end;
  let t0 = now () in
  let mk c = Client.create inputs ~c ~call:(Replay.call rp) ~now in
  let c0 = mk 0 in
  let dconns = c0 :: List.init (conns - 1) (fun c -> mk (c + 1)) in
  (try
     Client.warm_up dconns ~extra:(warm_up_extra inputs) ~spawn:(List.iter (fun f -> f ()));
     Replay.load_shadows rp inputs;
     List.iter2 (fun d n -> Client.run d ~continue:(fun k -> k < n)) dconns counts;
     (* a prefix of the wire run's probe is enough for the layers *)
     let n = min 200 spec.Script.probe_deltas in
     Client.probe c0 ~continue:(fun i -> i < n)
   with Client.Op_failed _ -> ());
  let r_elapsed = now () -. t0 in
  let c = Obs.Counter.find in
  let result =
    {
      rp;
      r_conns = dconns;
      r_elapsed;
      scored = c "lookahead.candidates_scored";
      branch_hits = c "lookahead.branch_cache_hit";
      branch_misses = c "lookahead.branch_cache_miss";
    }
  in
  Obs.set_enabled false;
  Obs.reset ();
  Replay.close rp;
  result

let all_sessions conns = List.concat_map Client.sessions conns
let all_deltas conns = List.concat_map Client.deltas conns

let first_qs sessions = List.filter_map (fun (s : Client.session_log) -> s.Client.first_q) sessions
let answers sessions = List.concat_map (fun (s : Client.session_log) -> s.Client.answers) sessions
let ms samples = List.map (fun (x : Client.sample) -> x.Client.ms) samples

(* The wire sessions the replay covered, in replay order. *)
let covered ~wire ~counts =
  List.concat
    (List.map2
       (fun (d : Client.conn) n -> List.filteri (fun i _ -> i < n) (Client.sessions d))
       wire counts)

let layer_metrics ~wire ~(off : replay_result) ~(on : replay_result) ~counts ~failed_ratio =
  let tr = match on.rp.Replay.tr with Some t -> t | None -> assert false in
  let med name = match Trace.self_ms tr name with [] -> 0. | xs -> median xs in
  let cnt name = float_of_int (Trace.count tr name) in
  let bp = Replay.buffer_pool_stats on.rp in
  let open Jqi_storage.Buffer_pool in
  let rdeltas = all_deltas on.r_conns and wdeltas = all_deltas wire.conns in
  let wcov = covered ~wire:wire.conns ~counts in
  let roff = all_sessions off.r_conns in
  let diff a b = match (a, b) with [], _ | _, [] -> 0. | a, b -> median a -. median b in
  [
    ("relational.csv.load_ms", med "relational.csv.load");
    ("relational.csv.rows", float_of_int on.rp.Replay.csv_rows);
    ("relational.relation.fingerprint_calls", cnt "relational.relation.fingerprint");
    ("relational.relation.fingerprint_ms", med "relational.relation.fingerprint");
    ("relational.relation.apply_delta_ms", med "relational.relation.apply_delta");
    ("storage.relstore.load_ms", med "storage.relstore.load");
    ("storage.heap.data_pages", float_of_int (Replay.max_data_pages on.rp));
    ("storage.buffer_pool.frames", float_of_int on.rp.Replay.spec.Script.buffer_pages);
    ("storage.buffer_pool.hits", float_of_int bp.hits);
    ("storage.buffer_pool.misses", float_of_int bp.misses);
    ("storage.buffer_pool.hit_ratio", ratio bp.hits (bp.hits + bp.misses));
    ("storage.buffer_pool.evictions", float_of_int bp.evictions);
    ("storage.buffer_pool.flushes", float_of_int bp.flushes);
    ("core.universe.builds", cnt "core.universe.build");
    ("core.universe.build_ms", med "core.universe.build");
    ( "core.universe.classes",
      match on.rp.Replay.built_classes with [] -> 0. | l -> mean (List.map float_of_int l) );
    ("core.universe.apply_delta_calls", cnt "core.universe.apply_delta");
    ("core.universe.apply_delta_ms", med "core.universe.apply_delta");
    ("core.engine.create_ms", med "core.engine.create");
    ("core.engine.answer_ms", med "core.engine.answer");
    ("core.engine.recertify_ms", med "core.engine.recertify");
    ("core.engine.recertified", float_of_int (sum (fun (d : Client.delta_log) -> d.d_recertified) rdeltas));
    ("core.engine.stale", float_of_int (sum (fun (d : Client.delta_log) -> d.d_stale) rdeltas));
    ("core.lookahead.candidates_scored", float_of_int on.scored);
    ("core.lookahead.branch_cache_hit_ratio", ratio on.branch_hits (on.branch_hits + on.branch_misses));
    ("server.protocol.decode_ms", med "server.protocol.decode");
    ("server.protocol.encode_ms", med "server.protocol.encode");
    ("server.protocol.bytes_per_frame", ratio on.rp.Replay.frame_bytes on.rp.Replay.frames);
    ("server.catalog.hits", float_of_int wire.window_hits);
    ("server.catalog.misses", float_of_int wire.window_misses);
    ("server.catalog.hit_ratio", ratio wire.window_hits (wire.window_hits + wire.window_misses));
    ("server.catalog.patched", float_of_int (sum (fun (d : Client.delta_log) -> d.d_patched) wdeltas));
    ("server.catalog.dropped", float_of_int (sum (fun (d : Client.delta_log) -> d.d_dropped) wdeltas));
    ("server.transport.first_question_ms", diff (ms (first_qs wcov)) (ms (first_qs roff)));
    ("server.transport.answer_ms", diff (ms (answers wcov)) (ms (answers roff)));
    ("bench.trace_overhead_pct", 100. *. (on.r_elapsed -. off.r_elapsed) /. off.r_elapsed);
    ("bench.failed_ops_ratio", failed_ratio);
  ]

(* ---- one run ---- *)

let result_line ~correct ~attempted ~failed metrics =
  Json.Obj
    [
      ("correct", Json.Bool correct);
      ("attempted", Json.int attempted);
      ("failed", Json.int failed);
      ( "metrics",
        Json.Obj
          (List.map
             (fun (name, unit, v) -> (name, Json.Obj [ ("value", Json.Num v); ("unit", Json.Str unit) ]))
             metrics) );
    ]
  |> Json.to_string

(* The samples whose steal exposure (see [Host]) is at most that of the
   [share]-th quietest, but at least the [at_least]-th: the quieter part
   of the run.  Samples that tie with the limit are all kept, so with no
   steal at all every sample is.  Exposure is taken over a window of the
   same width around every sample, whatever its length, so that long ops
   are not left out more often than short ones. *)
let exposure_window = 0.3

let quiet readings ?(share = quiet_share) ?(at_least = 0) samples =
  let xs = Array.of_list samples in
  let n = Array.length xs in
  let exposure (x : Client.sample) =
    let mid = x.Client.start +. (x.Client.ms /. 2e3) in
    let half = Float.max exposure_window (x.Client.ms /. 1e3) /. 2. in
    Host.exposure readings (mid -. half) (mid +. half)
  in
  let ex = Array.map exposure xs in
  let k = min n (max at_least (int_of_float (Float.ceil (share *. float_of_int n)))) in
  if k = 0 then []
  else begin
    let sorted = Array.copy ex in
    Array.sort Float.compare sorted;
    let limit = sorted.(k - 1) in
    List.filteri (fun i _ -> ex.(i) <= limit) samples
  end

(* Samples a [p]-th percentile needs for [min_beyond] of them to lie
   beyond it, plus a fifth for the filter to choose from. *)
let min_beyond = 10.
let needed p = int_of_float (Float.ceil (1.2 *. min_beyond /. (1. -. (p /. 100.))))

(* The end-to-end metrics of a wire run, over the quieter samples (or
   every sample, unless [filtered]), and how many samples each
   percentile rests on.  [setup_s] is the median of the quietest 60% of
   the set-ups. *)
let e2e_metrics (wire : wire_result) ~(spec : Script.spec) ~filtered =
  let keep ?share ?at_least xs = if filtered then quiet wire.readings ?share ?at_least xs else xs in
  let sessions =
    List.filter (fun (s : Client.session_log) -> s.Client.span.Client.start < wire.window_end) (all_sessions wire.conns)
  in
  let finished =
    List.filter
      (fun (s : Client.session_log) -> match s.Client.outcome with Client.Finished _ -> true | _ -> false)
      sessions
  in
  let fq = keep ~at_least:(needed 90.) (first_qs sessions)
  and ans = keep ~at_least:(needed 90.) (answers sessions) in
  let deltas =
    List.concat_map
      (fun (d : Client.conn) -> List.filteri (fun i _ -> i >= spec.Script.probe_skip) (Client.deltas d))
      wire.conns
  in
  (* Inserts and deletes take different server paths, and a delete
     keeps the CPU busy for longer; they are filtered apart, each to the
     same share, so that the filter keeps their mix.  The p90 lies among
     the deletes (a quarter of the deltas), so the share keeps at least
     [needed 90.] of those. *)
  let dms =
    let ins, dels = List.partition (fun (x : Client.delta_log) -> x.d_removed = 0) deltas in
    let share =
      Float.max quiet_share (float_of_int (needed 90.) /. float_of_int (max 1 (List.length dels)))
    in
    let part xs = keep ~share (List.map (fun (x : Client.delta_log) -> x.d) xs) in
    part ins @ part dels
  in
  let spans = keep (List.map (fun (s : Client.session_log) -> s.Client.span) finished) in
  let interactions =
    List.filter_map
      (fun (s : Client.session_log) ->
        match s.Client.outcome with Client.Finished { n_interactions; _ } -> Some (float_of_int n_interactions) | _ -> None)
      finished
  in
  let metrics =
    [
      ("setup_s", median (List.map (fun (x : Client.sample) -> x.Client.ms /. 1e3) (keep ~share:0.6 wire.setups)));
      ("first_question_p50_ms", pct (ms fq) 50.);
      ("first_question_p90_ms", pct (ms fq) 90.);
      ("answer_p50_ms", pct (ms ans) 50.);
      ("answer_p90_ms", pct (ms ans) 90.);
      ("delta_p50_ms", pct (ms dms) 50.);
      ("delta_p90_ms", pct (ms dms) 90.);
      (* closed loops: each connection finishes a session every mean
         session time *)
      ("sessions_per_s", float_of_int (List.length wire.conns) *. 1e3 /. mean (ms spans));
      ("questions_per_session", mean interactions);
      ("server_peak_rss_mb", wire.rss_mb);
    ]
  in
  (metrics, [ ("first_question", List.length fq, 90.); ("answer", List.length ans, 90.); ("delta", List.length dms, 90.) ])

let run ~catalogue ~kind ~seed ~seconds ~trace ~exe ~work ~commit ~digest ~sample_check =
  let spec = Script.spec_of kind in
  let nproc = Domain.recommended_domain_count () in
  let conns = min spec.Script.conns nproc in
  let workers = conns in
  let root = fresh_dir (Filename.concat work (Script.kind_name kind)) in
  let data = fresh_dir (Filename.concat root "data") in
  let inputs = Script.make_inputs spec ~dir:data ~seed ~conns in
  Printf.printf "# perfbench workload=%s seed=%d seconds=%g trace=%d\n" (Script.kind_name kind) seed seconds
    (if trace then 1 else 0);
  Printf.printf "# nproc=%d ocaml=%s commit=%s source_sha256=%s\n" nproc Sys.ocaml_version commit digest;
  Printf.printf "# closed loop, zero think time: %d connections; server --workers %d%s\n" conns workers
    (if spec.Script.paged then Printf.sprintf " --backend paged --buffer-pages %d" spec.Script.buffer_pages
     else " --backend mem");
  let wire =
    try wire_run ~exe ~root ~inputs ~conns ~workers ~seconds
    with Setup_failed msg ->
      Printf.eprintf "perfbench: set-up failed: %s\n" msg;
      exit 1
  in
  let sessions = all_sessions wire.conns in
  let steal = 100. *. Host.overall wire.readings in
  Printf.printf "# host: the hypervisor stole %.1f%% of the non-idle CPU time during the run%s\n" steal
    (if steal > steal_warning then
       Printf.sprintf " (WARNING: above %.0f%%; the metrics use the quieter samples)" steal_warning
     else "");
  let line m = String.concat " " (List.map (fun (n, v) -> Printf.sprintf "%s=%.6g" n v) m) in
  Printf.printf "# every sample: %s\n" (line (fst (e2e_metrics wire ~spec ~filtered:false)));
  let e2e, sampled = e2e_metrics wire ~spec ~filtered:true in
  Printf.printf "# quieter samples: %s\n" (line e2e);
  let undersampled =
    List.filter_map
      (fun (what, n, p) ->
        let beyond = float_of_int n *. (1. -. (p /. 100.)) in
        Printf.printf "# samples: %s n=%d (quieter), %.0f beyond p%g\n" what n beyond p;
        if beyond >= min_beyond then None
        else Some (Printf.sprintf "%s p%g rests on %.0f samples beyond it (< %g)" what p beyond min_beyond))
      sampled
  in
  let stale = List.length (List.filter (fun (s : Client.session_log) -> s.Client.outcome = Client.Stale) sessions) in
  Printf.printf "# sessions: %d, %d stale (closed and reopened), window %.3fs; setups %s s; peak RSS read %s\n"
    (List.length sessions) stale wire.elapsed
    (String.concat " " (List.map (fun (x : Client.sample) -> Printf.sprintf "%.3f" (x.Client.ms /. 1e3)) wire.setups))
    (if spec.Script.rss_after > 0 then Printf.sprintf "after %d window sessions" wire.rss_at else "at the end");
  let pairs =
    List.sort_uniq
      (fun (a : Script.pair) (b : Script.pair) -> Int.compare a.pair_id b.pair_id)
      (List.map (fun (s : Client.session_log) -> s.Client.pair) sessions)
  in
  let rows (t : Script.table) = Relation.cardinality (Jqi_relational.Csv.load_relation ~name:t.name t.path) in
  List.iter
    (fun join ->
      match List.filter (fun (p : Script.pair) -> p.Script.join = join) pairs with
      | [] -> ()
      | (p : Script.pair) :: _ as ps ->
          Printf.printf "# sizes: %d join-%d pairs of %d x %d rows (first pair)\n" (List.length ps) join
            (rows p.Script.r) (rows p.Script.p))
    [ 4; 5 ];
  Printf.printf "# sizes: %.1f classes per opened universe (mean over sessions)\n"
    (mean (List.map (fun (s : Client.session_log) -> float_of_int s.Client.classes) sessions));
  let checks =
    workload_checks ~root ~inputs ~wire ~nproc
    @ List.map (fun m -> (m, not sample_check)) undersampled
  in
  List.iter (fun (what, ok) -> Printf.printf "# check %s: %s\n" (if ok then "ok" else "FAILED") what) checks;
  let wrong = check_predicates wire.conns in
  let attempted = wire.extra_attempted + sum (fun (d : Client.conn) -> d.Client.attempted) wire.conns in
  let op_failures = wire.extra_failures @ List.concat_map (fun (d : Client.conn) -> d.Client.failures) wire.conns in
  let divergences, layer =
    if not trace then ([], [])
    else begin
      let counts =
        List.map
          (fun (d : Client.conn) -> min spec.Script.replay_sessions (List.length (Client.sessions d)))
          wire.conns
      in
      let off = replay_run ~root ~inputs ~conns ~counts ~traced:false in
      let on = replay_run ~root ~inputs ~conns ~counts ~traced:true in
      let div = check_replay ~wire:wire.conns ~replay:off.r_conns @ check_replay ~wire:wire.conns ~replay:on.r_conns in
      let replay_failures =
        List.concat_map (fun (d : Client.conn) -> d.Client.failures) (off.r_conns @ on.r_conns)
      in
      let tr = match on.rp.Replay.tr with Some t -> t | None -> assert false in
      let trace_dir = Filename.concat work "traces" in
      mkdir_p trace_dir;
      let trace_path = Filename.concat trace_dir (Printf.sprintf "%s-seed%d.json" (Script.kind_name kind) seed) in
      Json.save_file trace_path (Trace.to_chrome tr);
      Printf.printf "# replay: %s sessions per connection, %.3fs untraced, %.3fs traced\n"
        (String.concat "/" (List.map string_of_int counts))
        off.r_elapsed on.r_elapsed;
      Printf.printf "# chrome trace: %s\n# self time by span (traced replay):\n" trace_path;
      List.iter (fun l -> if l <> "" then Printf.printf "#   %s\n" l) (String.split_on_char '\n' (Trace.self_table tr));
      let failed_now = List.length op_failures + List.length wrong + List.length div + List.length replay_failures in
      ( div @ replay_failures,
        layer_metrics ~wire ~off ~on ~counts ~failed_ratio:(ratio failed_now attempted) )
    end
  in
  let problems = op_failures @ wrong @ divergences in
  List.iter (fun m -> Printf.printf "# FAILED: %s\n" m) problems;
  (* emit exactly what BENCHMARK.json declares, in its order and units *)
  let computed = if trace then layer else e2e in
  let declared = if trace then catalogue.per_layer else catalogue.end_to_end in
  let metrics =
    List.map (fun (name, unit) -> (name, unit, Option.value ~default:nan (List.assoc_opt name computed))) declared
  in
  let unfinished = List.filter (fun (_, _, v) -> not (Float.is_finite v)) metrics in
  List.iter (fun (n, _, _) -> Printf.printf "# FAILED: metric %s has no value\n" n) unfinished;
  let checks_ok = List.for_all snd checks in
  let failed = List.length problems in
  let correct = failed = 0 && checks_ok && unfinished = [] in
  let metrics = List.map (fun (n, u, v) -> (n, u, if Float.is_finite v then v else 0.)) metrics in
  print_endline (result_line ~correct ~attempted:(max 1 attempted) ~failed metrics);
  List.iter (fun d -> rm_rf (Filename.concat root d)) [ "data"; "tmp"; "pages"; "replay-off"; "replay-on" ];
  if not correct then exit 1

(* ---- self-test ---- *)

let self_test ~catalogue ~work =
  let ok = ref true in
  let expect what b =
    Printf.printf "%s %s\n" (if b then "ok  " else "FAIL") what;
    if not b then ok := false
  in
  List.iter
    (fun (n, _) -> expect (Printf.sprintf "metric name %s matches [A-Za-z0-9_.-]+" n) (valid_name n))
    (catalogue.end_to_end @ catalogue.per_layer);
  List.iter
    (fun kind ->
      let spec = Script.spec_of kind in
      let gen tag seed =
        let dir = fresh_dir (Filename.concat work (Printf.sprintf "selftest/%s-%s" (Script.kind_name kind) tag)) in
        let inputs = Script.make_inputs spec ~dir ~seed ~conns:2 in
        Script.render inputs ~conns:2 ~sessions:4 ~deltas:4
      in
      let a = gen "a" 7 and b = gen "b" 7 and c = gen "c" 8 in
      expect (Printf.sprintf "%s: same seed gives the same op script" (Script.kind_name kind)) (String.equal a b);
      expect (Printf.sprintf "%s: another seed gives another op script" (Script.kind_name kind)) (not (String.equal a c)))
    Script.kinds;
  rm_rf (Filename.concat work "selftest");
  if not !ok then exit 1

(* ---- command line ---- *)

let () =
  (* never leave a server behind, whatever ends the run *)
  at_exit Wire.stop_all;
  List.iter
    (fun s -> Sys.set_signal s (Sys.Signal_handle (fun _ -> exit 130)))
    [ Sys.sigint; Sys.sigterm ];
  let workload = ref "" and seed = ref 1 and seconds = ref 10. and trace = ref 0 in
  let exe = ref "_build/default/bin/jqinfer.exe" and work = ref ".bench_build/perfbench" in
  let commit = ref "unknown" and digest = ref "unknown" and selftest = ref false in
  let sample_check = ref true in
  Arg.parse
    [
      ("--workload", Arg.Set_string workload, "NAME warm-td | cold-l2s | churn-paged");
      ("--seed", Arg.Set_int seed, "N input seed");
      ("--seconds", Arg.Set_float seconds, "S length of the timed window");
      ("--trace", Arg.Set_int trace, "0|1 end-to-end metrics, or the traced replay's per-layer ones");
      ("--jqinfer", Arg.Set_string exe, "PATH the server binary");
      ("--work", Arg.Set_string work, "DIR scratch directory (inputs, traces)");
      ("--commit", Arg.Set_string commit, "ID source revision, recorded in the output");
      ("--source-digest", Arg.Set_string digest, "HEX source digest, recorded in the output");
      ( "--allow-undersampled",
        Arg.Clear sample_check,
        " do not fail a run whose percentiles rest on fewer than 10 samples beyond them (short test runs)" );
      ("--self-test", Arg.Set selftest, " check metric names and op-script determinism");
    ]
    (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
    "jqbench --workload NAME --seed N --seconds S --trace 0|1";
  let catalogue =
    try load_catalogue "BENCHMARK.json"
    with Bad_catalogue msg ->
      Printf.eprintf "jqbench: %s\n" msg;
      exit 2
  in
  if !selftest then self_test ~catalogue ~work:!work
  else
    match Script.kind_of_name !workload with
    | None ->
        Printf.eprintf "jqbench: unknown workload %S (warm-td | cold-l2s | churn-paged)\n" !workload;
        exit 2
    | Some kind ->
        run ~catalogue ~kind ~seed:!seed ~seconds:!seconds ~trace:(!trace = 1) ~exe:!exe ~work:!work ~commit:!commit
          ~digest:!digest ~sample_check:!sample_check
