(* Workloads, their seeded inputs and the per-connection op script.

   Everything a run sends is a function of (workload, seed, connection,
   session index): the CSV files, which pair a session opens, its goal,
   and every delta row.  The server only ever sees the generated files
   and the frames; the goal stays on the client side. *)

module Relation = Jqi_relational.Relation
module Csv = Jqi_relational.Csv
module Schema = Jqi_relational.Schema
module Tuple = Jqi_relational.Tuple
module Value = Jqi_relational.Value
module Tpch = Jqi_tpch.Tpch
module Prng = Jqi_util.Prng

type kind = Warm_td | Cold_l2s | Churn_paged

let kinds = [ Warm_td; Cold_l2s; Churn_paged ]

let kind_name = function
  | Warm_td -> "warm-td"
  | Cold_l2s -> "cold-l2s"
  | Churn_paged -> "churn-paged"

let kind_of_name s = List.find_opt (fun k -> String.equal (kind_name k) s) kinds

(* Input sizes.  TPC-H scale s gives orders 22s / lineitem 88s /
   partsupp 100s rows.  At scale 4 the lineitem heap file spans more
   4 KiB pages than [buffer_pages] frames while orders fits, which
   [Main] checks on every churn run.  cold-l2s keeps the first half of
   each scale-1 table (11 orders x 44 lineitems, about 60 classes, still
   keyed): an L2S session then costs tens of ms, so that a window holds
   hundreds of first questions even while the host takes half the CPU
   (at full scale 1 it held under 100, too few for a p90).  Metrics that depend on the data
   (questions per session, answer cost) are averaged over many seeded
   datasets per run, so that one seed's data does not move them. *)
type spec = {
  kind : kind;
  scale : int;
  keep : float;  (** the share of each generated table's rows kept, as a prefix *)
  strategy : string;
  paged : bool;
  buffer_pages : int;
  conns : int;
      (** client connections, and the server's [--workers]; at most
          nproc.  One connection leaves a core for the rest of the
          machine, so that a run does not wait on the scheduler. *)
  datasets : int;  (** warm: shared datasets; churn: datasets per connection *)
  delta_every : int;  (** churn: a delta after every n-th answer; 0 = none *)
  deltas_after : int;
      (** cold: after session [k], one delta to the lineitem of each of
          sessions [k-1 ... k-n] *)
  probe_datasets : int;  (** warm: datasets only the probe's deltas touch *)
  probe_deltas : int;  (** deltas sent after the timed window, at least *)
  probe_seconds : float;  (** how long the probe lasts, at least *)
  probe_skip : int;  (** first probe deltas left out of the metrics *)
  replay_sessions : int;  (** sessions per connection the replay covers *)
  setup_reps : int;  (** set-ups per run; [setup_s] is the median of the quieter *)
  min_sessions : int;
      (** the timed window lasts until this many sessions have finished,
          if that takes longer than the [--seconds] asked for *)
  rss_after : int;
      (** read the server's peak RSS once this many sessions have
          finished (0: at the end of the run) *)
}

let spec_of = function
  | Warm_td ->
      {
        kind = Warm_td;
        scale = 3;
        keep = 1.;
        strategy = "td";
        paged = false;
        buffer_pages = 0;
        conns = 2;
        datasets = 16;
        delta_every = 0;
        deltas_after = 0;
        probe_datasets = 8;
        probe_deltas = 240;
        probe_seconds = 12.;
        probe_skip = 20;
        replay_sessions = 150;
        setup_reps = 3;
        min_sessions = 200;
        rss_after = 0;
      }
  | Cold_l2s ->
      {
        kind = Cold_l2s;
        scale = 1;
        keep = 0.5;
        strategy = "l2s";
        paged = false;
        buffer_pages = 0;
        conns = 1;
        datasets = 0;
        delta_every = 0;
        deltas_after = 4;
        probe_datasets = 0;
        probe_deltas = 0;
        probe_seconds = 0.;
        probe_skip = 0;
        replay_sessions = 40;
        setup_reps = 9;
        min_sessions = 200;
        rss_after = 100;
      }
  | Churn_paged ->
      {
        kind = Churn_paged;
        scale = 4;
        keep = 1.;
        strategy = "bu";
        paged = true;
        buffer_pages = 4;
        conns = 1;
        datasets = 24;
        delta_every = 4;
        deltas_after = 0;
        probe_datasets = 0;
        probe_deltas = 0;
        probe_seconds = 0.;
        probe_skip = 0;
        replay_sessions = 60;
        setup_reps = 5;
        min_sessions = 200;
        rss_after = 0;
      }

(* Deterministic seed derivation: one stream per (purpose, indexes). *)
let derive seed parts =
  List.fold_left (fun acc x -> ((acc * 1_000_003) + x + 7) land 0x3FFF_FFFF) seed parts

(* ---- tables and pairs ---- *)

type table = {
  name : string;  (** catalog name on the server *)
  path : string;  (** CSV file the server loads *)
  donor : Tuple.t array;  (** rows future inserts draw from *)
}

type pair = {
  pair_id : int;
  join : int;  (** TPC-H join number, 4 or 5 *)
  r : table;
  p : table;
  goal : (string * string) list;  (** attribute pairs of the goal join *)
}

let join_of db n = List.nth (Tpch.joins db) (n - 1)

(* Rows of [donor] whose cells parse under [schema] — the schema the
   server inferred from the CSV — so every generated insert is valid. *)
let donor_rows schema donor =
  let cols = Schema.columns schema in
  List.filter
    (fun t ->
      List.for_all2
        (fun (c : Schema.column) v ->
          Option.is_some (Value.parse c.Schema.ty (Value.to_string v)))
        cols (Tuple.to_list t))
    (Array.to_list (Relation.rows donor))
  |> Array.of_list

let write_table ~dir ~name rel ~donor =
  let path = Filename.concat dir (name ^ ".csv") in
  Csv.save_relation path rel;
  let schema = Relation.schema (Csv.load_relation ~name path) in
  { name; path; donor = donor_rows schema donor }

(* One generated dataset: the tables joins [joins] need, written once
   under [prefix], and one pair per join.  Donor rows come from a second
   database drawn from a derived seed. *)
let write_dataset ?(keep = 1.) ~dir ~prefix ~seed ~scale ~first_id joins =
  let db = Tpch.generate ~seed ~scale () in
  let donor_db = Tpch.generate ~seed:(derive seed [ 99 ]) ~scale () in
  let written = Hashtbl.create 4 in
  let table rel donor =
    let name = prefix ^ "_" ^ Relation.name rel in
    match Hashtbl.find_opt written name with
    | Some t -> t
    | None ->
        let rows = Relation.rows rel in
        let n = max 1 (int_of_float (Float.round (keep *. float_of_int (Array.length rows)))) in
        let rel = Relation.with_rows rel (Array.sub rows 0 (min n (Array.length rows))) in
        let t = write_table ~dir ~name rel ~donor in
        Hashtbl.replace written name t;
        t
  in
  List.mapi
    (fun i n ->
      let j = join_of db n and dj = join_of donor_db n in
      {
        pair_id = first_id + i;
        join = n;
        r = table j.Tpch.r dj.Tpch.r;
        p = table j.Tpch.p dj.Tpch.p;
        goal = j.Tpch.pairs;
      })
    joins

(* ---- the op script ---- *)

(* What session [k] of connection [c] opens.  [fresh] sessions (cold)
   load their pair first; the others open a pair loaded at set-up. *)
type session_plan = { pair : pair; fresh : bool }

type inputs = {
  spec : spec;
  seed : int;
  shared : pair array array;
      (** per connection, the pairs loaded at set-up (warm: the same
          array for every connection) *)
  fresh_pair : int -> int -> pair;  (** cold: writes the files on first use *)
  probe_pairs : pair array;  (** warm: opened at set-up, then only the probe touches them *)
}

let warm_pairs spec ~dir ~seed =
  Array.concat
    (List.init spec.datasets (fun d ->
         Array.of_list
           (write_dataset ~dir ~prefix:(Printf.sprintf "d%d" d)
              ~seed:(derive seed [ 1; d ]) ~scale:spec.scale ~first_id:(2 * d)
              [ 4; 5 ])))

let churn_pairs spec ~dir ~seed c =
  Array.init spec.datasets (fun d ->
      match
        write_dataset ~dir ~prefix:(Printf.sprintf "c%dd%d" c d)
          ~seed:(derive seed [ 3; c; d ]) ~scale:spec.scale
          ~first_id:((100 * (c + 1)) + d) [ 4 ]
      with
      | [ p ] -> p
      | _ -> assert false)

let cold_pair spec ~dir ~seed c k =
  let s = derive seed [ 2; c; k ] in
  let join = 4 in
  match
    write_dataset ~keep:spec.keep ~dir ~prefix:(Printf.sprintf "c%dk%d" c k) ~seed:s
      ~scale:spec.scale ~first_id:((1_000_000 * (c + 1)) + k) [ join ]
  with
  | [ p ] -> p
  | _ -> assert false

let make_inputs spec ~dir ~seed ~conns =
  let shared =
    match spec.kind with
    | Warm_td ->
        let ps = warm_pairs spec ~dir ~seed in
        Array.make conns ps
    | Churn_paged -> Array.init conns (churn_pairs spec ~dir ~seed)
    | Cold_l2s -> Array.make conns [||]
  in
  (* connections run on their own threads and share this memo *)
  let memo = Hashtbl.create 64 and lock = Mutex.create () in
  let fresh_pair c k =
    match Mutex.protect lock (fun () -> Hashtbl.find_opt memo (c, k)) with
    | Some p -> p
    | None ->
        let p = cold_pair spec ~dir ~seed c k in
        Mutex.protect lock (fun () -> Hashtbl.replace memo (c, k) p);
        p
  in
  let probe_pairs =
    Array.init spec.probe_datasets (fun d ->
        match
          write_dataset ~dir ~prefix:(Printf.sprintf "p%d" d) ~seed:(derive seed [ 5; d ])
            ~scale:spec.scale ~first_id:(500 + d) [ 4 ]
        with
        | [ p ] -> p
        | _ -> assert false)
  in
  { spec; seed; shared; fresh_pair; probe_pairs }

let plan inputs c k =
  match inputs.spec.kind with
  | Cold_l2s -> { pair = inputs.fresh_pair c k; fresh = true }
  | Warm_td ->
      let pairs = inputs.shared.(c) in
      let g = Prng.create (derive inputs.seed [ 4; c; k ]) in
      { pair = pairs.(Prng.int g (Array.length pairs)); fresh = false }
  | Churn_paged ->
      let pairs = inputs.shared.(c) in
      { pair = pairs.(k mod Array.length pairs); fresh = false }

(* The tables post-window probe deltas go to, round robin: the lineitem
   of every probe dataset.  Spreading the probe over datasets averages
   out how much one dataset's deltas cost. *)
let probe_tables inputs = Array.map (fun p -> p.p) inputs.probe_pairs

(* The [n]-th delta on a table whose current rows are [current]: three
   deltas each insert one donor row, the fourth deletes the three oldest
   rows, so the relation keeps its size and slowly rotates.  Inserts
   and deletes take different server paths: a deletion re-fingerprints
   the whole relation, and deleting the oldest rows removes class
   representatives, so the patched universe runs its repair pass every
   time instead of depending on which rows the data made
   representatives.  The 3:1 mix keeps the delta median on the insert
   path and p90 on the delete path instead of between them. *)
let delta_at table n current =
  let cells t = List.map Value.to_string (Tuple.to_list t) in
  if n mod 4 = 3 then ([], List.init 3 (fun i -> cells (Relation.row current i)))
  else ([ cells table.donor.(n mod Array.length table.donor) ], [])

(* A rendering of the first [sessions] sessions and [deltas] deltas of
   every connection, for the determinism self-test. *)
let render inputs ~conns ~sessions ~deltas =
  let buf = Buffer.create 4096 in
  let file path = Digest.to_hex (Digest.file path) in
  for c = 0 to conns - 1 do
    for k = 0 to sessions - 1 do
      let { pair; fresh } = plan inputs c k in
      Printf.bprintf buf "c%d s%d %s%s join%d %s=%s %s=%s goal=%s\n" c k
        (if fresh then "load+" else "")
        inputs.spec.strategy pair.join pair.r.name (file pair.r.path)
        pair.p.name (file pair.p.path)
        (String.concat "," (List.map (fun (a, b) -> a ^ "=" ^ b) pair.goal));
      List.iter
        (fun t ->
          let current = Csv.load_relation ~name:t.name t.path in
          for n = 0 to deltas - 1 do
            let ins, del = delta_at t n current in
            let rows rs = String.concat ";" (List.map (String.concat "|") rs) in
            Printf.bprintf buf "  delta %s #%d +[%s] -[%s]\n" t.name n (rows ins)
              (rows del)
          done)
        [ pair.r; pair.p ]
    done
  done;
  Buffer.contents buf

(* ---- the correctness oracle ---- *)

(* [theta] and [goal] select the same pairs of [r] x [p]: the paper's
   instance equivalence, checked by brute force over the product. *)
let equivalent r p theta goal =
  let idx rel names = List.map (fun a -> Schema.index_of (Relation.schema rel) a) names in
  let cols pairs =
    let is = idx r (List.map fst pairs) and js = idx p (List.map snd pairs) in
    if List.for_all Option.is_some is && List.for_all Option.is_some js then
      Some (List.combine (List.map Option.get is) (List.map Option.get js))
    else None
  in
  match (cols theta, cols goal) with
  | None, _ | _, None -> false
  | Some t, Some g ->
      let sat ra pa = List.for_all (fun (i, j) -> Value.eq (Tuple.get ra i) (Tuple.get pa j)) in
      let prow = Relation.rows p in
      Relation.fold
        (fun ok ra ->
          ok && Array.for_all (fun pa -> Bool.equal (sat ra pa t) (sat ra pa g)) prow)
        true r
