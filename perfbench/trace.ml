(* The benchmark's own spans, recorded around each call into a layer.

   Single-threaded by design (the replay runs on one thread), so a plain
   stack gives every span its parent.  A span with no parent is an op
   and opens a new request id; its children inherit it.  Self time is a
   span's duration minus its children's, and the layer is the first
   dotted component of the span name. *)

module Json = Jqi_util.Json

type span = {
  id : int;
  parent : int;  (** 0 for an op *)
  req : int;
  name : string;
  start : float;
  mutable dur : float;
  mutable child : float;  (** time covered by direct children *)
}

type t = {
  mutable stack : span list;
  spans : span Jqi_util.Vec.t;
  mutable next_id : int;
  mutable next_req : int;
  origin : float;
}

let create () =
  {
    stack = [];
    spans = Jqi_util.Vec.create ();
    next_id = 1;
    next_req = 0;
    origin = Unix.gettimeofday ();
  }

let span t name f =
  let parent, req =
    match t.stack with
    | p :: _ -> (p.id, p.req)
    | [] ->
        t.next_req <- t.next_req + 1;
        (0, t.next_req)
  in
  let s =
    { id = t.next_id; parent; req; name; start = Unix.gettimeofday (); dur = 0.; child = 0. }
  in
  t.next_id <- t.next_id + 1;
  Jqi_util.Vec.push t.spans s;
  t.stack <- s :: t.stack;
  let finish () =
    s.dur <- Unix.gettimeofday () -. s.start;
    match t.stack with
    | _ :: (p :: _ as rest) ->
        p.child <- p.child +. s.dur;
        t.stack <- rest
    | _ :: [] | [] -> t.stack <- []
  in
  Fun.protect ~finally:finish f

let self s = Float.max 0. (s.dur -. s.child)
let layer name = match String.index_opt name '.' with Some i -> String.sub name 0 i | None -> name
let spans t = Jqi_util.Vec.to_list t.spans

(* Self times in ms of every span called [name]. *)
let self_ms t name =
  List.filter_map
    (fun s -> if String.equal s.name name then Some (self s *. 1e3) else None)
    (spans t)

let count t name = List.length (self_ms t name)

(* Chrome trace-event format ("X" complete events, microseconds), which
   chrome://tracing and Perfetto load directly. *)
let to_chrome t =
  let us x = Json.Num (Float.round (x *. 1e7) /. 10.) in
  Json.Obj
    [
      ( "traceEvents",
        Json.List
          (List.map
             (fun s ->
               Json.Obj
                 [
                   ("name", Json.Str s.name);
                   ("cat", Json.Str (layer s.name));
                   ("ph", Json.Str "X");
                   ("ts", us (s.start -. t.origin));
                   ("dur", us s.dur);
                   ("pid", Json.int 1);
                   ("tid", Json.int 1);
                   ( "args",
                     Json.Obj
                       [
                         ("req", Json.int s.req);
                         ("id", Json.int s.id);
                         ("parent", Json.int s.parent);
                         ("self_us", us (self s));
                       ] );
                 ])
             (spans t)) );
      ("displayTimeUnit", Json.Str "ms");
    ]

(* Per-layer and per-span self time, as an aligned text table. *)
let self_table t =
  let by_name = Hashtbl.create 32 in
  List.iter
    (fun s ->
      let n, tot, self_ = Option.value ~default:(0, 0., 0.) (Hashtbl.find_opt by_name s.name) in
      Hashtbl.replace by_name s.name (n + 1, tot +. s.dur, self_ +. self s))
    (spans t);
  let rows = Hashtbl.fold (fun name v acc -> (name, v) :: acc) by_name [] in
  let rows = List.sort (fun (a, _) (b, _) -> String.compare a b) rows in
  let total_self = List.fold_left (fun acc (_, (_, _, s)) -> acc +. s) 0. rows in
  let buf = Buffer.create 1024 in
  Printf.bprintf buf "%-40s %8s %12s %12s %7s\n" "span" "calls" "total_ms" "self_ms" "self%";
  let layers = Hashtbl.create 8 in
  List.iter
    (fun (name, (n, tot, s)) ->
      Printf.bprintf buf "%-40s %8d %12.3f %12.3f %6.1f%%\n" name n (tot *. 1e3) (s *. 1e3)
        (100. *. s /. total_self);
      let l = layer name in
      Hashtbl.replace layers l (s +. Option.value ~default:0. (Hashtbl.find_opt layers l)))
    rows;
  let layers = List.sort compare (Hashtbl.fold (fun l s acc -> (l, s) :: acc) layers []) in
  List.iter
    (fun (l, s) ->
      Printf.bprintf buf "%-40s %8s %12s %12.3f %6.1f%%\n" ("layer " ^ l) "" "" (s *. 1e3)
        (100. *. s /. total_self))
    layers;
  Buffer.contents buf
