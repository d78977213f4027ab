(* Interactive semijoin inference — the paper's §7 future-work item
   ("design heuristics for the interactive inference of semijoins").

   The equijoin machinery of §3 does not carry over: deciding whether a
   tuple of R is uninformative is coNP-hard (it reduces to CONS⋉, Theorem
   6.1).  This heuristic therefore uses the SAT-backed consistency checker
   as an NP oracle:

   - a tuple t of R is *certain* w.r.t. the current sample S iff one of
     its labels makes S inconsistent (then the other label is implied);
     this is decided with two CONS⋉ calls;
   - tuples are asked in decreasing witness ambiguity (number of distinct
     T(t, ·) signatures): tuples with many possible witnesses constrain
     the version space most when labeled negative;
   - the loop skips certain tuples and halts when none is informative;
     the answer is any predicate consistent with the collected sample
     (a witness from the SAT solver).

   Exponential in the worst case — necessarily so unless P = NP — but the
   per-step instances are small in practice. *)

module Bits = Jqi_util.Bits
module Relation = Jqi_relational.Relation
module Omega = Jqi_core.Omega
module Tsig = Jqi_core.Tsig

type result = {
  predicate : Bits.t;          (* a consistent witness *)
  n_queries : int;
  asked : (int * bool) list;   (* (row of R, label), chronological *)
  implied : int list;          (* rows never asked because certain *)
}

let sample_with (s : Semijoin.sample) i positive =
  if positive then { s with Semijoin.pos = i :: s.Semijoin.pos }
  else { s with Semijoin.neg = i :: s.Semijoin.neg }

let certain_label r p omega s i =
  (* If labeling i negative kills consistency, positive is implied, and
     vice versa.  Both inconsistent cannot happen for a consistent s. *)
  if not (Cons.consistent r p omega (sample_with s i false)) then Some true
  else if not (Cons.consistent r p omega (sample_with s i true)) then
    Some false
  else None

(* Witness ambiguity: number of distinct signatures {T(t, t') | t' ∈ P}. *)
let ambiguity r p omega i =
  let module H = Hashtbl.Make (struct
    type t = Bits.t

    let equal = Bits.equal
    let hash = Bits.hash
  end) in
  let seen = H.create 16 in
  let tr = Relation.row r i in
  Relation.iter
    (fun tp -> H.replace seen (Tsig.of_ktuples omega [| tr; tp |]) ())
    p;
  H.length seen

let run ?(max_queries = max_int) r p omega ~oracle =
  let n = Relation.cardinality r in
  let order =
    (* Decorate-sort-undecorate: ambiguity costs a |P|-wide signature scan
       per row, so compute it once per row, not per comparison. *)
    List.init n (fun i -> (i, ambiguity r p omega i))
    |> List.sort (fun (_, a) (_, b) -> compare b a)
    |> List.map fst
  in
  let sample = ref (Semijoin.sample ~pos:[] ~neg:[]) in
  let asked = ref [] in
  let implied = ref [] in
  let n_queries = ref 0 in
  List.iter
    (fun i ->
      if !n_queries < max_queries then
        match certain_label r p omega !sample i with
        | Some _ -> implied := i :: !implied
        | None ->
            let positive = oracle i in
            incr n_queries;
            asked := (i, positive) :: !asked;
            sample := sample_with !sample i positive)
    order;
  match Cons.solve r p omega !sample with
  | Some predicate ->
      {
        predicate;
        n_queries = !n_queries;
        asked = List.rev !asked;
        implied = List.rev !implied;
      }
  | None ->
      (* Unreachable with an oracle labeling consistently with some goal:
         every extension of a consistent sample by a non-certain label
         stays consistent. *)
      invalid_arg "Heuristic.run: oracle produced an inconsistent sample"

(* The honest semijoin user: labels t positive iff t ∈ R ⋉_goal P. *)
let honest_oracle r p omega ~goal i = Semijoin.selects r p omega goal i
