(* Interactive inference of join paths — the paper's §7 future-work item
   "extend our approach … to join paths".

   Setting: a chain R_1, …, R_k of relations with pairwise-disjoint
   attribute sets, and a goal vector of equijoin predicates
   θ_i ⊆ attrs(R_i) × attrs(R_{i+1}).  The user labels *path tuples*
   (t_1, …, t_k) of the full product: positive iff every adjacent pair is
   selected (∀i. θ_i ⊆ T(t_i, t_{i+1})).

   The paper's machinery generalizes: a path tuple is characterized by its
   *signature vector* (T(t_1,t_2), …, T(t_{k-1},t_k)); positives intersect
   into per-edge most-specific predicates tposᵢ; a negative example
   contributes the constraint "some edge predicate is ⊄ its signature".
   The certain-tuple characterizations stay polynomial:

   - Cert⁺ (every consistent vector selects the combo): tposᵢ ⊆ sᵢ for all
     edges — the per-edge Lemma 3.3, because any consistent θᵢ ⊆ tposᵢ;
   - Cert⁻ (no consistent vector selects it): the *maximal* selecting
     vector (sᵢ ∩ tposᵢ)ᵢ violates some negative constraint, i.e.
     ∃ negative (n₁…n_m). ∀i. sᵢ ∩ tposᵢ ⊆ nᵢ — a vector form of
     Lemma 3.4; maximality makes the single check sufficient because the
     constraint is monotone in each θᵢ. *)

module Bits = Jqi_util.Bits
module Prng = Jqi_util.Prng
module Relation = Jqi_relational.Relation
module Tuple = Jqi_relational.Tuple
module Omega = Jqi_core.Omega
module Tsig = Jqi_core.Tsig
module Sample = Jqi_core.Sample

type combo = {
  signatures : Bits.t array;  (* one per edge *)
  count : int;  (* multiplicity among path tuples *)
  rep : int array;  (* row indexes, one per relation *)
}

type t = {
  relations : Relation.t array;
  omegas : Omega.t array;  (* omegas.(i) spans R_i × R_{i+1} *)
  combos : combo array;
}

let n_edges t = Array.length t.omegas
let n_combos t = Array.length t.combos
let combo t i = t.combos.(i)

(* Guard: the combo table is the quotient of the full path product. *)
let max_path_tuples = 2_000_000

let build relations =
  (match relations with
  | [] | [ _ ] -> invalid_arg "Path.build: need at least two relations"
  | _ -> ());
  let relations = Array.of_list relations in
  let k = Array.length relations in
  let total =
    Array.fold_left (fun acc r -> acc * Relation.cardinality r) 1 relations
  in
  if total = 0 then invalid_arg "Path.build: empty relation in the chain";
  if total > max_path_tuples then
    invalid_arg "Path.build: path product too large";
  let omegas =
    Array.init (k - 1) (fun i ->
        Omega.of_schemas
          (Relation.schema relations.(i))
          (Relation.schema relations.(i + 1)))
  in
  let module H = Hashtbl in
  let acc : (string, Bits.t array * int * int array) H.t = H.create 256 in
  let key sigs =
    String.concat "|"
      (Array.to_list (Array.map Bits.to_string sigs))
  in
  let rows = Array.make k 0 in
  let rec scan depth =
    if Int.equal depth k then begin
      let sigs =
        Array.init (k - 1) (fun i ->
            Tsig.of_ktuples omegas.(i)
              [| Relation.row relations.(i) rows.(i);
                 Relation.row relations.(i + 1) rows.(i + 1) |])
      in
      let key = key sigs in
      match H.find_opt acc key with
      | Some (s, c, r) -> H.replace acc key (s, c + 1, r)
      | None -> H.replace acc key (sigs, 1, Array.copy rows)
    end
    else
      for i = 0 to Relation.cardinality relations.(depth) - 1 do
        rows.(depth) <- i;
        scan (depth + 1)
      done
  in
  scan 0;
  let combos =
    H.fold
      (fun _ (signatures, count, rep) l -> { signatures; count; rep } :: l)
      acc []
    |> List.sort (fun a b ->
           (* Deterministic order on representatives (int arrays of equal
              length k): lexicographic. *)
           let rec go i =
             if i >= Array.length a.rep then 0
             else
               let c = Int.compare a.rep.(i) b.rep.(i) in
               if c <> 0 then c else go (i + 1)
           in
           go 0)
    |> Array.of_list
  in
  { relations; omegas; combos }

(* Does a predicate vector select a signature vector? *)
let selects thetas signatures =
  let n = Array.length thetas in
  let rec go i = i >= n || (Bits.subset thetas.(i) signatures.(i) && go (i + 1)) in
  go 0

(* ------------------------------ state ------------------------------ *)

exception Inconsistent of { combo_id : int; label : Sample.label }

type state = {
  path : t;
  mutable tpos : Bits.t array;  (* per-edge T(S+) *)
  mutable negs : Bits.t array list;  (* signature vectors of negatives *)
  labels : Sample.label option array;
  mutable history : (int * Sample.label) list;
}

let create path =
  {
    path;
    tpos = Array.map Omega.full path.omegas;
    negs = [];
    labels = Array.make (n_combos path) None;
    history = [];
  }

let certain_pos_vec ~tpos signatures =
  let n = Array.length tpos in
  let rec go i = i >= n || (Bits.subset tpos.(i) signatures.(i) && go (i + 1)) in
  go 0

let certain_neg_vec ~tpos ~negs signatures =
  let n = Array.length tpos in
  let dominated neg =
    let rec go i =
      i >= n || (Bits.subset (Bits.inter tpos.(i) signatures.(i)) neg.(i) && go (i + 1))
    in
    go 0
  in
  List.exists dominated negs

let certain_label_vec ~tpos ~negs signatures =
  if certain_pos_vec ~tpos signatures then Some Sample.Positive
  else if certain_neg_vec ~tpos ~negs signatures then Some Sample.Negative
  else None

let certain_label st i =
  certain_label_vec ~tpos:st.tpos ~negs:st.negs st.path.combos.(i).signatures

let informative st i = certain_label st i = None

let informative_combos st =
  List.filter (informative st) (List.init (n_combos st.path) Fun.id)

let label st i lbl =
  (match certain_label st i with
  | Some certain when not (Sample.equal_label certain lbl) ->
      raise (Inconsistent { combo_id = i; label = lbl })
  | _ -> ());
  let sigs = st.path.combos.(i).signatures in
  (match lbl with
  | Sample.Positive -> st.tpos <- Array.map2 Bits.inter st.tpos sigs
  | Sample.Negative -> st.negs <- Array.copy sigs :: st.negs);
  st.labels.(i) <- Some lbl;
  st.history <- (i, lbl) :: st.history

let n_interactions st = List.length st.history

(* The inferred predicate vector: per-edge T(S+). *)
let inferred st = Array.copy st.tpos

(* Instance equivalence over the path: two vectors select the same combos. *)
let equivalent path a b =
  Array.for_all
    (fun c -> Bool.equal (selects a c.signatures) (selects b c.signatures))
    path.combos

(* ---------------------------- strategies --------------------------- *)

type strategy = { name : string; choose : state -> int option }

let total_size sigs = Array.fold_left (fun acc s -> acc + Bits.cardinal s) 0 sigs

let min_by f = function
  | [] -> None
  | x :: xs ->
      Some
        (fst
           (List.fold_left
              (fun (bx, bv) y ->
                let v = f y in
                if v < bv then (y, v) else (bx, bv))
              (x, f x) xs))

(* BU: informative combo with the smallest total signature size. *)
let bu =
  {
    name = "BU";
    choose =
      (fun st ->
        min_by (fun i -> total_size st.path.combos.(i).signatures)
          (informative_combos st));
  }

(* TD: while no positive example exists, ask about combos whose signature
   vector is componentwise ⊆-maximal; afterwards BU. *)
let td =
  {
    name = "TD";
    choose =
      (fun st ->
        let has_positive =
          List.exists (fun (_, l) -> l = Sample.Positive) st.history
        in
        if has_positive then bu.choose st
        else begin
          let dominated a b =
            (* a strictly below b, componentwise *)
            let n = Array.length a in
            let rec le i = i >= n || (Bits.subset a.(i) b.(i) && le (i + 1)) in
            le 0
            && not (Array.for_all2 Bits.equal a b)
          in
          let all = Array.to_list (Array.map (fun c -> c.signatures) st.path.combos) in
          let is_maximal sigs = not (List.exists (dominated sigs) all) in
          match
            List.filter
              (fun i -> is_maximal st.path.combos.(i).signatures)
              (informative_combos st)
          with
          | [] -> bu.choose st
          | i :: _ -> Some i
        end);
  }

let rnd prng =
  {
    name = "RND";
    choose =
      (fun st ->
        match informative_combos st with
        | [] -> None
        | is -> Some (Prng.pick_list prng is));
  }

(* L1S: one-step lookahead on the combo quotient — the same skyline rule
   as Algorithm 4, with u± counted by the path certainty tests. *)
let l1s =
  {
    name = "L1S";
    choose =
      (fun st ->
        match informative_combos st with
        | [] -> None
        | is ->
            let count_certain ~tpos ~negs ids =
              List.fold_left
                (fun acc i ->
                  if
                    certain_label_vec ~tpos ~negs st.path.combos.(i).signatures
                    <> None
                  then acc + st.path.combos.(i).count
                  else acc)
                0 ids
            in
            let entropy i =
              let sigs = st.path.combos.(i).signatures in
              let u_pos =
                count_certain ~tpos:(Array.map2 Bits.inter st.tpos sigs)
                  ~negs:st.negs is
                - 1
              in
              let u_neg =
                count_certain ~tpos:st.tpos ~negs:(sigs :: st.negs) is - 1
              in
              Jqi_core.Entropy.make u_pos u_neg
            in
            let scored = List.map (fun i -> (i, entropy i)) is in
            Option.bind
              (Jqi_core.Entropy.best (List.map snd scored))
              (fun e ->
                List.find_map
                  (fun (i, ei) ->
                    if Jqi_core.Entropy.equal ei e then Some i else None)
                  scored));
  }

(* ---------------------------- inference ---------------------------- *)

type oracle = state -> int -> Sample.label

let honest_oracle ~goal : oracle =
  fun st i ->
    if selects goal st.path.combos.(i).signatures then Sample.Positive
    else Sample.Negative

type result = {
  strategy : string;
  predicates : Bits.t array;
  n_interactions : int;
  steps : (int * Sample.label) list;
  elapsed : float;
}

let run ?max_interactions path strategy (oracle : oracle) =
  let st = create path in
  let budget n =
    match max_interactions with None -> true | Some b -> n < b
  in
  let t0 = Jqi_util.Timer.now () in
  let rec loop n =
    if budget n then
      match strategy.choose st with
      | None -> ()
      | Some i ->
          label st i (oracle st i);
          loop (n + 1)
  in
  loop 0;
  {
    strategy = strategy.name;
    predicates = inferred st;
    n_interactions = n_interactions st;
    steps = List.rev st.history;
    elapsed = Jqi_util.Timer.now () -. t0;
  }

let verified path ~goal result = equivalent path goal result.predicates

let pp_predicates path ppf preds =
  Fmt.pf ppf "%a"
    (Fmt.list ~sep:(Fmt.any " ; ") (fun ppf (i, theta) ->
         Fmt.pf ppf "%s⋈%s: %a"
           (Relation.name path.relations.(i))
           (Relation.name path.relations.(i + 1))
           (Omega.pp_pred path.omegas.(i))
           theta))
    (List.mapi (fun i theta -> (i, theta)) (Array.to_list preds))
