(* Semijoin queries R ⋉_θ P and their samples (§6).

   Examples now label tuples of R (not of the product): t is positive iff
   some tuple of P joins with it under θ.  Consistency checking CONS⋉ is
   NP-complete (Theorem 6.1); [Cons] decides it by SAT encoding and by
   brute force. *)

module Bits = Jqi_util.Bits
module Relation = Jqi_relational.Relation
module Join = Jqi_relational.Join
module Omega = Jqi_core.Omega
module Tsig = Jqi_core.Tsig

type sample = { pos : int list; neg : int list }  (* row indexes into R *)

let sample ~pos ~neg =
  (match List.find_opt (fun i -> List.mem i neg) pos with
  | Some i ->
      invalid_arg
        (Printf.sprintf "Semijoin.sample: tuple %d labeled both ways" i)
  | None -> ());
  { pos; neg }

(* R ⋉_θ P with θ given as a predicate over Ω. *)
let eval r p omega theta =
  Join.semijoin r p (Omega.to_pairs omega theta)

(* Does θ select row [i] of R?  t ∈ R ⋉_θ P iff ∃t' ∈ P. θ ⊆ T(t,t'). *)
let selects r p omega theta i =
  let tr = Relation.row r i in
  let np = Relation.cardinality p in
  let rec go j =
    j < np
    && (Tsig.selects theta (Tsig.of_ktuples omega [| tr; Relation.row p j |]) || go (j + 1))
  in
  go 0

(* θ is consistent with the sample iff it selects every positive row and no
   negative row. *)
let predicate_consistent r p omega theta s =
  List.for_all (selects r p omega theta) s.pos
  && List.for_all (fun i -> not (selects r p omega theta i)) s.neg
