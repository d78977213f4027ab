(* CONS⋉: does a semijoin predicate consistent with the sample exist?

   NP-complete (Theorem 6.1), so the main decision procedure encodes the
   question into SAT and runs the DPLL solver:

   - one propositional variable x_k per attribute pair k ∈ Ω;
   - a positive example t needs a witness: ∨_{t' ∈ P} ∧_{k ∉ T(t,t')} ¬x_k
     (θ must avoid every pair that t and t' disagree on, for some t');
   - a negative example t must reject every witness: for each t' ∈ P the
     clause ∨_{k ∉ T(t,t')} x_k (θ must contain a pair t and t' disagree
     on).

   A model restricted to the x_k gives a concrete consistent θ.  The
   brute-force procedure enumerates PP(Ω) and exists to cross-validate the
   encoder on small instances. *)

module Bits = Jqi_util.Bits
module Relation = Jqi_relational.Relation
module Omega = Jqi_core.Omega
module Tsig = Jqi_core.Tsig
module Formula = Jqi_sat.Formula
module Dpll = Jqi_sat.Dpll

let encode r p omega (s : Semijoin.sample) =
  let width = Omega.width omega in
  let var_of_pair k = k + 1 in
  let sig_row i j =
    Tsig.of_ktuples omega [| Relation.row r i; Relation.row p j |]
  in
  let np = Relation.cardinality p in
  let positive i =
    let witnesses =
      List.init np (fun j ->
          let t = sig_row i j in
          let forbidden =
            List.filter (fun k -> not (Bits.mem t k)) (List.init width Fun.id)
          in
          Formula.conj
            (List.map (fun k -> Formula.neg (Formula.var (var_of_pair k))) forbidden))
    in
    Formula.disj witnesses
  in
  let negative i =
    let rejections =
      List.init np (fun j ->
          let t = sig_row i j in
          let required =
            List.filter (fun k -> not (Bits.mem t k)) (List.init width Fun.id)
          in
          Formula.disj (List.map (fun k -> Formula.var (var_of_pair k)) required))
    in
    Formula.conj rejections
  in
  Formula.conj (List.map positive s.pos @ List.map negative s.neg)

(* Decide CONS⋉; returns a witness predicate when consistent. *)
let solve r p omega s =
  let f = encode r p omega s in
  match Dpll.solve (Formula.to_cnf ~min_vars:(Omega.width omega) f) with
  | Dpll.Unsat -> None
  | Dpll.Sat model ->
      let width = Omega.width omega in
      let theta = ref (Bits.empty width) in
      for k = 0 to width - 1 do
        if model.(k + 1) then theta := Bits.add !theta k
      done;
      (* The Tseitin model may set irrelevant pairs; the witness is checked
         against the semantics before being returned, as defense in
         depth. *)
      if Semijoin.predicate_consistent r p omega !theta s then Some !theta
      else
        invalid_arg "Cons.solve: internal error — SAT model is not consistent"

let consistent r p omega s = solve r p omega s <> None

(* Exponential reference: try every subset of Ω. *)
let max_brute_width = 20

let solve_brute r p omega s =
  if Omega.width omega > max_brute_width then
    invalid_arg "Cons.solve_brute: Ω too large";
  List.find_opt
    (fun theta -> Semijoin.predicate_consistent r p omega theta s)
    (Omega.all_predicates omega)

let consistent_brute r p omega s = solve_brute r p omega s <> None
