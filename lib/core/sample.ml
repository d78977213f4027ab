(* Samples: sets of labeled examples over the Cartesian product (§3).

   An example is a tuple of D = R × P together with a label; this module is
   the tuple-level view used by the public API and by consistency checking.
   The inference engine itself works on the signature-quotient ([State]). *)

module Bits = Jqi_util.Bits
module Relation = Jqi_relational.Relation

type label = Positive | Negative

let label_of_bool b = if b then Positive else Negative
let bool_of_label = function Positive -> true | Negative -> false
let equal_label a b = Bool.equal (bool_of_label a) (bool_of_label b)

let pp_label ppf = function
  | Positive -> Fmt.string ppf "+"
  | Negative -> Fmt.string ppf "-"

(* Examples address tuples of D by their row-index pair. *)
type example = { tuple : int * int; label : label }

type t = { examples : example list }

let empty = { examples = [] }

let add t ~tuple ~label =
  if
    List.exists
      (fun e -> e.tuple = tuple && e.label <> label)
      t.examples
  then invalid_arg "Sample.add: tuple already labeled with the opposite label";
  if List.exists (fun e -> e.tuple = tuple) t.examples then t
  else { examples = { tuple; label } :: t.examples }

let of_list l =
  List.fold_left (fun s (tuple, label) -> add s ~tuple ~label) empty l

let examples t = List.rev t.examples
let size t = List.length t.examples
let positives t = List.filter_map (fun e -> if e.label = Positive then Some e.tuple else None) t.examples
let negatives t = List.filter_map (fun e -> if e.label = Negative then Some e.tuple else None) t.examples

let signature_of_tuple omega r p (i, j) =
  Tsig.of_ktuples omega [| Relation.row r i; Relation.row p j |]

(* T(S+): the most specific predicate selecting all positive examples
   (Ω when S+ is empty, cf. §3.3). *)
let most_specific omega r p t =
  Tsig.of_signatures omega
    (List.map (signature_of_tuple omega r p) (positives t))

(* §3.1: S is consistent iff R ⋈_{T(S+)} P selects no negative example,
   i.e. iff T(S+) ⊄ T(t') for every negative t'. *)
let consistent omega r p t =
  let tpos = most_specific omega r p t in
  List.for_all
    (fun tup -> not (Tsig.selects tpos (signature_of_tuple omega r p tup)))
    (negatives t)

(* A predicate θ is consistent with S iff it selects all positives and no
   negative (the definition, used as a reference in tests). *)
let predicate_consistent omega r p t theta =
  List.for_all
    (fun tup -> Tsig.selects theta (signature_of_tuple omega r p tup))
    (positives t)
  && List.for_all
       (fun tup -> not (Tsig.selects theta (signature_of_tuple omega r p tup)))
       (negatives t)
