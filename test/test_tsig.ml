(* T-signatures: Figure 3 of the paper as a golden test, plus edge cases. *)

open Fixtures
module Bits = Jqi_util.Bits
module Value = Jqi_relational.Value
module Tuple = Jqi_relational.Tuple
module Relation = Jqi_relational.Relation
module Omega = Jqi_core.Omega
module Tsig = Jqi_core.Tsig

let check_sig = Alcotest.check bits_testable

let sig_of (i, j) =
  Tsig.of_ktuples omega0 [| Relation.row r0 (i - 1); Relation.row p0 (j - 1) |]

let test_figure3 () =
  List.iter
    (fun (ij, pairs) ->
      let expected = pred0 pairs in
      check_sig
        (Printf.sprintf "T(t%d,t'%d)" (fst ij) (snd ij))
        expected (sig_of ij))
    figure3

let test_t_of_empty_set_is_omega () =
  check_sig "T(∅) = Ω" (Omega.full omega0) (Tsig.of_signatures omega0 [])

let test_t_of_set_is_intersection () =
  (* T({(t2,t'2),(t4,t'1)}) = {(A1,B1),(A2,B3)} ∩ {(A1,B1),(A1,B2),(A2,B3)},
     the θ0 of Example 3.1. *)
  let s = Tsig.of_signatures omega0 [ sig_of (2, 2); sig_of (4, 1) ] in
  check_sig "θ0" (pred0 [ (0, 0); (1, 2) ]) s

let test_null_never_matches () =
  let omega = Omega.create ~n:2 ~m:2 () in
  let tr = Tuple.of_list [ Value.Null; Value.Int 1 ] in
  let tp = Tuple.of_list [ Value.Null; Value.Int 1 ] in
  let s = Tsig.of_ktuples omega [| tr; tp |] in
  (* NULL=NULL and NULL=1 contribute nothing; only 1=1 matches. *)
  check_sig "null sig" (Omega.of_pairs omega [ (1, 1) ]) s

let test_selects () =
  let s = sig_of (1, 1) in
  Alcotest.(check bool) "empty selects" true (Tsig.selects (Omega.empty omega0) s);
  Alcotest.(check bool) "subset selects" true
    (Tsig.selects (pred0 [ (1, 0) ]) s);
  Alcotest.(check bool) "non-subset rejects" false
    (Tsig.selects (pred0 [ (0, 0) ]) s)

let test_cross_type_no_match () =
  let omega = Omega.create ~n:1 ~m:2 () in
  let tr = Tuple.of_list [ Value.Int 1 ] in
  let tp = Tuple.of_list [ Value.Float 1.0; Value.Str "1" ] in
  check_sig "int vs float/string" (Omega.empty omega)
    (Tsig.of_ktuples omega [| tr; tp |])

let suite =
  [
    Alcotest.test_case "figure 3 T column" `Quick test_figure3;
    Alcotest.test_case "T of empty set is Omega" `Quick test_t_of_empty_set_is_omega;
    Alcotest.test_case "T of set intersects" `Quick test_t_of_set_is_intersection;
    Alcotest.test_case "null never matches" `Quick test_null_never_matches;
    Alcotest.test_case "selects = subset" `Quick test_selects;
    Alcotest.test_case "cross-type equality is false" `Quick test_cross_type_no_match;
  ]
