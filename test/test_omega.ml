(* Ω indexing: the bijection between bit positions and attribute pairs. *)

module Omega = Jqi_core.Omega
module Bits = Jqi_util.Bits

let omega = Omega.create ~n:3 ~m:4 ()

let test_width () =
  Alcotest.(check int) "width" 12 (Omega.width omega);
  Alcotest.(check int) "left" 3 (Omega.arity_at omega 0);
  Alcotest.(check int) "right" 4 (Omega.arity_at omega 1)

let test_bijection () =
  for k = 0 to Omega.width omega - 1 do
    let i, j = Omega.pair omega k in
    Alcotest.(check int) "roundtrip" k (Omega.index omega i j)
  done;
  (* All (i,j) map to distinct indices. *)
  let seen = Hashtbl.create 12 in
  for i = 0 to 2 do
    for j = 0 to 3 do
      let k = Omega.index omega i j in
      Alcotest.(check bool) "fresh" false (Hashtbl.mem seen k);
      Hashtbl.add seen k ()
    done
  done

let test_bounds () =
  Alcotest.(check bool) "index out of range raises" true
    (try ignore (Omega.index omega 3 0); false with Invalid_argument _ -> true);
  Alcotest.(check bool) "pair out of range raises" true
    (try ignore (Omega.pair omega 12); false with Invalid_argument _ -> true);
  Alcotest.(check bool) "zero arity rejected" true
    (try ignore (Omega.create ~n:0 ~m:1 ()); false with Invalid_argument _ -> true)

let test_pairs_roundtrip () =
  let pred = Omega.of_pairs omega [ (0, 3); (2, 1) ] in
  Alcotest.(check (list (pair int int))) "to_pairs" [ (0, 3); (2, 1) ]
    (Omega.to_pairs omega pred);
  Alcotest.(check int) "cardinal" 2 (Bits.cardinal pred)

let test_names () =
  let o =
    Omega.create ~r_names:[| "x"; "y" |] ~p_names:[| "u" |] ~n:2 ~m:1 ()
  in
  Alcotest.(check string) "r_name" "y" (Omega.r_name o 1);
  Alcotest.(check string) "p_name" "u" (Omega.p_name o 0);
  let pred = Omega.of_names o [ ("y", "u") ] in
  Alcotest.(check (list (pair int int))) "resolved" [ (1, 0) ] (Omega.to_pairs o pred);
  Alcotest.(check string) "pp" "{(y,u)}" (Omega.pred_to_string o pred);
  Alcotest.(check string) "pp empty" "{}" (Omega.pred_to_string o (Omega.empty o));
  Alcotest.(check bool) "unknown name raises" true
    (try ignore (Omega.of_names o [ ("z", "u") ]); false
     with Invalid_argument _ -> true)

let test_default_names () =
  (* Default names follow the paper: A1..An and B1..Bm, 1-based. *)
  Alcotest.(check string) "A1" "A1" (Omega.r_name omega 0);
  Alcotest.(check string) "B4" "B4" (Omega.p_name omega 3)

let test_all_predicates_count () =
  let o = Omega.create ~n:1 ~m:3 () in
  Alcotest.(check int) "2^3" 8 (List.length (Omega.all_predicates o))

let suite =
  [
    Alcotest.test_case "width/arities" `Quick test_width;
    Alcotest.test_case "index bijection" `Quick test_bijection;
    Alcotest.test_case "bounds" `Quick test_bounds;
    Alcotest.test_case "pairs roundtrip" `Quick test_pairs_roundtrip;
    Alcotest.test_case "named attributes" `Quick test_names;
    Alcotest.test_case "default names" `Quick test_default_names;
    Alcotest.test_case "all_predicates count" `Quick test_all_predicates_count;
  ]
