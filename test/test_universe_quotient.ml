(* Differential suite for the profile-quotient universe construction:
   [Universe.build_kary] on two relations (the profile-pair scan) must
   reproduce the reference per-pair scan [Universe.build_naive] and the
   k-way scan [Universe.build_kary_naive] exactly — classes,
   counts, representatives and join ratio — on random instances including
   NULL-heavy, duplicate-heavy, NaN-bearing, single-row and all-NULL-column
   ones.  Plus unit coverage of the value dictionary ([Dict]): NULL and NaN
   are never coded, types never share codes, and IEEE zero equality is
   honoured. *)

module Bits = Jqi_util.Bits
module Value = Jqi_relational.Value
module Schema = Jqi_relational.Schema
module Tuple = Jqi_relational.Tuple
module Relation = Jqi_relational.Relation
module Dict = Jqi_relational.Dict
module Omega = Jqi_core.Omega
module Universe = Jqi_core.Universe
module Tsig = Jqi_core.Tsig

(* Full structural agreement of two universes; returns false (rather than
   raising) so it can sit inside qcheck properties. *)
let universes_agree u1 u2 =
  Int.equal (Universe.n_classes u1) (Universe.n_classes u2)
  && Int.equal (Universe.total_tuples u1) (Universe.total_tuples u2)
  && Float.equal (Universe.join_ratio u1) (Universe.join_ratio u2)
  &&
  let rec go i =
    i >= Universe.n_classes u1
    || Bits.equal (Universe.signature u1 i) (Universe.signature u2 i)
       && Int.equal (Universe.count u1 i) (Universe.count u2 i)
       && (let rep1 = (Universe.cls u1 i).Universe.rep
           and rep2 = (Universe.cls u2 i).Universe.rep in
           Int.equal rep1.(0) rep2.(0) && Int.equal rep1.(1) rep2.(1))
       && go (i + 1)
  in
  go 0

let check_agree label u1 u2 =
  Alcotest.(check bool) label true (universes_agree u1 u2)

let relation_of name prefix rows =
  let arity = Tuple.arity (List.hd rows) in
  Relation.of_list ~name
    ~schema:
      (Schema.of_names ~ty:Value.TInt
         (List.init arity (fun i -> Printf.sprintf "%s%d" prefix i)))
    rows

let all_builders r p =
  ( Universe.build_naive r p,
    Universe.build_kary [ r; p ],
    Universe.build_kary_naive [ r; p ] )

(* ------------------------- deterministic edges -------------------- *)

let test_single_row () =
  let r = relation_of "r" "a" [ Tuple.ints [ 7; 7 ] ] in
  let p = relation_of "p" "b" [ Tuple.ints [ 7 ] ] in
  let n, q, kn = all_builders r p in
  check_agree "quotient = naive" n q;
  check_agree "k-ary naive = naive" n kn;
  Alcotest.(check int) "one class" 1 (Universe.n_classes q)

let test_all_null_column () =
  (* A column of NULLs matches nothing: it must not contribute bits, and
     rows differing only in other columns' NULLs still group correctly. *)
  let null_row v = Tuple.of_list [ Value.Null; Value.Int v ] in
  let r = relation_of "r" "a" [ null_row 1; null_row 1; null_row 2 ] in
  let p =
    relation_of "p" "b"
      [ Tuple.of_list [ Value.Int 1 ]; Tuple.of_list [ Value.Null ] ]
  in
  let n, q, kn = all_builders r p in
  check_agree "quotient = naive" n q;
  check_agree "k-ary naive = naive" n kn;
  Alcotest.(check int) "|D| preserved" 6 (Universe.total_tuples q)

let test_duplicate_heavy () =
  (* Three distinct rows repeated many times: the quotient sees 3 × 2
     profile pairs for a 36-pair product, and multiplicities must land on
     the same classes the scan finds. *)
  let reps = List.concat_map (fun v -> [ v; v; v; v ]) [ [ 1; 2 ]; [ 2; 1 ]; [ 1; 1 ] ] in
  let r = relation_of "r" "a" (List.map Tuple.ints reps) in
  let p = relation_of "p" "b" (List.map Tuple.ints [ [ 1 ]; [ 1 ]; [ 2 ] ]) in
  let n, q, kn = all_builders r p in
  check_agree "quotient = naive" n q;
  check_agree "k-ary naive = naive" n kn;
  Alcotest.(check int) "|D| = 36" 36 (Universe.total_tuples q)

let test_nan_never_matches () =
  (* NaN behaves like NULL under Value.eq; the dictionary must not give it
     a code (an interned NaN could never be found again, leaking fresh
     codes), and the quotient must agree with the scan. *)
  let fr v = Tuple.of_list [ Value.Float v ] in
  let r = relation_of "r" "a" [ fr Float.nan; fr 1.0; fr Float.nan ] in
  let p = relation_of "p" "b" [ fr Float.nan; fr 1.0 ] in
  let n, q, kn = all_builders r p in
  check_agree "quotient = naive" n q;
  check_agree "k-ary naive = naive" n kn;
  (* Exactly one matching pair: 1.0 with 1.0. *)
  let matching = Omega.of_pairs (Universe.omega q) [ (0, 0) ] in
  match Universe.find_class q matching with
  | None -> Alcotest.fail "expected the 1.0 = 1.0 class"
  | Some i -> Alcotest.(check int) "one matching pair" 1 (Universe.count q i)

let test_mixed_zero () =
  (* IEEE: 0.0 = -0.0, so they must share a dictionary code and join. *)
  let fr v = Tuple.of_list [ Value.Float v ] in
  let r = relation_of "r" "a" [ fr 0.0 ] in
  let p = relation_of "p" "b" [ fr (-0.0) ] in
  let n, q, _ = all_builders r p in
  check_agree "quotient = naive" n q;
  Alcotest.(check int) "0.0 joins -0.0" 1
    (List.length
       (Universe.selected_classes q (Omega.of_pairs (Universe.omega q) [ (0, 0) ])))

(* ------------------------- qcheck differential -------------------- *)

(* Mixed-type cells over small pools so duplicates, NULLs, NaNs and
   cross-type near-collisions (Int 1 vs Float 1. vs Str "1") all occur. *)
let gen_cell =
  QCheck.Gen.(
    frequency
      [
        (5, map (fun i -> Value.Int i) (int_bound 3));
        (2, return Value.Null);
        (1, map (fun b -> Value.Bool b) bool);
        (1, map (fun i -> Value.Float (float_of_int i)) (int_bound 2));
        (1, return (Value.Float Float.nan));
        (1, map (fun i -> Value.Str (String.make 1 (Char.chr (49 + i)))) (int_bound 2));
      ])

let gen_instance =
  QCheck.Gen.(
    let row arity = map Tuple.of_list (list_repeat arity gen_cell) in
    let* ra = int_range 1 3 and* pa = int_range 1 3 in
    (* Draw rows from a small pool so profiles repeat (the duplicate-heavy
       regime the quotient exploits), but keep fully random instances in
       the mix too. *)
    let rows_of arity =
      let* dup = bool in
      if dup then
        let* pool = list_size (int_range 1 3) (row arity) in
        list_size (int_range 1 12) (oneofl pool)
      else list_size (int_range 1 10) (row arity)
    in
    let* rrows = rows_of ra and* prows = rows_of pa in
    return (rrows, prows))

let qcheck_quotient_equals_naive =
  QCheck.Test.make ~name:"build_quotient = build_naive = build_kary_naive"
    ~count:400 (QCheck.make gen_instance)
    (fun (rrows, prows) ->
      let r = relation_of "r" "a" rrows and p = relation_of "p" "b" prows in
      let n, q, kn = all_builders r p in
      universes_agree n q && universes_agree n kn)

let qcheck_signatures_match_reps =
  QCheck.Test.make ~name:"quotient class signatures = T(representative)"
    ~count:200 (QCheck.make gen_instance)
    (fun (rrows, prows) ->
      let r = relation_of "r" "a" rrows and p = relation_of "p" "b" prows in
      let u = Universe.build r p in
      let omega = Universe.omega u in
      let rec go i =
        i >= Universe.n_classes u
        ||
        let rep = (Universe.cls u i).Universe.rep in
        Bits.equal (Universe.signature u i)
          (Tsig.of_ktuples omega [| Relation.row r rep.(0); Relation.row p rep.(1) |])
        && go (i + 1)
      in
      go 0)

(* ------------------------- sampled determinism -------------------- *)

let test_sampled_reps_deterministic () =
  (* ISSUE 4 satellite: [build_sampled] must pick the lexicographically
     smallest representative among the sampled members of a class, so a
     sample that (with overwhelming probability) covers the whole 3×3
     product reproduces [build] exactly — for every seed, i.e. regardless
     of PRNG draw order.  The old keep-first-drawn rule made reps depend
     on the seed and fail this.  Counts are sample frequencies (not true
     multiplicities), so only classes and representatives are compared. *)
  let r = relation_of "r" "a" (List.map Tuple.ints [ [ 1 ]; [ 1 ]; [ 2 ] ]) in
  let p = relation_of "p" "b" (List.map Tuple.ints [ [ 1 ]; [ 2 ]; [ 1 ] ]) in
  let reference = Universe.build r p in
  List.iter
    (fun seed ->
      let sampled =
        Universe.build_sampled (Jqi_util.Prng.create seed) ~tuples:3000 [ r; p ]
      in
      let label fmt =
        Printf.ksprintf (fun s -> Printf.sprintf "seed %d: %s" seed s) fmt
      in
      Alcotest.(check int)
        (label "classes")
        (Universe.n_classes reference)
        (Universe.n_classes sampled);
      for i = 0 to Universe.n_classes reference - 1 do
        Alcotest.(check bool)
          (label "signature %d" i)
          true
          (Bits.equal (Universe.signature reference i)
             (Universe.signature sampled i));
        Alcotest.(check (array int))
          (label "rep %d" i)
          (Universe.cls reference i).Universe.rep
          (Universe.cls sampled i).Universe.rep
      done)
    [ 1; 2; 3; 4; 5 ]

(* ------------------------- dict unit suite ------------------------ *)

let test_dict_null_nan_uncoded () =
  let d = Dict.create () in
  Alcotest.(check int) "NULL uncoded" Dict.no_code (Dict.code d Value.Null);
  Alcotest.(check int) "NaN uncoded" Dict.no_code
    (Dict.code d (Value.Float Float.nan));
  Alcotest.(check int) "nothing interned" 0 (Dict.size d);
  Alcotest.(check bool) "NULL not codable" false (Dict.codable Value.Null);
  Alcotest.(check bool) "NaN not codable" false
    (Dict.codable (Value.Float Float.nan))

let test_dict_codes_follow_eq () =
  let d = Dict.create () in
  let c1 = Dict.code d (Value.Int 1) in
  Alcotest.(check int) "stable code" c1 (Dict.code d (Value.Int 1));
  (* Cross-type: Int 1, Float 1., Str "1", Bool true never share codes,
     exactly as Value.eq never crosses types. *)
  let codes =
    List.map (Dict.code d)
      [ Value.Int 1; Value.Float 1.0; Value.Str "1"; Value.Bool true ]
  in
  let distinct = List.sort_uniq Int.compare codes in
  Alcotest.(check int) "four distinct codes" 4 (List.length distinct);
  Alcotest.(check int) "four values interned" 4 (Dict.size d);
  (* IEEE zero: 0.0 and -0.0 are join-equal, one code. *)
  Alcotest.(check int) "0.0 = -0.0"
    (Dict.code d (Value.Float 0.0))
    (Dict.code d (Value.Float (-0.0)))

let test_dict_find_read_only () =
  let d = Dict.create () in
  Alcotest.(check int) "find before intern" Dict.no_code
    (Dict.find d (Value.Str "x"));
  Alcotest.(check int) "find did not intern" 0 (Dict.size d);
  let c = Dict.code d (Value.Str "x") in
  Alcotest.(check int) "find after intern" c (Dict.find d (Value.Str "x"))

let test_dict_encoding () =
  let d = Dict.create () in
  let rel =
    relation_of "r" "a"
      [
        Tuple.of_list [ Value.Int 1; Value.Null ];
        Tuple.of_list [ Value.Int 2; Value.Int 1 ];
      ]
  in
  let rows = Dict.encode_rows d rel in
  Alcotest.(check int) "row-major shape" 2 (Array.length rows);
  Alcotest.(check int) "null slot" Dict.no_code rows.(0).(1);
  Alcotest.(check int) "shared code space" rows.(0).(0) rows.(1).(1);
  let col0 = Dict.encode_column d rel 0 in
  Alcotest.(check (array int)) "column agrees with rows"
    [| rows.(0).(0); rows.(1).(0) |]
    col0;
  Alcotest.(check bool) "bad column raises" true
    (try ignore (Dict.encode_column d rel 9); false
     with Invalid_argument _ -> true)

let test_of_kcodes_matches_of_ktuples () =
  let d = Dict.create () in
  let tr = Tuple.of_list [ Value.Int 1; Value.Null; Value.Str "x" ] in
  let tp = Tuple.of_list [ Value.Str "x"; Value.Int 1 ] in
  let omega = Omega.create ~n:3 ~m:2 () in
  let cr = Dict.encode_row d tr and cp = Dict.encode_row d tp in
  let expected = Omega.of_pairs omega [ (0, 1); (2, 0) ] in
  Alcotest.(check bool) "of_ktuples on two relations" true
    (Bits.equal expected (Tsig.of_ktuples omega [| tr; tp |]));
  Alcotest.(check bool) "of_kcodes = of_ktuples" true
    (Bits.equal expected (Tsig.of_kcodes omega [| cr; cp |]));
  Alcotest.(check bool) "of_block = of_kcodes on the one block" true
    (Bits.equal expected (Tsig.of_block omega 0 1 cr cp));
  let raises f = try ignore (f ()); false with Invalid_argument _ -> true in
  Alcotest.(check bool) "arity mismatch raises" true
    (raises (fun () -> Tsig.of_kcodes omega [| cr; [| 0 |] |]));
  Alcotest.(check bool) "block arity mismatch raises" true
    (raises (fun () -> Tsig.of_block omega 0 1 cr [| 0 |]));
  Alcotest.(check bool) "relation count mismatch raises" true
    (raises (fun () -> Tsig.of_kcodes omega [| cr |]))

let suite =
  [
    Alcotest.test_case "single row" `Quick test_single_row;
    Alcotest.test_case "all-NULL column" `Quick test_all_null_column;
    Alcotest.test_case "duplicate-heavy" `Quick test_duplicate_heavy;
    Alcotest.test_case "NaN never matches" `Quick test_nan_never_matches;
    Alcotest.test_case "IEEE zeros join" `Quick test_mixed_zero;
    Alcotest.test_case "sampled reps are draw-order independent" `Quick
      test_sampled_reps_deterministic;
    Alcotest.test_case "dict: NULL/NaN uncoded" `Quick test_dict_null_nan_uncoded;
    Alcotest.test_case "dict: codes follow Value.eq" `Quick
      test_dict_codes_follow_eq;
    Alcotest.test_case "dict: find is read-only" `Quick test_dict_find_read_only;
    Alcotest.test_case "dict: row/column encoding" `Quick test_dict_encoding;
    Alcotest.test_case "tsig: of_kcodes = of_ktuples" `Quick
      test_of_kcodes_matches_of_ktuples;
  ]
  @ List.map QCheck_alcotest.to_alcotest
      [ qcheck_quotient_equals_naive; qcheck_signatures_match_reps ]
