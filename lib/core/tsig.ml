(* The most specific join predicate selecting a tuple:

     T(t) = { (A_i, B_j) | tR[A_i] = tP[B_j] }

   extended to sets by intersection: T(U) = ∩_{t∈U} T(t).  T is the
   elementary tool of the whole inference machinery (§3): θ selects t iff
   θ ⊆ T(t), so every question about C(S) reduces to subset tests between
   T-signatures.  On k relations a tuple carries one row per relation and
   T has a bit for every cross-relation attribute pair that matches; the
   paper's binary T is the case k = 2. *)

module Bits = Jqi_util.Bits
module Value = Jqi_relational.Value
module Tuple = Jqi_relational.Tuple

(* The one code-compare kernel: mark through [set] every bit of the
   block at [base] whose codes match.  Codes replicate [Value.eq] (equal
   code ⟺ join-match; NULL/NaN carry a negative sentinel no code
   equals), so the guard on the left code alone suffices: a negative
   right code can never equal a non-negative left one. *)
let mark_block set base ci cj =
  let m = Array.length cj in
  for a = 0 to Array.length ci - 1 do
    let c = ci.(a) in
    if c >= 0 then
      for b = 0 to m - 1 do
        if Int.equal c cj.(b) then set (base + (a * m) + b)
      done
  done

let bad_codes () = invalid_arg "Tsig: code vectors must match the arities of Omega"

(* Staged: the block's offset and arities are looked up once, when the
   walk over a universe prepares its per-block kernels, and each call
   then costs two length checks. *)
let of_block omega i j =
  let base = Omega.block_offset omega i j in
  let ni = Omega.arity_at omega i and nj = Omega.arity_at omega j in
  let width = Omega.width omega in
  fun ci cj ->
    if not (Int.equal (Array.length ci) ni && Int.equal (Array.length cj) nj) then
      bad_codes ();
    Bits.build width (fun set -> mark_block set base ci cj)

let of_kcodes omega codes =
  let k = Omega.n_relations omega in
  if not (Int.equal (Array.length codes) k) then
    invalid_arg "Tsig.of_kcodes: need one code vector per relation";
  Array.iteri
    (fun i c ->
      if not (Int.equal (Array.length c) (Omega.arity_at omega i)) then bad_codes ())
    codes;
  Bits.build (Omega.width omega) (fun set ->
      for i = 0 to k - 2 do
        for j = i + 1 to k - 1 do
          mark_block set (Omega.block_offset omega i j) codes.(i) codes.(j)
        done
      done)

let of_ktuples omega tuples =
  let k = Omega.n_relations omega in
  if not (Int.equal (Array.length tuples) k) then
    invalid_arg "Tsig.of_ktuples: need one tuple per relation";
  Bits.build (Omega.width omega) (fun set ->
      for i = 0 to k - 2 do
        let ti = tuples.(i) in
        for j = i + 1 to k - 1 do
          let tj = tuples.(j) in
          let m = Omega.arity_at omega j in
          let base = Omega.block_offset omega i j in
          for a = 0 to Omega.arity_at omega i - 1 do
            let v = Tuple.get ti a in
            if not (Value.is_null v) then
              for b = 0 to m - 1 do
                if Value.eq v (Tuple.get tj b) then set (base + (a * m) + b)
              done
          done
        done
      done)

(* T(U) for a set of signatures; T(∅) = Ω, the identity of intersection,
   which is exactly what §3.3 needs when the user labels no positive
   example. *)
let of_signatures omega sigs =
  List.fold_left Bits.inter (Omega.full omega) sigs

(* [selects theta sig]: does the predicate θ select a tuple with signature
   [sig]?  This single subset test is the semantics of R ⋈_θ P restricted to
   one tuple of the Cartesian product. *)
let selects theta sig_ = Bits.subset theta sig_
