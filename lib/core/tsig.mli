(** The most specific join predicate T (§3).

    T(t) = {(A_i, B_j) | tR[A_i] = tP[B_j]} is the paper's elementary tool:
    a predicate θ selects t iff θ ⊆ T(t), so all version-space reasoning
    reduces to subset tests between T-signatures.  A tuple of
    R_0 × … × R_{k-1} is one row per relation; its signature has a bit
    for every cross-relation attribute pair that matches, in
    {!Omega}'s block layout.  The paper's binary T is k = 2: pass
    [[| tR; tP |]]. *)

(** [of_ktuples omega tuples] is T of one tuple per relation, with
    [Value.eq] semantics: NULL cells never match.  Raises
    [Invalid_argument] on a wrong tuple count. *)
val of_ktuples : Omega.t -> Jqi_relational.Tuple.t array -> Jqi_util.Bits.t

(** [of_kcodes omega codes] is {!of_ktuples} over one
    {!Jqi_relational.Dict} code vector per relation: equal codes are
    join-matches, negative codes (NULL/NaN) match nothing.  Raises
    [Invalid_argument] on a wrong relation count or vector length. *)
val of_kcodes : Omega.t -> int array array -> Jqi_util.Bits.t

(** [of_block omega i j ci cj] is the part of {!of_kcodes} that block
    (i, j), i < j, contributes: the matches between code vector [ci] of
    relation [i] and [cj] of relation [j].  A signature is the union of
    its pairwise blocks, which is how the universe builder composes
    them; [of_block omega i j] checks the block once and can be applied
    to many vector pairs.  Raises [Invalid_argument] on a bad block or
    vector length. *)
val of_block :
  Omega.t -> int -> int -> int array -> int array -> Jqi_util.Bits.t

(** [of_signatures omega sigs] is T(U) = ∩ sigs, and Ω when [sigs] is empty
    (the convention §3.3 needs for samples without positive examples). *)
val of_signatures : Omega.t -> Jqi_util.Bits.t list -> Jqi_util.Bits.t

(** [selects theta sig] iff θ ⊆ T(t) — whether θ selects a tuple with the
    given signature. *)
val selects : Jqi_util.Bits.t -> Jqi_util.Bits.t -> bool
