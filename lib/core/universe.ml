(* The quotient of the Cartesian product D = R_0 × … × R_{k-1} by the
   T-signature (k = 2 in the paper; k-ary per ROADMAP item 2).

   Whether a tuple is informative, certain, or selected by any predicate
   depends only on T(t) (Lemmas 3.3/3.4), so two tuples with equal
   signatures are interchangeable for inference.  The engine therefore
   groups D into equivalence classes, each carrying its signature, its
   multiplicity in D and one representative vector of row indexes.  This
   is also the paper's own observation in §5.3 ("if two tuples are
   selected by the same most specific join predicate, then they are
   basically equivalent w.r.t. the inference process") and is what makes
   TPC-H-sized products tractable. *)

module Bits = Jqi_util.Bits
module Obs = Jqi_obs.Obs
module Dict = Jqi_relational.Dict
module Relation = Jqi_relational.Relation
module Vec = Jqi_util.Vec

type cls = { signature : Bits.t; count : int; rep : int array }

(* Carried forward along a chain of [apply_delta] calls so each batch
   pays only for the changed rows: the shared dictionary (append-only —
   codes are never recycled, mirroring [Dict]'s contract) and one code
   vector per row per relation.  Lazily built on the first delta; rows
   of unchanged relations share their arrays across universes. *)
type delta_cache = { dict : Dict.t; codes : int array array array }

type t = {
  omega : Omega.t;
  classes : cls array;
  total : int;  (* |D|; the sum of class multiplicities *)
  relations : Relation.t array option;
  (* Memoized on first use; single-writer like the relations it encodes
     (the server mutates universes only under its catalog shard lock). *)
  mutable cache : delta_cache option;
}

exception Kary_too_large of { work : int; limit : int }

module H = Hashtbl.Make (struct
  type t = Bits.t

  let equal = Bits.equal
  let hash = Bits.hash
end)

(* Lexicographically smaller of two same-length representative vectors —
   the deterministic merge rule every builder shares. *)
let rep_min a b =
  let rec go i =
    if i >= Array.length a then a
    else if a.(i) < b.(i) then a
    else if a.(i) > b.(i) then b
    else go (i + 1)
  in
  go 0

let of_ksignature_list ?relations omega sigs =
  let k = Omega.n_relations omega in
  (match relations with
  | Some rels ->
      if not (Int.equal (Array.length rels) k) then
        invalid_arg "Universe: need one relation per Omega relation"
  | None -> ());
  let acc = H.create 64 in
  List.iter
    (fun (signature, count, rep) ->
      if count <= 0 then invalid_arg "Universe: class multiplicity must be positive";
      if not (Int.equal (Array.length rep) k) then
        invalid_arg "Universe: representative must have one row index per relation";
      match H.find_opt acc signature with
      | Some (c, r) -> H.replace acc signature (c + count, r)
      | None -> H.replace acc signature (count, rep))
    sigs;
  let classes =
    H.fold (fun signature (count, rep) l -> { signature; count; rep } :: l) acc []
    |> List.sort (fun a b -> Bits.compare a.signature b.signature)
    |> Array.of_list
  in
  let total = Array.fold_left (fun s c -> s + c.count) 0 classes in
  { omega; classes; total; relations; cache = None }

(* Every built universe shares one Ω constructor: the k-ary layout over
   the relations' own names.  On k = 2 its single block sits at offset 0,
   so bit positions and the bare-name rendering are the binary ones. *)
let omega_of rels =
  Omega.of_schemas_kary
    (Array.to_list
       (Array.map (fun r -> (Relation.name r, Relation.schema r)) rels))

let check_rels ~entry rels =
  if Array.length rels < 2 then invalid_arg (entry ^ ": need at least two relations");
  Array.iter
    (fun r ->
      if Relation.cardinality r = 0 then
        invalid_arg (entry ^ ": empty Cartesian product"))
    rels

(* The reference per-pair scan: every tuple of R × P gets its own
   [Tsig.of_ktuples] call and bitset.  Kept as the executable definition
   and as the differential oracle for [build_kary] below. *)
let build_naive r p =
  Obs.span "universe.build_naive" @@ fun () ->
  let rels = [| r; p |] in
  check_rels ~entry:"Universe.build" rels;
  let omega = omega_of rels in
  let acc = H.create 256 in
  let nr = Relation.cardinality r and np = Relation.cardinality p in
  for i = 0 to nr - 1 do
    let tr = Relation.row r i in
    for j = 0 to np - 1 do
      let s = Tsig.of_ktuples omega [| tr; Relation.row p j |] in
      match H.find_opt acc s with
      | Some (c, rep) -> H.replace acc s (c + 1, rep)
      | None -> H.replace acc s (1, [| i; j |])
    done
  done;
  of_ksignature_list ~relations:rels omega
    (H.fold (fun s (c, rep) l -> (s, c, rep) :: l) acc [])

(* The reference k-way scan: one [Tsig.of_ktuples] per raw tuple of
   ∏ R_i — the executable definition of the k-ary universe and the
   differential oracle for [build_kary].  Exponential in k; tests and
   benches only. *)
let build_kary_naive rels =
  Obs.span "universe.build_kary_naive" @@ fun () ->
  let rels = Array.of_list rels in
  check_rels ~entry:"Universe.build_kary" rels;
  let k = Array.length rels in
  let omega = omega_of rels in
  let acc = H.create 256 in
  let tuples = Array.make k (Relation.row rels.(0) 0) in
  let rep = Array.make k 0 in
  let rec scan d =
    if Int.equal d k then begin
      let s = Tsig.of_ktuples omega tuples in
      match H.find_opt acc s with
      | Some (c, r) -> H.replace acc s (c + 1, r)
      | None -> H.replace acc s (1, Array.copy rep)
    end
    else
      for i = 0 to Relation.cardinality rels.(d) - 1 do
        tuples.(d) <- Relation.row rels.(d) i;
        rep.(d) <- i;
        scan (d + 1)
      done
  in
  scan 0;
  of_ksignature_list ~relations:rels omega
    (H.fold (fun s (c, r) l -> (s, c, r) :: l) acc [])

(* ---------------- profile-quotient construction ------------------- *)

(* [build_kary] exploits two levels of redundancy the raw scans ignore:

   1. Value dictionary: every cell of every relation is interned into one
      shared dense code space ([Jqi_relational.Dict]) replicating
      [Value.eq], so the signature inner loop compares integers on flat
      arrays instead of tag-dispatching on boxed [Value.t].

   2. Row profiles: two rows with the same code vector produce the same
      signature against *every* partner row combination, so it suffices
      to compute signatures for distinct-profile combinations and add the
      product of the profile multiplicities: ∏|R_i| shrinks to at most
      ∏ d_i where d is the distinct-profile count — orders of magnitude
      on duplicate-heavy (TPC-H-shaped) data.

   The result is identical to the naive scans: same classes and counts by
   construction, and the same representatives because the full-scan rep
   of a class is its lexicographically smallest row vector, which for a
   profile combination — whose members are all combinations of the
   profiles' rows — is the vector of the profiles' first rows; the walk
   below meets those vectors in lexicographic order and keeps the first
   one per signature. *)

module Profile = struct
  type t = int array

  let equal a b =
    Int.equal (Array.length a) (Array.length b)
    &&
    let rec go i = i >= Array.length a || (Int.equal a.(i) b.(i) && go (i + 1)) in
    go 0

  let hash a = Array.fold_left (fun acc c -> (acc * 31) + c + 2) 17 a
end

module PH = Hashtbl.Make (Profile)

type profile = { codes : int array; mutable multiplicity : int; first_row : int }

(* Group [rows] code vectors by value, in first-seen (i.e. ascending
   first-row) order; [first_row] is the smallest row index of the group
   because [iter f] must call [f i codes] in ascending row order.  [iter]
   may reuse its buffer, so a profile's codes are copied on first sight
   only.  Two sources feed it: a streaming [Dict.iter_encoded] pass (the
   builder — a paged relation is grouped directly off its heap-file scan
   under the buffer pool's page budget, so memory is bounded by the
   number of *distinct* profiles, never by the row count) and the
   encoded rows [apply_delta] carries along. *)
let group ~rows iter =
  let tbl = PH.create (max 16 (min 65536 rows)) in
  let order = Vec.create () in
  iter (fun i codes ->
      match PH.find_opt tbl codes with
      | Some prof -> prof.multiplicity <- prof.multiplicity + 1
      | None ->
          let codes = Array.copy codes in
          let prof = { codes; multiplicity = 1; first_row = i } in
          PH.add tbl codes prof;
          Vec.push order prof);
  Vec.to_array order

let group_codes codes = group ~rows:(Array.length codes) (fun f -> Array.iteri f codes)

let c_kary_profiles = Obs.Counter.make "universe.kary_profiles"
let c_kary_work = Obs.Counter.make "universe.kary_work"
let c_kary_collapsed = Obs.Counter.make "universe.kary_collapsed"

(* One class under construction: its multiplicity so far and its
   lexicographically smallest candidate representative. *)
type slot = { mutable n : int; mutable best : int array }

let merge_into acc s count rep =
  match H.find_opt acc s with
  | Some sl ->
      sl.n <- sl.n + count;
      sl.best <- rep_min rep sl.best
  | None -> H.add acc s { n = count; best = rep }

let slots acc = H.fold (fun s sl l -> (s, sl.n, sl.best) :: l) acc []

(* [Bits.union] that shares instead of copying when a side is empty —
   the root signature, and most blocks on keyed data.  Signatures are
   immutable, so sharing is safe. *)
let union a b =
  if Bits.is_empty a then b else if Bits.is_empty b then a else Bits.union a b

(* The enumerator, for every k ≥ 2: a trie walk over distinct-profile
   k-tuples in the leapfrog spirit — relations are levels, profiles are
   keys, and whole subtrees collapse instead of being enumerated.  Two
   collapses apply:

   1. Profile quotient: ∏|R_i| raw tuples shrink to at most ∏ d_i
      distinct-profile combinations, each merged with the product of the
      profile multiplicities.

   2. Disconnected-suffix collapse: walking relations left to right, when
      none of the codes of the profiles chosen so far appears in any
      remaining relation, no further cross bits can be produced — the
      walk folds in the precomputed *suffix universe* (classes of
      R_j × … × R_{k-1} alone) in one step per suffix class rather than
      descending.  Suffix universes are built by the same walk, each on
      the first collapse that needs it, so the construction is at most k
      stages.  On two relations
      this folds every R-profile that shares no code with P into the ∅
      class in one step.

   A signature is the union of its pairwise blocks ([Tsig.of_block]).
   Block signatures are cached per (relation pair, profile pair), so each
   is computed once even though the walk revisits block (i, j) on every
   branch through the relations before i — this is where the "pairwise
   binary composition" reuse lives.  Block (0, 1) is not cached: the walk
   meets each of its pairs exactly once, as the first step from a
   stage-0 root, so a cache there is pure cost.

   [limit] bounds the number of class merges (the unit of real work) on
   three or more relations; a walk exceeding it raises [Kary_too_large]
   — the typed refusal for products whose quotient is still too big.
   Two relations always complete: their walk makes at most d_0·d_1 + d_1
   merges, within twice the naive scan's |R|·|P| pairs. *)
let trie_walk ~limit omega ~codes profs =
  let k = Array.length profs in
  let limit = if k < 3 then max_int else limit in
  Array.iter (fun ps -> Obs.Counter.add c_kary_profiles (Array.length ps)) profs;
  (* [owners.(c)]: the bitmask of relations in which code [c] occurs. *)
  let owners = Array.make codes 0 in
  Array.iteri
    (fun j ps ->
      Array.iter
        (fun p ->
          Array.iter
            (fun c -> if c >= 0 then owners.(c) <- owners.(c) lor (1 lsl j))
            p.codes)
        ps)
    profs;
  (* Per profile, the bitmask of relations sharing at least one code. *)
  let touch =
    Array.map
      (Array.map (fun p ->
           Array.fold_left (fun m c -> if c >= 0 then m lor owners.(c) else m) 0 p.codes))
      profs
  in
  let root = Bits.empty (Omega.width omega) in
  (* Relations j … k-1. *)
  let suffix_mask = Array.init (k + 1) (fun j -> (1 lsl k) - (1 lsl j)) in
  (* kernel.(i).(j) for the blocks i < j; no other entry is called. *)
  let kernel =
    Array.init k (fun i ->
        Array.init k (fun j -> if i < j then Tsig.of_block omega i j else fun _ _ -> root))
  in
  let block_tbl = Array.init k (fun _ -> Array.init k (fun _ -> Hashtbl.create 16)) in
  let block i a j b = kernel.(i).(j) profs.(i).(a).codes profs.(j).(b).codes in
  let block_sig i a j b =
    if Int.equal i 0 && Int.equal j 1 then block i a j b
    else
      let tbl = block_tbl.(i).(j) in
      let key = (a * Array.length profs.(j)) + b in
      match Hashtbl.find_opt tbl key with
      | Some s -> s
      | None ->
          let s = block i a j b in
          Hashtbl.add tbl key s;
          s
  in
  let work = ref 0 in
  let bump () =
    incr work;
    if !work > limit then raise (Kary_too_large { work = !work; limit })
  in
  (* suffix.(m): classes of R_m × … × R_{k-1} alone, as full-width
     signatures (their bits live in suffix blocks only) with suffix-length
     representatives, built by [stage m] on the first collapse that needs
     them.  suffix.(k) is the neutral element. *)
  let suffix = Array.make (k + 1) None in
  suffix.(k) <- Some [ (root, 1, [||]) ];
  (* [sel.(i)], [path.(i)]: the profile chosen at level i and its first
     row, for the levels m … j-1 of the current branch.  A stage forced
     at level j writes levels j and up only, which the branch that forced
     it no longer reads. *)
  let sel = Array.make k 0 and path = Array.make k 0 in
  let rec suffix_at j =
    match suffix.(j) with
    | Some classes -> classes
    | None ->
        let classes = stage j in
        suffix.(j) <- Some classes;
        classes
  and stage m =
    let acc = H.create 256 in
    (* The representative of a class is the vector of its first merge:
       profiles are in ascending first-row order, so the walk meets
       candidate vectors in lexicographic order — two candidates first
       differ at a level where the earlier branch took the smaller first
       row.  A collapsed subtree cannot hold two candidates of one
       signature, since its distinct suffix classes add distinct bits to
       the same prefix. *)
    let merge j sig_ mult srep =
      bump ();
      match H.find_opt acc sig_ with
      | Some sl -> sl.n <- sl.n + mult
      | None ->
          let best = Array.append (Array.sub path m (j - m)) srep in
          H.add acc sig_ { n = mult; best }
    in
    let rec walk j sig_ mult touched =
      if Int.equal j k then merge j sig_ mult [||]
      else if Int.equal (touched land suffix_mask.(j)) 0 then begin
        Obs.Counter.add c_kary_collapsed 1;
        List.iter
          (fun (s, c, srep) -> merge j (union sig_ s) (mult * c) srep)
          (suffix_at j)
      end
      else
        Array.iteri
          (fun b p ->
            let s = ref sig_ in
            for i = m to j - 1 do
              s := union !s (block_sig i sel.(i) j b)
            done;
            sel.(j) <- b;
            path.(j) <- p.first_row;
            walk (j + 1) !s (mult * p.multiplicity) (touched lor touch.(j).(b)))
          profs.(j)
    in
    Array.iteri
      (fun a p ->
        sel.(m) <- a;
        path.(m) <- p.first_row;
        walk (m + 1) root p.multiplicity touch.(m).(a))
      profs.(m);
    slots acc
  in
  let classes = stage 0 in
  Obs.Counter.add c_kary_work !work;
  classes

(* The one exact builder, for every arity: intern all relations into one
   dictionary, group each into profiles, then walk. *)
let default_kary_limit = 20_000_000

let build_kary ?(limit = default_kary_limit) rels =
  Obs.span "universe.build_kary" @@ fun () ->
  let rels = Array.of_list rels in
  check_rels ~entry:"Universe.build_kary" rels;
  let omega = omega_of rels in
  let total_rows = Array.fold_left (fun s r -> s + Relation.cardinality r) 0 rels in
  let dict = Dict.create ~size:total_rows () in
  let profs =
    Array.map
      (fun r -> group ~rows:(Relation.cardinality r) (Dict.iter_encoded dict r))
      rels
  in
  of_ksignature_list ~relations:rels omega
    (trie_walk ~limit omega ~codes:(Dict.size dict) profs)

let build r p = build_kary [ r; p ]


(* Approximate universe for products too large to scan (the paper's §1:
   "the database instances may be too big to be skimmed"): draw [tuples]
   uniform random row vectors — one row index per relation, in relation
   order — instead of enumerating the product.  Signatures that never
   come up in the sample are invisible, so the inference result is only
   guaranteed instance-equivalent on the sampled sub-product; rare
   signatures (small join ratio contributions) are the ones at risk.

   The representative of a class is the lexicographically smallest
   sampled member ([rep_min], not keep-first-drawn): reps then depend
   only on the sampled *set* of vectors, never on the order the PRNG
   produced them — the same determinism contract [build_kary] satisfies,
   and a sample covering the whole product reproduces its universe
   exactly. *)
let build_sampled prng ~tuples rels =
  if tuples <= 0 then invalid_arg "Universe.build_sampled: need a positive sample size";
  let rels = Array.of_list rels in
  let k = Array.length rels in
  if k < 2 then invalid_arg "Universe.build_sampled: need at least two relations";
  Array.iter
    (fun r ->
      if Relation.cardinality r = 0 then
        invalid_arg "Universe.build_sampled: empty relation")
    rels;
  let ns = Array.map Relation.cardinality rels in
  let omega = omega_of rels in
  let acc = H.create 256 in
  let row_tuples = Array.make k (Relation.row rels.(0) 0) in
  for _ = 1 to tuples do
    let rep = Array.init k (fun d -> Jqi_util.Prng.int prng ns.(d)) in
    for d = 0 to k - 1 do
      row_tuples.(d) <- Relation.row rels.(d) rep.(d)
    done;
    merge_into acc (Tsig.of_ktuples omega row_tuples) 1 rep
  done;
  of_ksignature_list ~relations:rels omega (slots acc)

(* ---------------- incremental maintenance under churn -------------- *)

(* [apply_delta] maintains Ω instead of rebuilding it.  The key fact is
   that a tuple combination's signature depends only on its cell values
   (never on row positions or dictionary code values), so churn on one
   relation only does count arithmetic on the class table:

     U_new  =  U_old  −  (removed rows × partners)  +  (added rows × partners)

   Each contribution is computed through the same profile quotient the
   builders use — removed/added rows group into profiles, partners group
   into profiles, and one signature per distinct-profile combination
   carries the product of multiplicities.  A batch of b changed rows
   against partners with d distinct profiles costs O(rows) integer
   re-grouping plus O(b_profiles · d) signatures, against the builder's
   O(d_R · d_P) — the updates/s gap `bench churn` measures.

   Representatives stay lexicographically smallest:
   - survivors renumber monotonically (new = old − #removed below), so a
     surviving rep is still the minimum over the surviving members;
   - added combinations min-merge their candidate vectors in, and a
     signature unseen before can only arise from added rows, so minted
     classes take the add-side minimum;
   - a class whose rep row was deleted is "damaged": a targeted repair
     pass re-scans all profile combinations but merges reps only for
     damaged signatures — one signature phase, no re-encoding, and only
     when a deletion actually hit a representative.

   Classes whose multiplicity reaches zero retire; any signature going
   negative, or a remove that matches no row, raises [Invalid_argument].
   The result is byte-identical to a from-scratch [build]/[build_kary]
   on the post-delta relations (test/test_churn.ml pins this
   differentially on random edit scripts, Mem and Paged). *)

module Delta = Jqi_relational.Delta

(* Mutable per-class adjustment; [a_rep = None] marks damage. *)
type adj = { mutable a_count : int; mutable a_rep : int array option }

let ensure_cache t rels =
  match t.cache with
  | Some c -> c
  | None ->
      let total_rows =
        Array.fold_left (fun s r -> s + Relation.cardinality r) 0 rels
      in
      let dict = Dict.create ~size:total_rows () in
      let codes = Array.map (fun r -> Dict.encode_rows dict r) rels in
      let c = { dict; codes } in
      t.cache <- Some c;
      c

(* Position of [x] among the sorted [removed] indexes: [None] when [x]
   itself was removed, else [Some] of its post-delta index. *)
let renumber removed x =
  let lo = ref 0 and hi = ref (Array.length removed) in
  while !lo < !hi do
    let mid = !lo + ((!hi - !lo) / 2) in
    if removed.(mid) < x then lo := mid + 1 else hi := mid
  done;
  if !lo < Array.length removed && Int.equal removed.(!lo) x then None
  else Some (x - !lo)

let apply_delta t deltas =
  Obs.span "universe.apply_delta" @@ fun () ->
  let rels =
    match t.relations with
    | Some rels -> Array.copy rels
    | None ->
        invalid_arg "Universe.apply_delta: universe was built without relations"
  in
  let k = Array.length rels in
  let cache = ensure_cache t rels in
  let codes = Array.copy cache.codes in
  let dict = cache.dict in
  let tbl = H.create (max 64 (2 * Array.length t.classes)) in
  Array.iter
    (fun c ->
      H.replace tbl c.signature
        { a_count = c.count; a_rep = Some (Array.copy c.rep) })
    t.classes;
  (* Enumerate distinct-profile combinations with relation [ridx] pinned
     to [dprof]; [f] receives the code vectors, the multiplicity product
     and the first-row vector (a fresh candidate rep must copy it). *)
  let with_combos profs ridx dprof f =
    let vecs = Array.make k [||] and frows = Array.make k 0 in
    vecs.(ridx) <- dprof.codes;
    frows.(ridx) <- dprof.first_row;
    let rec go j mult =
      if Int.equal j k then f vecs mult frows
      else if Int.equal j ridx then go (j + 1) mult
      else
        Array.iter
          (fun p ->
            vecs.(j) <- p.codes;
            frows.(j) <- p.first_row;
            go (j + 1) (mult * p.multiplicity))
          profs.(j)
    in
    go 0 dprof.multiplicity
  in
  let step (ridx, d) =
    if ridx < 0 || ridx >= k then
      invalid_arg "Universe.apply_delta: no such relation";
    if not (Delta.is_empty d) then begin
      let removed = Relation.resolve_removes rels.(ridx) d in
      let add_codes = Dict.intern_delta dict d in
      let old_codes = codes.(ridx) in
      let n_removed = Array.length removed in
      let survivors = Array.length old_codes - n_removed in
      let new_codes = Array.make (survivors + Array.length add_codes) [||] in
      let w = ref 0 and j = ref 0 in
      Array.iteri
        (fun i cv ->
          if !j < n_removed && Int.equal removed.(!j) i then incr j
          else begin
            new_codes.(!w) <- cv;
            incr w
          end)
        old_codes;
      Array.iteri (fun i cv -> new_codes.(survivors + i) <- cv) add_codes;
      let partner_profs =
        Array.mapi
          (fun ji cm -> if Int.equal ji ridx then [||] else group_codes cm)
          codes
      in
      (* minus: removed rows re-join into profile groups and decrement *)
      let xprofs = group_codes (Array.map (fun i -> old_codes.(i)) removed) in
      Array.iter
        (fun xp ->
          with_combos partner_profs ridx xp (fun vecs mult _frows ->
              let s = Tsig.of_kcodes t.omega vecs in
              match H.find_opt tbl s with
              | Some a when a.a_count >= mult -> a.a_count <- a.a_count - mult
              | Some _ | None ->
                  invalid_arg
                    "Universe.apply_delta: delta inconsistent with the universe"))
        xprofs;
      (* retire emptied classes before adds can re-mint their signature *)
      let retired =
        H.fold (fun s a acc -> if Int.equal a.a_count 0 then s :: acc else acc)
          tbl []
      in
      List.iter (H.remove tbl) retired;
      (* renumber surviving reps; a rep that lost its row is damaged *)
      if n_removed > 0 then
        H.iter
          (fun _ a ->
            match a.a_rep with
            | None -> ()
            | Some rep -> (
                match renumber removed rep.(ridx) with
                | Some x -> rep.(ridx) <- x
                | None -> a.a_rep <- None))
          tbl;
      (* plus: added rows land in existing classes or mint new ones *)
      let aprofs =
        Array.map
          (fun p -> { p with first_row = survivors + p.first_row })
          (group_codes add_codes)
      in
      Array.iter
        (fun ap ->
          with_combos partner_profs ridx ap (fun vecs mult frows ->
              let s = Tsig.of_kcodes t.omega vecs in
              match H.find_opt tbl s with
              | Some a ->
                  a.a_count <- a.a_count + mult;
                  (match a.a_rep with
                  | Some rep -> a.a_rep <- Some (rep_min rep (Array.copy frows))
                  | None -> ())
              | None ->
                  H.replace tbl s
                    { a_count = mult; a_rep = Some (Array.copy frows) }))
        aprofs;
      (* targeted rep repair: one signature pass over all combinations,
         merging only damaged signatures *)
      let damaged = H.create 8 in
      H.iter
        (fun s a -> if Option.is_none a.a_rep then H.replace damaged s ())
        tbl;
      if H.length damaged > 0 then begin
        let all_profs = Array.copy partner_profs in
        all_profs.(ridx) <- group_codes new_codes;
        Array.iter
          (fun p0 ->
            with_combos all_profs 0 p0 (fun vecs _mult frows ->
                let s = Tsig.of_kcodes t.omega vecs in
                if H.mem damaged s then
                  let a = H.find tbl s in
                  match a.a_rep with
                  | Some rep -> a.a_rep <- Some (rep_min rep (Array.copy frows))
                  | None -> a.a_rep <- Some (Array.copy frows)))
          all_profs.(0)
      end;
      codes.(ridx) <- new_codes;
      (* The relation update comes last, after the class arithmetic has
         validated the delta: on a paged backend this mutates the backing
         store in place, so an inconsistent delta must raise before it. *)
      rels.(ridx) <- Relation.apply_delta rels.(ridx) d
    end
  in
  List.iter step deltas;
  let sigs =
    H.fold
      (fun s a acc ->
        match a.a_rep with
        | Some rep -> (s, a.a_count, rep) :: acc
        | None -> invalid_arg "Universe.apply_delta: unrepaired class")
      tbl []
  in
  (match sigs with
  | [] -> invalid_arg "Universe.apply_delta: empty Cartesian product"
  | _ :: _ -> ());
  let u = of_ksignature_list ~relations:rels t.omega sigs in
  u.cache <- Some { dict; codes };
  u

let omega t = t.omega
let classes t = t.classes
let n_classes t = Array.length t.classes
let cls t i = t.classes.(i)
let total_tuples t = t.total
let n_relations t = Omega.n_relations t.omega

let relation_array t = Option.map Array.copy t.relations

let signature t i = t.classes.(i).signature
let count t i = t.classes.(i).count

let representative_rows t i =
  match t.relations with
  | None -> None
  | Some rels ->
      Some (Array.mapi (fun d ri -> Relation.row rels.(d) ri) t.classes.(i).rep)

(* [classes] is sorted by [Bits.compare] (see [of_ksignature_list]), so
   membership is a binary search. *)
let find_class t signature =
  let rec go lo hi =
    if lo >= hi then None
    else
      let mid = lo + ((hi - lo) / 2) in
      let c = Bits.compare t.classes.(mid).signature signature in
      if c = 0 then Some mid else if c < 0 then go (mid + 1) hi else go lo mid
  in
  go 0 (Array.length t.classes)

(* Classes selected by θ: exactly those whose signature contains θ. *)
let selected_classes t theta =
  let out = ref [] in
  for i = Array.length t.classes - 1 downto 0 do
    if Tsig.selects theta t.classes.(i).signature then out := i :: !out
  done;
  !out

(* Two predicates are instance-equivalent (§3.3) iff they select the same
   classes of D. *)
let equivalent t theta1 theta2 =
  let n = Array.length t.classes in
  let rec go i =
    i >= n
    || Bool.equal
         (Tsig.selects theta1 t.classes.(i).signature)
         (Tsig.selects theta2 t.classes.(i).signature)
       && go (i + 1)
  in
  go 0

(* Join ratio (§5.3): the average size of the distinct (unique) most
   specific join predicates occurring in D. *)
let join_ratio t =
  let n = Array.length t.classes in
  if n = 0 then 0.
  else
    let sum =
      Array.fold_left (fun s c -> s + Bits.cardinal c.signature) 0 t.classes
    in
    float_of_int sum /. float_of_int n

(* Distinct signatures, i.e. the lattice nodes that have corresponding
   tuples (boxed nodes of Figure 4). *)
let signatures t = Array.to_list (Array.map (fun c -> c.signature) t.classes)

let pp ppf t =
  Fmt.pf ppf "@[<v>universe: |D|=%d, %d signature classes, join ratio %.3f"
    t.total (n_classes t) (join_ratio t);
  Array.iteri
    (fun i c ->
      Fmt.pf ppf "@,  #%d %a ×%d" i (Omega.pp_pred t.omega) c.signature c.count)
    t.classes;
  Fmt.pf ppf "@]"
