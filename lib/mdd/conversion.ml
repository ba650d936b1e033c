module B = Socy_bdd.Manager
module Par = Socy_bdd.Par
module Obs = Socy_obs.Obs

type layout = {
  group_of_level : int array;
  levels_of_group : int array array;
  codeword : int -> int -> bool array;
}

(* Entry lists below a minimum size are not worth a team barrier. *)
let par_layer_threshold = 64

let obs_par_layers = Obs.counter "mdd.convert.par_layers"

let run ?team bdd root mdd layout =
  let num_groups = Array.length layout.levels_of_group in
  if num_groups <> Mdd.num_mvars mdd then
    invalid_arg "Conversion.run: group count must match the MDD manager";
  let group_of n = layout.group_of_level.(B.level bdd n) in
  (* Position of a BDD level within its group (levels are few per group;
     precompute a direct map). *)
  let pos_in_group = Array.make (B.num_vars bdd) (-1) in
  Array.iter
    (fun levels -> Array.iteri (fun i lv -> pos_in_group.(lv) <- i) levels)
    layout.levels_of_group;
  (* Pass 1: find the entry nodes of each layer. An entry node is the root,
     or a nonterminal target of an edge whose source lies in a different
     group.

     Complement-edge parity threading: BDD handles carry a complement bit,
     and [B.low]/[B.high] fold the handle's parity into the child they
     return — so the handle itself encodes the accumulated parity of the
     path that reached it. Keying [seen] (and [mapping] below) by handle
     therefore visits the two polarities of a shared physical node as the
     two distinct boolean functions they are, which is exactly what the
     ROMDD construction needs: the produced diagram is the same canonical
     ROMDD the two-terminal engine yielded. Handles are dense nonnegative
     ints bounded by [B.handle_bound], so both tables become flat
     int-indexed structures (a bitset and an array) instead of polymorphic
     hash tables — the scan was one of the two hottest stages. *)
  let entries = Array.make num_groups [] in
  let mark n = entries.(group_of n) <- n :: entries.(group_of n) in
  let seen = Socy_util.Bitset.create (B.handle_bound bdd) in
  (* Explicit-stack DFS (deep coded ROBDDs must not overflow the OCaml
     stack): each reachable node is expanded once, and each cross-group edge
     marks its target — the same edge multiset the recursive walk visited. *)
  let scan root =
    let stack = ref [] in
    let visit n =
      if not (Socy_util.Bitset.mem seen n) then begin
        Socy_util.Bitset.add seen n;
        if not (B.is_terminal n) then stack := n :: !stack
      end
    in
    visit root;
    let rec drain () =
      match !stack with
      | [] -> ()
      | n :: rest ->
          stack := rest;
          let g = group_of n in
          let edge c =
            if (not (B.is_terminal c)) && group_of c <> g then mark c;
            visit c
          in
          edge (B.low bdd n);
          edge (B.high bdd n);
          drain ()
    in
    drain ()
  in
  if not (B.is_terminal root) then mark root;
  Obs.with_span "mdd.convert.scan" (fun () -> scan root);
  (* A cross-group edge marks its target once per incoming edge, so the
     entry lists carry duplicates. Materialize each list keeping the
     FIRST occurrence in list order — exactly the subsequence on which
     the former duplicate-skipping loop called [Mdd.mk] — so ROMDD node
     ids stay bit-identical to what this pass always produced, with or
     without a team. *)
  let dedup = Socy_util.Bitset.create (B.handle_bound bdd) in
  let entries =
    Array.map
      (fun l ->
        let keep =
          List.filter
            (fun n ->
              if Socy_util.Bitset.mem dedup n then false
              else begin
                Socy_util.Bitset.add dedup n;
                true
              end)
            l
        in
        Array.of_list keep)
      entries
  in
  (* Pass 2: process layers bottom-up. [mapping] associates processed entry
     nodes (and terminals) with ROMDD nodes; -1 marks "not yet mapped"
     (ROMDD handles are nonnegative). Indexed by BDD handle, so the entry
     parity is part of the key — see the pass-1 comment.

     Each layer splits into two phases. (a) For every entry, walk the
     layer once for all codewords and resolve the child ROMDD handles —
     pure reads of the frozen BDD and of [mapping] slots written by DEEPER
     layers (exit targets are terminals or entries of already
     processed layers, never this one), so entries are independent and the
     phase partitions across the team, one chunk per task, with the
     [Par.run] join as the per-level barrier. (b) [Mdd.mk] every entry in
     the fixed array order — sequential, because the MDD hash-cons table
     is not thread-safe, and deterministic, so node ids never depend on
     the team size. Without a team (or under the size threshold) both
     phases run fused on the caller, which is the same code path the
     sequential engine always took. *)
  let mapping = Array.make (max 2 (B.handle_bound bdd)) (-1) in
  mapping.(B.zero) <- Mdd.zero;
  mapping.(B.one) <- Mdd.one;
  let target_mapping n =
    let mnode = mapping.(n) in
    if mnode < 0 then
      (* Unreachable in a correct layout: targets are terminals or
         entries of deeper, already processed layers. *)
      invalid_arg
        "Conversion.run: simulation escaped to an unprocessed node; is the \
         layout group-contiguous?";
    mnode
  in
  let entry_counter = Obs.counter "mdd.convert.entry_nodes" in
  let layer_hist = Obs.histogram "mdd.convert.layer_entries" in
  for g = num_groups - 1 downto 0 do
    Obs.with_span "mdd.convert.layer" (fun () ->
        let ents = entries.(g) in
        let n = Array.length ents in
        Obs.add entry_counter n;
        Obs.observe layer_hist (float_of_int n);
        (* Each value's codeword as an int, its first level in the top bit,
           built once. Sorted by it, the values that share the bits above
           position [pos] form a contiguous range, which bit [pos] splits
           into two contiguous halves. *)
        let domain = (Mdd.spec mdd g).domain in
        let nbits = Array.length layout.levels_of_group.(g) in
        let key =
          Array.init domain (fun j ->
              Array.fold_left
                (fun k b -> (2 * k) + Bool.to_int b)
                0 (layout.codeword g j))
        in
        let value_at = Array.init domain Fun.id in
        Array.stable_sort (fun a b -> Int.compare key.(a) key.(b)) value_at;
        let key = Array.map (fun j -> key.(j)) value_at in
        (* One descent per entry: the values in [lo, hi) all reach [n]
           before bit [pos]. A node testing bit [pos] is read once for the
           whole range; a skipped bit splits the range without a read. The
           [kids] array equals what simulating each codeword alone from
           the entry gives. *)
        let kids_of entry =
          let kids = Array.make domain 0 in
          let rec walk n pos lo hi =
            if B.is_terminal n || group_of n <> g then begin
              let mnode = target_mapping n in
              for i = lo to hi - 1 do
                kids.(value_at.(i)) <- mnode
              done
            end
            else begin
              let bit = 1 lsl (nbits - 1 - pos) in
              let mid = ref lo in
              while !mid < hi && key.(!mid) land bit = 0 do
                incr mid
              done;
              let tested = pos_in_group.(B.level bdd n) = pos in
              if lo < !mid then
                walk (if tested then B.low bdd n else n) (pos + 1) lo !mid;
              if !mid < hi then
                walk (if tested then B.high bdd n else n) (pos + 1) !mid hi
            end
          in
          if domain > 0 then walk entry 0 0 domain;
          kids
        in
        match team with
        | Some team when n >= par_layer_threshold && Par.domains team > 1 ->
            Obs.incr obs_par_layers;
            let kids = Array.make n [||] in
            let nchunks = 4 * Par.domains team in
            let chunk = (n + nchunks - 1) / nchunks in
            let tasks =
              Array.init ((n + chunk - 1) / chunk) (fun ti ->
                  fun () ->
                    let i0 = ti * chunk in
                    let i1 = min n (i0 + chunk) in
                    for i = i0 to i1 - 1 do
                      kids.(i) <- kids_of ents.(i)
                    done)
            in
            Par.run team tasks;
            for i = 0 to n - 1 do
              mapping.(ents.(i)) <- Mdd.mk mdd g kids.(i)
            done
        | _ ->
            Array.iter
              (fun entry -> mapping.(entry) <- Mdd.mk mdd g (kids_of entry))
              ents)
  done;
  mapping.(root)
