(* Tests for Socy_bdd: ROBDD algebra, canonicity against truth tables,
   cofactors/quantifiers, probability, reference counting, garbage
   collection, node limits, and the circuit compiler. *)

module M = Socy_bdd.Manager
module Compile = Socy_bdd.Compile
module C = Socy_logic.Circuit
module Parse = Socy_logic.Parse

let with_manager ?node_limit n f = f (M.create ?node_limit ~num_vars:n ())

(* Truth table of a BDD over the manager's variables, on all 2^n
   assignments (bit v of the mask = value of variable v). *)
let semantics m node n =
  List.init (1 lsl n) (fun mask -> M.eval m node (fun v -> (mask lsr v) land 1 = 1))

(* ------------------------------------------------------------------ *)
(* Basics                                                              *)
(* ------------------------------------------------------------------ *)

let test_terminals () =
  with_manager 2 (fun m ->
      Alcotest.(check bool) "zero is terminal" true (M.is_terminal M.zero);
      Alcotest.(check bool) "one is terminal" true (M.is_terminal M.one);
      Alcotest.(check int) "terminal level" 2 (M.level m M.zero);
      Alcotest.(check bool) "eval zero" false (M.eval m M.zero (fun _ -> true));
      Alcotest.(check bool) "eval one" true (M.eval m M.one (fun _ -> false)))

let test_var_semantics () =
  with_manager 3 (fun m ->
      let x1 = M.var m 1 in
      Alcotest.(check bool) "var true" true (M.eval m x1 (fun v -> v = 1));
      Alcotest.(check bool) "var false" false (M.eval m x1 (fun v -> v <> 1));
      let nx1 = M.nvar m 1 in
      Alcotest.(check bool) "nvar" true (M.eval m nx1 (fun v -> v <> 1));
      (* single-sink convention: the node for x1 plus the shared sink *)
      Alcotest.(check int) "var size" 2 (M.size m x1))

let test_structure_access () =
  with_manager 2 (fun m ->
      let x0 = M.var m 0 in
      Alcotest.(check int) "level" 0 (M.level m x0);
      Alcotest.(check int) "low" M.zero (M.low m x0);
      Alcotest.(check int) "high" M.one (M.high m x0);
      Alcotest.check_raises "low of terminal"
        (Invalid_argument "Manager.low: terminal node") (fun () ->
          ignore (M.low m M.zero)))

let test_canonicity_same_function_same_node () =
  with_manager 3 (fun m ->
      let a = M.var m 0 and b = M.var m 1 in
      let ab = M.and_ m a b in
      let ba = M.and_ m b a in
      Alcotest.(check int) "and commutes to same node" ab ba;
      (* De Morgan: ¬(a ∧ b) = ¬a ∨ ¬b *)
      let lhs = M.not_ m ab in
      let na = M.not_ m a and nb = M.not_ m b in
      let rhs = M.or_ m na nb in
      Alcotest.(check int) "de morgan" lhs rhs)

let test_ite_identities () =
  with_manager 4 (fun m ->
      let f = M.var m 0 and g = M.var m 1 and h = M.var m 2 in
      Alcotest.(check int) "ite(1,g,h) = g" g (M.ite m M.one g h);
      Alcotest.(check int) "ite(0,g,h) = h" h (M.ite m M.zero g h);
      Alcotest.(check int) "ite(f,g,g) = g" g (M.ite m f g g);
      Alcotest.(check int) "ite(f,1,0) = f" f (M.ite m f M.one M.zero);
      Alcotest.(check int) "ite(f,f,h) = ite(f,1,h)" (M.ite m f M.one h) (M.ite m f f h);
      Alcotest.(check int) "ite(f,g,f) = ite(f,g,0)" (M.ite m f g M.zero) (M.ite m f g f);
      let nf = M.not_ m f in
      Alcotest.(check int) "double negation" f (M.not_ m nf))

let test_xor_imp () =
  with_manager 2 (fun m ->
      let a = M.var m 0 and b = M.var m 1 in
      let x = M.xor_ m a b in
      Alcotest.(check (list bool)) "xor table" [ false; true; true; false ]
        (semantics m x 2);
      let i = M.imp m a b in
      (* mask bit 0 = a, bit 1 = b: a→b is false only at a=1, b=0 (mask 1) *)
      Alcotest.(check (list bool)) "imp table" [ true; false; true; true ]
        (semantics m i 2))

(* ------------------------------------------------------------------ *)
(* Cofactors and quantification                                        *)
(* ------------------------------------------------------------------ *)

let test_restrict () =
  with_manager 3 (fun m ->
      (* f = (x0 ∧ x1) ∨ x2 *)
      let f = M.or_ m (M.and_ m (M.var m 0) (M.var m 1)) (M.var m 2) in
      let f_x1_true = M.restrict m f ~var:1 ~value:true in
      let expected = M.or_ m (M.var m 0) (M.var m 2) in
      Alcotest.(check int) "restrict x1=1" expected f_x1_true;
      let f_x0_false = M.restrict m f ~var:0 ~value:false in
      Alcotest.(check int) "restrict x0=0" (M.var m 2) f_x0_false)

let test_exists_forall () =
  with_manager 3 (fun m ->
      let f = M.and_ m (M.var m 0) (M.var m 1) in
      Alcotest.(check int) "exists" (M.var m 0) (M.exists m [ 1 ] f);
      Alcotest.(check int) "forall" M.zero (M.forall m [ 1 ] f);
      let g = M.or_ m (M.var m 0) (M.var m 2) in
      Alcotest.(check int) "exists both" M.one (M.exists m [ 0; 2 ] g);
      Alcotest.(check int) "forall none quantified" g (M.forall m [] g))

let test_support_any_sat () =
  with_manager 4 (fun m ->
      let f = M.and_ m (M.var m 0) (M.var m 3) in
      Alcotest.(check (list int)) "support" [ 0; 3 ] (M.support m f);
      let assignment = M.any_sat m f in
      Alcotest.(check bool) "sat assignment satisfies" true
        (M.eval m f (fun v -> List.assoc_opt v assignment = Some true));
      Alcotest.check_raises "unsat" Not_found (fun () -> ignore (M.any_sat m M.zero)))

(* ------------------------------------------------------------------ *)
(* Counting and probability                                            *)
(* ------------------------------------------------------------------ *)

let test_sat_fraction () =
  with_manager 3 (fun m ->
      let f = M.or_ m (M.var m 0) (M.var m 1) in
      Alcotest.(check (float 1e-12)) "or fraction" 0.75 (M.sat_fraction m f);
      Alcotest.(check (float 1e-12)) "one" 1.0 (M.sat_fraction m M.one);
      Alcotest.(check (float 1e-12)) "zero" 0.0 (M.sat_fraction m M.zero))

let test_probability () =
  with_manager 2 (fun m ->
      let f = M.and_ m (M.var m 0) (M.var m 1) in
      let p = function 0 -> 0.3 | _ -> 0.5 in
      Alcotest.(check (float 1e-12)) "and prob" 0.15 (M.probability m f ~p);
      let g = M.or_ m (M.var m 0) (M.var m 1) in
      Alcotest.(check (float 1e-12)) "or prob" (0.3 +. 0.5 -. 0.15)
        (M.probability m g ~p))

let test_size () =
  with_manager 2 (fun m ->
      let f = M.and_ m (M.var m 0) (M.var m 1) in
      Alcotest.(check int) "size of and" 3 (M.size m f);
      Alcotest.(check int) "size zero" 1 (M.size m M.zero);
      let g = M.or_ m f (M.not_ m f) in
      Alcotest.(check int) "size tautology" 1 (M.size m g);
      (* the standalone x0 node (x0 ? 1 : 0) differs from f's root
         (x0 ? x1-node : 0): 3 nonterminals + the single shared sink *)
      Alcotest.(check int) "size_multi shares" 4 (M.size_multi m [ f; M.var m 0 ]))

(* ------------------------------------------------------------------ *)
(* Reference counting and GC                                           *)
(* ------------------------------------------------------------------ *)

let test_refcount_kill_resurrect () =
  with_manager 4 (fun m ->
      let a = M.var m 0 and b = M.var m 1 in
      let f = M.and_ m a b in
      let alive_before = M.alive m in
      M.deref m f;
      Alcotest.(check int) "killing a root releases it" (alive_before - 1) (M.alive m);
      Alcotest.(check int) "dead count" 1 (M.dead m);
      let f2 = M.and_ m a b in
      Alcotest.(check int) "resurrected same node" f f2;
      Alcotest.(check int) "alive restored" alive_before (M.alive m);
      Alcotest.(check int) "no dead" 0 (M.dead m))

let test_deref_underflow () =
  with_manager 2 (fun m ->
      let f = M.and_ m (M.var m 0) (M.var m 1) in
      M.deref m f;
      Alcotest.check_raises "underflow"
        (Invalid_argument "Manager.deref: reference count underflow") (fun () ->
          M.deref m f))

let test_collect_reclaims_and_preserves () =
  with_manager 4 (fun m ->
      let a = M.var m 0 and b = M.var m 1 in
      let keep = M.or_ m a b in
      let junk = M.and_ m a b in
      M.deref m junk;
      Alcotest.(check bool) "some dead" true (M.dead m > 0);
      M.collect m;
      Alcotest.(check int) "no dead after collect" 0 (M.dead m);
      Alcotest.(check int) "gc ran" 1 (M.gc_count m);
      Alcotest.(check (list bool)) "keep semantics" [ false; true; true; true ]
        (semantics m keep 2);
      (* reclaimed slots are reusable *)
      let j2 = M.and_ m a b in
      Alcotest.(check (list bool)) "rebuilt junk semantics"
        [ false; false; false; true ] (semantics m j2 2))

let test_peak_tracking () =
  with_manager 6 (fun m ->
      let parity =
        List.fold_left
          (fun acc v ->
            let x = M.var m v in
            let nxt = M.xor_ m acc x in
            M.deref m acc;
            M.deref m x;
            nxt)
          M.zero [ 0; 1; 2; 3; 4; 5 ]
      in
      Alcotest.(check bool) "peak >= alive" true (M.peak_alive m >= M.alive m);
      Alcotest.(check bool) "peak >= final size" true
        (M.peak_alive m >= M.size m parity - 1);
      M.reset_peak m;
      Alcotest.(check int) "reset peak" (M.alive m) (M.peak_alive m))

let test_node_limit () =
  let m = M.create ~node_limit:10 ~num_vars:16 () in
  let build () =
    let acc = ref M.zero in
    for v = 0 to 15 do
      let x = M.var m v in
      acc := M.xor_ m !acc x
    done;
    !acc
  in
  Alcotest.check_raises "limit" M.Node_limit_exceeded (fun () -> ignore (build ()))

let test_to_dot () =
  with_manager 2 (fun m ->
      let f = M.and_ m (M.var m 0) (M.var m 1) in
      let dot = M.to_dot m f in
      Alcotest.(check bool) "mentions x0" true
        (let rec has i =
           i + 2 <= String.length dot && (String.sub dot i 2 = "x0" || has (i + 1))
         in
         has 0))

(* ------------------------------------------------------------------ *)
(* Canonicity against truth tables (property)                          *)
(* ------------------------------------------------------------------ *)

type rexpr =
  | RVar of int
  | RNot of rexpr
  | RAnd of rexpr * rexpr
  | ROr of rexpr * rexpr
  | RXor of rexpr * rexpr

let rec rexpr_print = function
  | RVar i -> Printf.sprintf "x%d" i
  | RNot e -> Printf.sprintf "!(%s)" (rexpr_print e)
  | RAnd (a, b) -> Printf.sprintf "(%s&%s)" (rexpr_print a) (rexpr_print b)
  | ROr (a, b) -> Printf.sprintf "(%s|%s)" (rexpr_print a) (rexpr_print b)
  | RXor (a, b) -> Printf.sprintf "(%s^%s)" (rexpr_print a) (rexpr_print b)

let rec rexpr_eval env = function
  | RVar i -> env i
  | RNot e -> not (rexpr_eval env e)
  | RAnd (a, b) -> rexpr_eval env a && rexpr_eval env b
  | ROr (a, b) -> rexpr_eval env a || rexpr_eval env b
  | RXor (a, b) -> rexpr_eval env a <> rexpr_eval env b

let rec rexpr_build m = function
  | RVar i -> M.var m i
  | RNot e -> M.not_ m (rexpr_build m e)
  | RAnd (a, b) -> M.and_ m (rexpr_build m a) (rexpr_build m b)
  | ROr (a, b) -> M.or_ m (rexpr_build m a) (rexpr_build m b)
  | RXor (a, b) -> M.xor_ m (rexpr_build m a) (rexpr_build m b)

let gen_rexpr num_vars =
  QCheck.Gen.(
    sized_size (int_bound 8)
    @@ fix (fun self size ->
           if size <= 0 then map (fun i -> RVar i) (int_bound (num_vars - 1))
           else
             frequency
               [
                 (1, map (fun i -> RVar i) (int_bound (num_vars - 1)));
                 (1, map (fun e -> RNot e) (self (size - 1)));
                 (2, map2 (fun a b -> RAnd (a, b)) (self (size / 2)) (self (size / 2)));
                 (2, map2 (fun a b -> ROr (a, b)) (self (size / 2)) (self (size / 2)));
                 (1, map2 (fun a b -> RXor (a, b)) (self (size / 2)) (self (size / 2)));
               ]))

let arb_rexpr n = QCheck.make ~print:rexpr_print (gen_rexpr n)

let nvars_prop = 5

let prop_bdd_matches_semantics =
  QCheck.Test.make ~name:"BDD evaluation equals formula semantics" ~count:300
    (arb_rexpr nvars_prop)
    (fun e ->
      let m = M.create ~num_vars:nvars_prop () in
      let node = rexpr_build m e in
      List.for_all
        (fun mask ->
          let env v = (mask lsr v) land 1 = 1 in
          rexpr_eval env e = M.eval m node env)
        (List.init (1 lsl nvars_prop) Fun.id))

let prop_canonicity =
  QCheck.Test.make ~name:"equal truth tables <=> equal nodes" ~count:300
    QCheck.(pair (arb_rexpr nvars_prop) (arb_rexpr nvars_prop))
    (fun (e1, e2) ->
      let m = M.create ~num_vars:nvars_prop () in
      let n1 = rexpr_build m e1 and n2 = rexpr_build m e2 in
      let equal_tables =
        List.for_all
          (fun mask ->
            let env v = (mask lsr v) land 1 = 1 in
            rexpr_eval env e1 = rexpr_eval env e2)
          (List.init (1 lsl nvars_prop) Fun.id)
      in
      (n1 = n2) = equal_tables)

let prop_sat_fraction_counts =
  QCheck.Test.make ~name:"sat_fraction equals satisfying-assignment count" ~count:200
    (arb_rexpr nvars_prop)
    (fun e ->
      let m = M.create ~num_vars:nvars_prop () in
      let node = rexpr_build m e in
      let count =
        List.fold_left
          (fun acc mask ->
            let env v = (mask lsr v) land 1 = 1 in
            if rexpr_eval env e then acc + 1 else acc)
          0
          (List.init (1 lsl nvars_prop) Fun.id)
      in
      abs_float
        (M.sat_fraction m node -. (float_of_int count /. float_of_int (1 lsl nvars_prop)))
      < 1e-12)

let prop_refcounts_survive_gc =
  QCheck.Test.make ~name:"semantics preserved across deref of temporaries + GC"
    ~count:100
    QCheck.(pair (arb_rexpr nvars_prop) (arb_rexpr nvars_prop))
    (fun (e1, e2) ->
      let m = M.create ~num_vars:nvars_prop () in
      let keep = rexpr_build m e1 in
      let junk = rexpr_build m e2 in
      M.deref m junk;
      M.collect m;
      List.for_all
        (fun mask ->
          let env v = (mask lsr v) land 1 = 1 in
          rexpr_eval env e1 = M.eval m keep env)
        (List.init (1 lsl nvars_prop) Fun.id))

(* ------------------------------------------------------------------ *)
(* Complement-edge canonicity                                          *)
(* ------------------------------------------------------------------ *)

let prop_no_complemented_else_edge =
  QCheck.Test.make ~name:"no reachable node stores a complemented else-edge"
    ~count:300 (arb_rexpr nvars_prop)
    (fun e ->
      let m = M.create ~num_vars:nvars_prop () in
      let node = rexpr_build m e in
      let ok = ref true in
      M.iter_reachable m node (fun n ->
          (* iter_reachable yields regular handles, so [M.low] here is the
             stored else-edge itself *)
          if (not (M.is_terminal n)) && M.is_complemented (M.low m n) then
            ok := false);
      !ok)

let prop_double_negation_physical =
  QCheck.Test.make ~name:"not_ (not_ f) is physically f" ~count:300
    (arb_rexpr nvars_prop)
    (fun e ->
      let m = M.create ~num_vars:nvars_prop () in
      let f = rexpr_build m e in
      let nf = M.not_ m f in
      let nnf = M.not_ m nf in
      nnf = f && M.regular nf = M.regular f && nf = f lxor 1)

(* 8 variables as the issue asks: wide enough that the ITE normalization
   rules (operand folding, commutative swaps, output negation) all fire. *)
let nvars_ite = 8

let prop_ite_truth_table =
  QCheck.Test.make ~name:"ite agrees with truth-table semantics on 8 vars"
    ~count:150
    QCheck.(triple (arb_rexpr nvars_ite) (arb_rexpr nvars_ite) (arb_rexpr nvars_ite))
    (fun (ef, eg, eh) ->
      let m = M.create ~num_vars:nvars_ite () in
      let f = rexpr_build m ef
      and g = rexpr_build m eg
      and h = rexpr_build m eh in
      let r = M.ite m f g h in
      List.for_all
        (fun mask ->
          let env v = (mask lsr v) land 1 = 1 in
          let expect =
            if rexpr_eval env ef then rexpr_eval env eg else rexpr_eval env eh
          in
          expect = M.eval m r env)
        (List.init (1 lsl nvars_ite) Fun.id))

let prop_probability_complement_exact =
  QCheck.Test.make ~name:"P(f) + P(not f) = 1 exactly" ~count:300
    (arb_rexpr nvars_prop)
    (fun e ->
      let m = M.create ~num_vars:nvars_prop () in
      let f = rexpr_build m e in
      let nf = M.not_ m f in
      let p v = 0.05 +. (0.13 *. float_of_int v) in
      (* exact float equality on purpose: both polarities read one stored
         value per slot, so the sum is v +. (1. -. v) = 1. bit-exactly *)
      M.probability m f ~p +. M.probability m nf ~p = 1.0)

(* ------------------------------------------------------------------ *)
(* Circuit compiler                                                    *)
(* ------------------------------------------------------------------ *)

let test_compile_simple () =
  let circuit = Parse.fault_tree ~num_inputs:3 "x0 & x1 | !x2" in
  let m = M.create ~num_vars:3 () in
  let root, stats = Compile.of_circuit m circuit ~var_of_input:Fun.id in
  List.iter
    (fun mask ->
      let env v = (mask lsr v) land 1 = 1 in
      Alcotest.(check bool)
        (Printf.sprintf "mask %d" mask)
        ((env 0 && env 1) || not (env 2))
        (M.eval m root env))
    (List.init 8 Fun.id);
  Alcotest.(check int) "final size consistent" (M.size m root) stats.Compile.final_size;
  Alcotest.(check bool) "peak >= final" true
    (stats.Compile.peak_nodes >= stats.Compile.final_size - 1)

let test_compile_var_permutation () =
  let circuit = Parse.fault_tree ~num_inputs:3 "x0 | x1 & x2" in
  let m = M.create ~num_vars:3 () in
  let perm = [| 2; 0; 1 |] in
  let root, _ = Compile.of_circuit m circuit ~var_of_input:(fun i -> perm.(i)) in
  List.iter
    (fun mask ->
      let input_env i = (mask lsr i) land 1 = 1 in
      let bdd_env v =
        input_env (if perm.(0) = v then 0 else if perm.(1) = v then 1 else 2)
      in
      Alcotest.(check bool)
        (Printf.sprintf "mask %d" mask)
        (input_env 0 || (input_env 1 && input_env 2))
        (M.eval m root bdd_env))
    (List.init 8 Fun.id)

let test_compile_releases_intermediates () =
  let circuit = Parse.fault_tree ~num_inputs:6 "atleast(3; x0, x1, x2, x3, x4, x5)" in
  let m = M.create ~num_vars:6 () in
  let root, _ = Compile.of_circuit m circuit ~var_of_input:Fun.id in
  M.collect m;
  (* size counts the immortal sink; alive counts only nonterminals *)
  Alcotest.(check int) "alive = root cone" (M.size m root - 1) (M.alive m)

let test_compile_constant_output () =
  let circuit = Parse.fault_tree ~num_inputs:1 "x0 & !x0" in
  let m = M.create ~num_vars:1 () in
  let root, _ = Compile.of_circuit m circuit ~var_of_input:Fun.id in
  Alcotest.(check int) "contradiction compiles to zero" M.zero root

let circuit_of_rexpr e =
  let b = C.builder ~num_inputs:nvars_prop () in
  let rec build = function
    | RVar i -> C.input b i
    | RNot x -> C.not_ b (build x)
    | RAnd (x, y) -> C.and_ b [ build x; build y ]
    | ROr (x, y) -> C.or_ b [ build x; build y ]
    | RXor (x, y) -> C.xor_ b [ build x; build y ]
  in
  C.finish b ~name:"prop" (build e)

let prop_compile_matches_interpreter =
  QCheck.Test.make ~name:"compiled circuit equals interpreter" ~count:200
    (arb_rexpr nvars_prop)
    (fun e ->
      let circuit = circuit_of_rexpr e in
      let m = M.create ~num_vars:nvars_prop () in
      let root, _ = Compile.of_circuit m circuit ~var_of_input:Fun.id in
      List.for_all
        (fun mask ->
          let env v = (mask lsr v) land 1 = 1 in
          rexpr_eval env e = M.eval m root env)
        (List.init (1 lsl nvars_prop) Fun.id))

(* Wide-gate circuits: each gate takes 2–17 operands drawn from the inputs
   and the earlier gates (one operand for [Not]); the last gate is the
   output. *)
let wide_nvars = 7

let wide_kinds = [| C.And; C.Or; C.Xor; C.Nand; C.Nor; C.Xnor; C.Not |]

let gen_wide_circuit =
  QCheck.Gen.(
    int_range 1 8 >>= fun ngates ->
    let rec gates k acc =
      if k = ngates then return (List.rev acc)
      else
        int_bound (Array.length wide_kinds - 1) >>= fun kind ->
        (if wide_kinds.(kind) = C.Not then return 1 else int_range 2 17)
        >>= fun fan_in ->
        array_repeat fan_in (int_bound (wide_nvars + k - 1)) >>= fun args ->
        gates (k + 1) ((kind, args) :: acc)
    in
    gates 0 [])

let wide_print spec =
  String.concat "; "
    (List.map
       (fun (kind, args) ->
         Printf.sprintf "%s(%s)"
           (C.gate_kind_name wide_kinds.(kind))
           (String.concat "," (Array.to_list (Array.map string_of_int args))))
       spec)

(* Operand [j] is input [j] below [wide_nvars], else gate [j - wide_nvars]. *)
let wide_circuit spec =
  let b = C.builder ~num_inputs:wide_nvars () in
  let nodes = ref (Array.init wide_nvars (C.input b)) in
  List.iter
    (fun (kind, args) ->
      let g = C.gate b wide_kinds.(kind) (List.map (fun j -> !nodes.(j)) (Array.to_list args)) in
      nodes := Array.append !nodes [| g |])
    spec;
  C.finish b ~name:"wide" !nodes.(Array.length !nodes - 1)

(* The compiler before balanced reduction: a memoized walk that left-folds
   every n-ary gate, threading ownership through the accumulator. Returns
   an owned root and releases every intermediate. *)
let left_fold_reference m circuit ~var_of_input =
  let memo = Hashtbl.create 64 in
  let rec go (n : C.node) =
    match Hashtbl.find_opt memo n.C.id with
    | Some h -> h
    | None ->
        let fold op args =
          let hs = Array.map go args in
          let acc = ref hs.(0) in
          M.ref_ m !acc;
          for i = 1 to Array.length hs - 1 do
            let next = op m !acc hs.(i) in
            M.deref m !acc;
            acc := next
          done;
          !acc
        in
        let negate h =
          let r = M.not_ m h in
          M.deref m h;
          r
        in
        let h =
          match n.C.desc with
          | C.Input i -> M.var m (var_of_input i)
          | C.Const false -> M.zero
          | C.Const true -> M.one
          | C.Gate (C.And, args) -> fold M.and_ args
          | C.Gate (C.Or, args) -> fold M.or_ args
          | C.Gate (C.Xor, args) -> fold M.xor_ args
          | C.Gate (C.Not, args) -> M.not_ m (go args.(0))
          | C.Gate (C.Nand, args) -> negate (fold M.and_ args)
          | C.Gate (C.Nor, args) -> negate (fold M.or_ args)
          | C.Gate (C.Xnor, args) -> negate (fold M.xor_ args)
        in
        Hashtbl.add memo n.C.id h;
        h
  in
  let root = go circuit.C.output in
  M.ref_ m root;
  Hashtbl.iter (fun _ h -> M.deref m h) memo;
  root

let prop_pairwise_matches_left_fold =
  QCheck.Test.make
    ~name:"balanced gate reduction = left fold, no intermediate leaks"
    ~count:300
    QCheck.(
      pair
        (make ~print:wide_print gen_wide_circuit)
        (make ~print:Print.(list int) Gen.(shuffle_l (List.init wide_nvars Fun.id))))
    (fun (spec, order) ->
      let perm = Array.of_list order in
      let var_of_input i = perm.(i) in
      let circuit = wide_circuit spec in
      let m = M.create ~num_vars:wide_nvars () in
      let root, _ = Compile.of_circuit m circuit ~var_of_input in
      let reference = left_fold_reference m circuit ~var_of_input in
      let same = root = reference in
      M.deref m root;
      M.deref m reference;
      M.check_invariants m;
      same && M.alive m = 0)

(* ------------------------------------------------------------------ *)
(* Post-build walks against reference hash-table walks                 *)
(* ------------------------------------------------------------------ *)

(* Plain recursive walks memoized in a [Hashtbl] over regular handles —
   the shape the engine's array-indexed walks replaced. *)
let reference_size m roots =
  let seen = Hashtbl.create 64 in
  let rec go h =
    let r = M.regular h in
    if not (Hashtbl.mem seen r) then begin
      Hashtbl.add seen r ();
      if not (M.is_terminal r) then begin
        go (M.low m r);
        go (M.high m r)
      end
    end
  in
  List.iter go roots;
  Hashtbl.length seen

let reference_probability m n ~p =
  let memo = Hashtbl.create 64 in
  let rec value h =
    let r = M.regular h in
    let v =
      if M.is_terminal r then 1.0
      else
        match Hashtbl.find_opt memo r with
        | Some v -> v
        | None ->
            let pv = p (M.var_of m r) in
            let v = (pv *. value (M.high m r)) +. ((1.0 -. pv) *. value (M.low m r)) in
            Hashtbl.add memo r v;
            v
    in
    if M.is_complemented h then 1.0 -. v else v
  in
  value n

(* Two random circuits compiled into one manager under a random variable
   order: the walks must count, order and value exactly like the
   references — probabilities bit for bit. *)
let prop_walks_match_reference =
  QCheck.Test.make ~name:"size, size_multi, iter_reachable, probability = reference"
    ~count:300
    QCheck.(
      triple (arb_rexpr nvars_prop) (arb_rexpr nvars_prop)
        (make ~print:Print.(list int) Gen.(shuffle_l (List.init nvars_prop Fun.id))))
    (fun (e1, e2, order) ->
      let perm = Array.of_list order in
      let m = M.create ~num_vars:nvars_prop () in
      let compile e =
        fst (Compile.of_circuit m (circuit_of_rexpr e) ~var_of_input:(fun i -> perm.(i)))
      in
      let f = compile e1 in
      let g = compile e2 in
      let visited = Hashtbl.create 64 in
      let children_first = ref true in
      M.iter_reachable m f (fun x ->
          if Hashtbl.mem visited x then children_first := false;
          if not (M.is_terminal x) then
            List.iter
              (fun c ->
                if not (Hashtbl.mem visited (M.regular c)) then children_first := false)
              [ M.low m x; M.high m x ];
          Hashtbl.add visited x ());
      let p v = 0.1 +. (0.15 *. float_of_int v) in
      !children_first
      && Hashtbl.length visited = reference_size m [ f ]
      && M.size m f = reference_size m [ f ]
      && M.size m g = reference_size m [ g ]
      && M.size_multi m [ f; g; M.not_ m f ] = reference_size m [ f; g ]
      && M.size_multi m [] = 0
      && Int64.bits_of_float (M.probability m f ~p)
         = Int64.bits_of_float (reference_probability m f ~p)
      && Int64.bits_of_float (M.probability m g ~p)
         = Int64.bits_of_float (reference_probability m g ~p))

(* ------------------------------------------------------------------ *)
(* Minimal cut sets                                                    *)
(* ------------------------------------------------------------------ *)

module Cutsets = Socy_bdd.Cutsets

let test_cutsets_basic () =
  let sets = Cutsets.of_circuit (Parse.fault_tree "x0 & x1 | x2") in
  Alcotest.(check (list (list int))) "and-or" [ [ 2 ]; [ 0; 1 ] ] sets;
  let sets = Cutsets.of_circuit (Parse.fault_tree "atleast(2; x0, x1, x2)") in
  Alcotest.(check (list (list int))) "2-of-3" [ [ 0; 1 ]; [ 0; 2 ]; [ 1; 2 ] ] sets;
  let sets = Cutsets.of_circuit (Parse.fault_tree "x0 | x0 & x1") in
  Alcotest.(check (list (list int))) "absorption" [ [ 0 ] ] sets

let test_cutsets_terminals () =
  let m = M.create ~num_vars:3 () in
  Alcotest.(check int) "zero has none" 0 (Cutsets.count m M.zero);
  Alcotest.(check int) "one has the empty cut" 1 (Cutsets.count m M.one);
  Alcotest.(check (list (list int))) "one enumerates empty" [ [] ]
    (Cutsets.enumerate m M.one)

let test_cutsets_count_and_limit () =
  let circuit = Parse.fault_tree "atleast(3; x0, x1, x2, x3, x4, x5)" in
  let m = M.create ~num_vars:6 () in
  let root, _ = Compile.of_circuit m circuit ~var_of_input:Fun.id in
  Alcotest.(check int) "C(6,3)" 20 (Cutsets.count m root);
  Alcotest.(check int) "limit respected" 5
    (List.length (Cutsets.enumerate ~limit:5 m root))

(* Brute-force minimal true points of a monotone function. *)
let brute_minimal_cuts circuit n =
  let eval mask = C.eval circuit (fun i -> (mask lsr i) land 1 = 1) in
  let cuts = ref [] in
  for mask = 0 to (1 lsl n) - 1 do
    if eval mask then begin
      let minimal = ref true in
      for i = 0 to n - 1 do
        if (mask lsr i) land 1 = 1 && eval (mask land lnot (1 lsl i)) then
          minimal := false
      done;
      if !minimal then begin
        let set = List.filter (fun i -> (mask lsr i) land 1 = 1) (List.init n Fun.id) in
        cuts := set :: !cuts
      end
    end
  done;
  List.sort
    (fun a b ->
      let c = compare (List.length a) (List.length b) in
      if c <> 0 then c else compare a b)
    !cuts

(* Random monotone circuits: AND/OR over positive literals. *)
type mono = MVar of int | MAndM of mono * mono | MOrM of mono * mono

let rec mono_print = function
  | MVar i -> Printf.sprintf "x%d" i
  | MAndM (a, b) -> Printf.sprintf "(%s&%s)" (mono_print a) (mono_print b)
  | MOrM (a, b) -> Printf.sprintf "(%s|%s)" (mono_print a) (mono_print b)

let gen_mono num_vars =
  QCheck.Gen.(
    sized_size (int_bound 8)
    @@ fix (fun self size ->
           if size <= 0 then map (fun i -> MVar i) (int_bound (num_vars - 1))
           else
             frequency
               [
                 (1, map (fun i -> MVar i) (int_bound (num_vars - 1)));
                 (2, map2 (fun a b -> MAndM (a, b)) (self (size / 2)) (self (size / 2)));
                 (2, map2 (fun a b -> MOrM (a, b)) (self (size / 2)) (self (size / 2)));
               ]))

let prop_cutsets_match_brute_force =
  QCheck.Test.make ~name:"minimal cut sets equal brute-force minimal points"
    ~count:200
    (QCheck.make ~print:mono_print (gen_mono 6))
    (fun e ->
      let circuit = Parse.fault_tree ~num_inputs:6 (mono_print e) in
      Cutsets.of_circuit circuit = brute_minimal_cuts circuit 6)

let qsuite name tests = (name, List.map QCheck_alcotest.to_alcotest tests)

(* ------------------------------------------------------------------ *)
(* Stack safety on deep diagrams, delta publishing                     *)
(* ------------------------------------------------------------------ *)

(* Conjunction x0 & … & x(n-1) built bottom-up, so each [and_] is O(1)
   while the result is an n-node-deep chain: any traversal that recursed
   on diagram depth would overflow the OCaml stack here. *)
let deep_chain m n =
  let chain = ref M.one in
  for v = n - 1 downto 0 do
    let x = M.var m v in
    let nxt = M.and_ m x !chain in
    M.deref m x;
    M.deref m !chain;
    chain := nxt
  done;
  !chain

let deep_n = 220_000

let test_deep_chain_ops () =
  with_manager deep_n (fun m ->
      let chain = deep_chain m deep_n in
      (* iter_reachable (via size/support) over the whole chain *)
      Alcotest.(check int) "size" (deep_n + 1) (M.size m chain);
      Alcotest.(check int) "support" deep_n (List.length (M.support m chain));
      (* ite descends the full depth: not_ chain = ite (chain, 0, 1) *)
      let neg = M.not_ m chain in
      Alcotest.(check bool) "chain eval" true (M.eval m chain (fun _ -> true));
      Alcotest.(check bool) "neg eval" false (M.eval m neg (fun _ -> true));
      (* ¬chain shares every physical node with chain under complement edges *)
      Alcotest.(check int) "neg size" (deep_n + 1) (M.size m neg);
      Alcotest.(check int) "size_multi" (deep_n + 1) (M.size_multi m [ chain; neg ]);
      let visits = ref 0 in
      M.iter_reachable m neg (fun _ -> incr visits);
      Alcotest.(check int) "iter_reachable" (deep_n + 1) !visits;
      (* probability: all-true assignment has mass 1 *)
      Alcotest.(check (float 1e-12)) "probability" 1.0
        (M.probability m chain ~p:(fun _ -> 1.0));
      (* deref cascades the kill down the whole neg cone *)
      M.deref m neg;
      M.deref m chain)

let test_deep_chain_cofactors () =
  with_manager deep_n (fun m ->
      let chain = deep_chain m deep_n in
      let restricted = M.restrict m chain ~var:(deep_n - 1) ~value:true in
      Alcotest.(check int) "restricted size" deep_n (M.size m restricted);
      let exd = M.exists m [ deep_n - 1 ] chain in
      Alcotest.(check bool) "exists = restrict true" true (exd = restricted);
      M.deref m exd;
      M.deref m restricted;
      M.deref m chain)

let test_publish_obs_delta () =
  let module Obs = Socy_obs.Obs in
  Obs.reset ();
  Obs.set_enabled true;
  Fun.protect
    ~finally:(fun () ->
      Obs.set_enabled false;
      Obs.reset ())
    (fun () ->
      let counter name = Obs.counter_value (Obs.counter name) in
      with_manager 6 (fun m ->
          let x = M.var m 0 and y = M.var m 1 in
          let f = M.and_ m x y in
          M.publish_obs m;
          M.publish_obs m;
          (* Publishing twice must not double-count: the registry still
             equals the manager's own totals. *)
          let s = M.stats m in
          Alcotest.(check int) "created not doubled" s.M.created
            (counter "bdd.created");
          Alcotest.(check int) "unique hits not doubled" s.M.unique_hits
            (counter "bdd.unique_hits");
          Alcotest.(check int) "cache misses not doubled" s.M.cache_misses
            (counter "bdd.ite_cache_misses");
          (* More work, then a third publish: only the delta lands. *)
          let g = M.or_ m f x in
          M.publish_obs m;
          let s2 = M.stats m in
          Alcotest.(check int) "created delta" s2.M.created
            (counter "bdd.created");
          Alcotest.(check int) "cache hits delta" s2.M.cache_hits
            (counter "bdd.ite_cache_hits");
          M.deref m g;
          M.deref m f;
          M.deref m x;
          M.deref m y))

let () =
  Alcotest.run "socy_bdd"
    [
      ( "basics",
        [
          Alcotest.test_case "terminals" `Quick test_terminals;
          Alcotest.test_case "var semantics" `Quick test_var_semantics;
          Alcotest.test_case "structure access" `Quick test_structure_access;
          Alcotest.test_case "canonicity" `Quick test_canonicity_same_function_same_node;
          Alcotest.test_case "ite identities" `Quick test_ite_identities;
          Alcotest.test_case "xor/imp" `Quick test_xor_imp;
        ] );
      ( "cofactor",
        [
          Alcotest.test_case "restrict" `Quick test_restrict;
          Alcotest.test_case "exists/forall" `Quick test_exists_forall;
          Alcotest.test_case "support/any_sat" `Quick test_support_any_sat;
        ] );
      ( "counting",
        [
          Alcotest.test_case "sat fraction" `Quick test_sat_fraction;
          Alcotest.test_case "probability" `Quick test_probability;
          Alcotest.test_case "size" `Quick test_size;
        ] );
      ( "memory",
        [
          Alcotest.test_case "kill/resurrect" `Quick test_refcount_kill_resurrect;
          Alcotest.test_case "deref underflow" `Quick test_deref_underflow;
          Alcotest.test_case "collect" `Quick test_collect_reclaims_and_preserves;
          Alcotest.test_case "peak tracking" `Quick test_peak_tracking;
          Alcotest.test_case "node limit" `Quick test_node_limit;
          Alcotest.test_case "dot export" `Quick test_to_dot;
        ] );
      qsuite "props"
        [
          prop_bdd_matches_semantics;
          prop_canonicity;
          prop_sat_fraction_counts;
          prop_refcounts_survive_gc;
        ];
      qsuite "complement-props"
        [
          prop_no_complemented_else_edge;
          prop_double_negation_physical;
          prop_ite_truth_table;
          prop_probability_complement_exact;
        ];
      ( "compile",
        [
          Alcotest.test_case "simple" `Quick test_compile_simple;
          Alcotest.test_case "permuted variables" `Quick test_compile_var_permutation;
          Alcotest.test_case "releases intermediates" `Quick test_compile_releases_intermediates;
          Alcotest.test_case "constant output" `Quick test_compile_constant_output;
        ] );
      qsuite "compile-props"
        [ prop_compile_matches_interpreter; prop_pairwise_matches_left_fold ];
      qsuite "walk-props" [ prop_walks_match_reference ];
      ( "cutsets",
        [
          Alcotest.test_case "basic" `Quick test_cutsets_basic;
          Alcotest.test_case "terminals" `Quick test_cutsets_terminals;
          Alcotest.test_case "count and limit" `Quick test_cutsets_count_and_limit;
        ] );
      qsuite "cutsets-props" [ prop_cutsets_match_brute_force ];
      ( "deep-diagrams",
        [
          Alcotest.test_case "ops on a 220k-deep chain" `Quick test_deep_chain_ops;
          Alcotest.test_case "cofactors on a 220k-deep chain" `Quick
            test_deep_chain_cofactors;
          Alcotest.test_case "publish_obs is delta-based" `Quick
            test_publish_obs_delta;
        ] );
    ]
