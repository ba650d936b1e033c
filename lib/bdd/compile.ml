module C = Socy_logic.Circuit
module Obs = Socy_obs.Obs

type stats = {
  peak_nodes : int;
  final_size : int;
  created : int;
  gc_runs : int;
  reorders : int;
  reorder_swaps : int;
}

let of_circuit ?(gc_threshold = 500_000) ?(reorder = false)
    ?(reorder_threshold = 4_096) m circuit ~var_of_input =
  Manager.reset_peak m;
  let created_before = Manager.created_total m in
  let gc_before = Manager.gc_count m in
  let rstats_before = Manager.reorder_stats m in
  (* CUDD-style doubling schedule: sift once the live count crosses the
     threshold, then push the threshold to twice the post-sift size so a
     converged build stops paying for reordering. *)
  let next_reorder = ref (max reorder_threshold 1) in
  let maybe_reorder () =
    if reorder && Manager.alive m >= !next_reorder then begin
      Manager.sift m;
      next_reorder := max (2 * Manager.alive m) (max reorder_threshold 1)
    end
  in
  let order = C.postorder circuit in
  let fanout = C.fanout circuit in
  (* Circuit ids are dense (allocated by a per-builder counter), so flat
     int arrays replace the former polymorphic hash tables on the compile
     hot path — no hashing, no boxing. *)
  let max_id = List.fold_left (fun acc (n : C.node) -> max acc n.C.id) 0 order in
  (* Remaining consumers per circuit node; the output gets one synthetic
     consumer so its BDD ownership survives and transfers to the caller. *)
  let remaining = Array.make (max_id + 1) 0 in
  List.iter
    (fun (n : C.node) ->
      let f = Option.value ~default:0 (Hashtbl.find_opt fanout n.C.id) in
      let extra = if n.C.id = circuit.C.output.C.id then 1 else 0 in
      remaining.(n.C.id) <- f + extra)
    order;
  let bdd_of = Array.make (max_id + 1) (-1) in
  let lookup (n : C.node) = bdd_of.(n.C.id) in
  let consume (n : C.node) =
    let r = remaining.(n.C.id) - 1 in
    remaining.(n.C.id) <- r;
    if r = 0 then Manager.deref m (lookup n)
  in
  (* Balanced pairwise reduction of a binary manager operation over a
     fan-in array: every operand is owned (leaves are [ref_]'d), and each
     combine step releases both of its operands, so exactly the result
     survives. *)
  let reduce_op op (args : C.node array) =
    let owned (n : C.node) =
      let h = lookup n in
      Manager.ref_ m h;
      h
    in
    C.reduce_pairwise
      (fun a b ->
        let r = op m a b in
        Manager.deref m a;
        Manager.deref m b;
        r)
      (Array.map owned args)
  in
  let negate owned =
    let r = Manager.not_ m owned in
    Manager.deref m owned;
    r
  in
  let compile_gate kind args =
    match (kind : C.gate_kind) with
    | C.And -> reduce_op Manager.and_ args
    | C.Or -> reduce_op Manager.or_ args
    | C.Xor -> reduce_op Manager.xor_ args
    | C.Not -> Manager.not_ m (lookup args.(0))
    | C.Nand -> negate (reduce_op Manager.and_ args)
    | C.Nor -> negate (reduce_op Manager.or_ args)
    | C.Xnor -> negate (reduce_op Manager.xor_ args)
  in
  (* Static span names: per-gate tracing must not allocate per gate. *)
  let gate_span = function
    | C.And -> "gate.and"
    | C.Or -> "gate.or"
    | C.Xor -> "gate.xor"
    | C.Not -> "gate.not"
    | C.Nand -> "gate.nand"
    | C.Nor -> "gate.nor"
    | C.Xnor -> "gate.xnor"
  in
  let gates_counter = Obs.counter "bdd.compile.gates" in
  Obs.with_span "bdd.compile" (fun () ->
      List.iter
        (fun (n : C.node) ->
          let bdd =
            match n.C.desc with
            | C.Input i -> Manager.var m (var_of_input i)
            | C.Const false -> Manager.zero
            | C.Const true -> Manager.one
            | C.Gate (kind, args) ->
                let bdd =
                  Obs.with_span (gate_span kind) (fun () -> compile_gate kind args)
                in
                Obs.incr gates_counter;
                Array.iter consume args;
                bdd
          in
          bdd_of.(n.C.id) <- bdd;
          if Manager.dead m >= gc_threshold then Manager.collect m;
          maybe_reorder ())
        order);
  let root = lookup circuit.C.output in
  let rstats_after = Manager.reorder_stats m in
  let stats =
    {
      peak_nodes = Manager.peak_alive m;
      final_size = Manager.size m root;
      created = Manager.created_total m - created_before;
      gc_runs = Manager.gc_count m - gc_before;
      reorders = rstats_after.Manager.runs - rstats_before.Manager.runs;
      reorder_swaps =
        rstats_after.Manager.swaps - rstats_before.Manager.swaps;
    }
  in
  (root, stats)

(* Parallel compilation: the same postorder gate walk, but over [Pbdd]
   operations into the concurrent store — no refcounting, no GC, no
   reordering (the store is append-only; [peak_nodes] = [created] is the
   honest peak analog). The finished root is imported into [m], so the
   caller receives exactly what [of_circuit] would have handed it: an
   owned root in a sequential manager, plus build stats. *)
let of_circuit_par pb m circuit ~var_of_input =
  Manager.reset_peak m;
  let order = C.postorder circuit in
  let max_id = List.fold_left (fun acc (n : C.node) -> max acc n.C.id) 0 order in
  let bdd_of = Array.make (max_id + 1) (-1) in
  let lookup (n : C.node) = bdd_of.(n.C.id) in
  let reduce_op op (args : C.node array) =
    C.reduce_pairwise (op pb) (Array.map lookup args)
  in
  let compile_gate kind args =
    match (kind : C.gate_kind) with
    | C.And -> reduce_op Pbdd.and_ args
    | C.Or -> reduce_op Pbdd.or_ args
    | C.Xor -> reduce_op Pbdd.xor_ args
    | C.Not -> Pbdd.not_ pb (lookup args.(0))
    | C.Nand -> reduce_op Pbdd.and_ args lxor 1
    | C.Nor -> reduce_op Pbdd.or_ args lxor 1
    | C.Xnor -> reduce_op Pbdd.xor_ args lxor 1
  in
  let gates_counter = Obs.counter "bdd.compile.gates" in
  Obs.with_span "bdd.compile.par" (fun () ->
      List.iter
        (fun (n : C.node) ->
          let bdd =
            match n.C.desc with
            | C.Input i -> Pbdd.var pb (var_of_input i)
            | C.Const false -> Pbdd.zero
            | C.Const true -> Pbdd.one
            | C.Gate (kind, args) ->
                let r = compile_gate kind args in
                Obs.incr gates_counter;
                r
          in
          bdd_of.(n.C.id) <- bdd)
        order);
  let proot = lookup circuit.C.output in
  let root = Obs.with_span "bdd.import" (fun () -> Pbdd.import pb proot m) in
  let created = Pbdd.created pb in
  let stats =
    {
      peak_nodes = created;
      final_size = Manager.size m root;
      created;
      gc_runs = 0;
      reorders = 0;
      reorder_swaps = 0;
    }
  in
  (root, stats)
