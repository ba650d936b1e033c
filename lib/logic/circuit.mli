(** Gate-level combinational circuits (fault trees).

    The paper assumes "a gate-level description of the [fault-tree] function
    is available"; this module is that substrate. Circuits are DAGs of n-ary
    gates over a dense set of input variables. Structurally identical
    subcircuits are shared (hash-consed) by the builder, so node identity is
    meaningful and traversals visit each distinct gate once.

    The fault-tree convention throughout the repository: input [i] is the
    "component [i] failed" indicator and the output is 1 iff the system is
    {e not} functioning. *)

type gate_kind = And | Or | Not | Xor | Nand | Nor | Xnor

type node = private { id : int; desc : desc }

and desc =
  | Input of int  (** input variable index, [0 <= i < num_inputs] *)
  | Const of bool
  | Gate of gate_kind * node array
      (** fan-in order is significant: the ordering heuristics depend on it *)

type t = {
  output : node;
  num_inputs : int;
  name : string;  (** for reports; "" when anonymous *)
}

(** {1 Building circuits} *)

(** A builder owns the hash-consing tables; nodes from different builders
    must not be mixed (checked by construction: all public entry points take
    the builder). *)
type builder

(** [builder ~num_inputs ()] is a fresh builder for circuits over inputs
    [0 .. num_inputs-1]. *)
val builder : num_inputs:int -> unit -> builder

(** [input b i] is the input variable [i]. Raises [Invalid_argument] when
    out of range. *)
val input : builder -> int -> node

(** Boolean constant. *)
val const : builder -> bool -> node

(** [gate b kind args] is the n-ary gate node. [Not] requires exactly one
    argument; other kinds require at least one. No simplification is
    performed beyond hash-consing: the gate-level description is preserved
    as written, as the variable-ordering heuristics are sensitive to it. *)
val gate : builder -> gate_kind -> node list -> node

val and_ : builder -> node list -> node
val or_ : builder -> node list -> node
val not_ : builder -> node -> node
val xor_ : builder -> node list -> node

(** [at_least b k args] is a gate network computing "at least [k] of the
    [args] are 1", synthesized by the standard dynamic program
    th(k; x1..xn) = x1·th(k-1; x2..xn) + th(k; x2..xn) with memoization,
    yielding O(k·n) gates. [k <= 0] gives [const true]; [k > n] gives
    [const false]. *)
val at_least : builder -> int -> node list -> node

(** [at_most b k args] = not (at_least (k+1) args). *)
val at_most : builder -> int -> node list -> node

(** [exactly b k args] = at_least k args ∧ at_most k args. *)
val exactly : builder -> int -> node list -> node

(** [finish b ~name output] packages a circuit rooted at [output]. *)
val finish : builder -> name:string -> node -> t

(** [substitute b circuit ~subst] rebuilds [circuit] inside builder [b],
    replacing every [Input i] by [subst i]. Used to plug the component-failed
    expressions into the fault tree when constructing the function G of the
    paper (Fig. 1). Gate structure is preserved verbatim. *)
val substitute : builder -> t -> subst:(int -> node) -> node

(** {1 Observing circuits} *)

(** [eval c assignment] evaluates the circuit; [assignment i] is the value
    of input [i]. *)
val eval : t -> (int -> bool) -> bool

(** Number of distinct gate nodes (inputs and constants excluded), the
    quantity reported in the paper's Table 1. *)
val gate_count : t -> int

(** Number of distinct nodes of every kind. *)
val node_count : t -> int

(** Indices of inputs actually reachable from the output, increasing. *)
val inputs_used : t -> int list

(** [postorder c] is a depth-first, left-most postorder of the distinct
    nodes (every node after its fan-ins). *)
val postorder : t -> node list

(** [fanout c] maps node id to the number of distinct parents in the DAG
    (the output has an implicit extra reference, not counted). *)
val fanout : t -> (int, int) Hashtbl.t

(** [reduce_pairwise combine xs] reduces the fan-in values [xs] of an
    n-ary gate in balanced rounds: each round combines neighbours
    [(x1, x2)], [(x3, x4)], … in order, and an odd last operand carries
    over to the next round, until one value is left. [combine] runs
    [length xs - 1] times, in a fixed order that depends only on
    [length xs]; a one-element array returns its element without calling
    [combine]. Against a left fold, an absorbed operand is met by a small
    partial result instead of the whole accumulator, which is what makes
    wide gates cheap to build as diagrams. [xs] is not modified. Raises
    [Invalid_argument] on an empty array. *)
val reduce_pairwise : ('a -> 'a -> 'a) -> 'a array -> 'a

(** Graphviz rendering, for debugging and documentation. *)
val to_dot : t -> string

(** Human-readable gate-kind name. *)
val gate_kind_name : gate_kind -> string
