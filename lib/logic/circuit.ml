type gate_kind = And | Or | Not | Xor | Nand | Nor | Xnor

type node = { id : int; desc : desc }

and desc =
  | Input of int
  | Const of bool
  | Gate of gate_kind * node array

type t = { output : node; num_inputs : int; name : string }

(* Hash-consing key: gates compare by kind and argument ids. *)
module Key = struct
  type t = K_input of int | K_const of bool | K_gate of gate_kind * int array

  let equal a b =
    match (a, b) with
    | K_input i, K_input j -> i = j
    | K_const x, K_const y -> x = y
    | K_gate (k1, a1), K_gate (k2, a2) ->
        k1 = k2
        && Array.length a1 = Array.length a2
        &&
        let rec loop i =
          i >= Array.length a1 || (a1.(i) = a2.(i) && loop (i + 1))
        in
        loop 0
    | (K_input _ | K_const _ | K_gate _), _ -> false

  let hash = function
    | K_input i -> (i * 0x9E3779B1) lxor 0x55
    | K_const b -> if b then 0x3333 else 0x7777
    | K_gate (k, args) ->
        let h = ref (Hashtbl.hash k) in
        Array.iter (fun a -> h := (!h * 31) + a + 1) args;
        !h land max_int
end

module Tbl = Hashtbl.Make (Key)

type builder = {
  num_inputs : int;
  table : node Tbl.t;
  mutable next_id : int;
}

let builder ~num_inputs () =
  if num_inputs < 0 then invalid_arg "Circuit.builder: negative num_inputs";
  { num_inputs; table = Tbl.create 1024; next_id = 0 }

let intern b key desc =
  match Tbl.find_opt b.table key with
  | Some n -> n
  | None ->
      let n = { id = b.next_id; desc } in
      b.next_id <- b.next_id + 1;
      Tbl.add b.table key n;
      n

let input b i =
  if i < 0 || i >= b.num_inputs then invalid_arg "Circuit.input: out of range";
  intern b (Key.K_input i) (Input i)

let const b v = intern b (Key.K_const v) (Const v)

let gate b kind args =
  (match (kind, args) with
  | Not, [ _ ] -> ()
  | Not, _ -> invalid_arg "Circuit.gate: Not takes exactly one argument"
  | (And | Or | Xor | Nand | Nor | Xnor), [] ->
      invalid_arg "Circuit.gate: empty fan-in"
  | (And | Or | Xor | Nand | Nor | Xnor), _ -> ());
  match args with
  | [ single ] when kind = And || kind = Or -> single
  | _ ->
      let arr = Array.of_list args in
      let ids = Array.map (fun n -> n.id) arr in
      intern b (Key.K_gate (kind, ids)) (Gate (kind, arr))

let and_ b args = gate b And args
let or_ b args = gate b Or args
let not_ b arg = gate b Not [ arg ]
let xor_ b args = gate b Xor args

let at_least b k args =
  let arr = Array.of_list args in
  let n = Array.length arr in
  if k <= 0 then const b true
  else if k > n then const b false
  else begin
    (* th j i = "at least j of arr.(i..n-1)", by the recurrence
       th(j,i) = x_i·th(j-1,i+1) + th(j,i+1), memoized: O(k·n) gates. *)
    let top = const b true and bottom = const b false in
    let memo = Hashtbl.create ((n * k) + 1) in
    let rec th j i =
      if j <= 0 then top
      else if j > n - i then bottom
      else
        match Hashtbl.find_opt memo (j, i) with
        | Some node -> node
        | None ->
            let with_xi = th (j - 1) (i + 1) in
            let without_xi = th j (i + 1) in
            let taken =
              if with_xi == top then arr.(i) else and_ b [ arr.(i); with_xi ]
            in
            let node =
              if without_xi == bottom then taken else or_ b [ taken; without_xi ]
            in
            Hashtbl.add memo (j, i) node;
            node
    in
    th k 0
  end

let at_most b k args = not_ b (at_least b (k + 1) args)

let exactly b k args = and_ b [ at_least b k args; at_most b k args ]

let finish b ~name output = { output; num_inputs = b.num_inputs; name }

let substitute b circuit ~subst =
  let memo = Hashtbl.create 256 in
  let rec go node =
    match Hashtbl.find_opt memo node.id with
    | Some n -> n
    | None ->
        let n =
          match node.desc with
          | Input i -> subst i
          | Const v -> const b v
          | Gate (kind, args) ->
              gate b kind (Array.to_list (Array.map go args))
        in
        Hashtbl.add memo node.id n;
        n
  in
  go circuit.output

let eval c assignment =
  let memo = Hashtbl.create 256 in
  let rec go node =
    match Hashtbl.find_opt memo node.id with
    | Some v -> v
    | None ->
        let v =
          match node.desc with
          | Input i -> assignment i
          | Const b -> b
          | Gate (kind, args) -> (
              let vals = Array.map go args in
              match kind with
              | And -> Array.for_all Fun.id vals
              | Or -> Array.exists Fun.id vals
              | Not -> not vals.(0)
              | Xor -> Array.fold_left (fun a x -> a <> x) false vals
              | Nand -> not (Array.for_all Fun.id vals)
              | Nor -> not (Array.exists Fun.id vals)
              | Xnor -> not (Array.fold_left (fun a x -> a <> x) false vals))
        in
        Hashtbl.add memo node.id v;
        v
  in
  go c.output

let iter_nodes c f =
  let seen = Hashtbl.create 256 in
  let rec go node =
    if not (Hashtbl.mem seen node.id) then begin
      Hashtbl.add seen node.id ();
      (match node.desc with
      | Input _ | Const _ -> ()
      | Gate (_, args) -> Array.iter go args);
      f node
    end
  in
  go c.output

let gate_count c =
  let n = ref 0 in
  iter_nodes c (fun node ->
      match node.desc with Gate _ -> incr n | Input _ | Const _ -> ());
  !n

let node_count c =
  let n = ref 0 in
  iter_nodes c (fun _ -> incr n);
  !n

let inputs_used c =
  let acc = ref [] in
  iter_nodes c (fun node ->
      match node.desc with
      | Input i -> acc := i :: !acc
      | Gate _ | Const _ -> ());
  List.sort_uniq compare !acc

let postorder c =
  let acc = ref [] in
  iter_nodes c (fun node -> acc := node :: !acc);
  List.rev !acc

let fanout c =
  let counts = Hashtbl.create 256 in
  iter_nodes c (fun node ->
      match node.desc with
      | Input _ | Const _ -> ()
      | Gate (_, args) ->
          Array.iter
            (fun a ->
              let cur = Option.value ~default:0 (Hashtbl.find_opt counts a.id) in
              Hashtbl.replace counts a.id (cur + 1))
            args);
  counts

let reduce_pairwise combine xs =
  let n = Array.length xs in
  if n = 0 then invalid_arg "Circuit.reduce_pairwise: empty fan-in";
  if n = 1 then xs.(0)
  else begin
    (* Round 1 reads [xs]; later rounds overwrite [acc] in place, which is
       safe because slot [i] is written only after slots [2i], [2i+1] were
       read. *)
    let acc = Array.make ((n + 1) / 2) xs.(0) in
    let round src len =
      for i = 0 to (len / 2) - 1 do
        acc.(i) <- combine src.(2 * i) src.((2 * i) + 1)
      done;
      if len land 1 = 1 then acc.(len / 2) <- src.(len - 1);
      (len + 1) / 2
    in
    let len = ref (round xs n) in
    while !len > 1 do
      len := round acc !len
    done;
    acc.(0)
  end

let gate_kind_name = function
  | And -> "AND"
  | Or -> "OR"
  | Not -> "NOT"
  | Xor -> "XOR"
  | Nand -> "NAND"
  | Nor -> "NOR"
  | Xnor -> "XNOR"

let to_dot c =
  let buf = Buffer.create 1024 in
  Buffer.add_string buf "digraph circuit {\n  rankdir=BT;\n";
  iter_nodes c (fun node ->
      let label =
        match node.desc with
        | Input i -> Printf.sprintf "x%d" i
        | Const b -> if b then "1" else "0"
        | Gate (kind, _) -> gate_kind_name kind
      in
      Buffer.add_string buf
        (Printf.sprintf "  n%d [label=\"%s\"];\n" node.id label);
      match node.desc with
      | Input _ | Const _ -> ()
      | Gate (_, args) ->
          Array.iter
            (fun a ->
              Buffer.add_string buf (Printf.sprintf "  n%d -> n%d;\n" a.id node.id))
            args);
  Buffer.add_string buf
    (Printf.sprintf "  out [shape=plaintext]; n%d -> out;\n}\n" c.output.id);
  Buffer.contents buf
