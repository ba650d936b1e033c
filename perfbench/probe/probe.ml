(* Layer probes for the benchmark harness (../run.py).

   Usage: probe.exe MODE [--obs] [--par N]

   Every mode reads socyield-serve/1 request lines (the wire form of a
   query) on standard input and writes one JSON object per request line on
   standard output. The harness spawns a fresh probe process wherever a
   measurement must belong to one query alone (peak RSS, heap growth), and
   times whole processes from outside.

   Modes:
   - [run]: the query as the daemon answers it ([eval] through
     [Pipeline.run], [conditional-yields] through [Artifacts]), with the
     yields as hex floats so the harness compares bits. [--obs] turns the
     observability layer on first; [--par N] builds on N domains.
   - [direct]: [Direct.evaluate], the multiple-valued APPLY route.
   - [setup]: everything before the coded-ROBDD build (resolve, lethal
     map, truncation, encoding, ordering).
   - [layers]: one call per layer, each wrapped in a span, plus the
     ROMDD per-level width profile.
   - [bdd]: a fresh manager and [Compile.of_circuit] alone, with its
     engine counters, heap growth and per-level width profile.
   - [protocol]: per-call cost of [parse_request], [resolve] and
     [cache_key].
   - [load SOCKET SECONDS]: a closed-loop client of a running daemon
     (input format at {!load_mode}).
   - [host]: the OCaml version. *)

module P = Socy_core.Pipeline
module Proto = Socy_serve.Protocol
module Json = Socy_obs.Json
module B = Socy_bdd.Manager
module Compile = Socy_bdd.Compile
module Mdd = Socy_mdd.Mdd
module Model = Socy_defects.Model
module Problem = Socy_encode.Problem
module Scheme = Socy_order.Scheme
module Memory = Socy_obs.Memory

let now = Unix.gettimeofday
let t_start = now ()
let hex f = Json.String (Printf.sprintf "%h" f)
let hexes l = Json.List (List.map hex l)
let ints a = Json.List (Array.to_list (Array.map (fun i -> Json.Int i) a))

exception Bad_request of string

let parse line =
  match Proto.parse_request line with
  | Error (_, msg) -> raise (Bad_request msg)
  | Ok { Proto.query = None; _ } ->
      raise (Bad_request "not an evaluation request")
  | Ok ({ Proto.query = Some q; _ } as req) -> (
      match Proto.resolve q with
      | Error msg -> raise (Bad_request msg)
      | Ok r -> (req.Proto.meth, q, r))

(* The daemon's mapping from a query to a pipeline configuration, with the
   server defaults the benchmark runs under: node limit 40 million, no CPU
   budget, sequential engine unless [par_domains] says otherwise. *)
let config ~par_domains (q : Proto.query) =
  P.Config.make ~epsilon:q.Proto.epsilon ~mv_order:q.Proto.mv_order
    ~bit_order:q.Proto.bit_order
    ~node_limit:
      (Option.value q.Proto.node_limit ~default:P.default_config.P.node_limit)
    ~reorder:q.Proto.reorder ~par_domains ()

let failure_fields f =
  let code, message, details = Proto.failure_error f in
  [
    ("ok", Json.Bool false);
    ("code", Json.String (Proto.error_code_name code));
    ("message", Json.String message);
    ("details", Json.Obj details);
  ]

let seconds stages name = try List.assoc name stages with Not_found -> 0.0

(* Spans recorded by the [layers] mode: id, parent, name, start and end in
   seconds since the probe started. *)
let spans = ref []
let next_span = ref 0

let span ?parent name f =
  let id = !next_span in
  incr next_span;
  let t0 = now () in
  let finish () =
    spans := (id, parent, name, t0 -. t_start, now () -. t_start) :: !spans
  in
  Fun.protect ~finally:finish (fun () -> f id)

let take_spans () =
  let l = List.rev !spans in
  spans := [];
  Json.List
    (List.map
       (fun (id, parent, name, t0, t1) ->
         Json.Obj
           [
             ("id", Json.Int id);
             ("parent", match parent with Some p -> Json.Int p | None -> Json.Null);
             ("name", Json.String name);
             ("start_s", Json.Float t0);
             ("end_s", Json.Float t1);
           ])
       l)

(* Per-level node counts of a coded ROBDD (terminals excluded). *)
let bdd_widths bdd root =
  let w = Array.make (B.num_vars bdd) 0 in
  B.iter_reachable bdd root (fun n ->
      if not (B.is_terminal n) then
        let l = B.level bdd n in
        w.(l) <- w.(l) + 1);
  w

(* Per-level node counts of an ROMDD (terminals excluded). *)
let mdd_widths mdd root =
  let w = Array.make (Mdd.num_mvars mdd) 0 in
  let seen = Hashtbl.create 4096 in
  let stack = Stack.create () in
  Stack.push root stack;
  while not (Stack.is_empty stack) do
    let n = Stack.pop stack in
    if (not (Mdd.is_terminal n)) && not (Hashtbl.mem seen n) then begin
      Hashtbl.replace seen n ();
      let l = Mdd.level mdd n in
      w.(l) <- w.(l) + 1;
      Array.iter (fun c -> Stack.push c stack) (Mdd.children mdd n)
    end
  done;
  w

let run_mode ~par_domains line =
  let meth, q, r = parse line in
  let config = config ~par_domains q in
  let t0 = now () in
  let result =
    match meth with
    | Proto.Eval ->
        Result.map
          (fun (rep : P.report) ->
            ( [ rep.P.yield_lower; rep.P.yield_upper ],
              rep.P.m,
              rep.P.romdd_size,
              rep.P.stage_times ))
          (P.run ~config r.Proto.circuit r.Proto.model)
    | Proto.Conditional_yields ->
        let lethal = Model.to_lethal r.Proto.model in
        Result.map
          (fun (a : P.Artifacts.t) ->
            ( Array.to_list (P.Artifacts.conditional_yields a),
              a.P.Artifacts.m,
              Mdd.size a.P.Artifacts.mdd a.P.Artifacts.mdd_root,
              a.P.Artifacts.stage_seconds ))
          (P.Artifacts.build ~config r.Proto.circuit lethal)
    | _ -> raise (Bad_request "method not supported by the probe")
  in
  let solo_s = now () -. t0 in
  match result with
  | Error f -> failure_fields f @ [ ("solo_s", Json.Float solo_s) ]
  | Ok (yields, m, romdd_size, stages) ->
      [
        ("ok", Json.Bool true);
        ("yields", hexes yields);
        ("m", Json.Int m);
        ("romdd_size", Json.Int romdd_size);
        ("solo_s", Json.Float solo_s);
        ( "build_convert_s",
          Json.Float (seconds stages "robdd-build" +. seconds stages "romdd-convert")
        );
      ]

let direct_mode line =
  let _, q, r = parse line in
  let t0 = now () in
  let y, m, size =
    Socy_core.Direct.evaluate ~epsilon:q.Proto.epsilon r.Proto.circuit
      (Model.to_lethal r.Proto.model) ~mv:q.Proto.mv_order
      ~bits:q.Proto.bit_order
  in
  [
    ("ok", Json.Bool true);
    ("yields", hexes [ y ]);
    ("m", Json.Int m);
    ("romdd_size", Json.Int size);
    ("s", Json.Float (now () -. t0));
  ]

(* Everything before the coded-ROBDD build: lethal map, truncation,
   encoding and ordering. *)
let front (q : Proto.query) (r : Proto.resolved) =
  let lethal = Model.to_lethal r.Proto.model in
  let m = Model.truncation lethal ~epsilon:q.Proto.epsilon in
  let problem = Problem.build r.Proto.circuit ~m in
  (problem, Scheme.make problem ~mv:q.Proto.mv_order ~bits:q.Proto.bit_order)

let setup_mode line =
  let _, q, r = parse line in
  let problem, _ = front q r in
  [
    ("ok", Json.Bool true);
    ("binary_vars", Json.Int (Problem.num_binary_vars problem));
  ]

let layers_mode line =
  let _, q, r = parse line in
  let config = config ~par_domains:1 q in
  let fields =
    span "instance" (fun root ->
      let lethal, m =
        span ~parent:root "defects" (fun _ ->
            let lethal = Model.to_lethal r.Proto.model in
            (lethal, Model.truncation lethal ~epsilon:q.Proto.epsilon))
      in
      let problem =
        span ~parent:root "encode" (fun _ -> Problem.build r.Proto.circuit ~m)
      in
      let _scheme =
        span ~parent:root "order" (fun _ ->
            Scheme.make problem ~mv:q.Proto.mv_order ~bits:q.Proto.bit_order)
      in
      match
        span ~parent:root "pipeline.artifacts" (fun _ ->
            P.Artifacts.build ~config r.Proto.circuit lethal)
      with
      | Error f -> failure_fields f
      | Ok a ->
          let nk, p = P.Artifacts.sweep_layout a in
          let _, sweep_gc =
            span ~parent:root "mdd.traversal" (fun _ ->
                Memory.with_gc_delta (fun () ->
                    Mdd.probability_sweep a.P.Artifacts.mdd a.P.Artifacts.mdd_root
                      ~nk ~p))
          in
          let widths =
            span ~parent:root "width.romdd" (fun _ ->
                mdd_widths a.P.Artifacts.mdd a.P.Artifacts.mdd_root)
          in
          let rep = P.Artifacts.report a ~cpu_seconds:0.0 in
          let gcs = sweep_gc :: List.map snd a.P.Artifacts.stage_gc in
          let sumf f = List.fold_left (fun acc d -> acc +. f d) 0.0 gcs in
          let stages = a.P.Artifacts.stage_seconds in
          [
            ("ok", Json.Bool true);
            ("yields", hexes [ rep.P.yield_lower; rep.P.yield_upper ]);
            ("m", Json.Int m);
            ("binary_vars", Json.Int (Problem.num_binary_vars problem));
            ("gates", Json.Int (Socy_logic.Circuit.gate_count problem.Problem.circuit));
            ("build_s", Json.Float (seconds stages "robdd-build"));
            ("convert_s", Json.Float (seconds stages "romdd-convert"));
            ("romdd_nodes", Json.Int rep.P.romdd_size);
            ("mdd_nodes_created", Json.Int (Mdd.stats a.P.Artifacts.mdd).Mdd.nodes);
            ("romdd_widths", ints widths);
            ("gc_minor_words", Json.Float (sumf (fun d -> d.Memory.minor_words)));
            ("gc_promoted_words", Json.Float (sumf (fun d -> d.Memory.promoted_words)));
            ( "gc_major_collections",
              Json.Int
                (List.fold_left (fun acc d -> acc + d.Memory.major_collections) 0 gcs)
            );
          ])
  in
  fields @ [ ("spans", take_spans ()) ]

let bdd_mode line =
  let _, q, r = parse line in
  let config = config ~par_domains:1 q in
  let problem, scheme = front q r in
  let before = Gc.quick_stat () in
  let bdd =
    B.create ~node_limit:config.P.node_limit ~cache_bits:config.P.cache_bits
      ~num_vars:(Problem.num_binary_vars problem)
      ()
  in
  let t0 = now () in
  let root, st =
    Compile.of_circuit ~gc_threshold:config.P.gc_threshold bdd
      problem.Problem.circuit ~var_of_input:(fun i ->
        scheme.Scheme.level_of_input.(i))
  in
  let build_s = now () -. t0 in
  let after = Gc.quick_stat () in
  let s = B.stats bdd in
  [
    ("ok", Json.Bool true);
    ("build_s", Json.Float build_s);
    ("peak_nodes", Json.Int st.Compile.peak_nodes);
    ("final_nodes", Json.Int st.Compile.final_size);
    ("created", Json.Int s.B.created);
    ("unique_hits", Json.Int s.B.unique_hits);
    ("cache_hits", Json.Int s.B.cache_hits);
    ("cache_misses", Json.Int s.B.cache_misses);
    ("gc_runs", Json.Int s.B.gc_runs);
    ("reclaimed", Json.Int s.B.reclaimed);
    ( "heap_bytes",
      Json.Int
        ((after.Gc.top_heap_words - before.Gc.heap_words) * (Sys.word_size / 8))
    );
    ("robdd_widths", ints (bdd_widths bdd root));
  ]

(* Mean cost of [f] in microseconds: the median of five rounds, each
   running [f] until it has taken at least 2 ms. *)
let per_call_us f =
  let round () =
    let t0 = now () in
    let n = ref 0 in
    while now () -. t0 < 0.002 do
      ignore (Sys.opaque_identity (f ()));
      incr n
    done;
    (now () -. t0) /. float_of_int !n *. 1e6
  in
  let rounds = List.sort compare (List.init 5 (fun _ -> round ())) in
  List.nth rounds 2

let protocol_mode line =
  let meth, q, r = parse line in
  let node_limit =
    Option.value q.Proto.node_limit ~default:P.default_config.P.node_limit
  in
  [
    ("ok", Json.Bool true);
    ("parse_us", Json.Float (per_call_us (fun () -> Proto.parse_request line)));
    ("resolve_us", Json.Float (per_call_us (fun () -> Proto.resolve q)));
    ( "key_us",
      Json.Float
        (per_call_us (fun () ->
             Proto.cache_key ~meth ~resolved:r ~node_limit ~cpu_limit:None
               ~par_domains:1 q)) );
  ]

(* Closed-loop client: each connection sends its next request only after
   the previous reply arrived, until [seconds] have passed or its picks
   run out. Standard input: a header "N CONNECTIONS SHARED", N request
   lines, then the picks (indices into the request lines): one line shared
   by all connections when SHARED is 1, each pick sent once; otherwise one
   line per connection, cycled. Standard output, once the load is over: one
   "index <TAB> sent <TAB> received <TAB> reply" line per request, times in
   seconds from the load's start. A transport fault (a refused connection,
   a reset, the daemon closing the connection) ends that connection; the
   request it was sending, or the first one it would have sent, is
   recorded as lost, with an empty reply. *)
let load_mode socket seconds =
  (* A write to a socket the daemon closed raises instead of killing the
     client. *)
  Sys.set_signal Sys.sigpipe Sys.Signal_ignore;
  let n, connections, shared =
    Scanf.sscanf (input_line stdin) " %d %d %d" (fun n c s -> (n, c, s = 1))
  in
  let lines = Array.init n (fun _ -> input_line stdin) in
  let read_picks () =
    input_line stdin |> String.split_on_char ' '
    |> List.filter (( <> ) "")
    |> List.map int_of_string |> Array.of_list
  in
  let picks = Array.init (if shared then 1 else connections) (fun _ -> read_picks ()) in
  let cursor = Atomic.make 0 in
  let results = Array.make connections [] in
  let t0 = now () in
  let deadline = t0 +. seconds in
  let client k =
    let next =
      if shared then fun () ->
        let c = Atomic.fetch_and_add cursor 1 in
        if c < Array.length picks.(0) then Some picks.(0).(c) else None
      else
        let own = picks.(k) and pos = ref 0 in
        fun () ->
          let i = own.(!pos mod Array.length own) in
          incr pos;
          Some i
    in
    let lost i sent = results.(k) <- (i, sent, now (), "") :: results.(k) in
    let rec loop ic oc =
      if now () < deadline then
        match next () with
        | None -> ()
        | Some i -> (
            let sent = now () in
            match
              output_string oc lines.(i);
              output_char oc '\n';
              flush oc;
              input_line ic
            with
            | reply ->
                results.(k) <- (i, sent, now (), reply) :: results.(k);
                loop ic oc
            | exception (End_of_file | Sys_error _ | Unix.Unix_error _) -> lost i sent)
    in
    let sock = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
    match Unix.connect sock (Unix.ADDR_UNIX socket) with
    | exception Unix.Unix_error _ ->
        Unix.close sock;
        Option.iter (fun i -> lost i (now ())) (next ())
    | () ->
        Fun.protect
          ~finally:(fun () -> try Unix.close sock with Unix.Unix_error _ -> ())
          (fun () ->
            loop (Unix.in_channel_of_descr sock) (Unix.out_channel_of_descr sock))
  in
  List.init connections (fun k -> Thread.create client k) |> List.iter Thread.join;
  Array.iter
    (List.iter (fun (i, sent, received, reply) ->
         Printf.printf "%d\t%.9f\t%.9f\t%s\n" i (sent -. t0) (received -. t0) reply))
    results

let () =
  let args = List.tl (Array.to_list Sys.argv) in
  let rec flags obs par = function
    | "--obs" :: rest -> flags true par rest
    | "--par" :: n :: rest -> flags obs (int_of_string n) rest
    | [] -> (obs, par)
    | a :: _ -> failwith ("unknown argument " ^ a)
  in
  match args with
  | [ "load"; socket; seconds ] -> load_mode socket (float_of_string seconds)
  | "host" :: _ ->
      print_endline
        (Json.to_string (Json.Obj [ ("ocaml", Json.String Sys.ocaml_version) ]))
  | mode :: rest ->
      let obs, par_domains = flags false 1 rest in
      let handle =
        match mode with
        | "run" -> run_mode ~par_domains
        | "direct" -> direct_mode
        | "setup" -> setup_mode
        | "layers" -> layers_mode
        | "bdd" -> bdd_mode
        | "protocol" -> protocol_mode
        | m -> failwith ("unknown mode " ^ m)
      in
      if obs then Socy_obs.Obs.set_enabled true;
      (try
         while true do
           let line = input_line stdin in
           if String.trim line <> "" then begin
             let fields =
               try handle line with
               | Bad_request msg ->
                   [ ("ok", Json.Bool false); ("code", Json.String "invalid-request");
                     ("message", Json.String msg) ]
             in
             print_endline (Json.to_string (Json.Obj fields))
           end
         done
       with End_of_file -> ())
  | [] ->
      prerr_endline
        "usage: probe.exe (run|direct|setup|layers|bdd|protocol) [--obs] [--par N]
        \       probe.exe load SOCKET SECONDS | probe.exe host";
      exit 2
