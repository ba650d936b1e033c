module Json = Socy_obs.Json

type fields = (string * Json.t) list

let number field (fields : fields) =
  Option.bind (List.assoc_opt field fields) Json.to_float

type unit_kind = Seconds | Nodes | Plain

type target =
  | Field of string
  | Fields of string list
  | Seconds_suffix of { exempt_prefixes : string list }

type rule =
  | Max_abs_drift of float
  | Max_ratio of { factor : float; noise_floor : float }
  | Fresh_max of float
  | Fresh_floor_when of {
      enable_field : string;
      enable_at_least : float;
      floor : float;
    }

type gate = {
  g_name : string;
  unit : unit_kind;
  announce_pass : bool;
  target : target;
  rule : rule;
}

type check =
  | Drifted of { base : float; fresh : float; drift : float; tolerance : float }
  | Regressed of { base : float; fresh : float; factor : float }
  | Step_ok of { base : float; fresh : float }
  | Missing_fresh
  | Fresh_exceeds of { value : float; bound : float }
  | Fresh_below_floor of { value : float; floor : float; enable : float }
  | Fresh_missing_required of { enable : float }
  | Fresh_floor_ok of { value : float; enable : float }
  | Row_missing
  | Row_new

type outcome = {
  gate : gate;
  label : string;
  field : string;
  check : check;
  failed : bool;
}

(* ------------------------------------------------------------------ *)
(* The default table: the bench/compare.ml policy.                    *)
(* ------------------------------------------------------------------ *)

let yield_tolerance = 1e-12

let row_gate =
  (* Synthetic gate for doc-level row presence; never matched by target. *)
  {
    g_name = "row-presence";
    unit = Plain;
    announce_pass = false;
    target = Fields [];
    rule = Max_abs_drift 0.0;
  }

let default_gates =
  [
    (* yield_lower drifting beyond 1e-12 from the baseline is a
       correctness failure: the paper's Table-4 numbers are the
       contract. *)
    {
      g_name = "yield-drift";
      unit = Plain;
      announce_pass = false;
      target = Field "yield_lower";
      rule = Max_abs_drift yield_tolerance;
    };
    (* every seconds-valued field regressing >25% on a >=50ms baseline
       row is a performance failure; wall clock is co-tenancy noise and
       trace_*/gc_* describe the observability layer, so they are
       exempt. *)
    {
      g_name = "seconds-step";
      unit = Seconds;
      announce_pass = true;
      target = Seconds_suffix { exempt_prefixes = [ "wall_"; "trace_"; "gc_" ] };
      rule = Max_ratio { factor = 1.25; noise_floor = 0.05 };
    };
    (* node-count peaks are deterministic, so >10% growth means the
       ordering or sifting logic regressed — no noise floor. *)
    {
      g_name = "peak-step";
      unit = Nodes;
      announce_pass = true;
      target = Fields [ "robdd_peak"; "peak_nodes" ];
      rule = Max_ratio { factor = 1.10; noise_floor = neg_infinity };
    };
    (* the coded ROBDD and the ROMDD are canonical for a fixed ordering,
       so any change in their sizes means the function or the ordering
       changed — not a performance trade-off: exact identity. *)
    {
      g_name = "size-identity";
      unit = Nodes;
      announce_pass = false;
      target = Fields [ "robdd_size"; "romdd_size" ];
      rule = Max_abs_drift 0.0;
    };
    (* parallel runs must be bit-identical to sequential — checked on
       the fresh file alone, no baseline needed. *)
    {
      g_name = "seq-equivalence";
      unit = Plain;
      announce_pass = false;
      target =
        Fields [ "seq_yield_drift"; "seq_yield_drift_max"; "par_yield_drift" ];
      rule = Fresh_max yield_tolerance;
    };
    (* a >=4-domain team must pay for itself; smaller hosts never emit
       the record, so the gate self-disables there. *)
    {
      g_name = "par-speedup";
      unit = Plain;
      announce_pass = true;
      target = Field "par_speedup";
      rule =
        Fresh_floor_when
          { enable_field = "par_domains"; enable_at_least = 4.0; floor = 1.5 };
    };
  ]

(* ------------------------------------------------------------------ *)
(* Target matching                                                     *)
(* ------------------------------------------------------------------ *)

let has_prefix p s =
  String.length s >= String.length p && String.sub s 0 (String.length p) = p

let has_suffix suf s =
  String.length s > String.length suf
  && String.sub s (String.length s - String.length suf) (String.length suf)
     = suf

let target_matches target field =
  match target with
  | Field f -> f = field
  | Fields fs -> List.mem field fs
  | Seconds_suffix { exempt_prefixes } ->
      has_suffix "_s" field
      && not (List.exists (fun p -> has_prefix p field) exempt_prefixes)

(* The fields of [fields] a gate applies to, in field order. *)
let matched_fields gate (fields : fields) =
  List.filter_map
    (fun (k, _) -> if target_matches gate.target k then Some k else None)
    fields

let step_gated_fields ~gates (fields : fields) =
  List.concat_map
    (fun g ->
      match g.rule with
      | Max_ratio _ -> List.map (fun f -> (f, g)) (matched_fields g fields)
      | Max_abs_drift _ | Fresh_max _ | Fresh_floor_when _ -> [])
    gates

(* ------------------------------------------------------------------ *)
(* Checking                                                            *)
(* ------------------------------------------------------------------ *)

let check_pair ~gates ~label ~(base : fields) ~(fresh : fields) =
  List.concat_map
    (fun gate ->
      match gate.rule with
      | Max_abs_drift tolerance ->
          List.filter_map
            (fun field ->
              match (number field base, number field fresh) with
              | Some b, Some f ->
                  let drift = abs_float (b -. f) in
                  if drift > tolerance then
                    Some
                      {
                        gate;
                        label;
                        field;
                        check = Drifted { base = b; fresh = f; drift; tolerance };
                        failed = true;
                      }
                  else
                    Some
                      {
                        gate;
                        label;
                        field;
                        check = Step_ok { base = b; fresh = f };
                        failed = false;
                      }
              | Some _, None ->
                  Some
                    { gate; label; field; check = Missing_fresh; failed = true }
              | None, _ -> None)
            (matched_fields gate base)
      | Max_ratio { factor; noise_floor } ->
          List.filter_map
            (fun field ->
              match (number field base, number field fresh) with
              | Some b, Some f when b >= noise_floor ->
                  if f > b *. factor then
                    Some
                      {
                        gate;
                        label;
                        field;
                        check = Regressed { base = b; fresh = f; factor };
                        failed = true;
                      }
                  else
                    Some
                      {
                        gate;
                        label;
                        field;
                        check = Step_ok { base = b; fresh = f };
                        failed = false;
                      }
              | Some b, None when b >= noise_floor ->
                  Some
                    { gate; label; field; check = Missing_fresh; failed = true }
              | _ -> None)
            (matched_fields gate base)
      | Fresh_max _ | Fresh_floor_when _ -> [])
    gates

let check_fresh ~gates ~label (fresh : fields) =
  List.concat_map
    (fun gate ->
      match gate.rule with
      | Fresh_max bound ->
          List.filter_map
            (fun field ->
              match number field fresh with
              | Some v when v > bound ->
                  Some
                    {
                      gate;
                      label;
                      field;
                      check = Fresh_exceeds { value = v; bound };
                      failed = true;
                    }
              | _ -> None)
            (matched_fields gate fresh)
      | Fresh_floor_when { enable_field; enable_at_least; floor } -> (
          let field =
            match gate.target with Field f -> f | Fields _ | Seconds_suffix _ -> ""
          in
          match number enable_field fresh with
          | Some enable when enable >= enable_at_least -> (
              match number field fresh with
              | Some v when v < floor ->
                  [
                    {
                      gate;
                      label;
                      field;
                      check = Fresh_below_floor { value = v; floor; enable };
                      failed = true;
                    };
                  ]
              | Some v ->
                  [
                    {
                      gate;
                      label;
                      field;
                      check = Fresh_floor_ok { value = v; enable };
                      failed = false;
                    };
                  ]
              | None ->
                  [
                    {
                      gate;
                      label;
                      field;
                      check = Fresh_missing_required { enable };
                      failed = true;
                    };
                  ])
          | _ -> [])
      | Max_abs_drift _ | Max_ratio _ -> [])
    gates

module Bench = Socy_obs.Doc.Bench

let record_label (r : Bench.record) = r.Bench.section ^ "/" ^ r.Bench.row

let check_docs ~gates ~(base : Bench.t) ~(fresh : Bench.t) =
  let pairwise =
    List.concat_map
      (fun (b : Bench.record) ->
        let label = record_label b in
        match
          Bench.find fresh ~section:b.Bench.section ~row:b.Bench.row
        with
        | None ->
            [
              {
                gate = row_gate;
                label;
                field = "";
                check = Row_missing;
                failed = true;
              };
            ]
        | Some f ->
            check_pair ~gates ~label ~base:b.Bench.fields ~fresh:f.Bench.fields)
      base.Bench.records
  in
  let fresh_only =
    List.concat_map
      (fun (f : Bench.record) ->
        let new_row =
          if
            Bench.find base ~section:f.Bench.section ~row:f.Bench.row = None
          then
            [
              {
                gate = row_gate;
                label = record_label f;
                field = "";
                check = Row_new;
                failed = false;
              };
            ]
          else []
        in
        check_fresh ~gates ~label:(record_label f) f.Bench.fields @ new_row)
      fresh.Bench.records
  in
  pairwise @ fresh_only

(* ------------------------------------------------------------------ *)
(* Rendering                                                           *)
(* ------------------------------------------------------------------ *)

let describe o =
  let pct b f = (f /. b -. 1.0) *. 100.0 in
  match o.check with
  | Drifted { base; fresh; drift; _ } ->
      Printf.sprintf "%s: %s drifted by %.3e (%.17g -> %.17g)" o.label o.field
        drift base fresh
  | Regressed { base; fresh; _ } -> (
      match o.gate.unit with
      | Nodes ->
          Printf.sprintf "%s: %s grew %.0f%% (%.0f -> %.0f nodes)" o.label
            o.field (pct base fresh) base fresh
      | Seconds | Plain ->
          Printf.sprintf "%s: %s regressed %.0f%% (%.3fs -> %.3fs)" o.label
            o.field (pct base fresh) base fresh)
  | Step_ok { base; fresh } -> (
      match o.gate.unit with
      | Nodes ->
          Printf.sprintf "%s: %s %.0f -> %.0f nodes" o.label o.field base fresh
      | Seconds -> Printf.sprintf "%s: %s %.3fs -> %.3fs" o.label o.field base fresh
      | Plain ->
          Printf.sprintf "%s: %s %.6g -> %.6g" o.label o.field base fresh)
  | Missing_fresh ->
      Printf.sprintf "%s: %s missing from fresh run" o.label o.field
  | Fresh_exceeds { value; _ } ->
      Printf.sprintf "%s: %s = %.3e (parallel run not equivalent to sequential)"
        o.label o.field value
  | Fresh_below_floor { value; floor; enable } ->
      Printf.sprintf "%s: %s %.2fx below the %.1fx floor at %.0f domains"
        o.label o.field value floor enable
  | Fresh_missing_required { enable } ->
      Printf.sprintf "%s: par_domains = %.0f but no %s recorded" o.label enable
        o.field
  | Fresh_floor_ok { value; enable } ->
      Printf.sprintf "%s: %s %.2fx at %.0f domains" o.label o.field value enable
  | Row_missing -> Printf.sprintf "%s: row missing from fresh run" o.label
  | Row_new -> Printf.sprintf "%s: new row (not in baseline)" o.label

let announced o =
  o.failed
  || (match o.check with Row_new -> true | _ -> o.gate.announce_pass)
