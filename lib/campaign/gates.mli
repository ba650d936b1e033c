(** The declarative performance-gate table.

    One data structure answers, for every numeric field a benchmark or
    campaign document carries, the question "when is a change in this
    field a failure?" — shared by the single-baseline comparator
    ([bench/compare.ml]), the trend tracker ({!Trend}) and the campaign
    differ ({!Campaign.diff}), so the three tools can never drift apart
    on policy.

    {!default_gates} encodes the [bench/compare.ml] policy: yield drift
    beyond 1e-12 fails; seconds-valued fields (except [wall_*], [trace_*],
    [gc_*]) regressing more than 25% on a ≥50ms baseline fail; [robdd_peak]/[peak_nodes] growing more than 10%
    fail; any change of [robdd_size]/[romdd_size] fails (both diagrams are
    canonical, so a size change means a different function or ordering);
    [seq_yield_drift]-style fields above 1e-12 fail on the fresh
    document alone; and ≥4-domain runs must report [par_speedup] ≥ 1.5×. *)

type fields = (string * Socy_obs.Json.t) list
(** One document row's fields, as parsed JSON. *)

val number : string -> fields -> float option
(** [number field fields] is the field's numeric value, if it is one. *)

(** How a field should be formatted in messages. *)
type unit_kind = Seconds | Nodes | Plain

(** Which fields a gate applies to. *)
type target =
  | Field of string  (** exactly this field *)
  | Fields of string list  (** any of these fields *)
  | Seconds_suffix of { exempt_prefixes : string list }
      (** every field ending in ["_s"] except those with an exempt
          prefix *)

(** What the gate checks. *)
type rule =
  | Max_abs_drift of float
      (** base/fresh pair: |base − fresh| beyond the tolerance fails;
          a base value missing from fresh also fails. *)
  | Max_ratio of { factor : float; noise_floor : float }
      (** base/fresh pair: fresh > base × factor fails, but only when
          base ≥ noise_floor (pass [neg_infinity] for "always"). *)
  | Fresh_max of float
      (** fresh document alone: value > bound fails. *)
  | Fresh_floor_when of {
      enable_field : string;
      enable_at_least : float;
      floor : float;
    }
      (** fresh document alone: when [enable_field] ≥ [enable_at_least],
          the target field must exist and be ≥ [floor]. *)

type gate = {
  g_name : string;  (** stable identifier, e.g. ["seconds-step"] *)
  unit : unit_kind;
  announce_pass : bool;  (** print passing checks as "ok" lines? *)
  target : target;
  rule : rule;
}

(** The result of one gate applied to one field of one row. *)
type check =
  | Drifted of { base : float; fresh : float; drift : float; tolerance : float }
  | Regressed of { base : float; fresh : float; factor : float }
  | Step_ok of { base : float; fresh : float }
  | Missing_fresh
  | Fresh_exceeds of { value : float; bound : float }
  | Fresh_below_floor of { value : float; floor : float; enable : float }
  | Fresh_missing_required of { enable : float }
  | Fresh_floor_ok of { value : float; enable : float }
  | Row_missing  (** baseline row absent from the fresh document *)
  | Row_new  (** fresh-only row; informational, never fails *)

type outcome = {
  gate : gate;
  label : string;  (** row identifier, e.g. ["table4/MS8, l'=2"] *)
  field : string;  (** empty for row-presence outcomes *)
  check : check;
  failed : bool;
}

val yield_tolerance : float
(** 1e-12 — the absolute drift budget for yield numbers. *)

val row_gate : gate
(** Synthetic gate carried by {!Row_missing}/{!Row_new} outcomes. *)

val default_gates : gate list
(** The [bench/compare.ml] policy, as data. *)

val target_matches : target -> string -> bool

val matched_fields : gate -> fields -> string list
(** The fields of a row this gate applies to, in field order. *)

val step_gated_fields : gates:gate list -> fields -> (string * gate) list
(** The fields a {!Max_ratio} gate would step-check — i.e. the fields
    worth a trend line. Shared with {!Trend.series_of}. *)

val check_pair : gates:gate list -> label:string -> base:fields -> fresh:fields -> outcome list
(** All pairwise (baseline vs fresh) gate outcomes for one row. *)

val check_fresh : gates:gate list -> label:string -> fields -> outcome list
(** All fresh-only gate outcomes for one row. *)

val check_docs :
  gates:gate list ->
  base:Socy_obs.Doc.Bench.t ->
  fresh:Socy_obs.Doc.Bench.t ->
  outcome list
(** Full document comparison: pairwise outcomes for shared rows,
    {!Row_missing} for baseline rows gone from fresh, fresh-only gates
    plus {!Row_new} notes for rows the baseline lacks. *)

val describe : outcome -> string
(** Human-readable one-liner, matching the historical compare output
    (["table4/MS8: cpu_s regressed 31% (0.210s -> 0.275s)"], ...). *)

val announced : outcome -> bool
(** Should this outcome be printed? Failures always; passes when the
    gate opts in; {!Row_new} always (as a note). *)
