(* Tests for the request-scoped telemetry layer: the ambient request-id
   context (thread isolation, executor propagation), structured logging
   (threshold, ring, JSON codec round trip, file-sink rotation), the
   Prometheus exposition (name sanitization, escaping, non-finite tokens),
   and the precomputed histogram quantiles. *)

module Obs = Socy_obs.Obs
module Ctx = Socy_obs.Ctx
module Log = Socy_obs.Log
module Export = Socy_obs.Export
module Json = Socy_obs.Json
module Pool = Socy_core.Pool

let with_log ?level f () =
  Log.reset ();
  Log.set_level level;
  Fun.protect
    ~finally:(fun () ->
      Log.close_file ();
      Log.set_level None;
      Log.reset ())
    f

(* ------------------------------------------------------------------ *)
(* Ctx                                                                 *)
(* ------------------------------------------------------------------ *)

let test_ctx_ambient () =
  Alcotest.(check (option int)) "no ambient rid" None (Ctx.get ());
  Ctx.with_request 42 (fun () ->
      Alcotest.(check (option int)) "installed" (Some 42) (Ctx.get ());
      Ctx.with_request 7 (fun () ->
          Alcotest.(check (option int)) "nested shadows" (Some 7) (Ctx.get ()));
      Alcotest.(check (option int)) "restored after nest" (Some 42) (Ctx.get ()));
  Alcotest.(check (option int)) "cleared on exit" None (Ctx.get ())

let test_ctx_restored_on_raise () =
  (try Ctx.with_request 9 (fun () -> failwith "boom") with Failure _ -> ());
  Alcotest.(check (option int)) "cleared after raise" None (Ctx.get ())

(* Sys-threads must not see each other's ambient rid: the serve daemon's
   connection threads all live on domain 0. *)
let test_ctx_thread_isolation () =
  Ctx.with_request 1 (fun () ->
      let seen = ref (Some (-1)) in
      let th = Thread.create (fun () -> seen := Ctx.get ()) () in
      Thread.join th;
      Alcotest.(check (option int)) "fresh thread has no rid" None !seen;
      Alcotest.(check (option int)) "parent keeps its rid" (Some 1) (Ctx.get ()))

(* The executor re-installs the submitter's context inside job bodies, so
   work scheduled on worker domains is stamped with the request's rid. *)
let test_ctx_executor_propagation () =
  let ex = Pool.Executor.create ~domains:2 () in
  Fun.protect
    ~finally:(fun () -> Pool.Executor.shutdown ex)
    (fun () ->
      let inside =
        Ctx.with_request 11 (fun () -> Pool.Executor.run ex (fun () -> Ctx.get ()))
      in
      Alcotest.(check (option int)) "rid crosses Executor.run" (Some 11) inside;
      let outside = Pool.Executor.run ex (fun () -> Ctx.get ()) in
      Alcotest.(check (option int)) "no leak into later jobs" None outside;
      let tasks_seen = Array.make 4 (Some (-1)) in
      Ctx.with_request 13 (fun () ->
          Pool.Executor.parallel_tasks ex
            (Array.init 4 (fun i () -> tasks_seen.(i) <- Ctx.get ())));
      Array.iteri
        (fun i seen ->
          Alcotest.(check (option int))
            (Printf.sprintf "parallel task %d sees the rid" i)
            (Some 13) seen)
        tasks_seen)

(* ------------------------------------------------------------------ *)
(* Log: threshold and ring                                             *)
(* ------------------------------------------------------------------ *)

let test_log_threshold =
  with_log ~level:Log.Info (fun () ->
      Log.debug "t.debug" "below threshold";
      Log.info "t.info" "at threshold";
      Log.error "t.error" "above threshold";
      Alcotest.(check bool) "debug disabled" false (Log.enabled_for Log.Debug);
      Alcotest.(check bool) "warn enabled" true (Log.enabled_for Log.Warn);
      let events = List.map (fun r -> r.Log.event) (Log.recent ()) in
      Alcotest.(check (list string))
        "only info+ recorded, oldest first"
        [ "t.info"; "t.error" ] events;
      Alcotest.(check int) "emitted_count" 2 (Log.emitted_count ()))

let test_log_off_by_default =
  with_log (fun () ->
      Log.error "t.err" "even errors are dropped while off";
      Alcotest.(check int) "nothing emitted" 0 (Log.emitted_count ());
      Alcotest.(check bool) "error disabled" false (Log.enabled_for Log.Error))

let test_log_ambient_rid =
  with_log ~level:Log.Debug (fun () ->
      Ctx.with_request 5 (fun () -> Log.info "t.amb" "inside request");
      Log.info "t.noamb" "outside request";
      Log.info ~rid:99 "t.explicit" "explicit override";
      match Log.recent () with
      | [ a; b; c ] ->
          Alcotest.(check (option int)) "ambient rid" (Some 5) a.Log.rid;
          Alcotest.(check (option int)) "no rid" None b.Log.rid;
          Alcotest.(check (option int)) "explicit rid" (Some 99) c.Log.rid
      | l -> Alcotest.failf "expected 3 records, got %d" (List.length l))

let test_log_ring_bounded =
  with_log ~level:Log.Info (fun () ->
      let n = Log.ring_capacity + 100 in
      for i = 1 to n do
        Log.info "t.ring" (string_of_int i)
      done;
      let recent = Log.recent () in
      Alcotest.(check int) "ring holds capacity" Log.ring_capacity
        (List.length recent);
      Alcotest.(check int) "emitted counts everything" n (Log.emitted_count ());
      Alcotest.(check string)
        "oldest surviving record"
        (string_of_int (n - Log.ring_capacity + 1))
        (List.hd recent).Log.msg)

(* ------------------------------------------------------------------ *)
(* Log: JSON codec                                                     *)
(* ------------------------------------------------------------------ *)

let level_gen =
  QCheck.Gen.oneofl [ Log.Debug; Log.Info; Log.Warn; Log.Error ]

(* Printable-ish strings plus the JSON-hostile characters. *)
let string_gen =
  QCheck.Gen.(
    string_size ~gen:(oneofl [ 'a'; 'Z'; '0'; ' '; '"'; '\\'; '\n'; '\t'; '{' ])
      (int_bound 12))

(* Field values: finite floats built from integers, so printing and
   reparsing is exact. *)
let json_value_gen =
  QCheck.Gen.(
    oneof
      [
        return Json.Null;
        map (fun b -> Json.Bool b) bool;
        map (fun i -> Json.Int i) int;
        map (fun i -> Json.Float (float_of_int i /. 8.0)) int;
        map (fun s -> Json.String s) string_gen;
      ])

let record_gen =
  QCheck.Gen.(
    map
      (fun (ts_ms, level, event, msg, rid, fields) ->
        {
          Log.ts = float_of_int ts_ms /. 1000.0;
          level;
          event;
          msg;
          rid;
          fields;
        })
      (tup6 (int_bound 1_000_000_000) level_gen string_gen string_gen
         (opt (int_bound 100_000))
         (list_size (int_bound 4) (pair string_gen json_value_gen))))

let record_print r = Json.to_string (Log.to_json r)

let qcheck_log_codec_roundtrip =
  QCheck.Test.make ~count:500 ~name:"log record JSON codec round trip"
    (QCheck.make ~print:record_print record_gen) (fun r ->
      (* Through the actual wire: render to a string, parse it back. The
         fields object drops duplicate keys on reparse, so only test
         records with distinct field keys. *)
      let distinct_keys =
        let keys = List.map fst r.Log.fields in
        List.length keys = List.length (List.sort_uniq compare keys)
      in
      QCheck.assume distinct_keys;
      match Log.of_json (Json.of_string (Json.to_string (Log.to_json r))) with
      | None -> false
      | Some r' -> r' = r)

let test_log_of_json_rejects () =
  List.iter
    (fun j ->
      Alcotest.(check bool)
        (Json.to_string j ^ " rejected")
        true
        (Log.of_json j = None))
    [
      Json.Null;
      Json.Obj [];
      Json.Obj [ ("ts", Json.Float 1.0); ("level", Json.String "loud");
                 ("event", Json.String "e"); ("msg", Json.String "m") ];
      Json.Obj [ ("ts", Json.String "now"); ("level", Json.String "info");
                 ("event", Json.String "e"); ("msg", Json.String "m") ];
    ]

(* ------------------------------------------------------------------ *)
(* Log: file sink rotation                                             *)
(* ------------------------------------------------------------------ *)

let read_lines path =
  In_channel.with_open_bin path In_channel.input_all
  |> String.split_on_char '\n'
  |> List.filter (fun l -> l <> "")

let test_log_rotation =
  with_log ~level:Log.Info (fun () ->
      let dir = Filename.temp_file "socy_log" "" in
      Sys.remove dir;
      Unix.mkdir dir 0o755;
      let path = Filename.concat dir "serve.log" in
      (* Records are ~80 bytes; cap at 256 so every few records rotate. *)
      Log.open_file ~max_bytes:256 ~keep:2 path;
      for i = 1 to 40 do
        Log.info "t.rot" (Printf.sprintf "record number %04d" i)
      done;
      Log.close_file ();
      Alcotest.(check bool) "live file exists" true (Sys.file_exists path);
      Alcotest.(check bool) "first generation exists" true
        (Sys.file_exists (path ^ ".1"));
      Alcotest.(check bool) "second generation exists" true
        (Sys.file_exists (path ^ ".2"));
      Alcotest.(check bool) "keep bound enforced" false
        (Sys.file_exists (path ^ ".3"));
      (* Rotation happens before a write that would overflow, so no file
         ever exceeds the cap. *)
      List.iter
        (fun p ->
          let size = (Unix.stat p).Unix.st_size in
          Alcotest.(check bool)
            (Printf.sprintf "%s within max_bytes (%d)" (Filename.basename p) size)
            true (size <= 256))
        [ path; path ^ ".1"; path ^ ".2" ];
      (* Newest records are in the live file, in order, and every line is a
         parseable record. *)
      let last_msgs =
        List.map
          (fun l ->
            match Log.of_json (Json.of_string l) with
            | Some r -> r.Log.msg
            | None -> Alcotest.failf "unparseable sink line: %s" l)
          (read_lines path)
      in
      Alcotest.(check bool) "live file non-empty" true (last_msgs <> []);
      Alcotest.(check string) "newest record last" "record number 0040"
        (List.nth last_msgs (List.length last_msgs - 1));
      List.iter Sys.remove (List.map (Filename.concat dir) (Array.to_list (Sys.readdir dir)));
      Unix.rmdir dir)

let test_log_keep_zero_truncates =
  with_log ~level:Log.Info (fun () ->
      let path = Filename.temp_file "socy_log" ".ndjson" in
      Log.open_file ~max_bytes:200 ~keep:0 path;
      for i = 1 to 30 do
        Log.info "t.trunc" (Printf.sprintf "record %04d" i)
      done;
      Log.close_file ();
      Alcotest.(check bool) "no rotated generation" false
        (Sys.file_exists (path ^ ".1"));
      Alcotest.(check bool) "live file within cap" true
        ((Unix.stat path).Unix.st_size <= 200);
      Sys.remove path)

(* ------------------------------------------------------------------ *)
(* Export: Prometheus text format                                      *)
(* ------------------------------------------------------------------ *)

let test_export_name_sanitization () =
  Alcotest.(check string) "dots to underscores" "socy_serve_cache_hits_total"
    (Export.metric_name ~suffix:"_total" "serve.cache.hits");
  Alcotest.(check string) "hostile chars" "socy_a_b_c_d"
    (Export.metric_name "a-b c/d");
  Alcotest.(check string) "leading digit guarded" "socy__2fast"
    (Export.metric_name "2fast")

let test_export_label_escaping () =
  Alcotest.(check string) "backslash" "a\\\\b" (Export.escape_label "a\\b");
  Alcotest.(check string) "quote" "say \\\"hi\\\"" (Export.escape_label "say \"hi\"");
  Alcotest.(check string) "newline" "line\\nbreak" (Export.escape_label "line\nbreak");
  Alcotest.(check string) "plain untouched" "plain" (Export.escape_label "plain")

let test_export_float_tokens () =
  Alcotest.(check string) "nan" "NaN" (Export.float_str Float.nan);
  Alcotest.(check string) "+inf" "+Inf" (Export.float_str Float.infinity);
  Alcotest.(check string) "-inf" "-Inf" (Export.float_str Float.neg_infinity);
  Alcotest.(check string) "short decimal" "0.5" (Export.float_str 0.5);
  Alcotest.(check string) "exact round trip" "0.1" (Export.float_str 0.1)

let with_obs f () =
  Obs.reset ();
  Obs.set_enabled true;
  Fun.protect
    ~finally:(fun () ->
      Obs.set_enabled false;
      Obs.reset ())
    f

let contains_line text line = List.mem line (String.split_on_char '\n' text)

let test_export_render =
  with_obs (fun () ->
      let c = Obs.counter "texp.hits" in
      Obs.add c 7;
      let g = Obs.gauge "texp.load" in
      Obs.set g 0.5;
      let h = Obs.histogram ~buckets:[| 1.0; 10.0 |] "texp.lat" in
      List.iter (Obs.observe h) [ 0.5; 2.0; 20.0 ];
      let text = Export.render (Obs.snapshot ()) in
      List.iter
        (fun l ->
          Alcotest.(check bool) ("has: " ^ l) true (contains_line text l))
        [
          "# TYPE socy_texp_hits_total counter";
          "socy_texp_hits_total 7";
          "# TYPE socy_texp_load gauge";
          "socy_texp_load 0.5";
          "# TYPE socy_texp_lat histogram";
          "socy_texp_lat_bucket{le=\"1\"} 1";
          "socy_texp_lat_bucket{le=\"10\"} 2";
          "socy_texp_lat_bucket{le=\"+Inf\"} 3";
          "socy_texp_lat_count 3";
          "socy_texp_lat_sum 22.5";
        ])

(* A NaN gauge must render as the NaN token, not break the exposition. *)
let test_export_non_finite_gauge =
  with_obs (fun () ->
      let g = Obs.gauge "texp.nan" in
      Obs.set g Float.nan;
      let text = Export.render (Obs.snapshot ()) in
      Alcotest.(check bool) "NaN sample line" true
        (contains_line text "socy_texp_nan NaN"))

(* ------------------------------------------------------------------ *)
(* Histogram quantiles                                                 *)
(* ------------------------------------------------------------------ *)

(* The registry is process-wide and registrations survive Obs.reset, so
   other suites' probes coexist in the snapshot: look ours up by name. *)
let hist_stat name =
  match List.assoc_opt name (Obs.snapshot ()).Obs.histograms with
  | Some stat -> stat
  | None -> Alcotest.failf "histogram %s not in snapshot" name

let test_quantiles_empty =
  with_obs (fun () ->
      let _ = Obs.histogram ~buckets:[| 1.0 |] "tq.empty" in
      let s = hist_stat "tq.empty" in
      Alcotest.(check bool) "p50 NaN while empty" true (Float.is_nan s.Obs.h_p50);
      Alcotest.(check bool) "p99 NaN while empty" true (Float.is_nan s.Obs.h_p99))

let test_quantiles_single_value =
  with_obs (fun () ->
      let h = Obs.histogram ~buckets:[| 1.0; 100.0 |] "tq.single" in
      Obs.observe h 42.0;
      let s = hist_stat "tq.single" in
      (* min/max tightening collapses the open bucket to the point. *)
      List.iter
        (fun (name, v) -> Alcotest.(check (float 1e-9)) name 42.0 v)
        [ ("p50", s.Obs.h_p50); ("p90", s.Obs.h_p90); ("p99", s.Obs.h_p99) ])

let test_quantiles_uniform =
  with_obs (fun () ->
      let h = Obs.histogram ~buckets:[| 25.0; 50.0; 75.0; 100.0 |] "tq.uniform" in
      (* 100 observations uniform on (0, 100]: quantile q ≈ 100 q. *)
      for i = 1 to 100 do
        Obs.observe h (float_of_int i)
      done;
      let s = hist_stat "tq.uniform" in
      Alcotest.(check bool) "p50 near 50" true (Float.abs (s.Obs.h_p50 -. 50.0) <= 2.0);
      Alcotest.(check bool) "p90 near 90" true (Float.abs (s.Obs.h_p90 -. 90.0) <= 2.0);
      Alcotest.(check bool) "p99 near 99" true (Float.abs (s.Obs.h_p99 -. 99.0) <= 2.0);
      Alcotest.(check bool) "ordered" true
        (s.Obs.h_p50 <= s.Obs.h_p90 && s.Obs.h_p90 <= s.Obs.h_p99);
      Alcotest.(check bool) "within observed range" true
        (s.Obs.h_p50 >= 1.0 && s.Obs.h_p99 <= 100.0))

(* ------------------------------------------------------------------ *)

let qsuite tests = List.map QCheck_alcotest.to_alcotest tests

let () =
  Alcotest.run "socy_obs_telemetry"
    [
      ( "ctx",
        [
          Alcotest.test_case "ambient install/restore" `Quick test_ctx_ambient;
          Alcotest.test_case "restored on raise" `Quick test_ctx_restored_on_raise;
          Alcotest.test_case "thread isolation" `Quick test_ctx_thread_isolation;
          Alcotest.test_case "executor propagation" `Quick
            test_ctx_executor_propagation;
        ] );
      ( "log",
        [
          Alcotest.test_case "threshold" `Quick test_log_threshold;
          Alcotest.test_case "off by default" `Quick test_log_off_by_default;
          Alcotest.test_case "ambient rid" `Quick test_log_ambient_rid;
          Alcotest.test_case "ring bounded" `Quick test_log_ring_bounded;
          Alcotest.test_case "of_json rejects" `Quick test_log_of_json_rejects;
        ]
        @ qsuite [ qcheck_log_codec_roundtrip ] );
      ( "sink",
        [
          Alcotest.test_case "rotation boundary" `Quick test_log_rotation;
          Alcotest.test_case "keep=0 truncates" `Quick test_log_keep_zero_truncates;
        ] );
      ( "export",
        [
          Alcotest.test_case "name sanitization" `Quick
            test_export_name_sanitization;
          Alcotest.test_case "label escaping" `Quick test_export_label_escaping;
          Alcotest.test_case "float tokens" `Quick test_export_float_tokens;
          Alcotest.test_case "render known registry" `Quick test_export_render;
          Alcotest.test_case "non-finite gauge" `Quick
            test_export_non_finite_gauge;
        ] );
      ( "quantiles",
        [
          Alcotest.test_case "empty is NaN" `Quick test_quantiles_empty;
          Alcotest.test_case "single value exact" `Quick
            test_quantiles_single_value;
          Alcotest.test_case "uniform distribution" `Quick test_quantiles_uniform;
        ] );
    ]
