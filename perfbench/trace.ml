(* The traced run: each workload's operations re-done in this process
   through the layers' public functions, with a span recorded around
   every call (name, start, end, parent, operation id).  Counts come from
   the values those functions return and from the registries the program
   already keeps.  Nothing inside the program is instrumented here.

   Each per-layer metric is the median over the traced operations of its
   per-operation value.  [attributed_ms] is the median per-operation sum
   of the layer times that lie on the workload's blocking path; run.py
   subtracts it (and the process spawn floor, for the CLI workloads)
   from the end-to-end median to give trace.unattributed_ms. *)

module G = Gen
module M = Goobs.Metrics
module E = Goengine.Engine
module Pool = Goengine.Pool
module Clock = Goengine.Clock
module Serve = Goserve.Serve
module T = Goobs.Telemetry

let sp = Printf.sprintf

(* ------------------------------------------------------------ spans *)

type span = { id : int; parent : int; op : int; name : string; t0 : float; t1 : float }

let recorded = ref []
let next_id = ref 0
let stack = ref []
let cur_op = ref 0
let origin = Clock.now_s ()

(* The current operation's layer values, and those of finished ones. *)
let values : (string * float) list ref = ref []
let per_op : (string * float) list list ref = ref []

let add_value name v =
  values :=
    match List.assoc_opt name !values with
    | Some old -> (name, old +. v) :: List.remove_assoc name !values
    | None -> (name, v) :: !values

let record ~name ~t0 ~t1 =
  incr next_id;
  let parent = match !stack with p :: _ -> p | [] -> 0 in
  recorded := { id = !next_id; parent; op = !cur_op; name; t0; t1 } :: !recorded;
  !next_id

(* A span around [f]; its duration is added to layer [name] in ms. *)
let span name f =
  incr next_id;
  let id = !next_id in
  let parent = match !stack with p :: _ -> p | [] -> 0 in
  stack := id :: !stack;
  let t0 = Clock.now_s () in
  let finish () =
    let t1 = Clock.now_s () in
    stack := List.tl !stack;
    recorded := { id; parent; op = !cur_op; name; t0; t1 } :: !recorded;
    add_value (name ^ "_ms") (1000.0 *. (t1 -. t0))
  in
  match f () with
  | r ->
      finish ();
      r
  | exception e ->
      finish ();
      raise e

let count name v = add_value name (float_of_int v)

(* One traced operation: a root span named [name] whose children are
   the layer spans [f] records. *)
let op name f =
  cur_op := !cur_op + 1;
  values := [];
  stack := [];
  let r = span name f in
  values := List.remove_assoc (name ^ "_ms") !values;
  per_op := !values :: !per_op;
  r

let write_spans path =
  let oc = open_out path in
  List.iter
    (fun s ->
      Printf.fprintf oc
        "{\"op\":%d,\"id\":%d,\"parent\":%d,\"name\":\"%s\",\"start_ms\":%.3f,\"end_ms\":%.3f}\n"
        s.op s.id s.parent s.name
        (1000.0 *. (s.t0 -. origin))
        (1000.0 *. (s.t1 -. origin)))
    (List.rev !recorded);
  close_out oc

(* ------------------------------------------------------- operations *)

(* Every per-layer metric the benchmark names; each is printed for every
   workload, 0 where the workload does not reach the layer. *)
let layer_names =
  [
    "minigo.lex_ms"; "minigo.parse_ms"; "minigo.sig_ms"; "minigo.typecheck_ms"; "minigo.tokens";
    "ir.lower_ms"; "ir.assemble_ms"; "analysis.alias_ms"; "analysis.callgraph_ms";
    "core.bmoc_ms"; "core.bmoc.channels"; "core.bmoc.solver_calls"; "core.bmoc.path_events";
    "core.solve_cache.hit_ratio"; "core.trad_ms"; "core.gfix.fix_all_ms"; "core.gfix.fixpoint_ms";
    "core.gfix.fixed"; "smt.sat_conflicts"; "smt.sat_propagations"; "engine.analyse_ms";
    "engine.stage_runs"; "engine.file_mem_hit"; "engine.file_disk_hit"; "engine.file_mem_evictions";
    "engine.pass_cache_hit_ratio"; "runtime.schedules_ms"; "runtime.steps"; "serve.parse_req_ms";
    "serve.resolve_ms"; "serve.handle_ms"; "serve.wire_ms";
  ]

(* The layers on each workload's blocking path, summed per operation. *)
let path_layers = function
  | "cold-oneshot" ->
      [ "minigo.lex_ms"; "minigo.parse_ms"; "minigo.sig_ms"; "minigo.typecheck_ms"; "ir.lower_ms";
        "ir.assemble_ms"; "analysis.alias_ms"; "analysis.callgraph_ms"; "core.bmoc_ms"; "core.trad_ms" ]
  | "gfix-dense" ->
      [ "minigo.lex_ms"; "minigo.parse_ms"; "minigo.sig_ms"; "minigo.typecheck_ms"; "ir.lower_ms";
        "ir.assemble_ms"; "core.bmoc_ms"; "core.gfix.fix_all_ms"; "core.gfix.fixpoint_ms";
        "runtime.schedules_ms" ]
  | _ -> [ "serve.handle_ms"; "engine.analyse_ms"; "serve.wire_ms" ]

(* The job count run.py gives the program (see its JOBS). *)
let jobs = 1

let pool = lazy (Pool.get ~jobs)

(* The engine's per-file fan-out grain, so the traced frontend forks the
   way a run of the program does. *)
let grain n = if n <= 8 then n else max 2 (n / 32)

let frontend sources =
  let pool = Lazy.force pool in
  let files = List.mapi (fun i src -> (sp "cli/file%d.go" i, src)) sources in
  let pmap f xs = Pool.map ~pool ~grain:(grain (List.length xs)) f xs in
  let toks =
    span "minigo.lex" (fun () -> pmap (fun (file, src) -> Minigo.Lexer.tokenize ~file src) files)
  in
  count "minigo.tokens" (List.fold_left (fun a t -> a + List.length t) 0 toks);
  let asts =
    span "minigo.parse" (fun () ->
        pmap (fun ((file, _), t) -> Minigo.Parser.parse_tokens ~file t) (List.combine files toks))
  in
  let sigs = span "minigo.sig" (fun () -> pmap Minigo.Typecheck.file_signatures asts) in
  let typed =
    span "minigo.typecheck" (fun () ->
        let env = Minigo.Typecheck.env_of_signatures (List.concat sigs) in
        pmap (Minigo.Typecheck.check_file env) asts)
  in
  let lowered =
    span "ir.lower" (fun () ->
        let ls = Goir.Lower.sigs_of_signatures (List.concat sigs) in
        pmap (Goir.Lower.lower_file ls) typed)
  in
  let ir = span "ir.assemble" (fun () -> Goir.Lower.assemble typed lowered) in
  (typed, ir)

let solve_counts () =
  let c n = M.value (M.counter M.default n) in
  (c "bmoc.solve_cache_hit", c "bmoc.solve_cache_miss")

let ratio h m = if h + m = 0 then 0.0 else float_of_int h /. float_of_int (h + m)

let bmoc ir =
  let reg = M.create () in
  let h0, m0 = solve_counts () in
  let full =
    span "core.bmoc" (fun () -> Gcatch.Bmoc.detect_full ~pool:(Lazy.force pool) ~metrics:reg ir)
  in
  let h1, m1 = solve_counts () in
  let c n = M.value (M.counter reg n) in
  count "core.bmoc.channels" (c "bmoc.channels_analysed");
  count "core.bmoc.solver_calls" (c "bmoc.solver_calls");
  count "core.bmoc.path_events" (c "bmoc.total_path_events");
  count "smt.sat_conflicts" (c "bmoc.sat_conflicts");
  count "smt.sat_propagations" (c "bmoc.sat_propagations");
  add_value "core.solve_cache.hit_ratio" (ratio (h1 - h0) (m1 - m0));
  full.Gcatch.Bmoc.f_bugs

(* Counters a run leaves in the engine's registry. *)
let engine_counts reg (r : E.run) =
  let counters = M.counters_list reg in
  let c n = Option.value (List.assoc_opt n counters) ~default:0 in
  count "engine.stage_runs"
    (List.fold_left
       (fun a (k, v) ->
         if String.length k > 6 && String.sub k 0 6 = "stage." && Filename.check_suffix k ".runs"
         then a + v
         else a)
       0 counters);
  count "engine.file_mem_hit" (c "engine.file_mem_hit");
  count "engine.file_disk_hit" (c "engine.file_disk_hit");
  count "engine.file_mem_evictions" (c "engine.file_mem_evictions");
  let hits =
    List.fold_left
      (fun a pr ->
        a + Option.value (List.assoc_opt "engine.pass_cache_hit" pr.E.pr_metrics) ~default:0)
      0 r.E.r_passes
  in
  add_value "engine.pass_cache_hit_ratio"
    (ratio hits (List.length r.E.r_passes - hits))

(* One fresh-engine analysis of [sources], as the CLI runs it, for the
   engine's own counters (cold-oneshot, gfix-dense). *)
let engine_probe ?only sources =
  Gcatch.Solve_cache.reset_memory ();
  let reg = M.create () in
  let engine = Gcatch.Passes.engine ~jobs ~registry:reg () in
  let r = span "engine.analyse" (fun () -> E.analyse ?only engine ~name:"cli" sources) in
  engine_counts reg r

let cold_op sources =
  (* a cold process starts with an empty solve cache *)
  Gcatch.Solve_cache.reset_memory ();
  let _, ir = frontend sources in
  let alias = span "analysis.alias" (fun () -> Goanalysis.Alias.analyse ir) in
  let cg = span "analysis.callgraph" (fun () -> Goanalysis.Callgraph.build ~alias ir) in
  ignore (bmoc ir);
  span "core.trad" (fun () ->
      let pool = Lazy.force pool in
      let prims = Gcatch.Primitives.collect ir alias in
      let module Tr = Gcatch.Traditional in
      ignore (Tr.check_missing_unlock ~pool prims alias ir);
      ignore (Tr.check_double_lock ~pool prims alias cg ir);
      ignore (Tr.check_conflicting_order ~pool prims alias ir);
      ignore (Tr.check_field_race ~pool prims alias ir);
      ignore (Tr.check_fatal_in_child ~pool ir))

let gfix_op (p : G.program) =
  Gcatch.Solve_cache.reset_memory ();
  let typed, ir = frontend p.G.g_files in
  let bugs = bmoc ir in
  let fixes = span "core.gfix.fix_all" (fun () -> Gcatch.Gfix.fix_all typed bugs) in
  count "core.gfix.fixed"
    (List.length (List.filter (function _, Gcatch.Gfix.Fixed _ -> true | _ -> false) fixes));
  let final = span "core.gfix.fixpoint" (fun () -> Gcatch.Gfix.fix_to_fixpoint typed fixes) in
  let steps =
    span "runtime.schedules" (fun () ->
        List.fold_left
          (fun a prog ->
            let _, _, _, reports = Goruntime.Interp.run_schedules ~seeds:30 prog in
            List.fold_left (fun a (r : Goruntime.Scheduler.report) -> a + r.steps) a reports)
          0 [ typed; final ])
  in
  count "runtime.steps" steps

(* ----------------------------------------------------- serve-edit *)

let file_json i = function
  | `Src s -> sp "{\"path\":\"f%02d.go\",\"src\":\"%s\"}" i (M.json_escape s)
  | `Digest d -> sp "{\"path\":\"f%02d.go\",\"digest\":\"%s\"}" i d

let body files =
  sp "{\"schema\":\"gcatch-serve/1\",\"name\":\"cli\",\"files\":[%s]}"
    (String.concat "," (List.mapi file_json files))

(* One edit request, taken apart: the request is parsed and resolved
   and the engine analyses it, each under its own span; then the same
   request goes over the socket.  Its analysis is then an artifact-cache
   hit, so the handler's time is the serving overhead and the rest of
   the round trip is the wire. *)
let serve_op srv sa handled b =
  let req =
    match span "serve.parse_req" (fun () -> Serve.parse_req b) with
    | Ok r -> r
    | Error e -> failwith e
  in
  let sources =
    match span "serve.resolve" (fun () -> Serve.resolve srv req.Serve.q_files) with
    | Ok s -> s
    | Error _ -> failwith "unknown digests"
  in
  let engine = Serve.engine srv in
  let reg = M.create () in
  E.set_registry engine reg;
  let h0, m0 = solve_counts () in
  let r = span "engine.analyse" (fun () -> E.analyse engine ~name:"cli" sources) in
  E.set_registry engine M.default;
  let h1, m1 = solve_counts () in
  engine_counts reg r;
  add_value "core.solve_cache.hit_ratio" (ratio (h1 - h0) (m1 - m0));
  (* the stages inside Engine.analyse: their times come from the
     engine's own stage histograms, the passes' from the run *)
  List.iter
    (fun (stage, layer) -> add_value layer (M.h_sum (M.histogram reg ("stage." ^ stage ^ ".ms"))))
    [
      ("lex", "minigo.lex_ms"); ("parse", "minigo.parse_ms"); ("sig", "minigo.sig_ms");
      ("typecheck", "minigo.typecheck_ms"); ("lower", "ir.lower_ms"); ("assemble", "ir.assemble_ms");
      ("alias", "analysis.alias_ms"); ("callgraph", "analysis.callgraph_ms");
    ];
  List.iter
    (fun pr ->
      let c n = Option.value (List.assoc_opt n pr.E.pr_metrics) ~default:0 in
      if pr.E.pr_pass = "bmoc" then begin
        add_value "core.bmoc_ms" (1000.0 *. pr.E.pr_elapsed_s);
        count "core.bmoc.channels" (c "bmoc.channels_analysed");
        count "core.bmoc.solver_calls" (c "bmoc.solver_calls");
        count "core.bmoc.path_events" (c "bmoc.total_path_events");
        count "smt.sat_conflicts" (c "bmoc.sat_conflicts");
        count "smt.sat_propagations" (c "bmoc.sat_propagations")
      end
      else add_value "core.trad_ms" (1000.0 *. pr.E.pr_elapsed_s))
    r.E.r_passes;
  let t0 = Clock.now_s () in
  let status, _ = T.request sa ~meth:"POST" ~path:"/analyse" ~body:b () in
  let t1 = Clock.now_s () in
  if status <> 200 then failwith (sp "edit request answered %d" status);
  let h0, h1 = !handled in
  ignore (record ~name:"serve.handle" ~t0:h0 ~t1:h1);
  add_value "serve.handle_ms" (1000.0 *. (h1 -. h0));
  add_value "serve.wire_ms" (1000.0 *. (t1 -. t0 -. (h1 -. h0)))

(* An in-process server configured as the workload's daemon, listening
   on a Unix socket in [dir].  Whole rounds of edits run until
   [deadline]. *)
let serve_ops ~seed ~dir ~deadline =
  let cache_dir = Filename.concat dir "trace-cache" in
  if not (Sys.file_exists cache_dir) then Unix.mkdir cache_dir 0o755;
  let cfg =
    {
      Serve.default_cfg with
      Serve.s_jobs = jobs;
      s_detector = { Gcatch.Bmoc.default_config with cache_dir = Some cache_dir };
      s_max_cache_mb = 64;
      s_snapshot_dir = Some cache_dir;
    }
  in
  let srv = Serve.create ~cfg () in
  let handled = ref (0.0, 0.0) in
  let post rq =
    let t0 = Clock.now_s () in
    let r = Serve.handle_analyse srv rq in
    handled := (t0, Clock.now_s ());
    r
  in
  let sock = Filename.concat dir "trace.sock" in
  let server =
    match T.start ~sock ~post:[ ("/analyse", post) ] ~handlers:[] () with
    | Ok s -> s
    | Error e -> failwith e
  in
  Fun.protect ~finally:(fun () -> T.stop server) @@ fun () ->
  let sa = Unix.ADDR_UNIX sock in
  let files = G.app ~seed in
  let texts = Array.mapi (fun i f -> fst (G.render i f G.site0)) files in
  (* the cold first request is set-up, as in the timed run *)
  let status, _ =
    T.request sa ~meth:"POST" ~path:"/analyse"
      ~body:(body (Array.to_list (Array.map (fun s -> `Src s) texts)))
      ()
  in
  if status <> 200 then failwith (sp "cold request answered %d" status);
  let digests = Array.map (fun s -> Digest.to_hex (Digest.string s)) texts in
  let round = List.length G.edit_round in
  let rec go = function
    | [] -> ()
    | (e : G.edit) :: rest ->
        if !cur_op mod round = 0 && !cur_op > 0 && Clock.now_s () >= deadline then ()
        else begin
          let b =
            body
              (List.init (Array.length texts) (fun i ->
                   if i = e.G.e_file then `Src e.G.e_src else `Digest digests.(i)))
          in
          digests.(e.G.e_file) <- Digest.to_hex (Digest.string e.G.e_src);
          op ("op." ^ G.class_str e.G.e_class) (fun () -> serve_op srv sa handled b);
          go rest
        end
  in
  go (G.edits ~seed ~rounds:16 files)

(* ------------------------------------------------------------ run *)

let median = function
  | [] -> 0.0
  | l ->
      let a = Array.of_list l in
      Array.sort compare a;
      let n = Array.length a in
      if n mod 2 = 1 then a.(n / 2) else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.0

(* Trace [workload] for about [seconds] (whole rounds, at least one),
   write the spans to [spans] and print the per-layer metrics. *)
let run ~workload ~seed ~dir ~seconds ~spans =
  let deadline = Clock.now_s () +. float_of_int seconds in
  let until_deadline round =
    let rec go () =
      List.iter (fun (name, f) -> op name f) round;
      if Clock.now_s () < deadline then go ()
    in
    go ()
  in
  let probe =
    match workload with
    | "cold-oneshot" ->
        let files = G.app ~seed in
        let texts = Array.to_list (Array.mapi (fun i f -> fst (G.render i f G.site0)) files) in
        until_deadline [ ("op.cold", fun () -> cold_op texts) ];
        fun () -> engine_probe texts
    | "gfix-dense" ->
        let progs = G.gfix_round ~seed in
        until_deadline
          (List.map (fun (p : G.program) -> (sp "op.gfix%d" p.G.g_bugs, fun () -> gfix_op p)) progs);
        let p = List.nth progs (G.gfix_fault_threshold - 1) in
        fun () -> engine_probe ~only:[ "bmoc" ] p.G.g_files
    | "serve-edit" ->
        serve_ops ~seed ~dir ~deadline;
        fun () -> ()
    | w -> failwith ("unknown workload " ^ w)
  in
  let ops = List.rev !per_op in
  let med name = median (List.map (fun v -> Option.value (List.assoc_opt name v) ~default:0.0) ops) in
  let attributed =
    median
      (List.map
         (fun v ->
           List.fold_left
             (fun a l -> a +. Option.value (List.assoc_opt l v) ~default:0.0)
             0.0 (path_layers workload))
         ops)
  in
  let metrics = List.map (fun n -> (n, med n)) layer_names in
  (* the engine counters of the CLI workloads come from one extra
     fresh-engine analysis, outside the operations above *)
  per_op := [];
  op "op.engine_probe" probe;
  let metrics =
    match (workload, !per_op) with
    | ("cold-oneshot" | "gfix-dense"), [ v ] ->
        List.map
          (fun (n, x) ->
            if String.length n > 7 && String.sub n 0 7 = "engine." then
              (n, Option.value (List.assoc_opt n v) ~default:0.0)
            else (n, x))
          metrics
    | _ -> metrics
  in
  write_spans spans;
  Printf.printf "{\"ops\":%d,\"attributed_ms\":%.3f,\"metrics\":{%s}}\n" (List.length ops)
    attributed
    (String.concat "," (List.map (fun (n, v) -> sp "\"%s\":%.6g" n v) metrics))
