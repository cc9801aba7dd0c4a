(* The gfix-dense output check.

   gfix prints the patched program to stdout (one [package] header per
   file) and one "fixed: ..." log line per landed strategy to stderr.  An
   operation passes when:
   - the patched program parses and typechecks;
   - re-detection in this process finds no BMOC report inside any
     seeded fixable instance;
   - the "fixed:" lines per strategy equal the seeded FS1/FS2/FS3 counts;
   - the patched program leaks on none of [schedules] Goruntime
     schedules, drawn from seeds gfix's own validation (1..30) never
     uses. *)

module G = Gen
module P = Gocorpus.Patterns

let schedules = 20
let first_schedule_seed = 1001

(* Split the printed program at its [package] headers. *)
let split_files out =
  let files = ref [] and cur = Buffer.create 4096 in
  let flush () =
    if Buffer.length cur > 0 then files := Buffer.contents cur :: !files;
    Buffer.clear cur
  in
  List.iter
    (fun l ->
      if String.length l >= 8 && String.sub l 0 8 = "package " then flush ();
      Buffer.add_string cur l;
      Buffer.add_char cur '\n')
    (String.split_on_char '\n' out);
  flush ();
  List.rev !files

(* Line ranges of top-level functions in pretty-printed text: a function
   starts at a "func " line and ends at the next line that is a bare
   closing brace. *)
let func_ranges text =
  let tbl = Hashtbl.create 64 in
  let cur = ref None in
  List.iteri
    (fun i l ->
      let line = i + 1 in
      match !cur with
      | None -> (
          match G.funcs_of l with
          | [ name ] -> cur := Some (name, line)
          | _ -> ())
      | Some (name, lo) ->
          if l = "}" then begin
            Hashtbl.replace tbl name (lo, line);
            cur := None
          end)
    (String.split_on_char '\n' text);
  tbl

(* Strategy of one "fixed:" log line, from its strategy="..." field. *)
let strategy_of line =
  let has s =
    let n = String.length s and m = String.length line in
    let rec go i = i + n <= m && (String.sub line i n = s || go (i + 1)) in
    go 0
  in
  if not (has "fixed: ") || has "not fixed:" then None
  else if has "strategy=\"Strategy-III" then Some P.FS3
  else if has "strategy=\"Strategy-II" then Some P.FS2
  else if has "strategy=\"Strategy-I" then Some P.FS1
  else None

let check (prog : G.program) ~stdout ~stderr : string list =
  let reasons = ref [] in
  let fail r = reasons := r :: !reasons in
  let texts = split_files stdout in
  (match
     let files =
       List.mapi
         (fun i src -> Minigo.Parser.parse_file ~file:(Printf.sprintf "out/file%d.go" i) src)
         texts
     in
     Minigo.Typecheck.check_program files
   with
  | exception e -> fail ("patched program does not compile: " ^ Printexc.to_string e)
  | typed ->
      (* seeded fixable instances, located in the printed text *)
      let ranges = List.map func_ranges texts in
      let in_fixable (loc : Minigo.Loc.t) =
        List.exists
          (fun (s : G.span) ->
            match s.G.s_label with
            | G.Bmoc (P.FS1 | P.FS2 | P.FS3) ->
                List.exists
                  (fun (fi, tbl) ->
                    Printf.sprintf "out/file%d.go" fi = loc.Minigo.Loc.file
                    && List.exists
                         (fun fn ->
                           match Hashtbl.find_opt tbl fn with
                           | Some (lo, hi) -> lo <= loc.Minigo.Loc.line && loc.Minigo.Loc.line <= hi
                           | None -> false)
                         s.G.s_funcs)
                  (List.mapi (fun i t -> (i, t)) ranges)
            | _ -> false)
          prog.G.g_spans
      in
      let bugs, _ = Gcatch.Bmoc.detect (Goir.Lower.lower_program typed) in
      let remaining =
        List.filter
          (fun (b : Gcatch.Report.bmoc_bug) ->
            List.exists in_fixable
              (Option.to_list b.Gcatch.Report.chan_loc
              @ List.map (fun o -> o.Gcatch.Report.bo_loc) b.Gcatch.Report.blocked))
          bugs
      in
      if remaining <> [] then
        fail (Printf.sprintf "%d BMOC report(s) remain in seeded fixable spans" (List.length remaining));
      let leaks = ref 0 in
      for k = 0 to schedules - 1 do
        let r = Goruntime.Interp.run ~seed:(first_schedule_seed + k) typed in
        if r.Goruntime.Scheduler.leaked <> [] then incr leaks
      done;
      if !leaks > 0 then fail (Printf.sprintf "patched program leaks on %d/%d schedules" !leaks schedules));
  let fixed = List.filter_map strategy_of (String.split_on_char '\n' stderr) in
  List.iter
    (fun (f, name) ->
      let got = List.length (List.filter (( = ) f) fixed) and want = G.count_fix prog.G.g_spans f in
      if got <> want then fail (Printf.sprintf "%d %s fix(es) logged, %d seeded" got name want))
    [ (P.FS1, "FS1"); (P.FS2, "FS2"); (P.FS3, "FS3") ];
  List.rev !reasons
