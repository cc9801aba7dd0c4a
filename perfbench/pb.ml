(* pb — the benchmark's helper executable.

     pb gen-app   --seed N --dir D --edit-rounds R   # cold-oneshot/serve-edit inputs
     pb gen-gfix  --seed N --dir D                   # gfix-dense inputs
     pb describe  --seed N                           # each workload's make-up
     pb check-gfix --seed N --dir D                  # verdicts on gfix outputs
     pb trace --workload W --seed N --dir D --seconds S --spans FILE

   Files are written under D; JSON goes to stdout.  run.py is the
   benchmark's entry point; this executable holds the parts that need
   the library. *)

module G = Gen

let sp = Printf.sprintf
let esc = Goobs.Metrics.json_escape

let write_file path data =
  let oc = open_out_bin path in
  Fun.protect ~finally:(fun () -> close_out oc) (fun () -> output_string oc data)

let mkdir_p path =
  let rec go p =
    if p <> "" && p <> "." && p <> "/" && not (Sys.file_exists p) then begin
      go (Filename.dirname p);
      Unix.mkdir p 0o755
    end
  in
  go path

let span_json (s : G.span) =
  sp "{\"file\":%d,\"lo\":%d,\"hi\":%d,\"kind\":\"%s\",\"label\":\"%s\"%s}" s.G.s_file
    s.G.s_lo s.G.s_hi
    (Gocorpus.Patterns.kind_name s.G.s_kind)
    (G.label_str s.G.s_label)
    (match s.G.s_label with
    | G.Bmoc f -> sp ",\"fix\":\"%s\"" (G.fix_str f)
    | _ -> "")

let spans_json spans = "[" ^ String.concat "," (List.map span_json spans) ^ "]"

let lines s =
  let n = ref 0 in
  String.iter (fun c -> if c = '\n' then incr n) s;
  !n

(* ---------------------------------------------------------- gen *)

let app_texts seed =
  let files = G.app ~seed in
  (files, Array.mapi (fun i f -> fst (G.render i f G.site0)) files)

let gen_app ~seed ~dir ~edit_rounds =
  let files, texts = app_texts seed in
  let app_dir = Filename.concat dir "app" in
  mkdir_p app_dir;
  let names = Array.mapi (fun i _ -> sp "f%02d.go" i) texts in
  Array.iteri (fun i src -> write_file (Filename.concat app_dir names.(i)) src) texts;
  let edits = G.edits ~seed ~rounds:edit_rounds files in
  let edit_dir = Filename.concat dir "edits" in
  mkdir_p edit_dir;
  let edit_json (e : G.edit) =
    let path = Filename.concat edit_dir (sp "e%04d.go" e.G.e_op) in
    write_file path e.G.e_src;
    sp "{\"op\":%d,\"class\":\"%s\",\"file\":%d,\"src\":\"%s\",\"spans\":%s}" e.G.e_op
      (G.class_str e.G.e_class) e.G.e_file (esc path) (spans_json e.G.e_spans)
  in
  write_file
    (Filename.concat dir "app.json")
    (sp "{\"files\":[%s],\"spans\":%s,\"round\":%d,\"edits\":[%s]}\n"
       (String.concat ","
          (Array.to_list (Array.map (fun n -> sp "\"%s\"" (esc (Filename.concat app_dir n))) names)))
       (spans_json (List.concat_map (fun f -> f.G.f_spans) (Array.to_list files)))
       (List.length G.edit_round)
       (String.concat "," (List.map edit_json edits)))

let gen_gfix ~seed ~dir =
  let progs = G.gfix_round ~seed in
  let entries =
    List.mapi
      (fun k (p : G.program) ->
        let pdir = Filename.concat dir (sp "gfix/p%02d" k) in
        mkdir_p pdir;
        let paths =
          List.mapi
            (fun j src ->
              let path = Filename.concat pdir (sp "f%d.go" j) in
              write_file path src;
              sp "\"%s\"" (esc path))
            p.G.g_files
        in
        sp "{\"bugs\":%d,\"files\":[%s]}" p.G.g_bugs (String.concat "," paths))
      progs
  in
  write_file (Filename.concat dir "gfix.json")
    (sp "{\"programs\":[%s]}\n" (String.concat "," entries))

(* ----------------------------------------------------- describe *)

let describe ~seed =
  let kinds_line spans =
    String.concat ", "
      (List.filter_map
         (fun k ->
           match List.length (List.filter (fun s -> s.G.s_kind = k) spans) with
           | 0 -> None
           | n -> Some (sp "%s %d" (Gocorpus.Patterns.kind_name k) n))
         Gocorpus.Patterns.all_kinds)
  in
  let by_label spans =
    let c f = List.length (List.filter (fun s -> f s.G.s_label) spans) in
    sp "%d BMOC, %d traditional, %d bait, %d benign"
      (c (function G.Bmoc _ -> true | _ -> false))
      (c (function G.Trad _ -> true | _ -> false))
      (c (function G.Bait -> true | _ -> false))
      (c (function G.Benign -> true | _ -> false))
  in
  let files, texts = app_texts seed in
  let spans = List.concat_map (fun f -> f.G.f_spans) (Array.to_list files) in
  let loc = Array.fold_left (fun a s -> a + lines s) 0 texts in
  Printf.printf "seed %d\n\n" seed;
  Printf.printf "cold-oneshot / serve-edit app: %d files, %d LoC, %d instances (%s)\n  %s\n"
    (Array.length texts) loc (List.length spans) (by_label spans) (kinds_line spans);
  let edits = G.edits ~seed ~rounds:1 files in
  Printf.printf "serve-edit round (%d ops): %s\n" (List.length edits)
    (String.concat " " (List.map (fun e -> sp "%s@f%02d" (G.class_str e.G.e_class) e.G.e_file) edits));
  Printf.printf "\ngfix-dense round (%d programs):\n" (List.length G.gfix_bug_counts);
  List.iter
    (fun (p : G.program) ->
      Printf.printf "  %2d bug(s): %d file(s), %4d LoC, FS1 %d FS2 %d FS3 %d; %s%s\n" p.G.g_bugs
        (List.length p.G.g_files)
        (List.fold_left (fun a s -> a + lines s) 0 p.G.g_files)
        (G.count_fix p.G.g_spans Gocorpus.Patterns.FS1)
        (G.count_fix p.G.g_spans Gocorpus.Patterns.FS2)
        (G.count_fix p.G.g_spans Gocorpus.Patterns.FS3)
        (kinds_line p.G.g_spans)
        (if p.G.g_bugs > G.gfix_fault_threshold then "  [fixed seed; fails: GFix fault]" else ""))
    (G.gfix_round ~seed)

(* --------------------------------------------------- check-gfix *)

let read_file path =
  let ic = open_in_bin path in
  Fun.protect ~finally:(fun () -> close_in ic) (fun () ->
      really_input_string ic (in_channel_length ic))

(* One verdict line per output pair [D/out/pKK.out] + [.err] present;
   the programs and their truth are regenerated from the seed. *)
let check_gfix ~seed ~dir =
  List.iteri
    (fun k prog ->
      let base = Filename.concat dir (sp "out/p%02d" k) in
      if Sys.file_exists (base ^ ".out") then begin
        let reasons =
          Check.check prog ~stdout:(read_file (base ^ ".out")) ~stderr:(read_file (base ^ ".err"))
        in
        Printf.printf "{\"prog\":%d,\"ok\":%b,\"reasons\":[%s]}\n%!" k (reasons = [])
          (String.concat "," (List.map (fun r -> sp "\"%s\"" (esc r)) reasons))
      end)
    (G.gfix_round ~seed)

(* ---------------------------------------------------------- main *)

let () =
  let args = Array.to_list Sys.argv in
  let rec opt name = function
    | k :: v :: _ when k = name -> Some v
    | _ :: rest -> opt name rest
    | [] -> None
  in
  let need name =
    match opt name args with
    | Some v -> v
    | None ->
        prerr_endline ("pb: missing " ^ name);
        exit 2
  in
  let int_arg name = int_of_string (need name) in
  match args with
  | _ :: "gen-app" :: _ ->
      gen_app ~seed:(int_arg "--seed") ~dir:(need "--dir") ~edit_rounds:(int_arg "--edit-rounds")
  | _ :: "gen-gfix" :: _ -> gen_gfix ~seed:(int_arg "--seed") ~dir:(need "--dir")
  | _ :: "describe" :: _ -> describe ~seed:(int_arg "--seed")
  | _ :: "check-gfix" :: _ -> check_gfix ~seed:(int_arg "--seed") ~dir:(need "--dir")
  | _ :: "trace" :: _ ->
      Trace.run ~workload:(need "--workload") ~seed:(int_arg "--seed") ~dir:(need "--dir")
        ~seconds:(int_arg "--seconds") ~spans:(need "--spans")
  | _ ->
      prerr_endline "usage: pb (gen-app|gen-gfix|describe|check-gfix|trace) [options]";
      exit 2
