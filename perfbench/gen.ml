(* Seeded inputs for the three workloads, built only from the public
   Gocorpus.Patterns and Gocorpus.Filler generators.

   Every seeded pattern instance is recorded with its file, its line span
   in the text the program receives, and its truth label, so each
   operation's output can be checked against ground truth instead of
   against a saved copy of an earlier run. *)

module P = Gocorpus.Patterns

let sp = Printf.sprintf

(* ------------------------------------------------------------ labels *)

type label =
  | Bmoc of P.fix_expect  (** a blocking bug the bmoc pass must report *)
  | Trad of string  (** a traditional bug; the pass that must report it *)
  | Bait  (** an accepted false-positive shape: reports allowed *)
  | Benign  (** must never be reported *)

let trad_pass = function
  | Gcatch.Report.Forget_unlock -> "trad.missing-unlock"
  | Gcatch.Report.Double_lock -> "trad.double-lock"
  | Gcatch.Report.Conflict_lock -> "trad.lock-order"
  | Gcatch.Report.Struct_field_race -> "trad.field-race"
  | Gcatch.Report.Fatal_in_child -> "trad.fatal-child"

let label_of_truth = function
  | P.T_bmoc { fixable; _ } -> Bmoc fixable
  | P.T_trad (k, _) -> Trad (trad_pass k)
  | P.T_fp_bait _ -> Bait
  | P.T_benign _ -> Benign

(* Every pattern shape carries exactly one truth. *)
let label_of (inst : P.instance) = label_of_truth (List.hd inst.P.truth)

let label_str = function
  | Bmoc _ -> "bmoc"
  | Trad pass -> pass
  | Bait -> "bait"
  | Benign -> "benign"

let fix_str = function
  | P.FS1 -> "FS1"
  | P.FS2 -> "FS2"
  | P.FS3 -> "FS3"
  | P.Funfixable _ -> "unfixable"

type span = {
  s_file : int;
  s_lo : int;  (** first line, 1-based, inclusive *)
  s_hi : int;  (** last line, inclusive *)
  s_kind : P.kind;
  s_label : label;
  s_funcs : string list;  (** top-level functions the instance declares *)
}

(* Top-level function names declared by a pattern's source. *)
let funcs_of src =
  List.filter_map
    (fun l ->
      if String.length l > 5 && String.sub l 0 5 = "func " then
        let rest = String.sub l 5 (String.length l - 5) in
        match String.index_opt rest '(' with
        | Some i -> Some (String.sub rest 0 i)
        | None -> None
      else None)
    (String.split_on_char '\n' src)

(* A source text under construction that knows its current line. *)
type text = { buf : Buffer.t; mutable line : int }

let text () = { buf = Buffer.create 65536; line = 1 }

let add t s =
  Buffer.add_string t.buf s;
  String.iter (fun c -> if c = '\n' then t.line <- t.line + 1) s

(* Append [s] and return the lines of its first and last non-blank
   characters. *)
let add_spanned t s =
  let lo = ref 0 and hi = ref 0 and line = ref t.line in
  String.iter
    (fun c ->
      if c = '\n' then incr line
      else if c <> ' ' && c <> '\t' then begin
        if !lo = 0 then lo := !line;
        hi := !line
      end)
    s;
  add t s;
  (!lo, !hi)

let add_instance t ~file kind n =
  let inst = P.instantiate kind n in
  let lo, hi = add_spanned t inst.P.src in
  {
    s_file = file;
    s_lo = lo;
    s_hi = hi;
    s_kind = kind;
    s_label = label_of inst;
    s_funcs = funcs_of inst.P.src;
  }

let shuffle rng a =
  for i = Array.length a - 1 downto 1 do
    let j = Random.State.int rng (i + 1) in
    let x = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- x
  done

(* Filler seeds: one per file, far enough apart that the generated
   helper names ([id + fseed * 1000]) never collide inside a package. *)
let filler_seed ~seed i = ((seed land 0xffff) * 64) + i + 1

(* ------------------------------------------------- the large app *)

(* The app cold-oneshot analyses and serve-edit edits: [app_files] files,
   each holding four pattern instances, ~1.9k lines of filler and one
   edit site.  Every one of the 17 kinds appears exactly 12 times; the
   seed decides where. *)
let app_files = 51
let per_file = 4
let app_filler_lines = 1960

type app_file = {
  f_base : string;  (** everything before the edit site *)
  f_spans : span list;
}

let app ~seed : app_file array =
  let rng = Random.State.make [| seed; 0xa99 |] in
  let kinds =
    Array.of_list
      (List.concat (List.init (app_files * per_file / 17) (fun _ -> P.all_kinds)))
  in
  shuffle rng kinds;
  Array.init app_files (fun i ->
      let t = text () in
      add t "package app\n";
      let spans =
        List.init per_file (fun j ->
            let n = (i * per_file) + j + 1 in
            add_instance t ~file:i kinds.(n - 1) n)
      in
      add t
        (Gocorpus.Filler.generate ~seed:(filler_seed ~seed i)
           ~target_lines:app_filler_lines);
      { f_base = Buffer.contents t.buf; f_spans = spans })

(* --------------------------------------------------- the edit site *)

(* Per-file editable state.  A code edit changes the literal [knob]; a
   comment edit changes [rev], which only appears in a comment on a line
   of its own (no line moves); a signature edit appends one function; a
   bug toggle appends (then removes) one seeded pattern instance at the
   end of the file, so no earlier line moves. *)
type site = {
  knob : int;
  rev : int;
  added : int;
  toggle : (P.kind * int) option;
}

let site0 = { knob = 17; rev = 0; added = 0; toggle = None }

let site_src i s =
  sp
    "\nfunc tuneKnob%d(v int) int {\n\t// knob revision %d\n\tlimit := %d\n\tif v > limit {\n\t\treturn limit\n\t}\n\treturn v\n}\n"
    i s.rev s.knob
  ^ String.concat ""
      (List.init s.added (fun k ->
           sp "\nfunc addedHook%d_%d(x int) int {\n\treturn x + %d\n}\n" i k
             (k + 1)))

(* The file's text and spans in a given edit state. *)
let render i (f : app_file) s : string * span list =
  let t = text () in
  add t f.f_base;
  add t (site_src i s);
  match s.toggle with
  | None -> (Buffer.contents t.buf, f.f_spans)
  | Some (kind, n) ->
      let sp = add_instance t ~file:i kind n in
      (Buffer.contents t.buf, f.f_spans @ [ sp ])

type edit_class = Code | Sig | Toggle_in | Toggle_out | Comment

let class_str = function
  | Code -> "code"
  | Sig -> "sig"
  | Toggle_in -> "toggle-in"
  | Toggle_out -> "toggle-out"
  | Comment -> "comment"

(* One round of serve-edit operations: mostly code edits, two signature
   edits, one bug toggled in and back out, one comment-only edit.  Its
   median is a code edit. *)
let edit_round =
  [ Code; Sig; Code; Toggle_in; Code; Comment; Code; Toggle_out; Code; Sig; Code; Code ]

(* Bug shapes a toggle may insert: every BMOC and traditional kind. *)
let toggle_kinds =
  List.filter
    (fun k ->
      match label_of (P.instantiate k 1) with
      | Bmoc _ | Trad _ -> true
      | Bait | Benign -> false)
    P.all_kinds

type edit = {
  e_op : int;
  e_class : edit_class;
  e_file : int;
  e_src : string;  (** the edited file's new text *)
  e_spans : span list;  (** the edited file's spans after the edit *)
}

(* [rounds] rounds of edits against [app]; instance numbers for toggled
   bugs start past the app's own. *)
let edits ~seed ~rounds (files : app_file array) : edit list =
  let rng = Random.State.make [| seed; 0xed17 |] in
  let sites = Array.make (Array.length files) site0 in
  let next_n = ref ((app_files * per_file) + 1) in
  let toggled = ref None in
  let op = ref 0 in
  List.concat
    (List.init rounds (fun _ ->
         List.map
           (fun cls ->
             let i =
               match (cls, !toggled) with
               | Toggle_out, Some i -> i
               | _ -> Random.State.int rng (Array.length files)
             in
             let s = sites.(i) in
             let s' =
               match cls with
               | Code ->
                   (* a new value every time, so no edit repeats an
                      earlier state of the file *)
                   { s with knob = s.knob + 1 + Random.State.int rng 9 }
               | Comment -> { s with rev = s.rev + 1 }
               | Sig -> { s with added = s.added + 1 }
               | Toggle_in ->
                   let k =
                     List.nth toggle_kinds
                       (Random.State.int rng (List.length toggle_kinds))
                   in
                   let n = !next_n in
                   incr next_n;
                   toggled := Some i;
                   { s with toggle = Some (k, n) }
               | Toggle_out ->
                   toggled := None;
                   { s with toggle = None }
             in
             sites.(i) <- s';
             let src, spans = render i files.(i) s' in
             incr op;
             { e_op = !op; e_class = cls; e_file = i; e_src = src; e_spans = spans })
           edit_round))

(* ------------------------------------------- gfix-dense programs *)

(* One round of gfix-dense operations: programs with 1..16 fixable BMOC
   bugs, the 9-bug program three times.  GFix's time grows with the bug
   count, so the round's median falls on the 9-bug program; with each
   program once, it would fall in the gap between the 8- and 9-bug
   programs and swing with whichever copy ran slowest.  Programs with
   more than eight bugs are generated from a fixed seed: GFix's fixpoint
   loop leaves every bug past the eighth unfixed (see README), so those
   operations fail on every run, and their inputs must not depend on the
   workload seed. *)
let gfix_bug_counts = List.init 9 (fun k -> k + 1) @ [ 9; 9 ] @ List.init 7 (fun k -> k + 10)
let gfix_fault_threshold = 8

let fixable_kinds =
  [ P.P_single_send_select; P.P_single_send_timeout; P.P_missing_interaction; P.P_loop_send ]

let benign_kinds = [ P.P_benign_buffered; P.P_benign_pipeline; P.P_benign_wg ]

type program = {
  g_bugs : int;
  g_files : string list;
  g_spans : span list;
}

let gfix_program ~seed bugs : program =
  let pseed = if bugs > gfix_fault_threshold then 0x5eed else seed in
  (* the file split and the pattern shapes and their order follow from
     the bug count alone: GFix re-detects the whole program once per fix,
     so its cost grows with every channel the program holds (a benign
     pipeline costs about as much as a bug), and a seed that redrew them
     would move the figures more than most changes to the program.  The
     seed draws the filler. *)
  let nfiles = 1 + (bugs mod 3) in
  let kinds =
    Array.of_list
      (List.init bugs (fun j -> List.nth fixable_kinds (j mod List.length fixable_kinds))
      @ benign_kinds)
  in
  let texts = Array.init nfiles (fun _ -> text ()) in
  Array.iter (fun t -> add t "package main\n") texts;
  let spans =
    Array.to_list
      (Array.mapi
         (fun j k -> add_instance texts.(j mod nfiles) ~file:(j mod nfiles) k (j + 1))
         kinds)
  in
  Array.iteri
    (fun i t ->
      add t
        (Gocorpus.Filler.generate
           ~seed:(filler_seed ~seed:(pseed + bugs) i)
           ~target_lines:(180 / nfiles)))
    texts;
  let main =
    "\nfunc main() {\n"
    ^ String.concat ""
        (List.concat
           (Array.to_list
              (Array.mapi
                 (fun j k -> List.map (fun s -> "\t" ^ s ^ "\n") (P.driver_for k (j + 1)))
                 kinds)))
    ^ "}\n"
  in
  add texts.(nfiles - 1) main;
  {
    g_bugs = bugs;
    g_files = Array.to_list (Array.map (fun t -> Buffer.contents t.buf) texts);
    g_spans = spans;
  }

let gfix_round ~seed = List.map (gfix_program ~seed) gfix_bug_counts

let count_fix spans want =
  List.length
    (List.filter (fun s -> match s.s_label with Bmoc f -> f = want | _ -> false) spans)
