(* Documentation lint for .mli interfaces: every exported item (val,
   type, exception, external, module) must carry an odoc comment —
   either a [(** ... *)] block directly above it, inline on the same
   line, or directly below the declaration.

   Run as a plain script (no odoc needed):

     ocaml tools/doc_lint.ml lib/storage lib/compress

   Exits 1 and lists the offenders if any exported item is undocumented;
   `make docs` treats that as a build failure.

   Cross-reference mode (`--xref FILE.md`, repeatable): additionally
   checks an operator document against the sources, so guides like
   docs/SERVING.md cannot drift silently —

   - every `--flag` token the document mentions must exist as a quoted
     flag name somewhere under bin/, bench/ or tools/ (cmdliner
     declares flags as [info [ "serve-workers" ]], the bench parses
     "--scale" literals; both spellings are accepted), except cmdliner's
     own --help and --version;
   - every `xquec_*` metric token must correspond to a metric-name
     string literal in the sources: the exposition maps registry name
     "a.b.c" to "xquec_a_b_c", so the token (minus the histogram
     `_bucket`/`_sum`/`_count` suffixes and any label braces) must
     match a literal with dots normalized to underscores, or extend
     one (dynamically-suffixed families like "serve.budget." ^ kind
     and per-container series match by prefix); a family written
     `xquec_a_{b,c}` must prefix some literal;
   - format constants cited in backtick code spans must resolve: a
     magic like `XQC\x04` must appear as a string literal in the
     sources (the literal extractor strips the backslash, so source
     "XQC\x04" and doc `XQC\x04` both normalize to "XQCx04"), and
     flag / header-field identifiers (`flag_*`, `h_*`, `b_*`) must
     exist as words in the OCaml sources — docs/FORMATS.md cannot
     name a constant the code does not define;
   - a `Module.name` in a code span, where Module is a lib module (the
     basename of a .ml under lib/), must name a top-level let, val,
     type, record field or constructor of that module's source; a
     `Module.value` whose module is no lib module must name a module
     the sources qualify names with (Unix, Domain, ...). A deleted
     module or function cannot stay cited.

   Every run also resolves the odoc references in the lib sources (.ml
   and .mli under lib/): a [{!Module.name}] by the `Module.name` rule
   above, a bare [{!name}] against the citing file's own module (or, if
   capitalized, a lib module), so a doc comment cannot cite a deleted
   name either.

   Export mode (`--exports ALLOW`): every top-level `val` of a lib/
   interface must be used by another compilation unit under lib/, bin/,
   bench/ or tools/ (as `Module.name`, or unqualified in a unit that
   opens Module; comments and string literals do not count), or be
   listed in ALLOW as `Module.name: reason`. Modules are matched by
   name, so two same-named modules (the xmlkit and xquery parsers)
   share their callers. *)

let item_prefixes = [ "val "; "type "; "exception "; "external "; "module " ]

let starts_with p s = String.length s >= String.length p && String.sub s 0 (String.length p) = p

let trim = String.trim

(* Per line: does a doc comment end on it? Tracks comment nesting so a
   close marker inside a plain comment does not count. *)
let analyze_lines (lines : string array) =
  let n = Array.length lines in
  let closes_doc = Array.make n false in
  let depth = ref 0 in
  let in_doc = ref false in
  for i = 0 to n - 1 do
    let line = lines.(i) in
    let len = String.length line in
    let j = ref 0 in
    while !j < len do
      if !j + 2 < len && String.sub line !j 3 = "(**" && !depth = 0 then begin
        depth := 1;
        in_doc := true;
        j := !j + 3
      end
      else if !j + 1 < len && String.sub line !j 2 = "(*" then begin
        if !depth = 0 then in_doc := false;
        incr depth;
        j := !j + 2
      end
      else if !j + 1 < len && String.sub line !j 2 = "*)" then begin
        decr depth;
        if !depth = 0 && !in_doc then closes_doc.(i) <- true;
        j := !j + 2
      end
      else incr j
    done
  done;
  closes_doc

let check_file path =
  let ic = open_in path in
  let lines = ref [] in
  (try
     while true do
       lines := input_line ic :: !lines
     done
   with End_of_file -> close_in ic);
  let lines = Array.of_list (List.rev !lines) in
  let closes_doc = analyze_lines lines in
  let n = Array.length lines in
  let missing = ref [] in
  for i = 0 to n - 1 do
    let line = lines.(i) in
    if List.exists (fun p -> starts_with p line) item_prefixes then begin
      (* skip "module type of"-style aliases and local opens *)
      let prev_doc =
        (* nearest non-blank line above ends a doc comment *)
        let rec above k = if k < 0 then false
          else if trim lines.(k) = "" then false
          else closes_doc.(k)
        in
        above (i - 1)
      in
      let contains_sub s sub =
        let ls = String.length s and lb = String.length sub in
        let rec go k = k + lb <= ls && (String.sub s k lb = sub || go (k + 1)) in
        go 0
      in
      let inline_doc =
        (* a doc opener on the declaration line itself or right after *)
        let has k = k < n && contains_sub lines.(k) "(**" in
        has i || has (i + 1)
      in
      if not (prev_doc || inline_doc) then missing := (i + 1, trim line) :: !missing
    end
  done;
  List.rev !missing

(* --- markdown cross-reference ----------------------------------------- *)

let read_file path =
  let ic = open_in_bin path in
  let n = in_channel_length ic in
  let s = really_input_string ic n in
  close_in ic;
  s

(* every .ml/.mli file under [roots], recursively *)
let source_files roots =
  let out = ref [] in
  let rec walk dir =
    if Sys.file_exists dir && Sys.is_directory dir then
      Array.iter
        (fun entry ->
          let p = Filename.concat dir entry in
          if Sys.is_directory p then (if entry <> "_build" then walk p)
          else if Filename.check_suffix p ".ml" || Filename.check_suffix p ".mli" then
            out := p :: !out)
        (Sys.readdir dir)
  in
  List.iter walk roots;
  !out

(* all double-quoted string literals in an OCaml source (good enough:
   skips backslash escapes, does not exclude comments — a literal
   inside a comment only widens what the doc may reference) *)
let string_literals (src : string) : string list =
  let out = ref [] in
  let n = String.length src in
  let i = ref 0 in
  while !i < n do
    if src.[!i] = '"' then begin
      let buf = Buffer.create 16 in
      incr i;
      let fin = ref false in
      while (not !fin) && !i < n do
        if src.[!i] = '\\' && !i + 1 < n then begin
          Buffer.add_char buf src.[!i + 1];
          i := !i + 2
        end
        else if src.[!i] = '"' then fin := true
        else begin
          Buffer.add_char buf src.[!i];
          incr i
        end
      done;
      incr i;
      out := Buffer.contents buf :: !out
    end
    else incr i
  done;
  !out

let is_word_char c =
  (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') || (c >= '0' && c <= '9') || c = '_'

let is_flag_char c = (c >= 'a' && c <= 'z') || (c >= '0' && c <= '9') || c = '-'

(* `--flag-name` tokens in a markdown text *)
let doc_flags (text : string) : string list =
  let out = ref [] in
  let n = String.length text in
  let i = ref 0 in
  while !i + 1 < n do
    if text.[!i] = '-' && text.[!i + 1] = '-'
       && (!i = 0 || not (is_flag_char text.[!i - 1] || text.[!i - 1] = '-'))
    then begin
      let j = ref (!i + 2) in
      while !j < n && is_flag_char text.[!j] do incr j done;
      let name = String.sub text (!i + 2) (!j - !i - 2) in
      if String.length name >= 2 && name.[0] >= 'a' && name.[0] <= 'z' then
        out := name :: !out;
      i := !j
    end
    else incr i
  done;
  List.sort_uniq compare !out

(* `xquec_*` metric tokens in a markdown text *)
let doc_metrics (text : string) : string list =
  let out = ref [] in
  let needle = "xquec_" in
  let nl = String.length needle in
  let n = String.length text in
  let i = ref 0 in
  while !i + nl <= n do
    if String.sub text !i nl = needle && (!i = 0 || not (is_word_char text.[!i - 1]))
    then begin
      let j = ref (!i + nl) in
      while !j < n && is_word_char text.[!j] do incr j done;
      out := String.sub text !i (!j - !i) :: !out;
      i := !j
    end
    else incr i
  done;
  List.sort_uniq compare !out

(* single-backtick `...` code spans in a markdown text (fenced blocks
   contribute nothing: ``` opens an empty span, which is skipped) *)
let doc_code_spans (text : string) : string list =
  let out = ref [] in
  let n = String.length text in
  let i = ref 0 in
  while !i < n do
    if text.[!i] = '`' then begin
      let j = ref (!i + 1) in
      while !j < n && text.[!j] <> '`' && text.[!j] <> '\n' do incr j done;
      if !j < n && text.[!j] = '`' && !j > !i + 1 then begin
        out := String.sub text (!i + 1) (!j - !i - 1) :: !out;
        i := !j + 1
      end
      else incr i
    end
    else incr i
  done;
  List.sort_uniq compare !out

let is_hex c = (c >= '0' && c <= '9') || (c >= 'a' && c <= 'f') || (c >= 'A' && c <= 'F')

(* a repository magic cited as `XQC\xNN` *)
let is_magic_token s =
  String.length s = 7
  && String.sub s 0 3 = "XQC"
  && s.[3] = '\\' && s.[4] = 'x' && is_hex s.[5] && is_hex s.[6]

(* a format-flag or block/header-field identifier: `flag_*`, `h_*`, `b_*` *)
let is_const_ident s =
  let has_prefix p = starts_with p s && String.length s > String.length p in
  (has_prefix "flag_" || has_prefix "h_" || has_prefix "b_")
  && String.for_all (fun c -> (c >= 'a' && c <= 'z') || (c >= '0' && c <= '9') || c = '_') s

(* whole-word occurrence of [w] in [hay] *)
let contains_word (hay : string) (w : string) : bool =
  let lw = String.length w and lh = String.length hay in
  let rec go k =
    if k + lw > lh then false
    else if
      hay.[k] = w.[0]
      && String.sub hay k lw = w
      && (k = 0 || not (is_word_char hay.[k - 1]))
      && (k + lw = lh || not (is_word_char hay.[k + lw]))
    then true
    else go (k + 1)
  in
  lw > 0 && go 0

let strip_suffix s suf =
  if Filename.check_suffix s suf then String.sub s 0 (String.length s - String.length suf)
  else s

let dots_to_underscores s = String.map (fun c -> if c = '.' then '_' else c) s

(* --- `Module.name` spans ------------------------------------------- *)

(* Lib modules by name (the capitalized basename of each .ml under
   lib/), each with its .ml/.mli sources split into lines; a name two
   libraries share maps to the sources of both. *)
let lib_modules : (string, string list) Hashtbl.t Lazy.t =
  lazy
    (let tbl = Hashtbl.create 128 in
     List.iter
       (fun p ->
         let m = String.capitalize_ascii (Filename.remove_extension (Filename.basename p)) in
         let lines = String.split_on_char '\n' (read_file p) in
         Hashtbl.replace tbl m (lines @ Option.value ~default:[] (Hashtbl.find_opt tbl m)))
       (source_files [ "lib" ]);
     tbl)

let is_upper c = c >= 'A' && c <= 'Z'

(* Dotted identifier paths in a code span, as (module, name) pairs:
   `Xquec_obs.Explain.strategy p` gives ("Explain", "strategy"). The
   name is the last component, the module the one before it. *)
let dotted_refs (span : string) : (string * string) list =
  let n = String.length span in
  let out = ref [] in
  let i = ref 0 in
  while !i < n do
    if is_word_char span.[!i] || span.[!i] = '.' then begin
      let j = ref !i in
      while !j < n && (is_word_char span.[!j] || span.[!j] = '.' || span.[!j] = '\'') do incr j done;
      let comps =
        List.filter (fun c -> c <> "") (String.split_on_char '.' (String.sub span !i (!j - !i)))
      in
      (match List.rev comps with
      | name :: m :: outer when List.for_all (fun c -> is_upper c.[0]) (m :: outer) ->
        out := (m, name) :: !out
      | _ -> ());
      i := !j
    end
    else incr i
  done;
  !out

(* [line] declares [name] at top level: [let]/[and]/[val]/[type]/
   [external] at column 0, then [rec]/[nonrec] and type parameters *)
let declares_value (line : string) (name : string) : bool =
  let ident w =
    let k = ref 0 in
    while !k < String.length w && (is_word_char w.[!k] || w.[!k] = '\'') do incr k done;
    String.sub w 0 !k
  in
  let rec after_keyword = function
    | ("rec" | "nonrec") :: rest -> after_keyword rest
    | w :: rest when w.[0] = '\'' || w.[0] = '(' -> after_keyword rest
    | w :: _ -> ident w = name
    | [] -> false
  in
  String.length line > 0
  && line.[0] <> ' '
  &&
  match List.filter (fun w -> w <> "") (String.split_on_char ' ' line) with
  | ("let" | "and" | "val" | "type" | "external") :: rest -> after_keyword rest
  | _ -> false

(* [name] occurs in [line] as a whole word whose surroundings satisfy
   [ok ~before ~after] (both trimmed) *)
let occurs_as (line : string) (name : string) ~ok : bool =
  let ln = String.length line and lw = String.length name in
  let rec go k =
    k + lw <= ln
    && ((String.sub line k lw = name
        && (k + lw = ln || not (is_word_char line.[k + lw]))
        && (k = 0 || not (is_word_char line.[k - 1]))
        && ok ~before:(String.trim (String.sub line 0 k))
             ~after:(String.trim (String.sub line (k + lw) (ln - k - lw))))
       || go (k + 1))
  in
  go 0

(* a constructor, exception or submodule: after [|], [=], [exception]
   or [module] *)
let declares_constructor line name =
  occurs_as line name ~ok:(fun ~before ~after:_ ->
      List.exists
        (fun suffix -> String.ends_with ~suffix before)
        [ "|"; "="; "exception"; "module" ])

(* a record field: [name :] first in a line or after [{], [;] or
   [mutable] *)
let declares_field line name =
  occurs_as line name ~ok:(fun ~before ~after ->
      String.starts_with ~prefix:":" after
      && (before = ""
         || List.exists (fun suffix -> String.ends_with ~suffix before) [ "{"; ";"; "mutable" ]))

(* [m.] qualifies a name somewhere in [srcs] *)
let qualifies (srcs : string list) (m : string) : bool =
  List.exists
    (fun src ->
      List.exists
        (fun line ->
          occurs_as line m ~ok:(fun ~before:_ ~after -> String.starts_with ~prefix:"." after))
        (String.split_on_char '\n' src))
    srcs

(* [name] is defined in the module whose source lines are [lines]: a
   top-level value, type or record field, or, capitalized, a lib module
   or a constructor, exception or submodule *)
let defines ~modules (lines : string list) (name : string) : bool =
  if is_upper name.[0] then
    Hashtbl.mem modules name || List.exists (fun l -> declares_constructor l name) lines
  else List.exists (fun l -> declares_value l name || declares_field l name) lines

(* A `Module.name` naming a lib module must resolve to a top-level
   definition of that module; a `Module.value` whose module is no lib
   module must at least name a module the sources use (Unix, Domain,
   ...), so a deleted module's names do not linger. The error, if any. *)
let module_ref_error ~modules ~srcs ((m, name) : string * string) : string option =
  match Hashtbl.find_opt modules m with
  | None ->
    let camel = String.length m > 1 && m.[1] >= 'a' && m.[1] <= 'z' in
    if camel && (not (is_upper name.[0])) && not (qualifies srcs m) then
      Some (Printf.sprintf "`%s.%s` names no module of the sources" m name)
    else None
  | Some lines ->
    if defines ~modules lines name then None
    else Some (Printf.sprintf "`%s.%s` is not defined in lib module %s" m name m)

let check_module_refs ~modules ~srcs (md_path : string) (text : string) : int =
  List.fold_left
    (fun failures r ->
      match module_ref_error ~modules ~srcs r with
      | None -> failures
      | Some msg ->
        Printf.eprintf "%s: %s\n" md_path msg;
        failures + 1)
    0
    (List.sort_uniq compare (List.concat_map dotted_refs (doc_code_spans text)))

(* --- odoc references in the lib sources ------------------------------ *)

(* The targets of the [{!ref}] references in an OCaml source, with
   their line numbers: the text after "{!" up to the closing brace or
   the first blank. *)
let odoc_refs (src : string) : (int * string) list =
  let out = ref [] in
  let n = String.length src in
  let line = ref 1 in
  for i = 0 to n - 1 do
    if src.[i] = '\n' then incr line
    else if src.[i] = '{' && i + 1 < n && src.[i + 1] = '!' then begin
      let j = ref (i + 2) in
      while !j < n && not (List.mem src.[!j] [ '}'; ' '; '\n'; '\t' ]) do incr j done;
      if !j > i + 2 then out := (!line, String.sub src (i + 2) (!j - i - 2)) :: !out
    end
  done;
  List.rev !out

let check_odoc_refs ~modules ~srcs : int =
  List.fold_left
    (fun failures path ->
      let own =
        String.capitalize_ascii (Filename.remove_extension (Filename.basename path))
      in
      List.fold_left
        (fun failures (lnum, target) ->
          let error =
            match String.split_on_char '.' target with
            | [ name ] ->
              if defines ~modules (Option.value ~default:[] (Hashtbl.find_opt modules own)) name
              then None
              else Some (Printf.sprintf "{!%s} is not defined in %s" name own)
            | _ ->
              List.find_map (module_ref_error ~modules ~srcs) (dotted_refs target)
              |> Option.map (fun msg -> Printf.sprintf "{!%s}: %s" target msg)
          in
          match error with
          | None -> failures
          | Some msg ->
            Printf.eprintf "%s:%d: stale odoc reference %s\n" path lnum msg;
            failures + 1)
        failures
        (odoc_refs (read_file path)))
    0
    (List.sort compare (source_files [ "lib" ]))

(* --- exports without a caller ------------------------------------------ *)

(* [src] with comments, string literals and character literals blanked
   to spaces (line breaks kept), so that only code can reference a
   name: a [{!M.name}] in a comment is not a caller. *)
let code_only (src : string) : string =
  let n = String.length src in
  let out = Bytes.of_string src in
  let blank i = if Bytes.get out i <> '\n' then Bytes.set out i ' ' in
  (* the index just past a string literal opened at [i] *)
  let rec string_end i =
    if i >= n then n
    else if src.[i] = '\\' then string_end (i + 2)
    else if src.[i] = '\034' then i + 1
    else string_end (i + 1)
  in
  let rec go i depth =
    if i >= n then ()
    else if i + 1 < n && src.[i] = '(' && src.[i + 1] = '*' then begin
      blank i;
      blank (i + 1);
      go (i + 2) (depth + 1)
    end
    else if depth > 0 && i + 1 < n && src.[i] = '*' && src.[i + 1] = ')' then begin
      blank i;
      blank (i + 1);
      go (i + 2) (depth - 1)
    end
    else if src.[i] = '\034' then begin
      (* a string, in code or in a comment (where it may hide a close
         marker) *)
      let e = min n (string_end (i + 1)) in
      for k = i to e - 1 do blank k done;
      go e depth
    end
    else if src.[i] = '\'' && i + 2 < n && src.[i + 2] = '\'' then begin
      (* a one-character literal such as a quote *)
      for k = i to i + 2 do blank k done;
      go (i + 3) depth
    end
    else if src.[i] = '\'' && i + 1 < n && src.[i + 1] = '\\' then begin
      (* an escaped character literal: '\n', '\\', '\'', '\123' *)
      let e = ref (i + 3) in
      while !e < n && !e < i + 6 && src.[!e] <> '\'' do incr e done;
      for k = i to min (n - 1) !e do blank k done;
      go (!e + 1) depth
    end
    else begin
      if depth > 0 then blank i;
      go (i + 1) depth
    end
  in
  go 0 0;
  Bytes.to_string out

(* The top-level values of an interface, with their line numbers. *)
let exported_values (mli : string) : (int * string) list =
  List.concat
    (List.mapi
       (fun i line ->
         if starts_with "val " line then
           let rest = String.sub line 4 (String.length line - 4) in
           let k = ref 0 in
           while !k < String.length rest && (is_word_char rest.[!k] || rest.[!k] = '\'') do
             incr k
           done;
           if !k > 0 then [ (i + 1, String.sub rest 0 !k) ] else []
         else [])
       (String.split_on_char '\n' mli))

(* The modules a unit opens: [open M], [open! A.M], [let open M in] and
   the local open [M.( ... )], each by its last path component. *)
let opened_modules (code : string) : string list =
  let n = String.length code in
  let out = ref [] in
  let path_at i =
    let j = ref i in
    while !j < n && (is_word_char code.[!j] || code.[!j] = '.') do incr j done;
    match List.rev (String.split_on_char '.' (String.sub code i (!j - i))) with
    | m :: _ when m <> "" && is_upper m.[0] -> Some m
    | _ -> None
  in
  for i = 0 to n - 1 do
    if
      (i = 0 || not (is_word_char code.[i - 1]))
      && i + 5 < n
      && String.sub code i 4 = "open"
      && not (is_word_char code.[i + 4])
    then begin
      let j = ref (i + 4) in
      if !j < n && code.[!j] = '!' then incr j;
      while !j < n && code.[!j] = ' ' do incr j done;
      Option.iter (fun m -> out := m :: !out) (path_at !j)
    end;
    if code.[i] = '(' && i > 1 && code.[i - 1] = '.' && is_word_char code.[i - 2] then begin
      let j = ref (i - 2) in
      while !j > 0 && is_word_char code.[!j - 1] do decr j done;
      if is_upper code.[!j] then out := String.sub code !j (i - 1 - !j) :: !out
    end
  done;
  List.sort_uniq compare !out

(* [code] uses [m]'s value [name]: as [m.name] (possibly itself
   qualified, [A.m.name]), or unqualified where the unit opens [m]. *)
let uses_value ~opened (code : string) (m : string) (name : string) : bool =
  contains_word code name
  && (List.mem m opened
     || List.exists
          (fun line ->
            occurs_as line (m ^ "." ^ name) ~ok:(fun ~before:_ ~after:_ -> true))
          (String.split_on_char '\n' code))

(* The allow-list: one [Module.name: reason] per line, [#] comments and
   blank lines ignored. An entry without a reason is an error. *)
let read_allow_list (path : string) : (string * string) list * int =
  let failures = ref 0 in
  let entries =
    List.filter_map
      (fun line ->
        let line = String.trim line in
        if line = "" || line.[0] = '#' then None
        else
          let reason k = String.trim (String.sub line (k + 1) (String.length line - k - 1)) in
          match String.index_opt line ':' with
          | Some k when reason k <> "" -> Some (String.trim (String.sub line 0 k), reason k)
          | _ ->
            incr failures;
            Printf.eprintf "%s: entry without a reason: %s\n" path line;
            None)
      (String.split_on_char '\n' (read_file path))
  in
  (entries, !failures)

(* Every [val] of a lib interface must be used by some other compilation
   unit under lib/, bin/, bench/ or tools/, or be listed with a reason in
   [allow_path]; a listed name that has a caller, or is no longer
   exported, is stale and fails too. Tests do not count as callers: an
   export only a test needs is an allow-list entry. *)
let check_exports (allow_path : string) : int =
  let allowed, failures = read_allow_list allow_path in
  let failures = ref failures in
  let units =
    List.map
      (fun p ->
        let code = code_only (read_file p) in
        (Filename.remove_extension p, code, opened_modules code))
      (source_files [ "lib"; "bin"; "bench"; "tools" ])
  in
  let exported = ref [] in
  List.iter
    (fun mli ->
      let own = Filename.remove_extension mli in
      let m = String.capitalize_ascii (Filename.basename own) in
      List.iter
        (fun (lnum, name) ->
          let key = m ^ "." ^ name in
          exported := key :: !exported;
          let used =
            List.exists
              (fun (unit, code, opened) -> unit <> own && uses_value ~opened code m name)
              units
          in
          match used, List.mem_assoc key allowed with
          | false, false ->
            incr failures;
            Printf.eprintf "%s:%d: export without a caller: %s\n" mli lnum key
          | true, true ->
            incr failures;
            Printf.eprintf "%s: %s has a caller; drop it from the allow-list\n" allow_path key
          | _ -> ())
        (exported_values (read_file mli)))
    (List.sort compare
       (List.filter (fun p -> Filename.check_suffix p ".mli") (source_files [ "lib" ])));
  List.iter
    (fun (key, _) ->
      if not (List.mem key !exported) then begin
        incr failures;
        Printf.eprintf "%s: %s is not exported by any lib interface\n" allow_path key
      end)
    allowed;
  !failures

let check_xref (md_path : string) : int =
  let text = read_file md_path in
  let sources = source_files [ "bin"; "lib"; "bench"; "tools" ] in
  let srcs = List.map read_file sources in
  let literals = List.concat_map string_literals srcs in
  let lit_set = Hashtbl.create 1024 in
  List.iter (fun l -> Hashtbl.replace lit_set l ()) literals;
  (* flags: accept a literal "name" (cmdliner info) or "--name" (hand
     parsers), declared under bin/, bench/ or tools/ — library string
     literals such as JSON keys do not declare flags *)
  let flag_set = Hashtbl.create 1024 in
  List.iter
    (fun path ->
      List.iter (fun l -> Hashtbl.replace flag_set l ()) (string_literals (read_file path)))
    (source_files [ "bin"; "bench"; "tools" ]);
  let failures = ref 0 in
  List.iter
    (fun flag ->
      (* cmdliner gives every command --help and --version *)
      if
        not
          (List.mem flag [ "help"; "version" ]
          || Hashtbl.mem flag_set flag
          || Hashtbl.mem flag_set ("--" ^ flag))
      then begin
        incr failures;
        Printf.eprintf "%s: flag --%s not found in any source\n" md_path flag
      end)
    (doc_flags text);
  (* metrics: normalized registry-name literals, matched exactly or by
     prefix (dynamic suffixes, per-container families) *)
  let norm_literals =
    List.filter_map
      (fun l ->
        if String.length l >= 4 && (String.contains l '.' || String.contains l '_') then
          Some (dots_to_underscores l)
        else None)
      literals
  in
  List.iter
    (fun token ->
      let core = String.sub token 6 (String.length token - 6) in
      let core = strip_suffix (strip_suffix (strip_suffix core "_bucket") "_sum") "_count" in
      (* a family written `xquec_a_{b,c}` stops at the brace: it names
         every literal it prefixes *)
      let family = String.ends_with ~suffix:"_" core in
      let matched =
        List.exists
          (fun l ->
            l = core
            || (family && String.starts_with ~prefix:core l)
            || String.length l >= 6
               && String.length l < String.length core
               && String.sub core 0 (String.length l) = l)
          norm_literals
      in
      if not matched then begin
        incr failures;
        Printf.eprintf "%s: metric %s has no matching metric-name literal in the sources\n"
          md_path token
      end)
    (doc_metrics text);
  (* format constants: `XQC\xNN` magics must match a source string
     literal (both sides normalize by dropping the backslash), and
     `flag_*` / `h_*` / `b_*` identifiers must exist as words in the
     OCaml sources *)
  List.iter
    (fun span ->
      if is_magic_token span then begin
        let norm = String.concat "" (String.split_on_char '\\' span) in
        if not (Hashtbl.mem lit_set norm) then begin
          incr failures;
          Printf.eprintf "%s: magic `%s` not found as a string literal in the sources\n"
            md_path span
        end
      end
      else if is_const_ident span then
        if not (List.exists (fun s -> contains_word s span) srcs) then begin
          incr failures;
          Printf.eprintf "%s: format constant `%s` not defined in the sources\n" md_path span
        end)
    (doc_code_spans text);
  !failures + check_module_refs ~modules:(Lazy.force lib_modules) ~srcs md_path text

let () =
  let args = match Array.to_list Sys.argv with _ :: rest -> rest | [] -> [] in
  let allow = ref None in
  let rec split dirs xrefs = function
    | [] -> (List.rev dirs, List.rev xrefs)
    | "--xref" :: f :: rest -> split dirs (f :: xrefs) rest
    | "--exports" :: f :: rest ->
      allow := Some f;
      split dirs xrefs rest
    | ("--xref" | "--exports") :: [] -> (List.rev dirs, List.rev xrefs)
    | d :: rest -> split (d :: dirs) xrefs rest
  in
  let dirs, xrefs = split [] [] args in
  let dirs = if dirs = [] then [ "lib" ] else dirs in
  let files =
    List.concat_map
      (fun dir ->
        Sys.readdir dir |> Array.to_list
        |> List.filter (fun f -> Filename.check_suffix f ".mli")
        |> List.map (Filename.concat dir)
        |> List.sort compare)
      dirs
  in
  let failures = ref 0 in
  List.iter
    (fun f ->
      match check_file f with
      | [] -> ()
      | missing ->
        List.iter
          (fun (lnum, decl) ->
            incr failures;
            Printf.eprintf "%s:%d: undocumented export: %s\n" f lnum decl)
          missing)
    files;
  let xref_failures = List.fold_left (fun acc f -> acc + check_xref f) 0 xrefs in
  let odoc_failures =
    check_odoc_refs ~modules:(Lazy.force lib_modules)
      ~srcs:(List.map read_file (source_files [ "bin"; "lib"; "bench"; "tools" ]))
  in
  let export_failures = match !allow with Some f -> check_exports f | None -> 0 in
  if !failures > 0 || xref_failures > 0 || odoc_failures > 0 || export_failures > 0 then begin
    if !failures > 0 then
      Printf.eprintf "doc lint: %d undocumented exports in %d files checked\n" !failures
        (List.length files);
    if odoc_failures > 0 then
      Printf.eprintf "doc lint: %d stale odoc references in the lib sources\n" odoc_failures;
    if export_failures > 0 then
      Printf.eprintf "doc lint: %d exports without a caller (or stale allow-list entries)\n"
        export_failures;
    if xref_failures > 0 then
      Printf.eprintf "doc lint: %d stale references in %d markdown files\n" xref_failures
        (List.length xrefs);
    exit 1
  end
  else
    Printf.printf "doc lint: %d interface files clean, odoc references resolved%s%s\n"
      (List.length files)
      (if !allow = None then "" else ", every export has a caller or a listed reason")
      (if xrefs = [] then ""
       else Printf.sprintf ", %d markdown files cross-checked" (List.length xrefs))
