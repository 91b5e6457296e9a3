(** The analysis driver: discover sources, parse, run every registered
    checker, apply the [--rules] filter and the [.cclint] allowlist, and
    return one deterministic result. *)

(** One allowlist entry's outcome: how many findings it suppressed.
    [matched = 0] means the entry is stale. *)
type suppression = {
  entry : Allowlist.entry;
  matched : int;
}

type result = {
  files_scanned : int;
  diagnostics : Diag.t list;
    (** post-filter, post-suppression, {!Diag.compare}-sorted;
        includes the ["meta/"] findings about the allowlist itself *)
  suppressions : suppression list;  (** in allowlist order *)
}

(** Every rule any checker (or the allowlist/parse machinery) can emit,
    sorted by id.  Raises [Invalid_argument] at module initialisation if
    two checker modules declare the same id. *)
val rules : Diag.rule list

(** The trees scanned by default, relative to the root:
    [lib bin bench test]. *)
val default_roots : string list

(** [ml_files ~root] walks {!default_roots} under [root] and returns every
    [.ml] path (repo-relative, '/'-separated, sorted).  [_build] and
    dot-directories are skipped. *)
val ml_files : root:string -> string list

(** [check_source src] runs every checker on one parsed source. *)
val check_source : Source.t -> Diag.t list

(** [check_string ~path contents] parses and checks one in-memory source;
    unparseable input yields the single [meta/parse-error] finding.  This
    is the fixture-test entry point. *)
val check_string : path:string -> string -> Diag.t list

(** [check_file ~root path] reads and checks [root/path]; unreadable files
    surface as a [meta/parse-error] finding. *)
val check_file : root:string -> string -> Diag.t list

(** [apply_allowlist allowlist diags] splits [diags] into kept findings
    and per-entry suppression counts, and appends the ["meta/"] findings
    (stale entry, missing justification, unknown rule, duplicate
    entry). *)
val apply_allowlist :
  Allowlist.t -> Diag.t list -> Diag.t list * suppression list

(** [run ?rules ?allowlist ?typed ~root ()] is the whole analysis.
    [rules] filters findings (and allowlist entries) to the selected ids
    — see {!Diag.matches}; default everything.  [allowlist] defaults
    to {!Allowlist.empty}.  [typed] carries the diagnostics of the typed
    whole-program pass (lib/ccdeps), which the engine merges before
    filtering and suppression; [None] means the pass did not run, and
    then allowlist entries for ["int/"]/["arch/"] rules are exempt from
    the stale check (their findings were never looked for). *)
val run :
  ?rules:string list -> ?allowlist:Allowlist.t ->
  ?typed:Diag.t list -> root:string -> unit -> result

(** [text result] is one line per finding, then a summary line
    (["source tree clean"] or the counts) with the files scanned and,
    when any, the findings suppressed. *)
val text : result -> string

(** [json result] is the {!Diag.to_json} report with a ["tool": "cclint"]
    member, ["suppressed"] and ["files_scanned"] summary counts, and a
    ["suppressions"] array ([rule], [path], [line], [matched],
    [justification] per allowlist entry, in allowlist order). *)
val json : result -> string

(** [rules_json ()] is the {!rules} catalogue as JSON, tagged
    ["tool": "cclint"]. *)
val rules_json : unit -> string
