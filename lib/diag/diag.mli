(** The one diagnostics core shared by the layout linter ([lib/verify]),
    the post-route checker ([Ccroute.Check]), LVS and the source linter
    ([lib/srclint]).

    A {!rule} is the static identity of one promise — common centroid,
    mirror symmetry, no ambient clock in a kernel — and a {!t} is one
    finding against it.  Each tool declares its own rules as data and
    aggregates them with {!catalogue}; the core never branches on which
    tool it serves.  Rendering (text, JSON, the multi-run report) and the
    [werror] gate live here once. *)

type severity =
  | Error    (** the artifact or contract is broken *)
  | Warning  (** suspicious but not disqualifying; promoted by [werror] *)
  | Info     (** advisory only *)

(** [compare_severity a b] orders [Error < Warning < Info] (most severe
    first), so sorting by severity surfaces errors. *)
val compare_severity : severity -> severity -> int

(** ["error"], ["warning"] or ["info"]. *)
val severity_name : severity -> string

type rule = {
  id : string;        (** stable machine id, e.g. ["place/centroid"] *)
  category : string;  (** the owning tool's family name, e.g. ["placement"] *)
  severity : severity;
  doc : string;       (** one-sentence contract, used by docs and reports *)
}

(** What a finding is anchored to: a layout element (["C_3"],
    ["channel 4"]) or a source position. *)
type loc =
  | Element of string
  | Source of {
      file : string;  (** repo-relative, '/'-separated *)
      line : int;     (** 1-based; 0 when the finding is file-scoped *)
      col : int;      (** 0-based column of the offending token *)
    }

type t = {
  rule : rule;
  loc : loc option;
  detail : string;  (** human-readable description with measured values *)
}

val make : ?loc:loc -> rule -> string -> t

(** [makef ?loc rule fmt ...] formats the detail in place. *)
val makef : ?loc:loc -> rule -> ('a, unit, string, t) format4 -> 'a

val severity : t -> severity

(** Severity first (errors up), then rule id, then location (absent
    first; elements by name; sources by file, line, column), then detail
    — a deterministic total order for reporting. *)
val compare : t -> t -> int

val sort : t list -> t list

(** [errors diags] keeps only [Error]-severity findings. *)
val errors : t list -> t list

(** The sorted, de-duplicated ids of the violated rules. *)
val rule_ids : t list -> string list

(** [tally diags] is [(rule id, findings)] per violated rule, in id
    order. *)
val tally : t list -> (string * int) list

(** Renders as ["error[place/centroid] C_3: centroid off by ..."] or
    ["error[det/wall-clock] lib/x.ml:72:18: ..."]. *)
val pp : Format.formatter -> t -> unit

(** {2 Catalogues} *)

(** [catalogue ~owner rules] is [rules] sorted by id.  Raises
    [Invalid_argument] naming [owner] if two rules share an id. *)
val catalogue : owner:string -> rule list -> rule list

val find : rule list -> string -> rule option

val ids : rule list -> string list

(** [matches ~patterns id]: does [id] satisfy a rule filter?  A pattern
    selects its exact id, or a whole family by prefix — ["det"], ["det/"]
    and ["det/*"] all select every ["det/"] rule. *)
val matches : patterns:string list -> string -> bool

(** [unmatched_patterns rules patterns] is the sublist of [patterns] that
    select no rule of [rules] — typos to report. *)
val unmatched_patterns : rule list -> string list -> string list

(** Renders as ["error[det/wall-clock] (determinism): <doc>"]. *)
val pp_rule : Format.formatter -> rule -> unit

(** {2 The gate} *)

(** [disqualifies ?werror s]: [Error] always, [Warning] under [werror]
    (default [false]), [Info] never. *)
val disqualifies : ?werror:bool -> severity -> bool

(** [gate ?werror diags] is [Ok ()] when no finding disqualifies,
    [Error (sort diags)] otherwise. *)
val gate : ?werror:bool -> t list -> (unit, t list) result

(** Raised by {!assert_clean}.  [what] names the rejected artifact;
    [diagnostics] is every finding of the failing run (not only the
    errors), sorted. *)
exception Rejected of { what : string; diagnostics : t list }

(** [assert_clean ?werror ?what diags] raises {!Rejected} when {!gate}
    fails. *)
val assert_clean : ?werror:bool -> ?what:string -> t list -> unit

(** {2 Rendering} *)

(** [summary_line ?clean diags] is ["2 errors, 1 warning"], or [clean]
    (default ["clean"]) when there is no finding. *)
val summary_line : ?clean:string -> t list -> string

(** [text ?summary diags] is one line per finding in {!compare} order,
    then [summary] (default {!summary_line}) on its own line. *)
val text : ?summary:string -> t list -> string

(** [to_json ?head ?counts ?tail diags] is the report object

    {v
    {"version": 1, <head>,
     "summary": {"errors": 1, "warnings": 0, "infos": 0, "total": 1, <counts>},
     "diagnostics": [
       {"rule": "place/centroid", "category": "placement",
        "severity": "error", "loc": "C_3", "detail": "..."}],
     <tail>}
    v}

    with the findings in {!compare} order.  A source location renders as
    ["file"], ["line"] and ["col"] members instead of ["loc"]. *)
val to_json :
  ?head:(string * Telemetry.Json.t) list ->
  ?counts:(string * Telemetry.Json.t) list ->
  ?tail:(string * Telemetry.Json.t) list ->
  t list ->
  Telemetry.Json.t

(** [catalogue_json ?head rules] is
    [{"version": 1, <head>, "rules": [{"id", "category", "severity",
    "doc"}, ...]}]. *)
val catalogue_json :
  ?head:(string * Telemetry.Json.t) list -> rule list -> Telemetry.Json.t

(** [runs_json runs] is the multi-run document
    [{"version": 1, "runs": [...]}]. *)
val runs_json : Telemetry.Json.t list -> Telemetry.Json.t
