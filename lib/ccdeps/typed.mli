(** The typed whole-program pass: [.ccdeps] manifest + every [.cmt]
    under [_build/default/lib] in, {!Diag.t}s out. *)

(** [".ccdeps"] — the manifest's repo-relative path. *)
val manifest_name : string

(** Can the pass run at all (any cmt present)? *)
val available : root:string -> bool

(** [run ~root] is the full diagnostic list: manifest problems, cmt load
    failures, and the taint / domain-escape / layering findings. *)
val run : root:string -> Diag.t list
