(** Discovery and loading of the [.cmt] Typedtrees dune leaves under
    [_build/default/lib/], summarized into the whole-program universe
    the typed analyses consume. *)

type universe = {
  libs : string list;  (** [lib/] dir names with a dune file, sorted *)
  mods : Summary.moddef list;
  lib_of_module : string -> string option;
      (** canonical head module (["Ccplace"]) to lib dir (["ccplace"]) *)
  cmt_count : int;  (** cmt files seen, loadable or not *)
  errors : Diag.t list;  (** [meta/cmt-error] findings *)
}

(** [available ~root]: at least one [.cmt] exists under
    [_build/default/lib] — the signal that the typed pass can run. *)
val available : root:string -> bool

val load : root:string -> universe
