(* The verifier's findings are the shared core's; this alias keeps the
   name [Verify.Diagnostic] that perfbench/ uses. *)
include Diag
