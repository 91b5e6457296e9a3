(* Rule declarations for the typed whole-program pass (lib/ccdeps).

   Only the *identities* live here, so the registry stays one static
   list and the allowlist can vet typed suppressions without srclint
   depending on the analysis that emits them.  The checkers themselves
   walk .cmt Typedtrees in lib/ccdeps, which depends on this library. *)

let int_rule id severity doc =
  { Diag.id; category = "interprocedural"; severity; doc }

let arch id severity doc = { Diag.id; category = "architecture"; severity; doc }

let meta id severity doc = { Diag.id; category = "meta"; severity; doc }

let taint_wall_clock =
  int_rule "int/taint-wall-clock" Diag.Error
    "A function in a purity-contracted library transitively reaches a \
     wall-clock read through its call graph; the per-file det/wall-clock \
     rule cannot see the indirection, but the result is just as \
     schedule-dependent.  Thread timestamps in from the caller."

let taint_random =
  int_rule "int/taint-random" Diag.Error
    "A function in a purity-contracted library transitively reaches the \
     ambient Random generator (or self-seeding); every caller inherits \
     the nondeterminism.  Derive Random.State values from Par.Rng \
     substreams and pass them down the chain."

let taint_getenv =
  int_rule "int/taint-getenv" Diag.Warning
    "A function in a purity-contracted library transitively reads the \
     process environment; behaviour becomes ambient for every caller.  \
     Resolve configuration at the CLI boundary and pass it down."

let taint_gc =
  int_rule "int/taint-gc" Diag.Error
    "A function in a purity-contracted library transitively mutates the \
     GC, changing process-wide collection scheduling and skewing \
     Telemetry.Memory accounting for every concurrent caller."

let taint_print =
  int_rule "int/taint-print" Diag.Error
    "A function in a purity-contracted library transitively writes to \
     stdout/stderr; output interleaves nondeterministically under \
     Par.Pool.  Return strings or take a Format.formatter."

let domain_escape =
  int_rule "int/domain-escape" Diag.Error
    "Mutable state created outside a closure submitted to Par.Pool is \
     written inside it (directly or via a callee), so worker domains \
     race on it.  Return per-task results and fold them in the \
     submitter, or use the sanctioned telemetry/par mutex+DLS idioms."

let layer_violation =
  arch "arch/layer-violation" Diag.Error
    "A library depends on one at the same or a higher layer of the \
     declared .ccdeps DAG; dependencies must point strictly downward \
     or the layering is fiction."

let forbidden_dep =
  arch "arch/forbidden-dep" Diag.Error
    "The dependency edge is explicitly forbidden by the .ccdeps \
     manifest (kernels must not reach QoR sinks, verify must not reach \
     lvs internals); the manifest entry names the reason."

let layer_cycle =
  arch "arch/layer-cycle" Diag.Error
    "The library dependency graph contains a cycle, so no layering \
     assignment can be valid and incremental rebuilds are unsound."

let undeclared_lib =
  arch "arch/undeclared-lib" Diag.Error
    "A lib/ sublibrary has no layer declaration in the .ccdeps \
     manifest, so the layering contract cannot vouch for its edges; \
     every sublibrary must be placed in the DAG."

let cmt_error =
  meta "meta/cmt-error" Diag.Error
    "A .cmt file under _build could not be read, so the typed pass \
     cannot vouch for that module; rebuild (dune build @check) or \
     investigate the toolchain skew."

let manifest_error =
  meta "meta/ccdeps-manifest" Diag.Error
    "The .ccdeps manifest names a library that does not exist under \
     lib/, or declares the same library twice; a misspelt contract \
     silently contracts nothing."

let rules =
  [ taint_wall_clock; taint_random; taint_getenv; taint_gc; taint_print;
    domain_escape; layer_violation; forbidden_dep; layer_cycle;
    undeclared_lib; cmt_error; manifest_error ]

let taint_families =
  [ ("wall-clock", taint_wall_clock); ("random", taint_random);
    ("getenv", taint_getenv); ("gc", taint_gc); ("print", taint_print) ]

let typed_family_prefixes = [ "int/"; "arch/"; "meta/cmt-error";
                              "meta/ccdeps-manifest" ]

let is_typed_rule_id id =
  List.exists
    (fun p ->
       String.length id >= String.length p
       && String.sub id 0 (String.length p) = p)
    typed_family_prefixes
