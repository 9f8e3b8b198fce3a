(** ccsim-lint: the rules (R1 top-level mutable state, R2
    nondeterminism, R5 no-alloc-in-hot, R6 no-polymorphic-compare, R7
    unit inference, R8 test-only API) over the .cmt and .cmti files
    dune produces, and the one escape hatch, [[@lint.allow Rn "why"]].
    See tools/lint/RULES.md for semantics. *)

exception Scan_error of string
(** Raised on a scanned source without a [.cmt], a missing path, or a
    malformed [[@lint.allow]] payload. *)

val scan_structure : file:string -> Typedtree.structure -> Lint_core.finding list
(** Run R1, R2, R5, R6 and R7 over one typed implementation, [file]
    being its path relative to the build context (lib/runner and
    lib/obs are exempt from R2's clock and GC reads). [[@lint.allow]]
    attributes are applied and checked: the result includes a finding
    for each one without a reason or that silences nothing. *)

val scan :
  ?api:string list ->
  ?tests:string list ->
  root:string ->
  cmt_roots:string list ->
  paths:string list ->
  unit ->
  Lint_core.finding list
(** Lint the build context [root] (the directory holding dune's copies
    of the sources next to their [.cmt] files): discover [*.cmt] and
    [*.cmti] under [root/cmt_roots], scan each implementation whose
    source lies under one of [paths] (relative to [root]) once with
    {!scan_structure}, and check the interfaces under [api] (default
    [["lib"]]) for R8 against every implementation's uses, those under
    [tests] (default [["test"]]) being the tests'. Unreadable cmt files
    are skipped; the result is sorted and deduped. Raises {!Scan_error}
    naming every [.ml] under [root/paths] that has no [.cmt]: dune's
    default alias writes none for an executable's main module, and
    [dune build @check] does. *)

val scan_tree : string -> Lint_core.finding list
(** [scan_tree root] lints the repository in the build context [root]:
    the rules scan lib, bin and tools, and R8 also reads the callers
    under test, ccbench and examples. *)
