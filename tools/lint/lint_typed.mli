(** ccsim-lint typed stage: type-accurate rules (R5 no-alloc-in-hot,
    R6 no-polymorphic-compare, R7 unit inference, R8 test-only API)
    over the .cmt and .cmti files dune produces. See tools/lint/RULES.md
    for semantics and escape hatches; findings carry [stage = "typed"]. *)

val scan_structure : file:string -> Typedtree.structure -> Lint_core.finding list
(** Run R5/R6/R7 over one typed implementation. [@lint.allow ...]
    attribute suppression is applied; comment-form and allowlist
    suppression are the caller's (see {!scan}). *)

val scan :
  ?source_roots:string list ->
  ?api:string list ->
  ?tests:string list ->
  cmt_roots:string list ->
  paths:string list ->
  unit ->
  Lint_core.finding list
(** Discover [*.cmt] and [*.cmti] files under [cmt_roots], keep
    implementations whose recorded source path falls under one of
    [paths] (leading [..] segments ignored on both sides), scan each
    once for R5-R7, and apply comment-form suppressions from the source
    text when it can be found relative to a [source_roots] entry
    (default [["."]]). R8 checks the interfaces under [api] (default
    [["lib"]]) against every implementation's uses, those under [tests]
    (default [["test"]]) being the tests'. Unreadable cmt files are
    skipped silently; the result is sorted and deduped. Raises
    [Lint_core.Scan_error] naming every [.ml] under [paths] (resolved
    against [source_roots]) that has no [.cmt]: dune's default alias
    writes none for an executable's main module, and [dune build
    @check] does. *)
