(* The one blessed site of float equality in the tree. ccsim-lint's R6
   forbids bare structural = / <> at float type everywhere else: the
   comparison compiles, but silently turns into a representation test
   that breaks change-point and elasticity verdicts the moment a
   computation is reassociated. Going through [feq] makes the intended
   tolerance explicit at every call site.

   With [~eps:0.] the result is exactly that of structural (=) on
   non-NaN floats, including infinities and signed zeros, so replacing
   `a = b` with `feq ~eps:0. a b` is verdict-preserving bit for bit
   (see test/test_util.ml's qcheck equivalence property). *)

let feq ~eps a b =
  if not (eps >= 0.0) then invalid_arg "Feq.feq: eps must be non-negative";
  (* The exact-equality fast path stays polymorphic [=] on purpose:
     [Float.equal] would make [feq nan nan] true, changing semantics. *)
  (a = b) [@lint.allow R6] || Float.abs (a -. b) <= eps
