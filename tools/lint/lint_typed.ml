(* ccsim-lint: the rules, over the .cmt files dune already produces
   (compiler-libs Cmt_format + Tast_iterator). The typedtree carries
   every expression's instantiated type, every identifier's resolved
   path and every record/constructor's runtime representation, so each
   rule keys on types and paths, never on spelling:

   R1  top-level mutable state: a module-level binding (one in a plain
       sub-module included) whose value is a ref, an array, Hashtbl.t,
       Queue.t, Stack.t, Buffer.t or Bytes.t, or a record literal with
       a mutable field, is shared by every domain of the runner pool.
       Atomic.t and Domain.DLS.key are the sanctioned alternatives.
   R2  nondeterminism sources: Random.*, wall-clock reads (Unix.time,
       Unix.gettimeofday, Sys.time, ...) and host-GC reads (Gc.stat,
       Gc.quick_stat, ...) outside lib/runner and lib/obs, and the
       hash-order Hashtbl.iter/fold. Paths resolve through `open`, and
       a same-unit alias (`module R = Random`) through a table of the
       unit's Tmod_ident bindings.
   R5  no-alloc-in-hot: functions annotated [@ccsim.hot] (and everything
       they syntactically contain) may not allocate -- closures, tuples,
       non-constant constructors, records, polymorphic variants, array
       literals, lazy, partial applications, known-allocating stdlib
       calls, float boxing at field reads/writes. The reviewed escape
       hatch is [@ccsim.alloc_ok "why"] on any expression or binding;
       the justification string is mandatory.
   R6  no-polymorphic-compare: any instantiation of Stdlib.(=) / (<>) /
       compare / min / max / Hashtbl.hash at a type that is not
       immediate (int/bool/char/unit, or a type whose declarations the
       typechecker marked immediate, as an enum's are) walks memory
       generically -- slow in the DES inner loop, wrong on nan, and
       allocation-prone via closure-passing. Float = / <> is the common
       case.
   R7  unit inference: dimensional analysis over {time, data,
       packets}. Dimensions seed from name suffixes (_s/_ms/_us -> T,
       _hz -> 1/T, _bps/_kbps/_mbps/_gbps -> D/T, _bytes -> D, _pkts ->
       P, _frac/_pct/_ratio -> dimensionless) on idents, fields, params
       and let-bindings, then propagate: + and - and comparisons
       require equal dimensions, * and / combine them, literals are
       transparent. Inference ignores scale, so correct conversions
       (x_ms /. 1e3 vs y_s) stay silent; only when both operands of +,
       -, a comparison or min/max are suffixed names does the check
       also compare their scales (x_ms < y_s, a_bps +. b_mbps).
   R8  test-only API (below).

   One escape hatch silences R1, R2, R6 and R7: [@lint.allow Rn "why"]
   on an expression, or [@@lint.allow Rn "why"] on a let binding,
   covers the findings of rule Rn inside the node it annotates. It is
   checked like [@@ccsim.test_only]: a missing or blank reason is a
   finding, and so is a rule it names that silences nothing there (R5
   and R8 always: they keep their own attributes). *)

open Typedtree

(* ------------------------------------------------------------------ *)
(* Path classification *)

(* Flatten a path, resolving the stdlib's mangled unit names: both
   Stdlib.List.map and Stdlib__List.map normalize to "List.map";
   Stdlib.ref to "ref". Returns None for paths that do not bottom out
   in Stdlib -- a user-defined `compare` never matches R6. *)
let stdlib_name path =
  let rec components p acc =
    match p with
    | Path.Pident id -> Some (Ident.name id, acc)
    | Path.Pdot (p, field) -> components p (field :: acc)
    | _ -> None
  in
  match components path [] with
  | Some ("Stdlib", rest) -> Some (String.concat "." rest)
  | Some (head, rest)
    when String.length head > 8 && String.equal (String.sub head 0 8) "Stdlib__" ->
      Some (String.concat "." (String.sub head 8 (String.length head - 8) :: rest))
  | _ -> None

let type_to_string ty = Format.asprintf "%a" Printtyp.type_expr ty

(* dune names library unit Lib.Mod Lib__Mod, and its alias module Lib__:
   "Lib__Mod" and "Lib__.Mod" both read back as "Lib.Mod". *)
let unmangle name =
  let b = Buffer.create (String.length name) and n = String.length name in
  let i = ref 0 in
  while !i < n do
    if !i + 1 < n && name.[!i] = '_' && name.[!i + 1] = '_' then begin
      if !i + 2 < n && name.[!i + 2] <> '.' then Buffer.add_char b '.';
      i := !i + 2
    end
    else begin
      Buffer.add_char b name.[!i];
      incr i
    end
  done;
  Buffer.contents b

(* ------------------------------------------------------------------ *)
(* Attributes *)

let has_attr name (attrs : attributes) =
  List.exists (fun (a : attribute) -> String.equal a.Parsetree.attr_name.txt name) attrs

(* An escape hatch that must say why ([@ccsim.alloc_ok "why"],
   [@ccsim.test_only "why"]): Some (Some why) when present with a
   non-blank string payload, Some None when present without one (an
   error in itself). *)
let reason_attr name (attrs : attributes) =
  List.find_map
    (fun (a : attribute) ->
      if not (String.equal a.Parsetree.attr_name.txt name) then None
      else
        match a.Parsetree.attr_payload with
        | Parsetree.PStr
            [
              {
                pstr_desc =
                  Pstr_eval
                    ({ pexp_desc = Pexp_constant (Pconst_string (why, _, _)); _ }, _);
                _;
              };
            ]
          when not (String.equal (String.trim why) "") ->
            Some (Some why)
        | _ -> Some None)
    attrs

exception Scan_error of string

(* One [@lint.allow Rn "why"]: [span] is the annotated node, [at] the
   attribute itself, where its own findings point. *)
type allow = {
  rule : string;
  reasoned : bool;
  at : Location.t;
  span : Location.t;
  mutable used : bool;
}

let allow_of_attr ~span (a : attribute) =
  let malformed () =
    let p = a.Parsetree.attr_loc.loc_start in
    raise
      (Scan_error
         (Printf.sprintf
            "%s:%d:%d: malformed [@lint.allow]: write [@lint.allow Rn \"why\"] with Rn one of %s"
            p.Lexing.pos_fname p.pos_lnum (p.pos_cnum - p.pos_bol)
            (String.concat ", " Lint_core.rule_ids)))
  in
  match a.Parsetree.attr_payload with
  | Parsetree.PStr
      [
        {
          pstr_desc =
            Pstr_eval ({ pexp_desc = Pexp_construct ({ txt = Lident rule; _ }, arg); _ }, _);
          _;
        };
      ]
    when List.mem rule Lint_core.rule_ids ->
      let reasoned =
        match arg with
        | None -> false
        | Some { pexp_desc = Pexp_constant (Pconst_string (why, _, _)); _ } ->
            not (String.equal (String.trim why) "")
        | Some _ -> malformed ()
      in
      { rule; reasoned; at = a.attr_loc; span; used = false }
  | _ -> malformed ()

let is_allow (a : attribute) = String.equal a.Parsetree.attr_name.txt "lint.allow"

(* ------------------------------------------------------------------ *)
(* R7: scale-free dimensional analysis *)

type dim = { dt : int; dd : int; dp : int }  (* time, data, packets exponents *)

let dim_zero = { dt = 0; dd = 0; dp = 0 }
let dim_eq a b = a.dt = b.dt && a.dd = b.dd && a.dp = b.dp
let dim_add a b = { dt = a.dt + b.dt; dd = a.dd + b.dd; dp = a.dp + b.dp }
let dim_sub a b = { dt = a.dt - b.dt; dd = a.dd - b.dd; dp = a.dp - b.dp }

let dim_to_string d =
  if dim_eq d dim_zero then "dimensionless"
  else begin
    let part name e acc = if e = 0 then acc else (name, e) :: acc in
    let parts = part "s" d.dt (part "bytes" d.dd (part "pkts" d.dp [])) in
    let num = List.filter (fun (_, e) -> e > 0) parts in
    let den = List.filter (fun (_, e) -> e < 0) parts in
    let render (n, e) =
      let e = abs e in
      if e = 1 then n else Printf.sprintf "%s^%d" n e
    in
    let num_s = match num with [] -> "1" | _ -> String.concat "*" (List.map render num) in
    match den with
    | [] -> num_s
    | _ -> num_s ^ "/" ^ String.concat "/" (List.map render den)
  end

(* Longest-suffix-first: _pkts and _bps both end in _s and must win.
   The int is the suffix's power-of-ten scale within its dimension
   (_ms is 10^-3 s); only the scale check reads it. *)
let suffix_units =
  [
    ("_ratio", dim_zero, 0);
    ("_bytes", { dim_zero with dd = 1 }, 0);
    ("_kbps", { dim_zero with dd = 1; dt = -1 }, 3);
    ("_mbps", { dim_zero with dd = 1; dt = -1 }, 6);
    ("_gbps", { dim_zero with dd = 1; dt = -1 }, 9);
    ("_pkts", { dim_zero with dp = 1 }, 0);
    ("_frac", dim_zero, 0);
    ("_bps", { dim_zero with dd = 1; dt = -1 }, 0);
    ("_pct", dim_zero, -2);
    ("_ms", { dim_zero with dt = 1 }, -3);
    ("_us", { dim_zero with dt = 1 }, -6);
    ("_hz", { dim_zero with dt = -1 }, 0);
    ("_s", { dim_zero with dt = 1 }, 0);
  ]

let suffix_unit name =
  List.find_opt
    (fun (suf, _, _) ->
      let nl = String.length name and sl = String.length suf in
      nl > sl && String.equal (String.sub name (nl - sl) sl) suf)
    suffix_units

let dim_of_name name = Option.map (fun (_, d, _) -> d) (suffix_unit name)

(* Three-valued inference lattice. U_const (literals) is transparent in
   addition and the identity in multiplication; U_unknown poisons * and
   / so an unsuffixed operand never manufactures a dimension. *)
type unit_v = U_unknown | U_const | U_dim of dim

type op_class =
  | Op_add  (* + - +. -. : equal dims required, dim result *)
  | Op_mul  (* * *. : dims combine *)
  | Op_div  (* / /. : dims combine *)
  | Op_cmp  (* comparisons: equal dims required, dimensionless result *)
  | Op_minmax  (* min/max family: equal dims required, same-dim result *)
  | Op_pass  (* negation, abs, float_of_int ...: dimension-preserving *)

let classify_op path =
  match stdlib_name path with
  | Some ("+" | "-" | "+." | "-.") -> Some Op_add
  | Some ("*" | "*.") -> Some Op_mul
  | Some ("/" | "/.") -> Some Op_div
  | Some ("<" | "<=" | ">" | ">=" | "=" | "<>" | "==" | "!=" | "compare"
         | "Float.compare" | "Float.equal" | "Int.compare" | "Int.equal") ->
      Some Op_cmp
  | Some ("min" | "max" | "Float.min" | "Float.max" | "Int.min" | "Int.max") ->
      Some Op_minmax
  | Some ("~-" | "~-." | "abs" | "abs_float" | "Float.abs" | "Int.abs" | "float_of_int"
         | "int_of_float" | "Float.of_int" | "Float.to_int" | "Float.round" | "floor"
         | "ceil" | "Float.floor" | "Float.ceil" | "truncate") ->
      Some Op_pass
  | _ -> None

(* ------------------------------------------------------------------ *)
(* The per-unit scan *)

type ctx = {
  file : string;
  exempt : bool;  (* lib/runner and lib/obs may read the clock and the GC *)
  aliases : (string, Path.t) Hashtbl.t;  (* module alias: Ident.unique_name -> path *)
  mutable findings : Lint_core.finding list;
  (* R5 walk state (saved/restored around recursion) *)
  mutable hot : bool;
  mutable alloc_ok : bool;
  mutable spine : expression list;  (* physical identity *)
  (* R7 ident environment: Ident.unique_name -> unit value. Idents are
     unique per compilation unit, so one flat table is scope-correct. *)
  units : (string, unit_v) Hashtbl.t;
  mutable emit_r7 : bool;  (* false on the populate pass *)
  mutable allows : allow list;
  (* R6: this unit's name, unmangled, and the type declarations the
     typechecker marked immediate, by Unit.Path.type *)
  unit_name : string;
  immediate : (string, bool) Hashtbl.t;
}

let emit ctx (loc : Location.t) rule message =
  let p = loc.loc_start in
  ctx.findings <-
    {
      Lint_core.file = ctx.file;
      line = p.Lexing.pos_lnum;
      col = p.Lexing.pos_cnum - p.Lexing.pos_bol;
      rule;
      message;
    }
    :: ctx.findings

let note_allows ctx (attrs : attributes) (span : Location.t) =
  List.iter (fun a -> if is_allow a then ctx.allows <- allow_of_attr ~span a :: ctx.allows) attrs

(* ------------------------------------------------------------------ *)
(* R1 *)

(* The types a top-level value may not have. *)
let mutable_type ty =
  match Types.get_desc ty with
  | Types.Tconstr (p, _, _) when Path.same p Predef.path_array -> Some "an array"
  | Types.Tconstr (p, _, _) when Path.same p Predef.path_bytes -> Some "a Bytes.t"
  | Types.Tconstr (p, _, _) -> (
      match stdlib_name p with
      | Some "ref" -> Some "a ref"
      | Some (("Hashtbl.t" | "Queue.t" | "Stack.t" | "Buffer.t" | "Bytes.t") as t) ->
          Some ("a " ^ t)
      | _ -> None)
  | _ -> None

(* The mutable field of a record literal a binding evaluates to, looking
   through let/open/sequence: the literal's labels say it without the
   type declaration, which the .cmt's environment does not keep. *)
let rec mutable_record e =
  match e.exp_desc with
  | Texp_let (_, _, body) | Texp_open (_, body) | Texp_sequence (_, body) -> mutable_record body
  | Texp_record { fields; _ } ->
      Array.to_list fields
      |> List.find_map (fun ((lbl : Types.label_description), _) ->
             match lbl.lbl_mut with Asttypes.Mutable -> Some lbl.lbl_name | Immutable -> None)
  | _ -> None

(* Structure items, descending into plain sub-modules (their bindings
   are just as global) but not into functors or expressions: locals
   inside functions are per-call and safe. *)
let rec check_r1 ctx (str : structure) =
  List.iter
    (fun si ->
      match si.str_desc with
      | Tstr_value (_, vbs) ->
          List.iter
            (fun vb ->
              let record = mutable_record vb.vb_expr in
              List.iter
                (fun (_, { Asttypes.txt = name; loc }, ty) ->
                  let what =
                    match (mutable_type ty, record) with
                    | Some what, _ -> Some what
                    | None, Some field ->
                        Some (Printf.sprintf "a record with mutable field %s" field)
                    | None, None -> None
                  in
                  Option.iter
                    (fun what ->
                      emit ctx loc "R1"
                        (Printf.sprintf
                           "top-level mutable state: %S is %s at module scope and races under the \
                            runner domain pool; make it Atomic.t, Domain.DLS-keyed or per-instance \
                            state, or, if nothing ever writes it, say why with [@@lint.allow R1 \
                            \"why\"]"
                           name what))
                    what)
                (let_bound_idents_full [ vb ]))
            vbs
      | Tstr_module { mb_expr = { mod_desc = Tmod_structure sub; _ }; _ } -> check_r1 ctx sub
      | _ -> ())
    str.str_items

(* ------------------------------------------------------------------ *)
(* R2 *)

(* A module alias of this unit, [module R = Random] or its local form,
   maps R to the path it names. *)
let note_alias ctx id (me : module_expr) =
  match me.mod_desc with
  | Tmod_ident (p, _) | Tmod_constraint ({ mod_desc = Tmod_ident (p, _); _ }, _, _, _) ->
      Hashtbl.replace ctx.aliases (Ident.unique_name id) p
  | _ -> ()

let rec unalias ctx = function
  | Path.Pident id as p -> (
      match Hashtbl.find_opt ctx.aliases (Ident.unique_name id) with
      | Some q -> unalias ctx q
      | None -> p)
  | Path.Pdot (p, s) -> Path.Pdot (unalias ctx p, s)
  | p -> p

(* "Random.float", "Unix.gettimeofday", ...: the stdlib's name, or the
   unix library's. *)
let r2_name ctx path =
  let path = unalias ctx path in
  match stdlib_name path with
  | Some name -> Some name
  | None -> (
      match String.split_on_char '.' (Path.name path) with
      | ("Unix" | "UnixLabels") :: rest -> Some (String.concat "." ("Unix" :: rest))
      | _ -> None)

let check_r2 ctx e =
  match e.exp_desc with
  | Texp_ident (path, { loc; _ }, _) -> (
      match r2_name ctx path with
      | Some name when String.starts_with ~prefix:"Random." name ->
          emit ctx loc "R2"
            (Printf.sprintf
               "nondeterminism: %s uses the global Random; use the seeded per-sim \
                Ccsim_util.Rng instead"
               name)
      | Some
          (( "Unix.gettimeofday" | "Unix.time" | "Unix.localtime" | "Unix.gmtime" | "Unix.mktime"
           | "Sys.time" ) as name)
        when not ctx.exempt ->
          emit ctx loc "R2"
            (Printf.sprintf
               "nondeterminism: wall-clock read %s outside lib/runner telemetry and lib/obs \
                profiling; route through Ccsim_runner.Telemetry.now_s or Ccsim_obs.Profile.wall_now"
               name)
      | Some
          (("Gc.stat" | "Gc.quick_stat" | "Gc.counters" | "Gc.minor_words" | "Gc.allocated_bytes")
           as name)
        when not ctx.exempt ->
          emit ctx loc "R2"
            (Printf.sprintf
               "nondeterminism: host-GC read %s outside lib/runner and lib/obs; route \
                allocation measurement through Ccsim_obs.Profile.gc_sample"
               name)
      | Some (("Hashtbl.iter" | "Hashtbl.fold") as name) ->
          emit ctx loc "R2"
            (Printf.sprintf
               "nondeterminism: %s visits bindings in hash order; iterate a deterministic key \
                list, or sort the result and say so with [@lint.allow R2 \"why\"]"
               name)
      | _ -> ())
  | Texp_letmodule (Some id, _, _, me, _) -> note_alias ctx id me
  | _ -> ()

(* ------------------------------------------------------------------ *)
(* R6 *)

let r6_targets = [ "="; "<>"; "compare"; "min"; "max"; "Hashtbl.hash"; "Hashtbl.seeded_hash" ]

(* A type path's declaration key: a path from another unit names it,
   one rooted in this unit gets the unit's name in front. *)
let declared_immediate ctx p =
  let p = unalias ctx p in
  let rec root = function Path.Pident id -> Some id | Path.Pdot (q, _) -> root q | _ -> None in
  match root p with
  | None -> false
  | Some id ->
      let name = unmangle (Path.name p) in
      let key = if Ident.persistent id then name else ctx.unit_name ^ "." ^ name in
      Option.value (Hashtbl.find_opt ctx.immediate key) ~default:false

let rec type_is_immediate ctx ty =
  match Types.get_desc ty with
  | Types.Tconstr (p, _, _) ->
      Path.same p Predef.path_int || Path.same p Predef.path_bool
      || Path.same p Predef.path_char || Path.same p Predef.path_unit
      || declared_immediate ctx p
  | Types.Tlink ty | Types.Tsubst (ty, _) -> type_is_immediate ctx ty
  | _ -> false

(* Argument types of the (instantiated) arrow type at this use site. *)
let rec arrow_args ty acc =
  match Types.get_desc ty with
  | Types.Tarrow (_, arg, rest, _) -> arrow_args rest (arg :: acc)
  | _ -> List.rev acc

let check_r6 ctx e =
  match e.exp_desc with
  | Texp_ident (path, { loc; _ }, _) -> (
      match stdlib_name path with
      | Some name when List.mem name r6_targets -> (
          let args = arrow_args e.exp_type [] in
          match List.find_opt (fun ty -> not (type_is_immediate ctx ty)) args with
          | Some bad ->
              emit ctx loc "R6"
                (Printf.sprintf
                   "polymorphic %s instantiated at %s (not an immediate type): \
                    generic compare walks memory, is wrong on nan, and is slow on the hot \
                    path; use the type's monomorphic comparison (String.equal, Float.compare, \
                    a match, ...); for floats, Float.equal or Ccsim_util.Feq.feq ~eps, which \
                    states the tolerance detector thresholds rely on"
                   name (type_to_string bad))
          | None -> ())
      | _ -> ())
  | _ -> ()

(* ------------------------------------------------------------------ *)
(* R5 *)

(* The spine of a hot binding: the curried Texp_function chain that IS
   the function being defined, as opposed to closures it builds per
   call. Multi-case `function` bodies terminate the spine (each case
   body is ordinary code); single-case chains are curried parameters. *)
let rec function_spine e acc =
  match e.exp_desc with
  | Texp_function { cases = [ c ]; _ } -> function_spine c.c_rhs (e :: acc)
  | Texp_function _ -> e :: acc
  | _ -> acc

let float_typed e =
  match Types.get_desc e.exp_type with
  | Types.Tconstr (p, _, _) -> Path.same p Predef.path_float
  | _ -> false

(* Stdlib entry points known to allocate on every call. Module-level
   prefixes catch whole formatting/buffer families; the explicit list
   covers the container and string workhorses. Deliberately curated --
   unknown calls stay silent (the rule errs toward silence, the escape
   hatch documents the reviewed ones). *)
let allocating_prefixes = [ "Printf."; "Format."; "Buffer."; "Scanf."; "Marshal."; "Digest."; "Seq." ]

let allocating_calls =
  [
    "ref"; "^"; "@"; "string_of_int"; "string_of_float"; "string_of_bool";
    "float_of_string"; "int_of_string"; "string_of_format";
    "String.make"; "String.init"; "String.sub"; "String.concat"; "String.map";
    "String.mapi"; "String.cat"; "String.split_on_char"; "String.trim"; "String.escaped";
    "String.uppercase_ascii"; "String.lowercase_ascii"; "String.capitalize_ascii";
    "String.to_bytes"; "String.of_bytes";
    "Bytes.create"; "Bytes.make"; "Bytes.init"; "Bytes.sub"; "Bytes.copy";
    "Bytes.of_string"; "Bytes.to_string"; "Bytes.extend"; "Bytes.cat";
    "Array.make"; "Array.create_float"; "Array.init"; "Array.make_matrix";
    "Array.append"; "Array.concat"; "Array.sub"; "Array.copy"; "Array.of_list";
    "Array.to_list"; "Array.map"; "Array.mapi"; "Array.split"; "Array.combine";
    "List.map"; "List.mapi"; "List.rev"; "List.append"; "List.concat";
    "List.concat_map"; "List.filter"; "List.filteri"; "List.filter_map";
    "List.init"; "List.cons"; "List.sort"; "List.stable_sort"; "List.fast_sort";
    "List.merge"; "List.split"; "List.combine"; "List.partition"; "List.rev_append";
    "List.rev_map"; "List.of_seq";
    "Queue.create"; "Queue.push"; "Queue.add"; "Queue.copy"; "Queue.take_opt";
    "Queue.peek_opt";
    "Stack.create"; "Stack.push";
    "Hashtbl.create"; "Hashtbl.add"; "Hashtbl.replace"; "Hashtbl.copy";
    "Hashtbl.find_opt"; "Hashtbl.to_seq";
    "Option.map"; "Option.bind"; "Option.some"; "Option.to_list";
    "Result.map"; "Result.bind"; "Result.ok"; "Result.error";
    "Float.to_string"; "Int.to_string"; "Bool.to_string"; "Char.escaped";
    (* tuple-returning float primitives: a pair plus a boxed float *)
    "Float.frexp"; "frexp"; "Float.modf"; "modf";
    "Filename.concat"; "Filename.basename"; "Filename.dirname";
  ]

let allocating_call name =
  List.exists (fun s -> String.equal s name) allocating_calls
  || List.exists
       (fun pre ->
         let pl = String.length pre in
         String.length name > pl && String.equal (String.sub name 0 pl) pre)
       allocating_prefixes

let record_allocates = function
  | Types.Record_unboxed _ -> false
  | Types.Record_regular | Types.Record_float | Types.Record_inlined _
  | Types.Record_extension _ ->
      true

let constructor_allocates (cd : Types.constructor_description) args =
  (match args with [] -> false | _ :: _ -> true)
  &&
  match cd.Types.cstr_tag with
  | Types.Cstr_constant _ | Types.Cstr_unboxed -> false
  | Types.Cstr_block _ | Types.Cstr_extension _ -> true

(* A float-typed RHS that is already a heap value (ident, field of a
   mixed record): storing it copies a pointer. Anything computed is a
   fresh box when the destination field is not float-only storage. *)
let float_already_boxed rhs =
  match rhs.exp_desc with
  | Texp_ident _ -> true
  | Texp_field (_, _, lbl) -> (
      match lbl.Types.lbl_repres with Types.Record_float -> false | _ -> true)
  | _ -> false

let check_r5 ctx e =
  if ctx.hot && not ctx.alloc_ok && not (List.memq e ctx.spine) then begin
    let flag what = emit ctx e.exp_loc "R5" (what ^ " in [@ccsim.hot] code; restructure to a preallocated/flat representation or annotate [@ccsim.alloc_ok \"why\"]") in
    match e.exp_desc with
    | Texp_function _ -> flag "closure construction (heap-allocated environment per evaluation)"
    | Texp_tuple _ -> flag "tuple construction"
    | Texp_construct ({ txt; _ }, cd, args) when constructor_allocates cd args ->
        flag
          (Printf.sprintf "constructor %s application (heap block)"
             (String.concat "." (Longident.flatten txt)))
    | Texp_variant (_, Some _) -> flag "polymorphic variant construction"
    | Texp_record { representation; _ } when record_allocates representation ->
        flag "record construction"
    | Texp_array (_ :: _) -> flag "array literal"
    | Texp_lazy _ -> flag "lazy suspension"
    | Texp_object _ -> flag "object construction"
    | Texp_pack _ -> flag "first-class module packing"
    | Texp_field (_, _, lbl) when
        (match lbl.Types.lbl_repres with Types.Record_float -> true | _ -> false) ->
        flag
          (Printf.sprintf "float read from float-only record field %s (boxes the result)"
             lbl.Types.lbl_name)
    | Texp_setfield (_, _, lbl, rhs)
      when (match lbl.Types.lbl_repres with Types.Record_float -> false | _ -> true)
           && float_typed rhs
           && not (float_already_boxed rhs) ->
        flag
          (Printf.sprintf "computed float stored into mutable field %s (boxes the value)"
             lbl.Types.lbl_name)
    | Texp_apply (f, args) -> (
        (match f.exp_desc with
        | Texp_ident (path, _, _) -> (
            match stdlib_name path with
            | Some name when allocating_call name ->
                flag (Printf.sprintf "call to allocating stdlib function %s" name)
            | _ -> ())
        | _ -> ());
        (* An arrow-typed result alone is not evidence: a full application
           can legitimately return a stored callback (an event payload,
           say). Omitted labelled arguments are — the compiler builds a
           closure capturing the supplied ones. *)
        if List.exists (fun (_, arg) -> Option.is_none arg) args then
          flag "partial application (allocates a closure)")
    | _ -> ()
  end

(* ------------------------------------------------------------------ *)
(* R7 inference: never emits; the checking hooks call it on operands. *)

let unit_of_ident ctx path =
  match dim_of_name (Path.last path) with
  | Some d -> U_dim d
  | None -> (
      match path with
      | Path.Pident id -> (
          match Hashtbl.find_opt ctx.units (Ident.unique_name id) with
          | Some u -> u
          | None -> U_unknown)
      | _ -> U_unknown)

let unit_join a b =
  match (a, b) with
  | U_dim da, U_dim db when dim_eq da db -> a
  | U_const, U_const -> U_const
  | U_dim _, U_const -> a
  | U_const, U_dim _ -> b
  | _ -> U_unknown

let rec infer_unit ctx e =
  match e.exp_desc with
  | Texp_constant _ -> U_const
  | Texp_ident (path, _, _) -> unit_of_ident ctx path
  | Texp_field (_, _, lbl) -> (
      match dim_of_name lbl.Types.lbl_name with Some d -> U_dim d | None -> U_unknown)
  | Texp_let (_, _, body) | Texp_sequence (_, body) | Texp_open (_, body) ->
      infer_unit ctx body
  | Texp_ifthenelse (_, a, Some b) -> unit_join (infer_unit ctx a) (infer_unit ctx b)
  | Texp_match (_, cases, _) -> (
      match List.map (fun c -> infer_unit ctx c.c_rhs) cases with
      | [] -> U_unknown
      | u :: rest -> List.fold_left unit_join u rest)
  | Texp_apply (f, args) -> (
      let plain =
        List.filter_map
          (function Asttypes.Nolabel, Some a -> Some a | _ -> None)
          args
      in
      let op =
        match f.exp_desc with Texp_ident (p, _, _) -> classify_op p | _ -> None
      in
      match (op, plain) with
      | Some Op_pass, [ a ] -> infer_unit ctx a
      | Some (Op_add | Op_minmax), [ a; b ] ->
          (* mismatches are reported by the checking hook; here just infer *)
          (match (infer_unit ctx a, infer_unit ctx b) with
          | U_dim da, U_dim db -> if dim_eq da db then U_dim da else U_unknown
          | U_dim d, U_const | U_const, U_dim d -> U_dim d
          | U_const, U_const -> U_const
          | _ -> U_unknown)
      | Some Op_mul, [ a; b ] -> (
          match (infer_unit ctx a, infer_unit ctx b) with
          | U_const, u | u, U_const -> u
          | U_dim da, U_dim db -> U_dim (dim_add da db)
          | _ -> U_unknown)
      | Some Op_div, [ a; b ] -> (
          match (infer_unit ctx a, infer_unit ctx b) with
          | u, U_const -> u
          | U_const, U_dim d -> U_dim (dim_sub dim_zero d)
          | U_dim da, U_dim db -> U_dim (dim_sub da db)
          | _ -> U_unknown)
      | Some Op_cmp, _ -> U_const
      | _ -> U_unknown)
  | _ -> U_unknown

(* The suffix entry of an operand that is itself a suffixed name (an
   identifier or a record field), for the scale check. *)
let named_unit e =
  match e.exp_desc with
  | Texp_ident (path, _, _) -> suffix_unit (Path.last path)
  | Texp_field (_, _, lbl) -> suffix_unit lbl.Types.lbl_name
  | _ -> None

(* Checking hook: dimension mismatches at additive/comparison/min-max
   operators, reported with both inferred dimensions; between two
   suffixed names of one dimension, scale mismatches (_s vs _ms). *)
let check_r7_expr ctx e =
  if ctx.emit_r7 then
    match e.exp_desc with
    | Texp_apply ({ exp_desc = Texp_ident (p, { loc; _ }, _); _ }, args) -> (
        let plain =
          List.filter_map
            (function Asttypes.Nolabel, Some a -> Some a | _ -> None)
            args
        in
        match (classify_op p, plain) with
        | Some ((Op_add | Op_cmp | Op_minmax) as cls), [ a; b ] -> (
            let what =
              match cls with
              | Op_add -> "additive operator"
              | Op_cmp -> "comparison"
              | _ -> "min/max"
            in
            match (infer_unit ctx a, infer_unit ctx b) with
            | U_dim da, U_dim db when not (dim_eq da db) ->
                emit ctx loc "R7"
                  (Printf.sprintf
                     "unit mismatch: %s %s combines %s with %s (dimensions inferred from \
                      name suffixes and propagated through arithmetic)"
                     what (Path.last p) (dim_to_string da) (dim_to_string db))
            | _ -> (
                match (named_unit a, named_unit b) with
                | Some (sa, d, ka), Some (sb, _, kb) when ka <> kb ->
                    emit ctx loc "R7"
                      (Printf.sprintf
                         "unit scale mismatch: %s %s combines %s vs %s (both %s, scales \
                          differ by 10^%d); convert one operand with Ccsim_util.Units first"
                         what (Path.last p) sa sb (dim_to_string d) (abs (ka - kb)))
                | _ -> ()))
        | _ -> ())
    | Texp_setfield (_, { loc; _ }, lbl, rhs) -> (
        match dim_of_name lbl.Types.lbl_name with
        | Some want -> (
            match infer_unit ctx rhs with
            | U_dim got when not (dim_eq got want) ->
                emit ctx loc "R7"
                  (Printf.sprintf
                     "unit mismatch: field %s declares %s but the stored expression is %s"
                     lbl.Types.lbl_name (dim_to_string want) (dim_to_string got))
            | _ -> ())
        | None -> ())
    | Texp_record { fields; _ } ->
        Array.iter
          (fun (lbl, def) ->
            match (dim_of_name lbl.Types.lbl_name, def) with
            | Some want, Overridden ({ loc; _ }, rhs) -> (
                match infer_unit ctx rhs with
                | U_dim got when not (dim_eq got want) ->
                    emit ctx loc "R7"
                      (Printf.sprintf
                         "unit mismatch: field %s declares %s but the bound expression is %s"
                         lbl.Types.lbl_name (dim_to_string want) (dim_to_string got))
                | _ -> ())
            | _ -> ())
          fields
    | _ -> ()

(* Value bindings: populate the ident environment (suffix wins,
   inferred dimension otherwise) and check declared-vs-inferred. *)
let check_r7_binding ctx vb =
  match vb.vb_pat.pat_desc with
  | Tpat_var (id, { txt = name; loc }) -> (
      let inferred = infer_unit ctx vb.vb_expr in
      match dim_of_name name with
      | Some declared ->
          Hashtbl.replace ctx.units (Ident.unique_name id) (U_dim declared);
          if ctx.emit_r7 then begin
            match inferred with
            | U_dim got when not (dim_eq got declared) ->
                emit ctx loc "R7"
                  (Printf.sprintf
                     "unit mismatch: %s is declared %s by its suffix but its definition is %s"
                     name (dim_to_string declared) (dim_to_string got))
            | _ -> ()
          end
      | None -> (
          match inferred with
          | U_dim _ -> Hashtbl.replace ctx.units (Ident.unique_name id) inferred
          | _ -> ()))
  | _ -> ()

(* Function parameters seed the environment from their suffixes. *)
let note_param_units ctx (c : value case) =
  let rec walk : type k. k general_pattern -> unit =
   fun p ->
    match p.pat_desc with
    | Tpat_var (id, { txt = name; _ }) -> (
        match dim_of_name name with
        | Some d -> Hashtbl.replace ctx.units (Ident.unique_name id) (U_dim d)
        | None -> ())
    | Tpat_alias (inner, id, { txt = name; _ }) ->
        (match dim_of_name name with
        | Some d -> Hashtbl.replace ctx.units (Ident.unique_name id) (U_dim d)
        | None -> ());
        walk inner
    | Tpat_tuple ps -> List.iter walk ps
    | Tpat_construct (_, _, ps, _) -> List.iter walk ps
    | Tpat_record (fields, _) -> List.iter (fun (_, _, p) -> walk p) fields
    | Tpat_or (a, b, _) -> walk a; walk b
    | _ -> ()
  in
  walk c.c_lhs

(* ------------------------------------------------------------------ *)
(* The walk *)

let iterator ctx =
  let default = Tast_iterator.default_iterator in
  let expr self e =
    note_allows ctx e.exp_attributes e.exp_loc;
    let saved_hot = ctx.hot and saved_ok = ctx.alloc_ok and saved_spine = ctx.spine in
    (* [@ccsim.hot] on an expression roots a fresh hot region whose own
       function spine is exempt from the closure rule. *)
    if (not ctx.hot) && has_attr "ccsim.hot" e.exp_attributes then begin
      ctx.hot <- true;
      ctx.spine <- function_spine e []
    end;
    (match reason_attr "ccsim.alloc_ok" e.exp_attributes with
    | Some (Some _why) -> ctx.alloc_ok <- true
    | Some None ->
        emit ctx e.exp_loc "R5"
          "[@ccsim.alloc_ok] requires a justification string: [@ccsim.alloc_ok \"why\"]";
        ctx.alloc_ok <- true
    | None -> ());
    check_r2 ctx e;
    check_r5 ctx e;
    check_r6 ctx e;
    check_r7_expr ctx e;
    (match e.exp_desc with
    | Texp_function { cases; _ } -> List.iter (note_param_units ctx) cases
    | Texp_match ({ exp_desc = Texp_tuple _; _ } as scrut, _, _) ->
        (* [match (a, b) with] deconstructs in place: the compiler never
           builds the scrutinee tuple, so exempt it like the spine. *)
        ctx.spine <- scrut :: ctx.spine
    | _ -> ());
    default.expr self e;
    ctx.hot <- saved_hot;
    ctx.alloc_ok <- saved_ok;
    ctx.spine <- saved_spine
  in
  let value_binding self vb =
    note_allows ctx vb.vb_attributes vb.vb_loc;
    let saved_hot = ctx.hot and saved_ok = ctx.alloc_ok and saved_spine = ctx.spine in
    if (not ctx.hot) && has_attr "ccsim.hot" vb.vb_attributes then begin
      ctx.hot <- true;
      ctx.spine <- function_spine vb.vb_expr []
    end;
    (match reason_attr "ccsim.alloc_ok" vb.vb_attributes with
    | Some (Some _why) -> ctx.alloc_ok <- true
    | Some None ->
        emit ctx vb.vb_loc "R5"
          "[@ccsim.alloc_ok] requires a justification string: [@ccsim.alloc_ok \"why\"]";
        ctx.alloc_ok <- true
    | None -> ());
    check_r7_binding ctx vb;
    default.value_binding self vb;
    ctx.hot <- saved_hot;
    ctx.alloc_ok <- saved_ok;
    ctx.spine <- saved_spine
  in
  let module_binding self mb =
    Option.iter (fun id -> note_alias ctx id mb.mb_expr) mb.mb_id;
    default.module_binding self mb
  in
  (* An allow anywhere else (a type, a pattern, a module) annotates no
     node whose findings it could cover: it silences nothing. *)
  let attributes self (attrs : attributes) =
    List.iter
      (fun (a : attribute) ->
        if is_allow a && not (List.exists (fun al -> al.at == a.attr_loc) ctx.allows) then
          ctx.allows <- allow_of_attr ~span:Location.none a :: ctx.allows)
      attrs;
    default.attributes self attrs
  in
  { default with expr; value_binding; module_binding; attributes }

(* lib/runner and lib/obs may read the host clock and the GC: run
   telemetry and engine profiling are about the host, not the sim. *)
let exempt_dirs = [ "lib/runner/"; "lib/obs/" ]

(* Whether [f] lies inside [span]: its start, up to but not at its end. *)
let covers (span : Location.t) (f : Lint_core.finding) =
  let at_or_after (p : Lexing.position) =
    f.line > p.pos_lnum || (f.line = p.pos_lnum && f.col >= p.pos_cnum - p.pos_bol)
  in
  at_or_after span.loc_start && not (at_or_after span.loc_end)

let silenceable = [ "R1"; "R2"; "R6"; "R7" ]

(* The findings no allow covers, then each allow's own: a missing
   reason, or a rule it names that it silences nothing of. *)
let apply_allows ctx =
  let kept =
    List.filter
      (fun (f : Lint_core.finding) ->
        List.fold_left
          (fun kept a ->
            if String.equal a.rule f.rule && List.mem a.rule silenceable && covers a.span f
            then begin
              a.used <- true;
              false
            end
            else kept)
          true ctx.allows)
      ctx.findings
  in
  ctx.findings <- kept;
  List.iter
    (fun a ->
      let say fmt = Printf.ksprintf (emit ctx a.at a.rule) fmt in
      if not a.reasoned then
        say "[@lint.allow %s] requires a reason: [@lint.allow %s \"why\"]" a.rule a.rule
      else if String.equal a.rule "R5" then
        say "[@lint.allow R5] silences nothing: R5 takes only [@ccsim.alloc_ok \"why\"]"
      else if String.equal a.rule "R8" then
        say
          "[@lint.allow R8] silences nothing: R8 takes only [@@ccsim.test_only \"why\"] on the \
           declaration"
      else if not a.used then
        say "[@lint.allow %s] is stale: it covers no %s finding; delete it" a.rule a.rule)
    ctx.allows

let scan_unit ~file ~unit_name ~immediate str =
  let ctx =
    {
      unit_name;
      immediate;
      file;
      exempt = List.exists (fun dir -> String.starts_with ~prefix:dir file) exempt_dirs;
      aliases = Hashtbl.create 8;
      findings = [];
      hot = false;
      alloc_ok = false;
      spine = [];
      units = Hashtbl.create 64;
      emit_r7 = false;
      allows = [];
    }
  in
  let it = iterator ctx in
  (* Pass 1 populates the unit environment (and collects nothing else
     that survives); pass 2 emits. Idents are unique per unit, so the
     flat table carries forward-use information into the second pass. *)
  it.Tast_iterator.structure it str;
  ctx.findings <- [];
  ctx.allows <- [];
  ctx.emit_r7 <- true;
  it.Tast_iterator.structure it str;
  check_r1 ctx str;
  apply_allows ctx;
  ctx.findings

let scan_structure ~file str = scan_unit ~file ~unit_name:"" ~immediate:(Hashtbl.create 1) str

(* ------------------------------------------------------------------ *)
(* R8: test-only API

   Declarations come from the checked interfaces' .cmti, uses from every
   .cmt under the cmt roots. A use names its declaration by the location
   the typedtree carries (val_loc, lbl_loc, cstr_loc), never by name.
   Outside its unit a field or constructor carries its .mli location,
   inside it the .ml one, so both files' type declarations map member
   locations to one key, Unit.Path.type.member; a re-exported type maps
   its members to the original's keys. A value's uses inside its own .ml
   carry the .ml location, so only uses from other units reach it. *)

type r8_decl = {
  d_file : string;
  d_loc : Location.t;
  d_what : string;  (* "value Link.is_down", "field Cca.ack_info.now", ... *)
  d_reason : string option option;  (* [@ccsim.test_only], as reason_attr *)
  mutable d_run : bool;  (* reached from outside the test paths *)
  mutable d_test : bool;
}

type r8 = {
  decls : (string, r8_decl) Hashtbl.t;
  mutable order : r8_decl list;  (* newest first *)
  members : (string, string) Hashtbl.t;  (* member location -> key *)
  originals : (string, string) Hashtbl.t;  (* re-exported member key -> original's *)
  immediate : (string, bool) Hashtbl.t;
      (* R6's: type key -> whether every declaration of it (.mli and
         .ml) is immediate *)
}

let loc_key (loc : Location.t) =
  Printf.sprintf "%s:%d" loc.loc_start.Lexing.pos_fname loc.loc_start.Lexing.pos_cnum

let r8_declare r8 ~key ~file ~what loc attrs =
  if not (Hashtbl.mem r8.decls key) then begin
    let d_reason = reason_attr "ccsim.test_only" attrs in
    let d = { d_file = file; d_loc = loc; d_what = what; d_reason; d_run = false; d_test = false } in
    Hashtbl.replace r8.decls key d;
    r8.order <- d :: r8.order
  end

(* The fields and constructors of one type declaration; [declare] names
   the checked .mli they are declarations of, if any. *)
let r8_type_decl r8 ~owner ~shown ~declare (td : type_declaration) =
  let tkey = owner ^ "." ^ td.typ_name.txt in
  let immediate =
    (match td.typ_type.Types.type_immediate with Type_immediacy.Always -> true | _ -> false)
    && Option.value (Hashtbl.find_opt r8.immediate tkey) ~default:true
  in
  Hashtbl.replace r8.immediate tkey immediate;
  let original =
    match td.typ_manifest with
    | Some { ctyp_desc = Ttyp_constr (p, _, _); _ } -> Some (unmangle (Path.name p))
    | _ -> None
  in
  (* [sub] is "C." for the fields of constructor C's inline record. *)
  let member ~what ~sub name (loc : Location.t) attrs =
    let key = tkey ^ "." ^ sub ^ name in
    Hashtbl.replace r8.members (loc_key loc) key;
    match (original, declare) with
    | Some orig, _ -> Hashtbl.replace r8.originals key (orig ^ "." ^ sub ^ name)
    | None, Some file -> r8_declare r8 ~key ~file ~what loc attrs
    | None, None -> ()
  in
  let fields ~sub =
    List.iter (fun (ld : label_declaration) ->
        member ~sub ld.ld_name.txt ld.ld_loc ld.ld_attributes
          ~what:(Printf.sprintf "field %s.%s.%s%s" shown td.typ_name.txt sub ld.ld_name.txt))
  in
  match td.typ_kind with
  | Ttype_record lds -> fields ~sub:"" lds
  | Ttype_variant cds ->
      List.iter
        (fun (cd : constructor_declaration) ->
          let name = cd.cd_name.txt in
          member ~sub:"" name cd.cd_loc cd.cd_attributes
            ~what:(Printf.sprintf "constructor %s.%s" shown name);
          match cd.cd_args with Cstr_record lds -> fields ~sub:(name ^ ".") lds | Cstr_tuple _ -> ())
        cds
  | Ttype_abstract | Ttype_open -> ()

let r8_interface r8 ~unit ~declare (sg : signature) =
  let rec items owner shown (sg : signature) =
    List.iter
      (fun si ->
        match (si.sig_desc, declare) with
        | Tsig_value vd, Some file ->
            let loc = vd.val_val.Types.val_loc and name = vd.val_name.txt in
            let key = loc_key loc in
            r8_declare r8 ~key ~file loc vd.val_attributes
              ~what:(Printf.sprintf "value %s.%s" shown name);
            let rec optionals (cty : core_type) =
              match cty.ctyp_desc with
              | Ttyp_arrow (Asttypes.Optional l, arg, rest) ->
                  r8_declare r8 ~key:(key ^ "?" ^ l) ~file arg.ctyp_loc arg.ctyp_attributes
                    ~what:(Printf.sprintf "optional argument ?%s of %s.%s" l shown name);
                  optionals rest
              | Ttyp_arrow (_, _, rest) | Ttyp_poly (_, rest) -> optionals rest
              | _ -> ()
            in
            optionals vd.val_desc
        | Tsig_type (_, tds), _ -> List.iter (r8_type_decl r8 ~owner ~shown ~declare) tds
        | Tsig_module { md_name = { txt = Some m; _ }; md_type = { mty_desc = Tmty_signature sg; _ }; _ }
          , _ ->
            items (owner ^ "." ^ m) (shown ^ "." ^ m) sg
        | _ -> ())
      sg.sig_items
  in
  items unit (List.hd (List.rev (String.split_on_char '.' unit))) sg

(* An implementation's own type declarations, whose locations its
   own uses of the members carry. *)
let rec r8_implementation_types r8 ~owner (str : structure) =
  List.iter
    (fun si ->
      match si.str_desc with
      | Tstr_type (_, tds) -> List.iter (r8_type_decl r8 ~owner ~shown:"" ~declare:None) tds
      | Tstr_module { mb_id = Some id; mb_expr; _ } -> (
          match mb_expr.mod_desc with
          | Tmod_structure str | Tmod_constraint ({ mod_desc = Tmod_structure str; _ }, _, _, _) ->
              r8_implementation_types r8 ~owner:(owner ^ "." ^ Ident.name id) str
          | _ -> ())
      | _ -> ())
    str.str_items

let r8_uses r8 ~test (str : structure) =
  let reach key =
    let key = Option.value (Hashtbl.find_opt r8.originals key) ~default:key in
    match Hashtbl.find_opt r8.decls key with
    | Some d -> if test then d.d_test <- true else d.d_run <- true
    | None -> ()
  in
  let reach_member loc = Option.iter reach (Hashtbl.find_opt r8.members (loc_key loc)) in
  let default = Tast_iterator.default_iterator in
  let expr self e =
    (match e.exp_desc with
    | Texp_ident (_, _, vd) -> reach (loc_key vd.Types.val_loc)
    | Texp_field (_, _, lbl) -> reach_member lbl.Types.lbl_loc
    | Texp_construct (_, cd, _) -> reach_member cd.Types.cstr_loc
    | Texp_record { fields; extended_expression = Some _; _ } ->
        Array.iter
          (fun ((lbl : Types.label_description), def) ->
            match def with Kept _ -> reach_member lbl.lbl_loc | Overridden _ -> ())
          fields
    | Texp_apply ({ exp_desc = Texp_ident (_, _, vd); _ }, args) ->
        (* An optional argument counts when the call passes it: the None
           the compiler supplies for an omitted one has no location. *)
        List.iter
          (function
            | Asttypes.Optional l, Some arg when not (Location.is_none arg.exp_loc) ->
                reach (loc_key vd.Types.val_loc ^ "?" ^ l)
            | _ -> ())
          args
    | _ -> ());
    default.expr self e
  in
  let pat : type k. Tast_iterator.iterator -> k general_pattern -> unit =
   fun self p ->
    (match p.pat_desc with
    | Tpat_record (fields, _) -> List.iter (fun (_, lbl, _) -> reach_member lbl.Types.lbl_loc) fields
    | _ -> ());
    default.pat self p
  in
  let it = { default with expr; pat } in
  it.structure it str

let r8_findings r8 ~tests =
  let where = String.concat ", " tests in
  let say fmt = Printf.ksprintf Option.some fmt in
  List.filter_map
    (fun d ->
      let problem =
        match (d.d_reason, d.d_run, d.d_test) with
        | None, true, _ | Some (Some _), false, true -> None
        | None, false, true ->
            say "is reached only from %s: delete it, or keep it for the tests with \
                 [@ccsim.test_only \"why\"] on its declaration" where
        | None, false, false -> say "is reached by nothing: delete it"
        | Some None, _, _ -> say "has a [@ccsim.test_only] that requires a reason: \"why\""
        | Some (Some _), true, _ ->
            say "is reached outside %s, so its [@ccsim.test_only] is stale: delete the \
                 attribute" where
        | Some (Some _), false, false -> say "is reached by nothing, not even %s: delete it" where
      in
      let p = d.d_loc.loc_start in
      Option.map
        (fun problem ->
          let col = p.Lexing.pos_cnum - p.Lexing.pos_bol and message = d.d_what ^ " " ^ problem in
          { Lint_core.file = d.d_file; line = p.pos_lnum; col; rule = "R8"; message })
        problem)
    (List.rev r8.order)

(* ------------------------------------------------------------------ *)
(* cmt discovery and the driver entry point *)

let rec files_under ~suffixes path =
  if Sys.file_exists path && Sys.is_directory path then
    Sys.readdir path |> Array.to_list
    |> List.sort String.compare
    |> List.concat_map (fun entry -> files_under ~suffixes (Filename.concat path entry))
  else if List.exists (Filename.check_suffix path) suffixes then [ path ]
  else []

let normalize path =
  String.concat "/"
    (List.filter
       (fun c -> not (String.equal c "" || String.equal c "."))
       (String.split_on_char '/' path))

let source_matches ~paths src =
  let s = normalize src in
  List.exists
    (fun p ->
      let p = normalize p in
      String.equal p s || String.starts_with ~prefix:(p ^ "/") s)
    paths

let scan ?(api = [ "lib" ]) ?(tests = [ "test" ]) ~root ~cmt_roots ~paths () =
  List.iter
    (fun p ->
      if not (Sys.file_exists (Filename.concat root p)) then
        raise (Scan_error (Printf.sprintf "%s: no such file or directory" (Filename.concat root p))))
    paths;
  let cmts =
    List.concat_map (fun r -> files_under ~suffixes:[ ".cmt"; ".cmti" ] (Filename.concat root r)) cmt_roots
  in
  let r8 =
    { decls = Hashtbl.create 1024; order = []; members = Hashtbl.create 4096;
      originals = Hashtbl.create 16; immediate = Hashtbl.create 1024 }
  in
  (* Pass 1: R8's declarations and member locations, each source once. *)
  let declared = Hashtbl.create 256 in
  List.iter
    (fun cmt_path ->
      match Cmt_format.read_cmt cmt_path with
      | { Cmt_format.cmt_sourcefile = Some src; _ } when Hashtbl.mem declared src -> ()
      | { Cmt_format.cmt_annots = Interface sg; cmt_sourcefile = Some src; cmt_modname; _ } ->
          Hashtbl.replace declared src ();
          let declare = if source_matches ~paths:api src then Some (normalize src) else None in
          r8_interface r8 ~unit:(unmangle cmt_modname) ~declare sg
      | { Cmt_format.cmt_annots = Implementation str; cmt_sourcefile = Some src; cmt_modname; _ } ->
          Hashtbl.replace declared src ();
          r8_implementation_types r8 ~owner:(unmangle cmt_modname) str
      | _ -> ()
      | exception _ -> ())
    cmts;
  (* Pass 2: R1-R7 over the implementations under [paths]; R8's uses
     in every implementation. *)
  let seen = Hashtbl.create 16 in
  let findings = ref [] in
  List.iter
    (fun cmt_path ->
      match Cmt_format.read_cmt cmt_path with
      | {
          Cmt_format.cmt_annots = Cmt_format.Implementation str;
          cmt_sourcefile = Some src;
          cmt_modname;
          _;
        }
        when not (Hashtbl.mem seen (normalize src)) ->
          Hashtbl.replace seen (normalize src) ();
          r8_uses r8 ~test:(source_matches ~paths:tests src) str;
          if source_matches ~paths src then
            findings :=
              scan_unit ~file:(normalize src) ~unit_name:(unmangle cmt_modname)
                ~immediate:r8.immediate str
              @ !findings
      | _ -> ()
      | exception _ -> ())
    cmts;
  (* A source with no .cmt would otherwise pass unchecked: dune's default
     alias writes none for an executable's main module. Sources are
     named relative to [root], as the cmts name theirs. *)
  let prefix = String.length (Filename.concat root "") in
  let missing =
    List.concat_map (fun p -> files_under ~suffixes:[ ".ml" ] (Filename.concat root p)) paths
    |> List.map (fun f -> normalize (String.sub f prefix (String.length f - prefix)))
    |> List.sort_uniq String.compare
    |> List.filter (fun src -> not (Hashtbl.mem seen src))
  in
  (match missing with
  | [] -> ()
  | _ :: _ ->
      raise
        (Scan_error
           (Printf.sprintf
              "no .cmt under %s for %s (run `dune build @check` first; from the repository \
               root, the build context is _build/default)"
              root (String.concat ", " missing))));
  List.sort_uniq Lint_core.compare_finding (r8_findings r8 ~tests @ !findings)

(* What the repository lints, relative to its build context: R8 reads
   the callers in every cmt root, the other rules scan [scanned]. *)
let cmt_roots = [ "lib"; "bin"; "tools"; "test"; "ccbench"; "examples" ]
let scanned = [ "lib"; "bin"; "tools" ]

let scan_tree root = scan ~root ~cmt_roots ~paths:scanned ()
