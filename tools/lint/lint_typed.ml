(* ccsim-lint typed stage: type-accurate rules over the .cmt files dune
   already produces (compiler-libs Cmt_format + Tast_iterator).

   The parsetree stage (Lint_core) guesses: floats from suffixes,
   units from names, and cannot see allocation at all. This stage loads
   the Typedtree, where every expression carries its instantiated type
   and every record/constructor its runtime representation, and runs:

   R5  no-alloc-in-hot: functions annotated [@ccsim.hot] (and everything
       they syntactically contain) may not allocate -- closures, tuples,
       non-constant constructors, records, polymorphic variants, array
       literals, lazy, partial applications, known-allocating stdlib
       calls, float boxing at field reads/writes. The reviewed escape
       hatch is [@ccsim.alloc_ok "why"] on any expression or binding;
       the justification string is mandatory.
   R6  no-polymorphic-compare: any instantiation of Stdlib.(=) / (<>) /
       compare / min / max / Hashtbl.hash at a type that is not a known
       immediate (int/bool/char/unit) walks memory generically -- slow
       in the DES inner loop, wrong on nan, and allocation-prone via
       closure-passing. Float = / <> is the common case.
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

   Suppression is shared with the parse stage: [@lint.allow R5 R6]
   attributes (read straight off the typedtree), (* lint: allow ... *)
   comment lines (recovered from the source file when readable), and
   lint.allow entries (applied by the driver). *)

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

(* ------------------------------------------------------------------ *)
(* Attributes *)

let has_attr name (attrs : attributes) =
  List.exists (fun (a : attribute) -> String.equal a.Parsetree.attr_name.txt name) attrs

(* [@ccsim.alloc_ok "why"]: Some (Some why) when present with a string
   payload, Some None when present without one (an error in itself). *)
let alloc_ok_attr (attrs : attributes) =
  List.find_map
    (fun (a : attribute) ->
      if not (String.equal a.Parsetree.attr_name.txt "ccsim.alloc_ok") then None
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
  mutable findings : Lint_core.finding list;
  (* R5 walk state (saved/restored around recursion) *)
  mutable hot : bool;
  mutable alloc_ok : bool;
  mutable spine : expression list;  (* physical identity *)
  (* R7 ident environment: Ident.unique_name -> unit value. Idents are
     unique per compilation unit, so one flat table is scope-correct. *)
  units : (string, unit_v) Hashtbl.t;
  mutable emit_r7 : bool;  (* false on the populate pass *)
  (* [@lint.allow ...] regions: (rule, first_line, last_line) *)
  mutable regions : (string * int * int) list;
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
      stage = "typed";
    }
    :: ctx.findings

let note_allow_regions ctx (attrs : attributes) (loc : Location.t) =
  match Lint_core.rules_of_allow_attrs attrs with
  | [] -> ()
  | rules ->
      let first = loc.loc_start.Lexing.pos_lnum and last = loc.loc_end.Lexing.pos_lnum in
      ctx.regions <- List.map (fun r -> (r, first, last)) rules @ ctx.regions

(* ------------------------------------------------------------------ *)
(* R6 *)

let r6_targets = [ "="; "<>"; "compare"; "min"; "max"; "Hashtbl.hash"; "Hashtbl.seeded_hash" ]

let rec type_is_immediate ty =
  match Types.get_desc ty with
  | Types.Tconstr (p, _, _) ->
      Path.same p Predef.path_int || Path.same p Predef.path_bool
      || Path.same p Predef.path_char || Path.same p Predef.path_unit
  | Types.Tlink ty | Types.Tsubst (ty, _) -> type_is_immediate ty
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
          match List.find_opt (fun ty -> not (type_is_immediate ty)) args with
          | Some bad ->
              emit ctx loc "R6"
                (Printf.sprintf
                   "polymorphic %s instantiated at %s (not an immediate int/bool/char/unit): \
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
    note_allow_regions ctx e.exp_attributes e.exp_loc;
    let saved_hot = ctx.hot and saved_ok = ctx.alloc_ok and saved_spine = ctx.spine in
    (* [@ccsim.hot] on an expression roots a fresh hot region whose own
       function spine is exempt from the closure rule. *)
    if (not ctx.hot) && has_attr "ccsim.hot" e.exp_attributes then begin
      ctx.hot <- true;
      ctx.spine <- function_spine e []
    end;
    (match alloc_ok_attr e.exp_attributes with
    | Some (Some _why) -> ctx.alloc_ok <- true
    | Some None ->
        emit ctx e.exp_loc "R5"
          "[@ccsim.alloc_ok] requires a justification string: [@ccsim.alloc_ok \"why\"]";
        ctx.alloc_ok <- true
    | None -> ());
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
    note_allow_regions ctx vb.vb_attributes vb.vb_loc;
    let saved_hot = ctx.hot and saved_ok = ctx.alloc_ok and saved_spine = ctx.spine in
    if (not ctx.hot) && has_attr "ccsim.hot" vb.vb_attributes then begin
      ctx.hot <- true;
      ctx.spine <- function_spine vb.vb_expr []
    end;
    (match alloc_ok_attr vb.vb_attributes with
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
  { default with expr; value_binding }

let scan_structure ~file str =
  let ctx =
    {
      file;
      findings = [];
      hot = false;
      alloc_ok = false;
      spine = [];
      units = Hashtbl.create 64;
      emit_r7 = false;
      regions = [];
    }
  in
  let it = iterator ctx in
  (* Pass 1 populates the unit environment (and collects nothing else
     that survives); pass 2 emits. Idents are unique per unit, so the
     flat table carries forward-use information into the second pass. *)
  it.Tast_iterator.structure it str;
  ctx.findings <- [];
  ctx.regions <- [];
  ctx.emit_r7 <- true;
  it.Tast_iterator.structure it str;
  let regions = ctx.regions in
  List.filter
    (fun (f : Lint_core.finding) ->
      not
        (List.exists
           (fun (rule, first, last) ->
             String.equal rule f.rule && f.line >= first && f.line <= last)
           regions))
    ctx.findings

(* ------------------------------------------------------------------ *)
(* cmt discovery and the driver entry point *)

let rec cmt_files_under path =
  if Sys.file_exists path && Sys.is_directory path then
    Sys.readdir path |> Array.to_list
    |> List.sort String.compare
    |> List.concat_map (fun entry -> cmt_files_under (Filename.concat path entry))
  else if Filename.check_suffix path ".cmt" then [ path ]
  else []

(* Leading ".." segments are ignored on both sides so a scan rooted
   above the repo (the test suite's view) still matches build-root
   relative cmt_sourcefile paths like "lib/engine/sim.ml". *)
let strip_parents p =
  let rec strip = function ".." :: rest -> strip rest | segs -> segs in
  String.concat "/" (strip (String.split_on_char '/' (Lint_core.normalize p)))

let source_matches ~paths src =
  let s = strip_parents src in
  List.exists
    (fun p ->
      let p = strip_parents p in
      String.equal p s
      ||
      let pl = String.length p in
      String.length s > pl && String.equal (String.sub s 0 pl) p && s.[pl] = '/')
    paths

(* Comment-form suppressions need the source text. The cmt records the
   build-root-relative path; peel leading directories until something
   exists (a test running in _build/default/test sees
   "lint_fixtures_typed/..." for "test/lint_fixtures_typed/..."), and
   try each source_root prefix. Unreadable source just means no
   comment-form suppression -- attributes still apply. *)
let find_source ~source_roots src =
  let rec candidates s acc =
    let acc = s :: acc in
    match String.index_opt s '/' with
    | Some i -> candidates (String.sub s (i + 1) (String.length s - i - 1)) acc
    | None -> List.rev acc
  in
  let cands = candidates (Lint_core.normalize src) [] in
  List.find_map
    (fun root ->
      List.find_map
        (fun c ->
          let path = if String.equal root "." then c else Filename.concat root c in
          if Sys.file_exists path && not (Sys.is_directory path) then Some path else None)
        cands)
    source_roots

let read_file path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in_noerr ic)
    (fun () -> really_input_string ic (in_channel_length ic))

let scan ?(source_roots = [ "." ]) ~cmt_roots ~paths () =
  let cmts = List.concat_map cmt_files_under cmt_roots in
  let seen = Hashtbl.create 16 in
  let findings = ref [] in
  List.iter
    (fun cmt_path ->
      match Cmt_format.read_cmt cmt_path with
      | {
          Cmt_format.cmt_annots = Cmt_format.Implementation str;
          cmt_sourcefile = Some src;
          _;
        }
        when source_matches ~paths src && not (Hashtbl.mem seen src) ->
          Hashtbl.replace seen src ();
          let file = Lint_core.normalize src in
          let fs = scan_structure ~file str in
          let fs =
            match find_source ~source_roots src with
            | None -> fs
            | Some path -> (
                match read_file path with
                | source ->
                    let suppressed = Lint_core.suppressions_of_source source in
                    List.filter
                      (fun (f : Lint_core.finding) ->
                        not (Hashtbl.mem suppressed (f.line, f.rule)))
                      fs
                | exception Sys_error _ -> fs)
          in
          findings := fs @ !findings
      | _ -> ()
      | exception _ -> ())
    cmts;
  List.sort_uniq Lint_core.compare_finding !findings
