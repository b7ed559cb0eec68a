(* Same-tree call graph + allocation/unsafe site extraction over saved
   typedtrees, for the alloc-discipline and unsafe-audit rule families.

   One [fn] node per top-level value binding (including bindings inside
   sub-modules and functor bodies, e.g. [Engine.Make.step]). Each node
   records:

   - its attributes: [@hot] (a hot-path root), [@alloc_ok "reason"]
     (whole-binding allocation justification), [@unsafe_invariant "..."]
     (the bounds argument's invariant, required around unsafe accesses);
   - every *candidate* minor-heap allocation site in its body, with a
     classified message (closure capture, tuple/record/constructor,
     boxed float, partial application, printf/string building, ref
     cell, known-allocating stdlib call). Candidates become findings
     only when the node is reachable from a [@hot] root (Alloc.check);
   - every [*.unsafe_*] access, with whether an enclosing binding
     carries [@unsafe_invariant] (Unsafe_audit.check);
   - the value identifiers it references, as resolution candidates for
     the call graph.

   Resolution is purely syntactic over normalized qualified names
   ("Mobile_network__Exchange" and "Mobile_network.Exchange" both
   normalize to "Exchange"), so calls through closures, functor
   parameters or record fields are invisible — which is exactly why the
   real hot path carries direct [@hot] annotations on every entry point
   (Walk.move_all, Spatial.rebuild_soa, Dsu.union, ...) instead of
   relying on propagation alone.

   Portability note: this file must compile against compiler-libs for
   every compiler in the CI matrix (5.1-5.3). Typedtree constructors
   whose payload changed across that range (Texp_function most of all)
   are never matched; function literals are detected by their arrow
   type, and binders are collected through [pat_bound_idents] plus the
   default [Tast_iterator], which absorb the version differences. *)

type site = {
  s_line : int;
  s_col : int;
  s_msg : string;
  s_suppressed : bool;  (* inside an [@alloc_ok "reason"] scope *)
}

type usite = {
  u_line : int;
  u_col : int;
  u_name : string;  (* e.g. Stdlib.Array.unsafe_get *)
  u_covered : bool;  (* under a binding with [@unsafe_invariant "..."] *)
}

type ref_ = {
  r_cands : string list;  (* resolution candidates, innermost scope first *)
  r_suppressed : bool;  (* refs inside [@alloc_ok] scopes carry no edges *)
}

type fn = {
  f_qual : string;  (* e.g. "Engine.Make.step" *)
  f_file : string;
  f_hot : bool;
  f_allocs : site list;
  f_unsafes : usite list;
  f_refs : ref_ list;
  f_errs : Finding.t list;  (* malformed attributes: unconditional *)
}

(* ---- attributes ------------------------------------------------------- *)

let find_attr name attrs =
  List.find_opt
    (fun (a : Parsetree.attribute) -> String.equal a.attr_name.txt name)
    attrs

(* The justification string of [@alloc_ok "..."] / [@unsafe_invariant
   "..."]. Extracted by printing the payload expression (Pprintast is
   stable across compiler versions; the constant constructors are not)
   and stripping the quotes. *)
let attr_reason (a : Parsetree.attribute) =
  match a.attr_payload with
  | Parsetree.PStr [ { pstr_desc = Parsetree.Pstr_eval (e, _); _ } ] ->
      let s = Format.asprintf "%a" Pprintast.expression e in
      let n = String.length s in
      if n > 2 && s.[0] = '"' && s.[n - 1] = '"' then
        Some (String.sub s 1 (n - 2))
      else None
  | _ -> None

(* ---- small helpers ---------------------------------------------------- *)

let line_col (loc : Location.t) =
  let p = loc.Location.loc_start in
  (p.Lexing.pos_lnum, p.Lexing.pos_cnum - p.Lexing.pos_bol)

let rec is_arrow ty =
  match Types.get_desc ty with
  | Types.Tarrow (_, _, _, _) -> true
  | Types.Tpoly (t, _) -> is_arrow t
  | _ -> false

let rec is_constr path ty =
  match Types.get_desc ty with
  | Types.Tconstr (p, _, _) -> Path.same p path
  | Types.Tpoly (t, _) -> is_constr path t
  | _ -> false

let rec array_elem ty =
  match Types.get_desc ty with
  | Types.Tconstr (p, [ elt ], _) when Path.same p Predef.path_array ->
      Some elt
  | Types.Tpoly (t, _) -> array_elem t
  | _ -> None

let first_arg_type ty =
  match Types.get_desc ty with
  | Types.Tarrow (_, t1, _, _) -> Some t1
  | _ -> None

(* Strip the Stdlib prefix for messages. *)
let short name =
  let p = "Stdlib." in
  if String.length name > String.length p && String.sub name 0 (String.length p) = p
  then String.sub name (String.length p) (String.length name - String.length p)
  else name

(* ---- qualified-name normalization ------------------------------------- *)

(* "Mobile_network__Exchange" -> "Exchange"; the dune alias module
   "Mobile_network__" -> "" (dropped). *)
let norm_component c =
  let n = String.length c in
  if n >= 2 && String.sub c (n - 2) 2 = "__" then ""
  else
    let rec last_sep i found =
      if i + 2 > n then found
      else if c.[i] = '_' && c.[i + 1] = '_' then last_sep (i + 1) (Some (i + 2))
      else last_sep (i + 1) found
    in
    match last_sep 0 None with
    | Some j when j < n -> String.sub c j (n - j)
    | _ -> c

let normalize_qual name =
  String.split_on_char '.' name
  |> List.map norm_component
  |> List.filter (fun c -> c <> "")
  |> String.concat "."

(* Candidates for a cross-module reference: the normalized name, and
   the same with the leading component dropped (the wrapper-module
   form: "Obs.Tracer.emit" also resolves as "Tracer.emit"). *)
let dot_candidates name =
  let full = normalize_qual name in
  match String.index_opt full '.' with
  | Some i ->
      let tail = String.sub full (i + 1) (String.length full - i - 1) in
      if String.contains tail '.' then [ full; tail ] else [ full ]
  | None -> [ full ]

(* Candidates for a local identifier: each enclosing module-path prefix,
   innermost first ("Engine.Make.exchange", then "Engine.exchange"). *)
let pident_candidates path name =
  let rec prefixes acc = function
    | [] -> acc
    | l -> prefixes (String.concat "." (l @ [ name ]) :: acc) (List.rev (List.tl (List.rev l)))
  in
  List.rev (prefixes [] path)

(* ---- module aliases --------------------------------------------------- *)

(* The typedtree keeps a path as written: after [module R = Random],
   [R.int] is [R.int], not [Stdlib.Random.int]. The rules classify
   identifiers by name, so every name they classify is first resolved
   through the file's module aliases ([module M = P] and
   [let module M = P in], through module constraints). The table maps
   each alias's stamped identifier to the resolved name of its target,
   so a chain of aliases resolves to its end. *)
type aliases = (string, string) Hashtbl.t

let rec resolve (aliases : aliases) p =
  match p with
  | Path.Pident id -> (
      match Hashtbl.find_opt aliases (Ident.unique_name id) with
      | Some target -> target
      | None -> Ident.name id)
  | Path.Pdot (q, s) -> resolve aliases q ^ "." ^ s
  | _ -> Path.name p

let rec alias_target aliases (me : Typedtree.module_expr) =
  match me.mod_desc with
  | Typedtree.Tmod_ident (p, _) -> Some (resolve aliases p)
  | Typedtree.Tmod_constraint (inner, _, _, _) -> alias_target aliases inner
  | _ -> None

let aliases str : aliases =
  let table = Hashtbl.create 8 in
  let add id me =
    match (id, alias_target table me) with
    | Some id, Some target ->
        Hashtbl.replace table (Ident.unique_name id) target
    | _ -> ()
  in
  let default = Tast_iterator.default_iterator in
  let module_binding sub (mb : Typedtree.module_binding) =
    add mb.mb_id mb.mb_expr;
    default.module_binding sub mb
  in
  let expr sub (e : Typedtree.expression) =
    (match e.exp_desc with
    | Typedtree.Texp_letmodule (id, _, _, me, _) -> add id me
    | _ -> ());
    default.expr sub e
  in
  let it = { default with module_binding; expr } in
  it.structure it str;
  table

(* ---- ident collection (portable free-variable analysis) --------------- *)

(* All locally-stamped identifiers used ([Texp_ident (Pident _)]) and
   bound (any pattern binder) in a subtree. Keys are [Ident.unique_name]
   (stamped, so shadowing cannot confuse the capture check); values are
   the display names. *)
let collect_idents e =
  let uses : (string, string) Hashtbl.t = Hashtbl.create 16 in
  let bound : (string, unit) Hashtbl.t = Hashtbl.create 16 in
  let default = Tast_iterator.default_iterator in
  let expr sub (e : Typedtree.expression) =
    (match e.exp_desc with
    | Typedtree.Texp_ident (Path.Pident id, _, _) ->
        Hashtbl.replace uses (Ident.unique_name id) (Ident.name id)
    | _ -> ());
    default.expr sub e
  in
  let pat (type k) sub (p : k Typedtree.general_pattern) =
    List.iter
      (fun id -> Hashtbl.replace bound (Ident.unique_name id) ())
      (Typedtree.pat_bound_idents p);
    default.pat sub p
  in
  let it = { default with expr; pat } in
  it.expr it e;
  (uses, bound)

(* ---- per-binding body walk -------------------------------------------- *)

type acc = {
  mutable a_allocs : site list;
  mutable a_unsafes : usite list;
  mutable a_refs : ref_ list;
  mutable a_errs : Finding.t list;
}

let walk_body ~aliases ~file ~path ~bound_all ~suppress0 ~covered0 acc body =
  let suppress = ref suppress0 in
  let covered = ref covered0 in
  (* true while descending the direct body chain of a function literal:
     [fun x y -> ...] is one closure, not one per parameter *)
  let literal_chain = ref false in
  let add_alloc loc msg =
    let line, col = line_col loc in
    acc.a_allocs <-
      { s_line = line; s_col = col; s_msg = msg; s_suppressed = !suppress }
      :: acc.a_allocs
  in
  let add_err loc rule msg =
    let line, col = line_col loc in
    acc.a_errs <- Finding.make ~file ~line ~col ~rule msg :: acc.a_errs
  in
  let add_unsafe loc name =
    let line, col = line_col loc in
    acc.a_unsafes <-
      { u_line = line; u_col = col; u_name = name; u_covered = !covered }
      :: acc.a_unsafes
  in
  let add_ref cands =
    if cands <> [] then
      acc.a_refs <- { r_cands = cands; r_suppressed = !suppress } :: acc.a_refs
  in
  let enter_alloc_ok loc attrs =
    match find_attr Rules.attr_alloc_ok attrs with
    | None -> false
    | Some a ->
        (match attr_reason a with
        | Some _ -> ()
        | None ->
            add_err loc Finding.Alloc
              "[@alloc_ok] without a justification; write [@alloc_ok \
               \"why this allocation is acceptable\"]");
        true
  in
  let enter_invariant loc attrs =
    match find_attr Rules.attr_unsafe_invariant attrs with
    | None -> false
    | Some a ->
        (match attr_reason a with
        | Some _ -> ()
        | None ->
            add_err loc Finding.Unsafe
              "[@unsafe_invariant] without the invariant text; name the \
               bounds argument, e.g. [@unsafe_invariant \"i < length a, \
               checked by the caller\"]");
        true
  in
  let record_ref p =
    match p with
    | Path.Pident id -> add_ref (pident_candidates path (Ident.name id))
    | _ -> add_ref (dot_candidates (Path.name p))
  in
  let default = Tast_iterator.default_iterator in
  let expr sub (e : Typedtree.expression) =
    let saved_suppress = !suppress in
    let saved_chain = !literal_chain in
    if enter_alloc_ok e.exp_loc e.exp_attributes then suppress := true;
    literal_chain := false;
    (match e.exp_desc with
    | Typedtree.Texp_ident (p, _, _) ->
        record_ref p;
        let name = resolve aliases p in
        if Rules.is_unsafe_ident name then add_unsafe e.exp_loc name;
        default.expr sub e
    | Typedtree.Texp_apply (f, _) ->
        (match f.exp_desc with
        | Typedtree.Texp_ident (p, _, _) ->
            let name = resolve aliases p in
            if Rules.is_printf_ident name then
              add_alloc e.exp_loc
                (Printf.sprintf
                   "%s builds strings; format off the hot path or justify \
                    with [@alloc_ok]"
                   (short name))
            else begin
              if Rules.is_ref_ident name then
                add_alloc e.exp_loc
                  "ref allocates a mutable cell per call; use a \
                   preallocated scratch field"
              else if Rules.is_minmax name then begin
                (* applied [=]/[<]/[compare] at a known float type are
                   specialised to float primitives by the compiler;
                   [min]/[max] are ordinary polymorphic functions, so a
                   float instantiation boxes arguments and result *)
                match Option.bind (first_arg_type f.exp_type) (fun t ->
                    if is_constr Predef.path_float t then Some () else None)
                with
                | Some () ->
                    add_alloc e.exp_loc
                      (Printf.sprintf
                         "polymorphic %s at float boxes its operands and \
                          result; use Float.%s"
                         (short name) (short name))
                | None -> ()
              end
              else if Rules.is_alloc_ident name then
                add_alloc e.exp_loc
                  (Printf.sprintf "%s allocates its result" (short name));
              if is_arrow e.exp_type then
                add_alloc e.exp_loc
                  "partial application allocates a closure; apply every \
                   argument (or stage the function outside the hot path)"
            end
        | _ ->
            if is_arrow e.exp_type then
              add_alloc e.exp_loc
                "partial application allocates a closure; apply every \
                 argument (or stage the function outside the hot path)");
        default.expr sub e
    | Typedtree.Texp_let (_, vbs, body) ->
        List.iter
          (fun (vb : Typedtree.value_binding) ->
            let s = !suppress and c = !covered in
            if enter_alloc_ok vb.vb_pat.pat_loc vb.vb_attributes then
              suppress := true;
            if enter_invariant vb.vb_pat.pat_loc vb.vb_attributes then
              covered := true;
            (* A float bound by [let] is boxed when its right-hand side
               is a call (arithmetic folded into a larger float
               expression stays unboxed; calls returning float
               materialize the box at the binding). *)
            (match vb.vb_expr.exp_desc with
            | Typedtree.Texp_apply (_, _)
              when is_constr Predef.path_float vb.vb_pat.pat_type ->
                add_alloc vb.vb_expr.exp_loc
                  "let-bound float result of a call is boxed; inline the \
                   call into the consuming float expression or justify \
                   with [@alloc_ok]"
            | _ -> ());
            sub.Tast_iterator.expr sub vb.vb_expr;
            suppress := s;
            covered := c)
          vbs;
        sub.Tast_iterator.expr sub body
    | Typedtree.Texp_tuple _ ->
        add_alloc e.exp_loc
          "allocates a tuple; return components separately or store into \
           preallocated scratch";
        default.expr sub e
    | Typedtree.Texp_construct (_, _, _ :: _) ->
        (* exception construction happens on terminating error paths *)
        if not (is_constr Predef.path_exn e.exp_type) then
          add_alloc e.exp_loc
            "allocates a constructor block (Some/cons/...); use a \
             sentinel encoding or preallocated scratch";
        default.expr sub e
    | Typedtree.Texp_record _ ->
        add_alloc e.exp_loc
          "allocates a record; mutate a preallocated one instead";
        default.expr sub e
    | Typedtree.Texp_variant (_, Some _) ->
        add_alloc e.exp_loc "allocates a polymorphic-variant block";
        default.expr sub e
    | Typedtree.Texp_array _ ->
        (match array_elem e.exp_type with
        | Some elt when is_constr Predef.path_float elt ->
            add_alloc e.exp_loc
              "float array literal allocates boxed-float storage; use \
               floatarray or a Bigarray"
        | _ -> add_alloc e.exp_loc "allocates an array literal");
        default.expr sub e
    | Typedtree.Texp_lazy _ ->
        add_alloc e.exp_loc "allocates a lazy thunk";
        default.expr sub e
    (* Arrow-typed non-literals that do not allocate a closure: a field
       read of a preallocated function, a conditional selecting between
       existing closures, a sequence ending in one. Descend normally —
       any literal lambda inside is still checked on its own. *)
    | Typedtree.Texp_field (_, _, _)
    | Typedtree.Texp_ifthenelse (_, _, _)
    | Typedtree.Texp_sequence (_, _)
    | Typedtree.Texp_setfield (_, _, _, _) ->
        default.expr sub e
    | _ when is_arrow e.exp_type ->
        (* a function literal (Texp_function is never matched directly:
           its payload is version-dependent). Only closures that capture
           a local are flagged — closed lambdas are statically
           allocated, and the engine's exchange dispatch relies on
           that. *)
        if not saved_chain then begin
          let uses, bound_in = collect_idents e in
          (* sorted projection: capture order must not depend on hash
             buckets (our own determinism rule) *)
          let captured =
            Hashtbl.to_seq uses
            |> Seq.filter_map (fun (k, name) ->
                   if (not (Hashtbl.mem bound_in k)) && Hashtbl.mem bound_all k
                   then Some name
                   else None)
            |> List.of_seq
            |> List.sort_uniq String.compare
          in
          if captured <> [] then
            add_alloc e.exp_loc
              (Printf.sprintf
                 "closure captures %s; hoist it to the module level, \
                  preallocate it, or justify with [@alloc_ok]"
                 (String.concat ", " captured))
        end;
        literal_chain := true;
        default.expr sub e
    | _ -> default.expr sub e);
    literal_chain := saved_chain;
    suppress := saved_suppress
  in
  let it = { default with expr } in
  it.expr it body

(* ---- structure walk --------------------------------------------------- *)

let collect_binding ~aliases ~file ~path acc_fns
    (vb : Typedtree.value_binding) =
  let name =
    match Typedtree.pat_bound_idents vb.vb_pat with
    | [ id ] -> Ident.name id
    | _ ->
        (* [let () = ...] module-init code: an anonymous, unreferencable
           node so unsafe accesses inside it are still audited *)
        let line, _ = line_col vb.vb_pat.pat_loc in
        Printf.sprintf "(init:%d)" line
  in
  let qual = String.concat "." (path @ [ name ]) in
  let hot = find_attr Rules.attr_hot vb.vb_attributes <> None in
  let acc = { a_allocs = []; a_unsafes = []; a_refs = []; a_errs = [] } in
  let suppress0 =
    match find_attr Rules.attr_alloc_ok vb.vb_attributes with
    | None -> false
    | Some a ->
        (match attr_reason a with
        | Some _ -> ()
        | None ->
            let line, col = line_col vb.vb_pat.pat_loc in
            acc.a_errs <-
              [
                Finding.make ~file ~line ~col ~rule:Finding.Alloc
                  "[@alloc_ok] without a justification; write [@alloc_ok \
                   \"why this allocation is acceptable\"]";
              ]);
        true
  in
  let covered0 =
    match find_attr Rules.attr_unsafe_invariant vb.vb_attributes with
    | None -> false
    | Some a ->
        (match attr_reason a with
        | Some _ -> ()
        | None ->
            let line, col = line_col vb.vb_pat.pat_loc in
            acc.a_errs <-
              Finding.make ~file ~line ~col ~rule:Finding.Unsafe
                "[@unsafe_invariant] without the invariant text; name the \
                 bounds argument, e.g. [@unsafe_invariant \"i < length a, \
                 checked by the caller\"]"
              :: acc.a_errs);
        true
  in
  let _, bound_all = collect_idents vb.vb_expr in
  walk_body ~aliases ~file ~path ~bound_all ~suppress0 ~covered0 acc
    vb.vb_expr;
  acc_fns :=
    {
      f_qual = qual;
      f_file = file;
      f_hot = hot;
      f_allocs = List.rev acc.a_allocs;
      f_unsafes = List.rev acc.a_unsafes;
      f_refs = List.rev acc.a_refs;
      f_errs = List.rev acc.a_errs;
    }
    :: !acc_fns

let rec walk_module_expr ~aliases ~file ~path acc_fns
    (me : Typedtree.module_expr) =
  match me.mod_desc with
  | Typedtree.Tmod_structure s -> walk_structure ~aliases ~file ~path acc_fns s
  | Typedtree.Tmod_functor (_, body) ->
      walk_module_expr ~aliases ~file ~path acc_fns body
  | Typedtree.Tmod_constraint (inner, _, _, _) ->
      walk_module_expr ~aliases ~file ~path acc_fns inner
  | _ -> ()

and walk_structure ~aliases ~file ~path acc_fns (str : Typedtree.structure) =
  List.iter
    (fun (item : Typedtree.structure_item) ->
      match item.str_desc with
      | Typedtree.Tstr_value (_, vbs) ->
          List.iter (collect_binding ~aliases ~file ~path acc_fns) vbs
      | Typedtree.Tstr_module mb -> (
          match mb.mb_id with
          | Some id ->
              walk_module_expr ~aliases ~file
                ~path:(path @ [ Ident.name id ])
                acc_fns mb.mb_expr
          | None -> walk_module_expr ~aliases ~file ~path acc_fns mb.mb_expr)
      | Typedtree.Tstr_recmodule mbs ->
          List.iter
            (fun (mb : Typedtree.module_binding) ->
              match mb.mb_id with
              | Some id ->
                  walk_module_expr ~aliases ~file
                    ~path:(path @ [ Ident.name id ])
                    acc_fns mb.mb_expr
              | None ->
                  walk_module_expr ~aliases ~file ~path acc_fns mb.mb_expr)
            mbs
      | Typedtree.Tstr_include i ->
          walk_module_expr ~aliases ~file ~path acc_fns i.incl_mod
      | _ -> ())
    str.str_items

let collect ~aliases ~file ~modname str =
  let acc_fns = ref [] in
  let path =
    match norm_component modname with "" -> [] | m -> [ m ]
  in
  walk_structure ~aliases ~file ~path acc_fns str;
  List.rev !acc_fns

(* ---- reachability ----------------------------------------------------- *)

(* BFS from the [@hot] roots; returns qual -> the root that first
   reached it (the "witness" named in propagated findings). First-come
   deterministic: nodes and their refs are visited in file order. *)
let reachable ~use_suppressed fns =
  let nodes = Hashtbl.create 256 in
  List.iter
    (fun f -> if not (Hashtbl.mem nodes f.f_qual) then Hashtbl.add nodes f.f_qual f)
    fns;
  let witness = Hashtbl.create 64 in
  let queue = Queue.create () in
  List.iter
    (fun f ->
      if f.f_hot && not (Hashtbl.mem witness f.f_qual) then begin
        Hashtbl.add witness f.f_qual f.f_qual;
        Queue.add f.f_qual queue
      end)
    fns;
  while not (Queue.is_empty queue) do
    let q = Queue.pop queue in
    let root = Hashtbl.find witness q in
    match Hashtbl.find_opt nodes q with
    | None -> ()
    | Some f ->
        List.iter
          (fun r ->
            if use_suppressed || not r.r_suppressed then
              match
                List.find_opt (fun c -> Hashtbl.mem nodes c) r.r_cands
              with
              | Some c when not (Hashtbl.mem witness c) ->
                  Hashtbl.add witness c root;
                  Queue.add c queue
              | _ -> ())
          f.f_refs
  done;
  witness

(* ---- unit-level uses (the unused-export family) ----------------------- *)

(* A unit's qualified name with dune's mangling undone and the library
   kept: "Mobile_network__Engine" -> "Mobile_network.Engine", the alias
   module "Obs__" -> "Obs". Unlike [normalize_qual], which drops the
   library so the call graph can match either spelling, this keeps
   [Obs.Registry] and [Experiments.Registry] apart. *)
let unit_qual name =
  let n = String.length name in
  let b = Buffer.create n in
  let i = ref 0 in
  while !i < n do
    if !i + 1 < n && name.[!i] = '_' && name.[!i + 1] = '_' then begin
      Buffer.add_char b '.';
      i := !i + 2
    end
    else begin
      Buffer.add_char b name.[!i];
      incr i
    end
  done;
  String.split_on_char '.' (Buffer.contents b)
  |> List.filter (fun c -> c <> "")
  |> String.concat "."

type unit_uses = {
  uu_unit : string;  (* the unit's [unit_qual] name *)
  uu_refs : string list;
      (* every value path it references, resolved to its qualified
         name, the unit's own values included *)
  uu_whole : string list;
      (* modules it uses whole: functor arguments, first-class packs and
         includes use every value of their signature *)
  uu_aliases : (string * string) list;
      (* the module aliases it declares, as qualified alias -> target,
         so that other units' paths through them resolve *)
}

let rec structure_of (me : Typedtree.module_expr) =
  match me.mod_desc with
  | Typedtree.Tmod_structure s -> Some s
  | Typedtree.Tmod_constraint (inner, _, _, _) -> structure_of inner
  | _ -> None

let unit_uses ~aliases ~modname str =
  let unit = unit_qual modname in
  let refs = ref [] and whole = ref [] and decls = ref [] in
  (* The unit's own values and submodules resolve as if each were an
     alias of its qualified name: a bare [f] in [module M = struct ...
     end] of unit [U] is [U.M.f]. A local variable stays a bare name,
     which no export matches. *)
  let scope = Hashtbl.copy aliases in
  let rec declare prefix (str : Typedtree.structure) =
    List.iter
      (fun (item : Typedtree.structure_item) ->
        match item.str_desc with
        | Typedtree.Tstr_value (_, vbs) ->
            List.iter
              (fun (vb : Typedtree.value_binding) ->
                List.iter
                  (fun id ->
                    Hashtbl.replace scope (Ident.unique_name id)
                      (prefix ^ "." ^ Ident.name id))
                  (Typedtree.pat_bound_idents vb.vb_pat))
              vbs
        | Typedtree.Tstr_module { mb_id = Some id; mb_expr; _ } -> (
            let path = prefix ^ "." ^ Ident.name id in
            match alias_target aliases mb_expr with
            | Some target -> decls := (path, unit_qual target) :: !decls
            | None ->
                Hashtbl.replace scope (Ident.unique_name id) path;
                Option.iter (declare path) (structure_of mb_expr))
        | _ -> ())
      str.str_items
  in
  declare unit str;
  let add_whole me =
    Option.iter
      (fun m -> whole := unit_qual m :: !whole)
      (alias_target scope me)
  in
  let default = Tast_iterator.default_iterator in
  let expr sub (e : Typedtree.expression) =
    (match e.exp_desc with
    | Typedtree.Texp_ident (p, _, _) ->
        refs := unit_qual (resolve scope p) :: !refs
    | Typedtree.Texp_pack me -> add_whole me
    | _ -> ());
    default.expr sub e
  in
  let module_expr sub (me : Typedtree.module_expr) =
    (match me.mod_desc with
    | Typedtree.Tmod_apply (_, arg, _) -> add_whole arg
    | _ -> ());
    default.module_expr sub me
  in
  let structure_item sub (item : Typedtree.structure_item) =
    (match item.str_desc with
    | Typedtree.Tstr_include i -> add_whole i.incl_mod
    | _ -> ());
    default.structure_item sub item
  in
  let it = { default with expr; module_expr; structure_item } in
  it.structure it str;
  {
    uu_unit = unit;
    uu_refs = List.rev !refs;
    uu_whole = List.rev !whole;
    uu_aliases = List.rev !decls;
  }
