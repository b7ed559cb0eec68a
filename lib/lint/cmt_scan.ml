(* Typed-AST pass over dune's .cmt output (compiler-libs ships the
   reader), so the linter sees resolved paths and instantiated types,
   not text: [compare] below means [Stdlib.compare] even under local
   opens, and its type at the use site is the monomorphic instantiation.
   A path through a module alias ([module R = Random] ... [R.int]) is
   kept as written, so every classified name goes through
   [Callgraph.resolve] first.

   No environment reconstruction is attempted: every judgement is
   structural on the saved typedtree. The cost is that type aliases
   (e.g. [type pos = int * int]) hide their expansion from the
   poly-compare rule; the benefit is that scanning never needs the
   original compile environment, so it works on any cmt in isolation. *)

let src_of_cmt cmt =
  match cmt.Cmt_format.cmt_sourcefile with
  | Some s -> s
  | None -> "<unknown>"

(* ---- poly-compare type classification ------------------------------- *)

type cmp_type =
  | Generic  (* type variable: a genuinely polymorphic context; skip *)
  | Immediate of string  (* int/bool/char/unit: fine when applied *)
  | Stringy  (* string: fine when applied, String.compare as closure *)
  | Floaty  (* float: NaN-hazard comparator, Float.compare instead *)
  | Hazard of string * string  (* (description, suggestion) *)
  | Other  (* user/abstract type: can't judge without its declaration *)

let rec classify_type ty =
  match Types.get_desc ty with
  | Types.Tvar _ | Types.Tunivar _ -> Generic
  | Types.Tpoly (t, _) -> classify_type t
  | Types.Ttuple _ ->
      Hazard ("a tuple", "a field-by-field monomorphic comparison")
  | Types.Tarrow _ ->
      Hazard ("a function", "anything else: comparing closures raises")
  | Types.Tconstr (p, _, _) ->
      if Path.same p Predef.path_int then Immediate "Int"
      else if Path.same p Predef.path_bool then Immediate "Bool"
      else if Path.same p Predef.path_char then Immediate "Char"
      else if Path.same p Predef.path_unit then Immediate "Unit"
      else if Path.same p Predef.path_float then Floaty
      else if Path.same p Predef.path_string then Stringy
      else if Path.same p Predef.path_bytes then
        Hazard ("bytes", "Bytes.compare")
      else if Path.same p Predef.path_array then
        Hazard ("an array", "an explicit element-wise loop")
      else Other
  | _ -> Other

let first_arg_type ty =
  match Types.get_desc ty with
  | Types.Tarrow (_, t1, _, _) -> Some t1
  | _ -> None

(* A tiny structural type printer, only for messages, never for
   judgements. Printtyp would render these more faithfully but keeps
   global naming state, and the scan runs files in parallel across
   Runtime.Pool workers. *)
let rec type_to_string ty =
  match Types.get_desc ty with
  | Types.Tvar _ | Types.Tunivar _ -> "'_"
  | Types.Tpoly (t, _) -> type_to_string t
  | Types.Ttuple _ -> "a tuple"
  | Types.Tarrow (_, _, _, _) -> "a function"
  | Types.Tconstr (p, [ arg ], _) ->
      type_to_string arg ^ " " ^ Path.name p
  | Types.Tconstr (p, _, _) -> Path.name p
  | _ -> "<abstract>"

(* [applied] is true when the primitive is the head of an application
   ([compare a b]), false when it escapes as a first-class closure
   ([Array.sort compare ...]). A closure is never specialised by the
   compiler, so even an [int] instantiation pays a [caml_compare] call
   per element — and a [float] one drags NaN hazards into sorts. *)
let check_poly_compare ~applied name ty =
  match first_arg_type ty with
  | None -> None
  | Some t1 -> (
      let shown () = type_to_string t1 in
      let is_compare = String.equal name "Stdlib.compare" in
      match classify_type t1 with
      | Generic -> None
      | Hazard (what, instead) ->
          Some
            (Printf.sprintf
               "polymorphic %s at type %s (%s); use %s"
               (if is_compare then "compare" else "comparison")
               (shown ()) what instead)
      | Floaty ->
          if is_compare || not applied then
            Some
              (Printf.sprintf
                 "polymorphic %s instantiated at float; use Float.compare \
                  (NaN-total, compiled to a primitive)"
                 (if applied then "compare" else "comparator"))
          else None
      | Immediate m ->
          if not applied then
            Some
              (Printf.sprintf
                 "polymorphic comparator passed as a closure at type %s; \
                  use %s.compare (a closure is never specialised, every \
                  call goes through caml_compare)"
                 (shown ()) m)
          else if is_compare then
            Some
              (Printf.sprintf
                 "Stdlib.compare applied at type %s; use %s.compare"
                 (shown ()) m)
          else None
      | Stringy ->
          if not applied then
            Some
              "polymorphic comparator passed as a closure at type string; \
               use String.compare"
          else if is_compare then
            Some "Stdlib.compare applied at type string; use String.compare"
          else None
      | Other ->
          if not applied then
            Some
              (Printf.sprintf
                 "polymorphic comparator passed as a closure at type %s; \
                  define a monomorphic compare for this type"
                 (shown ()))
          else None)

(* ---- the traversal ---------------------------------------------------- *)

let scan_structure ~aliases ~file str =
  let findings = ref [] in
  let layer = Rules.layer_of_source file in
  let add loc rule message =
    let p = loc.Location.loc_start in
    findings :=
      Finding.make ~file ~line:p.Lexing.pos_lnum
        ~col:(p.Lexing.pos_cnum - p.Lexing.pos_bol)
        ~rule message
      :: !findings
  in
  let check_ident loc path =
    let name = Callgraph.resolve aliases path in
    (match Rules.classify_ident name with
    | Some group ->
        let allowed =
          match layer with
          | Some l -> Rules.group_allowed group l
          | None -> false
        in
        if not allowed then
          add loc (Rules.group_rule group) (Rules.group_message group name)
    | None -> ())
  in
  let check_prim ~applied loc path ty =
    let name = Callgraph.resolve aliases path in
    if Rules.is_poly_compare name then
      match check_poly_compare ~applied name ty with
      | Some msg -> add loc Finding.Poly_compare msg
      | None -> ()
  in
  let default = Tast_iterator.default_iterator in
  let expr sub (e : Typedtree.expression) =
    match e.exp_desc with
    | Typedtree.Texp_apply
        (({ exp_desc = Typedtree.Texp_ident (p, _, _); _ } as f), args)
      when Rules.is_poly_compare (Callgraph.resolve aliases p) ->
        check_prim ~applied:true f.exp_loc p f.exp_type;
        List.iter (fun (_, a) -> Option.iter (sub.Tast_iterator.expr sub) a)
          args
    | Typedtree.Texp_ident (p, _, _) ->
        check_ident e.exp_loc p;
        check_prim ~applied:false e.exp_loc p e.exp_type
    | _ -> default.expr sub e
  in
  let it = { default with expr } in
  it.structure it str;
  !findings

(* ---- full per-file scan ----------------------------------------------- *)

(* One file's scan: the immediate single-file findings (determinism,
   concurrency, poly-compare, io) plus the call-graph nodes the
   cross-file alloc/unsafe passes consume. *)
type file_scan = {
  sf_findings : Finding.t list;
  sf_fns : Callgraph.fn list;
}

let empty_scan = { sf_findings = []; sf_fns = [] }

(* Scan one [.cmt] into its per-file half. Interfaces and generated
   module aliases yield an empty scan. Raises on unreadable files. *)
let scan_file_full path =
  let cmt = Cmt_format.read_cmt path in
  let file = src_of_cmt cmt in
  (* dune-generated module aliases ([*.ml-gen]) carry no user code *)
  if Filename.check_suffix file ".ml-gen" then empty_scan
  else
    match cmt.Cmt_format.cmt_annots with
    | Cmt_format.Implementation str ->
        let aliases = Callgraph.aliases str in
        {
          sf_findings = scan_structure ~aliases ~file str;
          sf_fns =
            Callgraph.collect ~aliases ~file
              ~modname:cmt.Cmt_format.cmt_modname str;
        }
    | _ -> empty_scan

(* Scans are independent per file, so they fan out through the
   deterministic domain pool; results come back in submission order, so
   the merged node list (and with it every alloc/unsafe finding) is
   byte-identical at any job count. *)
let scan_files ?(jobs = 1) paths =
  if jobs <= 1 then List.map scan_file_full paths
  else
    Runtime.Pool.with_pool ~jobs (fun pool ->
        Runtime.Pool.map pool ~f:(fun _ p -> scan_file_full p) paths)

(* The cross-file phase: merge the per-file scans, then resolve the
   call graph over the whole set. The respect flags are the canary
   mode (see Alloc / Unsafe_audit). *)
let analyze ?(respect_alloc_ok = true) ?(respect_unsafe_invariants = true)
    scans =
  let fns = List.concat_map (fun s -> s.sf_fns) scans in
  List.concat_map (fun s -> s.sf_findings) scans
  @ Alloc.check ~respect_alloc_ok fns
  @ Unsafe_audit.check ~respect_invariants:respect_unsafe_invariants fns

let scan_file path = analyze [ scan_file_full path ]

(* ---- cmt discovery ---------------------------------------------------- *)

let rec find_cmts acc dir =
  let entries = Sys.readdir dir in
  Array.sort String.compare entries;
  Array.fold_left
    (fun acc entry ->
      let path = Filename.concat dir entry in
      if Sys.is_directory path then find_cmts acc path
      else if Filename.check_suffix entry ".cmt" then path :: acc
      else acc)
    acc entries

let find_cmts dir = List.rev (find_cmts [] dir)

let tree_cmts ~root ~subdirs =
  List.concat_map
    (fun sub ->
      let dir = Filename.concat root sub in
      if Sys.file_exists dir && Sys.is_directory dir then find_cmts dir
      else [])
    subdirs

let scan_tree ?jobs ?respect_alloc_ok ?respect_unsafe_invariants ~root
    ~subdirs () =
  analyze ?respect_alloc_ok ?respect_unsafe_invariants
    (scan_files ?jobs (tree_cmts ~root ~subdirs))
