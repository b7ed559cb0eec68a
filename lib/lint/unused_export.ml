(* The unused-export rule: a value an interface exports that no other
   compilation unit in the scanned tree references. It works on the
   saved typed trees:

   - what a unit exports comes from its [.cmti]: every [val] and
     [external] of the signature, nested modules included (a functor's
     result signature is not walked: its values are reached through
     instances, [Engine.Make (Grid_space).step], not through the unit);
   - what a unit uses comes from its [.cmt] ([Callgraph.unit_uses]):
     every value path, resolved through the unit's own module aliases,
     then through the aliases other units declare
     ([Continuum.Space = Continuum_space]); a module passed whole (a
     functor argument, a first-class pack, an include) uses every value
     of its signature.

   An export kept only for a user outside the scanned tree (a test
   oracle, the benchmark, an example) carries [[@@seam "reason"]], the
   reason naming that user. A seam needs its reason, and a seam on a
   value the tree does reference is stale: both are findings.

   [respect_seams:false] is the canary mode: it reports the seamed
   values too, proving each seam is load-bearing. *)

type seam = No_seam | Seam | Seam_without_reason

type export = {
  e_key : string;  (* e.g. "Grid.Tessellation.cells" *)
  e_unit : string;  (* the exporting unit, e.g. "Grid" *)
  e_file : string;
  e_line : int;
  e_col : int;
  e_seam : seam;
}

let seam_of attrs =
  match Callgraph.find_attr Rules.attr_seam attrs with
  | None -> No_seam
  | Some a -> (
      match Callgraph.attr_reason a with
      | Some _ -> Seam
      | None -> Seam_without_reason)

(* Every value of a [.cmti]'s signature, in declaration order. *)
let exports ~file ~modname (sg : Typedtree.signature) =
  let unit = Callgraph.unit_qual modname in
  let rec walk prefix acc (items : Types.signature) =
    List.fold_left
      (fun acc item ->
        match item with
        | Types.Sig_value (id, vd, _) ->
            let line, col = Callgraph.line_col vd.Types.val_loc in
            {
              e_key = prefix ^ "." ^ Ident.name id;
              e_unit = unit;
              e_file = file;
              e_line = line;
              e_col = col;
              e_seam = seam_of vd.Types.val_attributes;
            }
            :: acc
        | Types.Sig_module (id, _, md, _, _) -> (
            match md.Types.md_type with
            | Types.Mty_signature s ->
                walk (prefix ^ "." ^ Ident.name id) acc s
            | _ -> acc)
        | _ -> acc)
      acc items
  in
  List.rev (walk unit [] sg.Typedtree.sig_type)

let starts_with prefix s =
  String.length s >= String.length prefix
  && String.sub s 0 (String.length prefix) = prefix

(* Rewrite the longest dotted prefix of [name] that a unit declares as
   a module alias, until none does (the hop bound guards a cycle). *)
let through_aliases table name =
  let rec go hops name =
    let rec try_at i =
      if i <= 0 then name
      else
        match Hashtbl.find_opt table (String.sub name 0 i) with
        | Some target when hops > 0 ->
            go (hops - 1) (target ^ String.sub name i (String.length name - i))
        | _ ->
            let dot = String.rindex_from_opt name (i - 1) '.' in
            try_at (Option.value ~default:0 dot)
    in
    try_at (String.length name)
  in
  go 8 name

(* Each export with the other units that reference it (sorted), and
   whether its own unit does. *)
let users exports (uses : Callgraph.unit_uses list) =
  let table = Hashtbl.create 16 in
  List.iter
    (fun (u : Callgraph.unit_uses) ->
      List.iter (fun (a, t) -> Hashtbl.replace table a t) u.uu_aliases)
    uses;
  let refs = Hashtbl.create 4096 and wholes = ref [] in
  List.iter
    (fun (u : Callgraph.unit_uses) ->
      List.iter
        (fun r -> Hashtbl.add refs (through_aliases table r) u.uu_unit)
        u.uu_refs;
      List.iter
        (fun m ->
          wholes := (u.uu_unit, through_aliases table m ^ ".") :: !wholes)
        u.uu_whole)
    uses;
  List.map
    (fun e ->
      let units =
        Hashtbl.find_all refs e.e_key
        @ List.filter_map
            (fun (unit, m) -> if starts_with m e.e_key then Some unit else None)
            !wholes
      in
      ( e,
        List.sort_uniq String.compare
          (List.filter (fun u -> not (String.equal u e.e_unit)) units),
        List.mem e.e_unit units ))
    exports

let check ?(respect_seams = true) exports uses =
  let finding e msg =
    Finding.make ~file:e.e_file ~line:e.e_line ~col:e.e_col
      ~rule:Finding.Unused_export msg
  in
  let unused e inside =
    if inside then
      finding e
        (Printf.sprintf
           "%s is exported but only its own unit uses it; drop it from the \
            interface"
           e.e_key)
    else
      finding e
        (Printf.sprintf
           "%s is exported but no other unit in the scanned tree references \
            it; delete it, or keep it with [@@seam \"the user outside lib/ \
            and bin/\"]"
           e.e_key)
  in
  List.filter_map
    (fun (e, by, inside) ->
      match (e.e_seam, by) with
      | Seam_without_reason, _ ->
          Some
            (finding e
               (Printf.sprintf
                  "[@@seam] on %s without a reason; name the user outside \
                   lib/ and bin/, e.g. [@@seam \"test_walk's oracle\"]"
                  e.e_key))
      | Seam, unit :: _ ->
          Some
            (finding e
               (Printf.sprintf
                  "stale [@@seam]: %s is referenced by %s; drop the \
                   attribute"
                  e.e_key unit))
      | Seam, [] -> if respect_seams then None else Some (unused e inside)
      | No_seam, [] -> Some (unused e inside)
      | No_seam, _ :: _ -> None)
    (users exports uses)
