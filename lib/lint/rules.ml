(* The repo-wide policy: which identifiers are hazards, which layers are
   allowed to use them, and the declared library dependency DAG.

   A "layer" is the first directory component(s) of a source path:
   ["lib/prng"], ["lib/obs"], ["bin"], ["bench"], ["test"], ... Layers
   not named in an allowlist get the strict default, so fixture code
   under [test/] trips every rule. *)

let layer_of_source path =
  match String.split_on_char '/' path with
  | "lib" :: sub :: _ :: _ -> Some ("lib/" ^ sub)
  | ("bin" | "bench" | "test" | "examples") :: _ ->
      Some (List.hd (String.split_on_char '/' path))
  | _ -> None

(* ---- determinism / concurrency ident groups ------------------------- *)

type group =
  | Rand  (* ambient PRNG: only lib/prng may own randomness *)
  | Clock  (* wall clocks: only lib/obs may read time *)
  | Hash_order  (* hash values and hash-order iteration *)
  | Conc  (* domains, atomics, locks: runtime + obs only *)
  | Io  (* Unix sockets/processes/fds: the service daemon only *)

let group_rule = function
  | Rand | Clock | Hash_order -> Finding.Determinism
  | Conc -> Finding.Concurrency
  | Io -> Finding.Io

let group_allowed_layers = function
  | Rand -> [ "lib/prng" ]
  | Clock -> [ "lib/obs" ]
  | Hash_order -> [ "lib/obs" ]
  | Conc -> [ "lib/runtime"; "lib/obs" ]
  | Io -> [ "lib/service" ]

let group_message group ident =
  match group with
  | Rand ->
      Printf.sprintf
        "%s is ambient randomness; draw from a Prng stream seeded per \
         (d, trial) instead (only lib/prng may own randomness)"
        ident
  | Clock ->
      Printf.sprintf
        "%s reads the wall clock; results must not depend on time (only \
         lib/obs may read clocks, via its monotonic stub)"
        ident
  | Hash_order ->
      Printf.sprintf
        "%s depends on hash/bucket order; iterate a sorted projection or \
         an array indexed by the key instead (allowed only in lib/obs)"
        ident
  | Conc ->
      Printf.sprintf
        "%s is a concurrency primitive; domains, atomics and locks live in \
         lib/runtime and lib/obs only — simulation layers stay sequential"
        ident
  | Io ->
      Printf.sprintf
        "%s is wire/process I/O; sockets and file descriptors live in \
         lib/service only — simulation layers stay pure so runs replay \
         from (seed, trial) alone"
        ident

let starts_with prefix s = String.length s >= String.length prefix
  && String.sub s 0 (String.length prefix) = prefix

(* Read-only domain introspection that cannot race or fork control flow. *)
let benign_conc =
  [
    "Stdlib.Domain.recommended_domain_count";
    "Stdlib.Domain.self";
    "Stdlib.Domain.cpu_relax";
    "Stdlib.Domain.is_main_domain";
  ]

let classify_ident name =
  if starts_with "Stdlib.Random." name then Some Rand
  else if
    List.mem name
      [ "Stdlib.Sys.time"; "Unix.gettimeofday"; "Unix.time"; "Unix.times" ]
  then Some Clock
  else if
    List.mem name
      [
        "Stdlib.Hashtbl.hash";
        "Stdlib.Hashtbl.seeded_hash";
        "Stdlib.Hashtbl.hash_param";
        "Stdlib.Hashtbl.iter";
        "Stdlib.Hashtbl.fold";
      ]
  then Some Hash_order
  else if
    List.exists
      (fun p -> starts_with p name)
      [
        "Stdlib.Domain.";
        "Stdlib.Atomic.";
        "Stdlib.Mutex.";
        "Stdlib.Condition.";
        "Stdlib.Semaphore.";
      ]
    && not (List.mem name benign_conc)
  then Some Conc
  else if starts_with "Unix." name then Some Io
  else None

let group_allowed group layer =
  List.mem layer (group_allowed_layers group)

(* ---- polymorphic compare --------------------------------------------- *)

let poly_compare_prims =
  [
    "Stdlib.compare";
    "Stdlib.=";
    "Stdlib.<>";
    "Stdlib.<";
    "Stdlib.>";
    "Stdlib.<=";
    "Stdlib.>=";
  ]

let is_poly_compare name = List.mem name poly_compare_prims

(* Polymorphic min/max: unlike the comparison operators (specialised to
   float primitives when applied at a known float type), these stay
   ordinary calls, so a float instantiation boxes. *)
let is_minmax name =
  String.equal name "Stdlib.min" || String.equal name "Stdlib.max"

(* ---- alloc discipline ------------------------------------------------- *)

(* The attribute vocabulary the alloc/unsafe passes react to. All three
   attach to value bindings ([let[@hot] f x = ...]); [alloc_ok] also
   attaches to a single expression ([(e [@alloc_ok "reason"])]). *)
let attr_hot = "hot"
let attr_alloc_ok = "alloc_ok"
let attr_unsafe_invariant = "unsafe_invariant"

(* [val f : ... [@@seam "reason"]] in a .mli: an export kept only for a
   user outside the scanned tree, which the reason names. *)
let attr_seam = "seam"

let contains ~sub s =
  let nl = String.length sub and hl = String.length s in
  let rec go i = i + nl <= hl && (String.sub s i nl = sub || go (i + 1)) in
  go 0

(* Stdlib entry points that allocate on every call. Curated, not
   exhaustive: the structural rules (tuple/record/constructor, closure
   capture, ref, partial application, boxed float) already catch
   user-level allocation; this list names the opaque ones. Int32/Int64
   conversions and Bigarray int32 loads/stores are deliberately absent —
   cmmgen unboxes the [Int32.to_int (Bigarray.Array1.unsafe_get v i)]
   idiom the SoA data plane is built on (measured: the headline probe
   holds ~2 minor words/step with them in the per-agent loop). *)
let printf_prefixes =
  [ "Stdlib.Printf."; "Stdlib.Format."; "Stdlib.Scanf."; "Stdlib.Buffer." ]

let is_printf_ident name = List.exists (fun p -> starts_with p name) printf_prefixes

let alloc_idents =
  [
    "Stdlib.^"; "Stdlib.^^"; "Stdlib.@";
    "Stdlib.string_of_int"; "Stdlib.string_of_float";
    "Stdlib.string_of_bool"; "Stdlib.float_of_string";
    "Stdlib.Int.to_string"; "Stdlib.Float.to_string";
    "Stdlib.Array.make"; "Stdlib.Array.create_float"; "Stdlib.Array.init";
    "Stdlib.Array.make_matrix"; "Stdlib.Array.append"; "Stdlib.Array.concat";
    "Stdlib.Array.sub"; "Stdlib.Array.copy"; "Stdlib.Array.of_list";
    "Stdlib.Array.to_list"; "Stdlib.Array.split"; "Stdlib.Array.combine";
    "Stdlib.Array.map"; "Stdlib.Array.mapi"; "Stdlib.Array.map_inplace";
    "Stdlib.Array.to_seq"; "Stdlib.Array.of_seq";
    "Stdlib.List.init"; "Stdlib.List.cons"; "Stdlib.List.map";
    "Stdlib.List.mapi"; "Stdlib.List.rev_map"; "Stdlib.List.append";
    "Stdlib.List.rev_append"; "Stdlib.List.concat"; "Stdlib.List.flatten";
    "Stdlib.List.rev"; "Stdlib.List.sort"; "Stdlib.List.stable_sort";
    "Stdlib.List.fast_sort"; "Stdlib.List.sort_uniq"; "Stdlib.List.filter";
    "Stdlib.List.filter_map"; "Stdlib.List.partition"; "Stdlib.List.split";
    "Stdlib.List.combine"; "Stdlib.List.merge"; "Stdlib.List.of_seq";
    "Stdlib.List.to_seq";
    "Stdlib.String.make"; "Stdlib.String.init"; "Stdlib.String.sub";
    "Stdlib.String.concat"; "Stdlib.String.cat";
    "Stdlib.String.split_on_char"; "Stdlib.String.map";
    "Stdlib.String.mapi"; "Stdlib.String.trim"; "Stdlib.String.escaped";
    "Stdlib.String.uppercase_ascii"; "Stdlib.String.lowercase_ascii";
    "Stdlib.Bytes.make"; "Stdlib.Bytes.create"; "Stdlib.Bytes.init";
    "Stdlib.Bytes.sub"; "Stdlib.Bytes.copy"; "Stdlib.Bytes.extend";
    "Stdlib.Bytes.concat"; "Stdlib.Bytes.cat"; "Stdlib.Bytes.of_string";
    "Stdlib.Bytes.to_string"; "Stdlib.Bytes.sub_string";
    "Stdlib.Hashtbl.create"; "Stdlib.Hashtbl.add"; "Stdlib.Hashtbl.replace";
    "Stdlib.Hashtbl.copy"; "Stdlib.Hashtbl.of_seq";
    "Stdlib.Queue.create"; "Stdlib.Queue.add"; "Stdlib.Queue.push";
    "Stdlib.Stack.create"; "Stdlib.Stack.push";
    "Stdlib.Option.map"; "Stdlib.Option.bind"; "Stdlib.Option.some";
    "Stdlib.Option.to_list"; "Stdlib.Option.to_result";
    "Stdlib.Gc.stat"; "Stdlib.Gc.quick_stat"; "Stdlib.Gc.counters";
    "Stdlib.Bigarray.Array1.create"; "Stdlib.Bigarray.Array2.create";
    "Stdlib.Bigarray.Array3.create"; "Stdlib.Bigarray.Genarray.create";
    "Stdlib.Bigarray.Array1.sub"; "Stdlib.Bigarray.Array1.slice";
  ]

let alloc_prefixes = [ "Stdlib.Seq."; "Stdlib.Result."; "Stdlib.Lazy.from_" ]

let is_alloc_ident name =
  List.mem name alloc_idents
  || List.exists (fun p -> starts_with p name) alloc_prefixes

let is_ref_ident name = String.equal name "Stdlib.ref"

(* ---- unsafe-access audit ---------------------------------------------- *)

(* An unsafe access is any Stdlib identifier carrying an [unsafe_]
   segment: Array.unsafe_get/set, Bigarray.Array1.unsafe_*, and the
   String/Bytes variants. *)
let is_unsafe_ident name =
  starts_with "Stdlib." name && contains ~sub:".unsafe_" name

(* Source files allowed to contain unsafe accesses at all. Each access
   must additionally sit inside a binding carrying
   [@unsafe_invariant "..."] naming the bounds argument. The two
   fixture entries exist so the missing-attribute diagnostic and its
   clean counterpart can be golden-tested from inside an audited file. *)
let audited_unsafe =
  [
    "lib/spatial/spatial.ml";
    "lib/dsu/dsu.ml";
    "lib/walk/walk.ml";
    "lib/core/exchange.ml";
    "lib/core/grid_space.ml";
    "lib/obs/series.ml";
    "lib/prng/prng.ml";
    "test/lint_fixtures/fx_unsafe_no_invariant.ml";
    "test/lint_fixtures/fx_unsafe_ok.ml";
  ]

let is_audited_unsafe file = List.mem file audited_unsafe

(* ---- layering --------------------------------------------------------- *)

(* dir under the repo root -> (dune library name, allowed in-repo deps).
   ROADMAP.md mirrors this table; extend both together when adding a
   library. [bin], [bench], [test] and [examples] may depend on
   anything, so they are not listed. *)
let dag =
  [
    ("lib/prng", ("prng", []));
    ("lib/dsu", ("dsu", []));
    ("lib/obs", ("obs", []));
    ("lib/grid", ("grid", [ "prng" ]));
    ("lib/stats", ("stats", [ "prng" ]));
    ("lib/spatial", ("spatial", [ "grid" ]));
    ("lib/walk", ("walk", [ "prng"; "grid" ]));
    ("lib/runtime", ("runtime", [ "obs" ]));
    ("lib/lint", ("lint", [ "obs"; "runtime" ]));
    ("lib/faults", ("faults", [ "prng"; "obs" ]));
    ( "lib/core",
      ( "mobile_network",
        [ "obs"; "prng"; "grid"; "dsu"; "spatial"; "walk"; "stats"; "faults" ]
      ) );
    ( "lib/domain",
      ( "barriers",
        [ "obs"; "prng"; "grid"; "dsu"; "spatial"; "walk"; "mobile_network" ]
      ) );
    ( "lib/continuum",
      ("continuum", [ "obs"; "prng"; "grid"; "spatial"; "mobile_network" ]) );
    ("lib/render", ("render", [ "grid"; "mobile_network"; "barriers" ]));
    ( "lib/experiments",
      ( "experiments",
        [ "obs"; "runtime"; "prng"; "grid"; "dsu"; "spatial"; "walk"; "stats";
          "mobile_network"; "barriers"; "continuum"; "faults" ] ) );
    ("lib/scenario", ("scenario", [ "obs"; "walk"; "faults"; "mobile_network" ]));
    ( "lib/service",
      ( "service",
        [ "obs"; "prng"; "runtime"; "scenario"; "faults"; "walk"; "grid";
          "mobile_network"; "barriers"; "continuum" ] ) );
  ]

let internal_libs = List.map (fun (_, (name, _)) -> name) dag
