(** Typed-AST scan of dune-emitted [.cmt] files via compiler-libs.

    Judgements are structural on the saved typedtree (resolved paths +
    instantiated types); no compile environment is reconstructed, so a
    cmt can be scanned in isolation. Known limitation: type aliases
    (e.g. [type pos = int * int]) are not expanded, and comparison
    through functor instances (e.g. [Hashtbl.Make(K).iter]) resolves to
    a local path the ident rules do not match. *)

type file_scan = {
  sf_findings : Finding.t list;
      (** single-file findings (determinism/concurrency/poly-compare/io) *)
  sf_fns : Callgraph.fn list;
      (** call-graph nodes for the cross-file alloc/unsafe passes *)
  sf_exports : Unused_export.export list;
      (** a [.cmti]'s exported values, for the unused-export pass *)
  sf_uses : Callgraph.unit_uses option;
      (** a [.cmt]'s references, for the unused-export pass *)
}

val scan_files : ?jobs:int -> string list -> file_scan list
(** Per-file scans fanned out over a [Runtime.Pool] of [jobs] workers
    (default 1 = inline). Results are in submission order, so every
    downstream report is byte-identical at any job count. *)

val analyze :
  ?respect_alloc_ok:bool ->
  ?respect_unsafe_invariants:bool ->
  ?respect_seams:bool ->
  file_scan list ->
  Finding.t list
(** Merge per-file scans and run the cross-file passes: alloc
    discipline and the unsafe audit over the combined call graph, and
    unused exports over every scanned [.cmti] against every scanned
    [.cmt]. The respect flags (default true) are the canary mode:
    [false] reports sites whose [@alloc_ok] / [@unsafe_invariant] /
    [@@seam] justifications would otherwise suppress them, proving
    each annotation is load-bearing. *)

val scan_file : string -> Finding.t list [@@seam "test_lint: the fixture scans"]
(** Scan one cmt with every rule
    family (the alloc/unsafe call graph is local to that file).
    Findings carry the source path recorded in the cmt, relative to
    the build root (e.g. [lib/stats/stats.ml]). *)

val find_cmts : string -> string list
(** All [*.cmt] and [*.cmti] under a directory, depth-first, sorted
    within each directory — deterministic discovery order. *)

val tree_cmts : root:string -> subdirs:string list -> string list
(** The cmt set under each existing [root/subdir], in discovery order.
    Empty when the tree has not been built (callers must treat that as
    an error, not a clean scan). *)

val scan_tree :
  ?jobs:int ->
  ?respect_alloc_ok:bool ->
  ?respect_unsafe_invariants:bool ->
  ?respect_seams:bool ->
  root:string ->
  subdirs:string list ->
  unit ->
  Finding.t list [@@seam "test_lint: the clean-tree and canary scans"]
(** [scan_tree ~root ~subdirs ()] scans every cmt under each existing
    [root/subdir] as one tree: all rule families, one call graph. *)
