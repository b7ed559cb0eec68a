(* Scenario compiler: positioned parse -> validate -> desugar. Each
   phase appends to one diagnostics list (source order) so a malformed
   file reports every independent problem at once. *)

module Pjson = Obs.Pjson
module Config = Mobile_network.Config

type compiled = {
  ast : Ast.t;
  hash : string;
  cells : Ast.cell list;
  seed : int;
  trials : int;
}

let total_runs c = List.length c.cells * c.trials

(* Diagnostics accumulate with their positions; a field that fails to
   read keeps its default so later fields still get checked. [finish]
   sorts by position, so a file's problems report in source order no
   matter which phase (or record-field evaluation order) found them. *)
type ctx = {
  filename : string option;
  mutable errs : (Pjson.pos * string) list;
}

let record ctx pos msg = ctx.errs <- (pos, msg) :: ctx.errs

let diag ctx pos msg =
  record ctx pos (Pjson.format ?filename:ctx.filename pos ("scenario: " ^ msg))

let known_fields =
  [
    "name"; "space"; "side"; "agents"; "radius"; "protocol"; "kernel";
    "exchange"; "torus"; "seed"; "trials"; "max_steps"; "faults"; "plan";
    "los_blocking"; "density"; "rc_mult"; "sigma_frac";
  ]

(* A reader's error becomes a diagnostic; the caller keeps its default. *)
let read ctx r =
  Result.iter_error (fun (pos, msg) -> diag ctx pos msg) r;
  Result.to_option r

(* A string spelled for [of_string], whose error sits at the value. *)
let parsed of_string name (j : Pjson.t) =
  Result.bind (Pjson.string name j) (fun s ->
      Result.map_error (fun msg -> (j.Pjson.pos, msg)) (of_string s))

(* An axis field: a scalar or a non-empty list of scalars, each read by
   [read_one] and reported at its own position. *)
let read_axis ctx name default read_one (j : Pjson.t) =
  match j.Pjson.v with
  | Pjson.List [] ->
      diag ctx j.Pjson.pos (Printf.sprintf "%s axis must not be empty" name);
      default
  | Pjson.List items ->
      let vals = List.filter_map (fun v -> read ctx (read_one name v)) items in
      if List.compare_lengths vals items = 0 then vals else default
  | _ ->
      Option.fold ~none:default
        ~some:(fun v -> [ v ])
        (read ctx (read_one name j))

let parse_pjson ctx (j : Pjson.t) =
  (match j.Pjson.v with
  | Pjson.Assoc _ -> ()
  | _ -> diag ctx j.Pjson.pos "a scenario file must be a JSON object");
  List.iter
    (fun (k, pos) ->
      diag ctx pos
        (Printf.sprintf "unknown field %S (expected one of: %s)" k
           (String.concat ", " known_fields)))
    (Pjson.unknown_keys known_fields j);
  let d = Ast.default in
  let field name default read_value =
    match Pjson.member name j with
    | Some v -> Option.value (read ctx (read_value name v)) ~default
    | None -> default
  in
  let axis name default read_one =
    match Pjson.member name j with
    | Some v -> read_axis ctx name default read_one v
    | None -> default
  in
  let some_number name v = Result.map Option.some (Pjson.number name v) in
  {
    Ast.name = field "name" d.Ast.name Pjson.string;
    space = field "space" d.Ast.space (parsed Ast.space_of_string);
    sides = axis "side" d.Ast.sides Pjson.int;
    agents = axis "agents" d.Ast.agents Pjson.int;
    radii = axis "radius" d.Ast.radii Pjson.int;
    protocols = axis "protocol" d.Ast.protocols (parsed Ast.protocol_of_string);
    kernels = axis "kernel" d.Ast.kernels (parsed Ast.kernel_of_string);
    exchange = field "exchange" d.Ast.exchange (parsed Ast.exchange_of_string);
    torus = field "torus" d.Ast.torus Pjson.bool;
    seed = field "seed" d.Ast.seed Pjson.int;
    trials = field "trials" d.Ast.trials Pjson.int;
    max_steps = field "max_steps" d.Ast.max_steps (Pjson.nullable Pjson.int);
    faults =
      (match Pjson.member "faults" j with
      | None -> d.Ast.faults
      | Some v -> (
          match Faults.Plan.of_pjson ?filename:ctx.filename v with
          | Ok p -> p
          | Error msg ->
              (* already formatted with file:line:col by Faults *)
              record ctx v.Pjson.pos msg;
              d.Ast.faults));
    plan = field "plan" d.Ast.plan (parsed Ast.plan_of_string);
    los_blocking = field "los_blocking" d.Ast.los_blocking Pjson.bool;
    density = field "density" d.Ast.density some_number;
    rc_mult = field "rc_mult" d.Ast.rc_mult some_number;
    sigma_frac = field "sigma_frac" d.Ast.sigma_frac Pjson.number;
  }

(* --- validation --------------------------------------------------------- *)

(* [where] anchors a semantic diagnostic: the field's value position
   when the field was written, else the top of the file. *)
let validate_ast ctx (src : Pjson.t option) (ast : Ast.t) =
  let where name =
    match src with
    | Some j -> (
        match Pjson.member name j with
        | Some v -> v.Pjson.pos
        | None -> j.Pjson.pos)
    | None -> Pjson.no_pos
  in
  let check_axis name vals ok msg =
    if not (List.for_all ok vals) then diag ctx (where name) msg
  in
  check_axis "side" ast.Ast.sides (fun s -> s > 0) "side must be positive";
  check_axis "agents" ast.Ast.agents (fun k -> k > 0)
    "agents must be positive";
  check_axis "radius" ast.Ast.radii (fun r -> r >= 0)
    "radius must be non-negative";
  (* sizes beyond the engine's limits (Config.max_* say why) would
     overflow an index or an allocation: reject them before any cell is
     built *)
  let check_max name vals hi =
    check_axis name vals (fun v -> v <= hi)
      (Printf.sprintf "%s must be at most %d" name hi)
  in
  check_max "side" ast.Ast.sides Config.max_side;
  check_max "agents" ast.Ast.agents Config.max_population;
  check_max "radius" ast.Ast.radii Config.max_radius;
  (* a grid or floor-plan index sized by side and radius must fit in
     memory too; report the first (side, radius) that does not, at the
     radius, which is what a user raises to fix it *)
  (match ast.Ast.space with
  | Ast.Continuum -> ()
  | Ast.Grid | Ast.Domain ->
      if ctx.errs = [] then
        List.concat_map
          (fun side -> List.map (fun radius -> (side, radius)) ast.Ast.radii)
          ast.Ast.sides
        |> List.find_map (fun (side, radius) ->
               match Config.check_index ~side ~torus:ast.Ast.torus ~radius with
               | Ok () -> None
               | Error msg -> Some msg)
        |> Option.iter (diag ctx (where "radius")));
  (* a floor plan allocates per grid node, so its node count obeys the
     index's slot bound too; reported at the side *)
  (match ast.Ast.space with
  | Ast.Grid | Ast.Continuum -> ()
  | Ast.Domain ->
      if ctx.errs = [] then
        List.find_opt
          (fun side -> side * side > Config.max_index_slots)
          ast.Ast.sides
        |> Option.iter (fun side ->
               diag ctx (where "side")
                 (Printf.sprintf
                    "a floor plan of side %d has %d nodes; at most %d fit \
                     (use a smaller side)"
                    side (side * side) Config.max_index_slots)));
  if ast.Ast.trials < 1 then diag ctx (where "trials") "trials must be >= 1";
  (match ast.Ast.max_steps with
  | Some m when m <= 0 -> diag ctx (where "max_steps") "max_steps must be positive"
  | Some _ | None -> ());
  (match ast.Ast.space with
  | Ast.Grid -> ()
  | Ast.Continuum | Ast.Domain ->
      let non_grid what = Printf.sprintf
          "%s is grid-only: --space %s runs a plain broadcast (as on the CLI)"
          what
          (Ast.space_to_string ast.Ast.space)
      in
      (match ast.Ast.protocols with
      | [ Mobile_network.Protocol.Broadcast ] -> ()
      | _ -> diag ctx (where "protocol") (non_grid "protocol"));
      (match ast.Ast.kernels with
      | [ Walk.Lazy_one_fifth ] -> ()
      | _ -> diag ctx (where "kernel") (non_grid "kernel"));
      (match ast.Ast.exchange with
      | Mobile_network.Config.Flood_component -> ()
      | Mobile_network.Config.Single_hop ->
          diag ctx (where "exchange") (non_grid "exchange"));
      if ast.Ast.torus then diag ctx (where "torus") (non_grid "torus");
      if not (Faults.Plan.is_empty ast.Ast.faults) then
        diag ctx (where "faults") (non_grid "faults"));
  (* the space-specific scalars off their defaults belong to one space,
     and the continuum's numbers must be positive and finite *)
  List.iter
    (fun (name, owner, v) ->
      let owner = Ast.space_to_string owner
      and space = Ast.space_to_string ast.Ast.space in
      if not (String.equal owner space) then
        diag ctx (where name)
          (Printf.sprintf "%s is %s-only: --space %s does not take it" name
             owner space);
      match v with
      | Obs.Json.Float x when not (x > 0. && Float.is_finite x) ->
          diag ctx (where name)
            (Printf.sprintf "%s must be positive and finite" name)
      | _ -> ())
    (Ast.space_settings ast);
  (* [density] and [rc_mult] replace [side] and [radius]: set one of
     each pair. A file must not write both; an AST built in code cannot
     say what was written, so it must leave the replaced field at its
     default (simulate rejects an explicit --side or -r itself) *)
  List.iter
    (fun (set, name, replaced, is_default) ->
      let written =
        match src with
        | Some j -> Option.is_some (Pjson.member replaced j)
        | None -> not is_default
      in
      if set && written then
        diag ctx (where name)
          (Printf.sprintf "%s replaces %s: set one of them, not both" name
             replaced))
    [
      ( Option.is_some ast.Ast.density, "density", "side",
        List.equal Int.equal ast.Ast.sides Ast.default.Ast.sides );
      ( Option.is_some ast.Ast.rc_mult, "rc_mult", "radius",
        List.equal Int.equal ast.Ast.radii Ast.default.Ast.radii );
    ];
  (* one cell per room keeps a free node in every rooms plan *)
  (match ast.Ast.plan with
  | Ast.Rooms { per_side; _ } ->
      check_axis "plan" ast.Ast.sides (fun side -> per_side <= side)
        (Printf.sprintf "plan %s needs a side of at least %d"
           (Ast.plan_to_string ast.Ast.plan)
           per_side)
  | Ast.Open | Ast.Wall _ -> ());
  (* per-cell engine validation: every desugared point must be a
     configuration the engine accepts *)
  if ctx.errs = [] then
    match ast.Ast.space with
    | Ast.Continuum ->
        (* the derived box side, radius and Brownian step obey the limits
           of the side and radius they replace (Config.max_* say why),
           and the step must stay positive (a product of two small
           positive floats can underflow to 0); each derives from the
           one before, so report the first *)
        let side = float_of_int Config.max_side
        and radius = float_of_int Config.max_radius in
        List.iter
          (fun (c : Ast.cell) ->
            let g = Ast.continuum_geometry c in
            let bad name what v lo hi =
              diag ctx (where name)
                (Printf.sprintf
                   "%s makes the %s %g (k=%d); it must lie in %s, %d]" name
                   what v c.Ast.c_agents lo hi)
            in
            if not (g.Ast.g_box_side >= 1. && g.Ast.g_box_side <= side) then
              bad "density" "box side" g.Ast.g_box_side "[1" Config.max_side
            else if not (g.Ast.g_radius >= 0. && g.Ast.g_radius <= radius)
            then bad "rc_mult" "radius" g.Ast.g_radius "[0" Config.max_radius
            else if not (g.Ast.g_sigma > 0. && g.Ast.g_sigma <= radius) then
              bad "sigma_frac" "Brownian step" g.Ast.g_sigma "(0"
                Config.max_radius)
          (Ast.cells ast)
    | Ast.Grid ->
        List.iter
          (fun (c : Ast.cell) ->
            let cfg = Ast.cell_config c ~seed:ast.Ast.seed ~trial:0 in
            match Config.validate cfg with
            | Ok () -> ()
            | Error msg ->
                diag ctx
                  (match src with Some j -> j.Pjson.pos | None -> Pjson.no_pos)
                  (Printf.sprintf
                     "cell (side=%d, agents=%d, radius=%d, protocol=%s): %s"
                     c.Ast.c_side c.Ast.c_agents c.Ast.c_radius
                     (Ast.protocol_to_string c.Ast.c_protocol)
                     msg))
          (Ast.cells ast)
    | Ast.Domain -> ()

let finish ctx =
  List.rev ctx.errs
  |> List.stable_sort (fun ((a : Pjson.pos), _) (b, _) ->
         match Int.compare a.Pjson.line b.Pjson.line with
         | 0 -> Int.compare a.Pjson.col b.Pjson.col
         | c -> c)
  |> List.map snd

(* --- entry points -------------------------------------------------------- *)

let desugar (ast : Ast.t) =
  {
    ast;
    hash = Ast.hash ast;
    cells = Ast.cells ast;
    seed = ast.Ast.seed;
    trials = ast.Ast.trials;
  }

let compile ?filename text =
  let ctx = { filename; errs = [] } in
  match Pjson.parse text with
  | Error (pos, msg) ->
      Error [ Pjson.format ?filename pos ("scenario: JSON parse error: " ^ msg) ]
  | Ok j -> (
      let ast = parse_pjson ctx j in
      (* fields that failed to read hold their (valid) defaults, so the
         semantic pass can always run and collect further diagnostics;
         only the per-cell engine check inside gates on a clean slate *)
      validate_ast ctx (Some j) ast;
      match finish ctx with [] -> Ok (desugar ast) | errs -> Error errs)

let compile_ast ast =
  let ctx = { filename = None; errs = [] } in
  validate_ast ctx None ast;
  match finish ctx with [] -> Ok (desugar ast) | errs -> Error errs
