(* Deterministic fault injection. See faults.mli for the model; the
   code below is split into the declarative Plan (pure data + JSON) and
   the runtime adversary state (private streams + per-step masks). *)

module Json = Obs.Json

module Plan = struct
  type window = {
    w_from : int;
    w_until : int;
    w_agent : int option;
  }

  type churn = {
    leave_p : float;
    return_p : float;
  }

  type t = {
    loss_p : float;
    duty : (int * int) option;
    windows : window list;
    churn : churn option;
    silent : int list;
    deaf : int list;
  }

  let empty =
    { loss_p = 0.; duty = None; windows = []; churn = None; silent = []; deaf = [] }

  let is_empty t =
    t.loss_p = 0. && t.duty = None && t.windows = [] && t.churn = None
    && t.silent = [] && t.deaf = []

  let has_roles t = t.silent <> [] || t.deaf <> []

  let max_agent_id t =
    let m = ref (-1) in
    let see i = if i > !m then m := i in
    List.iter (fun w -> match w.w_agent with Some i -> see i | None -> ()) t.windows;
    List.iter see t.silent;
    List.iter see t.deaf;
    !m

  let validate t =
    let ( let* ) r f = Result.bind r f in
    let check cond msg = if cond then Ok () else Error msg in
    let prob p name =
      check (p >= 0. && p <= 1.) (name ^ " must lie in [0, 1]")
    in
    let* () = prob t.loss_p "loss_p" in
    let* () =
      match t.duty with
      | None -> Ok ()
      | Some (off, period) ->
          check
            (period > 0 && off >= 0 && off <= period)
            "outage duty cycle needs 0 <= off <= period and period > 0"
    in
    let* () =
      List.fold_left
        (fun acc w ->
          let* () = acc in
          let* () = check (w.w_from >= 0) "window 'from' must be non-negative" in
          let* () = check (w.w_from <= w.w_until) "window 'from' exceeds 'until'" in
          check
            (match w.w_agent with Some i -> i >= 0 | None -> true)
            "window agent index must be non-negative")
        (Ok ()) t.windows
    in
    let* () =
      match t.churn with
      | None -> Ok ()
      | Some c ->
          let* () = prob c.leave_p "churn leave_p" in
          prob c.return_p "churn return_p"
    in
    let ids_ok = List.for_all (fun i -> i >= 0) in
    let* () = check (ids_ok t.silent) "silent agent indices must be non-negative" in
    check (ids_ok t.deaf) "deaf agent indices must be non-negative"

  (* --- JSON ------------------------------------------------------------ *)

  (* Parsing runs over the positioned surface (Obs.Pjson): every
     diagnostic is anchored at the offending value (or, for unknown
     fields, the offending key) and rendered as file:line:col: message. *)

  let ( let* ) r f = Result.bind r f

  module Pjson = Obs.Pjson

  let diag ?filename pos msg = Error (Pjson.format ?filename pos msg)

  let expect_num ?filename name (j : Pjson.t) =
    match j.Pjson.v with
    | Pjson.Int i -> Ok (float_of_int i)
    | Pjson.Float f -> Ok f
    | _ -> diag ?filename j.Pjson.pos (Printf.sprintf "faults: %s must be a number" name)

  let expect_int ?filename name (j : Pjson.t) =
    match j.Pjson.v with
    | Pjson.Int i -> Ok i
    | _ ->
        diag ?filename j.Pjson.pos
          (Printf.sprintf "faults: %s must be an integer" name)

  let expect_assoc ?filename name (j : Pjson.t) =
    match j.Pjson.v with
    | Pjson.Assoc _ -> Ok (Pjson.keys j)
    | _ ->
        diag ?filename j.Pjson.pos
          (Printf.sprintf "faults: %s must be an object" name)

  let expect_list ?filename name (j : Pjson.t) =
    match j.Pjson.v with
    | Pjson.List l -> Ok l
    | _ ->
        diag ?filename j.Pjson.pos
          (Printf.sprintf "faults: %s must be a list" name)

  (* A validating field reader: every key of the object must be consumed
     by one of the [fields], so typos fail loudly instead of silently
     disabling an adversary. The diagnostic points at the unknown key. *)
  let check_keys ?filename name fields keys =
    let unknown =
      List.filter (fun (k, _) -> not (List.mem k fields)) keys
    in
    match unknown with
    | [] -> Ok ()
    | (k, pos) :: _ ->
        diag ?filename pos
          (Printf.sprintf "faults: unknown field %S in %s (expected: %s)" k
             name
             (String.concat ", " fields))

  let int_list ?filename name j =
    let* l = expect_list ?filename name j in
    List.fold_left
      (fun acc v ->
        let* ids = acc in
        let* i = expect_int ?filename (name ^ " entry") v in
        Ok (i :: ids))
      (Ok []) l
    |> Result.map List.rev

  let parse_window ?filename (j : Pjson.t) =
    let* keys = expect_assoc ?filename "windows entry" j in
    let* () =
      check_keys ?filename "windows entry" [ "from"; "until"; "agent" ] keys
    in
    let* w_from =
      match Pjson.member "from" j with
      | Some v -> expect_int ?filename "window 'from'" v
      | None -> diag ?filename j.Pjson.pos "faults: window is missing 'from'"
    in
    let* w_until =
      match Pjson.member "until" j with
      | Some v -> expect_int ?filename "window 'until'" v
      | None -> diag ?filename j.Pjson.pos "faults: window is missing 'until'"
    in
    let* w_agent =
      match Pjson.member "agent" j with
      | Some v ->
          Result.map Option.some (expect_int ?filename "window 'agent'" v)
      | None -> Ok None
    in
    Ok { w_from; w_until; w_agent }

  let of_pjson ?filename (j : Pjson.t) =
    let* keys = expect_assoc ?filename "fault plan" j in
    let* () =
      check_keys ?filename "fault plan"
        [ "loss_p"; "outage"; "windows"; "churn"; "silent"; "deaf" ]
        keys
    in
    let* loss_p =
      match Pjson.member "loss_p" j with
      | Some v -> expect_num ?filename "loss_p" v
      | None -> Ok 0.
    in
    let* duty =
      match Pjson.member "outage" j with
      | None -> Ok None
      | Some o ->
          let* okeys = expect_assoc ?filename "outage" o in
          let* () = check_keys ?filename "outage" [ "off"; "period" ] okeys in
          let* off =
            match Pjson.member "off" o with
            | Some v -> expect_int ?filename "outage 'off'" v
            | None -> diag ?filename o.Pjson.pos "faults: outage is missing 'off'"
          in
          let* period =
            match Pjson.member "period" o with
            | Some v -> expect_int ?filename "outage 'period'" v
            | None ->
                diag ?filename o.Pjson.pos "faults: outage is missing 'period'"
          in
          Ok (Some (off, period))
    in
    let* windows =
      match Pjson.member "windows" j with
      | None -> Ok []
      | Some l ->
          let* l = expect_list ?filename "windows" l in
          List.fold_left
            (fun acc v ->
              let* ws = acc in
              let* w = parse_window ?filename v in
              Ok (w :: ws))
            (Ok []) l
          |> Result.map List.rev
    in
    let* churn =
      match Pjson.member "churn" j with
      | None -> Ok None
      | Some c ->
          let* ckeys = expect_assoc ?filename "churn" c in
          let* () =
            check_keys ?filename "churn" [ "leave_p"; "return_p" ] ckeys
          in
          let* leave_p =
            match Pjson.member "leave_p" c with
            | Some v -> expect_num ?filename "churn 'leave_p'" v
            | None ->
                diag ?filename c.Pjson.pos "faults: churn is missing 'leave_p'"
          in
          let* return_p =
            match Pjson.member "return_p" c with
            | Some v -> expect_num ?filename "churn 'return_p'" v
            | None -> Ok 1.0
          in
          Ok (Some { leave_p; return_p })
    in
    let* silent =
      match Pjson.member "silent" j with
      | None -> Ok []
      | Some l -> int_list ?filename "silent" l
    in
    let* deaf =
      match Pjson.member "deaf" j with
      | None -> Ok []
      | Some l -> int_list ?filename "deaf" l
    in
    let t = { loss_p; duty; windows; churn; silent; deaf } in
    let* () =
      match validate t with
      | Ok () -> Ok ()
      | Error msg ->
          (* every validate message leads with the field it concerns —
             anchor there rather than at the whole plan object *)
          let field =
            match String.index_opt msg ' ' with
            | Some i -> (
                match String.sub msg 0 i with
                | "window" -> "windows"
                | w -> w)
            | None -> msg
          in
          let pos =
            match Pjson.member field j with
            | Some v -> v.Pjson.pos
            | None -> j.Pjson.pos
          in
          diag ?filename pos msg
    in
    Ok t

  let of_string ?filename s =
    match Pjson.parse s with
    | Error (pos, msg) ->
        diag ?filename pos (Printf.sprintf "JSON parse error: %s" msg)
    | Ok j -> of_pjson ?filename j

  let to_json t =
    let fields = ref [] in
    let add k v = fields := (k, v) :: !fields in
    if t.deaf <> [] then add "deaf" (Json.List (List.map (fun i -> Json.Int i) t.deaf));
    if t.silent <> [] then
      add "silent" (Json.List (List.map (fun i -> Json.Int i) t.silent));
    (match t.churn with
    | Some c ->
        add "churn"
          (Json.Assoc
             [ ("leave_p", Json.Float c.leave_p); ("return_p", Json.Float c.return_p) ])
    | None -> ());
    if t.windows <> [] then
      add "windows"
        (Json.List
           (List.map
              (fun w ->
                Json.Assoc
                  ([ ("from", Json.Int w.w_from); ("until", Json.Int w.w_until) ]
                  @
                  match w.w_agent with
                  | Some i -> [ ("agent", Json.Int i) ]
                  | None -> []))
              t.windows));
    (match t.duty with
    | Some (off, period) ->
        add "outage"
          (Json.Assoc [ ("off", Json.Int off); ("period", Json.Int period) ])
    | None -> ());
    if t.loss_p <> 0. then add "loss_p" (Json.Float t.loss_p);
    Json.Assoc !fields

  let to_string t = Json.to_string (to_json t)

  let summary t =
    let parts = ref [] in
    let add s = parts := s :: !parts in
    if t.deaf <> [] then add (Printf.sprintf "deaf=%d" (List.length t.deaf));
    if t.silent <> [] then add (Printf.sprintf "silent=%d" (List.length t.silent));
    (match t.churn with
    | Some c -> add (Printf.sprintf "churn=%g/%g" c.leave_p c.return_p)
    | None -> ());
    if t.windows <> [] then
      add (Printf.sprintf "windows=%d" (List.length t.windows));
    (match t.duty with
    | Some (off, period) -> add (Printf.sprintf "duty=%d/%d" off period)
    | None -> ());
    if t.loss_p <> 0. then add (Printf.sprintf "loss=%g" t.loss_p);
    if !parts = [] then "none" else String.concat "," !parts
end

(* --- runtime state ------------------------------------------------------ *)

type t = {
  plan : Plan.t;
  population : int;
  loss_rng : Prng.t;
  churn_rng : Prng.t;
  present : bool array option;  (* Some iff the plan has churn *)
  mutable present_count : int;
  out : bool array;  (* per-agent outage flags for the current step *)
  mutable blackout : bool;
  transmits : bool array;
  accepts : bool array;
  has_roles : bool;
  has_agent_windows : bool;
}

(* Subsystem indices of the fault streams under Prng.split_stream; the
   engine master is subsystem 0. *)
let loss_subsystem = 1

let churn_subsystem = 2

let create plan ~population ~seed ~trial =
  (match Plan.validate plan with
  | Ok () -> ()
  | Error msg -> invalid_arg ("Faults.create: " ^ msg));
  if population <= 0 then invalid_arg "Faults.create: population <= 0";
  if Plan.max_agent_id plan >= population then
    invalid_arg "Faults.create: plan references an agent index out of range";
  let transmits = Array.make population true in
  let accepts = Array.make population true in
  List.iter (fun i -> transmits.(i) <- false) plan.Plan.silent;
  List.iter (fun i -> accepts.(i) <- false) plan.Plan.deaf;
  {
    plan;
    population;
    loss_rng = Prng.split_stream ~seed ~trial ~subsystem:loss_subsystem;
    churn_rng = Prng.split_stream ~seed ~trial ~subsystem:churn_subsystem;
    present =
      (match plan.Plan.churn with
      | Some _ -> Some (Array.make population true)
      | None -> None);
    present_count = population;
    out = Array.make population false;
    blackout = false;
    transmits;
    accepts;
    has_roles = Plan.has_roles plan;
    has_agent_windows =
      List.exists (fun w -> w.Plan.w_agent <> None) plan.Plan.windows;
  }

let plan t = t.plan

let[@alloc_ok
     "fault-adversary bookkeeping: a scrutinee pair and a handful of \
      window-predicate closures per step, never per pair; the pristine \
      engine path skips this function entirely"] begin_step t ~time =
  (* churn: one Bernoulli per agent per step (time 0 starts complete) *)
  (match (t.plan.Plan.churn, t.present) with
  | Some c, Some present when time > 0 ->
      for i = 0 to t.population - 1 do
        if present.(i) then begin
          if Prng.bernoulli t.churn_rng ~p:c.Plan.leave_p then begin
            present.(i) <- false;
            t.present_count <- t.present_count - 1
          end
        end
        else if Prng.bernoulli t.churn_rng ~p:c.Plan.return_p then begin
          present.(i) <- true;
          t.present_count <- t.present_count + 1
        end
      done
  | _ -> ());
  (* outage: global duty cycle / windows, then per-agent windows *)
  let duty_black =
    match t.plan.Plan.duty with
    | Some (off, period) -> time mod period < off
    | None -> false
  in
  let in_window w =
    time >= w.Plan.w_from && time < w.Plan.w_until
  in
  let window_black =
    List.exists
      (fun w -> w.Plan.w_agent = None && in_window w)
      t.plan.Plan.windows
  in
  t.blackout <- duty_black || window_black;
  if t.has_agent_windows then begin
    Array.fill t.out 0 t.population false;
    List.iter
      (fun w ->
        match w.Plan.w_agent with
        | Some i when in_window w -> t.out.(i) <- true
        | Some _ | None -> ())
      t.plan.Plan.windows
  end

let blackout t = t.blackout

let[@inline] active t i =
  (match t.present with None -> true | Some p -> p.(i)) && not t.out.(i)

let edge_live t i j =
  active t i && active t j
  && (t.plan.Plan.loss_p = 0.
     || not (Prng.bernoulli t.loss_rng ~p:t.plan.Plan.loss_p))

let present_mask t = t.present

let present_count t = t.present_count

let has_roles t = t.has_roles

let transmits t = t.transmits

let accepts t = t.accepts
