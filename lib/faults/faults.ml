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

  (* The first failing check is reported. Written as one if-chain over
     constant messages (the closures below capture nothing), validation
     allocates nothing on success. *)
  let validate t =
    let prob_ok p = p >= 0. && p <= 1. in
    let window_error w =
      if w.w_from < 0 then Some "window 'from' must be non-negative"
      else if w.w_from > w.w_until then Some "window 'from' exceeds 'until'"
      else if match w.w_agent with Some i -> i < 0 | None -> false then
        Some "window agent index must be non-negative"
      else None
    in
    let negative i = i < 0 in
    if not (prob_ok t.loss_p) then Error "loss_p must lie in [0, 1]"
    else if
      match t.duty with
      | Some (off, period) -> not (period > 0 && off >= 0 && off <= period)
      | None -> false
    then Error "outage duty cycle needs 0 <= off <= period and period > 0"
    else
      match List.find_map window_error t.windows with
      | Some msg -> Error msg
      | None -> (
          match t.churn with
          | Some c when not (prob_ok c.leave_p) ->
              Error "churn leave_p must lie in [0, 1]"
          | Some c when not (prob_ok c.return_p) ->
              Error "churn return_p must lie in [0, 1]"
          | Some _ | None ->
              if List.exists negative t.silent then
                Error "silent agent indices must be non-negative"
              else if List.exists negative t.deaf then
                Error "deaf agent indices must be non-negative"
              else Ok ())

  (* --- JSON ------------------------------------------------------------ *)

  (* Parsing runs over the positioned surface (Obs.Pjson) and stops at
     the first problem: every diagnostic is anchored at the offending
     value (or, for unknown fields, the offending key; for a missing
     field, its object) and rendered as file:line:col: message. *)

  let ( let* ) r f = Result.bind r f

  module Pjson = Obs.Pjson

  let diag ?filename pos msg = Error (Pjson.format ?filename pos msg)

  let rec all f = function
    | [] -> Ok []
    | x :: xs ->
        let* y = f x in
        let* ys = all f xs in
        Ok (y :: ys)

  let of_pjson ?filename (j : Pjson.t) =
    let lift r =
      Result.map_error
        (fun (pos, msg) -> Pjson.format ?filename pos ("faults: " ^ msg))
        r
    in
    let fail pos msg = lift (Error (pos, msg)) in
    let int name v = lift (Pjson.int name v)
    and num name v = lift (Pjson.number name v) in
    (* every key must be one of [fields], so a typo fails loudly instead
       of silently disabling an adversary *)
    let obj name fields o =
      let* () = lift (Pjson.obj name o) in
      match Pjson.unknown_keys fields o with
      | [] -> Ok ()
      | (k, pos) :: _ ->
          fail pos
            (Printf.sprintf "unknown field %S in %s (expected: %s)" k name
               (String.concat ", " fields))
    in
    let opt o key read =
      match Pjson.member key o with
      | None -> Ok None
      | Some v -> Result.map Option.some (read v)
    in
    (* [owner]'s required field [key], named [owner 'key'] *)
    let req o owner key read =
      let* v = opt o key (read (Printf.sprintf "%s '%s'" owner key)) in
      match v with
      | Some v -> Ok v
      | None -> fail o.Pjson.pos (Printf.sprintf "%s is missing '%s'" owner key)
    in
    let ids name =
      opt j name (fun l ->
          let* l = lift (Pjson.list name l) in
          all (int (name ^ " entry")) l)
    in
    let* () =
      obj "fault plan"
        [ "loss_p"; "outage"; "windows"; "churn"; "silent"; "deaf" ]
        j
    in
    let* loss_p = opt j "loss_p" (num "loss_p") in
    let* duty =
      opt j "outage" (fun o ->
          let* () = obj "outage" [ "off"; "period" ] o in
          let* off = req o "outage" "off" int in
          let* period = req o "outage" "period" int in
          Ok (off, period))
    in
    let* windows =
      opt j "windows" (fun l ->
          let* l = lift (Pjson.list "windows" l) in
          all
            (fun w ->
              let* () = obj "windows entry" [ "from"; "until"; "agent" ] w in
              let* w_from = req w "window" "from" int in
              let* w_until = req w "window" "until" int in
              let* w_agent = opt w "agent" (int "window 'agent'") in
              Ok { w_from; w_until; w_agent })
            l)
    in
    let* churn =
      opt j "churn" (fun c ->
          let* () = obj "churn" [ "leave_p"; "return_p" ] c in
          let* leave_p = req c "churn" "leave_p" num in
          let* return_p = opt c "return_p" (num "churn 'return_p'") in
          Ok { leave_p; return_p = Option.value return_p ~default:1.0 })
    in
    let* silent = ids "silent" in
    let* deaf = ids "deaf" in
    let t =
      {
        loss_p = Option.value loss_p ~default:0.;
        duty;
        windows = Option.value windows ~default:[];
        churn;
        silent = Option.value silent ~default:[];
        deaf = Option.value deaf ~default:[];
      }
    in
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
  (* The churn probabilities, copied out of the plan's float-only
     [Plan.churn] record: a float read from there is boxed afresh for
     every draw, one held in this record is passed as it is. *)
  leave_p : float;
  return_p : float;
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
  let leave_p, return_p =
    match plan.Plan.churn with
    | Some c -> (c.Plan.leave_p, c.Plan.return_p)
    | None -> (0., 0.)
  in
  {
    plan;
    population;
    loss_rng = Prng.split_stream ~seed ~trial ~subsystem:loss_subsystem;
    churn_rng = Prng.split_stream ~seed ~trial ~subsystem:churn_subsystem;
    present =
      (match plan.Plan.churn with
      | Some _ -> Some (Array.make population true)
      | None -> None);
    leave_p;
    return_p;
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
     "fault-adversary bookkeeping: a handful of window-predicate \
      closures per step, never per pair; the pristine engine path skips \
      this function entirely"] begin_step t ~time =
  (* churn: one Bernoulli per agent per step (time 0 starts complete) *)
  (match t.present with
  | Some present when time > 0 ->
      for i = 0 to t.population - 1 do
        if present.(i) then begin
          if Prng.bernoulli t.churn_rng ~p:t.leave_p then begin
            present.(i) <- false;
            t.present_count <- t.present_count - 1
          end
        end
        else if Prng.bernoulli t.churn_rng ~p:t.return_p then begin
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
