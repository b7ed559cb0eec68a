(* Shared qcheck generators for the property suites (Dsu, Rumor_set and
   the fault-injection state machine). Kept in one module so the fault
   harness exercises the very same input distributions as the unit
   property tests. *)

(* A random union script over [0, n): the raw material for union-find
   properties and for the component side of the fault invariants. *)
let unions ?(max_len = 40) n =
  QCheck.(
    list_of_size
      (Gen.int_range 0 max_len)
      (pair (int_range 0 (n - 1)) (int_range 0 (n - 1))))

(* Rumor-id scripts for bitset properties over [0, capacity): half the
   ids uniform, half at a 64-bit word's top bit (63, 127, ..., the
   int64 sign bit) or at [capacity - 1]. *)
let rumor_ids ?(max_len = 60) capacity =
  let open QCheck.Gen in
  if capacity = 0 then return []
  else
    let edges =
      (capacity - 1)
      :: List.filter (fun i -> i < capacity)
           (List.init ((capacity + 63) / 64) (fun w -> (64 * w) + 63))
    in
    list_size (int_range 0 max_len)
      (frequency [ (1, int_range 0 (capacity - 1)); (1, oneofl edges) ])

(* A structurally valid fault plan over a population of [agents].
   Probabilities land in [0, 1], duty cycles satisfy 0 <= off <= period,
   windows are ordered, role ids are in range — i.e. the generator's
   support is exactly what [Faults.Plan.validate] accepts, so a
   generated plan failing validation is itself a bug. *)
let plan ~agents =
  let open QCheck.Gen in
  let prob = float_bound_inclusive 1.0 in
  let agent = int_range 0 (agents - 1) in
  let window =
    let* w_from = int_range 0 50 in
    let* len = int_range 0 20 in
    let* w_agent = opt agent in
    return { Faults.Plan.w_from; w_until = w_from + len; w_agent }
  in
  let gen =
    let* loss_p = prob in
    let* duty =
      opt
        (let* period = int_range 1 20 in
         let* off = int_range 0 period in
         return (off, period))
    in
    let* windows = list_size (int_range 0 3) window in
    let* churn =
      opt
        (let* leave_p = prob in
         let* return_p = prob in
         return { Faults.Plan.leave_p; return_p })
    in
    let* silent = list_size (int_range 0 2) agent in
    let* deaf = list_size (int_range 0 2) agent in
    return { Faults.Plan.loss_p; duty; windows; churn; silent; deaf }
  in
  QCheck.make ~print:(fun p -> Obs.Json.to_string (Faults.Plan.to_json p)) gen

(* [text] after 1-4 random byte edits: a byte flipped, a byte inserted
   or a byte deleted. Half the new bytes are JSON punctuation, digits or
   letters of the literals, so a mutant often still lexes and reaches the
   field readers rather than stopping at the first character. Raw
   material for the parsers' never-raises properties. *)
let mutate text =
  let open QCheck.Gen in
  let byte =
    frequency
      [
        (1, map Char.chr (int_range 0 255));
        (1, oneofl (List.init 26 (String.get "{}[]:,\"-.eE0123456789tfnul ")));
      ]
  in
  let edit s =
    let n = String.length s in
    let* at = int_range 0 n in
    let* b = byte in
    let* kind = int_range 0 2 in
    let before = String.sub s 0 at in
    let after skip = String.sub s (at + skip) (n - at - skip) in
    return
      (match kind with
      | 0 when at < n -> before ^ String.make 1 b ^ after 1
      | 1 when at < n -> before ^ after 1
      | _ -> before ^ String.make 1 b ^ after 0)
  in
  let rec edits k s = if k = 0 then return s else edit s >>= edits (k - 1) in
  int_range 1 4 >>= fun k -> edits k text

(* Does [msg] start with [file:line:col: ] (line and column >= 1), or
   with [line:col: ] when no [file] is given? *)
let has_position ?file msg =
  let prefix = match file with Some f -> f ^ ":" | None -> "" in
  String.starts_with ~prefix msg
  &&
  let rest = String.sub msg (String.length prefix) (String.length msg - String.length prefix) in
  match
    Scanf.sscanf_opt rest "%u:%u:%c" (fun line col sp -> line >= 1 && col >= 1 && sp = ' ')
  with
  | Some ok -> ok
  | None -> false

(* A random <=1-cell-per-step walk workload over a side x side grid:
   initial positions plus per-step per-agent axis moves, with optional
   per-step churn masks (None = everyone present). Raw material for the
   [Spatial.reconcile] properties: repairing components from the
   node delta must agree with a from-scratch rebuild on exactly these
   inputs, and masked steps force the index to report [Full] so the
   Delta/Full transitions get exercised too. *)
type walk_script = {
  ws_side : int;
  ws_agents : int;
  ws_starts : (int * int) array;
  ws_steps : ((int * int) array * bool array option) list;
      (* per step: per-agent (dx, dy) plus an optional presence mask *)
}

let walk_script ?(max_side = 9) ?(max_agents = 14) ?(max_steps = 14) ~churn ()
    =
  let open QCheck.Gen in
  let dir =
    map
      (function
        | 0 -> (0, 0)
        | 1 -> (1, 0)
        | 2 -> (-1, 0)
        | 3 -> (0, 1)
        | _ -> (0, -1))
      (int_range 0 4)
  in
  let gen =
    let* side = int_range 2 max_side in
    let* agents = int_range 1 max_agents in
    let* steps = int_range 1 max_steps in
    let coord = int_range 0 (side - 1) in
    let* starts = array_size (return agents) (pair coord coord) in
    let mask =
      if churn then
        frequency
          [
            (3, return None);
            (1, map Option.some (array_size (return agents) bool));
          ]
      else return None
    in
    let* moves =
      list_size (return steps) (pair (array_size (return agents) dir) mask)
    in
    return
      { ws_side = side; ws_agents = agents; ws_starts = starts;
        ws_steps = moves }
  in
  QCheck.make gen ~print:(fun s ->
      Printf.sprintf "side=%d agents=%d steps=%d" s.ws_side s.ws_agents
        (List.length s.ws_steps))
