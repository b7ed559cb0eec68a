(* The paper's grid space on the structure-of-arrays data plane:
   positions live in two int32 Bigarray coordinate vectors, walk kernels
   mutate them in place ([Walk.step_inplace]), and the spatial index is
   fed through [Spatial.rebuild_soa] — the whole move/index/observe
   steady state allocates nothing. *)

type t = {
  grid : Grid.t;
  kernel : Walk.kernel;
  spatial : Spatial.t;
}

type pos = {
  side : int;
  xs : Walk.vec;
  ys : Walk.vec;
}

let create grid ~kernel ~radius =
  { grid; kernel; spatial = Spatial.create grid ~radius }

let grid t = t.grid

let kernel t = t.kernel

let[@unsafe_invariant
     "i is an agent index < agents pos = Array1.dim v"] vget (v : Walk.vec)
    i =
  Int32.to_int (Bigarray.Array1.unsafe_get v i)

let agents pos = Bigarray.Array1.dim pos.xs

let node_at pos i = (vget pos.ys i * pos.side) + vget pos.xs i

let init_positions t rng ~n =
  let side = Grid.side t.grid in
  let xs = Bigarray.Array1.create Bigarray.Int32 Bigarray.C_layout n in
  let ys = Bigarray.Array1.create Bigarray.Int32 Bigarray.C_layout n in
  (* same draws in the same (increasing agent) order as the historical
     [Array.init n (fun _ -> Grid.random_node ...)] placement *)
  for i = 0 to n - 1 do
    let v = Grid.random_node t.grid rng in
    Bigarray.Array1.set xs i (Int32.of_int (v mod side));
    Bigarray.Array1.set ys i (Int32.of_int (v / side))
  done;
  { side; xs; ys }

(* [present] masks churned-out agents: they freeze in place and draw
   nothing, so their stream pauses until they return. The check is a
   branch on an immediate — the fault-free path allocates nothing. *)
let[@inline] is_present present i =
  match present with None -> true | Some pr -> pr.(i)

let[@hot] move_all ?present t pos rngs mobility =
  let n = agents pos in
  let xs = pos.xs and ys = pos.ys in
  match mobility with
  | Space.Mobile_all -> (
      match present with
      | None -> Walk.move_all t.grid t.kernel rngs ~xs ~ys ~n
      | Some _ ->
          for i = 0 to n - 1 do
            if is_present present i then
              Walk.step_inplace t.grid t.kernel rngs.(i) ~xs ~ys i
          done)
  | Space.Mobile_informed informed ->
      for i = 0 to n - 1 do
        if informed.(i) && is_present present i then
          Walk.step_inplace t.grid t.kernel rngs.(i) ~xs ~ys i
      done
  | Space.Mobile_predators { informed; predators } ->
      for i = 0 to n - 1 do
        if (i < predators || not informed.(i)) && is_present present i then
          Walk.step_inplace t.grid t.kernel rngs.(i) ~xs ~ys i
      done

let[@hot] rebuild_index ?present t pos =
  (* the engine rebuilds components every step, so whether a
     [Spatial.reconcile] could follow is moot here *)
  ignore
    (Spatial.rebuild_soa ?present t.spatial ~xs:pos.xs ~ys:pos.ys
       ~n:(agents pos)
      : Spatial.update)

let iter_close_pairs t ~f = Spatial.iter_close_pairs t.spatial ~f

(* at radius 0 a close pair is two agents on one node *)
let cliques t = Spatial.radius t.spatial = 0

let fold_group_sizes t ~init ~f = Spatial.fold_group_sizes t.spatial ~init ~f

let cover_cells t = Grid.nodes t.grid

let cover_target t = Grid.nodes t.grid

let theory_n t = Grid.nodes t.grid

(* Accumulating the frontier through a tail-recursive loop instead of a
   [ref] keeps the coverless steady state allocation-free without
   flambda. *)
let[@unsafe_invariant
     "i < n = agents pos = length informed = Array1.dim xs"] rec frontier_loop
    (xs : Walk.vec) informed frontier i n =
  if i >= n then frontier
  else
    let frontier =
      if Array.unsafe_get informed i then begin
        let x = vget xs i in
        if x > frontier then x else frontier
      end
      else frontier
    in
    frontier_loop xs informed frontier (i + 1) n

let[@hot]
    [@alloc_ok
      "the covered arm allocates one frontier ref per step; the \
       coverless steady state takes the allocation-free frontier_loop \
       arm"] observe t pos ~informed ~frontier ~cover ~cover_any =
  ignore t;
  let n = agents pos in
  match cover with
  | None -> frontier_loop pos.xs informed frontier 0 n
  | Some c ->
      let frontier = ref frontier in
      for i = 0 to n - 1 do
        if informed.(i) then begin
          let x = vget pos.xs i in
          if x > !frontier then frontier := x
        end;
        if cover_any || informed.(i) then Space.Cover.mark c (node_at pos i)
      done;
      !frontier
