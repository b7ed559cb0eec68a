module Space = Mobile_network.Space

type t = {
  domain : Domain.t;
  los_blocking : bool;
  spatial : Spatial.t;
  mutable cur : Grid.node array;  (* positions of the last rebuild *)
}

type pos = Grid.node array

let create domain ~radius ~los_blocking =
  {
    domain;
    los_blocking;
    spatial = Spatial.create (Domain.grid domain) ~radius;
    cur = [||];
  }

let domain t = t.domain

let los_blocking t = t.los_blocking

let init_positions t rng ~n =
  Array.init n (fun _ -> Domain.random_free_node t.domain rng)

(* Churn mask: absent agents freeze in place and draw nothing. *)
let[@inline] is_present present i =
  match present with None -> true | Some pr -> pr.(i)

let move_all ?present t pos rngs mobility =
  let n = Array.length pos in
  match mobility with
  | Space.Mobile_all ->
      for i = 0 to n - 1 do
        if is_present present i then
          pos.(i) <- Domain.step_lazy t.domain rngs.(i) pos.(i)
      done
  | Space.Mobile_informed informed ->
      for i = 0 to n - 1 do
        if informed.(i) && is_present present i then
          pos.(i) <- Domain.step_lazy t.domain rngs.(i) pos.(i)
      done
  | Space.Mobile_predators { informed; predators } ->
      for i = 0 to n - 1 do
        if (i < predators || not informed.(i)) && is_present present i then
          pos.(i) <- Domain.step_lazy t.domain rngs.(i) pos.(i)
      done

let rebuild_index ?present t pos =
  t.cur <- pos;
  Spatial.rebuild ?present t.spatial ~positions:pos

let iter_close_pairs t ~f =
  if t.los_blocking then
    Spatial.iter_close_pairs t.spatial ~f:(fun i j ->
        if Domain.line_of_sight t.domain t.cur.(i) t.cur.(j) then f i j)
  else Spatial.iter_close_pairs t.spatial ~f

let cover_cells t = Grid.nodes (Domain.grid t.domain)

let cover_target t = Domain.free_count t.domain

let observe t pos ~informed ~frontier ~cover ~cover_any =
  let grid = Domain.grid t.domain in
  let frontier = ref frontier in
  for i = 0 to Array.length pos - 1 do
    if informed.(i) then begin
      let x = Grid.x_of grid pos.(i) in
      if x > !frontier then frontier := x
    end;
    match cover with
    | Some c when cover_any || informed.(i) -> Space.Cover.mark c pos.(i)
    | Some _ | None -> ()
  done;
  !frontier
