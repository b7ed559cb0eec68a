let ln x = Float.max 1e-9 (log x)

let lnf n = ln (float_of_int n)

let broadcast_theta ~n ~k = float_of_int n /. sqrt (float_of_int k)

let broadcast_lower ~n ~k =
  float_of_int n /. (sqrt (float_of_int k) *. (lnf n ** 2.))

let gossip_theta = broadcast_theta

let cover_time_multi ~n ~k =
  let nf = float_of_int n in
  (nf *. (lnf n ** 2.) /. float_of_int k) +. (nf *. lnf n)

let extinction_time ~n ~k =
  float_of_int n *. (lnf n ** 2.) /. float_of_int k

let wang_claimed ~n ~k =
  float_of_int n *. lnf n *. lnf k /. float_of_int k

let dimitriou_bound ~n ~k = float_of_int n *. lnf n *. lnf k

let peres_polylog ~k = lnf k ** 2.

let percolation_radius ~n ~k =
  Visibility.Percolation.rc_theory ~n ~k

(* continuum percolation constant for Gilbert disk graphs:
   lambda_c * r^2 ~ 1.436 (Quintanilla et al. estimates) *)
let continuum_percolation_constant = 1.436

let continuum_critical_radius ~box_side ~agents =
  let lambda = float_of_int agents /. (box_side *. box_side) in
  sqrt (continuum_percolation_constant /. lambda)

let subcritical_radius ~n ~k =
  Visibility.Percolation.sub_critical_radius ~n ~k

let island_parameter ~n ~k =
  Visibility.Percolation.island_parameter ~n ~k

let island_size_bound ~n = lnf n

let meeting_probability_lower ~d =
  if d < 0 then invalid_arg "Theory.meeting_probability_lower: negative d";
  1. /. Float.max 1. (ln (float_of_int (max 1 d)))

let hitting_probability_lower ~d = meeting_probability_lower ~d

let displacement_tail ~lambda = 2. *. exp (-.(lambda *. lambda) /. 2.)

let range_lower ~steps =
  if steps <= 1 then 1.
  else float_of_int steps /. ln (float_of_int steps)

let frontier_speed_bound ~n ~k =
  let gamma = island_parameter ~n ~k in
  72. *. (lnf n ** 2.) /. Float.max 1e-9 gamma
