type entry = {
  id : string;
  summary : string;
  run : ?quick:bool -> seed:int -> unit -> Exp_result.t;
}

let all =
  [
    {
      id = "E1";
      summary = "broadcast time vs k: T_B = Theta~(n / sqrt k) (Thm 1)";
      run = E1_broadcast_vs_k.run;
    };
    {
      id = "E2";
      summary = "broadcast time vs n: linear growth at fixed k (Thm 1)";
      run = E2_broadcast_vs_n.run;
    };
    {
      id = "E3";
      summary = "radius insensitivity below r_c, collapse above (Thm 1-2)";
      run = E3_radius_insensitivity.run;
    };
    {
      id = "E4";
      summary = "two-walk meeting probability >= c3 / log d (Lemma 3)";
      run = E4_meeting_probability.run;
    };
    {
      id = "E5";
      summary = "islands stay O(log n) below percolation (Lemma 6)";
      run = E5_island_sizes.run;
    };
    {
      id = "E6";
      summary = "informed frontier is diffusive, not ballistic (Lemma 7)";
      run = E6_frontier_speed.run;
    };
    {
      id = "E7";
      summary = "gossip time tracks broadcast time (Cor 2)";
      run = E7_gossip_vs_broadcast.run;
    };
    {
      id = "E8";
      summary = "Frog Model obeys the same T_B bound (par. 4)";
      run = E8_frog_model.run;
    };
    {
      id = "E9";
      summary = "coverage time T_C ~ T_B (par. 4)";
      run = E9_coverage_time.run;
    };
    {
      id = "E10";
      summary = "cover time of k walks: O(n log^2 n / k + n log n) (par. 4)";
      run = E10_cover_time.run;
    };
    {
      id = "E11";
      summary = "predator-prey extinction: O(n log^2 n / k) (par. 4)";
      run = E11_predator_prey.run;
    };
    {
      id = "E12";
      summary = "refutation of Wang et al. Theta((n log n log k)/k) (par. 1.1)";
      run = E12_wang_refutation.run;
    };
    {
      id = "E13";
      summary = "joint 2-D fit T_B ~ n^a k^b: (a,b) near (1, -1/2) (Thms 1-2)";
      run = E13_joint_fit.run;
    };
    {
      id = "E14";
      summary = "informed-count quantiles: bulk vs straggler phases (Thm 1 proof)";
      run = E14_stragglers.run;
    };
    {
      id = "E15";
      summary = "cell-by-cell spreading wave over the tessellation (Thm 1 proof)";
      run = E15_cell_wave.run;
    };
    {
      id = "E16";
      summary = "finite-size convergence of the exponent toward -1/2";
      run = E16_finite_size.run;
    };
    {
      id = "A1";
      summary = "ablation: instant flooding vs one hop per step (par. 2)";
      run = A1_exchange_ablation.run;
    };
    {
      id = "A2";
      summary = "ablation: mobility kernels and the parity trap (par. 2)";
      run = A2_kernel_ablation.run;
    };
    {
      id = "A3";
      summary = "extension: broadcast from m simultaneous sources";
      run = A3_multi_source.run;
    };
    {
      id = "F1";
      summary = "fault injection: per-contact message loss vs T_B";
      run = F1_loss_rate.run;
    };
    {
      id = "F2";
      summary = "fault injection: periodic radio outages vs T_B";
      run = F2_outage_duty.run;
    };
    {
      id = "F3";
      summary = "fault injection: agent churn (depart/rejoin) vs T_B";
      run = F3_churn_rate.run;
    };
    {
      id = "X1";
      summary = "broadcast with mobility/communication barriers (par. 4 future work)";
      run = X1_barriers.run;
    };
    {
      id = "X2";
      summary = "dense-regime baseline (Clementi et al.): T_B ~ sqrt(n)/R (par. 1.1)";
      run = X2_dense_baseline.run;
    };
    {
      id = "X3";
      summary = "heat kernel: diffusivity 2/5 and P_t(v,v) ~ 1/t (Lemma 3 machinery)";
      run = X3_heat_kernel.run;
    };
    {
      id = "X4";
      summary = "continuum Brownian model across percolation (Peres et al., par. 1.1)";
      run = X4_continuum.run;
    };
    {
      id = "X5";
      summary = "ablation: bounded grid vs torus boundary effects";
      run = X5_torus_ablation.run;
    };
    {
      id = "L1";
      summary = "hitting probability >= c1 / log d (Lemma 1)";
      run = L1_hitting_probability.run;
    };
    {
      id = "L2";
      summary = "displacement tail and range of a walk (Lemma 2)";
      run = L2_walk_statistics.run;
    };
    {
      id = "L3";
      summary = "chi-square uniform stationarity of the lazy walk (par. 2)";
      run = L3_stationarity.run;
    };
    {
      id = "L4";
      summary = "geometric meeting-time tail over d^2 windows (Lemma 3 iterated)";
      run = L4_meeting_tail.run;
    };
    {
      id = "L5";
      summary = "worst-case mean meeting time t* = Theta(n log n) (par. 1.1 input)";
      run = L5_meeting_time.run;
    };
  ]

let find id =
  let target = String.uppercase_ascii id in
  List.find_opt (fun e -> String.uppercase_ascii e.id = target) all

let ids () = List.map (fun e -> e.id) all

let run_entries ?pool ?quick ~seed ~on_result entries =
  let pool = match pool with Some p -> p | None -> Runtime.Pool.ambient () in
  let obs_registry = Obs.Sink.registry (Obs.Sink.ambient ()) in
  Runtime.Pool.map pool
    ~on_result:(fun _index result -> on_result result)
    ~f:(fun _index entry ->
      match obs_registry with
      | None -> entry.run ?quick ~seed ()
      | Some reg ->
          (* one wall-clock gauge per experiment id: the coarse layer of
             the timing pyramid (experiment > trial > step phase) *)
          let t0 = Obs.Clock.now_ns () in
          let result = entry.run ?quick ~seed () in
          Obs.Metric.Gauge.set
            (Obs.Registry.gauge reg ("exp." ^ entry.id ^ ".wall_s"))
            (Obs.Clock.ns_to_s (Obs.Clock.now_ns () - t0));
          result)
    entries
