(* Multi-tenant device simulation (lib/tenancy): the Stats fairness /
   slowdown helpers, admission-policy decision rules, traffic generation,
   run-to-run and cross-parallelism byte-identity, and the pinned
   congestion-under-tenancy experiment margins. *)

let t name f = Alcotest.test_case name `Quick f

(* ---- Harness.Stats helpers ---- *)

let stats_suite =
  [
    t "jain fairness: hand-computed values" (fun () ->
        Alcotest.(check (float 1e-9)) "equal shares" 1.0
          (Harness.Stats.jain_fairness [ 3.0; 3.0; 3.0; 3.0 ]);
        (* (1 + 0.5)^2 / (2 * (1 + 0.25)) = 2.25 / 2.5 *)
        Alcotest.(check (float 1e-9)) "two unequal" 0.9
          (Harness.Stats.jain_fairness [ 1.0; 0.5 ]);
        (* one tenant starving three: index tends to 1/n;
           103^2 / (4 * 10003) *)
        Alcotest.(check (float 1e-9)) "1 of 4 dominant"
          (10609.0 /. 40012.0)
          (Harness.Stats.jain_fairness [ 100.0; 1.0; 1.0; 1.0 ]);
        Alcotest.(check bool) "empty is nan" true
          (Float.is_nan (Harness.Stats.jain_fairness [])));
    t "jain fairness rejects non-positive shares" (fun () ->
        Alcotest.check_raises "zero share"
          (Invalid_argument "Stats.jain_fairness: non-positive share 0")
          (fun () -> ignore (Harness.Stats.jain_fairness [ 1.0; 0.0 ])));
    t "slowdown: mean of pairwise ratios" (fun () ->
        Alcotest.(check (float 1e-9)) "hand-computed" 2.0
          (Harness.Stats.slowdown ~shared:[ 2.0; 4.0 ] ~isolated:[ 1.0; 2.0 ]);
        Alcotest.(check (float 1e-9)) "no interference" 1.0
          (Harness.Stats.slowdown ~shared:[ 5.0 ] ~isolated:[ 5.0 ]);
        Alcotest.(check bool) "empty is nan" true
          (Float.is_nan (Harness.Stats.slowdown ~shared:[] ~isolated:[])));
    t "slowdown contract: mismatch and non-positive isolated" (fun () ->
        Alcotest.check_raises "length mismatch"
          (Invalid_argument "Stats.slowdown: length mismatch") (fun () ->
            ignore (Harness.Stats.slowdown ~shared:[ 1.0 ] ~isolated:[]));
        Alcotest.check_raises "zero isolated"
          (Invalid_argument "Stats.slowdown: non-positive isolated latency 0")
          (fun () ->
            ignore (Harness.Stats.slowdown ~shared:[ 1.0 ] ~isolated:[ 0.0 ])));
  ]

(* ---- admission policies ---- *)

let cand ~tenant ~global ~inflight =
  { Tenancy.Policy.cd_tenant = tenant; cd_global = global; cd_inflight = inflight }

let policy_suite =
  [
    t "of_string round-trips and rejects junk" (fun () ->
        let ok s =
          match Tenancy.Policy.of_string s with
          | Ok p -> Tenancy.Policy.to_string p
          | Error e -> Alcotest.failf "%s rejected: %s" s e
        in
        Alcotest.(check string) "fifo" "fifo" (ok "fifo");
        Alcotest.(check string) "rr" "rr" (ok "RR");
        Alcotest.(check string) "fair" "fair" (ok "fair");
        Alcotest.(check string) "fair weights" "fair:4,2,1" (ok "fair:4,2,1");
        Alcotest.(check string) "priority default" "priority:2" (ok "priority");
        Alcotest.(check string) "priority bound" "priority:3" (ok "priority:3");
        List.iter
          (fun s ->
            match Tenancy.Policy.of_string s with
            | Error _ -> ()
            | Ok p ->
                Alcotest.failf "%S parsed as %s" s (Tenancy.Policy.to_string p))
          [ "lifo"; "fair:"; "fair:0,1"; "fair:x"; "priority:0"; "priority:x" ]);
    t "fifo picks the globally earliest head" (fun () ->
        let st = Tenancy.Policy.init Tenancy.Policy.Fifo ~tenants:3 in
        Alcotest.(check (option int)) "earliest global wins" (Some 2)
          (Tenancy.Policy.select Tenancy.Policy.Fifo st
             [
               cand ~tenant:0 ~global:5 ~inflight:0;
               cand ~tenant:2 ~global:1 ~inflight:3;
             ]));
    t "round-robin cycles past the last admitted tenant" (fun () ->
        let p = Tenancy.Policy.Round_robin in
        let st = Tenancy.Policy.init p ~tenants:3 in
        let all =
          [
            cand ~tenant:0 ~global:0 ~inflight:0;
            cand ~tenant:1 ~global:1 ~inflight:0;
            cand ~tenant:2 ~global:2 ~inflight:0;
          ]
        in
        Alcotest.(check (option int)) "starts at 0" (Some 0)
          (Tenancy.Policy.select p st all);
        Tenancy.Policy.admitted st ~tenant:0 ~work:1.0;
        Alcotest.(check (option int)) "then 1" (Some 1)
          (Tenancy.Policy.select p st all);
        Tenancy.Policy.admitted st ~tenant:1 ~work:1.0;
        Tenancy.Policy.admitted st ~tenant:2 ~work:1.0;
        Alcotest.(check (option int)) "wraps to 0" (Some 0)
          (Tenancy.Policy.select p st all);
        Alcotest.(check (option int)) "skips tenants with empty queues"
          (Some 2)
          (Tenancy.Policy.select p st
             [ cand ~tenant:2 ~global:9 ~inflight:0 ]));
    t "weighted fair picks the least served per unit weight" (fun () ->
        let p = Tenancy.Policy.Fair (Some [| 2.0; 1.0 |]) in
        let st = Tenancy.Policy.init p ~tenants:2 in
        let both =
          [
            cand ~tenant:0 ~global:0 ~inflight:0;
            cand ~tenant:1 ~global:1 ~inflight:0;
          ]
        in
        (* ties break toward the lower tenant *)
        Alcotest.(check (option int)) "tie -> tenant 0" (Some 0)
          (Tenancy.Policy.select p st both);
        Tenancy.Policy.admitted st ~tenant:0 ~work:10.0;
        (* tenant 0 at 10/2 = 5 vs tenant 1 at 0 *)
        Alcotest.(check (option int)) "least share" (Some 1)
          (Tenancy.Policy.select p st both);
        Tenancy.Policy.admitted st ~tenant:1 ~work:10.0;
        (* 5 vs 10: double weight means tenant 0 again *)
        Alcotest.(check (option int)) "weight favors 0" (Some 0)
          (Tenancy.Policy.select p st both));
    t "fair weights arity is checked" (fun () ->
        Alcotest.check_raises "arity"
          (Invalid_argument
             "Policy: fair weights arity 2 does not match 3 tenants")
          (fun () ->
            ignore
              (Tenancy.Policy.init
                 (Tenancy.Policy.Fair (Some [| 1.0; 2.0 |]))
                 ~tenants:3)));
    t "priority backpressure stalls, never drops" (fun () ->
        let p = Tenancy.Policy.Priority { bound = 2 } in
        let st = Tenancy.Policy.init p ~tenants:2 in
        Alcotest.(check (option int)) "lowest id first" (Some 0)
          (Tenancy.Policy.select p st
             [
               cand ~tenant:0 ~global:7 ~inflight:1;
               cand ~tenant:1 ~global:0 ~inflight:0;
             ]);
        Alcotest.(check (option int)) "bounded tenant skipped" (Some 1)
          (Tenancy.Policy.select p st
             [
               cand ~tenant:0 ~global:7 ~inflight:2;
               cand ~tenant:1 ~global:0 ~inflight:0;
             ]);
        (* every waiting tenant at its bound: the slot stays idle *)
        Alcotest.(check (option int)) "all at bound -> stall" None
          (Tenancy.Policy.select p st
             [
               cand ~tenant:0 ~global:7 ~inflight:2;
               cand ~tenant:1 ~global:0 ~inflight:2;
             ]));
  ]

(* ---- traffic generation ---- *)

let traffic_suite =
  [
    t "traffic is a pure function of its config" (fun () ->
        let a = Tenancy.Traffic.jobs Tenancy.Traffic.default in
        let b = Tenancy.Traffic.jobs Tenancy.Traffic.default in
        Alcotest.(check bool) "identical" true (a = b);
        let c =
          Tenancy.Traffic.jobs { Tenancy.Traffic.default with seed = 43 }
        in
        Alcotest.(check bool) "seed changes it" false (a = c));
    t "jobs are sorted by arrival with dense global ranks" (fun () ->
        let js = Tenancy.Traffic.jobs Tenancy.Traffic.default in
        let arrivals = List.map (fun j -> j.Tenancy.Traffic.jb_arrival) js in
        Alcotest.(check bool) "sorted" true
          (List.sort compare arrivals = arrivals);
        Alcotest.(check (list int)) "dense ranks"
          (List.init (List.length js) Fun.id)
          (List.map (fun j -> j.Tenancy.Traffic.jb_global) js);
        Alcotest.(check int) "tenants x jobs_per_tenant"
          (Tenancy.Traffic.default.tenants
          * Tenancy.Traffic.default.jobs_per_tenant)
          (List.length js));
    t "zipf mix: tenant 0 is the heavyweight" (fun () ->
        let js = Tenancy.Traffic.jobs Tenancy.Traffic.default in
        let mean_work t =
          let ws =
            List.filter_map
              (fun j ->
                if j.Tenancy.Traffic.jb_tenant = t then
                  Some (Tenancy.Traffic.work j)
                else None)
              js
          in
          Harness.Stats.mean ws
        in
        Alcotest.(check bool) "tenant 0 heavier than tenant 3" true
          (mean_work 0 > 2.0 *. mean_work 3));
    t "degenerate configs are rejected" (fun () ->
        Alcotest.check_raises "no tenants"
          (Invalid_argument "Traffic: tenants must be positive") (fun () ->
            ignore
              (Tenancy.Traffic.jobs { Tenancy.Traffic.default with tenants = 0 })));
  ]

(* ---- determinism of the full simulation ---- *)

let test_cell : Tenancy.Sim.cell =
  {
    sm_cfg = Gpusim.Config.default;
    policy = Tenancy.Policy.Fair None;
    slots = 8;
  }

let test_traffic = Tenancy.Traffic.default (* 4 tenants, bursty *)

let determinism_suite =
  [
    t "repeated shared runs are identical (dumps, latencies, metrics)"
      (fun () ->
        let app = Tenancy.App.compile Tenancy.App.baseline_opts in
        let js = Tenancy.Traffic.jobs test_traffic in
        let a = Tenancy.Sim.run test_cell ~tenants:test_traffic.tenants app js in
        let b = Tenancy.Sim.run test_cell ~tenants:test_traffic.tenants app js in
        Alcotest.(check bool) "byte-identical runs" true (a = b);
        Alcotest.(check int) "every job completed"
          (List.length js) (List.length a.rn_jobs));
    t "experiment JSON is byte-identical at -j 1 and -j 4" (fun () ->
        let at jobs =
          Harness.Pool.with_pool ~jobs (fun pool ->
              Tenancy.Report.json_of_result
                (Tenancy.Report.run ~pool test_cell test_traffic))
        in
        Alcotest.(check string) "-j levels agree" (at 1) (at 4));
    t "experiment artifact matches its frozen digest" (fun () ->
        let json =
          Tenancy.Report.json_of_result
            (Tenancy.Report.run test_cell test_traffic)
        in
        Test_corpus.golden_line ~file:"sim_fixtures.fingerprints"
          ~key:"tenancy: default traffic, fair policy, 8 slots"
          (Digest.to_hex (Digest.string json)));
    t "priority bound 1 serializes each tenant's jobs" (fun () ->
        let cell =
          { test_cell with policy = Tenancy.Policy.Priority { bound = 1 } }
        in
        let app = Tenancy.App.compile Tenancy.App.optimized_opts in
        let js = Tenancy.Traffic.jobs test_traffic in
        let r = Tenancy.Sim.run cell ~tenants:test_traffic.tenants app js in
        (* backpressure: in admission order (arrival jitter can reorder a
           burst's jobs, so seq order is not admission order), a tenant's
           next job cannot be admitted before the previous one finished —
           and it is admitted eventually, not dropped *)
        Alcotest.(check int) "all jobs ran" (List.length js)
          (List.length r.rn_jobs);
        List.iter
          (fun t ->
            let mine =
              List.filter (fun (j : Tenancy.Sim.job_result) -> j.jr_tenant = t)
                r.rn_jobs
              |> List.sort (fun (a : Tenancy.Sim.job_result) b ->
                     compare a.jr_admit b.jr_admit)
            in
            ignore
              (List.fold_left
                 (fun prev_finish (j : Tenancy.Sim.job_result) ->
                   Alcotest.(check bool) "admit after previous finish" true
                     (j.jr_admit >= prev_finish);
                   j.jr_finish)
                 0.0 mine))
          (List.init test_traffic.tenants Fun.id));
  ]

(* ---- the pinned congestion-under-tenancy experiment ----

   Locked margins for the 4-tenant bursty default traffic under the fair
   policy with 8 slots (measured: baseline 3.87x mean slowdown, optimized
   1.00x, recovery 3.87x, optimized fairness 1.000). The margins leave
   ~2x headroom so they pin the effect, not the exact figures. *)

let experiment_suite =
  [
    t "baseline congests under tenancy; the pipeline recovers it" (fun () ->
        let r = Tenancy.Report.run test_cell test_traffic in
        Alcotest.(check bool) "baseline slowdown over 2x" true
          (r.rs_baseline.cp_mean_slowdown > 2.0);
        Alcotest.(check bool) "optimized slowdown under 1.5x" true
          (r.rs_optimized.cp_mean_slowdown < 1.5);
        Alcotest.(check bool) "recovery at least 2x" true
          (r.rs_recovery >= 2.0);
        Alcotest.(check bool) "optimized fairness at least 0.95" true
          (r.rs_optimized.cp_fairness >= 0.95);
        (* the congestion is attributed to the shared launch queue: under
           the baseline every tenant's queue wait dwarfs its optimized one *)
        List.iter2
          (fun (b : Tenancy.Report.tenant_report)
               (o : Tenancy.Report.tenant_report) ->
            Alcotest.(check bool) "baseline queue wait dominates" true
              (b.tr_queue_wait > 100.0 *. Float.max 1.0 o.tr_queue_wait);
            Alcotest.(check bool) "optimized launches far fewer grids" true
              (o.tr_device_launches * 10 < b.tr_device_launches))
          r.rs_baseline.cp_tenants r.rs_optimized.cp_tenants);
  ]

let suite =
  stats_suite @ policy_suite @ traffic_suite @ determinism_suite
  @ experiment_suite
