//! Integration tests of the advanced execution modes: hierarchical
//! grouping, the threaded executor, non-IID weighted aggregation, and
//! the heterogeneous-bandwidth ring.

use std::time::Duration;

use hadfl::driver::{run_hadfl, run_hadfl_with_telemetry, SimOptions};
use hadfl::exec::{run_threaded, ThreadedOptions};
use hadfl::group::partition_groups;
use hadfl::topology::Ring;
use hadfl::workload::ShardKind;
use hadfl::{HadflConfig, Workload};
use hadfl_simnet::{BandwidthMatrix, DeviceId, FaultPlan, Outage, VirtualTime};
use hadfl_telemetry::{EventKind, RingBufferSink, Telemetry};
use hadfl_tensor::SeedStream;

#[test]
fn grouped_and_flat_reach_similar_accuracy() {
    let mut workload = Workload::quick("mlp", 71);
    workload.train_size = 768;
    workload.test_size = 192;
    let mut opts = SimOptions::quick(&[2.0, 2.0, 1.0, 1.0, 2.0, 2.0, 1.0, 1.0]);
    opts.epochs_total = 10.0;

    let flat_cfg = HadflConfig::builder()
        .num_selected(4)
        .seed(71)
        .build()
        .unwrap();
    let flat = run_hadfl(&workload, &flat_cfg, &opts).unwrap();

    let grouped_cfg = HadflConfig::builder()
        .group_size(Some(4))
        .inter_group_every(2)
        .num_selected(2)
        .seed(71)
        .build()
        .unwrap();
    let grouped = run_hadfl(&workload, &grouped_cfg, &opts).unwrap();

    let fa = flat.trace.max_accuracy();
    let ga = grouped.trace.max_accuracy();
    assert!(fa > 0.5 && ga > 0.5, "flat {fa} grouped {ga}");
    assert!(
        (f64::from(fa) - f64::from(ga)).abs() < 0.25,
        "flat {fa} vs grouped {ga}"
    );
}

#[test]
fn grouped_run_is_deterministic() {
    let workload = Workload::quick("mlp", 72);
    let config = HadflConfig::builder()
        .group_size(Some(2))
        .inter_group_every(2)
        .seed(72)
        .build()
        .unwrap();
    let opts = SimOptions::quick(&[2.0, 1.0, 2.0, 1.0]);
    let a = run_hadfl(&workload, &config, &opts).unwrap();
    let b = run_hadfl(&workload, &config, &opts).unwrap();
    assert_eq!(a.trace, b.trace);
    assert_eq!(a.inter_sync_rounds, b.inter_sync_rounds);
}

#[test]
fn run_hadfl_honours_group_size() {
    let workload = Workload::quick("mlp", 2);
    let opts = SimOptions::quick(&[2.0, 1.0, 2.0, 1.0]);
    let grouped_cfg = HadflConfig::builder()
        .group_size(Some(2))
        .inter_group_every(2)
        .seed(3)
        .build()
        .unwrap();
    let run = run_hadfl(&workload, &grouped_cfg, &opts).unwrap();
    let groups: Vec<Vec<usize>> = partition_groups(4, 2)
        .unwrap()
        .iter()
        .map(|g| g.iter().map(|d| d.index()).collect())
        .collect();
    assert_eq!(groups, vec![vec![0, 1], vec![2, 3]]);
    assert!(!run.inter_sync_rounds.is_empty());
    assert!(run.inter_sync_rounds.iter().all(|r| r % 2 == 0));
    let last = run.trace.records.last().unwrap();
    assert!(last.epoch_equiv >= opts.epochs_total);
    assert!(last.test_accuracy > 0.2, "accuracy {}", last.test_accuracy);
    // Decentralized: no server *model* traffic, only control frames.
    assert!(
        run.trace.comm.server_bytes < run.trace.model_bytes,
        "server moved {} bytes (model is {})",
        run.trace.comm.server_bytes,
        run.trace.model_bytes
    );

    let flat_cfg = HadflConfig::builder()
        .inter_group_every(2)
        .seed(3)
        .build()
        .unwrap();
    let flat = run_hadfl(&workload, &flat_cfg, &opts).unwrap();
    assert!(flat.inter_sync_rounds.is_empty());
}

#[test]
fn grouped_rejects_singleton_groups() {
    let config = HadflConfig::builder().group_size(Some(2)).build().unwrap();
    // 5 devices into groups of 2 leaves a singleton.
    let opts = SimOptions::quick(&[1.0, 1.0, 1.0, 1.0, 1.0]);
    assert!(run_hadfl(&Workload::quick("mlp", 0), &config, &opts).is_err());
}

/// With a whole group down at an inter-sync round, each surviving
/// representative must still carry and broadcast its *own* group's
/// model: no `param_sync` frame may cross a group boundary.
#[test]
fn inter_group_broadcasts_stay_inside_their_group() {
    let workload = Workload::quick("mlp", 76);
    let config = HadflConfig::builder()
        .group_size(Some(2))
        .inter_group_every(2)
        .seed(76)
        .build()
        .unwrap();
    let mut opts = SimOptions::quick(&[1.0; 6]);
    // Equal powers: warm-up is one epoch, which is also the window `w`,
    // so round `r` spans `[r·w, (r+1)·w]`. Group 0 (devices 0 and 1) is
    // down from the start until mid-round 3: it misses rounds 1–3,
    // including the inter-group sync at the end of round 2.
    let window = run_hadfl(&workload, &config, &opts)
        .unwrap()
        .strategy
        .window_secs;
    let until = VirtualTime::from_secs(3.5 * window);
    opts.faults = FaultPlan::new(vec![
        Outage::window(DeviceId(0), VirtualTime::ZERO, until),
        Outage::window(DeviceId(1), VirtualTime::ZERO, until),
    ])
    .unwrap();

    let sink = RingBufferSink::new(100_000);
    let tel = Telemetry::new(6, vec![Box::new(sink.clone())]);
    let run = run_hadfl_with_telemetry(&workload, &config, &opts, &tel).unwrap();
    assert!(
        run.inter_sync_rounds.contains(&2),
        "{:?}",
        run.inter_sync_rounds
    );
    let planned_round_2: Vec<u32> = sink
        .snapshot()
        .iter()
        .filter_map(|e| match &e.kind {
            EventKind::RoundPlanned {
                round: 2,
                available,
                ..
            } => Some(available.clone()),
            _ => None,
        })
        .flatten()
        .collect();
    assert_eq!(planned_round_2, vec![2, 3, 4, 5], "group 0 must be down");

    let group = |d: u32| d / 2;
    let broadcasts: Vec<(u32, u32)> = sink
        .snapshot()
        .iter()
        .filter_map(|e| match &e.kind {
            EventKind::FrameSent { src, dst, kind, .. } if kind == "param_sync" => {
                Some((*src, *dst))
            }
            _ => None,
        })
        .collect();
    assert!(!broadcasts.is_empty());
    for (src, dst) in broadcasts {
        assert_eq!(group(src), group(dst), "param_sync {src} -> {dst}");
    }
}

#[test]
fn threaded_executor_matches_virtual_time_protocol() {
    // Same workload through both executors: both must select 2-device
    // rings, accumulate versions, and produce a finite consensus.
    let workload = Workload::quick("mlp", 73);
    let config = HadflConfig::builder()
        .num_selected(2)
        .seed(73)
        .build()
        .unwrap();

    let virtual_run = run_hadfl(&workload, &config, &SimOptions::quick(&[2.0, 1.0, 1.0])).unwrap();
    let threaded = run_threaded(
        &workload,
        &config,
        &ThreadedOptions {
            powers: vec![2.0, 1.0, 1.0],
            step_sleep: Duration::from_millis(4),
            window: Duration::from_millis(50),
            rounds: 3,
            timing: hadfl::exec::ProtocolTiming::quick(),
        },
    )
    .unwrap();

    for r in &virtual_run.trace.records {
        assert_eq!(r.selected.len(), 2);
    }
    for r in &threaded.rounds {
        assert_eq!(r.selected.len(), 2);
    }
    assert!(threaded.final_accuracy.is_finite());
    assert!(threaded.peer_bytes > 0);
}

#[test]
fn noniid_weighted_aggregation_end_to_end() {
    let mut workload = Workload::quick("mlp", 74);
    workload.shard = ShardKind::Dirichlet { alpha: 0.5 };
    let mut opts = SimOptions::quick(&[3.0, 3.0, 1.0, 1.0]);
    opts.epochs_total = 10.0;
    let config = HadflConfig::builder()
        .weight_by_samples(true)
        .seed(74)
        .build()
        .unwrap();
    let run = run_hadfl(&workload, &config, &opts).unwrap();
    assert!(
        run.trace.max_accuracy() > 0.3,
        "accuracy {}",
        run.trace.max_accuracy()
    );
}

#[test]
fn bandwidth_aware_ring_avoids_slow_links_when_possible() {
    let net = BandwidthMatrix::two_clusters(6, 3, 0.0, 1e9, 1e5).unwrap();
    let members: Vec<DeviceId> = (0..6).map(DeviceId).collect();
    let mut rng = SeedStream::new(75);
    for _ in 0..5 {
        let ring = Ring::greedy_bandwidth(&members, &net, &mut rng).unwrap();
        let crossings = ring
            .members()
            .iter()
            .enumerate()
            .filter(|&(i, &from)| {
                let to = ring.members()[(i + 1) % ring.len()];
                net.bandwidth(from, to).unwrap() < 1e9
            })
            .count();
        assert_eq!(crossings, 2, "minimum crossings for two clusters: {ring}");
    }
}
