//! Golden pin of the one-group (`group_size: None`) HADFL simulator.
//!
//! Three `run_hadfl` configurations are rendered to a canonical text form
//! (every float by its bit pattern) and compared against
//! `tests/golden/flat_hadfl.txt`: a plain run, a run with a fault that
//! forces a ring bypass plus backups and sample-weighted merging, and a
//! telemetry run whose event stream is pinned by count and digest. Any
//! change to the flat round loop that moves a single bit fails here.
//!
//! The golden is a read-only fixture. On a mismatch the assertion names
//! the first differing line; after a deliberate, documented behaviour
//! change, edit the fixture by hand to match.

use std::fmt::Write as _;
use std::path::PathBuf;

use hadfl::driver::{run_hadfl, run_hadfl_with_telemetry, HadflRun, SimOptions};
use hadfl::{HadflConfig, Workload};
use hadfl_simnet::{DeviceId, FaultPlan, Outage, VirtualTime};
use hadfl_telemetry::{JsonlSink, SharedBuffer, Telemetry};

const POWERS: [f64; 4] = [3.0, 3.0, 1.0, 1.0];

fn f64_bits(xs: &[f64]) -> String {
    xs.iter()
        .map(|x| format!("{:016x}", x.to_bits()))
        .collect::<Vec<_>>()
        .join(",")
}

fn render(out: &mut String, name: &str, run: &HadflRun) {
    writeln!(out, "[{name}]").unwrap();
    for r in &run.trace.records {
        writeln!(
            out,
            "round {} time {:016x} epochs {:016x} loss {:08x} acc {:08x} selected {:?} versions {}",
            r.round,
            r.time_secs.to_bits(),
            r.epoch_equiv.to_bits(),
            r.train_loss.to_bits(),
            r.test_accuracy.to_bits(),
            r.selected,
            f64_bits(&r.versions),
        )
        .unwrap();
    }
    writeln!(out, "comm {:?}", run.trace.comm).unwrap();
    writeln!(out, "setup_comm {:?}", run.setup_comm).unwrap();
    writeln!(out, "backup_comm {:?}", run.backup_comm).unwrap();
    writeln!(out, "backups_taken {}", run.backups_taken).unwrap();
    writeln!(
        out,
        "strategy hyperperiod {:016x} window {:016x} local_steps {:?}",
        run.strategy.hyperperiod_secs.to_bits(),
        run.strategy.window_secs.to_bits(),
        run.strategy.local_steps,
    )
    .unwrap();
    writeln!(out, "bypass_log {:?}", run.bypass_log).unwrap();
}

/// FNV-1a, 64-bit: a stable digest with no dependency.
fn fnv1a(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3)
    })
}

fn golden_text() -> String {
    let workload = Workload::quick("mlp", 0);
    let mut out = String::new();

    // (a) The plain flat run.
    let config = HadflConfig::builder().build().unwrap();
    let opts = SimOptions::quick(&POWERS);
    let run = run_hadfl(&workload, &config, &opts).unwrap();
    render(&mut out, "plain", &run);

    // (b) A fast device (the one selection favours) that drops out across
    // the sync instant of two early windows, so the rings that selected it
    // must bypass it; backups every second round; Eq. (2) sample weighting.
    let config = HadflConfig::builder()
        .weight_by_samples(true)
        .build()
        .unwrap();
    let mut opts = SimOptions::quick(&POWERS);
    opts.backup_every = Some(2);
    // Warm-up is one epoch, which on these powers is one hyperperiod;
    // sync `r` happens `r` windows later. A device down at sync `r` is
    // unavailable for round `r + 1`, so the outages skip a sync between.
    let window = run.strategy.window_secs;
    let warmup_end = run.strategy.hyperperiod_secs;
    let outages = [1, 3]
        .iter()
        .map(|&r| {
            let sync = warmup_end + f64::from(r) * window;
            Outage::window(
                DeviceId(0),
                VirtualTime::from_secs(sync - 0.25 * window),
                VirtualTime::from_secs(sync + 0.25 * window),
            )
        })
        .collect();
    opts.faults = FaultPlan::new(outages).unwrap();
    let run = run_hadfl(&workload, &config, &opts).unwrap();
    assert!(!run.bypass_log.is_empty(), "config (b) must force a bypass");
    assert!(run.backups_taken > 0, "config (b) must take backups");
    render(&mut out, "faulted_backup_weighted", &run);

    // (c) The telemetry run: the event stream pinned by count and digest.
    let buf = SharedBuffer::new();
    let tel = Telemetry::new(4, vec![Box::new(JsonlSink::new(buf.clone()))]);
    let config = HadflConfig::builder().seed(5).build().unwrap();
    let run =
        run_hadfl_with_telemetry(&workload, &config, &SimOptions::quick(&POWERS), &tel).unwrap();
    tel.flush();
    render(&mut out, "telemetry", &run);
    let stream = buf.contents();
    writeln!(
        out,
        "events {} digest {:016x}",
        stream.iter().filter(|&&b| b == b'\n').count(),
        fnv1a(&stream)
    )
    .unwrap();
    out
}

#[test]
fn one_group_run_hadfl_matches_the_golden() {
    let path = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("tests/golden/flat_hadfl.txt");
    let actual = golden_text();
    let expected = std::fs::read_to_string(&path).expect("golden file present");
    for (i, (a, e)) in actual.lines().zip(expected.lines()).enumerate() {
        assert_eq!(a, e, "golden line {} differs", i + 1);
    }
    assert_eq!(actual, expected, "golden line count differs");
}
