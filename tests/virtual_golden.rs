//! Golden pin of the virtual-time deployed executor.
//!
//! Three `run_virtual` configurations are rendered to a canonical text
//! form (floats by their bit pattern, the virtual wall in nanoseconds)
//! and compared against their section of `tests/golden/virtual_hadfl.txt`:
//! a small `mlp` ring, an `mlp` fleet where most devices are unselected
//! every round (so the merged-model broadcast and the blend run), and a
//! `resnet18_lite` run whose many tensors include batch-norm statistics.
//! Any change to the actors, the codec or the parameter path that moves a
//! single bit or byte fails here.
//!
//! The golden is a read-only fixture. On a mismatch the assertion names
//! the first differing line; after a deliberate, documented behaviour
//! change, edit the fixture by hand to match.

use std::fmt::Write as _;
use std::path::PathBuf;
use std::time::Duration;

use hadfl::exec::{run_virtual, ThreadedOptions};
use hadfl::{HadflConfig, Workload};

const POWERS: [f64; 4] = [4.0, 2.0, 1.0, 1.0];

/// Runs one configuration and renders it as a `[name]` section.
fn render(name: &str, model: &str, config: &HadflConfig, opts: &ThreadedOptions) -> String {
    let report = run_virtual(&Workload::quick(model, 0), config, opts).unwrap();
    let mut out = String::new();
    writeln!(out, "[{name}]").unwrap();
    for r in &report.rounds {
        writeln!(
            out,
            "round {} versions {:?} selected {:?}",
            r.round, r.versions, r.selected
        )
        .unwrap();
    }
    writeln!(
        out,
        "final_accuracy {:08x}",
        report.final_accuracy.to_bits()
    )
    .unwrap();
    writeln!(out, "peer_bytes {}", report.peer_bytes).unwrap();
    writeln!(out, "comm {:?}", report.comm).unwrap();
    writeln!(out, "dropped {:?}", report.dropped).unwrap();
    writeln!(out, "wall_ns {}", report.wall.as_nanos()).unwrap();
    out
}

/// Compares `actual` with the golden section it names.
fn check(actual: &str) {
    let path = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("tests/golden/virtual_hadfl.txt");
    let golden = std::fs::read_to_string(&path).expect("golden file present");
    let header = actual.lines().next().unwrap();
    let start = golden
        .find(&format!("{header}\n"))
        .unwrap_or_else(|| panic!("golden has no {header} section"));
    let rest = &golden[start..];
    let end = rest[1..].find("\n[").map_or(rest.len(), |i| i + 2);
    let expected = &rest[..end];
    for (i, (a, e)) in actual.lines().zip(expected.lines()).enumerate() {
        assert_eq!(a, e, "{header} line {} differs", i + 1);
    }
    assert_eq!(actual, expected, "{header} line count differs");
}

/// A small mlp ring: 2 of 4 selected, 3 rounds.
#[test]
fn mlp_ring_matches_the_golden() {
    let config = HadflConfig::builder().build().unwrap();
    check(&render(
        "mlp_k4",
        "mlp",
        &config,
        &ThreadedOptions::quick(&POWERS),
    ));
}

/// Most of the fleet unselected: 3 of 8 in the ring, the other five
/// receive the merged model and blend it into their own.
#[test]
fn mlp_broadcast_and_blend_match_the_golden() {
    let config = HadflConfig::builder().num_selected(3).build().unwrap();
    let powers: Vec<f64> = POWERS.iter().chain(&POWERS).copied().collect();
    check(&render(
        "mlp_k8_select3",
        "mlp",
        &config,
        &ThreadedOptions::quick(&powers),
    ));
}

/// A model of many tensors, batch-norm statistics among them. Longer
/// emulated steps keep the debug-build compute small.
#[test]
fn resnet18_lite_matches_the_golden() {
    let config = HadflConfig::builder().build().unwrap();
    let mut opts = ThreadedOptions::quick(&POWERS);
    opts.rounds = 2;
    opts.step_sleep = Duration::from_millis(15);
    check(&render("resnet18_lite_k4", "resnet18_lite", &config, &opts));
}
