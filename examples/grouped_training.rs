//! Hierarchical grouping (paper §III-C, Fig. 2a): eight devices in two
//! groups of four; intra-group rings every round, inter-group
//! representative rings every second round.
//!
//! Run: `cargo run --release --example grouped_training`

use hadfl::driver::{run_hadfl, SimOptions};
use hadfl::group::partition_groups;
use hadfl::{HadflConfig, Workload};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let mut workload = Workload::quick("mlp", 11);
    workload.train_size = 768; // 96 samples per device across 8 devices
    workload.test_size = 192;

    // Two fast + two slow devices per group.
    let mut opts = SimOptions::quick(&[2.0, 2.0, 1.0, 1.0, 2.0, 2.0, 1.0, 1.0]);
    opts.epochs_total = 10.0;

    let group_size = 4;
    let config = HadflConfig::builder()
        .group_size(Some(group_size))
        .inter_group_every(2)
        .num_selected(2)
        .seed(11)
        .build()?;

    let groups: Vec<Vec<usize>> = partition_groups(opts.powers.len(), group_size)?
        .iter()
        .map(|g| g.iter().map(|d| d.index()).collect())
        .collect();
    let run = run_hadfl(&workload, &config, &opts)?;
    println!("groups: {groups:?}");
    println!(
        "inter-group synchronizations fired at rounds {:?} (period 2)",
        run.inter_sync_rounds
    );
    let last = run.trace.records.last().expect("at least one round");
    println!(
        "final test accuracy {:.1}% after {:.1} epoch-equivalents in {:.2} virtual s",
        last.test_accuracy * 100.0,
        last.epoch_equiv,
        last.time_secs
    );
    println!(
        "server traffic: {} bytes of control frames, no model (one model is {} bytes) — \
         decentralized at both tiers",
        run.trace.comm.server_bytes, run.trace.model_bytes
    );
    Ok(())
}
