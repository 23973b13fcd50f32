//! The four workloads, their measurement and their output checks.

use std::time::{Duration, Instant};

use hadfl::exec::{run_virtual, ProtocolTiming, ThreadedOptions, ThreadedReport};
use hadfl::transport::{endpoint_of, ChannelPort, ChannelTransport, Port};
use hadfl::wire::{self, Message};
use hadfl::workload::BuiltWorkload;
use hadfl::{HadflConfig, HadflError, Workload};
use hadfl_nn::LrSchedule;

use crate::relay::{self, Hops, Relay};
use crate::stats::{median, quantile};
use crate::trace::{self, Layer, TimedPort, Trace};
use crate::traced::{run_traced, same_report};

/// Workload names, in the order `BENCHMARK.json` lists them.
pub const WORKLOADS: [&str; 4] = ["sim-compute", "sim-sync", "sim-fleet", "tcp-relay"];

/// The ledger must cover at least this share of the traced wall.
pub const MIN_COVERAGE: f64 = 0.90;

/// Ports in the relay ring (the `tcp-relay` workload and the sim
/// workloads' channel relay).
const RING: usize = 4;

/// Fewest relay runs of the sim workloads' channel relay.
const CHANNEL_RUNS: usize = 20;

/// One metric of the result line.
#[derive(Debug, Clone)]
pub struct Metric {
    /// Name as `BENCHMARK.json` lists it.
    pub name: &'static str,
    /// Value as measured.
    pub value: f64,
    /// Unit as `BENCHMARK.json` lists it.
    pub unit: &'static str,
}

/// What one benchmark invocation reports.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Operations tried (runs, hops, checks).
    pub attempted: u64,
    /// Operations that failed an output check.
    pub failed: u64,
    /// The metrics, end-to-end or per-layer depending on the mode.
    pub metrics: Vec<Metric>,
    /// Messages explaining each failure.
    pub failures: Vec<String>,
    /// A trace to write out, with a one-line ledger summary.
    pub trace: Option<(Trace, String)>,
}

impl Outcome {
    fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            self.failures.push(what());
        }
    }

    fn metric(&mut self, name: &'static str, value: f64, unit: &'static str) {
        self.metrics.push(Metric { name, value, unit });
    }
}

/// SplitMix64: derives independent seeds from the workload seed.
fn mix(seed: u64, stream: u64) -> u64 {
    let mut z = seed ^ stream.wrapping_mul(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// The paper's power ratios, repeated over `k` devices.
fn powers(k: usize) -> Vec<f64> {
    [4.0, 2.0, 1.0, 1.0]
        .iter()
        .copied()
        .cycle()
        .take(k)
        .collect()
}

/// The fixed task of every sim workload: dataset draw, sharding and
/// model initialization (`Workload::seed`). Only the protocol's own
/// randomness comes from the benchmark seed (see [`SimSpec::new`]).
const TASK_SEED: u64 = 0x00E2_E5EED;

/// A `run_virtual` workload: its inputs, derived from the seed.
#[derive(Debug, Clone)]
pub struct SimSpec {
    /// Model and data.
    pub workload: Workload,
    /// HADFL hyper-parameters.
    pub config: HadflConfig,
    /// Devices, timing and rounds.
    pub opts: ThreadedOptions,
}

impl SimSpec {
    /// The spec of sim workload `name` for `seed`.
    ///
    /// The seed sets `HadflConfig::seed`, which drives the Eq. 8
    /// selection draws and ring order. The task itself is fixed
    /// ([`TASK_SEED`]), like a benchmark dataset: after four or five
    /// rounds a model is mid-training, and its accuracy swings by more
    /// than any allowed bound between data and initialization draws.
    /// The quick workloads use a less noisy task (noise 0.5) and
    /// `lr` 0.1 so their accuracy is well above chance.
    ///
    /// # Errors
    ///
    /// An unknown name or an invalid configuration.
    pub fn new(name: &str, seed: u64) -> Result<Self, HadflError> {
        let quick = |model: &str| {
            let mut w = Workload::quick(model, TASK_SEED);
            w.data_spec.noise = 0.5;
            w
        };
        let (workload, k, selected, step_sleep, rounds, lr) = match name {
            "sim-compute" => (quick("resnet18_lite"), 4, 2, 4, 4, 0.1),
            "sim-sync" => {
                let mut w = Workload::experiment("mlp", TASK_SEED);
                w.device_batch = 4;
                (w, 16, 8, 240, 200, 0.01)
            }
            "sim-fleet" => {
                let mut w = quick("mlp");
                w.device_batch = 4;
                w.train_size = 1024 * w.device_batch;
                (w, 1024, 8, 240, 5, 0.1)
            }
            // A small run for the benchmark's own tests.
            "self-test" => (Workload::quick("mlp", TASK_SEED), 4, 2, 4, 3, 0.01),
            other => {
                return Err(HadflError::InvalidConfig(format!(
                    "unknown sim workload {other}"
                )))
            }
        };
        let config = HadflConfig::builder()
            .num_selected(selected)
            .lr(lr)
            .seed(mix(seed, 2))
            .build()?;
        let opts = ThreadedOptions {
            powers: powers(k),
            step_sleep: Duration::from_millis(step_sleep),
            window: Duration::from_millis(60),
            rounds,
            timing: ProtocolTiming::quick(),
        };
        Ok(SimSpec {
            workload,
            config,
            opts,
        })
    }

    fn k(&self) -> usize {
        self.opts.powers.len()
    }

    fn run(&self) -> Result<ThreadedReport, HadflError> {
        run_virtual(&self.workload, &self.config, &self.opts)
    }
}

/// Process high-water mark, in MB.
fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(f64::NAN, |kb| kb / 1024.0)
}

/// Repeats `f` at least `min` times, until `max` samples or `budget`
/// is spent, returning each call's wall time in seconds and the last
/// value.
fn repeat<T>(
    min: usize,
    max: usize,
    budget: Duration,
    mut f: impl FnMut() -> Result<T, HadflError>,
) -> Result<(Vec<f64>, T), HadflError> {
    let start = Instant::now();
    let mut times = Vec::new();
    loop {
        let t = Instant::now();
        let value = f()?;
        times.push(t.elapsed().as_secs_f64());
        if times.len() >= max || (times.len() >= min && start.elapsed() >= budget) {
            return Ok((times, value));
        }
    }
}

/// Runs workload `name` for `seconds`, traced or not.
///
/// # Errors
///
/// Failures that leave nothing to measure (a run that cannot start);
/// everything else is counted in [`Outcome::failed`].
pub fn run(name: &str, seed: u64, seconds: u64, traced: bool) -> Result<Outcome, HadflError> {
    let budget = Duration::from_secs(seconds);
    match name {
        "tcp-relay" => tcp_relay(seed, budget, traced),
        _ => sim(&SimSpec::new(name, seed)?, budget, traced),
    }
}

/// Checks one `run_virtual` report: every round finished, no device
/// dropped, and (given the seed's reference run) the same report.
fn check_report(
    out: &mut Outcome,
    spec: &SimSpec,
    reference: Option<&ThreadedReport>,
    r: Result<&ThreadedReport, &HadflError>,
) {
    let r = match r {
        Ok(r) => r,
        Err(e) => return out.check(false, || format!("run_virtual failed: {e}")),
    };
    out.check(r.rounds.len() == spec.opts.rounds, || {
        format!("finished {} of {} rounds", r.rounds.len(), spec.opts.rounds)
    });
    out.check(r.dropped.is_empty(), || {
        format!("dropped devices {:?}", r.dropped)
    });
    if let Some(reference) = reference {
        out.check(same_report(r, reference), || {
            "run_virtual is not deterministic for one seed".into()
        });
    }
}

/// Setup of a sim workload: the first `hadfl-par` dispatch (lazy pool
/// spawn and calibration, once per process) plus the median of several
/// `Workload::build(k)` calls. Returns seconds, the build times and the
/// last build.
fn sim_setup(spec: &SimSpec) -> Result<(f64, Vec<f64>, BuiltWorkload), HadflError> {
    let t = Instant::now();
    std::hint::black_box(hadfl_par::calibration());
    let par_s = t.elapsed().as_secs_f64();
    let (builds, built) = repeat(5, 9, Duration::from_millis(1500), || {
        spec.workload.build(spec.k())
    })?;
    Ok((par_s + median(&builds), builds, built))
}

/// Checks a traced run against the seed's reference report and its
/// ledger's coverage; returns the trace.
fn check_traced(
    out: &mut Outcome,
    reference: &ThreadedReport,
    r: Result<(ThreadedReport, Trace), HadflError>,
) -> Option<Trace> {
    match r {
        Ok((t, trace)) => {
            out.check(same_report(&t, reference), || {
                format!(
                    "traced run differs from run_virtual: accuracy {} vs {}, peer_mb {} vs {}",
                    t.final_accuracy,
                    reference.final_accuracy,
                    t.peer_bytes as f64 / 1e6,
                    reference.peer_bytes as f64 / 1e6
                )
            });
            check_coverage(out, &trace);
            Some(trace)
        }
        Err(e) => {
            out.check(false, || format!("traced run failed: {e}"));
            None
        }
    }
}

fn check_coverage(out: &mut Outcome, trace: &Trace) {
    let cov = trace.coverage();
    out.check(cov >= MIN_COVERAGE, || {
        format!("ledger coverage {cov:.3} < {MIN_COVERAGE}")
    });
}

fn count_hops(out: &mut Outcome, hops: &Hops, what: &str) {
    out.attempted += hops.attempted;
    out.failed += hops.failed;
    if hops.failed > 0 {
        out.failures
            .push(format!("{} {what} hops failed", hops.failed));
    }
}

/// A sim workload: timed `run_virtual` calls (alternating with traced
/// runs in traced mode). The hop metrics come from a relay over four
/// in-process `ChannelPort`s (the fabric `run_virtual` uses) carrying
/// this workload's parameter vector; its runs are spread between the
/// `run_virtual` calls so they sample the same stretch of time.
fn sim(spec: &SimSpec, budget: Duration, traced: bool) -> Result<Outcome, HadflError> {
    let mut out = Outcome::default();
    let (setup_s, builds, built) = sim_setup(spec)?;
    let mut relay = Relay::new(channel_ports(), built.runtimes[0].model.param_vector());
    drop(built);

    // Warm-up, and the reference every later run must equal.
    let reference = spec.run()?;
    check_report(&mut out, spec, None, Ok(&reference));
    relay.run_for(Duration::ZERO, 2, &mut Hops::default());

    let start = Instant::now();
    let (mut plain_s, mut traced_s) = (Vec::new(), Vec::new());
    let mut hops = Hops::default();
    let mut last = None;
    while plain_s.len() < 3 || start.elapsed() < budget {
        let t = Instant::now();
        let r = spec.run();
        plain_s.push(t.elapsed().as_secs_f64());
        check_report(&mut out, spec, Some(&reference), r.as_ref());
        relay.pause();
        relay.run_for(Duration::ZERO, 2, &mut hops);
        if traced {
            let t = Instant::now();
            let r = run_traced(&spec.workload, &spec.config, &spec.opts);
            traced_s.push(t.elapsed().as_secs_f64());
            last = check_traced(&mut out, &reference, r).or(last);
        }
    }
    let short = CHANNEL_RUNS.saturating_sub(hops.run_s.len());
    relay.pause();
    relay.run_for(Duration::ZERO, short, &mut hops);
    count_hops(&mut out, &hops, "channel relay");

    if !traced {
        let rss = peak_rss_mb();
        // Faithfulness: the traced copy of the driver must agree.
        let r = run_traced(&spec.workload, &spec.config, &spec.opts);
        check_traced(&mut out, &reference, r);
        out.metric("setup_s", setup_s, "s");
        out.metric("run_s", median(&plain_s), "s");
        out.metric(
            "final_accuracy",
            f64::from(reference.final_accuracy),
            "ratio",
        );
        out.metric("peer_mb", reference.peer_bytes as f64 / 1e6, "MB");
        out.metric("hop_us.p50", quantile(&hops.param_us, 0.5), "us");
        out.metric("peak_rss_mb", rss, "MB");
        return Ok(out);
    }

    let Some(trace) = last else {
        return Err(HadflError::InvalidConfig("no traced run succeeded".into()));
    };
    let overhead = (median(&traced_s) - median(&plain_s)) / median(&plain_s);
    let rounds = reference.rounds.len() as f64;
    let frame = relay.param().clone();
    ledger_metrics(&mut out, &trace, overhead, &builds, rounds, &hops, &frame)?;
    // A channel frame is the payload plus the causal stamp.
    let ctl = Message::ReportRequest { round: 1 };
    let payload = (frame.encoded_len() + ctl.encoded_len()) as f64;
    let raw = payload + 2.0 * wire::STAMP_LEN as f64;
    out.metric("relay.raw_over_payload", raw / payload, "ratio");
    Ok(out)
}

fn channel_ports() -> Vec<ChannelPort> {
    let mut hub = ChannelTransport::hub(RING);
    (0..RING)
        .map(|i| hub.claim(i).expect("a fresh hub has every id free"))
        .collect()
}

/// The per-layer metrics every workload reports. `rounds` divides the
/// ring-frame count; for the relay, whose trace has no round plans,
/// the ring laps stand in for rounds.
fn ledger_metrics(
    out: &mut Outcome,
    trace: &Trace,
    overhead: f64,
    builds: &[f64],
    rounds: f64,
    hops: &Hops,
    frame: &Message,
) -> Result<(), HadflError> {
    let wall = trace.wall_ns.max(1) as f64;
    let cov = trace.coverage();
    let self_ns = trace.self_ns();
    out.metric("trace.wall_ms", wall / 1e6, "ms");
    out.metric("trace.overhead_pct", overhead * 100.0, "%");
    out.metric("ledger.coverage", cov, "ratio");
    for layer in Layer::ALL {
        let pct = self_ns[layer as usize] as f64 / wall * 100.0;
        out.metric(pct_name(layer), pct, "%");
    }
    let round_ms = trace.round_ms();
    let laps = if round_ms.is_empty() {
        &hops.lap_ms
    } else {
        &round_ms
    };
    out.metric("round.ms.p50", quantile(laps, 0.5), "ms");
    out.metric("round.ms.p99", quantile(laps, 0.99), "ms");
    let c = &trace.counts;
    let ring_frames = if round_ms.is_empty() {
        // Every relay lap is RING param hops.
        RING as f64
    } else {
        c.ring_frames as f64 / rounds.max(1.0)
    };
    out.metric("ring.frames_per_round", ring_frames, "count");
    out.metric("setup.build_ms", median(builds) * 1e3, "ms");
    out.metric("compute.steps", c.steps as f64, "count");
    out.metric("params.copies", c.param_copies as f64, "count");
    out.metric("port.sends", c.sends as f64, "count");
    out.metric("port.recvs", c.recvs as f64, "count");
    out.metric("port.send_mb", c.send_bytes as f64 / 1e6, "MB");
    out.metric("planner.plans", c.plans as f64, "count");
    let (seal, open) = relay::codec_us(frame, 400)?;
    out.metric("wire.seal_us.p50", quantile(&seal, 0.5), "us");
    out.metric("wire.open_us.p50", quantile(&open, 0.5), "us");
    out.metric("relay.send_us.p50", quantile(&hops.send_us, 0.5), "us");
    out.metric(
        "relay.recv_wait_us.p50",
        quantile(&hops.recv_wait_us, 0.5),
        "us",
    );
    out.metric("relay.hop_us.p90", quantile(&hops.param_us, 0.9), "us");
    out.metric("relay.hop_us.p99", quantile(&hops.param_us, 0.99), "us");
    out.metric("relay.ctl_hop_us.p50", quantile(&hops.ctl_us, 0.5), "us");

    let step_us = trace.durations_us("compute.train_step");
    let plan_us = trace.durations_us("planner.plan");
    let mut summary = format!(
        "ledger coverage {cov:.3}, tracing overhead {:.1}%, self ms:",
        overhead * 100.0
    );
    for layer in Layer::ALL {
        summary += &format!(
            " {} {:.1}",
            layer.name(),
            self_ns[layer as usize] as f64 / 1e6
        );
    }
    summary += &format!(
        "; compute.step_us.p50 {:.1}, planner.plan_us.p50 {:.1}",
        quantile(&step_us, 0.5),
        quantile(&plan_us, 0.5)
    );
    out.trace = Some((trace.clone(), summary));
    Ok(())
}

fn pct_name(layer: Layer) -> &'static str {
    match layer {
        Layer::Setup => "setup.pct",
        Layer::Driver => "driver.pct",
        Layer::Device => "device.pct",
        Layer::Coord => "coord.pct",
        Layer::Compute => "compute.pct",
        Layer::Params => "params.pct",
        Layer::Port => "port.pct",
        Layer::Planner => "planner.pct",
        Layer::Consensus => "consensus.pct",
    }
}

/// The relay's payload: the `sim-sync` model (51,626 parameters) built
/// for the seed and trained for a few steps, so the model that crosses
/// the sockets scores well above chance. Returns its workload,
/// parameters and accuracy.
fn relay_payload(seed: u64) -> Result<(Workload, Vec<f32>, f32), HadflError> {
    let workload = Workload::experiment("mlp", mix(seed, 1));
    let mut built = workload.build(1)?;
    let rt = &mut built.runtimes[0];
    rt.set_optimizer(LrSchedule::constant(0.01), 0.9);
    rt.train_steps(32)?;
    let params = rt.model.param_vector();
    let accuracy = built.evaluate_params(&params)?.accuracy;
    Ok((workload, params, accuracy))
}

/// Payload bytes the ring's ports have sent.
fn sent_bytes<P: Port>(ports: &[P]) -> u64 {
    let k = ports.len() - 1;
    ports
        .iter()
        .map(|p| p.stats().sent_by(endpoint_of(p.id(), k)))
        .sum()
}

/// The `tcp-relay` workload: four loopback `TcpPort`s in one process,
/// one benchmark thread relaying the frames round the ring.
fn tcp_relay(seed: u64, budget: Duration, traced: bool) -> Result<Outcome, HadflError> {
    let mut out = Outcome::default();
    let (workload, params, accuracy) = relay_payload(seed)?;

    // Setup: bind, into_port and first dial of all four ports, several
    // times; the last ring is kept.
    let (setups, ports) = repeat(9, 15, Duration::from_millis(600), || relay::tcp_ring(RING))?;

    if !traced {
        let mut relay = Relay::new(ports, params.clone());
        relay.run_for(Duration::ZERO, 1, &mut Hops::default());
        relay.pause();
        let before = sent_bytes(relay.ports());
        let mut hops = Hops::default();
        relay.run_for(budget, 3, &mut hops);
        let runs = hops.run_s.len() as f64;
        let peer_mb = (sent_bytes(relay.ports()) - before) as f64 / 1e6 / runs;
        let rss = peak_rss_mb();
        count_hops(&mut out, &hops, "tcp relay");
        let relayed = check_relayed(&mut out, relay.param(), &params, &workload, accuracy)?;
        out.metric("setup_s", median(&setups), "s");
        out.metric("run_s", median(&hops.run_s), "s");
        out.metric("final_accuracy", f64::from(relayed), "ratio");
        out.metric("peer_mb", peer_mb, "MB");
        out.metric("hop_us.p50", quantile(&hops.param_us, 0.5), "us");
        out.metric("peak_rss_mb", rss, "MB");
        return Ok(out);
    }

    // Traced mode: half the budget untraced, half traced, through the
    // same wrapped ports.
    let (builds, _) = repeat(5, 5, Duration::ZERO, || workload.build(1))?;
    let ports: Vec<TimedPort<_>> = ports.into_iter().map(TimedPort).collect();
    let mut relay = Relay::new(ports, params.clone());
    relay.run_for(Duration::ZERO, 1, &mut Hops::default());
    relay.pause();
    let mut plain = Hops::default();
    relay.run_for(budget / 2, 3, &mut plain);
    relay.pause();
    let mut hops = Hops::default();
    trace::start();
    relay.run_for(budget / 2, 3, &mut hops);
    let trace = trace::finish();
    count_hops(&mut out, &plain, "tcp relay");
    count_hops(&mut out, &hops, "traced tcp relay");
    check_relayed(&mut out, relay.param(), &params, &workload, accuracy)?;
    check_coverage(&mut out, &trace);
    let overhead = (median(&hops.run_s) - median(&plain.run_s)) / median(&plain.run_s);
    let laps = hops.lap_ms.len() as f64;
    let frame = relay.param().clone();
    ledger_metrics(&mut out, &trace, overhead, &builds, laps, &hops, &frame)?;
    let raw: u64 = relay.ports().iter().map(|p| p.0.raw_bytes()).sum();
    let payload: u64 = relay.ports().iter().map(|p| p.stats().total_bytes()).sum();
    out.metric(
        "relay.raw_over_payload",
        raw as f64 / payload.max(1) as f64,
        "ratio",
    );
    Ok(out)
}

/// Checks that the model which crossed the sockets is bit-identical to
/// the one sent and scores the same; returns the relayed model's
/// accuracy.
fn check_relayed(
    out: &mut Outcome,
    last: &Message,
    params: &[f32],
    workload: &Workload,
    accuracy: f32,
) -> Result<f32, HadflError> {
    let sent = Message::ParamAccum {
        round: 1,
        hops: 1,
        params: params.to_vec(),
    };
    out.check(relay::bit_identical(last, &sent), || {
        "relayed model differs from the one sent".into()
    });
    let Message::ParamAccum { params: got, .. } = last else {
        return Err(HadflError::InvalidConfig(
            "relay lost its param frame".into(),
        ));
    };
    let relayed = workload.build(1)?.evaluate_params(got)?.accuracy;
    out.check(relayed.to_bits() == accuracy.to_bits(), || {
        format!("relayed model scores {relayed}, sent model {accuracy}")
    });
    Ok(relayed)
}
