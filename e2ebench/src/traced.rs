//! The traced run: a copy of `hadfl::exec::run_virtual`'s event loop,
//! written against the same public API, with the timing wrappers of
//! [`crate::trace`] swapped in for the port, training state and
//! planner, and a span around every actor call.
//!
//! Its report must equal `run_virtual`'s on every field
//! ([`same_report`]); when `run_virtual` changes, that check fails
//! instead of the ledger quietly measuring a stale driver.

use std::time::Duration;

use hadfl::aggregate::average_params;
use hadfl::clock::{Clock, ManualClock};
use hadfl::coordinator::StrategyGenerator;
use hadfl::exec::{
    CoordHint, CoordinatorActor, CoordinatorRun, DeviceActor, DeviceHint, ThreadedOptions,
    ThreadedReport,
};
use hadfl::trace::CommSummary;
use hadfl::transport::{coordinator_id, ChannelTransport, Port};
use hadfl::{HadflConfig, HadflError, Workload};
use hadfl_nn::LrSchedule;

use crate::trace::{self, span, Layer, TimedPlanner, TimedPort, TimedTrain, Trace};

/// Runs the traced copy of `run_virtual`, returning its report and the
/// recorded trace.
///
/// # Errors
///
/// As `run_virtual`.
pub fn run_traced(
    workload: &Workload,
    config: &HadflConfig,
    opts: &ThreadedOptions,
) -> Result<(ThreadedReport, Trace), HadflError> {
    trace::start();
    let report = drive(workload, config, opts);
    let trace = trace::finish();
    report.map(|r| (r, trace))
}

/// Whether two reports agree on every field, floats bit for bit.
pub fn same_report(a: &ThreadedReport, b: &ThreadedReport) -> bool {
    a.rounds == b.rounds
        && a.final_accuracy.to_bits() == b.final_accuracy.to_bits()
        && a.peer_bytes == b.peer_bytes
        && a.comm == b.comm
        && a.dropped == b.dropped
        && a.wall == b.wall
}

fn validate(opts: &ThreadedOptions) -> Result<usize, HadflError> {
    let k = opts.powers.len();
    if k < 2 {
        return Err(HadflError::InvalidConfig("need at least 2 devices".into()));
    }
    if opts.rounds == 0 {
        return Err(HadflError::InvalidConfig("need at least 1 round".into()));
    }
    if opts.powers.iter().any(|&p| !p.is_finite() || p <= 0.0) {
        return Err(HadflError::InvalidConfig(format!(
            "bad powers {:?}",
            opts.powers
        )));
    }
    Ok(k)
}

fn drive(
    workload: &Workload,
    config: &HadflConfig,
    opts: &ThreadedOptions,
) -> Result<ThreadedReport, HadflError> {
    let k = validate(opts)?;
    let built = span("setup.build", Layer::Setup, || workload.build(k))?;
    let (outcome, stats, wall) = span("driver.loop", Layer::Driver, || {
        event_loop(built.runtimes, config, opts, k)
    })?;

    if outcome.final_models.is_empty() {
        return Err(HadflError::InvalidConfig(
            "no device uploaded final parameters".into(),
        ));
    }
    let consensus = span("consensus.average", Layer::Consensus, || {
        let refs: Vec<&[f32]> = outcome.final_models.values().map(Vec::as_slice).collect();
        average_params(&refs)
    })?;
    let mut built_eval = span("setup.build", Layer::Setup, || workload.build(k))?;
    let metrics = span("consensus.evaluate", Layer::Consensus, || {
        built_eval.evaluate_params(&consensus)
    })?;

    Ok(ThreadedReport {
        rounds: outcome.rounds,
        final_accuracy: metrics.accuracy,
        peer_bytes: stats.total_bytes() - stats.server_bytes(),
        comm: CommSummary::from_stats(&stats, k),
        dropped: outcome.dropped,
        wall,
    })
}

type LoopOutcome = (CoordinatorRun, hadfl_simnet::NetStats, Duration);

fn event_loop(
    runtimes: Vec<hadfl::workload::DeviceRuntime>,
    config: &HadflConfig,
    opts: &ThreadedOptions,
    k: usize,
) -> Result<LoopOutcome, HadflError> {
    let clock = ManualClock::new();

    let mut hub = ChannelTransport::hub(k + 1);
    let mut coord_port = TimedPort(hub.claim(coordinator_id(k))?);
    let mut device_ports = Vec::with_capacity(k);
    for i in 0..k {
        device_ports.push(TimedPort(hub.claim(i)?));
    }

    let planner = TimedPlanner(StrategyGenerator::new(config));
    let mut coord = CoordinatorActor::new(
        k,
        planner,
        opts.window,
        opts.rounds,
        opts.timing.clone(),
        clock.now(),
    );

    let mut devices = Vec::with_capacity(k);
    let mut sleeps = Vec::with_capacity(k);
    let mut next_step = Vec::with_capacity(k);
    for (i, mut rt) in runtimes.into_iter().enumerate() {
        rt.set_optimizer(LrSchedule::constant(config.lr), config.momentum);
        let mut actor = DeviceActor::new(
            i,
            k + 1,
            TimedTrain(rt),
            config.blend_beta,
            opts.timing.clone(),
        );
        actor.begin_training(clock.now(), 1);
        devices.push(actor);
        sleeps.push(Duration::from_secs_f64(
            opts.step_sleep.as_secs_f64() / opts.powers[i],
        ));
        next_step.push(clock.now());
    }

    let outcome = loop {
        loop {
            let mut progressed = false;
            while let Some(msg) = coord_port.try_recv()? {
                let now = clock.now();
                span("coord.on_message", Layer::Coord, || {
                    coord.on_message(&mut coord_port, msg, now)
                })?;
                progressed = true;
            }
            for (i, actor) in devices.iter_mut().enumerate() {
                while let Some(msg) = device_ports[i].try_recv()? {
                    let now = clock.now();
                    if !matches!(actor.hint(now), DeviceHint::Finished) {
                        span("device.on_message", Layer::Device, || {
                            actor.on_message(&mut device_ports[i], msg, now)
                        })?;
                        progressed = true;
                    }
                }
            }
            if !progressed {
                break;
            }
        }

        let now = clock.now();
        let coord_wake = match coord.hint(now) {
            CoordHint::Done => break coord.into_run(),
            CoordHint::Timer => {
                span("coord.on_timer", Layer::Coord, || {
                    coord.on_timer(&mut coord_port, now)
                })?;
                continue;
            }
            CoordHint::Sleep(d) | CoordHint::Recv(d) if d.is_zero() => {
                span("coord.on_timer", Layer::Coord, || {
                    coord.on_timer(&mut coord_port, now)
                })?;
                continue;
            }
            CoordHint::Sleep(d) | CoordHint::Recv(d) => now + d,
        };

        let mut stepped = false;
        for (i, actor) in devices.iter_mut().enumerate() {
            if matches!(actor.hint(now), DeviceHint::Train) && next_step[i] <= now {
                span("device.on_idle", Layer::Device, || {
                    actor.on_idle(&mut device_ports[i])
                })?;
                next_step[i] = now + sleeps[i];
                stepped = true;
            }
        }
        if stepped {
            continue;
        }

        let mut wake = coord_wake;
        let mut ring_deadline: Vec<Option<Duration>> = vec![None; k];
        for (i, actor) in devices.iter().enumerate() {
            match actor.hint(now) {
                DeviceHint::Finished => {}
                DeviceHint::Train => wake = wake.min(next_step[i]),
                DeviceHint::Ring(wait) => {
                    let deadline = now + wait;
                    ring_deadline[i] = Some(deadline);
                    wake = wake.min(deadline);
                }
            }
        }
        clock.set(wake);

        let now = clock.now();
        for (i, actor) in devices.iter_mut().enumerate() {
            if ring_deadline[i].is_some_and(|d| d <= now)
                && matches!(actor.hint(now), DeviceHint::Ring(_))
            {
                span("device.on_timer", Layer::Device, || {
                    actor.on_timer(&mut device_ports[i], now)
                })?;
            }
        }
    };

    Ok((outcome, hub.net_stats(), clock.now()))
}
