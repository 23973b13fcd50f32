//! In-memory span recorder and the timing wrappers the traced run
//! swaps in for the types the actors are generic over.
//!
//! Spans are recorded around calls into public functions of the
//! program — nothing inside the program is instrumented. The recorder
//! is thread-local and inactive unless [`start`] was called, so the
//! wrappers cost one thread-local read when tracing is off.

use std::cell::RefCell;
use std::fmt::Write as _;
use std::time::{Duration, Instant};

use hadfl::coordinator::RoundPlan;
use hadfl::exec::{Planner, TrainState};
use hadfl::transport::Port;
use hadfl::wire::Message;
use hadfl::HadflError;
use hadfl_simnet::{DeviceId, NetStats};

/// The layers of the ledger. Every span belongs to exactly one.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Layer {
    /// `Workload::build`.
    Setup,
    /// The driver loop's own work: hint scans, scheduling, wiring.
    Driver,
    /// `DeviceActor::on_*` minus nested spans (ring accumulate, merge,
    /// blend).
    Device,
    /// `CoordinatorActor::on_*` minus nested spans.
    Coord,
    /// `TrainState::train_step` (tensor / nn / par).
    Compute,
    /// `TrainState::params` / `set_params` copies.
    Params,
    /// `Port::send` / `try_recv` / `recv_timeout` (transport + wire).
    Port,
    /// `Planner::plan` (strategy / select / predict).
    Planner,
    /// `aggregate::average_params` + `BuiltWorkload::evaluate_params`.
    Consensus,
}

impl Layer {
    /// Every layer, in ledger order.
    pub const ALL: [Layer; 9] = [
        Layer::Setup,
        Layer::Driver,
        Layer::Device,
        Layer::Coord,
        Layer::Compute,
        Layer::Params,
        Layer::Port,
        Layer::Planner,
        Layer::Consensus,
    ];

    /// Metric prefix of the layer.
    pub fn name(self) -> &'static str {
        match self {
            Layer::Setup => "setup",
            Layer::Driver => "driver",
            Layer::Device => "device",
            Layer::Coord => "coord",
            Layer::Compute => "compute",
            Layer::Params => "params",
            Layer::Port => "port",
            Layer::Planner => "planner",
            Layer::Consensus => "consensus",
        }
    }

    fn index(self) -> usize {
        self as usize
    }
}

/// One recorded call.
#[derive(Debug, Clone)]
pub struct Span {
    /// What was called, e.g. `port.send_param`.
    pub name: &'static str,
    /// The ledger layer the span's self time is charged to.
    pub layer: Layer,
    /// Start, in nanoseconds since the trace began.
    pub start_ns: u64,
    /// End, in nanoseconds since the trace began.
    pub end_ns: u64,
    /// Index of the enclosing span.
    pub parent: Option<u32>,
    /// Latest round the coordinator had planned when the span opened.
    pub round: u32,
    /// Time covered by child spans and aggregated child calls.
    child_ns: u64,
}

impl Span {
    /// Duration minus the time its children cover.
    pub fn self_ns(&self) -> u64 {
        (self.end_ns - self.start_ns).saturating_sub(self.child_ns)
    }
}

/// Work counted at the same boundaries as the spans.
#[derive(Debug, Clone, Default)]
pub struct Counts {
    /// `train_step` calls.
    pub steps: u64,
    /// `params` + `set_params` calls (each copies a parameter vector).
    pub param_copies: u64,
    /// `Port::send` calls.
    pub sends: u64,
    /// Encoded bytes handed to `Port::send`.
    pub send_bytes: u64,
    /// Receive calls that returned a message.
    pub recvs: u64,
    /// `Planner::plan` calls.
    pub plans: u64,
    /// `ParamAccum` + `MergedParams` frames sent.
    pub ring_frames: u64,
}

/// A finished trace: every span plus the counters.
#[derive(Debug, Clone, Default)]
pub struct Trace {
    /// Spans in opening order.
    pub spans: Vec<Span>,
    /// Counters.
    pub counts: Counts,
    /// Self time per layer of calls timed without a span (empty
    /// receives), indexed like [`Layer::ALL`].
    pub aggregated_ns: [u64; 9],
    /// Time of the first `RoundPlan` send of each round.
    pub round_starts_ns: Vec<u64>,
    /// Wall time from [`start`] to [`finish`].
    pub wall_ns: u64,
}

impl Trace {
    /// Self time per layer, indexed like [`Layer::ALL`].
    pub fn self_ns(&self) -> [u64; 9] {
        let mut out = self.aggregated_ns;
        for span in &self.spans {
            out[span.layer.index()] += span.self_ns();
        }
        out
    }

    /// Share of the traced wall covered by layer self times.
    pub fn coverage(&self) -> f64 {
        self.self_ns().iter().sum::<u64>() as f64 / self.wall_ns.max(1) as f64
    }

    /// Wall time between successive rounds' first `RoundPlan` sends.
    pub fn round_ms(&self) -> Vec<f64> {
        self.round_starts_ns
            .windows(2)
            .map(|w| (w[1] - w[0]) as f64 / 1e6)
            .collect()
    }

    /// Durations of every span called `name`, in microseconds.
    pub fn durations_us(&self, name: &str) -> Vec<f64> {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| (s.end_ns - s.start_ns) as f64 / 1e3)
            .collect()
    }

    /// The spans as a JSON array (name, layer, start, end, parent,
    /// round), for offline inspection.
    pub fn spans_json(&self) -> String {
        let mut out = String::with_capacity(self.spans.len() * 96 + 2);
        out.push('[');
        for (i, s) in self.spans.iter().enumerate() {
            if i > 0 {
                out.push_str(",\n");
            }
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            let _ = write!(
                out,
                "{{\"name\":\"{}\",\"layer\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{},\"round\":{}}}",
                s.name,
                s.layer.name(),
                s.start_ns,
                s.end_ns,
                parent,
                s.round
            );
        }
        out.push(']');
        out
    }
}

#[derive(Default)]
struct Recorder {
    epoch: Option<Instant>,
    stack: Vec<u32>,
    round: u32,
    trace: Trace,
}

impl Recorder {
    fn now_ns(&self) -> u64 {
        self.epoch.map_or(0, |e| e.elapsed().as_nanos() as u64)
    }

    fn open(&mut self, name: &'static str, layer: Layer) -> u32 {
        let idx = self.trace.spans.len() as u32;
        let start_ns = self.now_ns();
        self.trace.spans.push(Span {
            name,
            layer,
            start_ns,
            end_ns: start_ns,
            parent: self.stack.last().copied(),
            round: self.round,
            child_ns: 0,
        });
        self.stack.push(idx);
        idx
    }

    fn close(&mut self, idx: u32) {
        let end_ns = self.now_ns();
        self.stack.pop();
        let span = &mut self.trace.spans[idx as usize];
        span.end_ns = end_ns;
        let (dur, parent) = (end_ns - span.start_ns, span.parent);
        if let Some(p) = parent {
            self.trace.spans[p as usize].child_ns += dur;
        }
    }

    /// Turns the just-opened span `idx` (which has no children) into an
    /// aggregated call of `layer`: the time still counts, the span is
    /// not kept.
    fn fold(&mut self, idx: u32, layer: Layer) {
        self.stack.pop();
        let end_ns = self.now_ns();
        let Some(span) = self.trace.spans.pop() else {
            return;
        };
        debug_assert_eq!(idx as usize, self.trace.spans.len());
        let dur = end_ns - span.start_ns;
        self.trace.aggregated_ns[layer.index()] += dur;
        if let Some(p) = span.parent {
            self.trace.spans[p as usize].child_ns += dur;
        }
    }
}

/// Spans reserved per trace: a 25 s traced relay records about
/// 550,000.
const SPAN_CAPACITY: usize = 1 << 20;

thread_local! {
    static REC: RefCell<Recorder> = RefCell::new(Recorder::default());
}

/// Starts recording on this thread, discarding any previous trace.
pub fn start() {
    REC.with(|r| {
        *r.borrow_mut() = Recorder {
            epoch: Some(Instant::now()),
            trace: Trace {
                // Reserved up front: a span buffer that keeps growing
                // amid the run's own allocations changes how the heap
                // is trimmed and slowed a traced relay by up to half.
                spans: Vec::with_capacity(SPAN_CAPACITY),
                ..Trace::default()
            },
            ..Recorder::default()
        }
    });
}

/// Stops recording and returns the trace.
pub fn finish() -> Trace {
    REC.with(|r| {
        let mut rec = std::mem::take(&mut *r.borrow_mut());
        rec.trace.wall_ns = rec.now_ns();
        rec.trace
    })
}

fn active() -> bool {
    REC.with(|r| r.borrow().epoch.is_some())
}

/// Runs `f` inside a span; just runs it when no trace is active.
pub fn span<R>(name: &'static str, layer: Layer, f: impl FnOnce() -> R) -> R {
    if !active() {
        return f();
    }
    let idx = REC.with(|r| r.borrow_mut().open(name, layer));
    let out = f();
    REC.with(|r| r.borrow_mut().close(idx));
    out
}

fn count(f: impl FnOnce(&mut Counts)) {
    REC.with(|r| {
        let mut rec = r.borrow_mut();
        if rec.epoch.is_some() {
            f(&mut rec.trace.counts);
        }
    });
}

/// Whether `msg` carries a parameter vector (the large frames).
fn carries_params(msg: &Message) -> bool {
    matches!(
        msg,
        Message::ParamSync { .. }
            | Message::ParamAccum { .. }
            | Message::MergedParams { .. }
            | Message::FinalParams { .. }
    )
}

/// A [`Port`] whose sends and receives are recorded, split by whether
/// the frame carries parameters.
pub struct TimedPort<P>(pub P);

impl<P: Port> TimedPort<P> {
    fn traced_recv(
        &mut self,
        f: impl FnOnce(&mut P) -> Result<Option<Message>, HadflError>,
    ) -> Result<Option<Message>, HadflError> {
        if !active() {
            return f(&mut self.0);
        }
        let idx = REC.with(|r| r.borrow_mut().open("port.recv", Layer::Port));
        let out = f(&mut self.0);
        REC.with(|r| {
            let mut rec = r.borrow_mut();
            match &out {
                Ok(Some(msg)) => {
                    rec.trace.spans[idx as usize].name = if carries_params(msg) {
                        "port.recv_param"
                    } else {
                        "port.recv_ctl"
                    };
                    rec.trace.counts.recvs += 1;
                    rec.close(idx);
                }
                _ => rec.fold(idx, Layer::Port),
            }
        });
        out
    }
}

impl<P: Port> Port for TimedPort<P> {
    fn id(&self) -> usize {
        self.0.id()
    }

    fn participants(&self) -> usize {
        self.0.participants()
    }

    fn send(&mut self, to: usize, msg: &Message) -> Result<(), HadflError> {
        REC.with(|r| {
            let mut guard = r.borrow_mut();
            let rec = &mut *guard;
            if rec.epoch.is_none() {
                return;
            }
            let now = rec.now_ns();
            let c = &mut rec.trace.counts;
            c.sends += 1;
            c.send_bytes += msg.encoded_len() as u64;
            match msg {
                Message::ParamAccum { .. } | Message::MergedParams { .. } => c.ring_frames += 1,
                Message::RoundPlan { round, .. } if *round > rec.round => {
                    rec.round = *round;
                    rec.trace.round_starts_ns.push(now);
                }
                _ => {}
            }
        });
        let name = if carries_params(msg) {
            "port.send_param"
        } else {
            "port.send_ctl"
        };
        span(name, Layer::Port, || self.0.send(to, msg))
    }

    fn try_recv(&mut self) -> Result<Option<Message>, HadflError> {
        self.traced_recv(|p| p.try_recv())
    }

    fn recv_timeout(&mut self, timeout: Duration) -> Result<Option<Message>, HadflError> {
        self.traced_recv(|p| p.recv_timeout(timeout))
    }

    fn stats(&self) -> NetStats {
        self.0.stats()
    }
}

/// A [`TrainState`] whose steps and parameter copies are recorded.
pub struct TimedTrain<T>(pub T);

impl<T: TrainState> TrainState for TimedTrain<T> {
    fn params(&self) -> Vec<f32> {
        count(|c| c.param_copies += 1);
        span("params.get", Layer::Params, || self.0.params())
    }

    fn set_params(&mut self, params: &[f32]) -> Result<(), HadflError> {
        count(|c| c.param_copies += 1);
        span("params.set", Layer::Params, || self.0.set_params(params))
    }

    fn train_step(&mut self) -> Result<(), HadflError> {
        count(|c| c.steps += 1);
        span("compute.train_step", Layer::Compute, || self.0.train_step())
    }

    fn version(&self) -> f64 {
        self.0.version()
    }

    fn digest(&self, out: &mut Vec<u8>) {
        self.0.digest(out);
    }
}

/// A [`Planner`] whose round plans are recorded.
pub struct TimedPlanner<P>(pub P);

impl<P: Planner> Planner for TimedPlanner<P> {
    fn plan(&mut self, available: &[DeviceId], versions: &[f64]) -> Result<RoundPlan, HadflError> {
        count(|c| c.plans += 1);
        span("planner.plan", Layer::Planner, || {
            self.0.plan(available, versions)
        })
    }

    fn digest(&self, out: &mut Vec<u8>) {
        self.0.digest(out);
    }

    fn last_probabilities(&self) -> Option<&[f64]> {
        self.0.last_probabilities()
    }
}
