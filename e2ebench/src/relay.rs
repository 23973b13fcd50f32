//! A closed-loop frame relay round a ring of ports: one frame in
//! flight, each param hop followed by one control hop. Run over four
//! loopback `TcpPort`s (the `tcp-relay` workload) and over four
//! in-process `ChannelPort`s (the sim workloads' `hop_us` metrics).

use std::time::{Duration, Instant};

use hadfl::transport::Port;
use hadfl::wire::{self, CausalStamp, Message};
use hadfl::HadflError;
use hadfl_net::{BoundNode, ClusterConfig, TcpOptions, TcpPort};

use crate::trace::{span, Layer};

/// How long a hop may take before it counts as failed.
const HOP_TIMEOUT: Duration = Duration::from_secs(2);

/// Param hops per relay run; every one is followed by a control hop.
pub const RUN_HOPS: usize = 500;

/// A relay stops early once this many hops have failed, so a broken
/// fabric cannot hold a run for thousands of timeouts.
const MAX_FAILED: u64 = 16;

/// Whether two messages are bit-identical (floats compared by bits,
/// so `-0.0` and NaN payloads are not glossed over).
pub fn bit_identical(a: &Message, b: &Message) -> bool {
    match (a, b) {
        (
            Message::ParamAccum {
                round: r1,
                hops: h1,
                params: p1,
            },
            Message::ParamAccum {
                round: r2,
                hops: h2,
                params: p2,
            },
        ) => {
            r1 == r2
                && h1 == h2
                && p1.len() == p2.len()
                && p1.iter().zip(p2).all(|(x, y)| x.to_bits() == y.to_bits())
        }
        _ => a == b,
    }
}

/// Samples of a relay, in microseconds unless named otherwise.
#[derive(Debug, Default)]
pub struct Hops {
    /// Param hop: from the start of `send` to `recv_timeout` on the
    /// next port returning the frame.
    pub param_us: Vec<f64>,
    /// The same for control frames.
    pub ctl_us: Vec<f64>,
    /// `send` alone, param frames.
    pub send_us: Vec<f64>,
    /// From `send` returning to `recv_timeout` returning, param frames.
    pub recv_wait_us: Vec<f64>,
    /// Wall of each relay run of [`RUN_HOPS`] param + control hops, in
    /// seconds.
    pub run_s: Vec<f64>,
    /// Wall of one param-frame lap round the whole ring, in ms.
    pub lap_ms: Vec<f64>,
    /// Hops tried.
    pub attempted: u64,
    /// Hops that timed out, errored or delivered a different message.
    pub failed: u64,
}

/// A ring of ports with a param frame and a control frame circulating.
pub struct Relay<P> {
    ports: Vec<P>,
    param: Message,
    ctl: Message,
    param_at: usize,
    ctl_at: usize,
    lap_start: Option<Instant>,
}

impl<P: Port> Relay<P> {
    /// A relay of `params` (as a `ParamAccum`) and a `ReportRequest`
    /// round `ports`, both starting at port 0.
    pub fn new(ports: Vec<P>, params: Vec<f32>) -> Self {
        Relay {
            ports,
            param: Message::ParamAccum {
                round: 1,
                hops: 1,
                params,
            },
            ctl: Message::ReportRequest { round: 1 },
            param_at: 0,
            ctl_at: 0,
            lap_start: None,
        }
    }

    /// The param frame as it currently stands (after the last hop).
    pub fn param(&self) -> &Message {
        &self.param
    }

    /// The ports, for reading their counters.
    pub fn ports(&self) -> &[P] {
        &self.ports
    }

    /// One hop of the frame at `from`: returns the received message
    /// with the send and total durations, or `None` on failure.
    fn hop(
        &mut self,
        from: usize,
        msg: &Message,
        out: &mut Hops,
    ) -> Option<(Message, Duration, Duration)> {
        let n = self.ports.len();
        let to = (from + 1) % n;
        out.attempted += 1;
        let t0 = Instant::now();
        let sent = self.ports[from].send(to, msg);
        let t1 = Instant::now();
        let got = match sent {
            Ok(()) => self.ports[to].recv_timeout(HOP_TIMEOUT),
            Err(e) => Err(e),
        };
        let t2 = Instant::now();
        let ok = span("relay.verify", Layer::Driver, || match got {
            Ok(Some(m)) if bit_identical(&m, msg) => Some(m),
            _ => None,
        });
        match ok {
            Some(m) => Some((m, t1 - t0, t2 - t0)),
            None => {
                out.failed += 1;
                None
            }
        }
    }

    /// Relays one param hop and one control hop.
    pub fn step(&mut self, out: &mut Hops) {
        let n = self.ports.len();
        if self.param_at == 0 {
            let now = Instant::now();
            if let Some(start) = self.lap_start.replace(now) {
                out.lap_ms.push((now - start).as_secs_f64() * 1e3);
            }
        }
        let param = std::mem::replace(&mut self.param, Message::Shutdown);
        self.param = match self.hop(self.param_at, &param, out) {
            Some((m, send, total)) => {
                out.param_us.push(total.as_secs_f64() * 1e6);
                out.send_us.push(send.as_secs_f64() * 1e6);
                out.recv_wait_us.push((total - send).as_secs_f64() * 1e6);
                m
            }
            None => param,
        };
        // A lost frame is re-sent from where it should have arrived,
        // so the ring position always advances.
        self.param_at = (self.param_at + 1) % n;
        let ctl = std::mem::replace(&mut self.ctl, Message::Shutdown);
        self.ctl = match self.hop(self.ctl_at, &ctl, out) {
            Some((m, _, total)) => {
                out.ctl_us.push(total.as_secs_f64() * 1e6);
                m
            }
            None => ctl,
        };
        self.ctl_at = (self.ctl_at + 1) % n;
    }

    /// Relays whole runs of [`RUN_HOPS`] until `budget` has elapsed
    /// (at least `min_runs` runs).
    pub fn run_for(&mut self, budget: Duration, min_runs: usize, out: &mut Hops) {
        let start = Instant::now();
        let first = out.run_s.len();
        while (out.run_s.len() - first < min_runs || start.elapsed() < budget)
            && out.failed < MAX_FAILED
        {
            let t = Instant::now();
            span("relay.run", Layer::Driver, || {
                for _ in 0..RUN_HOPS {
                    if out.failed >= MAX_FAILED {
                        break;
                    }
                    self.step(out);
                }
            });
            out.run_s.push(t.elapsed().as_secs_f64());
        }
    }

    /// Breaks the lap timer, so time spent outside a relay run does not
    /// count as a lap.
    pub fn pause(&mut self) {
        self.lap_start = None;
    }
}

/// Seal / open timings of `msg`, in microseconds, `n` of each, on
/// copies off any hop.
pub fn codec_us(msg: &Message, n: usize) -> Result<(Vec<f64>, Vec<f64>), HadflError> {
    let mut seal = Vec::with_capacity(n);
    let mut open = Vec::with_capacity(n);
    for i in 0..n {
        let stamp = CausalStamp {
            origin: 0,
            lamport: i as u64,
        };
        let t = Instant::now();
        let frame = std::hint::black_box(wire::seal(stamp, std::hint::black_box(msg)));
        seal.push(t.elapsed().as_secs_f64() * 1e6);
        let t = Instant::now();
        let (_, opened) = wire::open(std::hint::black_box(&frame))?;
        open.push(t.elapsed().as_secs_f64() * 1e6);
        if !bit_identical(&opened, msg) {
            return Err(HadflError::InvalidConfig(
                "codec round trip changed the frame".into(),
            ));
        }
    }
    Ok((seal, open))
}

/// Binds `n` loopback `TcpPort`s (heartbeats off) and dials each one's
/// downstream with a first control frame, waiting until every port has
/// received its greeting.
///
/// # Errors
///
/// Bind, dial or greeting failures.
pub fn tcp_ring(n: usize) -> Result<Vec<TcpPort>, HadflError> {
    let nodes = (0..n)
        .map(|i| BoundNode::bind(i, "127.0.0.1:0"))
        .collect::<Result<Vec<_>, _>>()?;
    let addrs = nodes
        .iter()
        .map(|b| b.local_addr().map(|a| a.to_string()))
        .collect::<Result<Vec<_>, _>>()?;
    let cluster = ClusterConfig::from_addrs(&addrs)?;
    let opts = TcpOptions {
        heartbeat_interval: None,
        ..TcpOptions::default()
    };
    let mut ports = nodes
        .into_iter()
        .map(|b| b.into_port(&cluster, opts.clone()))
        .collect::<Result<Vec<_>, _>>()?;
    let hello = Message::ReportRequest { round: 0 };
    for (i, port) in ports.iter_mut().enumerate() {
        port.send((i + 1) % n, &hello)?;
    }
    for (i, port) in ports.iter_mut().enumerate() {
        match port.recv_timeout(HOP_TIMEOUT)? {
            Some(m) if m == hello => {}
            other => {
                return Err(HadflError::InvalidConfig(format!(
                    "port {i}: expected the greeting, got {other:?}"
                )))
            }
        }
    }
    Ok(ports)
}
