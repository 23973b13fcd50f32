//! End-to-end collector tests: a 1k-device fleet of the real protocol
//! actors, driven in virtual time and shipped over real TCP into a
//! running [`CollectorServer`], and a scripted [`ManualClock`]
//! reproduction of every health rule.

use std::io::{Read as _, Write as _};
use std::net::TcpStream;
use std::sync::Arc;
use std::time::{Duration, Instant};

use parking_lot::Mutex;

use hadfl::clock::{Clock, ManualClock, WallClock};
use hadfl::coordinator::StrategyGenerator;
use hadfl::exec::{drive_virtual, CoordinatorActor, DeviceActor, ProtocolTiming, TrainState};
use hadfl::transport::{ChannelPort, ChannelTransport, Port};
use hadfl::wire::Message;
use hadfl::{HadflConfig, HadflError};
use hadfl_net::collector::{Collector, CollectorOptions, CollectorServer};
use hadfl_net::ship::TcpShipper;
use hadfl_simnet::NetStats;
use hadfl_telemetry::health::HealthOptions;
use hadfl_telemetry::ship::{ShipOptions, ShipSink};
use hadfl_telemetry::sink::Sink;
use hadfl_telemetry::{
    Event, EventKind, FollowState, MetricsRegistry, RingBufferSink, Telemetry, SCHEMA_VERSION,
};

/// Minimal HTTP/1.1 GET against the collector's endpoint; returns the
/// full response (headers + body).
fn http_get(addr: std::net::SocketAddr, path: &str) -> String {
    let mut stream = TcpStream::connect(addr).expect("connect http");
    stream
        .set_read_timeout(Some(Duration::from_secs(5)))
        .expect("timeout");
    write!(
        stream,
        "GET {path} HTTP/1.1\r\nHost: collector\r\nConnection: close\r\n\r\n"
    )
    .expect("send request");
    let mut response = String::new();
    let _ = stream.read_to_string(&mut response);
    response
}

/// Fleet size; the coordinator is node `DEVICES`.
const DEVICES: usize = 1000;
/// Parameters per model: 16,384 `f32`, one 64 KiB frame.
const PARAMS: usize = 16_384;

/// A model that does not train: a version counter and a uniform
/// parameter vector kept as one value, so a thousand actors cost their
/// frames and little else.
struct Stub {
    level: f32,
    steps: u64,
}

impl TrainState for Stub {
    fn params(&self) -> Vec<f32> {
        vec![self.level; PARAMS]
    }

    fn set_params(&mut self, params: &[f32]) -> Result<(), HadflError> {
        if params.len() != PARAMS {
            return Err(HadflError::InvalidConfig("stub length mismatch".into()));
        }
        self.level = params[0];
        Ok(())
    }

    fn train_step(&mut self) -> Result<(), HadflError> {
        self.steps += 1;
        Ok(())
    }

    fn version(&self) -> f64 {
        self.steps as f64
    }
}

/// A channel port whose node dies at `dies_at` of virtual time: from
/// then on its sends vanish and its inbound frames stay unread.
struct MortalPort {
    inner: ChannelPort,
    dies_at: Option<Duration>,
    clock: ManualClock,
}

impl MortalPort {
    fn dead(&self) -> bool {
        self.dies_at.is_some_and(|t| self.clock.now() >= t)
    }
}

impl Port for MortalPort {
    fn id(&self) -> usize {
        self.inner.id()
    }

    fn participants(&self) -> usize {
        self.inner.participants()
    }

    fn send(&mut self, to: usize, msg: &Message) -> Result<(), HadflError> {
        if self.dead() {
            return Ok(());
        }
        self.inner.send(to, msg)
    }

    fn try_recv(&mut self) -> Result<Option<Message>, HadflError> {
        if self.dead() {
            return Ok(None);
        }
        self.inner.try_recv()
    }

    fn recv_timeout(&mut self, timeout: Duration) -> Result<Option<Message>, HadflError> {
        if self.dead() {
            return Ok(None);
        }
        self.inner.recv_timeout(timeout)
    }

    fn stats(&self) -> NetStats {
        self.inner.stats()
    }
}

/// What a fleet run leaves behind: every node's events in emission
/// order, and the parameter bytes moved between devices.
struct FleetRun {
    events: Vec<Event>,
    param_bytes: u64,
}

/// Runs 1000 real [`DeviceActor`]s and a [`CoordinatorActor`] through
/// [`drive_virtual`] for 5 rounds of 500 ms windows, 32 devices per
/// ring. Devices step every 5 ms; device 3 straggles at 1/10 speed, and
/// device 7 dies 2.5 windows in, mid-round 3, so it misses that
/// round's report.
fn run_fleet() -> FleetRun {
    let clock = ManualClock::new();
    let shared: Arc<dyn Clock> = Arc::new(clock.clone());
    let sink = RingBufferSink::new(usize::MAX);
    let config = HadflConfig::builder()
        .num_selected(32)
        .seed(14)
        .build()
        .expect("config");
    let timing = ProtocolTiming::quick();
    let window = Duration::from_millis(500);

    let mut hub = ChannelTransport::hub(DEVICES + 1);
    let mut node = |id: usize, dies_at: Option<Duration>| {
        let tel = Telemetry::new(id as u32, vec![Box::new(sink.clone())]);
        let inner = hub
            .claim_instrumented(id, tel.clone(), Some(Arc::clone(&shared)))
            .expect("claim port");
        let clock = clock.clone();
        let port = MortalPort {
            inner,
            dies_at,
            clock,
        };
        (tel, port)
    };
    let (coord_tel, coord_port) = node(DEVICES, None);
    let planner = StrategyGenerator::new(&config);
    let coord = CoordinatorActor::new(DEVICES, planner, window, 5, timing.clone(), clock.now())
        .with_telemetry(coord_tel);
    let devices = (0..DEVICES)
        .map(|i| {
            let (tel, port) = node(i, (i == 7).then_some(window * 5 / 2));
            let stub = Stub {
                level: 0.0,
                steps: 0,
            };
            let mut actor =
                DeviceActor::new(i, DEVICES + 1, stub, config.blend_beta, timing.clone())
                    .with_telemetry(tel);
            actor.begin_training(clock.now(), 1);
            let step = Duration::from_millis(if i == 3 { 50 } else { 5 });
            (actor, port, step)
        })
        .collect();

    let run = drive_virtual(&clock, coord, coord_port, devices).expect("fleet run");
    assert_eq!(run.rounds.len(), 5);
    assert!(run.dropped.contains(&(7, 3)), "{:?}", run.dropped);
    assert_eq!(sink.dropped(), 0);
    let stats = hub.net_stats();
    FleetRun {
        events: sink.snapshot(),
        param_bytes: stats.total_bytes() - stats.server_bytes(),
    }
}

#[test]
fn thousand_device_fleet_ships_through_a_live_collector() {
    let FleetRun {
        mut events,
        param_bytes,
    } = run_fleet();
    let emitted = events.len() as u64;
    // Every node keeps its own Lamport clock, so emission order is not
    // causal order. The collector sorts by `(lam, node, seq)` within
    // each tick only; shipping the fleet's merged timeline keeps the
    // spool causal across ticks too.
    events.sort_by_key(|e| (e.lam, e.node, e.seq));

    let spool = std::env::temp_dir().join(format!(
        "hadfl-collector-fleet-{}.jsonl",
        std::process::id()
    ));
    let opts = CollectorOptions {
        spool: Some(spool.clone()),
        ..CollectorOptions::default()
    };
    let registry = MetricsRegistry::new();
    let collector = Collector::new(WallClock::shared(), registry, &opts).expect("collector setup");
    let server = CollectorServer::start(
        "127.0.0.1:0",
        "127.0.0.1:0",
        Arc::new(Mutex::new(collector)),
        Duration::from_millis(20),
        CollectorOptions::default().max_frame_bytes,
    )
    .expect("collector server");

    // Ship the whole fleet's stream through the production path: the
    // ShipSink queue + shipper thread + sealed TCP frames. Capacity is
    // raised above the event count so the parity check stays exact.
    let coordinator = DEVICES as u32;
    let shipper = TcpShipper::new(
        &server.ingest_addr().to_string(),
        coordinator,
        hadfl_telemetry::LamportClock::new(),
    );
    let ledger = shipper.ledger();
    {
        let mut sink = ShipSink::new(
            coordinator,
            ShipOptions {
                capacity: events.len() + 1,
                ..ShipOptions::default()
            },
            Box::new(shipper),
        );
        for event in &events {
            sink.record(event);
        }
        sink.flush();
    } // drop joins the shipper thread after a final flush

    // Wait for the collector to apply every event.
    let deadline = Instant::now() + Duration::from_secs(30);
    loop {
        let applied = server.collector().lock().status().events_applied;
        if applied >= emitted {
            break;
        }
        assert!(
            Instant::now() < deadline,
            "collector applied only {applied}/{} events",
            emitted
        );
        std::thread::sleep(Duration::from_millis(50));
    }

    let status = server.collector().lock().status();
    assert_eq!(status.events_applied, emitted);
    assert_eq!(status.garbage_lines, 0);
    assert_eq!(status.events_dropped, 0, "capacity was above event count");

    // Telemetry is ledgered apart from param traffic, and the claim
    // under test: observing the fleet costs < 5% of moving its
    // parameters. Both sides of the wire must agree on the ledger.
    assert_eq!(
        status.telemetry_bytes,
        ledger.payload_bytes(),
        "shipper and collector ledgers disagree"
    );
    assert!(
        status.telemetry_bytes < param_bytes / 20,
        "telemetry {} bytes >= 5% of param {} bytes",
        status.telemetry_bytes,
        param_bytes
    );

    // The injected faults each raise their alert, within 3 rounds.
    let alerts = status.report.alerts;
    let straggler = alerts
        .iter()
        .find(|a| a.rule == "straggler" && a.device == Some(3))
        .expect("straggler alert for device 3");
    assert!(
        straggler.round.unwrap_or(u32::MAX) <= 1 + 2,
        "straggler alert too late: {straggler:?}"
    );
    let dead = alerts
        .iter()
        .find(|a| a.rule == "dead-device" && a.device == Some(7))
        .expect("dead-device alert for device 7");
    assert!(
        dead.round.unwrap_or(u32::MAX) <= 3 + 2,
        "dead-device alert too late: {dead:?}"
    );
    assert!(
        !alerts.iter().any(|a| a.rule == "round-watchdog"),
        "no stalled rounds in a completed run: {alerts:?}"
    );

    // The HTTP surface serves the same picture.
    let health = http_get(server.http_addr(), "/health");
    assert!(health.contains("200 OK"), "{health}");
    assert!(health.contains("application/json"), "{health}");
    assert!(health.contains("\"straggler\""), "{health}");
    assert!(health.contains("\"dead-device\""), "{health}");
    let metrics = http_get(server.http_addr(), "/metrics");
    assert!(
        metrics.contains("Content-Type: text/plain; version=0.0.4"),
        "{metrics}"
    );
    assert!(metrics.contains("hadfl_fleet_nodes"), "{metrics}");
    assert!(
        metrics.contains("hadfl_fleet_alerts{rule=\"straggler\"}"),
        "{metrics}"
    );

    server.shutdown();

    // The spool is the merged `(lam, node, seq)` timeline, in exactly
    // the format `hadfl-trace --follow` tails.
    let spooled = std::fs::read_to_string(&spool).expect("read spool");
    let mut follow = FollowState::new();
    let mut last_lam = 0u64;
    for line in spooled.lines() {
        let event = Event::from_json(line).expect("spool line parses");
        assert!(event.lam >= last_lam, "spool out of causal order");
        last_lam = event.lam;
        follow.observe(&event);
    }
    assert_eq!(follow.events_seen(), emitted);
    let rendered = follow.render(16);
    assert!(rendered.contains("round"), "{rendered}");
    let _ = std::fs::remove_file(&spool);
}

/// Builds one scripted event; `lam` doubles as seq for brevity.
fn ev(node: u32, lam: u64, kind: EventKind) -> Event {
    Event {
        v: SCHEMA_VERSION,
        seq: lam,
        node,
        t_us: lam * 1_000,
        lam,
        kind,
    }
}

/// Scripts a collector on a [`ManualClock`] through every health rule
/// and returns the serialized alerts, in the order they were raised.
fn scripted_alerts() -> Vec<String> {
    let clock = ManualClock::new();
    let opts = CollectorOptions {
        health: HealthOptions {
            round_deadline: Duration::from_secs(10),
            budget_bytes: Some(1_000),
            ..HealthOptions::default()
        },
        ..CollectorOptions::default()
    };
    let registry = MetricsRegistry::new();
    let clock_dyn: Arc<dyn Clock> = Arc::new(clock.clone());
    let mut collector = Collector::new(clock_dyn, registry, &opts).expect("collector setup");

    // Round 1 planned; everyone healthy so far.
    collector.ingest_event(ev(
        1000,
        1,
        EventKind::RoundPlanned {
            round: 1,
            available: vec![0, 1, 2],
            versions: vec![100.0, 100.0, 100.0],
            probabilities: vec![1.0 / 3.0; 3],
            selected: vec![0, 1],
            unselected: vec![2],
            broadcaster: 0,
        },
    ));
    collector.tick();
    assert!(collector.alerts().is_empty(), "{:?}", collector.alerts());

    // 1. No ring progress for 11s > 10s deadline: round-watchdog.
    clock.advance(Duration::from_secs(11));
    collector.tick();

    // 2. Device 1 found dead twice: dead-device via repeated bypass.
    collector.ingest_event(ev(0, 2, EventKind::BypassDeclared { round: 1, dead: 1 }));
    collector.ingest_event(ev(0, 3, EventKind::BypassDeclared { round: 1, dead: 1 }));
    collector.tick();

    // 3. Round 1 dissolves without a merge; planning round 2 closes it
    //    as a dead ring.
    collector.ingest_event(ev(
        0,
        4,
        EventKind::RingExit {
            round: 1,
            dissolved: true,
        },
    ));
    collector.ingest_event(ev(
        1000,
        5,
        EventKind::RoundPlanned {
            round: 2,
            available: vec![0, 2],
            versions: vec![110.0, 110.0],
            probabilities: vec![0.5; 2],
            selected: vec![0, 2],
            unselected: vec![],
            broadcaster: 0,
        },
    ));
    collector.tick();

    // 4. Device 5's Eq. 7 forecasts keep overshooting: straggler.
    collector.ingest_event(ev(
        1000,
        6,
        EventKind::Prediction {
            round: 2,
            device: 5,
            predicted: 200.0,
            actual: 100.0,
        },
    ));
    collector.ingest_event(ev(
        1000,
        7,
        EventKind::Prediction {
            round: 3,
            device: 5,
            predicted: 210.0,
            actual: 105.0,
        },
    ));
    collector.tick();

    // 5. Param traffic crosses the configured budget: budget-burn.
    collector.ingest_event(ev(
        0,
        8,
        EventKind::FrameSent {
            src: 0,
            dst: 2,
            bytes: 2_000,
            kind: "param_accum".into(),
            lamport: 8,
        },
    ));
    collector.tick();

    collector
        .alerts()
        .iter()
        .map(|a| serde_json::to_string(a).expect("alert serializes"))
        .collect()
}

#[test]
fn manual_clock_script_reproduces_every_alert_deterministically() {
    let alerts = scripted_alerts();
    let rules: Vec<&str> = alerts
        .iter()
        .map(|a| {
            if a.contains("\"round-watchdog\"") {
                "round-watchdog"
            } else if a.contains("\"dead-device\"") {
                "dead-device"
            } else if a.contains("\"dead-ring\"") {
                "dead-ring"
            } else if a.contains("\"straggler\"") {
                "straggler"
            } else if a.contains("\"budget-burn\"") {
                "budget-burn"
            } else {
                "?"
            }
        })
        .collect();
    assert_eq!(
        rules,
        vec![
            "round-watchdog",
            "dead-device",
            "dead-ring",
            "straggler",
            "budget-burn"
        ],
        "{alerts:#?}"
    );
    // Virtual time makes the whole script reproducible bit-for-bit.
    assert_eq!(alerts, scripted_alerts());
}
