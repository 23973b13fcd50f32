//! Self-tests of the benchmark: the traced driver reproduces
//! `run_virtual` exactly, the timing wrappers change nothing, and the
//! relay delivers every frame bit for bit.

use hadfl::exec::{run_virtual, TrainState};
use hadfl::transport::{ChannelTransport, Port};
use hadfl::wire::Message;
use hadfl::Workload;
use hadfl_e2ebench::bench::{SimSpec, MIN_COVERAGE};
use hadfl_e2ebench::relay::{self, bit_identical, Hops, Relay};
use hadfl_e2ebench::trace::{self, TimedPort, TimedTrain};
use hadfl_e2ebench::traced::{run_traced, same_report};

#[test]
fn traced_driver_reproduces_run_virtual() {
    for seed in [1, 2] {
        let spec = SimSpec::new("self-test", seed).unwrap();
        let plain = run_virtual(&spec.workload, &spec.config, &spec.opts).unwrap();
        let (traced, trace) = run_traced(&spec.workload, &spec.config, &spec.opts).unwrap();
        assert_eq!(plain.rounds.len(), 3);
        assert!(plain.dropped.is_empty());
        assert!(
            same_report(&plain, &traced),
            "seed {seed}: traced {traced:?} vs run_virtual {plain:?}"
        );
        assert!(
            trace.coverage() >= MIN_COVERAGE,
            "coverage {}",
            trace.coverage()
        );
        assert_eq!(trace.counts.plans, 3);
        assert_eq!(trace.round_starts_ns.len(), 3);
        assert!(trace.counts.steps > 0 && trace.counts.ring_frames > 0);
        assert_eq!(trace.counts.sends, trace.counts.recvs);
    }
}

#[test]
fn same_report_sees_every_field() {
    let spec = SimSpec::new("self-test", 3).unwrap();
    let a = run_virtual(&spec.workload, &spec.config, &spec.opts).unwrap();
    let mut b = run_virtual(&spec.workload, &spec.config, &spec.opts).unwrap();
    assert!(same_report(&a, &b));
    b.peer_bytes += 1;
    assert!(!same_report(&a, &b));
    b.peer_bytes -= 1;
    b.final_accuracy = f32::from_bits(b.final_accuracy.to_bits() ^ 1);
    assert!(!same_report(&a, &b));
}

#[test]
fn timed_train_is_transparent() {
    let workload = Workload::quick("mlp", 5);
    let mut plain = workload.build(1).unwrap().runtimes.remove(0);
    let mut timed = TimedTrain(workload.build(1).unwrap().runtimes.remove(0));
    trace::start();
    for _ in 0..4 {
        plain.train_step().unwrap();
        timed.train_step().unwrap();
    }
    let params = timed.params();
    timed.set_params(&params).unwrap();
    let t = trace::finish();
    let bits = |v: Vec<f32>| v.into_iter().map(f32::to_bits).collect::<Vec<_>>();
    assert_eq!(bits(plain.params()), bits(timed.params()));
    assert_eq!(plain.version(), timed.version());
    assert_eq!(t.counts.steps, 4);
    assert_eq!(t.counts.param_copies, 2);
}

fn exchange<P: Port>(a: &mut P, b: &mut P) -> Vec<Message> {
    let msgs = [
        Message::ReportRequest { round: 2 },
        Message::ParamSync {
            round: 2,
            params: vec![0.5, -0.0, 3.25],
        },
    ];
    msgs.iter()
        .map(|msg| {
            a.send(b.id(), msg).unwrap();
            b.try_recv().unwrap().unwrap()
        })
        .collect()
}

#[test]
fn timed_port_is_transparent() {
    let mut hub = ChannelTransport::hub(2);
    let (mut a, mut b) = (
        TimedPort(hub.claim(0).unwrap()),
        TimedPort(hub.claim(1).unwrap()),
    );
    trace::start();
    let timed = exchange(&mut a, &mut b);
    let t = trace::finish();
    let timed_bytes = a.stats().total_bytes();

    let mut hub = ChannelTransport::hub(2);
    let (mut a, mut b) = (hub.claim(0).unwrap(), hub.claim(1).unwrap());
    let plain = exchange(&mut a, &mut b);
    assert_eq!(timed, plain);
    assert_eq!(timed_bytes, a.stats().total_bytes());
    assert_eq!((t.counts.sends, t.counts.recvs), (2, 2));
    let names: Vec<_> = t.spans.iter().map(|s| s.name).collect();
    assert_eq!(
        names,
        [
            "port.send_ctl",
            "port.recv_ctl",
            "port.send_param",
            "port.recv_param"
        ]
    );
}

#[test]
fn channel_relay_delivers_every_frame() {
    let mut hub = ChannelTransport::hub(4);
    let ports: Vec<_> = (0..4).map(|i| hub.claim(i).unwrap()).collect();
    let params: Vec<f32> = (0..1000).map(|i| i as f32 * 0.25 - 7.0).collect();
    let mut relay = Relay::new(ports, params.clone());
    let mut hops = Hops::default();
    relay.run_for(std::time::Duration::ZERO, 1, &mut hops);
    assert_eq!(hops.failed, 0);
    assert_eq!(hops.attempted, 2 * relay::RUN_HOPS as u64);
    assert_eq!(hops.param_us.len(), relay::RUN_HOPS);
    let sent = Message::ParamAccum {
        round: 1,
        hops: 1,
        params,
    };
    assert!(bit_identical(relay.param(), &sent));
}

#[test]
fn bit_identical_distinguishes_signed_zero() {
    let a = Message::ParamAccum {
        round: 1,
        hops: 1,
        params: vec![0.0],
    };
    let b = Message::ParamAccum {
        round: 1,
        hops: 1,
        params: vec![-0.0],
    };
    assert_eq!(a, b, "PartialEq treats the zeros as equal");
    assert!(!bit_identical(&a, &b));
}

#[test]
fn tcp_relay_round_trips_on_loopback() {
    let ports = relay::tcp_ring(4).unwrap();
    let params: Vec<f32> = (0..5000).map(|i| (i as f32).sin()).collect();
    let mut relay = Relay::new(ports, params);
    let mut hops = Hops::default();
    for _ in 0..20 {
        relay.step(&mut hops);
    }
    assert_eq!(hops.failed, 0);
    assert_eq!(hops.param_us.len(), 20);
    assert_eq!(hops.ctl_us.len(), 20);
}
