//! Fabric behaviour: FIFO delivery, serialization, connection life-cycle,
//! drain semantics, timing model.

use gbcr_des::{time, Sim};
use gbcr_net::{ConnState, Fabric, NetConfig, NodeId};
use parking_lot::Mutex;
use std::sync::Arc;

const A: NodeId = NodeId(0);
const B: NodeId = NodeId(1);

fn test_cfg() -> NetConfig {
    NetConfig {
        latency: time::us(2),
        bandwidth: 1.0e9,
        per_message_overhead: 0,
        conn_setup_time: time::ms(1),
        conn_teardown_time: time::us(100),
    }
}

#[test]
fn connect_charges_setup_to_initiator_only() {
    let mut sim = Sim::new(0);
    let fabric: Fabric<u32> = Fabric::new(sim.handle(), test_cfg());
    let f = fabric.clone();
    sim.spawn("a", move |p| {
        let ep = f.endpoint(A);
        ep.connect(p, B);
        assert_eq!(p.now(), time::ms(1));
        assert!(ep.is_connected(B));
        // Idempotent, free the second time.
        ep.connect(p, B);
        assert_eq!(p.now(), time::ms(1));
    });
    sim.run().unwrap();
    assert_eq!(fabric.stats().connects, 1);
    assert_eq!(fabric.conn_state(A, B), ConnState::Active);
}

#[test]
fn concurrent_connects_only_one_pays() {
    let mut sim = Sim::new(0);
    let fabric: Fabric<u32> = Fabric::new(sim.handle(), test_cfg());
    for (name, me, peer) in [("a", A, B), ("b", B, A)] {
        let f = fabric.clone();
        sim.spawn(name, move |p| {
            let ep = f.endpoint(me);
            ep.connect(p, peer);
            assert_eq!(p.now(), time::ms(1));
        });
    }
    sim.run().unwrap();
    assert_eq!(fabric.stats().connects, 1);
}

#[test]
fn messages_arrive_fifo_with_latency_and_serialization() {
    let mut sim = Sim::new(0);
    let fabric: Fabric<u32> = Fabric::new(sim.handle(), test_cfg());
    let got = Arc::new(Mutex::new(Vec::new()));
    let f = fabric.clone();
    sim.spawn("sender", move |p| {
        let ep = f.endpoint(A);
        ep.connect(p, B);
        // two 1 MB messages back to back: serialization 1ms each at 1GB/s
        ep.send(B, 1, 1_000_000);
        ep.send(B, 2, 1_000_000);
    });
    let f = fabric.clone();
    let g = got.clone();
    sim.spawn("receiver", move |p| {
        let ep = f.endpoint(B);
        for _ in 0..2 {
            let (from, m) = ep.recv_wait(p);
            assert_eq!(from, A);
            g.lock().push((p.now(), m));
        }
    });
    sim.run().unwrap();
    let got = got.lock().clone();
    assert_eq!(got.len(), 2);
    assert_eq!(got[0].1, 1);
    assert_eq!(got[1].1, 2);
    // send time = 1ms (after connect); first arrives at 1ms+1ms+2us
    assert_eq!(got[0].0, time::ms(2) + time::us(2));
    // second serialized after the first: 1ms later
    assert_eq!(got[1].0, time::ms(3) + time::us(2));
}

#[test]
fn bidirectional_links_do_not_serialize_against_each_other() {
    let mut sim = Sim::new(0);
    let fabric: Fabric<u32> = Fabric::new(sim.handle(), test_cfg());
    let times = Arc::new(Mutex::new(Vec::new()));
    for (name, me, peer) in [("a", A, B), ("b", B, A)] {
        let f = fabric.clone();
        let t = times.clone();
        sim.spawn(name, move |p| {
            let ep = f.endpoint(me);
            ep.connect(p, peer);
            ep.send(peer, me.0, 1_000_000);
            let (_, _) = ep.recv_wait(p);
            t.lock().push(p.now());
        });
    }
    sim.run().unwrap();
    // Both 1MB messages cross simultaneously; both arrive at the same time.
    let times = times.lock().clone();
    assert_eq!(times[0], times[1]);
}

#[test]
fn teardown_waits_for_drain_and_blocks_sends() {
    let mut sim = Sim::new(0);
    let fabric: Fabric<u32> = Fabric::new(sim.handle(), test_cfg());
    let f = fabric.clone();
    sim.spawn("a", move |p| {
        let ep = f.endpoint(A);
        ep.connect(p, B);
        ep.send(B, 7, 10_000_000); // 10ms serialization
        assert_eq!(ep.in_flight(B), (1, 0));
        ep.teardown(p, B);
        // teardown completed only after the 10ms in-flight drained
        assert!(p.now() >= time::ms(11));
        assert_eq!(ep.in_flight(B), (0, 0));
        assert!(!ep.is_connected(B));
    });
    let f = fabric.clone();
    sim.spawn("b", move |p| {
        let ep = f.endpoint(B);
        let (from, m) = ep.recv_wait(p);
        assert_eq!((from, m), (A, 7));
    });
    sim.run().unwrap();
    assert_eq!(fabric.stats().teardowns, 1);
    assert_eq!(fabric.conn_state(A, B), ConnState::Disconnected);
}

#[test]
fn reconnect_after_teardown_works() {
    let mut sim = Sim::new(0);
    let fabric: Fabric<u32> = Fabric::new(sim.handle(), test_cfg());
    let f = fabric.clone();
    sim.spawn("a", move |p| {
        let ep = f.endpoint(A);
        ep.connect(p, B);
        ep.teardown(p, B);
        ep.connect(p, B);
        assert!(ep.is_connected(B));
        ep.send(B, 1, 8);
    });
    let f = fabric.clone();
    sim.spawn("b", move |p| {
        let ep = f.endpoint(B);
        let (_, m) = ep.recv_wait(p);
        assert_eq!(m, 1);
    });
    sim.run().unwrap();
    assert_eq!(fabric.stats().connects, 2);
    assert_eq!(fabric.stats().teardowns, 1);
}

#[test]
#[should_panic(expected = "non-active connection")]
fn send_on_torn_down_connection_panics() {
    let mut sim = Sim::new(0);
    let fabric: Fabric<u32> = Fabric::new(sim.handle(), test_cfg());
    sim.spawn("a", move |p| {
        let ep = fabric.endpoint(A);
        ep.connect(p, B);
        ep.teardown(p, B);
        ep.send(B, 1, 8);
    });
    let err = sim.run().unwrap_err();
    panic!("{err}");
}

#[test]
fn recv_timeout_returns_none_when_quiet() {
    let mut sim = Sim::new(0);
    let fabric: Fabric<u32> = Fabric::new(sim.handle(), test_cfg());
    sim.spawn("b", move |p| {
        let ep = fabric.endpoint(B);
        let r = ep.recv_timeout(p, time::ms(5));
        assert!(r.is_none());
        assert_eq!(p.now(), time::ms(5));
    });
    sim.run().unwrap();
}

#[test]
fn recv_timeout_returns_message_when_it_arrives_first() {
    let mut sim = Sim::new(0);
    let fabric: Fabric<u32> = Fabric::new(sim.handle(), test_cfg());
    let f = fabric.clone();
    sim.spawn("a", move |p| {
        let ep = f.endpoint(A);
        ep.connect(p, B);
        ep.send(B, 42, 8);
    });
    sim.spawn("b", move |p| {
        let ep = fabric.endpoint(B);
        let r = ep.recv_timeout(p, time::secs(1));
        assert_eq!(r.map(|(_, m)| m), Some(42));
        assert!(p.now() < time::ms(2));
    });
    sim.run().unwrap();
}

#[test]
fn wait_drained_with_nothing_in_flight_is_instant() {
    let mut sim = Sim::new(0);
    let fabric: Fabric<u32> = Fabric::new(sim.handle(), test_cfg());
    sim.spawn("a", move |p| {
        let ep = fabric.endpoint(A);
        ep.connect(p, B);
        ep.wait_drained(p, B);
        assert_eq!(p.now(), time::ms(1));
    });
    sim.run().unwrap();
}

#[test]
fn stats_count_messages_and_bytes() {
    let mut sim = Sim::new(0);
    let fabric: Fabric<u32> = Fabric::new(sim.handle(), test_cfg());
    let f = fabric.clone();
    sim.spawn("a", move |p| {
        let ep = f.endpoint(A);
        ep.connect(p, B);
        for i in 0..5 {
            ep.send(B, i, 100);
        }
    });
    let f = fabric.clone();
    sim.spawn("b", move |p| {
        let ep = f.endpoint(B);
        for _ in 0..5 {
            ep.recv_wait(p);
        }
    });
    sim.run().unwrap();
    let s = fabric.stats();
    assert_eq!(s.messages, 5);
    assert_eq!(s.bytes, 500);
}

/// A waiter whose `recv_timeout` ended via the deadline timer must be
/// deregistered on the way out: a later delivery to the endpoint must not
/// wake the (by then computing-forever) rank. A stale registration would
/// have delivered a spurious wake here — OS-bypass hardware never
/// interrupts the host CPU like that.
#[test]
fn timer_expired_waiter_gets_no_spurious_delivery_wake() {
    let mut sim = Sim::new(0);
    let fabric: Fabric<u32> = Fabric::new(sim.handle(), test_cfg());
    let woken = Arc::new(Mutex::new(false));
    let f = fabric.clone();
    let w = woken.clone();
    sim.spawn("rx", move |p| {
        let ep = f.endpoint(B);
        assert!(ep.recv_timeout(p, time::ms(5)).is_none());
        // "Computing": parked with no registration anywhere. The delivery
        // at ~10 ms must not resume this process.
        p.park();
        *w.lock() = true;
    });
    let f = fabric.clone();
    sim.spawn("tx", move |p| {
        let ep = f.endpoint(A);
        p.sleep(time::ms(10));
        ep.connect(p, B);
        ep.send(B, 7, 8);
    });
    let err = sim.run().unwrap_err();
    assert!(
        matches!(&err, gbcr_des::SimError::Deadlock { blocked, .. }
            if blocked == &vec!["rx".to_string()]),
        "rx must stay parked forever, got {err}"
    );
    assert!(!*woken.lock(), "delivery woke a rank whose wait had timed out");
    assert_eq!(fabric.endpoint(B).pending(), 1, "message stays queued");
}

/// A forced disconnect (link flap) on an idle connection drops it to
/// `Disconnected` immediately; the next `put`-style user reconnects through
/// the normal setup path and pays the setup cost again.
#[test]
fn force_disconnect_idle_drops_and_allows_reconnect() {
    let mut sim = Sim::new(0);
    let fabric: Fabric<u32> = Fabric::new(sim.handle(), test_cfg());
    let f = fabric.clone();
    sim.spawn("a", move |p| {
        let ep = f.endpoint(A);
        ep.connect(p, B);
        ep.send(B, 1, 64);
        // Park past the flap at 5 ms, then rebuild and send again.
        p.sleep(time::ms(10));
        assert!(!ep.is_connected(B), "flap must have torn the link down");
        ep.connect(p, B);
        ep.send(B, 2, 64);
    });
    let f = fabric.clone();
    sim.spawn("b", move |p| {
        let ep = f.endpoint(B);
        assert_eq!(ep.recv_wait(p).1, 1);
        assert_eq!(ep.recv_wait(p).1, 2);
    });
    let f = fabric.clone();
    sim.handle().call_at(time::ms(5), move |_| {
        assert!(f.force_disconnect(A, B));
    });
    sim.run().unwrap();
    let s = fabric.stats();
    assert_eq!(s.forced_down, 1);
    assert_eq!(s.connects, 2, "reconnect after the flap pays setup again");
    assert_eq!(s.messages, 2, "both sends land");
}

/// A flap with traffic in flight must let the posted bytes land (Draining),
/// then complete the drop once the wire is empty — never losing a message
/// that was already serialized onto the link.
#[test]
fn force_disconnect_with_in_flight_drains_first() {
    let mut sim = Sim::new(0);
    let fabric: Fabric<u32> = Fabric::new(sim.handle(), test_cfg());
    let f = fabric.clone();
    sim.spawn("a", move |p| {
        let ep = f.endpoint(A);
        ep.connect(p, B);
        // ~1 ms of serialization per message at 1 GB/s.
        for i in 0..3 {
            ep.send(B, i, 1_000_000);
        }
    });
    let f = fabric.clone();
    sim.spawn("b", move |p| {
        let ep = f.endpoint(B);
        for want in 0..3 {
            assert_eq!(ep.recv_wait(p).1, want);
        }
    });
    // Fires mid-transfer: connection must drain before dropping.
    let f = fabric.clone();
    sim.handle().call_at(time::ms(1) + time::us(500), move |h| {
        assert!(f.force_disconnect(A, B));
        assert_eq!(f.conn_state(A, B), ConnState::Draining);
        // Second flap on an already-draining connection is a no-op.
        assert!(!f.force_disconnect(A, B));
        let _ = h;
    });
    sim.run().unwrap();
    assert_eq!(fabric.conn_state(A, B), ConnState::Disconnected);
    let s = fabric.stats();
    assert_eq!(s.messages, 3, "in-flight messages still land");
    assert_eq!(s.forced_down, 1);
}

/// Flapping a connection that never existed, or one that is already down,
/// initiates nothing.
#[test]
fn force_disconnect_noop_cases() {
    let mut sim = Sim::new(0);
    let fabric: Fabric<u32> = Fabric::new(sim.handle(), test_cfg());
    assert!(!fabric.force_disconnect(A, B), "unknown connection");
    let f = fabric.clone();
    sim.spawn("a", move |p| {
        let ep = f.endpoint(A);
        ep.connect(p, B);
        ep.teardown(p, B);
        assert!(!ep.fabric().force_disconnect(A, B), "already disconnected");
    });
    sim.run().unwrap();
    assert_eq!(fabric.stats().forced_down, 0);
}

#[test]
fn connector_completes_setup_for_initiator_killed_mid_setup() {
    // The initiator dies during `conn_setup_time` while a second process
    // is mid-`connect`: nobody is left to flip the connection, so the
    // second process must flip it itself at `active_at`.
    let mut sim = Sim::new(0);
    let fabric: Fabric<u32> = Fabric::new(sim.handle(), test_cfg());
    let f = fabric.clone();
    let initiator = sim.spawn("a", move |p| {
        f.endpoint(A).connect(p, B);
        unreachable!("killed during connection setup");
    });
    let got = Arc::new(Mutex::new(Vec::new()));
    let (f, g) = (fabric.clone(), got.clone());
    sim.spawn("a-recv", move |p| {
        g.lock().push(f.endpoint(A).recv_wait(p));
    });
    let f = fabric.clone();
    sim.spawn("b", move |p| {
        p.sleep(time::us(100));
        let ep = f.endpoint(B);
        ep.connect(p, A);
        assert_eq!(p.now(), time::ms(1), "completes at the initiator's active_at");
        assert!(ep.is_connected(A));
        ep.send(A, 7, 64);
    });
    let h = sim.handle();
    sim.handle().call_at(time::us(500), move |_| h.kill(initiator));
    sim.run().unwrap();
    assert!(sim.handle().is_done(initiator));
    assert_eq!(fabric.conn_state(A, B), ConnState::Active);
    assert_eq!(fabric.stats().connects, 1, "the setup is counted exactly once");
    assert_eq!(*got.lock(), vec![(B, 7)], "the follow-up send is delivered");
}

#[test]
fn connect_finding_stale_connecting_completes_immediately() {
    // No concurrent connector: the initiator dies mid-setup and leaves the
    // connection `Connecting` past its `active_at`. A later `connect`
    // completes the setup at once, without paying the setup cost again.
    let mut sim = Sim::new(0);
    let fabric: Fabric<u32> = Fabric::new(sim.handle(), test_cfg());
    let f = fabric.clone();
    let initiator = sim.spawn("a", move |p| {
        f.endpoint(A).connect(p, B);
        unreachable!("killed during connection setup");
    });
    let h = sim.handle();
    sim.handle().call_at(time::us(500), move |_| h.kill(initiator));
    let f = fabric.clone();
    sim.spawn("b", move |p| {
        p.sleep(time::ms(5));
        assert_eq!(f.conn_state(A, B), ConnState::Connecting);
        let ep = f.endpoint(B);
        ep.connect(p, A);
        assert_eq!(p.now(), time::ms(5), "a stale setup completes without waiting");
        assert!(ep.is_connected(A));
    });
    sim.run().unwrap();
    assert_eq!(fabric.stats().connects, 1);
    assert_eq!(fabric.conn_state(A, B), ConnState::Active);
}
