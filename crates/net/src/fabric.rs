//! The fabric: endpoints, connections, and the transfer engine.

use crate::config::NetConfig;
use crate::stats::NetStats;
use gbcr_des::trace::FlapStage;
use gbcr_des::{ArgValue, DemandWake, Event, Proc, ProcId, SimHandle, Time, TimerHandle, Track};
use parking_lot::Mutex;
use std::collections::{HashMap, VecDeque};
use std::sync::Arc;

/// Identifier of a network endpoint (for MPI, equal to the global rank).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct NodeId(pub u32);

impl std::fmt::Display for NodeId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "n{}", self.0)
    }
}

/// Life-cycle state of one connection (queue pair).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ConnState {
    /// No connection exists (initial, or after teardown).
    Disconnected,
    /// One side is performing the out-of-band parameter exchange.
    Connecting,
    /// Fully established; sends are permitted.
    Active,
    /// Being flushed and torn down; no new sends, in-flight may still land.
    Draining,
}

struct ConnInner {
    state: ConnState,
    /// While `Connecting`: the virtual time at which setup completes and
    /// the connection becomes `Active`. A concurrent connector sleeps
    /// until this instant and the first arrival flips the state, so the
    /// setup completes even if the initiator is killed mid-setup and
    /// never comes back to wake anyone.
    active_at: Time,
    /// In-flight message counts per direction; index 0 is low→high rank.
    in_flight: [usize; 2],
    /// Link serialization horizon per direction (FIFO per direction).
    busy_until: [Time; 2],
    /// Processes parked waiting for a state change or a drain.
    waiters: Vec<ProcId>,
    /// A forced disconnect (fault injection) hit this connection while
    /// messages were in flight: the delivery engine completes the
    /// transition to `Disconnected` once both directions drain.
    flap_pending: bool,
}

impl ConnInner {
    fn new() -> Self {
        ConnInner {
            state: ConnState::Disconnected,
            active_at: 0,
            in_flight: [0, 0],
            busy_until: [0, 0],
            waiters: Vec::new(),
            flap_pending: false,
        }
    }
}

struct EpState<M> {
    queue: VecDeque<(NodeId, M)>,
    waiters: Vec<ProcId>,
    /// Demand-driven compute wake: poked on every delivery so a rank in
    /// sliced `compute()` runs progress at the next slice boundary instead
    /// of polling (see [`gbcr_des::DemandWake`]). Installed only while the
    /// owning rank is under passive coordination.
    hook: Option<DemandWake>,
}

type ConnMap = HashMap<(NodeId, NodeId), Arc<Mutex<ConnInner>>>;

struct Inner<M> {
    handle: SimHandle,
    cfg: NetConfig,
    eps: Mutex<HashMap<NodeId, Arc<Mutex<EpState<M>>>>>,
    conns: Mutex<ConnMap>,
    stats: Mutex<NetStats>,
}

/// The simulated interconnect. Clone freely; all clones are the same fabric.
///
/// ```
/// use gbcr_des::Sim;
/// use gbcr_net::{Fabric, NetConfig, NodeId};
///
/// let mut sim = Sim::new(0);
/// let fabric: Fabric<&'static str> = Fabric::new(sim.handle(), NetConfig::infiniband_ddr());
/// let f = fabric.clone();
/// sim.spawn("a", move |p| {
///     let ep = f.endpoint(NodeId(0));
///     ep.connect(p, NodeId(1)); // initiator pays the out-of-band setup
///     ep.send(NodeId(1), "hello", 64);
///     ep.teardown(p, NodeId(1)); // waits for the channel to drain
/// });
/// let f = fabric.clone();
/// sim.spawn("b", move |p| {
///     let ep = f.endpoint(NodeId(1));
///     assert_eq!(ep.recv_wait(p).1, "hello");
/// });
/// sim.run().unwrap();
/// assert_eq!(fabric.stats().teardowns, 1);
/// ```
pub struct Fabric<M> {
    inner: Arc<Inner<M>>,
}

impl<M> Clone for Fabric<M> {
    fn clone(&self) -> Self {
        Fabric { inner: self.inner.clone() }
    }
}

fn key(a: NodeId, b: NodeId) -> (NodeId, NodeId) {
    if a <= b {
        (a, b)
    } else {
        (b, a)
    }
}

/// Direction index within a connection keyed `(low, high)`.
fn dir(from: NodeId, to: NodeId) -> usize {
    usize::from(from > to)
}

impl<M: Send + 'static> Fabric<M> {
    /// Create a fabric bound to a simulation.
    pub fn new(handle: SimHandle, cfg: NetConfig) -> Self {
        Fabric {
            inner: Arc::new(Inner {
                handle,
                cfg,
                eps: Mutex::new(HashMap::new()),
                conns: Mutex::new(HashMap::new()),
                stats: Mutex::new(NetStats::default()),
            }),
        }
    }

    /// The fabric's timing configuration.
    pub fn config(&self) -> &NetConfig {
        &self.inner.cfg
    }

    /// Counter snapshot.
    pub fn stats(&self) -> NetStats {
        self.inner.stats.lock().clone()
    }

    /// Obtain (creating if necessary) the endpoint for `node`.
    pub fn endpoint(&self, node: NodeId) -> Endpoint<M> {
        let mut eps = self.inner.eps.lock();
        eps.entry(node).or_insert_with(|| {
            Arc::new(Mutex::new(EpState {
                queue: VecDeque::new(),
                waiters: Vec::new(),
                hook: None,
            }))
        });
        Endpoint { fabric: self.clone(), node }
    }

    /// Connection state between two nodes.
    pub fn conn_state(&self, a: NodeId, b: NodeId) -> ConnState {
        self.inner
            .conns
            .lock()
            .get(&key(a, b))
            .map_or(ConnState::Disconnected, |c| c.lock().state)
    }

    fn conn(&self, a: NodeId, b: NodeId) -> Arc<Mutex<ConnInner>> {
        self.inner
            .conns
            .lock()
            .entry(key(a, b))
            .or_insert_with(|| Arc::new(Mutex::new(ConnInner::new())))
            .clone()
    }

    fn ep(&self, node: NodeId) -> Arc<Mutex<EpState<M>>> {
        self.inner
            .eps
            .lock()
            .entry(node)
            .or_insert_with(|| {
                Arc::new(Mutex::new(EpState {
                    queue: VecDeque::new(),
                    waiters: Vec::new(),
                    hook: None,
                }))
            })
            .clone()
    }

    fn wake_all(&self, waiters: &mut Vec<ProcId>) {
        for w in waiters.drain(..) {
            self.inner.handle.wake(w);
        }
    }

    /// Forcibly take down the connection between `a` and `b` — the fault
    /// injector's entry point for link flaps and dead-node teardowns. Unlike
    /// [`Endpoint::teardown`] this never blocks (it runs from an event
    /// callback, not a process) and charges no teardown cost: the cable was
    /// yanked, nobody executed a disconnect protocol.
    ///
    /// An idle `Active` connection drops to `Disconnected` immediately; one
    /// with traffic in flight moves to `Draining` with a flap marker and the
    /// delivery engine completes the drop once both directions drain (the
    /// wire already carries those bytes — they still land, matching how a
    /// real HCA completes posted work before reporting the QP broken).
    /// Connections that are `Disconnected`, mid-setup, or already being torn
    /// down by a process are left alone. Returns whether a transition was
    /// initiated; parked waiters are woken so they re-observe the state.
    pub fn force_disconnect(&self, a: NodeId, b: NodeId) -> bool {
        let Some(conn) = self.inner.conns.lock().get(&key(a, b)).cloned() else {
            return false;
        };
        let mut c = conn.lock();
        match c.state {
            ConnState::Disconnected | ConnState::Connecting | ConnState::Draining => false,
            ConnState::Active => {
                if c.in_flight == [0, 0] {
                    c.state = ConnState::Disconnected;
                    let mut ws = std::mem::take(&mut c.waiters);
                    drop(c);
                    self.inner.stats.lock().forced_down += 1;
                    self.wake_all(&mut ws);
                    self.inner.handle.trace_instant(|| Event::NetFlap {
                        a: a.0,
                        b: b.0,
                        stage: FlapStage::Idle,
                    });
                } else {
                    c.state = ConnState::Draining;
                    c.flap_pending = true;
                    let mut ws = std::mem::take(&mut c.waiters);
                    drop(c);
                    self.wake_all(&mut ws);
                    self.inner.handle.trace_instant(|| Event::NetFlap {
                        a: a.0,
                        b: b.0,
                        stage: FlapStage::Draining,
                    });
                }
                true
            }
        }
    }
}

/// One node's attachment to the fabric. All blocking operations take the
/// calling [`Proc`].
pub struct Endpoint<M> {
    fabric: Fabric<M>,
    node: NodeId,
}

impl<M> Clone for Endpoint<M> {
    fn clone(&self) -> Self {
        Endpoint { fabric: self.fabric.clone(), node: self.node }
    }
}

impl<M: Send + 'static> Endpoint<M> {
    /// This endpoint's node id.
    pub fn node(&self) -> NodeId {
        self.node
    }

    /// The fabric this endpoint belongs to.
    pub fn fabric(&self) -> &Fabric<M> {
        &self.fabric
    }

    /// Establish (or re-establish) the connection to `peer`, blocking the
    /// caller for the out-of-band setup cost. Idempotent: returns
    /// immediately if already active; if another process is mid-setup or
    /// mid-teardown, waits for it and retries.
    pub fn connect(&self, p: &Proc, peer: NodeId) {
        assert_ne!(self.node, peer, "cannot connect to self");
        let conn = self.fabric.conn(self.node, peer);
        loop {
            let sleep_for: Time;
            {
                let mut c = conn.lock();
                match c.state {
                    ConnState::Active => return,
                    ConnState::Connecting => {
                        // Another process is mid-setup. Sleep until its
                        // recorded completion instant and re-observe
                        // instead of parking on the waiter list: an
                        // initiator killed during its setup sleep never
                        // flips the state, so a parked connector would
                        // wait forever. Whoever reaches `active_at` first
                        // performs the flip (normally the initiator; a
                        // concurrent connector completes for a dead one,
                        // and a later connector finding a stale
                        // `Connecting` completes at once).
                        if p.now() >= c.active_at {
                            c.state = ConnState::Active;
                            let mut ws = std::mem::take(&mut c.waiters);
                            drop(c);
                            self.fabric.inner.stats.lock().connects += 1;
                            self.fabric.wake_all(&mut ws);
                            return;
                        }
                        sleep_for = c.active_at - p.now();
                    }
                    ConnState::Draining => {
                        c.waiters.push(p.id());
                        drop(c);
                        p.park();
                        continue;
                    }
                    ConnState::Disconnected => {
                        c.state = ConnState::Connecting;
                        c.active_at = p.now() + self.fabric.inner.cfg.conn_setup_time;
                        drop(c);
                        let t0 = p.now();
                        p.sleep(self.fabric.inner.cfg.conn_setup_time);
                        let mut c = conn.lock();
                        if c.state == ConnState::Connecting {
                            c.state = ConnState::Active;
                            let mut ws = std::mem::take(&mut c.waiters);
                            drop(c);
                            self.fabric.inner.stats.lock().connects += 1;
                            self.fabric.wake_all(&mut ws);
                        }
                        let h = &self.fabric.inner.handle;
                        h.trace_span(Track::Node(self.node.0), "net.connect", t0, || {
                            vec![("peer", ArgValue::U64(u64::from(peer.0)))]
                        });
                        h.trace_instant(|| Event::NetConnect { a: self.node.0, b: peer.0 });
                        return;
                    }
                }
            }
            p.sleep(sleep_for);
        }
    }

    /// Whether the connection to `peer` is currently `Active`.
    pub fn is_connected(&self, peer: NodeId) -> bool {
        self.fabric.conn_state(self.node, peer) == ConnState::Active
    }

    /// Flush and tear down the connection to `peer`: waits until both
    /// directions are drained, then charges the teardown cost. Idempotent
    /// on already-disconnected connections. The caller is responsible for
    /// having stopped new sends on both sides (the checkpoint protocols in
    /// `gbcr-core` guarantee this).
    pub fn teardown(&self, p: &Proc, peer: NodeId) {
        let t0 = p.now();
        let conn = self.fabric.conn(self.node, peer);
        loop {
            {
                let mut c = conn.lock();
                match c.state {
                    ConnState::Disconnected => return,
                    ConnState::Active => {
                        c.state = ConnState::Draining;
                        break;
                    }
                    // The peer (e.g. another member of the same checkpoint
                    // group) is already tearing this connection down: wait
                    // for it to finish and return.
                    ConnState::Draining => c.waiters.push(p.id()),
                    ConnState::Connecting => panic!(
                        "teardown {}<->{} raced with connection setup",
                        self.node, peer
                    ),
                }
            }
            p.park();
        }
        // Wait for both directions to drain.
        let t_drain = p.now();
        loop {
            {
                let mut c = conn.lock();
                if c.in_flight == [0, 0] {
                    drop(c);
                    break;
                }
                c.waiters.push(p.id());
            }
            p.park();
        }
        let h = self.fabric.inner.handle.clone();
        h.trace_span(Track::Node(self.node.0), "net.drain", t_drain, || {
            vec![("peer", ArgValue::U64(u64::from(peer.0)))]
        });
        p.sleep(self.fabric.inner.cfg.conn_teardown_time);
        let mut c = conn.lock();
        debug_assert_eq!(c.state, ConnState::Draining);
        c.state = ConnState::Disconnected;
        self.fabric.inner.stats.lock().teardowns += 1;
        let mut ws = std::mem::take(&mut c.waiters);
        drop(c);
        self.fabric.wake_all(&mut ws);
        h.trace_span(Track::Node(self.node.0), "net.teardown", t0, || {
            vec![("peer", ArgValue::U64(u64::from(peer.0)))]
        });
        h.trace_instant(|| Event::NetTeardown { a: self.node.0, b: peer.0 });
    }

    /// Send `msg` to `peer`, charging `wire_size` bytes on the link. Never
    /// blocks: delivery is scheduled (FIFO per direction, serialized by link
    /// bandwidth, plus wire latency). Panics if the connection is not
    /// active — higher layers must buffer instead of sending during
    /// checkpoint coordination; reaching this panic means the consistency
    /// protocol is broken.
    pub fn send(&self, peer: NodeId, msg: M, wire_size: u64) {
        assert_ne!(self.node, peer, "no self-send at the fabric level");
        let inner = &self.fabric.inner;
        let now = inner.handle.now();
        let conn = self.fabric.conn(self.node, peer);
        let arrival = {
            let mut c = conn.lock();
            assert_eq!(
                c.state,
                ConnState::Active,
                "send {} -> {} on non-active connection",
                self.node,
                peer
            );
            let d = dir(self.node, peer);
            let start = c.busy_until[d].max(now) + inner.cfg.per_message_overhead;
            let done_serializing = start + inner.cfg.serialize_time(wire_size);
            c.busy_until[d] = done_serializing;
            c.in_flight[d] += 1;
            done_serializing + inner.cfg.latency
        };
        let fabric = self.fabric.clone();
        let from = self.node;
        inner.handle.call_at(arrival, move |h| {
            fabric.deliver(h, from, peer, msg, wire_size);
        });
    }

    /// Pop the next delivered message, if any.
    pub fn try_recv(&self) -> Option<(NodeId, M)> {
        self.fabric.ep(self.node).lock().queue.pop_front()
    }

    /// Block until a message is available, then pop it.
    pub fn recv_wait(&self, p: &Proc) -> (NodeId, M) {
        let ep = self.fabric.ep(self.node);
        loop {
            {
                let mut e = ep.lock();
                if let Some(m) = e.queue.pop_front() {
                    return m;
                }
                e.waiters.push(p.id());
            }
            p.park();
        }
    }

    /// Block until a message is available **or** the deadline passes;
    /// returns `None` on timeout. Used by progress engines that must also
    /// meet timer obligations. On every exit path the deadline timer is
    /// cancelled and the waiter registration removed — a timed-out waiter
    /// must never linger on the endpoint's list, or a later delivery would
    /// wake a rank that went back to computing (OS-bypass hardware never
    /// interrupts the host CPU that way).
    pub fn recv_timeout(&self, p: &Proc, deadline: Time) -> Option<(NodeId, M)> {
        let ep = self.fabric.ep(self.node);
        let mut timer: Option<TimerHandle> = None;
        let out = loop {
            {
                let mut e = ep.lock();
                if let Some(m) = e.queue.pop_front() {
                    break Some(m);
                }
                if p.now() >= deadline {
                    break None;
                }
                if !e.waiters.contains(&p.id()) {
                    e.waiters.push(p.id());
                }
            }
            if timer.is_none() {
                timer = Some(p.handle().schedule_wake_cancellable(deadline, p.id()));
            }
            p.park();
        };
        if let Some(t) = timer {
            t.cancel();
        }
        ep.lock().waiters.retain(|&w| w != p.id());
        out
    }

    /// Register the calling process to be woken on the next delivery to
    /// this endpoint, without consuming anything. Used to park on several
    /// endpoints at once (e.g. an MPI rank waiting on both its data-plane
    /// and out-of-band endpoints). The registration is one-shot and may
    /// produce spurious wakes; pair with a predicate loop.
    pub fn register_waiter(&self, pid: ProcId) {
        let ep = self.fabric.ep(self.node);
        let mut e = ep.lock();
        if !e.waiters.contains(&pid) {
            e.waiters.push(pid);
        }
    }

    /// Remove a previously registered waiter that was not consumed by a
    /// delivery (e.g. the wait ended via a timer). Keeping the lists clean
    /// matters for fidelity: a stale registration would let a data-plane
    /// delivery wake a *computing* rank, which OS-bypass hardware never
    /// does.
    pub fn unregister_waiter(&self, pid: ProcId) {
        self.fabric.ep(self.node).lock().waiters.retain(|&w| w != pid);
    }

    /// Install a demand-driven compute wake: every delivery to this
    /// endpoint pokes `hook` (see [`gbcr_des::DemandWake`]). Replaces any
    /// previous hook. Installed on passive-coordination entry by the MPI
    /// runtime; the hook itself only acts while its owner is parked.
    pub fn set_compute_hook(&self, hook: DemandWake) {
        self.fabric.ep(self.node).lock().hook = Some(hook);
    }

    /// Remove the demand-driven compute wake (passive-coordination exit).
    pub fn clear_compute_hook(&self) {
        self.fabric.ep(self.node).lock().hook = None;
    }

    /// Number of delivered-but-unconsumed messages.
    pub fn pending(&self) -> usize {
        self.fabric.ep(self.node).lock().queue.len()
    }

    /// In-flight message counts on the connection to `peer`:
    /// `(outbound, inbound)`.
    pub fn in_flight(&self, peer: NodeId) -> (usize, usize) {
        let conn = self.fabric.conn(self.node, peer);
        let c = conn.lock();
        let d = dir(self.node, peer);
        (c.in_flight[d], c.in_flight[1 - d])
    }

    /// Block until both directions of the connection to `peer` are drained.
    /// Only meaningful once both sides have stopped sending.
    pub fn wait_drained(&self, p: &Proc, peer: NodeId) {
        let conn = self.fabric.conn(self.node, peer);
        loop {
            {
                let mut c = conn.lock();
                if c.in_flight == [0, 0] {
                    return;
                }
                c.waiters.push(p.id());
            }
            p.park();
        }
    }
}

impl<M: Send + 'static> Fabric<M> {
    fn deliver(&self, h: &SimHandle, from: NodeId, to: NodeId, msg: M, wire_size: u64) {
        {
            let conn = self.conn(from, to);
            let mut c = conn.lock();
            debug_assert!(
                matches!(c.state, ConnState::Active | ConnState::Draining),
                "delivery on {:?} connection {from}->{to}",
                c.state
            );
            let d = dir(from, to);
            c.in_flight[d] -= 1;
            if c.in_flight == [0, 0] {
                // A forced disconnect hit this connection mid-transfer:
                // finish the drop now that the wire is empty.
                let flapped = c.flap_pending;
                if flapped {
                    debug_assert_eq!(c.state, ConnState::Draining);
                    c.state = ConnState::Disconnected;
                    c.flap_pending = false;
                }
                let mut ws = std::mem::take(&mut c.waiters);
                drop(c);
                if flapped {
                    self.inner.stats.lock().forced_down += 1;
                    h.trace_instant(|| Event::NetFlap {
                        a: from.0,
                        b: to.0,
                        stage: FlapStage::Drained,
                    });
                }
                self.wake_all(&mut ws);
            }
        }
        {
            let ep = self.ep(to);
            let mut e = ep.lock();
            e.queue.push_back((from, msg));
            let mut ws = std::mem::take(&mut e.waiters);
            let hook = e.hook.clone();
            drop(e);
            self.wake_all(&mut ws);
            if let Some(h) = hook {
                h.poke();
            }
        }
        let mut stats = self.inner.stats.lock();
        stats.messages += 1;
        stats.bytes += wire_size;
        drop(stats);
        h.trace_instant_detail(|| Event::NetDeliver { from: from.0, to: to.0, bytes: wire_size });
    }
}
