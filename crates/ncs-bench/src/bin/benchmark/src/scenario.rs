//! The systems under test: two nodes joined by one connection, or a
//! four-rank world — built only through the library's public API — and the
//! counters read back from them through its public accessors.

use std::collections::BTreeMap;
use std::sync::Arc;
use std::time::Duration;

use atm_sim::{FaultSpec, LinkSpec, NetworkBuilder, PumpConfig, QosParams};
use ncs_collectives::CollectiveGroup;
use ncs_core::link::{AciLink, HpiLinkPair, SciLink};
use ncs_core::{ConnectionConfig, NcsConnection, NcsNode};
use ncs_runtime::{LocalSession, LocalWorld, Session};
use ncs_threads::ThreadPackage;
use ncs_transport::aci::AciFabric;
use ncs_transport::sci::SciListener;

use crate::alloc;
use crate::host::ProcSnapshot;

/// Cell loss probability of the lossy ATM workload.
pub const ACI_CELL_LOSS: f64 = 0.001;
/// Seed of the loss schedule — pinned, not taken from `--seed`: with a
/// 200 ms retransmission timeout a 10 s run holds some 50 loss events, so a
/// schedule that changed from run to run would swing goodput by ~14% (one
/// standard deviation) whatever the code under test did.
pub const ACI_FAULT_SEED: u64 = 0xAC1_1055;
/// How much faster than real time the ATM model is pumped.
pub const ACI_SPEEDUP: f64 = 8.0;
/// Ranks of the allreduce world.
pub const WORLD_RANKS: u32 = 4;

const CONNECT_TIMEOUT: Duration = Duration::from_secs(10);

/// The interface under a [`Pair`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Wire {
    /// In-process rings.
    Hpi,
    /// TCP over the loopback interface — not a real link.
    Sci,
    /// The ATM model, the sender's host link losing cells at
    /// [`ACI_CELL_LOSS`] on the schedule of [`ACI_FAULT_SEED`].
    AciLossy,
}

/// Two nodes and the one connection between them.
#[derive(Debug)]
pub struct Pair {
    pub tx_node: NcsNode,
    pub rx_node: NcsNode,
    pub tx: NcsConnection,
    pub rx: NcsConnection,
    fabric: Option<Arc<AciFabric>>,
}

fn err(what: &str, e: impl std::fmt::Display) -> String {
    format!("{what}: {e}")
}

impl Pair {
    /// Node build → link attach → `connect`/`accept`. The sender's NCS
    /// threads run on `tx_pkg` when given, else on the default kernel
    /// package, as the receiver's always do.
    pub fn build(
        wire: Wire,
        config: ConnectionConfig,
        tx_pkg: Option<Arc<dyn ThreadPackage>>,
    ) -> Result<Pair, String> {
        let mut tx_builder = NcsNode::builder("bench-tx");
        if let Some(pkg) = tx_pkg {
            tx_builder = tx_builder.thread_package(pkg);
        }
        let tx_node = tx_builder.build();
        let rx_node = NcsNode::builder("bench-rx").build();
        let mut fabric = None;
        match wire {
            Wire::Hpi => {
                let (a, b) = HpiLinkPair::create();
                tx_node.attach_peer("bench-rx", a);
                rx_node.attach_peer("bench-tx", b);
            }
            Wire::Sci => {
                let bind = || SciListener::bind("127.0.0.1:0").map(Arc::new);
                let ltx = bind().map_err(|e| err("bind", e))?;
                let lrx = bind().map_err(|e| err("bind", e))?;
                let addr_tx = ltx.local_addr().map_err(|e| err("local_addr", e))?;
                let addr_rx = lrx.local_addr().map_err(|e| err("local_addr", e))?;
                tx_node.attach_peer("bench-rx", SciLink::new(addr_rx, ltx));
                rx_node.attach_peer("bench-tx", SciLink::new(addr_tx, lrx));
            }
            Wire::AciLossy => {
                let fault = FaultSpec::cell_loss(ACI_CELL_LOSS, ACI_FAULT_SEED);
                let net = NetworkBuilder::new()
                    .host("bench-tx")
                    .host("bench-rx")
                    .switch("sw")
                    .link("bench-tx", "sw", LinkSpec::oc3().with_fault(fault))
                    .link("bench-rx", "sw", LinkSpec::oc3())
                    .build()
                    .map_err(|e| err("atm network", e))?;
                let fab = AciFabric::start(net, PumpConfig::speedup(ACI_SPEEDUP));
                let device = |host| {
                    fab.device(host)
                        .map(Arc::new)
                        .map_err(|e| err("aci device", e))
                };
                let best_effort = QosParams::unspecified;
                tx_node.attach_peer(
                    "bench-rx",
                    AciLink::new(device("bench-tx")?, "bench-rx", best_effort()),
                );
                rx_node.attach_peer(
                    "bench-tx",
                    AciLink::new(device("bench-rx")?, "bench-tx", best_effort()),
                );
                fabric = Some(fab);
            }
        }
        let tx = tx_node
            .connect("bench-rx", config)
            .map_err(|e| err("connect", e))?;
        let rx = rx_node
            .accept(CONNECT_TIMEOUT)
            .map_err(|e| err("accept", e))?;
        Ok(Pair {
            tx_node,
            rx_node,
            tx,
            rx,
            fabric,
        })
    }

    pub fn counters(&self) -> Counters {
        gather(
            &[&self.tx_node, &self.rx_node],
            &[&self.tx, &self.rx],
            &[],
            self.fabric.as_deref(),
        )
    }

    pub fn shutdown(self) {
        self.tx_node.shutdown();
        self.rx_node.shutdown();
        if let Some(f) = self.fabric {
            f.shutdown();
        }
    }
}

/// `LocalWorld::create(4)` with one collective group per rank.
#[derive(Debug)]
pub struct World {
    sessions: Vec<LocalSession>,
    pub groups: Vec<CollectiveGroup>,
}

impl World {
    pub fn build() -> Result<World, String> {
        let sessions = LocalWorld::create(WORLD_RANKS).map_err(|e| err("world", e))?;
        let groups = sessions
            .iter()
            .map(|s| {
                s.collective_group(1)
                    .map_err(|e| err("collective group", e))
            })
            .collect::<Result<_, _>>()?;
        Ok(World { sessions, groups })
    }

    pub fn counters(&self) -> Counters {
        let nodes: Vec<&NcsNode> = self.sessions.iter().map(|s| s.node()).collect();
        let conns: Vec<&NcsConnection> = self
            .sessions
            .iter()
            .flat_map(|s| (0..WORLD_RANKS).filter_map(|r| s.connection(r)))
            .collect();
        let groups: Vec<&CollectiveGroup> = self.groups.iter().collect();
        gather(&nodes, &conns, &groups, None)
    }

    pub fn shutdown(self) {
        drop(self.groups);
        for s in &self.sessions {
            s.shutdown();
        }
    }
}

/// Monotonic counters by name, read at a phase boundary. Every
/// `*_per_msg` metric is a [`Counters::since`] difference over one shared
/// denominator.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Counters(BTreeMap<&'static str, u64>);

impl Counters {
    pub fn get(&self, name: &str) -> u64 {
        self.0.get(name).copied().unwrap_or(0)
    }

    fn add(&mut self, name: &'static str, n: u64) {
        *self.0.entry(name).or_default() += n;
    }

    /// Counts accrued since `earlier`. Gauges (`reactor.workers`,
    /// `proc.threads`) keep their later reading.
    pub fn since(&self, earlier: &Counters) -> Counters {
        Counters(
            self.0
                .iter()
                .map(|(&k, &v)| match k {
                    "reactor.workers" | "proc.threads" => (k, v),
                    _ => (k, v.saturating_sub(earlier.get(k))),
                })
                .collect(),
        )
    }
}

fn same<T: ?Sized>(a: &Arc<T>, b: &Arc<T>) -> bool {
    std::ptr::addr_eq(Arc::as_ptr(a), Arc::as_ptr(b))
}

/// Pushes `item` unless an `Arc` to the same allocation is already there
/// (co-located nodes may share a reactor or a thread package).
fn push_distinct<T: ?Sized>(seen: &mut Vec<Arc<T>>, item: Arc<T>) {
    if !seen.iter().any(|s| same(s, &item)) {
        seen.push(item);
    }
}

fn gather(
    nodes: &[&NcsNode],
    conns: &[&NcsConnection],
    groups: &[&CollectiveGroup],
    fabric: Option<&AciFabric>,
) -> Counters {
    let mut c = Counters::default();
    for conn in conns {
        let s = conn.stats();
        c.add("conn.messages_sent", s.messages_sent);
        c.add("conn.messages_received", s.messages_received);
        c.add("conn.packets_sent", s.packets_sent);
        c.add("conn.packets_received", s.packets_received);
        c.add("conn.retransmissions", s.retransmissions);
        c.add("conn.acks_sent", s.acks_sent);
        c.add("conn.credits_granted", s.credits_granted);
        c.add("conn.credits_received", s.credits_received);
        c.add("conn.send_failures", s.send_failures);
    }
    let mut reactors = Vec::new();
    let mut packages = Vec::new();
    for node in nodes {
        let pool = node.pool_stats();
        c.add("pool.checkouts", pool.checkouts);
        c.add("pool.misses", pool.misses);
        let snap = node.metrics_snapshot();
        for (name, family) in [
            ("transport.frames_sent", "ncs_transport_frames_sent_total"),
            ("transport.bytes_sent", "ncs_transport_bytes_sent_total"),
            (
                "transport.frames_received",
                "ncs_transport_frames_received_total",
            ),
        ] {
            c.add(name, snap.counter_total(family));
        }
        push_distinct(&mut reactors, node.reactor());
        push_distinct(&mut packages, node.thread_package());
    }
    for reactor in &reactors {
        let s = reactor.stats();
        // A gauge, per reactor: the widest one.
        let widest = c.get("reactor.workers").max(s.workers as u64);
        c.0.insert("reactor.workers", widest);
        c.add("reactor.wakeups", s.wakeups);
        c.add("reactor.task_runs", s.task_runs);
        c.add("reactor.polls", s.polls);
        c.add("reactor.timer_fires", s.timer_fires);
        c.add("reactor.fd_events", s.fd_events);
        c.add("reactor.stalled_tasks", s.stalled_tasks);
        c.add("reactor.blocking_spawned", s.blocking_spawned);
    }
    for pkg in &packages {
        c.add("threads.blocks", pkg.stats().blocks);
    }
    for group in groups {
        let s = group.stats();
        c.add("coll.frames_sent", s.frames_sent);
        c.add("coll.bytes_sent", s.bytes_sent);
    }
    if let Some(fabric) = fabric {
        let s = fabric.stats();
        c.add("atm.cells_sent", s.cells_sent);
        c.add("atm.cells_lost", s.cells_lost);
        c.add("atm.frames_failed", s.frames_failed);
    }
    let (allocs, alloc_bytes) = alloc::totals();
    c.add("alloc.count", allocs);
    c.add("alloc.bytes", alloc_bytes);
    let proc = ProcSnapshot::take();
    c.add("proc.vol_ctx", proc.vol_ctx);
    c.add("proc.invol_ctx", proc.invol_ctx);
    c.add("proc.cpu_ns", proc.cpu_ns);
    c.add("proc.threads", proc.threads);
    c
}
