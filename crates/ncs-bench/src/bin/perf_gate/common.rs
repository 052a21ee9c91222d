//! What the sections share: the interface/package axes, the connected
//! node pair every point-to-point section measures over, the timing
//! helpers, and the [`Report`] each section hands back to `main`.

use std::sync::Arc;
use std::time::{Duration, Instant};

use ncs_core::json::Json;
use ncs_core::link::{AciLink, HpiLinkPair, PipeLinkPair, SciLink};
use ncs_core::{ConnectionConfig, NcsConnection, NcsNode};
use ncs_threads::{KernelPackage, SwitchMech, ThreadPackage, UserConfig, UserRuntime};
use ncs_transport::pipe::PipeConfig;
use ncs_transport::sci::SciListener;

/// Latency probe payload (bytes).
pub const LAT_BYTES: usize = 64;

/// End-of-phase sentinel (1 byte, distinguishable from every payload).
pub const SENTINEL: u8 = 0xFF;

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Iface {
    Hpi,
    Pipe,
    Sci,
    Aci,
}

impl Iface {
    pub const ALL: [Iface; 4] = [Iface::Hpi, Iface::Pipe, Iface::Sci, Iface::Aci];

    pub fn name(self) -> &'static str {
        match self {
            Iface::Hpi => "HPI",
            Iface::Pipe => "PIPE",
            Iface::Sci => "SCI",
            Iface::Aci => "ACI",
        }
    }
}

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Package {
    Kernel,
    User,
}

impl Package {
    pub const ALL: [Package; 2] = [Package::Kernel, Package::User];

    pub fn name(self) -> &'static str {
        match self {
            Package::Kernel => "kernel",
            Package::User => "user",
        }
    }
}

/// Runs `f` with a fresh thread package of the given kind: directly on
/// this thread for the kernel package, as the root green thread of a
/// user-level runtime otherwise. Everything the sections run under it
/// blocks only through package-aware primitives, so the same code
/// measures both.
pub fn with_package<R: Send + 'static>(
    package: Package,
    f: impl FnOnce(Arc<dyn ThreadPackage>) -> R + Send + 'static,
) -> R {
    match package {
        Package::Kernel => f(Arc::new(KernelPackage::new())),
        Package::User => UserRuntime::new(UserConfig {
            mech: SwitchMech::Native,
            ..UserConfig::default()
        })
        .run(move |pkg| f(Arc::new(pkg))),
    }
}

/// Two connected NCS nodes over one interface, plus whatever must stay
/// alive for the link to work.
pub struct Pair {
    pub tx_node: NcsNode,
    pub rx_node: NcsNode,
    fabric: Option<Arc<ncs_transport::aci::AciFabric>>,
}

impl Pair {
    /// Opens one connection from the sender node to the receiver node.
    pub fn connect(&self, cfg: ConnectionConfig) -> (NcsConnection, NcsConnection) {
        let tx = self.tx_node.connect("gate-rx", cfg).expect("gate connect");
        let rx = self.rx_node.accept_default().expect("gate accept");
        (tx, rx)
    }

    pub fn shutdown(self) {
        self.tx_node.shutdown();
        self.rx_node.shutdown();
        if let Some(f) = self.fabric {
            f.shutdown();
        }
    }
}

/// Builds a connected node pair over `iface`; the sender node runs its NCS
/// threads on `pkg` (the receiver stands in for a remote process on the
/// default kernel package, as in the paper's experiments).
pub fn build_pair(iface: Iface, pkg: Arc<dyn ThreadPackage>) -> Pair {
    let tx_node = NcsNode::builder("gate-tx").thread_package(pkg).build();
    let rx_node = NcsNode::builder("gate-rx").build();
    let mut fabric = None;
    match iface {
        Iface::Hpi => {
            let (la, lb) = HpiLinkPair::with_capacity(1024);
            tx_node.attach_peer("gate-rx", la);
            rx_node.attach_peer("gate-tx", lb);
        }
        Iface::Pipe => {
            // A fast local pipe: generous buffer, instant drain.
            let wire = PipeConfig {
                buffer_bytes: 256 * 1024,
                drain_bytes_per_sec: None,
                latency: Duration::ZERO,
                time_scale: 1.0,
            };
            let (la, lb) = PipeLinkPair::create(wire, None, None);
            tx_node.attach_peer("gate-rx", la);
            rx_node.attach_peer("gate-tx", lb);
        }
        Iface::Sci => {
            let ltx = Arc::new(SciListener::bind("127.0.0.1:0").expect("bind tx"));
            let lrx = Arc::new(SciListener::bind("127.0.0.1:0").expect("bind rx"));
            let addr_tx = ltx.local_addr().expect("tx addr");
            let addr_rx = lrx.local_addr().expect("rx addr");
            tx_node.attach_peer("gate-rx", SciLink::new(addr_rx, ltx));
            rx_node.attach_peer("gate-tx", SciLink::new(addr_tx, lrx));
        }
        Iface::Aci => {
            use atm_sim::{LinkSpec, NetworkBuilder, PumpConfig, QosParams};
            use ncs_transport::aci::AciFabric;
            let net = NetworkBuilder::new()
                .host("gate-tx")
                .host("gate-rx")
                .switch("sw")
                .link("gate-tx", "sw", LinkSpec::oc3())
                .link("gate-rx", "sw", LinkSpec::oc3())
                .build()
                .expect("atm network");
            let fab = AciFabric::start(net, PumpConfig::default());
            let dev_tx = Arc::new(fab.device("gate-tx").expect("tx device"));
            let dev_rx = Arc::new(fab.device("gate-rx").expect("rx device"));
            tx_node.attach_peer(
                "gate-rx",
                AciLink::new(dev_tx, "gate-rx", QosParams::unspecified()),
            );
            rx_node.attach_peer(
                "gate-tx",
                AciLink::new(dev_rx, "gate-tx", QosParams::unspecified()),
            );
            fabric = Some(fab);
        }
    }
    Pair {
        tx_node,
        rx_node,
        fabric,
    }
}

/// Connection configuration for one-way bulk traffic: the §3.1 bypass for
/// reliable wires; credit-based flow control plus selective repeat where
/// the interface itself can drop frames under load.
pub fn bulk_config(iface: Iface) -> ConnectionConfig {
    match iface {
        // HPI overruns and ACI cell loss make FC/EC mandatory for bulk.
        Iface::Hpi | Iface::Aci => ConnectionConfig::reliable(),
        // PIPE and SCI are reliable: NCS bypasses its control threads.
        Iface::Pipe | Iface::Sci => ConnectionConfig::unreliable(),
    }
}

/// Sorts latency samples for [`percentile`].
pub fn sorted(mut samples: Vec<f64>) -> Vec<f64> {
    samples.sort_by(f64::total_cmp);
    samples
}

pub fn percentile(sorted: &[f64], p: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let idx = ((sorted.len() as f64 - 1.0) * p).round() as usize;
    sorted[idx.min(sorted.len() - 1)]
}

pub fn micros_since(t0: Instant) -> f64 {
    t0.elapsed().as_secs_f64() * 1e6
}

/// Times each of `iters` runs of `op` (handed the run's index). Returns
/// sorted microseconds.
pub fn time_each(iters: usize, mut op: impl FnMut(usize)) -> Vec<f64> {
    let timed = |k| {
        let t0 = Instant::now();
        op(k);
        micros_since(t0)
    };
    sorted((0..iters).map(timed).collect())
}

/// Blocking ping-pong against an echoing peer: one untimed warm-up
/// exchange (fills the pipeline and the buffer pool's free lists), then
/// `iters` timed round trips. Returns sorted microseconds.
pub fn ping_pong(conn: &NcsConnection, payload: &[u8], iters: usize) -> Vec<f64> {
    let exchange = |_| {
        conn.send(payload).expect("ping send");
        let back = conn
            .recv_timeout(Duration::from_secs(30))
            .expect("ping recv");
        assert_eq!(back.len(), payload.len(), "echo length mismatch");
    };
    exchange(0);
    time_each(iters, exchange)
}

/// The peer of [`ping_pong`]: echoes every message until the 1-byte
/// [`SENTINEL`] (or an error) arrives.
pub fn echo_until_sentinel(conn: &NcsConnection) {
    while let Ok(m) = conn.recv_timeout(Duration::from_secs(30)) {
        if m[..] == [SENTINEL] || conn.send(&m).is_err() {
            break;
        }
    }
}

/// What a section hands back to `main`.
#[derive(Debug)]
pub struct Report {
    /// The artifact key the subtree nests under; `None` merges its
    /// members into the document root.
    pub key: Option<&'static str>,
    /// The section's JSON subtree, gate verdicts included.
    pub json: Json,
    /// One line per gate that did not hold (empty: the section passed).
    pub failures: Vec<String>,
}

/// A JSON object from `"key" => value` pairs; values are anything
/// `Json: From`.
macro_rules! obj {
    ($($key:literal => $value:expr),* $(,)?) => {
        Json::obj([$(($key, Json::from($value))),*])
    };
}
pub(crate) use obj;

/// `v` rounded to `decimals` places — the one number format of the
/// artifact.
pub fn num(v: f64, decimals: i32) -> Json {
    let scale = 10f64.powi(decimals);
    Json::Num((v * scale).round() / scale)
}

/// The one-line stderr summary of a finished case: its JSON, compact.
pub fn summarize(case: &Json) {
    eprintln!("  {}", case.render());
}

/// One section's gate verdicts: builds each gate's JSON object and keeps
/// a line for every gate that did not hold.
#[derive(Debug, Default)]
pub struct Gates {
    pub failures: Vec<String>,
}

impl Gates {
    /// A gate that holds while `value` is at least `threshold`.
    pub fn at_least(&mut self, metric: &str, threshold: f64, value: f64) -> Json {
        self.bounded(metric, ">=", threshold, value, value >= threshold)
    }

    /// A gate that holds while `value` is at most `threshold`.
    pub fn at_most(&mut self, metric: &str, threshold: f64, value: f64) -> Json {
        self.bounded(metric, "<=", threshold, value, value <= threshold)
    }

    fn bounded(&mut self, metric: &str, op: &str, threshold: f64, value: f64, pass: bool) -> Json {
        if !pass {
            self.failures.push(format!(
                "{metric}: measured {value:.2}, must be {op} {threshold}"
            ));
        }
        obj! { "metric" => metric, "threshold" => threshold, "value" => num(value, 2), "pass" => pass }
    }

    /// A boolean gate.
    pub fn holds(&mut self, metric: &str, pass: bool) -> Json {
        if !pass {
            self.failures.push(format!("{metric}: does not hold"));
        }
        obj! { "metric" => metric, "pass" => pass }
    }

    /// Closes the section: its subtree (nested under `key`, or merged into
    /// the document root for `None`) and what failed.
    pub fn report(self, key: Option<&'static str>, json: Json) -> Report {
        Report {
            key,
            json,
            failures: self.failures,
        }
    }
}
