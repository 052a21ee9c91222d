//! The six workloads, and one benchmark run of any of them: set-up
//! sampling, warm-up, untraced repetitions for the end-to-end metrics, or a
//! traced phase (plus the ping-pong ladder) for the per-layer ones.

use std::collections::BTreeMap;
use std::sync::Arc;
use std::time::Duration;

use ncs_core::{ConnectionConfig, EventKind, FlightRecorder, NcsConnection};
use ncs_threads::{SwitchMech, ThreadPackage, UserConfig, UserRuntime};
use ncs_transport::{hpi, sci};

use crate::engine::{ladder_rtt_us, Allreduce, Budget, Engine, Lane, PingPong, Port, Rep, Window};
use crate::host;
use crate::payload::{now_ns, Payloads};
use crate::scenario::{Counters, Pair, Wire, World};
use crate::stats;
use crate::trace::{self, Kind, Trace};

/// Complete set-ups timed per run; `setup_s` is their median.
pub const SETUP_SAMPLES: usize = 24;
/// Once set-ups have taken this long in all, one per instance is enough (a
/// set-up that sits through a retransmission timeout takes over a second).
const SETUP_SAMPLING_BUDGET: f64 = 3.0;
/// Instances set up only to be timed are torn down this many at a time.
const TEARDOWN_BATCH: usize = 7;
/// Fresh instances an untraced run measures, one after another.
pub const INSTANCES: usize = 6;
/// Seconds in one slice of an instance's measurement; a timing metric is
/// read off the better end of the slices' values.
const SLICE_S: f64 = 0.05;
/// How far from the better end: the value that 5 % of the slices beat.
const ENVELOPE: f64 = 0.05;
/// Seconds of warm-up every fresh instance gets, discarded.
const WARMUP_S: f64 = 0.2;
/// Spans one traced phase can hold (32 bytes each).
const TRACE_CAPACITY: usize = 1 << 18;

#[derive(Debug, Clone, Copy, PartialEq)]
enum Shape {
    /// 64-byte echo; reliable (credit FC + selective-repeat EC) or the
    /// §3.1 bypass.
    PingPong { reliable: bool },
    /// One-way windows of `window` messages, reliable; message lengths
    /// cycle through `lens`.
    Window {
        lens: &'static [usize],
        window: usize,
        /// Send on `channel(0)` rather than the connection itself.
        channel: bool,
    },
    /// `iallreduce` of 64 `f64` on all four ranks of a `LocalWorld`.
    Allreduce,
}

/// One benchmark workload. Names are stable: later changes cite them.
#[derive(Debug, Clone, Copy)]
pub struct Spec {
    pub name: &'static str,
    pub why: &'static str,
    /// `None` for the allreduce, which builds a world instead of a pair.
    wire: Option<Wire>,
    shape: Shape,
    /// `Some(n)`: phases last a fixed number of operations, `n` per second
    /// of `--seconds`, instead of a fixed time.
    ops_per_second: Option<f64>,
}

pub const ALL: [Spec; 6] = [
    Spec {
        name: "hpi_pingpong_64B",
        why: "one 64 B message in flight over in-process HPI with FC+EC on: every thread hand-off is on the critical path and the transport does almost nothing",
        wire: Some(Wire::Hpi),
        shape: Shape::PingPong { reliable: true },
        ops_per_second: None,
    },
    Spec {
        name: "hpi_stream_8B",
        why: "windows of 64 one-way 8 B isends on channel(0): batching amortises wakes, so per-message allocation, credit and ack traffic dominate",
        wire: Some(Wire::Hpi),
        shape: Shape::Window {
            lens: &[8],
            window: 64,
            channel: true,
        },
        ops_per_second: None,
    },
    Spec {
        name: "hpi_bulk_64K",
        why: "one-way 64 KiB messages (16 SDUs each), window 4: per-byte work (segmentation, encode, pool, reassembly, copies) dominates, per-message cost is diluted",
        wire: Some(Wire::Hpi),
        shape: Shape::Window {
            lens: &[64 * 1024],
            window: 4,
            channel: false,
        },
        ops_per_second: None,
    },
    Spec {
        name: "sci_pingpong_64B",
        why: "64 B echo over loopback TCP on the FC/EC bypass: syscalls, the poll(2) thread and fd readiness do the work; the control for any FC/EC change",
        wire: Some(Wire::Sci),
        shape: Shape::PingPong { reliable: false },
        ops_per_second: None,
    },
    Spec {
        name: "allreduce_4r_64",
        why: "iallreduce of 64 f64 on all 4 ranks of a LocalWorld from one driver thread: ncs-collectives does the work over 12 meshed connections",
        wire: None,
        shape: Shape::Allreduce,
        ops_per_second: None,
    },
    Spec {
        name: "aci_lossy_16K",
        why: "16/12 KiB messages, window 2, a fixed count over the ATM model at 0.1% cell loss: traffic that leaves the fast path, retransmission timers and SR recovery set the result",
        wire: Some(Wire::AciLossy),
        // Lengths alternate between 4 and 3 SDUs: see README, "A defect
        // this benchmark found".
        shape: Shape::Window {
            lens: &[16 * 1024, 12 * 1024],
            window: 2,
            channel: false,
        },
        // The pinned loss schedule is a function of cells sent, so phases
        // are a fixed count: 15 windows/s, about what this host does, makes
        // ten seconds 300 messages.
        ops_per_second: Some(15.0),
    },
];

pub fn find(name: &str) -> Option<&'static Spec> {
    ALL.iter().find(|s| s.name == name)
}

impl Spec {
    /// The budget of a phase that gets `seconds` of the run.
    fn budget(&self, seconds: f64) -> Budget {
        match self.ops_per_second {
            Some(rate) => Budget::Ops((seconds * rate).round().max(1.0) as u64),
            None => Budget::Time(Duration::from_secs_f64(seconds)),
        }
    }

    fn is_pingpong(&self) -> bool {
        matches!(self.shape, Shape::PingPong { .. })
    }

    fn config(&self) -> ConnectionConfig {
        match self.shape {
            Shape::PingPong { reliable: false } => ConnectionConfig::unreliable(),
            _ => ConnectionConfig::reliable(),
        }
    }

    fn payloads(&self, seed: u64) -> Payloads {
        match self.shape {
            Shape::Window { lens, .. } => Payloads::cycling(seed, lens),
            // (The allreduce generates its own contributions.)
            _ => Payloads::new(seed, 64),
        }
    }
}

/// What an instance keeps alive besides its engine.
enum Scenario {
    Pair(Pair),
    World(Arc<World>),
}

/// A workload set up and ready: first message already delivered.
pub struct Instance {
    scenario: Scenario,
    engine: Box<dyn Engine>,
}

impl Instance {
    /// The complete set-up `setup_s` times: node build → link attach →
    /// `connect`/`accept` (world + collective groups for the allreduce,
    /// fabric start for ACI) → first operation verified.
    pub fn setup(spec: &Spec, seed: u64, trace: &Arc<Trace>) -> Result<Instance, String> {
        let payloads = spec.payloads(seed);
        let trace = Arc::clone(trace);
        let (scenario, mut engine): (Scenario, Box<dyn Engine>) = match spec.shape {
            Shape::Allreduce => {
                let world = Arc::new(World::build()?);
                let engine = Allreduce::new(Arc::clone(&world), seed, trace);
                (Scenario::World(world), Box::new(engine))
            }
            Shape::PingPong { .. } => {
                let wire = spec.wire.expect("ping-pong runs on a wire");
                let pair = Pair::build(wire, spec.config(), None)?;
                let engine = PingPong::start(
                    Port::Ncs(pair.tx.clone()),
                    Port::Ncs(pair.rx.clone()),
                    payloads,
                    trace,
                );
                (Scenario::Pair(pair), Box::new(engine))
            }
            Shape::Window {
                window, channel, ..
            } => {
                let wire = spec.wire.expect("a stream runs on a wire");
                let pair = Pair::build(wire, spec.config(), None)?;
                let lane = |conn: &NcsConnection| {
                    if channel {
                        Lane::Chan(conn.channel(0))
                    } else {
                        Lane::Conn(conn.clone())
                    }
                };
                let engine = Window::start(lane(&pair.tx), lane(&pair.rx), window, payloads, trace);
                (Scenario::Pair(pair), Box::new(engine))
            }
        };
        let first = engine.run(Budget::Ops(1));
        let inst = Instance { scenario, engine };
        if first.failed > 0 {
            inst.shutdown();
            return Err(format!("{}: first operation failed", spec.name));
        }
        Ok(inst)
    }

    pub fn run(&mut self, budget: Budget) -> Rep {
        self.engine.run(budget)
    }

    fn counters(&self) -> Counters {
        match &self.scenario {
            Scenario::Pair(p) => p.counters(),
            Scenario::World(w) => w.counters(),
        }
    }

    /// The sender-side flight recorder, where there is a single sender.
    fn flight(&self) -> Option<FlightRecorder> {
        match &self.scenario {
            Scenario::Pair(p) => Some(p.tx.flight()),
            Scenario::World(_) => None,
        }
    }

    pub fn shutdown(mut self) {
        self.engine.stop();
        drop(self.engine);
        match self.scenario {
            Scenario::Pair(p) => p.shutdown(),
            Scenario::World(w) => match Arc::try_unwrap(w) {
                Ok(world) => world.shutdown(),
                Err(_) => unreachable!("the engine held the only other reference"),
            },
        }
    }
}

/// A metric value with its unit, as printed and as written to JSON.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    pub value: f64,
    pub unit: &'static str,
}

pub type Metrics = BTreeMap<&'static str, Metric>;

/// The outcome of one benchmark run of one workload.
#[derive(Debug, Clone, Default)]
pub struct RunResult {
    pub attempted: u64,
    pub failed: u64,
    pub metrics: Metrics,
    /// The per-slice values (per-sample, for `setup_s`) behind each
    /// reported one (untraced runs only).
    pub raw: BTreeMap<&'static str, Vec<f64>>,
}

/// End-to-end metrics: `(name, unit, better, bound)`, `bound` being the
/// share of the parent's median by which the metric may worsen before a
/// change counts as a regression. Every workload reports all of them; see
/// the README for what one *operation* is on each.
pub const END_TO_END: [(&str, &str, &str, f64); 5] = [
    ("op_p50_us", "us", "lower", 0.25),
    ("msg_rate_kmsgs_s", "kmsgs/s", "higher", 0.25),
    ("goodput_MiB_s", "MiB/s", "higher", 0.25),
    ("peak_rss_MiB", "MiB", "lower", 0.15),
    ("setup_s", "s", "lower", 0.25),
];

fn set(metrics: &mut Metrics, name: &'static str, unit: &'static str, value: f64) {
    metrics.insert(name, Metric { value, unit });
}

/// Shuts every instance down, all at once: a teardown is mostly
/// idle-tick waiting (0.4 s), so doing them together wastes less of the run.
fn shutdown_all(instances: &mut Vec<Instance>) {
    std::thread::scope(|scope| {
        for inst in instances.drain(..) {
            scope.spawn(move || inst.shutdown());
        }
    });
}

/// One complete set-up, its duration appended to `samples`.
fn timed_setup(
    spec: &Spec,
    seed: u64,
    trace: &Arc<Trace>,
    samples: &mut Vec<f64>,
) -> Result<Instance, String> {
    let t0 = now_ns();
    let inst = Instance::setup(spec, seed, trace);
    samples.push((now_ns() - t0) as f64 / 1e9);
    inst
}

/// Warms `inst` up for [`WARMUP_S`], and for as long as it takes to tear
/// `retired` down beside it: nothing but the measured instance is alive when
/// the measurement starts (a dozen idle threads ticking, or a teardown in
/// progress, both show in the numbers), and the 0.4 s a teardown spends
/// waiting for idle ticks is not wasted.
fn warm_up(spec: &Spec, inst: &mut Instance, mut retired: Vec<Instance>) -> Rep {
    std::thread::scope(|scope| {
        let teardown = scope.spawn(move || shutdown_all(&mut retired));
        let mut warm = inst.run(spec.budget(WARMUP_S));
        while !teardown.is_finished() {
            let more = inst.run(Budget::Time(Duration::from_millis(20)));
            warm.attempted += more.attempted;
            warm.failed += more.failed;
        }
        warm
    })
}

/// What a run reports for a metric, given the values behind it.
///
/// `setup_s` is the median of its samples. A timing metric is the value
/// that [`ENVELOPE`] of its slices beat (5th percentile of a latency, 95th
/// of a rate): this VM has a slow state — context switches cost a third
/// more for seconds at a time, for anything from none to nine tenths of a
/// run, while a CPU-bound loop beside them holds steady to ±2 % — so a run's
/// median reads how much of the run that state covered, and the better end
/// of short slices reads the code in the other state. Not the very best
/// slice: now and then one catches a hand-off pattern that skips a park and
/// reads half the usual round trip. Measured run to run: median of slices
/// 11–27 %, this 2–9 % (README, "Method").
fn reported(name: &str, better: &str, values: &[f64]) -> f64 {
    match (name, better) {
        ("setup_s", _) => stats::median(values),
        (_, "lower") => stats::quantile(values, ENVELOPE),
        _ => stats::quantile(values, 1.0 - ENVELOPE),
    }
}

/// The untraced run: [`INSTANCES`] fresh instances share `seconds`; each is
/// set up (timed), warmed up and measured in slices of [`SLICE_S`].
///
/// Fresh instances, because part of the variation belongs to the instance:
/// a set of threads can settle into one hand-off pattern and keep it for as
/// long as it lives. Short slices, because the host changes state within a
/// second and a slice that straddles a change belongs to neither.
pub fn run_end_to_end(spec: &Spec, seed: u64, seconds: f64) -> Result<RunResult, String> {
    let trace = Trace::with_capacity(0);
    let mut result = RunResult::default();
    let mut setups = Vec::with_capacity(SETUP_SAMPLES);
    // A fixed-count workload is one instance and one slice: splitting its
    // few dozen loss events would report one share's luck.
    let (instances, slices) = if spec.ops_per_second.is_some() {
        (1, 1)
    } else {
        let slices = (seconds / INSTANCES as f64 / SLICE_S).round().max(1.0);
        (INSTANCES, slices as usize)
    };
    let slice = spec.budget(seconds / (instances * slices) as f64);
    let mut retired = Vec::new();
    for _ in 0..instances {
        let mut inst = timed_setup(spec, seed, &trace, &mut setups)?;
        let warm = warm_up(spec, &mut inst, std::mem::take(&mut retired));
        result.attempted += warm.attempted;
        result.failed += warm.failed;
        for _ in 0..slices {
            let rep = inst.run(slice);
            result.attempted += rep.attempted;
            result.failed += rep.failed;
            let secs = rep.elapsed_s.max(1e-9);
            let mut push = |name, v| result.raw.entry(name).or_default().push(v);
            push("op_p50_us", stats::median(&rep.lat_us));
            push("msg_rate_kmsgs_s", rep.delivered_msgs as f64 / secs / 1e3);
            push(
                "goodput_MiB_s",
                rep.delivered_bytes as f64 / secs / (1024.0 * 1024.0),
            );
        }
        retired.push(inst);
        // Further set-ups, only timed, here and not after the last instance:
        // spread over the run like the host's states, not all in one of them.
        for _ in 1..SETUP_SAMPLES / instances {
            if setups.iter().sum::<f64>() > SETUP_SAMPLING_BUDGET {
                break;
            }
            if retired.len() == TEARDOWN_BATCH {
                shutdown_all(&mut retired);
            }
            retired.push(timed_setup(spec, seed, &trace, &mut setups)?);
        }
    }
    shutdown_all(&mut retired);
    result
        .raw
        .insert("peak_rss_MiB", vec![host::peak_rss_mib()]);
    result.raw.insert("setup_s", setups);
    for (name, unit, better, _) in END_TO_END {
        let value = reported(name, better, &result.raw[name]);
        set(&mut result.metrics, name, unit, value);
    }
    Ok(result)
}

/// Per-layer metrics: `(name, unit, better)`. The layer is the name's
/// prefix; the README maps each to the end-to-end metric it should move.
pub const PER_LAYER: [(&str, &str, &str); 60] = [
    ("app.op_p50_us", "us", "lower"),
    ("app.op_tail_us", "us", "lower"),
    ("app.op_tail_pctl", "%", "higher"),
    ("app.op_samples", "count", "higher"),
    ("app.op_self_p50_us", "us", "lower"),
    ("app.one_way_p50_us", "us", "lower"),
    ("app.failed_ops_share", "ratio", "lower"),
    ("trace.overhead_pct", "%", "lower"),
    ("trace.spans", "count", "higher"),
    ("trace.spans_dropped", "count", "lower"),
    ("core.submit_p50_us", "us", "lower"),
    ("core.send_complete_p50_us", "us", "lower"),
    ("core.wait_p50_us", "us", "lower"),
    ("core.pkts_per_msg", "1/msg", "lower"),
    ("core.flight.isend_to_packetize_p50_us", "us", "lower"),
    ("core.flight.packetize_to_wire_p50_us", "us", "lower"),
    ("peer.wait_p50_us", "us", "lower"),
    ("peer.submit_p50_us", "us", "lower"),
    ("fc.credits_granted_per_msg", "1/msg", "lower"),
    ("fc.credits_received_per_msg", "1/msg", "lower"),
    ("ec.acks_per_msg", "1/msg", "lower"),
    ("ec.retrans_per_msg", "1/msg", "lower"),
    ("ec.send_failures", "count", "lower"),
    ("reactor.workers", "count", "lower"),
    ("reactor.wakeups_per_msg", "1/msg", "lower"),
    ("reactor.task_runs_per_msg", "1/msg", "lower"),
    ("reactor.polls_per_msg", "1/msg", "lower"),
    ("reactor.timer_fires_per_msg", "1/msg", "lower"),
    ("reactor.fd_events_per_msg", "1/msg", "lower"),
    ("reactor.stalled_tasks", "count", "lower"),
    ("reactor.blocking_spawned", "count", "lower"),
    ("pool.checkouts_per_msg", "1/msg", "lower"),
    ("pool.misses_per_msg", "1/msg", "lower"),
    ("alloc.count_per_msg", "1/msg", "lower"),
    ("alloc.bytes_per_msg", "B/msg", "lower"),
    ("threads.blocks_per_msg", "1/msg", "lower"),
    ("proc.vol_ctx_switches_per_msg", "1/msg", "lower"),
    ("proc.invol_ctx_switches_per_msg", "1/msg", "lower"),
    ("proc.cpu_us_per_msg", "us/msg", "lower"),
    ("proc.cpu_share", "ratio", "higher"),
    ("proc.threads", "count", "lower"),
    ("transport.frames_per_msg", "1/msg", "lower"),
    ("transport.wire_bytes_per_msg", "B/msg", "lower"),
    ("transport.frames_lost", "count", "lower"),
    ("atm.cells_sent_per_msg", "1/msg", "lower"),
    ("atm.cells_lost", "count", "lower"),
    ("atm.frames_failed", "count", "lower"),
    ("coll.frames_per_op", "1/op", "lower"),
    ("coll.bytes_per_op", "B/op", "lower"),
    ("coll.submit_p50_us", "us", "lower"),
    ("coll.wait_p50_us", "us", "lower"),
    ("ladder.full_rtt_p50_us", "us", "lower"),
    ("ladder.bypass_rtt_p50_us", "us", "lower"),
    ("ladder.direct_rtt_p50_us", "us", "lower"),
    ("ladder.transport_rtt_p50_us", "us", "lower"),
    ("ladder.user_pkg_rtt_p50_us", "us", "lower"),
    ("layer.fc_ec_us", "us", "lower"),
    ("layer.reactor_handoff_us", "us", "lower"),
    ("layer.core_inline_us", "us", "lower"),
    ("layer.transport_us", "us", "lower"),
];

/// Per-layer metrics that are a counter's growth across the traced phase
/// per delivered message: `(metric, counter)`.
const PER_MSG: [(&str, &str); 19] = [
    ("fc.credits_granted_per_msg", "conn.credits_granted"),
    ("fc.credits_received_per_msg", "conn.credits_received"),
    ("ec.acks_per_msg", "conn.acks_sent"),
    ("ec.retrans_per_msg", "conn.retransmissions"),
    ("reactor.wakeups_per_msg", "reactor.wakeups"),
    ("reactor.task_runs_per_msg", "reactor.task_runs"),
    ("reactor.polls_per_msg", "reactor.polls"),
    ("reactor.timer_fires_per_msg", "reactor.timer_fires"),
    ("reactor.fd_events_per_msg", "reactor.fd_events"),
    ("pool.checkouts_per_msg", "pool.checkouts"),
    ("pool.misses_per_msg", "pool.misses"),
    ("alloc.count_per_msg", "alloc.count"),
    ("alloc.bytes_per_msg", "alloc.bytes"),
    ("threads.blocks_per_msg", "threads.blocks"),
    ("proc.vol_ctx_switches_per_msg", "proc.vol_ctx"),
    ("proc.invol_ctx_switches_per_msg", "proc.invol_ctx"),
    ("transport.frames_per_msg", "transport.frames_sent"),
    ("transport.wire_bytes_per_msg", "transport.bytes_sent"),
    ("atm.cells_sent_per_msg", "atm.cells_sent"),
];

/// Per-layer metrics that are a counter's growth (or a gauge's reading) as
/// it is: `(metric, counter)`.
const COUNTS: [(&str, &str); 7] = [
    ("ec.send_failures", "conn.send_failures"),
    ("reactor.workers", "reactor.workers"),
    ("reactor.stalled_tasks", "reactor.stalled_tasks"),
    ("reactor.blocking_spawned", "reactor.blocking_spawned"),
    ("proc.threads", "proc.threads"),
    ("atm.cells_lost", "atm.cells_lost"),
    ("atm.frames_failed", "atm.frames_failed"),
];

/// What the traced run leaves behind besides its metrics.
pub struct TracedRun {
    pub result: RunResult,
    pub spans: Vec<trace::Span>,
    pub spans_dropped: u64,
}

/// The traced run: warm-up → untraced reference → traced phase bracketed
/// by counter snapshots → (ping-pongs) the ablation ladder.
pub fn run_traced(spec: &Spec, seed: u64, seconds: f64) -> Result<TracedRun, String> {
    // Ping-pongs spend half the run on four ladder rungs.
    let (reference_share, traced_share, rung_share) = if spec.is_pingpong() {
        (0.15, 0.35, 0.125)
    } else {
        (0.3, 0.7, 0.0)
    };
    let share = |s: f64| spec.budget(seconds * s);
    let trace = Trace::with_capacity(TRACE_CAPACITY);
    let mut inst = Instance::setup(spec, seed, &trace)?;
    let mut result = RunResult::default();
    let mut account = |rep: &Rep| {
        result.attempted += rep.attempted;
        result.failed += rep.failed;
    };
    account(&inst.run(spec.budget(WARMUP_S)));
    let reference = inst.run(share(reference_share));
    account(&reference);

    let before = inst.counters();
    let wall_from = now_ns();
    trace.set_enabled(true);
    let traced = inst.run(share(traced_share));
    trace.set_enabled(false);
    let wall_ns = now_ns() - wall_from;
    let delta = inst.counters().since(&before);
    account(&traced);
    let flight = inst.flight().map(|f| flight_stage_medians(&f));
    inst.shutdown();
    let (spans, spans_dropped) = trace.finish();

    let m = &mut result.metrics;
    for (name, unit, _) in PER_LAYER {
        set(m, name, unit, 0.0);
    }
    let mut put = |name: &str, value: f64| {
        m.get_mut(name).expect("a PER_LAYER name").value = value;
    };

    // app + trace
    let mut lat = traced.lat_us.clone();
    stats::sort(&mut lat);
    let traced_p50 = stats::median_sorted(&lat);
    let reference_p50 = stats::median(&reference.lat_us);
    put("app.op_p50_us", traced_p50);
    put("app.op_samples", lat.len() as f64);
    if let Some(tail) = stats::supported_tail(&lat) {
        put("app.op_tail_us", tail.value);
        put("app.op_tail_pctl", tail.pctl);
    }
    put(
        "app.failed_ops_share",
        result.failed as f64 / result.attempted.max(1) as f64,
    );
    if reference_p50 > 0.0 {
        put(
            "trace.overhead_pct",
            (traced_p50 - reference_p50) / reference_p50 * 100.0,
        );
    }
    put("trace.spans", spans.len() as f64);
    put("trace.spans_dropped", spans_dropped as f64);
    let summary = trace::summarize(&spans);
    for (kind, s) in &summary {
        match kind {
            // (The operation's own p50 is `app.op_p50_us`, from every sample.)
            Kind::Op => put("app.op_self_p50_us", s.self_p50_us),
            _ => put(&format!("{}_p50_us", kind.name()), s.p50_us),
        }
    }

    // Counters over one shared denominator: delivered application
    // messages (operations, on the allreduce).
    let ops = traced.lat_us.len().max(1) as f64;
    let msgs = match spec.shape {
        Shape::Allreduce => ops,
        _ => traced.delivered_msgs.max(1) as f64,
    };
    put(
        "core.pkts_per_msg",
        delta.get("conn.packets_sent") as f64 / delta.get("conn.messages_sent").max(1) as f64,
    );
    if let Some((to_packetize, to_wire)) = flight {
        put("core.flight.isend_to_packetize_p50_us", to_packetize);
        put("core.flight.packetize_to_wire_p50_us", to_wire);
    }
    for (metric, counter) in PER_MSG {
        put(metric, delta.get(counter) as f64 / msgs);
    }
    for (metric, counter) in COUNTS {
        put(metric, delta.get(counter) as f64);
    }
    put(
        "proc.cpu_us_per_msg",
        delta.get("proc.cpu_ns") as f64 / 1e3 / msgs,
    );
    put(
        "proc.cpu_share",
        delta.get("proc.cpu_ns") as f64 / wall_ns.max(1) as f64,
    );
    // Frames one node sent that the other never received (a few may be in
    // flight at the snapshot).
    let frames_lost = delta
        .get("transport.frames_sent")
        .saturating_sub(delta.get("transport.frames_received"));
    put("transport.frames_lost", frames_lost as f64);
    put(
        "coll.frames_per_op",
        delta.get("coll.frames_sent") as f64 / ops,
    );
    put(
        "coll.bytes_per_op",
        delta.get("coll.bytes_sent") as f64 / ops,
    );

    if spec.is_pingpong() {
        let wire = spec.wire.expect("ping-pong runs on a wire");
        let rung = Duration::from_secs_f64(seconds * rung_share);
        let ladder = Ladder::measure(spec, wire, seed, reference_p50, rung)?;
        put("ladder.full_rtt_p50_us", ladder.full);
        put("ladder.bypass_rtt_p50_us", ladder.bypass);
        put("ladder.direct_rtt_p50_us", ladder.direct);
        put("ladder.transport_rtt_p50_us", ladder.transport);
        put("ladder.user_pkg_rtt_p50_us", ladder.user_pkg);
        put("layer.fc_ec_us", ladder.full - ladder.bypass);
        put("layer.reactor_handoff_us", ladder.bypass - ladder.direct);
        put("layer.core_inline_us", ladder.direct - ladder.transport);
        put("layer.transport_us", ladder.transport);
    }
    Ok(TracedRun {
        result,
        spans,
        spans_dropped,
    })
}

/// Medians of the sender-side flight recorder's `isend → packetize` and
/// `packetize → wire` gaps (µs), over whatever its ring still holds. The
/// k-th `Packetize` belongs to the k-th `Isend` (the send plane is FIFO);
/// a `Wire` event closes every packetize still open.
fn flight_stage_medians(flight: &FlightRecorder) -> (f64, f64) {
    let mut isends = std::collections::VecDeque::new();
    let mut packetized = Vec::new();
    let (mut to_packetize, mut to_wire) = (Vec::new(), Vec::new());
    for e in flight.dump() {
        match e.kind {
            EventKind::Isend => isends.push_back(e.micros),
            EventKind::Packetize => {
                if let Some(t) = isends.pop_front() {
                    to_packetize.push(e.micros.saturating_sub(t) as f64);
                }
                packetized.push(e.micros);
            }
            EventKind::Wire => {
                to_wire.extend(
                    packetized
                        .drain(..)
                        .map(|t| e.micros.saturating_sub(t) as f64),
                );
            }
            _ => {}
        }
    }
    (stats::median(&to_packetize), stats::median(&to_wire))
}

/// The ablation ladder (the paper's Fig. 11 / §4.2, from outside): the
/// same 64-byte echo with one layer after another configured off. All
/// rungs are untraced medians, so adjacent differences are layer costs
/// and the four `layer.*_us` terms sum to `full` exactly.
struct Ladder {
    /// The workload's own configuration (its untraced reference phase).
    full: f64,
    /// `ConnectionConfig::unreliable()`: FC and EC off.
    bypass: f64,
    /// `ConnectionConfig::direct()` + `send_direct`/`recv_direct`: no
    /// reactor task either.
    direct: f64,
    /// Bare transport frames: no NCS.
    transport: f64,
    /// Off the ladder (Fig. 10): `full`, sender on the user-level package.
    user_pkg: f64,
}

impl Ladder {
    fn measure(
        spec: &Spec,
        wire: Wire,
        seed: u64,
        full: f64,
        dur: Duration,
    ) -> Result<Ladder, String> {
        let payloads = spec.payloads(seed);
        let config = spec.config();
        // A workload already on the bypass has no FC/EC rung to remove.
        let bypass = if config == ConnectionConfig::unreliable() {
            full
        } else {
            let unreliable = ConnectionConfig::unreliable();
            pair_rung(wire, unreliable, None, Port::Ncs, payloads.clone(), dur)?
        };
        let direct = ConnectionConfig::direct();
        let direct = pair_rung(wire, direct, None, Port::Direct, payloads.clone(), dur)?;
        let (client, server): (Port, Port) = match wire {
            Wire::Sci => {
                let (a, b) = sci::loopback_pair().map_err(|e| e.to_string())?;
                (Port::Raw(Box::new(a)), Port::Raw(Box::new(b)))
            }
            _ => {
                let (a, b) = hpi::pair(hpi::DEFAULT_RING);
                (Port::Raw(Box::new(a)), Port::Raw(Box::new(b)))
            }
        };
        let transport = ladder_rtt_us(client, server, payloads.clone(), RUNG_WARMUP, dur)?;
        let user_pkg = UserRuntime::new(UserConfig {
            mech: SwitchMech::Native,
            ..UserConfig::default()
        })
        .run(move |pkg| pair_rung(wire, config, Some(Arc::new(pkg)), Port::Ncs, payloads, dur))?;
        Ok(Ladder {
            full,
            bypass,
            direct,
            transport,
            user_pkg,
        })
    }
}

const RUNG_WARMUP: Duration = Duration::from_millis(100);

/// One rung over a freshly built (and afterwards torn down) node pair.
fn pair_rung(
    wire: Wire,
    config: ConnectionConfig,
    tx_pkg: Option<Arc<dyn ThreadPackage>>,
    port: fn(NcsConnection) -> Port,
    payloads: Payloads,
    dur: Duration,
) -> Result<f64, String> {
    let pair = Pair::build(wire, config, tx_pkg)?;
    let (client, server) = (port(pair.tx.clone()), port(pair.rx.clone()));
    let rtt = ladder_rtt_us(client, server, payloads, RUNG_WARMUP, dur);
    pair.shutdown();
    rtt
}

#[cfg(test)]
mod tests {
    use super::*;
    use ncs_bench::check::{parse_json, Json};

    /// The `--quick` pass: every workload set up, run for a tenth of a
    /// second and torn down, with not one failed operation.
    #[test]
    fn every_workload_runs_clean() {
        let trace = Trace::with_capacity(0);
        let mut instances = Vec::new();
        for spec in &ALL {
            let mut inst =
                Instance::setup(spec, 42, &trace).unwrap_or_else(|e| panic!("{}: {e}", spec.name));
            let rep = inst.run(spec.budget(0.1));
            assert!(rep.attempted > 0, "{}", spec.name);
            assert_eq!(rep.failed, 0, "{}: failed_ops_share must be 0", spec.name);
            assert!(
                rep.delivered_msgs > 0 && rep.delivered_bytes > 0,
                "{}",
                spec.name
            );
            assert!(!rep.lat_us.is_empty(), "{}", spec.name);
            instances.push(inst);
        }
        shutdown_all(&mut instances);
    }

    #[test]
    fn a_traced_phase_records_linked_spans() {
        let spec = find("hpi_pingpong_64B").unwrap();
        let trace = Trace::with_capacity(1 << 12);
        let mut inst = Instance::setup(spec, 7, &trace).unwrap();
        trace.set_enabled(true);
        let rep = inst.run(Budget::Ops(20));
        trace.set_enabled(false);
        inst.shutdown();
        assert_eq!((rep.attempted, rep.failed), (20, 0));
        let (spans, dropped) = trace.finish();
        assert_eq!(dropped, 0);
        let summary = trace::summarize(&spans);
        assert_eq!(summary[&Kind::Op].count, 20);
        assert_eq!(summary[&Kind::PeerSubmit].count, 20);
        // Every echo-side span found the round trip that caused it.
        assert!(spans
            .iter()
            .filter(|s| s.kind == Kind::PeerSubmit)
            .all(|s| spans[s.parent as usize].kind == Kind::Op));
    }

    fn well_formed(name: &str) -> bool {
        (1..=64).contains(&name.len())
            && name.starts_with(|c: char| c.is_ascii_alphanumeric())
            && name
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
    }

    #[test]
    fn names_and_units_fit_the_contract() {
        let mut seen = std::collections::BTreeSet::new();
        let metrics = END_TO_END
            .iter()
            .map(|m| (m.0, m.1))
            .chain(PER_LAYER.iter().map(|m| (m.0, m.1)));
        for (name, unit) in metrics {
            assert!(well_formed(name), "{name}");
            assert!(seen.insert(name), "{name} defined twice");
            assert!(
                (1..=16).contains(&unit.len())
                    && unit
                        .chars()
                        .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c)),
                "{name}: unit {unit}"
            );
        }
        for spec in &ALL {
            assert!(well_formed(spec.name), "{}", spec.name);
            assert!(
                spec.why.len() <= 200 && !spec.why.contains('\n'),
                "{}",
                spec.name
            );
        }
        assert!(PER_LAYER.len() <= 128);
    }

    /// `/BENCHMARK.json` and the tables in this file say the same thing.
    #[test]
    fn benchmark_json_matches_the_code() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../../../../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repo root");
        let doc = parse_json(&text).expect("BENCHMARK.json parses");
        let strs = |list: &Json, key: &str| -> Vec<String> {
            list.as_arr()
                .expect("a list")
                .iter()
                .map(|e| e.get(key).and_then(Json::as_str).expect(key).to_owned())
                .collect()
        };
        let workloads = doc.get("workloads").expect("workloads");
        assert_eq!(strs(workloads, "name"), ALL.map(|s| s.name));
        assert_eq!(strs(workloads, "why"), ALL.map(|s| s.why));
        let e2e = doc.get("end_to_end").expect("end_to_end");
        assert_eq!(strs(e2e, "name"), END_TO_END.map(|m| m.0));
        assert_eq!(strs(e2e, "unit"), END_TO_END.map(|m| m.1));
        assert_eq!(strs(e2e, "better"), END_TO_END.map(|m| m.2));
        let bounds: Vec<f64> = e2e
            .as_arr()
            .unwrap()
            .iter()
            .map(|e| e.get("bound").and_then(Json::as_num).expect("bound"))
            .collect();
        assert_eq!(bounds, END_TO_END.map(|m| m.3));
        let layers = doc.get("per_layer").expect("per_layer");
        assert_eq!(strs(layers, "name"), PER_LAYER.map(|m| m.0));
        assert_eq!(strs(layers, "unit"), PER_LAYER.map(|m| m.1));
        assert_eq!(strs(layers, "better"), PER_LAYER.map(|m| m.2));
    }
}
