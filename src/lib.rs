//! # NCS — the NYNET Communication System
//!
//! A comprehensive Rust reproduction of *"A Multithreaded Message-Passing
//! System for High Performance Distributed Computing Applications"*
//! (Park, Lee & Hariri, ICDCS 1998), including every substrate the paper
//! depends on:
//!
//! * [`core`] — the NCS runtime itself: separated control/data planes,
//!   per-connection Send/Receive/Flow-Control/Error-Control threads,
//!   selectable algorithms (credit/window/rate flow control;
//!   selective-repeat/go-back-N error control), the nonblocking
//!   [`Request`] model with tag matching and the §4.2 thread-bypass
//!   mode;
//! * [`threads`] — the two thread-package architectures of §4.1: a
//!   from-scratch user-level green-thread scheduler (QuickThreads
//!   analogue, hand-written x86_64 context switch) and a kernel-level
//!   package;
//! * [`atm`] — a from-scratch ATM network simulator (53-byte cells, AAL5,
//!   VCI-swapping switches, signaling, fault injection) standing in for
//!   the NYNET testbed;
//! * [`transport`] — the three application communication interfaces:
//!   SCI (sockets), ACI (native ATM) and HPI ("Trap"), plus a modelled
//!   1998 kernel-socket pipe;
//! * [`collectives`] — group communication: the paper's multicast and
//!   barrier (`NcsGroup`) and typed nonblocking broadcast/reduce/
//!   allreduce/scatter/gather/allgather over pluggable topologies, all
//!   run by one collective machine, stepped where its frames arrive;
//! * [`runtime`] — the multi-process cluster runtime (`ncsd` rendezvous,
//!   `ClusterNode`, `ncs-launch`) and the [`Session`] façade that lets
//!   one program run against a multi-process cluster *or* an in-process
//!   [`LocalWorld`] unchanged;
//! * [`model`] — calibrated SUN-4 / RS6000 platform cost models;
//! * [`comparators`] — working miniature p4, PVM and MPI implementations
//!   for the paper's Figures 12/13.
//!
//! # The Request model
//!
//! Every messaging operation resolves through one completion model.
//! `isend`/`irecv` (and the tag-matched `isend_tagged`/`irecv_tagged`,
//! which multiplex logical channels over one connection) return
//! [`Request`] handles; collective operations return
//! `CollectiveHandle`s; both implement [`Completion`], so [`wait_any`],
//! [`wait_all`] and [`test_all`] drive heterogeneous sets from a single
//! application loop — the paper's compute/communication overlap as an
//! API. Receive completion hands back a pooled zero-copy [`MsgView`]
//! (deref to `&[u8]`, `into_vec()` to take ownership) whose buffer
//! recycles through the node's `BufPool` on drop.
//!
//! # Quickstart
//!
//! ```
//! use std::time::Duration;
//! use ncs::core::{NcsNode, ConnectionConfig};
//! use ncs::core::link::HpiLinkPair;
//! use ncs::{wait_all, Completion};
//!
//! let alice = NcsNode::builder("alice").build();
//! let bob = NcsNode::builder("bob").build();
//! let (la, lb) = HpiLinkPair::create();
//! alice.attach_peer("bob", la);
//! bob.attach_peer("alice", lb);
//!
//! let tx = alice.connect("bob", ConnectionConfig::reliable())?;
//! let rx = bob.accept_default()?;
//!
//! // Nonblocking: post the receive first, then the send; compute while
//! // both are in flight; collect when you need the data.
//! let want = rx.irecv();
//! let sent = tx.isend(b"hello")?;
//! let set: [&dyn Completion; 2] = [&want, &sent];
//! assert!(wait_all(&set, Duration::from_secs(10)));
//! let msg = want.wait()?; // zero-copy MsgView
//! assert_eq!(&*msg, b"hello");
//!
//! // The blocking forms remain as thin wrappers over requests.
//! tx.send(b"again")?;
//! assert_eq!(rx.recv()?, b"again");
//! # drop(msg); alice.shutdown(); bob.shutdown();
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```
//!
//! # One program, two worlds
//!
//! Write the member body against [`Session`] and run it unchanged in an
//! in-process [`LocalWorld`] or across OS processes under `ncs-launch`
//! (see `examples/cluster_allreduce.rs`):
//!
//! ```
//! use ncs::{Session, LocalWorld};
//! use ncs::collectives::ReduceOp;
//!
//! fn member(s: &impl Session) {
//!     let group = s.collective_group(1).expect("group");
//!     let sum = group
//!         .allreduce(vec![s.rank() as f64], ReduceOp::Sum)
//!         .expect("allreduce");
//!     assert_eq!(sum[0], (0..s.world_size()).map(f64::from).sum::<f64>());
//! }
//!
//! let handles: Vec<_> = LocalWorld::create(2)
//!     .expect("world")
//!     .into_iter()
//!     .map(|s| std::thread::spawn(move || { member(&s); s.shutdown(); }))
//!     .collect();
//! for h in handles {
//!     h.join().unwrap();
//! }
//! ```
//!
//! # Scaling across application threads
//!
//! When several compute threads share one connection, give each its own
//! [`Channel`] (`conn.channel(id)`) — a comm-dup analogue
//! over the tag space. Channels map onto a sharded delivery queue
//! ([`core::DELIVERY_SHARDS`]), so receivers on distinct channels never
//! contend on a lock, and a receiver blocked on one channel never stalls
//! another (`crates/ncs-core/tests/channels.rs`).
//!
//! See `ARCHITECTURE.md` for the top-to-bottom tour of the workspace
//! (crate map, the Figure-4 thread planes, the life of a message, the
//! reactor model and the cluster bootstrap).

#![deny(missing_docs)]

/// The NCS core runtime (re-export of [`ncs_core`]).
pub use ncs_core as core;

/// Thread packages and package-aware synchronisation (re-export of
/// [`ncs_threads`]).
pub use ncs_threads as threads;

/// The ATM network simulator (re-export of [`atm_sim`]).
pub use atm_sim as atm;

/// Communication interfaces (re-export of [`ncs_transport`]).
pub use ncs_transport as transport;

/// Collective operations — nonblocking broadcast/reduce/scatter/gather
/// over pluggable topologies (re-export of [`ncs_collectives`]).
pub use ncs_collectives as collectives;

/// The cluster runtime — ncsd rendezvous, multi-process ClusterNode
/// bootstrap over SCI, the ncs-launch engine and the Session façade
/// (re-export of [`ncs_runtime`]).
pub use ncs_runtime as runtime;

/// The telemetry plane — lock-free metrics registry, log-bucketed
/// histograms, Prometheus/JSON/table snapshot rendering and the
/// per-connection message-lifecycle flight recorder (re-export of
/// [`ncs_obs`]). Every layer above registers into one
/// [`obs::Registry`]; pull a
/// [`MetricsSnapshot`](ncs_obs::MetricsSnapshot) via
/// `node.metrics_snapshot()` or the whole JSON dump via
/// [`Session::telemetry`].
pub use ncs_obs as obs;

/// Platform cost models (re-export of [`netmodel`]).
pub use netmodel as model;

/// The comparator message-passing systems (re-export of [`baselines`]).
pub use baselines as comparators;

pub use ncs_core::{
    test_all, wait_all, wait_any, Channel, Completion, MsgView, Request, CHANNEL_TAG_BASE,
};
pub use ncs_runtime::{
    LocalSession, LocalWorld, Scenario, Session, SessionError, SimReport, SimSession, SimWorld,
    SimWorldBuilder,
};
