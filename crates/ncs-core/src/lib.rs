//! NCS — the NYNET Communication System.
//!
//! A faithful reproduction of the multithreaded message-passing system of
//! Park, Lee & Hariri (ICDCS 1998): low-latency, high-throughput
//! communication services whose architecture rests on three ideas
//! (paper §2):
//!
//! 1. **Thread-based programming paradigm** — applications are *compute
//!    threads* that communicate through NCS primitives; the runtime itself
//!    is a set of cooperating threads, so computation overlaps
//!    communication.
//! 2. **Separation of control and data planes** — every connection gets
//!    dedicated *data transfer threads* (Send/Receive) on a dedicated data
//!    channel, while flow-control credits, error-control acknowledgements
//!    and connection management travel on a separate *control connection*
//!    handled by control threads (Master, Flow Control, Error Control,
//!    Control Send, Control Receive).
//!    (Here every one of those threads is a resumable task of the
//!    [`Reactor`]: one per connection, one per node for accepting. The
//!    control plane stays a plane of its own — feedback is computed
//!    apart from the data it answers — but not a connection of its own:
//!    it rides each data channel in the reverse direction.)
//! 3. **Dynamic per-connection algorithms** — flow control (credit-based
//!    \[default; a fixed window is the sliding window\], rate-based,
//!    none), error control
//!    (selective-repeat \[default\], go-back-N, none) and the communication
//!    interface (SCI/ACI/HPI) are chosen per connection at runtime via
//!    [`ConnectionConfig`].
//!
//! The §4.2 thread-bypass variant ("all threads can be replaced by
//! procedures") is the default path: a thread that waits on a request a
//! connection issued — a receive's or a send's — runs the connection's
//! task itself while the task is idle, on its own thread.
//!
//! # Quickstart
//!
//! ```
//! use ncs_core::{NcsNode, ConnectionConfig};
//! use ncs_core::link::HpiLinkPair;
//!
//! // Two NCS processes in one address space, linked by the HPI interface.
//! let alice = NcsNode::builder("alice").build();
//! let bob = NcsNode::builder("bob").build();
//! let (link_a, link_b) = HpiLinkPair::create();
//! alice.attach_peer("bob", link_a);
//! bob.attach_peer("alice", link_b);
//!
//! // A reliable connection: credit-based flow control + selective repeat.
//! let conn_a = alice.connect("bob", ConnectionConfig::reliable()).unwrap();
//! let conn_b = bob.accept_default().unwrap();
//!
//! conn_a.send(b"hello from alice").unwrap();
//! assert_eq!(conn_b.recv().unwrap(), b"hello from alice");
//! # alice.shutdown(); bob.shutdown();
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod clock;
pub mod config;
mod connection;
pub mod error_control;
pub mod flow_control;
pub mod link;
mod node;
pub mod packet;
mod plane;
pub mod pool;
pub mod reactor;
pub mod request;
pub mod seq;
pub mod stats;

pub use clock::{Clock, SystemClock, VirtualClock};
pub use config::{ConnectionConfig, ConnectionConfigBuilder, ErrorControlAlg, FlowControlAlg};
pub use connection::{Channel, NcsConnection, SendError, CHANNEL_TAG_BASE};
pub use node::{AcceptError, ConnectError, NcsNode, NcsNodeBuilder};
pub use pool::{BufPool, PoolStats, PooledBuf};
pub use reactor::{default_shards, Reactor, TaskRef};
pub use request::{
    test_all, wait_all, wait_any, Completion, CompletionNotify, MsgView, ReceiveSink, Request,
    DELIVERY_SHARDS,
};
pub use stats::{ConnectionStats, ReactorStats};

// Telemetry-plane types surfaced by the node/connection APIs
// ([`NcsNode::registry`], [`NcsConnection::flight`]), re-exported so
// ncs-core users don't need a separate ncs-obs dependency.
pub use ncs_obs::{
    json, EventKind, FlightEvent, FlightRecorder, MetricsSnapshot, Registry as MetricsRegistry,
};
