//! NCS collective operations.
//!
//! The paper's group communication service, grown into a full collectives
//! subsystem: typed `broadcast`, `reduce`/`allreduce`, `scatter`/`gather`/
//! `allgather` and a redesigned `barrier`, each in blocking and
//! nonblocking ([`CollectiveHandle`]) form, over pluggable topologies
//! (binomial tree, ring pipeline, flat) selected per operation by message
//! size and group size — and, under the paper's own names, [`NcsGroup`]:
//! multicast by repetitive send or along a spanning tree, and a barrier.
//!
//! Every schedule exists once, as data: [`machine::plan`] lists a rank's
//! sends and receives, and one sans-I/O interpreter ([`machine::Machine`])
//! runs them — under [`CollectiveGroup`] here, and inside `ncs-runtime`'s
//! discrete-event `SimWorld`.
//!
//! A group owns **no thread**. A member's machine is stepped by whoever
//! brings it something: the node's event loop inside the receive sink
//! that delivers a collective frame (forwards, folds and the caller's
//! completion included), or the application thread submitting an
//! operation — under `try_lock`, never waiting. The paper's central
//! thesis still holds for group communication: application threads submit
//! an operation and keep computing while the runtime's threads move the
//! data, under either the kernel-level or the user-level thread package.
//! (A deviation from the paper, which gives group communication threads
//! of its own: here a collective advances on the thread that delivered
//! the frame.) The data path is the
//! pooled, batched point-to-point plane: collective frames are encoded
//! once into pooled buffers ([`ncs_core::BufPool`]), fan out through
//! [`ncs_core::NcsConnection::try_send_batch`], and large payloads are
//! pipelined in segments while flow/error control below run the unchanged
//! per-connection state machines (so a lossy ACI link heals under
//! selective repeat without the collectives layer noticing).
//!
//! # Example
//!
//! Two co-located members allreduce a vector (real applications put each
//! member in its own process or thread):
//!
//! ```
//! use std::collections::HashMap;
//! use ncs_core::link::HpiLinkPair;
//! use ncs_core::{ConnectionConfig, NcsNode};
//! use ncs_collectives::{CollectiveGroup, ReduceOp};
//!
//! let a = NcsNode::builder("a").build();
//! let b = NcsNode::builder("b").build();
//! let (la, lb) = HpiLinkPair::create();
//! a.attach_peer("b", la);
//! b.attach_peer("a", lb);
//! let ab = a.connect("b", ConnectionConfig::reliable()).unwrap();
//! let ba = b.accept_default().unwrap();
//!
//! let ga = CollectiveGroup::new(&a, 7, 0, HashMap::from([(1, ab)])).unwrap();
//! let gb = CollectiveGroup::new(&b, 7, 1, HashMap::from([(0, ba)])).unwrap();
//! let t = std::thread::spawn(move || gb.allreduce(vec![2.0f64, 20.0], ReduceOp::Sum));
//! assert_eq!(ga.allreduce(vec![1.0f64, 10.0], ReduceOp::Sum).unwrap(), vec![3.0, 30.0]);
//! assert_eq!(t.join().unwrap().unwrap(), vec![3.0, 30.0]);
//! # drop(ga); a.shutdown(); b.shutdown();
//! ```
//!
//! For compute/communication overlap, use the nonblocking forms:
//! `iallreduce` returns a [`CollectiveHandle`] immediately; the node's
//! event loops complete the operation while the caller computes, and
//! [`CollectiveHandle::wait`] collects the result.

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

mod datatype;
mod engine;
mod frame;
mod group;
mod handle;
pub mod machine;
mod topology;

pub use datatype::{DType, ReduceOp, Scalar};
pub use engine::{CollectiveConfig, CollectiveGroup, CollectiveStats, ViewAbortHandle};
pub use frame::Encoder;
pub use group::{GroupError, MulticastAlgo, NcsGroup};
pub use handle::{CollectiveError, CollectiveHandle, CollectiveResult};
pub use topology::{OpClass, Topology, TopologyPolicy};
