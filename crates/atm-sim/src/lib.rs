//! A from-scratch ATM network simulator — the substrate standing in for the
//! paper's NYNET OC-3 testbed.
//!
//! The NCS paper runs its evaluation over an ATM wide-area network. This
//! crate reproduces the observable behaviour NCS depends on:
//!
//! * **53-byte cells** with the UNI header format ([`cell`]), HEC CRC-8 and
//!   AAL5 CRC-32 computed from scratch ([`crc`]);
//! * **AAL5 segmentation and reassembly** with padding, trailer and frame
//!   CRC ([`aal5`]);
//! * **virtual circuits** with per-hop VCI swapping, set up and torn down by
//!   hop-by-hop signaling ([`Network`]);
//! * **switches** with output queues that drop on overflow, and **links**
//!   with line-rate serialisation, propagation delay and seeded cell-loss /
//!   bit-error injection ([`fault`]);
//! * a **deterministic discrete-event core** ([`SimTime`]-driven,
//!   unit-testable without wall time), plus a **real-time pump**
//!   ([`RealTimePump`]) that runs it against the wall clock (optionally
//!   time-scaled) for the thread-based NCS runtime above it — on the
//!   threads that touch it, with no thread of its own: each caller runs
//!   the network up to now and learns when its next observable event
//!   falls due.
//!
//! # Example: two hosts through one switch, virtual time
//!
//! ```
//! use atm_sim::{NetworkBuilder, LinkSpec, QosParams, NetEvent};
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let mut net = NetworkBuilder::new()
//!     .host("sun1")
//!     .host("sun2")
//!     .switch("sw")
//!     .link("sun1", "sw", LinkSpec::oc3())
//!     .link("sun2", "sw", LinkSpec::oc3())
//!     .build()?;
//!
//! let ticket = net.open_vc("sun1", "sun2", QosParams::unspecified())?;
//! net.run_for_millis(10); // let signaling complete
//! let vc = net.established(ticket).expect("VC should be up");
//!
//! net.send_frame(vc.local, vc.conn, b"hello over AAL5".to_vec())?;
//! let events = net.run_for_millis(50);
//! assert!(events.iter().any(|e| matches!(
//!     e,
//!     NetEvent::Frame { frame, .. } if frame.as_slice() == b"hello over AAL5"
//! )));
//! # Ok(())
//! # }
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod aal5;
pub mod cell;
pub mod crc;
mod engine;
pub mod fault;
mod network;
mod node;
mod pump;
mod stats;
pub mod time;
mod topology;

pub use engine::NetEvent;
pub use fault::FaultSpec;
pub use network::{
    AtmError, ConnId, EstablishedVc, Network, NodeId, QosParams, ServiceCategory, SetupTicket,
};
pub use pump::{DeliverySink, PumpConfig, RealTimePump};
pub use stats::{ConnStats, NetStats};
pub use time::SimTime;
pub use topology::{LinkSpec, NetworkBuilder, TopologyError};
