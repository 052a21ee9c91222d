//! The comparator message-passing systems of the NCS paper's §4.3: working
//! miniature reimplementations of **p4**, **PVM** and **MPI** (MPICH-1
//! era), faithful to the protocol behaviours that shaped Figures 12/13:
//!
//! * **p4** ([`p4`]) — lean typed messages straight over the transport;
//!   XDR conversion only between heterogeneous hosts. Very fast on AIX,
//!   poor on SunOS (its socket handling hit SunOS pathologies — modelled
//!   via per-platform stack factors).
//! * **PVM** ([`pvm`]) — pack/unpack message buffers; `PvmDataDefault`
//!   XDR-encodes *always* (the portable default the paper benchmarks);
//!   daemon-routed messages take an extra hop unless direct routing is
//!   requested.
//! * **MPI** ([`mpi`]) — envelope matching plus the two-protocol design:
//!   **eager** below a threshold, **rendezvous** (RTS/CTS round trip)
//!   above it — the reason MPI degrades sharply for large messages on
//!   slow/heterogeneous platforms; conservative packing when hosts differ.
//!
//! All three run over any [`ncs_transport::Connection`] and charge their
//! CPU costs against a [`netmodel::PlatformProfile`] through a
//! [`netmodel::Pacer`], so the experiment harness can put 1998 platforms
//! behind modern silicon. The per-system, per-platform stack factors are
//! calibration constants ([`common::stack_factor`]).

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod common;
pub mod mpi;
pub mod p4;
pub mod pvm;
pub mod xdr;

pub use common::{EndpointSpec, MessageSystem, SystemError};
