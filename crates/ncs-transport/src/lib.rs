//! NCS application communication interfaces.
//!
//! The paper's §2 defines three interfaces through which NCS reaches the
//! network, selectable per connection:
//!
//! * **SCI** — Socket Communication Interface ([`sci`]): real TCP sockets.
//!   Reliable and ordered (the kernel's TCP does flow/error control), so NCS
//!   bypasses its own flow and error control; maximally portable.
//! * **ACI** — ATM Communication Interface ([`aci`]): native-ATM AAL5
//!   frames over the [`atm_sim`] substrate. Unreliable (cell loss kills
//!   whole frames) and ordered; NCS supplies flow and error control —
//!   exactly the configuration the paper's §3 protocols are built for.
//! * **HPI** — High Performance Interface ([`hpi`], the paper's "Trap"
//!   interface): an in-process shared ring with no protocol stack at all.
//!   Lowest latency, drops frames on receiver overrun, so NCS flow control
//!   is needed for bulk transfers.
//!
//! A fourth transport, [`pipe`], models a 1998 kernel socket pair (bounded
//! 32 KB buffer, paced drain, platform stack costs via [`netmodel`]): it
//! stands in for "BSD socket on SunOS/AIX" in the experiments that need the
//! paper's exact buffer-pressure behaviour (Figures 9/10) and the platform
//! cost model (Figures 12/13).
//!
//! A fifth interface, [`sim`], is not a wire at all: a virtual-time
//! fabric ([`sim::SimNet`]) whose per-link latency/bandwidth/loss policies
//! feed a central event queue, used by the thousand-rank simulation
//! backend in `ncs-runtime`.
//!
//! All of them implement [`Connection`], each of its three data operations
//! once — the batch send, the timed receive and the polled receive — and
//! get the single-frame send, the blocking receive and the batch receive
//! from the trait. Receive paths block through [`ncs_threads::sync`] so the
//! same protocol code runs over the user-level or kernel-level thread
//! package.

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod aci;
pub mod hpi;
mod iface;
mod metered;
pub mod pipe;
pub mod sci;
pub mod sim;

pub use iface::{Capabilities, Connection, Readiness, TransportError, Waker, RETAIN_CAPACITY};
pub use metered::Metered;
