//! Platform cost profiles.

use std::time::Duration;

/// Native byte order of a modelled platform. Both of the paper's platforms
/// are big-endian; heterogeneity penalties in 1998 message-passing systems
/// were triggered by *architecture* mismatch, not byte order alone (PVM's
/// `PvmDataDefault`, MPICH's conservative heterogeneous packing), which is
/// why [`PlatformProfile::arch`] drives conversion decisions.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ByteOrder {
    /// Most significant byte first (SPARC, POWER).
    BigEndian,
    /// Least significant byte first (x86).
    LittleEndian,
}

/// Communication cost model of one workstation platform.
///
/// The per-operation and per-byte costs below are calibrated against the
/// paper's Figures 12/13: they reproduce relative platform speed and the
/// large-message divergence, not exact 1998 microseconds.
#[derive(Debug, Clone, PartialEq)]
pub struct PlatformProfile {
    /// Human-readable platform name.
    pub name: String,
    /// Architecture tag; differing tags between two endpoints make the
    /// 1998 systems take their heterogeneous (conversion) paths.
    pub arch: String,
    /// Native byte order.
    pub byte_order: ByteOrder,
    /// Fixed cost of a send operation (syscall + protocol entry).
    pub send_op: Duration,
    /// Fixed cost of a receive operation.
    pub recv_op: Duration,
    /// TCP/IP-stack cost per byte (copies + checksum).
    pub per_byte_stack: Duration,
    /// XDR encode *or* decode cost per byte.
    pub per_byte_xdr: Duration,
    /// Plain memory-copy cost per byte (buffer packing without conversion).
    pub per_byte_copy: Duration,
    /// Kernel-level thread context switch.
    pub ctx_switch_kernel: Duration,
    /// User-level thread context switch.
    pub ctx_switch_user: Duration,
    /// Kernel socket buffer size (bytes) — 32 KB in the paper's tests.
    pub socket_buf: usize,
}

impl PlatformProfile {
    /// SUN-4 (SPARCstation) running SunOS 5.5 — the slower platform of
    /// Figure 12(a): one-way 64 KB costs ~15 model-ms in protocol stack.
    pub fn sun4() -> Self {
        PlatformProfile {
            name: "SUN-4/SunOS 5.5".to_owned(),
            arch: "sparc".to_owned(),
            byte_order: ByteOrder::BigEndian,
            send_op: Duration::from_micros(450),
            recv_op: Duration::from_micros(450),
            per_byte_stack: Duration::from_nanos(110),
            per_byte_xdr: Duration::from_nanos(900),
            per_byte_copy: Duration::from_nanos(25),
            ctx_switch_kernel: Duration::from_micros(90),
            ctx_switch_user: Duration::from_micros(12),
            socket_buf: 32 * 1024,
        }
    }

    /// IBM RS6000 running AIX 4.1 — the faster platform of Figure 12(b):
    /// roughly 2.5x quicker per byte than the SUN-4.
    pub fn rs6000() -> Self {
        PlatformProfile {
            name: "IBM RS6000/AIX 4.1".to_owned(),
            arch: "power".to_owned(),
            byte_order: ByteOrder::BigEndian,
            send_op: Duration::from_micros(200),
            recv_op: Duration::from_micros(200),
            per_byte_stack: Duration::from_nanos(45),
            per_byte_xdr: Duration::from_nanos(400),
            per_byte_copy: Duration::from_nanos(12),
            ctx_switch_kernel: Duration::from_micros(60),
            ctx_switch_user: Duration::from_micros(8),
            socket_buf: 32 * 1024,
        }
    }

    /// An effectively-free modern platform: used when the experiment wants
    /// real hardware speed (Table I, Figures 10/11) rather than a model.
    pub fn modern() -> Self {
        PlatformProfile {
            name: "modern (unmodelled)".to_owned(),
            arch: "native".to_owned(),
            byte_order: if cfg!(target_endian = "big") {
                ByteOrder::BigEndian
            } else {
                ByteOrder::LittleEndian
            },
            send_op: Duration::ZERO,
            recv_op: Duration::ZERO,
            per_byte_stack: Duration::ZERO,
            per_byte_xdr: Duration::ZERO,
            per_byte_copy: Duration::ZERO,
            ctx_switch_kernel: Duration::ZERO,
            ctx_switch_user: Duration::ZERO,
            socket_buf: 32 * 1024,
        }
    }

    /// Whether two endpoints count as heterogeneous for the 1998 systems'
    /// conversion decisions.
    pub fn heterogeneous_with(&self, other: &PlatformProfile) -> bool {
        self.arch != other.arch
    }

    /// Total modelled cost of pushing `bytes` through this platform's
    /// protocol stack once (fixed send cost + per-byte cost).
    pub fn send_cost(&self, bytes: usize) -> Duration {
        self.send_op + self.per_byte_stack * bytes as u32
    }

    /// Total modelled cost of receiving `bytes`.
    pub fn recv_cost(&self, bytes: usize) -> Duration {
        self.recv_op + self.per_byte_stack * bytes as u32
    }

    /// Modelled cost of XDR-converting `bytes` (one direction).
    pub fn xdr_cost(&self, bytes: usize) -> Duration {
        self.per_byte_xdr * bytes as u32
    }

    /// Modelled cost of memcpy-packing `bytes`.
    pub fn copy_cost(&self, bytes: usize) -> Duration {
        self.per_byte_copy * bytes as u32
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sun4_is_slower_than_rs6000() {
        let sun = PlatformProfile::sun4();
        let rs = PlatformProfile::rs6000();
        assert!(sun.send_cost(65536) > rs.send_cost(65536));
        assert!(sun.xdr_cost(65536) > rs.xdr_cost(65536));
    }

    #[test]
    fn calibration_magnitudes_match_figure12() {
        // One-way 64 KB on SUN-4 should be in the ~10-20 model-ms range so
        // that the round trip lands in the figure's 25-40 ms band for NCS.
        let sun = PlatformProfile::sun4();
        let one_way = sun.send_cost(65536) + sun.recv_cost(65536);
        assert!(one_way > Duration::from_millis(10), "{one_way:?}");
        assert!(one_way < Duration::from_millis(40), "{one_way:?}");

        // RS6000 64 KB round trip lands under 25 ms in Figure 12(b).
        let rs = PlatformProfile::rs6000();
        let round = (rs.send_cost(65536) + rs.recv_cost(65536)) * 2;
        assert!(round < Duration::from_millis(25), "{round:?}");
    }

    #[test]
    fn xdr_dominates_for_hetero_transfers() {
        // Figure 13: conversion costs dwarf stack costs for big messages.
        let sun = PlatformProfile::sun4();
        assert!(sun.xdr_cost(65536) > sun.per_byte_stack * 65536 * 2);
    }

    #[test]
    fn heterogeneity_detection() {
        let sun = PlatformProfile::sun4();
        let rs = PlatformProfile::rs6000();
        assert!(sun.heterogeneous_with(&rs));
        assert!(!sun.heterogeneous_with(&PlatformProfile::sun4()));
    }

    #[test]
    fn modern_platform_is_free() {
        let m = PlatformProfile::modern();
        assert_eq!(m.send_cost(1_000_000), Duration::ZERO);
        assert_eq!(m.xdr_cost(1_000_000), Duration::ZERO);
    }

    #[test]
    fn user_switch_cheaper_than_kernel_switch() {
        for p in [PlatformProfile::sun4(), PlatformProfile::rs6000()] {
            assert!(p.ctx_switch_user < p.ctx_switch_kernel, "{}", p.name);
        }
    }
}
