//! Shared infrastructure for the baseline systems: the [`MessageSystem`]
//! trait the benchmark harness drives, platform cost charging, and the
//! per-system x per-platform stack factors calibrated against the paper's
//! Figures 12/13.

use std::sync::Arc;

use ncs_transport::{Connection, TransportError};
use netmodel::{Pacer, PlatformProfile};

/// Errors from baseline system operations.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SystemError {
    /// Transport failure.
    Transport(String),
    /// Receive timed out.
    Timeout,
    /// Malformed frame (protocol violation).
    Protocol(String),
}

impl std::fmt::Display for SystemError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SystemError::Transport(e) => write!(f, "transport failure: {e}"),
            SystemError::Timeout => write!(f, "receive timed out"),
            SystemError::Protocol(e) => write!(f, "protocol violation: {e}"),
        }
    }
}

impl std::error::Error for SystemError {}

impl From<TransportError> for SystemError {
    fn from(e: TransportError) -> Self {
        match e {
            TransportError::Timeout => SystemError::Timeout,
            other => SystemError::Transport(other.to_string()),
        }
    }
}

/// A point-to-point message-passing system under benchmark: the common
/// surface of p4, PVM, MPI (and the harness's NCS adapter).
pub trait MessageSystem: Send + std::fmt::Debug {
    /// System name for report rows.
    fn name(&self) -> &'static str;

    /// Sends `data` with message tag/type `tag`.
    ///
    /// # Errors
    ///
    /// See [`SystemError`].
    fn send(&mut self, tag: u32, data: &[u8]) -> Result<(), SystemError>;

    /// Receives the next message with tag/type `tag`.
    ///
    /// # Errors
    ///
    /// See [`SystemError`].
    fn recv(&mut self, tag: u32) -> Result<Vec<u8>, SystemError>;
}

/// Construction spec for one baseline endpoint.
#[derive(Debug, Clone)]
pub struct EndpointSpec {
    /// The platform this endpoint runs on.
    pub local: Arc<PlatformProfile>,
    /// The platform of the peer (drives heterogeneous-path decisions).
    pub remote: Arc<PlatformProfile>,
    /// The pacer charging this endpoint's modelled costs.
    pub pacer: Arc<Pacer>,
}

impl EndpointSpec {
    /// A spec with no cost model (modern platform, disabled pacer) — used
    /// by functional tests.
    pub fn unmodelled() -> Self {
        EndpointSpec {
            local: Arc::new(PlatformProfile::modern()),
            remote: Arc::new(PlatformProfile::modern()),
            pacer: Arc::new(Pacer::disabled()),
        }
    }

    /// Whether this endpoint pair takes heterogeneous (conversion) paths.
    pub fn heterogeneous(&self) -> bool {
        self.local.heterogeneous_with(&self.remote)
    }
}

/// Per-system, per-platform protocol-stack multipliers.
///
/// The paper's §4.3 finding is that "the performance of send/receive
/// primitives of each message-passing system varies according to the
/// computing platforms": p4 and MPI were efficient on AIX but poor on
/// SunOS 5.5, PVM the reverse. These factors scale the platform's
/// per-byte stack cost per system and are calibrated so the figure shapes
/// (who wins where, by roughly what factor) match.
pub fn stack_factor(system: &str, arch: &str) -> f64 {
    match (system, arch) {
        ("p4", "sparc") => 2.2,
        ("p4", "power") => 0.7,
        ("mpi", "sparc") => 1.9,
        ("mpi", "power") => 1.0,
        ("pvm", "sparc") => 1.0,
        ("pvm", "power") => 1.9,
        // Unmodelled platforms and NCS run at factor 1.
        _ => 1.0,
    }
}

/// A transport endpoint that charges platform costs on every operation.
pub struct CostedTransport {
    conn: Box<dyn Connection>,
    spec: EndpointSpec,
    factor: f64,
}

impl std::fmt::Debug for CostedTransport {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("CostedTransport")
            .field("platform", &self.spec.local.name)
            .field("factor", &self.factor)
            .finish()
    }
}

impl CostedTransport {
    /// Wraps `conn` for a `system` endpoint described by `spec`.
    pub fn new(system: &'static str, conn: Box<dyn Connection>, spec: EndpointSpec) -> Self {
        let factor = stack_factor(system, &spec.local.arch);
        CostedTransport { conn, spec, factor }
    }

    /// The endpoint spec.
    pub fn spec(&self) -> &EndpointSpec {
        &self.spec
    }

    /// Sends a frame, charging `send_op + factor * per_byte_stack * len`.
    ///
    /// # Errors
    ///
    /// Propagates transport failures.
    pub fn send(&self, frame: &[u8]) -> Result<(), SystemError> {
        let p = &self.spec.local;
        self.spec.pacer.charge(p.send_op);
        self.spec
            .pacer
            .charge(p.per_byte_stack.mul_f64(self.factor) * frame.len() as u32);
        self.conn.send(frame)?;
        Ok(())
    }

    /// Receives a frame, charging the receive-side costs.
    ///
    /// # Errors
    ///
    /// Propagates transport failures.
    pub fn recv(&self) -> Result<Vec<u8>, SystemError> {
        let frame = self.conn.recv_timeout(std::time::Duration::from_secs(60))?;
        let p = &self.spec.local;
        self.spec.pacer.charge(p.recv_op);
        self.spec
            .pacer
            .charge(p.per_byte_stack.mul_f64(self.factor) * frame.len() as u32);
        Ok(frame)
    }

    /// Charges an XDR conversion of `bytes` scaled by `efficiency`
    /// (1.0 = the platform's nominal XDR cost).
    pub fn charge_xdr(&self, bytes: usize, efficiency: f64) {
        self.spec
            .pacer
            .charge(self.spec.local.xdr_cost(bytes).mul_f64(efficiency));
    }

    /// Charges a plain buffer copy of `bytes`.
    pub fn charge_copy(&self, bytes: usize) {
        self.spec.pacer.charge(self.spec.local.copy_cost(bytes));
    }

    /// Charges an arbitrary fixed cost (protocol-layer bookkeeping).
    pub fn charge_fixed(&self, d: std::time::Duration) {
        self.spec.pacer.charge(d);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stack_factors_encode_platform_findings() {
        // p4/MPI good on AIX, bad on SunOS; PVM the reverse.
        assert!(stack_factor("p4", "sparc") > stack_factor("p4", "power"));
        assert!(stack_factor("mpi", "sparc") > stack_factor("mpi", "power"));
        assert!(stack_factor("pvm", "power") > stack_factor("pvm", "sparc"));
        assert_eq!(stack_factor("anything", "native"), 1.0);
    }

    #[test]
    fn unmodelled_spec_is_homogeneous() {
        let s = EndpointSpec::unmodelled();
        assert!(!s.heterogeneous());
    }

    #[test]
    fn costed_transport_moves_frames() {
        let (a, b) = ncs_transport::hpi::pair_default();
        let ta = CostedTransport::new("p4", Box::new(a), EndpointSpec::unmodelled());
        let tb = CostedTransport::new("p4", Box::new(b), EndpointSpec::unmodelled());
        ta.send(b"frame").unwrap();
        assert_eq!(tb.recv().unwrap(), b"frame");
    }
}
