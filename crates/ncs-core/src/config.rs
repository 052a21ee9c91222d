//! Per-connection configuration: the paper's "users can configure efficient
//! point-to-point primitives by selecting suitable flow control, error
//! control algorithms, and communication interfaces on a per-connection
//! basis".

use std::time::Duration;

/// Flow-control algorithm for one connection (paper §3.3).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum FlowControlAlg {
    /// No flow control (audio/video streams; reliable transports).
    None,
    /// Credit-based window (the paper's default): the receiver advertises
    /// a cumulative edge — the SDUs it has
    /// taken plus a window `W` — and the sender releases fresh SDUs up to
    /// it; retransmissions are free.
    CreditBased {
        /// The window `W` of a fresh connection, in SDUs ("only small
        /// credits are assigned to each connection initially").
        initial_credits: u32,
        /// Widen `W` up to 8 × `initial_credits` while the connection is
        /// active ("active connections get more credits").
        dynamic: bool,
    },
    /// Token-bucket rate limit.
    RateBased {
        /// Sustained rate in packets per second.
        packets_per_sec: u32,
        /// Bucket depth in packets.
        burst: u32,
    },
}

/// Error-control algorithm for one connection (paper §3.2).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ErrorControlAlg {
    /// No error control (error-resilient streams; reliable transports).
    None,
    /// Selective repeat with bitmap acknowledgements (the paper's default,
    /// Figures 5/6).
    SelectiveRepeat {
        /// Initial value and upper bound of the retransmission timeout.
        /// The connection measures its acknowledgement round trip and
        /// waits `SRTT + 4·RTTVAR` (RFC 6298; at least 10 ms), doubling
        /// with each timeout of a message, never longer than this — and
        /// exactly this until the first measurement.
        timeout: Duration,
        /// Give up after this many timeouts of the full `timeout` with
        /// no progress (shorter waits that run out spend none): a silent
        /// peer costs `(max_retries + 1) × timeout`, at least.
        max_retries: u32,
    },
    /// Go-back-N: cumulative ACKs, in-order delivery, window restart on
    /// loss.
    GoBackN {
        /// Sender window in packets.
        window: u32,
        /// Initial value and upper bound of the retransmission timeout
        /// (adapted below it as for
        /// [`SelectiveRepeat`](ErrorControlAlg::SelectiveRepeat)).
        timeout: Duration,
        /// Give up after this many window restarts on timeouts of the
        /// full `timeout` with no progress.
        max_retries: u32,
    },
}

/// Errors from validating a [`ConnectionConfig`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ConfigError {
    /// SDU size outside the supported range.
    SduOutOfRange {
        /// Requested SDU size.
        sdu: usize,
    },
    /// SDU + packet overhead exceeds the transport's maximum frame.
    SduTooLargeForInterface {
        /// Requested SDU size.
        sdu: usize,
        /// Interface frame limit.
        max_frame: usize,
    },
    /// A window/credit/rate parameter was zero.
    ZeroParameter(&'static str),
}

impl std::fmt::Display for ConfigError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ConfigError::SduOutOfRange { sdu } => write!(
                f,
                "SDU size {sdu} outside supported range {}..={}",
                ConnectionConfig::MIN_SDU,
                ConnectionConfig::MAX_SDU
            ),
            ConfigError::SduTooLargeForInterface { sdu, max_frame } => write!(
                f,
                "SDU {sdu} plus packet overhead exceeds interface frame limit {max_frame}"
            ),
            ConfigError::ZeroParameter(p) => write!(f, "{p} must be positive"),
        }
    }
}

impl std::error::Error for ConfigError {}

/// Full per-connection configuration.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ConnectionConfig {
    /// Service data unit size — the unit of error control and
    /// retransmission (paper: 4 KB–64 KB, default 4 KB; this implementation
    /// additionally allows small SDUs down to 256 B for tests).
    pub sdu_size: usize,
    /// Flow-control algorithm.
    pub flow_control: FlowControlAlg,
    /// Error-control algorithm.
    pub error_control: ErrorControlAlg,
}

impl Default for ConnectionConfig {
    fn default() -> Self {
        Self::reliable()
    }
}

impl ConnectionConfig {
    /// Smallest accepted SDU (relaxed below the paper's 4 KB for testing).
    pub const MIN_SDU: usize = 256;
    /// Largest accepted SDU — one AAL5 frame (paper §3.2), minus room for
    /// the NCS packet header on a 64 KB-framed interface.
    pub const MAX_SDU: usize = 64 * 1024;
    /// The paper's default SDU.
    pub const DEFAULT_SDU: usize = 4 * 1024;

    /// The paper's default reliable configuration: 4 KB SDUs, credit-based
    /// flow control with dynamic credits, selective-repeat error control.
    /// Its 200 ms is the initial value and upper bound of the
    /// retransmission timeout: the wait before the link has been
    /// measured and the most a backed-off wait grows to.
    ///
    /// Over an interface that loses frames only when its receiver's ring
    /// overruns (HPI), a ring of at least 67 frames — room for each side's
    /// widest window, 4 credits widened 8-fold, plus a starvation probe's
    /// one SDU, once for its data and once for its feedback, and a set-up
    /// or close frame — leaves error control nothing to repair, and the
    /// connection runs
    /// without it: no acknowledgement, no retransmission timer, and an
    /// `isend` complete once the ring has taken the message
    /// ([`NcsConnection::isend`](crate::NcsConnection::isend)).
    /// [`NcsConnection::config`](crate::NcsConnection::config) still
    /// reports this configuration.
    pub fn reliable() -> Self {
        ConnectionConfig {
            sdu_size: Self::DEFAULT_SDU,
            flow_control: FlowControlAlg::CreditBased {
                initial_credits: 4,
                dynamic: true,
            },
            error_control: ErrorControlAlg::SelectiveRepeat {
                timeout: Duration::from_millis(200),
                max_retries: 10,
            },
        }
    }

    /// No flow or error control — the multimedia configuration ("no flow or
    /// error control for the audio and video connections") and the right
    /// choice over reliable interfaces like SCI, where TCP already provides
    /// both (§3.1).
    pub fn unreliable() -> Self {
        ConnectionConfig {
            sdu_size: Self::DEFAULT_SDU,
            flow_control: FlowControlAlg::None,
            error_control: ErrorControlAlg::None,
        }
    }

    /// The §4.2 thread-bypass configuration, which is the default path
    /// now (a waiting thread runs its connection's task itself):
    /// [`ConnectionConfig::unreliable`]. An alias, kept until the
    /// benchmark's ladder moves off it (ROADMAP 1(b)).
    pub fn direct() -> Self {
        Self::unreliable()
    }

    /// Starts a builder from this configuration.
    pub fn builder() -> ConnectionConfigBuilder {
        ConnectionConfigBuilder {
            config: Self::reliable(),
        }
    }

    /// Whether the connection runs flow or error control: `false` for the
    /// §3.1 bypass, whose planes run null strategies and whose send queue
    /// is bounded instead.
    pub fn needs_control_threads(&self) -> bool {
        !matches!(
            (&self.flow_control, &self.error_control),
            (FlowControlAlg::None, ErrorControlAlg::None)
        )
    }

    /// Validates against an interface's frame limit.
    ///
    /// # Errors
    ///
    /// See [`ConfigError`].
    pub fn validate(&self, max_frame: usize) -> Result<(), ConfigError> {
        if self.sdu_size < Self::MIN_SDU || self.sdu_size > Self::MAX_SDU {
            return Err(ConfigError::SduOutOfRange { sdu: self.sdu_size });
        }
        if self.sdu_size + crate::packet::DATA_OVERHEAD > max_frame {
            return Err(ConfigError::SduTooLargeForInterface {
                sdu: self.sdu_size,
                max_frame,
            });
        }
        match &self.flow_control {
            FlowControlAlg::CreditBased {
                initial_credits, ..
            } if *initial_credits == 0 => {
                return Err(ConfigError::ZeroParameter("initial_credits"))
            }
            FlowControlAlg::RateBased {
                packets_per_sec,
                burst,
            } if *packets_per_sec == 0 || *burst == 0 => {
                return Err(ConfigError::ZeroParameter("rate parameters"))
            }
            _ => {}
        }
        match &self.error_control {
            ErrorControlAlg::GoBackN { window, .. } if *window == 0 => {
                return Err(ConfigError::ZeroParameter("gbn window"))
            }
            _ => {}
        }
        Ok(())
    }

    /// Wire encoding (carried in connection-setup messages so both ends
    /// configure identically).
    pub fn encode(&self) -> Vec<u8> {
        let mut out = Vec::new();
        out.extend_from_slice(&(self.sdu_size as u32).to_be_bytes());
        match &self.flow_control {
            FlowControlAlg::None => out.push(0),
            FlowControlAlg::CreditBased {
                initial_credits,
                dynamic,
            } => {
                out.push(1);
                out.extend_from_slice(&initial_credits.to_be_bytes());
                out.push(*dynamic as u8);
            }
            FlowControlAlg::RateBased {
                packets_per_sec,
                burst,
            } => {
                out.push(3);
                out.extend_from_slice(&packets_per_sec.to_be_bytes());
                out.extend_from_slice(&burst.to_be_bytes());
            }
        }
        match &self.error_control {
            ErrorControlAlg::None => out.push(0),
            ErrorControlAlg::SelectiveRepeat {
                timeout,
                max_retries,
            } => {
                out.push(1);
                out.extend_from_slice(&(timeout.as_micros() as u64).to_be_bytes());
                out.extend_from_slice(&max_retries.to_be_bytes());
            }
            ErrorControlAlg::GoBackN {
                window,
                timeout,
                max_retries,
            } => {
                out.push(2);
                out.extend_from_slice(&window.to_be_bytes());
                out.extend_from_slice(&(timeout.as_micros() as u64).to_be_bytes());
                out.extend_from_slice(&max_retries.to_be_bytes());
            }
        }
        out
    }

    /// Decodes a configuration from [`ConnectionConfig::encode`].
    ///
    /// # Errors
    ///
    /// Returns a description of the malformation.
    pub fn decode(bytes: &[u8]) -> Result<Self, String> {
        let mut at = 0usize;
        let take = |at: &mut usize, n: usize| -> Result<&[u8], String> {
            if *at + n > bytes.len() {
                return Err("config truncated".to_owned());
            }
            let s = &bytes[*at..*at + n];
            *at += n;
            Ok(s)
        };
        let sdu_size = u32::from_be_bytes(take(&mut at, 4)?.try_into().expect("4")) as usize;
        let flow_control = match take(&mut at, 1)?[0] {
            0 => FlowControlAlg::None,
            1 => {
                let initial_credits = u32::from_be_bytes(take(&mut at, 4)?.try_into().expect("4"));
                let dynamic = take(&mut at, 1)?[0] != 0;
                FlowControlAlg::CreditBased {
                    initial_credits,
                    dynamic,
                }
            }
            3 => {
                let packets_per_sec = u32::from_be_bytes(take(&mut at, 4)?.try_into().expect("4"));
                let burst = u32::from_be_bytes(take(&mut at, 4)?.try_into().expect("4"));
                FlowControlAlg::RateBased {
                    packets_per_sec,
                    burst,
                }
            }
            other => return Err(format!("unknown flow control variant {other}")),
        };
        let error_control = match take(&mut at, 1)?[0] {
            0 => ErrorControlAlg::None,
            1 => {
                let micros = u64::from_be_bytes(take(&mut at, 8)?.try_into().expect("8"));
                let max_retries = u32::from_be_bytes(take(&mut at, 4)?.try_into().expect("4"));
                ErrorControlAlg::SelectiveRepeat {
                    timeout: Duration::from_micros(micros),
                    max_retries,
                }
            }
            2 => {
                let window = u32::from_be_bytes(take(&mut at, 4)?.try_into().expect("4"));
                let micros = u64::from_be_bytes(take(&mut at, 8)?.try_into().expect("8"));
                let max_retries = u32::from_be_bytes(take(&mut at, 4)?.try_into().expect("4"));
                ErrorControlAlg::GoBackN {
                    window,
                    timeout: Duration::from_micros(micros),
                    max_retries,
                }
            }
            other => return Err(format!("unknown error control variant {other}")),
        };
        if at != bytes.len() {
            return Err("trailing bytes after config".to_owned());
        }
        Ok(ConnectionConfig {
            sdu_size,
            flow_control,
            error_control,
        })
    }
}

/// Builder for [`ConnectionConfig`] (C-BUILDER).
///
/// # Example
///
/// ```
/// use ncs_core::{ConnectionConfig, FlowControlAlg, ErrorControlAlg};
/// use std::time::Duration;
///
/// let config = ConnectionConfig::builder()
///     .sdu_size(8 * 1024)
///     .flow_control(FlowControlAlg::CreditBased { initial_credits: 16, dynamic: false })
///     .error_control(ErrorControlAlg::GoBackN {
///         window: 16,
///         timeout: Duration::from_millis(100),
///         max_retries: 5,
///     })
///     .build();
/// assert_eq!(config.sdu_size, 8 * 1024);
/// ```
#[derive(Debug, Clone)]
pub struct ConnectionConfigBuilder {
    config: ConnectionConfig,
}

impl ConnectionConfigBuilder {
    /// Sets the SDU size.
    pub fn sdu_size(mut self, bytes: usize) -> Self {
        self.config.sdu_size = bytes;
        self
    }

    /// Sets the flow-control algorithm.
    pub fn flow_control(mut self, alg: FlowControlAlg) -> Self {
        self.config.flow_control = alg;
        self
    }

    /// Sets the error-control algorithm.
    pub fn error_control(mut self, alg: ErrorControlAlg) -> Self {
        self.config.error_control = alg;
        self
    }

    /// Finishes the configuration (validation happens at connect time, when
    /// the interface's frame limit is known).
    pub fn build(self) -> ConnectionConfig {
        self.config
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_match_paper() {
        let c = ConnectionConfig::reliable();
        assert_eq!(c.sdu_size, 4096);
        assert!(matches!(c.flow_control, FlowControlAlg::CreditBased { .. }));
        assert!(matches!(
            c.error_control,
            ErrorControlAlg::SelectiveRepeat { .. }
        ));
        assert!(c.needs_control_threads());
    }

    #[test]
    fn unreliable_needs_no_control_threads() {
        assert!(!ConnectionConfig::unreliable().needs_control_threads());
    }

    #[test]
    fn validation_bounds_sdu() {
        let mut c = ConnectionConfig::reliable();
        c.sdu_size = 100;
        assert!(matches!(
            c.validate(1 << 20),
            Err(ConfigError::SduOutOfRange { .. })
        ));
        c.sdu_size = 128 * 1024;
        assert!(matches!(
            c.validate(1 << 20),
            Err(ConfigError::SduOutOfRange { .. })
        ));
        c.sdu_size = 64 * 1024;
        // 64 KB SDU cannot ride a 64 KB-framed interface once the header is
        // added.
        assert!(matches!(
            c.validate(65_535),
            Err(ConfigError::SduTooLargeForInterface { .. })
        ));
        c.sdu_size = 32 * 1024;
        assert!(c.validate(65_535).is_ok());
    }

    #[test]
    fn validation_rejects_zero_parameters() {
        let c = ConnectionConfig::builder()
            .flow_control(FlowControlAlg::CreditBased {
                initial_credits: 0,
                dynamic: false,
            })
            .build();
        assert!(matches!(
            c.validate(1 << 20),
            Err(ConfigError::ZeroParameter("initial_credits"))
        ));
        let c = ConnectionConfig::builder()
            .error_control(ErrorControlAlg::GoBackN {
                window: 0,
                timeout: Duration::from_millis(1),
                max_retries: 1,
            })
            .build();
        assert!(matches!(
            c.validate(1 << 20),
            Err(ConfigError::ZeroParameter(_))
        ));
    }

    #[test]
    fn encode_decode_round_trips_all_variants() {
        let configs = vec![
            ConnectionConfig::reliable(),
            ConnectionConfig::unreliable(),
            ConnectionConfig::builder()
                .sdu_size(1024)
                .flow_control(FlowControlAlg::CreditBased {
                    initial_credits: 7,
                    dynamic: false,
                })
                .error_control(ErrorControlAlg::GoBackN {
                    window: 7,
                    timeout: Duration::from_millis(123),
                    max_retries: 3,
                })
                .build(),
            ConnectionConfig::builder()
                .flow_control(FlowControlAlg::RateBased {
                    packets_per_sec: 1000,
                    burst: 10,
                })
                .build(),
        ];
        for c in configs {
            assert_eq!(ConnectionConfig::decode(&c.encode()).unwrap(), c, "{c:?}");
        }
    }

    #[test]
    fn decode_rejects_garbage() {
        assert!(ConnectionConfig::decode(&[]).is_err());
        assert!(ConnectionConfig::decode(&[0, 0, 16, 0, 0, 9]).is_err());
        let mut good = ConnectionConfig::reliable().encode();
        good.push(0); // trailing byte
        assert!(ConnectionConfig::decode(&good).is_err());
        // Flow-control tag 2, the fixed window the credit form now names.
        assert_eq!(
            ConnectionConfig::decode(&[0, 0, 16, 0, 2, 0, 0, 0, 7, 0]),
            Err("unknown flow control variant 2".to_owned())
        );
        // The older format, with a thread-bypass byte after the SDU size.
        for config in [ConnectionConfig::reliable(), ConnectionConfig::unreliable()] {
            let mut old = config.encode();
            old.insert(4, 0);
            assert!(ConnectionConfig::decode(&old).is_err(), "{config:?}");
        }
    }
}
