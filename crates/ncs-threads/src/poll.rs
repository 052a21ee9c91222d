//! `poll(2)` and the scheduler's bell: the one place this crate waits on
//! descriptors, for [`crate::sync::wait_fd`] on an OS thread and for a
//! green scheduler whose threads wait on descriptors.

use std::io::{ErrorKind, Read, Write};
use std::os::fd::{AsRawFd, RawFd};
use std::os::raw::{c_int, c_ulong};
use std::os::unix::net::UnixStream;
use std::time::Instant;

/// Readable, for [`crate::sync::wait_fd`].
pub const POLLIN: i16 = 0x001;
/// Writable, for [`crate::sync::wait_fd`].
pub const POLLOUT: i16 = 0x004;

/// `poll(2)`'s descriptor record: the descriptor, the events waited for,
/// and those it reported.
#[repr(C)]
#[derive(Debug, Clone, Copy)]
pub(crate) struct PollFd(pub RawFd, pub i16, pub i16);

extern "C" {
    #[link_name = "poll"]
    fn sys_poll(fds: *mut PollFd, nfds: c_ulong, timeout: c_int) -> c_int;
}

/// Waits until one of `fds` reports (an error, hang-up or invalid
/// descriptor counts) or `deadline` passes — never, with `None` — and
/// returns how many reported: 0 only once the deadline has passed. A
/// signal does not end the wait.
pub(crate) fn poll(fds: &mut [PollFd], deadline: Option<Instant>) -> std::io::Result<usize> {
    loop {
        // Rounded up, so the wait never ends before the deadline.
        let left = deadline.map(|d| d.saturating_duration_since(Instant::now()));
        let timeout = left.map_or(-1, |t| {
            t.as_micros().div_ceil(1000).min(i32::MAX as u128) as i32
        });
        // SAFETY: `fds` is writable for its whole length, which is what
        // the call is told.
        let n = unsafe { sys_poll(fds.as_mut_ptr(), fds.len() as c_ulong, timeout) };
        if n > 0 || (n == 0 && timeout == 0) {
            return Ok(n as usize);
        }
        let e = std::io::Error::last_os_error();
        if n < 0 && e.kind() != ErrorKind::Interrupted {
            return Err(e);
        }
    }
}

/// A descriptor that polls readable once rung, until drained: how a push
/// ends a green scheduler's wait in `poll(2)`.
#[derive(Debug)]
pub(crate) struct Bell(UnixStream, UnixStream);

impl Bell {
    pub(crate) fn new() -> Self {
        let (rx, tx) = UnixStream::pair().expect("a green scheduler's bell");
        rx.set_nonblocking(true)
            .and(tx.set_nonblocking(true))
            .expect("a non-blocking bell");
        Bell(rx, tx)
    }

    /// The descriptor to poll, for input.
    pub(crate) fn pollfd(&self) -> PollFd {
        PollFd(self.0.as_raw_fd(), POLLIN, 0)
    }

    /// Rings; a bell too full to take the byte is rung already.
    pub(crate) fn ring(&self) {
        let _ = (&self.1).write(&[1]);
    }

    pub(crate) fn drain(&self) {
        while let Ok(1..) = (&self.0).read(&mut [0; 64]) {}
    }
}
