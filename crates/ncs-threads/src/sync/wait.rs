//! Package-aware waits on time and on descriptors.

use std::os::fd::RawFd;
use std::time::{Duration, Instant};

use crate::poll::{poll, PollFd};
use crate::scheduler;

/// Sleeps for `dur` — for good, with a `dur` beyond what the clock can
/// tell (`Duration::MAX`). A green thread sleeps without stalling its
/// scheduler; any other thread in [`std::thread::sleep`].
pub fn sleep(dur: Duration) {
    match scheduler::in_green() {
        true => _ = scheduler::green_wait(None, Instant::now().checked_add(dur)),
        false => std::thread::sleep(dur),
    }
}

/// Waits until `fd` reports one of `events` ([`POLLIN`](crate::sync::POLLIN),
/// [`POLLOUT`](crate::sync::POLLOUT)) — or an error or hang-up, which the
/// next call on it meets — or `timeout` passes; with a timeout beyond
/// what the clock can tell (`Duration::MAX`), for as long as it takes.
/// Returns whether the descriptor reported.
///
/// A green thread parks in its scheduler, which polls the descriptor
/// beside those of its other waiting threads, so its siblings run on;
/// any other thread waits in `poll(2)`.
///
/// # Errors
///
/// A failed `poll(2)` on an OS thread. (A green scheduler whose poll
/// fails reports the descriptor.)
pub fn wait_fd(fd: RawFd, events: i16, timeout: Duration) -> std::io::Result<bool> {
    let (fd, deadline) = (PollFd(fd, events, 0), Instant::now().checked_add(timeout));
    match scheduler::in_green() {
        true => Ok(scheduler::green_wait(Some(fd), deadline)),
        false => poll(&mut [fd], deadline).map(|n| n > 0),
    }
}
