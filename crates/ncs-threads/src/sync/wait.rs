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
        true => _ = scheduler::green_wait([NONE; 2], Instant::now().checked_add(dur)),
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
    wait_fds(&[(fd, events)], timeout)
}

/// [`wait_fd`] on up to two descriptors at once, each with its events:
/// the wait ends when either reports. A thread that waits on a socket
/// and on a bell others ring to reach it waits this way.
///
/// # Errors
///
/// As [`wait_fd`].
///
/// # Panics
///
/// With more than two descriptors.
pub fn wait_fds(fds: &[(RawFd, i16)], timeout: Duration) -> std::io::Result<bool> {
    assert!(fds.len() <= 2, "wait_fds takes at most two descriptors");
    let mut polled = [NONE; 2];
    for (slot, &(fd, events)) in polled.iter_mut().zip(fds) {
        *slot = PollFd(fd, events, 0);
    }
    let deadline = Instant::now().checked_add(timeout);
    match scheduler::in_green() {
        true => Ok(scheduler::green_wait(polled, deadline)),
        false => poll(&mut polled[..fds.len()], deadline).map(|n| n > 0),
    }
}

/// No descriptor: `poll(2)` and a green scheduler skip a negative one.
const NONE: PollFd = PollFd(-1, 0, 0);
