//! Waits on descriptors and on time (`sync::wait_fd`, `sync::sleep`), on
//! an OS thread and in green threads of both switch mechanisms: a green
//! waiter parks in its scheduler, which polls its descriptor, and its
//! siblings run on.

#![cfg(unix)]

use std::io::{Read, Write};
use std::os::fd::AsRawFd;
use std::os::unix::net::UnixStream;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use ncs_threads::sync::{sleep, wait_fd, wait_fds, Semaphore, POLLIN};
use ncs_threads::{
    SpawnOptions, SwitchMech, ThreadPackage, ThreadPackageExt, UserConfig, UserRuntime,
};

/// A runtime whose deadlock detector fires after 50 ms with nothing to
/// run, no timer and no descriptor to wait on.
fn runtime(mech: SwitchMech) -> UserRuntime {
    UserRuntime::new(UserConfig {
        mech,
        deadlock_timeout: Some(Duration::from_millis(50)),
        ..UserConfig::default()
    })
}

fn for_both_mechs(f: impl Fn(SwitchMech)) {
    for mech in [SwitchMech::Native, SwitchMech::Portable] {
        f(mech);
    }
}

fn pair() -> (UnixStream, UnixStream) {
    let (near, far) = UnixStream::pair().unwrap();
    far.set_nonblocking(true).unwrap();
    (near, far)
}

/// Writes one byte to `near` from an OS thread after `after`.
fn write_later(near: UnixStream, after: Duration) -> std::thread::JoinHandle<UnixStream> {
    std::thread::spawn(move || {
        std::thread::sleep(after);
        (&near).write_all(b"x").unwrap();
        near
    })
}

/// A wait nobody ends returns `false` at its deadline, not before; one
/// with `Duration::MAX` has none, and waits for as long as it takes —
/// here past the deadlock detector's 50 ms, which a descriptor waiter
/// does not trip.
fn deadlines() {
    let (near, far) = pair();
    let start = Instant::now();
    assert!(!wait_fd(far.as_raw_fd(), POLLIN, Duration::from_millis(30)).unwrap());
    let waited = start.elapsed();
    assert!(
        waited >= Duration::from_millis(30) && waited < Duration::from_millis(500),
        "{waited:?}"
    );
    let writer = write_later(near, Duration::from_millis(150));
    assert!(wait_fd(far.as_raw_fd(), POLLIN, Duration::MAX).unwrap());
    assert!(start.elapsed() >= Duration::from_millis(150));
    writer.join().unwrap();
}

#[test]
fn the_deadline_is_honoured_and_duration_max_is_none() {
    deadlines();
    for_both_mechs(|mech| runtime(mech).run(|_| deadlines()));
}

/// A byte written by a foreign OS thread, then by a sibling green thread,
/// ends the wait promptly.
#[test]
fn a_readable_descriptor_wakes_its_waiter_from_a_foreign_thread_and_from_a_sibling() {
    for_both_mechs(|mech| {
        runtime(mech).run(|pkg| {
            let (near, far) = pair();
            let start = Instant::now();
            let writer = write_later(near, Duration::from_millis(20));
            assert!(wait_fd(far.as_raw_fd(), POLLIN, Duration::from_secs(5)).unwrap());
            assert!(
                start.elapsed() < Duration::from_secs(1),
                "{:?}",
                start.elapsed()
            );
            let near = writer.join().unwrap();
            (&far).read_exact(&mut [0]).unwrap();
            let sibling = pkg.spawn_typed("sibling", move || (&near).write_all(b"y").unwrap());
            let start = Instant::now();
            assert!(wait_fd(far.as_raw_fd(), POLLIN, Duration::from_secs(5)).unwrap());
            assert!(
                start.elapsed() < Duration::from_secs(1),
                "{:?}",
                start.elapsed()
            );
            sibling.join().unwrap();
        });
    });
}

/// A wait on two descriptors ends when either reports, and forgets both:
/// a byte that later lands on the one that did not report wakes nobody,
/// and the next wait on it alone sees it at once — on an OS thread and in
/// green threads of both mechanisms.
fn either_of_two() {
    let ((near_a, far_a), (near_b, far_b)) = (pair(), pair());
    let both = [(far_a.as_raw_fd(), POLLIN), (far_b.as_raw_fd(), POLLIN)];
    for (near, far) in [(&near_b, &far_b), (&near_a, &far_a)] {
        let writer = write_later(near.try_clone().unwrap(), Duration::from_millis(20));
        assert!(wait_fds(&both, Duration::from_secs(5)).unwrap());
        { far }.read_exact(&mut [0]).unwrap();
        writer.join().unwrap();
    }
    (&near_b).write_all(b"z").unwrap();
    assert!(wait_fd(far_b.as_raw_fd(), POLLIN, Duration::from_secs(5)).unwrap());
    assert!(!wait_fds(&both[..1], Duration::from_millis(20)).unwrap());
}

#[test]
fn a_wait_on_two_descriptors_ends_on_either_and_forgets_both() {
    either_of_two();
    for_both_mechs(|mech| runtime(mech).run(|_| either_of_two()));
}

/// A scheduler parked in `poll(2)` for one thread's descriptor is rung out
/// of it by a wake for another: the semaphore released by a foreign OS
/// thread reaches its green waiter long before the descriptor's deadline.
#[test]
fn a_wake_from_another_thread_ends_the_schedulers_poll() {
    for_both_mechs(|mech| {
        runtime(mech).run(|pkg| {
            let (near, far) = pair();
            let poller = pkg.spawn_typed("poller", move || {
                wait_fd(far.as_raw_fd(), POLLIN, Duration::from_secs(5)).unwrap()
            });
            let sem = Arc::new(Semaphore::new(0));
            let releaser = {
                let sem = Arc::clone(&sem);
                std::thread::spawn(move || {
                    std::thread::sleep(Duration::from_millis(50));
                    sem.release();
                })
            };
            let start = Instant::now();
            sem.acquire();
            let took = start.elapsed();
            assert!(took < Duration::from_secs(1), "woken after {took:?}");
            releaser.join().unwrap();
            (&near).write_all(b"x").unwrap();
            assert_eq!(poller.join(), Ok(true));
        });
    });
}

/// A sibling that only yields keeps the scheduler busy; the descriptor it
/// made readable is still polled once per pass, so its waiter runs
/// within a couple of the sibling's yields.
#[test]
fn a_yielding_sibling_cannot_keep_a_ready_waiter_waiting_beyond_one_pass() {
    for_both_mechs(|mech| {
        runtime(mech).run(|pkg| {
            let (near, far) = pair();
            let (parked, done) = (
                Arc::new(AtomicBool::new(false)),
                Arc::new(AtomicBool::new(false)),
            );
            let waiter = {
                let (parked, done) = (Arc::clone(&parked), Arc::clone(&done));
                pkg.spawn_typed("waiter", move || {
                    parked.store(true, Ordering::Release);
                    let ready = wait_fd(far.as_raw_fd(), POLLIN, Duration::from_secs(5));
                    done.store(true, Ordering::Release);
                    ready.unwrap()
                })
            };
            while !parked.load(Ordering::Acquire) {
                pkg.yield_now();
            }
            (&near).write_all(b"x").unwrap();
            let mut yields = 0;
            while !done.load(Ordering::Acquire) {
                assert!(yields < 10_000, "the waiter never ran");
                pkg.yield_now();
                yields += 1;
            }
            assert!(yields <= 3, "the waiter ran after {yields} yields");
            assert_eq!(waiter.join(), Ok(true));
        });
    });
}

/// 64 green threads wait on 64 sockets, made readable one at a time in
/// the reverse order: each wait ends once, and on its own socket's byte.
#[test]
fn sixty_four_waiters_on_sixty_four_sockets_are_each_woken_once() {
    for_both_mechs(|mech| {
        runtime(mech).run(|pkg| {
            let parked = Arc::new(AtomicUsize::new(0));
            let mut nears = Vec::new();
            let mut waiters = Vec::new();
            for i in 0..64 {
                let (near, far) = pair();
                nears.push(near);
                let parked = Arc::clone(&parked);
                waiters.push(pkg.spawn_typed(&format!("waiter-{i}"), move || {
                    let (mut mine, mut byte) = (0, [0]);
                    parked.fetch_add(1, Ordering::Release);
                    while mine == 0 || (&far).read(&mut byte).is_err() {
                        assert!(wait_fd(far.as_raw_fd(), POLLIN, Duration::from_secs(5)).unwrap());
                        mine += 1;
                    }
                    (mine, byte[0])
                }));
            }
            while parked.load(Ordering::Acquire) < 64 {
                pkg.yield_now();
            }
            for (i, mut near) in nears.iter().enumerate().rev() {
                near.write_all(&[i as u8]).unwrap();
                pkg.yield_now();
            }
            for (i, waiter) in waiters.into_iter().enumerate() {
                assert_eq!(waiter.join(), Ok((1, i as u8)), "waiter {i}");
            }
        });
    });
}

/// A green sleep beyond what the clock can tell is a sleep for good: no
/// timer, and no overflow panic. Sleeps through the package and through
/// `sync::sleep` are the same sleep.
#[test]
fn a_green_sleep_beyond_the_clock_sleeps_for_good() {
    for_both_mechs(|mech| {
        UserRuntime::new(UserConfig {
            mech,
            ..UserConfig::default()
        })
        .run(|pkg| {
            let pkg2 = pkg.clone();
            let sleeper = pkg.spawn_with(
                SpawnOptions::new("sleeper").daemon(true),
                Box::new(move || pkg2.sleep(Duration::MAX)),
            );
            assert_eq!(sleeper.join_timeout(Duration::from_millis(50)), None);
            sleep(Duration::from_millis(1)); // a green sleep that ends
        });
    });
}
