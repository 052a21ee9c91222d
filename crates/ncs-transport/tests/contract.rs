//! The `Connection` contract, checked once over every interface: HPI,
//! PIPE (instant, and with a drain rate and a latency), ACI, SCI, SIM (a
//! LAN link, moved only by the endpoints that touch it) and `Metered` over
//! HPI.

use std::sync::mpsc;
use std::sync::Arc;
use std::time::{Duration, Instant};

use atm_sim::{LinkSpec, NetworkBuilder, PumpConfig, QosParams};
use ncs_transport::aci::AciFabric;
use ncs_transport::sim::{LinkPolicy, SimNet};
use ncs_transport::{hpi, pipe, sci, Connection, Metered, Readiness, TransportError};

/// How long a frame may take to arrive on a real-time interface.
const ARRIVAL: Duration = Duration::from_secs(5);

/// A connected pair of one interface.
struct Pair {
    name: &'static str,
    a: Arc<dyn Connection>,
    b: Arc<dyn Connection>,
    /// Runs when the pair is dropped (stops the ACI fabric's pump).
    teardown: Option<Box<dyn FnOnce()>>,
}

impl Drop for Pair {
    fn drop(&mut self) {
        if let Some(teardown) = self.teardown.take() {
            teardown();
        }
    }
}

impl Pair {
    fn new(name: &'static str, a: impl Connection + 'static, b: impl Connection + 'static) -> Self {
        Pair {
            name,
            a: Arc::new(a),
            b: Arc::new(b),
            teardown: None,
        }
    }

    /// The next frame `b` receives, polled with `try_recv`: `Ok(None)`
    /// answers are waited out, up to [`ARRIVAL`].
    fn next(&self) -> Result<Vec<u8>, TransportError> {
        let deadline = Instant::now() + ARRIVAL;
        loop {
            match self.b.try_recv() {
                Ok(None) if Instant::now() < deadline => {
                    std::thread::sleep(Duration::from_millis(1))
                }
                Ok(None) => panic!("{}: nothing arrived", self.name),
                Ok(Some(frame)) => return Ok(frame),
                Err(e) => return Err(e),
            }
        }
    }

    /// Sends all of `frames` from `a`, retrying the rest of a partial
    /// batch.
    fn send_all(&self, frames: &[&[u8]]) {
        let mut sent = 0;
        while sent < frames.len() {
            sent += self.a.send_batch(&frames[sent..]).expect(self.name);
        }
    }
}

fn hpi_pair() -> Pair {
    let (a, b) = hpi::pair_default();
    Pair::new("HPI", a, b)
}

fn pipe_pair() -> Pair {
    let (a, b) = pipe::pair(pipe::PipeConfig::default());
    Pair::new("PIPE", a, b)
}

/// PIPE in `ncs_bench::atm_wire`'s shape, with a latency one can see: a
/// modelled wire whose frames take time, moved by whoever touches it.
fn pipe_with_latency_pair() -> Pair {
    let (a, b) = pipe::pair(pipe::PipeConfig {
        buffer_bytes: 64 * 1024,
        drain_bytes_per_sec: Some(16_875_000),
        latency: PIPE_LATENCY,
        time_scale: 1.0,
    });
    Pair::new("PIPE with latency", a, b)
}

/// The one-way latency of [`pipe_with_latency_pair`].
const PIPE_LATENCY: Duration = Duration::from_millis(2);

fn aci_pair() -> Pair {
    let net = NetworkBuilder::new()
        .host("a")
        .host("b")
        .switch("sw")
        .link("a", "sw", LinkSpec::oc3())
        .link("b", "sw", LinkSpec::oc3())
        .build()
        .unwrap();
    let fabric = AciFabric::start(net, PumpConfig::default());
    let dev_b = fabric.device("b").unwrap();
    let accept = std::thread::spawn(move || dev_b.accept().unwrap());
    let a = fabric
        .device("a")
        .unwrap()
        .connect("b", QosParams::unspecified())
        .unwrap();
    let mut pair = Pair::new("ACI", a, accept.join().unwrap());
    pair.teardown = Some(Box::new(move || fabric.shutdown()));
    pair
}

fn sci_pair() -> Pair {
    let (a, b) = sci::loopback_pair().unwrap();
    Pair::new("SCI", a, b)
}

fn sim_pair() -> Pair {
    let (a, b) = SimNet::new(7).pair(LinkPolicy::lan(), LinkPolicy::lan());
    Pair::new("SIM", a, b)
}

fn metered_hpi_pair() -> Pair {
    let registry = ncs_obs::Registry::new();
    let (a, b) = hpi::pair_default();
    let a = Metered::register(Arc::new(a), &registry);
    let b = Metered::register(Arc::new(b), &registry);
    Pair::new("Metered HPI", a, b)
}

const ENDPOINTS: [fn() -> Pair; 7] = [
    hpi_pair,
    pipe_pair,
    pipe_with_latency_pair,
    aci_pair,
    sci_pair,
    sim_pair,
    metered_hpi_pair,
];

/// Runs `check` over a fresh pair of every interface.
fn each_interface(check: impl Fn(&Pair)) {
    for make in ENDPOINTS {
        let pair = make();
        eprintln!("-- {}", pair.name);
        check(&pair);
    }
}

#[test]
fn empty_and_oversize_frames_are_refused() {
    each_interface(|p| {
        let max = p.a.caps().max_frame;
        let big = vec![1u8; max + 1];
        assert_eq!(p.a.send(b""), Err(TransportError::Empty), "{}", p.name);
        assert_eq!(
            p.a.send(&big),
            Err(TransportError::TooLarge { len: max + 1, max }),
            "{}",
            p.name
        );
        assert_eq!(p.a.send_batch(&[]), Ok(0), "{}", p.name);
        assert_eq!(
            p.b.recv_timeout(Duration::from_millis(20)),
            Err(TransportError::Timeout)
        );
    });
}

#[test]
fn a_batch_is_cut_at_its_first_invalid_frame() {
    each_interface(|p| {
        let big = vec![1u8; p.a.caps().max_frame + 1];
        let (one, two, three): (&[u8], &[u8], &[u8]) = (b"one", b"two", b"three");
        assert_eq!(p.a.send_batch(&[one, two, b"", three]), Ok(2), "{}", p.name);
        assert_eq!(p.a.send_batch(&[b"", three]), Err(TransportError::Empty));
        assert_eq!(p.a.send_batch(&[three, &big]), Ok(1), "{}", p.name);
        for want in [one, two, three] {
            assert_eq!(p.next().unwrap(), want, "{}", p.name);
        }
        assert_eq!(
            p.b.recv_timeout(Duration::from_millis(20)),
            Err(TransportError::Timeout)
        );
    });
}

#[test]
fn order_is_kept_within_and_across_batches() {
    each_interface(|p| {
        let frames: Vec<Vec<u8>> = (0..40u32).map(|i| i.to_be_bytes().to_vec()).collect();
        let refs: Vec<&[u8]> = frames.iter().map(Vec::as_slice).collect();
        p.send_all(&refs[..15]);
        for frame in &refs[15..20] {
            p.a.send(frame).expect(p.name);
        }
        p.send_all(&refs[20..]);
        for want in &frames {
            assert_eq!(&p.next().unwrap(), want, "{}", p.name);
        }
    });
}

#[test]
fn timed_and_polled_receives_wait_for_a_frame() {
    each_interface(|p| {
        let start = Instant::now();
        assert_eq!(
            p.b.recv_timeout(Duration::from_millis(30)),
            Err(TransportError::Timeout),
            "{}",
            p.name
        );
        assert!(start.elapsed() >= Duration::from_millis(25), "{}", p.name);
        assert_eq!(p.b.try_recv(), Ok(None), "{}", p.name);
        p.a.send(b"late").unwrap();
        assert_eq!(p.next().unwrap(), b"late", "{}", p.name);
        assert_eq!(p.b.try_recv(), Ok(None), "{}", p.name);
    });
}

#[test]
fn a_blocked_recv_wakes_on_close() {
    each_interface(|p| {
        let (done_tx, done) = mpsc::channel();
        let b = Arc::clone(&p.b);
        let receiver = std::thread::spawn(move || done_tx.send(b.recv()));
        std::thread::sleep(Duration::from_millis(30));
        p.a.close();
        let outcome = done
            .recv_timeout(ARRIVAL)
            .unwrap_or_else(|_| panic!("{}: recv slept through the close", p.name));
        assert_eq!(outcome, Err(TransportError::Closed), "{}", p.name);
        receiver.join().unwrap().unwrap();
    });
}

/// A modelled wire owns no thread, and needs none: a receiver that
/// blocked before the frame was sent is rung by the send, waits for the
/// frame's arrival — the wire's next event — and takes it, while no other
/// thread touches the wire.
#[test]
fn a_receiver_blocked_before_the_send_is_woken_by_the_arrival() {
    each_interface(|p| {
        if !["PIPE with latency", "ACI", "SIM"].contains(&p.name) {
            return;
        }
        let b = Arc::clone(&p.b);
        let receiver = std::thread::spawn(move || (b.recv_timeout(ARRIVAL), Instant::now()));
        std::thread::sleep(Duration::from_millis(30));
        let sent = Instant::now();
        p.a.send(b"woken").unwrap();
        let (got, at) = receiver.join().unwrap();
        assert_eq!(got, Ok(b"woken".to_vec()), "{}", p.name);
        let took = at - sent;
        assert!(took < Duration::from_secs(1), "{}: took {took:?}", p.name);
        let latency = match p.name {
            "PIPE with latency" => PIPE_LATENCY,
            "SIM" => LinkPolicy::lan().latency,
            _ => Duration::ZERO,
        };
        assert!(took >= latency, "{}: arrived early", p.name);
    });
}

#[test]
fn sends_after_close_fail_closed() {
    each_interface(|p| {
        p.a.close();
        p.a.close();
        assert_eq!(p.a.send(b"x"), Err(TransportError::Closed), "{}", p.name);
        let x: &[u8] = b"x";
        assert_eq!(
            p.a.send_batch(&[x, x]),
            Err(TransportError::Closed),
            "{}",
            p.name
        );
    });
}

/// Every interface but ACI, whose circuit release may overtake frames in
/// flight (a native-ATM API makes no such promise).
#[test]
fn frames_sent_before_close_arrive_before_closed() {
    each_interface(|p| {
        if p.name == "ACI" {
            return;
        }
        let (one, two, three): (&[u8], &[u8], &[u8]) = (b"one", b"two", b"three");
        p.a.send(one).unwrap();
        p.send_all(&[two, three]);
        p.a.close();
        for want in [one, two, three] {
            assert_eq!(p.next(), Ok(want.to_vec()), "{}", p.name);
        }
        assert_eq!(p.next(), Err(TransportError::Closed), "{}", p.name);
    });
}

#[test]
fn recv_many_honours_max() {
    each_interface(|p| {
        assert_eq!(p.b.recv_many(0, Duration::from_millis(1)), Ok(Vec::new()));
        assert_eq!(
            p.b.recv_many(4, Duration::from_millis(20)),
            Err(TransportError::Timeout),
            "{}",
            p.name
        );
        let frames: Vec<Vec<u8>> = (0..7u8).map(|i| vec![i; 3]).collect();
        let refs: Vec<&[u8]> = frames.iter().map(Vec::as_slice).collect();
        p.send_all(&refs);
        let mut got = Vec::new();
        while got.len() < frames.len() {
            let batch = p.b.recv_many(2, ARRIVAL).expect(p.name);
            assert!(
                (1..=2).contains(&batch.len()),
                "{}: {} frames",
                p.name,
                batch.len()
            );
            got.extend(batch);
        }
        assert_eq!(got, frames, "{}", p.name);
    });
}

/// The rule an event loop's send path rests on: only an fd-backed
/// interface refuses a valid batch. Every interface that wakes its event
/// loop through a waker takes at least the first frame of a valid batch
/// on an open connection — never `Ok(0)` — and fails once closed, so no
/// event loop ever waits on one for room.
#[test]
fn a_waker_endpoint_takes_a_valid_batch_or_fails_never_refuses_it() {
    each_interface(|p| {
        if p.a.readiness() != Readiness::Waker {
            return;
        }
        let frame = vec![7u8; 1024];
        let batch = vec![&frame[..]; 16];
        for _ in 0..64 {
            let taken = p.a.try_send_batch(&batch).expect(p.name);
            assert!(taken >= 1, "{}: a valid batch refused", p.name);
            while let Ok(Some(_)) = p.b.try_recv() {}
        }
        p.a.close();
        assert_eq!(
            p.a.try_send_batch(&batch),
            Err(TransportError::Closed),
            "{}",
            p.name
        );
    });
}

/// SCI is the interface that does refuse: with a 4 KiB socket send buffer
/// and a peer that reads late, `try_send_batch` answers `Ok(0)` and the
/// socket does not poll writable; once the peer drains it does, and the
/// next batch is taken: the report an event loop waits for, instead of
/// retrying on a timer.
#[cfg(target_os = "linux")]
#[test]
fn sci_refuses_a_full_socket_and_polls_writable_once_the_peer_drains() {
    /// `poll(2)`'s descriptor record, and the output event.
    #[repr(C)]
    struct PollFd {
        fd: i32,
        events: i16,
        revents: i16,
    }

    const POLLOUT: i16 = 0x004;

    extern "C" {
        fn poll(fds: *mut PollFd, nfds: u64, timeout: i32) -> i32;
        fn setsockopt(fd: i32, level: i32, name: i32, value: *const i32, len: u32) -> i32;
    }

    /// Whether `fd` polls writable within `timeout_ms`.
    fn writable(fd: i32, timeout_ms: i32) -> bool {
        let mut pfd = PollFd {
            fd,
            events: POLLOUT,
            revents: 0,
        };
        // SAFETY: `pfd` is one valid `pollfd`, alive for the whole call.
        let n = unsafe { poll(&mut pfd, 1, timeout_ms) };
        n == 1 && pfd.revents & POLLOUT != 0
    }

    const SOL_SOCKET: i32 = 1;
    const SO_SNDBUF: i32 = 7;
    let (a, b) = sci::loopback_pair().unwrap();
    let Readiness::Fd(fd) = a.readiness() else {
        panic!("SCI has a socket");
    };
    // SAFETY: the option value is one valid `int`, as its length says.
    assert_eq!(
        unsafe { setsockopt(fd, SOL_SOCKET, SO_SNDBUF, &4096, 4) },
        0
    );
    let frame = vec![3u8; 1024];
    let batch = vec![&frame[..]; 32];
    let mut calls = 0;
    while a.try_send_batch(&batch).expect("send") > 0 {
        calls += 1;
        assert!(calls < 100_000, "the socket never filled");
    }
    assert!(!writable(fd, 0), "a socket that refused polls writable");
    let deadline = Instant::now() + ARRIVAL;
    loop {
        while let Ok(Some(_)) = b.try_recv() {}
        if writable(fd, 10) {
            break;
        }
        assert!(Instant::now() < deadline, "never writable after the drain");
    }
    assert!(a.try_send_batch(&batch).expect("send") > 0);
}

/// A frame handed back with `recycle` is the interface's to reuse: a later
/// frame may arrive in its buffer, but every frame arrives whole — its
/// length and every byte its own, none of a frame before it — and a frame
/// the receiver keeps is never written over. Bursts of a 1-byte, a 4 KiB
/// and a largest frame, half of what arrives handed back.
#[test]
fn a_recycled_frame_never_reappears_in_a_later_one() {
    each_interface(|p| {
        let lens = [1, 4096, p.a.caps().max_frame];
        let mut kept = Vec::new();
        for round in 0..3 {
            let burst: Arc<Vec<Vec<u8>>> = Arc::new(
                lens.iter()
                    .enumerate()
                    .map(|(i, &len)| {
                        (0..len)
                            .map(|j| (round * 7 + i * 3 + j % 251) as u8)
                            .collect()
                    })
                    .collect(),
            );
            // From a thread of its own: a largest frame fills a socket.
            let sender = {
                let (a, burst) = (Arc::clone(&p.a), Arc::clone(&burst));
                std::thread::spawn(move || {
                    let refs: Vec<&[u8]> = burst.iter().map(Vec::as_slice).collect();
                    let mut sent = 0;
                    while sent < refs.len() {
                        sent += a.send_batch(&refs[sent..]).expect("send");
                    }
                })
            };
            for (i, want) in burst.iter().enumerate() {
                let got = p.next().unwrap();
                assert_eq!(got.len(), want.len(), "{}: frame {round}.{i}", p.name);
                assert!(got == *want, "{}: frame {round}.{i} differs", p.name);
                match (round * lens.len() + i) % 2 {
                    0 => p.b.recycle(got),
                    _ => kept.push((got, Arc::clone(&burst), i)),
                }
            }
            sender.join().unwrap();
        }
        for (got, burst, i) in kept {
            assert!(got == burst[i], "{}: a kept frame was written over", p.name);
        }
    });
}
