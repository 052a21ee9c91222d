//! The collective machine: schedules as data, and the one interpreter
//! that runs them.
//!
//! "Who sends what to whom, in which order" is decided in exactly one
//! place, [`plan`]: a rank's share of a collective is a straight-line list
//! of [`Step`]s over one working buffer. [`Machine`] — one per rank per
//! group — interprets plans and is sans-I/O: it never touches a connection,
//! a clock, a thread or a lock. Frames, submissions and link failures come
//! in as arguments, every method that depends on time takes `now`, and
//! frames to transmit, finished operations and delivered multicasts go out
//! through the `emit` callback as [`Output`] values.
//!
//! Three shells drive it: [`CollectiveGroup`](crate::CollectiveGroup),
//! which steps it on whichever thread brings it an event, the
//! discrete-event `SimWorld` of `ncs-runtime`, and (through the first)
//! [`NcsGroup`](crate::NcsGroup). Being free of I/O is what lets the tests
//! below hold a whole group of machines in one thread and deliver their
//! frames in seeded random orders.
//!
//! Operations execute strictly in submission order: only the head
//! operation advances, frames for later operations wait in the stash, and
//! whatever an operation that failed mid-plan left there is pruned when the
//! next one starts. Frames of the *unmatched* space (multicasts; see
//! [`Machine::multicast`]) are relayed and delivered as they arrive,
//! whatever the head operation is waiting for.

use std::collections::{BTreeMap, HashMap, VecDeque};
use std::ops::Range;
use std::time::Duration;

use ncs_core::SendError;

use crate::datatype::{fold_into, DType, ReduceOp};
use crate::frame::{decode_frame, Encoder, Seg, COLL_OVERHEAD, UNMATCHED};
use crate::handle::CollectiveError;
use crate::topology::{tree_children, tree_parent, tree_span, Topology};

/// How long an operation waits on a *live* peer before a dead link
/// elsewhere in the group fails it. A member that *finished* the world's
/// final collective and shut down cleanly has already delivered every
/// frame it owed, and the survivors' remaining exchanges (with each other)
/// complete at network speed — failing those at once on the departed
/// member's closed link would turn every graceful teardown into a race.
/// Well below any realistic operation timeout, well above the in-flight
/// delivery window of a cleanly departing member.
pub const LINK_DOWN_FALLBACK_GRACE: Duration = Duration::from_secs(2);

/// A collective operation, with what its plan needs beyond the topology.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Op {
    /// One-to-all; `len` is the byte length every member expects (the
    /// in-out buffer contract that lets all select the same topology).
    Broadcast {
        /// Expected payload length in bytes.
        len: usize,
    },
    /// All-to-one elementwise combine.
    Reduce(DType, ReduceOp),
    /// Reduce to the root on stream 0, then broadcast on stream 1.
    Allreduce(DType, ReduceOp),
    /// One-to-all personalised chunks.
    Scatter,
    /// All-to-one personalised chunks.
    Gather,
    /// All-to-all replication: a ring of `size − 1` rounds under
    /// [`Topology::Ring`], otherwise gather then broadcast.
    Allgather,
    /// Dissemination barrier, `⌈log₂ size⌉` rounds, no root.
    Barrier,
}

/// One submitted operation: what to run, rooted where, over which shapes
/// (`topo2` shapes the broadcast half of allreduce and tree allgather).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Spec {
    /// The operation.
    pub op: Op,
    /// Root rank (0 for the rootless operations).
    pub root: usize,
    /// Topology of the first (or only) phase.
    pub topo: Topology,
    /// Topology of the second phase.
    pub topo2: Topology,
}

/// Chunks `lo..hi` of the working buffer cut into `of` equal chunks.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Chunks {
    /// First chunk.
    pub lo: usize,
    /// One past the last chunk.
    pub hi: usize,
    /// How many chunks the buffer divides into.
    pub of: usize,
}

impl Chunks {
    /// The whole buffer.
    pub const ALL: Chunks = Chunks::new(0, 1, 1);
    /// No bytes at all (a barrier token's payload).
    pub const NONE: Chunks = Chunks::new(0, 0, 1);

    const fn new(lo: usize, hi: usize, of: usize) -> Self {
        Chunks { lo, hi, of }
    }

    /// The byte range in a buffer of `len` bytes.
    fn of_len(self, len: usize) -> Result<Range<usize>, CollectiveError> {
        if !len.is_multiple_of(self.of) {
            return Err(CollectiveError::Protocol(format!(
                "buffer of {len} bytes does not divide across {} members",
                self.of
            )));
        }
        let chunk = len / self.of;
        Ok(self.lo * chunk..self.hi * chunk)
    }
}

/// What a completed receive does with the payload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Then {
    /// It becomes the working buffer.
    Take,
    /// It is folded elementwise into the working buffer.
    Fold(DType, ReduceOp),
    /// It is copied over these chunks of the working buffer, which it must
    /// fill exactly.
    Place(Chunks),
}

/// One step of a rank's plan. Steps run in order; only the receiving ones
/// can wait.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Step {
    /// Segment `part` of the working buffer, encode each segment once and
    /// send the same frames to every rank in `to`.
    Send {
        /// Receiving ranks.
        to: Vec<usize>,
        /// Segment stream within the operation.
        stream: u32,
        /// Which bytes.
        part: Chunks,
    },
    /// Receive a whole segmented transfer.
    Recv {
        /// Sending rank.
        from: usize,
        /// Segment stream within the operation.
        stream: u32,
        /// What happens to the payload.
        then: Then,
    },
    /// Receive segment by segment, forwarding each received frame's bytes
    /// verbatim to every rank in `to` before appending its payload; the
    /// whole payload becomes the working buffer.
    Relay {
        /// Sending rank.
        from: usize,
        /// Segment stream within the operation.
        stream: u32,
        /// Ranks to forward to (none at a leaf).
        to: Vec<usize>,
    },
    /// The working buffer — one chunk — becomes chunk `at` of `of`
    /// zero-filled ones.
    Grow {
        /// Chunks afterwards.
        of: usize,
        /// Where the present contents land.
        at: usize,
    },
    /// Rotate the buffer's `of` chunks left by `left` (between rank-major
    /// order and the order relabelled around a root).
    Rotate {
        /// Chunks to rotate by.
        left: usize,
        /// How many chunks the buffer divides into.
        of: usize,
    },
    /// Keep only these chunks.
    Keep(Chunks),
}

/// A rank's place in a rooted shape, in absolute ranks.
struct Rooted {
    parent: Option<usize>,
    /// `(rank, first chunk of its subtree within mine, subtree size)`.
    children: Vec<(usize, usize, usize)>,
    /// Size of my subtree: subtrees are contiguous relabelled ranges, so a
    /// scatter or gather ships one contiguous byte range per edge.
    span: usize,
}

impl Rooted {
    fn new(topo: Topology, me: usize, size: usize, root: usize) -> Self {
        let rel = (me + size - root) % size;
        let (parent, children, span) = match topo {
            Topology::Flat if rel == 0 => (None, (1..size).map(|x| (x, 1)).collect(), size),
            Topology::Flat => (Some(0), Vec::new(), 1),
            Topology::BinomialTree => (
                tree_parent(rel, size),
                tree_children(rel, size),
                tree_span(rel, size),
            ),
            Topology::Ring => {
                let rest = size - rel - 1;
                let next = (rest > 0).then_some((rel + 1, rest));
                (rel.checked_sub(1), next.into_iter().collect(), rest + 1)
            }
        };
        let abs = |x: usize| (x + root) % size;
        Rooted {
            parent: parent.map(abs),
            children: children
                .into_iter()
                .map(|(c, span)| (abs(c), c - rel, span))
                .collect(),
            span,
        }
    }

    /// Like [`Rooted::new`] for the schedules a chain has no pipeline to
    /// offer: ring requests run the tree.
    fn tree(topo: Topology, me: usize, size: usize, root: usize) -> Self {
        let topo = match topo {
            Topology::Ring => Topology::BinomialTree,
            other => other,
        };
        Self::new(topo, me, size, root)
    }

    fn broadcast(&self, steps: &mut Vec<Step>, stream: u32) {
        let to = self.children.iter().map(|c| c.0).collect();
        steps.push(match self.parent {
            None => Step::Send {
                to,
                stream,
                part: Chunks::ALL,
            },
            Some(from) => Step::Relay { from, stream, to },
        });
    }

    /// Hands the working buffer to the parent and keeps nothing; `false`
    /// at the root.
    fn upward(&self, steps: &mut Vec<Step>, stream: u32) -> bool {
        let Some(parent) = self.parent else {
            return false;
        };
        steps.push(Step::Send {
            to: vec![parent],
            stream,
            part: Chunks::ALL,
        });
        steps.push(Step::Keep(Chunks::NONE));
        true
    }

    fn reduce(&self, steps: &mut Vec<Step>, stream: u32, dtype: DType, op: ReduceOp) {
        steps.extend(self.children.iter().map(|&(from, ..)| Step::Recv {
            from,
            stream,
            then: Then::Fold(dtype, op),
        }));
        self.upward(steps, stream);
    }

    fn chunks_of(&self, &(_, at, span): &(usize, usize, usize)) -> Chunks {
        Chunks::new(at, at + span, self.span)
    }

    fn scatter(&self, steps: &mut Vec<Step>, stream: u32, size: usize, root: usize) {
        match self.parent {
            // Rank-major to relabelled order, so every subtree is one
            // contiguous byte range.
            None if root != 0 => steps.push(Step::Rotate {
                left: root,
                of: size,
            }),
            None => {}
            Some(from) => steps.push(Step::Recv {
                from,
                stream,
                then: Then::Take,
            }),
        }
        steps.extend(self.children.iter().map(|c| Step::Send {
            to: vec![c.0],
            stream,
            part: self.chunks_of(c),
        }));
        steps.push(Step::Keep(Chunks::new(0, 1, self.span)));
    }

    fn gather(&self, steps: &mut Vec<Step>, stream: u32, size: usize, root: usize) {
        if self.span > 1 {
            steps.push(Step::Grow {
                of: self.span,
                at: 0,
            });
        }
        steps.extend(self.children.iter().map(|c| Step::Recv {
            from: c.0,
            stream,
            then: Then::Place(self.chunks_of(c)),
        }));
        if !self.upward(steps, stream) && root != 0 {
            // Back to rank-major order for the caller.
            steps.push(Step::Rotate {
                left: size - root,
                of: size,
            });
        }
    }
}

/// Rank `me`'s share of `op` in a group of `size` rooted at `root`: the
/// one place a collective's communication pattern is decided.
pub fn plan(
    op: Op,
    me: usize,
    size: usize,
    root: usize,
    topo: Topology,
    topo2: Topology,
) -> Vec<Step> {
    debug_assert!(me < size && root < size);
    let mut steps = Vec::new();
    let second = |steps: &mut Vec<Step>| Rooted::new(topo2, me, size, root).broadcast(steps, 1);
    match op {
        Op::Broadcast { .. } => Rooted::new(topo, me, size, root).broadcast(&mut steps, 0),
        Op::Reduce(dtype, rop) => {
            Rooted::tree(topo, me, size, root).reduce(&mut steps, 0, dtype, rop)
        }
        Op::Allreduce(dtype, rop) => {
            Rooted::tree(topo, me, size, root).reduce(&mut steps, 0, dtype, rop);
            second(&mut steps);
        }
        Op::Scatter => Rooted::tree(topo, me, size, root).scatter(&mut steps, 0, size, root),
        Op::Gather => Rooted::tree(topo, me, size, root).gather(&mut steps, 0, size, root),
        Op::Allgather if topo == Topology::Ring => {
            steps.push(Step::Grow { of: size, at: me });
            // Round r: pass along the block that originated r hops behind.
            let block = |hops: usize| {
                let b = (me + size - hops) % size;
                Chunks::new(b, b + 1, size)
            };
            for round in 0..size - 1 {
                steps.push(Step::Send {
                    to: vec![(me + 1) % size],
                    stream: round as u32,
                    part: block(round),
                });
                steps.push(Step::Recv {
                    from: (me + size - 1) % size,
                    stream: round as u32,
                    then: Then::Place(block(round + 1)),
                });
            }
        }
        Op::Allgather => {
            Rooted::tree(topo, me, size, root).gather(&mut steps, 0, size, root);
            second(&mut steps);
        }
        Op::Barrier => {
            // Every member leaves only after transitively hearing from
            // every other, with no root hotspot.
            let dists = std::iter::successors(Some(1), |d| Some(d * 2)).take_while(|&d| d < size);
            for (round, dist) in dists.enumerate() {
                steps.push(Step::Send {
                    to: vec![(me + dist) % size],
                    stream: round as u32,
                    part: Chunks::NONE,
                });
                steps.push(Step::Recv {
                    from: (me + size - dist) % size,
                    stream: round as u32,
                    then: Then::Take,
                });
            }
        }
    }
    steps
}

/// What the machine asks of its shell.
#[derive(Debug)]
pub enum Output<'a> {
    /// Transmit these frames to `to`, in order. The shell's verdict is the
    /// callback's return value.
    Send {
        /// Receiving rank.
        to: usize,
        /// Encoded frames (the same slices for every rank of a fan-out).
        frames: &'a [&'a [u8]],
    },
    /// Operation `coll` finished.
    Done {
        /// The id it was submitted under.
        coll: u32,
        /// Its result payload, or why it failed.
        result: Result<Vec<u8>, CollectiveError>,
    },
    /// A multicast from `origin` arrived whole.
    Delivered {
        /// Originating rank.
        origin: usize,
        /// Its payload.
        payload: Vec<u8>,
    },
}

/// The shell half of [`Machine::poll`]: performs one [`Output`]. Only a
/// [`Output::Send`] can fail.
pub type Emit<'e> = &'e mut dyn FnMut(Output<'_>) -> Result<(), SendError>;

/// Encodes `bytes` once and hands the same frames to every rank in `to`.
fn fan_out(
    enc: &Encoder,
    emit: Emit<'_>,
    to: &[usize],
    coll: u32,
    stream: u32,
    bytes: &[u8],
) -> Result<(), SendError> {
    if to.is_empty() {
        return Ok(());
    }
    let frames = enc.segments(coll, stream, bytes);
    let (one, many): ([&[u8]; 1], Vec<&[u8]>);
    let frames: &[&[u8]] = match &frames[..] {
        // The small-message path takes no list allocation.
        [frame] => {
            one = [frame.as_slice()];
            &one
        }
        frames => {
            many = frames.iter().map(|f| f.as_slice()).collect();
            &many
        }
    };
    to.iter()
        .try_for_each(|&to| emit(Output::Send { to, frames }))
}

/// Reassembly of one segmented transfer.
#[derive(Debug, Default)]
struct Transfer {
    next: u32,
    total: u32,
    acc: Vec<u8>,
}

impl Transfer {
    /// Whether `seg` is the segment this transfer is waiting for.
    fn check(&self, seg: &Seg) -> Result<(), CollectiveError> {
        if seg.seg == self.next && (self.next == 0 || seg.total == self.total) {
            return Ok(());
        }
        Err(CollectiveError::Protocol(format!(
            "segment {}/{} arrived where segment {} was expected",
            seg.seg, seg.total, self.next
        )))
    }

    /// Appends a checked segment; the whole payload once it was the last.
    fn push(&mut self, seg: Seg) -> Option<Vec<u8>> {
        if seg.total == 1 {
            // Hot path: hand the single segment's payload over without a
            // copy (the header is drained off the received frame).
            let mut raw = seg.raw;
            raw.drain(..COLL_OVERHEAD);
            return Some(raw);
        }
        self.acc.extend_from_slice(seg.payload());
        (self.total, self.next) = (seg.total, seg.seg + 1);
        (self.next == self.total).then(|| std::mem::take(self).acc)
    }
}

#[derive(Debug)]
struct Queued {
    coll: u32,
    spec: Spec,
    payload: Vec<u8>,
    timeout: Duration,
}

/// The operation at the head of the queue.
#[derive(Debug)]
struct Active {
    coll: u32,
    steps: Vec<Step>,
    pc: usize,
    buf: Vec<u8>,
    /// Length the result must have (the broadcast contract).
    expect: Option<usize>,
    deadline: Duration,
    /// Since when the current step has waited without a frame.
    blocked_since: Option<Duration>,
    rx: Transfer,
}

impl Active {
    /// Runs steps until one has to wait — `Ok(Some(peer))` — or the plan
    /// ends.
    fn run(
        &mut self,
        stash: &mut VecDeque<(usize, Seg)>,
        enc: &Encoder,
        emit: Emit<'_>,
    ) -> Result<Option<usize>, CollectiveError> {
        while let Some(step) = self.steps.get(self.pc) {
            match step {
                Step::Send { to, stream, part } => {
                    let bytes = &self.buf[part.of_len(self.buf.len())?];
                    fan_out(enc, emit, to, self.coll, *stream, bytes)?;
                }
                Step::Recv { .. } | Step::Relay { .. } => {
                    let (from, stream, to, then) = match step {
                        Step::Recv { from, stream, then } => (*from, *stream, &[][..], *then),
                        Step::Relay { from, stream, to } => (*from, *stream, &to[..], Then::Take),
                        _ => unreachable!("matched above"),
                    };
                    let payload = loop {
                        let wanted = |(f, s): &(usize, Seg)| {
                            (*f, s.coll, s.stream) == (from, self.coll, stream)
                        };
                        let Some(at) = stash.iter().position(wanted) else {
                            return Ok(Some(from));
                        };
                        let (_, seg) = stash.remove(at).expect("position is in range");
                        self.blocked_since = None;
                        self.rx.check(&seg)?;
                        for &to in to {
                            emit(Output::Send {
                                to,
                                frames: &[&seg.raw],
                            })?;
                        }
                        if let Some(payload) = self.rx.push(seg) {
                            break payload;
                        }
                    };
                    match then {
                        Then::Take => self.buf = payload,
                        Then::Fold(dtype, op) => fold_into(dtype, op, &mut self.buf, &payload)?,
                        Then::Place(chunks) => {
                            let range = chunks.of_len(self.buf.len())?;
                            if payload.len() != range.len() {
                                return Err(CollectiveError::Protocol(format!(
                                    "contribution of {} bytes where {} were expected \
                                     (every member must contribute equally)",
                                    payload.len(),
                                    range.len()
                                )));
                            }
                            self.buf[range].copy_from_slice(&payload);
                        }
                    }
                }
                Step::Grow { of, at } => {
                    let chunk = self.buf.len();
                    let mut grown = vec![0; of * chunk];
                    grown[at * chunk..][..chunk].copy_from_slice(&self.buf);
                    self.buf = grown;
                }
                Step::Rotate { left, of } => {
                    let by = Chunks::new(0, *left, *of).of_len(self.buf.len())?.end;
                    self.buf.rotate_left(by);
                }
                Step::Keep(chunks) => {
                    let range = chunks.of_len(self.buf.len())?;
                    self.buf.truncate(range.end);
                    self.buf.drain(..range.start);
                }
            }
            self.pc += 1;
        }
        Ok(None)
    }
}

/// One rank's collective state for one group. See the module docs.
#[derive(Debug)]
pub struct Machine {
    enc: Encoder,
    me: usize,
    size: usize,
    queue: VecDeque<Queued>,
    head: Option<Active>,
    /// Early frames of the matched space, in arrival order (so per
    /// `(from, coll, stream)` in link order).
    stash: VecDeque<(usize, Seg)>,
    /// Unmatched frames not yet relayed.
    unmatched: VecDeque<(usize, Seg)>,
    /// Multicasts in reassembly, by origin.
    relays: HashMap<usize, Transfer>,
    /// Links known dead. A collective spans every member, so one dead
    /// link dooms every operation that needs it.
    down: BTreeMap<usize, SendError>,
}

/// Whether operation id `a` was issued before id `b`. Ids count up and
/// wrap at [`UNMATCHED`] (2³¹), so they compare as serial numbers: `a` is
/// before `b` when it is less than half the id space behind it. (Plain
/// `<` would, at the wrap, call an early frame of operation 0 older than
/// operation 2³¹ − 1 and drop it, and keep every stale frame from before
/// the wrap for ever after.)
fn coll_before(a: u32, b: u32) -> bool {
    a != b && b.wrapping_sub(a) % UNMATCHED < UNMATCHED / 2
}

/// The wire code of a multicast's topology (low bits of its `coll`).
fn topology_code(topo: Topology) -> u32 {
    match topo {
        Topology::Flat => 0,
        Topology::BinomialTree => 1,
        Topology::Ring => 2,
    }
}

fn topology_of(coll: u32) -> Option<Topology> {
    [Topology::Flat, Topology::BinomialTree, Topology::Ring]
        .into_iter()
        .find(|&t| UNMATCHED | topology_code(t) == coll)
}

impl Machine {
    /// The machine of rank `me` in a group of `size`, writing frames with
    /// `enc`.
    pub fn new(enc: Encoder, me: usize, size: usize) -> Self {
        debug_assert!(me < size);
        Machine {
            enc,
            me,
            size,
            queue: VecDeque::new(),
            head: None,
            stash: VecDeque::new(),
            unmatched: VecDeque::new(),
            relays: HashMap::new(),
            down: BTreeMap::new(),
        }
    }

    /// Queues an operation under id `coll` (ids increase with submission
    /// order, identically on every member, stay below the unmatched space
    /// and wrap to 0 at its edge). Its `timeout` starts when it reaches the
    /// head of the queue.
    pub fn submit(&mut self, coll: u32, spec: Spec, payload: Vec<u8>, timeout: Duration) {
        debug_assert!(coll < UNMATCHED && spec.root < self.size);
        self.queue.push_back(Queued {
            coll,
            spec,
            payload,
            timeout,
        });
    }

    /// Takes one frame received from rank `from`. Returns the payload
    /// length of a well-formed frame of this group, `None` for anything
    /// else (dropped).
    pub fn on_frame(&mut self, from: usize, bytes: Vec<u8>) -> Option<usize> {
        let seg = decode_frame(bytes, self.enc.group())?;
        let len = seg.payload().len();
        if from < self.size && from != self.me {
            let space = match seg.coll >= UNMATCHED {
                true => &mut self.unmatched,
                false => &mut self.stash,
            };
            space.push_back((from, seg));
        }
        Some(len)
    }

    /// Records that the link to `peer` died with `error`.
    pub fn on_link_down(&mut self, peer: usize, error: SendError) {
        self.down.entry(peer).or_insert(error);
    }

    /// Multicasts `payload` from this rank over `topo`, outside the
    /// operation sequence: an *unmatched* broadcast rooted here. No member
    /// posts a matching call — the first frame instantiates the relay plan
    /// on each receiver, which hands the payload out as
    /// [`Output::Delivered`].
    ///
    /// # Errors
    ///
    /// The first send the shell refused.
    pub fn multicast(
        &mut self,
        payload: &[u8],
        topo: Topology,
        emit: Emit<'_>,
    ) -> Result<(), SendError> {
        let coll = UNMATCHED | topology_code(topo);
        match &self.multicast_plan(self.me, topo)[..] {
            [Step::Send { to, .. }] => fan_out(&self.enc, emit, to, coll, self.me as u32, payload),
            other => unreachable!("a broadcast root's plan is one send, not {other:?}"),
        }
    }

    /// This rank's share of a multicast from `origin`: the broadcast plan,
    /// which is a single step.
    fn multicast_plan(&self, origin: usize, topo: Topology) -> Vec<Step> {
        plan(
            Op::Broadcast { len: 0 },
            self.me,
            self.size,
            origin,
            topo,
            topo,
        )
    }

    /// Relays and delivers the unmatched frames that arrived. A frame the
    /// origin's plan does not put on this edge is dropped, as is a
    /// transfer whose segments arrive out of sequence. A forward the shell
    /// refuses marks that link down — nobody else would ever learn that
    /// the subtree behind it went unserved.
    fn relay_unmatched(&mut self, emit: Emit<'_>) {
        while let Some((from, seg)) = self.unmatched.pop_front() {
            let origin = seg.stream as usize;
            let Some(topo) = topology_of(seg.coll) else {
                continue;
            };
            if origin >= self.size || origin == self.me {
                continue;
            }
            let steps = self.multicast_plan(origin, topo);
            let [Step::Relay {
                from: parent, to, ..
            }] = &steps[..]
            else {
                continue;
            };
            let mut rx = self.relays.remove(&origin).unwrap_or_default();
            if *parent != from || rx.check(&seg).is_err() {
                continue;
            }
            for &to in to {
                let frames = &[&seg.raw[..]];
                if let Err(e) = emit(Output::Send { to, frames }) {
                    self.down.entry(to).or_insert(e);
                }
            }
            match rx.push(seg) {
                Some(payload) => drop(emit(Output::Delivered { origin, payload })),
                None => drop(self.relays.insert(origin, rx)),
            }
        }
    }

    /// Advances as far as the frames received so far allow, at time `now`.
    pub fn poll(&mut self, now: Duration, emit: Emit<'_>) {
        self.relay_unmatched(emit);
        loop {
            if self.head.is_none() {
                let Some(q) = self.queue.pop_front() else {
                    return;
                };
                // Frames no operation can consume any more.
                self.stash.retain(|(_, seg)| !coll_before(seg.coll, q.coll));
                let Spec {
                    op,
                    root,
                    topo,
                    topo2,
                } = q.spec;
                self.head = Some(Active {
                    coll: q.coll,
                    steps: plan(op, self.me, self.size, root, topo, topo2),
                    pc: 0,
                    expect: match op {
                        Op::Broadcast { len } => Some(len),
                        Op::Allreduce(..) => Some(q.payload.len()),
                        Op::Allgather => Some(q.payload.len() * self.size),
                        _ => None,
                    },
                    buf: q.payload,
                    deadline: now + q.timeout,
                    blocked_since: None,
                    rx: Transfer::default(),
                });
            }
            let head = self.head.as_mut().expect("set above");
            let result = match head.run(&mut self.stash, &self.enc, emit) {
                Err(e) => Err(e),
                Ok(None) => match head.expect {
                    Some(n) if n != head.buf.len() => Err(CollectiveError::Protocol(format!(
                        "broadcast delivered {} bytes where this member expected {n} \
                         (every member must pass a same-length buffer)",
                        head.buf.len()
                    ))),
                    _ => Ok(std::mem::take(&mut head.buf)),
                },
                Ok(Some(peer)) => {
                    // Everything received so far is consumed; only now
                    // judge the link state and the clock, so a frame a
                    // now-dead peer delivered before dying is never
                    // masked by the failure of its link.
                    let since = *head.blocked_since.get_or_insert(now);
                    let dead = self.down.get(&peer).or_else(|| {
                        let waited = now.saturating_sub(since) >= LINK_DOWN_FALLBACK_GRACE;
                        self.down.values().next().filter(|_| waited)
                    });
                    match dead {
                        Some(e) => Err(CollectiveError::Send(e.clone())),
                        None if now >= head.deadline => Err(CollectiveError::Timeout),
                        None => return,
                    }
                }
            };
            let coll = self.head.take().expect("set above").coll;
            let _ = emit(Output::Done { coll, result });
        }
    }

    /// When [`Machine::poll`] next has something to say without a new
    /// frame: the head operation's deadline, or the end of its grace if a
    /// link is down.
    pub fn next_deadline(&self) -> Option<Duration> {
        let head = self.head.as_ref()?;
        let grace = head
            .blocked_since
            .filter(|_| !self.down.is_empty())
            .map(|since| since + LINK_DOWN_FALLBACK_GRACE);
        Some(grace.map_or(head.deadline, |g| g.min(head.deadline)))
    }

    /// Fails the head operation and every queued one with `error`.
    pub fn abort(&mut self, error: &CollectiveError, emit: Emit<'_>) {
        let head = self.head.take().map(|a| a.coll);
        for coll in head.into_iter().chain(self.queue.drain(..).map(|q| q.coll)) {
            let result = Err(error.clone());
            let _ = emit(Output::Done { coll, result });
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ncs_core::BufPool;

    const SEG: usize = 4;
    const TOPOLOGIES: [Topology; 3] = [Topology::Flat, Topology::BinomialTree, Topology::Ring];
    type Verdict = Result<Vec<u8>, CollectiveError>;

    fn splitmix(state: &mut u64) -> u64 {
        *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = *state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// A whole group in one thread: `size` machines and, between them, the
    /// wire.
    struct Net {
        machines: Vec<Machine>,
        wire: Wire,
    }

    /// Frames in flight, FIFO per directed link, and what the machines
    /// reported.
    #[derive(Default)]
    struct Wire {
        links: BTreeMap<(usize, usize), VecDeque<Vec<u8>>>,
        sent: usize,
        received: usize,
        done: Vec<Vec<(u32, Verdict)>>,
        delivered: Vec<Vec<(usize, Vec<u8>)>>,
    }

    impl Wire {
        /// Performs rank `from`'s output.
        fn perform(&mut self, from: usize, out: Output<'_>) -> Result<(), SendError> {
            match out {
                Output::Send { to, frames } => {
                    self.sent += frames.len();
                    let link = self.links.entry((from, to)).or_default();
                    link.extend(frames.iter().map(|f| f.to_vec()));
                }
                Output::Done { coll, result } => self.done[from].push((coll, result)),
                Output::Delivered { origin, payload } => {
                    self.delivered[from].push((origin, payload));
                }
            }
            Ok(())
        }
    }

    impl Net {
        fn new(size: usize) -> Self {
            let enc = Encoder::new(BufPool::new(), 5, SEG);
            Net {
                machines: (0..size)
                    .map(|r| Machine::new(enc.clone(), r, size))
                    .collect(),
                wire: Wire {
                    done: vec![Vec::new(); size],
                    delivered: vec![Vec::new(); size],
                    ..Wire::default()
                },
            }
        }

        fn poll(&mut self, rank: usize) {
            self.machines[rank].poll(Duration::ZERO, &mut |out| self.wire.perform(rank, out));
        }

        /// Delivers until nothing is in flight, each time from a link the
        /// seeded generator picks.
        fn run(&mut self, mut rng: u64) {
            (0..self.machines.len()).for_each(|r| self.poll(r));
            loop {
                let links = self.wire.links.iter();
                let busy: Vec<(usize, usize)> = links
                    .filter(|(_, q)| !q.is_empty())
                    .map(|(&k, _)| k)
                    .collect();
                if busy.is_empty() {
                    return;
                }
                let (from, to) = busy[splitmix(&mut rng) as usize % busy.len()];
                let link = self.wire.links.get_mut(&(from, to)).expect("listed");
                let frame = link.pop_front().expect("listed as busy");
                self.wire.received += self.machines[to].on_frame(from, frame).map_or(0, |_| 1);
                self.poll(to);
            }
        }
    }

    /// Rank `r`'s `len`-byte contribution.
    fn bytes_of(r: usize, len: usize) -> Vec<u8> {
        (0..len).map(|i| (r * 31 + i * 7 + 1) as u8).collect()
    }

    /// Every rank's payload and closed-form result for `op` rooted at
    /// `root`, on `len`-byte contributions.
    fn case(op: Op, size: usize, root: usize, len: usize) -> Vec<(Vec<u8>, Vec<u8>)> {
        let all: Vec<u8> = (0..size).flat_map(|r| bytes_of(r, len)).collect();
        let sum: Vec<u8> = (0..len)
            .map(|i| (0..size).fold(0u8, |acc, r| acc.wrapping_add(bytes_of(r, len)[i])))
            .collect();
        let at_root = |r: usize, v: &[u8]| if r == root { v.to_vec() } else { Vec::new() };
        (0..size)
            .map(|r| match op {
                Op::Broadcast { .. } => (at_root(r, &bytes_of(root, len)), bytes_of(root, len)),
                Op::Reduce(..) => (bytes_of(r, len), at_root(r, &sum)),
                Op::Allreduce(..) => (bytes_of(r, len), sum.clone()),
                Op::Scatter => (at_root(r, &all), bytes_of(r, len)),
                Op::Gather => (bytes_of(r, len), at_root(r, &all)),
                Op::Allgather => (bytes_of(r, len), all.clone()),
                Op::Barrier => (Vec::new(), Vec::new()),
            })
            .collect()
    }

    #[test]
    fn every_operation_shape_size_root_and_length_completes_under_random_delivery() {
        let mut seed = 0x5EED;
        for size in 1..=9 {
            for len in [0, SEG, 3 * SEG] {
                let ops = [
                    Op::Broadcast { len },
                    Op::Reduce(DType::U8, ReduceOp::Sum),
                    Op::Allreduce(DType::U8, ReduceOp::Sum),
                    Op::Scatter,
                    Op::Gather,
                    Op::Allgather,
                    Op::Barrier,
                ];
                for (op, topo, root) in ops
                    .into_iter()
                    .flat_map(|op| TOPOLOGIES.map(|t| (op, t)))
                    .flat_map(|(op, t)| (0..size).map(move |root| (op, t, root)))
                {
                    seed += 1;
                    let what =
                        format!("{op:?} {topo:?} size {size} root {root} len {len} seed {seed}");
                    let mut net = Net::new(size);
                    let spec = Spec {
                        op,
                        root,
                        topo,
                        topo2: topo,
                    };
                    let expected = case(op, size, root, len);
                    for (m, (payload, _)) in net.machines.iter_mut().zip(&expected) {
                        m.submit(3, spec, payload.clone(), Duration::from_secs(1));
                    }
                    net.run(seed);
                    for (r, (_, want)) in expected.iter().enumerate() {
                        assert_eq!(
                            net.wire.done[r],
                            [(3, Ok(want.clone()))],
                            "rank {r}: {what}"
                        );
                    }
                    assert_eq!(net.wire.sent, net.wire.received, "{what}");
                    for m in &net.machines {
                        assert!(m.stash.is_empty() && m.next_deadline().is_none(), "{what}");
                    }
                }
            }
        }
    }

    /// Operation ids wrap at the edge of the unmatched space. Two bare
    /// machines run four operations across the wrap, each one rank 1 can
    /// finish alone (a reduction to rank 0, a broadcast from rank 1): its
    /// frames for all four are delivered before rank 0 starts its first,
    /// so rank 0 holds early frames of ids 0 and 1 while its head is
    /// 2³¹ − 2 — which it must keep — and a stale frame from before the
    /// wrap — which it must still drop after it.
    #[test]
    fn operation_ids_wrap_without_dropping_early_frames_or_keeping_stale_ones() {
        let ids = [UNMATCHED - 2, UNMATCHED - 1, 0, 1];
        let reduce = Op::Reduce(DType::U8, ReduceOp::Sum);
        let ops = [reduce, Op::Broadcast { len: 2 * SEG }, reduce, reduce];
        let submit = |m: &mut Machine, rank: usize| {
            for (coll, op) in ids.into_iter().zip(ops) {
                let (root, payload) = match op {
                    Op::Broadcast { .. } => (1, vec![7; 2 * SEG * rank]),
                    _ => (0, vec![rank as u8 + 1; 2 * SEG]),
                };
                let spec = Spec {
                    op,
                    root,
                    topo: Topology::Flat,
                    topo2: Topology::Flat,
                };
                m.submit(coll, spec, payload, Duration::from_secs(1));
            }
        };
        let mut net = Net::new(2);
        // A frame nobody will ever consume, from before the wrap.
        let stale = net.machines[1].enc.segments(UNMATCHED - 3, 9, &[1; SEG]);
        net.machines[0].on_frame(1, stale[0].to_vec());
        submit(&mut net.machines[1], 1);
        net.poll(1);
        assert_eq!(net.wire.done[1].len(), 4, "rank 1 needs nobody");
        while let Some(frame) = net
            .wire
            .links
            .get_mut(&(1, 0))
            .and_then(VecDeque::pop_front)
        {
            net.machines[0].on_frame(1, frame);
        }
        submit(&mut net.machines[0], 0);
        net.poll(0);
        let sum = || Ok(vec![3; 2 * SEG]);
        let want = [sum(), Ok(vec![7; 2 * SEG]), sum(), sum()];
        let want: Vec<(u32, Verdict)> = ids.into_iter().zip(want).collect();
        assert_eq!(net.wire.done[0], want);
        assert!(net.machines[0].stash.is_empty(), "the stale frame was kept");
        // The order itself, at and away from the wrap.
        for (a, b) in [(UNMATCHED - 1, 0), (UNMATCHED - 3, 1), (0, 1), (5, 1 << 29)] {
            assert!(coll_before(a, b) && !coll_before(b, a), "{a} {b}");
        }
        assert!(!coll_before(4, 4));
    }

    #[test]
    fn pipelined_operations_run_in_order_and_multicasts_cut_through() {
        let size = 5;
        for seed in 0..50 {
            let mut net = Net::new(size);
            for (r, m) in net.machines.iter_mut().enumerate() {
                for coll in 0..4u32 {
                    let spec = Spec {
                        op: Op::Allreduce(DType::U8, ReduceOp::Sum),
                        root: 0,
                        topo: TOPOLOGIES[coll as usize % 3],
                        topo2: Topology::BinomialTree,
                    };
                    let payload = vec![r as u8 + coll as u8; 6];
                    m.submit(coll, spec, payload, Duration::from_secs(1));
                }
            }
            // Rank 2 multicasts before anyone polled: unmatched frames
            // overtake the whole operation queue.
            let emit: Emit<'_> = &mut |out| net.wire.perform(2, out);
            let sent = net.machines[2].multicast(b"ten bytes!", Topology::BinomialTree, emit);
            assert_eq!(sent, Ok(()));
            net.run(seed);
            let sums: Vec<(u32, Verdict)> = (0..4)
                .map(|c| (c, Ok(vec![(0..size as u8).map(|r| r + c as u8).sum(); 6])))
                .collect();
            for r in 0..size {
                assert_eq!(net.wire.done[r], sums, "rank {r} seed {seed}");
                let heard = (r != 2).then(|| (2, b"ten bytes!".to_vec()));
                assert_eq!(
                    net.wire.delivered[r],
                    Vec::from_iter(heard),
                    "rank {r} seed {seed}"
                );
                assert!(net.machines[r].relays.is_empty());
            }
        }
    }

    /// Bytes the machine holds on behalf of its peers.
    fn retained(m: &Machine) -> usize {
        let queued = m.stash.iter().chain(&m.unmatched);
        let queued = queued.map(|(_, s)| s.raw.len());
        let relays = m.relays.values().map(|t| t.acc.len());
        let head = m.head.as_ref().map_or(0, |a| a.rx.acc.len());
        queued.chain(relays).sum::<usize>() + head
    }

    /// Rank 1 of 4 waiting for a three-segment tree broadcast from rank 0,
    /// with ten seconds to go.
    fn victim() -> (Machine, Encoder) {
        let enc = Encoder::new(BufPool::new(), 5, SEG);
        let mut m = Machine::new(enc.clone(), 1, 4);
        let spec = Spec {
            op: Op::Broadcast { len: 3 * SEG },
            root: 0,
            topo: Topology::BinomialTree,
            topo2: Topology::BinomialTree,
        };
        m.submit(0, spec, Vec::new(), Duration::from_secs(10));
        assert!(verdicts(&mut m, Duration::ZERO).is_empty());
        (m, enc)
    }

    fn verdicts(m: &mut Machine, now: Duration) -> Vec<Verdict> {
        let mut out = Vec::new();
        m.poll(now, &mut |o| {
            if let Output::Done { result, .. } = o {
                out.push(result);
            }
            Ok(())
        });
        out
    }

    #[test]
    fn hostile_bytes_never_panic_and_never_cost_more_than_they_weigh() {
        let mut rng = 0xBAD5EED;
        let good = Encoder::new(BufPool::new(), 5, SEG).segments(0, 0, &[7; 3 * SEG]);
        let (mut accepted, mut refused) = (0, 0);
        for round in 0..2000 {
            let (mut m, _) = victim();
            let mut fed = 0;
            for _ in 0..1 + splitmix(&mut rng) % 8 {
                let mut frame = match splitmix(&mut rng) % 3 {
                    // Arbitrary bytes, half the time behind the right tag.
                    0 => {
                        let len = splitmix(&mut rng) as usize % 64;
                        let mut f: Vec<u8> = (0..len).map(|_| splitmix(&mut rng) as u8).collect();
                        if let (Some(b), true) = (f.first_mut(), splitmix(&mut rng) & 1 == 0) {
                            *b = crate::frame::TAG_COLL;
                        }
                        f
                    }
                    _ => good[splitmix(&mut rng) as usize % good.len()].to_vec(),
                };
                // Truncate, flip a bit, or push a field into the unmatched
                // space.
                for _ in 0..splitmix(&mut rng) % 3 {
                    if !frame.is_empty() {
                        let at = splitmix(&mut rng) as usize % frame.len();
                        match splitmix(&mut rng) % 3 {
                            0 => frame.truncate(at),
                            1 => frame[at] ^= 1 << (splitmix(&mut rng) % 8),
                            _ => frame[at] = 0x80,
                        }
                    }
                }
                if let Some(seg) = decode_frame(frame.clone(), 5) {
                    assert!(seg.seg < seg.total && seg.raw.len() >= COLL_OVERHEAD);
                }
                fed += frame.len();
                let from = splitmix(&mut rng) as usize % 6;
                accepted += m.on_frame(from, frame).map_or(0, |_| 1);
                for verdict in verdicts(&mut m, Duration::ZERO) {
                    assert!(
                        matches!(verdict, Ok(_) | Err(CollectiveError::Protocol(_))),
                        "round {round}: {verdict:?}"
                    );
                    refused += usize::from(verdict.is_err());
                }
                let held = retained(&m);
                assert!(
                    held <= fed,
                    "round {round}: holds {held} of {fed} bytes fed"
                );
            }
        }
        assert!(accepted > 1000 && refused > 100, "{accepted} {refused}");
    }

    #[test]
    fn named_hostile_cases_are_typed_errors_or_silent_drops() {
        let protocol = |v: &[Verdict]| matches!(v, [Err(CollectiveError::Protocol(_))]);
        let frames = |enc: &Encoder, coll, stream, n: usize| -> Vec<Vec<u8>> {
            let segs = enc.segments(coll, stream, &vec![9; n * SEG]);
            segs.iter().map(|f| f.to_vec()).collect()
        };
        // `total` changing mid-transfer.
        let (mut m, enc) = victim();
        m.on_frame(0, frames(&enc, 0, 0, 3)[0].clone());
        m.on_frame(0, frames(&enc, 0, 0, 4)[1].clone());
        assert!(protocol(&verdicts(&mut m, Duration::ZERO)));
        // `seg` out of order.
        let (mut m, enc) = victim();
        m.on_frame(0, frames(&enc, 0, 0, 3)[1].clone());
        assert!(protocol(&verdicts(&mut m, Duration::ZERO)));
        // A frame from a rank the plan does not expect: ignored, and
        // pruned when the next operation starts.
        let (mut m, enc) = victim();
        m.on_frame(2, frames(&enc, 0, 0, 1)[0].clone());
        assert!(verdicts(&mut m, Duration::ZERO).is_empty());
        let late = Duration::from_secs(10);
        assert_eq!(verdicts(&mut m, late), [Err(CollectiveError::Timeout)]);
        let barrier = Spec {
            op: Op::Barrier,
            root: 0,
            topo: Topology::Flat,
            topo2: Topology::Flat,
        };
        m.submit(1, barrier, Vec::new(), Duration::from_secs(1));
        assert!(verdicts(&mut m, late).is_empty());
        assert_eq!(retained(&m), 0);
        // Unmatched space: an origin outside the group, an origin whose
        // tree does not put the sender above us, and an unknown topology
        // code are all dropped without a trace.
        let (mut m, enc) = victim();
        let tree = UNMATCHED | topology_code(Topology::BinomialTree);
        m.on_frame(0, frames(&enc, tree, 4, 1)[0].clone());
        m.on_frame(2, frames(&enc, tree, 0, 1)[0].clone());
        m.on_frame(0, frames(&enc, UNMATCHED | 3, 0, 1)[0].clone());
        let mut outputs = 0;
        m.poll(Duration::ZERO, &mut |_| {
            outputs += 1;
            Ok(())
        });
        assert_eq!((outputs, retained(&m)), (0, 0));
    }

    #[test]
    fn a_dead_link_fails_the_wait_on_it_at_once_and_others_after_the_grace() {
        let dead = [Err(CollectiveError::Send(SendError::Closed))];
        // The peer we wait on is the dead one.
        let (mut m, _) = victim();
        m.on_link_down(0, SendError::Closed);
        assert_eq!(verdicts(&mut m, Duration::ZERO), dead);
        // Another link died: the wait goes on for the grace, no longer.
        let (mut m, _) = victim();
        m.on_link_down(3, SendError::Closed);
        assert_eq!(m.next_deadline(), Some(LINK_DOWN_FALLBACK_GRACE));
        assert!(verdicts(&mut m, Duration::from_millis(1999)).is_empty());
        assert_eq!(verdicts(&mut m, LINK_DOWN_FALLBACK_GRACE), dead);
    }
}
