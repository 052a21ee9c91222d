//! What an allreduce costs in allocations, counted rather than timed: the
//! benchmark's `allreduce_4r_64` in small — four ranks on one reactor,
//! meshed over HPI with bypass connections as `LocalWorld` builds them, an
//! `iallreduce` of 64 `f64` submitted on every rank's group by one driver
//! thread and waited for on each, 200 operations after 50. Every
//! allocation of every thread counts, through this binary's counting
//! `#[global_allocator]`: the driver's own (its contributions and its
//! handle list) and the collectives'. Beside them it counts the nodes'
//! buffer-pool misses: each is an allocation of a full pooled buffer.
//!
//! ONE test on purpose: the count is the whole process's. Its threads
//! share one CPU under `SCHED_BATCH`, as the benchmark's do.

#![cfg(target_os = "linux")]

use std::alloc::{GlobalAlloc, Layout, System};
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

use ncs_collectives::{CollectiveGroup, ReduceOp};
use ncs_core::link::HpiLinkPair;
use ncs_core::{ConnectionConfig, NcsConnection, NcsNode, Reactor};
use ncs_threads::KernelPackage;

static ALLOCATIONS: AtomicU64 = AtomicU64::new(0);

struct Counting;

// SAFETY: every method forwards to `System` with the caller's arguments
// unchanged; the counter touches no allocator state.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static ALLOCATOR: Counting = Counting;

const RANKS: usize = 4;
const ELEMS: usize = 64;
const WARM_UP: u64 = 50;
const OPS: u64 = 200;
const WAIT: Duration = Duration::from_secs(10);

extern "C" {
    fn sched_getaffinity(pid: i32, size: usize, mask: *mut u64) -> i32;
    fn sched_setaffinity(pid: i32, size: usize, mask: *const u64) -> i32;
    fn sched_setscheduler(pid: i32, policy: i32, param: *const i32) -> i32;
}

/// `SCHED_BATCH` of `<sched.h>`: a thread it wakes does not pre-empt it.
const SCHED_BATCH: i32 = 3;

/// Pins the calling thread, and every thread it starts from now on, to
/// the last CPU it may run on, under `SCHED_BATCH`.
fn pin_to_one_cpu() {
    let mut mask = [0u64; 16];
    let size = std::mem::size_of_val(&mask);
    // SAFETY: `mask` is writable for `size` bytes, as the call is told.
    assert_eq!(unsafe { sched_getaffinity(0, size, mask.as_mut_ptr()) }, 0);
    let (word, bit) = (0..mask.len() * 64)
        .rev()
        .find(|cpu| mask[cpu / 64] & (1 << (cpu % 64)) != 0)
        .map(|cpu| (cpu / 64, cpu % 64))
        .expect("a CPU to run on");
    let mut one = [0u64; 16];
    one[word] = 1 << bit;
    // SAFETY: `one` is readable for `size` bytes, as the call is told.
    assert_eq!(unsafe { sched_setaffinity(0, size, one.as_ptr()) }, 0);
    // SAFETY: the priority is one valid `int` (0, as the policy needs).
    assert_eq!(unsafe { sched_setscheduler(0, SCHED_BATCH, &0) }, 0);
}

/// `RANKS` nodes on one reactor, every pair joined by an HPI link and one
/// bypass connection (the lower rank dials), and a collective group per
/// rank over them.
fn world() -> (Vec<NcsNode>, Vec<CollectiveGroup>) {
    let reactor = Reactor::with_default_shards(Arc::new(KernelPackage::new()));
    let name = |r: usize| format!("rank{r}");
    let nodes: Vec<NcsNode> = (0..RANKS)
        .map(|r| {
            NcsNode::builder(&name(r))
                .rank(r as u32)
                .reactor(Arc::clone(&reactor))
                .build()
        })
        .collect();
    let mut links: Vec<HashMap<usize, NcsConnection>> =
        (0..RANKS).map(|_| HashMap::new()).collect();
    for i in 0..RANKS {
        for j in i + 1..RANKS {
            let (li, lj) = HpiLinkPair::with_capacity(2048);
            nodes[i].attach_peer(&name(j), li);
            nodes[j].attach_peer(&name(i), lj);
            let up = nodes[i]
                .connect(&name(j), ConnectionConfig::unreliable())
                .expect("connect");
            let down = nodes[j].accept(WAIT).expect("accept");
            links[i].insert(j, up);
            links[j].insert(i, down);
        }
    }
    let groups = nodes
        .iter()
        .zip(links)
        .enumerate()
        .map(|(rank, (node, links))| CollectiveGroup::new(node, 1, rank, links).expect("group"))
        .collect();
    (nodes, groups)
}

/// One allreduce on every rank, driven as the benchmark drives it: rank
/// `r` contributes `(r + 1) × base`, and every rank's sum is checked.
fn allreduce(groups: &[CollectiveGroup], op: u64) {
    let base: Vec<f64> = (0..ELEMS)
        .map(|i| ((op as usize * 31 + i) % 1000) as f64)
        .collect();
    let handles: Vec<_> = groups
        .iter()
        .enumerate()
        .map(|(rank, group)| {
            let contrib = base.iter().map(|b| b * (rank + 1) as f64).collect();
            group
                .iallreduce(contrib, ReduceOp::Sum)
                .expect("iallreduce")
        })
        .collect();
    let scale = (RANKS * (RANKS + 1) / 2) as f64;
    for handle in handles {
        let sum: Vec<f64> = handle.wait_timeout(WAIT).expect("allreduce");
        assert!(sum.iter().zip(&base).all(|(s, b)| *s == b * scale));
    }
}

#[test]
fn an_allreduce_costs_no_more_allocations_than_its_ledger() {
    pin_to_one_cpu();
    let (nodes, groups) = world();
    (0..WARM_UP).for_each(|op| allreduce(&groups, op));
    let misses = || nodes.iter().map(|n| n.pool_stats().misses).sum::<u64>();
    let (before, missed) = (ALLOCATIONS.load(Ordering::Relaxed), misses());
    (WARM_UP..WARM_UP + OPS).for_each(|op| allreduce(&groups, op));
    let per_op = (ALLOCATIONS.load(Ordering::Relaxed) - before) as f64 / OPS as f64;
    let misses_per_op = (misses() - missed) as f64 / OPS as f64;
    println!(
        "allreduce of {ELEMS} f64 on {RANKS} ranks: {per_op} allocations, \
         {misses_per_op} pool misses per op"
    );
    drop(groups);
    for node in nodes {
        node.shutdown();
    }
    // Six frames an operation, over links that recycle their frames and
    // bodies; what is left is the collective machine's own (its plan,
    // its per-operation state and buffers) and the driver's base,
    // contributions and handle list, 6 of them. (Read: 49.0 in 5 runs;
    // 73.0 while every HPI frame was a new `Vec`.)
    assert!(per_op <= 49.0, "{per_op} allocations per allreduce");
    // A frame the link sink hands the machine is copied out of its pooled
    // buffer, which goes back to the pool. (Read: 6.0 while the sink took
    // the buffer itself, one per frame, and the pool replaced it.)
    assert_eq!(
        misses_per_op, 0.0,
        "{misses_per_op} pool misses per allreduce"
    );
}
