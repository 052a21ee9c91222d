//! What a lying frame costs `ncsd` in memory. ONE test on purpose: it
//! counts every allocation of the *process* through its own
//! `#[global_allocator]`.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

use ncs_runtime::RvMsg;

static BYTES: AtomicU64 = AtomicU64::new(0);

struct Counting;

// SAFETY: every method forwards to `System` with the caller's arguments
// unchanged; the counter touches no allocator state.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        BYTES.fetch_add(layout.size() as u64, Ordering::Relaxed);
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        BYTES.fetch_add(layout.size() as u64, Ordering::Relaxed);
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        BYTES.fetch_add(new_size as u64, Ordering::Relaxed);
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static ALLOCATOR: Counting = Counting;

#[test]
fn a_frame_that_declares_a_million_members_allocates_for_none() {
    let count = (1u32 << 20).to_be_bytes();
    // Roster (tag 2): world, member count — and no members. 9 bytes.
    let roster = [&[2][..], &2u32.to_be_bytes(), &count].concat();
    // View (tag 9): id, world, member count — and no members. 17 bytes.
    let view = [&[9][..], &1u64.to_be_bytes(), &2u32.to_be_bytes(), &count].concat();
    assert_eq!((roster.len(), view.len()), (9, 17));

    let before = BYTES.load(Ordering::Relaxed);
    let verdicts = [RvMsg::decode(&roster), RvMsg::decode(&view)];
    let spent = BYTES.load(Ordering::Relaxed) - before;

    assert!(verdicts.iter().all(Result::is_err), "{verdicts:?}");
    assert!(
        spent < 4096,
        "decoding two truncated frames allocated {spent} bytes"
    );
}
