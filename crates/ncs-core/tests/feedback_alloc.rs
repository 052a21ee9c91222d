//! What the feedback path allocates: nothing, for a clean acknowledgement
//! of one SDU and for the bitmaps either side builds for a message of up to
//! 64. ONE test on purpose: it counts the allocations of its own thread
//! through the binary's `#[global_allocator]`.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use ncs_core::error_control::AckInfo;
use ncs_core::packet::CtrlMsg;
use ncs_core::seq::AckBitmap;

thread_local! {
    static ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
}

fn count() {
    // A const-initialised thread local without a destructor: reading it
    // allocates nothing itself.
    let _ = ALLOCATIONS.try_with(|n| n.set(n.get() + 1));
}

struct Counting;

// SAFETY: every method forwards to `System` with the caller's arguments
// unchanged; the counter touches no allocator state.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count();
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count();
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count();
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static ALLOCATOR: Counting = Counting;

/// `f`'s result, and how many allocations this thread made running it.
fn allocations<T>(f: impl FnOnce() -> T) -> (T, u64) {
    let before = ALLOCATIONS.with(Cell::get);
    let out = f();
    (out, ALLOCATIONS.with(Cell::get) - before)
}

#[test]
fn a_clean_one_sdu_ack_allocates_nothing_and_bitmaps_keep_their_wire_bytes() {
    // The sender's bitmap of a message in flight, the receiver's clean one.
    for total in [1, 64] {
        let (bitmaps, n) = allocations(|| {
            (
                AckBitmap::all_missing(total),
                AckBitmap::all_received(total),
            )
        });
        assert_eq!(n, 0, "bitmaps of {total} SDUs: {bitmaps:?}");
    }

    // Built, encoded into a reused frame buffer, decoded.
    let mut buf = Vec::with_capacity(64);
    let (ack, built) = allocations(|| CtrlMsg::Ack {
        conn: 7,
        session: 9,
        info: AckInfo::Bitmap(AckBitmap::all_received(1)),
        edge: Some(3),
    });
    let ((), encoded) = allocations(|| ack.encode_into(&mut buf));
    let (decoded, decoding) = allocations(|| CtrlMsg::decode(&buf));
    assert_eq!((built, encoded, decoding), (0, 0, 0));
    assert_eq!(buf.len(), 19, "tag, variant, ids, flags, edge, SDU count");
    assert_eq!(decoded, Ok(ack));

    // A bitmap with SDUs missing keeps its wire form: the count, then one
    // big-endian word per 64 SDUs — here with the first and the last
    // missing — alone and behind an acknowledgement's flags byte.
    let words: [(u32, &[u64]); 2] = [(64, &[1 | 1 << 63]), (65, &[1, 1])];
    for (total, words) in words {
        let mut bitmap = AckBitmap::all_missing(total);
        for seq in 1..total - 1 {
            bitmap.mark_received(seq);
        }
        let mut wire = total.to_be_bytes().to_vec();
        for word in words {
            wire.extend_from_slice(&word.to_be_bytes());
        }
        assert_eq!(bitmap.encode(), wire, "{total} SDUs");
        let ack = CtrlMsg::Ack {
            conn: 7,
            session: 9,
            info: AckInfo::Bitmap(bitmap),
            edge: None,
        };
        assert_eq!(
            ack.encode()[11..],
            wire,
            "{total} SDUs in an acknowledgement"
        );
    }
}
