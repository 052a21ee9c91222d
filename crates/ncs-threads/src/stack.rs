//! Green-thread stack allocation.
//!
//! Stacks are heap buffers with a canary word at the overflow end. The
//! scheduler verifies the canary every time control returns from a green
//! thread, turning silent stack overruns into immediate panics.

/// Canary written at the lowest usable address of every stack.
const CANARY: u64 = 0xDEAD_BEEF_CAFE_F00D;

/// Minimum stack size accepted; smaller requests are rounded up.
pub(crate) const MIN_STACK: usize = 16 * 1024;

/// A heap-allocated green-thread stack.
pub(crate) struct Stack {
    buf: Box<[u8]>,
}

impl Stack {
    /// Allocates a zeroed stack of at least `size` bytes and plants the
    /// canary.
    pub(crate) fn new(size: usize) -> Self {
        let size = size.max(MIN_STACK);
        let buf = vec![0u8; size].into_boxed_slice();
        let mut stack = Stack { buf };
        let base = stack.buf.as_mut_ptr() as *mut u64;
        // The buffer start is the overflow end for a downward-growing stack.
        unsafe { base.write_unaligned(CANARY) };
        stack
    }

    /// Highest 16-byte-aligned address within the stack: the initial stack
    /// pointer for a fresh thread.
    pub(crate) fn top(&mut self) -> *mut u8 {
        let end = unsafe { self.buf.as_mut_ptr().add(self.buf.len()) };
        ((end as usize) & !15) as *mut u8
    }

    /// Whether the overflow canary is still intact.
    pub(crate) fn canary_intact(&self) -> bool {
        let base = self.buf.as_ptr() as *const u64;
        unsafe { base.read_unaligned() == CANARY }
    }

    /// Total size in bytes.
    #[allow(dead_code)]
    pub(crate) fn size(&self) -> usize {
        self.buf.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stack_rounds_up_to_minimum() {
        let s = Stack::new(1);
        assert!(s.size() >= MIN_STACK);
    }

    #[test]
    fn top_is_aligned_and_within_buffer() {
        let mut s = Stack::new(64 * 1024);
        let top = s.top() as usize;
        assert_eq!(top % 16, 0);
        let lo = s.buf.as_ptr() as usize;
        assert!(top > lo && top <= lo + s.buf.len());
    }

    #[test]
    fn canary_detects_overwrite() {
        let mut s = Stack::new(MIN_STACK);
        assert!(s.canary_intact());
        s.buf[0] = 0;
        assert!(!s.canary_intact());
    }
}
