//! Typed elements and reduction operators.
//!
//! The engine moves byte payloads; the typed API converts element vectors
//! to little-endian bytes on submission and back on completion. Reductions
//! are described by a ([`DType`], [`ReduceOp`]) pair so the fold can run on
//! whichever thread delivers the frame, away from the caller's type
//! parameters.

use crate::handle::CollectiveError;

/// Element type descriptor carried through the engine.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DType {
    /// `u8`
    U8,
    /// `u32`
    U32,
    /// `u64`
    U64,
    /// `i32`
    I32,
    /// `i64`
    I64,
    /// `f32`
    F32,
    /// `f64`
    F64,
}

impl DType {
    /// Encoded size of one element, in bytes.
    pub fn elem_size(self) -> usize {
        match self {
            DType::U8 => 1,
            DType::U32 | DType::I32 | DType::F32 => 4,
            DType::U64 | DType::I64 | DType::F64 => 8,
        }
    }
}

/// Elementwise reduction operator. Integer `Sum`/`Prod` wrap on overflow
/// (a reduction must not panic mid-collective).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ReduceOp {
    /// Elementwise addition.
    Sum,
    /// Elementwise multiplication.
    Prod,
    /// Elementwise minimum.
    Min,
    /// Elementwise maximum.
    Max,
}

/// An element type usable in typed collectives.
///
/// Implemented for the fixed-width integers and floats the engine can
/// reduce over; encoding is little-endian.
pub trait Scalar: Copy + Send + 'static {
    /// The engine-side descriptor for this type.
    const DTYPE: DType;

    /// Appends this element's little-endian encoding to `out`.
    fn write_le(&self, out: &mut Vec<u8>);

    /// Reads one element from `bytes` (exactly `DTYPE.elem_size()` bytes).
    fn read_le(bytes: &[u8]) -> Self;
}

macro_rules! impl_scalar {
    ($($ty:ty => $dtype:expr),* $(,)?) => {$(
        impl Scalar for $ty {
            const DTYPE: DType = $dtype;

            fn write_le(&self, out: &mut Vec<u8>) {
                out.extend_from_slice(&self.to_le_bytes());
            }

            fn read_le(bytes: &[u8]) -> Self {
                <$ty>::from_le_bytes(bytes.try_into().expect("elem_size bytes"))
            }
        }
    )*};
}

impl_scalar! {
    u8 => DType::U8,
    u32 => DType::U32,
    u64 => DType::U64,
    i32 => DType::I32,
    i64 => DType::I64,
    f32 => DType::F32,
    f64 => DType::F64,
}

/// Encodes an element slice into little-endian bytes.
pub(crate) fn to_bytes<T: Scalar>(v: &[T]) -> Vec<u8> {
    let mut out = Vec::with_capacity(v.len() * T::DTYPE.elem_size());
    for x in v {
        x.write_le(&mut out);
    }
    out
}

/// Decodes little-endian bytes back into an element vector.
pub(crate) fn from_bytes<T: Scalar>(bytes: &[u8]) -> Result<Vec<T>, CollectiveError> {
    let k = T::DTYPE.elem_size();
    if !bytes.len().is_multiple_of(k) {
        return Err(CollectiveError::Protocol(format!(
            "payload of {} bytes is not a whole number of {k}-byte elements",
            bytes.len()
        )));
    }
    Ok(bytes.chunks_exact(k).map(T::read_le).collect())
}

macro_rules! fold_arm {
    ($ty:ty, $op:expr, $acc:expr, $other:expr, $sum:expr, $prod:expr) => {{
        let k = std::mem::size_of::<$ty>();
        for (a, b) in $acc.chunks_exact_mut(k).zip($other.chunks_exact(k)) {
            let x = <$ty>::from_le_bytes(a.try_into().expect("k bytes"));
            let y = <$ty>::from_le_bytes(b.try_into().expect("k bytes"));
            // Min/max through the partial comparison: `y < x` is false for
            // a NaN accumulator, so a NaN sticks — deterministic across
            // topologies (relevant to the float instantiations only).
            let r = match $op {
                ReduceOp::Sum => $sum(x, y),
                ReduceOp::Prod => $prod(x, y),
                ReduceOp::Min => {
                    if y < x {
                        y
                    } else {
                        x
                    }
                }
                ReduceOp::Max => {
                    if y > x {
                        y
                    } else {
                        x
                    }
                }
            };
            a.copy_from_slice(&r.to_le_bytes());
        }
    }};
}

/// Folds `other` into `acc` elementwise under `op`.
///
/// # Errors
///
/// [`CollectiveError::Protocol`] when the two byte payloads disagree in
/// length or are not whole elements (contribution-size mismatch between
/// members).
pub(crate) fn fold_into(
    dtype: DType,
    op: ReduceOp,
    acc: &mut [u8],
    other: &[u8],
) -> Result<(), CollectiveError> {
    if acc.len() != other.len() || !acc.len().is_multiple_of(dtype.elem_size()) {
        return Err(CollectiveError::Protocol(format!(
            "reduce contribution mismatch: {} vs {} bytes ({dtype:?})",
            acc.len(),
            other.len()
        )));
    }
    // Integers combine wrapping (a reduction must not panic mid-
    // collective); floats have no wrapping arithmetic, so they use the
    // plain operators.
    match dtype {
        DType::U8 => fold_arm!(u8, op, acc, other, u8::wrapping_add, u8::wrapping_mul),
        DType::U32 => fold_arm!(u32, op, acc, other, u32::wrapping_add, u32::wrapping_mul),
        DType::U64 => fold_arm!(u64, op, acc, other, u64::wrapping_add, u64::wrapping_mul),
        DType::I32 => fold_arm!(i32, op, acc, other, i32::wrapping_add, i32::wrapping_mul),
        DType::I64 => fold_arm!(i64, op, acc, other, i64::wrapping_add, i64::wrapping_mul),
        DType::F32 => fold_arm!(f32, op, acc, other, |x, y| x + y, |x, y| x * y),
        DType::F64 => fold_arm!(f64, op, acc, other, |x, y| x + y, |x, y| x * y),
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn round_trip_all_dtypes() {
        assert_eq!(
            from_bytes::<u32>(&to_bytes(&[1u32, 2, 3])).unwrap(),
            vec![1, 2, 3]
        );
        assert_eq!(
            from_bytes::<f64>(&to_bytes(&[1.5f64, -2.5])).unwrap(),
            vec![1.5, -2.5]
        );
        assert_eq!(from_bytes::<i64>(&to_bytes(&[-9i64])).unwrap(), vec![-9]);
        assert_eq!(from_bytes::<u8>(&to_bytes(&[7u8, 8])).unwrap(), vec![7, 8]);
        assert!(from_bytes::<u32>(&[0, 1, 2]).is_err());
    }

    #[test]
    fn fold_applies_ops() {
        let mut acc = to_bytes(&[1u32, 10, 5]);
        fold_into(
            DType::U32,
            ReduceOp::Sum,
            &mut acc,
            &to_bytes(&[2u32, 3, 4]),
        )
        .unwrap();
        assert_eq!(from_bytes::<u32>(&acc).unwrap(), vec![3, 13, 9]);
        fold_into(
            DType::U32,
            ReduceOp::Max,
            &mut acc,
            &to_bytes(&[5u32, 5, 5]),
        )
        .unwrap();
        assert_eq!(from_bytes::<u32>(&acc).unwrap(), vec![5, 13, 9]);
        let mut f = to_bytes(&[2.0f64, -1.0]);
        fold_into(
            DType::F64,
            ReduceOp::Prod,
            &mut f,
            &to_bytes(&[3.0f64, 3.0]),
        )
        .unwrap();
        assert_eq!(from_bytes::<f64>(&f).unwrap(), vec![6.0, -3.0]);
        let mut m = to_bytes(&[2.0f32]);
        fold_into(DType::F32, ReduceOp::Min, &mut m, &to_bytes(&[-7.0f32])).unwrap();
        assert_eq!(from_bytes::<f32>(&m).unwrap(), vec![-7.0]);
    }

    #[test]
    fn fold_wraps_instead_of_panicking() {
        let mut acc = to_bytes(&[u8::MAX]);
        fold_into(DType::U8, ReduceOp::Sum, &mut acc, &to_bytes(&[2u8])).unwrap();
        assert_eq!(from_bytes::<u8>(&acc).unwrap(), vec![1]);
    }

    #[test]
    fn fold_rejects_mismatched_lengths() {
        let mut acc = to_bytes(&[1u32]);
        assert!(fold_into(DType::U32, ReduceOp::Sum, &mut acc, &to_bytes(&[1u32, 2])).is_err());
    }
}
