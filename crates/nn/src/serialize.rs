//! Binary (de)serialisation of parameter stores — checkpointing trained
//! policies.
//!
//! Format (little-endian): magic `b"DPNN"`, version u32, count u32, then per
//! parameter: rows u32, cols u32, `rows*cols` f64 values. Only values are
//! stored; gradients and optimizer moments reset on load. The checkpoint is
//! a plain `Vec<u8>` written with `to_le_bytes` and read back with
//! `from_le_bytes`.

use crate::params::ParamStore;
use crate::tensor::Tensor;

const MAGIC: &[u8; 4] = b"DPNN";
const VERSION: u32 = 1;

/// Serialisation errors.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SerializeError {
    /// The byte stream is not a parameter checkpoint.
    BadMagic,
    /// Unknown format version.
    BadVersion(u32),
    /// The stream ended early or the declared shapes are inconsistent.
    Truncated,
    /// The checkpoint layout does not match the receiving store.
    LayoutMismatch {
        /// Parameter position that disagrees.
        index: usize,
    },
}

impl std::fmt::Display for SerializeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SerializeError::BadMagic => write!(f, "not a DPNN checkpoint"),
            SerializeError::BadVersion(v) => write!(f, "unknown checkpoint version {v}"),
            SerializeError::Truncated => write!(f, "checkpoint truncated"),
            SerializeError::LayoutMismatch { index } => {
                write!(f, "checkpoint layout mismatch at parameter {index}")
            }
        }
    }
}

impl std::error::Error for SerializeError {}

/// Serialises every parameter value into a byte buffer.
pub fn save_params(store: &ParamStore) -> Vec<u8> {
    let mut buf = Vec::new();
    buf.extend_from_slice(MAGIC);
    buf.extend_from_slice(&VERSION.to_le_bytes());
    buf.extend_from_slice(&(store.len() as u32).to_le_bytes());
    for i in 0..store.len() {
        let t = store.value(crate::params::ParamId(i));
        buf.extend_from_slice(&(t.rows() as u32).to_le_bytes());
        buf.extend_from_slice(&(t.cols() as u32).to_le_bytes());
        for &v in t.data() {
            buf.extend_from_slice(&v.to_le_bytes());
        }
    }
    buf
}

/// Splits the next `N` bytes off the front of `buf`. Every caller has
/// checked the remaining length first.
fn take<const N: usize>(buf: &mut &[u8]) -> [u8; N] {
    let (head, rest) = buf
        .split_first_chunk::<N>()
        .expect("length checked by the caller");
    *buf = rest;
    *head
}

/// Loads parameter values into an existing store with the same layout
/// (shapes must match position by position).
///
/// # Errors
/// Returns a [`SerializeError`] on malformed input or layout mismatch.
pub fn load_params(store: &mut ParamStore, bytes: &[u8]) -> Result<(), SerializeError> {
    let mut buf = bytes;
    if buf.len() < 12 {
        return Err(SerializeError::Truncated);
    }
    if &take::<4>(&mut buf) != MAGIC {
        return Err(SerializeError::BadMagic);
    }
    let version = u32::from_le_bytes(take(&mut buf));
    if version != VERSION {
        return Err(SerializeError::BadVersion(version));
    }
    let count = u32::from_le_bytes(take(&mut buf)) as usize;
    if count != store.len() {
        return Err(SerializeError::LayoutMismatch { index: 0 });
    }
    for i in 0..count {
        if buf.len() < 8 {
            return Err(SerializeError::Truncated);
        }
        let rows = u32::from_le_bytes(take(&mut buf)) as usize;
        let cols = u32::from_le_bytes(take(&mut buf)) as usize;
        let id = crate::params::ParamId(i);
        if store.value(id).shape() != (rows, cols) {
            return Err(SerializeError::LayoutMismatch { index: i });
        }
        if buf.len() < rows * cols * 8 {
            return Err(SerializeError::Truncated);
        }
        let mut t = Tensor::zeros(rows, cols);
        for v in t.data_mut() {
            *v = f64::from_le_bytes(take(&mut buf));
        }
        store.set_value(id, t);
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn roundtrip_preserves_values() {
        let mut a = ParamStore::new(1);
        a.add_xavier(3, 4);
        a.add_xavier(1, 4);
        let bytes = save_params(&a);

        let mut b = ParamStore::new(2);
        b.add_xavier(3, 4);
        b.add_xavier(1, 4);
        assert_ne!(
            a.value(crate::params::ParamId(0)),
            b.value(crate::params::ParamId(0))
        );
        load_params(&mut b, &bytes).unwrap();
        for i in 0..2 {
            assert_eq!(
                a.value(crate::params::ParamId(i)),
                b.value(crate::params::ParamId(i))
            );
        }
    }

    #[test]
    fn rejects_garbage_and_mismatch() {
        let mut store = ParamStore::new(0);
        store.add_xavier(2, 2);
        assert_eq!(
            load_params(&mut store, b"nope"),
            Err(SerializeError::Truncated)
        );
        assert_eq!(
            load_params(&mut store, b"XXXXXXXXXXXXXXXX"),
            Err(SerializeError::BadMagic)
        );
        // Save a 2x2 store, try to load into a 3x3 store.
        let bytes = save_params(&store);
        let mut other = ParamStore::new(0);
        other.add_xavier(3, 3);
        assert!(matches!(
            load_params(&mut other, &bytes),
            Err(SerializeError::LayoutMismatch { .. })
        ));
        // Truncated payload.
        let cut = &bytes[..bytes.len() - 4];
        let mut same = ParamStore::new(0);
        same.add_xavier(2, 2);
        assert_eq!(load_params(&mut same, cut), Err(SerializeError::Truncated));
    }
}
