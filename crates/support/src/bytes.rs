//! Byte-buffer subset replacing the `bytes` crate.
//!
//! The binary formats in this workspace — the NTFS volume image
//! (`strider-ntfs::image`), the Registry hive format (`strider-hive::format`)
//! and the kernel crash dump (`strider-kernel::dump`) — are written with
//! [`BufMut`] and read with one length-checked reader, so no image is
//! copied on its way to or from its parser:
//!
//! * [`BufMut`] for `Vec<u8>` — appends with `put_u8` / `put_u16_le` /
//!   `put_u32_le` / `put_u64_le` / `put_slice`; a writer returns the `Vec`
//!   it built,
//! * [`FromLe::read_le`], [`read_slice`] and [`read_units`] — reads through
//!   `&mut &[u8]` that return `None` when the bytes run out, which each
//!   parser maps to its own `Truncated { context }` error.

/// A little-endian value a parser reads: a fixed-size byte array or an
/// unsigned integer.
pub trait FromLe: Sized {
    /// Reads the value from the front of `buf` and consumes it; `None`,
    /// consuming nothing, when fewer bytes remain than the value needs.
    fn read_le(buf: &mut &[u8]) -> Option<Self>;
}

impl<const N: usize> FromLe for [u8; N] {
    fn read_le(buf: &mut &[u8]) -> Option<Self> {
        let (head, rest) = buf.split_first_chunk::<N>()?;
        *buf = rest;
        Some(*head)
    }
}

macro_rules! from_le_bytes {
    ($($int:ty),*) => {$(
        impl FromLe for $int {
            fn read_le(buf: &mut &[u8]) -> Option<Self> {
                FromLe::read_le(buf).map(<$int>::from_le_bytes)
            }
        }
    )*};
}

from_le_bytes!(u8, u16, u32, u64);

/// The next `len` bytes of `buf`, consumed; `None`, consuming nothing, when
/// fewer remain.
pub fn read_slice<'a>(buf: &mut &'a [u8], len: usize) -> Option<&'a [u8]> {
    if buf.len() < len {
        return None;
    }
    let (head, rest) = buf.split_at(len);
    *buf = rest;
    Some(head)
}

/// A counted UTF-16 name: a little-endian `u16` unit count, then the units.
/// `None` when the bytes run out; a count whose units do not all follow is
/// still consumed.
pub fn read_units(buf: &mut &[u8]) -> Option<Vec<u16>> {
    let len = u16::read_le(buf)?;
    let units = read_slice(buf, usize::from(len) * 2)?;
    Some(
        units
            .chunks_exact(2)
            .map(|u| u16::from_le_bytes([u[0], u[1]]))
            .collect(),
    )
}

/// Write-side append operations (subset of `bytes::BufMut`).
pub trait BufMut {
    /// Appends one byte.
    fn put_u8(&mut self, value: u8);
    /// Appends a little-endian `u16`.
    fn put_u16_le(&mut self, value: u16);
    /// Appends a little-endian `u32`.
    fn put_u32_le(&mut self, value: u32);
    /// Appends a little-endian `u64`.
    fn put_u64_le(&mut self, value: u64);
    /// Appends a slice.
    fn put_slice(&mut self, src: &[u8]);
}

impl BufMut for Vec<u8> {
    fn put_u8(&mut self, value: u8) {
        self.push(value);
    }

    fn put_u16_le(&mut self, value: u16) {
        self.extend_from_slice(&value.to_le_bytes());
    }

    fn put_u32_le(&mut self, value: u32) {
        self.extend_from_slice(&value.to_le_bytes());
    }

    fn put_u64_le(&mut self, value: u64) {
        self.extend_from_slice(&value.to_le_bytes());
    }

    fn put_slice(&mut self, src: &[u8]) {
        self.extend_from_slice(src);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn write_then_read_roundtrip() {
        let mut buf = Vec::with_capacity(16);
        buf.put_u8(0xAB);
        buf.put_u16_le(0x1234);
        buf.put_u32_le(0xDEADBEEF);
        buf.put_u64_le(0x0102030405060708);
        buf.put_u16_le(2);
        buf.put_slice(&[b'h', 0, b'i', 0]);
        buf.put_slice(b"tail");

        let mut cursor: &[u8] = &buf;
        assert_eq!(u8::read_le(&mut cursor), Some(0xAB));
        assert_eq!(u16::read_le(&mut cursor), Some(0x1234));
        assert_eq!(u32::read_le(&mut cursor), Some(0xDEADBEEF));
        assert_eq!(u64::read_le(&mut cursor), Some(0x0102030405060708));
        assert_eq!(
            read_units(&mut cursor),
            Some(vec![u16::from(b'h'), u16::from(b'i')])
        );
        assert_eq!(read_slice(&mut cursor, 4), Some(&b"tail"[..]));
        assert!(cursor.is_empty());
    }

    #[test]
    fn a_short_read_is_none_and_consumes_nothing() {
        let data = [1u8, 2, 3];
        let mut cursor: &[u8] = &data;
        assert_eq!(u32::read_le(&mut cursor), None);
        assert_eq!(<[u8; 4]>::read_le(&mut cursor), None);
        assert_eq!(read_slice(&mut cursor, 4), None);
        assert_eq!(cursor, data);
        assert_eq!(<[u8; 2]>::read_le(&mut cursor), Some([1, 2]));
        assert_eq!(cursor, [3]);
    }

    #[test]
    fn a_name_short_of_its_units_consumes_its_count() {
        let data = [3u8, 0, b'a', 0];
        let mut cursor: &[u8] = &data;
        assert_eq!(read_units(&mut cursor), None);
        assert_eq!(cursor, [b'a', 0]);
    }
}
