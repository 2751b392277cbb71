//! Byte-buffer subset replacing the `bytes` crate.
//!
//! The binary formats in this workspace — the NTFS volume image
//! (`strider-ntfs::image`), the Registry hive format (`strider-hive::format`)
//! and the kernel crash dump (`strider-kernel::dump`) — used `bytes::{Buf,
//! BufMut}` purely as a little-endian cursor API. This module provides
//! exactly that subset, over the standard buffers, so no image is copied on
//! its way to or from its parser:
//!
//! * [`BufMut`] for `Vec<u8>` — appends with `put_u8` / `put_u16_le` /
//!   `put_u32_le` / `put_u64_le` / `put_slice`; a writer returns the `Vec`
//!   it built,
//! * [`Buf`] for `&[u8]` — a consuming reader with `get_*_le`, `remaining`,
//!   `advance` and `copy_to_slice`; a parser reads through `&mut &[u8]`.
//!
//! Out-of-range reads panic, matching the upstream crate's contract; all
//! parsers in the workspace check [`Buf::remaining`] before reading.

/// Read-side cursor operations (subset of `bytes::Buf`).
pub trait Buf {
    /// Bytes left to read.
    fn remaining(&self) -> usize;
    /// Skips `count` bytes. Panics if fewer remain.
    fn advance(&mut self, count: usize);
    /// Reads one byte.
    fn get_u8(&mut self) -> u8;
    /// Reads a little-endian `u16`.
    fn get_u16_le(&mut self) -> u16;
    /// Reads a little-endian `u32`.
    fn get_u32_le(&mut self) -> u32;
    /// Reads a little-endian `u64`.
    fn get_u64_le(&mut self) -> u64;
    /// Fills `dst` from the cursor.
    fn copy_to_slice(&mut self, dst: &mut [u8]);
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

impl Buf for &[u8] {
    fn remaining(&self) -> usize {
        self.len()
    }

    fn advance(&mut self, count: usize) {
        assert!(count <= self.len(), "slice underflow");
        *self = &self[count..];
    }

    fn get_u8(&mut self) -> u8 {
        let value = self[0];
        *self = &self[1..];
        value
    }

    fn get_u16_le(&mut self) -> u16 {
        let value = u16::from_le_bytes(self[..2].try_into().unwrap());
        *self = &self[2..];
        value
    }

    fn get_u32_le(&mut self) -> u32 {
        let value = u32::from_le_bytes(self[..4].try_into().unwrap());
        *self = &self[4..];
        value
    }

    fn get_u64_le(&mut self) -> u64 {
        let value = u64::from_le_bytes(self[..8].try_into().unwrap());
        *self = &self[8..];
        value
    }

    fn copy_to_slice(&mut self, dst: &mut [u8]) {
        dst.copy_from_slice(&self[..dst.len()]);
        *self = &self[dst.len()..];
    }
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
        buf.put_slice(b"tail");

        let mut cursor: &[u8] = &buf;
        assert_eq!(cursor.remaining(), 1 + 2 + 4 + 8 + 4);
        assert_eq!(cursor.get_u8(), 0xAB);
        assert_eq!(cursor.get_u16_le(), 0x1234);
        assert_eq!(cursor.get_u32_le(), 0xDEADBEEF);
        assert_eq!(cursor.get_u64_le(), 0x0102030405060708);
        let mut tail = [0u8; 4];
        cursor.copy_to_slice(&mut tail);
        assert_eq!(&tail, b"tail");
        assert_eq!(cursor.remaining(), 0);
    }

    #[test]
    fn slice_buf_advances_through_reads() {
        let data = [1u8, 0, 2, 0, 0, 0, 9];
        let mut s: &[u8] = &data;
        assert_eq!(s.get_u16_le(), 1);
        assert_eq!(s.get_u32_le(), 2);
        assert_eq!(s.remaining(), 1);
        let mut one = [0u8; 1];
        s.copy_to_slice(&mut one);
        assert_eq!(one[0], 9);
        assert_eq!(s.remaining(), 0);
    }

    #[test]
    fn advance_skips_bytes() {
        let data = [1u8, 2, 3, 4, 5];
        let mut cursor: &[u8] = &data;
        cursor.advance(3);
        assert_eq!(cursor.get_u8(), 4);
        assert_eq!(cursor, [5]);
    }

    #[test]
    #[should_panic(expected = "underflow")]
    fn overrun_panics() {
        let data = [1u8];
        let mut cursor: &[u8] = &data;
        cursor.advance(4);
    }
}
