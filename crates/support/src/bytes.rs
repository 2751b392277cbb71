//! Byte-buffer subset replacing the `bytes` crate.
//!
//! The binary formats in this workspace — the NTFS volume image
//! (`strider-ntfs::image`), the Registry hive format (`strider-hive::format`)
//! and the kernel crash dump (`strider-kernel::dump`) — used `bytes::{Buf,
//! BufMut, Bytes, BytesMut}` purely as a little-endian cursor API. This
//! module provides exactly that subset:
//!
//! * [`BufMut`] + [`BytesMut`] — an appendable buffer with `put_u8` /
//!   `put_u16_le` / `put_u32_le` / `put_u64_le` / `put_slice`,
//! * [`Buf`] — a consuming reader with `get_*_le`, `remaining`, `advance`,
//!   `copy_to_slice` and `copy_to_bytes`, implemented for both the owned
//!   [`Bytes`] cursor and plain `&[u8]` slices (the `bytes` crate does the
//!   same, and the hive parser reads through `&mut &[u8]`),
//! * [`Bytes`] — an owned, cheaply cloneable view created with
//!   [`Bytes::copy_from_slice`].
//!
//! Out-of-range reads panic, matching the upstream crate's contract; all
//! parsers in the workspace check [`Buf::remaining`] before reading.

use std::sync::Arc;

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
    /// Detaches the next `len` bytes as an owned [`Bytes`].
    fn copy_to_bytes(&mut self, len: usize) -> Bytes;
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

/// An owned, reference-counted byte view with a read cursor.
#[derive(Debug, Clone)]
pub struct Bytes {
    data: Arc<[u8]>,
    start: usize,
}

impl Bytes {
    /// Copies `src` into a new owned buffer.
    pub fn copy_from_slice(src: &[u8]) -> Self {
        Bytes {
            data: Arc::from(src),
            start: 0,
        }
    }

    /// The unread portion as a slice.
    pub fn as_slice(&self) -> &[u8] {
        &self.data[self.start..]
    }

    /// Length of the unread portion.
    pub fn len(&self) -> usize {
        self.data.len() - self.start
    }

    /// Whether the unread portion is empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The unread portion as a fresh `Vec`.
    pub fn to_vec(&self) -> Vec<u8> {
        self.as_slice().to_vec()
    }

    fn take(&mut self, count: usize) -> &[u8] {
        assert!(
            count <= self.len(),
            "buffer underflow: need {count}, have {}",
            self.len()
        );
        let start = self.start;
        self.start += count;
        &self.data[start..start + count]
    }
}

impl std::ops::Deref for Bytes {
    type Target = [u8];

    fn deref(&self) -> &[u8] {
        self.as_slice()
    }
}

impl AsRef<[u8]> for Bytes {
    fn as_ref(&self) -> &[u8] {
        self.as_slice()
    }
}

impl PartialEq for Bytes {
    fn eq(&self, other: &Self) -> bool {
        self.as_slice() == other.as_slice()
    }
}

impl Eq for Bytes {}

impl Buf for Bytes {
    fn remaining(&self) -> usize {
        self.len()
    }

    fn advance(&mut self, count: usize) {
        self.take(count);
    }

    fn get_u8(&mut self) -> u8 {
        self.take(1)[0]
    }

    fn get_u16_le(&mut self) -> u16 {
        u16::from_le_bytes(self.take(2).try_into().unwrap())
    }

    fn get_u32_le(&mut self) -> u32 {
        u32::from_le_bytes(self.take(4).try_into().unwrap())
    }

    fn get_u64_le(&mut self) -> u64 {
        u64::from_le_bytes(self.take(8).try_into().unwrap())
    }

    fn copy_to_slice(&mut self, dst: &mut [u8]) {
        dst.copy_from_slice(self.take(dst.len()));
    }

    fn copy_to_bytes(&mut self, len: usize) -> Bytes {
        Bytes::copy_from_slice(self.take(len))
    }
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

    fn copy_to_bytes(&mut self, len: usize) -> Bytes {
        let detached = Bytes::copy_from_slice(&self[..len]);
        *self = &self[len..];
        detached
    }
}

/// An appendable byte buffer (subset of `bytes::BytesMut`).
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct BytesMut {
    data: Vec<u8>,
}

impl BytesMut {
    /// Creates an empty buffer with `capacity` bytes pre-allocated.
    pub fn with_capacity(capacity: usize) -> Self {
        BytesMut {
            data: Vec::with_capacity(capacity),
        }
    }

    /// Current length.
    pub fn len(&self) -> usize {
        self.data.len()
    }

    /// Whether the buffer is empty.
    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }

    /// The written bytes as a slice.
    pub fn as_slice(&self) -> &[u8] {
        &self.data
    }

    /// Copies the contents into a fresh `Vec`.
    pub fn to_vec(&self) -> Vec<u8> {
        self.data.clone()
    }
}

impl std::ops::Deref for BytesMut {
    type Target = [u8];

    fn deref(&self) -> &[u8] {
        &self.data
    }
}

impl std::ops::DerefMut for BytesMut {
    fn deref_mut(&mut self) -> &mut [u8] {
        &mut self.data
    }
}

impl AsMut<[u8]> for BytesMut {
    fn as_mut(&mut self) -> &mut [u8] {
        &mut self.data
    }
}

impl BufMut for BytesMut {
    fn put_u8(&mut self, value: u8) {
        self.data.push(value);
    }

    fn put_u16_le(&mut self, value: u16) {
        self.data.extend_from_slice(&value.to_le_bytes());
    }

    fn put_u32_le(&mut self, value: u32) {
        self.data.extend_from_slice(&value.to_le_bytes());
    }

    fn put_u64_le(&mut self, value: u64) {
        self.data.extend_from_slice(&value.to_le_bytes());
    }

    fn put_slice(&mut self, src: &[u8]) {
        self.data.extend_from_slice(src);
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
        let mut buf = BytesMut::with_capacity(16);
        buf.put_u8(0xAB);
        buf.put_u16_le(0x1234);
        buf.put_u32_le(0xDEADBEEF);
        buf.put_u64_le(0x0102030405060708);
        buf.put_slice(b"tail");

        let mut cursor = Bytes::copy_from_slice(&buf);
        assert_eq!(cursor.remaining(), 1 + 2 + 4 + 8 + 4);
        assert_eq!(cursor.get_u8(), 0xAB);
        assert_eq!(cursor.get_u16_le(), 0x1234);
        assert_eq!(cursor.get_u32_le(), 0xDEADBEEF);
        assert_eq!(cursor.get_u64_le(), 0x0102030405060708);
        let tail = cursor.copy_to_bytes(4);
        assert_eq!(tail.as_slice(), b"tail");
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
        let mut cursor = Bytes::copy_from_slice(&[1, 2, 3, 4, 5]);
        cursor.advance(3);
        assert_eq!(cursor.get_u8(), 4);
        assert_eq!(cursor.to_vec(), vec![5]);
    }

    #[test]
    #[should_panic(expected = "underflow")]
    fn overrun_panics() {
        let mut cursor = Bytes::copy_from_slice(&[1]);
        cursor.get_u32_le();
    }
}
