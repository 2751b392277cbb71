//! The binary hive format: cell-based serialization and the independent
//! raw parser used by low-level and outside-the-box scans.
//!
//! Layout (all integers little-endian), modeled on the real `regf` format in
//! spirit:
//!
//! ```text
//! header: magic "SREGF1\0\0" | u32 version | u32 root-cell offset
//! cells:  u16 tag | payload…          (offsets are absolute byte positions)
//!   'nk' key node:     name | u64 timestamp | u32 subkey-list off | u32 value-list off
//!   'lf' subkey list:  u32 count | count × u32 key-cell offsets
//!   'vl' value list:   u32 count | count × u32 value-cell offsets
//!   'vk' value record: name | u32 type | u32 declared data len | u32 data-cell off
//!   'db' data cell:    u32 stored len | bytes
//! ```
//!
//! A value record whose *declared* length disagrees with its data cell's
//! *stored* length is exactly the corruption the paper hit in `AppInit_DLLs`:
//! RegEdit showed nothing while the raw parse reported data. The parser here
//! does what a careful forensic parser must: it salvages the stored bytes and
//! flags the value as corrupt instead of failing the whole hive.

use crate::key::{Key, Value, ValueData};
use std::fmt;
use strider_nt_core::{NtString, Tick};
use strider_support::bytes::{read_units, BufMut, FromLe};
use strider_support::fault::{Defect, DefectKind, Salvaged};

const MAGIC: &[u8; 8] = b"SREGF1\0\0";
const VERSION: u32 = 1;
const TAG_NK: u16 = 0x6B6E; // "nk"
const TAG_LF: u16 = 0x666C; // "lf"
const TAG_VL: u16 = 0x6C76; // "vl"
const TAG_VK: u16 = 0x6B76; // "vk"
const TAG_DB: u16 = 0x6264; // "db"

/// Serializes a key tree to hive bytes. The `root` key's own name is stored
/// so offline mounting can label the tree.
pub(crate) fn write_hive(root: &Key) -> Vec<u8> {
    let mut buf = Vec::with_capacity(4096);
    buf.put_slice(MAGIC);
    buf.put_u32_le(VERSION);
    buf.put_u32_le(0); // root offset backpatched below
    let root_off = write_key(&mut buf, root);
    buf[12..16].copy_from_slice(&root_off.to_le_bytes());
    buf.shrink_to_fit();
    buf
}

fn put_name(buf: &mut Vec<u8>, name: &NtString) {
    buf.put_u16_le(name.len() as u16);
    for &u in name.units() {
        buf.put_u16_le(u);
    }
}

fn write_key(buf: &mut Vec<u8>, key: &Key) -> u32 {
    // Children first so the parent can reference their offsets.
    let subkey_offs: Vec<u32> = key.subkeys.iter().map(|k| write_key(buf, k)).collect();
    let value_offs: Vec<u32> = key.values.iter().map(|v| write_value(buf, v)).collect();

    let subkey_list_off = if subkey_offs.is_empty() {
        0
    } else {
        let off = buf.len() as u32;
        buf.put_u16_le(TAG_LF);
        buf.put_u32_le(subkey_offs.len() as u32);
        for o in &subkey_offs {
            buf.put_u32_le(*o);
        }
        off
    };
    let value_list_off = if value_offs.is_empty() {
        0
    } else {
        let off = buf.len() as u32;
        buf.put_u16_le(TAG_VL);
        buf.put_u32_le(value_offs.len() as u32);
        for o in &value_offs {
            buf.put_u32_le(*o);
        }
        off
    };

    let off = buf.len() as u32;
    buf.put_u16_le(TAG_NK);
    put_name(buf, &key.name);
    buf.put_u64_le(key.timestamp.0);
    buf.put_u32_le(subkey_list_off);
    buf.put_u32_le(value_list_off);
    off
}

fn encode_data(data: &ValueData) -> Vec<u8> {
    match data {
        ValueData::Sz(s) | ValueData::ExpandSz(s) => {
            let mut out = Vec::with_capacity(s.len() * 2);
            for &u in s.units() {
                out.extend_from_slice(&u.to_le_bytes());
            }
            out
        }
        ValueData::Binary(b) => b.clone(),
        ValueData::Dword(d) => d.to_le_bytes().to_vec(),
        ValueData::MultiSz(v) => {
            // Strings separated by NUL units, double-NUL terminated.
            let mut out = Vec::new();
            for s in v {
                for &u in s.units() {
                    out.extend_from_slice(&u.to_le_bytes());
                }
                out.extend_from_slice(&0u16.to_le_bytes());
            }
            out.extend_from_slice(&0u16.to_le_bytes());
            out
        }
    }
}

fn write_value(buf: &mut Vec<u8>, value: &Value) -> u32 {
    let data = encode_data(&value.data);
    let data_off = buf.len() as u32;
    buf.put_u16_le(TAG_DB);
    buf.put_u32_le(data.len() as u32);
    buf.put_slice(&data);

    let off = buf.len() as u32;
    buf.put_u16_le(TAG_VK);
    put_name(buf, &value.name);
    buf.put_u32_le(value.data.type_code());
    // A corrupted record declares more data than its cell stores.
    let declared = if value.corrupt_data {
        data.len() as u32 + 8
    } else {
        data.len() as u32
    };
    buf.put_u32_le(declared);
    buf.put_u32_le(data_off);
    off
}

/// Error produced while parsing hive bytes.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum HiveFormatError {
    /// The bytes ran out inside the named structure.
    Truncated {
        /// What was being parsed.
        context: &'static str,
    },
    /// Wrong magic.
    BadMagic,
    /// Unsupported version.
    BadVersion(u32),
    /// A cell offset pointed outside the hive or at the wrong cell type.
    BadCell {
        /// The offending offset.
        offset: u32,
        /// What was expected there.
        expected: &'static str,
    },
    /// The key graph exceeded the cell budget (cycle).
    CellCycle,
}

impl fmt::Display for HiveFormatError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            HiveFormatError::Truncated { context } => {
                write!(f, "hive truncated while reading {context}")
            }
            HiveFormatError::BadMagic => write!(f, "bad hive magic"),
            HiveFormatError::BadVersion(v) => write!(f, "unsupported hive version {v}"),
            HiveFormatError::BadCell { offset, expected } => {
                write!(f, "bad cell at offset {offset}: expected {expected}")
            }
            HiveFormatError::CellCycle => write!(f, "cycle detected in hive cells"),
        }
    }
}

impl std::error::Error for HiveFormatError {}

/// Converts a strict-parse error into the workspace-wide salvage [`Defect`]
/// vocabulary. `fallback_off` locates the damage when the error itself does
/// not carry an offset; `total` bounds the bytes-lost estimate.
fn defect_for(e: &HiveFormatError, fallback_off: u32, total: u64) -> Defect {
    let (kind, offset, context): (DefectKind, u64, &'static str) = match e {
        HiveFormatError::Truncated { context } => {
            (DefectKind::Truncated, fallback_off as u64, context)
        }
        HiveFormatError::BadMagic => (DefectKind::BadMagic, 0, "hive magic"),
        HiveFormatError::BadVersion(_) => (DefectKind::BadVersion, 8, "hive version"),
        HiveFormatError::BadCell { offset, expected } => {
            (DefectKind::BadRecord, *offset as u64, expected)
        }
        HiveFormatError::CellCycle => (DefectKind::Cycle, fallback_off as u64, "cell graph"),
    };
    // A stale cell offset can point past a truncated image's end; a defect
    // always locates a position *within* the bytes that exist.
    let offset = offset.min(total);
    let bytes_lost = match kind {
        DefectKind::Truncated | DefectKind::BadMagic | DefectKind::BadVersion => {
            total.saturating_sub(offset)
        }
        // A skipped cell's true footprint is unknowable without trusting
        // the bytes that just failed to parse; report only its location.
        DefectKind::BadRecord | DefectKind::Cycle => 0,
    };
    Defect::new(kind, offset, bytes_lost, context)
}

/// A value recovered from raw hive bytes.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RawValue {
    /// The counted value name.
    pub name: NtString,
    /// The on-disk type code.
    pub type_code: u32,
    /// The stored data bytes (salvaged even when corrupt).
    pub data: Vec<u8>,
    /// Declared length disagreed with the stored cell — the record is
    /// corrupt. RegEdit-level views drop such values; the raw view keeps
    /// them, which is the paper's Registry false-positive mechanism.
    pub corrupt: bool,
}

/// A key recovered from raw hive bytes.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RawKey {
    /// The counted key name.
    pub name: NtString,
    /// Last-write time.
    pub timestamp: Tick,
    /// Values on this key.
    pub values: Vec<RawValue>,
    /// Child keys.
    pub subkeys: Vec<RawKey>,
}

/// A hive parsed from raw bytes, independent of the live tree code.
///
/// # Examples
///
/// ```
/// use strider_hive::{Key, Value, ValueData, RawHive, Hive};
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let mut root = Key::new("SOFTWARE");
/// root.set_value(Value::new("v", ValueData::Dword(1)));
/// let hive = Hive::from_root("HKLM\\SOFTWARE".parse()?, "C:\\sw".parse()?, root);
/// let raw = RawHive::parse(&hive.to_bytes())?;
/// assert_eq!(raw.root().name.to_win32_lossy(), "SOFTWARE");
/// assert_eq!(raw.all_values().len(), 1);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct RawHive {
    root: RawKey,
    byte_len: u64,
}

struct Parser<'a> {
    bytes: &'a [u8],
    cells_visited: usize,
    cell_budget: usize,
    defects: Vec<Defect>,
}

/// Validates the 16-byte header and returns the root-cell offset. All reads
/// are length-checked; a header shorter than 16 bytes is a [`Truncated`]
/// error, never a panic.
///
/// [`Truncated`]: HiveFormatError::Truncated
fn parse_header(bytes: &[u8]) -> Result<u32, HiveFormatError> {
    if bytes.len() < 16 {
        return Err(HiveFormatError::Truncated { context: "header" });
    }
    if &bytes[0..8] != MAGIC {
        return Err(HiveFormatError::BadMagic);
    }
    let mut s = &bytes[8..16];
    let version = read::<u32>(&mut s, "header version")?;
    if version != VERSION {
        return Err(HiveFormatError::BadVersion(version));
    }
    read::<u32>(&mut s, "header root offset")
}

impl RawHive {
    /// Parses hive bytes.
    ///
    /// # Errors
    ///
    /// Returns [`HiveFormatError`] on truncation, bad header, dangling cell
    /// offsets, or cycles. Corrupt value *records* do not fail the parse;
    /// they are salvaged and flagged.
    pub fn parse(bytes: &[u8]) -> Result<Self, HiveFormatError> {
        let root_off = parse_header(bytes)?;
        let mut parser = Parser::new(bytes);
        let root = parser.parse_key(root_off)?;
        Ok(Self {
            root,
            byte_len: bytes.len() as u64,
        })
    }

    /// Best-effort parse for damaged hives: every cell that fails to parse
    /// becomes a [`Defect`] and is skipped, keeping the rest of the tree —
    /// a rootkit (or a torn write) that corrupts one bin must not blind the
    /// whole registry diff. Never panics and never errors; a hive damaged
    /// beyond the header salvages to an empty root plus the defect that
    /// explains why.
    pub fn parse_salvage(bytes: &[u8]) -> Salvaged<Self> {
        let byte_len = bytes.len() as u64;
        let empty_root = || RawKey {
            name: NtString::from(""),
            timestamp: Tick(0),
            values: Vec::new(),
            subkeys: Vec::new(),
        };
        let root_off = match parse_header(bytes) {
            Ok(off) => off,
            Err(e) => {
                return Salvaged {
                    value: Self {
                        root: empty_root(),
                        byte_len,
                    },
                    defects: vec![defect_for(&e, 0, byte_len)],
                }
            }
        };
        let mut parser = Parser::new(bytes);
        let root = match parser.parse_key_salvage(root_off) {
            Ok(root) => root,
            Err(e) => {
                parser.record(&e, root_off);
                empty_root()
            }
        };
        Salvaged {
            value: Self { root, byte_len },
            defects: parser.defects,
        }
    }

    /// The recovered root key.
    pub fn root(&self) -> &RawKey {
        &self.root
    }

    /// Hive size in bytes (drives the cost model).
    pub fn byte_len(&self) -> u64 {
        self.byte_len
    }

    /// Flattens every value in the hive as `(key-path-components, value)`.
    pub fn all_values(&self) -> Vec<(Vec<NtString>, &RawValue)> {
        let mut out = Vec::new();
        fn walk<'h>(
            key: &'h RawKey,
            path: &mut Vec<NtString>,
            out: &mut Vec<(Vec<NtString>, &'h RawValue)>,
        ) {
            for v in &key.values {
                out.push((path.clone(), v));
            }
            for sk in &key.subkeys {
                path.push(sk.name.clone());
                walk(sk, path, out);
                path.pop();
            }
        }
        walk(&self.root, &mut Vec::new(), &mut out);
        out
    }

    /// Descends from the root along case-insensitive component names.
    pub fn descend(&self, components: &[NtString]) -> Option<&RawKey> {
        let mut cur = &self.root;
        for c in components {
            cur = cur.subkeys.iter().find(|k| k.name.eq_ignore_case(c))?;
        }
        Some(cur)
    }
}

impl<'a> Parser<'a> {
    fn new(bytes: &'a [u8]) -> Self {
        Self {
            bytes,
            cells_visited: 0,
            // Generous: every cell is ≥ 6 bytes, so this bounds any cycle.
            cell_budget: bytes.len() / 4 + 16,
            defects: Vec::new(),
        }
    }

    /// Records a salvage defect; consecutive cycle defects collapse into
    /// one (once the cell budget is gone, every remaining cell reports it).
    fn record(&mut self, e: &HiveFormatError, fallback_off: u32) {
        let d = defect_for(e, fallback_off, self.bytes.len() as u64);
        if d.kind == DefectKind::Cycle
            && self
                .defects
                .last()
                .is_some_and(|p| p.kind == DefectKind::Cycle)
        {
            return;
        }
        self.defects.push(d);
    }

    fn slice_from(&self, off: u32, context: &'static str) -> Result<&'a [u8], HiveFormatError> {
        self.bytes
            .get(off as usize..)
            .filter(|s| !s.is_empty())
            .ok_or(HiveFormatError::Truncated { context })
    }

    fn bump(&mut self) -> Result<(), HiveFormatError> {
        self.cells_visited += 1;
        if self.cells_visited > self.cell_budget {
            return Err(HiveFormatError::CellCycle);
        }
        Ok(())
    }

    fn parse_key(&mut self, off: u32) -> Result<RawKey, HiveFormatError> {
        self.bump()?;
        let mut s = self.slice_from(off, "key cell")?;
        let tag = read::<u16>(&mut s, "key tag")?;
        if tag != TAG_NK {
            return Err(HiveFormatError::BadCell {
                offset: off,
                expected: "nk",
            });
        }
        let name = read_name(&mut s, "key name")?;
        let timestamp = Tick(read::<u64>(&mut s, "key timestamp")?);
        let subkey_list_off = read::<u32>(&mut s, "subkey list offset")?;
        let value_list_off = read::<u32>(&mut s, "value list offset")?;

        let mut subkeys = Vec::new();
        if subkey_list_off != 0 {
            for child_off in self.parse_list(subkey_list_off, TAG_LF, "subkey list")? {
                subkeys.push(self.parse_key(child_off)?);
            }
        }
        let mut values = Vec::new();
        if value_list_off != 0 {
            for v_off in self.parse_list(value_list_off, TAG_VL, "value list")? {
                values.push(self.parse_value(v_off)?);
            }
        }
        Ok(RawKey {
            name,
            timestamp,
            values,
            subkeys,
        })
    }

    /// Salvage-mode key parse: the key's own header must parse (the caller
    /// records a defect and skips the key otherwise), but damage in its
    /// lists, children, or values is recorded and stepped over.
    fn parse_key_salvage(&mut self, off: u32) -> Result<RawKey, HiveFormatError> {
        self.bump()?;
        let mut s = self.slice_from(off, "key cell")?;
        let tag = read::<u16>(&mut s, "key tag")?;
        if tag != TAG_NK {
            return Err(HiveFormatError::BadCell {
                offset: off,
                expected: "nk",
            });
        }
        let name = read_name(&mut s, "key name")?;
        let timestamp = Tick(read::<u64>(&mut s, "key timestamp")?);
        let subkey_list_off = read::<u32>(&mut s, "subkey list offset")?;
        let value_list_off = read::<u32>(&mut s, "value list offset")?;

        let mut subkeys = Vec::new();
        if subkey_list_off != 0 {
            match self.parse_list(subkey_list_off, TAG_LF, "subkey list") {
                Ok(offs) => {
                    for child_off in offs {
                        match self.parse_key_salvage(child_off) {
                            Ok(k) => subkeys.push(k),
                            Err(e) => self.record(&e, child_off),
                        }
                    }
                }
                Err(e) => self.record(&e, subkey_list_off),
            }
        }
        let mut values = Vec::new();
        if value_list_off != 0 {
            match self.parse_list(value_list_off, TAG_VL, "value list") {
                Ok(offs) => {
                    for v_off in offs {
                        match self.parse_value(v_off) {
                            Ok(v) => values.push(v),
                            Err(e) => self.record(&e, v_off),
                        }
                    }
                }
                Err(e) => self.record(&e, value_list_off),
            }
        }
        Ok(RawKey {
            name,
            timestamp,
            values,
            subkeys,
        })
    }

    fn parse_list(
        &mut self,
        off: u32,
        want_tag: u16,
        context: &'static str,
    ) -> Result<Vec<u32>, HiveFormatError> {
        self.bump()?;
        let mut s = self.slice_from(off, context)?;
        let tag = read::<u16>(&mut s, context)?;
        if tag != want_tag {
            return Err(HiveFormatError::BadCell {
                offset: off,
                expected: if want_tag == TAG_LF { "lf" } else { "vl" },
            });
        }
        let count = read::<u32>(&mut s, context)?;
        // The count is untrusted: bound the allocation by the bytes that
        // could actually back it before reserving anything.
        if s.len() / 4 < count as usize {
            return Err(HiveFormatError::Truncated { context });
        }
        let mut offs = Vec::with_capacity(count as usize);
        for _ in 0..count {
            offs.push(read::<u32>(&mut s, context)?);
        }
        Ok(offs)
    }

    fn parse_value(&mut self, off: u32) -> Result<RawValue, HiveFormatError> {
        self.bump()?;
        let mut s = self.slice_from(off, "value cell")?;
        let tag = read::<u16>(&mut s, "value tag")?;
        if tag != TAG_VK {
            return Err(HiveFormatError::BadCell {
                offset: off,
                expected: "vk",
            });
        }
        let name = read_name(&mut s, "value name")?;
        let type_code = read::<u32>(&mut s, "value type")?;
        let declared_len = read::<u32>(&mut s, "value declared length")?;
        let data_off = read::<u32>(&mut s, "value data offset")?;

        let mut d = self.slice_from(data_off, "data cell")?;
        let dtag = read::<u16>(&mut d, "data tag")?;
        if dtag != TAG_DB {
            return Err(HiveFormatError::BadCell {
                offset: data_off,
                expected: "db",
            });
        }
        let stored_len = read::<u32>(&mut d, "data stored length")? as usize;
        if d.len() < stored_len {
            return Err(HiveFormatError::Truncated { context: "data" });
        }
        let data = d[..stored_len].to_vec();
        // Salvage semantics: disagreement marks the record corrupt.
        let corrupt = declared_len as usize != stored_len;
        Ok(RawValue {
            name,
            type_code,
            data,
            corrupt,
        })
    }
}

/// A length-checked read, failing with what was being read.
fn read<T: FromLe>(s: &mut &[u8], context: &'static str) -> Result<T, HiveFormatError> {
    T::read_le(s).ok_or(HiveFormatError::Truncated { context })
}

fn read_name(s: &mut &[u8], context: &'static str) -> Result<NtString, HiveFormatError> {
    read_units(s)
        .map(NtString::from)
        .ok_or(HiveFormatError::Truncated { context })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_tree() -> Key {
        let mut root = Key::new("SOFTWARE");
        root.timestamp = Tick(10);
        let ms = root.subkey_or_create(&NtString::from("Microsoft"), Tick(10));
        let win = ms.subkey_or_create(&NtString::from("Windows"), Tick(10));
        let cv = win.subkey_or_create(&NtString::from("CurrentVersion"), Tick(10));
        let run = cv.subkey_or_create(&NtString::from("Run"), Tick(11));
        run.set_value(Value::new("Updater", ValueData::sz("C:\\u.exe")));
        run.set_value(Value::new("Count", ValueData::Dword(3)));
        run.set_value(Value::new(
            "Multi",
            ValueData::MultiSz(vec![NtString::from("a"), NtString::from("b")]),
        ));
        run.set_value(Value::new("Blob", ValueData::Binary(vec![1, 2, 3])));
        root
    }

    #[test]
    fn roundtrip_structure_and_values() {
        let tree = sample_tree();
        let bytes = write_hive(&tree);
        let raw = RawHive::parse(&bytes).unwrap();
        assert_eq!(raw.root().name.to_win32_lossy(), "SOFTWARE");
        let run = raw
            .descend(&[
                NtString::from("microsoft"),
                NtString::from("windows"),
                NtString::from("currentversion"),
                NtString::from("run"),
            ])
            .unwrap();
        assert_eq!(run.values.len(), 4);
        assert_eq!(run.timestamp, Tick(11));
        let updater = run
            .values
            .iter()
            .find(|v| v.name.to_win32_lossy() == "Updater")
            .unwrap();
        assert_eq!(updater.type_code, 1);
        assert!(!updater.corrupt);
        // UTF-16LE of "C:\u.exe"
        assert_eq!(updater.data.len(), 16);
    }

    #[test]
    fn corrupt_value_is_salvaged_and_flagged() {
        let mut root = Key::new("SOFTWARE");
        let mut v = Value::new("AppInit_DLLs", ValueData::sz("msvsres.dll"));
        v.corrupt_data = true;
        root.set_value(v);
        let raw = RawHive::parse(&write_hive(&root)).unwrap();
        let rv = &raw.root().values[0];
        assert!(rv.corrupt);
        assert_eq!(rv.data.len(), "msvsres.dll".len() * 2, "bytes salvaged");
    }

    #[test]
    fn nul_embedded_value_name_round_trips() {
        let mut root = Key::new("R");
        let sneaky = NtString::from_units(&[b'x' as u16, 0, b'y' as u16]);
        root.set_value(Value::new(sneaky.clone(), ValueData::Dword(1)));
        let raw = RawHive::parse(&write_hive(&root)).unwrap();
        assert_eq!(raw.root().values[0].name, sneaky);
        assert!(raw.root().values[0].name.contains_nul());
    }

    #[test]
    fn bad_magic_and_truncation() {
        assert!(matches!(
            RawHive::parse(b"XXXXXXXXXXXXXXXXXX"),
            Err(HiveFormatError::BadMagic)
        ));
        assert!(matches!(
            RawHive::parse(&[]),
            Err(HiveFormatError::Truncated { .. })
        ));
        let bytes = write_hive(&sample_tree());
        assert!(matches!(
            RawHive::parse(&bytes[..bytes.len() - 2]),
            Err(HiveFormatError::Truncated { .. })
        ));
    }

    #[test]
    fn all_values_flattens_with_paths() {
        let raw = RawHive::parse(&write_hive(&sample_tree())).unwrap();
        let all = raw.all_values();
        assert_eq!(all.len(), 4);
        let (path, _) = &all[0];
        assert_eq!(path.len(), 4, "Run is 4 levels below the hive root");
    }

    #[test]
    fn dangling_root_offset_is_rejected() {
        let tree = Key::new("X");
        let mut bytes = write_hive(&tree);
        let huge = (bytes.len() as u32 + 100).to_le_bytes();
        bytes[12..16].copy_from_slice(&huge);
        assert!(matches!(
            RawHive::parse(&bytes),
            Err(HiveFormatError::Truncated { .. })
        ));
    }

    #[test]
    fn oversized_list_count_is_an_error_not_an_allocation() {
        let mut root = Key::new("R");
        root.subkey_or_create(&NtString::from("child"), Tick(1));
        let mut bytes = write_hive(&root);
        // Find the lf list cell and blow up its count field.
        let pos = bytes
            .windows(2)
            .position(|w| w == TAG_LF.to_le_bytes())
            .unwrap();
        bytes[pos + 2..pos + 6].copy_from_slice(&u32::MAX.to_le_bytes());
        assert!(matches!(
            RawHive::parse(&bytes),
            Err(HiveFormatError::Truncated { .. })
        ));
    }

    #[test]
    fn salvage_on_clean_hive_is_clean_and_identical_to_strict() {
        let bytes = write_hive(&sample_tree());
        let strict = RawHive::parse(&bytes).unwrap();
        let salvaged = RawHive::parse_salvage(&bytes);
        assert!(salvaged.is_clean());
        assert_eq!(salvaged.value.root(), strict.root());
    }

    #[test]
    fn salvage_skips_damaged_subtree_and_keeps_the_rest() {
        let mut root = Key::new("SOFTWARE");
        let keep = root.subkey_or_create(&NtString::from("Keep"), Tick(1));
        keep.set_value(Value::new("v", ValueData::Dword(7)));
        root.subkey_or_create(&NtString::from("Damaged"), Tick(1));
        let mut bytes = write_hive(&root);
        // Children serialize before parents: "Keep"'s subtree is written
        // first, then "Damaged"'s nk cell. Corrupt Damaged's tag.
        let needle: Vec<u8> = {
            let mut n = Vec::new();
            n.extend_from_slice(&TAG_NK.to_le_bytes());
            n.extend_from_slice(&(7u16).to_le_bytes()); // name length
            for u in NtString::from("Damaged").units() {
                n.extend_from_slice(&u.to_le_bytes());
            }
            n
        };
        let pos = bytes
            .windows(needle.len())
            .position(|w| w == needle)
            .unwrap();
        bytes[pos] = 0xFF;
        bytes[pos + 1] = 0xFF;

        assert!(RawHive::parse(&bytes).is_err(), "strict parse must fail");
        let salvaged = RawHive::parse_salvage(&bytes);
        assert_eq!(salvaged.defects.len(), 1);
        assert_eq!(salvaged.defects[0].kind, DefectKind::BadRecord);
        let names: Vec<String> = salvaged
            .value
            .root()
            .subkeys
            .iter()
            .map(|k| k.name.to_win32_lossy())
            .collect();
        assert_eq!(names, vec!["Keep"], "surviving subtree is kept");
        assert_eq!(salvaged.value.root().subkeys[0].values.len(), 1);
    }

    #[test]
    fn salvage_of_garbage_yields_empty_root_plus_defect() {
        let salvaged = RawHive::parse_salvage(b"not a hive at all");
        assert_eq!(salvaged.value.root().subkeys.len(), 0);
        assert_eq!(salvaged.defects.len(), 1);
        assert_eq!(salvaged.defects[0].kind, DefectKind::BadMagic);
        let short = RawHive::parse_salvage(&[1, 2, 3]);
        assert_eq!(short.defects[0].kind, DefectKind::Truncated);
    }

    #[test]
    fn wrong_cell_tag_is_rejected() {
        let tree = Key::new("X");
        let mut bytes = write_hive(&tree);
        // Point root at offset 16, which after an empty-tree write is the
        // key cell itself — corrupt its tag instead.
        let root_off = u32::from_le_bytes(bytes[12..16].try_into().unwrap()) as usize;
        bytes[root_off] = 0xFF;
        bytes[root_off + 1] = 0xFF;
        assert!(matches!(
            RawHive::parse(&bytes),
            Err(HiveFormatError::BadCell { .. })
        ));
    }
}
