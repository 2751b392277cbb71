//! Raw volume image: binary serialization and the independent MFT parser.
//!
//! The writer emits one record per MFT slot (free slots included, flagged
//! not-in-use, as on a real volume). Crucially it does **not** emit directory
//! child indexes: the parser reconstructs the tree purely from each record's
//! parent reference, exactly like a forensic MFT sweep. This keeps the
//! low-level scan's code path disjoint from the live driver's lookup path,
//! which is what makes the cross-view diff meaningful.

use crate::record::FileAttributes;
use crate::volume::NtfsVolume;
use std::collections::HashMap;
use std::fmt;
use strider_nt_core::{FileRecordNumber, NtPath, NtString, Tick};
use strider_support::bytes::{Buf, BufMut, Bytes, BytesMut};
use strider_support::fault::{Defect, DefectKind, Salvaged};

const MAGIC: &[u8; 8] = b"SNTFS1\0\0";
const VERSION: u32 = 1;

/// Serializes a live volume to its raw image bytes.
pub(crate) fn write_image(vol: &NtfsVolume) -> Vec<u8> {
    let mut buf = BytesMut::with_capacity(4096);
    buf.put_slice(MAGIC);
    buf.put_u32_le(VERSION);
    let label = vol.label().as_bytes();
    buf.put_u16_le(label.len() as u16);
    buf.put_slice(label);
    buf.put_u64_le(vol.slot_count() as u64);
    for slot in 0..vol.slot_count() {
        match vol.record(FileRecordNumber(slot as u64)) {
            None => buf.put_u8(0),
            Some(rec) => {
                buf.put_u8(1);
                buf.put_u64_le(rec.number.0);
                buf.put_u16_le(rec.sequence);
                buf.put_u64_le(rec.std_info.created.0);
                buf.put_u64_le(rec.std_info.modified.0);
                buf.put_u32_le(rec.std_info.attributes.0);
                buf.put_u64_le(rec.parent.0);
                put_name(&mut buf, &rec.name);
                buf.put_u16_le(rec.streams.len() as u16);
                for s in &rec.streams {
                    match &s.name {
                        None => buf.put_u8(0),
                        Some(n) => {
                            buf.put_u8(1);
                            put_name(&mut buf, n);
                        }
                    }
                    buf.put_u64_le(s.data.len() as u64);
                    buf.put_slice(&s.data);
                }
            }
        }
    }
    buf.to_vec()
}

fn put_name(buf: &mut BytesMut, name: &NtString) {
    buf.put_u16_le(name.len() as u16);
    for &u in name.units() {
        buf.put_u16_le(u);
    }
}

/// Error produced while parsing a raw volume image.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ImageError {
    /// The image is shorter than the structure it claims to hold.
    Truncated {
        /// What was being parsed when the bytes ran out.
        context: &'static str,
    },
    /// The magic header is wrong.
    BadMagic,
    /// The format version is unsupported.
    BadVersion(u32),
}

impl fmt::Display for ImageError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ImageError::Truncated { context } => {
                write!(f, "image truncated while reading {context}")
            }
            ImageError::BadMagic => write!(f, "bad image magic"),
            ImageError::BadVersion(v) => write!(f, "unsupported image version {v}"),
        }
    }
}

impl std::error::Error for ImageError {}

/// Maps a strict-parse error to the workspace-wide salvage vocabulary;
/// `offset` is where parsing stood when the damage surfaced and `total` the
/// image length, so `bytes_lost` is the unreadable tail.
fn defect_for(e: &ImageError, offset: u64, total: u64) -> Defect {
    let (kind, context) = match e {
        ImageError::Truncated { context } => (DefectKind::Truncated, *context),
        ImageError::BadMagic => (DefectKind::BadMagic, "image magic"),
        ImageError::BadVersion(_) => (DefectKind::BadVersion, "image version"),
    };
    Defect::new(kind, offset, total.saturating_sub(offset), context)
}

/// One file entry recovered from the raw image.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RawFileEntry {
    /// MFT record number.
    pub number: FileRecordNumber,
    /// Record sequence number.
    pub sequence: u16,
    /// Creation tick.
    pub created: Tick,
    /// Last-modified tick.
    pub modified: Tick,
    /// Attribute flags.
    pub attributes: FileAttributes,
    /// Parent record number.
    pub parent: FileRecordNumber,
    /// The counted name.
    pub name: NtString,
    /// Total data bytes across streams.
    pub data_len: u64,
    /// Names of alternate data streams.
    pub ads_names: Vec<NtString>,
}

impl RawFileEntry {
    /// Whether the entry is a directory.
    pub fn is_directory(&self) -> bool {
        self.attributes.contains(FileAttributes::DIRECTORY)
    }
}

/// A parsed raw volume image: the truth the low-level file scan works from.
///
/// # Examples
///
/// ```
/// use strider_ntfs::{NtfsVolume, VolumeImage};
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let mut vol = NtfsVolume::new("C:");
/// vol.create_file(&"C:\\a.txt".parse()?, b"hi")?;
/// let raw = VolumeImage::parse(&vol.to_image())?;
/// assert_eq!(raw.entries().len(), 2); // root + file
/// assert_eq!(raw.file_paths().len(), 1); // just the file
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct VolumeImage {
    label: String,
    entries: Vec<RawFileEntry>,
    image_len: u64,
}

impl VolumeImage {
    /// Parses raw image bytes.
    ///
    /// # Errors
    ///
    /// Returns [`ImageError`] if the bytes are truncated or the header is
    /// not a supported volume image.
    pub fn parse(bytes: &[u8]) -> Result<Self, ImageError> {
        let mut buf = Bytes::copy_from_slice(bytes);
        let image_len = bytes.len() as u64;
        let (label, slot_count) = parse_header(&mut buf)?;
        let mut entries = Vec::new();
        for _ in 0..slot_count {
            if let Some(entry) = parse_entry(&mut buf)? {
                entries.push(entry);
            }
        }
        Ok(Self {
            label,
            entries,
            image_len,
        })
    }

    /// Best-effort parse for damaged images. MFT records are written
    /// back-to-back with no framing, so a record that fails to parse makes
    /// everything after it unaddressable: salvage keeps every entry up to
    /// the damage, records one [`Defect`] locating it and counting the
    /// unreadable tail, and returns. Never panics and never errors; an
    /// image damaged in the header salvages to an empty entry list.
    pub fn parse_salvage(bytes: &[u8]) -> Salvaged<Self> {
        let image_len = bytes.len() as u64;
        let mut buf = Bytes::copy_from_slice(bytes);
        let (label, slot_count) = match parse_header(&mut buf) {
            Ok(header) => header,
            Err(e) => {
                let offset = image_len - buf.remaining() as u64;
                return Salvaged {
                    value: Self {
                        label: String::new(),
                        entries: Vec::new(),
                        image_len,
                    },
                    defects: vec![defect_for(&e, offset, image_len)],
                };
            }
        };
        let mut entries = Vec::new();
        let mut defects = Vec::new();
        for _ in 0..slot_count {
            let offset = image_len - buf.remaining() as u64;
            match parse_entry(&mut buf) {
                Ok(Some(entry)) => entries.push(entry),
                Ok(None) => {}
                Err(e) => {
                    defects.push(defect_for(&e, offset, image_len));
                    break;
                }
            }
        }
        Salvaged {
            value: Self {
                label,
                entries,
                image_len,
            },
            defects,
        }
    }

    /// The volume label recovered from the image.
    pub fn label(&self) -> &str {
        &self.label
    }

    /// Total size of the parsed image in bytes (drives the cost model's
    /// sequential-read estimate).
    pub fn image_len(&self) -> u64 {
        self.image_len
    }

    /// All in-use entries, including the root directory.
    pub fn entries(&self) -> &[RawFileEntry] {
        &self.entries
    }

    /// Reconstructs full paths for every *file* entry (directories excluded)
    /// by chasing parent references — the forensic MFT sweep.
    ///
    /// Entries whose parent chain is broken or cyclic are reported under the
    /// synthetic root `<orphaned>` rather than dropped: an orphaned-but-in-use
    /// record is exactly the kind of anomaly a detector must not hide. A
    /// cyclic chain stops at the first record already on it, so each record's
    /// name appears at most once: records `a` and `b` that name each other as
    /// parent give `<orphaned>\b\a` and `<orphaned>\a\b`.
    pub fn file_paths(&self) -> Vec<(NtPath, &RawFileEntry)> {
        self.paths_internal(false)
    }

    /// Reconstructs full paths for every entry including directories.
    pub fn all_paths(&self) -> Vec<(NtPath, &RawFileEntry)> {
        self.paths_internal(true)
    }

    /// [`VolumeImage::all_paths`], rendered: each entry's
    /// `(path.fold_key(), path.to_string(), entry)` in the same order, without
    /// building the paths. An entry whose parent chain reaches the root
    /// renders its strings once, from its parent's rendering; an orphaned
    /// entry renders its [`VolumeImage::all_paths`] path.
    pub fn rendered_paths(&self) -> Vec<(String, String, &RawFileEntry)> {
        let mut walk = ParentWalk::new(&self.entries);
        let mut chain = Vec::new();
        let root_key = self.label.to_ascii_lowercase();
        // Renderings of entries whose chains reach the root, by entry index.
        let mut rendered: Vec<Option<(String, String)>> = vec![None; self.entries.len()];
        for start in 0..self.entries.len() {
            if self.entries[start].number.0 == 0 || rendered[start].is_some() {
                continue;
            }
            let mut parent = match walk.walk(start, |k| rendered[k].is_some(), &mut chain) {
                WalkEnd::Root => None,
                WalkEnd::Known(k) => Some(k),
                WalkEnd::Orphaned => continue,
            };
            // Every record on a chain that reaches the root reaches it too:
            // render them farthest first, each from its parent.
            for &k in chain.iter().rev().chain(std::iter::once(&start)) {
                let (parent_key, parent_display) = match parent.and_then(|p| rendered[p].as_ref()) {
                    Some((key, display)) => (key.as_str(), display.as_str()),
                    None => (root_key.as_str(), self.label.as_str()),
                };
                rendered[k] = Some(
                    self.entries[k]
                        .name
                        .render_under(parent_key, parent_display),
                );
                parent = Some(k);
            }
        }
        self.entries
            .iter()
            .enumerate()
            .filter(|(_, entry)| entry.number.0 != 0)
            .map(|(i, entry)| match rendered[i].take() {
                Some((key, display)) => (key, display, entry),
                None => {
                    let path = self.path_of(&mut walk, i, &mut chain);
                    (path.fold_key(), path.to_display_string(), entry)
                }
            })
            .collect()
    }

    fn paths_internal(&self, include_dirs: bool) -> Vec<(NtPath, &RawFileEntry)> {
        let mut walk = ParentWalk::new(&self.entries);
        let mut chain = Vec::new();
        let mut out = Vec::new();
        for (i, entry) in self.entries.iter().enumerate() {
            if entry.number.0 == 0 {
                continue; // root itself
            }
            if entry.is_directory() && !include_dirs {
                continue;
            }
            out.push((self.path_of(&mut walk, i, &mut chain), entry));
        }
        out
    }

    /// The full path of `entries[start]`: under the label when its parent
    /// chain reaches the root, under `<orphaned>` otherwise.
    fn path_of(&self, walk: &mut ParentWalk<'_>, start: usize, chain: &mut Vec<usize>) -> NtPath {
        let root = match walk.walk(start, |_| false, chain) {
            WalkEnd::Orphaned => "<orphaned>",
            _ => &self.label,
        };
        let names = chain
            .iter()
            .rev()
            .chain(std::iter::once(&start))
            .map(|&k| self.entries[k].name.clone());
        NtPath::from_components(root, names)
    }
}

/// How a parent walk ended.
enum WalkEnd {
    /// At the volume root (record 0).
    Root,
    /// At an ancestor the caller already knows, by entry index.
    Known(usize),
    /// At a missing parent, or at a record already on the chain (a cycle).
    Orphaned,
}

/// The one parent-walk rule, shared by every path reconstruction.
struct ParentWalk<'a> {
    entries: &'a [RawFileEntry],
    /// Record number → entry index (the last entry, should a damaged image
    /// repeat a number).
    by_number: HashMap<u64, usize>,
    /// `on_chain[k] == walks` while entry `k` is on the current walk's chain.
    on_chain: Vec<u64>,
    walks: u64,
}

impl<'a> ParentWalk<'a> {
    fn new(entries: &'a [RawFileEntry]) -> Self {
        Self {
            entries,
            by_number: entries
                .iter()
                .enumerate()
                .map(|(i, e)| (e.number.0, i))
                .collect(),
            on_chain: vec![0; entries.len()],
            walks: 0,
        }
    }

    /// Follows parent references up from `entries[start]`, pushing each
    /// ancestor's index (nearest first) into `chain`, until the root, an
    /// ancestor `known` accepts (not pushed), a missing parent, or a record
    /// already on the chain. Each record is visited at most once, so a walk
    /// costs at most one step per entry even on a cyclic chain.
    fn walk(
        &mut self,
        start: usize,
        known: impl Fn(usize) -> bool,
        chain: &mut Vec<usize>,
    ) -> WalkEnd {
        chain.clear();
        self.walks += 1;
        self.on_chain[start] = self.walks;
        let mut cur = self.entries[start].parent.0;
        while cur != 0 {
            let Some(&k) = self.by_number.get(&cur) else {
                return WalkEnd::Orphaned;
            };
            if self.on_chain[k] == self.walks {
                return WalkEnd::Orphaned;
            }
            if known(k) {
                return WalkEnd::Known(k);
            }
            self.on_chain[k] = self.walks;
            chain.push(k);
            cur = self.entries[k].parent.0;
        }
        WalkEnd::Root
    }
}

/// Reads the image header, returning the volume label and slot count. All
/// reads are length-checked.
fn parse_header(buf: &mut Bytes) -> Result<(String, u64), ImageError> {
    if buf.remaining() < 8 {
        return Err(ImageError::Truncated { context: "magic" });
    }
    let mut magic = [0u8; 8];
    buf.copy_to_slice(&mut magic);
    if &magic != MAGIC {
        return Err(ImageError::BadMagic);
    }
    let version = get_u32(buf, "version")?;
    if version != VERSION {
        return Err(ImageError::BadVersion(version));
    }
    let label_len = get_u16(buf, "label length")? as usize;
    if buf.remaining() < label_len {
        return Err(ImageError::Truncated { context: "label" });
    }
    let label_bytes = buf.copy_to_bytes(label_len);
    let label = String::from_utf8_lossy(&label_bytes).into_owned();
    let slot_count = get_u64(buf, "slot count")?;
    Ok((label, slot_count))
}

/// Reads one MFT slot; `None` is a free (not-in-use) slot. Every length and
/// offset field is checked against the bytes actually remaining before it is
/// honored, so arbitrary field values cannot cause out-of-bounds reads or
/// oversized allocations.
fn parse_entry(buf: &mut Bytes) -> Result<Option<RawFileEntry>, ImageError> {
    let in_use = get_u8(buf, "in-use flag")?;
    if in_use == 0 {
        return Ok(None);
    }
    let number = FileRecordNumber(get_u64(buf, "record number")?);
    let sequence = get_u16(buf, "sequence")?;
    let created = Tick(get_u64(buf, "created")?);
    let modified = Tick(get_u64(buf, "modified")?);
    let attributes = FileAttributes(get_u32(buf, "attributes")?);
    let parent = FileRecordNumber(get_u64(buf, "parent")?);
    let name = get_name(buf, "name")?;
    let stream_count = get_u16(buf, "stream count")?;
    let mut data_len = 0u64;
    let mut ads_names = Vec::new();
    for _ in 0..stream_count {
        let named = get_u8(buf, "stream name flag")?;
        if named == 1 {
            ads_names.push(get_name(buf, "stream name")?);
        }
        let len = get_u64(buf, "stream length")?;
        if (buf.remaining() as u64) < len {
            return Err(ImageError::Truncated {
                context: "stream data",
            });
        }
        buf.advance(len as usize);
        data_len += len;
    }
    Ok(Some(RawFileEntry {
        number,
        sequence,
        created,
        modified,
        attributes,
        parent,
        name,
        data_len,
        ads_names,
    }))
}

fn get_u8(buf: &mut Bytes, context: &'static str) -> Result<u8, ImageError> {
    if buf.remaining() < 1 {
        return Err(ImageError::Truncated { context });
    }
    Ok(buf.get_u8())
}

fn get_u16(buf: &mut Bytes, context: &'static str) -> Result<u16, ImageError> {
    if buf.remaining() < 2 {
        return Err(ImageError::Truncated { context });
    }
    Ok(buf.get_u16_le())
}

fn get_u32(buf: &mut Bytes, context: &'static str) -> Result<u32, ImageError> {
    if buf.remaining() < 4 {
        return Err(ImageError::Truncated { context });
    }
    Ok(buf.get_u32_le())
}

fn get_u64(buf: &mut Bytes, context: &'static str) -> Result<u64, ImageError> {
    if buf.remaining() < 8 {
        return Err(ImageError::Truncated { context });
    }
    Ok(buf.get_u64_le())
}

fn get_name(buf: &mut Bytes, context: &'static str) -> Result<NtString, ImageError> {
    let len = get_u16(buf, context)? as usize;
    if buf.remaining() < len * 2 {
        return Err(ImageError::Truncated { context });
    }
    let mut units = Vec::with_capacity(len);
    for _ in 0..len {
        units.push(buf.get_u16_le());
    }
    Ok(NtString::from_units(&units))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn p(s: &str) -> NtPath {
        s.parse().unwrap()
    }

    fn sample_volume() -> NtfsVolume {
        let mut v = NtfsVolume::new("C:");
        v.mkdir_p(&p("C:\\windows\\system32")).unwrap();
        v.create_file(&p("C:\\windows\\system32\\hxdef100.exe"), b"MZ")
            .unwrap();
        v.create_file(&p("C:\\windows\\system32\\hxdef100.ini"), b"[H]")
            .unwrap();
        v
    }

    #[test]
    fn roundtrip_preserves_every_file() {
        let v = sample_volume();
        let raw = VolumeImage::parse(&v.to_image()).unwrap();
        assert_eq!(raw.label(), "C:");
        let paths: Vec<String> = raw
            .file_paths()
            .iter()
            .map(|(p, _)| p.to_string())
            .collect();
        assert_eq!(
            paths,
            vec![
                "C:\\windows\\system32\\hxdef100.exe".to_string(),
                "C:\\windows\\system32\\hxdef100.ini".to_string(),
            ]
        );
    }

    #[test]
    fn all_paths_includes_directories() {
        let v = sample_volume();
        let raw = VolumeImage::parse(&v.to_image()).unwrap();
        let paths: Vec<String> = raw.all_paths().iter().map(|(p, _)| p.to_string()).collect();
        assert!(paths.contains(&"C:\\windows".to_string()));
        assert!(paths.contains(&"C:\\windows\\system32".to_string()));
    }

    #[test]
    fn free_slots_survive_roundtrip_silently() {
        let mut v = sample_volume();
        v.create_file(&p("C:\\temp"), b"x").unwrap();
        v.remove_file(&p("C:\\temp")).unwrap();
        let raw = VolumeImage::parse(&v.to_image()).unwrap();
        // Free slot serialized as not-in-use, not reported.
        assert_eq!(raw.file_paths().len(), 2);
    }

    #[test]
    fn metadata_roundtrips() {
        let mut v = NtfsVolume::new("D:");
        v.set_clock(Tick(42));
        v.create_file_with(&p("D:\\h.txt"), b"abc", FileAttributes::HIDDEN)
            .unwrap();
        v.add_stream(&p("D:\\h.txt"), "extra", b"zz").unwrap();
        let raw = VolumeImage::parse(&v.to_image()).unwrap();
        let (_, e) = &raw.file_paths()[0];
        assert_eq!(e.created, Tick(42));
        assert!(e.attributes.contains(FileAttributes::HIDDEN));
        assert_eq!(e.data_len, 5);
        assert_eq!(e.ads_names.len(), 1);
        assert_eq!(e.ads_names[0].to_win32_lossy(), "extra");
    }

    #[test]
    fn salvage_on_clean_image_matches_strict() {
        let v = sample_volume();
        let bytes = v.to_image();
        let strict = VolumeImage::parse(&bytes).unwrap();
        let salvaged = VolumeImage::parse_salvage(&bytes);
        assert!(salvaged.is_clean());
        assert_eq!(salvaged.value.entries(), strict.entries());
        assert_eq!(salvaged.value.label(), strict.label());
    }

    #[test]
    fn salvage_keeps_entries_before_the_damage() {
        let v = sample_volume();
        let bytes = v.to_image();
        let cut = bytes.len() - 10;
        assert!(VolumeImage::parse(&bytes[..cut]).is_err());
        let salvaged = VolumeImage::parse_salvage(&bytes[..cut]);
        assert_eq!(salvaged.defects.len(), 1);
        assert_eq!(
            salvaged.defects[0].kind,
            strider_support::fault::DefectKind::Truncated
        );
        assert!(salvaged.defects[0].bytes_lost > 0);
        // Root + system32 tree is 4 entries; the cut only loses the tail.
        assert!(!salvaged.value.entries().is_empty());
        assert!(salvaged.value.entries().len() < 5);
    }

    #[test]
    fn salvage_of_garbage_header_is_empty_with_defect() {
        let salvaged = VolumeImage::parse_salvage(b"NOTANIMG________");
        assert!(salvaged.value.entries().is_empty());
        assert_eq!(
            salvaged.defects[0].kind,
            strider_support::fault::DefectKind::BadMagic
        );
    }

    #[test]
    fn bad_magic_rejected() {
        assert!(matches!(
            VolumeImage::parse(b"NOTANIMG________"),
            Err(ImageError::BadMagic)
        ));
    }

    #[test]
    fn truncated_image_rejected() {
        let v = sample_volume();
        let img = v.to_image();
        let cut = &img[..img.len() - 3];
        assert!(matches!(
            VolumeImage::parse(cut),
            Err(ImageError::Truncated { .. })
        ));
    }

    #[test]
    fn empty_input_rejected() {
        assert!(matches!(
            VolumeImage::parse(&[]),
            Err(ImageError::Truncated { .. })
        ));
    }

    /// Re-points `child`'s parent reference at `parent` in `image`: finds the
    /// record by its exact header bytes and patches the parent field.
    fn repoint_parent(image: &mut [u8], child: &RawFileEntry, parent: FileRecordNumber) {
        let mut header = vec![1u8];
        header.extend(child.number.0.to_le_bytes());
        header.extend(child.sequence.to_le_bytes());
        header.extend(child.created.0.to_le_bytes());
        header.extend(child.modified.0.to_le_bytes());
        header.extend(child.attributes.0.to_le_bytes());
        let parent_at = header.len();
        header.extend(child.parent.0.to_le_bytes());
        header.extend((child.name.len() as u16).to_le_bytes());
        header.extend(child.name.units().iter().flat_map(|u| u.to_le_bytes()));
        let at = image
            .windows(header.len())
            .position(|w| w == header)
            .expect("record header present");
        image[at + parent_at..at + parent_at + 8].copy_from_slice(&parent.0.to_le_bytes());
    }

    #[test]
    fn cyclic_parent_chain_names_each_record_once() {
        let mut v = NtfsVolume::new("C:");
        v.mkdir_p(&p("C:\\a\\b")).unwrap();
        for i in 0..2001 {
            v.create_file(&p(&format!("C:\\f{i}")), b"").unwrap();
        }
        let mut image = v.to_image();
        let raw = VolumeImage::parse(&image).unwrap();
        assert_eq!(raw.entries().len(), 2004);
        let named = |raw: &VolumeImage, n: &str| {
            let name = NtString::from(n);
            raw.entries()
                .iter()
                .find(|e| e.name == name)
                .unwrap()
                .clone()
        };
        let (a, b) = (named(&raw, "a"), named(&raw, "b"));
        // `a` is `b`'s parent; make `b` `a`'s parent too.
        repoint_parent(&mut image, &a, b.number);
        let raw = VolumeImage::parse(&image).unwrap();
        let cyclic: Vec<String> = raw
            .all_paths()
            .iter()
            .filter(|(_, e)| e.number == a.number || e.number == b.number)
            .map(|(p, _)| p.to_string())
            .collect();
        assert_eq!(cyclic, vec!["<orphaned>\\b\\a", "<orphaned>\\a\\b"]);
    }

    #[test]
    fn win32_illegal_names_round_trip() {
        let mut v = NtfsVolume::new("C:");
        v.create_file(&p("C:\\update."), b"x").unwrap();
        let raw = VolumeImage::parse(&v.to_image()).unwrap();
        assert_eq!(raw.file_paths()[0].0.to_string(), "C:\\update.");
    }
}
