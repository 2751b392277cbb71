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
use strider_nt_core::{
    key_order, FileRecordNumber, NtPath, NtString, Placed, Tick, TreeSlot, NO_NODE,
};
use strider_support::bytes::{read_slice, read_units, BufMut, FromLe};
use strider_support::fault::{Defect, DefectKind, Salvaged};

const MAGIC: &[u8; 8] = b"SNTFS1\0\0";
const VERSION: u32 = 1;

/// Serializes a live volume to its raw image bytes.
pub(crate) fn write_image(vol: &NtfsVolume) -> Vec<u8> {
    let mut buf = Vec::with_capacity(4096);
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
    buf
}

fn put_name(buf: &mut Vec<u8>, name: &NtString) {
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

/// Where the entries of a [`VolumeImage`] render their paths from; see
/// [`VolumeImage::placement`].
#[derive(Debug)]
pub struct Placement {
    /// The entries whose parent chain reaches the root, as [`key_order`]
    /// emits them: [`Placed::item`] indexes [`VolumeImage::entries`], and
    /// [`Placed::parent`] is the position here of the directory the entry
    /// renders under, or [`ROOT_PARENT`](strider_nt_core::ROOT_PARENT) for the
    /// volume label.
    pub tree: Vec<Placed>,
    /// Every other entry but the root records, in entry order, with its
    /// `<orphaned>` path.
    pub orphans: Vec<(usize, NtPath)>,
}

/// A parsed raw volume image: the truth the low-level file scan works from.
///
/// It owns every entry it recovered and borrows nothing from the bytes it
/// was parsed from, so a caller may release the image as soon as
/// [`VolumeImage::parse`] returns. [`VolumeImage::placement`] builds the
/// record-number map that links entries to their parents and drops it
/// once the tree slots are built.
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
        let mut buf = bytes;
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
        let mut buf = bytes;
        let (label, slot_count) = match parse_header(&mut buf) {
            Ok(header) => header,
            Err(e) => {
                let offset = image_len - buf.len() as u64;
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
            let offset = image_len - buf.len() as u64;
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

    /// Places every entry but the root records for rendering its path
    /// from its parent's: the entries that reach the root in key order, so
    /// that each renders once from its directory's rendering, and the
    /// orphans with their [`VolumeImage::all_paths`] paths. Together they
    /// hold each entry [`VolumeImage::all_paths`] lists exactly once.
    pub fn placement(&self) -> Placement {
        let slots = self.slots();
        let tree = key_order(self.entries.len() + 1, &slots, |k| {
            self.entries[k].name.units()
        });
        let mut reached = vec![false; self.entries.len()];
        for p in &tree {
            reached[p.item as usize] = true;
        }
        let (mut walk, mut chain) = (ParentWalk::new(&slots), Vec::new());
        let orphans = (0..self.entries.len())
            .filter(|&k| self.entries[k].number.0 != 0 && !reached[k])
            .map(|k| (k, self.path_of(&mut walk, k, &mut chain)))
            .collect();
        Placement { tree, orphans }
    }

    /// Entry `k`'s place in the MFT tree: it heads node `k + 1` (node 0 is
    /// the root) and is listed in its parent record's node. The
    /// record-number map this is built from is dropped on return.
    fn slots(&self) -> Vec<TreeSlot> {
        // The last entry, should a damaged image repeat a number.
        let by_number: HashMap<u64, usize> = (self.entries.iter().enumerate())
            .map(|(k, e)| (e.number.0, k))
            .collect();
        (self.entries.iter().enumerate())
            .map(|(k, entry)| TreeSlot {
                node: match (entry.number.0, entry.parent.0) {
                    (0, _) => NO_NODE,
                    (_, 0) => 0,
                    (_, parent) => by_number.get(&parent).map_or(NO_NODE, |&p| p as u32 + 1),
                },
                heads: k as u32 + 1,
            })
            .collect()
    }

    fn paths_internal(&self, include_dirs: bool) -> Vec<(NtPath, &RawFileEntry)> {
        let slots = self.slots();
        let (mut walk, mut chain) = (ParentWalk::new(&slots), Vec::new());
        // Record 0 is the root itself.
        (self.entries.iter().enumerate())
            .filter(|(_, entry)| entry.number.0 != 0 && (include_dirs || !entry.is_directory()))
            .map(|(k, entry)| (self.path_of(&mut walk, k, &mut chain), entry))
            .collect()
    }

    /// The full path of `entries[start]`: under the label when its parent
    /// chain reaches the root, under `<orphaned>` otherwise.
    fn path_of(&self, walk: &mut ParentWalk<'_>, start: usize, chain: &mut Vec<usize>) -> NtPath {
        let root = if walk.reaches_root(start, chain) {
            &self.label
        } else {
            "<orphaned>"
        };
        let names = chain
            .iter()
            .rev()
            .chain(std::iter::once(&start))
            .map(|&k| self.entries[k].name.clone());
        NtPath::from_components(root, names)
    }
}

/// The one parent-walk rule, shared by every path reconstruction: it
/// follows the parent links of [`VolumeImage::slots`].
struct ParentWalk<'a> {
    slots: &'a [TreeSlot],
    /// `on_chain[k] == walks` while entry `k` is on the current walk's chain.
    on_chain: Vec<u64>,
    walks: u64,
}

impl<'a> ParentWalk<'a> {
    fn new(slots: &'a [TreeSlot]) -> Self {
        Self {
            slots,
            on_chain: vec![0; slots.len()],
            walks: 0,
        }
    }

    /// Follows parent links up from entry `start`, pushing each ancestor's
    /// index (nearest first) into `chain`, and says whether the walk ended
    /// at the root rather than at a missing parent or a record already on
    /// the chain. Each record is visited at most once, so a walk costs at
    /// most one step per entry even on a cyclic chain.
    fn reaches_root(&mut self, start: usize, chain: &mut Vec<usize>) -> bool {
        chain.clear();
        self.walks += 1;
        self.on_chain[start] = self.walks;
        let mut node = self.slots[start].node;
        while node != 0 {
            if node == NO_NODE {
                return false;
            }
            let k = node as usize - 1;
            if self.on_chain[k] == self.walks {
                return false;
            }
            self.on_chain[k] = self.walks;
            chain.push(k);
            node = self.slots[k].node;
        }
        true
    }
}

/// Reads the image header, returning the volume label and slot count. All
/// reads are length-checked.
fn parse_header(buf: &mut &[u8]) -> Result<(String, u64), ImageError> {
    if &get::<[u8; 8]>(buf, "magic")? != MAGIC {
        return Err(ImageError::BadMagic);
    }
    let version = get(buf, "version")?;
    if version != VERSION {
        return Err(ImageError::BadVersion(version));
    }
    let label_len = get::<u16>(buf, "label length")?;
    let label_bytes = read_slice(buf, usize::from(label_len));
    let label_bytes = label_bytes.ok_or(ImageError::Truncated { context: "label" })?;
    let label = String::from_utf8_lossy(label_bytes).into_owned();
    let slot_count = get(buf, "slot count")?;
    Ok((label, slot_count))
}

/// Reads one MFT slot; `None` is a free (not-in-use) slot. Every length and
/// offset field is checked against the bytes actually remaining before it is
/// honored, so arbitrary field values cannot cause out-of-bounds reads or
/// oversized allocations.
fn parse_entry(buf: &mut &[u8]) -> Result<Option<RawFileEntry>, ImageError> {
    let in_use: u8 = get(buf, "in-use flag")?;
    if in_use == 0 {
        return Ok(None);
    }
    let number = FileRecordNumber(get(buf, "record number")?);
    let sequence = get(buf, "sequence")?;
    let created = Tick(get(buf, "created")?);
    let modified = Tick(get(buf, "modified")?);
    let attributes = FileAttributes(get(buf, "attributes")?);
    let parent = FileRecordNumber(get(buf, "parent")?);
    let name = get_name(buf, "name")?;
    let stream_count: u16 = get(buf, "stream count")?;
    let mut data_len = 0u64;
    let mut ads_names = Vec::new();
    for _ in 0..stream_count {
        let named: u8 = get(buf, "stream name flag")?;
        if named == 1 {
            ads_names.push(get_name(buf, "stream name")?);
        }
        let len: u64 = get(buf, "stream length")?;
        let data = usize::try_from(len)
            .ok()
            .and_then(|len| read_slice(buf, len));
        data.ok_or(ImageError::Truncated {
            context: "stream data",
        })?;
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

/// A length-checked read, failing with what was being read.
fn get<T: FromLe>(buf: &mut &[u8], context: &'static str) -> Result<T, ImageError> {
    T::read_le(buf).ok_or(ImageError::Truncated { context })
}

fn get_name(buf: &mut &[u8], context: &'static str) -> Result<NtString, ImageError> {
    read_units(buf)
        .map(NtString::from)
        .ok_or(ImageError::Truncated { context })
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
