//! Counted UTF-16 names and the Win32 legality rules.

use std::fmt;

/// Reserved DOS device names that the Win32 layer refuses to address as
/// ordinary files, regardless of extension (`CON.txt` is still `CON`).
pub(crate) const RESERVED_DEVICE_NAMES: &[&str] = &[
    "CON", "PRN", "AUX", "NUL", "COM1", "COM2", "COM3", "COM4", "COM5", "COM6", "COM7", "COM8",
    "COM9", "LPT1", "LPT2", "LPT3", "LPT4", "LPT5", "LPT6", "LPT7", "LPT8", "LPT9",
];

/// Characters the Win32 layer rejects in file names (the native layer does not).
pub(crate) const WIN32_ILLEGAL_CHARS: &[char] = &['<', '>', ':', '"', '/', '|', '?', '*'];

/// The extension separator, as a UTF-16 unit.
const DOT: u16 = b'.' as u16;

/// A counted UTF-16 string — the native NT name representation.
///
/// NT stores names as `UNICODE_STRING`s: a length plus a buffer, with no
/// terminator. Consequently an `NtString` may contain embedded `NUL` code
/// units. The Win32 API layer, which marshals names through NUL-terminated
/// C strings, silently truncates at the first `NUL` — the discrepancy that
/// ghostware exploits to create Registry entries invisible to RegEdit
/// (paper, Section 3).
///
/// Comparison of two `NtString`s via [`NtString::eq_ignore_case`] follows the
/// NT object-namespace convention of case-insensitivity; `PartialEq`/`Hash`
/// remain case-*sensitive* and exact so that the type behaves like a plain
/// value in collections. Use [`NtString::fold_key`] as a case-insensitive map
/// key.
///
/// # Examples
///
/// ```
/// use strider_nt_core::NtString;
///
/// let visible = NtString::from("Run");
/// let sneaky = NtString::from_units(&[b'R' as u16, 0, b'x' as u16]);
/// assert!(sneaky.contains_nul());
/// // The Win32 view truncates at the NUL:
/// assert_eq!(sneaky.to_win32_lossy(), "R");
/// assert_eq!(visible.to_win32_lossy(), "Run");
/// ```
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct NtString {
    units: Vec<u16>,
}

impl NtString {
    /// Creates an empty name.
    pub fn new() -> Self {
        Self::default()
    }

    /// Creates a name from raw UTF-16 code units, which may include `NUL`s.
    pub fn from_units(units: &[u16]) -> Self {
        Self {
            units: units.to_vec(),
        }
    }

    /// The raw UTF-16 code units.
    pub fn units(&self) -> &[u16] {
        &self.units
    }

    /// Number of UTF-16 code units (the `Length/2` of a `UNICODE_STRING`).
    pub fn len(&self) -> usize {
        self.units.len()
    }

    /// Whether the name is empty.
    pub fn is_empty(&self) -> bool {
        self.units.is_empty()
    }

    /// Whether the counted string contains an embedded `NUL` code unit.
    pub fn contains_nul(&self) -> bool {
        self.units.contains(&0)
    }

    /// The name as the Win32 layer sees it: truncated at the first `NUL`,
    /// lossily decoded.
    pub fn to_win32_lossy(&self) -> String {
        let end = self
            .units
            .iter()
            .position(|&u| u == 0)
            .unwrap_or(self.units.len());
        String::from_utf16_lossy(&self.units[..end])
    }

    /// The full counted name, lossily decoded, with embedded `NUL`s rendered
    /// as `\0` escapes so the representation is never misleadingly truncated.
    pub fn to_display_string(&self) -> String {
        let mut out = String::with_capacity(self.units.len());
        // A `String` sink never fails.
        let _ = self.write_display(&mut out);
        out
    }

    /// Appends the display form ([`NtString::to_display_string`]) to `out`.
    ///
    /// # Errors
    ///
    /// Only what `out` itself returns; a `String` never fails.
    pub fn write_display<W: fmt::Write + ?Sized>(&self, out: &mut W) -> fmt::Result {
        for (i, chunk) in self.units.split(|&u| u == 0).enumerate() {
            if i > 0 {
                out.write_str("\\0")?;
            }
            for c in char::decode_utf16(chunk.iter().copied()) {
                out.write_char(c.unwrap_or(char::REPLACEMENT_CHARACTER))?;
            }
        }
        Ok(())
    }

    /// A case-folded exact key for case-insensitive maps, preserving embedded
    /// `NUL`s (NT name comparison is case-insensitive but NUL-significant).
    pub fn fold_key(&self) -> Vec<u16> {
        self.units
            .iter()
            .map(|&u| fold_unit(u).map_or(u, |c| c as u16))
            .collect()
    }

    /// Appends the case-folded key as text to `out`, one character per code
    /// unit: the component form of [`NtPath::fold_key`](crate::NtPath::fold_key).
    /// A lone surrogate, which is no character, renders as U+FFFD.
    ///
    /// # Errors
    ///
    /// Only what `out` itself returns; a `String` never fails.
    pub fn write_fold_key<W: fmt::Write + ?Sized>(&self, out: &mut W) -> fmt::Result {
        for &u in &self.units {
            out.write_char(fold_unit(u).unwrap_or(char::REPLACEMENT_CHARACTER))?;
        }
        Ok(())
    }

    /// The fold key and display form of `dir.join(self)`, rendered from
    /// `dir`'s own [`NtPath::fold_key`](crate::NtPath::fold_key) and
    /// [`NtPath::to_display_string`](crate::NtPath::to_display_string):
    /// one allocation each, and no path is built.
    pub fn render_under(&self, dir_key: &str, dir_display: &str) -> (String, String) {
        let mut key = String::with_capacity(dir_key.len() + 1 + self.len());
        key.push_str(dir_key);
        key.push('\\');
        let mut display = String::with_capacity(dir_display.len() + 1 + self.len());
        display.push_str(dir_display);
        display.push('\\');
        // A `String` sink never fails.
        let _ = self.write_fold_key(&mut key);
        let _ = self.write_display(&mut display);
        (key, display)
    }

    /// Case-insensitive equality per NT name-comparison rules.
    pub fn eq_ignore_case(&self, other: &NtString) -> bool {
        self.fold_key() == other.fold_key()
    }

    /// Validates the name against the Win32 layer's file-naming rules.
    ///
    /// NTFS itself (through the native API) accepts all of these names; only
    /// the Win32 API refuses to create or address them, which is why files
    /// with such names are invisible to `dir`-style high-level scans
    /// (paper, Section 2).
    ///
    /// # Errors
    ///
    /// Returns the first rule the name violates.
    pub fn validate_win32(&self) -> Result<(), Win32NameError> {
        if self.is_empty() {
            return Err(Win32NameError::Empty);
        }
        if self.contains_nul() {
            return Err(Win32NameError::EmbeddedNul);
        }
        // The rules read the name as Win32 decodes it (a lone surrogate is
        // U+FFFD), straight from the units: a legal name costs no copy.
        let chars = || {
            char::decode_utf16(self.units.iter().copied())
                .map(|c| c.unwrap_or(char::REPLACEMENT_CHARACTER))
        };
        if let Some(c) = chars().find(|c| WIN32_ILLEGAL_CHARS.contains(c)) {
            return Err(Win32NameError::IllegalCharacter(c));
        }
        if let Some(c) = chars().find(|&c| (c as u32) < 0x20) {
            return Err(Win32NameError::ControlCharacter(c as u32));
        }
        if matches!(self.units.last(), Some(&u) if u == DOT || u == u16::from(b' ')) {
            return Err(Win32NameError::TrailingDotOrSpace);
        }
        let stem = self.units.split(|&u| u == DOT).next().unwrap_or(&[]);
        if let Some(reserved) = RESERVED_DEVICE_NAMES.iter().find(|r| {
            r.len() == stem.len()
                && r.bytes()
                    .zip(stem)
                    .all(|(b, &u)| u8::try_from(u).is_ok_and(|c| c.to_ascii_uppercase() == b))
        }) {
            return Err(Win32NameError::ReservedDeviceName((*reserved).to_string()));
        }
        Ok(())
    }

    /// Whether the name passes every Win32 file-naming rule.
    pub fn is_win32_legal(&self) -> bool {
        self.validate_win32().is_ok()
    }
}

/// Folds one code unit: simple-case folding is what the NT upcase table does
/// for the BMP; ASCII folding covers the simulation's namespace. `None` for a
/// lone surrogate, which is no character and folds to itself.
fn fold_unit(u: u16) -> Option<char> {
    char::from_u32(u as u32).map(|c| c.to_ascii_lowercase())
}

impl From<&str> for NtString {
    fn from(s: &str) -> Self {
        Self {
            units: s.encode_utf16().collect(),
        }
    }
}

impl From<String> for NtString {
    fn from(s: String) -> Self {
        NtString::from(s.as_str())
    }
}

impl fmt::Display for NtString {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        self.write_display(f)
    }
}

/// A violation of the Win32 file-naming rules.
///
/// Names that violate these rules are fully addressable through the native
/// API and NTFS, producing the "hidden by naming" class of ghostware files.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Win32NameError {
    /// The name is empty.
    Empty,
    /// The counted string embeds a `NUL` code unit.
    EmbeddedNul,
    /// The name contains a character Win32 forbids (`<>:"/|?*`).
    IllegalCharacter(char),
    /// The name contains a control character below `0x20`.
    ControlCharacter(u32),
    /// The name ends with a dot or a space.
    TrailingDotOrSpace,
    /// The stem is a reserved DOS device name such as `CON` or `LPT1`.
    ReservedDeviceName(String),
}

impl fmt::Display for Win32NameError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Win32NameError::Empty => write!(f, "name is empty"),
            Win32NameError::EmbeddedNul => write!(f, "name contains an embedded NUL"),
            Win32NameError::IllegalCharacter(c) => {
                write!(f, "name contains illegal character {c:?}")
            }
            Win32NameError::ControlCharacter(c) => {
                write!(f, "name contains control character U+{c:04X}")
            }
            Win32NameError::TrailingDotOrSpace => write!(f, "name ends with a dot or space"),
            Win32NameError::ReservedDeviceName(n) => {
                write!(f, "name stem is reserved device name {n}")
            }
        }
    }
}

impl std::error::Error for Win32NameError {}

// ---------------------------------------------------------------------
// JSON serialization (see `strider_support::json`, replacing the former
// serde derives)
// ---------------------------------------------------------------------

strider_support::impl_json!(struct NtString { units });

#[cfg(test)]
mod tests {
    use super::*;
    use crate::NtPath;
    use strider_support::check::{check, gen, Config};
    use strider_support::prop_assert_eq;

    /// Units that reach every Win32 rule: letters in both cases, dots and
    /// spaces, NUL, a control and an illegal character, non-ASCII, U+FFFD
    /// and both surrogate halves.
    const EDGE_UNITS: &[u16] = &[
        b'a' as u16,
        b'C' as u16,
        b'o' as u16,
        b'N' as u16,
        b'1' as u16,
        b'.' as u16,
        b' ' as u16,
        b'\\' as u16,
        b'<' as u16,
        b':' as u16,
        0,
        1,
        0xE9,
        0xFFFD,
        0xD800,
        0xDC00,
    ];

    /// Stems that are, or nearly are, reserved device names.
    const STEMS: &[&str] = &[
        "", "con", "CoN", "lpt1", "LPT", "nul", "com9", "aux", "console",
    ];

    /// A name: one of [`STEMS`], then edge units.
    fn edge_name(rng: &mut strider_support::rng::SplitMix64) -> (usize, Vec<u16>) {
        (
            rng.gen_range(0..STEMS.len()),
            gen::vec_of(rng, 0, 6, |r| *r.choose(EDGE_UNITS)),
        )
    }

    fn name_of((stem, units): &(usize, Vec<u16>)) -> NtString {
        let mut all: Vec<u16> = STEMS[stem % STEMS.len()].encode_utf16().collect();
        all.extend(units);
        NtString::from_units(&all)
    }

    /// The Win32 rules applied to the decoded name, as they read before
    /// [`NtString::validate_win32`] worked on the units directly.
    fn validate_decoded(n: &NtString) -> Result<(), Win32NameError> {
        if n.is_empty() {
            return Err(Win32NameError::Empty);
        }
        if n.contains_nul() {
            return Err(Win32NameError::EmbeddedNul);
        }
        let s = n.to_win32_lossy();
        if let Some(c) = s.chars().find(|c| WIN32_ILLEGAL_CHARS.contains(c)) {
            return Err(Win32NameError::IllegalCharacter(c));
        }
        if let Some(c) = s.chars().find(|&c| (c as u32) < 0x20) {
            return Err(Win32NameError::ControlCharacter(c as u32));
        }
        if s.ends_with('.') || s.ends_with(' ') {
            return Err(Win32NameError::TrailingDotOrSpace);
        }
        let stem = s.split('.').next().unwrap_or("").to_ascii_uppercase();
        if RESERVED_DEVICE_NAMES.contains(&stem.as_str()) {
            return Err(Win32NameError::ReservedDeviceName(stem));
        }
        Ok(())
    }

    #[test]
    fn win32_rules_on_units_match_the_decoded_name() {
        check(
            "win32_rules_on_units_match_the_decoded_name",
            Config::with_cases(2_000),
            edge_name,
            |name| {
                let n = name_of(name);
                prop_assert_eq!(n.validate_win32(), validate_decoded(&n));
                Ok(())
            },
        );
    }

    #[test]
    fn render_under_matches_the_joined_path() {
        check(
            "render_under_matches_the_joined_path",
            Config::with_cases(500),
            |rng| (gen::vec_of(rng, 0, 4, edge_name), edge_name(rng)),
            |(dir, name)| {
                let dir = NtPath::from_components("C:", dir.iter().map(name_of));
                let name = name_of(name);
                let joined = dir.join(name.clone());
                prop_assert_eq!(
                    name.render_under(&dir.fold_key(), &dir.to_display_string()),
                    (joined.fold_key(), joined.to_display_string())
                );
                Ok(())
            },
        );
    }

    #[test]
    fn roundtrip_simple() {
        let n = NtString::from("Notepad.exe");
        assert_eq!(n.to_win32_lossy(), "Notepad.exe");
        assert_eq!(n.len(), 11);
        assert!(n.is_win32_legal());
    }

    #[test]
    fn embedded_nul_truncates_win32_view_but_not_display() {
        let n = NtString::from_units(&[104, 0, 105]); // "h\0i"
        assert!(n.contains_nul());
        assert_eq!(n.to_win32_lossy(), "h");
        assert_eq!(n.to_display_string(), "h\\0i");
        assert_eq!(n.validate_win32(), Err(Win32NameError::EmbeddedNul));
    }

    #[test]
    fn trailing_nul_is_escaped_in_display() {
        let n = NtString::from_units(&[104, 0]);
        assert_eq!(n.to_display_string(), "h\\0");
    }

    #[test]
    fn case_insensitive_comparison() {
        let a = NtString::from("HxDef100.EXE");
        let b = NtString::from("hxdef100.exe");
        assert!(a.eq_ignore_case(&b));
        assert_ne!(a, b); // exact equality stays case-sensitive
        assert_eq!(a.fold_key(), b.fold_key());
    }

    #[test]
    fn trailing_dot_and_space_are_win32_illegal() {
        assert_eq!(
            NtString::from("update.").validate_win32(),
            Err(Win32NameError::TrailingDotOrSpace)
        );
        assert_eq!(
            NtString::from("driver ").validate_win32(),
            Err(Win32NameError::TrailingDotOrSpace)
        );
    }

    #[test]
    fn reserved_device_names_with_and_without_extension() {
        assert!(matches!(
            NtString::from("CON").validate_win32(),
            Err(Win32NameError::ReservedDeviceName(_))
        ));
        assert!(matches!(
            NtString::from("nul.txt").validate_win32(),
            Err(Win32NameError::ReservedDeviceName(_))
        ));
        assert!(matches!(
            NtString::from("lpt1.log").validate_win32(),
            Err(Win32NameError::ReservedDeviceName(_))
        ));
        // CONSOLE is not reserved, only the exact stem.
        assert!(NtString::from("console.txt").is_win32_legal());
    }

    #[test]
    fn illegal_and_control_characters() {
        assert!(matches!(
            NtString::from("a<b").validate_win32(),
            Err(Win32NameError::IllegalCharacter('<'))
        ));
        assert!(matches!(
            NtString::from("a\u{1}b").validate_win32(),
            Err(Win32NameError::ControlCharacter(1))
        ));
    }

    #[test]
    fn empty_name_is_illegal() {
        assert_eq!(NtString::new().validate_win32(), Err(Win32NameError::Empty));
    }

    #[test]
    fn error_display_is_nonempty_lowercase() {
        for e in [
            Win32NameError::Empty,
            Win32NameError::EmbeddedNul,
            Win32NameError::IllegalCharacter('?'),
            Win32NameError::ControlCharacter(2),
            Win32NameError::TrailingDotOrSpace,
            Win32NameError::ReservedDeviceName("CON".into()),
        ] {
            let msg = e.to_string();
            assert!(!msg.is_empty());
            assert!(msg.chars().next().unwrap().is_lowercase());
        }
    }
}
