//! Auto-Start Extensibility Points (ASEPs) and hook extraction.
//!
//! Most Windows ghostware does not patch OS files; it "hooks" one of the many
//! Registry locations the OS consults to auto-start code — services and
//! drivers, `Run` keys, `AppInit_DLLs`, Browser Helper Objects, and so on
//! (paper, Section 3, building on the Gatekeeper ASEP study). Because these
//! hooks are critical for surviving reboots, ghostware hides them; GhostBuster
//! therefore scans exactly this catalog in both the high-level and low-level
//! views and diffs the extracted hook sets.
//!
//! Extraction is generic over a [`KeyView`], so the same catalog logic runs
//! against:
//!
//! * the live tree as the (hookable) Registry APIs enumerate it — a view the
//!   detector supplies, with corrupt values skipped and names truncated at
//!   embedded `NUL`s, as RegEdit would show them;
//! * raw parsed hive bytes ([`RawKeyView`]) — the low-level truth, including
//!   salvaged corrupt values.

use crate::format::{RawHive, RawKey};
use crate::registry::mounted_at;
use std::fmt;
use strider_nt_core::{NtPath, NtString};

/// How hooks are laid out at an ASEP location.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AsepKind {
    /// Every value on the key is one hook (`Run`, `RunOnce`, …): the value
    /// name identifies the hook and the data is the launched target.
    ValuePerEntry,
    /// Every subkey is one hook (`Services`): the subkey name identifies the
    /// hook and the named value inside it (e.g. `ImagePath`) is the target.
    SubkeyPerEntry {
        /// The value inside each subkey that holds the target, if any.
        target_value: Option<&'static str>,
    },
    /// A single named value whose data is a separator-delimited list of
    /// targets (`AppInit_DLLs`): one hook per listed target.
    SingleValueList {
        /// The value name holding the list.
        value_name: &'static str,
    },
}

/// One ASEP location: an identifier, the key path, and the hook layout.
#[derive(Debug, Clone)]
pub struct AsepLocation {
    /// Short identifier used in reports (`"Run"`, `"Services"`, …).
    pub id: &'static str,
    /// Full Registry path of the ASEP key.
    pub key_path: NtPath,
    /// How hooks are laid out at this location.
    pub kind: AsepKind,
}

/// The catalog of ASEP locations GhostBuster scans.
///
/// A representative subset of the Gatekeeper catalog: every location the
/// paper's Figure 4 exercises (Services, Run, AppInit_DLLs) plus the other
/// high-traffic auto-start points.
pub fn catalog() -> Vec<AsepLocation> {
    fn p(s: &str) -> NtPath {
        s.parse().expect("static catalog path parses")
    }
    vec![
        AsepLocation {
            id: "Services",
            key_path: p("HKLM\\SYSTEM\\CurrentControlSet\\Services"),
            kind: AsepKind::SubkeyPerEntry {
                target_value: Some("ImagePath"),
            },
        },
        AsepLocation {
            id: "Run",
            key_path: p("HKLM\\SOFTWARE\\Microsoft\\Windows\\CurrentVersion\\Run"),
            kind: AsepKind::ValuePerEntry,
        },
        AsepLocation {
            id: "RunOnce",
            key_path: p("HKLM\\SOFTWARE\\Microsoft\\Windows\\CurrentVersion\\RunOnce"),
            kind: AsepKind::ValuePerEntry,
        },
        AsepLocation {
            id: "AppInit_DLLs",
            key_path: p("HKLM\\SOFTWARE\\Microsoft\\Windows NT\\CurrentVersion\\Windows"),
            kind: AsepKind::SingleValueList {
                value_name: "AppInit_DLLs",
            },
        },
        AsepLocation {
            id: "BHO",
            key_path: p(
                "HKLM\\SOFTWARE\\Microsoft\\Windows\\CurrentVersion\\Explorer\\Browser Helper Objects",
            ),
            kind: AsepKind::SubkeyPerEntry { target_value: None },
        },
        AsepLocation {
            id: "WinlogonNotify",
            key_path: p("HKLM\\SOFTWARE\\Microsoft\\Windows NT\\CurrentVersion\\Winlogon\\Notify"),
            kind: AsepKind::SubkeyPerEntry {
                target_value: Some("DllName"),
            },
        },
        AsepLocation {
            id: "WinlogonShell",
            key_path: p("HKLM\\SOFTWARE\\Microsoft\\Windows NT\\CurrentVersion\\Winlogon"),
            kind: AsepKind::SingleValueList {
                value_name: "Shell",
            },
        },
        AsepLocation {
            id: "WinlogonUserinit",
            key_path: p("HKLM\\SOFTWARE\\Microsoft\\Windows NT\\CurrentVersion\\Winlogon"),
            kind: AsepKind::SingleValueList {
                value_name: "Userinit",
            },
        },
        AsepLocation {
            id: "IFEO",
            key_path: p(
                "HKLM\\SOFTWARE\\Microsoft\\Windows NT\\CurrentVersion\\Image File Execution Options",
            ),
            kind: AsepKind::SubkeyPerEntry {
                target_value: Some("Debugger"),
            },
        },
        AsepLocation {
            id: "ShellServiceObjectDelayLoad",
            key_path: p(
                "HKLM\\SOFTWARE\\Microsoft\\Windows\\CurrentVersion\\ShellServiceObjectDelayLoad",
            ),
            kind: AsepKind::ValuePerEntry,
        },
        AsepLocation {
            id: "ShellExecuteHooks",
            key_path: p(
                "HKLM\\SOFTWARE\\Microsoft\\Windows\\CurrentVersion\\Explorer\\ShellExecuteHooks",
            ),
            kind: AsepKind::ValuePerEntry,
        },
        AsepLocation {
            id: "UserRun",
            key_path: p("HKU\\.DEFAULT\\Software\\Microsoft\\Windows\\CurrentVersion\\Run"),
            kind: AsepKind::ValuePerEntry,
        },
    ]
}

/// One extracted auto-start hook.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct AsepHook {
    /// The catalog id of the location (`"Run"`, `"Services"`, …).
    pub asep_id: String,
    /// The hook's entry name as rendered by the extracting view.
    pub entry: String,
    /// The launched/loaded target as rendered by the extracting view.
    pub target: String,
    /// The ASEP key path.
    pub key_path: NtPath,
    /// The value record backing this hook was corrupt (raw views only).
    pub corrupt: bool,
}

impl AsepHook {
    /// The identity under which hooks are diffed across views.
    pub fn identity(&self) -> String {
        format!(
            "{}|{}|{}",
            self.asep_id,
            self.entry.to_ascii_lowercase(),
            self.target.to_ascii_lowercase()
        )
    }
}

impl fmt::Display for AsepHook {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}\\{} -> {}", self.key_path, self.entry, self.target)
    }
}

/// A value as yielded by a [`KeyView`], after that view's visibility rules.
#[derive(Debug, Clone)]
pub struct ViewedValue {
    /// The exact counted name.
    pub name: NtString,
    /// The data rendered as text.
    pub target: String,
    /// Whether the backing record was corrupt (raw views only).
    pub corrupt: bool,
}

/// A read-only view over one Registry key with view-specific visibility
/// semantics.
pub trait KeyView: Sized {
    /// Descends to a direct subkey by case-insensitive name.
    fn subkey(&self, name: &NtString) -> Option<Self>;
    /// Lists direct subkeys as `(exact name, view)`.
    fn subkeys(&self) -> Vec<(NtString, Self)>;
    /// Lists values after this view's visibility rules.
    fn values(&self) -> Vec<ViewedValue>;
    /// Renders a counted name the way this view's tools would show it.
    fn render_name(&self, name: &NtString) -> String;

    /// Looks up a value's rendered data by case-insensitive name.
    fn value_target(&self, name: &NtString) -> Option<String> {
        self.values()
            .into_iter()
            .find(|v| v.name.eq_ignore_case(name))
            .map(|v| v.target)
    }
}

/// Extracts all hooks for `catalog` using `resolve` to obtain the view at
/// each ASEP key path. Locations whose key does not exist yield no hooks.
pub fn extract_hooks_with<V, F>(resolve: F, catalog: &[AsepLocation]) -> Vec<AsepHook>
where
    V: KeyView,
    F: Fn(&NtPath) -> Option<V>,
{
    let mut hooks = Vec::new();
    for loc in catalog {
        let Some(view) = resolve(&loc.key_path) else {
            continue;
        };
        match loc.kind {
            AsepKind::ValuePerEntry => {
                for v in view.values() {
                    hooks.push(AsepHook {
                        asep_id: loc.id.to_string(),
                        entry: view.render_name(&v.name),
                        target: v.target,
                        key_path: loc.key_path.clone(),
                        corrupt: v.corrupt,
                    });
                }
            }
            AsepKind::SubkeyPerEntry { target_value } => {
                for (name, sub) in view.subkeys() {
                    let (target, corrupt) = match target_value {
                        Some(tv) => {
                            let tvn = NtString::from(tv);
                            match sub
                                .values()
                                .into_iter()
                                .find(|v| v.name.eq_ignore_case(&tvn))
                            {
                                Some(v) => (v.target, v.corrupt),
                                None => (String::new(), false),
                            }
                        }
                        None => (String::new(), false),
                    };
                    hooks.push(AsepHook {
                        asep_id: loc.id.to_string(),
                        entry: view.render_name(&name),
                        target,
                        key_path: loc.key_path.join(name),
                        corrupt,
                    });
                }
            }
            AsepKind::SingleValueList { value_name } => {
                let vn = NtString::from(value_name);
                let Some(v) = view
                    .values()
                    .into_iter()
                    .find(|v| v.name.eq_ignore_case(&vn))
                else {
                    continue;
                };
                for part in v.target.split([' ', ',', ';']).filter(|s| !s.is_empty()) {
                    hooks.push(AsepHook {
                        asep_id: loc.id.to_string(),
                        entry: value_name.to_string(),
                        target: part.to_string(),
                        key_path: loc.key_path.clone(),
                        corrupt: v.corrupt,
                    });
                }
            }
        }
    }
    hooks
}

/// Decodes raw value bytes as the given `REG_*` type for display.
fn render_raw_data(type_code: u32, data: &[u8]) -> String {
    match type_code {
        1 | 2 => {
            let units: Vec<u16> = data
                .chunks_exact(2)
                .map(|c| u16::from_le_bytes([c[0], c[1]]))
                .collect();
            NtString::from_units(&units).to_display_string()
        }
        4 if data.len() >= 4 => {
            format!(
                "{:#x}",
                u32::from_le_bytes(data[..4].try_into().expect("4 bytes"))
            )
        }
        7 => {
            let units: Vec<u16> = data
                .chunks_exact(2)
                .map(|c| u16::from_le_bytes([c[0], c[1]]))
                .collect();
            units
                .split(|&u| u == 0)
                .filter(|s| !s.is_empty())
                .map(|s| NtString::from_units(s).to_display_string())
                .collect::<Vec<_>>()
                .join(";")
        }
        _ => format!("<{} bytes>", data.len()),
    }
}

/// Raw view over parsed hive bytes: the low-level truth. Full counted names,
/// corrupt records salvaged and flagged.
#[derive(Debug, Clone, Copy)]
pub struct RawKeyView<'a>(pub &'a RawKey);

impl<'a> KeyView for RawKeyView<'a> {
    fn subkey(&self, name: &NtString) -> Option<Self> {
        self.0
            .subkeys
            .iter()
            .find(|k| k.name.eq_ignore_case(name))
            .map(RawKeyView)
    }

    fn subkeys(&self) -> Vec<(NtString, Self)> {
        self.0
            .subkeys
            .iter()
            .map(|k| (k.name.clone(), RawKeyView(k)))
            .collect()
    }

    fn values(&self) -> Vec<ViewedValue> {
        self.0
            .values
            .iter()
            .map(|v| ViewedValue {
                name: v.name.clone(),
                target: render_raw_data(v.type_code, &v.data),
                corrupt: v.corrupt,
            })
            .collect()
    }

    fn render_name(&self, name: &NtString) -> String {
        name.to_display_string()
    }
}

/// The raw key at `path` in parsed hives, resolved as a mounted Registry
/// resolves it: through the hive mounted deepest above the path. `hives`
/// pairs each mount path with its parsed image.
pub fn raw_key<'a>(hives: &'a [(NtPath, RawHive)], path: &NtPath) -> Option<&'a RawKey> {
    let ((_, raw), rel) = mounted_at(hives, |(mount, _)| mount, path)?;
    raw.descend(rel)
}

/// Extracts hooks from raw parsed hives — the low-level inside-the-box scan.
/// `hives` pairs each mount path with its parsed image.
pub fn extract_raw(hives: &[(NtPath, RawHive)], catalog: &[AsepLocation]) -> Vec<AsepHook> {
    extract_hooks_with(|path| raw_key(hives, path).map(RawKeyView), catalog)
}

// ---------------------------------------------------------------------
// JSON serialization (see `strider_support::json`, replacing the former
// serde derives)
// ---------------------------------------------------------------------

strider_support::impl_json!(struct AsepHook { asep_id, entry, target, key_path, corrupt });

#[cfg(test)]
mod tests {
    use super::*;
    use crate::key::{Key, Value, ValueData};
    use crate::registry::Registry;

    /// Win32-semantics view over the live tree: names truncated at embedded
    /// `NUL`s, corrupt values hidden. This is what RegEdit and the Win32
    /// enumeration APIs show.
    #[derive(Debug, Clone, Copy)]
    struct Win32KeyView<'a>(&'a Key);

    impl<'a> KeyView for Win32KeyView<'a> {
        fn subkey(&self, name: &NtString) -> Option<Self> {
            self.0.subkey(name).map(Win32KeyView)
        }

        fn subkeys(&self) -> Vec<(NtString, Self)> {
            self.0
                .subkeys
                .iter()
                .map(|k| (k.name.clone(), Win32KeyView(k)))
                .collect()
        }

        fn values(&self) -> Vec<ViewedValue> {
            self.0
                .values
                .iter()
                .filter(|v| !v.corrupt_data)
                .map(|v| ViewedValue {
                    name: v.name.clone(),
                    target: v.data.to_display_string(),
                    corrupt: false,
                })
                .collect()
        }

        fn render_name(&self, name: &NtString) -> String {
            name.to_win32_lossy()
        }
    }

    /// Extracts hooks from the live Registry with Win32 (RegEdit) semantics —
    /// useful for the outside-the-box scan where hive files are mounted under a
    /// clean OS and scanned with the ordinary APIs.
    fn extract_live_win32(reg: &Registry, catalog: &[AsepLocation]) -> Vec<AsepHook> {
        extract_hooks_with(
            |path| {
                let (hive, rel) = reg.resolve(path)?;
                hive.root().descend(&rel).map(Win32KeyView)
            },
            catalog,
        )
    }

    fn p(s: &str) -> NtPath {
        s.parse().unwrap()
    }

    fn populated_registry() -> Registry {
        let mut reg = Registry::standard();
        let run = p("HKLM\\SOFTWARE\\Microsoft\\Windows\\CurrentVersion\\Run");
        reg.create_key(&run).unwrap();
        reg.set_value(&run, "Updater", ValueData::sz("C:\\u.exe"))
            .unwrap();
        let svc = p("HKLM\\SYSTEM\\CurrentControlSet\\Services\\Beep");
        reg.create_key(&svc).unwrap();
        reg.set_value(&svc, "ImagePath", ValueData::sz("beep.sys"))
            .unwrap();
        let win = p("HKLM\\SOFTWARE\\Microsoft\\Windows NT\\CurrentVersion\\Windows");
        reg.create_key(&win).unwrap();
        reg.set_value(&win, "AppInit_DLLs", ValueData::sz("a.dll b.dll"))
            .unwrap();
        reg
    }

    #[test]
    fn catalog_contains_paper_locations() {
        let cat = catalog();
        let ids: Vec<&str> = cat.iter().map(|l| l.id).collect();
        for want in ["Services", "Run", "AppInit_DLLs"] {
            assert!(ids.contains(&want), "missing {want}");
        }
        assert!(cat.len() >= 10);
    }

    #[test]
    fn live_extraction_finds_all_hook_kinds() {
        let reg = populated_registry();
        let hooks = extract_live_win32(&reg, &catalog());
        let ids: Vec<String> = hooks.iter().map(AsepHook::identity).collect();
        assert!(ids.contains(&"Run|updater|c:\\u.exe".to_string()));
        assert!(ids.contains(&"Services|beep|beep.sys".to_string()));
        assert!(ids.contains(&"AppInit_DLLs|appinit_dlls|a.dll".to_string()));
        assert!(ids.contains(&"AppInit_DLLs|appinit_dlls|b.dll".to_string()));
    }

    #[test]
    fn raw_extraction_matches_live_for_clean_registry() {
        let reg = populated_registry();
        let live = extract_live_win32(&reg, &catalog());
        let raws: Vec<(NtPath, RawHive)> = reg
            .hives()
            .iter()
            .map(|h| (h.mount().clone(), RawHive::parse(&h.to_bytes()).unwrap()))
            .collect();
        let raw = extract_raw(&raws, &catalog());
        let mut a: Vec<String> = live.iter().map(AsepHook::identity).collect();
        let mut b: Vec<String> = raw.iter().map(AsepHook::identity).collect();
        a.sort();
        b.sort();
        assert_eq!(a, b);
    }

    #[test]
    fn corrupt_value_visible_only_in_raw_view() {
        let mut reg = populated_registry();
        let win = p("HKLM\\SOFTWARE\\Microsoft\\Windows NT\\CurrentVersion\\Windows");
        let mut v = Value::new("AppInit_DLLs", ValueData::sz("msvsres.dll"));
        v.corrupt_data = true;
        reg.set_value_raw(&win, v).unwrap();

        let live = extract_live_win32(&reg, &catalog());
        assert!(
            !live.iter().any(|h| h.target.contains("msvsres")),
            "live view must hide the corrupt value"
        );
        let raws: Vec<(NtPath, RawHive)> = reg
            .hives()
            .iter()
            .map(|h| (h.mount().clone(), RawHive::parse(&h.to_bytes()).unwrap()))
            .collect();
        let raw = extract_raw(&raws, &catalog());
        let hit = raw
            .iter()
            .find(|h| h.target.contains("msvsres"))
            .expect("raw view must report the corrupt value");
        assert!(hit.corrupt);
    }

    #[test]
    fn nul_embedded_value_name_renders_differently_per_view() {
        let mut reg = populated_registry();
        let run = p("HKLM\\SOFTWARE\\Microsoft\\Windows\\CurrentVersion\\Run");
        let sneaky = NtString::from_units(&[b'e' as u16, 0, b'!' as u16]);
        reg.set_value_raw(&run, Value::new(sneaky, ValueData::sz("evil.exe")))
            .unwrap();

        let live = extract_live_win32(&reg, &catalog());
        let live_entry = live
            .iter()
            .find(|h| h.target == "evil.exe")
            .expect("value enumerable");
        assert_eq!(live_entry.entry, "e", "win32 truncates at NUL");

        let raws: Vec<(NtPath, RawHive)> = reg
            .hives()
            .iter()
            .map(|h| (h.mount().clone(), RawHive::parse(&h.to_bytes()).unwrap()))
            .collect();
        let raw = extract_raw(&raws, &catalog());
        let raw_entry = raw.iter().find(|h| h.target == "evil.exe").unwrap();
        assert_eq!(raw_entry.entry, "e\\0!", "raw view keeps the counted name");
        assert_ne!(live_entry.identity(), raw_entry.identity());
    }

    #[test]
    fn missing_asep_keys_are_skipped() {
        let reg = Registry::standard();
        let hooks = extract_live_win32(&reg, &catalog());
        assert!(hooks.is_empty());
    }

    #[test]
    fn subkey_per_entry_without_target_value() {
        let mut reg = Registry::standard();
        let bho = p(
            "HKLM\\SOFTWARE\\Microsoft\\Windows\\CurrentVersion\\Explorer\\Browser Helper Objects\\{CLSID-1}",
        );
        reg.create_key(&bho).unwrap();
        let hooks = extract_live_win32(&reg, &catalog());
        let h = hooks.iter().find(|h| h.asep_id == "BHO").unwrap();
        assert_eq!(h.entry, "{CLSID-1}");
        assert_eq!(h.target, "");
    }
}
