//! The live Registry key/value tree.

use std::fmt;
use strider_nt_core::{NtString, Tick};

/// Typed Registry value data.
///
/// The variants correspond to the on-disk `REG_*` type codes the serializer
/// writes (`REG_SZ=1`, `REG_EXPAND_SZ=2`, `REG_BINARY=3`, `REG_DWORD=4`,
/// `REG_MULTI_SZ=7`).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ValueData {
    /// `REG_SZ` — a string.
    Sz(NtString),
    /// `REG_EXPAND_SZ` — a string with unexpanded `%VAR%` references.
    ExpandSz(NtString),
    /// `REG_BINARY` — raw bytes.
    Binary(Vec<u8>),
    /// `REG_DWORD` — a 32-bit integer.
    Dword(u32),
    /// `REG_MULTI_SZ` — a list of strings.
    MultiSz(Vec<NtString>),
}

impl ValueData {
    /// Convenience constructor for a `REG_SZ` value.
    pub fn sz(s: impl Into<NtString>) -> Self {
        ValueData::Sz(s.into())
    }

    /// The on-disk type code.
    pub fn type_code(&self) -> u32 {
        match self {
            ValueData::Sz(_) => 1,
            ValueData::ExpandSz(_) => 2,
            ValueData::Binary(_) => 3,
            ValueData::Dword(_) => 4,
            ValueData::MultiSz(_) => 7,
        }
    }

    /// A human-readable rendering of the data (used in reports).
    pub fn to_display_string(&self) -> String {
        match self {
            ValueData::Sz(s) | ValueData::ExpandSz(s) => s.to_display_string(),
            ValueData::Binary(b) => format!("<{} bytes>", b.len()),
            ValueData::Dword(d) => format!("{d:#x}"),
            ValueData::MultiSz(v) => v
                .iter()
                .map(NtString::to_display_string)
                .collect::<Vec<_>>()
                .join(";"),
        }
    }
}

impl fmt::Display for ValueData {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.to_display_string())
    }
}

/// A named Registry value (a key "item" in the paper's terminology).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Value {
    /// The counted value name; may embed `NUL`s when created natively.
    pub name: NtString,
    /// The typed data.
    pub data: ValueData,
    /// Set when the stored data cell is corrupted: the live Win32 view
    /// (RegEdit) fails to render the value and skips it, while the raw hive
    /// parser still reports it — the paper's one Registry false positive.
    pub corrupt_data: bool,
}

impl Value {
    /// Creates a healthy value.
    pub fn new(name: impl Into<NtString>, data: ValueData) -> Self {
        Self {
            name: name.into(),
            data,
            corrupt_data: false,
        }
    }
}

/// A live Registry key: a named node with values and subkeys.
///
/// Lookup helpers are case-insensitive, matching the configuration manager.
#[derive(Debug, Clone, PartialEq)]
pub struct Key {
    /// The counted key name.
    pub name: NtString,
    /// Last-write time.
    pub timestamp: Tick,
    /// Values on this key.
    pub values: Vec<Value>,
    /// Child keys.
    pub subkeys: Vec<Key>,
}

impl Key {
    /// Creates an empty key named `name`.
    pub fn new(name: impl Into<NtString>) -> Self {
        Self {
            name: name.into(),
            timestamp: Tick::ZERO,
            values: Vec::new(),
            subkeys: Vec::new(),
        }
    }

    /// Finds a direct subkey by case-insensitive name.
    pub fn subkey(&self, name: &NtString) -> Option<&Key> {
        self.subkeys.iter().find(|k| k.name.eq_ignore_case(name))
    }

    /// Mutable variant of [`Key::subkey`].
    fn subkey_mut(&mut self, name: &NtString) -> Option<&mut Key> {
        self.subkeys
            .iter_mut()
            .find(|k| k.name.eq_ignore_case(name))
    }

    /// Finds a value by case-insensitive name.
    pub fn value(&self, name: &NtString) -> Option<&Value> {
        self.values.iter().find(|v| v.name.eq_ignore_case(name))
    }

    /// Sets (replacing by case-insensitive name) a value and returns the
    /// previous one, if any.
    pub fn set_value(&mut self, value: Value) -> Option<Value> {
        match self
            .values
            .iter_mut()
            .find(|v| v.name.eq_ignore_case(&value.name))
        {
            Some(slot) => Some(std::mem::replace(slot, value)),
            None => {
                self.values.push(value);
                None
            }
        }
    }

    /// Removes a value by case-insensitive name, returning it.
    pub fn remove_value(&mut self, name: &NtString) -> Option<Value> {
        let i = self
            .values
            .iter()
            .position(|v| v.name.eq_ignore_case(name))?;
        Some(self.values.remove(i))
    }

    /// Gets or creates a direct subkey, returning a mutable reference.
    pub fn subkey_or_create(&mut self, name: &NtString, now: Tick) -> &mut Key {
        if let Some(i) = self
            .subkeys
            .iter()
            .position(|k| k.name.eq_ignore_case(name))
        {
            return &mut self.subkeys[i];
        }
        let mut k = Key::new(name.clone());
        k.timestamp = now;
        self.subkeys.push(k);
        self.timestamp = now;
        self.subkeys.last_mut().expect("just pushed")
    }

    /// Removes a direct subkey (and its whole subtree), returning it.
    pub fn remove_subkey(&mut self, name: &NtString) -> Option<Key> {
        let i = self
            .subkeys
            .iter()
            .position(|k| k.name.eq_ignore_case(name))?;
        Some(self.subkeys.remove(i))
    }

    /// Walks a relative path of component names below this key.
    pub fn descend(&self, components: &[NtString]) -> Option<&Key> {
        let mut cur = self;
        for c in components {
            cur = cur.subkey(c)?;
        }
        Some(cur)
    }

    /// Mutable variant of [`Key::descend`].
    pub fn descend_mut(&mut self, components: &[NtString]) -> Option<&mut Key> {
        let mut cur = self;
        for c in components {
            cur = cur.subkey_mut(c)?;
        }
        Some(cur)
    }

    /// Total number of keys in this subtree, including `self`.
    pub fn key_count(&self) -> usize {
        1 + self.subkeys.iter().map(Key::key_count).sum::<usize>()
    }

    /// Total number of values in this subtree.
    pub fn value_count(&self) -> usize {
        self.values.len() + self.subkeys.iter().map(Key::value_count).sum::<usize>()
    }
}

// ---------------------------------------------------------------------
// JSON serialization (see `strider_support::json`, replacing the former
// serde derives)
// ---------------------------------------------------------------------

strider_support::impl_json!(
    enum ValueData {
        Sz(NtString),
        ExpandSz(NtString),
        Binary(Vec<u8>),
        Dword(u32),
        MultiSz(Vec<NtString>),
    }
);
strider_support::impl_json!(struct Value { name, data, corrupt_data });
strider_support::impl_json!(struct Key { name, timestamp, values, subkeys });

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn set_value_replaces_case_insensitively() {
        let mut k = Key::new("Run");
        k.set_value(Value::new("Updater", ValueData::sz("a.exe")));
        let old = k.set_value(Value::new("UPDATER", ValueData::sz("b.exe")));
        assert!(old.is_some());
        assert_eq!(k.values.len(), 1);
        assert_eq!(
            k.value(&NtString::from("updater")).unwrap().data,
            ValueData::sz("b.exe")
        );
    }

    #[test]
    fn descend_and_counts() {
        let mut root = Key::new("SOFTWARE");
        let ms = root.subkey_or_create(&NtString::from("Microsoft"), Tick(1));
        let win = ms.subkey_or_create(&NtString::from("Windows"), Tick(1));
        win.set_value(Value::new("v", ValueData::Dword(7)));
        assert_eq!(root.key_count(), 3);
        assert_eq!(root.value_count(), 1);
        let path = [NtString::from("microsoft"), NtString::from("WINDOWS")];
        assert!(root.descend(&path).is_some());
    }

    #[test]
    fn remove_subkey_removes_subtree() {
        let mut root = Key::new("SYSTEM");
        let svc = root.subkey_or_create(&NtString::from("Services"), Tick(1));
        svc.subkey_or_create(&NtString::from("Vanquish"), Tick(1));
        let removed = root.remove_subkey(&NtString::from("services")).unwrap();
        assert_eq!(removed.key_count(), 2);
        assert_eq!(root.key_count(), 1);
    }

    #[test]
    fn value_data_type_codes_and_display() {
        assert_eq!(ValueData::sz("x").type_code(), 1);
        assert_eq!(ValueData::ExpandSz(NtString::from("%p%")).type_code(), 2);
        assert_eq!(ValueData::Binary(vec![1, 2]).type_code(), 3);
        assert_eq!(ValueData::Dword(5).type_code(), 4);
        assert_eq!(
            ValueData::MultiSz(vec![NtString::from("a"), NtString::from("b")]).type_code(),
            7
        );
        assert_eq!(ValueData::Dword(255).to_display_string(), "0xff");
        assert_eq!(
            ValueData::Binary(vec![0; 3]).to_display_string(),
            "<3 bytes>"
        );
        assert_eq!(
            ValueData::MultiSz(vec![NtString::from("a"), NtString::from("b")]).to_string(),
            "a;b"
        );
    }

    #[test]
    fn nul_embedded_names_are_storable_and_distinct() {
        let mut k = Key::new("Run");
        let sneaky = NtString::from_units(&[b'u' as u16, 0, b'2' as u16]);
        k.set_value(Value::new(sneaky.clone(), ValueData::sz("evil.exe")));
        k.set_value(Value::new("u", ValueData::sz("benign.exe")));
        assert_eq!(k.values.len(), 2, "NUL-embedded name is a distinct value");
        assert!(k.value(&sneaky).is_some());
    }
}
