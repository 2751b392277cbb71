//! A signature-based on-demand scanner (the eTrust stand-in) and the
//! Section 5 "dilemma" combination.
//!
//! The paper's demo: a Hacker Defender-infected machine running an
//! anti-virus scanner *with the correct signatures* still reports clean,
//! because the rootkit hides its files from the scanner's enumeration.
//! Injecting the GhostBuster diff into the scanner process restores
//! detection — and creates a dilemma: hide and be caught by the diff, or
//! don't hide and be caught by the signature.

use crate::files::FileScanner;
use strider_nt_core::{NtPath, NtStatus};
use strider_winapi::{CallContext, ChainEntry, Machine};

/// A known-bad content signature.
#[derive(Debug, Clone, PartialEq, Eq)]
struct Signature {
    /// Detection name.
    pub name: String,
    /// Byte pattern looked for in file contents.
    pub pattern: Vec<u8>,
}

/// One signature match.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SignatureHit {
    /// The matched signature's name.
    pub signature: String,
    /// The infected file.
    pub path: String,
}

/// The on-demand signature scanner. It discovers files through the same
/// (hookable) enumeration APIs as any other program — its blind spot.
#[derive(Debug, Clone, Default)]
pub struct SignatureScanner {
    signatures: Vec<Signature>,
}

impl SignatureScanner {
    /// Creates a scanner with no signatures.
    pub fn new() -> Self {
        Self::default()
    }

    /// A database carrying signatures for the reproduction's corpus.
    pub fn with_default_database() -> Self {
        let mut s = Self::new();
        for (name, pattern) in [
            ("Win32/HackerDefender", &b"MZ hxdef100"[..]),
            ("Win32/HackerDefender.drv", b"MZ hxdefdrv"),
            ("Win32/Vanquish", b"MZ vanquish"),
            ("Win32/Urbin", b"MZ Urbin payload"),
            ("Win32/Mersting", b"MZ Mersting payload"),
            ("Win32/Aphex", b"MZ aphex"),
            ("Win32/Berbew", b"MZ berbew"),
            ("Win32/Sneaky", b"EVILSIG"),
        ] {
            s.add_signature(name, pattern);
        }
        s
    }

    /// Adds a signature.
    fn add_signature(&mut self, name: &str, pattern: &[u8]) {
        self.signatures.push(Signature {
            name: name.to_string(),
            pattern: pattern.to_vec(),
        });
    }

    /// Number of signatures loaded.
    pub fn signature_count(&self) -> usize {
        self.signatures.len()
    }

    /// On-demand scan as the given process: enumerate files through the API
    /// chain, read each file, and match signatures.
    ///
    /// # Errors
    ///
    /// Propagates enumeration failures.
    pub fn scan(
        &self,
        machine: &Machine,
        ctx: &CallContext,
    ) -> Result<Vec<SignatureHit>, NtStatus> {
        let listing = FileScanner::new().high_scan(machine, ctx, ChainEntry::Win32)?;
        let mut hits = Vec::new();
        for (_, fact) in listing.iter() {
            if fact.is_dir {
                continue;
            }
            let Ok(path) = fact.path.parse::<NtPath>() else {
                continue;
            };
            let Ok(content) = machine.volume().read_file(&path) else {
                continue;
            };
            for sig in &self.signatures {
                if content
                    .windows(sig.pattern.len())
                    .any(|w| w == sig.pattern.as_slice())
                {
                    hits.push(SignatureHit {
                        signature: sig.name.clone(),
                        path: fact.path.clone(),
                    });
                }
            }
        }
        Ok(hits)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::files::FileScanner;
    use strider_ghostware::{Ghostware, HackerDefender};

    fn inocit_ctx(machine: &mut Machine) -> CallContext {
        machine
            .ensure_process("InocIT.exe", "C:\\Program Files\\eTrust\\InocIT.exe")
            .unwrap()
    }

    #[test]
    fn signatures_catch_non_hiding_malware() {
        let mut m = Machine::with_base_system("victim").unwrap();
        // Drop the hxdef files but install no hooks: "don't hide".
        m.volume_mut()
            .create_file(
                &"C:\\windows\\system32\\hxdef100.exe".parse().unwrap(),
                b"MZ hxdef100",
            )
            .unwrap();
        let ctx = inocit_ctx(&mut m);
        let hits = SignatureScanner::with_default_database()
            .scan(&m, &ctx)
            .unwrap();
        assert!(hits.iter().any(|h| h.signature.contains("HackerDefender")));
    }

    #[test]
    fn hiding_defeats_signatures_but_not_the_injected_diff() {
        let mut m = Machine::with_base_system("victim").unwrap();
        HackerDefender::default().infect(&mut m).unwrap();
        let ctx = inocit_ctx(&mut m);

        // The scanner has the right signatures yet reports clean.
        let scanner = SignatureScanner::with_default_database();
        let hits = scanner.scan(&m, &ctx).unwrap();
        assert!(
            !hits.iter().any(|h| h.signature.contains("HackerDefender")),
            "enumeration hiding blinds the signature scanner"
        );

        // Injecting the GhostBuster diff into InocIT.exe restores detection.
        let files = FileScanner::new();
        let truth = files.low_scan(&m).unwrap();
        let lie = files.high_scan(&m, &ctx, ChainEntry::Win32).unwrap();
        let report = files.diff(&truth, &lie);
        assert!(report
            .net_detections()
            .iter()
            .any(|d| d.detail.contains("hxdef100.exe")));
    }

    #[test]
    fn the_dilemma_no_escape() {
        // Either branch of the ghostware's choice loses.
        let scanner = SignatureScanner::with_default_database();

        // Branch 1: hide -> cross-view diff catches it (previous test).
        // Branch 2: don't hide -> signature catches it.
        let mut m = Machine::with_base_system("victim").unwrap();
        let hd = HackerDefender::default();
        hd.infect(&mut m).unwrap();
        m.remove_software("HackerDefender"); // stop hiding, files remain
        let ctx = inocit_ctx(&mut m);
        let hits = scanner.scan(&m, &ctx).unwrap();
        assert!(hits.iter().any(|h| h.signature.contains("HackerDefender")));
    }

    #[test]
    fn clean_machine_yields_no_hits() {
        let mut m = Machine::with_base_system("clean").unwrap();
        let ctx = inocit_ctx(&mut m);
        let hits = SignatureScanner::with_default_database()
            .scan(&m, &ctx)
            .unwrap();
        assert!(hits.is_empty(), "{hits:?}");
    }
}
