//! The FU rootkit — Direct Kernel Object Manipulation.
//!
//! "The DKOM implementation of the FU rootkit presents a unique challenge:
//! it hides a process by removing its corresponding entry from the Active
//! Process List kernel data structure … a process can be absent from the
//! list while remaining fully functional" (paper, Section 4). FU installs no
//! query filter at all: there is nothing for an API-diff to catch unless the
//! low-level scan uses a *different* kernel structure — GhostBuster's
//! advanced mode.
//!
//! FU ships as a user-mode `fu.exe` plus the `msdirectx.sys` driver, both of
//! which stay visible; only the victim process is hidden
//! (`fu -ph <pid>`).

use crate::{Ghostware, Infection, Technique};
use strider_nt_core::{NtPath, NtStatus, Pid};
use strider_winapi::Machine;

/// The FU rootkit sample.
#[derive(Debug, Clone, Default)]
pub struct Fu {
    /// Pre-existing pid to hide; when `None`, FU spawns a demo payload
    /// process and hides that.
    pub target: Option<Pid>,
}

impl Fu {
    /// The `fu -ph <pid>` command against an already-infected machine.
    ///
    /// # Errors
    ///
    /// Fails when the pid does not exist or is already unlinked.
    fn hide_process(machine: &mut Machine, pid: Pid) -> Result<(), NtStatus> {
        machine
            .kernel_mut()
            .dkom_unlink(pid)
            .map_err(|_| NtStatus::NoSuchProcess)
    }
}

impl Ghostware for Fu {
    fn name(&self) -> &str {
        "FU"
    }

    fn infect(&self, machine: &mut Machine) -> Result<Infection, NtStatus> {
        let exe: NtPath = "C:\\windows\\system32\\fu.exe".parse().expect("static");
        let drv: NtPath = "C:\\windows\\system32\\drivers\\msdirectx.sys"
            .parse()
            .expect("static");
        machine.win32_create_file(&exe, b"MZ fu")?;
        machine.win32_create_file(&drv, b"MZ msdirectx")?;
        machine.kernel_mut().load_driver("msdirectx", drv);

        let (pid, image_name) = match self.target {
            Some(pid) => {
                let name = machine
                    .kernel()
                    .process(pid)
                    .ok_or(NtStatus::NoSuchProcess)?
                    .image_name
                    .to_win32_lossy();
                (pid, name)
            }
            None => {
                let pid = machine
                    .spawn_process("fu_payload.exe", "C:\\windows\\system32\\fu_payload.exe")?;
                (pid, "fu_payload.exe".to_string())
            }
        };
        Fu::hide_process(machine, pid)?;

        let mut infection = Infection::new("FU");
        infection.techniques = vec![Technique::Dkom];
        infection.hidden_process_names = vec![image_name];
        infection
            .visible_artifacts
            .push("fu.exe and msdirectx.sys on disk; msdirectx in driver list".to_string());
        Ok(infection)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use strider_winapi::{ChainEntry, Query};

    #[test]
    fn dkom_hides_from_every_api_entry_without_any_hook() {
        let mut m = Machine::with_base_system("t").unwrap();
        Fu::default().infect(&mut m).unwrap();
        assert!(m.hooks().hooks().is_empty(), "FU installs no query filter");
        let ctx = m.context_for_name("explorer.exe").unwrap();
        for entry in [ChainEntry::Win32, ChainEntry::Native] {
            let rows = m.query(&ctx, &Query::ProcessList, entry).unwrap();
            assert!(
                !rows
                    .iter()
                    .any(|r| r.name().to_win32_lossy() == "fu_payload.exe"),
                "APL-based enumeration cannot see a DKOM-hidden process ({entry:?})"
            );
        }
    }

    #[test]
    fn hidden_process_remains_functional_and_in_thread_table() {
        let mut m = Machine::with_base_system("t").unwrap();
        Fu::default().infect(&mut m).unwrap();
        let pid = m.kernel().find_by_name("fu_payload.exe")[0];
        assert!(m.kernel().processes_via_threads().contains(&pid));
        assert!(m.kernel().processes_via_handles().contains(&pid));
    }

    #[test]
    fn fu_can_hide_other_ghostware_processes() {
        // "One can even use the FU rootkit to hide the other process-hiding
        // ghostware programs to increase their stealth."
        let mut m = Machine::with_base_system("t").unwrap();
        let pid = m.spawn_process("hxdef100.exe", "C:\\h.exe").unwrap();
        let fu = Fu { target: Some(pid) };
        let inf = fu.infect(&mut m).unwrap();
        assert_eq!(inf.hidden_process_names, vec!["hxdef100.exe".to_string()]);
        assert!(!m.kernel().active_process_list().contains(&pid));
    }

    #[test]
    fn hiding_a_dead_pid_fails() {
        let mut m = Machine::with_base_system("t").unwrap();
        assert_eq!(
            Fu::hide_process(&mut m, Pid(9999)),
            Err(NtStatus::NoSuchProcess)
        );
    }
}
