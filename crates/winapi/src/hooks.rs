//! Hook points of the layered API chain.
//!
//! Figure 2 and Figure 5 of the paper enumerate where real ghostware inserts
//! itself between a user-mode query and the physical resource. Each of those
//! insertion points is a [`Level`] here; a [`Hook`] is one installed filter
//! at one level with a caller [`HookScope`] and an implementation
//! [`HookStyle`] (which a mechanism-targeting scanner can fingerprint —
//! unlike the cross-view diff, which never looks at mechanisms at all).

use crate::query::{CallContext, Query, QueryKind, Row};
use std::fmt;
use std::sync::Arc;
use strider_kernel::SyscallId;

/// Where in the chain a hook lives, ordered from the resource upward.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Level {
    /// A filesystem filter driver in the I/O stack (commercial file hiders).
    FilterDriver,
    /// A kernel registry callback.
    RegistryCallback,
    /// A replaced Service Dispatch Table entry (ProBot SE).
    Ssdt,
    /// Modified in-memory NtDll code (Hacker Defender, Berbew).
    NtdllCode,
    /// Modified in-memory Kernel32/Advapi32 code (Vanquish wrapper, Aphex
    /// detour).
    Win32ApiCode,
    /// A patched per-process Import Address Table entry (Urbin, Mersting,
    /// Aphex process hiding).
    Iat,
}

impl Level {
    /// All levels in result-propagation order (resource → caller).
    pub const ALL: [Level; 6] = [
        Level::FilterDriver,
        Level::RegistryCallback,
        Level::Ssdt,
        Level::NtdllCode,
        Level::Win32ApiCode,
        Level::Iat,
    ];

    /// Whether native-API callers (entering at NtDll) pass this level.
    /// IAT and Win32 code-patch hooks live above the native entry point.
    pub fn applies_to_native_calls(self) -> bool {
        !matches!(self, Level::Iat | Level::Win32ApiCode)
    }
}

impl fmt::Display for Level {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            Level::FilterDriver => "filter driver",
            Level::RegistryCallback => "registry callback",
            Level::Ssdt => "SSDT",
            Level::NtdllCode => "NtDll code",
            Level::Win32ApiCode => "Win32 API code",
            Level::Iat => "IAT",
        };
        f.write_str(s)
    }
}

strider_support::impl_json!(
    enum Level {
        FilterDriver,
        RegistryCallback,
        Ssdt,
        NtdllCode,
        Win32ApiCode,
        Iat,
    }
);

/// How the hook is implemented — what a mechanism-targeting detector sees.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum HookStyle {
    /// A table entry repointed (IAT or SSDT). Visible by comparing the table
    /// against the export/original values.
    TablePatch,
    /// In-memory code replaced by a call wrapper (Vanquish): the trojan
    /// function appears in call-stack traces.
    Wrapper,
    /// In-memory code patched with a `jmp` detour that doctors the return
    /// path (Aphex, Hacker Defender): absent from call-stack traces, but
    /// in-memory code no longer matches the on-disk image.
    Detour,
    /// A legitimate-mechanism component (filter driver, registry callback):
    /// indistinguishable by mechanism from benign AV/backup software.
    LegitimateMechanism,
}

impl HookStyle {
    /// Whether the trojan code shows up in a call-stack trace of the hooked
    /// API (the paper's wrapper-vs-detour distinction).
    pub fn visible_in_stack_trace(self) -> bool {
        matches!(self, HookStyle::Wrapper | HookStyle::TablePatch)
    }
}

/// Which calling processes a hook applies to.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum HookScope {
    /// Every caller (system-wide hiding).
    All,
    /// Every caller except the named images — e.g. ghostware that excludes
    /// its own helper, or that tries not to lie to a known scanner.
    ExceptCallers(Vec<String>),
    /// Only the named images — e.g. hiding only from `taskmgr.exe`/`tlist.exe`
    /// (the targeting attack of Section 5).
    OnlyCallers(Vec<String>),
}

impl HookScope {
    /// Whether the hook applies to a call from `ctx`.
    fn applies_to(&self, ctx: &CallContext) -> bool {
        match self {
            HookScope::All => true,
            HookScope::ExceptCallers(names) => !names
                .iter()
                .any(|n| n.eq_ignore_ascii_case(&ctx.image_name)),
            HookScope::OnlyCallers(names) => names
                .iter()
                .any(|n| n.eq_ignore_ascii_case(&ctx.image_name)),
        }
    }
}

/// A result-set filter installed at some level of the chain.
///
/// Implementations receive the rows that the lower layers produced and
/// edit them in place into the rows to pass upward — removal is hiding.
pub trait QueryFilter: Send + Sync {
    /// Filters `rows` for the given query and caller, returning `true`
    /// when it dropped, reordered or rewrote any row. The chain attributes
    /// a lie to the level whose filter says so; it also counts rows, so a
    /// drop is caught even if a filter under-reports.
    fn filter(&self, ctx: &CallContext, query: &Query, rows: &mut Vec<Row>) -> bool;
}

impl<F> QueryFilter for F
where
    F: Fn(&CallContext, &Query, &mut Vec<Row>) -> bool + Send + Sync,
{
    fn filter(&self, ctx: &CallContext, query: &Query, rows: &mut Vec<Row>) -> bool {
        self(ctx, query, rows)
    }
}

/// A hook id, as stored in the SSDT / filter stack.
pub type HookId = u32;

/// One installed hook.
#[derive(Clone)]
pub struct Hook {
    /// Registry-assigned id.
    pub id: HookId,
    /// The installing software's name (ghostware or benign).
    pub owner: String,
    /// Chain level.
    pub level: Level,
    /// Query kinds intercepted.
    pub kinds: Vec<QueryKind>,
    /// Caller scope.
    pub scope: HookScope,
    /// Implementation mechanism.
    pub style: HookStyle,
    /// The filter body.
    pub filter: Arc<dyn QueryFilter>,
}

impl fmt::Debug for Hook {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Hook")
            .field("id", &self.id)
            .field("owner", &self.owner)
            .field("level", &self.level)
            .field("kinds", &self.kinds)
            .field("style", &self.style)
            .finish_non_exhaustive()
    }
}

impl Hook {
    /// Whether this hook intercepts `query` from `ctx`.
    pub fn intercepts(&self, ctx: &CallContext, query: &Query) -> bool {
        self.kinds.contains(&query.kind()) && self.scope.applies_to(ctx)
    }
}

/// The machine-wide registry of installed hooks.
#[derive(Debug, Default)]
pub struct HookRegistry {
    hooks: Vec<Hook>,
    next_id: HookId,
}

impl HookRegistry {
    /// Creates an empty registry.
    pub fn new() -> Self {
        Self::default()
    }

    /// Installs a hook and returns its id.
    pub fn install(
        &mut self,
        owner: &str,
        level: Level,
        kinds: Vec<QueryKind>,
        scope: HookScope,
        style: HookStyle,
        filter: Arc<dyn QueryFilter>,
    ) -> HookId {
        let id = self.next_id;
        self.next_id += 1;
        self.hooks.push(Hook {
            id,
            owner: owner.to_string(),
            level,
            kinds,
            scope,
            style,
            filter,
        });
        id
    }

    /// Removes every hook installed by `owner`, returning their ids.
    pub fn remove_by_owner(&mut self, owner: &str) -> Vec<HookId> {
        let mut removed = Vec::new();
        self.hooks.retain(|h| {
            if h.owner.eq_ignore_ascii_case(owner) {
                removed.push(h.id);
                false
            } else {
                true
            }
        });
        removed
    }

    /// Removes one hook by id.
    pub fn remove(&mut self, id: HookId) -> bool {
        let before = self.hooks.len();
        self.hooks.retain(|h| h.id != id);
        self.hooks.len() != before
    }

    /// All installed hooks.
    pub fn hooks(&self) -> &[Hook] {
        &self.hooks
    }

    /// A hook by id.
    pub fn hook(&self, id: HookId) -> Option<&Hook> {
        self.hooks.iter().find(|h| h.id == id)
    }

    /// Hooks at a level that intercept the query, in installation order.
    pub fn applicable<'a>(
        &'a self,
        level: Level,
        ctx: &'a CallContext,
        query: &'a Query,
    ) -> impl Iterator<Item = &'a Hook> + 'a {
        self.hooks
            .iter()
            .filter(move |h| h.level == level && h.intercepts(ctx, query))
    }
}

/// Maps a query kind to the SSDT service it dispatches through.
pub fn syscall_for(kind: QueryKind) -> SyscallId {
    match kind {
        QueryKind::Files => SyscallId::NtQueryDirectoryFile,
        QueryKind::RegKeys => SyscallId::NtEnumerateKey,
        QueryKind::RegValues => SyscallId::NtEnumerateValueKey,
        QueryKind::Processes => SyscallId::NtQuerySystemInformation,
        QueryKind::Modules => SyscallId::NtQueryInformationProcess,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use strider_nt_core::Pid;

    fn noop() -> Arc<dyn QueryFilter> {
        Arc::new(|_: &CallContext, _: &Query, _: &mut Vec<Row>| false)
    }

    #[test]
    fn scope_matching() {
        let ctx = CallContext::new(Pid(4), "TaskMgr.exe");
        assert!(HookScope::All.applies_to(&ctx));
        assert!(HookScope::OnlyCallers(vec!["taskmgr.exe".into()]).applies_to(&ctx));
        assert!(!HookScope::OnlyCallers(vec!["tlist.exe".into()]).applies_to(&ctx));
        assert!(!HookScope::ExceptCallers(vec!["taskmgr.exe".into()]).applies_to(&ctx));
        assert!(HookScope::ExceptCallers(vec!["tlist.exe".into()]).applies_to(&ctx));
    }

    #[test]
    fn stack_trace_visibility_follows_style() {
        assert!(HookStyle::Wrapper.visible_in_stack_trace());
        assert!(HookStyle::TablePatch.visible_in_stack_trace());
        assert!(!HookStyle::Detour.visible_in_stack_trace());
        assert!(!HookStyle::LegitimateMechanism.visible_in_stack_trace());
    }

    #[test]
    fn registry_install_remove() {
        let mut reg = HookRegistry::new();
        let a = reg.install(
            "hxdef",
            Level::NtdllCode,
            vec![QueryKind::Files],
            HookScope::All,
            HookStyle::Detour,
            noop(),
        );
        let b = reg.install(
            "hxdef",
            Level::NtdllCode,
            vec![QueryKind::Processes],
            HookScope::All,
            HookStyle::Detour,
            noop(),
        );
        assert_eq!(reg.hooks().len(), 2);
        assert!(reg.hook(a).is_some());
        let removed = reg.remove_by_owner("HXDEF");
        assert_eq!(removed, vec![a, b]);
        assert!(reg.hooks().is_empty());
        assert!(!reg.remove(a));
    }

    #[test]
    fn applicable_respects_level_kind_scope() {
        let mut reg = HookRegistry::new();
        reg.install(
            "x",
            Level::Iat,
            vec![QueryKind::Files],
            HookScope::OnlyCallers(vec!["explorer.exe".into()]),
            HookStyle::TablePatch,
            noop(),
        );
        let q = Query::DirectoryEnum {
            path: "C:\\x".parse().unwrap(),
        };
        let hit = CallContext::new(Pid(4), "explorer.exe");
        let miss = CallContext::new(Pid(8), "cmd.exe");
        assert_eq!(reg.applicable(Level::Iat, &hit, &q).count(), 1);
        assert_eq!(reg.applicable(Level::Iat, &miss, &q).count(), 0);
        assert_eq!(reg.applicable(Level::NtdllCode, &hit, &q).count(), 0);
    }

    #[test]
    fn native_call_level_applicability() {
        assert!(!Level::Iat.applies_to_native_calls());
        assert!(!Level::Win32ApiCode.applies_to_native_calls());
        assert!(Level::NtdllCode.applies_to_native_calls());
        assert!(Level::Ssdt.applies_to_native_calls());
        assert!(Level::FilterDriver.applies_to_native_calls());
    }
}
