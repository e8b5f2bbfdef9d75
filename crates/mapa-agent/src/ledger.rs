//! Lockfile-coordinated on-disk state: how concurrent agent invocations
//! share one machine without double-booking a GPU.
//!
//! A *state directory* holds two things:
//!
//! * **`agent.lock`** — a classic O_EXCL-style lockfile serializing
//!   every probe→decide→actuate critical section. Acquisition is
//!   atomic: the claimant writes its identity (`pid <pid> nonce <n>`)
//!   to a private temp file and [`std::fs::hard_link`]s it onto the
//!   lock path, so the lock file is never observable half-written.
//!   A lock whose recorded pid is dead (per the injectable liveness
//!   check) is *stale*: reclaiming renames it to a per-pid graveyard
//!   name — the rename succeeds for exactly one contender — verifies
//!   the corpse still names the dead pid (guarding the ABA case where
//!   the owner released and someone else re-acquired between the read
//!   and the rename; a mismatch is renamed straight back), and retries
//!   acquisition. [`StateDir::lock_reclaims`] counts wins, which the
//!   concurrency harness pins to exactly one per crashed agent.
//! * **`agent.ledger`** — the allocation ledger: every live lease
//!   (id, owning pid, GPU set, tag) under a monotonic generation
//!   counter, serialized in a strict line format that ends with an
//!   FNV-1a checksum trailer. Writers replace it atomically
//!   (temp + rename); readers refuse anything truncated, corrupt, or
//!   checksum-mismatched with [`AgentError::LedgerCorrupt`] — the agent
//!   *fails closed*: no lease is ever derived from a ledger it cannot
//!   prove it read back intact.
//!
//! Pid liveness is a [`StateDir::with_liveness`]-injectable function
//! (default: `/proc/<pid>` existence) so the offline harness can model
//! crashed agents deterministically.

use crate::AgentError;
use mapa_topology::Fnv1a;
use std::collections::BTreeSet;
use std::fs;
use std::io::Write;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant, SystemTime};

/// Injectable pid-liveness check.
pub type LivenessFn = Arc<dyn Fn(u32) -> bool + Send + Sync>;

/// Default liveness: does `/proc/<pid>` exist? On platforms without
/// procfs every pid is presumed alive, which disables stale-lock
/// reclaim rather than risking the theft of a live lock.
#[must_use]
pub fn proc_liveness() -> LivenessFn {
    Arc::new(|pid: u32| {
        if Path::new("/proc").is_dir() {
            Path::new(&format!("/proc/{pid}")).exists()
        } else {
            true
        }
    })
}

const LOCK_FILE: &str = "agent.lock";
const LEDGER_FILE: &str = "agent.ledger";
const LEDGER_MAGIC: &str = "mapa-agent ledger v1";

/// One granted allocation, as recorded in the ledger.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Lease {
    /// Unique lease id (monotonic across the state directory's life —
    /// ids are drawn from the ledger generation and never reused).
    pub id: u64,
    /// Pid of the agent invocation that holds the lease.
    pub pid: u32,
    /// Unix timestamp (seconds) of the claim.
    pub created_unix: u64,
    /// The granted GPU indices, ascending.
    pub gpus: Vec<usize>,
    /// Free-form label (`--tag`); never contains a newline.
    pub tag: String,
}

/// The on-disk allocation ledger.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct Ledger {
    /// Monotonic write counter; also the lease-id source.
    pub generation: u64,
    /// Live leases, ascending by id.
    pub leases: Vec<Lease>,
}

impl Ledger {
    /// An empty ledger (what a fresh state directory reads).
    #[must_use]
    pub fn empty() -> Self {
        Self::default()
    }

    /// The lease holding `gpu`, if any.
    #[must_use]
    pub fn lease_of_gpu(&self, gpu: usize) -> Option<&Lease> {
        self.leases.iter().find(|l| l.gpus.contains(&gpu))
    }

    /// Renders the strict line format (see module docs).
    #[must_use]
    pub fn render(&self) -> String {
        let mut body = String::new();
        body.push_str(LEDGER_MAGIC);
        body.push('\n');
        body.push_str(&format!("generation {}\n", self.generation));
        for l in &self.leases {
            let gpus = l
                .gpus
                .iter()
                .map(ToString::to_string)
                .collect::<Vec<_>>()
                .join(",");
            body.push_str(&format!(
                "lease {} pid {} created {} gpus {} tag {}\n",
                l.id, l.pid, l.created_unix, gpus, l.tag
            ));
        }
        let checksum = fnv1a(body.as_bytes());
        body.push_str(&format!("checksum {checksum:016x}\n"));
        body
    }

    /// Parses [`Ledger::render`]'s format, refusing anything it cannot
    /// prove intact (bad magic, missing or mismatched checksum trailer,
    /// malformed lease lines, lease ids that do not ascend, overlapping
    /// GPU sets) and anything `render` would not write byte for byte (a
    /// `+` sign, a leading zero, an upper-case checksum).
    ///
    /// # Errors
    /// [`AgentError::LedgerCorrupt`] naming the first problem found.
    pub fn parse(input: &str, path: &Path) -> Result<Self, AgentError> {
        let corrupt = |reason: String| AgentError::LedgerCorrupt {
            path: path.display().to_string(),
            reason,
        };
        if !input.ends_with('\n') {
            return Err(corrupt("missing trailing newline (truncated write)".into()));
        }
        let Some(trailer_at) = input.trim_end().rfind('\n') else {
            return Err(corrupt("missing checksum trailer".into()));
        };
        let (body, trailer) = input.split_at(trailer_at + 1);
        let trailer = trailer.trim_end();
        let expected = trailer
            .strip_prefix("checksum ")
            .and_then(|h| u64::from_str_radix(h, 16).ok())
            .ok_or_else(|| corrupt(format!("bad checksum trailer '{trailer}'")))?;
        let actual = fnv1a(body.as_bytes());
        if actual != expected {
            return Err(corrupt(format!(
                "checksum mismatch: trailer {expected:016x}, content {actual:016x} \
                 (truncated or corrupted write)"
            )));
        }

        let mut lines = body.lines();
        if lines.next() != Some(LEDGER_MAGIC) {
            return Err(corrupt("bad magic line".into()));
        }
        let generation = lines
            .next()
            .and_then(|l| l.strip_prefix("generation "))
            .and_then(|g| g.parse().ok())
            .ok_or_else(|| corrupt("bad generation line".into()))?;

        let mut ledger = Ledger {
            generation,
            leases: Vec::new(),
        };
        let mut seen = BTreeSet::new();
        for line in lines {
            let lease = parse_lease_line(line)
                .ok_or_else(|| corrupt(format!("malformed lease line '{line}'")))?;
            if lease.id > generation {
                return Err(corrupt(format!(
                    "lease {} exceeds generation {generation}",
                    lease.id
                )));
            }
            if let Some(prev) = ledger.leases.last().filter(|prev| lease.id <= prev.id) {
                return Err(corrupt(format!(
                    "lease {} after lease {}: ids must ascend",
                    lease.id, prev.id
                )));
            }
            for &g in &lease.gpus {
                if !seen.insert(g) {
                    return Err(corrupt(format!("GPU {g} appears in two leases")));
                }
            }
            ledger.leases.push(lease);
        }
        if ledger.render() != input {
            return Err(corrupt("not in the form the agent writes".into()));
        }
        Ok(ledger)
    }
}

fn parse_lease_line(line: &str) -> Option<Lease> {
    // lease <id> pid <pid> created <unix> gpus <a,b,c> tag <free text>
    let rest = line.strip_prefix("lease ")?;
    let (id, rest) = rest.split_once(" pid ")?;
    let (pid, rest) = rest.split_once(" created ")?;
    let (created, rest) = rest.split_once(" gpus ")?;
    let (gpus, tag) = rest.split_once(" tag ")?;
    let gpus: Vec<usize> = gpus
        .split(',')
        .map(|g| g.parse().ok())
        .collect::<Option<Vec<_>>>()?;
    if gpus.is_empty() || gpus.windows(2).any(|w| w[0] >= w[1]) {
        return None;
    }
    Some(Lease {
        id: id.parse().ok()?,
        pid: pid.parse().ok()?,
        created_unix: created.parse().ok()?,
        gpus,
        tag: tag.to_string(),
    })
}

/// 64-bit FNV-1a over raw bytes (stable across platforms and releases —
/// what an on-disk checksum needs).
fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h = Fnv1a::default();
    h.write(bytes);
    h.finish()
}

/// Handle on one coordination directory (lock + ledger).
///
/// Cheap to construct per invocation; all cross-invocation state lives
/// on disk. The pid and liveness function are injectable so the offline
/// harness can run many "agents" (with synthetic pids, some of them
/// "crashed") inside one test process.
pub struct StateDir {
    root: PathBuf,
    pid: u32,
    liveness: LivenessFn,
    lock_timeout: Duration,
    poll_interval: Duration,
    reclaims: AtomicU64,
    nonce: AtomicU64,
}

impl std::fmt::Debug for StateDir {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("StateDir")
            .field("root", &self.root)
            .field("pid", &self.pid)
            .field("lock_timeout", &self.lock_timeout)
            .finish_non_exhaustive()
    }
}

impl StateDir {
    /// Opens (creating if needed) the state directory at `root`.
    ///
    /// # Errors
    /// [`AgentError::StateIo`] if the directory cannot be created.
    pub fn new(root: impl Into<PathBuf>) -> Result<Self, AgentError> {
        let root = root.into();
        fs::create_dir_all(&root).map_err(|e| AgentError::StateIo {
            path: root.display().to_string(),
            message: format!("creating state directory: {e}"),
        })?;
        Ok(Self {
            root,
            pid: std::process::id(),
            liveness: proc_liveness(),
            lock_timeout: Duration::from_secs(10),
            poll_interval: Duration::from_millis(2),
            reclaims: AtomicU64::new(0),
            nonce: AtomicU64::new(0),
        })
    }

    /// Overrides the pid recorded in locks and leases (testing).
    #[must_use]
    pub fn with_pid(mut self, pid: u32) -> Self {
        self.pid = pid;
        self
    }

    /// Overrides the pid-liveness check (testing).
    #[must_use]
    pub fn with_liveness(mut self, liveness: LivenessFn) -> Self {
        self.liveness = liveness;
        self
    }

    /// Overrides how long [`StateDir::lock`] waits before giving up.
    #[must_use]
    pub fn with_lock_timeout(mut self, timeout: Duration) -> Self {
        self.lock_timeout = timeout;
        self
    }

    /// The directory path.
    #[must_use]
    pub fn root(&self) -> &Path {
        &self.root
    }

    /// This agent's recorded pid.
    #[must_use]
    pub fn pid(&self) -> u32 {
        self.pid
    }

    /// Path of the lockfile.
    #[must_use]
    pub fn lock_path(&self) -> PathBuf {
        self.root.join(LOCK_FILE)
    }

    /// Path of the ledger.
    #[must_use]
    pub fn ledger_path(&self) -> PathBuf {
        self.root.join(LEDGER_FILE)
    }

    /// How many stale locks this handle has reclaimed.
    #[must_use]
    pub fn lock_reclaims(&self) -> u64 {
        self.reclaims.load(Ordering::SeqCst)
    }

    /// Whether `pid` is alive per this handle's liveness check.
    #[must_use]
    pub fn pid_alive(&self, pid: u32) -> bool {
        (self.liveness)(pid)
    }

    fn next_nonce(&self) -> u64 {
        self.nonce.fetch_add(1, Ordering::SeqCst)
    }

    fn io_err(&self, what: &str, e: &std::io::Error) -> AgentError {
        AgentError::StateIo {
            path: self.root.display().to_string(),
            message: format!("{what}: {e}"),
        }
    }

    /// Acquires the exclusive agent lock, reclaiming stale (dead-pid)
    /// locks along the way.
    ///
    /// # Errors
    /// [`AgentError::LockTimeout`] if a live holder keeps the lock past
    /// the configured timeout; [`AgentError::StateIo`] on filesystem
    /// failures.
    pub fn lock(&self) -> Result<LockGuard, AgentError> {
        let lock = self.lock_path();
        let deadline = Instant::now() + self.lock_timeout;
        loop {
            // Stage identity in a private file, then link it onto the
            // lock path: atomic acquire, content complete at link time.
            let nonce = self.next_nonce();
            let tmp = self.root.join(format!(".lock.{}.{}", self.pid, nonce));
            let claim = format!("pid {} nonce {}\n", self.pid, nonce);
            fs::write(&tmp, &claim).map_err(|e| self.io_err("staging lock claim", &e))?;
            let linked = fs::hard_link(&tmp, &lock);
            let _ = fs::remove_file(&tmp);
            match linked {
                Ok(()) => {
                    return Ok(LockGuard {
                        path: lock,
                        armed: true,
                    })
                }
                Err(e) if e.kind() == std::io::ErrorKind::AlreadyExists => {}
                Err(e) => return Err(self.io_err("acquiring lock", &e)),
            }

            // Held. Read the holder; a vanished file means it was just
            // released — retry immediately.
            let content = match fs::read_to_string(&lock) {
                Ok(c) => c,
                Err(e) if e.kind() == std::io::ErrorKind::NotFound => continue,
                Err(e) => return Err(self.io_err("reading lock holder", &e)),
            };
            let holder = parse_lock_pid(&content);
            match holder {
                Some(pid) if !(self.liveness)(pid) => {
                    if self.try_reclaim(&lock, &content, pid)? {
                        self.reclaims.fetch_add(1, Ordering::SeqCst);
                    }
                    // Either way the stale lock is gone (we removed it,
                    // a contender did, or it turned out live again) —
                    // retry without sleeping.
                    continue;
                }
                // Live holder, or a claim we cannot attribute (possibly
                // a foreign writer): wait politely.
                _ => {}
            }
            if Instant::now() >= deadline {
                return Err(AgentError::LockTimeout {
                    path: lock.display().to_string(),
                    holder,
                });
            }
            std::thread::sleep(self.poll_interval);
        }
    }

    /// Moves a stale lock out of the way. Returns `true` when *this*
    /// contender retired it (exactly one contender can: the graveyard
    /// rename races on the shared source path and the loser sees
    /// `NotFound`).
    fn try_reclaim(&self, lock: &Path, observed: &str, dead_pid: u32) -> Result<bool, AgentError> {
        let grave = self
            .root
            .join(format!(".lock.stale.{}.{}", self.pid, self.next_nonce()));
        match fs::rename(lock, &grave) {
            Ok(()) => {}
            // Someone else reclaimed (or the owner released) first.
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => return Ok(false),
            Err(e) => return Err(self.io_err("reclaiming stale lock", &e)),
        }
        // ABA guard: between our read and the rename, the dead holder's
        // lock could have been released by a reclaim and re-acquired by
        // a *live* agent. Verify the corpse is the claim we observed;
        // if not, put it straight back and treat this as no reclaim.
        let corpse = fs::read_to_string(&grave).unwrap_or_default();
        if corpse == observed && parse_lock_pid(&corpse) == Some(dead_pid) {
            let _ = fs::remove_file(&grave);
            Ok(true)
        } else {
            fs::rename(&grave, lock).map_err(|e| self.io_err("restoring stolen lock", &e))?;
            Ok(false)
        }
    }

    /// Reads the ledger. A missing file is an empty ledger; anything
    /// unparseable or checksum-mismatched fails closed. The `_guard`
    /// parameter is a witness: callers must hold the lock.
    ///
    /// # Errors
    /// [`AgentError::LedgerCorrupt`] / [`AgentError::StateIo`].
    pub fn read_ledger(&self, _guard: &LockGuard) -> Result<Ledger, AgentError> {
        let path = self.ledger_path();
        match fs::read_to_string(&path) {
            Ok(text) => Ledger::parse(&text, &path),
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => Ok(Ledger::empty()),
            Err(e) => Err(self.io_err("reading ledger", &e)),
        }
    }

    /// Atomically replaces the ledger (temp file + rename), fsyncing
    /// the temp so a torn write cannot survive a crash as a valid file.
    ///
    /// # Errors
    /// [`AgentError::StateIo`].
    pub fn write_ledger(&self, _guard: &LockGuard, ledger: &Ledger) -> Result<(), AgentError> {
        let tmp = self
            .root
            .join(format!(".ledger.{}.{}", self.pid, self.next_nonce()));
        let write = || -> std::io::Result<()> {
            let mut f = fs::File::create(&tmp)?;
            f.write_all(ledger.render().as_bytes())?;
            f.sync_all()?;
            Ok(())
        };
        if let Err(e) = write() {
            let _ = fs::remove_file(&tmp);
            return Err(self.io_err("writing ledger", &e));
        }
        fs::rename(&tmp, self.ledger_path()).map_err(|e| {
            let _ = fs::remove_file(&tmp);
            self.io_err("publishing ledger", &e)
        })
    }

    /// Unix timestamp for new leases.
    pub(crate) fn now_unix() -> u64 {
        SystemTime::now()
            .duration_since(SystemTime::UNIX_EPOCH)
            .map(|d| d.as_secs())
            .unwrap_or(0)
    }
}

/// The pid a lock file names: ASCII digits only, so a lock that does not
/// name its holder plainly is unattributable and left alone.
fn parse_lock_pid(content: &str) -> Option<u32> {
    let pid = content.strip_prefix("pid ")?.split_whitespace().next()?;
    if !pid.bytes().all(|b| b.is_ascii_digit()) {
        return None;
    }
    pid.parse().ok()
}

/// RAII guard for the agent lock: dropping it releases the lock.
#[derive(Debug)]
pub struct LockGuard {
    path: PathBuf,
    armed: bool,
}

impl LockGuard {
    /// Releases explicitly (drop does the same).
    pub fn release(mut self) {
        self.release_inner();
    }

    fn release_inner(&mut self) {
        if self.armed {
            self.armed = false;
            let _ = fs::remove_file(&self.path);
        }
    }
}

impl Drop for LockGuard {
    fn drop(&mut self) {
        self.release_inner();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tmpdir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!(
            "mapa-agent-ledger-test-{tag}-{}-{:?}",
            std::process::id(),
            std::thread::current().id()
        ));
        let _ = fs::remove_dir_all(&dir);
        dir
    }

    fn lease(id: u64, pid: u32, gpus: &[usize]) -> Lease {
        Lease {
            id,
            pid,
            created_unix: 1_700_000_000,
            gpus: gpus.to_vec(),
            tag: format!("job-{id}"),
        }
    }

    #[test]
    fn ledger_render_parse_round_trip() {
        let ledger = Ledger {
            generation: 7,
            leases: vec![lease(3, 100, &[0, 1, 4]), lease(7, 200, &[5])],
        };
        let text = ledger.render();
        let back = Ledger::parse(&text, Path::new("x")).unwrap();
        assert_eq!(back, ledger);
        assert_eq!(ledger.lease_of_gpu(5).unwrap().id, 7);
        assert!(ledger.lease_of_gpu(2).is_none());
    }

    #[test]
    fn truncated_or_corrupt_ledgers_fail_closed() {
        let ledger = Ledger {
            generation: 2,
            leases: vec![lease(2, 100, &[0, 1])],
        };
        let text = ledger.render();
        // Truncation anywhere — including mid-checksum — is detected.
        for cut in 1..text.len() {
            let truncated = &text[..cut];
            assert!(
                Ledger::parse(truncated, Path::new("x")).is_err(),
                "truncation at byte {cut} must fail closed"
            );
        }
        // Single-byte corruption in the body flips the checksum.
        let mut corrupted = text.clone().into_bytes();
        corrupted[25] ^= 0x20;
        let corrupted = String::from_utf8(corrupted).unwrap();
        let err = Ledger::parse(&corrupted, Path::new("x")).unwrap_err();
        assert!(matches!(err, AgentError::LedgerCorrupt { .. }), "{err}");
        // Overlapping GPU sets are structural corruption even when the
        // checksum is freshly computed over them.
        let overlapping = Ledger {
            generation: 9,
            leases: vec![lease(1, 1, &[0, 1]), lease(2, 2, &[1, 2])],
        };
        assert!(Ledger::parse(&overlapping.render(), Path::new("x")).is_err());
        // So is a repeated lease id: `release` would drop only one of them.
        let repeated = Ledger {
            generation: 2,
            leases: vec![lease(1, 1, &[0, 1]), lease(1, 1, &[2, 3])],
        };
        let err = Ledger::parse(&repeated.render(), Path::new("x")).unwrap_err();
        assert!(matches!(err, AgentError::LedgerCorrupt { .. }), "{err}");
    }

    #[test]
    fn missing_ledger_reads_empty_and_writes_are_atomic() {
        let dir = tmpdir("atomic");
        let state = StateDir::new(&dir).unwrap();
        let guard = state.lock().unwrap();
        assert_eq!(state.read_ledger(&guard).unwrap(), Ledger::empty());
        let ledger = Ledger {
            generation: 1,
            leases: vec![lease(1, state.pid(), &[2, 3])],
        };
        state.write_ledger(&guard, &ledger).unwrap();
        assert_eq!(state.read_ledger(&guard).unwrap(), ledger);
        // No temp droppings left behind.
        let stray: Vec<_> = fs::read_dir(&dir)
            .unwrap()
            .filter_map(Result::ok)
            .map(|e| e.file_name().to_string_lossy().into_owned())
            .filter(|n| n.starts_with(".ledger") || n.starts_with(".lock."))
            .collect();
        assert!(stray.is_empty(), "stray temp files: {stray:?}");
        drop(guard);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn lock_is_exclusive_and_released_on_drop() {
        let dir = tmpdir("excl");
        let a = StateDir::new(&dir)
            .unwrap()
            .with_lock_timeout(Duration::from_millis(40));
        let guard = a.lock().unwrap();
        let err = a.lock().unwrap_err();
        match err {
            AgentError::LockTimeout { holder, .. } => assert_eq!(holder, Some(a.pid())),
            other => panic!("expected LockTimeout, got {other}"),
        }
        drop(guard);
        let again = a.lock().unwrap();
        drop(again);
        assert!(!a.lock_path().exists());
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn stale_lock_is_reclaimed_live_lock_is_not() {
        let dir = tmpdir("stale");
        // Liveness registry: pid 1000 alive, everything else dead.
        let alive: LivenessFn = Arc::new(|pid| pid == 1000);
        let state = StateDir::new(&dir)
            .unwrap()
            .with_pid(1000)
            .with_liveness(alive)
            .with_lock_timeout(Duration::from_millis(40));
        // A crashed agent (pid 666) left its lock behind.
        fs::write(state.lock_path(), "pid 666 nonce 0\n").unwrap();
        let guard = state.lock().expect("stale lock must be reclaimed");
        assert_eq!(state.lock_reclaims(), 1);
        drop(guard);
        // A live holder's lock is respected until timeout.
        fs::write(state.lock_path(), "pid 1000 nonce 1\n").unwrap();
        assert!(state.lock().is_err());
        assert_eq!(state.lock_reclaims(), 1);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn unattributable_lock_content_is_respected_not_reclaimed() {
        let dir = tmpdir("foreign");
        let state = StateDir::new(&dir)
            .unwrap()
            .with_liveness(Arc::new(|_| false))
            .with_lock_timeout(Duration::from_millis(40));
        for foreign in ["something else entirely\n", "pid +123 nonce 0\n"] {
            fs::write(state.lock_path(), foreign).unwrap();
            assert!(
                state.lock().is_err(),
                "foreign lock content must not be stolen: {foreign:?}"
            );
        }
        assert_eq!(state.lock_reclaims(), 0);
        let _ = fs::remove_dir_all(&dir);
    }

    /// A signed body sealed with its own checksum is intact, but not what
    /// `render` writes (it would drop every `+`), so it is refused; so
    /// are a leading zero and an upper-case checksum.
    #[test]
    fn signed_or_padded_numbers_fail_closed() {
        let seal = |body: &str| format!("{body}checksum {:016x}\n", fnv1a(body.as_bytes()));
        let upper = |body: &str| format!("{body}checksum {:016X}\n", fnv1a(body.as_bytes()));
        let plain = "mapa-agent ledger v1\ngeneration 7\n";
        let signed = "mapa-agent ledger v1\ngeneration +7\n\
                      lease +3 pid +100 created +5 gpus +0,+1 tag t\n";
        let padded = "mapa-agent ledger v1\ngeneration 07\n";
        assert!(Ledger::parse(&seal(plain), Path::new("x")).is_ok());
        assert_ne!(seal(plain), upper(plain), "a hex letter to raise");
        for text in [seal(signed), seal(padded), upper(plain)] {
            let err = Ledger::parse(&text, Path::new("x")).unwrap_err();
            assert!(
                err.to_string().contains("not in the form"),
                "{text:?}: {err}"
            );
        }
    }

    /// Ledger-format tokens, well-formed and not: keywords with and without
    /// their spaces, numbers at and past `u64`, GPU lists in and out of
    /// order, line breaks, a non-ASCII character.
    const LEDGER_TOKENS: [&str; 28] = [
        "mapa-agent ledger v1",
        "generation ",
        "lease ",
        " pid ",
        " created ",
        " gpus ",
        " tag ",
        "checksum ",
        "lease",
        "tag",
        "0",
        "1",
        "7",
        "+3",
        "-1",
        "18446744073709551616",
        "0,1",
        "1,0",
        "2,2",
        ",",
        "0123456789abcdef",
        "x",
        " ",
        "\n",
        "\n",
        "\r\n",
        "\t",
        "\u{e9}",
    ];

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(2048))]

        /// Soup of ledger tokens, alone or spliced into a valid ledger's
        /// body, then sealed with a fresh checksum trailer or left as it
        /// is, never panics the parser: it refuses the text, or returns a
        /// ledger that re-renders to the text byte for byte.
        #[test]
        fn ledger_parse_never_panics_on_token_soup(
            tokens in proptest::collection::vec(0usize..LEDGER_TOKENS.len(), 0..40),
            host in 0usize..3,
            at in 0usize..4096,
            sealed in proptest::prelude::any::<bool>(),
        ) {
            let body = |ledger: Ledger| {
                let mut text = ledger.render();
                text.truncate(text.rfind("checksum ").expect("a rendered trailer"));
                text
            };
            let mut input = match host {
                0 => String::new(),
                1 => body(Ledger::empty()),
                _ => body(Ledger {
                    generation: 7,
                    leases: vec![lease(3, 100, &[0, 1, 4]), lease(7, 200, &[5])],
                }),
            };
            let soup: String = tokens.iter().map(|&t| LEDGER_TOKENS[t]).collect();
            input.insert_str(at % (input.len() + 1), &soup);
            if sealed {
                let checksum = fnv1a(input.as_bytes());
                input.push_str(&format!("checksum {checksum:016x}\n"));
            }
            if let Ok(ledger) = Ledger::parse(&input, Path::new("soup")) {
                proptest::prop_assert_eq!(ledger.render(), input);
            }
        }
    }
}
