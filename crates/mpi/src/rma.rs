//! One-sided communication: RMA windows with generalized active-target
//! synchronisation.
//!
//! TAPIOCA fills aggregation buffers with `MPI_Put` (paper Sec. IV-A,
//! Algorithm 3). A [`Window`] exposes one byte region per communicator
//! member; any member can `put` into any member's region. Two
//! synchronisation styles order those accesses:
//!
//! * **post / start / complete / wait** (`MPI_Win_post` & co.) — what
//!   the round pipeline uses. The *target* [`Window::post`]s an exposure
//!   to the group of origins that will access it; an *origin* blocks in
//!   [`Window::start`] only until that post, issues its accesses and
//!   signals [`Window::complete`] (non-blocking); the target alone
//!   blocks in [`Window::wait`] until every origin of the group has
//!   completed. Members outside the group make no call at all. After
//!   `wait` returns, every access an origin issued before its
//!   `complete` is visible to the target.
//! * [`Window::fence`] — the all-member collective of Algorithm 3
//!   (`MPI_Win_fence`), a barrier over the window's communicator. Kept
//!   as a primitive; the pipeline no longer calls it.
//!
//! The synchronisation state is four monotone counters per (target,
//! origin) pair — exposures opened / started, completes signalled /
//! consumed — under **one** lock per window, allocated once with the
//! window (only for members that expose memory). Every member sleeps on
//! its *own* condvar, and a signal wakes exactly the members it
//! unblocks: a `post` its group's parked starters, the `complete` that
//! satisfies a parked `wait` that one target. Signals follow the
//! runtime's wake rule (see `sync`): decide under the lock, wake after
//! it, one wake per waiter that is unblocked. Under the lock a signal
//! bumps its counters and marks each member it unblocks as no longer
//! parked, so no later signal wakes it again; it notifies those members
//! only after the unlock, so a woken member does not find the lock still
//! held by its waker. A `post` lists the members it unblocks in a
//! buffer its handle sized when the window was allocated. Nothing
//! spins, nothing is allocated per call, and every blocking call
//! honours the world's watchdog deadline with a diagnosis naming the
//! member that has not signalled. A parked member re-checks its
//! counters whenever it wakes, so a stray wake sends it back to sleep.
//!
//! Target regions are guarded by `RwLock`, split into independently
//! locked **panes** ([`Window::allocate_paned`]): an aggregator exposing
//! its two pipeline buffers as two panes can have one buffer drained in
//! place by the I/O worker (through a [`WinSegment`] view) while the
//! other is concurrently filled by next-round puts. A
//! [`Window::put_vectored`] takes a pane's lock once for its consecutive
//! parts in that pane, and holds one pane at a time. MPI leaves
//! overlapping concurrent puts undefined; TAPIOCA only issues disjoint
//! puts, so lock serialization affects timing (which this runtime does
//! not model) but never correctness.
//!
//! **Window memory outlives the world that allocated it.** Panes come
//! from one process-wide pool of byte buffers keyed by exact length: a
//! region takes a pooled buffer of its pane's length when there is one
//! and zero-fills it, or allocates a zeroed one; it gives its panes back
//! when the last reference to the window goes — every member's handle
//! *and* every [`WinSegment`] an in-flight flush still reads — so a pane
//! is never handed out while the file worker may read it. A pane
//! poisoned by a panicking rank is freed, not pooled. The pool needs no
//! tunable: pooled plus live pane bytes never exceed the most live pane
//! bytes the process has held at once, and a miss that would cross that
//! mark frees pooled buffers first. A program that builds a fresh
//! session per checkpoint thus stops paying first-touch page faults for
//! memory an identical session just released.

use std::cell::Cell;
use std::collections::BTreeMap;
use std::sync::{Arc, Condvar, Mutex, MutexGuard, PoisonError, RwLock, RwLockWriteGuard};
use std::time::{Duration, Instant};

use crate::comm::{Comm, RegistryKind};
use crate::lock_ok;
use crate::perturb::Perturber;
use crate::Rank;
#[cfg(feature = "trace")]
use tapioca_trace::TraceScope;

/// One member's window region: `len` bytes split into panes of
/// `pane_size` bytes each (the last pane may be shorter; a `pane_size`
/// of `0` means one pane of `len`). Offsets are linear; accesses
/// crossing a pane boundary are split transparently.
struct Region {
    pane_size: usize,
    len: usize,
    panes: Vec<RwLock<Vec<u8>>>,
}

/// Byte buffers of dropped regions, kept for the next region that asks
/// for the same pane length (see the module doc).
struct PanePool {
    state: Mutex<PoolState>,
}

struct PoolState {
    /// Buffers no region holds, by exact length.
    free: BTreeMap<usize, Vec<Vec<u8>>>,
    /// Bytes in `free`.
    pooled: usize,
    /// Bytes in the panes of live regions.
    live: usize,
    /// The most `live` has ever been; `live + pooled` never exceeds it.
    high_water: usize,
}

impl PoolState {
    /// Take pooled buffers out, largest first, until `live + pooled` is
    /// back under the high-water mark; the caller frees them unlocked.
    fn release_over_bound(&mut self) -> Vec<Vec<u8>> {
        let mut released = Vec::new();
        for bufs in self.free.values_mut().rev() {
            while self.live + self.pooled > self.high_water {
                let Some(buf) = bufs.pop() else { break };
                self.pooled -= buf.len();
                released.push(buf);
            }
        }
        released
    }
}

/// The pool every window region takes its panes from.
static PANES: PanePool = PanePool::new();

impl PanePool {
    const fn new() -> PanePool {
        PanePool {
            state: Mutex::new(PoolState {
                free: BTreeMap::new(),
                pooled: 0,
                live: 0,
                high_water: 0,
            }),
        }
    }

    /// A zeroed pane of `len` bytes: a pooled buffer of exactly that
    /// length, zero-filled, or else a new allocation, made after freeing
    /// whatever pooled buffers the high-water mark no longer covers.
    fn take(&self, len: usize) -> Vec<u8> {
        let mut st = lock_ok(&self.state);
        st.live += len;
        if let Some(mut pane) = st.free.get_mut(&len).and_then(Vec::pop) {
            st.pooled -= len;
            drop(st);
            pane.fill(0);
            return pane;
        }
        st.high_water = st.high_water.max(st.live);
        let released = st.release_over_bound();
        drop(st);
        drop(released);
        vec![0u8; len]
    }

    /// Take back the pane of a dropped region. A pane poisoned by a
    /// panicking rank is freed instead.
    fn give(&self, pane: RwLock<Vec<u8>>) {
        let (buf, poisoned) = match pane.into_inner() {
            Ok(buf) => (buf, false),
            Err(e) => (e.into_inner(), true),
        };
        let mut st = lock_ok(&self.state);
        st.live -= buf.len();
        if !poisoned {
            st.pooled += buf.len();
            st.free.entry(buf.len()).or_default().push(buf);
        }
    }
}

impl Region {
    fn new(len: usize, pane_size: usize) -> Region {
        let pane_size = if pane_size == 0 { len } else { pane_size.min(len) }.max(1);
        let panes = (0..len.div_ceil(pane_size))
            .map(|i| RwLock::new(PANES.take(pane_size.min(len - i * pane_size))))
            .collect();
        Region { pane_size, len, panes }
    }

    fn check_bounds(&self, op: &str, offset: usize, len: usize) {
        assert!(
            offset + len <= self.len,
            "{op} of {}..{} exceeds window region of {} bytes",
            offset,
            offset + len,
            self.len
        );
    }

    /// The panes a linear range touches, ascending: `(pane index, offset
    /// inside the pane, byte count)` per contiguous part.
    fn spans(
        &self,
        op: &str,
        offset: usize,
        len: usize,
    ) -> impl Iterator<Item = (usize, usize, usize)> {
        self.check_bounds(op, offset, len);
        let (pane_size, end) = (self.pane_size, offset + len);
        let mut pos = offset;
        std::iter::from_fn(move || {
            let po = pos % pane_size;
            let take = (pane_size - po).min(end - pos);
            let span = (take > 0).then_some((pos / pane_size, po, take));
            pos += take;
            span
        })
    }

    /// Copy `out.len()` bytes from the region at `offset`, pane by pane.
    fn read(&self, op: &str, offset: usize, out: &mut [u8]) {
        let mut done = 0;
        for (p, po, take) in self.spans(op, offset, out.len()) {
            let pane = self.panes[p].read().expect("RMA pane lock poisoned");
            out[done..done + take].copy_from_slice(&pane[po..po + take]);
            done += take;
        }
    }

    /// Run `f` over the range `[offset, offset + len)` as a sequence of
    /// read-locked contiguous parts (one per touched pane). The
    /// zero-copy flush path iterates a window slot in place with this —
    /// no intermediate buffer exists anywhere between the window and
    /// the file descriptor.
    fn for_parts<E>(
        &self,
        op: &str,
        offset: usize,
        len: usize,
        mut f: impl FnMut(&[u8]) -> Result<(), E>,
    ) -> Result<(), E> {
        self.spans(op, offset, len).try_for_each(|(p, po, take)| {
            f(&self.panes[p].read().expect("RMA pane lock poisoned")[po..po + take])
        })
    }

    /// [`Region::for_parts`] with the parts write-locked and lent as
    /// `&mut [u8]`: the read pipeline fills a window slot straight from
    /// the file with this, so no staging buffer exists between the file
    /// descriptor and the window.
    fn for_parts_mut<E>(
        &self,
        op: &str,
        offset: usize,
        len: usize,
        mut f: impl FnMut(&mut [u8]) -> Result<(), E>,
    ) -> Result<(), E> {
        self.spans(op, offset, len).try_for_each(|(p, po, take)| {
            f(&mut self.panes[p].write().expect("RMA pane lock poisoned")[po..po + take])
        })
    }
}

/// Runs once the last reference to the window is gone: no member
/// handle and no in-flight flush's [`WinSegment`] can reach the panes.
impl Drop for Region {
    fn drop(&mut self) {
        for pane in self.panes.drain(..) {
            PANES.give(pane);
        }
    }
}

/// Schedule coordinates of a synchronisation call: carried into the
/// watchdog diagnosis and the trace label of the call.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RoundTag {
    /// Schedule partition the window serves.
    pub partition: u32,
    /// Pipeline round the call belongs to.
    pub round: u32,
}

/// Exposure bookkeeping of one member that exposes memory: four
/// monotone counters per origin. `opened - started` is the number of
/// posted exposures the origin has not entered yet; `signalled -
/// consumed` the completes the target's `wait` has not consumed yet.
struct Exposure {
    opened: Vec<u64>,
    started: Vec<u64>,
    signalled: Vec<u64>,
    consumed: Vec<u64>,
}

impl Exposure {
    fn new(n: usize) -> Exposure {
        Exposure {
            opened: vec![0; n],
            started: vec![0; n],
            signalled: vec![0; n],
            consumed: vec![0; n],
        }
    }

    /// Origins of `group` whose complete this target has not received.
    fn missing<'a>(&'a self, group: &'a [Rank]) -> impl Iterator<Item = Rank> + 'a {
        group.iter().copied().filter(|&o| self.signalled[o] == self.consumed[o])
    }
}

/// What a parked member sleeps on, so a signal can tell whom it
/// unblocks without waking anyone else.
#[derive(Clone, Copy, PartialEq, Eq)]
enum Parked {
    No,
    /// In `start`, until `target` posts to this member.
    Start { target: Rank },
    /// In `wait`, until `missing` more origins have completed.
    Wait { missing: usize },
}

struct SyncState {
    /// Per member: `Some` iff its region is non-empty.
    exposures: Vec<Option<Exposure>>,
    parked: Vec<Parked>,
}

impl SyncState {
    fn exposure(&mut self, target: Rank) -> &mut Exposure {
        self.exposures[target]
            .as_mut()
            .expect("synchronisation target exposes a non-empty window region")
    }
}

struct WinShared {
    /// One region per comm rank.
    regions: Vec<Region>,
    /// World rank of each member, for watchdog diagnoses.
    world_ranks: Vec<Rank>,
    /// Post/start/complete/wait state: every counter under this lock.
    sync: Mutex<SyncState>,
    /// One condvar per member, all paired with `sync`: a member only
    /// ever sleeps on its own, so a signal wakes whom it unblocks.
    wake: Vec<Condvar>,
}

/// An RMA window over a communicator.
pub struct Window {
    shared: Arc<WinShared>,
    /// This handle's rank in the window's communicator.
    me: Rank,
    /// Watchdog deadline of every blocking call (from the world).
    timeout: Option<Duration>,
    /// Schedule perturbation inherited from the world, if any.
    perturb: Option<Arc<Perturber>>,
    /// The members a `post` unblocks, listed under the lock and woken
    /// after it; sized for every member at allocation, so a post never
    /// allocates. Empty between calls.
    woken: Cell<Vec<Rank>>,
    /// Per-handle tracing context; when set, puts and fences record
    /// events attributed to this handle's rank.
    #[cfg(feature = "trace")]
    scope: Option<TraceScope>,
}

impl std::fmt::Debug for Window {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Window").field("members", &self.shared.regions.len()).finish()
    }
}

/// A refcounted view of a byte range inside one member's window region.
///
/// The zero-copy flush path hands these to the file worker instead of a
/// copied-out `Vec<u8>`: the worker reads the window panes in place
/// (under their read locks, pane by pane) while later-round puts target
/// the *other* pane. The view keeps the window memory alive on its own,
/// so the submitting rank may drop its `Window` handle freely.
#[derive(Clone)]
pub struct WinSegment {
    shared: Arc<WinShared>,
    rank: Rank,
    offset: usize,
    len: usize,
}

impl std::fmt::Debug for WinSegment {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("WinSegment")
            .field("rank", &self.rank)
            .field("offset", &self.offset)
            .field("len", &self.len)
            .finish()
    }
}

impl WinSegment {
    /// Length of the viewed range in bytes.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether the view is empty.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Iterate the viewed bytes as contiguous read-locked parts (one
    /// per touched pane), stopping at the first error.
    pub fn for_each_part<E>(&self, f: impl FnMut(&[u8]) -> Result<(), E>) -> Result<(), E> {
        self.shared.regions[self.rank].for_parts("segment read", self.offset, self.len, f)
    }
}

impl Window {
    /// Collectively allocate a window; every member exposes a region of
    /// `local_size` bytes (zero-initialized) as a single pane. Sizes may
    /// differ per rank.
    ///
    /// The memory may be reused: a pane of a window dropped earlier in
    /// the process, by this world or another, is zero-filled and handed
    /// out again. A window's panes return to that pool only once no
    /// handle and no [`WinSegment`] of it is left (see the module doc).
    ///
    /// All members must call this the same number of times in the same
    /// order (it is a collective).
    pub fn allocate(comm: &Comm, local_size: usize) -> Window {
        // Not `local_size`: only the first arriver's closure builds the
        // regions, so the pane size must not depend on who that is.
        Self::allocate_paned(comm, local_size, 0)
    }

    /// [`Window::allocate`] with regions split into panes of `pane_size`
    /// bytes (same pane size on every member; `0` means one pane).
    /// Accesses remain linear-offset addressed; only lock granularity
    /// changes: accesses to different panes never contend, so an
    /// aggregator's two pipeline buffers (two panes) can be filled and
    /// drained concurrently. Each pane is zeroed, possibly reused memory,
    /// as in [`Window::allocate`].
    pub fn allocate_paned(comm: &Comm, local_size: usize, pane_size: usize) -> Window {
        let sizes = comm.allgather_u64(local_size as u64);
        let seq = comm.next_win_seq();
        let key = (comm.uid(), RegistryKind::Window, seq, 0);
        let world_ranks = comm.members();
        let shared = comm.world().get_or_create(key, comm.size(), move || {
            let n = sizes.len();
            WinShared {
                regions: sizes.iter().map(|&s| Region::new(s as usize, pane_size)).collect(),
                world_ranks: world_ranks.to_vec(),
                sync: Mutex::new(SyncState {
                    exposures: sizes.iter().map(|&s| (s > 0).then(|| Exposure::new(n))).collect(),
                    parked: vec![Parked::No; n],
                }),
                wake: (0..n).map(|_| Condvar::new()).collect(),
            }
        });
        Window {
            shared,
            me: comm.rank(),
            timeout: comm.world().watchdog,
            perturb: comm.perturber(),
            woken: Cell::new(Vec::with_capacity(comm.size())),
            #[cfg(feature = "trace")]
            scope: None,
        }
    }

    /// Attach a tracing scope to this handle: subsequent `put` and
    /// `fence` calls record events. Local to this handle — other
    /// members' handles on the same window are unaffected.
    #[cfg(feature = "trace")]
    pub fn set_trace_scope(&mut self, scope: TraceScope) {
        self.scope = Some(scope);
    }

    /// Detach the tracing scope: this handle records nothing until the
    /// next [`Window::set_trace_scope`].
    #[cfg(feature = "trace")]
    pub fn clear_trace_scope(&mut self) {
        self.scope = None;
    }

    /// The attached tracing scope, if any.
    #[cfg(feature = "trace")]
    pub fn trace_scope(&self) -> Option<&TraceScope> {
        self.scope.as_ref()
    }

    /// Deposit `data` into `target`'s region at `offset` (one-sided):
    /// a [`Window::put_vectored`] of one part.
    ///
    /// # Panics
    /// Panics if the write exceeds the target region.
    pub fn put(&self, target: Rank, offset: usize, data: &[u8]) {
        self.put_vectored(target, &[(offset, data)]);
    }

    /// Deposit each `(offset, bytes)` part into `target`'s region, in
    /// the order given (one-sided; several puts issued as one call, like
    /// a noncontiguous `MPI_Put`). Each part is its own put: it passes a
    /// perturbation point before its bytes move and records one
    /// `rma_put` trace event after. What the call saves is locking: a
    /// pane's write lock is taken once for a run of consecutive parts
    /// that fall in that pane, and released before the next pane's is
    /// taken, so the call never holds two panes at once.
    ///
    /// # Panics
    /// Panics if any part exceeds the target region. Every part is
    /// checked before the first byte moves, so an overflowing part
    /// deposits nothing and poisons no pane.
    pub fn put_vectored(&self, target: Rank, parts: &[(usize, &[u8])]) {
        let region = &self.shared.regions[target];
        for &(offset, data) in parts {
            region.check_bounds("put", offset, data.len());
        }
        let mut held: Option<(usize, RwLockWriteGuard<'_, Vec<u8>>)> = None;
        for &(offset, data) in parts {
            self.perturb_point();
            let mut done = 0;
            for (p, po, take) in region.spans("put", offset, data.len()) {
                let mut pane = match held.take() {
                    Some((q, pane)) if q == p => pane,
                    other => {
                        drop(other);
                        region.panes[p].write().expect("RMA pane lock poisoned")
                    }
                };
                pane[po..po + take].copy_from_slice(&data[done..done + take]);
                done += take;
                held = Some((p, pane));
            }
            #[cfg(feature = "trace")]
            if let Some(scope) = &self.scope {
                scope.rma_put(target, offset as u64, data.len() as u64);
            }
        }
    }

    /// Read a member's region into a caller-provided buffer —
    /// the allocation-free variant for drain loops that recycle flush
    /// buffers. Reads `out.len()` bytes starting at `offset`.
    pub fn read_local_into(&self, me: Rank, offset: usize, out: &mut [u8]) {
        self.shared.regions[me].read("read", offset, out);
    }

    /// A refcounted in-place view of `len` bytes of `rank`'s region at
    /// `offset`, for zero-copy flush submission
    /// ([`crate::SharedFile::iwrite_at`]).
    ///
    /// # Panics
    /// Panics if the range exceeds the region.
    pub fn segment(&self, rank: Rank, offset: usize, len: usize) -> WinSegment {
        self.shared.regions[rank].check_bounds("segment", offset, len);
        WinSegment { shared: Arc::clone(&self.shared), rank, offset, len }
    }

    /// Size of a member's region.
    pub fn region_len(&self, rank: Rank) -> usize {
        self.shared.regions[rank].len
    }

    /// Lend `len` bytes of this member's *own* region at `offset` to
    /// `f`, in place and write-locked, as contiguous parts in ascending
    /// order (one per touched pane), stopping at the first error. An
    /// aggregator fills its buffer from the file through this before
    /// members `get` it ([`crate::SharedFile::read_at_into`]).
    ///
    /// # Panics
    /// Panics if the range exceeds the region.
    pub fn fill_local<E>(
        &self,
        offset: usize,
        len: usize,
        f: impl FnMut(&mut [u8]) -> Result<(), E>,
    ) -> Result<(), E> {
        self.shared.regions[self.me].for_parts_mut("fill", offset, len, f)
    }

    /// One-sided read that lends the bytes instead of copying them:
    /// `f` sees `len` bytes of `target`'s region at `offset` in place,
    /// as contiguous read-locked parts in ascending order (one per
    /// touched pane; none for an empty range). The read pipeline
    /// appends a chunk to its output buffer with this, so the buffer
    /// need not be zero-filled first.
    ///
    /// # Panics
    /// Panics if the range exceeds the region.
    pub fn get_with(&self, target: Rank, offset: usize, len: usize, mut f: impl FnMut(&[u8])) {
        self.perturb_point();
        let Ok(()) = self.shared.regions[target].for_parts("get", offset, len, |part| {
            f(part);
            Ok::<(), std::convert::Infallible>(())
        });
    }

    /// One-sided read into a caller-provided buffer (MPI_Get
    /// with an application-owned receive buffer): reads `out.len()`
    /// bytes from `target`'s region at `offset` without allocating.
    pub fn get_into(&self, target: Rank, offset: usize, out: &mut [u8]) {
        let mut done = 0;
        self.get_with(target, offset, out.len(), |part| {
            out[done..done + part.len()].copy_from_slice(part);
            done += part.len();
        });
    }

    /// Close the current access epoch (collective over the window's
    /// communicator): blocks until every member reached the fence; all
    /// puts issued before it are then visible everywhere.
    pub fn fence(&self, comm: &Comm) {
        comm.barrier();
        #[cfg(feature = "trace")]
        if let Some(scope) = &self.scope {
            scope.fence();
        }
    }

    fn perturb_point(&self) {
        if let Some(p) = &self.perturb {
            p.point();
        }
    }

    /// Open an exposure of this member's region to `origins`
    /// (`MPI_Win_post`). Non-blocking: bumps each origin's `opened`
    /// counter and, after releasing the lock, wakes exactly those of
    /// them already parked in [`Window::start`] on this member.
    ///
    /// # Panics
    /// Panics if this member's region is empty (it exposes nothing).
    #[cfg_attr(not(feature = "trace"), allow(unused_variables))]
    pub fn post(&self, origins: &[Rank], at: RoundTag) {
        self.perturb_point();
        #[cfg(feature = "trace")]
        if let Some(scope) = &self.scope {
            scope.post(at.round);
        }
        let mut woken = self.woken.take();
        let mut st = lock_ok(&self.shared.sync);
        for &o in origins {
            st.exposure(self.me).opened[o] += 1;
            if st.parked[o] == (Parked::Start { target: self.me }) {
                st.parked[o] = Parked::No;
                woken.push(o);
            }
        }
        drop(st);
        for o in woken.drain(..) {
            self.shared.wake[o].notify_one();
        }
        self.woken.set(woken);
    }

    /// Enter `target`'s exposure (`MPI_Win_start`): blocks until
    /// `target` has posted one more exposure to this member than this
    /// member has started — and no longer.
    ///
    /// # Panics
    /// Panics with a diagnosis naming `target` if the watchdog deadline
    /// elapses first.
    pub fn start(&self, target: Rank, at: RoundTag) {
        self.perturb_point();
        let deadline = self.timeout.map(|t| Instant::now() + t);
        let mut st = lock_ok(&self.shared.sync);
        loop {
            let ex = st.exposure(target);
            if ex.opened[self.me] > ex.started[self.me] {
                ex.started[self.me] += 1;
                break;
            }
            st.parked[self.me] = Parked::Start { target };
            st = self.park(st, deadline, at, |st| {
                let posted = st.exposure(target).opened[self.me];
                format!(
                    "start: member {target} (world rank {}) has not posted its exposure \
                     (it posted {posted} to this member so far, all of them entered)",
                    self.shared.world_ranks[target]
                )
            });
        }
        st.parked[self.me] = Parked::No;
        drop(st);
        #[cfg(feature = "trace")]
        if let Some(scope) = &self.scope {
            scope.start(target, at.round);
        }
    }

    /// Leave `target`'s exposure (`MPI_Win_complete`). Non-blocking:
    /// every access this member issued before the call is visible to
    /// `target` once its [`Window::wait`] returns. Wakes `target`, after
    /// releasing the lock, only if this is the last complete its parked
    /// `wait` was missing.
    #[cfg_attr(not(feature = "trace"), allow(unused_variables))]
    pub fn complete(&self, target: Rank, at: RoundTag) {
        self.perturb_point();
        #[cfg(feature = "trace")]
        if let Some(scope) = &self.scope {
            scope.complete(target, at.round);
        }
        let mut st = lock_ok(&self.shared.sync);
        let ex = st.exposure(target);
        ex.signalled[self.me] += 1;
        let newly = ex.signalled[self.me] - ex.consumed[self.me] == 1;
        let wake = match st.parked[target] {
            Parked::Wait { missing } if newly && missing > 0 => {
                st.parked[target] =
                    if missing == 1 { Parked::No } else { Parked::Wait { missing: missing - 1 } };
                missing == 1
            }
            _ => false,
        };
        drop(st);
        if wake {
            self.shared.wake[target].notify_one();
        }
    }

    /// Close this member's exposure (`MPI_Win_wait`): blocks until every
    /// member of `origins` has completed once more than earlier waits
    /// consumed, then consumes those completes. Only the exposing member
    /// ever blocks here.
    ///
    /// # Panics
    /// Panics with a diagnosis naming the origins that have not
    /// completed if the watchdog deadline elapses first.
    pub fn wait(&self, origins: &[Rank], at: RoundTag) {
        self.perturb_point();
        let deadline = self.timeout.map(|t| Instant::now() + t);
        let me = self.me;
        let mut st = lock_ok(&self.shared.sync);
        loop {
            let missing = st.exposure(me).missing(origins).count();
            if missing == 0 {
                break;
            }
            st.parked[me] = Parked::Wait { missing };
            st = self.park(st, deadline, at, |st| {
                let late: Vec<String> = st
                    .exposure(me)
                    .missing(origins)
                    .map(|o| format!("{o} (world rank {})", self.shared.world_ranks[o]))
                    .collect();
                format!(
                    "wait: {} of {} origins have not completed — member(s) {}",
                    late.len(),
                    origins.len(),
                    late.join(", ")
                )
            });
        }
        st.parked[me] = Parked::No;
        let ex = st.exposure(me);
        for &o in origins {
            ex.consumed[o] += 1;
        }
        drop(st);
        #[cfg(feature = "trace")]
        if let Some(scope) = &self.scope {
            scope.wait(at.round);
        }
    }

    /// Sleep on this member's condvar until signalled or the watchdog
    /// deadline passes; `what` renders the diagnosis only when it fires.
    fn park<'a>(
        &self,
        mut st: MutexGuard<'a, SyncState>,
        deadline: Option<Instant>,
        at: RoundTag,
        what: impl FnOnce(&mut SyncState) -> String,
    ) -> MutexGuard<'a, SyncState> {
        let cv = &self.shared.wake[self.me];
        let Some(deadline) = deadline else {
            return cv.wait(st).unwrap_or_else(PoisonError::into_inner);
        };
        let now = Instant::now();
        if now >= deadline {
            panic!(
                "watchdog: {} (member {}, world rank {}) stuck for {:?} in partition {} \
                 round {} {}",
                std::thread::current().name().unwrap_or("<unnamed thread>"),
                self.me,
                self.shared.world_ranks[self.me],
                self.timeout.unwrap_or_default(),
                at.partition,
                at.round,
                what(&mut st),
            );
        }
        cv.wait_timeout(st, deadline - now).unwrap_or_else(PoisonError::into_inner).0
    }
}

/// Allocating read of this member's *own* region — test-only
/// conveniences; library drain paths use the `_into` variants or
/// [`Window::segment`] views and never allocate per read.
#[cfg(test)]
impl Window {
    /// Read `len` bytes from this member's *own* region at `offset`.
    pub fn read_local(&self, me: Rank, offset: usize, len: usize) -> Vec<u8> {
        let mut out = vec![0u8; len];
        self.read_local_into(me, offset, &mut out);
        out
    }

    /// One-sided read of `len` bytes at `offset` from `target`'s region
    /// (MPI_Get). Subject to the same epoch discipline as `put`.
    pub fn get(&self, target: Rank, offset: usize, len: usize) -> Vec<u8> {
        let mut out = vec![0u8; len];
        self.get_into(target, offset, &mut out);
        out
    }

    /// Run `f` with read access to this member's own region (single
    /// contiguous view; the region must fit one pane).
    pub fn with_local<R>(&self, me: Rank, f: impl FnOnce(&[u8]) -> R) -> R {
        let region = &self.shared.regions[me];
        assert_eq!(region.panes.len(), 1, "with_local needs a single-pane region");
        let pane = region.panes[0].read().expect("RMA pane lock poisoned");
        f(&pane)
    }
}

#[cfg(test)]
impl WinSegment {
    /// Materialize the viewed bytes.
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut out = vec![0u8; self.len];
        self.shared.regions[self.rank].read("segment read", self.offset, &mut out);
        out
    }
}

#[cfg(test)]
impl PanePool {
    /// `(live, pooled, high_water)` bytes, checking the pool's bound.
    fn counts(&self) -> (usize, usize, usize) {
        let st = lock_ok(&self.state);
        assert!(st.live + st.pooled <= st.high_water, "pool over its high-water mark");
        let listed: usize = st.free.values().flatten().map(Vec::len).sum();
        assert_eq!(listed, st.pooled, "pooled bytes miscounted");
        (st.live, st.pooled, st.high_water)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::comm::make_world;

    fn run(n: usize, f: impl Fn(Comm) + Sync) {
        let comms = make_world(n);
        std::thread::scope(|s| {
            for c in comms {
                s.spawn(|| f(c));
            }
        });
    }

    #[test]
    fn puts_visible_after_fence() {
        run(4, |c| {
            let win = Window::allocate(&c, 4);
            // everyone puts its rank byte into rank 0's region
            win.put(0, c.rank(), &[c.rank() as u8 + 1]);
            win.fence(&c);
            if c.rank() == 0 {
                assert_eq!(win.read_local(0, 0, 4), vec![1, 2, 3, 4]);
            }
            win.fence(&c);
        });
    }

    #[test]
    fn heterogeneous_region_sizes() {
        run(3, |c| {
            let win = Window::allocate(&c, (c.rank() + 1) * 8);
            assert_eq!(win.region_len(0), 8);
            assert_eq!(win.region_len(2), 24);
            win.fence(&c);
        });
    }

    #[test]
    fn epochs_do_not_leak_between_rounds() {
        run(4, |c| {
            let win = Window::allocate(&c, 4 * 8);
            for round in 0..20u64 {
                // all ranks put their (round-tagged) value to rank `round % 4`
                let target = (round % 4) as usize;
                win.put(target, c.rank() * 8, &(round * 10 + c.rank() as u64).to_le_bytes());
                win.fence(&c);
                if c.rank() == target {
                    win.with_local(c.rank(), |buf| {
                        for r in 0..4usize {
                            let v = u64::from_le_bytes(buf[r * 8..r * 8 + 8].try_into().unwrap());
                            assert_eq!(v, round * 10 + r as u64);
                        }
                    });
                }
                win.fence(&c);
            }
        });
    }

    #[test]
    fn multiple_windows_are_independent() {
        run(2, |c| {
            let w1 = Window::allocate(&c, 8);
            let w2 = Window::allocate(&c, 8);
            w1.put(0, 0, &[1; 8]);
            w2.put(0, 0, &[2; 8]);
            w1.fence(&c);
            w2.fence(&c);
            if c.rank() == 0 {
                assert_eq!(w1.read_local(0, 0, 8), vec![1; 8]);
                assert_eq!(w2.read_local(0, 0, 8), vec![2; 8]);
            }
            w1.fence(&c);
        });
    }

    /// A window allocated on a sub-communicator formed again with a
    /// used key is a new, zero-filled one, not the previous formation's.
    #[test]
    fn window_on_a_reformed_subgroup_starts_zeroed() {
        run(2, |c| {
            let first = c.subgroup(&[0, 1], 7);
            let w1 = Window::allocate(&first, 1);
            if c.rank() == 1 {
                w1.put(0, 0, &[10]);
            }
            w1.fence(&first);
            let second = c.subgroup(&[0, 1], 7);
            let w2 = Window::allocate(&second, 1);
            let seen = w2.read_local(0, 0, 1);
            // Checked after the fence, so a failure leaves no member
            // waiting in it.
            w2.fence(&second);
            if c.rank() == 0 {
                assert_eq!(seen, vec![0]);
            }
        });
    }

    #[test]
    fn window_over_subcomm() {
        run(6, |c| {
            let parity = c.rank() % 2;
            let sub = c.subgroup(&[parity, parity + 2, parity + 4], parity as u64);
            let win = Window::allocate(&sub, 3);
            win.put(0, sub.rank(), &[sub.rank() as u8]);
            win.fence(&sub);
            if sub.rank() == 0 {
                assert_eq!(win.read_local(0, 0, 3), vec![0, 1, 2]);
            }
            win.fence(&sub);
        });
    }

    #[cfg(feature = "trace")]
    #[test]
    fn traced_window_records_puts_and_fences() {
        use tapioca_trace::{TraceOp, TraceScope, Tracer};
        let tracer = Tracer::new(2);
        let comms = make_world(2);
        let t2 = std::sync::Arc::clone(&tracer);
        std::thread::scope(|s| {
            for c in comms {
                let tracer = std::sync::Arc::clone(&t2);
                s.spawn(move || {
                    let mut win = Window::allocate(&c, 8);
                    win.set_trace_scope(TraceScope::new(tracer, c.rank(), 0, vec![0, 1]));
                    win.put(0, c.rank() * 4, &[c.rank() as u8; 4]);
                    win.fence(&c);
                });
            }
        });
        let trace = tracer.drain();
        let puts = trace.events().iter().filter(|e| e.op == TraceOp::RmaPut).count();
        let fences = trace.events().iter().filter(|e| e.op == TraceOp::Fence).count();
        assert_eq!(puts, 2);
        assert_eq!(fences, 2);
        assert!(trace.events().iter().filter(|e| e.op == TraceOp::RmaPut).all(|e| e.peer == 0));
    }

    #[test]
    fn into_variants_match_allocating_reads() {
        run(2, |c| {
            let win = Window::allocate(&c, 8);
            win.put(0, c.rank() * 4, &[c.rank() as u8 + 7; 4]);
            win.fence(&c);
            if c.rank() == 0 {
                let mut buf = [0u8; 8];
                win.read_local_into(0, 0, &mut buf);
                assert_eq!(buf.to_vec(), win.read_local(0, 0, 8));
            }
            win.fence(&c);
            let mut got = [0u8; 4];
            win.get_into(0, 4, &mut got);
            assert_eq!(got.to_vec(), win.get(0, 4, 4));
            assert_eq!(got, [8u8; 4]);
            win.fence(&c);
        });
    }

    #[test]
    fn paned_region_accesses_split_at_pane_boundaries() {
        run(2, |c| {
            // 32-byte regions in 10-byte panes: 4 panes (10/10/10/2).
            let win = Window::allocate_paned(&c, 32, 10);
            if c.rank() == 1 {
                let data: Vec<u8> = (0..24u8).collect();
                win.put(0, 5, &data); // crosses three pane boundaries
            }
            win.fence(&c);
            if c.rank() == 0 {
                assert_eq!(win.read_local(0, 5, 24), (0..24u8).collect::<Vec<u8>>());
                assert_eq!(win.read_local(0, 0, 5), vec![0u8; 5]);
                // in-place parts view sees the same bytes, pane-split
                let seg = win.segment(0, 5, 24);
                assert_eq!(seg.len(), 24);
                let mut parts = Vec::new();
                let ok: Result<(), ()> = seg.for_each_part(|p| {
                    parts.push(p.len());
                    Ok(())
                });
                ok.unwrap();
                assert_eq!(parts, vec![5, 10, 9], "pane-boundary split");
                assert_eq!(seg.to_bytes(), (0..24u8).collect::<Vec<u8>>());
            }
            win.fence(&c);

            // A vectored put lands exactly what its parts put one by one
            // do. The parts come in descending offset order: one crosses
            // 30, two share the pane 20..30, one is empty, one crosses 10.
            let one_by_one = Window::allocate_paned(&c, 32, 10);
            let vectored = Window::allocate_paned(&c, 32, 10);
            let bytes: Vec<u8> = (1..=32u8).collect();
            let parts: Vec<(usize, &[u8])> = [(28, 4), (22, 3), (20, 2), (15, 0), (3, 9)]
                .iter()
                .map(|&(o, n)| (o, &bytes[o..o + n]))
                .collect();
            if c.rank() == 1 {
                for &(o, d) in &parts {
                    one_by_one.put(0, o, d);
                }
                vectored.put_vectored(0, &parts);
            }
            one_by_one.fence(&c);
            vectored.fence(&c);
            if c.rank() == 0 {
                let got = vectored.read_local(0, 0, 32);
                assert_eq!(got, one_by_one.read_local(0, 0, 32));
                let mut want = vec![0u8; 32];
                for &(o, d) in &parts {
                    want[o..o + d.len()].copy_from_slice(d);
                }
                assert_eq!(got, want);
            }
            vectored.fence(&c);
        });
    }

    #[test]
    fn get_with_lends_pane_parts_and_get_into_agrees() {
        run(2, |c| {
            // 32-byte regions in 10-byte panes, as above.
            let win = Window::allocate_paned(&c, 32, 10);
            if c.rank() == 1 {
                win.put(0, 0, &(100..132u8).collect::<Vec<u8>>());
            }
            win.fence(&c);
            let (mut lent, mut parts) = (Vec::new(), Vec::new());
            win.get_with(0, 7, 16, |p| {
                parts.push(p.len());
                lent.extend_from_slice(p);
            });
            assert_eq!(parts, vec![3, 10, 3], "split at the pane boundaries 10 and 20");
            assert_eq!(lent, (107..123u8).collect::<Vec<u8>>());
            let mut copied = [0u8; 16];
            win.get_into(0, 7, &mut copied);
            assert_eq!(copied.as_slice(), lent.as_slice());
            // An empty range lends nothing, at any in-bounds offset.
            for at in [0, 10, 32] {
                win.get_with(0, at, 0, |p| panic!("empty get lent {} bytes at {at}", p.len()));
            }
            win.fence(&c);
        });
    }

    #[test]
    fn zero_pane_size_means_one_pane() {
        assert_eq!(Region::new(4096, 0).panes.len(), 1);
        assert_eq!(Region::new(0, 0).panes.len(), 0);
    }

    #[test]
    fn pane_pool_hit_returns_the_pooled_buffer_zeroed() {
        let pool = PanePool::new();
        let mut pane = pool.take(64);
        pane.fill(0xAB);
        let at = pane.as_ptr();
        pool.give(RwLock::new(pane));
        assert_eq!(pool.counts(), (0, 64, 64));
        let again = pool.take(64);
        assert_eq!(again.as_ptr(), at, "a hit hands out the pooled buffer");
        assert_eq!(again, vec![0u8; 64]);
        assert_eq!(pool.counts(), (64, 0, 64));
    }

    #[test]
    fn pane_pool_miss_allocates_zeroed() {
        let pool = PanePool::new();
        assert_eq!(pool.take(16), vec![0u8; 16]);
        assert_eq!(pool.counts(), (16, 0, 16));
    }

    /// A miss of a new length frees pooled buffers of other lengths,
    /// largest first, only as far as the high-water mark requires.
    #[test]
    fn pane_pool_miss_frees_only_what_would_cross_the_high_water_mark() {
        let pool = PanePool::new();
        let (big, small) = (pool.take(100), pool.take(10));
        pool.give(RwLock::new(small));
        pool.give(RwLock::new(big));
        assert_eq!(pool.counts(), (0, 110, 110));
        let mid = pool.take(50);
        assert_eq!(pool.counts(), (50, 10, 110), "the 100 is freed, the 10 kept");
        let small = pool.take(10);
        assert_eq!(pool.counts(), (60, 0, 110), "the kept 10 is a hit");
        pool.give(RwLock::new(mid));
        pool.give(RwLock::new(small));
        assert_eq!(pool.counts(), (0, 60, 110));
    }

    /// Seeded takes and gives of four lengths: `live + pooled` stays
    /// within the high-water mark after every step (`counts` asserts
    /// it), and `live` is exactly the bytes handed out.
    #[test]
    fn pane_pool_bound_holds_after_every_take_and_give() {
        let pool = PanePool::new();
        let mut held: Vec<Vec<u8>> = Vec::new();
        let mut x: u64 = 0x9E37_79B9_7F4A_7C15;
        for _ in 0..2_000 {
            x = x.wrapping_mul(6_364_136_223_846_793_005).wrapping_add(1_442_695_040_888_963_407);
            let pick = (x >> 33) as usize;
            if !pick.is_multiple_of(3) || held.is_empty() {
                let mut pane = pool.take([8, 24, 24, 64][pick % 4]);
                assert!(pane.iter().all(|&b| b == 0));
                pane.fill(0xEE);
                held.push(pane);
            } else {
                pool.give(RwLock::new(held.swap_remove(pick % held.len())));
            }
            let (live, _, _) = pool.counts();
            assert_eq!(live, held.iter().map(Vec::len).sum::<usize>());
        }
    }

    #[test]
    fn pane_pool_frees_a_poisoned_pane() {
        let pool = PanePool::new();
        let pane = RwLock::new(pool.take(32));
        std::thread::scope(|s| {
            let poisoner = s.spawn(|| {
                let _held = pane.write();
                panic!("a rank panics while holding the pane");
            });
            assert!(poisoner.join().is_err());
        });
        assert!(pane.is_poisoned());
        pool.give(pane);
        assert_eq!(pool.counts(), (0, 0, 32), "the poisoned pane is not pooled");
        assert_eq!(pool.take(32).len(), 32);
        assert_eq!(pool.counts(), (32, 0, 32));
    }

    /// Whichever member creates the window after the allgather (an OS
    /// race, sampled over perturbation seeds), `allocate` must lay every
    /// region out from the allgathered sizes alone: rank 0's 4096 bytes
    /// are one pane even when a zero-size member arrives first.
    #[test]
    fn allocate_is_single_pane_whoever_creates_the_window() {
        use crate::runtime::Runtime;
        for seed in 0..16 {
            Runtime::run_perturbed(3, seed, |c| {
                let win = Window::allocate(&c, if c.rank() == 0 { 4096 } else { 0 });
                assert_eq!(win.with_local(0, <[u8]>::len), 4096);
                let mut parts = 0;
                let ok: Result<(), ()> = win.segment(0, 0, 4096).for_each_part(|_| {
                    parts += 1;
                    Ok(())
                });
                ok.unwrap();
                assert_eq!(parts, 1, "seed {seed}: region split into {parts} panes");
            });
        }
    }

    const AT: RoundTag = RoundTag { partition: 0, round: 0 };

    #[test]
    fn puts_visible_to_the_waiter_after_wait() {
        run(4, |c| {
            // Only rank 0 exposes memory; ranks 1 and 2 are the origins,
            // rank 3 takes no part and makes no call.
            let win = Window::allocate(&c, if c.rank() == 0 { 4 } else { 0 });
            match c.rank() {
                0 => {
                    win.post(&[1, 2], AT);
                    win.wait(&[1, 2], AT);
                    assert_eq!(win.read_local(0, 0, 4), vec![0, 11, 12, 0]);
                }
                r @ (1 | 2) => {
                    win.start(0, AT);
                    win.put(0, r, &[10 + r as u8]);
                    win.complete(0, AT);
                }
                _ => {}
            }
        });
    }

    /// Round `r` of 200 has one origin, `1 + r % 3`; each origin runs
    /// straight from one of its rounds to its next without a call in
    /// between, so it parks in `start` up to two rounds ahead of the
    /// target. The target checks every round's byte before re-posting
    /// the (single) slot.
    #[test]
    fn non_contributors_run_ahead_over_200_rounds() {
        run(4, |c| {
            let win = Window::allocate(&c, if c.rank() == 0 { 1 } else { 0 });
            let origin = |r: u32| 1 + (r % 3) as usize;
            for r in 0..200u32 {
                let at = RoundTag { partition: 0, round: r };
                if c.rank() == 0 {
                    win.post(&[origin(r)], at);
                    win.wait(&[origin(r)], at);
                    assert_eq!(win.read_local(0, 0, 1), vec![r as u8], "round {r}");
                } else if c.rank() == origin(r) {
                    win.start(0, at);
                    win.put(0, 0, &[r as u8]);
                    win.complete(0, at);
                }
            }
        });
    }

    /// The counters are monotone and live with the window, so a window
    /// kept across epochs (as the session's `PartCtx` is) needs no reset: epoch
    /// `e + 1` starts where epoch `e` stopped.
    #[test]
    fn three_epochs_on_one_cached_window() {
        run(3, |c| {
            let win = Window::allocate(&c, if c.rank() == 0 { 2 } else { 0 });
            for epoch in 0..3u8 {
                for r in 0..4u32 {
                    let at = RoundTag { partition: 0, round: r };
                    if c.rank() == 0 {
                        win.post(&[1, 2], at);
                        win.wait(&[1, 2], at);
                        let want = 10 * epoch + r as u8;
                        assert_eq!(win.read_local(0, 0, 2), vec![want, want]);
                    } else {
                        win.start(0, at);
                        win.put(0, c.rank() - 1, &[10 * epoch + r as u8]);
                        win.complete(0, at);
                    }
                }
                c.barrier(); // the pipeline's closing collective
            }
        });
    }

    #[test]
    fn post_start_complete_wait_under_16_perturbed_seeds() {
        use crate::runtime::Runtime;
        for seed in 0..16 {
            Runtime::run_perturbed(5, seed, |c| {
                let win = Window::allocate(&c, if c.rank() == 4 { 8 } else { 0 });
                // Even rounds: origins 0 and 1; odd rounds: 2 and 3.
                for r in 0..24u32 {
                    let at = RoundTag { partition: 0, round: r };
                    let group = if r % 2 == 0 { [0, 1] } else { [2, 3] };
                    if c.rank() == 4 {
                        win.post(&group, at);
                        win.wait(&group, at);
                        let got = win.read_local(4, 0, 8);
                        for o in group {
                            assert_eq!(got[2 * o], r as u8, "seed {seed} round {r} origin {o}");
                        }
                    } else if group.contains(&c.rank()) {
                        win.start(4, at);
                        win.put(4, 2 * c.rank(), &[r as u8, 0xEE]);
                        win.complete(4, at);
                    }
                }
            });
        }
    }

    /// A member parked in `start` re-checks its counters on every wake:
    /// woken while the target has not posted, it goes back to sleep.
    #[test]
    fn start_stays_blocked_through_stray_wakes() {
        use std::sync::atomic::{AtomicBool, Ordering};
        let entered = AtomicBool::new(false);
        let comms = crate::comm::make_world_with_watchdog(2, Some(Duration::from_secs(20)));
        std::thread::scope(|s| {
            for c in comms {
                let entered = &entered;
                s.spawn(move || {
                    let win = Window::allocate(&c, if c.rank() == 0 { 1 } else { 0 });
                    if c.rank() == 1 {
                        win.start(0, AT);
                        entered.store(true, Ordering::SeqCst);
                        win.complete(0, AT);
                        return;
                    }
                    for _ in 0..50 {
                        win.shared.wake[1].notify_all();
                        std::thread::sleep(Duration::from_millis(1));
                        assert!(!entered.load(Ordering::SeqCst), "start returned before the post");
                    }
                    win.post(&[1], AT);
                    win.wait(&[1], AT);
                    assert!(entered.load(Ordering::SeqCst));
                });
            }
        });
    }

    /// 64 ranks on a 20 s watchdog: 500 barrier generations, then 500
    /// rounds of post/start/complete/wait on two windows at once. Each
    /// round, each window has one target and eight origins, so most
    /// members run ahead and park in `start` rounds before their post.
    /// A sleeper whose wake is lost gets up only at its watchdog
    /// deadline, so every step must end within one watchdog period of
    /// the start.
    #[test]
    fn sixty_four_ranks_barriers_and_two_windows_stress() {
        use std::sync::atomic::{AtomicUsize, Ordering};
        const N: usize = 64;
        const ROUNDS: u32 = 500;
        const WATCHDOG: Duration = Duration::from_secs(20);
        let arrivals = AtomicUsize::new(0);
        let began = Instant::now();
        let on_time = || assert!(began.elapsed() < WATCHDOG, "a sleeper waited out its watchdog");
        let comms = crate::comm::make_world_with_watchdog(N, Some(WATCHDOG));
        std::thread::scope(|s| {
            for c in comms {
                let (arrivals, on_time) = (&arrivals, &on_time);
                s.spawn(move || {
                    for g in 1..=ROUNDS as usize {
                        arrivals.fetch_add(1, Ordering::Relaxed);
                        c.barrier();
                        assert!(arrivals.load(Ordering::Relaxed) >= g * N, "generation {g}");
                        on_time();
                    }
                    let wins = [Window::allocate(&c, N), Window::allocate(&c, N)];
                    for r in 0..ROUNDS {
                        let at = RoundTag { partition: 0, round: r };
                        for (w, win) in wins.iter().enumerate() {
                            let target = (r as usize * 7 + w * 32) % N;
                            let origins: [Rank; 8] =
                                std::array::from_fn(|k| (target + 1 + 5 * k + w) % N);
                            let stamp = r as u8 ^ w as u8;
                            if c.rank() == target {
                                win.post(&origins, at);
                                win.wait(&origins, at);
                                for o in origins {
                                    assert_eq!(win.read_local(target, o, 1), [stamp], "round {r}");
                                }
                            } else if origins.contains(&c.rank()) {
                                win.start(target, at);
                                win.put(target, c.rank(), &[stamp]);
                                win.complete(target, at);
                            }
                        }
                        on_time();
                    }
                });
            }
        });
    }

    /// The barrier's watchdog can only say "1/2 parties arrived"; this
    /// one names the member that has not signalled.
    #[test]
    fn watchdog_names_the_member_that_has_not_signalled() {
        use crate::comm::make_world_with_watchdog;
        let panic_text = |f: &(dyn Fn(Comm) + Sync)| {
            let comms = make_world_with_watchdog(3, Some(Duration::from_millis(50)));
            let texts: Vec<Option<String>> = std::thread::scope(|s| {
                let handles: Vec<_> = comms
                    .into_iter()
                    .map(|c| {
                        std::thread::Builder::new()
                            .name(format!("rank-{}", c.rank()))
                            .spawn_scoped(s, move || f(c))
                            .unwrap()
                    })
                    .collect();
                handles
                    .into_iter()
                    .map(|h| h.join().err().map(|e| e.downcast_ref::<String>().unwrap().clone()))
                    .collect()
            });
            texts
        };
        let at = RoundTag { partition: 3, round: 7 };
        // Origin 2 never completes: the target's wait names it.
        let texts = panic_text(&|c| {
            let win = Window::allocate(&c, if c.rank() == 0 { 4 } else { 0 });
            match c.rank() {
                0 => {
                    win.post(&[1, 2], at);
                    win.wait(&[1, 2], at);
                }
                1 => {
                    win.start(0, at);
                    win.complete(0, at);
                }
                _ => {}
            }
        });
        let msg = texts[0].as_deref().expect("the waiting target times out");
        for needle in ["watchdog", "rank-0", "partition 3", "round 7", "wait", "member(s) 2 (world rank 2)"]
        {
            assert!(msg.contains(needle), "missing {needle:?} in: {msg}");
        }
        assert!(!msg.contains("member(s) 1"), "origin 1 did complete: {msg}");
        assert!(texts[1].is_none() && texts[2].is_none());
        // The target never posts: the origin's start names it.
        let texts = panic_text(&|c| {
            let win = Window::allocate(&c, if c.rank() == 0 { 4 } else { 0 });
            if c.rank() == 1 {
                win.start(0, at);
            }
        });
        let msg = texts[1].as_deref().expect("the starting origin times out");
        for needle in ["watchdog", "rank-1", "partition 3", "round 7", "start", "member 0 (world rank 0)"] {
            assert!(msg.contains(needle), "missing {needle:?} in: {msg}");
        }
    }

    #[test]
    #[should_panic(expected = "exceeds window region")]
    fn oversized_get_into_panics() {
        let comms = make_world(1);
        let c = comms.into_iter().next().unwrap();
        let win = Window::allocate(&c, 4);
        let mut buf = [0u8; 4];
        win.get_into(0, 2, &mut buf);
    }

    #[test]
    #[should_panic(expected = "exceeds window region")]
    fn oversized_put_panics() {
        let comms = make_world(1);
        let c = comms.into_iter().next().unwrap();
        let win = Window::allocate_paned(&c, 8, 4);
        // Only the last part overflows: it is caught before the first
        // part's bytes move, and no pane is left poisoned.
        let vectored = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            win.put_vectored(0, &[(0, &[1; 3]), (5, &[1; 4])])
        }));
        let msg = vectored.expect_err("vectored overflow").downcast::<String>().unwrap();
        assert!(msg.contains("exceeds window region"), "vectored: {msg}");
        assert_eq!(win.read_local(0, 0, 8), vec![0u8; 8]);
        win.put(0, 6, &[1; 4]);
    }
}
