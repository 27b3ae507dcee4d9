//! One-sided communication: RMA windows with fence synchronization.
//!
//! TAPIOCA fills aggregation buffers with `MPI_Put` between
//! `MPI_Win_fence` calls (paper Sec. IV-A, Algorithm 3). A [`Window`]
//! exposes one byte region per communicator member; any member can `put`
//! into any member's region. [`Window::fence`] is a collective that
//! closes the access epoch: after it returns, every put issued before it
//! (by any member) is deposited and visible.
//!
//! Target regions are guarded by `RwLock`, split into independently
//! locked **panes** ([`Window::allocate_paned`]): an aggregator exposing
//! its two pipeline buffers as two panes can have one buffer drained in
//! place by the I/O worker (through a [`WinSegment`] view) while the
//! other is concurrently filled by next-round puts. MPI leaves
//! overlapping concurrent puts undefined; TAPIOCA only issues disjoint
//! puts, so lock serialization affects timing (which this runtime does
//! not model) but never correctness. Lock release/acquire provides the
//! happens-before edges the fence semantics require.

use std::sync::{Arc, Mutex, RwLock};

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

impl Region {
    fn new(len: usize, pane_size: usize) -> Region {
        let pane_size = if pane_size == 0 { len } else { pane_size.min(len) }.max(1);
        let panes = (0..len.div_ceil(pane_size))
            .map(|i| {
                let plen = pane_size.min(len - i * pane_size);
                RwLock::new(vec![0u8; plen])
            })
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

    /// Copy `data` into the region at `offset`, pane by pane.
    fn write(&self, offset: usize, data: &[u8]) {
        self.check_bounds("put", offset, data.len());
        let mut done = 0;
        while done < data.len() {
            let pos = offset + done;
            let (p, po) = (pos / self.pane_size, pos % self.pane_size);
            let take = (self.pane_size - po).min(data.len() - done);
            let mut pane = self.panes[p].write().expect("RMA pane lock poisoned");
            pane[po..po + take].copy_from_slice(&data[done..done + take]);
            done += take;
        }
    }

    /// Copy `out.len()` bytes from the region at `offset`, pane by pane.
    fn read(&self, op: &str, offset: usize, out: &mut [u8]) {
        self.check_bounds(op, offset, out.len());
        let mut done = 0;
        while done < out.len() {
            let pos = offset + done;
            let (p, po) = (pos / self.pane_size, pos % self.pane_size);
            let take = (self.pane_size - po).min(out.len() - done);
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
        self.check_bounds(op, offset, len);
        let mut done = 0;
        while done < len {
            let pos = offset + done;
            let (p, po) = (pos / self.pane_size, pos % self.pane_size);
            let take = (self.pane_size - po).min(len - done);
            let pane = self.panes[p].read().expect("RMA pane lock poisoned");
            f(&pane[po..po + take])?;
            done += take;
        }
        Ok(())
    }
}

struct WinShared {
    /// One region per comm rank.
    regions: Vec<Region>,
}

/// An RMA window over a communicator.
pub struct Window {
    shared: Arc<WinShared>,
    /// Schedule perturbation inherited from the world, if any.
    perturb: Option<Arc<Perturber>>,
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

    /// Materialize the viewed bytes (fallback paths and tests).
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut out = vec![0u8; self.len];
        self.shared.regions[self.rank].read("segment read", self.offset, &mut out);
        out
    }
}

impl Window {
    /// Collectively allocate a window; every member exposes a region of
    /// `local_size` bytes (zero-initialized) as a single pane. Sizes may
    /// differ per rank.
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
    /// drained concurrently.
    pub fn allocate_paned(comm: &Comm, local_size: usize, pane_size: usize) -> Window {
        let sizes = comm.allgather_u64(local_size as u64);
        let seq = comm.next_win_seq();
        let key = (comm.uid(), RegistryKind::Window, seq, 0);
        let shared = comm.world().get_or_create(key, move || WinShared {
            regions: sizes.iter().map(|&s| Region::new(s as usize, pane_size)).collect(),
        });
        Window {
            shared,
            perturb: comm.perturber(),
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

    /// The attached tracing scope, if any.
    #[cfg(feature = "trace")]
    pub fn trace_scope(&self) -> Option<&TraceScope> {
        self.scope.as_ref()
    }

    /// Deposit `data` into `target`'s region at `offset` (one-sided).
    ///
    /// # Panics
    /// Panics if the write exceeds the target region.
    pub fn put(&self, target: Rank, offset: usize, data: &[u8]) {
        if let Some(p) = &self.perturb {
            p.point();
        }
        self.shared.regions[target].write(offset, data);
        #[cfg(feature = "trace")]
        if let Some(scope) = &self.scope {
            scope.rma_put(target, offset as u64, data.len() as u64);
        }
    }

    /// Deposit `len` bytes into `target`'s region at `offset`, read
    /// directly from `src_rank`'s region of another window `src` — the
    /// coalesced put: the packed gather buffer forwarded as one merged
    /// RMA operation covering `coalesced` original chunks, without
    /// materializing an intermediate copy. The traced event is
    /// attributed to `lane` (the run leader's global rank), not to this
    /// handle's rank: whichever co-located member's deposit completed
    /// the run issues the forward, but the operation logically belongs
    /// to the gather buffer's owner.
    ///
    /// # Panics
    /// Panics on out-of-bounds ranges, or if `src` aliases this window
    /// (the nested pane locks would deadlock against a concurrent
    /// opposite-direction transfer).
    #[allow(clippy::too_many_arguments)]
    #[cfg_attr(not(feature = "trace"), allow(unused_variables))]
    pub fn put_from(
        &self,
        target: Rank,
        offset: usize,
        src: &Window,
        src_rank: Rank,
        src_offset: usize,
        len: usize,
        coalesced: u32,
        lane: Rank,
    ) {
        assert!(
            !Arc::ptr_eq(&self.shared, &src.shared),
            "put_from within one window would nest its own pane locks"
        );
        if let Some(p) = &self.perturb {
            p.point();
        }
        let dst = &self.shared.regions[target];
        dst.check_bounds("put", offset, len);
        let mut done = 0;
        let Ok(()) = src.shared.regions[src_rank].for_parts("get", src_offset, len, |part| {
            dst.write(offset + done, part);
            done += part.len();
            Ok::<(), std::convert::Infallible>(())
        });
        #[cfg(feature = "trace")]
        if let Some(scope) = &self.scope {
            scope.rma_put_coalesced(lane, target, offset as u64, len as u64, coalesced);
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

    /// Write into this member's *own* region (used by aggregators to
    /// stage data read from a file before members `get` it).
    pub fn write_local(&self, me: Rank, offset: usize, data: &[u8]) {
        self.put(me, offset, data);
    }

    /// One-sided read into a caller-provided buffer (MPI_Get
    /// with an application-owned receive buffer): reads `out.len()`
    /// bytes from `target`'s region at `offset` without allocating.
    pub fn get_into(&self, target: Rank, offset: usize, out: &mut [u8]) {
        if let Some(p) = &self.perturb {
            p.point();
        }
        self.shared.regions[target].read("get", offset, out);
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

/// A collective deposit counter: one `u64` per communicator member.
///
/// The intra-node put-coalescing rendezvous is built on this: members
/// deposit their chunks into the run leader's gather window, then
/// `add(leader, 1)`. [`DepositBoard::add`] returns the updated count,
/// so the member whose deposit completes a round's expected total can
/// detect it, retire the count with [`DepositBoard::sub`], and forward
/// the merged puts itself — a wait-free rendezvous in which no thread
/// ever blocks on co-members. Fences separate rounds, so a round's
/// deposits all land before the next round's first `add`; the
/// completer's `sub` runs after its round's last `add` by definition,
/// which is what keeps per-round counts unambiguous.
pub struct DepositBoard {
    /// Cumulative deposit count per member.
    slots: Arc<Vec<Mutex<u64>>>,
    perturb: Option<Arc<Perturber>>,
}

impl std::fmt::Debug for DepositBoard {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("DepositBoard").field("members", &self.slots.len()).finish()
    }
}

impl DepositBoard {
    /// Collectively allocate a board with one counter per member, all
    /// starting at zero. Same collective discipline as
    /// [`Window::allocate`].
    pub fn allocate(comm: &Comm) -> DepositBoard {
        let n = comm.size();
        let seq = comm.next_win_seq();
        let key = (comm.uid(), RegistryKind::Window, seq, 1);
        let slots = comm
            .world()
            .get_or_create(key, move || (0..n).map(|_| Mutex::new(0u64)).collect::<Vec<_>>());
        comm.barrier();
        DepositBoard { slots, perturb: comm.perturber() }
    }

    /// Add `n` to `target`'s counter and return the updated count.
    pub fn add(&self, target: Rank, n: u64) -> u64 {
        if let Some(p) = &self.perturb {
            p.point();
        }
        let mut c = lock_ok(&self.slots[target]);
        *c += n;
        *c
    }

    /// Subtract `n` from `target`'s counter (a completer retiring a
    /// fully deposited round so counts stay per-round).
    ///
    /// # Panics
    /// Panics if the counter would underflow.
    pub fn sub(&self, target: Rank, n: u64) {
        let mut c = lock_ok(&self.slots[target]);
        *c = c.checked_sub(n).expect("deposit counter underflow");
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

    #[test]
    fn window_over_subcomm() {
        run(6, |c| {
            let sub = c.split((c.rank() % 2) as u64);
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
        });
    }

    #[test]
    fn zero_pane_size_means_one_pane() {
        assert_eq!(Region::new(4096, 0).panes.len(), 1);
        assert_eq!(Region::new(0, 0).panes.len(), 0);
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

    #[test]
    fn put_from_copies_between_windows() {
        run(2, |c| {
            let gather = Window::allocate_paned(&c, 16, 4);
            let agg = Window::allocate_paned(&c, 32, 16);
            if c.rank() == 1 {
                gather.put(1, 2, &[7u8; 12]);
                agg.put_from(0, 18, &gather, 1, 2, 12, 3, 1);
            }
            agg.fence(&c);
            if c.rank() == 0 {
                assert_eq!(agg.read_local(0, 18, 12), vec![7u8; 12]);
            }
            agg.fence(&c);
        });
    }

    #[test]
    fn deposit_board_completer_detection() {
        run(3, |c| {
            let board = DepositBoard::allocate(&c);
            // Exactly one depositor observes the final count and
            // becomes the completer; it retires the round with sub.
            let completed = board.add(1, 1) == 3;
            if completed {
                board.sub(1, 3);
            }
            c.barrier();
            // After retirement the next round starts from zero.
            let n = board.add(1, 1);
            assert!((1..=3).contains(&n));
            c.barrier();
        });
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
        let win = Window::allocate(&c, 4);
        win.put(0, 2, &[0; 4]);
    }
}
