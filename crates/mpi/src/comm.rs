//! Communicators: rank groups with collectives.
//!
//! A [`Comm`] is a per-thread handle onto shared group state. It carries
//! only what TAPIOCA and its baseline call: `barrier`, `allgather_bytes`
//! (and `allgather_u64` and `allreduce_min_loc` on it), `alltoallv_bytes`,
//! `subgroup` and `share`. Collectives follow MPI semantics: every member
//! must call the same collectives in the same order. A slot collective
//! (`allgather_bytes`, `alltoallv_bytes`) costs one barrier: each member
//! writes its own slot, enters the barrier, and reads from the slots it
//! needs. Two slot sets used alternately make the collectives reusable
//! back-to-back without a second barrier (see `MemberSlots`).

use std::any::Any;
use std::cell::Cell;
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, OnceLock, PoisonError, RwLock};
use std::time::Duration;

use crate::perturb::Perturber;
use crate::sync::Barrier;
use crate::Rank;

/// Kind discriminator for registry keys.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub(crate) enum RegistryKind {
    Subgroup,
    Window,
    File,
    Share,
}

/// Key identifying one shared object created collectively.
pub(crate) type RegistryKey = (u64, RegistryKind, u64, u64); // (comm uid, kind, seq, aux)

/// A shared object, built at most once by whichever member runs the
/// initialiser first.
type SharedCell = OnceLock<Arc<dyn Any + Send + Sync>>;

/// One registry entry: the object's cell and how many members of its
/// group have taken it so far.
struct RegistryEntry {
    cell: Arc<SharedCell>,
    taken: usize,
}

/// World-level shared state: the registry through which collectives
/// materialize shared objects (sub-communicators, windows, shared files,
/// [`Comm::share`] values) exactly once per group.
pub struct WorldShared {
    /// Objects some but not yet all members of their group have taken.
    registry: Mutex<HashMap<RegistryKey, RegistryEntry>>,
    uid_counter: AtomicU64,
    /// Watchdog deadline for the barriers and window synchronisation
    /// calls created through this world; `None` disables the watchdog.
    pub(crate) watchdog: Option<Duration>,
    /// Schedule perturbation for this world, if any: synchronization
    /// boundaries (barriers, collectives, puts, window synchronisation
    /// calls, I/O dispatch)
    /// call [`Perturber::point`] before proceeding.
    pub(crate) perturb: Option<Arc<Perturber>>,
}

impl std::fmt::Debug for WorldShared {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("WorldShared")
            .field("watchdog", &self.watchdog)
            .field("perturbed", &self.perturb.is_some())
            .finish()
    }
}

impl WorldShared {
    pub(crate) fn new_perturbed(
        watchdog: Option<Duration>,
        perturb: Option<Arc<Perturber>>,
    ) -> Arc<Self> {
        Arc::new(Self {
            registry: Mutex::new(HashMap::new()),
            uid_counter: AtomicU64::new(1),
            watchdog,
            perturb,
        })
    }

    pub(crate) fn next_uid(&self) -> u64 {
        self.uid_counter.fetch_add(1, Ordering::Relaxed)
    }

    /// Get or create the shared object for `key`, one of `takers`
    /// members' calls (the size of the group that creates it). The
    /// first member to arrive runs `create`; everyone receives the same
    /// `Arc`. `create` runs outside the registry lock, so a member
    /// waiting for it blocks on this entry only. The entry leaves the
    /// registry when its last member takes it: the registry holds an
    /// object only while some member has yet to arrive, so the object
    /// lives exactly as long as its members' handles, and calling again
    /// with the same key afterwards creates a new one.
    pub(crate) fn get_or_create<T, F>(&self, key: RegistryKey, takers: usize, create: F) -> Arc<T>
    where
        T: Send + Sync + 'static,
        F: FnOnce() -> T,
    {
        let cell = {
            let mut reg = crate::lock_ok(&self.registry);
            let entry = reg
                .entry(key)
                .or_insert_with(|| RegistryEntry { cell: Arc::default(), taken: 0 });
            entry.taken += 1;
            let cell = Arc::clone(&entry.cell);
            if entry.taken == takers {
                reg.remove(&key);
            }
            cell
        };
        let value = cell.get_or_init(|| Arc::new(create()));
        Arc::clone(value).downcast::<T>().expect("registry entry type matches its key kind")
    }
}

/// Group-level shared state of one communicator.
pub(crate) struct CommShared {
    /// Unique id of this communicator (stable across all members).
    pub(crate) uid: u64,
    /// World ranks of the members, ascending; `members[i]` is the world
    /// rank of comm rank `i`.
    pub(crate) members: Vec<Rank>,
    barrier: Barrier,
    /// One entry per member, indexed by comm rank.
    slots: Vec<MemberSlots>,
}

/// One member's contributions to the slot collectives (`allgather_bytes`,
/// `alltoallv_bytes`), in two sets used alternately: the member's `k`-th
/// slot collective on the communicator uses set `k % 2`. It writes that set
/// again only in call `k + 2`, after the barrier of call `k + 1`, which
/// every member enters after reading call `k` — so one barrier per call
/// suffices, and no read ever waits on a write. Readers take only the
/// read lock of the slots they need, so the members leaving a barrier
/// do not queue on one lock. The call count is the handle's
/// (`Comm::slot_calls`): each member holds one handle per communicator.
#[derive(Default)]
struct MemberSlots {
    sets: [RwLock<Vec<u8>>; 2],
}

impl CommShared {
    fn new(uid: u64, members: Vec<Rank>, watchdog: Option<Duration>) -> Self {
        let n = members.len();
        Self {
            uid,
            members,
            barrier: Barrier::with_timeout(n, watchdog),
            slots: (0..n).map(|_| MemberSlots::default()).collect(),
        }
    }
}

/// A per-thread communicator handle.
///
/// `Comm` is `Send` (it can be created in one scope and used by its
/// rank's thread) but deliberately not `Sync`: each rank owns exactly
/// one handle, mirroring MPI.
pub struct Comm {
    world: Arc<WorldShared>,
    shared: Arc<CommShared>,
    my_index: usize,
    /// Slot collectives this member has entered (see `MemberSlots`).
    slot_calls: Cell<u64>,
    win_calls: Cell<u64>,
    file_calls: Cell<u64>,
    share_calls: Cell<u64>,
    user_calls: Cell<u64>,
}

impl std::fmt::Debug for Comm {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Comm")
            .field("uid", &self.shared.uid)
            .field("rank", &self.my_index)
            .field("size", &self.shared.members.len())
            .finish()
    }
}

impl Comm {
    pub(crate) fn new(world: Arc<WorldShared>, shared: Arc<CommShared>, my_index: usize) -> Self {
        Self {
            world,
            shared,
            my_index,
            slot_calls: Cell::new(0),
            win_calls: Cell::new(0),
            file_calls: Cell::new(0),
            share_calls: Cell::new(0),
            user_calls: Cell::new(0),
        }
    }

    /// This rank's index within the communicator.
    pub fn rank(&self) -> Rank {
        self.my_index
    }

    /// Number of members.
    pub fn size(&self) -> usize {
        self.shared.members.len()
    }

    /// All members' world ranks, ascending.
    pub fn members(&self) -> &[Rank] {
        &self.shared.members
    }

    pub(crate) fn world(&self) -> &Arc<WorldShared> {
        &self.world
    }

    pub(crate) fn uid(&self) -> u64 {
        self.shared.uid
    }

    pub(crate) fn next_win_seq(&self) -> u64 {
        let s = self.win_calls.get();
        self.win_calls.set(s + 1);
        s
    }

    pub(crate) fn next_file_seq(&self) -> u64 {
        let s = self.file_calls.get();
        self.file_calls.set(s + 1);
        s
    }

    /// A per-communicator sequence number for caller-defined collective
    /// epochs. Every member calling the same collective protocol in the
    /// same order observes the same sequence (libraries like TAPIOCA use
    /// it to key their `subgroup` ids per `init` epoch).
    pub fn next_user_seq(&self) -> u64 {
        let s = self.user_calls.get();
        self.user_calls.set(s + 1);
        s
    }

    pub(crate) fn perturber(&self) -> Option<Arc<Perturber>> {
        self.world.perturb.clone()
    }

    /// One perturbation point, when this world is perturbed.
    fn perturb_point(&self) {
        if let Some(p) = &self.world.perturb {
            p.point();
        }
    }

    /// Block until every member has entered the barrier.
    pub fn barrier(&self) {
        self.perturb_point();
        self.shared.barrier.wait();
    }

    /// Gather every member's byte vector; result indexed by comm rank.
    pub fn allgather_bytes(&self, mine: Vec<u8>) -> Vec<Vec<u8>> {
        self.perturb_point();
        let set = self.contribute(|slot| *slot = mine);
        self.shared.barrier.wait();
        (0..self.size()).map(|r| self.with_contribution(r, set, <[u8]>::to_vec)).collect()
    }

    /// All-to-all personalized exchange: `sends[d]` goes to comm rank
    /// `d`; returns one buffer per source rank. The workhorse of
    /// ROMIO-style two-phase redistribution.
    ///
    /// A slot collective: each member's slot holds the end offset of
    /// every destination's piece (one little-endian `u64` each), then
    /// the pieces back to back; after the barrier a member copies only
    /// its own piece out of every slot.
    ///
    /// Collective: every member must call it with `sends.len() == size()`.
    pub fn alltoallv_bytes(&self, sends: Vec<Vec<u8>>) -> Vec<Vec<u8>> {
        assert_eq!(sends.len(), self.size(), "one send buffer per member");
        self.perturb_point();
        let head = 8 * sends.len();
        let set = self.contribute(|slot| {
            slot.clear();
            slot.reserve(head + sends.iter().map(Vec::len).sum::<usize>());
            let mut end = 0u64;
            for piece in &sends {
                end += piece.len() as u64;
                slot.extend_from_slice(&end.to_le_bytes());
            }
            for piece in &sends {
                slot.extend_from_slice(piece);
            }
        });
        self.shared.barrier.wait();
        let me = self.my_index;
        let end = |slot: &[u8], d: usize| {
            let field = slot[8 * d..8 * d + 8].try_into().expect("8-byte end offset");
            head + u64::from_le_bytes(field) as usize
        };
        (0..self.size())
            .map(|r| {
                self.with_contribution(r, set, |slot| {
                    let from = if me == 0 { head } else { end(slot, me - 1) };
                    slot[from..end(slot, me)].to_vec()
                })
            })
            .collect()
    }

    /// Enter a slot collective: take this member's next set and let
    /// `fill` write this member's slot there.
    fn contribute(&self, fill: impl FnOnce(&mut Vec<u8>)) -> usize {
        let calls = self.slot_calls.get();
        self.slot_calls.set(calls + 1);
        let set = (calls % 2) as usize;
        let slot = &self.shared.slots[self.my_index].sets[set];
        fill(&mut slot.write().unwrap_or_else(PoisonError::into_inner));
        set
    }

    /// Run `f` on member `r`'s contribution to the current slot
    /// collective, which uses `set`, under that slot's read lock; only
    /// valid after the collective's barrier.
    fn with_contribution<R>(&self, r: Rank, set: usize, f: impl FnOnce(&[u8]) -> R) -> R {
        f(&self.shared.slots[r].sets[set].read().unwrap_or_else(PoisonError::into_inner))
    }

    /// Allgather of one `u64` per member.
    pub fn allgather_u64(&self, v: u64) -> Vec<u64> {
        self.allgather_bytes(v.to_le_bytes().to_vec())
            .into_iter()
            .map(|b| u64::from_le_bytes(b.try_into().expect("8 bytes")))
            .collect()
    }

    /// `MPI_Allreduce(MPI_MINLOC)`: returns `(min value, comm rank of the
    /// owner)`. Ties resolve to the lowest rank, like MPI.
    pub fn allreduce_min_loc(&self, value: f64) -> (f64, Rank) {
        let all = self.allgather_bytes(value.to_le_bytes().to_vec());
        let mut best = (f64::INFINITY, usize::MAX);
        for (r, b) in all.into_iter().enumerate() {
            let v = f64::from_le_bytes(b.try_into().expect("8 bytes"));
            if v < best.0 || (v == best.0 && r < best.1) {
                best = (v, r);
            }
        }
        best
    }

    /// Form a sub-communicator from an explicit member list (parent comm
    /// ranks, ascending). A rank may join several subgroups (TAPIOCA
    /// partitions can overlap when a rank's data spans partition
    /// boundaries), and non-members do not participate at all.
    ///
    /// Every member must pass the identical `members` list and the same
    /// `key` (a caller-chosen id making this subgroup unique per parent
    /// communicator, e.g. `epoch * 1_000_000 + partition`). Forming a
    /// key again gives a new communicator once every member has taken
    /// the previous one, which a collective on it guarantees.
    ///
    /// # Panics
    /// Panics if the caller is not in `members` or the list is not
    /// strictly ascending.
    pub fn subgroup(&self, members: &[Rank], key: u64) -> Comm {
        assert!(members.windows(2).all(|w| w[0] < w[1]), "members must be strictly ascending");
        let my_pos = members
            .iter()
            .position(|&m| m == self.my_index)
            .expect("caller must be a member of its own subgroup");
        let world_members: Vec<Rank> = members.iter().map(|&m| self.shared.members[m]).collect();
        let reg_key: RegistryKey = (self.shared.uid, RegistryKind::Subgroup, 0, key);
        let world = &self.world;
        let shared = world.get_or_create(reg_key, members.len(), || {
            CommShared::new(world.next_uid(), world_members, world.watchdog)
        });
        Comm::new(Arc::clone(world), shared, my_pos)
    }

    /// Collective: one value per call, shared by every member. The first
    /// member to arrive runs `create`; the others wait for it and every
    /// member receives the same `Arc`. The ranks of a communicator share
    /// one address space, so a product every member would derive alike
    /// from the same inputs (a round schedule from allgathered
    /// declarations) is built once instead of once per rank. `create`
    /// must not call collectives, and every member must call `share`
    /// the same number of times in the same order, like any collective.
    ///
    /// # Panics
    /// Panics if members of the same call ask for different types `T`.
    pub fn share<T, F>(&self, create: F) -> Arc<T>
    where
        T: Send + Sync + 'static,
        F: FnOnce() -> T,
    {
        self.perturb_point();
        let seq = self.share_calls.get();
        self.share_calls.set(seq + 1);
        let key: RegistryKey = (self.shared.uid, RegistryKind::Share, seq, 0);
        self.world.get_or_create(key, self.size(), create)
    }
}

/// Create the world communicator state for `n` ranks, returning one
/// `Comm` handle per rank. `watchdog` is the deadline of every blocking
/// barrier and window synchronisation call of the world.
pub(crate) fn make_world_with_watchdog(n: usize, watchdog: Option<Duration>) -> Vec<Comm> {
    make_world_perturbed(n, watchdog, None)
}

/// Like [`make_world_with_watchdog`], additionally installing a
/// [`Perturber`] whose points fire at every synchronization boundary of
/// the world (barriers, collectives, RMA puts and synchronisation calls,
/// I/O dispatch).
pub(crate) fn make_world_perturbed(
    n: usize,
    watchdog: Option<Duration>,
    perturb: Option<Arc<Perturber>>,
) -> Vec<Comm> {
    let world = WorldShared::new_perturbed(watchdog, perturb);
    let uid = world.next_uid();
    let shared = Arc::new(CommShared::new(uid, (0..n).collect(), watchdog));
    (0..n)
        .map(|i| Comm::new(Arc::clone(&world), Arc::clone(&shared), i))
        .collect()
}

#[cfg(test)]
impl WorldShared {
    /// Entries some member has yet to take.
    pub(crate) fn registry_len(&self) -> usize {
        crate::lock_ok(&self.registry).len()
    }
}

/// Create the world communicator state for `n` ranks with no watchdog;
/// test-only convenience. Returns per-rank `Comm` handles.
#[cfg(test)]
pub(crate) fn make_world(n: usize) -> Vec<Comm> {
    make_world_with_watchdog(n, None)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn run(n: usize, f: impl Fn(Comm) + Sync) {
        let comms = make_world(n);
        std::thread::scope(|s| {
            for c in comms {
                s.spawn(|| f(c));
            }
        });
    }

    #[test]
    fn ranks_and_sizes() {
        run(4, |c| {
            assert_eq!(c.size(), 4);
            assert!(c.rank() < 4);
            assert_eq!(c.members(), [0, 1, 2, 3]);
        });
    }

    #[test]
    fn allgather_orders_by_rank() {
        run(8, |c| {
            let all = c.allgather_u64(c.rank() as u64 * 10);
            assert_eq!(all, (0..8).map(|r| r * 10).collect::<Vec<u64>>());
        });
    }

    #[test]
    fn repeated_collectives_do_not_cross_talk() {
        // Back-to-back slot collectives, on the world and on a subgroup
        // formed again with the same key every round, under perturbed
        // schedules.
        for seed in 0..4 {
            let watchdog = Some(Duration::from_secs(10));
            let comms = make_world_perturbed(6, watchdog, Some(Perturber::new(seed)));
            std::thread::scope(|s| {
                for c in comms {
                    s.spawn(move || {
                        for round in 0..50u64 {
                            let all = c.allgather_u64(round * 100 + c.rank() as u64);
                            for (r, v) in all.iter().enumerate() {
                                assert_eq!(*v, round * 100 + r as u64);
                            }
                            if c.rank() % 3 == 1 {
                                continue;
                            }
                            // Three slot collectives per handle: an odd
                            // count, so a handle formed again on the same
                            // slots would reuse the set just read.
                            for i in round * 4..round * 4 + 4 {
                                let g = c.subgroup(&[0, 2, 3, 5], 7);
                                let me = g.rank();
                                // From each source one empty piece and
                                // three of unequal lengths.
                                let piece = |s: usize, d: usize| {
                                    let byte = (i as u8).wrapping_mul(16) + (s * 4 + d) as u8;
                                    vec![byte; (s + d) % 4]
                                };
                                let got = g.alltoallv_bytes((0..4).map(|d| piece(me, d)).collect());
                                assert_eq!(got, (0..4).map(|s| piece(s, me)).collect::<Vec<_>>());
                                let (v, at) = g.allreduce_min_loc((g.rank() as u64 + i) as f64);
                                assert_eq!((v, at), (i as f64, 0));
                                let all = g.allgather_u64(i * 10 + g.rank() as u64);
                                assert_eq!(all, (0..4).map(|r| i * 10 + r).collect::<Vec<_>>());
                            }
                        }
                    });
                }
            });
        }
    }

    /// Collective entry is a perturbation point of every member, for
    /// each collective.
    #[test]
    fn every_collective_entry_is_one_perturbation_point_per_member() {
        let n = 4;
        let p = Perturber::with_max_delay(3, 0);
        let watchdog = Some(Duration::from_secs(20));
        let mut comms = make_world_perturbed(n, watchdog, Some(Arc::clone(&p)));
        type Op = (&'static str, fn(&Comm));
        let ops: [Op; 4] = [
            ("barrier", |c| c.barrier()),
            ("allgather_bytes", |c| assert_eq!(c.allgather_bytes(vec![c.rank() as u8]).len(), 4)),
            ("alltoallv_bytes", |c| {
                let got = c.alltoallv_bytes(vec![vec![c.rank() as u8]; 4]);
                assert_eq!(got, (0..4u8).map(|r| vec![r]).collect::<Vec<_>>());
            }),
            ("share", |c| assert!(*c.share(|| c.rank()) < 4)),
        ];
        for (name, op) in ops {
            let before = p.points_fired();
            comms = std::thread::scope(|s| {
                let handles: Vec<_> = comms
                    .into_iter()
                    .map(|c| {
                        s.spawn(move || {
                            op(&c);
                            c
                        })
                    })
                    .collect();
                handles.into_iter().map(|h| h.join().unwrap()).collect()
            });
            assert_eq!(p.points_fired() - before, n as u64, "{name}");
        }
    }

    /// Every member of a `share` call gets the one value its first
    /// arrival built, and the registry forgets each value once every
    /// member holds it.
    #[test]
    fn share_builds_once_per_call_and_leaves_nothing_registered() {
        use std::sync::atomic::AtomicUsize;
        const CALLS: usize = 200;
        let comms = make_world_with_watchdog(16, Some(Duration::from_secs(20)));
        let world = Arc::clone(comms[0].world());
        let built: Vec<AtomicUsize> = (0..CALLS).map(|_| AtomicUsize::new(0)).collect();
        let got: Vec<Vec<usize>> = std::thread::scope(|s| {
            let handles: Vec<_> = comms
                .into_iter()
                .map(|c| {
                    let built = &built;
                    s.spawn(move || {
                        (0..CALLS)
                            .map(|i| {
                                let v = c.share(|| {
                                    built[i].fetch_add(1, Ordering::Relaxed);
                                    vec![i; 64]
                                });
                                assert_eq!(v[0], i);
                                Arc::as_ptr(&v) as usize
                            })
                            .collect()
                    })
                })
                .collect();
            handles.into_iter().map(|h| h.join().unwrap()).collect()
        });
        assert!(built.iter().all(|b| b.load(Ordering::Relaxed) == 1));
        assert!(got.iter().all(|ptrs| ptrs == &got[0]), "one allocation per call");
        assert_eq!(world.registry_len(), 0);
    }

    /// Every kind of collectively created object leaves the registry
    /// once its whole group has taken it, so nothing outlives the
    /// handles that use it.
    #[test]
    fn registry_is_empty_once_every_member_has_taken_its_objects() {
        let comms = make_world(6);
        let world = Arc::clone(comms[0].world());
        let dir = std::env::temp_dir().join(format!("tapioca-registry-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        std::thread::scope(|s| {
            for c in comms {
                let dir = &dir;
                s.spawn(move || {
                    // Keys apart from the subgroup formed below with key 1.
                    let parity = c.rank() % 2;
                    let half = c.subgroup(&[parity, parity + 2, parity + 4], 10 + parity as u64);
                    let _win = crate::Window::allocate(&half, 8);
                    let path = dir.join(format!("half{parity}"));
                    let _file = crate::SharedFile::open_shared(&half, path);
                    if c.rank() < 4 {
                        let g = c.subgroup(&[0, 1, 2, 3], 1);
                        assert_eq!(*g.share(|| 5u8), 5);
                    }
                    c.barrier();
                });
            }
        });
        assert_eq!(world.registry_len(), 0);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn min_loc_picks_lowest_value_then_lowest_rank() {
        run(5, |c| {
            let v = match c.rank() {
                2 => 1.0,
                4 => 1.0,
                _ => 5.0 + c.rank() as f64,
            };
            let (val, loc) = c.allreduce_min_loc(v);
            assert_eq!(val, 1.0);
            assert_eq!(loc, 2, "tie resolves to the lowest rank");
        });
    }

    #[test]
    fn split_into_even_odd() {
        run(8, |c| {
            let parity = c.rank() % 2;
            let members: Vec<Rank> = (parity..8).step_by(2).collect();
            let sub = c.subgroup(&members, parity as u64);
            assert_eq!(sub.size(), 4);
            let all = sub.allgather_u64(c.rank() as u64);
            assert_eq!(all, members.iter().map(|&r| r as u64).collect::<Vec<_>>());
        });
    }

    /// Disjoint subgroups, each under its own key, exchange at the same
    /// time without a piece crossing between them.
    #[test]
    fn disjoint_subgroups_exchange_only_within_themselves() {
        for seed in 0..4 {
            let watchdog = Some(Duration::from_secs(10));
            let comms = make_world_perturbed(6, watchdog, Some(Perturber::new(seed)));
            std::thread::scope(|s| {
                for c in comms {
                    s.spawn(move || {
                        let parity = c.rank() % 2;
                        let members: Vec<Rank> = (parity..6).step_by(2).collect();
                        let g = c.subgroup(&members, parity as u64);
                        for round in 0..20u8 {
                            let piece = |s: Rank, d: Rank| vec![round, s as u8, d as u8];
                            let got = g.alltoallv_bytes(
                                members.iter().map(|&d| piece(c.rank(), d)).collect(),
                            );
                            let want: Vec<_> =
                                members.iter().map(|&s| piece(s, c.rank())).collect();
                            assert_eq!(got, want);
                        }
                    });
                }
            });
        }
    }

    #[test]
    fn overlapping_subgroups() {
        // partitions {0,1,2} and {2,3}: rank 2 is in both; process them
        // in ascending key order on every member (deadlock-free).
        run(4, |c| {
            let r = c.rank();
            if r <= 2 {
                let g = c.subgroup(&[0, 1, 2], 1);
                assert_eq!(g.allgather_u64(r as u64), vec![0, 1, 2]);
            }
            if r >= 2 {
                let g = c.subgroup(&[2, 3], 2);
                assert_eq!(g.allgather_u64(r as u64), vec![2, 3]);
                assert_eq!(g.members(), [2, 3]);
            }
        });
    }

    #[test]
    #[should_panic(expected = "member of its own subgroup")]
    fn subgroup_requires_membership() {
        let comms = make_world(2);
        let mut it = comms.into_iter();
        let c0 = it.next().unwrap();
        c0.subgroup(&[1], 9);
    }

    #[test]
    fn alltoallv_exchanges_personalized_buffers() {
        run(5, |c| {
            let me = c.rank() as u8;
            let sends: Vec<Vec<u8>> =
                (0..5).map(|d| vec![me * 10 + d as u8; (d + 1) as usize]).collect();
            let recvd = c.alltoallv_bytes(sends);
            for (s, buf) in recvd.iter().enumerate() {
                assert_eq!(buf.len(), c.rank() + 1);
                assert!(buf.iter().all(|&b| b == s as u8 * 10 + me));
            }
        });
    }

    #[test]
    fn repeated_alltoallv_stays_ordered() {
        run(3, |c| {
            for round in 0..10u8 {
                let sends: Vec<Vec<u8>> = (0..3).map(|_| vec![round]).collect();
                let recvd = c.alltoallv_bytes(sends);
                assert!(recvd.iter().all(|b| b == &vec![round]));
            }
        });
    }

    #[test]
    fn singleton_comm_collectives() {
        run(4, |c| {
            let me = c.subgroup(&[c.rank()], c.rank() as u64);
            assert_eq!(me.size(), 1);
            assert_eq!(me.allgather_u64(7), vec![7]);
            assert_eq!(me.allreduce_min_loc(3.0), (3.0, 0));
            me.barrier();
        });
    }
}
