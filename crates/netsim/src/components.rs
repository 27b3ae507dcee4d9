//! Interference components over active flows, and the rate-coupled
//! blocks inside them.
//!
//! Two active flows *interfere* when their routes share a link (directly
//! or transitively); max-min waterfilling factors exactly along these
//! interference components — the fair share of every link in a component
//! is unaffected by flows outside it. The engine exploits that by
//! keeping a union-find over components keyed by link ownership: an
//! arrival unions the components of its route's links, a completion
//! merely decrements link occupancy, and only the touched component is
//! re-waterfilled while the rest keep their frozen rates and cached
//! completion times.
//!
//! Components are **never split**: when the last shared flow completes,
//! the survivors stay in one (over-merged) component until their links
//! go fully idle and are reclaimed by a later arrival. Over-merging is
//! harmless for exactness — waterfilling a union of link-disjoint flow
//! sets performs the same per-link arithmetic as waterfilling each set
//! alone — and it keeps the union-find monotone (no slot reuse, no
//! parent-chain surgery).
//!
//! # Rate-coupled blocks
//!
//! Sharing a link couples two flows' rates only when that link limits
//! them. Each component's members are therefore partitioned further
//! into *blocks*, labelled per flow: flows are in one block when they
//! are joined through links that were a bottleneck of the waterfill
//! that last set their rates, or that are loaded to within
//! [`TIGHT_MARGIN`] of capacity. Between blocks lie only links with
//! clear headroom. A membership event dirties just the blocks it
//! touches, and the engine re-waterfills only those (see
//! `Simulator::refill_component` for why the bits do not change).
//! `link_load` keeps each link's total frozen rate, so the headroom a
//! re-solved block leaves on a link it shares is checked without
//! visiting the other blocks' flows. Components of at most
//! [`BLOCKS_ABOVE`] members keep neither blocks nor loads.
//!
//! `link_flows` lists the active flows of block-keeping components on
//! each link, so the blocks on a link that a re-solved block filled up
//! are found from that link alone rather than by scanning the
//! component's members. Only partial solves couple, so only they list:
//! each lists its group's flows, and the first one after a whole solve
//! (`CompSlot::unlisted`) lists every member first. A flow that
//! arrived since is in the group of the next solve, so every flow a
//! partial solve can couple is listed. A list is emptied when its link
//! goes idle, and rid of completed flows once it holds twice the link's
//! active count. Components solved whole, such as those too small to
//! keep blocks, list nothing.
//!
//! Event lookup is a two-level heap. Each slot holds a min-heap of its
//! members' `(completion time, flow)` entries that lives as long as the
//! component: an activating flow pushes one, a re-waterfill pushes one
//! for each flow whose rate changed, and a union moves the loser's
//! entries into the winner. An entry goes stale when its flow completes
//! or its completion time moves; stale entries are skipped when they
//! reach the top, and a heap that grows past twice its member count is
//! compacted (`CompSlot::over_bound`). A global index heap holds one
//! `(next completion, root, version)` entry per re-waterfill. Index
//! entries are invalidated lazily too: an entry is live only while its
//! slot is still a root and its version matches, so merges and
//! re-waterfills simply strand the old entries to be skipped on pop.

use std::cmp::Reverse;
use std::collections::BinaryHeap;

use tapioca_topology::LinkIx;

use crate::engine::{FlowId, TimeKey};

/// A component's completion entries, earliest first.
pub(crate) type CompletionHeap = BinaryHeap<Reverse<(TimeKey, FlowId)>>;

/// Sentinel for "link currently owned by no component".
const NO_COMP: u32 = u32::MAX;

/// Relative headroom below which a link counts as full: a link loaded
/// to `capacity * (1 - TIGHT_MARGIN)` or more couples every flow on it,
/// bottleneck or not. The margin dwarfs the rounding of any waterfill
/// or load sum (an ulp of capacity per flow on the link), so a link
/// that separates two blocks never becomes a bottleneck when they are
/// solved together.
pub(crate) const TIGHT_MARGIN: f64 = 1.0 / (1u64 << 24) as f64;

/// Roundings a component's link loads may take (see `CompSlot::drift`)
/// before the component is re-waterfilled whole, which sets every one
/// of them afresh. Each rounding is at most an ulp of twice the
/// capacity, so the drift stays below `2^-31` of capacity, far inside
/// [`TIGHT_MARGIN`].
pub(crate) const LOAD_DRIFT_MAX: u32 = 1 << 20;

/// Components with at most this many members are always re-waterfilled
/// whole and keep no blocks: splitting them cannot pay for its own
/// bookkeeping. A component that grows past it is solved whole once
/// more, which sets up its blocks and link loads. The crate's own tests
/// keep blocks at every size, so their small scenarios exercise them.
pub(crate) const BLOCKS_ABOVE: usize = if cfg!(test) { 0 } else { 16 };

/// True when `load` leaves less than [`TIGHT_MARGIN`] of `cap` free.
pub(crate) fn near_capacity(load: f64, cap: f64) -> bool {
    load >= cap * (1.0 - TIGHT_MARGIN)
}

/// One component slot. Slots are allocated monotonically (at most one
/// per arrival) and never reused; a slot that loses a union keeps an
/// empty shell so stale parent pointers and index entries stay safe to
/// resolve.
#[derive(Debug, Default, Clone)]
pub(crate) struct CompSlot {
    /// Member flows in activation order (merge appends the loser's list
    /// to the winner's). Completed flows are compacted out at the next
    /// re-waterfill; the *relative* order of live members is preserved,
    /// which is what keeps the waterfill freeze order — and therefore
    /// the produced bits — independent of when compaction happens.
    pub flows: Vec<FlowId>,
    /// Min-heap of `(completion time, flow)` entries: every live member
    /// has one keyed by its current completion time, and the entries of
    /// completed flows and of superseded times are stale (see the module
    /// docs).
    pub completions: CompletionHeap,
    /// Bumped at each re-waterfill; the global index stores the version
    /// an entry was published under, so older entries read as stale.
    pub version: u64,
    /// Members still transferring.
    pub live: u32,
    /// Total route entries across live members — the union weight (the
    /// heavier side keeps its root so merges move less state).
    pub route_entries: u32,
    /// Queued in the engine's dirty list.
    pub dirty: bool,
    /// The members' blocks and link loads are not known (capacities
    /// changed, or the component is small enough to keep none): the next
    /// re-waterfill solves the whole component rather than its dirty
    /// blocks.
    pub stale: bool,
    /// Roundings any one of the component's link loads may have taken
    /// since a whole re-waterfill last set them (see [`LOAD_DRIFT_MAX`]).
    pub drift: u32,
    /// Members may be missing from the link flow lists: set by every
    /// whole re-waterfill, which lists nothing, and cleared by the next
    /// partial one, which lists them first.
    pub unlisted: bool,
}

impl CompSlot {
    /// Whether the completion heap holds more than twice as many entries
    /// as the component has members, and is due for compaction.
    pub fn over_bound(&self) -> bool {
        self.completions.len() > 2 * self.flows.len()
    }
}

/// Union-find over component slots plus the link-ownership table and
/// the global completion index.
#[derive(Debug, Default, Clone)]
pub(crate) struct Components {
    parent: Vec<u32>,
    pub slots: Vec<CompSlot>,
    /// Owning component per link (`NO_COMP` when no active flow uses
    /// it). May lag behind unions; resolve through `find`.
    comp_of_link: Vec<u32>,
    /// Active flows currently routed over each link.
    pub link_active: Vec<u32>,
    /// The flows listed on each link since it was last idle (see the
    /// module docs); completed ones stay until the list is compacted.
    /// Grown on first use.
    pub link_flows: Vec<Vec<u32>>,
    /// Total frozen rate of the active flows on each link, kept for
    /// links of components that are not `stale`.
    pub link_load: Vec<f64>,
    /// Roots awaiting re-waterfill (deduplicated via `CompSlot::dirty`;
    /// entries may be stale after a merge — re-resolved on drain).
    dirty: Vec<u32>,
    /// Global event index: `(next completion, root, version)`.
    pub index: BinaryHeap<Reverse<(TimeKey, u32, u64)>>,
}

impl Components {
    /// Grow the per-link tables to cover `n` links.
    pub fn ensure_links(&mut self, n: usize) {
        if self.comp_of_link.len() < n {
            self.comp_of_link.resize(n, NO_COMP);
            self.link_active.resize(n, 0);
            self.link_load.resize(n, 0.0);
        }
    }

    /// Root of `c`, with path halving.
    pub fn find(&mut self, mut c: u32) -> u32 {
        while self.parent[c as usize] != c {
            let grand = self.parent[self.parent[c as usize] as usize];
            self.parent[c as usize] = grand;
            c = grand;
        }
        c
    }

    /// True while an index entry `(.., root, version)` still describes a
    /// live, un-rewaterfilled component.
    pub fn entry_live(&self, root: u32, version: u64) -> bool {
        self.parent[root as usize] == root && self.slots[root as usize].version == version
    }

    /// Queue `c`'s component for re-waterfilling.
    pub fn mark_dirty(&mut self, c: u32) {
        let r = self.find(c);
        let slot = &mut self.slots[r as usize];
        if !slot.dirty {
            slot.dirty = true;
            self.dirty.push(r);
        }
    }

    /// Queue every live component whole (capacity changes touch them
    /// all, so no block's rates survive).
    pub fn mark_all_dirty(&mut self) {
        for i in 0..self.slots.len() as u32 {
            if self.parent[i as usize] == i && self.slots[i as usize].live > 0 {
                self.slots[i as usize].stale = true;
                self.mark_dirty(i);
            }
        }
    }

    pub fn has_dirty(&self) -> bool {
        !self.dirty.is_empty()
    }

    /// Drain the dirty queue into `out` as resolved, deduplicated roots.
    pub fn take_dirty(&mut self, out: &mut Vec<u32>) {
        out.clear();
        while let Some(c) = self.dirty.pop() {
            let r = self.find(c);
            let slot = &mut self.slots[r as usize];
            if slot.dirty {
                slot.dirty = false;
                out.push(r);
            }
        }
    }

    /// Clear the dirty queue and emit *every* live root instead — the
    /// full-recompute reference mode re-waterfills them all.
    pub fn take_all_live(&mut self, out: &mut Vec<u32>) {
        out.clear();
        while let Some(c) = self.dirty.pop() {
            let r = self.find(c);
            self.slots[r as usize].dirty = false;
        }
        for i in 0..self.slots.len() as u32 {
            if self.parent[i as usize] == i && self.slots[i as usize].live > 0 {
                out.push(i);
            }
        }
    }

    /// Attach an activating flow: union the components its route's links
    /// belong to (allocating a fresh slot when all links were idle),
    /// append the flow, push its completion entry at `t`, claim the
    /// links, and mark the result dirty. Returns the root.
    pub fn attach(&mut self, id: FlowId, route: &[LinkIx], t: TimeKey) -> u32 {
        debug_assert!(!route.is_empty());
        let mut base = NO_COMP;
        for &l in route {
            let owner = self.comp_of_link[l];
            if owner == NO_COMP {
                continue;
            }
            let r = self.find(owner);
            if base == NO_COMP {
                base = r;
            } else if r != base {
                base = self.union(base, r);
            }
        }
        if base == NO_COMP {
            base = self.slots.len() as u32;
            self.parent.push(base);
            self.slots.push(CompSlot { stale: true, ..CompSlot::default() });
        }
        let slot = &mut self.slots[base as usize];
        slot.flows.push(id);
        slot.completions.push(Reverse((t, id)));
        slot.live += 1;
        slot.route_entries += route.len() as u32;
        for &l in route {
            self.link_active[l] += 1;
            self.comp_of_link[l] = base;
        }
        self.mark_dirty(base);
        base
    }

    /// List active flow `id` on its route's links. A list holding twice
    /// its link's active count first keeps only the flows `active`
    /// accepts.
    pub fn list(&mut self, id: FlowId, route: &[LinkIx], active: impl Fn(FlowId) -> bool) {
        if self.link_flows.len() < self.link_active.len() {
            self.link_flows.resize_with(self.link_active.len(), Vec::new);
        }
        for &l in route {
            let on = &mut self.link_flows[l];
            if on.len() >= 2 * self.link_active[l] as usize {
                on.retain(|&f| active(f as FlowId));
            }
            on.push(id as u32);
        }
    }

    /// Release a completed flow of component `root`: decrement link
    /// occupancy, take its `rate` off the link loads, and return fully
    /// idle links to the unowned pool so a later arrival starts a fresh
    /// component instead of resurrecting this one.
    pub fn release_links(&mut self, root: u32, route: &[LinkIx], rate: f64) {
        let slot = &mut self.slots[root as usize];
        slot.live -= 1;
        slot.route_entries -= route.len() as u32;
        let keep_loads = !slot.stale;
        slot.drift = slot.drift.saturating_add(1);
        for &l in route {
            self.link_active[l] -= 1;
            if self.link_active[l] == 0 {
                self.comp_of_link[l] = NO_COMP;
                self.link_load[l] = 0.0;
                if let Some(on) = self.link_flows.get_mut(l) {
                    on.clear();
                }
            } else if keep_loads {
                self.link_load[l] -= rate;
            }
        }
    }

    /// Union two roots; the side with more live route entries keeps its
    /// slot (ties break to the smaller id, so the merge direction is a
    /// deterministic function of the event history). The loser's member
    /// list and completion entries move to the winner and its shell is
    /// invalidated.
    fn union(&mut self, a: u32, b: u32) -> u32 {
        debug_assert!(a != b);
        let wa = self.slots[a as usize].route_entries;
        let wb = self.slots[b as usize].route_entries;
        let (win, lose) = if wa > wb || (wa == wb && a < b) { (a, b) } else { (b, a) };
        self.parent[lose as usize] = win;
        let loser = &mut self.slots[lose as usize];
        let mut moved = std::mem::take(&mut loser.flows);
        let mut completions = std::mem::take(&mut loser.completions);
        let live = loser.live;
        let entries = loser.route_entries;
        let stale = std::mem::take(&mut loser.stale);
        let drift = std::mem::take(&mut loser.drift);
        let unlisted = std::mem::take(&mut loser.unlisted);
        loser.live = 0;
        loser.route_entries = 0;
        loser.dirty = false;
        loser.version = loser.version.wrapping_add(1);
        let winner = &mut self.slots[win as usize];
        winner.flows.append(&mut moved);
        winner.completions.append(&mut completions);
        winner.live += live;
        winner.route_entries += entries;
        winner.stale |= stale;
        winner.drift = winner.drift.max(drift);
        winner.unlisted |= unlisted;
        win
    }
}
