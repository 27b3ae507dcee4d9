//! Event-driven flow simulator.
//!
//! Flows are submitted with a start time, a route (directed link ids) and
//! a byte count. Between events (arrivals and completions), every active
//! flow progresses at its max-min fair rate; the engine advances directly
//! from event to event, so simulated time is exact up to floating point.
//!
//! Executors submit a whole execution DAG up front
//! ([`Simulator::submit_with_deps`]) and run it with one
//! [`Simulator::run_to_idle`]: a flow is released when its dependencies
//! complete, so fence-ordered aggregation rounds overlap with
//! asynchronous flushes exactly as in Algorithm 3 of the paper.
//!
//! # Component-sharded incremental rates
//!
//! Max-min fairness factors along interference components (flows that
//! transitively share links — see the `components` module): the fair rates
//! inside one component are a pure function of its member routes and the
//! link capacities, untouched by flows elsewhere. The engine therefore
//! re-waterfills only components *dirtied* by an arrival, completion,
//! release, or capacity change; untouched components keep their frozen
//! rates and their cached per-component next-completion time, merged
//! through a global event index so [`Simulator::step`] never scans the
//! active set.
//!
//! Inside a dirty component it goes one step further and re-waterfills
//! only the dirty *rate-coupled blocks*: sets of flows joined by the
//! links that limit them. Flows that share only links with headroom are
//! solved apart, and the result is still bit for bit the whole
//! component's waterfill (`Simulator::refill_component` says why).
//! Storage-bound runs are where this pays: flushes that share a roomy
//! gateway but write to different OSTs form one component of several
//! blocks, and a completion at one OST re-solves just its block.
//!
//! Flow progress is anchored rather than settled eagerly: each active
//! flow carries `(anchor, remaining, rate)` and its byte count is only
//! re-settled when a re-waterfill changes its rate *bitwise*. Because
//! re-waterfilling an untouched component reproduces its rates exactly
//! (same members, same order, same capacities), the incremental engine
//! and the full-recompute reference ([`Recompute::Full`]) perform
//! identical floating-point operations on every flow and produce
//! **bit-identical** schedules — asserted by the equivalence sweeps here
//! and in `tests/netsim_incremental.rs`.
//!
//! # Submission state
//!
//! A submitted DAG costs a few allocations, not one per flow, so that
//! building, cloning and dropping a simulator stays cheap next to
//! running it. Flows are plain records in one `Vec`. Dependency edges
//! live in one append-only arena: each flow holds the head of a linked
//! list of `(dependent, next)` entries, and a completion walks its list
//! once and strands it. The walk releases dependents in reverse
//! submission order, which is harmless: a released flow enters the
//! pending heap under its unique `(start time, flow id)` key, so the
//! order it is pushed in never shows. Routes are interned into one link
//! arena with one span per content hash; a route whose hash is taken by
//! different content goes to a collision list. A [`Clone`] of a
//! submitted simulator therefore copies a few flat vectors, and runs
//! bit-identically to the original — `SimSession` in `tapioca::sim_exec`
//! submits each plan once and runs a clone per epoch.

use std::cmp::Reverse;
use std::collections::{BinaryHeap, HashMap};

use tapioca_topology::{Interconnect, LinkIx};

use crate::components::{near_capacity, Components, BLOCKS_ABOVE, LOAD_DRIFT_MAX};
use crate::{SimTime, BYTE_EPS, TIME_EPS};

/// Identifier of a submitted flow.
pub type FlowId = usize;

/// End of a dependent list in `Simulator::dep_edges`.
const NO_EDGE: u32 = u32::MAX;

/// Lifecycle of a flow.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum FlowStatus {
    /// Waiting for dependency flows to complete.
    Waiting,
    /// Submitted, start time not reached yet.
    Pending,
    /// Currently transferring.
    Active,
    /// Finished at the given time.
    Done(SimTime),
}

/// [`FlowStatus`] without the finish time, which a done flow keeps in
/// `Flow::anchor` (a flow record is copied with every clone of a
/// submitted simulator, so it is kept small).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Phase {
    Waiting,
    Pending,
    Active,
    Done,
}

#[derive(Debug, Clone, Copy)]
struct Flow {
    /// Route as a `(start, len)` span into the interned link arena.
    span: (u32, u32),
    remaining: f64,
    phase: Phase,
    /// Fair rate frozen at the last re-waterfill of this flow's block
    /// (0 until first waterfilled).
    rate: f64,
    /// Time `remaining` was last settled; progress since then is implied
    /// as `rate * (now - anchor)`. The finish time once done.
    anchor: SimTime,
    /// Unsatisfied dependencies (count) for dependency-gated flows.
    deps_left: u32,
    /// Earliest allowed start (fixed part).
    start_min: SimTime,
    /// Extra fixed delay applied after release (latency, lock setup).
    extra_delay: f64,
    /// Release time accumulated from completed dependencies.
    dep_release: SimTime,
    /// Head of the list of flows waiting on this one, an index into
    /// `Simulator::dep_edges` (`NO_EDGE` when the list is empty).
    dependents: u32,
    /// While active, the rate-coupled block this flow is in (see the
    /// `components` module), named by one of its flows: the block's
    /// first member in component order when it was formed. That flow
    /// keeps naming it after it completes.
    block: u32,
    /// On a flow that names a block: the block needs re-waterfilling.
    block_dirty: bool,
}

/// Total-ordered f64 key for the event heaps.
#[derive(Debug, Clone, Copy, PartialEq)]
pub(crate) struct TimeKey(pub(crate) f64);

impl Eq for TimeKey {}
impl PartialOrd for TimeKey {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for TimeKey {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        self.0.total_cmp(&other.0)
    }
}

/// Which flows a membership event re-waterfills.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Recompute {
    /// Re-waterfill every live component, whole, at every
    /// membership-changing event — the reference engine, kept for
    /// equivalence sweeps and benchmarking the sharded path against.
    Full,
    /// Re-waterfill only the dirty rate-coupled blocks of dirtied
    /// components (the default). Bit-identical to [`Recompute::Full`] by
    /// construction (see the module docs).
    #[default]
    Incremental,
}

/// Flow-level network simulator over a fixed link-capacity table.
///
/// Cloning copies the whole state — submitted flows, pending arrivals,
/// flows in flight — and the clone runs bit-identically to the original.
#[derive(Debug, Clone)]
pub struct Simulator {
    caps: Vec<f64>,
    time: SimTime,
    flows: Vec<Flow>,
    /// Dependency edges `(dependent, next)`, append-only: the linked
    /// lists headed by `Flow::dependents` (see the module docs).
    dep_edges: Vec<(u32, u32)>,
    /// Count of currently transferring flows (the membership lists live
    /// in the component slots).
    n_active: usize,
    pending: BinaryHeap<Reverse<(TimeKey, FlowId)>>,
    /// Completion batching window, seconds: flows whose completion falls
    /// within this much of the chosen event time complete together.
    slack: f64,
    /// Reusable waterfilling scratch (see `refill_component`): dense
    /// per-link state plus the list of links touched by member flows.
    scratch: Scratch,
    /// Incremental vs full re-waterfilling (see [`Recompute`]).
    recompute: Recompute,
    /// Interference components over active flows.
    comps: Components,
    /// Interned routes: flows hold `(start, len)` spans into this arena
    /// and identical routes share one span, so per-round resubmission of
    /// the same routes allocates nothing.
    route_arena: Vec<LinkIx>,
    /// Route-content hash → the span of the first route with that hash.
    route_dedup: HashMap<u64, (u32, u32)>,
    /// Spans of routes whose hash `route_dedup` already holds for
    /// different content.
    route_collisions: Vec<(u64, (u32, u32))>,
    /// Reusable buffer of roots drained from the dirty queue.
    refill_roots: Vec<u32>,
}

/// Dense per-link scratch reused across re-waterfills so the hot path
/// performs no allocation and touches only links the solved flows use.
#[derive(Debug, Default, Clone)]
struct Scratch {
    /// The flows being solved (the *group*), in component member order.
    group: Vec<FlowId>,
    /// Per-link solve state (only `touched` entries are valid).
    link: Vec<LinkScratch>,
    /// Group indices per link (only `touched` entries are valid).
    flows_on: Vec<Vec<usize>>,
    touched: Vec<LinkIx>,
    /// Per group flow: solved rate and frozen flag.
    rates: Vec<f64>,
    fixed: Vec<bool>,
    /// Union-find over group indices, for splitting the solved group
    /// into blocks.
    uf: Vec<u32>,
}

/// One link's state in a solve.
#[derive(Debug, Default, Clone, Copy)]
struct LinkScratch {
    /// Capacity not yet handed to frozen group flows.
    cap_rem: f64,
    /// Group flows on the link not frozen yet.
    unfixed: u32,
    /// Chosen as a bottleneck by the solve.
    binding: bool,
    /// Shared with a block outside the group and left without headroom
    /// by the solve.
    coupled: bool,
}

impl Scratch {
    /// Max-min waterfilling over `self.group`, allocation-free: the
    /// per-link scratch persists across calls and only the links the
    /// previous solve touched are reset. Semantics identical to
    /// [`crate::fairshare::max_min_rates`] restricted to the group
    /// (tested against it). Leaves the rates in `rates`, the
    /// bottlenecks in `binding`, and each link's capacity minus the
    /// group's new load in `cap_rem`.
    fn waterfill(&mut self, flows: &[Flow], arena: &[LinkIx], caps: &[f64]) {
        if self.link.len() < caps.len() {
            self.link.resize(caps.len(), LinkScratch::default());
            self.flows_on.resize_with(caps.len(), Vec::new);
        }
        for &l in &self.touched {
            self.flows_on[l].clear();
        }
        self.touched.clear();

        let n = self.group.len();
        self.rates.clear();
        self.rates.resize(n, f64::INFINITY);
        self.fixed.clear();
        self.fixed.resize(n, false);
        for (k, &id) in self.group.iter().enumerate() {
            for &l in links(arena, flows[id].span) {
                if self.flows_on[l].is_empty() {
                    self.touched.push(l);
                    self.link[l] = LinkScratch { cap_rem: caps[l], ..LinkScratch::default() };
                }
                self.link[l].unfixed += 1;
                self.flows_on[l].push(k);
            }
        }
        let mut n_unfixed = n;

        while n_unfixed > 0 {
            // bottleneck link among touched ones
            let mut bott = usize::MAX;
            let mut fair = f64::INFINITY;
            for &l in &self.touched {
                let s = &self.link[l];
                if s.unfixed > 0 {
                    let f = s.cap_rem / s.unfixed as f64;
                    if f < fair {
                        fair = f;
                        bott = l;
                    }
                }
            }
            debug_assert_ne!(bott, usize::MAX);
            let fair = fair.max(0.0);
            self.link[bott].binding = true;
            // freeze flows on the bottleneck; iterate over an
            // index range to avoid aliasing the scratch borrow
            for fi in 0..self.flows_on[bott].len() {
                let k = self.flows_on[bott][fi];
                if self.fixed[k] {
                    continue;
                }
                self.fixed[k] = true;
                n_unfixed -= 1;
                self.rates[k] = fair;
                for &l in links(arena, flows[self.group[k]].span) {
                    let s = &mut self.link[l];
                    s.unfixed -= 1;
                    s.cap_rem = (s.cap_rem - fair).max(0.0);
                }
            }
        }
    }

    /// The group's load on touched link `l` before the solve.
    fn old_load(&self, l: LinkIx, flows: &[Flow]) -> f64 {
        self.flows_on[l].iter().map(|&k| flows[self.group[k]].rate).sum()
    }

    /// The group's load on touched link `l` after the solve.
    fn new_load(&self, l: LinkIx, caps: &[f64]) -> f64 {
        caps[l] - self.link[l].cap_rem
    }

    /// Whether the solve left touched link `l` coupling every group flow
    /// on it: a bottleneck, or loaded to within the tight margin.
    fn tight(&self, l: LinkIx, caps: &[f64]) -> bool {
        self.link[l].binding || near_capacity(self.new_load(l, caps), caps[l])
    }
}

/// The links of an interned route span.
fn links(arena: &[LinkIx], (start, len): (u32, u32)) -> &[LinkIx] {
    &arena[start as usize..start as usize + len as usize]
}

/// Root of `k` in a union-find over group indices, with path halving.
fn find(uf: &mut [u32], mut k: u32) -> u32 {
    while uf[k as usize] != k {
        uf[k as usize] = uf[uf[k as usize] as usize];
        k = uf[k as usize];
    }
    k
}

/// SplitMix64 finalizer, used to hash route contents for interning.
fn mix64(mut x: u64) -> u64 {
    x ^= x >> 30;
    x = x.wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x ^= x >> 27;
    x = x.wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^ (x >> 31)
}

/// Content hash of a route, the key of the interning table.
fn route_hash(route: &[LinkIx]) -> u64 {
    route.iter().fold(0x9E37_79B9_7F4A_7C15, |h, &l| mix64(h ^ l as u64))
}

impl Simulator {
    /// Build from an interconnect's link table.
    pub fn from_interconnect(net: &dyn Interconnect) -> Self {
        let caps = (0..net.num_links()).map(|l| net.link(l).capacity).collect();
        Self::with_capacities(caps)
    }

    /// Build from an explicit capacity table (bytes/s per link).
    pub fn with_capacities(caps: Vec<f64>) -> Self {
        Self {
            caps,
            time: 0.0,
            flows: Vec::new(),
            dep_edges: Vec::new(),
            n_active: 0,
            pending: BinaryHeap::new(),
            slack: 0.0,
            scratch: Scratch::default(),
            recompute: Recompute::default(),
            comps: Components::default(),
            route_arena: Vec::new(),
            route_dedup: HashMap::new(),
            route_collisions: Vec::new(),
            refill_roots: Vec::new(),
        }
    }

    /// Select incremental (default) or full re-waterfilling. Both are
    /// bit-identical; [`Recompute::Full`] exists as the reference for
    /// equivalence sweeps and benchmarks.
    pub fn set_recompute(&mut self, mode: Recompute) {
        self.recompute = mode;
    }

    /// Set the completion batching window: flows finishing within
    /// `seconds` of an event complete at that event (their tail bytes are
    /// forgiven). Zero (the default) is exact. Large simulations set a
    /// window far below the round time (e.g. 50 us against ~10 ms
    /// rounds) to collapse near-simultaneous completions into one rate
    /// recomputation — a <1% timing perturbation for an order-of-
    /// magnitude event-count reduction.
    pub fn set_completion_slack(&mut self, seconds: f64) {
        assert!(seconds >= 0.0 && seconds.is_finite());
        self.slack = seconds;
    }

    /// Append a virtual link (e.g. a storage service station) and return
    /// its index. Virtual links can appear in flow routes like any other.
    /// Component state is grown lazily, so this is safe mid-flight.
    pub fn add_virtual_link(&mut self, capacity: f64) -> LinkIx {
        assert!(capacity > 0.0 && capacity.is_finite());
        self.caps.push(capacity);
        self.caps.len() - 1
    }

    /// Scale every *existing* link capacity by `factor` — the
    /// fault-injection hook for modelling a degraded fabric (e.g. a
    /// `LinkDegrade` spec). Call before installing storage models so
    /// their virtual service stations keep their nominal rates.
    ///
    /// Safe mid-flight: every live component is marked dirty, so frozen
    /// rates and cached completion times are re-derived at the current
    /// time before the next event — in-flight flows are charged their
    /// old rate exactly up to the scale point.
    ///
    /// # Panics
    /// Panics unless `0 < factor <= 1`.
    pub fn scale_capacities(&mut self, factor: f64) {
        assert!(factor > 0.0 && factor <= 1.0, "degrade factor must be in (0, 1]");
        for c in &mut self.caps {
            *c *= factor;
        }
        self.comps.mark_all_dirty();
    }

    /// Current simulated time.
    pub fn now(&self) -> SimTime {
        self.time
    }

    /// Number of flows submitted so far.
    pub fn num_flows(&self) -> usize {
        self.flows.len()
    }

    /// Status of a flow.
    pub fn status(&self, id: FlowId) -> FlowStatus {
        let f = &self.flows[id];
        match f.phase {
            Phase::Waiting => FlowStatus::Waiting,
            Phase::Pending => FlowStatus::Pending,
            Phase::Active => FlowStatus::Active,
            Phase::Done => FlowStatus::Done(f.anchor),
        }
    }

    /// Finish time of a flow, if it has completed.
    pub fn finish_time(&self, id: FlowId) -> Option<SimTime> {
        let f = &self.flows[id];
        (f.phase == Phase::Done).then_some(f.anchor)
    }

    /// Submit a flow of `bytes` over `route`, starting at `start`
    /// (clamped to "now"; the engine cannot rewrite the past).
    ///
    /// A zero-byte or empty-route flow completes the moment it starts.
    ///
    /// # Panics
    /// Panics if a route link is out of range.
    pub fn submit(&mut self, start: SimTime, route: impl AsRef<[LinkIx]>, bytes: f64) -> FlowId {
        self.submit_with_deps(start, 0.0, route, bytes, &[])
    }

    /// Submit a flow gated on dependencies: it is released when every
    /// flow in `deps` has completed, and starts at
    /// `max(start_min, latest dependency finish) + extra_delay`.
    ///
    /// This is how fence ordering, double-buffer reuse, and serialized
    /// flushes are expressed: the whole execution DAG can be submitted
    /// upfront and simulated in one pass with true overlap.
    ///
    /// The route is borrowed and interned (callers can reuse one scratch
    /// buffer across submissions); identical routes share arena storage.
    ///
    /// # Panics
    /// Panics if a route link is out of range, `bytes < 0`, or a
    /// dependency id has not been submitted yet.
    pub fn submit_with_deps(
        &mut self,
        start_min: SimTime,
        extra_delay: f64,
        route: impl AsRef<[LinkIx]>,
        bytes: f64,
        deps: &[FlowId],
    ) -> FlowId {
        let route = route.as_ref();
        assert!(bytes >= 0.0);
        assert!(extra_delay >= 0.0);
        for &l in route {
            assert!(l < self.caps.len(), "route link {l} out of range");
        }
        let id = self.flows.len();
        assert!(id < NO_EDGE as usize, "flow ids exceed u32");
        let span = self.intern(route);
        self.flows.push(Flow {
            span,
            remaining: bytes,
            phase: Phase::Waiting,
            rate: 0.0,
            anchor: 0.0,
            deps_left: 0,
            start_min,
            extra_delay,
            dep_release: 0.0,
            dependents: NO_EDGE,
            block: id as u32,
            block_dirty: false,
        });
        let mut deps_left = 0;
        let mut dep_release: SimTime = 0.0;
        for &d in deps {
            assert!(d < id, "dependency {d} not submitted yet");
            match self.flows[d] {
                Flow { phase: Phase::Done, anchor: t, .. } => dep_release = dep_release.max(t),
                _ => {
                    let edge = self.dep_edges.len();
                    assert!(edge < NO_EDGE as usize, "dependency edges exceed u32");
                    self.dep_edges.push((id as u32, self.flows[d].dependents));
                    self.flows[d].dependents = edge as u32;
                    deps_left += 1;
                }
            }
        }
        let f = &mut self.flows[id];
        f.deps_left = deps_left;
        f.dep_release = dep_release;
        if deps_left == 0 {
            self.release(id);
        }
        id
    }

    /// Intern a route into the link arena, deduplicating identical
    /// contents, and return its `(start, len)` span.
    fn intern(&mut self, route: &[LinkIx]) -> (u32, u32) {
        if route.is_empty() {
            return (0, 0);
        }
        let h = route_hash(route);
        let arena = &self.route_arena;
        let holds = |&(s, len): &(u32, u32)| &arena[s as usize..s as usize + len as usize] == route;
        let first = self.route_dedup.get(&h).copied();
        let known = match first {
            Some(span) if holds(&span) => Some(span),
            Some(_) => self
                .route_collisions
                .iter()
                .filter(|(c, _)| *c == h)
                .map(|&(_, span)| span)
                .find(holds),
            None => None,
        };
        if let Some(span) = known {
            return span;
        }
        let start = self.route_arena.len();
        assert!(start + route.len() <= u32::MAX as usize, "route arena overflow");
        self.route_arena.extend_from_slice(route);
        let span = (start as u32, route.len() as u32);
        if first.is_some() {
            self.route_collisions.push((h, span));
        } else {
            self.route_dedup.insert(h, span);
        }
        span
    }

    /// Move a dependency-satisfied flow into the pending heap.
    fn release(&mut self, id: FlowId) {
        let f = &mut self.flows[id];
        debug_assert_eq!(f.deps_left, 0);
        let start = f.start_min.max(f.dep_release) + f.extra_delay;
        f.phase = Phase::Pending;
        self.pending.push(Reverse((TimeKey(start.max(self.time)), id)));
    }

    /// Mark a flow done at `t` and release any satisfied dependents.
    fn complete(&mut self, id: FlowId, t: SimTime) {
        let f = &mut self.flows[id];
        f.remaining = 0.0;
        f.phase = Phase::Done;
        f.anchor = t;
        let mut edge = std::mem::replace(&mut f.dependents, NO_EDGE);
        while edge != NO_EDGE {
            let (dep, next) = self.dep_edges[edge as usize];
            let f = &mut self.flows[dep as usize];
            f.dep_release = f.dep_release.max(t);
            f.deps_left -= 1;
            if f.deps_left == 0 {
                self.release(dep as usize);
            }
            edge = next;
        }
    }

    /// Re-waterfill whatever the current [`Recompute`] mode says needs
    /// it: the dirty blocks of the dirtied components, or every live
    /// component whole.
    fn refill_dirty(&mut self) {
        if !self.comps.has_dirty() {
            return;
        }
        let mut roots = std::mem::take(&mut self.refill_roots);
        let whole = self.recompute == Recompute::Full;
        if whole {
            self.comps.take_all_live(&mut roots);
        } else {
            self.comps.take_dirty(&mut roots);
        }
        for &r in &roots {
            self.refill_component(r, whole);
        }
        self.refill_roots = roots;
    }

    /// Re-waterfill one component: its dirty blocks, or every member when
    /// `whole`, when the component is small, or when its blocks or link
    /// loads are not known or trusted (see `CompSlot::stale` and
    /// `CompSlot::drift`). Flows whose rate changed bitwise are settled
    /// and re-anchored at the current time; the component's completion
    /// heap is rebuilt and a fresh event-index entry published.
    ///
    /// Solving only the dirty blocks gives the rates a whole-component
    /// waterfill would, bit for bit. A block's rates come from its own
    /// bottlenecks, and every link it shares with another block keeps
    /// at least [`crate::components::TIGHT_MARGIN`] of its capacity free.
    /// Such a link is never the least-loaded one in a joint waterfill:
    /// each flow on it will get at least the current fair level, and
    /// their sum stays below capacity. So the joint waterfill picks the
    /// same bottlenecks as the blocks' own, in the same member order, and
    /// performs the same subtractions on each one. The solve is
    /// therefore widened until that headroom holds (`couple_blocks`).
    fn refill_component(&mut self, root: u32, whole: bool) {
        let rix = root as usize;
        let (whole, blocks) = {
            // Compact completed members. `retain` preserves the relative
            // order of live members, so the link touch order — and with
            // it the freeze order and the produced bits — is the same
            // whether or not a completed flow was already compacted out.
            let flows = &self.flows;
            let slot = &mut self.comps.slots[rix];
            slot.flows.retain(|&id| flows[id].phase == Phase::Active);
            slot.version = slot.version.wrapping_add(1);
            slot.completions.clear();
            let blocks = slot.flows.len() > BLOCKS_ABOVE;
            let stale = std::mem::replace(&mut slot.stale, !blocks);
            if slot.flows.is_empty() {
                return;
            }
            (whole || stale || !blocks || slot.drift >= LOAD_DRIFT_MAX, blocks)
        };
        let whole = loop {
            let comps = &self.comps;
            let flows = &self.flows;
            let scr = &mut self.scratch;
            let members = &comps.slots[rix].flows;
            scr.group.clear();
            scr.group.extend(
                members.iter().filter(|&&id| whole || flows[flows[id].block as usize].block_dirty),
            );
            scr.waterfill(flows, &self.route_arena, &self.caps);
            let all = scr.group.len() == members.len();
            if all || !self.couple_blocks(rix) {
                break all;
            }
        };
        if blocks {
            self.relabel_group();
            self.update_loads(rix, whole);
        }
        self.apply_group(rix, root);
    }

    /// Find the links the solved group shares with blocks outside it
    /// that the solve made a bottleneck or left within the tight margin
    /// of capacity, and mark every block crossing one dirty, so the next
    /// pass solves them with the group. Returns whether any block was
    /// added.
    fn couple_blocks(&mut self, rix: usize) -> bool {
        let scr = &mut self.scratch;
        let comps = &self.comps;
        let mut any = false;
        for i in 0..scr.touched.len() {
            let l = scr.touched[i];
            if comps.link_active[l] as usize == scr.flows_on[l].len() {
                continue;
            }
            let old = scr.old_load(l, &self.flows);
            let load = comps.link_load[l] - old + scr.new_load(l, &self.caps);
            let s = &mut scr.link[l];
            if s.binding || near_capacity(load, self.caps[l]) {
                s.coupled = true;
                any = true;
            }
        }
        if !any {
            return false;
        }
        for &id in &comps.slots[rix].flows {
            let Flow { span, block, .. } = self.flows[id];
            if links(&self.route_arena, span)
                .iter()
                .any(|&l| !scr.flows_on[l].is_empty() && scr.link[l].coupled)
            {
                self.flows[block as usize].block_dirty = true;
            }
        }
        true
    }

    /// Split the solved group into rate-coupled blocks: union its flows
    /// across every link the solve left tight (a bottleneck, or loaded
    /// to within the tight margin of capacity) and name each block after
    /// its first member, clean.
    fn relabel_group(&mut self) {
        let scr = &mut self.scratch;
        let n = scr.group.len();
        scr.uf.clear();
        scr.uf.extend(0..n as u32);
        for &l in &scr.touched {
            if scr.tight(l, &self.caps) {
                let first = find(&mut scr.uf, scr.flows_on[l][0] as u32);
                for i in 1..scr.flows_on[l].len() {
                    let r = find(&mut scr.uf, scr.flows_on[l][i] as u32);
                    scr.uf[r as usize] = first;
                }
            }
        }
        // Point every root at its smallest index, the block's first
        // member, which then names the block.
        for k in 0..n as u32 {
            let r = find(&mut scr.uf, k);
            if k < r {
                scr.uf[r as usize] = k;
                scr.uf[k as usize] = k;
            }
        }
        for k in 0..n {
            let first = scr.group[find(&mut scr.uf, k as u32) as usize];
            let f = &mut self.flows[scr.group[k]];
            f.block = first as u32;
            if first == scr.group[k] {
                f.block_dirty = false;
            }
        }
    }

    /// Bring the link loads up to date with the solved rates, before they
    /// are applied: exactly on links no flow outside the group uses
    /// (every link, when the group is the `whole` component), by
    /// difference on the others, whose roundings count as drift.
    fn update_loads(&mut self, rix: usize, whole: bool) {
        let scr = &self.scratch;
        let comps = &mut self.comps;
        let mut drift = 0;
        for &l in &scr.touched {
            let new = scr.new_load(l, &self.caps);
            let on = scr.flows_on[l].len();
            if comps.link_active[l] as usize == on {
                comps.link_load[l] = new;
            } else {
                comps.link_load[l] = comps.link_load[l] - scr.old_load(l, &self.flows) + new;
                // the two sums and the update
                drift = drift.max(2 * on as u32 + 2);
            }
        }
        let slot = &mut comps.slots[rix];
        slot.drift = if whole { 0 } else { slot.drift.saturating_add(drift) };
    }

    /// Apply the group's solved rates: settle flows whose rate changed
    /// bitwise, rebuild the component's completion heap and publish one
    /// event-index entry.
    fn apply_group(&mut self, rix: usize, root: u32) {
        let scr = &self.scratch;
        let now = self.time;
        for (k, &id) in scr.group.iter().enumerate() {
            let r = scr.rates[k];
            let f = &mut self.flows[id];
            if r.to_bits() != f.rate.to_bits() {
                if now > f.anchor {
                    f.remaining = (f.remaining - f.rate * (now - f.anchor)).max(0.0);
                }
                f.anchor = now;
                f.rate = r;
            }
        }

        // The heap is built once, by `BinaryHeap::from` over the old
        // heap's cleared vector; its keys `(TimeKey, FlowId)` are
        // unique, so the pop order does not depend on how it was built.
        let slot = &mut self.comps.slots[rix];
        let mut completions = std::mem::take(&mut slot.completions).into_vec();
        let mut min_ct = f64::INFINITY;
        for &id in &slot.flows {
            let f = &self.flows[id];
            let ct = if f.remaining <= BYTE_EPS {
                f.anchor
            } else {
                f.anchor + f.remaining / f.rate
            };
            completions.push(Reverse((TimeKey(ct), id)));
            if TimeKey(ct) < TimeKey(min_ct) {
                min_ct = ct;
            }
        }
        slot.completions = BinaryHeap::from(completions);
        self.comps.index.push(Reverse((TimeKey(min_ct), root, slot.version)));
    }

    /// Earliest cached completion across components, skipping index
    /// entries stranded by merges and re-waterfills.
    fn next_completion(&mut self) -> SimTime {
        while let Some(&Reverse((TimeKey(t), root, version))) = self.comps.index.peek() {
            if self.comps.entry_live(root, version) {
                return t;
            }
            self.comps.index.pop();
        }
        f64::INFINITY
    }

    /// Process one event (a batch of arrivals or a batch of completions).
    /// Returns `false` when the simulation is idle.
    pub fn step(&mut self) -> bool {
        // Activate any arrivals due "now" first.
        self.activate_due();

        if self.n_active == 0 {
            // Jump to the next arrival, if any.
            match self.pending.peek() {
                Some(&Reverse((TimeKey(t), _))) => {
                    self.time = self.time.max(t);
                    self.activate_due();
                    return true;
                }
                None => return false,
            }
        }

        // Re-waterfill dirtied components at the current time, before
        // it advances past the membership change that dirtied them.
        self.refill_dirty();

        let t_complete = self.next_completion();
        let t_arrival = self
            .pending
            .peek()
            .map(|&Reverse((TimeKey(t), _))| t)
            .unwrap_or(f64::INFINITY);

        if t_arrival < t_complete - TIME_EPS {
            self.time = t_arrival;
            self.activate_due();
        } else {
            self.finish_due(t_complete);
        }
        true
    }

    /// Move pending flows whose start time has come into the active set.
    ///
    /// Only arrivals that actually join a component dirty any rates:
    /// zero-byte and empty-route flows complete instantly without
    /// changing any link's membership, so an event consisting solely of
    /// them (fences, barrier ops) triggers no rate recomputation.
    fn activate_due(&mut self) {
        while let Some(&Reverse((TimeKey(t), id))) = self.pending.peek() {
            if t > self.time + TIME_EPS {
                break;
            }
            self.pending.pop();
            let span = self.flows[id].span;
            if self.flows[id].remaining <= BYTE_EPS || span.1 == 0 {
                self.complete(id, self.time);
            } else {
                let f = &mut self.flows[id];
                f.phase = Phase::Active;
                f.anchor = self.time;
                f.rate = 0.0;
                // A new flow is a dirty block of its own.
                f.block = id as u32;
                f.block_dirty = true;
                self.n_active += 1;
                self.comps.ensure_links(self.caps.len());
                self.comps.attach(id, links(&self.route_arena, span));
            }
        }
    }

    /// Complete every flow due at `t_evt` — or within the completion-
    /// slack window of it — across all components, and mark their
    /// components dirty. Cross-component batching matches the classic
    /// full-scan retirement: any component whose cached next completion
    /// falls inside the window is drained at the event time.
    fn finish_due(&mut self, t_evt: SimTime) {
        self.time = t_evt;
        let limit = TimeKey(t_evt + self.slack);
        while let Some(&Reverse((t, root, version))) = self.comps.index.peek() {
            if !self.comps.entry_live(root, version) {
                self.comps.index.pop();
                continue;
            }
            if t > limit {
                break;
            }
            self.comps.index.pop();
            self.drain_component(root, limit);
        }
    }

    /// Pop and complete this component's members whose cached completion
    /// time is within `limit`, at the current time.
    fn drain_component(&mut self, root: u32, limit: TimeKey) {
        let t_evt = self.time;
        let rix = root as usize;
        while let Some(&Reverse((t, id))) = self.comps.slots[rix].completions.peek() {
            if t > limit {
                break;
            }
            self.comps.slots[rix].completions.pop();
            let f = &self.flows[id];
            debug_assert_eq!(f.phase, Phase::Active);
            let block = f.block as usize;
            self.comps.release_links(root, links(&self.route_arena, f.span), f.rate);
            self.flows[block].block_dirty = true;
            self.n_active -= 1;
            self.complete(id, t_evt);
        }
        self.comps.mark_dirty(root);
    }

    /// Run until no pending or active flows remain; returns the final time.
    pub fn run_to_idle(&mut self) -> SimTime {
        while self.step() {}
        self.time
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sim(caps: &[f64]) -> Simulator {
        Simulator::with_capacities(caps.to_vec())
    }

    /// Step `s` until every flow in `ids` has completed, leaving other
    /// flows in flight; returns the latest of their finish times.
    fn run_until_done(s: &mut Simulator, ids: &[FlowId]) -> SimTime {
        while ids.iter().any(|&id| s.finish_time(id).is_none()) {
            assert!(s.step(), "simulator idle with flows outstanding");
        }
        ids.iter().filter_map(|&id| s.finish_time(id)).fold(0.0, f64::max)
    }

    #[test]
    fn single_flow_exact_time() {
        let mut s = sim(&[100.0]);
        let f = s.submit(0.0, vec![0], 250.0);
        assert_eq!(s.run_to_idle(), 2.5);
        assert_eq!(s.finish_time(f), Some(2.5));
    }

    #[test]
    fn two_equal_flows_share() {
        let mut s = sim(&[100.0]);
        let a = s.submit(0.0, vec![0], 100.0);
        let b = s.submit(0.0, vec![0], 100.0);
        s.run_to_idle();
        // each at 50 B/s -> 2 s
        assert!((s.finish_time(a).unwrap() - 2.0).abs() < 1e-9);
        assert!((s.finish_time(b).unwrap() - 2.0).abs() < 1e-9);
    }

    #[test]
    fn staggered_arrival_analytic() {
        // cap 100. f0 (300 B) starts at 0 alone: 100 B/s.
        // f1 (100 B) arrives at 1.0: both at 50 B/s.
        // f0 has 200 left at t=1. f1 finishes at 1 + 100/50 = 3.0,
        // f0 then has 200 - 100 = 100 left, full rate: 3.0 + 1.0 = 4.0.
        let mut s = sim(&[100.0]);
        let f0 = s.submit(0.0, vec![0], 300.0);
        let f1 = s.submit(1.0, vec![0], 100.0);
        s.run_to_idle();
        assert!((s.finish_time(f1).unwrap() - 3.0).abs() < 1e-9);
        assert!((s.finish_time(f0).unwrap() - 4.0).abs() < 1e-9);
    }

    #[test]
    fn bottleneck_chain() {
        let mut s = sim(&[100.0, 10.0]);
        let f = s.submit(0.0, vec![0, 1], 100.0);
        s.run_to_idle();
        assert!((s.finish_time(f).unwrap() - 10.0).abs() < 1e-9);
    }

    #[test]
    fn zero_bytes_completes_at_start() {
        let mut s = sim(&[10.0]);
        let f = s.submit(5.0, vec![0], 0.0);
        s.run_to_idle();
        assert_eq!(s.finish_time(f), Some(5.0));
    }

    #[test]
    fn empty_route_completes_at_start() {
        let mut s = sim(&[]);
        let f = s.submit(2.0, Vec::<LinkIx>::new(), 1e9);
        s.run_to_idle();
        assert_eq!(s.finish_time(f), Some(2.0));
    }

    #[test]
    fn virtual_link_acts_as_sink() {
        let mut s = sim(&[100.0, 100.0]);
        let ost = s.add_virtual_link(10.0);
        let a = s.submit(0.0, vec![0, ost], 10.0);
        let b = s.submit(0.0, vec![1, ost], 10.0);
        s.run_to_idle();
        // both bottleneck on the sink at 5 B/s -> 2 s
        assert!((s.finish_time(a).unwrap() - 2.0).abs() < 1e-9);
        assert!((s.finish_time(b).unwrap() - 2.0).abs() < 1e-9);
    }

    #[test]
    fn run_until_done_leaves_others_running() {
        let mut s = sim(&[100.0, 100.0]);
        let quick = s.submit(0.0, vec![0], 100.0);
        let slow = s.submit(0.0, vec![1], 1000.0);
        let t = run_until_done(&mut s, &[quick]);
        assert!((t - 1.0).abs() < 1e-9);
        assert_eq!(s.status(slow), FlowStatus::Active);
        // submit a follow-up that contends with `slow`
        let next = s.submit(t, vec![1], 100.0);
        s.run_to_idle();
        assert!(s.finish_time(next).unwrap() > 1.0 + 1.0 - 1e-9);
        assert!(s.finish_time(slow).unwrap() > 10.0 - 1e-9);
    }

    #[test]
    fn submission_in_past_is_clamped() {
        let mut s = sim(&[10.0]);
        s.submit(0.0, vec![0], 100.0);
        s.run_to_idle();
        let t = s.now();
        let f = s.submit(0.0, vec![0], 10.0); // "starts in the past"
        s.run_to_idle();
        assert!(s.finish_time(f).unwrap() >= t + 1.0 - 1e-9);
    }

    #[test]
    fn batch_completions_single_event() {
        // 64 identical flows through one link all complete at once.
        let mut s = sim(&[64.0]);
        let ids: Vec<_> = (0..64).map(|_| s.submit(0.0, vec![0], 10.0)).collect();
        s.run_to_idle();
        for id in ids {
            assert!((s.finish_time(id).unwrap() - 10.0).abs() < 1e-6);
        }
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn bad_route_panics() {
        let mut s = sim(&[10.0]);
        s.submit(0.0, vec![3], 1.0);
    }

    #[test]
    fn dependency_chain_serializes() {
        let mut s = sim(&[10.0]);
        let a = s.submit(0.0, vec![0], 100.0); // 10 s
        let b = s.submit_with_deps(0.0, 0.0, vec![0], 50.0, &[a]); // +5 s
        let c = s.submit_with_deps(0.0, 0.5, vec![0], 10.0, &[b]); // +0.5 delay +1 s
        s.run_to_idle();
        assert!((s.finish_time(a).unwrap() - 10.0).abs() < 1e-9);
        assert!((s.finish_time(b).unwrap() - 15.0).abs() < 1e-9);
        assert!((s.finish_time(c).unwrap() - 16.5).abs() < 1e-9);
    }

    #[test]
    fn dependent_overlaps_with_unrelated_flow() {
        // flush(r-1) on link 1 overlaps with agg(r) on link 0 while
        // agg(r+1) waits for agg(r): the core pipelining pattern.
        let mut s = sim(&[10.0, 10.0]);
        let agg_r = s.submit(0.0, vec![0], 100.0); // 10 s
        let flush = s.submit_with_deps(0.0, 0.0, vec![1], 50.0, &[agg_r]); // 10..15
        let agg_r1 = s.submit_with_deps(0.0, 0.0, vec![0], 100.0, &[agg_r]); // 10..20
        s.run_to_idle();
        assert!((s.finish_time(flush).unwrap() - 15.0).abs() < 1e-9);
        assert!((s.finish_time(agg_r1).unwrap() - 20.0).abs() < 1e-9);
    }

    #[test]
    fn dep_on_already_done_flow() {
        let mut s = sim(&[10.0]);
        let a = s.submit(0.0, vec![0], 10.0);
        s.run_to_idle(); // a done at t=1
        let b = s.submit_with_deps(0.0, 0.0, vec![0], 10.0, &[a]);
        s.run_to_idle();
        assert!((s.finish_time(b).unwrap() - 2.0).abs() < 1e-9);
    }

    #[test]
    fn multi_deps_wait_for_latest() {
        let mut s = sim(&[10.0, 1.0]);
        let fast = s.submit(0.0, vec![0], 10.0); // 1 s
        let slow = s.submit(0.0, vec![1], 10.0); // 10 s
        let gated = s.submit_with_deps(0.0, 0.0, vec![0], 10.0, &[fast, slow]);
        s.run_to_idle();
        assert!((s.finish_time(gated).unwrap() - 11.0).abs() < 1e-9);
        assert_eq!(s.status(gated), FlowStatus::Done(s.finish_time(gated).unwrap()));
    }

    #[test]
    fn start_min_dominates_when_later_than_deps() {
        let mut s = sim(&[10.0]);
        let a = s.submit(0.0, vec![0], 10.0); // done at 1
        let b = s.submit_with_deps(5.0, 0.0, vec![0], 10.0, &[a]);
        s.run_to_idle();
        assert!((s.finish_time(b).unwrap() - 6.0).abs() < 1e-9);
    }

    #[test]
    fn waiting_status_reported() {
        let mut s = sim(&[10.0]);
        let a = s.submit(0.0, vec![0], 100.0);
        let b = s.submit_with_deps(0.0, 0.0, vec![0], 1.0, &[a]);
        assert_eq!(s.status(b), FlowStatus::Waiting);
    }

    #[test]
    fn route_interning_dedups_identical_routes() {
        let mut s = sim(&[10.0, 10.0, 10.0]);
        for _ in 0..100 {
            s.submit(0.0, vec![0, 1, 2], 1.0);
        }
        // 100 identical routes share one 3-entry span.
        assert_eq!(s.route_arena.len(), 3);
        s.submit(0.0, vec![2, 1, 0], 1.0); // different content, new span
        assert_eq!(s.route_arena.len(), 6);
        s.run_to_idle();
        assert!((0..s.num_flows()).all(|f| s.finish_time(f).is_some()));
    }

    #[test]
    fn route_hash_collision_falls_back_to_the_list() {
        let mut s = sim(&[10.0; 4]);
        let (a, b) = ([0, 1], [2, 3]);
        // Plant `b`'s span under `a`'s hash, as a colliding route would.
        let span_b = s.intern(&b);
        s.route_dedup.insert(route_hash(&a), span_b);
        let span_a = s.intern(&a);
        assert_ne!(span_a, span_b);
        assert_eq!(s.route_collisions, [(route_hash(&a), span_a)]);
        // Both are found again without growing the arena.
        assert_eq!((s.intern(&a), s.intern(&b)), (span_a, span_b));
        assert_eq!(s.route_arena, [2, 3, 0, 1]);
    }

    #[test]
    fn one_completion_releases_64_dependents() {
        // The gate (32 B at 16 B/s) ends at t=2; its 64 dependents then
        // share a 64 B/s link at 1 B/s each and all end at t=3.
        let mut s = sim(&[16.0, 64.0]);
        let gate = s.submit(0.0, vec![0], 32.0);
        let deps: Vec<_> =
            (0..64).map(|_| s.submit_with_deps(0.0, 0.0, vec![1], 1.0, &[gate])).collect();
        assert!(deps.iter().all(|&d| s.status(d) == FlowStatus::Waiting));
        s.run_to_idle();
        assert_eq!(s.finish_time(gate), Some(2.0));
        for d in deps {
            assert!((s.finish_time(d).unwrap() - 3.0).abs() < 1e-9, "dependent {d}");
        }
    }

    /// A DAG on a degraded fabric with a virtual sink and completion
    /// slack: a staggered first wave through the sink, a zero-byte fence
    /// behind it, and a second wave gated on the fence and one
    /// first-wave flow each.
    fn submitted_dag() -> Simulator {
        let mut s = sim(&[40.0, 30.0, 20.0, 50.0]);
        s.set_completion_slack(1e-3);
        s.scale_capacities(0.5);
        let sink = s.add_virtual_link(15.0);
        let first: Vec<_> = (0..8)
            .map(|i| s.submit(0.1 * i as f64, vec![i % 4, sink], 10.0 + i as f64))
            .collect();
        let fence = s.submit_with_deps(0.0, 0.0, Vec::<LinkIx>::new(), 0.0, &first);
        for (i, &f) in first.iter().enumerate() {
            let route = vec![(i + 1) % 4, i % 4];
            s.submit_with_deps(0.0, 0.01 * i as f64, route, 5.0 * (i + 1) as f64, &[fence, f]);
        }
        s
    }

    fn finish_bits(s: &Simulator) -> Vec<u64> {
        (0..s.num_flows()).map(|f| s.finish_time(f).expect("flow completed").to_bits()).collect()
    }

    #[test]
    fn clone_of_a_submitted_simulator_runs_bit_identically() {
        let mut fresh = submitted_dag();
        fresh.run_to_idle();
        let want = finish_bits(&fresh);

        let mut original = submitted_dag();
        let mut clone = original.clone();
        clone.run_to_idle();
        assert_eq!(finish_bits(&clone), want, "clone vs fresh resubmission");
        assert_eq!(original.now(), 0.0, "running the clone moved the original");
        assert!((0..original.num_flows()).all(|f| original.finish_time(f).is_none()));
        original.run_to_idle();
        assert_eq!(finish_bits(&original), want, "original vs fresh resubmission");

        // A clone taken mid-run carries the flows in flight with it.
        let mut s = submitted_dag();
        for _ in 0..5 {
            s.step();
        }
        let mut mid = s.clone();
        s.run_to_idle();
        mid.run_to_idle();
        assert_eq!(finish_bits(&s), want);
        assert_eq!(finish_bits(&mid), want);
    }

    #[test]
    fn scale_capacities_mid_flight_recomputes_rates() {
        // A (200 B, link 0 @ 10 B/s) runs alone; B (10 B, link 1) is a
        // disjoint component finishing at t=1. Degrading to 50% after
        // B's completion must charge A its old rate up to t=1 (190 B
        // left) and the degraded rate (5 B/s) after: 1 + 190/5 = 39.
        let mut s = sim(&[10.0, 10.0]);
        let a = s.submit(0.0, vec![0], 200.0);
        let b = s.submit(0.0, vec![1], 10.0);
        run_until_done(&mut s, &[b]);
        assert!((s.now() - 1.0).abs() < 1e-12);
        s.scale_capacities(0.5);
        s.run_to_idle();
        assert!(
            (s.finish_time(a).unwrap() - 39.0).abs() < 1e-9,
            "degrade mid-flight not applied: finished at {:?}",
            s.finish_time(a)
        );
    }

    #[test]
    fn degrade_between_rounds_matches_fresh_sim() {
        // Round 1 at full capacity, degrade, round 2 — round 2's finish
        // times must equal (bitwise) a fresh simulator built with the
        // degraded capacities running only round 2.
        let mut s1 = sim(&[40.0, 30.0, 20.0]);
        let r1: Vec<_> = (0..6)
            .map(|i| s1.submit(0.0, vec![i % 3], 10.0 + i as f64))
            .collect();
        let t_round = run_until_done(&mut s1, &r1);
        s1.scale_capacities(0.25);
        let r2: Vec<_> = (0..6)
            .map(|i| s1.submit(t_round + 1.0, vec![(i + 1) % 3, i % 3], 7.0 * (i + 1) as f64))
            .collect();
        s1.run_to_idle();

        let mut s2 = sim(&[10.0, 7.5, 5.0]);
        let f2: Vec<_> = (0..6)
            .map(|i| s2.submit(t_round + 1.0, vec![(i + 1) % 3, i % 3], 7.0 * (i + 1) as f64))
            .collect();
        s2.run_to_idle();
        for (a, b) in r2.iter().zip(&f2) {
            assert_eq!(
                s1.finish_time(*a).map(f64::to_bits),
                s2.finish_time(*b).map(f64::to_bits),
                "round-2 flow diverged after mid-run degrade"
            );
        }
    }

    #[test]
    fn add_virtual_link_mid_flight_joins_components() {
        let mut s = sim(&[10.0]);
        let a = s.submit(0.0, vec![0], 100.0); // 10 s alone
        run_until_done(&mut s, &[]); // no-op, still at t=0
        let v = s.add_virtual_link(2.0);
        let b = s.submit(0.0, vec![0, v], 20.0);
        s.run_to_idle();
        // b bottlenecks on v at 2 B/s -> 10 s; a gets the remaining 8.
        assert!((s.finish_time(b).unwrap() - 10.0).abs() < 1e-9);
        assert!(s.finish_time(a).unwrap() > 10.0);
    }

    mod recompute_equivalence {
        use super::*;

        fn mix(x: u64) -> u64 {
            super::super::mix64(x)
        }

        /// Bit patterns of every flow's finish time after running the
        /// scenario built by `build` under the given recompute mode.
        fn finishes(mode: Recompute, build: impl Fn(&mut Simulator)) -> Vec<u64> {
            let mut s = Simulator::with_capacities(Vec::new());
            s.set_recompute(mode);
            build(&mut s);
            s.run_to_idle();
            (0..s.num_flows())
                .map(|f| s.finish_time(f).expect("flow completed").to_bits())
                .collect()
        }

        fn assert_identical_labeled(label: &str, build: impl Fn(&mut Simulator)) {
            assert_eq!(
                finishes(Recompute::Full, &build),
                finishes(Recompute::Incremental, &build),
                "{label}: Incremental diverged from Full"
            );
        }

        fn assert_identical(build: impl Fn(&mut Simulator)) {
            assert_identical_labeled("scenario", build);
        }

        /// The analytic scenarios from the tests above, replayed under
        /// both recompute modes: finish times must match the Full
        /// reference to the last bit.
        #[test]
        fn analytic_scenarios_bit_identical() {
            assert_identical(|s| {
                s.add_virtual_link(100.0);
                s.submit(0.0, vec![0], 250.0);
            });
            assert_identical(|s| {
                s.add_virtual_link(100.0);
                s.submit(0.0, vec![0], 300.0);
                s.submit(1.0, vec![0], 100.0);
            });
            assert_identical(|s| {
                s.add_virtual_link(100.0);
                s.add_virtual_link(10.0);
                s.submit(0.0, vec![0, 1], 100.0);
            });
            assert_identical(|s| {
                s.add_virtual_link(100.0);
                s.add_virtual_link(100.0);
                let ost = s.add_virtual_link(10.0);
                s.submit(0.0, vec![0, ost], 10.0);
                s.submit(0.0, vec![1, ost], 10.0);
            });
            assert_identical(|s| {
                s.add_virtual_link(10.0);
                let a = s.submit(0.0, vec![0], 100.0);
                let b = s.submit_with_deps(0.0, 0.0, vec![0], 50.0, &[a]);
                s.submit_with_deps(0.0, 0.5, vec![0], 10.0, &[b]);
            });
            assert_identical(|s| {
                s.add_virtual_link(64.0);
                for _ in 0..64 {
                    s.submit(0.0, vec![0], 10.0);
                }
            });
        }

        /// The dependency store's corner cases against the Full
        /// reference: one completion releasing 64 dependents, a
        /// dependency on a flow that is already done, and a submission
        /// after a partial run.
        #[test]
        fn dependency_store_scenarios_bit_identical() {
            assert_identical_labeled("64 dependents", |s| {
                for _ in 0..4 {
                    s.add_virtual_link(16.0);
                }
                let gate = s.submit(0.0, vec![0], 32.0);
                for i in 0..64 {
                    let delay = (i % 5) as f64 * 0.01;
                    s.submit_with_deps(0.0, delay, vec![i % 4], 1.0 + i as f64, &[gate]);
                }
            });
            assert_identical_labeled("dependency on a done flow", |s| {
                s.add_virtual_link(10.0);
                let a = s.submit(0.0, vec![0], 10.0);
                s.run_to_idle();
                let b = s.submit(0.0, vec![0], 30.0);
                s.submit_with_deps(0.0, 0.0, vec![0], 10.0, &[a, b]);
            });
            assert_identical_labeled("submission after a partial run", |s| {
                for c in [10.0, 20.0, 5.0] {
                    s.add_virtual_link(c);
                }
                let first: Vec<FlowId> =
                    (0..6).map(|i| s.submit(0.1 * i as f64, vec![i % 3], 7.0 + i as f64)).collect();
                for _ in 0..4 {
                    s.step();
                }
                let later: Vec<FlowId> = (0..6)
                    .map(|i| {
                        let deps = [first[i], first[(i + 2) % 6]];
                        let route = vec![(i + 1) % 3, i % 3];
                        s.submit_with_deps(0.0, 0.0, route, 3.0 * (i + 1) as f64, &deps)
                    })
                    .collect();
                s.submit_with_deps(0.0, 0.0, vec![1], 4.0, &later);
            });
        }

        /// Flushes into storage sinks through a shared gateway, the
        /// shape that splits one component into rate-coupled blocks:
        /// each sink saturates, the gateway does not (or does, exactly,
        /// or to within the tight margin). Every case against the Full
        /// reference.
        #[test]
        fn rate_coupled_block_scenarios_bit_identical() {
            // (gateway capacity, sink capacities): roomy, exactly full at
            // the start, and full to within the tight margin.
            let cases = [
                ("roomy gateway", 1000.0, [10.0, 10.0, 10.0, 10.0]),
                ("gateway exactly full", 40.0, [10.0, 10.0, 10.0, 10.0]),
                ("gateway within the margin", 40.0 * (1.0 + 1e-9), [10.0, 10.0, 10.0, 10.0]),
                ("uneven sinks", 25.0, [3.0, 7.0, 11.0, 13.0]),
            ];
            for (label, gateway, sinks) in cases {
                assert_identical_labeled(label, |s| {
                    let g = s.add_virtual_link(gateway);
                    let sink: Vec<LinkIx> = sinks.iter().map(|&c| s.add_virtual_link(c)).collect();
                    let private: Vec<LinkIx> = (0..12).map(|_| s.add_virtual_link(50.0)).collect();
                    let mut first = Vec::new();
                    for i in 0..12 {
                        let route = vec![private[i], g, sink[i % 4]];
                        first.push(s.submit(0.05 * (i % 3) as f64, route, 5.0 + i as f64));
                    }
                    // A second wave: each flow waits for one of the first,
                    // so arrivals land on sinks that are already full.
                    for i in 0..12 {
                        let route = vec![private[(i + 5) % 12], g, sink[(i + 1) % 4]];
                        s.submit_with_deps(0.0, 0.0, route, 3.0 + i as f64, &[first[i]]);
                    }
                });
            }
            // Blocks through a capacity change, and with completion slack.
            assert_identical_labeled("degrade with blocks", |s| {
                let g = s.add_virtual_link(100.0);
                let sinks: Vec<LinkIx> =
                    (0..3).map(|i| s.add_virtual_link(4.0 + i as f64)).collect();
                s.set_completion_slack(1e-3);
                for i in 0..18 {
                    s.submit(0.01 * i as f64, vec![g, sinks[i % 3]], 2.0 + (i % 5) as f64);
                }
                for _ in 0..6 {
                    s.step();
                }
                s.scale_capacities(0.5);
            });
        }

        /// The blocks the engine keeps follow the saturated links: flows
        /// of two sinks behind a roomy gateway are two blocks, and one
        /// block once the gateway is the bottleneck.
        #[test]
        fn blocks_split_at_unsaturated_links_only() {
            let blocks_of = |gateway: f64| {
                let mut s = sim(&[gateway, 10.0, 10.0]);
                let ids: Vec<_> =
                    (0..4).map(|i| s.submit(0.0, vec![0, 1 + i % 2], 100.0)).collect();
                s.step(); // activate
                s.step(); // waterfill, first completion
                ids.iter().map(|&id| s.flows[id].block).collect::<Vec<_>>()
            };
            let roomy = blocks_of(100.0);
            assert_eq!(roomy[0], roomy[2], "same sink, same block");
            assert_eq!(roomy[1], roomy[3], "same sink, same block");
            assert_ne!(roomy[0], roomy[1], "sinks behind a roomy gateway are apart");
            let tight = blocks_of(8.0);
            assert!(tight.iter().all(|&b| b == tight[0]), "a full gateway couples all: {tight:?}");
        }

        /// Seeded storage-shaped sweep: many flows through a few gateways
        /// into a few sinks, with integer capacities so that exact ties
        /// and exactly full shared links are common.
        #[test]
        fn seeded_block_sweep_bit_identical() {
            for case in 0u64..40 {
                let build = |s: &mut Simulator| {
                    let gateways: Vec<LinkIx> = (0..1 + mix(case * 3) % 3)
                        .map(|g| s.add_virtual_link((8 + mix(case * 5 + g) % 40) as f64))
                        .collect();
                    let sinks: Vec<LinkIx> = (0..2 + mix(case * 7) % 5)
                        .map(|k| s.add_virtual_link((1 + mix(case * 11 + k) % 12) as f64))
                        .collect();
                    let nflows = 10 + (mix(case * 13) % 50) as usize;
                    let mut ids: Vec<FlowId> = Vec::new();
                    for i in 0..nflows as u64 {
                        let pick = |links: &[LinkIx], salt: u64| {
                            links[(mix(case * salt + i) % links.len() as u64) as usize]
                        };
                        let route = vec![pick(&gateways, 17), pick(&sinks, 19)];
                        let bytes = (1 + mix(case * 23 + i) % 40) as f64;
                        let start = (mix(case * 29 + i) % 4) as f64 / 2.0;
                        let deps: Vec<FlowId> = if i % 4 == 3 {
                            vec![ids[(mix(case * 31 + i) % ids.len() as u64) as usize]]
                        } else {
                            Vec::new()
                        };
                        ids.push(s.submit_with_deps(start, 0.0, route, bytes, &deps));
                    }
                };
                assert_identical_labeled(&format!("block case {case}"), build);
            }
        }

        /// Seeded sweep over irregular scenarios — staggered arrivals,
        /// shared links, dependency gating, zero-byte fences, completion
        /// slack, mid-run capacity degrades — asserting bit-identical
        /// schedules throughout.
        #[test]
        fn seeded_sweep_bit_identical() {
            for case in 0u64..60 {
                let nlinks = 3 + (mix(case * 5 + 1) % 10) as usize;
                let nflows = 1 + (mix(case * 11 + 2) % 40) as usize;
                let build = |s: &mut Simulator| {
                    for l in 0..nlinks {
                        s.add_virtual_link(1.0 + (mix(case * 17 + l as u64) % 64) as f64);
                    }
                    if case % 3 == 0 {
                        s.set_completion_slack(1e-3);
                    }
                    for i in 0..nflows {
                        let len = 1 + (mix(case * 23 + i as u64) % 4) as usize;
                        let route: Vec<usize> = (0..len)
                            .map(|h| (mix(case * 41 + i as u64 * 7 + h as u64) % nlinks as u64)
                                as usize)
                            .collect();
                        let bytes = (mix(case * 59 + i as u64) % 5000) as f64 / 7.0;
                        let start = (mix(case * 73 + i as u64) % 30) as f64 / 10.0;
                        // every third flow gates on an earlier one; every
                        // seventh is a zero-byte fence
                        let deps: Vec<FlowId> = if i >= 1 && i % 3 == 0 {
                            vec![(mix(case * 83 + i as u64) % i as u64) as usize]
                        } else {
                            Vec::new()
                        };
                        let bytes = if i % 7 == 6 { 0.0 } else { bytes };
                        s.submit_with_deps(start, 0.0, route, bytes, &deps);
                    }
                    if case % 4 == 1 {
                        // degrade mid-flight: run partway, scale, finish
                        for _ in 0..3 {
                            s.step();
                        }
                        s.scale_capacities(0.5);
                    }
                };
                assert_identical_labeled(&format!("case {case}"), build);
            }
        }
    }

    mod props {
        use super::*;
        use crate::fairshare::{max_min_rates, FlowDemand};

        fn mix(x: u64) -> u64 {
            super::super::mix64(x)
        }

        /// The engine's allocation-free waterfilling agrees with the
        /// reference implementation: the first completion happens at
        /// min(bytes_i / rate_i) under the reference rates.
        #[test]
        fn prop_engine_matches_reference_rates() {
            for case in 0u64..40 {
                let caps = [11.0, 23.0, 7.0, 17.0, 29.0];
                let nspecs = 1 + (mix(case * 7 + 1) % 9) as usize;
                let specs: Vec<(Vec<usize>, f64)> = (0..nspecs)
                    .map(|i| {
                        let len = 1 + (mix(case * 61 + i as u64) % 3) as usize;
                        let route: Vec<usize> = (0..len)
                            .map(|h| (mix(case * 127 + i as u64 * 11 + h as u64) % 5) as usize)
                            .collect();
                        let bytes = 10.0 + (mix(case * 211 + i as u64) % 4900) as f64 / 10.0;
                        (route, bytes)
                    })
                    .collect();

                let mut s = Simulator::with_capacities(caps.to_vec());
                for (route, bytes) in &specs {
                    s.submit(0.0, route, *bytes);
                }
                let demands: Vec<FlowDemand> = specs
                    .iter()
                    .map(|(r, _)| FlowDemand { route: r.clone() })
                    .collect();
                let rates = max_min_rates(&demands, |l| caps[l]);
                let expect_first = specs
                    .iter()
                    .zip(&rates)
                    .map(|((_, b), &r)| b / r)
                    .fold(f64::INFINITY, f64::min);
                // run to the first completion
                while s.step() {
                    if (0..s.num_flows()).any(|f| s.finish_time(f).is_some()) {
                        break;
                    }
                }
                let first = (0..s.num_flows())
                    .filter_map(|f| s.finish_time(f))
                    .fold(f64::INFINITY, f64::min);
                assert!((first - expect_first).abs() < 1e-6 * expect_first.max(1.0),
                    "case {case}: first completion {first} vs reference {expect_first}");
            }
        }

        /// Every submitted flow eventually completes, and completion
        /// time is lower-bounded by bytes / min-link-capacity.
        #[test]
        fn prop_all_complete_with_lower_bound() {
            for case in 0u64..40 {
                let caps = [7.0, 13.0, 29.0, 31.0, 5.0, 11.0];
                let nspecs = 1 + (mix(case * 13 + 3) % 19) as usize;
                let specs: Vec<(f64, Vec<usize>, f64)> = (0..nspecs)
                    .map(|i| {
                        let t = (mix(case * 31 + i as u64) % 50) as f64 / 10.0;
                        let len = 1 + (mix(case * 67 + i as u64) % 3) as usize;
                        let route: Vec<usize> = (0..len)
                            .map(|h| (mix(case * 151 + i as u64 * 13 + h as u64) % 6) as usize)
                            .collect();
                        let bytes = 1.0 + (mix(case * 251 + i as u64) % 9990) as f64 / 10.0;
                        (t, route, bytes)
                    })
                    .collect();

                let mut s = Simulator::with_capacities(caps.to_vec());
                let ids: Vec<_> = specs
                    .iter()
                    .map(|(t, route, bytes)| s.submit(*t, route, *bytes))
                    .collect();
                s.run_to_idle();
                for (id, (t, route, bytes)) in ids.iter().zip(&specs) {
                    let ft = s.finish_time(*id);
                    assert!(ft.is_some(), "case {case}: flow {id} never completed");
                    let minc = route.iter().map(|&l| caps[l]).fold(f64::INFINITY, f64::min);
                    let lb = t + bytes / minc;
                    assert!(ft.unwrap() >= lb - 1e-6,
                        "case {case}: flow {id} finished at {} before lower bound {lb}",
                        ft.unwrap());
                }
            }
        }

        /// More bytes on an otherwise identical flow never finishes
        /// earlier (monotonicity).
        #[test]
        fn prop_monotonic_in_bytes() {
            for case in 0u64..25 {
                let extra = 1.0 + (mix(case + 5) % 4990) as f64 / 10.0;
                let mut s1 = Simulator::with_capacities(vec![10.0, 20.0]);
                let a1 = s1.submit(0.0, vec![0, 1], 100.0);
                s1.submit(0.0, vec![1], 50.0);
                s1.run_to_idle();

                let mut s2 = Simulator::with_capacities(vec![10.0, 20.0]);
                let a2 = s2.submit(0.0, vec![0, 1], 100.0 + extra);
                s2.submit(0.0, vec![1], 50.0);
                s2.run_to_idle();

                assert!(s2.finish_time(a2).unwrap()
                    >= s1.finish_time(a1).unwrap() - 1e-9,
                    "case {case}");
            }
        }
    }
}
