//! Schedule oracle: `compute_schedule`'s linear passes must produce the
//! *identical* `Schedule` as the straightforward cut they replaced —
//! three divisions per chunk, a `binary_search` + `insert` per chunk into
//! `members`, and one growing coverage vector per round. That cut lives
//! on here, as the reference, and nowhere in the library.
//!
//! Compared over a seeded generator of awkward declarations (holes,
//! zero-length declarations, variables out of file order, ranks spanning
//! partitions, duplicate and overlapping extents) and over the shapes
//! the benchmark runs (HACC SoA/AoS, IOR, the strided grid). Everything
//! derived from a schedule — `RankStreamPlan`, `RoundRoster`,
//! `compute_coalesce_plan` — is compared on the same inputs.

use tapioca::schedule::{
    compute_coalesce_plan, compute_schedule, Chunk, FlushSegment, PartitionInfo, RankStreamPlan,
    RoundInfo, RoundRoster, Schedule, ScheduleParams, WriteDecl,
};
use tapioca_workloads::datagen::SplitMix64;
use tapioca_workloads::grid::GridDecomp;
use tapioca_workloads::hacc::{HaccIo, Layout};
use tapioca_workloads::ior::IorSpec;

/// The cut `compute_schedule` used before it was rewritten as linear
/// passes, kept verbatim as the oracle.
fn reference_schedule(decls: &[Vec<WriteDecl>], params: ScheduleParams) -> Schedule {
    let nranks = decls.len();

    // File span.
    let mut lo = u64::MAX;
    let mut hi = 0u64;
    for d in decls.iter().flatten() {
        if d.len == 0 {
            continue;
        }
        lo = lo.min(d.offset);
        hi = hi.max(d.offset + d.len);
    }
    if lo > hi {
        return Schedule {
            params,
            span: (0, 0),
            partitions: Vec::new(),
            chunks_by_rank: vec![Vec::new(); nranks],
        };
    }
    let span = hi - lo;
    let nparts = params.num_aggregators;
    let mut psize = span.div_ceil(nparts as u64).max(1);
    if params.align_to_buffer {
        psize = psize.div_ceil(params.buffer_size) * params.buffer_size;
    }
    let used_parts = span.div_ceil(psize) as usize;
    let b = params.buffer_size;

    let part_start = |p: usize| lo + p as u64 * psize;
    let part_end = |p: usize| (lo + (p as u64 + 1) * psize).min(hi);

    // Cut every declaration into chunks.
    let mut chunks_by_rank: Vec<Vec<Chunk>> = vec![Vec::new(); nranks];
    for (rank, rd) in decls.iter().enumerate() {
        for (var, d) in rd.iter().enumerate() {
            if d.len == 0 {
                continue;
            }
            let mut cur = d.offset;
            let end = d.offset + d.len;
            while cur < end {
                let p = ((cur - lo) / psize) as usize;
                let ps = part_start(p);
                let round = ((cur - ps) / b) as u32;
                let win_end = ps + (round as u64 + 1) * b;
                let stop = end.min(win_end).min(part_end(p));
                chunks_by_rank[rank].push(Chunk {
                    rank,
                    var,
                    var_offset: cur - d.offset,
                    file_offset: cur,
                    len: stop - cur,
                    partition: p,
                    round,
                    buf_offset: (cur - ps) - round as u64 * b,
                });
                cur = stop;
            }
        }
        chunks_by_rank[rank].sort_unstable_by_key(|c| (c.partition, c.round, c.file_offset));
    }

    // Partition summaries.
    let mut partitions: Vec<PartitionInfo> = (0..used_parts)
        .map(|p| {
            let start = part_start(p);
            let end = part_end(p);
            let nrounds = (end - start).div_ceil(b) as usize;
            PartitionInfo {
                index: p,
                start,
                end,
                members: Vec::new(),
                member_bytes: Vec::new(),
                rounds: vec![RoundInfo::default(); nrounds],
            }
        })
        .collect();

    // Member weights and per-round coverage, as (offset, len) per round.
    let mut coverage: Vec<Vec<Vec<(u64, u64)>>> =
        partitions.iter().map(|p| vec![Vec::new(); p.rounds.len()]).collect();
    for rd in &chunks_by_rank {
        for c in rd {
            let part = &mut partitions[c.partition];
            match part.members.binary_search(&c.rank) {
                Ok(i) => part.member_bytes[i] += c.len,
                Err(i) => {
                    part.members.insert(i, c.rank);
                    part.member_bytes.insert(i, c.len);
                }
            }
            part.rounds[c.round as usize].bytes += c.len;
            coverage[c.partition][c.round as usize].push((c.file_offset, c.len));
        }
    }

    // Merge coverage into flush segments.
    for (p, part) in partitions.iter_mut().enumerate() {
        for (r, round) in part.rounds.iter_mut().enumerate() {
            let ranges = &mut coverage[p][r];
            ranges.sort_unstable();
            let win_start = part.start + r as u64 * b;
            let mut segs: Vec<FlushSegment> = Vec::new();
            for &(off, len) in ranges.iter() {
                match segs.last_mut() {
                    Some(s) if s.file_offset + s.len >= off => {
                        let new_end = (off + len).max(s.file_offset + s.len);
                        s.len = new_end - s.file_offset;
                    }
                    _ => segs.push(FlushSegment {
                        file_offset: off,
                        len,
                        buf_offset: off - win_start,
                    }),
                }
            }
            round.segments = segs;
        }
    }

    Schedule { params, span: (lo, hi), partitions, chunks_by_rank }
}

/// Assert the two cuts agree on `decls`, and that everything derived
/// from the schedule agrees too (`ranks_per_node` shapes the coalesce
/// plan's node map).
fn assert_same(what: &str, decls: &[Vec<WriteDecl>], params: ScheduleParams, ranks_per_node: usize) {
    let want = reference_schedule(decls, params);
    let got = compute_schedule(decls, params);
    // Field by field first, so a failure names what differs.
    assert_eq!(got.span, want.span, "{what}: span");
    assert_eq!(got.partitions.len(), want.partitions.len(), "{what}: partition count");
    for (g, w) in got.partitions.iter().zip(&want.partitions) {
        assert_eq!(g, w, "{what}: partition {}", w.index);
    }
    for (rank, (g, w)) in got.chunks_by_rank.iter().zip(&want.chunks_by_rank).enumerate() {
        assert_eq!(g, w, "{what}: chunks of rank {rank}");
    }
    assert_eq!(got, want, "{what}: schedule");

    for rank in 0..decls.len() {
        assert_eq!(
            RankStreamPlan::new(&got, rank),
            RankStreamPlan::new(&want, rank),
            "{what}: stream plan of rank {rank}"
        );
    }
    for (g, w) in got.partitions.iter().zip(&want.partitions) {
        assert_eq!(
            RoundRoster::new(&got, g),
            RoundRoster::new(&want, w),
            "{what}: roster of partition {}",
            w.index
        );
    }
    assert_eq!(
        compute_coalesce_plan(&got, |r| r / ranks_per_node),
        compute_coalesce_plan(&want, |r| r / ranks_per_node),
        "{what}: coalesce plan"
    );
}

/// One seeded set of hostile-but-legal declarations for `nranks` ranks.
fn awkward_decls(rng: &mut SplitMix64, nranks: usize) -> Vec<Vec<WriteDecl>> {
    let base = rng.range_u64(0, 5000);
    let mut decls: Vec<Vec<WriteDecl>> = Vec::with_capacity(nranks);
    let mut cursor = base;
    for _ in 0..nranks {
        let nvars = rng.range_usize(0, 6);
        let mut mine = Vec::with_capacity(nvars);
        for _ in 0..nvars {
            let len = match rng.range_u64(0, 8) {
                0 => 0,                           // zero-length declaration
                1 => rng.range_u64(300, 1500),    // spans rounds and partitions
                _ => rng.range_u64(1, 200),
            };
            let offset = match rng.range_u64(0, 10) {
                0 => cursor + rng.range_u64(1, 400), // hole before it
                1 => cursor.saturating_sub(rng.range_u64(1, 150)).max(base), // overlaps earlier bytes
                _ => cursor,
            };
            mine.push(WriteDecl { offset, len });
            cursor = cursor.max(offset + len);
        }
        // Variables out of file order within the rank.
        if rng.range_u64(0, 3) == 0 {
            mine.reverse();
        }
        // An exact duplicate of one declaration, by this rank.
        if !mine.is_empty() && rng.range_u64(0, 6) == 0 {
            let dup = mine[rng.range_usize(0, mine.len())];
            mine.push(dup);
        }
        decls.push(mine);
    }
    // A duplicate extent across ranks.
    if nranks > 1 && rng.bool() {
        if let Some(&d) = decls[0].first() {
            decls[nranks - 1].push(d);
        }
    }
    decls
}

#[test]
fn linear_cut_equals_the_reference_on_seeded_awkward_declarations() {
    let mut cases = 0;
    for nranks in 1..=17usize {
        for &num_aggregators in &[1usize, 2, 3, 7] {
            for &buffer_size in &[1u64, 64, 257] {
                for align_to_buffer in [false, true] {
                    let seed = (nranks * 1000 + num_aggregators * 100) as u64
                        + buffer_size * 2
                        + align_to_buffer as u64;
                    let mut rng = SplitMix64::new(seed);
                    let decls = awkward_decls(&mut rng, nranks);
                    let params = ScheduleParams { num_aggregators, buffer_size, align_to_buffer };
                    let what = format!(
                        "seed {seed}: {nranks} ranks, {num_aggregators} aggregators, \
                         buffer {buffer_size}, align {align_to_buffer}"
                    );
                    assert_same(&what, &decls, params, 1 + nranks / 3);
                    cases += 1;
                }
            }
        }
    }
    assert_eq!(cases, 17 * 4 * 3 * 2);
}

#[test]
fn linear_cut_equals_the_reference_on_degenerate_inputs() {
    let p = |num_aggregators, buffer_size, align_to_buffer| ScheduleParams {
        num_aggregators,
        buffer_size,
        align_to_buffer,
    };
    let d = |offset, len| WriteDecl { offset, len };
    // Nothing declared, and only zero-length declarations.
    assert_same("no ranks", &[], p(2, 16, true), 1);
    assert_same("empty ranks", &[vec![], vec![]], p(4, 16, true), 1);
    assert_same("zero lengths", &[vec![d(10, 0)], vec![d(99, 0), d(3, 0)]], p(2, 16, false), 1);
    // One byte; one rank crossing every partition; a far-away island.
    assert_same("one byte", &[vec![d(1000, 1)]], p(3, 8, true), 1);
    assert_same("one rank spans all", &[vec![d(5, 1000)]], p(7, 13, false), 1);
    assert_same("island", &[vec![d(0, 10)], vec![d(1 << 20, 10)]], p(3, 4096, true), 2);
    // Declarations ending exactly on window and partition boundaries,
    // the next one starting there.
    assert_same(
        "boundary to boundary",
        &[vec![d(0, 64), d(64, 64)], vec![d(128, 128)], vec![d(256, 1)]],
        p(2, 64, true),
        1,
    );
    // The same extent declared by every rank, and twice by one.
    assert_same(
        "all ranks, one extent",
        &[vec![d(0, 100)], vec![d(0, 100), d(0, 100)], vec![d(50, 100)]],
        p(2, 32, true),
        2,
    );
}

#[test]
fn linear_cut_equals_the_reference_on_the_benchmark_shapes() {
    let tapioca = |num_aggregators, buffer_size| ScheduleParams {
        num_aggregators,
        buffer_size,
        align_to_buffer: true,
    };
    const KIB: u64 = 1 << 10;
    const MIB: u64 = 1 << 20;

    // thr-ior-bulk / thr-ior-readback, and sim-theta-ior scaled down.
    let ior = IorSpec { num_ranks: 4, bytes_per_rank: 16 * MIB }.decls();
    assert_same("ior bulk", &ior, tapioca(2, 4 * MIB), 2);
    let ior = IorSpec { num_ranks: 4, bytes_per_rank: 4 * MIB }.decls();
    assert_same("ior readback", &ior, tapioca(4, MIB), 2);
    let ior = IorSpec { num_ranks: 512, bytes_per_rank: MIB }.decls();
    assert_same("ior theta", &ior, tapioca(24, 8 * MIB), 16);
    // ROMIO's unaligned file domains over the same declarations.
    assert_same(
        "ior unaligned",
        &ior,
        ScheduleParams { num_aggregators: 7, buffer_size: 3 * MIB + 5, align_to_buffer: false },
        16,
    );

    // thr-hacc-rounds: field-major SoA, variable v of rank r at
    // v * R * L + r * L.
    let soa: Vec<Vec<WriteDecl>> = (0..16u64)
        .map(|r| (0..9u64).map(|v| WriteDecl { offset: (v * 16 + r) * 8 * KIB, len: 8 * KIB }).collect())
        .collect();
    assert_same("hacc rounds", &soa, tapioca(2, 32 * KIB), 16);

    // sim-mira-hacc: one Pset group of HACC-IO, both layouts, at a size
    // where ranks straddle windows and partitions.
    for layout in [Layout::StructOfArrays, Layout::ArrayOfStructs] {
        let hacc = HaccIo {
            num_ranks: 256,
            particles_per_rank: HaccIo::particles_for_bytes(64 * KIB),
            layout,
        };
        assert_same(&format!("hacc {layout:?}"), &hacc.decls(), tapioca(16, MIB), 16);
        assert_same(&format!("hacc {layout:?}, 3 aggregators"), &hacc.decls(), tapioca(3, 100_000), 16);
    }

    // thr-grid-restart: 8 ranks x 1,024 strided 1 KiB rows.
    let grid = GridDecomp::new_3d(64, 64, 256, 2, 2, 2, 8).decls();
    assert_same("grid restart", &grid, tapioca(4, MIB), 4);
}
