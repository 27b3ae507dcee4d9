//! One whole session on the thread executor: `Runtime::run` from entry
//! to return, with `SharedFile::open_shared`, `Session::builder…build`,
//! a cold epoch, the warm epochs and `finalize` on every rank.

use std::io::Read as _;
use std::path::Path;
use std::sync::Arc;
use std::time::Instant;

use tapioca::aggregation::IoStats;
use tapioca::{Session, WriteDecl, WriteOutcome};
use tapioca_mpi::{Comm, Runtime, SharedFile};
use tapioca_trace::{Trace, TraceEvent, Tracer};

use crate::session::SessionSample;
use crate::span::{Lane, Span, BARRIER_SPAN, DRIVER};
use crate::sys::cpu_seconds;
use crate::workloads::{Direction, ThreadInputs, ThreadWorkload};

/// What one rank brings back from a session.
struct RankOut {
    setup_ns: u64,
    epoch_ns: Vec<u64>,
    /// Start and end of the last warm epoch, ns since the run's origin.
    last_epoch: (u64, u64),
    stats: IoStats,
    spans: Vec<Span>,
    /// Buffers of the last `read_declared` (readback workloads).
    read: Option<Vec<Vec<u8>>>,
    all_flushed: bool,
}

fn write_epoch(
    io: &mut Session<'_>,
    lane: &mut Lane,
    inp: &ThreadInputs,
    mine: &[WriteDecl],
    order: &[usize],
    epoch: u32,
) -> bool {
    let mut last = None;
    for &v in order {
        let d = &mine[v];
        let data = inp.payload(epoch, d);
        let outcome = lane
            .time("core.api.write", epoch, || io.write(d.offset, data))
            .unwrap_or_else(|e| panic!("write at {} failed: {e}", d.offset));
        last = Some(outcome);
    }
    last == Some(WriteOutcome::Flushed)
}

#[allow(clippy::too_many_arguments)]
fn rank_body(
    comm: &Comm,
    w: &ThreadWorkload,
    inp: &ThreadInputs,
    path: &Path,
    tracer: Option<&Arc<Tracer>>,
    origin: Instant,
    t0: Instant,
    session: u32,
) -> RankOut {
    let r = comm.rank();
    let mut lane = Lane::new(origin, session, r as u32, tracer.is_some());
    let mine = &w.decls[r];
    let order = &inp.order[r];
    let mut cfg = w.cfg.clone();
    cfg.tracer = tracer.cloned();
    let builder_decls = mine.clone();

    let file = lane.time("mpi.file.open_shared", 0, || {
        SharedFile::open_shared(comm, path)
    });
    let mut io = lane
        .time("core.api.build", 0, || {
            Session::builder(comm, file)
                .declarations(builder_decls)
                .config(cfg)
                .topology(Arc::clone(&w.topo))
                .build()
        })
        .unwrap_or_else(|e| panic!("session build failed: {e}"));
    let mut all_flushed = write_epoch(&mut io, &mut lane, inp, mine, order, 0);
    let setup_ns = t0.elapsed().as_nanos() as u64;

    let mut epoch_ns = Vec::with_capacity(w.warm_epochs as usize);
    let mut last_epoch = (0, 0);
    let mut read = None;
    for epoch in 1..=w.warm_epochs {
        lane.time(BARRIER_SPAN, epoch, || comm.barrier());
        let start = Instant::now();
        match w.direction {
            Direction::Write => {
                all_flushed &= write_epoch(&mut io, &mut lane, inp, mine, order, epoch);
            }
            Direction::Readback => {
                let bufs = lane
                    .time("core.api.read", epoch, || io.read_declared())
                    .unwrap_or_else(|e| panic!("read_declared failed: {e}"));
                read = Some(bufs);
            }
        }
        lane.time(BARRIER_SPAN, epoch, || comm.barrier());
        let end = Instant::now();
        epoch_ns.push((end - start).as_nanos() as u64);
        last_epoch = (
            (start - origin).as_nanos() as u64,
            (end - origin).as_nanos() as u64,
        );
    }
    let stats = *io.stats().expect("the cold epoch completed");
    lane.time("core.api.finalize", w.warm_epochs + 1, || io.finalize());
    RankOut {
        setup_ns,
        epoch_ns,
        last_epoch,
        stats,
        spans: lane.spans,
        read,
        all_flushed,
    }
}

/// Compare the file with the expected image, a mebibyte at a time.
fn file_matches(path: &Path, expected: &[u8]) -> bool {
    let Ok(mut f) = std::fs::File::open(path) else {
        return false;
    };
    if f.metadata().map(|m| m.len()).ok() != Some(expected.len() as u64) {
        return false;
    }
    let mut buf = vec![0u8; 1 << 20];
    expected.chunks(buf.len()).all(|want| {
        let got = &mut buf[..want.len()];
        f.read_exact(got).is_ok() && got == want
    })
}

/// Run one session and check its outputs (outside the timed region).
/// The data file at `path` is removed afterwards.
///
/// `setup_ns` runs from `Runtime::run`'s entry until the slowest rank
/// has finished open, build and the cold epoch; an epoch is barrier to
/// barrier on the slowest rank; `stats` is `Session::stats()` of the
/// last write epoch summed over ranks; `trace` holds the library
/// tracer's events of the last warm epoch only (a multi-epoch trace
/// would count a later epoch's puts as overlap with an earlier flush).
///
/// # Errors
/// The panic message when a rank failed or the watchdog declared a
/// hang (`TAPIOCA_WATCHDOG_SECS`): the session counts as failed.
pub fn run_session(
    w: &ThreadWorkload,
    inp: &ThreadInputs,
    path: &Path,
    origin: Instant,
    session: u32,
    traced: bool,
) -> Result<SessionSample, String> {
    let n = w.decls.len();
    let tracer = traced.then(|| Tracer::new(n));
    let tracer_origin_ns = origin.elapsed().as_nanos() as u64;

    let cpu0 = cpu_seconds();
    let t0 = Instant::now();
    let run = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
        Runtime::run(n, |comm| {
            rank_body(&comm, w, inp, path, tracer.as_ref(), origin, t0, session)
        })
    }));
    let session_ns = t0.elapsed().as_nanos() as u64;
    let cpu_s = cpu_seconds() - cpu0;
    let outs = run.map_err(|e| {
        let _ = std::fs::remove_file(path);
        e.downcast_ref::<String>()
            .cloned()
            .or_else(|| e.downcast_ref::<&str>().map(|s| (*s).to_string()))
            .unwrap_or_else(|| "rank panicked".into())
    })?;

    // ---- verification, untimed ----
    let last_written = match w.direction {
        Direction::Write => w.warm_epochs,
        Direction::Readback => 0,
    };
    let mut failures = 0;
    if !file_matches(path, inp.expected_file(last_written)) {
        eprintln!("FAIL: file differs from the expected image after epoch {last_written}");
        failures += 1;
    }
    let _ = std::fs::remove_file(path);
    for (r, out) in outs.iter().enumerate() {
        if !out.all_flushed {
            eprintln!("FAIL: rank {r} saw an epoch end without WriteOutcome::Flushed");
            failures += 1;
        }
        if let Some(bufs) = &out.read {
            let ok = bufs.len() == w.decls[r].len()
                && bufs
                    .iter()
                    .zip(&w.decls[r])
                    .all(|(b, d)| b == inp.payload(0, d));
            if !ok {
                eprintln!("FAIL: rank {r} read_declared buffers differ from the payload");
                failures += 1;
            }
        }
    }

    // ---- reduction over ranks ----
    let max = |f: fn(&RankOut) -> u64| outs.iter().map(f).max().expect("ranks");
    let epoch_ns = (0..w.warm_epochs as usize)
        .map(|e| outs.iter().map(|o| o.epoch_ns[e]).max().expect("ranks"))
        .collect();
    let mut stats = IoStats::default();
    outs.iter().for_each(|o| stats.merge(&o.stats));

    let trace = tracer.map(|t| {
        let lo = outs.iter().map(|o| o.last_epoch.0).min().expect("ranks");
        let hi = max(|o| o.last_epoch.1);
        let in_window = |e: &&TraceEvent| (lo..=hi).contains(&(tracer_origin_ns + e.t_ns));
        Trace::from_events(
            t.drain()
                .events()
                .iter()
                .filter(in_window)
                .copied()
                .collect(),
        )
    });
    let mut spans = Vec::new();
    if traced {
        let start_ns = (t0 - origin).as_nanos() as u64;
        spans.push(Span {
            name: "bench.session",
            start_ns,
            end_ns: start_ns + session_ns,
            parent: None,
            session,
            rank: DRIVER,
            epoch: 0,
        });
    }
    let setup_ns = max(|o| o.setup_ns);
    for out in outs {
        spans.extend(out.spans.into_iter().map(|s| Span {
            parent: Some(0),
            ..s
        }));
    }
    Ok(SessionSample {
        session_ns,
        setup_ns,
        epoch_ns,
        cpu_s,
        stats: Some(stats),
        report: None,
        spans,
        trace,
        failures,
    })
}
