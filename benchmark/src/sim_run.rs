//! One whole session on the simulator executor: `SimSession::build`,
//! every `run_epoch`, and the drop.

use std::time::Instant;

use tapioca::sim_exec::SimSession;
use tapioca_topology::TopologyProvider;
use tapioca_trace::Tracer;

use crate::session::SessionSample;
use crate::span::{Lane, Span, DRIVER};
use crate::sys::cpu_seconds;
use crate::workloads::SimWorkload;

/// Bytes the spec declares — what every epoch's report must account for.
pub fn declared_bytes(w: &SimWorkload) -> u64 {
    w.spec
        .groups
        .iter()
        .flat_map(|g| g.decls.iter().flatten())
        .map(|d| d.len)
        .sum()
}

/// Run one session: `setup_ns` is `SimSession::build`, an epoch one
/// `run_epoch`, the session `build` + all epochs + drop; `report` is the
/// last epoch's and `trace` the library tracer's events of the first
/// epoch. `elapsed_bits` carries the simulated elapsed time
/// of the run's first epoch: every later epoch, in every session, must
/// reproduce it bit for bit (a host-speed change must not move it).
///
/// # Errors
/// The library's error message when `build` or an epoch returned `Err`.
pub fn run_session(
    w: &SimWorkload,
    origin: Instant,
    session: u32,
    traced: bool,
    elapsed_bits: &mut Option<u64>,
) -> Result<SessionSample, String> {
    let tracer = traced.then(|| Tracer::new(w.profile.machine.num_ranks()));
    let mut cfg = w.cfg.clone();
    cfg.tracer = tracer.clone();
    let mut lane = Lane::new(origin, session, DRIVER, traced);
    let mut trace = None;

    let cpu0 = cpu_seconds();
    let t0 = Instant::now();
    let mut sim = lane
        .time("core.sim_exec.build", 0, || {
            SimSession::build(&w.profile, &w.storage, &w.spec, &cfg)
        })
        .map_err(|e| format!("SimSession::build failed: {e}"))?;
    let setup_ns = t0.elapsed().as_nanos() as u64;
    let mut epoch_ns = Vec::with_capacity(w.epochs as usize);
    let mut reports = Vec::with_capacity(w.epochs as usize);
    for epoch in 0..w.epochs {
        let start = Instant::now();
        let report = lane
            .time("core.sim_exec.run_epoch", epoch, || sim.run_epoch())
            .map_err(|e| format!("run_epoch failed: {e}"))?;
        epoch_ns.push(start.elapsed().as_nanos() as u64);
        reports.push(report);
        // Emptying the tracer is part of using it: inside the session,
        // outside the epoch. Only the first epoch's events are kept.
        if let Some(t) = &tracer {
            let drained = t.drain();
            trace.get_or_insert(drained);
        }
    }
    drop(sim);
    let session_ns = t0.elapsed().as_nanos() as u64;
    let cpu_s = cpu_seconds() - cpu0;

    // ---- verification, untimed ----
    let want_bytes = declared_bytes(w) as f64;
    let mut failures = 0;
    for (e, rep) in reports.iter().enumerate() {
        if rep.bytes != want_bytes {
            eprintln!(
                "FAIL: epoch {e} moved {} bytes, {want_bytes} declared",
                rep.bytes
            );
            failures += 1;
        }
        let bits = rep.elapsed.to_bits();
        if *elapsed_bits.get_or_insert(bits) != bits {
            eprintln!(
                "FAIL: epoch {e} simulated elapsed {} differs between repetitions",
                rep.elapsed
            );
            failures += 1;
        }
    }

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
        spans.extend(lane.spans.into_iter().map(|s| Span {
            parent: Some(0),
            ..s
        }));
    }
    Ok(SessionSample {
        session_ns,
        setup_ns,
        epoch_ns,
        cpu_s,
        stats: None,
        report: reports.pop(),
        spans,
        trace,
        failures,
    })
}
