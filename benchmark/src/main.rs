//! Whole-session benchmark of the TAPIOCA reproduction. See README.md.
//!
//! ```text
//! tapioca-benchmark --workload W --seed N --seconds S --trace 0|1   one workload, in this process
//! tapioca-benchmark all    [--seed N] [--seconds S] [--trace 0|1] [--smoke]
//! tapioca-benchmark repeat [--seed N] [--seconds S] [--runs R] [--smoke]
//! ```
//!
//! A run prints its report on standard error and, as the last line of
//! standard output, one JSON object with the keys `correct`,
//! `attempted`, `failed` and `metrics`.

mod json;
mod metrics;
mod probes;
mod session;
mod sim_run;
mod span;
mod stats;
mod sys;
mod thread_exec;
mod workloads;

use std::path::Path;
use std::process::{Command, ExitCode};
use std::time::{Duration, Instant};

use json::Json;
use metrics::{Metrics, END_TO_END, PER_LAYER};
use session::{measure, Account, Leg, Length, SessionSample};
use span::{max_over_ranks, sum_by_epoch_rank, Span, BARRIER_SPAN};
use stats::{median, quartile_spread, tail_percentile};
use workloads::{ThreadInputs, Workload, WORKLOADS};

/// A hung collective becomes a counted failure after this long, not a
/// stuck run (the library reads it from `TAPIOCA_WATCHDOG_SECS`).
const WATCHDOG_SECS: &str = "20";
/// Sessions started in a run's first seconds are not timed.
const WARM_UP_SECS: f64 = 2.0;
/// Share of a traced run's length given to each of its two session
/// legs (tracing off, tracing on); the probes get the rest.
const TRACED_LEG_SHARE: f64 = 0.3;

struct Args {
    command: Option<String>,
    workload: Option<String>,
    seed: u64,
    seconds: f64,
    trace: bool,
    smoke: bool,
    runs: usize,
}

fn parse_args() -> Result<Args, String> {
    let mut a = Args {
        command: None,
        workload: None,
        seed: 1,
        seconds: 10.0,
        trace: false,
        smoke: false,
        runs: 10,
    };
    let mut it = std::env::args().skip(1);
    while let Some(arg) = it.next() {
        let mut value = |what: &str| it.next().ok_or(format!("{arg} needs {what}"));
        match arg.as_str() {
            "--workload" => a.workload = Some(value("a workload name")?),
            "--seed" => {
                a.seed = value("a number")?
                    .parse()
                    .map_err(|e| format!("--seed: {e}"))?
            }
            "--seconds" => {
                a.seconds = value("a number")?
                    .parse()
                    .map_err(|e| format!("--seconds: {e}"))?;
            }
            "--trace" => a.trace = value("0 or 1")? == "1",
            "--runs" => {
                a.runs = value("a number")?
                    .parse()
                    .map_err(|e| format!("--runs: {e}"))?
            }
            "--smoke" => a.smoke = true,
            "all" | "repeat" if a.command.is_none() => a.command = Some(arg),
            other => return Err(format!("unknown argument {other}")),
        }
    }
    if !(a.seconds > 0.0 && a.seconds <= 600.0) || a.runs == 0 {
        return Err("--seconds must be in (0, 600] and --runs at least 1".into());
    }
    Ok(a)
}

/// What one run of one workload found.
struct Outcome {
    attempted: u64,
    failed: u64,
    metrics: Metrics,
}

/// The metrics a run prints: per-layer when traced, else end-to-end.
fn table(traced: bool) -> &'static [(&'static str, &'static str)] {
    if traced {
        &PER_LAYER
    } else {
        &END_TO_END
    }
}

fn seconds_of(ns: u64) -> f64 {
    ns as f64 / 1e9
}

/// Per-layer times of the traced leg, from the spans the benchmark
/// recorded around its calls into `core.api` / `core.sim_exec`.
#[derive(Default)]
struct SpanReduction {
    accounts: Vec<Account>,
    /// Per timed epoch: the slowest rank's summed `write` / `read` /
    /// `run_epoch` span time.
    write_epoch_s: Vec<f64>,
    read_epoch_s: Vec<f64>,
    run_epoch_s: Vec<f64>,
    /// Every `Session::write` call of a timed epoch, any rank.
    write_call_s: Vec<f64>,
    write_calls_per_epoch: f64,
    kept: Vec<Span>,
}

impl SpanReduction {
    fn add(&mut self, s: &SessionSample, cold_epochs: u32) {
        self.accounts.push(Account::of(&s.spans));
        let per_epoch = |name: &str| -> Vec<f64> {
            max_over_ranks(&sum_by_epoch_rank(&s.spans, name))
                .into_iter()
                .filter(|&(epoch, _)| epoch >= cold_epochs)
                .map(|(_, ns)| seconds_of(ns))
                .collect()
        };
        self.write_epoch_s.extend(per_epoch("core.api.write"));
        self.read_epoch_s.extend(per_epoch("core.api.read"));
        self.run_epoch_s
            .extend(per_epoch("core.sim_exec.run_epoch"));
        let timed_writes = || {
            s.spans
                .iter()
                .filter(|x| x.name == "core.api.write" && x.epoch >= cold_epochs)
        };
        self.write_call_s
            .extend(timed_writes().map(|x| seconds_of(x.duration_ns())));
        let epochs = s.epoch_ns.len().max(1);
        self.write_calls_per_epoch = timed_writes().count() as f64 / epochs as f64;
        if self.accounts.len() <= 2 {
            // span ids are positions in the file's list
            let base = self.kept.len();
            self.kept.extend(s.spans.iter().map(|x| Span {
                parent: x.parent.map(|p| p + base),
                ..x.clone()
            }));
        }
    }

    fn median_of(&self, f: impl Fn(&Account) -> u64) -> f64 {
        median(
            &self
                .accounts
                .iter()
                .map(|a| seconds_of(f(a)))
                .collect::<Vec<_>>(),
        )
    }

    fn report(&self, m: &mut Metrics) {
        let med = |v: &[f64]| if v.is_empty() { 0.0 } else { median(v) };
        m.set(
            "core.api.build_s",
            self.median_of(|a| a.get("core.api.build")),
        );
        m.set(
            "core.api.finalize_s",
            self.median_of(|a| a.get("core.api.finalize")),
        );
        m.set(
            "core.api.unattributed_s",
            self.median_of(|a| a.unattributed_ns),
        );
        m.set(
            "mpi.comm.barrier_wait_s",
            self.median_of(|a| a.get(BARRIER_SPAN)),
        );
        m.set("core.api.write_s", med(&self.write_epoch_s));
        m.set("core.api.read_s", med(&self.read_epoch_s));
        m.set("core.api.write_calls", self.write_calls_per_epoch);
        if !self.write_call_s.is_empty() {
            m.set(
                "core.api.write_p90_s",
                tail_percentile(&self.write_call_s).1,
            );
        }
        m.set(
            "core.sim_exec.build_s",
            self.median_of(|a| a.get("core.sim_exec.build")),
        );
        m.set("core.sim_exec.run_epoch_s", med(&self.run_epoch_s));
        let coverage: Vec<f64> = self.accounts.iter().map(Account::coverage).collect();
        m.set("bench.span_coverage", median(&coverage));
        m.set("bench.traced_sessions", self.accounts.len() as f64);

        let a = self.accounts.last().expect("a traced session");
        let parts: Vec<String> = a
            .by_name
            .iter()
            .map(|(n, ns)| format!("{n} {:.6}", seconds_of(*ns)))
            .collect();
        eprintln!(
            "session account (last traced session, slowest rank): {} + unattributed {:.6} = session_s {:.6}; spans cover {:.1}%{}",
            parts.join(" + "),
            seconds_of(a.unattributed_ns),
            seconds_of(a.session_ns),
            100.0 * a.coverage(),
            if a.coverage() < 0.9 { "  (below 90%)" } else { "" },
        );
    }
}

fn write_span_file(path: &Path, workload: &str, seed: u64, spans: &[Span]) -> std::io::Result<()> {
    use std::io::Write as _;
    let mut w = std::io::BufWriter::new(std::fs::File::create(path)?);
    writeln!(
        w,
        "{{\"workload\": \"{workload}\", \"seed\": {seed}, \"spans\": ["
    )?;
    for (id, s) in spans.iter().enumerate() {
        let rank = if s.rank == span::DRIVER {
            -1.0
        } else {
            f64::from(s.rank)
        };
        let line = Json::obj([
            ("id", Json::Num(id as f64)),
            ("name", Json::Str(s.name.into())),
            ("start_ns", Json::Num(s.start_ns as f64)),
            ("end_ns", Json::Num(s.end_ns as f64)),
            (
                "parent",
                s.parent.map_or(Json::Null, |p| Json::Num(p as f64)),
            ),
            ("session", Json::Num(f64::from(s.session))),
            ("rank", Json::Num(rank)),
            ("epoch", Json::Num(f64::from(s.epoch))),
        ])
        .to_line();
        writeln!(w, "{line}{}", if id + 1 < spans.len() { "," } else { "" })?;
    }
    writeln!(w, "]}}")?;
    w.flush()
}

/// Run one workload in this process.
fn run_workload(name: &str, seed: u64, seconds: f64, traced: bool, smoke: bool) -> Option<Outcome> {
    let workload = workloads::build(name, smoke)?;
    if std::env::var_os("TAPIOCA_WATCHDOG_SECS").is_none() {
        std::env::set_var("TAPIOCA_WATCHDOG_SECS", WATCHDOG_SECS);
    }
    let out_dir = sys::out_dir();
    let tmp = out_dir.join(format!("tmp-{}", std::process::id()));
    std::fs::create_dir_all(&tmp).expect("create the temporary directory under benchmark/out");
    let data = tmp.join("data.bin");

    let (ranks, epochs_per_session, bytes_per_epoch) = match &workload {
        Workload::Thread(w) => (
            w.decls.len(),
            1 + w.warm_epochs,
            w.decls.iter().flatten().map(|d| d.len).sum::<u64>(),
        ),
        Workload::Sim(w) => (
            w.spec.groups.iter().map(|g| g.ranks.len()).sum(),
            w.epochs,
            sim_run::declared_bytes(w),
        ),
    };
    eprintln!("{}", sys::environment_line(ranks, &tmp));
    eprintln!(
        "workload={name} seed={seed} seconds={seconds} trace={} smoke={smoke} ranks={ranks} epochs/session={epochs_per_session}",
        u8::from(traced)
    );

    let inputs = match &workload {
        Workload::Thread(w) => Some(ThreadInputs::generate(w, seed)),
        Workload::Sim(_) => None, // the simulator moves no payload bytes
    };
    let origin = Instant::now();
    let mut session_index = 0u32;
    let mut elapsed_bits = None;
    let mut reduction = SpanReduction::default();
    let mut run_leg = |length: Length, tracing: bool| -> Leg {
        measure(length, epochs_per_session, || {
            let sample = match &workload {
                Workload::Thread(w) => thread_exec::run_session(
                    w,
                    inputs.as_ref().expect("thread inputs"),
                    &data,
                    origin,
                    session_index,
                    tracing,
                ),
                Workload::Sim(w) => {
                    sim_run::run_session(w, origin, session_index, tracing, &mut elapsed_bits)
                }
            }?;
            session_index += 1;
            if tracing {
                let cold = u32::from(matches!(workload, Workload::Thread(_)));
                reduction.add(&sample, cold);
            }
            Ok(sample)
        })
    };
    let leg_length = |share: f64| {
        if smoke {
            Length::Sessions(1)
        } else {
            Length::Seconds(seconds * share)
        }
    };

    let mut m = Metrics::default();
    // The first sessions of a process run on cold pages and, often,
    // before the kernel has spread the rank threads over the cores (the
    // sync-bound workloads are then up to 2.4x faster): they are
    // checked, not timed.
    let (mut attempted, mut failed) = (0, 0);
    if !smoke {
        let warm_up = run_leg(Length::Seconds(WARM_UP_SECS), false);
        (attempted, failed) = (warm_up.attempted, warm_up.failed);
    }
    if !traced {
        let leg = run_leg(leg_length(1.0), false);
        attempted += leg.attempted;
        failed += leg.failed;
        if leg.sessions() > 0 {
            report_end_to_end(&leg, bytes_per_epoch, &mut m);
        }
    } else {
        let plain = run_leg(leg_length(TRACED_LEG_SHARE), false);
        let traced_leg = run_leg(leg_length(TRACED_LEG_SHARE), true);
        attempted += plain.attempted + traced_leg.attempted;
        failed += plain.failed + traced_leg.failed;
        if let (Some(_), Some(last)) = (&plain.last, &traced_leg.last) {
            let (p, v) = tail_percentile(&plain.epoch_s);
            eprintln!(
                "bench.epoch_p90_s = {v:.6} s (p{:.0} of {} epochs, tracing off)",
                100.0 * p,
                plain.epoch_s.len()
            );
            let (off, on) = (median(&plain.epoch_s), median(&traced_leg.epoch_s));
            eprintln!("epoch_s median: {off:.6} s tracing off, {on:.6} s tracing on");
            m.set("bench.epoch_p90_s", v);
            m.set("bench.epoch_samples", plain.epoch_s.len() as f64);
            m.set("trace.overhead_ratio", on / off);
            reduction.report(&mut m);
            report_counts(last, &mut m);

            let probe_budget = Duration::from_secs_f64(if smoke {
                0.2
            } else {
                seconds * (1.0 - 2.0 * TRACED_LEG_SHARE)
            });
            attempted += 1;
            match &workload {
                Workload::Thread(w) => probes::thread_probes(w, &tmp, probe_budget, &mut m),
                Workload::Sim(w) => {
                    let report = last.report.as_ref().expect("simulator report");
                    if !probes::sim_probes(w, report, probe_budget, &mut m) {
                        failed += 1;
                    }
                }
            }
            let span_file = out_dir.join(format!("trace-{name}.json"));
            match write_span_file(&span_file, name, seed, &reduction.kept) {
                Ok(()) => eprintln!(
                    "wrote {} spans to {}",
                    reduction.kept.len(),
                    span_file.display()
                ),
                Err(e) => {
                    eprintln!("FAIL: could not write {}: {e}", span_file.display());
                    failed += 1;
                }
            }
        }
    }
    let _ = std::fs::remove_dir_all(&tmp);

    for &(metric, unit) in table(traced) {
        eprintln!("{metric:<40} {:>16.9} {unit}", m.get(metric).unwrap_or(0.0));
    }
    eprintln!(
        "fail_ratio = {} ({failed} failed of {attempted} attempted)",
        failed as f64 / attempted as f64
    );
    Some(Outcome {
        attempted,
        failed,
        metrics: m,
    })
}

fn report_end_to_end(leg: &Leg, bytes_per_epoch: u64, m: &mut Metrics) {
    let epoch = median(&leg.epoch_s);
    m.set("setup_s", median(&leg.setup_s));
    m.set("epoch_s", epoch);
    m.set("session_s", median(&leg.session_s));
    // /proc counts CPU in 10 ms ticks, coarser than a short session:
    // the mean over sessions keeps the digits a per-session median drops.
    m.set(
        "cpu_s",
        leg.cpu_s.iter().sum::<f64>() / leg.cpu_s.len() as f64,
    );
    m.set("peak_rss_mib", sys::peak_rss_mib());
    let (p, tail) = tail_percentile(&leg.epoch_s);
    eprintln!(
        "{} sessions, {} timed epochs: epoch_s median {epoch:.6} s = {:.3} GiB/s, p{:.0} {tail:.6} s",
        leg.sessions(),
        leg.epoch_s.len(),
        bytes_per_epoch as f64 / (1u64 << 30) as f64 / epoch,
        100.0 * p,
    );
}

/// Counts recorded at the layer boundaries; they repeat exactly.
fn report_counts(last: &SessionSample, m: &mut Metrics) {
    if let Some(s) = &last.stats {
        m.set("core.aggregation.puts", s.puts as f64);
        m.set("core.aggregation.put_bytes", s.put_bytes as f64);
        m.set("core.aggregation.fences", s.fences as f64);
        m.set("core.aggregation.flushes", s.flushes as f64);
        m.set("core.aggregation.flush_bytes", s.flush_bytes as f64);
        m.set("core.aggregation.coalesced_puts", s.coalesced_puts as f64);
        m.set(
            "core.aggregation.coalesced_chunks",
            s.coalesced_chunks as f64,
        );
        m.set(
            "core.aggregation.staging_copy_bytes",
            s.staging_copy_bytes as f64,
        );
    }
    if let Some(r) = &last.report {
        m.set("core.sim_exec.transfers", r.transfers as f64);
        m.set("core.sim_exec.flushes", r.flushes as f64);
        m.set("core.sim_exec.sim_elapsed_s", r.elapsed);
        m.set("core.sim_exec.sim_bandwidth_gibs", r.bandwidth_gib());
    }
    // The summary walks every (flush, event) pair: one epoch's worth.
    if let Some(t) = &last.trace {
        let summary = t.summary();
        m.set("trace.events", t.len() as f64);
        m.set("trace.rounds", summary.rounds as f64);
        m.set("trace.overlap_fraction", summary.overlap_fraction);
    }
}

fn result_line(o: &Outcome, traced: bool) -> String {
    Json::obj([
        ("correct", Json::Bool(o.failed == 0)),
        ("attempted", Json::Num(o.attempted as f64)),
        ("failed", Json::Num(o.failed as f64)),
        ("metrics", o.metrics.to_json(table(traced))),
    ])
    .to_line()
}

/// Run one workload in a child process of its own (so `peak_rss_mib`
/// is the workload's) and parse its result line.
fn run_child(a: &Args, workload: &str, seed: u64, trace: bool) -> Result<Json, String> {
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let mut cmd = Command::new(exe);
    cmd.args(["--workload", workload, "--seed", &seed.to_string()])
        .args([
            "--seconds",
            &a.seconds.to_string(),
            "--trace",
            if trace { "1" } else { "0" },
        ]);
    if a.smoke {
        cmd.arg("--smoke");
    }
    let out = cmd.output().map_err(|e| format!("spawn: {e}"))?;
    let stdout = String::from_utf8_lossy(&out.stdout);
    let doc = stdout
        .lines()
        .last()
        .ok_or("no result line".to_string())
        .and_then(Json::parse);
    match doc {
        Ok(doc) if out.status.success() && doc.get("correct") == Some(&Json::Bool(true)) => Ok(doc),
        _ => Err(format!(
            "run failed ({}):\n{}",
            out.status,
            String::from_utf8_lossy(&out.stderr)
        )),
    }
}

fn metric_of(doc: &Json, name: &str) -> f64 {
    doc.get("metrics")
        .and_then(|m| m.get(name))
        .and_then(|m| m.get("value"))
        .and_then(Json::as_f64)
        .unwrap_or(f64::NAN)
}

/// `all`: every workload once, each in its own child process.
fn run_all(a: &Args) -> ExitCode {
    let mut ok = true;
    let mut rows = Vec::new();
    for (name, _) in WORKLOADS {
        match run_child(a, name, a.seed, a.trace) {
            Ok(doc) => rows.push((name, doc)),
            Err(e) => {
                eprintln!("{name}: {e}");
                ok = false;
            }
        }
    }
    print!("{:<40}", "metric");
    rows.iter().for_each(|(name, _)| print!(" {name:>18}"));
    println!();
    for &(metric, unit) in table(a.trace) {
        print!("{:<40}", format!("{metric} [{unit}]"));
        rows.iter()
            .for_each(|(_, doc)| print!(" {:>18.6}", metric_of(doc, metric)));
        println!();
    }
    print!("{:<40}", "fail_ratio [ratio]");
    for (_, doc) in &rows {
        let count = |k| doc.get(k).and_then(Json::as_f64).unwrap_or(f64::NAN);
        print!(" {:>18.6}", count("failed") / count("attempted"));
    }
    println!();
    if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

/// The bounds `BENCHMARK.json` fixes, by end-to-end metric name.
fn bounds() -> Result<Vec<(String, f64)>, String> {
    let path = sys::bench_dir().join("..").join("BENCHMARK.json");
    let text = std::fs::read_to_string(&path).map_err(|e| format!("{}: {e}", path.display()))?;
    let doc = Json::parse(&text)?;
    let list = doc
        .get("end_to_end")
        .and_then(Json::as_array)
        .ok_or("no end_to_end list")?;
    list.iter()
        .map(|m| {
            let name = m
                .get("name")
                .and_then(Json::as_str)
                .ok_or("metric without a name")?;
            let bound = m
                .get("bound")
                .and_then(Json::as_f64)
                .ok_or("metric without a bound")?;
            Ok((name.to_string(), bound))
        })
        .collect()
}

/// `repeat`: two full sets of `--runs` runs per workload (one seed per
/// run), back to back. Per end-to-end metric and workload: both
/// medians, how much worse the second is, both quartile spreads, and
/// the bound. A pairing whose spread exceeds its bound is unresolved;
/// one whose second median is worse by more than the bound has moved.
fn run_repeat(a: &Args) -> ExitCode {
    let bounds = match bounds() {
        Ok(b) => b,
        Err(e) => {
            eprintln!("cannot read the bounds: {e}");
            return ExitCode::FAILURE;
        }
    };
    let mut ok = true;
    println!(
        "{:<20} {:<14} {:>12} {:>12} {:>8} {:>8} {:>8} {:>6}  verdict",
        "workload", "metric", "median 1", "median 2", "worse", "spread1", "spread2", "bound"
    );
    for (name, _) in WORKLOADS {
        let mut sets: [Vec<Json>; 2] = [Vec::new(), Vec::new()];
        for set in &mut sets {
            for run in 0..a.runs {
                match run_child(a, name, a.seed + run as u64, false) {
                    Ok(doc) => set.push(doc),
                    Err(e) => {
                        eprintln!("{name}: {e}");
                        ok = false;
                    }
                }
            }
        }
        if sets.iter().any(Vec::is_empty) {
            continue;
        }
        for (metric, bound) in &bounds {
            let values =
                |set: &Vec<Json>| set.iter().map(|d| metric_of(d, metric)).collect::<Vec<_>>();
            let (v1, v2) = (values(&sets[0]), values(&sets[1]));
            let (m1, m2) = (median(&v1), median(&v2));
            // every end-to-end metric is better when lower
            let worse = (m2 - m1) / m1;
            let spread = |v: &[f64]| {
                if v.len() >= 2 {
                    quartile_spread(v)
                } else {
                    0.0
                }
            };
            let (s1, s2) = (spread(&v1), spread(&v2));
            // set-up time is exempt from the spread rule, not from the median rule
            let unresolved = metric != "setup_s" && s1.max(s2) > *bound;
            let verdict = if unresolved {
                "UNRESOLVED (spread exceeds the bound)"
            } else if worse > *bound {
                "MOVED (second median worse by more than the bound)"
            } else {
                "ok"
            };
            ok &= verdict == "ok";
            println!(
                "{name:<20} {metric:<14} {m1:>12.6} {m2:>12.6} {:>7.1}% {:>7.1}% {:>7.1}% {:>5.0}%  {verdict}",
                100.0 * worse, 100.0 * s1, 100.0 * s2, 100.0 * bound
            );
        }
    }
    if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("{e}\nusage: tapioca-benchmark [all|repeat] [--workload W] [--seed N] [--seconds S] [--trace 0|1] [--runs R] [--smoke]");
            return ExitCode::from(2);
        }
    };
    match (args.command.as_deref(), &args.workload) {
        (Some("all"), _) => run_all(&args),
        (Some("repeat"), _) => run_repeat(&args),
        (_, Some(name)) => {
            let Some(outcome) = run_workload(name, args.seed, args.seconds, args.trace, args.smoke)
            else {
                let names: Vec<&str> = WORKLOADS.iter().map(|(n, _)| *n).collect();
                eprintln!("unknown workload {name}; one of {}", names.join(", "));
                return ExitCode::from(2);
            };
            println!("{}", result_line(&outcome, args.trace));
            if outcome.failed == 0 {
                ExitCode::SUCCESS
            } else {
                ExitCode::FAILURE
            }
        }
        _ => {
            eprintln!("name a workload with --workload, or use `all` or `repeat`");
            ExitCode::from(2)
        }
    }
}
