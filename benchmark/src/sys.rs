//! What the benchmark reads from the operating system: CPU time and
//! peak memory of this process, and the environment line of a run.

use std::path::{Path, PathBuf};
use std::process::Command;

/// Kernel clock ticks per second in `/proc/self/stat`. `sysconf` is not
/// reachable from std; USER_HZ is 100 on every Linux the repo targets.
const CLK_TCK: f64 = 100.0;

/// User + system CPU seconds consumed so far by this process, all
/// threads included.
pub fn cpu_seconds() -> f64 {
    let stat = std::fs::read_to_string("/proc/self/stat").unwrap_or_default();
    // The command name (field 2) may hold spaces; fields are counted
    // from the closing parenthesis: utime and stime are fields 14, 15.
    let after = stat.rsplit_once(") ").map_or("", |(_, rest)| rest);
    let mut fields = after.split_ascii_whitespace().skip(11);
    let mut tick = || {
        fields
            .next()
            .and_then(|f| f.parse::<f64>().ok())
            .unwrap_or(0.0)
    };
    (tick() + tick()) / CLK_TCK
}

/// Peak resident set size (`VmHWM`) of this process in MiB.
pub fn peak_rss_mib() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, usize::from)
}

/// The benchmark's own directory: `benchmark/` under the current
/// directory when run from a checkout's root (how the driver runs it),
/// else where the package was built.
pub fn bench_dir() -> PathBuf {
    let here = Path::new("benchmark");
    if here.join("Cargo.toml").is_file() {
        here.to_path_buf()
    } else {
        PathBuf::from(env!("CARGO_MANIFEST_DIR"))
    }
}

/// Where span files and temporary data files go (`benchmark/out`,
/// ignored by git, inside the checkout).
pub fn out_dir() -> PathBuf {
    bench_dir().join("out")
}

fn first_line_of(cmd: &mut Command) -> Option<String> {
    let out = cmd.output().ok().filter(|o| o.status.success())?;
    Some(
        String::from_utf8_lossy(&out.stdout)
            .lines()
            .next()?
            .trim()
            .to_string(),
    )
}

/// Filesystem type holding `path`, from the longest matching mount
/// point in `/proc/mounts`.
fn filesystem_of(path: &Path) -> String {
    let abs = std::fs::canonicalize(path).unwrap_or_else(|_| path.to_path_buf());
    let mounts = std::fs::read_to_string("/proc/mounts").unwrap_or_default();
    mounts
        .lines()
        .filter_map(|l| {
            let mut f = l.split_ascii_whitespace();
            let (_, mount, fstype) = (f.next()?, f.next()?, f.next()?);
            abs.starts_with(mount)
                .then(|| (mount.len(), fstype.to_string()))
        })
        .max()
        .map_or_else(|| "unknown".into(), |(_, t)| t)
}

/// `commit=… rustc=… nproc=… ranks/nproc=… tmpfs=…` — printed by every
/// run so a number can be traced to the box that produced it.
pub fn environment_line(ranks: usize, tmp: &Path) -> String {
    let commit = first_line_of(Command::new("git").args(["rev-parse", "--short", "HEAD"]))
        .unwrap_or_else(|| "unknown".into());
    let rustc =
        first_line_of(Command::new("rustc").arg("--version")).unwrap_or_else(|| "unknown".into());
    let cores = nproc();
    format!(
        "env: commit={commit} rustc=\"{rustc}\" nproc={cores} ranks/nproc={:.1} temp_fs={}",
        ranks as f64 / cores as f64,
        filesystem_of(tmp),
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn proc_readers_return_plausible_values() {
        assert!(cpu_seconds() >= 0.0);
        assert!(peak_rss_mib() > 0.5, "a running process has resident pages");
        assert!(nproc() >= 1);
    }
}
