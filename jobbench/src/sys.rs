//! Process measurements read from `/proc`, and the host stamp printed with
//! every result.

use std::path::Path;

/// Kernel clock ticks per second of `/proc/<pid>/stat` CPU times
/// (`USER_HZ`, 100 on every Linux architecture the program builds for).
const TICKS_PER_S: f64 = 100.0;

/// Resets this process's VmHWM to its current RSS, so the next read
/// covers only what ran since. Returns whether the kernel accepted it.
pub fn reset_peak_rss() -> bool {
    std::fs::write("/proc/self/clear_refs", "5").is_ok()
}

/// This process's VmHWM in KiB.
pub fn peak_rss_kib() -> Option<u64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    line.split_whitespace().nth(1)?.parse().ok()
}

/// User plus system CPU seconds this process has used so far (all its
/// threads, not its children).
pub fn cpu_s() -> Option<f64> {
    let stat = std::fs::read_to_string("/proc/self/stat").ok()?;
    // The command name is parenthesised and may hold spaces: fields
    // are counted after its closing parenthesis, starting at `state`.
    let rest = &stat[stat.rfind(')')? + 1..];
    let fields: Vec<&str> = rest.split_whitespace().collect();
    let utime: u64 = fields.get(11)?.parse().ok()?;
    let stime: u64 = fields.get(12)?.parse().ok()?;
    Some((utime + stime) as f64 / TICKS_PER_S)
}

/// The commit of the repository at `root`, read from `.git` without
/// running git; `unknown` in a checkout that is not a repository.
pub fn git_commit(root: &Path) -> String {
    fn read(path: &Path) -> Option<String> {
        Some(std::fs::read_to_string(path).ok()?.trim().to_string())
    }
    let git = root.join(".git");
    let head = match read(&git.join("HEAD")) {
        Some(h) => h,
        None => return "unknown".to_string(),
    };
    let Some(reference) = head.strip_prefix("ref: ") else {
        return head;
    };
    if let Some(commit) = read(&git.join(reference)) {
        return commit;
    }
    read(&git.join("packed-refs"))
        .and_then(|packed| {
            packed.lines().find_map(|l| {
                let (commit, name) = l.split_once(' ')?;
                (name == reference).then(|| commit.to_string())
            })
        })
        .unwrap_or_else(|| "unknown".to_string())
}

/// Host and configuration stamp as a JSON object.
pub fn stamp(
    root: &Path,
    workload: &str,
    seed: u64,
    instance_seeds: &[u64],
    peak_reset: bool,
) -> String {
    let nproc = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1);
    let threads_env = std::env::var("SPLPG_NUM_THREADS").unwrap_or_default();
    let seeds: Vec<String> = instance_seeds.iter().map(u64::to_string).collect();
    format!(
        "{{\"stamp\": {{\"workload\": \"{workload}\", \"seed\": {seed}, \"instance_seeds\": [{}], \
         \"nproc\": {nproc}, \"effective_threads\": {}, \"SPLPG_NUM_THREADS\": \"{}\", \
         \"shm_available\": {}, \"peak_rss_reset\": {peak_reset}, \"git_commit\": \"{}\"}}}}",
        seeds.join(", "),
        splpg_par::effective_threads(),
        crate::report::escape(&threads_env),
        splpg_net::shm::shm_available(),
        crate::report::escape(&git_commit(root)),
    )
}
