//! The host and build stamp printed with every result, and the process's
//! peak resident set and thread count.

/// What a result was measured on and with.
#[derive(Debug, Clone)]
pub struct Stamp {
    /// Logical CPUs available to the process.
    pub nproc: usize,
    /// CPU model from `/proc/cpuinfo`.
    pub cpu: String,
    /// `rustc -V` of the build.
    pub rustc: &'static str,
    /// Cargo profile of the build.
    pub profile: &'static str,
    /// Git commit of the source tree, `none` for a plain export.
    pub commit: &'static str,
}

impl Stamp {
    /// Reads the host.
    #[must_use]
    pub fn read() -> Self {
        let cpu = std::fs::read_to_string("/proc/cpuinfo")
            .ok()
            .and_then(|s| {
                s.lines()
                    .find(|l| l.starts_with("model name"))
                    .and_then(|l| l.split_once(':'))
                    .map(|(_, v)| v.trim().to_owned())
            })
            .unwrap_or_else(|| "unknown".into());
        Self {
            nproc: nproc(),
            cpu,
            rustc: env!("PERFBENCH_RUSTC"),
            profile: env!("PERFBENCH_PROFILE"),
            commit: env!("PERFBENCH_COMMIT"),
        }
    }
}

/// Logical CPUs available to the process (at least 1).
#[must_use]
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get)
}

/// Peak resident set (`VmHWM`) of this process in MiB; 0 where the
/// kernel does not report it.
#[must_use]
pub fn peak_rss_mib() -> f64 {
    proc_status("VmHWM:").map_or(0.0, |kib| kib / 1024.0)
}

/// Threads of this process; 1 where the kernel does not report it.
#[must_use]
pub fn threads_alive() -> usize {
    proc_status("Threads:").map_or(1, |n| n as usize)
}

/// The number on the `/proc/self/status` line starting with `key`,
/// without its `kB` unit.
fn proc_status(key: &str) -> Option<f64> {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix(key))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
        })
}
