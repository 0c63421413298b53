//! Processor time from `/proc`: this process's CPU time (every thread,
//! daemon included, since the daemon runs in-process) and the host's
//! steal time — the time a hypervisor ran something else while this
//! machine's virtual CPUs had work.

/// Clock ticks per second of the `/proc` counters (`USER_HZ`).
const TICKS_PER_S: f64 = 100.0;

/// CPU seconds this process has used so far (user + system, all
/// threads, living and exited); `0` where `/proc` is unavailable.
fn process_cpu_s() -> f64 {
    let Ok(stat) = std::fs::read_to_string("/proc/self/stat") else {
        return 0.0;
    };
    // Fields after the parenthesised command name start at field 3
    // (state); utime and stime are fields 14 and 15.
    let Some((_, rest)) = stat.rsplit_once(')') else {
        return 0.0;
    };
    let fields: Vec<&str> = rest.split_whitespace().collect();
    let tick = |i: usize| fields.get(i).and_then(|f| f.parse::<f64>().ok()).unwrap_or(0.0);
    (tick(11) + tick(12)) / TICKS_PER_S
}

/// Steal seconds summed over the host's CPUs so far; `0` where
/// `/proc/stat` is unavailable.
fn host_steal_s() -> f64 {
    let Ok(stat) = std::fs::read_to_string("/proc/stat") else {
        return 0.0;
    };
    let line = stat.lines().next().unwrap_or("");
    line.split_whitespace().nth(8).and_then(|f| f.parse::<f64>().ok()).unwrap_or(0.0) / TICKS_PER_S
}

/// Wall time, process CPU time and host steal over one phase of a run.
pub struct Meter {
    wall: std::time::Instant,
    cpu_s: f64,
    steal_s: f64,
}

/// What a [`Meter`] measured.
#[derive(Debug, Clone, Copy)]
pub struct Usage {
    pub wall_s: f64,
    pub cpu_s: f64,
    /// Stolen share of the host's CPU time over the phase.
    pub steal_frac: f64,
}

impl Meter {
    pub fn start() -> Meter {
        Meter { wall: std::time::Instant::now(), cpu_s: process_cpu_s(), steal_s: host_steal_s() }
    }

    pub fn stop(&self) -> Usage {
        let wall_s = self.wall.elapsed().as_secs_f64();
        let cpus = std::thread::available_parallelism().map_or(1, usize::from) as f64;
        Usage {
            wall_s,
            cpu_s: process_cpu_s() - self.cpu_s,
            steal_frac: (host_steal_s() - self.steal_s) / (cpus * wall_s),
        }
    }
}
