//! Small std-only helpers: a seeded PRNG, order statistics, bill digests,
//! peak memory, CPU pinning and the host block.

use hpcgrid::prelude::Bill;
use serde_json::{json, Value};

/// SplitMix64 step: the seed-to-input mixer every workload derives its
/// inputs from.
pub fn mix(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// A deterministic stream of pseudo-random numbers.
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Rng {
        Rng(mix(seed))
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        mix(self.0)
    }

    /// Uniform in `[0, n)`.
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }

    /// Uniform in `[lo, hi)`, rounded to 4 decimals so specs stay readable.
    pub fn range(&mut self, lo: f64, hi: f64) -> f64 {
        let u = (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64;
        ((lo + u * (hi - lo)) * 1e4).round() / 1e4
    }

    pub fn pick<T: Copy>(&mut self, items: &[T]) -> T {
        items[self.below(items.len())]
    }
}

/// Linear-interpolated quantile of unsorted samples (`q` in `[0, 1]`).
pub fn quantile(samples: &[f64], q: f64) -> f64 {
    if samples.is_empty() {
        return f64::NAN;
    }
    let mut v = samples.to_vec();
    v.sort_by(f64::total_cmp);
    let pos = q * (v.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    v[lo] + (v[hi] - v[lo]) * (pos - lo as f64)
}

pub fn median(samples: &[f64]) -> f64 {
    quantile(samples, 0.5)
}

/// A bill's exact content as comparable bits: contract name, then each
/// line item's label and amount bit pattern.
pub fn bill_bits(bill: &Bill) -> Vec<(String, u64)> {
    let mut out = vec![(bill.contract.clone(), 0)];
    out.extend(
        bill.items
            .iter()
            .map(|i| (i.label.clone(), i.amount.as_dollars().to_bits())),
    );
    out
}

/// FNV-1a over a bill's amount bits — the per-item term of an
/// order-insensitive digest (terms are combined with wrapping addition).
pub fn bill_hash(bill: &Bill) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for item in &bill.items {
        for b in item.amount.as_dollars().to_bits().to_le_bytes() {
            h = (h ^ b as u64).wrapping_mul(0x0100_0000_01b3);
        }
    }
    mix(h ^ bill.items.len() as u64)
}

/// Peak resident set size of this process, in MB (`VmHWM`).
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|kb| kb.parse::<f64>().ok())
        })
        .map_or(f64::NAN, |kb| kb / 1024.0)
}

/// Online CPUs of the machine, whatever this process may run on.
pub fn machine_cpus() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// Restrict this process to the CPU it is running on. Threads started
/// afterwards inherit the mask, so every layer's default worker count
/// (`available_parallelism`) becomes 1.
pub fn pin_to_one_cpu() -> Result<(), String> {
    extern "C" {
        fn sched_getcpu() -> i32;
        fn sched_setaffinity(pid: i32, cpusetsize: usize, mask: *const u64) -> i32;
    }
    // A `cpu_set_t` of 1024 bits.
    let mut mask = [0u64; 16];
    // SAFETY: `sched_getcpu` takes no arguments and only reads state.
    let cpu = unsafe { sched_getcpu() };
    let cpu = usize::try_from(cpu)
        .ok()
        .filter(|&c| c < mask.len() * 64)
        .ok_or_else(|| format!("sched_getcpu returned {cpu}"))?;
    mask[cpu / 64] |= 1 << (cpu % 64);
    // SAFETY: `mask` is a live, correctly sized CPU set for the duration of
    // the call; pid 0 is the calling thread.
    let rc = unsafe { sched_setaffinity(0, std::mem::size_of_val(&mask), mask.as_ptr()) };
    if rc != 0 {
        return Err(format!(
            "sched_setaffinity: {}",
            std::io::Error::last_os_error()
        ));
    }
    match machine_cpus() {
        1 => Ok(()),
        n => Err(format!("still {n} CPUs available after pinning")),
    }
}

/// The machine and build a result was measured on. `nproc` is the
/// machine's CPU count before pinning; `cpus_used` the count the run used.
pub fn host_block(seed: u64, nproc: usize) -> Value {
    let cpu = std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("model name"))
                .and_then(|l| l.split_once(':'))
                .map(|(_, m)| m.trim().to_string())
        })
        .unwrap_or_else(|| "unknown".into());
    json!({
        "nproc": nproc,
        "cpus_used": machine_cpus(),
        "cpu_model": cpu,
        "rustc": env!("PERFBENCH_RUSTC"),
        "profile": env!("PERFBENCH_PROFILE"),
        "seed": seed,
    })
}
