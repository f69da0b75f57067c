//! What a result depends on besides the code: the machine's thread count,
//! the SIMD tier the kernels dispatched to, the compiler, and the revision.

use std::path::Path;

/// The stamp printed with every result. Two results are comparable only
/// when their `nproc` and `simd` agree (see `compare.py`).
pub struct Stamp {
    pub workload: String,
    pub seed: u64,
    pub trace: bool,
    pub nproc: usize,
    pub simd: &'static str,
    pub rustc: &'static str,
    pub git_rev: String,
}

impl Stamp {
    pub fn new(workload: &str, seed: u64, trace: bool) -> Stamp {
        Stamp {
            workload: workload.to_string(),
            seed,
            trace,
            nproc: std::thread::available_parallelism().map_or(1, |n| n.get()),
            simd: gpu_sim::simd::active_tier().label(),
            rustc: env!("PERFBENCH_RUSTC_VERSION"),
            git_rev: git_rev(Path::new(".")),
        }
    }

    pub fn json(&self) -> String {
        format!(
            "{{\"workload\": {}, \"seed\": {}, \"trace\": {}, \"nproc\": {}, \"simd\": {}, \"rustc\": {}, \"git_rev\": {}}}",
            json_str(&self.workload),
            self.seed,
            u8::from(self.trace),
            self.nproc,
            json_str(self.simd),
            json_str(self.rustc),
            json_str(&self.git_rev),
        )
    }
}

/// A JSON string literal.
pub fn json_str(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// The commit checked out at `root`, read from `.git` without running git;
/// `"unknown"` outside a git checkout.
fn git_rev(root: &Path) -> String {
    let git = root.join(".git");
    let read = |p: &Path| {
        std::fs::read_to_string(p)
            .ok()
            .map(|s| s.trim().to_string())
    };
    let Some(head) = read(&git.join("HEAD")) else {
        return "unknown".to_string();
    };
    let Some(reference) = head.strip_prefix("ref: ") else {
        return head;
    };
    if let Some(rev) = read(&git.join(reference)) {
        return rev;
    }
    read(&git.join("packed-refs"))
        .and_then(|packed| {
            packed.lines().find_map(|line| {
                let (rev, name) = line.split_once(' ')?;
                (name == reference).then(|| rev.to_string())
            })
        })
        .unwrap_or_else(|| "unknown".to_string())
}

/// Peak resident set size of this process so far (`VmHWM`), in MiB.
pub fn rss_peak_mb() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status")
        .map_err(|e| format!("reading the process status: {e}"))?;
    status
        .lines()
        .find_map(|line| line.strip_prefix("VmHWM:"))
        .and_then(|rest| {
            rest.trim()
                .trim_end_matches("kB")
                .trim()
                .parse::<f64>()
                .ok()
        })
        .map(|kb| kb / 1024.0)
        .ok_or_else(|| "the process status has no VmHWM line".to_string())
}
