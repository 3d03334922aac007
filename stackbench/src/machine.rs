//! What ran the benchmark: recorded with every result.

use std::fs;

pub struct Machine {
    pub nproc: usize,
    pub cpu_model: String,
    pub rustc: &'static str,
    pub profile: &'static str,
    pub telemetry: bool,
    pub commit: String,
}

impl Machine {
    pub fn detect() -> Self {
        Self {
            nproc: std::thread::available_parallelism().map_or(1, |n| n.get()),
            cpu_model: cpu_model(),
            rustc: env!("STACKBENCH_RUSTC"),
            profile: env!("STACKBENCH_PROFILE"),
            telemetry: telemetry_on(),
            commit: commit(),
        }
    }

    pub fn to_json(&self) -> String {
        format!(
            "{{\"nproc\":{},\"cpu_model\":{},\"rustc\":{},\"profile\":{},\"telemetry\":{},\"commit\":{}}}",
            self.nproc,
            json_str(&self.cpu_model),
            json_str(self.rustc),
            json_str(self.profile),
            self.telemetry,
            json_str(&self.commit)
        )
    }
}

pub fn json_str(s: &str) -> String {
    let mut out = String::from("\"");
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

fn cpu_model() -> String {
    fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|info| {
            info.lines()
                .find(|l| l.starts_with("model name"))
                .and_then(|l| l.split(':').nth(1))
                .map(|m| m.trim().to_string())
        })
        .unwrap_or_else(|| "unknown".into())
}

/// Whether the program was built with its `telemetry` feature: only then
/// does a registry keep what is added to it.
fn telemetry_on() -> bool {
    let reg = ashn::telemetry::Registry::new();
    reg.add("stackbench.probe", 1);
    reg.snapshot().counter("stackbench.probe") == Some(1)
}

/// The commit of the working directory's git checkout, read from `.git`
/// without running git; `unknown` outside a checkout.
fn commit() -> String {
    let head = match fs::read_to_string(".git/HEAD") {
        Ok(head) => head.trim().to_string(),
        Err(_) => return "unknown".into(),
    };
    let Some(reference) = head.strip_prefix("ref: ") else {
        return head;
    };
    if let Ok(hash) = fs::read_to_string(format!(".git/{reference}")) {
        return hash.trim().to_string();
    }
    fs::read_to_string(".git/packed-refs")
        .ok()
        .and_then(|packed| {
            packed.lines().find_map(|l| {
                let (hash, name) = l.split_once(' ')?;
                (name == reference).then(|| hash.to_string())
            })
        })
        .unwrap_or_else(|| "unknown".into())
}

/// Peak resident set size of this process, MiB.
pub fn peak_rss_mb() -> f64 {
    fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|status| {
            status
                .lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|kb| kb.parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}
