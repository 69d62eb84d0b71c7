//! Sample statistics and the result records the benchmark prints.

use std::collections::BTreeMap;
use std::fmt::Write as _;

/// Nearest-rank percentile of an unsorted sample (the workspace's one
/// percentile definition, `gcnp_obs::percentile`).
pub fn percentile(samples: &[f64], p: f64) -> f64 {
    let mut v = samples.to_vec();
    v.sort_by(f64::total_cmp);
    gcnp_obs::percentile(&v, p)
}

pub fn median(samples: &[f64]) -> f64 {
    percentile(samples, 0.5)
}

pub fn mean(samples: &[f64]) -> f64 {
    if samples.is_empty() {
        0.0
    } else {
        samples.iter().sum::<f64>() / samples.len() as f64
    }
}

/// Metric name → (value, unit) over a fixed list of names, printed in name
/// order. Every listed metric starts at 0 (a layer the workload bypasses).
pub struct Metrics(BTreeMap<String, (f64, &'static str)>);

impl Metrics {
    pub fn new<S: AsRef<str>>(names: &[(S, &'static str)]) -> Self {
        Self(
            names
                .iter()
                .map(|(n, u)| (n.as_ref().to_string(), (0.0, *u)))
                .collect(),
        )
    }

    /// Set a listed metric; an unlisted name is a bug in the benchmark.
    pub fn set(&mut self, name: &str, value: f64) {
        match self.0.get_mut(name) {
            Some(slot) => slot.0 = value,
            None => panic!("metric {name} is not in the benchmark's list"),
        }
    }

    pub fn get(&self, name: &str) -> f64 {
        self.0.get(name).map_or(0.0, |v| v.0)
    }

    /// Every value must be a finite number before it is printed.
    pub fn check_finite(&self) -> Result<(), String> {
        match self.0.iter().find(|(_, (v, _))| !v.is_finite()) {
            Some((name, (v, _))) => Err(format!("metric {name} is not finite: {v}")),
            None => Ok(()),
        }
    }

    pub fn to_json(&self) -> String {
        let mut s = String::from("{");
        for (i, (name, (value, unit))) in self.0.iter().enumerate() {
            if i > 0 {
                s.push_str(", ");
            }
            let _ = write!(
                s,
                "\"{name}\": {{\"value\": {}, \"unit\": \"{unit}\"}}",
                num(*value)
            );
        }
        s.push('}');
        s
    }
}

/// A finite f64 as a JSON number with every digit of its shortest
/// round-trip representation.
pub fn num(v: f64) -> String {
    if v == v.trunc() && v.abs() < 1e15 {
        format!("{v:.1}")
    } else {
        format!("{v}")
    }
}

/// Escape a string for a JSON string literal.
pub fn json_str(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// Request accounting of one run: every attempted operation either
/// succeeded or failed.
#[derive(Default, Clone, Copy)]
pub struct Tally {
    pub attempted: u64,
    pub failed: u64,
}

impl Tally {
    pub fn add(&mut self, attempted: u64, failed: u64) {
        self.attempted += attempted;
        self.failed += failed;
    }
}

/// Peak resident set size of this process in MB (`VmHWM`).
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|kb| kb.parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}
