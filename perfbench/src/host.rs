//! Result records: the host fingerprint every record carries, the JSON
//! they are written in, and the refusal to compare records from
//! different hosts.

use crate::run::Metric;
use rose_trace::json::{self, Json};
use std::fmt::Write as _;
use std::process::Command;

/// Tag of the record format.
pub const RECORD: &str = "rose-perfbench-v1";

/// Where a result was measured. Records compare only when their host
/// fields match; the commit is what a comparison is about, so it may
/// differ.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Fingerprint {
    /// Logical CPUs available to the process.
    pub nproc: usize,
    /// `model name` of the first CPU in `/proc/cpuinfo`.
    pub cpu_model: String,
    /// The compiler that built the benchmark.
    pub rustc: String,
    /// The git commit of the working directory, or `unknown` when it is
    /// not the root of a git work tree.
    pub commit: String,
}

impl Fingerprint {
    /// The fingerprint of this process's host.
    pub fn of_host() -> Fingerprint {
        let cpuinfo = std::fs::read_to_string("/proc/cpuinfo").unwrap_or_default();
        let cpu_model = cpuinfo
            .lines()
            .find(|l| l.starts_with("model name"))
            .and_then(|l| l.split_once(':'))
            .map_or("unknown", |(_, v)| v.trim())
            .to_string();
        // Only the working directory's own `.git`: a checkout that is not a
        // git work tree reports `unknown` instead of a parent's commit.
        let commit = Command::new("git")
            .args(["--git-dir", ".git", "rev-parse", "HEAD"])
            .output()
            .ok()
            .filter(|o| o.status.success())
            .map_or_else(
                || "unknown".to_string(),
                |o| String::from_utf8_lossy(&o.stdout).trim().to_string(),
            );
        Fingerprint {
            nproc: std::thread::available_parallelism().map_or(1, |n| n.get()),
            cpu_model,
            rustc: env!("PERFBENCH_RUSTC_VERSION").to_string(),
            commit,
        }
    }
}

/// One run's full record.
#[derive(Debug, Clone, PartialEq)]
pub struct Record {
    /// The workload's name.
    pub workload: String,
    /// The workload seed.
    pub seed: u64,
    /// Whether this was the traced run.
    pub trace: bool,
    /// Where it ran.
    pub host: Fingerprint,
    /// Missions attempted.
    pub attempted: u64,
    /// Missions failed.
    pub failed: u64,
    /// `(name, unit, value)` of every metric.
    pub metrics: Vec<(String, String, f64)>,
}

fn quote(s: &str) -> String {
    let mut out = String::from("\"");
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// A finite number with every digit Rust prints for it.
fn number(v: f64) -> String {
    if v.is_finite() {
        format!("{v:?}")
    } else {
        "0.0".to_string()
    }
}

/// `{"name": {"value": v, "unit": u}, ...}`.
fn metrics_json(metrics: &[Metric]) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|m| {
            format!(
                "{}: {{\"value\": {}, \"unit\": {}}}",
                quote(m.name),
                number(m.value),
                quote(m.unit)
            )
        })
        .collect();
    format!("{{{}}}", body.join(", "))
}

/// The result line the benchmark ends its output with.
pub fn result_line(correct: bool, attempted: u64, failed: u64, metrics: &[Metric]) -> String {
    format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {}}}",
        metrics_json(metrics)
    )
}

/// The full record line, host fingerprint included.
pub fn record_line(
    workload: &str,
    seed: u64,
    trace: bool,
    host: &Fingerprint,
    attempted: u64,
    failed: u64,
    metrics: &[Metric],
) -> String {
    format!(
        "{{\"record\": {}, \"workload\": {}, \"seed\": {seed}, \"trace\": {trace}, \"host\": {{\"nproc\": {}, \
         \"cpu_model\": {}, \"rustc\": {}, \"commit\": {}}}, \"attempted\": {attempted}, \"failed\": {failed}, \
         \"metrics\": {}}}",
        quote(RECORD),
        quote(workload),
        host.nproc,
        quote(&host.cpu_model),
        quote(&host.rustc),
        quote(&host.commit),
        metrics_json(metrics)
    )
}

/// Parses a record line.
///
/// # Errors
///
/// A description of what is missing or malformed.
pub fn parse_record(line: &str) -> Result<Record, String> {
    let v = json::parse(line).map_err(|e| format!("not JSON: {e:?}"))?;
    if v.get("record").and_then(Json::as_str) != Some(RECORD) {
        return Err(format!("not a {RECORD} record"));
    }
    let text = |j: &Json, k: &str| {
        j.get(k)
            .and_then(Json::as_str)
            .map(str::to_string)
            .ok_or(format!("no {k}"))
    };
    let num = |j: &Json, k: &str| j.get(k).and_then(Json::as_f64).ok_or(format!("no {k}"));
    let host = v.get("host").ok_or("no host")?;
    let mut metrics = Vec::new();
    if let Some(Json::Object(map)) = v.get("metrics") {
        for (name, m) in map {
            metrics.push((name.clone(), text(m, "unit")?, num(m, "value")?));
        }
    }
    Ok(Record {
        workload: text(&v, "workload")?,
        seed: num(&v, "seed")? as u64,
        trace: matches!(v.get("trace"), Some(Json::Bool(true))),
        host: Fingerprint {
            nproc: num(host, "nproc")? as usize,
            cpu_model: text(host, "cpu_model")?,
            rustc: text(host, "rustc")?,
            commit: text(host, "commit")?,
        },
        attempted: num(&v, "attempted")? as u64,
        failed: num(&v, "failed")? as u64,
        metrics,
    })
}

/// Why two records must not be compared, if they must not.
pub fn incomparable(a: &Record, b: &Record) -> Option<String> {
    let pairs = [
        ("nproc", a.host.nproc.to_string(), b.host.nproc.to_string()),
        (
            "cpu_model",
            a.host.cpu_model.clone(),
            b.host.cpu_model.clone(),
        ),
        ("rustc", a.host.rustc.clone(), b.host.rustc.clone()),
        ("workload", a.workload.clone(), b.workload.clone()),
        ("seed", a.seed.to_string(), b.seed.to_string()),
        ("trace", a.trace.to_string(), b.trace.to_string()),
    ];
    pairs
        .into_iter()
        .find(|(_, x, y)| x != y)
        .map(|(field, x, y)| format!("records differ in {field}: {x:?} vs {y:?}"))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn host() -> Fingerprint {
        Fingerprint {
            nproc: 2,
            cpu_model: "Some \"CPU\" @ 2GHz".into(),
            rustc: "rustc 1.0".into(),
            commit: "abc".into(),
        }
    }

    #[test]
    fn records_round_trip_through_json() {
        let metrics = [Metric {
            name: "sim_rate",
            unit: "sim-s/s",
            value: 123.456789,
        }];
        let line = record_line("mission-warm", 7, false, &host(), 10, 1, &metrics);
        let r = parse_record(&line).unwrap();
        assert_eq!(r.host, host());
        assert_eq!(
            (r.workload.as_str(), r.seed, r.trace, r.attempted, r.failed),
            ("mission-warm", 7, false, 10, 1)
        );
        assert_eq!(
            r.metrics,
            vec![("sim_rate".to_string(), "sim-s/s".to_string(), 123.456789)]
        );
        let result = json::parse(&result_line(true, 10, 0, &metrics)).unwrap();
        assert!(result
            .get("metrics")
            .and_then(|m| m.get("sim_rate"))
            .is_some());
    }

    #[test]
    fn records_from_different_hosts_are_refused() {
        let a = parse_record(&record_line("w", 1, false, &host(), 1, 0, &[])).unwrap();
        let mut b = a.clone();
        b.host.commit = "def".into();
        assert_eq!(
            incomparable(&a, &b),
            None,
            "commits are what a comparison compares"
        );
        b.host.cpu_model = "Other".into();
        assert!(incomparable(&a, &b).unwrap().contains("cpu_model"));
        let mut c = a.clone();
        c.host.nproc = 4;
        assert!(incomparable(&a, &c).unwrap().contains("nproc"));
        let mut d = a.clone();
        d.seed = 2;
        assert!(incomparable(&a, &d).unwrap().contains("seed"));
    }
}
