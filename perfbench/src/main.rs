//! `rose-perfbench`: the repository's end-to-end and per-layer benchmark.
//!
//! ```text
//! rose-perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//!                [--spans <tsv-file>]
//! rose-perfbench all [--seed <n>] [--seconds <s>]     every workload, untraced and traced
//! rose-perfbench compare <record> <record>            refuses records from different hosts
//! rose-perfbench record                               rewrites reference.txt
//! ```
//!
//! A workload run prints its full record (host fingerprint included) and
//! then, as its last line, the result object
//! `{"correct", "attempted", "failed", "metrics"}`. See README.md.

mod adapters;
mod check;
mod host;
mod layers;
mod run;
mod spans;
mod workload;

use check::References;
use host::Fingerprint;
use run::Settings;
use std::path::PathBuf;
use std::process::{Command, ExitCode};
use workload::{Workload, DEFAULT_SEED, HELD_OUT_SEED};

/// The benchmark's own directory; scratch space lives under it.
const HOME: &str = env!("CARGO_MANIFEST_DIR");

const USAGE: &str =
    "usage: rose-perfbench --workload <mission-warm|sweep-cold> --seed <n> \
                     --seconds <s> --trace <0|1> [--spans <file>]\n       \
                     rose-perfbench all [--seed <n>] [--seconds <s>]\n       \
                     rose-perfbench compare <record-file> <record-file>\n       \
                     rose-perfbench record";

/// Parsed workload-run flags.
#[derive(Debug)]
struct Args {
    workload: Option<Workload>,
    seed: u64,
    seconds: f64,
    trace: bool,
    spans: Option<PathBuf>,
    scratch: Option<PathBuf>,
}

fn parse_args(args: &[String]) -> Result<Args, String> {
    let mut a = Args {
        workload: None,
        seed: DEFAULT_SEED,
        seconds: 10.0,
        trace: false,
        spans: None,
        scratch: None,
    };
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => {
                let v = value()?;
                a.workload = Some(Workload::parse(v).ok_or(format!("unknown workload {v:?}"))?);
            }
            "--seed" => a.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                a.seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(a.seconds > 0.0 && a.seconds <= 600.0) {
                    return Err("--seconds must be in (0, 600]".into());
                }
            }
            "--trace" => {
                a.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    v => return Err(format!("--trace takes 0 or 1, not {v:?}")),
                }
            }
            "--spans" => a.spans = Some(PathBuf::from(value()?)),
            "--scratch" => a.scratch = Some(PathBuf::from(value()?)),
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    Ok(a)
}

fn run_workload(a: &Args) -> Result<ExitCode, String> {
    let workload = a.workload.ok_or("--workload is required")?;
    let scratch = PathBuf::from(HOME).join("scratch").join(format!(
        "{}-{}-{}",
        workload.name(),
        a.seed,
        std::process::id()
    ));
    std::fs::create_dir_all(&scratch)
        .map_err(|e| format!("creating {}: {e}", scratch.display()))?;
    let s = Settings {
        workload,
        seed: a.seed,
        seconds: a.seconds,
        scratch: scratch.clone(),
    };
    let refs = References::embedded();
    let result = (|| {
        if workload == Workload::MissionWarm {
            // In a child process, so its memory does not count towards
            // this process's peak.
            run::in_child(&s, "prepare")?;
        }
        if a.trace {
            run::traced(&s, &refs)
        } else {
            run::untraced(&s, &refs)
        }
    })();
    let _ = std::fs::remove_dir_all(&scratch);
    // And the parent, unless another run is still using it.
    let _ = std::fs::remove_dir(PathBuf::from(HOME).join("scratch"));
    let out = result?;

    for note in &out.tally.notes {
        eprintln!("failed: {note}");
    }
    let host = Fingerprint::of_host();
    let (attempted, failed) = (out.tally.attempted, out.tally.failed);
    let record = host::record_line(
        workload.name(),
        a.seed,
        a.trace,
        &host,
        attempted,
        failed,
        &out.metrics,
    );
    if let Some(path) = &a.spans {
        let mut tsv = String::from("name\tstart_ns\tend_ns\tparent\tmission\n");
        for s in &out.layers.spans {
            let parent = s.parent.map_or_else(|| "-".to_string(), |p| p.to_string());
            tsv.push_str(&format!(
                "{}\t{}\t{}\t{parent}\t{}\n",
                s.name, s.start, s.end, s.mission
            ));
        }
        std::fs::write(path, tsv).map_err(|e| format!("writing {}: {e}", path.display()))?;
    }
    println!("{record}");
    println!(
        "{}",
        host::result_line(failed == 0, attempted, failed, &out.metrics)
    );
    Ok(ExitCode::SUCCESS)
}

/// Every workload, untraced then traced, each in its own process; prints
/// every metric by name with its unit.
fn run_all(a: &Args) -> Result<ExitCode, String> {
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let mut ok = true;
    println!("{:<13} {:<24} {:>16}  unit", "workload", "metric", "value");
    for w in Workload::ALL {
        for trace in ["0", "1"] {
            let out = Command::new(&exe)
                .args([
                    "--workload",
                    w.name(),
                    "--seed",
                    &a.seed.to_string(),
                    "--seconds",
                ])
                .arg(a.seconds.to_string())
                .args(["--trace", trace])
                .output()
                .map_err(|e| e.to_string())?;
            let stdout = String::from_utf8_lossy(&out.stdout);
            let record = stdout
                .lines()
                .find_map(|l| host::parse_record(l).ok())
                .ok_or_else(|| {
                    format!(
                        "{} --trace {trace}: no record\n{}",
                        w.name(),
                        String::from_utf8_lossy(&out.stderr)
                    )
                })?;
            ok &= record.failed == 0;
            println!(
                "{:<13} {:<24} {:>16}  {}/{} missions failed",
                w.name(),
                "failed",
                record.failed,
                record.failed,
                record.attempted
            );
            for (name, unit, value) in &record.metrics {
                println!("{:<13} {:<24} {:>16.4}  {unit}", w.name(), name, value);
            }
        }
    }
    Ok(if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    })
}

fn compare(paths: &[String]) -> Result<ExitCode, String> {
    let [a, b] = paths else {
        return Err("compare takes two record files".into());
    };
    let read = |p: &String| -> Result<host::Record, String> {
        let text = std::fs::read_to_string(p).map_err(|e| format!("reading {p}: {e}"))?;
        text.lines()
            .rev()
            .find_map(|l| host::parse_record(l).ok())
            .ok_or(format!("{p}: no record"))
    };
    let (ra, rb) = (read(a)?, read(b)?);
    if let Some(why) = host::incomparable(&ra, &rb) {
        eprintln!("refusing to compare: {why}");
        return Ok(ExitCode::from(2));
    }
    println!(
        "{} seed {} ({} vs {})",
        ra.workload, ra.seed, ra.host.commit, rb.host.commit
    );
    for (name, unit, va) in &ra.metrics {
        if let Some((_, _, vb)) = rb.metrics.iter().find(|m| &m.0 == name) {
            let change = if *va == 0.0 {
                0.0
            } else {
                (vb / va - 1.0) * 100.0
            };
            println!("{name:<24} {va:>14.4} {vb:>14.4} {change:>+8.2}%  {unit}");
        }
    }
    Ok(ExitCode::SUCCESS)
}

/// Flies every mission of the tuning pools and of the held-out seed's
/// pools once and rewrites `reference.txt`. Missions that run over TCP
/// are flown over TCP and in process; they must agree.
fn record_references() -> Result<ExitCode, String> {
    let mut entries = Vec::new();
    for (w, seed) in Workload::ALL
        .into_iter()
        .flat_map(|w| [(w, DEFAULT_SEED), (w, HELD_OUT_SEED)])
    {
        let missions = workload::full_pool(w, seed);
        let digests: Vec<u64> = match w {
            Workload::SweepCold => run::sweep_reference(&missions)?,
            Workload::MissionWarm => missions
                .iter()
                .map(|p| {
                    let local = check::digest(&rose::mission::run_mission(&p.config));
                    if !p.remote {
                        return Ok(local);
                    }
                    let remote = check::digest(&run::fly_tcp(&p.config)?);
                    if local == remote {
                        Ok(remote)
                    } else {
                        Err(format!(
                            "{}: TCP digest {remote:#x} differs from in-process {local:#x}",
                            p.key
                        ))
                    }
                })
                .collect::<Result<_, String>>()?,
        };
        entries.extend(missions.into_iter().map(|p| p.key).zip(digests));
    }
    let path = PathBuf::from(HOME).join("reference.txt");
    std::fs::write(&path, References::render(&entries))
        .map_err(|e| format!("writing {}: {e}", path.display()))?;
    println!("wrote {} references to {}", entries.len(), path.display());
    Ok(ExitCode::SUCCESS)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let result = match args.first().map(String::as_str) {
        Some("compare") => compare(&args[1..]),
        Some("record") => record_references(),
        Some("all") => parse_args(&args[1..]).and_then(|a| run_all(&a)),
        Some(step @ ("prepare" | "setup")) => parse_args(&args[1..]).and_then(|a| {
            let workload = a.workload.ok_or("--workload is required")?;
            let scratch = a.scratch.clone().ok_or("--scratch is required")?;
            let s = Settings {
                workload,
                seed: a.seed,
                seconds: a.seconds,
                scratch,
            };
            if step == "prepare" {
                run::prepare(&s)?;
            } else {
                println!("{}", run::setup(&s));
            }
            Ok(ExitCode::SUCCESS)
        }),
        _ => parse_args(&args).and_then(|a| run_workload(&a)),
    };
    match result {
        Ok(code) => code,
        Err(e) => {
            eprintln!("error: {e}\n{USAGE}\ndefault seed {DEFAULT_SEED}; held-out seed for gain claims {HELD_OUT_SEED}");
            ExitCode::from(2)
        }
    }
}
