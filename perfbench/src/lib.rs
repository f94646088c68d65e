//! Wall-clock campaign benchmark for necofuzz.
//!
//! One command runs one workload for a fixed number of wall seconds and
//! prints, as its last stdout line, a JSON object with `correct`,
//! `attempted`, `failed` and `metrics`:
//!
//! ```text
//! bash perfbench/run.sh --workload solo-unguided --seed 1 --seconds 30 --trace 0
//! ```
//!
//! With `--trace 0` the metrics are the end-to-end figures a user of the
//! fuzzer sees (execs/s, set-up time, peak RSS, success rate, coverage,
//! coverage AUC). With `--trace 1` a replica of the campaign loop
//! built from the layers' public calls times every call and reports
//! per-layer self time, counts and allocation counts, after checking
//! that it reproduces the untraced result exactly.
//!
//! Every run checks its outputs; any failed check prints
//! `"correct": false` and exits 1. Workloads, metric meanings and the
//! measured noise are documented in `perfbench/NOTES.md`.

mod trace;
mod workload;

pub use trace::ALLOC_EVENTS;

use std::fmt::Write as _;
use std::time::Duration;

use workload::Workload;

/// Parsed command line.
struct Args {
    workload: Workload,
    seed: u64,
    seconds: Duration,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    Workload::parse(&value).ok_or_else(|| format!("unknown workload {value:?}"))?,
                )
            }
            "--seed" => seed = Some(value.parse::<u64>().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                let s = value
                    .parse::<f64>()
                    .map_err(|e| format!("--seconds: {e}"))?;
                if !(s > 0.0 && s.is_finite()) {
                    return Err("--seconds must be positive".into());
                }
                seconds = Some(Duration::from_secs_f64(s));
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".into()),
                })
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.ok_or("--trace is required")?,
    })
}

/// One metric of the result line.
pub struct Metric {
    pub name: String,
    pub value: f64,
    pub unit: &'static str,
}

impl Metric {
    pub fn new(name: impl Into<String>, value: f64, unit: &'static str) -> Metric {
        Metric {
            name: name.into(),
            value,
            unit,
        }
    }
}

/// The outcome of one benchmark run.
pub struct Report {
    /// Human-readable descriptions of failed correctness checks.
    pub errors: Vec<String>,
    /// Operations attempted: executions plus checkpoint writes.
    pub attempted: u64,
    /// Operations that failed (see `NOTES.md` for what counts).
    pub failed: u64,
    pub metrics: Vec<Metric>,
}

impl Report {
    fn json(&self) -> String {
        let mut out = format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
            self.errors.is_empty(),
            self.attempted.max(1),
            self.failed
        );
        for (i, m) in self.metrics.iter().enumerate() {
            let value = if m.value.is_finite() { m.value } else { 0.0 };
            let sep = if i == 0 { "" } else { ", " };
            let _ = write!(
                out,
                "{sep}\"{}\": {{\"value\": {value:?}, \"unit\": \"{}\"}}",
                m.name, m.unit
            );
        }
        out.push_str("}}");
        out
    }
}

/// Entry point shared by both binaries; `traced` says which one this
/// is. Returns the process exit code.
pub fn main(traced: bool) -> i32 {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!(
                "perfbench: {e}\nusage: perfbench --workload {} --seed N --seconds S --trace 0|1",
                Workload::ALL.map(Workload::name).join("|")
            );
            return 2;
        }
    };
    if args.trace != traced {
        eprintln!(
            "perfbench: --trace {} needs the {} binary (run through perfbench/run.sh)",
            u8::from(args.trace),
            if args.trace {
                "perfbench_traced"
            } else {
                "perfbench"
            }
        );
        return 2;
    }
    let inputs = match workload::Inputs::prepare(args.workload, args.seed) {
        Ok(i) => i,
        Err(e) => {
            eprintln!("perfbench: preparing {} inputs: {e}", args.workload.name());
            return 1;
        }
    };
    let report = if args.trace {
        trace::run(&inputs, args.seconds)
    } else {
        workload::run(&inputs, args.seconds)
    };
    inputs.remove();
    for e in &report.errors {
        eprintln!("perfbench: CHECK FAILED: {e}");
    }
    println!("{}", report.json());
    if report.errors.is_empty() {
        0
    } else {
        1
    }
}

/// Median of `values` (0 when empty).
pub fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    match v.len() {
        0 => 0.0,
        n if n % 2 == 1 => v[n / 2],
        n => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}
