//! The three workloads, their seeded inputs, and the untraced
//! end-to-end runs.
//!
//! Each workload drives the same public entry points the `necofuzz`
//! CLI calls, single-threaded and closed-loop (every execution starts
//! when the previous one ends):
//!
//! - `solo-unguided`: `Campaign::new` + `run_hours` on vkvm/Intel with
//!   the shipped default configuration;
//! - `fleet-diff-amd`: `run_campaign_group` over a four-member async
//!   tree-sync group on vxen/AMD with the differential oracle;
//! - `ckpt-resume`: `Campaign::resume_from_checkpoint` +
//!   `set_checkpoint` on vvbox/Intel, resuming a 24-hour checkpoint the
//!   benchmark writes before timing.
//!
//! A run repeats its workload until `--seconds` have passed. Every
//! repetition uses the same seed, so every repetition's semantic
//! `CampaignResult`s must equal the first one's.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::PathBuf;
use std::time::{Duration, Instant};

use necofuzz::campaign::{run_campaign_group, Campaign, CampaignConfig, CampaignResult, HvFactory};
use necofuzz::differential::{backend_factory, OracleMode};
use necofuzz::read_checkpoint;
use nf_fuzz::{Mode, MutationStrategy, SyncMode, SyncTopology};
use nf_x86::CpuVendor;

use crate::{median, Metric, Report};

/// `solo-unguided`: virtual hours (the paper's Table 2 length) and the
/// execution rate per hour.
pub const SOLO_HOURS: u32 = 48;
pub const SOLO_EXECS_PER_HOUR: u32 = 2000;
/// `fleet-diff-amd`: group size, virtual hours, execution rate.
pub const FLEET_MEMBERS: u64 = 4;
pub const FLEET_HOURS: u32 = 24;
pub const FLEET_EXECS_PER_HOUR: u32 = 1000;
/// `ckpt-resume`: total virtual hours, the hour of the checkpoint the
/// timed run resumes from, the execution rate, and the checkpoint
/// interval (virtual hours). A checkpoint of this corpus is tens of
/// thousands of small-write syscalls on an ext4 work directory and
/// costs 1-110 ms as the host's syscall cost drifts. With the CLI
/// defaults (250 execs/hour, every hour) that is 60-85% of the wall
/// time; at 2000/h and every hour it was 25-40%, and at 8000/h every
/// hour up to 20%, and in both the drift alone moved `execs_per_s`
/// between runs of the same code by more than a third of its bound.
/// At 8000/h every third hour it is 2-8%. Twelve resumed hours
/// keep a repetition at 96k execs, like the other workloads.
pub const CKPT_HOURS: u32 = 36;
pub const CKPT_FROM_HOUR: u32 = 24;
pub const CKPT_EXECS_PER_HOUR: u32 = 8000;
pub const CKPT_INTERVAL: u32 = 3;
/// Set-up is repeated this many times per repetition; `setup_s` is the
/// median over all of a run's samples.
pub const SETUP_SAMPLES: usize = 9;

/// A benchmark workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    SoloUnguided,
    FleetDiffAmd,
    CkptResume,
}

impl Workload {
    pub const ALL: [Workload; 3] = [
        Workload::SoloUnguided,
        Workload::FleetDiffAmd,
        Workload::CkptResume,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Workload::SoloUnguided => "solo-unguided",
            Workload::FleetDiffAmd => "fleet-diff-amd",
            Workload::CkptResume => "ckpt-resume",
        }
    }

    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// The hypervisor backend under test.
    fn target(self) -> &'static str {
        match self {
            Workload::SoloUnguided => "vkvm",
            Workload::FleetDiffAmd => "vxen",
            Workload::CkptResume => "vvbox",
        }
    }

    /// The campaign configurations generated from `seed` (one per
    /// group member).
    fn configs(self, seed: u64) -> Vec<CampaignConfig> {
        match self {
            Workload::SoloUnguided => {
                vec![CampaignConfig::necofuzz(CpuVendor::Intel, SOLO_HOURS, seed)
                    .with_execs_per_hour(SOLO_EXECS_PER_HOUR)]
            }
            Workload::FleetDiffAmd => (0..FLEET_MEMBERS)
                .map(|i| {
                    CampaignConfig::necofuzz(
                        CpuVendor::Amd,
                        FLEET_HOURS,
                        seed.wrapping_mul(FLEET_MEMBERS).wrapping_add(i),
                    )
                    .with_execs_per_hour(FLEET_EXECS_PER_HOUR)
                    .with_mode(Mode::Guided)
                    .with_strategy(MutationStrategy::Havoc)
                    .with_oracle(OracleMode::Differential)
                    .with_diff_backends(&["vxen", "golden"])
                    .with_sync_interval(1)
                    .with_sync_mode(SyncMode::Async)
                    .with_sync_topology(SyncTopology::Tree)
                })
                .collect(),
            Workload::CkptResume => {
                vec![CampaignConfig::necofuzz(CpuVendor::Intel, CKPT_HOURS, seed)
                    .with_execs_per_hour(CKPT_EXECS_PER_HOUR)
                    .with_mode(Mode::Guided)
                    .with_strategy(MutationStrategy::Structured)]
            }
        }
    }
}

/// A run's generated inputs and its scratch directories (inside the
/// checkout, under `.bench_work/`).
pub struct Inputs {
    pub workload: Workload,
    pub configs: Vec<CampaignConfig>,
    work: PathBuf,
    /// `ckpt-resume`: the 24-hour checkpoint every repetition resumes.
    pub source: PathBuf,
    /// `ckpt-resume`: where the resumed campaign writes checkpoints.
    pub out: PathBuf,
    /// `ckpt-resume`: the uninterrupted campaign's result, which every
    /// resumed repetition must reproduce.
    pub uninterrupted: Option<CampaignResult>,
}

impl Inputs {
    /// Generates the inputs of `workload` from `seed`, outside timing;
    /// for `ckpt-resume` that includes the source checkpoint.
    pub fn prepare(workload: Workload, seed: u64) -> Result<Inputs, String> {
        let work = PathBuf::from(".bench_work").join(format!(
            "{}-{}",
            workload.name(),
            std::process::id()
        ));
        let _ = std::fs::remove_dir_all(&work);
        std::fs::create_dir_all(&work).map_err(|e| format!("{}: {e}", work.display()))?;
        let mut inputs = Inputs {
            workload,
            configs: workload.configs(seed),
            source: work.join("source"),
            out: work.join("out"),
            work,
            uninterrupted: None,
        };
        if workload == Workload::CkptResume {
            inputs.uninterrupted = Some(guarded(|| inputs.write_source())?);
        }
        Ok(inputs)
    }

    /// A fresh hypervisor factory for the workload's backend.
    pub fn factory(&self) -> HvFactory {
        backend_factory(self.workload.target()).expect("workload backends are known names")
    }

    /// Removes the checkpoint output directory and its staging
    /// siblings, so every repetition starts from an empty directory.
    pub fn clean_out(&self) {
        for suffix in ["", ".tmp", ".old"] {
            let mut p = self.out.clone().into_os_string();
            p.push(suffix);
            let _ = std::fs::remove_dir_all(PathBuf::from(p));
        }
    }

    /// Deletes the run's scratch directories.
    pub fn remove(&self) {
        let _ = std::fs::remove_dir_all(&self.work);
    }

    /// Primary executions one repetition performs (differential
    /// replays excluded; for `ckpt-resume` only the resumed hours).
    pub fn execs_per_rep(&self) -> u64 {
        let cfg = &self.configs[0];
        let hours = match self.workload {
            Workload::CkptResume => cfg.hours - CKPT_FROM_HOUR,
            _ => cfg.hours,
        };
        u64::from(hours) * u64::from(cfg.execs_per_hour) * self.configs.len() as u64
    }

    /// Checkpoint writes one repetition performs.
    pub fn writes_per_rep(&self) -> u64 {
        match self.workload {
            Workload::CkptResume => u64::from((CKPT_HOURS - CKPT_FROM_HOUR) / CKPT_INTERVAL),
            _ => 0,
        }
    }

    /// `ckpt-resume`, outside timing: runs the campaign uninterrupted
    /// from hour 0, writing the source checkpoint at
    /// [`CKPT_FROM_HOUR`] on the way, and returns the result the
    /// resumed repetitions must reproduce. (Checkpointing never changes
    /// the execution stream; the final hour's checkpoint goes to a
    /// separate directory so the source stays at its hour.)
    fn write_source(&self) -> Result<CampaignResult, String> {
        let cfg = &self.configs[0];
        let mut campaign = Campaign::new(self.factory(), cfg);
        campaign.set_checkpoint(&self.source, CKPT_FROM_HOUR);
        campaign.run_hours(CKPT_FROM_HOUR);
        campaign.set_checkpoint(self.work.join("uninterrupted"), CKPT_HOURS);
        let result = campaign.into_result();
        match read_checkpoint(&self.source) {
            Ok((ck, _)) if ck.hour == CKPT_FROM_HOUR => Ok(result),
            Ok((ck, _)) => Err(format!(
                "source checkpoint is at hour {}, not {CKPT_FROM_HOUR}",
                ck.hour
            )),
            Err(e) => Err(format!("reading the source checkpoint: {e}")),
        }
    }

    /// Operations attempted in a repetition and how many failed:
    /// executions served in degraded mode, and checkpoint writes that
    /// did not land. `Campaign` disables checkpointing after a failed
    /// write and only reports it on stderr, so the landed count is read
    /// back from the hour of the last checkpoint on disk, which must be
    /// the final hour.
    pub fn failures(&self, results: &[CampaignResult], errors: &mut Vec<String>) -> (u64, u64) {
        let ops = self.execs_per_rep() + self.writes_per_rep();
        let mut failed: u64 = results.iter().map(|r| r.engine_stats.degraded_mode).sum();
        if self.workload == Workload::CkptResume {
            let hour = read_checkpoint(&self.out).map(|(ck, _)| ck.hour).ok();
            if hour != Some(CKPT_HOURS) {
                errors.push(format!(
                    "last checkpoint on disk is at hour {hour:?}, not the final hour {CKPT_HOURS}"
                ));
            }
            let landed = hour.map_or(0, |h| h.saturating_sub(CKPT_FROM_HOUR) / CKPT_INTERVAL);
            failed += self.writes_per_rep() - u64::from(landed).min(self.writes_per_rep());
        }
        (ops, failed.min(ops))
    }
}

/// One untraced repetition.
pub struct Rep {
    /// Set-up samples, seconds each.
    pub setup: Vec<f64>,
    /// Wall time from the first execution to the finished results.
    pub exec_s: f64,
    pub results: Vec<CampaignResult>,
}

/// Runs `f` and returns its result with its wall time in seconds.
fn timed<T>(f: impl FnOnce() -> T) -> (T, f64) {
    let t = Instant::now();
    let r = f();
    (r, t.elapsed().as_secs_f64())
}

/// Runs one untraced repetition: `setup_samples` timed set-ups (the
/// last one is kept), then the timed campaign.
///
/// `run_campaign_group` builds its members itself, so for the fleet
/// `setup` times building the same members the way the group runner
/// does (`Campaign::with_worker` + sync recording) and the timed phase
/// is the whole `run_campaign_group` call, member construction
/// included.
pub fn run_rep(inp: &Inputs, setup_samples: usize) -> Result<Rep, String> {
    let mut setup = Vec::with_capacity(setup_samples);
    let cfg = &inp.configs[0];
    let (results, exec_s) = match inp.workload {
        Workload::SoloUnguided => {
            let mut campaign = None;
            for _ in 0..setup_samples {
                let (c, s) = timed(|| Campaign::new(inp.factory(), cfg));
                setup.push(s);
                campaign = Some(c);
            }
            let mut campaign = campaign.ok_or("no set-up sample")?;
            timed(|| {
                campaign.run_hours(cfg.hours);
                vec![campaign.into_result()]
            })
        }
        Workload::FleetDiffAmd => {
            for _ in 0..setup_samples {
                let (members, s) = timed(|| {
                    let members: Vec<Campaign> = inp
                        .configs
                        .iter()
                        .enumerate()
                        .map(|(w, cfg)| {
                            let mut c = Campaign::with_worker(inp.factory(), cfg, w as u32);
                            c.enable_sync_recording();
                            c
                        })
                        .collect();
                    members
                });
                setup.push(s);
                drop(members);
            }
            let members = inp
                .configs
                .iter()
                .map(|cfg| (inp.factory(), cfg.clone()))
                .collect();
            timed(|| run_campaign_group(members))
        }
        Workload::CkptResume => {
            let mut campaign = None;
            for _ in 0..setup_samples {
                let (c, s) =
                    timed(|| Campaign::resume_from_checkpoint(inp.factory(), cfg, &inp.source));
                setup.push(s);
                campaign = Some(c.map_err(|e| format!("resume_from_checkpoint: {e}"))?);
            }
            let mut campaign = campaign.ok_or("no set-up sample")?;
            inp.clean_out();
            campaign.set_checkpoint(&inp.out, CKPT_INTERVAL);
            timed(|| {
                campaign.run_hours(cfg.hours);
                vec![campaign.into_result()]
            })
        }
    };
    Ok(Rep {
        setup,
        exec_s,
        results,
    })
}

/// Runs `f`, turning a panic into an error.
pub fn guarded<T>(f: impl FnOnce() -> Result<T, String>) -> Result<T, String> {
    match catch_unwind(AssertUnwindSafe(f)) {
        Ok(r) => r,
        Err(payload) => Err(format!(
            "panicked: {}",
            payload
                .downcast_ref::<String>()
                .map(String::as_str)
                .or_else(|| payload.downcast_ref::<&str>().copied())
                .unwrap_or("<non-string payload>")
        )),
    }
}

/// Checks on one repetition's results: one result per campaign, exact
/// execution and sample counts, and for `ckpt-resume` equality with the
/// uninterrupted campaign.
pub fn check_results(inp: &Inputs, results: &[CampaignResult], errors: &mut Vec<String>) {
    if results.len() != inp.configs.len() {
        errors.push(format!(
            "{} results for {} campaigns",
            results.len(),
            inp.configs.len()
        ));
        return;
    }
    for (r, cfg) in results.iter().zip(&inp.configs) {
        let expect = u64::from(cfg.hours) * u64::from(cfg.execs_per_hour);
        if r.execs != expect {
            errors.push(format!("campaign ran {} execs, expected {expect}", r.execs));
        }
        if r.hourly.len() != cfg.hours as usize {
            errors.push(format!(
                "{} hourly samples, expected {}",
                r.hourly.len(),
                cfg.hours
            ));
        }
    }
    if let (Some(uninterrupted), Some(r)) = (&inp.uninterrupted, results.first()) {
        if uninterrupted != r {
            errors.push("resumed campaign differs from the uninterrupted campaign".into());
        }
    }
}

/// The semantic end-to-end figures of one repetition: final coverage
/// (union over members) and coverage AUC (mean of the hourly samples,
/// averaged over members).
pub struct Semantic {
    pub coverage_pct: f64,
    pub cov_auc_pct: f64,
}

impl Semantic {
    pub fn of(results: &[CampaignResult]) -> Semantic {
        let mut lines = results[0].lines.clone();
        for r in &results[1..] {
            lines.union_with(&r.lines);
        }
        let auc = results
            .iter()
            .map(|r| r.hourly.iter().map(|s| s.coverage).sum::<f64>() / r.hourly.len() as f64)
            .sum::<f64>()
            / results.len() as f64;
        Semantic {
            coverage_pct: 100.0 * lines.fraction_of(&results[0].map, results[0].file),
            cov_auc_pct: 100.0 * auc,
        }
    }
}

/// Resets this process's peak-RSS mark (`VmHWM`) to its current RSS.
pub fn reset_peak_rss() {
    let _ = std::fs::write("/proc/self/clear_refs", "5");
}

/// This process's peak RSS (`VmHWM`) in MB, if readable.
pub fn peak_rss_mb() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kb: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kb / 1024.0)
}

/// The untraced end-to-end run (`--trace 0`).
pub fn run(inp: &Inputs, seconds: Duration) -> Report {
    let mut errors = Vec::new();
    let mut attempted = 0u64;
    let mut failed = 0u64;
    let mut setup = Vec::new();
    let mut eps = Vec::new();
    let mut rss = Vec::new();
    let mut first: Option<Vec<CampaignResult>> = None;
    let start = Instant::now();
    while start.elapsed() < seconds {
        reset_peak_rss();
        let rep = guarded(|| run_rep(inp, SETUP_SAMPLES));
        let rep = match rep {
            Ok(rep) => rep,
            Err(e) => {
                attempted += inp.execs_per_rep() + inp.writes_per_rep();
                failed += inp.execs_per_rep() + inp.writes_per_rep();
                errors.push(format!("repetition {} {e}", eps.len() + 1));
                break;
            }
        };
        if let Some(mb) = peak_rss_mb() {
            rss.push(mb);
        }
        let (ops, bad) = inp.failures(&rep.results, &mut errors);
        attempted += ops;
        failed += bad;
        check_results(inp, &rep.results, &mut errors);
        match &first {
            None => first = Some(rep.results),
            Some(first) => {
                if *first != rep.results {
                    errors.push(format!(
                        "repetition {} differs from the first repetition (same seed)",
                        eps.len() + 1
                    ));
                }
            }
        }
        eps.push(inp.execs_per_rep() as f64 / rep.exec_s);
        setup.extend(rep.setup);
        eprintln!(
            "perfbench: {} rep {}: {:.0} execs/s, exec {:.3} s, setup median {:.6} s, peak {:.1} MB",
            inp.workload.name(),
            eps.len(),
            eps[eps.len() - 1],
            inp.execs_per_rep() as f64 / eps[eps.len() - 1],
            median(&setup[setup.len() - SETUP_SAMPLES..]),
            rss.last().copied().unwrap_or(0.0)
        );
        if !errors.is_empty() {
            break;
        }
    }
    let mut metrics = Vec::new();
    if let Some(results) = &first {
        let sem = Semantic::of(results);
        let ok_pct = 100.0 * (attempted - failed) as f64 / attempted.max(1) as f64;
        metrics = vec![
            Metric::new("execs_per_s", median(&eps), "1/s"),
            Metric::new("setup_s", median(&setup), "s"),
            Metric::new("peak_rss_mb", median(&rss), "MB"),
            Metric::new("ok_pct", ok_pct, "%"),
            Metric::new("coverage_pct", sem.coverage_pct, "%"),
            Metric::new("cov_auc_pct", sem.cov_auc_pct, "%"),
        ];
    } else if errors.is_empty() {
        errors.push("no repetition completed".into());
    }
    Report {
        errors,
        attempted,
        failed,
        metrics,
    }
}
