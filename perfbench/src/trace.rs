//! The traced run (`--trace 1`): a replica of the campaign loop built
//! from the layers' public calls, with a span around every call.
//!
//! The replica follows `Campaign::run_execs` and the agent's iteration
//! step by step, in the same order, on its own engine, configurator,
//! harness, triage index and fuzzer: mutate, configure, prepare the
//! engine, generate the harness VM, run the init and runtime phases,
//! collect coverage, drain sanitizer reports, feed the fuzzer, replay
//! on the differential backends, sample the hour. The fleet replica
//! follows the async group runner (publish on novelty, drain, apply,
//! relay; final drain to quiescence). The result must equal the
//! untraced `CampaignResult` field for field, engine and sync counters
//! included, or the run fails.
//!
//! Only what the replica supports is accepted: all three components
//! on, no prefix cache, no fault plan. Those paths are off in every
//! workload.
//!
//! `write_checkpoint` takes a `Campaign`, which the replica does not
//! have; `ckpt-resume` therefore keeps a shadow `Campaign` resumed from
//! the same checkpoint and advances it to each checkpoint hour with the
//! trace clock paused, then times `write_checkpoint` on it. The shadow
//! is checked against the replica (corpus, lines, hour) at every
//! checkpoint, so the checkpoint written is the one the untraced run
//! writes.
//!
//! Spans (layer, exec id, start, end) are kept in memory and written
//! to `.bench_work/spans-<workload>.bin` at the end of the run.

use std::collections::BTreeSet;
use std::io::{self, Write as _};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use necofuzz::campaign::{Campaign, CampaignConfig, CampaignResult, HourSample, HvFactory};
use necofuzz::differential::{DifferentialRunner, DivergenceStats};
use necofuzz::{
    read_checkpoint, write_checkpoint, BugFind, CampaignCheckpoint, ComponentMask, CrashTriage,
    EngineStats, ExecutionEngine, ExecutionHarness, InputView, VcpuConfigurator,
};
use nf_coverage::LineSet;
use nf_fuzz::{
    Corpus, DeltaBus, ExecFeedback, FuzzInput, Fuzzer, GossipNode, MutationStats, SeqDelta,
    SyncStats,
};
use nf_hv::HvConfig;
use nf_vmx::VmxCapabilities;
use nf_x86::{CpuVendor, FeatureSet};

use crate::workload::{self, Inputs, Workload, CKPT_INTERVAL};
use crate::{median, Metric, Report};

/// Allocation events, bumped by the traced binary's counting global
/// allocator (always zero in the untraced binary).
pub static ALLOC_EVENTS: AtomicU64 = AtomicU64::new(0);

/// A layer boundary the replica times. Each variant is one public call
/// (or a fixed pair of calls) into one module.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(u8)]
enum Layer {
    /// Campaign / agent / oracle construction (`ExecutionEngine::new`,
    /// `Fuzzer::with_strategy`, `DifferentialRunner::new`).
    Setup,
    /// `Fuzzer::next_input_into`.
    Mutate,
    /// `Fuzzer::report_observed`.
    Feedback,
    /// `VcpuConfigurator::generate`.
    Configurator,
    /// `ExecutionEngine::prepare` (and the rare watchdog `reboot`).
    EnginePrepare,
    /// `VmStateValidator::generate` + `generate_vmcb`.
    Validator,
    /// `ExecutionHarness::mutated_plan` + `run_init`.
    HarnessInit,
    /// `ExecutionHarness::run_runtime`.
    HarnessRuntime,
    /// `ExecutionEngine::collect_coverage`.
    CoverageCollect,
    /// `LineSet::union_with` into the cumulative set.
    CoverageUnion,
    /// Sanitizer-report drain into `CrashTriage::record`.
    Triage,
    /// `DifferentialRunner::observe_exec`.
    Differential,
    /// Novelty check + `Corpus::take_delta_async` + `DeltaBus::publish_own`.
    SyncPublish,
    /// `GossipNode::drain` + `Corpus::apply_delta` + line union + relay.
    SyncApply,
    /// `write_checkpoint`.
    CheckpointWrite,
    /// `read_checkpoint`.
    CheckpointRead,
    /// Hourly coverage sample (`LineSet::fraction_of`).
    Sample,
}

const LAYERS: usize = Layer::Sample as usize + 1;

impl Layer {
    const ALL: [Layer; LAYERS] = [
        Layer::Setup,
        Layer::Mutate,
        Layer::Feedback,
        Layer::Configurator,
        Layer::EnginePrepare,
        Layer::Validator,
        Layer::HarnessInit,
        Layer::HarnessRuntime,
        Layer::CoverageCollect,
        Layer::CoverageUnion,
        Layer::Triage,
        Layer::Differential,
        Layer::SyncPublish,
        Layer::SyncApply,
        Layer::CheckpointWrite,
        Layer::CheckpointRead,
        Layer::Sample,
    ];

    fn name(self) -> &'static str {
        match self {
            Layer::Setup => "setup",
            Layer::Mutate => "fuzz.mutate",
            Layer::Feedback => "fuzz.feedback",
            Layer::Configurator => "configurator",
            Layer::EnginePrepare => "engine.prepare",
            Layer::Validator => "validator",
            Layer::HarnessInit => "harness.init",
            Layer::HarnessRuntime => "harness.runtime",
            Layer::CoverageCollect => "coverage.collect",
            Layer::CoverageUnion => "coverage.union",
            Layer::Triage => "triage",
            Layer::Differential => "differential",
            Layer::SyncPublish => "sync.publish",
            Layer::SyncApply => "sync.apply",
            Layer::CheckpointWrite => "checkpoint.write",
            Layer::CheckpointRead => "checkpoint.read",
            Layer::Sample => "campaign.sample",
        }
    }
}

/// One recorded span. Spans of one execution share `exec` (the running
/// exec count over the whole group; 0 for set-up).
#[derive(Debug, Clone, Copy)]
struct Span {
    layer: Layer,
    exec: u64,
    start_ns: u64,
    end_ns: u64,
}

/// Span recorder with per-layer totals. Spans never nest, so a span's
/// self time is its duration.
struct Tracer {
    origin: Instant,
    spans: Vec<Span>,
    ns: [u64; LAYERS],
    calls: [u64; LAYERS],
    allocs: [u64; LAYERS],
    /// Time spent in [`Tracer::untimed`] sections, excluded from the
    /// traced wall time.
    excluded_ns: u64,
    /// Request id of the spans being recorded.
    exec: u64,
}

impl Tracer {
    fn new(capacity: usize) -> Tracer {
        Tracer {
            origin: Instant::now(),
            spans: Vec::with_capacity(capacity),
            ns: [0; LAYERS],
            calls: [0; LAYERS],
            allocs: [0; LAYERS],
            excluded_ns: 0,
            exec: 0,
        }
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Runs `f` inside a span of `layer`.
    fn span<R>(&mut self, layer: Layer, f: impl FnOnce() -> R) -> R {
        let a0 = ALLOC_EVENTS.load(Ordering::Relaxed);
        let start_ns = self.now_ns();
        let r = f();
        let end_ns = self.now_ns();
        let a1 = ALLOC_EVENTS.load(Ordering::Relaxed);
        let i = layer as usize;
        self.ns[i] += end_ns - start_ns;
        self.calls[i] += 1;
        self.allocs[i] += a1 - a0;
        self.spans.push(Span {
            layer,
            exec: self.exec,
            start_ns,
            end_ns,
        });
        r
    }

    /// Runs `f` with the trace clock paused: its time counts neither
    /// as a span nor as traced wall time (shadow-campaign steps and
    /// cross-checks).
    fn untimed<R>(&mut self, f: impl FnOnce() -> R) -> R {
        let t = Instant::now();
        let r = f();
        self.excluded_ns += t.elapsed().as_nanos() as u64;
        r
    }

    /// Wall time since the tracer started, minus untimed sections.
    fn traced_ns(&self) -> u64 {
        self.now_ns() - self.excluded_ns
    }

    /// Writes the spans: one text line naming the layers by code
    /// (`0=setup 1=fuzz.mutate ...`), then fixed 25-byte little-endian
    /// records (layer code u8, exec u64, start ns u64, end ns u64).
    fn write_spans(&self, path: &std::path::Path) -> io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut out = io::BufWriter::new(std::fs::File::create(path)?);
        let names: Vec<String> = Layer::ALL
            .iter()
            .map(|&l| format!("{}={}", l as u8, l.name()))
            .collect();
        writeln!(out, "nf-perfbench spans v1: {}", names.join(" "))?;
        for s in &self.spans {
            out.write_all(&[s.layer as u8])?;
            out.write_all(&s.exec.to_le_bytes())?;
            out.write_all(&s.start_ns.to_le_bytes())?;
            out.write_all(&s.end_ns.to_le_bytes())?;
        }
        out.flush()
    }
}

/// The semantic fields of a `CampaignResult` plus the engine and sync
/// counters — what the replica must reproduce. (`alarms` are a pure
/// function of `hourly` and the per-hour corpus sizes, `faults` are
/// zero without a fault plan, and `map`/`file` are fixed per backend.)
#[derive(Debug)]
struct Outcome {
    hourly: Vec<HourSample>,
    final_coverage: f64,
    lines: LineSet,
    finds: Vec<BugFind>,
    execs: u64,
    restarts: u64,
    corpus: Corpus,
    adopted: u64,
    mutation: MutationStats,
    divergence: DivergenceStats,
    diff_execs: u64,
    engine: EngineStats,
    sync: SyncStats,
}

impl Outcome {
    fn of(r: &CampaignResult) -> Outcome {
        Outcome {
            hourly: r.hourly.clone(),
            final_coverage: r.final_coverage,
            lines: r.lines.clone(),
            finds: r.finds.clone(),
            execs: r.execs,
            restarts: r.restarts,
            corpus: r.corpus.clone(),
            adopted: r.adopted,
            mutation: r.mutation.clone(),
            divergence: r.divergence,
            diff_execs: r.diff_execs,
            engine: r.engine_stats,
            sync: r.sync,
        }
    }

    /// Names of the fields that differ from `other`.
    fn mismatches(&self, other: &Outcome) -> Vec<&'static str> {
        let checks = [
            ("hourly", self.hourly == other.hourly),
            (
                "final_coverage",
                self.final_coverage == other.final_coverage,
            ),
            ("lines", self.lines == other.lines),
            ("finds", self.finds == other.finds),
            ("execs", self.execs == other.execs),
            ("restarts", self.restarts == other.restarts),
            ("corpus", self.corpus == other.corpus),
            ("adopted", self.adopted == other.adopted),
            ("mutation", self.mutation == other.mutation),
            ("divergence", self.divergence == other.divergence),
            ("diff_execs", self.diff_execs == other.diff_execs),
            ("engine_stats", self.engine == other.engine),
            ("sync", self.sync == other.sync),
        ];
        checks
            .into_iter()
            .filter(|(_, same)| !same)
            .map(|(name, _)| name)
            .collect()
    }
}

/// One campaign rebuilt from public parts: the agent's engine,
/// configurator, harness, triage and cumulative coverage, and the
/// campaign's fuzzer, oracle and virtual clock.
struct Member {
    engine: ExecutionEngine,
    vendor: CpuVendor,
    harness: ExecutionHarness,
    configurator: VcpuConfigurator,
    execs: u64,
    restarts: u64,
    cumulative: LineSet,
    triage: CrashTriage,
    fuzzer: Fuzzer,
    diff: Option<DifferentialRunner>,
    cfg: CampaignConfig,
    hourly: Vec<HourSample>,
    hour: u32,
    hour_execs: u32,
    adopted: u64,
    sync: SyncStats,
    input: FuzzInput,
    /// Queue length when the replica started (resumed corpora are not
    /// new work).
    queue_start: usize,
    /// Runtime-phase exits, summed over executions.
    exits: u64,
    /// Sanitizer reports drained into triage.
    reports: u64,
}

impl Member {
    /// Builds a member the way `Campaign::with_worker` does.
    fn new(factory: HvFactory, cfg: &CampaignConfig, worker: u32) -> Member {
        let mut fuzzer = Fuzzer::with_strategy(cfg.seed, cfg.mode, cfg.strategy);
        fuzzer.set_worker(worker);
        Member::with_fuzzer(factory, cfg, fuzzer)
    }

    /// The agent half of `Campaign::make_agent` and `Agent::with_engine`,
    /// plus `Campaign::make_diff`.
    fn with_fuzzer(factory: HvFactory, cfg: &CampaignConfig, fuzzer: Fuzzer) -> Member {
        assert!(
            cfg.mask == ComponentMask::ALL && !cfg.prefix_cache && cfg.fault_plan.is_none(),
            "the replica covers all-components campaigns without prefix cache or faults"
        );
        let vendor = cfg.vendor;
        let configurator = VcpuConfigurator::new(vendor);
        let (features, nested) = configurator.default_config();
        let config = HvConfig {
            vendor,
            features,
            nested,
        };
        let caps =
            VmxCapabilities::from_features(FeatureSet::default_for(vendor).sanitized(vendor));
        let mut engine = ExecutionEngine::new(factory, config, caps, cfg.engine);
        engine.set_prefix_cache(cfg.prefix_cache);
        engine.set_cache_capacity(cfg.cache_capacity);
        engine.set_prefix_budget(cfg.prefix_budget);
        engine.set_prefix_store(cfg.prefix_store);
        let cumulative = LineSet::for_map(engine.hv().coverage_map());
        let diff = (cfg.oracle == necofuzz::OracleMode::Differential).then(|| {
            DifferentialRunner::new(&cfg.diff_backends, vendor, cfg.mask, cfg.engine)
                .with_prefix_cache(cfg.prefix_cache)
                .with_cache_capacity(cfg.cache_capacity)
                .with_prefix_budget(cfg.prefix_budget)
                .with_prefix_store(cfg.prefix_store)
        });
        let queue_start = fuzzer.corpus().len();
        Member {
            engine,
            vendor,
            harness: ExecutionHarness::new(vendor),
            configurator,
            execs: 0,
            restarts: 0,
            cumulative,
            triage: CrashTriage::new(),
            fuzzer,
            diff,
            cfg: cfg.clone(),
            hourly: Vec::with_capacity(cfg.hours as usize),
            hour: 0,
            hour_execs: 0,
            adopted: 0,
            sync: SyncStats::default(),
            input: FuzzInput::zeroed(),
            queue_start,
            exits: 0,
            reports: 0,
        }
    }

    /// Rebuilds a member from a checkpoint the way
    /// `Campaign::resume_from_checkpoint` does.
    fn resume(
        factory: HvFactory,
        cfg: &CampaignConfig,
        ck: CampaignCheckpoint,
        corpus: Corpus,
    ) -> Result<Member, String> {
        if ck.seed != cfg.seed {
            return Err(format!("checkpoint seed {} is not {}", ck.seed, cfg.seed));
        }
        if cfg.oracle == necofuzz::OracleMode::Differential {
            return Err("checkpoint resume does not support the differential oracle".into());
        }
        let fuzzer = Fuzzer::from_checkpoint(cfg.mode, cfg.strategy, corpus, ck.fuzzer);
        let mut m = Member::with_fuzzer(factory, cfg, fuzzer);
        m.execs = ck.agent_execs;
        m.restarts = ck.agent_restarts;
        m.cumulative = LineSet::from_words(ck.cumulative);
        let v = m.engine.validator_mut();
        for (rule, detail) in &ck.corrections {
            v.restore_correction(rule, detail.clone());
        }
        for find in ck.finds {
            m.triage.record(find.into_find());
        }
        m.hourly = ck.hourly;
        m.hour = ck.hour;
        m.hour_execs = ck.hour_execs;
        m.adopted = ck.adopted;
        Ok(m)
    }

    fn is_complete(&self) -> bool {
        self.hour >= self.cfg.hours
    }

    fn coverage_fraction(&self) -> f64 {
        let hv = self.engine.hv();
        let file = match self.vendor {
            CpuVendor::Intel => hv.intel_file(),
            CpuVendor::Amd => hv.amd_file().unwrap_or_else(|| hv.intel_file()),
        };
        self.cumulative.fraction_of(hv.coverage_map(), file)
    }

    /// One iteration of `Campaign::run_execs`. Returns `true` when the
    /// execution completed a virtual hour (a checkpoint is due then).
    fn exec_one(&mut self, tr: &mut Tracer) -> bool {
        if self.is_complete() {
            return false;
        }
        tr.span(Layer::Mutate, || {
            self.fuzzer.next_input_into(&mut self.input)
        });

        // Agent::execute, steps 1-5.
        self.execs += 1;
        tr.exec += 1;
        let view = InputView::new(&self.input);
        if self.engine.hv().health().dead {
            tr.span(Layer::EnginePrepare, || self.engine.reboot());
            self.restarts += 1;
        }
        let (features, nested) = tr.span(Layer::Configurator, || {
            self.configurator.generate(view.vcpu_cfg())
        });
        let config = HvConfig {
            vendor: self.vendor,
            features,
            nested,
        };
        tr.span(Layer::EnginePrepare, || self.engine.prepare(&config));
        let (vmcs12, msr_area, vmcb12) = tr.span(Layer::Validator, || {
            let v = self.engine.validator_mut();
            let (vmcs, area) =
                v.generate(view.vmcs_seed(), view.mutate_bytes(), view.msr_area_bytes());
            let vmcb = v.generate_vmcb(view.vmcs_seed(), view.mutate_bytes());
            (vmcs, area, vmcb)
        });
        let harness = self.harness;
        let init = tr.span(Layer::HarnessInit, || {
            let plan = harness.mutated_plan(VmxCapabilities::REVISION, view.init_bytes());
            harness.run_init(self.engine.hv_mut(), &plan, &vmcs12, &vmcb12, &msr_area)
        });
        if !init.host_dead {
            let exits = tr.span(Layer::HarnessRuntime, || {
                harness.run_runtime(self.engine.hv_mut(), view.runtime_bytes(), init.l2_live)
            });
            self.exits += u64::from(exits);
        }

        // Agent::run_iteration_with, steps 6-7.
        tr.span(Layer::CoverageCollect, || self.engine.collect_coverage());
        tr.span(Layer::CoverageUnion, || {
            self.cumulative.union_with(&self.engine.scratch().lines)
        });
        let feedback = tr.span(Layer::Triage, || self.drain_reports());
        let scratch = self.engine.scratch();
        tr.span(Layer::Feedback, || {
            self.fuzzer
                .report_observed(&self.input, &scratch.bitmap, &scratch.lines, feedback)
        });
        if let Some(diff) = &mut self.diff {
            tr.span(Layer::Differential, || {
                diff.observe_exec(&self.input, self.execs)
            });
        }

        self.hour_execs += 1;
        if self.hour_execs < self.cfg.execs_per_hour {
            return false;
        }
        self.hour_execs = 0;
        self.hour += 1;
        let coverage = tr.span(Layer::Sample, || self.coverage_fraction());
        self.hourly.push(HourSample {
            hour: self.hour,
            coverage,
        });
        true
    }

    /// The agent's report drain: move the reports out, share one copy
    /// of the input across them, record each in triage.
    fn drain_reports(&mut self) -> ExecFeedback {
        let health = self.engine.hv_mut().health_mut();
        if health.reports.is_empty() {
            return ExecFeedback { crashed: false };
        }
        let mut reports = std::mem::take(&mut health.reports);
        let shared = Arc::new(self.input.clone());
        for report in reports.drain(..) {
            self.reports += 1;
            self.triage.record(BugFind {
                bug_id: report.bug_id.to_string(),
                kind: report.kind,
                message: report.message,
                exec: self.execs,
                input: Arc::clone(&shared),
            });
        }
        ExecFeedback { crashed: true }
    }

    /// `Campaign::has_unpublished_novelty` + `Campaign::publish_async`.
    fn publish(&mut self, bus: &mut DeltaBus, node: &mut GossipNode) -> usize {
        if !self.fuzzer.corpus().has_unpublished() {
            return 0;
        }
        let delta = self.fuzzer.corpus_mut().take_delta_async(&mut self.sync);
        if delta.is_empty() {
            return 0;
        }
        let rec = bus.publish_own(delta);
        node.note_published(&rec);
        self.sync.deltas_published += 1;
        1
    }

    /// `Campaign::apply_async`.
    fn apply(&mut self, rec: &SeqDelta) {
        let before = self.fuzzer.corpus().len();
        let adopted = self
            .fuzzer
            .corpus_mut()
            .apply_delta(&rec.delta, &mut self.sync);
        if adopted > 0 {
            for entry in self.fuzzer.corpus().entries().skip(before) {
                self.cumulative.union_with(&entry.lines);
            }
            self.adopted += adopted as u64;
        }
    }

    fn outcome(&self) -> Outcome {
        let mut finds = self.triage.finds().to_vec();
        let (divergence, diff_execs) = match &self.diff {
            Some(diff) => {
                finds.extend(diff.triage().finds().iter().cloned());
                (diff.stats(), diff.backend_execs())
            }
            None => (DivergenceStats::default(), 0),
        };
        Outcome {
            hourly: self.hourly.clone(),
            final_coverage: self.coverage_fraction(),
            lines: self.cumulative.clone(),
            finds,
            execs: self.execs,
            restarts: self.restarts,
            corpus: self.fuzzer.corpus().clone(),
            adopted: self.adopted,
            mutation: self.fuzzer.mutation_stats(),
            divergence,
            diff_execs,
            engine: self.engine.stats(),
            sync: self.sync,
        }
    }
}

/// Counters of one traced repetition that are not span totals.
#[derive(Default)]
struct RepCounters {
    execs: u64,
    queued: u64,
    factory_builds: u64,
    validator_rebuilds: u64,
    exits: u64,
    reports: u64,
    backend_execs: u64,
    divergences: u64,
    deltas_published: u64,
    deltas_applied: u64,
    adopted: u64,
    writes: u64,
    write_failures: u64,
    checkpoint_bytes: u64,
}

impl RepCounters {
    fn absorb(&mut self, m: &Member) {
        self.queued += (m.fuzzer.corpus().len() - m.queue_start) as u64 - m.adopted;
        let stats = m.engine.stats();
        self.factory_builds += stats.factory_builds;
        self.validator_rebuilds += stats.validator_rebuilds;
        self.exits += m.exits;
        self.reports += m.reports;
        if let Some(diff) = &m.diff {
            self.backend_execs += diff.backend_execs();
            self.divergences += diff.stats().divergences;
        }
        self.deltas_published += m.sync.deltas_published;
        self.deltas_applied += m.sync.deltas_applied;
        self.adopted += m.adopted;
    }
}

/// One traced repetition: the tracer, the replica's outcomes, counters.
struct TracedRep {
    tracer: Tracer,
    traced_ns: u64,
    outcomes: Vec<Outcome>,
    counters: RepCounters,
}

/// Runs the replica of `inp`'s workload once under a fresh tracer.
fn traced_rep(inp: &Inputs) -> Result<TracedRep, String> {
    let execs = inp.execs_per_rep() as usize;
    // At most 13 spans per execution (the fleet's), so the span buffer
    // never grows mid-run.
    let mut tr = Tracer::new(execs * 16 + 1024);
    let mut counters = RepCounters::default();
    let members = match inp.workload {
        Workload::SoloUnguided => {
            let cfg = &inp.configs[0];
            let mut m = tr.span(Layer::Setup, || Member::new(inp.factory(), cfg, 0));
            while !m.is_complete() {
                m.exec_one(&mut tr);
            }
            vec![m]
        }
        Workload::FleetDiffAmd => fleet(inp, &mut tr),
        Workload::CkptResume => {
            let cfg = &inp.configs[0];
            let (ck, corpus) = tr
                .span(Layer::CheckpointRead, || read_checkpoint(&inp.source))
                .map_err(|e| format!("read_checkpoint: {e}"))?;
            let mut m = tr.span(Layer::Setup, || {
                Member::resume(inp.factory(), cfg, ck, corpus)
            })?;
            let mut shadow = tr.untimed(|| {
                inp.clean_out();
                Campaign::resume_from_checkpoint(inp.factory(), cfg, &inp.source)
                    .map_err(|e| format!("shadow resume: {e}"))
            })?;
            let mut armed = true;
            while !m.is_complete() {
                if !m.exec_one(&mut tr)
                    || !(m.hour.is_multiple_of(CKPT_INTERVAL) || m.is_complete())
                {
                    continue;
                }
                tr.untimed(|| {
                    shadow.run_hours(m.hour.saturating_sub(shadow.hours_done()));
                    if shadow.hours_done() != m.hour
                        || shadow.corpus() != m.fuzzer.corpus()
                        || shadow.lines() != &m.cumulative
                    {
                        return Err(format!("shadow campaign diverged at hour {}", m.hour));
                    }
                    Ok(())
                })?;
                if armed {
                    counters.writes += 1;
                    let written = tr.span(Layer::CheckpointWrite, || {
                        write_checkpoint(&shadow, &inp.out)
                    });
                    if let Err(e) = written {
                        eprintln!("perfbench: checkpoint write failed at hour {}: {e}", m.hour);
                        counters.write_failures += 1;
                        armed = false;
                    }
                }
            }
            counters.checkpoint_bytes = tr.untimed(|| dir_bytes(&inp.out));
            vec![m]
        }
    };
    let traced_ns = tr.traced_ns();
    counters.execs = execs as u64;
    for m in &members {
        counters.absorb(m);
    }
    Ok(TracedRep {
        outcomes: members.iter().map(Member::outcome).collect(),
        traced_ns,
        tracer: tr,
        counters,
    })
}

/// The async group runner (`run_campaign_group` with
/// `SyncMode::Async`): members step one execution at a time in worker
/// order, each followed by a gossip turn; after the last hour the group
/// gossips until a full round moves nothing.
fn fleet(inp: &Inputs, tr: &mut Tracer) -> Vec<Member> {
    let cfg0 = &inp.configs[0];
    let n = inp.configs.len() as u32;
    let (mut members, mut bus, mut nodes) = tr.span(Layer::Setup, || {
        let members: Vec<Member> = inp
            .configs
            .iter()
            .enumerate()
            .map(|(w, cfg)| {
                let mut m = Member::new(inp.factory(), cfg, w as u32);
                m.fuzzer.set_recording(true);
                m
            })
            .collect();
        let nodes: Vec<GossipNode> = (0..n)
            .map(|w| GossipNode::new(w, n, cfg0.sync_topology))
            .collect();
        (members, DeltaBus::new(n as usize), nodes)
    });
    let turn = |m: &mut Member, node: &mut GossipNode, bus: &mut DeltaBus, tr: &mut Tracer, w| {
        let mut moved = tr.span(Layer::SyncPublish, || m.publish(bus, node));
        moved += tr.span(Layer::SyncApply, || {
            let mut moved = 0;
            for rec in node.drain(bus) {
                m.apply(&rec);
                bus.relay(w, rec);
                moved += 1;
            }
            moved
        });
        moved
    };
    for done in 0..cfg0.hours {
        for _ in 0..cfg0.execs_per_hour {
            for (w, m) in members.iter_mut().enumerate() {
                m.exec_one(tr);
                turn(m, &mut nodes[w], &mut bus, tr, w as u32);
            }
        }
        if done + 1 == cfg0.hours {
            loop {
                let mut moved = 0;
                for (w, m) in members.iter_mut().enumerate() {
                    moved += turn(m, &mut nodes[w], &mut bus, tr, w as u32);
                }
                if moved == 0 {
                    break;
                }
            }
        }
    }
    members
}

/// Total size of the regular files under `dir`.
fn dir_bytes(dir: &std::path::Path) -> u64 {
    let Ok(entries) = std::fs::read_dir(dir) else {
        return 0;
    };
    entries
        .flatten()
        .map(|e| match e.file_type() {
            Ok(t) if t.is_dir() => dir_bytes(&e.path()),
            Ok(_) => e.metadata().map_or(0, |m| m.len()),
            Err(_) => 0,
        })
        .sum()
}

/// The traced run: untraced and traced repetitions alternate until
/// `seconds` have passed (at least one of each). Every traced
/// repetition must reproduce the untraced results; the per-layer
/// figures aggregate all traced repetitions.
pub fn run(inp: &Inputs, seconds: Duration) -> Report {
    let mut errors = Vec::new();
    let mut attempted = 0u64;
    let mut failed = 0u64;
    let mut untraced_s = Vec::new();
    let mut traced_s = Vec::new();
    let mut reference: Option<Vec<CampaignResult>> = None;
    let mut reps: Vec<TracedRep> = Vec::new();
    let ops_per_rep = inp.execs_per_rep() + inp.writes_per_rep();
    let start = Instant::now();
    while errors.is_empty() && (start.elapsed() < seconds || reps.is_empty()) {
        match workload::guarded(|| workload::run_rep(inp, 1)) {
            Ok(rep) => {
                let (ops, bad) = inp.failures(&rep.results, &mut errors);
                attempted += ops;
                failed += bad;
                untraced_s.push(rep.setup[0] + rep.exec_s);
                workload::check_results(inp, &rep.results, &mut errors);
                match &reference {
                    None => reference = Some(rep.results),
                    Some(r) if *r != rep.results => {
                        errors.push("untraced repetitions differ (same seed)".into())
                    }
                    Some(_) => {}
                }
            }
            Err(e) => {
                attempted += ops_per_rep;
                failed += ops_per_rep;
                errors.push(format!("untraced repetition {e}"));
            }
        }
        let Some(reference) = &reference else { break };
        match workload::guarded(|| traced_rep(inp)) {
            Ok(rep) => {
                attempted += ops_per_rep;
                failed += rep.counters.write_failures;
                traced_s.push(rep.traced_ns as f64 / 1e9);
                for (w, (traced, untraced)) in rep.outcomes.iter().zip(reference).enumerate() {
                    let bad = traced.mismatches(&Outcome::of(untraced));
                    if !bad.is_empty() {
                        errors.push(format!(
                            "traced replica differs from the untraced run (member {w}): {}",
                            bad.join(", ")
                        ));
                    }
                }
                if rep.outcomes.len() != reference.len() {
                    errors.push("traced replica has a different member count".into());
                }
                eprintln!(
                    "perfbench: {} traced rep {}: {:.3} s traced vs {:.3} s untraced",
                    inp.workload.name(),
                    reps.len() + 1,
                    traced_s[traced_s.len() - 1],
                    untraced_s[untraced_s.len() - 1]
                );
                reps.push(rep);
            }
            Err(e) => {
                attempted += ops_per_rep;
                failed += ops_per_rep;
                errors.push(format!("traced repetition {e}"));
            }
        }
    }
    let metrics = match reps.last() {
        Some(last) => {
            let path = std::path::Path::new(".bench_work")
                .join(format!("spans-{}.bin", inp.workload.name()));
            if let Err(e) = last.tracer.write_spans(&path) {
                eprintln!("perfbench: writing {}: {e}", path.display());
            }
            layer_metrics(&reps, median(&traced_s), median(&untraced_s))
        }
        None => Vec::new(),
    };
    if metrics.is_empty() && errors.is_empty() {
        errors.push("no traced repetition completed".into());
    }
    Report {
        errors,
        attempted,
        failed,
        metrics,
    }
}

/// Per-layer metrics over all traced repetitions. Times are self time
/// per primary execution (µs); counts are per repetition (they repeat
/// exactly for a fixed seed).
fn layer_metrics(reps: &[TracedRep], traced_s: f64, untraced_s: f64) -> Vec<Metric> {
    let n = reps.len() as f64;
    let execs: f64 = reps.iter().map(|r| r.counters.execs as f64).sum();
    let ns = |l: Layer| {
        reps.iter()
            .map(|r| r.tracer.ns[l as usize] as f64)
            .sum::<f64>()
    };
    let allocs = |l: Layer| {
        reps.iter()
            .map(|r| r.tracer.allocs[l as usize] as f64)
            .sum::<f64>()
    };
    let per_exec_us = |l: Layer| ns(l) / 1e3 / execs;
    let last = &reps[reps.len() - 1];
    let c = &last.counters;
    // Unique bug ids, sanitizer and divergence, union over members.
    let finds: BTreeSet<&str> = last
        .outcomes
        .iter()
        .flat_map(|o| o.finds.iter().map(|f| f.bug_id.as_str()))
        .collect();
    let writes: f64 = reps.iter().map(|r| r.counters.writes as f64).sum();
    let reads: f64 = reps
        .iter()
        .map(|r| r.tracer.calls[Layer::CheckpointRead as usize] as f64)
        .sum();
    let spanned: f64 = Layer::ALL.iter().map(|&l| ns(l)).sum();
    let traced_total: f64 = reps.iter().map(|r| r.traced_ns as f64).sum();
    let mut m = vec![
        Metric::new("fuzz.mutate.us_per_exec", per_exec_us(Layer::Mutate), "us"),
        Metric::new(
            "fuzz.feedback.us_per_exec",
            per_exec_us(Layer::Feedback),
            "us",
        ),
        Metric::new("fuzz.queued", c.queued as f64, "count"),
        Metric::new(
            "fuzz.queue_yield",
            c.queued as f64 / c.execs as f64,
            "ratio",
        ),
        Metric::new(
            "configurator.us_per_exec",
            per_exec_us(Layer::Configurator),
            "us",
        ),
        Metric::new(
            "engine.prepare.us_per_exec",
            per_exec_us(Layer::EnginePrepare),
            "us",
        ),
        Metric::new("engine.factory_builds", c.factory_builds as f64, "count"),
        Metric::new(
            "engine.image_miss_pct",
            100.0 * c.factory_builds as f64 / c.execs as f64,
            "%",
        ),
        Metric::new(
            "engine.validator_rebuilds",
            c.validator_rebuilds as f64,
            "count",
        ),
        Metric::new("validator.us_per_exec", per_exec_us(Layer::Validator), "us"),
        Metric::new(
            "harness.init.us_per_exec",
            per_exec_us(Layer::HarnessInit),
            "us",
        ),
        Metric::new(
            "harness.runtime.us_per_exec",
            per_exec_us(Layer::HarnessRuntime),
            "us",
        ),
        Metric::new(
            "harness.exits_per_exec",
            c.exits as f64 / c.execs as f64,
            "ratio",
        ),
        Metric::new(
            "coverage.collect.us_per_exec",
            per_exec_us(Layer::CoverageCollect),
            "us",
        ),
        Metric::new(
            "coverage.union.us_per_exec",
            per_exec_us(Layer::CoverageUnion),
            "us",
        ),
        Metric::new("triage.us_per_exec", per_exec_us(Layer::Triage), "us"),
        Metric::new("triage.reports", c.reports as f64, "count"),
        Metric::new("triage.finds", finds.len() as f64, "count"),
        Metric::new(
            "differential.us_per_exec",
            per_exec_us(Layer::Differential),
            "us",
        ),
        Metric::new(
            "differential.backend_execs",
            c.backend_execs as f64,
            "count",
        ),
        Metric::new("differential.divergences", c.divergences as f64, "count"),
        Metric::new(
            "sync.us_total",
            (ns(Layer::SyncPublish) + ns(Layer::SyncApply)) / 1e3 / n,
            "us",
        ),
        Metric::new("sync.deltas_published", c.deltas_published as f64, "count"),
        Metric::new("sync.deltas_applied", c.deltas_applied as f64, "count"),
        Metric::new("sync.adopted", c.adopted as f64, "count"),
        Metric::new(
            "checkpoint.write.ms",
            if writes > 0.0 {
                ns(Layer::CheckpointWrite) / 1e6 / writes
            } else {
                0.0
            },
            "ms",
        ),
        Metric::new("checkpoint.writes", c.writes as f64, "count"),
        Metric::new("checkpoint.bytes", c.checkpoint_bytes as f64, "bytes"),
        Metric::new(
            "checkpoint.read.ms",
            if reads > 0.0 {
                ns(Layer::CheckpointRead) / 1e6 / reads
            } else {
                0.0
            },
            "ms",
        ),
        Metric::new("setup.ms", ns(Layer::Setup) / 1e6 / n, "ms"),
        Metric::new(
            "campaign.sample.us_per_exec",
            per_exec_us(Layer::Sample),
            "us",
        ),
    ];
    for (name, layers) in [
        ("fuzz.mutate", &[Layer::Mutate][..]),
        ("fuzz.feedback", &[Layer::Feedback]),
        ("configurator", &[Layer::Configurator]),
        ("engine.prepare", &[Layer::EnginePrepare]),
        ("validator", &[Layer::Validator]),
        ("harness.init", &[Layer::HarnessInit]),
        ("harness.runtime", &[Layer::HarnessRuntime]),
        ("coverage.collect", &[Layer::CoverageCollect]),
        ("coverage.union", &[Layer::CoverageUnion]),
        ("triage", &[Layer::Triage]),
        ("differential", &[Layer::Differential]),
        ("sync", &[Layer::SyncPublish, Layer::SyncApply]),
        ("checkpoint", &[Layer::CheckpointWrite]),
    ] {
        let a: f64 = layers.iter().map(|&l| allocs(l)).sum();
        m.push(Metric::new(
            format!("{name}.allocs_per_exec"),
            a / execs,
            "count",
        ));
    }
    m.push(Metric::new(
        "trace.attributed_pct",
        100.0 * spanned / traced_total,
        "%",
    ));
    m.push(Metric::new(
        "trace.overhead_pct",
        100.0 * (traced_s / untraced_s - 1.0),
        "%",
    ));
    m.push(Metric::new(
        "trace.execs_per_s",
        execs / (traced_total / 1e9),
        "1/s",
    ));
    m
}
