//! The public cuBLASTP search driver.
//!
//! Orchestrates the whole paper: database blocks stream through the five
//! fine-grained GPU kernels (§3.2–3.5), their extension records cross the
//! modelled PCIe link, and a multicore CPU pool finishes gapped extension
//! and alignment with traceback (§3.6), overlapped block-against-block as
//! in Fig. 12. Output is bit-identical to the FSA-BLAST reference
//! (`blast_cpu::search_sequential`) — the property §4.3 claims and the
//! integration tests enforce.

use crate::binning::BinnedHits;
use crate::cancel::CancelToken;
use crate::config::{CuBlastpConfig, GappedBackend};
use crate::devicedata::{DeviceDb, DeviceDbBlock, DeviceQuery};
use crate::error::{panic_message, PipelineError, SearchError};
use crate::gapped_device::{gapped_fine_kernel, FINE_GAPPED_KERNEL};
use crate::gpu_phase::{
    merge_kernels, run_gpu_phase_seeded, ExtensionsCsr, GpuPhaseCounts, GpuPhaseOutput,
};
use crate::grouped::{grouped_seeding_kernel, DeviceGroupIndex};
use crate::grouping::plan_rounds;
use crate::pipeline::{overlap_blocks_depth, schedule, BlockTiming, PipelineSchedule};
use bio_seq::{DbBlock, Sequence, SequenceDb};
use blast_core::SearchParams;
use blast_cpu::report::{Alignment, PhaseTimes, SearchReport};
use blast_cpu::search::SearchEngine;
use gpu_sim::{DeviceConfig, DeviceError, FaultCtx, FaultInjector, KernelStats, KernelWorkspace};
use rayon::prelude::*;
use serde::{Deserialize, Serialize};
use std::ops::Range;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Timing summary of one cuBLASTP search (figure inputs).
#[derive(Debug, Clone, Copy, Default, PartialEq, Serialize, Deserialize)]
pub struct CuBlastpTiming {
    /// Simulated GPU kernel time (the paper's "critical phases").
    pub gpu_ms: f64,
    /// Modelled host→device transfer time.
    pub h2d_ms: f64,
    /// Modelled device→host transfer time.
    pub d2h_ms: f64,
    /// Measured CPU gapped-extension time.
    pub gapped_ms: f64,
    /// Measured CPU traceback time.
    pub traceback_ms: f64,
    /// Setup + ranking + output ("Other" in Fig. 19d).
    pub other_ms: f64,
    /// Wall-clock of the CPU phase (gapped + traceback) summed over
    /// blocks — the denominator of the Fig. 13 strong-scaling study.
    pub cpu_wall_ms: f64,
    /// Makespan with the Fig. 12 overlap.
    pub overlapped_ms: f64,
    /// Makespan without overlap.
    pub serial_ms: f64,
}

impl CuBlastpTiming {
    /// Total reported time: overlapped pipeline plus the serial "other"
    /// work (database read, DFA/PSSM build, final output).
    pub fn total_ms(&self) -> f64 {
        self.overlapped_ms + self.other_ms
    }

    /// The paper's "critical phases" time: the GPU kernels.
    pub fn critical_ms(&self) -> f64 {
        self.gpu_ms
    }
}

/// What the recovery policy had to do to complete a search (see
/// DESIGN.md §3.3). All zeros on a fault-free run.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct RecoveryReport {
    /// Device faults observed across all blocks and attempts.
    pub faults: u64,
    /// Block launches retried after a transient fault.
    pub retries: u64,
    /// Blocks re-run on the CPU degradation path.
    pub degraded_blocks: u64,
    /// Blocks whose *gapped* device phase fell back to the CPU tail
    /// (`--gapped-backend gpu` only; the hit-path kernels still ran).
    #[serde(default)]
    pub degraded_gapped: u64,
    /// Host wall-clock spent on the retry path, in microseconds: failed
    /// launch attempts, workspace resets and backoff sleeps. Separated
    /// from compute so `--phase-table` can report retry cost distinctly
    /// instead of folding it into phase times.
    #[serde(default)]
    pub retry_wait_us: u64,
    /// Host wall-clock this query spent queued behind earlier work before
    /// its search started, in microseconds. Set by the batch drivers and
    /// the serving layer; zero for a standalone search.
    #[serde(default)]
    pub queue_wait_us: u64,
}

impl RecoveryReport {
    /// True when the search completed without touching the recovery path.
    /// Wait telemetry (`queue_wait_us`, `retry_wait_us`) does not count:
    /// a query that merely queued behind a batch is still clean.
    pub fn is_clean(&self) -> bool {
        self.faults == 0
            && self.retries == 0
            && self.degraded_blocks == 0
            && self.degraded_gapped == 0
    }

    /// Fold another report into this one (batch drivers, the serving
    /// layer, and the sharded engine sum recovery telemetry per query).
    pub fn absorb(&mut self, other: &RecoveryReport) {
        self.faults += other.faults;
        self.retries += other.retries;
        self.degraded_blocks += other.degraded_blocks;
        self.degraded_gapped += other.degraded_gapped;
        self.retry_wait_us += other.retry_wait_us;
        self.queue_wait_us += other.queue_wait_us;
    }
}

/// Progress notification for one completed database block, delivered to
/// [`SearchHooks::on_block`] from the CPU side of the pipeline as soon as
/// the block's tail finishes — the serving layer streams these to clients
/// incrementally instead of waiting for the whole search.
#[derive(Debug)]
pub struct BlockProgress<'a> {
    /// Database block index (pipeline order).
    pub block: u32,
    /// Total database blocks in this search.
    pub blocks_total: u32,
    /// This block's alignments, pre-merge and pre-ranking. Hits from
    /// different blocks never alias, so a consumer can accumulate these
    /// and reach the exact final report (minus `finalize` ranking).
    pub partial: &'a SearchReport,
}

/// Per-search hooks for the serving layer (see DESIGN.md §3.8):
/// cooperative cancellation polled at block boundaries, and an optional
/// per-block streaming callback. [`SearchHooks::default`] is inert — the
/// plain [`CuBlastp::search_resident`] path uses it and pays nothing.
#[derive(Default)]
pub struct SearchHooks<'a> {
    /// Polled between database blocks and at every recovery retry; when it
    /// trips, the search stops at the next checkpoint and returns
    /// [`SearchError::DeadlineExceeded`] with partial-phase telemetry.
    pub cancel: CancelToken,
    /// Called on the consumer thread after each block's CPU tail, with
    /// that block's partial report. Must be cheap; the pipeline blocks on
    /// it.
    pub on_block: Option<&'a (dyn Fn(BlockProgress<'_>) + Sync)>,
}

impl SearchHooks<'_> {
    fn deadline_error(&self, blocks_completed: u32, blocks_total: u32) -> SearchError {
        SearchError::DeadlineExceeded {
            elapsed_ms: self.cancel.elapsed_ms(),
            blocks_completed,
            blocks_total,
        }
    }
}

/// Result of a cuBLASTP search.
#[derive(Debug)]
pub struct CuBlastpResult {
    /// Ranked hit list — identical to the CPU reference.
    pub report: SearchReport,
    /// Per-kernel stats merged across database blocks, in pipeline order.
    pub kernels: Vec<KernelStats>,
    /// Hit/extension counters summed across blocks.
    pub counts: GpuPhaseCounts,
    /// Timing summary.
    pub timing: CuBlastpTiming,
    /// Pipeline schedule details.
    pub pipeline: PipelineSchedule,
    /// Per-block stage times in pipeline order — the raw schedule input,
    /// kept so batch drivers can chain several queries into one timeline.
    pub block_timings: Vec<BlockTiming>,
    /// What the fault-recovery policy did (all zeros when fault-free).
    pub recovery: RecoveryReport,
}

impl CuBlastpResult {
    /// Stats of one kernel by (partial) name.
    pub fn kernel(&self, name: &str) -> Option<&KernelStats> {
        self.kernels.iter().find(|k| k.name.contains(name))
    }
}

/// A configured cuBLASTP searcher for one query.
pub struct CuBlastp {
    /// Shared query state (PSSM, DFA, cutoffs) — also used by the CPU
    /// phases.
    pub engine: SearchEngine,
    /// Simulated device.
    pub device: DeviceConfig,
    /// Pipeline configuration.
    pub config: CuBlastpConfig,
    /// Pooled hit-path scratch, reused across database blocks and across
    /// searches. Batch drivers share one workspace between all queries of
    /// a stream, so after warm-up the hot path performs zero allocations
    /// (see [`KernelWorkspace`]).
    pub workspace: Arc<KernelWorkspace>,
    /// Fault injector consulted at every device fault site. Defaults to
    /// disarmed (never fires); tests and chaos runs arm it with a
    /// [`gpu_sim::FaultPlan`].
    pub injector: Arc<FaultInjector>,
    /// This query's index in a batch stream (0 standalone) — the `query`
    /// coordinate fault specs can scope to.
    pub stream_index: u32,
    query_device: DeviceQuery,
    setup_ms: f64,
}

impl CuBlastp {
    /// Build the searcher: constructs the DFA, PSSM and cutoffs (counted
    /// as "other" time, as the paper does) and uploads the query-side
    /// structures.
    pub fn new(
        query: Sequence,
        params: SearchParams,
        config: CuBlastpConfig,
        device: DeviceConfig,
        db: &SequenceDb,
    ) -> Self {
        Self::with_db_stats(query, params, config, device, db.total_residues(), db.len())
    }

    /// [`new`](Self::new) with explicit database statistics instead of the
    /// database itself — the sharded engine's constructor (DESIGN.md
    /// §3.10). Passing the *global* database's residue and sequence totals
    /// makes every cutoff and E-value identical to a single-database run
    /// while the searches themselves only ever touch shard-local
    /// [`SequenceDb`]s, which is exactly the statistics distribution
    /// mpiBLAST performs for its workers.
    pub fn with_db_stats(
        query: Sequence,
        params: SearchParams,
        config: CuBlastpConfig,
        device: DeviceConfig,
        db_residues: usize,
        db_sequences: usize,
    ) -> Self {
        let t0 = Instant::now();
        let setup_span = obs::span("query_setup", "host");
        let engine = SearchEngine::with_db_stats(query, params, db_residues, db_sequences);
        let query_device = DeviceQuery::upload(engine.dfa.clone(), engine.pssm.clone());
        drop(setup_span);
        let setup_ms = t0.elapsed().as_secs_f64() * 1e3;
        Self {
            engine,
            device,
            config,
            workspace: Arc::new(KernelWorkspace::new()),
            injector: Arc::new(FaultInjector::none()),
            stream_index: 0,
            query_device,
            setup_ms,
        }
    }

    /// Search the database: flatten it into device layout once, then run
    /// the pipeline against the resident copy (charging the upload).
    pub fn search(&self, db: &SequenceDb) -> Result<CuBlastpResult, SearchError> {
        let dev_db = DeviceDb::upload(db, self.config.db_block_size);
        self.search_resident(db, &dev_db, true)
    }

    /// Run one device phase under the recovery policy (DESIGN.md §3.3) —
    /// the one rule for the hit path and the gapped path alike. Transient
    /// faults retry after a workspace reset and linear backoff, and every
    /// retry first polls the deadline. A permanent or retry-exhausted
    /// fault returns `Ok(None)` when the policy allows a CPU fallback (the
    /// caller degrades) and fails the search with [`SearchError::Device`]
    /// otherwise. Failed attempts, resets and backoff are billed to
    /// `retry_wait_us`, not to compute.
    fn recovered<T>(
        &self,
        ctx: FaultCtx,
        blocks_total: u32,
        hooks: &SearchHooks<'_>,
        retry_span: &'static str,
        recovery: &mut RecoveryReport,
        mut attempt: impl FnMut() -> Result<T, DeviceError>,
    ) -> Result<Option<T>, SearchError> {
        let policy = self.config.recovery;
        let mut attempts = 0u32;
        loop {
            attempts += 1;
            // A retry is a fresh launch the deadline must cover: poll the
            // token so an expired query stops retrying and frees its slot.
            if attempts > 1 && hooks.cancel.check() {
                return Err(hooks.deadline_error(ctx.block, blocks_total));
            }
            // Re-launches after a fault get their own span, so retry storms
            // are visible as repeated retry lanes in the trace.
            let _retry_span = if attempts > 1 {
                obs::span(retry_span, "recovery")
                    .with_block(ctx.block)
                    .with_query(ctx.query)
                    .with_arg("attempt", attempts as f64)
            } else {
                obs::PhaseSpan::inert()
            };
            let t_attempt = Instant::now();
            let err = match attempt() {
                Ok(out) => return Ok(Some(out)),
                Err(e) => e,
            };
            recovery.faults += 1;
            obs::counter("recovery_faults_total", &[], 1);
            let retry = err.is_transient() && attempts < policy.max_attempts;
            if retry {
                // A retry starts from known-good device state: drop pooled
                // buffers the failed launch may have left inconsistent,
                // then back off linearly.
                recovery.retries += 1;
                obs::counter("recovery_retries_total", &[], 1);
                self.workspace.reset();
                if policy.backoff_ms > 0.0 {
                    std::thread::sleep(Duration::from_secs_f64(
                        policy.backoff_ms * attempts as f64 / 1e3,
                    ));
                }
            }
            recovery.retry_wait_us += t_attempt.elapsed().as_micros() as u64;
            if retry {
                continue;
            }
            if policy.cpu_fallback {
                return Ok(None);
            }
            return Err(SearchError::Device {
                source: err,
                block: ctx.block,
                attempts,
            });
        }
    }

    /// The hit path of one block (kernels 1–5) under the recovery policy.
    /// `seeded` is this query's slice of a grouped seeding pass, if any:
    /// the first attempt consumes it in place of kernel 1, and a retry
    /// re-seeds through `binning_kernel`, which yields the same hits per
    /// arena slot (the demux invariant of DESIGN.md §3.6). A block the
    /// policy gives up on is re-run on the CPU reference path.
    fn hit_phase(
        &self,
        dev_block: &DeviceDbBlock,
        ctx: FaultCtx,
        blocks_total: u32,
        hooks: &SearchHooks<'_>,
        mut seeded: Option<BinnedHits>,
        recovery: &mut RecoveryReport,
    ) -> Result<GpuPhaseOutput, SearchError> {
        let out = self.recovered(ctx, blocks_total, hooks, "block_retry", recovery, || {
            run_gpu_phase_seeded(
                &self.device,
                &self.config,
                &self.query_device,
                dev_block,
                &self.engine.params,
                &self.workspace,
                &self.injector,
                ctx,
                seeded.take(),
            )
        })?;
        Ok(out.unwrap_or_else(|| {
            recovery.degraded_blocks += 1;
            obs::counter("recovery_degraded_blocks_total", &[], 1);
            let _fb_span = obs::span("cpu_fallback", "recovery")
                .with_block(ctx.block)
                .with_query(ctx.query);
            self.cpu_fallback_phase(dev_block)
        }))
    }

    /// Run the gapped backend for one block whose hit phase is done:
    /// under [`GappedBackend::Gpu`] the fine kernel (DESIGN.md §3.7)
    /// produces the block's alignments on the device under the recovery
    /// policy — its stats join `out.kernels` as the 6th entry and its
    /// alignment download joins `out.download_bytes`. A fault the policy
    /// gives up on degrades *only this block's gapped phase* to the CPU
    /// tail (`Ok(None)`, zeroed 6th entry; the hit-path output stays
    /// valid). Under [`GappedBackend::Cpu`] this is a no-op and the CPU
    /// tail owns the gapped phase.
    fn gapped_phase(
        &self,
        dev_block: &DeviceDbBlock,
        out: &mut GpuPhaseOutput,
        ctx: FaultCtx,
        blocks_total: u32,
        hooks: &SearchHooks<'_>,
        recovery: &mut RecoveryReport,
    ) -> Result<Option<Vec<Vec<Alignment>>>, SearchError> {
        if self.config.gapped_backend != GappedBackend::Gpu {
            return Ok(None);
        }
        let extensions = &out.extensions;
        let run = self.recovered(ctx, blocks_total, hooks, "gapped_retry", recovery, || {
            let _span = obs::span("gapped_device", "gpu")
                .with_block(ctx.block)
                .with_query(ctx.query);
            gapped_fine_kernel(
                &self.device,
                &self.config,
                &self.query_device,
                self.engine.query.residues(),
                dev_block,
                extensions,
                &self.engine.params,
                self.engine.cutoffs.gapped_trigger,
                self.engine.cutoffs.report_cutoff,
                &self.workspace,
                &self.injector,
                ctx,
            )
        })?;
        match run {
            Some(g) => {
                if obs::state() != 0 {
                    let sim_ms = g.stats.time_ms(&self.device);
                    obs::modelled(
                        "gpu (modelled)",
                        "gapped_extension_fine",
                        sim_ms,
                        Some(ctx.block),
                        None,
                    );
                    obs::observe("kernel_sim_ms", &[("kernel", FINE_GAPPED_KERNEL)], sim_ms);
                }
                out.download_bytes += g.download_bytes;
                out.kernels.push(g.stats);
                Ok(Some(g.alignments))
            }
            None => {
                recovery.degraded_gapped += 1;
                obs::counter("recovery_degraded_gapped_total", &[], 1);
                // A zeroed 6th entry keeps the positional per-kernel merge
                // aligned across blocks; `None` routes this block's tail to
                // the CPU gapped phase (bit-identical by construction).
                out.kernels.push(KernelStats::new(FINE_GAPPED_KERNEL));
                Ok(None)
            }
        }
    }

    /// Degradation path: reproduce the GPU phase for one block on the CPU
    /// reference scan (`blast_cpu::hit`). The extension records — and so
    /// every downstream alignment — are bit-identical to what the kernels
    /// produce (the equivalence the `extensions_match_cpu_reference` test
    /// pins down); only the performance counters differ (zeroed kernel
    /// stats: the block did no simulated GPU work).
    fn cpu_fallback_phase(&self, db: &DeviceDbBlock) -> GpuPhaseOutput {
        let p = &self.engine.params;
        let mut scratch = blast_cpu::hit::DiagonalScratch::new(0);
        let mut stats = blast_cpu::hit::HitStats::default();
        let mut stream = Vec::new();
        for i in 0..db.num_seqs() {
            blast_cpu::hit::scan_subject_mode(
                &self.query_device.dfa,
                &self.query_device.pssm,
                db.seq(i),
                i as u32,
                p.two_hit,
                p.two_hit_window as i64,
                p.xdrop_ungapped,
                &mut scratch,
                &mut stream,
                &mut stats,
            );
        }
        // The GPU phase emits each subject's records sorted by the packed
        // hit key; the same order here keeps the CSR bit-identical.
        stream.sort_by_key(|e| (e.seq_id, e.s_start, e.q_start, e.len));
        let n_ext = stream.len() as u64;
        let download_bytes = n_ext * std::mem::size_of::<blast_cpu::ungapped::UngappedExt>() as u64;
        GpuPhaseOutput {
            extensions: ExtensionsCsr::from_stream(stream, db.num_seqs()),
            // Zeroed stats under the standard names keep the per-kernel
            // merge across blocks aligned.
            kernels: [
                "hit_detection",
                "hit_assembling",
                "hit_sorting",
                "hit_filtering",
                self.config.extension.kernel_name(),
            ]
            .into_iter()
            .map(KernelStats::new)
            .collect(),
            counts: GpuPhaseCounts {
                hits: stats.hits,
                filtered: stats.triggers,
                extensions: n_ext,
                redundant: 0,
            },
            download_bytes,
        }
    }

    /// CPU tail for one block: gapped extension + traceback over the
    /// block's extension CSR on the shared pool, with the phase's metrics.
    /// Returns the block report and records the two sub-phases' modelled
    /// multicore wall-clock (Fig. 13 scaling) on `b`.
    fn cpu_finish_block(&self, db: &SequenceDb, b: &mut BlockRun) -> SearchReport {
        let (base, csr) = (b.base, &b.out.extensions);
        let mut cpu_span = obs::span("cpu_phase", "cpu").with_query(self.stream_index);
        let mut times = PhaseTimes::default();
        let partials: Vec<(SearchReport, PhaseTimes)> =
            blast_cpu::search::shared_pool().install(|| {
                (0..csr.num_seqs())
                    .into_par_iter()
                    .filter(|&local| !csr.seq(local).is_empty())
                    .map(|local| {
                        let idx = base + local;
                        let mut report = SearchReport::default();
                        let mut t = PhaseTimes::default();
                        self.engine.finish_subject(
                            idx,
                            &db.sequences()[idx],
                            csr.seq(local),
                            &mut report,
                            Some(&mut t),
                        );
                        (report, t)
                    })
                    .collect()
            });
        let mut report = SearchReport::default();
        for (partial, t) in partials {
            report.hits.extend(partial.hits);
            times.add(&t);
        }
        // Modelled multicore wall-clock: summed per-subject phase time
        // over the Fig. 13 scaling curve.
        let cpu_scale = 1.0 / blast_cpu::search::modeled_parallel_speedup(self.config.cpu_threads);
        let gapped_ms = times.gapped.as_secs_f64() * 1e3 * cpu_scale;
        let traceback_ms = times.traceback.as_secs_f64() * 1e3 * cpu_scale;
        if obs::state() != 0 {
            cpu_span.set_arg("gapped_ms", gapped_ms);
            cpu_span.set_arg("traceback_ms", traceback_ms);
            // The two CPU sub-phases interleave per subject on the pool,
            // so their wall-clocks are modelled lanes (like the GPU
            // kernels), while `cpu_phase` above is the measured host span.
            let q = Some(self.stream_index);
            obs::modelled(
                "cpu tail (modelled)",
                "gapped_extension",
                gapped_ms,
                None,
                q,
            );
            obs::modelled("cpu tail (modelled)", "traceback", traceback_ms, None, q);
            obs::observe("gapped_ms", &[], gapped_ms);
            obs::observe("traceback_ms", &[], traceback_ms);
            obs::counter("alignments_total", &[], report.hits.len() as u64);
        }
        drop(cpu_span);
        b.gapped_ms = gapped_ms;
        b.traceback_ms = traceback_ms;
        b.timing.cpu_ms = gapped_ms + traceback_ms;
        report
    }

    /// CPU reporting tail for one block whose gapped extension *and*
    /// traceback already ran on the device (`--gapped-backend gpu`):
    /// statistics and e-value filtering over the downloaded alignments
    /// only. Returns the block report and records the measured host
    /// wall-clock of the reporting pass as the block's CPU stage (the CPU
    /// lane all but vanishes — the gapped work now shows up in the block's
    /// kernel time instead).
    fn cpu_report_block(
        &self,
        db: &SequenceDb,
        b: &mut BlockRun,
        alignments: &[Vec<Alignment>],
    ) -> SearchReport {
        let t0 = Instant::now();
        let base = b.base;
        let cpu_span = obs::span("cpu_report", "cpu").with_query(self.stream_index);
        let mut report = SearchReport::default();
        for (local, aligns) in alignments.iter().enumerate() {
            if aligns.is_empty() {
                continue;
            }
            let idx = base + local;
            self.engine
                .report_from_alignments(idx, &db.sequences()[idx], aligns, &mut report);
        }
        if obs::state() != 0 {
            obs::counter("alignments_total", &[], report.hits.len() as u64);
        }
        drop(cpu_span);
        b.timing.cpu_ms = t0.elapsed().as_secs_f64() * 1e3;
        report
    }

    /// Search against a database already resident on the device (see
    /// [`DeviceDb`]). `charge_h2d` controls whether the database upload is
    /// billed to this query's timing: a standalone search pays it; in a
    /// batch only the first query does, the rest reuse the resident copy.
    pub fn search_resident(
        &self,
        db: &SequenceDb,
        dev_db: &DeviceDb,
        charge_h2d: bool,
    ) -> Result<CuBlastpResult, SearchError> {
        self.search_resident_with_hooks(db, dev_db, charge_h2d, &SearchHooks::default())
    }

    /// [`search_resident`](Self::search_resident) with serving-layer hooks
    /// (DESIGN.md §3.8): the hooks' [`CancelToken`] is polled at every
    /// block boundary (GPU side, CPU side, and recovery retries) so an
    /// expired query returns [`SearchError::DeadlineExceeded`] between
    /// blocks instead of running to completion, and `on_block` streams
    /// each block's partial report as soon as its CPU tail finishes.
    /// With default hooks this is exactly `search_resident`.
    pub fn search_resident_with_hooks(
        &self,
        db: &SequenceDb,
        dev_db: &DeviceDb,
        charge_h2d: bool,
        hooks: &SearchHooks<'_>,
    ) -> Result<CuBlastpResult, SearchError> {
        self.search_blocks(db, dev_db, charge_h2d, hooks, None)
    }

    /// The block loop every search runs (Fig. 12): each resident block
    /// goes through the hit path, the gapped backend and the CPU tail,
    /// GPU and CPU sides overlapped, under one recovery policy with
    /// cancellation checkpoints and per-block streaming. `seeded` carries
    /// the prebinned arenas, in block order, of a grouped seeding round
    /// that already did this query's hit detection (DESIGN.md §3.6); a
    /// block without one is seeded by kernel 1.
    fn search_blocks(
        &self,
        db: &SequenceDb,
        dev_db: &DeviceDb,
        charge_h2d: bool,
        hooks: &SearchHooks<'_>,
        seeded: Option<Vec<BinnedHits>>,
    ) -> Result<CuBlastpResult, SearchError> {
        let _search_span = obs::span("search", "host").with_query(self.stream_index);
        self.config.validate()?;
        // Record which SIMD instruction set the CPU phases (gapped
        // extension, traceback) dispatch to for this search.
        let dispatch = blast_cpu::simd::dispatch_report();
        obs::gauge("cpu_simd_dispatch", &[("isa", dispatch.active.name())], 1.0);
        // ... and which backend owns the gapped phase (§3.7).
        obs::gauge(
            "gapped_backend",
            &[("backend", self.config.gapped_backend.name())],
            1.0,
        );
        if dev_db.block_size() != self.config.db_block_size {
            return Err(SearchError::config(format!(
                "resident database was partitioned at block size {}, config wants {}",
                dev_db.block_size(),
                self.config.db_block_size
            )));
        }
        let device = self.device;

        let blocks_total = dev_db.blocks().len() as u32;
        // Reject an already-expired request before any device work: the
        // serving layer admits with the deadline clock already running.
        if hooks.cancel.is_cancelled() {
            return Err(hooks.deadline_error(0, blocks_total));
        }

        // GPU side of one block: five kernels over the resident block
        // (six under the device gapped backend), under the recovery
        // policy, plus the modelled PCIe legs.
        type BlockInput = (usize, DbBlock, Arc<DeviceDbBlock>, Option<BinnedHits>);
        let gpu_side = |(idx, block, dev_block, seeded): BlockInput| {
            // Cancellation checkpoint between blocks: an expired query
            // stops launching kernels and frees the device mid-search.
            if hooks.cancel.check() {
                return Err(hooks.deadline_error(idx as u32, blocks_total));
            }
            let ctx = FaultCtx {
                query: self.stream_index,
                block: idx as u32,
            };
            let h2d_ms = if charge_h2d {
                let ms = device.transfer_ms(dev_block.upload_bytes());
                obs::modelled(
                    "pcie h2d (modelled)",
                    "h2d_transfer",
                    ms,
                    Some(ctx.block),
                    Some(ctx.query),
                );
                obs::counter(
                    "pcie_bytes_total",
                    &[("dir", "h2d")],
                    dev_block.upload_bytes(),
                );
                ms
            } else {
                0.0
            };
            let mut recovery = RecoveryReport::default();
            let mut out =
                self.hit_phase(&dev_block, ctx, blocks_total, hooks, seeded, &mut recovery)?;
            let aligns = self.gapped_phase(
                &dev_block,
                &mut out,
                ctx,
                blocks_total,
                hooks,
                &mut recovery,
            )?;
            let d2h_ms = device.transfer_ms(out.download_bytes);
            obs::modelled(
                "pcie d2h (modelled)",
                "d2h_transfer",
                d2h_ms,
                Some(ctx.block),
                Some(ctx.query),
            );
            obs::counter("pcie_bytes_total", &[("dir", "d2h")], out.download_bytes);
            Ok(BlockRun {
                idx: ctx.block,
                base: block.start,
                timing: BlockTiming {
                    h2d_ms,
                    gpu_ms: out.gpu_ms(&device),
                    d2h_ms,
                    cpu_ms: 0.0,
                },
                out,
                aligns,
                recovery,
                gapped_ms: 0.0,
                traceback_ms: 0.0,
            })
        };

        // CPU side of one block: gapped extension + traceback on the
        // shared pool. The pool never oversubscribes the host; wall-clock
        // at the requested thread count is modelled from the summed
        // per-subject times (see `blast_cpu::search::modeled_parallel_speedup`).
        // A failed block skips the CPU phase and carries its error through.
        let cpu_side = |gpu_out: Result<BlockRun, SearchError>| {
            let mut b = gpu_out?;
            // Checkpoint before the CPU tail: the GPU side may be a block
            // ahead, so an expired query skips its remaining host work too.
            if hooks.cancel.check() {
                return Err(hooks.deadline_error(b.idx, blocks_total));
            }
            let report = match b.aligns.take() {
                // Device gapped backend: the alignments came down the PCIe
                // link already — the CPU lane only does statistics.
                Some(a) => self.cpu_report_block(db, &mut b, &a),
                None => self.cpu_finish_block(db, &mut b),
            };
            if let Some(on_block) = hooks.on_block {
                on_block(BlockProgress {
                    block: b.idx,
                    blocks_total,
                    partial: &report,
                });
            }
            Ok((report, b))
        };

        // Run the pipeline: actually overlapped (two host threads) when
        // configured, serial otherwise. Functional output is identical.
        let mut seeds = seeded.map(Vec::into_iter);
        let inputs: Vec<BlockInput> = dev_db
            .blocks()
            .iter()
            .enumerate()
            .map(|(idx, (b, d))| {
                (
                    idx,
                    *b,
                    Arc::clone(d),
                    seeds.as_mut().and_then(Iterator::next),
                )
            })
            .collect();
        let block_results: Vec<Result<(SearchReport, BlockRun), SearchError>> =
            if self.config.overlap {
                overlap_blocks_depth(self.config.pipeline.depth, inputs, gpu_side, cpu_side)
                    .map_err(SearchError::Pipeline)?
            } else {
                inputs.into_iter().map(|b| cpu_side(gpu_side(b))).collect()
            };

        // Merge.
        let t_merge = Instant::now();
        let merge_span = obs::span("merge", "host").with_query(self.stream_index);
        let mut report = SearchReport::default();
        let mut kernels: Vec<KernelStats> = Vec::new();
        let mut counts = GpuPhaseCounts::default();
        let mut timings: Vec<BlockTiming> = Vec::new();
        let mut timing = CuBlastpTiming::default();
        let mut recovery = RecoveryReport::default();
        for block_result in block_results {
            let (partial, b) = block_result?;
            report.hits.extend(partial.hits);
            recovery.absorb(&b.recovery);
            counts.add(&b.out.counts);
            merge_kernels(&mut kernels, b.out.kernels);
            timing.gpu_ms += b.timing.gpu_ms;
            timing.h2d_ms += b.timing.h2d_ms;
            timing.d2h_ms += b.timing.d2h_ms;
            timing.gapped_ms += b.gapped_ms;
            timing.traceback_ms += b.traceback_ms;
            timing.cpu_wall_ms += b.timing.cpu_ms;
            timings.push(b.timing);
        }
        report.finalize(self.engine.params.max_reported);
        let pipeline = schedule(&timings);
        timing.overlapped_ms = pipeline.overlapped_ms;
        timing.serial_ms = pipeline.serial_ms;
        timing.other_ms = self.setup_ms + t_merge.elapsed().as_secs_f64() * 1e3;
        drop(merge_span);
        if obs::metrics_enabled() {
            let checkouts = self.workspace.checkouts();
            let allocs = self.workspace.allocations();
            if checkouts > 0 {
                let hit_rate = 1.0 - allocs as f64 / checkouts as f64;
                obs::gauge("workspace_pool_hit_rate", &[], hit_rate);
            }
        }

        Ok(CuBlastpResult {
            report,
            kernels,
            counts,
            timing,
            pipeline,
            block_timings: timings,
            recovery,
        })
    }
}

/// One database block between the two sides of the pipeline.
struct BlockRun {
    idx: u32,
    /// Global index of the block's first subject.
    base: usize,
    out: GpuPhaseOutput,
    /// Alignments the device gapped backend produced, if it ran.
    aligns: Option<Vec<Vec<Alignment>>>,
    recovery: RecoveryReport,
    /// Modelled stage times; the CPU side fills in `cpu_ms`.
    timing: BlockTiming,
    /// Modelled wall-clock of the CPU gapped extension and traceback.
    gapped_ms: f64,
    traceback_ms: f64,
}

/// How a batch detects word hits (see DESIGN.md §3.6).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub enum SeedMode {
    /// One hit-detection pass per query through that query's DFA — the
    /// paper's Algorithm 2, and the default.
    #[default]
    PerQuery,
    /// One pass per query *group*: queries are packed into
    /// index-budget-bounded rounds, each round probes a shared
    /// [`blast_core::QueryIndex`] over every database block once, and hits
    /// are demuxed back into per-query arenas. Per-query output is
    /// bit-identical to [`SeedMode::PerQuery`].
    Grouped,
}

/// Default device index budget for [`SeedMode::Grouped`], in word →
/// (query, position) entries. Roughly the combined neighbourhood of 16–24
/// typical queries; see DESIGN.md §3.6 for the occupancy trade-off.
pub const DEFAULT_GROUP_BUDGET: usize = 65_536;

/// One grouped seeding round: the group it covered and what its shared
/// index looked like.
#[derive(Debug, Clone, Serialize)]
pub struct RoundReport {
    /// Batch indices covered by this round (contiguous, in input order).
    pub first_query: usize,
    /// Number of group members.
    pub members: usize,
    /// Word → (query, position) entries in the round's index.
    pub index_entries: usize,
    /// Slot-table capacity (power of two).
    pub index_capacity: usize,
    /// Filled fraction of the slot table.
    pub occupancy: f64,
    /// Modelled H2D payload of the index upload.
    pub index_upload_bytes: u64,
    /// Simulated time of the round's seeding passes, summed over database
    /// blocks.
    pub seeding_ms: f64,
    /// Database blocks the round passed over.
    pub blocks: usize,
}

impl RoundReport {
    /// Amortized seeding cost: simulated milliseconds per database block
    /// per group member — the quantity `bench --bin grouped_seeding`
    /// sweeps against batch size.
    pub fn seeding_ms_per_block_query(&self) -> f64 {
        if self.blocks == 0 || self.members == 0 {
            0.0
        } else {
            self.seeding_ms / (self.blocks as f64 * self.members as f64)
        }
    }
}

/// What the grouped seeding engine did for a batch. Present on
/// [`BatchOutcome`] exactly when the batch ran with
/// [`SeedMode::Grouped`] — callers (and the CI equivalence job) use it to
/// verify the grouped path actually ran instead of silently falling back.
#[derive(Debug, Clone, Serialize)]
pub struct GroupedReport {
    /// One entry per seeding round, in batch order.
    pub rounds: Vec<RoundReport>,
}

impl GroupedReport {
    /// Total simulated seeding time across rounds and blocks.
    pub fn total_seeding_ms(&self) -> f64 {
        self.rounds.iter().map(|r| r.seeding_ms).sum()
    }

    /// Queries covered by the rounds (must equal the batch size).
    pub fn queries_covered(&self) -> usize {
        self.rounds.iter().map(|r| r.members).sum()
    }

    /// Amortized seeding cost over the whole batch: simulated
    /// milliseconds per database block per query.
    pub fn seeding_ms_per_block_query(&self) -> f64 {
        let block_queries: usize = self.rounds.iter().map(|r| r.blocks * r.members).sum();
        if block_queries == 0 {
            0.0
        } else {
            self.total_seeding_ms() / block_queries as f64
        }
    }
}

/// Outcome of a multi-query batch (see [`search_batch`]).
pub struct BatchOutcome {
    /// Per-query results, in input order. A failed (or panicked) query is
    /// an `Err` in its slot; the rest of the batch completes normally.
    pub per_query: Vec<Result<CuBlastpResult, SearchError>>,
    /// Modelled makespan with the database resident on the device: one
    /// pipeline timeline chained over every (query, block) pair, with the
    /// host→device upload paid once for the whole batch.
    pub batch_ms: f64,
    /// Modelled makespan if each query ran standalone, re-uploading the
    /// database and draining the pipeline between queries.
    pub unbatched_ms: f64,
    /// Measured host wall-clock for the whole batch (setup included).
    pub wall_ms: f64,
    /// Grouped seeding telemetry — `Some` exactly when the batch ran with
    /// [`SeedMode::Grouped`], `None` on the per-query path.
    pub grouped: Option<GroupedReport>,
}

impl BatchOutcome {
    /// Fraction of time saved by keeping the database resident.
    pub fn saving(&self) -> f64 {
        if self.unbatched_ms <= 0.0 {
            0.0
        } else {
            1.0 - self.batch_ms / self.unbatched_ms
        }
    }

    /// Modelled batch throughput in queries per second.
    pub fn queries_per_sec(&self) -> f64 {
        if self.batch_ms <= 0.0 {
            0.0
        } else {
            self.per_query.len() as f64 * 1e3 / self.batch_ms
        }
    }

    /// Queries that completed successfully.
    pub fn succeeded(&self) -> usize {
        self.per_query.iter().filter(|r| r.is_ok()).count()
    }

    /// Queries that failed, with their input index and error.
    pub fn failures(&self) -> impl Iterator<Item = (usize, &SearchError)> {
        self.per_query
            .iter()
            .enumerate()
            .filter_map(|(i, r)| r.as_ref().err().map(|e| (i, e)))
    }
}

/// Options for a multi-query batch.
#[derive(Debug, Clone)]
pub struct BatchOptions {
    /// Run the queries concurrently on the shared CPU pool. Results stay
    /// in input order and bit-identical to the serial path; only host
    /// wall-clock changes, never the modelled timings.
    pub parallel: bool,
    /// Fault injector shared by every query of the stream (disarmed when
    /// `None`). Specs can scope to a query index with
    /// [`gpu_sim::FaultSpec::on_query`].
    pub injector: Option<Arc<FaultInjector>>,
    /// Hit-detection strategy: per-query DFA passes (default) or grouped
    /// index passes. Per-query output is bit-identical either way.
    pub seed_mode: SeedMode,
    /// Device index budget for [`SeedMode::Grouped`], in word →
    /// (query, position) entries per round. Ignored in per-query mode.
    pub group_budget: usize,
}

impl Default for BatchOptions {
    fn default() -> Self {
        Self {
            parallel: false,
            injector: None,
            seed_mode: SeedMode::default(),
            group_budget: DEFAULT_GROUP_BUDGET,
        }
    }
}

/// Search a batch of queries against one database, keeping the database
/// resident on the device so its upload cost amortizes across queries —
/// how real GPU BLAST deployments process query streams (and the NGS
/// workload the paper's introduction motivates). Serial driver; see
/// [`search_batch_parallel`] for the concurrent one.
pub fn search_batch(
    queries: &[Sequence],
    params: SearchParams,
    config: CuBlastpConfig,
    device: DeviceConfig,
    db: &SequenceDb,
) -> BatchOutcome {
    search_batch_with(queries, params, config, device, db, BatchOptions::default())
}

/// [`search_batch`] with query setup and searches run concurrently on the
/// shared CPU pool.
pub fn search_batch_parallel(
    queries: &[Sequence],
    params: SearchParams,
    config: CuBlastpConfig,
    device: DeviceConfig,
    db: &SequenceDb,
) -> BatchOutcome {
    search_batch_with(
        queries,
        params,
        config,
        device,
        db,
        BatchOptions {
            parallel: true,
            ..Default::default()
        },
    )
}

/// Batch driver. The database is flattened into device layout exactly
/// once ([`DeviceDb`]) and every query searches the resident copy. Queries
/// run in rounds: under [`SeedMode::PerQuery`] each query is a round of
/// its own that seeds every block with kernel 1; under
/// [`SeedMode::Grouped`] the batch is packed into index-budget-bounded
/// rounds, each round runs one grouped seeding pass per database block,
/// and every member's search consumes its demuxed arenas in place of
/// kernel 1. Either way every member runs the one block loop of
/// [`CuBlastp::search_resident_with_hooks`], with its retry, degradation
/// and overlap, and per-query reports are bit-identical across modes.
///
/// The batched makespan chains all queries' block timings through one
/// [`schedule`] timeline, so later queries' GPU work overlaps earlier
/// queries' CPU tail across query boundaries. Queries are isolated: set-up
/// and search each run under [`catch_unwind`], so a poisoned query lands
/// as an `Err` in its own `per_query` slot while every other query
/// completes normally.
pub fn search_batch_with(
    queries: &[Sequence],
    params: SearchParams,
    config: CuBlastpConfig,
    device: DeviceConfig,
    db: &SequenceDb,
    opts: BatchOptions,
) -> BatchOutcome {
    let t0 = Instant::now();
    let dev_db = DeviceDb::upload(db, config.db_block_size);
    // One scratch pool for the whole stream: buffers warmed by early
    // queries serve every later one.
    let workspace = Arc::new(KernelWorkspace::new());
    let grouped = opts.seed_mode == SeedMode::Grouped;

    let setup = |(i, q): (usize, &Sequence)| {
        setup_stream_query(i, &workspace, opts.injector.as_ref(), || {
            CuBlastp::new(q.clone(), params, config, device, db)
        })
    };
    let setups: Vec<Result<CuBlastp, SearchError>> = if opts.parallel {
        blast_cpu::search::shared_pool()
            .install(|| queries.par_iter().enumerate().map(setup).collect())
    } else {
        queries.iter().enumerate().map(setup).collect()
    };
    // A failed set-up already holds its slot's error; the rest are searched.
    let mut slots: Vec<(usize, Result<CuBlastpResult, SearchError>)> = Vec::new();
    let mut searchers: Vec<(usize, CuBlastp)> = Vec::with_capacity(queries.len());
    for (i, s) in setups.into_iter().enumerate() {
        match s {
            Ok(s) => searchers.push((i, s)),
            Err(e) => slots.push((i, Err(e))),
        }
    }

    let rounds: Vec<Range<usize>> = if grouped {
        let entry_counts: Vec<usize> = searchers
            .iter()
            .map(|(_, s)| s.query_device.dfa.neighborhood().total_entries())
            .collect();
        let rounds = plan_rounds(&entry_counts, opts.group_budget);
        obs::counter("grouped_rounds_total", &[], rounds.len() as u64);
        rounds
    } else {
        (0..searchers.len()).map(|k| k..k + 1).collect()
    };

    let run_round = |round: &Range<usize>| -> RoundRun {
        let members = &searchers[round.clone()];
        let (seeding, bins) = grouped
            .then(|| seed_round(members, &dev_db, &device, &config, &workspace))
            .unzip();
        let mut member_bins = bins.map(Vec::into_iter);
        let results = members
            .iter()
            .map(|(qi, searcher)| {
                let seeded = member_bins.as_mut().and_then(Iterator::next);
                // Per-query, the first query pays the database upload; a
                // grouped batch bills it to its first seeding pass instead.
                let charge_h2d = !grouped && *qi == 0;
                let result = run_stream_query(t0, "batch_queries_total", || {
                    let _batch_span = obs::span("batch_query", "batch").with_query(*qi as u32);
                    searcher.search_blocks(db, &dev_db, charge_h2d, &SearchHooks::default(), seeded)
                });
                (*qi, result)
            })
            .collect();
        RoundRun { seeding, results }
    };
    let runs: Vec<RoundRun> = if opts.parallel {
        blast_cpu::search::shared_pool().install(|| rounds.par_iter().map(run_round).collect())
    } else {
        rounds.iter().map(run_round).collect()
    };
    let wall_ms = t0.elapsed().as_secs_f64() * 1e3;

    // With the concurrent per-query driver, query setups (DFA/PSSM build —
    // "other") run on the pool while earlier queries stream through the
    // pipeline. Model them as work on the serial CPU resource of the
    // timeline — overlapping other queries' device stages but contending
    // with the gapped/traceback tail — at the concurrency the batch
    // actually offers: min(modelled multicore speedup, batch size). A
    // grouped batch needs every set-up before its first round, so its
    // set-ups stay serial.
    let setup_scale = (opts.parallel && !grouped).then(|| {
        blast_cpu::search::modeled_parallel_speedup(config.cpu_threads)
            .min(queries.len() as f64)
            .max(1.0)
    });
    let (batch_ms, unbatched_ms) = batch_timelines(&runs, &dev_db, &device, setup_scale);

    let mut round_reports = Vec::new();
    for run in runs {
        round_reports.extend(run.seeding.map(|s| s.report));
        slots.extend(run.results);
    }
    slots.sort_by_key(|(i, _)| *i);
    BatchOutcome {
        per_query: slots.into_iter().map(|(_, r)| r).collect(),
        batch_ms,
        unbatched_ms,
        wall_ms,
        grouped: grouped.then_some(GroupedReport {
            rounds: round_reports,
        }),
    }
}

/// Run `f` with panics isolated: a panic becomes a
/// [`PipelineError::WorkerPanicked`] naming `side`, so one poisoned query
/// fails alone while the rest of its batch completes.
fn isolated<T>(
    side: &'static str,
    f: impl FnOnce() -> Result<T, SearchError>,
) -> Result<T, SearchError> {
    catch_unwind(AssertUnwindSafe(f)).unwrap_or_else(|payload| {
        Err(SearchError::Pipeline(PipelineError::WorkerPanicked {
            side,
            payload: panic_message(payload.as_ref()),
        }))
    })
}

/// Set up query `index` of a batch stream, panic-isolated: `build` makes
/// the searcher (DFA, PSSM, cutoffs), which then joins the stream's
/// shared workspace and fault injector under its stream index.
pub(crate) fn setup_stream_query(
    index: usize,
    workspace: &Arc<KernelWorkspace>,
    injector: Option<&Arc<FaultInjector>>,
    build: impl FnOnce() -> CuBlastp,
) -> Result<CuBlastp, SearchError> {
    isolated("batch query setup", || {
        let mut searcher = build();
        searcher.workspace = Arc::clone(workspace);
        if let Some(inj) = injector {
            searcher.injector = Arc::clone(inj);
        }
        searcher.stream_index = index as u32;
        Ok(searcher)
    })
}

/// Run one set-up query of a batch stream, panic-isolated: the result
/// records the time since batch start `t0` as its queue wait (telemetry,
/// apart from compute) and the outcome is counted under `counter`.
pub(crate) fn run_stream_query(
    t0: Instant,
    counter: &'static str,
    search: impl FnOnce() -> Result<CuBlastpResult, SearchError>,
) -> Result<CuBlastpResult, SearchError> {
    let queue_wait_us = t0.elapsed().as_micros() as u64;
    let mut result = isolated("batch query", search);
    if let Ok(r) = &mut result {
        r.recovery.queue_wait_us = queue_wait_us;
        obs::observe("batch_queue_wait_ms", &[], queue_wait_us as f64 / 1e3);
    }
    let outcome = if result.is_ok() { "ok" } else { "err" };
    obs::counter(counter, &[("outcome", outcome)], 1);
    result
}

/// One round of a batch: its grouped seeding pass (`None` per-query) and
/// its members' results in batch order.
struct RoundRun {
    seeding: Option<RoundSeeding>,
    results: Vec<(usize, Result<CuBlastpResult, SearchError>)>,
}

/// What one grouped seeding pass cost, for the batch timelines.
struct RoundSeeding {
    report: RoundReport,
    /// Simulated seeding time per database block.
    block_ms: Vec<f64>,
}

/// One grouped seeding pass over every resident block for the round's
/// `members`: upload their shared word index, probe each block once, and
/// demux the hits into one arena per (member, block).
fn seed_round(
    members: &[(usize, CuBlastp)],
    dev_db: &DeviceDb,
    device: &DeviceConfig,
    config: &CuBlastpConfig,
    workspace: &KernelWorkspace,
) -> (RoundSeeding, Vec<Vec<BinnedHits>>) {
    let first_query = members.first().map_or(0, |(qi, _)| *qi);
    let member_queries: Vec<&DeviceQuery> = members.iter().map(|(_, s)| &s.query_device).collect();
    let group = {
        let _span = obs::span("group_index_build", "grouped").with_query(first_query as u32);
        DeviceGroupIndex::upload(&member_queries)
    };
    let index = group.index();
    obs::gauge("group_index_occupancy", &[], index.occupancy());
    obs::gauge("group_index_entries", &[], index.entries() as f64);
    obs::gauge("group_members", &[], members.len() as f64);

    let num_blocks = dev_db.blocks().len();
    let mut per_member_bins: Vec<Vec<BinnedHits>> = (0..members.len())
        .map(|_| Vec::with_capacity(num_blocks))
        .collect();
    let mut block_ms = Vec::with_capacity(num_blocks);
    for (idx, (_, dev_block)) in dev_db.blocks().iter().enumerate() {
        let mut k_span = obs::span("grouped_seeding", "kernel").with_block(idx as u32);
        let (bins, stats) = grouped_seeding_kernel(device, config, &group, dev_block, workspace);
        let sim_ms = stats.time_ms(device);
        k_span.set_arg("sim_ms", sim_ms);
        drop(k_span);
        obs::modelled(
            "gpu (modelled)",
            "grouped_seeding",
            sim_ms,
            Some(idx as u32),
            None,
        );
        block_ms.push(sim_ms);
        for (m, b) in bins.into_iter().enumerate() {
            per_member_bins[m].push(b);
        }
    }
    let seeding = RoundSeeding {
        report: RoundReport {
            first_query,
            members: members.len(),
            index_entries: index.entries(),
            index_capacity: index.capacity(),
            occupancy: index.occupancy(),
            index_upload_bytes: group.upload_bytes(),
            seeding_ms: block_ms.iter().sum(),
            blocks: num_blocks,
        },
        block_ms,
    };
    (seeding, per_member_bins)
}

/// The batch's two modelled makespans, `(batch_ms, unbatched_ms)`.
///
/// The batch timeline runs every grouped seeding pass once (the first
/// pass of each round carries the index upload, the first round's passes
/// the database upload), then chains every member's block timings. Query
/// set-up is serial "other" time, or — with `setup_scale` — a CPU row per
/// query at that concurrency. The unbatched baseline runs each query
/// alone: it re-pays the database upload and, for a grouped member, the
/// full seeding passes of its round, i.e. what it would pay running the
/// grouped engine by itself.
fn batch_timelines(
    runs: &[RoundRun],
    dev_db: &DeviceDb,
    device: &DeviceConfig,
    setup_scale: Option<f64>,
) -> (f64, f64) {
    let h2d_per_block: Vec<f64> = dev_db
        .blocks()
        .iter()
        .map(|(_, b)| device.transfer_ms(b.upload_bytes()))
        .collect();
    let mut stream: Vec<BlockTiming> = Vec::new();
    for (round_i, seeding) in runs
        .iter()
        .filter_map(|run| run.seeding.as_ref())
        .enumerate()
    {
        let index_h2d_ms = device.transfer_ms(seeding.report.index_upload_bytes);
        for (idx, (&gpu_ms, &db_h2d)) in seeding.block_ms.iter().zip(&h2d_per_block).enumerate() {
            stream.push(BlockTiming {
                h2d_ms: if idx == 0 { index_h2d_ms } else { 0.0 }
                    + if round_i == 0 { db_h2d } else { 0.0 },
                gpu_ms,
                d2h_ms: 0.0,
                cpu_ms: 0.0,
            });
        }
    }
    let mut other_serial = 0.0f64;
    let mut unbatched_ms = 0.0f64;
    // Failed queries contribute nothing to the modelled timelines.
    for run in runs {
        for (_, r) in &run.results {
            let Ok(r) = r else { continue };
            match setup_scale {
                Some(scale) => stream.push(BlockTiming {
                    h2d_ms: 0.0,
                    gpu_ms: 0.0,
                    d2h_ms: 0.0,
                    cpu_ms: r.timing.other_ms / scale,
                }),
                None => other_serial += r.timing.other_ms,
            }
            stream.extend(&r.block_timings);
            let mut alone = r.block_timings.clone();
            for (idx, (t, h)) in alone.iter_mut().zip(&h2d_per_block).enumerate() {
                t.h2d_ms = *h;
                if let Some(seeding) = &run.seeding {
                    t.gpu_ms += seeding.block_ms[idx];
                }
            }
            unbatched_ms += schedule(&alone).overlapped_ms + r.timing.other_ms;
        }
    }
    (schedule(&stream).overlapped_ms + other_serial, unbatched_ms)
}

#[cfg(test)]
mod tests {
    use super::*;
    use bio_seq::generate::{generate_db, make_query, DbSpec};
    use blast_cpu::search::search_sequential;

    fn workload() -> (Sequence, SequenceDb) {
        let q = make_query(96);
        let spec = DbSpec {
            name: "t",
            num_sequences: 150,
            mean_length: 140,
            homolog_fraction: 0.2,
            seed: 21,
        };
        (q.clone(), generate_db(&spec, &q).db)
    }

    #[test]
    fn output_identical_to_fsa_blast() {
        let (q, db) = workload();
        let params = SearchParams::default();
        let cpu = search_sequential(&SearchEngine::new(q.clone(), params, &db), &db);

        for overlap in [false, true] {
            let cfg = CuBlastpConfig {
                db_block_size: 40,
                grid_blocks: 4,
                warps_per_block: 2,
                overlap,
                cpu_threads: 2,
                ..Default::default()
            };
            let gpu = CuBlastp::new(q.clone(), params, cfg, DeviceConfig::k20c(), &db);
            let result = gpu.search(&db).expect("fault-free search");
            assert_eq!(
                result.report.identity_key(),
                cpu.report.identity_key(),
                "overlap = {overlap}"
            );
            assert!(!result.report.hits.is_empty());
            assert!(result.recovery.is_clean());
        }
    }

    #[test]
    fn hit_counters_match_cpu_reference() {
        let (q, db) = workload();
        let params = SearchParams::default();
        let cpu = search_sequential(&SearchEngine::new(q.clone(), params, &db), &db);
        let cfg = CuBlastpConfig {
            db_block_size: 64,
            grid_blocks: 3,
            warps_per_block: 2,
            ..Default::default()
        };
        let gpu = CuBlastp::new(q, params, cfg, DeviceConfig::k20c(), &db);
        let result = gpu.search(&db).expect("fault-free search");
        assert_eq!(result.counts.hits, cpu.hit_stats.hits);
        assert_eq!(result.counts.extensions, cpu.hit_stats.extensions);
    }

    #[test]
    fn batch_amortizes_database_upload() {
        let (q, db) = workload();
        let queries = vec![q.clone(), make_query(80), make_query(110)];
        let cfg = CuBlastpConfig {
            db_block_size: 60,
            grid_blocks: 2,
            warps_per_block: 2,
            ..Default::default()
        };
        let out = search_batch(
            &queries,
            SearchParams::default(),
            cfg,
            DeviceConfig::k20c(),
            &db,
        );
        assert_eq!(out.per_query.len(), 3);
        assert_eq!(out.succeeded(), 3);
        assert!(out.batch_ms < out.unbatched_ms);
        assert!(out.saving() > 0.0);
        // Per-query results equal standalone searches.
        let standalone = CuBlastp::new(q, SearchParams::default(), cfg, DeviceConfig::k20c(), &db)
            .search(&db)
            .expect("fault-free search");
        assert_eq!(
            out.per_query[0]
                .as_ref()
                .expect("query 0")
                .report
                .identity_key(),
            standalone.report.identity_key()
        );
    }

    #[test]
    fn steady_state_searches_are_workspace_allocation_free() {
        // The allocation-free contract of the flat-arena hit path: after a
        // warm-up search, repeat searches check out pooled buffers only —
        // the workspace's cold-miss counter stops moving.
        let (q, db) = workload();
        let cfg = CuBlastpConfig {
            db_block_size: 50,
            grid_blocks: 2,
            warps_per_block: 2,
            overlap: false,
            ..Default::default()
        };
        let gpu = CuBlastp::new(q, SearchParams::default(), cfg, DeviceConfig::k20c(), &db);
        let dev_db = DeviceDb::upload(&db, cfg.db_block_size);
        gpu.search_resident(&db, &dev_db, false).expect("warmup");
        gpu.search_resident(&db, &dev_db, false).expect("warmup");
        let warm_allocs = gpu.workspace.allocations();
        let warm_checkouts = gpu.workspace.checkouts();
        let r = gpu
            .search_resident(&db, &dev_db, false)
            .expect("steady-state search");
        assert!(!r.report.hits.is_empty());
        assert!(
            gpu.workspace.checkouts() > warm_checkouts,
            "the search must actually use the workspace"
        );
        assert_eq!(
            gpu.workspace.allocations(),
            warm_allocs,
            "steady-state search must allocate zero workspace buffers"
        );
    }

    #[test]
    fn timing_fields_are_populated() {
        let (q, db) = workload();
        let cfg = CuBlastpConfig {
            db_block_size: 50,
            grid_blocks: 2,
            warps_per_block: 2,
            ..Default::default()
        };
        let gpu = CuBlastp::new(q, SearchParams::default(), cfg, DeviceConfig::k20c(), &db);
        let r = gpu.search(&db).expect("fault-free search");
        assert!(r.timing.gpu_ms > 0.0);
        assert!(r.timing.h2d_ms > 0.0);
        assert!(r.timing.overlapped_ms > 0.0);
        assert!(r.timing.overlapped_ms <= r.timing.serial_ms + 1e-9);
        assert_eq!(r.kernels.len(), 5);
        assert!(r.kernel("hit_detection").is_some());
    }

    #[test]
    fn mismatched_block_size_is_a_config_error_not_a_panic() {
        let (q, db) = workload();
        let cfg = CuBlastpConfig {
            db_block_size: 50,
            ..Default::default()
        };
        let gpu = CuBlastp::new(q, SearchParams::default(), cfg, DeviceConfig::k20c(), &db);
        let dev_db = DeviceDb::upload(&db, 64);
        let err = gpu
            .search_resident(&db, &dev_db, true)
            .expect_err("block-size mismatch must be rejected");
        assert_eq!(err.category(), "config");
    }

    #[test]
    fn transient_fault_retries_to_bit_identical_output() {
        use gpu_sim::{FaultPlan, FaultSite, FaultSpec};
        let (q, db) = workload();
        let cfg = CuBlastpConfig {
            db_block_size: 40,
            grid_blocks: 3,
            warps_per_block: 2,
            ..Default::default()
        };
        let clean = CuBlastp::new(
            q.clone(),
            SearchParams::default(),
            cfg,
            DeviceConfig::k20c(),
            &db,
        )
        .search(&db)
        .expect("fault-free search");

        let mut faulty = CuBlastp::new(q, SearchParams::default(), cfg, DeviceConfig::k20c(), &db);
        faulty.injector = Arc::new(FaultInjector::new(
            FaultPlan::none().with(FaultSpec::once(FaultSite::KernelLaunch).on_block(1)),
        ));
        let r = faulty.search(&db).expect("transient fault must recover");
        assert_eq!(r.recovery.faults, 1);
        assert_eq!(r.recovery.retries, 1);
        assert_eq!(r.recovery.degraded_blocks, 0);
        assert_eq!(r.report.identity_key(), clean.report.identity_key());
        assert_eq!(r.counts.hits, clean.counts.hits);
        assert_eq!(r.counts.extensions, clean.counts.extensions);
    }

    #[test]
    fn permanent_fault_degrades_to_bit_identical_output() {
        use gpu_sim::{FaultPlan, FaultSite, FaultSpec};
        let (q, db) = workload();
        let cfg = CuBlastpConfig {
            db_block_size: 40,
            grid_blocks: 3,
            warps_per_block: 2,
            ..Default::default()
        };
        let clean = CuBlastp::new(
            q.clone(),
            SearchParams::default(),
            cfg,
            DeviceConfig::k20c(),
            &db,
        )
        .search(&db)
        .expect("fault-free search");

        let mut faulty = CuBlastp::new(q, SearchParams::default(), cfg, DeviceConfig::k20c(), &db);
        faulty.injector = Arc::new(FaultInjector::new(
            FaultPlan::none().with(FaultSpec::permanent(FaultSite::DeviceAlloc).on_block(0)),
        ));
        let r = faulty.search(&db).expect("permanent fault must degrade");
        assert_eq!(r.recovery.degraded_blocks, 1);
        assert_eq!(r.recovery.retries, 0, "permanent faults are not retried");
        assert_eq!(r.report.identity_key(), clean.report.identity_key());
        assert_eq!(r.counts.hits, clean.counts.hits);
        assert_eq!(r.counts.extensions, clean.counts.extensions);
    }

    #[test]
    fn gpu_gapped_backend_is_bit_identical_to_cpu_backend() {
        let (q, db) = workload();
        let params = SearchParams::default();
        let cpu_cfg = CuBlastpConfig {
            db_block_size: 40,
            grid_blocks: 3,
            warps_per_block: 2,
            cpu_threads: 2,
            ..Default::default()
        };
        let cpu = CuBlastp::new(q.clone(), params, cpu_cfg, DeviceConfig::k20c(), &db)
            .search(&db)
            .expect("fault-free search");
        for overlap in [false, true] {
            let cfg = CuBlastpConfig {
                gapped_backend: GappedBackend::Gpu,
                overlap,
                ..cpu_cfg
            };
            let gpu = CuBlastp::new(q.clone(), params, cfg, DeviceConfig::k20c(), &db)
                .search(&db)
                .expect("fault-free search");
            assert_eq!(
                gpu.report.identity_key(),
                cpu.report.identity_key(),
                "overlap = {overlap}"
            );
            assert!(gpu.recovery.is_clean());
            // The gapped kernel joins the pipeline as its 6th entry and
            // does real modelled work; the measured CPU gapped lane is
            // gone (its time now lives in gpu_ms).
            assert_eq!(gpu.kernels.len(), 6, "overlap = {overlap}");
            let fine = gpu.kernel("gapped_extension_fine").expect("6th kernel");
            assert!(fine.warp_cycles > 0);
            assert_eq!(gpu.timing.gapped_ms, 0.0);
            assert!(gpu.timing.gpu_ms > cpu.timing.gpu_ms);
            assert!(gpu.timing.d2h_ms > cpu.timing.d2h_ms, "alignment download");
        }
    }

    #[test]
    fn gpu_gapped_transient_fault_retries_to_identical_output() {
        use gpu_sim::{FaultPlan, FaultSpec};
        let (q, db) = workload();
        let params = SearchParams::default();
        let cfg = CuBlastpConfig {
            db_block_size: 40,
            grid_blocks: 3,
            warps_per_block: 2,
            gapped_backend: GappedBackend::Gpu,
            ..Default::default()
        };
        let clean = CuBlastp::new(q.clone(), params, cfg, DeviceConfig::k20c(), &db)
            .search(&db)
            .expect("fault-free search");
        for site in gpu_sim::FaultSite::GAPPED {
            let mut faulty = CuBlastp::new(q.clone(), params, cfg, DeviceConfig::k20c(), &db);
            faulty.injector = Arc::new(FaultInjector::new(
                FaultPlan::none().with(FaultSpec::once(site).on_block(1)),
            ));
            let r = faulty.search(&db).expect("transient fault must recover");
            assert_eq!(r.recovery.faults, 1, "site {}", site.name());
            assert_eq!(r.recovery.retries, 1, "site {}", site.name());
            assert_eq!(r.recovery.degraded_gapped, 0, "site {}", site.name());
            assert_eq!(r.report.identity_key(), clean.report.identity_key());
        }
    }

    #[test]
    fn gpu_gapped_permanent_fault_degrades_gapped_phase_only() {
        use gpu_sim::{FaultPlan, FaultSite, FaultSpec};
        let (q, db) = workload();
        let params = SearchParams::default();
        let cfg = CuBlastpConfig {
            db_block_size: 40,
            grid_blocks: 3,
            warps_per_block: 2,
            gapped_backend: GappedBackend::Gpu,
            ..Default::default()
        };
        let clean = CuBlastp::new(q.clone(), params, cfg, DeviceConfig::k20c(), &db)
            .search(&db)
            .expect("fault-free search");
        let mut faulty = CuBlastp::new(q, params, cfg, DeviceConfig::k20c(), &db);
        faulty.injector = Arc::new(FaultInjector::new(
            FaultPlan::none().with(FaultSpec::permanent(FaultSite::GappedLaunch).on_block(0)),
        ));
        let r = faulty.search(&db).expect("gapped fault must degrade");
        assert_eq!(r.recovery.degraded_gapped, 1);
        assert_eq!(
            r.recovery.degraded_blocks, 0,
            "hit-path kernels stay on the device"
        );
        assert_eq!(r.report.identity_key(), clean.report.identity_key());
        // The degraded block contributes a zeroed 6th entry, so the
        // positional merge stays aligned.
        assert_eq!(r.kernels.len(), 6);
    }

    #[test]
    fn fallback_disabled_surfaces_the_device_error() {
        use crate::config::RecoveryPolicy;
        use gpu_sim::{FaultPlan, FaultSite, FaultSpec};
        let (q, db) = workload();
        let cfg = CuBlastpConfig {
            db_block_size: 40,
            grid_blocks: 2,
            recovery: RecoveryPolicy {
                max_attempts: 2,
                backoff_ms: 0.0,
                cpu_fallback: false,
            },
            ..Default::default()
        };
        let mut faulty = CuBlastp::new(q, SearchParams::default(), cfg, DeviceConfig::k20c(), &db);
        faulty.injector = Arc::new(FaultInjector::new(
            FaultPlan::none().with(FaultSpec::permanent(FaultSite::D2h).on_block(1)),
        ));
        let err = faulty
            .search(&db)
            .expect_err("no fallback, permanent fault must fail the search");
        match err {
            SearchError::Device {
                block, attempts, ..
            } => {
                // Transient class: the policy budget of 2 attempts is spent.
                assert_eq!(block, 1);
                assert_eq!(attempts, 2);
            }
            other => panic!("expected device error, got {other:?}"),
        }
    }

    #[test]
    fn grouped_batch_is_bit_identical_to_per_query_batch() {
        let (q, db) = workload();
        let queries = vec![q, make_query(80), make_query(110), make_query(64)];
        let cfg = CuBlastpConfig {
            db_block_size: 60,
            grid_blocks: 2,
            warps_per_block: 2,
            ..Default::default()
        };
        let per_query = search_batch(
            &queries,
            SearchParams::default(),
            cfg,
            DeviceConfig::k20c(),
            &db,
        );
        // One big round, and tiny budgets that force round splits — the
        // report must not depend on the packing.
        for budget in [DEFAULT_GROUP_BUDGET, 1] {
            let grouped = search_batch_with(
                &queries,
                SearchParams::default(),
                cfg,
                DeviceConfig::k20c(),
                &db,
                BatchOptions {
                    seed_mode: SeedMode::Grouped,
                    group_budget: budget,
                    ..Default::default()
                },
            );
            assert_eq!(grouped.succeeded(), queries.len(), "budget {budget}");
            for (i, (g, p)) in grouped
                .per_query
                .iter()
                .zip(&per_query.per_query)
                .enumerate()
            {
                let (g, p) = (g.as_ref().expect("grouped"), p.as_ref().expect("per-query"));
                assert_eq!(
                    g.report.identity_key(),
                    p.report.identity_key(),
                    "query {i}, budget {budget}"
                );
                assert_eq!(g.counts.hits, p.counts.hits, "query {i}, budget {budget}");
                assert_eq!(
                    g.counts.extensions, p.counts.extensions,
                    "query {i}, budget {budget}"
                );
            }
            let report = grouped.grouped.as_ref().expect("grouped telemetry");
            assert_eq!(report.queries_covered(), queries.len());
            if budget == 1 {
                // An impossible budget degrades to singleton rounds, never
                // to a silent per-query fallback.
                assert_eq!(report.rounds.len(), queries.len());
            } else {
                assert_eq!(report.rounds.len(), 1);
            }
            for r in &report.rounds {
                assert!(r.occupancy > 0.0 && r.occupancy <= 0.5 + f64::EPSILON);
                assert!(r.seeding_ms > 0.0);
                assert!(r.index_upload_bytes > 0);
            }
        }
        assert!(per_query.grouped.is_none());
    }

    #[test]
    fn grouped_batch_with_gpu_gapped_backend_is_identical() {
        // A grouped member must honour the backend too: grouped seeding +
        // device gapped phase vs the plain per-query CPU tail.
        let (q, db) = workload();
        let queries = vec![q, make_query(80), make_query(110)];
        let cpu_cfg = CuBlastpConfig {
            db_block_size: 60,
            grid_blocks: 2,
            warps_per_block: 2,
            ..Default::default()
        };
        let reference = search_batch(
            &queries,
            SearchParams::default(),
            cpu_cfg,
            DeviceConfig::k20c(),
            &db,
        );
        let cfg = CuBlastpConfig {
            gapped_backend: GappedBackend::Gpu,
            ..cpu_cfg
        };
        let grouped = search_batch_with(
            &queries,
            SearchParams::default(),
            cfg,
            DeviceConfig::k20c(),
            &db,
            BatchOptions {
                seed_mode: SeedMode::Grouped,
                ..Default::default()
            },
        );
        assert_eq!(grouped.succeeded(), queries.len());
        for (i, (g, p)) in grouped
            .per_query
            .iter()
            .zip(&reference.per_query)
            .enumerate()
        {
            let (g, p) = (g.as_ref().expect("grouped"), p.as_ref().expect("per-query"));
            assert_eq!(
                g.report.identity_key(),
                p.report.identity_key(),
                "query {i}"
            );
            assert_eq!(g.kernels.len(), 6, "query {i}");
            let fine = g.kernel("gapped_extension_fine").expect("6th kernel");
            if i == 0 {
                // The homolog-bearing workload query has real gapped work.
                assert!(fine.warp_cycles > 0);
            }
        }
    }

    #[test]
    fn grouped_round_amortizes_seeding_over_members() {
        let (_, db) = workload();
        let queries: Vec<Sequence> = (0..6).map(|k| make_query(56 + 4 * k)).collect();
        let cfg = CuBlastpConfig {
            db_block_size: 60,
            grid_blocks: 2,
            warps_per_block: 2,
            ..Default::default()
        };
        let run = |budget: usize| {
            search_batch_with(
                &queries,
                SearchParams::default(),
                cfg,
                DeviceConfig::k20c(),
                &db,
                BatchOptions {
                    seed_mode: SeedMode::Grouped,
                    group_budget: budget,
                    ..Default::default()
                },
            )
            .grouped
            .expect("grouped telemetry")
        };
        let one_round = run(DEFAULT_GROUP_BUDGET);
        let singletons = run(1);
        assert_eq!(one_round.rounds.len(), 1);
        assert_eq!(singletons.rounds.len(), queries.len());
        assert!(
            one_round.seeding_ms_per_block_query() * 2.0 < singletons.seeding_ms_per_block_query(),
            "grouping 6 queries must amortize seeding at least 2x: {} vs {}",
            one_round.seeding_ms_per_block_query(),
            singletons.seeding_ms_per_block_query()
        );
    }

    #[test]
    fn grouped_member_fault_degrades_to_identical_output() {
        use gpu_sim::{FaultPlan, FaultSite, FaultSpec};
        let (q, db) = workload();
        let queries = vec![q, make_query(80), make_query(110)];
        let cfg = CuBlastpConfig {
            db_block_size: 60,
            grid_blocks: 2,
            warps_per_block: 2,
            ..Default::default()
        };
        let clean = search_batch(
            &queries,
            SearchParams::default(),
            cfg,
            DeviceConfig::k20c(),
            &db,
        );
        let clean_key = clean.per_query[1]
            .as_ref()
            .expect("clean")
            .report
            .identity_key();
        let strict = CuBlastpConfig {
            recovery: crate::config::RecoveryPolicy {
                cpu_fallback: false,
                ..cfg.recovery
            },
            ..cfg
        };
        // (fault on query 1, config, expect degradation): a permanent
        // allocation fault degrades; a one-shot launch fault recovers by
        // retry, with or without a CPU fallback to lean on. Grouped
        // members follow the same recovery rule as per-query searches.
        let cases = [
            (FaultSpec::permanent(FaultSite::DeviceAlloc), cfg, true),
            (FaultSpec::once(FaultSite::KernelLaunch), cfg, false),
            (FaultSpec::once(FaultSite::KernelLaunch), strict, false),
        ];
        for seed_mode in [SeedMode::PerQuery, SeedMode::Grouped] {
            for (spec, config, degrades) in cases.clone() {
                let spec = spec.on_query(1);
                let fallback = config.recovery.cpu_fallback;
                let label = format!("{seed_mode:?} / {spec:?} / fallback {fallback}");
                let injector = Arc::new(FaultInjector::new(FaultPlan::none().with(spec)));
                let out = search_batch_with(
                    &queries,
                    SearchParams::default(),
                    config,
                    DeviceConfig::k20c(),
                    &db,
                    BatchOptions {
                        seed_mode,
                        injector: Some(injector),
                        ..Default::default()
                    },
                );
                assert_eq!(out.succeeded(), 3, "{label}");
                let r1 = out.per_query[1].as_ref().expect("recovered, not failed");
                assert_eq!(r1.report.identity_key(), clean_key, "{label}");
                assert!(r1.recovery.faults >= 1, "{label}");
                if degrades {
                    assert!(r1.recovery.degraded_blocks > 0, "{label}");
                } else {
                    assert!(r1.recovery.retries >= 1, "{label}");
                    assert_eq!(r1.recovery.degraded_blocks, 0, "{label}");
                }
            }
        }
    }

    #[test]
    fn cancelled_search_returns_typed_deadline_error_with_telemetry() {
        let (q, db) = workload();
        let cfg = CuBlastpConfig {
            db_block_size: 40,
            grid_blocks: 2,
            warps_per_block: 2,
            overlap: false,
            ..Default::default()
        };
        let gpu = CuBlastp::new(q, SearchParams::default(), cfg, DeviceConfig::k20c(), &db);
        let dev_db = DeviceDb::upload(&db, cfg.db_block_size);
        let blocks_total = dev_db.blocks().len() as u32;
        assert!(blocks_total >= 2, "workload must span multiple blocks");
        // Trip on the very first checkpoint: no block completes.
        let hooks = SearchHooks {
            cancel: CancelToken::after_checks(1),
            on_block: None,
        };
        let err = gpu
            .search_resident_with_hooks(&db, &dev_db, false, &hooks)
            .expect_err("tripped token must cancel the search");
        match err {
            SearchError::DeadlineExceeded {
                blocks_completed,
                blocks_total: total,
                ..
            } => {
                assert_eq!(blocks_completed, 0);
                assert_eq!(total, blocks_total);
            }
            other => panic!("expected deadline error, got {other:?}"),
        }
        assert_eq!(err.category(), "deadline");
        // An expired wall-clock deadline cancels before any device work.
        let hooks = SearchHooks {
            cancel: CancelToken::with_deadline(Duration::from_millis(0)),
            on_block: None,
        };
        std::thread::sleep(Duration::from_millis(1));
        let err = gpu
            .search_resident_with_hooks(&db, &dev_db, false, &hooks)
            .expect_err("expired deadline must cancel");
        assert_eq!(err.category(), "deadline");
    }

    #[test]
    fn block_streaming_accumulates_to_the_exact_final_report() {
        use std::sync::Mutex;
        let (q, db) = workload();
        let cfg = CuBlastpConfig {
            db_block_size: 40,
            grid_blocks: 2,
            warps_per_block: 2,
            ..Default::default()
        };
        let gpu = CuBlastp::new(q, SearchParams::default(), cfg, DeviceConfig::k20c(), &db);
        let dev_db = DeviceDb::upload(&db, cfg.db_block_size);
        let streamed: Mutex<Vec<(u32, u32, SearchReport)>> = Mutex::new(Vec::new());
        let on_block = |p: BlockProgress<'_>| {
            streamed.lock().expect("test mutex").push((
                p.block,
                p.blocks_total,
                SearchReport {
                    hits: p.partial.hits.clone(),
                },
            ));
        };
        let hooks = SearchHooks {
            cancel: CancelToken::never(),
            on_block: Some(&on_block),
        };
        let r = gpu
            .search_resident_with_hooks(&db, &dev_db, false, &hooks)
            .expect("fault-free search");
        let streamed = streamed.into_inner().expect("test mutex");
        let blocks_total = dev_db.blocks().len();
        assert_eq!(streamed.len(), blocks_total, "one event per block");
        // Events arrive in pipeline order and accumulate to the final
        // report (modulo finalize's ranking).
        let mut merged = SearchReport::default();
        for (i, (block, total, partial)) in streamed.into_iter().enumerate() {
            assert_eq!(block as usize, i);
            assert_eq!(total as usize, blocks_total);
            merged.hits.extend(partial.hits);
        }
        merged.finalize(gpu.engine.params.max_reported);
        assert_eq!(merged.identity_key(), r.report.identity_key());
    }

    #[test]
    fn batch_queries_report_queue_wait_separately() {
        let (q, db) = workload();
        let queries = vec![q, make_query(80), make_query(110)];
        let cfg = CuBlastpConfig {
            db_block_size: 60,
            grid_blocks: 2,
            warps_per_block: 2,
            ..Default::default()
        };
        let out = search_batch(
            &queries,
            SearchParams::default(),
            cfg,
            DeviceConfig::k20c(),
            &db,
        );
        // Later queries in a serial batch waited behind earlier ones; the
        // wait is telemetry, not a recovery action, so they stay clean.
        let last = out.per_query[2].as_ref().expect("query 2");
        assert!(last.recovery.queue_wait_us > 0);
        assert!(last.recovery.is_clean(), "queue wait does not dirty a run");
    }

    #[test]
    fn poisoned_batch_query_fails_alone() {
        use gpu_sim::{FaultPlan, FaultSite, FaultSpec};
        let (q, db) = workload();
        let queries = vec![q.clone(), make_query(80), make_query(110)];
        let cfg = CuBlastpConfig {
            db_block_size: 60,
            grid_blocks: 2,
            warps_per_block: 2,
            ..Default::default()
        };
        let injector = Arc::new(FaultInjector::new(
            FaultPlan::none().with(FaultSpec::permanent(FaultSite::HostPanic).on_query(1)),
        ));
        for parallel in [false, true] {
            let out = search_batch_with(
                &queries,
                SearchParams::default(),
                cfg,
                DeviceConfig::k20c(),
                &db,
                BatchOptions {
                    parallel,
                    injector: Some(Arc::clone(&injector)),
                    ..Default::default()
                },
            );
            assert_eq!(out.per_query.len(), 3, "parallel = {parallel}");
            assert_eq!(out.succeeded(), 2, "parallel = {parallel}");
            let failures: Vec<_> = out.failures().collect();
            assert_eq!(failures.len(), 1);
            assert_eq!(failures[0].0, 1, "query 1 carries the injected panic");
            assert_eq!(failures[0].1.category(), "pipeline");
            // The surviving queries match their standalone runs.
            let solo = CuBlastp::new(
                queries[2].clone(),
                SearchParams::default(),
                cfg,
                DeviceConfig::k20c(),
                &db,
            )
            .search(&db)
            .expect("fault-free search");
            assert_eq!(
                out.per_query[2]
                    .as_ref()
                    .expect("query 2")
                    .report
                    .identity_key(),
                solo.report.identity_key()
            );
        }
    }
}
