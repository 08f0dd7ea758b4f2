//! The traced replay: the search drivers' work redone from outside, one
//! public layer call at a time, each inside a benchmark span. Reports
//! built here must equal the ones the end-to-end entry points returned.

use std::time::{Duration, Instant};

use bio_seq::{Sequence, SequenceDb};
use blast_core::SearchParams;
use blast_cpu::report::{PhaseTimes, SearchReport};
use blast_cpu::search::SearchEngine;
use blast_cpu::UngappedExt;
use cublastp::devicedata::{DeviceDbBlock, DeviceQuery};
use cublastp::extension::{extension_kernel, ExtensionResult};
use cublastp::gpu_phase::run_gpu_phase;
use cublastp::grouped::grouped_seeding_kernel;
use cublastp::reorder::{assemble_kernel, filter_kernel_mode, sort_kernel};
use cublastp::{
    plan_rounds, CuBlastpConfig, DeviceDb, DeviceGroupIndex, ExtensionsCsr, GpuPhaseCounts,
    GpuPhaseOutput,
};
use gpu_sim::{DeviceConfig, FaultCtx, FaultInjector, KernelStats, KernelWorkspace};

use crate::tracer::Tracer;

/// Span names: `<crate>.<public call>`.
pub mod name {
    pub const UNIT: &str = "e2ebench.replay_unit";
    pub const WITH_DB_STATS: &str = "blast-core.SearchEngine::with_db_stats";
    pub const QUERY_UPLOAD: &str = "cublastp.DeviceQuery::upload";
    pub const DB_UPLOAD: &str = "cublastp.DeviceDb::upload";
    pub const GROUP_UPLOAD: &str = "cublastp.DeviceGroupIndex::upload";
    pub const GROUPED_SEEDING: &str = "cublastp.grouped_seeding_kernel";
    pub const GPU_PHASE: &str = "cublastp.run_gpu_phase";
    pub const GPU_TAIL: &str = "cublastp.gpu_tail_kernels";
    pub const FINISH: &str = "blast-cpu.SearchEngine::finish_subject";
    pub const GAPPED: &str = "blast-cpu.gapped";
    pub const TRACEBACK: &str = "blast-cpu.traceback";
    pub const FINALIZE: &str = "blast-cpu.SearchReport::finalize";
    pub const SEARCHER: &str = "cublastp.ShardedDb::searcher";
    pub const SHARD_ITEM: &str = "cublastp.shard_item";
    pub const REQUEST: &str = "cublastp-serve.request";
    pub const SUBMIT: &str = "cublastp-serve.Server::submit";
    pub const QUEUE: &str = "cublastp-serve.queue_wait";
    pub const SERVICE: &str = "cublastp-serve.service";
    pub const FIRST_BLOCK: &str = "cublastp-serve.first_block_event";
}

/// The simulated device and pipeline settings every replayed call uses.
pub struct Ctx {
    pub device: DeviceConfig,
    pub cfg: CuBlastpConfig,
    pub params: SearchParams,
    pub ws: KernelWorkspace,
    pub injector: FaultInjector,
}

impl Ctx {
    /// The settings the end-to-end runs use (`common::{device, config,
    /// params}`), with a fresh workspace and a disarmed fault injector.
    pub fn new() -> Self {
        Self {
            device: crate::common::device(),
            cfg: crate::common::config(),
            params: crate::common::params(),
            ws: KernelWorkspace::new(),
            injector: FaultInjector::none(),
        }
    }
}

/// One kernel's modelled totals over every launch in the replay.
pub struct KernelAcc {
    pub sim_ms: f64,
    pub merged: KernelStats,
}

/// What the replayed layers did, beyond the spans' host times.
#[derive(Default)]
pub struct Layers {
    pub query_setup_ms: Vec<f64>,
    pub dfa_bytes: u64,
    pub kernels: Vec<KernelAcc>,
    pub counts: GpuPhaseCounts,
    pub h2d_ms: f64,
    pub d2h_ms: f64,
    pub d2h_bytes: u64,
    pub gapped: Duration,
    pub traceback: Duration,
    pub dp_cells: u64,
    pub alignments: u64,
    pub rounds: u64,
    pub round_occupancy: Vec<f64>,
    pub seeding_sim_ms: f64,
    pub index_upload_bytes: u64,
    /// Host ms of each (query, shard) item, grouped by query.
    pub shard_items: Vec<Vec<f64>>,
}

impl Layers {
    fn absorb_gpu(&mut self, out: &GpuPhaseOutput, device: &DeviceConfig) {
        for k in &out.kernels {
            let ms = k.time_ms(device);
            match self.kernels.iter_mut().find(|a| a.merged.name == k.name) {
                Some(a) => {
                    a.sim_ms += ms;
                    a.merged.merge(k);
                }
                None => self.kernels.push(KernelAcc {
                    sim_ms: ms,
                    merged: k.clone(),
                }),
            }
        }
        self.counts.hits += out.counts.hits;
        self.counts.filtered += out.counts.filtered;
        self.counts.extensions += out.counts.extensions;
        self.counts.redundant += out.counts.redundant;
        self.d2h_bytes += out.download_bytes;
        self.d2h_ms += device.transfer_ms(out.download_bytes);
    }

    pub fn kernel(&self, name: &str) -> Option<&KernelAcc> {
        self.kernels.iter().find(|k| k.merged.name == name)
    }

    /// Modelled time of the five hit-path kernels.
    pub fn gpu_sim_ms(&self) -> f64 {
        self.kernels.iter().map(|k| k.sim_ms).sum()
    }
}

/// Query setup exactly as `CuBlastp::with_db_stats` does it: the engine
/// (DFA, PSSM, cutoffs) against the given database statistics, then the
/// device-side query upload.
pub fn setup_query(
    tr: &mut Tracer,
    layers: &mut Layers,
    params: SearchParams,
    query: &Sequence,
    db_residues: usize,
    db_sequences: usize,
    request: u64,
) -> (SearchEngine, DeviceQuery) {
    let t0 = Instant::now();
    let engine = tr.span(name::WITH_DB_STATS, request, |_| {
        SearchEngine::with_db_stats(query.clone(), params, db_residues, db_sequences)
    });
    let dq = tr.span(name::QUERY_UPLOAD, request, |_| {
        DeviceQuery::upload(engine.dfa.clone(), engine.pssm.clone())
    });
    layers.query_setup_ms.push(t0.elapsed().as_secs_f64() * 1e3);
    layers.dfa_bytes += (engine.dfa.states_size_bytes() + engine.dfa.positions_size_bytes()) as u64;
    (engine, dq)
}

/// One query through every block of `dev_db` on the per-query path
/// (`run_gpu_phase`, then the CPU tail). `index_base` shifts subject
/// indices from shard-local to global. Returns the unfinalized report.
#[allow(clippy::too_many_arguments)]
pub fn walk_blocks(
    tr: &mut Tracer,
    layers: &mut Layers,
    ctx: &Ctx,
    engine: &SearchEngine,
    dq: &DeviceQuery,
    db: &SequenceDb,
    dev_db: &DeviceDb,
    index_base: usize,
    request: u64,
) -> Result<SearchReport, String> {
    let mut report = SearchReport::default();
    for (idx, (block, dev_block)) in dev_db.blocks().iter().enumerate() {
        let fctx = FaultCtx {
            query: 0,
            block: idx as u32,
        };
        let out = tr
            .span(name::GPU_PHASE, request, |_| {
                run_gpu_phase(
                    &ctx.device,
                    &ctx.cfg,
                    dq,
                    dev_block,
                    &engine.params,
                    &ctx.ws,
                    &ctx.injector,
                    fctx,
                )
            })
            .map_err(|e| format!("run_gpu_phase failed on block {idx}: {e}"))?;
        layers.absorb_gpu(&out, &ctx.device);
        finish_block(
            tr,
            layers,
            engine,
            db,
            block.start,
            &out.extensions,
            index_base,
            request,
            &mut report,
        );
    }
    Ok(report)
}

/// The CPU tail of one block: `finish_subject` for every subject with
/// extensions. The call does gapped extension and traceback together and
/// cannot be split from outside, so its own `PhaseTimes` split is recorded
/// as derived children; the rest of the span is its self time.
#[allow(clippy::too_many_arguments)]
fn finish_block(
    tr: &mut Tracer,
    layers: &mut Layers,
    engine: &SearchEngine,
    db: &SequenceDb,
    base: usize,
    csr: &ExtensionsCsr,
    index_base: usize,
    request: u64,
    report: &mut SearchReport,
) {
    tr.span(name::FINISH, request, |tr| {
        let cells0 = blast_cpu::gapped::dp_cells();
        let mut times = PhaseTimes::default();
        for local in 0..csr.num_seqs() {
            let ext = csr.seq(local);
            if ext.is_empty() {
                continue;
            }
            let idx = base + local;
            engine.finish_subject(
                index_base + idx,
                &db.sequences()[idx],
                ext,
                report,
                Some(&mut times),
            );
        }
        layers.dp_cells += blast_cpu::gapped::dp_cells() - cells0;
        layers.gapped += times.gapped;
        layers.traceback += times.traceback;
        tr.derived_child(name::GAPPED, request, Duration::ZERO, times.gapped);
        tr.derived_child(name::TRACEBACK, request, times.gapped, times.traceback);
    });
}

/// Rank and truncate a query's report, as every driver does last.
pub fn finalize(
    tr: &mut Tracer,
    mut report: SearchReport,
    max: usize,
    request: u64,
) -> SearchReport {
    tr.span(name::FINALIZE, request, |_| report.finalize(max));
    report
}

/// The grouped-seeding batch (`SeedMode::Grouped`) from outside: flatten
/// the database, pack the queries into rounds, one grouped seeding pass
/// per (round, block), then each member's hits through kernels 2–5 and
/// the CPU tail. Returns one finalized report per query, in input order.
pub fn walk_grouped(
    tr: &mut Tracer,
    layers: &mut Layers,
    ctx: &Ctx,
    queries: &[Sequence],
    db: &SequenceDb,
    budget: usize,
) -> Result<Vec<SearchReport>, String> {
    let dev_db = tr.span(name::DB_UPLOAD, 0, |_| {
        DeviceDb::upload(db, ctx.cfg.db_block_size)
    });
    for (_, b) in dev_db.blocks() {
        layers.h2d_ms += ctx.device.transfer_ms(b.upload_bytes());
    }
    let setups: Vec<(SearchEngine, DeviceQuery)> = queries
        .iter()
        .enumerate()
        .map(|(i, q)| {
            setup_query(
                tr,
                layers,
                ctx.params,
                q,
                db.total_residues(),
                db.len(),
                i as u64,
            )
        })
        .collect();
    let entry_counts: Vec<usize> = setups
        .iter()
        .map(|(_, dq)| dq.dfa.neighborhood().total_entries())
        .collect();
    let mut reports = Vec::with_capacity(queries.len());
    for round in plan_rounds(&entry_counts, budget) {
        let members: Vec<&DeviceQuery> = setups[round.clone()].iter().map(|(_, dq)| dq).collect();
        let group = tr.span(name::GROUP_UPLOAD, round.start as u64, |_| {
            DeviceGroupIndex::upload(&members)
        });
        layers.rounds += 1;
        layers.round_occupancy.push(group.index().occupancy());
        layers.index_upload_bytes += group.upload_bytes();
        layers.h2d_ms += ctx.device.transfer_ms(group.upload_bytes());
        let mut bins: Vec<Vec<_>> = (0..members.len()).map(|_| Vec::new()).collect();
        for (_, dev_block) in dev_db.blocks() {
            let (block_bins, stats) = tr.span(name::GROUPED_SEEDING, round.start as u64, |_| {
                grouped_seeding_kernel(&ctx.device, &ctx.cfg, &group, dev_block, &ctx.ws)
            });
            layers.seeding_sim_ms += stats.time_ms(&ctx.device);
            for (m, b) in block_bins.into_iter().enumerate() {
                bins[m].push(b);
            }
        }
        for (m, member_bins) in bins.into_iter().enumerate() {
            let qi = round.start + m;
            let (engine, dq) = &setups[qi];
            let mut report = SearchReport::default();
            for ((block, dev_block), binned) in dev_db.blocks().iter().zip(member_bins) {
                let out = tr.span(name::GPU_TAIL, qi as u64, |_| {
                    gpu_tail(ctx, dq, dev_block, &engine.params, binned)
                });
                layers.absorb_gpu(&out, &ctx.device);
                finish_block(
                    tr,
                    layers,
                    engine,
                    db,
                    block.start,
                    &out.extensions,
                    0,
                    qi as u64,
                    &mut report,
                );
            }
            let report = finalize(tr, report, ctx.params.max_reported, qi as u64);
            layers.alignments += report.hits.len() as u64;
            reports.push(report);
        }
    }
    Ok(reports)
}

/// Kernels 2–5 over one member's demuxed hit arena, through the kernels'
/// public functions. The grouped driver's own tail is crate-private; this
/// is the same sequence of calls. Hit detection ran in the grouped pass,
/// so its per-member stats are empty, as in the driver.
fn gpu_tail(
    ctx: &Ctx,
    dq: &DeviceQuery,
    dev_block: &DeviceDbBlock,
    params: &SearchParams,
    binned: cublastp::binning::BinnedHits,
) -> GpuPhaseOutput {
    let (device, cfg, ws) = (&ctx.device, &ctx.cfg, &ctx.ws);
    let hits = binned.total_hits;
    let (mut assembled, k_asm) = assemble_kernel(device, cfg, binned, ws);
    let k_sort = sort_kernel(device, &mut assembled, ws);
    let (filtered, k_filter) = filter_kernel_mode(
        device,
        cfg,
        &assembled,
        params.two_hit,
        params.two_hit_window as i64,
        ws,
    );
    assembled.recycle(ws);
    let n_filtered = filtered.hits.len() as u64;
    let ExtensionResult {
        extensions,
        stats: k_ext,
        redundant,
    } = extension_kernel(device, cfg, dq, dev_block, &filtered, params);
    filtered.recycle(ws);
    let n_ext = extensions.len() as u64;
    GpuPhaseOutput {
        extensions: ExtensionsCsr::from_stream(extensions, dev_block.num_seqs()),
        kernels: vec![
            KernelStats::new("hit_detection"),
            k_asm,
            k_sort,
            k_filter,
            k_ext,
        ],
        counts: GpuPhaseCounts {
            hits,
            filtered: n_filtered,
            extensions: n_ext,
            redundant,
        },
        download_bytes: n_ext * std::mem::size_of::<UngappedExt>() as u64,
    }
}
