//! `long_homolog`: long queries against a swissprot-shaped database dense
//! with their homologs, opened from a persisted 4-shard `.cdb` set and
//! searched with `search_sharded_batch` on 2 simulated devices. A closed
//! loop with one caller.

use std::path::{Path, PathBuf};
use std::time::Instant;

use bio_seq::{Sequence, SequenceDb};
use blast_cpu::report::SearchReport;
use cublastp::{
    search_sharded_batch, ShardedBatchOptions, ShardedDb, ShardedOptions, DEFAULT_STEAL_SEED,
};
use cublastp_db::{build_shard_set, DbImage, ShardSetManifest};

use crate::closed::{self, UnitResult};
use crate::common::{self, Args, Key, Outcome};
use crate::inputs::{make_db, make_queries, DbShape};
use crate::metrics::{self, Sheet};
use crate::replay::{self, name, Ctx, Layers};
use crate::tracer::Tracer;

#[derive(Debug, Clone)]
pub struct Shape {
    pub db: DbShape,
    pub query_lens: &'static [usize],
    pub shards: usize,
    pub devices: usize,
}

pub const FULL: Shape = Shape {
    db: DbShape {
        name: "swissprot_shaped",
        subjects: 2_000,
        mean_len: 370,
        homolog_share: 0.15,
    },
    // The paper's 517 and 1054 among lengths spanning 300–1100.
    query_lens: &[300, 517, 700, 880, 1054, 1100],
    shards: 4,
    devices: 2,
};

pub struct Inputs {
    pub db: SequenceDb,
    pub queries: Vec<Sequence>,
}

pub fn inputs(seed: u64, shape: &Shape) -> Inputs {
    let queries = make_queries(seed, 11, "query", shape.query_lens);
    let db = make_db(seed, 12, &shape.db, &queries);
    Inputs { db, queries }
}

struct Files {
    manifest: PathBuf,
    queries: PathBuf,
}

fn write(inputs: &Inputs, shape: &Shape, dir: &Path) -> Result<Files, String> {
    let (_, manifest) = build_shard_set(
        &inputs.db,
        common::config().db_block_size,
        shape.shards,
        dir,
    )
    .map_err(|e| format!("building the shard set: {e}"))?;
    let queries = dir.join("queries.fa");
    common::write_fasta(&queries, &inputs.queries)?;
    Ok(Files { manifest, queries })
}

/// Set-up: manifest load, every shard image opened and mapped, the
/// sharded database assembled, and the queries parsed.
fn setup(files: &Files) -> Result<(ShardedDb, Vec<Sequence>, Vec<DbImage>), String> {
    let (sharded, images) = open_set(&files.manifest)?;
    let queries = common::read_fasta(&files.queries)?;
    Ok((sharded, queries, images))
}

fn open_set(manifest_path: &Path) -> Result<(ShardedDb, Vec<DbImage>), String> {
    let manifest = ShardSetManifest::load(manifest_path).map_err(|e| e.to_string())?;
    let images = manifest
        .open_images(manifest_path)
        .map_err(|e| e.to_string())?;
    let sharded = ShardedDb::from_images(&manifest.name, &images).map_err(|e| e.to_string())?;
    Ok((sharded, images))
}

fn options(shape: &Shape) -> ShardedBatchOptions {
    ShardedBatchOptions {
        sharded: ShardedOptions {
            devices: shape.devices,
            seed: DEFAULT_STEAL_SEED,
        },
        injector: None,
    }
}

/// One sharded batch through the public entry point, with the fleet
/// schedule's steal count. Its modelled device time: each query's kernels
/// and PCIe legs on every shard, plus each shard's upload once (the
/// scheduler's per-device re-uploads depend on measured item costs and
/// are left out).
pub fn unit(queries: &[Sequence], sharded: &ShardedDb, shape: &Shape) -> (UnitResult, u64) {
    let device = common::device();
    let out = search_sharded_batch(
        queries,
        common::params(),
        common::config(),
        device,
        sharded,
        &options(shape),
    );
    let steals = out.schedule.total_steals();
    let mut device_ms: f64 = sharded.upload_ms(&device).iter().sum();
    let reports = out
        .per_query
        .into_iter()
        .map(|r| {
            r.ok().map(|r| {
                device_ms += common::modelled_ms(&r);
                r.report
            })
        })
        .collect();
    (UnitResult { reports, device_ms }, steals)
}

/// The sharded batch replayed call by call: per query, the searcher's
/// set-up with global statistics, then each shard as one item (every
/// block through `run_gpu_phase` and the CPU tail, ranked per shard),
/// then the cross-shard merge.
pub fn replay_unit(
    tr: &mut Tracer,
    layers: &mut Layers,
    ctx: &Ctx,
    queries: &[Sequence],
    sharded: &ShardedDb,
) -> Result<Vec<SearchReport>, String> {
    let max = ctx.params.max_reported;
    let mut reports = Vec::with_capacity(queries.len());
    for (qi, q) in queries.iter().enumerate() {
        let req = qi as u64;
        let (engine, dq) = tr.span(name::SEARCHER, req, |tr| {
            replay::setup_query(
                tr,
                layers,
                ctx.params,
                q,
                sharded.total_residues(),
                sharded.total_sequences(),
                req,
            )
        });
        let mut merged = SearchReport::default();
        let mut items = Vec::new();
        for shard in sharded.shards().iter().filter(|s| !s.is_empty()) {
            let t0 = Instant::now();
            let partial = tr.span(name::SHARD_ITEM, req, |tr| {
                let r = replay::walk_blocks(
                    tr,
                    layers,
                    ctx,
                    &engine,
                    &dq,
                    &shard.db,
                    &shard.dev,
                    shard.start,
                    req,
                )?;
                Ok::<_, String>(replay::finalize(tr, r, max, req))
            })?;
            items.push(t0.elapsed().as_secs_f64() * 1e3);
            merged.hits.extend(partial.hits);
        }
        layers.shard_items.push(items);
        let report = replay::finalize(tr, merged, max, req);
        layers.alignments += report.hits.len() as u64;
        reports.push(report);
    }
    Ok(reports)
}

pub fn run(args: &Args, dir: &Path) -> Result<Outcome, String> {
    let shape = FULL;
    let generated = inputs(args.seed, &shape);
    let files = write(&generated, &shape, dir)?;
    let (mut setup_times, (sharded, queries, images)) = common::timed_setup(|| setup(&files))?;
    let refs: Vec<Key> = common::reference_keys(&queries, &generated.db);
    drop(generated);

    if !args.trace {
        let st = closed::run(
            args.seconds,
            2,
            &refs,
            || unit(&queries, &sharded, &shape).0,
            || setup_times.probe(common::SETUP_PROBE_S, || setup(&files)),
        )?;
        return Ok(st.outcome(&setup_times));
    }

    let ctx = Ctx::new();
    let mut layers = Layers::default();
    let mut steals = Vec::new();
    let t = closed::traced(
        args.seconds,
        &refs,
        || {
            let (u, s) = unit(&queries, &sharded, &shape);
            steals.push(s as f64);
            u
        },
        |tr| replay_unit(tr, &mut layers, &ctx, &queries, &sharded),
    )?;
    let units = t.traced_ms.len();

    let mut sheet = Sheet::per_layer();
    metrics::fill_layers(&mut sheet, &t.tr, &layers, units);
    let (open_s, _) = common::timed_reps(5, || open_set(&files.manifest))?;
    sheet.set("cublastp-db.open_ms", open_s * 1e3);
    sheet.set(
        "cublastp-db.image_bytes",
        images.iter().map(|i| i.region().len() as f64).sum(),
    );
    let (parse_s, _) = common::timed_reps(5, || common::read_fasta(&files.queries))?;
    sheet.set("bio-seq.parse_ms", parse_s * 1e3);
    let (upload_s, uploaded) = common::timed_reps(5, || {
        Ok(images
            .iter()
            .map(cublastp::DeviceDb::from_image)
            .collect::<Vec<_>>())
    })?;
    sheet.set("cublastp.devicedata.upload_ms", upload_s * 1e3);
    sheet.set(
        "cublastp.devicedata.upload_bytes",
        uploaded.iter().map(|d| d.upload_bytes() as f64).sum(),
    );
    sheet.set("cublastp.devicedata.flattens", t.flattens);
    sheet.set(
        "pcie.h2d_ms",
        sharded.upload_ms(&common::device()).iter().sum(),
    );
    sheet.set("cublastp.scheduler.steals", crate::stats::median(&steals));
    common::set_overhead(&mut sheet, &t.st.unit_ms, &t.traced_ms);
    common::set_attribution(
        &mut sheet,
        &t.tr,
        t.traced_ms.len(),
        crate::stats::median(&t.st.unit_cpu_ms),
    );
    common::traced_outcome(t.st.tally, t.problems, sheet, &t.tr, args)
}

#[cfg(test)]
mod tests {
    use super::*;

    const TINY: Shape = Shape {
        db: DbShape {
            name: "tiny",
            subjects: 240,
            mean_len: 150,
            homolog_share: 0.15,
        },
        query_lens: &[120, 200],
        shards: 3,
        devices: 2,
    };

    fn open_tiny(seed: u64, dir: &Path) -> (Inputs, ShardedDb, Vec<Sequence>) {
        let generated = inputs(seed, &TINY);
        let files = write(&generated, &TINY, dir).expect("shard set written");
        let (sharded, queries, _) = setup(&files).expect("shard set opens");
        (generated, sharded, queries)
    }

    fn scratch(tag: &str) -> PathBuf {
        let dir = Path::new(env!("CARGO_MANIFEST_DIR"))
            .join("work")
            .join(format!("test-{tag}-{}", std::process::id()));
        std::fs::create_dir_all(&dir).expect("temp dir");
        dir
    }

    #[test]
    fn device_ms_repeats_and_replay_matches() {
        let dir = scratch("long");
        let (generated, sharded, queries) = open_tiny(3, &dir);
        let a = unit(&queries, &sharded, &TINY).0;
        let b = unit(&queries, &sharded, &TINY).0;
        assert!(a.device_ms > 0.0);
        assert_eq!(a.device_ms.to_bits(), b.device_ms.to_bits());
        let refs = common::reference_keys(&queries, &generated.db);
        assert_eq!(
            closed::keys(&a.reports),
            refs.iter().cloned().map(Some).collect::<Vec<_>>()
        );

        let ctx = Ctx::new();
        let mut tr = Tracer::new();
        let mut layers = Layers::default();
        let replayed = replay_unit(&mut tr, &mut layers, &ctx, &queries, &sharded).expect("replay");
        let keys: Vec<Key> = replayed.iter().map(|r| r.identity_key()).collect();
        assert_eq!(keys, refs);
        assert_eq!(layers.shard_items.len(), queries.len());
        let _ = std::fs::remove_dir_all(dir);
    }

    #[test]
    fn different_seeds_differ() {
        let a = inputs(1, &TINY);
        let b = inputs(2, &TINY);
        assert_ne!(common::digest_db(&a.db), common::digest_db(&b.db));
        assert_eq!(
            common::digest_db(&a.db),
            common::digest_db(&inputs(1, &TINY).db)
        );
    }
}
