//! `serve_mixed`: an open loop against `cublastp_serve::Server` built from
//! a `.cdb` image with the default `ServeConfig`. One generator thread
//! submits interactive queries and bulk reads on a fixed schedule at fixed
//! absolute rates, polls every response stream, and hot-swaps between two
//! image generations at fixed intervals. Each request is timed from the
//! moment it was due.

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

use bio_seq::{Sequence, SequenceDb};
use cublastp::{DeviceDb, SearchError};
use cublastp_db::{build_to_file, DbImage};
use cublastp_serve::{Event, Request, ResponseHandle, ServeConfig, ServeResult, Server};

use crate::common::{self, Args, Key, Outcome, Tally};
use crate::inputs::{make_db, make_queries, permutation, rewrite_db, spread, DbShape, Rng};
use crate::metrics::{self, Sheet};
use crate::replay::{self, name, Ctx, Layers};
use crate::stats;
use crate::tracer::Tracer;

#[derive(Debug, Clone, Copy)]
pub struct Shape {
    pub db: DbShape,
    pub interactive: usize,
    pub interactive_len: (usize, usize),
    pub bulk: usize,
    pub bulk_len: (usize, usize),
    /// Offered interactive requests per second.
    pub interactive_rate: f64,
    /// Offered bulk requests per second.
    pub bulk_rate: f64,
    pub swap_every_s: f64,
    /// Generation B rewrites every n-th subject of generation A.
    pub rewrite_every: usize,
}

pub const FULL: Shape = Shape {
    db: DbShape {
        name: "swissprot_shaped",
        subjects: 2_000,
        mean_len: 370,
        homolog_share: 0.03,
    },
    // 15 interactive and 16 bulk queries: at the offered rates a 30 s run
    // sends every query of a pool equally often (4 and 15 full cycles),
    // so every seed offers the same mix. The interactive median falls
    // between two neighbouring queries of the pool; with 15 of them the
    // neighbours differ little, so the median depends little on the seed.
    interactive: 15,
    interactive_len: (200, 600),
    bulk: 16,
    bulk_len: (40, 100),
    interactive_rate: 2.0,
    bulk_rate: 8.0,
    swap_every_s: 4.0,
    rewrite_every: 20,
};

/// A run whose generator fell further behind its schedule than this is
/// invalid: its latencies would describe the generator, not the server.
pub const LATENESS_BOUND_MS: f64 = 100.0;

/// Wall-clock of set-up repetitions beside the schedule, half before it
/// and half after.
const SETUP_PROBES_S: f64 = 1.0;

/// Longest wait for in-flight requests after the last submission.
const DRAIN_LIMIT: Duration = Duration::from_secs(60);

pub struct Inputs {
    /// Interactive queries first, then bulk reads.
    pub pool: Vec<Sequence>,
    pub generations: [SequenceDb; 2],
}

pub fn inputs(seed: u64, shape: &Shape) -> Inputs {
    let mut pool = make_queries(
        seed,
        21,
        "iq",
        &spread(
            shape.interactive,
            shape.interactive_len.0,
            shape.interactive_len.1,
        ),
    );
    let a = make_db(seed, 23, &shape.db, &pool);
    pool.extend(make_queries(
        seed,
        22,
        "bulk",
        &spread(shape.bulk, shape.bulk_len.0, shape.bulk_len.1),
    ));
    let b = rewrite_db(seed, 24, &a, shape.rewrite_every, shape.db.mean_len);
    Inputs {
        pool,
        generations: [a, b],
    }
}

#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Kind {
    Submit { interactive: bool, query: usize },
    Swap,
}

/// The fixed schedule: `(due seconds, what)`, sorted by due time. Rates
/// are absolute. Each class cycles through its whole pool in a seeded
/// order, so every seed offers the same mix; the seed only moves which
/// query lands in which slot.
pub fn schedule(seed: u64, shape: &Shape, seconds: f64) -> Vec<(f64, Kind)> {
    let mut rng = Rng::new(seed, 25);
    let mut ev = Vec::new();
    let classes = [
        (shape.interactive_rate, 0.5, true, 0, shape.interactive),
        (shape.bulk_rate, 0.25, false, shape.interactive, shape.bulk),
    ];
    for (rate, phase, interactive, first, count) in classes {
        let mut order = Vec::new();
        let mut k = 0usize;
        loop {
            let due = (k as f64 + phase) / rate;
            if due >= seconds {
                break;
            }
            if order.is_empty() {
                order = permutation(&mut rng, count);
            }
            let query = first + order.pop().expect("refilled when empty");
            ev.push((due, Kind::Submit { interactive, query }));
            k += 1;
        }
    }
    let mut t = shape.swap_every_s / 2.0;
    while t < seconds {
        ev.push((t, Kind::Swap));
        t += shape.swap_every_s;
    }
    ev.sort_by(|a, b| a.0.total_cmp(&b.0));
    ev
}

struct Files {
    images: [PathBuf; 2],
    pool: PathBuf,
}

fn write(inputs: &Inputs, dir: &Path) -> Result<Files, String> {
    let images = [dir.join("gen_a.cdb"), dir.join("gen_b.cdb")];
    for (db, path) in inputs.generations.iter().zip(&images) {
        build_to_file(db, common::config().db_block_size, path).map_err(|e| e.to_string())?;
    }
    let pool = dir.join("pool.fa");
    common::write_fasta(&pool, &inputs.pool)?;
    Ok(Files { images, pool })
}

fn open_images(files: &Files) -> Result<[DbImage; 2], String> {
    let open = |p: &Path| DbImage::open(p).map_err(|e| e.to_string());
    Ok([open(&files.images[0])?, open(&files.images[1])?])
}

fn build_server(img: &DbImage) -> Result<Server, String> {
    Server::from_image(
        img,
        common::params(),
        common::config(),
        common::device(),
        ServeConfig::default(),
    )
    .map_err(|e| e.to_string())
}

/// Set-up: both generations' images opened and mapped, the request pool
/// parsed, and the server built on generation A.
fn setup(files: &Files) -> Result<(Server, [DbImage; 2], Vec<Sequence>), String> {
    let images = open_images(files)?;
    let pool = common::read_fasta(&files.pool)?;
    let server = build_server(&images[0])?;
    Ok((server, images, pool))
}

/// Image serving generation `id`: the server starts on A (id 1) and every
/// swap alternates.
fn image_of(generation: u64) -> usize {
    if generation % 2 == 1 {
        0
    } else {
        1
    }
}

struct InFlight {
    slot: usize,
    due: f64,
    /// Start and end of the `submit` call, seconds from the loop's start.
    submit: (f64, f64),
    interactive: bool,
    query: usize,
    generation: u64,
    handle: ResponseHandle,
    first_block: Option<f64>,
}

struct Done {
    slot: usize,
    due: f64,
    submit: (f64, f64),
    interactive: bool,
    query: usize,
    generation: u64,
    latency_ms: f64,
    first_block: Option<f64>,
    done_at: f64,
    result: Result<Served, SearchError>,
}

/// What the generator keeps of a `ServeResult`: the server's clocks, the
/// modelled device time and the report's identity. Keeping every full
/// report of a run would make `peak_rss_mb` measure the generator.
struct Served {
    generation: u64,
    queue_wait_ms: f64,
    service_ms: f64,
    device_ms: f64,
    key: Key,
}

impl From<ServeResult> for Served {
    fn from(sr: ServeResult) -> Self {
        Self {
            generation: sr.generation,
            queue_wait_ms: sr.queue_wait_ms,
            service_ms: sr.service_ms,
            device_ms: common::modelled_ms(&sr.result),
            key: sr.result.report.identity_key(),
        }
    }
}

/// Everything the open loop observed.
struct LoopOut {
    start: Instant,
    done: Vec<Done>,
    refused: u64,
    lateness_ms: Vec<f64>,
    swap_ms: Vec<f64>,
    /// (swap time, generation retired by it) for generation-lag.
    swaps: Vec<(f64, u64)>,
    blocks: u64,
    elapsed_s: f64,
    /// Process CPU time from the first submission to the end of the drain.
    cpu_ms: f64,
    undrained: usize,
}

fn poll(inflight: &mut Vec<InFlight>, done: &mut Vec<Done>, blocks: &mut u64, start: Instant) {
    let mut i = 0;
    while i < inflight.len() {
        let mut finished = None;
        while let Some(ev) = inflight[i].handle.try_event() {
            let now = start.elapsed().as_secs_f64();
            match ev {
                Event::Block { .. } => {
                    *blocks += 1;
                    inflight[i].first_block.get_or_insert(now);
                }
                Event::Done(res) => {
                    finished = Some((now, res.map(Served::from)));
                    break;
                }
            }
        }
        match finished {
            Some((now, result)) => {
                let f = inflight.swap_remove(i);
                done.push(Done {
                    slot: f.slot,
                    due: f.due,
                    submit: f.submit,
                    interactive: f.interactive,
                    query: f.query,
                    generation: f.generation,
                    latency_ms: (now - f.due) * 1e3,
                    first_block: f.first_block,
                    done_at: now,
                    result,
                });
            }
            None => i += 1,
        }
    }
}

fn open_loop(
    server: &Server,
    images: &[DbImage; 2],
    pool: &[Sequence],
    plan: &[(f64, Kind)],
) -> Result<LoopOut, String> {
    let start = Instant::now();
    let mut out = LoopOut {
        start,
        done: Vec::new(),
        refused: 0,
        lateness_ms: Vec::new(),
        swap_ms: Vec::new(),
        swaps: Vec::new(),
        blocks: 0,
        elapsed_s: 0.0,
        cpu_ms: 0.0,
        undrained: 0,
    };
    let mut inflight: Vec<InFlight> = Vec::new();
    let mut generation = server.generation();
    let cpu0 = common::process_cpu_ms();
    for (slot, &(due, kind)) in plan.iter().enumerate() {
        loop {
            let now = start.elapsed().as_secs_f64();
            if now >= due {
                break;
            }
            poll(&mut inflight, &mut out.done, &mut out.blocks, start);
            let wait = due - start.elapsed().as_secs_f64();
            if wait > 0.0 {
                std::thread::sleep(Duration::from_secs_f64(wait.min(0.001)));
            }
        }
        let submitted = start.elapsed().as_secs_f64();
        out.lateness_ms.push((submitted - due) * 1e3);
        match kind {
            Kind::Submit { interactive, query } => {
                let q = pool[query].clone();
                let req = if interactive {
                    Request::interactive(q, "interactive")
                } else {
                    Request::bulk(q, "bulk")
                };
                match server.submit(req) {
                    Ok(handle) => inflight.push(InFlight {
                        slot,
                        due,
                        submit: (submitted, start.elapsed().as_secs_f64()),
                        interactive,
                        query,
                        generation,
                        handle,
                        first_block: None,
                    }),
                    Err(_) => out.refused += 1,
                }
            }
            Kind::Swap => {
                let t0 = Instant::now();
                let next = &images[image_of(generation + 1)];
                let id = server
                    .swap_image(next)
                    .map_err(|e| format!("hot swap: {e}"))?;
                out.swap_ms.push(t0.elapsed().as_secs_f64() * 1e3);
                out.swaps.push((start.elapsed().as_secs_f64(), generation));
                generation = id;
            }
        }
    }
    let drain_start = Instant::now();
    while !inflight.is_empty() && drain_start.elapsed() < DRAIN_LIMIT {
        poll(&mut inflight, &mut out.done, &mut out.blocks, start);
        std::thread::sleep(Duration::from_millis(1));
    }
    out.undrained = inflight.len();
    out.cpu_ms = common::process_cpu_ms() - cpu0;
    // From the start of the schedule to the last completion.
    let last_due = plan.last().map_or(0.0, |p| p.0);
    out.elapsed_s = out.done.iter().map(|d| d.done_at).fold(last_due, f64::max);
    out.done.sort_by_key(|d| d.slot);
    Ok(out)
}

/// Per-class samples and the run's tallies, with every report checked
/// against the reference of the generation that served it.
struct Scored {
    tally: Tally,
    ok: u64,
    cross_generation: u64,
    deadline_exceeded: u64,
    device_ms: f64,
    latency: [Vec<f64>; 2],
    first_block: Vec<f64>,
    queue_wait: [Vec<f64>; 2],
    service: [Vec<f64>; 2],
    /// One served report per (query, image), for the replay.
    served: BTreeMap<(usize, usize), Key>,
}

fn score(out: &LoopOut, refs: &[Vec<Key>; 2], upload_ms: &[f64; 2]) -> Scored {
    let mut s = Scored {
        tally: Tally::default(),
        ok: 0,
        cross_generation: 0,
        deadline_exceeded: 0,
        // The initial upload and every swap's upload are modelled device
        // work the run paid for.
        device_ms: upload_ms[0]
            + out
                .swaps
                .iter()
                .map(|&(_, retired)| upload_ms[image_of(retired + 1)])
                .sum::<f64>(),
        latency: [Vec::new(), Vec::new()],
        first_block: Vec::new(),
        queue_wait: [Vec::new(), Vec::new()],
        service: [Vec::new(), Vec::new()],
        served: BTreeMap::new(),
    };
    s.tally.attempted += out.refused + out.undrained as u64;
    s.tally.failed += out.refused + out.undrained as u64;
    for d in &out.done {
        let class = usize::from(!d.interactive);
        match &d.result {
            // Served on another generation than the one it was admitted
            // on: wrong whatever the report says.
            Ok(sr) if sr.generation != d.generation => {
                s.cross_generation += 1;
                s.tally.attempted += 1;
                s.tally.mismatched += 1;
            }
            Ok(sr) => {
                let img = image_of(sr.generation);
                if !s.tally.check_key(Some(&sr.key), &refs[img][d.query]) {
                    continue;
                }
                s.ok += 1;
                s.device_ms += sr.device_ms;
                s.latency[class].push(d.latency_ms);
                if d.interactive {
                    s.first_block
                        .extend(d.first_block.map(|t| (t - d.due) * 1e3));
                }
                s.queue_wait[class].push(sr.queue_wait_ms);
                s.service[class].push(sr.service_ms);
                s.served
                    .entry((d.query, img))
                    .or_insert_with(|| sr.key.clone());
            }
            Err(e) => {
                if matches!(e, SearchError::DeadlineExceeded { .. }) {
                    s.deadline_exceeded += 1;
                }
                s.tally.check(None, &refs[0][d.query]);
            }
        }
    }
    s
}

/// Generation lag: after each swap, how long requests pinned to the
/// retired generation kept being served (the old mapping's drain).
fn gen_lag_ms(out: &LoopOut) -> f64 {
    let lags: Vec<f64> = out
        .swaps
        .iter()
        .map(|&(at, retired)| {
            out.done
                .iter()
                .filter(|d| d.generation <= retired)
                .map(|d| (d.done_at - at).max(0.0) * 1e3)
                .fold(0.0, f64::max)
        })
        .collect();
    stats::median(&lags)
}

/// Each served request's lifecycle as spans, seen from the generator:
/// from its due time to its `Done` event, with the `submit` call, the
/// server's own queue-wait and service clocks (derived children placed
/// from the end of `submit`), and the first streamed block as an instant.
fn request_spans(tr: &mut Tracer, out: &LoopOut) {
    let at = |s: f64| out.start + Duration::from_secs_f64(s.max(0.0));
    for d in &out.done {
        let req = d.slot as u64;
        let root = tr.record(name::REQUEST, None, req, (at(d.due), at(d.done_at)), false);
        let (s0, s1) = d.submit;
        tr.record(name::SUBMIT, Some(root), req, (at(s0), at(s1)), false);
        if let Ok(sr) = &d.result {
            let picked = s1 + sr.queue_wait_ms / 1e3;
            tr.record(name::QUEUE, Some(root), req, (at(s1), at(picked)), true);
            let served = (at(picked), at(picked + sr.service_ms / 1e3));
            tr.record(name::SERVICE, Some(root), req, served, true);
        }
        if let Some(t) = d.first_block {
            tr.record(name::FIRST_BLOCK, Some(root), req, (at(t), at(t)), false);
        }
    }
}

pub fn run(args: &Args, dir: &Path) -> Result<Outcome, String> {
    let shape = FULL;
    let generated = inputs(args.seed, &shape);
    let files = write(&generated, dir)?;
    let (mut setup_times, (mut server, images, pool)) = common::timed_setup(|| setup(&files))?;
    let refs = [
        common::reference_keys(&pool, &generated.generations[0]),
        common::reference_keys(&pool, &generated.generations[1]),
    ];
    let device = common::device();
    let upload_ms = [
        common::db_upload_ms(&device, &DeviceDb::from_image(&images[0])),
        common::db_upload_ms(&device, &DeviceDb::from_image(&images[1])),
    ];
    let plan = schedule(args.seed, &shape, args.seconds);

    // Set-up is probed on both sides of the schedule, never during it.
    let probe_s = SETUP_PROBES_S / 2.0;
    setup_times.probe(probe_s, || setup(&files))?;
    let flattens0 = cublastp::flatten_count();
    let mut tr = Tracer::new();
    let out = open_loop(&server, &images, &pool, &plan)?;
    server.shutdown();
    let flattens = cublastp::flatten_count() - flattens0;
    setup_times.probe(probe_s, || setup(&files))?;
    let late = out.lateness_ms.iter().copied().fold(0.0, f64::max);
    if late > LATENESS_BOUND_MS {
        return Err(format!(
            "generator ran {late:.1} ms late (bound {LATENESS_BOUND_MS} ms)"
        ));
    }
    let s = score(&out, &refs, &upload_ms);
    let mut notes = vec![
        setup_times.note(),
        format!(
            "offered {} interactive/s + {} bulk/s for {} s; {} swaps; generator late max {late:.2} ms",
            shape.interactive_rate,
            shape.bulk_rate,
            args.seconds,
            out.swaps.len()
        ),
        format!(
            "bulk lane busy {:.0} % (bulk service time / run time)",
            100.0 * stats::sum(&s.service[1]) / 1e3 / out.elapsed_s
        ),
    ];
    for (class, label) in [(0, "interactive"), (1, "bulk")] {
        let t = stats::tail(&s.latency[class]);
        notes.push(format!(
            "{label}: latency p50 {:.1} ms, tail p{:.1} {:.1} ms over {} samples; queue p50 {:.1} ms, service p50 {:.1} ms",
            stats::median(&s.latency[class]),
            t.percentile,
            t.value,
            t.samples,
            stats::median(&s.queue_wait[class]),
            stats::median(&s.service[class]),
        ));
    }
    let all = s.latency.concat();
    let t = stats::tail(&all);
    notes.push(format!(
        "all requests (latency_*): latency p50 {:.1} ms, tail p{:.1} {:.1} ms over {} samples",
        stats::median(&all),
        t.percentile,
        t.value,
        t.samples
    ));
    notes.push(format!(
        "process CPU time {:.1} ms per correct request (note only, not a gated metric)",
        out.cpu_ms / s.ok.max(1) as f64
    ));
    notes.push(format!(
        "interactive first block p50 {:.1} ms; refused {}, deadline exceeded {}, cross-generation {}, blocks streamed {}",
        stats::median(&s.first_block),
        out.refused,
        s.deadline_exceeded,
        s.cross_generation,
        out.blocks
    ));

    if !args.trace {
        let mut sheet = Sheet::end_to_end();
        sheet.set("setup_s", setup_times.seconds());
        sheet.set("queries_per_s", s.ok as f64 / out.elapsed_s);
        sheet.set("device_ms_per_query", s.device_ms / s.ok.max(1) as f64);
        // Every served request, both classes: the interactive class alone
        // (60 samples of 200–600-residue searches) spread up to 0.3
        // between runs on a shared host. Its figures are in the traced
        // run's `cublastp-serve.interactive_latency_ms.*`.
        let all = s.latency.concat();
        sheet.set("latency_p50_ms", stats::median(&all));
        sheet.set("latency_tail_ms", stats::tail(&all).value);
        sheet.set("peak_rss_mb", common::peak_rss_mb());
        return Ok(Outcome {
            tally: s.tally,
            problems: Vec::new(),
            metrics: sheet.into_values(),
            notes,
        });
    }

    // Traced run: the serving layer's own telemetry from the open loop
    // above, then each served (query, generation) pair replayed through
    // the layers' public calls and compared with what the server sent.
    // Replays alternate with unloaded passes over the same pairs through
    // a server on each image, one request at a time: the untraced cost
    // the layer breakdown must explain.
    let mut sheet = Sheet::per_layer();
    let unloaded = [build_server(&images[0])?, build_server(&images[1])?];
    let mut unloaded_ms = Vec::new();
    let mut unloaded_cpu_ms = Vec::new();
    let dbs = [images[0].to_sequence_db(), images[1].to_sequence_db()];
    let devs = [
        DeviceDb::from_image(&images[0]),
        DeviceDb::from_image(&images[1]),
    ];
    let ctx = Ctx::new();
    request_spans(&mut tr, &out);
    let mut layers = Layers::default();
    let mut problems = Vec::new();
    let mut traced_ms = Vec::new();
    let t0 = Instant::now();
    while traced_ms.is_empty() || t0.elapsed().as_secs_f64() < args.seconds / 2.0 {
        let tu = Instant::now();
        let cu = common::process_cpu_ms();
        for (&(query, img), key) in &s.served {
            let q = pool[query].clone();
            let req = if query < shape.interactive {
                Request::interactive(q, "interactive")
            } else {
                Request::bulk(q, "bulk")
            };
            let served = unloaded[img]
                .submit(req)
                .and_then(|h| h.wait())
                .map_err(|e| format!("unloaded pass: {e}"))?;
            if served.result.report.identity_key() != *key {
                problems.push(format!(
                    "unloaded pass of query {query} on image {img} differs from the open loop"
                ));
            }
        }
        unloaded_cpu_ms.push(common::process_cpu_ms() - cu);
        unloaded_ms.push(tu.elapsed().as_secs_f64() * 1e3);
        let tu = Instant::now();
        tr.span(name::UNIT, 0, |tr| {
            for (&(query, img), key) in &s.served {
                let req = (img * pool.len() + query) as u64;
                let db = &dbs[img];
                let (engine, dq) = replay::setup_query(
                    tr,
                    &mut layers,
                    ctx.params,
                    &pool[query],
                    db.total_residues(),
                    db.len(),
                    req,
                );
                let report = replay::walk_blocks(
                    tr,
                    &mut layers,
                    &ctx,
                    &engine,
                    &dq,
                    db,
                    &devs[img],
                    0,
                    req,
                )?;
                let report = replay::finalize(tr, report, ctx.params.max_reported, req);
                layers.alignments += report.hits.len() as u64;
                if report.identity_key() != *key {
                    problems.push(format!(
                        "replay of query {query} on image {img} differs from the served report"
                    ));
                }
            }
            Ok::<_, String>(())
        })?;
        traced_ms.push(tu.elapsed().as_secs_f64() * 1e3);
    }
    metrics::fill_layers(&mut sheet, &tr, &layers, traced_ms.len());
    drop(unloaded);
    common::set_overhead(&mut sheet, &unloaded_ms, &traced_ms);
    common::set_attribution(
        &mut sheet,
        &tr,
        traced_ms.len(),
        stats::median(&unloaded_cpu_ms),
    );

    let (open_s, _) = common::timed_reps(5, || open_images(&files))?;
    sheet.set("cublastp-db.open_ms", open_s * 1e3);
    sheet.set(
        "cublastp-db.image_bytes",
        images.iter().map(|i| i.region().len() as f64).sum(),
    );
    sheet.set("cublastp-db.swap_ms", stats::median(&out.swap_ms));
    let (parse_s, _) = common::timed_reps(5, || common::read_fasta(&files.pool))?;
    sheet.set("bio-seq.parse_ms", parse_s * 1e3);
    let (upload_s, _) = common::timed_reps(5, || Ok(DeviceDb::from_image(&images[0])))?;
    sheet.set("cublastp.devicedata.upload_ms", upload_s * 1e3);
    sheet.set(
        "cublastp.devicedata.upload_bytes",
        devs[0].upload_bytes() as f64,
    );
    sheet.set("cublastp.devicedata.flattens", flattens as f64);
    sheet.set("pcie.h2d_ms", upload_ms[0]);
    for (class, label) in [(0, "interactive"), (1, "bulk")] {
        sheet.set(
            &format!("cublastp-serve.queue_wait_ms.{label}.p50"),
            stats::median(&s.queue_wait[class]),
        );
        sheet.set(
            &format!("cublastp-serve.queue_wait_ms.{label}.tail"),
            stats::tail(&s.queue_wait[class]).value,
        );
        sheet.set(
            &format!("cublastp-serve.service_ms.{label}.p50"),
            stats::median(&s.service[class]),
        );
        sheet.set(
            &format!("cublastp-serve.service_ms.{label}.tail"),
            stats::tail(&s.service[class]).value,
        );
    }
    sheet.set(
        "cublastp-serve.interactive_first_block_ms",
        stats::median(&s.first_block),
    );
    sheet.set(
        "cublastp-serve.bulk_latency_ms.p50",
        stats::median(&s.latency[1]),
    );
    sheet.set(
        "cublastp-serve.bulk_latency_ms.tail",
        stats::tail(&s.latency[1]).value,
    );
    sheet.set(
        "cublastp-serve.interactive_latency_ms.p50",
        stats::median(&s.latency[0]),
    );
    sheet.set(
        "cublastp-serve.interactive_latency_ms.tail",
        stats::tail(&s.latency[0]).value,
    );
    sheet.set("cublastp-serve.refused", out.refused as f64);
    sheet.set(
        "cublastp-serve.deadline_exceeded",
        s.deadline_exceeded as f64,
    );
    sheet.set("cublastp-serve.cross_generation", s.cross_generation as f64);
    sheet.set("cublastp-serve.blocks_streamed", out.blocks as f64);
    sheet.set("cublastp-serve.gen_lag_ms", gen_lag_ms(&out));
    sheet.set("e2ebench.generator_late_ms", late);
    let mut outcome = common::traced_outcome(s.tally, problems, sheet, &tr, args)?;
    outcome.notes.splice(0..0, notes);
    Ok(outcome)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn schedule_is_fixed_by_seed_and_rates() {
        let a = schedule(4, &FULL, 10.0);
        assert_eq!(a, schedule(4, &FULL, 10.0));
        assert_ne!(a, schedule(5, &FULL, 10.0));
        let count = |interactive: bool| {
            a.iter()
                .filter(
                    |(_, k)| matches!(k, Kind::Submit { interactive: i, .. } if *i == interactive),
                )
                .count()
        };
        assert_eq!(count(true), (FULL.interactive_rate * 10.0) as usize);
        assert_eq!(count(false), (FULL.bulk_rate * 10.0) as usize);
        let swaps = ((10.0 - FULL.swap_every_s / 2.0) / FULL.swap_every_s).ceil() as usize;
        assert_eq!(a.iter().filter(|(_, k)| *k == Kind::Swap).count(), swaps);
        // Offered load does not depend on the seed.
        let b = schedule(5, &FULL, 10.0);
        let times = |s: &[(f64, Kind)]| s.iter().map(|e| e.0.to_bits()).collect::<Vec<_>>();
        assert_eq!(times(&a), times(&b));
    }

    #[test]
    fn generations_differ_by_the_rewrite_only() {
        let shape = Shape {
            db: DbShape {
                name: "tiny",
                subjects: 200,
                mean_len: 100,
                homolog_share: 0.05,
            },
            ..FULL
        };
        let a = inputs(9, &shape);
        let [g0, g1] = &a.generations;
        let changed = g0
            .sequences()
            .iter()
            .zip(g1.sequences())
            .filter(|(x, y)| x.residues != y.residues)
            .count();
        assert!(changed > 0 && changed <= 200 / shape.rewrite_every);
        assert_eq!(
            common::digest_db(g1),
            common::digest_db(&inputs(9, &shape).generations[1])
        );
    }
}
