//! The traced job: the benchmark's own re-drive of
//! `DistTrainer::run_reference`, calling the crates' public functions in
//! the same order with a span around each call. It must reproduce the
//! reference's per-epoch loss and bytes bit for bit, which shows that it
//! does the program's work and not an approximation of it.

use std::sync::Arc;
use std::time::Instant;

use splpg_dist::{ClusterSetup, CommReport, EpochStats, ShmBusMode, SyncMethod, WorkerData};
use splpg_gnn::trainer::evaluate_hits;
use splpg_gnn::{
    edges_to_pairs, FeatureAccess, FullFeatureAccess, FullGraphAccess, LinkPredictor,
    NeighborSampler, PerSourceNegativeSampler, SamplerScratch,
};
use splpg_graph::{Edge, Graph};
use splpg_net::shm::{identity_hash, segment_name};
use splpg_net::{SegmentSpec, ShmLane, ShmOwner};
use splpg_nn::{average_grads, Adam, Optimizer, ParamSet};
use splpg_rng::rngs::StdRng;
use splpg_rng::seq::SliceRandom;
use splpg_rng::SeedableRng;
use splpg_tensor::{Tape, Tensor};

use crate::jobs::MODEL;
use crate::trace::Recorder;
use crate::workload::Instance;

/// Counters gathered at the step boundaries of the traced job.
#[derive(Debug, Default)]
pub struct StepCounters {
    pub steps: u64,
    pub expansions: u64,
    pub input_nodes: u64,
    /// Input rows owned by another partition, before the feature cache.
    pub remote_rows_requested: u64,
    /// Rows the worker trackers metered on the wire and bus planes.
    pub remote_rows_metered: u64,
    /// Tape buffer requests that reached the allocator.
    pub tape_allocations: u64,
    pub peak_tape_bytes: usize,
    /// Per sync unit (MA epoch or GA round): Σ_w (max − t_w) and p · max
    /// over the workers' compute spans.
    pub sync_idle_s: f64,
    pub sync_span_s: f64,
}

/// What the traced job produced and measured.
pub struct Mirrored {
    pub test_hits: f64,
    pub epochs: Vec<EpochStats>,
    pub comm: CommReport,
    pub wall_s: f64,
    pub rec: Recorder,
    pub counters: StepCounters,
    pub setup: ClusterSetup,
    pub train_graph: Arc<Graph>,
}

/// One worker's state, as `DistTrainer` builds it for its replicas.
struct Worker {
    model: LinkPredictor,
    params: ParamSet,
    opt: Adam,
    rng: StdRng,
    data: WorkerData,
    sampler: NeighborSampler,
    negatives: PerSourceNegativeSampler,
    batch_size: usize,
    positives: Vec<Edge>,
    shuffled_epoch: Option<u64>,
    tape: Tape,
    scratch: SamplerScratch,
}

fn err(e: impl std::fmt::Display) -> String {
    e.to_string()
}

/// Runs the instance's job traced, with every span under one root.
pub fn run(inst: &Instance, job: u64) -> Result<Mirrored, String> {
    let dist = inst.trainer.dist_config().clone();
    let train = inst.trainer.train_config().clone();
    let data = &inst.data;
    if dist.strategy.spec().global_correction {
        return Err("the traced job does not mirror LLCG's global correction".to_string());
    }
    let mut rec = Recorder::new(job);
    let mut counters = StepCounters::default();
    let t0 = Instant::now();
    let root = rec.open("job");

    let setup_span = rec.open("job.setup");
    let train_graph = rec
        .leaf("graph.train_graph", || {
            data.split.train_graph(data.graph.num_nodes())
        })
        .map_err(err)?;
    let train_graph = Arc::new(train_graph);
    let setup = rec
        .leaf("dist.setup", || inst.build_setup(&train_graph))
        .map_err(err)?;
    let (bus_owner, bus_lane) = if dist.feature_bus == ShmBusMode::Off {
        (None, None)
    } else {
        rec.leaf("net.shm_publish", || publish_features(inst))
            .map(|(o, l)| (Some(o), Some(l)))?
    };
    let mut workers: Vec<Worker> = Vec::with_capacity(setup.workers.len());
    for w in &setup.workers {
        let mut rng = StdRng::seed_from_u64(train.seed);
        let mut params = ParamSet::new();
        let model = rec.leaf("gnn.build_model", || {
            train.build_model(MODEL, data.features.dim(), &mut params, &mut rng)
        });
        let mut w = w.clone();
        w.view = w.view.with_wire_codec(dist.wire_codec);
        if let Some(lane) = &bus_lane {
            w.view = w.view.with_feature_bus(lane.clone());
        }
        workers.push(Worker {
            model,
            params,
            opt: Adam::new(train.learning_rate),
            rng: splpg_rng::derive_stream(train.seed, w.worker_id as u64 + 1),
            negatives: PerSourceNegativeSampler::new(w.negative_space.clone()),
            data: w,
            sampler: train.sampler(),
            batch_size: train.batch_size,
            positives: Vec::new(),
            shuffled_epoch: None,
            tape: Tape::new(),
            scratch: SamplerScratch::new(),
        });
    }
    let mut master_rng = StdRng::seed_from_u64(train.seed);
    let mut master_params = ParamSet::new();
    let master_model = rec.leaf("gnn.build_model", || {
        train.build_model(
            MODEL,
            data.features.dim(),
            &mut master_params,
            &mut master_rng,
        )
    });
    rec.close(setup_span);

    let eval_sampler = NeighborSampler::full(train.layers);
    let mut master_opt = Adam::new(train.learning_rate);
    let mut eval_tape = Tape::new();
    let mut eval_scratch = SamplerScratch::new();
    let mut global_flat = rec.leaf("nn.to_flat", || master_params.to_flat());
    let mut best = (f64::NEG_INFINITY, global_flat.clone());
    let tracker = &setup.tracker;
    let mut prev_bytes = tracker.total_bytes();
    let mut prev_wire = tracker.total_wire_bytes();
    let rounds_per_epoch = workers
        .iter()
        .map(|w| w.data.positives.len().div_ceil(train.batch_size))
        .max()
        .unwrap_or(0);
    let mut epochs = Vec::with_capacity(train.epochs);

    for epoch in 0..train.epochs {
        let epoch_span = rec.open("job.epoch");
        let mean_loss = match dist.sync {
            SyncMethod::ModelAveraging => {
                let mut flats = Vec::with_capacity(workers.len());
                let mut spans = Vec::with_capacity(workers.len());
                let (mut loss_sum, mut batches) = (0.0f64, 0u64);
                for w in &mut workers {
                    let id = rec.open("job.worker_epoch");
                    let (flat, loss, n) =
                        epoch_ma(w, &mut rec, &mut counters, epoch as u64, &global_flat)?;
                    rec.close(id);
                    spans.push(rec.spans()[id].secs());
                    flats.push(flat);
                    loss_sum += loss;
                    batches += n;
                }
                add_sync_wait(&mut counters, &spans);
                global_flat = rec
                    .leaf("nn.average_flat", || ParamSet::average_flat(&flats))
                    .map_err(err)?;
                (loss_sum / batches.max(1) as f64) as f32
            }
            SyncMethod::GradientAveraging => {
                let shapes: Vec<(usize, usize)> = (0..master_params.len())
                    .map(|i| master_params.value(i).shape())
                    .collect();
                let (mut loss_sum, mut active) = (0.0f64, 0u64);
                for round in 0..rounds_per_epoch {
                    let round_span = rec.open("job.round");
                    let mut grads = Vec::with_capacity(workers.len());
                    let mut spans = Vec::with_capacity(workers.len());
                    for w in &mut workers {
                        let id = rec.open("job.worker_round");
                        let contrib = round_ga(
                            w,
                            &mut rec,
                            &mut counters,
                            epoch as u64,
                            round,
                            &global_flat,
                        )?;
                        rec.close(id);
                        spans.push(rec.spans()[id].secs());
                        grads.push(match contrib {
                            Some((loss, g)) => {
                                loss_sum += loss as f64;
                                active += 1;
                                g
                            }
                            None => shapes.iter().map(|&(r, c)| Tensor::zeros(r, c)).collect(),
                        });
                    }
                    add_sync_wait(&mut counters, &spans);
                    let avg = rec
                        .leaf("nn.average_grads", || average_grads(&grads))
                        .map_err(err)?;
                    rec.leaf("nn.load_flat", || master_params.load_flat(&global_flat))
                        .map_err(err)?;
                    rec.leaf("nn.adam", || master_opt.step(&mut master_params, &avg));
                    global_flat = rec.leaf("nn.to_flat", || master_params.to_flat());
                    rec.close(round_span);
                }
                (loss_sum / active.max(1) as f64) as f32
            }
        };
        let now_bytes = tracker.total_bytes();
        let now_wire = tracker.total_wire_bytes();
        let (comm_bytes, comm_wire_bytes) = (now_bytes - prev_bytes, now_wire - prev_wire);
        (prev_bytes, prev_wire) = (now_bytes, now_wire);

        let valid_hits = if epoch % dist.eval_every == 0 || epoch + 1 == train.epochs {
            rec.leaf("nn.load_flat", || master_params.load_flat(&global_flat))
                .map_err(err)?;
            let hits = rec
                .leaf("gnn.eval", || {
                    evaluate_hits(
                        &master_model,
                        &master_params,
                        &FullGraphAccess::new(&train_graph),
                        &mut FullFeatureAccess::new(&data.features),
                        &eval_sampler,
                        &data.split.valid,
                        &data.split.valid_neg,
                        train.hits_k,
                        &mut master_rng,
                        &mut eval_tape,
                        &mut eval_scratch,
                    )
                })
                .map_err(err)?;
            if hits > best.0 {
                best = (hits, global_flat.clone());
            }
            Some(hits)
        } else {
            None
        };
        epochs.push(EpochStats {
            epoch,
            mean_loss,
            valid_hits,
            comm_bytes,
            comm_wire_bytes,
        });
        rec.close(epoch_span);
    }

    let test_span = rec.open("job.test");
    rec.leaf("nn.load_flat", || master_params.load_flat(&best.1))
        .map_err(err)?;
    let test_hits = rec
        .leaf("gnn.eval", || {
            evaluate_hits(
                &master_model,
                &master_params,
                &FullGraphAccess::new(&train_graph),
                &mut FullFeatureAccess::new(&data.features),
                &eval_sampler,
                &data.split.test,
                &data.split.test_neg,
                train.hits_k,
                &mut master_rng,
                &mut eval_tape,
                &mut eval_scratch,
            )
        })
        .map_err(err)?;
    rec.close(test_span);
    let comm = CommReport {
        epoch_bytes: epochs.iter().map(|e| e.comm_bytes).collect(),
        total_structure_bytes: tracker.structure_bytes(),
        total_feature_bytes: tracker.feature_bytes(),
        total_structure_wire_bytes: tracker.structure_wire_bytes(),
        total_feature_wire_bytes: tracker.feature_wire_bytes(),
        total_feature_bus_bytes: tracker.feature_bus_bytes(),
    };
    drop(workers);
    drop(bus_lane);
    drop(bus_owner);
    rec.close(root);
    let wall_s = t0.elapsed().as_secs_f64();
    Ok(Mirrored {
        test_hits,
        epochs,
        comm,
        wall_s,
        rec,
        counters,
        setup,
        train_graph,
    })
}

/// Publishes the feature matrix on the shared-memory bus the way
/// `DistTrainer` does and attaches the reading lane.
pub fn publish_features(inst: &Instance) -> Result<(ShmOwner, ShmLane), String> {
    let features = &inst.data.features;
    let rows = features.num_rows() as u64;
    let dim = features.dim() as u64;
    let spec = SegmentSpec {
        rows,
        dim,
        identity: identity_hash(&[
            rows,
            dim,
            inst.trainer.dist_config().setup_seed,
            inst.trainer.train_config().seed,
        ]),
    };
    let name = segment_name("bench");
    let owner = ShmOwner::create(&name, &spec, features.as_slice()).map_err(err)?;
    let lane = ShmLane::attach(&name, &spec).map_err(err)?;
    Ok((owner, lane))
}

fn add_sync_wait(counters: &mut StepCounters, spans: &[f64]) {
    let max = spans.iter().copied().fold(0.0, f64::max);
    counters.sync_idle_s += spans.iter().map(|t| max - t).sum::<f64>();
    counters.sync_span_s += max * spans.len() as f64;
}

/// The replica's model-averaging epoch.
fn epoch_ma(
    w: &mut Worker,
    rec: &mut Recorder,
    counters: &mut StepCounters,
    epoch: u64,
    flat: &[f32],
) -> Result<(Vec<f32>, f64, u64), String> {
    rec.leaf("nn.load_flat", || w.params.load_flat(flat))
        .map_err(err)?;
    rec.leaf("dist.begin_epoch", || w.data.view.begin_epoch(epoch));
    let positives = rec.leaf("dist.shuffle", || {
        let mut p = w.data.positives.clone();
        p.shuffle(&mut w.rng);
        p
    });
    let (mut loss_sum, mut batches) = (0.0f64, 0u64);
    for chunk in positives.chunks(w.batch_size) {
        let (loss, grads) = step(w, rec, counters, chunk)?;
        rec.leaf("nn.adam", || {
            w.opt.step(&mut w.params, &grads);
            for g in grads {
                w.tape.recycle(g);
            }
        });
        loss_sum += loss as f64;
        batches += 1;
    }
    Ok((
        rec.leaf("nn.to_flat", || w.params.to_flat()),
        loss_sum,
        batches,
    ))
}

/// The replica's gradient-averaging round; `None` once its positives are
/// used up for the epoch.
fn round_ga(
    w: &mut Worker,
    rec: &mut Recorder,
    counters: &mut StepCounters,
    epoch: u64,
    round: usize,
    flat: &[f32],
) -> Result<Option<(f32, Vec<Tensor>)>, String> {
    if w.shuffled_epoch != Some(epoch) {
        rec.leaf("dist.begin_epoch", || w.data.view.begin_epoch(epoch));
        w.positives = rec.leaf("dist.shuffle", || {
            let mut p = w.data.positives.clone();
            p.shuffle(&mut w.rng);
            p
        });
        w.shuffled_epoch = Some(epoch);
    }
    rec.leaf("nn.load_flat", || w.params.load_flat(flat))
        .map_err(err)?;
    let start = round * w.batch_size;
    if start >= w.positives.len() {
        return Ok(None);
    }
    let end = (start + w.batch_size).min(w.positives.len());
    let chunk = w.positives[start..end].to_vec();
    step(w, rec, counters, &chunk).map(Some)
}

/// `splpg_gnn::trainer::batch_grads`, one span per call.
fn step(
    w: &mut Worker,
    rec: &mut Recorder,
    counters: &mut StepCounters,
    positives: &[Edge],
) -> Result<(f32, Vec<Tensor>), String> {
    let id = rec.open("job.step");
    let view = w.data.view.clone();
    let mut feat_view = w.data.view.clone();
    let negatives = rec
        .leaf("gnn.negatives", || {
            w.negatives.sample_for_edges(&view, positives, &mut w.rng)
        })
        .map_err(err)?;
    let (seeds, pairs, labels) = rec.leaf("gnn.pairs", || edges_to_pairs(positives, &negatives));
    let (batch, stats) = rec.leaf("gnn.sample", || {
        w.sampler
            .sample_with_stats(&view, &seeds, &mut w.rng, &mut w.scratch)
    });

    let tracker = view.tracker();
    let dim = feat_view.dim() as u64;
    let metered_before = tracker.feature_elems() + tracker.feature_bus_elems();
    let allocs_before = w.tape.arena_stats().allocations();
    let input_nodes = batch.input_nodes();
    counters.steps += 1;
    counters.expansions += stats.expansions;
    counters.input_nodes += input_nodes.len() as u64;
    counters.remote_rows_requested += input_nodes
        .iter()
        .filter(|&&v| !view.is_feature_local(v))
        .count() as u64;

    let tape = &mut w.tape;
    rec.leaf("tensor.reset", || tape.reset());
    let binding = rec.leaf("nn.bind", || w.params.bind(tape));
    let x = rec.leaf("dist.fetch", || {
        tape.leaf_with(input_nodes.len(), feat_view.dim(), |buf| {
            feat_view.gather_into(input_nodes, buf);
        })
    });
    let model = &w.model;
    let rng = &mut w.rng;
    let (loss, loss_value) = rec.leaf("gnn.forward", || {
        let mut dropout_rng = rng.clone();
        let logits = model.score_pairs(tape, &binding, x, &batch, &pairs, Some(&mut dropout_rng));
        let loss = tape.bce_with_logits(logits, &labels);
        (loss, tape.value(loss).get(0, 0))
    });
    let params = &w.params;
    let collected = rec.leaf("tensor.backward", || {
        let mut grads = tape.backward(loss);
        let collected = binding.collect_grads(params, &mut grads);
        tape.recycle_gradients(grads);
        collected
    });
    counters.remote_rows_metered +=
        (tracker.feature_elems() + tracker.feature_bus_elems() - metered_before) / dim.max(1);
    counters.tape_allocations += tape.arena_stats().allocations() - allocs_before;
    counters.peak_tape_bytes = counters.peak_tape_bytes.max(tape.backing_bytes());
    rec.close(id);
    Ok((loss_value, collected))
}
