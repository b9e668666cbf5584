//! The benchmark's workloads and the job instances a run builds from its
//! seed.
//!
//! Every workload trains SpLPG (alpha 0.15, GraphSAGE, batch 256) at p = 2,
//! so the busy threads and processes of one job fit a 2-core host. A run
//! builds several instances per workload, each a dataset generated from a
//! seed derived from the run's `--seed`: the METIS-like partition of one
//! graph can be balanced or lopsided depending on the seed, so a single
//! instance would make a run's figures depend more on the seed than on the
//! program. End-to-end figures are averaged over a run's instances.

use std::sync::Arc;

use splpg_datasets::{Dataset, DatasetSpec, Scale};
use splpg_dist::{
    ClusterSetup, CodecConfig, DistConfig, DistError, DistTrainer, ShmBusMode, Strategy,
    StructCodec, SyncMethod,
};
use splpg_gnn::trainer::TrainConfig;
use splpg_graph::Graph;
use splpg_rng::RngCore;

/// Where a job's workers live.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Cluster {
    /// Worker threads over in-process channels (`DistTrainer::run`).
    Channels,
    /// Worker OS processes over loopback TCP (`DistTrainer::run_multiprocess`).
    Processes,
}

/// One named workload.
#[derive(Debug, Clone)]
pub struct Workload {
    pub name: &'static str,
    dataset: fn() -> DatasetSpec,
    scale: f64,
    /// Dataset instances per run.
    pub instances: usize,
    pub cluster: Cluster,
    layers: usize,
    hidden: usize,
    fanouts: &'static [usize],
    sync: SyncMethod,
    epochs: usize,
    /// Shared-memory feature bus plus the varint structure codec.
    bus: bool,
}

/// Feature columns kept from each dataset stand-in.
const FEATURE_CAP: usize = 64;
const WORKERS: usize = 2;

/// Compute-pool threads per process (`SPLPG_NUM_THREADS`): the host's
/// cores shared among the workers, so busy threads never outnumber cores.
/// With two pool threads in each of two workers on a 2-core host, the
/// same job swung between 3.0 and 6.8 s from one run to the next.
pub fn pool_threads() -> usize {
    let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    (cores / WORKERS).max(1)
}

pub static WORKLOADS: [Workload; 2] = [
    // The training step does almost all the work; partition and the net
    // layer do almost none (one model exchange per worker and epoch). At
    // half scale the p = 2 partition of the Cora stand-in is balanced for
    // every seed; at full scale it flips between 4.4K/4.4K and 7.9K/0.9K
    // positives by seed, which moves a job's time by a third.
    Workload {
        name: "cora-ma-epochs",
        dataset: DatasetSpec::cora,
        scale: 0.5,
        instances: 3,
        cluster: Cluster::Channels,
        layers: 3,
        hidden: 64,
        fanouts: &[25, 10, 5],
        sync: SyncMethod::ModelAveraging,
        epochs: 6,
        bus: false,
    },
    // The sync layer works the other way round: one small gradient
    // exchange per mini-batch. Process spawn, per-child setup, TCP, the
    // codec and the shared-memory feature bus are on here and off in the
    // other workloads.
    Workload {
        name: "citeseer-ga-tcp",
        dataset: DatasetSpec::citeseer,
        scale: 1.0,
        instances: 4,
        cluster: Cluster::Processes,
        layers: 2,
        hidden: 32,
        fanouts: &[10, 5],
        sync: SyncMethod::GradientAveraging,
        epochs: 6,
        bus: true,
    },
];

/// Size of the jobs a run builds.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Profile {
    /// The benchmark's workloads as defined above.
    Full,
    /// A few-second version of each workload for the harness self-check.
    Tiny,
}

impl Profile {
    pub fn name(self) -> &'static str {
        match self {
            Profile::Full => "full",
            Profile::Tiny => "tiny",
        }
    }

    pub fn parse(s: &str) -> Option<Profile> {
        match s {
            "full" => Some(Profile::Full),
            "tiny" => Some(Profile::Tiny),
            _ => None,
        }
    }
}

impl Workload {
    pub fn by_name(name: &str) -> Option<&'static Workload> {
        WORKLOADS.iter().find(|w| w.name == name)
    }

    pub fn epochs(&self, profile: Profile) -> usize {
        match profile {
            Profile::Full => self.epochs,
            Profile::Tiny => self.epochs.min(2),
        }
    }

    /// Instance seeds of a run: a pure function of the run's seed.
    pub fn instance_seeds(&self, run_seed: u64, profile: Profile) -> Vec<u64> {
        let n = match profile {
            Profile::Full => self.instances,
            Profile::Tiny => 1,
        };
        (0..n as u64)
            .map(|i| splpg_rng::derive_stream(run_seed, i).next_u64())
            .collect()
    }

    /// Generates one instance's dataset and trainer.
    pub fn instance(&'static self, seed: u64, profile: Profile) -> Result<Instance, String> {
        let factor = match profile {
            Profile::Full => self.scale,
            Profile::Tiny => self.scale * 0.2,
        };
        let data = (self.dataset)()
            .generate(Scale::new(factor, FEATURE_CAP), seed)
            .map_err(|e| format!("{}: dataset generation failed: {e}", self.name))?;
        let dist = DistConfig {
            num_workers: WORKERS,
            strategy: Strategy::SpLpg,
            sync: self.sync,
            alpha: 0.15,
            eval_every: 1,
            setup_seed: splpg_rng::derive_stream(seed, 0x5E7).next_u64(),
            wire_codec: if self.bus {
                CodecConfig {
                    structure: StructCodec::Varint,
                    ..CodecConfig::default()
                }
            } else {
                CodecConfig::default()
            },
            feature_bus: if self.bus {
                ShmBusMode::On
            } else {
                ShmBusMode::Off
            },
            ..DistConfig::default()
        };
        let train = TrainConfig {
            layers: self.layers,
            hidden: self.hidden,
            batch_size: 256,
            epochs: self.epochs(profile),
            fanouts: self.fanouts.iter().map(|&f| Some(f)).collect(),
            seed,
            ..TrainConfig::default()
        };
        Ok(Instance {
            workload: self,
            seed,
            data,
            trainer: DistTrainer::new(dist, train),
        })
    }
}

/// One dataset plus the trainer every job on it runs.
pub struct Instance {
    pub workload: &'static Workload,
    pub seed: u64,
    pub data: Dataset,
    pub trainer: DistTrainer,
}

impl Instance {
    /// The setup calls `DistTrainer::prepare` makes, on this instance's
    /// inputs and configuration.
    pub fn setup(&self) -> Result<(Arc<Graph>, ClusterSetup), DistError> {
        let train_graph = Arc::new(
            self.data
                .split
                .train_graph(self.data.graph.num_nodes())
                .map_err(|e| DistError::InvalidConfig(e.to_string()))?,
        );
        let setup = self.build_setup(&train_graph)?;
        Ok((train_graph, setup))
    }

    /// `ClusterSetup::build_with_sparsifier` as `DistTrainer::prepare`
    /// calls it, feature copy included.
    pub fn build_setup(&self, train_graph: &Arc<Graph>) -> Result<ClusterSetup, DistError> {
        let dist = self.trainer.dist_config();
        ClusterSetup::build_with_sparsifier(
            train_graph,
            &Arc::new(self.data.features.clone()),
            dist.strategy.spec(),
            dist.num_workers,
            dist.alpha,
            dist.setup_seed,
            dist.sparsifier,
        )
    }
}
