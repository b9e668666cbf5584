//! Direct calls into single layers, timed from outside: the partitioner
//! with the job's setup seed, and the net layer's TCP lane, codec and
//! shared-memory bus with a job-sized payload.

use std::time::Instant;

use splpg_net::codec::{decode, encode_with};
use splpg_net::{
    CodecConfig, Message, MsgId, Request, TcpConfig, TcpTransport, Transport, WireStats,
};
use splpg_nn::ParamSet;
use splpg_partition::{MetisLike, Partition, Partitioner};
use splpg_rng::rngs::StdRng;
use splpg_rng::SeedableRng;

use crate::jobs::MODEL;
use crate::report::median;
use crate::workload::Instance;

/// Timed samples per net probe.
const NET_SAMPLES: usize = 41;
const SHM_SAMPLES: usize = 5;

/// `MetisLike::partition` as `ClusterSetup` calls it: first draw from a
/// generator seeded with the setup seed. Returns seconds and the result.
pub fn partition(inst: &Instance, graph: &splpg_graph::Graph) -> Result<(f64, Partition), String> {
    let dist = inst.trainer.dist_config();
    let mut rng = StdRng::seed_from_u64(dist.setup_seed);
    let t0 = Instant::now();
    let part = MetisLike::default()
        .partition(graph, dist.num_workers, &mut rng)
        .map_err(|e| e.to_string())?;
    Ok((t0.elapsed().as_secs_f64(), part))
}

/// Scalars in the model the instance trains: the payload of every
/// parameter or gradient frame.
pub fn param_count(inst: &Instance) -> usize {
    let train = inst.trainer.train_config();
    let mut params = ParamSet::new();
    let mut rng = StdRng::seed_from_u64(train.seed);
    train.build_model(MODEL, inst.data.features.dim(), &mut params, &mut rng);
    params.to_flat().len()
}

/// Median seconds of one parameter-sized frame round trip over a
/// loopback `TcpTransport` pair, and of `encode_with` + `decode` of it.
pub fn tcp_and_codec(params: usize, codec: CodecConfig) -> Result<(f64, f64), String> {
    let msg = Message::Request(Request::Round {
        id: MsgId {
            worker: 1,
            epoch: 2,
            round: 3,
            attempt: 0,
        },
        params: (0..params).map(|i| i as f32 * 1e-3).collect(),
    });
    let mut codec_s = Vec::with_capacity(NET_SAMPLES);
    for _ in 0..NET_SAMPLES {
        let t0 = Instant::now();
        let frame = encode_with(&msg, codec);
        let back = decode(&frame).map_err(|e| e.to_string())?;
        codec_s.push(t0.elapsed().as_secs_f64());
        if back != msg {
            return Err("codec round trip changed the frame".to_string());
        }
    }
    let frame = encode_with(&msg, codec);
    let (mut a, mut b) =
        TcpTransport::pair(&TcpConfig::default(), WireStats::new()).map_err(|e| e.to_string())?;
    let mut rtt_s = Vec::with_capacity(NET_SAMPLES);
    for _ in 0..NET_SAMPLES {
        let t0 = Instant::now();
        a.send(frame.clone()).map_err(|e| e.to_string())?;
        let echoed = b.recv().map_err(|e| e.to_string())?;
        b.send(echoed).map_err(|e| e.to_string())?;
        let back = a.recv().map_err(|e| e.to_string())?;
        rtt_s.push(t0.elapsed().as_secs_f64());
        if back != frame {
            return Err("TCP round trip changed the frame".to_string());
        }
    }
    Ok((median(&rtt_s), median(&codec_s)))
}

/// Median seconds to publish the feature matrix on the bus and attach
/// a lane (`ShmOwner::create` + `ShmLane::attach`).
pub fn shm_publish(inst: &Instance) -> Result<f64, String> {
    let mut samples = Vec::with_capacity(SHM_SAMPLES);
    for _ in 0..SHM_SAMPLES {
        let t0 = Instant::now();
        let published = crate::mirror::publish_features(inst)?;
        samples.push(t0.elapsed().as_secs_f64());
        drop(published);
    }
    Ok(median(&samples))
}
