//! Timed whole jobs, setup timings, and the output checks every job must
//! pass against `DistTrainer::run_reference`.

use std::path::{Path, PathBuf};
use std::time::Instant;

use splpg_dist::{
    tcp_worker_entry, CommReport, DistConfig, DistError, DistOutcome, DistTrainer, EpochStats,
    ShmBusMode,
};
use splpg_gnn::trainer::ModelKind;

use crate::sys;
use crate::workload::{Cluster, Instance, Profile, Workload};

/// The model every workload trains.
pub const MODEL: ModelKind = ModelKind::GraphSage;

/// First argument of a re-executed worker child.
const CHILD_FLAG: &str = "--child";

/// What one timed job measured.
#[derive(Debug, Clone, Copy)]
pub struct JobSample {
    pub wall_s: f64,
    pub cpu_s: f64,
    pub peak_rss_mib: f64,
}

/// Compares a job's results with the reference's bit for bit: test
/// Hits@K, every epoch's statistics, and the comm report.
pub fn same_bits(
    expected: &DistOutcome,
    test_hits: f64,
    epochs: &[EpochStats],
    comm: &CommReport,
) -> Result<(), String> {
    if test_hits.to_bits() != expected.test_hits.to_bits() {
        return Err(format!(
            "test_hits {test_hits} != reference {}",
            expected.test_hits
        ));
    }
    if epochs.len() != expected.epochs.len() {
        return Err(format!(
            "{} epochs != reference {}",
            epochs.len(),
            expected.epochs.len()
        ));
    }
    for (g, e) in epochs.iter().zip(&expected.epochs) {
        if g.mean_loss.to_bits() != e.mean_loss.to_bits()
            || g.valid_hits.map(f64::to_bits) != e.valid_hits.map(f64::to_bits)
            || g.comm_bytes != e.comm_bytes
            || g.comm_wire_bytes != e.comm_wire_bytes
        {
            return Err(format!("epoch {}: {g:?} != reference {e:?}", e.epoch));
        }
    }
    if *comm != expected.comm {
        return Err(format!(
            "comm report {comm:?} != reference {:?}",
            expected.comm
        ));
    }
    Ok(())
}

/// The output checks of a timed job: bits equal to the reference's, and
/// the traffic ledgers reconciled with the meters.
pub fn check(expected: &DistOutcome, got: &DistOutcome, inst: &Instance) -> Result<(), String> {
    same_bits(expected, got.test_hits, &got.epochs, &got.comm)?;
    let net = &got.net;
    let comm = &got.comm;
    if net.data_bytes != comm.total_bytes()
        || net.data_wire_bytes != comm.total_wire_bytes()
        || net.data_bus_bytes != comm.total_feature_bus_bytes
    {
        return Err(format!(
            "ledgers {}/{}/{} (raw/wire/bus) do not reconcile with meters {}/{}/{}",
            net.data_bytes,
            net.data_wire_bytes,
            net.data_bus_bytes,
            comm.total_bytes(),
            comm.total_wire_bytes(),
            comm.total_feature_bus_bytes
        ));
    }
    if let Some(fault) = &net.shm_fault {
        return Err(format!("feature bus fell back to the wire: {fault}"));
    }
    if inst.trainer.dist_config().feature_bus == ShmBusMode::On && comm.total_feature_bus_bytes == 0
    {
        return Err("feature bus carried no bytes".to_string());
    }
    if !got.failures.is_empty() || !net.dead_workers.is_empty() || net.retries != 0 {
        return Err(format!(
            "faults on a fault-free job: failures {:?}, dead {:?}, retries {}",
            got.failures, net.dead_workers, net.retries
        ));
    }
    Ok(())
}

/// The untimed sequential reference of an instance, itself checked for
/// a healthy bus and consistent meters.
pub fn reference(inst: &Instance) -> Result<DistOutcome, String> {
    let out = inst
        .trainer
        .run_reference(MODEL, &inst.data)
        .map_err(|e| e.to_string())?;
    if let Some(fault) = &out.net.shm_fault {
        return Err(format!(
            "reference: feature bus fell back to the wire: {fault}"
        ));
    }
    if out.epochs.iter().map(|e| e.comm_bytes).sum::<u64>() != out.comm.total_bytes() {
        return Err("reference: per-epoch bytes do not sum to the comm report".to_string());
    }
    Ok(out)
}

/// Wall time of the setup calls `DistTrainer::prepare` makes.
pub fn time_setup(inst: &Instance) -> Result<f64, String> {
    let t0 = Instant::now();
    let prepared = inst.setup().map_err(|e| e.to_string())?;
    let wall = t0.elapsed().as_secs_f64();
    drop(prepared);
    Ok(wall)
}

/// Runs one whole job on the instance's cluster and measures it: wall
/// time from the call until the outcome returns and children are reaped,
/// CPU of the master plus every worker process, and the largest VmHWM
/// among them.
pub fn timed_job(
    inst: &Instance,
    scratch: &Path,
    profile: Profile,
) -> Result<(JobSample, DistOutcome), String> {
    let reports = scratch.join(format!("children-{}", std::process::id()));
    if inst.workload.cluster == Cluster::Processes {
        let _ = std::fs::remove_dir_all(&reports);
        std::fs::create_dir_all(&reports).map_err(|e| format!("{}: {e}", reports.display()))?;
    }
    sys::reset_peak_rss();
    let cpu0 = sys::cpu_s().ok_or("cannot read /proc/self/stat")?;
    let t0 = Instant::now();
    let outcome = match inst.workload.cluster {
        Cluster::Channels => inst.trainer.run(MODEL, &inst.data),
        Cluster::Processes => {
            let args = child_args(inst, profile, &reports);
            inst.trainer.run_multiprocess(MODEL, &inst.data, &args)
        }
    };
    let wall_s = t0.elapsed().as_secs_f64();
    let cpu1 = sys::cpu_s().ok_or("cannot read /proc/self/stat")?;
    let master_peak = sys::peak_rss_kib().ok_or("cannot read VmHWM")?;
    let outcome = outcome.map_err(|e| e.to_string())?;
    let mut cpu_s = cpu1 - cpu0;
    let mut peak_kib = master_peak;
    if inst.workload.cluster == Cluster::Processes {
        let children = read_child_reports(&reports)?;
        let workers = inst.trainer.dist_config().num_workers;
        if children.len() != workers {
            return Err(format!(
                "{} worker reports for {workers} workers",
                children.len()
            ));
        }
        for (child_peak, child_cpu) in children {
            cpu_s += child_cpu;
            peak_kib = peak_kib.max(child_peak);
        }
        let _ = std::fs::remove_dir_all(&reports);
    }
    Ok((
        JobSample {
            wall_s,
            cpu_s,
            peak_rss_mib: peak_kib as f64 / 1024.0,
        },
        outcome,
    ))
}

fn child_args(inst: &Instance, profile: Profile, reports: &Path) -> Vec<String> {
    vec![
        CHILD_FLAG.to_string(),
        inst.workload.name.to_string(),
        inst.seed.to_string(),
        profile.name().to_string(),
        reports.display().to_string(),
    ]
}

fn read_child_reports(dir: &Path) -> Result<Vec<(u64, f64)>, String> {
    let mut out = Vec::new();
    let entries = std::fs::read_dir(dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    for entry in entries {
        let path = entry.map_err(|e| e.to_string())?.path();
        if path.extension().is_some_and(|x| x == "tmp") {
            continue;
        }
        let text =
            std::fs::read_to_string(&path).map_err(|e| format!("{}: {e}", path.display()))?;
        let mut parts = text.split_whitespace();
        let peak = parts.next().and_then(|s| s.parse().ok());
        let cpu = parts.next().and_then(|s| s.parse().ok());
        match (peak, cpu) {
            (Some(p), Some(c)) => out.push((p, c)),
            _ => {
                return Err(format!(
                    "{}: malformed worker report {text:?}",
                    path.display()
                ))
            }
        }
    }
    Ok(out)
}

/// In a worker child re-executed by `run_multiprocess`: rebuilds the
/// instance from the arguments its master passed, serves the cluster, and
/// leaves its VmHWM and CPU seconds in the master's report directory
/// (child stdout goes nowhere). Returns `Ok(false)` in the master.
pub fn serve_child() -> Result<bool, String> {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut report_dir: Option<PathBuf> = None;
    let served = tcp_worker_entry(|workers| {
        let fail = |msg: String| DistError::Process(msg);
        let [flag, name, seed, profile, dir] = args.as_slice() else {
            return Err(fail(format!("worker child got arguments {args:?}")));
        };
        if flag != CHILD_FLAG {
            return Err(fail(format!("worker child got arguments {args:?}")));
        }
        let workload =
            Workload::by_name(name).ok_or_else(|| fail(format!("unknown workload {name}")))?;
        let seed = seed.parse().map_err(|_| fail(format!("bad seed {seed}")))?;
        let profile =
            Profile::parse(profile).ok_or_else(|| fail(format!("bad profile {profile}")))?;
        let inst = workload.instance(seed, profile).map_err(fail)?;
        report_dir = Some(PathBuf::from(dir));
        let trainer = DistTrainer::new(
            DistConfig {
                num_workers: workers,
                ..inst.trainer.dist_config().clone()
            },
            inst.trainer.train_config().clone(),
        );
        Ok((trainer, MODEL, inst.data))
    })
    .map_err(|e| e.to_string())?;
    if !served {
        return Ok(false);
    }
    let dir = report_dir.ok_or("worker child served without a report directory")?;
    let peak = sys::peak_rss_kib().ok_or("cannot read VmHWM")?;
    let cpu = sys::cpu_s().ok_or("cannot read /proc/self/stat")?;
    // Written under a temporary name and renamed, so the master never
    // reads a half-written report.
    let id = std::process::id();
    let tmp = dir.join(format!("{id}.tmp"));
    std::fs::write(&tmp, format!("{peak} {cpu}\n")).map_err(|e| e.to_string())?;
    std::fs::rename(&tmp, dir.join(format!("{id}.txt"))).map_err(|e| e.to_string())?;
    Ok(true)
}
