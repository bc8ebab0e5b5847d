//! `sparse_fleet`: thousands of independent 1 s jobs fanned over
//! `par_map`.
//!
//! Each job is LFSR stimulus at a rate log-spaced over 1 evt/s–2 kevt/s
//! (assigned to jobs in a seeded order) with its own seed derived from
//! the workload seed. Per-job fixed cost, stimulus generation and the
//! clock generator's idle fast-forward dominate; the per-event path does
//! little. The fleet-service job shape.

use std::time::Instant;

use aetr_analysis::sweep::log_space;
use aetr_sim::parallel::{available_jobs, par_map};
use aetr_sim::time::SimTime;

use super::{derive, since, tracer_for, Counts, LfsrJob, Rig, Round, Workload};
use crate::checks::{check_engines_agree, check_same_order, Checks, OutputDigest};
use crate::Options;

/// The workload: a fixed fleet of jobs.
#[derive(Debug, Clone)]
pub struct SparseFleet {
    rig: Rig,
    jobs: Vec<LfsrJob>,
    workers: usize,
    /// The job whose engines are compared.
    sampled: usize,
}

impl Workload for SparseFleet {
    // The quiet windows of a 25 s run hold some 10^5 jobs, but p99.9
    // lands on the jobs a millisecond-long preemption hit; p99 still reads
    // the heaviest jobs' own work.
    const TAIL_PCT: f64 = 99.0;

    fn plan(opts: &Options) -> SparseFleet {
        let n = if opts.quick { 16 } else { 8_000 };
        let mut rates = log_space(1.0, 2_000.0, n);
        // Seeded Fisher–Yates, so heavy jobs are not all queued last.
        for i in (1..n).rev() {
            rates.swap(i, (derive(opts.seed, (n + i) as u64) % (i as u64 + 1)) as usize);
        }
        let jobs = rates
            .into_iter()
            .enumerate()
            .map(|(i, rate_hz)| LfsrJob {
                rate_hz,
                seed: derive(opts.seed, i as u64) as u32,
                horizon: SimTime::from_secs(1),
            })
            .collect();
        SparseFleet {
            rig: Rig::prototype(),
            jobs,
            workers: available_jobs(),
            sampled: (opts.seed % n as u64) as usize,
        }
    }

    fn round(&self, trace: Option<(Instant, u64)>) -> Round {
        let t0 = Instant::now();
        let outs = par_map(self.workers, &self.jobs, |i, job| {
            let run = job.run(&self.rig, t0, tracer_for(trace, i));
            // The checks run on the worker, inside the round's timer:
            // holding every job's report until the round ends would
            // swell the peak RSS. Timed, so their share is known.
            let started = Instant::now();
            let mut out = run.settle(&self.rig.mcu);
            out.settle_s = since(started);
            out
        });
        Round::from_jobs(since(t0), self.workers, outs)
    }

    fn verify(&self, first: &Round, checks: &mut Checks) -> OutputDigest {
        let t0 = Instant::now();
        let sequential: Vec<u64> = self
            .jobs
            .iter()
            .map(|job| {
                job.run(&self.rig, t0, tracer_for(None, 0)).settle(&self.rig.mcu).digest.combined()
            })
            .collect();
        check_same_order(&first.job_digests, &sequential, checks);
        let (default, reference) = self.jobs[self.sampled].both_engines(&self.rig);
        check_engines_agree(&default, &reference, checks);
        first.digest
    }

    fn probe(&self) -> Counts {
        let mut counts = Counts::default();
        for c in par_map(self.workers, &self.jobs, |_, job| job.probe(&self.rig)) {
            counts.add(&c);
        }
        counts
    }
}
