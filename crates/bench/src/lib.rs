#![warn(missing_docs)]

//! Experiment harness reproducing every table and figure of the RobuSTore
//! evaluation.
//!
//! Each experiment in [`experiments`] regenerates one paper artifact —
//! the same sweep, the same series, printed as a plain-text table. The
//! `xp` binary dispatches on experiment id (`xp fig6-6`, `xp all`, …) and
//! writes each result to `results/<id>.txt`.
//!
//! Absolute numbers differ from the paper's (our disk substrate is a
//! from-scratch model calibrated to the *shape* of Table 6-1, and the
//! coding benchmarks run on today's CPUs); the comparisons the paper
//! draws — who wins, by what factor, where the knees fall — are the
//! reproduction targets. See `EXPERIMENTS.md` at the repo root.

pub mod delay;
pub mod experiments;

/// Default trial count per configuration. The paper uses 100; the default
/// here keeps a full `xp all` run in minutes on one core. Override with
/// `--trials`.
pub const DEFAULT_TRIALS: u64 = 40;

/// Master seed for all experiments (deterministic output).
pub const MASTER_SEED: u64 = 0x0B05_7013;

/// One registered experiment.
pub struct Experiment {
    /// Id used on the command line and for the results file.
    pub id: &'static str,
    /// The paper artifacts it regenerates.
    pub covers: &'static str,
    /// Run it and return the rendered report.
    pub run: fn(trials: u64) -> String,
}

/// All experiments, in paper order.
pub fn registry() -> Vec<Experiment> {
    use experiments::*;
    vec![
        Experiment {
            id: "table5-1",
            covers: "Table 5-1: Reed-Solomon coding bandwidth vs K",
            run: coding::table5_1,
        },
        Experiment {
            id: "fig4-1",
            covers: "Figure 4-1: reassembly probability, replication vs erasure codes",
            run: coding::fig4_1,
        },
        Experiment {
            id: "fig5-1",
            covers: "Figure 5-1: LT reception overhead vs (C, delta) for K=128/512/1024",
            run: coding::fig5_1,
        },
        Experiment {
            id: "fig5-2",
            covers: "Figure 5-2: edges used in LT decoding vs (C, delta), K=1024",
            run: coding::fig5_2,
        },
        Experiment {
            id: "fig5-3",
            covers: "Figure 5-3: LT decoding bandwidth and reception overhead",
            run: coding::fig5_3,
        },
        Experiment {
            id: "table6-1",
            covers: "Table 6-1: disk bandwidth per (blocking factor, seq probability)",
            run: disk::table6_1,
        },
        Experiment {
            id: "fig6-5",
            covers: "Figure 6-5: background workload interval vs utilisation/foreground bandwidth",
            run: disk::fig6_5,
        },
        Experiment {
            id: "fig6-6",
            covers: "Figures 6-6/6-7/6-8: read vs number of disks (heterogeneous layout)",
            run: layoutvar::fig6_6,
        },
        Experiment {
            id: "fig6-9",
            covers: "Figures 6-9/6-10/6-11: read vs block size",
            run: layoutvar::fig6_9,
        },
        Experiment {
            id: "fig6-12",
            covers: "Figures 6-12/6-13/6-14: read vs network latency (1 GB and 128 MB)",
            run: layoutvar::fig6_12,
        },
        Experiment {
            id: "fig6-15",
            covers: "Figures 6-15/6-16/6-17: read vs data redundancy",
            run: layoutvar::fig6_15,
        },
        Experiment {
            id: "fig6-18",
            covers: "Figures 6-18/6-19/6-20: write vs data redundancy",
            run: layoutvar::fig6_18,
        },
        Experiment {
            id: "fig6-21",
            covers: "Figures 6-21/6-22/6-23: read-after-write (unbalanced striping) vs redundancy",
            run: layoutvar::fig6_21,
        },
        Experiment {
            id: "fig6-24",
            covers: "Figures 6-24/6-25: read vs background interval (homogeneous layout & load)",
            run: competitive::fig6_24,
        },
        Experiment {
            id: "fig6-26",
            covers: "Figures 6-26/6-27/6-28: read vs redundancy under heterogeneous competitive load",
            run: competitive::fig6_26,
        },
        Experiment {
            id: "fig6-29",
            covers: "Figures 6-29/6-30/6-31: write vs redundancy under heterogeneous competitive load",
            run: competitive::fig6_29,
        },
        Experiment {
            id: "fig6-32",
            covers: "Figures 6-32/6-33/6-34: read-after-write vs redundancy under competitive load",
            run: competitive::fig6_32,
        },
        Experiment {
            id: "fig6-35",
            covers: "Figures 6-35/6-36: filesystem-cache impact on bandwidth and variation",
            run: cache::fig6_35,
        },
        Experiment {
            id: "multiuser",
            covers: "Extension: concurrent clients — fairness and system throughput (§7.3 future work)",
            run: multiuser::multiuser,
        },
        Experiment {
            id: "coding-survey",
            covers: "Survey: bandwidth and reception across every implemented erasure code",
            run: coding::coding_survey,
        },
        Experiment {
            id: "bench-coding",
            covers: "Kernel benchmark: every coding kernel the CPU runs (rs-row/xor per kernel, rs/lt at the dispatched kernel) + CRC32C tiers (writes BENCH_coding.json)",
            run: coding::bench_coding,
        },
        Experiment {
            id: "bench-pipeline",
            covers: "Pipeline benchmark: single- vs multi-threaded encode and trial fan-out (writes BENCH_pipeline.json)",
            run: pipeline::bench_pipeline,
        },
        Experiment {
            id: "ablation-lt",
            covers: "Ablation: stock vs improved LT construction (the §5.2.3 claims)",
            run: ablation::ablation_lt,
        },
        Experiment {
            id: "ablation-xor",
            covers: "Ablation: lazy vs greedy XOR decoding (the §5.2.3 lazy-XOR claim)",
            run: ablation::ablation_xor,
        },
        Experiment {
            id: "ablation-sched",
            covers: "Extension: disk queue discipline under heavy sharing (§5.4 future work)",
            run: ablation::ablation_sched,
        },
        Experiment {
            id: "ablation-cancel",
            covers: "Ablation: request cancellation on/off (the §5.3.3 claim)",
            run: ablation::ablation_cancel,
        },
        Experiment {
            id: "faults",
            covers: "Chaos extension: schemes under identical injected fault schedules (§6.3 operationalised)",
            run: faults::faults,
        },
        Experiment {
            id: "tail",
            covers: "Perf extension: open-loop tail latency, static vs queue-aware adaptive read waves (writes BENCH_tail.json)",
            run: tail::tail,
        },
        Experiment {
            id: "scrub",
            covers: "Self-healing extension: redundancy over time with/without scrubbing under seeded loss + bit rot (writes BENCH_scrub.json)",
            run: scrub::scrub,
        },
        Experiment {
            id: "repair",
            covers: "Repair extension: eager vs rate-limited repair under foreground load, plus predicted MTTDL per scheme (writes BENCH_repair.json)",
            run: repair::repair,
        },
        Experiment {
            id: "metadata",
            covers: "Metadata extension: sharded WAL namespace scaling 10^4->10^6 files, crash-recovery time, zero loss under seeded replica chaos (writes BENCH_metadata.json)",
            run: metadata::metadata,
        },
    ]
}

/// Look up an experiment by id.
pub fn find(id: &str) -> Option<Experiment> {
    registry().into_iter().find(|e| e.id == id)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn registry_ids_are_unique() {
        let mut ids: Vec<&str> = registry().iter().map(|e| e.id).collect();
        let n = ids.len();
        ids.sort();
        ids.dedup();
        assert_eq!(ids.len(), n);
        assert_eq!(n, 31, "one entry per paper artifact group plus extensions");
    }

    #[test]
    fn find_works() {
        assert!(find("fig6-6").is_some());
        assert!(find("nope").is_none());
    }
}
