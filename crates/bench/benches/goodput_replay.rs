//! The two `pccheck-trace` paths nothing else times: generating the
//! synthetic GCP A100 preemption trace and replaying a simulated run
//! against it (the inner loop of Figures 2 and 9, whose rows the
//! `pccheck-harness` `fig2`/`fig9` binaries print).
use pccheck_bench::stats::time;
use pccheck_trace::{GoodputReplay, PreemptionTrace};
use pccheck_util::SimDuration;

fn main() {
    println!("[goodput replay] BLOOM-7B, PCcheck N=2 p=3, interval 10");
    time("trace/synthetic_gcp_a100", 20, || {
        PreemptionTrace::synthetic_gcp_a100(7)
    });
    let report = pccheck_harness::sweep::run_point(
        &pccheck_gpu::ModelZoo::bloom_7b(),
        pccheck_sim::StrategyCfg::pccheck(2, 3),
        10,
    );
    let trace = PreemptionTrace::synthetic_gcp_a100(1);
    let replay = GoodputReplay::new(SimDuration::from_secs(40));
    time("trace/goodput_replay", 20, || {
        replay.replay(&report, &trace)
    });
}
