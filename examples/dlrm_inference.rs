//! DLRM inference: functional MERCI memoization (same scores, fewer memory
//! lookups) and the CPU-vs-Rambda serving comparison, including the
//! envisioned local-memory accelerators.
//!
//! Run: `cargo run --release -p rambda-examples --bin dlrm_inference`

use rambda::{Design, SimBuilder, Testbed};
use rambda_accel::DataLocation;
use rambda_des::SimRng;
use rambda_dlrm::merci::sample_correlated_query;
use rambda_dlrm::{DlrmDesigns, DlrmModel, DlrmParams, MemoTable, ReductionPlan};
use rambda_examples::{banner, metric};
use rambda_workloads::{DlrmProfile, Zipf};

fn main() {
    banner("functional MERCI: same result, fewer lookups");
    let rows = 16_384u32;
    let model = DlrmModel::synthetic(rows as usize, 64);
    let memo = MemoTable::build(&model.embedding);
    let profile = DlrmProfile::by_name("Books").unwrap();
    let pair_zipf = Zipf::new(rows as u64 / 2, profile.zipf_theta);
    let mut rng = SimRng::seed(5);
    let query = sample_correlated_query(&profile, rows, &pair_zipf, &mut rng);
    let plan = ReductionPlan::build(&query, &memo);
    let fast = plan.reduce(&model.embedding, &memo);
    let score = model.mlp.forward(&fast)[0];
    let naive = model.infer(&query.features);
    metric("query features", query.len());
    metric("lookups with MERCI", plan.lookups());
    metric("memoized fraction", format!("{:.0}%", plan.memo_fraction() * 100.0));
    metric("score (memoized)", format!("{score:.6}"));
    metric("score (naive)", format!("{naive:.6}"));

    banner("Fig. 13 style serving comparison (Books)");
    let testbed = Testbed::default();
    let params = DlrmParams::quick(profile);
    let mops = |design: Design| SimBuilder::new(design).config(&testbed).run().throughput_mops();
    let c1 = mops(Design::dlrm_cpu(params.clone(), 1));
    let c8 = mops(Design::dlrm_cpu(params.clone(), 8));
    let rambda = mops(Design::dlrm_rambda(params.clone(), DataLocation::HostDram));
    let ld = mops(Design::dlrm_rambda(params.clone(), DataLocation::LocalDdr));
    let lh = mops(Design::dlrm_rambda(params, DataLocation::LocalHbm));
    metric("CPU x1 (Mq/s)", format!("{c1:.2}"));
    metric("CPU x8 (Mq/s)", format!("{c8:.2}"));
    metric("Rambda prototype (Mq/s)", format!("{rambda:.2}  ({:.0}% of one core)", rambda / c1 * 100.0));
    metric("Rambda-LD (Mq/s)", format!("{ld:.2}  ({:.2}x of 8 cores)", ld / c8));
    metric("Rambda-LH (Mq/s)", format!("{lh:.2}  ({:.2}x of 8 cores)", lh / c8));
    println!("\nThe prototype is starved by serial gathers over the cc-interconnect;");
    println!("accelerator-local memory (LD/HBM) turns the tables until the network limits.");
}
