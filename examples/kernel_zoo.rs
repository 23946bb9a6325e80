//! Runs every kernel of the zoo on the cycle-accurate simulator, verifies
//! each against its host-side reference, and prints cycles, IPC and
//! bank-conflict cycles per kernel.
//!
//! ```text
//! cargo run --release --example kernel_zoo
//! ```

use mempool_3d::mempool_arch::ClusterConfig;
use mempool_3d::mempool_kernels::axpy::Axpy;
use mempool_3d::mempool_kernels::conv2d::Conv2d;
use mempool_3d::mempool_kernels::dotprod::DotProduct;
use mempool_3d::mempool_kernels::matmul::{Blocking, ComputePhase};
use mempool_3d::mempool_kernels::transpose::Transpose;
use mempool_3d::mempool_kernels::Kernel;
use mempool_3d::mempool_sim::{Cluster, SimParams};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let config = ClusterConfig::builder()
        .groups(1)
        .tiles_per_group(4)
        .cores_per_tile(4)
        .banks_per_tile(16)
        .bank_words(256)
        .build()?;

    let axpy = Axpy::new(2048, 7);
    let dot = DotProduct::new(2048);
    let conv = Conv2d::new(34, 18, [1, 2, 1, 2, 4, 2, 1, 2, 1]).with_relu(200);
    let matmul = ComputePhase::new(32);
    let matmul_naive = ComputePhase::new(32).with_blocking(Blocking::Naive);
    let matmul_staggered = ComputePhase::new(32).with_blocking(Blocking::Staggered);
    let transpose = Transpose::new(64);
    let kernels: Vec<&dyn Kernel> = vec![
        &axpy,
        &dot,
        &conv,
        &matmul,
        &matmul_naive,
        &matmul_staggered,
        &transpose,
    ];

    println!(
        "{:<24} {:>9} {:>6} {:>10}",
        "kernel", "cycles", "IPC", "conflicts"
    );
    for kernel in kernels {
        let mut cluster = Cluster::new(config.clone(), SimParams::default());
        let cycles = kernel.run(&mut cluster, 1_000_000_000)?;
        let stats = cluster.stats();
        println!(
            "{:<24} {cycles:>9} {:>6.2} {:>10}",
            kernel.name(),
            stats.ipc(),
            stats.total_conflicts()
        );
    }
    println!("\nall kernels verified against their host references");
    println!("(matmul rows: 1x2-blocked, naive, and column-staggered inner loops)");
    Ok(())
}
