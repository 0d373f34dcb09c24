//! Architecture study: the `SYSCLASS` axis of Table 3.
//!
//! "Our generic model allows simulating the behavior of different types of
//! OODBMSs … object server systems, or database server systems, or even
//! multiserver hybrid systems" (§3.3). This study runs the identical
//! workload against every system class and compares response time and
//! network traffic — the kind of a-priori architecture comparison the
//! paper proposes as a use case ("to determine the best architecture for
//! a given purpose", §5).
//!
//! ```text
//! cargo run --release --example architecture_study
//! ```

use desp::NoProbe;
use ocb::{DatabaseParams, ObjectBase, WorkloadParams};
use voodb::{run_replication, ExperimentConfig, SystemClass, VoodbParams};

fn main() {
    let database = DatabaseParams {
        objects: 5_000,
        ..DatabaseParams::default()
    };
    let workload = WorkloadParams {
        hot_transactions: 200,
        ..WorkloadParams::default()
    };
    // Every class runs on the same base and the same stream.
    let base = ObjectBase::generate(&database, 11);

    let classes: [(&str, SystemClass); 5] = [
        ("Centralized", SystemClass::Centralized),
        ("Object Server", SystemClass::ObjectServer),
        ("Page Server", SystemClass::PageServer),
        ("DB Server", SystemClass::DbServer),
        (
            "Hybrid (3 srv)",
            SystemClass::HybridMultiServer { servers: 3 },
        ),
    ];

    println!("architecture study: 5000 objects, 1 MB/s network, 512-page buffer");
    println!(
        "{:<16} {:>10} {:>14} {:>14} {:>12}",
        "system class", "I/Os", "response(ms)", "throughput", "hit ratio"
    );
    for (name, system_class) in classes {
        let config = ExperimentConfig {
            system: VoodbParams {
                system_class,
                network_throughput_mbps: 1.0,
                buffer_pages: 512,
                ..VoodbParams::default()
            },
            database: database.clone(),
            workload: workload.clone(),
        };
        let (result, _) = run_replication(&base, &config, 11, NoProbe);
        println!(
            "{:<16} {:>10} {:>14.2} {:>11.2}/s {:>12.4}",
            name,
            result.total_ios(),
            result.mean_response_ms,
            result.throughput_tps,
            result.hit_ratio
        );
    }
    println!(
        "\nreading: object/DB servers ship ~1 KB objects where page servers \
         ship 4 KB pages, so on a slow network they respond faster at equal \
         I/O counts; the hybrid splits its buffer and disks across sites."
    );
}
