//! Figure 12 — point-to-point round-trip performance over ATM, same
//! platform: SUN-4 <-> SUN-4 (SunOS 5.5) and RS6000 <-> RS6000 (AIX 4.1),
//! for NCS, p4, MPI and PVM.
//!
//! Expected shape (paper §4.3): all systems comparable below 1 KB; NCS
//! best on the SUN-4; p4 best on the RS6000 (NCS close); p4/MPI degrade on
//! the SUN-4 for large messages; PVM worst on the RS6000.

use std::sync::Arc;
use std::time::Duration;

use ncs_bench::{build_pair, echo_roundtrip, env_f64, env_usize, print_table, System};
use ncs_bench::{ranked, shape_check, FIG12_SIZES};
use netmodel::PlatformProfile;

fn main() {
    let time_scale = env_f64("NCS_TIME_SCALE", 0.25);
    let iters = env_usize("NCS_ITERS", 5);
    println!(
        "Figure 12 reproduction: echo round trip, same platform over ATM \
         (model time; time_scale={time_scale}, iters={iters})"
    );
    for platform in [PlatformProfile::sun4(), PlatformProfile::rs6000()] {
        let platform = Arc::new(platform);
        let mut columns: Vec<(String, Vec<Duration>)> = Vec::new();
        for system in System::ALL {
            let mut series = Vec::new();
            for &size in FIG12_SIZES {
                let (mut client, server) = build_pair(
                    system,
                    Arc::clone(&platform),
                    Arc::clone(&platform),
                    time_scale,
                );
                series.push(echo_roundtrip(
                    client.as_mut(),
                    server,
                    size,
                    iters,
                    time_scale,
                ));
            }
            columns.push((system.name().to_owned(), series));
        }
        print_table(
            &format!("Figure 12: {} <-> same", platform.name),
            FIG12_SIZES,
            &columns,
        );
        let (o, numbers) = ranked(&columns, FIG12_SIZES.len() - 1);
        let ends = [o[0], o[3]];
        let (claim, holds) = match platform.name.starts_with("SUN") {
            true => ("SUN-4 64K: NCS first", ends[0] == "NCS"),
            false => ("RS6000 64K: p4 first, PVM last", ends == ["p4", "PVM"]),
        };
        shape_check(claim, &numbers, holds);
    }
}
