//! Figure 13 — point-to-point round-trip performance over ATM between
//! heterogeneous platforms (SUN-4 <-> RS6000).
//!
//! Expected shape (paper §4.3): NCS outperforms all others (it converts
//! nothing); PVM next (tuned XDR); p4 worse (nominal XDR both sides);
//! MPI collapses for large messages (conservative packing + rendezvous).

use std::sync::Arc;
use std::time::Duration;

use ncs_bench::{build_pair, echo_roundtrip, env_f64, env_usize, print_table, System};
use ncs_bench::{ranked, shape_check, FIG12_SIZES};
use netmodel::PlatformProfile;

fn main() {
    let time_scale = env_f64("NCS_TIME_SCALE", 0.25);
    let iters = env_usize("NCS_ITERS", 5);
    println!(
        "Figure 13 reproduction: echo round trip, SUN-4 <-> RS6000 over ATM \
         (model time; time_scale={time_scale}, iters={iters})"
    );
    let sun = Arc::new(PlatformProfile::sun4());
    let rs = Arc::new(PlatformProfile::rs6000());
    let mut columns: Vec<(String, Vec<Duration>)> = Vec::new();
    for system in System::ALL {
        let mut series = Vec::new();
        for &size in FIG12_SIZES {
            let (mut client, server) =
                build_pair(system, Arc::clone(&sun), Arc::clone(&rs), time_scale);
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
    print_table("Figure 13: SUN-4 <-> RS6000", FIG12_SIZES, &columns);
    let (order, numbers) = ranked(&columns, FIG12_SIZES.len() - 1);
    let holds = order == ["NCS", "PVM", "p4", "MPI"];
    shape_check("64K: NCS < PVM < p4 < MPI", &numbers, holds);
}
