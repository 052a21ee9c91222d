//! End-to-end collectives tests: correctness of broadcast/allreduce (and
//! friends) for groups of 2–8 members across all four communication
//! interfaces, under both thread packages, including a seeded-loss ACI
//! run that heals through the error-control plane, nonblocking overlap,
//! and barrier races against the legacy `NcsGroup` barrier.

use std::collections::HashMap;
use std::sync::Arc;
use std::time::Duration;

use ncs_collectives::{
    CollectiveConfig, CollectiveError, CollectiveGroup, CollectiveHandle, ReduceOp, Topology,
};
use ncs_core::link::{AciLink, HpiLinkPair, PipeLinkPair, SciLink};
use ncs_core::{ConnectionConfig, ErrorControlAlg, FlowControlAlg, NcsConnection, NcsNode};
use ncs_threads::sync::NcsMutex;
use ncs_threads::{
    KernelPackage, SwitchMech, ThreadPackage, ThreadPackageExt, UserConfig, UserRuntime,
};
use ncs_transport::pipe::PipeConfig;
use ncs_transport::sci::SciListener;

#[derive(Clone, Copy, PartialEq, Eq, Debug)]
enum Iface {
    Hpi,
    Pipe,
    Sci,
    Aci,
}

struct Cluster {
    nodes: Vec<NcsNode>,
    groups: Vec<Arc<CollectiveGroup>>,
    fabric: Option<Arc<ncs_transport::aci::AciFabric>>,
}

impl Cluster {
    fn shutdown(self) {
        drop(self.groups);
        for n in self.nodes {
            n.shutdown();
        }
        if let Some(f) = self.fabric {
            f.shutdown();
        }
    }
}

fn attach_mesh(nodes: &[NcsNode], iface: Iface) -> Option<Arc<ncs_transport::aci::AciFabric>> {
    let n = nodes.len();
    match iface {
        Iface::Hpi => {
            for i in 0..n {
                for j in (i + 1)..n {
                    let (li, lj) = HpiLinkPair::with_capacity(2048);
                    nodes[i].attach_peer(&format!("c{j}"), li);
                    nodes[j].attach_peer(&format!("c{i}"), lj);
                }
            }
            None
        }
        Iface::Pipe => {
            let wire = PipeConfig {
                buffer_bytes: 256 * 1024,
                drain_bytes_per_sec: None,
                latency: Duration::ZERO,
                time_scale: 1.0,
            };
            for i in 0..n {
                for j in (i + 1)..n {
                    let (li, lj) = PipeLinkPair::create(wire.clone(), None, None);
                    nodes[i].attach_peer(&format!("c{j}"), li);
                    nodes[j].attach_peer(&format!("c{i}"), lj);
                }
            }
            None
        }
        Iface::Sci => {
            let listeners: Vec<Arc<SciListener>> = (0..n)
                .map(|_| Arc::new(SciListener::bind("127.0.0.1:0").expect("bind")))
                .collect();
            let addrs: Vec<std::net::SocketAddr> = listeners
                .iter()
                .map(|l| l.local_addr().expect("addr"))
                .collect();
            for i in 0..n {
                for (j, &addr) in addrs.iter().enumerate() {
                    if i != j {
                        nodes[i].attach_peer(
                            &format!("c{j}"),
                            SciLink::new(addr, Arc::clone(&listeners[i])),
                        );
                    }
                }
            }
            None
        }
        Iface::Aci => Some(attach_aci_mesh(nodes, 0.0, 0)),
    }
}

/// Wires `nodes` as hosts of a star ATM network; `cell_loss > 0` arms the
/// host uplinks with seeded cell-loss faults.
fn attach_aci_mesh(
    nodes: &[NcsNode],
    cell_loss: f64,
    seed: u64,
) -> Arc<ncs_transport::aci::AciFabric> {
    use atm_sim::{FaultSpec, LinkSpec, NetworkBuilder, PumpConfig, QosParams};
    use ncs_transport::aci::AciFabric;
    let n = nodes.len();
    let mut builder = NetworkBuilder::new().switch("sw");
    for i in 0..n {
        builder = builder.host(&format!("c{i}"));
    }
    for i in 0..n {
        let spec = if cell_loss > 0.0 {
            LinkSpec::oc3().with_fault(FaultSpec::cell_loss(cell_loss, seed + i as u64))
        } else {
            LinkSpec::oc3()
        };
        builder = builder.link(&format!("c{i}"), "sw", spec);
    }
    let fabric = AciFabric::start(
        builder.build().expect("atm network"),
        PumpConfig::speedup(4.0),
    );
    for (i, node) in nodes.iter().enumerate() {
        let dev = Arc::new(fabric.device(&format!("c{i}")).expect("device"));
        for j in 0..n {
            if i != j {
                node.attach_peer(
                    &format!("c{j}"),
                    AciLink::new(Arc::clone(&dev), &format!("c{j}"), QosParams::unspecified()),
                );
            }
        }
    }
    fabric
}

fn connect_mesh(nodes: &[NcsNode], cfg: &ConnectionConfig) -> Vec<HashMap<usize, NcsConnection>> {
    let n = nodes.len();
    let mut conns: Vec<HashMap<usize, NcsConnection>> = (0..n).map(|_| HashMap::new()).collect();
    for i in 0..n {
        for j in (i + 1)..n {
            let cij = nodes[i]
                .connect(&format!("c{j}"), cfg.clone())
                .expect("connect");
            let cji = nodes[j].accept_default().expect("accept");
            conns[i].insert(j, cij);
            conns[j].insert(i, cji);
        }
    }
    conns
}

fn build_cluster(
    n: usize,
    iface: Iface,
    pkg: &Arc<dyn ThreadPackage>,
    conn_cfg: &ConnectionConfig,
    coll_cfg: CollectiveConfig,
) -> Cluster {
    let nodes: Vec<NcsNode> = (0..n)
        .map(|i| {
            NcsNode::builder(&format!("c{i}"))
                .thread_package(Arc::clone(pkg))
                .build()
        })
        .collect();
    let fabric = attach_mesh(&nodes, iface);
    let conn_maps = connect_mesh(&nodes, conn_cfg);
    let mut groups = Vec::new();
    for (rank, (node, links)) in nodes.iter().zip(conn_maps).enumerate() {
        groups.push(Arc::new(
            CollectiveGroup::with_config(node, 1, rank, links, coll_cfg).expect("group"),
        ));
    }
    Cluster {
        nodes,
        groups,
        fabric,
    }
}

/// Runs `f(rank, group)` on one package thread per member and collects the
/// results (package-aware joins, so this also works as the root green
/// thread of the user-level runtime).
fn run_members<R, F>(pkg: &Arc<dyn ThreadPackage>, groups: &[Arc<CollectiveGroup>], f: F) -> Vec<R>
where
    R: Send + 'static,
    F: Fn(usize, Arc<CollectiveGroup>) -> R + Send + Sync + 'static,
{
    let f = Arc::new(f);
    let handles: Vec<_> = groups
        .iter()
        .enumerate()
        .map(|(rank, g)| {
            let f = Arc::clone(&f);
            let g = Arc::clone(g);
            pkg.spawn_typed(&format!("member-{rank}"), move || f(rank, g))
        })
        .collect();
    handles
        .into_iter()
        .map(|h| h.join().expect("member panicked"))
        .collect()
}

/// The acceptance exercise: broadcasts (two roots, single- and
/// multi-segment) and a summing allreduce, then a barrier.
fn exercise_basics(rank: usize, g: &CollectiveGroup, big_elems: usize) {
    let size = g.size();
    for &root in &[0, size - 1] {
        for &len in &[5usize, big_elems] {
            let stamp = root as u32 + 1;
            let buf: Vec<u32> = if rank == root {
                (0..len as u32).map(|i| i.wrapping_mul(stamp)).collect()
            } else {
                vec![0u32; len]
            };
            let got = g.broadcast(root, buf).expect("broadcast");
            assert_eq!(got.len(), len, "rank {rank} root {root}");
            for (i, v) in got.iter().enumerate() {
                assert_eq!(
                    *v,
                    (i as u32).wrapping_mul(stamp),
                    "rank {rank} root {root} idx {i}"
                );
            }
        }
    }
    let contrib: Vec<f64> = (0..48).map(|i| (rank + 1) as f64 * i as f64).collect();
    let sum = g.allreduce(contrib, ReduceOp::Sum).expect("allreduce");
    let factor: f64 = (1..=size).sum::<usize>() as f64;
    for (i, v) in sum.iter().enumerate() {
        assert!((v - factor * i as f64).abs() < 1e-9, "rank {rank} idx {i}");
    }
    g.barrier().expect("barrier");
}

fn kernel_pkg() -> Arc<dyn ThreadPackage> {
    Arc::new(KernelPackage::new())
}

fn run_matrix_case(n: usize, iface: Iface, pkg: &Arc<dyn ThreadPackage>, big_elems: usize) {
    // HPI rings can overrun and ACI cells can be lost under congestion:
    // those interfaces run `reliable()` — over ACI the full FC/EC plane,
    // over HPI's 2048-frame rings the credit window alone, which cannot
    // overrun them; PIPE and SCI are reliable wires, so the §3.1 bypass
    // carries the collectives.
    let conn_cfg = match iface {
        Iface::Hpi | Iface::Aci => ConnectionConfig::reliable(),
        Iface::Pipe | Iface::Sci => ConnectionConfig::unreliable(),
    };
    let cluster = build_cluster(n, iface, pkg, &conn_cfg, CollectiveConfig::default());
    run_members(pkg, &cluster.groups, move |rank, g| {
        exercise_basics(rank, &g, big_elems)
    });
    cluster.shutdown();
}

#[test]
fn hpi_kernel_groups_of_2_to_8() {
    let pkg = kernel_pkg();
    for n in 2..=8 {
        run_matrix_case(n, Iface::Hpi, &pkg, 9_000);
    }
}

#[test]
fn hpi_user_package_groups() {
    for n in [2usize, 4, 8] {
        UserRuntime::new(UserConfig {
            mech: SwitchMech::Native,
            ..UserConfig::default()
        })
        .run(move |pkg| {
            let pkg: Arc<dyn ThreadPackage> = Arc::new(pkg);
            run_matrix_case(n, Iface::Hpi, &pkg, 9_000);
        });
    }
}

#[test]
fn pipe_kernel_groups() {
    let pkg = kernel_pkg();
    for n in [2usize, 5] {
        run_matrix_case(n, Iface::Pipe, &pkg, 9_000);
    }
}

#[test]
fn pipe_user_package_group() {
    UserRuntime::new(UserConfig {
        mech: SwitchMech::Native,
        ..UserConfig::default()
    })
    .run(|pkg| {
        let pkg: Arc<dyn ThreadPackage> = Arc::new(pkg);
        run_matrix_case(4, Iface::Pipe, &pkg, 9_000);
    });
}

#[test]
fn sci_kernel_group() {
    run_matrix_case(4, Iface::Sci, &kernel_pkg(), 9_000);
}

#[test]
fn sci_user_package_group() {
    // SCI receives are system calls: under the user-level package they run
    // the §4.1 nonblocking-poll discipline. Keep the group small.
    UserRuntime::new(UserConfig {
        mech: SwitchMech::Native,
        ..UserConfig::default()
    })
    .run(|pkg| {
        let pkg: Arc<dyn ThreadPackage> = Arc::new(pkg);
        run_matrix_case(2, Iface::Sci, &pkg, 2_000);
    });
}

#[test]
fn aci_kernel_group() {
    run_matrix_case(4, Iface::Aci, &kernel_pkg(), 3_000);
}

#[test]
fn aci_user_package_group() {
    UserRuntime::new(UserConfig {
        mech: SwitchMech::Native,
        ..UserConfig::default()
    })
    .run(|pkg| {
        let pkg: Arc<dyn ThreadPackage> = Arc::new(pkg);
        run_matrix_case(3, Iface::Aci, &pkg, 3_000);
    });
}

#[test]
fn aci_seeded_loss_heals_through_error_control() {
    // 0.1% cell loss on every host uplink kills roughly one 4 KB SDU in
    // twelve; selective repeat under the collectives must still deliver
    // every broadcast and allreduce intact.
    let pkg = kernel_pkg();
    let n = 3;
    let nodes: Vec<NcsNode> = (0..n)
        .map(|i| {
            NcsNode::builder(&format!("c{i}"))
                .thread_package(Arc::clone(&pkg))
                .build()
        })
        .collect();
    let fabric = attach_aci_mesh(&nodes, 0.001, 42);
    let conn_cfg = ConnectionConfig::builder()
        .sdu_size(4 * 1024)
        .flow_control(FlowControlAlg::CreditBased {
            initial_credits: 4,
            dynamic: true,
        })
        .error_control(ErrorControlAlg::SelectiveRepeat {
            timeout: Duration::from_millis(150),
            max_retries: 30,
        })
        .build();
    let conn_maps = connect_mesh(&nodes, &conn_cfg);
    let mut groups = Vec::new();
    let mut conns = Vec::new();
    for (rank, (node, links)) in nodes.iter().zip(conn_maps).enumerate() {
        conns.push(links.values().cloned().collect::<Vec<_>>());
        groups.push(Arc::new(
            CollectiveGroup::new(node, 1, rank, links).expect("group"),
        ));
    }
    run_members(&pkg, &groups, |rank, g| {
        for round in 0..4u32 {
            let root = (round as usize) % g.size();
            let len = 6_000; // 24 KB -> 6 SDUs per hop
            let buf: Vec<u32> = if rank == root {
                (0..len as u32).map(|i| i ^ round).collect()
            } else {
                vec![0u32; len]
            };
            let got = g.broadcast(root, buf).expect("broadcast under loss");
            for (i, v) in got.iter().enumerate() {
                assert_eq!(*v, (i as u32) ^ round, "round {round} idx {i}");
            }
            let sum = g
                .allreduce(vec![(rank + 1) as u64; 2_000], ReduceOp::Sum)
                .expect("allreduce under loss");
            let want: u64 = (1..=g.size() as u64).sum();
            assert!(sum.iter().all(|&v| v == want), "round {round}");
        }
    });
    let retransmissions: u64 = conns
        .iter()
        .flatten()
        .map(|c| c.stats().retransmissions)
        .sum();
    assert!(
        retransmissions > 0,
        "a lossy fabric must force selective-repeat recoveries"
    );
    drop(groups);
    for node in nodes {
        node.shutdown();
    }
    fabric.shutdown();
}

#[test]
fn scatter_gather_allgather_round_trip() {
    let pkg = kernel_pkg();
    let n = 5;
    let cluster = build_cluster(
        n,
        Iface::Hpi,
        &pkg,
        &ConnectionConfig::reliable(),
        CollectiveConfig::default(),
    );
    run_members(&pkg, &cluster.groups, move |rank, g| {
        let k = 7usize;
        for root in 0..n {
            // Scatter: rank r receives chunk r of the root's vector.
            let data: Vec<u64> = if rank == root {
                (0..(n * k) as u64)
                    .map(|i| i + 1000 * root as u64)
                    .collect()
            } else {
                Vec::new()
            };
            let chunk = g.scatter(root, data).expect("scatter");
            let want: Vec<u64> = (0..k as u64)
                .map(|i| (rank * k) as u64 + i + 1000 * root as u64)
                .collect();
            assert_eq!(chunk, want, "scatter rank {rank} root {root}");

            // Gather: the root sees every contribution in rank order.
            let contrib: Vec<u64> = (0..k as u64).map(|i| (rank * 100) as u64 + i).collect();
            let gathered = g.gather(root, contrib.clone()).expect("gather");
            if rank == root {
                let got = gathered.expect("root result");
                for r in 0..n {
                    for i in 0..k {
                        assert_eq!(got[r * k + i], (r * 100 + i) as u64, "gather root {root}");
                    }
                }
            } else {
                assert!(gathered.is_none());
            }

            // Allgather: everyone sees the same rank-ordered concatenation.
            let all = g.allgather(contrib).expect("allgather");
            assert_eq!(all.len(), n * k);
            for r in 0..n {
                for i in 0..k {
                    assert_eq!(
                        all[r * k + i],
                        (r * 100 + i) as u64,
                        "allgather rank {rank}"
                    );
                }
            }
        }
    });
    cluster.shutdown();
}

#[test]
fn reduce_every_root_and_operator() {
    let pkg = kernel_pkg();
    let n = 4;
    let cluster = build_cluster(
        n,
        Iface::Hpi,
        &pkg,
        &ConnectionConfig::reliable(),
        CollectiveConfig::default(),
    );
    run_members(&pkg, &cluster.groups, move |rank, g| {
        for root in 0..n {
            let contrib: Vec<i64> = vec![rank as i64 + 1, -(rank as i64) - 1, 3];
            let got = g.reduce(root, contrib, ReduceOp::Min).expect("reduce");
            if rank == root {
                assert_eq!(got, Some(vec![1, -(n as i64), 3]));
            } else {
                assert!(got.is_none());
            }
        }
        let prod = g
            .allreduce(vec![2.0f32, rank as f32 + 1.0], ReduceOp::Prod)
            .expect("prod");
        assert_eq!(prod[0], 2.0f32.powi(n as i32));
        assert_eq!(prod[1], (1..=n).product::<usize>() as f32);
        let max = g
            .allreduce(vec![rank as u32 * 10], ReduceOp::Max)
            .expect("max");
        assert_eq!(max, vec![(n as u32 - 1) * 10]);
    });
    cluster.shutdown();
}

#[test]
fn explicit_topologies_all_deliver() {
    let pkg = kernel_pkg();
    let n = 5;
    let cluster = build_cluster(
        n,
        Iface::Hpi,
        &pkg,
        &ConnectionConfig::reliable(),
        CollectiveConfig::default(),
    );
    // 100 KB payload = 4 pipeline segments at the default 32 KB.
    let len = 25_000usize;
    run_members(&pkg, &cluster.groups, move |rank, g| {
        for topo in [Topology::Flat, Topology::BinomialTree, Topology::Ring] {
            for root in [0usize, 2] {
                let buf: Vec<u32> = if rank == root {
                    (0..len as u32)
                        .map(|i| i.rotate_left(root as u32))
                        .collect()
                } else {
                    vec![0u32; len]
                };
                let got = g.broadcast_with(root, buf, topo).expect("broadcast");
                for (i, v) in got.iter().enumerate() {
                    assert_eq!(
                        *v,
                        (i as u32).rotate_left(root as u32),
                        "{topo:?} root {root}"
                    );
                }
            }
        }
    });
    cluster.shutdown();
}

#[test]
fn large_broadcast_selects_ring_automatically() {
    let pkg = kernel_pkg();
    let n = 4;
    let cluster = build_cluster(
        n,
        Iface::Hpi,
        &pkg,
        &ConnectionConfig::reliable(),
        CollectiveConfig::default(),
    );
    // 512 KiB of u64 crosses the default ring threshold (256 KiB).
    let len = 64 * 1024usize;
    run_members(&pkg, &cluster.groups, move |rank, g| {
        let buf: Vec<u64> = if rank == 0 {
            (0..len as u64).collect()
        } else {
            vec![0u64; len]
        };
        let got = g.broadcast(0, buf).expect("big broadcast");
        assert_eq!(got.len(), len);
        assert!(got.iter().enumerate().all(|(i, &v)| v == i as u64));
    });
    cluster.shutdown();
}

#[test]
fn nonblocking_handles_overlap_and_pipeline() {
    let pkg = kernel_pkg();
    let n = 4;
    let cluster = build_cluster(
        n,
        Iface::Hpi,
        &pkg,
        &ConnectionConfig::reliable(),
        CollectiveConfig::default(),
    );
    run_members(&pkg, &cluster.groups, move |rank, g| {
        // Three collectives in flight at once; the machine works
        // through them in submission order while we compute here.
        let h1 = g
            .iallreduce(vec![rank as u64 + 1; 20_000], ReduceOp::Sum)
            .expect("submit 1");
        let h2 = g.ibroadcast(0, vec![rank as u32; 1_000]).expect("submit 2");
        let h3 = g.ibarrier().expect("submit 3");
        // Local computation overlapping the in-flight collectives.
        let mut acc = 0u64;
        for i in 0..200_000u64 {
            acc = acc.wrapping_mul(31).wrapping_add(i);
        }
        assert!(acc != 0);
        // Wait out of submission order: completion order is still 1, 2, 3.
        h3.wait().expect("barrier");
        let b = h2.wait().expect("broadcast");
        assert!(b.iter().all(|&v| v == 0), "root 0's buffer wins");
        let want: u64 = (1..=n as u64).sum();
        let s = h1.wait().expect("allreduce");
        assert!(s.iter().all(|&v| v == want));
        // A taken result cannot be taken again.
        assert!(matches!(h1.wait(), Err(CollectiveError::Protocol(_))));
    });
    cluster.shutdown();
}

#[test]
fn collective_barrier_synchronises_staggered_members() {
    let pkg = kernel_pkg();
    let n = 5;
    let cluster = build_cluster(
        n,
        Iface::Hpi,
        &pkg,
        &ConnectionConfig::reliable(),
        CollectiveConfig::default(),
    );
    let flag = Arc::new(std::sync::atomic::AtomicUsize::new(0));
    let flag2 = Arc::clone(&flag);
    run_members(&pkg, &cluster.groups, move |rank, g| {
        for round in 1..=3usize {
            std::thread::sleep(Duration::from_millis((rank * 7) as u64));
            flag2.fetch_add(1, std::sync::atomic::Ordering::SeqCst);
            g.barrier().expect("barrier");
            assert!(
                flag2.load(std::sync::atomic::Ordering::SeqCst) >= round * n,
                "rank {rank} released before everyone arrived"
            );
        }
    });
    cluster.shutdown();
}

#[test]
fn unmatched_barrier_times_out_cleanly() {
    let pkg = kernel_pkg();
    let cluster = build_cluster(
        2,
        Iface::Hpi,
        &pkg,
        &ConnectionConfig::reliable(),
        CollectiveConfig {
            op_timeout: Duration::from_millis(300),
            ..CollectiveConfig::default()
        },
    );
    // Rank 1 never enters the barrier.
    let g0 = Arc::clone(&cluster.groups[0]);
    assert_eq!(g0.barrier(), Err(CollectiveError::Timeout));
    cluster.shutdown();
}

#[test]
fn mismatched_gather_contributions_error() {
    let pkg = kernel_pkg();
    let cluster = build_cluster(
        2,
        Iface::Hpi,
        &pkg,
        &ConnectionConfig::reliable(),
        CollectiveConfig {
            op_timeout: Duration::from_secs(5),
            ..CollectiveConfig::default()
        },
    );
    let results = run_members(&pkg, &cluster.groups, |rank, g| {
        let contrib: Vec<u32> = vec![7; if rank == 0 { 3 } else { 2 }];
        g.gather(0, contrib)
    });
    assert!(
        matches!(results[0], Err(CollectiveError::Protocol(_))),
        "root must detect the mismatch: {:?}",
        results[0]
    );
    assert!(results[1].is_ok(), "the leaf's send half succeeds");
    cluster.shutdown();
}

#[test]
fn collectives_barrier_races_legacy_group_barrier() {
    use ncs_collectives::{MulticastAlgo, NcsGroup};
    let pkg = kernel_pkg();
    let n = 3;
    let nodes: Vec<NcsNode> = (0..n)
        .map(|i| {
            NcsNode::builder(&format!("c{i}"))
                .thread_package(Arc::clone(&pkg))
                .build()
        })
        .collect();
    attach_mesh(&nodes, Iface::Hpi);
    // Two independent link meshes over the same peers: one for the legacy
    // NcsGroup barrier, one for the collectives engine.
    let legacy_links = connect_mesh(&nodes, &ConnectionConfig::reliable());
    let coll_links = connect_mesh(&nodes, &ConnectionConfig::reliable());
    let mut legacy = Vec::new();
    let mut groups = Vec::new();
    for (rank, (node, (ll, cl))) in nodes
        .iter()
        .zip(legacy_links.into_iter().zip(coll_links))
        .enumerate()
    {
        legacy.push(Arc::new(
            NcsGroup::new(node, 9, rank, ll, MulticastAlgo::SpanningTree).expect("legacy group"),
        ));
        groups.push(Arc::new(
            CollectiveGroup::new(node, 1, rank, cl).expect("collective group"),
        ));
    }
    // Per member, the legacy barrier and the collectives barrier run
    // concurrently on separate threads for several rounds: stale releases
    // of one must never starve the other.
    let mut handles = Vec::new();
    for rank in 0..n {
        let lg = Arc::clone(&legacy[rank]);
        handles.push(std::thread::spawn(move || {
            for _ in 0..5 {
                lg.barrier(Duration::from_secs(10)).expect("legacy barrier");
            }
        }));
        let cg = Arc::clone(&groups[rank]);
        handles.push(std::thread::spawn(move || {
            for _ in 0..5 {
                cg.barrier().expect("collective barrier");
            }
        }));
    }
    for h in handles {
        h.join().expect("barrier thread");
    }
    drop(legacy);
    drop(groups);
    for node in nodes {
        node.shutdown();
    }
}

#[test]
fn stats_count_traffic() {
    let pkg = kernel_pkg();
    let cluster = build_cluster(
        3,
        Iface::Hpi,
        &pkg,
        &ConnectionConfig::reliable(),
        CollectiveConfig::default(),
    );
    run_members(&pkg, &cluster.groups, |_rank, g| {
        let got = g.broadcast(0, vec![1u8; 64]).expect("broadcast");
        assert_eq!(got, vec![1u8; 64]);
        g.barrier().expect("barrier");
    });
    for g in &cluster.groups {
        let s = g.stats();
        assert!(s.ops_completed >= 2, "{s:?}");
        assert!(s.frames_sent > 0, "{s:?}");
        assert!(s.frames_received > 0, "{s:?}");
    }
    cluster.shutdown();
}

fn user_pkg(body: impl FnOnce(Arc<dyn ThreadPackage>) + Send + 'static) {
    UserRuntime::new(UserConfig {
        mech: SwitchMech::Native,
        ..UserConfig::default()
    })
    .run(move |pkg| body(Arc::new(pkg)));
}

/// Timer fires on the nodes' reactors so far. Over bypass links nothing
/// arms a deadline that an operation reaches: a refused frame waits for
/// its link to report room, not for a retry timer.
fn timer_fires(nodes: &[NcsNode]) -> u64 {
    nodes.iter().map(|n| n.reactor().stats().timer_fires).sum()
}

/// A ring allgather of 2 MiB per member, then a chain broadcast of 8 MiB,
/// over §3.1 bypass links, start to finish in under five seconds, and with
/// no timer fired while the operations run.
fn large_ring_and_chain(pkg: Arc<dyn ThreadPackage>) {
    let start = std::time::Instant::now();
    for iface in [Iface::Pipe, Iface::Hpi] {
        let coll_cfg = CollectiveConfig {
            op_timeout: Duration::from_secs(20),
            ..CollectiveConfig::default()
        };
        let bypass = ConnectionConfig::unreliable();
        let cluster = build_cluster(4, iface, &pkg, &bypass, coll_cfg);
        let fired = timer_fires(&cluster.nodes);
        run_members(&pkg, &cluster.groups, move |rank, g| {
            let all = g
                .allgather(vec![rank as u64; 1 << 18])
                .unwrap_or_else(|e| panic!("{iface:?} rank {rank} allgather: {e}"));
            assert_eq!(all.len(), 4 << 18, "{iface:?} rank {rank}");
            for (from, chunk) in all.chunks(1 << 18).enumerate() {
                assert!(
                    chunk.iter().all(|&v| v == from as u64),
                    "{iface:?} rank {rank}: chunk {from}"
                );
            }
            let got = g
                .broadcast_with(0, vec![7 * u64::from(rank == 0); 1 << 20], Topology::Ring)
                .unwrap_or_else(|e| panic!("{iface:?} rank {rank} broadcast: {e}"));
            assert!(
                got.len() == 1 << 20 && got.iter().all(|&v| v == 7),
                "{iface:?} rank {rank}"
            );
        });
        let fired = timer_fires(&cluster.nodes) - fired;
        assert_eq!(fired, 0, "{iface:?}: timers fired");
        cluster.shutdown();
    }
    let took = start.elapsed();
    assert!(took < Duration::from_secs(5), "{took:?}");
}

/// The wedge the inline step must not walk into: a link's send queue is
/// bounded (128 frames), a ring allgather and a chain broadcast of
/// megabytes fill it many times over, and the thread the machine emits
/// them on is an event loop — perhaps the one whose tasks would drain that
/// queue. A send that waited there would park every thread of the process
/// until the operations timed out; refused frames go to the engine's
/// outbox instead and nothing ever waits.
#[test]
fn large_ring_and_chain_over_bypass_links_never_block_an_event_loop() {
    large_ring_and_chain(kernel_pkg());
}

#[test]
fn large_ring_and_chain_over_bypass_links_under_the_user_level_package() {
    user_pkg(large_ring_and_chain);
}

const RING_ELEMS: usize = 1 << 20;

/// Four members over bypass PIPE links, each the one owner of its group,
/// in an 8 MiB chain broadcast from rank 0 — most of whose 256 segments
/// the root's link refuses at first, so the root's handle resolves with
/// megabytes still in its outbox. `root` gets the root's group and its
/// broadcast; the others check what they receive. No timer fires on the
/// way: the outbox waits for its link's room. (PIPE because it is a
/// wire that pushes back: a bypass HPI ring drops what overruns it, and a
/// root with nothing to do but empty its outbox outruns its reader.)
fn ring_broadcast_whose_root(
    pkg: &Arc<dyn ThreadPackage>,
    root: fn(Arc<CollectiveGroup>, CollectiveHandle<Vec<u64>>),
) {
    let iface = Iface::Pipe;
    let coll_cfg = CollectiveConfig {
        op_timeout: Duration::from_secs(20),
        ..CollectiveConfig::default()
    };
    let mut cluster = build_cluster(4, iface, pkg, &ConnectionConfig::unreliable(), coll_cfg);
    let fired = timer_fires(&cluster.nodes);
    let members: Vec<_> = std::mem::take(&mut cluster.groups)
        .into_iter()
        .enumerate()
        .map(|(rank, g)| {
            pkg.spawn_typed(&format!("member-{rank}"), move || {
                let buf = vec![7 * u64::from(rank == 0); RING_ELEMS];
                let bcast = g
                    .ibroadcast_with(0, buf, Topology::Ring)
                    .expect("submit broadcast");
                if rank == 0 {
                    return root(g, bcast);
                }
                let got = bcast
                    .wait()
                    .unwrap_or_else(|e| panic!("{iface:?} rank {rank} broadcast: {e}"));
                assert!(
                    got.len() == RING_ELEMS && got.iter().all(|&v| v == 7),
                    "{iface:?} rank {rank}"
                );
            })
        })
        .collect();
    for m in members {
        m.join().expect("member panicked");
    }
    assert_eq!(timer_fires(&cluster.nodes) - fired, 0, "timers fired");
    cluster.shutdown();
}

/// An operation that resolved `Ok` is delivered, whatever its caller does
/// next: here the root drops its group the moment its broadcast resolves.
/// The frames its links had refused go out all the same — the group task
/// keeps offering them, and the group outlives its handle until they are
/// gone — so nobody downstream idles out a timeout.
fn root_leaves_first(pkg: Arc<dyn ThreadPackage>) {
    let start = std::time::Instant::now();
    for _ in 0..2 {
        ring_broadcast_whose_root(&pkg, |g, bcast| {
            assert_eq!(bcast.wait().expect("root broadcast").len(), RING_ELEMS);
            let g = Arc::into_inner(g).expect("the member owns its group");
            drop(g);
        });
    }
    let took = start.elapsed();
    assert!(took < Duration::from_secs(5), "{took:?}");
}

#[test]
fn a_root_that_finishes_and_leaves_first_still_delivers() {
    root_leaves_first(kernel_pkg());
}

#[test]
fn a_root_that_leaves_first_still_delivers_under_the_user_level_package() {
    user_pkg(root_leaves_first);
}

/// `close()` from a second thread while the root steps under
/// back-pressure (its outbox full, barriers piling up behind it): whoever
/// holds the machine when the flag flips, every handle resolves — `Closed`,
/// or `Ok` for what got through first — and none is stranded waiting for a
/// step that nobody is left to run. The finished broadcast still arrives.
#[test]
fn a_close_racing_a_step_under_back_pressure_strands_no_handle() {
    let start = std::time::Instant::now();
    for _ in 0..4 {
        ring_broadcast_whose_root(&kernel_pkg(), |g, bcast| {
            let closer = {
                let g = Arc::clone(&g);
                std::thread::spawn(move || g.close())
            };
            let mut behind = Vec::new();
            while let Ok(h) = g.ibarrier() {
                behind.push(h);
            }
            closer.join().expect("closer panicked");
            let patience = Duration::from_secs(5);
            assert_eq!(
                bcast.wait_timeout(patience).expect("root broadcast").len(),
                RING_ELEMS
            );
            for (i, h) in behind.into_iter().enumerate() {
                let end = h.wait_timeout(patience);
                assert!(
                    matches!(end, Ok(()) | Err(CollectiveError::Closed)),
                    "barrier {i}: {end:?}"
                );
            }
        });
    }
    let took = start.elapsed();
    assert!(took < Duration::from_secs(5), "{took:?}");
}

/// Four threads per rank submit from one ticketed sequence (so every rank
/// issues the same operations in the same order) while the link sinks and
/// the group task race them for the machine. Every handle resolves with
/// its closed-form value and none waits for a timer: the run is a
/// fraction of one `op_timeout`.
fn racing_submitters(pkg: Arc<dyn ThreadPackage>) {
    const RANKS: usize = 4;
    const SUBMITTERS: usize = 4;
    const OPS: u64 = 2_000;
    enum Pending {
        Sum(CollectiveHandle<Vec<u64>>),
        Copy(CollectiveHandle<Vec<u64>>),
        Barrier(CollectiveHandle<()>),
    }
    let start = std::time::Instant::now();
    let bypass = ConnectionConfig::unreliable();
    let cluster = build_cluster(
        RANKS,
        Iface::Hpi,
        &pkg,
        &bypass,
        CollectiveConfig::default(),
    );
    assert_eq!(
        cluster.groups[0].config().op_timeout,
        Duration::from_secs(30)
    );
    let member_pkg = Arc::clone(&pkg);
    run_members(&pkg, &cluster.groups, move |rank, g| {
        let ticket = Arc::new(NcsMutex::new(0u64));
        let submitters: Vec<_> = (0..SUBMITTERS)
            .map(|t| {
                let (g, ticket) = (Arc::clone(&g), Arc::clone(&ticket));
                member_pkg.spawn_typed(&format!("submit-{rank}-{t}"), move || loop {
                    // Submitted under the ticket: ticket order is
                    // submission order, on every rank alike.
                    let mut next = ticket.lock();
                    let n = *next;
                    if n == SUBMITTERS as u64 * OPS {
                        return;
                    }
                    *next += 1;
                    let root = n as usize % RANKS;
                    let pending = match n % 3 {
                        0 => Pending::Sum(
                            g.iallreduce(vec![n * (rank as u64 + 1); 8], ReduceOp::Sum)
                                .expect("submit allreduce"),
                        ),
                        1 => Pending::Copy(
                            g.ibroadcast(root, vec![n * u64::from(rank == root); 16])
                                .expect("submit broadcast"),
                        ),
                        _ => Pending::Barrier(g.ibarrier().expect("submit barrier")),
                    };
                    drop(next);
                    let ranks = RANKS as u64;
                    match pending {
                        Pending::Sum(h) => assert_eq!(
                            h.wait().expect("allreduce"),
                            [n * ranks * (ranks + 1) / 2; 8],
                            "rank {rank} op {n}"
                        ),
                        Pending::Copy(h) => {
                            assert_eq!(h.wait().expect("broadcast"), [n; 16], "rank {rank} op {n}")
                        }
                        Pending::Barrier(h) => h.wait().expect("barrier"),
                    }
                })
            })
            .collect();
        for s in submitters {
            s.join().expect("submitter panicked");
        }
        assert_eq!(g.stats().ops_completed, SUBMITTERS as u64 * OPS);
    });
    cluster.shutdown();
    let took = start.elapsed();
    assert!(took < Duration::from_secs(10), "{took:?}");
}

/// The `try_lock` hand-off loses nothing: with a sink, the group task and
/// four submitters all racing for the machine, every queued event finds a
/// stepper, a wake or a deadline.
#[test]
fn racing_submitters_sinks_and_the_group_task_lose_no_operation() {
    racing_submitters(kernel_pkg());
}

#[test]
fn racing_submitters_lose_no_operation_under_the_user_level_package() {
    user_pkg(racing_submitters);
}
