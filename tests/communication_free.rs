//! The paper's central claims as executable invariants, for every
//! generator:
//!
//! 1. **Purity** — a PE's output is a pure function of (params, seed, pe).
//! 2. **Schedule independence** — thread count / execution order never
//!    changes any PE's output.
//! 3. **Chunk invariance** — the merged instance depends only on
//!    (params, seed), not on the number of PEs (our strengthening of the
//!    paper's reproducibility; "Chunk invariance" in the README).
//! 4. **Seed sensitivity** — different seeds give different instances.

use kagen_repro::core::prelude::*;
use kagen_repro::graph::EdgeList;

/// Run the four invariants for one generator family via a factory
/// `make(seed, chunks)`.
fn check_invariants<G: Generator>(
    name: &str,
    make: impl Fn(u64, usize) -> G,
    chunk_variants: &[usize],
    merge: impl Fn(&G) -> EdgeList,
) {
    // 1. Purity.
    let g = make(7, chunk_variants[0]);
    for pe in 0..g.num_chunks().min(4) {
        let a = g.generate_pe(pe);
        let b = g.generate_pe(pe);
        assert_eq!(a.edges, b.edges, "{name}: PE {pe} not pure");
        assert_eq!(a.vertex_begin, b.vertex_begin, "{name}: PE {pe} range");
    }

    // 2. Schedule independence.
    let one_thread = generate_parallel(&g, 1);
    let many_threads = generate_parallel(&g, 8);
    for (a, b) in one_thread.iter().zip(&many_threads) {
        assert_eq!(a.edges, b.edges, "{name}: thread count changed PE {}", a.pe);
    }

    // 3. Chunk invariance of the merged instance.
    let reference = merge(&make(7, chunk_variants[0]));
    for &chunks in &chunk_variants[1..] {
        let other = merge(&make(7, chunks));
        assert_eq!(
            reference, other,
            "{name}: instance changed between {} and {chunks} chunks",
            chunk_variants[0]
        );
    }

    // 4. Seed sensitivity.
    let other_seed = merge(&make(8, chunk_variants[0]));
    assert_ne!(reference, other_seed, "{name}: seed has no effect");
}

#[test]
fn gnm_directed_invariants() {
    check_invariants(
        "GnmDirected",
        |s, c| GnmDirected::new(400, 3000).with_seed(s).with_chunks(c),
        &[1, 3, 8, 32],
        generate_directed,
    );
}

#[test]
fn gnm_undirected_invariants() {
    check_invariants(
        "GnmUndirected",
        |s, c| GnmUndirected::new(400, 3000).with_seed(s).with_chunks(c),
        &[4, 4], // Q is an instance parameter for the undirected scheme…
        generate_undirected,
    );
    // …so chunk invariance is asserted only for scheduling, plus the
    // redundancy agreement below replaces cross-Q equality.
}

#[test]
fn gnp_invariants() {
    check_invariants(
        "GnpDirected",
        |s, c| GnpDirected::new(300, 0.02).with_seed(s).with_chunks(c),
        &[1, 2, 16],
        generate_directed,
    );
}

#[test]
fn rgg2d_invariants() {
    check_invariants(
        "Rgg2d",
        |s, c| Rgg2d::new(800, 0.05).with_seed(s).with_chunks(c),
        &[1, 4, 16, 64],
        generate_undirected,
    );
}

#[test]
fn rgg3d_invariants() {
    check_invariants(
        "Rgg3d",
        |s, c| Rgg3d::new(500, 0.12).with_seed(s).with_chunks(c),
        &[1, 8, 64],
        generate_undirected,
    );
}

#[test]
fn rdg2d_invariants() {
    check_invariants(
        "Rdg2d",
        |s, c| Rdg2d::new(400).with_seed(s).with_chunks(c),
        &[1, 4, 16],
        generate_undirected,
    );
}

#[test]
fn rdg3d_invariants() {
    check_invariants(
        "Rdg3d",
        |s, c| Rdg3d::new(300).with_seed(s).with_chunks(c),
        &[1, 8],
        generate_undirected,
    );
}

#[test]
fn rhg_invariants() {
    check_invariants(
        "Rhg",
        |s, c| Rhg::new(600, 8.0, 2.8).with_seed(s).with_chunks(c),
        &[1, 4, 16],
        generate_undirected,
    );
}

#[test]
fn srhg_invariants() {
    check_invariants(
        "Srhg",
        |s, c| Srhg::new(600, 8.0, 2.8).with_seed(s).with_chunks(c),
        &[1, 4, 16],
        generate_undirected,
    );
}

#[test]
fn ba_invariants() {
    check_invariants(
        "BarabasiAlbert",
        |s, c| BarabasiAlbert::new(500, 4).with_seed(s).with_chunks(c),
        &[1, 2, 8, 32],
        generate_directed,
    );
}

#[test]
fn rmat_invariants() {
    check_invariants(
        "Rmat",
        |s, c| Rmat::new(9, 4000).with_seed(s).with_chunks(c),
        &[1, 2, 8, 32],
        generate_directed,
    );
}

#[test]
fn sbm_invariants() {
    check_invariants(
        "StochasticBlockModel",
        |s, c| {
            StochasticBlockModel::planted(300, 3, 0.1, 0.01)
                .with_seed(s)
                .with_chunks(c)
        },
        &[1, 2, 8, 32],
        generate_undirected,
    );
}

/// The composed-table (linear-work) kernel, levels pinned to 8.
#[test]
fn rmat_table_invariants() {
    check_invariants(
        "Rmat(linear)",
        |s, c| {
            Rmat::new(9, 4000)
                .with_seed(s)
                .with_kernel(RmatKernel::Linear { levels: 8 })
                .with_chunks(c)
        },
        &[1, 2, 8],
        generate_directed,
    );
}

#[test]
fn soft_rhg_invariants() {
    check_invariants(
        "SoftRhg",
        |s, c| SoftRhg::new(500, 8.0, 2.8, 0.5).with_seed(s).with_chunks(c),
        &[1, 4, 16],
        generate_undirected,
    );
}

#[test]
fn rhg_and_srhg_sample_the_same_instance() {
    for seed in [1u64, 2, 3] {
        let a = generate_undirected(&Rhg::new(700, 10.0, 2.6).with_seed(seed).with_chunks(4));
        let b = generate_undirected(&Srhg::new(700, 10.0, 2.6).with_seed(seed).with_chunks(8));
        assert_eq!(a.edges, b.edges, "seed {seed}");
    }
}

#[test]
fn gpu_backends_sample_the_cpu_instance() {
    // The §4.3.1/§5.3 device pipelines must produce the CPU instance
    // bit-for-bit — the communication-free guarantee extends across
    // heterogeneous backends.
    use kagen_repro::gpgpu::{Device, GpuGnmDirected, GpuGnpDirected, GpuRgg2d, GpuRgg3d};
    let dev = Device::default();
    for seed in [1u64, 9] {
        let mut gpu = GpuGnmDirected::new(300, 5000)
            .with_seed(seed)
            .generate(&dev);
        gpu.sort_unstable();
        let cpu = generate_directed(&GnmDirected::new(300, 5000).with_seed(seed));
        assert_eq!(gpu, cpu.edges, "GnM seed {seed}");

        let mut gpu = GpuGnpDirected::new(300, 0.02)
            .with_seed(seed)
            .generate(&dev);
        gpu.sort_unstable();
        let cpu = generate_directed(&GnpDirected::new(300, 0.02).with_seed(seed));
        assert_eq!(gpu, cpu.edges, "GnP seed {seed}");

        let gpu = GpuRgg2d::new(400, 0.07).with_seed(seed).generate(&dev);
        let cpu = generate_undirected(&Rgg2d::new(400, 0.07).with_seed(seed));
        assert_eq!(gpu, cpu.edges, "RGG2D seed {seed}");

        let gpu = GpuRgg3d::new(200, 0.15).with_seed(seed).generate(&dev);
        let cpu = generate_undirected(&Rgg3d::new(200, 0.15).with_seed(seed));
        assert_eq!(gpu, cpu.edges, "RGG3D seed {seed}");
    }
}

/// Order-sensitive FNV-1a-style fold of one PE's batched edge stream,
/// with the edge count folded in last.
fn stream_fingerprint<G: StreamingGenerator>(g: &G, pe: usize) -> u64 {
    const PRIME: u64 = 0x0000_0100_0000_01b3;
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    let mut m = 0u64;
    let mut buf = Vec::new();
    g.stream_pe_batched(pe, &mut buf, &mut |batch| {
        for &(u, v) in batch {
            h = (h ^ u).wrapping_mul(PRIME);
            h = (h ^ v).wrapping_mul(PRIME);
        }
        m += batch.len() as u64;
    });
    (h ^ m).wrapping_mul(PRIME)
}

fn fingerprints<G: StreamingGenerator>(g: &G) -> Vec<u64> {
    (0..g.num_chunks())
        .map(|pe| stream_fingerprint(g, pe))
        .collect()
}

/// Golden per-PE fingerprints of small fixed-seed spatial instances,
/// captured before the count tree memoized splits. The other suites
/// prove that the delivery paths agree with each other; these values pin
/// the instance itself, so a change to the count tree, the cell cursor
/// or the halo walk that alters any vertex id or edge fails here even if
/// every path changes in lockstep.
const SPATIAL_GOLDEN: &[(&str, &[u64])] = &[
    ("rgg2d/1", &[0x16fe_e55d_a0e9_ed6a]),
    (
        "rgg2d/4",
        &[
            0x37ef_c644_e4b7_dcd2,
            0x7d42_e0fd_1542_a504,
            0x1d0d_86cf_9e1e_9998,
            0xf21a_7ef7_d98e_4eea,
        ],
    ),
    (
        "rgg2d/16",
        &[
            0x190a_a980_c2db_fd8e,
            0x2dfc_f76a_06a7_b893,
            0x2f41_6972_df64_cd77,
            0x73ee_2c05_5ada_940f,
            0xf4f1_5b5d_6501_6b40,
            0x75bb_9b70_21ad_6637,
            0x9357_bf76_731b_cb9f,
            0x8629_2913_75cd_7059,
            0x09f9_0ab0_699d_1086,
            0xf1df_8645_3ae5_60cb,
            0x9434_27d0_e0f9_dc40,
            0xaa75_f313_b8cb_6cd8,
            0x1a7a_728f_3295_a09a,
            0xa2b4_ff68_0256_89bd,
            0x7b10_0844_3e1e_e26c,
            0xba1a_74b1_a904_e2e8,
        ],
    ),
    ("rgg3d/1", &[0x69a6_2688_a5e6_5058]),
    (
        "rgg3d/8",
        &[
            0x9046_73b4_1163_abf4,
            0xade8_9e73_7507_8b8a,
            0x6c3e_2bbd_1298_edee,
            0x084a_a351_8e6a_18e3,
            0x8a39_4685_90e7_e897,
            0x3293_9b1f_b28f_925d,
            0xae5d_321f_72d6_09e7,
            0xbcbe_8d49_9ac6_29d9,
        ],
    ),
    ("rdg2d/1", &[0xf0a4_2ff2_7b64_e418]),
    (
        "rdg2d/4",
        &[
            0xcd3a_240e_bd5a_aaf0,
            0x217b_6540_166c_74b3,
            0xe486_27ee_b09c_28b4,
            0x1432_1d44_9c04_309b,
        ],
    ),
    (
        "rdg2d/16",
        &[
            0x65fe_47f6_cba6_2890,
            0x74bc_6c54_2655_4f95,
            0x7b15_38f9_7559_7848,
            0x04bd_ee89_7c0f_8cab,
            0x3a83_4ecd_61ea_8bef,
            0xd21e_78b5_5702_ca19,
            0x86de_83e4_09ca_1561,
            0x8fd9_22ef_be71_87c9,
            0xb3b9_cb28_5c54_823b,
            0x57b5_425e_d83e_d2f9,
            0x2d81_453b_f67f_d3e9,
            0xae4b_af72_ae35_45a1,
            0x13a0_f1d9_06fc_6b61,
            0x4b94_8ba4_ed4b_bf98,
            0x189f_ddb6_c6f4_025e,
            0xf1d7_7eaa_4e4f_7575,
        ],
    ),
    ("rdg3d/1", &[0xb9f3_15db_f5dd_54f2]),
    (
        "rdg3d/8",
        &[
            0xd6f1_9b52_fa0c_2716,
            0x7451_469f_f8b0_cd86,
            0xaee1_4d1f_c4ca_cc00,
            0x71a0_78c9_a464_b7a0,
            0xafcf_5b7b_d3ec_1a03,
            0x5663_e528_02be_dc59,
            0x7858_6c53_99f5_d1f1,
            0xce35_254a_efd3_a2b2,
        ],
    ),
];

#[test]
fn spatial_golden() {
    for &(name, golden) in SPATIAL_GOLDEN {
        let (model, chunks) = name.split_once('/').unwrap();
        let chunks: usize = chunks.parse().unwrap();
        let got = match model {
            "rgg2d" => fingerprints(&Rgg2d::new(2000, 0.03).with_seed(5).with_chunks(chunks)),
            "rgg3d" => fingerprints(&Rgg3d::new(1500, 0.08).with_seed(5).with_chunks(chunks)),
            "rdg2d" => fingerprints(&Rdg2d::new(1000).with_seed(5).with_chunks(chunks)),
            "rdg3d" => fingerprints(&Rdg3d::new(400).with_seed(5).with_chunks(chunks)),
            _ => unreachable!("{model}"),
        };
        assert_eq!(got, golden, "{name}: per-PE stream fingerprints changed");
    }
}
