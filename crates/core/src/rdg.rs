//! Random Delaunay graphs in 2D and 3D (§6).
//!
//! Points are sampled uniformly in the unit cube with the same cell/count
//! infrastructure as the RGG generator, with cell side ≈ ((d+1)/n)^{1/d}
//! (the mean (d+1)-th-nearest-neighbor distance, \[37\]). The output graph is
//! the Delaunay triangulation of the point set on the *d-torus* (§2.1.4
//! periodic boundary conditions), realized by triangulating ±1-offset
//! replicas of wrapped halo cells.
//!
//! Each PE triangulates its chunk plus a halo of surrounding cell rings;
//! the halo grows until (a) no local point lies in a simplex touching the
//! artificial super-vertices and (b) every simplex containing a local point
//! has its circumsphere strictly inside chunk+halo. Both conditions
//! certify the local simplices against the full periodic point set, so the
//! union over PEs is exactly the global periodic Delaunay graph.

use crate::{Generator, PeGraph};
use kagen_delaunay::{circumcircle2, circumsphere3, Delaunay2, Delaunay3};
use kagen_geometry::cell_points::cell_points;
use kagen_geometry::grid::levels_for_min_side;
use kagen_geometry::{
    CellGrid, CellRangeCursor, CountTree, FrontierCache, FrontierStats, LeafLocator, Point,
};
use std::collections::BTreeSet;

/// Shared implementation for both dimensions.
#[derive(Clone, Debug)]
pub struct Rdg<const D: usize> {
    n: u64,
    seed: u64,
    chunk_levels: u32,
}

/// 2D random Delaunay graph (planar triangulation on the torus).
pub type Rdg2d = Rdg<2>;
/// 3D random Delaunay graph (tetrahedral mesh on the torus).
pub type Rdg3d = Rdg<3>;

struct Instance<const D: usize> {
    grid: CellGrid<D>,
    tree: CountTree<D>,
    chunk_bits: u32,
}

impl<const D: usize> Rdg<D> {
    /// `n` points uniform on the unit d-torus.
    pub fn new(n: u64) -> Self {
        assert!(D == 2 || D == 3);
        assert!(n >= D as u64 + 2, "need at least d+2 points");
        Rdg {
            n,
            seed: 1,
            chunk_levels: 1,
        }
    }

    /// Set the instance seed.
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Request ~`chunks` logical PEs (rounded down to a power of 2^d,
    /// capped by the grid refinement).
    pub fn with_chunks(mut self, chunks: usize) -> Self {
        assert!(chunks >= 1);
        let mut b = 0u32;
        while (1usize << (D as u32 * (b + 1))) <= chunks {
            b += 1;
        }
        self.chunk_levels = b;
        self
    }

    fn instance(&self) -> Instance<D> {
        // Cell side ≈ ((d+1)/n)^{1/d} (§6), snapped to powers of two.
        let c = ((D as f64 + 1.0) / self.n as f64).powf(1.0 / D as f64);
        let max_levels: u32 = if D == 2 { 24 } else { 16 };
        let levels = levels_for_min_side(c, max_levels);
        let grid = CellGrid::new(levels);
        let b = self.chunk_levels.min(levels);
        Instance {
            grid,
            tree: CountTree::<D>::new(self.seed, self.n, levels),
            chunk_bits: b,
        }
    }

    /// Points + first-vertex-id of one wrapped cell, translated by an
    /// integer replica offset.
    fn cell_with_offset(
        &self,
        inst: &Instance<D>,
        locator: &mut LeafLocator<D>,
        wrapped: [u64; D],
        offset: [i64; D],
        out_pts: &mut Vec<Point<D>>,
        out_ids: &mut Vec<u64>,
    ) {
        let morton = inst.grid.morton_of(wrapped);
        let (first, count) = locator.locate(morton);
        if count == 0 {
            return;
        }
        let mut pts = Vec::new();
        cell_points(&inst.grid, self.seed, morton, count, &mut pts);
        for (k, p) in pts.into_iter().enumerate() {
            let mut c = p.0;
            for i in 0..D {
                c[i] += offset[i] as f64;
            }
            out_pts.push(Point(c));
            out_ids.push(first + k as u64);
        }
    }

    /// Per-cell-group streaming (§6 over the cell cursor): for every
    /// non-empty local cell, triangulate the cell plus a halo of
    /// surrounding rings (grown until the same certification
    /// [`Generator::generate_pe`] uses — no center simplex touches the
    /// artificial hull, every center simplex' circumsphere lies strictly
    /// inside cell+halo — so the center's simplices are exactly the
    /// global periodic Delaunay's), then emit only the edges the center
    /// cell *owns*: the normalized edge `(x, y)` belongs to the cell
    /// holding `x` if `x` is PE-local, else to the cell holding `y`.
    /// Ownership is a pure function of the ids, so each edge with a
    /// local endpoint is emitted exactly once per PE without any cross-
    /// cell dedup state; memory is one cell group, never the per-PE
    /// edge count. Halo cell points are served by a frontier cache
    /// (distance-1 cells are retained across adjacent groups, anything
    /// farther is recomputed — the paper's recomputation trade).
    pub(crate) fn stream_cells(&self, pe: usize, emit: &mut impl FnMut(u64, u64)) -> FrontierStats {
        let inst = self.instance();
        let grid = &inst.grid;
        let g = grid.cells_per_dim() as i64;
        let side = grid.cell_side();
        let cells_per_chunk_bits = D as u32 * (grid.levels() - inst.chunk_bits);
        let lo = (pe as u64) << cells_per_chunk_bits;
        let hi = (pe as u64 + 1) << cells_per_chunk_bits;
        let cursor = CellRangeCursor::new(grid, &inst.tree, lo, hi);
        let pe_ids = cursor.first_id()..cursor.end_id();
        let max_halo = (g - 1).clamp(1, 16);
        // Cached halo cells, keyed by (wrapped cell, replica offset);
        // values are translated points with their global ids.
        type HaloCache<const D: usize> = FrontierCache<(u64, [i64; D]), (Vec<Point<D>>, Vec<u64>)>;
        let mut cache: HaloCache<D> = FrontierCache::new();
        let mut locator = inst.tree.locator();
        let mut owned: Vec<(u64, u64)> = Vec::new();

        cursor.for_cells(&mut |cell, count, first| {
            cache.advance(cell);
            if count == 0 {
                return;
            }
            let center = grid.coords_of(cell);
            let cell_ids = first..first + count;
            // Group buffers: center points first, then halo rings.
            let mut pts: Vec<Point<D>> = Vec::new();
            let mut ids: Vec<u64> = Vec::new();
            cell_points(grid, self.seed, cell, count, &mut pts);
            ids.extend(first..first + count);
            let n_center = pts.len();
            cache.note_external(n_center as u64);

            let mut halo_seen: BTreeSet<(u64, [i64; D])> = BTreeSet::new();
            let mut h: i64 = 0;
            loop {
                h += 1;
                if h > max_halo {
                    panic!(
                        "RDG halo exceeded {max_halo} rings — degenerate configuration \
                         (n too small for the chunk count?)"
                    );
                }
                // Ring h: cells at Chebyshev distance exactly h around
                // the center cell, wrapped on the torus.
                let lo_c: Vec<i64> = (0..D).map(|i| center[i] as i64 - h).collect();
                let hi_c: Vec<i64> = (0..D).map(|i| center[i] as i64 + h).collect();
                enumerate_ring::<D>(&lo_c, &hi_c, &mut |raw| {
                    let mut wrapped = [0u64; D];
                    let mut offset = [0i64; D];
                    for i in 0..D {
                        let mut x = raw[i];
                        let mut o = 0i64;
                        while x < 0 {
                            x += g;
                            o -= 1;
                        }
                        while x >= g {
                            x -= g;
                            o += 1;
                        }
                        wrapped[i] = x as u64;
                        offset[i] = o;
                    }
                    let m = grid.morton_of(wrapped);
                    if !halo_seen.insert((m, offset)) {
                        return;
                    }
                    // Direct neighbors are re-requested by adjacent
                    // center cells; anything farther retires at once
                    // (recomputed on the rare deep-halo group).
                    let retire = if offset == [0i64; D] && h == 1 {
                        cursor.last_referencing_center(m)
                    } else {
                        cell
                    };
                    let (hpts, hids) = cache.get((m, offset), retire, || {
                        let mut hpts = Vec::new();
                        let mut hids = Vec::new();
                        self.cell_with_offset(
                            &inst,
                            &mut locator,
                            wrapped,
                            offset,
                            &mut hpts,
                            &mut hids,
                        );
                        (hpts, hids)
                    });
                    pts.extend_from_slice(hpts);
                    ids.extend_from_slice(hids);
                });

                // Triangulate the group and certify the center's
                // simplices against the full periodic point set.
                let region_lo: Vec<f64> = (0..D)
                    .map(|i| (center[i] as i64 - h) as f64 * side)
                    .collect();
                let region_hi: Vec<f64> = (0..D)
                    .map(|i| (center[i] as i64 + 1 + h) as f64 * side)
                    .collect();
                let (edges, converged) = match D {
                    2 => {
                        let coords: Vec<[f64; 2]> = pts.iter().map(|p| [p.0[0], p.0[1]]).collect();
                        let dt = Delaunay2::new(&coords);
                        let ok = check2(&dt, n_center, &region_lo, &region_hi);
                        (extract_edges2(&dt, n_center), ok)
                    }
                    3 => {
                        let coords: Vec<[f64; 3]> =
                            pts.iter().map(|p| [p.0[0], p.0[1], p.0[2]]).collect();
                        let dt = Delaunay3::new(&coords);
                        let ok = check3(&dt, n_center, &region_lo, &region_hi);
                        (extract_edges3(&dt, n_center), ok)
                    }
                    _ => unreachable!(),
                };
                if !converged {
                    continue;
                }

                // Ownership: normalized (x, y) belongs to this cell iff
                // x is one of its vertices, or x is not PE-local at all
                // and y is one of its vertices.
                owned.clear();
                for (a, b) in edges {
                    let (ga, gb) = (ids[a as usize], ids[b as usize]);
                    let (x, y) = (ga.min(gb), ga.max(gb));
                    if x == y {
                        continue; // a point meeting its own replica
                    }
                    if cell_ids.contains(&x) || (!pe_ids.contains(&x) && cell_ids.contains(&y)) {
                        owned.push((x, y));
                    }
                }
                owned.sort_unstable();
                owned.dedup();
                for &(x, y) in &owned {
                    emit(x, y);
                }
                return;
            }
        });
        cache.stats()
    }

    /// Stream PE `pe`'s edges and report the frontier accounting (halo
    /// cells held across groups) — the hook the memory tests use.
    pub fn stream_pe_instrumented(
        &self,
        pe: usize,
        emit: &mut impl FnMut(u64, u64),
    ) -> FrontierStats {
        self.stream_cells(pe, emit)
    }
}

impl<const D: usize> Generator for Rdg<D> {
    fn num_vertices(&self) -> u64 {
        self.n
    }

    fn num_chunks(&self) -> usize {
        let inst = self.instance();
        1usize << (D as u32 * inst.chunk_bits)
    }

    fn directed(&self) -> bool {
        false
    }

    fn generate_pe(&self, pe: usize) -> PeGraph {
        let inst = self.instance();
        let grid = &inst.grid;
        let g = grid.cells_per_dim() as i64;
        let side = grid.cell_side();
        let cells_per_chunk_bits = D as u32 * (grid.levels() - inst.chunk_bits);
        let lo = (pe as u64) << cells_per_chunk_bits;
        let hi = (pe as u64 + 1) << cells_per_chunk_bits;
        // The chunk is a Morton-aligned cube of cells.
        let origin = grid.coords_of(lo);
        let width = 1i64 << (grid.levels() - inst.chunk_bits);

        let mut out = PeGraph {
            pe,
            ..PeGraph::default()
        };

        // Local points (ids are global Morton prefix sums).
        let mut pts: Vec<Point<D>> = Vec::new();
        let mut ids: Vec<u64> = Vec::new();
        {
            let mut cells: Vec<(u64, u64)> = Vec::new();
            inst.tree
                .for_leaf_counts(lo, hi, &mut |cell, c| cells.push((cell, c)));
            let mut next_id = inst.tree.prefix_before(lo);
            out.vertex_begin = next_id;
            for (cell, c) in cells {
                let mut cp = Vec::new();
                cell_points(grid, self.seed, cell, c, &mut cp);
                for (k, p) in cp.into_iter().enumerate() {
                    pts.push(p);
                    ids.push(next_id + k as u64);
                }
                next_id += c;
            }
            out.vertex_end = next_id;
        }
        let n_local = pts.len();
        for (p, &id) in pts.iter().zip(&ids) {
            match D {
                2 => out.coords2.push((id, [p.0[0], p.0[1]])),
                3 => out.coords3.push((id, [p.0[0], p.0[1], p.0[2]])),
                _ => unreachable!(),
            }
        }
        if self.num_chunks() == 1 && self.n < (D as u64 + 2) * 4 {
            // Degenerate tiny instance: fall through with the same halo
            // machinery (replicas still needed for the torus).
        }

        // Grow the halo ring by ring until the triangulation is certified.
        let max_halo = (g - 1).clamp(1, 16);
        let mut halo_seen: BTreeSet<(u64, [i64; D])> = BTreeSet::new();
        let mut locator = inst.tree.locator();
        let mut halo_pts: Vec<Point<D>> = Vec::new();
        let mut halo_ids: Vec<u64> = Vec::new();
        let mut h: i64 = 0;

        loop {
            h += 1;
            if h > max_halo {
                panic!(
                    "RDG halo exceeded {max_halo} rings — degenerate configuration \
                     (n too small for the chunk count?)"
                );
            }
            // Add ring h: cells at Chebyshev distance exactly h around the
            // chunk box, wrapped on the torus.
            let mut add_cell = |raw: [i64; D]| {
                let mut wrapped = [0u64; D];
                let mut offset = [0i64; D];
                for i in 0..D {
                    let mut x = raw[i];
                    let mut o = 0i64;
                    while x < 0 {
                        x += g;
                        o -= 1;
                    }
                    while x >= g {
                        x -= g;
                        o += 1;
                    }
                    wrapped[i] = x as u64;
                    offset[i] = o;
                }
                // Skip cells that are the chunk itself (offset 0 and inside
                // the box) or already added.
                let inside = (0..D).all(|i| {
                    offset[i] == 0
                        && wrapped[i] as i64 >= origin[i] as i64
                        && (wrapped[i] as i64) < origin[i] as i64 + width
                });
                if inside {
                    return;
                }
                let m = grid.morton_of(wrapped);
                if halo_seen.insert((m, offset)) {
                    self.cell_with_offset(
                        &inst,
                        &mut locator,
                        wrapped,
                        offset,
                        &mut halo_pts,
                        &mut halo_ids,
                    );
                }
            };
            // Enumerate the ring via the box surface.
            let lo_c: Vec<i64> = (0..D).map(|i| origin[i] as i64 - h).collect();
            let hi_c: Vec<i64> = (0..D).map(|i| origin[i] as i64 + width - 1 + h).collect();
            enumerate_ring::<D>(&lo_c, &hi_c, &mut |raw| add_cell(raw));

            // Triangulate local + halo.
            let mut all_pts = pts.clone();
            all_pts.extend(halo_pts.iter().copied());
            let region_lo: Vec<f64> = (0..D)
                .map(|i| (origin[i] as i64 - h) as f64 * side)
                .collect();
            let region_hi: Vec<f64> = (0..D)
                .map(|i| (origin[i] as i64 + width + h) as f64 * side)
                .collect();

            let (edges, converged) = match D {
                2 => {
                    let coords: Vec<[f64; 2]> = all_pts.iter().map(|p| [p.0[0], p.0[1]]).collect();
                    let dt = Delaunay2::new(&coords);
                    let ok = check2(&dt, n_local, &region_lo, &region_hi);
                    (extract_edges2(&dt, n_local), ok)
                }
                3 => {
                    let coords: Vec<[f64; 3]> =
                        all_pts.iter().map(|p| [p.0[0], p.0[1], p.0[2]]).collect();
                    let dt = Delaunay3::new(&coords);
                    let ok = check3(&dt, n_local, &region_lo, &region_hi);
                    (extract_edges3(&dt, n_local), ok)
                }
                _ => unreachable!(),
            };
            if !converged {
                continue;
            }

            // Map point indices to global ids and emit edges incident to
            // local vertices, deduplicated.
            let gid = |i: u32| -> u64 {
                if (i as usize) < n_local {
                    ids[i as usize]
                } else {
                    halo_ids[i as usize - n_local]
                }
            };
            let mut result: Vec<(u64, u64)> = edges
                .into_iter()
                .map(|(a, b)| {
                    let (ga, gb) = (gid(a), gid(b));
                    (ga.min(gb), ga.max(gb))
                })
                .filter(|&(a, b)| a != b)
                .collect();
            result.sort_unstable();
            result.dedup();
            out.edges = result;
            return out;
        }
    }
}

/// Call `f` for every integer coordinate on the surface of the box
/// `[lo, hi]` (inclusive) — the next halo ring.
fn enumerate_ring<const D: usize>(lo: &[i64], hi: &[i64], f: &mut impl FnMut([i64; D])) {
    // Iterate the full box but only surface cells (any coordinate at a
    // bound). Box volumes here are small (halo rings).
    fn rec<const D: usize>(
        lo: &[i64],
        hi: &[i64],
        dim: usize,
        cur: &mut [i64; D],
        on_surface: bool,
        f: &mut impl FnMut([i64; D]),
    ) {
        if dim == D {
            if on_surface {
                f(*cur);
            }
            return;
        }
        let mut x = lo[dim];
        while x <= hi[dim] {
            cur[dim] = x;
            let surf = on_surface || x == lo[dim] || x == hi[dim];
            // Interior sweep shortcut: if not at a bound in this dim and
            // deeper dims can still hit bounds, recurse normally.
            rec::<D>(lo, hi, dim + 1, cur, surf, f);
            x += 1;
        }
    }
    let mut cur = [0i64; D];
    rec::<D>(lo, hi, 0, &mut cur, false, f);
}

fn check2(dt: &Delaunay2, n_local: usize, lo: &[f64], hi: &[f64]) -> bool {
    for t in dt.all_triangles() {
        let has_local = t.iter().any(|&v| (v as usize) < n_local);
        if !has_local {
            continue;
        }
        if t.iter().any(|&v| dt.is_super(v)) {
            return false; // a local point still touches the hull
        }
        let (c, r2) = circumcircle2(
            dt.point(t[0] as usize),
            dt.point(t[1] as usize),
            dt.point(t[2] as usize),
        );
        let r = r2.sqrt();
        for i in 0..2 {
            if c[i] - r < lo[i] || c[i] + r > hi[i] {
                return false;
            }
        }
    }
    true
}

fn check3(dt: &Delaunay3, n_local: usize, lo: &[f64], hi: &[f64]) -> bool {
    for t in dt.all_tetrahedra() {
        let has_local = t.iter().any(|&v| (v as usize) < n_local);
        if !has_local {
            continue;
        }
        if t.iter().any(|&v| dt.is_super(v)) {
            return false;
        }
        let (c, r2) = circumsphere3(
            dt.point(t[0] as usize),
            dt.point(t[1] as usize),
            dt.point(t[2] as usize),
            dt.point(t[3] as usize),
        );
        let r = r2.sqrt();
        for i in 0..3 {
            if c[i] - r < lo[i] || c[i] + r > hi[i] {
                return false;
            }
        }
    }
    true
}

fn extract_edges2(dt: &Delaunay2, n_local: usize) -> Vec<(u32, u32)> {
    let mut edges = Vec::new();
    for t in dt.triangles() {
        for k in 0..3 {
            let a = t[k];
            let b = t[(k + 1) % 3];
            if (a as usize) < n_local || (b as usize) < n_local {
                edges.push((a.min(b), a.max(b)));
            }
        }
    }
    edges.sort_unstable();
    edges.dedup();
    edges
}

fn extract_edges3(dt: &Delaunay3, n_local: usize) -> Vec<(u32, u32)> {
    let mut edges = Vec::new();
    for t in dt.tetrahedra() {
        for i in 0..4 {
            for j in (i + 1)..4 {
                let (a, b) = (t[i].min(t[j]), t[i].max(t[j]));
                if (a as usize) < n_local || (b as usize) < n_local {
                    edges.push((a, b));
                }
            }
        }
    }
    edges.sort_unstable();
    edges.dedup();
    edges
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generate_undirected;

    #[test]
    fn chunk_invariance_2d() {
        let a = generate_undirected(&Rdg2d::new(300).with_seed(3).with_chunks(1));
        let b = generate_undirected(&Rdg2d::new(300).with_seed(3).with_chunks(4));
        let c = generate_undirected(&Rdg2d::new(300).with_seed(3).with_chunks(16));
        assert_eq!(a, b, "1 vs 4 chunks");
        assert_eq!(a, c, "1 vs 16 chunks");
    }

    #[test]
    fn chunk_invariance_3d() {
        let a = generate_undirected(&Rdg3d::new(250).with_seed(5).with_chunks(1));
        let b = generate_undirected(&Rdg3d::new(250).with_seed(5).with_chunks(8));
        assert_eq!(a, b);
    }

    #[test]
    fn torus_degree_statistics_2d() {
        // On the torus there is no boundary: E = 3n exactly for a
        // triangulation of the torus (Euler characteristic 0), i.e. mean
        // degree exactly 6 — allow slack for rare cocircular ties.
        let n = 500u64;
        let el = generate_undirected(&Rdg2d::new(n).with_seed(7).with_chunks(4));
        let m = el.edges.len() as f64;
        assert!(
            (m - 3.0 * n as f64).abs() <= 3.0,
            "edges {m} vs 3n = {}",
            3 * n
        );
    }

    #[test]
    fn torus_degree_statistics_3d() {
        // Poisson–Delaunay in 3D: expected degree 2 + 48π²/35 ≈ 15.54.
        let n = 400u64;
        let el = generate_undirected(&Rdg3d::new(n).with_seed(9).with_chunks(1));
        let mean_deg = 2.0 * el.edges.len() as f64 / n as f64;
        assert!(
            (14.0..17.0).contains(&mean_deg),
            "mean degree {mean_deg} (expected ≈15.5)"
        );
    }

    #[test]
    fn connected_mesh() {
        let el = generate_undirected(&Rdg2d::new(400).with_seed(11).with_chunks(4));
        assert!(kagen_graph::components::is_connected(&el));
    }

    #[test]
    fn every_vertex_present() {
        let n = 300u64;
        let el = generate_undirected(&Rdg2d::new(n).with_seed(13).with_chunks(4));
        let deg = el.degrees_undirected();
        assert!(
            deg.iter().all(|&d| d >= 3),
            "torus Delaunay degree must be ≥ 3: {:?}",
            deg.iter()
                .enumerate()
                .filter(|(_, &d)| d < 3)
                .take(5)
                .collect::<Vec<_>>()
        );
    }
}
