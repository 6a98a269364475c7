//! The multiset of robot positions (`C_R(τ)` in the paper) and strong
//! multiplicity detection.

use gather_geom::{
    are_collinear, smallest_enclosing_circle_soa, soa, Circle, Point, PointBuffer, Tol,
};

/// A configuration of `n` robots: a *multiset* of points on the plane.
///
/// The paper's robots have **strong multiplicity detection**: a robot can
/// count exactly how many robots occupy each point. [`Configuration`]
/// supports this through [`Configuration::distinct`] (the paper's `U(C)`
/// with multiplicities) and [`Configuration::mult`].
///
/// To make multiplicity well defined in floating point, configurations are
/// usually built with [`Configuration::canonical`], which snaps together
/// points closer than `tol.snap` so that co-located robots have bitwise
/// identical coordinates.
///
/// # Example
///
/// ```
/// use gather_config::Configuration;
/// use gather_geom::{Point, Tol};
///
/// let c = Configuration::canonical(
///     vec![
///         Point::new(0.0, 0.0),
///         Point::new(1e-9, -1e-9),     // same location, up to noise
///         Point::new(3.0, 4.0),
///     ],
///     Tol::default(),
/// );
/// assert_eq!(c.len(), 3);
/// assert_eq!(c.distinct().len(), 2);
/// assert_eq!(c.mult(Point::new(0.0, 0.0), Tol::default()), 2);
/// ```
#[derive(Debug, Clone, Default)]
pub struct Configuration {
    points: Vec<Point>,
    /// Structure-of-arrays mirror of `points`, kept in sync by every
    /// mutator (the `points` field is private, so mutation cannot bypass
    /// the mirror). The geometry batch kernels — distance sums, SEC, angle
    /// keys, the quasi-regularity prefilter — read this instead of
    /// re-transposing per call, and the `copy_from*` resyncs reuse its
    /// capacity so the round loop stays allocation-free.
    soa: PointBuffer,
}

impl PartialEq for Configuration {
    fn eq(&self, other: &Self) -> bool {
        // The mirror is a function of `points`; comparing it would be
        // redundant work.
        self.points == other.points
    }
}

impl Configuration {
    /// Creates a configuration from robot positions as given (no snapping).
    pub fn new(points: Vec<Point>) -> Self {
        let soa = PointBuffer::from_points(&points);
        Configuration { points, soa }
    }

    /// Creates a configuration, snapping together all points within
    /// `tol.snap` of each other so multiplicity detection is exact.
    ///
    /// Clustering is transitive (single-linkage): a chain of nearby points
    /// collapses into one location, represented by the cluster centroid.
    pub fn canonical(points: Vec<Point>, tol: Tol) -> Self {
        Configuration::new(canonicalize(points, tol.snap))
    }

    /// Overwrites this configuration with the contents of `other`, reusing
    /// the existing point buffer (no allocation once capacity suffices).
    pub fn copy_from(&mut self, other: &Configuration) {
        self.points.clone_from(&other.points);
        self.soa.copy_from_points(&self.points);
    }

    /// Overwrites this configuration with the given points, reusing the
    /// existing buffer.
    pub fn copy_from_slice(&mut self, points: &[Point]) {
        self.points.clear();
        self.points.extend_from_slice(points);
        self.soa.copy_from_points(points);
    }

    /// Replaces the position of robot `i`.
    ///
    /// # Panics
    ///
    /// Panics if `i` is out of bounds.
    pub fn set_point(&mut self, i: usize, p: Point) {
        self.points[i] = p;
        self.soa.set(i, p);
    }

    /// Applies `f` to every robot position in place (the allocation-free
    /// counterpart of [`Configuration::map`]).
    pub fn map_in_place(&mut self, mut f: impl FnMut(Point) -> Point) {
        for (i, p) in self.points.iter_mut().enumerate() {
            *p = f(*p);
            self.soa.set(i, *p);
        }
    }

    /// Number of robots `n`.
    pub fn len(&self) -> usize {
        self.points.len()
    }

    /// Is the configuration empty (no robots)?
    pub fn is_empty(&self) -> bool {
        self.points.is_empty()
    }

    /// The positions of all robots, one entry per robot.
    pub fn points(&self) -> &[Point] {
        &self.points
    }

    /// The structure-of-arrays mirror of [`Configuration::points`], for the
    /// batch kernels in `gather_geom::soa`. Always in sync with the
    /// array-of-structs view.
    pub fn soa(&self) -> &PointBuffer {
        &self.soa
    }

    /// The paper's `U(C)`: distinct occupied locations, each with its
    /// multiplicity, in deterministic (lexicographic) order.
    ///
    /// Positions are compared bitwise; build the configuration with
    /// [`Configuration::canonical`] if the input may contain noise.
    pub fn distinct(&self) -> Vec<(Point, usize)> {
        let mut out = Vec::new();
        let mut sort_buf = Vec::new();
        self.distinct_into(&mut out, &mut sort_buf);
        out
    }

    /// Allocation-free form of [`Configuration::distinct`]: fills `out`
    /// with the distinct locations and multiplicities, using `sort_buf` as
    /// sorting scratch. Both buffers are cleared first and keep their
    /// capacity across calls.
    pub fn distinct_into(&self, out: &mut Vec<(Point, usize)>, sort_buf: &mut Vec<Point>) {
        sort_buf.clear();
        sort_buf.extend_from_slice(&self.points);
        sort_buf.sort_by(|a, b| a.lex_cmp(*b));
        out.clear();
        for &p in sort_buf.iter() {
            match out.last_mut() {
                Some((q, m)) if *q == p => *m += 1,
                _ => out.push((p, 1)),
            }
        }
    }

    /// The distinct occupied locations without multiplicities.
    pub fn distinct_points(&self) -> Vec<Point> {
        self.distinct().into_iter().map(|(p, _)| p).collect()
    }

    /// The multiplicity of location `p`: how many robots are within
    /// `tol.snap` of it (strong multiplicity detection, `mult(p)`).
    pub fn mult(&self, p: Point, tol: Tol) -> usize {
        self.points.iter().filter(|q| q.within(p, tol.snap)).count()
    }

    /// The maximum multiplicity over all locations, with the locations that
    /// attain it.
    pub fn max_multiplicity(&self) -> (usize, Vec<Point>) {
        let distinct = self.distinct();
        let max = distinct.iter().map(|(_, m)| *m).max().unwrap_or(0);
        let points = distinct
            .into_iter()
            .filter(|(_, m)| *m == max)
            .map(|(p, _)| p)
            .collect();
        (max, points)
    }

    /// Does exactly one location attain the maximum multiplicity, and if so
    /// which (the class-`M` test)?
    pub fn unique_max_multiplicity(&self) -> Option<(Point, usize)> {
        let (max, points) = self.max_multiplicity();
        if points.len() == 1 {
            Some((points[0], max))
        } else {
            None
        }
    }

    /// Are all robots on one straight line (the paper's *linear*
    /// configuration)? Configurations with at most 2 distinct locations are
    /// linear by convention.
    pub fn is_linear(&self, tol: Tol) -> bool {
        are_collinear(&self.distinct_points(), tol)
    }

    /// Are all robots at a single location?
    pub fn is_gathered(&self) -> bool {
        self.distinct().len() <= 1
    }

    /// The smallest enclosing circle of the occupied locations
    /// (`sec(U(C))` in the paper).
    ///
    /// Computed over the full multiset via the SoA mirror — the smallest
    /// enclosing circle of a multiset equals that of its support, and
    /// Welzl's dedup handles repeated points, so no distinct-point set is
    /// materialised.
    pub fn sec(&self) -> Circle {
        smallest_enclosing_circle_soa(&self.soa)
    }

    /// Sum of distances from `x` to every robot (with multiplicity) — the
    /// Weber objective over the configuration, as a batch kernel over the
    /// SoA mirror.
    pub fn sum_of_distances(&self, x: Point) -> f64 {
        soa::sum_distances(&self.soa, x)
    }

    /// Applies `f` to every robot position, producing a new configuration.
    /// Useful for expressing global transforms in tests.
    pub fn map(&self, mut f: impl FnMut(Point) -> Point) -> Configuration {
        Configuration::new(self.points.iter().map(|p| f(*p)).collect())
    }
}

impl FromIterator<Point> for Configuration {
    fn from_iter<I: IntoIterator<Item = Point>>(iter: I) -> Self {
        Configuration::new(iter.into_iter().collect())
    }
}

impl Extend<Point> for Configuration {
    fn extend<I: IntoIterator<Item = Point>>(&mut self, iter: I) {
        for p in iter {
            self.points.push(p);
            self.soa.push(p);
        }
    }
}

impl std::fmt::Display for Configuration {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "Configuration[n={}] {{ ", self.len())?;
        for (p, m) in self.distinct() {
            if m > 1 {
                write!(f, "{p}x{m} ")?;
            } else {
                write!(f, "{p} ")?;
            }
        }
        write!(f, "}}")
    }
}

/// Single-linkage clustering of points within `snap`, replacing each
/// cluster by its centroid.
fn canonicalize(points: Vec<Point>, snap: f64) -> Vec<Point> {
    let mut out = Vec::with_capacity(points.len());
    canonicalize_into(&points, snap, &mut CanonScratch::default(), &mut out);
    out
}

/// Reusable working memory for [`canonicalize_into`],
/// [`canonicalize_sorted_into`] and [`lex_order_update`]: the union-find
/// parent array, the per-cluster centroid accumulators, the sweep's run
/// heads and the lexicographic-order buffers.
#[derive(Debug, Default)]
pub struct CanonScratch {
    parent: Vec<usize>,
    sums: Vec<[f64; 2]>,
    count: Vec<usize>,
    heads: Vec<usize>,
    joined: Vec<bool>,
    order: Vec<usize>,
    keys: Vec<(i64, i64, usize)>,
    moved: Vec<usize>,
    mask: Vec<bool>,
}

/// Union-find root lookup with path halving. Iterative, so a long union
/// chain (a stack of many robots) cannot exhaust the thread's stack.
fn find(parent: &mut [usize], mut i: usize) -> usize {
    while parent[i] != i {
        let grand = parent[parent[i]];
        parent[i] = grand;
        i = grand;
    }
    i
}

fn union(parent: &mut [usize], i: usize, j: usize) {
    let ri = find(parent, i);
    let rj = find(parent, j);
    if ri != rj {
        parent[ri] = rj;
    }
}

/// The order [`canonicalize_sorted_into`] walks: `Point::lex_cmp`, then
/// the index. A strict total order, so the result does not depend on the
/// sort algorithm.
fn lex_index_cmp(points: &[Point], a: usize, b: usize) -> std::cmp::Ordering {
    points[a].lex_cmp(points[b]).then(a.cmp(&b))
}

fn bitwise_eq(p: Point, q: Point) -> bool {
    p.x.to_bits() == q.x.to_bits() && p.y.to_bits() == q.y.to_bits()
}

/// `f64::total_cmp` as an integer key: the same bit flip `total_cmp`
/// applies before comparing, so `total_key(a).cmp(&total_key(b))` is
/// `a.total_cmp(&b)`.
pub(crate) fn total_key(v: f64) -> i64 {
    let bits = v.to_bits() as i64;
    bits ^ (((bits >> 63) as u64) >> 1) as i64
}

/// Fills `order` with the indices of `points` in lexicographic order
/// (`Point::lex_cmp`, then the index): the input of
/// [`canonicalize_sorted_into`]. Sorts integer keys in `scratch` rather
/// than indices through a comparator, which keeps small inputs cheap.
pub fn lex_order_into(points: &[Point], order: &mut Vec<usize>, scratch: &mut CanonScratch) {
    let keys = &mut scratch.keys;
    keys.clear();
    keys.extend(
        points
            .iter()
            .enumerate()
            .map(|(i, p)| (total_key(p.x), total_key(p.y), i)),
    );
    keys.sort_unstable();
    order.clear();
    order.extend(keys.iter().map(|k| k.2));
}

/// Repairs a kept lexicographic order after some points changed: `order`
/// was the [`lex_order_into`] order of an earlier point vector that
/// differs from `points` at most at the indices in `changed` (distinct,
/// as `gather_geom::soa::diff_indices` lists them). Afterwards `order` is
/// exactly `lex_order_into(points)`, at O(n + d log n) cost for
/// d = `changed.len()` instead of a fresh O(n log n) sort.
///
/// # Panics
///
/// Panics if `order` and `points` differ in length or an index in
/// `changed` is out of bounds.
pub fn lex_order_update(
    points: &[Point],
    changed: &[usize],
    order: &mut Vec<usize>,
    scratch: &mut CanonScratch,
) {
    assert_eq!(order.len(), points.len(), "kept order of another length");
    if changed.is_empty() {
        return;
    }
    let CanonScratch {
        order: merged,
        moved,
        mask,
        ..
    } = scratch;
    mask.clear();
    mask.resize(points.len(), false);
    for &i in changed {
        mask[i] = true;
    }
    // The unchanged indices keep their keys, so they stay sorted among
    // themselves; each changed one is then inserted where a binary search
    // puts it.
    order.retain(|&i| !mask[i]);
    moved.clear();
    moved.extend_from_slice(changed);
    moved.sort_unstable_by(|&a, &b| lex_index_cmp(points, a, b));
    merged.clear();
    let mut rest = &order[..];
    for &j in moved.iter() {
        let at = rest.partition_point(|&i| lex_index_cmp(points, i, j).is_lt());
        merged.extend_from_slice(&rest[..at]);
        merged.push(j);
        rest = &rest[at..];
    }
    merged.extend_from_slice(rest);
    std::mem::swap(order, merged);
}

/// Allocation-free canonicalization: snaps `points` exactly like
/// [`Configuration::canonical`] and writes the result into `out` (cleared
/// first). `scratch` keeps the working arrays alive between calls so the
/// steady-state round loop performs no heap allocation here.
pub fn canonicalize_into(
    points: &[Point],
    snap: f64,
    scratch: &mut CanonScratch,
    out: &mut Vec<Point>,
) {
    let mut order = std::mem::take(&mut scratch.order);
    lex_order_into(points, &mut order, scratch);
    canonicalize_sorted_into(points, &order, snap, scratch, out);
    scratch.order = order;
}

/// [`canonicalize_into`] given the [`lex_order_into`] order of `points`,
/// which a caller may keep across calls (see [`lex_order_update`]).
///
/// The partition is the pair scan's: `i` and `j` share a cluster iff a
/// chain of `within(snap)` pairs joins them. It is found in one sort-order
/// walk instead of n² tests:
///
/// - A run of bitwise-equal points is adjacent in the order. When its
///   head `p` satisfies `p.within(p, snap)` — every finite point does
///   unless `snap` is NaN — the whole run is one cluster, joined in
///   O(run). A run that fails the test (non-finite coordinates) is left
///   unmerged, and each of its points takes part in the sweep itself.
/// - Each run head is tested against the earlier heads, nearest first,
///   with the pair scan's `within` call, and its window ends at the first
///   earlier head with `dx·dx > snap²`. Subtraction and squaring round
///   monotonically, so every head before that one is at least as far in x
///   and cannot be within `snap` either: the stop is exact.
///
/// The centroids are summed in index order, so the output depends only on
/// the partition and is bitwise identical to the pair scan's.
///
/// # Panics
///
/// Panics if an index in `order` is out of bounds. A wrong `order` gives a
/// wrong partition; debug builds check it is sorted.
pub fn canonicalize_sorted_into(
    points: &[Point],
    order: &[usize],
    snap: f64,
    scratch: &mut CanonScratch,
    out: &mut Vec<Point>,
) {
    let n = points.len();
    debug_assert_eq!(order.len(), n, "order of another length");
    debug_assert!(
        order
            .windows(2)
            .all(|w| lex_index_cmp(points, w[0], w[1]).is_lt()),
        "order is not the lexicographic order of the points"
    );
    let CanonScratch {
        parent,
        heads,
        joined,
        sums,
        count,
        ..
    } = scratch;
    parent.clear();
    parent.extend(0..n);
    joined.clear();
    joined.resize(n, false);
    if sums.len() < n {
        sums.resize(n, [0.0; 2]);
        count.resize(n, 0);
    }
    // Marks `i` as a member of a cluster of two or more and clears its
    // accumulators, so any of them can serve as the cluster's root.
    let mut join = |i: usize| {
        joined[i] = true;
        sums[i] = [0.0; 2];
        count[i] = 0;
    };
    heads.clear();
    let limit = snap * snap;
    // The head of the run being read, if its run merges.
    let mut run: Option<(usize, Point)> = None;
    for &i in order {
        let q = points[i];
        match run {
            Some((h, p)) if bitwise_eq(p, q) => {
                parent[i] = h;
                join(i);
                join(h);
            }
            _ => {
                for &g in heads.iter().rev() {
                    let p = points[g];
                    let dx = q.x - p.x;
                    if dx * dx > limit {
                        break;
                    }
                    if p.within(q, snap) {
                        union(parent, g, i);
                        join(g);
                        join(i);
                    }
                }
                heads.push(i);
                run = q.within(q, snap).then_some((i, q));
            }
        }
    }

    emit_centroids(points, scratch, out);
}

/// The centroid-per-cluster emission phase of the canonicalization:
/// per-cluster sums accumulated in index order (so the output depends
/// only on the partition, never on which member became the union-find
/// root), then `out[i] = centroid(cluster of i)`. A point in no cluster
/// of two or more is its own centroid, `(0.0 + x) / 1.0`, which is
/// `0.0 + x` exactly (division by one is exact, and a NaN stays that
/// NaN): it needs neither the union-find nor the sums. Reads the `joined`
/// flags and the accumulators [`canonicalize_sorted_into`] cleared.
fn emit_centroids(points: &[Point], scratch: &mut CanonScratch, out: &mut Vec<Point>) {
    let CanonScratch {
        parent,
        joined,
        sums,
        count,
        ..
    } = scratch;
    for (i, p) in points.iter().enumerate() {
        if joined[i] {
            let r = find(parent, i);
            // Point `i` straight at its root for the second pass. No union
            // follows, so the roots stay put.
            parent[i] = r;
            sums[r][0] += p.x;
            sums[r][1] += p.y;
            count[r] += 1;
        }
    }
    out.clear();
    out.extend(
        points
            .iter()
            .zip(joined.iter())
            .zip(parent.iter())
            .map(|((p, &j), &r)| {
                if j {
                    let c = count[r] as f64;
                    Point::new(sums[r][0] / c, sums[r][1] / c)
                } else {
                    Point::new(0.0 + p.x, 0.0 + p.y)
                }
            }),
    );
}

/// The canonicalisation the sort-and-sweep replaced, kept whole: every
/// pair tested with `within`, then per-cluster sums in index order. The
/// differential tests hold [`canonicalize_sorted_into`] to it bit for bit.
#[cfg(test)]
fn canonicalize_pairwise_oracle(points: &[Point], snap: f64) -> Vec<Point> {
    let n = points.len();
    let mut parent: Vec<usize> = (0..n).collect();
    for i in 0..n {
        for j in (i + 1)..n {
            if points[i].within(points[j], snap) {
                union(&mut parent, i, j);
            }
        }
    }
    let (mut sum_x, mut sum_y, mut count) = (vec![0.0; n], vec![0.0; n], vec![0usize; n]);
    for (i, p) in points.iter().enumerate() {
        let r = find(&mut parent, i);
        sum_x[r] += p.x;
        sum_y[r] += p.y;
        count[r] += 1;
    }
    (0..n)
        .map(|i| {
            let r = find(&mut parent, i);
            Point::new(sum_x[r] / count[r] as f64, sum_y[r] / count[r] as f64)
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use gather_prng::Rng;

    fn t() -> Tol {
        Tol::default()
    }

    #[test]
    fn distinct_counts_multiplicities() {
        let c = Configuration::new(vec![
            Point::new(1.0, 1.0),
            Point::new(0.0, 0.0),
            Point::new(1.0, 1.0),
            Point::new(1.0, 1.0),
        ]);
        let d = c.distinct();
        assert_eq!(d.len(), 2);
        assert_eq!(d[0], (Point::new(0.0, 0.0), 1));
        assert_eq!(d[1], (Point::new(1.0, 1.0), 3));
    }

    #[test]
    fn canonical_snaps_noisy_duplicates() {
        let c = Configuration::canonical(
            vec![
                Point::new(0.0, 0.0),
                Point::new(1e-8, 1e-8),
                Point::new(-1e-8, 0.0),
                Point::new(2.0, 2.0),
            ],
            t(),
        );
        assert_eq!(c.distinct().len(), 2);
        let (max, pts) = c.max_multiplicity();
        assert_eq!(max, 3);
        assert_eq!(pts.len(), 1);
        assert!(pts[0].dist(Point::ORIGIN) < 1e-7);
    }

    #[test]
    fn canonical_clusters_transitively() {
        // Chain: a-b within snap, b-c within snap, a-c slightly beyond.
        let snap = 1e-6;
        let tol = Tol::new(1e-9, 1e-9, snap);
        let c = Configuration::canonical(
            vec![
                Point::new(0.0, 0.0),
                Point::new(0.8e-6, 0.0),
                Point::new(1.6e-6, 0.0),
            ],
            tol,
        );
        assert_eq!(c.distinct().len(), 1);
    }

    #[test]
    fn mult_uses_snap_radius() {
        let c = Configuration::new(vec![Point::new(0.0, 0.0), Point::new(5.0, 0.0)]);
        assert_eq!(c.mult(Point::new(0.0, 1e-8), t()), 1);
        assert_eq!(c.mult(Point::new(2.0, 0.0), t()), 0);
    }

    #[test]
    fn unique_max_multiplicity_detection() {
        let unique = Configuration::new(vec![
            Point::new(0.0, 0.0),
            Point::new(0.0, 0.0),
            Point::new(1.0, 0.0),
        ]);
        let (p, m) = unique.unique_max_multiplicity().unwrap();
        assert_eq!((p, m), (Point::new(0.0, 0.0), 2));

        let tie = Configuration::new(vec![
            Point::new(0.0, 0.0),
            Point::new(0.0, 0.0),
            Point::new(1.0, 0.0),
            Point::new(1.0, 0.0),
        ]);
        assert!(tie.unique_max_multiplicity().is_none());
    }

    #[test]
    fn linearity() {
        let line = Configuration::new(vec![
            Point::new(0.0, 0.0),
            Point::new(1.0, 1.0),
            Point::new(4.0, 4.0),
            Point::new(1.0, 1.0),
        ]);
        assert!(line.is_linear(t()));
        let tri = Configuration::new(vec![
            Point::new(0.0, 0.0),
            Point::new(1.0, 0.0),
            Point::new(0.0, 1.0),
        ]);
        assert!(!tri.is_linear(t()));
        // <= 2 distinct points is always linear.
        let two = Configuration::new(vec![Point::new(0.0, 0.0), Point::new(1.0, 0.0)]);
        assert!(two.is_linear(t()));
    }

    #[test]
    fn gathered_detection() {
        let g = Configuration::new(vec![Point::new(2.0, 2.0); 5]);
        assert!(g.is_gathered());
        let ng = Configuration::new(vec![Point::new(2.0, 2.0), Point::new(3.0, 2.0)]);
        assert!(!ng.is_gathered());
        assert!(Configuration::default().is_gathered());
    }

    #[test]
    fn sec_ignores_multiplicity() {
        // sec is over U(C): stacking robots on one point must not move it.
        let base = Configuration::new(vec![Point::new(-1.0, 0.0), Point::new(1.0, 0.0)]);
        let stacked = Configuration::new(vec![
            Point::new(-1.0, 0.0),
            Point::new(1.0, 0.0),
            Point::new(1.0, 0.0),
            Point::new(1.0, 0.0),
        ]);
        assert!(base.sec().center.dist(stacked.sec().center) < 1e-12);
    }

    #[test]
    fn sum_of_distances_counts_multiplicity() {
        let c = Configuration::new(vec![
            Point::new(1.0, 0.0),
            Point::new(1.0, 0.0),
            Point::new(-2.0, 0.0),
        ]);
        assert_eq!(c.sum_of_distances(Point::ORIGIN), 1.0 + 1.0 + 2.0);
    }

    #[test]
    fn from_iterator_and_extend() {
        let mut c: Configuration = (0..3).map(|i| Point::new(i as f64, 0.0)).collect();
        assert_eq!(c.len(), 3);
        c.extend([Point::new(9.0, 9.0)]);
        assert_eq!(c.len(), 4);
    }

    #[test]
    fn map_applies_transform() {
        let c = Configuration::new(vec![Point::new(1.0, 2.0)]);
        let moved = c.map(|p| Point::new(p.x + 1.0, p.y));
        assert_eq!(moved.points()[0], Point::new(2.0, 2.0));
    }

    #[test]
    fn soa_mirror_tracks_every_mutator() {
        fn assert_synced(c: &Configuration) {
            assert_eq!(c.soa().len(), c.len());
            for (i, p) in c.points().iter().enumerate() {
                assert_eq!(c.soa().get(i), *p, "mirror out of sync at {i}");
            }
        }

        let mut c = Configuration::new(vec![Point::new(1.0, 2.0), Point::new(3.0, 4.0)]);
        assert_synced(&c);
        c.set_point(1, Point::new(-1.0, -1.0));
        assert_synced(&c);
        c.map_in_place(|p| Point::new(p.x + 1.0, p.y));
        assert_synced(&c);
        c.extend([Point::new(7.0, 8.0)]);
        assert_synced(&c);
        c.copy_from_slice(&[Point::new(0.5, 0.5)]);
        assert_synced(&c);
        let other = Configuration::canonical(vec![Point::new(9.0, 9.0); 3], t());
        c.copy_from(&other);
        assert_synced(&c);
        assert_synced(&c.clone());
        assert_synced(&c.map(|p| Point::new(-p.x, p.y)));
        let collected: Configuration = (0..4).map(|i| Point::new(i as f64, 0.0)).collect();
        assert_synced(&collected);
    }

    fn assert_same_bits(got: &[Point], want: &[Point], ctx: &str) {
        assert_eq!(got.len(), want.len(), "{ctx}: length changed");
        for (i, (a, b)) in got.iter().zip(want).enumerate() {
            assert!(
                bitwise_eq(*a, *b),
                "{ctx}: diverged at {i}: {a:?} vs the pair scan's {b:?}"
            );
        }
    }

    /// Canonicalises `points` through the full path and checks the output
    /// against the pair-scan oracle bit for bit.
    fn assert_matches_oracle(points: &[Point], snap: f64, ctx: &str) -> Vec<Point> {
        let want = canonicalize_pairwise_oracle(points, snap);
        let mut out = Vec::new();
        canonicalize_into(points, snap, &mut CanonScratch::default(), &mut out);
        assert_same_bits(&out, &want, ctx);
        out
    }

    /// One apply of a kept-order protocol: `order` is the lex order of
    /// `prev`; the moves give `moved`. Repairs the order for the moves,
    /// canonicalises through it, repairs it again for what
    /// canonicalisation changed, and checks the output against the oracle
    /// and the kept order against a fresh sort. (The engine sorts afresh
    /// after a merge instead of the second repair; the repair must hold
    /// for any changed set either way.)
    fn kept_order_apply(
        prev: &[Point],
        moved: &[Point],
        order: &mut Vec<usize>,
        snap: f64,
        scratch: &mut CanonScratch,
        ctx: &str,
    ) -> Vec<Point> {
        let mut changed = Vec::new();
        gather_geom::soa::diff_indices(prev, moved, &mut changed);
        lex_order_update(moved, &changed, order, scratch);
        assert_eq!(
            *order,
            fresh_order(moved),
            "{ctx}: kept order after the moves"
        );
        let mut out = Vec::new();
        canonicalize_sorted_into(moved, order, snap, scratch, &mut out);
        assert_same_bits(&out, &canonicalize_pairwise_oracle(moved, snap), ctx);
        gather_geom::soa::diff_indices(moved, &out, &mut changed);
        lex_order_update(&out, &changed, order, scratch);
        assert_eq!(
            *order,
            fresh_order(&out),
            "{ctx}: kept order after canonicalisation"
        );
        out
    }

    /// The lexicographic order by its definition: a stable sort by
    /// `lex_cmp` of the indices in ascending order.
    fn fresh_order(points: &[Point]) -> Vec<usize> {
        let mut order: Vec<usize> = (0..points.len()).collect();
        order.sort_by(|&a, &b| points[a].lex_cmp(points[b]));
        order
    }

    /// Uniform points in a box of half-width `w`.
    fn scatter(rng: &mut Rng, n: usize, w: f64) -> Vec<Point> {
        (0..n)
            .map(|_| Point::new(rng.random_range(-w..w), rng.random_range(-w..w)))
            .collect()
    }

    #[test]
    fn sweep_matches_the_pair_scan_on_scatters() {
        let snap = t().snap;
        let mut rng = Rng::seed_from_u64(0xCA70);
        for n in (1..=64).chain([100, 128, 255, 256, 500, 512, 1000, 1024]) {
            // Spread out (no merges), then dense enough that a fair share
            // of points cluster, some in chains.
            for w in [10.0, snap * (n as f64).sqrt()] {
                let pts = scatter(&mut rng, n, w);
                assert_matches_oracle(&pts, snap, &format!("scatter n={n} w={w:e}"));
            }
        }
    }

    #[test]
    fn sweep_matches_the_pair_scan_on_stacks() {
        let snap = t().snap;
        let mut rng = Rng::seed_from_u64(0x57AC);
        for trial in 0..200 {
            let k = rng.random_range(1usize..12);
            let mut pts = scatter(&mut rng, k, 5.0);
            for _ in 0..rng.random_range(1usize..200) {
                let p = pts[rng.random_range(0..k)];
                // Bitwise copies, and copies jittered within (or just
                // beyond) the snap radius.
                let q = match rng.random_range(0usize..3) {
                    0 => p,
                    1 => Point::new(
                        p.x + rng.random_range(-0.7..0.7) * snap,
                        p.y + rng.random_range(-0.7..0.7) * snap,
                    ),
                    _ => Point::new(p.x + rng.random_range(-3.0..3.0) * snap, p.y),
                };
                pts.push(q);
            }
            let ctx = format!("stacks trial {trial}");
            let once = assert_matches_oracle(&pts, snap, &ctx);
            // A canonical output, with stacks as bitwise runs, again.
            assert_matches_oracle(&once, snap, &format!("{ctx}, re-canonicalised"));
        }
    }

    #[test]
    fn sweep_follows_chains_longer_than_one_window() {
        let snap = 1e-6;
        // Consecutive links within snap, the ends hundreds of windows apart.
        let along = |dx: f64, dy: f64| -> Vec<Point> {
            (0..400)
                .map(|k| Point::new(3.0 + k as f64 * dx, -1.0 + k as f64 * dy))
                .collect()
        };
        for (dx, dy) in [
            (0.9e-6, 0.0),
            (0.0, 0.9e-6),
            (0.6e-6, 0.6e-6),
            (0.6e-6, -0.6e-6),
            (1.1e-6, 0.0),
        ] {
            let mut pts = along(dx, dy);
            let out = assert_matches_oracle(&pts, snap, &format!("chain ({dx:e}, {dy:e})"));
            let clusters = Configuration::new(out).distinct().len();
            assert_eq!(
                clusters,
                if dx > snap { 400 } else { 1 },
                "({dx:e}, {dy:e})"
            );
            // Shuffled indices and a bystander stack in the middle.
            let mut rng = Rng::seed_from_u64(dx.to_bits() ^ dy.to_bits());
            for i in (1..pts.len()).rev() {
                pts.swap(i, rng.random_range(0..i + 1));
            }
            pts.extend(std::iter::repeat_n(pts[7], 5));
            assert_matches_oracle(&pts, snap, &format!("shuffled chain ({dx:e}, {dy:e})"));
        }
    }

    #[test]
    fn sweep_matches_the_pair_scan_at_the_snap_boundary() {
        let ulps = |v: f64| [v.next_down(), v, v.next_up()];
        for snap in [1e-6, 0.1, 0.3, 1.0, 3.0] {
            for base in [0.0, -0.0, 1.0, -7.25, 1e6] {
                // Along x: dx = snap and one ulp either side, at bases
                // where the subtraction itself rounds.
                for x in ulps(base + snap) {
                    let pts = [Point::new(base, 2.0), Point::new(x, 2.0)];
                    assert_matches_oracle(&pts, snap, &format!("dx: {base} -> {x:e}"));
                }
                // Oblique: dist = snap up to rounding, each coordinate
                // nudged by an ulp, with the window's x test passing.
                let (c, s) = (0.6 * snap, 0.8 * snap);
                for x in ulps(base + c) {
                    for y in ulps(5.0 + s) {
                        let pts = [Point::new(base, 5.0), Point::new(x, y), Point::new(x, y)];
                        assert_matches_oracle(
                            &pts,
                            snap,
                            &format!("dist: {base} -> ({x:e}, {y:e})"),
                        );
                    }
                }
            }
            // dist = snap exactly: a 3-4-5 triangle scaled by a power of
            // two has no rounding anywhere.
            let unit = snap / 5.0;
            let scale = 2f64.powi(unit.log2().floor() as i32);
            for x in ulps(3.0 * scale) {
                for y in ulps(4.0 * scale) {
                    let pts = [Point::new(0.0, 0.0), Point::new(x, y)];
                    let out =
                        assert_matches_oracle(&pts, 5.0 * scale, &format!("3-4-5: ({x:e}, {y:e})"));
                    if (x, y) == (3.0 * scale, 4.0 * scale) {
                        assert_eq!(out[0], out[1], "a pair at exactly snap must merge");
                    }
                }
            }
            // A third point one window further: the stop must not skip it.
            let pts = [
                Point::new(0.0, 0.0),
                Point::new(snap.next_up(), 0.0),
                Point::new(snap, snap.next_down()),
            ];
            assert_matches_oracle(&pts, snap, &format!("window edge, snap {snap}"));
        }
    }

    #[test]
    fn sweep_merges_negative_and_positive_zero() {
        let z = [0.0, -0.0];
        let mut pts = Vec::new();
        for &x in &z {
            for &y in &z {
                pts.push(Point::new(x, y));
                pts.push(Point::new(x, y));
            }
        }
        pts.push(Point::new(1.0, -0.0));
        pts.push(Point::new(1.0, 0.0));
        for snap in [1e-6, 0.0] {
            let out = assert_matches_oracle(&pts, snap, &format!("signed zeros, snap {snap}"));
            assert_eq!(Configuration::new(out).distinct().len(), 2, "snap {snap}");
        }
    }

    #[test]
    fn sweep_with_zero_snap_merges_only_equal_values() {
        let mut rng = Rng::seed_from_u64(0x5A0);
        let mut pts = scatter(&mut rng, 40, 1.0);
        for i in 0..40 {
            pts.push(pts[i / 3]);
        }
        pts.push(Point::new(pts[0].x.next_up(), pts[0].y));
        let out = assert_matches_oracle(&pts, 0.0, "snap 0");
        assert_eq!(Configuration::new(out).distinct().len(), 41);
    }

    #[test]
    fn sweep_matches_the_pair_scan_on_non_finite_points() {
        let (inf, nan) = (f64::INFINITY, f64::NAN);
        let odd = [
            Point::new(inf, 0.0),
            Point::new(-inf, 0.0),
            Point::new(0.0, inf),
            Point::new(0.0, -inf),
            Point::new(inf, inf),
            Point::new(nan, 0.0),
            Point::new(-nan, 0.0),
            Point::new(0.0, nan),
            Point::new(-nan, -nan),
            // Two copies sum past f64::MAX in y, so merging them would
            // show in the output.
            Point::new(inf, f64::MAX),
            Point::new(nan, -f64::MAX),
        ];
        let finite = [
            Point::new(0.0, 0.0),
            Point::new(0.0, 0.0),
            Point::new(0.5e-6, 0.0),
            Point::new(3.0, 4.0),
        ];
        let mut rng = Rng::seed_from_u64(0x1AF);
        for snap in [1e-6, 0.0, 5.0, inf, nan, 1e200] {
            for trial in 0..40 {
                let mut pts: Vec<Point> = finite.to_vec();
                for _ in 0..rng.random_range(1usize..12) {
                    // Non-finite points, some of them stacked.
                    pts.push(odd[rng.random_range(0..odd.len())]);
                }
                for i in (1..pts.len()).rev() {
                    pts.swap(i, rng.random_range(0..i + 1));
                }
                assert_matches_oracle(
                    &pts,
                    snap,
                    &format!("non-finite, snap {snap}, trial {trial}"),
                );
            }
        }
    }

    #[test]
    fn kept_order_matches_a_fresh_sort_over_random_moves() {
        let snap = t().snap;
        let mut rng = Rng::seed_from_u64(0x0DE5);
        for run in 0..20 {
            let n = rng.random_range(1usize..80);
            let mut scratch = CanonScratch::default();
            let mut pos = assert_matches_oracle(&scatter(&mut rng, n, 4.0), snap, "start");
            let mut order = Vec::new();
            lex_order_into(&pos, &mut order, &mut scratch);
            for step in 0..60 {
                let mut moved = pos.clone();
                for _ in 0..rng.random_range(0usize..4) {
                    let i = rng.random_range(0..n);
                    let j = rng.random_range(0..n);
                    moved[i] = match rng.random_range(0usize..4) {
                        // Onto another robot: stacks grow.
                        0 => pos[j],
                        // Next to one, inside the snap radius.
                        1 => Point::new(pos[j].x + 0.5 * snap, pos[j].y - 0.3 * snap),
                        // Off into the open: stacks split.
                        2 => Point::new(rng.random_range(-4.0..4.0), rng.random_range(-4.0..4.0)),
                        // Part way toward another robot.
                        _ => pos[i].lerp(pos[j], rng.random_range(0.0..1.0)),
                    };
                }
                let ctx = format!("run {run} step {step}");
                pos = kept_order_apply(&pos, &moved, &mut order, snap, &mut scratch, &ctx);
            }
        }
    }

    /// The configurations of the incremental path's former
    /// separation-invariant tests, through the kept-order protocol.
    #[test]
    fn kept_order_handles_stacks_satellites_and_chains() {
        let snap = 1e-6;
        let mut scratch = CanonScratch::default();
        let mut order = Vec::new();
        let mut apply = |prev: &[Point], moved: &[Point], ctx: &str| {
            if order.len() != prev.len() {
                lex_order_into(prev, &mut order, &mut scratch);
            }
            kept_order_apply(prev, moved, &mut order, snap, &mut scratch, ctx)
        };
        // A stack at the origin plus spread satellites.
        let start = vec![
            Point::new(0.0, 0.0),
            Point::new(0.0, 0.0),
            Point::new(0.0, 0.0),
            Point::new(3.0, 1.0),
            Point::new(-2.0, 4.0),
            Point::new(5.0, -5.0),
        ];
        let still = apply(&start, &start, "no movement");
        assert_eq!(still, start);
        // One satellite moves near another and snaps into a fresh cluster.
        let mut pts = still.clone();
        pts[3] = Point::new(-2.0, 4.0 + 0.5e-6);
        let snapped = apply(&still, &pts, "satellite joins satellite");
        assert_eq!(Configuration::new(snapped.clone()).distinct().len(), 3);
        // A robot leaves the stack.
        let mut pts = snapped.clone();
        pts[2] = Point::new(1.0, 1.0);
        let left = apply(&snapped, &pts, "robot leaves the stack");
        // And lands bitwise back on it.
        let mut pts = left.clone();
        pts[2] = Point::new(0.0, 0.0);
        apply(&left, &pts, "robot lands on the stack");

        // Chain through a mover: 0 and 1.6e-6 (> snap apart) merge once a
        // point lands between them.
        let chain_before = vec![
            Point::new(0.0, 0.0),
            Point::new(1.6e-6, 0.0),
            Point::new(9.0, 9.0),
            Point::new(9.0, 9.0),
        ];
        let mut chain = chain_before.clone();
        chain[2] = Point::new(0.8e-6, 0.0);
        let merged = apply(&chain_before, &chain, "chain through a mover");
        assert_eq!(Configuration::new(merged).distinct().len(), 2);
        // Every point moves at once.
        let shifted: Vec<Point> = chain.iter().map(|p| Point::new(p.x + 1.0, p.y)).collect();
        apply(&chain, &shifted, "all moved");

        // Distinct values within snap merge, bitwise duplicates and
        // separated values stay as they are, and the x window does not
        // hide a close pair that shares its x.
        let sep = vec![
            Point::new(0.0, 0.0),
            Point::new(0.0, 0.0),
            Point::new(1.0, 0.0),
            Point::new(0.0, 1.0),
        ];
        assert_eq!(assert_matches_oracle(&sep, snap, "separated"), sep);
        let close = vec![
            Point::new(0.0, 0.0),
            Point::new(0.5e-6, 0.0),
            Point::new(1.0, 0.0),
        ];
        let out = assert_matches_oracle(&close, snap, "close pair");
        assert_eq!(Configuration::new(out).distinct().len(), 2);
        let close_y = vec![Point::new(2.0, 0.0), Point::new(2.0, 0.5e-6)];
        let out = assert_matches_oracle(&close_y, snap, "close pair sharing x");
        assert_eq!(Configuration::new(out).distinct().len(), 1);
        assert!(assert_matches_oracle(&[], snap, "empty").is_empty());
    }

    /// Runs `f` on a thread with the default 2 MiB stack.
    fn on_small_stack(f: impl FnOnce() + Send + 'static) {
        std::thread::Builder::new()
            .stack_size(2 << 20)
            .spawn(f)
            .expect("spawn")
            .join()
            .expect("canonicalisation must not overflow a 2 MiB stack");
    }

    #[test]
    fn find_walks_long_chains_iteratively() {
        on_small_stack(|| {
            let n = 1_000_000;
            let mut parent: Vec<usize> = (1..=n).collect();
            parent[n - 1] = n - 1;
            assert_eq!(find(&mut parent, 0), n - 1);
            // Path halving shortened the walk for the next lookup.
            assert!(parent[0] > 1);
        });
    }

    #[test]
    fn million_robot_stack_canonicalises_on_a_small_stack() {
        on_small_stack(|| {
            let n = 1_000_000;
            let p = Point::new(0.1, -2.5);
            let stack = vec![p; n];
            let snap = t().snap;
            let mut scratch = CanonScratch::default();
            let mut full = Vec::new();
            canonicalize_into(&stack, snap, &mut scratch, &mut full);
            // The centroid of n copies rounds off `p` (the sum carries
            // error), but the stack stays one location near it.
            assert!(full.iter().all(|q| bitwise_eq(*q, full[0])));
            assert!(full[0].within(p, snap));

            // The kept-order path: a robot steps off the stack and one
            // lands next to it, merging it again.
            let mut order = Vec::new();
            lex_order_into(&full, &mut order, &mut scratch);
            let mut moved = full.clone();
            moved[17] = Point::new(4.0, 4.0);
            moved[n - 1] = Point::new(full[0].x + 0.5 * snap, full[0].y);
            let mut changed = Vec::new();
            gather_geom::soa::diff_indices(&full, &moved, &mut changed);
            lex_order_update(&moved, &changed, &mut order, &mut scratch);
            let mut kept = Vec::new();
            canonicalize_sorted_into(&moved, &order, snap, &mut scratch, &mut kept);
            let mut fresh = Vec::new();
            canonicalize_into(&moved, snap, &mut scratch, &mut fresh);
            assert_same_bits(&kept, &fresh, "1M stack, kept order");
            assert_eq!(Configuration::new(kept).distinct().len(), 2);
        });
    }

    #[test]
    fn display_shows_multiplicity() {
        let c = Configuration::new(vec![
            Point::new(0.0, 0.0),
            Point::new(0.0, 0.0),
            Point::new(1.0, 0.0),
        ]);
        let s = format!("{c}");
        assert!(s.contains("x2"), "{s}");
        assert!(s.contains("n=3"), "{s}");
    }
}
