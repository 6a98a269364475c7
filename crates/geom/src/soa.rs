//! Data-oriented point storage and chunked batch kernels.
//!
//! The hot loops of the suite — Weiszfeld iteration sums, distance
//! accumulation, farthest/containment scans, angle-key computation — walk
//! every robot position doing a few floating-point operations per point.
//! Stored as an array of [`Point`] structs, each iteration interleaves `x`
//! and `y` loads and a lane-crossing `hypot`; stored as two parallel `f64`
//! slices (structure of arrays), the same loops compile to straight-line
//! SIMD over the coordinate streams.
//!
//! [`PointBuffer`] is that storage. The kernels in this module operate on
//! its slices in fixed-size chunks with independent accumulator lanes, so
//! LLVM can vectorise them without any re-association licence (the lane
//! sums are combined in a fixed order, keeping results deterministic across
//! runs and thread counts). The scalar array-of-structs references the
//! kernels replace live in [`reference`](mod@reference); the seeded property tests and the
//! `b7_scaling` ablation hold the two within 1e-12 of each other.
//!
//! Kernels use `sqrt(dx² + dy²)` where the scalar paths used `hypot`:
//! coordinates in this suite are robot positions of moderate magnitude, so
//! the overflow protection `hypot` buys costs a libm call per point for no
//! benefit. The difference is below 1 ulp of the true distance for such
//! inputs and is covered by the property-test tolerance.

use crate::point::{Point, Vec2};

/// Number of independent accumulator lanes in the chunked kernels: four
/// `f64`s fill a 256-bit vector register.
const LANES: usize = 4;

/// Robot positions stored as two parallel coordinate arrays (structure of
/// arrays), the layout the batch kernels below consume.
///
/// # Example
///
/// ```
/// use gather_geom::{soa, Point, PointBuffer};
/// let buf = PointBuffer::from_points(&[Point::new(3.0, 4.0), Point::ORIGIN]);
/// assert_eq!(buf.len(), 2);
/// assert_eq!(buf.get(0), Point::new(3.0, 4.0));
/// assert_eq!(soa::sum_distances(&buf, Point::ORIGIN), 5.0);
/// ```
#[derive(Debug, Clone, Default)]
pub struct PointBuffer {
    xs: Vec<f64>,
    ys: Vec<f64>,
}

impl PointBuffer {
    /// An empty buffer.
    pub fn new() -> Self {
        PointBuffer::default()
    }

    /// An empty buffer with room for `n` points in each coordinate array.
    pub fn with_capacity(n: usize) -> Self {
        PointBuffer {
            xs: Vec::with_capacity(n),
            ys: Vec::with_capacity(n),
        }
    }

    /// A buffer holding a copy of `points`.
    pub fn from_points(points: &[Point]) -> Self {
        let mut buf = PointBuffer::with_capacity(points.len());
        buf.extend_from_points(points);
        buf
    }

    /// Number of points stored.
    pub fn len(&self) -> usize {
        self.xs.len()
    }

    /// Is the buffer empty?
    pub fn is_empty(&self) -> bool {
        self.xs.is_empty()
    }

    /// Removes all points, keeping the allocated capacity.
    pub fn clear(&mut self) {
        self.xs.clear();
        self.ys.clear();
    }

    /// Appends one point.
    pub fn push(&mut self, p: Point) {
        self.xs.push(p.x);
        self.ys.push(p.y);
    }

    /// Appends a slice of points (transposing into the coordinate arrays).
    pub fn extend_from_points(&mut self, points: &[Point]) {
        self.xs.reserve(points.len());
        self.ys.reserve(points.len());
        for p in points {
            self.xs.push(p.x);
            self.ys.push(p.y);
        }
    }

    /// Overwrites the buffer with `points`, reusing the existing capacity —
    /// the allocation-free resync the round loop performs each round.
    pub fn copy_from_points(&mut self, points: &[Point]) {
        self.clear();
        self.extend_from_points(points);
    }

    /// The point at index `i`.
    ///
    /// # Panics
    ///
    /// Panics if `i` is out of bounds.
    pub fn get(&self, i: usize) -> Point {
        Point::new(self.xs[i], self.ys[i])
    }

    /// Replaces the point at index `i`.
    ///
    /// # Panics
    ///
    /// Panics if `i` is out of bounds.
    pub fn set(&mut self, i: usize, p: Point) {
        self.xs[i] = p.x;
        self.ys[i] = p.y;
    }

    /// The `x` coordinates.
    pub fn xs(&self) -> &[f64] {
        &self.xs
    }

    /// The `y` coordinates.
    pub fn ys(&self) -> &[f64] {
        &self.ys
    }

    /// Both coordinate slices at once, for kernels over raw slices.
    pub fn as_slices(&self) -> (&[f64], &[f64]) {
        (&self.xs, &self.ys)
    }

    /// Writes the points back into an array-of-structs buffer (cleared
    /// first, capacity reused).
    pub fn gather_into(&self, out: &mut Vec<Point>) {
        out.clear();
        out.reserve(self.len());
        for i in 0..self.len() {
            out.push(Point::new(self.xs[i], self.ys[i]));
        }
    }

    /// Iterates over the stored points.
    pub fn iter_points(&self) -> impl Iterator<Item = Point> + '_ {
        self.xs
            .iter()
            .zip(self.ys.iter())
            .map(|(&x, &y)| Point::new(x, y))
    }
}

impl PartialEq for PointBuffer {
    fn eq(&self, other: &Self) -> bool {
        self.xs == other.xs && self.ys == other.ys
    }
}

impl FromIterator<Point> for PointBuffer {
    fn from_iter<I: IntoIterator<Item = Point>>(iter: I) -> Self {
        let mut buf = PointBuffer::new();
        for p in iter {
            buf.push(p);
        }
        buf
    }
}

/// Sums `LANES` partial accumulators in a fixed order, so kernel results do
/// not depend on how the optimiser schedules the lanes.
#[inline]
fn reduce(acc: [f64; LANES]) -> f64 {
    (acc[0] + acc[1]) + (acc[2] + acc[3])
}

/// Sum of Euclidean distances from `at` to every point of `buf` — the
/// batch form of [`crate::weber_objective`].
pub fn sum_distances(buf: &PointBuffer, at: Point) -> f64 {
    sum_distances_slices(buf.xs(), buf.ys(), at)
}

/// [`sum_distances`] over raw coordinate slices.
///
/// # Panics
///
/// Panics if the slices have different lengths.
pub fn sum_distances_slices(xs: &[f64], ys: &[f64], at: Point) -> f64 {
    assert_eq!(xs.len(), ys.len(), "coordinate slices of unequal length");
    let mut acc = [0.0f64; LANES];
    let chunks = xs.len() / LANES * LANES;
    for base in (0..chunks).step_by(LANES) {
        for lane in 0..LANES {
            let dx = xs[base + lane] - at.x;
            let dy = ys[base + lane] - at.y;
            acc[lane] += (dx * dx + dy * dy).sqrt();
        }
    }
    let mut tail = 0.0;
    for i in chunks..xs.len() {
        let dx = xs[i] - at.x;
        let dy = ys[i] - at.y;
        tail += (dx * dx + dy * dy).sqrt();
    }
    reduce(acc) + tail
}

/// The accumulated sums of one Weiszfeld iteration at `x` (see
/// [`weiszfeld_sums`]): everything the Vardi–Zhang update rule needs.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct WeiszfeldSums {
    /// `Σ p_i / d_i` over the far points, x component.
    pub num_x: f64,
    /// `Σ p_i / d_i` over the far points, y component.
    pub num_y: f64,
    /// `Σ 1 / d_i` over the far points.
    pub denom: f64,
    /// `Σ (p_i − x) / d_i` over the far points (the subgradient pull).
    pub pull_x: f64,
    /// `Σ (p_i − x) / d_i` over the far points, y component.
    pub pull_y: f64,
    /// Number of points with `d_i ≤ eps` (coincident with the iterate).
    pub coincident: usize,
}

impl WeiszfeldSums {
    /// The Weiszfeld update target `T(x) = num / denom`.
    ///
    /// # Panics
    ///
    /// Panics in debug builds if `denom` is zero.
    pub fn target(&self) -> Point {
        debug_assert!(self.denom != 0.0);
        Point::new(self.num_x / self.denom, self.num_y / self.denom)
    }

    /// The pull `R(x)` as a vector.
    pub fn pull(&self) -> Vec2 {
        Vec2::new(self.pull_x, self.pull_y)
    }
}

/// One Weiszfeld iteration's sums at the iterate `at`: for every point with
/// distance `d > eps` accumulate `p/d`, `1/d` and `(p − at)/d`; points
/// within `eps` are counted as coincident (the Vardi–Zhang mass at the
/// iterate). This is the hot inner loop of the Weber solver as a chunked
/// batch kernel.
pub fn weiszfeld_sums(buf: &PointBuffer, at: Point, eps: f64) -> WeiszfeldSums {
    weiszfeld_sums_slices(buf.xs(), buf.ys(), at, eps)
}

/// [`weiszfeld_sums`] over raw coordinate slices.
///
/// # Panics
///
/// Panics if the slices have different lengths.
pub fn weiszfeld_sums_slices(xs: &[f64], ys: &[f64], at: Point, eps: f64) -> WeiszfeldSums {
    assert_eq!(xs.len(), ys.len(), "coordinate slices of unequal length");
    let mut num_x = [0.0f64; LANES];
    let mut num_y = [0.0f64; LANES];
    let mut den = [0.0f64; LANES];
    let mut pull_x = [0.0f64; LANES];
    let mut pull_y = [0.0f64; LANES];
    let mut coincident = 0usize;
    let n = xs.len();
    let chunks = n / LANES * LANES;
    for base in (0..chunks).step_by(LANES) {
        for lane in 0..LANES {
            let px = xs[base + lane];
            let py = ys[base + lane];
            let dx = px - at.x;
            let dy = py - at.y;
            let d = (dx * dx + dy * dy).sqrt();
            // Branchless: far points get weight 1/d, coincident points get
            // weight 0 and bump the counter — a select, not a branch.
            let far = d > eps;
            let w = if far { d.recip() } else { 0.0 };
            coincident += usize::from(!far);
            num_x[lane] += px * w;
            num_y[lane] += py * w;
            den[lane] += w;
            pull_x[lane] += dx * w;
            pull_y[lane] += dy * w;
        }
    }
    let mut sums = WeiszfeldSums {
        num_x: reduce(num_x),
        num_y: reduce(num_y),
        denom: reduce(den),
        pull_x: reduce(pull_x),
        pull_y: reduce(pull_y),
        coincident,
    };
    for i in chunks..n {
        let px = xs[i];
        let py = ys[i];
        let dx = px - at.x;
        let dy = py - at.y;
        let d = (dx * dx + dy * dy).sqrt();
        if d > eps {
            let w = d.recip();
            sums.num_x += px * w;
            sums.num_y += py * w;
            sums.denom += w;
            sums.pull_x += dx * w;
            sums.pull_y += dy * w;
        } else {
            sums.coincident += 1;
        }
    }
    sums
}

/// Arithmetic mean of the stored points — the batch form of
/// [`crate::centroid`].
///
/// # Panics
///
/// Panics if the buffer is empty.
pub fn centroid(buf: &PointBuffer) -> Point {
    assert!(!buf.is_empty(), "centroid of an empty point set");
    let (xs, ys) = buf.as_slices();
    let mut sx = [0.0f64; LANES];
    let mut sy = [0.0f64; LANES];
    let chunks = xs.len() / LANES * LANES;
    for base in (0..chunks).step_by(LANES) {
        for lane in 0..LANES {
            sx[lane] += xs[base + lane];
            sy[lane] += ys[base + lane];
        }
    }
    let mut tx = reduce(sx);
    let mut ty = reduce(sy);
    for i in chunks..xs.len() {
        tx += xs[i];
        ty += ys[i];
    }
    let n = xs.len() as f64;
    Point::new(tx / n, ty / n)
}

/// The index and squared distance of the point farthest from `from` — the
/// containment/extent scan behind SEC verification, configuration extents
/// and the median far-point search. Ties resolve to the lowest index.
///
/// # Panics
///
/// Panics if the buffer is empty.
pub fn max_dist2(buf: &PointBuffer, from: Point) -> (usize, f64) {
    assert!(!buf.is_empty(), "farthest-point scan over an empty set");
    let (xs, ys) = buf.as_slices();
    let mut best = 0usize;
    let mut best_d2 = f64::NEG_INFINITY;
    for i in 0..xs.len() {
        let dx = xs[i] - from.x;
        let dy = ys[i] - from.y;
        let d2 = dx * dx + dy * dy;
        if d2 > best_d2 {
            best = i;
            best_d2 = d2;
        }
    }
    (best, best_d2)
}

/// The largest squared distance from `from` to any point whose mask entry
/// is `true` — the batched gathered-detection prefilter of lockstep
/// execution: with `from` an alive robot's position and `mask` the alive
/// set, `masked_max_dist2 <= snap²` is arithmetically identical to "every
/// alive robot is `within(from, snap)`" (both compare `dx·dx + dy·dy`
/// against `snap·snap`), so the prefilter is exact, not conservative.
/// Returns `f64::NEG_INFINITY` when no mask entry is set.
///
/// # Panics
///
/// Panics if the slices have different lengths.
pub fn masked_max_dist2(xs: &[f64], ys: &[f64], mask: &[bool], from: Point) -> f64 {
    assert_eq!(xs.len(), ys.len(), "coordinate slices of unequal length");
    assert_eq!(xs.len(), mask.len(), "coordinate slices of unequal length");
    let mut best = [f64::NEG_INFINITY; LANES];
    let chunks = xs.len() / LANES * LANES;
    for base in (0..chunks).step_by(LANES) {
        for lane in 0..LANES {
            let dx = xs[base + lane] - from.x;
            let dy = ys[base + lane] - from.y;
            // Branchless: masked-out points contribute NEG_INFINITY, which
            // never wins the max.
            let d2 = if mask[base + lane] {
                dx * dx + dy * dy
            } else {
                f64::NEG_INFINITY
            };
            best[lane] = best[lane].max(d2);
        }
    }
    let mut out = best[0].max(best[1]).max(best[2].max(best[3]));
    for i in chunks..xs.len() {
        if mask[i] {
            let dx = xs[i] - from.x;
            let dy = ys[i] - from.y;
            out = out.max(dx * dx + dy * dy);
        }
    }
    out
}

/// The unit-vector pull of the points strictly outside `zone` of `at`,
/// together with the count of points inside the zone — the Weber
/// subgradient prefilter scan of quasi-regularity detection as a batch
/// kernel. Points within `zone` (inclusive) contribute to the count and
/// not to the pull.
pub fn radial_pull(buf: &PointBuffer, at: Point, zone: f64) -> (Vec2, usize) {
    let (xs, ys) = buf.as_slices();
    let zone2 = zone * zone;
    let mut px = [0.0f64; LANES];
    let mut py = [0.0f64; LANES];
    let mut inside = 0usize;
    let chunks = xs.len() / LANES * LANES;
    for base in (0..chunks).step_by(LANES) {
        for lane in 0..LANES {
            let dx = xs[base + lane] - at.x;
            let dy = ys[base + lane] - at.y;
            let d2 = dx * dx + dy * dy;
            let out = d2 > zone2;
            let w = if out { d2.sqrt().recip() } else { 0.0 };
            inside += usize::from(!out);
            px[lane] += dx * w;
            py[lane] += dy * w;
        }
    }
    let mut pull = Vec2::new(reduce(px), reduce(py));
    for i in chunks..xs.len() {
        let dx = xs[i] - at.x;
        let dy = ys[i] - at.y;
        let d2 = dx * dx + dy * dy;
        if d2 > zone2 {
            let w = d2.sqrt().recip();
            pull.x += dx * w;
            pull.y += dy * w;
        } else {
            inside += 1;
        }
    }
    (pull, inside)
}

/// Direction angles (counter-clockwise from `+x`, normalised to `[0, 2π)`)
/// of every point farther than `zone` from `center`, appended to `out`
/// (cleared first, capacity reused) — the angle-sort key computation
/// feeding the classification's direction buckets.
///
/// Element-for-element identical to the scalar filter-and-`atan2` it
/// replaces; batching removes the per-call allocation and keeps the
/// distance filter in straight-line code (`atan2` itself stays a libm
/// call — there is no vector form to exploit).
pub fn angle_keys_into(buf: &PointBuffer, center: Point, zone: f64, out: &mut Vec<f64>) {
    let (xs, ys) = buf.as_slices();
    out.clear();
    let zone2 = zone * zone;
    for i in 0..xs.len() {
        let dx = xs[i] - center.x;
        let dy = ys[i] - center.y;
        if dx * dx + dy * dy > zone2 {
            out.push(crate::angle::normalize_tau(dy.atan2(dx)));
        }
    }
}

/// Indices at which `before` and `after` differ *bitwise*, appended to
/// `out` (cleared first, capacity reused) — the dirty-set extraction the
/// incremental re-analysis path runs after canonicalisation. Bitwise (not
/// tolerance) comparison is deliberate: the analysis memo keys on exact
/// coordinates, so any representational change, however small, must mark
/// the robot dirty.
///
/// # Panics
///
/// Panics if the slices have different lengths.
pub fn diff_indices(before: &[Point], after: &[Point], out: &mut Vec<usize>) {
    assert_eq!(before.len(), after.len(), "point slices of unequal length");
    out.clear();
    for i in 0..before.len() {
        if before[i].x.to_bits() != after[i].x.to_bits()
            || before[i].y.to_bits() != after[i].y.to_bits()
        {
            out.push(i);
        }
    }
}

/// [`weiszfeld_sums`] restricted to the points at `idx` — the dirty-gather
/// form used when only a subset of robots needs re-accumulation. Chunked
/// over the index list with the same fixed-order lane reduction as the
/// dense kernel.
///
/// # Panics
///
/// Panics if any index is out of bounds.
pub fn weiszfeld_sums_gather(
    buf: &PointBuffer,
    idx: &[usize],
    at: Point,
    eps: f64,
) -> WeiszfeldSums {
    let (xs, ys) = buf.as_slices();
    let mut num_x = [0.0f64; LANES];
    let mut num_y = [0.0f64; LANES];
    let mut den = [0.0f64; LANES];
    let mut pull_x = [0.0f64; LANES];
    let mut pull_y = [0.0f64; LANES];
    let mut coincident = 0usize;
    let chunks = idx.len() / LANES * LANES;
    for base in (0..chunks).step_by(LANES) {
        for lane in 0..LANES {
            let i = idx[base + lane];
            let px = xs[i];
            let py = ys[i];
            let dx = px - at.x;
            let dy = py - at.y;
            let d = (dx * dx + dy * dy).sqrt();
            let far = d > eps;
            let w = if far { d.recip() } else { 0.0 };
            coincident += usize::from(!far);
            num_x[lane] += px * w;
            num_y[lane] += py * w;
            den[lane] += w;
            pull_x[lane] += dx * w;
            pull_y[lane] += dy * w;
        }
    }
    let mut sums = WeiszfeldSums {
        num_x: reduce(num_x),
        num_y: reduce(num_y),
        denom: reduce(den),
        pull_x: reduce(pull_x),
        pull_y: reduce(pull_y),
        coincident,
    };
    for &i in &idx[chunks..] {
        let px = xs[i];
        let py = ys[i];
        let dx = px - at.x;
        let dy = py - at.y;
        let d = (dx * dx + dy * dy).sqrt();
        if d > eps {
            let w = d.recip();
            sums.num_x += px * w;
            sums.num_y += py * w;
            sums.denom += w;
            sums.pull_x += dx * w;
            sums.pull_y += dy * w;
        } else {
            sums.coincident += 1;
        }
    }
    sums
}

/// [`max_dist2`] restricted to the points at `idx`: the original point
/// index and squared distance of the farthest gathered point. Ties resolve
/// to the earliest position in `idx`.
///
/// # Panics
///
/// Panics if `idx` is empty or any index is out of bounds.
pub fn max_dist2_gather(buf: &PointBuffer, idx: &[usize], from: Point) -> (usize, f64) {
    assert!(!idx.is_empty(), "farthest-point scan over an empty set");
    let (xs, ys) = buf.as_slices();
    let mut best = idx[0];
    let mut best_d2 = f64::NEG_INFINITY;
    for &i in idx {
        let dx = xs[i] - from.x;
        let dy = ys[i] - from.y;
        let d2 = dx * dx + dy * dy;
        if d2 > best_d2 {
            best = i;
            best_d2 = d2;
        }
    }
    (best, best_d2)
}

/// [`angle_keys_into`] restricted to the points at `idx`, in `idx` order —
/// the dirty-gather form of the angle-sort key computation, used to
/// recompute keys for moved robots only.
///
/// # Panics
///
/// Panics if any index is out of bounds.
pub fn angle_keys_gather_into(
    buf: &PointBuffer,
    idx: &[usize],
    center: Point,
    zone: f64,
    out: &mut Vec<f64>,
) {
    let (xs, ys) = buf.as_slices();
    out.clear();
    let zone2 = zone * zone;
    for &i in idx {
        let dx = xs[i] - center.x;
        let dy = ys[i] - center.y;
        if dx * dx + dy * dy > zone2 {
            out.push(crate::angle::normalize_tau(dy.atan2(dx)));
        }
    }
}

/// Scalar array-of-structs reference implementations of every kernel in
/// this module — the code the kernels replaced, kept callable for the
/// seeded agreement property tests and the `b7_scaling` SoA-vs-AoS
/// ablation. Not used on any hot path.
pub mod reference {
    use super::WeiszfeldSums;
    use crate::point::{Point, Vec2};

    /// Scalar counterpart of [`super::sum_distances`] (`hypot`-based, as
    /// the original Weber objective).
    pub fn sum_distances(points: &[Point], at: Point) -> f64 {
        points.iter().map(|p| at.dist(*p)).sum()
    }

    /// Scalar counterpart of [`super::weiszfeld_sums`]: the original
    /// sequential Weiszfeld accumulation loop.
    pub fn weiszfeld_sums(points: &[Point], at: Point, eps: f64) -> WeiszfeldSums {
        let mut sums = WeiszfeldSums::default();
        for p in points {
            let d = at.dist(*p);
            if d <= eps {
                sums.coincident += 1;
                continue;
            }
            sums.num_x += p.x / d;
            sums.num_y += p.y / d;
            sums.denom += 1.0 / d;
            sums.pull_x += (p.x - at.x) / d;
            sums.pull_y += (p.y - at.y) / d;
        }
        sums
    }

    /// Scalar counterpart of [`super::centroid`].
    ///
    /// # Panics
    ///
    /// Panics if `points` is empty.
    pub fn centroid(points: &[Point]) -> Point {
        crate::point::centroid(points)
    }

    /// Scalar counterpart of [`super::max_dist2`].
    ///
    /// # Panics
    ///
    /// Panics if `points` is empty.
    pub fn max_dist2(points: &[Point], from: Point) -> (usize, f64) {
        assert!(!points.is_empty(), "farthest-point scan over an empty set");
        let mut best = (0usize, f64::NEG_INFINITY);
        for (i, p) in points.iter().enumerate() {
            let d2 = from.dist2(*p);
            if d2 > best.1 {
                best = (i, d2);
            }
        }
        best
    }

    /// Scalar counterpart of [`super::masked_max_dist2`].
    pub fn masked_max_dist2(points: &[Point], mask: &[bool], from: Point) -> f64 {
        assert_eq!(points.len(), mask.len(), "mask of unequal length");
        points
            .iter()
            .zip(mask)
            .filter(|(_, &m)| m)
            .map(|(p, _)| from.dist2(*p))
            .fold(f64::NEG_INFINITY, f64::max)
    }

    /// Scalar counterpart of [`super::radial_pull`]: the original
    /// quasi-regularity prefilter loop.
    pub fn radial_pull(points: &[Point], at: Point, zone: f64) -> (Vec2, usize) {
        let mut pull = Vec2::ZERO;
        let mut inside = 0usize;
        for q in points {
            if q.within(at, zone) {
                inside += 1;
            } else {
                pull += (*q - at).normalized();
            }
        }
        (pull, inside)
    }

    /// Scalar counterpart of [`super::angle_keys_into`].
    pub fn angle_keys_into(points: &[Point], center: Point, zone: f64, out: &mut Vec<f64>) {
        out.clear();
        out.extend(
            points
                .iter()
                .filter(|p| !p.within(center, zone))
                .map(|p| crate::angle::normalize_tau((*p - center).angle())),
        );
    }

    /// Scalar counterpart of [`super::diff_indices`].
    pub fn diff_indices(before: &[Point], after: &[Point], out: &mut Vec<usize>) {
        assert_eq!(before.len(), after.len(), "point slices of unequal length");
        out.clear();
        out.extend((0..before.len()).filter(|&i| {
            before[i].x.to_bits() != after[i].x.to_bits()
                || before[i].y.to_bits() != after[i].y.to_bits()
        }));
    }

    /// Scalar counterpart of [`super::weiszfeld_sums_gather`]: the dense
    /// scalar loop over the gathered subset.
    pub fn weiszfeld_sums_gather(
        points: &[Point],
        idx: &[usize],
        at: Point,
        eps: f64,
    ) -> WeiszfeldSums {
        let subset: Vec<Point> = idx.iter().map(|&i| points[i]).collect();
        weiszfeld_sums(&subset, at, eps)
    }

    /// Scalar counterpart of [`super::max_dist2_gather`].
    ///
    /// # Panics
    ///
    /// Panics if `idx` is empty.
    pub fn max_dist2_gather(points: &[Point], idx: &[usize], from: Point) -> (usize, f64) {
        assert!(!idx.is_empty(), "farthest-point scan over an empty set");
        let mut best = (idx[0], f64::NEG_INFINITY);
        for &i in idx {
            let d2 = from.dist2(points[i]);
            if d2 > best.1 {
                best = (i, d2);
            }
        }
        best
    }

    /// Scalar counterpart of [`super::angle_keys_gather_into`].
    pub fn angle_keys_gather_into(
        points: &[Point],
        idx: &[usize],
        center: Point,
        zone: f64,
        out: &mut Vec<f64>,
    ) {
        out.clear();
        out.extend(
            idx.iter()
                .map(|&i| points[i])
                .filter(|p| !p.within(center, zone))
                .map(|p| crate::angle::normalize_tau((p - center).angle())),
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn scatter(n: usize, seed: u64) -> Vec<Point> {
        let mut state = seed.wrapping_mul(0x9E3779B97F4A7C15) | 1;
        let mut next = || {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            ((state >> 16) % 2_000) as f64 / 100.0 - 10.0
        };
        (0..n).map(|_| Point::new(next(), next())).collect()
    }

    #[test]
    fn buffer_roundtrips_points() {
        let pts = scatter(13, 7);
        let buf = PointBuffer::from_points(&pts);
        assert_eq!(buf.len(), 13);
        let mut back = Vec::new();
        buf.gather_into(&mut back);
        assert_eq!(back, pts);
        assert_eq!(buf.iter_points().collect::<Vec<_>>(), pts);
        for (i, p) in pts.iter().enumerate() {
            assert_eq!(buf.get(i), *p);
        }
    }

    #[test]
    fn buffer_mutation_and_reuse() {
        let mut buf = PointBuffer::from_points(&scatter(5, 1));
        buf.set(2, Point::new(9.0, -9.0));
        assert_eq!(buf.get(2), Point::new(9.0, -9.0));
        let fresh = scatter(3, 2);
        buf.copy_from_points(&fresh);
        assert_eq!(buf.len(), 3);
        assert_eq!(buf.get(0), fresh[0]);
        buf.clear();
        assert!(buf.is_empty());
        buf.push(Point::ORIGIN);
        assert_eq!(buf.len(), 1);
    }

    #[test]
    fn buffer_equality_and_collect() {
        let pts = scatter(6, 3);
        let a = PointBuffer::from_points(&pts);
        let b: PointBuffer = pts.iter().copied().collect();
        assert_eq!(a, b);
        let c = PointBuffer::from_points(&scatter(6, 4));
        assert_ne!(a, c);
    }

    #[test]
    fn sum_distances_matches_reference_across_sizes() {
        for n in [0, 1, 3, 4, 5, 8, 17, 64] {
            let pts = scatter(n, n as u64 + 1);
            let buf = PointBuffer::from_points(&pts);
            let at = Point::new(0.3, -0.7);
            let batch = sum_distances(&buf, at);
            let scalar = reference::sum_distances(&pts, at);
            assert!(
                (batch - scalar).abs() <= 1e-12 * (1.0 + scalar.abs()),
                "n={n}: {batch} vs {scalar}"
            );
        }
    }

    #[test]
    fn weiszfeld_sums_match_reference() {
        for n in [1, 4, 7, 33] {
            let mut pts = scatter(n, 11 + n as u64);
            // Force coincident mass at the iterate.
            let at = pts[0];
            pts.push(at);
            let buf = PointBuffer::from_points(&pts);
            let batch = weiszfeld_sums(&buf, at, 1e-9);
            let scalar = reference::weiszfeld_sums(&pts, at, 1e-9);
            assert_eq!(batch.coincident, scalar.coincident);
            for (a, b) in [
                (batch.num_x, scalar.num_x),
                (batch.num_y, scalar.num_y),
                (batch.denom, scalar.denom),
                (batch.pull_x, scalar.pull_x),
                (batch.pull_y, scalar.pull_y),
            ] {
                assert!(
                    (a - b).abs() <= 1e-12 * (1.0 + b.abs()),
                    "n={n}: {a} vs {b}"
                );
            }
        }
    }

    #[test]
    fn weiszfeld_sums_target_and_pull_accessors() {
        let pts = scatter(9, 42);
        let buf = PointBuffer::from_points(&pts);
        let s = weiszfeld_sums(&buf, Point::ORIGIN, 1e-12);
        let t = s.target();
        assert!(t.x.is_finite() && t.y.is_finite());
        assert_eq!(s.pull(), Vec2::new(s.pull_x, s.pull_y));
    }

    #[test]
    fn centroid_and_max_dist2_match_reference() {
        for n in [1, 2, 4, 9, 31] {
            let pts = scatter(n, 5 + n as u64);
            let buf = PointBuffer::from_points(&pts);
            let c = centroid(&buf);
            let cr = reference::centroid(&pts);
            assert!(c.dist(cr) <= 1e-12 * (1.0 + cr.to_vec().norm()));
            let from = Point::new(1.0, 2.0);
            assert_eq!(max_dist2(&buf, from), reference::max_dist2(&pts, from));
        }
    }

    #[test]
    fn masked_max_dist2_matches_reference_bitwise() {
        for n in [0, 1, 3, 4, 5, 9, 17, 40] {
            let pts = scatter(n, 31 + n as u64);
            let mask: Vec<bool> = (0..n).map(|i| i % 3 != 1).collect();
            let buf = PointBuffer::from_points(&pts);
            let from = Point::new(-0.4, 1.3);
            let batch = masked_max_dist2(buf.xs(), buf.ys(), &mask, from);
            let scalar = reference::masked_max_dist2(&pts, &mask, from);
            // Same per-element `dx·dx + dy·dy` and a max-reduction (order
            // free): bitwise identical.
            assert!(
                batch == scalar || (batch.is_infinite() && scalar.is_infinite()),
                "n={n}: {batch} vs {scalar}"
            );
        }
        // All-masked-out yields the neutral element.
        let pts = scatter(6, 77);
        let buf = PointBuffer::from_points(&pts);
        assert_eq!(
            masked_max_dist2(buf.xs(), buf.ys(), &[false; 6], Point::ORIGIN),
            f64::NEG_INFINITY
        );
    }

    #[test]
    fn radial_pull_matches_reference() {
        let mut pts = scatter(20, 99);
        pts.push(Point::new(0.0, 0.0));
        pts.push(Point::new(0.05, 0.0)); // inside the zone below
        let buf = PointBuffer::from_points(&pts);
        let (pull, inside) = radial_pull(&buf, Point::ORIGIN, 0.1);
        let (pull_r, inside_r) = reference::radial_pull(&pts, Point::ORIGIN, 0.1);
        assert_eq!(inside, inside_r);
        assert!((pull - pull_r).norm() <= 1e-12 * (1.0 + pull_r.norm()));
    }

    #[test]
    fn angle_keys_match_reference_bitwise() {
        let pts = scatter(25, 123);
        let buf = PointBuffer::from_points(&pts);
        let center = Point::new(0.5, 0.5);
        let (mut batch, mut scalar) = (Vec::new(), Vec::new());
        angle_keys_into(&buf, center, 0.4, &mut batch);
        reference::angle_keys_into(&pts, center, 0.4, &mut scalar);
        // Same filter, same per-element ops: bitwise identical.
        assert_eq!(batch, scalar);
    }

    /// A deterministic index subset of `0..n`, roughly every third index,
    /// plus the endpoints when present.
    fn subset(n: usize) -> Vec<usize> {
        let mut idx: Vec<usize> = (0..n).filter(|i| i % 3 != 1).collect();
        if n > 0 && !idx.contains(&(n - 1)) {
            idx.push(n - 1);
        }
        idx
    }

    #[test]
    fn diff_indices_finds_bitwise_changes_only() {
        let before = scatter(12, 9);
        let mut after = before.clone();
        after[3] = Point::new(f64::from_bits(after[3].x.to_bits() ^ 1), after[3].y);
        after[7] = Point::new(after[7].x, -after[7].y);
        let mut got = Vec::new();
        diff_indices(&before, &after, &mut got);
        assert_eq!(got, vec![3, 7]);
        let mut scalar = Vec::new();
        reference::diff_indices(&before, &after, &mut scalar);
        assert_eq!(got, scalar);
        // Identical slices: empty diff, buffer reused.
        diff_indices(&before, &before, &mut got);
        assert!(got.is_empty());
        // -0.0 differs from 0.0 bitwise and must be reported.
        let a = [Point::new(0.0, 1.0)];
        let b = [Point::new(-0.0, 1.0)];
        diff_indices(&a, &b, &mut got);
        assert_eq!(got, vec![0]);
    }

    #[test]
    fn weiszfeld_sums_gather_matches_reference() {
        for n in [0usize, 1, 4, 7, 19, 40] {
            let mut pts = scatter(n, 51 + n as u64);
            if n > 0 {
                let at = pts[0];
                pts.push(at); // coincident mass inside the subset
            }
            let idx = subset(pts.len());
            let buf = PointBuffer::from_points(&pts);
            let at = if pts.is_empty() {
                Point::ORIGIN
            } else {
                pts[0]
            };
            let batch = weiszfeld_sums_gather(&buf, &idx, at, 1e-9);
            let scalar = reference::weiszfeld_sums_gather(&pts, &idx, at, 1e-9);
            assert_eq!(batch.coincident, scalar.coincident, "n={n}");
            for (a, b) in [
                (batch.num_x, scalar.num_x),
                (batch.num_y, scalar.num_y),
                (batch.denom, scalar.denom),
                (batch.pull_x, scalar.pull_x),
                (batch.pull_y, scalar.pull_y),
            ] {
                assert!(
                    (a - b).abs() <= 1e-12 * (1.0 + b.abs()),
                    "n={n}: {a} vs {b}"
                );
            }
        }
    }

    #[test]
    fn max_dist2_gather_matches_reference_and_full_scan() {
        for n in [1usize, 2, 5, 9, 33] {
            let pts = scatter(n, 61 + n as u64);
            let buf = PointBuffer::from_points(&pts);
            let from = Point::new(0.2, -0.9);
            let idx = subset(n);
            assert_eq!(
                max_dist2_gather(&buf, &idx, from),
                reference::max_dist2_gather(&pts, &idx, from),
                "n={n}"
            );
            // The all-indices gather is the dense scan.
            let all: Vec<usize> = (0..n).collect();
            assert_eq!(max_dist2_gather(&buf, &all, from), max_dist2(&buf, from));
        }
    }

    #[test]
    fn angle_keys_gather_matches_reference_bitwise() {
        let pts = scatter(25, 321);
        let buf = PointBuffer::from_points(&pts);
        let center = Point::new(0.5, 0.5);
        let idx = subset(pts.len());
        let (mut batch, mut scalar) = (Vec::new(), Vec::new());
        angle_keys_gather_into(&buf, &idx, center, 0.4, &mut batch);
        reference::angle_keys_gather_into(&pts, &idx, center, 0.4, &mut scalar);
        assert_eq!(batch, scalar);
        // The all-indices gather is the dense kernel, bitwise.
        let all: Vec<usize> = (0..pts.len()).collect();
        let mut dense = Vec::new();
        angle_keys_into(&buf, center, 0.4, &mut dense);
        angle_keys_gather_into(&buf, &all, center, 0.4, &mut batch);
        assert_eq!(batch, dense);
    }

    #[test]
    #[should_panic(expected = "unequal length")]
    fn mismatched_slices_panic() {
        let _ = sum_distances_slices(&[0.0, 1.0], &[0.0], Point::ORIGIN);
    }

    #[test]
    #[should_panic(expected = "empty")]
    fn centroid_of_empty_buffer_panics() {
        let _ = centroid(&PointBuffer::new());
    }
}
