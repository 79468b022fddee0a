#ifndef SCGUARD_REACHABILITY_KERNEL_H_
#define SCGUARD_REACHABILITY_KERNEL_H_

#include <cmath>
#include <cstddef>
#include <cstdint>
#include <limits>
#include <vector>

#include "reachability/model.h"

namespace scguard::reachability {

/// Evaluation-kernel knobs for the protocol hot path (engine U2U filter and
/// U2E ranking). Both paths are exact: the threshold filter makes
/// bit-identical assignment decisions, and the U2E ranking certifies its
/// lazily scored contacts with margin-padded lattice bounds (DESIGN.md
/// sections 8 and 10).
struct KernelOptions {
  /// Probability margin separating the certain-accept / certain-reject
  /// regions from the direct-evaluation band of the threshold filter, and
  /// padding every U2E lattice upper bound. Must dominate the model's own
  /// evaluation noise in both d and r (ulp-level for the closed forms);
  /// the default leaves nine decades of headroom.
  double threshold_margin = 1e-9;
};

/// The alpha filter for one (stage, alpha, reach_radius), inverted into
/// distance space. The decision contract, relied on for bit-identical
/// engine output:
///   d_sq <= accept_below_sq  =>  ProbReachable(stage, d, r) >= alpha
///   d_sq >= reject_above_sq  =>  ProbReachable(stage, d, r) <  alpha
/// where `d` is the rounded Euclidean distance (std::hypot) whose square
/// `d_sq` approximates; the squared bounds carry enough slack that hypot
/// rounding can never move a point across a certain region. Distances in
/// the open band between the two bounds must be resolved by one direct
/// model evaluation. The band is a few nanometres wide for an on-lattice
/// closed-form radius, under a meter between lattice nodes, at most the
/// non-monotone bucket range for empirical tables, and everything for a
/// model that declares no monotonicity.
struct AlphaThreshold {
  double accept_below_m = -1.0;   ///< d <= this => candidate. < 0: none.
  double reject_above_m = 0.0;    ///< d >= this => not a candidate.
  double accept_below_sq = -1.0;  ///< Squared-space accept bound (slacked).
  double reject_above_sq = 0.0;   ///< Squared-space reject bound (slacked).
};

/// Certain bounds of the alpha filter per reach radius. Because
/// ProbReachable is monotone non-increasing in the observed distance (the
/// geo-indistinguishability threshold trick of Andres et al., CCS'13),
/// `p >= alpha` is a critical-distance compare. Construction is per-model:
///  * BinaryModel: d* = R exactly, no search, per radius.
///  * EmpiricalModel: the probability is constant per observed-distance
///    bucket, so the accept set is read off the bucket row of each radius
///    exactly — no monotonicity assumption; a non-monotone middle range
///    stays in the direct-evaluation band.
///  * A model declaring Monotone(stage) (the Gaussian analytical modes):
///    bisection to the alpha -/+ margin levels, but only at radius nodes
///    1 m apart, memoized in a dense array filled on first use. A radius
///    r in [r_k, r_k+1] takes its accept bound from node r_k and its reject
///    bound from node r_k+1: p is non-decreasing in r, so
///    p(d, r) >= p(d, r_k) >= alpha + margin on the accept side and
///    p(d, r) <= p(d, r_k+1) <= alpha - margin on the reject side, with the
///    margin absorbing ulp-level non-monotonicity in r exactly as it does
///    in d. A radius on a node uses that node for both bounds, which are
///    then the per-radius inversion itself. Radii off the lattice (NaN,
///    +-inf, <= 0, past kMaxRadiusM) are inverted individually, so a node
///    index is never computed from them.
///  * Any other model: no certain regions (accept_below_sq = -1,
///    reject_above_sq = +inf); every decision is a direct evaluation.
///
/// Not thread-safe (lazy node fills); use one instance per thread or run.
class AlphaThresholdCache {
 public:
  /// Lattice extent, meters; nodes sit on every whole meter up to it.
  static constexpr double kMaxRadiusM = 20000.0;

  /// `model` must outlive the cache. Requires alpha in (0, 1].
  AlphaThresholdCache(const ReachabilityModel* model, Stage stage,
                      double alpha, double margin = 1e-9);

  /// Certain bounds valid at this radius (see the class comment).
  AlphaThreshold For(double reach_radius_m);

  /// Exactly `model->ProbReachable(stage, d, r) >= alpha`, via the
  /// threshold compare plus one direct evaluation in the band.
  bool IsCandidate(double observed_distance_m, double reach_radius_m);

  /// Band resolutions that required a direct model call (test support).
  int64_t exact_evals() const { return exact_evals_; }
  /// Lattice nodes inverted so far.
  int64_t nodes_bisected() const { return nodes_bisected_; }

  const ReachabilityModel* model() const { return model_; }
  Stage stage() const { return stage_; }
  double alpha() const { return alpha_; }

 private:
  enum class Inversion { kBinary, kEmpirical, kLattice, kNone };

  /// The exact inversion of one radius (any model but kNone).
  AlphaThreshold Invert(double reach_radius_m) const;
  /// Lattice node `k` (radius k meters), inverted on first use.
  const AlphaThreshold& Node(size_t k);

  const ReachabilityModel* model_;
  Stage stage_;
  double alpha_;
  double margin_;
  Inversion inversion_;
  int64_t exact_evals_ = 0;
  int64_t nodes_bisected_ = 0;
  /// Lattice nodes, grown to the highest index used; a NaN
  /// reject_above_m marks a node not yet inverted.
  std::vector<AlphaThreshold> nodes_;
};

/// Upper bounds on U2E reachability from a memoized lattice of exact
/// evaluations (DESIGN.md section 10). For a model that declares
/// Monotone(kU2E), Pr(reachable | d, r) is at most its value at the lattice
/// corner below d and above r:
///   UpperBound(d, r) = ProbReachable(kU2E, d_lo, r_hi) + margin
/// where d_lo <= d and r_hi >= r are the nearest nodes, kStepM apart; the
/// margin absorbs the ulp-level non-monotonicity of the closed forms. A
/// node is evaluated the first time a bound needs it, so a workload pays
/// one evaluation per distinct corner it touches. Outside the lattice — a
/// NaN or negative distance, one past kMaxDistanceM, a NaN, non-positive
/// or larger-than-kMaxRadiusM radius — the bound is the trivial 1.0.
///
/// Not thread-safe (lazy fills); run-local like AlphaThresholdCache.
class U2eBoundLattice {
 public:
  /// Node spacing along both axes, meters.
  static constexpr double kStepM = 25.0;
  /// Lattice extent, meters.
  static constexpr double kMaxDistanceM = 20000.0;
  static constexpr double kMaxRadiusM = 5000.0;

  /// `model` must outlive the lattice and declare Monotone(kU2E).
  U2eBoundLattice(const ReachabilityModel* model, double margin);

  /// >= model->ProbReachable(Stage::kU2E, d, r) for every d >= 0, r >= 0.
  double UpperBound(double observed_distance_m, double reach_radius_m) {
    const double d = observed_distance_m;
    const double r = reach_radius_m;
    if (!(d >= 0.0 && d <= kMaxDistanceM && r > 0.0 && r <= kMaxRadiusM)) {
      return 1.0;
    }
    // Multiplying by the inexact 1/25 may land one node off; each
    // correction restores d_lo <= d and r_hi >= r.
    auto i = static_cast<size_t>(d * kInvStep);
    if (static_cast<double>(i) * kStepM > d) --i;
    auto j = static_cast<size_t>(r * kInvStep);
    if (static_cast<double>(j) * kStepM < r) ++j;
    std::vector<double>& row = rows_[j];
    if (row.empty()) row.assign(kDistanceNodes, kUnfilled);
    double& node = row[i];
    if (std::isnan(node)) node = Fill(i, j);
    return node + margin_;
  }

  /// Nodes evaluated so far.
  int64_t nodes_filled() const { return nodes_filled_; }

 private:
  static constexpr double kInvStep = 1.0 / kStepM;
  static constexpr size_t kDistanceNodes =
      static_cast<size_t>(kMaxDistanceM / kStepM) + 1;
  static constexpr double kUnfilled = std::numeric_limits<double>::quiet_NaN();

  double Fill(size_t i, size_t j);

  const ReachabilityModel* model_;
  double margin_;
  int64_t nodes_filled_ = 0;
  /// One row of distance nodes per radius node, allocated on first use;
  /// kUnfilled marks a node not yet evaluated.
  std::vector<std::vector<double>> rows_;
};

/// Structure-of-arrays snapshot of the per-worker state the U2U filter
/// touches, so the per-task scan is cache-linear instead of striding
/// Worker structs. `accept_below_sq` / `reject_above_sq` hold each
/// worker's AlphaThreshold bounds once U2uCandidateStage::Prepare ran.
struct WorkerFilterSoA {
  std::vector<double> x;               ///< Noisy location east, meters.
  std::vector<double> y;               ///< Noisy location north, meters.
  std::vector<double> reach_radius_m;
  std::vector<double> accept_below_sq;
  std::vector<double> reject_above_sq;
  std::vector<uint8_t> matched;        ///< 1 once assigned.

  void Resize(size_t n) {
    x.resize(n);
    y.resize(n);
    reach_radius_m.resize(n);
    matched.assign(n, 0);
  }
  size_t size() const { return x.size(); }
};

/// Branch-free certain-band classification of the U2U alpha filter over a
/// list of worker indices (DESIGN.md section 9): each index i is trichotomized
/// by comparing the squared distance from (task_x, task_y) to the worker's
/// noisy location against the precomputed per-worker certain bounds:
///  * accept: d_sq <= soa.accept_below_sq[i]   (certain candidate),
///  * band:   strictly between the two bounds  (one direct eval needed),
///  * reject: d_sq >= soa.reject_above_sq[i]   (dropped).
/// Both outputs preserve the input order (ascending input => ascending
/// output). Dispatches once per process through a CPUID check (DESIGN.md
/// §11) to the widest available implementation — currently the explicit
/// 4-lane AVX2 kernel on x86-64 hosts that support it — with the scalar
/// loop as the bit-identical fallback everywhere else. Requires
/// soa.accept_below_sq / soa.reject_above_sq to be filled for every listed
/// index.
void ClassifyCertainBand(const WorkerFilterSoA& soa, const uint32_t* indices,
                         size_t count, double task_x, double task_y,
                         std::vector<uint32_t>& accept,
                         std::vector<uint32_t>& band);

/// The portable reference implementation: a fixed-trip-count pass over the
/// contiguous SoA arrays with unconditional slot writes + predicated
/// increments (no data-dependent branches), so compilers can vectorize it.
/// Compiled at the baseline target (no FMA contraction), which pins the
/// rounding of d_sq = dx*dx + dy*dy — the bit-identity anchor every SIMD
/// variant is verified against.
void ClassifyCertainBandScalar(const WorkerFilterSoA& soa,
                               const uint32_t* indices, size_t count,
                               double task_x, double task_y,
                               std::vector<uint32_t>& accept,
                               std::vector<uint32_t>& band);

#if defined(SCGUARD_HAVE_AVX2)
/// Explicit 4-lane AVX2 kernel (kernel_avx2.cc, the only TU built with
/// -mavx2): gathers x/y/bounds through the index vector, evaluates the
/// trichotomy as explicit mul/mul/add (never FMA — -mavx2 does not enable
/// it — so lane rounding equals the scalar loop's), and left-packs
/// surviving lane indices with a shuffle LUT. Bit-identical outputs to
/// ClassifyCertainBandScalar for any input; only callable on AVX2 CPUs.
/// Worker indices must be < 2^31 (vpgatherdpd treats them as signed).
void ClassifyCertainBandAvx2(const WorkerFilterSoA& soa,
                             const uint32_t* indices, size_t count,
                             double task_x, double task_y,
                             std::vector<uint32_t>& accept,
                             std::vector<uint32_t>& band);
#endif  // SCGUARD_HAVE_AVX2

/// Cell-major rows of the scoring-side worker state (DESIGN.md §13): the
/// same per-worker columns the U2U filter reads, laid out in a GridIndex's
/// CSR cell order (including the per-slice headroom rows), so a cell's
/// members are one contiguous run instead of a scattered gather through
/// `indices`. `id` maps each row back to the engine worker index;
/// `expanded_r` is the pruner's expanded rectangle radius, read by the
/// grid's rectangle certificates and by boundary cells that fuse the
/// rectangle admission test with the band classification;
/// `reach_radius_m` is the worker's own reach radius, read by the U2E cell
/// bound. Rows outside the owning index's live slices are headroom with
/// unspecified contents. Owned by index::GridIndex, which stores its
/// members in exactly these columns.
struct CellMajorMirror {
  std::vector<uint32_t> id;
  std::vector<double> x;
  std::vector<double> y;
  std::vector<double> expanded_r;
  std::vector<double> accept_below_sq;
  std::vector<double> reject_above_sq;
  std::vector<double> reach_radius_m;

  /// Calls fn(column) for each of the seven columns.
  template <typename Fn>
  void ForEachColumn(Fn&& fn) {
    fn(id);
    fn(x);
    fn(y);
    fn(expanded_r);
    fn(accept_below_sq);
    fn(reject_above_sq);
    fn(reach_radius_m);
  }
  void Resize(size_t n) {
    ForEachColumn([n](auto& column) { column.resize(n); });
  }
  void Reserve(size_t n) {
    ForEachColumn([n](auto& column) { column.reserve(n); });
  }
  size_t size() const { return id.size(); }
};

/// ClassifyCertainBand over the contiguous mirror rows [begin, begin+count)
/// instead of a gathered index list: same trichotomy, same rounding (no
/// FMA), but every load is sequential. **Appends** the surviving rows' `id`
/// values to `accept` / `band` (existing contents are preserved — the
/// mirror path accumulates several cells into one output), in row order,
/// which for a live index slice is ascending id order. Dispatches through
/// the same CPUID mechanism as ClassifyCertainBand; bit-identical decisions
/// to running the scalar gather loop over the same workers.
void ClassifyCertainBandRange(const CellMajorMirror& m, size_t begin,
                              size_t count, double task_x, double task_y,
                              std::vector<uint32_t>& accept,
                              std::vector<uint32_t>& band);

/// Range classification for *boundary* cells: fuses the per-member pruner
/// rectangle admission test — bit-identical to GridIndex::Query's
/// `(x - er <= q.max_x) & (q.min_x <= x + er) & (y - er <= q.max_y) &
/// (q.min_y <= y + er)` member test, reading `expanded_r` — with the alpha
/// trichotomy, so rectangle-rejected members never produce a d_sq
/// classification. Appends like ClassifyCertainBandRange and returns the
/// number of rows the rectangle admitted (the gather path's "scanned"
/// contribution for the cell). The query box is passed as four doubles to
/// keep the kernel layer free of geo types.
size_t ClassifyCertainBandRangeRect(const CellMajorMirror& m, size_t begin,
                                    size_t count, double task_x,
                                    double task_y, double q_min_x,
                                    double q_min_y, double q_max_x,
                                    double q_max_y,
                                    std::vector<uint32_t>& accept,
                                    std::vector<uint32_t>& band);

/// Portable reference implementations (bit-identity anchors; same
/// unconditional-write/predicated-increment discipline as
/// ClassifyCertainBandScalar).
void ClassifyCertainBandRangeScalar(const CellMajorMirror& m, size_t begin,
                                    size_t count, double task_x,
                                    double task_y,
                                    std::vector<uint32_t>& accept,
                                    std::vector<uint32_t>& band);
size_t ClassifyCertainBandRangeRectScalar(
    const CellMajorMirror& m, size_t begin, size_t count, double task_x,
    double task_y, double q_min_x, double q_min_y, double q_max_x,
    double q_max_y, std::vector<uint32_t>& accept, std::vector<uint32_t>& band);

#if defined(SCGUARD_HAVE_AVX2)
/// 4-lane AVX2 range variants (kernel_avx2.cc): contiguous _mm256_loadu_pd
/// column loads replace the index gathers, ids left-pack through the same
/// shuffle LUT as ClassifyCertainBandAvx2. Bit-identical outputs to the
/// scalar range loops; only callable on AVX2 CPUs.
void ClassifyCertainBandRangeAvx2(const CellMajorMirror& m, size_t begin,
                                  size_t count, double task_x, double task_y,
                                  std::vector<uint32_t>& accept,
                                  std::vector<uint32_t>& band);
size_t ClassifyCertainBandRangeRectAvx2(
    const CellMajorMirror& m, size_t begin, size_t count, double task_x,
    double task_y, double q_min_x, double q_min_y, double q_max_x,
    double q_max_y, std::vector<uint32_t>& accept, std::vector<uint32_t>& band);
#endif  // SCGUARD_HAVE_AVX2

/// Which ClassifyCertainBand implementation the dispatcher resolves to.
enum class ClassifySimd { kScalar, kAvx2 };

/// True when the running CPU reports AVX2 (always false off x86).
bool CpuSupportsAvx2();

/// The implementation the next ClassifyCertainBand call will run (resolves
/// the lazy CPUID dispatch if it has not happened yet).
ClassifySimd ActiveClassifySimd();

/// Forces the dispatch (test/bench support). Requests for kAvx2 fall back
/// to scalar when the binary or CPU lacks AVX2 — check ActiveClassifySimd
/// afterwards. Not synchronized against in-flight ClassifyCertainBand
/// calls; switch only between scans.
void SetClassifySimd(ClassifySimd simd);

/// Restores CPUID auto-dispatch after a SetClassifySimd override.
void ResetClassifySimd();

}  // namespace scguard::reachability

#endif  // SCGUARD_REACHABILITY_KERNEL_H_
