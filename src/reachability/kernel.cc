#include "reachability/kernel.h"

#include <algorithm>
#include <atomic>
#include <cmath>
#include <limits>

#include "common/check.h"
#include "reachability/binary_model.h"
#include "reachability/empirical_model.h"
#include "reachability/empirical_table.h"

namespace scguard::reachability {
namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();

/// Search ceiling for the bisection bracket; far beyond any planar
/// coordinate this repository produces (the Beijing region spans ~1e5 m).
constexpr double kMaxSearchDistance = 1e9;

/// Relative slack applied when converting a distance bound to squared
/// space: hypot and sqrt(dx^2 + dy^2) agree to a couple of ulps
/// (~4e-16 relative), so 1e-10 pushes every ambiguous point into the
/// direct-evaluation band instead of a certain region.
constexpr double kSqSlack = 1e-10;

double ToAcceptSq(double accept_below_m) {
  if (accept_below_m < 0.0) return -1.0;
  if (std::isinf(accept_below_m)) return kInf;
  return accept_below_m * accept_below_m * (1.0 - kSqSlack);
}

double ToRejectSq(double reject_above_m) {
  if (std::isinf(reject_above_m)) return kInf;
  return reject_above_m * reject_above_m * (1.0 + kSqSlack);
}

AlphaThreshold MakeThreshold(double accept_below_m, double reject_above_m) {
  AlphaThreshold t;
  t.accept_below_m = accept_below_m;
  t.reject_above_m = reject_above_m;
  t.accept_below_sq = ToAcceptSq(accept_below_m);
  t.reject_above_sq = ToRejectSq(reject_above_m);
  return t;
}

/// Largest distance with p(d) >= level, assuming p monotone non-increasing
/// and p(0) >= level. Returns the lower end of the final bracket, so the
/// result is certain-side conservative.
template <typename ProbFn>
double BisectDown(const ProbFn& p, double level, double initial_hi) {
  double lo = 0.0;
  double hi = std::max(initial_hi, 1.0);
  while (p(hi) >= level) {
    lo = hi;
    hi *= 2.0;
    if (hi >= kMaxSearchDistance) return kMaxSearchDistance;
  }
  // Invariant: p(lo) >= level, p(hi) < level.
  for (int iter = 0; iter < 200 && hi - lo > 1e-9 * std::max(1.0, hi);
       ++iter) {
    const double mid = 0.5 * (lo + hi);
    if (p(mid) >= level) {
      lo = mid;
    } else {
      hi = mid;
    }
  }
  return lo;
}

/// Smallest distance with p(d) <= level under the same assumptions
/// (requires p(0) > level). Returns the upper end of the final bracket.
template <typename ProbFn>
double BisectUp(const ProbFn& p, double level, double initial_hi) {
  double lo = 0.0;
  double hi = std::max(initial_hi, 1.0);
  while (p(hi) > level) {
    lo = hi;
    hi *= 2.0;
    if (hi >= kMaxSearchDistance) return kInf;
  }
  // Invariant: p(lo) > level, p(hi) <= level.
  for (int iter = 0; iter < 200 && hi - lo > 1e-9 * std::max(1.0, hi);
       ++iter) {
    const double mid = 0.5 * (lo + hi);
    if (p(mid) > level) {
      lo = mid;
    } else {
      hi = mid;
    }
  }
  return hi;
}

/// Exact inversion for the empirical tables: ProbBelow depends on the
/// observed distance only through its bucket index, so the accept set is
/// read off the bucket row. The certain-accept region is the accepting
/// prefix, the certain-reject region everything past the last accepting
/// bucket; a non-monotone middle (sparse-data noise) stays in the band and
/// is resolved by the O(1) direct lookup.
AlphaThreshold InvertEmpirical(const EmpiricalTable& table, double alpha,
                               double reach_radius_m) {
  const double width = table.bucket_width_m();
  const int num_buckets = table.num_buckets();
  int first_reject = num_buckets;
  int last_accept = -1;
  for (int b = 0; b < num_buckets; ++b) {
    const double representative = (static_cast<double>(b) + 0.5) * width;
    const bool accepts = table.ProbBelow(representative, reach_radius_m) >= alpha;
    if (accepts) {
      last_accept = b;
    } else if (first_reject == num_buckets) {
      first_reject = b;
    }
  }
  if (last_accept < 0) {
    // No bucket accepts: certainly reject everywhere.
    return MakeThreshold(-1.0, 0.0);
  }
  // The boundary distances carry the same relative slack the squared bounds
  // get, so d / width can never round into the wrong bucket. A rejecting
  // bucket 0 means there is no certain-accept prefix at all (-1), even if
  // later buckets accept non-monotonically.
  const double accept_below_m =
      first_reject == num_buckets ? kInf
      : first_reject == 0
          ? -1.0
          : static_cast<double>(first_reject) * width * (1.0 - kSqSlack);
  const double reject_above_m =
      last_accept == num_buckets - 1
          ? kInf  // The open-ended overflow bucket accepts.
          : static_cast<double>(last_accept + 1) * width * (1.0 + kSqSlack);
  return MakeThreshold(accept_below_m, reject_above_m);
}

}  // namespace

AlphaThresholdCache::AlphaThresholdCache(const ReachabilityModel* model,
                                         Stage stage, double alpha,
                                         double margin)
    : model_(model), stage_(stage), alpha_(alpha), margin_(margin) {
  SCGUARD_CHECK(model != nullptr);
  SCGUARD_CHECK(alpha > 0.0 && alpha <= 1.0);
  SCGUARD_CHECK(margin > 0.0 && margin < alpha);
  // Exact per-model inversions first; they need no monotonicity.
  if (dynamic_cast<const BinaryModel*>(model) != nullptr) {
    inversion_ = Inversion::kBinary;
  } else if (dynamic_cast<const EmpiricalModel*>(model) != nullptr) {
    inversion_ = Inversion::kEmpirical;
  } else if (model->Monotone(stage)) {
    inversion_ = Inversion::kLattice;
  } else {
    inversion_ = Inversion::kNone;
  }
}

AlphaThreshold AlphaThresholdCache::For(double reach_radius_m) {
  const double r = reach_radius_m;
  if (inversion_ == Inversion::kNone) {
    return MakeThreshold(-1.0, kInf);  // Every distance is in the band.
  }
  // The range test is false for NaN, so a node index is only ever
  // computed from a finite radius in (0, kMaxRadiusM].
  if (inversion_ != Inversion::kLattice || !(r > 0.0 && r <= kMaxRadiusM)) {
    return Invert(r);
  }
  // Nodes sit on whole meters: truncation is the exact floor, and an
  // integral radius is exactly its node.
  const auto lo = static_cast<size_t>(r);
  const size_t hi = static_cast<double>(lo) == r ? lo : lo + 1;
  if (nodes_.size() <= hi) {
    AlphaThreshold unfilled;
    unfilled.reject_above_m = std::numeric_limits<double>::quiet_NaN();
    nodes_.resize(hi + 1, unfilled);
  }
  AlphaThreshold t = Node(hi);
  const AlphaThreshold& below = Node(lo);
  t.accept_below_m = below.accept_below_m;
  t.accept_below_sq = below.accept_below_sq;
  return t;
}

const AlphaThreshold& AlphaThresholdCache::Node(size_t k) {
  AlphaThreshold& node = nodes_[k];
  if (std::isnan(node.reject_above_m)) {
    node = Invert(static_cast<double>(k));
    ++nodes_bisected_;
  }
  return node;
}

bool AlphaThresholdCache::IsCandidate(double observed_distance_m,
                                      double reach_radius_m) {
  const AlphaThreshold t = For(reach_radius_m);
  if (observed_distance_m <= t.accept_below_m) return true;
  if (observed_distance_m >= t.reject_above_m) return false;
  ++exact_evals_;
  return model_->ProbReachable(stage_, observed_distance_m, reach_radius_m) >=
         alpha_;
}

AlphaThreshold AlphaThresholdCache::Invert(double reach_radius_m) const {
  if (inversion_ == Inversion::kBinary) {
    // p is the step 1{d <= R}: for any alpha in (0, 1] the filter is the
    // oblivious compare itself. The distance bounds are exact; only the
    // squared bounds keep a band for hypot rounding.
    const double r = reach_radius_m;
    AlphaThreshold t;
    t.accept_below_m = r;
    t.reject_above_m = std::nextafter(r, kInf);
    t.accept_below_sq = ToAcceptSq(r);
    t.reject_above_sq = ToRejectSq(r);
    return t;
  }
  if (inversion_ == Inversion::kEmpirical) {
    const auto* empirical = static_cast<const EmpiricalModel*>(model_);
    const EmpiricalTable& table = stage_ == Stage::kU2U
                                      ? empirical->u2u_table()
                                      : empirical->u2e_table();
    return InvertEmpirical(table, alpha_, reach_radius_m);
  }

  // Generic monotone inversion: certain-accept up to the alpha + margin
  // level, certain-reject from the alpha - margin level. The margin absorbs
  // ulp-level non-monotonicity of the implementations around the crossing.
  const auto p = [this, reach_radius_m](double d) {
    return model_->ProbReachable(stage_, d, reach_radius_m);
  };
  const double p0 = p(0.0);
  const double initial_hi = std::max(reach_radius_m, 1.0);

  double accept_below_m = -1.0;
  if (p0 >= alpha_ + margin_) {
    accept_below_m = BisectDown(p, alpha_ + margin_, initial_hi);
    if (accept_below_m >= kMaxSearchDistance) accept_below_m = kInf;
  }
  double reject_above_m = 0.0;
  if (p0 > alpha_ - margin_) {
    reject_above_m = BisectUp(p, alpha_ - margin_, initial_hi);
  }
  return MakeThreshold(accept_below_m, reject_above_m);
}

U2eBoundLattice::U2eBoundLattice(const ReachabilityModel* model,
                                 double margin)
    : model_(model),
      margin_(margin),
      rows_(static_cast<size_t>(kMaxRadiusM / kStepM) + 1) {
  SCGUARD_CHECK(model != nullptr && model->Monotone(Stage::kU2E));
  SCGUARD_CHECK(margin >= 0.0);
}

double U2eBoundLattice::Fill(size_t i, size_t j) {
  ++nodes_filled_;
  const double p = model_->ProbReachable(Stage::kU2E,
                                         static_cast<double>(i) * kStepM,
                                         static_cast<double>(j) * kStepM);
  // A NaN node would compare below every score and hide its candidates.
  return std::isnan(p) ? kInf : p;
}

void ClassifyCertainBandScalar(const WorkerFilterSoA& soa,
                               const uint32_t* indices, size_t count,
                               double task_x, double task_y,
                               std::vector<uint32_t>& accept,
                               std::vector<uint32_t>& band) {
  accept.resize(count);
  band.resize(count);
  const double* const x = soa.x.data();
  const double* const y = soa.y.data();
  const double* const accept_sq = soa.accept_below_sq.data();
  const double* const reject_sq = soa.reject_above_sq.data();
  uint32_t* const accept_out = accept.data();
  uint32_t* const band_out = band.data();
  size_t num_accept = 0;
  size_t num_band = 0;
  for (size_t k = 0; k < count; ++k) {
    const uint32_t i = indices[k];
    const double dx = x[i] - task_x;
    const double dy = y[i] - task_y;
    const double d_sq = dx * dx + dy * dy;
    // Unconditional slot writes + predicated increments keep the loop free
    // of data-dependent branches; d_sq == accept bound counts as accept,
    // leaving the open band (accept, reject) to a direct evaluation.
    const bool in_accept = d_sq <= accept_sq[i];
    const bool in_band = (d_sq > accept_sq[i]) & (d_sq < reject_sq[i]);
    accept_out[num_accept] = i;
    num_accept += in_accept ? 1 : 0;
    band_out[num_band] = i;
    num_band += in_band ? 1 : 0;
  }
  accept.resize(num_accept);
  band.resize(num_band);
}

void ClassifyCertainBandRangeScalar(const CellMajorMirror& m, size_t begin,
                                    size_t count, double task_x,
                                    double task_y,
                                    std::vector<uint32_t>& accept,
                                    std::vector<uint32_t>& band) {
  // Append semantics: resize ahead by the worst case, shrink to the
  // survivors. Same branch-free trichotomy as ClassifyCertainBandScalar,
  // but every column load is a contiguous stream through the mirror rows.
  const size_t accept_base = accept.size();
  const size_t band_base = band.size();
  accept.resize(accept_base + count);
  band.resize(band_base + count);
  const uint32_t* const id = m.id.data() + begin;
  const double* const x = m.x.data() + begin;
  const double* const y = m.y.data() + begin;
  const double* const accept_sq = m.accept_below_sq.data() + begin;
  const double* const reject_sq = m.reject_above_sq.data() + begin;
  uint32_t* const accept_out = accept.data() + accept_base;
  uint32_t* const band_out = band.data() + band_base;
  size_t num_accept = 0;
  size_t num_band = 0;
  for (size_t k = 0; k < count; ++k) {
    const double dx = x[k] - task_x;
    const double dy = y[k] - task_y;
    const double d_sq = dx * dx + dy * dy;
    const bool in_accept = d_sq <= accept_sq[k];
    const bool in_band = (d_sq > accept_sq[k]) & (d_sq < reject_sq[k]);
    accept_out[num_accept] = id[k];
    num_accept += in_accept ? 1 : 0;
    band_out[num_band] = id[k];
    num_band += in_band ? 1 : 0;
  }
  accept.resize(accept_base + num_accept);
  band.resize(band_base + num_band);
}

size_t ClassifyCertainBandRangeRectScalar(
    const CellMajorMirror& m, size_t begin, size_t count, double task_x,
    double task_y, double q_min_x, double q_min_y, double q_max_x,
    double q_max_y, std::vector<uint32_t>& accept,
    std::vector<uint32_t>& band) {
  const size_t accept_base = accept.size();
  const size_t band_base = band.size();
  accept.resize(accept_base + count);
  band.resize(band_base + count);
  const uint32_t* const id = m.id.data() + begin;
  const double* const x = m.x.data() + begin;
  const double* const y = m.y.data() + begin;
  const double* const er = m.expanded_r.data() + begin;
  const double* const accept_sq = m.accept_below_sq.data() + begin;
  const double* const reject_sq = m.reject_above_sq.data() + begin;
  uint32_t* const accept_out = accept.data() + accept_base;
  uint32_t* const band_out = band.data() + band_base;
  size_t num_accept = 0;
  size_t num_band = 0;
  size_t admitted = 0;
  for (size_t k = 0; k < count; ++k) {
    // Bit-identical to GridIndex::Query's boundary member test.
    const bool admit = (x[k] - er[k] <= q_max_x) & (q_min_x <= x[k] + er[k]) &
                       (y[k] - er[k] <= q_max_y) & (q_min_y <= y[k] + er[k]);
    const double dx = x[k] - task_x;
    const double dy = y[k] - task_y;
    const double d_sq = dx * dx + dy * dy;
    const bool in_accept = admit & (d_sq <= accept_sq[k]);
    const bool in_band =
        admit & (d_sq > accept_sq[k]) & (d_sq < reject_sq[k]);
    accept_out[num_accept] = id[k];
    num_accept += in_accept ? 1 : 0;
    band_out[num_band] = id[k];
    num_band += in_band ? 1 : 0;
    admitted += admit ? 1 : 0;
  }
  accept.resize(accept_base + num_accept);
  band.resize(band_base + num_band);
  return admitted;
}

namespace {

using ClassifyFn = void (*)(const WorkerFilterSoA&, const uint32_t*, size_t,
                            double, double, std::vector<uint32_t>&,
                            std::vector<uint32_t>&);
using ClassifyRangeFn = void (*)(const CellMajorMirror&, size_t, size_t,
                                 double, double, std::vector<uint32_t>&,
                                 std::vector<uint32_t>&);
using ClassifyRangeRectFn = size_t (*)(const CellMajorMirror&, size_t, size_t,
                                       double, double, double, double, double,
                                       double, std::vector<uint32_t>&,
                                       std::vector<uint32_t>&);

/// nullptr = not resolved yet; the first call (or an explicit
/// ActiveClassifySimd / SetClassifySimd) resolves via CPUID. Relaxed atomics
/// suffice: every resolution writes the same value and the pointed-to
/// functions are immutable code.
std::atomic<ClassifyFn> g_classify{nullptr};
std::atomic<ClassifyRangeFn> g_classify_range{nullptr};
std::atomic<ClassifyRangeRectFn> g_classify_range_rect{nullptr};

ClassifyFn ResolveClassify() {
#if defined(SCGUARD_HAVE_AVX2)
  if (CpuSupportsAvx2()) return &ClassifyCertainBandAvx2;
#endif
  return &ClassifyCertainBandScalar;
}

ClassifyFn LoadOrResolve() {
  ClassifyFn fn = g_classify.load(std::memory_order_relaxed);
  if (fn == nullptr) {
    fn = ResolveClassify();
    g_classify.store(fn, std::memory_order_relaxed);
  }
  return fn;
}

ClassifyRangeFn LoadOrResolveRange() {
  ClassifyRangeFn fn = g_classify_range.load(std::memory_order_relaxed);
  if (fn == nullptr) {
#if defined(SCGUARD_HAVE_AVX2)
    fn = CpuSupportsAvx2() ? &ClassifyCertainBandRangeAvx2
                           : &ClassifyCertainBandRangeScalar;
#else
    fn = &ClassifyCertainBandRangeScalar;
#endif
    g_classify_range.store(fn, std::memory_order_relaxed);
  }
  return fn;
}

ClassifyRangeRectFn LoadOrResolveRangeRect() {
  ClassifyRangeRectFn fn =
      g_classify_range_rect.load(std::memory_order_relaxed);
  if (fn == nullptr) {
#if defined(SCGUARD_HAVE_AVX2)
    fn = CpuSupportsAvx2() ? &ClassifyCertainBandRangeRectAvx2
                           : &ClassifyCertainBandRangeRectScalar;
#else
    fn = &ClassifyCertainBandRangeRectScalar;
#endif
    g_classify_range_rect.store(fn, std::memory_order_relaxed);
  }
  return fn;
}

}  // namespace

bool CpuSupportsAvx2() {
#if defined(__x86_64__) || defined(__i386__)
  return __builtin_cpu_supports("avx2") != 0;
#else
  return false;
#endif
}

void ClassifyCertainBand(const WorkerFilterSoA& soa, const uint32_t* indices,
                         size_t count, double task_x, double task_y,
                         std::vector<uint32_t>& accept,
                         std::vector<uint32_t>& band) {
  LoadOrResolve()(soa, indices, count, task_x, task_y, accept, band);
}

void ClassifyCertainBandRange(const CellMajorMirror& m, size_t begin,
                              size_t count, double task_x, double task_y,
                              std::vector<uint32_t>& accept,
                              std::vector<uint32_t>& band) {
  LoadOrResolveRange()(m, begin, count, task_x, task_y, accept, band);
}

size_t ClassifyCertainBandRangeRect(const CellMajorMirror& m, size_t begin,
                                    size_t count, double task_x,
                                    double task_y, double q_min_x,
                                    double q_min_y, double q_max_x,
                                    double q_max_y,
                                    std::vector<uint32_t>& accept,
                                    std::vector<uint32_t>& band) {
  return LoadOrResolveRangeRect()(m, begin, count, task_x, task_y, q_min_x,
                                  q_min_y, q_max_x, q_max_y, accept, band);
}

ClassifySimd ActiveClassifySimd() {
  const ClassifyFn fn = LoadOrResolve();
#if defined(SCGUARD_HAVE_AVX2)
  if (fn == &ClassifyCertainBandAvx2) return ClassifySimd::kAvx2;
#endif
  (void)fn;
  return ClassifySimd::kScalar;
}

void SetClassifySimd(ClassifySimd simd) {
#if defined(SCGUARD_HAVE_AVX2)
  if (simd == ClassifySimd::kAvx2 && CpuSupportsAvx2()) {
    g_classify.store(&ClassifyCertainBandAvx2, std::memory_order_relaxed);
    g_classify_range.store(&ClassifyCertainBandRangeAvx2,
                           std::memory_order_relaxed);
    g_classify_range_rect.store(&ClassifyCertainBandRangeRectAvx2,
                                std::memory_order_relaxed);
    return;
  }
#endif
  (void)simd;
  g_classify.store(&ClassifyCertainBandScalar, std::memory_order_relaxed);
  g_classify_range.store(&ClassifyCertainBandRangeScalar,
                         std::memory_order_relaxed);
  g_classify_range_rect.store(&ClassifyCertainBandRangeRectScalar,
                              std::memory_order_relaxed);
}

void ResetClassifySimd() {
  g_classify.store(nullptr, std::memory_order_relaxed);
  g_classify_range.store(nullptr, std::memory_order_relaxed);
  g_classify_range_rect.store(nullptr, std::memory_order_relaxed);
}

}  // namespace scguard::reachability
